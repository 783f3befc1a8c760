"""The block order of the determined-symbol blocks against a block
triangularization computed from scratch: a structural matching of the
algebraic Codazzi gaps to the determined symbols, then Tarjan's strongly
connected components of the dependency graph it induces (Duff & Reid,
"An implementation of Tarjan's algorithm for the block triangularization of
a matrix", ACM TOMS 1978)."""

import pytest

from jetgeom.builders import _codazzi_gap, _codazzi_spec, _determined_blocks


def perfect_matching(pattern: list[set], columns) -> list:
    """A column for each row, pairwise distinct, with each row's column in
    its pattern, by augmenting paths (Kuhn)."""
    owner: dict = {}  # column -> row

    def augment(r, seen):
        for c in sorted(pattern[r]):
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    for r in range(len(pattern)):
        assert augment(r, set()), f"row {r} has no structural match"
    assert set(owner) == set(columns)
    matched = [None] * len(pattern)
    for c, r in owner.items():
        matched[r] = c
    return matched


def strongly_connected_components(graph: dict) -> list[set]:
    """Tarjan's algorithm; the components come out in reverse topological
    order: a component's edges lead only into components listed before it."""
    index, low, stack, on_stack, components = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph[v]):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.add(w)
                if w == v:
                    break
            components.append(component)

    for v in sorted(graph):
        if v not in index:
            visit(v)
    return components


@pytest.mark.parametrize("n", range(3, 10))
def test_determined_symbol_blocks_are_the_block_triangular_form(n):
    spec = _codazzi_spec(n)
    determined = set(spec.determined)
    rows = [_codazzi_gap(*gap, n, True) for gap in spec.gaps]
    pattern = [{x for _, x, _ in row.products if x in determined} for row in rows]
    matched = perfect_matching(pattern, determined)
    # the symbol a row is matched to depends on every other symbol it reads
    graph = {key: set() for key in determined}
    for key, reads in zip(matched, pattern):
        graph[key] |= reads - {key}
    components = strongly_connected_components(graph)

    blocks = [set(keys) for keys, _ in _determined_blocks(n, spec.determined)]
    assert sorted(map(sorted, blocks)) == sorted(map(sorted, components))
    position = {key: b for b, keys in enumerate(blocks) for key in keys}
    for key, reads in graph.items():
        for other in reads:
            assert position[other] <= position[key], (key, other)
    assert max(map(len, blocks)) <= n - 2
