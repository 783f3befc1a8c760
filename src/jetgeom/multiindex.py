"""Dense graded-colex indexing of truncated multivariate monomials.

Everything here is pure index bookkeeping, cached per (n, cap). A workspace
holds all exponent tuples of n variables with total degree <= cap; their
rank in the graded-colex order is the storage slot used by jets.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import groupby


# the largest product-pair table (`product_rows`: C(2n + D, D) pairs of under
# 100 bytes each) a scenario or a report may need; the tests, demos and
# benchmark use at most 12870 pairs (n = 4, D = 8)
MAX_PRODUCT_PAIRS = 100_000


def exceeds_pair_bound(n: int, cap: int) -> bool:
    """Whether workspace (n, cap) needs more than MAX_PRODUCT_PAIRS product
    pairs, C(2n + cap, cap), with n counted as at least 1 and cap as at
    least 2: the exponent tables grow with n, and the loops over degrees
    with cap, where the pair table does not. C(2n + cap, i) grows with i up
    to min(2n, cap), so the count stops as soon as it passes the bound."""
    n, cap = max(n, 1), max(cap, 2)
    pairs = 1
    for i in range(1, min(2 * n, cap) + 1):
        pairs = pairs * (2 * n + cap + 1 - i) // i
        if pairs > MAX_PRODUCT_PAIRS:
            return True
    return False


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def exponents(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= cap, graded colex order."""
    if n < 0 or cap < 0:
        raise ValueError("need n >= 0 and cap >= 0")
    out = []
    for degree in range(cap + 1):
        out.extend(sorted(_compositions(degree, n), key=lambda e: e[::-1]))
    return tuple(out)


@lru_cache(maxsize=None)
def rank_of(n: int, cap: int) -> dict[tuple[int, ...], int]:
    return {e: r for r, e in enumerate(exponents(n, cap))}


@lru_cache(maxsize=None)
def degree_of(n: int, cap: int) -> tuple[int, ...]:
    return tuple(sum(e) for e in exponents(n, cap))


def _x1_exponents(n: int, cap: int) -> tuple[int, ...]:
    """The x1-exponent of every rank; 0 for the one monomial of n = 0."""
    return tuple(sum(e[:1]) for e in exponents(n, cap))


def size(n: int, cap: int) -> int:
    return len(exponents(n, cap))


@lru_cache(maxsize=None)
def product_rows(n: int, cap: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row ra lists the (rb, rc) pairs for which the monomial of rank ra
    times the one of rank rb has rank rc <= cap; overflow pairs are absent.
    In graded order the rbs of row ra are 0..size(n, cap - deg ra) - 1; a row
    lists them by x1-exponent and then ascending, so the pairs of one row that
    land on one x1-layer are contiguous (`product_layers`). The table holds
    C(2n + cap, cap) pairs."""
    exps = exponents(n, cap)
    ranks = rank_of(n, cap)
    degs = degree_of(n, cap)
    return tuple(
        tuple(
            (rb, ranks[tuple(x + y for x, y in zip(ea, exps[rb]))])
            for rb in sorted(
                range(bisect_right(degs, cap - degs[ra])), key=lambda rb: exps[rb][:1]
            )
        )
        for ra, ea in enumerate(exps)
    )


@lru_cache(maxsize=None)
def product_layers(n: int, cap: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Layer t lists the (ra, lo, hi) spans of `product_rows`: the pairs
    lo..hi - 1 of row ra, whose product ranks rc have x1-exponent t. Every
    pair lies in exactly one span, so the layers partition the one table of
    pairs without copying it."""
    x1 = _x1_exponents(n, cap)
    layers: list[list] = [[] for _ in range(cap + 1)]
    for ra, row in enumerate(product_rows(n, cap)):
        lo = 0
        for s, block in groupby(row, key=lambda pair: x1[pair[0]]):
            hi = lo + sum(1 for _ in block)
            layers[x1[ra] + s].append((ra, lo, hi))
            lo = hi
    return tuple(tuple(spans) for spans in layers)


@lru_cache(maxsize=None)
def x1_layers(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    """Layer t lists the ranks of x1-exponent t in rank order, which is the
    graded-colex order of their (x2, ..., xn) parts: position i of layer t
    is slice rank i in n - 1 variables, and layer t + 1 has the first
    size(n - 1, cap - t - 1) positions of layer t. Layer 0 embeds the
    slice ranks (`jets.SliceJet.promote`, `Jet.restrict_x1`)."""
    x1 = _x1_exponents(n, cap)
    return tuple(tuple(r for r, e in enumerate(x1) if e == t) for t in range(cap + 1))


def product_rank(n: int, cap: int) -> dict[tuple[int, int], int]:
    """(rank_a, rank_b) -> rank of the monomial product; overflow pairs absent."""
    return {(ra, rb): rc for ra, row in enumerate(product_rows(n, cap)) for rb, rc in row}


@lru_cache(maxsize=None)
def partial_map(n: int, cap: int, axis0: int) -> tuple[tuple[int, int, int], ...]:
    """(src_rank, dst_rank, exponent factor) triples for d/dx along axis0."""
    ranks = rank_of(n, cap)
    moves = []
    for r, e in enumerate(exponents(n, cap)):
        k = e[axis0]
        if k:
            lowered = list(e)
            lowered[axis0] = k - 1
            moves.append((r, ranks[tuple(lowered)], k))
    return tuple(moves)


@lru_cache(maxsize=None)
def antiderivative_x1_map(n: int, cap: int) -> tuple[tuple[int, int, int], ...]:
    """(src_rank, dst_rank, new x1 exponent) triples; top-degree sources drop."""
    ranks = rank_of(n, cap)
    degs = degree_of(n, cap)
    moves = []
    for r, e in enumerate(exponents(n, cap)):
        if degs[r] >= cap:
            continue
        raised = (e[0] + 1,) + e[1:]
        moves.append((r, ranks[raised], e[0] + 1))
    return tuple(moves)
