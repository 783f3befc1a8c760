"""Dense graded-colex indexing of truncated multivariate monomials.

Everything here is pure index bookkeeping, cached per (n, cap). A workspace
holds all exponent tuples of n variables with total degree <= cap; their
rank in the graded-colex order is the storage slot used by jets.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache


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


def size(n: int, cap: int) -> int:
    return len(exponents(n, cap))


@lru_cache(maxsize=None)
def product_rows(n: int, cap: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row ra lists the (rb, rc) pairs, rb ascending, for which the monomial
    of rank ra times the one of rank rb has rank rc <= cap; overflow pairs
    are absent. In graded order the rbs of row ra are 0..size(n, cap - deg ra) - 1,
    and the table holds C(2n + cap, cap) pairs."""
    exps = exponents(n, cap)
    ranks = rank_of(n, cap)
    degs = degree_of(n, cap)
    return tuple(
        tuple(
            (rb, ranks[tuple(x + y for x, y in zip(ea, exps[rb]))])
            for rb in range(bisect_right(degs, cap - degs[ra]))
        )
        for ra, ea in enumerate(exps)
    )


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


@lru_cache(maxsize=None)
def promote_map(n: int, cap: int) -> tuple[int, ...]:
    """Rank map embedding (n-1)-variable monomials as x1-free n-variable ones."""
    ranks = rank_of(n, cap)
    return tuple(ranks[(0,) + e] for e in exponents(n - 1, cap))


@lru_cache(maxsize=None)
def restrict_pairs(n: int, cap: int) -> tuple[tuple[int, int], ...]:
    """(full_rank, slice_rank) for every monomial with zero x1 exponent."""
    slice_ranks = rank_of(n - 1, cap)
    out = []
    for r, e in enumerate(exponents(n, cap)):
        if e[0] == 0:
            out.append((r, slice_ranks[e[1:]]))
    return tuple(out)
