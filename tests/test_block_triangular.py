"""The structural block split of jet-linear systems (`jets._block_split`): a
perfect matching of rows to keys, then Tarjan's strongly connected
components of the dependency graph it induces (Duff & Reid, "An
implementation of Tarjan's algorithm for the block triangularization of a
matrix", ACM TOMS 1978). Its blocks of the statistical node are checked
against the rule once derived by hand for the Codazzi gaps, and its blocks
of random patterns against a brute-force search."""

import itertools
import random

import pytest

from ck_seam import determined_system
from jetgeom import SingularJetError
from jetgeom.builders import _blocks, _codazzi_spec
from jetgeom.jets import _block_split


def solved_pair(gap: tuple[int, int, int]) -> tuple[int, int]:
    """The hand rule: the lower index pair whose determined symbols the
    algebraic gap solves. Gap (j, k, 1) solves lower (1, k), the n - k
    symbols with upper t > k; gap (i, j, i) solves lower (i, i), the n - 2
    symbols with upper t >= 2, t != i; gap (i, j, k) with 2 <= i < k solves
    lower (i, k), the n - i - 1 symbols with upper t > i, t != k."""
    i, j, k = gap
    return (1, j) if k == 1 else (i, k)


@pytest.mark.parametrize("n", range(3, 10))
def test_determined_symbol_blocks_are_the_block_triangular_form(n):
    # the split gives the hand rule's blocks, one per lower index pair, as
    # sets of symbols and of gaps, with every dependency on an earlier block
    keys, rows = determined_system(n)
    gap_of = {id(row): gap for row, gap in zip(rows, _codazzi_spec(n).gaps)}
    split = _blocks(keys, rows)
    got = sorted((sorted(block_keys), sorted(gap_of[id(row)] for row in block_rows))
                 for block_keys, block_rows in split)
    want = sorted(
        (
            sorted(key for key in keys if key[1:] == pair),
            sorted(gap for gap in gap_of.values() if solved_pair(gap) == pair),
        )
        for pair in {key[1:] for key in keys}
    )
    assert got == want
    known = set()
    for block_keys, block_rows in split:
        known.update(block_keys)
        for row in block_rows:
            assert {x for _, x, _ in row.products if x in set(keys)} <= known, row
    assert max(len(block_keys) for block_keys, _ in split) <= n - 2


def matchable(keys, reads) -> bool:
    """Whether some permutation gives each row a distinct key it reads."""
    return len(reads) == len(keys) and any(
        all(key in read for key, read in zip(perm, reads)) for perm in itertools.permutations(keys)
    )


@pytest.mark.parametrize("seed", range(300))
def test_block_split_of_a_random_pattern(seed):
    # up to six rows and keys; the keys are strings, so no order comes from
    # their hashes. Singular exactly when no perfect matching exists;
    # otherwise the blocks partition keys and rows into square blocks in
    # dependency order, and no block splits further: no proper subset S of
    # its keys has |S| of its rows reading, of its keys, only keys in S
    rng = random.Random(seed)
    keys = [f"k{c}" for c in range(rng.randint(0, 6))]
    density = rng.choice([0.2, 0.35, 0.5])
    reads = [{key for key in keys if rng.random() < density} for _ in range(len(keys))]
    if rng.random() < 0.05:
        reads.append(set(keys[:1]))
    if not matchable(keys, reads):
        with pytest.raises(SingularJetError, match="^jet matrix not invertible at the origin$"):
            _block_split(keys, reads)
        return
    split = _block_split(keys, reads)
    assert sorted(key for block, _ in split for key in block) == sorted(keys)
    assert sorted(r for _, members in split for r in members) == list(range(len(reads)))
    known = set()
    for block, members in split:
        assert len(block) == len(members) and block == [key for key in keys if key in block]
        assert members == sorted(members)
        known.update(block)
        assert all(reads[r] <= known for r in members)
        inside = [reads[r] & set(block) for r in members]
        for size in range(1, len(block)):
            for subset in itertools.combinations(block, size):
                assert sum(read <= set(subset) for read in inside) < size, (block, subset)


@pytest.mark.parametrize("cyclic", [False, True])
def test_block_split_of_a_long_chain_is_not_bounded_by_recursion(cyclic):
    # key i depends on key i + 1 through row i: 3000 blocks of one key, the
    # last key first, or one block when the last row closes the cycle
    m = 3000
    reads = [{i, i + 1} for i in range(m - 1)] + [{m - 1, 0} if cyclic else {m - 1}]
    split = _block_split(range(m), reads)
    if cyclic:
        assert split == [(list(range(m)), list(range(m)))]
    else:
        assert split == [([i], [i]) for i in reversed(range(m))]
