"""The x1-layered CK solve of the builders: bit for bit against the Picard
reference, its derivative contract, and its errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jetgeom.builders as builders_module
import jetgeom.jets as jets_module
from ck_seam import capture_ck_solves, determined_system, to_degree
from jetgeom import (
    EvaluationError,
    Jet,
    Metric,
    SingularJetError,
    SliceJet,
    build_prescribed_ricci_general,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    levi_civita,
    random_free_data,
    random_normalized_metric,
    random_poly,
    random_prescribed_tensor,
    zero_free_data,
)
from jetgeom import multiindex as mi
from jetgeom.builders import (
    BuildReport,
    _Row,
    _all_pair_keys,
    _blocks,
    _checked,
    _ck_rows,
    _ck_solve,
    _codazzi_spec,
    _degrees,
    _run_checks,
    parse_slot,
)
from jetgeom.ck import solve_first_order
from jetgeom.cli import _run_direct, _run_round_trip
from jetgeom.serialize import canonical_dumps, jet_to_json, report_to_json
from oracles import _row_sum, ref_determined_christoffels, ref_linear_solve, ref_metric_2d_h

ROW_BUILDS = [
    (tag, n)
    for tag, ns in (
        ("general", (2, 3, 4)),
        ("trace-free-torsion", (3, 4)),
        ("torsion-free", (2, 3, 4)),
        ("statistical", (3, 4)),
        ("statistical-2d", (2,)),
        ("trace-free-statistical-2d", (2,)),
        ("metric-2d", (2,)),
    )
    for n in ns
]
# metric-2d has no round_trip mode
SEAM_CASES = [
    (tag, n, cap, mode)
    for tag, n in ROW_BUILDS
    for cap in (3, 5)
    for mode in ("direct",) + (() if tag == "metric-2d" else ("round_trip",))
]

# direct mode: random data in every slot the scenario offers
RANDOM_PRESCRIBED = {
    "general": {"r": "random"},
    "trace-free-torsion": {"r": "random"},
    "torsion-free": {"r": "random"},
    "statistical": {},
    "statistical-2d": {"g11": "random", "init12": "random", "init22": "random"},
    "trace-free-statistical-2d": {"init12": "random", "init22": "random"},
    "metric-2d": {"r11": "random", "r22": "random", "phi": "random", "psi": "random"},
}


@pytest.mark.parametrize("tag, n, cap, mode", SEAM_CASES)
def test_layered_solve_matches_picard(monkeypatch, tag, n, cap, mode):
    calls = capture_ck_solves(monkeypatch)
    sc = {"construction": tag, "n": n, "D": cap, "seed": 7}
    if mode == "direct":
        sc.update(prescribed=RANDOM_PRESCRIBED[tag], free_data="random")
        _run_direct(sc)
    else:
        _run_round_trip(sc)
    [(system, args, table)] = calls
    equations, fixed, derived, _, outputs, algebraic = (*args, ((), ()))[:6]
    blocks = _blocks(*algebraic)
    picard = solve_first_order(system).values
    degrees = _degrees(_ck_rows(equations, fixed), derived, frozenset(outputs), cap, blocks)
    # an unknown that is not an output (metric-2d's p and w) is cut to its degree
    for key in equations:
        assert table[key].same_payload(to_degree(picard[key], degrees[key])), key
    # each derived entry, valid order included, is its row's sum on the
    # Picard solution (the torsion-free G^k_kk are valid to D - 1), and the
    # algebraic keys are the full-size elimination of all the algebraic rows
    # on it: an output as it is, any other entry cut to its degree
    full = {**fixed, **picard}
    for target, row in derived.items():
        full[target] = _row_sum(row, full)[0]
    keys, rows = algebraic
    assert bool(keys) == (tag in ("statistical", "trace-free-statistical-2d"))
    full.update(ref_linear_solve(keys, rows, full))
    # every key of a block shares one degree, and the solve returns only the
    # caller's keys
    assert set(degrees) == set(equations) | set(derived) | set(keys)
    for block_keys, _ in blocks:
        assert len({degrees[key] for key in block_keys}) == 1, block_keys
    for key, k in degrees.items():
        if key in outputs:
            assert k == cap and table[key].same_payload(full[key]), key
        else:
            assert table[key].same_payload(to_degree(full[key], k)), key
    assert set(table) == set(full)


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
@pytest.mark.parametrize(
    "tag, n",
    [
        ("general", 2), ("general", 3), ("trace-free-torsion", 3), ("trace-free-torsion", 4),
        ("torsion-free", 2), ("torsion-free", 3), ("statistical", 3), ("statistical", 4),
    ],
)
def test_ck_solve_keys_every_entry_by_its_slot(monkeypatch, tag, n, mode):
    # the unknowns, their initial slices, the free data and the determined
    # symbols of the solve carry the keys their census slots parse to
    calls = capture_ck_solves(monkeypatch)
    sc = {"construction": tag, "n": n, "D": 3, "seed": 7}
    if mode == "direct":
        sc.update(prescribed=RANDOM_PRESCRIBED[tag], free_data="random")
        _run_direct(sc)
    else:
        _run_round_trip(sc)
    [(_, args, _)] = calls
    equations, fixed, derived, initial, _, (keys, _) = (*args, ((), ()))[:6]
    cen = census(tag, n)
    assert set(initial) == set(equations) == {parse_slot(s) for s in cen.initial_slice_slots}
    assert all(parse_slot(s) in fixed for s in cen.free_function_slots if s != "phi")
    determined = {parse_slot(s) for s in cen.determined}
    if tag == "statistical":
        assert sorted(keys) == sorted(determined)
    else:
        rng = range(1, n + 1)
        assert determined == set(derived) - {("div", a, l) for a in rng for l in rng}
        assert not keys


def inline_metric_2d_data(cap: int, seed: int) -> dict:
    """Inline r11, r22, phi and psi with rational coefficients up to degree
    min(D, 4), nonzero at the origin but psi."""
    rng = random.Random(100 * cap + seed)

    def jet(n, constant):
        terms = {
            exps: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for exps in mi.exponents(n, cap)
            if sum(exps) <= 4
        }
        terms[(0,) * n] = constant
        return jet_to_json(Jet.from_terms(n, cap, terms))

    def nonzero():
        return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))

    return {
        "r11": jet(2, nonzero()),
        "r22": jet(2, nonzero()),
        "phi": {"ambient_n": 2, "jet": jet(1, nonzero())},
        "psi": {"ambient_n": 2, "jet": jet(1, Fraction(rng.randint(-2, 2)))},
    }


@pytest.mark.parametrize("data", ["random", "inline"])
@pytest.mark.parametrize("cap", range(2, 13))
def test_metric_2d_matches_the_second_order_picard_solve(cap, data):
    # the first-order (h, p) system gives the h of the second-order solve,
    # and the report the bytes of a report made from that h
    for seed in range(1, 7):
        sc = {"construction": "metric-2d", "n": 2, "D": cap, "seed": seed}
        if data == "random":
            sc["prescribed"] = RANDOM_PRESCRIBED["metric-2d"]
        else:
            sc["prescribed"] = inline_metric_2d_data(cap, seed)
        report = _run_direct(sc)
        r, phi, psi = (report.prescribed[key] for key in ("r", "phi", "psi"))
        h = ref_metric_2d_h(r, phi, psi)
        assert report.outputs["conformal_factor"].same_payload(h), seed
        metric = Metric(
            2, {(1, 1): h * r.comp(1, 1), (1, 2): Jet.zero(2, cap), (2, 2): h * r.comp(2, 2)}
        )
        outputs = {"metric": metric, "conformal_factor": h}
        ref = _checked(BuildReport("metric-2d", 2, cap, report.prescribed, None, outputs, []))
        assert canonical_dumps(report_to_json(report)) == canonical_dumps(report_to_json(ref))


@pytest.mark.parametrize(
    "n, cap", [(n, cap) for n in (3, 4, 5) for cap in (2, 3, 4, 5)] + [(6, 2), (6, 3)]
)
def test_determined_symbol_node_matches_the_full_elimination(n, cap):
    # the free symbols' valid orders vary, as in round_trip mode (D - 1)
    rng = random.Random(10 * n + cap)
    g0 = random_normalized_metric(rng.randrange(2**32), n, cap, 2, 2)
    gtable = {("g", i, j): g0.comp(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    determined = _codazzi_spec(n).determined
    free = {
        key: random_poly(rng.randrange(2**32), n, 2, 2, cap).with_valid_order(
            rng.choice([cap, cap, cap - 1])
        )
        for key in _all_pair_keys(n)
        if key not in set(determined)
    }
    solved = _ck_solve({}, {**gtable, **free}, {}, {}, set(determined), determined_system(n))
    full = ref_determined_christoffels(n, cap, gtable, free, determined)
    assert set(solved) == set(gtable) | set(free) | set(determined)
    for key in determined:
        assert solved[key].same_payload(full[key]), key


def random_block_system(seed: int, size: int = 2) -> tuple[dict, list]:
    """A fixed table in workspace (n, D), n = 2..3 and D = 1..4, each entry
    valid to a random order, and 1-3 blocks of 1..size keys, as drawn. Row i
    of a block holds key i times an entry of constant term 5 or -5 and every
    other key of its block times an entry of constant term in [-1, 1], so
    the layer-0 matrix is invertible and its constant matrix, diagonally
    dominant, has a determinant other than +-1; its rest is linear,
    derivative (along x2) and product atoms of the fixed entries, and a
    later block's row may read a key of an earlier block as a product
    factor. So the drawn blocks are the fine blocks of the rows."""
    rng = random.Random(seed)
    n, cap = rng.randint(2, 3), rng.randint(1, 4)

    def entry(constant):
        jet = random_poly(rng.randrange(2**32), n, cap, 2, cap)
        jet = jet + (constant - jet.constant_term)
        return jet.with_valid_order(rng.randint(0, cap))

    fixed, blocks, earlier = {}, [], []
    for b in range(rng.randint(1, 3)):
        keys = [("x", b, i) for i in range(rng.randint(1, size))]
        rows = []
        for i, key in enumerate(keys):
            products = []
            for j, other in enumerate(keys):
                fixed[("m", b, i, j)] = entry(rng.choice([5, -5]) if i == j else rng.randint(-1, 1))
                products.append((rng.choice([1, -1]), other, ("m", b, i, j)))
            fixed[("f", b, i)], fixed[("h", b, i)] = entry(rng.randint(-2, 2)), entry(1)
            products.append((rng.randint(-2, 2), ("f", b, i), ("h", b, i)))
            for read in earlier:
                if rng.random() < 0.5:
                    products.append((rng.choice([1, -1]), read, ("h", b, i)))
            linear = ((rng.randint(-2, 2), ("f", b, i)),)
            derivatives = ((rng.choice([1, -1]), ("h", b, i), 2),)
            rows.append(_Row(linear, derivatives, tuple(products)))
        blocks.append((keys, rows))
        earlier += keys
    return fixed, blocks


def constant_matrix(block, fixed) -> list[list[Fraction]]:
    """The constant matrix of a block of `random_block_system`."""
    keys, rows = block
    matrix = [[Fraction(0)] * len(keys) for _ in rows]
    for i, row in enumerate(rows):
        for c, x, y in row.products:
            if x in keys:
                matrix[i][keys.index(x)] += c * fixed[y].constant_term
    return matrix


def determinant(matrix) -> Fraction:
    """By cofactor expansion along the first row."""
    if not matrix:
        return Fraction(1)
    return sum(
        (-1) ** j * a * determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )


# seeds 0..199 draw blocks of one or two keys, 200..239 of up to three. The
# pinned seed (n = 3, D = 4) draws blocks of 2, 3 and 2 keys, and its fixed
# entries are scaled by 2/3 (the key coefficients) and 1/2 (the rest), so the
# matrix entries, the rows and the constant matrix's inverse all have
# denominators
BLOCK_SEEDS = [(seed, 2) for seed in range(200)] + [(seed, 3) for seed in range(200, 240)]
PINNED_BLOCK_SEED = 236


@pytest.mark.parametrize("seed", [seed for seed, _ in BLOCK_SEEDS])
def test_block_keys_are_the_full_elimination_valid_order_included(seed):
    # every block key has the valid order the full-size elimination of all
    # the blocks' rows gives it, though the rows' atoms are valid to
    # different orders. Only some keys are read back: every key of a block
    # shares the block's one degree, D where the block holds an output, and
    # the others are cut to it, which later blocks' reads may raise
    size = dict(BLOCK_SEEDS)[seed]
    fixed, blocks = random_block_system(seed, size)
    if seed == PINNED_BLOCK_SEED:
        scales = {"m": Fraction(2, 3)}
        fixed = {key: jet.scale(scales.get(key[0], Fraction(1, 2))) for key, jet in fixed.items()}
    keys = [key for block_keys, _ in blocks for key in block_keys]
    rows = [row for _, block_rows in blocks for row in block_rows]
    # the solve splits the rows into the drawn blocks, in an order where
    # each block reads keys of earlier blocks only
    split = _blocks(keys, rows)
    assert sorted(split) == sorted(blocks)
    for b, (_, block_rows) in enumerate(split):
        earlier = {key for block_keys, _ in split[: b + 1] for key in block_keys}
        assert all(x in earlier for row in block_rows for _, x, _ in row.products if x in keys)
    outputs = set(random.Random(seed).sample(keys, random.Random(-seed).randint(1, len(keys))))
    solved = _ck_solve({}, fixed, {}, {}, outputs, (keys, rows))
    full = ref_linear_solve(keys, rows, fixed)
    assert set(solved) == set(fixed) | set(keys)
    assert all(solved[key] is jet for key, jet in fixed.items())
    cap = next(iter(fixed.values())).max_degree
    degrees = _degrees({}, {}, outputs, cap, split)
    assert set(degrees) == set(keys)
    for block in blocks:
        shared = {degrees[key] for key in block[0]}
        assert len(shared) == 1
        if outputs.intersection(block[0]):
            assert shared == {cap}
        assert abs(determinant(constant_matrix(block, fixed))) > 1
    if seed == PINNED_BLOCK_SEED:
        dets = [determinant(constant_matrix(block, fixed)) for block in blocks]
        assert dets == [Fraction(-104, 9), Fraction(112, 3), Fraction(-32, 3)]
    for key in keys:
        assert solved[key].same_payload(to_degree(full[key], degrees[key])), key


@pytest.mark.parametrize("size", [1, 2])
def test_a_singular_constant_matrix_fails_at_layer_0(size):
    # a block whose constant matrix is singular though its entries are not
    # zero jets (x2 alone, or a rank-one constant matrix with an x2 on the
    # diagonal) fails at layer 0 with the message of a jet elimination
    n, cap = 3, 3
    x2, one = Jet.variable(2, n, cap), Jet.one(n, cap)
    fixed = {"a": one + x2, "b": one, "m": x2, "f": random_poly(5, n, 2, 2, cap)}
    if size == 1:
        algebraic = (["x"], [_Row(((1, "f"),), (), ((1, "x", "m"),))])
    else:
        rows = [
            _Row(((1, "f"),), (), ((1, "x", "a"), (1, "y", "b"))),
            _Row(((-1, "f"),), (), ((2, "x", "b"), (2, "y", "b"))),
        ]
        algebraic = (["x", "y"], rows)
    with pytest.raises(EvaluationError) as err:
        _ck_solve({}, fixed, {}, {}, {"x"}, algebraic)
    assert str(err.value) == (
        "right-hand side failed at x1-layer 0: jet matrix not invertible at the origin"
    )
    assert isinstance(err.value.__cause__, SingularJetError)


@pytest.mark.parametrize(
    "products",
    [
        # the second row holds no key
        (((1, "x", "a"), (1, "y", "b")), ((1, "f", "a"),)),
        # both rows hold x alone
        (((1, "x", "a"),), ((2, "x", "b"),)),
        # more rows than keys
        (((1, "x", "a"), (1, "y", "b")), ((1, "x", "b"),), ((1, "y", "a"),)),
    ],
    ids=["keyless-row", "one-key-twice", "three-rows"],
)
def test_a_structurally_singular_system_fails_at_layer_0(monkeypatch, products):
    # rows whose keys admit no perfect matching are singular whatever their
    # entries: the split fails before any layer is evaluated, with the
    # message of a singular constant matrix
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    n, cap = 3, 3
    fixed = {"a": Jet.one(n, cap), "b": Jet.variable(2, n, cap), "f": random_poly(5, n, 2, 2, cap)}
    rows = [_Row(((1, "f"),), (), row) for row in products]
    with pytest.raises(EvaluationError) as err:
        _ck_solve({}, fixed, {}, {}, {"x"}, (["x", "y"], rows))
    assert str(err.value) == (
        "right-hand side failed at x1-layer 0: jet matrix not invertible at the origin"
    )
    assert isinstance(err.value.__cause__, SingularJetError)


def test_a_node_run_again_solves_afresh():
    # a second solve over the same rows must not read the first solve's
    # layers, and no solve changes the rows or their keys
    n, cap = 3, 4
    algebraic = determined_system(n)
    determined = algebraic[0]
    tables = []
    for seed in (1, 2):
        g0 = random_normalized_metric(seed, n, cap, 2, 2)
        table = {("g", i, j): g0.comp(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        for key in _all_pair_keys(n):
            if key not in set(determined):
                table[key] = random_poly(seed + 10, n, 2, 2, cap)
        tables.append(table)
    runs = []
    for table in (*tables, tables[0]):
        solved = _ck_solve({}, table, {}, {}, set(determined), algebraic)
        runs.append({key: solved[key] for key in determined})
    assert runs[0] != runs[1]
    for key in determined:
        assert runs[2][key].same_payload(runs[0][key]), key
    assert algebraic == determined_system(n)


def spy_on_the_node(monkeypatch) -> tuple[list, list, list]:
    """Record, for each build that follows, every `jets._linear_factor` call
    of the solve as ((n, cap) of its matrix, its size), and the (n, cap) of
    every `Jet.reciprocal` taken inside `_ck_solve` and of every one taken
    anywhere."""
    factors, inside, anywhere, depth = [], [], [], []
    real_solve, real_factor, real_reciprocal = (
        builders_module._ck_solve, builders_module._linear_factor, Jet.reciprocal
    )

    def solve(*args):
        depth.append(1)
        try:
            return real_solve(*args)
        finally:
            depth.pop()

    def factor(matrix, n, cap):
        factors.append(((n, cap), len(matrix)))
        return real_factor(matrix, n, cap)

    def reciprocal(jet):
        anywhere.append((jet.n, jet.max_degree))
        if depth:
            inside.append((jet.n, jet.max_degree))
        return real_reciprocal(jet)

    monkeypatch.setattr(builders_module, "_ck_solve", solve)
    monkeypatch.setattr(builders_module, "_linear_factor", factor)
    monkeypatch.setattr(Jet, "reciprocal", reciprocal)
    return factors, inside, anywhere


@pytest.mark.parametrize("n, blocks", [(3, 3), (4, 7)])
def test_statistical_build_eliminates_only_the_layer_0_matrix(monkeypatch, n, blocks):
    # one inverse of a constant matrix per diagonal block of the layer-0
    # matrix, none of them over n - 2 keys, and no jet reciprocal or jet
    # elimination inside the solve
    factors, inside, _ = spy_on_the_node(monkeypatch)
    build_statistical_nd(n, random_free_data(census("statistical", n), 5, 2, 2, 4))
    assert len(factors) == blocks
    for shape, size in factors:
        assert shape == (n - 1, 4) and size <= n - 2
    assert inside == []


@pytest.mark.parametrize("cap", [4, 6])
def test_trace_free_statistical_2d_builds_without_full_size_reciprocals(monkeypatch, cap):
    # g11 g22 - g12^2 = nu^2 is solved for g11 by a one-key node: one
    # inverse of a constant per build, no jet reciprocal inside the solve
    # and no reciprocal of a 2-variable jet anywhere, where D + 1 full-size
    # reciprocals of g22 would be
    g0 = random_normalized_metric(5, 2, cap, 3, 2)
    conn = levi_civita(g0)
    factors, inside, anywhere = spy_on_the_node(monkeypatch)
    init12, init22 = g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
    build_trace_free_statistical_2d(conn, init12, init22)
    assert factors == [((1, cap), 1)]
    assert inside == []
    assert (2, cap) not in anywhere


def unreachable(*args):
    raise AssertionError("layer evaluation reached")


def test_x1_derivative_of_an_assembled_divergence_is_rejected(monkeypatch):
    # ("div", 1, 1) = sum_{k != 1} G^k_k1 is derived from the unknowns at
    # every layer
    real = builders_module._ricci_rows

    def leaky(spec, n):
        rows = real(spec, n)
        rows[(2, 2, 1)] = rows[(2, 2, 1)]._replace(
            derivatives=rows[(2, 2, 1)].derivatives + ((1, ("div", 1, 1), 1),)
        )
        return rows

    monkeypatch.setattr(builders_module, "_ricci_rows", leaky)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    r = random_prescribed_tensor("general", 3, 2, 3, 2, 2)
    with pytest.raises(AssertionError) as err:
        build_prescribed_ricci_general(r, zero_free_data(census("general", 2), 3))
    assert str(err.value) == (
        "the row of (2, 2, 1) holds its x1-derivative with coefficients [-1] and "
        "consumes the x1-derivatives of [('div', 1, 1)]"
    )


def test_x1_derivative_of_an_assembled_g11_is_rejected(monkeypatch):
    # trace-free-statistical-2d solves g11 from g11 g22 - g12^2 = nu^2 with a
    # node at every layer, so g11 is not fixed before the solve
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (1, 2, 1):
            row = row._replace(derivatives=row.derivatives + ((1, ("g", 1, 1), 1),))
        return row

    monkeypatch.setattr(builders_module, "_codazzi_gap", leaky)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    g0 = random_normalized_metric(5, 2, 3, 2, 2)
    with pytest.raises(AssertionError) as err:
        build_trace_free_statistical_2d(
            levi_civita(g0), g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
        )
    assert str(err.value) == (
        "the row of ('g', 1, 2) holds its x1-derivative with coefficients [1] and "
        "consumes the x1-derivatives of [('g', 1, 1)]"
    )


def test_x1_derivative_in_a_derived_row_is_rejected(monkeypatch):
    # layer t of a derived entry that read (u)_1 would need layer t + 1 of u
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    equations = {"u": _Row(linear=((1, "du"),), derivatives=((-1, "u", 1),))}
    derived = {"du": _Row(derivatives=((1, "u", 1),))}
    initial = {"u": SliceJet(Jet.one(1, 3))}
    with pytest.raises(AssertionError) as err:
        builders_module._ck_solve(equations, {}, derived, initial, {"u"})
    assert str(err.value) == "the derived row of du consumes the x1-derivatives of ['u']"


def test_derived_factor_of_a_block_row_is_rejected(monkeypatch):
    # the layer-0 matrix is formed, and its constant matrix inverted, before
    # any derived layer is written, so a key's coefficient may read fixed
    # keys and unknowns only
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    derived = {"d": _Row(linear=((1, "f"),))}
    row = _Row(linear=((-1, "f"),), products=((1, "x", "d"),))
    with pytest.raises(AssertionError) as err:
        _ck_solve({}, {"f": Jet.one(2, 2)}, derived, {}, {"x"}, (["x"], [row]))
    assert str(err.value) == f"{row} holds the derived entry d as a factor"


def test_x1_derivative_in_a_determined_symbol_row_is_rejected(monkeypatch):
    # an algebraic gap that took an x1-derivative would read a layer the
    # node has not computed
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (3, 2, 1):
            row = row._replace(derivatives=row.derivatives + ((1, ("g", 1, 2), 1),))
        return row

    monkeypatch.setattr(builders_module, "_codazzi_gap", leaky)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    with pytest.raises(AssertionError, match="takes an x1-derivative"):
        build_statistical_nd(3, random_free_data(census("statistical", 3), 5, 2, 2, 3))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "initial", [SliceJet(Jet.one(1, 3)), SliceJet(random_poly(4, 2, 3, 3, 3))], ids=["one", "poly"]
)
def test_an_unknown_whose_row_is_only_its_x1_derivative_keeps_its_slice(initial, sign):
    # (u)_1 = 0: the rest and the derived row are empty sums, zero at every
    # layer and valid to their degree, and no empty sum raises
    equations = {"u": _Row(derivatives=((sign, "u", 1),))}
    table = _ck_solve(equations, {}, {"z": _Row()}, {"u": initial}, {"u", "z"})
    assert table["u"].same_payload(initial.promote())
    assert table["z"].same_payload(Jet.zero(initial.ambient_n, 3))


def test_failure_inside_a_layer_names_the_layer(monkeypatch):
    # the determined-symbol rows, formed to degree D, are evaluated at every
    # layer: the first of them at layer 2 fails
    real_terms, real = builders_module._terms, builders_module._accumulate
    rows, calls = [], []
    _, block_rows = determined_system(3)

    def terms(row, table):
        rows.append(row)
        return real_terms(row, table)

    def fails_at_layer_2(n, products, linear, derivatives, cap, layer=None):
        calls.append(layer)
        if layer == 2 and rows[-1] in block_rows:
            raise SingularJetError("jet matrix not invertible at the origin")
        return real(n, products, linear, derivatives, cap, layer)

    monkeypatch.setattr(builders_module, "_terms", terms)
    monkeypatch.setattr(builders_module, "_accumulate", fails_at_layer_2)
    fd = random_free_data(census("statistical", 3), 5, 2, 2, 4)
    with pytest.raises(EvaluationError) as err:
        build_statistical_nd(3, fd)
    assert str(err.value) == (
        "right-hand side failed at x1-layer 2: jet matrix not invertible at the origin"
    )
    assert isinstance(err.value.__cause__, SingularJetError)
    assert max(calls) == 2
    # every layer evaluation of the solve is of one row on the table
    assert len(calls) == len(rows)


# entry denominators and layer denominators: powers of 2 and 3 that share
# factors with one another and divide one another
DENS = (1, 2, 3, 4, 6, 9, 12, 36)


@st.composite
def layer_writes(draw):
    """(entry, ranks, nums, den, valid order): an entry of Fractions over
    DENS, zero at the ranks of layer t to degree k, and a layer of integer
    numerators over a denominator of DENS, as `_ck_solve` writes them."""
    n, cap = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    t = draw(st.integers(0, cap))
    ranks = mi.x1_layers(n, draw(st.integers(t, cap)))[t]
    fraction = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENS))
    coeffs = [Fraction(0) if r in ranks else draw(fraction) for r in range(mi.size(n, cap))]
    nums = draw(st.lists(st.integers(-40, 40), min_size=len(ranks), max_size=len(ranks)))
    den, valid = draw(st.sampled_from(DENS)), draw(st.integers(0, cap))
    return Jet(n, cap, coeffs, cap), ranks, nums, den, valid


ENTRY = Jet.from_terms(2, 2, {(0, 0): Fraction(1, 4), (0, 1): Fraction(-5, 6)})
LAYER_1 = mi.x1_layers(2, 2)[1]  # where ENTRY is zero


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
# ENTRY's denominator is 12: an all-zero layer, negative numerators not in
# lowest terms, and layer denominators sharing a factor with 12 (8, 9),
# dividing it (3, 6), a multiple of it (36) and 12 itself
@example(case=(ENTRY, LAYER_1, [0, 0], 6, 2))
@example(case=(ENTRY, LAYER_1, [-4, -6], 8, 1))
@example(case=(ENTRY, LAYER_1, [-1, 5], 9, 2))
@example(case=(ENTRY, LAYER_1, [2, -1], 3, 2))
@example(case=(ENTRY, LAYER_1, [-3, 1], 36, 0))
@example(case=(ENTRY, LAYER_1, [-1, 1], 12, 2))
@given(case=layer_writes())
def test_write_layer_is_the_sum_of_fractions(case):
    # reducing only the layer gives the one reduced jet, the one Fraction gives
    jet, ranks, nums, den, valid = case
    coeffs = list(jet.coeffs)
    for r, v in zip(ranks, nums):
        coeffs[r] = Fraction(v, den)
    written = builders_module._write_layer(jet, ranks, nums, den, valid)
    assert written.same_payload(Jet(jet.n, jet.max_degree, coeffs, valid))


def test_entries_are_formed_to_the_degree_their_readers_need(monkeypatch):
    # metric-2d reads back only h, and h's rest reads p to D - 1, so p gets
    # D - 1 and its rest D - 2; (w)_2 is read by that rest, and w by the
    # derivative along x2 that forms (w)_2, one degree more: D - 1
    cap = 6
    calls = capture_ck_solves(monkeypatch)
    _run_direct({
        "construction": "metric-2d", "n": 2, "D": cap, "seed": 3,
        "prescribed": RANDOM_PRESCRIBED["metric-2d"],
    })
    for tag in ("general", "torsion-free"):
        sc = {"construction": tag, "n": 3, "D": cap, "seed": 3, "prescribed": {"r": "random"}}
        _run_direct(sc | {"free_data": "random"})
    got = []
    for _, (equations, fixed, derived, _, outputs, *algebraic), _ in calls:
        blocks = _blocks(*algebraic[0]) if algebraic else ()
        degrees = _degrees(_ck_rows(equations, fixed), derived, frozenset(outputs), cap, blocks)
        # every unknown of the Ricci builds is an output, formed to D
        assert {key: degrees.pop(key) for key in equations} == (
            {"h": cap, "p": cap - 1, "w": cap - 1}
            if "h" in equations
            else dict.fromkeys(equations, cap)
        )
        got.append(degrees)
    assert got[0] == {"(w)_2": cap - 2}
    divergences = {("div", a, l): cap - 1 for a in (1, 2, 3) for l in (1, 2, 3)}
    assert got[1] == divergences
    assert got[2] == {**divergences, **{(k, k, k): cap for k in (1, 2, 3)}}


# one small pinned scenario per construction for the tests of the solve's
# kernel work: (n, D)
SMALL = {
    "general": (3, 3),
    "trace-free-torsion": (3, 3),
    "torsion-free": (3, 4),
    "statistical": (3, 4),
    "statistical-2d": (2, 4),
    "trace-free-statistical-2d": (2, 4),
    "metric-2d": (2, 4),
}


def solved_table(monkeypatch, tag, mode, workspace=None) -> tuple[tuple, dict]:
    """The arguments of the one `_ck_solve` of the construction's scenario
    in workspace (n, D), seed 3, and the table it returns; by default its
    small scenario."""
    calls = []
    real = builders_module._ck_solve

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(builders_module, "_ck_solve", spy)
    n, cap = workspace or SMALL[tag]
    sc = {"construction": tag, "n": n, "D": cap, "seed": 3}
    if mode == "direct":
        sc.update(prescribed=RANDOM_PRESCRIBED[tag], free_data="random")
        _run_direct(sc)
    else:
        _run_round_trip(sc)
    [call] = calls
    return call


@pytest.mark.parametrize(
    "tag, mode",
    [
        (tag, mode)
        for tag in SMALL
        for mode in ("direct",) + (() if tag == "metric-2d" else ("round_trip",))
    ],
)
def test_solve_never_reads_a_rest_at_degree_d(monkeypatch, tag, mode):
    # a rest is formed to its unknown's degree k - 1 because layer t + 1 of
    # the unknown takes only its coefficients below k: every rest layer is
    # asked for to degree k - 1, never more, and is the full layer below k
    # (k = D but for metric-2d's p, D - 1). Every other entry is formed only
    # to the degree its readers need: junk written in every entry above its
    # degree must leave the unknowns to their degree and the outputs as they
    # are
    args, want = solved_table(monkeypatch, tag, mode)
    equations, fixed, derived, _, outputs, algebraic = (*args, ((), ()))[:6]
    cap = next(iter(want.values())).max_degree
    ck_rows = _ck_rows(equations, fixed)
    blocks = _blocks(*algebraic)
    degrees = _degrees(ck_rows, derived, frozenset(outputs), cap, blocks)
    for block_keys, _ in blocks:
        assert len({degrees[key] for key in block_keys}) == 1, block_keys
    rests = [row for _, row in ck_rows.values()]
    rest_caps = [degrees[key] - 1 for key in ck_rows]
    real_terms, real, real_write = (
        builders_module._terms, builders_module._accumulate, builders_module._write_layer
    )
    rows, rest_layers, entry_junk = [], [], []

    def terms(row, table):
        rows.append(row)
        return real_terms(row, table)

    def rest_below_its_degree(n, products, linear, derivatives, k, layer=None):
        nums, den, valid = real(n, products, linear, derivatives, k, layer)
        if rows[-1] in rests:
            assert k == rest_caps[rests.index(rows[-1])]
            full, full_den, _ = real(n, products, linear, derivatives, cap, layer)
            assert (nums, den) == (full[: len(nums)], full_den)
            rest_layers.append(layer)
        return nums, den, valid

    def write_with_junk(jet, ranks, nums, den, valid_order):
        # layer t written to degree k: junk above k in layer t, and at the
        # last write, t = k, in every later layer
        exps = mi.exponents(jet.n, jet.max_degree)
        t, k = exps[ranks[0]][0], sum(exps[ranks[-1]])
        top = [r for r, e in enumerate(exps) if sum(e) > k and (e[0] == t or e[0] > t == k)]
        entry_junk.extend(top)
        return real_write(jet, [*ranks, *top], [*nums, *(7**r + 1 for r in top)], den, valid_order)

    monkeypatch.setattr(builders_module, "_terms", terms)
    monkeypatch.setattr(builders_module, "_accumulate", rest_below_its_degree)
    monkeypatch.setattr(builders_module, "_write_layer", write_with_junk)
    _, got = solved_table(monkeypatch, tag, mode)
    # one rest per unknown at every layer below its degree
    assert sorted(rest_layers) == sorted(t for k in rest_caps for t in range(k + 1))
    # the Ricci builds' ("div", l) and metric-2d's p, w and (w)_2 are formed
    # below D; every other entry is an unknown or an output
    below_d = ("general", "trace-free-torsion", "torsion-free", "metric-2d")
    assert bool(entry_junk) == (tag in below_d)
    assert set(got) == set(want)
    for key in {*equations, *outputs}:
        assert to_degree(got[key], degrees.get(key, cap)).same_payload(want[key]), key


# the (rb, rc) pairs `_mul_layer` visits on spans with a nonzero first
# factor, in the layer evaluations of the solve of each small scenario (direct mode, seed 3). A
# ceiling may only move down. Rests formed to degree D took 6057, 6402,
# 10626, 7473, 599, 524 and 1124; metric-2d took 1043 with every derived
# entry and 1/h formed to D, 644 on the hand-expanded Ric_11 before it took
# the scalar equation, and 133 on the quadratic equation for h, with its
# 1/h block, before it took the linear one for u = log(h / h(0)) / 2. The
# Ricci builds took 2265, 2408 and 4481 while their rows formed the k = a
# products that cancel. statistical-n4 is
# statistical at (4, 3), the smallest workspace whose determined-symbol
# blocks have off-diagonal entries, which each later block's rows read from
# the solve's table. The block keys are solved by degree against their
# constant matrix (`jets._solve_linear_by_degree`, on the graded solve
# `jets._solve_graded`), whose products are counted too: the pushes of each
# finished degree through the nonzero ranks of M = P (N - N(0)), the
# block's matrix less its constant part times the scaled constant inverse
# P, which `jets._linear_factor` forms once. While each key was a layer
# evaluation of its row -sum_j inv_ij gap_j over the entries of a jet
# inverse, statistical, trace-free-statistical-2d and statistical-n4
# counted 5102, 345 and 13590;
# before that, while the block steps ran outside the layer evaluations,
# statistical, trace-free-statistical-2d, metric-2d and statistical-n4
# counted 4724, 310, 123 and 11686.
# trace-free-statistical-2d and statistical-n4 counted 344 and 13221 while
# the block solve ran the constant-inverse step on a right-hand row with
# nothing at the degree, and pushed unknowns with nothing at it. While each
# degree was finished by the products of P with the right-hand rows, one
# pair per rank and nonzero entry of P, statistical,
# trace-free-statistical-2d and statistical-n4 counted 5069, 339 and 13207.
SOLVE_PAIR_CEILINGS = {
    "general": 1675,
    "trace-free-torsion": 1813,
    "torsion-free": 3642,
    "statistical": 4964,
    "statistical-2d": 343,
    "trace-free-statistical-2d": 326,
    "metric-2d": 80,
    "statistical-n4": 12823,
}
# the scenarios of the ceilings that are not a construction's small one
PAIR_SCENARIOS = {"statistical-n4": ("statistical", (4, 3))}


@pytest.mark.parametrize("name", SOLVE_PAIR_CEILINGS)
def test_solve_kernel_work_stays_under_its_ceiling(monkeypatch, name):
    # the pairs of the solve's layer evaluations and of its block solves by
    # degree: the products of each block's constant inverse and the
    # pushes of each finished degree through the block's matrix
    tag, workspace = PAIR_SCENARIOS.get(name, (name, None))
    real_layer, real, visits, inside = builders_module._accumulate, jets_module._mul_layer, [], []
    real_solve = builders_module._solve_linear_by_degree

    def within(fn):
        def wrapped(*args):
            inside.append(args)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    layer, layer_solve = within(real_layer), within(real_solve)

    def counted(spans, a, b, scale, out):
        if inside:
            visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(builders_module, "_accumulate", layer)
    monkeypatch.setattr(builders_module, "_solve_linear_by_degree", layer_solve)
    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    solved_table(monkeypatch, tag, "direct", workspace)
    assert 0 < sum(visits) <= SOLVE_PAIR_CEILINGS[name]


# the pairs, counted as the solve's are, that the small metric-2d build
# visits outside `_ck_solve` and the checks: its fixed entries, the initial
# slices of p and w, g = h r and the three reciprocals of the fixed entries
# and the slices (`jets._solve_graded`). A ceiling may only move down. It
# took 296 with the fixed entries of the quadratic equation for h. While
# the reciprocals ran a recurrence of their own, which this count did not
# see, the rest took 269; that recurrence visited every pair of the row of
# each finished nonzero rank, 15 + 14 + 10, so 308 in this scope.
METRIC_2D_OUTSIDE_PAIR_CEILING = 293


def test_metric_2d_work_outside_the_solve_stays_under_its_ceiling(monkeypatch):
    real_solve, real_checked, real = (
        builders_module._ck_solve, builders_module._checked, jets_module._mul_layer
    )
    inside, visits = [], []

    def within(fn):
        def wrapped(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    def counted(spans, a, b, scale, out):
        spans = tuple(spans)
        if not inside:
            visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(builders_module, "_ck_solve", within(real_solve))
    monkeypatch.setattr(builders_module, "_checked", within(real_checked))
    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    n, cap = SMALL["metric-2d"]
    _run_direct({
        "construction": "metric-2d", "n": n, "D": cap, "seed": 3,
        "prescribed": RANDOM_PRESCRIBED["metric-2d"],
    })
    assert 0 < sum(visits) <= METRIC_2D_OUTSIDE_PAIR_CEILING


# the pairs, counted as the solve's are, of the reciprocal of a sparse
# series: r11 of perfbench's metric2d-deep scenario at seed 1, cut to cap 10
# as its build takes it (n = 2, 8 nonzero coefficients). The graded solve
# (`jets._solve_graded`) pushes each finished degree through the nonzero
# ranks of the series only; the recurrence it replaced visited every pair
# of the row of each finished nonzero rank, 876 of the table's 1001, 269 of
# them with a nonzero series coefficient. A ceiling may only move down.
SPARSE_RECIPROCAL_PAIR_CEILING = 298


def test_sparse_reciprocal_work_stays_under_its_ceiling(monkeypatch):
    real_reciprocal, real, taken, visits = Jet.reciprocal, jets_module._mul_layer, [], []

    def spy(jet):
        taken.append(jet)
        return real_reciprocal(jet)

    def counted(spans, a, b, scale, out):
        spans = tuple(spans)
        visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(Jet, "reciprocal", spy)
    _run_direct({
        "construction": "metric-2d", "n": 2, "D": 12, "seed": 1,
        "prescribed": RANDOM_PRESCRIBED["metric-2d"], "random": {"degree": 3, "coeff_bound": 2},
    })
    r11 = taken[0]  # the build's first reciprocal, 1 / r11 to degree D - 2
    assert (r11.n, r11.max_degree, sum(1 for c in r11.nums if c)) == (2, 10, 8)
    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    real_reciprocal(r11)
    assert 0 < sum(visits) <= SPARSE_RECIPROCAL_PAIR_CEILING


# the (rb, rc) pairs `_mul_layer` visits on spans with a nonzero first
# factor while `_run_checks` re-checks the report of each small scenario
# (direct mode, seed 3), counted as the solve's are, the graded solves of
# `metric_inverse`, `Jet.reciprocal` and `Jet.exp` (`jets._solve_graded`)
# included: the checks' products run through `jets.product_sum`, which
# perfbench's `Jet.__mul__` counts do not see. A ceiling may only move down.
# metric-2d took 388 (348 + 40 in the reciprocals, counted then as the pairs
# with a nonzero series coefficient) while `metric_inverse` ran a jet
# Gauss-Jordan with one reciprocal per pivot. Its solve by degree against
# the constant matrix took 24 more, 412: 20 in the constant-inverse step,
# one scalar product per rank and column of the order-3 inverse, and 4
# pushes of ranks whose coefficient is zero, which `_mul_layer` visits and
# the reciprocal skipped. The graded solve applies the constant inverse
# once, to the right-hand side and to the matrix, and finishes each degree
# by a division, so the 20 are gone; the 4 remain. Before that count was
# widened, metric-2d took 510 while the metric inverse of `levi_civita`
# formed the products whose results the elimination knows. While `ricci` formed the k = i products
# that cancel, general, trace-free-torsion, torsion-free and metric-2d took
# 2396, 2448, 5147 and 426.
CHECK_PAIR_CEILINGS = {
    "general": 1797,
    "trace-free-torsion": 1836,
    "torsion-free": 3636,
    "statistical": 3792,
    "statistical-2d": 440,
    "trace-free-statistical-2d": 519,
    "metric-2d": 392,
}


@pytest.mark.parametrize("tag", CHECK_PAIR_CEILINGS)
def test_check_kernel_work_stays_under_its_ceiling(monkeypatch, tag):
    n, cap = SMALL[tag]
    sc = {"construction": tag, "n": n, "D": cap, "seed": 3}
    report = _run_direct(sc | {"prescribed": RANDOM_PRESCRIBED[tag], "free_data": "random"})
    real, visits = jets_module._mul_layer, []

    def counted(spans, a, b, scale, out):
        spans = tuple(spans)
        visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    checks = _run_checks(report)
    assert all(check.passed for check in checks)
    assert 0 < sum(visits) <= CHECK_PAIR_CEILINGS[tag]


# the pairs, counted as the solve's are, of one `run` of each Ricci
# construction at the shape of perfbench's ricci-n3 workload (n = 3, D = 6,
# random degree 3, coefficient bound 2, seed 1): inside `_ck_solve`, and
# inside the checks (`_checked`). perfbench's op-count ceilings count only
# `Jet.__mul__`, which no Ricci run calls. A ceiling may only move down.
# While the rows and `ricci` formed the k = i products that cancel, the
# solve took 95067 and the checks 96618.
RICCI_N3_PAIR_CEILINGS = {"solve": 73206, "checks": 71214}


def test_ricci_n3_kernel_work_stays_under_its_ceiling(monkeypatch):
    real_solve, real_checked, real = (
        builders_module._ck_solve, builders_module._checked, jets_module._mul_layer
    )
    inside, visits = [], dict.fromkeys(RICCI_N3_PAIR_CEILINGS, 0)

    def within(name, fn):
        def wrapped(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    def counted(spans, a, b, scale, out):
        spans = tuple(spans)
        if inside:
            visits[inside[-1]] += sum(len(pairs) for ra, pairs in spans if a[ra])
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(builders_module, "_ck_solve", within("solve", real_solve))
    monkeypatch.setattr(builders_module, "_checked", within("checks", real_checked))
    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    for tag in ("general", "trace-free-torsion", "torsion-free"):
        _run_direct({
            "construction": tag, "n": 3, "D": 6, "seed": 1, "prescribed": {"r": "random"},
            "free_data": "random", "random": {"degree": 3, "coeff_bound": 2},
        })
    for name, ceiling in RICCI_N3_PAIR_CEILINGS.items():
        assert 0 < visits[name] <= ceiling, (name, visits[name])
