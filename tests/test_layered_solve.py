"""The x1-layered CK solve of the builders: bit for bit against the Picard
reference, its derivative contract, and its errors."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jetgeom.builders as builders_module
import jetgeom.jets as jets_module
from ck_seam import capture_ck_solves, to_degree
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
    _checked,
    _ck_rows,
    _ck_solve,
    _codazzi_spec,
    _degrees,
    _determined_blocks,
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
    equations, fixed, derived, _, outputs, blocks = (*args, ())[:6]
    picard = solve_first_order(system).values
    for key in equations:
        assert table[key].same_payload(picard[key]), key
    # each derived entry, valid order included, is its row's sum on the
    # Picard solution (the torsion-free G^k_kk are valid to D - 1), and the
    # block keys are the full-size elimination of the blocks' rows on it:
    # an output as it is, any other entry cut to its degree
    full = {**fixed, **picard}
    for target, row in derived.items():
        full[target] = _row_sum(row, full)[0]
    keys = [key for block_keys, _ in blocks for key in block_keys]
    rows = [row for _, block_rows in blocks for row in block_rows]
    assert bool(keys) == (tag in ("statistical", "trace-free-statistical-2d", "metric-2d"))
    full.update(ref_linear_solve(keys, rows, full))
    degrees = _degrees(_ck_rows(equations, fixed), derived, blocks, frozenset(outputs), cap)
    assert set(degrees) == set(derived) | set(keys)
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
    equations, fixed, derived, initial, _, blocks = (*args, ())[:6]
    cen = census(tag, n)
    assert set(initial) == set(equations) == {parse_slot(s) for s in cen.initial_slice_slots}
    assert all(parse_slot(s) in fixed for s in cen.free_function_slots if s != "phi")
    determined = {parse_slot(s) for s in cen.determined}
    keys = [key for block_keys, _ in blocks for key in block_keys]
    if tag == "statistical":
        assert sorted(keys) == sorted(determined)
    else:
        assert determined == set(derived) - {("div", l) for l in range(1, n + 1)}
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
    blocks = _determined_blocks(n, determined)
    solved = _ck_solve({}, {**gtable, **free}, {}, {}, set(determined), blocks)
    full = ref_determined_christoffels(n, cap, gtable, free, determined)
    assert set(solved) == set(gtable) | set(free) | set(determined)
    for key in determined:
        assert solved[key].same_payload(full[key]), key


def test_a_node_run_again_solves_afresh():
    # a second solve over the same blocks must not read the first solve's
    # layers, and no solve changes the blocks
    n, cap = 3, 4
    determined = _codazzi_spec(n).determined
    blocks = _determined_blocks(n, determined)
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
        solved = _ck_solve({}, table, {}, {}, set(determined), blocks)
        runs.append({key: solved[key] for key in determined})
    assert runs[0] != runs[1]
    for key in determined:
        assert runs[2][key].same_payload(runs[0][key]), key
    assert blocks == _determined_blocks(n, determined)


@pytest.mark.parametrize("n, blocks", [(3, 3), (4, 7)])
def test_statistical_build_eliminates_only_the_layer_0_matrix(monkeypatch, n, blocks):
    # one elimination per diagonal block of the layer-0 matrix, none of them
    # over n - 2 rows
    real, calls = builders_module._gauss_jordan, []

    def spy(rows):
        calls.append(({(jet.n, jet.max_degree) for row in rows for jet in row}, len(rows)))
        return real(rows)

    monkeypatch.setattr(builders_module, "_gauss_jordan", spy)
    build_statistical_nd(n, random_free_data(census("statistical", n), 5, 2, 2, 4))
    assert len(calls) == blocks
    for shapes, size in calls:
        assert shapes == {(n - 1, 4)} and size <= n - 2


def test_determined_symbol_blocks_out_of_order_are_rejected(monkeypatch):
    # a gap of the first block that reads a symbol of the second: the
    # layer-0 matrix is not block lower triangular in the swapped order
    real = builders_module._determined_blocks

    def swapped(n, determined_keys):
        blocks = real(n, determined_keys)
        blocks[0], blocks[1] = blocks[1], blocks[0]
        return blocks

    monkeypatch.setattr(builders_module, "_determined_blocks", swapped)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    with pytest.raises(AssertionError, match=r"holds \(4, 1, 3\) of a later block$"):
        build_statistical_nd(4, random_free_data(census("statistical", 4), 5, 2, 2, 3))


@pytest.mark.parametrize("cap", [4, 6])
def test_trace_free_statistical_2d_builds_without_full_size_reciprocals(monkeypatch, cap):
    # g11 g22 - g12^2 = nu^2 is solved for g11 by a one-key node: one
    # inverse of a 1-variable jet per build, not D + 1 reciprocals of g22
    g0 = random_normalized_metric(5, 2, cap, 3, 2)
    conn = levi_civita(g0)
    eliminated, inverted = [], []
    real_gauss_jordan, real_reciprocal = builders_module._gauss_jordan, Jet.reciprocal

    def gauss_jordan(rows):
        eliminated.append({(jet.n, jet.max_degree) for row in rows for jet in row})
        return real_gauss_jordan(rows)

    def reciprocal(jet):
        inverted.append((jet.n, jet.max_degree))
        return real_reciprocal(jet)

    monkeypatch.setattr(builders_module, "_gauss_jordan", gauss_jordan)
    monkeypatch.setattr(Jet, "reciprocal", reciprocal)
    init12, init22 = g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
    build_trace_free_statistical_2d(conn, init12, init22)
    assert eliminated == [{(1, cap)}]
    assert (2, cap) not in inverted


def unreachable(*args):
    raise AssertionError("layer evaluation reached")


def test_x1_derivative_of_an_assembled_divergence_is_rejected(monkeypatch):
    # ("div", 1) = sum_k G^k_k1 is derived from the unknowns at every layer
    real = builders_module._ricci_rows

    def leaky(spec, n):
        rows = real(spec, n)
        rows[(2, 2, 1)] = dataclasses.replace(
            rows[(2, 2, 1)], derivatives=rows[(2, 2, 1)].derivatives + ((1, ("div", 1), 1),)
        )
        return rows

    monkeypatch.setattr(builders_module, "_ricci_rows", leaky)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    r = random_prescribed_tensor("general", 3, 2, 3, 2, 2)
    with pytest.raises(AssertionError) as err:
        build_prescribed_ricci_general(r, zero_free_data(census("general", 2), 3))
    assert str(err.value) == (
        "the row of (2, 2, 1) holds its x1-derivative with coefficients [-1] and "
        "consumes the x1-derivatives of [('div', 1)]"
    )


def test_x1_derivative_of_an_assembled_g11_is_rejected(monkeypatch):
    # trace-free-statistical-2d solves g11 from g11 g22 - g12^2 = nu^2 with a
    # node at every layer, so g11 is not fixed before the solve
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (1, 2, 1):
            row = dataclasses.replace(row, derivatives=row.derivatives + ((1, ("g", 1, 1), 1),))
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


def test_x1_derivative_in_a_determined_symbol_row_is_rejected(monkeypatch):
    # an algebraic gap that took an x1-derivative would read a layer the
    # node has not computed
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (3, 2, 1):
            row = dataclasses.replace(row, derivatives=row.derivatives + ((1, ("g", 1, 2), 1),))
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
    blocks = _determined_blocks(3, _codazzi_spec(3).determined)
    block_rows = [row for _, rows in blocks for row in rows]

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
    # metric-2d reads back only h; the p rest reads s, E and 1/h, and the
    # products of B1, B2 and E read the first derivatives of w and v, but s
    # takes (w)_22, so (w)_2 and w stay at D, and (v)_2 puts v at D
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
    for _, (equations, fixed, derived, _, outputs, *blocks), _ in calls:
        blocks = blocks[0] if blocks else ()
        got.append(_degrees(_ck_rows(equations, fixed), derived, blocks, frozenset(outputs), cap))
    lower = ("s", "B1", "B2", "E", "(w)_1", "(v)_1", "(v)_2", "1/h")
    assert got[0] == {**dict.fromkeys(lower, cap - 1), "w": cap, "(w)_2": cap, "v": cap}
    divergences = {("div", l): cap - 1 for l in (1, 2, 3)}
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
    # the rests are formed to degree D - 1 because layer t + 1 of an unknown
    # takes only their coefficients below D: every rest layer is asked for
    # to degree D - 1, never D, and is the full layer below D. Every other
    # entry is formed only to the degree its readers need: junk written in
    # every entry above its degree must leave the unknowns and the outputs as
    # they are
    (equations, fixed, *_, outputs, _), want = solved_table(monkeypatch, tag, mode)
    rests = [row for _, row in _ck_rows(equations, fixed).values()]
    cap = next(iter(want.values())).max_degree
    real_terms, real, real_write = (
        builders_module._terms, builders_module._accumulate, builders_module._write_layer
    )
    rows, rest_layers, entry_junk = [], [], []

    def terms(row, table):
        rows.append(row)
        return real_terms(row, table)

    def rest_to_d_minus_1(n, products, linear, derivatives, k, layer=None):
        nums, den, valid = real(n, products, linear, derivatives, k, layer)
        if rows[-1] in rests:
            assert k == cap - 1
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
    monkeypatch.setattr(builders_module, "_accumulate", rest_to_d_minus_1)
    monkeypatch.setattr(builders_module, "_write_layer", write_with_junk)
    _, got = solved_table(monkeypatch, tag, mode)
    # one rest per unknown at every layer below D
    assert sorted(rest_layers) == sorted(t for t in range(cap) for _ in rests)
    # the Ricci builds' ("div", l) and metric-2d's derived entries and 1/h
    # are formed below D; every other entry is an unknown or an output
    below_d = ("general", "trace-free-torsion", "torsion-free", "metric-2d")
    assert bool(entry_junk) == (tag in below_d)
    assert set(got) == set(want)
    for key in {*equations, *outputs}:
        assert got[key].same_payload(want[key]), key


# the (rb, rc) pairs `_mul_layer` visits on spans with a nonzero first
# factor, in the layer evaluations of the solve of each small scenario (direct mode, seed 3). A
# ceiling may only move down. Rests formed to degree D took 6057, 6402,
# 10626, 7473, 599, 524 and 1124; metric-2d took 1043 with every derived
# entry and 1/h formed to D. statistical-n4 is statistical at (4, 3),
# the smallest workspace whose determined-symbol blocks have off-diagonal
# entries, which each later block's rows read from the solve's table.
SOLVE_PAIR_CEILINGS = {
    "general": 2265,
    "trace-free-torsion": 2408,
    "torsion-free": 4481,
    "statistical": 4724,
    "statistical-2d": 343,
    "trace-free-statistical-2d": 310,
    "metric-2d": 644,
    "statistical-n4": 11686,
}
# the scenarios of the ceilings that are not a construction's small one
PAIR_SCENARIOS = {"statistical-n4": ("statistical", (4, 3))}


@pytest.mark.parametrize("name", SOLVE_PAIR_CEILINGS)
def test_solve_kernel_work_stays_under_its_ceiling(monkeypatch, name):
    # only the pairs of the solve's layer evaluations: the block inverses'
    # and the block steps' whole-jet products are not counted
    tag, workspace = PAIR_SCENARIOS.get(name, (name, None))
    real_layer, real, visits, inside = builders_module._accumulate, jets_module._mul_layer, [], []

    def layer(*args):
        inside.append(args)
        try:
            return real_layer(*args)
        finally:
            inside.pop()

    def counted(spans, a, b, scale, out):
        if inside:
            visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(builders_module, "_accumulate", layer)
    monkeypatch.setattr(jets_module, "_mul_layer", counted)
    solved_table(monkeypatch, tag, "direct", workspace)
    assert 0 < sum(visits) <= SOLVE_PAIR_CEILINGS[name]


# the (rb, rc) pairs `_mul_layer` visits on spans with a nonzero first
# factor while `_run_checks` re-checks the report of each small scenario
# (direct mode, seed 3), counted as the solve's are: the checks' products
# run through `jets.product_sum`, which perfbench's `Jet.__mul__` counts do
# not see. A ceiling may only move down. metric-2d took 510 while the
# metric inverse of `levi_civita` formed the products whose results the
# elimination knows.
CHECK_PAIR_CEILINGS = {
    "general": 2396,
    "trace-free-torsion": 2448,
    "torsion-free": 5147,
    "statistical": 3792,
    "statistical-2d": 440,
    "trace-free-statistical-2d": 519,
    "metric-2d": 446,
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
