"""The x1-layered CK solve of the builders: bit for bit against the Picard
reference, its derivative contract, and its errors."""

import dataclasses
import random
from fractions import Fraction

import pytest

import jetgeom.builders as builders_module
from ck_seam import capture_ck_solves
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
    _ck_solve,
    _codazzi_spec,
    _determined_blocks,
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
    equations, fixed, derived, _, blocks = (*args, ())[:5]
    picard = solve_first_order(system).values
    for key in equations:
        assert table[key].same_payload(picard[key]), key
    # each derived entry, valid order included, is its row's sum on the
    # Picard solution (the torsion-free G^k_kk are valid to D - 1), and the
    # block keys are the full-size elimination of the blocks' rows on it
    full = {**fixed, **picard}
    for target, row in derived.items():
        full[target] = _row_sum(row, full)[0]
        assert table[target].same_payload(full[target]), target
    keys = [key for block_keys, _ in blocks for key in block_keys]
    rows = [row for _, block_rows in blocks for row in block_rows]
    assert bool(keys) == (tag in ("statistical", "trace-free-statistical-2d", "metric-2d"))
    for key, jet in ref_linear_solve(keys, rows, full).items():
        assert table[key].same_payload(jet), key
    assert set(table) == set(full) | set(keys)


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
    equations, fixed, derived, initial, blocks = (*args, ())[:5]
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
    solved = _ck_solve({}, {**gtable, **free}, {}, {}, _determined_blocks(n, determined))
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
        solved = _ck_solve({}, table, {}, {}, blocks)
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
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
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
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
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
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
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
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
    equations = {"u": _Row(linear=((1, "du"),), derivatives=((-1, "u", 1),))}
    derived = {"du": _Row(derivatives=((1, "u", 1),))}
    initial = {"u": SliceJet(Jet.one(1, 3))}
    with pytest.raises(AssertionError) as err:
        builders_module._ck_solve(equations, {}, derived, initial)
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
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
    with pytest.raises(AssertionError, match="takes an x1-derivative"):
        build_statistical_nd(3, random_free_data(census("statistical", 3), 5, 2, 2, 3))


def test_failure_inside_a_layer_names_the_layer(monkeypatch):
    # the determined-symbol rows, formed to degree D, are evaluated at every
    # layer: the first of them at layer 2 fails
    real = builders_module._row_layer
    calls = []

    def fails_at_layer_2(row, table, d1, n, cap, t, order=None):
        calls.append(t)
        if t == 2 and order is None:
            raise SingularJetError("jet matrix not invertible at the origin")
        return real(row, table, d1, n, cap, t, order)

    monkeypatch.setattr(builders_module, "_row_layer", fails_at_layer_2)
    fd = random_free_data(census("statistical", 3), 5, 2, 2, 4)
    with pytest.raises(EvaluationError) as err:
        build_statistical_nd(3, fd)
    assert str(err.value) == (
        "right-hand side failed at x1-layer 2: jet matrix not invertible at the origin"
    )
    assert isinstance(err.value.__cause__, SingularJetError)
    assert max(calls) == 2


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


def solved_table(monkeypatch, tag, mode, workspace=None) -> dict:
    """The table the one `_ck_solve` of the construction's scenario in
    workspace (n, D) returns, seed 3; by default its small scenario."""
    tables = []
    real = builders_module._ck_solve

    def spy(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(builders_module, "_ck_solve", spy)
    n, cap = workspace or SMALL[tag]
    sc = {"construction": tag, "n": n, "D": cap, "seed": 3}
    if mode == "direct":
        sc.update(prescribed=RANDOM_PRESCRIBED[tag], free_data="random")
        _run_direct(sc)
    else:
        _run_round_trip(sc)
    [table] = tables
    return table


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
    # takes only their coefficients below D: junk written at the degree-D
    # ranks of every rest layer must leave the solved table as it is
    want = solved_table(monkeypatch, tag, mode)
    real, junk = builders_module._row_layer, []

    def rest_with_junk(row, table, d1, n, cap, t, order=None):
        out, den = real(row, table, d1, n, cap, t, order)
        if order == cap - 1:
            top = mi.x1_layers(n, cap)[t][len(mi.x1_layers(n, order)[t]):]
            for r in top:
                out[r] = 7**r + 1
            junk.extend(top)
        return out, den

    monkeypatch.setattr(builders_module, "_row_layer", rest_with_junk)
    got = solved_table(monkeypatch, tag, mode)
    assert junk
    assert set(got) == set(want)
    for key in want:
        assert got[key].same_payload(want[key]), key


# the (rb, rc) pairs `_mul_layer` visits on spans with a nonzero first
# factor, in the solve of each small scenario (direct mode, seed 3). A
# ceiling may only move down. Rests formed to degree D took 6057, 6402,
# 10626, 7473, 599, 524 and 1124. statistical-n4 is statistical at (4, 3),
# the smallest workspace whose determined-symbol blocks have off-diagonal
# entries, which each later block's rows read from the solve's table.
SOLVE_PAIR_CEILINGS = {
    "general": 2265,
    "trace-free-torsion": 2408,
    "torsion-free": 4481,
    "statistical": 4724,
    "statistical-2d": 343,
    "trace-free-statistical-2d": 310,
    "metric-2d": 1043,
    "statistical-n4": 11686,
}
# the scenarios of the ceilings that are not a construction's small one
PAIR_SCENARIOS = {"statistical-n4": ("statistical", (4, 3))}


@pytest.mark.parametrize("name", SOLVE_PAIR_CEILINGS)
def test_solve_kernel_work_stays_under_its_ceiling(monkeypatch, name):
    tag, workspace = PAIR_SCENARIOS.get(name, (name, None))
    real, visits = builders_module._mul_layer, []

    def counted(spans, a, b, scale, out):
        visits.append(sum(len(pairs) for ra, pairs in spans if a[ra]))
        return real(spans, a, b, scale, out)

    monkeypatch.setattr(builders_module, "_mul_layer", counted)
    solved_table(monkeypatch, tag, "direct", workspace)
    assert 0 < sum(visits) <= SOLVE_PAIR_CEILINGS[name]
