"""Theorem-level builders: fixtures, resolutions, round-trips, rejections."""

import dataclasses

import pytest

import jetgeom.builders as builders_module
import jetgeom.geometry as geometry_module
from jetgeom import (
    Bilinear,
    Connection,
    EvaluationError,
    FreeData,
    Jet,
    RejectionError,
    SingularJetError,
    SliceJet,
    build_metric_2d_prescribed_ricci,
    build_prescribed_ricci,
    build_prescribed_ricci_general,
    build_prescribed_ricci_torsion_free,
    build_prescribed_ricci_trace_free_torsion,
    build_statistical_2d,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    connection_round_trip_data,
    is_codazzi,
    levi_civita,
    metric_slot,
    random_connection,
    random_free_data,
    random_normalized_metric,
    random_poly,
    random_prescribed_tensor,
    random_slice,
    random_symmetric_connection,
    random_trace_free_connection,
    ricci,
    statistical_nd_round_trip_data,
    torsion_trace,
    verify,
    zero_free_data,
)
from jetgeom.builders import (
    _ck_solve,
    _codazzi_spec,
    _determined_blocks,
    _same_value,
    verify_read_back,
)
from jetgeom.cli import _run_direct
from jetgeom.serialize import report_from_json, report_to_json
from ck_seam import capture_ck_solves
from oracles import exp_series_jet

CAP = 4


def connections_match(a: Connection, b: Connection, order: int) -> bool:
    return all(a.gamma[key].eq_up_to(b.gamma[key], order) for key in a.gamma)


def ricci_residual_zero(conn: Connection, r: Bilinear, order: int) -> bool:
    res = ricci(conn)
    n = conn.n
    return all(
        (res.comp(i, j) - r.comp(i, j)).is_zero_up_to(order)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# census


def test_census_general_example():
    cen = census("general", 3)
    assert len(cen.free_function_slots) == 18
    assert len(cen.initial_slice_slots) == 9


def test_census_torsion_free_2d_slots():
    cen = census("torsion-free", 2)
    assert set(cen.free_function_slots) == {"2;1,1", "phi"}
    assert len(cen.initial_slice_slots) == 3
    assert set(cen.determined) == {"1;1,1", "2;2,2"}


def test_census_statistical_example():
    cen = census("statistical", 3)
    assert len(cen.free_function_slots) == 16
    assert len(cen.initial_slice_slots) == 5
    assert metric_slot(1, 1) in cen.free_function_slots


def test_census_rejects_unsupported():
    for tag, n in (("trace-free-torsion", 2), ("statistical", 2), ("general", 1)):
        with pytest.raises(RejectionError) as err:
            census(tag, n)
        assert err.value.reason == "unsupported-construction"
    with pytest.raises(RejectionError):
        census("no-such-tag", 3)


def test_census_slot_partition():
    # unknowns, determined and free slots partition the full symbol table
    for tag, n, total in (
        ("general", 3, 27),
        ("trace-free-torsion", 3, 27),
        ("torsion-free", 3, 18),
    ):
        cen = census(tag, n)
        free = set(cen.free_function_slots) - {"phi"}
        assert not free & set(cen.ck_unknowns)
        assert not free & set(cen.determined)
        assert len(free) + len(cen.ck_unknowns) + len(cen.determined) == total


def test_prescribed_ricci_rejects_other_constructions():
    for tag, n in (("statistical", 3), ("metric-2d", 2)):
        fd = FreeData({}, {}) if tag == "metric-2d" else zero_free_data(census(tag, n), CAP)
        with pytest.raises(RejectionError) as err:
            build_prescribed_ricci(tag, Bilinear.zero(n, CAP), fd)
        assert err.value.reason == "unsupported-construction"


# ---------------------------------------------------------------------------
# general construction


def test_general_zero_data_gives_zero_connection():
    r = Bilinear.zero(3, CAP)
    report = build_prescribed_ricci_general(r, zero_free_data(census("general", 3), CAP))
    conn = report.outputs["connection"]
    assert all(j.is_zero_up_to(CAP) for j in conn.gamma.values())


def test_general_round_trip():
    for seed in (1, 2):
        conn0 = random_connection(seed, 3, CAP, 3, 2)
        r, fd = connection_round_trip_data("general", conn0)
        report = build_prescribed_ricci_general(r, fd)
        assert connections_match(report.outputs["connection"], conn0, CAP)


def test_general_determinism():
    r = random_prescribed_tensor("general", 5, 2, CAP, 3, 2)
    fd = random_free_data(census("general", 2), 6, 3, 2, CAP)
    a = build_prescribed_ricci_general(r, fd).outputs["connection"]
    b = build_prescribed_ricci_general(r, fd).outputs["connection"]
    assert all(a.gamma[k].same_payload(b.gamma[k]) for k in a.gamma)


def test_general_distinct_data_distinct_output():
    r = Bilinear.zero(2, CAP)
    cen = census("general", 2)
    fd1 = random_free_data(cen, 1, 3, 2, CAP)
    fd2 = random_free_data(cen, 2, 3, 2, CAP)
    c1 = build_prescribed_ricci_general(r, fd1).outputs["connection"]
    c2 = build_prescribed_ricci_general(r, fd2).outputs["connection"]
    assert not connections_match(c1, c2, CAP)


def test_general_slot_mismatch_rejected():
    r = Bilinear.zero(2, CAP)
    fd = zero_free_data(census("general", 2), CAP)
    broken = FreeData(dict(list(fd.free_functions.items())[1:]), fd.initial_slices)
    with pytest.raises(RejectionError) as err:
        build_prescribed_ricci_general(r, broken)
    assert err.value.reason == "slot-mismatch"


def test_general_rejects_unexpected_gauge():
    r = Bilinear.zero(2, CAP)
    fd = zero_free_data(census("general", 2), CAP)
    with_gauge = FreeData(fd.free_functions, fd.initial_slices, Jet.zero(2, CAP))
    with pytest.raises(RejectionError):
        build_prescribed_ricci_general(r, with_gauge)


# ---------------------------------------------------------------------------
# trace-free torsion


def test_trace_free_zero_data():
    r = Bilinear.zero(3, CAP)
    fd = zero_free_data(census("trace-free-torsion", 3), CAP)
    report = build_prescribed_ricci_trace_free_torsion(r, fd)
    assert all(j.is_zero_up_to(CAP) for j in report.outputs["connection"].gamma.values())


def test_trace_free_random_build_kills_trace():
    r = random_prescribed_tensor("trace-free-torsion", 3, 3, CAP, 3, 2)
    fd = random_free_data(census("trace-free-torsion", 3), 4, 3, 2, CAP)
    report = build_prescribed_ricci_trace_free_torsion(r, fd)
    conn = report.outputs["connection"]
    tau = torsion_trace(conn)
    assert all(tau.comp(j).is_zero_up_to(CAP) for j in (1, 2, 3))
    assert ricci_residual_zero(conn, r, CAP - 1)


def test_trace_free_round_trip():
    conn0 = random_trace_free_connection(8, 3, CAP, 3, 2)
    r, fd = connection_round_trip_data("trace-free-torsion", conn0)
    report = build_prescribed_ricci_trace_free_torsion(r, fd)
    assert connections_match(report.outputs["connection"], conn0, CAP)


# ---------------------------------------------------------------------------
# torsion-free


def test_torsion_free_zero_data():
    r = Bilinear.zero(3, CAP)
    fd = zero_free_data(census("torsion-free", 3), CAP)
    report = build_prescribed_ricci_torsion_free(r, fd)
    assert all(j.is_zero_up_to(CAP) for j in report.outputs["connection"].gamma.values())


def non_closed_prescribed_tensor(cap):
    # antisymmetric part a_12 = x3 is not closed
    zero = Jet.zero(3, cap)
    comps = {(i, j): zero for i in range(1, 4) for j in range(1, 4)}
    comps[(1, 2)] = Jet.variable(3, 3, cap)
    comps[(2, 1)] = -Jet.variable(3, 3, cap)
    return Bilinear(3, comps)


def test_torsion_free_rejects_non_closed():
    fd = zero_free_data(census("torsion-free", 3), CAP)
    with pytest.raises(RejectionError) as err:
        build_prescribed_ricci_torsion_free(non_closed_prescribed_tensor(CAP), fd)
    assert err.value.reason == "antisymmetric-part-not-closed"


def test_torsion_free_accepts_closed_replacement():
    # replace a by the closed form a_12 = x1 (constant in x3-direction)
    zero = Jet.zero(3, CAP)
    comps = {(i, j): zero for i in range(1, 4) for j in range(1, 4)}
    comps[(1, 2)] = Jet.variable(1, 3, CAP)
    comps[(2, 1)] = -Jet.variable(1, 3, CAP)
    r = Bilinear(3, comps)
    fd = zero_free_data(census("torsion-free", 3), CAP)
    report = build_prescribed_ricci_torsion_free(r, fd)
    conn = report.outputs["connection"]
    assert conn.symmetric
    assert ricci_residual_zero(conn, r, CAP - 1)


def test_torsion_free_round_trip():
    for n in (2, 3):
        conn0 = random_symmetric_connection(17 + n, n, CAP, 3, 2)
        r, fd = connection_round_trip_data("torsion-free", conn0)
        report = build_prescribed_ricci_torsion_free(r, fd)
        assert connections_match(report.outputs["connection"], conn0, CAP)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("tag", ["torsion-free", "trace-free-torsion"])
def test_cross_regime_build_is_rebuilt_by_general(tag, cap, seed):
    # a torsion-free or trace-free-torsion build also solves the general
    # system with its own Ricci tensor. Built at cap D + 1 and truncated to
    # D, every symbol is valid to D (torsion-free's Gamma^k_kk only to the
    # build's cap - 1) and its Ricci tensor to D - 1, as the general solve
    # reads it; its general-census data then rebuild it to order D
    r = random_prescribed_tensor(tag, seed, 3, cap + 1, 3, 2)
    fd = random_free_data(census(tag, 3), seed + 10, 3, 2, cap + 1)
    built = build_prescribed_ricci(tag, r, fd).outputs["connection"]
    gamma = {key: jet.truncate(cap) for key, jet in built.gamma.items()}
    conn = Connection(3, gamma, symmetric=built.symmetric)
    rebuilt = build_prescribed_ricci_general(*connection_round_trip_data("general", conn))
    assert connections_match(rebuilt.outputs["connection"], conn, cap)


def test_torsion_free_output_symmetric_and_verified():
    r = random_prescribed_tensor("torsion-free", 23, 3, CAP, 3, 2)
    fd = random_free_data(census("torsion-free", 3), 24, 3, 2, CAP)
    report = build_prescribed_ricci_torsion_free(r, fd)
    conn = report.outputs["connection"]
    assert conn.is_symmetric_table()
    assert ricci_residual_zero(conn, r, CAP - 1)
    # the gauge slot is an honest degree of freedom: changing it moves output
    fd2 = FreeData(fd.free_functions, fd.initial_slices, Jet.variable(1, 3, CAP))
    conn2 = build_prescribed_ricci_torsion_free(r, fd2).outputs["connection"]
    assert not connections_match(conn, conn2, CAP)
    assert ricci_residual_zero(conn2, r, CAP - 1)


# ---------------------------------------------------------------------------
# 2D metric with prescribed Ricci


def hyperbolic_fixture(cap):
    e2x = exp_series_jet(2, cap, 2)
    r = Bilinear(
        2,
        {
            (1, 1): Jet.constant(-1, 2, cap),
            (1, 2): Jet.zero(2, cap),
            (2, 1): Jet.zero(2, cap),
            (2, 2): -e2x,
        },
    )
    return r, e2x


def test_metric_2d_hyperbolic_fixture():
    cap = 5
    r, e2x = hyperbolic_fixture(cap)
    report = build_metric_2d_prescribed_ricci(
        r, SliceJet(Jet.constant(-1, 1, cap)), SliceJet(Jet.zero(1, cap))
    )
    h = report.outputs["conformal_factor"]
    assert h.eq_up_to(Jet.constant(-1, 2, cap), cap)
    g = report.outputs["metric"]
    assert g.comp(1, 1).eq_up_to(Jet.one(2, cap), cap)
    assert g.comp(2, 2).eq_up_to(e2x, cap)


def test_metric_2d_rejects_degenerate():
    cap = 5
    r, _ = hyperbolic_fixture(cap)
    bad = Bilinear(
        2,
        {
            (1, 1): Jet.variable(1, 2, cap),
            (1, 2): Jet.zero(2, cap),
            (2, 1): Jet.zero(2, cap),
            (2, 2): r.comp(2, 2),
        },
    )
    with pytest.raises(RejectionError) as err:
        build_metric_2d_prescribed_ricci(
            bad, SliceJet(Jet.one(1, cap)), SliceJet(Jet.zero(1, cap))
        )
    assert err.value.reason == "degenerate-prescribed-tensor"


def test_metric_2d_rejects_vanishing_initial_value():
    cap = 5
    r, _ = hyperbolic_fixture(cap)
    with pytest.raises(RejectionError) as err:
        build_metric_2d_prescribed_ricci(
            r, SliceJet(Jet.variable(1, 1, cap)), SliceJet(Jet.zero(1, cap))
        )
    assert err.value.reason == "initial-value-vanishes"


def random_diagonal_prescribed(seed, cap):
    import random as _random

    rng = _random.Random(seed)
    r11 = random_poly(rng.randrange(2**32), 2, 3, 2, cap)
    r22 = random_poly(rng.randrange(2**32), 2, 3, 2, cap)
    if r11.constant_term == 0:
        r11 = r11 + Jet.one(2, cap)
    if r22.constant_term == 0:
        r22 = r22 + Jet.one(2, cap)
    phi = random_slice(rng.randrange(2**32), 2, 3, 2, cap)
    if phi.constant_term == 0:
        phi = SliceJet(phi.jet + Jet.one(1, cap))
    psi = random_slice(rng.randrange(2**32), 2, 3, 2, cap)
    r = Bilinear(
        2,
        {(1, 1): r11, (1, 2): Jet.zero(2, cap), (2, 1): Jet.zero(2, cap), (2, 2): r22},
    )
    return r, phi, psi


def test_metric_2d_random_residual():
    cap = 5
    r, phi, psi = random_diagonal_prescribed(31, cap)
    report = build_metric_2d_prescribed_ricci(r, phi, psi)
    g = report.outputs["metric"]
    res = ricci(levi_civita(g))
    assert all(
        (res.comp(i, j) - r.comp(i, j)).is_zero_up_to(cap - 2)
        for i in (1, 2)
        for j in (1, 2)
    )


# ---------------------------------------------------------------------------
# statistical structures, n = 2


def identity_2d_inputs(cap):
    return (
        Jet.one(2, cap),
        SliceJet(Jet.zero(1, cap)),
        SliceJet(Jet.one(1, cap)),
    )


def test_statistical_2d_identity():
    g11, init12, init22 = identity_2d_inputs(CAP)
    report = build_statistical_2d(Connection.zero(2, CAP, symmetric=False), g11, init12, init22)
    g = report.outputs["metric"]
    assert g.comp(1, 2).is_zero_up_to(CAP)
    assert g.comp(2, 2).eq_up_to(Jet.one(2, CAP), CAP)


def test_statistical_2d_levi_civita_round_trip():
    g0 = random_normalized_metric(41, 2, CAP, 3, 2)
    c0 = levi_civita(g0)
    report = build_statistical_2d(
        c0, g0.comp(1, 1), g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
    )
    g = report.outputs["metric"]
    assert all(g.comp(i, j).eq_up_to(g0.comp(i, j), CAP) for i in (1, 2) for j in (1, 2))


def test_statistical_2d_with_torsion_is_codazzi():
    conn = random_connection(43, 2, CAP, 3, 2)  # torsion allowed
    g11, init12, init22 = identity_2d_inputs(CAP)
    report = build_statistical_2d(conn, g11, init12, init22)
    assert is_codazzi(conn, report.outputs["metric"], CAP - 1)


def test_statistical_2d_normalization_rejected():
    g11, init12, init22 = identity_2d_inputs(CAP)
    with pytest.raises(RejectionError) as err:
        build_statistical_2d(
            Connection.zero(2, CAP), Jet.constant(2, 2, CAP), init12, init22
        )
    assert err.value.reason == "normalization-violated"


# ---------------------------------------------------------------------------
# trace-free statistical structures, n = 2


def test_trace_free_2d_identity():
    _, init12, init22 = identity_2d_inputs(CAP)
    report = build_trace_free_statistical_2d(Connection.zero(2, CAP), init12, init22)
    g = report.outputs["metric"]
    assert g.comp(1, 1).eq_up_to(Jet.one(2, CAP), CAP)
    assert report.outputs["volume"].eq_up_to(Jet.one(2, CAP), CAP)


def test_trace_free_2d_round_trip_up_to_determinant_gauge():
    g0 = random_normalized_metric(47, 2, CAP, 3, 2)
    c0 = levi_civita(g0)
    report = build_trace_free_statistical_2d(
        c0, g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
    )
    g = report.outputs["metric"]
    nu = report.outputs["volume"]
    assert all(g.comp(i, j).eq_up_to(g0.comp(i, j), CAP) for i in (1, 2) for j in (1, 2))
    det = g.comp(1, 1) * g.comp(2, 2) - g.comp(1, 2) * g.comp(1, 2)
    assert (det - nu * nu).is_zero_up_to(CAP)


def symmetric_connection_with_antisymmetric_ricci(cap):
    # realize r with nonzero antisymmetric part via the torsion-free builder
    # (closedness is vacuous in 2D), yielding a symmetric connection whose
    # Ricci tensor is not symmetric
    zero = Jet.zero(2, cap)
    comps = {(i, j): zero for i in (1, 2) for j in (1, 2)}
    comps[(1, 2)] = Jet.one(2, cap)
    comps[(2, 1)] = -Jet.one(2, cap)
    r = Bilinear(2, comps)
    fd = zero_free_data(census("torsion-free", 2), cap)
    return build_prescribed_ricci_torsion_free(r, fd).outputs["connection"]


def test_trace_free_2d_rejects_nonsymmetric_ricci():
    conn = symmetric_connection_with_antisymmetric_ricci(CAP)
    _, init12, init22 = identity_2d_inputs(CAP)
    with pytest.raises(RejectionError) as err:
        build_trace_free_statistical_2d(conn, init12, init22)
    assert err.value.reason == "ricci-not-symmetric"


def test_trace_free_2d_rejects_torsion():
    conn = random_connection(49, 2, CAP, 3, 2)
    _, init12, init22 = identity_2d_inputs(CAP)
    with pytest.raises(RejectionError) as err:
        build_trace_free_statistical_2d(conn, init12, init22)
    assert err.value.reason == "connection-not-symmetric"


# ---------------------------------------------------------------------------
# statistical structures, n >= 3


def test_statistical_nd_identity():
    report = build_statistical_nd(3, zero_free_data(census("statistical", 3), CAP))
    g = report.outputs["metric"]
    conn = report.outputs["connection"]
    for i in range(1, 4):
        for j in range(1, 4):
            want = Jet.constant(1 if i == j else 0, 3, CAP)
            assert g.comp(i, j).eq_up_to(want, CAP)
    assert all(jet.is_zero_up_to(CAP) for jet in conn.gamma.values())


def test_statistical_nd_round_trip():
    g0 = random_normalized_metric(53, 3, CAP, 3, 2)
    c0, fd = statistical_nd_round_trip_data(g0)
    report = build_statistical_nd(3, fd)
    g = report.outputs["metric"]
    conn = report.outputs["connection"]
    assert all(
        g.comp(i, j).eq_up_to(g0.comp(i, j), CAP) for i in range(1, 4) for j in range(1, 4)
    )
    assert connections_match(conn, c0, CAP)


def test_statistical_nd_random_is_codazzi():
    fd = random_free_data(census("statistical", 3), 59, 3, 2, CAP)
    report = build_statistical_nd(3, fd)
    assert is_codazzi(report.outputs["connection"], report.outputs["metric"], CAP - 1)
    assert report.outputs["metric"].normalized_at_zero


def test_statistical_nd_normalization_rejected():
    fd = zero_free_data(census("statistical", 3), CAP)
    bad_free = dict(fd.free_functions)
    bad_free[metric_slot(1, 1)] = Jet.constant(2, 3, CAP)
    with pytest.raises(RejectionError) as err:
        build_statistical_nd(3, FreeData(bad_free, fd.initial_slices))
    assert err.value.reason == "normalization-violated"


# ---------------------------------------------------------------------------
# ordered-substitution oracle for the determined Christoffel symbols


def _determined_membership(n):
    """Independent restatement of which symbols the algebraic system
    determines: lower (1,k) with upper > k; diagonal lower (i,i), i >= 2,
    upper >= 2 and != i; lower (i,k) with 2 <= i < k, upper > i and != k."""
    out = set()
    for t in range(1, n + 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                if a == 1 and b >= 2 and t > b:
                    out.add((t, a, b))
                elif a == b and a >= 2 and t >= 2 and t != a:
                    out.add((t, a, b))
                elif 2 <= a < b and t > a and t != b:
                    out.add((t, a, b))
    return out


def _oracle_rows(n, cap, gtable, gammas_known, det):
    """The displayed symmetry conditions, retyped: each row is
    (target, coefficient dict over determined symbols, known right side)."""

    def pair(i, j):
        return (i, j) if i <= j else (j, i)

    def gamma_term(l, lower, gfactor):
        key = (l, *pair(*lower))
        return key, gtable[gfactor]

    rows = []
    # (g_1k)_j + sum_l g_jl G^l_1k = (g_1j)_k + sum_l g_kl G^l_1j, 1 < k < j
    for k in range(2, n + 1):
        for j in range(k + 1, n + 1):
            coeffs, rhs = {}, gtable[(1, j)].partial(k) - gtable[(1, k)].partial(j)
            for l in range(1, n + 1):
                for sign, lower, gf in ((1, (1, k), (j, l)), (-1, (1, j), (k, l))):
                    key, gjet = gamma_term(l, lower, gf)
                    if key in det:
                        coeffs[key] = coeffs.get(key, Jet.zero(n, cap)) + gjet.scale(sign)
                    else:
                        rhs = rhs - (gammas_known[key] * gjet).scale(sign)
            rows.append(((j, 1, k), coeffs, rhs))
    # (g_ji)_i - sum_l g_jl G^l_ii = (g_ii)_j - sum_l g_il G^l_ji
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if j == i:
                continue
            coeffs = {}
            rhs = gtable[(i, i)].partial(j) - gtable[pair(j, i)].partial(i)
            for l in range(1, n + 1):
                for sign, lower, gf in ((-1, (i, i), (j, l)), (1, (j, i), (i, l))):
                    key, gjet = gamma_term(l, lower, gf)
                    if key in det:
                        coeffs[key] = coeffs.get(key, Jet.zero(n, cap)) + gjet.scale(sign)
                    else:
                        rhs = rhs - (gammas_known[key] * gjet).scale(sign)
            rows.append(((j, i, i), coeffs, rhs))
    # (g_jk)_i - sum_l g_jl G^l_ik = (g_ik)_j - sum_l g_il G^l_jk
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(i + 1, n + 1):
                if k == j:
                    continue
                coeffs = {}
                rhs = gtable[pair(i, k)].partial(j) - gtable[pair(j, k)].partial(i)
                for l in range(1, n + 1):
                    for sign, lower, gf in ((-1, (i, k), (j, l)), (1, (j, k), (i, l))):
                        key, gjet = gamma_term(l, lower, gf)
                        if key in det:
                            coeffs[key] = coeffs.get(key, Jet.zero(n, cap)) + gjet.scale(
                                sign
                            )
                        else:
                            rhs = rhs - (gammas_known[key] * gjet).scale(sign)
                rows.append(((j, *pair(i, k)), coeffs, rhs))
    return rows


def _sequential_solve(rows, n, cap):
    """Forward elimination pivoting on each row's designated symbol in the
    given order, then back-substitution. Every pivot must be invertible at the
    origin; no row swaps happen (this mirrors the explicit procedure)."""
    rows = [(t, dict(c), r) for t, c, r in rows]
    for m, (target, coeffs, rhs) in enumerate(rows):
        pivot = coeffs.pop(target)
        assert pivot.constant_term != 0
        inv = pivot.reciprocal()
        coeffs = {k: v * inv for k, v in coeffs.items()}
        rhs = rhs * inv
        rows[m] = (target, coeffs, rhs)
        for m2 in range(m + 1, len(rows)):
            t2, c2, r2 = rows[m2]
            factor = c2.pop(target, None)
            if factor is None or not any(factor.coeffs):
                continue
            for k, v in coeffs.items():
                c2[k] = c2.get(k, Jet.zero(n, cap)) - factor * v
            rows[m2] = (t2, c2, r2 - factor * rhs)
    solved = {}
    for target, coeffs, rhs in reversed(rows):
        value = rhs
        for k, v in coeffs.items():
            if any(v.coeffs):
                value = value - v * solved[k]
        solved[target] = value
    return solved


@pytest.mark.parametrize("n", [3, 4])
def test_determined_solve_matches_sequential_substitution(n):
    cap = 3
    det = _determined_membership(n)
    assert det == set(_codazzi_spec(n).determined)
    g0 = random_normalized_metric(61 + n, n, cap, 2, 2)
    gtable = {
        (i, j): g0.comp(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    }
    import random as _random

    rng = _random.Random(71 + n)
    gammas_known = {}
    for t in range(1, n + 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                if (t, a, b) not in det:
                    gammas_known[(t, a, b)] = random_poly(
                        rng.randrange(2**32), n, 2, 2, cap
                    )
    blocks = _determined_blocks(n, _codazzi_spec(n).determined)
    table = {("g", *pair): jet for pair, jet in gtable.items()}
    simultaneous = _ck_solve({}, {**table, **gammas_known}, {}, {}, det, blocks)
    sequential = _sequential_solve(
        _oracle_rows(n, cap, gtable, gammas_known, det), n, cap
    )
    for key in det:
        assert simultaneous[key].eq_up_to(sequential[key], cap - 1)


def test_determined_symbol_system_singular_at_origin_raises():
    # a metric table vanishing at the origin leaves no pivot; the guard must
    # hold under python -O, so it is an exception and not an assert
    n = 3
    zero = Jet.zero(n, CAP)
    gtable = {("g", i, j): zero for i in range(1, n + 1) for j in range(1, n + 1)}
    det = _codazzi_spec(n).determined
    free = {
        key: zero
        for key in builders_module._all_pair_keys(n)
        if key not in set(det)
    }
    with pytest.raises(EvaluationError, match="^right-hand side failed at x1-layer 0: ") as err:
        _ck_solve({}, {**gtable, **free}, {}, {}, set(det), _determined_blocks(n, det))
    assert isinstance(err.value.__cause__, SingularJetError)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_fresh_reports():
    r = random_prescribed_tensor("torsion-free", 81, 3, CAP, 3, 2)
    fd = random_free_data(census("torsion-free", 3), 82, 3, 2, CAP)
    report = build_prescribed_ricci_torsion_free(r, fd)
    assert verify(report)


def test_verify_fails_after_perturbation():
    conn0 = random_connection(83, 2, CAP, 3, 2)
    r, fd = connection_round_trip_data("general", conn0)
    report = build_prescribed_ricci_general(r, fd)
    conn = report.outputs["connection"]
    gamma = dict(conn.gamma)
    key = (1, 1, 1)
    coeffs = list(gamma[key].coeffs)
    coeffs[1] += 1
    gamma[key] = Jet(2, CAP, coeffs, CAP)
    report.outputs = {"connection": Connection(2, gamma)}
    assert not verify(report)


def test_verify_at_full_order_on_polynomial_round_trip():
    conn0 = random_connection(85, 3, CAP, 3, 2)
    r, fd = connection_round_trip_data("general", conn0)
    report = build_prescribed_ricci_general(r, fd)
    # polynomial-exact reconstruction verifies even above the advertised order
    assert verify(report, order=CAP)


def test_a_read_back_matches_its_build_in_type_flag_and_valid_order():
    report = _run_direct({"construction": "trace-free-statistical-2d", "n": 2, "D": 3, "seed": 1})
    assert verify_read_back(report, report_from_json(report_to_json(report)))
    # a symmetric Levi-Civita connection is prescribed here
    conn, metric = report.prescribed["connection"], report.outputs["metric"]
    assert not _same_value(metric, Bilinear(2, metric.comps))
    assert not _same_value(conn, Connection(2, conn.gamma, symmetric=False))
    volume = report.outputs["volume"]
    assert not _same_value(volume, volume.with_valid_order(volume.valid_order - 1))
    unmarked = {**report.prescribed, "connection": Connection(2, conn.gamma)}
    assert not verify_read_back(report, dataclasses.replace(report, prescribed=unmarked))


GAMMA_122 = ("connection", "gamma", "1;2,2")
# construction -> (small scenario, output jet (path under "outputs") whose
# coefficient the tampered copy changes, monomial key): a monomial with an
# x1-factor outside the free functions, so the structural checks still pass
# and the residual checks fail from some order on
VERIFY_CASES = {
    "general": ({"n": 2, "D": 4, "prescribed": {"r": "random"}}, GAMMA_122, "2 1"),
    "trace-free-torsion": ({"n": 3, "D": 3, "prescribed": {"r": "random"}}, GAMMA_122, "1 1 0"),
    "torsion-free": ({"n": 2, "D": 4}, GAMMA_122, "1 2"),
    "metric-2d": ({"n": 2, "D": 4}, ("metric", "comps", "1,1"), "2 2"),
    "statistical": ({"n": 3, "D": 3}, ("metric", "comps", "2,2"), "1 1 0"),
    "statistical-2d": ({"n": 2, "D": 4}, ("metric", "comps", "2,2"), "1 2"),
    "trace-free-statistical-2d": ({"n": 2, "D": 4}, ("metric", "comps", "2,2"), "1 2"),
}

# construction -> verify(report, k) for k = 0..D, untampered and tampered, as
# the checks gave them when they formed every product at cap D
VERIFY_OUTCOMES = {
    "general": ((True, True, True, True, False), (True, True, False, False, False)),
    "metric-2d": ((True, True, True, False, False), (True, True, False, False, False)),
    "statistical": ((True, True, True, False), (True, False, False, False)),
    "statistical-2d": ((True, True, True, True, False), (True, True, False, False, False)),
    "torsion-free": ((True, True, True, True, False), (True, True, False, False, False)),
    "trace-free-statistical-2d": (
        (True, True, True, True, False),
        (True, True, False, False, False),
    ),
    "trace-free-torsion": ((True, True, True, False), (True, False, False, False)),
}


def verify_outcomes(construction):
    scenario, path, key = VERIFY_CASES[construction]
    report = _run_direct(dict(scenario, construction=construction, seed=3, free_data="random"))
    data = report_to_json(report)
    jet = data["outputs"][path[0]]["value"][path[1]][path[2]]
    jet["coeffs"][key] = "7/3"
    tampered = report_from_json(data)
    cap = report.max_degree
    return tuple(
        tuple(verify(r, k) for k in range(cap + 1)) for r in (report, tampered)
    )


@pytest.mark.parametrize("construction", sorted(VERIFY_CASES))
def test_verify_at_every_order_keeps_its_outcomes(construction):
    # the checks run in the workspace of their order; each outcome is the one
    # the full-workspace checks give
    assert verify_outcomes(construction) == VERIFY_OUTCOMES[construction]


# ---------------------------------------------------------------------------
# filtration probe: assembled right-hand sides never consume d/dx1 of unknowns


def _capture_system(monkeypatch, build, *args):
    calls = capture_ck_solves(monkeypatch)
    build(*args)
    return calls[-1][0]


@pytest.mark.parametrize(
    "tag",
    ["general", "trace-free-torsion", "torsion-free", "statistical"],
)
def test_rhs_respects_x1_filtration(tag, monkeypatch):
    n = 3
    if tag == "statistical":
        fd = random_free_data(census(tag, n), 92, 3, 2, CAP)
        system = _capture_system(monkeypatch, build_statistical_nd, n, fd)
    else:
        r = random_prescribed_tensor(tag, 91, n, CAP, 3, 2)
        fd = random_free_data(census(tag, n), 92, 3, 2, CAP)
        build = {
            "general": build_prescribed_ricci_general,
            "trace-free-torsion": build_prescribed_ricci_trace_free_torsion,
            "torsion-free": build_prescribed_ricci_torsion_free,
        }[tag]
        system = _capture_system(monkeypatch, build, r, fd)
    base = {lab: system.initial[lab].promote() for lab in system.labels}
    bump = Jet.from_terms(n, CAP, {(2, 0, 0): 7, (3, 1, 0): -5})
    shifted = {lab: jet + bump for lab, jet in base.items()}
    out_base = system.rhs(base)
    out_shifted = system.rhs(shifted)
    for lab in system.labels:
        # outputs agree on x1-degrees <= 1 because inputs agree there
        assert out_base[lab].eq_on_x1_up_to(out_shifted[lab], 1)


@pytest.mark.parametrize(
    "leak, kept, consumed",
    [((1, ("g", 2, 2), 1), [1], [("g", 2, 2)]), ((1, ("g", 1, 2), 1), [1, 1], [])],
    ids=["other-unknown", "kept-twice"],
)
def test_codazzi_row_breaking_the_derivative_contract_is_rejected(
    monkeypatch, leak, kept, consumed
):
    # the CK row of g_12 is gap (1, 2, 1); a leaked atom must stop the build
    # before any solve starts
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (1, 2, 1):
            row = dataclasses.replace(row, derivatives=row.derivatives + (leak,))
        return row

    def unreachable(*args):
        raise AssertionError("layer evaluation reached")

    monkeypatch.setattr(builders_module, "_codazzi_gap", leaky)
    monkeypatch.setattr(builders_module, "_accumulate", unreachable)
    g11, init12, init22 = identity_2d_inputs(CAP)
    with pytest.raises(AssertionError) as err:
        build_statistical_2d(random_connection(43, 2, CAP, 3, 2), g11, init12, init22)
    assert str(err.value) == (
        f"the row of ('g', 1, 2) holds its x1-derivative with coefficients {kept} and "
        f"consumes the x1-derivatives of {consumed}"
    )


@pytest.mark.parametrize("tag", ["general", "torsion-free"])
def test_ricci_residual_check_is_independent_of_the_equations(monkeypatch, tag):
    # a wrong quadratic Ricci term in the check must fail the build: the
    # equations do not share the check's formula. `ricci` and `lambda_term`
    # read the quadratic terms from one list per component
    real = geometry_module._ricci_terms
    calls = []

    def doubled(conn, div, i, j):
        calls.append((i, j))
        quad, derivatives = real(conn, div, i, j)
        return [(2 * c, a, b) for c, a, b in quad], derivatives

    monkeypatch.setattr(geometry_module, "_ricci_terms", doubled)
    r = random_prescribed_tensor(tag, 95, 2, CAP, 3, 2)
    fd = random_free_data(census(tag, 2), 96, 3, 2, CAP)
    with pytest.raises(RuntimeError, match=r"internal verification failed .*'ricci-residual'"):
        build_prescribed_ricci(tag, r, fd)
    assert calls


def test_free_data_workspace_validated():
    r = Bilinear.zero(2, CAP)
    fd = zero_free_data(census("general", 2), CAP)
    wrong = dict(fd.free_functions)
    slot = sorted(wrong)[0]
    wrong[slot] = Jet.zero(2, CAP + 1)
    with pytest.raises(RejectionError) as err:
        build_prescribed_ricci_general(r, FreeData(wrong, fd.initial_slices))
    assert err.value.reason == "slot-mismatch"
