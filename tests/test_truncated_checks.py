"""The checks in the workspace of their order: `Jet.truncate`, and `ricci`,
`nabla_g`, `levi_civita` and `metric_inverse` with an order k, each equal to
the full-workspace result truncated to k, down to the residual and Codazzi gap
jets the checks test; `ricci` also equal to the written-out oracle
`ref_ricci` truncated to k, on symmetric and general tables."""

from fractions import Fraction

import pytest

from jetgeom import (
    Bilinear,
    Jet,
    Metric,
    levi_civita,
    metric_inverse,
    nabla_g,
    random_connection,
    random_normalized_metric,
    random_poly,
    random_symmetric_connection,
    ricci,
)
from jetgeom.builders import BuildReport, _residuals
from jetgeom.errors import DimensionMismatchError
from oracles import ref_mul, ref_ricci

# (n, D) workspaces of the equivalence tests
SHAPES = [(2, 5), (3, 4)]


def fractional(jet: Jet, seed: int) -> Jet:
    """A jet with denominators and a valid order below its cap for some seeds."""
    out = jet.scale(Fraction(seed % 5 + 1, 3))
    return out.with_valid_order(out.max_degree - seed % 2)


def connection(kind: str, n: int, cap: int):
    if kind == "levi-civita":
        return levi_civita(metric(n, cap))
    make = random_symmetric_connection if kind == "torsion-free" else random_connection
    conn = make(7 * n + cap, n, cap, cap, 3)
    gamma = {key: fractional(jet, sum(key)) for key, jet in conn.gamma.items()}
    return type(conn)(n, gamma, conn.symmetric)


def metric(n: int, cap: int) -> Metric:
    g = random_normalized_metric(11 * n + cap, n, cap, cap, 2)
    return Metric(
        n,
        {
            (i, j): fractional(g.comp(i, j), i + j).scale(Fraction(2, 3))
            + Jet.constant(int(i == j), n, cap)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        },
    )


def same_truncated(part: Jet, full: Jet, k: int) -> bool:
    return (part.n, part.max_degree) == (full.n, k) and part.same_payload(full.truncate(k))


# ---------------------------------------------------------------------------
# Jet.truncate


def test_truncate_keeps_the_graded_prefix_in_lowest_terms():
    jet = Jet.from_terms(2, 4, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3), (0, 3): 5})
    low = jet.truncate(2)
    assert (low.n, low.max_degree, low.valid_order) == (2, 2, 2)
    assert dict(low.terms()) == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)}
    assert low.den == 6
    # without its degree-3 term, 1/2 + x2^3/3 is reduced over 2
    short = Jet.from_terms(2, 3, {(0, 0): Fraction(1, 2), (0, 3): Fraction(1, 3)})
    assert short.den == 6 and short.truncate(1).den == 2
    assert jet.truncate(0).same_payload(Jet.constant(Fraction(1, 2), 2, 0))
    assert jet.truncate(4) is jet
    point = Jet.constant(Fraction(-4, 6), 0, 3)
    assert point.truncate(1).same_payload(Jet.constant(Fraction(-2, 3), 0, 1))


def test_truncate_valid_order_and_bounds():
    jet = random_poly(3, 2, 4, 3, 4).with_valid_order(2)
    assert jet.truncate(3).valid_order == 2 and jet.truncate(1).valid_order == 1
    for k in (-1, 5):
        with pytest.raises(ValueError, match="outside 0..4"):
            jet.truncate(k)


@pytest.mark.parametrize("n, cap", [(1, 4), (2, 5), (3, 3)])
def test_truncated_product_is_the_product_truncated(n, cap):
    a = fractional(random_poly(n + cap, n, cap, 4, cap), 1)
    b = fractional(random_poly(n + cap + 1, n, cap, 4, cap), 2)
    u = a + 1 if not a.nums[0] else a
    for k in range(cap + 1):
        assert same_truncated(a.truncate(k) * b.truncate(k), a * b, k)
        assert (a * b).truncate(k).same_payload(ref_mul(a.truncate(k), b.truncate(k)))
        assert same_truncated(u.truncate(k).reciprocal(), u.reciprocal(), k)


# ---------------------------------------------------------------------------
# the tensor functions at an order


@pytest.mark.parametrize("kind", ["general", "torsion-free", "levi-civita"])
@pytest.mark.parametrize("n, cap", SHAPES)
def test_ricci_at_an_order_is_the_full_ricci_truncated(kind, n, cap):
    # on a symmetric table `ricci` forms the quadratic term for i <= j only;
    # the written-out oracle forms every (i, j)
    conn = connection(kind, n, cap)
    assert conn.symmetric == (kind != "general")
    full, ref = ricci(conn), ref_ricci(conn)
    assert all(full.comps[key].same_payload(ref[key]) for key in ref)
    for k in range(cap + 1):
        part = ricci(conn, k)
        assert all(same_truncated(part.comps[key], ref[key], k) for key in ref)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n, cap", SHAPES)
def test_nabla_g_at_an_order_is_the_full_form_truncated(symmetric, n, cap):
    conn = connection("torsion-free" if symmetric else "general", n, cap)
    g = metric(n, cap)
    full = nabla_g(conn, g)
    for k in range(cap + 1):
        part = nabla_g(conn, g, k)
        assert all(same_truncated(part.comps[key], full.comps[key], k) for key in full.comps)
        # the Codazzi gaps themselves: nonzero on this pair
        gaps = [
            (part.comp(i, j, l) - part.comp(j, i, l), full.comp(i, j, l) - full.comp(j, i, l))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            for l in range(i, n + 1)
        ]
        assert all(same_truncated(a, b, k) for a, b in gaps)
        assert any(not b.is_zero_up_to(k) for _, b in gaps)


@pytest.mark.parametrize("n, cap", SHAPES)
def test_levi_civita_and_inverse_at_an_order_are_the_full_ones_truncated(n, cap):
    g = metric(n, cap)
    inv, conn = metric_inverse(g), levi_civita(g)
    for k in range(cap + 1):
        inv_k, conn_k = metric_inverse(g, k), levi_civita(g, k)
        assert all(same_truncated(inv_k[key], inv[key], k) for key in inv)
        assert all(same_truncated(conn_k.gamma[key], conn.gamma[key], k) for key in conn.gamma)
        assert conn_k.symmetric


def test_nabla_g_at_an_order_rejects_a_table_in_another_workspace():
    conn = connection("general", 2, 3)
    g = metric(2, 4)
    with pytest.raises(DimensionMismatchError, match=r"workspace mismatch: \(2,3\) vs \(2,4\)"):
        nabla_g(conn, g, 2)


# ---------------------------------------------------------------------------
# the residual jets of the Ricci checks


def residual_report(n: int, cap: int, r: Bilinear, outputs: dict) -> BuildReport:
    return BuildReport("general", n, cap, {"r": r}, None, outputs, [])


def random_r(n: int, cap: int) -> Bilinear:
    return Bilinear(
        n,
        {
            (i, j): fractional(random_poly(5 * i + j, n, cap, 2, cap), i)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        },
    )


@pytest.mark.parametrize("n, cap", SHAPES)
def test_ricci_residual_jets_at_an_order_are_the_full_ones_truncated(n, cap):
    conn, r = connection("general", n, cap), random_r(n, cap)
    report = residual_report(n, cap, r, {"connection": conn})
    full = list(_residuals(report, ricci(conn), cap))
    assert any(not gap.is_zero() for gap in full)
    for k in range(cap + 1):
        part = list(_residuals(report, ricci(conn, k), k))
        assert all(same_truncated(a, b, k) for a, b in zip(part, full))


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_metric_ricci_residual_jets_need_the_symbols_one_order_up(cap):
    g, r = metric(2, cap), random_r(2, cap)
    report = residual_report(2, cap, r, {"metric": g})
    full = list(_residuals(report, ricci(levi_civita(g)), cap))
    for k in range(cap + 1):
        part = list(_residuals(report, ricci(levi_civita(g, min(k + 1, cap)), k), k))
        assert all(same_truncated(a, b, k) for a, b in zip(part, full))

