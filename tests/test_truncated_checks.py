"""The checks in the workspace of their order: `Jet.truncate`, and `ricci`,
`nabla_g`, `levi_civita` and `metric_inverse` with an order k, each equal to
the full-workspace result truncated to k, down to the Codazzi gap jets; `ricci`
also equal to the written-out oracle `ref_ricci` truncated to k, on symmetric
and general tables, and to the uncancelled quadratic form that
`ref_uncancelled_ricci` keeps. The Ricci checks at an order k, which compare
each component with the prescribed r without forming a residual jet, pass
exactly when the full residual jets vanish to degree k. `is_ricci` and
`is_codazzi`, which stop at the first component that differs, give the
verdict of comparing every component of the whole tensor."""

from fractions import Fraction

import pytest

from jetgeom import (
    Bilinear,
    Connection,
    Jet,
    Metric,
    divergence_form,
    is_codazzi,
    is_ricci,
    lambda_term,
    levi_civita,
    metric_inverse,
    nabla_g,
    random_connection,
    random_normalized_metric,
    random_poly,
    random_symmetric_connection,
    random_trace_free_connection,
    ricci,
    ricci_derivative_part,
    torsion_trace,
)
from jetgeom.builders import BuildReport, _metric_ricci_residual, _ricci_residual
from jetgeom.errors import DimensionMismatchError
from oracles import (
    ref_add,
    ref_mul,
    ref_nabla_g,
    ref_partial,
    ref_ricci,
    ref_sub,
    ref_uncancelled_ricci,
)

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


def ref_sum(jets) -> Jet:
    jets = list(jets)
    total = jets[0]
    for jet in jets[1:]:
        total = ref_add(total, jet)
    return total


@pytest.mark.parametrize("kind", ["general", "torsion-free"])
@pytest.mark.parametrize("n, cap", SHAPES)
def test_the_parts_of_ricci_are_the_composed_fraction_sums(kind, n, cap):
    # each component one accumulation: the same payload as the sum of the
    # Fraction kernel's terms, one reduced jet per term and partial sum
    conn = connection(kind, n, cap)
    g, rng = conn.gamma, range(1, n + 1)
    div = {j: ref_sum(g[(k, k, j)] for k in rng) for j in rng}
    tau = {j: ref_sum(ref_sub(g[(i, i, j)], g[(i, j, i)]) for i in rng) for j in rng}
    parts = divergence_form(conn), torsion_trace(conn), ricci_derivative_part(conn)
    lam, full = lambda_term(conn), ricci(conn)
    for j in rng:
        assert parts[0].comp(j).same_payload(div[j]) and parts[1].comp(j).same_payload(tau[j])
        for i in rng:
            deriv = ref_sub(
                ref_sum(ref_partial(g[(k, i, j)], k) for k in rng), ref_partial(div[j], i)
            )
            quad = ref_sub(
                ref_sum(ref_mul(g[(l, k, j)], g[(k, i, l)]) for k in rng for l in rng),
                ref_sum(ref_mul(g[(l, i, j)], div[l]) for l in rng),
            )
            assert parts[2].comp(i, j).same_payload(deriv)
            assert lam.comp(i, j).same_payload(quad)
            assert full.comp(i, j).same_payload(ref_sub(deriv, quad))


def guard_connection(kind: str, n: int, cap: int, low: bool) -> Connection:
    """A general, symmetric or trace-free table over 3, with G^1_11 valid to
    cap - 2 when low and every other symbol to cap. A symmetric table holds
    one jet for both mirror entries, as the builders and the report reader
    give it; "mirrors apart" holds two, with G^n_21 valid to cap - 1."""
    make = {
        "general": random_connection,
        "symmetric": random_symmetric_connection,
        "mirrors apart": random_symmetric_connection,
        "trace-free": random_trace_free_connection,
    }[kind]
    conn = make(13 * n + cap, n, cap, cap, 3)
    gamma = {key: jet.scale(Fraction(2, 3)) for key, jet in conn.gamma.items()}
    if low:
        gamma[(1, 1, 1)] = gamma[(1, 1, 1)].with_valid_order(cap - 2)
    if kind == "symmetric":
        return Connection.from_symmetric(n, gamma)
    if kind == "mirrors apart" and n > 1:
        gamma[(n, 2, 1)] = gamma[(n, 2, 1)].with_valid_order(cap - 1)
    return Connection(n, gamma, conn.symmetric)


@pytest.mark.parametrize("low", [False, True])
@pytest.mark.parametrize(
    "kind, n",
    [
        (kind, n)
        for kind in ("general", "symmetric", "mirrors apart", "trace-free")
        for n in range(1 + (kind == "trace-free"), 5)
    ],
)
def test_cancelled_ricci_gives_the_uncancelled_payloads(kind, n, low):
    # the k = i products of the two quadratic sums cancel, so `ricci` and
    # `lambda_term` form n^2 products over E^i_l = D_l - G^i_il: the same
    # numerators, denominator and valid order as the n^2 + n products of
    # the uncancelled form, at every order. Products fold only when they are
    # of the same two jets, and `ricci` and `lambda_term` give (j, i) the
    # sum formed for (i, j) only when every mirror pair is one jet, so with
    # mirror entries apart each component keeps its own valid order
    cap = 3
    conn = guard_connection(kind, n, cap, low)
    rng = range(1, n + 1)
    keys = [(i, j) for i in rng for j in rng]
    deriv, lam, _ = ref_uncancelled_ricci(conn)
    for got, want in ((ricci_derivative_part(conn), deriv), (lambda_term(conn), lam)):
        assert all(got.comps[key].same_payload(want[key]) for key in keys)
    for order in (None, *range(cap + 1)):
        got, want = ricci(conn, order).comps, ref_uncancelled_ricci(conn, order)[2]
        assert all(got[key].same_payload(want[key]) for key in keys), order


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nabla_g_on_mirror_entries_apart_gives_the_oracle_payloads(n):
    # a symmetric table whose G^k_ji, i < j, are G^k_ij re-tagged to lower
    # valid orders: A_ijk = A_jik holds in coefficients, not in valid order,
    # so every component takes the valid order `ref_nabla_g` gives it
    cap = 5
    gamma = dict(random_symmetric_connection(5 * n, n, cap, cap, 3).gamma)
    for k, i, j in list(gamma):
        if i < j:
            gamma[(k, j, i)] = gamma[(k, i, j)].with_valid_order((k + i + j) % cap)
    conn, g = Connection(n, gamma, True), metric(n, cap)
    got, want = nabla_g(conn, g).comps, ref_nabla_g(conn, g).comps
    assert all(got[key].same_payload(want[key]) for key in want)


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


def shifted(r: Bilinear, degree: int) -> Bilinear:
    """r with 1/7 added to the x1^degree coefficient of its (1, n) entry."""
    n, cap = r.shape
    jet = r.comp(1, n)
    terms = dict(jet.terms())
    exps = (degree,) + (0,) * (n - 1)
    terms[exps] = terms.get(exps, 0) + Fraction(1, 7)
    return Bilinear(n, r.comps | {(1, n): Jet.from_terms(n, cap, terms, jet.valid_order)})


def vanishes_to(full: dict, r: Bilinear, k: int) -> bool:
    """Whether every full residual jet full_ij - r_ij vanishes to degree k."""
    return all((jet - r.comps[key]).is_zero_up_to(k) for key, jet in full.items())


@pytest.mark.parametrize("n, cap", SHAPES)
def test_ricci_residual_at_an_order_is_the_full_residual_truncated(n, cap):
    conn, r = connection("general", n, cap), random_r(n, cap)
    full = ref_ricci(conn)
    report = residual_report(n, cap, r, {"connection": conn})
    assert not any(vanishes_to(full, r, k) or _ricci_residual(report, k) for k in range(cap + 1))
    # r equal to Ric, and then off by 1/7 at one coefficient of each degree:
    # the check fails exactly from that degree on
    exact = Bilinear(n, full)
    for d in range(cap + 1):
        r = shifted(exact, d)
        report = residual_report(n, cap, r, {"connection": conn})
        for k in range(cap + 1):
            assert vanishes_to(full, r, k) == (k < d)
            assert _ricci_residual(report, k) == (k < d)


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_metric_ricci_residual_needs_the_symbols_one_order_up(cap):
    g = metric(2, cap)
    full = ricci(levi_civita(g))
    for k in range(cap + 1):
        part = ricci(levi_civita(g, min(k + 1, cap)), k)
        assert all(same_truncated(part.comps[key], full.comps[key], k) for key in full.comps)
        if 0 < k < cap:
            # the symbols to degree k only miss the derivatives at degree k
            low = ricci(levi_civita(g, k), k)
            assert any(not low.comps[key].eq_up_to(full.comps[key], k) for key in full.comps)
    for d in range(cap + 1):
        r = shifted(full, d)
        report = residual_report(2, cap, r, {"metric": g})
        for k in range(cap + 1):
            assert vanishes_to(full.comps, r, k) == (k < d)
            assert _metric_ricci_residual(report, k) == (k < d)


# ---------------------------------------------------------------------------
# the lazy residual checks: `is_ricci` and `is_codazzi` compare each
# component as it is formed and stop at the first that differs; the verdict
# is the comparison of every component of the whole tensor


def bumped(jet: Jet, degree: int) -> Jet:
    """jet with 1/7 added to its x1^degree coefficient."""
    terms = dict(jet.terms())
    exps = (degree,) + (0,) * (jet.n - 1)
    terms[exps] = terms.get(exps, 0) + Fraction(1, 7)
    return Jet.from_terms(jet.n, jet.max_degree, terms, jet.valid_order)


def eager_ricci(conn: Connection, r: Bilinear, k: int) -> bool:
    return all(jet.eq_up_to(r.comps[key], k) for key, jet in ricci(conn, k).comps.items())


def eager_codazzi(conn: Connection, g: Metric, k: int) -> bool:
    ng, n = nabla_g(conn, g, k).comps, conn.n
    return all(
        ng[(i, j, l)].eq_up_to(ng[(j, i, l)], k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for l in range(i, n + 1)
    )


TABLE_KINDS = ("general", "symmetric", "mirrors apart")


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in TABLE_KINDS for n in (2, 3, 4)])
def test_is_ricci_agrees_with_every_component_compared(kind, n):
    # r is Ric itself, then off by 1/7 at one component, at every position in
    # loop order, at degree k (seen at order k) and k + 1 (not seen)
    cap = 3
    conn = guard_connection(kind, n, cap, False)
    exact = ricci(conn)
    keys = list(exact.comps)
    for k in range(cap):
        assert is_ricci(conn, exact, k) and eager_ricci(conn, exact, k)
        for key in keys:
            for d in (k, k + 1):
                r = Bilinear(n, exact.comps | {key: bumped(exact.comps[key], d)})
                assert is_ricci(conn, r, k) == eager_ricci(conn, r, k) == (d > k), (key, k, d)


def codazzi_pair(kind: str, n: int, cap: int) -> tuple[Connection, Metric]:
    """The Levi-Civita connection of a metric, where nabla g = 0, as a
    general table (its jets, flag cleared), a symmetric one (one jet per
    mirror pair) or one with mirrors apart (G^k_ji, i < j, re-tagged to a
    lower valid order)."""
    g = metric(n, cap)
    gamma = dict(levi_civita(g).gamma)
    if kind == "mirrors apart":
        for k, i, j in list(gamma):
            if i < j:
                gamma[(k, j, i)] = gamma[(k, i, j)].with_valid_order(cap - 1)
    return Connection(n, gamma, kind != "general"), g


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in TABLE_KINDS for n in (2, 3, 4)])
def test_is_codazzi_agrees_with_every_component_compared(kind, n):
    # a Codazzi pair, then one symbol or one metric entry off by 1/7 at x1^k,
    # the first, middle and last entry of the table in loop order (both
    # mirror entries of a symmetric table)
    cap = 3
    conn, g = codazzi_pair(kind, n, cap)
    symbols, entries = list(conn.gamma), [(i, j) for i, j in g.comps if i <= j]
    seen = set()
    for k in range(cap):
        assert is_codazzi(conn, g, k) and eager_codazzi(conn, g, k)
        for pick in (0, len(symbols) // 2, -1):
            s, i, j = symbols[pick]
            mirrors = {(s, i, j), (s, j, i)} if conn.symmetric else {(s, i, j)}
            gamma = conn.gamma | {key: bumped(conn.gamma[key], k) for key in mirrors}
            if kind == "symmetric":
                gamma[(s, j, i)] = gamma[(s, i, j)]
            moved = Connection(n, gamma, conn.symmetric)
            seen.add(is_codazzi(moved, g, k))
            assert is_codazzi(moved, g, k) == eager_codazzi(moved, g, k), (symbols[pick], k)
        for pick in (0, len(entries) // 2, -1):
            i, j = entries[pick]
            moved = Metric(n, {key: jet for key, jet in g.comps.items() if key[0] <= key[1]}
                           | {(i, j): bumped(g.comps[(i, j)], k)})
            seen.add(is_codazzi(conn, moved, k))
            assert is_codazzi(conn, moved, k) == eager_codazzi(conn, moved, k), (entries[pick], k)
    assert seen == {True, False}
