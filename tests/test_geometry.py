"""Tensor calculus: Ricci, torsion, splits, Poincare primitives, Levi-Civita,
sectional curvature, cubic forms, parallel volume."""

import random
from fractions import Fraction

import pytest

from jetgeom import (
    Bilinear,
    Connection,
    Jet,
    Metric,
    NotClosedError,
    OneForm,
    RejectionError,
    SingularJetError,
    TwoForm,
    divergence_form,
    is_codazzi,
    lambda_term,
    levi_civita,
    metric_inverse,
    nabla_g,
    parallel_volume_2d,
    potential_of_one_form,
    primitive_of_two_form,
    random_connection,
    random_normalized_metric,
    random_poly,
    random_symmetric_connection,
    ricci,
    ricci_derivative_part,
    sectional_curvature_2d,
    split,
    torsion,
    torsion_trace,
    two_form_closed,
)
from jetgeom import geometry as geometry_module
from jetgeom import multiindex as mi
from oracles import (
    _ricci_11_diagonal_2d,
    levi_civita_diagonal_2d,
    log_one_plus_x1_jet,
    ref_gauss_jordan,
    ref_nabla_g,
    sqrt_one_plus_x1_jet,
)

CAP = 4


def single_entry_connection(n, cap, key, jet):
    gamma = {
        (k, i, j): Jet.zero(n, cap)
        for k in range(1, n + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    gamma[key] = jet
    return Connection(n, gamma)


def diag_metric(entries, cap):
    n = len(entries)
    comps = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            comps[(i, j)] = entries[i - 1] if i == j else Jet.zero(n, cap)
    return Metric(n, comps)


def one_plus_x1(n, cap):
    return Jet.from_terms(n, cap, {tuple([0] * n): 1, tuple([1] + [0] * (n - 1)): 1})


# ---------------------------------------------------------------------------
# ricci and the quadratic term


def test_ricci_of_zero_connection():
    r = ricci(Connection.zero(2, CAP))
    assert all(r.comp(i, j).is_zero_up_to(CAP - 1) for i in (1, 2) for j in (1, 2))


def test_ricci_hand_example():
    # only G^1_11 = x2: Ric_21 = -1, everything else zero
    conn = single_entry_connection(2, CAP, (1, 1, 1), Jet.variable(2, 2, CAP))
    r = ricci(conn)
    assert r.comp(2, 1).eq_up_to(Jet.constant(-1, 2, CAP), CAP - 1)
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert r.comp(i, j).is_zero_up_to(CAP - 1)


def test_ricci_flat_metric():
    r = ricci(levi_civita(Metric.identity(3, CAP)))
    assert all(
        r.comp(i, j).is_zero_up_to(CAP - 1) for i in (1, 2, 3) for j in (1, 2, 3)
    )


def test_lambda_term_zero():
    lam = lambda_term(Connection.zero(2, CAP))
    assert all(lam.comp(i, j).is_zero_up_to(CAP) for i in (1, 2) for j in (1, 2))


def test_ricci_recomposition():
    # ricci = derivative part - lambda term (signs per the defining formulas)
    conn = random_connection(5, 3, CAP, 3, 2)
    r = ricci(conn)
    d = ricci_derivative_part(conn)
    lam = lambda_term(conn)
    for i in range(1, 4):
        for j in range(1, 4):
            gap = r.comp(i, j) - (d.comp(i, j) - lam.comp(i, j))
            assert gap.is_zero_up_to(CAP - 1)


def test_lambda_symmetric_for_symmetric_connection():
    conn = random_symmetric_connection(9, 3, CAP, 3, 2)
    lam = lambda_term(conn)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert (lam.comp(i, j) - lam.comp(j, i)).is_zero_up_to(CAP)


# ---------------------------------------------------------------------------
# torsion


def test_torsion_of_symmetric_connection():
    conn = random_symmetric_connection(2, 3, CAP, 3, 2)
    tau = torsion_trace(conn)
    assert all(tau.comp(j).is_zero_up_to(CAP) for j in (1, 2, 3))


def test_torsion_trace_example():
    conn = single_entry_connection(2, CAP, (1, 1, 2), Jet.variable(1, 2, CAP))
    tau = torsion_trace(conn)
    assert tau.comp(2).eq_up_to(Jet.variable(1, 2, CAP), CAP)
    assert tau.comp(1).is_zero_up_to(CAP)


def test_torsion_trace_vs_contraction_oracle():
    conn = random_connection(3, 3, CAP, 3, 2)
    t = torsion(conn)
    tau = torsion_trace(conn)
    for j in range(1, 4):
        total = None
        for i in range(1, 4):
            total = t[(i, i, j)] if total is None else total + t[(i, i, j)]
        assert (tau.comp(j) - total).is_zero_up_to(CAP)


# ---------------------------------------------------------------------------
# divergence form and the antisymmetric-Ricci identity


def test_divergence_zero():
    d = divergence_form(Connection.zero(2, CAP))
    assert all(d.comp(j).is_zero_up_to(CAP) for j in (1, 2))


def test_antisymmetric_ricci_is_divergence_curl():
    # antisym(Ric)_ij = ((D_i)_j - (D_j)_i) / 2 for torsion-free connections
    for seed in range(5):
        conn = random_symmetric_connection(seed, 3, CAP, 3, 2)
        _, anti = split(ricci(conn))
        d = divergence_form(conn)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                want = (d.comp(i).partial(j) - d.comp(j).partial(i)).scale(
                    Fraction(1, 2)
                )
                assert (anti.comp(i, j) - want).is_zero_up_to(CAP - 1)


def test_divergence_of_levi_civita_is_half_log_det():
    g = diag_metric([Jet.one(2, CAP), one_plus_x1(2, CAP)], CAP)
    d = divergence_form(levi_civita(g))
    half_dlog = log_one_plus_x1_jet(2, CAP).scale(Fraction(1, 2))
    assert d.comp(1).eq_up_to(half_dlog.partial(1), CAP - 1)
    assert d.comp(2).is_zero_up_to(CAP - 1)


# ---------------------------------------------------------------------------
# split and closedness


def test_split_symmetric_input():
    conn = random_symmetric_connection(1, 2, CAP, 3, 2)
    b = ricci(conn)
    b = Bilinear(2, {(i, j): (b.comp(i, j) + b.comp(j, i)).scale(Fraction(1, 2)) for i in (1, 2) for j in (1, 2)})
    s, a = split(b)
    assert a.is_zero_up_to(CAP)
    assert all((s.comp(i, j) - b.comp(i, j)).is_zero_up_to(CAP) for i in (1, 2) for j in (1, 2))


def test_split_recomposition():
    for seed in range(10):
        comps = {
            (i, j): random_poly(seed * 10 + i * 3 + j, 2, 3, 4, CAP)
            for i in (1, 2)
            for j in (1, 2)
        }
        b = Bilinear(2, comps)
        s, a = split(b)
        for i in (1, 2):
            for j in (1, 2):
                assert (s.comp(i, j) + a.comp(i, j) - b.comp(i, j)).is_zero_up_to(CAP)


def test_two_form_closed_vacuous_2d():
    a = TwoForm(2, {(1, 2): random_poly(3, 2, 3, 4, CAP)})
    assert two_form_closed(a, CAP)


def test_two_form_not_closed_example():
    # a_12 = x3 has a constant cyclic derivative
    zero = Jet.zero(3, CAP)
    a = TwoForm(3, {(1, 2): Jet.variable(3, 3, CAP), (1, 3): zero, (2, 3): zero})
    assert not two_form_closed(a, 0)


def antisym_gradient(omega: OneForm) -> TwoForm:
    n = omega.n
    upper = {
        (i, j): (omega.comp(i).partial(j) - omega.comp(j).partial(i)).scale(
            Fraction(1, 2)
        )
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return TwoForm(n, upper)


def test_antisymmetrized_gradient_is_closed():
    for seed in range(5):
        omega = OneForm(3, {k: random_poly(seed * 7 + k, 3, 3, 4, CAP) for k in (1, 2, 3)})
        a = antisym_gradient(omega)
        assert two_form_closed(a, CAP - 2)


# ---------------------------------------------------------------------------
# Poincare primitives


def test_primitive_constant_two_form():
    a = TwoForm(2, {(1, 2): Jet.one(2, CAP)})
    alpha = primitive_of_two_form(a)
    assert alpha.comp(1).eq_up_to(Jet.variable(2, 2, CAP), CAP)
    assert alpha.comp(2).eq_up_to(-Jet.variable(1, 2, CAP), CAP)


def test_primitive_of_zero():
    a = TwoForm(3, {(i, j): Jet.zero(3, CAP) for i in (1, 2) for j in range(i + 1, 4)})
    alpha = primitive_of_two_form(a)
    assert all(alpha.comp(k).is_zero_up_to(CAP) for k in (1, 2, 3))


def test_primitive_defining_identity():
    for seed in range(5):
        omega = OneForm(
            3, {k: random_poly(seed * 11 + k, 3, 3, 4, CAP) for k in (1, 2, 3)}
        )
        a = antisym_gradient(omega)
        alpha = primitive_of_two_form(a)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                lhs = alpha.comp(i).partial(j) - alpha.comp(j).partial(i)
                assert (lhs - a.comp(i, j).scale(2)).is_zero_up_to(CAP - 1)


def test_primitive_rejects_non_closed():
    zero = Jet.zero(3, CAP)
    a = TwoForm(3, {(1, 2): Jet.variable(3, 3, CAP), (1, 3): zero, (2, 3): zero})
    with pytest.raises(NotClosedError):
        primitive_of_two_form(a)


def test_potential_product_example():
    d = OneForm(2, {1: Jet.variable(2, 2, CAP), 2: Jet.variable(1, 2, CAP)})
    f = potential_of_one_form(d)
    assert f.eq_up_to(Jet.from_terms(2, CAP, {(1, 1): 1}), CAP)


def test_potential_of_zero():
    d = OneForm(2, {1: Jet.zero(2, CAP), 2: Jet.zero(2, CAP)})
    assert potential_of_one_form(d).is_zero_up_to(CAP)


def test_potential_gradient_round_trip():
    for seed in range(5):
        f0 = random_poly(seed, 3, 3, 4, CAP)
        f0 = f0 - Jet.constant(f0.constant_term, 3, CAP)
        d = OneForm(3, {k: f0.partial(k) for k in (1, 2, 3)})
        assert potential_of_one_form(d).eq_up_to(f0, CAP)


def test_potential_rejects_non_closed():
    d = OneForm(2, {1: Jet.variable(2, 2, CAP), 2: Jet.zero(2, CAP)})
    with pytest.raises(NotClosedError):
        potential_of_one_form(d)


# ---------------------------------------------------------------------------
# nabla g and the Codazzi test


def test_nabla_g_zero_connection():
    g = random_normalized_metric(5, 2, CAP, 3, 2)
    ng = nabla_g(Connection.zero(2, CAP), g)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                assert (ng.comp(i, j, k) - g.comp(j, k).partial(i)).is_zero_up_to(
                    CAP - 1
                )


def test_nabla_g_metricity():
    for seed in range(3):
        g = random_normalized_metric(seed, 3, CAP, 3, 2)
        ng = nabla_g(levi_civita(g), g)
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    assert ng.comp(i, j, k).is_zero_up_to(CAP - 1)


def test_nabla_g_hand_example():
    g = Metric.identity(2, CAP)
    conn = single_entry_connection(2, CAP, (2, 1, 1), Jet.one(2, CAP))
    ng = nabla_g(conn, g)
    assert ng.comp(1, 2, 1).eq_up_to(Jet.constant(-1, 2, CAP), CAP - 1)
    assert ng.comp(2, 1, 1).is_zero_up_to(CAP - 1)


def nabla_g_inputs(symmetric: bool, n: int, seed: int):
    g = random_normalized_metric(seed, n, 3, 2, 2)
    if symmetric:
        return random_symmetric_connection(seed + 1, n, 3, 2, 2), g
    return random_connection(seed + 1, n, 3, 2, 2), g


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("symmetric", [True, False])
def test_nabla_g_matches_the_full_form(n, symmetric):
    for seed in (1, 2):
        conn, g = nabla_g_inputs(symmetric, n, seed)
        fast, full = nabla_g(conn, g), ref_nabla_g(conn, g)
        for key, jet in full.comps.items():
            assert fast.comps[key].same_payload(jet), key


@pytest.mark.parametrize("symmetric, products", [(True, 160), (False, 256)])
@pytest.mark.parametrize("order", [None, 2])
def test_nabla_g_products_at_n4(monkeypatch, symmetric, products, order):
    # the full form needs 2 n^4 = 512; each A_ijk is one product sum of n
    # products, each of the n^2 (n + 1) / 2 = 40 components j <= k one more
    # of its derivative and its two A terms, and no product goes through
    # Jet.__mul__
    conn, g = nabla_g_inputs(symmetric, 4, 3)
    real, sums, muls = geometry_module.product_sum, [], []

    def counting(products=(), linear=(), derivatives=(), cap=None):
        products, linear, derivatives = tuple(products), tuple(linear), tuple(derivatives)
        sums.append((len(products), len(linear), len(derivatives), cap))
        return real(products, linear, derivatives, cap)

    def forbidden(a, b):
        muls.append(1)
        return NotImplemented

    monkeypatch.setattr(geometry_module, "product_sum", counting)
    monkeypatch.setattr(Jet, "__mul__", forbidden)
    nabla_g(conn, g, order)
    assert sum(p for p, _, _, _ in sums) == products
    assert sums == [(4, 0, 0, order)] * (products // 4) + [(0, 2, 1, order)] * 40
    assert muls == []


def test_is_codazzi_identity_pair():
    assert is_codazzi(Connection.zero(2, CAP), Metric.identity(2, CAP), CAP - 1)


def test_is_codazzi_hand_negative():
    conn = single_entry_connection(2, CAP, (2, 1, 1), Jet.one(2, CAP))
    assert not is_codazzi(conn, Metric.identity(2, CAP), CAP - 1)


def test_is_codazzi_reduced_set_equals_full_permutations():
    from oracles import full_codazzi_check

    cases = []
    for seed in range(4):
        g = random_normalized_metric(seed, 3, CAP, 2, 2)
        cases.append((levi_civita(g), g))  # passes
        cases.append((random_symmetric_connection(seed, 3, CAP, 2, 2), g))  # fails
    for conn, g in cases:
        reduced = is_codazzi(conn, g, CAP - 1)
        full = full_codazzi_check(nabla_g(conn, g), CAP - 1)
        assert reduced == full


# ---------------------------------------------------------------------------
# Levi-Civita


def test_levi_civita_identity_metric():
    conn = levi_civita(Metric.identity(3, CAP))
    assert all(j.is_zero_up_to(CAP - 1) for j in conn.gamma.values())
    assert conn.symmetric


def test_levi_civita_diagonal_example():
    g = diag_metric([Jet.one(2, CAP), one_plus_x1(2, CAP)], CAP)
    conn = levi_civita(g)
    half_inv = one_plus_x1(2, CAP).reciprocal().scale(Fraction(1, 2))
    assert conn.gamma[(2, 1, 2)].eq_up_to(half_inv, CAP - 1)
    assert conn.gamma[(1, 2, 2)].eq_up_to(Jet.constant(Fraction(-1, 2), 2, CAP), CAP - 1)
    for key in ((1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 2, 2)):
        assert conn.gamma[key].is_zero_up_to(CAP - 1)


def test_levi_civita_general_matches_diagonal_formulas():
    for seed in range(5):
        d1 = random_poly(seed * 2 + 1, 2, 3, 2, CAP)
        d2 = random_poly(seed * 2 + 2, 2, 3, 2, CAP)
        d1 = d1 - Jet.constant(d1.constant_term - 1, 2, CAP)
        d2 = d2 - Jet.constant(d2.constant_term - 2, 2, CAP)
        g = diag_metric([d1, d2], CAP)
        general = levi_civita(g)
        fast = levi_civita_diagonal_2d(g)
        for key in general.gamma:
            assert general.gamma[key].eq_up_to(fast.gamma[key], CAP - 1)


def test_metric_inverse_multiplies_to_identity():
    g = random_normalized_metric(13, 3, CAP, 3, 2)
    inv = metric_inverse(g)
    for i in range(1, 4):
        for j in range(1, 4):
            total = None
            for k in range(1, 4):
                term = g.comp(i, k) * inv[(k, j)]
                total = term if total is None else total + term
            want = Jet.constant(1 if i == j else 0, 3, CAP)
            assert (total - want).is_zero_up_to(CAP)


def random_metric(rng: random.Random) -> Metric | None:
    """A metric of n = 1..4 variables and cap 0..5 with rational entries, zero
    entries, now and then a zero constant term on the diagonal (a row swap),
    in about a quarter of the draws block diagonal (every entry between
    x1..xs and the other variables a zero jet) and, in about a third of the
    draws, valid orders below the cap that differ between components; None
    when its constant-term matrix is singular."""
    n, cap = rng.randint(1, 4), rng.randint(0, 5)
    mixed = rng.random() < 0.35
    split = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.25 else 0

    def entry(constant):
        valid = rng.randint(0, cap) if mixed else cap
        if rng.random() < 0.3:
            return Jet.constant(constant, n, cap).with_valid_order(valid)
        tail = [
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
            for _ in range(mi.size(n, cap) - 1)
        ]
        return Jet(n, cap, [Fraction(constant)] + tail, valid)

    diagonal, off = [0, 1, 2, Fraction(-5, 3)], [0, 0, 1, Fraction(1, 2), -2]
    comps = {
        (i, j): entry(rng.choice(diagonal if i == j else off))
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    }
    for i, j in comps:
        if i <= split < j:
            comps[(i, j)] = Jet.zero(n, cap).with_valid_order(comps[(i, j)].valid_order)
    try:
        return Metric(n, comps)
    except SingularJetError:
        return None


def test_metric_inverse_gives_the_reference_elimination_jets():
    # the inverse solved by degree against the constant matrix: the
    # coefficients of the elimination that forms every product, with or
    # without an order; the same payloads when the components share one
    # valid order, and otherwise never a valid order above the reference's.
    # A block-diagonal metric splits into blocks solved apart, and a zero
    # diagonal entry into blocks whose rows read an earlier block's entries
    names = ("solved", "swapped", "q > 1", "mixed", "block-diagonal", "zero diagonal")
    rng, seen = random.Random(35), dict.fromkeys(names, 0)
    for _ in range(250):
        g = random_metric(rng)
        if g is None:
            continue
        n, cap = g.shape
        order = rng.choice([None, rng.randint(0, cap)])
        comps = g.comps if order is None else {k: jet.truncate(order) for k, jet in g.comps.items()}
        k = cap if order is None else order
        rows = [
            [comps[(i, j)] for j in range(1, n + 1)]
            + [Jet.constant(int(i == j), n, k) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        want = ref_gauss_jordan(rows)
        got = metric_inverse(g, order)
        one_order = len({jet.valid_order for jet in comps.values()}) == 1
        for i in range(n):
            for j in range(n):
                a, b = got[(i + 1, j + 1)], want[i][n + j]
                assert a.same_coeffs(b) and a.max_degree == b.max_degree == k
                assert a.same_payload(b) if one_order else a.valid_order <= b.valid_order
        seen["solved"] += 1
        seen["swapped"] += not g.comp(1, 1).constant_term
        seen["q > 1"] += any(jet.constant_term.denominator > 1 for jet in got.values())
        seen["mixed"] += not one_order
        seen["block-diagonal"] += any(
            all(comps[(i, j)].is_zero() for i in range(1, s + 1) for j in range(s + 1, n + 1))
            for s in range(1, n)
        )
        seen["zero diagonal"] += any(comps[(i, i)].is_zero() for i in range(1, n + 1))
    assert seen["solved"] > 150 and min(seen.values()) > 20, seen


def test_elimination_of_a_diagonal_matrix_forms_no_product(monkeypatch):
    # each row: its pivot's reciprocal times its identity entry is the
    # reciprocal; every other product is known, and a zero factor leaves the
    # other rows as they are
    muls, real = [], Jet.__mul__

    def counting(a, b):
        muls.append(1)
        return real(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting)
    diagonal = [one_plus_x1(3, CAP), Jet.constant(3, 3, CAP), one_plus_x1(3, CAP).scale(2)]
    zero = Jet.zero(3, CAP)
    pairs = [(i, j) for i in (1, 2, 3) for j in range(i, 4)]
    g = Metric(3, {(i, j): diagonal[i - 1] if i == j else zero for i, j in pairs})
    inv = metric_inverse(g)
    assert len(muls) == 0
    for i in (1, 2, 3):
        assert inv[(i, i)].same_payload(diagonal[i - 1].reciprocal())


@pytest.mark.parametrize(
    "constants, invertible",
    [
        ({(1, 1): 1, (2, 2): 1, (3, 3): 1}, True),
        # a zero first pivot: the elimination swaps rows
        ({(1, 2): 1, (3, 3): Fraction(-2, 3)}, True),
        ({(1, 1): 1, (1, 2): 2, (2, 2): 4, (3, 3): 1}, False),
        ({(1, 1): 2, (2, 2): 3}, False),
    ],
)
def test_metric_rejects_singular_constant_term_matrix(constants, invertible):
    n = 3
    x1 = Jet.variable(1, n, CAP)
    # x1 on every entry: the jets are nonzero, only the constant terms decide
    comps = {
        (i, j): x1 + constants.get((i, j), 0) for i in range(1, n + 1) for j in range(i, n + 1)
    }
    if invertible:
        assert Metric(n, comps).n == n
    else:
        with pytest.raises(SingularJetError, match="^metric constant-term matrix is singular$"):
            Metric(n, comps)


def test_levi_civita_ricci_symmetric():
    for seed in range(3):
        g = random_normalized_metric(seed + 50, 3, CAP, 3, 2)
        r = ricci(levi_civita(g))
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert (r.comp(i, j) - r.comp(j, i)).is_zero_up_to(CAP - 2)


def test_antisym_ricci_closed_for_symmetric_connections():
    for seed in range(5):
        conn = random_symmetric_connection(seed + 100, 3, CAP, 3, 2)
        _, anti = split(ricci(conn))
        assert two_form_closed(anti, CAP - 2)


# ---------------------------------------------------------------------------
# sectional curvature and parallel volume


def test_sectional_curvature_flat():
    f = sectional_curvature_2d(Metric.identity(2, CAP))
    assert f.is_zero_up_to(CAP - 2)


def test_sectional_curvature_hyperbolic():
    from oracles import exp_series_jet

    g = diag_metric([Jet.one(2, 6), exp_series_jet(2, 6, 2)], 6)
    f = sectional_curvature_2d(g)
    assert f.eq_up_to(Jet.constant(-1, 2, 6), 4)


@pytest.mark.parametrize("cap", [2, 4, 6])
def test_sectional_curvature_matches_the_closed_form(cap):
    # f = Ric_11 / g11 with Ric_11 from `ricci` and from the closed form of a
    # diagonal metric: the same valid order and coefficients to that order
    for seed in range(4):
        d1 = random_poly(seed * 3 + 1, 2, min(cap, 3), 2, cap)
        d2 = random_poly(seed * 3 + 2, 2, min(cap, 3), 2, cap)
        g11 = d1 - Jet.constant(d1.constant_term - 1, 2, cap)
        g22 = d2 - Jet.constant(d2.constant_term - 2, 2, cap)
        f = sectional_curvature_2d(diag_metric([g11, g22], cap))
        i11, i22 = g11.reciprocal(), g22.reciprocal()
        want = i11 * _ricci_11_diagonal_2d(g11, g22, i11, i22, g22.partial(1).partial(1))
        assert f.valid_order == want.valid_order
        assert f.eq_up_to(want, f.valid_order)


def test_sectional_curvature_ricci_consistency():
    for seed in range(5):
        d1 = random_poly(seed * 3 + 1, 2, 3, 2, CAP)
        d2 = random_poly(seed * 3 + 2, 2, 3, 2, CAP)
        d1 = d1 - Jet.constant(d1.constant_term - 1, 2, CAP)
        d2 = d2 - Jet.constant(d2.constant_term - 1, 2, CAP)
        g = diag_metric([d1, d2], CAP)
        f = sectional_curvature_2d(g)
        r = ricci(levi_civita(g))
        for i in (1, 2):
            for j in (1, 2):
                assert (r.comp(i, j) - f * g.comp(i, j)).is_zero_up_to(CAP - 2)


def test_parallel_volume_zero_connection():
    nu = parallel_volume_2d(Connection.zero(2, CAP))
    assert nu.eq_up_to(Jet.one(2, CAP), CAP)


def test_parallel_volume_sqrt_binomial_series():
    g = diag_metric([Jet.one(2, 6), one_plus_x1(2, 6)], 6)
    nu = parallel_volume_2d(levi_civita(g))
    assert nu.eq_up_to(sqrt_one_plus_x1_jet(2, 6), 6)


def test_parallel_volume_defining_relation():
    for seed in range(3):
        g = random_normalized_metric(seed + 7, 2, CAP, 3, 2)
        conn = levi_civita(g)
        nu = parallel_volume_2d(conn)
        for k in (1, 2):
            trace = conn.gamma[(1, k, 1)] + conn.gamma[(2, k, 2)]
            assert (nu.partial(k) - trace * nu).is_zero_up_to(CAP - 1)


def test_parallel_volume_rejects_nonsymmetric_ricci():
    # a symmetric connection whose Ricci tensor has antisymmetric part:
    # G^1_11 = x2 works (Ric_21 = -1, Ric_12 = 0)
    conn = Connection.from_symmetric(
        2,
        {
            (1, 1, 1): Jet.variable(2, 2, CAP),
            (2, 1, 1): Jet.zero(2, CAP),
            (1, 1, 2): Jet.zero(2, CAP),
            (2, 1, 2): Jet.zero(2, CAP),
            (1, 2, 2): Jet.zero(2, CAP),
            (2, 2, 2): Jet.zero(2, CAP),
        },
    )
    with pytest.raises(RejectionError) as err:
        parallel_volume_2d(conn)
    assert err.value.reason == "ricci-not-symmetric"
