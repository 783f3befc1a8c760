"""Coordinate covariance as an oracle for the checks' tensor functions: under
a polynomial change of coordinates y = phi(x), the Ricci tensor of the
pulled-back connection is the pulled-back Ricci tensor, and the Levi-Civita
connection of the pulled-back metric is the pulled-back Levi-Civita
connection, which holds the metric inverse too. No formula copy can share
this property with `geometry`, and a nonlinear phi is needed: under a
linear one the symbols transform as a tensor, so every contraction of them
is covariant."""

import random
import pytest

from jetgeom import (
    Jet,
    Metric,
    levi_civita,
    random_connection,
    random_normalized_metric,
    random_symmetric_connection,
    random_trace_free_connection,
    ricci,
)
from jetgeom import multiindex as mi
from oracles import RefChart

TABLES = {
    "general": random_connection,
    "symmetric": random_symmetric_connection,
    "trace-free": random_trace_free_connection,
}
# (n, D) of the cases: the symbols are random of degree D, so the Ricci
# tensor is compared to order D - 1; d^2 phi enters the symbols at degree 0,
# so D = 2 already compares its products in the quadratic terms
WORKSPACES = {2: 4, 3: 2}


def random_change(seed: int, n: int, cap: int, identity: bool) -> list[Jet]:
    """y = phi(x) = A x + Q(x), Q quadratic with integer coefficients in
    [-2, 2] in every component, and A the identity or L U, L unit lower
    triangular and U upper triangular with diagonal entries +-1 and integer
    entries in [-2, 2], drawn until A is not the identity. J(0) = A is
    unimodular, so J^-1 has integer coefficients and the oracle's Fractions
    stay small."""
    rng, rows = random.Random(seed), range(n)
    eye = [[int(p == q) for q in rows] for p in rows]
    a = eye
    while not identity and a == eye:
        lower = [[int(p == q) if q >= p else rng.randint(-2, 2) for q in rows] for p in rows]
        upper = [
            [rng.choice([-1, 1]) if p == q else rng.randint(-2, 2) if q > p else 0 for q in rows]
            for p in rows
        ]
        a = [[sum(lower[p][k] * upper[k][q] for k in rows) for q in rows] for p in rows]
    phi = []
    for p in range(n):
        terms = {}
        for exps in mi.exponents(n, 2):
            if sum(exps) == 1:
                terms[exps] = a[p][exps.index(1)]
            elif sum(exps) == 2:
                terms[exps] = rng.randint(-2, 2)
        phi.append(Jet.from_terms(n, cap, terms))
    return phi


@pytest.mark.parametrize("identity", [True, False], ids=["J0=I", "J0!=I"])
@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("n", WORKSPACES)
def test_ricci_of_the_pulled_back_connection_is_the_pulled_back_ricci(n, table, identity):
    # Ric(phi* nabla) = (Ric o phi)(J., J.), both sides valid to D - 1
    cap = WORKSPACES[n]
    seed = 10 * n + len(table) + identity
    conn = TABLES[table](seed, n, cap, cap, 2)
    chart = RefChart(random_change(seed, n, cap, identity))
    pulled = ricci(chart.connection(conn))
    want = chart.bilinear(ricci(conn).comps)
    for key, jet in want.items():
        assert jet.valid_order == pulled.comp(*key).valid_order == cap - 1, key
        assert pulled.comp(*key).eq_up_to(jet, cap - 1), key


@pytest.mark.parametrize("identity", [True, False], ids=["J0=I", "J0!=I"])
@pytest.mark.parametrize("n", WORKSPACES)
def test_levi_civita_of_the_pulled_back_metric_is_the_pulled_back_connection(n, identity):
    # LC(phi* g) = phi* LC(g), both sides valid to D - 1; with J(0) != I the
    # pulled-back metric's constant matrix J(0)^T J(0) is not the identity
    cap = WORKSPACES[n]
    seed = 10 * n + identity
    g = random_normalized_metric(seed, n, cap, cap, 2)
    chart = RefChart(random_change(seed, n, cap, identity))
    metric = Metric(n, chart.bilinear(g.comps))
    assert metric.normalized_at_zero == identity
    pulled = levi_civita(metric)
    want = chart.connection(levi_civita(g))
    for key, jet in want.gamma.items():
        assert jet.valid_order == pulled.gamma[key].valid_order == cap - 1, key
        assert pulled.gamma[key].eq_up_to(jet, cap - 1), key
