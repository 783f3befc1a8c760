"""The integer jet kernel against the Fraction kernel of tests/oracles.py.

Every operation must give a same_payload-identical jet: the same valid order
and the same stored coefficients, truncation garbage above the valid order
included, since reports serialize it.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetgeom import DimensionMismatchError, Jet
from jetgeom import multiindex as mi
from jetgeom.jets import _mul_layer, _mul_nums
from oracles import (
    ref_add,
    ref_antiderivative_x1,
    ref_exp,
    ref_mul,
    ref_partial,
    ref_reciprocal,
    ref_scale,
    ref_sub,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

fractions = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 35])
)


@st.composite
def workspaces(draw, max_size: int = 210, least_n: int = 1):
    """(n, D) with n = least_n..4 and D = 0..8, at most max_size monomials."""
    n = draw(st.integers(least_n, 4))
    cap = draw(st.integers(0, 8))
    while mi.size(n, cap) > max_size:
        cap -= 1
    return n, cap


@st.composite
def jets_in(draw, n: int, cap: int, constant=None):
    """Zero, constant, sparse or dense jets with any valid order. `constant`
    None draws the constant term, "nonzero" or 0 fixes it."""
    size = mi.size(n, cap)
    kind = draw(st.sampled_from(["zero", "constant", "sparse", "dense"]))
    coeffs = [Fraction(0)] * size
    if kind == "constant":
        coeffs[0] = draw(fractions)
    elif kind != "zero":
        for r in range(size):
            if kind == "dense" or draw(st.integers(0, 3)) == 0:
                coeffs[r] = draw(fractions)
    if constant == "nonzero":
        coeffs[0] = draw(fractions.filter(bool))
    elif constant is not None:
        coeffs[0] = Fraction(constant)
    valid = draw(st.integers(0, cap))
    return Jet(n, cap, coeffs, valid)


@st.composite
def jet_pairs(draw, least_n: int = 1):
    n, cap = draw(workspaces(least_n=least_n))
    return draw(jets_in(n, cap)), draw(jets_in(n, cap))


def assert_same(got: Jet, want: Jet):
    assert got.same_payload(want), (got, want)
    assert got.coeffs == want.coeffs
    assert_lowest_terms(got)


def assert_lowest_terms(jet: Jet):
    assert all(isinstance(c, int) for c in jet.nums) and isinstance(jet.den, int)
    assert jet.den > 0
    assert gcd(jet.den, *jet.nums) == 1
    if not any(jet.nums):
        assert jet.den == 1


@SETTINGS
@given(jet_pairs(least_n=0))
def test_add_sub_mul_match_fraction_kernel(pair):
    a, b = pair
    assert_same(a + b, ref_add(a, b))
    assert_same(a - b, ref_sub(a, b))
    assert_same(a * b, ref_mul(a, b))
    assert_same(b * a, ref_mul(b, a))


@SETTINGS
@given(jet_pairs(), fractions)
def test_scale_matches_fraction_kernel(pair, value):
    a, _ = pair
    assert_same(a.scale(value), ref_scale(a, value))
    assert_same(-a, ref_scale(a, Fraction(-1)))


@SETTINGS
@given(jet_pairs(), st.data())
def test_partial_and_antiderivative_match_fraction_kernel(pair, data):
    a, _ = pair
    axis = data.draw(st.integers(1, a.n))
    assert_same(a.partial(axis), ref_partial(a, axis))
    assert_same(a.antiderivative_x1(), ref_antiderivative_x1(a))


def test_antiderivative_of_a_0_variable_jet_is_rejected():
    # as restrict_x1 is: a jet in 0 variables has no x1
    with pytest.raises(DimensionMismatchError):
        Jet.constant(2, 0, 3).antiderivative_x1()


@SETTINGS
@given(st.data())
def test_reciprocal_matches_newton(data):
    n, cap = data.draw(workspaces(max_size=126, least_n=0))
    a = data.draw(jets_in(n, cap, constant="nonzero"))
    assert_same(a.reciprocal(), ref_reciprocal(a))


@SETTINGS
@given(st.data())
def test_exp_matches_horner(data):
    n, cap = data.draw(workspaces(max_size=126, least_n=0))
    a = data.draw(jets_in(n, cap, constant=0))
    assert_same(a.exp(), ref_exp(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_largest_workspaces_match_fraction_kernel(n):
    """One product, reciprocal and exp at D = 8 for every n, with
    coefficients whose denominators share factors."""
    cap = 8
    size = mi.size(n, cap)
    a = Jet(n, cap, [Fraction((-1) ** r * (r % 7 + 1), r % 5 + 1) for r in range(size)], cap - 3)
    b = Jet(n, cap, [Fraction(r % 4 - 1, 6) for r in range(size)], cap)
    assert_same(a * b, ref_mul(a, b))
    assert_same(a.reciprocal(), ref_reciprocal(a))
    assert_same((a - a.constant_term).exp(), ref_exp(a - a.constant_term))


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_pair_rows_hold_every_product_pair(n, cap):
    rows = mi.product_rows(n, cap)
    assert len(rows) == mi.size(n, cap)
    assert sum(len(row) for row in rows) == comb(2 * n + cap, cap)
    assert sum(len(row) for row in rows) == len(mi.product_rank(n, cap))
    assert {(ra, rb): rc for ra, row in enumerate(rows) for rb, rc in row} == mi.product_rank(n, cap)


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_product_layers_partition_the_pair_rows(n, cap):
    rows, exps = mi.product_rows(n, cap), mi.exponents(n, cap)
    spanned = []
    for t, spans in enumerate(mi.product_layers(n, cap)):
        for ra, lo, hi in spans:
            for rb, rc in rows[ra][lo:hi]:
                assert sum(exps[rc][:1]) == t  # x1-exponent 0 at n = 0
                spanned.append((ra, rb))
    assert len(spanned) == comb(2 * n + cap, cap)
    assert sorted(spanned) == sorted((ra, rb) for ra, row in enumerate(rows) for rb, _ in row)


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(7)])
def test_x1_layers_list_each_layer_as_a_slice(n, cap):
    exps = mi.exponents(n, cap)
    layers = mi.x1_layers(n, cap)
    assert sorted(r for layer in layers for r in layer) == list(range(mi.size(n, cap)))
    if n == 0:  # the one monomial has x1-exponent 0
        assert layers == ((0,),) + ((),) * cap
        return
    for t, layer in enumerate(layers):
        assert [exps[r] for r in layer] == [(t, *e) for e in mi.exponents(n - 1, cap - t)]


@pytest.mark.parametrize("n, cap", [(0, 3), (1, 5), (2, 6), (3, 4), (4, 3)])
def test_layer_products_add_up_to_the_product(n, cap):
    size, exps, rows = mi.size(n, cap), mi.exponents(n, cap), mi.product_rows(n, cap)
    a = [(7 * r) % 5 - 2 for r in range(size)]
    b = [(3 * r) % 7 - 3 for r in range(size)]
    whole = _mul_nums(rows, a, b)
    for t, spans in enumerate(mi.product_layers(n, cap)):
        out = [0] * size
        _mul_layer(rows, spans, a, b, -3, out)
        assert out == [-3 * c if sum(exps[r][:1]) == t else 0 for r, c in enumerate(whole)]


def test_fraction_api_and_lowest_terms():
    a = Jet.from_terms(2, 3, {(0, 0): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 2): 4})
    assert (a.nums[:3], a.den) == ((3, 4, 0), 6)
    assert a.constant_term == Fraction(1, 2)
    assert a.coefficient((1, 0)) == Fraction(2, 3)
    assert dict(a.terms()) == {(0, 0): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 2): 4}
    assert all(isinstance(c, Fraction) for c in a.coeffs)
    with pytest.raises(AttributeError):
        a.coeffs = ()
    zero = a - a
    assert zero.is_zero() and zero.den == 1
    assert_lowest_terms(a.scale(6))
    assert (a.scale(6).den, a.scale(6).nums[0]) == (1, 3)
