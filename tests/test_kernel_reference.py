"""The integer jet kernel against the Fraction kernel of tests/oracles.py.

Every operation must give a same_payload-identical jet: the same valid order
and the same stored coefficients, truncation garbage above the valid order
included, since reports serialize it.
"""

import ast
import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jetgeom import DimensionMismatchError, Jet
from jetgeom import multiindex as mi
from jetgeom import jets as jets_module
from jetgeom.jets import _accumulate, _mul_layer, _radial_homotopy, product_sum
from oracles import (
    ref_add,
    ref_antiderivative_x1,
    ref_exp,
    ref_mul,
    ref_partial,
    ref_product_rows,
    ref_radial_homotopy,
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


@SETTINGS
@given(jet_pairs(), st.data())
def test_radial_homotopy_matches_the_fraction_weights(pair, data):
    # both weight rules: 2/(m + 2) of the torsion-free primitive and 1/(m + 1)
    # of the parallel-volume potential, every axis, valid order included
    a, _ = pair
    axis = data.draw(st.integers(1, a.n))
    shift = data.draw(st.sampled_from([1, 2]))
    assert_same(_radial_homotopy(a, axis, shift, shift), ref_radial_homotopy(a, axis, shift, shift))


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


def deep_jet(n: int, cap: int, kind: str, seed: int, constant: Fraction) -> Jet:
    """A jet of workspace (n, cap) with the given constant term: "sparse"
    has up to 7 nonzero coefficients of degree 1..3 besides it, as a drawn
    cubic of metric2d-deep has, "dense" a coefficient at every rank; every
    coefficient is a fraction whose denominators share factors."""
    rng = random.Random(f"{n} {cap} {kind} {seed}")
    size = mi.size(n, cap)
    ranks = range(1, size)
    if kind == "sparse":
        cubic = mi.size(n, 3)  # the ranks of degree <= 3
        ranks = rng.sample(range(1, cubic), min(7, cubic - 1))
    coeffs = [Fraction(0)] * size
    for r in ranks:
        coeffs[r] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3, 4, 6, 35]))
    coeffs[0] = constant
    return Jet(n, cap, coeffs, cap - 1)


# the workspaces of metric2d-deep's reciprocals, (2, 10) and (1, 11), and
# beyond; the hypothesis workspaces above stop at D = 8
DEEP_CASES = [
    (n, cap, kind) for n, cap in ((2, 10), (2, 12), (1, 11), (1, 35)) for kind in ("sparse", "dense")
]


@pytest.mark.parametrize("n, cap, kind", DEEP_CASES)
def test_deep_reciprocal_matches_newton(n, cap, kind):
    for seed, constant in enumerate((Fraction(-5, 3), Fraction(7, 2))):
        a = deep_jet(n, cap, kind, seed, constant)
        assert_same(a.reciprocal(), ref_reciprocal(a))


@pytest.mark.parametrize("n, cap, kind", DEEP_CASES)
def test_deep_exp_matches_horner(n, cap, kind):
    a = deep_jet(n, cap, kind, 0, Fraction(0))
    assert_same(a.exp(), ref_exp(a))


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_pair_rows_hold_every_product_pair(n, cap):
    rows = mi.product_rows(n, cap)
    assert len(rows) == mi.size(n, cap)
    assert sum(len(row) for row in rows) == comb(2 * n + cap, cap)
    assert sum(len(row) for row in rows) == len(mi.product_rank(n, cap))
    assert {(ra, rb): rc for ra, row in enumerate(rows) for rb, rc in row} == mi.product_rank(n, cap)


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_pair_rows_by_code_addition_match_the_exponent_tuple_rows(n, cap):
    # the same pairs in the same order within every row
    assert mi.product_rows(n, cap) == ref_product_rows(n, cap)


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_product_layers_partition_the_pair_rows(n, cap):
    rows, exps = mi.product_rows(n, cap), mi.exponents(n, cap)
    spanned, runs = [], [[] for _ in rows]
    for t, spans in enumerate(mi.product_layers(n, cap)):
        for ra, pairs in spans:
            runs[ra].extend(pairs)
            for rb, rc in pairs:
                assert sum(exps[rc][:1]) == t  # x1-exponent 0 at n = 0
                spanned.append((ra, rb))
    assert len(spanned) == comb(2 * n + cap, cap)
    assert sorted(spanned) == sorted((ra, rb) for ra, row in enumerate(rows) for rb, _ in row)
    # each span is a contiguous run of its row, the runs in layer order
    assert [tuple(run) for run in runs] == list(rows)


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(9)])
def test_product_degrees_partition_the_pair_rows(n, cap):
    # the spans of the graded solve: degree g holds, for every row that
    # reaches it, the row's pairs whose rb has degree g
    rows, degs = mi.product_rows(n, cap), mi.degree_of(n, cap)
    runs = [[] for _ in rows]
    for g, spans in enumerate(mi.product_degrees(n, cap)):
        assert [ra for ra, _ in spans] == sorted(ra for ra, _ in spans)
        for ra, pairs in spans:
            assert pairs and all(degs[rb] == g for rb, _ in pairs)
            runs[ra].extend(pairs)
    assert [sorted(run) for run in runs] == [sorted(row) for row in rows]


@pytest.mark.parametrize("n, cap", [(n, cap) for n in range(0, 5) for cap in range(1, 9)])
def test_layers_of_the_lower_cap_hold_the_pairs_below_the_cap(n, cap):
    # the identity the layered solve's rests rest on: a product formed only
    # to degree cap - 1 takes the spans of workspace (n, cap - 1) unchanged
    degs = mi.degree_of(n, cap)
    full, lower = mi.product_layers(n, cap), mi.product_layers(n, cap - 1)
    assert len(lower) == len(full) - 1

    def triples(spans):
        return sorted((ra, rb, rc) for ra, pairs in spans for rb, rc in pairs)

    for t, spans in enumerate(lower):
        assert triples(spans) == [x for x in triples(full[t]) if degs[x[2]] < cap]
    assert all(degs[rc] == cap for _, pairs in full[cap] for _, rc in pairs)


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
    size, exps = mi.size(n, cap), mi.exponents(n, cap)
    a = [(7 * r) % 5 - 2 for r in range(size)]
    b = [(3 * r) % 7 - 3 for r in range(size)]
    x, y = Jet._from_nums(n, cap, tuple(a), 1, cap), Jet._from_nums(n, cap, tuple(b), 1, cap)
    product = x * y
    assert_same(product, ref_mul(x, y))
    assert product.den == 1
    whole = product.nums
    for t, spans in enumerate(mi.product_layers(n, cap)):
        out = [0] * size
        _mul_layer(spans, a, b, -3, out)
        assert out == [-3 * c if sum(exps[r][:1]) == t else 0 for r, c in enumerate(whole)]


# ---------------------------------------------------------------------------
# product sums: one reduction of sum c * a * b against the Fraction kernel


def ref_product_sum(terms) -> Jet:
    """The sum of c * a * b by `ref_mul`, `ref_scale` and `ref_add`, one
    reduced jet per product and per partial sum."""
    total = None
    for c, a, b in terms:
        term = ref_scale(ref_mul(a, b), Fraction(c))
        total = term if total is None else ref_add(total, term)
    return total


@SETTINGS
@given(st.data())
def test_product_sum_matches_fraction_kernel(data):
    n, cap = data.draw(workspaces(max_size=126, least_n=0))
    terms = [
        (
            data.draw(st.sampled_from([1, -1, 3, -3])),
            data.draw(jets_in(n, cap)),
            data.draw(jets_in(n, cap)),
        )
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    assert_same(product_sum(terms), ref_product_sum(terms))


@pytest.mark.parametrize("n, cap", [(0, 2), (1, 5), (2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_product_sum_over_denominators_that_differ_between_terms(n, cap, count):
    # the factors of term i have denominators 2^i and 3 * 5^i, so L // (a.den
    # * b.den) differs from term to term; valid orders differ too
    rng = random.Random(10 * n + cap + 100 * count)

    def jet(den):
        coeffs = [Fraction(rng.randint(-9, 9), den) for _ in range(mi.size(n, cap))]
        coeffs[0] = Fraction(1, den)  # so den is the jet's denominator
        return Jet(n, cap, coeffs, rng.randint(0, cap))

    for _ in range(4):
        terms = [
            (rng.choice([1, -1, 3, -3]), jet(2**i), jet(3 * 5**i)) for i in range(1, count + 1)
        ]
        assert len({a.den * b.den for _, a, b in terms}) == count
        assert_same(product_sum(terms), ref_product_sum(terms))
        # a sum in which the first product cancels: the denominator reduces
        c, a, b = terms[0]
        cancelled = terms + [(-c, b, a)]
        assert_same(product_sum(cancelled), ref_product_sum(cancelled))


def test_product_sum_reduces_the_sum_once():
    # 1/6 + 1/6 + 1/3 is 4 over L = 6: only the sum reduces, to 2/3
    n, cap = 2, 3
    half, third = Jet.constant(Fraction(1, 2), n, cap), Jet.constant(Fraction(1, 3), n, cap)
    two_thirds = Jet.constant(Fraction(2, 3), n, cap)
    got = product_sum([(1, half, third), (1, half, third), (1, two_thirds, half)])
    assert_same(got, Jet.constant(Fraction(2, 3), n, cap))
    assert got.den == 3
    zero = product_sum([(1, half, third), (-1, third, half)])
    assert zero.den == 1 and not any(zero.nums)


def test_an_empty_product_sum_raises_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(jets_module, "_mul_layer", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="empty product sum"):
        product_sum([])
    with pytest.raises(ValueError, match="empty product sum"):
        product_sum(iter(()))
    assert calls == []


# ---------------------------------------------------------------------------
# the one accumulation: products, linear and derivative terms to a cap k


def ref_truncated(jet: Jet, k: int) -> Jet:
    """The Fraction coefficients of degree <= k as a jet of cap k."""
    return Jet(jet.n, k, jet.coeffs[: mi.size(jet.n, k)], min(jet.valid_order, k))


def ref_accumulation(products, linear, derivatives, k: int) -> Jet:
    """The sum of c * a * b, c * a and c * d/dx^axis a by `ref_mul`,
    `ref_partial`, `ref_scale` and `ref_add`, each term composed in its
    operands' workspace (a product in the lesser of its factors' caps) and
    truncated to k."""
    terms = []
    for c, a, b in products:
        m = min(a.max_degree, b.max_degree)
        terms.append((c, ref_mul(ref_truncated(a, m), ref_truncated(b, m))))
    terms += [(c, a) for c, a in linear]
    terms += [(c, ref_partial(a, axis)) for c, a, axis in derivatives]
    total = None
    for c, jet in terms:
        term = ref_scale(ref_truncated(jet, k), Fraction(c))
        total = term if total is None else ref_add(total, term)
    return total


@st.composite
def accumulations(draw):
    """(products, linear, derivatives, k): up to three terms of each kind,
    at least one term, on jets in n variables whose caps are D or drawn from
    k..D, with denominators and valid orders below the cap."""
    n, cap = draw(workspaces(max_size=84))
    k = draw(st.integers(0, cap))
    coefficient = st.sampled_from([1, -1, 2, -3])

    def operand():
        return draw(jets_in(n, draw(st.sampled_from([cap, cap, draw(st.integers(k, cap))]))))

    def count():
        return range(draw(st.integers(0, 3)))

    products = [(draw(coefficient), operand(), operand()) for _ in count()]
    linear = [(draw(coefficient), operand()) for _ in count()]
    derivatives = [(draw(coefficient), operand(), draw(st.integers(1, n))) for _ in count()]
    if not products + linear + derivatives:
        linear.append((1, operand()))
    return products, linear, derivatives, k


def _example_jet(n: int, cap: int, seed: int, den: int, valid: int) -> Jet:
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-9, 9), den) for _ in range(mi.size(n, cap))]
    return Jet(n, cap, coeffs, valid)


_A, _B, _C = (_example_jet(2, 3, seed, den, 2) for seed, den in ((1, 6), (2, 35), (3, 4)))
# the products, the derivatives and the linear terms cancel: the zero jet, den 1
_CANCELLING = ([(1, _A, _B), (-1, _B, _A)], [(3, _C), (-3, _C)], [(2, _A, 1), (-2, _A, 1)], 2)
# a derivative at k = D reads the coefficients of degree D and leaves degree D zero
_DERIVATIVE_AT_D = ([], [(1, _C)], [(1, _A, 2), (-1, _B, 1)], 3)
_CAP_0 = ([(1, _A, _C)], [(2, _B)], [(1, _C, 1)], 0)


@SETTINGS
@given(case=accumulations())
@example(case=_CANCELLING)
@example(case=_DERIVATIVE_AT_D)
@example(case=_CAP_0)
def test_accumulation_matches_the_composed_fraction_kernel(case):
    products, linear, derivatives, k = case
    got = product_sum(products, linear, derivatives, cap=k)
    assert_same(got, ref_accumulation(products, linear, derivatives, k))
    operands = [a for _, a, *_ in products + linear + derivatives]
    operands += [b for _, _, b in products]
    if {a.max_degree for a in operands} == {k}:
        # no cap: the operands' own, which they share
        assert_same(product_sum(products, linear, derivatives), got)


_ONE = Jet.one(2, 3)


@pytest.mark.parametrize(
    "terms, error, message",
    [
        ({"linear": [(1, _ONE), (1, Jet.one(3, 3))]}, DimensionMismatchError, r"\(2,3\) vs \(3,3\)"),
        ({"linear": [(1, _ONE), (1, Jet.one(2, 1))], "cap": 2}, ValueError, "cap 2 outside 0..1"),
        ({"derivatives": [(1, _ONE, 3)], "cap": 2}, DimensionMismatchError, "axis 3 outside 1..2"),
        ({"derivatives": [(1, _ONE, 1)], "cap": 4}, ValueError, "cap 4 outside 0..3"),
        ({"products": [(1, _ONE, Jet.one(2, 4))]}, DimensionMismatchError, r"\(2,3\) vs \(2,4\)"),
    ],
    ids=["other-n", "cap-above-an-operand", "bad-axis", "cap-above-d", "no-cap-two-caps"],
)
def test_an_accumulation_with_a_bad_operand_raises_before_any_work(
    monkeypatch, terms, error, message
):
    calls = []
    monkeypatch.setattr(jets_module, "_mul_layer", lambda *args: calls.append(args))
    monkeypatch.setattr(mi, "partial_map", lambda *args: calls.append(args))
    with pytest.raises(error, match=message):
        product_sum(**terms)
    assert calls == []


@pytest.mark.parametrize("position", ["first", "second"])
def test_a_factor_of_another_workspace_raises_before_any_work(monkeypatch, position):
    # the odd factor sits in the last term, so every term is checked first;
    # the error is Jet.__mul__'s
    a, b = Jet.one(2, 3), Jet.variable(1, 2, 3)
    odd = Jet.one(2, 4)
    last = (1, odd, b) if position == "first" else (1, a, odd)
    with pytest.raises(DimensionMismatchError) as mul_error:
        last[1] * last[2]
    calls = []
    monkeypatch.setattr(jets_module, "_mul_layer", lambda *args: calls.append(args))
    with pytest.raises(DimensionMismatchError) as sum_error:
        product_sum([(1, a, b), (3, b, a), last])
    assert calls == []
    assert type(sum_error.value) is type(mul_error.value)
    with pytest.raises(DimensionMismatchError, match=r"\(2,3\) vs \(2,4\)"):
        product_sum([(1, a, odd)])


@pytest.mark.parametrize(
    "n, cap", [(1, 1), (2, 1), (1, 4), (2, 3), (2, 6), (3, 1), (3, 4), (4, 2)]
)
def test_row_layer_to_degree_d_minus_1_is_the_full_layer_below_d(n, cap):
    # a rest's layer formed to cap - 1: every coefficient of degree < cap as
    # the full layer's, no position at degree cap, the same denominator; the
    # full layer is the whole sum's layer
    rng = random.Random(100 * n + cap)
    keys = "abcde"

    def jet():
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])) for _ in range(mi.size(n, cap))
        ]
        return Jet(n, cap, coeffs, rng.randint(0, cap))

    tops = 0
    for _ in range(6):
        table = {key: jet() for key in keys}
        # drawn in the order of a row's atoms: linear, derivative, product
        linear = [(rng.randint(-3, 3), table[rng.choice(keys)]) for _ in range(2)]
        derivatives = [
            (rng.randint(-3, 3), table[rng.choice(keys)], rng.randint(1, n)) for _ in range(3)
        ]
        products = [
            (rng.randint(-3, 3), table[rng.choice(keys)], table[rng.choice(keys)]) for _ in range(3)
        ]
        terms = (products, linear, derivatives)
        whole, whole_den, whole_valid = _accumulate(n, *terms, cap)
        for t in range(cap):
            full, den, valid = _accumulate(n, *terms, cap, t)
            assert (full, den, valid) == (
                [whole[r] for r in mi.x1_layers(n, cap)[t]], whole_den, whole_valid
            )
            lower, lower_den, lower_valid = _accumulate(n, *terms, cap - 1, t)
            assert lower_den == den
            assert lower_valid == min(valid, cap - 1)
            # the positions of degree < cap lead layer t, in the same order
            below = [r for r in mi.x1_layers(n, cap)[t] if mi.degree_of(n, cap)[r] < cap]
            assert len(lower) == len(below) == len(mi.x1_layers(n, cap - 1)[t])
            assert lower == full[: len(lower)]
            tops += sum(1 for v in full[len(lower):] if v)
    # the full layers do hold coefficients at degree cap, but at n = 1,
    # where layer t < cap is the one monomial x1^t
    assert bool(tops) == (n > 1)


@SETTINGS
@given(case=accumulations())
@example(case=_CANCELLING)
@example(case=_DERIVATIVE_AT_D)
@example(case=_CAP_0)
def test_each_layer_of_the_accumulation_is_the_whole_sum_on_that_layer(case):
    # at every layer t <= k, layer t of the sum formed to k holds the same
    # rationals as `product_sum(..., cap=k)` on layer t, over the whole sum's
    # unreduced denominator, with its valid order; x1-derivatives read layer
    # t + 1 of their operands
    products, linear, derivatives, k = case
    want = product_sum(products, linear, derivatives, cap=k)
    n = want.n
    _, whole_den, _ = _accumulate(n, products, linear, derivatives, k)
    for t, ranks in enumerate(mi.x1_layers(n, k)):
        nums, den, valid = _accumulate(n, products, linear, derivatives, k, t)
        assert (den, valid) == (whole_den, want.valid_order)
        assert [Fraction(v, den) for v in nums] == [want.coeffs[r] for r in ranks]


# the index maps of the one accumulation: no other module of the package
# may read them, so no second accumulation grows outside `jets`
ACCUMULATION_MAPS = {"_mul_layer", "product_rows", "product_layers", "partial_layers", "partial_map"}


def test_only_jets_and_multiindex_read_the_accumulation_maps():
    package = Path(jets_module.__file__).parent
    readers = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                {node.id} if isinstance(node, ast.Name)
                else {node.attr} if isinstance(node, ast.Attribute)
                else {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                else set()
            )
            for name in names & ACCUMULATION_MAPS:
                readers.setdefault(name, set()).add(path.name)
    assert set(readers) == ACCUMULATION_MAPS
    assert set().union(*readers.values()) == {"jets.py", "multiindex.py"}


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
