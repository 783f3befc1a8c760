"""Jet arithmetic: spec examples, oracle comparisons, ring laws, validity."""

import random
from fractions import Fraction

import pytest

from jetgeom import (
    ConstantTermError,
    DimensionMismatchError,
    Jet,
    SingularJetError,
    SliceJet,
    random_poly,
)
from oracles import add_oracle, conv_oracle, jet_matches_terms, ref_random_poly, term_dict


def j2(terms, cap=4, valid=None):
    return Jet.from_terms(2, cap, terms, valid_order=valid)


# ---------------------------------------------------------------------------
# add / sub / scale


def test_add_simple():
    a = j2({(0, 0): 1, (1, 0): 1})
    b = j2({(0, 1): 1})
    assert (a + b).eq_up_to(j2({(0, 0): 1, (1, 0): 1, (0, 1): 1}), 4)
    assert (a + b).valid_order == 4


def test_add_zero_identity():
    a = random_poly(5, 2, 3, 4, 4)
    assert (a + Jet.zero(2, 4)).eq_up_to(a, 4)


def test_add_random_vs_termwise_oracle():
    for seed in range(40):
        a = random_poly(seed, 2, 3, 5, 4)
        b = random_poly(seed + 1000, 2, 3, 5, 4)
        want = add_oracle(term_dict(a), term_dict(b))
        assert jet_matches_terms(a + b, want, 4)


def test_scale_and_sub():
    a = j2({(1, 0): 2, (0, 1): -3})
    assert a.scale(Fraction(1, 2)).eq_up_to(j2({(1, 0): 1, (0, 1): Fraction(-3, 2)}), 4)
    assert (a - a).is_zero_up_to(4)


def test_valid_order_min_rule():
    a = j2({(1, 0): 1}, valid=2)
    b = j2({(0, 1): 1}, valid=3)
    assert (a + b).valid_order == 2
    assert (a * b).valid_order == 2


def test_eq_up_to_reads_a_jet_of_another_cap_to_an_order_both_hold():
    # the ranks of degree <= order agree in (2, 2) and (2, 4); the numerators
    # are compared cross-multiplied over different denominators
    long = j2({(0, 0): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 3): Fraction(5, 7)})
    short = Jet.from_terms(2, 2, {(0, 0): Fraction(3, 6), (1, 0): Fraction(4, 6)})
    assert long.den != short.den
    assert long.eq_up_to(short, 2) and short.eq_up_to(long, 2)
    off = Jet.from_terms(2, 2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(5, 7)})
    assert long.eq_up_to(off, 0) and not long.eq_up_to(off, 1)
    with pytest.raises(DimensionMismatchError, match=r"\(2,4\) vs \(2,2\)"):
        long.eq_up_to(short, 3)
    with pytest.raises(DimensionMismatchError):
        Jet.zero(3, 4).eq_up_to(Jet.zero(2, 4), 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        j2({}) + Jet.zero(3, 4)
    with pytest.raises(DimensionMismatchError):
        j2({}) * Jet.zero(2, 5)


# ---------------------------------------------------------------------------
# mul


def test_mul_difference_of_squares():
    a = j2({(0, 0): 1, (1, 0): 1})
    b = j2({(0, 0): 1, (1, 0): -1})
    assert (a * b).eq_up_to(j2({(0, 0): 1, (2, 0): -1}), 4)


def test_mul_square_of_sum():
    s = j2({(1, 0): 1, (0, 1): 1})
    assert (s * s).eq_up_to(j2({(2, 0): 1, (1, 1): 2, (0, 2): 1}), 4)


def test_mul_random_vs_convolution_oracle():
    for seed in range(60):
        a = random_poly(seed, 2, 4, 5, 4)
        b = random_poly(seed + 500, 2, 4, 5, 4)
        want = conv_oracle(term_dict(a), term_dict(b), 4)
        assert jet_matches_terms(a * b, want, 4)


def test_mul_all_monomial_pairs():
    cap = 4
    from jetgeom import multiindex as mi

    exps = mi.exponents(2, cap)
    for ea in exps:
        for eb in exps:
            if sum(ea) + sum(eb) > cap:
                continue
            prod = Jet.from_terms(2, cap, {ea: 1}) * Jet.from_terms(2, cap, {eb: 1})
            want = tuple(x + y for x, y in zip(ea, eb))
            assert jet_matches_terms(prod, {want: Fraction(1)}, cap)


# ---------------------------------------------------------------------------
# partial / antiderivative


def test_partial_product_rule_example():
    a = j2({(1, 1): 1})
    assert a.partial(1).eq_up_to(j2({(0, 1): 1}), 3)


def test_partial_of_constant():
    assert Jet.constant(7, 2, 4).partial(1).is_zero_up_to(3)


def test_partial_commutation():
    for seed in range(20):
        a = random_poly(seed, 3, 4, 4, 4)
        left = a.partial(1).partial(2)
        right = a.partial(2).partial(1)
        assert left.eq_up_to(right, a.valid_order - 2)


def test_partial_bad_axis():
    with pytest.raises(DimensionMismatchError):
        j2({}).partial(3)


def test_antiderivative_examples():
    x1 = Jet.variable(1, 2, 4)
    assert x1.antiderivative_x1().eq_up_to(j2({(2, 0): Fraction(1, 2)}), 4)
    assert Jet.zero(2, 4).antiderivative_x1().is_zero_up_to(4)


def test_antiderivative_round_trip():
    for seed in range(20):
        a = random_poly(seed, 2, 3, 4, 4)
        back = a.antiderivative_x1().partial(1)
        assert back.eq_up_to(a, min(a.valid_order, a.max_degree - 1))


def test_partial_and_antiderivative_valid_orders():
    a = j2({(1, 0): 1}, valid=3)
    assert a.partial(1).valid_order == 2
    assert a.antiderivative_x1().valid_order == 4
    assert a.antiderivative_x1().antiderivative_x1().valid_order == 4


# ---------------------------------------------------------------------------
# reciprocal / exp


def test_reciprocal_geometric_series():
    a = Jet.from_terms(1, 3, {(0,): 1, (1,): -1})
    want = Jet.from_terms(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    assert a.reciprocal().eq_up_to(want, 3)


def test_reciprocal_of_constant():
    assert Jet.constant(2, 2, 4).reciprocal().eq_up_to(
        Jet.constant(Fraction(1, 2), 2, 4), 4
    )


def test_reciprocal_multiply_back():
    for seed in range(20):
        a = random_poly(seed, 2, 3, 4, 4)
        a = Jet.from_terms(2, 4, {**term_dict(a), (0, 0): 1})  # force a(0) = 1
        prod = a * a.reciprocal()
        assert prod.eq_up_to(Jet.one(2, 4), a.valid_order)


def test_reciprocal_singular():
    with pytest.raises(SingularJetError):
        Jet.variable(1, 2, 4).reciprocal()


def test_exp_series():
    x = Jet.variable(1, 1, 3)
    want = Jet.from_terms(
        1, 3, {(0,): 1, (1,): 1, (2,): Fraction(1, 2), (3,): Fraction(1, 6)}
    )
    assert x.exp().eq_up_to(want, 3)


def test_exp_zero():
    assert Jet.zero(2, 4).exp().eq_up_to(Jet.one(2, 4), 4)


def test_exp_inverse_law():
    for seed in range(10):
        a = random_poly(seed, 2, 3, 3, 4)
        a = Jet.from_terms(2, 4, {e: c for e, c in term_dict(a).items() if sum(e) > 0})
        prod = a.exp() * (-a).exp()
        assert prod.eq_up_to(Jet.one(2, 4), a.valid_order)


def test_exp_nonzero_constant_rejected():
    with pytest.raises(ConstantTermError):
        Jet.one(2, 4).exp()


# ---------------------------------------------------------------------------
# restrict / promote


def test_restrict_drops_x1():
    a = j2({(1, 0): 1, (0, 1): 1})
    sl = a.restrict_x1()
    assert sl.jet.eq_up_to(Jet.variable(1, 1, 4), 4)


def test_promote_is_x1_free():
    sl = SliceJet(Jet.variable(1, 1, 4))
    assert sl.promote().partial(1).is_zero_up_to(3)
    assert sl.promote().eq_up_to(Jet.variable(2, 2, 4), 4)


def test_restrict_promote_round_trip():
    for seed in range(10):
        sl = SliceJet(random_poly(seed, 2, 3, 4, 4))
        assert sl.promote().restrict_x1().same_payload(sl)


# ---------------------------------------------------------------------------
# random_poly


def test_random_poly_deterministic():
    a = random_poly(42, 3, 3, 5, 4)
    b = random_poly(42, 3, 3, 5, 4)
    assert a.same_payload(b)


def test_random_poly_zero_bound():
    assert random_poly(42, 2, 3, 0, 4).is_zero_up_to(4)


def test_random_poly_seeds_differ():
    a = random_poly(1, 2, 3, 5, 4)
    b = random_poly(2, 2, 3, 5, 4)
    assert not a.eq_up_to(b, 4)


# ---------------------------------------------------------------------------
# ring laws and validity propagation


def test_ring_laws():
    rng = random.Random(7)
    for _ in range(120):
        seeds = [rng.randrange(10**6) for _ in range(3)]
        a, b, c = (random_poly(s, 2, 3, 4, 4) for s in seeds)
        v = min(a.valid_order, b.valid_order, c.valid_order)
        assert ((a * b) * c).eq_up_to(a * (b * c), v)
        assert (a * b).eq_up_to(b * a, v)
        assert (a * (b + c)).eq_up_to(a * b + a * c, v)
        assert ((a + b) + c).eq_up_to(a + (b + c), v)


def test_validity_propagation_under_larger_workspace():
    # recomputing in a larger workspace and truncating reproduces everything
    # up to the advertised valid order
    for seed in range(10):
        lo, hi = 4, 6
        a_terms = term_dict(random_poly(seed, 2, 3, 4, lo))
        b_terms = term_dict(random_poly(seed + 99, 2, 3, 4, lo))
        results = {}
        for cap in (lo, hi):
            a = Jet.from_terms(2, cap, a_terms)
            b = Jet.from_terms(2, cap, b_terms)
            zero_const = {e: c for e, c in a_terms.items() if sum(e) > 0}
            results[cap] = {
                "mul": a * b,
                "partial": a.partial(1),
                "antideriv": a.antiderivative_x1(),
                "recip": Jet.from_terms(2, cap, {**a_terms, (0, 0): 1}).reciprocal(),
                "exp": Jet.from_terms(2, cap, zero_const).exp(),
            }
        for op, low in results[lo].items():
            assert jet_matches_terms(low, term_dict(results[hi][op]), low.valid_order)


def test_equality_ignores_beyond_valid_garbage():
    a = j2({(0, 0): 1, (3, 0): 5}, valid=2)
    b = j2({(0, 0): 1, (3, 0): -7}, valid=2)
    assert a == b
    assert not a.same_payload(b)


def test_serialization_key_example():
    # a jet's terms iterator surfaces exactly the stored nonzero terms
    a = j2({(1, 0): Fraction(1, 3)})
    assert dict(a.terms()) == {(1, 0): Fraction(1, 3)}


def test_random_poly_draws_as_the_randint_loop():
    # the same stream: n = 0..4, every degree bound 0..D, bounds 0..5, many seeds
    for n in range(5):
        cap = 4 if n < 3 else 2
        for degree in range(cap + 1):
            for bound in range(6):
                for seed in range(0, 2**32, 2**32 // 20 + 1):
                    want = ref_random_poly(seed, n, degree, bound, cap)
                    assert random_poly(seed, n, degree, bound, cap).same_payload(want)


@pytest.mark.parametrize("n, cap", [(0, 0), (1, 3), (3, 2)])
def test_random_poly_edges(n, cap):
    # a negative degree bound draws nothing, whatever the coefficient bound
    for bound in (-3, -1, 0, 2):
        assert random_poly(1, n, -1, bound, cap).is_zero()
    # a negative coefficient bound raises whenever a coefficient is drawn
    for bound in (-1, -2, -7):
        with pytest.raises(ValueError):
            random_poly(1, n, 0, bound, cap)
        with pytest.raises(ValueError):
            ref_random_poly(1, n, 0, bound, cap)
