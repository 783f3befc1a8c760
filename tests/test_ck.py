"""CK solvers: closed forms, extraction-oracle comparisons, contracts."""

import pytest

from jetgeom import (
    EvaluationError,
    FirstOrderSystem,
    Jet,
    SecondOrderSystem,
    SliceJet,
    StabilizationError,
    random_slice,
    residual_first_order,
    residual_second_order,
    solve_first_order,
    solve_second_order,
)
from oracles import (
    cosine_series_jet,
    exp_series_jet,
    extract_first_order,
    extract_second_order,
)


def const_slice(value, ambient_n, cap):
    return SliceJet(Jet.constant(value, ambient_n - 1, cap))


def test_exponential_closed_form():
    cap = 8
    system = FirstOrderSystem(
        ("u",), lambda u: {"u": u["u"]}, {"u": const_slice(1, 1, cap)}
    )
    sol = solve_first_order(system)
    assert sol.values["u"].eq_up_to(exp_series_jet(1, cap, 1), cap)
    assert sol.valid_order == cap


def test_transport_closed_form():
    cap = 8
    system = FirstOrderSystem(
        ("u",),
        lambda u: {"u": u["u"].partial(2)},
        {"u": SliceJet(Jet.variable(1, 1, cap))},
    )
    sol = solve_first_order(system)
    want = Jet.variable(1, 2, cap) + Jet.variable(2, 2, cap)
    assert sol.values["u"].eq_up_to(want, cap)


def test_cosine_closed_form():
    cap = 8
    system = SecondOrderSystem(
        ("u",),
        lambda u: {"u": -u["u"]},
        {"u": const_slice(1, 1, cap)},
        {"u": const_slice(0, 1, cap)},
    )
    sol = solve_second_order(system)
    assert sol.values["u"].eq_up_to(cosine_series_jet(cap), cap)


def test_second_order_zero_rhs():
    cap = 6
    phi = random_slice(3, 2, 3, 3, cap)
    psi = random_slice(4, 2, 3, 3, cap)
    system = SecondOrderSystem(
        ("u",),
        lambda u: {"u": Jet.zero(2, cap)},
        {"u": phi},
        {"u": psi},
    )
    sol = solve_second_order(system)
    want = phi.promote() + Jet.variable(1, 2, cap) * psi.promote()
    assert sol.values["u"].eq_up_to(want, cap)


def test_nonlinear_first_order_vs_extraction_oracle():
    cap = 6
    rhs = lambda u: {"u": u["u"] * u["u"].partial(2)}
    initial = {"u": SliceJet(Jet.variable(1, 1, cap))}
    system = FirstOrderSystem(("u",), rhs, initial)
    sol = solve_first_order(system)
    oracle = extract_first_order(("u",), rhs, initial, cap)
    assert sol.values["u"].eq_up_to(oracle["u"], cap)


def test_nonlinear_second_order_vs_extraction_oracle():
    cap = 6
    rhs = lambda u: {"u": u["u"] * u["u"].partial(2).partial(2)}
    initial = {"u": random_slice(11, 2, 3, 2, cap)}
    initial_deriv = {"u": random_slice(12, 2, 3, 2, cap)}
    system = SecondOrderSystem(("u",), rhs, initial, initial_deriv)
    sol = solve_second_order(system)
    oracle = extract_second_order(("u",), rhs, initial, initial_deriv, cap)
    assert sol.values["u"].eq_up_to(oracle["u"], cap)


def test_coupled_system_determinism():
    cap = 5
    rhs = lambda u: {"a": u["b"].partial(2), "b": u["a"] * u["b"]}
    initial = {"a": random_slice(1, 2, 3, 2, cap), "b": random_slice(2, 2, 3, 2, cap)}
    system = FirstOrderSystem(("a", "b"), rhs, initial)
    s1 = solve_first_order(system)
    s2 = solve_first_order(system)
    assert s1.values["a"].same_payload(s2.values["a"])
    assert s1.values["b"].same_payload(s2.values["b"])


def test_initial_data_fidelity():
    cap = 5
    phi = random_slice(7, 2, 3, 3, cap)
    psi = random_slice(8, 2, 3, 3, cap)
    system = SecondOrderSystem(
        ("u",),
        lambda u: {"u": u["u"] + u["u"].partial(2)},
        {"u": phi},
        {"u": psi},
    )
    sol = solve_second_order(system)
    assert sol.values["u"].restrict_x1().same_payload(phi)
    deriv_slice = sol.values["u"].partial(1).restrict_x1()
    assert deriv_slice.jet.eq_up_to(psi.jet, cap - 1)


def test_residual_of_solution_vanishes():
    cap = 6
    rhs = lambda u: {"u": u["u"] * u["u"].partial(2)}
    system = FirstOrderSystem(
        ("u",), rhs, {"u": SliceJet(Jet.variable(1, 1, cap))}
    )
    sol = solve_first_order(system)
    res = residual_first_order(system, sol)
    assert res["u"].is_zero_up_to(cap - 1)


def test_residual_detects_perturbation():
    cap = 4
    rhs = lambda u: {"u": u["u"]}
    system = FirstOrderSystem(("u",), rhs, {"u": const_slice(1, 1, cap)})
    sol = solve_first_order(system)
    coeffs = list(sol.values["u"].coeffs)
    coeffs[2] += 1
    from jetgeom.ck import CKSolution

    bad = CKSolution({"u": Jet(1, cap, coeffs, cap)}, cap)
    res = residual_first_order(system, bad)
    assert not res["u"].is_zero_up_to(cap - 1)


def test_residual_of_exact_polynomial_solution():
    # u = x1 + x2 solves (u)_1 = (u)_2; check at the full workspace order
    cap = 4
    rhs = lambda u: {"u": u["u"].partial(2)}
    system = FirstOrderSystem(
        ("u",), rhs, {"u": SliceJet(Jet.variable(1, 1, cap))}
    )
    from jetgeom.ck import CKSolution

    exact = Jet.variable(1, 2, cap) + Jet.variable(2, 2, cap)
    res = residual_first_order(system, CKSolution({"u": exact}, cap))
    assert res["u"].is_zero_up_to(cap)


def test_second_order_residual_vanishes():
    cap = 6
    rhs = lambda u: {"u": u["u"] * u["u"].partial(2).partial(2) + u["u"].partial(1)}
    system = SecondOrderSystem(
        ("u",),
        rhs,
        {"u": random_slice(21, 2, 2, 2, cap)},
        {"u": random_slice(22, 2, 2, 2, cap)},
    )
    sol = solve_second_order(system)
    res = residual_second_order(system, sol)
    assert res["u"].is_zero_up_to(cap - 2)


def test_forbidden_x1_derivative_detected():
    cap = 4
    # (u)_1 = (u)_1 + 1 has no solution; the illegal x1-derivative keeps the
    # Picard iterates drifting and the stabilization guard fires
    rhs = lambda u: {"u": u["u"].partial(1) + Jet.one(2, cap)}
    system = FirstOrderSystem(("u",), rhs, {"u": SliceJet(Jet.variable(1, 1, cap))})
    with pytest.raises(StabilizationError, match="forbidden x1-derivative$"):
        solve_first_order(system)


def test_forbidden_second_x1_derivative_detected():
    cap = 4
    # (u)_11 = (u)_11 + 1 has no solution either; the second-order message
    # names a forbidden derivative, since first x1-derivatives are allowed
    rhs = lambda u: {"u": u["u"].partial(1).partial(1) + Jet.one(2, cap)}
    start = SliceJet(Jet.variable(1, 1, cap))
    system = SecondOrderSystem(("u",), rhs, {"u": start}, {"u": start})
    with pytest.raises(StabilizationError, match="forbidden derivative$"):
        solve_second_order(system)


def test_evaluator_exception_carries_context():
    cap = 4

    def rhs(u):
        return {"u": u["u"].reciprocal()}  # singular: u(0) = 0

    system = FirstOrderSystem(("u",), rhs, {"u": SliceJet(Jet.variable(1, 1, cap))})
    with pytest.raises(EvaluationError, match="iteration"):
        solve_first_order(system)


def test_missing_label_rejected():
    cap = 4
    system = FirstOrderSystem(
        ("u",), lambda u: {"wrong": u["u"]}, {"u": const_slice(1, 1, cap)}
    )
    with pytest.raises(EvaluationError):
        solve_first_order(system)
