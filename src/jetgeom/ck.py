"""Degree-by-degree Picard solvers for Cauchy-Kowalevski systems at jet level.

A first-order system prescribes d/dx1 of each unknown as an evaluator of the
current unknown values; the evaluator may consume the unknowns themselves and
their derivatives along axes 2..n, never along x1 (it may do anything with
closed-over known data). The second-order variant prescribes d2/dx1^2 and may
additionally consume first x1-derivatives and mixed second derivatives with at
least one axis >= 2. Nothing checks the derivative contract statically: a
violation surfaces as a StabilizationError because the iteration then fails to
become stationary x1-degree by x1-degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import EvaluationError, StabilizationError
from .jets import Jet, SliceJet

RHSEvaluator = Callable[[dict[str, Jet]], Mapping[str, Jet]]


def _validate_labels(labels, initial, *more_tables):
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("unknown labels must be distinct")
    for table in (initial, *more_tables):
        if set(table) != set(labels):
            raise ValueError("initial-data labels must match the unknown labels")
    shapes = {
        (sl.ambient_n, sl.max_degree) for table in (initial, *more_tables) for sl in table.values()
    }
    if len(shapes) > 1:
        raise ValueError("initial slices disagree on workspace shape")
    return labels


@dataclass(frozen=True)
class FirstOrderSystem:
    """Unknowns U with (U^i)_1 = rhs(U)^i and U^i = initial^i on {x1 = 0}."""

    labels: tuple[str, ...]
    rhs: RHSEvaluator
    initial: Mapping[str, SliceJet]

    def __post_init__(self):
        object.__setattr__(self, "labels", _validate_labels(self.labels, self.initial))


@dataclass(frozen=True)
class SecondOrderSystem:
    """Unknowns U with (U^i)_11 = rhs(U)^i, U^i = initial^i and
    (U^i)_1 = initial_deriv^i on {x1 = 0}."""

    labels: tuple[str, ...]
    rhs: RHSEvaluator
    initial: Mapping[str, SliceJet]
    initial_deriv: Mapping[str, SliceJet]

    def __post_init__(self):
        object.__setattr__(
            self, "labels", _validate_labels(self.labels, self.initial, self.initial_deriv)
        )


@dataclass(frozen=True)
class CKSolution:
    values: dict[str, Jet]
    valid_order: int


def _call_rhs(system, current: dict[str, Jet], step: int) -> dict[str, Jet]:
    try:
        values = dict(system.rhs(dict(current)))
    except Exception as err:
        raise EvaluationError(
            f"right-hand side failed at Picard iteration {step}: {err}"
        ) from err
    if set(values) != set(system.labels):
        raise EvaluationError(
            f"right-hand side returned labels {sorted(values)} at iteration {step}, "
            f"expected {sorted(system.labels)}"
        )
    return values


def _picard(system, base: dict[str, Jet], integrate, forbidden: str) -> CKSolution:
    """Iterate U <- base + integrate(rhs(U)).

    Iteration t freezes every coefficient with x1-exponent <= t, so after
    cap + 1 rounds the full workspace is stationary and equals the truncation
    of the unique analytic solution.
    """
    cap = next(iter(base.values())).max_degree
    current = dict(base)
    for step in range(1, cap + 2):
        values = _call_rhs(system, current, step)
        nxt = {lab: base[lab] + integrate(values[lab]) for lab in system.labels}
        for lab in system.labels:
            if not nxt[lab].eq_on_x1_up_to(current[lab], step - 1):
                raise StabilizationError(
                    f"unknown {lab!r} changed on x1-degrees <= {step - 1} at "
                    f"iteration {step}; the evaluator consumes a forbidden "
                    f"{forbidden}"
                )
        current = nxt
    # the recursion determines degree-t coefficients from degree-(t-1) data,
    # so the solution carries the full workspace order, not the pessimistic
    # minimum that mechanical propagation through the evaluator would report
    final = {lab: jet.with_valid_order(cap) for lab, jet in current.items()}
    return CKSolution(final, cap)


def solve_first_order(system: FirstOrderSystem) -> CKSolution:
    """Iterate U <- initial + integral_x1 rhs(U)."""
    base = {lab: system.initial[lab].promote() for lab in system.labels}
    return _picard(system, base, lambda jet: jet.antiderivative_x1(), "x1-derivative")


def solve_second_order(system: SecondOrderSystem) -> CKSolution:
    """Iterate U <- initial + x1 * initial_deriv + double integral of rhs(U)."""
    phi = {lab: system.initial[lab].promote() for lab in system.labels}
    cap = next(iter(phi.values())).max_degree
    n = next(iter(phi.values())).n
    x1 = Jet.variable(1, n, cap)
    base = {
        lab: phi[lab] + x1 * system.initial_deriv[lab].promote()
        for lab in system.labels
    }
    return _picard(
        system, base, lambda jet: jet.antiderivative_x1().antiderivative_x1(), "derivative"
    )


def _residual(system, solution: CKSolution, differentiate) -> dict[str, Jet]:
    values = _call_rhs(system, dict(solution.values), -1)
    return {
        lab: differentiate(solution.values[lab]) - values[lab] for lab in system.labels
    }


def residual_first_order(system: FirstOrderSystem, solution: CKSolution) -> dict[str, Jet]:
    """d/dx1 of each solution jet minus the evaluator on the solution."""
    return _residual(system, solution, lambda jet: jet.partial(1))


def residual_second_order(system: SecondOrderSystem, solution: CKSolution) -> dict[str, Jet]:
    return _residual(system, solution, lambda jet: jet.partial(1).partial(1))
