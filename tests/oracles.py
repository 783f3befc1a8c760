"""Independent oracles used by the test suite.

Everything here deliberately avoids the production code paths it checks:
convolution is a naive double loop over term dictionaries, the CK oracles run
the classical coefficient-extraction recursion instead of the Picard fixpoint,
and the sequential elimination follows the ordered-substitution procedure.
`ref_linear_solve` solves the determined symbols by one full-size jet
elimination per evaluation, on the builders' own gap rows: it checks the
layered solve of those rows, not the rows. `_row_sum` evaluates a
`builders._Row` in full, where the builders evaluate it one x1-layer at a
time. `ref_nabla_g` forms all n^3 components of nabla g with 2 n^4
products. `ref_metric_2d_h` solves the metric-2d equation as one
second-order system by Picard rounds, with the closed-form Ric_11 of a
diagonal 2D metric (`_ricci_11_diagonal_2d`, also the reference of
`geometry.sectional_curvature_2d`) and full-size reciprocals at every
evaluation.
The closed-form Christoffel symbols of a diagonal 2D metric check the general
Levi-Civita elimination. The Fraction jet kernel (one Fraction per stored
coefficient, the product through the product_rank dictionary, Newton
reciprocal, Horner exp) is the reference for the integer kernel of
jetgeom.jets, and the Fraction jet serialization (`int` on each key part,
`Fraction` on each coefficient) for the integer writer and reader of
jetgeom.serialize.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

from jetgeom import Connection, Jet, Metric
from jetgeom import multiindex as mi
from jetgeom.builders import _codazzi_gap, _codazzi_spec, _signed
from jetgeom.ck import SecondOrderSystem, solve_second_order
from jetgeom.errors import DimensionMismatchError
from jetgeom.geometry import CubicForm, _gauss_jordan, _sum_jets

HALF = Fraction(1, 2)


def term_dict(jet: Jet) -> dict[tuple[int, ...], Fraction]:
    return dict(jet.terms())


def add_oracle(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def conv_oracle(a: dict, b: dict, cap: int) -> dict:
    """Brute-force truncated Cauchy product of term dictionaries."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if sum(exps) <= cap:
                out[exps] = out.get(exps, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def jet_matches_terms(jet: Jet, terms: dict, order: int) -> bool:
    for exps in mi.exponents(jet.n, jet.max_degree):
        if sum(exps) <= order and jet.coefficient(exps) != terms.get(exps, Fraction(0)):
            return False
    return True


def x1_part(jet: Jet, m: int) -> Jet:
    """Only the monomials with x1-exponent exactly m."""
    exps = mi.exponents(jet.n, jet.max_degree)
    coeffs = [c if exps[r][0] == m else Fraction(0) for r, c in enumerate(jet.coeffs)]
    return Jet(jet.n, jet.max_degree, coeffs, jet.max_degree)


def extract_first_order(labels, rhs, initial, cap: int) -> dict[str, Jet]:
    """Classical recursion (k+1) u_{k+1} = [x1-degree-k part of H]; the x1
    shift is done by multiplying with the coordinate function, not by the
    production antiderivative."""
    current = {lab: initial[lab].promote() for lab in labels}
    n = next(iter(current.values())).n
    x1 = Jet.variable(1, n, cap)
    for k in range(cap):
        values = rhs(dict(current))
        for lab in labels:
            part = x1_part(values[lab], k)
            current[lab] = current[lab] + (x1 * part).scale(Fraction(1, k + 1))
    return current

def extract_second_order(labels, rhs, initial, initial_deriv, cap: int) -> dict[str, Jet]:
    """(k+2)(k+1) u_{k+2} = [x1-degree-k part of H]."""
    current = {}
    n = initial[labels[0]].ambient_n
    x1 = Jet.variable(1, n, cap)
    for lab in labels:
        current[lab] = initial[lab].promote() + x1 * initial_deriv[lab].promote()
    for k in range(cap - 1):
        values = rhs(dict(current))
        for lab in labels:
            part = x1_part(values[lab], k)
            bump = (x1 * x1 * part).scale(Fraction(1, (k + 1) * (k + 2)))
            current[lab] = current[lab] + bump
    return current


def exp_series_jet(n: int, cap: int, rate: int) -> Jet:
    """Taylor coefficients of exp(rate * x1)."""
    return Jet.from_terms(
        n,
        cap,
        {
            tuple([k] + [0] * (n - 1)): Fraction(rate**k, factorial(k))
            for k in range(cap + 1)
        },
    )


def cosine_series_jet(cap: int) -> Jet:
    terms = {}
    for k in range(0, cap + 1, 2):
        terms[(k,)] = Fraction((-1) ** (k // 2), factorial(k))
    return Jet.from_terms(1, cap, terms)


def binomial_half(k: int) -> Fraction:
    """Binomial coefficient C(1/2, k) as an exact rational."""
    num = Fraction(1)
    top = Fraction(1, 2)
    for i in range(k):
        num *= (top - i) / (i + 1)
    return num


def sqrt_one_plus_x1_jet(n: int, cap: int) -> Jet:
    """Binomial series of (1 + x1)^(1/2)."""
    return Jet.from_terms(
        n,
        cap,
        {tuple([k] + [0] * (n - 1)): binomial_half(k) for k in range(cap + 1)},
    )


def log_one_plus_x1_jet(n: int, cap: int) -> Jet:
    terms = {tuple([k] + [0] * (n - 1)): Fraction((-1) ** (k + 1), k) for k in range(1, cap + 1)}
    return Jet.from_terms(n, cap, terms)


def full_codazzi_check(nabla_g_form, order: int) -> bool:
    """All-permutations total-symmetry check on a cubic form."""
    n = nabla_g_form.n
    from itertools import permutations

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                base = nabla_g_form.comp(i, j, k)
                for p in permutations((i, j, k)):
                    if not (nabla_g_form.comp(*p) - base).is_zero_up_to(order):
                        return False
    return True


def ref_nabla_g(conn: Connection, g: Metric) -> CubicForm:
    """(nabla g)_ijk = (g_jk)_i - sum_l G^l_ij g_lk - sum_l G^l_ik g_jl on every
    (i, j, k): 2 n^4 jet products."""
    n = conn.n
    rng = range(1, n + 1)
    out = {}
    for i in rng:
        for j in rng:
            for k in rng:
                out[(i, j, k)] = (
                    g.comp(j, k).partial(i)
                    - _sum_jets(conn.gamma[(l, i, j)] * g.comp(l, k) for l in rng)
                    - _sum_jets(conn.gamma[(l, i, k)] * g.comp(j, l) for l in rng)
                )
    return CubicForm(n, out)


def _row_sum(row, table, pulled=frozenset()):
    """The full-size sum of a `builders._Row`'s atoms on the table, leaving
    out the products whose first key is in pulled; and for each pulled key,
    its coefficient jet."""
    terms = [_signed(c, table[key]) for c, key in row.linear]
    terms += [_signed(c, table[key].partial(ax)) for c, key, ax in row.derivatives]
    coeffs: dict = {}
    for c, x, y in row.products:
        if x in pulled:
            coeffs.setdefault(x, []).append(_signed(c, table[y]))
        else:
            terms.append(_signed(c, table[x] * table[y]))
    return _sum_jets(terms), {key: _sum_jets(jets) for key, jets in coeffs.items()}


def ref_linear_solve(keys, rows, table) -> dict:
    """The keys solving rows that are linear in them, on a table holding every
    other entry in full: the rows evaluated by `_row_sum` with the keys
    pulled out, and one Gauss-Jordan elimination of the full-size jet
    matrix, per evaluation."""
    pulled = set(keys)
    some = next(iter(table.values()))
    zero = Jet.zero(some.n, some.max_degree)
    matrix = []
    for row in rows:
        rest, coeffs = _row_sum(row, table, pulled)
        matrix.append([coeffs.get(key, zero) for key in keys] + [-rest])
    return {key: row[-1] for key, row in zip(keys, _gauss_jordan(matrix))}


def ref_determined_christoffels(n, cap, gtable, free_gammas, determined_keys) -> dict:
    """The determined Christoffel symbols from the algebraic Codazzi gaps on
    the full tables, by `ref_linear_solve`."""
    rows = [_codazzi_gap(*gap, n, True) for gap in _codazzi_spec(n).gaps]
    return ref_linear_solve(determined_keys, rows, {**gtable, **free_gammas})


def _ricci_11_diagonal_2d(g11: Jet, g22: Jet, i11: Jet, i22: Jet, g22_11: Jet) -> Jet:
    """Ric_11 of the Levi-Civita connection of diag(g11, g22), given
    i11 = 1/g11, i22 = 1/g22 and g22_11 = (g22)_11:

        -1/2 i22 [(g11)_22 + (g22)_11] + 1/4 i22^2 [(g22)_2 (g11)_2 + ((g22)_1)^2]
            + 1/4 i11 i22 [(g11)_1 (g22)_1 + ((g11)_2)^2]
    """
    t1 = (i22 * (g11.partial(2).partial(2) + g22_11)).scale(-HALF)
    t2 = (
        i22 * i22 * (g22.partial(2) * g11.partial(2) + g22.partial(1) * g22.partial(1))
    ).scale(Fraction(1, 4))
    t3 = (
        i11 * i22 * (g11.partial(1) * g22.partial(1) + g11.partial(2) * g11.partial(2))
    ).scale(Fraction(1, 4))
    return t1 + t2 + t3


def ref_metric_2d_h(r, phi, psi) -> Jet:
    """The conformal factor h of g = h r with Ric(g) = r for a diagonal 2D r:
    in Ric_11 of diag(w, v) = diag(h r11, h r22) the coefficient of (h)_11 is
    -1/(2h), so (h)_11 is the remaining terms minus r11, times 2h, solved
    from h = phi, (h)_1 = psi on {x1 = 0} by `ck.solve_second_order`."""
    r11, r22 = r.comp(1, 1), r.comp(2, 2)

    def rhs(values):
        h = values["h"]
        w = h * r11
        v = h * r22
        # Ric_11 of diag(w, v) with the h_11 term of (v)_11 removed
        v11_rest = (h.partial(1) * r22.partial(1)).scale(2) + h * r22.partial(1).partial(1)
        remaining = _ricci_11_diagonal_2d(w, v, w.reciprocal(), v.reciprocal(), v11_rest)
        return {"h": (remaining - r11) * h.scale(2)}

    system = SecondOrderSystem(("h",), rhs, {"h": phi}, {"h": psi})
    return solve_second_order(system).values["h"]


def levi_civita_diagonal_2d(g: Metric) -> Connection:
    """Closed-form Christoffel symbols of a diagonal 2D metric."""
    assert g.n == 2 and g.comp(1, 2).is_zero()
    half = Fraction(1, 2)
    g11, g22 = g.comp(1, 1), g.comp(2, 2)
    inv11, inv22 = g11.reciprocal(), g22.reciprocal()
    lower = {
        (1, 1, 1): (inv11 * g11.partial(1)).scale(half),
        (2, 1, 1): (inv22 * g11.partial(2)).scale(-half),
        (1, 1, 2): (inv11 * g11.partial(2)).scale(half),
        (2, 1, 2): (inv22 * g22.partial(1)).scale(half),
        (1, 2, 2): (inv11 * g22.partial(1)).scale(-half),
        (2, 2, 2): (inv22 * g22.partial(2)).scale(half),
    }
    return Connection.from_symmetric(2, lower)


# ---------------------------------------------------------------------------
# the Fraction jet kernel


def _mul_raw(n: int, cap: int, a: tuple, b: tuple) -> list:
    table = mi.product_rank(n, cap)
    out = [Fraction(0)] * len(a)
    for ra, ca in enumerate(a):
        if not ca:
            continue
        for rb, cb in enumerate(b):
            if not cb:
                continue
            rc = table.get((ra, rb))
            if rc is not None:
                out[rc] += ca * cb
    return out


def _like(jet: Jet, coeffs, valid_order: int) -> Jet:
    return Jet(jet.n, jet.max_degree, coeffs, valid_order)


def ref_add(a: Jet, b: Jet) -> Jet:
    return _like(a, [x + y for x, y in zip(a.coeffs, b.coeffs)], min(a.valid_order, b.valid_order))


def ref_sub(a: Jet, b: Jet) -> Jet:
    return _like(a, [x - y for x, y in zip(a.coeffs, b.coeffs)], min(a.valid_order, b.valid_order))


def ref_scale(a: Jet, value: Fraction) -> Jet:
    return _like(a, [value * x for x in a.coeffs], a.valid_order)


def ref_mul(a: Jet, b: Jet) -> Jet:
    out = _mul_raw(a.n, a.max_degree, a.coeffs, b.coeffs)
    return _like(a, out, min(a.valid_order, b.valid_order))


def ref_partial(a: Jet, axis: int) -> Jet:
    coeffs = a.coeffs
    out = [Fraction(0)] * len(coeffs)
    for src, dst, factor in mi.partial_map(a.n, a.max_degree, axis - 1):
        out[dst] = coeffs[src] * factor
    return _like(a, out, max(a.valid_order - 1, 0))


def ref_antiderivative_x1(a: Jet) -> Jet:
    coeffs = a.coeffs
    out = [Fraction(0)] * len(coeffs)
    for src, dst, divisor in mi.antiderivative_x1_map(a.n, a.max_degree):
        out[dst] = coeffs[src] / divisor
    return _like(a, out, min(a.valid_order + 1, a.max_degree))


def ref_reciprocal(a: Jet) -> Jet:
    """Newton iteration inv <- inv (2 - a inv), doubling the correct degrees."""
    n, cap, coeffs = a.n, a.max_degree, a.coeffs
    inv = [Fraction(0)] * len(coeffs)
    inv[0] = 1 / coeffs[0]
    good = 0
    while good < cap:
        prod = _mul_raw(n, cap, coeffs, tuple(inv))
        correction = [-p for p in prod]
        correction[0] += 2
        inv = _mul_raw(n, cap, tuple(inv), tuple(correction))
        good = 2 * good + 1
    return _like(a, inv, a.valid_order)


def ref_exp(a: Jet) -> Jet:
    """Horner: acc <- 1 + a acc / k for k = D, ..., 1."""
    n, cap, coeffs = a.n, a.max_degree, a.coeffs
    acc = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for k in range(cap, 0, -1):
        acc = [c / k for c in _mul_raw(n, cap, coeffs, tuple(acc))]
        acc[0] += 1
    return _like(a, acc, a.valid_order)


# ---------------------------------------------------------------------------
# the Fraction jet serialization


def ref_jet_to_json(jet: Jet) -> dict:
    """Every nonzero coefficient as the text of its Fraction."""
    return {
        "n": jet.n,
        "D": jet.max_degree,
        "valid_order": jet.valid_order,
        "coeffs": {
            " ".join(str(e) for e in exps): f"{c.numerator}/{c.denominator}"
            for exps, c in jet.terms()
        },
    }


def ref_jet_from_json(data: dict) -> Jet:
    """`int` on every key part and `Fraction` on every coefficient without
    whitespace next to `/`, with the checks, their order and their messages
    of `serialize.jet_from_json`."""
    n, cap, valid_order = data["n"], data["D"], data["valid_order"]
    for name, value in (("n", n), ("D", cap)):
        if type(value) is not int:
            raise ValueError(f"jet {name} must be an integer, not {value!r}")
    if valid_order is not None and type(valid_order) is not int:
        raise ValueError(f"jet valid_order must be an integer or null, not {valid_order!r}")
    if mi.exceeds_pair_bound(n, cap):
        raise ValueError(
            f"jet workspace n = {n}, D = {cap} needs more than "
            f"{mi.MAX_PRODUCT_PAIRS} product pairs"
        )
    coeffs = data["coeffs"]
    if not isinstance(coeffs, dict):
        raise ValueError(f"jet coeffs must be an object, not {type(coeffs).__name__}")
    terms = {}
    for key, value in coeffs.items():
        exps = tuple(int(v) for v in key.split()) if key.strip() else ()
        if not isinstance(value, str):
            raise ValueError(f"coefficient {value!r} is not a string")
        if re.search(r"\s/|/\s", value):  # Fraction reads these from Python 3.12 on
            raise ValueError(f"coefficient {value!r} has whitespace next to '/'")
        terms[exps] = Fraction(value)
    ranks = mi.rank_of(n, cap)
    coeffs = [Fraction(0)] * len(ranks)
    for exps, c in terms.items():
        if exps not in ranks:
            raise DimensionMismatchError(
                f"monomial {exps} does not fit workspace n={n}, cap={cap}"
            )
        coeffs[ranks[exps]] = c
    v = cap if valid_order is None else valid_order
    if not 0 <= v <= cap:
        raise ValueError(f"valid_order {v} outside 0..{cap}")
    return Jet(n, cap, coeffs, v)
