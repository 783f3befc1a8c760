"""Independent oracles used by the test suite.

Everything here deliberately avoids the production code paths it checks:
convolution is a naive double loop over term dictionaries, the CK oracles run
the classical coefficient-extraction recursion instead of the Picard fixpoint,
and the sequential elimination follows the ordered-substitution procedure.
`ref_linear_solve` solves the determined symbols by one full-size jet
elimination per evaluation (`ref_gauss_jordan`, with a jet reciprocal per
pivot and every product formed), on the builders' own gap rows: it checks
the layered solve of those rows, not the rows. `ref_gauss_jordan` is also
the reference of `geometry.metric_inverse`, which solves by degree against
the constant matrix and runs no jet elimination. `_row_sum` evaluates a
`builders._Row` in full, where the builders evaluate it one x1-layer at a
time. `ref_nabla_g` forms all n^3 components of nabla g with 2 n^4
products, and `ref_ricci` every (i, j) of the Ricci tensor, term by term.
`ref_ricci_terms` keeps the n^2 + n quadratic products of each Ricci
component whose k = i terms cancel, which `geometry` no longer forms, and
`ref_uncancelled_ricci` sums them as `geometry` summed them before.
`ref_metric_2d_h` solves the metric-2d equation as one
second-order system by Picard rounds, with the closed-form Ric_11 of a
diagonal 2D metric (`_ricci_11_diagonal_2d`, also the reference of
`geometry.sectional_curvature_2d`) and full-size reciprocals at every
evaluation.
The closed-form Christoffel symbols of a diagonal 2D metric check the general
Levi-Civita connection. `RefChart` is a polynomial change of coordinates
y = phi(x) on the Fraction kernel: composition with phi, the Jacobian J and
its inverse by a Neumann series, and the pullbacks of a bilinear form and
of a connection, which the covariance tests hold `geometry` to. The
Fraction jet kernel (one Fraction per stored coefficient, the product
through the product_rank dictionary, Newton
reciprocal, Horner exp, the radial homotopy) is the reference for the
integer kernel of jetgeom.jets, and the Fraction jet serialization (`int`
on each key part, `Fraction` on each coefficient) for the integer writer
and reader of jetgeom.serialize; the report's JSON tree
(`ref_report_to_json`), one jet at a time, for the one-pass text writer
`serialize.report_text`. `ref_product_rows` builds each pair of the pair
table by adding exponent tuples and looking the sum up, row by row, for
`multiindex.product_rows`, which adds integer codes.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from fractions import Fraction
from math import factorial

from jetgeom import Connection, Jet, Metric, SliceJet
from jetgeom import multiindex as mi
from jetgeom.builders import _codazzi_gap, _codazzi_spec
from jetgeom.ck import SecondOrderSystem, solve_second_order
from jetgeom.errors import DimensionMismatchError, SingularJetError
from jetgeom.geometry import CubicForm
from jetgeom.jets import product_sum

HALF = Fraction(1, 2)


def _sum_jets(jets) -> Jet:
    """The sum of the jets, one `Jet.__add__` at a time."""
    total = None
    for j in jets:
        total = j if total is None else total + j
    if total is None:
        raise ValueError("empty jet sum")
    return total


def _signed(c: int, jet: Jet) -> Jet:
    return jet if c == 1 else -jet if c == -1 else jet.scale(c)


def ref_gauss_jordan(rows: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan elimination, in place, of a square jet matrix augmented by
    extra columns, with every product formed: the pivot of each column is the
    first remaining row whose entry has a nonzero constant term, its row is
    multiplied by the pivot's reciprocal, and each other row with a nonzero
    entry in the column loses that entry times the pivot row."""
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col].nums[0]), None)
        if pivot is None:
            raise SingularJetError("jet matrix not invertible at the origin")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].reciprocal()
        rows[col] = [entry * inv for entry in rows[col]]
        for r in range(size):
            if r != col:
                factor = rows[r][col]
                if not factor.is_zero():
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


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


def ref_ricci(conn: Connection) -> dict:
    """Ric_ij = sum_k [(G^k_ij)_k - (G^k_kj)_i]
               - sum_{k,l} [G^l_kj G^k_il - G^l_ij G^k_kl]
    on every (i, j), each sum written out term by term (no divergence form,
    no symmetry shortcut)."""
    rng = range(1, conn.n + 1)
    g = conn.gamma
    out = {}
    for i in rng:
        for j in rng:
            deriv = _sum_jets(g[(k, i, j)].partial(k) - g[(k, k, j)].partial(i) for k in rng)
            quad = _sum_jets(
                g[(l, k, j)] * g[(k, i, l)] - g[(l, i, j)] * g[(k, k, l)]
                for k in rng
                for l in rng
            )
            out[(i, j)] = deriv - quad
    return out


def ref_ricci_terms(conn: Connection, div, i: int, j: int) -> tuple[list, list]:
    """The uncancelled quadratic and derivative terms of Ric_ij, as
    `jets.product_sum` takes them: the n^2 + n products of -L_ij = sum_l
    G^l_ij D_l - sum_{k,l} G^l_kj G^k_il, with div[l] = D_l = sum_k G^k_kl,
    the k = i products of the two sums included, and sum_k (G^k_ij)_k -
    (D_j)_i."""
    rng = range(1, conn.n + 1)
    g = conn.gamma
    quad = [(-1, g[(l, k, j)], g[(k, i, l)]) for k in rng for l in rng]
    quad += [(1, g[(l, i, j)], div[l]) for l in rng]
    return quad, [(1, g[(k, i, j)], k) for k in rng] + [(-1, div[j], i)]


def ref_uncancelled_ricci(conn: Connection, order=None) -> tuple[dict, dict, dict]:
    """The derivative part, L and Ric of every (i, j), each one
    `jets.product_sum` of the terms of `ref_ricci_terms` with no symmetry
    shortcut: Ric formed to degree order, the other two in full. It checks
    the cancellation of the k = i products in `geometry`, not the
    accumulation."""
    rng, g = range(1, conn.n + 1), conn.gamma
    div = {l: product_sum(linear=[(1, g[(k, k, l)]) for k in rng]) for l in rng}
    deriv, lam, ric = {}, {}, {}
    for i in rng:
        for j in rng:
            quad, derivatives = ref_ricci_terms(conn, div, i, j)
            deriv[(i, j)] = product_sum(derivatives=derivatives)
            lam[(i, j)] = product_sum((-c, a, b) for c, a, b in quad)
            ric[(i, j)] = product_sum(quad, derivatives=derivatives, cap=order)
    return deriv, lam, ric


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
    return {key: row[-1] for key, row in zip(keys, ref_gauss_jordan(matrix))}


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


def ref_radial_homotopy(jet: Jet, axis: int, denom_shift: int, numer: int = 1) -> Jet:
    """Push every degree-m monomial up by x^axis with weight numer/(m+denom_shift),
    one Fraction per coefficient."""
    n, cap = jet.n, jet.max_degree
    ranks = mi.rank_of(n, cap)
    out = [Fraction(0)] * mi.size(n, cap)
    for e, c in jet.terms():
        m = sum(e)
        if m + 1 > cap:
            continue
        target = list(e)
        target[axis - 1] += 1
        out[ranks[tuple(target)]] += c * Fraction(numer, m + denom_shift)
    return Jet(n, cap, out, min(jet.valid_order + 1, cap))


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
# polynomial changes of coordinates on the Fraction kernel


def _ref_sum(jets) -> Jet:
    """The sum of the jets, one Fraction sum per coefficient."""
    jets = list(jets)
    coeffs = [sum(column) for column in zip(*(jet.coeffs for jet in jets))]
    return _like(jets[0], coeffs, min(jet.valid_order for jet in jets))


def ref_composition(phi: list[Jet]):
    """The map f -> f o phi on jets of phi's workspace, for the polynomial
    map y = phi(x) of components phi[0..n-1] with phi(0) = 0: sum_e f_e phi^e,
    each monomial phi^e formed once by `ref_mul`. phi has no constant term,
    so a coefficient of f of degree m reaches only degrees >= m, and f o phi
    is valid to f's valid order."""
    n, cap = phi[0].n, phi[0].max_degree
    if any(p.nums[0] for p in phi):
        raise ValueError("phi(0) != 0")
    exps, ranks = mi.exponents(n, cap), mi.rank_of(n, cap)
    monomials = [Jet.one(n, cap)]
    for e in exps[1:]:
        p = next(k for k, x in enumerate(e) if x)
        lower = e[:p] + (e[p] - 1,) + e[p + 1:]
        monomials.append(ref_mul(phi[p], monomials[ranks[lower]]))
    monomials = [monomial.coeffs for monomial in monomials]

    def compose(f: Jet) -> Jet:
        out = [Fraction(0)] * len(exps)
        for c, monomial in zip(f.coeffs, monomials):
            if c:
                for r, x in enumerate(monomial):
                    if x:
                        out[r] += c * x
        return Jet(n, cap, out, f.valid_order)

    return compose


def _fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """The inverse of a square matrix of Fractions, by Gauss-Jordan."""
    m = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(m):
            if r != col:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[m:] for row in rows]


def ref_jacobian(phi: list[Jet]) -> tuple[list[list[Jet]], list[list[Jet]]]:
    """(J, J^-1) of the polynomial map phi: J[p][a] = d phi^p / dx^(a+1),
    exact (phi is a polynomial stored whole), and its inverse by the
    Neumann series sum_k (-K)^k J(0)^-1 with K = J(0)^-1 (J - J(0)), which
    ends at degree D since K has no constant term."""
    n, cap = phi[0].n, phi[0].max_degree
    jac = [[ref_partial(p, a).with_valid_order(cap) for a in range(1, n + 1)] for p in phi]
    c0 = _fraction_inverse([[entry.coeffs[0] for entry in row] for row in jac])
    const = [[Jet.constant(x, n, cap) for x in row] for row in c0]

    def matmul(a, b):
        return [
            [_ref_sum(ref_mul(a[i][k], b[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    shifted = [
        [ref_sub(entry, Jet.constant(entry.coeffs[0], n, cap)) for entry in row] for row in jac
    ]
    minus_k = [[ref_scale(entry, Fraction(-1)) for entry in row] for row in matmul(const, shifted)]
    term, inverse = const, const
    for _ in range(cap):
        term = matmul(minus_k, term)
        inverse = [[ref_add(a, b) for a, b in zip(x, y)] for x, y in zip(inverse, term)]
    return jac, inverse


class RefChart:
    """The polynomial change of coordinates y = phi(x), phi(0) = 0 and J(0)
    invertible, and the pullbacks by it, on the Fraction kernel:
    `ref_composition` and `ref_jacobian`, each formed once."""

    def __init__(self, phi: list[Jet]):
        self.n, self.cap = len(phi), phi[0].max_degree
        self.compose = ref_composition(phi)
        self.jac, self.inverse = ref_jacobian(phi)

    def _contracted(self, composed: dict) -> dict:
        """sum_{p,q} J^p_a J^q_b composed[(*head, p, q)] at every (*head, a,
        b), the sum over p first, J the first factor of each product."""
        rng, jac = range(1, self.n + 1), self.jac
        heads = {key[:-2] for key in composed}
        half = {
            (*h, a, q): _ref_sum(ref_mul(jac[p - 1][a - 1], composed[(*h, p, q)]) for p in rng)
            for h in heads
            for a in rng
            for q in rng
        }
        return {
            (*h, a, b): _ref_sum(ref_mul(jac[q - 1][b - 1], half[(*h, a, q)]) for q in rng)
            for h in heads
            for a in rng
            for b in rng
        }

    def bilinear(self, comps: dict) -> dict:
        """(B o phi)(J., J.): B'_ab = sum_{p,q} J^p_a J^q_b (B_pq o phi)."""
        return self._contracted({key: self.compose(jet) for key, jet in comps.items()})

    def connection(self, conn: Connection) -> Connection:
        """phi*nabla in the x coordinates, with G^k_ij the coefficient of d_k
        in nabla_(d_i) d_j as `geometry.ricci` reads it: nabla'_(d_a) d_b =
        nabla_(J d_a) (J d_b), so

            G'^c_ab = (J^-1)^c_r [d_a d_b phi^r + sum_{p,q} J^p_a J^q_b (G^r_pq o phi)],

        valid to the least valid order of the table (J, J^-1 and d^2 phi are
        exact). A symmetric table gives a symmetric one, one jet per mirror
        pair as `Connection.from_symmetric` gives it."""
        rng = range(1, self.n + 1)
        tensor = self._contracted({key: self.compose(jet) for key, jet in conn.gamma.items()})
        inner = {
            (r, a, b): ref_add(
                ref_partial(self.jac[r - 1][a - 1], b).with_valid_order(self.cap), jet
            )
            for (r, a, b), jet in tensor.items()
        }
        gamma = {
            (c, a, b): _ref_sum(ref_mul(self.inverse[c - 1][r - 1], inner[(r, a, b)]) for r in rng)
            for c in rng
            for a in rng
            for b in rng
        }
        if conn.symmetric:
            return Connection.from_symmetric(self.n, gamma)
        return Connection(self.n, gamma)


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


def ref_random_poly(
    seed: int, n: int, degree_bound: int, coeff_bound: int, max_degree: int
) -> Jet:
    """One `random.Random(seed).randint(-coeff_bound, coeff_bound)` per
    monomial of degree <= degree_bound, in rank order."""
    rng = random.Random(seed)
    degs = mi.degree_of(n, max_degree)
    coeffs = [
        rng.randint(-coeff_bound, coeff_bound) if degs[r] <= degree_bound else 0
        for r in range(mi.size(n, max_degree))
    ]
    return Jet(n, max_degree, coeffs, max_degree)


def ref_typed_to_json(value) -> dict:
    """A report value as {"type": tag, "value": its JSON}, every jet of it
    by `ref_jet_to_json`, mirror entries each on their own."""
    if isinstance(value, Jet):
        return {"type": "jet", "value": ref_jet_to_json(value)}
    if isinstance(value, SliceJet):
        return {"type": "slice", "value": ref_slice_to_json(value)}
    if isinstance(value, Connection):
        gamma = {f"{k};{i},{j}": ref_jet_to_json(jet) for (k, i, j), jet in value.gamma.items()}
        payload = {"n": value.n, "symmetric": value.symmetric, "gamma": gamma}
        return {"type": "connection", "value": payload}
    comps = {f"{i},{j}": ref_jet_to_json(jet) for (i, j), jet in value.comps.items()}
    tag = "metric" if isinstance(value, Metric) else "bilinear"
    return {"type": tag, "value": {"n": value.n, "comps": comps}}


def ref_slice_to_json(sl: SliceJet) -> dict:
    return {"ambient_n": sl.ambient_n, "jet": ref_jet_to_json(sl.jet)}


def ref_report_to_json(report) -> dict:
    """The JSON tree of a build report, the reference of
    `serialize.report_text` through `canonical_dumps`, which sorts its keys."""
    fd = report.free_data
    return {
        "construction": report.construction,
        "n": report.n,
        "D": report.max_degree,
        "prescribed": {k: ref_typed_to_json(v) for k, v in report.prescribed.items()},
        "free_data": None if fd is None else {
            "free_functions": {k: ref_jet_to_json(j) for k, j in fd.free_functions.items()},
            "initial_slices": {k: ref_slice_to_json(s) for k, s in fd.initial_slices.items()},
            "gauge_function": None
            if fd.gauge_function is None
            else ref_jet_to_json(fd.gauge_function),
        },
        "outputs": {k: ref_typed_to_json(v) for k, v in report.outputs.items()},
        "checks": [
            {"name": c.name, "zero_to_order": c.order, "passed": c.passed}
            for c in report.checks
        ],
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


def ref_product_rows(n: int, cap: int) -> tuple:
    """`multiindex.product_rows` by exponent tuples: row ra lists the rbs of
    degree <= cap - deg ra by x1-exponent, each with the rank of the summed
    exponent tuple."""
    exps, ranks, degs = mi.exponents(n, cap), mi.rank_of(n, cap), mi.degree_of(n, cap)
    return tuple(
        tuple(
            (rb, ranks[tuple(x + y for x, y in zip(ea, exps[rb]))])
            for rb in sorted(
                range(bisect_right(degs, cap - degs[ra])), key=lambda rb: exps[rb][:1]
            )
        )
        for ra, ea in enumerate(exps)
    )
