"""Tensor calculus at jet level: connections, Ricci tensors, torsion, metrics,
Levi-Civita connections, the cubic form of a metric under a connection, and
the radial-homotopy primitives behind the Poincare lemma.

Index conventions are 1-based throughout, matching coordinates x1..xn.
All closedness/primitive statements are raw coefficient identities, so no
exterior-derivative normalization convention enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import multiindex as mi
from .errors import (
    DimensionMismatchError,
    NotClosedError,
    RejectionError,
    SingularJetError,
)
from .jets import Jet, ZERO

HALF = Fraction(1, 2)


def _sum_jets(jets: Iterable[Jet]) -> Jet:
    total = None
    for j in jets:
        total = j if total is None else total + j
    if total is None:
        raise ValueError("empty jet sum")
    return total


def _common_shape(jets: Iterable[Jet]) -> tuple[int, int]:
    shapes = {(j.n, j.max_degree) for j in jets}
    if len(shapes) != 1:
        raise DimensionMismatchError(f"inconsistent workspaces: {sorted(shapes)}")
    return shapes.pop()


# ---------------------------------------------------------------------------
# component containers


class Connection:
    """Christoffel-symbol table gamma[(k, i, j)] of a linear connection,
    where k is the upper index; optionally symmetric in (i, j)."""

    def __init__(self, n: int, gamma: Mapping[tuple[int, int, int], Jet], symmetric: bool = False):
        # the count first: a huge declared n fails before any key set is built
        rng = range(1, n + 1)
        if len(gamma) != n**3 or set(gamma) != {(k, i, j) for k in rng for i in rng for j in rng}:
            raise DimensionMismatchError("incomplete Christoffel table")
        _common_shape(gamma.values())
        self.n = n
        self.gamma = dict(gamma)
        self.symmetric = symmetric
        if symmetric and not self.is_symmetric_table():
            raise DimensionMismatchError("table marked symmetric but gamma[k;i,j] != gamma[k;j,i]")

    @classmethod
    def from_symmetric(cls, n: int, lower_triangle: Mapping[tuple, Jet]) -> "Connection":
        """Build a symmetric connection from entries keyed (k, i, j) with
        i <= j; other keys are ignored."""
        gamma = {}
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    jet = lower_triangle[(k, i, j)]
                    gamma[(k, i, j)] = jet
                    gamma[(k, j, i)] = jet
        return cls(n, gamma, symmetric=True)

    @classmethod
    def zero(cls, n: int, max_degree: int, symmetric: bool = True) -> "Connection":
        z = Jet.zero(n, max_degree)
        gamma = {
            (k, i, j): z
            for k in range(1, n + 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        return cls(n, gamma, symmetric=symmetric)

    @property
    def shape(self) -> tuple[int, int]:
        return _common_shape(self.gamma.values())

    def is_symmetric_table(self) -> bool:
        return all(
            self.gamma[(k, i, j)].same_coeffs(self.gamma[(k, j, i)])
            for k in range(1, self.n + 1)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


class Bilinear:
    """A (0,2)-tensor component table comps[(i, j)]."""

    def __init__(self, n: int, comps: Mapping[tuple[int, int], Jet]):
        rng = range(1, n + 1)
        if len(comps) != n * n or set(comps) != {(i, j) for i in rng for j in rng}:
            raise DimensionMismatchError("incomplete bilinear table")
        _common_shape(comps.values())
        self.n = n
        self.comps = dict(comps)

    @classmethod
    def zero(cls, n: int, max_degree: int) -> "Bilinear":
        z = Jet.zero(n, max_degree)
        return cls(n, {(i, j): z for i in range(1, n + 1) for j in range(1, n + 1)})

    @property
    def shape(self) -> tuple[int, int]:
        return _common_shape(self.comps.values())

    def comp(self, i: int, j: int) -> Jet:
        return self.comps[(i, j)]

    def is_symmetric_table(self) -> bool:
        return all(
            self.comps[(i, j)].same_coeffs(self.comps[(j, i)])
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


class OneForm:
    def __init__(self, n: int, comps: Mapping[int, Jet]):
        if set(comps) != set(range(1, n + 1)):
            raise DimensionMismatchError("incomplete 1-form table")
        _common_shape(comps.values())
        self.n = n
        self.comps = dict(comps)

    def comp(self, i: int) -> Jet:
        return self.comps[i]

    @property
    def shape(self) -> tuple[int, int]:
        return _common_shape(self.comps.values())

    def min_valid(self) -> int:
        return min(j.valid_order for j in self.comps.values())


class TwoForm:
    """Antisymmetric (0,2)-tensor; stores the strict upper triangle."""

    def __init__(self, n: int, upper: Mapping[tuple[int, int], Jet]):
        keys = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        if set(upper) != keys:
            raise DimensionMismatchError("incomplete 2-form table (need i < j keys)")
        if keys:
            _common_shape(upper.values())
        self.n = n
        self.upper = dict(upper)

    def comp(self, i: int, j: int) -> Jet:
        if i < j:
            return self.upper[(i, j)]
        if i > j:
            return -self.upper[(j, i)]
        n, cap = self.shape
        return Jet.zero(n, cap)

    @property
    def shape(self) -> tuple[int, int]:
        if self.upper:
            return _common_shape(self.upper.values())
        raise DimensionMismatchError("empty 2-form has no shape")

    def min_valid(self) -> int:
        if not self.upper:
            return 0
        return min(j.valid_order for j in self.upper.values())

    def is_zero_up_to(self, order: int) -> bool:
        return all(j.is_zero_up_to(order) for j in self.upper.values())


class CubicForm:
    def __init__(self, n: int, comps: Mapping[tuple[int, int, int], Jet]):
        keys = {
            (i, j, k)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
        }
        if set(comps) != keys:
            raise DimensionMismatchError("incomplete cubic-form table")
        _common_shape(comps.values())
        self.n = n
        self.comps = dict(comps)

    def comp(self, i: int, j: int, k: int) -> Jet:
        return self.comps[(i, j, k)]


class Metric(Bilinear):
    """Symmetric (0,2)-tensor with invertible constant-term matrix."""

    def __init__(self, n: int, comps: Mapping[tuple[int, int], Jet]):
        full = dict(comps)
        if len(full) < n * (n + 1) // 2:
            raise DimensionMismatchError("incomplete bilinear table")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) in full and (j, i) not in full:
                    full[(j, i)] = full[(i, j)]
                elif (j, i) in full and (i, j) not in full:
                    full[(i, j)] = full[(j, i)]
        super().__init__(n, full)
        if not self.is_symmetric_table():
            raise DimensionMismatchError("metric table is not symmetric")
        # the constant terms as degree-0 jets: invertible iff the elimination runs
        const = [
            [Jet.constant(self.comps[(i, j)].constant_term, n, 0) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        try:
            _gauss_jordan(const)
        except SingularJetError:
            raise SingularJetError("metric constant-term matrix is singular") from None
        self.normalized_at_zero = all(
            self.comps[(i, j)].constant_term == (1 if i == j else 0)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )

    @classmethod
    def identity(cls, n: int, max_degree: int) -> "Metric":
        one = Jet.one(n, max_degree)
        zero = Jet.zero(n, max_degree)
        return cls(
            n,
            {
                (i, j): (one if i == j else zero)
                for i in range(1, n + 1)
                for j in range(i, n + 1)
            },
        )


# ---------------------------------------------------------------------------
# curvature machinery


def divergence_form(conn: Connection) -> OneForm:
    """The 1-form D_j = sum_k gamma[k;k,j] (divergence of the coordinate fields)."""
    rng = range(1, conn.n + 1)
    return OneForm(
        conn.n, {j: _sum_jets(conn.gamma[(k, k, j)] for k in rng) for j in rng}
    )


def _truncated(table: Mapping, order: int | None) -> Mapping:
    """The table with every jet truncated to order (`Jet.truncate`); None
    gives the table itself."""
    if order is None:
        return table
    return {key: jet.truncate(order) for key, jet in table.items()}


def ricci(conn: Connection, order: int | None = None) -> Bilinear:
    """Ricci tensor of a connection from its Christoffel symbols, as
    ricci_derivative_part - lambda_term:

        Ric_ij = sum_k [(G^k_ij)_k - (G^k_kj)_i]
                 + sum_{k,l} [G^l_ij G^k_kl - G^l_kj G^k_il]

    With an order k (0..D), the partials are taken at the cap D and truncated
    to k, and every product is formed at cap k: the result lives in workspace
    (n, k) and is the full one truncated to k."""
    deriv = _truncated(ricci_derivative_part(conn).comps, order)
    if order is not None:
        conn = Connection(conn.n, _truncated(conn.gamma, order), conn.symmetric)
    lam = lambda_term(conn).comps
    return Bilinear(conn.n, {key: deriv[key] - lam[key] for key in deriv})


def ricci_derivative_part(conn: Connection) -> Bilinear:
    """Only the derivative terms sum_k [(G^k_ij)_k - (G^k_kj)_i]."""
    n = conn.n
    rng = range(1, n + 1)
    g = conn.gamma
    div = divergence_form(conn)
    return Bilinear(
        n,
        {
            (i, j): _sum_jets(g[(k, i, j)].partial(k) for k in rng)
            - div.comp(j).partial(i)
            for i in rng
            for j in rng
        },
    )


def lambda_term(conn: Connection) -> Bilinear:
    """Quadratic Christoffel contraction
    L_ij = sum_{k,l} [G^l_kj G^k_il - G^l_ij G^k_kl], so
    ricci = ricci_derivative_part - lambda_term."""
    n = conn.n
    rng = range(1, n + 1)
    g = conn.gamma
    div = divergence_form(conn)
    out = {}
    for i in rng:
        for j in rng:
            quad2 = _sum_jets(g[(l, k, j)] * g[(k, i, l)] for k in rng for l in rng)
            quad1 = _sum_jets(g[(l, i, j)] * div.comp(l) for l in rng)
            out[(i, j)] = quad2 - quad1
    return Bilinear(n, out)


def torsion(conn: Connection) -> dict[tuple[int, int, int], Jet]:
    """T^k_ij = G^k_ij - G^k_ji."""
    rng = range(1, conn.n + 1)
    return {
        (k, i, j): conn.gamma[(k, i, j)] - conn.gamma[(k, j, i)]
        for k in rng
        for i in rng
        for j in rng
    }


def torsion_trace(conn: Connection) -> OneForm:
    """tau_j = sum_i (G^i_ij - G^i_ji)."""
    rng = range(1, conn.n + 1)
    return OneForm(
        conn.n,
        {
            j: _sum_jets(conn.gamma[(i, i, j)] - conn.gamma[(i, j, i)] for i in rng)
            for j in rng
        },
    )


def split(b: Bilinear) -> tuple[Bilinear, TwoForm]:
    """Symmetric / antisymmetric decomposition b = s + a (coefficient-exact)."""
    n = b.n
    rng = range(1, n + 1)
    sym = {}
    for i in rng:
        for j in rng:
            if i <= j:
                s = (b.comp(i, j) + b.comp(j, i)).scale(HALF)
                sym[(i, j)] = s
                sym[(j, i)] = s
    upper = {
        (i, j): (b.comp(i, j) - b.comp(j, i)).scale(HALF)
        for i in rng
        for j in rng
        if i < j
    }
    return Bilinear(n, sym), TwoForm(n, upper)


def two_form_closed(a: TwoForm, order: int) -> bool:
    """True iff (a_ij)_k + (a_jk)_i + (a_ki)_j = 0 up to total degree `order`
    for all i < j < k (vacuously true when n = 2)."""
    n = a.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                cyc = (
                    a.comp(i, j).partial(k)
                    + a.comp(j, k).partial(i)
                    + a.comp(k, i).partial(j)
                )
                if not cyc.is_zero_up_to(order):
                    return False
    return True


def _radial_homotopy(jet: Jet, axis: int, denom_shift: int, numer: int = 1) -> Jet:
    """Push every degree-m monomial up by x^axis with weight numer/(m+denom_shift)."""
    n, cap = jet.n, jet.max_degree
    ranks = mi.rank_of(n, cap)
    out = [ZERO] * mi.size(n, cap)
    for e, c in jet.terms():
        m = sum(e)
        if m + 1 > cap:
            continue
        target = list(e)
        target[axis - 1] += 1
        out[ranks[tuple(target)]] += c * Fraction(numer, m + denom_shift)
    return Jet(n, cap, out, min(jet.valid_order + 1, cap))


def primitive_of_two_form(a: TwoForm) -> OneForm:
    """A 1-form alpha with (alpha_i)_j - (alpha_j)_i = 2 a_ij, by the radial
    homotopy (a degree-m monomial of a contributes with weight 2/(m+2))."""
    n, cap = a.shape
    working = max(a.min_valid() - 1, 0)
    if not two_form_closed(a, working):
        raise NotClosedError(f"2-form is not closed up to degree {working}")
    comps = {}
    for i in range(1, n + 1):
        total = Jet.zero(n, cap, valid_order=min(a.min_valid() + 1, cap))
        for j in range(1, n + 1):
            if j != i:
                total = total + _radial_homotopy(a.comp(i, j), j, 2, 2)
        comps[i] = total
    return OneForm(n, comps)


def potential_of_one_form(d: OneForm) -> Jet:
    """A function f with grad f = d and f(0) = 0, by the radial homotopy
    (a degree-m monomial of d contributes with weight 1/(m+1))."""
    n, cap = d.shape
    working = max(d.min_valid() - 1, 0)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gap = d.comp(i).partial(j) - d.comp(j).partial(i)
            if not gap.is_zero_up_to(working):
                raise NotClosedError(f"1-form is not closed up to degree {working}")
    total = Jet.zero(n, cap, valid_order=min(d.min_valid() + 1, cap))
    for k in range(1, n + 1):
        total = total + _radial_homotopy(d.comp(k), k, 1, 1)
    return total


def nabla_g(conn: Connection, g: Metric, order: int | None = None) -> CubicForm:
    """(nabla g)_ijk = (g_jk)_i - A_ijk - A_ikj with A_ijk = sum_l G^l_ij g_lk.

    nabla g is symmetric in (j, k), so only j <= k is formed; on a symmetric
    table A_ijk = A_jik is formed only for i <= j. At n = 4 that is 160 jet
    products on a symmetric table and 256 on a general one.

    With an order k (0..D), the partials are taken at the cap D and truncated
    to k, and every product is formed at cap k: the result lives in workspace
    (n, k) and is the full one truncated to k. Christoffel symbols and metric
    in different workspaces fail as the first untruncated product would."""
    n = conn.n
    rng = range(1, n + 1)
    gamma, comps = conn.gamma, g.comps
    if order is not None and n:
        gamma[(1, 1, 1)]._require_same_shape(comps[(1, 1)])
    gamma, comps = _truncated(gamma, order), _truncated(comps, order)
    a = {}
    for i in rng:
        for j in rng:
            for k in rng:
                if conn.symmetric and j < i:
                    a[(i, j, k)] = a[(j, i, k)]
                else:
                    a[(i, j, k)] = _sum_jets(gamma[(l, i, j)] * comps[(l, k)] for l in rng)
    dg = _truncated(
        {(i, j, k): g.comp(j, k).partial(i) for i in rng for j in rng for k in range(j, n + 1)},
        order,
    )
    out = {}
    for i in rng:
        for j in rng:
            for k in range(j, n + 1):
                out[(i, j, k)] = out[(i, k, j)] = dg[(i, j, k)] - a[(i, j, k)] - a[(i, k, j)]
    return CubicForm(n, out)


def is_codazzi(conn: Connection, g: Metric, order: int) -> bool:
    """Total symmetry of nabla g, tested on the reduced index set
    {(i, j, k): i < j, i <= k} which is equivalent to all permutations.
    nabla g is formed in the workspace of order (`nabla_g`)."""
    ng = nabla_g(conn, g, order)
    n = conn.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(i, n + 1):
                gap = ng.comp(i, j, k) - ng.comp(j, i, k)
                if not gap.is_zero_up_to(order):
                    return False
    return True


def _gauss_jordan(rows: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan elimination, in place, of a square jet matrix augmented by
    extra columns: the pivot of each column is the first remaining row whose
    entry has a nonzero constant term. On return the augmented columns hold
    the solution."""
    size = len(rows)
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if rows[r][col].nums[0]), None
        )
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


def metric_inverse(g: Metric, order: int | None = None) -> dict[tuple[int, int], Jet]:
    """Componentwise inverse matrix of jets, by Gaussian elimination with
    pivoting on constant terms. With an order k (0..D), the elimination runs
    on the components truncated to k, at cap k: the result is the full
    inverse truncated to k."""
    n, cap = g.shape
    comps = _truncated(g.comps, order)
    if order is not None:
        cap = order
    rows = _gauss_jordan(
        [
            [comps[(i, j)] for j in range(1, n + 1)]
            + [Jet.constant(1 if j == i else 0, n, cap) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )
    return {
        (i + 1, j + 1): rows[i][n + j] for i in range(n) for j in range(n)
    }


def levi_civita(g: Metric, order: int | None = None) -> Connection:
    """Christoffel symbols of the Levi-Civita connection:

        G^s_ij = 1/2 sum_k g^{sk} ((g_ki)_j + (g_jk)_i - (g_ji)_k)

    With an order k (0..D), the partials are taken at the cap D and truncated
    to k, and the inverse and every product are formed at cap k: the result
    lives in workspace (n, k) and is the full one truncated to k."""
    n = g.n
    rng = range(1, n + 1)
    inv = metric_inverse(g, order)
    dg = _truncated(
        {(a, b, c): g.comp(a, b).partial(c) for a in rng for b in rng for c in rng}, order
    )
    lower = {}
    for i in rng:
        for j in rng:
            if i > j:
                continue
            for s in rng:
                lower[(s, i, j)] = _sum_jets(
                    inv[(s, k)] * (dg[(k, i, j)] + dg[(j, k, i)] - dg[(j, i, k)])
                    for k in rng
                ).scale(HALF)
    return Connection.from_symmetric(n, lower)


def _require_diagonal_2d(g: Metric):
    if g.n != 2:
        raise DimensionMismatchError("diagonal 2D routine needs n = 2")
    if not g.comp(1, 2).is_zero():
        raise RejectionError(
            "prescribed-tensor-not-diagonal", "offdiagonal component is nonzero"
        )
    if g.comp(1, 1).constant_term == 0 or g.comp(2, 2).constant_term == 0:
        raise SingularJetError("diagonal entry vanishes at the origin")


def sectional_curvature_2d(g: Metric) -> Jet:
    """Scalar f with Ric(levi_civita(g)) = f g for a diagonal 2D metric,
    f = Ric_11 / g11."""
    _require_diagonal_2d(g)
    return g.comp(1, 1).reciprocal() * ricci(levi_civita(g)).comp(1, 1)


def parallel_volume_2d(conn: Connection) -> Jet:
    """The parallel area density nu with nu(0) = 1: d/dx^k nu = t_k nu for the
    trace form t_k = G^1_k1 + G^2_k2, which must be closed (equivalently the
    Ricci tensor is symmetric for a torsion-free connection)."""
    if conn.n != 2:
        raise DimensionMismatchError("parallel volume routine needs n = 2")
    t = OneForm(
        2,
        {
            k: conn.gamma[(1, k, 1)] + conn.gamma[(2, k, 2)]
            for k in (1, 2)
        },
    )
    try:
        log_nu = potential_of_one_form(t)
    except NotClosedError:
        raise RejectionError(
            "ricci-not-symmetric",
            "trace form is not closed, so no parallel volume form exists",
        ) from None
    return log_nu.exp()
