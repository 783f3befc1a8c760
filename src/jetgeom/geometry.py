"""Tensor calculus at jet level: connections, Ricci tensors, torsion, metrics,
Levi-Civita connections, the cubic form of a metric under a connection, and
the radial-homotopy primitives behind the Poincare lemma.

Index conventions are 1-based throughout, matching coordinates x1..xn.
All closedness/primitive statements are raw coefficient identities, so no
exterior-derivative normalization convention enters anywhere.

Every component of a tensor built from sums (the divergence form, the torsion
trace, the Ricci tensor and its parts, nabla g, the Levi-Civita brackets and
contractions) is one `jets.product_sum` of its product, linear and derivative
terms: one integer accumulation over one denominator, reduced once, with no
intermediate jet. With an order k the sums are formed to degree k only, and
no truncated copy of an input is made. `metric_inverse` is no elimination
over jets: it splits the metric's nonzero pattern into blocks
(`jets._block_split`), inverts each block's constant-term matrix over Q and
solves for each column of the inverse degree by degree, block by block
(`jets._linear_factor`, `jets._solve_linear_by_degree`, on the package's
one graded solve `jets._solve_graded`), reading the components to degree k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DimensionMismatchError,
    NotClosedError,
    RejectionError,
    SingularJetError,
)
from .jets import (
    Jet, _accumulate, _block_split, _linear_factor, _radial_homotopy, _reduced,
    _solve_linear_by_degree, product_sum,
)

HALF = Fraction(1, 2)


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
        # the constant terms in workspace (n, 0): invertible iff they factor
        const = [
            [(self.comps[(i, j)].nums[:1], self.comps[(i, j)].den) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        try:
            _linear_factor(const, n, 0)
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
    rng, g = range(1, conn.n + 1), conn.gamma
    return OneForm(conn.n, {j: product_sum(linear=[(1, g[(k, k, j)]) for k in rng]) for j in rng})


def _divergences(conn: Connection, order: int | None = None) -> dict:
    """The divergence entries of `ricci`: D_l = sum_k G^k_kl under the key l
    and E^i_l = D_l - G^i_il = sum_{k != i} G^k_kl under (i, l), each E one
    linear `jets.product_sum` of D_l and -G^i_il to degree order: it takes
    D_l's valid order, which counts G^i_il, so the products over it keep the
    valid orders of the uncancelled form."""
    rng, g = range(1, conn.n + 1), conn.gamma
    div = divergence_form(conn).comps
    return div | {
        (i, l): product_sum(linear=[(1, div[l]), (-1, g[(i, i, l)])], cap=order)
        for i in rng
        for l in rng
    }


def _ricci_derivatives(conn: Connection, div: Mapping, i: int, j: int) -> list:
    """The derivative terms sum_k (G^k_ij)_k - (D_j)_i of Ric_ij."""
    g = conn.gamma
    return [(1, g[(k, i, j)], k) for k in range(1, conn.n + 1)] + [(-1, div[j], i)]


def _ricci_terms(conn: Connection, div: Mapping, i: int, j: int) -> tuple[list, list]:
    """The quadratic and the derivative terms of Ric_ij, as `jets.product_sum`
    takes them, div holding `_divergences`. The quadratic terms are the n^2
    products of

        -L_ij = sum_l G^l_ij E^i_l - sum_{k != i} sum_l G^l_kj G^k_il:

    in sum_l G^l_ij D_l - sum_{k,l} G^l_kj G^k_il, the k = i terms of the two
    sums are the same product G^l_ij G^i_il and cancel, so E^i_l = D_l -
    G^i_il takes the place of D_l and no k = i product is formed
    (`tests/oracles.py` keeps the n^2 + n products of the uncancelled form).
    The products of the same two jets are formed once, with their
    coefficients summed: on a symmetric table whose mirror entries are one
    jet, as `Connection.from_symmetric`, the builders and the report reader
    give them, the products of (k, l) and (l, k) for i = j, with coefficient
    -2. Mirror entries that are two jets, even of the same coefficients, are
    not folded, so the valid order is the one their products give. The -L_ij
    are symmetric in (i, j) on a symmetric table."""
    rng, g = range(1, conn.n + 1), conn.gamma
    folded: dict = {}
    for k in rng:
        for l in rng:
            if k != i:
                a, b = g[(l, k, j)], g[(k, i, l)]
                folded.setdefault(frozenset((id(a), id(b))), [0, a, b])[0] -= 1
    quad = [(1, g[(l, i, j)], div[(i, l)]) for l in rng]
    quad += [tuple(term) for term in folded.values()]
    return quad, _ricci_derivatives(conn, div, i, j)


def _one_jet_mirrors(conn: Connection) -> bool:
    """Whether the table is symmetric with each mirror pair one jet, as
    `Connection.from_symmetric`, the builders and the report reader give it."""
    g = conn.gamma
    return conn.symmetric and all(jet is g[(k, j, i)] for (k, i, j), jet in g.items())


def _ricci_components(conn: Connection, order: int | None = None):
    """Each ((i, j), Ric_ij) of `ricci`, in loop order (i, then j), formed
    when the generator reaches it: `ricci` collects them and `is_ricci`
    compares each as it comes."""
    rng, div = range(1, conn.n + 1), _divergences(conn, order)
    shared, mirrored = {}, _one_jet_mirrors(conn)
    for i in rng:
        for j in rng:
            products, derivatives = _ricci_terms(conn, div, i, j)
            linear = ()
            if mirrored and i != j:
                pair = (min(i, j), max(i, j))
                if pair not in shared:
                    shared[pair] = [(1, product_sum(products, cap=order))]
                products, linear = (), shared[pair]
            yield (i, j), product_sum(products, linear, derivatives, cap=order)


def ricci(conn: Connection, order: int | None = None) -> Bilinear:
    """Ricci tensor of a connection from its Christoffel symbols,

        Ric_ij = sum_k [(G^k_ij)_k - (G^k_kj)_i]
                 + sum_{k,l} [G^l_ij G^k_kl - G^l_kj G^k_il],

    each component one `jets.product_sum` of the derivative terms
    (`ricci_derivative_part`) and the quadratic terms (minus `lambda_term`).
    The k = i terms of the two quadratic sums cancel, so the quadratic terms
    are the n^2 products of `_ricci_terms`, over the symbols and the entries
    E^i_l = sum_k G^k_kl - G^i_il, not n^2 + n (`tests/oracles.py` keeps the
    uncancelled form). On a symmetric table whose mirror entries are one jet
    (`_one_jet_mirrors`) the quadratic terms of (i, j) and (j, i) agree, so
    for i != j they are summed once, and that sum is a linear term of both;
    mirror entries that are two jets may differ in valid order, and each
    component takes its own.

    With an order k (0..D), every component is formed to degree k only, in
    workspace (n, k): the result is the full one truncated to k."""
    return Bilinear(conn.n, dict(_ricci_components(conn, order)))


def is_ricci(conn: Connection, r: Bilinear, order: int) -> bool:
    """Whether Ric(conn) equals r on the coefficients of degree <= order
    (`Jet.eq_up_to`), r a table of n variables and a cap of at least order.
    Each component of `ricci(conn, order)` is compared as soon as it is
    formed, in `ricci`'s loop order, and the first that differs ends the
    test: no later component is formed. The verdict is the one that
    comparing every component of the whole tensor gives."""
    return all(jet.eq_up_to(r.comps[key], order) for key, jet in _ricci_components(conn, order))


def ricci_derivative_part(conn: Connection) -> Bilinear:
    """Only the derivative terms sum_k [(G^k_ij)_k - (G^k_kj)_i]."""
    rng, div = range(1, conn.n + 1), divergence_form(conn).comps
    terms = {(i, j): _ricci_derivatives(conn, div, i, j) for i in rng for j in rng}
    return Bilinear(conn.n, {key: product_sum(derivatives=t) for key, t in terms.items()})


def lambda_term(conn: Connection) -> Bilinear:
    """Quadratic Christoffel contraction
    L_ij = sum_{k,l} [G^l_kj G^k_il - G^l_ij G^k_kl], so
    ricci = ricci_derivative_part - lambda_term. The k = i terms of the two
    sums cancel, so each L_ij is one `jets.product_sum` of the n^2 negated
    quadratic terms of `ricci` (`_ricci_terms`, over the E^i_l), not of
    n^2 + n products (`tests/oracles.py` keeps the uncancelled form). On a
    symmetric table whose mirror entries are one jet (`_one_jet_mirrors`)
    L_ij is formed for i <= j only."""
    rng, div = range(1, conn.n + 1), _divergences(conn)
    out, mirrored = {}, _one_jet_mirrors(conn)
    for i in rng:
        for j in rng:
            if mirrored and j < i:
                out[(i, j)] = out[(j, i)]
            else:
                quad = _ricci_terms(conn, div, i, j)[0]
                out[(i, j)] = product_sum((-c, a, b) for c, a, b in quad)
    return Bilinear(conn.n, out)


def torsion(conn: Connection) -> dict[tuple[int, int, int], Jet]:
    """T^k_ij = G^k_ij - G^k_ji."""
    rng = range(1, conn.n + 1)
    return {
        (k, i, j): conn.gamma[(k, i, j)] - conn.gamma[(k, j, i)]
        for k in rng
        for i in rng
        for j in rng
    }


def _torsion_trace_components(conn: Connection):
    """Each (j, tau_j) of `torsion_trace`, formed when the generator reaches it."""
    rng, g = range(1, conn.n + 1), conn.gamma
    for j in rng:
        terms = [(1, g[(i, i, j)]) for i in rng] + [(-1, g[(i, j, i)]) for i in rng]
        yield j, product_sum(linear=terms)


def torsion_trace(conn: Connection) -> OneForm:
    """tau_j = sum_i (G^i_ij - G^i_ji)."""
    return OneForm(conn.n, dict(_torsion_trace_components(conn)))


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
                cyc = product_sum(
                    derivatives=[(1, a.comp(i, j), k), (1, a.comp(j, k), i), (-1, a.comp(i, k), j)]
                )
                if not cyc.is_zero_up_to(order):
                    return False
    return True


def primitive_of_two_form(a: TwoForm) -> OneForm:
    """A 1-form alpha with (alpha_i)_j - (alpha_j)_i = 2 a_ij, by the radial
    homotopy (a degree-m monomial of a contributes with weight 2/(m+2))."""
    n, cap = a.shape
    working = max(a.min_valid() - 1, 0)
    if not two_form_closed(a, working):
        raise NotClosedError(f"2-form is not closed up to degree {working}")
    rng, zero = range(1, n + 1), Jet.zero(n, cap, valid_order=min(a.min_valid() + 1, cap))
    terms = {i: [(1, _radial_homotopy(a.comp(i, j), j, 2, 2)) for j in rng if j != i] for i in rng}
    return OneForm(n, {i: product_sum(linear=[(1, zero), *t]) for i, t in terms.items()})


def potential_of_one_form(d: OneForm) -> Jet:
    """A function f with grad f = d and f(0) = 0, by the radial homotopy
    (a degree-m monomial of d contributes with weight 1/(m+1))."""
    n, cap = d.shape
    working = max(d.min_valid() - 1, 0)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gap = product_sum(derivatives=[(1, d.comp(i), j), (-1, d.comp(j), i)])
            if not gap.is_zero_up_to(working):
                raise NotClosedError(f"1-form is not closed up to degree {working}")
    # each primitive is valid to min(d_k valid + 1, cap), so the sum to min(d valid + 1, cap)
    return product_sum(linear=[(1, _radial_homotopy(d.comp(k), k, 1, 1)) for k in range(1, n + 1)])


def _nabla_g_parts(conn: Connection, g: Metric, order: int | None = None):
    """The functions (i, j, k) -> A_ijk and (i, j, k) -> (nabla g)_ijk of
    `nabla_g`: each is formed when first asked for and kept, a component
    under one key for (i, j, k) and (i, k, j), and A_ijk under one key for
    A_jik on a table whose mirror entries are one jet. Christoffel symbols
    and metric in different workspaces fail here, before any sum, when an
    order is given."""
    n = conn.n
    rng = range(1, n + 1)
    gamma, comps = conn.gamma, g.comps
    if order is not None and n:
        gamma[(1, 1, 1)]._require_same_shape(comps[(1, 1)])
    a, out, mirrored = {}, {}, _one_jet_mirrors(conn)

    def a_term(i, j, k):
        if mirrored and j < i:
            i, j = j, i
        if (i, j, k) not in a:
            a[(i, j, k)] = product_sum(
                [(1, gamma[(l, i, j)], comps[(l, k)]) for l in rng], cap=order
            )
        return a[(i, j, k)]

    def comp(i, j, k):
        j, k = min(j, k), max(j, k)
        if (i, j, k) not in out:
            out[(i, j, k)] = product_sum(
                linear=[(-1, a_term(i, j, k)), (-1, a_term(i, k, j))],
                derivatives=[(1, comps[(j, k)], i)],
                cap=order,
            )
        return out[(i, j, k)]

    return a_term, comp


def nabla_g(conn: Connection, g: Metric, order: int | None = None) -> CubicForm:
    """(nabla g)_ijk = (g_jk)_i - A_ijk - A_ikj with A_ijk = sum_l G^l_ij g_lk.

    nabla g is symmetric in (j, k), so only j <= k is formed; on a symmetric
    table whose mirror entries are one jet (`_one_jet_mirrors`)
    A_ijk = A_jik is formed only for i <= j (mirror entries that are two jets
    may differ in valid order, and each A_ijk then takes its own). Each A_ijk
    is one `jets.product_sum` of n products (at n = 4 that is 160 products on a
    symmetric table and 256 on a general one), and each component one more,
    of the derivative and the two A terms (`_nabla_g_parts`); every A_ijk
    is formed before the first component.

    With an order k (0..D), every sum is formed to degree k only, in
    workspace (n, k): the result is the full one truncated to k. Christoffel
    symbols and metric in different workspaces fail as the first untruncated
    product would."""
    rng, (a_term, comp) = range(1, conn.n + 1), _nabla_g_parts(conn, g, order)
    keys = [(i, j, k) for i in rng for j in rng for k in rng]
    for key in keys:
        a_term(*key)
    return CubicForm(conn.n, {key: comp(*key) for key in keys})


def is_codazzi(conn: Connection, g: Metric, order: int) -> bool:
    """Total symmetry of nabla g, tested on the reduced index set
    {(i, j, k): i < j, i <= k} which is equivalent to all permutations, by
    comparing (nabla g)_ijk with (nabla g)_jik on the coefficients of degree
    <= order. nabla g is formed in the workspace of order, each component
    and each A_ijk only when a comparison first needs it
    (`_nabla_g_parts`): the first pair that differs ends the test, with the
    verdict that comparing the whole tensor gives."""
    n, (_, comp) = conn.n, _nabla_g_parts(conn, g, order)
    return all(
        comp(i, j, k).eq_up_to(comp(j, i, k), order)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(i, n + 1)
    )


def metric_inverse(g: Metric, order: int | None = None) -> dict[tuple[int, int], Jet]:
    """Componentwise inverse matrix of jets, solved degree by degree against
    the inverse of the constant-term matrix over Q, with no jet reciprocal
    and no jet elimination (Brent & Kung 1978). g's nonzero pattern is split
    into blocks (`jets._block_split`), each factored once
    (`jets._linear_factor`): a diagonal metric is n 1x1 blocks, a dense one
    one block. Each column of the inverse is then solved block by block in
    dependency order (`jets._solve_linear_by_degree`, on the graded solve
    `jets._solve_graded` that `Jet.reciprocal` runs too), a block's right-hand
    side the products of its rows with the earlier blocks' entries of the
    column, less the identity column; a block whose right-hand side is zero
    is zero. Every entry is valid to the least valid order of the
    components. With an order k (0..D), the solve reads the components to
    degree k only, at cap k: the result is the full inverse truncated to
    k."""
    n, cap = g.shape
    cap = cap if order is None else order
    rng = range(n)
    rows = [[g.comps[(i + 1, j + 1)].truncate(cap) for j in rng] for i in rng]
    valid, size = min(jet.valid_order for row in rows for jet in row), len(rows[0][0].nums)
    reads = [{j for j in rng if not row[j].is_zero()} for row in rows]
    blocks = []
    for keys, members in _block_split(rng, reads):
        matrix = [[(rows[i][j].nums, rows[i][j].den) for j in keys] for i in members]
        blocks.append((keys, members, _linear_factor(matrix, n, cap)))
    inverse = {}
    for j in rng:
        # column j, block by block: B X + Y = 0 with Y_i the sum of g_ik X_k
        # over the keys k of earlier blocks, less 1 where i = j
        column = {}
        for keys, members, factor in blocks:
            rhs = []
            for i in members:
                products = [(1, rows[i][k], x) for k, x in column.items() if k in reads[i]]
                if products:
                    nums, den, _ = _accumulate(n, products, (), (), cap)
                else:
                    nums, den = [0] * size, 1
                nums[0] -= den * (i == j)
                rhs.append((nums, den))
            if not any(any(nums) for nums, _ in rhs):
                column.update((k, Jet.zero(n, cap, valid)) for k in keys)
                continue
            solution, den = _solve_linear_by_degree(factor, rhs, cap)
            for k, nums in zip(keys, solution):
                column[k] = Jet._from_nums(n, cap, *_reduced(nums, den), valid)
        inverse.update(((i + 1, j + 1), column[i]) for i in rng)
    return inverse


def levi_civita(g: Metric, order: int | None = None) -> Connection:
    """Christoffel symbols of the Levi-Civita connection:

        G^s_ij = 1/2 sum_k g^{sk} ((g_ki)_j + (g_jk)_i - (g_ji)_k)

    Each bracket is one `jets.product_sum` of three derivative terms, formed
    once per (k, i, j), and each symbol's contraction one more. With an order
    k (0..D), the inverse, the brackets and the contractions are formed to
    degree k only, in workspace (n, k): the result is the full one truncated
    to k."""
    n = g.n
    rng = range(1, n + 1)
    inv = metric_inverse(g, order)
    c = g.comps
    lower = {}
    for i in rng:
        for j in range(i, n + 1):
            bracket = [
                product_sum(
                    derivatives=[(1, c[(k, i)], j), (1, c[(j, k)], i), (-1, c[(j, i)], k)],
                    cap=order,
                )
                for k in rng
            ]
            for s in rng:
                lower[(s, i, j)] = product_sum(
                    [(1, inv[(s, k)], b) for k, b in zip(rng, bracket)]
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
