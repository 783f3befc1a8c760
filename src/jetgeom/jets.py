"""Truncated multivariate power series (jets) with exact rational coefficients.

A jet stores every monomial of total degree <= max_degree of a power series in
n variables, in a fixed dense graded-colex layout. The valid_order field
tracks how far the stored coefficients are guaranteed to agree with the
underlying analytic germ: entries of total degree > valid_order may be
truncation garbage and are ignored by value equality. Comparisons that state
an explicit order (eq_up_to, is_zero_up_to) look at raw storage, so the
caller always says what is being asserted.

The coefficients are stored as a tuple of integer numerators `nums` over one
positive denominator `den`, kept in lowest terms (gcd(den, *nums) == 1, and the
zero jet has den == 1), and every operation runs on these integers. The API
speaks fractions.Fraction: the constructor, `coeffs`, `terms`, `coefficient`
and `constant_term` take or return Fractions. There is no floating point
anywhere. Jets are immutable values: every operation returns a fresh jet.

Products run through one pair loop, `_mul_layer`. One accumulation,
`_accumulate`, forms a sum of products c * a * b, linear terms c * a and
derivative terms c * d/dx^axis a to a cap k, for the whole jet or for one
x1-layer of it: it adds every term's coefficients of degree <= k into one
list of numerators over one denominator, the lcm of the terms'
denominators, and gives the sum's valid order. The layer only picks the
index maps its loops read. `product_sum` reduces the whole jet once, and
`Jet.__mul__`, `+`, `-` and `partial` are its small cases; the
Cauchy-Kowalevski solve of `builders` reads one layer at a time. A reduced
jet is unique, so the sum is the same jet as the composed sum of reduced
terms, truncated to k.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Mapping

from . import multiindex as mi
from .errors import (
    ConstantTermError,
    DimensionMismatchError,
    SingularJetError,
)

ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def partial_valid_order(valid_order: int) -> int:
    """The valid order of a derivative of a jet valid to valid_order."""
    return max(valid_order - 1, 0)


def _reduced(nums: list, den: int) -> tuple[tuple[int, ...], int]:
    """nums / den in lowest terms with a positive denominator."""
    if den == 1:
        return tuple(nums), 1
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


def _mul_layer(spans, a, b, scale: int, out: list):
    """Add scale times the truncated product of two numerator tuples, through
    the (ra, pairs) spans, into out: one x1-layer of the product for the
    spans of that layer (`multiindex.product_layers`; those of a lower cap
    form the layer only to that degree), the whole product for the rows of
    the table, enumerate(`multiindex.product_rows`)."""
    for ra, pairs in spans:
        ca = a[ra]
        if ca:
            ca *= scale
            for rb, rc in pairs:
                cb = b[rb]
                if cb:
                    out[rc] += ca * cb


def _solve_by_degree(rows, g: list, f0: int, divisors: list) -> list:
    """The f with f[0] = f0 and f[r] = (sum of g[s] * f[t] over the pairs
    (s, t) -> r of the rows) // divisors[r] for r > 0, where g[0] == 0 and every
    division is exact. One pass over the ranks in graded order: a finished
    f[r] is pushed through its row, and with g[0] == 0 every push lands on a
    rank of higher degree, which is not finished yet."""
    f = [0] * len(g)
    f[0] = f0
    for r, row in enumerate(rows):
        fr = f[r] if not r else f[r] // divisors[r]
        f[r] = fr
        if fr:
            for s, rc in row:
                gs = g[s]
                if gs:
                    f[rc] += gs * fr
    return f


@lru_cache(maxsize=None)
def _antiderivative_x1_table(n: int, cap: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(common divisor l, (src, dst, l // divisor) triples) of the x1-primitive."""
    moves = mi.antiderivative_x1_map(n, cap)
    l = lcm(*(d for _, _, d in moves))
    return l, tuple((src, dst, l // d) for src, dst, d in moves)


def _init(jet, n, max_degree, valid_order, nums, den):
    setattr_ = object.__setattr__
    setattr_(jet, "n", n)
    setattr_(jet, "max_degree", max_degree)
    setattr_(jet, "valid_order", valid_order)
    setattr_(jet, "nums", nums)
    setattr_(jet, "den", den)


class Jet:
    """One truncated power series around the origin: numerators `nums` over
    the positive denominator `den`, in lowest terms (read-only)."""

    __slots__ = ("n", "max_degree", "valid_order", "nums", "den")

    def __init__(self, n: int, max_degree: int, coeffs: Iterable, valid_order: int):
        coeffs = [as_fraction(c) for c in coeffs]
        if len(coeffs) != mi.size(n, max_degree):
            raise DimensionMismatchError(
                f"expected {mi.size(n, max_degree)} coefficients for n={n}, "
                f"cap={max_degree}, got {len(coeffs)}"
            )
        if not 0 <= valid_order <= max_degree:
            raise ValueError(f"valid_order {valid_order} outside 0..{max_degree}")
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _init(self, n, max_degree, valid_order, nums, den)

    @classmethod
    def _from_nums(cls, n: int, max_degree: int, nums: tuple, den: int, valid_order: int) -> "Jet":
        """A jet from numerators and denominator already in lowest terms."""
        jet = object.__new__(cls)
        _init(jet, n, max_degree, valid_order, nums, den)
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("jets are immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int, max_degree: int, valid_order: int | None = None) -> "Jet":
        v = max_degree if valid_order is None else valid_order
        if not 0 <= v <= max_degree:
            raise ValueError(f"valid_order {v} outside 0..{max_degree}")
        return cls._from_nums(n, max_degree, (0,) * mi.size(n, max_degree), 1, v)

    @classmethod
    def constant(cls, value, n: int, max_degree: int) -> "Jet":
        c = as_fraction(value)
        nums = [0] * mi.size(n, max_degree)
        nums[0] = c.numerator
        return cls._from_nums(n, max_degree, tuple(nums), c.denominator, max_degree)

    @classmethod
    def one(cls, n: int, max_degree: int) -> "Jet":
        return cls.constant(1, n, max_degree)

    @classmethod
    def variable(cls, axis: int, n: int, max_degree: int) -> "Jet":
        """The coordinate function x^axis (1-based axis)."""
        if not 1 <= axis <= n:
            raise DimensionMismatchError(f"axis {axis} outside 1..{n}")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1 to store a variable")
        exps = tuple(1 if k == axis - 1 else 0 for k in range(n))
        nums = [0] * mi.size(n, max_degree)
        nums[mi.rank_of(n, max_degree)[exps]] = 1
        return cls._from_nums(n, max_degree, tuple(nums), 1, max_degree)

    @classmethod
    def from_terms(
        cls,
        n: int,
        max_degree: int,
        terms: Mapping[tuple[int, ...], object],
        valid_order: int | None = None,
    ) -> "Jet":
        ranks = mi.rank_of(n, max_degree)
        coeffs = [ZERO] * mi.size(n, max_degree)
        for exps, value in terms.items():
            exps = tuple(exps)
            if exps not in ranks:
                raise DimensionMismatchError(
                    f"monomial {exps} does not fit workspace n={n}, cap={max_degree}"
                )
            coeffs[ranks[exps]] = as_fraction(value)
        v = max_degree if valid_order is None else valid_order
        return cls(n, max_degree, coeffs, v)

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every stored coefficient as a Fraction, rank order."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        exps = tuple(exps)
        ranks = mi.rank_of(self.n, self.max_degree)
        if exps not in ranks:
            raise DimensionMismatchError(f"monomial {exps} outside workspace")
        return Fraction(self.nums[ranks[exps]], self.den)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Nonzero stored terms, rank order (includes beyond-valid entries)."""
        exps = mi.exponents(self.n, self.max_degree)
        den = self.den
        for r, c in enumerate(self.nums):
            if c:
                yield exps[r], Fraction(c, den)

    def _prefix(self, order: int) -> int:
        """Number of stored monomials of total degree <= order (graded order)."""
        return bisect_right(mi.degree_of(self.n, self.max_degree), order)

    def is_zero(self) -> bool:
        """Every stored coefficient is zero (beyond-valid entries included)."""
        return not any(self.nums)

    def is_zero_up_to(self, order: int) -> bool:
        return not any(self.nums[: self._prefix(order)])

    def same_coeffs(self, other: "Jet") -> bool:
        """Every stored coefficient equal (valid orders may differ)."""
        return self.nums == other.nums and self.den == other.den

    def eq_up_to(self, other: "Jet", order: int) -> bool:
        """Compare stored coefficients of total degree <= order, of a jet of
        this workspace or of one in n variables whose cap, like this one's, is
        at least order (the ranks of degree <= order are then the same)."""
        if self.n != other.n or order > min(self.max_degree, other.max_degree):
            self._require_same_shape(other)
        m = self._prefix(order)
        a, b = self.nums[:m], other.nums[:m]
        da, db = self.den, other.den
        if da == db:
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    def eq_on_x1_up_to(self, other: "Jet", x1_order: int) -> bool:
        """Compare stored coefficients of monomials with x1-exponent <= x1_order."""
        self._require_same_shape(other)
        exps = mi.exponents(self.n, self.max_degree)
        da, db = self.den, other.den
        return all(
            x * db == y * da
            for r, (x, y) in enumerate(zip(self.nums, other.nums))
            if exps[r][0] <= x1_order
        )

    def same_payload(self, other: "Jet") -> bool:
        """Bitwise identity: shape, valid order and every stored coefficient."""
        return (
            self.n == other.n
            and self.max_degree == other.max_degree
            and self.valid_order == other.valid_order
            and self.same_coeffs(other)
        )

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if (
            self.n != other.n
            or self.max_degree != other.max_degree
            or self.valid_order != other.valid_order
        ):
            return False
        return self.eq_up_to(other, self.valid_order)

    __hash__ = None  # mutable-ish semantics for ==: not hashable

    def __repr__(self):
        parts = []
        for exps, c in self.terms():
            mono = " ".join(
                f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}"
                for k, e in enumerate(exps)
                if e
            )
            parts.append(f"{c} {mono}".strip())
            if len(parts) == 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"Jet(n={self.n}, cap={self.max_degree}, v={self.valid_order}: {body})"

    # ------------------------------------------------------------------
    # arithmetic

    def _require_same_shape(self, other: "Jet"):
        if self.n != other.n or self.max_degree != other.max_degree:
            raise DimensionMismatchError(
                f"workspace mismatch: ({self.n},{self.max_degree}) vs "
                f"({other.n},{other.max_degree})"
            )

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.n, self.max_degree)

    def _with_nums(self, nums: list, den: int, valid_order: int) -> "Jet":
        """A jet of this workspace from numerators over den, not yet reduced."""
        nums, den = _reduced(nums, den)
        return Jet._from_nums(self.n, self.max_degree, nums, den, valid_order)

    def _combine(self, other, sign: int) -> "Jet":
        """self + sign * other, one `product_sum` of two linear terms."""
        return product_sum(linear=((1, self), (sign, self._coerce(other))))

    def __add__(self, other) -> "Jet":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Jet":
        return self._coerce(other) - self

    def __neg__(self) -> "Jet":
        return product_sum(linear=((-1, self),))

    def scale(self, value) -> "Jet":
        c = as_fraction(value)
        p = c.numerator
        return self._with_nums([p * x for x in self.nums], self.den * c.denominator, self.valid_order)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self.scale(other)
        return product_sum(((1, self, other),))

    def __rmul__(self, other) -> "Jet":
        return self.scale(other)

    def partial(self, axis: int) -> "Jet":
        """Formal d/dx^axis (1-based); valid order drops by one."""
        return product_sum(derivatives=((1, self, axis),))

    def antiderivative_x1(self) -> "Jet":
        """The unique x1-primitive with zero x1-free part."""
        if self.n < 1:
            raise DimensionMismatchError("cannot integrate a 0-variable jet along x1")
        l, moves = _antiderivative_x1_table(self.n, self.max_degree)
        nums = self.nums
        out = [0] * len(nums)
        for src, dst, factor in moves:
            c = nums[src]
            if c:
                out[dst] = c * factor
        return self._with_nums(out, self.den * l, min(self.valid_order + 1, self.max_degree))

    def reciprocal(self) -> "Jet":
        """Multiplicative inverse, by the degree-by-degree division recurrence
        g0 f_k = -sum_{j>=1} g_j f_{k-j} on homogeneous parts. With
        g = G / d and D = max_degree, F = f * G0^(D+1) is integral:
        F_0 = d * G0^D and G0 F_k = -sum_{j>=1} G_j F_{k-j}."""
        g = list(self.nums)
        g0 = g[0]
        if not g0:
            raise SingularJetError("reciprocal of a jet with zero constant term")
        cap = self.max_degree
        g[0] = 0
        f = _solve_by_degree(
            mi.product_rows(self.n, cap), g, self.den * g0**cap, [-g0] * len(g)
        )
        return self._with_nums(f, g0 ** (cap + 1), self.valid_order)

    def exp(self) -> "Jet":
        """exp composed with self; requires zero constant term (exactness).
        The Euler operator E = sum_i x_i d/dx_i gives E f = (E g) f, so on
        homogeneous parts k f_k = sum_{j=1..k} j g_j f_{k-j}. With g = G / d
        and D = max_degree, F = f * D! * d^D is integral: F_0 = D! d^D and
        k d F_k = sum_j j G_j F_{k-j}."""
        if self.nums[0]:
            raise ConstantTermError("exp needs a zero constant term")
        n, cap, d = self.n, self.max_degree, self.den
        degs = mi.degree_of(n, cap)
        g = [k * c for k, c in zip(degs, self.nums)]
        top = factorial(cap) * d**cap
        f = _solve_by_degree(mi.product_rows(n, cap), g, top, [k * d for k in degs])
        return self._with_nums(f, top, self.valid_order)

    # ------------------------------------------------------------------
    # slicing

    def restrict_x1(self) -> "SliceJet":
        """Set x1 = 0; the result lives in the variables (x2, ..., xn)."""
        if self.n < 1:
            raise DimensionMismatchError("cannot restrict a 0-variable jet")
        # position i of x1-layer 0 is slice rank i
        nums = self.nums
        out = [nums[r] for r in mi.x1_layers(self.n, self.max_degree)[0]]
        out, den = _reduced(out, self.den)
        return SliceJet(Jet._from_nums(self.n - 1, self.max_degree, out, den, self.valid_order))

    def truncate(self, k: int) -> "Jet":
        """The graded prefix of total degree <= k as a jet of cap k (0..cap),
        in lowest terms, valid to min(valid_order, k). A coefficient of
        degree <= k of a product needs only its factors' coefficients of
        degree <= k, so products of truncated jets are the truncated product."""
        cap = self.max_degree
        if not 0 <= k <= cap:
            raise ValueError(f"truncation order {k} outside 0..{cap}")
        if k == cap:
            return self
        nums, den = _reduced(self.nums[: self._prefix(k)], self.den)
        return Jet._from_nums(self.n, k, nums, den, min(self.valid_order, k))

    def with_valid_order(self, valid_order: int) -> "Jet":
        if not 0 <= valid_order <= self.max_degree:
            raise ValueError(f"valid_order {valid_order} outside 0..{self.max_degree}")
        return Jet._from_nums(self.n, self.max_degree, self.nums, self.den, valid_order)


def product_sum(products=(), linear=(), derivatives=(), cap: int | None = None) -> Jet:
    """The sum of the products c * a * b, the linear terms c * a and the
    derivative terms c * d/dx^axis a, given as (c, a, b), (c, a) and
    (c, a, axis) with c an integer and axis 1-based, formed to degree cap
    in workspace (n, cap): `_accumulate`'s whole jet, reduced once.

    Without a cap every operand lives in one workspace (n, D) and cap is D.
    A cap k (0..D) needs every operand in n variables and of a cap D >= k: the
    sum reads only their coefficients of degree <= k, or <= min(k + 1, D) for
    a derivative (`multiindex.partial_map`), so it is the composed sum
    truncated to k. It is valid to the least valid order over the terms, at
    most k: a product's lesser factor valid order, a linear term's own, a
    derivative's `partial_valid_order`. Every operand is checked before any
    work, a product's factors raising what `Jet.__mul__` raises."""
    products, linear, derivatives = tuple(products), tuple(linear), tuple(derivatives)
    factors = [x for _, a, b in products for x in (a, b)]
    singles = [t[1] for t in linear + derivatives]
    if not factors and not singles:
        raise ValueError("empty product sum")
    first = (factors or singles)[0]
    n, top, whole = first.n, first.max_degree, cap is None
    cap = top if whole else cap
    for a in factors + singles:
        if a.n != n or whole and a.max_degree != top:
            first._require_same_shape(a)
        if not 0 <= cap <= a.max_degree:
            raise ValueError(f"cap {cap} outside 0..{a.max_degree}")
    for _, a, axis in derivatives:
        if not 1 <= axis <= n:
            raise DimensionMismatchError(f"axis {axis} outside 1..{n}")
    nums, den, valid = _accumulate(n, products, linear, derivatives, cap)
    nums, den = _reduced(nums, den)
    return Jet._from_nums(n, cap, nums, den, valid)


def _accumulate(n: int, products, linear, derivatives, cap: int, layer: int | None = None):
    """(numerators, denominator L, valid order) of the sum of `product_sum`'s
    terms on unchecked operands in n variables, of caps >= cap, formed to
    degree cap: the whole jet of workspace (n, cap) in rank order, or, for a
    layer t, only its x1-layer t, in the order of `multiindex.x1_layers(n,
    cap)[t]`. An empty sum is zero, valid to cap.

    The layer only picks the maps that one set of loops reads: a product
    reads the pair spans of `product_rows`, or those of `product_layers` that
    land on layer t (layers <= t of its factors); a linear term every rank,
    or those of layer t; a derivative the moves of `partial_map(n, min(cap +
    1, its cap), axis - 1)`, or those of `partial_layers` that land on layer
    t (from layer t + 1 for an x1-derivative). Each term adds its numerators
    times c * (L // its denominator) into one list over L, the lcm of the
    terms' denominators (a.den * b.den, or a.den), whatever the layer and the
    cap. The valid order is `product_sum`'s, whatever the layer."""
    dens = [a.den * b.den for _, a, b in products] + [t[1].den for t in (*linear, *derivatives)]
    den = lcm(*dens)
    valid = min(
        [cap]
        + [min(a.valid_order, b.valid_order) for _, a, b in products]
        + [a.valid_order for _, a in linear]
        + [partial_valid_order(a.valid_order) for _, a, _ in derivatives]
    )
    out = [0] * mi.size(n, cap)
    if layer is None:
        ranks, spans = range(len(out)), products and tuple(enumerate(mi.product_rows(n, cap)))
    else:
        ranks, spans = mi.x1_layers(n, cap)[layer], mi.product_layers(n, cap)[layer]
    for (c, a, b), d in zip(products, dens):
        _mul_layer(spans, a.nums, b.nums, c * (den // d), out)
    for c, a in linear:
        nums, scale = a.nums, c * (den // a.den)
        for r in ranks:
            y = nums[r]
            if y:
                out[r] += scale * y
    for c, a, axis in derivatives:
        nums, scale, top = a.nums, c * (den // a.den), min(cap + 1, a.max_degree)
        if layer is None:
            moves = mi.partial_map(n, top, axis - 1)
        else:
            moves = mi.partial_layers(n, top, axis - 1)[layer]
        for src, dst, factor in moves:
            y = nums[src]
            if y:
                out[dst] += scale * factor * y
    return (out if layer is None else [out[r] for r in ranks]), den, valid


class SliceJet:
    """Initial-data function of (x2, ..., xn): an (n-1)-variable jet that
    remembers it is destined for promotion into n variables."""

    __slots__ = ("jet",)

    def __init__(self, jet: Jet):
        object.__setattr__(self, "jet", jet)

    def __setattr__(self, name, value):
        raise AttributeError("slices are immutable")

    @property
    def ambient_n(self) -> int:
        return self.jet.n + 1

    @property
    def max_degree(self) -> int:
        return self.jet.max_degree

    @property
    def valid_order(self) -> int:
        return self.jet.valid_order

    @property
    def constant_term(self) -> Fraction:
        return self.jet.constant_term

    def promote(self) -> Jet:
        """Embed as an x1-independent function of all n variables."""
        n = self.ambient_n
        cap = self.max_degree
        jet = self.jet
        out = [0] * mi.size(n, cap)
        for c, full_rank in zip(jet.nums, mi.x1_layers(n, cap)[0]):
            out[full_rank] = c
        # the same numerators over the same denominator: still in lowest terms
        return Jet._from_nums(n, cap, tuple(out), jet.den, jet.valid_order)

    def same_payload(self, other: "SliceJet") -> bool:
        return self.jet.same_payload(other.jet)

    def __eq__(self, other):
        if not isinstance(other, SliceJet):
            return NotImplemented
        return self.jet == other.jet

    __hash__ = None

    def __repr__(self):
        return f"Slice[{self.jet!r}]"


def random_poly(
    seed: int, n: int, degree_bound: int, coeff_bound: int, max_degree: int
) -> Jet:
    """Deterministic random polynomial: integer coefficients in
    [-coeff_bound, coeff_bound] on every monomial of degree <= degree_bound.

    The coefficients are drawn in rank order over that graded prefix, each as
    `random.Random(seed).randint` draws it: with width w = 2 coeff_bound + 1
    and k its bit length, `getrandbits(k)` until the value is below w, minus
    coeff_bound. So the draws are those of a `randint` loop, and a negative
    coeff_bound (w <= 0) raises ValueError when a coefficient is drawn."""
    if degree_bound > max_degree:
        raise ValueError("degree_bound exceeds the workspace cap")
    nums = [0] * mi.size(n, max_degree)
    drawn = bisect_right(mi.degree_of(n, max_degree), degree_bound)
    width = 2 * coeff_bound + 1
    if drawn and width <= 0:
        raise ValueError(f"empty coefficient range [{-coeff_bound}, {coeff_bound}]")
    getrandbits, k = random.Random(seed).getrandbits, width.bit_length()
    for r in range(drawn):
        c = getrandbits(k)
        while c >= width:
            c = getrandbits(k)
        nums[r] = c - coeff_bound
    return Jet._from_nums(n, max_degree, tuple(nums), 1, max_degree)


def random_slice(
    seed: int, ambient_n: int, degree_bound: int, coeff_bound: int, max_degree: int
) -> SliceJet:
    return SliceJet(random_poly(seed, ambient_n - 1, degree_bound, coeff_bound, max_degree))
