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
terms, truncated to k. One graded solve, `_solve_graded`, finishes a
triangular system degree by degree, its products through `_mul_layer` too:
`Jet.reciprocal` (the 1x1 system of the series with its constant term
zeroed), `Jet.exp` (the Euler-weighted series, with the divisor k d at
degree k) and every square jet-linear system B X + Y = 0. Such a system is
split into blocks by structure, in dependency order (`_block_split`: a
perfect matching of rows to keys, then Tarjan's strongly connected
components), and each block is solved against the inverse of its constant
matrix over Q (`_linear_factor`, `_solve_linear_by_degree`): the solve's
algebraic rows and, one identity column at a time,
`geometry.metric_inverse`. It is the package's one jet-linear solve, and
every system goes through the same split.
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
    the table, enumerate(`multiindex.product_rows`), and the products of one
    degree of b for the spans of that degree (`multiindex.product_degrees`)."""
    for ra, pairs in spans:
        ca = a[ra]
        if ca:
            ca *= scale
            for rb, rc in pairs:
                cb = b[rb]
                if cb:
                    out[rc] += ca * cb


def _block_split(keys, reads) -> list[tuple[list, list[int]]]:
    """The fine blocks of a square system whose row i reads the keys
    reads[i] (a subset of keys), in dependency order (Duff & Reid 1978):
    each row is matched to a key by augmenting paths (Kuhn), the key matched
    to a row depends on the other keys that row reads, and the blocks are
    the strongly connected components of that graph (Tarjan 1972), each
    listed after every block it depends on. Returns (block keys in the order
    of keys, block row indices ascending) pairs, so a block's rows read keys
    of that block and of earlier blocks only. Raises SingularJetError when
    no perfect matching exists: the matrix is singular for any values of its
    entries."""
    index = {key: c for c, key in enumerate(keys)}
    cols = [sorted(index[key] for key in read) for read in reads]
    m = len(keys)
    owner, matched = [None] * m, [None] * len(cols)  # key -> row, row -> key

    def augment(r: int) -> bool:
        # breadth first over the rows reachable by alternating paths from r
        parent, queue = {}, [r]
        for row in queue:
            for c in cols[row]:
                if c in parent:
                    continue
                parent[c] = row
                if owner[c] is None:
                    while c is not None:
                        row = parent[c]
                        owner[c], matched[row], c = row, c, matched[row]
                    return True
                queue.append(owner[c])
        return False

    if len(cols) != m or not all(augment(r) for r in range(m)):
        raise SingularJetError("jet matrix not invertible at the origin")
    # Tarjan's components, depth first along the dependencies with an
    # explicit path, so that no system is bounded by the recursion limit
    deps = [[d for d in cols[owner[c]] if d != c] for c in range(m)]
    order, low, stack, on_stack, path, blocks = {}, [0] * m, [], set(), [], []

    def visit(v: int):
        order[v] = low[v] = len(order)
        stack.append(v)
        on_stack.add(v)
        path.append((v, iter(deps[v])))

    for root in range(m):
        if root not in order:
            visit(root)
        while path:
            v, edges = path[-1]
            for w in edges:
                if w not in order:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], order[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    component.sort()
                    rows = sorted(owner[c] for c in component)
                    blocks.append(([keys[c] for c in component], rows))
    return blocks


def _combination(parts) -> list | None:
    """The numerators of the sum of c * nums over the (c, nums) parts, all
    nums of one length; None for no parts."""
    out = None
    for c, nums in parts:
        out = [c * v for v in nums] if out is None else [x + c * v for x, v in zip(out, nums)]
    return out


def _linear_factor(matrix: list, n: int, cap: int) -> tuple:
    """The square matrix B of jets in workspace (n, cap), each entry given as
    (numerators, denominator), prepared once for every later
    `_solve_linear_by_degree`: B = N / d over one denominator d; the integer
    matrix P = -q N(0)^-1, with N(0)^-1 the inverse over Q of the constant
    matrix, by Gauss-Jordan over Fractions (the pivot of each column the
    first remaining row with a nonzero entry), and q > 0 the least common
    denominator of its entries (the adjugate over the determinant, reduced);
    and M = P (N - N(0)), each entry None where it is zero. Raises
    SingularJetError when N(0) is singular."""
    d, m = lcm(*(den for row in matrix for _, den in row)), len(matrix)
    scaled = [[[v * (d // den) for v in nums] for nums, den in row] for row in matrix]
    rows = [
        [Fraction(entry[0]) for entry in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(scaled)
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            raise SingularJetError("jet matrix not invertible at the origin")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top, head = rows[col], rows[col][col]
        if head != 1:
            top = rows[col] = [x / head for x in top]
        rows = [
            r if r is top or not r[col] else [a - r[col] * b for a, b in zip(r, top)]
            for r in rows
        ]
    q = lcm(*(x.denominator for row in rows for x in row[m:]))
    inverse = [[-x.numerator * (q // x.denominator) for x in row[m:]] for row in rows]
    product = [[None] * m for _ in range(m)]
    if any(any(entry[1:]) for row in scaled for entry in row):
        # M = P N less its constant part, which is P N(0) = -q I
        product = [
            [_combination((p, nums) for p, nums in zip(prow, column) if p) for column in zip(*scaled)]
            for prow in inverse
        ]
        for i, row in enumerate(product):
            row[i][0] = 0
        product = [[entry if any(entry) else None for entry in row] for row in product]
    return n, inverse, q, d, product


def _solve_graded(n: int, divisors: list, matrix: list, acc: list) -> list:
    """The integer solution Z, one numerator list per unknown in workspace
    (n, cap) with cap = len(divisors) - 1, of the graded triangular system

        Z_r = (acc_r + sum_{s != 0} M_s Z_{r - s}) / q_g

    for every rank r of degree g, every division exact: q_g = divisors[g],
    M the square `matrix` of numerator lists with zero constant terms (None
    for a zero entry) and acc the right-hand numerator lists, which the solve
    turns into Z in place and returns. It is the package's one graded solve
    (Brent & Kung 1978): of every jet-linear block
    (`_solve_linear_by_degree`), of `Jet.reciprocal` and of `Jet.exp`.
    Degree by degree, it finishes the degree's ranks by one division each,
    and pushes them through the nonzero ranks s of M onto higher degrees
    along the degree's spans (`multiindex.product_degrees`). Every product
    runs through `_mul_layer`, which visits the pairs of a nonzero first
    factor only, and an unknown with nothing at the degree is not pushed."""
    cap = len(divisors) - 1
    degrees = mi.degree_of(n, cap)
    push = [
        (acc_i, entry, acc_j)
        for acc_i, row in zip(acc, matrix)
        for entry, acc_j in zip(row, acc)
        if entry is not None
    ]
    hi = 0
    for g, (q, spans) in enumerate(zip(divisors, mi.product_degrees(n, cap))):
        lo, hi = hi, bisect_right(degrees, g)
        if q != 1:
            for zi in acc:
                for r in range(lo, hi):
                    zi[r] //= q
        for acc_i, entry, zj in push:
            if any(zj[lo:hi]):
                _mul_layer(spans, entry, zj, 1, acc_i)
    return acc


def _solve_linear_by_degree(factor, rhs: list, cap: int) -> tuple[list, int]:
    """(numerators per unknown, one denominator) of the X with B X + Y = 0 to
    degree cap <= the factor's cap, Y given as one (numerators, denominator)
    per row in workspace (n, cap), B of the `_linear_factor` factor. In the
    ranks' graded order X_r = -C^-1 (Y_r + sum_{s != 0} B_s X_{r - s}) with
    C = B_0, on integers: with B = N / d and Y = U / e over one e,
    Z = X e q^(cap + 1) has Z_r = P (d q^(cap + 1) U_r + sum_s N_s Z_{r-s}) / q.
    P is constant, so it is applied once: Z is `_solve_graded`'s with the
    factor's M = P (N - N(0)), q_g = q at every degree and
    acc = P d q^(cap + 1) U, each row's scale formed once."""
    n, inverse, q, d, matrix = factor
    e, top = lcm(*(den for _, den in rhs)), q ** (cap + 1)
    scaled = [(d * top * (e // den), nums) for nums, den in rhs]
    acc = [_combination((p * c, nums) for p, (c, nums) in zip(prow, scaled) if p) for prow in inverse]
    return _solve_graded(n, [q] * (cap + 1), matrix, acc), e * top


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
        """Multiplicative inverse, by the division recurrence
        g0 f_k = -sum_{j>=1} g_j f_{k-j} on homogeneous parts. With g = G / d
        and D = max_degree, F = f G0^(D+1) is integral, and it is the 1x1
        graded solve (`_solve_graded`) with M the series G with its constant
        term zeroed, q_g = -G0 at every degree and the right-hand side
        -d G0^(D+1) at rank 0: F_0 = d G0^D and G0 F_k = -sum_{j>=1} G_j F_{k-j}."""
        g0 = self.nums[0]
        if not g0:
            raise SingularJetError("reciprocal of a jet with zero constant term")
        cap = self.max_degree
        top = g0 ** (cap + 1)
        rhs = [-self.den * top] + [0] * (len(self.nums) - 1)
        [f] = _solve_graded(self.n, [-g0] * (cap + 1), [[[0, *self.nums[1:]]]], [rhs])
        return self._with_nums(f, top, self.valid_order)

    def exp(self) -> "Jet":
        """exp composed with self; requires zero constant term (exactness).
        The Euler operator E = sum_i x_i d/dx_i gives E f = (E g) f, so on
        homogeneous parts k f_k = sum_{j=1..k} j g_j f_{k-j}. With g = G / d
        and D = max_degree, F = f D! d^D is integral, and it is the 1x1
        graded solve (`_solve_graded`) with M the Euler-weighted series
        k G_k, q_0 = 1, q_k = k d and the right-hand side D! d^D at rank 0:
        F_0 = D! d^D and k d F_k = sum_j j G_j F_{k-j}."""
        if self.nums[0]:
            raise ConstantTermError("exp needs a zero constant term")
        n, cap, d = self.n, self.max_degree, self.den
        series = [k * c for k, c in zip(mi.degree_of(n, cap), self.nums)]
        top = factorial(cap) * d**cap
        rhs = [top] + [0] * (len(series) - 1)
        [f] = _solve_graded(n, [1] + [k * d for k in range(1, cap + 1)], [[series]], [rhs])
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


def _radial_homotopy(jet: Jet, axis: int, denom_shift: int, numer: int = 1) -> Jet:
    """Push every degree-m monomial up by x^axis with weight numer/(m+denom_shift):
    the radial homotopy of `geometry.primitive_of_two_form` and
    `geometry.potential_of_one_form`, valid to min(valid order + 1, cap).

    One pass over the numerators along the moves of `multiindex.partial_map`,
    read from destination (degree m) to source (degree m + 1): each adds
    c * numer * (L // (m + denom_shift)) over the one denominator den * L,
    with L = lcm(denom_shift .. cap - 1 + denom_shift), reduced once
    (`tests/oracles.py` keeps the Fraction version)."""
    n, cap = jet.n, jet.max_degree
    big = lcm(*range(denom_shift, cap + denom_shift))
    degrees, nums, out = mi.degree_of(n, cap), jet.nums, [0] * len(jet.nums)
    for src, dst, _ in mi.partial_map(n, cap, axis - 1):
        c = nums[dst]
        if c:
            out[src] = c * numer * (big // (degrees[dst] + denom_shift))
    return jet._with_nums(out, jet.den * big, min(jet.valid_order + 1, cap))


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
