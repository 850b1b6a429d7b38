"""Truncated arithmetic in the cyclotomic Iwasawa algebra and its
distribution enlargement (f = 1).

An element is stored in idempotent coordinates: one truncated power series
in T = gamma_1 - 1 per character component i of the torsion subgroup
(i in Z/(p-1)).  All p - 1 series share one common denominator: the element
holds integer numerators and one positive integer `den`, reduced so that
gcd(den, all numerators) = 1.  That form is canonical, so equality and
hashing are structural, and `den` is the lcm of the coefficient
denominators.  p-power denominators are allowed and tracked; integrality
(den prime to p) is what membership in the integral algebra means here.
`Fraction` appears only at the boundary: the constructor, the `components`
view, evaluation and the logarithm elements.

The twist automorphism gamma -> chi(gamma) gamma moves the content of
component i+1 to component i (with the standard idempotents
e_i = (p-1)^{-1} sum ϖ^{-i}(delta) delta and Tw(delta) = ϖ(delta) delta,
the i-th component of the twist is the substituted (i+1)-st component of
the argument) and substitutes T -> p + (1+p)T on each series: an integer
Taylor shift by p followed by scaling T^k by (1+p)^k.  The substitution is
affine, so the truncation is exact and the twist is a ring automorphism
with exact inverse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import NotIntegral


class IwasawaContext:
    """p (odd prime), T-truncation order, and the p-adic precision used when
    a truncated p-adic constant (the logarithm normalization) is needed."""

    __slots__ = ("p", "M_T", "N")

    def __init__(self, p: int, M_T: int, N: int = 20):
        if p < 3:
            raise ValueError("p must be an odd prime")
        if M_T < 1:
            raise ValueError("T-truncation must be >= 1")
        self.p = p
        self.M_T = M_T
        self.N = N

    def __eq__(self, other):
        return (isinstance(other, IwasawaContext)
                and (self.p, self.M_T, self.N) == (other.p, other.M_T, other.N))

    def __hash__(self):
        return hash((self.p, self.M_T, self.N))

    def __repr__(self):
        return f"IwasawaContext(p={self.p}, M_T={self.M_T}, N={self.N})"


class IwasawaElement:
    """nums[i][k] / den: coefficient of T^k in the e_i-component.

    `nums` is a tuple of p - 1 tuples of M_T ints, `den` > 0 and
    gcd(den, all nums) = 1.  The constructor takes ints and Fractions;
    `components` gives the coefficients back as Fractions."""

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: IwasawaContext, components):
        M = ctx.M_T
        rows = [[c if type(c) is int else Fraction(c) for c in series][:M]
                for series in components]
        if len(rows) != ctx.p - 1:
            raise ValueError(f"expected {ctx.p - 1} components")
        den = lcm(1, *(c.denominator for c in chain.from_iterable(rows)
                       if type(c) is not int))
        self.ctx = ctx
        self.den = den
        self.nums = tuple(tuple(c * den if type(c) is int
                                else c.numerator * (den // c.denominator)
                                for c in row) + (0,) * (M - len(row))
                          for row in rows)

    @classmethod
    def _reduced(cls, ctx, nums, den):
        """The element nums / den (den > 0) in canonical form."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(nums))
            if g != 1:
                den //= g
                nums = [[n // g for n in row] for row in nums]
        x = object.__new__(cls)
        x.ctx = ctx
        x.nums = tuple(map(tuple, nums))
        x.den = den
        return x

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [[0] for _ in range(ctx.p - 1)])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [[1] for _ in range(ctx.p - 1)])

    @classmethod
    def from_component(cls, ctx, i, series):
        comps = [[0] for _ in range(ctx.p - 1)]
        comps[i % (ctx.p - 1)] = list(series)
        return cls(ctx, comps)

    @property
    def components(self):
        """components[i][k]: coefficient of T^k in the e_i-component, a
        Fraction."""
        den = self.den
        return tuple(tuple(Fraction(n, den) for n in row) for row in self.nums)

    def _check(self, other):
        if not isinstance(other, IwasawaElement) or other.ctx != self.ctx:
            raise ValueError("mixed Iwasawa contexts")

    def _combine(self, other, op):
        """self op other, numerators brought to the lcm of the denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return IwasawaElement._reduced(self.ctx, [
            list(map(op, map(sa.__mul__, x), map(sb.__mul__, y)))
            for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return IwasawaElement._reduced(
                self.ctx, [[n * k.numerator for n in row] for row in self.nums],
                self.den * k.denominator)
        self._check(other)
        M = self.ctx.M_T
        out = []
        for x, y in zip(self.nums, other.nums):
            # truncated convolution, one shifted row of products per x_i
            prod = [0] * M
            if any(y):
                for i, xi in enumerate(x):
                    if xi:
                        prod[i:] = map(add, prod[i:], map(xi.__mul__, y))
            out.append(prod)
        return IwasawaElement._reduced(self.ctx, out, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, IwasawaElement) and other.ctx == self.ctx
                and other.den == self.den and other.nums == self.nums)

    def __hash__(self):
        return hash((self.ctx, self.den, self.nums))

    def __repr__(self):
        nonzero = sum(1 for row in self.nums for n in row if n)
        return f"IwasawaElement(p={self.ctx.p}, M_T={self.ctx.M_T}, {nonzero} terms)"

    def is_integral(self) -> bool:
        return self.den % self.ctx.p != 0


def idempotent(ctx: IwasawaContext, i: int) -> IwasawaElement:
    """e_i in component coordinates: the indicator of component i.

    The component form is the image of (p-1)^{-1} sum ϖ^{-i}(delta) delta;
    e_i e_j = [i == j] e_i and sum e_i = 1 hold bit-exactly.
    """
    if not 0 <= i <= ctx.p - 2:
        raise ValueError("idempotent index out of range")
    return IwasawaElement.from_component(ctx, i, [1])


def _taylor_shift(row, s: int) -> list:
    """Integer coefficients of f(T + s) from those of f, in O(len(row)^2)
    multiply-adds (von zur Gathen and Gerhard, ISSAC 1997, Horner form)."""
    a = list(row)
    if not any(a):
        return a
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += s * a[j + 1]
    return a


def twist1(x: IwasawaElement) -> IwasawaElement:
    """The twist by the cyclotomic character: component i receives the
    substituted component i+1, and T -> p + (1+p)T on each series."""
    ctx = x.ctx
    p = ctx.p
    scale = [(1 + p) ** k for k in range(ctx.M_T)]
    rows = []
    for i in range(p - 1):
        shifted = _taylor_shift(x.nums[(i + 1) % (p - 1)], p)
        rows.append(list(map(mul, shifted, scale)))
    return IwasawaElement._reduced(ctx, rows, x.den)


def twist_minus1(x: IwasawaElement) -> IwasawaElement:
    """Inverse twist: component i receives component i-1 with
    T -> (T - p)/(1+p), that is (1+p)^{-m} sum_k c_k (1+p)^{m-k} (T - p)^k
    for m = M_T - 1."""
    ctx = x.ctx
    p = ctx.p
    m = ctx.M_T - 1
    scale = [(1 + p) ** (m - k) for k in range(ctx.M_T)]
    rows = []
    for i in range(p - 1):
        src = x.nums[(i - 1) % (p - 1)]
        rows.append(_taylor_shift(map(mul, src, scale), -p))
    return IwasawaElement._reduced(ctx, rows, x.den * (1 + p) ** m)


def log_one_plus_p(ctx: IwasawaContext) -> Fraction:
    """Truncated p-adic logarithm of 1+p as an exact rational, correct to
    valuation >= N + 2 (the true value has valuation 1).

    Tail term k has valuation k - v_p(k) >= k - log_p(k), so N + 8 terms
    are comfortably enough for any p >= 3 and the N used here."""
    p = ctx.p
    total = Fraction(0)
    for k in range(1, ctx.N + 9):
        total += Fraction((-1) ** (k + 1) * p ** k, k)
    return total


def ell(ctx: IwasawaContext, j: int) -> IwasawaElement:
    """ell_j = log(1+T)/log_p(1+p) - j, as a series with rational
    coefficients carrying p in the denominators (tracked, not forbidden).

    The normalization divides by the truncated logarithm of 1+p, so that
    evaluating formally at T = (1+p)^k - 1 gives k - j up to the working
    precision."""
    lp = log_one_plus_p(ctx)
    series = [Fraction(0)] * ctx.M_T
    series[0] = Fraction(-j)
    for k in range(1, ctx.M_T):
        series[k] = Fraction((-1) ** (k + 1), k) / lp
    return IwasawaElement(ctx, [list(series) for _ in range(ctx.p - 1)])


def eval_at_zero(x: IwasawaElement) -> Fraction:
    """Projection to the component-0 factor followed by T -> 0; a ring
    homomorphism."""
    return Fraction(x.nums[0][0], x.den)


def is_lambda_unit(x: IwasawaElement) -> bool:
    """Invertibility in the integral algebra: every local factor Z_p[[T]]
    needs a unit constant term.

    Raises NotIntegral when a coefficient has p in its denominator."""
    if not x.is_integral():
        raise NotIntegral("element has p-power denominators")
    p = x.ctx.p
    return all(row[0] % p for row in x.nums)


def delta_twist_consistency(delta_V: IwasawaElement,
                            delta_V1: IwasawaElement) -> bool:
    """Whether the two candidate determinant elements are related by the
    twist: twist1(delta_V) == delta_V1, checked componentwise, together with
    the per-idempotent form e_i * delta_V1 == twist1(e_{i+1} * delta_V)."""
    ctx = delta_V.ctx
    tw = twist1(delta_V)
    if tw != delta_V1:
        return False
    for i in range(ctx.p - 1):
        lhs = idempotent(ctx, i) * delta_V1
        rhs = twist1(idempotent(ctx, (i + 1) % (ctx.p - 1)) * delta_V)
        if lhs != rhs:
            return False
    return True
