"""The ring A+_F = O_F[[pi]] truncated in pi, with its Frobenius and
cyclotomic-group actions.

phi acts by sigma on coefficients and pi -> (1+pi)^p - 1; an element gamma
of the cyclotomic Galois group with character value c acts by
pi -> (1+pi)^c - 1.  The distinguished elements q = phi(pi)/pi and
mu = p/(q - pi^{p-1}) (a unit) are constructed exactly, with no precision
loss anywhere: binomial coefficients of integer exponents are computed as
exact integers before reduction.

Truncation order is carried per value; binary operations require equal
contexts and truncate to the smaller order.
"""

from __future__ import annotations

from .errors import ExactDivisionFailure, NotAUnit
from ._kernel import get_kernel
from .padic import OFElement, PrecisionContext, frobenius

#: below this truncation order the naive convolution beats packing overhead
_KERNEL_MIN_ORDER = 16


def binomial_exact(c: int, k: int) -> int:
    """C(c, k) for an arbitrary integer c, as an exact integer."""
    num = 1
    for i in range(k):
        num *= c - i
        num //= i + 1  # product of i+1 consecutive integers is divisible
    return num


def binomial_column(c: int, kmax: int, modulus: int) -> list[int]:
    """[C(c, k) mod modulus for k in 0..kmax], computed exactly then reduced."""
    out = [1 % modulus]
    acc = 1
    for k in range(1, kmax + 1):
        acc = acc * (c - k + 1) // k
        out.append(acc % modulus)
    return out


class APlusSeries:
    """Truncated power series over O_F: exactly `order` coefficients, index i
    holding the coefficient of pi^i."""

    __slots__ = ("ctx", "order", "coeffs")

    def __init__(self, ctx: PrecisionContext, order: int, coeffs=()):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.ctx = ctx
        self.order = order
        items = list(coeffs)
        if len(items) > order:
            items = items[:order]
        out = []
        for c in items:
            out.append(c if isinstance(c, OFElement) else OFElement(ctx, c))
        while len(out) < order:
            out.append(OFElement(ctx, 0))
        self.coeffs = tuple(out)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx, order):
        return cls(ctx, order)

    @classmethod
    def one(cls, ctx, order):
        return cls(ctx, order, [1])

    @classmethod
    def pi(cls, ctx, order):
        return cls(ctx, order, [0, 1])

    @classmethod
    def constant(cls, ctx, order, value):
        return cls(ctx, order, [value])

    # -- views ----------------------------------------------------------------

    def constant_term(self) -> OFElement:
        return self.coeffs[0]

    def pi_valuation(self) -> int | None:
        """Index of the first coefficient nonzero at precision; None if all are 0."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return None

    def is_unit(self) -> bool:
        return self.coeffs[0].is_unit()

    def truncate(self, order: int) -> "APlusSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return APlusSeries(self.ctx, order, self.coeffs[:order])

    def raw(self) -> list:
        """Coefficient data as ints (f = 1) for the packed kernel."""
        return [c.coeffs[0] for c in self.coeffs]

    # -- arithmetic -------------------------------------------------------------

    def _binop_order(self, other):
        if not isinstance(other, APlusSeries):
            raise TypeError("expected APlusSeries")
        if other.ctx != self.ctx:
            raise ValueError("mixed precision contexts")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, OFElement)):
            return self + APlusSeries.constant(self.ctx, self.order, other)
        n = self._binop_order(other)
        return APlusSeries(self.ctx, n,
                           [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, OFElement)):
            return self - APlusSeries.constant(self.ctx, self.order, other)
        n = self._binop_order(other)
        return APlusSeries(self.ctx, n,
                           [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return APlusSeries(self.ctx, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, OFElement)):
            o = other if isinstance(other, OFElement) else OFElement(self.ctx, other)
            return APlusSeries(self.ctx, self.order, [c * o for c in self.coeffs])
        n = self._binop_order(other)
        ctx = self.ctx
        if ctx.f == 1 and n >= _KERNEL_MIN_ORDER:
            ker = get_kernel(ctx.p, ctx.N, n)
            out = ker.unpack(ker.mul(ker.pack(self.raw()[:n]), ker.pack(other.raw()[:n])))
            return APlusSeries(ctx, n, out)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n):
            acc = ctx.zero_raw()
            for i in range(k + 1):
                ai, bj = a[i], b[k - i]
                acc = ctx.add_raw(acc, ctx.mul_raw(ai.coeffs, bj.coeffs))
            out.append(OFElement(ctx, acc))
        return APlusSeries(ctx, n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return invert_series(self) ** (-e)
        result = APlusSeries.one(self.ctx, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, APlusSeries) and other.ctx == self.ctx
                and other.order == self.order and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs[:8]):
            if not c.is_zero():
                val = c.coeffs[0] if self.ctx.f == 1 else list(c.coeffs)
                terms.append(f"{val}*pi^{i}" if i else f"{val}")
        body = " + ".join(terms) if terms else "0"
        return f"APlus({body} + O(pi^{self.order}))"


# ---------------------------------------------------------------------------
# the group actions
# ---------------------------------------------------------------------------

def _subst_coeffs(ctx, c: int, order: int) -> list[int]:
    """Coefficients of (1+pi)^c - 1 (an integer exponent), truncated."""
    col = binomial_column(c, order - 1, ctx.pN)
    col[0] = 0
    return col


def substitute(s: APlusSeries, g: APlusSeries) -> APlusSeries:
    """s(g) for g with positive pi-valuation; generic Horner evaluation."""
    if g.pi_valuation() == 0:
        raise ValueError("substitution target must have positive pi-valuation")
    n = min(s.order, g.order)
    acc = APlusSeries.zero(s.ctx, n)
    for c in reversed(s.coeffs[:n]):
        acc = acc * g.truncate(n) + c
    return acc


def phi_table(ctx: PrecisionContext, order: int) -> list[int]:
    """Packed powers of phi(pi) = (1+pi)^p - 1 modulo pi^order (f = 1): the
    table every packed Frobenius substitutes with."""
    ker = get_kernel(ctx.p, ctx.N, order)
    return ker.power_table(("phi",), lambda: _subst_coeffs(ctx, ctx.p, order))


def phi_series(s: APlusSeries) -> APlusSeries:
    """The Frobenius: sigma on coefficients, pi -> (1+pi)^p - 1.

    phi(pi) has pi-valuation 1, so the truncation order is preserved.
    """
    ctx = s.ctx
    if ctx.f == 1:
        ker = get_kernel(ctx.p, ctx.N, s.order)
        return APlusSeries(ctx, s.order,
                           ker.unpack(ker.combo(s.raw(), phi_table(ctx, s.order))))
    g = APlusSeries(ctx, s.order, _subst_coeffs(ctx, ctx.p, s.order))
    twisted = APlusSeries(ctx, s.order, [frobenius(c) for c in s.coeffs])
    return substitute(twisted, g)


def gamma_series(s: APlusSeries, c: int) -> APlusSeries:
    """Action of the group element with cyclotomic character value c:
    pi -> (1+pi)^c - 1, trivial on coefficients.

    c may be any integer unit at p (negative exponents give the inverse
    group element); the group law gamma_c1 . gamma_c2 = gamma_{c1 c2} holds
    bit-exactly at truncation.
    """
    ctx = s.ctx
    if c % ctx.p == 0:
        raise NotAUnit(f"character value {c} is divisible by p={ctx.p}")
    if c == 1:
        return s
    if ctx.f == 1:
        ker = get_kernel(ctx.p, ctx.N, s.order)
        table = ker.power_table(("gamma", c), lambda: _subst_coeffs(ctx, c, s.order))
        return APlusSeries(ctx, s.order, ker.unpack(ker.combo(s.raw(), table)))
    g = APlusSeries(ctx, s.order, _subst_coeffs(ctx, c, s.order))
    return substitute(s, g)


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def q_series(ctx: PrecisionContext, order: int) -> APlusSeries:
    """q = phi(pi)/pi = ((1+pi)^p - 1)/pi: p terms, constant term p,
    leading coefficient 1."""
    coeffs = [binomial_exact(ctx.p, k + 1) for k in range(min(order, ctx.p))]
    return APlusSeries(ctx, order, coeffs)


def mu_series(ctx: PrecisionContext, order: int) -> APlusSeries:
    """mu = p/(q - pi^{p-1}), a unit of A+ with mu(0) = 1.

    q - pi^{p-1} strips q's leading term, leaving coefficients C(p, k) for
    1 <= k <= p-1, all divisible by p; division by p is exact and the
    quotient has constant term 1, hence is invertible.
    """
    u = [binomial_exact(ctx.p, k + 1) // ctx.p for k in range(min(order, ctx.p - 1))]
    return invert_series(APlusSeries(ctx, order, u))


def q_mu_series(ctx: PrecisionContext, order: int) -> APlusSeries:
    """q*mu = p + pi^{p-1}*mu, exactly (the defining identity of mu)."""
    mu = mu_series(ctx, order)
    out = [OFElement(ctx, ctx.p) if i == 0 else OFElement(ctx, 0) for i in range(order)]
    for i in range(order - (ctx.p - 1)):
        out[i + ctx.p - 1] = out[i + ctx.p - 1] + mu.coeffs[i]
    return APlusSeries(ctx, order, out)


def shift_pi(s: APlusSeries, k: int) -> APlusSeries:
    """Multiply by pi^k exactly: the result is known to order s.order + k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return APlusSeries(s.ctx, s.order + k, (OFElement(s.ctx, 0),) * k + s.coeffs)


def exact_div_pi(s: APlusSeries, k: int) -> APlusSeries:
    """Exact division by pi^k; the k low coefficients must vanish at
    precision.  The result's truncation order drops to order - k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if s.order <= k:
        raise ValueError("truncation order too small to divide")
    for i in range(k):
        if not s.coeffs[i].is_zero():
            raise ExactDivisionFailure(
                f"coefficient of pi^{i} is nonzero at precision")
    return APlusSeries(s.ctx, s.order - k, s.coeffs[k:])


def invert_series(s: APlusSeries) -> APlusSeries:
    """Multiplicative inverse; requires a unit constant term."""
    ctx = s.ctx
    if not s.is_unit():
        raise NotAUnit("constant term is not a unit of O_F")
    a0inv = s.coeffs[0].unit_inverse()
    if ctx.f == 1:
        # b_n = -a0^{-1} sum_{i>=1} a_i b_{n-i}, on raw ints
        pN = ctx.pN
        a = s.raw()
        inv0 = a0inv.coeffs[0]
        b = [inv0] + [0] * (s.order - 1)
        for n in range(1, s.order):
            acc = 0
            for i in range(1, n + 1):
                if a[i]:
                    acc += a[i] * b[n - i]
            b[n] = (-inv0 * acc) % pN
        return APlusSeries(ctx, s.order, b)
    b = [a0inv]
    for n in range(1, s.order):
        acc = ctx.zero_raw()
        for i in range(1, n + 1):
            acc = ctx.add_raw(acc, ctx.mul_raw(s.coeffs[i].coeffs, b[n - i].coeffs))
        b.append(OFElement(ctx, ctx.neg_raw(ctx.mul_raw(a0inv.coeffs, acc))))
    return APlusSeries(ctx, s.order, b)
