"""The ring A+_F = O_F[[pi]] truncated in pi, with its Frobenius and
cyclotomic-group actions.

phi acts by sigma on coefficients and pi -> (1+pi)^p - 1; an element gamma
of the cyclotomic Galois group with character value c acts by
pi -> (1+pi)^c - 1.  The distinguished elements q = phi(pi)/pi and
mu = p/(q - pi^{p-1}) (a unit) are constructed exactly, with no precision
loss anywhere: binomial coefficients of integer exponents are computed as
exact integers before reduction.

A series holds its coefficients in the flat coordinate format of
`_kernel.py` (order * f ints in [0, p^N)); `raw()` returns them and `coeffs`
is the `OFElement` view at the API boundary.  Products go through the packed
kernel at every order and every f, and phi and gamma are one kernel linear
combination each, against a cached table of the images of x^a pi^k.

Truncation order is carried per value; binary operations require equal
contexts and truncate to the smaller order.
"""

from __future__ import annotations

from .errors import ExactDivisionFailure, NotAUnit
from ._kernel import get_kernel
from .padic import OFElement, PrecisionContext


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


def series_kernel(ctx: PrecisionContext, order: int):
    """The packed kernel for series of this context truncated at pi^order."""
    return get_kernel(ctx.p, ctx.N, order, ctx.modulus)


class APlusSeries:
    """Truncated power series over O_F: exactly `order` coefficients, the
    coefficient of pi^i at index i of `coeffs`."""

    __slots__ = ("ctx", "order", "_data")

    def __init__(self, ctx: PrecisionContext, order: int, coeffs=()):
        """coeffs: the leading coefficients, each an int, an OFElement or
        its coordinate vector; the rest are 0."""
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.ctx = ctx
        self.order = order
        pN, pad = ctx.pN, (0,) * (ctx.f - 1)
        data = []
        for c in list(coeffs)[:order]:
            if isinstance(c, int):
                data.append(c % pN)
                data.extend(pad)
            else:
                data.extend((c if isinstance(c, OFElement) else OFElement(ctx, c)).coeffs)
        data.extend([0] * (order * ctx.f - len(data)))
        self._data = data

    @classmethod
    def _of(cls, ctx, order, data):
        """Wrap flat coordinates without copying or checking them."""
        s = cls.__new__(cls)
        s.ctx, s.order, s._data = ctx, order, data
        return s

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_raw(cls, ctx, order, data):
        """The series with flat coordinates `data`, as returned by raw()."""
        data = [int(x) % ctx.pN for x in data]
        if len(data) != order * ctx.f:
            raise ValueError(f"expected {order * ctx.f} coordinates, got {len(data)}")
        return cls._of(ctx, order, data)

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

    @property
    def coeffs(self) -> tuple:
        """The coefficients as OFElements (built on each access)."""
        f, data = self.ctx.f, self._data
        return tuple(OFElement(self.ctx, data[i:i + f]) for i in range(0, len(data), f))

    def raw(self) -> list:
        """The flat coordinates: order * f ints in [0, p^N) (a copy)."""
        return list(self._data)

    def constant_term(self) -> OFElement:
        return OFElement(self.ctx, self._data[:self.ctx.f])

    def pi_valuation(self) -> int | None:
        """Index of the first coefficient nonzero at precision; None if all are 0."""
        for j, x in enumerate(self._data):
            if x:
                return j // self.ctx.f
        return None

    def is_unit(self) -> bool:
        return self.constant_term().is_unit()

    def truncate(self, order: int) -> "APlusSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return APlusSeries._of(self.ctx, order, self._data[:order * self.ctx.f])

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
        pN = self.ctx.pN
        return APlusSeries._of(self.ctx, n, [(x + y) % pN for x, y in
                                             zip(self._data, other._data)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, OFElement)):
            return self - APlusSeries.constant(self.ctx, self.order, other)
        n = self._binop_order(other)
        pN = self.ctx.pN
        return APlusSeries._of(self.ctx, n, [(x - y) % pN for x, y in
                                             zip(self._data, other._data)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        pN = self.ctx.pN
        return APlusSeries._of(self.ctx, self.order, [-x % pN for x in self._data])

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            pN = ctx.pN
            return APlusSeries._of(ctx, self.order, [x * other % pN for x in self._data])
        if isinstance(other, OFElement):
            ker = series_kernel(ctx, self.order)
            return APlusSeries._of(ctx, self.order, ker.unpack(
                ker.scalar(other.coeffs) * ker.pack(self._data)))
        n = self._binop_order(other)
        ker = series_kernel(ctx, n)
        return APlusSeries._of(ctx, n, ker.unpack(
            ker.mul(ker.pack(self._data), ker.pack(other._data))))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, APlusSeries) and other.ctx == self.ctx
                and other.order == self.order and other._data == self._data)

    def __hash__(self):
        return hash((self.ctx, self.order, tuple(self._data)))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs[:8]):
            if not c.is_zero():
                val = list(c.coeffs) if any(c.coeffs[1:]) else c.coeffs[0]
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


def phi_table(ctx: PrecisionContext, order: int) -> list[int]:
    """The packed images sigma(x)^a phi(pi)^k of the basis x^a pi^k modulo
    pi^order: the table every Frobenius substitutes with."""
    return series_kernel(ctx, order).power_table(
        ("phi",), lambda: _subst_coeffs(ctx, ctx.p, order), ctx._frobenius_powers)


def phi_series(s: APlusSeries) -> APlusSeries:
    """The Frobenius: sigma on coefficients, pi -> (1+pi)^p - 1.

    phi(pi) has pi-valuation 1, so the truncation order is preserved.
    """
    ker = series_kernel(s.ctx, s.order)
    return APlusSeries._of(s.ctx, s.order,
                           ker.unpack(ker.combo(s._data, phi_table(s.ctx, s.order))))


def gamma_series(s: APlusSeries, c: int) -> APlusSeries:
    """Action of the group element with cyclotomic character value c:
    pi -> (1+pi)^c - 1, trivial on coefficients.

    c may be any integer unit at p (negative exponents give the inverse
    group element); the group law gamma_c1 . gamma_c2 = gamma_{c1 c2} holds
    bit-exactly at truncation.
    """
    ctx = s.ctx
    _check_unit(ctx, c)
    if c == 1:
        return s
    ker = series_kernel(ctx, s.order)
    table = ker.power_table(("gamma", c), lambda: _subst_coeffs(ctx, c, s.order))
    return APlusSeries._of(ctx, s.order, ker.unpack(ker.combo(s._data, table)))


def gamma_table(ctx: PrecisionContext, order: int, c: int) -> list[int]:
    """The packed images gamma_c(pi)^k of the basis pi^k modulo pi^order,
    built afresh and not cached: for a caller that substitutes a batch of
    series once (`combo` with it is `gamma_series`)."""
    _check_unit(ctx, c)
    return series_kernel(ctx, order).substitution_table(_subst_coeffs(ctx, c, order))


def _check_unit(ctx, c: int):
    if c % ctx.p == 0:
        raise NotAUnit(f"character value {c} is divisible by p={ctx.p}")


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def q_series(ctx: PrecisionContext, order: int) -> APlusSeries:
    """q = phi(pi)/pi = ((1+pi)^p - 1)/pi: p terms, constant term p,
    leading coefficient 1."""
    coeffs = [binomial_exact(ctx.p, k + 1) for k in range(min(order, ctx.p))]
    return APlusSeries(ctx, order, coeffs)


def mu_inverse_coeffs(p: int) -> list[int]:
    """mu^{-1} = u = (q - pi^{p-1})/p = sum_{k < p-1} C(p, k+1)/p pi^k: q less
    its leading term has coefficients C(p, k), 1 <= k <= p-1, all divisible
    by p, and the quotient has constant term 1, hence is invertible."""
    return [binomial_exact(p, k + 1) // p for k in range(p - 1)]


def mu_series(ctx: PrecisionContext, order: int) -> APlusSeries:
    """mu = p/(q - pi^{p-1}), a unit of A+ with mu(0) = 1."""
    return invert_series(APlusSeries(ctx, order, mu_inverse_coeffs(ctx.p)))


def shift_pi(s: APlusSeries, k: int) -> APlusSeries:
    """Multiply by pi^k exactly: the result is known to order s.order + k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return APlusSeries._of(s.ctx, s.order + k, [0] * (k * s.ctx.f) + s._data)


def exact_div_pi(s: APlusSeries, k: int) -> APlusSeries:
    """Exact division by pi^k; the k low coefficients must vanish at
    precision.  The result's truncation order drops to order - k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if s.order <= k:
        raise ValueError("truncation order too small to divide")
    v = s.pi_valuation()
    if v is not None and v < k:
        raise ExactDivisionFailure(f"coefficient of pi^{v} is nonzero at precision")
    return APlusSeries._of(s.ctx, s.order - k, s._data[k * s.ctx.f:])


def invert_series(s: APlusSeries) -> APlusSeries:
    """Multiplicative inverse; requires a unit constant term.

    b_n = -a_0^{-1} sum_{i >= 1} a_i b_{n-i}, on kernel scalars."""
    ctx = s.ctx
    if not s.is_unit():
        raise NotAUnit("constant term is not a unit of O_F")
    ker = series_kernel(ctx, s.order)
    inv0 = s.constant_term().unit_inverse()
    neg_inv0 = ker.scalar((-inv0).coeffs)
    a = ker.scalars(s._data)
    b = [ker.scalar(inv0.coeffs)] + [0] * (s.order - 1)
    for n in range(1, s.order):
        acc = 0
        for i in range(1, n + 1):
            if a[i]:
                acc += a[i] * b[n - i]
        b[n] = ker.reduce_scalar(neg_inv0 * ker.reduce_scalar(acc))
    return APlusSeries._of(ctx, s.order, ker.flat(b))
