"""Exact arithmetic in O_F = W(F_{p^f}) at finite precision.

Elements of the unramified extension are coefficient vectors over a fixed
monic modulus, every coordinate reduced mod p^N.  The residue field
F_{p^f} = F_p[x]/(modulus) runs on the context's own raw arithmetic at
precision 1: the irreducibility test of the modulus (Rabin's criterion) and
the residue inverse that Hensel lifting starts from.  The default modulus is
the lexicographically first monic irreducible of degree f (coefficients
read from the constant term up), whose constant term is necessarily nonzero
for f > 1.  The module also provides matrices over O_F with Smith normal
form over the local ring, Newton polygons of characteristic polynomials,
the stabilized rank of a semilinear reduction mod p, and a semisimplicity
test for exact rational matrices.  A matrix holds its entries as raw rows,
tuples of those coordinate vectors, and every matrix routine reads and
returns raw rows; `OFMatrix.entries` and M[i, j] are `OFElement` views at
the API boundary.  Every O_F elimination step is one raw row operation,
`sub_mul_raw`: the Smith reduction's (V reduced as the rows of its
transpose) and the Gauss-Jordan inverse's on [M | I].

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce

from .errors import NotAUnit, PrecisionLoss


def vp_int(n: int, p: int) -> int | None:
    """p-adic valuation of an integer; None for n == 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x: Fraction, p: int) -> int | None:
    if x == 0:
        return None
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for the range we care about
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _default_modulus(p: int, f: int):
    """First monic irreducible of degree f over F_p, coefficients enumerated
    lexicographically.  Degree 1 is the polynomial x; for f > 1 the
    constant term of an irreducible is nonzero, so the search starts at 1."""
    if f == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
        if _is_irreducible(p, tail + (1,)):
            return tail + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _is_irreducible(p: int, modulus) -> bool:
    """Rabin's test for a monic modulus of degree f > 1 over F_p, run in
    F_p[x]/(modulus): x^{p^f} = x, and x^{p^{f/l}} - x is a unit for every
    prime l | f.  An element is a unit exactly when multiplication by it,
    an f x f matrix over F_p, has full rank."""
    F = PrecisionContext._unchecked(p, 1, modulus)
    Fp = PrecisionContext._unchecked(p, 1, (0, 1))
    f = F.f
    x = (0, 1) + (0,) * (f - 2)
    if F._pow_raw(x, p ** f) != x:
        return False
    for ell in {q for q in range(2, f + 1) if f % q == 0 and _is_prime(q)}:
        diff = F.sub_raw(F._pow_raw(x, p ** (f // ell)), x)
        mult = [[(c,) for c in F.mul_raw(diff, (0,) * i + (1,) + (0,) * (f - 1 - i))]
                for i in range(f)]
        if None in _smith_raw(Fp, mult)[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# precision context
# ---------------------------------------------------------------------------

class PrecisionContext:
    """Fixes (p, f, N) and the residue modulus once for a whole computation.

    p must be an odd prime, N >= 1 the absolute precision exponent, and the
    modulus a monic degree-f integer polynomial irreducible mod p.  Raw
    coefficient tuples live in [0, p^N)^f; the context owns the arithmetic
    on them so that OFElement stays a thin immutable wrapper.
    """

    def __init__(self, p: int, N: int, f: int = 1, modulus=None):
        if p < 3 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if N < 1:
            raise ValueError("precision N must be >= 1")
        if f < 1:
            raise ValueError("residue degree f must be >= 1")
        if modulus is None:
            modulus = _default_modulus(p, f)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if f > 1 and not _is_irreducible(p, modulus):
            raise ValueError("modulus is reducible mod p")
        self._setup(p, N, modulus)

    @classmethod
    def _unchecked(cls, p: int, N: int, modulus) -> "PrecisionContext":
        """The context without the prime and irreducibility checks; at N = 1
        it is F_p[x]/(modulus) for any monic modulus."""
        ctx = cls.__new__(cls)
        ctx._setup(p, N, modulus)
        return ctx

    def _setup(self, p, N, modulus):
        self.p = p
        self.N = N
        self.f = len(modulus) - 1
        self.modulus = modulus
        self.pN = p ** N
        self._frob_pows = None  # rows: coords of sigma(x)^j, computed lazily

    def __eq__(self, other):
        return (isinstance(other, PrecisionContext)
                and (self.p, self.N, self.f, self.modulus)
                == (other.p, other.N, other.f, other.modulus))

    def __hash__(self):
        return hash((self.p, self.N, self.f, self.modulus))

    def __repr__(self):
        if self.f == 1:
            return f"PrecisionContext(p={self.p}, N={self.N})"
        return f"PrecisionContext(p={self.p}, N={self.N}, f={self.f})"

    def residue(self) -> "PrecisionContext":
        """The same field data at precision 1 (arithmetic in F_{p^f})."""
        return PrecisionContext._unchecked(self.p, 1, self.modulus)

    # -- raw tuple arithmetic ------------------------------------------------

    def coerce_raw(self, x):
        """Coordinates of an int, an OFElement of this context or an f-vector."""
        if isinstance(x, int):
            return (x % self.pN,) + (0,) * (self.f - 1)
        if isinstance(x, OFElement):
            if x.ctx != self:
                raise ValueError("mixed precision contexts")
            return x.coeffs
        x = tuple(int(c) % self.pN for c in x)
        if len(x) != self.f:
            raise ValueError("coefficient vector has wrong length")
        return x

    def zero_raw(self):
        return (0,) * self.f

    def one_raw(self):
        return (1,) + (0,) * (self.f - 1)

    def add_raw(self, a, b):
        pN = self.pN
        return tuple((x + y) % pN for x, y in zip(a, b))

    def sub_raw(self, a, b):
        pN = self.pN
        return tuple((x - y) % pN for x, y in zip(a, b))

    def neg_raw(self, a):
        pN = self.pN
        return tuple(-x % pN for x in a)

    def mul_raw(self, a, b):
        if self.f == 1:
            return ((a[0] * b[0]) % self.pN,)
        r = [0] * (2 * self.f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    r[i + j] += ai * bj
        m, f, pN = self.modulus, self.f, self.pN
        for i in range(len(r) - 1, f - 1, -1):
            c = r[i]
            if c:
                for j in range(f):
                    r[i - f + j] -= c * m[j]
                r[i] = 0
        return tuple(x % pN for x in r[:f])

    def sub_mul_raw(self, x, q, y):
        """The row x - q y of raw elements: every O_F elimination's one step."""
        if self.f == 1:
            q0, pN = q[0], self.pN
            return [((a[0] - q0 * b[0]) % pN,) for a, b in zip(x, y)]
        sub, mul = self.sub_raw, self.mul_raw
        return [sub(a, mul(q, b)) for a, b in zip(x, y)]

    def dot_raw(self, u, v):
        """sum_k u_k v_k over two sequences of raw elements."""
        if self.f == 1:
            return (sum(x[0] * y[0] for x, y in zip(u, v)) % self.pN,)
        return reduce(self.add_raw, map(self.mul_raw, u, v), self.zero_raw())

    def scalar_raw(self, k: int, a):
        pN = self.pN
        return tuple((k * x) % pN for x in a)

    def val_raw(self, a) -> int | None:
        """min coordinate valuation; None when a == 0 at precision."""
        v = self.N
        p = self.p
        for x in a:
            if x:
                w = 0
                while x % p == 0:
                    x //= p
                    w += 1
                if w < v:
                    v = w
                if v == 0:
                    return 0
        return None if v >= self.N else v

    def shift_raw(self, a, k: int):
        """Exact division of each coordinate's canonical representative by p^k."""
        pk = self.p ** k
        out = []
        for x in a:
            if x % pk:
                raise PrecisionLoss(f"representative not divisible by p^{k}")
            out.append(x // pk)
        return tuple(out)

    def inv_raw(self, a):
        """Inverse of a unit, by Hensel lifting from the residue field."""
        if self.f == 1:
            if a[0] % self.p == 0:
                raise NotAUnit("element is divisible by p")
            return (pow(a[0], -1, self.pN),)
        p = self.p
        if not any(x % p for x in a):
            raise NotAUnit("element is divisible by p")
        # Fermat's inverse a^{p^f - 2} in the residue field, then Newton
        x = self.residue()._pow_raw(a, p ** self.f - 2)
        k = 1
        while k < self.N:
            # x <- x(2 - a x), doubling the precision of a*x == 1
            ax = self.mul_raw(a, x)
            two_minus = self.sub_raw(self.add_raw(self.one_raw(), self.one_raw()), ax)
            x = self.mul_raw(x, two_minus)
            k *= 2
        return x

    # -- Frobenius lift ------------------------------------------------------

    def _frobenius_powers(self):
        """Coordinates of sigma(x)^j for j < f, where sigma lifts y -> y^p.

        sigma(x) is the root of the modulus congruent to x^p mod p, found by
        Newton iteration (the modulus is separable mod p, so the derivative
        is a unit at the approximate root)."""
        if self._frob_pows is not None:
            return self._frob_pows
        if self.f == 1:
            self._frob_pows = (self.one_raw(),)
            return self._frob_pows
        x = (0, 1) + (0,) * (self.f - 2)
        t = self._pow_raw(x, self.p)
        dmod = tuple((i + 1) * self.modulus[i + 1] for i in range(self.f))
        for _ in range(self.N.bit_length() + 1):
            mt = self._eval_poly_raw(self.modulus, t)
            if self.val_raw(mt) is None:
                break
            dmt = self._eval_poly_raw(dmod, t)
            t = self.sub_raw(t, self.mul_raw(mt, self.inv_raw(dmt)))
        pows = [self.one_raw()]
        for _ in range(1, self.f):
            pows.append(self.mul_raw(pows[-1], t))
        self._frob_pows = tuple(pows)
        return self._frob_pows

    def _pow_raw(self, a, e: int):
        r = self.one_raw()
        b = a
        while e:
            if e & 1:
                r = self.mul_raw(r, b)
            b = self.mul_raw(b, b)
            e >>= 1
        return r

    def _eval_poly_raw(self, coeffs, t):
        """Evaluate an integer polynomial at the raw element t (Horner)."""
        acc = self.zero_raw()
        for c in reversed(coeffs):
            acc = self.mul_raw(acc, t)
            acc = self.add_raw(acc, self.scalar_raw(int(c), self.one_raw()))
        return acc

    def frob_raw(self, a):
        if self.f == 1:
            return a
        pows = self._frobenius_powers()
        acc = self.zero_raw()
        for coeff, tp in zip(a, pows):
            if coeff:
                acc = self.add_raw(acc, self.scalar_raw(coeff, tp))
        return acc


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class OFElement:
    """Element of O_F at the context's absolute precision.

    coeffs is a length-f tuple of integers in [0, p^N), the coordinates in
    the power basis of the modulus.  For f = 1 this is an integer mod p^N.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PrecisionContext, coeffs):
        self.ctx = ctx
        self.coeffs = ctx.coerce_raw(coeffs)

    def _binop(self, other, op, reflected=False):
        """op on the coordinates of self and of an int or OFElement."""
        if not isinstance(other, (int, OFElement)):
            return NotImplemented
        o = self.ctx.coerce_raw(other)
        return OFElement(self.ctx, op(o, self.coeffs) if reflected else op(self.coeffs, o))

    def __add__(self, other):
        return self._binop(other, self.ctx.add_raw)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, self.ctx.sub_raw)

    def __rsub__(self, other):
        return self._binop(other, self.ctx.sub_raw, reflected=True)

    def __mul__(self, other):
        return self._binop(other, self.ctx.mul_raw)

    __rmul__ = __mul__

    def __neg__(self):
        return OFElement(self.ctx, self.ctx.neg_raw(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = OFElement(self.ctx, other)
        return (isinstance(other, OFElement) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.ctx.f == 1:
            return f"OF({self.coeffs[0]} mod {self.ctx.p}^{self.ctx.N})"
        return f"OF({list(self.coeffs)} mod {self.ctx.p}^{self.ctx.N})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return any(c % self.ctx.p for c in self.coeffs)

    def valuation(self) -> int | None:
        """p-adic valuation; None when the element is 0 at precision N."""
        return self.ctx.val_raw(self.coeffs)

    def unit_inverse(self) -> "OFElement":
        if not self.is_unit():
            raise NotAUnit("cannot invert: element is 0 mod p")
        return OFElement(self.ctx, self.ctx.inv_raw(self.coeffs))

    def divide_exact_p(self, k: int) -> "OFElement":
        """Divide by p^k; the canonical representative must be divisible.

        Absolute precision of the result is only N - k, but the value is
        re-embedded at precision N (higher digits unspecified-as-zero); use
        with care, mainly for Smith-normal-form internals."""
        return OFElement(self.ctx, self.ctx.shift_raw(self.coeffs, k))


def frobenius(x: OFElement) -> OFElement:
    """The Frobenius lift sigma on O_F; identity when F = Q_p.

    sigma is the ring endomorphism with sigma(x) == x^p mod p on the residue
    field, Hensel-lifted once per context.  sigma^f = id at precision N.
    """
    return OFElement(x.ctx, x.ctx.frob_raw(x.coeffs))


def teichmuller(ctx: PrecisionContext, u: int) -> OFElement:
    """The Teichmuller representative: the (p^f - 1)-th root of unity
    congruent to u mod p, computed by iterating y -> y^{p^f}."""
    if u % ctx.p == 0:
        raise NotAUnit(f"{u} is divisible by p={ctx.p}")
    y = u % ctx.pN
    q = ctx.p ** ctx.f
    for _ in range(ctx.N):
        y = pow(y, q, ctx.pN)
    return OFElement(ctx, y)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class OFMatrix:
    """Immutable matrix over O_F at fixed precision.

    `raw` holds the entries as a tuple of rows, each a tuple of coordinate
    tuples (the values the context's `*_raw` methods work on); `entries`
    and M[i, j] are OFElement views, built on each access."""

    __slots__ = ("ctx", "rows", "cols", "raw")

    def __init__(self, ctx: PrecisionContext, entries):
        """entries: rows of ints, OFElements of ctx or coordinate vectors."""
        raw = tuple(tuple(map(ctx.coerce_raw, row)) for row in entries)
        if len({len(r) for r in raw}) > 1:
            raise ValueError("ragged matrix")
        self.ctx, self.raw, self.rows, self.cols = ctx, raw, len(raw), len(raw[0]) if raw else 0

    @classmethod
    def _of(cls, ctx, raw):
        """The matrix with raw rows `raw`, neither copied nor checked."""
        M = cls.__new__(cls)
        M.ctx, M.raw, M.rows, M.cols = ctx, raw, len(raw), len(raw[0]) if raw else 0
        return M

    @classmethod
    def identity(cls, ctx, n):
        one, zero = ctx.one_raw(), ctx.zero_raw()
        return cls._of(ctx, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)))

    @classmethod
    def zero(cls, ctx, rows, cols):
        return cls._of(ctx, ((ctx.zero_raw(),) * cols,) * rows)

    @property
    def entries(self) -> tuple:
        """The entries as rows of OFElements."""
        ctx = self.ctx
        return tuple(tuple(OFElement(ctx, e) for e in row) for row in self.raw)

    def __getitem__(self, ij):
        return OFElement(self.ctx, self.raw[ij[0]][ij[1]])

    def __eq__(self, other):
        return (isinstance(other, OFMatrix) and self.ctx == other.ctx
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e[0] if self.ctx.f == 1 else list(e)) for e in row)
                         for row in self.raw)
        return f"OFMatrix[{self.rows}x{self.cols}]({body})"

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if other.ctx != self.ctx:
            raise ValueError("mixed precision contexts")
        return OFMatrix._of(self.ctx, tuple(tuple(map(op, r1, r2))
                                            for r1, r2 in zip(self.raw, other.raw)))

    def __add__(self, other):
        return self._entrywise(other, self.ctx.add_raw)

    def __sub__(self, other):
        return self._entrywise(other, self.ctx.sub_raw)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, OFElement)):
            s, mul = ctx.coerce_raw(other), ctx.mul_raw
            return OFMatrix._of(ctx, tuple(tuple(mul(e, s) for e in row) for row in self.raw))
        if other.ctx != ctx:
            raise ValueError("mixed precision contexts")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols, dot = other.transpose().raw, ctx.dot_raw
        return OFMatrix._of(ctx, tuple(tuple(dot(row, col) for col in cols)
                                       for row in self.raw))

    __rmul__ = __mul__

    def transpose(self):
        return OFMatrix._of(self.ctx, tuple(zip(*self.raw)) if self.rows
                            else ((),) * self.cols)

    def det(self) -> OFElement:
        """Exact determinant mod p^N: the signed product of the diagonal
        left by the Smith row reduction (row operations keep the
        determinant, swaps flip its sign)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        ctx = self.ctx
        a = [list(row) for row in self.raw]
        _, sign = _smith_raw(ctx, a)
        acc = reduce(ctx.mul_raw, (a[k][k] for k in range(self.rows)), ctx.one_raw())
        return OFElement(ctx, acc if sign > 0 else ctx.neg_raw(acc))

    def inverse(self) -> "OFMatrix":
        """Inverse by Gauss-Jordan on the rows of [M | I]; needs a unit det."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        ctx, n = self.ctx, self.rows
        a = [list(r + e) for r, e in zip(self.raw, OFMatrix.identity(ctx, n).raw)]
        for k in range(n):
            piv = next((i for i in range(k, n) if ctx.val_raw(a[i][k]) == 0), None)
            if piv is None:
                raise NotAUnit("matrix is not invertible over O_F")
            a[piv], a[k] = a[k], a[piv]
            inv = ctx.inv_raw(a[k][k])
            a[k] = [ctx.mul_raw(inv, e) for e in a[k]]
            for i in range(n):
                if i != k and ctx.val_raw(a[i][k]) is not None:
                    a[i] = ctx.sub_mul_raw(a[i], a[i][k], a[k])
        return OFMatrix._of(ctx, tuple(tuple(row[n:]) for row in a))

    def frobenius_map(self) -> "OFMatrix":
        """sigma applied to each entry; the matrix itself when f = 1."""
        ctx = self.ctx
        if ctx.f == 1:
            return self
        return OFMatrix._of(ctx, tuple(tuple(map(ctx.frob_raw, row)) for row in self.raw))


def _find_pivot(ctx, a, k, nrows, ncols):
    """Minimal valuation entry of the trailing block, ties in row-major order."""
    best = None
    for i in range(k, nrows):
        for j in range(k, ncols):
            v = ctx.val_raw(a[i][j])
            if v is None:
                continue
            if best is None or v < best[2]:
                best = (i, j, v)
                if v == 0:
                    return best
    return best


class SmithNormalForm:
    """Result bundle: U @ M @ V == D bit-exactly at precision N.

    exponents[i] is the p-valuation of D[i][i], or None when the diagonal
    entry is 0 at precision (the valuation cannot be decided).
    """

    __slots__ = ("U", "D", "V", "exponents")

    def __init__(self, U, D, V, exponents):
        self.U, self.D, self.V, self.exponents = U, D, V, exponents

    @property
    def rank(self) -> int:
        return sum(1 for e in self.exponents if e is not None)


def _smith_raw(ctx, a, U=None, Vt=None):
    """Smith reduction of the raw matrix `a` (lists of coefficient tuples),
    in place; returns (exponents, sign of the row and column swaps).

    Pivots have minimal valuation (ties row-major), so e_1 <= e_2 <= ...;
    None marks the diagonal past the rank, where the rest is 0 at precision.
    Each step is the row operation `ctx.sub_mul_raw`: rows clearing the
    pivot column exactly mod p^N, replayed on U when given, and the column
    operations that would clear the pivot row, replayed only on V as rows of
    its transpose Vt, so `a` ends upper triangular with the Smith diagonal.
    """
    nr = len(a)
    nc = len(a[0]) if a else 0
    n = min(nr, nc)
    exps: list[int | None] = []
    sign = 1
    for k in range(n):
        piv = _find_pivot(ctx, a, k, nr, nc)
        if piv is None:
            exps.extend([None] * (n - k))
            break
        i0, j0, v = piv
        if i0 != k:
            a[i0], a[k] = a[k], a[i0]
            if U is not None:
                U[i0], U[k] = U[k], U[i0]
            sign = -sign
        if j0 != k:
            for r in a:
                r[j0], r[k] = r[k], r[j0]
            if Vt is not None:
                Vt[j0], Vt[k] = Vt[k], Vt[j0]
            sign = -sign
        unit_inv = ctx.inv_raw(ctx.shift_raw(a[k][k], v))
        for i in range(k + 1, nr):
            e = a[i][k]
            if ctx.val_raw(e) is None:
                continue
            q = ctx.mul_raw(ctx.shift_raw(e, v), unit_inv)
            a[i][k:] = ctx.sub_mul_raw(a[i][k:], q, a[k][k:])
            if U is not None:
                U[i] = ctx.sub_mul_raw(U[i], q, U[k])
        if Vt is not None:
            for j in range(k + 1, nc):
                e = a[k][j]
                if ctx.val_raw(e) is None:
                    continue
                q = ctx.mul_raw(ctx.shift_raw(e, v), unit_inv)
                Vt[j] = ctx.sub_mul_raw(Vt[j], q, Vt[k])
        exps.append(v)
    return exps, sign


def smith_normal_form(M: OFMatrix) -> SmithNormalForm:
    """Smith normal form over the local ring O_F.

    Minimal-valuation pivots make the diagonal satisfy
    p^{e_1} | p^{e_2} | ...; U and V are invertible at precision N and the
    reconstruction U M V = D is bit-exact.
    """
    ctx = M.ctx
    nr, nc = M.rows, M.cols
    a = [list(row) for row in M.raw]
    U, Vt = (list(OFMatrix.identity(ctx, n).raw) for n in (nr, nc))
    exps, _ = _smith_raw(ctx, a, U, Vt)
    zero = ctx.zero_raw()
    D = [[a[i][i] if i == j else zero for j in range(nc)] for i in range(nr)]
    return SmithNormalForm(*(OFMatrix._of(ctx, tuple(map(tuple, m))) for m in (U, D)),
                           OFMatrix._of(ctx, tuple(zip(*Vt))), tuple(exps))


def _row_basis(snf: SmithNormalForm) -> OFMatrix:
    """A basis of the row lattice of M = U^{-1} D V^{-1}: the rows
    d_i * (V^{-1} row i) for i < rank."""
    ctx, D, vinv = snf.V.ctx, snf.D.raw, snf.V.inverse().raw
    return OFMatrix._of(ctx, tuple(tuple(ctx.mul_raw(D[i][i], x) for x in vinv[i])
                                   for i in range(snf.rank)))


def _coordinates(snf: SmithNormalForm, X: OFMatrix) -> OFMatrix | None:
    """C with C * _row_basis(snf) == X, or None when a row of X is not in the
    row lattice.

    C * basis == X is (X V)[:, i] == C[:, i] * d_i for i < rank, with the
    columns of X V past the rank 0, so C comes off X V and the divisors.
    Where d_i = p^e u, column i is only determined mod p^{N-e}; its
    representative is the exact quotient by p^e."""
    ctx, r = X.ctx, snf.rank
    divisors = [(e, ctx.inv_raw(ctx.shift_raw(snf.D.raw[i][i], e)))
                for i, e in enumerate(snf.exponents[:r])]
    rows = []
    for row in (X * snf.V).raw:
        if any(any(x) for x in row[r:]):
            return None
        try:
            rows.append(tuple(ctx.mul_raw(ctx.shift_raw(x, e), u)
                              for x, (e, u) in zip(row, divisors)))
        except PrecisionLoss:
            return None
    return OFMatrix._of(ctx, tuple(rows))


def _divide_rows(M: OFMatrix, ks) -> OFMatrix:
    """M with row i divided exactly by p^{ks[i]} (re-embedded at precision
    N); raises PrecisionLoss when a representative is not divisible."""
    shift = M.ctx.shift_raw
    return OFMatrix._of(M.ctx, tuple(tuple(shift(e, k) for e in row)
                                     for row, k in zip(M.raw, ks)))


# ---------------------------------------------------------------------------
# Newton polygons and the semilinear unit-root test
# ---------------------------------------------------------------------------

def charpoly(M: OFMatrix) -> list[OFElement]:
    """Coefficients [c_0, ..., c_d] of det(T*I - M), c_d = 1.

    Berkowitz's algorithm (Inf. Proc. Letters 18, 1984) in O(d^4) ring
    operations: the polynomial of each leading principal block is a Toeplitz
    matrix of the products R A^k S (new row R, previous block A, new column
    S) times the previous block's polynomial.  Being division-free, it is
    exact mod p^N despite the zero divisors of O_F / p^N.
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    ctx = M.ctx
    a, dot = M.raw, ctx.dot_raw
    poly = [ctx.one_raw()]  # of the leading r x r block, highest degree first
    for r in range(M.rows):
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        toeplitz = [ctx.one_raw(), ctx.neg_raw(a[r][r])]
        for _ in range(r):
            toeplitz.append(ctx.neg_raw(dot(row, col)))
            col = [dot(a[i][:r], col) for i in range(r)]
        poly = [dot([toeplitz[i - j] for j in range(min(i, r) + 1)], poly)
                for i in range(r + 2)]
    return [OFElement(ctx, c) for c in reversed(poly)]


def _lower_hull(points):
    """Lower convex hull of integer points sorted by x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull[-1] is above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(M: OFMatrix) -> list[Fraction]:
    """Valuations of the eigenvalues of the semilinear operator with matrix M.

    Computes the characteristic polynomial of the f-fold twisted product
    (the matrix of phi^f, which is O_F-linear) and reads the slopes off its
    Newton polygon, each divided by f.  Multiplicities are kept; the sum of
    the returned slopes is v_p(det M).

    Raises PrecisionLoss when a coefficient that is 0 at precision N could
    still lower the polygon.
    """
    ctx = M.ctx
    prod = M
    twisted = M
    for _ in range(ctx.f - 1):
        twisted = twisted.frobenius_map()
        prod = twisted * prod
    cs = charpoly(prod)
    d = len(cs) - 1
    vals = [c.valuation() for c in cs]
    if vals[0] is None:
        raise PrecisionLoss("det(M) is 0 at precision N; smallest slopes undecidable")
    known = [(i, v) for i, v in enumerate(vals) if v is not None]
    hull = _lower_hull(known)
    # a coefficient that is 0 at precision could cut the hull only if the
    # hull passes strictly above the precision ceiling at its abscissa
    for i, v in enumerate(vals):
        if v is None and _hull_height(hull, i) > ctx.N:
            raise PrecisionLoss(f"Newton polygon vertex at index {i} undecided at N={ctx.N}")
    slopes: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        lam = Fraction(y1 - y2, x2 - x1)
        slopes.extend([lam / ctx.f] * (x2 - x1))
    assert len(slopes) == d
    return sorted(slopes)


def _hull_height(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
    return Fraction(10 ** 9)  # outside the hull span: unconstrained


def semilinear_stable_rank(M: OFMatrix) -> int:
    """Stabilized rank of the mod-p reduction composed with Frobenius.

    Reduces M to B over the residue field and forms the matrix of the
    d*f-th iterate of x -> sigma(x) B (images of basis vectors in rows);
    returns its rank.  Rank 0 certifies that the twisted products of B
    tend to 0, i.e. the operator has no slope-0 part.
    """
    rctx = M.ctx.residue()
    B = OFMatrix(rctx, M.raw)  # each coordinate reduced mod p
    acc = B
    for _ in range(M.rows * rctx.f - 1):
        # matrix of the next iterate of x -> sigma(x) B (images in rows)
        acc = acc.frobenius_map() * B
    exps, _ = _smith_raw(rctx, [list(row) for row in acc.raw])
    return sum(e is not None for e in exps)


# ---------------------------------------------------------------------------
# exact rational elimination and semisimplicity
# ---------------------------------------------------------------------------

def rational_reduce(rows, ncols: int):
    """Gauss-Jordan elimination over exact rationals, pivoting on the first
    ncols columns; returns (rank, det, reduced rows).

    Reducing [M | I] on ncols = n columns leaves [I | M^{-1}] when M is
    invertible.  det is the determinant of the leading ncols x ncols block
    when there are exactly ncols rows, else 0.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    rank = 0
    for col in range(ncols):
        if rank == len(a):
            break
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        pv = a[rank][col]
        det *= pv
        a[rank] = [x / pv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        rank += 1
    if not rank == len(a) == ncols:
        det = Fraction(0)
    return rank, det, a


def rational_rank(M) -> int:
    """Rank of a matrix with Fraction entries."""
    return rational_reduce(M, len(M[0]) if M else 0)[0]


def is_semisimple_at(M, alpha) -> bool:
    """Whether the exact rational matrix M is semisimple at alpha, i.e.
    ker(M - alpha) and im(M - alpha) intersect trivially.

    Equivalent to rank(M - alpha) == rank((M - alpha)^2); meaningful only
    for exact input, never for precision-truncated matrices.
    """
    alpha = Fraction(alpha)
    n = len(M)
    A = [[Fraction(M[i][j]) - (alpha if i == j else 0) for j in range(n)]
         for i in range(n)]
    A2 = [[sum(A[i][k] * A[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return rational_rank(A) == rational_rank(A2)
