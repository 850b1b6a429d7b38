"""Packed series arithmetic for O_F[[pi]]/(pi^M), O_F = W(F_{p^f}).

This module owns the coefficient format of every series.  Flat, a truncated
series is a list of M * f ints in [0, p^N): coordinate a (in the power basis
of the context's monic modulus) of the coefficient of pi^k sits at index
k * f + a.  `APlusSeries` stores exactly this list.

Packed, the same series is one integer with one byte-aligned limb per
coordinate and a pi-slot of 2f - 1 limbs per coefficient: the f coordinates
fill the low limbs and the upper f - 1 limbs of a normalized value are zero.
A product of two slots is a polynomial in x of degree at most 2f - 2, which
stays inside its slot, so a series product is one big-integer multiplication
(multipoint Kronecker substitution, Harvey 2009) and `unpack` reduces each
slot mod the modulus, then mod p^N.  For f = 1 a slot is a single limb.  An
O_F scalar packs into f limbs (`scalar`), so scalar multiples and linear
combinations of packed series are plain integer products and sums.

Limbs are sized to absorb a full truncated convolution plus a bounded number
of accumulated products, which lets matrix products and linear combinations
sum raw limb data and normalize once.

Results are bit-identical to coefficientwise arithmetic in O_F; the test
suite checks this against independent reference arithmetic.
"""

from __future__ import annotations


class SeriesKernel:
    """Arithmetic for one (p, N, M, modulus).  Stateless apart from caches."""

    __slots__ = ("p", "N", "M", "modulus", "f", "stride", "pN", "limb", "lbits",
                 "mask", "max_terms", "_tables")

    #: Accumulation headroom.  A raw product limb sums at most M * f terms
    #: (M along pi, f along x), each a product of two reduced coordinates
    #: (< p^{2N}), so it stays below M * f * p^{2N}; these 7 extra bits let
    #: one limb hold the sum of at least 2^7 = 128 raw products before a
    #: normalize.  `max_terms` is the exact capacity in terms below p^{2N}: a
    #: d x d `mat_mul` spends d * M * f of it (d <= 128 always fits), a `dot`
    #: f per O_F scalar (the solver's mixing step sums d^2 + 1 of them).
    #: Both check before they accumulate.
    HEADROOM_BITS = 7

    def __init__(self, p: int, N: int, M: int, modulus=(0, 1)):
        self.p, self.N, self.M = p, N, M
        self.modulus = tuple(modulus)
        self.f = f = len(self.modulus) - 1
        self.stride = 2 * f - 1
        self.pN = p ** N
        bits = (2 * (self.pN - 1).bit_length() + max(M * f, 1).bit_length()
                + self.HEADROOM_BITS)
        self.limb = (bits + 7) // 8
        self.lbits = 8 * self.limb
        self.mask = (1 << (self.lbits * self.stride * M)) - 1
        self.max_terms = ((1 << self.lbits) - 1) // (self.pN - 1) ** 2
        self._tables: dict = {}

    def _room(self, terms: int):
        """Raise before a sum of `terms` limb terms (each < p^{2N}) could
        carry out of its limb."""
        if terms > self.max_terms:
            raise OverflowError(
                f"packed accumulation of {terms} terms overflows the "
                f"{self.lbits}-bit limbs of the (p, N, M, f) = "
                f"({self.p}, {self.N}, {self.M}, {self.f}) kernel, which hold "
                f"{self.max_terms}")

    # -- packing -----------------------------------------------------------

    def pack(self, coords) -> int:
        """Packed value of flat coordinates; missing trailing ones are 0."""
        limb, f = self.limb, self.f
        if f > 1:  # leave the upper f - 1 limbs of every slot empty
            pad = (0,) * (f - 1)
            coords = [x for k in range(0, len(coords), f)
                      for x in (*coords[k:k + f], *pad)]
        return int.from_bytes(
            b"".join(c.to_bytes(limb, "little") for c in coords), "little")

    def _limbs(self, x: int, n: int) -> list[int]:
        limb = self.limb
        data = x.to_bytes(limb * n, "little")
        return [int.from_bytes(data[i * limb:(i + 1) * limb], "little")
                for i in range(n)]

    def _reduce(self, r: list[int]) -> list[int]:
        """Coordinates of the x-polynomial r (degree < 2f - 1) mod the
        modulus, then mod p^N."""
        m, f, pN = self.modulus, self.f, self.pN
        for i in range(len(r) - 1, f - 1, -1):
            c = r[i]
            if c:
                for j in range(f):
                    r[i - f + j] -= c * m[j]
        return [c % pN for c in r[:f]]

    def unpack(self, x: int) -> list[int]:
        """Flat reduced coordinates (M * f of them) of a packed value."""
        limb, M, pN, w = self.limb, self.M, self.pN, self.stride
        if w == 1:
            data = x.to_bytes(limb * M, "little")
            return [int.from_bytes(data[i * limb:(i + 1) * limb], "little") % pN
                    for i in range(M)]
        r = self._limbs(x, w * M)
        return [c for k in range(0, w * M, w) for c in self._reduce(r[k:k + w])]

    def normalize(self, x: int) -> int:
        return self.pack(self.unpack(x))

    # -- O_F scalars -----------------------------------------------------------

    def scalar(self, coords) -> int:
        """An O_F element (its f coordinates) as an f-limb integer: times a
        normalized packed series it gives the packed scalar multiple, raw."""
        lbits = self.lbits
        return sum(c << (a * lbits) for a, c in enumerate(coords))

    def scalars(self, coords) -> list[int]:
        """`scalar` of each coefficient of flat coordinates."""
        f = self.f
        return [self.scalar(coords[k:k + f]) for k in range(0, len(coords), f)]

    def flat(self, scalars) -> list[int]:
        """Flat coordinates of reduced scalars; inverse of `scalars`."""
        if self.f == 1:
            return list(scalars)
        return [c for x in scalars for c in self._limbs(x, self.f)]

    def reduce_scalar(self, x: int) -> int:
        """The reduced scalar of a raw one: a sum of at most M products of
        two reduced scalars, or one such product."""
        if self.f == 1:
            return x % self.pN
        return self.scalar(self._reduce(self._limbs(x, self.stride)))

    # -- arithmetic on packed values ----------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Raw truncated product; inputs must be normalized, output limbs
        may reach M * f * p^{2N} and need a normalize before further
        products."""
        return (a * b) & self.mask

    def mul_n(self, a: int, b: int) -> int:
        return self.normalize((a * b) & self.mask)

    def dot(self, coeffs, values, acc: int = 0) -> int:
        """Raw acc + sum of coeffs[k] * values[k]: `scalar` coefficients (or
        plain integers in [0, p^N)) against normalized packed values, acc
        normalized or 0."""
        self._room(len(coeffs) * self.f + 1)
        for c, t in zip(coeffs, values):
            if c:
                acc += c * t
        return acc

    def combo(self, coeffs, table) -> int:
        """Normalized sum of coeffs[k] * table[k]; table entries normalized
        packed.

        This is the substitution workhorse: applying a ring map to a series
        s is combo(flat coordinates of s, images of the basis x^a pi^k)."""
        return self.normalize(self.dot(coeffs, table) & self.mask)

    # -- substitution tables --------------------------------------------------

    def power_table(self, key, make_coeffs, twist=None) -> list[int]:
        """Substitution table of the map pi -> g, cached under `key`:
        entry k * f + a is the packed image t_a * g^k (mod pi^M) of the basis
        element x^a pi^k.  make_coeffs() supplies the integer coefficients of
        g, twist() the coordinates of t_0 .. t_{f-1} (default x^a, a map
        trivial on O_F), both on a cache miss only.

        g must have pi-valuation >= 1 so that the powers stay triangular."""
        table = self._tables.get(key)
        if table is not None:
            return table
        pad = (0,) * (self.f - 1)
        g = self.pack([x for c in list(make_coeffs())[:self.M] for x in (c, *pad)])
        table = [self.pack([1])]
        for _ in range(1, self.M):
            table.append(self.mul_n(table[-1], g))
        if self.f > 1:
            t = ([self.scalar(c) for c in twist()] if twist is not None
                 else [1 << (a * self.lbits) for a in range(self.f)])
            table = [self.normalize(s * ta) for s in table for ta in t]
        self._tables[key] = table
        return table

    # -- matrices of packed series -------------------------------------------

    def mat_mul(self, A, B, d: int):
        """Product of d x d matrices of normalized packed series."""
        self._room(d * self.M * self.f)
        out = []
        for i in range(d):
            row = []
            Ai = A[i]
            for j in range(d):
                acc = 0
                for k in range(d):
                    acc += Ai[k] * B[k][j]
                row.append(self.normalize(acc & self.mask))
            out.append(row)
        return out


_kernels: dict[tuple, SeriesKernel] = {}


def get_kernel(p: int, N: int, M: int, modulus=(0, 1)) -> SeriesKernel:
    """The cached kernel for (p, N, M) over the field of the given modulus
    (default: f = 1)."""
    key = (p, N, M, tuple(modulus))
    k = _kernels.get(key)
    if k is None:
        k = _kernels[key] = SeriesKernel(p, N, M, modulus)
    return k
