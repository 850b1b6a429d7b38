"""Packed series arithmetic for O_F[[pi]]/(pi^M) when f = 1.

A truncated series with coefficients in [0, p^N) is packed into a single
integer, one byte-aligned limb per coefficient, so that a series product is
one big-integer multiplication (Kronecker substitution).  Limbs are sized to
absorb a full truncated convolution plus a bounded number of accumulated
products, which lets matrix products and linear combinations sum raw limb
data and normalize once.

Results are bit-identical to the naive convolution; the test suite checks
this against an independent reference multiplier.
"""

from __future__ import annotations


class SeriesKernel:
    """Arithmetic for one (p, N, M) triple.  Stateless apart from caches."""

    __slots__ = ("p", "N", "M", "pN", "limb", "lbits", "mask", "max_terms",
                 "_tables")

    #: Accumulation headroom.  A raw product limb sums at most M terms, each
    #: a product of two reduced coefficients (< p^{2N}), so it stays below
    #: M * p^{2N}; these 7 extra bits let one limb hold the sum of at least
    #: 2^7 = 128 raw products before a normalize.  `max_terms` is the exact
    #: capacity in terms below p^{2N}: a d x d `mat_mul` spends d * M of it
    #: (d <= 128 always fits), a `dot` one per coefficient (the solver's
    #: mixing step sums d^2 + 1).  Both check before they accumulate.
    HEADROOM_BITS = 7

    def __init__(self, p: int, N: int, M: int):
        self.p, self.N, self.M = p, N, M
        self.pN = p ** N
        bits = 2 * (self.pN - 1).bit_length() + max(M, 1).bit_length() + self.HEADROOM_BITS
        self.limb = (bits + 7) // 8
        self.lbits = 8 * self.limb
        self.mask = (1 << (self.lbits * M)) - 1
        self.max_terms = ((1 << self.lbits) - 1) // (self.pN - 1) ** 2
        self._tables: dict = {}

    def _room(self, terms: int):
        """Raise before a sum of `terms` limb terms (each < p^{2N}) could
        carry out of its limb."""
        if terms > self.max_terms:
            raise OverflowError(
                f"packed accumulation of {terms} terms overflows the "
                f"{self.lbits}-bit limbs of the (p, N, M) = "
                f"({self.p}, {self.N}, {self.M}) kernel, which hold "
                f"{self.max_terms}")

    # -- packing -----------------------------------------------------------

    def pack(self, coeffs) -> int:
        limb = self.limb
        return int.from_bytes(
            b"".join(c.to_bytes(limb, "little") for c in coeffs), "little")

    def unpack(self, x: int) -> list[int]:
        limb, M, pN = self.limb, self.M, self.pN
        data = x.to_bytes(limb * M, "little")
        return [int.from_bytes(data[i * limb:(i + 1) * limb], "little") % pN
                for i in range(M)]

    def normalize(self, x: int) -> int:
        return self.pack(self.unpack(x))

    # -- arithmetic on packed values ----------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Raw truncated product; inputs must be normalized, output limbs
        may reach M * p^{2N} and need a normalize before further products."""
        return (a * b) & self.mask

    def mul_n(self, a: int, b: int) -> int:
        return self.normalize((a * b) & self.mask)

    def dot(self, coeffs, values, acc: int = 0) -> int:
        """Raw acc + sum of coeffs[k] * values[k]: integer coefficients in
        [0, p^N) against normalized packed values, acc normalized or 0."""
        self._room(len(coeffs) + 1)
        for c, t in zip(coeffs, values):
            if c:
                acc += c * t
        return acc

    def combo(self, coeffs, table) -> int:
        """Normalized sum of coeffs[k] * table[k]; table entries normalized
        packed.

        This is the substitution workhorse: applying pi -> g to a series s
        is combo(coeffs(s), powers of g)."""
        return self.normalize(self.dot(coeffs, table) & self.mask)

    # -- substitution tables --------------------------------------------------

    def power_table(self, key, make_coeffs) -> list[int]:
        """Packed powers g^0 .. g^{M-1} (mod pi^M), cached under `key`;
        make_coeffs() supplies the coefficients of g on a cache miss.

        g must have pi-valuation >= 1 so that the powers stay triangular."""
        table = self._tables.get(key)
        if table is not None:
            return table
        g_coeffs = list(make_coeffs())[:self.M]
        one = self.pack([1] + [0] * (self.M - 1))
        g = self.pack(g_coeffs + [0] * (self.M - len(g_coeffs)))
        table = [one]
        for _ in range(1, self.M):
            table.append(self.mul_n(table[-1], g))
        self._tables[key] = table
        return table

    # -- matrices of packed series -------------------------------------------

    def mat_mul(self, A, B, d: int):
        """Product of d x d matrices of normalized packed series."""
        self._room(d * self.M)
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


_kernels: dict[tuple[int, int, int], SeriesKernel] = {}


def get_kernel(p: int, N: int, M: int) -> SeriesKernel:
    key = (p, N, M)
    k = _kernels.get(key)
    if k is None:
        k = _kernels[key] = SeriesKernel(p, N, M)
    return k
