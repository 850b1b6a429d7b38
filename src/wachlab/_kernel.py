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
(multipoint Kronecker substitution, Harvey 2009).  For f = 1 a slot is a
single limb.  An O_F scalar packs into f limbs (`scalar`), so scalar
multiples and linear combinations of packed series are plain integer
products and sums.

Limbs are sized to absorb a full truncated convolution plus a bounded number
of accumulated products, which lets matrix products and linear combinations
sum raw limb data and normalize once.

`normalize` reduces every limb at once with whole-integer operations: a few
limb-parallel Barrett rounds (Barrett 1986) followed by conditional
subtractions of p^N that read each limb's free top bit, which leaves every
limb canonical in [0, p^N).  For f > 1 it then folds the upper f - 1 limbs
of every slot into the low ones (x^f = -sum m_j x^j for the monic modulus
sum m_j x^j) one limb position at a time, each fold one shift, one mask and
one product, and reduces again.  The result is the canonical packed value,
so packed values compare with `==`, and `unpack` only splits its bytes.

Results are bit-identical to coefficientwise arithmetic in O_F; the test
suite checks this against independent reference arithmetic.
"""

from __future__ import annotations

from itertools import repeat


class SeriesKernel:
    """Arithmetic for one (p, N, M, modulus).  Stateless apart from caches."""

    __slots__ = ("p", "N", "M", "modulus", "f", "stride", "pN", "limb", "lbits",
                 "mask", "max_terms", "rounds", "subtractions", "_shift", "_R",
                 "_fold", "_folds", "_full", "_slot", "_slices", "_tables")

    #: Accumulation headroom.  A raw product limb sums at most M * f terms
    #: (M along pi, f along x), each a product of two reduced coordinates
    #: (< p^{2N}), so it stays below M * f * p^{2N}; these 7 extra bits let
    #: one limb hold the sum of at least 2^7 = 128 raw products before a
    #: normalize.  `max_terms` is the exact capacity in terms below p^{2N}: a
    #: d x d `mat_mul` (the module rank d in `wach.check_cocycle` and
    #: `wach.apply_Ti`) spends d * M * f of it, and d <= 128 always fits; a
    #: `dot` spends f per O_F scalar (the solver's mixing step sums d^2 + 1
    #: of them).  Both check before they accumulate.
    HEADROOM_BITS = 7

    def __init__(self, p: int, N: int, M: int, modulus=(0, 1)):
        self.p, self.N, self.M = p, N, M
        self.modulus = tuple(modulus)
        self.f = f = len(self.modulus) - 1
        self.stride = w = 2 * f - 1
        self.pN = pN = p ** N
        bits = (2 * (pN - 1).bit_length() + max(M * f, 1).bit_length()
                + self.HEADROOM_BITS)
        self.limb = (bits + 7) // 8
        self.lbits = lbits = 8 * self.limb
        self.mask = (1 << (lbits * w * M)) - 1
        self.max_terms = ((1 << lbits) - 1) // (pN - 1) ** 2
        self._tables: dict = {}
        # Barrett: with 2^s <= p^N, R = floor(2^{2s} / p^N) and
        # e = 2^{2s} - R p^N, a limb x = 2^s h + l (l < 2^s) loses q p^N,
        # q = floor(h R / 2^s) = (h R - r) / 2^s with r < 2^s, and keeps
        # exactly l + (h e + r p^N) / 2^s.  Rounds run while one saves a
        # subtraction; each subtraction then lowers the bound by p^N.  The
        # bound they leave is a few p^N, far below 2^{lbits - 1}, so the top
        # bit of every limb is free for the subtractions' test.
        self._shift = s = pN.bit_length() - 1
        self._R = (1 << 2 * s) // pN
        e, lo = (1 << 2 * s) - self._R * pN, (1 << s) - 1
        b, self.rounds = (1 << lbits) - 1, 0
        while True:
            nb = lo + (((b >> s) * e + lo * pN) >> s)
            if nb // pN >= b // pN:
                break
            b, self.rounds = nb, self.rounds + 1
        self.subtractions = b // pN
        # fold of limb i of a slot: + limb_i * fold << (i - f) limbs, which
        # adds (-m_j mod p^N) times it at limb i - f + j and clears limb i
        self._fold = sum((-m % pN) << (j * lbits)
                         for j, m in enumerate(self.modulus[:f])) - (1 << f * lbits)
        self._folds = [(i * lbits, (i - f) * lbits) for i in range(w - 1, f - 1, -1)]
        self._full = self._masks(M)
        self._slot = self._masks(1)
        self._slices = [slice((k * w + a) * self.limb, (k * w + a + 1) * self.limb)
                        for k in range(M) for a in range(f)]

    def _masks(self, slots: int) -> tuple:
        """Constants of the reduction of `slots` pi-slots: the Barrett
        quotient mask, the subtraction bias and top bits, and the mask of
        limb 0 of every slot."""
        lbits, w, s = self.lbits, self.stride, self._shift
        ones = ((1 << lbits * w * slots) - 1) // ((1 << lbits) - 1)
        low = ((1 << lbits * w * slots) - 1) // ((1 << lbits * w) - 1) * ((1 << lbits) - 1)
        return (ones * ((1 << lbits - s) - 1), ones * ((1 << lbits - 1) - self.pN),
                ones << lbits - 1, low)

    def _reduce(self, x: int, masks) -> int:
        """Raw x with every limb brought into [0, p^N)."""
        quot, bias, top, _ = masks
        s, R, pN, t = self._shift, self._R, self.pN, self.lbits - 1
        for _ in range(self.rounds):
            x -= ((((x >> s) & quot) * R >> s) & quot) * pN
        for _ in range(self.subtractions):
            x -= (((x + bias) & top) >> t) * pN
        return x

    def _canon(self, x: int, masks) -> int:
        """The canonical packed value of raw x, over the slots of `masks`."""
        x, low = self._reduce(x, masks), masks[3]
        for at, to in self._folds:
            x = self._reduce(x + (((x >> at) & low) * self._fold << to), masks)
        return x

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

    def unpack(self, x: int) -> list[int]:
        """Flat reduced coordinates (M * f of them) of a packed value."""
        data = self.normalize(x).to_bytes(self.limb * self.stride * self.M, "little")
        return list(map(int.from_bytes, map(data.__getitem__, self._slices),
                        repeat("little")))

    def normalize(self, x: int) -> int:
        """The canonical packed value (every coordinate reduced mod p^N and
        the modulus) of a raw one whose limbs carried nothing."""
        return self._canon(x, self._full)

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
        return self._canon(x, self._slot)

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
        packed, those past the end of a short table zero.

        This is the substitution workhorse: applying a ring map to a series
        s is combo(flat coordinates of s, images of the basis x^a pi^k)."""
        return self.normalize(self.dot(coeffs, table) & self.mask)

    # -- substitution tables --------------------------------------------------

    def power_table(self, key, make_coeffs, twist=None) -> list[int]:
        """`substitution_table(make_coeffs(), twist())`, cached under `key`:
        make_coeffs and twist run on a cache miss only."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self.substitution_table(
                make_coeffs(), twist() if twist is not None else None)
        return table

    def substitution_table(self, coeffs, twist=None) -> list[int]:
        """Substitution table of the map pi -> g, built afresh: entry
        k * f + a is the packed image t_a * g^k (mod pi^M) of the basis
        element x^a pi^k.  coeffs are the integer coefficients of g, twist
        the coordinates of t_0 .. t_{f-1} (default x^a, a map trivial on
        O_F).

        g must have pi-valuation >= 1 so that the powers stay triangular.
        Once a power g^k vanishes mod (p^N, pi^M), so do all higher ones:
        the table stops there, and `combo` reads its missing entries as
        zero.  For the Frobenius image pi q at M = 2(p-1)N that happens near
        k = 3(p-1)N/p."""
        pad = (0,) * (self.f - 1)
        g = self.pack([x for c in list(coeffs)[:self.M] for x in (c, *pad)])
        table = [self.pack([1])]
        for _ in range(1, self.M):
            power = self.mul_n(table[-1], g)
            if not power:
                break
            table.append(power)
        if self.f > 1:
            t = ([self.scalar(c) for c in twist] if twist is not None
                 else [1 << (a * self.lbits) for a in range(self.f)])
            table = [self.normalize(s * ta) for s in table for ta in t]
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
