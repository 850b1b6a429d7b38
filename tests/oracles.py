"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own code paths: integer
determinants by permutation expansion, rational kernel bases by hand-rolled
elimination, lattice equality through unit minors, irreducibility of a
residue modulus by trial division (the library runs Rabin's test in
F_p[x]/(m) on its own arithmetic).  The eliminations over
O_F / p^N are the earlier separate loops: the characteristic polynomial by
permutation expansion, and Smith form, determinant and residue rank each
with its own reduction.  The lattice oracle solves for H and forms the
residual and the q-cokernel product with matrices of series and two full
matrix products per step, none of the packed pipeline of `wach.py`.  Its
series ring is either the library's (`APlusSeries` and the shared
ingredients) or `SeriesRef`: one `OFElement` per coefficient, the schoolbook
convolution, Horner substitution and a coefficientwise Frobenius, the object
arithmetic that the packed kernel replaced for f > 1.  The packed kernel's
whole-integer reduction is checked against the per-limb reduction it
replaced: split the limbs, fold each slot mod the modulus, then `%` p^N
coordinate by coordinate.  The
Iwasawa oracle keeps every coefficient as its own `Fraction` and twists by
Horner substitution T -> a + bT, where the library holds integer numerators
over one denominator and twists by integer Taylor shifts.  The row-lattice
solvers are the earlier ones that `padic._row_basis` and
`padic._coordinates` replaced: coordinates in a row basis by a second Smith
reduction of that basis and a product with its U, the ladder's kernel
index in the column convention, and each ladder map reduced once per use.
`OFMatrix` holds raw coordinate rows; the object-level matrix arithmetic it
replaced (one `OFElement` per entry, combined through the `OFElement`
operators) is kept as `add_ref`, `mul_ref`, `inverse_ref`,
`coordinates_ref` and their kin.  `ti_scalar`, `evaluate_component` and
`max_denominator_vp` are test helpers that no library code calls.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

from wachlab.aplus import APlusSeries, exact_div_pi, gamma_series, phi_series, shift_pi
from wachlab.errors import (
    NonConvergence,
    NotAUnit,
    NotExact,
    NotIntegral,
    PrecisionLoss,
    ValidationError,
)
from wachlab.filmod import FilPhiModule
from wachlab.padic import (
    OFElement,
    OFMatrix,
    frobenius,
    smith_normal_form,
    vp_fraction,
    vp_int,
)
from wachlab.wach import _ingredients


def irreducible_ref(modulus, p):
    """Whether the monic modulus (coefficients from the constant term up) is
    irreducible over F_p: trial division by every monic polynomial of degree
    1 .. f // 2 leaves a nonzero remainder."""
    f = len(modulus) - 1
    for k in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            g = list(tail) + [1]
            r = [c % p for c in modulus]
            for i in range(f - k, -1, -1):  # clear the coefficient of x^{i+k}
                c = r[i + k]
                for j in range(k + 1):
                    r[i + j] = (r[i + j] - c * g[j]) % p
            if not any(r[:k]):
                return False
    return True


def int_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, c = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                c += 1
            if c % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def lattice_is_full(rows, d, p):
    """Row span equals Z_p^d iff some d x d minor is a p-adic unit."""
    for combo in itertools.combinations(range(len(rows)), d):
        sub = [rows[i] for i in combo]
        if int_det(sub) % p:
            return True
    return False


def brute_force_strong_divisibility(raw):
    """Reference check of the lattice sum, over plain integers.

    raw: RawFilPhiModule with f = 1.  Returns the boolean verdict of
    D == sum_i p^{-i} phi(Fil^i D) computed with no library SNF."""
    p = raw.ctx.p
    d = raw.d
    rows = []
    for level, gens in enumerate(raw.fil_gens):
        if gens is None:
            continue
        img = gens * raw.Phi
        for row in img.entries:
            vals = [e.coeffs[0] for e in row]
            if any(v % p ** level for v in vals):
                return False
            rows.append([v // p ** level for v in vals])
    return lattice_is_full(rows, d, p)


def rational_kernel_basis(A):
    rows = len(A)
    cols = len(A[0])
    a = [[Fraction(x) for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def rational_rank_ref(M):
    if not M:
        return 0
    a = [[Fraction(x) for x in row] for row in M]
    rows, cols = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < rows and col < cols:
        piv = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def kernel_image_intersection_trivial(A):
    """dim(ker A ∩ im A) == 0 via dim(ker) + dim(im) == dim(ker + im)."""
    n = len(A)
    ker = rational_kernel_basis(A)
    im_cols = [[A[i][j] for i in range(n)] for j in range(n)]
    dim_ker = len(ker)
    dim_im = rational_rank_ref(im_cols)
    dim_sum = rational_rank_ref(ker + im_cols) if ker + im_cols else 0
    return dim_sum == dim_ker + dim_im


def planted_jordan_matrix(n, rng):
    """An exact rational matrix with known Jordan structure, conjugated by a
    unimodular integer matrix; returns (matrix, eigenvalues)."""
    eigs = [rng.choice([0, 1, 2, -1, 3]) for _ in range(n)]
    J = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        J[i][i] = Fraction(eigs[i])
    for i in range(n - 1):
        if eigs[i] == eigs[i + 1] and rng.random() < 0.5:
            J[i][i + 1] = Fraction(1)
    S = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-2, 3)
            for k in range(n):
                S[i][k] += c * S[j][k]
    Sinv = invert_rational(S)
    M = mat_mul_rational(mat_mul_rational(S, J), Sinv)
    return M, sorted(set(eigs))


def mat_mul_rational(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def invert_rational(A):
    n = len(A)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0)
                                       for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def rational_det_ref(m):
    """Determinant of a square Fraction matrix by forward elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        pv = a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


# ---------------------------------------------------------------------------
# eliminations over O_F / p^N: the permutation-expanded characteristic
# polynomial and separate Smith, determinant and residue-rank loops
# ---------------------------------------------------------------------------

def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def charpoly_ref(M):
    """Coefficients [c_0, ..., c_d] of det(T*I - M), expanded over all
    permutations: O(d! d) ring operations."""
    ctx = M.ctx
    n = M.rows
    m = M.entries
    coeffs = [ctx.zero_raw() for _ in range(n + 1)]
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        # product of entries of T*I - M: off-diagonal constants, diagonal T - m_ii
        poly = [ctx.one_raw()]
        for i, j in enumerate(perm):
            if i == j:
                mii = ctx.neg_raw(m[i][i].coeffs)
                new = [ctx.zero_raw() for _ in range(len(poly) + 1)]
                for k, c in enumerate(poly):
                    new[k] = ctx.add_raw(new[k], ctx.mul_raw(c, mii))
                    new[k + 1] = ctx.add_raw(new[k + 1], c)
                poly = new
            else:
                e = ctx.neg_raw(m[i][j].coeffs)
                poly = [ctx.mul_raw(c, e) for c in poly]
        for k, c in enumerate(poly):
            coeffs[k] = (ctx.add_raw if sign > 0 else ctx.sub_raw)(coeffs[k], c)
    return [OFElement(ctx, c) for c in coeffs]


def _pivot_ref(ctx, a, k, nrows, ncols):
    """Minimal valuation entry of the trailing block, ties in row-major order."""
    best = None
    for i in range(k, nrows):
        for j in range(k, ncols):
            v = ctx.val_raw(a[i][j])
            if v is not None and (best is None or v < best[2]):
                best = (i, j, v)
                if v == 0:
                    return best
    return best


def smith_normal_form_ref(M):
    """Smith normal form with every row and column operation applied to the
    working matrix, so D is read off the fully reduced matrix."""
    ctx = M.ctx
    nr, nc = M.rows, M.cols
    a = [[e.coeffs for e in row] for row in M.entries]
    U = [[ctx.one_raw() if i == j else ctx.zero_raw() for j in range(nr)] for i in range(nr)]
    V = [[ctx.one_raw() if i == j else ctx.zero_raw() for j in range(nc)] for i in range(nc)]
    exps = []
    for k in range(min(nr, nc)):
        piv = _pivot_ref(ctx, a, k, nr, nc)
        if piv is None:
            exps.extend([None] * (min(nr, nc) - k))
            break
        i0, j0, v = piv
        if i0 != k:
            a[i0], a[k] = a[k], a[i0]
            U[i0], U[k] = U[k], U[i0]
        if j0 != k:
            for r in a + V:
                r[j0], r[k] = r[k], r[j0]
        unit_inv = ctx.inv_raw(ctx.shift_raw(a[k][k], v))
        for i in range(k + 1, nr):
            e = a[i][k]
            if ctx.val_raw(e) is None:
                continue
            q = ctx.mul_raw(ctx.shift_raw(e, v), unit_inv)
            for j in range(k, nc):
                a[i][j] = ctx.sub_raw(a[i][j], ctx.mul_raw(q, a[k][j]))
            for j in range(nr):
                U[i][j] = ctx.sub_raw(U[i][j], ctx.mul_raw(q, U[k][j]))
        for j in range(k + 1, nc):
            e = a[k][j]
            if ctx.val_raw(e) is None:
                continue
            q = ctx.mul_raw(ctx.shift_raw(e, v), unit_inv)
            for i in range(k, nr):
                a[i][j] = ctx.sub_raw(a[i][j], ctx.mul_raw(q, a[i][k]))
            for i in range(nc):
                V[i][j] = ctx.sub_raw(V[i][j], ctx.mul_raw(q, V[i][k]))
        exps.append(v)
    return OFMatrix(ctx, U), OFMatrix(ctx, a), OFMatrix(ctx, V), tuple(exps)


def det_ref(M):
    """Determinant by forward elimination, multiplying the pivots as they
    are found."""
    ctx = M.ctx
    a = [[e.coeffs for e in row] for row in M.entries]
    n = M.rows
    sign = 1
    acc = ctx.one_raw()
    for k in range(n):
        piv = _pivot_ref(ctx, a, k, n, n)
        if piv is None:
            return OFElement(ctx, 0)
        i, j, v = piv
        if i != k:
            a[i], a[k] = a[k], a[i]
            sign = -sign
        if j != k:
            for r in a:
                r[j], r[k] = r[k], r[j]
            sign = -sign
        pivot = a[k][k]
        unit_inv = ctx.inv_raw(ctx.shift_raw(pivot, v))
        for i in range(k + 1, n):
            e = a[i][k]
            if ctx.val_raw(e) is None:
                continue
            q = ctx.mul_raw(ctx.shift_raw(e, v), unit_inv)
            for j in range(k, n):
                a[i][j] = ctx.sub_raw(a[i][j], ctx.mul_raw(q, a[k][j]))
        acc = ctx.mul_raw(acc, pivot)
    return OFElement(ctx, acc if sign > 0 else ctx.neg_raw(acc))


def residue_rank_ref(B):
    """Rank of a matrix over the residue field (precision 1), by
    Gauss-Jordan elimination on OFElement entries."""
    a = [list(row) for row in B.entries]
    rank = 0
    col = 0
    while rank < B.rows and col < B.cols:
        piv = next((i for i in range(rank, B.rows) if not a[i][col].is_zero()), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col].unit_inverse()
        a[rank] = [e * inv for e in a[rank]]
        for i in range(B.rows):
            if i != rank and not a[i][col].is_zero():
                c = a[i][col]
                a[i] = [e - c * g for e, g in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def stable_rank_ref(M):
    """semilinear_stable_rank with the rank taken by residue_rank_ref."""
    rctx = M.ctx.residue()
    B = OFMatrix(rctx, [[tuple(c % rctx.p for c in e.coeffs) for e in row]
                        for row in M.entries])
    acc = B
    for _ in range(M.rows * rctx.f - 1):
        acc = mul_ref(frobenius_map_ref(acc), B)
    return residue_rank_ref(acc)


# ---------------------------------------------------------------------------
# object-level matrix arithmetic: OFMatrix as it was when it held one
# OFElement per entry, every entry combined through the OFElement operators
# ---------------------------------------------------------------------------

def add_ref(A, B):
    return OFMatrix(A.ctx, [[a + b for a, b in zip(r, s)]
                            for r, s in zip(A.entries, B.entries)])


def sub_ref(A, B):
    return OFMatrix(A.ctx, [[a - b for a, b in zip(r, s)]
                            for r, s in zip(A.entries, B.entries)])


def mul_ref(A, B):
    """A * B for a matrix B, or each entry of A times a scalar B."""
    if isinstance(B, (int, OFElement)):
        return OFMatrix(A.ctx, [[e * B for e in row] for row in A.entries])
    a, b, zero = A.entries, B.entries, OFElement(A.ctx, 0)
    return OFMatrix(A.ctx, [[sum((a[i][k] * b[k][j] for k in range(A.cols)), zero)
                             for j in range(B.cols)] for i in range(A.rows)])


def transpose_ref(M):
    e = M.entries
    return OFMatrix(M.ctx, [[e[i][j] for i in range(M.rows)] for j in range(M.cols)])


def frobenius_map_ref(M):
    return OFMatrix(M.ctx, [[frobenius(e) for e in row] for row in M.entries])


def inverse_ref(M):
    """Gauss-Jordan on OFElements, pivoting on the first unit of each column."""
    ctx, n = M.ctx, M.rows
    a = [list(row) for row in M.entries]
    b = [[OFElement(ctx, int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k].is_unit()), None)
        if piv is None:
            raise NotAUnit("matrix is not invertible over O_F")
        a[k], a[piv], b[k], b[piv] = a[piv], a[k], b[piv], b[k]
        inv = a[k][k].unit_inverse()
        a[k], b[k] = [inv * e for e in a[k]], [inv * e for e in b[k]]
        for i in range(n):
            if i != k and not a[i][k].is_zero():
                q = a[i][k]
                a[i] = [e - q * g for e, g in zip(a[i], a[k])]
                b[i] = [e - q * g for e, g in zip(b[i], b[k])]
    return OFMatrix(ctx, b)


def row_basis_obj_ref(snf):
    """padic._row_basis in object arithmetic: d_i (V^{-1} row i), i < rank."""
    vinv, D = inverse_ref(snf.V).entries, snf.D.entries
    return OFMatrix(snf.V.ctx, [[D[i][i] * x for x in vinv[i]] for i in range(snf.rank)])


def coordinates_ref(snf, X):
    """padic._coordinates in object arithmetic: C off X V and the divisors."""
    r, D = snf.rank, snf.D.entries
    divisors = [(e, D[i][i].divide_exact_p(e).unit_inverse())
                for i, e in enumerate(snf.exponents[:r])]
    rows = []
    for row in mul_ref(X, snf.V).entries:
        if any(not x.is_zero() for x in row[r:]):
            return None
        try:
            rows.append([x.divide_exact_p(e) * u for x, (e, u) in zip(row, divisors)])
        except PrecisionLoss:
            return None
    return OFMatrix(X.ctx, rows)


def divide_rows_ref(M, ks):
    """Row i of M divided by p^{ks[i]}, entry by entry."""
    return OFMatrix(M.ctx, [[e.divide_exact_p(k) for e in row]
                            for row, k in zip(M.entries, ks)])


# ---------------------------------------------------------------------------
# packed kernel reduction, limb by limb
# ---------------------------------------------------------------------------

def reduce_slot_ref(ker, r):
    """Coordinates of the x-polynomial r (degree < 2f - 1) mod the kernel's
    monic modulus, then mod p^N."""
    m, f = ker.modulus, ker.f
    r = list(r)
    for i in range(len(r) - 1, f - 1, -1):
        c = r[i]
        if c:
            for j in range(f):
                r[i - f + j] -= c * m[j]
    return [c % ker.pN for c in r[:f]]


def limbs_ref(ker, x, n):
    """The n limbs of a packed value, low first."""
    data = x.to_bytes(ker.limb * n, "little")
    return [int.from_bytes(data[i * ker.limb:(i + 1) * ker.limb], "little")
            for i in range(n)]


def unpack_ref(ker, x):
    """Flat reduced coordinates of a raw packed value, slot by slot."""
    w = ker.stride
    r = limbs_ref(ker, x, w * ker.M)
    return [c for k in range(0, w * ker.M, w) for c in reduce_slot_ref(ker, r[k:k + w])]


def normalize_ref(ker, x):
    return ker.pack(unpack_ref(ker, x))


def reduce_scalar_ref(ker, x):
    return ker.scalar(reduce_slot_ref(ker, limbs_ref(ker, x, ker.stride)))


# ---------------------------------------------------------------------------
# reference series ring: one OFElement per coefficient
# ---------------------------------------------------------------------------

class SeriesRef:
    """A truncated series over O_F as a tuple of OFElement coefficients, with
    the schoolbook convolution: the object arithmetic that the packed kernel
    replaced.  Scalars (ints, OFElements) multiply coefficientwise."""

    def __init__(self, ctx, order, coeffs=()):
        items = [c if isinstance(c, OFElement) else OFElement(ctx, c)
                 for c in list(coeffs)[:order]]
        self.ctx, self.order = ctx, order
        self.coeffs = tuple(items + [OFElement(ctx, 0)] * (order - len(items)))

    def raw(self):
        """Flat coordinates, the layout of `APlusSeries.raw()`."""
        return [x for c in self.coeffs for x in c.coeffs]

    def truncate(self, n):
        return SeriesRef(self.ctx, n, self.coeffs[:n])

    def pi_valuation(self):
        return next((i for i, c in enumerate(self.coeffs) if not c.is_zero()), None)

    def _lift(self, other):
        if isinstance(other, SeriesRef):
            return other
        return SeriesRef(self.ctx, self.order, [other])

    def __add__(self, other):
        other = self._lift(other)
        return SeriesRef(self.ctx, min(self.order, other.order),
                         [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._lift(other)
        return SeriesRef(self.ctx, min(self.order, other.order),
                         [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        ctx = self.ctx
        if not isinstance(other, SeriesRef):
            return SeriesRef(ctx, self.order, [c * other for c in self.coeffs])
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n):
            acc = ctx.zero_raw()
            for i in range(k + 1):
                acc = ctx.add_raw(acc, ctx.mul_raw(a[i].coeffs, b[k - i].coeffs))
            out.append(OFElement(ctx, acc))
        return SeriesRef(ctx, n, out)


def _binom(c, k):
    """C(c, k) for any integer c, exactly."""
    num = 1
    for i in range(k):
        num = num * (c - i) // (i + 1)
    return num


def shift_ref(s, k):
    return SeriesRef(s.ctx, s.order + k, [0] * k + list(s.coeffs))


def div_ref(s, k):
    assert all(c.is_zero() for c in s.coeffs[:k]), "inexact pi-division"
    return SeriesRef(s.ctx, s.order - k, s.coeffs[k:])


def substitute_ref(s, g):
    """s(g) for g of positive pi-valuation, by Horner's rule."""
    n = min(s.order, g.order)
    acc = SeriesRef(s.ctx, n)
    for c in reversed(s.coeffs[:n]):
        acc = acc * g.truncate(n) + c
    return acc


def gamma_ref(s, c):
    """pi -> (1+pi)^c - 1, trivial on coefficients."""
    return substitute_ref(s, SeriesRef(s.ctx, s.order,
                                       [0] + [_binom(c, k) for k in range(1, s.order)]))


def phi_ref(s):
    """sigma on each coefficient, then pi -> (1+pi)^p - 1."""
    return gamma_ref(SeriesRef(s.ctx, s.order, [frobenius(c) for c in s.coeffs]),
                     s.ctx.p)


def invert_ref(s):
    """b_n = -a_0^{-1} sum_{i >= 1} a_i b_{n-i} on OFElements."""
    a = s.coeffs
    b = [a[0].unit_inverse()]
    for n in range(1, s.order):
        acc = OFElement(s.ctx, 0)
        for i in range(1, n + 1):
            acc = acc + a[i] * b[n - i]
        b.append(-(b[0] * acc))
    return SeriesRef(s.ctx, s.order, b)


def S_ref(ctx, order, c):
    """S = ((1+pi)^{pc} - 1) / ((1+pi)^p - 1): for c > 0 by exact integer
    polynomial division, for c < 0 as -(1+pi)^{pc} S_{-c}."""
    p = ctx.p
    if c < 0:
        return S_ref(ctx, order, -c) * SeriesRef(
            ctx, order, [-_binom(p * c, k) for k in range(order)])
    num = [_binom(p * c, k + 1) for k in range(p * c)]  # ((1+pi)^{pc} - 1)/pi
    quot = [0] * max(len(num) - p + 1, 0)                # q is monic of degree p-1
    for k in reversed(range(len(quot))):
        quot[k] = num[k + p - 1]
        for j in range(p):
            num[k + j] -= quot[k] * _binom(p, j + 1)
    assert not any(num)
    return SeriesRef(ctx, order, quot)


class IngredientsRef:
    """The series of `wach._Ingredients` on `SeriesRef`, by another route:
    mu by inverting u, mu^{-1} by inverting mu back, both gamma images by
    Horner substitution (`gamma_ref`) and S from `S_ref`, where the library
    uses ring identities and substitutes gamma into nothing.  `power` splits
    s^r as s^{r//2} s^{r - r//2}, where the library multiplies the power
    below by s."""

    def __init__(self, ctx, order, c):
        p = ctx.p
        q = SeriesRef(ctx, order, [_binom(p, k + 1) for k in range(p)])
        mu = invert_ref(SeriesRef(ctx, order, [_binom(p, k + 1) // p for k in range(p - 1)]))
        qmu = q * mu
        mu_inv = invert_ref(mu)
        self.S = S = S_ref(ctx, order, c)
        pi_c = SeriesRef(ctx, order, [_binom(c, k + 1) for k in range(order)])
        rho = pi_c * invert_ref(S) * gamma_ref(mu_inv, c)
        self._series = {"q": q, "rho": rho, "tau": rho * mu, "qmu": qmu,
                        "nu": gamma_ref(qmu, c), "muinv": mu_inv}
        self._powers = {}

    def power(self, name, r):
        key = (name, r)
        if key not in self._powers:
            s = self._series[name]
            self._powers[key] = (SeriesRef(s.ctx, s.order, [1]) if r == 0 else s if r == 1
                                 else self.power(name, r // 2) * self.power(name, r - r // 2))
        return self._powers[key]


#: The series ring a lattice oracle computes in.  LIBRARY: `APlusSeries`, the
#: packed kernel and the shared ingredients (affordable at every size; the
#: oracle then differs from `wach.py` in its solver and matrix steps only).
#: REFERENCE: `SeriesRef` and its own ingredients, none of the kernel (for
#: small sizes, and for f > 1, where the kernel's layout is what is tested).
LIBRARY = SimpleNamespace(series=APlusSeries, phi=phi_series, gamma=gamma_series,
                          ingredients=_ingredients, shift=shift_pi, div=exact_div_pi)
REFERENCE = SimpleNamespace(series=SeriesRef, phi=phi_ref, gamma=gamma_ref,
                            ingredients=IngredientsRef, shift=shift_ref, div=div_ref)


# ---------------------------------------------------------------------------
# lattice construction on series matrices
# ---------------------------------------------------------------------------

def _smat_mul(A, B):
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


def _smat_sub(A, B):
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(A, B)]


def _smat_valuation(A, weight):
    """min of i + weight * v_p(c_i) over entries and coefficients; None if 0."""
    best = None
    for row in A:
        for s in row:
            for i, c in enumerate(s.coeffs):
                v = c.valuation()
                if v is not None and (best is None or i + weight * v < best):
                    best = i + weight * v
    return best


def _smat_identity(ring, ctx, d, order):
    return [[ring.series(ctx, order, [int(i == j)]) for j in range(d)] for i in range(d)]


def lattice_oracle(D, c, order, initial=None, ring=LIBRARY, levels=None):
    """(P, Q, H, G, residual valuation, iterations) for gamma_matrix(D, c,
    order): P = Diag((q mu)^{r_i}) A, Q from A^{-1} Diag(tau^{r_i}) A, the
    iteration H <- Q + C phi(H) P with C = A^{-1} Diag(q^{p-1-r} rho^r) and
    two full matrix products per step, and gamma(P) G - phi(G) P formed
    entry by entry, all in `ring`.

    `levels` (pi-orders n_0 < ... < n_k = order - (p-1)) runs that iteration
    at each order n + (p-1) in turn, from its own ingredients, each level
    seeded with the H of the one below padded with zeros; `iterations` is
    then the sum over the levels."""
    ctx = D.ctx
    p = ctx.p
    H, iterations = initial, 0
    for n in levels or [order - (p - 1)]:
        if levels and H is not None:
            H = [[ring.series(ctx, n, h.coeffs) for h in row] for row in H]
        P, Q, H, steps = _oracle_solve(D, c, n + p - 1, H, ring)
        iterations += steps
    G = [[e + ring.shift(h, p - 1) for e, h in zip(erow, hrow)]
         for erow, hrow in zip(_smat_identity(ring, ctx, D.d, order), H)]
    return P, Q, H, G, residual_oracle(D, c, P, G, order, ring), iterations


def _oracle_solve(D, c, order, initial, ring):
    """(P, Q, H, iterations) of the direct iteration at `order`, from
    `initial` (default Q)."""
    ctx = D.ctx
    p, d, A = ctx.p, D.d, D.A.entries
    ing = ring.ingredients(ctx, order, c)
    ainv = D.A.inverse().entries
    mh = order - (p - 1)
    P = [[ing.power("qmu", D.jumps[i]) * A[i][j] for j in range(d)] for i in range(d)]
    w = {r: ring.div(ing.power("tau", r) - 1, p - 1) for r in set(D.jumps)}
    Q = [[_sum_series([w[D.jumps[k]] * (ainv[i][k] * A[k][j]) for k in range(d)])
          for j in range(d)] for i in range(d)]
    z = {r: (ing.power("q", p - 1 - r) * ing.power("rho", r)).truncate(mh)
         for r in set(D.jumps)}
    C = [[z[D.jumps[j]] * ainv[i][j] for j in range(d)] for i in range(d)]
    Ph = [[e.truncate(mh) for e in row] for row in P]
    window = max(d * ctx.f * ctx.N, 4)
    H = Q if initial is None else [[ring.series(ctx, e.order, e.coeffs) for e in row]
                                   for row in initial]
    best, stale, iterations = -1, 0, 0
    while True:
        iterations += 1
        L = _smat_mul(_smat_mul(C, [[ring.phi(h) for h in row] for row in H]), Ph)
        Hnew = [[q + l for q, l in zip(qrow, lrow)] for qrow, lrow in zip(Q, L)]
        delta = _smat_valuation(_smat_sub(Hnew, H), p - 1)
        H = Hnew
        if delta is None:
            return P, Q, H, iterations
        if delta > best:
            best, stale = delta, 0
        else:
            stale += 1
            if stale >= window:
                raise NonConvergence("oracle iteration stalled")


def _sum_series(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def residual_oracle(D, c, P, G, order, ring=LIBRARY):
    """Combined valuation of gamma(P) G - phi(G) P, gamma(P) taken as
    Diag(gamma(q mu)^{r_i}) A; None when it vanishes."""
    ing = ring.ingredients(D.ctx, order, c)
    gP = [[ing.power("nu", D.jumps[i]) * D.A.entries[i][j] for j in range(D.d)]
          for i in range(D.d)]
    residual = _smat_sub(_smat_mul(gP, G),
                         _smat_mul([[ring.phi(g) for g in row] for row in G], P))
    return _smat_valuation(residual, D.ctx.p - 1)


def q_cokernel_oracle(D, c, P, order, ring=LIBRARY):
    """A^{-1} Diag(q^{r_d - r_i} mu^{-r_i}) P == q^{r_d} Id at truncation."""
    ing = ring.ingredients(D.ctx, order, c)
    ainv = D.A.inverse().entries
    r_top, d = D.jumps[-1], D.d
    cand = [[(ing.power("q", r_top - D.jumps[j]) * ing.power("muinv", D.jumps[j]))
             * ainv[i][j] for j in range(d)] for i in range(d)]
    prod = _smat_mul(cand, P)
    return all((prod[i][j] - ing.power("q", r_top) if i == j else prod[i][j])
               .pi_valuation() is None for i in range(d) for j in range(d))


def cocycle_oracle(D, c1, c2, order, ring=REFERENCE):
    """G_{c1 c2} == gamma_{c2}(G_{c1}) G_{c2}, every G from lattice_oracle."""
    G1, G2, G12 = (lattice_oracle(D, c, order, ring=ring)[3] for c in (c1, c2, c1 * c2))
    rhs = _smat_mul([[ring.gamma(s, c2) for s in row] for row in G1], G2)
    return _smat_valuation(_smat_sub(G12, rhs), 1) is None


def ti_oracle(D, G, c, i, order, ring=REFERENCE):
    """apply_Ti on the oracle's G: (1 - c^{-1} g) ... (1 - c^{-(i-1)} g)."""
    X = _smat_identity(ring, D.ctx, D.d, order)
    cinv = OFElement(D.ctx, c).unit_inverse()
    for k in range(i - 1, 0, -1):
        scal = cinv
        for _ in range(k - 1):
            scal = scal * cinv
        gX = _smat_mul([[ring.gamma(s, c) for s in row] for row in X], G)
        X = _smat_sub(X, [[s * scal for s in row] for row in gX])
    return X


def ti_scalar(ctx, c: int, i: int):
    """The mod-pi scalar prod_{k=1}^{i-1} (1 - c^{-k}) of T_i and its
    valuation, in OFElement arithmetic.

    For the pro-cyclic generator c = 1 + p the factor 1 - c^{-1} has
    valuation 1, so the scalar need not be a unit."""
    cinv = OFElement(ctx, c).unit_inverse()
    acc = OFElement(ctx, 1)
    power = OFElement(ctx, 1)
    for _ in range(1, i):
        power = power * cinv
        acc = acc * (OFElement(ctx, 1) - power)
    return acc, acc.valuation()


# ---------------------------------------------------------------------------
# Iwasawa layer: the Fraction-coefficient element and affine substitution
# ---------------------------------------------------------------------------

class IwasawaElementRef:
    """components[i][k]: coefficient of T^k in the e_i-component, a Fraction."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx, components):
        self.ctx = ctx
        comps = []
        for series in components:
            row = [Fraction(c) for c in series][: ctx.M_T]
            row += [Fraction(0)] * (ctx.M_T - len(row))
            comps.append(tuple(row))
        if len(comps) != ctx.p - 1:
            raise ValueError(f"expected {ctx.p - 1} components")
        self.components = tuple(comps)

    @classmethod
    def from_component(cls, ctx, i, series):
        comps = [[0] for _ in range(ctx.p - 1)]
        comps[i % (ctx.p - 1)] = list(series)
        return cls(ctx, comps)

    def __add__(self, other):
        return IwasawaElementRef(self.ctx, [[a + b for a, b in zip(x, y)]
                                            for x, y in zip(self.components,
                                                            other.components)])

    def __sub__(self, other):
        return IwasawaElementRef(self.ctx, [[a - b for a, b in zip(x, y)]
                                            for x, y in zip(self.components,
                                                            other.components)])

    def __neg__(self):
        return IwasawaElementRef(self.ctx, [[-a for a in x] for x in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IwasawaElementRef(self.ctx, [[a * other for a in x]
                                                for x in self.components])
        M = self.ctx.M_T
        out = []
        for x, y in zip(self.components, other.components):
            prod = [Fraction(0)] * M
            for i, xi in enumerate(x):
                if xi:
                    for j in range(M - i):
                        if y[j]:
                            prod[i + j] += xi * y[j]
            out.append(prod)
        return IwasawaElementRef(self.ctx, out)

    def max_denominator_vp(self) -> int:
        worst = 0
        for comp in self.components:
            for c in comp:
                if c:
                    v = vp_fraction(c, self.ctx.p)
                    if v < -worst:
                        worst = -v
        return worst

    def is_integral(self) -> bool:
        return all(c.denominator % self.ctx.p for comp in self.components
                   for c in comp)


def _affine_substitute(series, a: Fraction, b: Fraction, M: int):
    """f(T) -> f(a + b T) by Horner; degree is preserved, no truncation loss."""
    acc = [Fraction(0)] * M
    for c in reversed(series):
        new = [Fraction(0)] * M
        for k in range(M - 1, -1, -1):
            if acc[k]:
                new[k] += acc[k] * a
                if k + 1 < M:
                    new[k + 1] += acc[k] * b
        new[0] += c
        acc = new
    return acc


def twist1_ref(x):
    ctx, p = x.ctx, x.ctx.p
    return IwasawaElementRef(ctx, [
        _affine_substitute(x.components[(i + 1) % (p - 1)], Fraction(p),
                           Fraction(1 + p), ctx.M_T) for i in range(p - 1)])


def twist_minus1_ref(x):
    ctx, p = x.ctx, x.ctx.p
    return IwasawaElementRef(ctx, [
        _affine_substitute(x.components[(i - 1) % (p - 1)], Fraction(-p, 1 + p),
                           Fraction(1, 1 + p), ctx.M_T) for i in range(p - 1)])


def ell_ref(ctx, j):
    """ell_j with the logarithm of 1+p summed term by term."""
    lp = sum(Fraction((-1) ** (k + 1) * ctx.p ** k, k) for k in range(1, ctx.N + 9))
    series = [Fraction(-j)] + [Fraction((-1) ** (k + 1), k) / lp
                               for k in range(1, ctx.M_T)]
    return IwasawaElementRef(ctx, [list(series) for _ in range(ctx.p - 1)])


def evaluate_component_ref(x, i, t0):
    acc = Fraction(0)
    for c in reversed(x.components[i % (x.ctx.p - 1)]):
        acc = acc * t0 + c
    return acc


def evaluate_component(x, i, t0):
    """Finite evaluation of the library element's component-i series at a
    rational point (the truncation tail is dropped), on its numerators."""
    acc = 0
    for n in reversed(x.nums[i % (x.ctx.p - 1)]):
        acc = acc * t0 + n
    return Fraction(acc) / x.den


def max_denominator_vp(x):
    """Largest p-power in a denominator of the library element (0 for
    integral): v_p of its common denominator."""
    return vp_int(x.den, x.ctx.p)


def is_lambda_unit_ref(x):
    if not x.is_integral():
        raise NotIntegral("element has p-power denominators")
    return all(comp[0] != 0 and vp_fraction(comp[0], x.ctx.p) == 0
               for comp in x.components)


# ---------------------------------------------------------------------------
# row-lattice solvers as they were before padic._row_basis/_coordinates:
# coordinates by a second Smith reduction of the row basis, and the ladder's
# kernel from a second reduction of each map
# ---------------------------------------------------------------------------

def row_basis_ref(G):
    """(basis, exponents): rows d_i * (V^{-1} row i) of G's Smith form, or
    None for the zero lattice."""
    snf = smith_normal_form(G)
    vinv = snf.V.inverse()
    rows = []
    exps = []
    for i, e in enumerate(snf.exponents):
        if e is None:
            continue
        d_i = snf.D.entries[i][i]
        rows.append([d_i * x for x in vinv.entries[i]])
        exps.append(e)
    return OFMatrix(G.ctx, rows) if rows else None, exps


def solve_in_basis_ref(basis, X):
    """C with C * basis == X, or None; basis rows are a lattice basis."""
    snf = smith_normal_form(basis)
    r = len([e for e in snf.exponents if e is not None])
    if r != basis.rows:
        return None
    W = X * snf.V
    crows = []
    for xrow in W.entries:
        if any(not x.is_zero() for x in xrow[basis.rows:]):
            return None
        crow = []
        for i in range(basis.rows):
            e = snf.exponents[i]
            d_i = snf.D.entries[i][i]
            val = xrow[i]
            if e:
                try:
                    val = val.divide_exact_p(e)
                except PrecisionLoss:
                    return None
                d_i = d_i.divide_exact_p(e)
            crow.append(val * d_i.unit_inverse())
        crows.append(crow)
    return OFMatrix(basis.ctx, crows) * snf.U


def lattice_contains_all_ref(G, X):
    basis, _ = row_basis_ref(G)
    if basis is None:
        return all(e.is_zero() for row in X.entries for e in row)
    return solve_in_basis_ref(basis, X) is not None


def decreasing_ref(fil_gens):
    """The flag verdict of the RawFilPhiModule constructor: Fil^0 is the
    full lattice (d unit divisors in the reference Smith form) and the
    sublattices decrease."""
    fil0 = fil_gens[0]
    if fil0 is None or smith_normal_form_ref(fil0)[3] != (0,) * fil0.cols:
        return False
    for lower, higher in zip(fil_gens, fil_gens[1:]):
        if higher is not None and (lower is None
                                   or not lattice_contains_all_ref(lower, higher)):
            return False
    return True


def strong_divisibility_check_ref(raw):
    """(flag, adapted) as filmod.strong_divisibility_check, through the
    solvers above."""
    ctx = raw.ctx
    if any(g is not None and g.rows > 0 for g in raw.fil_gens[ctx.p:]):
        raise ValidationError("filtration window exceeds [0, p-1]")
    stacked = []
    for level, gens in enumerate(raw.fil_gens):
        if gens is None:
            continue
        img = gens.frobenius_map() * raw.Phi if ctx.f > 1 else gens * raw.Phi
        for row in img.entries:
            try:
                stacked.append([e.divide_exact_p(level) for e in row] if level
                               else list(row))
            except PrecisionLoss:
                return False, None
    # a nonempty level i >= N passed only as 0 mod p^N: its quotient is unknown
    for level, gens in enumerate(raw.fil_gens):
        if level >= ctx.N and gens is not None and gens.rows > 0:
            raise PrecisionLoss(f"p^-{level} phi(Fil^{level}) is undecided at N={ctx.N}")
    snf = smith_normal_form(OFMatrix(ctx, stacked))
    if not (snf.rank == raw.d and all(e == 0 for e in snf.exponents[:raw.d])):
        return False, None
    return True, extract_adapted_ref(raw)


def extract_adapted_ref(raw):
    ctx = raw.ctx
    picked: list = []
    levels: list = []
    for level in range(len(raw.fil_gens) - 1, -1, -1):
        gens = raw.fil_gens[level]
        if gens is None:
            continue
        basis, _ = row_basis_ref(gens)
        if basis is None:
            continue
        r = basis.rows
        if not picked:
            for row in basis.entries:
                picked.append(list(row))
                levels.append(level)
            continue
        if len(picked) == r:
            if solve_in_basis_ref(OFMatrix(ctx, picked), basis) is None:
                return None
            continue
        C = solve_in_basis_ref(basis, OFMatrix(ctx, picked))
        if C is None:
            return None
        snf = smith_normal_form(C)
        if snf.rank != len(picked) or any(e != 0 for e in snf.exponents):
            return None
        vinv = snf.V.inverse()
        for i in range(len(picked), r):
            w_coords = vinv.entries[i]
            picked.append([sum((w_coords[k] * basis.entries[k][j] for k in range(r)),
                               OFElement(ctx, 0)) for j in range(raw.d)])
            levels.append(level)
    if len(picked) != raw.d:
        return None
    order = list(range(raw.d))[::-1]
    B = OFMatrix(ctx, [picked[i] for i in order])
    jumps = tuple(levels[i] for i in order)
    try:
        phi_new = (B.frobenius_map() if ctx.f > 1 else B) * raw.Phi * B.inverse()
    except NotAUnit:
        return None
    rows = []
    for r_i, row in zip(jumps, phi_new.entries):
        try:
            rows.append([e.divide_exact_p(r_i) for e in row] if r_i else list(row))
        except PrecisionLoss:
            return None
    try:
        return FilPhiModule(ctx, jumps, OFMatrix(ctx, rows), shift=0)
    except ValidationError:
        return None


def saturated_kernel_ref(f):
    """Saturated kernel of f as columns of its V past the rank, or None."""
    snf = smith_normal_form(f)
    n = f.cols
    cols = [i for i in range(n) if i >= len(snf.exponents) or snf.exponents[i] is None]
    if not cols:
        return None
    return OFMatrix(f.ctx, [[snf.V.entries[i][j] for j in cols] for i in range(n)])


def finite_index_in_ref(K, img):
    """length of the column span of K over that of img, in the column
    convention, with U and a diagonal solve."""
    snf = smith_normal_form(K)
    if any(e != 0 for e in snf.exponents):
        raise NotExact("kernel basis not primitive")
    lifted = snf.U * img
    r = K.cols
    for i in range(r, K.rows):
        if any(not e.is_zero() for e in lifted.entries[i]):
            raise NotExact("image does not lie in the kernel of the next map")
    dinv = [snf.D.entries[i][i].unit_inverse() for i in range(r)]
    coords = OFMatrix(K.ctx, [[dinv[i] * e for e in lifted.entries[i]] for i in range(r)])
    sub = smith_normal_form(snf.V * coords)
    if sub.rank != r:
        raise NotExact("rank drop: sequence not exact after inverting p")
    return sum(e for e in sub.exponents if e is not None)


def exact_sequence_exponent_ref(maps):
    """cep.exact_sequence_exponent over a list of maps, one reduction per
    use of a map."""
    k = len(maps)
    ranks = [maps[0].cols] + [f.rows for f in maps]
    if smith_normal_form(maps[0]).rank != ranks[0]:
        raise NotExact("first map has a kernel: not exact at the left end")
    lengths = [0]
    for i in range(1, k):
        ker = saturated_kernel_ref(maps[i])
        ker_rank = 0 if ker is None else ker.cols
        if smith_normal_form(maps[i - 1]).rank != ker_rank:
            raise NotExact(f"rank bookkeeping fails at position {i}")
        lengths.append(0 if ker is None else finite_index_in_ref(ker, maps[i - 1]))
    last = smith_normal_form(maps[-1])
    if last.rank != ranks[-1]:
        raise NotExact("last map is not surjective after inverting p")
    lengths.append(sum(e for e in last.exponents if e is not None))
    return sum((1 if (k - i) % 2 == 0 else -1) * ell for i, ell in enumerate(lengths))
