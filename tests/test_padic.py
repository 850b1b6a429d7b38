"""Base ring layer: Frobenius lift, Teichmuller lifts, SNF, Newton slopes,
stable rank, semisimplicity."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from wachlab import (
    NotAUnit,
    OFElement,
    OFMatrix,
    PrecisionContext,
    PrecisionLoss,
    frobenius,
    is_semisimple_at,
    newton_slopes,
    semilinear_stable_rank,
    smith_normal_form,
    teichmuller,
)
from wachlab.padic import _coordinates, _row_basis, rational_rank

from oracles import (
    irreducible_ref,
    lattice_contains_all_ref,
    row_basis_ref,
    solve_in_basis_ref,
)


def rand_matrix(ctx, d, rng):
    return OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)])


def rand_unit_matrix(ctx, d, rng):
    while True:
        m = rand_matrix(ctx, d, rng)
        if m.det().is_unit():
            return m


class TestContext:
    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            PrecisionContext(2, 4)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrecisionContext(9, 4)

    def test_rejects_reducible_modulus(self):
        # x^2 - 1 splits over F_3
        with pytest.raises(ValueError):
            PrecisionContext(3, 4, f=2, modulus=(-1, 0, 1))

    def test_default_modulus_irreducible(self):
        ctx = PrecisionContext(3, 4, f=2)
        assert len(ctx.modulus) == 3 and ctx.modulus[-1] == 1

    @pytest.mark.parametrize("p, degrees", [(3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))])
    def test_irreducibility_against_trial_division(self, p, degrees):
        moduli = [tail + (1,) for f in degrees
                  for tail in itertools.product(range(p), repeat=f)]
        if p == 3:
            moduli.append((-1, 0, 1))
        for m in moduli:
            try:
                PrecisionContext(p, 2, f=len(m) - 1, modulus=m)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == irreducible_ref(m, p), m

    @pytest.mark.parametrize("p, f, modulus", [
        (3, 2, (1, 0, 1)), (3, 3, (1, 0, 2, 1)), (3, 4, (1, 0, 1, 1, 1)),
        (3, 5, (1, 0, 0, 0, 2, 1)), (5, 2, (1, 1, 1)), (5, 4, (1, 0, 1, 1, 1)),
        (7, 3, (1, 0, 1, 1)), (11, 3, (1, 0, 4, 1)), (101, 3, (1, 0, 1, 1))])
    def test_default_modulus_table(self, p, f, modulus):
        assert PrecisionContext(p, 4, f=f).modulus == modulus

    @pytest.mark.parametrize("f, modulus", [(3, (1, 0, 1, 1)), (4, (1, 0, 0, 3, 1))])
    def test_default_modulus_large_p(self, f, modulus):
        start = time.perf_counter()
        ctx = PrecisionContext(997, 20, f=f)
        assert time.perf_counter() - start < 1.0
        assert ctx.modulus == modulus

    @pytest.mark.parametrize("p, f", [(3, 2), (5, 3), (3, 4), (101, 2), (101, 3)])
    def test_unit_inverse(self, p, f):
        ctx = PrecisionContext(p, 12, f=f)
        rng = random.Random(p * f)
        for _ in range(50):
            x = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(f)))
            if x.is_unit():
                assert x * x.unit_inverse() == 1


class TestRowOperation:
    """`sub_mul_raw`, the one row step of every O_F elimination, and the
    exact division by p^k that the eliminations and solvers lean on."""

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_sub_mul_raw_matches_per_entry(self, f):
        ctx = PrecisionContext(5, 6, f=f)
        rng = random.Random(f)

        def elt():
            return tuple(rng.randrange(ctx.pN) * 5 ** rng.randrange(3) for _ in range(f))
        for n in range(5):  # n = 0: empty rows
            x, y = [elt() for _ in range(n)], [elt() for _ in range(n)]
            for q in (ctx.zero_raw(), elt(), elt()):
                assert ctx.sub_mul_raw(x, q, y) == [ctx.sub_raw(a, ctx.mul_raw(q, b))
                                                    for a, b in zip(x, y)]

    def test_inexact_division(self):
        ctx = PrecisionContext(3, 6)
        assert OFElement(ctx, 18).divide_exact_p(2) == 2
        with pytest.raises(PrecisionLoss, match=r"^representative not divisible by p\^2$"):
            OFElement(ctx, 3).divide_exact_p(2)
        # (3, 1) has coordinate 3 against the divisor 9: not in the lattice
        snf = smith_normal_form(OFMatrix(ctx, [[9, 0], [0, 1]]))
        assert _coordinates(snf, OFMatrix(ctx, [[3, 1]])) is None
        X = OFMatrix(ctx, [[18, 1]])
        assert _coordinates(snf, X) * _row_basis(snf) == X


class TestFrobenius:
    def test_identity_when_f1(self):
        ctx = PrecisionContext(3, 4)
        x = OFElement(ctx, 7)
        assert frobenius(x) == x

    def test_lift_reduces_to_pth_power(self):
        ctx = PrecisionContext(3, 6, f=2)
        gen = OFElement(ctx, (0, 1))
        fg = frobenius(gen)
        p = ctx.p
        # sigma(x) == x^p mod p
        cube = gen * gen * gen
        assert all((a - b) % p == 0 for a, b in zip(fg.coeffs, cube.coeffs))

    def test_sigma_squared_is_identity(self):
        ctx = PrecisionContext(3, 6, f=2)
        rng = random.Random(11)
        for _ in range(50):
            x = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(2)))
            assert frobenius(frobenius(x)) == x

    def test_ring_homomorphism(self):
        ctx = PrecisionContext(5, 5, f=2)
        rng = random.Random(5)
        for _ in range(1000):
            x = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(2)))
            y = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(2)))
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)

    def test_sigma_f_is_identity_f3(self):
        ctx = PrecisionContext(3, 4, f=3)
        rng = random.Random(7)
        for _ in range(25):
            x = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(3)))
            y = x
            for _ in range(3):
                y = frobenius(y)
            assert y == x

    def test_inverse_roundtrip_f2(self):
        ctx = PrecisionContext(3, 6, f=2)
        rng = random.Random(3)
        for _ in range(100):
            x = OFElement(ctx, tuple(rng.randrange(ctx.pN) for _ in range(2)))
            if not x.is_unit():
                continue
            assert x * x.unit_inverse() == OFElement(ctx, 1)


class TestTeichmuller:
    def test_p3_u2_is_minus_one(self):
        ctx = PrecisionContext(3, 4)
        assert teichmuller(ctx, 2) == OFElement(ctx, 80)

    def test_u1_is_one(self):
        ctx = PrecisionContext(5, 3)
        assert teichmuller(ctx, 1) == OFElement(ctx, 1)

    def test_p5_u2_oracle(self):
        # oracle: iterate x -> x^5 from 2 until stable mod 5^4
        x = 2
        while pow(x, 5, 5 ** 4) != x:
            x = pow(x, 5, 5 ** 4)
        ctx = PrecisionContext(5, 4)
        t = teichmuller(ctx, 2)
        assert t == OFElement(ctx, x)
        assert (t * t * t * t) == OFElement(ctx, 1)
        assert t.coeffs[0] % 5 == 2

    def test_rejects_multiple_of_p(self):
        ctx = PrecisionContext(3, 4)
        with pytest.raises(NotAUnit):
            teichmuller(ctx, 6)

    def test_root_of_unity_property(self):
        for p, f in [(3, 1), (5, 1), (3, 2)]:
            ctx = PrecisionContext(p, 5, f=f)
            for u in range(1, p):
                t = teichmuller(ctx, u)
                acc = OFElement(ctx, 1)
                for _ in range(p ** f - 1):
                    acc = acc * t
                assert acc == OFElement(ctx, 1)


class TestSmithNormalForm:
    def test_diag_2_3_over_z3(self):
        ctx = PrecisionContext(3, 5)
        snf = smith_normal_form(OFMatrix(ctx, [[2, 0], [0, 3]]))
        assert snf.exponents == (0, 1)

    def test_rank_one_all_threes(self):
        ctx = PrecisionContext(3, 5)
        snf = smith_normal_form(OFMatrix(ctx, [[3, 3], [3, 3]]))
        assert snf.exponents == (1, None)
        assert snf.rank == 1

    def test_reconstruction_random(self):
        ctx = PrecisionContext(5, 8)
        rng = random.Random(123)
        for _ in range(40):
            m = rand_matrix(ctx, 3, rng)
            snf = smith_normal_form(m)
            assert snf.U * m * snf.V == snf.D
            # diagonal divisibility
            exps = [e for e in snf.exponents if e is not None]
            assert exps == sorted(exps)

    def test_exponents_invariant_under_unimodular(self):
        ctx = PrecisionContext(3, 8)
        rng = random.Random(77)
        for _ in range(25):
            m = rand_matrix(ctx, 3, rng)
            base = smith_normal_form(m).exponents
            u = rand_unit_matrix(ctx, 3, rng)
            v = rand_unit_matrix(ctx, 3, rng)
            assert smith_normal_form(u * m * v).exponents == base

    def test_rectangular(self):
        ctx = PrecisionContext(3, 6)
        m = OFMatrix(ctx, [[1, 0, 3], [0, 9, 0]])
        snf = smith_normal_form(m)
        assert snf.U * m * snf.V == snf.D
        assert snf.exponents == (0, 2)


class TestRowLattice:
    """`_row_basis` and `_coordinates` against the earlier solvers, which
    reduced the row basis a second time and multiplied by its U."""

    def test_coordinates_against_reference(self):
        rng = random.Random(2025)
        seen = set()
        for p, N, f in ((3, 6, 1), (5, 8, 1), (3, 4, 2)):
            ctx = PrecisionContext(p, N, f=f)
            for _ in range(60):
                d = rng.randrange(1, 5)
                # rank <= k, with p-power divisors and dependent rows
                k = rng.randrange(1, d + 1)
                base = OFMatrix(ctx, [[rng.randrange(ctx.pN) * p ** rng.randrange(3)
                                       for _ in range(d)] for _ in range(k)])
                G = OFMatrix(ctx, [[rng.randrange(ctx.pN) * p ** rng.randrange(2)
                                    for _ in range(k)]
                                   for _ in range(rng.randrange(1, 5))]) * base
                X = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(G.rows)]
                                   for _ in range(rng.randrange(1, 4))]) * G
                if rng.randrange(2):  # nudge one entry, often off the lattice
                    rows = [list(r) for r in X.entries]
                    rows[0][rng.randrange(d)] += p ** rng.randrange(N)
                    X = OFMatrix(ctx, rows)
                snf = smith_normal_form(G)
                basis, exps = row_basis_ref(G)
                C = _coordinates(snf, X)
                assert (C is not None) == lattice_contains_all_ref(G, X)
                seen.add((snf.rank < min(G.rows, d), C is None, max(exps, default=0) > 0))
                if basis is None:
                    assert snf.rank == 0
                    continue
                assert _row_basis(snf) == basis
                assert (C is None) == (solve_in_basis_ref(basis, X) is None)
                if C is not None:
                    assert C * basis == X
        assert len(seen) == 8  # deficient rank, off-lattice and p-divisors in every mix

    def test_zero_lattice(self):
        ctx = PrecisionContext(3, 6)
        snf = smith_normal_form(OFMatrix(ctx, [[0, 0], [9 ** 3, 0]]))
        assert snf.rank == 0
        assert _coordinates(snf, OFMatrix(ctx, [[0, 0]])).rows == 1
        assert _coordinates(snf, OFMatrix(ctx, [[0, 3]])) is None

    def test_divisor_checked(self):
        # [[3, 0], [0, 1]] holds (3, 5) but not (1, 0): the p^e division fails
        ctx = PrecisionContext(3, 6)
        snf = smith_normal_form(OFMatrix(ctx, [[3, 0], [0, 1]]))
        C = _coordinates(snf, OFMatrix(ctx, [[3, 5]]))
        assert C * _row_basis(snf) == OFMatrix(ctx, [[3, 5]])
        assert _coordinates(snf, OFMatrix(ctx, [[1, 0]])) is None


class TestMatrixContexts:
    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_mixed_contexts_rejected_both_orders(self, op):
        a = OFMatrix(PrecisionContext(3, 4), [[80]])
        b = OFMatrix(PrecisionContext(3, 2), [[8]])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="mixed precision contexts"):
                {"+": x.__add__, "-": x.__sub__, "*": x.__mul__}[op](y)


class TestNewtonSlopes:
    def test_diagonal(self):
        ctx = PrecisionContext(3, 6)
        assert newton_slopes(OFMatrix(ctx, [[1, 0], [0, 3]])) == [0, 1]

    def test_half_slopes_by_hand(self):
        # char poly T^2 - 3; polygon (0,1)-(2,0); both roots have valuation 1/2
        ctx = PrecisionContext(3, 6)
        assert newton_slopes(OFMatrix(ctx, [[0, 1], [3, 0]])) == [Fraction(1, 2)] * 2

    def test_sum_equals_det_valuation(self):
        ctx = PrecisionContext(5, 8)
        rng = random.Random(2024)
        for _ in range(60):
            m = rand_matrix(ctx, 3, rng)
            dv = m.det().valuation()
            if dv is None:
                continue
            assert sum(newton_slopes(m)) == dv

    def test_padically_small_det_raises(self):
        ctx = PrecisionContext(3, 3)
        with pytest.raises(PrecisionLoss):
            newton_slopes(OFMatrix(ctx, [[27, 0], [0, 1]]))

    def test_f2_slopes_halved(self):
        # rank 1, f=2: phi^2 has matrix m*sigma(m); a scalar p gives slope 1
        ctx = PrecisionContext(3, 6, f=2)
        m = OFMatrix(ctx, [[3]])
        assert newton_slopes(m) == [1]


class TestStableRank:
    def test_diag_1_0(self):
        ctx = PrecisionContext(3, 4)
        assert semilinear_stable_rank(OFMatrix(ctx, [[1, 0], [0, 0]])) == 1

    def test_nilpotent(self):
        ctx = PrecisionContext(3, 4)
        assert semilinear_stable_rank(OFMatrix(ctx, [[0, 1], [0, 0]])) == 0

    def test_matches_slope_zero_multiplicity(self):
        ctx = PrecisionContext(5, 8)
        rng = random.Random(99)
        for _ in range(200):
            m = rand_matrix(ctx, 3, rng)
            try:
                slopes = newton_slopes(m)
            except PrecisionLoss:
                continue
            assert semilinear_stable_rank(m) == slopes.count(0)


def kernel_basis(A):
    """Null space basis of a Fraction matrix (rows of the result)."""
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


def subspace_intersection_trivial(A):
    """Brute force: ker(A) ∩ im(A) == 0, via dim(ker+im) = dim ker + dim im."""
    n = len(A)
    ker = kernel_basis(A)
    im_cols = [[A[i][j] for i in range(n)] for j in range(n)]
    stacked = ker + im_cols
    dim_ker = len(ker)
    dim_im = rational_rank(im_cols) if im_cols else 0
    dim_sum = rational_rank(stacked) if stacked else 0
    return dim_sum == dim_ker + dim_im


class TestSemisimple:
    def test_jordan_block_fails(self):
        assert not is_semisimple_at([[1, 1], [0, 1]], 1)

    def test_scalar_matrix(self):
        assert is_semisimple_at([[1, 0], [0, 1]], 1)

    def test_against_intersection_oracle(self):
        rng = random.Random(41)
        for _ in range(200):
            n = 4
            # plant a Jordan structure, conjugate by a unimodular matrix
            eigs = [rng.choice([0, 1, 2, -1]) for _ in range(n)]
            J = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                J[i][i] = Fraction(eigs[i])
            for i in range(n - 1):
                if eigs[i] == eigs[i + 1] and rng.random() < 0.5:
                    J[i][i + 1] = Fraction(1)
            # random integer shear conjugation (exact inverse)
            S = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randrange(-2, 3)
                    for k in range(n):
                        S[i][k] += c * S[j][k]
            Sinv = invert_fraction_matrix(S)
            M = mat_mul(mat_mul(S, J), Sinv)
            for alpha in set(eigs):
                A = [[M[i][j] - (alpha if i == j else 0) for j in range(n)]
                     for i in range(n)]
                assert is_semisimple_at(M, alpha) == subspace_intersection_trivial(A)


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def invert_fraction_matrix(A):
    n = len(A)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
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
