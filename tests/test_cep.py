"""Valuation calculus: Gamma* factors, determinant terms, ladders, Tamagawa
exponents, and the two-sided lattice-exponent comparison."""

import random
from fractions import Fraction

import pytest

from oracles import exact_sequence_exponent_ref
from wachlab import Degenerate, NotExact, OFMatrix, PrecisionContext, cep
from wachlab.cep import (
    ExactSequenceLadder,
    cep_check,
    det_minus_phi_dual,
    det_one_minus_phi,
    eta_exponent,
    exact_sequence_exponent,
    gamma_star,
    gamma_star_window_unit,
    tam_exponent,
)
from wachlab.filmod import FilPhiModule, dual_twist, top_slope_absent, unit_root_rank
from wachlab.padic import smith_normal_form


def module(p, N, jumps, A, shift=0):
    ctx = PrecisionContext(p, N)
    return FilPhiModule(ctx, jumps, OFMatrix(ctx, A), shift=shift)


def eligible_random(ctx, d, rng, max_jump=None):
    top = ctx.p - 2 if max_jump is None else max_jump
    while True:
        jumps = sorted(rng.randrange(top + 1) for _ in range(d))
        A = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)])
        if not A.det().is_unit():
            continue
        D = FilPhiModule(ctx, jumps, A)
        if unit_root_rank(D) != 0:
            continue
        try:
            det_one_minus_phi(D)
        except Degenerate:
            continue
        return D


class TestGammaStar:
    def test_j1(self):
        g = gamma_star(1, 3)
        assert g.value == 1 and g.v_p == 0

    def test_j_minus_2(self):
        g = gamma_star(-2, 3)
        assert g.value == Fraction(1, 2) and g.v_p == 0

    def test_j_p_plus_1(self):
        # Gamma*(4) = 3! = 6, one factor of 3
        g = gamma_star(4, 3)
        assert g.value == 6 and g.v_p == 1

    def test_legendre_agrees_with_direct(self):
        from wachlab.padic import vp_fraction
        for p in (3, 5, 7):
            for j in range(-12, 13):
                g = gamma_star(j, p)
                assert vp_fraction(g.value, p) == g.v_p

    def test_window_units(self):
        for p in (3, 5, 7, 11):
            assert gamma_star_window_unit(-(p - 2), p - 1, p)

    def test_window_false_beyond(self):
        for p in (3, 5, 7):
            # j <= -(p+1) makes Gamma*(-j) = (-j-1)! divisible by p
            assert not gamma_star_window_unit(-(p + 1), 0, p)

    def test_zero_window(self):
        assert gamma_star_window_unit(0, 0, 5)

    def test_unit_range_is_sharp(self):
        # Gamma*(-j) is a unit exactly for -p <= j <= p-1
        for p in (3, 5, 7):
            assert gamma_star_window_unit(-p, p - 1, p)
            assert not gamma_star_window_unit(-p - 1, p - 1, p)
            assert not gamma_star_window_unit(-p, p, p)


class TestDetTerms:
    def test_one_minus_phi_scalar(self):
        det, v = det_one_minus_phi(module(3, 8, [1], [[1]]))
        assert det.coeffs[0] == (-2) % 3 ** 8 and v == 0

    def test_one_minus_phi_degenerate(self):
        det, v = det_one_minus_phi(module(3, 8, [0], [[1]]))
        assert v is None

    def test_one_minus_phi_rank_two(self):
        det, v = det_one_minus_phi(module(3, 8, [0, 1], [[0, 1], [1, 0]]))
        assert det.coeffs[0] == (-2) % 3 ** 8 and v == 0

    def test_dual_rank_one_tate(self):
        value, v = det_minus_phi_dual(module(3, 8, [1], [[1]]))
        assert value == -1 and v == 0

    def test_dual_unramified(self):
        value, v = det_minus_phi_dual(module(3, 8, [0], [[2]]))
        assert value == Fraction(-3, 2) and v == 1

    def test_dual_rank_two(self):
        _, v = det_minus_phi_dual(module(3, 8, [0, 1], [[0, 1], [1, 0]]))
        assert v == 2 - 1

    def test_eta(self):
        D = module(3, 8, [1], [[1]])
        assert eta_exponent(D) == 0
        assert eta_exponent(D, omega_scaling_vp=1) == 1
        assert eta_exponent(D, omega_scaling_vp=0) == 0


class TestLadder:
    def test_identity_ladder(self):
        ctx = PrecisionContext(3, 8)
        L = ExactSequenceLadder([OFMatrix.identity(ctx, 2)])
        assert exact_sequence_exponent(L) == 0

    def test_p_times_identity(self):
        ctx = PrecisionContext(3, 8)
        m = OFMatrix(ctx, [[3, 0, 0], [0, 3, 0], [0, 0, 3]])
        L = ExactSequenceLadder([m])
        assert exact_sequence_exponent(L) == 3

    def test_bete_ladder_rank_one(self):
        ctx = PrecisionContext(3, 8)
        L = ExactSequenceLadder([OFMatrix(ctx, [[1 - 3]])])
        assert exact_sequence_exponent(L) == 0

    def test_two_step_chain(self):
        # 0 -> Z -> Z^2 -> Z -> 0 with a p-index in the middle
        ctx = PrecisionContext(3, 8)
        f = OFMatrix(ctx, [[3], [1]])          # x -> (3x, x)
        g = OFMatrix(ctx, [[1, -3]])           # (a,b) -> a - 3b
        L = ExactSequenceLadder([f, g])
        # ker g = span (3,1) = im f exactly: homology 0 everywhere
        assert exact_sequence_exponent(L) == 0

    def test_two_step_with_homology(self):
        ctx = PrecisionContext(3, 8)
        f = OFMatrix(ctx, [[9], [3]])          # im = 3*(3,1)
        g = OFMatrix(ctx, [[1, -3]])
        L = ExactSequenceLadder([f, g])
        # middle homology has length 1, sign (k-i) = (2-1) odd: -1
        assert exact_sequence_exponent(L) == -1

    def test_additive_under_direct_sum(self):
        ctx = PrecisionContext(3, 10)
        rng = random.Random(6)
        for _ in range(20):
            a = rng.choice([1, 3, 9])
            b = rng.choice([1, 3])
            m1 = OFMatrix(ctx, [[a]])
            m2 = OFMatrix(ctx, [[b]])
            msum = OFMatrix(ctx, [[a, 0], [0, b]])
            e1 = exact_sequence_exponent(ExactSequenceLadder([m1]))
            e2 = exact_sequence_exponent(ExactSequenceLadder([m2]))
            es = exact_sequence_exponent(ExactSequenceLadder([msum]))
            assert es == e1 + e2

    def test_invariant_under_unimodular_change(self):
        ctx = PrecisionContext(3, 10)
        rng = random.Random(7)
        for _ in range(20):
            m = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(2)]
                               for _ in range(2)])
            if m.det().valuation() is None:
                continue
            u = _unimodular(ctx, 2, rng)
            v = _unimodular(ctx, 2, rng)
            e1 = exact_sequence_exponent(ExactSequenceLadder([m]))
            e2 = exact_sequence_exponent(ExactSequenceLadder([u * m * v]))
            assert e1 == e2


    @pytest.mark.parametrize("maps, message", [
        ([[[1]], [[1]]], "consecutive maps do not compose to zero"),
        ([[[1]], [[1, 0]]], "chain shape mismatch"),
        ([[[1, 0]]], "first map has a kernel: not exact at the left end"),
        ([[[1], [0]]], "last map is not surjective after inverting p"),
        ([[[1], [0]], [[0, 0]]], "rank bookkeeping fails at position 1"),
        # 3 * 3^7 = 0 mod 3^8, but (3^7, 0) is off the saturated kernel e_2
        ([[[3 ** 7], [0]], [[3, 0]]], "image does not lie in the kernel of the next map"),
    ], ids=["compose", "shape", "left-kernel", "not-surjective", "bookkeeping", "off-kernel"])
    def test_not_exact(self, maps, message):
        ctx = PrecisionContext(3, 8)
        with pytest.raises(NotExact) as info:
            exact_sequence_exponent(ExactSequenceLadder([OFMatrix(ctx, m) for m in maps]))
        assert str(info.value) == message

    def test_against_reference(self):
        """Values and NotExact messages equal to the earlier ladder code's,
        which reduced every interior map twice and solved for the kernel
        index in the column convention."""
        rng = random.Random(26)
        outcomes = set()
        for _ in range(300):
            ctx = PrecisionContext(rng.choice((3, 5)), rng.choice((6, 8)))
            maps = _random_ladder_maps(ctx, rng)
            try:
                L = ExactSequenceLadder(maps)
            except NotExact:
                continue
            results = []
            for run in (lambda: exact_sequence_exponent(L),
                        lambda: exact_sequence_exponent_ref(maps)):
                try:
                    results.append(run())
                except NotExact as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add((len(maps), type(results[0])))
        assert outcomes == {(1, int), (1, str), (2, int), (2, str)}

    def test_smith_calls(self, monkeypatch):
        calls = []

        def counted(M):
            calls.append(M)
            return smith_normal_form(M)

        monkeypatch.setattr(cep, "smith_normal_form", counted)
        ctx = PrecisionContext(3, 8)
        L = ExactSequenceLadder([OFMatrix(ctx, [[9], [3]]), OFMatrix(ctx, [[1, -3]])])
        assert exact_sequence_exponent(L) == -1
        # each map once, the kernel basis once, the image's coordinates once
        assert len(calls) == 4


def _random_ladder_maps(ctx, rng):
    """One random map, or the maps of 0 -> L0 -> L1 -> L2 -> 0 made exact
    through a unimodular W (kernel of g = W^{-1} times the trailing
    coordinates), with p-power divisors; a quarter of the pairs get a
    column p^{N-1} off the kernel."""
    p = ctx.p
    n = rng.randrange(1, 5)
    if n == 1 or rng.randrange(4) == 0:
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        return [OFMatrix(ctx, [[p ** rng.randrange(3) * rng.randrange(ctx.pN)
                                for _ in range(cols)] for _ in range(rows)])]
    rank_g = rng.randrange(1, n)
    W = _unimodular(ctx, n, rng)
    diag = [[p ** rng.randrange(2) if i == j else 0 for j in range(n)] for i in range(rank_g)]
    g = _unimodular(ctx, rank_g, rng) * OFMatrix(ctx, diag) * W
    m = n - rank_g
    coords = [[0] * m for _ in range(rank_g)] + [
        [p ** rng.randrange(3) * rng.randrange(ctx.pN) for _ in range(m)] for _ in range(m)]
    if rng.randrange(4) == 0:
        coords[0][0] = p ** (ctx.N - 1)
    return [W.inverse() * OFMatrix(ctx, coords), g]


def _unimodular(ctx, d, rng):
    while True:
        m = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)])
        if m.det().is_unit():
            return m


class TestTamagawa:
    def test_rank_one_weight_one(self):
        # Phi = (6): both genericity determinants are nonzero, Fil^0 is full,
        # exponent = v(det(1 - 6)) = v(-5) = 0
        assert tam_exponent(module(3, 20, [1], [[2]])) == 0

    def test_rank_two_supersingular_shape(self):
        assert tam_exponent(module(3, 20, [0, 1], [[0, 1], [1, 0]])) == 0

    def test_degenerate_trivial_rep(self):
        with pytest.raises(Degenerate):
            tam_exponent(module(3, 20, [0], [[1]]))

    def test_degenerate_dual_side(self):
        # Phi = (p): det(1 - p Phi^{-1}) = 0, the dual-side fixed-vector test
        with pytest.raises(Degenerate) as e:
            tam_exponent(module(3, 20, [1], [[1]]))
        assert e.value.reason == "H0-dual"

    def test_degenerate_window(self):
        # top jump p-1 forces a window of length p, which cannot hold {0,1}
        with pytest.raises(Degenerate):
            tam_exponent(module(3, 20, [2], [[1]]))

    def test_shifted_free_part(self):
        # actual jump -1: Fil^0 = 0, pure free comparison
        assert tam_exponent(module(3, 20, [1], [[2]], shift=-2)) == 0

    def test_nonunit_when_unit_root_congruent_one(self):
        # a slope-0 eigenvalue congruent to 1 mod p leaves torsion in H^1_f
        D = module(3, 20, [0, 1], [[4, 0], [0, 2]])
        det, v1 = det_one_minus_phi(D)
        assert v1 == 1
        assert tam_exponent(D) == 1

    def test_unit_on_eligible_corpus(self):
        rng = random.Random(77)
        for p in (3, 5):
            ctx = PrecisionContext(p, 20)
            done = 0
            while done < 30:
                D = eligible_random(ctx, rng.randrange(1, 4), rng)
                try:
                    t = tam_exponent(D)
                except Degenerate:
                    continue
                done += 1
                assert t == 0


class TestCepCheck:
    def test_rank_one(self):
        rep = cep_check(module(3, 20, [1], [[2]]))
        assert rep.verdict
        assert rep.tam_exponent_V == 0
        assert rep.tam_exponent_dual == 0
        assert rep.gamma_star_total_vp == 0
        assert rep.eta_exponent == 0
        assert rep.det_minus_phi_dual_vp == 0
        assert rep.cep_lattice_exponent == 0

    def test_rank_two(self):
        rep = cep_check(module(3, 20, [0, 1], [[0, 1], [1, 0]]))
        assert rep.verdict
        assert rep.cep_lattice_exponent == rep.det_minus_phi_dual_vp == 1

    def test_degenerate_trivial(self):
        with pytest.raises(Degenerate):
            cep_check(module(3, 20, [0], [[1]]))

    def test_degenerate_weight_one_unit(self):
        # the dual-side genericity precondition excludes Phi = (p)
        with pytest.raises(Degenerate):
            cep_check(module(3, 20, [1], [[1]]))

    def test_two_forms_agree_on_corpus(self):
        rng = random.Random(99)
        for p in (3, 5):
            ctx = PrecisionContext(p, 20)
            count = 0
            while count < 20:
                D = eligible_random(ctx, rng.randrange(1, 4), rng)
                if not top_slope_absent(D):
                    continue
                dual = dual_twist(D, 1)
                try:
                    rep = cep_check(D)
                except Degenerate:
                    continue
                count += 1
                assert rep.verdict
                assert rep.tam_exponent_V == 0
                assert rep.tam_exponent_dual == 0
                assert rep.gamma_star_total_vp == 0
