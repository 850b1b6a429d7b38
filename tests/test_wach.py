"""Lattice constructor: P, Q, H, G and the defining relation."""

import random

import pytest

from oracles import (
    REFERENCE,
    IngredientsRef,
    SeriesRef,
    cocycle_oracle,
    lattice_oracle,
    q_cokernel_oracle,
    residual_oracle,
    S_ref,
    _smat_mul,
    _smat_sub,
    _smat_valuation,
    ti_oracle,
    ti_scalar,
)
from wachlab import NonConvergence, OFElement, OFMatrix, PrecisionContext
from wachlab import _kernel
from wachlab.errors import CongruenceFailure, NotAUnit
from wachlab.aplus import (
    APlusSeries,
    exact_div_pi,
    gamma_series,
    invert_series,
    mu_series,
    phi_series,
    q_series,
    series_kernel,
)
from wachlab import aplus, wach
from wachlab._kernel import SeriesKernel
from wachlab.filmod import FilPhiModule, top_slope_absent, unit_root_rank
from wachlab.wach import (
    WachData,
    apply_Ti,
    build_P,
    check_cocycle,
    check_q_cokernel,
    compute_Q,
    default_order,
    gamma_matrix,
    relation_valuation,
    solve_H,
)


def module(p, N, jumps, A):
    ctx = PrecisionContext(p, N)
    return FilPhiModule(ctx, jumps, OFMatrix(ctx, A))


def eligible_random(ctx, d, rng, want="unit_root"):
    """A random eligible module; its entries have f random coordinates each."""
    while True:
        jumps = sorted(rng.randrange(ctx.p) for _ in range(d))
        A = OFMatrix(ctx, [[tuple(rng.randrange(ctx.pN) for _ in range(ctx.f))
                            for _ in range(d)] for _ in range(d)])
        if not A.det().is_unit():
            continue
        D = FilPhiModule(ctx, jumps, A)
        if want == "unit_root" and unit_root_rank(D) == 0:
            return D
        if want == "top" and top_slope_absent(D):
            return D


class TestBuildP:
    def test_rank_one_qmu(self):
        # q*mu = 3 + pi^2 * (1+pi)^{-1} for p=3
        D = module(3, 8, [1], [[1]])
        P = build_P(D, 12)
        ctx = D.ctx
        mu = mu_series(ctx, 12)
        expected = [OFElement(ctx, 3)] + [OFElement(ctx, 0)] * 11
        s = APlusSeries(ctx, 12, expected)
        pi2 = APlusSeries(ctx, 12, [0, 0, 1])
        assert P[0][0] == s + pi2 * mu

    def test_zero_jumps_constant(self):
        D = module(3, 8, [0, 0], [[1, 2], [1, 1]])
        P = build_P(D, 10)
        for i in range(2):
            for j in range(2):
                assert P[i][j] == APlusSeries.constant(D.ctx, 10, D.A.entries[i][j])

    def test_congruent_to_phi_mod_pi_pm1(self):
        rng = random.Random(3)
        for p in (3, 5):
            ctx = PrecisionContext(p, 10)
            for _ in range(20):
                D = eligible_random(ctx, rng.randrange(1, 4), rng)
                P = build_P(D, 3 * (p - 1))
                phi = D.phi_matrix()
                for i in range(D.d):
                    for j in range(D.d):
                        assert P[i][j].coeffs[0] == phi.entries[i][j]
                        for k in range(1, p - 1):
                            assert P[i][j].coeffs[k].is_zero()


class TestComputeQ:
    def test_zero_jumps_give_zero_Q(self):
        D = module(3, 8, [0, 0], [[1, 2], [1, 1]])
        Q = compute_Q(D, 4, 12)
        assert _smat_valuation(Q, 1) is None

    def test_rank_one_nonInverting_oracle(self):
        # gamma(P^{-1})P = Id + pi^{p-1} Q  <=>  P - gamma(P)(Id + pi^{p-1} Q) = 0
        p, c = 3, 4
        D = module(p, 10, [1], [[1]])
        order = 30
        Q = compute_Q(D, c, order)
        P = build_P(D, order)
        ctx = D.ctx
        gP = [[gamma_series(e, c) for e in row] for row in P]
        pi_pm1 = APlusSeries(ctx, order, [0] * (p - 1) + [1])
        inner = [[(APlusSeries.one(ctx, order) if i == j else APlusSeries.zero(ctx, order))
                  + pi_pm1 * Q[i][j] for j in range(1)] for i in range(1)]
        resid = _smat_sub([[P[0][0]]], _smat_mul(gP, inner))
        assert _smat_valuation(resid, 1) is None
        assert Q[0][0].pi_valuation() is not None  # a genuinely nonzero series

    def test_congruence_random(self):
        rng = random.Random(4)
        ctx = PrecisionContext(5, 10)
        for _ in range(10):
            D = eligible_random(ctx, 2, rng)
            order = 60
            c = 6
            Q = compute_Q(D, c, order)
            P = build_P(D, order)
            gP = [[gamma_series(e, c) for e in row] for row in P]
            pi_pm1 = APlusSeries(ctx, order, [0] * 4 + [1])
            inner = [[(APlusSeries.one(ctx, order) if i == j else
                       APlusSeries.zero(ctx, order)) + pi_pm1 * Q[i][j]
                      for j in range(D.d)] for i in range(D.d)]
            resid = _smat_sub(P, _smat_mul(gP, inner))
            assert _smat_valuation(resid, 1) is None


class TestIngredients:
    @pytest.mark.parametrize("p", (3, 5))
    @pytest.mark.parametrize("c", ("1+p", 2, -1))
    def test_S_matches_oracle(self, p, c):
        # S = ((1+pi)^{pc} - 1)/((1+pi)^p - 1): a polynomial in pi q of
        # degree c - 1 for c > 0, a full series for c < 0
        ctx = PrecisionContext(p, 4)
        c = 1 + p if c == "1+p" else c
        order = default_order(ctx)
        assert wach._ingredients(ctx, order, c).S.raw() == S_ref(ctx, order, c).raw()

    @pytest.mark.parametrize("p,N", ((3, 3), (5, 2), (7, 2)))
    @pytest.mark.parametrize("f", (1, 2, 3))
    @pytest.mark.parametrize("c", ("1+p", 2, -1, "-(1+p)"))
    def test_power_lists_match_oracle(self, p, N, f, c):
        # the ring-identity ingredients against the oracle's route through
        # Horner gamma substitution, inversion and S_ref
        ctx = PrecisionContext(p, N, f)
        c = {"1+p": 1 + p, "-(1+p)": -(1 + p)}.get(c, c)
        order = default_order(ctx)
        ing, ref = wach._Ingredients(ctx, order, c), IngredientsRef(ctx, order, c)
        assert ing.S.raw() == ref.S.raw()
        for name in ("q", "rho", "tau", "qmu", "nu", "muinv"):
            for r in range(p):
                assert ing.power(name, r).raw() == ref.power(name, r).raw(), (name, r)

    def test_c_free_series_shared(self, monkeypatch):
        # the three sets of a cocycle check share one c-free set: mu is
        # inverted once, and each c inverts only gamma(mu^{-1}) and S
        monkeypatch.setattr(wach, "_ingredient_cache", {})
        calls, invert = [], wach.invert_series
        monkeypatch.setattr(wach, "invert_series",
                            lambda s: calls.append(1) or invert(s))
        ctx = PrecisionContext(5, 3)
        D = eligible_random(ctx, 2, random.Random(24))
        order = default_order(ctx)
        assert check_cocycle(D, 6, -1, order)
        sets = [wach._ingredient_cache[(ctx, order, c)] for c in (6, -1, -6)]
        assert len({id(ing.mu) for ing in sets}) == 1
        assert sets[0].mu is wach._ingredient_cache[(ctx, order, None)].mu
        assert len(calls) == 1 + 2 * len(sets)

    @pytest.mark.parametrize("p", (3, 5, 7))
    @pytest.mark.parametrize("f", (1, 2))
    def test_build_P_from_the_c_free_set(self, p, f, monkeypatch):
        # P is read off the shared set: built once, then with no inversion,
        # and it is the P of every gamma_matrix
        ctx = PrecisionContext(p, 2, f)
        D = eligible_random(ctx, 2, random.Random(25))
        order = default_order(ctx)
        P = build_P(D, order)
        calls, invert = [], wach.invert_series
        with monkeypatch.context() as m:
            for mod in (wach, aplus):
                m.setattr(mod, "invert_series", lambda s: calls.append(1) or invert(s))
            assert raw_matrix(build_P(D, order)) == raw_matrix(P)
        assert calls == []
        assert raw_matrix(gamma_matrix(D, 1 + p, order).P) == raw_matrix(P)

    def test_powers_on_demand(self, monkeypatch):
        # a rank-1, jump-1 module reads only the first power of each series
        # but q (whose power p-1-r enters the solver weight)
        monkeypatch.setattr(wach, "_ingredient_cache", {})
        ctx = PrecisionContext(7, 3)
        D = FilPhiModule(ctx, [1], OFMatrix(ctx, [[3]]))
        order = default_order(ctx)
        assert gamma_matrix(D, 8, order).residual_zero
        for ing in wach._ingredient_cache.values():
            for name in ("qmu", "nu", "tau", "rho", "muinv"):
                assert len(ing._powers.get(name, ())) <= 2, (ing.c, name)

    def test_high_jump_power(self, monkeypatch):
        # (q mu)^995 at p = 997 is built by a loop, not by recursion; the
        # powers (~9 MiB) go with the cache afterwards
        monkeypatch.setattr(wach, "_ingredient_cache", {})
        ctx = PrecisionContext(997, 1)
        D = FilPhiModule(ctx, [995], OFMatrix(ctx, [[1]]))
        P = build_P(D, 998)
        assert P[0][0].constant_term() == OFElement(ctx, 0)

    def test_no_gamma_table(self, monkeypatch):
        # a lattice build substitutes gamma into nothing: fresh kernels hold
        # the Frobenius table and no gamma power table afterwards
        monkeypatch.setattr(_kernel, "_kernels", {})
        monkeypatch.setattr(wach, "_ingredient_cache", {})
        ctx = PrecisionContext(5, 4)
        D = eligible_random(ctx, 2, random.Random(22))
        W = gamma_matrix(D, 6, default_order(ctx))
        assert W.residual_zero and check_q_cokernel(W)
        keys = [key for ker in _kernel._kernels.values() for key in ker._tables]
        assert ("phi",) in keys
        assert [key for key in keys if key[0] == "gamma"] == []

    def test_solver_weights_cached(self, monkeypatch):
        # once the ingredients hold W, a solve makes d^2 products per
        # iteration and none to rebuild W
        ctx = PrecisionContext(5, 6)
        D = eligible_random(ctx, 3, random.Random(21))
        c, order = 6, default_order(ctx)
        H, _ = solve_H(D, c, order)
        calls, mul_n = [], SeriesKernel.mul_n
        monkeypatch.setattr(SeriesKernel, "mul_n",
                            lambda ker, a, b: calls.append(1) or mul_n(ker, a, b))
        H2, iterations = solve_H(D, c, order)
        assert len(calls) == iterations * D.d ** 2
        assert raw_matrix(H2) == raw_matrix(H)


class TestSolveH:
    def test_zero_Q_zero_H(self):
        D = module(3, 8, [0, 0], [[1, 2], [1, 1]])
        H, _ = solve_H(D, 4, 16)
        assert _smat_valuation(H, 1) is None

    def test_rank_one_residual_zero(self):
        D = module(3, 8, [1], [[1]])
        W = gamma_matrix(D, 4, 30)
        assert W.residual_zero
        assert W.residual_valuation is None

    def test_rank_two_residual_zero(self):
        D = module(3, 10, [0, 1], [[0, 1], [1, 0]])
        W = gamma_matrix(D, 4, 40)
        assert W.residual_zero

    def test_uniqueness_different_seeds(self):
        D = module(3, 10, [0, 1], [[0, 1], [1, 0]])
        ctx = D.ctx
        order = 30
        H1, _ = solve_H(D, 4, order)
        rng = random.Random(9)
        seed = [[APlusSeries(ctx, order, [rng.randrange(ctx.pN) for _ in range(order)])
                 for _ in range(2)] for _ in range(2)]
        H2, _ = solve_H(D, 4, order, initial=seed)
        assert all(H1[i][j] == H2[i][j] for i in range(2) for j in range(2))

    def test_top_slope_variant_converges(self):
        rng = random.Random(10)
        ctx = PrecisionContext(3, 8)
        for _ in range(5):
            D = eligible_random(ctx, 2, rng, want="top")
            W = gamma_matrix(D, 4, 24)
            assert W.residual_zero

    def test_nonconvergence_reported(self):
        # jumps (0, 2) over p=3 with coupling: slopes {0, 2}, unit root and
        # top slope both present, zero valuation margin: the iteration stalls
        D = module(3, 6, [0, 2], [[1, 1], [1, 2]])
        assert unit_root_rank(D) != 0 and not top_slope_absent(D)
        with pytest.raises(NonConvergence):
            solve_H(D, 4, 16)

    def test_nonconvergence_through_the_ladder(self):
        # the same module at an order whose solve spans several levels
        D = module(3, 6, [0, 2], [[1, 1], [1, 2]])
        assert len(wach._levels(60 - 2)) >= 2
        with pytest.raises(NonConvergence):
            solve_H(D, 4, 60)

    @pytest.mark.parametrize("level", (0, -1))
    def test_level_not_reducing_to_the_one_below(self, level, monkeypatch):
        # each level's fixed point reduces to the one below it (a theorem):
        # a wrong one, at the bottom or the top, raises CongruenceFailure
        ctx = PrecisionContext(5, 6)
        D = eligible_random(ctx, 2, random.Random(22))
        levels = wach._levels(default_order(ctx) - 4)
        assert len(levels) >= 2
        true_fixed_point = wach._fixed_point

        def bumped_level(ker, *args):
            H, steps = true_fixed_point(ker, *args)
            if ker.M == levels[level]:
                H[0][1][0] = (H[0][1][0] + 1) % ker.pN
            return H, steps

        monkeypatch.setattr(wach, "_fixed_point", bumped_level)
        with pytest.raises(CongruenceFailure):
            solve_H(D, 6)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_lift_invariance(self, p):
        # H at (N, 2(p-1)N) is the reduction mod (p^N, pi^mh) of H at
        # (2N, 4(p-1)N), for a module at 2N and its reduction to N
        rng = random.Random(23 + p)
        for d, want, N in ((1, "unit_root", 4), (3, "unit_root", 6),
                           (2, "top", 6), (3, "top", 4)):
            ctx, ctx2 = PrecisionContext(p, N), PrecisionContext(p, 2 * N)
            D2 = eligible_random(ctx2, d, rng, want)
            D = FilPhiModule(ctx, D2.jumps, OFMatrix(
                ctx, [[tuple(x % ctx.pN for x in e) for e in row] for row in D2.A.raw]))
            assert (unit_root_rank(D) == 0) if want == "unit_root" else top_slope_absent(D)
            mh = default_order(ctx) - (p - 1)
            H, _ = solve_H(D, 1 + p)
            H2, _ = solve_H(D2, 1 + p)
            assert raw_matrix(H) == [[[x % ctx.pN for x in s.raw()[:mh]] for s in row]
                                     for row in H2]


class TestGammaMatrix:
    def test_G_identity_when_zero_jumps(self):
        D = module(3, 8, [0, 0], [[1, 2], [1, 1]])
        W = gamma_matrix(D, 4, 16)
        ident = [[APlusSeries.one(D.ctx, 16) if i == j else APlusSeries.zero(D.ctx, 16)
                  for j in range(2)] for i in range(2)]
        assert _smat_valuation(_smat_sub(W.G, ident), 1) is None

    def test_G_congruent_identity(self):
        rng = random.Random(12)
        ctx = PrecisionContext(3, 8)
        for _ in range(5):
            D = eligible_random(ctx, 2, rng)
            W = gamma_matrix(D, 4, 24)
            for i in range(D.d):
                for j in range(D.d):
                    coeffs = W.G[i][j].coeffs
                    head = coeffs[: ctx.p - 1]
                    if i == j:
                        assert head[0] == OFElement(ctx, 1)
                        assert all(c.is_zero() for c in head[1:])
                    else:
                        assert all(c.is_zero() for c in head)

    def test_P_mod_pi_is_phi(self):
        rng = random.Random(13)
        ctx = PrecisionContext(5, 8)
        for _ in range(5):
            D = eligible_random(ctx, 2, rng)
            W = gamma_matrix(D, 6, 30)
            phi = D.phi_matrix()
            for i in range(D.d):
                for j in range(D.d):
                    assert W.P[i][j].constant_term() == phi.entries[i][j]


class TestCocycle:
    def test_trivial_generator(self):
        D = module(3, 8, [1], [[1]])
        assert check_cocycle(D, 1, 1, 20)

    def test_c_and_c_squared(self):
        D = module(3, 8, [1], [[1]])
        assert check_cocycle(D, 4, 4, 24)

    def test_rank_two(self):
        D = module(3, 8, [0, 1], [[0, 1], [1, 0]])
        assert check_cocycle(D, 4, 16, 24)

    @pytest.mark.parametrize("f", (1, 2))
    @pytest.mark.parametrize("c1,c2", ((4, -1), (-1, -1), (2, 4), (-4, 8)))
    def test_matches_oracle(self, f, c1, c2):
        ctx = PrecisionContext(3, 3, f)
        D = eligible_random(ctx, 2, random.Random(f"{f}/{c1}/{c2}"))
        order = default_order(ctx)
        assert check_cocycle(D, c1, c2, order) is cocycle_oracle(D, c1, c2, order) is True

    def test_bumped_G_breaks_cocycle(self, monkeypatch):
        # one coordinate of one of the three G moved: the check must fail
        ctx = PrecisionContext(3, 3)
        D = eligible_random(ctx, 2, random.Random(23))
        order = default_order(ctx)
        assert check_cocycle(D, 4, -1, order)
        true_gamma_matrix = wach.gamma_matrix
        for target, at in ((4, (0, 0, 0)), (-1, (0, 1, 3)), (-4, (1, 1, order - 1))):
            def bumped_gamma_matrix(D, c, order=None, target=target, at=at):
                W = true_gamma_matrix(D, c, order)
                if c == target:
                    W.G = bumped(W.G, *at)
                return W
            monkeypatch.setattr(wach, "gamma_matrix", bumped_gamma_matrix)
            assert check_cocycle(D, 4, -1, order) is False

    def test_no_gamma_table_kept(self, monkeypatch):
        # the cocycle check and T_i build their gamma tables per call, so
        # fresh kernels hold no ('gamma', c) key afterwards
        monkeypatch.setattr(_kernel, "_kernels", {})
        monkeypatch.setattr(wach, "_ingredient_cache", {})
        ctx = PrecisionContext(5, 4)
        D = eligible_random(ctx, 2, random.Random(22))
        order = default_order(ctx)
        assert check_cocycle(D, 6, -1, order)
        apply_Ti(gamma_matrix(D, 6, order), 3)
        keys = [key for ker in _kernel._kernels.values() for key in ker._tables]
        assert ("phi",) in keys
        assert [key for key in keys if key[0] == "gamma"] == []

    def test_c_divisible_by_p(self):
        D = module(3, 8, [0, 1], [[0, 1], [1, 0]])
        for c1, c2 in ((3, 4), (4, 3), (-6, 4)):
            with pytest.raises(NotAUnit, match="divisible by p=3"):
                check_cocycle(D, c1, c2, 24)
        with pytest.raises(NotAUnit, match="character value 0"):
            gamma_matrix(D, 0, 24)


class TestQCokernel:
    def test_rank_one(self):
        D = module(3, 8, [1], [[1]])
        assert check_q_cokernel(gamma_matrix(D, 4, 24))

    def test_zero_jumps(self):
        D = module(3, 8, [0, 0], [[1, 2], [1, 1]])
        assert check_q_cokernel(gamma_matrix(D, 4, 16))

    def test_rank_two(self):
        D = module(3, 10, [0, 1], [[0, 1], [1, 0]])
        assert check_q_cokernel(gamma_matrix(D, 4, 30))


class TestUnramifiedExtension:
    def test_f2_rank_one_relation(self):
        # a genuinely semilinear Frobenius on the coefficients
        ctx = PrecisionContext(3, 4, f=2)
        x = OFElement(ctx, (1, 1))
        D = FilPhiModule(ctx, [1], OFMatrix(ctx, [[x]]))
        assert unit_root_rank(D) == 0
        W = gamma_matrix(D, 4, 12)
        assert W.residual_zero
        assert W.P[0][0].constant_term() == D.phi_matrix().entries[0][0]
        assert check_q_cokernel(W)

    def test_f2_rank_two(self):
        ctx = PrecisionContext(3, 3, f=2)
        gen = OFElement(ctx, (0, 1))
        one = OFElement(ctx, 1)
        A = OFMatrix(ctx, [[gen, one], [one, OFElement(ctx, 0)]])
        D = FilPhiModule(ctx, [0, 1], A)
        if unit_root_rank(D) == 0:
            W = gamma_matrix(D, 4, 10)
            assert W.residual_zero


class TestTi:
    def test_i1_identity(self):
        D = module(3, 8, [1], [[1]])
        W = gamma_matrix(D, 4, 20)
        X = apply_Ti(W, 1)
        ident = [[APlusSeries.one(D.ctx, 20)]]
        assert _smat_valuation(_smat_sub(X, ident), 1) is None

    def test_i2_c4_p3_scalar(self):
        # 1 - 4^{-1} = 3/4 has valuation 1 at p=3
        ctx = PrecisionContext(3, 8)
        val, v = ti_scalar(ctx, 4, 2)
        assert v == 1
        inv4 = OFElement(ctx, 4).unit_inverse()
        assert val == OFElement(ctx, 3) * inv4

    def test_i2_c2_p5_unit(self):
        ctx = PrecisionContext(5, 8)
        val, v = ti_scalar(ctx, 2, 2)
        assert v == 0
        assert val == OFElement(ctx, 2).unit_inverse()

    def test_matrix_reduces_to_scalar(self):
        D = module(5, 8, [0, 1], [[0, 1], [1, 0]])
        W = gamma_matrix(D, 6, 30)
        for i in (2, 3):
            X = apply_Ti(W, i)
            scal, _ = ti_scalar(D.ctx, 6, i)
            for a in range(2):
                for b in range(2):
                    c0 = X[a][b].constant_term()
                    assert c0 == (scal if a == b else OFElement(D.ctx, 0))


    @pytest.mark.parametrize("f", (1, 2))
    @pytest.mark.parametrize("p,N,c", ((3, 3, 4), (3, 3, -1), (5, 2, 2), (5, 2, -1)))
    def test_matches_oracle(self, f, p, N, c):
        # gamma acts on X from i = 3 on, so p = 5 reaches it.  On these
        # modules gamma_{-1} fixes the lattice's G, so a G bumped at pi^1
        # also tells gamma_c from gamma_{-c}.
        ctx = PrecisionContext(p, N, f)
        D = eligible_random(ctx, 2, random.Random(f"{f}/{p}/{c}/ti"))
        W = gamma_matrix(D, c)
        G = lattice_oracle(D, c, W.order, ring=REFERENCE)[3]
        for bump in (False, True):
            if bump:
                W.G = bumped(W.G, 0, 1, f)
                G = [[SeriesRef(ctx, s.order, s.coeffs) for s in row] for row in W.G]
            for i in range(1, p):
                assert raw_matrix(apply_Ti(W, i)) == raw_matrix(ti_oracle(D, G, c, i, W.order))


def raw_matrix(M):
    return [[s.raw() for s in row] for row in M]


def bumped(M, i, j, k, delta=1):
    """Copy of the series matrix M with coefficient k of entry (i, j) moved by delta."""
    out = [list(row) for row in M]
    s = out[i][j]
    coeffs = s.raw()
    coeffs[k] += delta
    out[i][j] = APlusSeries(s.ctx, s.order, coeffs)
    return out


def ladder_iterations(D, c, order):
    """The oracle's iteration count summed over the solver's levels."""
    return lattice_oracle(D, c, order, levels=wach._levels(order - (D.ctx.p - 1)))[5]


class TestPackedAgainstOracle:
    """The f = 1 pipeline against the APlusSeries-matrix oracle: P, Q, H, G
    bit-identical to the single-level oracle, the same residual and
    q-cokernel verdict, and the iteration count of the oracle run over the
    solver's levels, over random eligible modules of both eligibility
    routes."""

    CASES = [(p, N, d, want)
             for p, N in ((3, 4), (3, 12), (5, 6), (7, 4), (7, 20))
             for d, want in ((1, "unit_root"), (3, "unit_root"), (2, "top"))]

    @pytest.mark.parametrize("p,N,d,want", CASES)
    def test_matches_oracle(self, p, N, d, want):
        ctx = PrecisionContext(p, N)
        D = eligible_random(ctx, d, random.Random(f"{p}/{N}/{d}/{want}"), want)
        c, order = 1 + p, default_order(ctx)
        W = gamma_matrix(D, c)
        P, Q, H, G, rv, _ = lattice_oracle(D, c, order)
        for mine, ref in ((W.P, P), (W.Q, Q), (W.H, H), (W.G, G)):
            assert raw_matrix(mine) == raw_matrix(ref)
        assert W.residual_valuation == rv
        assert W.residual_zero is (rv is None)
        assert W.iterations == ladder_iterations(D, c, order)
        assert check_q_cokernel(W) is q_cokernel_oracle(D, c, P, order)

    def test_initial_matrix_matches_oracle(self):
        ctx = PrecisionContext(5, 6)
        rng = random.Random(14)
        D = eligible_random(ctx, 2, rng)
        order = default_order(ctx)
        seed = [[APlusSeries(ctx, order - 4, [rng.randrange(ctx.pN) for _ in range(order - 4)])
                 for _ in range(2)] for _ in range(2)]
        H, iterations = solve_H(D, 6, order, initial=seed)
        _, _, Href, _, _, it_ref = lattice_oracle(D, 6, order, initial=seed)
        assert raw_matrix(H) == raw_matrix(Href) and iterations == it_ref

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_perturbed_G_breaks_relation(self, p, monkeypatch):
        ctx = PrecisionContext(p, 6)
        D = eligible_random(ctx, 2, random.Random(15 + p))
        W = gamma_matrix(D, 1 + p)
        assert W.residual_zero
        G = bumped(W.G, 0, 0, 0)  # below pi^{p-1}, where G is fixed to Id
        rv = relation_valuation(D, W.c, G, W.order)
        assert rv is not None and rv == residual_oracle(D, W.c, W.P, G, W.order)
        # through gamma_matrix: a wrong H from the solver moves G at pi^{k+p-1}
        true_solve = wach.solve_H
        for i, j, k in ((0, 1, 0), (1, 0, 2 * p), (1, 1, W.order - p)):
            monkeypatch.setattr(wach, "solve_H", lambda *a, **kw: (
                bumped(true_solve(*a, **kw)[0], i, j, k, p ** (k % 3)), 0))
            bad = gamma_matrix(D, 1 + p)
            assert bad.residual_zero is False
            assert bad.residual_valuation == residual_oracle(D, W.c, W.P, bad.G, W.order)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_perturbed_P_breaks_q_cokernel(self, p):
        ctx = PrecisionContext(p, 6)
        D = eligible_random(ctx, 3, random.Random(16 + p))
        W = gamma_matrix(D, 1 + p)
        assert check_q_cokernel(W)
        top = D.d - 1  # the row of the top jump, where the candidate is a unit
        for j, k in ((0, 0), (top, 1), (1, W.order - 1)):
            P = bumped(W.P, top, j, k)
            broken = WachData(D, W.c, P, W.Q, W.H, W.G, W.residual_valuation,
                              W.residual_zero, W.iterations, W.order)
            assert check_q_cokernel(broken) is False
            assert q_cokernel_oracle(D, W.c, P, W.order) is False


class TestUnramifiedAgainstOracle:
    """The packed pipeline for f > 1 (and one small f = 1 case) against the
    lattice oracle in the object arithmetic of `oracles.SeriesRef`, with its
    own ingredients and none of the kernel: P, Q, H, G bit-identical, the
    same residual, iteration count and q-cokernel verdict, over random
    eligible modules of both eligibility routes."""

    CASES = [(p, N, f, d, want)
             for p, N, f in ((3, 3, 2), (5, 2, 2), (3, 2, 3), (5, 2, 3))
             for d, want in ((1, "unit_root"), (3, "unit_root"), (2, "top"))]
    CASES.append((3, 3, 1, 2, "unit_root"))

    @pytest.mark.parametrize("p,N,f,d,want", CASES)
    def test_matches_oracle(self, p, N, f, d, want):
        ctx = PrecisionContext(p, N, f)
        D = eligible_random(ctx, d, random.Random(f"{p}/{N}/{f}/{d}/{want}"), want)
        c, order = 1 + p, default_order(ctx)
        W = gamma_matrix(D, c)
        P, Q, H, G, rv, iterations = lattice_oracle(D, c, order, ring=REFERENCE)
        for mine, ref in ((W.P, P), (W.Q, Q), (W.H, H), (W.G, G)):
            assert raw_matrix(mine) == raw_matrix(ref)
        assert W.residual_valuation == rv
        assert W.residual_zero is (rv is None)
        assert W.iterations == iterations
        assert check_q_cokernel(W) is q_cokernel_oracle(D, c, P, order, REFERENCE)

    def test_perturbed_G_f2(self):
        ctx = PrecisionContext(3, 3, 2)
        D = eligible_random(ctx, 2, random.Random(18))
        W = gamma_matrix(D, 4)
        ref = [[SeriesRef(ctx, s.order, s.coeffs) for s in row] for row in W.P]
        for k in (1, 2 * 2 + 1):  # a second coordinate, then one at pi^2
            G = bumped(W.G, 0, 1, k)
            rv = relation_valuation(D, 4, G, W.order)
            Gref = [[SeriesRef(ctx, s.order, s.coeffs) for s in row] for row in G]
            assert rv is not None
            assert rv == residual_oracle(D, 4, ref, Gref, W.order, REFERENCE)

    def test_cocycle_f2(self):
        ctx = PrecisionContext(3, 3, 2)
        D = eligible_random(ctx, 2, random.Random(19))
        order = default_order(ctx)
        assert check_cocycle(D, 4, 7, order)
        assert cocycle_oracle(D, 4, 7, order)

    def test_f2_n6_single_level(self):
        # mh = 22 is at or below the ladder's bottom: one level at full order
        ctx = PrecisionContext(3, 6, 2)
        D = eligible_random(ctx, 2, random.Random(24))
        order = default_order(ctx)
        assert wach._levels(order - 2) == [order - 2]
        W = gamma_matrix(D, 4)
        _, _, H, _, _, iterations = lattice_oracle(D, 4, order, ring=REFERENCE)
        assert raw_matrix(W.H) == raw_matrix(H)
        assert W.iterations == iterations

    def test_apply_Ti_f2(self):
        ctx = PrecisionContext(5, 2, 2)
        D = eligible_random(ctx, 2, random.Random(20))
        W = gamma_matrix(D, 6)
        G = lattice_oracle(D, 6, W.order, ring=REFERENCE)[3]
        for i in range(1, 5):
            assert raw_matrix(apply_Ti(W, i)) == raw_matrix(ti_oracle(D, G, 6, i, W.order))

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_difference_valuation_matches_oracle(self, f):
        # random pairs that agree to random (p, pi)-depths, against the
        # coefficientwise valuation of the series differences
        ctx = PrecisionContext(3, 5, f)
        order, rng = 12, random.Random(f)
        ker = series_kernel(ctx, order)
        for _ in range(40):
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                a = [rng.randrange(ctx.pN) for _ in range(order * f)]
                b = list(a)
                for _ in range(rng.randrange(3)):
                    j = rng.randrange(order * f)
                    b[j] = (b[j] + 3 ** rng.randrange(ctx.N) * rng.randrange(1, 3)) % ctx.pN
                pairs.append((a, b))
            diffs = [[APlusSeries.from_raw(ctx, order, a) - APlusSeries.from_raw(ctx, order, b)
                      for a, b in pairs]]
            assert wach._difference_valuation(pairs, ker, 2) == _smat_valuation(diffs, 2)

    def test_difference_valuation_f2(self):
        # flat index k*f + a is coordinate a of the coefficient of pi^k
        ker = series_kernel(PrecisionContext(3, 4, 2), 4)
        zero = [0] * 8
        at_pi2 = [0, 0, 0, 0, 0, 1, 0, 0]  # a unit coordinate of pi^2: 2
        at_pi1 = [0, 0, 0, 1, 0, 0, 0, 0]  # a unit coordinate of pi^1: 1
        pairs = [(at_pi2, zero), (at_pi1, zero)]
        assert wach._difference_valuation(pairs, ker, 2) == 1
        assert wach._difference_valuation(pairs[:1], ker, 2) == 2
