"""Series ring layer: actions, q and mu, exact pi-division, inversion.

The packed kernel is checked against a reference convolution written here
(f = 1) and against the object arithmetic of `oracles.SeriesRef` (f > 1),
both independent of the library internals.
"""

import random

import pytest

from oracles import SeriesRef, gamma_ref, invert_ref, phi_ref
from wachlab import ExactDivisionFailure, NotAUnit, OFElement, PrecisionContext
from wachlab._kernel import SeriesKernel
from wachlab.aplus import (
    APlusSeries,
    binomial_exact,
    exact_div_pi,
    gamma_series,
    invert_series,
    mu_series,
    phi_series,
    q_series,
)
from wachlab.wach import _ingredients


def series(ctx, order, *coeffs):
    return APlusSeries(ctx, order, coeffs)


def ref_mul(a, b):
    """Reference truncated convolution over ints mod p^N (f = 1 only)."""
    ctx = a.ctx
    n = min(a.order, b.order)
    x, y = a.raw(), b.raw()
    out = [sum(x[i] * y[k - i] for i in range(k + 1)) % ctx.pN for k in range(n)]
    return APlusSeries(ctx, n, out)


def rand_series(ctx, order, rng, unit=False):
    cs = [rng.randrange(ctx.pN) for _ in range(order)]
    if unit:
        while cs[0] % ctx.p == 0:
            cs[0] = rng.randrange(ctx.pN)
    return APlusSeries(ctx, order, cs)


class TestBinomial:
    def test_small_values(self):
        assert binomial_exact(5, 2) == 10
        assert binomial_exact(4, 4) == 1
        assert binomial_exact(4, 5) == 0

    def test_negative_exponent(self):
        # C(-1, k) = (-1)^k
        assert [binomial_exact(-1, k) for k in range(5)] == [1, -1, 1, -1, 1]

    def test_matches_math_comb(self):
        import math
        for c in range(0, 12):
            for k in range(0, 12):
                assert binomial_exact(c, k) == math.comb(c, k)


class TestMulKernel:
    def test_packed_matches_reference(self):
        rng = random.Random(31)
        for p, N, M in [(3, 20, 40), (5, 20, 33), (7, 8, 64), (3, 4, 17)]:
            ctx = PrecisionContext(p, N)
            for _ in range(20):
                a = rand_series(ctx, M, rng)
                b = rand_series(ctx, M, rng)
                assert a * b == ref_mul(a, b)

    def test_small_order_product(self):
        ctx = PrecisionContext(3, 6)
        rng = random.Random(5)
        for _ in range(20):
            a = rand_series(ctx, 7, rng)
            b = rand_series(ctx, 7, rng)
            assert a * b == ref_mul(a, b)

    def test_min_order_rule(self):
        ctx = PrecisionContext(3, 6)
        a = series(ctx, 10, 1, 1)
        b = series(ctx, 6, 2)
        assert (a * b).order == 6
        assert (a + b).order == 6

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_headroom_bound(self, f):
        # (3, 5, 400) needs exactly 32 bits at f = 1, so a bit missing from
        # the bound at f > 1 leaves the limb too small
        for p, N, M in [(3, 1, 1), (3, 20, 80), (5, 20, 156), (7, 20, 240), (3, 5, 400)]:
            ker = SeriesKernel(p, N, M, PrecisionContext(p, N, f).modulus)
            worst = (ker.pN - 1) ** 2
            assert ker.max_terms * worst < 1 << ker.lbits
            assert (ker.max_terms + 1) * worst >= 1 << ker.lbits
            assert ker.max_terms >= 2 ** ker.HEADROOM_BITS * M * f

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_headroom_guard(self, f):
        # 16-bit limbs holding coordinates up to 2; every coordinate at its
        # maximum, so the middle limb of a slot takes f products per term
        ctx = PrecisionContext(3, 1, f)
        ker = SeriesKernel(3, 1, 1, ctx.modulus)
        top, two = ker.pack([2] * f), ker.scalar([2] * f)
        n = (ker.max_terms - 1) // f  # the accumulator takes the last term
        e = OFElement(ctx, [2] * f)
        want = list((e * e * n + e).coeffs)
        assert ker.unpack(ker.dot([two] * n, [top] * n, top)) == want
        with pytest.raises(OverflowError):
            ker.dot([two] * (n + 1), [top] * (n + 1), top)
        with pytest.raises(OverflowError):
            ker.mat_mul(None, None, ker.max_terms // (ker.M * f) + 1)


def rand_ref(ctx, order, rng, unit=False):
    """A SeriesRef with uniformly random O_F coefficients."""
    while True:
        s = SeriesRef(ctx, order, [tuple(rng.randrange(ctx.pN) for _ in range(ctx.f))
                                   for _ in range(order)])
        if not unit or s.coeffs[0].is_unit():
            return s


def lib(s):
    """The APlusSeries with the coefficients of a SeriesRef."""
    return APlusSeries(s.ctx, s.order, s.coeffs)


class TestUnramifiedKernel:
    """The packed layout for f > 1 (f coordinates in a slot of 2f - 1 limbs)
    against the object arithmetic of `oracles.SeriesRef`, bit for bit."""

    CASES = [(3, 4, 2, 12), (3, 6, 3, 20), (5, 5, 2, 40), (7, 3, 2, 30)]

    @pytest.mark.parametrize("p,N,f,M", CASES)
    def test_product(self, p, N, f, M):
        ctx = PrecisionContext(p, N, f)
        rng = random.Random(f"mul/{p}/{N}/{f}")
        for _ in range(3):
            a, b = rand_ref(ctx, M, rng), rand_ref(ctx, M, rng)
            assert (lib(a) * lib(b)).raw() == (a * b).raw()
            assert (lib(a) * lib(b).truncate(M - 3)).raw() == (a * b.truncate(M - 3)).raw()

    @pytest.mark.parametrize("p,N,f,M", CASES)
    def test_phi(self, p, N, f, M):
        ctx = PrecisionContext(p, N, f)
        rng = random.Random(f"phi/{p}/{N}/{f}")
        for _ in range(2):
            s = rand_ref(ctx, M, rng)
            assert phi_series(lib(s)).raw() == phi_ref(s).raw()

    @pytest.mark.parametrize("p,N,f,M", CASES)
    def test_gamma(self, p, N, f, M):
        ctx = PrecisionContext(p, N, f)
        rng = random.Random(f"gamma/{p}/{N}/{f}")
        for c in (1 + p, 2, -1):
            s = rand_ref(ctx, M, rng)
            assert gamma_series(lib(s), c).raw() == gamma_ref(s, c).raw()

    @pytest.mark.parametrize("p,N,f,M", CASES)
    def test_invert(self, p, N, f, M):
        ctx = PrecisionContext(p, N, f)
        rng = random.Random(f"inv/{p}/{N}/{f}")
        for _ in range(3):
            s = rand_ref(ctx, M, rng, unit=True)
            assert invert_series(lib(s)).raw() == invert_ref(s).raw()

    @pytest.mark.parametrize("p,N,f,M", CASES)
    def test_scalar_dot(self, p, N, f, M):
        # sum_k x_k s_k with O_F scalars x_k: one kernel multiply-add, and
        # the scalar multiple of a series
        ctx = PrecisionContext(p, N, f)
        rng = random.Random(f"dot/{p}/{N}/{f}")
        ker = SeriesKernel(p, N, M, ctx.modulus)
        xs = [OFElement(ctx, [rng.randrange(ctx.pN) for _ in range(f)]) for _ in range(5)]
        ss = [rand_ref(ctx, M, rng) for _ in range(5)]
        got = ker.unpack(ker.dot([ker.scalar(x.coeffs) for x in xs],
                                 [ker.pack(s.raw()) for s in ss]))
        want = ss[0] * xs[0]
        for x, s in zip(xs[1:], ss[1:]):
            want = want + s * x
        assert got == want.raw()
        assert (lib(ss[0]) * xs[0]).raw() == (ss[0] * xs[0]).raw()

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_raw_round_trip(self, f):
        ctx = PrecisionContext(5, 4, f)
        s = lib(rand_ref(ctx, 9, random.Random(f)))
        data = s.raw()
        assert len(data) == 9 * f
        assert data == [x for c in s.coeffs for x in c.coeffs]
        assert APlusSeries.from_raw(ctx, 9, data) == s
        assert APlusSeries(ctx, 9, s.coeffs) == s
        data[0] += 1  # raw() is a copy
        assert s.raw() != data
        with pytest.raises(ValueError):
            APlusSeries.from_raw(ctx, 8, data)


class TestPhi:
    def test_phi_pi_p3(self):
        ctx = PrecisionContext(3, 8)
        assert phi_series(APlusSeries.pi(ctx, 8)) == series(ctx, 8, 0, 3, 3, 1)

    def test_phi_constant(self):
        ctx = PrecisionContext(3, 8)
        assert phi_series(APlusSeries.one(ctx, 8)) == APlusSeries.one(ctx, 8)

    def test_phi_pi_squared_oracle(self):
        # phi(pi^2) must equal the reference square of phi(pi)
        ctx = PrecisionContext(3, 10)
        g = series(ctx, 8, 0, 3, 3, 1)
        expected = ref_mul(g, g)
        got = phi_series(series(ctx, 8, 0, 0, 1))
        assert got == expected

    def test_phi_is_multiplicative(self):
        ctx = PrecisionContext(5, 10)
        rng = random.Random(17)
        for _ in range(200):
            a = rand_series(ctx, 24, rng)
            b = rand_series(ctx, 24, rng)
            assert phi_series(a * b) == phi_series(a) * phi_series(b)

    def test_phi_twists_coefficients_f2(self):
        ctx = PrecisionContext(3, 5, f=2)
        from wachlab import frobenius
        x = OFElement(ctx, (0, 1))
        s = APlusSeries(ctx, 6, [x])
        assert phi_series(s).coeffs[0] == frobenius(x)


class TestGamma:
    def test_identity(self):
        ctx = PrecisionContext(3, 6)
        s = APlusSeries.pi(ctx, 6)
        assert gamma_series(s, 1) == s

    def test_c2(self):
        ctx = PrecisionContext(3, 6)
        assert gamma_series(APlusSeries.pi(ctx, 6), 2) == series(ctx, 6, 0, 2, 1)

    def test_c4_p3(self):
        ctx = PrecisionContext(3, 8)
        got = gamma_series(APlusSeries.pi(ctx, 6), 1 + 3)
        assert got == series(ctx, 6, 0, 4, 6, 4, 1)

    def test_rejects_non_unit(self):
        ctx = PrecisionContext(3, 6)
        with pytest.raises(NotAUnit):
            gamma_series(APlusSeries.pi(ctx, 6), 6)

    def test_group_law(self):
        rng = random.Random(23)
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 10)
            for _ in range(100):
                s = rand_series(ctx, 20, rng)
                c1 = rng.randrange(2, 200)
                c2 = rng.randrange(2, 200)
                if c1 % p == 0 or c2 % p == 0:
                    continue
                lhs = gamma_series(gamma_series(s, c1), c2)
                assert lhs == gamma_series(s, c1 * c2)

    def test_negative_exponent_inverts(self):
        # gamma_{-1} is an involution; c = -1 exercises the infinite binomial tail
        ctx = PrecisionContext(3, 8)
        rng = random.Random(41)
        for _ in range(50):
            s = rand_series(ctx, 20, rng)
            assert gamma_series(gamma_series(s, -1), -1) == s

    def test_commutes_with_phi(self):
        rng = random.Random(57)
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 10)
            for _ in range(100):
                s = rand_series(ctx, 20, rng)
                c = rng.randrange(2, 100)
                if c % p == 0:
                    continue
                assert phi_series(gamma_series(s, c)) == gamma_series(phi_series(s), c)


class TestQandMu:
    def test_q_p3(self):
        ctx = PrecisionContext(3, 6)
        assert q_series(ctx, 6) == series(ctx, 6, 3, 3, 1)

    def test_q_p5(self):
        ctx = PrecisionContext(5, 6)
        assert q_series(ctx, 8) == series(ctx, 8, 5, 10, 10, 5, 1)

    def test_q_shape(self):
        for p in (3, 5, 7, 11):
            ctx = PrecisionContext(p, 5)
            q = q_series(ctx, p + 4)
            assert q.coeffs[0] == OFElement(ctx, p)
            assert q.coeffs[p - 1] == OFElement(ctx, 1)
            assert all(q.coeffs[k].is_zero() for k in range(p, p + 4))

    def test_q_is_phi_pi_over_pi(self):
        ctx = PrecisionContext(5, 8)
        phi_pi = phi_series(APlusSeries.pi(ctx, 12))
        assert exact_div_pi(phi_pi, 1) == q_series(ctx, 11)

    def test_mu_p3_is_inverse_of_one_plus_pi(self):
        ctx = PrecisionContext(3, 6)
        # oracle: q - pi^2 = 3(1+pi), so mu = (1+pi)^{-1} = alternating signs
        mu = mu_series(ctx, 5)
        assert mu == series(ctx, 5, 1, -1, 1, -1, 1)

    def test_mu_constant_term_one(self):
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 8)
            assert mu_series(ctx, 20).constant_term() == OFElement(ctx, 1)

    def test_mu_defining_identity_p5(self):
        ctx = PrecisionContext(5, 8)
        M = 24
        mu = mu_series(ctx, M)
        q = q_series(ctx, M)
        pi_pm1 = series(ctx, M, *([0] * 4 + [1]))
        prod = mu * (q - pi_pm1)
        assert prod == APlusSeries.constant(ctx, M, 5)

    def test_q_mu_series_matches_product(self):
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 12)
            M = 30
            # the lattice ingredients take q mu = p + pi^{p-1} mu
            assert _ingredients(ctx, M).qmu == q_series(ctx, M) * mu_series(ctx, M)

    def test_mu_q_power_identity(self):
        # mu^s q^s == p^s mod pi^{p-1}, bit-exact, for 0 <= s <= p-1
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 10)
            M = 3 * (p - 1)
            qmu = _ingredients(ctx, M).qmu
            acc = APlusSeries.one(ctx, M)
            for s in range(p):
                for i in range(1, p - 1):
                    assert acc.coeffs[i].is_zero(), (p, s)
                assert acc.coeffs[0] == OFElement(ctx, pow(p, s, ctx.pN))
                acc = acc * qmu


class TestDivisionAndInversion:
    def test_exact_div(self):
        ctx = PrecisionContext(3, 6)
        s = series(ctx, 6, 0, 0, 1, 3)
        assert exact_div_pi(s, 2) == series(ctx, 4, 1, 3)

    def test_exact_div_failure(self):
        ctx = PrecisionContext(3, 6)
        with pytest.raises(ExactDivisionFailure):
            exact_div_pi(APlusSeries.pi(ctx, 6), 2)

    def test_invert_one_plus_pi(self):
        ctx = PrecisionContext(3, 6)
        got = invert_series(series(ctx, 6, 1, 1))
        assert got == series(ctx, 6, 1, -1, 1, -1, 1, -1)

    def test_invert_non_unit(self):
        ctx = PrecisionContext(3, 6)
        with pytest.raises(NotAUnit):
            invert_series(series(ctx, 6, 3, 1))

    def test_invert_reconstruction(self):
        ctx = PrecisionContext(5, 10)
        rng = random.Random(71)
        for _ in range(40):
            s = rand_series(ctx, 40, rng, unit=True)
            assert s * invert_series(s) == APlusSeries.one(ctx, 40)

    def test_invert_f2(self):
        ctx = PrecisionContext(3, 5, f=2)
        rng = random.Random(13)
        for _ in range(10):
            cs = [OFElement(ctx, (rng.randrange(ctx.pN), rng.randrange(ctx.pN)))
                  for _ in range(8)]
            s = APlusSeries(ctx, 8, cs)
            if not s.is_unit():
                continue
            assert s * invert_series(s) == APlusSeries.one(ctx, 8)


class TestPhiHomomorphism:
    def test_phi_q_pi_product(self):
        # phi(q * pi) == phi(q) * phi(pi) on top of random pair checks
        ctx = PrecisionContext(3, 10)
        q = q_series(ctx, 20)
        pi = APlusSeries.pi(ctx, 20)
        assert phi_series(q * pi) == phi_series(q) * phi_series(pi)
