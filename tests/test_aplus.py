"""Series ring layer: actions, q and mu, exact pi-division, inversion.

The packed fast path is checked against a reference convolution written
here, independent of the library internals.
"""

import random

import pytest

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
    q_mu_series,
    q_series,
)


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

    def test_small_order_naive_path(self):
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

    def test_headroom_bound(self):
        for p, N, M in [(3, 1, 1), (3, 20, 80), (5, 20, 156), (7, 20, 240)]:
            ker = SeriesKernel(p, N, M)
            worst = (ker.pN - 1) ** 2
            assert ker.max_terms * worst < 1 << ker.lbits
            assert (ker.max_terms + 1) * worst >= 1 << ker.lbits
            assert ker.max_terms >= 2 ** ker.HEADROOM_BITS * M

    def test_headroom_guard(self):
        ker = SeriesKernel(3, 1, 1)  # 16-bit limbs holding values up to 2
        top = ker.pack([2])
        n = ker.max_terms - 1  # the accumulator takes the last term
        assert ker.unpack(ker.dot([2] * n, [top] * n, top)) == [(4 * n + 2) % 3]
        with pytest.raises(OverflowError):
            ker.dot([2] * (n + 1), [top] * (n + 1), top)
        with pytest.raises(OverflowError):
            ker.mat_mul(None, None, ker.max_terms // ker.M + 1)


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
            assert q_mu_series(ctx, M) == q_series(ctx, M) * mu_series(ctx, M)

    def test_mu_q_power_identity(self):
        # mu^s q^s == p^s mod pi^{p-1}, bit-exact, for 0 <= s <= p-1
        for p in (3, 5, 7):
            ctx = PrecisionContext(p, 10)
            M = 3 * (p - 1)
            qmu = q_mu_series(ctx, M)
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
