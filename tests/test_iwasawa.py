"""Idempotent algebra, the twist automorphism, logarithm elements,
evaluation, and unit criteria at finite T-truncation."""

import random
from fractions import Fraction
from math import gcd

import pytest

from wachlab import NotIntegral
from wachlab.iwasawa import (
    IwasawaContext,
    IwasawaElement,
    delta_twist_consistency,
    ell,
    eval_at_zero,
    idempotent,
    is_lambda_unit,
    log_one_plus_p,
    twist1,
    twist_minus1,
)
from wachlab.padic import vp_fraction

from oracles import (
    IwasawaElementRef,
    ell_ref,
    evaluate_component,
    evaluate_component_ref,
    is_lambda_unit_ref,
    max_denominator_vp,
    twist1_ref,
    twist_minus1_ref,
)


def rand_element(ctx, rng, integral=True, unit=False):
    comps = []
    for _ in range(ctx.p - 1):
        if integral:
            row = [Fraction(rng.randrange(-50, 50)) for _ in range(ctx.M_T)]
        else:
            row = [Fraction(rng.randrange(-50, 50), rng.choice([1, 1, ctx.p]))
                   for _ in range(ctx.M_T)]
        if unit:
            c = rng.randrange(1, 50)
            while c % ctx.p == 0:
                c = rng.randrange(1, 50)
            row[0] = Fraction(c)
        comps.append(row)
    return IwasawaElement(ctx, comps)


class TestIdempotents:
    def test_sum_is_one(self):
        ctx = IwasawaContext(3, 8)
        total = idempotent(ctx, 0) + idempotent(ctx, 1)
        assert total == IwasawaElement.one(ctx)

    def test_orthogonal(self):
        ctx = IwasawaContext(5, 8)
        for i in range(4):
            for j in range(4):
                prod = idempotent(ctx, i) * idempotent(ctx, j)
                expected = idempotent(ctx, i) if i == j else IwasawaElement.zero(ctx)
                assert prod == expected

    def test_sum_all_p5(self):
        ctx = IwasawaContext(5, 6)
        total = IwasawaElement.zero(ctx)
        for i in range(4):
            total = total + idempotent(ctx, i)
        assert total == IwasawaElement.one(ctx)


class TestTwist:
    def test_one_maps_to_one(self):
        # group-like elements keep all components equal; the constant 1 of
        # the group algebra is fixed
        ctx = IwasawaContext(3, 8)
        assert twist1(IwasawaElement.one(ctx)) == IwasawaElement.one(ctx)

    def test_gamma1_scales(self):
        # gamma_1 = 1 + T (all components): Tw(gamma_1) = (1+p)(1+T)
        ctx = IwasawaContext(3, 8)
        g1 = IwasawaElement(ctx, [[1, 1] for _ in range(2)])
        tw = twist1(g1)
        expected = IwasawaElement(ctx, [[4, 4] for _ in range(2)])
        assert tw == expected

    def test_roundtrip_exact(self):
        rng = random.Random(21)
        for p in (3, 5, 7):
            ctx = IwasawaContext(p, 12)
            for _ in range(40):
                x = rand_element(ctx, rng, integral=False)
                assert twist_minus1(twist1(x)) == x
                assert twist1(twist_minus1(x)) == x

    def test_additive_bit_exact(self):
        rng = random.Random(22)
        ctx = IwasawaContext(5, 10)
        for _ in range(40):
            x = rand_element(ctx, rng)
            y = rand_element(ctx, rng)
            assert twist1(x + y) == twist1(x) + twist1(y)

    def test_multiplicative_without_overflow(self):
        # products of low-degree polynomials stay below the truncation, and
        # there the twist is bit-exactly multiplicative
        rng = random.Random(24)
        ctx = IwasawaContext(5, 16)
        for _ in range(40):
            x = rand_element(IwasawaContext(5, 8), rng)
            y = rand_element(IwasawaContext(5, 8), rng)
            xe = IwasawaElement(ctx, [list(c) for c in x.components])
            ye = IwasawaElement(ctx, [list(c) for c in y.components])
            assert twist1(xe * ye) == twist1(xe) * twist1(ye)

    def test_multiplicative_congruence_on_overflow(self):
        # truncated tails re-enter at degree k with valuation >= M_T - k:
        # the automorphism holds modulo the twist-stable mixed ideal
        rng = random.Random(25)
        ctx = IwasawaContext(3, 10)
        for _ in range(30):
            x = rand_element(ctx, rng)
            y = rand_element(ctx, rng)
            lhs = twist1(x * y)
            rhs = twist1(x) * twist1(y)
            diff = lhs - rhs
            for comp in diff.components:
                for k, c in enumerate(comp):
                    if c:
                        assert vp_fraction(c, 3) >= ctx.M_T - k

    def test_component_shift_direction(self):
        # content of component i+1 lands in component i (the per-idempotent
        # form of the twist consistency)
        ctx = IwasawaContext(5, 6)
        x = IwasawaElement.from_component(ctx, 2, [7])
        tw = twist1(x)
        assert tw.components[1][0] == 7
        assert all(all(c == 0 for c in tw.components[i]) for i in (0, 2, 3))

    def test_eval_after_twist_is_character_evaluation(self):
        # eval(twist(x)) picks component 1 of x evaluated at T = p
        rng = random.Random(23)
        ctx = IwasawaContext(3, 10)
        for _ in range(20):
            x = rand_element(ctx, rng)
            got = eval_at_zero(twist1(x))
            direct = evaluate_component(x, 1, Fraction(ctx.p))
            assert got == direct


class TestEll:
    def test_ell0_constant_term(self):
        ctx = IwasawaContext(3, 8)
        assert eval_at_zero(ell(ctx, 0)) == 0

    def test_ell_j_offset(self):
        ctx = IwasawaContext(3, 8)
        l0 = ell(ctx, 0)
        l5 = ell(ctx, 5)
        diff = l0 - l5
        assert diff == IwasawaElement.one(ctx) * 5

    def test_p3_coefficients(self):
        # (T - T^2/2 + T^3/3)/log_3(4), and the normalizer has valuation 1
        ctx = IwasawaContext(3, 4)
        lp = log_one_plus_p(ctx)
        assert vp_fraction(lp, 3) == 1
        l0 = ell(ctx, 0)
        comp = l0.components[0]
        assert comp[0] == 0
        assert comp[1] == 1 / lp
        assert comp[2] == Fraction(-1, 2) / lp
        assert comp[3] == Fraction(1, 3) / lp

    def test_denominators_tracked(self):
        ctx = IwasawaContext(3, 6)
        l0 = ell(ctx, 0)
        assert not l0.is_integral()
        assert max_denominator_vp(l0) >= 1

    def test_character_values(self):
        # at T = (1+p)^k - 1 the value is k - j up to the working precision
        ctx = IwasawaContext(3, 40, N=12)
        for j in (-2, 0, 1, 3):
            lj = ell(ctx, j)
            for k in (0, 1, 2, 3):
                t0 = Fraction((1 + ctx.p) ** k - 1)
                got = evaluate_component(lj, 0, t0)
                err = got - (k - j)
                assert err == 0 or vp_fraction(err, ctx.p) >= ctx.N - 1, (j, k)


class TestEval:
    def test_constant(self):
        ctx = IwasawaContext(3, 8)
        assert eval_at_zero(IwasawaElement.one(ctx)) == 1

    def test_wrong_component(self):
        ctx = IwasawaContext(3, 8)
        x = idempotent(ctx, 1) * rand_element(ctx, random.Random(1))
        assert eval_at_zero(x) == 0

    def test_ring_homomorphism(self):
        rng = random.Random(31)
        ctx = IwasawaContext(5, 10)
        for _ in range(60):
            x = rand_element(ctx, rng)
            y = rand_element(ctx, rng)
            assert eval_at_zero(x * y) == eval_at_zero(x) * eval_at_zero(y)
            assert eval_at_zero(x + y) == eval_at_zero(x) + eval_at_zero(y)


class TestLambdaUnit:
    def test_one_plus_pT(self):
        ctx = IwasawaContext(3, 6)
        x = IwasawaElement(ctx, [[1, 3], [1, 3]])
        assert is_lambda_unit(x)

    def test_p_plus_T(self):
        ctx = IwasawaContext(3, 6)
        x = IwasawaElement(ctx, [[3, 1], [3, 1]])
        assert not is_lambda_unit(x)

    def test_twist_preserves_units(self):
        rng = random.Random(41)
        ctx = IwasawaContext(5, 8)
        for _ in range(40):
            u = rand_element(ctx, rng, unit=True)
            assert is_lambda_unit(u)
            assert is_lambda_unit(twist1(u))

    def test_not_integral_raises(self):
        ctx = IwasawaContext(3, 6)
        x = IwasawaElement(ctx, [[Fraction(1, 3)], [1]])
        with pytest.raises(NotIntegral):
            is_lambda_unit(x)

    def test_multiplicative(self):
        rng = random.Random(42)
        ctx = IwasawaContext(3, 8)
        for _ in range(80):
            x = rand_element(ctx, rng)
            y = rand_element(ctx, rng)
            lhs = is_lambda_unit(x * y)
            assert lhs == (is_lambda_unit(x) and is_lambda_unit(y))


class TestDeltaConsistency:
    def test_constructed_pair(self):
        rng = random.Random(51)
        ctx = IwasawaContext(5, 12)
        for _ in range(20):
            d = rand_element(ctx, rng, unit=True)
            assert delta_twist_consistency(d, twist1(d))

    def test_perturbed_fails(self):
        ctx = IwasawaContext(3, 8)
        rng = random.Random(52)
        d = rand_element(ctx, rng, unit=True)
        d1 = twist1(d)
        comps = [list(c) for c in d1.components]
        comps[0][3] += Fraction(3 ** 19)
        assert not delta_twist_consistency(d, IwasawaElement(ctx, comps))

    def test_unrelated_units_fail(self):
        rng = random.Random(53)
        ctx = IwasawaContext(3, 8)
        for _ in range(20):
            a = rand_element(ctx, rng, unit=True)
            b = rand_element(ctx, rng, unit=True)
            if twist1(a) == b:
                continue  # astronomically unlikely with this generator
            assert not delta_twist_consistency(a, b)


def rand_pair(ctx, rng, integral):
    """The same random element as an IwasawaElement and as the Fraction
    oracle; non-integral inputs draw denominators with p and 1 + p in them,
    and some components are zero."""
    dens = [1] if integral else [1, 1, 2, ctx.p, ctx.p ** 2, 1 + ctx.p, 3 * ctx.p]
    comps = []
    for _ in range(ctx.p - 1):
        if rng.random() < 0.2:
            comps.append([0])
            continue
        row = [Fraction(rng.randrange(-60, 60), rng.choice(dens))
               for _ in range(rng.randrange(1, ctx.M_T + 1))]
        if rng.random() < 0.5:
            c = rng.randrange(1, 60)
            row[0] = Fraction(c if c % ctx.p else c + 1)
        comps.append(row)
    return IwasawaElement(ctx, comps), IwasawaElementRef(ctx, comps)


def assert_agrees(x, ref):
    comps = x.components
    assert comps == ref.components
    assert all(type(c) is Fraction for row in comps for c in row)
    assert x == IwasawaElement(x.ctx, ref.components)
    assert gcd(x.den, *(n for row in x.nums for n in row)) == 1 and x.den > 0


class TestOracleAgreement:
    """Integer numerators over one denominator against the per-coefficient
    Fraction oracle, bit for bit after every operation."""

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("MT", [1, 2, 8, 32])
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_operations(self, p, MT, integral):
        rng = random.Random(1000 * p + 10 * MT + integral)
        ctx = IwasawaContext(p, MT, N=8)
        for _ in range(3):
            (x, rx), (y, ry) = rand_pair(ctx, rng, integral), rand_pair(ctx, rng, integral)
            assert_agrees(x, rx)
            assert_agrees(x + y, rx + ry)
            assert_agrees(x - y, rx - ry)
            assert_agrees(x - x, rx - rx)
            assert_agrees(-x, -rx)
            for k in (0, 1, -3, p, rng.randrange(-99, 99)):
                assert_agrees(x * k, rx * k)
                assert_agrees(k * x, rx * k)
            for k in (Fraction(1, p), Fraction(-p, 1 + p), Fraction(p, p + 2)):
                assert_agrees(x * k, rx * k)
            assert_agrees(x * y, rx * ry)
            assert_agrees(twist1(x), twist1_ref(rx))
            assert_agrees(twist_minus1(x), twist_minus1_ref(rx))
            i = rng.randrange(p - 1)
            e, re = idempotent(ctx, i), IwasawaElementRef.from_component(ctx, i, [1])
            assert_agrees(e, re)
            assert_agrees(e * x, re * rx)
            assert eval_at_zero(x) == rx.components[0][0]
            for t0 in (0, p, Fraction(1, p), Fraction(-2, 1 + p)):
                assert (evaluate_component(x, i, t0)
                        == evaluate_component_ref(rx, i, t0))
            assert x.is_integral() == rx.is_integral()
            assert max_denominator_vp(x) == rx.max_denominator_vp()
            for z, rz in ((x, rx), (x * y, rx * ry)):
                if rz.is_integral():
                    assert is_lambda_unit(z) == is_lambda_unit_ref(rz)
                else:
                    with pytest.raises(NotIntegral):
                        is_lambda_unit(z)
                    with pytest.raises(NotIntegral):
                        is_lambda_unit_ref(rz)
        for j in (-2, 0, 3):
            assert_agrees(ell(ctx, j), ell_ref(ctx, j))


class TestCanonicalForm:
    def test_equal_values_equal_and_hash_equal(self):
        ctx = IwasawaContext(5, 6)
        a = IwasawaElement(ctx, [[Fraction(2, 4), 3]] * 4)
        b = IwasawaElement(ctx, [[Fraction(1, 2), 3]] * 4)
        assert a == b and hash(a) == hash(b)
        assert (a.den, a.nums) == (2, ((1, 6) + (0,) * 4,) * 4)
        rng = random.Random(61)
        for integral in (True, False):
            x, _ = rand_pair(ctx, rng, integral)
            same = x * Fraction(ctx.p) * Fraction(1, ctx.p)
            assert same == x and hash(same) == hash(x)
            half = x * Fraction(1, 2)
            assert half + half == x and hash(half + half) == hash(x)

    def test_zero_has_unit_denominator(self):
        ctx = IwasawaContext(3, 8)
        assert IwasawaElement.zero(ctx).den == 1
        x, _ = rand_pair(ctx, random.Random(62), integral=False)
        assert x.den > 1
        assert (x - x).den == 1 and x - x == IwasawaElement.zero(ctx)
        assert (x * 0).den == 1

    def test_twist_inverse_on_non_integral(self):
        rng = random.Random(63)
        for p in (3, 7):
            ctx = IwasawaContext(p, 16)
            for _ in range(10):
                x, _ = rand_pair(ctx, rng, integral=False)
                assert twist1(twist_minus1(x)) == x
                assert twist_minus1(twist1(x)) == x

    def test_denominator_is_lcm(self):
        ctx = IwasawaContext(3, 4)
        x = IwasawaElement(ctx, [[Fraction(1, 6), Fraction(5, 4)], [Fraction(2, 9)]])
        assert x.den == 36
        assert max_denominator_vp(x) == 2 and not x.is_integral()
