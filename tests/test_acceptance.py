"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Tolerances are bit-exactness everywhere (exact arithmetic); the
lattice-construction budget is the stated five minutes.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_force_strong_divisibility,
    kernel_image_intersection_trivial,
    planted_jordan_matrix,
)

from wachlab import (
    Degenerate,
    OFElement,
    OFMatrix,
    PrecisionContext,
    PrecisionLoss,
    is_semisimple_at,
    newton_slopes,
    semilinear_stable_rank,
)
from wachlab.aplus import (
    APlusSeries,
    gamma_series,
    phi_series,
    q_series,
)
from wachlab.cep import cep_check, gamma_star_window_unit, tam_exponent
from wachlab.filmod import (
    FilPhiModule,
    category_membership,
    dual_twist,
    strong_divisibility_check,
    top_slope_absent,
    unit_root_rank,
)
from wachlab.iwasawa import (
    IwasawaContext,
    IwasawaElement,
    delta_twist_consistency,
    eval_at_zero,
    idempotent,
    is_lambda_unit,
    twist1,
    twist_minus1,
)
from wachlab.jobs import build_module, format_job, generate_corpus, parse_job, run_job
from wachlab.wach import _ingredients, check_q_cokernel, gamma_matrix

PRIMES = (3, 5, 7)
SEED = 20260809


def _random_module(ctx, d, rng, jump_top=None):
    top = ctx.p - 1 if jump_top is None else jump_top
    while True:
        jumps = sorted(rng.randrange(top + 1) for _ in range(d))
        A = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)]
                           for _ in range(d)])
        if A.det().is_unit():
            return FilPhiModule(ctx, jumps, A)


def _eligible_module(ctx, d, rng, want):
    while True:
        D = _random_module(ctx, d, rng)
        if want == "unit_root" and unit_root_rank(D) == 0:
            return D
        if want == "top" and top_slope_absent(D):
            return D


def _solve_and_check(D, order):
    """One instance's full scorecard for criteria 1-3."""
    W = gamma_matrix(D, 1 + D.ctx.p, order)
    ctx = D.ctx
    phi = D.phi_matrix()
    p_mod_pi = all(W.P[i][j].constant_term() == phi.entries[i][j]
                   for i in range(D.d) for j in range(D.d))
    g_mod = True
    for i in range(D.d):
        for j in range(D.d):
            head = W.G[i][j].coeffs[: ctx.p - 1]
            if head[0].coeffs[0] != (1 if i == j else 0):
                g_mod = False
            if any(not c.is_zero() for c in head[1:]):
                g_mod = False
    return {
        "relation": W.residual_zero,
        "p_mod_pi": p_mod_pi,
        "g_mod": g_mod,
        "q_cokernel": check_q_cokernel(W),
        "iterations": W.iterations,
    }


@pytest.fixture(scope="session")
def wach_corpus():
    """Criteria 1-2 corpus: 200 eligible instances across the three primes
    at (N, M) = (20, 40(p-1)), solved once and summarized."""
    rng = random.Random(SEED)
    t0 = time.monotonic()
    results = []
    counts = {3: 67, 5: 67, 7: 66}
    for p in PRIMES:
        ctx = PrecisionContext(p, 20)
        order = 40 * (p - 1)
        for _ in range(counts[p]):
            D = _eligible_module(ctx, 1 + rng.randrange(3), rng, "unit_root")
            results.append(_solve_and_check(D, order))
    return results, time.monotonic() - t0


def test_criterion_1_wach_relation(wach_corpus):
    results, elapsed = wach_corpus
    assert len(results) == 200
    assert all(r["relation"] for r in results)
    assert elapsed < 300, f"corpus took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - gamma(P)G = phi(G)P bit-exact on 200 "
          f"eligible modules, p in {PRIMES}, (N,M)=(20,40(p-1)), "
          f"{elapsed:.1f}s")


def test_criterion_2_round_trip(wach_corpus):
    results, _ = wach_corpus
    assert all(r["p_mod_pi"] for r in results)
    assert all(r["g_mod"] for r in results)
    assert all(r["q_cokernel"] for r in results)
    print("\nACCEPTANCE 2: PASS - P mod pi = Phi and G = Id mod pi^{p-1} "
          "bit-exact on the same 200 instances")


def test_criterion_3_top_slope_variant():
    # a rank-one module always carries its top slope, so this eligibility
    # route only exists for d >= 2
    rng = random.Random(SEED + 1)
    counts = {3: 17, 5: 17, 7: 16}
    total = 0
    for p in PRIMES:
        ctx = PrecisionContext(p, 20)
        order = 40 * (p - 1)
        for _ in range(counts[p]):
            D = _eligible_module(ctx, 2 + rng.randrange(2), rng, "top")
            r = _solve_and_check(D, order)
            assert r["relation"] and r["p_mod_pi"] and r["g_mod"]
            total += 1
    assert total == 50
    print("\nACCEPTANCE 3: PASS - the suite holds under the top-slope "
          "eligibility variant on 50 instances (d >= 2)")


def test_criterion_4_ring_identities():
    rng = random.Random(SEED + 2)
    order = 24
    for p in PRIMES:
        ctx = PrecisionContext(p, 12)
        # mu^s q^s = p^s mod pi^{p-1}, every s in [0, p-1]
        qmu = _ingredients(ctx, 3 * (p - 1)).qmu
        acc = APlusSeries.one(ctx, 3 * (p - 1))
        for s in range(p):
            assert acc.coeffs[0] == OFElement(ctx, pow(p, s, ctx.pN))
            assert all(acc.coeffs[k].is_zero() for k in range(1, p - 1))
            acc = acc * qmu
        # phi gamma_c = gamma_c phi and the group law, 1000 random cases each
        for _ in range(1000):
            s = APlusSeries(ctx, order, [rng.randrange(ctx.pN) for _ in range(order)])
            c = rng.randrange(2, 500)
            if c % p == 0:
                c += 1
            assert phi_series(gamma_series(s, c)) == gamma_series(phi_series(s), c)
        for _ in range(1000):
            s = APlusSeries(ctx, order, [rng.randrange(ctx.pN) for _ in range(order)])
            c1 = rng.randrange(2, 500)
            c2 = rng.randrange(2, 500)
            if c1 % p == 0 or c2 % p == 0:
                continue
            assert gamma_series(gamma_series(s, c1), c2) == gamma_series(s, c1 * c2)
            assert gamma_series(s, 1) == s
    print(f"\nACCEPTANCE 4: PASS - mu^s q^s, phi/gamma commutation, gamma "
          f"group law bit-exact, 1000 random cases each, p in {PRIMES}")


@pytest.fixture(scope="session")
def tam_corpus():
    """Criteria 5-6: >= 100 generated generic-case modules per prime."""
    corpus = {}
    for p in PRIMES:
        jobs = generate_corpus(p, 3, 100, seed=SEED + p)
        mods = []
        for job in jobs:
            for spec in job.modules.values():
                mods.append(build_module(job, spec))
        corpus[p] = mods
    return corpus


def test_criterion_5_tamagawa_units(tam_corpus):
    for p in PRIMES:
        mods = tam_corpus[p]
        assert len(mods) >= 100
        for D in mods:
            assert tam_exponent(D) == 0
    print(f"\nACCEPTANCE 5: PASS - Tamagawa exponent 0 on 100 generated "
          f"generic modules per p in {PRIMES}, d <= 3, windows containing "
          "{0,1}")


def test_criterion_6_cep_instances(tam_corpus):
    checked = 0
    rng = random.Random(SEED + 60)
    for p in PRIMES:
        sub = [D for D in tam_corpus[p] if category_membership(D).both]
        ctx = PrecisionContext(p, 20)
        while len(sub) < 25:  # top up: both slope flags need d >= 2
            D = _random_module(ctx, 2 + rng.randrange(2), rng, jump_top=p - 2)
            if not category_membership(D).both:
                continue
            try:
                tam_exponent(D)
                tam_exponent(dual_twist(D, 1))
            except (Degenerate, PrecisionLoss):
                continue
            sub.append(D)
        for D in sub:
            rep = cep_check(D)
            assert rep.verdict
            # the two expressions agree component-wise on this corpus
            assert rep.cep_lattice_exponent == (rep.det_minus_phi_dual_vp
                                                + rep.tam_exponent_V
                                                - rep.tam_exponent_dual)
            assert rep.gamma_star_total_vp == 0
            assert rep.eta_exponent == 0
            checked += 1
    for p in (3, 5, 7, 11):
        assert gamma_star_window_unit(-(p - 2), p - 1, p)
    print(f"\nACCEPTANCE 6: PASS - lattice-exponent verdict true on "
          f"{checked} both-slope instances; Gamma*-form and Tam-ratio "
          f"agree; Gamma*(-j) unit across [-(p-2), p-1] for p in (3,5,7,11)")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(SEED + 3)
    ctx = PrecisionContext(5, 16)
    done = 0
    while done < 500:
        d = 1 + rng.randrange(3)
        M = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)]
                           for _ in range(d)])
        try:
            sl = newton_slopes(M)
        except PrecisionLoss:
            continue
        assert semilinear_stable_rank(M) == sl.count(0)
        done += 1
    rng2 = random.Random(SEED + 4)
    ctx3 = PrecisionContext(3, 10)
    for _ in range(200):
        d = 1 + rng2.randrange(3)
        D = _random_module(ctx3, d, rng2)
        raw = D.to_raw()
        if rng2.random() < 0.3:
            # corrupt Phi by a p-scaling to exercise the False branch
            scaled = raw.Phi * 3
            from wachlab.filmod import RawFilPhiModule
            raw = RawFilPhiModule(ctx3, scaled, raw.fil_gens)
        got, _ = strong_divisibility_check(raw)
        assert got == brute_force_strong_divisibility(raw)
    print("\nACCEPTANCE 7: PASS - stable rank equals slope-0 multiplicity on "
          "500 matrices; strong divisibility matches the brute-force "
          "lattice-sum oracle on 200 raw modules")


def test_criterion_8_semisimplicity_oracle():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        n = 3 + rng.randrange(2)
        M, eigs = planted_jordan_matrix(n, rng)
        for alpha in eigs:
            A = [[M[i][j] - (alpha if i == j else 0) for j in range(n)]
                 for i in range(n)]
            assert is_semisimple_at(M, alpha) == kernel_image_intersection_trivial(A)
    print("\nACCEPTANCE 8: PASS - semisimplicity test agrees with the "
          "kernel/image-intersection oracle on 200 planted-Jordan matrices")


def test_criterion_9_iwasawa_layer():
    rng = random.Random(SEED + 6)
    MT = 32
    for p in PRIMES:
        ctx = IwasawaContext(p, MT)
        # idempotent algebra
        total = IwasawaElement.zero(ctx)
        for i in range(p - 1):
            total = total + idempotent(ctx, i)
            for j in range(p - 1):
                prod = idempotent(ctx, i) * idempotent(ctx, j)
                want = idempotent(ctx, i) if i == j else IwasawaElement.zero(ctx)
                assert prod == want
        assert total == IwasawaElement.one(ctx)
        for _ in range(50):
            comps = [[Fraction(rng.randrange(-99, 99)) for _ in range(MT)]
                     for _ in range(p - 1)]
            x = IwasawaElement(ctx, comps)
            comps2 = [[Fraction(rng.randrange(-99, 99)) for _ in range(MT)]
                      for _ in range(p - 1)]
            y = IwasawaElement(ctx, comps2)
            assert twist_minus1(twist1(x)) == x
            assert eval_at_zero(x * y) == eval_at_zero(x) * eval_at_zero(y)
            assert is_lambda_unit(x * y) == (is_lambda_unit(x) and is_lambda_unit(y))
        for _ in range(20):
            comps = [[Fraction(rng.randrange(-99, 99)) for _ in range(MT)]
                     for _ in range(p - 1)]
            comps = [[Fraction(1 + p * rng.randrange(20))] + row[1:]
                     for row in comps]
            d = IwasawaElement(ctx, comps)
            assert delta_twist_consistency(d, twist1(d))
    print(f"\nACCEPTANCE 9: PASS - idempotent algebra, twist round trip, "
          f"evaluation homomorphism, unit multiplicativity, twist consistency: "
          f"bit-exact at T-truncation {MT}, p in {PRIMES}")


def test_criterion_10_determinism(tmp_path):
    from wachlab.cli import main
    files = []
    idx = 0
    for p in PRIMES:
        for job in generate_corpus(p, 3, 4, seed=SEED + 10 + p):
            f = tmp_path / f"job_{idx:03d}.wach"
            f.write_text(format_job(job))
            files.append(str(f))
            idx += 1
    outs = []
    for run, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"report_{run}.json"
        rc = main(["run", *files, "--N", "12", "--M", "28",
                   "--jobs", str(workers), "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    report = json.loads(outs[0])
    assert len(report["reports"]) == len(files)
    print(f"\nACCEPTANCE 10: PASS - byte-identical reports across two runs "
          f"and across thread counts on a {len(files)}-job corpus")
