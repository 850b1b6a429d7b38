"""Filtered module layer: strong divisibility, slope flags, duality, Hodge data."""

import collections
import random

import pytest

from oracles import decreasing_ref, strong_divisibility_check_ref
from wachlab import OFMatrix, PrecisionContext, PrecisionLoss, ValidationError, filmod
from wachlab.padic import smith_normal_form
from wachlab.filmod import (
    CategoryFlags,
    FilPhiModule,
    RawFilPhiModule,
    category_membership,
    dual_twist,
    hodge_invariants,
    slopes,
    strong_divisibility_check,
    top_slope_absent,
    unit_root_rank,
)


def module(p, N, jumps, A, shift=0):
    ctx = PrecisionContext(p, N)
    return FilPhiModule(ctx, jumps, OFMatrix(ctx, A), shift=shift)


def unimodular(ctx, d, rng):
    while True:
        m = OFMatrix(ctx, [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)])
        if m.det().is_unit():
            return m


def rand_module(ctx, d, rng, max_jump=None):
    top = ctx.p - 1 if max_jump is None else max_jump
    jumps = sorted(rng.randrange(top + 1) for _ in range(d))
    return FilPhiModule(ctx, jumps, unimodular(ctx, d, rng))


def random_raw_inputs(ctx, rng):
    """(Phi, fil_gens) of a random module in a random basis, with each
    level's generators kept, given a redundant p-divisible row, replaced by
    random combinations, given a row times p or p^2, or zeroed; sometimes
    one more level inside the top one.  Many are rejected as not
    decreasing, not strongly divisible or not split."""
    p, d = ctx.p, rng.randrange(1, 4)
    raw = rand_module(ctx, d, rng).to_raw()
    B = unimodular(ctx, d, rng)
    Binv = B.inverse()
    Phi = B.frobenius_map() * raw.Phi * Binv
    gens = []
    for g in raw.fil_gens:
        k = g.rows
        R = [[int(i == j) for j in range(k)] for i in range(k)]
        kind = rng.randrange(5)
        if kind == 1:
            R.append([p * rng.randrange(ctx.pN) for _ in range(k)])
        elif kind == 2:
            R = [[rng.randrange(ctx.pN) for _ in range(k)] for _ in range(k)]
        elif kind == 3:
            i = rng.randrange(k)
            R[i][i] = p ** rng.randrange(1, 3)
        elif kind == 4:
            R = [[0] * k]
        gens.append(OFMatrix(ctx, R) * g * Binv)
    if rng.randrange(3) == 0:
        level = len(gens)
        R = [[p ** rng.randrange(level + 2) * rng.randrange(ctx.pN)
              for _ in range(gens[-1].rows)] for _ in range(rng.randrange(1, 3))]
        gens.append(OFMatrix(ctx, R) * gens[-1])
    return Phi, gens


class TestValidation:
    def test_rejects_context_mismatch(self):
        ctx, other = PrecisionContext(3, 6), PrecisionContext(3, 4)
        with pytest.raises(ValidationError, match="matrix context mismatch"):
            RawFilPhiModule(ctx, OFMatrix(other, [[3]]), [OFMatrix(ctx, [[1]])])
        with pytest.raises(ValidationError, match="matrix context mismatch"):
            RawFilPhiModule(ctx, OFMatrix(ctx, [[3]]),
                            [OFMatrix(ctx, [[1]]), OFMatrix(other, [[1]])])

    def test_rejects_out_of_window(self):
        with pytest.raises(ValidationError):
            module(3, 6, [3], [[1]])

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            module(5, 6, [2, 1], [[1, 0], [0, 1]])

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            module(3, 6, [0, 1], [[3, 1], [3, 1]])

    def test_fil0_must_be_full_lattice(self):
        # Fil^0 = 3M at (3, 8) passes the lattice sum (phi(3M) + p^{-1} phi(3M)
        # = M), so only the constructor can reject it; so is a rank drop
        ctx = PrecisionContext(3, 8)
        for Phi, gens in (([[1]], [[[3]], [[3]]]), ([[1, 0], [0, 1]], [[[1, 0]]])):
            with pytest.raises(ValidationError, match="Fil\\^0 must be the full lattice"):
                RawFilPhiModule(ctx, OFMatrix(ctx, Phi), gens)
        # any unimodular basis of M is accepted
        rng = random.Random(26)
        for p in (3, 5):
            ctx = PrecisionContext(p, 8)
            for d in (1, 2, 3):
                U = unimodular(ctx, d, rng)
                raw = RawFilPhiModule(ctx, OFMatrix.identity(ctx, d), [U])
                assert raw.fil_gens == (U,)

    def test_phi_matrix_rows_scaled(self):
        D = module(3, 6, [0, 1], [[0, 1], [1, 0]])
        assert D.phi_matrix() == OFMatrix(D.ctx, [[0, 1], [3, 0]])


class TestStrongDivisibility:
    def test_rank_one_true(self):
        # Phi=(p), Fil^0=D, Fil^1=D, Fil^2=0
        ctx = PrecisionContext(3, 6)
        raw = RawFilPhiModule(ctx, OFMatrix(ctx, [[3]]),
                              [OFMatrix(ctx, [[1]]), OFMatrix(ctx, [[1]])])
        ok, adapted = strong_divisibility_check(raw)
        assert ok
        assert adapted is not None
        assert adapted.jumps == (1,)
        assert adapted.A == OFMatrix(ctx, [[1]])

    def test_rank_one_false_p_squared(self):
        # p^{-1} phi(Fil^1) = p*D, sum is p*D != D
        ctx = PrecisionContext(3, 6)
        raw = RawFilPhiModule(ctx, OFMatrix(ctx, [[9]]),
                              [OFMatrix(ctx, [[1]]), OFMatrix(ctx, [[1]])])
        ok, _ = strong_divisibility_check(raw)
        assert not ok

    def test_round_trip_random(self):
        rng = random.Random(8)
        for p in (3, 5):
            ctx = PrecisionContext(p, 8)
            for _ in range(40):
                D = rand_module(ctx, rng.randrange(1, 4), rng)
                ok, adapted = strong_divisibility_check(D.to_raw())
                assert ok
                assert adapted is not None
                assert adapted.jumps == D.jumps

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_round_trip_any_basis(self, p):
        """Known answer: an adapted module written in a random basis W
        (Phi' = W^sigma Phi W^{-1}, each flag the rows of W^{-1} at or above
        its level), with each level's generators mixed by a random
        unimodular matrix, gives back its jumps; when r_d >= N the quotient
        p^{-r_d} phi(Fil^{r_d}) is unknown and the check raises."""
        rng = random.Random(40 + p)
        outcomes = collections.Counter()
        for N in (6, 12, 20):
            ctx = PrecisionContext(p, N)
            for _ in range(24):
                D = rand_module(ctx, rng.randrange(1, 5), rng)
                W = unimodular(ctx, D.d, rng)
                Winv = W.inverse()
                gens = [unimodular(ctx, g.rows, rng) * g * Winv for g in D.to_raw().fil_gens]
                raw = RawFilPhiModule(ctx, W.frobenius_map() * D.phi_matrix() * Winv, gens)
                if D.jumps[-1] >= N:
                    with pytest.raises(PrecisionLoss, match=f"Fil\\^{D.jumps[-1]}"):
                        strong_divisibility_check(raw)
                    outcomes["precision"] += 1
                    continue
                ok, adapted = strong_divisibility_check(raw)
                assert ok and adapted.jumps == D.jumps
                outcomes["recovered"] += 1
        assert outcomes["recovered"] and bool(outcomes["precision"]) == (p == 7)

    def test_false_when_jump_raised(self):
        # claim a vector one filtration level too high: the lattice sum leaks
        rng = random.Random(9)
        ctx = PrecisionContext(3, 8)
        hits = 0
        for _ in range(40):
            D = rand_module(ctx, 2, rng, max_jump=ctx.p - 2)
            raw = D.to_raw()
            lifted = list(raw.fil_gens)
            i = rng.randrange(D.d)
            r = D.jumps[i]
            row = [[1 if k == i else 0 for k in range(D.d)]]
            # add e_i to level r+1's generators
            extra = OFMatrix(ctx, row)
            if r + 1 < len(lifted):
                base = lifted[r + 1]
                lifted[r + 1] = OFMatrix(ctx, (list(base.entries) if base else []) + row)
            else:
                lifted.append(extra)
            bumped = RawFilPhiModule(ctx, raw.Phi, lifted)
            ok, _ = strong_divisibility_check(bumped)
            if not ok:
                hits += 1
        assert hits == 40

    def test_brute_force_minor_oracle(self):
        # independent check: lattice sum = D iff some dxd minor of the stacked
        # generator matrix is a p-adic unit (computed over plain integers)
        import itertools
        rng = random.Random(10)
        ctx = PrecisionContext(3, 8)
        for _ in range(60):
            d = rng.randrange(1, 4)
            D = rand_module(ctx, d, rng)
            raw = D.to_raw()
            if rng.random() < 0.5:
                # corrupt: scale Phi by p to break divisibility balance
                raw = RawFilPhiModule(ctx, raw.Phi * 3, raw.fil_gens)
            ok, _ = strong_divisibility_check(raw)
            cols = []
            divisible = True
            for level, gens in enumerate(raw.fil_gens):
                if gens is None:
                    continue
                img = gens * raw.Phi
                for row in img.entries:
                    vals = [e.coeffs[0] for e in row]
                    if any(v % 3 ** level for v in vals):
                        divisible = False
                    else:
                        cols.append([v // 3 ** level for v in vals])
            if not divisible:
                assert not ok
                continue
            unit_minor = False
            for combo in itertools.combinations(range(len(cols)), d):
                sub = [cols[i] for i in combo]
                det = _int_det(sub)
                if det % 3:
                    unit_minor = True
                    break
            assert ok == unit_minor


    def test_against_reference_solvers(self):
        """Constructor verdict and (flag, jumps, A) equal to the earlier
        solvers' on 200 accepted random raw modules."""
        rng = random.Random(25)
        outcomes = collections.Counter()
        while outcomes["accepted"] < 200:
            ctx = PrecisionContext(rng.choice((3, 5)), rng.choice((4, 6, 8)),
                                   f=rng.choice((1, 2)))
            Phi, gens = random_raw_inputs(ctx, rng)
            try:
                raw = RawFilPhiModule(ctx, Phi, gens)
            except ValidationError:
                assert not decreasing_ref(gens)
                continue
            assert decreasing_ref(gens)
            outcomes["accepted"] += 1
            results = []
            for check in (strong_divisibility_check, strong_divisibility_check_ref):
                try:
                    flag, adapted = check(raw)
                except ValidationError as exc:
                    results.append(("window", str(exc)))
                    continue
                except PrecisionLoss as exc:
                    results.append(("precision", str(exc)))
                    continue
                results.append((flag, adapted and (adapted.jumps, repr(adapted.A))))
            assert results[0] == results[1]
            r = results[0]
            outcomes[r[0] if isinstance(r[0], str) else (r[0], r[1] is not None)] += 1
        # split, strongly divisible but not split, not strongly divisible,
        # window overflow, a nonempty level at or past N
        assert set(outcomes) == {"accepted", "window", "precision", (True, True),
                                 (True, False), (False, False)}

    def test_smith_calls(self, monkeypatch):
        calls = []

        def counted(M):
            calls.append(M)
            return smith_normal_form(M)

        monkeypatch.setattr(filmod, "smith_normal_form", counted)
        D = module(5, 8, (0, 1, 2), [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        ok, adapted = strong_divisibility_check(D.to_raw())
        assert ok and adapted == D
        # one per level, one for the lattice sum and one per split test
        assert len(calls) <= 8
        # Phi = 3 Id with Fil^2 = (3, 0): strongly divisible, but Fil^2 is not
        # saturated in Fil^1, so extraction stops at level 1.  Construction
        # reduces each of the three levels once; the check adds the lattice
        # sum and one split test
        ctx = PrecisionContext(3, 8)
        full = OFMatrix.identity(ctx, 2)
        calls.clear()
        raw = RawFilPhiModule(ctx, full * 3, [full, full, OFMatrix(ctx, [[3, 0]])])
        assert strong_divisibility_check(raw) == (True, None)
        assert len(calls) == 5


def _int_det(m):
    import itertools as it
    n = len(m)
    total = 0
    for perm in it.permutations(range(n)):
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


class TestSlopeFlags:
    def test_unit_root_examples(self):
        assert unit_root_rank(module(3, 6, [0, 1], [[1, 0], [0, 1]])) == 1
        assert unit_root_rank(module(3, 6, [0, 1], [[0, 1], [1, 0]])) == 0
        assert unit_root_rank(module(3, 6, [1, 2], [[2, 1], [1, 1]])) == 0

    def test_top_slope_examples(self):
        assert not top_slope_absent(module(3, 6, [1], [[1]]))
        assert top_slope_absent(module(3, 6, [0, 1], [[0, 1], [1, 0]]))
        assert not top_slope_absent(module(3, 6, [0], [[1]]))

    def test_membership_flags(self):
        f = category_membership(module(3, 6, [0, 1], [[0, 1], [1, 0]]))
        assert f.ab_star and f.a_star_b and f.both
        f = category_membership(module(3, 6, [0], [[1]]))
        assert not f.ab_star and not f.a_star_b and not f.both
        f = category_membership(module(3, 6, [1], [[1]]))
        assert f.ab_star and not f.a_star_b

    def test_unit_root_equals_slope_zero_multiplicity(self):
        rng = random.Random(30)
        ctx = PrecisionContext(5, 16)  # N > max possible t_H = d*(p-1)
        for _ in range(100):
            D = rand_module(ctx, 3, rng)
            assert unit_root_rank(D) == slopes(D).count(0)

    def test_flags_against_newton_polygon(self):
        rng = random.Random(31)
        ctx = PrecisionContext(3, 10)
        for _ in range(100):
            D = rand_module(ctx, rng.randrange(1, 4), rng)
            sl = slopes(D)
            assert (sl.count(0) == 0) == (unit_root_rank(D) == 0)
            assert (sl.count(D.jumps[-1]) == 0) == top_slope_absent(D)


class TestDualTwist:
    def test_rank_one_tate(self):
        D1 = dual_twist(module(3, 6, [1], [[1]]), 1)
        assert D1.jumps == (0,)
        assert D1.phi_matrix() == OFMatrix(D1.ctx, [[1]])

    def test_involution_on_invariants(self):
        rng = random.Random(12)
        ctx = PrecisionContext(5, 8)
        for _ in range(50):
            D = rand_module(ctx, rng.randrange(1, 4), rng)
            DD = dual_twist(dual_twist(D, 1), 1)
            assert DD.jumps == D.jumps
            _, tH = hodge_invariants(D)
            _, tH2 = hodge_invariants(DD)
            assert tH == tH2
            assert DD.phi_matrix().det().valuation() == D.phi_matrix().det().valuation()

    def test_determinant_identity(self):
        D = module(3, 8, [0, 1], [[0, 1], [1, 0]])
        D1 = dual_twist(D, 1)
        assert D1.jumps == (0, 1)
        ctx = D.ctx
        lhs = D1.phi_matrix().det() * D.phi_matrix().det()
        # det Phi' * det Phi = p^2 (up to the stored representative)
        assert lhs.valuation() == 2
        assert lhs == lhs.ctx.p ** 2 * OFMatrix.identity(ctx, 1).entries[0][0]

    def test_t_H_complement(self):
        rng = random.Random(13)
        ctx = PrecisionContext(7, 6)
        for k in (1, 2):
            for _ in range(30):
                D = rand_module(ctx, rng.randrange(1, 4), rng, max_jump=k)
                _, tH = hodge_invariants(D)
                _, tHd = hodge_invariants(dual_twist(D, k))
                assert tHd == k * D.d - tH

    def test_slope_duality_of_flags(self):
        # ab_star of the dual twist equals a_star_b of the original, per
        # Newton polygon complementarity (slopes |-> 1 - slopes), when the
        # twist does not slide the window
        rng = random.Random(14)
        ctx = PrecisionContext(5, 8)
        for _ in range(60):
            D = rand_module(ctx, rng.randrange(1, 3), rng, max_jump=1)
            if D.jumps[0] != 0 or D.jumps[-1] != 1:
                continue
            D1 = dual_twist(D, 1)
            f, f1 = category_membership(D), category_membership(D1)
            assert f1.ab_star == f.a_star_b
            assert f1.a_star_b == f.ab_star


class TestHodge:
    def test_single_jump(self):
        h, tH = hodge_invariants(module(3, 6, [1], [[1]]))
        assert h == {1: 1} and tH == 1

    def test_two_jumps(self):
        _, tH = hodge_invariants(module(3, 6, [0, 1], [[0, 1], [1, 0]]))
        assert tH == 1

    def test_matches_det_valuation(self):
        rng = random.Random(15)
        ctx = PrecisionContext(3, 9)
        for _ in range(50):
            D = rand_module(ctx, rng.randrange(1, 4), rng)
            _, tH = hodge_invariants(D)
            assert D.phi_matrix().det().valuation() == tH

    def test_shift_moves_positions(self):
        h, tH = hodge_invariants(module(3, 6, [1], [[1]], shift=-2))
        assert h == {-1: 1} and tH == -1
