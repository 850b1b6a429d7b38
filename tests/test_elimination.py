"""The elimination core of wachlab.padic against the routines it replaced.

Berkowitz's characteristic polynomial, the shared Smith reduction behind
smith_normal_form, OFMatrix.det and semilinear_stable_rank, and the exact
rational Gauss-Jordan routine are compared bit for bit with the reference
implementations in tests/oracles.py on random matrices, including ones
with zero divisors, rank drops and zeros at precision.
"""

import random
from fractions import Fraction

import pytest

from oracles import (
    charpoly_ref,
    det_ref,
    invert_rational,
    rational_det_ref,
    rational_rank_ref,
    smith_normal_form_ref,
    stable_rank_ref,
)
from wachlab import (OFElement, OFMatrix, PrecisionContext, semilinear_stable_rank,
                     smith_normal_form)
from wachlab.padic import charpoly, rational_rank, rational_reduce


def random_matrix(ctx, rows, cols, rng):
    """Entries with mixed valuations: units, p-power multiples and zeros,
    with an occasional repeated row to force a rank drop."""
    def entry():
        kind = rng.random()
        if kind < 0.15:
            return (0,) * ctx.f
        scale = ctx.p ** rng.randrange(ctx.N) if kind < 0.5 else 1
        return tuple(scale * rng.randrange(ctx.pN) for _ in range(ctx.f))
    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.25:
        a[-1] = list(a[0])
    return OFMatrix(ctx, a)


CONTEXTS = [(p, f) for p in (3, 5, 11) for f in (1, 2)]


@pytest.mark.parametrize("p,f", CONTEXTS)
def test_charpoly_matches_permutation_expansion(p, f):
    ctx = PrecisionContext(p, 6, f=f)
    rng = random.Random(100 * p + f)
    for d in range(8):
        for _ in range(2 if d < 7 else 1):
            M = random_matrix(ctx, d, d, rng)
            assert charpoly(M) == charpoly_ref(M)


@pytest.mark.parametrize("p,f,d", [(11, 1, 9), (3, 2, 9), (5, 1, 12), (3, 2, 12)])
def test_charpoly_large_rank_identities(p, f, d):
    ctx = PrecisionContext(p, 8, f=f)
    M = random_matrix(ctx, d, d, random.Random(d * p + f))
    cs = charpoly(M)
    assert len(cs) == d + 1 and cs[d] == 1
    assert cs[0] == (M.det() if d % 2 == 0 else -M.det())
    trace = sum((M.entries[i][i] for i in range(d)), OFElement(ctx, 0))
    assert cs[d - 1] == -trace
    # Cayley-Hamilton by Horner: sum_i c_i M^i == 0 mod p^N
    acc = OFMatrix.zero(ctx, d, d)
    for c in reversed(cs):
        acc = acc * M + OFMatrix.identity(ctx, d) * c
    assert acc == OFMatrix.zero(ctx, d, d)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_smith_normal_form_matches_reference(p, f):
    ctx = PrecisionContext(p, 5, f=f)
    rng = random.Random(7 * p + f)
    for _ in range(25):
        M = random_matrix(ctx, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        snf = smith_normal_form(M)
        U, D, V, exps = smith_normal_form_ref(M)
        assert (snf.U, snf.D, snf.V, snf.exponents) == (U, D, V, exps)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2), (11, 2)])
def test_det_and_stable_rank_match_reference(p, f):
    ctx = PrecisionContext(p, 5, f=f)
    rng = random.Random(11 * p + f)
    for _ in range(30):
        n = rng.randrange(7)
        M = random_matrix(ctx, n, n, rng)
        assert M.det() == det_ref(M)
        assert semilinear_stable_rank(M) == stable_rank_ref(M)


def test_rational_routines_match_reference():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = n if rng.random() < 0.7 else rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(m)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a[-1] = [2 * x for x in a[0]]
        rank, det, _ = rational_reduce(a, m)
        assert rank == rational_rank(a) == rational_rank_ref(a)
        if n != m:
            assert det == 0
            continue
        assert det == rational_det_ref(a)
        if det:
            aug = [row + [Fraction(int(i == j)) for j in range(n)]
                   for i, row in enumerate(a)]
            _, _, reduced = rational_reduce(aug, n)
            assert [row[n:] for row in reduced] == invert_rational(a)
