"""The raw-row OFMatrix against the object-level arithmetic it replaced.

OFMatrix holds its entries as raw coordinate rows, and every matrix routine
of wachlab.padic reads and returns raw rows.  tests/oracles.py keeps the
one-OFElement-per-entry arithmetic, and the separate Smith, determinant,
rank and characteristic-polynomial loops, as the reference.  The random
matrices run over p in {3, 5} and f in {1, 2}, and include non-square
shapes, p-divisible matrices, zero entries and repeated (singular) rows.
"""

import collections
import random

import pytest

from oracles import (
    add_ref,
    charpoly_ref,
    coordinates_ref,
    det_ref,
    divide_rows_ref,
    frobenius_map_ref,
    inverse_ref,
    mul_ref,
    row_basis_obj_ref,
    smith_normal_form_ref,
    stable_rank_ref,
    sub_ref,
    transpose_ref,
)
from wachlab import (OFElement, OFMatrix, PrecisionContext, semilinear_stable_rank,
                     smith_normal_form)
from wachlab.errors import NotAUnit, PrecisionLoss
from wachlab.padic import _coordinates, _divide_rows, _row_basis, charpoly


def random_matrix(ctx, rows, cols, rng, kind):
    """Entries mixing ints and OFElements of mixed valuation; `kind`
    'singular' repeats the first row, 'divisible' scales by p or p^2."""
    def entry():
        r = rng.random()
        if r < 0.15:
            return 0
        scale = ctx.p ** rng.randrange(ctx.N) if r < 0.5 else 1
        return OFElement(ctx, [scale * rng.randrange(ctx.pN) for _ in range(ctx.f)])
    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "singular" and rows > 1:
        a[-1] = list(a[0])
    elif kind == "divisible":
        a = [[ctx.p ** rng.randrange(1, 3) * e for e in row] for row in a]
    return OFMatrix(ctx, a)


def outcome(fn, *args):
    """fn(*args), or the type of the package error it raised."""
    try:
        return fn(*args)
    except (NotAUnit, PrecisionLoss) as exc:
        return type(exc)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_raw_matrix_matches_object_reference(p, f):
    ctx = PrecisionContext(p, 5, f=f)
    rng = random.Random(31 * p + f)
    seen = collections.Counter()
    for _ in range(60):
        kind = rng.choice(("plain", "singular", "divisible"))
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_matrix(ctx, n, m, rng, kind)
        B = random_matrix(ctx, n, m, rng, "plain")
        C = random_matrix(ctx, m, rng.randrange(1, 4), rng, "plain")
        seen[kind, n == m] += 1
        # the constructor, the views and equality
        assert A.raw == tuple(tuple(e.coeffs for e in row) for row in A.entries)
        assert OFMatrix(ctx, A.entries) == A and hash(OFMatrix(ctx, A.entries)) == hash(A)
        i, j = rng.randrange(n), rng.randrange(m)
        assert A[i, j] == A.entries[i][j]
        # entrywise and product arithmetic
        assert A + B == add_ref(A, B)
        assert A - B == sub_ref(A, B)
        assert A * C == mul_ref(A, C)
        s = rng.randrange(-ctx.pN, ctx.pN)
        u = OFElement(ctx, [rng.randrange(ctx.pN) for _ in range(f)])
        assert A * s == s * A == mul_ref(A, s)
        assert A * u == u * A == mul_ref(A, u)
        assert A.transpose() == transpose_ref(A)
        assert A.frobenius_map() == frobenius_map_ref(A)
        ks = [rng.randrange(3) for _ in range(n)]
        assert outcome(_divide_rows, A, ks) == outcome(divide_rows_ref, A, ks)
        # one Smith reduction and the lattice solver on it
        snf = smith_normal_form(A)
        assert (snf.U, snf.D, snf.V, snf.exponents) == smith_normal_form_ref(A)
        assert _row_basis(snf) == row_basis_obj_ref(snf)
        inside = (mul_ref(random_matrix(ctx, 2, snf.rank, rng, "plain"), _row_basis(snf))
                  if snf.rank else OFMatrix.zero(ctx, 2, m))
        for X in (inside, random_matrix(ctx, 2, m, rng, kind)):
            assert _coordinates(snf, X) == coordinates_ref(snf, X)
        if n != m:
            continue
        assert A.det() == det_ref(A)
        assert outcome(A.inverse) == outcome(inverse_ref, A)
        assert charpoly(A) == charpoly_ref(A)
        assert semilinear_stable_rank(A) == stable_rank_ref(A)
    assert all(seen[kind, square] for kind in ("plain", "singular", "divisible")
               for square in (True, False))


def test_elimination_at_p11_rank9():
    # the f = 1 row operation at the largest valuation-corpus size; U is
    # unimodular, so one inverse always succeeds
    ctx = PrecisionContext(11, 20)
    rng = random.Random(119)
    for kind in ("plain", "singular", "divisible"):
        A = random_matrix(ctx, 9, 9, rng, kind)
        snf = smith_normal_form(A)
        assert (snf.U, snf.D, snf.V, snf.exponents) == smith_normal_form_ref(A)
        assert A.det() == det_ref(A)
        for M in (A, snf.U, snf.V):
            assert outcome(M.inverse) == outcome(inverse_ref, M)
    assert snf.U.inverse() * snf.U == OFMatrix.identity(ctx, 9)


def test_frobenius_map_is_identity_at_f1():
    ctx = PrecisionContext(3, 4)
    M = OFMatrix(ctx, [[1, 2], [3, 4]])
    assert M.frobenius_map() is M


def test_constructor_checks():
    ctx, other = PrecisionContext(3, 4), PrecisionContext(3, 2)
    with pytest.raises(ValueError, match="mixed precision contexts"):
        OFMatrix(ctx, [[OFElement(other, 1)]])
    with pytest.raises(ValueError, match="ragged matrix"):
        OFMatrix(ctx, [[1, 2], [3]])
    # ints are reduced, coordinate vectors and OFElements give the same rows
    assert OFMatrix(ctx, [[-1, (82,)]]) == OFMatrix(ctx, [[OFElement(ctx, 80), 1]])
    assert OFMatrix(ctx, [[-1]]).raw == (((80,),),)
