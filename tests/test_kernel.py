"""The packed kernel's whole-integer reduction against the per-limb
reduction it replaced (`oracles.unpack_ref`), bit for bit, for f in
{1, 2, 3}: at the bench sizes (p, 20, 2(p-1)20 - (p-1)), at tiny p^N, where
the Barrett rounds converge slowly, and on random kernels."""

import random

import pytest

from oracles import normalize_ref, reduce_scalar_ref, unpack_ref
from wachlab import PrecisionContext
from wachlab._kernel import SeriesKernel

SIZES = [(3, 20, 78), (5, 20, 156), (7, 20, 234), (3, 1, 4), (3, 4, 12), (3, 1, 1),
         (11, 20, 400)]


def kernel(p, N, M, f):
    return SeriesKernel(p, N, M, PrecisionContext(p, N, f).modulus)


def packed(ker, limbs):
    return sum(v << (i * ker.lbits) for i, v in enumerate(limbs))


def raw_values(ker, n, rng):
    """Raw packed values of n limbs: every limb at its maximum, every limb a
    full accumulation of max_terms products, multiples of p^N and their
    neighbours, zero, and uniformly random limbs."""
    top, pN = (1 << ker.lbits) - 1, ker.pN
    yield packed(ker, [top] * n)
    yield packed(ker, [ker.max_terms * (pN - 1) ** 2] * n)
    yield packed(ker, [top // pN * pN] * n)
    yield packed(ker, [pN] * n)
    yield 0
    for _ in range(3):
        yield packed(ker, [rng.randrange(top // pN + 1) * pN + rng.choice((-1, 0, 1))
                           for _ in range(n)])
    for _ in range(20):
        yield packed(ker, [rng.randrange(top + 1) for _ in range(n)])


@pytest.mark.parametrize("f", (1, 2, 3))
@pytest.mark.parametrize("p,N,M", SIZES)
def test_normalize_matches_oracle(p, N, M, f):
    ker = kernel(p, N, M, f)
    rng = random.Random(f"{p}/{N}/{M}/{f}")
    for x in raw_values(ker, ker.stride * M, rng):
        x &= ker.mask  # the -1 neighbour of a zero limb borrows from above
        assert ker.unpack(x) == unpack_ref(ker, x)
        assert ker.normalize(x) == normalize_ref(ker, x)


@pytest.mark.parametrize("f", (1, 2, 3))
@pytest.mark.parametrize("p,N,M", SIZES)
def test_reduce_scalar_matches_oracle(p, N, M, f):
    ker = kernel(p, N, M, f)
    rng = random.Random(f"scalar/{p}/{N}/{M}/{f}")
    for x in raw_values(ker, ker.stride, rng):
        x &= (1 << ker.lbits * ker.stride) - 1
        assert ker.reduce_scalar(x) == reduce_scalar_ref(ker, x)


def test_normalize_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)), label="p")
        N = data.draw(st.integers(1, 12), label="N")
        M = data.draw(st.integers(1, 8), label="M")
        f = data.draw(st.integers(1, 3), label="f")
        ker = kernel(p, N, M, f)
        top = (1 << ker.lbits) - 1
        limb = st.one_of(st.integers(0, top), st.sampled_from((0, top, ker.pN - 1, ker.pN)),
                         st.integers(0, top // ker.pN).map(lambda k: k * ker.pN))
        x = packed(ker, data.draw(st.lists(limb, min_size=ker.stride * M,
                                           max_size=ker.stride * M), label="limbs"))
        assert ker.unpack(x) == unpack_ref(ker, x)
        assert ker.normalize(x) == normalize_ref(ker, x)

    check()
