"""Constructive lattice data over A+_F for an eligible filtered module.

Given a normalized strongly divisible module (jumps r_i, matrix A) whose
operator has no unit-root part (or no top-slope part), this module builds

    P = Diag((q mu)^{r_1}, ..., (q mu)^{r_d}) A,

congruent to Diag(p^{r_i}) A mod pi^{p-1}, and solves

    H - q^{p-1} gamma(P^{-1}) phi(H) P = Q    with    gamma(P^{-1}) P = Id + pi^{p-1} Q

by the fixed-point iteration H <- Q + L(H), monitored by the combined
(p, pi)-valuation of successive differences.  phi(H) mod pi^n reads only
the first t(n) pi-powers of H (phi(pi)^{t(n)} vanishes there), so an
iterate that agrees with the one before on those is the fixed point.
L(H) mod pi^n depends only on H mod pi^n, so the iteration runs as a
pi-adic ladder: it solves at a small pi-order (at most LADDER_BOTTOM),
pads the fixed point with zeros to the next order n and iterates again,
up to the full order.  Each order is at most twice the one below, and the
one below n is t(n) where that is no more, so that n is seeded exactly
and takes one iteration (the precision doubling for power-series
solutions of Bostan, Chyzak, Ollivier, Salvy, Schost and Sedoglavic,
SODA 2007).  A given starting matrix seeds one full-order solve instead.
The group action on the new lattice is
G = Id + pi^{p-1} H, and the defining relation gamma(P) G = phi(G) P is
re-verified by direct substitution.

P^{-1} itself is not integral (det P has constant term a power of p), so
every stored series goes through exact factorizations:

    gamma(q) = q * S / pi_c,   S = ((1+pi)^{pc} - 1)/((1+pi)^p - 1),
    pi_c = ((1+pi)^c - 1)/pi,  q mu = p + pi^{p-1} mu,

with S and pi_c integral of unit constant term c.  No gamma substitution
builds them: gamma and phi are ring endomorphisms of O_F[[pi]]/(p^N, pi^M),
so with the polynomial mu^{-1} = u = (q - pi^{p-1})/p = sum C(p, k+1)/p pi^k,

    gamma(pi) = pi pi_c,   gamma(u) = sum_k u_k (pi pi_c)^k,   S = phi(pi_c),
    nu = gamma(q mu) = p + (pi pi_c)^{p-1} gamma(u)^{-1}

hold exactly at truncation.  q, u, mu and q mu do not depend on c: one set
of them per (ctx, order) is shared by every c and alone builds P.

Everything between the ingredients and the returned matrices stays in the
packed kernel (`_kernel.py`), for every residue degree f.  The solver step
uses the shape of the iteration matrices, C = A^{-1} Diag(z_{r_i}) with
z_r = q^{p-1-r} rho^r and P = Diag((q mu)^{r_i}) A, over the commutative
ring (O_F/p^N)[pi]/(pi^mh):

    L(H) = C phi(H) P = A^{-1} (W o phi(H)) A,   W_kl = z_{r_k} (q mu)^{r_l},

with o the entrywise product: d^2 series products per iteration, the two
scalar matrices applied as one multiply-add and one normalize per entry,
and each W_kl cached with the ingredients, per jump pair.  Q is built once
per `gamma_matrix` from the tau^r columns, and the residual
Diag(nu^{r_i}) (A G) - (phi(G) Diag((q mu)^{r_k})) A, the q-cokernel
product, the cocycle check and the operators T_i are formed on packed
values; `APlusSeries` objects are made only for the returned matrices.
The cocycle check and T_i substitute gamma through a table built per call
(`aplus.gamma_table`), which no kernel keeps.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add, sub

from .errors import CongruenceFailure, NonConvergence, NotAUnit
from .aplus import (
    APlusSeries,
    binomial_column,
    exact_div_pi,
    gamma_series,  # noqa: F401  (bench/tracing.py wraps wach.gamma_series)
    gamma_table,
    invert_series,
    mu_inverse_coeffs,
    phi_series,
    phi_table,
    q_series,
    series_kernel,
    shift_pi,
)
from .filmod import FilPhiModule
from .padic import OFMatrix


def default_order(ctx) -> int:
    """Working pi-truncation 2(p-1)N: pi^{p-1}-divisions never dominate the
    error budget at absolute precision N."""
    return 2 * (ctx.p - 1) * ctx.N


# ---------------------------------------------------------------------------
# matrices of packed series
# ---------------------------------------------------------------------------

def _scalars(ker, M: OFMatrix):
    return [[ker.scalar(e) for e in row] for row in M.raw]

def _raw(mat):
    return [[s.raw() for s in row] for row in mat]

def _pack(ker, mat):
    return [[ker.pack(s.raw()) for s in row] for row in mat]

def _series(ctx, order, mat):
    return [[APlusSeries.from_raw(ctx, order, e) for e in row] for row in mat]

def _difference_valuation(pairs, ker, weight):
    """min over pairs (a, b) of flat coordinate lists and coefficient indices
    i of i + weight * v_p(a_i - b_i); None when every pair is equal mod p^N.

    gcd(a_j - b_j, p^N) is p^{v_p} of a coordinate difference, and p^N for an
    equal coordinate, so a pair costs a few maps over its coordinates."""
    pN, f = ker.pN, ker.f
    best = index = None
    for a, b in pairs:
        if a == b:
            continue
        if index is None:
            index = [j // f for j in range(len(a))]
            equal = len(a) + weight * ker.N  # past every true value
            cost = {ker.p ** v: weight * v for v in range(ker.N)}
            cost[pN] = equal
        w = min(map(add, index, map(cost.__getitem__, map(gcd, map(sub, a, b), repeat(pN)))))
        if w < equal and (best is None or w < best):
            best = w
    return best


# ---------------------------------------------------------------------------
# the structured ingredients
# ---------------------------------------------------------------------------

class _Ingredients:
    """The series behind P, Q, H and G at (ctx, order), from ring identities
    (see the module docstring).  The c-free set (c = None) holds q, muinv = u,
    mu and qmu; the set of a c shares them and adds pi_c, S, nu, rho and tau.
    Powers are made when first read; `packed` reads them at lower orders."""

    _C_FREE = ("q", "muinv", "mu", "qmu")

    def __init__(self, ctx, order, c=None):
        p = ctx.p
        self.ctx, self.order, self.c = ctx, order, c
        self._powers, self._packed = {}, {}
        u = mu_inverse_coeffs(p)
        if c is None:
            self.q = q_series(ctx, order)
            self.muinv = APlusSeries(ctx, order, u)
            self.mu = invert_series(self.muinv)
            self.qmu = shift_pi(self.mu, p - 1).truncate(order) + p  # p + pi^{p-1} mu
            return
        if c % p == 0:
            raise NotAUnit(f"character value {c} is divisible by p={p}")
        self.base = base = _ingredients(ctx, order)
        self.q, self.muinv, self.mu, self.qmu = base.q, base.muinv, base.mu, base.qmu
        # pi_c = ((1+pi)^c - 1)/pi, so gamma(pi) = pi pi_c
        col = binomial_column(c, order, ctx.pN)
        self.pi_c = APlusSeries(ctx, order, col[1:])
        g = shift_pi(self.pi_c, 1).truncate(order)
        # gamma(mu^{-1}) = sum_k u_k gamma(pi)^k; gk ends at gamma(pi)^{p-1}
        gk, mu_inv_gamma = APlusSeries.one(ctx, order), APlusSeries.zero(ctx, order)
        for uk in u:
            mu_inv_gamma, gk = mu_inv_gamma + gk * uk, gk * g
        # nu = gamma(q mu) = p + gamma(pi)^{p-1} gamma(mu^{-1})^{-1}
        self.nu = gk * invert_series(mu_inv_gamma) + p
        # S = ((1+pi)^{pc}-1)/((1+pi)^p-1) = phi(pi_c)
        self.S = phi_series(self.pi_c)
        # rho = q / gamma(q mu) = pi_c * S^{-1} * gamma(mu^{-1})
        self.rho = self.pi_c * invert_series(self.S) * mu_inv_gamma
        # tau = q mu / gamma(q mu), congruent to 1 mod pi^{p-1}
        self.tau = self.rho * self.mu

    def _owner(self, name):
        return self.base if self.c is not None and name in self._C_FREE else self

    def power(self, name: str, r: int):
        """self.<name>^r, cached with every lower power: built up one
        product at a time from the highest power already cached."""
        owner = self._owner(name)
        powers = owner._powers.setdefault(name, [])
        s = getattr(owner, name)
        while len(powers) <= r:
            powers.append(powers[-1] * s if powers else APlusSeries.one(self.ctx, self.order))
        return powers[r]

    def packed(self, name: str, r: int, n: int) -> int:
        """self.<name>^r truncated to pi^n, packed; cached."""
        owner = self._owner(name)
        key = (name, r, n)
        v = owner._packed.get(key)
        if v is None:
            v = owner._packed[key] = series_kernel(self.ctx, n).pack(
                self.power(name, r).truncate(n).raw())
        return v

    def packed_product(self, a, b, n: int) -> int:
        """Cached packed product of two factors modulo pi^n, each an
        (name, r) pair for `packed` or a pair of factors for
        `packed_product`."""
        key = (a, b, n)
        v = self._packed.get(key)
        if v is None:
            ker = series_kernel(self.ctx, n)
            v = self._packed[key] = ker.mul_n(self._factor(a, n), self._factor(b, n))
        return v

    def _factor(self, a, n: int) -> int:
        return self.packed_product(*a, n) if isinstance(a[0], tuple) else self.packed(*a, n)


_ingredient_cache: dict = {}


def _ingredients(ctx, order, c=None) -> _Ingredients:
    key = (ctx, order, c)
    v = _ingredient_cache.get(key)
    if v is None:
        v = _ingredient_cache[key] = _Ingredients(ctx, order, c)
    return v


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_P(D: FilPhiModule, order: int | None = None):
    """P = Diag((q mu)^{r_i}) A; congruent to the Frobenius matrix of D
    mod pi^{p-1} because (q mu)^s = p^s there."""
    ing = _ingredients(D.ctx, order or default_order(D.ctx))
    A = D.A.entries
    return [[ing.power("qmu", D.jumps[i]) * A[i][j] for j in range(D.d)]
            for i in range(D.d)]


def compute_Q(D: FilPhiModule, c: int, order: int | None = None):
    """Q = (gamma(P^{-1}) P - Id)/pi^{p-1}.

    gamma(P^{-1})P = A^{-1} Diag(tau^{r_i}) A with tau = q mu / gamma(q mu);
    the congruence tau^r = 1 mod pi^{p-1} is verified first and its failure
    raises CongruenceFailure (it is a theorem, so failure means a bug or a
    precision shortfall).  Q is known to order - (p-1).
    """
    ctx = D.ctx
    order = order or default_order(ctx)
    p, d, jumps = ctx.p, D.d, D.jumps
    if order <= p - 1:
        raise ValueError(f"order must exceed p-1 = {p - 1}")
    ing = _ingredients(ctx, order, c)
    rs = sorted(set(jumps))
    for r in rs:
        t = ing.power("tau", r)
        if (t - t.constant_term()).truncate(p - 1).pi_valuation() is not None:
            raise CongruenceFailure(
                f"gamma(P^-1)P != Id mod pi^{p - 1} at jump {r}")
        if t.constant_term() != 1:
            raise CongruenceFailure("gamma(P^-1)P has wrong constant term")
    # Q_ij = sum over distinct jumps r of s_ij^r (tau^r - 1)/pi^{p-1},
    # s_ij^r = sum_{k: r_k = r} (A^{-1})_ik A_kj
    mh = order - (p - 1)
    ker = series_kernel(ctx, mh)
    cols = [ker.pack(exact_div_pi(ing.power("tau", r) - 1, p - 1).raw()) for r in rs]
    a, b = D.A.inverse().raw, D.A.raw
    ks = [[k for k in range(d) if jumps[k] == r] for r in rs]
    return _series(ctx, mh, [[ker.unpack(ker.dot(
        [ker.scalar(ctx.dot_raw([a[i][k] for k in kr], [b[k][j] for k in kr])) for kr in ks],
        cols)) for j in range(d)] for i in range(d)])


#: The bottom of the solver's ladder: descending the pi-orders stops at the
#: first level at or below it.  lattice-n20's solve time is flat for
#: bottoms 16-32.  At N = 6 (p 5, 7; f 1, 2) the ladder at 24 is 22-31 %
#: faster than the direct solve, and bottoms 16-20 are about 10 % faster
#: still at N = 6, 40 and 80; 24 gives lattice-n20 the fewest levels and
#: solves orders up to 24 (p = 3 at N = 6) in one level.
LADDER_BOTTOM = 24


def _levels(ctx, mh: int) -> list[int]:
    """The solver's pi-orders n_0 < ... < n_k = mh, down to the first at or
    below LADDER_BOTTOM.  Below n comes min(t(n), ceil(n / 2)), t(n) the
    number of pi-powers that phi reads at order n (its table's length over
    f): a level seeded exactly mod pi^{t(n)} converges in one iteration."""
    levels = [mh]
    while (n := levels[-1]) > LADDER_BOTTOM:
        levels.append(min(len(phi_table(ctx, n)) // ctx.f, (n + 1) // 2))
    return levels[::-1]


def solve_H(D: FilPhiModule, c: int, order: int | None = None,
            initial=None, Q=None):
    """Solve H - q^{p-1} gamma(P^{-1}) phi(H) P = Q by fixed-point iteration.

    Convergence holds when the operator has no unit-root part, or no part of
    top slope (each iteration then gains combined (p, pi)-valuation).  The
    residual monitor raises NonConvergence when the valuation of successive
    differences fails to improve across a window of d*f*N iterations.

    Each step is H <- Q + A^{-1} (W o phi(H)) A on packed values.  L(H) mod
    pi^n depends only on H mod pi^n, so the solve runs as a ladder of
    pi-orders n_0 < ... < n_k = mh (`_levels`, the bottom at or below
    LADDER_BOTTOM): the fixed point mod pi^n (Q cut to n, W read from the
    top-order ingredients at n) is the unique one at that order, and,
    padded with zeros, it starts the next level.  A level whose seed holds
    every pi-power that phi reads at its order takes one iteration; one
    whose seed is half its order, a few.  Each level keeps the stall window
    and the cap, and its H must reduce to the level below's, else
    CongruenceFailure.  `initial` overrides the starting matrix and then
    seeds a single top-level solve (used by the uniqueness tests); the
    fixed point does not depend on it.  `Q` passes compute_Q(D, c, order)
    when the caller already has it.

    Returns (H, iterations), iterations summed over the levels.
    """
    ctx = D.ctx
    order = order or default_order(ctx)
    if Q is None:
        Q = compute_Q(D, c, order)
    p, d, f, jumps = ctx.p, D.d, ctx.f, D.jumps
    mh = order - (p - 1)
    ing = _ingredients(ctx, order, c)
    # L_ij = sum_{k,l} (A^{-1})_ik A_lj X_kl, X = W o phi(H), flattened over (k, l)
    a, b = D.A.inverse().raw, D.A.raw
    mix = [[[ctx.mul_raw(a[i][k], b[l][j]) for k in range(d) for l in range(d)]
            for j in range(d)] for i in range(d)]
    Qc = _raw(Q)
    if initial is None:
        levels = _levels(ctx, mh)
        H = [[q[:levels[0] * f] for q in row] for row in Qc]
    else:
        levels = [mh]
        H = [[e.raw()[:mh * f] for e in row] for row in initial]
    window = max(d * f * ctx.N, 4)
    cap = window * ((p - 1) * ctx.N + order + 2)
    iterations = 0
    for n in levels:
        ker, below = series_kernel(ctx, n), H
        # W_kl = z_{r_k} (q mu)^{r_l}, z_r = q^{p-1-r} rho^r
        W = [ing.packed_product((("q", p - 1 - jumps[k]), ("rho", jumps[k])),
                                ("qmu", jumps[l]), n)
             for k in range(d) for l in range(d)]
        H, steps = _fixed_point(
            ker, phi_table(ctx, n), W,
            [[list(map(ker.scalar, m)) for m in row] for row in mix],
            [[ker.pack(q[:n * f]) for q in row] for row in Qc],
            [[h + [0] * (n * f - len(h)) for h in row] for row in below],
            window, cap)
        iterations += steps
        if n > levels[0] and any(h[:len(g)] != g for hrow, grow in zip(H, below)
                                 for h, g in zip(hrow, grow)):
            raise CongruenceFailure(
                f"the fixed point mod pi^{n} does not reduce to the level below")
    return _series(ctx, mh, H), iterations


def _fixed_point(ker, table, W, mix, Qp, H, window, cap):
    """(fixed point, iterations) of H <- Q + A^{-1} (W o phi(H)) A modulo
    pi^M of `ker`, from H (flat coordinate lists), under the stall window
    and the iteration cap.

    phi reads only the first len(table) coordinates of an entry (`combo`),
    so an iterate that agrees with the one before on those has the same
    image under the step: it is the fixed point, returned at once."""
    d, p, k = len(H), ker.p, len(table)
    best, stale, iterations = -1, 0, 0
    while True:
        iterations += 1
        if iterations > cap:
            raise NonConvergence("iteration cap exceeded", reason="cap")
        X = [ker.mul_n(w, ker.combo(h, table))
             for w, h in zip(W, (h for row in H for h in row))]
        Hnew = [[ker.unpack(ker.dot(mix[i][j], X, Qp[i][j])) for j in range(d)]
                for i in range(d)]
        pairs = [(new, old) for nrow, orow in zip(Hnew, H) for new, old in zip(nrow, orow)]
        if all(new[:k] == old[:k] for new, old in pairs):
            return Hnew, iterations
        w = _difference_valuation(pairs, ker, p - 1)
        H = Hnew
        if w > best:
            best, stale = w, 0
        else:
            stale += 1
            if stale >= window:
                raise NonConvergence(
                    f"residual valuation stalled at {best} for {window} "
                    f"iterations (slope hypothesis violated?)")


class WachData:
    """The constructed lattice data: P, Q, H, G and the achieved residual."""

    __slots__ = ("D", "c", "P", "Q", "H", "G", "residual_valuation",
                 "residual_zero", "iterations", "order")

    def __init__(self, D, c, P, Q, H, G, residual_valuation, residual_zero,
                 iterations, order):
        self.D, self.c = D, c
        self.P, self.Q, self.H, self.G = P, Q, H, G
        self.residual_valuation = residual_valuation
        self.residual_zero = residual_zero
        self.iterations = iterations
        self.order = order

    def __repr__(self):
        return (f"WachData(d={self.D.d}, c={self.c}, order={self.order}, "
                f"residual_zero={self.residual_zero}, iter={self.iterations})")


def gamma_matrix(D: FilPhiModule, c: int, order: int | None = None,
                 initial=None) -> WachData:
    """Assemble G = Id + pi^{p-1} H and re-verify gamma(P) G = phi(G) P by
    direct substitution (independent of the solver's internal identities)."""
    ctx = D.ctx
    order = order or default_order(ctx)
    P = build_P(D, order)
    Q = compute_Q(D, c, order)
    H, iterations = solve_H(D, c, order, initial=initial, Q=Q)
    # G = Id + pi^{p-1} H is known one pi^{p-1}-step beyond H's order
    G = [[shift_pi(h, ctx.p - 1) + int(i == j) for j, h in enumerate(row)]
         for i, row in enumerate(H)]
    rv = relation_valuation(D, c, G, order)
    return WachData(D, c, P, Q, H, G, rv, rv is None, iterations, order)


def relation_valuation(D: FilPhiModule, c: int, G, order: int):
    """Combined (p, pi)-valuation of gamma(P) G - phi(G) P at truncation
    pi^order, None when it vanishes, for P = build_P(D, order).

    Both sides are formed from the Diag structure of P = Diag((q mu)^{r_i}) A
    and gamma(P) = Diag(nu^{r_i}) A, nu = gamma(q mu), with phi(G) substituted
    by the Frobenius power table:

        gamma(P) G = Diag(nu^{r_i}) (A G),
        phi(G) P = (phi(G) Diag((q mu)^{r_k})) A,

    so each side costs d^2 series products; the products by A are O_F-scalar
    linear combinations."""
    ctx = D.ctx
    p, d, jumps = ctx.p, D.d, D.jumps
    ing = _ingredients(ctx, order, c)
    ker = series_kernel(ctx, order)
    A = _scalars(ker, D.A)
    Gc = _raw(G)
    table = phi_table(ctx, order)
    Gp = [[ker.pack(g) for g in row] for row in Gc]
    lhs = [[ker.mul_n(ing.packed("nu", jumps[i], order),
                      ker.normalize(ker.dot(A[i], [Gp[k][j] for k in range(d)])))
            for j in range(d)] for i in range(d)]
    phiG = [[ker.mul_n(ker.combo(g, table), ing.packed("qmu", jumps[k], order))
             for k, g in enumerate(row)] for row in Gc]
    rhs = [[ker.normalize(ker.dot([A[k][j] for k in range(d)], row))
            for j in range(d)] for row in phiG]
    return _difference_valuation(
        ((ker.unpack(x), ker.unpack(y))
         for xrow, yrow in zip(lhs, rhs) for x, y in zip(xrow, yrow) if x != y),
        ker, p - 1)


def check_cocycle(D: FilPhiModule, c1: int, c2: int,
                  order: int | None = None) -> bool:
    """G_{c1 c2} == gamma_{c2}(G_{c1}) G_{c2} in the fixed basis (operator
    composition in the row convention), compared packed."""
    ctx = D.ctx
    order = order or default_order(ctx)
    G1, G2, G12 = (gamma_matrix(D, c, order).G for c in (c1, c2, c1 * c2))
    ker = series_kernel(ctx, order)
    table = gamma_table(ctx, order, c2)
    gG1 = [[ker.combo(s.raw(), table) for s in row] for row in G1]
    return ker.mat_mul(gG1, _pack(ker, G2), D.d) == _pack(ker, G12)


def check_q_cokernel(W: WachData) -> bool:
    """q^{r_d} P^{-1} is integral: certified by constructing the candidate
    A^{-1} Diag(q^{r_d - r_i} mu^{-r_i}) and verifying its product with P is
    q^{r_d} Id at truncation."""
    D, order = W.D, W.order
    ctx, d, r_top = D.ctx, D.d, D.jumps[-1]
    ing = _ingredients(ctx, order)
    # (cand P)_ij = sum_k (A^{-1})_ik (q^{r_top - r_k} mu^{-r_k} P_kj)
    ker = series_kernel(ctx, order)
    P = _pack(ker, W.P)
    Y = [[ker.mul_n(ing.packed_product(("q", r_top - D.jumps[k]),
                                       ("muinv", D.jumps[k]), order), P[k][j])
          for j in range(d)] for k in range(d)]
    a = _scalars(ker, D.A.inverse())
    top = ing.packed("q", r_top, order)
    return all(
        ker.normalize(ker.dot(a[i], [Y[k][j] for k in range(d)]))
        == (top if i == j else 0)
        for i in range(d) for j in range(d))


def apply_Ti(W: WachData, i: int):
    """Matrix (rows = images of basis vectors) of the twisted averaging
    operator (1 - c^{-1} g)(1 - c^{-2} g) ... (1 - c^{-(i-1)} g), where g is
    the group element acting through G; reduction mod pi is the scalar
    prod_k (1 - c^{-k})."""
    if not 1 <= i <= W.D.ctx.p - 1:
        raise ValueError("i must lie in [1, p-1]")
    ctx, d, order, c = W.D.ctx, W.D.d, W.order, W.c
    ker = series_kernel(ctx, order)
    G = _pack(ker, W.G)
    X = [[ker.pack([int(a == b)]) for b in range(d)] for a in range(d)]
    table = gamma_table(ctx, order, c) if i > 1 else None
    for k in range(i - 1, 0, -1):
        # X <- X - c^{-k} gamma(X) G
        gX = [[ker.combo(ker.unpack(x), table) for x in row] for row in X]
        neg = -pow(c, -k, ctx.pN) % ctx.pN
        X = [[ker.normalize(x + neg * y) for x, y in zip(xrow, yrow)]
             for xrow, yrow in zip(X, ker.mat_mul(gX, G, d))]
    return _series(ctx, order, [[ker.unpack(x) for x in row] for row in X])
