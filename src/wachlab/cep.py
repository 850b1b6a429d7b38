"""Tamagawa-number and equivariant-determinant valuation calculus.

Everything here is bookkeeping of p-valuations of determinant lines
trivialized through exact sequences of lattices; unit parts are never
tracked (every verdict is a unit-ness statement).  Degenerate inputs
(nonvanishing H^0 on either side, non-integral twists, windows that do not
contain {0, 1}) raise Degenerate with a named reason instead of guessing.

Restricted to f = 1: the determinant convention for semilinear operators
over a larger unramified base is not pinned down.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Degenerate, NotExact, PrecisionLoss
from .filmod import FilPhiModule, dual_twist, hodge_invariants
from .padic import OFMatrix, _coordinates, rational_reduce, smith_normal_form, vp_fraction


# ---------------------------------------------------------------------------
# modified Gamma factors
# ---------------------------------------------------------------------------

class GammaStarValue:
    """Gamma*(j) = (j-1)! for j >= 1 and (-1)^j/(-j)! for j <= 0, with its
    p-valuation by Legendre's formula."""

    __slots__ = ("j", "value", "v_p")

    def __init__(self, j: int, value: Fraction, v_p: int):
        self.j, self.value, self.v_p = j, value, v_p

    def __repr__(self):
        return f"GammaStar(j={self.j}, value={self.value}, v_p={self.v_p})"


def _factorial_vp(n: int, p: int) -> int:
    """Legendre: v_p(n!) = sum_k floor(n / p^k)."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def gamma_star(j: int, p: int) -> GammaStarValue:
    import math
    if j >= 1:
        val = Fraction(math.factorial(j - 1))
        v = _factorial_vp(j - 1, p)
    else:
        sign = 1 if j % 2 == 0 else -1
        val = Fraction(sign, math.factorial(-j))
        v = -_factorial_vp(-j, p)
    return GammaStarValue(j, val, v)


def gamma_star_window_unit(a: int, b: int, p: int) -> bool:
    """Whether Gamma*(-j) is a p-adic unit for every j in [a, b]."""
    return all(gamma_star(-j, p).v_p == 0 for j in range(a, b + 1))


# ---------------------------------------------------------------------------
# determinant valuations of 1 - phi and of -phi on the dual
# ---------------------------------------------------------------------------

def _require_f1(D: FilPhiModule):
    if D.ctx.f > 1:
        raise Degenerate("operation restricted to f = 1", reason="f>1")


def det_one_minus_phi(D: FilPhiModule):
    """det(1 - Phi) and its valuation; valuation None means 0 at precision
    (a fixed vector may exist: degenerate case)."""
    _require_f1(D)
    ctx = D.ctx
    m = OFMatrix.identity(ctx, D.d) - D.phi_matrix()
    det = m.det()
    return det, det.valuation()


def det_phi_minus_p(D: FilPhiModule):
    """det(Phi - p) and its valuation; up to the unit det(Phi)/p^{t_H} this
    carries det(1 - p Phi^{-1}), the dual-side fixed-vector test."""
    _require_f1(D)
    ctx = D.ctx
    det = (D.phi_matrix() - OFMatrix.identity(ctx, D.d) * ctx.p).det()
    return det, det.valuation()


def det_minus_phi_dual(D: FilPhiModule):
    """det(-phi | dual twist by 1) = (-p)^d / det(Phi) as an exact rational
    built from the stored representative; v_p = d - t_H is exact."""
    _require_f1(D)
    ctx = D.ctx
    det = D.phi_matrix().det()
    dv = det.valuation()
    if dv is None:
        raise PrecisionLoss("det(Phi) is 0 at precision")
    _, t_H = hodge_invariants(D)
    # det(Phi_actual) = p^{d*shift} det(Phi_stored)
    value = Fraction((-ctx.p) ** D.d, det.coeffs[0]) / Fraction(ctx.p) ** (D.d * D.shift)
    return value, D.d - t_H


def eta_exponent(D: FilPhiModule, omega_scaling_vp: int = 0) -> int:
    """Valuation of the comparison-line normalization.

    For the lattice induced by the module itself the comparison determinant
    is t^{t_H} times a unit, so the contribution is 0; rescaling the chosen
    base by p^k shifts it by k."""
    return omega_scaling_vp


# ---------------------------------------------------------------------------
# exact sequence ladders
# ---------------------------------------------------------------------------

class ExactSequenceLadder:
    """A chain 0 -> L_0 -> L_1 -> ... -> L_k -> 0 of free-lattice maps,
    exact after inverting p.

    Maps are matrices in the column convention (map i sends L_{i-1} to L_i,
    shape rank(L_i) x rank(L_{i-1})); consecutive maps must compose to 0 at
    precision.
    """

    def __init__(self, maps):
        if not maps:
            raise ValueError("empty ladder")
        self.maps = list(maps)
        for f, g in zip(self.maps, self.maps[1:]):
            if g.cols != f.rows:
                raise NotExact("chain shape mismatch")
            if any(any(e) for row in (g * f).raw for e in row):
                raise NotExact("consecutive maps do not compose to zero")

    def ranks(self):
        return [self.maps[0].cols] + [f.rows for f in self.maps]


def _finite_index_in(K: OFMatrix, img: OFMatrix) -> int:
    """length of the row lattice of K over the column span of img; img's
    columns must lie in K's row lattice at precision."""
    C = _coordinates(smith_normal_form(K), img.transpose())
    if C is None:
        raise NotExact("image does not lie in the kernel of the next map")
    return sum(e for e in smith_normal_form(C).exponents if e is not None)


def exact_sequence_exponent(L: ExactSequenceLadder) -> int:
    """p-valuation of the canonical trivialization of the alternating
    determinant line, as an alternating sum of finite homology lengths.

    Signs are normalized so that 0 -> M --p.id--> M -> coker -> 0 measured
    against det(coker) yields +rank(M); the value is additive under direct
    sums and invariant under unimodular base change of any lattice.

    Each map is Smith-reduced once.  The saturated kernel of map i is
    spanned by the columns of its V past the rank; they are primitive, so
    the coordinates of map i-1 in them have map i-1's elementary divisors,
    and the bookkeeping check already gives them full rank.
    """
    maps = L.maps
    k = len(maps)
    ranks = L.ranks()
    snfs = [smith_normal_form(m) for m in maps]
    lengths = []
    # position 0: kernel of the first map must vanish at precision
    if snfs[0].rank != ranks[0]:
        raise NotExact("first map has a kernel: not exact at the left end")
    lengths.append(0)
    for i in range(1, k):
        ker = snfs[i].V.transpose().raw[snfs[i].rank:]
        if snfs[i - 1].rank != len(ker):
            raise NotExact(f"rank bookkeeping fails at position {i}")
        lengths.append(_finite_index_in(OFMatrix._of(maps[i].ctx, ker), maps[i - 1])
                       if ker else 0)
    # rightmost position: coker of the last map
    if snfs[-1].rank != ranks[-1]:
        raise NotExact("last map is not surjective after inverting p")
    lengths.append(sum(e for e in snfs[-1].exponents if e is not None))
    total = 0
    for i, ell in enumerate(lengths):
        sign = 1 if (k - i) % 2 == 0 else -1
        total += sign * ell
    return total


# ---------------------------------------------------------------------------
# Tamagawa exponents
# ---------------------------------------------------------------------------

def _window_contains_01(D: FilPhiModule) -> bool:
    """Some window [a; b] with a <= 0 < 1 <= b and b - a <= p - 1 contains
    all actual jump positions (jumps sit at -weights, window at [-b, -a])."""
    act = D.actual_jumps()
    hi = max(1, -min(act))
    lo = min(0, -max(act))
    return hi - lo <= D.ctx.p - 1


def tam_exponent(D: FilPhiModule) -> int:
    """Valuation of the Tamagawa coefficient of the stored lattice.

    Generic case only: det(1 - Phi) and det(Phi - p) (the latter carrying
    det(1 - p Phi^{-1})) must both be nonzero at precision, and an
    admissible window must contain {0, 1}.  The twist bookkeeping enters
    through the Fil^0 cutoff: Fil^0 M is spanned by the basis vectors whose
    actual jump position r_i + shift is >= 0.

    The quotient C = M/(1-phi)Fil^0 M carries a torsion part, counted by the
    elementary divisors of the Fil^0 rows of 1 - Phi, and a free part
    compared against M/Fil^0 M through z -> -pr((1-phi)^{-1} z); the
    exponent is the torsion length plus the valuation of that comparison
    determinant.
    """
    _require_f1(D)
    ctx = D.ctx
    p = ctx.p
    if not _window_contains_01(D):
        raise Degenerate("no admissible window contains {0, 1}", reason="window")
    _, v1 = det_one_minus_phi(D)
    if v1 is None:
        raise Degenerate("det(1 - phi) is 0 at precision: H^0 may be nonzero",
                         reason="H0")
    _, vdual = det_phi_minus_p(D)
    if vdual is None:
        raise Degenerate("det(1 - p phi^{-1}) is 0 at precision: the dual-side "
                         "H^0 may be nonzero", reason="H0-dual")
    acts = D.actual_jumps()
    fil0 = [i for i in range(D.d) if acts[i] >= 0]
    quot = [i for i in range(D.d) if acts[i] < 0]
    phi = D.phi_matrix()
    one_minus = OFMatrix.identity(ctx, D.d) - phi
    tors = 0
    snf = None
    if fil0:
        snf = smith_normal_form(OFMatrix._of(ctx, tuple(one_minus.raw[i] for i in fil0)))
        if None in snf.exponents:
            raise Degenerate("(1-phi)|Fil^0 drops rank at precision",
                             reason="fil0-rank")
        tors = sum(snf.exponents)
    if not quot:
        return tors
    # free-part comparison over exact rationals on canonical representatives
    if 2 * (v1 + 1) > ctx.N:
        raise PrecisionLoss("N too small to trust the free-part comparison")
    d = D.d
    if snf is None:
        basis = [[int(i == j) for j in range(d)] for i in range(d)]
    else:  # free part of M / (1-phi)Fil^0 M: the trailing rows of V^{-1}
        basis = [[e[0] for e in row] for row in snf.V.inverse().raw[len(fil0):]]
    # psi is minus the quotient coordinates of X = basis (1 - Phi)^{-1},
    # solved on the transpose: [(1 - Phi)^T | basis^T] reduces to [I | X^T]
    rank, _, reduced = rational_reduce(
        [[one_minus.raw[j][i][0] for j in range(d)] + [vec[i] for vec in basis]
         for i in range(d)], d)
    if rank < d:
        raise Degenerate("1 - phi is singular over the rationals", reason="singular")
    psi = [[-reduced[i][d + k] for i in quot] for k in range(len(basis))]
    _, det, _ = rational_reduce(psi, len(quot))
    if det == 0:
        raise Degenerate("free-part comparison is singular", reason="psi-singular")
    return tors + vp_fraction(det, p)


# ---------------------------------------------------------------------------
# the two exponent expressions
# ---------------------------------------------------------------------------

class CepReport:
    """Both sides of the lattice-exponent identity, component by component."""

    __slots__ = ("tam_exponent_V", "tam_exponent_dual", "det_minus_phi_dual_vp",
                 "gamma_star_total_vp", "eta_exponent", "cep_lattice_exponent",
                 "verdict")

    def __init__(self, tam_V, tam_dual, det_vp, gamma_vp, eta, exponent, verdict):
        self.tam_exponent_V = tam_V
        self.tam_exponent_dual = tam_dual
        self.det_minus_phi_dual_vp = det_vp
        self.gamma_star_total_vp = gamma_vp
        self.eta_exponent = eta
        self.cep_lattice_exponent = exponent
        self.verdict = verdict

    def as_dict(self):
        return {
            "tam_exponent_V": self.tam_exponent_V,
            "tam_exponent_dual": self.tam_exponent_dual,
            "det_minus_phi_dual_vp": self.det_minus_phi_dual_vp,
            "gamma_star_total_vp": self.gamma_star_total_vp,
            "eta_exponent": self.eta_exponent,
            "cep_lattice_exponent": self.cep_lattice_exponent,
            "verdict": self.verdict,
        }


def cep_check(D: FilPhiModule, tam_V: int | None = None,
              tam_dual: int | None = None) -> CepReport:
    """Compare the Gamma*-form and the Tamagawa-ratio form of the lattice
    exponent; verdict is their agreement.

    Gamma*-form:   v(det(-phi | dual)) - sum_j h_j v(Gamma*(-j)) + eta
    Tam-ratio:     v(det(-phi | dual)) + Tam(V) - Tam(dual)

    Under both slope conditions with the window inside [-(p-2), p-1] all
    components vanish except the shared determinant term.

    `tam_V` and `tam_dual` pass tam_exponent(D) and
    tam_exponent(dual_twist(D, 1)) when the caller already has them.
    """
    _require_f1(D)
    p = D.ctx.p
    h, _ = hodge_invariants(D)
    window_ok = all(-(p - 2) <= j <= p - 1 for j in h)
    if not window_ok:
        raise Degenerate("actual weights leave [-(p-2), p-1]", reason="gamma-window")
    _, det_vp = det_minus_phi_dual(D)
    gamma_vp = -sum(mult * gamma_star(-j, p).v_p for j, mult in h.items())
    eta = eta_exponent(D)
    if tam_V is None:
        tam_V = tam_exponent(D)
    if tam_dual is None:
        tam_dual = tam_exponent(dual_twist(D, 1))
    lhs = det_vp + gamma_vp + eta
    rhs = det_vp + tam_V - tam_dual
    return CepReport(tam_V, tam_dual, det_vp, gamma_vp, eta, lhs, lhs == rhs)
