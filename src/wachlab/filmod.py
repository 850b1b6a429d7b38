"""Strongly divisible filtered phi-modules over O_F.

A module is presented in an adapted basis: sorted filtration jumps
0 <= r_1 <= ... <= r_d <= p-1 and an invertible matrix A, the operator
acting on row vectors by x -> sigma(x) * Phi with Phi = Diag(p^{r_i}) * A
(images of basis vectors in the rows; this is the only convention under
which an arbitrary invertible A yields a strongly divisible lattice).
The integer `shift` records a Tate twist: the presented object is the
twist by `shift` of the stored normalized one, so the actual filtration
jump positions are r_i + shift.

Raw presentations (any basis, explicit filtration sublattices) can be
tested for strong divisibility and converted to adapted form.  Each
filtration lattice is Smith-reduced once, when the raw module is built
(`RawFilPhiModule.fil_snfs`): its row basis and the coordinates
of other rows in it come off that one reduction, the coordinates from X V
and the divisors (`padic._row_basis`, `padic._coordinates`).  Matrices are
built and read as raw rows (`OFMatrix.raw`), never entry by entry.
"""

from __future__ import annotations

from .errors import NotAUnit, PrecisionLoss, ValidationError, WindowOverflow
from .padic import (
    OFMatrix,
    PrecisionContext,
    _coordinates,
    _divide_rows,
    _row_basis,
    newton_slopes,
    semilinear_stable_rank,
    smith_normal_form,
)


class FilPhiModule:
    """Adapted presentation (jumps, A, shift) of a strongly divisible lattice."""

    __slots__ = ("ctx", "d", "jumps", "A", "shift", "_phi")

    def __init__(self, ctx: PrecisionContext, jumps, A: OFMatrix, shift: int = 0):
        jumps = tuple(int(r) for r in jumps)
        if list(jumps) != sorted(jumps):
            raise ValidationError("filtration jumps must be sorted increasingly")
        if jumps and (jumps[0] < 0 or jumps[-1] > ctx.p - 1):
            raise ValidationError(
                f"jumps {list(jumps)} outside the normalized window [0, {ctx.p - 1}]")
        if not isinstance(A, OFMatrix):
            A = OFMatrix(ctx, A)
        if A.ctx != ctx:
            raise ValidationError("matrix context mismatch")
        if A.rows != len(jumps) or A.cols != len(jumps):
            raise ValidationError("matrix size does not match the number of jumps")
        if not A.det().is_unit():
            raise ValidationError("A must be invertible over O_F (unit determinant)")
        self.ctx = ctx
        self.d = len(jumps)
        self.jumps = jumps
        self.A = A
        self.shift = int(shift)
        self._phi = None

    def __repr__(self):
        return (f"FilPhiModule(p={self.ctx.p}, d={self.d}, jumps={list(self.jumps)}, "
                f"shift={self.shift})")

    def __eq__(self, other):
        return (isinstance(other, FilPhiModule) and self.ctx == other.ctx
                and self.jumps == other.jumps and self.A == other.A
                and self.shift == other.shift)

    def __hash__(self):
        return hash((self.ctx, self.jumps, self.A, self.shift))

    def phi_matrix(self) -> OFMatrix:
        """Diag(p^{r_i}) * A: row i of A scaled by p^{r_i}."""
        if self._phi is None:
            ctx = self.ctx
            self._phi = OFMatrix._of(ctx, tuple(
                tuple(ctx.scalar_raw(pow(ctx.p, r, ctx.pN), e) for e in row)
                for r, row in zip(self.jumps, self.A.raw)))
        return self._phi

    def actual_jumps(self) -> tuple[int, ...]:
        return tuple(r + self.shift for r in self.jumps)

    def to_raw(self) -> "RawFilPhiModule":
        """Export: Phi in the adapted basis, filtration flags as identity rows."""
        ctx = self.ctx
        ident = OFMatrix.identity(ctx, self.d).raw
        gens = []
        for level in range(self.jumps[-1] + 1 if self.jumps else 1):
            rows = tuple(row for row, r in zip(ident, self.jumps) if r >= level)
            gens.append(OFMatrix._of(ctx, rows) if rows else None)
        return RawFilPhiModule(ctx, self.phi_matrix(), gens)


class RawFilPhiModule:
    """Phi in an arbitrary basis plus explicit filtration sublattices.

    fil_gens[i] is a matrix whose rows generate Fil^i (None for the zero
    lattice); levels beyond the list are zero.  Level 0 must generate the
    full lattice (its Smith form has rank d and unit divisors, so it holds
    every higher level) and the sublattices must decrease.  fil_snfs[i] is
    the Smith form of fil_gens[i] (None with it), reduced once here.
    """

    __slots__ = ("ctx", "d", "Phi", "fil_gens", "fil_snfs")

    def __init__(self, ctx: PrecisionContext, Phi: OFMatrix, fil_gens):
        if Phi.rows != Phi.cols:
            raise ValidationError("Phi must be square")
        if Phi.ctx != ctx:
            raise ValidationError("matrix context mismatch")
        self.ctx = ctx
        self.d = Phi.rows
        self.Phi = Phi
        gens = []
        for g in fil_gens:
            if g is None:
                gens.append(None)
            else:
                if not isinstance(g, OFMatrix):
                    g = OFMatrix(ctx, g)
                if g.ctx != ctx:
                    raise ValidationError("matrix context mismatch")
                if g.cols != self.d:
                    raise ValidationError("filtration generator width mismatch")
                gens.append(g)
        self.fil_gens = tuple(gens)
        self.fil_snfs = tuple(None if g is None else smith_normal_form(g) for g in gens)
        fil0 = self.fil_snfs[0] if gens else None
        if fil0 is None or fil0.rank != self.d or any(fil0.exponents):
            raise ValidationError("Fil^0 must be the full lattice")
        for lower, higher in zip(self.fil_snfs[1:], self.fil_gens[2:]):
            if higher is None:
                continue
            if lower is None or _coordinates(lower, higher) is None:
                raise ValidationError("filtration sublattices must decrease")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def strong_divisibility_check(raw: RawFilPhiModule):
    """Whether the lattice equals the sum over i of p^{-i} phi(Fil^i).

    Returns (flag, adapted) where adapted is a FilPhiModule presentation
    extracted from the filtration flags, or None when the flags do not
    split off as direct summands (the sum condition can still hold then).
    Raises PrecisionLoss when every level is divisible but a nonempty level
    i >= N is: phi(Fil^i) is then 0 mod p^N, and its quotient by p^i unknown.
    """
    ctx = raw.ctx
    if len(raw.fil_gens) > ctx.p:
        for g in raw.fil_gens[ctx.p:]:
            if g is not None and g.rows > 0:
                raise ValidationError("filtration window exceeds [0, p-1]")
    stacked, undecided = [], []
    for level, gens in enumerate(raw.fil_gens):
        if gens is None:
            continue
        try:
            stacked.extend(_divide_rows(gens.frobenius_map() * raw.Phi,
                                        [level] * gens.rows).raw)
        except PrecisionLoss:
            return False, None  # phi(Fil^i) not divisible by p^i
        if level >= ctx.N and gens.rows:
            undecided.append(level)
    if undecided:
        i = undecided[0]
        raise PrecisionLoss(f"p^-{i} phi(Fil^{i}) is undecided at N={ctx.N}")
    snf = smith_normal_form(OFMatrix._of(ctx, tuple(stacked)))
    full = (snf.rank == raw.d and all(e == 0 for e in snf.exponents[:raw.d]))
    if not full:
        return False, None
    adapted = _extract_adapted(raw)
    return True, adapted


def _extract_adapted(raw: RawFilPhiModule):
    """Adapted basis (jumps, A) from split filtration flags, top level down.

    Each level's row basis and the coordinates of the rows picked so far
    both come off the Smith form the module holds for it."""
    ctx = raw.ctx
    picked: list = []   # rows, deepest level first
    levels: list = []
    for level in range(len(raw.fil_snfs) - 1, -1, -1):
        snf = raw.fil_snfs[level]
        if snf is None or not snf.rank:
            continue
        if not picked:
            new = _row_basis(snf)
        else:
            C = _coordinates(snf, OFMatrix._of(ctx, tuple(picked)))
            if C is None:
                return None  # picked not inside this flag: inconsistent input
            split = smith_normal_form(C)
            if split.rank != len(picked) or any(e != 0 for e in split.exponents):
                return None  # flag does not split
            if snf.rank == len(picked):
                continue  # the flag is the span so far: no jump at this level
            # the trailing rows of V^{-1} complete picked, in this level's basis
            complement = OFMatrix._of(ctx, split.V.inverse().raw[len(picked):])
            new = complement * _row_basis(snf)
        picked.extend(new.raw)
        levels.extend([level] * new.rows)
    if len(picked) != raw.d:
        return None
    # increasing jump order for the presentation
    B = OFMatrix._of(ctx, tuple(picked[::-1]))
    jumps = tuple(levels[::-1])
    try:
        A = _divide_rows(B.frobenius_map() * raw.Phi * B.inverse(), jumps)
        return FilPhiModule(ctx, jumps, A, shift=0)
    except (NotAUnit, PrecisionLoss, ValidationError):
        return None


def unit_root_rank(D: FilPhiModule) -> int:
    """Rank of the slope-0 part; 0 certifies eligibility of the lattice
    constructor on the normalized presentation."""
    return semilinear_stable_rank(D.phi_matrix())


def top_slope_absent(D: FilPhiModule) -> bool:
    """Whether the operator has no part of slope r_d: the stabilized rank of
    p^{r_d} Phi^{-1} = A^{-1} Diag(p^{r_d - r_j}), an integral matrix,
    vanishes mod p."""
    ctx = D.ctx
    scales = [pow(ctx.p, D.jumps[-1] - r, ctx.pN) for r in D.jumps]
    W = OFMatrix._of(ctx, tuple(tuple(map(ctx.scalar_raw, scales, row))
                                for row in D.A.inverse().raw))
    return semilinear_stable_rank(W) == 0


def dual_twist(D: FilPhiModule, k: int) -> FilPhiModule:
    """The module of V*(k): jumps k - r (reversed), A' = J A^{-T} J, with the
    window slid back into [0, p-1] and the slide recorded in `shift`.

    Satisfies t_H(D') = k*d - t_H(D)."""
    ctx = D.ctx
    actual = [k - a for a in reversed(D.actual_jumps())]
    if actual[-1] - actual[0] > ctx.p - 1:
        raise WindowOverflow("dual window longer than p-1")  # unreachable: span preserved
    # slide the stored window only when the actual positions leave [0, p-1]
    if actual[0] < 0:
        shift = actual[0]
    elif actual[-1] > ctx.p - 1:
        shift = actual[-1] - (ctx.p - 1)
    else:
        shift = 0
    new_jumps = [x - shift for x in actual]
    ainv_t = D.A.inverse().transpose().raw
    flipped = OFMatrix._of(ctx, tuple(row[::-1] for row in ainv_t[::-1]))  # J A^{-T} J
    return FilPhiModule(ctx, new_jumps, flipped, shift=shift)


def hodge_invariants(D: FilPhiModule):
    """Multiplicities h_j of the actual jump positions and t_H = sum j h_j.

    On the normalized presentation (shift 0), t_H = v_p(det Phi)."""
    h: dict[int, int] = {}
    for j in D.actual_jumps():
        h[j] = h.get(j, 0) + 1
    t_H = sum(j * m for j, m in h.items())
    return h, t_H


class CategoryFlags:
    """Membership in the slope-restricted subcategories (tight window)."""

    __slots__ = ("ab_star", "a_star_b", "both")

    def __init__(self, ab_star: bool, a_star_b: bool):
        self.ab_star = ab_star
        self.a_star_b = a_star_b
        self.both = ab_star and a_star_b

    def __repr__(self):
        return f"CategoryFlags(ab_star={self.ab_star}, a_star_b={self.a_star_b})"


def category_membership(D: FilPhiModule) -> CategoryFlags:
    return CategoryFlags(unit_root_rank(D) == 0, top_slope_absent(D))


def slopes(D: FilPhiModule):
    """Newton slopes of the stored Frobenius matrix (cross-check oracle for
    the mod-p membership tests)."""
    return newton_slopes(D.phi_matrix())
