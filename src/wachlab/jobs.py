"""Job documents and the deterministic batch runner.

A job is a small line-oriented text document: header keys, one or more
module blocks, and a list of commands.  Matrix entries are plain integers
or base-p digit strings (``p:d0.d1.d2...``, little-endian), since decimal
literals get unwieldy at N = 20.

Reports are JSON with sorted keys and a versioned schema; identical input
and seed produce byte-identical output, and every error path lands in a
structured per-command entry instead of a crash.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import __version__
from .errors import Degenerate, ParseError, PrecisionLoss, ValidationError
from .padic import OFMatrix, PrecisionContext
from .filmod import (
    CategoryFlags,
    FilPhiModule,
    dual_twist,
    hodge_invariants,
    slopes,
    strong_divisibility_check,
    top_slope_absent,
    unit_root_rank,
)
from .cep import cep_check, tam_exponent
from .wach import check_q_cokernel, gamma_matrix
from . import iwasawa as iw

SCHEMA = "wachlab-report/2"
KNOWN_COMMANDS = ("check", "slopes", "wach", "tam", "cep", "iwasawa-check")

#: Upper bounds on a job's settings, so that no input line can start a
#: computation that stalls the runner (series work grows as M^2 and more).
MAX_P, MAX_N, MAX_M, MAX_MT = 997, 200, 2000, 512

# Result fields that must be true for a command to be ok.  The cep verdict
# is left out: the two exponent forms it compares agree only under both
# slope conditions.
VERDICTS = {
    "check": ("strongly_divisible",),
    "wach": ("residual_zero", "q_cokernel", "P_mod_pi_equals_phi",
             "G_identity_mod_pi_pm1"),
    "iwasawa-check": ("idempotents_ok", "twist_roundtrip_ok",
                      "eval_homomorphism_ok", "unit_multiplicativity_ok",
                      "twist_consistency_ok"),
}


@dataclass
class ModuleSpec:
    name: str
    rank: int
    jumps: list
    rows: list
    shift: int = 0
    # the line of each row, for errors; empty for a spec not parsed from text
    lines: list = field(default_factory=list, repr=False, compare=False)


@dataclass
class JobDocument:
    p: int
    f: int = 1
    N: int = 20
    M: int | None = None
    M_T: int = 32
    seed: int = 0
    emit_matrices: bool = False
    modules: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)
    # (every setting `validate_job` read, the modules it built)
    _validated: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def order(self) -> int:
        return self.M if self.M else 2 * (self.p - 1) * self.N


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_entry(token: str, p: int, lineno: int) -> int:
    if token.startswith("p:"):
        value = 0
        power = 1
        for part in token[2:].split("."):
            if not part.isdigit():
                raise ParseError(f"bad base-p digit '{part}'", line=lineno)
            d = int(part)
            if d >= p:
                raise ParseError(f"digit {d} out of range for base {p}", line=lineno)
            value += d * power
            power *= p
        return value
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad matrix entry '{token}'", line=lineno) from None


def parse_job(text: str) -> JobDocument:
    """Parse and validate a job document; all module invariants are enforced
    here (window, sortedness, invertibility)."""
    header: dict = {}
    modules: dict = {}
    commands: list = []
    named: dict = {}  # module name -> line of the first command naming it
    current: ModuleSpec | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if current is not None:
            if key == "endmodule":
                modules[current.name] = current
                current = None
            elif key == "rank":
                current.rank = _expect_int(parts, 1, lineno)
            elif key == "jumps":
                current.jumps = [_expect_int(parts, i, lineno)
                                 for i in range(1, len(parts))]
            elif key == "shift":
                current.shift = _expect_int(parts, 1, lineno)
            elif key == "row":
                current.rows.append(parts[1:])
                current.lines.append(lineno)
            else:
                raise ParseError(f"unknown module field '{key}'", line=lineno,
                                 field=key)
            continue
        if key == "module":
            if len(parts) != 2:
                raise ParseError("module needs a name", line=lineno)
            if parts[1] in modules:
                raise ParseError(f"duplicate module '{parts[1]}'", line=lineno)
            current = ModuleSpec(parts[1], 0, [], [])
        elif key == "command":
            if len(parts) < 2 or parts[1] not in KNOWN_COMMANDS:
                raise ParseError(f"unknown command '{' '.join(parts[1:])}'",
                                 line=lineno, field="command")
            name = parts[1]
            if name == "iwasawa-check":
                if len(parts) != 2:
                    raise ParseError("iwasawa-check takes no module", line=lineno)
                commands.append((name, None))
            else:
                if len(parts) != 3:
                    raise ParseError(f"command {name} needs a module", line=lineno)
                commands.append((name, parts[2]))
                named.setdefault(parts[2], lineno)
        elif key in header:
            raise ParseError(f"repeated header key '{key}'", line=lineno, field=key)
        elif key in ("p", "f", "n", "m", "mt", "seed"):
            header[key] = _expect_int(parts, 1, lineno)
        elif key == "emit-matrices":
            if len(parts) < 2:
                raise ParseError("emit-matrices needs a value", line=lineno,
                                 field=key)
            header["emit-matrices"] = parts[1].lower() in ("1", "true", "yes")
        else:
            raise ParseError(f"unknown directive '{key}'", line=lineno, field=key)
    if current is not None:
        raise ParseError("unterminated module block", line=None)
    if "p" not in header:
        raise ParseError("missing prime p", field="p")
    job = JobDocument(
        p=header["p"], f=header.get("f", 1), N=header.get("n", 20),
        M=header.get("m"), M_T=header.get("mt", 32),
        seed=header.get("seed", 0),
        emit_matrices=header.get("emit-matrices", False),
        modules=modules, commands=commands)
    if job.f != 1:
        raise ValidationError("the batch runner supports f = 1 only")
    validate_job(job)
    for mod, lineno in named.items():
        if mod not in modules:
            raise ParseError(f"command references unknown module '{mod}'",
                             line=lineno, field="command")
    return job


def _expect_int(parts, i, lineno):
    try:
        return int(parts[i])
    except (IndexError, ValueError):
        raise ParseError(f"expected an integer after '{parts[0]}'",
                         line=lineno) from None


def validate_job(job: JobDocument) -> dict[str, FilPhiModule]:
    """Window, shape, and invertibility checks; raises ValidationError.
    Returns the modules it built, by name, and records them on the job with
    the settings it read.  A later call on the same settings returns the
    recorded modules; a job whose settings were changed after parsing (or
    after an earlier call) is validated and built again."""
    snapshot = (job.p, job.f, job.N, job.M, job.M_T,
                tuple((name, spec.rank, tuple(spec.jumps), tuple(map(tuple, spec.rows)),
                       spec.shift) for name, spec in job.modules.items()))
    if job._validated is not None and job._validated[0] == snapshot:
        return job._validated[1]
    if job.N < 1:
        raise ValidationError("precision N must be >= 1")
    if job.M is not None and job.M <= job.p - 1:
        raise ValidationError("pi-truncation M must exceed p-1")
    if job.M_T < 1:
        raise ValidationError("T-truncation MT must be >= 1")
    for name, value, cap in (("prime p", job.p, MAX_P), ("precision N", job.N, MAX_N),
                             ("pi-truncation M", job.order(), MAX_M),
                             ("T-truncation MT", job.M_T, MAX_MT)):
        if value > cap:
            raise ValidationError(f"{name} = {value} exceeds the cap {cap}")
    mods = {}
    for name, spec in job.modules.items():
        if spec.rank < 1:
            raise ValidationError(f"module {spec.name}: rank must be >= 1")
        if len(spec.jumps) != spec.rank:
            raise ValidationError(f"module {spec.name}: {spec.rank} jumps expected")
        if len(spec.rows) != spec.rank:
            raise ValidationError(f"module {spec.name}: {spec.rank} matrix rows expected")
        for row in spec.rows:
            if len(row) != spec.rank:
                raise ValidationError(f"module {spec.name}: ragged matrix row")
        mods[name] = build_module(job, spec)  # raises ValidationError on window/determinant
    job._validated = snapshot, mods
    return mods


def build_module(job: JobDocument, spec: ModuleSpec) -> FilPhiModule:
    try:
        ctx = PrecisionContext(job.p, job.N, f=job.f)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    lines = spec.lines + [None] * len(spec.rows)  # None past the parsed rows
    entries = [[_parse_entry(tok, job.p, line) if isinstance(tok, str) else int(tok)
                for tok in row] for row, line in zip(spec.rows, lines)]
    return FilPhiModule(ctx, spec.jumps, OFMatrix(ctx, entries), shift=spec.shift)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _error_entry(exc: Exception) -> dict:
    return {"type": type(exc).__name__, "reason": str(exc)}


def run_job(job: JobDocument) -> str:
    """Validate the job and execute all commands; returns the JSON report
    text (sorted keys, stable layout, newline-terminated).  Raises
    ValidationError for a job `validate_job` rejects."""
    mods = validate_job(job)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "job": {"p": job.p, "f": job.f, "N": job.N, "M": job.order(),
                "MT": job.M_T, "seed": job.seed},
        "modules": {},
        "results": [],
        "ok": True,
    }
    for name, D in sorted(mods.items()):
        h, t_H = hodge_invariants(D)
        report["modules"][name] = {
            "rank": D.d,
            "jumps": list(D.jumps),
            "shift": D.shift,
            "t_H": t_H,
            "hodge": {str(j): m for j, m in sorted(h.items())},
            "det_valuation": D.phi_matrix().det().valuation(),
        }
    cache: dict[tuple[str, str], object] = {}
    for cmd, mod in job.commands:
        entry = {"command": cmd, "module": mod}
        try:
            data = entry["data"] = _run_command(job, cmd, mods.get(mod), cache, mod)
            entry["ok"] = all(data[k] for k in VERDICTS.get(cmd, ()))
        except Exception as exc:  # any failure is this command's entry, not the job's
            entry["ok"] = False
            entry["error"] = _error_entry(exc)
        report["ok"] = report["ok"] and entry["ok"]
        report["results"].append(entry)
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _run_command(job, cmd, D, cache, mod_name):
    """One command's result data; `cache` holds each module's slope flags,
    lattice data, dual twist and Tamagawa exponents, so that they are
    computed once per job."""
    if cmd == "iwasawa-check":
        return _iwasawa_selfcheck(job)
    if cmd in ("check", "wach"):
        if ("flags", mod_name) not in cache:
            cache["flags", mod_name] = unit_root_rank(D), top_slope_absent(D)
        rank0, top_absent = cache["flags", mod_name]
    if cmd == "check":
        flags = CategoryFlags(rank0 == 0, top_absent)
        ok, adapted = strong_divisibility_check(D.to_raw())
        return {
            "strongly_divisible": ok,
            "recovered_jumps": list(adapted.jumps) if adapted else None,
            "unit_root_rank": rank0,
            "top_slope_absent": top_absent,
            "ab_star": flags.ab_star,
            "a_star_b": flags.a_star_b,
            "both": flags.both,
        }
    if cmd == "slopes":
        return {"slopes": [str(s) for s in slopes(D)]}
    if cmd == "wach":
        if ("wach", mod_name) not in cache:
            cache["wach", mod_name] = gamma_matrix(D, 1 + job.p, job.order())
        W = cache["wach", mod_name]
        f = D.ctx.f
        p_matches = all(s.raw()[:f] == list(e)
                        for prow, row in zip(W.P, D.phi_matrix().raw)
                        for s, e in zip(prow, row))
        data = {
            "c": W.c,
            "order": W.order,
            "iterations": W.iterations,
            "residual_zero": W.residual_zero,
            "residual_valuation": W.residual_valuation,
            "eligibility": {"unit_root_rank": rank0,
                            "top_slope_absent": top_absent},
            "P_mod_pi_equals_phi": p_matches,
            "G_identity_mod_pi_pm1": _g_congruent_identity(W),
            "q_cokernel": check_q_cokernel(W),
        }
        if job.emit_matrices:
            data["matrices"] = {
                name: [[s.raw() for s in row] for row in mat]
                for name, mat in (("P", W.P), ("Q", W.Q), ("H", W.H), ("G", W.G))
            }
        return data
    if cmd == "tam":
        tam, exc = _once(cache, ("tam", mod_name), tam_exponent, D)
        if exc is not None:
            raise exc
        return {"exponent": tam}
    if cmd == "cep":
        # a failed value goes in as None: cep_check recomputes it and raises
        # in its own order
        tam = _once(cache, ("tam", mod_name), tam_exponent, D)[0]
        dual = _once(cache, ("dual", mod_name), dual_twist, D, 1)[0]
        tam_dual = None
        if dual is not None:
            tam_dual = _once(cache, ("tam dual", mod_name), tam_exponent, dual)[0]
        data = cep_check(D, tam_V=tam, tam_dual=tam_dual).as_dict()
        data["dual_jumps"] = list(dual.jumps)
        return data
    raise ValidationError(f"unhandled command {cmd}")


def _once(cache, key, fn, *args):
    """fn(*args) computed once per job: (value, None), or (None, the error
    it raised)."""
    if key not in cache:
        try:
            cache[key] = fn(*args), None
        except Exception as exc:
            cache[key] = None, exc
    return cache[key]


def _g_congruent_identity(W) -> bool:
    """G == Id mod pi^{p-1}, compared on raw coordinates."""
    n = (W.D.ctx.p - 1) * W.D.ctx.f
    return all(g.raw()[:n] == [int(i == j and k == 0) for k in range(n)]
               for i, row in enumerate(W.G) for j, g in enumerate(row))


def _iwasawa_selfcheck(job: JobDocument) -> dict:
    ctx = iw.IwasawaContext(job.p, job.M_T, N=job.N)
    rng = random.Random(job.seed ^ 0x1DA)
    def rand_unit():
        comps = []
        for _ in range(ctx.p - 1):
            row = [rng.randrange(-50, 50) for _ in range(ctx.M_T)]
            c = rng.randrange(1, 50)
            while c % ctx.p == 0:
                c = rng.randrange(1, 50)
            row[0] = c
            comps.append(row)
        return iw.IwasawaElement(ctx, comps)
    ide = all(
        iw.idempotent(ctx, i) * iw.idempotent(ctx, j) ==
        (iw.idempotent(ctx, i) if i == j else iw.IwasawaElement.zero(ctx))
        for i in range(ctx.p - 1) for j in range(ctx.p - 1))
    total = iw.IwasawaElement.zero(ctx)
    for i in range(ctx.p - 1):
        total = total + iw.idempotent(ctx, i)
    ide = ide and total == iw.IwasawaElement.one(ctx)
    x = rand_unit()
    roundtrip = iw.twist_minus1(iw.twist1(x)) == x
    y = rand_unit()
    evalhom = (iw.eval_at_zero(x * y) == iw.eval_at_zero(x) * iw.eval_at_zero(y))
    units = iw.is_lambda_unit(x * y) == (iw.is_lambda_unit(x) and iw.is_lambda_unit(y))
    consistency = iw.delta_twist_consistency(x, iw.twist1(x))
    return {
        "idempotents_ok": ide,
        "twist_roundtrip_ok": roundtrip,
        "eval_homomorphism_ok": evalhom,
        "unit_multiplicativity_ok": units,
        "twist_consistency_ok": consistency,
    }


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def generate_corpus(p: int, d_max: int, count: int, seed: int,
                    eligibility: str = "unit_root") -> list[JobDocument]:
    """Pseudorandom eligible modules as ready-to-run jobs, deterministic per
    seed.

    Filters: invertible A, jumps within the {0,1}-window bound (top jump at
    most p-2), the requested slope condition, and the generic-case
    determinant preconditions on both the module and its dual twist.
    """
    if d_max < 1 or d_max > 3:
        raise ValidationError("d_max must be in [1, 3]")
    d_min = 1
    if eligibility == "top":
        # a rank-one module always carries its top slope
        if d_max < 2:
            raise ValidationError("top-slope eligibility needs d_max >= 2")
        d_min = 2
    rng = random.Random(seed)
    ctx = PrecisionContext(p, 20)
    jobs = []
    attempts = 0
    while len(jobs) < count:
        attempts += 1
        if attempts > 20000 * max(count, 1):
            raise ValidationError("corpus generation stalled; filters too tight")
        d = d_min + rng.randrange(d_max - d_min + 1)
        jumps = sorted(rng.randrange(p - 1) for _ in range(d))
        entries = [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)]
        A = OFMatrix(ctx, entries)
        if not A.det().is_unit():
            continue
        D = FilPhiModule(ctx, jumps, A)
        if eligibility == "unit_root":
            if unit_root_rank(D) != 0:
                continue
        elif eligibility == "top":
            if not top_slope_absent(D):
                continue
        else:
            raise ValidationError(f"unknown eligibility '{eligibility}'")
        try:
            tam_exponent(D)
            tam_exponent(dual_twist(D, 1))
        except (Degenerate, PrecisionLoss):
            continue
        name = f"m{len(jobs)}"
        spec = ModuleSpec(name, d, list(jumps),
                          [[str(x) for x in row] for row in entries], 0)
        jobs.append(JobDocument(
            p=p, N=20, seed=seed, modules={name: spec},
            commands=[("check", name), ("wach", name), ("tam", name),
                      ("cep", name)]))
    return jobs


def format_job(job: JobDocument) -> str:
    """Serialize a job back to the input text format."""
    out = [f"p {job.p}", f"f {job.f}", f"N {job.N}"]
    if job.M:
        out.append(f"M {job.M}")
    out.append(f"MT {job.M_T}")
    out.append(f"seed {job.seed}")
    if job.emit_matrices:
        out.append("emit-matrices true")
    for name, spec in sorted(job.modules.items()):
        out.append("")
        out.append(f"module {name}")
        out.append(f"rank {spec.rank}")
        out.append("jumps " + " ".join(str(j) for j in spec.jumps))
        if spec.shift:
            out.append(f"shift {spec.shift}")
        for row in spec.rows:
            out.append("row " + " ".join(str(t) for t in row))
        out.append("endmodule")
    out.append("")
    for cmd, mod in job.commands:
        out.append(f"command {cmd}" + (f" {mod}" if mod else ""))
    return "\n".join(out) + "\n"
