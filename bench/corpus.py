"""Seeded job corpora for the three benchmark workloads.

Every corpus is a pure function of (workload, seed): the lattice workloads
draw modules through the public `generate_corpus` and pick a fixed number of
each rank, so that two seeds load the layers in the same proportions and
differ only in the random matrices; the valuation workload uses the module
generator below (ranks beyond `generate_corpus`'s limit of 3); the Iwasawa
workload varies only the job seed.  The program sees nothing but the job
texts written from these documents.
"""

from __future__ import annotations

import random

from wachlab.cep import cep_check, tam_exponent
from wachlab.errors import Degenerate, PrecisionLoss
from wachlab.filmod import FilPhiModule, dual_twist, slopes
from wachlab.jobs import JobDocument, ModuleSpec, format_job, generate_corpus
from wachlab.padic import OFMatrix, PrecisionContext

VALUATION_COMMANDS = ("check", "slopes", "tam", "cep")

def _pick_ranks(p: int, eligibility: str, ranks, seed: int) -> list[JobDocument]:
    """The first generated job of each requested rank (repeats allowed),
    in request order; `generate_corpus` draws the rank at random."""
    count = 4 * len(ranks)
    while True:
        pool = generate_corpus(p, 3, count, seed, eligibility=eligibility)
        ranks_of = [next(iter(j.modules.values())).rank for j in pool]
        chosen = []
        for r in ranks:
            hit = next((i for i, ri in enumerate(ranks_of)
                        if ri == r and i not in chosen), None)
            if hit is None:
                break
            chosen.append(hit)
        else:
            return [pool[i] for i in chosen]
        count *= 2


def _lattice_n20(rng: random.Random) -> list[JobDocument]:
    jobs = []
    for p in (3, 5, 7):
        jobs += _pick_ranks(p, "unit_root", (1, 1, 2, 2, 3, 3), rng.randrange(2**31))
        jobs += _pick_ranks(p, "top", (2, 2, 3, 3), rng.randrange(2**31))
    return jobs


def random_module(rng: random.Random, p: int, d: int, jump_max: int,
                  N: int = 20) -> ModuleSpec:
    """A rank-d module with jumps in [0, jump_max] and a unit-determinant
    matrix, filtered by the generic-case preconditions `generate_corpus`
    applies (Tamagawa exponents of the module and its dual twist defined),
    extended to the valuation commands: the lattice-exponent report and,
    up to rank 6, the Newton slopes must be decidable at precision N.  The
    slope test is skipped above rank 6, where it costs seconds."""
    ctx = PrecisionContext(p, N)
    while True:
        jumps = sorted(rng.randrange(jump_max + 1) for _ in range(d))
        rows = [[rng.randrange(ctx.pN) for _ in range(d)] for _ in range(d)]
        A = OFMatrix(ctx, rows)
        if not A.det().is_unit():
            continue
        D = FilPhiModule(ctx, jumps, A)
        try:
            tam_exponent(D)
            tam_exponent(dual_twist(D, 1))
            cep_check(D)
            if d <= 6:
                slopes(D)
        except (Degenerate, PrecisionLoss):
            continue
        return ModuleSpec("v", d, jumps, [[str(x) for x in row] for row in rows])


def _valuation(rng: random.Random) -> list[JobDocument]:
    plan = [(p, d, p - 2) for p in (3, 5, 7) for d in range(1, 7) for _ in range(4)]
    # the fixed tail: large ranks at p = 11 with low jumps; rank 9 is past
    # the charpoly permutation expansion's limit and must stay in the corpus
    plan += [(11, d, 2) for d in (7, 8, 9)]
    jobs = []
    for p, d, jump_max in plan:
        spec = random_module(rng, p, d, jump_max)
        jobs.append(JobDocument(p=p, N=20, seed=rng.randrange(2**31),
                                modules={"v": spec},
                                commands=[(c, "v") for c in VALUATION_COMMANDS]))
    return jobs


def _iwasawa(rng: random.Random) -> list[JobDocument]:
    return [JobDocument(p=p, N=20, M_T=MT, seed=rng.randrange(2**31),
                        commands=[("iwasawa-check", None)])
            for p in (3, 5, 7) for MT in (32, 64) for _ in range(2)]


WORKLOADS = {
    "lattice-n20": _lattice_n20,
    "valuation": _valuation,
    "iwasawa": _iwasawa,
}


def build_corpus(workload: str, seed: int) -> list[str]:
    """Job texts of `workload` for `seed`, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    return [format_job(job) for job in WORKLOADS[workload](rng)]


def warmup_jobs(texts: list[str], parse) -> list[str]:
    """One warm-up job per distinct (p, N, M) of the corpus: the header and
    command list of the group's first job, run on a fixed eligible rank-1
    module (jump 1, matrix [1]).  Running it fills the ingredient cache, the
    packed kernels and their power tables that the group's jobs share."""
    seen = set()
    out = []
    for text in texts:
        job = parse(text)
        key = (job.p, job.N, job.order())
        if key in seen:
            continue
        seen.add(key)
        job.modules = {"w": ModuleSpec("w", 1, [1], [["1"]])}
        job.commands = list(dict.fromkeys(
            (cmd, None if mod is None else "w") for cmd, mod in job.commands))
        out.append(format_job(job))
    return out
