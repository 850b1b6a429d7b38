"""wachlab benchmark: job corpora through the CLI and the library, checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --pin

Run from a checkout: the program is imported from ./src and the CLI runs as
``python3 -m wachlab`` with ./src on PYTHONPATH; scratch files go to
./.bench_work.  The corpus is generated from the seed (bench/corpus.py) and
written as job files, which are all the program sees.

--trace 0 measures the end-to-end metrics:
  jobs_per_s    verified jobs / wall time of ``wachlab run --jobs 2
                --output F`` over the corpus, in a fresh interpreter
                (import, cache build and report write included); the
                fastest of three such runs spread over the run
  job_ms_iqm    interquartile mean over the corpus's jobs of each job's
                median warm in-process ``run_job(parse_job(text))`` time,
                cycling over the corpus for --seconds (at least two full
                passes): the mean of the middle half of the jobs, which
                unlike the median does not jump between cost strata when a
                few jobs run slow on a loaded host
  setup_s       median over 3 to 6 fresh interpreters, spread over the run,
                of: import wachlab, parse the corpus, run one warm-up job per
                distinct (p, N, M)
  peak_rss_mb   peak RSS of the CLI processes
job_ms_p50 and job_ms_p90 are printed on a comment line before the result
but not gated; no corpus has the ten jobs beyond p90 that a gated tail
percentile needs.
--trace 1 traces the warm-up jobs (cold caches), runs one untraced and one
traced in-process pass, derives the per-layer metrics from the spans of the
warm-up and the traced pass (bench/tracing.py), times the packed and series
products at the workload's sizes and compares ``--jobs 1`` with
``--jobs 2``.

Every report is checked: each verdict must hold, each command must be ok,
the CLI report must equal the in-process one byte for byte, repeated passes
must agree, and at the default seed a digest of each report's projection
must match the pins in bench/workloads.json (``--pin`` records them).  A
job failing any of these is not counted in jobs_per_s and counts as +inf
in the latency percentiles; its commands count as failed.  The last line
of stdout is one JSON object: correct, attempted and failed (commands,
so failed / attempted is the failed share with its base), metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = BENCH / "workloads.json"
CHILD_TIMEOUT_S = 150

if not (SRC / "wachlab" / "__init__.py").is_file():
    sys.exit(f"bench: no wachlab sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import wachlab  # noqa: E402
from wachlab import jobs as jobs_mod  # noqa: E402

if Path(wachlab.__file__).resolve().parent != (SRC / "wachlab").resolve():
    sys.exit(f"bench: imported wachlab from {wachlab.__file__}, not {SRC}")

from corpus import WORKLOADS, build_corpus, warmup_jobs  # noqa: E402
from tracing import Tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# Verdict fields that must be true in an ok entry; for iwasawa-check every
# field ending in "_ok".  The cep verdict compares two forms of the lattice
# exponent that agree under both slope conditions, so it is required where
# the job's check of the same module reports `both`.
VERDICTS = {
    "check": ("strongly_divisible",),
    "wach": ("residual_zero", "q_cokernel", "P_mod_pi_equals_phi",
             "G_identity_mod_pi_pm1"),
    "cep": ("verdict",),
}

# The pinned projection: module summaries and the result fields present
# when the pins were recorded.  `iterations` and `version` are left out, so
# that a faster solver or a schema bump is not read as a wrong answer.
MODULE_FIELDS = ("rank", "jumps", "shift", "t_H", "hodge", "det_valuation")
RESULT_FIELDS = {
    "check": ("strongly_divisible", "recovered_jumps", "unit_root_rank",
              "top_slope_absent", "ab_star", "a_star_b", "both"),
    "slopes": ("slopes",),
    "wach": ("c", "order", "residual_zero", "residual_valuation", "eligibility",
             "P_mod_pi_equals_phi", "G_identity_mod_pi_pm1", "q_cokernel",
             "matrices"),
    "tam": ("exponent",),
    "cep": ("tam_exponent_V", "tam_exponent_dual", "det_minus_phi_dual_vp",
            "gamma_star_total_vp", "eta_exponent", "cep_lattice_exponent",
            "verdict", "dual_jumps"),
    "iwasawa-check": ("idempotents_ok", "twist_roundtrip_ok",
                      "eval_homomorphism_ok", "unit_multiplicativity_ok",
                      "twist_consistency_ok"),
}

# per-layer metrics read off the spans: (span name, figure)
SPAN_METRICS = (
    ("wach.solve_H", "self_ms"), ("wach.gamma_matrix", "calls"),
    ("wach.gamma_matrix", "self_ms"), ("wach.compute_Q", "calls"),
    ("wach.compute_Q", "ms"), ("wach.check_q_cokernel", "ms"),
    ("aplus.mul", "calls"), ("aplus.mul", "ms"),
    ("aplus.phi_series", "calls"), ("aplus.phi_series", "ms"),
    ("aplus.gamma_series", "ms"), ("aplus.invert_series", "ms"),
    ("padic.smith_normal_form", "calls"), ("padic.smith_normal_form", "ms"),
    ("padic.newton_slopes", "calls"), ("padic.newton_slopes", "ms"),
    ("padic.semilinear_stable_rank", "calls"),
    ("padic.semilinear_stable_rank", "ms"),
    ("padic.det", "calls"), ("padic.det", "ms"),
    ("filmod.strong_divisibility_check", "ms"),
    ("filmod.unit_root_rank", "calls"), ("filmod.top_slope_absent", "calls"),
    ("cep.tam_exponent", "calls"), ("cep.tam_exponent", "ms"),
    ("cep.cep_check", "self_ms"),
    ("iwasawa.twist1", "calls"), ("iwasawa.twist1", "ms"),
    ("iwasawa.twist_minus1", "ms"), ("iwasawa.mul", "calls"),
    ("iwasawa.mul", "ms"), ("iwasawa.delta_twist_consistency", "self_ms"),
    ("jobs.parse_job", "ms"), ("jobs.run_job", "self_ms"),
)


class BenchError(Exception):
    """The benchmark could not measure (a child died or timed out)."""


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def projection_digest(report: dict) -> str:
    proj = {
        "job": report.get("job"),
        "ok": report.get("ok"),
        "modules": {name: {k: m.get(k) for k in MODULE_FIELDS}
                    for name, m in sorted(report.get("modules", {}).items())},
        "results": [{
            "command": e.get("command"), "module": e.get("module"),
            "ok": e.get("ok"), "error": e.get("error"),
            "data": {k: (e.get("data") or {}).get(k)
                     for k in RESULT_FIELDS.get(e.get("command"), ())},
        } for e in report.get("results", [])],
    }
    return hashlib.sha256(canonical(proj).encode()).hexdigest()


def failed_commands(report: dict) -> tuple[int, bool]:
    """(commands not ok or with a false verdict, whether a verdict was false)."""
    failed, wrong = 0, False
    both = {e["module"] for e in report["results"]
            if e["command"] == "check" and (e.get("data") or {}).get("both")}
    for entry in report["results"]:
        data = entry.get("data") or {}
        names = VERDICTS.get(entry["command"],
                             [k for k in data if k.endswith("_ok")])
        if entry["command"] == "cep" and entry["module"] not in both:
            names = ()
        false_verdict = entry.get("ok") and not all(data.get(k) is True for k in names)
        wrong |= bool(false_verdict)
        if not entry.get("ok") or false_verdict:
            failed += 1
    return failed, wrong


class Job:
    """One corpus job and everything observed about it."""

    def __init__(self, name: str, text: str):
        self.name, self.text = name, text
        self.commands = len(jobs_mod.parse_job(text).commands)
        self.output = None      # first in-process report, or the escaped error
        self.raised = False
        self.notes = []         # reasons the job's output is wrong
        self.times = []         # in-process seconds per run
        self.failed = 0         # failed commands, set by verification

    def observe(self, output: str, raised: bool):
        if self.output is None:
            self.output, self.raised = output, raised
        elif output != self.output:
            self.notes.append("in-process reports differ between passes")

    def verify(self, cli_texts, pin: str | None) -> int:
        """Failed commands of this job, given its report from each CLI run;
        wrong answers go to `notes`."""
        if self.raised:
            if any(json.loads(t).get("results") is not None for t in cli_texts):
                self.notes.append("CLI produced results where run_job raised")
            return self.commands
        report = json.loads(self.output)
        failed, wrong = failed_commands(report)
        if wrong:
            self.notes.append("false verdict")
        if any(t != self.output for t in cli_texts):
            self.notes.append("CLI report differs from the in-process report")
        if pin is not None and projection_digest(report) != pin:
            self.notes.append("projection digest differs from the pinned one")
        return self.commands if self.notes else failed


def run_once(job: Job) -> float:
    t0 = time.perf_counter()
    try:
        out, raised = jobs_mod.run_job(jobs_mod.parse_job(job.text)), False
    except Exception as exc:  # an escaped error is a measured failure
        out, raised = f"{type(exc).__name__}: {exc}", True
    elapsed = time.perf_counter() - t0
    job.observe(out, raised)
    return elapsed


def warm_up(texts):
    for text in texts:
        try:
            jobs_mod.run_job(jobs_mod.parse_job(text))
        except Exception:  # a warm-up job only fills caches
            pass


def run_child(argv, log: Path) -> tuple[float, int]:
    """Run a child to completion; (wall seconds, peak RSS in KiB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{argv[1:4]} ended by signal {-proc.returncode}; see {log}")
    return wall, usage.ru_maxrss


def run_cli(workdir: Path, files, workers: int):
    """One ``wachlab run`` over the corpus: (wall s, peak RSS KiB, reports)."""
    out = workdir / f"cli_jobs{workers}.json"
    argv = [sys.executable, "-m", "wachlab", "run", "--jobs", str(workers),
            "--output", str(out), *map(str, files)]
    wall, rss = run_child(argv, workdir / f"cli_jobs{workers}.log")
    try:
        reports = json.loads(out.read_text())["reports"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no CLI report ({exc}); see {workdir}") from None
    if len(reports) != len(files):
        raise BenchError(f"CLI returned {len(reports)} reports for {len(files)} jobs")
    return wall, rss, [canonical(r) for r in reports]


def measure_setup(workdir: Path, times: list):
    """Append set-up seconds measured in fresh interpreters: one run, and a
    second one if the first took under a second."""
    log = workdir / "setup.log"
    for _ in range(2):
        run_child([sys.executable, str(BENCH / "setup_child.py"), str(workdir)], log)
        try:
            times.append(float(log.read_text().split()[-1]))
        except (IndexError, ValueError):
            raise BenchError(f"set-up probe printed no time; see {log}") from None
        if times[-1] >= 1:
            break


def interquartile_mean(xs) -> float:
    """Mean of the middle half of the sorted samples; +inf samples stay."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.mean(xs[cut:len(xs) - cut])


def percentile(xs, q: float) -> float:
    """Linear interpolation between closest ranks; +inf samples stay +inf."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_records() -> dict:
    return json.loads(RECORDS.read_text())


def load_pins(workload: str, seed: int) -> dict:
    records = load_records()
    if seed != records["default_seed"]:
        return {}
    return records["workloads"][workload]["pins"]


def prepare(workload: str, seed: int, trace: int):
    workdir = WORK / f"{workload}-s{seed}{'-trace' if trace else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    texts = build_corpus(workload, seed)
    jobs = [Job(f"job_{i:04d}", t) for i, t in enumerate(texts)]
    files = []
    for job in jobs:
        path = workdir / f"{job.name}.wach"
        path.write_text(job.text)
        files.append(path.relative_to(ROOT))
    warm = warmup_jobs(texts, jobs_mod.parse_job)
    for i, text in enumerate(warm):
        (workdir / f"warmup_{i:02d}.wach").write_text(text)
    return workdir, jobs, files, warm


def finish(jobs, cli_runs, pins):
    """Verify every job against each CLI run's reports; (failed commands,
    wrong-answer notes)."""
    failed, notes = 0, []
    for job, cli_texts in zip(jobs, zip(*cli_runs)):
        job.failed = job.verify(cli_texts, pins.get(job.name))
        failed += job.failed
        notes += [f"{job.name}: {n}" for n in job.notes]
    return failed, notes


def bench_e2e(workload: str, seed: int, seconds: float) -> dict:
    workdir, jobs, files, warm = prepare(workload, seed, 0)
    # The set-up and CLI runs are spread over the run, so that a burst of
    # host load reaches few of them.  Of the three CLI runs the fastest
    # counts: with two threads contending for the GIL on a 2-vCPU host, the
    # same corpus took up to 1.5x longer in some runs than in others.
    setup, cli = [], []
    measure_setup(workdir, setup)
    cli.append(run_cli(workdir, files, 2))
    measure_setup(workdir, setup)
    cli.append(run_cli(workdir, files, 2))

    warm_up(warm)
    t0 = time.perf_counter()
    i = passes = 0
    while passes < 2 or time.perf_counter() - t0 < seconds:
        jobs[i].times.append(run_once(jobs[i]))
        i = (i + 1) % len(jobs)
        passes += i == 0
    measure_setup(workdir, setup)
    cli.append(run_cli(workdir, files, 2))
    cli_walls = [wall for wall, _, _ in cli]
    cli_wall, cli_rss = min(cli_walls), max(rss for _, rss, _ in cli)

    failed, notes = finish(jobs, [reports for _, _, reports in cli],
                           load_pins(workload, seed))
    per_job_ms = [statistics.median(job.times) * 1e3 if not job.failed else math.inf
                  for job in jobs]
    verified = sum(1 for job in jobs if not job.failed)
    attempted = sum(job.commands for job in jobs)
    print(f"# {workload} seed {seed}: {len(jobs)} jobs, {attempted} commands, "
          f"failed {failed}/{attempted} = {failed / attempted:.4f}; "
          f"{verified} jobs verified")
    print(f"# {sum(map(len, (j.times for j in jobs)))} in-process runs over "
          f"{passes} full pass(es); set-up runs (s): "
          f"{', '.join(f'{t:.3f}' for t in setup)}; CLI walls (s): "
          f"{', '.join(f'{t:.3f}' for t in cli_walls)}")
    print(f"# over {len(jobs)} jobs, not gated: job_ms_p50 "
          f"{percentile(per_job_ms, 0.5):.6g} ms, job_ms_p90 "
          f"{percentile(per_job_ms, 0.9):.6g} ms")
    for note in notes:
        print(f"# WRONG {note}")
    return {
        "correct": not notes, "attempted": attempted, "failed": failed,
        "metrics": {
            "jobs_per_s": {"value": verified / cli_wall, "unit": "jobs/s"},
            "job_ms_iqm": {"value": interquartile_mean(per_job_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": cli_rss / 1024, "unit": "MiB"},
        },
    }


def time_per_call(fn, budget_s: float = 0.2) -> float:
    """Median seconds per call over batches of about 10 ms."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 > 0.01:
            break
        n *= 2
    per_call = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(per_call) < 5:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call)


def product_micro(sizes) -> tuple[float, float, int, list]:
    """Packed product plus normalize (`mul_n`) and one `APlusSeries` product
    at each (p, N, M) on seeded operands, each checked against a naive
    convolution: (kernel us, series us, packed operand bytes, wrong notes),
    times summed over the sizes."""
    from wachlab._kernel import get_kernel
    from wachlab.aplus import APlusSeries
    from wachlab.padic import PrecisionContext

    kernel_us = series_us = 0.0
    packed_bytes = 0
    notes = []
    for p, N, M in sizes:
        pN = p ** N
        rng = random.Random(f"product/{p}/{N}/{M}")
        a = [rng.randrange(pN) for _ in range(M)]
        b = [rng.randrange(pN) for _ in range(M)]
        want = [sum(a[i] * b[k - i] for i in range(k + 1)) % pN for k in range(M)]
        ker = get_kernel(p, N, M)
        pa, pb = ker.pack(a), ker.pack(b)
        ctx = PrecisionContext(p, N)
        sa, sb = APlusSeries(ctx, M, a), APlusSeries(ctx, M, b)
        if ker.unpack(ker.mul_n(pa, pb)) != want or (sa * sb).raw() != want:
            notes.append(f"product at (p, N, M) = ({p}, {N}, {M}) is wrong")
        kernel_us += 1e6 * time_per_call(lambda: ker.mul_n(pa, pb))
        series_us += 1e6 * time_per_call(lambda: sa * sb)
        packed_bytes += ker.limb * M
    return kernel_us, series_us, packed_bytes, notes


def cache_sizes() -> dict:
    """Entries in the program's process-wide caches (absent names read 0)."""
    from wachlab import _kernel, wach

    kernels = getattr(_kernel, "_kernels", {})
    return {
        "wach.ingredient_cache.entries": len(getattr(wach, "_ingredient_cache", {})),
        "kernel.instances": len(kernels),
        "kernel.power_tables": sum(len(getattr(k, "_tables", {}))
                                   for k in kernels.values()),
    }


def bench_trace(workload: str, seed: int) -> dict:
    workdir, jobs, files, warm = prepare(workload, seed, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for i, text in enumerate(warm):
            with tracer.job(f"warmup_{i:02d}"):
                warm_up([text])
    finally:
        tracer.uninstall()
    untraced = sum(run_once(job) for job in jobs)

    tracer.install()
    traced = 0.0
    report_bytes = 0
    try:
        for job in jobs:
            with tracer.job(job.name):
                traced += run_once(job)
            report_bytes += len(job.output) if not job.raised else 0
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.jsonl")
    caches = cache_sizes()

    sizes = sorted({(d.p, d.N, d.order()) for d in map(jobs_mod.parse_job, (j.text for j in jobs))
                    if any(cmd == "wach" for cmd, _ in d.commands)})
    kernel_us, series_us, packed_bytes, notes = product_micro(sizes)

    wall1, _, reports1 = run_cli(workdir, files, 1)
    wall2, _, reports2 = run_cli(workdir, files, 2)
    failed, wrong = finish(jobs, [reports1, reports2], load_pins(workload, seed))
    notes += wrong

    summary = tracer.summary()
    metrics = {}
    for span, figure in SPAN_METRICS:
        calls, total, own = summary.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "ms": total, "self_ms": own}[figure]
        metrics[f"{span}.{figure}"] = {"value": value,
                                       "unit": "count" if figure == "calls" else "ms"}
    solve_self = summary.get("wach.solve_H", (0, 0.0, 0.0))[2]
    metrics["wach.solve_H.iterations"] = {"value": tracer.iterations, "unit": "count"}
    metrics["wach.iteration_ms"] = {
        "value": solve_self / tracer.iterations if tracer.iterations else 0.0,
        "unit": "ms"}
    for name, value in caches.items():
        metrics[name] = {"value": value, "unit": "count"}
    metrics["kernel.mul_us"] = {"value": kernel_us, "unit": "us"}
    metrics["kernel.packed_operand_bytes"] = {"value": packed_bytes, "unit": "bytes"}
    metrics["aplus.mul_us"] = {"value": series_us, "unit": "us"}
    metrics["jobs.report_bytes"] = {"value": report_bytes, "unit": "bytes"}
    metrics["cli.jobs2_speedup"] = {"value": wall1 / wall2, "unit": "ratio"}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1, "unit": "ratio"}

    attempted = sum(job.commands for job in jobs)
    print(f"# {workload} seed {seed} traced: {len(tracer.spans)} spans in "
          f"{workdir.relative_to(ROOT)}/spans.jsonl; failed {failed}/{attempted}")
    print(f"# product sizes (p, N, M): {sizes}; packed operand bytes are "
          f"computed (limb bytes x M), not measured")
    if tracer.absent:
        print(f"# absent from this version (reported as 0): {', '.join(tracer.absent)}")
    for note in notes:
        print(f"# WRONG {note}")
    return {"correct": not notes, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin():
    """Record the projection digests of every fully passing job at the
    default seed."""
    records = load_records()
    for workload in WORKLOADS:
        texts = build_corpus(workload, records["default_seed"])
        pins = records["workloads"][workload]["pins"] = {}
        for i, text in enumerate(texts):
            job = Job(f"job_{i:04d}", text)
            run_once(job)
            if not job.raised and job.verify((), None) == 0:
                pins[job.name] = projection_digest(json.loads(job.output))
        print(f"{workload}: pinned {len(pins)} of {len(texts)} jobs")
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=load_records()["default_seed"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record the default-seed pins in bench/workloads.json")
    args = ap.parse_args()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.trace:
            result = bench_trace(args.workload, args.seed)
        else:
            result = bench_e2e(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
