"""Command-line front end.

    wachlab run JOB [JOB ...] [--output FILE] [--jobs K] [--N n] [--M m] [--MT t]
    wachlab corpus --p P --count N [--d-max D] [--seed S] --out-dir DIR

`run` executes job documents and writes one JSON report (a single report
for one input, a reports array for several), ordered by input index and
byte-identical for every `--jobs`; exit code 0 iff every verdict holds and
no command errored.  `--jobs K` runs the inputs on min(K, inputs, usable
CPUs) worker processes, one task per input; an input whose worker died
before reporting gets a `WorkerError` entry.  `corpus` writes numbered job
files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ParseError, ValidationError, WachlabError
from .jobs import SCHEMA, format_job, generate_corpus, parse_job, run_job


def _run_one(path: str, overrides: dict) -> tuple[str, bool]:
    """Report text and ok-flag for one job file; parse failures become a
    structured error report rather than a crash."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return _error_report(path, "IOError", str(exc)), False
    except UnicodeDecodeError as exc:
        return _error_report(path, "ParseError", f"not UTF-8 text: {exc}"), False
    try:
        job = parse_job(text)
    except (ParseError, ValidationError) as exc:
        detail = {"type": type(exc).__name__, "reason": str(exc)}
        if isinstance(exc, ParseError) and exc.line is not None:
            detail["line"] = exc.line
        return _error_report(path, **detail), False
    for key, attr in (("N", "N"), ("M", "M"), ("MT", "M_T"), ("seed", "seed")):
        if overrides.get(key) is not None:
            setattr(job, attr, overrides[key])
    try:
        report = run_job(job)
    except (WachlabError, ValueError) as exc:  # e.g. overrides `run_job` rejects
        return _error_report(path, type(exc).__name__, str(exc)), False
    ok = json.loads(report)["ok"]
    return report, ok


def _error_report(path: str, type: str, reason: str, **extra) -> str:
    body = {"schema": SCHEMA, "input": path, "ok": False,
            "error": {"type": type, "reason": reason, **extra}}
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(jobs: int, inputs: int) -> int:
    """Worker processes for `--jobs jobs` over `inputs` inputs."""
    return min(jobs, inputs, _usable_cpus())


def _run_pool(paths, overrides: dict, workers: int) -> list[tuple[str, bool]]:
    """`_run_one` over `paths` on worker processes, in input order.  The
    pool uses the default start method (fork on Linux, safe here because
    the runner has started no thread of its own); each worker fills its own
    caches."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_one, path, overrides) for path in paths]
        for path, future in zip(paths, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:  # a worker died (signal, OOM)
                results.append((_error_report(path, "WorkerError", str(exc)), False))
    return results


def cmd_run(args) -> int:
    overrides = {"N": args.N, "M": args.M, "MT": args.MT, "seed": args.seed}
    workers = _worker_count(args.jobs, len(args.inputs))
    if workers > 1:
        results = _run_pool(args.inputs, overrides, workers)
    else:
        results = [_run_one(f, overrides) for f in args.inputs]
    if len(results) == 1:
        out = results[0][0]
    else:
        reports = [json.loads(r) for r, _ in results]
        out = json.dumps({"schema": SCHEMA, "reports": reports},
                         sort_keys=True, separators=(",", ":")) + "\n"
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)
    return 0 if all(ok for _, ok in results) else 1


def cmd_corpus(args) -> int:
    try:
        jobs = generate_corpus(args.p, args.d_max, args.count, args.seed,
                               eligibility=args.eligibility)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        (outdir / f"job_{i:04d}.wach").write_text(format_job(job))
    sys.stdout.write(f"wrote {len(jobs)} jobs to {outdir}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wachlab",
        description="exact lattice constructions and valuation checks for "
                    "filtered phi-modules")
    sub = parser.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run job documents, emit a JSON report")
    runp.add_argument("inputs", nargs="+", help="job document paths")
    runp.add_argument("--output", help="report path (default: stdout)")
    runp.add_argument("--jobs", type=int, default=1,
                      help="worker processes (at most one per input and "
                           "per usable CPU)")
    runp.add_argument("--N", type=int, help="override p-adic precision")
    runp.add_argument("--M", type=int, help="override pi-truncation order")
    runp.add_argument("--MT", type=int, help="override T-truncation order")
    runp.add_argument("--seed", type=int, help="override job seed")
    runp.set_defaults(func=cmd_run)

    corp = sub.add_parser("corpus", help="generate eligible random job files")
    corp.add_argument("--p", type=int, required=True, choices=(3, 5, 7))
    corp.add_argument("--count", type=int, required=True)
    corp.add_argument("--d-max", type=int, default=3)
    corp.add_argument("--seed", type=int, default=0)
    corp.add_argument("--eligibility", choices=("unit_root", "top"),
                      default="unit_root")
    corp.add_argument("--out-dir", required=True)
    corp.set_defaults(func=cmd_corpus)

    args = parser.parse_args(argv)
    if args.cmd == "run" and args.jobs < 1:
        runp.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
