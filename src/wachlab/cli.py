"""Command-line front end.

    wachlab run JOB [JOB ...] [--output FILE] [--jobs K] [--N n] [--M m] [--MT t]
    wachlab corpus --p P --count N [--d-max D] [--seed S] --out-dir DIR

`run` executes job documents and writes one JSON report (a single report
for one input, a reports array for several), ordered by input index
regardless of worker count; exit code 0 iff every verdict holds and no
command errored.  `corpus` writes numbered job files.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import ParseError, ValidationError, WachlabError
from .jobs import (SCHEMA, format_job, generate_corpus, parse_job, run_job,
                   validate_job)


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
        changed = False
        for key, attr in (("N", "N"), ("M", "M"), ("MT", "M_T"), ("seed", "seed")):
            if overrides.get(key) is not None:
                setattr(job, attr, overrides[key])
                changed = True
        if changed:
            validate_job(job)
    except (ParseError, ValidationError) as exc:
        detail = {"type": type(exc).__name__, "reason": str(exc)}
        if isinstance(exc, ParseError) and exc.line is not None:
            detail["line"] = exc.line
        return _error_report(path, **detail), False
    try:
        report = run_job(job)
    except (WachlabError, ValueError) as exc:  # e.g. invalid overrides
        return _error_report(path, type(exc).__name__, str(exc)), False
    ok = json.loads(report)["ok"]
    return report, ok


def _error_report(path: str, type: str, reason: str, **extra) -> str:
    body = {"schema": SCHEMA, "input": path, "ok": False,
            "error": {"type": type, "reason": reason, **extra}}
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_run(args) -> int:
    overrides = {"N": args.N, "M": args.M, "MT": args.MT, "seed": args.seed}
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda f: _run_one(f, overrides), args.inputs))
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
    runp.add_argument("--jobs", type=int, default=1, help="worker threads")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
