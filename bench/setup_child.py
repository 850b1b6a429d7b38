"""Set-up probe, run in a fresh interpreter by run.py.

    python3 bench/setup_child.py CORPUS_DIR

Imports wachlab, parses every job of the corpus and runs the warm-up jobs
(``warmup_*.wach``), then prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

from wachlab.jobs import parse_job, run_job  # noqa: E402

corpus = Path(sys.argv[1])
for path in sorted(corpus.glob("job_*.wach")):
    parse_job(path.read_text())
for path in sorted(corpus.glob("warmup_*.wach")):
    try:
        run_job(parse_job(path.read_text()))
    except Exception:  # a warm-up job only fills caches; its result is unused
        pass
print(time.perf_counter() - t0)
