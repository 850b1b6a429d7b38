"""Outside-in spans around the calls one wachlab module makes into another.

The wrappers replace module-level names and methods at the points where
callers look them up, so the program itself is unchanged.  Spans (name,
start, end, parent, job id) are kept in memory and written out once at the
end; calls, total time and self time per layer are derived from them.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name): the span is named after the defining
# module, whichever module's global the caller goes through.
WRAPPED_FUNCTIONS = (
    ("wachlab.jobs", "parse_job", "jobs.parse_job"),
    ("wachlab.jobs", "run_job", "jobs.run_job"),
    ("wachlab.jobs", "gamma_matrix", "wach.gamma_matrix"),
    ("wachlab.jobs", "check_q_cokernel", "wach.check_q_cokernel"),
    ("wachlab.jobs", "tam_exponent", "cep.tam_exponent"),
    ("wachlab.jobs", "cep_check", "cep.cep_check"),
    ("wachlab.jobs", "strong_divisibility_check", "filmod.strong_divisibility_check"),
    ("wachlab.jobs", "unit_root_rank", "filmod.unit_root_rank"),
    ("wachlab.jobs", "top_slope_absent", "filmod.top_slope_absent"),
    ("wachlab.jobs", "slopes", "filmod.slopes"),
    ("wachlab.wach", "solve_H", "wach.solve_H"),
    ("wachlab.wach", "compute_Q", "wach.compute_Q"),
    ("wachlab.wach", "phi_series", "aplus.phi_series"),
    ("wachlab.wach", "gamma_series", "aplus.gamma_series"),
    ("wachlab.wach", "invert_series", "aplus.invert_series"),
    ("wachlab.wach", "check_q_cokernel", "wach.check_q_cokernel"),
    ("wachlab.cep", "tam_exponent", "cep.tam_exponent"),
    ("wachlab.cep", "smith_normal_form", "padic.smith_normal_form"),
    ("wachlab.filmod", "newton_slopes", "padic.newton_slopes"),
    ("wachlab.filmod", "semilinear_stable_rank", "padic.semilinear_stable_rank"),
    ("wachlab.filmod", "smith_normal_form", "padic.smith_normal_form"),
    ("wachlab.iwasawa", "twist1", "iwasawa.twist1"),
    ("wachlab.iwasawa", "twist_minus1", "iwasawa.twist_minus1"),
    ("wachlab.iwasawa", "delta_twist_consistency", "iwasawa.delta_twist_consistency"),
)

# (module, class, method, span name)
WRAPPED_METHODS = (
    ("wachlab.aplus", "APlusSeries", "__mul__", "aplus.mul"),
    ("wachlab.padic", "OFMatrix", "det", "padic.det"),
    ("wachlab.iwasawa", "IwasawaElement", "__mul__", "iwasawa.mul"),
)


class Tracer:
    """Span recorder; `install` wraps the targets, `uninstall` restores them.

    A target a later version of the program no longer has is listed in
    `absent` and skipped."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent index, job id]
        self.iterations = 0   # summed solver iteration counts
        self.absent = []
        self._stack = []
        self._job = None
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else None, self._job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "wach.solve_H":
                self.iterations += result[1]
            return result

        return traced

    def install(self):
        self.absent = []
        for modname, attr, name in WRAPPED_FUNCTIONS:
            self._patch(importlib.import_module(modname), attr, name)
        for modname, cls, attr, name in WRAPPED_METHODS:
            owner = getattr(importlib.import_module(modname), cls, None)
            if owner is None:
                self.absent.append(name)
            else:
                self._patch(owner, attr, name)

    def _patch(self, owner, attr, name):
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.absent.append(name)
            return
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def job(self, job_id):
        """One job: a root span carrying its id, parent of the job's spans."""
        idx = len(self.spans)
        self._job = job_id
        self.spans.append(["job", time.perf_counter_ns(), 0, None, job_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
            self._job = None

    def summary(self) -> dict:
        """{span name: (calls, total ms, self ms)}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start) / 1e6,
                         own + (end - start - inner) / 1e6)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
