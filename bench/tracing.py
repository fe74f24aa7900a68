"""Spans around consfloor's public calls, recorded from outside the package.

While a Tracer is started, the public functions of each module are
replaced by wrappers that record a span (id, parent, name, tag, start,
end, round).  The replacement is made on the module attribute that
callers look up, so calls the package makes internally through its
module globals (invert -> find_free_boundary, run_all -> check_*) are
traced as children of the outer span.  The wrappers add a timer pair
and a list append per call; stop() puts the originals back.  Spans stay
in memory until dump().
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from consfloor import dual_solver, montecarlo, policy, serialize, verification

CHECKS = [name for name in verification.__all__ if name.startswith("check_")]

# (module, attribute, span name); the span name is the layer's module
PUBLIC_CALLS = (
    [(dual_solver, "solve_dual", "dual_solver.solve_dual"),
     (policy, "find_free_boundary", "dual_solver.find_free_boundary"),
     (policy, "invert", "policy.invert"),
     (verification, "run_all", "verification.run_all")]
    + [(verification, name, f"verification.{name}") for name in CHECKS]
    + [(serialize, name, f"serialize.{name}")
       for name in ("write_dual_csv", "write_policy_csv", "read_dual_csv", "read_policy_csv")]
    + [(montecarlo, "simulate", "montecarlo.simulate")]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self._round = None

    @property
    def active(self) -> bool:
        return self._round is not None

    def start(self, rnd: int):
        self._round = rnd
        for module, attr, name in PUBLIC_CALLS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        fn = montecarlo.table_feedback
        self._saved.append((montecarlo, "table_feedback", fn))
        montecarlo.table_feedback = lambda table: self._wrap_policy(fn(table))

    def stop(self):
        self._round = None
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def span(self, name, tag=None):
        if not self.active:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, tag, t0, t1, self._round)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            tag = None
            if name == "dual_solver.solve_dual":
                tag = args[1].n_nodes
            with self.span(name, tag):
                out = fn(*args, **kwargs)
            if name == "dual_solver.solve_dual":
                self.counts["nodes_trimmed"] += tag - out.n_nodes
            elif name.startswith("serialize.write_"):
                self.counts["bytes_written"] += len(out)
            return out

        return traced

    def _wrap_policy(self, feedback):
        def traced(x):
            self.counts["policy.calls"] += 1
            self.counts["policy.points"] += len(x)
            with self.span("policy.query"):
                return feedback(x)

        return traced

    def total_seconds(self, name, tag=None) -> float:
        return sum(s[5] - s[4] for s in self.spans
                   if s[2] == name and (tag is None or s[3] == tag))

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "tag", "start", "end", "round")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans],
                                    "counts": dict(self.counts)}), encoding="utf-8")


class ImportTimes(NamedTuple):
    consfloor_s: float  # cumulative import of the consfloor package
    scipy_s: float      # self time of every scipy module
    cli_s: float        # cumulative top-level imports of consfloor and consfloor.*


def import_times(stderr: str) -> ImportTimes:
    """Parse the report of `python -X importtime`."""
    consfloor_us = scipy_us = cli_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|")
        name = field.strip()
        if not self_us.strip().isdigit():
            continue  # the header line
        top_level = len(field) - len(field.lstrip()) == 1
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
        if top_level and name == "consfloor":
            consfloor_us = int(cumulative_us)
        if top_level and (name == "consfloor" or name.startswith("consfloor.")):
            cli_us += int(cumulative_us)
    return ImportTimes(consfloor_us * 1e-6, scipy_us * 1e-6, cli_us * 1e-6)
