"""In-memory spans around the public calls the CLI pipeline makes.

A traced op is the same `tsvar.cli.main` call as an untraced one. While it
runs, each public function below is replaced, in the module namespace the
pipeline looks it up from, by a wrapper that records a span (name, start,
end, parent span, op id) and work counts read from the call's arguments and
public return value. Inner calls (for example the convexity check inside
`classify_candidate`) therefore get their own spans with their real
arguments. The originals are restored when the traced op ends.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional


def _checks(args, kwargs, result, exc) -> dict:
    return {"checks": result.checks} if result is not None else {}


def _scan(args, kwargs, result, exc) -> dict:
    q_grid = kwargs["q_grid"] if "q_grid" in kwargs else args[2]
    return {"q": len(q_grid), "violations": len(result) if result is not None else 0}


def _slopes(args, kwargs, result, exc) -> dict:
    return {"slopes": len(result)} if result is not None else {}


def _points(args, kwargs, result, exc) -> dict:
    return {"points": len(result)} if result is not None else {}


def _solve(args, kwargs, result, exc) -> dict:
    if result is not None:
        return {"solves": 1, "converged": int(result.converged), "iterations": result.iterations}
    return {"solves": 1, "converged": 0, "iterations": getattr(exc, "iterations", 0)}


def _report(args, kwargs, result, exc) -> dict:
    """Report size less its provenance timestamp, whose length can vary."""
    path, doc = args[0], args[1]
    return {"bytes": os.path.getsize(path) - len(doc.get("provenance", {}).get("timestamp", ""))}


# (module, attribute, span name, count extractor). Span names are the
# per-layer metric prefixes; the module is where the pipeline looks it up.
PATCHES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("tsvar.cli", "load_problem", "problemfile.load", None),
    ("tsvar.problemfile", "scale_from_spec", "timescale.build", _points),
    ("tsvar.cli", "solve_el_discrete", "variational.solve", _solve),
    ("tsvar.cli", "classify_candidate", "weierstrass.classify", None),
    ("tsvar.weierstrass", "el_residual", "variational.el_residual", None),
    ("tsvar.weierstrass", "observed_slopes", "weierstrass.q_grid", _slopes),
    ("tsvar.weierstrass", "default_q_grid", "weierstrass.q_grid", None),
    ("tsvar.weierstrass", "check_convexity_condition", "weierstrass.convexity", _checks),
    ("tsvar.weierstrass", "weierstrass_scan", "weierstrass.scan", _scan),
    ("tsvar.cli", "functional", "variational.functional", None),
    ("tsvar.cli", "norm_strong", "calculus.norm_strong", None),
    ("tsvar.cli", "norm_weak", "calculus.norm_weak", None),
    ("tsvar.cli", "build_run_report", "problemfile.report", None),
    ("tsvar.cli", "write_report", "problemfile.report", _report),
)
ROOT = "cli"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name: str, op: int, parent: Optional[int]):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.counts: Optional[dict] = None


class Tracer:
    """Collects spans in memory; one root span per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.loaded = None  # LoadedProblem returned inside the current op
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, self.op, self._stack[-1] if self._stack else None))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = perf_counter()
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        return span

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span = self._close(idx)
                if count is not None:
                    span.counts = count(args, kwargs, result, exc)
                if name == "problemfile.load":
                    self.loaded = result

        return traced

    @contextmanager
    def patched(self):
        """Install the span wrappers; restore the originals on exit."""
        saved = []
        self.missing = []
        try:
            for module, attr, name, count in PATCHES:
                mod = sys.modules.get(module)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, count))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def op_span(self):
        """Root span of one op; children are the wrapped public calls."""
        self.op += 1
        self.loaded = None
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._stack.clear()

    def self_times(self) -> list[float]:
        """Seconds per span: its duration minus its children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
