"""A fixed reference workload that tracks the speed of a shared machine.

On a VM shared with other tenants, the same Python code runs 20-60% slower
or faster from one half-minute to the next, because other tenants contend
for the cores and caches. The benchmark runs `sample()` once before every
untraced op and every warm-up op, and scales the op and set-up timings by
`speed_scale()` of the samples taken next to them. A timing then reads in
reference units: the wall time the op would have taken at the speed at
which one sample takes REFERENCE_S seconds.
The code under test never changes this workload, so a slower or faster tsvar
still moves the scaled timings by the same share.

The scale uses the mean of the samples, not their median: contention slows a
share of the short samples and leaves the rest alone, so the median jumps
between the two speeds, while the mean moves with the share, as the op
times do. Samples are capped at twice their median, so that one stall of
the VM inside a 5 ms sample does not weigh on the run as if it had lasted
through every op.

The workload mixes what a tsvar op spends its time on: a recursive
interpreter over a small expression tree, operator overloading on a small
dual-number class, numpy vector arithmetic on a dense grid, and JSON encoding
of a report-like document. It does not import tsvar.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

# seconds one sample() takes at the reference speed: about the mean on the
# 2-core VM the README's figures come from. It sets the scale of the reported
# timings, not their spread.
REFERENCE_S = 0.0045
CAP_OVER_MEDIAN = 2.0

_TREE = ("+", ("*", "r", "r"), ("+", ("*", 0.25, ("*", ("*", "r", "r"), ("*", "r", "r"))), ("sin", "x")))
_GRID = np.linspace(0.0, 1.0, 8192)


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float):
        self.v, self.d = v, d

    def __add__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v + o.v, self.d + o.d)

    def __mul__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)


def _interp(node, env: dict) -> float:
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    op = node[0]
    if op == "+":
        return _interp(node[1], env) + _interp(node[2], env)
    if op == "*":
        return _interp(node[1], env) * _interp(node[2], env)
    return math.sin(_interp(node[1], env))


def _work() -> float:
    acc = 0.0
    for i in range(300):
        acc += _interp(_TREE, {"r": i * 1e-3, "x": 0.5})
    d = _Dual(0.0, 0.0)
    for i in range(600):
        x = _Dual(i * 1e-3, 1.0)
        d = d + x * x * x
    for _ in range(6):
        acc += float(np.sum(np.sin(_GRID) * np.diff(_GRID, prepend=0.0)))
    rows = [{"t": i * 1e-3, "x": acc, "r": d.d, "ok": True} for i in range(150)]
    return acc + len(json.dumps({"rows": rows}, indent=2, sort_keys=True))


def sample() -> float:
    """Seconds one run of the reference workload takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def speed_scale(samples: list[float]) -> float:
    """Factor that turns wall time into reference time for these samples."""
    cap = CAP_OVER_MEDIAN * statistics.median(samples)
    return REFERENCE_S / statistics.fmean(min(s, cap) for s in samples)
