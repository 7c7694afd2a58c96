"""Seeded problem generators for the benchmark workloads, with numpy references.

Every generated problem carries closed forms of f, f_x and f_r and of the
trajectory and its derivative. The expected report values are computed from
those with numpy alone; this module never imports tsvar, so a report that
disagrees with it is caught independently of the code under test.

Each workload is a fixed table of slots (family, scale kind, nominal size).
The seed draws the coefficients, the exact sizes (within 2% of nominal), the
random point positions and the order of the pool, so op costs and outcomes
stay comparable between seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Tolerances of the reference checks (the ROADMAP's acceptance tolerances).
SCATTERED_RTOL = 1e-12  # mu-weighted sums on scattered points
DENSE_RTOL = 1e-6  # trapezoid quadrature and difference slopes on dense nodes
EL_RESIDUAL_MAX = 1e-10  # numpy Euler-Lagrange residual of a solve result
SCAN_TOL = 1e-9  # the CLI's default excess-scan tolerance
CONVEXITY_TOL = 1e-10  # classify_candidate's default convexity tolerance
EXIT_BY_VERDICT = {
    "consistent-with-strong-min": 0,
    "necessary-condition-violated": 3,
    "hypothesis-not-met": 4,
}

Fn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _ev(fn: Fn, t, x, r) -> np.ndarray:
    t, x, r = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float), np.asarray(r, float))
    return np.broadcast_to(np.asarray(fn(t, x, r), dtype=float), t.shape)


# -- Lagrangian families: source text plus closed forms of f, f_x, f_r ---------


@dataclass(frozen=True)
class Lagr:
    src: str
    f: Fn
    fx: Fn
    fr: Fn

    def __call__(self, t, x, r):
        return _ev(self.f, t, x, r)

    def partial_x(self, t, x, r):
        return _ev(self.fx, t, x, r)

    def partial_r(self, t, x, r):
        return _ev(self.fr, t, x, r)


def quad(a: float, b: float) -> Lagr:
    return Lagr(
        f"{a!r}*r^2 + {b!r}*x^2",
        lambda t, x, r: a * r * r + b * x * x,
        lambda t, x, r: 2 * b * x,
        lambda t, x, r: 2 * a * r,
    )


def quad_t(a: float, b: float, c: float) -> Lagr:
    return Lagr(
        f"{a!r}*r^2 + {b!r}*t*x + {c!r}*x^2",
        lambda t, x, r: a * r * r + b * t * x + c * x * x,
        lambda t, x, r: b * t + 2 * c * x,
        lambda t, x, r: 2 * a * r,
    )


def quartic(a: float, b: float, src: Optional[str] = None) -> Lagr:
    return Lagr(
        src or f"{a!r}*r^2 + r^4/4 + {b!r}*x^2",
        lambda t, x, r: a * r * r + r**4 / 4 + b * x * x,
        lambda t, x, r: 2 * b * x,
        lambda t, x, r: 2 * a * r + r**3,
    )


def root(c: float, b: float, src: Optional[str] = None) -> Lagr:
    return Lagr(
        src or f"sqrt(r^2 + {c!r}) + {b!r}*x^2",
        lambda t, x, r: np.sqrt(r * r + c) + b * x * x,
        lambda t, x, r: 2 * b * x,
        lambda t, x, r: r / np.sqrt(r * r + c),
    )


def double_well(a: float, b: float) -> Lagr:
    """Not convex in r: the convexity check fails at its first sample."""
    return Lagr(
        f"{a!r}*r^2 - r^4" + (f" + {b!r}*x^2" if b else ""),
        lambda t, x, r: a * r * r - r**4 + b * x * x,
        lambda t, x, r: 2 * b * x,
        lambda t, x, r: 2 * a * r - 4 * r**3,
    )


def trig(a: float) -> Lagr:
    return Lagr(
        f"sin(r) + cos(x) + {a!r}*t*x",
        lambda t, x, r: np.sin(r) + np.cos(x) + a * t * x,
        lambda t, x, r: -np.sin(x) + a * t,
        lambda t, x, r: np.cos(r),
    )


def expo(b: float) -> Lagr:
    return Lagr(
        f"exp(r/3) + {b!r}*x^2",
        lambda t, x, r: np.exp(r / 3) + b * x * x,
        lambda t, x, r: 2 * b * x,
        lambda t, x, r: np.exp(r / 3) / 3,
    )


# The ROADMAP's solver texts, verbatim; every window built from them has a solution.
QUARTIC_EXACT = quartic(1.0, 1.0, src="r^2 + r^4/4 + x^2")
ROOT_EXACT = root(1.0, 0.5, src="sqrt(r^2+1) + x^2/2")
SIN_ITEM3 = Lagr(
    "r^2 + r^4/4 + sin(x)",
    lambda t, x, r: r * r + r**4 / 4 + np.sin(x),
    lambda t, x, r: np.cos(x),
    lambda t, x, r: 2 * r + r**3,
)


# -- trajectories: source text plus closed forms of x and x' --------------------


@dataclass(frozen=True)
class Traj:
    src: str
    x: Callable[[np.ndarray], np.ndarray]
    dx: Callable[[np.ndarray], np.ndarray]


ZERO = Traj("0", lambda t: 0.0 * t, lambda t: 0.0 * t)


def sine(c: float, k: float) -> Traj:
    return Traj(f"{c!r}*sin({k!r}*t)", lambda t: c * np.sin(k * t), lambda t: c * k * np.cos(k * t))


def bump(c: float) -> Traj:
    return Traj(f"{c!r}*t*(1 - t)", lambda t: c * t * (1 - t), lambda t: c * (1 - 2 * t))


def poly(c: float, d: float) -> Traj:
    return Traj(f"{c!r}*t^2 + {d!r}*t", lambda t: c * t * t + d * t, lambda t: 2 * c * t + d)


def growth(c: float) -> Traj:
    return Traj(f"{c!r}*exp(t/2)", lambda t: c * np.exp(t / 2), lambda t: c / 2 * np.exp(t / 2))


# -- scales: problem-file spec plus the representative points tsvar builds ------


def harmonic_spec(n: int) -> tuple[dict, np.ndarray]:
    return {"kind": "harmonic", "n_max": n}, np.concatenate(([0.0], 1.0 / np.arange(n, 0, -1, dtype=float)))


def geometric_spec(lo: float, ratio: float, k: int) -> tuple[dict, np.ndarray]:
    hi = lo * ratio**k
    pts = lo * ratio ** np.arange(k + 1, dtype=float)
    pts[-1] = hi
    return {"kind": "geometric", "min": lo, "max": hi, "ratio": ratio}, pts


def uniform_spec(start: float, step: float, k: int) -> tuple[dict, np.ndarray]:
    end = start + k * step
    return {"kind": "uniform", "start": start, "end": end, "step": step}, np.linspace(start, end, k + 1)


def points_spec(values: np.ndarray) -> tuple[dict, np.ndarray]:
    vals = [float(v) for v in values]
    return {"kind": "points", "values": vals}, np.array(vals)


def dense_spec(lo: float, hi: float, resolution: int) -> tuple[dict, np.ndarray]:
    return {"kind": "dense", "lo": lo, "hi": hi, "resolution": resolution}, np.linspace(lo, hi, resolution + 1)


def merge_points(parts: list[np.ndarray]) -> np.ndarray:
    pts = np.sort(np.concatenate(parts))
    return pts[np.concatenate(([True], np.diff(pts) > 1e-12))]


# -- problems --------------------------------------------------------------------


@dataclass
class Problem:
    """One generated problem file, its command and what its report must say."""

    name: str
    command: str
    doc: dict
    lagr: Lagr
    samples: np.ndarray  # (t, x, r) rows the op itself evaluates f at
    expect: dict = field(default_factory=dict)
    path: str = ""

    def write(self, directory: str) -> None:
        self.path = os.path.join(directory, self.name + ".json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)


def _pick_rows(rows: np.ndarray, count: int = 32) -> np.ndarray:
    idx = np.unique(np.linspace(0, len(rows) - 1, min(count, len(rows))).astype(int))
    return rows[idx]


def _jitter(rng: np.random.Generator, nominal: int) -> int:
    return int(round(nominal * rng.uniform(0.98, 1.02)))


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _scattered_terms(lagr: Lagr, pts: np.ndarray, xv: np.ndarray) -> np.ndarray:
    mu = np.diff(pts)
    return mu * lagr(pts[:-1], xv[1:], np.diff(xv) / mu)


# analyze-harmonic ----------------------------------------------------------------

# (convex in r, fixed q grid, scale kind, nominal size, candidate, family)
ANALYZE_SLOTS = (
    (True, True, "harmonic", 150, "smooth", "quad"),
    (True, True, "harmonic", 65, "zero", "root"),
    (True, True, "geometric", 55, "smooth", "quartic"),
    (True, False, "harmonic", 125, "zero", "quad_t"),
    (True, False, "harmonic", 70, "smooth", "quad"),
    (True, False, "geometric", 50, "smooth", "root"),
    (False, True, "harmonic", 250, "zero", "well"),
    (False, True, "harmonic", 130, "smooth", "well"),
    (False, True, "geometric", 100, "zero", "well_x"),
    (False, False, "harmonic", 80, "smooth", "well_x"),
    (False, False, "harmonic", 65, "zero", "well"),
    (False, False, "geometric", 60, "smooth", "well"),
)


def _analyze_family(rng, family: str) -> Lagr:
    if family == "quad":
        return quad(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0))
    if family == "quad_t":
        return quad_t(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0), _coef(rng, 0.1, 1.0))
    if family == "quartic":
        return quartic(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0))
    if family == "root":
        return root(_coef(rng, 0.5, 2.0), _coef(rng, 0.1, 1.0))
    if family == "well":
        return double_well(_coef(rng, 0.9, 1.1), 0.0)
    return double_well(_coef(rng, 0.9, 1.1), _coef(rng, 0.1, 1.0))


def _default_q_grid(slopes: np.ndarray) -> np.ndarray:
    """The documented default: slopes +- 5 std on 41 points, plus every slope."""
    spread = float(np.std(slopes))
    if spread < 1e-9:
        spread = 1.0
    grid = np.linspace(slopes.min() - 5 * spread, slopes.max() + 5 * spread, 41)
    return np.union1d(grid, slopes)


def _convexity_violated(lagr: Lagr, t: np.ndarray, xs: np.ndarray, slopes: np.ndarray) -> bool:
    """Sampled midpoint convexity in r at every right-scattered kappa point."""
    lo, hi = float(xs.min()), float(xs.max())
    xsamp = np.array([lo - 1.0, lo, lo + 1.0]) if hi - lo < 1e-9 else np.linspace(lo, hi, 3)
    rsamp = np.union1d([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], [slopes.min(), slopes.max()])
    g = np.array([0.25, 0.5, 0.75])[None, None, None, None, :]
    T = t[:, None, None, None, None]
    X = xsamp[None, :, None, None, None]
    r1 = rsamp[None, None, :, None, None]
    r2 = rsamp[None, None, None, :, None]
    lhs = lagr(T, X, g * r1 + (1 - g) * r2)
    rhs = g * lagr(T, X, r1) + (1 - g) * lagr(T, X, r2)
    gap = lhs - rhs - CONVEXITY_TOL
    margin = 1e-12 * (np.abs(lhs) + np.abs(rhs) + 1.0)
    distinct = np.broadcast_to(r1 != r2, gap.shape)
    if np.any((gap > margin) & distinct):
        return True
    if np.all((gap < -margin) | ~distinct):
        return False
    raise ValueError(f"convexity reference is ambiguous for {lagr.src!r}")


def make_analyze(rng: np.random.Generator, tiny: bool = False) -> list[Problem]:
    problems = []
    for slot, (convex, fixed, kind, nominal, cand, family) in enumerate(ANALYZE_SLOTS):
        size = max(8, nominal // 10) if tiny else _jitter(rng, nominal)
        lagr = _analyze_family(rng, family)
        if cand == "zero":
            traj = ZERO
        elif kind == "geometric":
            traj = sine(_coef(rng, 0.02, 0.05), _coef(rng, 0.5, 1.5))
        elif convex:
            traj = sine(_coef(rng, 0.05, 0.15), _coef(rng, 2.0, 4.0))
        else:
            traj = bump(_coef(rng, 1.8, 2.2))
        if kind == "harmonic":
            spec, pts = harmonic_spec(size)
        else:
            spec, pts = geometric_spec(1.0, round(1.0 + float(rng.uniform(0.015, 0.025)), 4), size)
        doc = {
            "scale": spec,
            "t0": float(pts[0]),
            "t1": float(pts[-1]),
            "lagrangian": lagr.src,
            "alpha": 0.0,
            "beta": 0.0,
            "trajectory": {"kind": "expr", "formula": traj.src},
        }
        if fixed:
            doc["scan"] = {"q_min": -2.5, "q_max": 2.5, "q_count": 41, "tol": SCAN_TOL}
        xv = traj.x(pts)
        mu = np.diff(pts)
        t, xs, slopes = pts[:-1], xv[1:], np.diff(xv) / mu
        terms = _scattered_terms(lagr, pts, xv)
        q = np.linspace(-2.5, 2.5, 41) if fixed else _default_q_grid(slopes)
        Q = q[None, :]
        fq = lagr(t[:, None], xs[:, None], Q)
        fs = lagr(t, xs, slopes)[:, None]
        frs = lagr.partial_r(t, xs, slopes)[:, None]
        E = fq - fs - (Q - slopes[:, None]) * frs
        margin = 1e-12 * (np.abs(fq) + np.abs(fs) + np.abs(Q - slopes[:, None]) * np.abs(frs) + 1.0)
        v_lo = int(np.count_nonzero(E < -SCAN_TOL - margin))
        v_hi = int(np.count_nonzero(E < -SCAN_TOL + margin))
        if _convexity_violated(lagr, t, xs, slopes):
            exits = {4}
        else:
            exits = ({3} if v_hi > 0 else set()) | ({0} if v_lo == 0 else set())
        name = f"a{slot:02d}-{'convex' if convex else 'nonconvex'}-{'fixedq' if fixed else 'defaultq'}-{kind}{size}"
        problems.append(
            Problem(
                name,
                "analyze",
                doc,
                lagr,
                _pick_rows(np.column_stack([t, xs, slopes])),
                expect={
                    "functional": float(terms.sum()),
                    "functional_scale": float(np.abs(terms).sum()),
                    "violations": (v_lo, v_hi),
                    "exits": exits,
                },
            )
        )
    return problems


def check_analyze(p: Problem, rc: int, report: dict) -> Optional[str]:
    e = p.expect
    if rc not in e["exits"]:
        return f"exit {rc}, expected one of {sorted(e['exits'])}"
    if EXIT_BY_VERDICT.get(report.get("verdict")) != rc:
        return f"verdict {report.get('verdict')!r} does not match exit {rc}"
    n = len(report["weierstrass_violations"])
    lo, hi = e["violations"]
    if not lo <= n <= hi:
        return f"{n} violations, numpy excess gives {lo}..{hi}"
    return _close("functional_value", report["functional_value"], e["functional"], SCATTERED_RTOL * max(e["functional_scale"], 1e-300))


def _close(label: str, got, want: float, atol: float) -> Optional[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= atol:
        return f"{label} {got!r}, reference {want!r} (tolerance {atol:.3g})"
    return None


# solve-discrete -------------------------------------------------------------------

# (window kind, nominal unknowns, family); see make_solve for the fixed cases
SOLVE_SLOTS = (
    ("uniform", 40, "quad"),
    ("points", 55, "quad"),
    ("uniform", 70, "quad_t"),
    ("points", 80, "quad_t"),
    ("uniform", 20, "quartic"),
    ("points", 30, "quartic"),
    ("uniform", 40, "root"),
    ("points", 45, "root"),
    ("unit", 60, "quartic_exact"),
    ("unit", 70, "root_exact"),
    ("unit", 20, "sin_item3"),
    ("unit", 30, "sin_item3"),
)
# each slot twice, with its own draws, so that one seed's coefficients and
# point windows move the pool's latency distribution less
SOLVE_COPIES = 2


def _solve_family(rng, family: str) -> Lagr:
    if family == "quad":
        return quad(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0))
    if family == "quad_t":
        return quad_t(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0), _coef(rng, 0.1, 1.0))
    if family == "quartic":
        return quartic(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0))
    if family == "root":
        return root(_coef(rng, 0.5, 2.0), _coef(rng, 0.1, 1.0))
    return {"quartic_exact": QUARTIC_EXACT, "root_exact": ROOT_EXACT, "sin_item3": SIN_ITEM3}[family]


def make_solve(rng: np.random.Generator, tiny: bool = False) -> list[Problem]:
    """Discrete EL solves; the 'unit' slots are the ROADMAP's solver cases.

    Those use the window [0, n] with step 1, alpha = 0 and beta = 1, where the
    seed commit fails: SingularJacobian for the exact quartic and square-root
    texts at n >= 50, and NonConvergence for the sin(x) text at n = 20. The
    sin(x) sizes are fixed because the stalled Newton iteration's outcome
    changes erratically with n and the boundary values; the others draw their
    size from the seed.
    """
    problems = []
    for slot, (kind, nominal, family) in enumerate(SOLVE_SLOTS * SOLVE_COPIES):
        lagr = _solve_family(rng, family)
        if kind == "unit":
            n = nominal if family == "sin_item3" else _jitter(rng, nominal)
            n = max(4, n // 4) if tiny else n
            spec, pts = uniform_spec(0.0, 1.0, n)
            alpha, beta = 0.0, 1.0
        else:
            n = max(4, nominal // 5) if tiny else _jitter(rng, nominal)
            if kind == "uniform":
                spec, pts = uniform_spec(_coef(rng, -1.0, 1.0), float(rng.choice([0.25, 0.5, 1.0])), n + 1)
            else:
                spec, pts = points_spec(np.cumsum(np.concatenate(([_coef(rng, -1.0, 1.0)], rng.uniform(0.5, 1.5, n + 1)))))
            alpha, beta = _coef(rng, 0.3, 1.5), _coef(rng, 0.3, 1.5)
        doc = {
            "scale": spec,
            "t0": float(pts[0]),
            "t1": float(pts[-1]),
            "lagrangian": lagr.src,
            "alpha": alpha,
            "beta": beta,
        }
        lin = alpha + (beta - alpha) * (pts - pts[0]) / (pts[-1] - pts[0])
        mu = np.diff(pts)
        rows = np.column_stack([pts[:-1], lin[1:], np.diff(lin) / mu])
        name = f"s{slot:02d}-{family}-{kind}{len(pts) - 2}"
        problems.append(
            Problem(name, "solve", doc, lagr, _pick_rows(rows), expect={"points": pts, "alpha": alpha, "beta": beta})
        )
    return problems


def el_residual_max(lagr: Lagr, pts: np.ndarray, xv: np.ndarray) -> float:
    mu = np.diff(pts)
    s = np.diff(xv) / mu
    fr = lagr.partial_r(pts[:-1], xv[1:], s)
    fx = lagr.partial_x(pts[:-1], xv[1:], s)
    return float(np.max(np.abs((fr[1:] - fr[:-1]) / mu[:-1] - fx[:-1])))


def check_solve(p: Problem, rc: int, report: dict) -> Optional[str]:
    e = p.expect
    if rc != 0:
        return f"exit {rc}"
    traj = report["trajectory"]
    pts, xv = np.array(traj["points"], dtype=float), np.array(traj["values"], dtype=float)
    if pts.shape != e["points"].shape or np.max(np.abs(pts - e["points"])) > 1e-12:
        return "solution points differ from the generated window"
    if xv[0] != e["alpha"] or xv[-1] != e["beta"]:
        return f"boundary values {xv[0]!r}, {xv[-1]!r}; expected {e['alpha']!r}, {e['beta']!r}"
    res = el_residual_max(p.lagr, pts, xv)
    if not res <= EL_RESIDUAL_MAX:
        return f"numpy EL residual {res:.3e} exceeds {EL_RESIDUAL_MAX:g}"
    terms = _scattered_terms(p.lagr, pts, xv)
    return _close("functional_value", report["functional_value"], float(terms.sum()), SCATTERED_RTOL * max(float(np.abs(terms).sum()), 1e-300))


# eval-dense --------------------------------------------------------------------------

# (scale kind, nominal dense resolution, family, trajectory)
EVAL_SLOTS = (
    ("dense", 10000, "quad_t", "sine"),
    ("dense+uniform", 10000, "root", "poly"),
    ("dense+harmonic", 12000, "trig", "growth"),
    ("dense", 14000, "expo", "bump"),
    ("dense+uniform", 16000, "quad_t", "growth"),
    ("dense+harmonic", 20000, "root", "sine"),
    ("dense", 25000, "trig", "poly"),
    ("dense+uniform", 40000, "expo", "sine"),
)


def _eval_family(rng, family: str) -> Lagr:
    if family == "quad_t":
        return quad_t(_coef(rng, 0.5, 1.5), _coef(rng, 0.1, 1.0), _coef(rng, 0.1, 1.0))
    if family == "root":
        return root(_coef(rng, 0.5, 2.0), _coef(rng, 0.1, 1.0))
    if family == "trig":
        return trig(_coef(rng, 0.1, 1.0))
    return expo(_coef(rng, 0.1, 1.0))


def _eval_traj(rng, kind: str) -> Traj:
    if kind == "sine":
        return sine(_coef(rng, 0.5, 1.5), _coef(rng, 1.0, 3.0))
    if kind == "poly":
        return poly(_coef(rng, -1.0, 1.0), _coef(rng, -1.0, 1.0))
    if kind == "growth":
        return growth(_coef(rng, 0.5, 1.5))
    return bump(_coef(rng, 0.5, 2.0))


def _gauss_integral(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, panels: int = 64) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2
    t = (edges[:-1, None] + edges[1:, None]) / 2 + half * nodes[None, :]
    return float(np.sum(half * weights[None, :] * fn(t)))


def make_eval(rng: np.random.Generator, tiny: bool = False) -> list[Problem]:
    problems = []
    for slot, (kind, nominal, family, tkind) in enumerate(EVAL_SLOTS):
        res = 5000 if tiny else _jitter(rng, nominal)
        lagr = _eval_family(rng, family)
        traj = _eval_traj(rng, tkind)
        width = _coef(rng, 1.0, 2.0)
        if kind == "dense":
            lo = _coef(rng, -0.5, 0.5)
            specs = [dense_spec(lo, lo + width, res)]
        elif kind == "dense+uniform":
            step = float(rng.choice([0.1, 0.25]))
            specs = [dense_spec(0.0, width, res), uniform_spec(width, step, int(rng.integers(8, 21)))]
        else:
            specs = [harmonic_spec(int(rng.integers(40, 61))), dense_spec(1.0, 1.0 + width, res)]
        spans = [(s["lo"], s["hi"]) for s, _ in specs if s["kind"] == "dense"]
        pts = merge_points([p for _, p in specs])
        xv = traj.x(pts)
        n = len(pts)
        right_dense = np.zeros(n, dtype=bool)
        for lo_, hi_ in spans:
            right_dense |= (pts >= lo_ - 1e-12) & (pts < hi_ - 1e-12)
        scattered = ~right_dense[:-1]
        mu = np.diff(pts)
        exact = np.diff(xv) / mu
        terms = (mu * lagr(pts[:-1], xv[1:], exact))[scattered]
        dense_parts = [_gauss_integral(lambda t: lagr(t, traj.x(t), traj.dx(t)), lo_, hi_) for lo_, hi_ in spans]
        # kappa drops a left-scattered maximum; sigma moves right-scattered nodes
        kappa = n if right_dense[-2] else n - 1
        sig = np.arange(kappa) + np.append(scattered, False)[:kappa]
        strong = float(np.max(np.abs(xv[sig])))
        slopes = np.where(np.append(scattered, False), np.append(exact, 0.0), traj.dx(pts))[:kappa]
        doc = {
            "scale": [s for s, _ in specs],
            "t0": float(pts[0]),
            "t1": float(pts[-1]),
            "lagrangian": lagr.src,
            "alpha": float(xv[0]),
            "beta": float(xv[-1]),
            "trajectory": {"kind": "expr", "formula": traj.src},
        }
        rows = np.column_stack([pts, xv, traj.dx(pts)])
        name = f"e{slot:02d}-{kind.replace('+', '-')}-r{res}"
        problems.append(
            Problem(
                name,
                "eval",
                doc,
                lagr,
                _pick_rows(rows),
                expect={
                    "functional": float(terms.sum()) + sum(dense_parts),
                    "functional_scale": float(np.abs(terms).sum()) + sum(abs(d) for d in dense_parts),
                    "norm_strong": strong,
                    "norm_weak": strong + float(np.max(np.abs(slopes))),
                },
            )
        )
    return problems


def check_eval(p: Problem, rc: int, report: dict) -> Optional[str]:
    e = p.expect
    if rc != 0:
        return f"exit {rc}"
    return (
        _close("functional_value", report["functional_value"], e["functional"], DENSE_RTOL * max(e["functional_scale"], 1e-300))
        or _close("norm_strong", report["norm_strong"], e["norm_strong"], SCATTERED_RTOL * max(e["norm_strong"], 1.0))
        or _close("norm_weak", report["norm_weak"], e["norm_weak"], DENSE_RTOL * max(e["norm_weak"], 1.0))
    )


WORKLOADS = {
    "analyze-harmonic": (make_analyze, check_analyze),
    "solve-discrete": (make_solve, check_solve),
    "eval-dense": (make_eval, check_eval),
}
