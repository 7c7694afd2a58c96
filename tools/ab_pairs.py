#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarized per end-to-end metric.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W [--seed N] [--pairs K] [--seconds S]

Each pair runs `python3 bench/run.py --workload W --seed N --seconds S`
once in each tree, from that tree's root, so each side builds and checks
what it runs from its own source. The parent runs first in even-numbered
pairs (0, 2, ...) and the change first in odd ones. Each pair is printed as
it completes; then, for every end-to-end metric of BENCHMARK.json, each
side's median and quartiles, how many pairs the change won (ties count for
neither side), the median delta, the parent's interquartile range, and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and its median is better by more than the parent's interquartile
range. The last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """Each end-to-end metric's name and its better direction, "lower" or "higher"."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse_result(stdout: str) -> dict[str, float]:
    """The metric values of bench/run.py's result, the last line of its stdout.

    Raises ValueError when there is no result line or the run's checks failed.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed no result line")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"bench/run.py reported incorrect results: {lines[-1]}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return parse_result(done.stdout)
    except ValueError as e:
        raise SystemExit(f"{tree}: {e}\n{done.stderr}") from None


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict[str, dict[str, float]]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and ties, and the claim rule."""
    summary = {}
    for name, direction in better.items():
        if not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        sign = -1.0 if direction == "lower" else 1.0  # positive: the change is better
        gains = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        row = {}
        for side in SIDES:
            values = [pair[side][name] for pair in pairs]
            q1, q3 = _quartiles(values)
            row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}
        wins = sum(g > 0.0 for g in gains)
        delta = row["change"]["median"] - row["parent"]["median"]
        iqr = row["parent"]["q3"] - row["parent"]["q1"]
        row.update(
            change_wins=wins,
            ties=sum(g == 0.0 for g in gains),
            pairs=len(pairs),
            median_delta=delta,
            parent_iqr=iqr,
            claim_holds=wins >= 0.9 * len(pairs) and sign * delta > iqr,
        )
        summary[name] = row
    return summary


def summary_lines(summary: dict) -> list[str]:
    lines = []
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        lines.append(
            f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  change won {row['change_wins']}/{row['pairs']} (ties {row['ties']})"
            f"  delta {row['median_delta']:+.6g}, parent IQR {row['parent_iqr']:.6g}"
            f"  claim {'holds' if row['claim_holds'] else 'does not hold'}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    better = end_to_end_metrics()
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: run_side(trees[side], args.workload, args.seed, args.seconds) for side in order}
        pairs.append(pair)
        values = "  ".join(f"{n} {pair['parent'][n]:.6g} -> {pair['change'][n]:.6g}" for n in better if n in pair["parent"])
        print(f"pair {k} ({order[0]} first): {values}", flush=True)
    summary = summarize(pairs, better)
    for line in summary_lines(summary):
        print(line)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": pairs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
