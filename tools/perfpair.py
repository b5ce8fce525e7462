"""Paired A/B runs of ``perfbench/run.py``: a parent checkout against a change.

Host speed drifts over minutes, so two benchmark runs taken far apart do
not compare.  This tool alternates the two checkouts, one
``perfbench/run.py`` process each, and judges a speed claim the way the
metrics guide asks: the change must win at least 9 of every 10 pairs,
and its median must beat the parent's by more than the parent's
inter-quartile range (IQR).

Run from the change's checkout (the repository root)::

    git worktree add --detach ../parent HEAD~1
    python -m tools.perfpair --parent ../parent --workload session_kv --pairs 10

or ``make perfpair PARENT=../parent WORKLOAD=session_kv``.  Each pair runs
the parent first on odd pairs and the change first on even ones, so a
steady drift favours neither side.  Every run lasts the benchmark's own
``run_seconds`` (``BENCHMARK.json``), and only the end-to-end metrics of
an untraced run (``--trace 0``) are compared; a run that is not
``correct`` or has failures aborts the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name -> "higher" or "lower" (is better).
DIRECTIONS = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method (exact for n >= 2)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_once(checkout: Path, args: argparse.Namespace) -> dict[str, float]:
    """One untraced benchmark process; its end-to-end metric values."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfpair: {checkout} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"perfpair: {checkout} reported correct={result['correct']} "
                         f"failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(name: str, better: str, parent: list[float], change: list[float]) -> dict:
    """Quartiles of both sides, pair wins, and whether a gain is claimable."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change, strict=True) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - pmed)
    return {
        "metric": name,
        "better": better,
        "parent": {"q1": pq1, "median": pmed, "q3": pq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": pq3 - pq1,
        "median_gain": gain,
        "relative_gain": gain / abs(pmed) if pmed else 0.0,
        # At least 9 wins in every 10 pairs, and a median gain beyond the
        # parent's own spread.
        "claimable": wins * 10 >= 9 * len(parent) and gain > pq3 - pq1,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--workload", default="session_kv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": ROOT}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(checkouts[side], args))
        line = "  ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in DIRECTIONS
        )
        print(f"pair {pair + 1}/{args.pairs}: {line}", flush=True)
    summaries = [
        summarize(
            name,
            direction,
            [values[name] for values in runs["parent"]],
            [values[name] for values in runs["change"]],
        )
        for name, direction in DIRECTIONS.items()
    ]
    for s in summaries:
        p, c = s["parent"], s["change"]
        print(
            f"{s['metric']:<13} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
            f"gain {s['relative_gain']:+.1%}  wins {s['wins']}/{s['pairs']}  "
            f"parent IQR {s['parent_iqr']:.6g}  claimable {s['claimable']}"
        )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "metrics": summaries},
                     sort_keys=True))


if __name__ == "__main__":
    main()
