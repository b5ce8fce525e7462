"""Compare two ``BENCH_PERF.json`` files and gate on regressions.

Usage::

    python benchmarks/perf/compare.py BASELINE.json NEW.json \
        [--max-regression 0.20] [--raw] [--max-calibration-drift 2.0]

Prints a per-benchmark speedup table (new vs baseline) and exits non-zero
when any benchmark present in both files regresses by more than
``--max-regression`` (default 20%).  Comparison uses the
calibration-normalized values by default so differently-sized CI runners
do not read as code regressions; ``--raw`` compares raw values instead
(meaningful only on identical hardware).

The two files' ``calibration_ops_per_s`` scores are always printed and
compared: a drift beyond ``--max-calibration-drift`` (ratio in either
direction, default 2x) fails the gate, because normalized values from
machines *that* different measure the calibration loop's fidelity more
than the code under test — flag the mismatch instead of silently
normalizing it away.  Pass 0 to disable the check.

The ``src_repro_lines`` code-size record is printed baseline -> new when
either file carries it; it never fails the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def speedup(baseline: dict, fresh: dict, raw: bool) -> float:
    """New-over-baseline improvement factor (>1 = faster)."""
    key = "value" if raw else "normalized"
    old = baseline[key]
    new = fresh[key]
    if old == 0 or new == 0:
        return 1.0
    if baseline.get("lower_is_better"):
        return old / new
    return new / old


def calibration_drift(baseline: dict, fresh: dict) -> float | None:
    """New-over-baseline calibration ratio (None when either is absent)."""
    old = baseline.get("calibration_ops_per_s")
    new = fresh.get("calibration_ops_per_s")
    if not old or not new:
        return None
    return new / old


def compare(
    baseline: dict,
    fresh: dict,
    max_regression: float,
    raw: bool,
    max_calibration_drift: float = 0.0,
) -> list[str]:
    """Return the list of regression messages (empty = gate passes)."""
    failures: list[str] = []
    shared = sorted(set(baseline["benchmarks"]) & set(fresh["benchmarks"]))
    if not shared:
        return ["no benchmarks in common between the two files"]
    drift = calibration_drift(baseline, fresh)
    if drift is not None:
        print(
            f"calibration: baseline {baseline['calibration_ops_per_s']:.1f} ops/s, "
            f"new {fresh['calibration_ops_per_s']:.1f} ops/s ({drift:.2f}x)"
        )
        if max_calibration_drift > 0 and not (
            1.0 / max_calibration_drift <= drift <= max_calibration_drift
        ):
            failures.append(
                f"calibration drift {drift:.2f}x exceeds "
                f"{max_calibration_drift:.2f}x — normalized values are not "
                "comparable across machines this different"
            )
    if "src_repro_lines" in baseline or "src_repro_lines" in fresh:
        print(
            f"src/repro lines: {baseline.get('src_repro_lines', '?')} -> "
            f"{fresh.get('src_repro_lines', '?')} (ungated)"
        )
    print(f"{'benchmark':26s} {'baseline':>14s} {'new':>14s} {'speedup':>8s}")
    for name in shared:
        old = baseline["benchmarks"][name]
        new = fresh["benchmarks"][name]
        factor = speedup(old, new, raw)
        flag = ""
        if factor < 1.0 - max_regression:
            flag = "  REGRESSION"
            failures.append(
                f"{name}: {factor:.2f}x of baseline "
                f"(allowed >= {1.0 - max_regression:.2f}x)"
            )
        print(
            f"{name:26s} {old['value']:>12.2f} {old['unit']:<2s}"
            f" {new['value']:>12.2f} {new['unit']:<2s} {factor:>7.2f}x{flag}"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_PERF.json")
    parser.add_argument("fresh", type=Path, help="freshly produced BENCH_PERF.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional slowdown before failing (default 0.20)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="compare raw values instead of calibration-normalized ones",
    )
    parser.add_argument(
        "--max-calibration-drift",
        type=float,
        default=2.0,
        help="allowed calibration ratio either way before failing "
        "(default 2.0; 0 disables the check)",
    )
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures = compare(
        baseline,
        fresh,
        args.max_regression,
        args.raw,
        max_calibration_drift=args.max_calibration_drift,
    )
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
