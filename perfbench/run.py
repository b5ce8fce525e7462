"""Serving-simulator benchmark: host speed, set-up time and memory per workload.

    python3 perfbench/run.py --workload closed_decode --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One run measures one workload (see ``workloads.py`` and README.md).  The
seed expands to the workload's input sets (one simulation seed each); the
timed window runs cycles that simulate each of them once.

* ``--trace 0`` reports the end-to-end metrics, all with tracing off:
  ``stages_per_s`` (median over the window's cycles, scaled to a
  reference host speed), ``setup_s`` (median over fresh-interpreter
  set-ups) and ``peak_mem_mb`` (median tracemalloc peak of
  ``MEM_INPUT_SETS`` simulations, each in its own process);
* ``--trace 1`` reports the per-layer metrics of ``layertrace.py``: counts
  from the traced reference simulations, host times as medians over
  traced cycles, and ``trace.overhead`` from traced and untraced cycles
  alternated through the same window.

Every simulation is checked: its simulated summary must equal its input
set's reference simulation bit for bit (traced or not), and the committed
summaries for the seeds in ``expected.json``.  The reference simulations
open every run; they are traced and also checked for request conservation
and for the mechanisms the workload exists to exercise.  A failed check
or an exception counts that simulation as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

import os

# Simulations are single-threaded; pin numeric libraries to one thread
# (at most the host's core count) before numpy is imported here or in
# any child process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("closed_decode", "open_fleet", "session_kv")

#: Calibration-kernel speed (iterations/s) that ``stages_per_s`` is scaled
#: to: roughly the kernel's speed on the 2-vCPU Xeon host the benchmark
#: was defined on.  It only sets the scale; comparisons never depend on it.
REFERENCE_CALIBRATION = 30_000.0

#: Input sets whose peak memory is measured (each in its own process).
MEM_INPUT_SETS = 2

#: Fresh-interpreter set-ups per run (after one unmeasured one that
#: fills the bytecode cache); setup_s is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

#: Metric name -> unit, in ``BENCHMARK.json`` order (the one definition
#: of which metrics a run reports).
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
#: Per-layer counts come from the traced reference simulations (summed
#: over input sets) and repeat exactly for a seed; times are per-cycle
#: medians over the window's traced cycles.
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed window length")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibration_rate(loops: int = 1200) -> float:
    """Iterations per second of a fixed kernel independent of the simulator.

    The same mix of interpreter work and small-array numpy the simulator
    does.  Timed right after each simulation, it tracks how fast the
    host is running at that moment; on shared hosts that speed drifts by
    tens of percent over minutes, and dividing it out is what keeps
    ``stages_per_s`` steady from run to run.
    """
    counts = np.arange(1, 65, dtype=np.int64)
    sink = 0.0
    start = time.perf_counter()
    for _ in range(loops):
        floats = counts.astype(np.float64)
        values = 2.0 * floats * 1.25e9 + floats * 14336.0
        total = float(values.cumsum()[-1])
        for value in values.tolist():
            sink += value / 1.0e12
        table: dict[int, int] = {}
        for i in range(100):
            table[i % 17] = table.get(i % 17, 0) + i
        order = np.argsort(counts, kind="stable")
        sink += float(values[order].sum()) + total * 1e-30
    elapsed = time.perf_counter() - start
    if sink != sink:  # keeps `sink` live; never true
        raise RuntimeError("calibration kernel produced NaN")
    return loops / elapsed


def src_loc() -> int:
    """Lines of ``src/repro`` (context for simplicity changes; not gated)."""
    return sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )


def probe(mode: str, workload: str, seed: int) -> dict:
    """Run ``probe.py`` in a fresh interpreter and return its JSON line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe {mode} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def merge(totals: list) -> Counter:
    """Sum trace totals (``Counter.update`` keeps zero entries, ``+`` would not)."""
    out: Counter = Counter()
    for item in totals:
        out.update(item)
    return out


class Bench:
    """One run: a workload, a seed, a window, and the checks made on it."""

    def __init__(self, args: argparse.Namespace) -> None:
        import layertrace
        import workloads

        self.trace = layertrace
        self.w = workloads
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.seeds = self.workload.input_seeds(args.seed)
        self.model, self.system = workloads.build_system()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Per input seed: the reference simulation's summary text and stages.
        self.reference: dict[int, str] = {}
        self.stages: dict[int, int] = {}
        self.headline: dict | None = None
        self.last_tracer = None
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        self.expected = expected.get(args.workload, {}).get(str(args.seed))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    # ------------------------------------------------------------------
    # one simulation
    # ------------------------------------------------------------------
    def simulate(self, seed: int, traced: bool, reference: bool = False):
        """Build, run and check one simulation.

        Returns ``(stages, run seconds, trace totals or None)``, or None
        when the simulation failed a check or raised.  A reference
        simulation is traced, has its requests accounted and its
        mechanisms guarded, and sets the summary later ones must match.
        """
        w = self.w
        self.attempted += 1
        try:
            sim, limits = self.workload.build(self.model, self.system, seed)
            tracer = None
            if traced:
                tracer = self.trace.Tracer()
                tracer.attach(sim, w.is_cluster(sim))
            if reference:
                taken = w.capture_requests(sim)
                initial = w.warm_start_tokens(self.workload, self.model, self.system, seed)
            gc.collect()
            start = time.perf_counter()
            report = sim.run(limits)
            elapsed = time.perf_counter() - start
            stages = w.total_stages(sim)
            text = w.canonical(w.summary(sim, report))
            errors: list[str] = []
            totals = None
            if tracer is not None:
                fleet = report.fleet if w.is_cluster(sim) else report
                totals = tracer.totals(stages, fleet.prefix)
                self.last_tracer = tracer
            if reference:
                self.reference[seed] = text
                self.stages[seed] = stages
                if self.headline is None:
                    self.headline = w.headline(sim, report)
                errors += w.check_accounting(sim, report, taken, initial)
                counts = self.trace.layer_metrics(totals)["counts"]
                errors += w.check_mechanisms(self.args.workload, sim, report, counts)
                if self.expected is not None:
                    expected = self.expected[self.seeds.index(seed)]
                    if text != w.canonical(expected):
                        errors.append(f"seed {seed}: summary differs from the committed expected.json")
            elif text != self.reference.get(seed):
                kind = "traced" if traced else "untraced"
                errors.append(f"seed {seed}: {kind} summary differs from the reference simulation")
        except Exception:  # a crashing simulation is a failed attempt
            self.fail(traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc(file=sys.stderr)
            return None
        if errors:
            for error in errors:
                print(f"check failed: {error}", file=sys.stderr)
            self.fail("; ".join(errors))
            return None
        return stages, elapsed, totals

    # ------------------------------------------------------------------
    # one cycle: every input set once
    # ------------------------------------------------------------------
    def cycle(self, traced: bool):
        """Simulate every input set once, each followed by a calibration.

        Returns ``(rate at reference speed, raw rate, host speed, trace
        totals or None)``, or None when any simulation of the cycle failed.
        """
        stages = 0
        raw_s = 0.0
        scaled_s = 0.0
        speeds = []
        totals = []
        for seed in self.seeds:
            outcome = self.simulate(seed, traced)
            speed = calibration_rate() / REFERENCE_CALIBRATION
            if outcome is None:
                return None
            speeds.append(speed)
            stages += outcome[0]
            raw_s += outcome[1]
            scaled_s += outcome[1] * speed
            totals.append(outcome[2])
        merged = merge(totals) if traced else None
        return stages / scaled_s, stages / raw_s, statistics.median(speeds), merged

    # ------------------------------------------------------------------
    def run(self) -> dict:
        args = self.args
        trace = self.trace
        metrics: dict[str, dict] = {}
        if args.trace == 0:
            probe("setup", args.workload, self.seeds[0])  # fills the bytecode cache
            setups = [
                probe("setup", args.workload, self.seeds[0])["setup_s"] for _ in range(SETUP_PROBES)
            ]
            mems = {seed: probe("mem", args.workload, seed) for seed in self.seeds[:MEM_INPUT_SETS]}
        # References: traced, accounted and guarded (untimed); they also
        # warm every lazy cache before the window opens.
        reference_totals = []
        for seed in self.seeds:
            outcome = self.simulate(seed, traced=True, reference=True)
            if outcome is not None:
                reference_totals.append(outcome[2])
        counts = None
        if len(reference_totals) == len(self.seeds):
            counts = trace.layer_metrics(merge(reference_totals))["counts"]
        if args.trace == 0:
            for seed, mem in mems.items():
                if seed in self.stages and mem["stages"] != self.stages[seed]:
                    self.fail(f"memory probe simulated {mem['stages']} stages, not {self.stages[seed]}")
        plan = (False,) if args.trace == 0 else (False, True)
        cycles: dict[bool, list] = {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        while True:
            for traced in plan:
                outcome = self.cycle(traced)
                if outcome is None:
                    continue
                cycles[traced].append(outcome)
                if traced and trace.layer_metrics(outcome[3])["counts"] != counts:
                    self.fail("per-layer counts of a traced cycle differ from the references")
            if time.perf_counter() >= deadline:
                break
        rates = [c[0] for c in cycles[False]] or [0.0]
        n_sims = len(cycles[False]) * len(self.seeds)
        if args.trace == 0:
            q1, median, q3 = quartiles(rates)
            rq1, rmed, rq3 = quartiles([c[1] for c in cycles[False]] or [0.0])
            speed = statistics.median([c[2] for c in cycles[False]] or [0.0])
            print(
                f"stages_per_s  median {median:,.0f} stages/s  q1 {q1:,.0f}  q3 {q3:,.0f}  "
                f"n {len(cycles[False])} cycles ({n_sims} simulations; at reference host speed)"
            )
            print(
                f"  raw         median {rmed:,.0f} stages/s  q1 {rq1:,.0f}  q3 {rq3:,.0f}  "
                f"host speed {speed:.3f} x reference"
            )
            sq1, smed, sq3 = quartiles(setups)
            print(f"setup_s       median {smed:.4f} s  q1 {sq1:.4f}  q3 {sq3:.4f}  n {len(setups)}")
            peaks = [mem["peak_mem_mb"] for mem in mems.values()]
            peak = statistics.median(peaks)
            print(
                f"peak_mem_mb   median {peak:.3f} MB  of {', '.join(f'{p:.3f}' for p in peaks)}  "
                f"n {len(peaks)} (tracemalloc, one process each)"
            )
            metrics["stages_per_s"] = {"value": median, "unit": END_TO_END["stages_per_s"]}
            metrics["setup_s"] = {"value": smed, "unit": END_TO_END["setup_s"]}
            metrics["peak_mem_mb"] = {"value": peak, "unit": END_TO_END["peak_mem_mb"]}
        else:
            traced_rates = [c[0] for c in cycles[True]] or [0.0]
            overhead = statistics.median(traced_rates) / statistics.median(rates)
            per_cycle = [trace.layer_metrics(c[3])["times"] for c in cycles[True]]
            values = dict(counts or {})
            for key in per_cycle[0] if per_cycle else ():
                values[key] = statistics.median([times[key] for times in per_cycle])
            values["trace.overhead"] = overhead
            self.print_layer_table(values, len(per_cycle))
            print(
                f"trace.overhead {overhead:.3f} (traced / untraced stages_per_s, "
                f"n {len(cycles[True])} + {len(cycles[False])} alternated cycles)"
            )
            for key, unit in PER_LAYER.items():
                if key in values:
                    metrics[key] = {"value": values[key], "unit": unit}
            if self.last_tracer is not None:
                out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                self.last_tracer.write(out)
                print(f"spans of the last traced simulation: {out.relative_to(ROOT)}")
        if self.headline is not None:
            print(
                f"simulated, input seed {self.seeds[0]} (not gated): "
                f"{json.dumps(self.headline, sort_keys=True)}"
            )
        print(f"context: src/repro lines {src_loc()}")
        for problem in self.problems:
            print(f"FAILED: {problem}")
        complete = len(metrics) == (len(END_TO_END) if args.trace == 0 else len(PER_LAYER))
        return {
            "correct": self.failed == 0 and complete,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def print_layer_table(self, values: dict, n: int) -> None:
        print(f"{'layer':<10} {'self_s':>9} {'share':>7}   (per cycle, median of {n} traced cycles)")
        for layer in self.trace.LAYERS:
            share = values.get(f"{layer}.share", 0.0)
            seconds = share * values.get("trace.total_s", 0.0)
            print(f"{layer:<10} {seconds:>9.4f} {share:>7.1%}")
        for key, unit in PER_LAYER.items():
            if key in values and not key.endswith(".share"):
                print(f"  {key:<28} {values[key]:>14.6g} {unit}")


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            print(f"== {name} --trace {traced}", flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)],
                capture_output=True,
                text=True,
                cwd=ROOT,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} --trace {traced} exited with {done.returncode}")
            sub = json.loads(lines[-1])
            result["correct"] = result["correct"] and sub["correct"]
            result["attempted"] += sub["attempted"]
            result["failed"] += sub["failed"]
            for key, value in sub["metrics"].items():
                result["metrics"][f"{name}.{key}"] = value
    return result


def main(argv=None) -> None:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else Bench(args).run()
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
