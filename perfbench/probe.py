"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/probe.py setup <workload> <seed>
        Host seconds from the first statement of this interpreter to a
        simulator ready to run(): imports, mixtral(), duplex_system(...)
        and simulator or fleet construction (executor LUT set-up included).

    python3 perfbench/probe.py mem <workload> <seed>
        tracemalloc peak, in MB (10**6 bytes), over building and running
        one simulation.  tracemalloc slows the run several-fold, which is
        why this is never the timed run.

``run.py`` spawns these; they are separate processes because a fresh
interpreter is the only honest way to time imports, and so that the
tracemalloc hooks never touch the timed process.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


def main() -> None:
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "setup":
        import workloads

        model, system = workloads.build_system()
        workloads.WORKLOADS[name].build(model, system, seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
    elif mode == "mem":
        import workloads

        model, system = workloads.build_system()
        tracemalloc.start()
        sim, limits = workloads.WORKLOADS[name].build(model, system, seed)
        sim.run(limits)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(json.dumps({"peak_mem_mb": peak / 1e6, "stages": workloads.total_stages(sim)}))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main()
