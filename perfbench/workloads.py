"""The benchmark's three workloads: construction, simulated summary, checks.

Every workload serves Mixtral on Duplex with co-processing and expert
tensor parallelism, priced exactly (no memoized or incremental pricing).
A workload is built from a seed alone: the seed drives the request
generator and the executor's expert-gating stream, so the same seed gives
the same simulated trajectory on every host.

Importing this module imports the simulator (``src/repro`` of the
checkout this file lives in); nothing else happens at import time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no simulator sources under {SRC}")
sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    ClusterSimulator,
    ServingSimulator,
    SimulationLimits,
    WorkloadSpec,
    duplex_system,
    mixtral,
)
from repro.serving.cluster import RoundRobinRouter  # noqa: E402
from repro.serving.paging import PagingConfig, PrefixConfig  # noqa: E402
from repro.serving.request import RequestState  # noqa: E402
from repro.serving.scenarios import AgentLoopShape, agent_loop  # noqa: E402

#: Simulated work per run() call.  Sized so one call takes a few tenths
#: of a second on a 2-core x86 host: long enough that per-call overhead
#: is noise, short enough that a timed window holds tens of samples.
CLOSED_DECODE_STAGES = 30_000
OPEN_FLEET_REQUESTS = 400
SESSION_KV_REQUESTS = 600

#: A stage budget no finite-source workload reaches: those runs end when
#: the source is exhausted and every request has drained.
_UNBOUNDED = SimulationLimits(max_stages=10**9, warmup_stages=0)


def build_system():
    """The model and system every workload serves (part of set-up)."""
    model = mixtral()
    return model, duplex_system(model, co_processing=True, expert_tensor_parallel=True)


def _closed_decode(model, system, seed: int):
    spec = WorkloadSpec(lin_mean=512, lout_mean=4096, lin_cv=0.3, lout_cv=0.3)
    sim = ServingSimulator(system, model, spec, max_batch=32, seed=seed, warm_start=True)
    return sim, SimulationLimits(max_stages=CLOSED_DECODE_STAGES, warmup_stages=0)


def _open_fleet(model, system, seed: int):
    spec = WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    sim = ClusterSimulator(
        system,
        model,
        spec,
        n_replicas=4,
        router=RoundRobinRouter(),
        max_batch=8,
        seed=seed,
        memoize_pricing=False,
        max_requests=OPEN_FLEET_REQUESTS,
    )
    return sim, _UNBOUNDED


def _session_kv(model, system, seed: int):
    shape = AgentLoopShape(context_tokens=8192, observation_mean=2048, action_mean=512)
    scenario = agent_loop(shape=shape).at_qps(4.0)
    sim = ServingSimulator(
        system,
        model,
        scenario.source(seed=seed, max_requests=SESSION_KV_REQUESTS),
        max_batch=256,
        seed=seed,
        prefix=PrefixConfig(capacity_tokens=524_288),
        paging=PagingConfig(),
    )
    return sim, _UNBOUNDED


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload.

    ``input_sets``: how many simulation seeds one benchmark seed expands
    to.  The inputs of one seed can make noticeably more or less work
    than another's; spreading a run over several input sets averages
    that out within the run.
    """

    name: str
    why: str
    build: Callable
    input_sets: int

    def input_seeds(self, seed: int) -> list[int]:
        """Simulation seeds ``seed * input_sets`` to ``seed * input_sets + input_sets - 1``."""
        if seed < 0:
            raise SystemExit("--seed must be non-negative")
        return [seed * self.input_sets + i for i in range(self.input_sets)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed_decode",
            "warm closed-loop long decode at batch 32: the columnar vectorized decode "
            "path does most of the work; bypasses fleet, paging and prefix",
            _closed_decode,
            input_sets=4,
        ),
        Workload(
            "open_fleet",
            "4-replica round-robin fleet under open-loop Poisson QPS 40: arrivals cut "
            "steady runs short; the only workload that exercises the fleet layer",
            _open_fleet,
            input_sets=4,
        ),
        Workload(
            "session_kv",
            "agent-loop sessions past device KV with MIGRATE paging and a bounded "
            "radix prefix pool: per-stage prefill pricing, admission, evict and resume",
            _session_kv,
            # 600 requests take 2,800 to 4,000 stages depending on the seed
            # (a 10% coefficient of variation), against 3% on the others.
            input_sets=8,
        ),
    )
}


def is_cluster(sim) -> bool:
    return isinstance(sim, ClusterSimulator)


def total_stages(sim) -> int:
    """Simulated stages completed, summed over replicas."""
    return sum(engine.stages for engine in sim.engines)


def summary(sim, report) -> dict:
    """Every simulated statistic of one run, in a JSON-exact form.

    A change that only speeds the simulator up must leave this
    bit-identical; a modelling change may move it.
    """
    if is_cluster(sim):
        out = {
            "fleet": dataclasses.asdict(report.fleet),
            "requests_routed": list(report.requests_routed),
            "requests_rejected": report.requests_rejected,
            "replica_stages": [engine.stages for engine in sim.engines],
        }
    else:
        out = {"report": dataclasses.asdict(report), "stages": sim.engine.stages}
        if sim.prefix is not None:
            out["prefix_stats"] = dataclasses.asdict(sim.prefix.stats)
    return out


def canonical(value: dict) -> str:
    """Exact text form of a summary: floats by repr, so equal text means
    bit-equal values (and NaN compares equal to itself)."""
    return json.dumps(value, sort_keys=True)


def headline(sim, report) -> dict:
    """The simulated values printed next to the host metrics (not gated)."""
    fleet = report.fleet if is_cluster(sim) else report
    return {
        "t2ft_p50_s": fleet.t2ft_p50_s,
        "tbt_p99_s": fleet.tbt_p99_s,
        "tokens": fleet.tokens_generated,
        "j_per_token": fleet.energy_per_token_j,
        "requests_completed": fleet.requests_completed,
        "paging": dict(fleet.paging),
        "prefix": dict(fleet.prefix),
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def capture_requests(sim) -> list:
    """Record every request the workload's source hands out.

    Wraps ``take`` on the live source instance (observation only: the
    request objects are returned unchanged), so :func:`check_accounting`
    can follow each one to its final state.
    """
    source = sim.source
    taken: list = []
    take = source.take

    def recording_take(now_s):
        request = take(now_s)
        taken.append(request)
        return request

    source.take = recording_take
    return taken


def warm_start_tokens(workload: Workload, model, system, seed: int) -> dict[int, int]:
    """Tokens each warm-start request already holds when a run begins.

    Replays the simulator's own warm start on a twin built from the same
    seed (never run), so the token ledger can subtract what was emitted
    before the simulation started.
    """
    twin, _ = workload.build(model, system, seed)
    if is_cluster(twin) or not twin.warm_start:
        return {}
    synthetic = twin.scheduler.warm_start(twin.effective_batch)
    return {r.request_id: r.tokens_generated for r in synthetic}


def check_accounting(sim, report, taken: list, initial_tokens: dict[int, int]) -> list[str]:
    """Conservation laws over every request the source generated.

    Returns the violations found (empty when the run is consistent):
    generated = completed + in flight + shed + lost, where in flight is
    what the schedulers, paging coordinators and fleet inboxes still
    hold; every completed request emitted its full output; the report's
    completion and token totals equal what the requests themselves record.
    """
    errors: list[str] = []
    fleet = report.fleet if is_cluster(sim) else report
    schedulers = [engine.scheduler for engine in sim.engines]
    shed = sum(len(s.rejected) for s in schedulers)
    lost = int(fleet.faults.get("requests_lost", 0))
    finished = [r for r in taken if r.state is RequestState.FINISHED]
    # In flight: what the system still holds (batches, queues, paged out, inboxes).
    held = [r.request_id for s in schedulers for r in (*s.running, *s.waiting)]
    in_flight = len(held) + sum(s.paged_count for s in schedulers)
    if is_cluster(sim):
        in_flight += sum(len(replica.inbox) for replica in sim.replicas)
    ids = [r.request_id for r in taken]
    if len(set(ids)) != len(ids):
        errors.append("the source handed out a request id twice")
    if len(taken) != len(finished) + in_flight + shed + lost:
        errors.append(
            f"generated {len(taken)} != completed {len(finished)} + in flight "
            f"{in_flight} + shed {shed} + lost {lost}"
        )
    unfinished = {r.request_id for r in taken if r.state is not RequestState.FINISHED}
    if not set(held) <= unfinished:
        errors.append("a scheduler holds a finished request or one the source never generated")
    if is_cluster(sim) and sum(report.requests_routed) != len(taken):
        errors.append(f"routed {sum(report.requests_routed)} != generated {len(taken)}")
    short = [r.request_id for r in finished if r.tokens_generated != r.output_len]
    if short:
        errors.append(f"{len(short)} completed requests emitted != output_len tokens")
    synthetic_done = sum(1 for r in finished if r.request_id in initial_tokens)
    if fleet.requests_completed != len(finished) - synthetic_done:
        errors.append(
            f"report completed {fleet.requests_completed} != requests finished "
            f"{len(finished) - synthetic_done}"
        )
    emitted = sum(r.tokens_generated for r in taken) - sum(initial_tokens.values())
    if fleet.tokens_generated != emitted:
        errors.append(f"report tokens {fleet.tokens_generated} != tokens emitted {emitted}")
    return errors


def check_mechanisms(name: str, sim, report, counts: dict) -> list[str]:
    """Each workload must exercise what it was chosen for.

    A change that silently bypasses a mechanism fails here instead of
    reading as a speed-up.  ``counts`` are the simulation's per-layer
    counts from ``layertrace.layer_metrics``.
    """
    errors: list[str] = []
    fleet = report.fleet if is_cluster(sim) else report
    if counts["pricing.run_calls"] <= 0:
        errors.append(f"{name}: no vectorized decode run was priced (fast path disarmed)")
    if name == "closed_decode":
        if counts["engine.steady_share"] < 0.9:
            errors.append(f"closed_decode steady share {counts['engine.steady_share']:.3f} < 0.9")
        touched = [
            key
            for key in ("fleet.advance_calls", "paging.evictions", "prefix.acquire_calls")
            if counts[key]
        ]
        if touched or fleet.paging or fleet.prefix:
            errors.append(f"closed_decode touched the fleet, paging or prefix layer: {touched}")
    elif name == "open_fleet":
        routed = report.requests_routed
        if len(routed) != 4 or min(routed) == 0:
            errors.append(f"not every replica received requests: {routed}")
    elif name == "session_kv":
        if fleet.paging.get("preemptions", 0) <= 0 or counts["paging.evictions"] <= 0:
            errors.append("session_kv preempted nothing")
        if fleet.prefix.get("hit_tokens", 0) <= 0:
            errors.append("session_kv hit no prefix tokens")
        if sim.prefix.stats.evicted_tokens <= 0 or counts["prefix.pool_evict_calls"] <= 0:
            errors.append("session_kv evicted nothing from the prefix pool")
    return errors
