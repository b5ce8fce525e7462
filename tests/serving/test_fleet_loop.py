"""Fleet-loop equivalence tier (``pytest -m fleet``).

The fleet advances replicas lazily: a replica in the middle of a steady
decode run is not advanced at fleet events that do not concern it (see
:meth:`~repro.serving.cluster.ManagedReplica.advance_to`).  Every test
here runs a fleet twice — once as built, once with every replica
*forced due*, i.e. advanced to every fleet event exactly as an eager loop
would — and requires the routers to have seen identical replica views
at every decision and the two :class:`~repro.serving.cluster.ClusterReport`
to be identical in every field: the pooled and per-replica reports, the
routing counts, the queue-depth and fleet time series, and the lifecycle
event log.

Forcing is a monkeypatch of the replica instances: each replica's
handle advances its data plane at every fleet event and drops the open
run right after, so the lazy skip rule never applies.

The matrix crosses every router with a fixed fleet, an elastic fleet,
faults with retries, MIGRATE paging, prefix dedup, a mixed
monolithic/split/sharded fleet and a low-QPS idle-heavy fleet (where a
replica skipped while idle would lose its idle tail).  A property test
draws random fleet shapes (crank it with ``--invariant-examples``), and a
count-based pin checks the mechanism on the ``open_fleet`` benchmark
shape.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.core.system import duplex_system  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.autoscaler import ElasticFleetSimulator, QueueDepthPolicy  # noqa: E402
from repro.serving.cluster import (  # noqa: E402
    ClusterSimulator,
    LeastOutstandingTokensRouter,
    MemoryPressureRouter,
    MonolithicReplicaSpec,
    PowerOfTwoChoicesRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    ShardedReplicaSpec,
    SplitReplicaSpec,
)
from repro.serving.faults import FaultConfig, FaultInjector, RetryPolicy  # noqa: E402
from repro.serving.generator import WorkloadSpec  # noqa: E402
from repro.serving.paging import EvictionPolicy, PagingConfig, PrefixConfig  # noqa: E402
from repro.serving.scenarios import agent_loop, long_context  # noqa: E402
from repro.serving.simulator import SimulationLimits  # noqa: E402

pytestmark = pytest.mark.fleet

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)
LIMITS = SimulationLimits(max_stages=10**9, warmup_stages=0)

ROUTERS = {
    "round-robin": RoundRobinRouter,
    "least-outstanding": LeastOutstandingTokensRouter,
    "power-of-two": lambda: PowerOfTwoChoicesRouter(seed=0),
    "memory-pressure": MemoryPressureRouter,
    "prefix-affinity": lambda: PrefixAffinityRouter(seed=0),
}


def _spec(qps: float) -> WorkloadSpec:
    return WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=qps)


def _fixed(router, seed):
    return ClusterSimulator(
        SYSTEM, MODEL, _spec(30.0), n_replicas=3, router=router, max_batch=8,
        seed=seed, memoize_pricing=False, max_requests=60,
    )


def _elastic(router, seed):
    return ElasticFleetSimulator(
        SYSTEM, MODEL, _spec(40.0),
        QueueDepthPolicy(scale_up_depth=0.5, scale_down_depth=0.1, cooldown_s=0.5),
        min_replicas=1, max_replicas=3, initial_replicas=1, control_interval_s=0.25,
        provision_delay_s=0.25, warmup_delay_s=0.25, warm_start_delay_s=0.1,
        router=router, max_batch=4, seed=seed, memoize_pricing=False, max_requests=80,
    )


def _faults(router, seed):
    config = FaultConfig(
        crash_mtbf_s=1.0, crash_mttr_s=0.3, detection_latency_s=0.05,
        straggler_mtbf_s=0.4, straggler_duration_s=0.1, straggler_factor=2.0,
        horizon_s=10.0,
    )
    return ClusterSimulator(
        SYSTEM, MODEL, _spec(30.0), n_replicas=3, router=router, max_batch=8,
        seed=seed, memoize_pricing=False, max_requests=70,
        faults=FaultInjector(config), retry=RetryPolicy(max_attempts=3, backoff_base_s=0.02),
    )


def _paging(router, seed):
    scenario = long_context(
        lin_median=49152, lout_median=512, sigma=0.8, max_factor=8.0, t2ft_slo_s=30.0
    ).at_qps(4.0)
    return ClusterSimulator(
        SYSTEM, MODEL, scenario.source(seed=seed, max_requests=60),
        n_replicas=2, router=router, max_batch=96, seed=seed, memoize_pricing=False,
        paging=PagingConfig(policy=EvictionPolicy.MIGRATE),
    )


def _prefix(router, seed):
    return ClusterSimulator(
        SYSTEM, MODEL, agent_loop(qps=4.0).source(seed=seed, max_requests=40),
        n_replicas=2, router=router, max_batch=16, seed=seed, memoize_pricing=False,
        prefix=PrefixConfig(capacity_tokens=64 * 1024),
    )


def _mixed(router, seed):
    return ClusterSimulator(
        SYSTEM, MODEL, _spec(30.0), router=router, max_batch=8, seed=seed,
        memoize_pricing=False, max_requests=60,
        replicas=(MonolithicReplicaSpec(), SplitReplicaSpec(), ShardedReplicaSpec(tp=2, ep=2)),
    )


def _idle(router, seed):
    return ClusterSimulator(
        SYSTEM, MODEL, _spec(2.0), n_replicas=3, router=router, max_batch=8,
        seed=seed, memoize_pricing=False, max_requests=24, sample_interval_s=0.5,
    )


FLEETS = {
    "fixed": _fixed,
    "elastic": _elastic,
    "faults": _faults,
    "paging": _paging,
    "prefix": _prefix,
    "mixed": _mixed,
    "idle": _idle,
}


def on_every_replica(sim, patch) -> None:
    """Apply ``patch`` to every replica handle of ``sim``, including ones
    the elastic controller provisions later."""
    for handle in sim.handles:
        patch(handle)
    provision = sim._provision

    def provision_patched(*args, **kwargs):
        handle = provision(*args, **kwargs)
        patch(handle)
        return handle

    sim._provision = provision_patched


def force_due(handle) -> None:
    """Advance the replica at every fleet event, leaving no open run: the
    eager loop, whatever the lazy skip rule says."""
    replica = handle.replica

    def advance_eagerly(t, limits):
        handle.target_s = t
        replica.advance_to(t, limits)
        replica.close_run()

    handle.advance_to = advance_eagerly


def count_run_pricing(sim) -> list[int]:
    """Count ``price_decode_run`` calls over the fleet (one-element list)."""
    counter = [0]

    def patch(handle) -> None:
        executor = getattr(handle.replica, "executor", None)
        if executor is None:  # split replicas never price vectorized runs
            return
        price = executor.price_decode_run

        def counted(*args, **kwargs):
            counter[0] += 1
            return price(*args, **kwargs)

        executor.price_decode_run = counted

    on_every_replica(sim, patch)
    return counter


def record_views(sim) -> list:
    """Record every view list the router is shown (wraps the instance)."""
    seen: list = []
    choose = sim.router.choose

    def recording(views, request):
        seen.append(tuple(views))
        return choose(views, request)

    sim.router.choose = recording
    return seen


def canonical(report) -> str:
    """Exact text form of a report (floats by repr, NaN equal to itself)."""
    return json.dumps(dataclasses.asdict(report), sort_keys=True, default=str)


def run_pair(build, router_factory, seed):
    """Run the lazy and the forced-eager fleet.

    Requires the router to have been shown identical views (queue depth,
    token counts and clock of every replica) at every decision, and
    returns both reports and both fleets' vectorized-run pricing calls.
    """
    lazy = build(router_factory(), seed)
    lazy_runs = count_run_pricing(lazy)
    lazy_views = record_views(lazy)
    lazy_report = lazy.run(LIMITS)
    eager = build(router_factory(), seed)
    eager_runs = count_run_pricing(eager)
    eager_views = record_views(eager)
    on_every_replica(eager, force_due)
    eager_report = eager.run(LIMITS)
    assert lazy_views == eager_views
    return lazy_report, eager_report, lazy_runs[0], eager_runs[0]


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_lazy_fleet_equals_forced_eager(fleet, router):
    lazy, eager, lazy_runs, eager_runs = run_pair(FLEETS[fleet], ROUTERS[router], 3)
    assert canonical(lazy) == canonical(eager)
    assert lazy.fleet.requests_completed > 0
    assert lazy_runs <= eager_runs


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_open_runs_span_fleet_events(fleet):
    """Round-robin on every shape: open runs outlive fleet events (fewer,
    longer priced runs), or the equivalence matrix would prove nothing."""
    _, _, lazy_runs, eager_runs = run_pair(FLEETS[fleet], RoundRobinRouter, 3)
    assert lazy_runs < eager_runs


def test_configurations_exercise_their_mechanisms():
    """Each fleet shape does what it is in the matrix for."""
    elastic = _elastic(RoundRobinRouter(), 3)
    report = elastic.run(LIMITS)
    assert "provisioning" in {e.state for e in report.replica_events}
    faults = _faults(RoundRobinRouter(), 3)
    report = faults.run(LIMITS)
    assert report.fleet.faults.get("crashes", 0) > 0
    assert "failed" in {e.state for e in report.replica_events}
    paging = _paging(MemoryPressureRouter(), 3).run(LIMITS)
    assert paging.fleet.paging.get("preemptions", 0) > 0
    prefix = _prefix(PrefixAffinityRouter(seed=0), 3).run(LIMITS)
    assert prefix.fleet.prefix.get("hit_tokens", 0) > 0
    mixed = _mixed(RoundRobinRouter(), 3).run(LIMITS)
    assert set(mixed.replica_kinds) == {"monolithic", "split", "sharded"}
    assert min(mixed.requests_routed) > 0


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    qps=st.sampled_from((2.0, 10.0, 30.0, 60.0)),
    n_replicas=st.integers(min_value=1, max_value=4),
    router=st.sampled_from(sorted(ROUTERS)),
    lout_mean=st.sampled_from((8, 48, 160)),
)
def test_random_fleets_equal_forced_eager(seed, qps, n_replicas, router, lout_mean):
    def build(router_instance, seed):
        spec = WorkloadSpec(
            lin_mean=256, lout_mean=lout_mean, lin_cv=0.5, lout_cv=0.5, qps=qps
        )
        return ClusterSimulator(
            SYSTEM, MODEL, spec, n_replicas=n_replicas, router=router_instance,
            max_batch=8, seed=seed, memoize_pricing=False, max_requests=30,
            sample_interval_s=0.25,
        )

    lazy, eager, _, _ = run_pair(build, ROUTERS[router], seed)
    assert canonical(lazy) == canonical(eager)


def test_open_fleet_mechanism_pin():
    """The benchmark's ``open_fleet`` shape: lazy advancing must cut the
    vectorized-run pricing calls to at most 0.6x the forced-eager loop's
    while every replica runs exactly the same stages."""

    def build():
        spec = WorkloadSpec(
            lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=40.0
        )
        return ClusterSimulator(
            SYSTEM, MODEL, spec, n_replicas=4, router=RoundRobinRouter(), max_batch=8,
            seed=0, memoize_pricing=False, max_requests=400,
        )

    lazy = build()
    lazy_runs = count_run_pricing(lazy)
    lazy_report = lazy.run(LIMITS)
    eager = build()
    eager_runs = count_run_pricing(eager)
    on_every_replica(eager, force_due)
    eager_report = eager.run(LIMITS)
    assert [e.stages for e in lazy.engines] == [e.stages for e in eager.engines]
    assert canonical(lazy_report) == canonical(eager_report)
    assert lazy_runs[0] <= 0.6 * eager_runs[0]
