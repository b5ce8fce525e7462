"""Columnar engine core: unit tests and the columnar↔scalar oracle suite.

Two layers (tier 1 — see TESTING.md):

* unit tests for the struct-of-arrays :class:`RequestTable` (append,
  order-preserving compaction with write-back, the ``max_batch`` bound,
  read-through of request progress, vectorized advance) and the
  :class:`EventClock` (heap and calendar backends, lazy cancellation,
  fire ordering);
* the property suite pinning the tentpole exactness claim: a full run
  with the columnar steady-run fast path enabled reproduces the scalar
  per-stage oracle (``columnar=False``) trajectory *exactly* — same
  finished ids in the same order, same completion/shed/admission
  ledgers, same virtual clocks, and an identical ``ServingReport`` —
  across all 8 invariant-suite configurations, a saturated
  SLO-shedding shape, two saturated fleets whose replicas crash and
  re-route their queues (one with a split replica), and the edges of
  admission runs (chunked prefill, one-token outputs, prefix hits,
  straggler windows, the warm-up edge, a simulated-time limit), plus
  both paging policies under heavy preemption, with every request's
  progress equal at checkpoints inside runs.  The oracle tests carry the
  ``columnar`` marker.
  Exact equality is deliberately stronger than the issue's 1e-9
  tolerance: the fast path is built from bit-stable primitives, so any
  drift is a bug.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.system import duplex_system  # noqa: E402
from repro.errors import ConfigError, SchedulingError  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.cluster import (  # noqa: E402
    ClusterSimulator,
    MonolithicReplicaSpec,
    SplitReplicaSpec,
)
from repro.serving.columnar import EventClock, RequestTable  # noqa: E402
from repro.serving.faults import (  # noqa: E402
    FaultConfig,
    FaultInjector,
    RetryPolicy,
    StageTimeProfile,
)
from repro.serving.generator import WorkloadSpec  # noqa: E402
from repro.serving.paging import EvictionPolicy, PagingConfig, PrefixConfig  # noqa: E402
from repro.serving.policy import ChunkedPrefillPolicy, SloAwarePolicy  # noqa: E402
from repro.serving.request import Request  # noqa: E402
from repro.serving.scenarios import AgentLoopShape, agent_loop  # noqa: E402
from repro.serving.simulator import ServingSimulator, SimulationLimits  # noqa: E402

from test_invariants import CONFIGURATIONS, Probe, spec_strategy  # noqa: E402

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


# ----------------------------------------------------------------------
# RequestTable
# ----------------------------------------------------------------------
def _request(rid: int, input_len: int = 16, output_len: int = 8) -> Request:
    request = Request(
        request_id=rid,
        arrival_time_s=float(rid),
        input_len=input_len,
        output_len=output_len,
    )
    request.start_prefill()
    request.finish_prefill(float(rid) + 0.5)
    return request


class TestRequestTable:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            RequestTable(max_batch=0)

    def test_duplicate_append_rejected(self):
        table = RequestTable(max_batch=4)
        request = _request(7)
        table.append(request)
        with pytest.raises(SchedulingError):
            table.append(request)
        assert len(table) == 1

    def test_append_beyond_max_batch_raises(self):
        table = RequestTable(max_batch=2)
        table.append(_request(1))
        table.append(_request(2))
        with pytest.raises(SchedulingError):
            table.append(_request(3))
        assert [r.request_id for r in table.rows] == [1, 2]

    def test_remove_compacts_in_order_and_writes_back(self):
        table = RequestTable(max_batch=8)
        requests = [_request(rid, input_len=10 + rid, output_len=20 + rid) for rid in range(5)]
        for request in requests:
            table.append(request)
        table.advance(3)
        removed = table.remove([1, 3])
        assert removed == [requests[1], requests[3]]
        # Survivors keep their order; row i is rows[i] and the columns moved along.
        assert table.rows == [requests[0], requests[2], requests[4]]
        assert [table.row_of(r) for r in table.rows] == [0, 1, 2]
        assert table.context_len[:3].tolist() == [13, 15, 17]
        assert table.output_len[:3].tolist() == [20, 22, 24]
        # Leavers carry their progress off the table.
        for request in removed:
            assert request.context_len == request.input_len + 3
            assert request.tokens_generated == 4
            with pytest.raises(SchedulingError):
                table.row_of(request)

    def test_progress_reads_and_writes_through_the_row(self):
        table = RequestTable(max_batch=4)
        decoding = _request(1, output_len=5)
        prefilling = Request(request_id=2, arrival_time_s=0.0, input_len=12, output_len=9)
        prefilling.start_prefill()
        table.append(decoding)
        table.append(prefilling)
        table.advance_decoding()  # the prefilling row stays put
        assert (decoding.context_len, decoding.tokens_generated) == (17, 2)
        assert (prefilling.context_len, prefilling.tokens_generated) == (0, 0)
        decoding.context_len = 40  # a write lands in the row
        assert table.context_len[0] == 40
        prefilling.finish_prefill(1.0)  # the transition updates the row and its phase
        assert table.tokens_generated[1] == 1 and table.decoding[1] == 1
        table.advance(3)
        assert table.done_rows() == [0]
        assert decoding.is_complete and not prefilling.is_complete


# ----------------------------------------------------------------------
# EventClock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bucket_width_s", [None, 0.5, 2.0])
class TestEventClock:
    def test_fires_in_time_then_insertion_order(self, bucket_width_s):
        clock = EventClock(bucket_width_s=bucket_width_s)
        clock.schedule("b", 2.0)
        clock.schedule("a", 1.0)
        clock.schedule("c", 2.0)
        assert clock.next_time() == 1.0
        assert clock.pop_due(0.5) == []
        assert clock.pop_due(2.0) == ["a", "b", "c"]
        assert clock.next_time() == float("inf")
        assert len(clock) == 0

    def test_reschedule_moves_and_cancel_forgets(self, bucket_width_s):
        clock = EventClock(bucket_width_s=bucket_width_s)
        clock.schedule("a", 5.0)
        clock.schedule("b", 1.0)
        clock.schedule("a", 0.25)  # moved earlier
        clock.cancel("b")
        assert clock.next_time() == 0.25
        assert clock.pop_due(10.0) == ["a"]
        clock.cancel("missing")  # no-op

    def test_partial_bucket_drain_keeps_future_events(self, bucket_width_s):
        clock = EventClock(bucket_width_s=bucket_width_s)
        clock.extend([("early", 0.1), ("late", 0.4), ("far", 3.7)])
        assert clock.pop_due(0.2) == ["early"]
        # "late" may share a calendar bucket with "early"; it must survive
        # the partial drain and still fire later.
        assert clock.next_time() == 0.4
        assert clock.pop_due(5.0) == ["late", "far"]

    def test_rejects_non_finite_times(self, bucket_width_s):
        clock = EventClock(bucket_width_s=bucket_width_s)
        with pytest.raises(ConfigError):
            clock.schedule("a", float("inf"))


def test_clock_backends_agree_on_a_random_schedule():
    rng = np.random.default_rng(0)
    heap = EventClock()
    calendar = EventClock(bucket_width_s=0.3)
    for key in range(200):
        when = float(rng.uniform(0.0, 20.0))
        heap.schedule(key, when)
        calendar.schedule(key, when)
    for key in rng.choice(200, size=40, replace=False):
        heap.cancel(int(key))
        calendar.cancel(int(key))
    now = 0.0
    while heap.next_time() < float("inf") or calendar.next_time() < float("inf"):
        assert heap.next_time() == calendar.next_time()
        now += float(rng.uniform(0.1, 2.0))
        assert heap.pop_due(now) == calendar.pop_due(now)


def test_bad_bucket_width_rejected():
    with pytest.raises(ConfigError):
        EventClock(bucket_width_s=0.0)


# ----------------------------------------------------------------------
# columnar ↔ scalar oracle equivalence
# ----------------------------------------------------------------------
def _build_slo_shedding_full(spec_params, seed):
    """An SLO-shedding policy behind a saturated batch: arrivals pile up
    while the batch is full and expire there, so the policy's ``shed``
    and ``order_waiting`` overrides act at every stage boundary."""
    lin, lout, lin_cv, lout_cv = spec_params
    spec = WorkloadSpec(
        lin_mean=lin, lout_mean=4 * lout, lin_cv=lin_cv, lout_cv=lout_cv, qps=300.0
    )
    sim = ServingSimulator(
        SYSTEM, MODEL, spec, max_batch=4, seed=seed,
        policy=SloAwarePolicy(t2ft_slo_s=0.05, prefer_short_inputs=True),
    )
    limits = SimulationLimits(max_stages=200, warmup_stages=6)
    return lambda: sim.run(limits), Probe(sim.engines), None


def _crash_fleet(replicas):
    """A saturated FCFS fleet whose replicas crash, one after the other.

    Exact pricing lets its replicas take steady runs while their batches
    are full and requests wait; each crash harvests the replica's queue
    and re-routes it in harvest order, so a queue the fast path left in
    the wrong place (the inbox instead of ``waiting``) would re-route in
    a different order."""

    def build(spec_params, seed):
        lin, lout, lin_cv, lout_cv = spec_params
        spec = WorkloadSpec(
            lin_mean=lin, lout_mean=4 * lout, lin_cv=lin_cv, lout_cv=lout_cv, qps=400.0
        )
        faults = FaultInjector(
            FaultConfig(
                crash_times=((0.1, 0), (0.2, 1)), crash_mttr_s=0.1, detection_latency_s=0.025
            )
        )
        sim = ClusterSimulator(
            SYSTEM, MODEL, spec, max_batch=4, seed=seed, max_requests=120,
            replicas=replicas, memoize_pricing=False, faults=faults,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        limits = SimulationLimits(max_stages=300, warmup_stages=6)
        return lambda: sim.run(limits), Probe(sim.engines), None

    return build


def _warm_full(spec_params, seed, limits=None, spec=(), **kwargs):
    """A warm closed loop at batch 4: every completion admits one request,
    and the admission stage opens the next steady run.  ``spec`` overrides
    workload fields."""
    lin, lout, lin_cv, lout_cv = spec_params
    fields = dict(lin_mean=lin, lout_mean=4 * lout, lin_cv=lin_cv, lout_cv=lout_cv)
    fields.update(spec)
    sim = ServingSimulator(
        SYSTEM, MODEL, WorkloadSpec(**fields), max_batch=4, seed=seed, **kwargs
    )
    limits = limits or SimulationLimits(max_stages=200, warmup_stages=6)
    return sim, limits


def _build_chunked_full(spec_params, seed):
    """Chunked prefill on a saturated batch: a non-final chunk leaves its
    request prefilling, so only the stage with its final chunk may open a
    run."""
    lin, lout, lin_cv, lout_cv = spec_params
    sim, limits = _warm_full(
        (4 * lin, lout, lin_cv, lout_cv), seed,
        policy=ChunkedPrefillPolicy(max_prefill_tokens=64),
    )
    return lambda: sim.run(limits), Probe(sim.engines), None


def _build_one_token_outputs(spec_params, seed):
    """Outputs of one to three tokens: a one-token request finishes at its
    prefill, so its admission stage opens no run."""
    sim, limits = _warm_full(
        spec_params, seed, spec={"lout_mean": 2.0, "lout_cv": 0.6, "min_len": 1}
    )
    return lambda: sim.run(limits), Probe(sim.engines), None


def _build_prefix_hits(spec_params, seed):
    """Agent-loop sessions over a shared prefix pool: cache hits price
    their saved prefill through the stage executor (a gating draw) before
    the admission stage is priced."""
    lin, lout, _, _ = spec_params
    shape = AgentLoopShape(
        context_tokens=4 * lin, observation_mean=lin, action_mean=4 * lout, tool_mean_s=0.05
    )
    source = agent_loop(shape=shape).at_qps(60.0).source(seed=seed, max_requests=60)
    sim = ServingSimulator(
        SYSTEM, MODEL, source, max_batch=4, seed=seed, prefix=PrefixConfig(capacity_tokens=4096)
    )
    limits = SimulationLimits(max_stages=300, warmup_stages=6)
    return lambda: sim.run(limits), Probe(sim.engines), None


def _build_straggler_windows(spec_params, seed):
    """Straggler windows on a saturated engine: no run is priced inside a
    window, and none crosses a window's edge."""
    sim, limits = _warm_full(spec_params, seed)
    rng = np.random.default_rng(seed)
    starts = np.cumsum(rng.uniform(0.02, 0.12, size=12))
    sim.engine.fault_profile = StageTimeProfile(
        tuple((float(t), float(t) + 0.015, 2.0) for t in starts)
    )
    return lambda: sim.run(limits), Probe(sim.engines), None


def _build_warmup_edge(spec_params, seed):
    """A warm-up length that varies with the seed, so the warm-up edge
    falls on admission stages and inside the runs they open."""
    limits = SimulationLimits(max_stages=120, warmup_stages=1 + seed % 37)
    sim, limits = _warm_full(spec_params, seed, limits=limits)
    return lambda: sim.run(limits), Probe(sim.engines), None


def _build_sim_time_limit(spec_params, seed):
    """A simulated-time limit that varies with the seed: the run stops
    after the first stage reaching it, admission stage or not."""
    limits = SimulationLimits(
        max_stages=10**6, warmup_stages=1 + seed % 11, max_sim_time_s=0.05 + (seed % 97) * 0.004
    )
    sim, limits = _warm_full(spec_params, seed, limits=limits)
    return lambda: sim.run(limits), Probe(sim.engines), None


#: The invariant suite's configurations plus shapes only the oracle needs.
ORACLE_CONFIGURATIONS = {
    **CONFIGURATIONS,
    "mono-slo-shedding-full": _build_slo_shedding_full,
    "cluster-crash-retry-full": _crash_fleet(
        (MonolithicReplicaSpec(), MonolithicReplicaSpec())
    ),
    "cluster-split-crash-full": _crash_fleet((MonolithicReplicaSpec(), SplitReplicaSpec())),
    "mono-chunked-full": _build_chunked_full,
    "mono-one-token-outputs": _build_one_token_outputs,
    "mono-prefix-hits": _build_prefix_hits,
    "mono-straggler-windows": _build_straggler_windows,
    "mono-warmup-edge": _build_warmup_edge,
    "mono-sim-time-limit": _build_sim_time_limit,
}


def _run_config(config: str, spec_params, seed: int, columnar: bool):
    """Run one invariant-suite config with the fast path on or off.

    The invariant builders attach a :class:`StageEvent` probe; observers
    force the scalar loop (batched runs would have to synthesize their
    per-stage events), so the probe is detached on both arms and the
    engines are pinned to the requested mode.
    """
    run, probe, _ = ORACLE_CONFIGURATIONS[config](spec_params, seed)
    for engine in probe.engines:
        engine.observers.clear()
        engine.columnar = columnar
    report = run()
    return report, probe.engines


def _trajectory(report, engines):
    fleet = getattr(report, "fleet", report)
    return {
        "report": fleet,
        "routed": getattr(report, "requests_routed", None),
        "engines": [
            (
                engine.label,
                engine.stages,
                engine.measured,
                engine.completions,
                engine.now_s,
                tuple(engine.finished_ids),
                tuple(engine.handed_off_ids),
                tuple(engine.scheduler.admitted_log),
                tuple(r.request_id for r in engine.scheduler.rejected),
                tuple(
                    (r.request_id, r.context_len, r.tokens_generated)
                    for r in engine.scheduler.running
                ),
            )
            for engine in engines
        ],
    }


@pytest.mark.columnar
@pytest.mark.parametrize("config", sorted(ORACLE_CONFIGURATIONS))
@given(spec_params=spec_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_columnar_matches_scalar_oracle(config, spec_params, seed):
    fast_report, fast_engines = _run_config(config, spec_params, seed, columnar=True)
    oracle_report, oracle_engines = _run_config(config, spec_params, seed, columnar=False)
    assert _trajectory(fast_report, fast_engines) == _trajectory(
        oracle_report, oracle_engines
    )


@pytest.mark.columnar
@pytest.mark.paging
@pytest.mark.parametrize("policy", ["migrate", "recompute"])
def test_columnar_matches_scalar_under_paging_pressure(policy):
    """Heavy live preemption (thousands of evictions) stays bit-exact."""
    spec = WorkloadSpec(lin_mean=30000, lout_mean=64, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    limits = SimulationLimits(max_stages=600, warmup_stages=20)
    config = PagingConfig(policy=EvictionPolicy(policy))

    def run(columnar: bool):
        sim = ServingSimulator(
            SYSTEM, MODEL, spec, max_batch=64, seed=0, paging=config, columnar=columnar
        )
        report = sim.run(limits)
        stats = sim.paging.manager.stats
        return report, sim.engine, (stats.evictions, stats.resumes)

    fast_report, fast_engine, fast_stats = run(True)
    oracle_report, oracle_engine, oracle_stats = run(False)
    assert fast_stats == oracle_stats
    assert fast_stats[0] > 0, "the workload must actually exercise preemption"
    assert fast_report == oracle_report
    assert _trajectory(fast_report, [fast_engine]) == _trajectory(
        oracle_report, [oracle_engine]
    )


@pytest.mark.columnar
def test_scalar_path_prices_no_stage_on_a_warm_closed_loop():
    """Every admission stage is priced as row 1 of the run it opens.

    On a warm closed loop each completion frees one slot, and the stage
    that admits the replacement opens the next steady decode run, so one
    ``price_decode_run`` call prices both and the scalar ``run_stage``
    prices nothing at all — not even at the stage budget's edge, where
    the run is that stage alone.  Output lengths are fixed so completions
    stay ``lout / batch`` stages apart.  The report matches the scalar
    oracle exactly.
    """
    spec = WorkloadSpec(lin_mean=256, lout_mean=64, lin_cv=0.3, lout_cv=0.0)
    limits = SimulationLimits(max_stages=600, warmup_stages=0)

    def run(columnar: bool):
        sim = ServingSimulator(
            SYSTEM, MODEL, spec, max_batch=8, seed=0, warm_start=True, columnar=columnar
        )
        executor = sim.engine.executor
        price_stage = executor.run_stage
        price_run = executor.price_decode_run
        mixed: list[bool] = []
        opened = [0]

        def counting(workload):
            mixed.append(workload.is_mixed)
            return price_stage(workload)

        def counting_runs(context_lengths, n_stages, first=None):
            opened[0] += first is not None
            return price_run(context_lengths, n_stages, first=first)

        executor.run_stage = counting
        executor.price_decode_run = counting_runs
        return sim.run(limits), mixed, opened[0]

    report, mixed, opened = run(columnar=True)
    oracle_report, oracle_mixed, _ = run(columnar=False)
    assert report == oracle_report
    assert len(oracle_mixed) == 600
    assert mixed == [], "a stage took the scalar path"
    assert opened == sum(oracle_mixed) > 60


def _blocked_decode_stages(policy, columnar: bool):
    """Decode-only stages the scalar path prices while the batch is full
    and requests wait, on a saturated open loop with fixed-length outputs."""
    spec = WorkloadSpec(lin_mean=128, lout_mean=48, lin_cv=0.3, lout_cv=0.0, qps=200.0)
    sim = ServingSimulator(
        SYSTEM, MODEL, spec, max_batch=4, seed=0, policy=policy, columnar=columnar
    )
    scheduler = sim.scheduler
    executor = sim.engine.executor
    price_stage = executor.run_stage
    blocked = [0]

    def counting(workload):
        if (
            not workload.is_mixed
            and len(scheduler.running) >= scheduler.max_batch
            and scheduler.waiting
        ):
            blocked[0] += 1
        return price_stage(workload)

    executor.run_stage = counting
    report = sim.run(SimulationLimits(max_stages=400, warmup_stages=0))
    return report, blocked[0]


@pytest.mark.columnar
@pytest.mark.parametrize("policy", ["fcfs", "slo-shedding"])
def test_steady_runs_while_the_batch_is_full(policy):
    """A full batch with a waiting queue still takes vectorized runs.

    Under FCFS, admission while the batch is full only moves arrivals
    into ``waiting``, so the decode-only stages up to the next completion
    collapse into a run.  A policy overriding ``shed``/``order_waiting``
    acts on the queue at every boundary, so its blocked decode stages
    stay scalar.  Both match the scalar oracle exactly.
    """

    def make():
        return SloAwarePolicy(t2ft_slo_s=0.5) if policy == "slo-shedding" else None

    report, blocked = _blocked_decode_stages(make(), columnar=True)
    oracle_report, oracle_blocked = _blocked_decode_stages(make(), columnar=False)
    assert report == oracle_report
    assert oracle_blocked > 300, "the batch must saturate with requests waiting"
    assert blocked == (oracle_blocked if policy == "slo-shedding" else 0)


def _progress(request: Request) -> tuple:
    return (request.request_id, request.state, request.context_len, request.tokens_generated)


@pytest.mark.columnar
def test_request_progress_is_never_stale_mid_run():
    """Reading a request mid-run agrees with the scalar oracle's objects.

    A running request's ``context_len``/``tokens_generated`` read its
    table row, so they are current inside an open vectorized run, after
    mixed stages, and across preemptions (evicted requests carry their
    row's progress off the table).  At checkpoints, many of which fall
    inside steady runs, the tokens the requests hold must add up to the
    tokens the metrics ledger counted, and the requests the source
    handed out and the waiting queue must match the oracle's.
    """
    spec = WorkloadSpec(lin_mean=28000, lout_mean=256, lin_cv=0.3, lout_cv=0.3, qps=4.0)
    limits = SimulationLimits(max_stages=10**6, warmup_stages=0)

    def build(columnar: bool):
        sim = ServingSimulator(
            SYSTEM, MODEL, spec, max_batch=64, seed=0, paging=PagingConfig(),
            columnar=columnar,
        )
        source = sim.scheduler.source
        taken: list[Request] = []
        take = source.take

        def recording_take(now_s):
            request = take(now_s)
            taken.append(request)
            return request

        source.take = recording_take
        return sim, taken

    (fast, fast_taken), (oracle, oracle_taken) = build(True), build(False)
    commit = fast.scheduler.commit_steady_run
    committed = [0]

    def counting_commit(n_stages, last_start_s, final_now_s):
        committed[0] += n_stages
        return commit(n_stages, last_start_s, final_now_s)

    fast.scheduler.commit_steady_run = counting_commit
    inside_runs = 0
    t = 0.0
    for _ in range(800):
        t += 0.125
        fast.engine.advance_to(t, limits)
        oracle.engine.advance_to(t, limits)
        inside_runs += fast.engine.lazy_until_s != float("-inf")
        if fast.engine.stages:
            emitted = fast.engine.metrics.report().tokens_generated
            assert sum(r.tokens_generated for r in fast_taken) == emitted
        assert [_progress(r) for r in fast_taken] == [_progress(r) for r in oracle_taken]
        assert [r.request_id for r in fast.scheduler.waiting] == [
            r.request_id for r in oracle.scheduler.waiting
        ]
    evictions = fast.paging.manager.stats.evictions
    assert evictions == oracle.paging.manager.stats.evictions
    assert committed[0] > 500 and inside_runs > 20 and evictions > 50
    assert fast.engine.stages == oracle.engine.stages
