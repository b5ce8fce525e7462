"""Tests for memoized stage pricing (quantized composition keys)."""

import time

import numpy as np
import pytest

from repro.core.executor import StageExecutor, StageWorkload
from repro.core.system import duplex_system, gpu_system
from repro.errors import ConfigError
from repro.models.config import mixtral
from repro.serving.generator import WorkloadSpec
from repro.serving.simulator import ServingSimulator, SimulationLimits


MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


def stage(contexts, prefills=(), prefill_ctx=()):
    return StageWorkload(
        decode_context_lengths=np.asarray(contexts, dtype=np.int64),
        prefill_lengths=tuple(prefills),
        prefill_context_lengths=tuple(prefill_ctx),
    )


class TestCacheMechanics:
    def test_exact_mode_never_caches(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0)
        executor.run_stage(stage([1024] * 8))
        executor.run_stage(stage([1024] * 8))
        info = executor.pricing_cache_info()
        assert info.hits == info.misses == info.size == 0

    def test_same_bucket_hits(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True, context_bucket_tokens=64)
        executor.run_stage(stage([1024] * 8))
        executor.run_stage(stage([1030] * 8))  # same 64-token bucket
        info = executor.pricing_cache_info()
        assert info.misses == 1 and info.hits == 1 and info.size == 1

    def test_bucket_crossing_misses(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True, context_bucket_tokens=64)
        executor.run_stage(stage([1020] * 8))
        executor.run_stage(stage([1030] * 8))  # 1020//64=15 vs 1030//64=16
        assert executor.pricing_cache_info().misses == 2

    def test_key_is_order_invariant(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True)
        executor.run_stage(stage([256, 2048]))
        executor.run_stage(stage([2048, 256]))
        assert executor.pricing_cache_info().hits == 1

    def test_multi_node_prices_the_canonical_order(self):
        # The cache key is a multiset, so the priced representative must be
        # canonical too: node 0's [::n_nodes] data-parallel share is
        # order-sensitive, and pricing arrival order would let permutations
        # share a wrong price on multi-node systems.
        from repro.core.system import gpu_system
        from repro.models.config import grok1

        model = grok1()
        system = gpu_system(model, doubled=True)  # multi-node topology
        assert system.topology.n_nodes > 1
        memo = StageExecutor(system, model, seed=0, memoize=True)
        permuted = memo.run_stage(stage([64, 8192]))
        reordered = memo.run_stage(stage([8192, 64]))
        assert memo.pricing_cache_info().hits == 1
        exact = StageExecutor(system, model, seed=0, deterministic_gating=True)
        sorted_price = exact.run_stage(stage([64, 8192])).latency_s
        assert permuted.latency_s == reordered.latency_s
        assert permuted.latency_s == pytest.approx(sorted_price, rel=0.02)

    def test_prefill_lengths_are_exact_keys(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True)
        executor.run_stage(stage([1024], prefills=(512,)))
        executor.run_stage(stage([1024], prefills=(513,)))
        assert executor.pricing_cache_info().misses == 2

    def test_cached_result_is_copied(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True)
        first = executor.run_stage(stage([1024] * 4))
        first.time_by_category.clear()
        first.latency_s = -1.0
        second = executor.run_stage(stage([1024] * 4))
        assert second.latency_s > 0
        assert second.time_by_category

    def test_clear_resets_counters(self):
        executor = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True)
        executor.run_stage(stage([1024]))
        executor.clear_pricing_cache()
        info = executor.pricing_cache_info()
        assert info.hits == info.misses == info.size == 0

    def test_bad_bucket_rejected(self):
        with pytest.raises(ConfigError):
            StageExecutor(SYSTEM, MODEL, memoize=True, context_bucket_tokens=0)


class TestMemoizedAccuracy:
    def test_stage_price_within_documented_tolerance(self):
        # Quantization snaps contexts to bucket midpoints: at paper-scale
        # contexts the latency error stays within a couple of percent.
        exact = StageExecutor(SYSTEM, MODEL, seed=0, deterministic_gating=True)
        memo = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True, context_bucket_tokens=64)
        for contexts, prefills in (
            ([4096] * 16, ()),
            ([512, 1024, 2048, 4096], ()),
            ([4096] * 8, (4096,)),
            ([100, 163, 1025], (512, 64)),
        ):
            workload = stage(contexts, prefills)
            exact_result = exact.run_stage(workload)
            memo_result = memo.run_stage(workload)
            assert memo_result.latency_s == pytest.approx(exact_result.latency_s, rel=0.02)
            assert memo_result.energy_j == pytest.approx(exact_result.energy_j, rel=0.02)
            assert memo_result.is_mixed == exact_result.is_mixed
            assert memo_result.tokens_generated == exact_result.tokens_generated

    def test_simulation_reports_agree(self):
        # Closed loop admits by free slots, not by the clock, so exact and
        # memoized runs execute the *same* stage sequence — any report
        # difference is pure pricing error (bucketing + expected-counts
        # gating), which stays within a few percent.  (Open-loop runs also
        # diverge in trajectory: shifted stage boundaries admit Poisson
        # arrivals at different times, which is not a pricing error.)
        spec = WorkloadSpec(lin_mean=2048, lout_mean=256, lin_cv=0.3, lout_cv=0.3)
        limits = SimulationLimits(max_stages=300, warmup_stages=20)
        exact = ServingSimulator(SYSTEM, MODEL, spec, max_batch=32, seed=3).run(limits)
        memo = ServingSimulator(
            SYSTEM, MODEL, spec, max_batch=32, seed=3, memoize_pricing=True
        ).run(limits)
        assert memo.tokens_generated == exact.tokens_generated
        assert memo.tbt_p50_s == pytest.approx(exact.tbt_p50_s, rel=0.03)
        assert memo.throughput_tokens_per_s == pytest.approx(
            exact.throughput_tokens_per_s, rel=0.03
        )
        assert memo.energy_per_token_j == pytest.approx(exact.energy_per_token_j, rel=0.03)


class TestMemoizedSpeed:
    def test_decode_heavy_run_hits_cache(self):
        spec = WorkloadSpec(lin_mean=2048, lout_mean=256, qps=10.0)
        limits = SimulationLimits(max_stages=300, warmup_stages=20)
        sim = ServingSimulator(SYSTEM, MODEL, spec, max_batch=32, seed=3, memoize_pricing=True)
        sim.run(limits)
        info = sim.executor.pricing_cache_info()
        assert info.hit_rate > 0.5
        assert info.size < info.hits + info.misses

    def test_fig13_sized_sweep_is_faster_memoized(self):
        # Acceptance: a Fig. 13-shaped point (Mixtral, Poisson, long
        # prompts) prices measurably faster with memoization.  The margin
        # is structural — decode-only stages repeat their quantized
        # composition for dozens of stages — so the assertion tolerates
        # noisy CI clocks.  Both arms pin the scalar per-stage loop
        # (columnar=False): the subject here is per-stage pricing cost,
        # and the columnar run path would otherwise make the *exact* arm
        # faster than the memoized one (memoized pricing quantizes
        # compositions, so it never takes vectorized runs).
        spec = WorkloadSpec(lin_mean=4096, lout_mean=512, qps=10.0)
        limits = SimulationLimits(max_stages=500, warmup_stages=30)

        def run_once(memoize):
            sim = ServingSimulator(
                gpu_system(MODEL), MODEL, spec, max_batch=64, seed=0,
                memoize_pricing=memoize, columnar=False,
            )
            start = time.perf_counter()
            report = sim.run(limits)
            return time.perf_counter() - start, report

        # Best of three per arm, the arms interleaved, so a host slowing
        # down or speeding up mid-test weighs on both arms alike.
        exact_times, memo_times = [], []
        for _ in range(3):
            elapsed, exact_report = run_once(False)
            exact_times.append(elapsed)
            elapsed, memo_report = run_once(True)
            memo_times.append(elapsed)
        exact_time, memo_time = min(exact_times), min(memo_times)
        assert memo_time < exact_time
        # Sanity only — near saturation the two trajectories legitimately
        # diverge; tight agreement is asserted on the closed-loop test above.
        assert 0.5 < memo_report.tokens_generated / exact_report.tokens_generated < 2.0
