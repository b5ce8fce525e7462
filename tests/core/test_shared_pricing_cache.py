"""The process-wide shared stage-pricing cache: sharing and isolation."""

from __future__ import annotations

import numpy as np

from repro.core.executor import (
    GLOBAL_PRICING_CACHE,
    SharedPricingCache,
    StageExecutor,
    StageWorkload,
)
from repro.core.system import duplex_system
from repro.models.config import glam, mixtral
from repro.serving.cluster import ClusterSimulator
from repro.serving.generator import WorkloadSpec
from repro.serving.simulator import ServingSimulator, SimulationLimits

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


def stage(contexts):
    return StageWorkload(decode_context_lengths=np.asarray(contexts, dtype=np.int64))


def executor(cache, **kwargs):
    return StageExecutor(SYSTEM, MODEL, seed=0, memoize=True, shared_cache=cache, **kwargs)


class TestSharing:
    def test_same_spec_executors_share_prices(self):
        cache = SharedPricingCache()
        first = executor(cache)
        second = executor(cache)
        first.run_stage(stage([1024] * 8))
        second.run_stage(stage([1024] * 8))
        assert first.pricing_cache_info().misses == 1
        # The second executor never derived the price itself.
        assert second.pricing_cache_info().hits == 1
        assert second.pricing_cache_info().misses == 0
        assert len(cache) == 1
        assert cache.n_specs == 1

    def test_shared_results_equal_private_results(self):
        cache = SharedPricingCache()
        shared = executor(cache)
        private = StageExecutor(SYSTEM, MODEL, seed=0, memoize=True)
        workload = stage([700, 1500, 2300])
        shared.run_stage(stage([700, 1500, 2300]))  # warm the shared store
        from_shared = executor(cache).run_stage(workload)
        from_private = private.run_stage(workload)
        assert from_shared.latency_s == from_private.latency_s
        assert from_shared.energy_j == from_private.energy_j

    def test_different_specs_do_not_collide(self):
        cache = SharedPricingCache()
        base = executor(cache)
        other_bucket = StageExecutor(
            SYSTEM, MODEL, seed=0, memoize=True, shared_cache=cache, context_bucket_tokens=32
        )
        other_model = StageExecutor(
            duplex_system(glam(), co_processing=True, expert_tensor_parallel=True),
            glam(),
            seed=0,
            memoize=True,
            shared_cache=cache,
        )
        base.run_stage(stage([1024] * 4))
        other_bucket.run_stage(stage([1024] * 4))
        other_model.run_stage(stage([1024] * 4))
        assert cache.n_specs == 3
        assert other_bucket.pricing_cache_info().hits == 0
        assert other_model.pricing_cache_info().hits == 0

    def test_exact_mode_ignores_shared_cache(self):
        cache = SharedPricingCache()
        exact = StageExecutor(SYSTEM, MODEL, seed=0, memoize=False, shared_cache=cache)
        exact.run_stage(stage([1024]))
        assert len(cache) == 0

    def test_clear_empties_stores_but_keeps_bindings(self):
        cache = SharedPricingCache()
        bound = executor(cache)
        bound.run_stage(stage([512]))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        bound.run_stage(stage([512]))  # the executor still writes the same store
        assert len(cache) == 1


class TestClusterIntegration:
    def test_replicas_share_one_price_store(self):
        cache_before = len(GLOBAL_PRICING_CACHE)
        spec = WorkloadSpec(lin_mean=256, lout_mean=32, qps=60.0)
        sim = ClusterSimulator(
            SYSTEM, MODEL, spec, n_replicas=3, max_batch=4, seed=1,
            memoize_pricing=True, max_requests=40,
        )
        try:
            sim.run(SimulationLimits(max_stages=40, warmup_stages=4))
            infos = [replica.executor.pricing_cache_info() for replica in sim.replicas]
            total_misses = sum(info.misses for info in infos)
            total_hits = sum(info.hits for info in infos)
            assert total_hits > 0
            # Replicas serve statistically identical slices of one arrival
            # stream; a shared store derives each bucketed composition once
            # fleet-wide, so misses stay well below replicas x store size.
            store_size = len(GLOBAL_PRICING_CACHE) - cache_before
            assert 0 < total_misses < 3 * store_size + 3
        finally:
            GLOBAL_PRICING_CACHE.clear()

    def test_simulator_shared_flag_joins_global_cache(self):
        GLOBAL_PRICING_CACHE.clear()
        spec = WorkloadSpec(lin_mean=256, lout_mean=32, qps=40.0)
        limits = SimulationLimits(max_stages=30, warmup_stages=4)
        try:
            first = ServingSimulator(
                SYSTEM, MODEL, spec, max_batch=4, seed=2,
                memoize_pricing=True, shared_pricing_cache=True,
            )
            first.run(limits)
            second = ServingSimulator(
                SYSTEM, MODEL, spec, max_batch=4, seed=2,
                memoize_pricing=True, shared_pricing_cache=True,
            )
            second.run(limits)
            assert second.executor.pricing_cache_info().misses == 0
            assert second.executor.pricing_cache_info().hits > 0
        finally:
            GLOBAL_PRICING_CACHE.clear()
