"""Tests for serving metrics."""

import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.models.ops import OpCategory
from repro.serving.metrics import (
    _TBT_RECENT_MAXLEN,
    MetricsCollector,
    exact_median,
    weighted_percentile,
)


class TestWeightedPercentile:
    def test_uniform_weights_match_median(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        weights = np.ones(5)
        assert weighted_percentile(values, weights, 50) == 3.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 100.0])
        weights = np.array([99.0, 1.0])
        assert weighted_percentile(values, weights, 50) == 1.0
        assert weighted_percentile(values, weights, 99.5) == 100.0

    def test_unsorted_input(self):
        values = np.array([5.0, 1.0, 3.0])
        weights = np.ones(3)
        assert weighted_percentile(values, weights, 0) == 1.0
        assert weighted_percentile(values, weights, 100) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            weighted_percentile(np.array([]), np.array([]), 50)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), 101)

    @given(q=st.floats(0, 100), values=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
    def test_result_is_an_observed_value(self, q, values):
        arr = np.asarray(values)
        result = weighted_percentile(arr, np.ones(arr.size), q)
        assert result in arr

    def test_single_sample_is_every_percentile(self):
        values = np.array([7.5])
        weights = np.array([3.0])
        for q in (0, 50, 100):
            assert weighted_percentile(values, weights, q) == 7.5

    def test_zero_weight_entries_are_ignored(self):
        # A zero-weight value owns no cumulative mass and must never be
        # returned, at any percentile.
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 0.0, 1.0])
        assert weighted_percentile(values, weights, 50) == 1.0
        assert weighted_percentile(values, weights, 51) == 3.0
        assert weighted_percentile(values, weights, 100) == 3.0

    def test_zero_weight_smallest_value_never_returned(self):
        # Regression: with side="left" a zero-weight smallest value used to
        # survive the cumsum and win every low percentile.
        values = np.array([1.0, 2.0])
        weights = np.array([0.0, 1.0])
        for q in (0, 10, 50, 100):
            assert weighted_percentile(values, weights, q) == 2.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(SimulationError):
            weighted_percentile(np.array([1.0, 2.0]), np.zeros(2), 50)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 50)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0]), 50)

    @given(q=st.floats(0, 100), values=st.lists(st.floats(0.1, 1e6), min_size=2, max_size=20))
    def test_result_always_carries_weight(self, q, values):
        arr = np.asarray(values)
        weights = np.ones(arr.size)
        weights[::2] = 0.0  # zero out every other entry
        result = weighted_percentile(arr, weights, q)
        assert result in arr[weights > 0]

    def test_q_zero_returns_smallest_value(self):
        values = np.array([4.0, 2.0, 9.0])
        weights = np.array([1.0, 5.0, 1.0])
        assert weighted_percentile(values, weights, 0) == 2.0

    def test_q_hundred_returns_largest_weighted_value(self):
        values = np.array([4.0, 2.0, 9.0])
        weights = np.array([1.0, 5.0, 1.0])
        assert weighted_percentile(values, weights, 100) == 9.0

    def test_negative_percentile_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), -0.1)


class TestMergedCollectors:
    def _collector(self, latency, tokens, idle=0.0):
        collector = MetricsCollector()
        collector.effective_batch = 8
        collector.record_stage(
            latency_s=latency,
            is_mixed=False,
            decode_tokens=tokens,
            total_tokens_generated=tokens,
            dram_energy={OpCategory.MOE: 1.0},
            compute_energy={},
            comm_energy_j=0.0,
        )
        if idle:
            collector.record_idle(idle)
        return collector

    def test_merge_pools_samples_and_takes_max_elapsed(self):
        fast = self._collector(latency=0.01, tokens=10)
        slow = self._collector(latency=0.04, tokens=10, idle=0.06)
        fleet = MetricsCollector.merged([fast, slow]).report()
        assert fleet.tokens_generated == 20
        assert fleet.elapsed_s == pytest.approx(0.1)  # max, not sum
        assert fleet.tbt_p50_s in (0.01, 0.04)
        assert fleet.energy_by_component["moe:dram"] == pytest.approx(2.0)
        assert fleet.effective_batch == 16

    def test_merge_of_empty_collectors_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector.merged([MetricsCollector()]).report()

    def test_merge_of_no_collectors_is_empty(self):
        fleet = MetricsCollector.merged([])
        assert fleet.stages_recorded == 0
        with pytest.raises(SimulationError):
            fleet.report()

    def test_merge_skips_empty_members_without_distortion(self):
        # An idle replica (nothing recorded) must not shift percentiles,
        # counts, or the wall clock of the pooled report.
        busy = self._collector(latency=0.02, tokens=10, idle=0.03)
        alone = busy.report()
        pooled = MetricsCollector.merged([MetricsCollector(), busy, MetricsCollector()]).report()
        assert pooled.tokens_generated == alone.tokens_generated
        assert pooled.elapsed_s == alone.elapsed_s
        assert pooled.tbt_p50_s == alone.tbt_p50_s
        assert pooled.requests_completed == alone.requests_completed

    def test_merge_unions_heterogeneous_tenant_keys(self):
        left = self._collector(latency=0.01, tokens=4)
        left.record_first_token(0.1, tenant="interactive", slo_s=0.5)
        left.record_completion(1.0, tenant="interactive")
        right = self._collector(latency=0.01, tokens=4)
        right.record_first_token(0.8, tenant="batch", slo_s=0.5)
        right.record_completion(3.0, tenant="batch")
        right.record_first_token(0.2, tenant="interactive", slo_s=0.5)
        right.record_completion(1.5, tenant="interactive")
        report = MetricsCollector.merged([left, right]).report()
        assert set(report.per_tenant) == {"interactive", "batch"}
        assert report.per_tenant["interactive"]["requests_completed"] == 2.0
        assert report.per_tenant["batch"]["requests_completed"] == 1.0
        # SLO attainment counters union too: interactive met 2/2, batch 0/1.
        assert report.per_tenant["interactive"]["t2ft_slo_attainment"] == pytest.approx(1.0)
        assert report.per_tenant["batch"]["t2ft_slo_attainment"] == pytest.approx(0.0)

    def test_merge_with_one_sided_tenant_samples(self):
        # A tenant with first tokens recorded but no completions (still
        # mid-flight on one replica) must survive the union.
        left = self._collector(latency=0.01, tokens=4)
        left.record_first_token(0.1, tenant="a")
        right = self._collector(latency=0.01, tokens=4)
        right.record_completion(2.0, tenant="b")
        report = MetricsCollector.merged([left, right]).report()
        assert set(report.per_tenant) == {"a", "b"}
        assert report.per_tenant["a"]["requests_completed"] == 0.0
        assert report.per_tenant["a"]["t2ft_p50_s"] == pytest.approx(0.1)
        assert report.per_tenant["b"]["e2e_p50_s"] == pytest.approx(2.0)

    def test_merge_idle_time_accounting(self):
        # Idle time lives in elapsed (max across replicas) but not in
        # busy time (summed): a mostly-idle replica drags fleet
        # throughput down without inflating fleet work done.
        worker = self._collector(latency=0.05, tokens=50)
        idler = self._collector(latency=0.01, tokens=2, idle=0.99)
        fleet = MetricsCollector.merged([worker, idler])
        assert fleet.elapsed_s == pytest.approx(1.0)  # the idler's clock
        assert fleet.busy_s == pytest.approx(0.06)  # work sums, idle does not
        report = fleet.report()
        assert report.throughput_tokens_per_s == pytest.approx(52 / 1.0)

    def test_busy_time_tracks_recorded_stages(self):
        collector = self._collector(latency=0.04, tokens=10)
        assert collector.busy_s == pytest.approx(0.04)
        collector.record_idle(0.5)
        assert collector.busy_s == pytest.approx(0.04)  # idle excluded
        assert collector.elapsed_s == pytest.approx(0.54)


class TestCollector:
    def _record_simple(self, collector, latency=0.01, mixed=False, decode_tokens=8):
        collector.record_stage(
            latency_s=latency,
            is_mixed=mixed,
            decode_tokens=decode_tokens,
            total_tokens_generated=decode_tokens + (1 if mixed else 0),
            dram_energy={OpCategory.MOE: 1.0},
            compute_energy={OpCategory.FC: 0.5},
            comm_energy_j=0.1,
        )

    def test_throughput(self):
        collector = MetricsCollector()
        for _ in range(10):
            self._record_simple(collector, latency=0.01, decode_tokens=8)
        report = collector.report()
        assert report.throughput_tokens_per_s == pytest.approx(800.0)

    def test_stage_ratio(self):
        collector = MetricsCollector()
        for i in range(10):
            self._record_simple(collector, mixed=(i == 0))
        assert collector.report().decoding_only_stage_ratio == pytest.approx(0.9)

    def test_tbt_percentiles_weighted_by_tokens(self):
        collector = MetricsCollector()
        self._record_simple(collector, latency=0.001, decode_tokens=99)
        self._record_simple(collector, latency=1.0, decode_tokens=1)
        report = collector.report()
        assert report.tbt_p50_s == pytest.approx(0.001)
        assert report.tbt_p99_s == pytest.approx(0.001)

    def test_energy_accounting(self):
        collector = MetricsCollector()
        self._record_simple(collector, decode_tokens=16)
        report = collector.report()
        assert report.energy_by_component["moe:dram"] == 1.0
        assert report.energy_by_component["fc:compute"] == 0.5
        assert report.energy_by_component["fabric"] == pytest.approx(0.1)
        assert report.energy_per_token_j == pytest.approx(1.6 / 16)

    def test_latency_metrics(self):
        collector = MetricsCollector()
        self._record_simple(collector)
        collector.record_first_token(0.2)
        collector.record_first_token(0.4)
        collector.record_completion(2.0)
        report = collector.report()
        assert report.t2ft_p50_s == pytest.approx(0.3)
        assert report.e2e_p50_s == pytest.approx(2.0)
        assert report.requests_completed == 1

    def test_idle_time_counts_toward_elapsed(self):
        collector = MetricsCollector()
        self._record_simple(collector, latency=0.01, decode_tokens=10)
        collector.record_idle(0.09)
        assert collector.report().throughput_tokens_per_s == pytest.approx(100.0)

    def test_empty_report_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector().report()

    def test_non_positive_latency_rejected(self):
        collector = MetricsCollector()
        with pytest.raises(SimulationError):
            self._record_simple(collector, latency=0.0)


class _ReferenceTbtStore:
    """The dict-histogram plus bounded-deque TBT store, kept as an oracle."""

    def __init__(self):
        self.hist: dict[float, float] = {}
        self.count = 0
        self.recent: deque[tuple[float, float]] = deque(maxlen=_TBT_RECENT_MAXLEN)

    def record(self, value: float, weight: float) -> None:
        self.hist[value] = self.hist.get(value, 0.0) + weight
        self.count += 1
        self.recent.append((value, weight))

    def merge(self, other: "_ReferenceTbtStore") -> None:
        for value, weight in other.hist.items():
            self.hist[value] = self.hist.get(value, 0.0) + weight
        self.count += other.count
        self.recent.extend(other.recent)

    def percentiles(self) -> tuple[float, float, float]:
        values = np.asarray(list(self.hist.keys()))
        weights = np.asarray(list(self.hist.values()))
        return tuple(weighted_percentile(values, weights, q) for q in (50, 90, 99))

    def slo(self, slo_s: float) -> float:
        values = np.asarray(list(self.hist.keys()))
        weights = np.asarray(list(self.hist.values()))
        return float(weights[values <= slo_s].sum() / weights.sum())

    def since(self, cursor: int) -> tuple[list[float], list[float], int]:
        gap = self.count - cursor
        if gap <= 0:
            return [], [], self.count
        recent = list(self.recent)[-min(gap, len(self.recent)) :]
        return [v for v, _ in recent], [w for _, w in recent], self.count


class TestTbtColumnsMatchHistogram:
    """The TBT sample columns answer exactly what a value histogram did."""

    @staticmethod
    def _fill(seed: int, n_stages: int):
        rng = np.random.default_rng(seed)
        collector = MetricsCollector()
        reference = _ReferenceTbtStore()
        # Few distinct latencies, so values repeat heavily across stages
        # and runs; integer token weights as the engine records them.
        palette = rng.uniform(0.001, 0.02, size=7)
        done = 0
        while done < n_stages:
            tokens = int(rng.integers(1, 64))
            if rng.random() < 0.5:
                latency = float(palette[rng.integers(palette.size)])
                collector.record_stage(
                    latency_s=latency,
                    is_mixed=False,
                    decode_tokens=tokens,
                    total_tokens_generated=tokens,
                    dram_energy={},
                    compute_energy={},
                    comm_energy_j=0.0,
                )
                reference.record(latency, float(tokens))
                done += 1
                continue
            run = palette[rng.integers(palette.size, size=int(rng.integers(1, 40)))]
            collector.record_decode_run(
                latencies=run,
                decode_tokens=tokens,
                energy_components=[],
                comm_energy_per_stage_j=0.0,
            )
            for latency in run.tolist():
                reference.record(latency, float(tokens))
            done += run.size
        return collector, reference, palette

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_report_slo_and_cursor_match_reference(self, seed):
        collector, reference, palette = self._fill(seed, n_stages=1500)
        report = collector.report()
        assert (report.tbt_p50_s, report.tbt_p90_s, report.tbt_p99_s) == reference.percentiles()
        for slo in sorted(palette.tolist()) + [0.0005, 0.05]:
            assert collector.tbt_slo_attainment(slo) == reference.slo(slo)
        total = reference.count
        # Cursors inside, at and across the 512-sample cap.
        for cursor in (0, 1, total - 1000, total - 513, total - 512, total - 511, total - 3,
                       total, total + 5):
            assert collector.tbt_samples_since(cursor) == reference.since(cursor)

    def test_merged_matches_reference(self):
        members = [self._fill(seed, n_stages=n) for seed, n in ((10, 700), (11, 300), (12, 40))]
        fleet = MetricsCollector.merged([collector for collector, _, _ in members])
        reference = _ReferenceTbtStore()
        for _, member, _ in members:
            reference.merge(member)
        report = fleet.report()
        assert (report.tbt_p50_s, report.tbt_p90_s, report.tbt_p99_s) == reference.percentiles()
        assert fleet.tbt_slo_attainment(0.01) == reference.slo(0.01)
        total = reference.count
        for cursor in (0, total - 600, total - 512, total - 100, total):
            assert fleet.tbt_samples_since(cursor) == reference.since(cursor)

    def test_samples_keep_record_order(self):
        collector, reference, _ = self._fill(5, n_stages=200)
        values, weights, cursor = collector.tbt_samples_since(reference.count - 200)
        assert cursor == reference.count
        assert list(zip(values, weights, strict=True)) == list(reference.recent)[-200:]


class TestExactMedian:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0],
            [2.0, 1.0],
            [5.0, 1.0, 3.0],
            [4.0, 1.0, 3.0, 2.0],
            [2.0, 2.0, 2.0, 2.0],  # all tied
            [1.0, 2.0, 2.0, 7.0],  # tie across the middle pair
            [0.1, 0.2, 0.2, 0.3, 0.3, 0.3],
        ],
    )
    def test_small_cases_match_numpy(self, values):
        assert exact_median(values) == float(np.median(values))

    def test_random_lists_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for size in range(1, 200):
            # Rounded draws make ties common; the raw ones exercise odd
            # sums whose halving rounds.
            raw = rng.lognormal(mean=-3.0, sigma=1.5, size=size)
            for values in (raw.tolist(), np.round(raw, 2).tolist()):
                ours = exact_median(values)
                assert isinstance(ours, float)
                assert ours.hex() == float(np.median(values)).hex()

    def test_report_does_not_import_numpy_ma(self):
        """np.median's lazy numpy.ma import (about 1 MB) stays out of a run."""
        script = textwrap.dedent(
            """
            import sys
            from repro import (ServingSimulator, SimulationLimits, WorkloadSpec,
                               duplex_system, mixtral)
            model = mixtral()
            system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
            spec = WorkloadSpec(lin_mean=128, lout_mean=16, qps=30.0)
            report = ServingSimulator(system, model, spec, max_batch=4, seed=0).run(
                SimulationLimits(max_stages=120, warmup_stages=4)
            )
            assert report.requests_completed > 0 and report.t2ft_p50_s > 0
            print("numpy.ma" in sys.modules)
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert done.stdout.strip() == "False"
