"""Property tests: a priced run equals the scalar stages it stands for.

:meth:`StageExecutor.price_decode_run` prices ``n`` consecutive stages in
one pass: stage ``k`` is the steady decode batch at ``base + k``, or, when
an admission stage ``first`` opens the run, stage 1 is that mixed
composition and stages ``2..n`` are the decode batch after it.  Every
float must equal what ``run_stage`` computes stage by stage on a twin
executor, and :meth:`StageExecutor.rewind_decode_run` must leave the
gating stream exactly where the committed number of scalar stages would,
for every system family the executor prices and for co-processing groups
of one, two, sixteen and uneven sizes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.executor import StageExecutor, StageWorkload  # noqa: E402
from repro.core.system import (  # noqa: E402
    duplex_system,
    gpu_system,
    hetero_system,
    sharded_system,
)
from repro.errors import SimulationError  # noqa: E402
from repro.models.config import glam, grok1, llama3_70b, mixtral  # noqa: E402

MIXTRAL = mixtral()
SHARED = replace(MIXTRAL, num_shared_experts=2)
#: Six experts over four memory spaces: co-processing groups of 2, 2, 1, 1.
RAGGED = replace(MIXTRAL, n_experts=6)
GROK = grok1()
DENSE = llama3_70b()
GLAM = glam()

#: (system, model, deterministic gating) per pricing family.
SHAPES = {
    "gpu": (gpu_system(MIXTRAL), MIXTRAL, False),
    "duplex": (duplex_system(MIXTRAL), MIXTRAL, False),
    "duplex-pe": (duplex_system(MIXTRAL, co_processing=True), MIXTRAL, False),
    "duplex-pe-et": (
        duplex_system(MIXTRAL, co_processing=True, expert_tensor_parallel=True),
        MIXTRAL,
        False,
    ),
    "hetero": (hetero_system(MIXTRAL), MIXTRAL, False),
    "sharded-tp4-ep2": (sharded_system(MIXTRAL, tp=4, ep=2), MIXTRAL, False),
    "sharded-et-tp2-ep4": (
        sharded_system(MIXTRAL, tp=2, ep=4, expert_tensor_parallel=True),
        MIXTRAL,
        False,
    ),
    "multi-node-gpu": (gpu_system(GROK), GROK, False),
    "multi-node-duplex-pe": (duplex_system(GROK, co_processing=True), GROK, False),
    "dense": (duplex_system(DENSE, co_processing=True), DENSE, False),
    "shared-experts": (
        duplex_system(SHARED, co_processing=True, expert_tensor_parallel=True),
        SHARED,
        False,
    ),
    "deterministic": (duplex_system(MIXTRAL, co_processing=True), MIXTRAL, True),
    "ragged-groups": (
        duplex_system(RAGGED, co_processing=True, expert_tensor_parallel=True),
        RAGGED,
        False,
    ),
    "wide-groups": (
        duplex_system(GLAM, co_processing=True, expert_tensor_parallel=True),
        GLAM,
        False,
    ),
}

contexts = st.lists(st.integers(0, 6000), min_size=1, max_size=40)
admission = st.tuples(
    st.lists(st.integers(0, 6000), min_size=0, max_size=40),  # decode contexts
    st.lists(st.integers(1, 5000), min_size=1, max_size=4),  # prefill chunks
    st.booleans(),  # chunked (prior prefill context)
)


def _executors(shape: str, seed: int) -> tuple[StageExecutor, StageExecutor]:
    system, model, deterministic = SHAPES[shape]
    return tuple(  # type: ignore[return-value]
        StageExecutor(system, model, seed=seed, deterministic_gating=deterministic)
        for _ in range(2)
    )


def _first_stage(decode, prefills, chunked) -> StageWorkload:
    return StageWorkload(
        decode_context_lengths=np.asarray(decode, dtype=np.int64),
        prefill_lengths=tuple(prefills),
        prefill_context_lengths=tuple(7 * p for p in prefills) if chunked else (),
    )


def _decode_stage(base: np.ndarray, k: int) -> StageWorkload:
    return StageWorkload(decode_context_lengths=base + k)


def _rng(executor: StageExecutor):
    router = executor._router
    return None if router is None else router.state_snapshot()


def _assert_rows_equal(pricing, first_ref, decode_refs) -> None:
    """Every float of the priced run equals the scalar stages'."""
    latencies = [] if first_ref is None else [first_ref.latency_s]
    latencies += [ref.latency_s for ref in decode_refs]
    assert pricing.latencies.tolist() == latencies
    for index, category in enumerate(pricing.categories):
        assert pricing.dram[index].tolist() == [
            ref.dram_energy_by_category[category] for ref in decode_refs
        ]
        assert pricing.compute[index].tolist() == [
            ref.compute_energy_by_category[category] for ref in decode_refs
        ]
    for ref in decode_refs:
        assert list(ref.dram_energy_by_category) == list(pricing.categories)
        assert ref.comm_energy_j == pricing.comm_energy_j
    if first_ref is None:
        assert pricing.first is None
        return
    first = pricing.first
    assert first == first_ref
    # Insertion order too: metrics fold the buckets in dict order.
    assert list(first.time_by_category) == list(first_ref.time_by_category)
    assert list(first.dram_energy_by_category) == list(first_ref.dram_energy_by_category)
    assert list(first.compute_energy_by_category) == list(
        first_ref.compute_energy_by_category
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=25, deadline=None)
@given(
    base=contexts,
    first=admission,
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_admission_run_rows_equal_scalar_stages(shape, base, first, n, seed, data):
    base = np.asarray(base, dtype=np.int64)
    workload = _first_stage(*first)
    fused, scalar = _executors(shape, seed)
    pricing = fused.price_decode_run(base, n, first=workload)
    assert pricing is not None and pricing.n_stages == n
    first_ref = scalar.run_stage(workload)
    decode_refs = [scalar.run_stage(_decode_stage(base, k)) for k in range(2, n + 1)]
    _assert_rows_equal(pricing, first_ref, decode_refs)
    assert _rng(fused) == _rng(scalar)  # a full commit leaves the stream in step

    committed = data.draw(st.integers(1, n), label="committed")
    fused, scalar = _executors(shape, seed)
    fused.rewind_decode_run(fused.price_decode_run(base, n, first=workload), committed)
    scalar.run_stage(workload)
    for k in range(2, committed + 1):
        scalar.run_stage(_decode_stage(base, k))
    assert _rng(fused) == _rng(scalar)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=15, deadline=None)
@given(base=contexts, n=st.integers(1, 12), seed=st.integers(0, 2**16), data=st.data())
def test_decode_run_rows_equal_scalar_stages(shape, base, n, seed, data):
    base = np.asarray(base, dtype=np.int64)
    fused, scalar = _executors(shape, seed)
    pricing = fused.price_decode_run(base, n)
    decode_refs = [scalar.run_stage(_decode_stage(base, k)) for k in range(1, n + 1)]
    _assert_rows_equal(pricing, None, decode_refs)
    assert _rng(fused) == _rng(scalar)

    committed = data.draw(st.integers(0, n), label="committed")
    fused, scalar = _executors(shape, seed)
    fused.rewind_decode_run(fused.price_decode_run(base, n), committed)
    for k in range(1, committed + 1):
        scalar.run_stage(_decode_stage(base, k))
    assert _rng(fused) == _rng(scalar)


def test_admission_run_always_commits_its_first_stage():
    system, model, _ = SHAPES["duplex-pe-et"]
    executor = StageExecutor(system, model, seed=3)
    base = np.arange(10, 18, dtype=np.int64)
    pricing = executor.price_decode_run(base, 4, first=_first_stage([5, 9], [300], False))
    with pytest.raises(SimulationError):
        executor.rewind_decode_run(pricing, 0)


def test_prefill_counts_never_grow_the_price_caches():
    """Counts above a stage's decode bound are priced directly: neither a
    scalar mixed stage nor an admission run adds them to the per-count
    price cache, and the run LUT stays at the decode batch's bound."""
    system, model, _ = SHAPES["duplex-pe-et"]
    executor = StageExecutor(system, model, seed=5)
    base = np.full(16, 900, dtype=np.int64)
    bound = 16 * model.top_k
    executor.run_stage(_first_stage([900] * 15, [2048], False))
    executor.price_decode_run(base, 8, first=_first_stage([900] * 15, [4096], False))
    executor.run_stage(_decode_stage(base, 9))
    assert max(executor._expert_price_cache) <= bound
    assert executor._run_lut_max == bound
