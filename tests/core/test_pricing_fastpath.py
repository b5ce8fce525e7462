"""Property tests: the vectorized pricing fast path is bit-exact.

The golden snapshots (tests/golden) pin the end-to-end serving stack
byte-for-byte; these tests pin the *mechanism* — every vectorized pricing
primitive must reproduce its retained scalar reference bit-for-bit, for
randomized inputs far beyond what the goldens exercise:

* :meth:`LayerMath.attention_prefill` (a per-request Python loop) vs
  :func:`attention_prefill_numpy` below (the same terms as masked arrays
  summed by a cumulative sum — an independent formulation);
* :meth:`LayerMath.expert_ffn_arrays` vs per-expert :meth:`LayerMath.expert_ffn`;
* :meth:`ProcessingUnit.op_times` / energy batches vs the scalar calls;
* :func:`assign_experts` (stable argsort + seeded cumulative sums, with the
  scalar small-count path) vs :func:`assign_experts_reference` (the
  original iterative greedy), with and without memory-space groups.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.coprocessing import (  # noqa: E402
    ExpertTimeLookup,
    assign_experts,
    assign_experts_reference,
    round_robin_space_groups,
)
from repro.hardware.specs import h100_xpu, logic_pim_unit  # noqa: E402
from repro.models.config import glam, mixtral  # noqa: E402
from repro.errors import ConfigError  # noqa: E402
from repro.models.layers import SOFTMAX_FLOPS_PER_SCORE, LayerMath  # noqa: E402
from repro.models.ops import OpCategory, Operator  # noqa: E402

MODELS = {"mixtral": mixtral(), "glam": glam()}
FRACTIONS = (1.0, 0.5, 0.25, 1.0 / 3.0, 0.125)

def attention_prefill_numpy(math, prefill_lengths, kv_fraction=1.0, context_lengths=None):
    """Prefill attention as elementwise arrays: the oracle the loop is pinned to.

    Every per-request term is computed in the loop's floating-point
    operation order; zero-length requests are masked to contribute
    nothing, and a cumulative sum over the interleaved flop terms
    reproduces the loop's left-to-right accumulation (``np.sum`` would
    reassociate).
    """
    m = math.model
    lengths = np.array(list(prefill_lengths), dtype=np.float64)
    if context_lengths is None:
        contexts = np.zeros_like(lengths)
    else:
        contexts = np.array(list(context_lengths), dtype=np.float64)
        if contexts.shape != lengths.shape:
            raise ConfigError("context_lengths must parallel prefill_lengths")
    if lengths.size == 0:
        return Operator("attention_prefill", OpCategory.ATTENTION_PREFILL, 0.0, 0.0, 0.0)
    if (lengths < 0).any() or (contexts < 0).any():
        raise ConfigError("prefill lengths must be non-negative")
    causal_scores = contexts * lengths + 0.5 * lengths * lengths
    qk_flops = 4.0 * m.n_heads * m.d_head * causal_scores * kv_fraction
    softmax_flops = SOFTMAX_FLOPS_PER_SCORE * m.n_heads * causal_scores * kv_fraction
    q_bytes = lengths * m.n_heads * m.d_head * m.dtype_bytes * kv_fraction
    kv_bytes = (contexts + lengths) * m.kv_bytes_per_token_per_layer * kv_fraction
    kv_bytes[lengths == 0] = 0.0
    interleaved = np.empty(2 * lengths.size)
    interleaved[0::2] = qk_flops
    interleaved[1::2] = softmax_flops
    return Operator(
        "attention_prefill",
        OpCategory.ATTENTION_PREFILL,
        float(interleaved.cumsum()[-1]),
        float((q_bytes + kv_bytes).cumsum()[-1]),
        float(q_bytes.cumsum()[-1]),
    )


lengths_strategy = st.lists(st.integers(0, 8192), min_size=1, max_size=12)
counts_strategy = st.lists(st.integers(0, 8000), min_size=1, max_size=70)


@settings(max_examples=60, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    lengths=lengths_strategy,
    contexts=st.lists(st.integers(0, 8192), min_size=12, max_size=12),
    kv_fraction=st.sampled_from(FRACTIONS),
    with_contexts=st.booleans(),
)
def test_attention_prefill_matches_array_oracle(
    model_key, lengths, contexts, kv_fraction, with_contexts
):
    math = LayerMath(MODELS[model_key])
    ctx = contexts[: len(lengths)] if with_contexts else None
    looped = math.attention_prefill(lengths, kv_fraction, ctx)
    oracle = attention_prefill_numpy(math, lengths, kv_fraction, ctx)
    assert looped.flops == oracle.flops
    assert looped.bytes_read == oracle.bytes_read
    assert looped.bytes_written == oracle.bytes_written


@settings(max_examples=60, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    counts=counts_strategy,
    fraction=st.sampled_from(FRACTIONS),
)
def test_expert_ffn_arrays_match_scalar_operators(model_key, counts, fraction):
    math = LayerMath(MODELS[model_key])
    flops, bytes_read, bytes_written = math.expert_ffn_arrays(counts, fraction)
    for index, tokens in enumerate(counts):
        op = math.expert_ffn(index, tokens, fraction)
        assert flops[index] == op.flops
        assert bytes_read[index] == op.bytes_read
        assert bytes_written[index] == op.bytes_written


@settings(max_examples=60, deadline=None)
@given(
    counts=counts_strategy,
    fraction=st.sampled_from(FRACTIONS),
    unit_key=st.sampled_from(("xpu", "pim")),
)
def test_op_time_and_energy_batches_match_scalar(counts, fraction, unit_key):
    math = LayerMath(MODELS["mixtral"])
    unit = h100_xpu() if unit_key == "xpu" else logic_pim_unit()
    flops, bytes_read, bytes_written = math.expert_ffn_arrays(counts, fraction)
    times = unit.op_times(flops, bytes_read, bytes_written)
    dram = unit.dram_energies(bytes_read, bytes_written)
    compute = unit.compute_energies(flops)
    for i in range(len(counts)):
        assert times[i] == unit.op_time(float(flops[i]), float(bytes_read[i]), float(bytes_written[i]))
        assert dram[i] == unit.dram_energy(float(bytes_read[i]), float(bytes_written[i]))
        assert compute[i] == unit.compute_energy(float(flops[i]))


@settings(max_examples=80, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    counts=counts_strategy,
    fraction=st.sampled_from((1.0, 0.25)),
    spaces=st.integers(0, 7),
)
def test_greedy_assignment_matches_iterative_reference(model_key, counts, fraction, spaces):
    lookup = ExpertTimeLookup(
        LayerMath(MODELS[model_key]), h100_xpu(), logic_pim_unit(), fraction
    )
    groups = round_robin_space_groups(len(counts), spaces) if spaces > 0 else None
    arr = np.asarray(counts, dtype=np.int64)
    fast = assign_experts(arr, lookup, groups)
    reference = assign_experts_reference(arr, lookup, groups)
    assert fast.xpu_experts == reference.xpu_experts
    assert fast.pim_experts == reference.pim_experts
    assert fast.xpu_time_s == reference.xpu_time_s
    assert fast.pim_time_s == reference.pim_time_s


def test_zero_and_empty_edge_cases_match():
    math = LayerMath(MODELS["mixtral"])
    lookup = ExpertTimeLookup(math, h100_xpu(), logic_pim_unit())
    # all-zero counts: no time, everything parked on PIM by convention
    outcome = assign_experts(np.zeros(6, dtype=np.int64), lookup)
    reference = assign_experts_reference(np.zeros(6, dtype=np.int64), lookup)
    assert outcome == reference
    assert outcome.makespan_s == 0.0
    # empty prefill
    vec = math.attention_prefill([])
    ref = attention_prefill_numpy(math, [])
    assert (vec.flops, vec.bytes_read, vec.bytes_written) == (
        ref.flops,
        ref.bytes_read,
        ref.bytes_written,
    )
    # zero-length requests are skipped exactly
    vec = math.attention_prefill([0, 64, 0], 0.5, [10, 20, 30])
    ref = attention_prefill_numpy(math, [0, 64, 0], 0.5, [10, 20, 30])
    assert (vec.flops, vec.bytes_read, vec.bytes_written) == (
        ref.flops,
        ref.bytes_read,
        ref.bytes_written,
    )
