"""Model configurations (the paper's Table I) and derived quantities.

Two structural knobs cover all five models:

* ``moe_layer_interval`` — 1 means every decoder block carries an MoE layer
  (Mixtral, Grok1); 2 means blocks alternate dense FFN / MoE (GLaM);
  0 means no MoE at all (OPT, Llama3).
* ``ffn_matrices`` — 3 for gated FFNs (gate-, up-, down-projection as in
  Mixtral/Grok1/Llama3), 2 for the classic two-matrix FFN (GLaM, OPT).

Everything else (parameter counts, weight bytes, KV-vector sizes) is derived
so tests can check the totals against the paper's advertised sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """One decoder-only LLM.

    Attributes:
        name: model label used in reports.
        n_layers: decoder blocks.
        hidden: hidden (embedding) dimension.
        intermediate: FFN intermediate dimension.
        n_heads: attention query heads.
        group_degree: query heads per KV head (deggrp; 1 = MHA).
        n_experts: experts per MoE layer (0 = dense model).
        top_k: experts each token routes to.
        moe_layer_interval: every how many blocks an MoE layer appears
            (1 = all, 2 = alternate, 0 = never).
        ffn_matrices: matrices per FFN/expert (3 = gated, 2 = classic).
        vocab_size: vocabulary for embedding and LM head.
        dtype_bytes: bytes per weight/activation scalar (FP16 = 2).
        num_shared_experts: DeepSeekMoE-style shared experts per MoE layer.
            Shared experts are always activated for every token, alongside
            the top-k routed experts, and are replicated on every device.
    """

    name: str
    n_layers: int
    hidden: int
    intermediate: int
    n_heads: int
    group_degree: int
    n_experts: int
    top_k: int
    moe_layer_interval: int
    ffn_matrices: int = 3
    vocab_size: int = 32000
    dtype_bytes: int = 2
    num_shared_experts: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.hidden < 1 or self.intermediate < 1:
            raise ConfigError(f"{self.name}: dimensions must be positive")
        if self.n_heads < 1 or self.hidden % self.n_heads != 0:
            raise ConfigError(f"{self.name}: hidden must divide evenly into heads")
        if self.group_degree < 1 or self.n_heads % self.group_degree != 0:
            raise ConfigError(f"{self.name}: group_degree must divide n_heads")
        if self.n_experts < 0 or (self.n_experts > 0 and not 1 <= self.top_k <= self.n_experts):
            raise ConfigError(f"{self.name}: top_k must be within 1..n_experts")
        if self.n_experts > 0 and self.moe_layer_interval < 1:
            raise ConfigError(f"{self.name}: an MoE model needs moe_layer_interval >= 1")
        if self.n_experts == 0 and self.moe_layer_interval != 0:
            raise ConfigError(f"{self.name}: a dense model must use moe_layer_interval = 0")
        if self.ffn_matrices not in (2, 3):
            raise ConfigError(f"{self.name}: ffn_matrices must be 2 or 3")
        if self.num_shared_experts < 0:
            raise ConfigError(f"{self.name}: num_shared_experts must be non-negative")
        if self.num_shared_experts > 0 and not self.is_moe:
            raise ConfigError(f"{self.name}: a dense model cannot have shared experts")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_moe(self) -> bool:
        return self.n_experts > 0

    @property
    def d_head(self) -> int:
        return self.hidden // self.n_heads

    @property
    def n_kv_heads(self) -> int:
        return self.n_heads // self.group_degree

    @property
    def n_moe_layers(self) -> int:
        """Decoder blocks whose FFN is an MoE layer."""
        if not self.is_moe:
            return 0
        return self.n_layers // self.moe_layer_interval

    @property
    def n_dense_ffn_layers(self) -> int:
        """Decoder blocks with a conventional FFN."""
        return self.n_layers - self.n_moe_layers

    # ------------------------------------------------------------------
    # parameter counts
    # ------------------------------------------------------------------
    @property
    def attention_params_per_layer(self) -> int:
        """Q, K, V and output projections of one block."""
        q_and_o = 2 * self.hidden * self.hidden
        k_and_v = 2 * self.hidden * (self.n_kv_heads * self.d_head)
        return q_and_o + k_and_v

    @property
    def expert_params(self) -> int:
        """Parameters of a single expert FFN."""
        return self.ffn_matrices * self.hidden * self.intermediate

    @property
    def dense_ffn_params(self) -> int:
        """Parameters of one conventional FFN (same shape as one expert)."""
        return self.expert_params

    @property
    def gate_params(self) -> int:
        """Router parameters of one MoE layer."""
        return self.hidden * self.n_experts if self.is_moe else 0

    @property
    def embedding_params(self) -> int:
        """Token embedding plus LM head."""
        return 2 * self.vocab_size * self.hidden

    @property
    def total_params(self) -> int:
        attention = self.n_layers * self.attention_params_per_layer
        experts_per_layer = self.n_experts + self.num_shared_experts
        moe = self.n_moe_layers * (experts_per_layer * self.expert_params + self.gate_params)
        dense = self.n_dense_ffn_layers * self.dense_ffn_params
        return attention + moe + dense + self.embedding_params

    # ------------------------------------------------------------------
    # byte footprints
    # ------------------------------------------------------------------
    @property
    def expert_bytes(self) -> float:
        return self.expert_params * self.dtype_bytes

    @property
    def total_weight_bytes(self) -> float:
        return self.total_params * self.dtype_bytes

    @property
    def shared_expert_weight_bytes(self) -> float:
        """Weights of the always-on shared experts across all MoE layers."""
        return self.n_moe_layers * self.num_shared_experts * self.expert_bytes

    @property
    def non_expert_weight_bytes(self) -> float:
        """Everything the xPU streams for non-MoE work (incl. dense FFNs)."""
        moe_bytes = self.n_moe_layers * self.n_experts * self.expert_bytes
        return self.total_weight_bytes - moe_bytes - self.shared_expert_weight_bytes

    @property
    def kv_bytes_per_token_per_layer(self) -> float:
        """K plus V vectors for one token in one layer."""
        return 2 * self.n_kv_heads * self.d_head * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> float:
        """K plus V vectors for one token across all layers."""
        return self.n_layers * self.kv_bytes_per_token_per_layer


# ----------------------------------------------------------------------
# Table I presets
# ----------------------------------------------------------------------
def mixtral() -> ModelConfig:
    """Mixtral 8x7B (47B): all-MoE blocks, GQA with deggrp = 4."""
    return ModelConfig(
        name="Mixtral-47B",
        n_layers=32,
        hidden=4096,
        intermediate=14336,
        n_heads=32,
        group_degree=4,
        n_experts=8,
        top_k=2,
        moe_layer_interval=1,
        ffn_matrices=3,
    )


def glam() -> ModelConfig:
    """GLaM (143B): alternating dense/MoE blocks, MHA, 64 experts."""
    return ModelConfig(
        name="GLaM-143B",
        n_layers=32,
        hidden=4096,
        intermediate=16384,
        n_heads=32,
        group_degree=1,
        n_experts=64,
        top_k=2,
        moe_layer_interval=2,
        ffn_matrices=2,
    )


def grok1() -> ModelConfig:
    """Grok-1 (314B): all-MoE blocks, GQA with deggrp = 6."""
    return ModelConfig(
        name="Grok1-314B",
        n_layers=64,
        hidden=6144,
        intermediate=32768,
        n_heads=48,
        group_degree=6,
        n_experts=8,
        top_k=2,
        moe_layer_interval=1,
        ffn_matrices=3,
    )


def opt_66b() -> ModelConfig:
    """OPT-66B: dense model with MHA (the paper's non-MoE, non-GQA point)."""
    return ModelConfig(
        name="OPT-66B",
        n_layers=64,
        hidden=9216,
        intermediate=36864,
        n_heads=72,
        group_degree=1,
        n_experts=0,
        top_k=0,
        moe_layer_interval=0,
        ffn_matrices=2,
        vocab_size=50272,
    )


def llama3_70b() -> ModelConfig:
    """Llama-3 70B: dense model with GQA, deggrp = 8."""
    return ModelConfig(
        name="Llama3-70B",
        n_layers=80,
        hidden=8192,
        intermediate=28672,
        n_heads=64,
        group_degree=8,
        n_experts=0,
        top_k=0,
        moe_layer_interval=0,
        ffn_matrices=3,
        vocab_size=128256,
    )


def paper_models() -> dict[str, ModelConfig]:
    """All Table I models keyed by short name."""
    return {
        "mixtral": mixtral(),
        "glam": glam(),
        "grok1": grok1(),
        "opt": opt_66b(),
        "llama3": llama3_70b(),
    }
