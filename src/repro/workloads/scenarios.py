"""The LLM serving scenario pack: decode, MoE routing, LoRA adapters.

Three memory-bound model graphs beyond the Figure 8 classics, exercising
the stateful layer kinds the session executor
(:mod:`repro.host.graph_runtime`) adds on top of plain FC chains:

* **decode** — a small transformer decoder run one token at a time. Each
  block projects q/k/v, scores the query against a **bank-resident
  KV-cache arena** that grows in place across ``step()`` calls
  (``kind="attention"``), then runs the output and FFN projections. The
  per-step command streams are window-sized, so decode settles into the
  steady-state replay tier like any fixed shape.
* **moe** — sparse mixture-of-experts: a router GEMV picks ``top_k`` of
  ``experts`` per token and only the selected expert matrices run
  (``kind="moe"``). All expert matrices are resident (placement follows
  the backend — on a sharded cluster every expert is row-sharded across
  the devices).
* **lora** — low-rank adaptation: every layer is a frozen base GEMV plus
  a rank-``r`` delta ``B @ (A @ x)`` (``kind="lora"``); the A→B chain and
  the base/A input reuse both fuse, so two of a layer's three GEMVs skip
  the host GWRITE round trip in fused mode.

Shapes default small (``d=256``) so functional simulation stays fast;
the shapes, not the sizes, carry the behaviour under study.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.workloads.spec import LayerSpec, ModelSpec


def decode_model(
    *, d: int = 256, window: int = 32, blocks: int = 2, ffn_mult: int = 2
) -> ModelSpec:
    """A per-token transformer decode graph with a growing KV-cache.

    ``window`` is the KV-cache arena capacity: a session allocates the
    K (``window x d``) and V (``d x window``) arenas bank-resident at
    open and appends one token per step — stepping past ``window``
    tokens raises. Per block: q/k/v projections, cached attention, the
    attention output projection (normalized), and a ``ffn_mult``-wide
    FFN pair.
    """
    if d <= 0 or window <= 0 or blocks <= 0 or ffn_mult <= 0:
        raise ConfigurationError("decode_model dimensions must be positive")
    layers: List[LayerSpec] = []
    for b in range(blocks):
        for proj in ("q", "k", "v"):
            layers.append(LayerSpec(f"blk{b}_{proj}", m=d, n=d))
        layers.append(
            LayerSpec(
                f"blk{b}_attn",
                kind="attention",
                m=window,
                n=d,
                window=window,
            )
        )
        layers.append(LayerSpec(f"blk{b}_attn_out", m=d, n=d, batchnorm=True))
        layers.append(
            LayerSpec(f"blk{b}_ffn_up", m=ffn_mult * d, n=d, activation="gelu")
        )
        layers.append(
            LayerSpec(f"blk{b}_ffn_down", m=d, n=ffn_mult * d, batchnorm=True)
        )
    return ModelSpec(
        name="decode",
        layers=tuple(layers),
        description=(
            f"{blocks}-block transformer decode, d={d}, "
            f"KV window {window} tokens"
        ),
    )


def moe_model(
    *, d: int = 256, experts: int = 4, top_k: int = 2, blocks: int = 2
) -> ModelSpec:
    """Sparse MoE blocks: a dense mixing GEMV, then routed experts."""
    if d <= 0 or blocks <= 0:
        raise ConfigurationError("moe_model dimensions must be positive")
    layers: List[LayerSpec] = []
    for b in range(blocks):
        layers.append(LayerSpec(f"blk{b}_mix", m=d, n=d, activation="relu"))
        layers.append(
            LayerSpec(
                f"blk{b}_moe",
                kind="moe",
                m=d,
                n=d,
                experts=experts,
                top_k=top_k,
            )
        )
    return ModelSpec(
        name="moe",
        layers=tuple(layers),
        description=(
            f"{blocks} MoE blocks, d={d}, top-{top_k} of {experts} experts"
        ),
    )


def lora_model(*, d: int = 256, rank: int = 8, blocks: int = 4) -> ModelSpec:
    """A stack of LoRA-adapted layers (base GEMV + low-rank delta)."""
    if d <= 0 or blocks <= 0:
        raise ConfigurationError("lora_model dimensions must be positive")
    layers = tuple(
        LayerSpec(f"lora{b}", kind="lora", m=d, n=d, rank=rank, activation="relu")
        for b in range(blocks)
    )
    return ModelSpec(
        name="lora",
        layers=layers,
        description=f"{blocks} LoRA layers, d={d}, rank {rank}",
    )


SCENARIOS = ("decode", "moe", "lora")
"""The scenario names `newton-repro scenario` accepts."""


def scenario_model(name: str, **kwargs) -> ModelSpec:
    """Build a scenario graph by name (kwargs reach the factory).

    Raises:
        ConfigurationError: for unknown scenario names.
    """
    factories: Dict[str, object] = {
        "decode": decode_model,
        "moe": moe_model,
        "lora": lora_model,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {SCENARIOS}"
        ) from None
    return factory(**kwargs)
