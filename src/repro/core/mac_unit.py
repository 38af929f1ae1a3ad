"""Per-bank MAC datapath: 16 multipliers + adder tree + result latch(es).

Two functional paths model the same hardware:

* :class:`BankMacUnit` — the scalar, per-command path: one COMP feeds 16
  lane products through the adder tree into the latch. The per-command
  :class:`~repro.core.reference.ReferenceExecutor` drives one per bank
  as the bit-exact reference.
* :func:`tile_compute` — the vectorized path: evaluates one whole tile
  (every bank x every sub-chunk of a DRAM row) with identical rounding
  and accumulation *order*, so it is bit-identical to the scalar path
  (a property test pins this). The engine's batched datapath evaluates
  many tiles at once with the same kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dram.config import DRAMConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.numerics.adder_tree import AdderTree
from repro.numerics.bfloat16 import quantize_bf16
from repro.numerics.vectorized import (
    LaneScratch,
    batched_tile_compute,
    grid_add,
    tree_reduce_block,
)


class BankMacUnit:
    """One bank's multiplier array, adder tree, and result latches."""

    def __init__(self, config: DRAMConfig, num_latches: int = 1):
        if num_latches < 1:
            raise ConfigurationError("a bank needs at least one result latch")
        self.config = config
        self.lanes = config.mults_per_bank
        self.num_latches = num_latches
        self._tree = AdderTree(self.lanes)
        self._latches = np.zeros(num_latches, dtype=np.float32)
        # Per-call hot-loop scratch: compute() runs once per COMP on the
        # scalar path, so its operand/product buffers live here rather
        # than being rebuilt every call.
        self._scratch = LaneScratch(self.lanes)
        self.macs = 0

    def _check_latch(self, latch: int) -> None:
        if not 0 <= latch < self.num_latches:
            raise ProtocolError(f"latch {latch} outside [0, {self.num_latches})")

    def compute(
        self,
        matrix_subchunk: np.ndarray,
        input_subchunk: np.ndarray,
        latch: int = 0,
    ) -> None:
        """One COMP: lane multiplies, tree reduction, latch accumulate."""
        self._check_latch(latch)
        a = np.asarray(matrix_subchunk, dtype=np.float32).reshape(-1)
        b = np.asarray(input_subchunk, dtype=np.float32).reshape(-1)
        if a.shape != (self.lanes,) or b.shape != (self.lanes,):
            raise ProtocolError(
                f"COMP operands must be {self.lanes}-wide sub-chunks, got "
                f"{a.shape[0]} and {b.shape[0]}"
            )
        # bf16_mul / adder_tree_reduce / bf16_add semantics, evaluated in
        # the preallocated scratch (bit-identical; pinned by the property
        # suite and tests/numerics/test_vectorized.py).
        products = self._scratch.mul(a, b)
        tree_sum = self._scratch.tree_reduce(products)
        self._latches[latch] = self._scratch.accumulate(
            float(self._latches[latch]), tree_sum
        )
        self.macs += self.lanes

    def latch_value(self, latch: int = 0) -> float:
        """Peek a latch (bfloat16 value, as float)."""
        self._check_latch(latch)
        return float(self._latches[latch])

    def read_and_clear(self, latch: int = 0) -> float:
        """READRES semantics: read out and reset one latch."""
        self._check_latch(latch)
        value = float(self._latches[latch])
        self._latches[latch] = 0.0
        return value

    @property
    def tree_pipeline_depth(self) -> int:
        """Adder stages the drain delay must cover."""
        return self._tree.pipeline_depth


def tile_compute(
    matrix_rows_f32: np.ndarray,
    input_chunk_f32: np.ndarray,
    latches: np.ndarray,
    lanes: int,
    subchunk_order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized evaluation of one tile's COMP sequence.

    Args:
        matrix_rows_f32: (banks, chunk_elems) float32 already on the
            bfloat16 grid (read straight from storage bits).
        input_chunk_f32: (chunk_elems,) float32 on the bfloat16 grid
            (the global buffer's contents).
        latches: (banks,) float32 current latch values; returned updated
            (a new array), accumulated in ascending sub-chunk order
            exactly like the per-command path.
        lanes: multipliers per bank (sub-chunk width).
        subchunk_order: optional explicit ordering of sub-chunk indices
            (defaults to ascending, which is what the command stream
            issues).

    Returns:
        The updated (banks,) latch array.
    """
    banks, chunk_elems = matrix_rows_f32.shape
    if input_chunk_f32.shape != (chunk_elems,):
        raise ProtocolError(
            f"input chunk of {input_chunk_f32.shape[0]} elements, matrix "
            f"chunk has {chunk_elems}"
        )
    if chunk_elems % lanes != 0:
        raise ProtocolError("chunk width must be a whole number of sub-chunks")
    subchunks = chunk_elems // lanes
    carry = np.asarray(latches, dtype=np.float32)

    if subchunk_order is None:
        # The common (command-stream) order: delegate to the batched
        # kernel as a 1-tile block.
        return batched_tile_compute(
            np.asarray(matrix_rows_f32, dtype=np.float32)[None, :, :],
            np.asarray(input_chunk_f32, dtype=np.float32),
            carry[None, :],
            lanes,
        )[0]

    with np.errstate(over="ignore", invalid="ignore"):
        products = quantize_bf16(matrix_rows_f32 * input_chunk_f32[None, :])
    tree_sums = tree_reduce_block(
        products.reshape(banks, subchunks, lanes)
    )  # (banks, subchunks)
    acc = quantize_bf16(carry)
    for s in np.asarray(subchunk_order, dtype=np.int64):
        acc = grid_add(acc, tree_sums[:, s])
    return acc
