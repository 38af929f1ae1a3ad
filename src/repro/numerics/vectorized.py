"""Batched bfloat16 kernels: whole COMP bursts as single array ops.

The functional datapath's bit-level contract is fixed by the per-COMP
MAC unit (:class:`~repro.core.mac_unit.BankMacUnit`): round to nearest
even at the multiplier, at every adder-tree stage, and at the result
latch's accumulation, in exactly the order the command stream issues.
This module provides the same arithmetic over *blocks* — a whole buffer
group's worth of tiles evaluated as ``(tiles, banks, subchunks, lanes)``
arrays — so the per-command (and per-tile) Python interpreter overhead
amortizes across hundreds of COMP commands per NumPy call.

Two facts make the batch bit-identical rather than merely close:

* every rounding step is **elementwise** (:func:`quantize_bf16` is a
  pure bit transform of each float32 independently), so evaluating many
  lanes/banks/tiles in one array op performs the identical operation on
  each element as evaluating them one at a time; and
* operand re-quantization is the **identity** on values already on the
  bfloat16 grid (idempotence, pinned by the property suite) and NaN
  payloads are canonicalized by the *result* rounding regardless, so
  :func:`grid_add` (one rounding of the float32 sum) is bit-equal to
  :func:`~repro.numerics.bfloat16.bf16_add` (which also re-rounds both
  operands) whenever the operands are on-grid — which every producer in
  the datapath guarantees: storage rows are expanded bf16 bit patterns,
  the global buffer quantizes on load, latches only ever hold rounded
  results or zero.

The differential suites in ``tests/numerics/test_vectorized.py`` pin the
batched kernels bit-identical to the per-COMP MAC unit across NaN, ±inf,
subnormal, and mixed-exponent operands.

:class:`LaneScratch` serves the opposite regime: the scalar path
(:class:`~repro.core.mac_unit.BankMacUnit`, driven by
:class:`~repro.core.reference.ReferenceExecutor`, and
:meth:`~repro.numerics.adder_tree.AdderTree.feed`) runs one 16-lane
sub-chunk at a time, where per-call ``np.array([...])`` construction
dominated; its preallocated buffers make the hot loop allocation-free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.numerics.bfloat16 import quantize_bf16

CANONICAL_NAN_F32: np.float32 = np.array([0x7FC00000], dtype=np.uint32).view(
    np.float32
)[0]
"""The canonical quiet NaN every rounding step produces (bf16 ``0x7FC0``,
expanded to float32)."""


def quantize_bf16_into(
    values: np.ndarray,
    out: np.ndarray,
    *,
    bias_scratch: "np.ndarray | None" = None,
    nan_scratch: "np.ndarray | None" = None,
) -> np.ndarray:
    """Round float32 values to the bfloat16 grid, writing into ``out``.

    Bit-identical to :func:`~repro.numerics.bfloat16.quantize_bf16`
    (round-to-nearest-even on the discarded 16 bits, NaNs canonicalized)
    but allocation-free when the scratch buffers are supplied: ``out``
    may alias ``values``, ``bias_scratch`` must be uint32 and
    ``nan_scratch`` bool, both of ``out``'s shape.
    """
    if out is not values:
        np.copyto(out, values)
    bits = out.view(np.uint32)
    if nan_scratch is not None:
        nan_mask = np.isnan(out, out=nan_scratch)
    else:
        nan_mask = np.isnan(out)
    if bias_scratch is not None:
        bias = np.right_shift(bits, 16, out=bias_scratch)
    else:
        bias = bits >> np.uint32(16)
    np.bitwise_and(bias, 1, out=bias)
    np.add(bias, 0x7FFF, out=bias)
    np.add(bits, bias, out=bits)  # uint32 wrap, exactly like the reference
    np.right_shift(bits, 16, out=bits)
    np.left_shift(bits, 16, out=bits)
    if nan_mask.any():
        out[nan_mask] = CANONICAL_NAN_F32
    return out


def grid_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """bfloat16 addition of operands already on the bfloat16 grid.

    One rounding of the exact float32 sum — bit-equal to
    :func:`~repro.numerics.bfloat16.bf16_add` for on-grid operands (see
    the module docstring for why), at half the array traffic. Overflow
    to infinity is the rounding's defined behaviour, so the FP warnings
    are suppressed rather than surfaced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return quantize_bf16(a + b)


def tree_reduce_block(products: np.ndarray) -> np.ndarray:
    """Reduce the trailing ``lanes`` axis through the bf16 adder tree.

    ``products`` is ``(..., lanes)`` with ``lanes`` a power of two,
    already on the bfloat16 grid (the multiplier's rounded outputs).
    Returns the ``(...)``-shaped tree sums, rounding at every stage in
    the hardware's fixed pairing order — identical, element for element,
    to :func:`~repro.numerics.adder_tree.adder_tree_reduce` per slice.
    """
    lanes = products.shape[-1]
    if lanes == 0 or (lanes & (lanes - 1)) != 0:
        raise ProtocolError(
            f"adder tree width must be a power of two, got {lanes}"
        )
    level = products
    while level.shape[-1] > 1:
        level = grid_add(level[..., 0::2], level[..., 1::2])
    return level[..., 0]


def latch_accumulate_block(
    carry: np.ndarray, tree_sums: np.ndarray
) -> np.ndarray:
    """Accumulate per-sub-chunk tree sums into result latches, in order.

    ``carry`` is the latches' entry value, shape ``(...)``;
    ``tree_sums`` is ``(..., subchunks)``. The sub-chunk axis is walked
    sequentially in ascending order — the one serialization the COMP
    stream's accumulation order genuinely imposes — while every leading
    axis (tiles, banks) advances in parallel. Returns the updated
    latches (a new array).
    """
    # Entry rounding of the carry: the identity for the on-grid values
    # the engine's latches always hold, and exactly what the reference
    # path's per-step operand rounding would do to anything else.
    acc = quantize_bf16(np.asarray(carry, dtype=np.float32))
    for s in range(tree_sums.shape[-1]):
        acc = grid_add(acc, tree_sums[..., s])
    return acc


def batched_tile_compute(
    matrix_tiles: np.ndarray,
    input_chunk: np.ndarray,
    carry: np.ndarray,
    lanes: int,
) -> np.ndarray:
    """Evaluate a whole buffer group's COMP bursts as one vector op.

    The batched form of :func:`~repro.core.mac_unit.tile_compute`: every
    tile that reads the same global-buffer chunk is evaluated together.

    Args:
        matrix_tiles: ``(tiles, banks, chunk_elems)`` float32 on the
            bfloat16 grid (expanded straight from storage bits) — each
            tile's open-row data across the channel's banks.
        input_chunk: ``(chunk_elems,)`` float32 on the bfloat16 grid
            (the global buffer's contents, shared by every tile).
        carry: ``(tiles, banks)`` float32 — each tile's target-latch
            value on entry.
        lanes: multipliers per bank (the sub-chunk width).

    Returns:
        The ``(tiles, banks)`` updated latch values: multiplier
        rounding, per-stage tree rounding, and ascending-sub-chunk latch
        accumulation, exactly like ``tiles`` sequential scalar tiles.
    """
    if matrix_tiles.ndim != 3:
        raise ProtocolError(
            f"matrix tiles must be (tiles, banks, chunk_elems), got shape "
            f"{matrix_tiles.shape}"
        )
    tiles, banks, chunk_elems = matrix_tiles.shape
    if input_chunk.shape != (chunk_elems,):
        raise ProtocolError(
            f"input chunk of {input_chunk.shape[0]} elements, matrix "
            f"tiles have {chunk_elems}"
        )
    if carry.shape != (tiles, banks):
        raise ProtocolError(
            f"carry of shape {carry.shape}, expected ({tiles}, {banks})"
        )
    if lanes <= 0 or chunk_elems % lanes != 0:
        raise ProtocolError("chunk width must be a whole number of sub-chunks")
    subchunks = chunk_elems // lanes
    with np.errstate(over="ignore", invalid="ignore"):
        products = quantize_bf16(matrix_tiles * input_chunk)
    tree_sums = tree_reduce_block(
        products.reshape(tiles, banks, subchunks, lanes)
    )
    return latch_accumulate_block(carry, tree_sums)


class LaneScratch:
    """Preallocated buffers for one bank's scalar (per-COMP) MAC unit.

    The scalar path processes a single ``lanes``-wide sub-chunk
    per call; before this class, every call built fresh 16-element
    arrays for the operands, the products, each tree level, and the
    1-element accumulation cell. All of that now lives here, allocated
    once per :class:`~repro.core.mac_unit.BankMacUnit` /
    :class:`~repro.numerics.adder_tree.AdderTree`.
    """

    def __init__(self, lanes: int):
        self.lanes = lanes
        self.a = np.empty(lanes, dtype=np.float32)
        self.b = np.empty(lanes, dtype=np.float32)
        self._bias = np.empty(lanes, dtype=np.uint32)
        self._nan = np.empty(lanes, dtype=np.bool_)
        self.cell = np.empty(1, dtype=np.float32)
        self._cell_bias = np.empty(1, dtype=np.uint32)
        self._cell_nan = np.empty(1, dtype=np.bool_)

    def quantize(self, buf: np.ndarray) -> np.ndarray:
        """Round a lane-shaped scratch view to bf16, in place."""
        n = buf.shape[0]
        return quantize_bf16_into(
            buf,
            buf,
            bias_scratch=self._bias[:n],
            nan_scratch=self._nan[:n],
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``bf16_mul`` into scratch: quantized operands, rounded product.

        Returns a view of the internal product buffer — consume it (via
        :meth:`tree_reduce`) before the next call.
        """
        np.copyto(self.a, a)
        np.copyto(self.b, b)
        self.quantize(self.a)
        self.quantize(self.b)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self.a, self.b, out=self.a)
        return self.quantize(self.a)

    def tree_reduce(self, products: np.ndarray) -> float:
        """The adder tree over one lane vector, ping-ponged in scratch.

        ``products`` must already be on the bf16 grid (the multiplier's
        output); rounding happens at every stage, in the fixed pairing
        order of :func:`~repro.numerics.adder_tree.adder_tree_reduce`.
        """
        buf, spare = products, (self.b if products is self.a else self.a)
        n = buf.shape[0]
        while n > 1:
            half = n // 2
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(buf[0:n:2], buf[1:n:2], out=spare[:half])
            buf, spare = spare, buf
            self.quantize(buf[:half])
            n = half
        return float(buf[0])

    def accumulate(self, latch_value: float, tree_sum: float) -> float:
        """One rounded accumulation step into a result latch.

        Both inputs are on-grid by construction (latches hold rounded
        results or zero), so the single-rounding :func:`grid_add` form
        is bit-identical to the reference ``bf16_add``.
        """
        self.cell[0] = latch_value
        with np.errstate(over="ignore", invalid="ignore"):
            self.cell[0] += np.float32(tree_sum)
        quantize_bf16_into(
            self.cell,
            self.cell,
            bias_scratch=self._cell_bias,
            nan_scratch=self._cell_nan,
        )
        return float(self.cell[0])
