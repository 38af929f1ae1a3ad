"""Batched bfloat16 kernels: whole COMP bursts as single array ops.

The functional datapath's bit-level contract is fixed by the per-COMP
MAC unit (:class:`~repro.core.mac_unit.BankMacUnit`): round to nearest
even at the multiplier, at every adder-tree stage, and at the result
latch's accumulation, in exactly the order the command stream issues.
This module provides the same arithmetic over *blocks*, so the
per-command (and per-tile) Python interpreter overhead amortizes across
hundreds of COMP commands per NumPy call, in two halves:

* :func:`batched_tree_sums` — the multipliers and adder trees of every
  sub-chunk of a block of rows, straight from their bf16 bits. No latch
  is involved, so the datapath runs it on cache-sized row blocks across
  a matrix's whole width;
* :func:`latch_accumulate_block` — the result latches' walk over those
  tree sums, sub-chunk by sub-chunk, every latch side by side; the
  datapath walks a whole matrix once per GEMV.

:func:`batched_tile_compute` is the two in sequence on a buffer group's
tiles, the batched form of :func:`~repro.core.mac_unit.tile_compute`.

Three facts make the batch bit-identical rather than merely close:

* every rounding step is **elementwise** (:func:`quantize_bf16` is a
  pure bit transform of each float32 independently), so evaluating many
  lanes/banks/tiles in one array op performs the identical operation on
  each element as evaluating them one at a time;
* operand re-quantization is the **identity** on values already on the
  bfloat16 grid (idempotence, pinned by the property suite) and NaN
  payloads are canonicalized by the *result* rounding regardless, so
  :func:`grid_add` (one rounding of the float32 sum) is bit-equal to
  :func:`~repro.numerics.bfloat16.bf16_add` (which also re-rounds both
  operands) whenever the operands are on-grid — which every producer in
  the datapath guarantees: storage rows are expanded bf16 bit patterns,
  the global buffer quantizes on load, latches only ever hold rounded
  results or zero; and
* a NaN computed from on-grid operands has **zero low bits**, so
  rounding keeps it a NaN. :func:`batched_tree_sums`,
  :func:`tree_reduce_block` and :func:`latch_accumulate_block` (and so
  :func:`batched_tile_compute`, built from them) therefore round in
  place on ``uint32`` views and
  canonicalize NaNs only on entry and exit: in between, only their
  payload and sign can differ from the per-step-canonicalizing
  reference.

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

import sys

import numpy as np

from repro.errors import ProtocolError
from repro.numerics.bfloat16 import float_to_bf16_bits, quantize_bf16

CANONICAL_NAN_F32: np.float32 = np.array([0x7FC00000], dtype=np.uint32).view(
    np.float32
)[0]
"""The canonical quiet NaN every rounding step produces (bf16 ``0x7FC0``,
expanded to float32)."""


def _round_to_grid(bits: np.ndarray, bias: np.ndarray) -> None:
    """Round float32 bit patterns to the bfloat16 grid, in place.

    Round-to-nearest-even on the discarded 16 bits: add ``0x7FFF`` plus
    the surviving half's lowest bit (uint32 wrap included, exactly like
    :func:`~repro.numerics.bfloat16.float_to_bf16_bits`), then clear
    them. ``bias`` is uint32 scratch of ``bits``' shape. NaNs are left
    to the caller: rounding is the identity on every on-grid pattern,
    NaNs included, but a NaN with low payload bits may round to an
    infinity or wrap to zero.
    """
    np.right_shift(bits, 16, out=bias)
    np.bitwise_and(bias, 1, out=bias)
    np.add(bias, 0x7FFF, out=bias)
    np.add(bits, bias, out=bits)
    np.bitwise_and(bits, 0xFFFF0000, out=bits)


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
    nan_mask = np.isnan(out, out=nan_scratch)
    if bias_scratch is None:
        bias_scratch = np.empty(out.shape, dtype=np.uint32)
    _round_to_grid(out.view(np.uint32), bias_scratch)
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


def _check_tree_width(lanes: int) -> None:
    if lanes <= 0 or lanes & (lanes - 1):
        raise ProtocolError(
            f"adder tree width must be a power of two, got {lanes}"
        )


def _canonical_nans(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN replaced by :data:`CANONICAL_NAN_F32`
    (a copy only when there is a NaN to replace)."""
    nan = np.isnan(values)
    if nan.any():
        values = np.where(nan, CANONICAL_NAN_F32, values)
    return values


def tree_reduce_block(
    products: np.ndarray, *, bias_scratch: "np.ndarray | None" = None
) -> np.ndarray:
    """Reduce the trailing ``lanes`` axis through the bf16 adder tree.

    ``products`` is ``(..., lanes)`` with ``lanes`` a power of two,
    already on the bfloat16 grid (the multiplier's rounded outputs).
    Returns the ``(...)``-shaped tree sums, rounding at every stage in
    the hardware's fixed pairing order — identical, element for element,
    to :func:`~repro.numerics.adder_tree.adder_tree_reduce` per slice.

    Each stage pairs neighbouring lanes by reshape and rounds in place
    on a ``uint32`` view; NaNs are canonicalized once, on exit (see the
    module docstring). ``bias_scratch``, if given, is uint32 with at
    least half as many elements as ``products``.
    """
    lanes = products.shape[-1]
    _check_tree_width(lanes)
    level = products.reshape(-1, lanes)
    if bias_scratch is None:
        bias_scratch = np.empty(level.size // 2, dtype=np.uint32)
    with np.errstate(over="ignore", invalid="ignore"):
        while level.shape[1] > 1:
            pairs = level.reshape(level.shape[0], -1, 2)
            level = np.add(pairs[:, :, 0], pairs[:, :, 1])
            _round_to_grid(
                level.reshape(-1).view(np.uint32), bias_scratch[: level.size]
            )
    return _canonical_nans(level.reshape(products.shape[:-1]))


def latch_accumulate_block(
    carry: np.ndarray, tree_sums: np.ndarray
) -> np.ndarray:
    """Accumulate per-sub-chunk tree sums into result latches, in order.

    ``carry`` is the latches' entry value, shape ``(...)``;
    ``tree_sums`` is ``(..., subchunks)``, on the bfloat16 grid. The
    sub-chunk axis is walked sequentially in ascending order — the one
    serialization the COMP stream's accumulation order genuinely
    imposes — while every leading axis (tiles, banks) advances in
    parallel. Each step adds one ``(...)`` slice, a view of
    ``tree_sums``, and rounds in place on a ``uint32`` view; NaNs are
    canonicalized on entry (the carry's rounding) and on exit. Returns
    the updated latches (a new array).
    """
    # Entry rounding of the carry: the identity for the on-grid values
    # the engine's latches always hold, and exactly what the reference
    # path's per-step operand rounding would do to anything else.
    carry = np.asarray(carry, dtype=np.float32)
    acc = quantize_bf16_into(carry, np.empty(carry.shape, dtype=np.float32))
    bits = acc.view(np.uint32)
    bias = np.empty(acc.shape, dtype=np.uint32)
    steps = tree_sums.transpose(-1, *range(tree_sums.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for tree_sum in steps:
            np.add(acc, tree_sum, out=acc)
            _round_to_grid(bits, bias)
    return _canonical_nans(acc)


def batched_tree_sums(
    matrix_bits: np.ndarray,
    input_vector: np.ndarray,
    lanes: int,
) -> np.ndarray:
    """The multipliers and adder trees of many COMPs, as one vector op.

    The first half of :func:`batched_tile_compute`: every row's lane
    products against the shared input, rounded in place on a ``uint32``
    view, then reduced sub-chunk by sub-chunk through the adder tree.
    No latch is involved, so rows and sub-chunks are all independent.

    Each uint32 of the rows' bits holds an even lane and the odd lane
    after it, so one shift and one mask expand them as two float32
    planes: the multiply and the tree's first stage (even lane plus odd
    lane) then run on contiguous arrays, and :func:`tree_reduce_block`
    takes the remaining stages.

    Args:
        matrix_bits: ``(..., width)`` uint16 bfloat16 bit patterns, as
            storage holds them — the open-row data the COMPs read. Each
            row is contiguous (a column slice of a slab is).
        input_vector: ``(width,)`` float32 on the bfloat16 grid (the
            global buffer's contents, shared by every row).
        lanes: multipliers per bank (the sub-chunk width, a power of
            two).

    Returns:
        Each sub-chunk's tree sum, ``(..., width // lanes)``, NaNs
        canonical.
    """
    width = matrix_bits.shape[-1]
    if input_vector.shape != (width,):
        raise ProtocolError(
            f"input of {input_vector.shape[0]} elements, matrix rows "
            f"have {width}"
        )
    if lanes <= 0 or width % lanes != 0:
        raise ProtocolError("row width must be a whole number of sub-chunks")
    _check_tree_width(lanes)
    bits = matrix_bits.reshape(-1, width)
    if lanes == 1:
        planes = np.left_shift(bits, 16, dtype=np.uint32)[None]
        vector = input_vector[None, None, :]
    else:
        pairs = bits.view(np.uint32)
        planes = np.empty((2,) + pairs.shape, dtype=np.uint32)
        # The first lane of a pair is the uint32's low half on a
        # little-endian host.
        first = 0 if sys.byteorder == "little" else 1
        np.left_shift(pairs, 16, out=planes[first])
        np.bitwise_and(pairs, 0xFFFF0000, out=planes[1 - first])
        vector = np.ascontiguousarray(input_vector.reshape(-1, 2).T)[:, None, :]
    products = planes.view(np.float32)
    bias = np.empty(products.size, dtype=np.uint32)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(products, vector, out=products)
        _round_to_grid(products.reshape(-1).view(np.uint32), bias)
        level = products[0] if lanes == 1 else np.add(products[0], products[1])
    if lanes > 1:
        _round_to_grid(level.reshape(-1).view(np.uint32), bias[: level.size])
    sums = tree_reduce_block(level.reshape(-1, max(lanes // 2, 1)), bias_scratch=bias)
    return sums.reshape(matrix_bits.shape[:-1] + (width // lanes,))


def batched_tile_compute(
    matrix_tiles: np.ndarray,
    input_chunk: np.ndarray,
    carry: np.ndarray,
    lanes: int,
) -> np.ndarray:
    """Evaluate a whole buffer group's COMP bursts as one vector op.

    The batched form of :func:`~repro.core.mac_unit.tile_compute`: every
    tile that reads the same global-buffer chunk is evaluated together,
    :func:`batched_tree_sums` then :func:`latch_accumulate_block`.

    Args:
        matrix_tiles: ``(tiles, banks, chunk_elems)`` float32 on the
            bfloat16 grid (expanded straight from storage bits) — each
            tile's open-row data across the channel's banks.
        input_chunk: ``(chunk_elems,)`` float32 on the bfloat16 grid
            (the global buffer's contents, shared by every tile).
        carry: ``(tiles, banks)`` float32 — each tile's target-latch
            value on entry.
        lanes: multipliers per bank (the sub-chunk width, a power of
            two).

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
    if carry.shape != matrix_tiles.shape[:2]:
        raise ProtocolError(
            f"carry of shape {carry.shape}, expected {matrix_tiles.shape[:2]}"
        )
    sums = batched_tree_sums(float_to_bf16_bits(matrix_tiles), input_chunk, lanes)
    return latch_accumulate_block(carry, sums)


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
