"""The engine's functional datapath: batched bf16 tile evaluation.

The engine's timing machinery and its functional datapath are
independent state machines: a segment's functional effects depend only
on the order of its payload-carrying steps (loads, tile computes,
result emits), never on how the controller scheduled the commands that
carried them (see :class:`~repro.core.schedule_cache.StreamSegment`).
That independence is what this module exploits: whole *buffer groups*
of tiles — every tile that reads the same global-buffer chunk — are
evaluated as one
:func:`~repro.numerics.vectorized.batched_tile_compute` call over a
``(tiles, banks, chunk_elems)`` block, with GWRITE runs loading the
buffer as one vectorized quantize instead of 32 sub-chunk stores.

A buffer group's rows are evenly spaced in the layout's slab
(:attr:`~repro.core.engine.NewtonChannelEngine.slabs`): consecutive
rows for an interleaved chunk, a stride of one matrix row's chunks for
a no-reuse pass. So a flush reads the group as one strided slice of
the slab — cut to the sub-chunks the chunk's COMPs cover — and expands
it to float32 with one shift.

The bit-level contract is the per-command
:class:`~repro.core.reference.ReferenceExecutor`, which walks the same
stream COMP by COMP through one
:class:`~repro.core.mac_unit.BankMacUnit` per bank.

The datapath defers work symbolically: a tile compute *opens a
slot* (recording the DRAM row and the latch's concrete carry value)
and parks a slot reference in the latch; a result emit *pops* the
reference (deferring the host-side accumulation) and resets the latch
to zero — so the interleaved traversal's compute/emit/compute/emit
chain on latch 0 batches a whole chunk's tiles into one kernel call.
Any buffer mutation (a new chunk, a GWRITE) flushes: pending slots are
evaluated in one vector op, surviving references become concrete latch
values, and deferred emits apply to the output in their original issue
order. Because the kernel is bit-identical per tile (see
:mod:`repro.numerics.vectorized`) and host accumulation replays in
issue order, the flush is invisible — pinned by the differential suite
in ``tests/core/test_datapath.py`` across every optimization combo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.command_gen import EmitOp, Step, TileComputeOp
from repro.numerics.vectorized import batched_tile_compute


def default_datapath() -> str:
    """Name of the datapath every engine runs (``batched``)."""
    return BatchedDatapath.name


class FunctionalDatapath:
    """Base class: the payload-step interpreter and buffer bookkeeping.

    Subclasses interpret the compute/emit payloads; loads and chunk
    invalidations are common. ``step`` is called once per payload step
    in issue order, ``finish`` once at the end of each run. Engine
    payload streams load only through ``load_run`` steps; per-command
    ``load`` steps are the :class:`~repro.core.reference.ReferenceExecutor`'s.
    """

    name = "base"

    def __init__(self, engine):
        self.engine = engine

    # -- hooks ---------------------------------------------------------

    def on_buffer_change(self) -> None:
        """Called before any global-buffer mutation."""

    def on_compute(self, op: TileComputeOp, layout) -> None:
        raise NotImplementedError

    def on_emit(self, emit: EmitOp, output: np.ndarray) -> None:
        raise NotImplementedError

    def finish(self, output: np.ndarray) -> None:
        """End of run: apply any deferred work."""

    # -- the shared interpreter ----------------------------------------

    def step(
        self, step: Step, padded_vector: np.ndarray, layout, output: np.ndarray
    ) -> None:
        engine = self.engine
        if step.new_chunk is not None:
            self.on_buffer_change()
            engine.buffer.invalidate()
        if step.load_run is not None:
            chunk, count = step.load_run
            self.on_buffer_change()
            per_row = engine.config.elems_per_row
            k = engine.config.elems_per_col
            lo = chunk * per_row
            engine.buffer.load_chunk(
                padded_vector[lo : lo + count * k], count
            )
        if step.compute is not None:
            self.on_compute(step.compute, layout)
        if step.emit is not None:
            self.on_emit(step.emit, output)

    # -- emit plumbing -------------------------------------------------

    def _apply_emit(
        self, emit: EmitOp, values: np.ndarray, output: np.ndarray
    ) -> None:
        """LUT + fp32 host-side accumulation for one result read."""
        engine = self.engine
        if emit.chunk is None and engine.lut is not None:
            values = engine.lut.apply(values)
        rows = emit.matrix_rows
        mask = rows >= 0
        np.add.at(output, rows[mask], values[mask])


class BatchedDatapath(FunctionalDatapath):
    """Whole buffer groups of tiles evaluated as one vector op.

    See the module docstring for the slot algebra. The invariants that
    make the deferral exact:

    * the global buffer's contents are constant between flushes (every
      mutation flushes first), so one captured chunk serves every slot;
    * DRAM storage is immutable during a run, so each slot's matrix
      rows can be gathered at flush time;
    * a latch holds either a concrete value (in ``engine._latches``) or
      one slot reference — a second compute into a referenced latch, a
      compute against a different chunk, or one whose row breaks the
      group's even spacing flushes first (none occurs in generated
      streams; all stay correct);
    * deferred emits replay in issue order, so the fp32 host
      accumulation performs the identical operation sequence.
    """

    name = "batched"

    def __init__(self, engine):
        super().__init__(engine)
        self._rows: List[int] = []  # each slot's row within the slab
        self._carries: List[np.ndarray] = []
        self._latch_ref: Dict[int, int] = {}
        self._slab: Optional[np.ndarray] = None
        self._chunk_data: Optional[np.ndarray] = None
        self._chunk_index: Optional[int] = None
        self._output: Optional[np.ndarray] = None
        # (emit, slot or None, concrete values or None) in issue order.
        self._emits: List[
            Tuple[EmitOp, Optional[int], Optional[np.ndarray]]
        ] = []

    def _group_tiles(self) -> np.ndarray:
        """The open slots' rows as ``(tiles, banks, chunk_elems)``
        float32: one slab slice, expanded by one shift."""
        rows = self._rows
        stride = rows[1] - rows[0] if len(rows) > 1 else 1
        bits = self._slab[
            rows[0] : rows[0] + stride * len(rows) : stride,
            :,
            : self._chunk_data.shape[0],
        ]
        return np.left_shift(bits, 16, dtype=np.uint32).view(np.float32)

    def _flush(self, output: np.ndarray) -> None:
        engine = self.engine
        if self._rows:
            results = batched_tile_compute(
                self._group_tiles(),
                self._chunk_data,
                np.stack(self._carries),
                engine.config.mults_per_bank,
            )
            # Latches still holding a slot reference become concrete.
            for latch, slot in self._latch_ref.items():
                engine._latches[:, latch] = results[slot]
        else:
            results = None
        for emit, slot, values in self._emits:
            if slot is not None:
                values = results[slot]
            self._apply_emit(emit, values, output)
        self._rows.clear()
        self._carries.clear()
        self._latch_ref.clear()
        self._emits.clear()
        self._slab = None
        self._chunk_data = None
        self._chunk_index = None

    def on_buffer_change(self) -> None:
        if self._rows or self._emits:
            self._flush(self._output)

    def _spaces_evenly(self, row: int) -> bool:
        """Whether ``row`` continues the open slots' even spacing."""
        rows = self._rows
        if not rows:
            return True
        stride = row - rows[-1]
        return stride > 0 and (len(rows) == 1 or stride == rows[1] - rows[0])

    def on_compute(self, op: TileComputeOp, layout) -> None:
        engine = self.engine
        row = op.dram_row - layout.base_row
        if (
            op.latch in self._latch_ref
            or (self._chunk_index is not None and self._chunk_index != op.chunk)
            or not self._spaces_evenly(row)
        ):
            self._flush(self._output)
        if self._chunk_data is None:
            # Only the sub-chunks the chunk's COMPs cover: the rest of
            # the buffer and of the rows is padding the hardware never
            # reads.
            subchunks = layout.cols_in_chunk(op.chunk)
            self._chunk_data = engine.buffer.chunk(subchunks)[
                : subchunks * engine.config.elems_per_col
            ]
            self._chunk_index = op.chunk
            self._slab = engine.slabs[layout.base_row]
        slot = len(self._rows)
        self._rows.append(row)
        self._carries.append(engine._latches[:, op.latch].copy())
        self._latch_ref[op.latch] = slot

    def on_emit(self, emit: EmitOp, output: np.ndarray) -> None:
        engine = self.engine
        slot = self._latch_ref.pop(emit.latch, None)
        if slot is not None:
            engine._latches[:, emit.latch] = 0.0
            self._emits.append((emit, slot, None))
        else:
            values = engine._latches[:, emit.latch].copy()
            engine._latches[:, emit.latch] = 0.0
            self._emits.append((emit, None, values))

    def step(self, step, padded_vector, layout, output) -> None:
        # The flush points triggered from on_buffer_change/on_compute
        # need the output array; stash it for the duration of the step.
        self._output = output
        super().step(step, padded_vector, layout, output)

    def finish(self, output: np.ndarray) -> None:
        self._output = output
        self._flush(output)
        self._output = None
