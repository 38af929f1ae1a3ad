"""The functional datapath: every resident matrix, and its GEMVs.

Newton loads each input chunk into the global buffer once, and every
tile computes against it (Section III-B); the no-reuse traversal does
the same for every slot of whole matrix rows (Section III-C). A row's
result depends only on that row, the vector and one family rule,
:meth:`~repro.dram.config.FamilyRules.whole_row_readout` — not on the
command stream, nor on the channel, bank or DRAM row that holds it. So
one :class:`BatchedDatapath` per device keeps each resident matrix once,
as bf16 bits in matrix-row order (:attr:`BatchedDatapath.slabs`), and
:meth:`BatchedDatapath.gemv` computes it in two phases:

* :meth:`BatchedDatapath.step`, the multipliers and adder trees: one
  :func:`~repro.numerics.vectorized.batched_tree_sums` call per block
  of whole tiles (``banks`` rows each, :data:`BLOCK_ELEMS` elements at
  most) across every sub-chunk the COMPs cover, against the padded
  vector rounded to bf16 once (what the GWRITEs load into the buffer).
  No latch is involved, so blocks and sub-chunks are independent.
* :meth:`BatchedDatapath.finish`, the result latches and READRES: one
  walk for the whole matrix. With **per-chunk readout** (the
  interleaved walk) every chunk's latch starts from zero and walks its
  sub-chunks, the full chunks side by side and a ragged last chunk on
  its own, and the reads add into the fp32 output in chunk order. With
  **whole-row readout** (the no-reuse walk, a tile-major family) a
  latch walks every sub-chunk in order, and the finished row sums go
  through the in-DRAM LUT and into the output in one read.

This is the order the command stream issues: each tile's or slot's
COMPs accumulate in ascending chunk and sub-chunk order, and each
output row receives its reads in chunk order. No two rows share a
latch value, so computing them side by side changes no rounding (see
:mod:`repro.numerics.vectorized`).

The bit-level contract is the per-command
:class:`~repro.core.reference.ReferenceExecutor`, which walks the
payloads of
:meth:`~repro.core.command_gen.CommandStreamGenerator.gemv_steps` COMP
by COMP, one channel slice at a time (``tests/core/test_datapath.py``);
``tests/core/test_channel_classes.py`` pins a multi-channel device to
one-channel devices holding its slices.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.dram.config import DRAMConfig
from repro.errors import LayoutError
from repro.numerics.bfloat16 import float_to_bf16_bits, quantize_bf16
from repro.numerics.lut import ActivationLUT
from repro.numerics.vectorized import batched_tree_sums, latch_accumulate_block

BLOCK_ELEMS = 1 << 17
"""Matrix elements per kernel call: :meth:`BatchedDatapath.step` takes
the most whole tiles whose covered width fits, and at least one tile,
so its float32 products (512 KiB) stay in L2. Over one ``models-e2e``
pass of GEMVs, 2^17 ran faster than 2^14, 2^15, 2^16 and 2^18
(EXPERIMENTS.md)."""

ROW_BLOCK = 1024
"""Matrix rows rounded to bf16 per write, which bounds the conversion's
temporaries."""


def default_datapath() -> str:
    """Name of the datapath every functional device runs (``batched``)."""
    return BatchedDatapath.name


class FunctionalDatapath:
    """Base class of the functional datapath, named by :attr:`name`.

    Its one subclass is :class:`BatchedDatapath`, whose ``step`` and
    ``finish`` are the only way into the kernel.
    """

    name = "base"


class BatchedDatapath(FunctionalDatapath):
    """Holds the resident matrices and computes their GEMVs.

    A resident matrix is keyed by its record — a device's
    :class:`~repro.core.device.MatrixHandle`, or a lone engine's layout —
    whose ``m`` and ``n`` give its shape.

    Args:
        config: the geometry (banks per tile, chunk and sub-chunk width).
        whole_row_readout: the latches accumulate whole row sums across
            chunks (:meth:`~repro.dram.config.FamilyRules.whole_row_readout`).
        lut: the in-DRAM activation table, applied at whole-row reads.
    """

    name = "batched"

    def __init__(
        self,
        config: DRAMConfig,
        whole_row_readout: bool,
        lut: Optional[ActivationLUT] = None,
    ):
        self.config = config
        self.whole_row_readout = whole_row_readout
        self.lut = lut if whole_row_readout else None
        self.slabs: Dict[object, np.ndarray] = {}
        """Each resident matrix's bf16 bits: uint16 ``(rows, padded_n)``
        in matrix-row order, rows rounded up to whole tiles and columns
        to whole chunks, the padding zero."""

    def add(self, resident, matrix: Optional[np.ndarray] = None) -> None:
        """Hold ``resident``'s matrix, zeroed until ``matrix`` is written."""
        banks = self.config.banks_per_channel
        chunk = self.config.elems_per_row
        self.slabs[resident] = np.zeros(
            (-(-resident.m // banks) * banks, -(-resident.n // chunk) * chunk),
            dtype=np.uint16,
        )
        if matrix is not None:
            self.write(resident, matrix)

    def write(self, resident, matrix: np.ndarray) -> None:
        """Store ``matrix`` as ``resident``'s bits, :data:`ROW_BLOCK` rows
        at a time, and rewrite the padding to zero."""
        matrix = np.asarray(matrix)
        m, n = resident.m, resident.n
        if matrix.shape != (m, n):
            raise LayoutError(
                f"matrix of shape {matrix.shape}, expected ({m}, {n})"
            )
        slab = self.slabs[resident]
        for lo in range(0, m, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, m)
            slab[lo:hi, :n] = float_to_bf16_bits(matrix[lo:hi])
        slab[m:] = 0
        slab[:, n:] = 0

    def gemv(self, resident, padded_vector: np.ndarray) -> np.ndarray:
        """The fp32 product of ``resident``'s matrix and the input vector,
        zero-padded to whole chunks."""
        slab = self.slabs[resident]
        banks = self.config.banks_per_channel
        sub = self.config.elems_per_col
        # Only the sub-chunks the COMPs cover: the last chunk's stop at the
        # one holding column n.
        width = -(-resident.n // sub) * sub
        vector = quantize_bf16(padded_vector[:width])
        rows = max(1, BLOCK_ELEMS // (banks * width)) * banks
        sums = np.empty((width // sub, len(slab)), dtype=np.float32)
        for lo in range(0, len(slab), rows):
            self.step(slab[lo : lo + rows, :width], vector, sums[:, lo : lo + rows])
        output = np.zeros(resident.m, dtype=np.float32)
        self.finish(sums, output)
        return output

    def step(self, bits: np.ndarray, vector: np.ndarray, sums: np.ndarray) -> None:
        """Every COMP's multipliers and adder trees on a block of rows:
        ``bits`` holds their bf16 bits, ``(rows, width)``, and ``vector``
        the buffered input. Writes the rows' tree sums into ``sums``,
        ``(width // lanes, rows)``: sub-chunk-major, as ``finish`` reads."""
        sums[...] = batched_tree_sums(bits, vector, self.config.mults_per_bank).T

    def finish(self, sums: np.ndarray, output: np.ndarray) -> None:
        """The result latches' walk over the tree ``sums`` (``sums[s, r]``
        is row ``r``'s sub-chunk ``s``), then READRES: each read, through
        the LUT if there is one, added to ``output`` in fp32, the padding
        rows' reads dropped. A whole-row latch walks every sub-chunk;
        per chunk, the full chunks' latches walk side by side from zero,
        a ragged last chunk's on its own, and the reads add in chunk
        order."""
        rows = sums.shape[1]
        if self.whole_row_readout:
            groups = [sums[None]]
        else:
            per_chunk = self.config.elems_per_row // self.config.elems_per_col
            full = len(sums) // per_chunk * per_chunk
            groups = [sums[:full].reshape(-1, per_chunk, rows), sums[full:][None]]
        # Each group is (chunks, sub-chunks, rows): one walk of its latches.
        reads = [
            read
            for chunks in groups
            if chunks.size
            for read in latch_accumulate_block(
                np.zeros(chunks.shape[::2], np.float32), chunks.transpose(0, 2, 1)
            )
        ]
        if self.lut is not None:
            reads = [self.lut.apply(read) for read in reads]
        # An infinite input's NaN or overflowed sum is the defined result.
        with np.errstate(over="ignore", invalid="ignore"):
            for read in reads:
                output += read[: output.size]
