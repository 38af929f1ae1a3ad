"""The functional datapath: every resident matrix, and its GEMVs.

Newton loads each input chunk into the global buffer once, and every
tile computes against it (Section III-B); the no-reuse traversal does
the same for every slot of whole matrix rows (Section III-C). A row's
result depends only on that row, the vector and one family rule,
:meth:`~repro.dram.config.FamilyRules.whole_row_readout` — not on the
command stream, nor on the channel, bank or DRAM row that holds it. So
one :class:`BatchedDatapath` per device keeps each resident matrix once,
as bf16 bits in matrix-row order (:attr:`BatchedDatapath.slabs`), and
:meth:`BatchedDatapath.gemv` groups the rows ``banks`` at a time, as a
tile does. For each block of :data:`TILE_BLOCK` tiles it walks the
chunks in order, one
:func:`~repro.numerics.vectorized.batched_tile_compute` call per chunk
(:meth:`BatchedDatapath.step`):

* the matrix operand is the block cut to the chunk and to the
  sub-chunks its COMPs cover, expanded to float32 by one shift;
* the input operand is the padded vector rounded to bf16 once, which
  is what the GWRITEs load into the buffer;
* with **per-chunk readout** (the interleaved walk), every chunk starts
  from zeroed latches and is read out at once, and the partials add
  into the fp32 output in chunk order;
* with **whole-row readout** (the no-reuse walk, a tile-major family),
  the latches carry from chunk to chunk, and the finished row sums go
  through the in-DRAM LUT and into the output in one read.

:meth:`BatchedDatapath.finish` is the read in both. This is the order
the command stream issues: each tile's or slot's COMPs accumulate in
ascending chunk and sub-chunk order, and each output row receives its
reads in chunk order. No two rows share a latch value, so computing
them side by side changes no rounding (see
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
from repro.numerics.vectorized import batched_tile_compute

TILE_BLOCK = 64
"""Tiles per kernel call. It bounds the kernel's scratch (one chunk of a
64-tile block is 2 MiB of float32 on 16 banks). On a ``models-e2e``
pass, blocks of 64 tiles ran the datapath faster than blocks of 16 or
256 and than one call over the whole matrix."""

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
        tiles = slab.reshape(-1, banks, slab.shape[1])
        vector = quantize_bf16(padded_vector)
        # Each chunk's width: the sub-chunks its COMPs cover.
        step = self.config.elems_per_row
        sub = self.config.elems_per_col
        n = resident.n
        chunks = [
            (lo, min(step, -(-(n - lo) // sub) * sub)) for lo in range(0, n, step)
        ]
        output = np.zeros(resident.m, dtype=np.float32)
        for first in range(0, len(tiles), TILE_BLOCK):
            block = tiles[first : first + TILE_BLOCK]
            rows = output[first * banks : (first + TILE_BLOCK) * banks]
            zeros = np.zeros(block.shape[:2], dtype=np.float32)
            latches = zeros
            for lo, width in chunks:
                latches = self.step(
                    block[:, :, lo : lo + width], vector[lo : lo + width], latches
                )
                if not self.whole_row_readout:
                    self.finish(latches, rows)
                    latches = zeros
            if self.whole_row_readout:
                self.finish(latches, rows)
        return output

    def step(
        self, bits: np.ndarray, chunk: np.ndarray, latches: np.ndarray
    ) -> np.ndarray:
        """One chunk's COMPs on a block of tiles.

        ``bits`` holds their rows' bf16 bits, ``(tiles, banks, width)``;
        ``chunk`` is the buffered input, ``(width,)``; ``latches`` are
        the ``(tiles, banks)`` values on entry. Returns the latches after.
        """
        tiles = np.left_shift(bits, 16, dtype=np.uint32).view(np.float32)
        return batched_tile_compute(
            tiles, chunk, latches, self.config.mults_per_bank
        )

    def finish(self, latches: np.ndarray, output: np.ndarray) -> None:
        """READRES: every latch, through the LUT if there is one, added
        to ``output`` in fp32. Latch ``(tile, bank)`` holds the block's
        row ``tile * banks + bank``; the padding rows' reads are dropped."""
        values = latches.reshape(-1)
        if self.lut is not None:
            values = self.lut.apply(values)
        # An infinite input's NaN or overflowed sum is the defined result.
        with np.errstate(over="ignore", invalid="ignore"):
            output += values[: output.size]
