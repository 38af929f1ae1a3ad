"""The engine's functional datapath: each GEMV computed from its layout.

Newton loads each input chunk into the global buffer once, and every
tile computes against it (Section III-B); the no-reuse traversal does
the same for every slot of whole matrix rows (Section III-C). So a
GEMV's arithmetic is fixed by the layout and one family rule,
:meth:`~repro.dram.config.FamilyRules.whole_row_readout`, not by the
command stream that carries it. :meth:`BatchedDatapath.gemv` walks the
chunks in order and makes one
:func:`~repro.numerics.vectorized.batched_tile_compute` call per chunk
(:meth:`BatchedDatapath.step`) over every tile or slot at once:

* the matrix operand is the layout's slab viewed by matrix row
  (``slab_by_matrix_row``), cut to the chunk and to the sub-chunks its
  COMPs cover, and expanded to float32 by one shift;
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
reads in chunk order. No two tiles or slots share a latch value, so
computing them side by side changes no rounding, and the kernel is
bit-identical per tile (see :mod:`repro.numerics.vectorized`).

The bit-level contract is the per-command
:class:`~repro.core.reference.ReferenceExecutor`, which walks the
payloads of
:meth:`~repro.core.command_gen.CommandStreamGenerator.gemv_steps` COMP
by COMP through one :class:`~repro.core.mac_unit.BankMacUnit` per bank.
``tests/core/test_datapath.py`` pins the two bit-identical across every
flag subset and command family.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.layout import Layout
from repro.dram.config import DRAMConfig
from repro.numerics.bfloat16 import quantize_bf16
from repro.numerics.lut import ActivationLUT
from repro.numerics.vectorized import batched_tile_compute


def default_datapath() -> str:
    """Name of the datapath every functional engine runs (``batched``)."""
    return BatchedDatapath.name


class FunctionalDatapath:
    """Base class of the engine's datapath, named by :attr:`name`.

    Its one subclass is :class:`BatchedDatapath`, whose ``step`` and
    ``finish`` are the engine's only way into the kernel.
    """

    name = "base"


class BatchedDatapath(FunctionalDatapath):
    """Computes one channel's GEMVs, one input chunk at a time.

    Args:
        config: the channel's geometry (lanes per bank, sub-chunk width).
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

    def gemv(
        self, layout: Layout, slab: np.ndarray, padded_vector: np.ndarray
    ) -> np.ndarray:
        """The fp32 product of ``layout``'s matrix (stored in ``slab``)
        and the zero-padded input vector."""
        rows = layout.slab_by_matrix_row(slab)
        vector = quantize_bf16(padded_vector)
        output = np.zeros(layout.m, dtype=np.float32)
        zeros = np.zeros(rows.shape[:2], dtype=np.float32)
        latches = zeros
        for chunk in range(layout.num_chunks):
            lo = chunk * layout.chunk_elems
            width = layout.cols_in_chunk(chunk) * self.config.elems_per_col
            latches = self.step(
                rows[:, :, chunk, :width], vector[lo : lo + width], latches
            )
            if not self.whole_row_readout:
                self.finish(latches, output)
                latches = zeros
        if self.whole_row_readout:
            self.finish(latches, output)
        return output

    def step(
        self, bits: np.ndarray, chunk: np.ndarray, latches: np.ndarray
    ) -> np.ndarray:
        """One chunk's COMPs on every tile or slot.

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
        to ``output`` in fp32. Latch ``(tile, bank)`` holds matrix row
        ``tile * banks + bank``; the padding banks' reads are dropped."""
        values = latches.reshape(-1)
        if self.lut is not None:
            values = self.lut.apply(values)
        output += values[: output.size]
