"""Matrix layouts: Figure 3's chunk-interleaved layout and Newton-no-reuse.

**Interleaved** (the Newton design): the matrix is cut into DRAM-row-wide
*chunks* (512 bfloat16). Matrix row *i*'s chunk *c* occupies one whole
DRAM row of bank ``i mod banks``; consecutive matrix rows go to
consecutive banks; rows beyond the bank count continue at the next DRAM
row ("vertical tile position" *j = i div banks*). All tiles of chunk 0
precede all tiles of chunk 1 ("the first chunk of all the matrix rows is
followed by the second chunk of all the matrix rows"). The computation
walks tiles column-major — every tile of a chunk before the next chunk —
so one buffered input chunk is fully reused.

**No-reuse** (the Section III-C alternative): a full matrix row lives in
one bank across contiguous DRAM rows (one per chunk); the traversal is
row-major, accumulating a whole matrix row in the result latch (output
reuse) but re-fetching each input chunk for every pass of matrix rows.
With ``latches_per_bank = L`` this generalizes to the paper's four-latch
partial-reuse option (input fetched once per L matrix rows per bank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.dram.config import DRAMConfig
from repro.errors import CapacityError, LayoutError
from repro.numerics.bfloat16 import float_to_bf16_bits


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def partition_rows(m: int, num_channels: int) -> List[Tuple[int, int]]:
    """Split ``m`` matrix rows into per-channel contiguous slices.

    Newton's per-channel operation simply repeats across channels
    (Section III-D), so the matrix rows are spread as evenly as possible;
    channels beyond the row count receive empty slices.
    """
    if m <= 0:
        raise LayoutError("matrix must have at least one row")
    if num_channels <= 0:
        raise LayoutError("at least one channel is required")
    base, extra = divmod(m, num_channels)
    slices: List[Tuple[int, int]] = []
    start = 0
    for ch in range(num_channels):
        size = base + (1 if ch < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


@dataclass(frozen=True)
class TilePlacement:
    """Where one tile's DRAM rows live and which matrix rows they hold."""

    dram_row: int
    matrix_rows: np.ndarray
    """Global matrix-row index per bank; -1 marks an unused (padding) bank."""


class _BaseLayout:
    """Shared geometry for both layouts (one channel's slice)."""

    def __init__(self, config: DRAMConfig, m: int, n: int, base_row: int = 0):
        if m <= 0 or n <= 0:
            raise LayoutError(f"matrix dimensions must be positive, got {m}x{n}")
        if base_row < 0:
            raise LayoutError("base_row must be non-negative")
        self.config = config
        self.m = m
        self.n = n
        self.base_row = base_row
        self.chunk_elems = config.elems_per_row
        self.num_chunks = _ceil_div(n, self.chunk_elems)
        self.banks = config.banks_per_channel

    @property
    def padded_n(self) -> int:
        """Vector length after zero-padding to whole chunks."""
        return self.num_chunks * self.chunk_elems

    def pad_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Validate shape and zero-pad columns to whole chunks (float32)."""
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.shape != (self.m, self.n):
            raise LayoutError(
                f"matrix of shape {matrix.shape}, layout expects ({self.m}, {self.n})"
            )
        if self.padded_n == self.n:
            return matrix
        padded = np.zeros((self.m, self.padded_n), dtype=np.float32)
        padded[:, : self.n] = matrix
        return padded

    def pad_vector(self, vector: np.ndarray) -> np.ndarray:
        """Validate shape and zero-pad the input vector to whole chunks."""
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape != (self.n,):
            raise LayoutError(
                f"vector of length {vector.shape[0]}, layout expects {self.n}"
            )
        if self.padded_n == self.n:
            return vector
        padded = np.zeros(self.padded_n, dtype=np.float32)
        padded[: self.n] = vector
        return padded

    def cols_in_chunk(self, chunk: int) -> int:
        """Column accesses carrying real data in ``chunk``.

        The final chunk of a vector shorter than a whole DRAM row needs
        fewer COMP commands: the host knows the vector length and skips
        the all-padding sub-chunks.
        """
        if not 0 <= chunk < self.num_chunks:
            raise LayoutError(f"chunk {chunk} outside [0, {self.num_chunks})")
        remaining = self.n - chunk * self.chunk_elems
        return min(
            self.config.cols_per_row,
            _ceil_div(remaining, self.config.elems_per_col),
        )

    @property
    def slab_shape(self) -> Tuple[int, int, int]:
        """Shape of the layout's storage slab: its DRAM rows of every
        bank as one ``(rows_per_bank_used, banks, elems_per_row)`` block,
        indexed by row relative to :attr:`base_row`."""
        return (self.rows_per_bank_used, self.banks, self.chunk_elems)

    def write_slab(self, slab: np.ndarray, matrix: np.ndarray) -> None:
        """Store ``matrix`` into its slab (of :attr:`slab_shape`).

        The whole-matrix form of :meth:`place`: the bf16 bits land with
        one reshape/transpose, and padding banks are zeroed.
        """
        if slab.shape != self.slab_shape:
            raise LayoutError(
                f"slab of shape {slab.shape}, layout expects {self.slab_shape}"
            )
        bits = float_to_bf16_bits(self.pad_matrix(matrix)).reshape(
            self.m, self.num_chunks, self.chunk_elems
        )
        by_row = self.slab_by_matrix_row(slab)
        full, rest = divmod(self.m, self.banks)
        by_row[:full] = bits[: full * self.banks].reshape(
            full, self.banks, self.num_chunks, self.chunk_elems
        )
        if rest:
            by_row[full, :rest] = bits[full * self.banks :]
            by_row[full, rest:] = 0

    def _check_capacity(self, rows_needed: int) -> None:
        if self.base_row + rows_needed > self.config.rows_per_bank:
            raise CapacityError(
                f"layout needs {rows_needed} DRAM rows per bank starting at "
                f"{self.base_row}, but banks have {self.config.rows_per_bank}"
            )


class InterleavedLayout(_BaseLayout):
    """Figure 3's chunk-interleaved, DRAM-row-wide layout."""

    def __init__(self, config: DRAMConfig, m: int, n: int, base_row: int = 0):
        super().__init__(config, m, n, base_row)
        self.tiles = _ceil_div(m, self.banks)
        self.rows_per_bank_used = self.num_chunks * self.tiles
        self._check_capacity(self.rows_per_bank_used)

    def dram_row(self, chunk: int, tile: int) -> int:
        """DRAM row (same index in every bank) of tile ``tile`` of ``chunk``."""
        if not 0 <= chunk < self.num_chunks:
            raise LayoutError(f"chunk {chunk} outside [0, {self.num_chunks})")
        if not 0 <= tile < self.tiles:
            raise LayoutError(f"tile {tile} outside [0, {self.tiles})")
        return self.base_row + chunk * self.tiles + tile

    def tile_matrix_rows(self, tile: int) -> np.ndarray:
        """Global matrix row held by each bank in ``tile`` (-1 = padding)."""
        rows = tile * self.banks + np.arange(self.banks)
        return np.where(rows < self.m, rows, -1)

    def slab_by_matrix_row(self, slab: np.ndarray) -> np.ndarray:
        """``slab`` viewed as ``(tiles, banks, chunks, elems)``: matrix
        row ``tile * banks + bank``, chunk by chunk."""
        return slab.reshape(
            self.num_chunks, self.tiles, self.banks, self.chunk_elems
        ).transpose(1, 2, 0, 3)

    def placement(self, chunk: int, tile: int) -> TilePlacement:
        """Full placement record for one tile."""
        return TilePlacement(
            dram_row=self.dram_row(chunk, tile),
            matrix_rows=self.tile_matrix_rows(tile),
        )

    def place(self, matrix: np.ndarray) -> List[Tuple[int, int, np.ndarray]]:
        """Lower a matrix to (bank, dram_row, bf16-bits row data) writes."""
        padded = self.pad_matrix(matrix)
        bits = float_to_bf16_bits(padded)
        writes: List[Tuple[int, int, np.ndarray]] = []
        for chunk in range(self.num_chunks):
            lo = chunk * self.chunk_elems
            hi = lo + self.chunk_elems
            for tile in range(self.tiles):
                row = self.dram_row(chunk, tile)
                for bank in range(self.banks):
                    mrow = tile * self.banks + bank
                    if mrow >= self.m:
                        continue
                    writes.append((bank, row, bits[mrow, lo:hi]))
        return writes


class NoReuseLayout(_BaseLayout):
    """The Section III-C alternative: whole matrix rows per bank.

    Matrix row ``i`` lives in bank ``i mod banks``, slot ``i div banks``,
    occupying ``num_chunks`` contiguous DRAM rows (one per chunk).
    """

    def __init__(
        self,
        config: DRAMConfig,
        m: int,
        n: int,
        base_row: int = 0,
        latches_per_bank: int = 1,
    ):
        super().__init__(config, m, n, base_row)
        if latches_per_bank < 1:
            raise LayoutError("latches_per_bank must be at least 1")
        self.latches_per_bank = latches_per_bank
        self.slots = _ceil_div(m, self.banks)
        self.passes = _ceil_div(self.slots, latches_per_bank)
        self.rows_per_bank_used = self.slots * self.num_chunks
        self._check_capacity(self.rows_per_bank_used)

    def dram_row(self, slot: int, chunk: int) -> int:
        """DRAM row (same in every bank) of slot ``slot``, chunk ``chunk``."""
        if not 0 <= slot < self.slots:
            raise LayoutError(f"slot {slot} outside [0, {self.slots})")
        if not 0 <= chunk < self.num_chunks:
            raise LayoutError(f"chunk {chunk} outside [0, {self.num_chunks})")
        return self.base_row + slot * self.num_chunks + chunk

    def slot_matrix_rows(self, slot: int) -> np.ndarray:
        """Global matrix row held by each bank in ``slot`` (-1 = padding)."""
        rows = slot * self.banks + np.arange(self.banks)
        return np.where(rows < self.m, rows, -1)

    def slab_by_matrix_row(self, slab: np.ndarray) -> np.ndarray:
        """``slab`` viewed as ``(slots, banks, chunks, elems)``: matrix
        row ``slot * banks + bank``, chunk by chunk."""
        return slab.reshape(
            self.slots, self.num_chunks, self.banks, self.chunk_elems
        ).transpose(0, 2, 1, 3)

    def pass_slots(self, pass_index: int) -> Sequence[int]:
        """The slots (latch positions) processed together in one pass."""
        if not 0 <= pass_index < self.passes:
            raise LayoutError(f"pass {pass_index} outside [0, {self.passes})")
        lo = pass_index * self.latches_per_bank
        hi = min(lo + self.latches_per_bank, self.slots)
        return range(lo, hi)

    def place(self, matrix: np.ndarray) -> List[Tuple[int, int, np.ndarray]]:
        """Lower a matrix to (bank, dram_row, bf16-bits row data) writes."""
        padded = self.pad_matrix(matrix)
        bits = float_to_bf16_bits(padded)
        writes: List[Tuple[int, int, np.ndarray]] = []
        for slot in range(self.slots):
            for bank in range(self.banks):
                mrow = slot * self.banks + bank
                if mrow >= self.m:
                    continue
                for chunk in range(self.num_chunks):
                    lo = chunk * self.chunk_elems
                    writes.append(
                        (bank, self.dram_row(slot, chunk), bits[mrow, lo : lo + self.chunk_elems])
                    )
        return writes


Layout = Union[InterleavedLayout, NoReuseLayout]


def make_layout(
    config: DRAMConfig,
    m: int,
    n: int,
    *,
    interleaved: bool,
    base_row: int = 0,
    latches_per_bank: int = 1,
) -> Layout:
    """Build the layout matching an optimization configuration."""
    if interleaved:
        if latches_per_bank != 1:
            raise LayoutError("the interleaved layout uses a single result latch")
        return InterleavedLayout(config, m, n, base_row)
    return NoReuseLayout(config, m, n, base_row, latches_per_bank)
