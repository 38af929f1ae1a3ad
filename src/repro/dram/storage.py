"""Functional data storage for one DRAM bank.

Rows are allocated lazily as uint16 arrays holding bfloat16 bit patterns,
so a 32K-row bank costs memory only for the rows a workload touches.
The per-command reference executor loads into it row by row; a
functional device instead holds each resident matrix once, as one slab
in matrix-row order (see
:attr:`repro.core.datapath.BatchedDatapath.slabs`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.dram.config import DRAMConfig
from repro.errors import LayoutError


class BankStorage:
    """Lazily allocated row storage for one bank."""

    def __init__(self, config: DRAMConfig, bank_index: int):
        self.config = config
        self.bank_index = bank_index
        self._rows: Dict[int, np.ndarray] = {}

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.config.rows_per_bank:
            raise LayoutError(
                f"bank {self.bank_index}: row {row} outside "
                f"[0, {self.config.rows_per_bank})"
            )

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.config.cols_per_row:
            raise LayoutError(
                f"bank {self.bank_index}: column {col} outside "
                f"[0, {self.config.cols_per_row})"
            )

    @property
    def allocated_rows(self) -> int:
        """Number of rows currently backed by real arrays."""
        return len(self._rows)

    def row_array(self, row: int) -> np.ndarray:
        """The backing uint16 array for ``row`` (allocating zeros if new)."""
        self._check_row(row)
        arr = self._rows.get(row)
        if arr is None:
            arr = np.zeros(self.config.elems_per_row, dtype=np.uint16)
            self._rows[row] = arr
        return arr

    def write_row(self, row: int, data: np.ndarray) -> None:
        """Overwrite an entire row with bf16 bit patterns."""
        self._check_row(row)
        data = np.ascontiguousarray(data, dtype=np.uint16)
        if data.shape != (self.config.elems_per_row,):
            raise LayoutError(
                f"row write of shape {data.shape}, expected "
                f"({self.config.elems_per_row},)"
            )
        self._rows[row] = data.copy()

    def read_row(self, row: int) -> np.ndarray:
        """Read an entire row (a copy) as bf16 bit patterns."""
        return self.row_array(row).copy()

    def read_col(self, row: int, col: int) -> np.ndarray:
        """Read one column I/O (a sub-chunk of 16 elements)."""
        self._check_col(col)
        k = self.config.elems_per_col
        return self.row_array(row)[col * k : (col + 1) * k].copy()

    def write_col(self, row: int, col: int, data: np.ndarray) -> None:
        """Write one column I/O."""
        self._check_col(col)
        k = self.config.elems_per_col
        data = np.ascontiguousarray(data, dtype=np.uint16)
        if data.shape != (k,):
            raise LayoutError(f"column write of shape {data.shape}, expected ({k},)")
        self.row_array(row)[col * k : (col + 1) * k] = data
