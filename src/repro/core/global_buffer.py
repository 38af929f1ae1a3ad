"""The per-channel global input-vector buffer (Section III-B).

One DRAM-row-wide buffer (512 bfloat16) shared by every bank in the
channel — the "non-intuitive" feature that amortizes the input buffer's
area over the whole channel. It is loaded one column-access width (a
16-element *sub-chunk*) at a time by GWRITE commands, and COMP broadcasts
a sub-chunk to all banks' multiplier inputs with no per-bank latching.

The per-command :class:`~repro.core.reference.ReferenceExecutor` drives
this model GWRITE by GWRITE; the engine's datapath reads the rounded
input a chunk at a time instead (:mod:`repro.core.datapath`).
"""

from __future__ import annotations

import numpy as np

from repro.dram.config import DRAMConfig
from repro.errors import ProtocolError
from repro.numerics.bfloat16 import quantize_bf16


class GlobalBuffer:
    """Functional model of the channel's shared input-vector buffer."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.subchunks = config.cols_per_row
        self._data = np.zeros(config.elems_per_row, dtype=np.float32)
        self._valid = np.zeros(self.subchunks, dtype=bool)
        self.loads = 0
        self.broadcasts = 0

    def _check_index(self, subchunk: int) -> None:
        if not 0 <= subchunk < self.subchunks:
            raise ProtocolError(
                f"sub-chunk {subchunk} outside [0, {self.subchunks})"
            )

    def load_subchunk(self, subchunk: int, values: np.ndarray) -> None:
        """GWRITE#: store one sub-chunk (bfloat16-rounded on entry)."""
        self._check_index(subchunk)
        values = np.asarray(values, dtype=np.float32).reshape(-1)
        k = self.config.elems_per_col
        if values.shape != (k,):
            raise ProtocolError(
                f"GWRITE of {values.shape[0]} elements; a sub-chunk holds {k}"
            )
        lo = subchunk * k
        self._data[lo : lo + k] = quantize_bf16(values)
        self._valid[subchunk] = True
        self.loads += 1

    def read_subchunk(self, subchunk: int) -> np.ndarray:
        """Broadcast one sub-chunk to the banks (COMP's first step)."""
        self._check_index(subchunk)
        if not self._valid[subchunk]:
            raise ProtocolError(
                f"COMP read sub-chunk {subchunk} before it was GWRITE-loaded"
            )
        self.broadcasts += 1
        k = self.config.elems_per_col
        lo = subchunk * k
        return self._data[lo : lo + k].copy()

    def invalidate(self) -> None:
        """Clear the buffer (a new chunk is about to be loaded)."""
        self._valid[:] = False
        self._data[:] = 0.0
