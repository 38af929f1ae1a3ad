"""A per-command reference executor for cross-checking the engine.

The engine computes each GEMV from its layout, one vectorized kernel
call per input chunk (:mod:`repro.core.datapath`). This executor walks
the lowered Step stream, payloads included, the way the hardware would —
GWRITE by GWRITE into the global buffer, COMP by COMP through each
bank's :class:`~repro.core.mac_unit.BankMacUnit` (including the
non-complex BUF_READ/COL_READ/MAC micro-sequences), READRES by latch
read — exercising every protocol check (buffer validity, latch bounds)
along the way. Tests pin the engine's outputs bit-identical to it.

It is deliberately slow; use it for verification, not experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.command_gen import CommandStreamGenerator
from repro.core.global_buffer import GlobalBuffer
from repro.core.layout import Layout
from repro.core.mac_unit import BankMacUnit
from repro.core.optimizations import OptimizationConfig
from repro.dram.commands import (
    ACTIVATION_KINDS,
    COLUMN_KINDS,
    Command,
    CommandKind,
    target_banks,
)
from repro.dram.config import DRAMConfig
from repro.dram.storage import BankStorage
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError
from repro.numerics.bfloat16 import bf16_bits_to_float


class ReferenceExecutor:
    """Interprets GEMV command streams one command at a time."""

    def __init__(self, config: DRAMConfig, opt: OptimizationConfig):
        self.config = config
        self.opt = opt
        self.storage = [
            BankStorage(config, b) for b in range(config.banks_per_channel)
        ]
        self.buffer = GlobalBuffer(config)
        self.macs = [
            BankMacUnit(config, num_latches=opt.result_latches)
            for _ in range(config.banks_per_channel)
        ]
        self._open_row: List[Optional[int]] = [None] * config.banks_per_channel
        # Non-complex mode staging: the broadcast sub-chunk and each
        # bank's column latch, filled by BUF_READ / COL_READ, consumed
        # by MAC / MAC_ALL.
        self._broadcast: Optional[np.ndarray] = None
        self._column_latch: Dict[int, np.ndarray] = {}
        self._current_latch = 0

    def load_matrix(self, layout: Layout, matrix: np.ndarray) -> None:
        """Place the matrix exactly as the engine does."""
        for bank, row, bits in layout.place(matrix):
            self.storage[bank].write_row(row, bits)

    # ------------------------------------------------------------------

    def _col_data(self, bank: int, col: int) -> np.ndarray:
        row = self._open_row[bank]
        if row is None:
            raise ProtocolError(f"bank {bank}: column access with no open row")
        return bf16_bits_to_float(self.storage[bank].read_col(row, col))

    def _mac(self, bank: int, matrix_sub: np.ndarray, input_sub: np.ndarray) -> None:
        self.macs[bank].compute(matrix_sub, input_sub, latch=self._current_latch)

    def _execute(self, command: Command, padded_vector: np.ndarray, chunk: int):
        kind = command.kind
        if kind in ACTIVATION_KINDS:
            for bank in target_banks(command, self.config):
                self._open_row[bank] = command.row
        elif kind is CommandKind.GWRITE:
            k = self.config.elems_per_col
            base = chunk * self.config.elems_per_row + command.subchunk * k
            self.buffer.load_subchunk(
                command.subchunk, padded_vector[base : base + k]
            )
        elif kind is CommandKind.COMP:
            sub = self.buffer.read_subchunk(command.subchunk)
            for bank in range(self.config.banks_per_channel):
                self._mac(bank, self._col_data(bank, command.col), sub)
        elif kind is CommandKind.COMP_BANK:
            sub = self.buffer.read_subchunk(command.subchunk)
            self._mac(command.bank, self._col_data(command.bank, command.col), sub)
        elif kind is CommandKind.BUF_READ:
            self._broadcast = self.buffer.read_subchunk(command.subchunk)
        elif kind is CommandKind.COL_READ:
            self._column_latch[command.bank] = self._col_data(
                command.bank, command.col
            )
        elif kind is CommandKind.COL_READ_ALL:
            for bank in range(self.config.banks_per_channel):
                self._column_latch[bank] = self._col_data(bank, command.col)
        elif kind is CommandKind.MAC:
            if self._broadcast is None or command.bank not in self._column_latch:
                raise ProtocolError("MAC before BUF_READ/COL_READ staged operands")
            self._mac(command.bank, self._column_latch[command.bank], self._broadcast)
        elif kind is CommandKind.MAC_ALL:
            if self._broadcast is None:
                raise ProtocolError("MAC_ALL before BUF_READ staged the broadcast")
            for bank in range(self.config.banks_per_channel):
                self._mac(bank, self._column_latch[bank], self._broadcast)
        # PRE/PRE_ALL/REF/RD/WR/READRES* handled by the caller or no-op
        if command.auto_precharge and kind in COLUMN_KINDS:
            for bank in target_banks(command, self.config):
                self._open_row[bank] = None

    def run_gemv(
        self,
        timing: TimingParams,
        layout: Layout,
        vector: np.ndarray,
    ) -> np.ndarray:
        """Interpret the full stream and return the fp32 output vector."""
        generator = CommandStreamGenerator(self.config, timing, self.opt, layout)
        padded = layout.pad_vector(vector)
        output = np.zeros(layout.m, dtype=np.float32)
        chunk = 0
        for step in generator.gemv_steps():
            if step.new_chunk is not None:
                chunk = step.new_chunk
                self.buffer.invalidate()
            if step.command is not None:
                self._current_latch = step.latch
                self._execute(step.command, padded, chunk)
            if step.emit is not None:
                emit = step.emit
                values = np.array(
                    [mac.read_and_clear(emit.latch) for mac in self.macs],
                    dtype=np.float32,
                )
                mask = emit.matrix_rows >= 0
                np.add.at(output, emit.matrix_rows[mask], values[mask])
        return output
