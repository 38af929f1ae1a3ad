"""Bit-level command encoding for the DRAM-like interface.

Newton's host issues commands over the standard DRAM command/address
pins — that is what makes the interface "indistinguishable from regular
DRAM". This module packs every command into a fixed-width command word
(opcode + bank/group + row + column/sub-chunk + flags), mirroring how a
real command decoder would see it, and decodes it back. The encoding is
validated by an exhaustive round-trip property test.

Field layout (LSB first):

====== ===== ==========================================
field  bits  meaning
====== ===== ==========================================
opcode 5     CommandKind ordinal
bank   6     bank index (or four-bank cluster for G_ACT)
row    17    DRAM row
col    7     column I/O or global-buffer sub-chunk
ap     1     auto-precharge flag
====== ===== ==========================================
"""

from __future__ import annotations

from typing import Dict

from repro.dram.commands import (
    ACTIVATION_KINDS,
    BUFFER_READ_KINDS,
    COLUMN_KINDS,
    SUBCHUNK_ONLY_KINDS,
    Command,
    CommandKind,
)
from repro.errors import ProtocolError

_OPCODE_BITS = 5
_BANK_BITS = 6
_ROW_BITS = 17
_COL_BITS = 7

COMMAND_WORD_BITS = _OPCODE_BITS + _BANK_BITS + _ROW_BITS + _COL_BITS + 1
"""Total width of one encoded command word."""

_KINDS = list(CommandKind)
_OPCODES: Dict[CommandKind, int] = {kind: i for i, kind in enumerate(_KINDS)}

_BANK_SHIFT = _OPCODE_BITS
_ROW_SHIFT = _BANK_SHIFT + _BANK_BITS
_COL_SHIFT = _ROW_SHIFT + _ROW_BITS
_AP_SHIFT = _COL_SHIFT + _COL_BITS

_GROUP_KINDS = frozenset({CommandKind.G_ACT})


def _field(value: "int | None", bits: int, label: str) -> int:
    if value is None:
        return 0
    if not 0 <= value < (1 << bits):
        raise ProtocolError(f"{label} {value} does not fit in {bits} bits")
    return value


def encode(command: Command) -> int:
    """Pack a command into its command word."""
    if command.kind not in _OPCODES:
        raise ProtocolError(f"unknown command kind {command.kind!r}")
    bank_field = command.group if command.kind in _GROUP_KINDS else command.bank
    col_field = (
        command.subchunk
        if (command.kind in SUBCHUNK_ONLY_KINDS or command.col is None)
        else command.col
    )
    word = _OPCODES[command.kind]
    word |= _field(bank_field, _BANK_BITS, "bank/group") << _BANK_SHIFT
    word |= _field(command.row, _ROW_BITS, "row") << _ROW_SHIFT
    word |= _field(col_field, _COL_BITS, "col/sub-chunk") << _COL_SHIFT
    word |= (1 if command.auto_precharge else 0) << _AP_SHIFT
    return word


def decode(word: int) -> Command:
    """Unpack a command word back into a :class:`Command`.

    The inverse of :func:`encode` for every command the generator emits
    (COMP's sub-chunk equals its column on the wire, as in Table I where
    COMP# carries a single sub-chunk parameter).
    """
    if not 0 <= word < (1 << COMMAND_WORD_BITS):
        raise ProtocolError(f"command word {word:#x} out of range")
    opcode = word & ((1 << _OPCODE_BITS) - 1)
    if opcode >= len(_KINDS):
        raise ProtocolError(f"opcode {opcode} is not a known command")
    kind = _KINDS[opcode]
    bank_field = (word >> _BANK_SHIFT) & ((1 << _BANK_BITS) - 1)
    row = (word >> _ROW_SHIFT) & ((1 << _ROW_BITS) - 1)
    col = (word >> _COL_SHIFT) & ((1 << _COL_BITS) - 1)
    ap = bool((word >> _AP_SHIFT) & 1)

    bank = None
    group = None
    if kind in _GROUP_KINDS:
        group = bank_field
    elif kind in (
        CommandKind.ACT,
        CommandKind.PRE,
        CommandKind.RD,
        CommandKind.WR,
        CommandKind.COMP_BANK,
        CommandKind.COL_READ,
        CommandKind.MAC,
        CommandKind.READRES_BANK,
    ):
        bank = bank_field

    row_value = row if kind in ACTIVATION_KINDS else None
    col_value = None
    subchunk = None
    if kind in SUBCHUNK_ONLY_KINDS:
        subchunk = col
    elif kind in COLUMN_KINDS:
        col_value = col
        if kind in BUFFER_READ_KINDS:
            subchunk = col  # Table I: COMP# names one sub-chunk parameter
    return Command(
        kind=kind,
        bank=bank,
        group=group,
        row=row_value,
        col=col_value,
        subchunk=subchunk,
        auto_precharge=ap,
    )
