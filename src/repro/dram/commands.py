"""The DRAM command taxonomy: standard commands plus Newton's (Table I).

Standard commands: ACT, PRE, PRE_ALL, RD, WR, REF.

Newton extensions (Table I):

========== =============================================================
Command    Operation
========== =============================================================
COMP#      Ganged multiply of sub-chunk # in all banks (the *complex*
           command: global-buffer read + column access + multiply-reduce)
READRES    Read the result latches of all banks in one column access
GWRITE#    WRITE sub-chunk # into the per-channel global buffer
G_ACT#     Ganged activation of four-bank cluster #
========== =============================================================

The Figure 9 ablation additionally needs the *de-optimized* encodings the
full design replaces: per-bank COMP (no ganging) and the three-step
micro-command sequence BUF_READ + COL_READ + MAC (no complex commands).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.config import DRAMConfig


class CommandKind(enum.Enum):
    """Every command the controller can issue."""

    # Standard DRAM
    ACT = "ACT"
    PRE = "PRE"
    PRE_ALL = "PRE_ALL"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    # Newton (Table I)
    G_ACT = "G_ACT"
    GWRITE = "GWRITE"
    COMP = "COMP"
    READRES = "READRES"
    # De-optimized encodings for the Figure 9 ablation
    COMP_BANK = "COMP_BANK"  # per-bank compute (ganging disabled)
    BUF_READ = "BUF_READ"  # step 1 of a non-complex compute
    COL_READ = "COL_READ"  # step 2 of a non-complex compute
    MAC = "MAC"  # step 3 of a non-complex compute
    COL_READ_ALL = "COL_READ_ALL"  # ganged step 2 (gang without complex)
    MAC_ALL = "MAC_ALL"  # ganged step 3 (gang without complex)
    READRES_BANK = "READRES_BANK"  # per-bank result read (ganging disabled)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


NEWTON_KINDS: Tuple[CommandKind, ...] = (
    CommandKind.G_ACT,
    CommandKind.GWRITE,
    CommandKind.COMP,
    CommandKind.READRES,
)
"""The four commands Table I adds to the DRAM interface."""

# ----------------------------------------------------------------------
# the kind table: which resources each kind touches (DESIGN.md, "Command
# rules", lists who reads each set)


def _kinds(*names: str) -> "frozenset[CommandKind]":
    return frozenset(CommandKind[name] for name in names)


ACTIVATION_KINDS = _kinds("ACT", "G_ACT")
"""Kinds that open rows (tRRD, tFAW)."""

COLUMN_KINDS = _kinds("RD", "WR", "COMP", "COMP_BANK", "COL_READ", "COL_READ_ALL")
"""Kinds that access a column of an open row (tRCD, tCCD); the only
kinds that may carry auto-precharge."""

DATA_KINDS = _kinds("RD", "WR", "GWRITE", "READRES", "READRES_BANK")
"""Kinds that take a data-bus slot ``t_aa`` after issue (ganged COMP
never crosses the channel I/O)."""

TREE_FEED_KINDS = _kinds("COMP", "COMP_BANK", "MAC", "MAC_ALL")
"""Kinds that feed the adder tree and a result latch (a result read
waits out the tree drain after the last one)."""

BUFFER_READ_KINDS = _kinds("COMP", "COMP_BANK", "BUF_READ")
"""Kinds that read a global-buffer sub-chunk a GWRITE must have loaded."""

ALL_BANK_KINDS = _kinds("COMP", "COL_READ_ALL", "MAC_ALL", "READRES")
"""The ganged kinds: one command drives every bank of the channel."""

SUBCHUNK_ONLY_KINDS = _kinds("GWRITE", "BUF_READ")
"""Kinds whose one operand is a global-buffer sub-chunk: no bank, no
column."""


def target_banks(command: Command, config: DRAMConfig) -> Sequence[int]:
    """The banks ``command`` acts on under ``config``'s geometry.

    A G_ACT's four-bank cluster, every bank for the ganged kinds, the
    named bank otherwise, and none for bank-less commands (GWRITE,
    BUF_READ, PRE_ALL, REF).
    """
    kind = command.kind
    if kind is CommandKind.G_ACT:
        size = config.bank_group_size
        return range(command.group * size, (command.group + 1) * size)
    if kind in ALL_BANK_KINDS:
        return range(config.banks_per_channel)
    if command.bank is not None:
        return (command.bank,)
    return ()


def bank_group(command: Command, config: DRAMConfig) -> int:
    """The bank group an activation command opens rows in."""
    if command.kind is CommandKind.G_ACT:
        return command.group
    return command.bank // config.bank_group_size


@dataclass(frozen=True)
class Command:
    """One command as placed on the (shared) command bus.

    Attributes:
        kind: the command opcode.
        bank: target bank for per-bank commands, else ``None``.
        group: target four-bank cluster for ``G_ACT``, else ``None``.
        row: DRAM row for activations.
        col: column I/O index for column commands (RD/WR/COMP/...).
        subchunk: global-buffer sub-chunk index for GWRITE/BUF_READ/COMP
            (the COMP# / GWRITE# parameter of Table I).
    """

    kind: CommandKind
    bank: Optional[int] = None
    group: Optional[int] = None
    row: Optional[int] = None
    col: Optional[int] = None
    subchunk: Optional[int] = None
    auto_precharge: bool = field(default=False)

    def describe(self) -> str:
        """Human-readable one-liner for traces."""
        parts = [self.kind.value]
        if self.group is not None:
            parts.append(f"grp={self.group}")
        if self.bank is not None:
            parts.append(f"bank={self.bank}")
        if self.row is not None:
            parts.append(f"row={self.row}")
        if self.col is not None:
            parts.append(f"col={self.col}")
        if self.subchunk is not None:
            parts.append(f"sub={self.subchunk}")
        if self.auto_precharge:
            parts.append("AP")
        return " ".join(parts)


def act(bank: int, row: int) -> Command:
    """Activate ``row`` in ``bank``."""
    return Command(CommandKind.ACT, bank=bank, row=row)


def g_act(group: int, row: int) -> Command:
    """Ganged activation of ``row`` across four-bank cluster ``group``."""
    return Command(CommandKind.G_ACT, group=group, row=row)


def pre(bank: int) -> Command:
    """Precharge ``bank``."""
    return Command(CommandKind.PRE, bank=bank)


def pre_all() -> Command:
    """Precharge every open bank in the channel."""
    return Command(CommandKind.PRE_ALL)


def rd(bank: int, col: int, auto_precharge: bool = False) -> Command:
    """Read one column I/O from the open row of ``bank``."""
    return Command(CommandKind.RD, bank=bank, col=col, auto_precharge=auto_precharge)


def wr(bank: int, col: int, auto_precharge: bool = False) -> Command:
    """Write one column I/O into the open row of ``bank``."""
    return Command(CommandKind.WR, bank=bank, col=col, auto_precharge=auto_precharge)


def ref() -> Command:
    """All-bank refresh."""
    return Command(CommandKind.REF)


def gwrite(subchunk: int) -> Command:
    """Load sub-chunk ``subchunk`` of the input vector into the global buffer."""
    return Command(CommandKind.GWRITE, subchunk=subchunk)


def comp(col: int, subchunk: int, auto_precharge: bool = False) -> Command:
    """Ganged complex compute: broadcast sub-chunk, column-read, MAC — all banks."""
    return Command(CommandKind.COMP, col=col, subchunk=subchunk, auto_precharge=auto_precharge)


def comp_bank(bank: int, col: int, subchunk: int, auto_precharge: bool = False) -> Command:
    """Per-bank complex compute (used when ganging is ablated)."""
    return Command(
        CommandKind.COMP_BANK, bank=bank, col=col, subchunk=subchunk, auto_precharge=auto_precharge
    )


def buf_read(subchunk: int) -> Command:
    """Micro-command: read a sub-chunk from the global buffer (non-complex mode)."""
    return Command(CommandKind.BUF_READ, subchunk=subchunk)


def col_read(bank: int, col: int) -> Command:
    """Micro-command: column access feeding the multipliers (non-complex mode)."""
    return Command(CommandKind.COL_READ, bank=bank, col=col)


def mac(bank: int) -> Command:
    """Micro-command: fire the multiply-reduce (non-complex mode)."""
    return Command(CommandKind.MAC, bank=bank)


def col_read_all(col: int, auto_precharge: bool = False) -> Command:
    """Ganged micro-command: column access in all banks (gang, no complex)."""
    return Command(CommandKind.COL_READ_ALL, col=col, auto_precharge=auto_precharge)


def mac_all() -> Command:
    """Ganged micro-command: fire the multiply-reduce in all banks."""
    return Command(CommandKind.MAC_ALL)


def readres() -> Command:
    """Read all banks' result latches, concatenated, in one access."""
    return Command(CommandKind.READRES)


def readres_bank(bank: int) -> Command:
    """Read a single bank's result latch (used when ganging is ablated)."""
    return Command(CommandKind.READRES_BANK, bank=bank)


# ----------------------------------------------------------------------
# run-length-encoded command runs

RUN_KINDS: Tuple[Tuple[CommandKind, ...], ...] = (
    (CommandKind.COMP,),
    (CommandKind.COMP_BANK,),
    (CommandKind.GWRITE,),
    (CommandKind.BUF_READ, CommandKind.COL_READ, CommandKind.MAC),
    (CommandKind.BUF_READ, CommandKind.COL_READ_ALL, CommandKind.MAC_ALL),
)
"""The command periods a :class:`CommandRun` may repeat: a tile's COMP
burst, one bank's COMP_BANK burst, a chunk's GWRITE prologue, and the
non-complex compute's micro-command triplet in one bank or in all.
Each period holds exactly one *paced* kind (a column or data kind, one
per ``t_ccd``) among kinds only the command bus paces, so a run's issue
cycles satisfy the recurrence the burst timing kernel
(:mod:`repro.dram.burst`) solves in closed form."""


class CommandRun:
    """A run of one repeated command period, compiled instead of
    materialized.

    One ``CommandRun`` stands for ``count`` repetitions of the period
    ``kinds`` (one of :data:`RUN_KINDS`) against one bank scope, ``len(run)``
    commands in all. Each repetition's column and sub-chunk index are
    carried as numpy arrays rather than as Python :class:`Command`
    objects, and each kind in the period takes the operands it names:
    a column kind the column, a buffer kind the sub-chunk, every kind
    but the sub-chunk-only ones the run's bank. Only the column command
    of the *last* repetition may carry auto-precharge — the shape
    Newton's streams emit.

    The per-command objects are produced lazily by :meth:`commands` (for
    the per-command reference solver, the trace writer, and the
    background-traffic path); the fast cold path hands the run itself to
    :meth:`repro.dram.controller.ChannelController.issue_burst`, which
    builds only :meth:`first_period`.

    ``timing_key`` is the run's schedule-relevant identity (period, bank
    scope, operand arrays, count, trailing auto-precharge) — the run
    analogue of the per-command key the schedule cache interns. DRAM rows
    never appear: none of the runnable kinds carries one.
    """

    __slots__ = (
        "kinds",
        "count",
        "bank",
        "cols",
        "subchunks",
        "auto_precharge_last",
        "timing_key",
        "_commands",
        "_first",
    )

    def __init__(
        self,
        kinds: "CommandKind | Tuple[CommandKind, ...]",
        count: int,
        *,
        bank: Optional[int] = None,
        cols: Optional[np.ndarray] = None,
        subchunks: Optional[np.ndarray] = None,
        auto_precharge_last: bool = False,
    ):
        from repro.errors import ProtocolError

        if isinstance(kinds, CommandKind):
            kinds = (kinds,)
        period = "/".join(kind.value for kind in kinds)
        if kinds not in RUN_KINDS:
            raise ProtocolError(f"{period} is not a run period (RUN_KINDS)")
        if count < 1:
            raise ProtocolError("a command run needs at least one command")
        banked = any(
            k not in ALL_BANK_KINDS and k not in SUBCHUNK_ONLY_KINDS for k in kinds
        )
        if banked != (bank is not None):
            raise ProtocolError(f"a {period} run needs a bank iff it is per-bank")
        self.kinds = kinds
        self.count = count
        self.bank = bank
        self.cols = None if cols is None else np.asarray(cols, dtype=np.int32)
        self.subchunks = (
            None if subchunks is None else np.asarray(subchunks, dtype=np.int32)
        )
        for name, arr, needed in (
            ("cols", self.cols, any(k in COLUMN_KINDS for k in kinds)),
            ("subchunks", self.subchunks, any(_takes_subchunk(k) for k in kinds)),
        ):
            if needed and getattr(arr, "shape", None) != (count,):
                raise ProtocolError(f"a {period} run needs {name} of shape ({count},)")
        self.auto_precharge_last = auto_precharge_last
        self.timing_key = (
            kinds,
            bank,
            count,
            auto_precharge_last,
            None if self.cols is None else self.cols.tobytes(),
            None if self.subchunks is None else self.subchunks.tobytes(),
        )
        self._commands: Optional[Tuple[Command, ...]] = None
        self._first: Optional[Tuple[Command, ...]] = None

    def _command_at(self, i: int) -> Command:
        repetition, slot = divmod(i, len(self.kinds))
        kind = self.kinds[slot]
        column = kind in COLUMN_KINDS
        return Command(
            kind,
            bank=None if kind in SUBCHUNK_ONLY_KINDS else self.bank,
            col=int(self.cols[repetition]) if column else None,
            subchunk=(
                int(self.subchunks[repetition]) if _takes_subchunk(kind) else None
            ),
            auto_precharge=(
                column
                and self.auto_precharge_last
                and repetition == self.count - 1
            ),
        )

    def first_period(self) -> Tuple[Command, ...]:
        """The run's first period (what the burst kernel issues exactly)."""
        if self._first is None:
            self._first = tuple(self._command_at(i) for i in range(len(self.kinds)))
        return self._first

    def commands(self) -> Tuple[Command, ...]:
        """Materialize the run as per-command objects (lazily, cached)."""
        if self._commands is None:
            self._commands = tuple(self._command_at(i) for i in range(len(self)))
        return self._commands

    def __len__(self) -> int:
        return self.count * len(self.kinds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        period = "/".join(k.value for k in self.kinds)
        scope = "" if self.bank is None else f" bank={self.bank}"
        ap = " AP" if self.auto_precharge_last else ""
        return f"<CommandRun {period} x{self.count}{scope}{ap}>"


def _takes_subchunk(kind: CommandKind) -> bool:
    return kind in SUBCHUNK_ONLY_KINDS or kind in BUFFER_READ_KINDS


def comp_run(cols: int, *, auto_precharge_last: bool = True, start: int = 0) -> CommandRun:
    """A tile's ganged COMP burst: ``COMP#start .. COMP#(start+cols-1)``."""
    idx = np.arange(start, start + cols, dtype=np.int32)
    return CommandRun(
        CommandKind.COMP,
        cols,
        cols=idx,
        subchunks=idx,
        auto_precharge_last=auto_precharge_last,
    )


def comp_bank_run(
    bank: int, cols: int, *, auto_precharge_last: bool = True, start: int = 0
) -> CommandRun:
    """One bank's COMP_BANK burst (the ganging-ablated encoding)."""
    idx = np.arange(start, start + cols, dtype=np.int32)
    return CommandRun(
        CommandKind.COMP_BANK,
        cols,
        bank=bank,
        cols=idx,
        subchunks=idx,
        auto_precharge_last=auto_precharge_last,
    )


def micro_run(
    cols: int, *, bank: Optional[int] = None, auto_precharge_last: bool = True
) -> CommandRun:
    """A tile's non-complex compute burst: per column, BUF_READ + COL_READ
    + MAC in ``bank``, or BUF_READ + COL_READ_ALL + MAC_ALL in every bank
    (``bank=None``, the ganged encoding)."""
    idx = np.arange(cols, dtype=np.int32)
    kinds = (
        (CommandKind.BUF_READ, CommandKind.COL_READ, CommandKind.MAC)
        if bank is not None
        else (CommandKind.BUF_READ, CommandKind.COL_READ_ALL, CommandKind.MAC_ALL)
    )
    return CommandRun(
        kinds,
        cols,
        bank=bank,
        cols=idx,
        subchunks=idx,
        auto_precharge_last=auto_precharge_last,
    )


def gwrite_run(subchunks: int) -> CommandRun:
    """A chunk's GWRITE prologue: sub-chunks ``0 .. subchunks-1``."""
    return CommandRun(
        CommandKind.GWRITE,
        subchunks,
        subchunks=np.arange(subchunks, dtype=np.int32),
    )
