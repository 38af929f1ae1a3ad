"""Lowering Algorithm 1's tiled matrix-vector product to command streams.

For the full Newton design the stream per chunk is (Figure 7):

* 32 ``GWRITE`` commands load the input chunk into the global buffer;
* per tile: a refresh barrier, four ``G_ACT`` commands (one per four-bank
  cluster), 32 ganged ``COMP`` commands (sub-chunk = column index, the
  last with auto-precharge), and one ``READRES``.

Each disabled optimization swaps in its de-optimized encoding:

* no ``four_bank_activation`` → one ``ACT`` per bank (staggered, under
  the standard four-activation window);
* no ``ganged_compute`` → per-bank compute and per-bank result reads;
* no ``complex_commands`` → every compute becomes the three-step
  ``BUF_READ`` + ``COL_READ`` + ``MAC`` micro-command sequence;
* no ``interleaved_reuse`` → the row-major (Newton-no-reuse) traversal:
  the result latch accumulates an entire matrix row across chunks (low
  output traffic) but the input chunk is re-fetched for every pass of
  matrix rows (the traffic explosion Section III-C describes), and the
  activation function is applied by the in-DRAM lookup table.

Every tile piece — activations, compute phase, result read, a chunk's
GWRITE prologue — is lowered as one :class:`BlockStep`. Only the
activations name a DRAM row, so every other piece is a *template*:
built once per tile shape (chunk width) and reused by every tile. The
per-tile functional payloads, which the per-command reference executes
(:meth:`CommandStreamGenerator.gemv_steps`), ride on copies only when
asked for; the engine's streams carry none. A Non-opt tile is ~1,550
commands but costs a handful of objects to lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.dram import commands as cmds
from repro.dram.commands import Command, CommandKind, CommandRun
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.core.layout import InterleavedLayout, Layout, NoReuseLayout
from repro.core.optimizations import OptimizationConfig
from repro.errors import ConfigurationError

ACTIVATION_WINDOW_SIZE = 4
"""The JEDEC four-activation window width (used by duration estimates)."""


@dataclass(frozen=True)
class EmitOp:
    """Read result latches out to the host after this command issues.

    ``chunk`` is the chunk the partials belong to for the interleaved
    traversal, or ``None`` when the latch already accumulated the whole
    matrix row (a whole-row readout: the no-reuse traversal or a
    tile-major family, where the in-DRAM LUT applies the activation
    before readout; see :meth:`~repro.dram.config.FamilyRules.whole_row_readout`).
    """

    latch: int
    chunk: Optional[int]
    matrix_rows: np.ndarray = field(hash=False)


@dataclass(frozen=True)
class Step:
    """One element of a lowered command stream."""

    command: Optional[Command] = None
    barrier_cycles: int = 0
    """If positive: a refresh barrier covering a row operation this long."""
    new_chunk: Optional[int] = None
    """If set: the global buffer is being repurposed for this chunk."""
    emit: Optional[EmitOp] = None
    latch: int = 0
    """Result latch the tile's compute commands accumulate into (only
    meaningful on compute steps; the row-major multi-latch variant uses
    indices above zero)."""


def _item_key(item) -> tuple:
    """The timing-relevant identity of a timed stream item.

    The DRAM row is deliberately excluded: which row an activation opens
    never affects the schedule, and it is the one operand that differs
    tile to tile in an otherwise periodic stream. A
    :class:`~repro.dram.commands.CommandRun` keys as its whole run
    identity (kind, bank scope, operand arrays, trailing AP) — runnable
    kinds never carry a row.
    """
    if isinstance(item, CommandRun):
        return ("run",) + item.timing_key
    return (
        item.kind,
        item.bank,
        item.group,
        item.col,
        item.subchunk,
        item.auto_precharge,
    )


class Fragment:
    """The row-blind identity of a tile piece, shared by every tile of one
    shape.

    ``key`` is content (the items' row-blind timing keys), never
    object identity, so the schedule cache can intern it once and
    engines sharing the cache agree on its id. It is computed once per
    shape, not once per tile.
    """

    __slots__ = ("key", "n_commands", "kind")

    def __init__(self, items: Tuple):
        self.key = tuple(_item_key(item) for item in items)
        self.n_commands = sum(
            len(item) if isinstance(item, CommandRun) else 1 for item in items
        )
        kinds = {item.kind for item in items}
        self.kind: Optional[CommandKind] = kinds.pop() if len(kinds) == 1 else None
        """The one command kind the piece issues, or ``None`` if mixed."""


@dataclass(frozen=True)
class BlockStep:
    """One tile piece lowered as a unit: its timed items and payloads.

    ``items`` are single :class:`~repro.dram.commands.Command` objects
    and homogeneous :class:`~repro.dram.commands.CommandRun` runs (a
    tile's COMP burst, one bank's COMP_BANK burst, a chunk's GWRITE
    prologue) — what the engine's cold path issues. A payload-free block
    is a template: the generator yields the same object for every tile
    of a shape. The payload fields describe the exact per-command steps
    the block stands for (:meth:`expand`).
    """

    fragment: Fragment
    items: Tuple  # Tuple[Command | CommandRun, ...]
    gwrite_chunk: Optional[int] = None
    """If set: the global buffer is repurposed for this chunk, and the
    block's GWRITEs load its sub-chunks ``0..n-1``."""
    compute: Optional[int] = None
    """If set: the block is a tile's compute phase, and this is the
    result latch every command of the block accumulates into."""
    emit: Optional[EmitOp] = None
    """Result read fired by the block's last command."""

    def with_payload(self, **payload) -> "BlockStep":
        """This block's items carrying one tile's functional payload."""
        return BlockStep(self.fragment, self.items, **payload)

    def commands(self) -> Iterator[Command]:
        for item in self.items:
            if isinstance(item, CommandRun):
                yield from item.commands()
            else:
                yield item

    def expand(self) -> Iterator[Step]:
        """The exact per-command steps this block stands for."""
        if self.gwrite_chunk is not None:
            yield Step(new_chunk=self.gwrite_chunk)
        latch = self.compute or 0
        last = self.fragment.n_commands - 1
        for i, command in enumerate(self.commands()):
            yield Step(
                command=command,
                emit=self.emit if i == last else None,
                latch=latch,
            )


StreamItem = Union[Step, BlockStep]
"""A lowered-stream element: a tile piece, or a refresh-barrier
:class:`Step`."""


class CommandStreamGenerator:
    """Generates the command stream for one channel's GEMV slice."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        opt: OptimizationConfig,
        layout: Layout,
    ):
        if opt.interleaved_reuse and not isinstance(layout, InterleavedLayout):
            raise ConfigurationError("interleaved_reuse requires an InterleavedLayout")
        if not opt.interleaved_reuse and not isinstance(layout, NoReuseLayout):
            raise ConfigurationError("the no-reuse traversal requires a NoReuseLayout")
        config.rules.check_traversal(opt.interleaved_reuse)
        self.config = config
        self.timing = timing
        self.opt = opt
        self.layout = layout
        self._templates: Dict[tuple, BlockStep] = {}
        self._activation_fragment: Optional[Fragment] = None

    # ------------------------------------------------------------------
    # duration estimates (for the refresh barrier)

    def activation_phase_estimate(self) -> int:
        """Worst-case cycles from first activation command to row-open."""
        t = self.timing
        banks = self.config.banks_per_channel
        group = self.config.bank_group_size
        faw = t.faw_window(self.opt.aggressive_tfaw)
        if self.opt.four_bank_activation:
            groups = banks // group
            stagger = (groups - 1) * max(faw, t.t_rrd, t.t_cmd)
        else:
            windows = (
                banks // ACTIVATION_WINDOW_SIZE - 1
                if banks >= ACTIVATION_WINDOW_SIZE
                else 0
            )
            stagger = max((banks - 1) * max(t.t_rrd, t.t_cmd), windows * faw)
        return stagger + t.t_rcd

    def compute_commands_per_tile(self) -> int:
        """Command-bus slots one tile's compute phase occupies."""
        cols = self.config.cols_per_row
        per_compute = 1 if self.opt.complex_commands else 3
        per_col = 1 if self.opt.ganged_compute else self.config.banks_per_channel
        return cols * per_compute * per_col

    def tile_duration_estimate(self) -> int:
        """Conservative bound on one tile's row-open duration.

        Used as the refresh barrier's window: an *under*estimate would
        let a refresh mature inside the row operation (the hazard
        Section III-E's rule exists to prevent), so the bound covers
        both the data-bound and command-bound regimes — in the
        de-optimized designs the activation and result-read commands
        also occupy command-bus slots serially — plus a small margin.
        """
        t = self.timing
        banks = self.config.banks_per_channel
        act_cmds = (
            self.config.bank_groups if self.opt.four_bank_activation else banks
        )
        readres_cmds = 1 if self.opt.ganged_compute else banks
        total_cmds = act_cmds + self.compute_commands_per_tile() + readres_cmds
        busy = max(self.config.cols_per_row * t.t_ccd, total_cmds * t.t_cmd)
        readout = t.t_aa + t.t_tree_drain + t.t_ccd
        margin = 4 * banks
        return (
            self.activation_phase_estimate() + busy + t.t_rp + readout + margin
        )

    # ------------------------------------------------------------------
    # tile pieces

    def _template(
        self, shape: tuple, build: Callable[..., Iterable], *args
    ) -> BlockStep:
        """The payload-free block of one tile piece, built once per shape."""
        block = self._templates.get(shape)
        if block is None:
            items = tuple(build(*args))
            block = self._templates[shape] = BlockStep(Fragment(items), items)
        return block

    def _activation_block(self, dram_row: int) -> BlockStep:
        """A tile's activations: its own commands (they name the row),
        but one shared, row-blind fragment."""
        if self.opt.four_bank_activation:
            items = tuple(
                cmds.g_act(group, dram_row)
                for group in range(self.config.bank_groups)
            )
        else:
            items = tuple(
                cmds.act(bank, dram_row)
                for bank in range(self.config.banks_per_channel)
            )
        if self._activation_fragment is None:
            self._activation_fragment = Fragment(items)
        return BlockStep(self._activation_fragment, items)

    def _compute_commands(self, cols: int) -> Iterator:
        """One tile's compute phase over ``cols`` columns.

        The two *complex-command* modes compile to homogeneous runs (a
        tile's COMP burst is run-length encodable by construction); the
        three-step micro-command modes interleave distinct kinds and stay
        per-command."""
        banks = self.config.banks_per_channel
        gang = self.opt.ganged_compute
        fused = self.opt.complex_commands
        if gang and fused:
            yield cmds.comp_run(cols)
        elif gang:
            for col in range(cols):
                yield cmds.buf_read(col)
                yield cmds.col_read_all(col, auto_precharge=col == cols - 1)
                yield cmds.mac_all()
        elif fused:
            for bank in range(banks):
                yield cmds.comp_bank_run(bank, cols)
        else:
            for bank in range(banks):
                for col in range(cols):
                    yield cmds.buf_read(col)
                    yield Command(
                        CommandKind.COL_READ,
                        bank=bank,
                        col=col,
                        auto_precharge=col == cols - 1,
                    )
                    yield cmds.mac(bank)

    def _readres_commands(self) -> Iterator[Command]:
        if self.opt.ganged_compute:
            yield cmds.readres()
        else:
            for bank in range(self.config.banks_per_channel):
                yield cmds.readres_bank(bank)

    def _compute_item(self, cols: int, latch: Optional[int]) -> BlockStep:
        """The compute phase, accumulating into ``latch`` (``None``: no
        payload)."""
        block = self._template(("compute", cols), self._compute_commands, cols)
        return block if latch is None else block.with_payload(compute=latch)

    def _readres_item(self, emit: Optional[EmitOp]) -> BlockStep:
        block = self._template(("readres",), self._readres_commands)
        return block if emit is None else block.with_payload(emit=emit)

    def _gwrite_item(self, chunk: int, payloads: bool) -> BlockStep:
        subchunks = self.layout.cols_in_chunk(chunk)
        block = self._template(
            ("gwrite", subchunks), lambda: (cmds.gwrite_run(subchunks),)
        )
        if not payloads:
            return block
        return block.with_payload(gwrite_chunk=chunk)

    # ------------------------------------------------------------------
    # full streams

    def gemv_steps(self) -> Iterator[Step]:
        """The full command stream, one :class:`Step` per command.

        The materialized view of :meth:`gemv_items`, payloads included —
        what the per-command
        :class:`~repro.core.reference.ReferenceExecutor` (the datapath's
        bit contract), the trace example and the tick-level cross-check
        consume. The engine itself executes the payload-free item form."""
        for item in self.gemv_items():
            if isinstance(item, BlockStep):
                yield from item.expand()
            else:
                yield item

    def gemv_items(self, *, payloads: bool = True) -> "Iterator[StreamItem]":
        """The compiled command stream for one matrix-vector product.

        Tile pieces arrive as :class:`BlockStep`; refresh barriers as
        plain :class:`Step`. ``gemv_steps()`` is always exactly this
        stream with every block expanded in place. ``payloads=False``
        lowers the same commands without functional payloads (no tile
        evaluations, result emits or buffer loads) — the stream every
        engine runs, whose row-independent pieces are the shared
        templates themselves."""
        if self.config.rules.tile_major:
            yield from self._tile_major_items(payloads)
        elif self.opt.interleaved_reuse:
            yield from self._interleaved_items(payloads)
        else:
            yield from self._no_reuse_items(payloads)

    def _interleaved_items(self, payloads: bool) -> "Iterator[StreamItem]":
        layout = self.layout
        assert isinstance(layout, InterleavedLayout)
        barrier = Step(barrier_cycles=self.tile_duration_estimate())
        for chunk in range(layout.num_chunks):
            cols = layout.cols_in_chunk(chunk)
            yield self._gwrite_item(chunk, payloads)
            for tile in range(layout.tiles):
                dram_row = layout.dram_row(chunk, tile)
                yield barrier
                yield self._activation_block(dram_row)
                yield self._compute_item(cols, 0 if payloads else None)
                yield self._readres_item(
                    EmitOp(0, chunk, layout.tile_matrix_rows(tile))
                    if payloads
                    else None
                )

    def _tile_major_items(self, payloads: bool) -> "Iterator[StreamItem]":
        """The tile-major traversal (MAC-DO-style output-stationary).

        Partials for one tile accumulate in result latch 0 across every
        input chunk — exactly the in-latch accumulation the no-reuse
        traversal performs per matrix row — and drain with a *single*
        READRES per tile (``chunk=None``: the latch holds the whole row
        sum, so the in-DRAM LUT applies at readout). The price is the
        dual of Newton's: the input chunk is re-streamed through the
        global buffer once per tile instead of once per layer.
        """
        layout = self.layout
        assert isinstance(layout, InterleavedLayout)
        barrier = Step(barrier_cycles=self.tile_duration_estimate())
        for tile in range(layout.tiles):
            for chunk in range(layout.num_chunks):
                yield self._gwrite_item(chunk, payloads)
                dram_row = layout.dram_row(chunk, tile)
                yield barrier
                yield self._activation_block(dram_row)
                yield self._compute_item(
                    layout.cols_in_chunk(chunk), 0 if payloads else None
                )
            yield self._readres_item(
                EmitOp(0, None, layout.tile_matrix_rows(tile)) if payloads else None
            )

    def _no_reuse_items(self, payloads: bool) -> "Iterator[StreamItem]":
        layout = self.layout
        assert isinstance(layout, NoReuseLayout)
        barrier = Step(barrier_cycles=self.tile_duration_estimate())
        for pass_index in range(layout.passes):
            slots = list(layout.pass_slots(pass_index))
            for chunk in range(layout.num_chunks):
                # The input chunk must be re-fetched every pass: this is
                # the traffic the interleaved layout eliminates.
                yield self._gwrite_item(chunk, payloads)
                cols = layout.cols_in_chunk(chunk)
                for latch, slot in enumerate(slots):
                    dram_row = layout.dram_row(slot, chunk)
                    yield barrier
                    yield self._activation_block(dram_row)
                    yield self._compute_item(cols, latch if payloads else None)
            for latch, slot in enumerate(slots):
                yield self._readres_item(
                    EmitOp(latch, None, layout.slot_matrix_rows(slot))
                    if payloads
                    else None
                )
