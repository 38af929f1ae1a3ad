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
GWRITE prologue — is lowered as one :class:`BlockStep` over a
*template*: built once per tile shape (chunk width) and reused by every
tile. A compute phase and a GWRITE prologue are command runs
(:class:`~repro.dram.commands.CommandRun`): one run per bank scope, each
repeating a COMP, a COMP_BANK or a micro-command triplet column after
column, which the cold path solves in closed form
(:mod:`repro.dram.burst`). The activations' template is row-blind, and
a tile's activation block carries only the DRAM row it opens; its
row-bearing commands are built (:func:`at_row`) only where commands
issue one at a time.

The stream is periodic by construction: the tiles of a chunk differ
only in the row they open, so the generator yields it as
runs (:class:`StreamRun`), a period of pieces repeated ``count`` times with
the row advancing by a fixed stride — the tiles of a chunk
(interleaved), the chunks of a tile (tile-major) or of a pass
(no-reuse). Lowering a layout therefore builds O(chunks × latches)
blocks, not one per tile. The per-tile functional payloads, which the
per-command reference executes
(:meth:`CommandStreamGenerator.gemv_steps`), ride on copies only when
asked for, one run per repeat; the engine's streams carry none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.dram import commands as cmds
from repro.dram.commands import ACTIVATION_KINDS, Command, CommandKind, CommandRun
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
        kinds = set()
        for item in items:
            kinds.update(item.kinds if isinstance(item, CommandRun) else (item.kind,))
        self.kind: Optional[CommandKind] = kinds.pop() if len(kinds) == 1 else None
        """The one command kind the piece issues, or ``None`` if mixed."""


def at_row(items: Tuple, row: Optional[int]) -> Tuple:
    """Template items as issued: each row-blind activation opens ``row``."""
    if row is None:
        return items
    return tuple(
        Command(item.kind, bank=item.bank, group=item.group, row=row)
        if isinstance(item, Command) and item.kind in ACTIVATION_KINDS
        else item
        for item in items
    )


def per_command(items: Iterable) -> Iterator[Command]:
    """Stream items one command at a time (runs expanded)."""
    for item in items:
        if isinstance(item, CommandRun):
            yield from item.commands()
        else:
            yield item


@dataclass
class BlockStep:
    """One tile piece lowered as a unit: its timed items and payloads.

    ``items`` are single :class:`~repro.dram.commands.Command` objects
    and :class:`~repro.dram.commands.CommandRun` runs (a tile's COMP
    burst, one bank's COMP_BANK or BUF_READ/COL_READ/MAC burst, a
    chunk's GWRITE prologue) — a shape's template. A block with neither
    row nor payload is the template itself: the generator yields the
    same object for every tile of a shape. The row and payload fields
    describe the exact per-command steps the block stands for
    (:meth:`expand`). Lowering builds one activation block per tile of
    a run's period, and a payload-bearing stream one block per piece,
    so the class is a plain (not frozen) dataclass: nothing hashes,
    compares or mutates a block.
    """

    fragment: Fragment
    items: Tuple  # Tuple[Command | CommandRun, ...]
    row: Optional[int] = None
    """If set: the DRAM row a tile's activations open (:func:`at_row`)."""
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

    def expand(self) -> Iterator[Step]:
        """The exact per-command steps this block stands for."""
        if self.gwrite_chunk is not None:
            yield Step(new_chunk=self.gwrite_chunk)
        latch = self.compute or 0
        last = self.fragment.n_commands - 1
        for i, command in enumerate(per_command(at_row(self.items, self.row))):
            yield Step(
                command=command,
                emit=self.emit if i == last else None,
                latch=latch,
            )


StreamItem = Union[Step, BlockStep]
"""A lowered-stream element: a tile piece, or a refresh-barrier
:class:`Step`."""


@dataclass
class StreamRun:
    """A stretch of a lowered stream that repeats: ``period`` issued
    ``count`` times.

    ``period`` holds the first repeat's items. Every later repeat issues
    the same pieces, each activation opening the row ``row_stride``
    further on — Algorithm 1 applies one tile pattern to every DRAM row
    of a chunk (Figure 7), and only the row changes.
    """

    period: Tuple  # Tuple[StreamItem, ...]
    count: int = 1
    row_stride: int = 0


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

    def _activation_commands(self) -> Iterator[Command]:
        """A tile's activations, row-blind (:func:`at_row` names the row)."""
        if self.opt.four_bank_activation:
            groups = range(self.config.bank_groups)
            return (Command(CommandKind.G_ACT, group=group) for group in groups)
        banks = range(self.config.banks_per_channel)
        return (Command(CommandKind.ACT, bank=bank) for bank in banks)

    def _activation_item(self, dram_row: int) -> BlockStep:
        block = self._template(("activate",), self._activation_commands)
        return BlockStep(block.fragment, block.items, dram_row)

    def _compute_commands(self, cols: int) -> Iterator[CommandRun]:
        """One tile's compute phase over ``cols`` columns, one command run
        per bank scope: all banks when ganged, else each bank in turn.
        A complex-command run repeats COMP (COMP_BANK); otherwise each
        column is the BUF_READ + COL_READ_ALL (COL_READ) + MAC_ALL (MAC)
        triplet (:func:`~repro.dram.commands.micro_run`)."""
        banks = range(self.config.banks_per_channel)
        if self.opt.complex_commands:
            if self.opt.ganged_compute:
                yield cmds.comp_run(cols)
            else:
                yield from (cmds.comp_bank_run(bank, cols) for bank in banks)
        elif self.opt.ganged_compute:
            yield cmds.micro_run(cols)
        else:
            yield from (cmds.micro_run(cols, bank=bank) for bank in banks)

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

        The materialized view of :meth:`gemv_runs`, payloads included —
        what the per-command
        :class:`~repro.core.reference.ReferenceExecutor` (the datapath's
        bit contract), the trace example and the tick-level cross-check
        consume. The engine itself executes the payload-free run form."""
        for run in self.gemv_runs():
            # With payloads every run is one repeat (see _repeats).
            for item in run.period:
                if isinstance(item, BlockStep):
                    yield from item.expand()
                else:
                    yield item

    def gemv_runs(self, *, payloads: bool = True) -> Iterator[StreamRun]:
        """The compiled command stream for one matrix-vector product, as
        runs of repeated tiles.

        Each :class:`StreamRun` is a period of tile pieces
        (:class:`BlockStep`) and refresh barriers (plain :class:`Step`)
        issued ``count`` times: the tiles of a chunk (interleaved), the
        chunks of a tile (tile-major) or of a pass (no-reuse), each
        repeat opening rows ``row_stride`` further on. ``gemv_steps()``
        is always exactly this stream with every block expanded in
        place. ``payloads=False`` lowers the same commands without
        functional payloads (no tile evaluations, result emits or buffer
        loads) — the stream every engine runs, O(chunks × latches) objects: the
        shared templates themselves, and per period tile one activation
        block carrying its row."""
        if self.config.rules.tile_major:
            return self._tile_major_runs(payloads)
        if self.opt.interleaved_reuse:
            return self._interleaved_runs(payloads)
        return self._no_reuse_runs(payloads)

    @staticmethod
    def _repeats(
        build: Callable[[int], Tuple], count: int, row_stride: int, payloads: bool
    ) -> Iterator[StreamRun]:
        """``count`` repeats of the period ``build(k)`` builds for repeat
        ``k``: one run, or with payloads one run per repeat (each
        repeat's result reads name their own matrix rows)."""
        if payloads:
            for k in range(count):
                yield StreamRun(build(k))
        elif count:
            yield StreamRun(build(0), count, row_stride)

    def _interleaved_runs(self, payloads: bool) -> Iterator[StreamRun]:
        layout = self.layout
        assert isinstance(layout, InterleavedLayout)
        barrier = Step(barrier_cycles=self.tile_duration_estimate())
        yield StreamRun((self._gwrite_item(0, payloads),))
        for chunk in range(layout.num_chunks):
            cols = layout.cols_in_chunk(chunk)

            def tile(index: int, chunk: int = chunk, cols: int = cols) -> Tuple:
                return (
                    barrier,
                    self._activation_item(layout.dram_row(chunk, index)),
                    self._compute_item(cols, 0 if payloads else None),
                    self._readres_item(
                        EmitOp(0, chunk, layout.tile_matrix_rows(index))
                        if payloads
                        else None
                    ),
                )

            if chunk + 1 == layout.num_chunks:
                yield from self._repeats(tile, layout.tiles, 1, payloads)
            else:
                # The chunk's last tile loads the next chunk's input.
                last = layout.tiles - 1
                yield from self._repeats(tile, last, 1, payloads)
                yield StreamRun(tile(last) + (self._gwrite_item(chunk + 1, payloads),))

    def _tile_major_runs(self, payloads: bool) -> Iterator[StreamRun]:
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

        def tile(index: int) -> Tuple:
            items: list = []
            for chunk in range(layout.num_chunks):
                if chunk:
                    items.append(self._gwrite_item(chunk, payloads))
                items += (
                    barrier,
                    self._activation_item(layout.dram_row(chunk, index)),
                    self._compute_item(
                        layout.cols_in_chunk(chunk), 0 if payloads else None
                    ),
                )
            items.append(
                self._readres_item(
                    EmitOp(0, None, layout.tile_matrix_rows(index))
                    if payloads
                    else None
                )
            )
            if index + 1 < layout.tiles:
                items.append(self._gwrite_item(0, payloads))
            return tuple(items)

        yield StreamRun((self._gwrite_item(0, payloads),))
        yield from self._repeats(tile, layout.tiles - 1, 1, payloads)
        yield StreamRun(tile(layout.tiles - 1))

    def _no_reuse_runs(self, payloads: bool) -> Iterator[StreamRun]:
        layout = self.layout
        assert isinstance(layout, NoReuseLayout)
        barrier = Step(barrier_cycles=self.tile_duration_estimate())

        def one_pass(index: int) -> Tuple:
            slots = layout.pass_slots(index)
            items: list = []
            for chunk in range(layout.num_chunks):
                # The input chunk must be re-fetched every pass: this is
                # the traffic the interleaved layout eliminates.
                if chunk:
                    items.append(self._gwrite_item(chunk, payloads))
                cols = layout.cols_in_chunk(chunk)
                for latch, slot in enumerate(slots):
                    items += (
                        barrier,
                        self._activation_item(layout.dram_row(slot, chunk)),
                        self._compute_item(cols, latch if payloads else None),
                    )
            for latch, slot in enumerate(slots):
                items.append(
                    self._readres_item(
                        EmitOp(latch, None, layout.slot_matrix_rows(slot))
                        if payloads
                        else None
                    )
                )
            if index + 1 < layout.passes:
                items.append(self._gwrite_item(0, payloads))
            return tuple(items)

        # A pass opens the next latches_per_bank slots of every chunk.
        stride = layout.latches_per_bank * layout.num_chunks
        yield StreamRun((self._gwrite_item(0, payloads),))
        yield from self._repeats(one_pass, layout.passes - 1, stride, payloads)
        yield StreamRun(one_pass(layout.passes - 1))
