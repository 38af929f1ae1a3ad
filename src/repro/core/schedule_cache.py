"""Tile-schedule memoization: segmented streams and the replay cache.

The engine's command streams decompose into *segments* at refresh
barriers: the prologue (the first chunk's GWRITEs) and then one segment
per tile (activations + computes + result reads, plus the next chunk's
GWRITEs when a chunk boundary falls inside). Within a run the segments
are overwhelmingly identical — the same command kinds against the same
bank/column operands, differing only in the DRAM row they open, which
never affects timing. A lowered stream stores them as
runs (:class:`SegmentRun`): a period of segments repeated ``count`` times,
the row advancing by a fixed stride per repeat, so lowering costs
O(chunks × latches) objects and the replay walk can step over the
repeats of a run that reached a fixed point.

A segment's key is the sequence of its pieces' *fragment ids*: each
tile piece the generator lowers (activations, compute phase, result
read, GWRITE prologue) carries a row-blind
:class:`~repro.core.command_gen.Fragment`, whose content key the cache
interns once per stream. Two segments share a key exactly when they
issue the same command sequence, rows aside — without building or
hashing a key per command.

:class:`ScheduleCache` interns relative controller signatures to small
ids and keys recorded :class:`~repro.dram.fastpath.ControllerDelta`
segment effects by ``(segment key id, signature id)``. The signature
check is what makes replay *exact* rather than heuristic: a hit proves
the controller is in the same steady-state phase (same open-row
offsets, bus/FAW/tCCD offsets, adder-tree anchor relative to the
segment's first issue opportunity) the recording started from, so the
recorded schedule is the true schedule shifted rigidly in time. Each
delta carries the id of the signature it ends in, so a run of hits
chains lookup to lookup without recomputing a signature.

A refresh barrier that fires breaks that phase, but what it does
depends only on the signature it meets, the refresh scheduler's phase
(:meth:`~repro.dram.refresh.RefreshScheduler.phase`) and the barrier's
window. The engine runs a firing barrier exactly the first time it
meets that triple and keeps its effect as a :class:`RefreshRecord` (the
controller delta and the scheduler's advance) keyed by ``(signature
id, phase, window)``; a walk that meets the triple again replays the
record like a hit. The post-refresh state forms its own signature,
which recurs with the refresh period.

A whole GEMV is the next replay unit up. When every segment of a run
hits, the engine records the run as one :class:`RunRecord`: the
composite delta from the run's start, the refresh scheduler's advance
and the run's stats. Records key by ``(stream key id, start signature
id, refresh phase)``; the stream key interns the stream's runs, each
its repeat count and its period's ``(barrier, segment key id)`` pairs.
The phase is ``None`` when no refresh
fired: such a record replays at any start whose last barrier cannot
fire (:meth:`ScheduleCache.lookup_run`). Otherwise it is the
scheduler's ``next_due - now``
(:meth:`~repro.dram.refresh.RefreshScheduler.phase`), its only absolute
time, so equal phases refresh identically. A record's delta ends in a
signature too, so runs chain record to record, across calls: k steady
GEMVs, refreshes included, cost k lookups, no signature and one
write-back, made when the controller is next read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.command_gen import (
    BlockStep, CommandStreamGenerator, Fragment, at_row, per_command,
)
from repro.dram.commands import CommandKind
from repro.dram.fastpath import ControllerDelta, Signature
from repro.dram.refresh import RefreshAdvance
from repro.errors import ProtocolError

MAX_DELTA_ENTRIES = 8192
"""Replay-cache size backstop (deltas, interned signatures, run records
and refresh records, each); real workloads use a handful of entries."""


@dataclass
class StreamSegment:
    """A barrier-delimited piece of a stream with a row-blind key.

    A segment is timing only: the datapath computes a GEMV from its
    layout (:mod:`repro.core.datapath`), so no functional payload rides
    on the stream. ``templates`` are its tile pieces' shared items —
    individual :class:`~repro.dram.commands.Command` objects interleaved
    with :class:`~repro.dram.commands.CommandRun` runs (a tile's COMP
    burst, or one bank's BUF_READ/COL_READ/MAC burst, arrives as *one*
    item), the activations row-blind
    — and ``row`` is the DRAM row its activations open, so lowering a
    tile builds no command. Barriers never fall inside a command run: the
    segmenter flushes at every barrier step, so a refresh splits them
    exactly where it splits replay segments. The row-bearing views are
    built on first use, where commands issue one at a time:
    :attr:`items` for the cold path on a replay miss, :attr:`commands`
    for the per-command tier, tracing and background traffic.
    """

    barrier_cycles: int
    """Refresh-barrier window preceding the steps (0: no barrier)."""
    templates: Tuple  # Tuple[Command | CommandRun, ...]
    row: Optional[int]
    """The DRAM row the activations open (``None``: no activation)."""
    n_commands: int
    """Commands the segment expands to (``len(self.commands)``)."""
    key_id: int
    """Cache-interned id of the segment's fragment-id sequence."""

    @cached_property
    def items(self) -> Tuple:
        """The compiled form the cold path issues: the templates, each
        activation opening :attr:`row`."""
        return at_row(self.templates, self.row)

    @cached_property
    def commands(self) -> Tuple:
        """The segment as per-command objects."""
        return tuple(per_command(self.items))


@dataclass
class SegmentRun:
    """``count`` repeats of a period of segments: the lowered form of a
    :class:`~repro.core.command_gen.StreamRun`.

    ``period`` holds the first repeat's segments. Repeat ``k`` issues
    the same segments, each opening the row ``k * row_stride`` further
    on (:meth:`at`), so a run lowers to one object per period segment
    however many tiles it covers. Every repeat has the same keys, which
    is what lets the replay walk step over repeats in closed form.
    """

    period: Tuple[StreamSegment, ...]
    count: int
    row_stride: int
    n_commands: int
    """Commands one repeat issues."""
    has_barrier: bool
    """Whether a refresh barrier guards some segment of the period."""

    def at(self, segment: StreamSegment, repeat: int) -> StreamSegment:
        """A period segment as repeat ``repeat`` issues it (built per call
        past the first repeat)."""
        if not repeat or segment.row is None:
            return segment
        return StreamSegment(
            segment.barrier_cycles,
            segment.templates,
            segment.row + repeat * self.row_stride,
            segment.n_commands,
            segment.key_id,
        )


@dataclass(frozen=True, eq=False)
class RunRecord:
    """A whole GEMV's replayable effect, relative to its start cycle."""

    delta: ControllerDelta
    """The run's composite effect on the controller, refreshes included;
    its ``max_complete`` is the run's end offset."""
    refresh: Optional[RefreshAdvance]
    """The refresh scheduler's advance (``None``: no refresh fired)."""
    last_barrier: Optional[int]
    """Offset of the run's last refresh barrier, for a record with no
    refresh (``None``: no barrier, or a refresh fired)."""
    stats: Dict[str, object]
    """The run's stats delta (callers get a copy)."""


@dataclass(frozen=True, eq=False)
class RefreshRecord:
    """A firing refresh barrier's replayable effect, relative to the
    barrier's cycle."""

    delta: ControllerDelta
    """The barrier's effect on the controller: the stall, the refreshed
    banks, the buses and the refresh counters."""
    refresh: RefreshAdvance
    """The refresh scheduler's advance."""


@dataclass
class SegmentedStream:
    """One layout's full command stream, lowered and segmented once."""

    runs: List[SegmentRun] = field(default_factory=list)
    segment_count: int = 0
    """Segments a run walks: every repeat of every period."""
    key_id: int = -1
    """Cache-interned id of the stream's sequence of runs (each run's
    count and its period's ``(barrier, segment key id)`` pairs): the
    first part of a :class:`RunRecord` key."""
    barrier_cycles: int = 0
    """The row-operation window every barrier in the stream guards (the
    generator sizes them all by one tile-duration bound; 0: no barrier),
    so a walk tests each barrier against one precomputed cycle."""
    total_commands: int = 0
    """Commands a run issues: what a run served whole replays."""
    skipped_gwrites: int = 0
    """GWRITE commands elided from a fused lowering (0 for the ordinary
    round-trip stream). A fused design fills the global buffer from the
    result latches / activation buffer instead of the host, so the data
    still arrives, just not over the command bus (see
    :func:`segment_stream`)."""

    def segments(self) -> Iterator[StreamSegment]:
        """Every segment in stream order, each at its own row: the form
        the per-command tier issues."""
        for run in self.runs:
            for repeat in range(run.count):
                for segment in run.period:
                    yield run.at(segment, repeat)


class ScheduleCache:
    """Interns fragment, segment, stream and signature keys; stores
    recorded segment deltas, whole-run records and refresh records.

    Every id space is content-derived (never object ids), so one cache
    can be shared across engines with identical architecture — the
    design-space explorer's cross-point reuse.
    """

    def __init__(self, max_entries: int = MAX_DELTA_ENTRIES):
        self._fragment_ids: Dict[tuple, int] = {}
        self._key_ids: Dict[tuple, int] = {}
        self._signature_ids: Dict[Signature, int] = {}
        self._next_signature_id = 0
        self._live_from = 0
        # The first signature id interned since the last backstop clear.
        self._deltas: Dict[Tuple[int, int], ControllerDelta] = {}
        self._runs: Dict[Tuple[int, int, Optional[int]], RunRecord] = {}
        self._refreshes: Dict[Tuple[int, int, int], RefreshRecord] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.replayed_commands = 0
        """Commands served by replay, whole runs included."""
        self.whole_runs = 0
        """Runs replayed whole from a :class:`RunRecord`."""
        self.refresh_replays = 0
        """Firing refresh barriers served by a :class:`RefreshRecord`."""

    def intern_fragment(self, key: tuple) -> int:
        """Map a fragment's content key to a small stable id."""
        return self._fragment_ids.setdefault(key, len(self._fragment_ids))

    def intern_key(self, key: tuple) -> int:
        """Map a segment key (a fragment-id sequence) to a small stable id."""
        return self._key_ids.setdefault(key, len(self._key_ids))

    def intern_signature(self, signature: Signature) -> int:
        """Map a relative controller signature to a small id.

        Ids come from a counter that never restarts, so an id names one
        signature for the cache's lifetime: a walk holding an id across
        a backstop clear can only miss, never replay another signature's
        delta.
        """
        signature_id = self._signature_ids.get(signature)
        if signature_id is None:
            if len(self._signature_ids) >= self.max_entries:
                self._clear()
            signature_id = self._next_signature_id
            self._next_signature_id += 1
            self._signature_ids[signature] = signature_id
        return signature_id

    def is_live(self, signature_id: int) -> bool:
        """Whether ``signature_id`` was interned since the last backstop
        clear, so its signature still interns to it."""
        return signature_id >= self._live_from

    def lookup(
        self, key_id: int, signature_id: int
    ) -> Optional[ControllerDelta]:
        delta = self._deltas.get((key_id, signature_id))
        if delta is None:
            self.misses += 1
        else:
            self.hits += 1
        return delta

    def store(
        self, key_id: int, signature_id: int, delta: ControllerDelta
    ) -> None:
        if len(self._deltas) >= self.max_entries:
            self._clear()
        self._deltas[(key_id, signature_id)] = delta

    def lookup_run(
        self,
        stream_id: int,
        signature_id: int,
        now: int,
        limit: int,
        phase: Optional[int],
    ) -> Optional[RunRecord]:
        """The record that replays a run starting at ``now``, if any.

        ``limit`` is the refresh scheduler's
        :meth:`~repro.dram.refresh.RefreshScheduler.last_safe_start` for
        the stream's window and ``phase`` its
        :meth:`~repro.dram.refresh.RefreshScheduler.phase` at ``now``. A
        record with no refresh replays when its last barrier cannot
        fire; otherwise the run must match a record's phase exactly.
        Counts nothing: the caller adds a hit per stream segment when
        it replays.
        """
        record = self._runs.get((stream_id, signature_id, None))
        if record is not None and (
            record.last_barrier is None or now + record.last_barrier <= limit
        ):
            return record
        if phase is None:
            return None
        return self._runs.get((stream_id, signature_id, phase))

    def store_run(
        self,
        stream_id: int,
        signature_id: int,
        phase: Optional[int],
        record: RunRecord,
    ) -> None:
        if len(self._runs) >= self.max_entries:
            self._clear()
        self._runs[(stream_id, signature_id, phase)] = record

    @property
    def run_records(self) -> int:
        """Whole-run records held."""
        return len(self._runs)

    def lookup_refresh(self, key: Tuple[int, int, int]) -> Optional[RefreshRecord]:
        """The record of a firing barrier keyed by ``(signature id, refresh
        phase, barrier window)``, if any; a hit counts a refresh replay."""
        record = self._refreshes.get(key)
        if record is not None:
            self.refresh_replays += 1
        return record

    def store_refresh(self, key: Tuple[int, int, int], record: RefreshRecord) -> None:
        if len(self._refreshes) >= self.max_entries:
            self._clear()
        self._refreshes[key] = record

    @property
    def refresh_records(self) -> int:
        """Refresh records held."""
        return len(self._refreshes)

    def _clear(self) -> None:
        # Pathological (non-periodic) streams only; a full reset is
        # cheaper and simpler than eviction bookkeeping. Records go with
        # the deltas: a record replays only while the walk it stands
        # for would hit on every segment.
        self._deltas.clear()
        self._signature_ids.clear()
        self._live_from = self._next_signature_id
        self._runs.clear()
        self._refreshes.clear()

    def __len__(self) -> int:
        return len(self._deltas)


def _split(period: Tuple) -> Iterator[Tuple[int, List[BlockStep]]]:
    """A run's period cut at its refresh barriers: each segment's barrier
    window (0: none) and tile pieces. A segment opens at a barrier or at
    the period's first piece."""
    barrier, blocks = 0, None
    for item in period:
        if isinstance(item, BlockStep):
            if blocks is None:
                blocks = []
            blocks.append(item)
            continue
        if barrier or blocks is not None:
            yield barrier, blocks or []
        barrier, blocks = item.barrier_cycles, []
    if barrier or blocks is not None:
        yield barrier, blocks or []


def segment_stream(
    generator: CommandStreamGenerator,
    cache: ScheduleCache,
    *,
    fused: bool = False,
) -> SegmentedStream:
    """Lower a generator's compiled stream into runs of barrier-delimited
    segments.

    Consumes :meth:`~repro.core.command_gen.CommandStreamGenerator.gemv_runs`
    without payloads, so every piece is a shared template, and lowers
    each :class:`~repro.core.command_gen.StreamRun` once, whatever its
    repeat count: a :class:`SegmentRun` of the period's segments. Each
    :class:`~repro.core.command_gen.BlockStep` contributes its template
    items (command runs stay single
    :class:`~repro.dram.commands.CommandRun` items) and one fragment id
    to its segment's key, and a tile's activations their row to the
    segment. Every other item is a refresh-barrier
    :class:`~repro.core.command_gen.Step`, which always flushes the open
    segment, as does the end of a period, so no command run ever
    straddles a refresh decision point; every barrier in a stream must
    guard the same window (:attr:`SegmentedStream.barrier_cycles`). The
    stream's own key (:attr:`SegmentedStream.key_id`) interns its runs.

    With ``fused=True`` the lowering models a fused-layer dataflow: the
    input activation is already channel-resident (produced by the
    previous layer, or still held from a sibling layer's load), so the
    host's GWRITE runs are dropped from the stream. The datapath reads
    the input all the same, so outputs are bit-identical to the
    round-trip stream; only the command-bus occupancy changes. The
    elided command count is recorded on the stream
    (:attr:`SegmentedStream.skipped_gwrites`). Fused segments intern
    under their own (GWRITE-less) keys, so the replay cache never
    conflates the two schedules.
    """
    stream = SegmentedStream()
    fragment_ids: Dict[Fragment, int] = {}
    for run in generator.gemv_runs(payloads=False):
        period: List[StreamSegment] = []
        for barrier, blocks in _split(run.period):
            if barrier:
                if stream.barrier_cycles not in (0, barrier):
                    raise ProtocolError(
                        f"barrier windows {stream.barrier_cycles} and {barrier} "
                        "in one stream"
                    )
                stream.barrier_cycles = barrier
            row: Optional[int] = None
            items: List = []
            key: List[int] = []
            n_commands = 0
            for block in blocks:
                if block.row is not None:
                    row = block.row  # a barrier precedes every tile's activations
                fragment = block.fragment
                if fused and fragment.kind is CommandKind.GWRITE:
                    # Fused: the buffer fill happens off the command bus.
                    stream.skipped_gwrites += run.count * fragment.n_commands
                    continue
                fragment_id = fragment_ids.get(fragment)
                if fragment_id is None:
                    fragment_id = fragment_ids[fragment] = cache.intern_fragment(
                        fragment.key
                    )
                items.extend(block.items)
                key.append(fragment_id)
                n_commands += fragment.n_commands
            period.append(
                StreamSegment(
                    barrier_cycles=barrier,
                    templates=tuple(items),
                    row=row,
                    n_commands=n_commands,
                    key_id=cache.intern_key(tuple(key)),
                )
            )
        stream.runs.append(
            SegmentRun(
                period=tuple(period),
                count=run.count,
                row_stride=run.row_stride,
                n_commands=sum(segment.n_commands for segment in period),
                has_barrier=any(segment.barrier_cycles for segment in period),
            )
        )
    stream.segment_count = sum(len(run.period) * run.count for run in stream.runs)
    stream.total_commands = sum(run.n_commands * run.count for run in stream.runs)
    stream.key_id = cache.intern_key(
        tuple(
            (run.count, tuple((s.barrier_cycles, s.key_id) for s in run.period))
            for run in stream.runs
        )
    )
    return stream
