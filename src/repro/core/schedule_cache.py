"""Tile-schedule memoization: segmented streams and the replay cache.

The engine's command streams decompose into *segments* at refresh
barriers: the prologue (the first chunk's GWRITEs) and then one segment
per tile (activations + computes + result reads, plus the next chunk's
GWRITEs when a chunk boundary falls inside). Within a run the segments
are overwhelmingly identical — the same command kinds against the same
bank/column operands, differing only in the DRAM row they open, which
never affects timing.

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
chains lookup to lookup without recomputing a signature. Refresh breaks
phase — the engine executes every barrier that fires exactly, and a
post-refresh state simply forms its own signature (which itself recurs
periodically and becomes cacheable).

A whole GEMV is the next replay unit up. When every segment of a run
hits, the engine records the run as one :class:`RunRecord`: the
composite delta from the run's start, the refresh scheduler's advance
and the run's stats. Records key by ``(stream key id, start signature
id, refresh phase)``; the stream key interns the stream's ``(barrier,
segment key id)`` sequence. The phase is ``None`` when no refresh
fired: such a record replays at any start whose last barrier cannot
fire (:meth:`ScheduleCache.lookup_run`). Otherwise it is the
scheduler's ``next_due - now``
(:meth:`~repro.dram.refresh.RefreshScheduler.phase`), its only absolute
time, so equal phases refresh identically. A record's delta ends in a
signature too, so the runs of a batch chain record to record: a steady
batch of k GEMVs, refreshes included, costs one signature, k lookups
and one write-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.core.command_gen import (
    BlockStep, CommandStreamGenerator, Fragment, at_row, per_command,
)
from repro.dram.commands import CommandKind
from repro.dram.fastpath import ControllerDelta, Signature
from repro.dram.refresh import RefreshAdvance
from repro.errors import ProtocolError

MAX_DELTA_ENTRIES = 8192
"""Replay-cache size backstop (deltas, interned signatures and run
records, each); real workloads use a handful of entries."""


@dataclass
class StreamSegment:
    """A barrier-delimited run of stream items with a row-blind key.

    A segment is timing only: the datapath computes a GEMV from its
    layout (:mod:`repro.core.datapath`), so no functional payload rides
    on the stream. ``templates`` are its tile pieces' shared items —
    individual :class:`~repro.dram.commands.Command` objects interleaved
    with :class:`~repro.dram.commands.CommandRun` runs (a tile's COMP
    burst, or one bank's BUF_READ/COL_READ/MAC burst, arrives as *one*
    item), the activations row-blind
    — and ``row`` is the DRAM row its activations open, so lowering a
    tile builds no command. Barriers never fall inside a run: the
    segmenter flushes at every barrier step, so a refresh splits runs
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


@dataclass
class SegmentedStream:
    """One layout's full command stream, lowered and segmented once."""

    segments: List[StreamSegment] = field(default_factory=list)
    key_id: int = -1
    """Cache-interned id of the stream's ``(barrier, segment key id)``
    sequence: the first part of a :class:`RunRecord` key."""
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


class ScheduleCache:
    """Interns fragment, segment, stream and signature keys; stores
    recorded segment deltas and whole-run records.

    Every id space is content-derived (never object ids), so one cache
    can be shared across engines with identical architecture — the
    design-space explorer's cross-point reuse.
    """

    def __init__(self, max_entries: int = MAX_DELTA_ENTRIES):
        self._fragment_ids: Dict[tuple, int] = {}
        self._key_ids: Dict[tuple, int] = {}
        self._signature_ids: Dict[Signature, int] = {}
        self._next_signature_id = 0
        self._deltas: Dict[Tuple[int, int], ControllerDelta] = {}
        self._runs: Dict[Tuple[int, int, Optional[int]], RunRecord] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.replayed_commands = 0
        """Commands served by replay, whole runs included."""
        self.whole_runs = 0
        """Runs replayed whole from a :class:`RunRecord`."""

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

    def _clear(self) -> None:
        # Pathological (non-periodic) streams only; a full reset is
        # cheaper and simpler than eviction bookkeeping. Records go with
        # the deltas: a record replays only while the walk it stands
        # for would hit on every segment.
        self._deltas.clear()
        self._signature_ids.clear()
        self._runs.clear()

    def __len__(self) -> int:
        return len(self._deltas)


def segment_stream(
    generator: CommandStreamGenerator,
    cache: ScheduleCache,
    *,
    fused: bool = False,
) -> SegmentedStream:
    """Lower a generator's compiled stream into barrier-delimited segments.

    Consumes :meth:`~repro.core.command_gen.CommandStreamGenerator.gemv_items`
    without payloads, so every piece is a shared template: each
    :class:`~repro.core.command_gen.BlockStep` contributes its template
    items (command runs stay single
    :class:`~repro.dram.commands.CommandRun` items) and one fragment id
    to the segment key, and a tile's activations their row to the
    segment. Every other stream item is a refresh-barrier
    :class:`~repro.core.command_gen.Step`, which always flushes the open
    segment, so no run ever straddles a refresh decision point; every
    barrier in a stream must guard the same window
    (:attr:`SegmentedStream.barrier_cycles`). The stream's own key
    (:attr:`SegmentedStream.key_id`) interns its sequence of
    ``(barrier, segment key id)`` pairs.

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
    barrier = 0
    lowered = False
    row: Optional[int] = None
    items: List = []
    key: List[int] = []
    n_commands = 0

    def flush() -> None:
        nonlocal barrier, lowered, row, n_commands
        if barrier or lowered:
            stream.segments.append(
                StreamSegment(
                    barrier_cycles=barrier,
                    templates=tuple(items),
                    row=row,
                    n_commands=n_commands,
                    key_id=cache.intern_key(tuple(key)),
                )
            )
        barrier = 0
        lowered = False
        row = None
        n_commands = 0
        items.clear()
        key.clear()

    for item in generator.gemv_items(payloads=False):
        if not isinstance(item, BlockStep):
            flush()
            barrier = item.barrier_cycles
            if stream.barrier_cycles not in (0, barrier):
                raise ProtocolError(
                    f"barrier windows {stream.barrier_cycles} and {barrier} "
                    "in one stream"
                )
            stream.barrier_cycles = barrier
            continue
        lowered = True
        if item.row is not None:
            row = item.row  # a barrier precedes every tile's activations
        fragment = item.fragment
        if fused and fragment.kind is CommandKind.GWRITE:
            # Fused: the buffer fill happens off the command bus.
            stream.skipped_gwrites += fragment.n_commands
        else:
            fragment_id = fragment_ids.get(fragment)
            if fragment_id is None:
                fragment_id = fragment_ids[fragment] = cache.intern_fragment(
                    fragment.key
                )
            items.extend(item.items)
            key.append(fragment_id)
            n_commands += fragment.n_commands
    flush()
    stream.total_commands = sum(s.n_commands for s in stream.segments)
    stream.key_id = cache.intern_key(
        tuple((s.barrier_cycles, s.key_id) for s in stream.segments)
    )
    return stream
