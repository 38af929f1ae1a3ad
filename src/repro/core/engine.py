"""The per-channel execution engine: one channel's, or one class's, timing.

The engine issues each GEMV's lowered command stream to the
cycle-accurate controller. The stream carries no functional payload;
the arithmetic lives in a :class:`~repro.core.datapath.BatchedDatapath`,
bit-identical to the per-command
:class:`~repro.core.reference.ReferenceExecutor`. A device runs its
engines timing-only and keeps one datapath; a lone engine built with
``functional=True`` holds its own (:attr:`NewtonChannelEngine.datapath`)
and returns each GEMV's output.

Residency is a bump pointer: each resident layout takes the next free
DRAM rows of every bank. Channels whose load histories are equal hold
equal layouts and issue equal streams, so a device times each such
*class* of channels with one engine, and :meth:`NewtonChannelEngine.fork`
copies an engine's timing state when a load splits its class (see
:mod:`repro.core.device`). Construction rejects a command family that
cannot walk the configured traversal
(:meth:`~repro.dram.config.FamilyRules.check_traversal`).

A single engine persists across runs: successive layers (or batch inputs)
execute back-to-back on the same controller clock, so refresh interference
accumulates across an end-to-end model exactly as it would on hardware —
the effect behind DLRM's end-to-end vs single-layer gap in Figure 8.

Execution is tiered, fastest applicable tier first, without giving up a
cycle of exactness (see :mod:`repro.core.schedule_cache`,
:mod:`repro.dram.burst`, and ``docs/cold-path.md``):

* the **schedule cache** replays a whole GEMV from one record when the
  run starts from a controller state and refresh phase already seen.
  The runs served whole, refreshes included, form one chain across
  calls: each run's lookup is keyed by the previous record's end
  signature, and the chain is written back once, when something next
  reads or issues to the controller;
* otherwise it replays recorded per-tile timing deltas when a tile
  starts from a controller state already seen (same relative
  bus/bank/FAW phase) — the steady-state tier. Replay walks the
  segments on a local clock: a hit is one lookup and one addition, the
  delta's end-signature id keys the next lookup, a refresh barrier that
  cannot fire is one comparison, one that fires at a signature,
  refresh phase and window already seen replays its record like a hit,
  and the controller is written back only before a miss, before a
  refresh met for the first time and at the end of the run. Once a
  repeat of a run of identical tiles ends in the signature it started
  from, the walk takes the repeats up to the next refresh in one step.
  A walk that hits on every segment records the run whole;
* on a replay miss (the *cold* path), command runs go through the
  **burst kernel** — the first period solved by the constraint solver,
  the rest in closed form;
* the **per-command reference** solver handles everything else, and the
  whole stream when the fast path is off.

Lowering (:func:`~repro.core.schedule_cache.segment_stream`) costs
O(chunks × latches), runs of repeated tiles lowering once each, and
happens once per resident layout and engine. A refresh that fires is
executed exactly the first time the walk meets its signature, refresh
phase and window; after that a refresh record replays it, as a
whole-run record replays the refreshes of a run recorded at the same
phase. Tracing or mixed background traffic forces the per-command
reference.

Outside code reaches the controller only through
:attr:`NewtonChannelEngine.channel`, which writes the pending chain back
first; the engine writes it back itself before it walks, issues per
command or forks.

Set ``fast=False`` (or the ``NEWTON_NO_FASTPATH=1`` environment
variable) to force per-command issue everywhere.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.command_gen import CommandStreamGenerator
from repro.core.datapath import BatchedDatapath
from repro.core.layout import Layout, make_layout
from repro.core.optimizations import OptimizationConfig
from repro.core.result import (
    ChannelRunResult,
    copy_stats,
    stats_delta,
    stats_snapshot,
)
from repro.core.schedule_cache import (
    RefreshRecord,
    RunRecord,
    ScheduleCache,
    SegmentedStream,
    segment_stream,
)
from repro.dram import fastpath
from repro.dram.channel import Channel
from repro.dram.commands import CommandRun
from repro.dram.config import DRAMConfig
from repro.dram.fastpath import ControllerDelta
from repro.dram.power import PowerParams, PowerReport
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError
from repro.utils.envflags import env_flag


class NewtonChannelEngine:
    """Executes GEMV command streams on one Newton channel (for a device,
    on every channel of one class)."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        opt: OptimizationConfig,
        *,
        functional: bool = True,
        refresh_enabled: bool = True,
        power_params: PowerParams = PowerParams(),
        fast: bool = True,
        telemetry: bool = True,
        schedule_cache: Optional[ScheduleCache] = None,
    ):
        config.rules.check_traversal(opt.interleaved_reuse)
        self.config = config
        self.timing = timing
        self.opt = opt
        self.channel_index = 0
        """The channel this engine times (for a device, its class's
        first member; set by :meth:`fork`)."""
        self.functional = functional
        # NEWTON_NO_FASTPATH=1 forces per-command issue; NEWTON_TELEMETRY=0
        # skips cycle attribution (spellings: repro.utils.envflags).
        self.fast = fast and not env_flag("NEWTON_NO_FASTPATH", default=False)
        self.telemetry = telemetry and env_flag("NEWTON_TELEMETRY", default=True)
        self._channel = Channel(
            config,
            timing,
            aggressive_tfaw=opt.aggressive_tfaw,
            refresh_enabled=refresh_enabled,
            power_params=power_params,
            telemetry=self.telemetry,
        )
        # A reference cycle: a dropped engine is reclaimed by the cycle
        # collector, not on its last reference. The benchmark's
        # table2-sweep drops each device inside the next one's timed
        # set-up, where freeing its lowered streams and replay cache
        # (0.05 ms for a FULL Table II layer, 0.55 ms for Non-opt, on
        # average) would read as set-up time. ROADMAP item 1 times
        # teardown on its own; then this cycle goes.
        self._self = self
        self._next_free_row = 0
        self.datapath: Optional[BatchedDatapath] = (
            BatchedDatapath(
                config, config.rules.whole_row_readout(opt.interleaved_reuse)
            )
            if functional
            else None
        )
        """The functional datapath, holding each resident layout's matrix
        (see :mod:`repro.core.datapath`; ``None`` on a timing-only
        engine)."""
        self.schedule_cache = (
            schedule_cache if schedule_cache is not None else ScheduleCache()
        )
        """Replayable per-segment timing deltas. Injectable so sweeps can
        share one cache across engines with identical architecture
        (config + timing + opt): segment keys are command-content
        interned and signatures are relative, so tiles recorded by one
        engine replay in another — the design-space explorer's
        cross-point reuse."""
        self._streams: Dict[object, SegmentedStream] = {}
        # Each resident layout's lowered stream, keyed by the layout (or
        # ``(layout, True)`` for the fused lowering). Layouts are
        # immutable and never freed, so this is bounded by what is
        # resident.
        self.burst_runs = 0
        """Command runs issued through the cold-path burst kernel."""
        self.burst_commands = 0
        """Commands those runs covered (each one skipped the per-command
        constraint solver; see :mod:`repro.dram.burst`)."""
        self.fused_runs = 0
        """GEMVs executed with a channel-resident input (fused-layer
        dataflow: the host GWRITE round trip was elided)."""
        self.fused_skipped_gwrites = 0
        """GWRITE commands those fused runs kept off the command bus."""
        self.fused_saved_cycles = 0
        """Estimated command-slot cycles the elided GWRITEs would have
        occupied (``skipped * max(t_cmd, t_ccd)``, a GWRITE run's
        stride). An estimate for telemetry only — the measured saving is
        the fused-vs-round-trip end-cycle difference."""
        self.write_backs = 0
        """:func:`fastpath.apply_delta` calls: the walk's and the chain's."""
        self._chain: Dict[ControllerDelta, int] = {}
        # The runs served whole since the last write-back: each distinct
        # record's delta and its count, the one replayed last kept last.
        self._chain_base = 0
        # The cycle the chain's last run started at.
        # Opt-in protocol verification (NEWTON_CHECK_INVARIANTS=1): the
        # verifier installs itself as the controller's trace recorder,
        # which also forces the per-command tier so it sees every
        # command. Imported lazily — repro.verify imports this module.
        from repro.verify.hook import maybe_attach_verifier

        self.verifier = maybe_attach_verifier(self)
        """The attached :class:`~repro.verify.hook.EngineVerifier`, or
        ``None`` (the default: the flag is off)."""

    # ------------------------------------------------------------------
    # matrix residency

    def add_matrix(self, m: int, n: int, matrix: Optional[np.ndarray] = None) -> Layout:
        """Allocate DRAM rows for an ``m x n`` matrix and (optionally) load it.

        The layout takes the next free rows of every bank; a functional
        engine's :attr:`datapath` holds the matrix, zeroed until loaded.
        The load itself is not timed: the filter matrix is resident in
        the AiM for the model's lifetime (the paper re-loads it only for
        ECC scrubbing, about once per thousand inputs).
        """
        layout = make_layout(
            self.config,
            m,
            n,
            interleaved=self.opt.interleaved_reuse,
            base_row=self._next_free_row,
            latches_per_bank=self.opt.result_latches,
        )
        self._next_free_row += layout.rows_per_bank_used
        if self.functional:
            self.datapath.add(layout, matrix)
        return layout

    def fork(self, channel_index: int) -> "NewtonChannelEngine":
        """A copy of this engine's state for channel ``channel_index``, as
        a channel with the same history holds it: the controller, replay
        records, counters and verifier are copied; the lowered streams,
        their layouts and the datapath are shared."""
        self._write_back()
        memo = {
            id(shared): shared
            for shared in (self.config, self.timing, self.opt, self.datapath)
        }
        memo[id(self._streams)] = dict(self._streams)
        twin = copy.deepcopy(self, memo)
        twin.channel_index = channel_index
        return twin

    # ------------------------------------------------------------------
    # the controller

    @property
    def channel(self) -> Channel:
        """The channel, with every run so far in its controller's state.

        Outside code reaches the controller only here, so reading it
        writes the pending chain of runs served whole back first.
        """
        self._write_back()
        return self._channel

    def _write_back(self) -> None:
        """Write the pending chain back to the controller: one
        :func:`fastpath.apply_delta`, each record's counters folded once,
        times its count."""
        if self._chain:
            self.write_backs += 1
            fastpath.apply_delta(
                self._channel.controller, tuple(self._chain.items()), self._chain_base
            )
            self._chain.clear()

    # ------------------------------------------------------------------
    # execution

    def _segments_for(self, layout: Layout, *, fused: bool = False) -> SegmentedStream:
        """The layout's lowered, segmented command stream (lowered once).

        The fused (GWRITE-less) lowering is kept separately from the
        round-trip one — same layout, different command identity — so a
        session that alternates fused and unfused runs replays each
        schedule from its own cache entries.
        """
        key = (layout, True) if fused else layout
        stream = self._streams.get(key)
        if stream is None:
            generator = CommandStreamGenerator(
                self.config, self.timing, self.opt, layout
            )
            stream = self._streams[key] = segment_stream(
                generator, self.schedule_cache, fused=fused
            )
        return stream

    def run_gemv(
        self,
        layout: Layout,
        vector: Optional[np.ndarray] = None,
        background=None,
        *,
        fused_input: bool = False,
    ) -> ChannelRunResult:
        """One matrix-vector product on this channel's slice: the one-run
        case of :meth:`run_gemvs`, with ``vector`` its input."""
        vectors = None if vector is None else (vector,)
        (result,) = self.run_gemvs(
            layout, 1, vectors, background, fused_input=fused_input
        )
        return result

    def run_gemvs(
        self,
        layout: Layout,
        count: int,
        vectors=None,
        background=None,
        *,
        fused_input: bool = False,
    ) -> List[ChannelRunResult]:
        """``count`` matrix-vector products back to back, each equal to a
        :meth:`run_gemv` call's; on the fast tier, one chain
        (:meth:`_replay_runs`).

        Args:
            layout: the resident matrix's layout (from :meth:`add_matrix`).
            count: the runs.
            vectors: their ``count`` input vectors (functional mode).
            background: optional non-AiM traffic source with a
                ``commands_for_boundary(index, now) -> list[Command]``
                method (and optionally ``record_completion``); its
                commands are interleaved at tile boundaries, where every
                bank is precharged, so they never interfere with AiM row
                operations (Section III-D). It forces per-command issue.
            fused_input: the input is already channel-resident
                (fused-layer dataflow), so the stream's host GWRITEs are
                elided from the command bus; outputs stay bit-identical.
                Ignored on a family whose rules keep the GWRITEs
                (:attr:`~repro.dram.config.FamilyRules.elides_gwrites`),
                and under the protocol verifier, whose host-protocol
                GWRITE-before-COMP rule a fused stream bypasses.
        """
        if self.functional:
            if vectors is None or len(vectors) != count:
                raise ProtocolError(f"functional mode requires {count} input vectors")
            padded = [layout.pad_vector(vector) for vector in vectors]
        controller = self._channel.controller
        # Fused lowering elides GWRITEs from the timed stream, where the
        # family's rules allow it (the controller resolved them once).
        fused = (
            fused_input
            and self.verifier is None
            and controller.rules.elides_gwrites
        )
        stream = self._segments_for(layout, fused=fused)
        if fused:
            self.fused_runs += count
            self.fused_skipped_gwrites += count * stream.skipped_gwrites
            self.fused_saved_cycles += count * stream.skipped_gwrites * max(
                self.timing.t_cmd, self.timing.t_ccd
            )
        if self.fast and background is None and controller.trace is None:
            runs = self._replay_runs(stream, count)
        else:
            runs = [self._issue_each(stream, background) for _ in range(count)]
        return [
            ChannelRunResult(
                channel_index=self.channel_index,
                row_slice=(0, layout.m),
                start_cycle=start,
                end_cycle=end,
                stats=stats,
                # The arithmetic is fixed by the layout: no controller state.
                output=self.datapath.gemv(layout, padded[i]) if self.functional else None,
            )
            for i, (start, end, stats) in enumerate(runs)
        ]

    def _issue_each(
        self, stream: SegmentedStream, background
    ) -> Tuple[int, int, Dict[str, object]]:
        """The per-command reference for one run: every barrier and every
        command through the controller, background traffic at tile
        boundaries. Returns the run's start, its latest completion (at
        least the start) and its stats."""
        self._write_back()
        controller = self._channel.controller
        start = end = controller.now
        before = stats_snapshot(controller.stats)
        boundary = 0
        for segment in stream.segments():
            if segment.barrier_cycles:
                if background is not None:
                    for command in background.commands_for_boundary(
                        boundary, controller.now
                    ):
                        record = controller.issue(command)
                        end = max(end, record.complete)
                        notify = getattr(background, "record_completion", None)
                        if notify is not None:
                            notify(command, record)
                boundary += 1
                controller.refresh_barrier(segment.barrier_cycles)
            for command in segment.commands:
                record = controller.issue(command)
                end = max(end, record.complete)
        if self.verifier is not None:
            # Raises VerificationError if this run broke the protocol.
            self.verifier.after_run(end)
        return start, end, stats_delta(before, stats_snapshot(controller.stats))

    def _signature_id(self) -> Optional[int]:
        """The interned relative signature of the controller's state
        (``None``: not replayable)."""
        signature = fastpath.relative_signature(self._channel.controller)
        if signature is None:
            return None
        return self.schedule_cache.intern_signature(signature)

    def _replay_runs(
        self, stream: SegmentedStream, count: int
    ) -> List[Tuple[int, int, Dict[str, object]]]:
        """The fast tier: ``count`` runs, each served whole where it can
        be. Returns each run's start, end (the latest completion, at
        least the start) and stats.

        A run whose start signature and refresh phase match a
        :class:`~repro.core.schedule_cache.RunRecord` is served whole:
        its delta joins the pending chain, the refresh scheduler
        advances at once, and the record's end signature keys the next
        lookup. The chain outlives the call: the next one starts from
        its end cycle and end signature, computing no signature, unless
        a backstop clear has since retired that signature's id. A run
        with no record writes the chain back and walks. Nothing writes
        the chain back on return (see :attr:`channel`).
        """
        controller = self._channel.controller
        cache = self.schedule_cache
        refresh = controller.refresh
        chain = self._chain
        last = next(reversed(chain), None)
        if last is not None and cache.is_live(last.end_signature):
            start, signature = self._chain_base + last.dt_now, last.end_signature
        else:
            self._write_back()
            start, signature = controller.now, self._signature_id()
        runs = []
        for _ in range(count):
            record = signature is not None and cache.lookup_run(
                stream.key_id,
                signature,
                start,
                refresh.last_safe_start(stream.barrier_cycles),
                refresh.phase(start),
            )
            if not record:
                self._write_back()
                end, stats, signature = self._replay_walk(stream, start, signature)
                runs.append((start, end, stats))
                start = controller.now
                continue
            delta = record.delta
            chain[delta] = chain.pop(delta, 0) + 1  # the last run last
            if record.refresh is not None:
                refresh.replay(record.refresh, start)
            cache.hits += stream.segment_count
            cache.replayed_commands += stream.total_commands
            cache.whole_runs += 1
            runs.append((start, start + delta.max_complete, copy_stats(record.stats)))
            self._chain_base, start = start, start + delta.dt_now
            signature = delta.end_signature
        return runs

    def _replay_walk(
        self, stream: SegmentedStream, start: int, signature: Optional[int]
    ) -> Tuple[int, Dict[str, object], Optional[int]]:
        """One run segment by segment, from ``start`` and its interned
        ``signature``. Returns the run's end cycle (the latest
        completion, at least ``start``), its stats and its end signature.

        The walk keeps a local clock. A hit costs one lookup and one
        addition: the delta's recorded end signature keys the next
        lookup, and the replayed deltas accumulate in ``replays`` until
        one :func:`fastpath.apply_delta` writes them back — before a
        miss and at the end of the run. A barrier that cannot fire is
        one comparison against the cycle
        :meth:`RefreshScheduler.last_safe_start` gives. One that fires
        is served like a hit from its
        :class:`~repro.core.schedule_cache.RefreshRecord`, keyed by the
        signature, the refresh phase and the barrier window: the delta
        joins ``replays`` and the refresh scheduler advances at once.
        Without a record the walk writes back, runs
        :meth:`ChannelController.refresh_barrier` exactly and records
        it (unless a bank holds an open row). A miss runs the cold path
        and records its delta. A walk that hit on every segment is then
        recorded whole.

        A :class:`~repro.core.schedule_cache.SegmentRun` repeats one
        period of segment keys, so a repeat that hit on every segment,
        fired no refresh and ended in the signature it started from is
        a fixed point: every later repeat would replay the same deltas,
        shifted by the repeat's length. The walk takes those repeats in
        one step, up to the last whose last barrier cannot fire, with
        every hit, replayed command and counter they stand for.
        """
        controller = self._channel.controller
        cache = self.schedule_cache
        lookup = cache.lookup
        refresh = controller.refresh
        window = stream.barrier_cycles
        limit = refresh.last_safe_start(window)
        now = end = start
        start_signature = signature
        whole = signature is not None
        if whole:
            phase = refresh.phase(start)
            counters_start = fastpath.counters(controller)
            refreshes_start = refresh.refreshes_issued
            stall_start = refresh.stall_cycles
        before = stats_snapshot(controller.stats)
        replays: List[Tuple[ControllerDelta, int]] = []
        replayed = 0
        last_barrier = None

        def write_back() -> None:
            if replays:
                self.write_backs += 1
                fastpath.apply_delta(controller, replays, now - replays[-1][0].dt_now)
                replays.clear()

        for run in stream.runs:
            repeat = 0
            while repeat < run.count:
                repeat_start, repeat_signature, mark = now, signature, len(replays)
                steady = True
                for segment in run.period:
                    if segment.barrier_cycles:
                        last_barrier = now
                        if now > limit:
                            steady = False
                            key = signature is not None and (
                                signature, refresh.phase(now), window
                            )
                            record = key and cache.lookup_refresh(key)
                            if record:
                                replays.append((record.delta, 1))
                                refresh.replay(record.refresh, now)
                                now += record.delta.dt_now
                                signature = record.delta.end_signature
                            else:
                                write_back()
                                counters_before = fastpath.counters(controller)
                                issued = refresh.refreshes_issued
                                stalled = refresh.stall_cycles
                                now = controller.refresh_barrier(window)
                                signature = self._signature_id()
                                if key:
                                    record = RefreshRecord(
                                        fastpath.capture_delta(
                                            controller, last_barrier,
                                            counters_before, None, signature,
                                        ),
                                        refresh.advance_since(
                                            last_barrier, issued, stalled
                                        ),
                                    )
                                    cache.store_refresh(key, record)
                            limit = refresh.last_safe_start(window)
                    if signature is not None:
                        delta = lookup(segment.key_id, signature)
                        if delta is not None:
                            replays.append((delta, 1))
                            if delta.max_complete is not None:
                                complete = now + delta.max_complete
                                if complete > end:
                                    end = complete
                            now += delta.dt_now
                            signature = delta.end_signature
                            replayed += segment.n_commands
                            continue
                    steady = whole = False
                    write_back()
                    segment = run.at(segment, repeat)
                    if signature is None:
                        # A bank holds an open row: issue per command.
                        for command in segment.commands:
                            record = controller.issue(command)
                            end = max(end, record.complete)
                        signature = self._signature_id()
                    else:
                        # Cold path: command runs go through the burst
                        # kernel (first period solved, the rest in closed
                        # form); everything else through the per-command
                        # solver.
                        counters_before = fastpath.counters(controller)
                        segment_complete: Optional[int] = None
                        for item in segment.items:
                            if isinstance(item, CommandRun):
                                complete = controller.issue_burst(item).complete
                                self.burst_runs += 1
                                self.burst_commands += len(item)
                            else:
                                complete = controller.issue(item).complete
                            if segment_complete is None or complete > segment_complete:
                                segment_complete = complete
                        if segment_complete is not None:
                            end = max(end, segment_complete)
                        end_signature = self._signature_id()
                        delta = fastpath.capture_delta(
                            controller, now, counters_before, segment_complete,
                            end_signature,
                        )
                        if delta is not None:
                            cache.store(segment.key_id, signature, delta)
                        signature = end_signature
                    now = controller.now
                repeat += 1
                if not steady or repeat == run.count or signature != repeat_signature:
                    continue
                # A fixed point: every later repeat replays this one's
                # deltas ``length`` cycles on. Take them at once, up to
                # the last whose last barrier cannot fire.
                length = now - repeat_start
                times = run.count - repeat
                if run.has_barrier and length:
                    times = min(times, (limit - last_barrier) // length)
                if not times:
                    continue
                shift = times * length
                deltas = replays[mark:]
                replays[mark:] = [(delta, 1 + times) for delta, _ in deltas]
                offset = repeat_start + shift  # the last repeat taken
                for delta, _ in deltas:
                    if delta.max_complete is not None:
                        end = max(end, offset + delta.max_complete)
                    offset += delta.dt_now
                now += shift
                if run.has_barrier:
                    last_barrier += shift
                cache.hits += times * len(run.period)
                replayed += times * run.n_commands
                repeat += times
        write_back()
        cache.replayed_commands += replayed
        stats = stats_delta(before, stats_snapshot(controller.stats))
        if whole:
            fired = refresh.refreshes_issued > refreshes_start
            cache.store_run(
                stream.key_id,
                start_signature,
                phase if fired else None,
                RunRecord(
                    delta=fastpath.capture_delta(
                        controller, start, counters_start, end, signature
                    ),
                    refresh=(
                        refresh.advance_since(start, refreshes_start, stall_start)
                        if fired
                        else None
                    ),
                    last_barrier=(
                        None if fired or last_barrier is None
                        else last_barrier - start
                    ),
                    stats=copy_stats(stats),
                ),
            )
        return end, stats, signature

    def power_report(self) -> PowerReport:
        """Normalized power breakdown over everything run so far."""
        return self.channel.power_report()

    def collect_metrics(self, *, end: Optional[int] = None) -> dict:
        """Schema-validated telemetry breakdown for this channel.

        See :func:`repro.telemetry.engine_metrics`; pass the run's
        reported ``end_cycle`` so in-flight completions are attributed.
        """
        from repro.telemetry import engine_metrics

        return engine_metrics(self, end=end)
