"""The per-channel execution engine: timing + functional, together.

The engine walks a :class:`~repro.core.command_gen.Step` stream, issuing
every command to the cycle-accurate controller and — in functional mode —
mirroring the datapath's state: GWRITE loads the global buffer, the final
compute command of a tile fires the tile evaluation (bit-exact with the
per-command MAC path), and READRES drains result latches into fp32
host-side partial accumulation. The functional interpretation
(:mod:`repro.core.datapath`) evaluates whole buffer groups of tiles as
single vector kernels, bit-identical to the per-command
:class:`~repro.core.reference.ReferenceExecutor`.

Residency is a bump pointer: each resident layout takes the next free
DRAM rows of every bank, and a functional engine backs them with one
contiguous uint16 slab (:attr:`NewtonChannelEngine.slabs`) that
:meth:`NewtonChannelEngine.add_matrix`,
:meth:`NewtonChannelEngine.update_matrix` and the ECC scrubber write
whole, and the datapath reads a buffer group at a time. A timing-only
engine allocates no storage. Construction rejects a command family
that cannot walk the configured traversal
(:func:`~repro.core.command_gen.check_traversal`).

A single engine persists across runs: successive layers (or batch inputs)
execute back-to-back on the same controller clock, so refresh interference
accumulates across an end-to-end model exactly as it would on hardware —
the effect behind DLRM's end-to-end vs single-layer gap in Figure 8.

Execution is tiered, fastest applicable tier first, without giving up a
cycle of exactness (see :mod:`repro.core.schedule_cache`,
:mod:`repro.dram.burst`, and ``docs/cold-path.md``):

* the **schedule cache** replays recorded per-tile timing deltas when a
  tile starts from a controller state already seen (same relative
  bus/bank/FAW phase) — the steady-state tier. Replay walks the
  segments on a local clock: a hit is one lookup and one addition, the
  delta's end-signature id keys the next lookup, a refresh barrier that
  cannot fire is one comparison, and the controller is written back
  only before a refresh that fires, before a miss and at the end of the
  run;
* on a replay miss (the *cold* path: first encounter of a layer shape
  or controller phase), homogeneous command runs go through the **burst
  kernel** — first command solved by the constraint solver, the rest in
  closed form — instead of N per-command solver iterations;
* the **per-command reference** solver handles everything else, and the
  whole stream when the fast path is off.

Lowering itself (:func:`~repro.core.schedule_cache.segment_stream`)
costs O(tiles): each row-independent tile piece is a template built
once per tile shape, segments key by interned fragment ids, and a
timing-only engine lowers no functional payloads. Each resident
layout's segmented stream is kept for the engine's lifetime, so
``gemm``/``gemv_batch``/serving/model re-runs skip lowering entirely.
Every refresh that fires is executed exactly in every tier, and tracing
or mixed background traffic forces the per-command reference for the
run.

Set ``fast=False`` (or the ``NEWTON_NO_FASTPATH=1`` environment
variable) to force per-command issue everywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.command_gen import CommandStreamGenerator, check_traversal
from repro.core.datapath import BatchedDatapath
from repro.core.global_buffer import GlobalBuffer
from repro.core.layout import Layout, make_layout
from repro.core.optimizations import OptimizationConfig
from repro.core.result import ChannelRunResult, stats_delta, stats_snapshot
from repro.core.schedule_cache import (
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
from repro.numerics.lut import ActivationLUT
from repro.utils.envflags import env_flag


def fastpath_env_disabled() -> bool:
    """True when ``NEWTON_NO_FASTPATH`` requests the slow path.

    Accepts the repository's standard boolean spellings (see
    :mod:`repro.utils.envflags`): ``1/true/yes/on`` disable the fast
    path, ``0/false/no/off`` and the empty string keep it, anything
    else warns and keeps the default (fast path on).
    """
    return env_flag("NEWTON_NO_FASTPATH", default=False)


def telemetry_env_enabled() -> bool:
    """True unless ``NEWTON_TELEMETRY`` requests attribution off.

    Telemetry defaults on; set ``NEWTON_TELEMETRY=0`` (or any falsy
    spelling) to skip cycle-attribution accounting entirely.
    """
    return env_flag("NEWTON_TELEMETRY", default=True)


class NewtonChannelEngine:
    """Executes GEMV command streams on one Newton channel."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        opt: OptimizationConfig,
        *,
        channel_index: int = 0,
        functional: bool = True,
        refresh_enabled: bool = True,
        power_params: PowerParams = PowerParams(),
        lut: Optional[ActivationLUT] = None,
        fast: bool = True,
        telemetry: bool = True,
        schedule_cache: Optional[ScheduleCache] = None,
    ):
        check_traversal(config, opt)
        self.config = config
        self.timing = timing
        self.opt = opt
        self.channel_index = channel_index
        self.functional = functional
        self.lut = lut
        self.fast = fast and not fastpath_env_disabled()
        self.telemetry = telemetry and telemetry_env_enabled()
        self.channel = Channel(
            config,
            timing,
            aggressive_tfaw=opt.aggressive_tfaw,
            refresh_enabled=refresh_enabled,
            power_params=power_params,
            telemetry=self.telemetry,
        )
        self.slabs: Optional[Dict[int, np.ndarray]] = {} if functional else None
        """The resident matrices' bf16 bits: one uint16 slab of shape
        ``layout.slab_shape`` per layout, keyed by its base row (``None``
        on a timing-only engine)."""
        self.buffer = GlobalBuffer(config)
        self._latches = np.zeros(
            (config.banks_per_channel, opt.result_latches), dtype=np.float32
        )
        self._next_free_row = 0
        self.datapath = BatchedDatapath(self)
        """The functional datapath interpreting this engine's payload
        steps (see :mod:`repro.core.datapath`)."""
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
        """Homogeneous runs issued through the cold-path burst kernel."""
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
        occupied (``skipped * max(t_cmd, t_ccd)``, the homogeneous-run
        stride). An estimate for telemetry only — the measured saving is
        the fused-vs-round-trip end-cycle difference."""
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
        engine backs them with one zeroed slab in :attr:`slabs`. The load
        itself is not timed: the filter matrix is resident in the AiM
        for the model's lifetime (the paper re-loads it only for ECC
        scrubbing, about once per thousand inputs).
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
            slab = np.zeros(layout.slab_shape, dtype=np.uint16)
            self.slabs[layout.base_row] = slab
            if matrix is not None:
                layout.write_slab(slab, matrix)
        return layout

    def update_matrix(self, layout: Layout, matrix: np.ndarray) -> None:
        """Rewrite a resident matrix's data in place (functional only).

        The in-place residency update behind the bank-resident KV-cache:
        decode appends a row/column to an arena whose DRAM rows were
        allocated once at session open. Like :meth:`add_matrix`, the
        write itself is not timed (the host streams it alongside compute,
        exactly as the paper's occasional ECC scrub re-loads are).
        """
        if not self.functional:
            raise ProtocolError("update_matrix needs a functional engine")
        layout.write_slab(self.slabs[layout.base_row], matrix)

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
                generator,
                self.schedule_cache,
                fused=fused,
                functional=self.functional,
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
        """Execute one matrix-vector product on this channel's slice.

        Args:
            layout: the resident matrix's layout (from :meth:`add_matrix`).
            vector: the input vector (functional mode).
            background: optional non-AiM traffic source with a
                ``commands_for_boundary(index, now) -> list[Command]``
                method (and optionally ``record_completion``);
                its commands are interleaved at tile boundaries, where
                every bank is precharged — honouring Section III-D's rule
                that non-AiM commands access a different row and never
                interfere with in-flight AiM row operations. Background
                traffic (like tracing) disables the steady-state fast
                path for the run.
            fused_input: the input vector is already channel-resident
                (fused-layer dataflow), so the stream's host GWRITEs are
                elided from the command bus; outputs stay bit-identical.
                Ignored when the protocol verifier is attached — the
                verifier checks the *host* protocol, whose
                GWRITE-before-COMP rule a fused stream intentionally
                bypasses.
        """
        controller = self.channel.controller
        # Fused lowering elides GWRITEs from the timed stream — sound for
        # Newton's chunk-major traversal where GWRITE is a pure host
        # round trip, but the output_stationary family *re-streams* the
        # input per tile (its GWRITEs are the dataflow's cost), so only
        # the newton family may fuse.
        fused = (
            fused_input
            and self.verifier is None
            and self.config.command_family == "newton"
        )
        stream = self._segments_for(layout, fused=fused)
        if fused:
            self.fused_runs += 1
            self.fused_skipped_gwrites += stream.skipped_gwrites
            self.fused_saved_cycles += stream.skipped_gwrites * max(
                self.timing.t_cmd, self.timing.t_ccd
            )
        if self.functional:
            if vector is None:
                raise ProtocolError("functional mode requires an input vector")
            padded = layout.pad_vector(vector)
        before = stats_snapshot(controller.stats)
        start = controller.now
        if self.fast and background is None and controller.trace is None:
            end = self._replay_walk(stream, start)
        else:
            end = self._issue_each(stream, background, start)
        output = None
        if self.functional:
            # The datapath and the controller are independent state
            # machines: the payload steps depend only on their own order.
            output = np.zeros(layout.m, dtype=np.float32)
            for segment in stream.segments:
                for step in segment.functional_steps:
                    self.datapath.step(step, padded, layout, output)
            # Apply the datapath's deferred work (it evaluates whole
            # buffer groups at flush points).
            self.datapath.finish(output)
        after = stats_snapshot(controller.stats)
        if self.verifier is not None:
            # Raises VerificationError if this run broke the protocol.
            self.verifier.after_run(end)
        return ChannelRunResult(
            channel_index=self.channel_index,
            row_slice=(0, layout.m),
            start_cycle=start,
            end_cycle=end,
            stats=stats_delta(before, after),
            output=output,
        )

    def _issue_each(
        self, stream: SegmentedStream, background, end: int
    ) -> int:
        """The per-command reference: every barrier and every command
        through the controller, background traffic at tile boundaries.
        Returns the latest completion (at least ``end``)."""
        controller = self.channel.controller
        boundary = 0
        for segment in stream.segments:
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
        return end

    def _signature_id(self) -> Optional[int]:
        """The interned relative signature of the controller's state
        (``None``: not replayable)."""
        signature = fastpath.relative_signature(self.channel.controller)
        if signature is None:
            return None
        return self.schedule_cache.intern_signature(signature)

    def _replay_walk(self, stream: SegmentedStream, end: int) -> int:
        """The fast tier: walk the segments on a local clock.

        A hit costs one lookup and one addition: the delta's recorded
        end signature keys the next lookup, and the replayed deltas
        accumulate in ``replays`` until one :func:`fastpath.apply_delta`
        writes them back — before a refresh that fires, before a miss,
        and at the end of the run. A barrier that cannot fire is one
        comparison against the cycle :meth:`RefreshScheduler.last_safe_start`
        gives; one that fires runs :meth:`ChannelController.refresh_barrier`
        exactly. A miss runs the cold path and records its delta.
        Returns the latest completion (at least ``end``).
        """
        controller = self.channel.controller
        cache = self.schedule_cache
        lookup = cache.lookup
        refresh = controller.refresh
        window = stream.barrier_cycles
        limit = refresh.last_safe_start(window)
        now = controller.now
        signature = self._signature_id()
        replays: List[ControllerDelta] = []
        replayed = 0

        def write_back() -> None:
            if replays:
                fastpath.apply_delta(controller, replays, now - replays[-1].dt_now)
                replays.clear()

        for segment in stream.segments:
            if segment.barrier_cycles and now > limit:
                write_back()
                now = controller.refresh_barrier(window)
                limit = refresh.last_safe_start(window)
                signature = self._signature_id()
            if signature is not None:
                delta = lookup(segment.key_id, signature)
                if delta is not None:
                    replays.append(delta)
                    if delta.max_complete is not None:
                        complete = now + delta.max_complete
                        if complete > end:
                            end = complete
                    now += delta.dt_now
                    signature = delta.end_signature
                    replayed += segment.n_commands
                    continue
            write_back()
            if signature is None:
                # A bank holds an open row: issue per command.
                for command in segment.commands:
                    record = controller.issue(command)
                    end = max(end, record.complete)
                signature = self._signature_id()
            else:
                # Cold path: homogeneous runs go through the burst
                # kernel (first command solved, tail in closed form);
                # everything else through the per-command solver.
                counters_before = fastpath.counters(controller)
                segment_complete: Optional[int] = None
                for item in segment.items:
                    if isinstance(item, CommandRun):
                        complete = controller.issue_burst(item).complete
                        self.burst_runs += 1
                        self.burst_commands += item.count
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
        write_back()
        cache.replayed_commands += replayed
        return end

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
