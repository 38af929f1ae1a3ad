"""Differential validation: steady-state fast path vs per-command issue.

The fast path must be invisible: cycle-identical timing, identical
``ControllerStats``, bit-identical functional outputs, and a controller
state indistinguishable from the slow path's after every run — across
every optimization combination, every command family, refresh on/off,
every refresh phase, and arbitrary shapes. Same rigor as the ticksim
cross-check (``tests/dram/test_ticksim.py``), but against the production
engine's own slow path.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.command_gen import BlockStep, CommandStreamGenerator
from repro.core.device import NewtonDevice
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import (
    FULL,
    NON_OPT,
    OptimizationConfig,
    figure9_ladder,
)
from repro.core.schedule_cache import ScheduleCache
from repro.dram import commands as cmds
from repro.dram import fastpath
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig, hbm2e_like_config
from repro.dram.controller import ChannelController
from repro.dram.families import family_by_name
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.dram.trace import CommandTrace
from repro.experiments.common import eval_config, eval_timing
from repro.telemetry import validate_metrics
from repro.workloads.catalog import TABLE_II_LAYERS

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=512)
TIMING = TimingParams()

FLAGS = (
    "ganged_compute",
    "complex_commands",
    "interleaved_reuse",
    "four_bank_activation",
    "aggressive_tfaw",
)


RIVAL_FAMILIES = ("output_stationary", "bankgroup_ext")

RIVAL_LADDER = [
    pytest.param(family, opt, id=f"{family}-{name.strip('+').split()[0].lower()}")
    for family in RIVAL_FAMILIES
    for name, opt in figure9_ladder()
    # output_stationary requires the interleaved traversal.
    if family != "output_stationary" or opt.interleaved_reuse
]


def make_engine(
    fast, opt, *, refresh=True, functional=False, family="newton",
    schedule_cache=None,
):
    return NewtonChannelEngine(
        dataclasses.replace(CFG, command_family=family),
        TIMING,
        opt,
        functional=functional,
        refresh_enabled=refresh,
        fast=fast,
        schedule_cache=schedule_cache,
    )


def controller_fingerprint(controller):
    """Everything observable about a controller's final state.

    ``_bank_opened_at`` is excluded by design: it is scratch the next
    activation overwrites before any read, and replay does not maintain
    it (the open-bank cycle accounting it feeds is carried in the
    recorded stats delta instead).
    """
    stats = controller.stats
    return (
        controller.now,
        tuple(
            (
                b.open_row,
                b.ready_for_act,
                b.column_ready,
                b.precharge_ready,
                b.last_column_issue,
                b.activations,
                b.column_accesses,
            )
            for b in controller.banks
        ),
        (
            controller.cmd_bus.next_free,
            controller.cmd_bus.slots_used,
            controller.cmd_bus.busy_cycles,
        ),
        (
            controller.data_bus.next_free,
            controller.data_bus.slots_used,
            controller.data_bus.busy_cycles,
        ),
        controller.window.snapshot(),
        controller.window.total_activations,
        controller._last_tree_feed,
        controller._attr_cursor,
        dict(stats.command_counts),
        dict(stats.cycle_attribution),
        stats.bank_activations,
        stats.bank_column_accesses,
        stats.compute_column_accesses,
        stats.data_transfers,
        stats.open_bank_cycles,
        stats.refreshes,
        stats.refresh_stall_cycles,
        (
            controller.refresh.refreshes_issued,
            controller.refresh.stall_cycles,
            controller.refresh.next_due,
            tuple(controller.refresh.log),
        ),
    )


def disable_replay(engine):
    """Force every segment down the cold (burst-kernel) path.

    With lookups always missing, the engine records deltas but never
    replays them — so a ``fast=True`` run exercises the burst kernel on
    every tile, the regime the cold-path differential pins.
    """
    engine.schedule_cache.lookup = lambda *a, **k: None


def assert_same_run(slow, fast, a, b):
    """One run's results and the controllers after it must agree."""
    assert (a.start_cycle, a.end_cycle) == (b.start_cycle, b.end_cycle)
    assert a.stats == b.stats
    assert controller_fingerprint(
        slow.channel.controller
    ) == controller_fingerprint(fast.channel.controller)


def run_pair(
    opt, m, n, *, refresh=True, runs=1, cold=False, family="newton",
    schedule_cache=None,
):
    """Run identical GEMV sequences on a fast and a slow engine."""
    slow = make_engine(False, opt, refresh=refresh, family=family)
    fast = make_engine(
        True, opt, refresh=refresh, family=family, schedule_cache=schedule_cache
    )
    if cold:
        disable_replay(fast)
    layout_slow = slow.add_matrix(m, n)
    layout_fast = fast.add_matrix(m, n)
    for _ in range(runs):
        a = slow.run_gemv(layout_slow)
        b = fast.run_gemv(layout_fast)
        assert_same_run(slow, fast, a, b)
    assert_metrics_parity(slow, fast, a.end_cycle)
    return slow, fast


def assert_metrics_parity(slow, fast, end):
    """Validated telemetry exports must match apart from cache counters.

    Replay accumulates the same cycle-attribution and command counters
    as per-command issue, so after finalizing both controllers at the
    same end cycle the schema-validated records differ only in the
    schedule-cache and burst sections (skipping solver work is those
    paths' whole point).
    """
    a = validate_metrics(slow.collect_metrics(end=end))
    b = validate_metrics(fast.collect_metrics(end=end))
    for record in (a, b):
        record.pop("schedule_cache")
        record.pop("fast_path")
        record.pop("burst")
    assert a == b


class WalkLog:
    """A fast engine's segment lookups, and the segments its walks cover.

    A walk looks up each segment it meets one at a time; repeats it
    steps over in closed form cost no lookup, so ``stepped`` counts
    them. ``lookups`` holds ``(key id, signature id, delta or None)``.
    """

    def __init__(self, engine, monkeypatch):
        self.lookups = []
        self.walked = 0
        self.walks = 0
        lookup = engine.schedule_cache.lookup
        walk = engine._replay_walk

        def logged(key_id, signature_id):
            delta = lookup(key_id, signature_id)
            self.lookups.append((key_id, signature_id, delta))
            return delta

        def counted(stream, start, signature):
            self.walks += 1
            self.walked += stream.segment_count
            return walk(stream, start, signature)

        monkeypatch.setattr(engine.schedule_cache, "lookup", logged)
        monkeypatch.setattr(engine, "_replay_walk", counted)

    @property
    def stepped(self):
        """Segments walked without a lookup."""
        return self.walked - len(self.lookups)

    def transient(self):
        """The longest chain of hits on one segment key, each ending in
        a new signature that the next lookup starts from: repeats that
        replay but have not yet reached a fixed point."""
        longest = chain = 0
        for (key, signature, delta), after in zip(self.lookups, self.lookups[1:]):
            if delta is not None and after[:2] == (key, delta.end_signature) != (
                key,
                signature,
            ):
                chain += 1
                longest = max(longest, chain)
            else:
                chain = 0
        return longest


class RefreshLog:
    """Which refresh records a cache stores and which it replays.

    ``lookups`` holds ``(key, record or None, engine tag)`` per firing
    barrier looked up, ``stored`` maps each record to its key and the
    tag of the run that stored it; set ``engine`` before a run to tag
    it."""

    def __init__(self, cache, monkeypatch):
        self.lookups = []
        self.stored = {}
        self.engine = None
        lookup, store = cache.lookup_refresh, cache.store_refresh

        def logged(key):
            record = lookup(key)
            self.lookups.append((key, record, self.engine))
            return record

        def stored(key, record):
            self.stored[record] = (key, self.engine)
            store(key, record)

        monkeypatch.setattr(cache, "lookup_refresh", logged)
        monkeypatch.setattr(cache, "store_refresh", stored)

    @property
    def served(self):
        """``(record, stored by, served to)`` per barrier replayed (stored
        by ``None``: a record the cache held before the log began)."""
        return [
            (record, self.stored.get(record, (None, None))[1], engine)
            for _, record, engine in self.lookups
            if record is not None
        ]


LONG = (16 * 40, 1024)
"""Two chunks of 40 tiles: runs of repeated tiles long enough that a
walk steps over most of them between refreshes."""


class TestAllCombinations:
    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    @pytest.mark.parametrize(
        "bits",
        list(itertools.product((False, True), repeat=5)),
        ids=lambda b: "".join("X" if x else "." for x in b),
    )
    def test_cycle_and_stats_identical(self, bits, refresh):
        opt = OptimizationConfig(**dict(zip(FLAGS, bits)))
        run_pair(opt, m=40, n=700, refresh=refresh)

    def test_four_latch_variant(self):
        opt = FULL.evolve(interleaved_reuse=False, result_latches=4)
        run_pair(opt, m=16 * 6, n=1024)

    def test_batch_stays_exact_across_refresh_phases(self):
        """Back-to-back runs replay whole streams; refresh keeps moving."""
        _, fast = run_pair(FULL, m=64, n=1024, runs=5)
        cache = fast.schedule_cache
        assert cache.hits > 0
        assert cache.replayed_commands > 0


class TestRivalFamilies:
    """The rival command families through the same differential: the
    per-group tFAW scopes of ``bankgroup_ext`` and the per-tile GWRITE
    re-streams and single drains of ``output_stationary`` must replay
    exactly too."""

    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    @pytest.mark.parametrize("family,opt", RIVAL_LADDER)
    def test_ladder_replays_exactly(self, family, opt, refresh):
        _, fast = run_pair(
            opt, m=48, n=1024, refresh=refresh, runs=3, family=family
        )
        assert fast.schedule_cache.hits > 0

    @pytest.mark.parametrize("family", RIVAL_FAMILIES)
    def test_cold_burst_matches(self, family):
        _, fast = run_pair(FULL, m=48, n=1024, runs=2, cold=True, family=family)
        assert fast.schedule_cache.hits == 0
        assert fast.burst_commands > 0


FOUR_LATCH = FULL.evolve(interleaved_reuse=False, result_latches=4)


class TestRepeatSteps:
    """Streams whose runs of repeated tiles are long enough that the walk
    steps over repeats in closed form: fast equals ``fast=False`` after
    every run, and the walks really stepped (fewer lookups than
    segments walked)."""

    @pytest.mark.parametrize(
        "opt, shape, fused",
        [
            pytest.param(FULL, LONG, True, id="fused"),
            # One chunk: a pass of four latches is four tiles.
            pytest.param(FOUR_LATCH, (16 * 40, 512), False, id="four-latch"),
            # 39 slots: the last pass has three, and the last chunk is
            # 188 elements wide.
            pytest.param(FOUR_LATCH, (16 * 38 + 3, 700), False, id="four-latch-ragged"),
            pytest.param(FULL, (16 * 40 - 5, 1100), False, id="ragged"),
        ],
    )
    def test_stepped_runs_stay_exact(self, monkeypatch, opt, shape, fused):
        slow = make_engine(False, opt)
        fast = make_engine(True, opt)
        log = WalkLog(fast, monkeypatch)
        layout_slow, layout_fast = slow.add_matrix(*shape), fast.add_matrix(*shape)
        for _ in range(3):
            a = slow.run_gemv(layout_slow, fused_input=fused)
            b = fast.run_gemv(layout_fast, fused_input=fused)
            assert_same_run(slow, fast, a, b)
        controllers = slow.channel.controller, fast.channel.controller
        assert controllers[0].refresh.log == controllers[1].refresh.log
        assert controllers[1].refresh.refreshes_issued > 0
        assert log.stepped > 0
        assert fast.fused_runs == 3 * fused
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_refresh_off_steps_each_run_at_once(self, monkeypatch):
        """With refresh off no barrier can fire, so once a repeat of a run
        is a fixed point the walk takes every repeat left in one step:
        a walk costs a few lookups per run of repeated tiles, however
        many tiles the run holds."""
        slow = make_engine(False, FULL, refresh=False)
        fast = make_engine(True, FULL, refresh=False)
        log = WalkLog(fast, monkeypatch)
        layout_slow, layout_fast = slow.add_matrix(*LONG), fast.add_matrix(*LONG)
        for _ in range(3):
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        stream = fast._segments_for(layout_fast)
        assert [(run.count, len(run.period)) for run in stream.runs] == [
            (1, 1),
            (39, 1),
            (1, 1),
            (40, 1),
        ]
        assert log.walks == 3
        assert len(log.lookups) == 19
        assert_metrics_parity(slow, fast, a.end_cycle)


class TestRefreshPhases:
    """A firing refresh at every barrier of a short stream.

    Prologue plus two chunks of three tiles: seven segments, six of them
    behind a barrier. Identical runs alone settle into a refresh cycle
    that only ever fires at four of the six barriers, so a one-tile GEMV
    between runs shifts the phase until a refresh has landed on each
    barrier index. Fast must equal per-command after every run, with
    cycle attribution on and off."""

    M, N = 48, 1024
    MAX_RUNS = 100

    @pytest.mark.parametrize("telemetry", ["1", "0"], ids=["attr", "noattr"])
    def test_every_barrier_fires(self, telemetry, monkeypatch):
        monkeypatch.setenv("NEWTON_TELEMETRY", telemetry)
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        assert fast.telemetry is (telemetry == "1")
        layouts = [
            (engine.add_matrix(self.M, self.N), engine.add_matrix(16, 64))
            for engine in (slow, fast)
        ]
        stream = fast._segments_for(layouts[1][0])
        assert stream.segment_count == 7
        barriers = sum(1 for segment in stream.segments() if segment.barrier_cycles)
        assert barriers == 6

        # The slow engine meets every barrier of the stream in order:
        # note which of them issued a refresh.
        controller = slow.channel.controller
        barrier = controller.refresh_barrier
        watching = False
        position = 0
        fired = set()

        def watched(op_duration):
            nonlocal position
            issued = controller.refresh.refreshes_issued
            start = barrier(op_duration)
            if watching:
                if controller.refresh.refreshes_issued > issued:
                    fired.add(position)
                position += 1
            return start

        monkeypatch.setattr(controller, "refresh_barrier", watched)
        for _ in range(self.MAX_RUNS):
            watching, position = True, 0
            a = slow.run_gemv(layouts[0][0])
            b = fast.run_gemv(layouts[1][0])
            watching = False
            assert_same_run(slow, fast, a, b)
            assert position == barriers
            if len(fired) == barriers:
                break
            a = slow.run_gemv(layouts[0][1])
            b = fast.run_gemv(layouts[1][1])
            assert_same_run(slow, fast, a, b)
        assert fired == set(range(barriers))
        assert fast.schedule_cache.hits > 0
        assert fast.schedule_cache.refresh_replays > 0
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_a_double_refresh_replays_from_its_record(self, monkeypatch):
        """A Non-opt tile outlasts the protection window, which is capped
        at tREFI - tRFC, so from the second barrier on a refresh is
        overdue at every barrier and each issues two. The walk replays
        such barriers from their records."""
        slow = make_engine(False, NON_OPT)
        fast = make_engine(True, NON_OPT)
        log = RefreshLog(fast.schedule_cache, monkeypatch)
        layouts = (slow.add_matrix(64, 1024), fast.add_matrix(64, 1024))
        for _ in range(3):
            a = slow.run_gemv(layouts[0])
            b = fast.run_gemv(layouts[1])
            assert_same_run(slow, fast, a, b)
        assert log.served
        assert all(record.refresh.issued == 2 for record, _, _ in log.served)
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_records_key_on_the_window(self, monkeypatch):
        """Two engines sharing a cache run one Non-opt shape, the second
        lowered with a 900-cycle barrier window. Their first firing
        barrier meets one signature and phase, a refresh overdue by
        2,608 cycles: under the generator's window (capped at tREFI -
        tRFC) it issues two refreshes, under 900 cycles one. Neither
        engine may replay the other's record there, and each replays
        its own later on."""
        cache = ScheduleCache()
        log = RefreshLog(cache, monkeypatch)
        pairs = []
        for window in (None, 900):
            slow = make_engine(False, NON_OPT)
            fast = make_engine(True, NON_OPT, schedule_cache=cache)
            layouts = (slow.add_matrix(64, 1024), fast.add_matrix(64, 1024))
            with monkeypatch.context() as patch:
                if window is not None:
                    patch.setattr(
                        CommandStreamGenerator,
                        "tile_duration_estimate",
                        lambda generator: window,
                    )
                for engine, layout in zip((slow, fast), layouts):
                    engine._segments_for(layout)
            pairs.append((slow, fast, layouts))
        windows = [
            fast._segments_for(layouts[1]).barrier_cycles
            for _, fast, layouts in pairs
        ]
        assert windows[0] > TIMING.t_refi - TIMING.t_rfc > windows[1] == 900
        for _ in range(3):
            for index, (slow, fast, layouts) in enumerate(pairs):
                log.engine = index
                a = slow.run_gemv(layouts[0])
                b = fast.run_gemv(layouts[1])
                assert_same_run(slow, fast, a, b)
        first = {}
        for key, _, engine in log.lookups:
            first.setdefault(engine, key)
        assert first[0][:2] == first[1][:2]
        assert first[0][1] == -2608
        issued = {
            key[2]: record.refresh.issued
            for record, (key, _) in log.stored.items()
            if key[:2] == first[0][:2]
        }
        assert issued == {windows[0]: 2, windows[1]: 1}
        assert {(stored, served) for _, stored, served in log.served} == {
            (0, 0),
            (1, 1),
        }
        for slow, fast, _ in pairs:
            assert_metrics_parity(slow, fast, slow.channel.controller.now)

    @pytest.mark.parametrize(
        "past, lookups, refreshes", [(0, 6, 1), (1, 7, 2)], ids=["on", "past"]
    )
    def test_a_stepped_repeat_meets_the_refresh_limit(
        self, monkeypatch, past, lookups, refreshes
    ):
        """One cold run of 40 tiles in one chunk, its first refresh due
        so that ``last_safe_start`` lands on tile 20's barrier (``on``)
        or one cycle before it (``past``). The walk misses the prologue
        and tiles 0 and 1, hits tile 2 at a fixed point and steps over
        the tiles after it: through tile 20 when its barrier cannot fire
        (then tile 21's refresh costs a miss and a hit before the rest
        is stepped), and through tile 19 when it can (tile 20 refreshes,
        and so does a tile near the end). Fast equals per-command either
        way."""
        probe = make_engine(False, FULL, refresh=False)
        layout = probe.add_matrix(16 * 40, 512)
        controller = probe.channel.controller
        barrier, starts = controller.refresh_barrier, []

        def recorded(op_duration):
            starts.append(controller.now)
            return barrier(op_duration)

        monkeypatch.setattr(controller, "refresh_barrier", recorded)
        probe.run_gemv(layout)
        window = probe._segments_for(layout).barrier_cycles
        timing = dataclasses.replace(TIMING, t_refi=starts[20] + window - past)
        slow, fast = (
            NewtonChannelEngine(CFG, timing, FULL, functional=False, fast=tier)
            for tier in (False, True)
        )
        log = WalkLog(fast, monkeypatch)
        a = slow.run_gemv(slow.add_matrix(16 * 40, 512))
        b = fast.run_gemv(fast.add_matrix(16 * 40, 512))
        assert_same_run(slow, fast, a, b)
        assert slow.channel.controller.refresh.log == fast.channel.controller.refresh.log
        assert len(starts) == 40 and log.walked == 41
        assert (len(log.lookups), fast.channel.controller.refresh.refreshes_issued) == (
            lookups,
            refreshes,
        )


class TestTelemetryReadBetweenRuns:
    """Reading telemetry finalizes the controller, which moves the
    attribution cursor past ``now``; the next issue charges its wait
    from the cursor. Replay must key on that offset rather than apply
    deltas recorded with the cursor at ``now``."""

    @staticmethod
    def runs_after_a_read(monkeypatch, shape):
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        log = WalkLog(fast, monkeypatch)
        refreshes = RefreshLog(fast.schedule_cache, monkeypatch)
        layout_slow = slow.add_matrix(*shape)
        layout_fast = fast.add_matrix(*shape)
        refreshes.engine = "before"
        a = slow.run_gemv(layout_slow)
        fast.run_gemv(layout_fast)
        for engine in (slow, fast):
            validate_metrics(engine.collect_metrics(end=a.end_cycle))
        controller = fast.channel.controller
        assert controller._attr_cursor > controller.now
        refreshes.engine = "after"
        for _ in range(7):
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        assert fast.schedule_cache.hits > 0
        assert_metrics_parity(slow, fast, a.end_cycle)
        return log, refreshes

    def test_runs_after_a_read_stay_exact(self, monkeypatch):
        self.runs_after_a_read(monkeypatch, (64, 1024))

    def test_runs_after_a_read_step_over_long_runs(self, monkeypatch):
        """The same on 40-tile runs, which refresh at phases that recur:
        refresh records made before the read replay after it."""
        log, refreshes = self.runs_after_a_read(monkeypatch, LONG)
        assert log.stepped > 0
        assert ("before", "after") in {
            (stored, served) for _, stored, served in refreshes.served
        }

    @staticmethod
    def reads_past_the_end(monkeypatch, shape):
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        log = WalkLog(fast, monkeypatch)
        layout_slow = slow.add_matrix(*shape)
        layout_fast = fast.add_matrix(*shape)
        for _ in range(2):
            for _ in range(4):
                a = slow.run_gemv(layout_slow)
                b = fast.run_gemv(layout_fast)
                assert_same_run(slow, fast, a, b)
            hits = fast.schedule_cache.hits
            for engine in (slow, fast):
                validate_metrics(engine.collect_metrics(end=a.end_cycle + 2000))
            log.lookups.clear()
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        assert fast.schedule_cache.hits > hits
        assert_metrics_parity(slow, fast, a.end_cycle)
        return log

    def test_replayed_segments_keep_the_cursor_ahead(self, monkeypatch):
        """Two reads far past the end, at the same offset from the same
        steady state: the cursor stays ahead of ``now`` across whole
        segments after each read, and the second time those segments
        replay, so their deltas must carry the cursor's end offset."""
        self.reads_past_the_end(monkeypatch, (64, 1024))

    def test_a_fixed_point_after_several_repeats(self, monkeypatch):
        """The same on 40-tile runs: after the second read the run
        replays six tiles, each ending with the cursor nearer ``now`` (a
        new signature each), before it reaches the fixed point the walk
        steps from; the run costs fewer lookups than its tiles."""
        log = self.reads_past_the_end(monkeypatch, LONG)
        assert log.transient() == 6
        assert len(log.lookups) < LONG[0] // 16


Replay = collections.namedtuple(
    "Replay", "key recorded_phase phase stored_by served"
)
"""One run served whole: the record's key, the refresh phase of the run
that stored it and of the run it served, and the engine tags (see
:class:`RecordLog`) of both runs."""


class RecordLog:
    """Which whole-run records a cache stores and which it replays.

    ``replays`` holds one :data:`Replay` per run served whole; set
    ``engine`` before a run to tag it. ``rekeyed`` counts phase-keyed
    records stored beside a no-refresh record of the same stream and
    start signature: runs whose barrier test failed and that walked.
    """

    def __init__(self, cache, monkeypatch):
        self.stored = {}
        self.replays = []
        self.rekeyed = 0
        self.engine = None
        phase = None
        lookup_run, store_run = cache.lookup_run, cache.store_run

        def lookup(stream_id, signature_id, now, limit, run_phase):
            nonlocal phase
            phase = run_phase
            record = lookup_run(stream_id, signature_id, now, limit, run_phase)
            if record is not None:
                key, recorded_phase, stored_by = self.stored[record]
                self.replays.append(
                    Replay(key, recorded_phase, run_phase, stored_by, self.engine)
                )
            return record

        def store(stream_id, signature_id, run_phase, record):
            if run_phase is not None and (
                stream_id, signature_id, None
            ) in cache._runs:
                self.rekeyed += 1
            key = (stream_id, signature_id, run_phase)
            self.stored[record] = (key, phase, self.engine)
            store_run(stream_id, signature_id, run_phase, record)

        monkeypatch.setattr(cache, "lookup_run", lookup)
        monkeypatch.setattr(cache, "store_run", store)

    @property
    def unphased(self):
        """Replays of no-refresh records at a phase other than the one
        they were recorded at."""
        return [
            r for r in self.replays
            if r.key[2] is None and r.recorded_phase != r.phase
        ]

    @property
    def phased(self):
        """Replays of records keyed by a refresh phase."""
        return [r for r in self.replays if r.key[2] is not None]


class TestWholeRunRecords:
    """A run that hits on every segment is recorded whole and replayed
    with one write-back. Fast must equal per-command after every run,
    and every case must really replay records."""

    @staticmethod
    def run_both(slow, fast, runs):
        """``runs`` back-to-back 64x1024 GEMVs on both engines."""
        layout_slow = slow.add_matrix(64, 1024)
        layout_fast = fast.add_matrix(64, 1024)
        for _ in range(runs):
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        return a

    @pytest.mark.parametrize("telemetry", ["1", "0"], ids=["attr", "noattr"])
    def test_back_to_back_runs_cover_every_record_kind(
        self, telemetry, monkeypatch
    ):
        """64x1024 on a refresh-on channel, 30 times: no-refresh records
        replay at phases other than their own, phase-keyed records
        replay, and a no-refresh record whose last barrier would fire
        sends the run down the walk, which records its phase."""
        monkeypatch.setenv("NEWTON_TELEMETRY", telemetry)
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        log = RecordLog(fast.schedule_cache, monkeypatch)
        a = self.run_both(slow, fast, runs=30)
        assert log.unphased
        assert log.phased
        assert log.rekeyed > 0
        assert fast.schedule_cache.whole_runs == len(log.replays)
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_refresh_off(self, monkeypatch):
        slow = make_engine(False, FULL, refresh=False)
        fast = make_engine(True, FULL, refresh=False)
        log = RecordLog(fast.schedule_cache, monkeypatch)
        a = self.run_both(slow, fast, runs=6)
        assert len(log.replays) == 3
        assert all(r.key[2] is None for r in log.replays)
        assert fast.channel.controller.refresh.refreshes_issued == 0
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_fused_and_unfused_runs_alternate(self, monkeypatch):
        """One layout's fused and round-trip streams are two streams:
        each keeps its own records, and alternating them stays exact."""
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        log = RecordLog(fast.schedule_cache, monkeypatch)
        layouts = (slow.add_matrix(64, 1024), fast.add_matrix(64, 1024))
        for _ in range(12):
            for fused in (True, False):
                a = slow.run_gemv(layouts[0], fused_input=fused)
                b = fast.run_gemv(layouts[1], fused_input=fused)
                assert_same_run(slow, fast, a, b)
        assert fast.fused_runs == slow.fused_runs == 12
        streams = {r.key[0] for r in log.replays}
        assert streams == {
            fast._segments_for(layouts[1], fused=fused).key_id
            for fused in (True, False)
        }
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_engines_sharing_a_cache(self, monkeypatch):
        """The explorer's sharing: two engines, one cache, at different
        refresh phases. Records stored by one engine serve the other."""
        cache = ScheduleCache()
        log = RecordLog(cache, monkeypatch)
        pairs = []
        for shift in (0, 1):
            slow = make_engine(False, FULL)
            fast = make_engine(True, FULL, schedule_cache=cache)
            if shift:
                # A one-tile GEMV first moves this pair's refresh phase.
                for engine in (slow, fast):
                    engine.run_gemv(engine.add_matrix(16, 64))
            layouts = (slow.add_matrix(64, 1024), fast.add_matrix(64, 1024))
            pairs.append((slow, fast, layouts))
        phases = {
            fast.channel.controller.refresh.phase(fast.channel.controller.now)
            for _, fast, _ in pairs
        }
        assert len(phases) == 2
        for _ in range(20):
            for index, (slow, fast, (layout_slow, layout_fast)) in enumerate(
                pairs
            ):
                log.engine = index
                a = slow.run_gemv(layout_slow)
                b = fast.run_gemv(layout_fast)
                assert_same_run(slow, fast, a, b)
        assert any(r.stored_by != r.served for r in log.replays)
        for slow, fast, _ in pairs:
            assert_metrics_parity(slow, fast, slow.channel.controller.now)

    def test_a_fork_replays_refresh_records_made_before_it(self, monkeypatch):
        """A fork copies the replay cache: refresh records made by the
        parent's 40-tile runs serve the fork's walks, and parent and fork
        both stay equal to forks of a ``fast=False`` twin."""
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        layouts = (slow.add_matrix(*LONG), fast.add_matrix(*LONG))
        for _ in range(2):
            a = slow.run_gemv(layouts[0])
            b = fast.run_gemv(layouts[1])
            assert_same_run(slow, fast, a, b)
        pairs = [(slow, fast), (slow.fork(1), fast.fork(1))]
        inherited = set(pairs[1][1].schedule_cache._refreshes.values())
        assert inherited
        log = RefreshLog(pairs[1][1].schedule_cache, monkeypatch)
        for _ in range(2):
            for slow_engine, fast_engine in pairs:
                a = slow_engine.run_gemv(layouts[0])
                b = fast_engine.run_gemv(layouts[1])
                assert_same_run(slow_engine, fast_engine, a, b)
        assert any(record in inherited for record, _, _ in log.served)
        for slow_engine, fast_engine in pairs:
            assert_metrics_parity(
                slow_engine, fast_engine, slow_engine.channel.controller.now
            )

    def test_functional_outputs_stay_bit_identical(self):
        rng = np.random.default_rng(3)
        m, n = 64, 1024
        matrix = rng.standard_normal((m, n)).astype(np.float32)
        slow = make_engine(False, FULL, functional=True)
        fast = make_engine(True, FULL, functional=True)
        layout_slow = slow.add_matrix(m, n, matrix)
        layout_fast = fast.add_matrix(m, n, matrix)
        for _ in range(10):
            vector = rng.standard_normal(n).astype(np.float32)
            a = slow.run_gemv(layout_slow, vector)
            b = fast.run_gemv(layout_fast, vector)
            assert_same_run(slow, fast, a, b)
            assert np.array_equal(a.output, b.output)
        assert fast.schedule_cache.whole_runs > 0


class TestCacheBackstop:
    @staticmethod
    def clearing_mid_walk(monkeypatch, shape):
        cache = ScheduleCache(max_entries=4)
        clear = cache._clear
        clears = []
        refreshes = RefreshLog(cache, monkeypatch)
        refreshes.engine = 0  # tags each record with the clears before it

        def counted():
            clears.append(cache.hits + cache.misses)
            clear()
            refreshes.engine = len(clears)

        monkeypatch.setattr(cache, "_clear", counted)
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL, schedule_cache=cache)
        log = WalkLog(fast, monkeypatch)
        layout_slow, layout_fast = slow.add_matrix(*shape), fast.add_matrix(*shape)
        for _ in range(6):
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        assert_metrics_parity(slow, fast, a.end_cycle)
        assert len(clears) >= 3
        assert len(cache) <= 4
        assert cache.run_records <= 4
        assert cache.refresh_records <= 4
        assert fast.channel.controller.refresh.refreshes_issued >= 3
        assert cache.hits > 0
        return log, refreshes

    def test_clearing_mid_walk_stays_exact(self, monkeypatch):
        """A four-entry cache clears deltas and signatures mid-walk again
        and again; ids held across a clear may only miss."""
        self.clearing_mid_walk(monkeypatch, (64, 1024))

    def test_clearing_mid_run_keeps_stepping(self, monkeypatch):
        """The same on 40-tile runs: the clears land inside runs of
        repeated tiles, and between them the walk still steps over
        repeats. A clear also lands between a firing barrier's record
        and the next time the walk meets that barrier (its refresh
        phase and window): the walk runs the barrier again, and the
        record it makes then replays."""
        log, refreshes = self.clearing_mid_walk(monkeypatch, LONG)
        assert log.stepped > 0
        made = collections.defaultdict(set)
        for key, cleared in refreshes.stored.values():
            made[key[1:]].add(cleared)
        assert any(
            min(made[refreshes.stored[record][0][1:]]) < cleared
            for record, cleared, _ in refreshes.served
        )

    def test_record_table_is_bounded_too(self, monkeypatch):
        """Eight layouts sharing one tile shape, refresh off, hold at
        most seven deltas and four signatures but eight records: with
        ``max_entries=7`` only the record table overflows. Each overflow
        clears the whole cache, and replay stays exact."""
        cache = ScheduleCache(max_entries=7)
        clear = cache._clear
        by_records = []

        def counted():
            by_records.append(len(cache._runs) >= cache.max_entries)
            clear()

        monkeypatch.setattr(cache, "_clear", counted)
        slow = make_engine(False, FULL, refresh=False)
        fast = make_engine(True, FULL, refresh=False, schedule_cache=cache)
        layouts = [
            (slow.add_matrix(16 * j, 1024), fast.add_matrix(16 * j, 1024))
            for j in range(1, 9)
        ]
        for _ in range(6):
            for layout_slow, layout_fast in layouts:
                a = slow.run_gemv(layout_slow)
                b = fast.run_gemv(layout_fast)
                assert_same_run(slow, fast, a, b)
                assert cache.run_records <= 7
        assert by_records and all(by_records)
        assert cache.whole_runs > 0


class TestColdBurstAllCombinations:
    """The cold-path burst kernel vs per-command issue, replay disabled.

    With replay lookups stubbed to always miss, a ``fast=True`` engine
    executes every segment through :meth:`ChannelController.issue_burst`
    — so this pins the burst kernel itself (end cycle, stats, telemetry
    attribution, final controller state) across all 32 optimization
    combinations with refresh on and off, independent of the
    steady-state tier that normally hides it after the first tiles.
    """

    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    @pytest.mark.parametrize(
        "bits",
        list(itertools.product((False, True), repeat=5)),
        ids=lambda b: "".join("X" if x else "." for x in b),
    )
    def test_cold_cycle_and_stats_identical(self, bits, refresh):
        opt = OptimizationConfig(**dict(zip(FLAGS, bits)))
        _, fast = run_pair(opt, m=40, n=700, refresh=refresh, cold=True)
        assert fast.schedule_cache.hits == 0
        # Every compute phase and GWRITE prologue went through the kernel.
        assert fast.burst_runs > 0
        assert fast.burst_commands > fast.burst_runs

    def test_cold_functional_outputs_bit_identical(self):
        rng = np.random.default_rng(7)
        m, n = 48, 1100
        matrix = rng.standard_normal((m, n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        slow = make_engine(False, FULL, functional=True)
        fast = make_engine(True, FULL, functional=True)
        disable_replay(fast)
        a = slow.run_gemv(slow.add_matrix(m, n, matrix), vector)
        b = fast.run_gemv(fast.add_matrix(m, n, matrix), vector)
        assert a.end_cycle == b.end_cycle
        assert a.stats == b.stats
        assert np.array_equal(a.output, b.output)
        assert fast.burst_commands > 0

    def test_burst_kernel_only_runs_on_the_fast_miss_path(self):
        """``fast=False`` must stay the pure per-command reference."""
        engine = make_engine(False, FULL)
        engine.run_gemv(engine.add_matrix(40, 700))
        assert engine.burst_runs == 0
        assert engine.burst_commands == 0


class TestTierEngagement:
    """Deterministic counters for the Table II AlexNetL7 layer (2048x2048,
    one channel, refresh on, FULL, timing-only): both paths reach the same
    end cycle, and the fast path's speed comes from the burst kernel on
    the cold run and from replay once warm. A broken tier shows up here
    as a moved counter rather than as a noisy wall-clock ratio."""

    RUNS = 4
    """One cold run plus three steady-state runs."""

    @staticmethod
    def alexnet_l7_engine(fast):
        engine = NewtonChannelEngine(
            hbm2e_like_config(),
            hbm2e_like_timing(),
            FULL,
            functional=False,
            refresh_enabled=True,
            fast=fast,
        )
        return engine, engine.add_matrix(2048, 2048)

    @staticmethod
    def count(monkeypatch, calls, owner, name):
        """Count ``owner.name`` calls into ``calls[name]``."""
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_alexnet_l7_counters(self, monkeypatch):
        slow, slow_layout = self.alexnet_l7_engine(False)
        fast, fast_layout = self.alexnet_l7_engine(True)
        controller = fast.channel.controller
        cache = fast.schedule_cache
        calls = collections.Counter()
        self.count(monkeypatch, calls, fastpath, "apply_delta")
        self.count(monkeypatch, calls, fastpath, "relative_signature")
        self.count(monkeypatch, calls, controller, "refresh_barrier")
        self.count(monkeypatch, calls, cache, "lookup")
        burst, hits, runs, refresh_replays = [], [], [], []
        for _ in range(self.RUNS):
            calls.clear()
            replays = cache.refresh_replays
            before = (
                cache.hits,
                cache.misses,
                controller.refresh.refreshes_issued,
            )
            a = slow.run_gemv(slow_layout)
            b = fast.run_gemv(fast_layout)
            assert (a.start_cycle, a.end_cycle) == (b.start_cycle, b.end_cycle)
            assert a.stats == b.stats
            if not burst:
                assert sum(a.stats["command_counts"].values()) == 19103
            burst.append(fast.burst_commands)
            hits.append(fast.schedule_cache.hits)
            refresh_replays.append(cache.refresh_replays - replays)
            after = (
                cache.hits,
                cache.misses,
                controller.refresh.refreshes_issued,
            )
            runs.append(
                (tuple(y - x for x, y in zip(before, after)), dict(calls))
            )
        assert b.end_cycle == 498730
        assert slow.burst_commands == 0
        assert slow.schedule_cache.hits == 0
        # Cold run: 288 commands through the burst kernel. The second run
        # meets one new refresh phase (32 more); after that the layer is
        # served by replay alone.
        assert burst == [288, 320, 320, 320]
        assert all(later > earlier for earlier, later in zip(hits, hits[1:]))
        # Per run (hits, misses, refreshes): the second run still misses
        # on its one new refresh phase; the steady runs miss nothing.
        assert [counts for counts, _ in runs] == [
            (505, 8, 31),
            (512, 1, 32),
            (513, 0, 32),
            (513, 0, 32),
        ]
        # A firing refresh met at a signature and refresh phase already
        # seen is replayed from its refresh record: the layer's
        # refreshes meet three such pairs, so the cold run executes
        # three barriers and replays 28, and the walks after it replay
        # every refresh. The first steady run walks: it writes the
        # controller back once, at the end, from the one signature it
        # computed at the start, and runs no barrier. It looks up 72 of
        # its 513 segments: after each refresh it walks tiles until one
        # is a fixed point, then steps over the tiles up to the next
        # refresh. It hit on every segment, so it is recorded whole, and
        # the next run starts at the same refresh phase: one signature,
        # no barrier and no lookup, and no write-back either, since the
        # run served whole stays pending until the controller is read.
        assert refresh_replays == [28, 32, 32, 0]
        assert cache.refresh_records == 3
        assert runs[2][1] == {
            "apply_delta": 1,
            "relative_signature": 1,
            "lookup": 72,
        }
        assert runs[3][1] == {"relative_signature": 1}
        assert cache.whole_runs == 1
        assert cache.run_records == 1

    @pytest.mark.parametrize(
        "step, counts",
        [
            ("non-opt", (357, 85, 186_100, 187_229)),
            ("+gang", (163, 16, 18_376, 18_899)),
        ],
    )
    def test_micro_command_tiles_burst_whole(self, monkeypatch, step, counts):
        """Without complex commands a tile's compute phase is one
        BUF_READ/COL_READ/MAC run per bank (Non-opt) or one ganged
        BUF_READ/COL_READ_ALL/MAC_ALL run (+gang), and a cold run solves
        each in closed form: the solver sees the activations, the result
        reads and each run's first period only (7,797 and 907 ``issue``
        calls when every micro-command went through it). Pinned on the
        evaluation device, whose 24 channels form one class: ``issue``
        calls and burst runs in the cold run, then the cold and warm
        cycles."""
        device = NewtonDevice(
            eval_config(), eval_timing(), dict(figure9_ladder())[step],
            functional=False,
        )
        handle = device.load_matrix(m=2048, n=2048)
        assert device.classes == [range(24)]
        calls = collections.Counter()
        self.count(monkeypatch, calls, ChannelController, "issue")
        cold = device.gemv(handle)
        issued = (calls["issue"], device.engines[0].burst_runs)
        warm = device.gemv(handle)
        assert issued + (cold.cycles, warm.cycles) == counts

    def test_lowering_builds_runs_not_tiles(self, monkeypatch):
        """Lowered, the layer is 8 runs of one segment each: the
        prologue, each chunk's first 127 tiles and its last tile (which
        loads the next chunk), and the last chunk's 128 tiles. Lowering
        builds 11 blocks (4 shared templates and one activation block
        per run's period), where a block per tile made 516; a run still
        walks 513 segments."""
        engine, layout = self.alexnet_l7_engine(True)
        built = collections.Counter()
        init = BlockStep.__init__

        def counted(block, *args, **kwargs):
            built["BlockStep"] += 1
            init(block, *args, **kwargs)

        monkeypatch.setattr(BlockStep, "__init__", counted)
        stream = engine._segments_for(layout)
        assert [(run.count, len(run.period)) for run in stream.runs] == [
            (1, 1), (127, 1), (1, 1), (127, 1), (1, 1), (127, 1), (1, 1), (128, 1)
        ]
        assert built == {"BlockStep": 11}
        assert stream.segment_count == 513

    def test_only_missed_tiles_build_activations(self, monkeypatch):
        """A lowered tile carries its DRAM row, not its activation
        commands: lowering builds no row-bearing activation (512 tiles x
        4 ``G_ACT`` when every tile owned its commands), the cold run
        builds those of the 7 tiles it misses (the prologue has none),
        and runs that miss only tiles already built, or nothing, build
        none."""
        engine, layout = self.alexnet_l7_engine(True)
        built = collections.Counter()
        init = Command.__init__

        def counted(command, *args, **kwargs):
            init(command, *args, **kwargs)
            if command.row is not None:
                built[command.kind] += 1

        monkeypatch.setattr(Command, "__init__", counted)
        assert engine._segments_for(layout).segment_count == 513
        per_phase = [dict(built)]
        for _ in range(self.RUNS):
            built.clear()
            engine.run_gemv(layout)
            per_phase.append(dict(built))
        assert per_phase == [{}, {CommandKind.G_ACT: 7 * 4}, {}, {}, {}]

    def test_a_warm_batch_is_one_chain(self, monkeypatch):
        """Warm, every run replays whole, and the runs chain across
        calls: four single runs and ``run_gemvs(layout, 4)`` each make
        one signature (at the first run, after a read wrote the
        controller back) and no write-back. Each run equals the twin's,
        and so do the controllers once read."""
        batched, layout = self.alexnet_l7_engine(True)
        single, single_layout = self.alexnet_l7_engine(True)
        for _ in range(self.RUNS):
            batched.run_gemv(layout)
            single.run_gemv(single_layout)
        calls = collections.Counter()
        self.count(monkeypatch, calls, fastpath, "apply_delta")
        self.count(monkeypatch, calls, fastpath, "relative_signature")

        def tally(engine):
            cache = engine.schedule_cache
            refresh = engine.channel.controller.refresh
            return (cache.hits, cache.misses, refresh.refreshes_issued, cache.whole_runs)

        def measured(engine, runs):
            """``runs()`` on ``engine``: its results, the tally's advance
            and the calls it made. Each tally reads ``engine.channel``,
            whose write-back is not counted."""
            before = tally(engine)
            calls.clear()
            results = runs()
            made = dict(calls)
            advance = tuple(y - x for x, y in zip(before, tally(engine)))
            return results, (advance, made)

        expected, singles = measured(
            single, lambda: [single.run_gemv(single_layout) for _ in range(4)]
        )
        runs, batch = measured(batched, lambda: batched.run_gemvs(layout, 4))
        assert [singles, batch] == [
            ((4 * 513, 0, 4 * 32, 4), {"relative_signature": 1}),
            ((4 * 513, 0, 4 * 32, 4), {"relative_signature": 1}),
        ]
        for a, b in zip(expected, runs):
            assert (a.start_cycle, a.end_cycle, a.stats) == (
                b.start_cycle,
                b.end_cycle,
                b.stats,
            )
        assert controller_fingerprint(
            single.channel.controller
        ) == controller_fingerprint(batched.channel.controller)


@pytest.mark.slow
class TestWholeLayers:
    """The benchmark's ``table2-sweep`` family points through both
    tiers: FULL, refresh on, every Table II layer whole on one channel
    of each command family, a cold run and then a warm one. These
    streams have the longest runs of repeated tiles (AlexNetL6's is
    5,409 segments on ``HBM2E``), and the walk steps over most of their
    repeats between refreshes in closed form. After each run fast equals
    ``fast=False``: start and end cycles, stats and attribution, the
    refresh log and the controller; and each fast run counts every
    segment of its stream once, as a hit or a miss."""

    @pytest.mark.parametrize("layer", TABLE_II_LAYERS, ids=lambda layer: layer.name)
    @pytest.mark.parametrize(
        "family", ("HBM2E", "OUTPUT-STATIONARY", "BANKGROUP-EXT")
    )
    def test_cold_then_warm(self, family, layer):
        preset = family_by_name(family, num_channels=1)
        slow, fast = (
            NewtonDevice(
                preset.config, preset.timing, FULL, functional=False, fast=tier
            )
            for tier in (False, True)
        )
        handles = [device.load_matrix(m=layer.m, n=layer.n) for device in (slow, fast)]
        (reference,), (engine,) = slow.engines, fast.engines
        cache = engine.schedule_cache
        stream = engine._segments_for(handles[1].layouts[0])
        counts = []
        for _ in range(2):
            before = (cache.hits, cache.misses)
            a, b = slow.gemv(handles[0]), fast.gemv(handles[1])
            (x,), (y,) = a.channel_results, b.channel_results
            assert (x.start_cycle, x.end_cycle) == (y.start_cycle, y.end_cycle)
            assert x.stats == y.stats
            controllers = reference.channel.controller, engine.channel.controller
            assert controllers[0].refresh.log == controllers[1].refresh.log
            assert controller_fingerprint(controllers[0]) == controller_fingerprint(
                controllers[1]
            )
            counts.append((cache.hits - before[0], cache.misses - before[1]))
        for hits, misses in counts:
            assert hits + misses == stream.segment_count
        assert counts[1][1] <= counts[0][1]
        assert_metrics_parity(reference, engine, y.end_cycle)


class TestPropertyDifferential:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        bits=st.tuples(*([st.booleans()] * 5)),
        refresh=st.booleans(),
        m=st.integers(min_value=1, max_value=80),
        n=st.integers(min_value=1, max_value=1600),
    )
    def test_timing_and_stats(self, bits, refresh, m, n):
        opt = OptimizationConfig(**dict(zip(FLAGS, bits)))
        run_pair(opt, m=m, n=n, refresh=refresh)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        interleaved=st.booleans(),
        m=st.integers(min_value=1, max_value=48),
        n=st.integers(min_value=1, max_value=1100),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_functional_outputs_bit_identical(self, interleaved, m, n, seed):
        opt = FULL.evolve(interleaved_reuse=interleaved)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((m, n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        slow = make_engine(False, opt, functional=True)
        fast = make_engine(True, opt, functional=True)
        a = slow.run_gemv(slow.add_matrix(m, n, matrix), vector)
        b = fast.run_gemv(fast.add_matrix(m, n, matrix), vector)
        assert a.end_cycle == b.end_cycle
        assert a.stats == b.stats
        assert np.array_equal(a.output, b.output)


class _BoundaryTraffic:
    """Minimal background source: a non-AiM row hit every few barriers."""

    def __init__(self):
        self.completions = 0

    def commands_for_boundary(self, index, now):
        if index % 3 != 0:
            return []
        return [
            cmds.act(0, 500),
            cmds.rd(0, 0, auto_precharge=True),
        ]

    def record_completion(self, command, record):
        self.completions += 1


class TestFastPathGuardrails:
    @pytest.mark.parametrize(
        "family, fused",
        [("newton", False), ("newton", True)]
        + [(family, False) for family in RIVAL_FAMILIES],
    )
    def test_trace_disables_replay_and_stays_exact(self, family, fused):
        """A trace forces the per-command tier, which builds each tile's
        row-bearing commands from its lowered row: the traced commands
        equal ``gemv_steps()`` command for command, rows included (a
        fused run without the GWRITEs). Three chunks, ragged."""
        slow = make_engine(False, FULL, family=family)
        fast = make_engine(True, FULL, family=family)
        trace = CommandTrace()
        fast.channel.controller.trace = trace
        layout = fast.add_matrix(40, 1100)
        a = slow.run_gemv(slow.add_matrix(40, 1100), fused_input=fused)
        b = fast.run_gemv(layout, fused_input=fused)
        assert (a.end_cycle, a.stats) == (b.end_cycle, b.stats)
        assert trace.total_recorded == sum(a.stats["command_counts"].values())
        assert fast.schedule_cache.hits == 0
        generator = CommandStreamGenerator(fast.config, fast.timing, FULL, layout)
        expected = [
            step.command
            for step in generator.gemv_steps()
            if step.command is not None
            and not (fused and step.command.kind is CommandKind.GWRITE)
        ]
        issued = [
            record.command
            for record in trace.records()
            if record.command.kind is not CommandKind.REF
        ]
        assert issued == expected
        assert fast.fused_runs == int(fused)

    def test_background_traffic_disables_replay_and_stays_exact(self):
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        a = slow.run_gemv(slow.add_matrix(64, 1024), background=_BoundaryTraffic())
        traffic = _BoundaryTraffic()
        b = fast.run_gemv(fast.add_matrix(64, 1024), background=traffic)
        assert (a.end_cycle, a.stats) == (b.end_cycle, b.stats)
        assert traffic.completions > 0
        assert fast.schedule_cache.hits == 0

    def test_fast_false_disables_replay(self):
        engine = make_engine(False, FULL)
        engine.run_gemv(engine.add_matrix(64, 1024))
        assert engine.schedule_cache.hits == 0
        assert engine.schedule_cache.misses == 0

    def test_env_override_disables_fastpath(self, monkeypatch):
        monkeypatch.setenv("NEWTON_NO_FASTPATH", "1")
        engine = make_engine(True, FULL)
        assert engine.fast is False
        engine.run_gemv(engine.add_matrix(32, 512))
        assert engine.schedule_cache.hits == 0

    def test_env_zero_keeps_fastpath(self, monkeypatch):
        monkeypatch.setenv("NEWTON_NO_FASTPATH", "0")
        assert make_engine(True, FULL).fast is True

    @pytest.mark.parametrize("value", ["true", "YES", "on", " 1 "])
    def test_env_truthy_spellings_disable_fastpath(self, monkeypatch, value):
        monkeypatch.setenv("NEWTON_NO_FASTPATH", value)
        assert make_engine(True, FULL).fast is False

    @pytest.mark.parametrize("value", ["false", "No", "OFF", ""])
    def test_env_falsy_spellings_keep_fastpath(self, monkeypatch, value):
        """Regression: ``NEWTON_NO_FASTPATH=false`` used to disable the
        fast path (any non-empty string was treated as truthy)."""
        monkeypatch.setenv("NEWTON_NO_FASTPATH", value)
        assert make_engine(True, FULL).fast is True

    def test_env_garbage_warns_and_keeps_default(self, monkeypatch):
        monkeypatch.setenv("NEWTON_NO_FASTPATH", "maybe")
        with pytest.warns(RuntimeWarning, match="NEWTON_NO_FASTPATH"):
            assert make_engine(True, FULL).fast is True

    def test_env_telemetry_off_disables_attribution(self, monkeypatch):
        monkeypatch.setenv("NEWTON_TELEMETRY", "off")
        engine = make_engine(True, FULL)
        assert engine.telemetry is False
        engine.run_gemv(engine.add_matrix(32, 512))
        assert engine.channel.controller.stats.cycle_attribution == {}
