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

from repro.core.command_gen import CommandStreamGenerator
from repro.core.device import NewtonDevice
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import FULL, OptimizationConfig, figure9_ladder
from repro.core.schedule_cache import ScheduleCache
from repro.dram import commands as cmds
from repro.dram import fastpath
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig, hbm2e_like_config
from repro.dram.controller import ChannelController
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.dram.trace import CommandTrace
from repro.experiments.common import eval_config, eval_timing
from repro.telemetry import validate_metrics

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
        (controller.refresh.refreshes_issued, controller.refresh.next_due),
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
        segments = fast._segments_for(layouts[1][0]).segments
        assert len(segments) == 7
        barriers = sum(1 for segment in segments if segment.barrier_cycles)
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
        assert_metrics_parity(slow, fast, a.end_cycle)


class TestTelemetryReadBetweenRuns:
    """Reading telemetry finalizes the controller, which moves the
    attribution cursor past ``now``; the next issue charges its wait
    from the cursor. Replay must key on that offset rather than apply
    deltas recorded with the cursor at ``now``."""

    def test_runs_after_a_read_stay_exact(self):
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        layout_slow = slow.add_matrix(64, 1024)
        layout_fast = fast.add_matrix(64, 1024)
        a = slow.run_gemv(layout_slow)
        fast.run_gemv(layout_fast)
        for engine in (slow, fast):
            validate_metrics(engine.collect_metrics(end=a.end_cycle))
        controller = fast.channel.controller
        assert controller._attr_cursor > controller.now
        for _ in range(7):
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        assert fast.schedule_cache.hits > 0
        assert_metrics_parity(slow, fast, a.end_cycle)

    def test_replayed_segments_keep_the_cursor_ahead(self):
        """Two reads far past the end, at the same offset from the same
        steady state: the cursor stays ahead of ``now`` across whole
        segments after each read, and the second time those segments
        replay, so their deltas must carry the cursor's end offset."""
        slow = make_engine(False, FULL)
        fast = make_engine(True, FULL)
        layout_slow = slow.add_matrix(64, 1024)
        layout_fast = fast.add_matrix(64, 1024)
        for _ in range(2):
            for _ in range(4):
                a = slow.run_gemv(layout_slow)
                b = fast.run_gemv(layout_fast)
                assert_same_run(slow, fast, a, b)
            hits = fast.schedule_cache.hits
            for engine in (slow, fast):
                validate_metrics(engine.collect_metrics(end=a.end_cycle + 2000))
            a = slow.run_gemv(layout_slow)
            b = fast.run_gemv(layout_fast)
            assert_same_run(slow, fast, a, b)
        assert fast.schedule_cache.hits > hits
        assert_metrics_parity(slow, fast, a.end_cycle)


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
    def test_clearing_mid_walk_stays_exact(self, monkeypatch):
        """A four-entry cache clears deltas and signatures mid-walk again
        and again; ids held across a clear may only miss."""
        cache = ScheduleCache(max_entries=4)
        clear = cache._clear
        clears = []

        def counted():
            clears.append(cache.hits + cache.misses)
            clear()

        monkeypatch.setattr(cache, "_clear", counted)
        slow, fast = run_pair(FULL, m=64, n=1024, runs=6, schedule_cache=cache)
        assert len(clears) >= 3
        assert len(cache) <= 4
        assert cache.run_records <= 4
        assert fast.channel.controller.refresh.refreshes_issued >= 3
        assert cache.hits > 0

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
        burst, hits, runs = [], [], []
        for _ in range(self.RUNS):
            calls.clear()
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
        # The first steady run walks: it writes the controller back once
        # per firing refresh plus once at the end (not once per tile),
        # computing a signature only at run start and after each
        # refresh. It hit on every segment, so it is recorded whole, and
        # the next run starts at the same refresh phase: one signature,
        # one write-back, no barrier.
        (_, _, refreshes), counted = runs[2]
        assert counted == {
            "apply_delta": 1 + refreshes,
            "relative_signature": 1 + refreshes,
            "refresh_barrier": refreshes,
        }
        assert runs[3][1] == {"apply_delta": 1, "relative_signature": 1}
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
        assert len(engine._segments_for(layout).segments) == 513
        per_phase = [dict(built)]
        for _ in range(self.RUNS):
            built.clear()
            engine.run_gemv(layout)
            per_phase.append(dict(built))
        assert per_phase == [{}, {CommandKind.G_ACT: 7 * 4}, {}, {}, {}]

    def test_a_warm_batch_is_one_chain(self, monkeypatch):
        """Warm, every run replays whole, so ``run_gemvs(layout, 4)`` is
        one chain: one signature and one write-back, where four single
        runs on a twin make four of each. Each run equals the twin's."""
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

        counts = []
        before = tally(single)
        expected = [single.run_gemv(single_layout) for _ in range(4)]
        counts.append((tuple(y - x for x, y in zip(before, tally(single))), dict(calls)))
        calls.clear()
        before = tally(batched)
        runs = batched.run_gemvs(layout, 4)
        counts.append((tuple(y - x for x, y in zip(before, tally(batched))), dict(calls)))
        assert counts == [
            ((4 * 513, 0, 4 * 32, 4), {"apply_delta": 4, "relative_signature": 4}),
            ((4 * 513, 0, 4 * 32, 4), {"apply_delta": 1, "relative_signature": 1}),
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
