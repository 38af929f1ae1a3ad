"""Unit tests for stream segmentation and the schedule/stream caches."""

import dataclasses

import pytest

from repro.core import engine as engine_module
from repro.core.command_gen import CommandStreamGenerator, Step, StreamRun
from repro.core.device import NewtonDevice
from repro.core.engine import NewtonChannelEngine
from repro.core.layout import make_layout
from repro.core.optimizations import FULL, NON_OPT, figure9_ladder
from repro.core.schedule_cache import RunRecord, ScheduleCache, segment_stream
from repro.dram.commands import ACTIVATION_KINDS, TREE_FEED_KINDS, CommandKind
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError
from repro.experiments.common import eval_config, eval_timing

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=512)
TIMING = TimingParams()


def make_stream(opt, m, n, config=CFG):
    layout = make_layout(
        config,
        m,
        n,
        interleaved=opt.interleaved_reuse,
        latches_per_bank=opt.result_latches,
    )
    generator = CommandStreamGenerator(config, TIMING, opt, layout)
    return generator, layout


def row_blind(command):
    """A command's schedule-relevant operands (everything but the row)."""
    return (
        command.kind,
        command.bank,
        command.group,
        command.col,
        command.subchunk,
        command.auto_precharge,
    )


def payload_records(step):
    """What the per-command reference reads off a step, as plain
    comparable values: buffer repurposing, each activation's row, the
    latch each tree-feeding command accumulates into, and result reads.

    Compared field by field: ``EmitOp`` equality would compare numpy
    arrays.
    """
    records = []
    if step.new_chunk is not None:
        records.append(("new_chunk", step.new_chunk))
    command = step.command
    if command is not None and command.kind in ACTIVATION_KINDS:
        records.append(("activate", command.row))
    if command is not None and command.kind in TREE_FEED_KINDS:
        records.append(("compute", step.latch))
    if step.emit is not None:
        emit = step.emit
        records.append(("emit", emit.latch, emit.chunk, emit.matrix_rows.tolist()))
    return records


LADDER = [
    (step.lstrip("+").split(" ")[0].lower(), opt) for step, opt in figure9_ladder()
] + [("four-latch", FULL.evolve(interleaved_reuse=False, result_latches=4))]
"""The six Figure 9 steps plus the Section III-C four-latch variant."""

LOWERINGS = [
    pytest.param(
        opt,
        family,
        fused,
        shape,
        id=f"{step}-{family}-{'fused' if fused else 'unfused'}{suffix}",
    )
    # A ragged shape (m % 16 != 0, a partial last chunk), and one whose
    # runs repeat: ten tiles or slots, so even the four-latch traversal
    # repeats a pass (of 4 slots, then a last pass of 2).
    for shape, suffix in (((40, 700), ""), ((16 * 9 + 7, 1100), "-long"))
    for step, opt in LADDER
    for family in ("newton", "output_stationary", "bankgroup_ext")
    # The output-stationary walk is tile-major over the interleaved layout.
    if opt.interleaved_reuse or family != "output_stationary"
    for fused in (False, True)
]

PLANS = [
    pytest.param(opt, family, id=f"{step}-{family}")
    for step, opt in LADDER
    for family in ("newton", "output_stationary", "bankgroup_ext")
    if opt.interleaved_reuse or family != "output_stationary"
]


class TestPayloadPlan:
    @pytest.mark.parametrize("opt, family", PLANS)
    def test_payloads_follow_the_datapath_plan(self, opt, family):
        """The datapath computes a GEMV from the layout and
        ``whole_row_readout`` alone; the payloads the per-command
        reference executes must agree. Every tile's compute reads the
        buffered chunk from the row its activations opened, each tile or
        slot computes every chunk once, and each read drains one chunk of
        its tile (per-chunk readout) or all of them in chunk order
        (whole-row readout)."""
        config = dataclasses.replace(CFG, command_family=family)
        generator, layout = make_stream(opt, m=40, n=700, config=config)
        chunks = range(layout.num_chunks)
        if opt.interleaved_reuse:
            groups = range(layout.tiles)
            owner = {layout.dram_row(c, g): (g, c) for g in groups for c in chunks}
        else:
            groups = range(layout.slots)
            owner = {layout.dram_row(g, c): (g, c) for g in groups for c in chunks}
        buffered, row, held, reads = None, None, {}, []
        for step in generator.gemv_steps():
            for record in payload_records(step):
                if record[0] == "new_chunk":
                    buffered = record[1]
                elif record[0] == "activate":
                    row = record[1]
                elif record[0] == "compute" and row is not None:
                    # The tile's first tree-feeding command: one per tile.
                    latch = record[1]
                    assert buffered == owner[row][1]
                    held.setdefault(latch, []).append(owner[row])
                    row = None
                elif record[0] == "emit":
                    _, latch, chunk, rows = record
                    group = rows[0] // config.banks_per_channel
                    reads.append((group, chunk, held.pop(latch)))
        assert not held
        if config.rules.whole_row_readout(opt.interleaved_reuse):
            expected = [(g, None, [(g, c) for c in chunks]) for g in groups]
        else:
            expected = [(g, c, [(g, c)]) for g in groups for c in chunks]
        # Per row, reads arrive in chunk order; rows may interleave.
        assert sorted(reads, key=lambda read: read[0]) == expected


class TestSegmentation:
    @pytest.mark.parametrize("opt, family, fused, shape", LOWERINGS)
    def test_segments_preserve_the_step_stream(self, opt, family, fused, shape):
        """The segments, every repeat of every run at its own row, expand
        to exactly the commands of ``gemv_steps()``, and keys neither
        falsely share nor split."""
        config = dataclasses.replace(CFG, command_family=family)
        generator, layout = make_stream(opt, *shape, config=config)
        steps = list(generator.gemv_steps())
        cache = ScheduleCache()
        stream = segment_stream(
            CommandStreamGenerator(config, TIMING, opt, layout), cache, fused=fused
        )

        # The per-command stream split at its barriers, as segmented.
        groups, barriers = [[]], [0]
        for step in steps:
            if step.barrier_cycles:
                groups.append([])
                barriers.append(step.barrier_cycles)
            else:
                groups[-1].append(step)
        segments = list(stream.segments())
        assert len(segments) == stream.segment_count
        assert [seg.barrier_cycles for seg in segments] == barriers
        elided = 0
        for segment, group in zip(segments, groups):
            commands = [s.command for s in group if s.command is not None]
            if fused:
                gwrites = [c for c in commands if c.kind is CommandKind.GWRITE]
                elided += len(gwrites)
                commands = [c for c in commands if c.kind is not CommandKind.GWRITE]
            assert list(segment.commands) == commands
            assert segment.n_commands == len(commands)
        assert stream.skipped_gwrites == elided
        issued = sum(s.command is not None for s in steps) - elided
        assert stream.total_commands == issued
        if shape != (40, 700):
            assert max(run.count for run in stream.runs) > 1

        # Replay keys: one key id per distinct row-blind command sequence.
        sequences = {}
        for segment in segments:
            sequences.setdefault(segment.key_id, set()).add(
                tuple(row_blind(c) for c in segment.commands)
            )
        assert all(len(seqs) == 1 for seqs in sequences.values())  # no false sharing
        assert len(sequences) == len(set().union(*sequences.values()))  # no lost hits

    def test_identical_tiles_share_one_key(self):
        """Same command shape (row aside) must intern to the same key."""
        generator, _ = make_stream(FULL, m=512, n=2048)
        stream = segment_stream(generator, ScheduleCache())
        keys = {
            seg.key_id for seg in stream.segments() if seg.commands
        }
        # A steady GEMV has few distinct tile shapes, many tiles.
        payload_segments = sum(1 for s in stream.segments() if s.commands)
        assert payload_segments > 10
        assert len(keys) < payload_segments / 2

    def test_mixed_barrier_windows_are_refused(self):
        """The replay walk tests every barrier against one window's
        refresh deadline, so a stream must not mix windows."""

        class TwoWindows:
            def gemv_runs(self, *, payloads=True):
                yield StreamRun((Step(barrier_cycles=100), Step(barrier_cycles=200)))

        with pytest.raises(ProtocolError):
            segment_stream(TwoWindows(), ScheduleCache())

    def test_key_ignores_dram_row(self):
        cache = ScheduleCache()
        generator, _ = make_stream(FULL, m=512, n=2048)
        segments = [
            s for s in segment_stream(generator, cache).segments() if s.commands
        ]
        a, b = segments[1], segments[2]
        rows_a = {c.row for c in a.commands if c.row is not None}
        rows_b = {c.row for c in b.commands if c.row is not None}
        assert rows_a != rows_b  # different tiles touch different rows...
        assert a.key_id == b.key_id  # ...but replay under the same key


class TestTileTemplates:
    """Deterministic counts for lowering the Table II AlexNetL7 layer
    (2048x2048, channel 0 of the evaluation config) as Non-opt-Newton,
    timing-only: every tile reuses one compute phase of 16 per-bank
    BUF_READ/COL_READ/MAC runs, so the materialized stream holds each
    tile's own activations plus one body per tile shape — not one object
    per command — and the lowered stream holds no activation with a row.
    A regression to per-tile lowering moves a count rather than a
    wall-clock ratio."""

    def test_non_opt_alexnet_l7_shares_tile_bodies(self):
        device = NewtonDevice(
            eval_config(), eval_timing(), NON_OPT, functional=False
        )
        handle = device.load_matrix(m=2048, n=2048)
        # Every channel holds 86 or 85 rows (six tiles): one class.
        assert device.classes == [range(24)]
        layout = handle.layouts[0]
        stream = device.engines[0]._segments_for(layout)
        segments = list(stream.segments())
        # Lowered, a tile keeps its row alone: no command names one.
        assert not any(
            getattr(item, "row", None) is not None
            for segment in segments
            for item in segment.templates
        )
        tiles = [s for s in segments if s.barrier_cycles]
        banks = device.config.banks_per_channel
        # One BUF_READ + COL_READ + MAC run per bank, one triplet per column.
        body = 3 * banks * device.config.cols_per_row
        compute = tiles[0].items[banks : 2 * banks]
        assert [run.bank for run in compute] == list(range(banks))
        assert all(
            run.kinds == (CommandKind.BUF_READ, CommandKind.COL_READ, CommandKind.MAC)
            for run in compute
        )
        assert sum(len(run) for run in compute) == body == 1536
        for tile in tiles:
            assert all(c.kind is CommandKind.ACT for c in tile.items[:banks])
            ours = tile.items[banks : 2 * banks]
            assert all(a is b for a, b in zip(ours, compute))
        distinct = {id(c) for s in segments for c in s.commands}
        assert len(tiles) == 24
        assert stream.total_commands == 38_112
        # Each tile's 16 ACTs, the compute runs' 1,536 commands, one
        # per-bank result read (16 READRES_BANK) and one GWRITE run (32)
        # shared by every chunk.
        assert len(distinct) == len(tiles) * banks + body + banks + 32 == 1968


class TestScheduleCacheCounters:
    def test_hits_and_misses_accumulate(self):
        engine = NewtonChannelEngine(
            CFG, TIMING, FULL, functional=False, refresh_enabled=False
        )
        layout = engine.add_matrix(512, 2048)
        engine.run_gemv(layout)
        cache = engine.schedule_cache
        assert cache.misses >= 1
        assert cache.hits > cache.misses  # steady state dominates
        hits_first = cache.hits
        engine.run_gemv(layout)
        assert cache.hits > hits_first
        assert cache.replayed_commands > 0


class TestSignatureIds:
    def test_equal_signatures_share_an_id(self):
        cache = ScheduleCache()
        first = cache.intern_signature(((0, 1), 2))
        assert cache.intern_signature(((0, 1), 2)) == first
        assert cache.intern_signature(((0, 1), 3)) != first

    def test_ids_are_never_reused_after_a_clear(self):
        """The backstop clears the signature table, not the id counter:
        a signature interned after a clear gets a fresh id, so a walk
        holding an old id can only miss."""
        cache = ScheduleCache(max_entries=2)
        before = {cache.intern_signature(("a",)), cache.intern_signature(("b",))}
        after = cache.intern_signature(("c",))  # table full: clears first
        again = cache.intern_signature(("a",))
        assert len(before | {after, again}) == 4

    def test_delta_backstop_clears_signatures_too(self):
        cache = ScheduleCache(max_entries=1)
        old = cache.intern_signature(("a",))
        recorded = object()
        cache.store(0, old, recorded)
        assert cache.lookup(0, old) is recorded
        cache.store(1, old, object())  # delta table full: clears both
        assert len(cache) == 1
        assert cache.lookup(0, old) is None
        assert cache.intern_signature(("a",)) != old


class TestRunRecords:
    def test_stream_key_is_content_derived(self):
        """Equal streams share a key whichever generator lowered them;
        the fused lowering and another shape do not."""
        cache = ScheduleCache()

        def lower(m, **kwargs):
            return segment_stream(make_stream(FULL, m, 700)[0], cache, **kwargs)

        first = lower(40)
        assert lower(40).key_id == first.key_id
        others = {lower(40, fused=True).key_id, lower(80).key_id}
        assert len(others | {first.key_id}) == 3

    def test_lookup_run_tests_the_barrier_or_matches_the_phase(self):
        """A no-refresh record replays while its last barrier (offset
        100) cannot fire; past that, only a record of the run's exact
        phase does. Lookups count neither hits nor misses."""
        cache = ScheduleCache()

        def record(last_barrier):
            return RunRecord(
                delta=None, refresh=None, last_barrier=last_barrier, stats={}
            )

        quiet, phased = record(100), record(None)
        cache.store_run(0, 7, None, quiet)
        cache.store_run(0, 7, 50, phased)
        assert cache.lookup_run(0, 7, 1000, 1100, 3) is quiet
        assert cache.lookup_run(0, 7, 1001, 1100, 3) is None
        assert cache.lookup_run(0, 7, 1001, 1100, 50) is phased
        assert cache.lookup_run(0, 8, 0, 1100, 50) is None
        assert cache.lookup_run(1, 7, 0, 1100, None) is None
        assert (cache.hits, cache.misses, cache.run_records) == (0, 0, 2)


class TestStreamCache:
    def test_lowering_happens_once_per_layout(self):
        engine = NewtonChannelEngine(
            CFG, TIMING, FULL, functional=False, refresh_enabled=False
        )
        layout = engine.add_matrix(40, 700)
        first = engine._segments_for(layout)
        assert engine._segments_for(layout) is first

    def test_every_resident_layout_lowers_once(self, monkeypatch):
        """More resident layouts than any small cache would hold: each
        layout (and its fused lowering) is lowered exactly once however
        many times the engine re-runs them."""
        lowered = []

        def counting(generator, cache, **kwargs):
            lowered.append((generator.layout, kwargs["fused"]))
            return segment_stream(generator, cache, **kwargs)

        monkeypatch.setattr(engine_module, "segment_stream", counting)
        engine = NewtonChannelEngine(
            CFG, TIMING, FULL, functional=False, refresh_enabled=False
        )
        layouts = [engine.add_matrix(16, 128) for _ in range(20)]
        for _ in range(3):
            for layout in layouts:
                engine.run_gemv(layout)
                engine.run_gemv(layout, fused_input=True)
        assert len(lowered) == 2 * len(layouts)
        assert {(id(layout), fused) for layout, fused in lowered} == {
            (id(layout), fused) for layout in layouts for fused in (False, True)
        }
