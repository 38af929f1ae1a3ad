"""Runs served whole chain across calls.

A fast engine keeps the runs it serves whole pending between calls: the
next call starts from the chain's end cycle and end signature, and the
chain is written back when something next reads or issues to the
controller (:attr:`~repro.core.engine.NewtonChannelEngine.channel`,
before a walk, per-command issue or a fork). Every other differential
reads ``engine.channel`` after each call, which writes the chain back,
so none of them runs a chain across two calls.

Here a ``fast=False`` twin makes the same calls, and the two are
compared only at the end of a sequence: each run's cycles, outputs (as
``uint32``) and class results, every class's controller
(``controller_fingerprint``, refresh log included), ``collect_metrics()``
apart from the cache sections, and the power report. Each reader case
reads once, mid-sequence, after steady calls that wrote nothing back
and computed no signature: the read must write the chain back and see
the twin's state, and the calls after it must stay equal to the twin's.
"""

import collections

import numpy as np
import pytest

from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL
from repro.core.schedule_cache import ScheduleCache
from repro.dram import fastpath
from repro.dram.trace import CommandTrace
from repro.telemetry import validate_metrics
from tests.core.test_batch_chain import (
    TIMING,
    assert_same_runs,
    class_fields,
    small_config,
)
from tests.core.test_fastpath_differential import (
    _BoundaryTraffic,
    assert_metrics_parity,
    controller_fingerprint,
    make_engine,
)

STEADY = 4
"""Steady calls before each read."""


def count_calls(monkeypatch):
    """A counter of ``fastpath.apply_delta`` (write-backs) and
    ``fastpath.relative_signature`` calls."""
    calls = collections.Counter()
    for name in ("apply_delta", "relative_signature"):
        original = getattr(fastpath, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fastpath, name, counted)
    return calls


def controllers(device):
    return [
        (members, controller_fingerprint(engine.channel.controller))
        for engine, members in zip(device.engines, device.classes)
    ]


def metrics(device):
    """``collect_metrics()`` without the sections only the fast tier fills."""
    record = device.collect_metrics()
    for channel in record["channels"].values():
        validate_metrics(channel)
        for section in ("schedule_cache", "fast_path", "burst"):
            del channel[section]
    return record


class Twins:
    """A fast functional device and its ``fast=False`` twin, given the
    same calls; every run is kept for the comparison at the end."""

    def __init__(self, monkeypatch):
        self.devices = [
            NewtonDevice(small_config(3), TIMING, FULL, fast=fast)
            for fast in (True, False)
        ]
        self.fast, self.slow = self.devices
        self.rng = np.random.default_rng(0)
        self.calls = count_calls(monkeypatch)
        self.handles = []
        self.runs = ([], [])
        self.engine_runs = ([], [])

    def on_both(self, call):
        """``call(device)`` on both devices; returns both results and the
        write-backs and signatures the fast device's call made."""
        self.calls.clear()
        ours = call(self.fast)
        made = dict(self.calls)
        return ours, call(self.slow), made

    def load(self, m, n):
        matrix = (self.rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
        ours, theirs, made = self.on_both(lambda device: device.load_matrix(matrix))
        self.handles.append((ours, theirs))
        return made

    def batch(self, index, count=None):
        """One ``gemv_batch`` of ``count`` (default: 1 to 8) on the
        ``index``-th matrix; returns what the fast call made."""
        count = count or int(self.rng.integers(1, 9))
        vectors = self.rng.standard_normal((count, self.handles[index][0].n))
        handles = dict(zip(self.devices, self.handles[index]))
        ours, theirs, made = self.on_both(
            lambda device: device.gemv_batch(handles[device], vectors)
        )
        self.runs[0].extend(ours)
        self.runs[1].extend(theirs)
        return made

    def steady(self):
        """``STEADY`` calls on the first matrix that must write nothing
        back and compute no signature: the chain is pending when they
        return."""
        assert [self.batch(0) for _ in range(STEADY)] == [{}] * STEADY

    def assert_equal(self):
        assert_same_runs(*self.runs)
        assert [class_fields(run) for run in self.engine_runs[0]] == [
            class_fields(run) for run in self.engine_runs[1]
        ]
        assert controllers(self.fast) == controllers(self.slow)
        assert metrics(self.fast) == metrics(self.slow)
        assert self.fast.power_report() == self.slow.power_report()


@pytest.mark.parametrize("telemetry", ["1", "0"], ids=["attr", "noattr"])
class TestChainsAcrossCalls:
    def test_one_layout(self, telemetry, monkeypatch):
        """Batches of 1 to 8 on one matrix: once warm, every call goes on
        from the chain the last one left, and the sequence writes back
        only when it is compared."""
        monkeypatch.setenv("NEWTON_TELEMETRY", telemetry)
        twins = Twins(monkeypatch)
        twins.load(64, 512)
        made = [twins.batch(0) for _ in range(30)]
        assert made[-20:] == [{}] * 20
        twins.assert_equal()

    def test_two_layouts_alternate(self, telemetry, monkeypatch):
        """Two matrices in turn: once warm, a call on one goes on from
        the chain a call on the other left pending, so the chain crosses
        streams."""
        monkeypatch.setenv("NEWTON_TELEMETRY", telemetry)
        twins = Twins(monkeypatch)
        twins.load(64, 512)
        twins.load(96, 1024)
        made = [twins.batch(index % 2) for index in range(40)]
        assert made[-20:] == [{}] * 20
        twins.assert_equal()


class TestReaders:
    """One read mid-sequence, after ``STEADY`` calls left a chain
    pending."""

    @staticmethod
    def warm(monkeypatch):
        twins = Twins(monkeypatch)
        twins.load(64, 512)
        for _ in range(12):
            twins.batch(0)
        twins.steady()
        return twins

    @staticmethod
    def finish(twins, index=0):
        for _ in range(6):
            twins.batch(index)
        twins.assert_equal()

    def test_telemetry_read_past_the_end(self, monkeypatch):
        """``collect_metrics(end=...)`` past the last completion moves the
        attribution cursor ahead of ``now``, so the next call computes a
        fresh signature rather than going on from the chain."""
        twins = self.warm(monkeypatch)
        end = twins.runs[1][-1].channel_results[0].end_cycle + 2000
        ours, theirs, made = twins.on_both(
            lambda device: device.engines[0].collect_metrics(end=end)
        )
        assert made == {"apply_delta": 1}
        for record in (ours, theirs):
            validate_metrics(record)
            for section in ("schedule_cache", "fast_path", "burst"):
                del record[section]
        assert ours == theirs
        assert twins.batch(0).get("relative_signature", 0) >= 1
        self.finish(twins)

    def test_device_clock(self, monkeypatch):
        twins = self.warm(monkeypatch)
        ours, theirs, made = twins.on_both(lambda device: device.now)
        assert (ours, made) == (theirs, {"apply_delta": 1})
        self.finish(twins)

    def test_power_report(self, monkeypatch):
        twins = self.warm(monkeypatch)
        ours, theirs, made = twins.on_both(lambda device: device.power_report())
        assert (ours, made) == (theirs, {"apply_delta": 1})
        self.finish(twins)

    def test_a_load_that_splits_the_class(self, monkeypatch):
        """97 rows on three channels need 3, 2 and 2 tiles: the load
        forks the class, written back first, and both classes go on
        equal to the twin's."""
        twins = self.warm(monkeypatch)
        assert twins.load(97, 512) == {"apply_delta": 1}
        assert [device.classes for device in twins.devices] == [
            [range(0, 1), range(1, 3)]
        ] * 2
        for index in (0, 1, 0, 1):
            twins.batch(index)
        self.finish(twins, index=1)

    def test_background_traffic(self, monkeypatch):
        """A call with background traffic issues per command, from the
        written-back controller."""
        twins = self.warm(monkeypatch)
        traffic = {device: _BoundaryTraffic() for device in twins.devices}
        handles = dict(zip(twins.devices, twins.handles[0]))
        ours, theirs, made = twins.on_both(
            lambda device: device.engines[0].run_gemv(
                handles[device].layouts[0], background=traffic[device]
            )
        )
        assert made == {"apply_delta": 1}
        assert traffic[twins.fast].completions == traffic[twins.slow].completions > 0
        twins.engine_runs[0].append(ours)
        twins.engine_runs[1].append(theirs)
        self.finish(twins)

    def test_a_trace_attached_between_calls(self, monkeypatch):
        """Attaching a trace reads the controller through
        ``engine.channel``; the traced call issues per command from the
        written-back state, and the fast tier resumes once the trace is
        gone."""
        twins = self.warm(monkeypatch)
        traces = {device: CommandTrace() for device in twins.devices}

        def attach(device):
            controller = device.engines[0].channel.controller
            controller.trace = traces[device]
            return controller.now

        ours, theirs, made = twins.on_both(attach)
        assert (ours, made) == (theirs, {"apply_delta": 1})
        twins.batch(0)
        issued = [
            [(record.command, record.issue) for record in traces[device].records()]
            for device in twins.devices
        ]
        assert issued[0] == issued[1] != []
        for device in twins.devices:
            device.engines[0].channel.controller.trace = None
        self.finish(twins)


class TestBackstopClear:
    def test_a_clear_retires_the_pending_chain(self, monkeypatch):
        """Two engines share a four-entry cache. Once one is steady, a
        walk of the other clears the cache while the first one's chain
        is pending: the chain's end signature id is retired, so the
        first engine's next call writes back and computes a fresh
        signature, as after a read. Its cache counters then equal a
        twin pair's that reads ``engine.channel`` after every call, and
        its controller equals a ``fast=False`` twin's."""
        calls = count_calls(monkeypatch)
        caches = [ScheduleCache(max_entries=4) for _ in range(2)]
        clears = []
        clear = caches[0]._clear

        def counted():
            clears.append(1)
            clear()

        monkeypatch.setattr(caches[0], "_clear", counted)
        chained, reading = (
            [make_engine(True, FULL, schedule_cache=cache) for _ in range(2)]
            for cache in caches
        )
        slow = [make_engine(False, FULL) for _ in range(2)]
        shapes = ((16, 64), (32, 64))
        layouts = {
            engine: engine.add_matrix(*shape)
            for group in (chained, reading, slow)
            for engine, shape in zip(group, shapes)
        }

        def call(index):
            """A run of engine ``index`` of each group; returns the
            write-backs the chained engine made."""
            calls.clear()
            runs = [chained[index].run_gemv(layouts[chained[index]])]
            made = calls["apply_delta"]
            for engine in (reading[index], slow[index]):
                runs.append(engine.run_gemv(layouts[engine]))
            assert (
                reading[index].channel.controller.now
                == slow[index].channel.controller.now
            )
            assert len({(run.start_cycle, run.end_cycle) for run in runs}) == 1
            assert runs[0].stats == runs[1].stats == runs[2].stats
            return made

        for _ in range(3):
            call(0)
        assert [call(0) for _ in range(3)] == [0, 0, 0]
        before = len(clears)
        call(1)
        assert len(clears) > before
        for _ in range(3):
            call(0)

        def counters(cache):
            return (
                cache.hits, cache.misses, cache.whole_runs,
                cache.replayed_commands, cache.refresh_replays,
            )

        assert chained[0].schedule_cache.whole_runs > 0
        assert counters(caches[0]) == counters(caches[1])
        for index in (0, 1):
            assert controller_fingerprint(
                chained[index].channel.controller
            ) == controller_fingerprint(slow[index].channel.controller)
            assert_metrics_parity(
                slow[index], chained[index], slow[index].channel.controller.now
            )
