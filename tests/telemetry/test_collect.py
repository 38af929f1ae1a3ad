"""Collectors and schema validation for the telemetry exports."""

import pytest

from repro.core.device import NewtonDevice
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import FULL
from repro.dram.config import DRAMConfig
from repro.dram.controller import ATTRIBUTION_CATEGORIES
from repro.dram.timing import TimingParams
from repro.errors import TelemetryError
from repro.telemetry import (
    SCHEMA,
    controller_metrics,
    device_metrics,
    engine_metrics,
    validate_metrics,
)

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=512)
CFG2 = DRAMConfig(num_channels=2, banks_per_channel=16, rows_per_bank=512)


def run_engine(m=32, n=512, **kwargs):
    engine = NewtonChannelEngine(
        CFG, TimingParams(), FULL, functional=False, **kwargs
    )
    result = engine.run_gemv(engine.add_matrix(m, n))
    return engine, result


class TestControllerMetrics:
    def test_attribution_sums_to_end_cycle(self):
        engine, result = run_engine()
        record = controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )
        assert record["schema"] == SCHEMA
        assert record["end_cycle"] == result.end_cycle
        assert (
            sum(record["cycle_attribution"].values()) == result.end_cycle
        )
        validate_metrics(record)

    def test_all_categories_present_even_when_unused(self):
        engine, result = run_engine()
        record = controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )
        assert set(record["cycle_attribution"]) == set(ATTRIBUTION_CATEGORIES)

    def test_total_commands_consistent(self):
        engine, result = run_engine()
        record = controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )
        assert record["total_commands"] == sum(record["commands"].values())
        assert record["total_commands"] == sum(
            result.stats["command_counts"].values()
        )

    def test_utilization_bounded(self):
        engine, result = run_engine()
        record = controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )
        for name, value in record["utilization"].items():
            assert 0.0 <= value <= 1.0, name

    def test_telemetry_off_skips_sum_rule(self):
        engine, result = run_engine(telemetry=False)
        record = controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )
        assert record["telemetry_enabled"] is False
        assert sum(record["cycle_attribution"].values()) == 0
        validate_metrics(record)  # sum rule only binds when enabled


class TestEngineAndDeviceMetrics:
    def test_engine_record_carries_cache_stats(self):
        engine, result = run_engine(fast=True)
        engine.run_gemv(engine.add_matrix(32, 512))
        record = validate_metrics(engine.collect_metrics())
        assert record["fast_path"] is True
        assert record["schedule_cache"]["hits"] >= 1
        assert record["schedule_cache"]["entries"] >= 1

    def test_engine_record_counts_whole_runs(self):
        """Back-to-back runs of one layout, refresh off: the third run
        is the first to hit on every segment, so it is recorded, and
        each later run is served whole from that record."""
        engine = NewtonChannelEngine(
            CFG, TimingParams(), FULL, functional=False, refresh_enabled=False
        )
        layout = engine.add_matrix(32, 512)
        runs = [engine.run_gemv(layout) for _ in range(5)]
        section = engine.collect_metrics(end=runs[-1].end_cycle)[
            "schedule_cache"
        ]
        assert section["whole_runs"] == 2
        assert section["run_records"] == 1
        slow, _ = run_engine(fast=False)
        section = slow.collect_metrics()["schedule_cache"]
        assert (section["whole_runs"], section["run_records"]) == (0, 0)

    def test_engine_record_counts_refresh_replays(self):
        """40 tiles in one chunk, refresh on, three runs: the walks meet
        seven firing barriers at three signature and refresh phase
        pairs, so three are run and recorded and four replay from those
        records. A record without the two counters (an older export)
        still validates."""
        engine = NewtonChannelEngine(CFG, TimingParams(), FULL, functional=False)
        layout = engine.add_matrix(16 * 40, 512)
        runs = [engine.run_gemv(layout) for _ in range(3)]
        record = validate_metrics(engine.collect_metrics(end=runs[-1].end_cycle))
        section = record["schedule_cache"]
        assert engine.channel.controller.refresh.refreshes_issued == 7
        assert (section["refresh_replays"], section["refresh_records"]) == (4, 3)
        for name in ("refresh_replays", "refresh_records"):
            del section[name]
        validate_metrics(record)
        slow, _ = run_engine(fast=False)
        section = slow.collect_metrics()["schedule_cache"]
        assert (section["refresh_replays"], section["refresh_records"]) == (0, 0)

    def test_engine_collect_metrics_matches_engine_metrics(self):
        engine, result = run_engine()
        assert engine.collect_metrics(end=result.end_cycle) == engine_metrics(
            engine, end=result.end_cycle
        )

    def test_device_metrics_has_one_record_per_channel(self):
        import numpy as np

        device = NewtonDevice(CFG2, functional=True)
        matrix = np.ones((48, 1024), dtype=np.float32)
        device.gemv(
            device.load_matrix(matrix), np.ones(1024, dtype=np.float32)
        )
        record = device.collect_metrics()
        assert record["kind"] == "device"
        assert set(record["channels"]) == {"0", "1"}
        for channel_record in record["channels"].values():
            validate_metrics(channel_record)


class TestValidateMetrics:
    def good(self):
        engine, result = run_engine()
        return controller_metrics(
            engine.channel.controller, end=result.end_cycle
        )

    def test_wrong_schema_rejected(self):
        record = self.good()
        record["schema"] = "newton-telemetry/v0"
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_missing_field_rejected(self):
        record = self.good()
        del record["utilization"]
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_unknown_command_name_rejected(self):
        record = self.good()
        record["commands"]["NOT_A_COMMAND"] = 1
        record["total_commands"] += 1
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_negative_count_rejected(self):
        record = self.good()
        name = next(iter(record["commands"]))
        record["total_commands"] -= record["commands"][name] + 1
        record["commands"][name] = -1
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_inconsistent_total_rejected(self):
        record = self.good()
        record["total_commands"] += 1
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_unknown_attribution_category_rejected(self):
        record = self.good()
        record["cycle_attribution"]["speculation"] = 0
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_sum_rule_enforced_when_enabled(self):
        record = self.good()
        record["cycle_attribution"]["bank"] += 1
        with pytest.raises(TelemetryError, match="sum to the end cycle"):
            validate_metrics(record)

    def test_negative_end_cycle_rejected(self):
        record = self.good()
        record["end_cycle"] = -1
        with pytest.raises(TelemetryError):
            validate_metrics(record)

    def test_returns_record_for_chaining(self):
        record = self.good()
        assert validate_metrics(record) is record
