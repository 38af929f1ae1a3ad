"""The opt-in NEWTON_CHECK_INVARIANTS=1 engine hook."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimizations import FULL
from repro.dram.config import COMMAND_FAMILIES, DRAMConfig
from repro.dram.trace import CommandTrace
from repro.errors import VerificationError
from repro.telemetry.collect import engine_metrics
from repro.verify.hook import ENV_FLAG, maybe_attach_verifier

M, N = 2, 32


def run_workload(engine, runs=2):
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((M, N)).astype(np.float32)
    layout = engine.add_matrix(M, N, matrix)
    return [
        engine.run_gemv(layout, rng.standard_normal(N).astype(np.float32))
        for _ in range(runs)
    ]


class TestHookAttachment:
    def test_off_by_default(self, engine_factory, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        engine = engine_factory()
        assert engine.verifier is None

    def test_zero_means_off(self, engine_factory, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        assert engine_factory().verifier is None

    def test_attaches_when_enabled(self, engine_factory, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        engine = engine_factory()
        assert engine.verifier is not None
        # The verifier occupies the controller's trace slot (that is
        # what forces the traced per-command path).
        assert engine.channel.controller.trace is engine.verifier

    def test_does_not_displace_an_existing_trace(
        self, engine_factory, monkeypatch
    ):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        engine = engine_factory()
        engine.channel.controller.trace = CommandTrace()
        monkeypatch.setenv(ENV_FLAG, "1")
        assert maybe_attach_verifier(engine) is None


class TestHookVerification:
    def test_clean_run_counts_and_telemetry(
        self, engine_factory, monkeypatch
    ):
        monkeypatch.setenv(ENV_FLAG, "1")
        engine = engine_factory(refresh_enabled=False)
        run_workload(engine)
        verifier = engine.verifier
        assert verifier.commands_verified > 0
        assert verifier.invariants_checked > verifier.commands_verified
        assert verifier.invariant_violations == 0
        record = engine_metrics(engine)["verify"]
        assert record == {
            "enabled": True,
            "commands_verified": verifier.commands_verified,
            "invariants_checked": verifier.invariants_checked,
            "invariant_violations": 0,
        }

    def test_telemetry_when_disabled(self, engine_factory, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        engine = engine_factory(refresh_enabled=False)
        run_workload(engine, runs=1)
        record = engine_metrics(engine)["verify"]
        assert record["enabled"] is False
        assert record["commands_verified"] == 0

    def test_corrupted_controller_raises(self, engine_factory, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        engine = engine_factory(refresh_enabled=False)
        controller = engine.channel.controller
        controller.window.set_faw(controller.window.t_faw - 1)
        with pytest.raises(VerificationError, match="invariant violation"):
            run_workload(engine, runs=1)
        assert engine.verifier.invariant_violations > 0


class TestHookAcrossFamilies:
    @pytest.mark.parametrize("family", COMMAND_FAMILIES)
    def test_every_family_runs_clean(self, family, engine_factory, monkeypatch):
        """Each command family's own traversal passes the verifier. Two
        chunks per tile, so a tile-major family accumulates one latch
        across chunks before its single READRES, which the latch rule
        must allow."""
        monkeypatch.setenv(ENV_FLAG, "1")
        config = DRAMConfig(
            num_channels=1,
            banks_per_channel=8,
            rows_per_bank=256,
            command_family=family,
        )
        engine = engine_factory(config, opt=FULL)
        rng = np.random.default_rng(3)
        m, n = 16, 2 * config.elems_per_row
        layout = engine.add_matrix(
            m, n, rng.standard_normal((m, n)).astype(np.float32)
        )
        for _ in range(2):
            engine.run_gemv(layout, rng.standard_normal(n).astype(np.float32))
        assert engine.verifier.commands_verified > 0
        assert engine.verifier.invariant_violations == 0
