"""A channel: the timing controller plus its power model.

This is the DRAM-only composition; the Newton-specific units (functional
storage, global input-vector buffer, per-bank MAC arrays, result
latches) are layered on top by :mod:`repro.core.engine`, keeping the
substrate reusable as a plain DRAM model.
"""

from __future__ import annotations

from repro.dram.config import DRAMConfig
from repro.dram.controller import ChannelController
from repro.dram.power import PowerModel, PowerParams, PowerReport
from repro.dram.timing import TimingParams


class Channel:
    """One (pseudo) channel: controller + power model."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        *,
        aggressive_tfaw: bool = False,
        refresh_enabled: bool = True,
        power_params: PowerParams = PowerParams(),
        telemetry: bool = True,
    ):
        self.config = config
        self.timing = timing
        self.controller = ChannelController(
            config,
            timing,
            aggressive_tfaw=aggressive_tfaw,
            refresh_enabled=refresh_enabled,
            telemetry=telemetry,
        )
        self.power_model = PowerModel(config, timing, power_params)

    def power_report(self) -> PowerReport:
        """Power breakdown for everything issued so far."""
        end = self.controller.finalize()
        return self.power_model.report(self.controller.stats, end)
