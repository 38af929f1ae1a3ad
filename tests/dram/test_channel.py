"""The channel composition (controller + power)."""

from repro.dram import commands as cmds
from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams


class TestChannel:
    def test_composition(self, small_config, timing):
        channel = Channel(small_config, timing)
        assert channel.controller.config is small_config
        assert channel.power_model.config is small_config

    def test_power_report_after_activity(self, small_config, timing):
        channel = Channel(small_config, timing, refresh_enabled=False)
        for g in range(small_config.bank_groups):
            channel.controller.issue(cmds.g_act(g, 0))
        channel.controller.issue(cmds.comp(0, 0))
        report = channel.power_report()
        assert report.elapsed_cycles > 0
        assert report.total_energy > 0

    def test_aggressive_tfaw_passthrough(self, small_config, timing):
        fast = Channel(small_config, timing, aggressive_tfaw=True)
        slow = Channel(small_config, timing, aggressive_tfaw=False)
        assert fast.controller.window.t_faw == timing.t_faw_aim
        assert slow.controller.window.t_faw == timing.t_faw
