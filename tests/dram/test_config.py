"""DRAM geometry validation and derived quantities (Table III)."""

import pytest

from repro.dram.config import (
    COMMAND_FAMILIES,
    FAMILY_RULES,
    DRAMConfig,
    family_rules,
    hbm2e_like_config,
)
from repro.errors import ConfigurationError


class TestDRAMConfig:
    def test_table3_geometry(self):
        cfg = hbm2e_like_config()
        assert cfg.banks_per_channel == 16
        assert cfg.rows_per_bank == 32768
        assert cfg.cols_per_row == 32
        assert cfg.col_io_bits == 256
        assert cfg.mults_per_bank == 16

    def test_derived_chunk_geometry(self):
        cfg = hbm2e_like_config()
        assert cfg.elems_per_col == 16  # 256b / 16b
        assert cfg.elems_per_row == 512  # the DRAM-row-wide chunk
        assert cfg.row_bytes == 1024  # 1 KB rows
        assert cfg.col_io_bytes == 32
        assert cfg.bank_groups == 4

    def test_capacity(self):
        cfg = hbm2e_like_config()
        assert cfg.bank_bytes == 32768 * 1024
        assert cfg.channel_bytes == 16 * 32768 * 1024

    def test_rate_matching_enforced(self):
        with pytest.raises(ConfigurationError, match="rate-matches"):
            DRAMConfig(mults_per_bank=8)

    def test_bank_group_divides_banks(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(banks_per_channel=10)

    def test_col_io_whole_elements(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(col_io_bits=100, elem_bits=16, mults_per_bank=6)

    def test_positive_fields(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(num_channels=0)

    def test_bank_sweep_configs_valid(self):
        for banks in (8, 16, 32):
            cfg = hbm2e_like_config(banks_per_channel=banks)
            assert cfg.bank_groups == banks // 4

    def test_with_overrides(self):
        cfg = hbm2e_like_config().with_overrides(num_channels=24)
        assert cfg.num_channels == 24
        assert cfg.banks_per_channel == 16


class TestFamilyRules:
    def test_one_record_per_family(self):
        assert tuple(FAMILY_RULES) == COMMAND_FAMILIES
        for name, rules in FAMILY_RULES.items():
            assert rules.name == name
            assert DRAMConfig(command_family=name).rules is rules

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown command family"):
            family_rules("systolic")
        with pytest.raises(ConfigurationError, match="unknown command family"):
            DRAMConfig(command_family="systolic")

    def test_faw_scope(self):
        config = hbm2e_like_config()
        newton, stationary, grouped = (
            family_rules(name) for name in COMMAND_FAMILIES
        )
        assert newton.faw_windows(config) == stationary.faw_windows(config) == 1
        assert grouped.faw_windows(config) == config.bank_groups
        assert [newton.faw_window(g) for g in range(4)] == [0, 0, 0, 0]
        assert [grouped.faw_window(g) for g in range(4)] == [0, 1, 2, 3]

    def test_traversal_and_readout(self):
        newton = family_rules("newton")
        stationary = family_rules("output_stationary")
        grouped = family_rules("bankgroup_ext")
        for rules in (newton, grouped):
            assert rules.can_walk(True) and rules.can_walk(False)
            assert not rules.whole_row_readout(True)
            assert rules.whole_row_readout(False)
        assert stationary.can_walk(True) and not stationary.can_walk(False)
        assert stationary.whole_row_readout(True)
        stationary.check_traversal(True)
        with pytest.raises(ConfigurationError, match="requires interleaved_reuse"):
            stationary.check_traversal(False)

    def test_gwrite_elision_and_latch_variants(self):
        assert [family_rules(n).elides_gwrites for n in COMMAND_FAMILIES] == [
            True,
            False,
            False,
        ]
        family_rules("newton").check_latches(4)
        for name in COMMAND_FAMILIES:
            family_rules(name).check_latches(1)
        for name in COMMAND_FAMILIES[1:]:
            with pytest.raises(ConfigurationError, match="single-latch"):
                family_rules(name).check_latches(4)
