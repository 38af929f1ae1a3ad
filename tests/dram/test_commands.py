"""Command taxonomy: Table I coverage and constructors."""

import pytest

from repro.dram import commands as cmds
from repro.dram.commands import Command, CommandKind, NEWTON_KINDS
from repro.dram.config import DRAMConfig


class TestTableI:
    def test_table1_commands_present(self):
        """Table I adds exactly COMP, READRES, GWRITE, G_ACT."""
        assert set(NEWTON_KINDS) == {
            CommandKind.COMP,
            CommandKind.READRES,
            CommandKind.GWRITE,
            CommandKind.G_ACT,
        }

    def test_comp_carries_subchunk_parameter(self):
        c = cmds.comp(col=5, subchunk=5)
        assert c.kind is CommandKind.COMP
        assert c.subchunk == 5
        assert c.col == 5

    def test_gwrite_carries_subchunk(self):
        c = cmds.gwrite(7)
        assert c.subchunk == 7

    def test_g_act_targets_cluster(self):
        c = cmds.g_act(group=2, row=100)
        assert c.group == 2 and c.row == 100 and c.bank is None

    def test_readres_is_all_banks(self):
        c = cmds.readres()
        assert c.bank is None


class TestConstructors:
    def test_act(self):
        c = cmds.act(3, 17)
        assert (c.kind, c.bank, c.row) == (CommandKind.ACT, 3, 17)

    def test_rd_auto_precharge(self):
        assert cmds.rd(0, 0, auto_precharge=True).auto_precharge
        assert not cmds.rd(0, 0).auto_precharge

    def test_micro_commands_for_ablation(self):
        assert cmds.buf_read(1).kind is CommandKind.BUF_READ
        assert cmds.col_read(2, 3).kind is CommandKind.COL_READ
        assert cmds.mac(4).kind is CommandKind.MAC
        assert cmds.col_read_all(5).kind is CommandKind.COL_READ_ALL
        assert cmds.mac_all().kind is CommandKind.MAC_ALL
        assert cmds.comp_bank(1, 2, 2).kind is CommandKind.COMP_BANK
        assert cmds.readres_bank(6).kind is CommandKind.READRES_BANK

    def test_commands_hashable_and_frozen(self):
        c = cmds.comp(0, 0)
        assert hash(c) == hash(cmds.comp(0, 0))
        with pytest.raises(AttributeError):
            c.col = 3  # type: ignore[misc]

    def test_describe_mentions_operands(self):
        text = cmds.comp(3, 3, auto_precharge=True).describe()
        assert "COMP" in text and "col=3" in text and "AP" in text
        assert "grp=1" in cmds.g_act(1, 9).describe()


class TestKindTable:
    CFG = DRAMConfig(num_channels=1, banks_per_channel=16)

    def test_target_banks(self):
        every = list(range(16))
        assert list(cmds.target_banks(cmds.g_act(2, 0), self.CFG)) == [8, 9, 10, 11]
        for ganged in (
            cmds.comp(0, 0),
            cmds.col_read_all(0),
            cmds.mac_all(),
            cmds.readres(),
        ):
            assert list(cmds.target_banks(ganged, self.CFG)) == every
        for single in (
            cmds.act(5, 0),
            cmds.comp_bank(5, 0, 0),
            cmds.mac(5),
            cmds.readres_bank(5),
        ):
            assert list(cmds.target_banks(single, self.CFG)) == [5]
        for bankless in (cmds.gwrite(0), cmds.buf_read(0), cmds.pre_all(), cmds.ref()):
            assert list(cmds.target_banks(bankless, self.CFG)) == []

    def test_bank_group(self):
        assert cmds.bank_group(cmds.act(5, 0), self.CFG) == 1
        assert cmds.bank_group(cmds.g_act(3, 0), self.CFG) == 3

    def test_ganged_compute_never_crosses_the_channel_io(self):
        """Table I: COMP multiplies in the banks; only transfers to or
        from the host take a data-bus slot."""
        assert CommandKind.COMP not in cmds.DATA_KINDS
        assert CommandKind.COMP in cmds.TREE_FEED_KINDS & cmds.BUFFER_READ_KINDS
        assert {CommandKind.GWRITE, CommandKind.READRES} <= cmds.DATA_KINDS
