"""The extension studies: structure and qualitative claims."""

import pytest

from repro.experiments import (
    area_budget,
    energy_efficiency,
    family_study,
    fused_layer_study,
    mixed_traffic_study,
    organization_study,
    scrub_overhead,
    sensitivity,
    serving_study,
)


class TestAreaBudget:
    @pytest.fixture(scope="class")
    def result(self):
        return area_budget.run()

    def test_five_design_points(self, result):
        assert len(result.rows) == 5

    def test_newton_feasible_prior_work_not(self, result):
        assert result.row("Newton (adder tree, 1 latch)").report.within_budget
        assert not result.row("full core per bank (prior PIM)").report.within_budget

    def test_render(self, result):
        text = result.render()
        assert "25%" in text and "NO" in text


class TestOrganizationStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return organization_study.run()

    def test_covers_table2_plus_synthetics(self, result):
        assert len(result.rows) == 13

    def test_tree_dominates(self, result):
        assert result.tree_always_at_least_as_good()

    def test_grain_sizes(self, result):
        assert result.total_banks == 384
        assert result.total_lanes == 6144


class TestScrubOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return scrub_overhead.run(channels=4)

    def test_small_overhead_claim(self, result):
        assert result.worst_overhead < 0.01

    def test_custom_interval(self):
        frequent = scrub_overhead.run(channels=4, inputs_per_scrub=10)
        assert frequent.worst_overhead > 0.01  # scrubbing 100x more often


class TestMixedTraffic:
    @pytest.fixture(scope="class")
    def result(self):
        return mixed_traffic_study.run()

    def test_monotone_slowdown(self, result):
        assert result.slowdown_monotone()
        assert result.rows[0].slowdown == 1.0

    def test_served_counts(self, result):
        for row in result.rows:
            assert row.non_aim_served == row.per_boundary * (
                result.rows[1].non_aim_served // result.rows[1].per_boundary
            ) * (1 if row.per_boundary else 0) or row.per_boundary == 0


class TestFamilyStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return family_study.run()

    def test_every_family_benefits(self, result):
        assert result.every_family_benefits()

    def test_six_families(self, result):
        assert {r.family for r in result.rows} == {
            "HBM2E",
            "GDDR6",
            "DDR4",
            "LPDDR4",
            "OUTPUT-STATIONARY",
            "BANKGROUP-EXT",
        }

    def test_gddr6_product_family_present(self, result):
        gddr6 = next(r for r in result.rows if r.family == "GDDR6")
        assert gddr6.speedup_vs_ideal > 5.0  # the shipped configuration


class TestEnergyEfficiency:
    @pytest.fixture(scope="class")
    def result(self):
        return energy_efficiency.run(channels=4)

    def test_newton_wins_every_layer(self, result):
        for row in result.rows:
            assert row.efficiency_gain > 1.0

    def test_gmean_in_paper_band(self, result):
        # The paper implies speedup/power ~ 10/2.8 ~ 3.6x.
        assert 2.0 <= result.gmean_gain <= 4.5


class TestServingStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return serving_study.run(channels=4, requests=500)

    def test_gpu_saturates_early(self, result):
        assert result.gpu_saturation_load() < 0.1
        assert any(row.gpu is None for row in result.rows)

    def test_newton_latency_grows_with_load(self, result):
        tails = [row.newton.p99 for row in result.rows]
        assert tails[-1] > tails[0]


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity.run(channels=4)

    def test_command_gap_story(self, result):
        assert result.full_design_insensitive_to_command_gap()

    def test_refresh_cost_near_trfc_over_trefi(self, result):
        assert 0.05 < result.refresh_cost_fraction < 0.15

    def test_render(self, result):
        assert "refresh cost" in result.render()


class TestFusedSteadyStateSaving:
    """The refresh-off steady-state cycles the fused (GWRITE-less)
    lowering saves on BERT-large's block shapes, measured as the
    ``fused-layers`` study does (timing-only, one warm GEMV, then the
    second run's round-trip minus fused cycles). Simulated cycles are
    deterministic, so the savings are pinned exactly: one elided GWRITE
    command per 512-element input chunk."""

    SAVED = {
        (1024, 1024): 246.0,
        (4096, 1024): 246.0,
        (1024, 4096): 984.0,
    }

    @pytest.fixture(scope="class")
    def result(self):
        result = fused_layer_study.FusedLayerResult()
        for name, m, n in fused_layer_study.BLOCK_SHAPES:
            unfused_on, fused_on = fused_layer_study._steady_cycles(True, m, n)
            unfused_off, fused_off = fused_layer_study._steady_cycles(False, m, n)
            result.shape_rows.append(
                fused_layer_study.FusedShapeRow(
                    name, m, n, unfused_on, fused_on, unfused_off, fused_off
                )
            )
        return result

    def test_saved_cycles_per_shape(self, result):
        saved = {(r.m, r.n): r.saved_off for r in result.shape_rows}
        assert saved == self.SAVED
        assert sum(saved.values()) == 1476.0

    def test_fused_wins_without_refresh(self, result):
        assert result.fused_wins_without_refresh()
        assert result.fused_never_slower()
