"""Unit tests for the area / access-time models and the Table 2 geometry."""

import pytest

from repro.errors import ModelError
from repro.hwmodel.access_time import access_time_ns, calibration_error
from repro.hwmodel.area import AREA_UNIT, RegisterFileGeometry, area_lambda2
from repro.hwmodel.configurations import (
    PAPER_TABLE2,
    RegisterFileCacheGeometry,
    TABLE2_CONFIGURATIONS,
)
from repro.hwmodel.pareto import DesignPoint, pareto_frontier


class TestAreaModel:
    def test_area_grows_with_ports_and_registers(self):
        small = area_lambda2(64, 2, 2)
        more_ports = area_lambda2(64, 4, 4)
        more_registers = area_lambda2(128, 2, 2)
        assert more_ports > small
        assert more_registers == pytest.approx(2 * small)

    def test_quadratic_port_dependence(self):
        base = RegisterFileGeometry(128, 2, 2)
        doubled = RegisterFileGeometry(128, 6, 2)
        assert doubled.area_lambda2() / base.area_lambda2() == pytest.approx(
            (doubled.cell_side_lambda / base.cell_side_lambda) ** 2
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            RegisterFileGeometry(0, 2, 2)
        with pytest.raises(ModelError):
            RegisterFileGeometry(128, 0, 0)
        with pytest.raises(ModelError):
            RegisterFileGeometry(128, -1, 2)

    @pytest.mark.parametrize("config_name,ports", [
        ("C1", (3, 2)), ("C2", (3, 3)), ("C3", (4, 3)), ("C4", (4, 4)),
    ])
    def test_single_banked_areas_match_paper_within_10_percent(self, config_name, ports):
        reads, writes = ports
        area_units = RegisterFileGeometry(128, reads, writes).area_units()
        paper_area = PAPER_TABLE2[config_name]["one-cycle"][0]
        assert area_units == pytest.approx(paper_area, rel=0.10)

    def test_cache_areas_match_paper_within_15_percent(self):
        for configuration in TABLE2_CONFIGURATIONS:
            paper_area = PAPER_TABLE2[configuration.name]["cache"][0]
            assert configuration.cache_geometry.area_units() == pytest.approx(
                paper_area, rel=0.15
            )


class TestAccessTimeModel:
    def test_calibration_error_is_small(self):
        assert calibration_error() < 0.05

    def test_access_time_grows_with_ports(self):
        assert access_time_ns(128, 4, 4) > access_time_ns(128, 3, 2)

    def test_access_time_grows_with_registers(self):
        assert access_time_ns(128, 3, 2) > access_time_ns(16, 3, 2)

    def test_paper_values_reproduced(self):
        assert access_time_ns(128, 3, 2) == pytest.approx(4.71, rel=0.05)
        assert access_time_ns(128, 4, 4) == pytest.approx(5.48, rel=0.05)
        assert access_time_ns(16, 3, 4) == pytest.approx(2.45, rel=0.08)

    def test_validation(self):
        with pytest.raises(ModelError):
            access_time_ns(0, 2, 2)
        with pytest.raises(ModelError):
            access_time_ns(128, 0, 0)

    def test_result_is_positive_even_when_extrapolating(self):
        assert access_time_ns(1, 1, 1) > 0


class TestCacheGeometry:
    def test_buses_add_ports(self):
        geometry = RegisterFileCacheGeometry(upper_read_ports=3, upper_write_ports=2,
                                             lower_write_ports=2, buses=2)
        assert geometry.upper_bank.write_ports == 4
        assert geometry.lower_bank.read_ports == 2

    def test_cycle_time_set_by_upper_bank(self):
        geometry = RegisterFileCacheGeometry()
        assert geometry.cycle_time_ns() < geometry.lower_access_time_ns()

    def test_lower_read_latency_at_least_one(self):
        geometry = RegisterFileCacheGeometry()
        assert geometry.lower_read_latency_cycles() >= 1

    def test_cache_cycle_time_close_to_paper(self):
        for configuration in TABLE2_CONFIGURATIONS:
            paper_cycle = PAPER_TABLE2[configuration.name]["cache"][1]
            assert configuration.cache_geometry.cycle_time_ns() == pytest.approx(
                paper_cycle, rel=0.08
            )

    def test_area_unit_constant(self):
        assert AREA_UNIT == 10_000.0

    def test_table2_has_four_configurations(self):
        assert [c.name for c in TABLE2_CONFIGURATIONS] == ["C1", "C2", "C3", "C4"]


class TestPareto:
    def test_dominated_points_removed(self):
        points = [
            DesignPoint(cost=10, value=1.0, label="a"),
            DesignPoint(cost=12, value=0.9, label="dominated"),
            DesignPoint(cost=15, value=1.2, label="b"),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["a", "b"]

    def test_equal_cost_keeps_best_value(self):
        points = [DesignPoint(10, 1.0, "low"), DesignPoint(10, 2.0, "high")]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["high"]

    def test_exact_ties_are_all_kept(self):
        # Distinct designs landing on the same (cost, value) spot are
        # equally optimal; none of them may be arbitrarily dropped.
        points = [
            DesignPoint(10, 1.0, "tie-a"),
            DesignPoint(10, 1.0, "tie-b"),
            DesignPoint(12, 1.0, "worse-cost-same-value"),
            DesignPoint(15, 1.2, "b"),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["tie-a", "tie-b", "b"]

    def test_empty_input(self):
        assert pareto_frontier([]) == []
