"""Tests for the energy model and accounting."""

import numpy as np
import pytest

from repro.energy.accounting import (
    EnergyLedger,
    FleetEnergyReport,
    savings_percent,
)
from repro.energy.model import DEFAULT_CPU, Battery, CpuModel


class TestCpuModel:
    def test_energy_scales_with_flops(self):
        cpu = CpuModel()
        assert cpu.energy_mj(2e9) == pytest.approx(2 * cpu.energy_mj(1e9))

    def test_reconstruction_flops_grow_with_problem(self):
        cpu = DEFAULT_CPU
        small = cpu.reconstruction_flops(10, 100, 5)
        large = cpu.reconstruction_flops(40, 400, 20)
        assert large > small

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuModel(active_power_mw=0.0)
        with pytest.raises(ValueError):
            DEFAULT_CPU.energy_mj(-1.0)
        with pytest.raises(ValueError):
            DEFAULT_CPU.reconstruction_flops(0, 10, 1)


class TestBattery:
    def test_drain_and_level(self):
        battery = Battery(capacity_mj=100.0)
        battery.drain(25.0)
        assert battery.remaining_mj == 75.0
        assert battery.level == pytest.approx(0.75)
        assert not battery.empty

    def test_clamps_at_empty(self):
        battery = Battery(capacity_mj=10.0)
        battery.drain(100.0)
        assert battery.remaining_mj == 0.0
        assert battery.empty

    def test_lifetime(self):
        battery = Battery(capacity_mj=3600.0)  # 1 mWh * 1000...
        assert battery.lifetime_hours(average_draw_mw=1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Battery(capacity_mj=0.0)
        with pytest.raises(ValueError):
            Battery().drain(-1.0)
        with pytest.raises(ValueError):
            Battery().lifetime_hours(0.0)


class TestLedger:
    def test_categories_accumulate(self):
        ledger = EnergyLedger(node_id="n1")
        ledger.post("sensing", 2.0)
        ledger.post("sensing", 3.0)
        ledger.post("radio_tx", 1.0)
        assert ledger.total_mj() == 6.0
        assert ledger.category_mj("sensing") == 5.0
        assert ledger.breakdown() == {"radio_tx": 1.0, "sensing": 5.0}

    def test_battery_drained_via_ledger(self):
        battery = Battery(capacity_mj=10.0)
        ledger = EnergyLedger(node_id="n1", battery=battery)
        ledger.post("cpu", 4.0)
        assert battery.remaining_mj == 6.0

    def test_merge(self):
        a = EnergyLedger(node_id="a")
        b = EnergyLedger(node_id="b")
        a.post("sensing", 1.0)
        b.post("sensing", 2.0)
        b.post("cpu", 3.0)
        a.merge(b)
        assert a.total_mj() == 6.0

    def test_validation(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.post("", 1.0)
        with pytest.raises(ValueError):
            ledger.post("x", -1.0)

    @pytest.mark.parametrize(
        "amount", [float("nan"), float("inf"), float("-inf"), np.nan]
    )
    def test_non_finite_amount_rejected(self, amount):
        battery = Battery(capacity_mj=10.0)
        ledger = EnergyLedger(node_id="n1", battery=battery)
        ledger.post("cpu", 1.0)
        with pytest.raises(ValueError):
            ledger.post("cpu", amount)
        assert ledger.total_mj() == 1.0
        assert battery.remaining_mj == 9.0

    def test_post_and_merge_fire_on_change(self):
        changes = []
        a = EnergyLedger(node_id="a", on_change=lambda: changes.append(1))
        a.post("sensing", 1.0)
        a.merge(EnergyLedger(node_id="b"))
        assert len(changes) == 2


class TestFleetReport:
    def _fleet(self):
        ledgers = []
        for i, amount in enumerate([1.0, 2.0, 3.0]):
            ledger = EnergyLedger(node_id=f"n{i}")
            ledger.post("sensing", amount)
            ledgers.append(ledger)
        return FleetEnergyReport(ledgers)

    def test_aggregates(self):
        report = self._fleet()
        assert report.total_mj() == 6.0
        assert report.mean_mj() == 2.0
        assert report.max_mj() == 3.0
        assert report.breakdown() == {"sensing": 6.0}

    def test_empty_fleet(self):
        report = FleetEnergyReport([])
        assert report.total_mj() == 0.0
        assert report.mean_mj() == 0.0
        assert report.max_mj() == 0.0


class TestSavings:
    def test_percent(self):
        assert savings_percent(100.0, 20.0) == pytest.approx(80.0)
        assert savings_percent(100.0, 100.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            savings_percent(0.0, 1.0)
        with pytest.raises(ValueError):
            savings_percent(1.0, -1.0)
