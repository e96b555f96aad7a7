"""Energy accounting: operation counts, published-table reproduction,
scaling projections, and waveform energy integrals."""

import json
import math

import numpy as np
import pytest

from otsim import Dc, Netlist, transient
from otsim.energy import (
    OTS_FEATURE_SIZE,
    ScalingLaw,
    branch_energy,
    count_conduction_bursts,
    scale_energy,
    sobel_op_count,
    spike_energy,
    table1_report,
    xor_op_count,
)


class TestOpCounts:
    def test_xor_counts(self):
        assert xor_op_count(512, 512) == 524_288
        assert xor_op_count(1, 1) == 2
        assert xor_op_count(32, 32) == 2_048

    def test_sobel_counts(self):
        assert sobel_op_count(512, 512) == 4_718_592
        assert sobel_op_count(1, 1) == 18
        assert sobel_op_count(100, 100) == 180_000

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            xor_op_count(0, 5)
        with pytest.raises(ValueError):
            sobel_op_count(5, -1)


class TestScaling:
    def test_identity(self):
        law = ScalingLaw(exponent=1.6)
        assert scale_energy(law, 6e-6) == pytest.approx(467e-12)

    def test_square_law_halving(self):
        law = ScalingLaw(exponent=2.0)
        assert scale_energy(law, 3e-6) == pytest.approx(467e-12 / 4)

    def test_16nm_projection(self):
        # direct evaluation: 467 pJ / (6 um / 16 nm)^1.6 = 467 pJ / 375^1.6
        law = ScalingLaw()
        expect = 467e-12 / (6e-6 / 16e-9) ** 1.6
        got = scale_energy(law, 16e-9)
        assert got == pytest.approx(expect)
        assert got == pytest.approx(0.0356e-12, rel=0.01)

    def test_monotonicity(self):
        law = ScalingLaw(exponent=1.8)
        d = np.geomspace(1e-9, 1e-5, 12)
        e = [scale_energy(law, x) for x in d]
        assert all(b > a for a, b in zip(e, e[1:]))
        # larger exponent shrinks the projection below the reference size
        low = scale_energy(ScalingLaw(exponent=1.6), 16e-9)
        high = scale_energy(ScalingLaw(exponent=2.1), 16e-9)
        assert high < low

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            ScalingLaw(exponent=1.5)
        with pytest.raises(ValueError):
            ScalingLaw(exponent=2.2)
        with pytest.raises(ValueError):
            scale_energy(ScalingLaw(), -1.0)


class TestTable:
    def test_published_totals_512(self):
        report = table1_report(512, 512)
        totals = {r.label.split(" ")[0]: r.total * 1e6 for r in report.rows}
        assert totals["K20"] == pytest.approx(1368.0, abs=1.0)
        assert totals["V100"] == pytest.approx(354.0, abs=1.0)
        assert totals["H100"] == pytest.approx(94.0, abs=1.0)
        assert totals["Xeon"] == pytest.approx(9772.0, abs=1.0)
        assert totals["OTS-XOR"] == pytest.approx(245.0, abs=1.0)

    def test_row_arithmetic_invariant(self):
        report = table1_report(64, 48, node=16e-9)
        for row in report.rows:
            assert row.total == row.energy_per_op * row.op_count  # exact

    def test_tiny_image(self):
        report = table1_report(1, 1)
        for row in report.rows:
            ops = 18 if row.method == "Sobel3x3" else 2
            assert row.op_count == ops
            assert row.total == row.energy_per_op * ops

    def test_scaled_row_identity_at_reference(self):
        report = table1_report(512, 512, node=OTS_FEATURE_SIZE)
        scaled = [r for r in report.rows if r.source == "Scaled"][0]
        exp = [r for r in report.rows if "exp." in r.label][0]
        assert scaled.energy_per_op == pytest.approx(exp.energy_per_op)

    def test_16nm_report_carries_inconsistency_note(self):
        report = table1_report(512, 512, node=16e-9, exponent=1.6)
        notes = " ".join(report.annotations)
        assert "0.356" in notes and "0.0032" in notes and "3.2 nJ" in notes
        payload = json.loads(report.to_json())
        assert payload["annotations"]

    def test_text_rendering(self):
        text = table1_report(512, 512).to_text()
        assert "4,718,592" in text and "524,288" in text


class TestWaveformEnergy:
    def _resistor_run(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_resistor("R1", "a", "0", 1e3)  # 1 V, 1 mA
        tr = transient(net, 2e-6, 10e-9)
        return net, tr

    def test_constant_power_rectangle(self):
        net, tr = self._resistor_run()
        e = branch_energy(net, tr, "R1", (0.5e-6, 1.5e-6))
        assert e == pytest.approx(1e-9, rel=1e-6)  # 1 mW for 1 us

    def test_zero_current_interval(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(0.0))
        net.add_resistor("R1", "a", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        assert branch_energy(net, tr, "R1", (0.0, 1e-6)) == 0.0

    def test_bounds_validated(self):
        net, tr = self._resistor_run()
        with pytest.raises(ValueError):
            branch_energy(net, tr, "R1", (1e-6, 0.5e-6))
        with pytest.raises(ValueError):
            branch_energy(net, tr, "R1", (0.0, 5e-6))

    def test_comparator_is_refused(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_resistor("R1", "a", "0", 1e3)
        net.add_comparator("CMP1", "a", "0", "out")
        net.add_resistor("RL", "out", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        with pytest.raises(ValueError, match=r"^element 'CMP1' has 3 terminals; branch energy needs two$"):
            branch_energy(net, tr, "CMP1", (0.0, 1e-6))

    def test_spike_energy_of_oscillator_burst(self):
        from otsim.rig import measurement_netlist

        net = measurement_netlist(4.0)
        tr = transient(net, 60e-6, 10e-9)
        on = tr.ots_on["OTS1"]
        starts = np.flatnonzero(np.diff(on.astype(np.int8)) > 0) + 1
        assert len(starts) >= 2
        t0 = tr.times[starts[1]] - 1e-6
        t1 = tr.times[starts[1]] + 2e-6
        assert count_conduction_bursts(tr, "OTS1", (t0, t1)) == 1
        e = spike_energy(net, tr, "OTS1", (t0, t1))
        assert e > 0.0
        # behavioral sanity: a few nJ per spike at these parameters, far
        # from zero and far from the capacitor's full stored energy budget
        assert 1e-12 < e < 1e-7

    def test_count_conduction_bursts_names_an_unknown_switch(self):
        from otsim.rig import measurement_netlist

        tr = transient(measurement_netlist(4.0), 1e-6, 10e-9)
        with pytest.raises(ValueError, match=r"^no switch named 'OTS9' in the trace$"):
            count_conduction_bursts(tr, "OTS9", (0.0, 1e-6))

    def test_spike_energy_rejects_wrong_burst_count(self):
        from otsim.rig import measurement_netlist

        net = measurement_netlist(4.0)
        tr = transient(net, 60e-6, 10e-9)
        with pytest.raises(ValueError, match="spikes"):
            spike_energy(net, tr, "OTS1", (20e-6, 60e-6))  # several bursts
        with pytest.raises(ValueError, match="spikes"):
            spike_energy(net, tr, "OTS1", (0.0, 1e-6))  # none yet

    def test_passive_dissipation_nonnegative(self):
        from otsim.rig import measurement_netlist

        net = measurement_netlist(4.5)
        tr = transient(net, 50e-6, 10e-9)
        assert branch_energy(net, tr, "OTS1", (0.0, 50e-6)) >= 0.0
        assert branch_energy(net, tr, "RS", (0.0, 50e-6)) >= 0.0
