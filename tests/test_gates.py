"""Truth tables and logic-level properties of the gate circuits."""

import math

import pytest

from otsim.gates import (
    DecodeMode,
    GateKind,
    LogicEncoding,
    build_gate,
    evaluate,
    expected_bits,
    gate_arity,
    truth_table,
)

DT = 50e-9


@pytest.fixture(scope="module")
def tables():
    return {kind: truth_table(kind, dt=DT) for kind in GateKind}


class TestTruthTables:
    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_table_matches_boolean_definition(self, tables, kind):
        table = tables[kind]
        assert len(table.rows) == 2 ** gate_arity(kind)
        for row in table.rows:
            assert row.measured == row.expected, (
                f"{kind.value}{row.inputs}: got {row.measured}, want {row.expected} "
                f"(detail {row.detail})"
            )

    def test_tables_hold_at_half_the_step(self):
        # the decoded tables are a property of the circuits, not of the step size
        for kind in GateKind:
            table = truth_table(kind, dt=DT / 2)
            assert table.ok, [(r.inputs, r.measured, r.detail) for r in table.rows if not r.ok]

    def test_dcaap_quoted_rows(self, tables):
        rows = {r.inputs: r.measured for r in tables[GateKind.DCAAP_CASCADE].rows}
        assert rows[(1, 1, 0)] == (0, 0)
        assert rows[(1, 0, 1)] == (1, 0)
        assert rows[(0, 1, 1)] == (1, 0)
        assert rows[(0, 0, 0)] == (0, 0)

    def test_half_adder_is_xor_and_and(self, tables):
        for row in tables[GateKind.HALF_ADDER].rows:
            a, b = row.inputs
            assert row.measured == (a ^ b, a & b)

    def test_full_adder_is_binary_addition(self, tables):
        for row in tables[GateKind.FULL_ADDER].rows:
            a, b, c = row.inputs
            total = a + b + c
            assert row.measured == (total & 1, total >> 1)

    @pytest.mark.parametrize("kind", [GateKind.AND, GateKind.OR, GateKind.NOR,
                                      GateKind.NAND, GateKind.XOR], ids=lambda k: k.value)
    def test_input_symmetry(self, tables, kind):
        rows = {r.inputs: r.measured for r in tables[kind].rows}
        assert rows[(0, 1)] == rows[(1, 0)]

    def test_de_morgan_consistency(self, tables):
        for base, inverted in ((GateKind.AND, GateKind.NAND), (GateKind.OR, GateKind.NOR)):
            rows = {r.inputs: r.measured[0] for r in tables[base].rows}
            rows_inv = {r.inputs: r.measured[0] for r in tables[inverted].rows}
            for bits, y in rows.items():
                assert rows_inv[bits] == 1 - y

    def test_json_payload(self, tables):
        import json

        payload = json.loads(tables[GateKind.XOR].to_json())
        assert payload["kind"] == "xor"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 4
        assert set(payload["rows"][0]) == {"in", "expected", "measured", "spikes"}


class TestDerivedLogic:
    def test_xor_as_not(self):
        # one input pinned high inverts the other
        for x in (0, 1):
            assert evaluate(GateKind.XOR, (x, 1), dt=DT).measured == (1 - x,)
            assert evaluate(GateKind.XOR, (1, x), dt=DT).measured == (1 - x,)

    def test_nand_universality_builds_xor(self):
        def nand(a, b):
            return evaluate(GateKind.NAND, (a, b), dt=DT).measured[0]

        for a in (0, 1):
            for b in (0, 1):
                n_ab = nand(a, b)
                y = nand(nand(a, n_ab), nand(b, n_ab))
                assert y == (a ^ b)


@pytest.mark.parametrize("v_high", [4.5, 5.5])
def test_amplitude_robustness(v_high):
    enc = LogicEncoding(v_high=v_high)
    for kind in GateKind:
        table = truth_table(kind, enc, dt=DT)
        assert table.ok, (
            f"{kind.value} @ v_high={v_high}: "
            f"{[(r.inputs, r.expected, r.measured) for r in table.rows if not r.ok]}"
        )


class TestHarness:
    def test_build_gate_component_counts(self):
        gc = build_gate(GateKind.AND)
        kinds = [type(e.kind).__name__ for e in gc.net.elements]
        assert kinds.count("Ots") == 1
        assert kinds.count("Resistor") == 3
        assert kinds.count("Capacitor") == 1

        gc = build_gate(GateKind.NAND)
        names = [e.name for e in gc.net.elements]
        assert "VDD" in names
        kinds = [type(e.kind).__name__ for e in gc.net.elements]
        assert kinds.count("Diode") == 2

        gc = build_gate(GateKind.FULL_ADDER)
        kinds = [type(e.kind).__name__ for e in gc.net.elements]
        assert kinds.count("Ots") == 5  # 2 xor + 2 and + 1 or

    def test_gate_values_match_captions(self):
        values = {
            GateKind.AND: ({900.0: 2, 5e3: 1}, {100e-12: 1}),
            GateKind.OR: ({900.0: 2, 5e3: 1}, {100e-12: 1}),
            GateKind.NOR: ({900.0: 3, 5e3: 1}, {100e-12: 2}),
            GateKind.NAND: ({900.0: 3, 5e3: 1}, {100e-12: 2}),
            GateKind.XOR: ({1e3: 2, 50e3: 1, 10e3: 1}, {1e-9: 1, 100e-12: 1}),
            GateKind.HALF_ADDER: (
                {3e3: 2, 1e3: 3, 200.0: 1},
                {1e-9: 1, 100e-12: 1, 500e-12: 1},
            ),
        }
        from otsim.netlist import Capacitor, Resistor

        for kind, (res_expect, cap_expect) in values.items():
            net = build_gate(kind).net
            res = {}
            caps = {}
            for el in net.elements:
                if isinstance(el.kind, Resistor):
                    res[el.kind.ohms] = res.get(el.kind.ohms, 0) + 1
                elif isinstance(el.kind, Capacitor):
                    caps[el.kind.farads] = caps.get(el.kind.farads, 0) + 1
            assert res == res_expect, f"{kind.value}: resistors {res}"
            assert caps == cap_expect, f"{kind.value}: capacitors {caps}"

    @pytest.mark.parametrize("field", ["v_high", "bit_width", "settle"])
    def test_encoding_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=f"LogicEncoding: {field} must be finite"):
            LogicEncoding(**{field: math.nan})
        with pytest.raises(ValueError, match=f"LogicEncoding: {field} must be finite"):
            LogicEncoding(**{field: math.inf})

    def test_evaluate_validates_arity(self):
        with pytest.raises(ValueError):
            evaluate(GateKind.AND, (1, 0, 1))
        with pytest.raises(ValueError):
            evaluate(GateKind.FULL_ADDER, (1, 0))

    def test_kind_parsing(self):
        assert GateKind.parse("XOR") is GateKind.XOR
        assert GateKind.parse("half_adder") is GateKind.HALF_ADDER
        assert GateKind.parse("dcaap") is GateKind.DCAAP_CASCADE
        with pytest.raises(ValueError):
            GateKind.parse("xnor")

    def test_decode_modes_assigned_per_template(self):
        xor = build_gate(GateKind.XOR)
        assert xor.outputs[0].mode is DecodeMode.SPIKE_COUNT
        ha = build_gate(GateKind.HALF_ADDER)
        modes = {o.name: o.mode for o in ha.outputs}
        assert modes["sum"] is DecodeMode.SPIKE_COUNT
        assert modes["carry"] is DecodeMode.MEAN_LEVEL

    def test_expected_bits_reference(self):
        assert expected_bits(GateKind.FULL_ADDER, (1, 1, 1)) == (1, 1)
        assert expected_bits(GateKind.DCAAP_CASCADE, (1, 0, 1)) == (1, 0)

    def test_parallel_rows_bit_identical(self):
        serial = truth_table(GateKind.XOR, dt=DT, n_jobs=1)
        threaded = truth_table(GateKind.XOR, dt=DT, n_jobs=3)
        assert serial.to_json() == threaded.to_json()
