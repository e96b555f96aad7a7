"""Netlist text format, SI-suffix parsing, and the run configuration."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim.config import ConfigError, RunConfig, parse_config
from otsim.device import OtsParams
from otsim.netlist import Capacitor, Diode, Netlist, NetlistError, Ots, Resistor, VoltageSource
from otsim.netlist_io import NetlistParseError, format_si, netlist_to_text, parse_netlist, parse_si
from otsim.waveforms import Dc, PiecewiseLinear, Pulse, Triangle


class TestSiSuffixes:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("9.1k", 9.1e3),
            ("100n", 1e-7),
            ("5u", 5e-6),
            ("0.9m", 0.9e-3),
            ("2M", 2e6),
            ("3G", 3e9),
            ("470p", 470e-12),
            ("15f", 15e-15),
            ("-4.5", -4.5),
            ("1e-9", 1e-9),
            ("2.5e3", 2.5e3),
        ],
    )
    def test_parse(self, text, value):
        assert parse_si(text) == pytest.approx(value)

    def test_case_distinguishes_milli_mega(self):
        assert parse_si("1m") == 1e-3
        assert parse_si("1M") == 1e6

    def test_rejects_garbage(self):
        for bad in ("", "k", "1.2.3", "5x", "1 k"):
            with pytest.raises(ValueError):
                parse_si(bad)

    def test_format_roundtrip(self):
        for v in (9.1e3, 1e-7, 5e-6, 0.0, 467e-12, 2.5, -3.3):
            assert parse_si(format_si(v)) == pytest.approx(v, abs=1e-18)


SAMPLE = """
# measurement rig
V VIN in 0 dc 4.0
R RD in top 9.1k
C CP top 0 1n
OTS OTS1 top mid vth=3 ihold=0.9m
R RS mid 0 100
"""


class TestParser:
    def test_parses_sample(self):
        net = parse_netlist(SAMPLE)
        assert [e.name for e in net.elements] == ["VIN", "RD", "CP", "OTS1", "RS"]
        rd = net.element("RD").kind
        assert isinstance(rd, Resistor) and rd.ohms == pytest.approx(9100.0)
        ots = net.element("OTS1").kind
        assert isinstance(ots, Ots)
        assert ots.params.v_th == 3.0 and ots.params.i_hold == pytest.approx(0.9e-3)
        # unoverridden fields keep the calibrated defaults
        assert ots.params.r_on == 100.0

    def test_source_modes(self):
        text = """
V A a 0 dc 2
R RA a 0 1k
V B b 0 pwl 0 0 1u 5
R RB b 0 1k
V C c 0 pulse 0 5 0 5u 10u 3
R RC c 0 1k
V D d 0 tri 6 50u 50u
R RD d 0 1k
"""
        net = parse_netlist(text)
        specs = [e.kind.spec for e in net.elements if isinstance(e.kind, VoltageSource)]
        assert isinstance(specs[0], Dc) and specs[0].value == 2.0
        assert isinstance(specs[1], PiecewiseLinear)
        assert isinstance(specs[2], Pulse) and specs[2].repeat == 3
        assert isinstance(specs[3], Triangle) and specs[3].v_peak == 6.0

    def test_capacitor_ic_and_diode_options(self):
        net = parse_netlist(
            "V V1 a 0 dc 1\nC C1 a 0 1n ic=2.5\nD D1 a 0 vf=0.6 vz=12 rs=2\n"
        )
        c = net.element("C1").kind
        assert isinstance(c, Capacitor) and c.ic == 2.5
        d = net.element("D1").kind
        assert isinstance(d, Diode) and (d.v_f, d.v_z, d.r_series) == (0.6, 12.0, 2.0)

    def test_error_carries_line_number(self):
        bad = "V VIN in 0 dc 4.0\nR RD in top banana\n"
        with pytest.raises(NetlistParseError) as err:
            parse_netlist(bad)
        assert err.value.line_no == 2
        assert "line 2" in str(err.value)

    def test_unknown_kind_and_options(self):
        with pytest.raises(NetlistParseError, match="line 1"):
            parse_netlist("L L1 a 0 1m\n")
        with pytest.raises(NetlistParseError, match="unknown option"):
            parse_netlist("V V1 a 0 dc 1\nOTS O1 a 0 bogus=3\n")

    def test_floating_detected_after_parse(self):
        from otsim.netlist import NetlistError

        with pytest.raises(NetlistError, match="floating"):
            parse_netlist("V V1 a 0 dc 1\nR R1 a 0 1k\nR R2 x y 1k\n")

    def test_roundtrip_through_text(self):
        net = parse_netlist(SAMPLE)
        text = netlist_to_text(net, header="round trip")
        again = parse_netlist(text)
        assert netlist_to_text(again) == netlist_to_text(net)

    def test_shipped_circuit_files_match_builders(self):
        from otsim.circuits import gate_netlist_text, shipped_path
        from otsim.gates import GateKind

        for kind in GateKind:
            with open(shipped_path(kind), "r", encoding="utf-8") as fh:
                assert fh.read() == gate_netlist_text(kind)


# Magnitudes over the whole suffix range, mantissas included that round up to
# the next suffix at 6 significant digits (9.9999996 -> 10).
_MAG = st.builds(lambda m, e: m * 10.0 ** e,
                 st.floats(1.0, 10.0, exclude_max=True), st.integers(-15, 10))
_SIGNED = st.one_of(st.just(0.0), _MAG, _MAG.map(lambda v: -v))
_FRAC = st.floats(1e-3, 0.999)  # keeps strict inequalities at 6-digit resolution
_NODES = ("a", "b", "c", "n1", "out")


@st.composite
def _pwl(draw):
    t = draw(st.one_of(st.just(0.0), _MAG))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        points.append((t, draw(_SIGNED)))
        t += max(t * 1e-3, draw(_MAG))
    return PiecewiseLinear(tuple(points))


@st.composite
def _pulse(draw):
    period = draw(_MAG)
    return Pulse(draw(_SIGNED), draw(_SIGNED), draw(st.one_of(st.just(0.0), _MAG)),
                 period * draw(_FRAC), period, draw(st.one_of(st.none(), st.integers(1, 1000))))


@st.composite
def _ots_params(draw):
    v_th, r_on = draw(_MAG), draw(_MAG)
    g_off = draw(st.one_of(st.just(0.0), _FRAC.map(lambda f: f * 1e-3 / r_on)))
    taus = st.one_of(st.just(0.0), _MAG)
    return OtsParams(v_th, v_th * draw(_FRAC), r_on, g_off, draw(_MAG), draw(taus), draw(taus))


@st.composite
def _netlists(draw):
    net = Netlist()
    for node in _NODES:  # every node reaches ground
        net.add_resistor(f"RG_{node}", node, "0", draw(_MAG))
    node = st.sampled_from(("0",) + _NODES)
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from("RCVDOK"))
        a, b = draw(node), draw(node)
        if kind == "R":
            net.add_resistor(f"R{i}", a, b, draw(_MAG))
        elif kind == "C":
            net.add_capacitor(f"C{i}", a, b, draw(_MAG), ic=draw(_SIGNED))
        elif kind == "V":
            spec = draw(st.one_of(st.builds(Dc, _SIGNED), _pwl(), _pulse(),
                                  st.builds(Triangle, _SIGNED, _MAG, _MAG)))
            net.add_source(f"V{i}", a, b, spec)
        elif kind == "D":
            net.add_diode(f"D{i}", a, b, v_f=draw(_MAG), v_z=draw(_MAG), r_series=draw(_MAG))
        elif kind == "O":
            net.add_ots(f"OTS{i}", a, b, draw(_ots_params()))
        else:
            high = draw(_SIGNED)
            low = high - max(draw(_MAG), 1e-3 * abs(high))
            net.add_comparator(f"CMP{i}", a, b, draw(node), v_out_high=high, v_out_low=low,
                               r_out=draw(_MAG))
    return net


def _flat(values):
    for v in values:
        if isinstance(v, tuple):
            yield from _flat(v)
        else:
            yield v


class TestTextRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_netlists())
    def test_text_is_a_fixed_point(self, net):
        text = netlist_to_text(net, header="round trip")
        again = parse_netlist(text)
        assert netlist_to_text(again, header="round trip") == text
        assert len(again.elements) == len(net.elements)
        for el, back in zip(net.elements, again.elements):
            assert type(back.kind) is type(el.kind)
            assert [again.node_names[i] for i in back.terminals] == [net.node_names[i] for i in el.terminals]
            want, got = list(_flat(astuple(el.kind))), list(_flat(astuple(back.kind)))
            assert len(got) == len(want)
            for w, g in zip(want, got):  # names, repeat counts and values to 6 digits
                if isinstance(w, float):
                    assert g == pytest.approx(w, rel=1e-5, abs=0.0)
                else:
                    assert g == w


class TestWriterRejectsRoundedConstraints:
    """A value that breaks a strict constraint once written with 6
    significant digits is refused by the writer, which names it."""

    def _net(self, add):
        net = Netlist()
        net.add_resistor("RL", "a", "0", 1e3)
        add(net)
        return net

    @pytest.mark.parametrize("add, match", [
        (lambda n: n.add_source("V1", "a", "0", PiecewiseLinear(((1e-6, 0.0), (1.0000001e-6, 1.0)))),
         r"V1: breakpoint 1 time 1\.0000001e-06 is written as 1u"),
        (lambda n: n.add_source("V2", "a", "0", Pulse(0.0, 1.0, 0.0, 1e-6, 1.0000001e-6)),
         r"V2: period 1\.0000001e-06 is written as 1u, which breaks: require 0 < width < period"),
        (lambda n: n.add_ots("OTS1", "a", "0", OtsParams(v_th=1.0000001, v_hold=1.0)),
         r"OTS1: v_th 1\.0000001 is written as 1, which breaks: require v_th > v_hold"),
        (lambda n: n.add_comparator("CMP1", "a", "0", "a", v_out_high=5.0000001, v_out_low=5.0),
         r"CMP1: v_out_high 5\.0000001 is written as 5, which breaks: CMP1: require v_out_high > v_out_low"),
    ], ids=["pwl", "pulse", "ots", "comparator"])
    def test_rounding_that_breaks_a_constraint_is_named(self, add, match):
        with pytest.raises(NetlistError, match=match):
            netlist_to_text(self._net(add))

    def test_found_example_no_longer_writes_unparseable_text(self):
        net = self._net(lambda n: n.add_source("V1", "a", "0",
                                               PiecewiseLinear(((1e-6, 0.0), (1.0000001e-6, 1.0)))))
        with pytest.raises(NetlistError, match="V1"):
            netlist_to_text(net)
        # the same source with a gap the format resolves round-trips
        net = self._net(lambda n: n.add_source("V1", "a", "0", PiecewiseLinear(((1e-6, 0.0), (1.00001e-6, 1.0)))))
        assert netlist_to_text(parse_netlist(netlist_to_text(net))) == netlist_to_text(net)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        p = cfg.device_params()
        assert p.v_th == 3.0
        assert cfg.encoding().v_high == 5.0

    def test_parse_and_override(self):
        cfg = parse_config("v_high = 4.5\nsegment_clocks = 64\notsu = true\nv_th=3.2\n")
        assert cfg.v_high == 4.5
        assert cfg.segment_clocks == 64
        assert cfg.otsu is True
        assert cfg.device_params().v_th == pytest.approx(3.2)

    def test_si_values_in_config(self):
        cfg = parse_config("bit_width = 50u\ni_hold = 0.8m\n")
        assert cfg.bit_width == pytest.approx(50e-6)
        assert cfg.device_params().i_hold == pytest.approx(0.8e-3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("voltage = 5\n")

    def test_removed_solver_keys_rejected(self):
        for key in ("max_newton = 8", "residual_tol = 1e-9"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(key + "\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("v_high 5\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nv_high = 5.0  # trailing\n")
        assert cfg.v_high == 5.0

    def test_merged_precedence(self):
        cfg = parse_config("v_high = 4.5\n")
        assert cfg.merged(v_high=5.5).v_high == 5.5
        assert cfg.merged(v_high=None).v_high == 4.5
