"""Netlist text format, SI-suffix parsing, and the run configuration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim.circuits import gate_netlist_text, shipped_path
from otsim.config import ConfigError, RunConfig, parse_config
from otsim.device import OtsParams, default_params
from otsim.engine import transient
from otsim.gates import GateKind, build_gate, evaluate
from otsim.netlist import Capacitor, Diode, Netlist, Ots, Resistor, VoltageSource
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
            ("50n", 50e-9),
            ("700m", 0.7),
            ("2.5e3k", 2.5e6),
            # exactly halfway between 1 and the next float: ties to even
            ("1.00000000000000011102230246251565404236316680908203125", 1.0),
        ],
    )
    def test_parse(self, text, value):
        assert parse_si(text) == value

    def test_case_distinguishes_milli_mega(self):
        assert parse_si("1m") == 1e-3
        assert parse_si("1M") == 1e6

    def test_rejects_garbage(self):
        for bad in ("", "k", "1.2.3", "5x", "1 k", "1e400", "-1e400", "1e300G"):
            with pytest.raises(ValueError):
                parse_si(bad)

    def test_format_roundtrip(self):
        for v in (9.1e3, 1e-7, 5e-6, 0.0, 467e-12, 2.5, -3.3, 1.0000001e-6, 5e-324):
            assert parse_si(format_si(v)) == v

    @pytest.mark.parametrize("value,text", [
        (50e-9, "50n"), (0.7, "700m"), (9.1e3, "9.1k"), (100.0, "100"), (0.9e-3, "900u"),
        (1.0000001e-6, "1.0000001u"), (-3.3, "-3.3"), (1e-18, "1e-18"), (1.5e12, "1.5e+12"),
    ])
    def test_format_is_shortest_exact_text(self, value, text):
        assert format_si(value) == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float_reads_back_exactly(self, value):
        assert parse_si(format_si(value)) == value


SAMPLE = """
# measurement rig
V VIN in 0 dc 4.0
R RD in top 9.1k
C CP top 0 1n
OTS OTS1 top mid vth=3 ihold=0.9m
R RS mid 0 100
"""


def _trace_bytes(tr):
    """Every recorded field of a trace, as bytes."""
    return (tr.voltages.tobytes(), {k: v.tobytes() for k, v in tr.currents.items()},
            {k: v.tobytes() for k, v in tr.ots_on.items()}, float(tr.kcl_residual).hex())


class TestParser:
    def test_parses_sample(self):
        net = parse_netlist(SAMPLE)
        assert [e.name for e in net.elements] == ["VIN", "RD", "CP", "OTS1", "RS"]
        rd = net.element("RD").kind
        assert isinstance(rd, Resistor) and rd.ohms == 9100.0
        ots = net.element("OTS1").kind
        assert isinstance(ots, Ots)
        assert ots.params.v_th == 3.0 and ots.params.i_hold == 0.9e-3
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
        for kind in GateKind:
            with open(shipped_path(kind), "r", encoding="utf-8") as fh:
                assert fh.read() == gate_netlist_text(kind)

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_shipped_circuit_file_is_the_builders_circuit(self, kind):
        with open(shipped_path(kind), "r", encoding="utf-8") as fh:
            net = parse_netlist(fh.read())
        built = build_gate(kind).net
        assert net.node_names == built.node_names
        assert net.elements == built.elements
        assert _trace_bytes(transient(net, 100e-6, 50e-9)) == _trace_bytes(transient(built, 100e-6, 50e-9))

    @pytest.mark.parametrize("repeat, match", [
        ("2.5", "line 1: pulse repeat must be a whole number, got '2.5'"),
        ("1e400", "line 1: quantity '1e400' is out of range"),
        ("-3", "line 1: Pulse: repeat must be non-negative"),
    ])
    def test_pulse_repeat_is_a_whole_count(self, repeat, match):
        with pytest.raises(NetlistParseError, match=match):
            parse_netlist(f"V V1 a 0 pulse 0 1 0 1u 2u {repeat}\nR R1 a 0 1k\n")

    def test_pulse_rejects_negative_repeat(self):
        with pytest.raises(ValueError, match="repeat must be non-negative"):
            Pulse(0.0, 1.0, 0.0, 1e-6, 2e-6, repeat=-3)


# Magnitudes over the whole suffix range and past both ends of it
_MAG = st.builds(lambda m, e: m * 10.0 ** e,
                 st.floats(1.0, 10.0, exclude_max=True), st.integers(-18, 13))
_SIGNED = st.one_of(st.just(0.0), _MAG, _MAG.map(lambda v: -v))
_NODES = ("a", "b", "c", "n1", "out")


def _between(lo: float, hi: float):
    """Floats strictly between lo and hi, the nearest neighbour of each
    bound included."""
    return st.one_of(st.sampled_from((math.nextafter(lo, hi), math.nextafter(hi, lo))),
                     st.floats(lo, hi, exclude_min=True, exclude_max=True))


@st.composite
def _pwl(draw):
    t = draw(st.one_of(st.just(0.0), _MAG))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        points.append((t, draw(_SIGNED)))
        t = draw(_between(t, 2.0 * t + 1.0))
    return PiecewiseLinear(tuple(points))


@st.composite
def _pulse(draw):
    period = draw(_MAG)
    return Pulse(draw(_SIGNED), draw(_SIGNED), draw(st.one_of(st.just(0.0), _MAG)),
                 draw(_between(0.0, period)), period, draw(st.one_of(st.none(), st.integers(0, 1000))))


@st.composite
def _ots_params(draw):
    v_th, r_on = draw(_MAG), draw(_MAG)
    g_off = draw(st.one_of(st.just(0.0), _between(0.0, 1e-3 / r_on).filter(lambda g: r_on * g < 1e-3)))
    taus = st.one_of(st.just(0.0), _MAG)
    return OtsParams(v_th, draw(_between(0.0, v_th)), r_on, g_off, draw(_MAG), draw(taus), draw(taus))


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
            net.add_comparator(f"CMP{i}", a, b, draw(node), v_out_high=high,
                               v_out_low=draw(_between(-1e300, high)), r_out=draw(_MAG))
    return net


def _reads_back_exactly(net: Netlist, header: str = "") -> None:
    """The written text parses to the same nodes and `==` elements, so every
    float comes back bit for bit, and writing it again gives the same text."""
    text = netlist_to_text(net, header)
    again = parse_netlist(text)
    assert again.node_names == net.node_names
    assert again.elements == net.elements
    assert netlist_to_text(again, header) == text


class TestTextRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_netlists())
    def test_text_is_a_fixed_point(self, net):
        _reads_back_exactly(net, header="round trip")


class TestWriterKeepsCloseValues:
    """Values 1e-7 apart in relative terms, which a 6-digit writer merged,
    are written and read back unchanged."""

    def _net(self, add):
        net = Netlist()
        net.add_resistor("RL", "a", "0", 1e3)
        add(net)
        return net

    def test_close_constraint_values_read_back_exactly(self):
        for add in (
            lambda n: n.add_source("V1", "a", "0", PiecewiseLinear(((1e-6, 0.0), (1.0000001e-6, 1.0)))),
            lambda n: n.add_source("V2", "a", "0", Pulse(0.0, 1.0, 0.0, 1e-6, 1.0000001e-6)),
            lambda n: n.add_ots("OTS1", "a", "0", OtsParams(v_th=1.0000001, v_hold=1.0)),
            lambda n: n.add_comparator("CMP1", "a", "0", "a", v_out_high=5.0000001, v_out_low=5.0),
        ):
            _reads_back_exactly(self._net(add))

    def test_found_example_reads_back_exactly(self):
        for t1 in (1.0000001e-6, 1.00001e-6):
            _reads_back_exactly(self._net(lambda n: n.add_source(
                "V1", "a", "0", PiecewiseLinear(((1e-6, 0.0), (t1, 1.0))))))


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
        assert cfg.device_params().v_th == 3.2

    def test_si_values_in_config(self):
        cfg = parse_config("bit_width = 50u\ni_hold = 0.8m\n")
        assert cfg.bit_width == 50e-6
        assert cfg.device_params().i_hold == 0.8e-3

    def test_defaults_spelled_with_suffixes_are_the_defaults(self):
        assert parse_config("dt_logic = 50n\nsettle = 50u\nbit_width = 50u\n") == RunConfig()
        cfg = parse_config("tau_on = 50n\ntau_off = 50n\ni_hold = 0.9m\n")
        assert cfg.device_params() == default_params()

    def test_spelled_out_switching_delays_keep_the_and_burst_count(self):
        p = parse_config("tau_on = 50n\ntau_off = 50n\n").device_params()
        assert evaluate(GateKind.AND, (1, 1), p=p).detail == (398.0,)

    @pytest.mark.parametrize("text, match", [
        ("v_th = 0.5", r"run\.cfg: v_th = 0\.5: require v_th > v_hold > 0"),
        ("v_high = -1", r"run\.cfg: v_high = -1\.0: v_high must be positive"),
        ("segment_clocks = 0", r"run\.cfg: segment_clocks = 0: segment_clocks must be in 1\.\.4096"),
        ("dt_logic = 0", r"run\.cfg: dt_logic = 0\.0: time steps must be positive"),
        ("settle = 2m", r"run\.cfg: settle = 0\.002: gradient_window must exceed settle"),
        ("exponent = 3", r"run\.cfg: exponent = 3\.0: scaling exponent 3\.0 outside \[1\.6, 2\.1\]"),
        ("binarize_threshold = 300", r"run\.cfg: binarize_threshold = 300: threshold 300 outside \[0, 255\]"),
        ("binarize_threshold = -4", r"run\.cfg: binarize_threshold = -4: threshold -4 outside \[0, 255\]"),
        ("dt_logic = 30n", r"run\.cfg: dt_logic = 3e-08: dt must divide the pulse width"),
    ])
    def test_bad_value_is_named_by_its_key(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text + "\n", origin="run.cfg")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("voltage = 5\n")

    def test_removed_solver_keys_rejected(self):
        for key in ("max_newton = 8", "residual_tol = 1e-9", "n_jobs = 2"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(key + "\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("v_high 5\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nv_high = 5.0  # trailing\n")
        assert cfg.v_high == 5.0
