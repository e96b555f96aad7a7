"""Command-line interface: subcommand behavior and exit-code contract."""

import json
import re

import numpy as np
import pytest

from otsim.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _parse_sweep_list, main, make_parser
from otsim.gates import GateKind
from otsim.imaging import GrayImage, load_image, save_pgm


@pytest.fixture()
def uniform_pgm(tmp_path):
    path = tmp_path / "uniform.pgm"
    save_pgm(GrayImage(np.full((8, 8), 200, dtype=np.uint8)), str(path))
    return str(path)


class TestEnergyCmd:
    def test_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "energy.json"
        rc = main(["energy", "--node", "16n", "--json", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        rows = {r["label"].split(" ")[0]: r for r in payload["rows"]}
        assert rows["V100"]["total_uJ"] == pytest.approx(354.0, abs=1.0)
        assert payload["annotations"]
        text = capsys.readouterr().out
        assert "OTS-XOR" in text

    def test_identity_node(self, capsys):
        rc = main(["energy", "--node", "6u"])
        assert rc == EXIT_OK
        assert "scaled" in capsys.readouterr().out

    def test_bad_exponent(self, capsys):
        assert main(["energy", "--node", "16n", "--set", "exponent=3.0"]) == EXIT_USAGE

    def test_exponent_is_set_through_the_config(self, capsys):
        assert main(["energy", "--node", "16n", "--set", "exponent=2.0"]) == EXIT_OK
        assert "scaled n=2)" in capsys.readouterr().out


class TestGateCmd:
    def test_xor_table_ok(self, tmp_path):
        out = tmp_path / "xor.json"
        rc = main(["gate", "--kind", "xor", "--json", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert [r["measured"] for r in payload["rows"]] == [[0], [1], [1], [0]]

    def test_single_combination(self, capsys):
        rc = main(["gate", "--kind", "and", "--inputs", "11"])
        assert rc == EXIT_OK
        assert "y=1" in capsys.readouterr().out

    def test_waveform_export(self, tmp_path):
        wf = tmp_path / "wave.csv"
        rc = main(["gate", "--kind", "xor", "--inputs", "10", "--waveforms", str(wf)])
        assert rc == EXIT_OK
        header = wf.read_text().splitlines()[0]
        assert header.startswith("t,")

    def test_table_waveforms_simulate_each_row_once(self, tmp_path, monkeypatch):
        from otsim import gates

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return transient(*args, **kwargs)

        transient = gates.transient
        monkeypatch.setattr(gates, "transient", counting)
        wf = tmp_path / "wave.csv"
        assert main(["gate", "--kind", "and", "--waveforms", str(wf), "--json", str(tmp_path / "t.json")]) == EXIT_OK
        assert len(calls) == 4
        rows = np.loadtxt(wf, delimiter=",", skiprows=1)
        # rows offset by the evaluation period; each row boundary time written once
        assert len(rows) == 4 * 2001 - 3
        assert np.all(np.diff(rows[:, 0]) > 0)

    def test_unknown_kind(self, capsys):
        assert main(["gate", "--kind", "xnor"]) == EXIT_USAGE

    def test_kind_help_names_every_kind(self, capsys):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["gate", "--help"])
        listed = re.search(r"^\s+--kind KIND\s+(\S+)", capsys.readouterr().out, re.M).group(1)
        assert listed.split("|") == [kind.value for kind in GateKind]

    def test_bad_inputs(self, capsys):
        assert main(["gate", "--kind", "and", "--inputs", "101"]) == EXIT_USAGE


class TestEdgeCmd:
    def test_uniform_roundtrip(self, uniform_pgm, tmp_path):
        out = tmp_path / "edges.pgm"
        rep = tmp_path / "report.json"
        rc = main(["edge", "--in", uniform_pgm, "--out", str(out),
                   "--oracle-check", "--report", str(rep)])
        assert rc == EXIT_OK
        payload = json.loads(rep.read_text())
        assert payload["total"] == 0
        edges = load_image(str(out))
        assert not edges.pixels.any()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["edge", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm")])
        assert rc == EXIT_USAGE

    def test_malformed_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        rc = main(["edge", "--in", str(bad), "--out", str(tmp_path / "o.pgm")])
        assert rc == EXIT_USAGE
        assert "truncated" in capsys.readouterr().err

    def test_threshold_settings_come_from_the_config(self, tmp_path, capsys):
        img = np.zeros((4, 4), dtype=np.uint8)
        img[:, 2:] = 200
        path = tmp_path / "halves.pgm"
        save_pgm(GrayImage(img), str(path))
        out = str(tmp_path / "o.pgm")
        assert main(["edge", "--in", str(path), "--out", out, "--set", "binarize_threshold=201"]) == EXIT_OK
        assert "binarize threshold 201" in capsys.readouterr().out
        assert not load_image(out).pixels.any()
        assert main(["edge", "--in", str(path), "--out", out, "--set", "otsu=true"]) == EXIT_OK
        assert "binarize threshold 1" in capsys.readouterr().out
        assert load_image(out).pixels[:, 2].all()


class TestGradientCmd:
    def test_sweep_with_fit(self, tmp_path):
        out = tmp_path / "grad.csv"
        rc = main(["gradient", "--sweep", "0,180,220,255", "--out", str(out), "--fit",
                   "--set", "gradient_window=400u"])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_c,rate_hz"
        assert lines[1].startswith("0,0")
        assert any(ln.startswith("# r2=") for ln in lines)

    def test_zero_only_sweep_fit_fails(self, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        rc = main(["gradient", "--sweep", "0,10,20", "--out", str(out), "--fit",
                   "--set", "gradient_window=200u"])
        assert rc == EXIT_USAGE

    def test_bad_sweep_spec(self, tmp_path):
        assert main(["gradient", "--sweep", "0:300:16", "--out", str(tmp_path / "g.csv")]) == EXIT_USAGE

    def test_default_sweep(self, tmp_path):
        out = tmp_path / "grad.csv"
        assert main(["gradient", "--out", str(out), "--set", "gradient_window=100u"]) == EXIT_OK
        deltas = [float(ln.split(",")[0]) for ln in out.read_text().splitlines()[1:]]
        assert deltas == [16.0 * k for k in range(16)]

    @pytest.mark.parametrize("spec, last", [("0:255:16", 240.0), ("0:1:0.25", 1.0), ("0:0.3:0.1", 0.3), ("5:5:1", 5.0)])
    def test_range_ends_at_the_last_value_not_above_stop(self, spec, last):
        assert _parse_sweep_list(spec)[-1] == pytest.approx(last, abs=1e-12)


class TestTimeStepFitsTheRun:
    @pytest.mark.parametrize("argv, key", [
        (["iv", "--set", "dt_device=1m"], "dt_device"),
        (["oscillate", "--set", "dt_device=1m"], "dt_device"),
        (["gate", "--kind", "and", "--set", "dt_logic=1m"], "dt_logic"),
        (["gradient", "--set", "dt_logic=2m"], "dt_logic"),
        (["edge", "--in", "{pgm}", "--set", "dt_logic=1"], "dt_logic"),
        (["edge", "--in", "{pgm}", "--set", "dt_logic=10u"], "dt_logic"),  # fits the run, not a 5 us pulse
    ], ids=["iv", "oscillate", "gate", "gradient", "edge", "edge_pulse"])
    def test_step_longer_than_the_run_is_a_usage_error(self, argv, key, uniform_pgm, tmp_path, capsys):
        argv = [a.format(pgm=uniform_pgm) for a in argv]
        if argv[0] != "gate":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {key} = ")
        assert not (tmp_path / "out.csv").exists()


class TestIvOscillate:
    def test_iv_default_circuit(self, tmp_path):
        out = tmp_path / "iv.csv"
        rc = main(["iv", "--peak", "6", "--rise", "20u", "--out", str(out)])
        assert rc == EXIT_OK
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        # snap-back: some consecutive pair with di > 0 and dv < 0
        dv = np.diff(rows[:, 0])
        di = np.diff(rows[:, 1])
        assert np.any((di > 1e-5) & (dv < -1e-3))

    def test_iv_netlist_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cir"
        bad.write_text("R R1 a 0 nonsense\n")
        rc = main(["iv", "--netlist", str(bad), "--out", str(tmp_path / "iv.csv")])
        assert rc == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_oscillate_sweep(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = main(["oscillate", "--sweep", "3.4:5.0:5", "--duration", "150u", "--out", str(out)])
        assert rc == EXIT_OK
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        rates = rows[:, 1]
        assert np.all(np.diff(rates) > 0)

    def test_oscillate_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["oscillate", "--vin", "4.0", "--duration", "100u", "--out", str(out)])
        assert rc == EXIT_OK
        assert "spikes" in capsys.readouterr().out

    def test_oscillate_reports_solved_steps_and_period(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["oscillate", "--vin", "4.0", "--duration", "100u", "--out", str(out)])
        assert rc == EXIT_OK
        m = re.search(r"^solved (\d+) of 10001 steps; period (\d+)$", capsys.readouterr().out, re.M)
        assert m and int(m[2]) < int(m[1]) < 10001
        # the copied samples are in the written trace
        assert len(np.loadtxt(str(out), delimiter=",", skiprows=1)) == 10001

    def test_oscillate_reports_no_period(self, tmp_path, capsys):
        rc = main(["oscillate", "--vin", "4.3", "--duration", "40u", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK
        assert "solved 4001 of 4001 steps; period none" in capsys.readouterr().out


class TestConfigPlumbing:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_high = 4.0\nsegment_clocks = 32\n")
        from otsim.cli import _build_config, make_parser

        args = make_parser().parse_args(
            ["gate", "--kind", "xor", "--config", str(cfg), "--set", "v_high=5.0"]
        )
        cfg = _build_config(args)
        assert cfg.v_high == 5.0          # --set wins
        assert cfg.segment_clocks == 32   # file survives

    def test_removed_key_rejected_by_set(self, capsys):
        for key in ("max_newton", "n_jobs"):
            rc = main(["gate", "--kind", "xor", "--set", f"{key}=8"])
            assert rc == EXIT_USAGE
            assert key in capsys.readouterr().err

    def test_removed_jobs_flag_rejected(self, uniform_pgm, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["edge", "--in", uniform_pgm, "--out", str(tmp_path / "o.pgm"), "--jobs", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["edge", "--in", "{pgm}", "--out", "{out}", "--threshold", "100"], "--threshold"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--otsu"], "--otsu"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--segment-clocks", "32"], "--segment-clocks"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--count-threshold", "1"], "--count-threshold"),
        (["energy", "--exponent", "2.0"], "--exponent"),
        (["iv", "--default", "--out", "{out}"], "--default"),
        (["gate", "--kind", "xor", "--table"], "--table"),
    ], ids=["threshold", "otsu", "segment_clocks", "count_threshold", "exponent", "default", "table"])
    def test_removed_flags_rejected(self, argv, flag, uniform_pgm, tmp_path, capsys):
        argv = [a.format(pgm=uniform_pgm, out=tmp_path / "out") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_unparseable_set_item_named(self, capsys):
        for item in ("#v_high=3", "v_high", "otsu=maybe", "segment_clocks=1.5", "v_high=5x", "v_high=1e400"):
            assert main(["energy", "--set", item]) == EXIT_USAGE
            assert repr(item) in capsys.readouterr().err

    def test_set_items_are_checked_together(self):
        from otsim.cli import _build_config, make_parser

        args = make_parser().parse_args(["gate", "--kind", "xor", "--set", "v_hold=3.5", "--set", "v_th=4"])
        assert _build_config(args).device_params().v_th == 4.0

    @pytest.mark.parametrize("argv, key", [
        (["gate", "--kind", "and", "--inputs", "11", "--set", "v_th=0.5"], "v_th"),
        (["gate", "--kind", "and", "--inputs", "11", "--set", "v_high=-1"], "v_high"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--set", "segment_clocks=0"], "segment_clocks"),
        (["energy", "--set", "exponent=3"], "exponent"),
        (["oscillate", "--out", "{out}", "--set", "dt_device=0"], "dt_device"),
        (["gradient", "--sweep", "0,255", "--out", "{out}", "--set", "gradient_window=10u"], "gradient_window"),
        (["gate", "--kind", "xor", "--inputs", "10", "--set", "binarize_threshold=-4"], "binarize_threshold"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--set", "binarize_threshold=300"], "binarize_threshold"),
        (["edge", "--in", "{pgm}", "--out", "{out}", "--set", "dt_logic=30n"], "dt_logic"),  # 166.7 steps per pulse
    ], ids=["v_th", "v_high", "segment_clocks", "exponent", "dt_device", "gradient_window",
            "binarize_threshold_gate", "binarize_threshold_edge", "dt_logic_off_the_pulse_grid"])
    def test_bad_config_value_is_a_usage_error_naming_its_key(self, argv, key, uniform_pgm, tmp_path, capsys):
        argv = [a.format(pgm=uniform_pgm, out=tmp_path / "out") for a in argv]
        assert main(argv) == EXIT_USAGE
        assert f"error: {key} = " in capsys.readouterr().err

    def test_seed_circuits(self, tmp_path, capsys):
        rc = main(["--seed-circuits", str(tmp_path / "circuits")])
        assert rc == EXIT_OK
        files = sorted((tmp_path / "circuits").glob("*.cir"))
        assert len(files) == 8

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
