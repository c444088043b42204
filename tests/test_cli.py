import contextlib
import io
import json
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstchain import device
from fstchain.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    main,
    parse_angle,
)


def _result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


def _result_without_wall_time(out_dir):
    d = _result(out_dir)
    d.pop("wall_time_s")
    return d


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [("pi", np.pi), ("0.5pi", np.pi / 2), ("-pi", -np.pi),
         ("2pi", 2 * np.pi), ("1.5707963", 1.5707963), ("0.25 pi", np.pi / 4)],
    )
    def test_values(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-12)

    def test_garbage(self):
        from fstchain.cli import CliError

        with pytest.raises(CliError):
            parse_angle("piapple")


class TestSynthesize:
    def test_writes_chain_csv(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "synthesize", "--n", "5",
                     "--theta", "0.5pi", "--tau", "1.0"])
        assert code == EXIT_OK
        lines = (out / "chain.csv").read_text().strip().split("\n")
        assert lines[0] == "n,J_n,Delta_n"
        assert len(lines) == 6
        res = _result(out)["result"]
        assert len(res["couplings"]) == 4
        assert res["detuning_range_matches_formula"] is False

    def test_j_max_in_hz(self, tmp_path):
        out = tmp_path / "o"
        main(["--out", str(out), "synthesize", "--n", "4", "--theta", "pi",
              "--j-max", "1e6"])
        res = _result(out)["result"]
        # J_max = 2 pi * 1 MHz rad/s; PST even chain tau = N pi / (4 J_max)
        assert max(res["couplings"]) == pytest.approx(2 * np.pi * 1e6, rel=1e-9)
        assert res["tau"] == pytest.approx(4 * np.pi / (4 * 2 * np.pi * 1e6))

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["synthesize", "--n", "7", "--theta", "0.3pi", "--tau", "2.0"]
        main(["--out", str(a)] + argv)
        main(["--out", str(b)] + argv)
        assert (a / "chain.csv").read_bytes() == (b / "chain.csv").read_bytes()
        assert _result_without_wall_time(a) == _result_without_wall_time(b)

    def test_theta_clamped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--out", str(out), "synthesize", "--n", "4",
                     "--theta", "1.5pi", "--tau", "1.0"])
        assert code == EXIT_OK
        assert "clamped" in capsys.readouterr().err
        assert _result(out)["inputs"]["theta"] == pytest.approx(np.pi)

    def test_bad_n_is_validation_error(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "synthesize", "--n", "1",
                     "--theta", "pi", "--tau", "1.0"])
        assert code == EXIT_VALIDATION

    def test_missing_required_arg(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "synthesize", "--n", "4"])
        assert code == EXIT_BAD_INPUT


class TestSpectrumAndMapping:
    def test_spectrum_ok(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "spectrum", "--n", "6",
                     "--theta", "0.4pi", "--tau", "1.0"])
        assert code == EXIT_OK
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert len(lines) == 7

    def test_verify_mapping_ok(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "verify-mapping", "--n", "5",
                     "--theta", "0.5pi", "--tau", "1.0"])
        assert code == EXIT_OK
        res = _result(out)["result"]
        assert res["ok"] is True
        assert res["distance"] < 1e-8

    def test_verify_mapping_eleven_sites(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "verify-mapping", "--n", "11",
                     "--theta", "pi", "--tau", "1"])
        assert code == EXIT_OK
        assert _result(out)["result"]["distance"] < 1e-8

    @pytest.mark.parametrize("command", ["verify-mapping", "synthesize"])
    @pytest.mark.parametrize("scale", [["--tau", "inf"], ["--j-max", "inf"], ["--tau", "nan"]])
    def test_non_finite_time_scale_refused(self, tmp_path, capsys, command, scale):
        out = tmp_path / "o"
        code = main(["--out", str(out), command, "--n", "3", "--theta", "pi"] + scale)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", ["13", "40"])
    def test_verify_mapping_oversized_refused(self, tmp_path, capsys, n):
        out = tmp_path / "o"
        argv = ["--out", str(out), "verify-mapping", "--n", n, "--theta", "pi", "--tau", "1"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestEvolve:
    def test_fig2a_endpoint(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", "15",
                     "--theta", "0.5pi", "--tau", "1.0", "--excite", "1",
                     "--time", "2", "--time-in-tau", "--method", "sector"])
        assert code == EXIT_OK
        pops = _result(out)["result"]["populations"]
        assert pops[14] == pytest.approx(1.0, abs=1e-6)

    def test_state_file_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        main(["--out", str(out1), "evolve", "--n", "4", "--theta", "0.5pi",
              "--tau", "1.0", "--excite", "1", "--time", "0.5"])
        out2 = tmp_path / "b"
        code = main(["--out", str(out2), "evolve", "--n", "4",
                     "--theta", "0.5pi", "--tau", "1.0",
                     "--state-file", str(out1 / "state.json"),
                     "--time", "0.5"])
        assert code == EXIT_OK
        out3 = tmp_path / "c"
        main(["--out", str(out3), "evolve", "--n", "4", "--theta", "0.5pi",
              "--tau", "1.0", "--excite", "1", "--time", "1.0"])
        np.testing.assert_allclose(
            _result(out2)["result"]["populations"],
            _result(out3)["result"]["populations"],
            atol=1e-9,
        )

    @pytest.mark.parametrize(
        "excite,code",
        [("7", EXIT_VALIDATION), ("a", EXIT_BAD_INPUT), ("1,1", EXIT_VALIDATION)],
    )
    def test_bad_excitations(self, tmp_path, excite, code):
        out = tmp_path / "o"
        assert main(["--out", str(out), "evolve", "--n", "5", "--theta", "0.5pi",
                     "--tau", "1.0", "--excite", excite, "--time", "1"]) == code
        assert not (out / "state.json").exists()

    def test_missing_state_file(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "evolve", "--n", "4",
                     "--theta", "0.5pi", "--tau", "1.0", "--time", "1",
                     "--state-file", str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_INPUT

    def test_six_excitations_on_fifteen_sites(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", "15", "--theta", "0.5pi",
                     "--tau", "1.0", "--excite", "1,2,3,4,5,6", "--time", "0.5"])
        assert code == EXIT_OK
        res = _result(out)["result"]
        assert res["norm"] == pytest.approx(1.0, abs=1e-12)
        assert sum(res["populations"]) == pytest.approx(6.0, abs=1e-10)

    def test_oversized_sector_refused(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "evolve", "--n", "15",
                     "--theta", "0.5pi", "--tau", "1.0",
                     "--excite", "1,2,3,4,5,6,7", "--time", "0.5"])
        assert code == EXIT_VALIDATION
        assert "limit" in capsys.readouterr().err

    def test_oversized_state_refused(self, tmp_path, capsys):
        # 2^40 entries (16 TiB) are refused before anything is allocated
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", "40", "--theta", "0.5pi",
                     "--tau", "1.0", "--excite", "1", "--time", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit" in err
        assert not (out / "state.json").exists()

    def test_huge_register_refusal_is_one_short_line(self, tmp_path, capsys):
        # the refusal names 2^N, not its 1205 decimal digits
        code = main(["--out", str(tmp_path / "o"), "evolve", "--n", "4000", "--theta",
                     "pi", "--tau", "1", "--time", "1", "--excite", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and "2^4000" in err

    @pytest.mark.parametrize("method", ["auto", "dense"])
    @pytest.mark.parametrize("time", ["inf", "nan", "-1"])
    def test_bad_time_refused(self, tmp_path, capsys, method, time):
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", "3", "--theta", "pi",
                     "--tau", "1", "--excite", "1", "--time", time, "--method", method])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "state.json").exists()


class TestDecomposeAndSweep:
    def test_decompose_counts(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "decompose", "--n", "6",
                     "--theta", "0.5pi", "--j-max", "1e6"])
        assert code == EXIT_OK
        res = _result(out)["result"]
        assert res["fswap_count"] == 12
        assert res["iswap_count"] == 3
        circ = json.loads((out / "circuit.json").read_text())
        assert circ["n_sites"] == 6
        j = 2 * np.pi * 1e6
        assert res["total_duration"] == pytest.approx(6 * np.pi / (2 * j))

    def test_decompose_rejects_n2(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "decompose", "--n", "2",
                     "--theta", "pi", "--j-max", "1e6"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("j_max", ["0", "-1", "nan", "inf", "1e-320"])
    def test_decompose_rejects_bad_j_max(self, tmp_path, capsys, j_max):
        out = tmp_path / "o"
        code = main(["--out", str(out), "decompose", "--n", "5",
                     "--theta", "0.5pi", "--j-max", j_max])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: j_max") and err.count("\n") == 1
        assert not (out / "circuit.json").exists()

    def test_speed_sweep(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "speed-sweep", "--n", "5..10",
                     "--theta", "0.5pi,pi"])
        assert code == EXIT_OK
        lines = (out / "speed_sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 6 * 2
        assert _result(out)["result"]["min_ratio"] >= np.sqrt(3) - 1e-9

    @pytest.mark.parametrize(
        "n,code",
        [("40..5", EXIT_VALIDATION), ("5..", EXIT_BAD_INPUT), ("a", EXIT_BAD_INPUT),
         ("5..7..9", EXIT_BAD_INPUT)],
    )
    def test_speed_sweep_bad_range(self, tmp_path, capsys, n, code):
        out = tmp_path / "o"
        assert main(["--out", str(out), "speed-sweep", "--n", n, "--theta", "pi"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "speed_sweep.csv").exists()

    def test_speed_sweep_n2_asymptote_is_nan(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "speed-sweep", "--n", "2..4", "--theta", "pi"]) == EXIT_OK
        rows = [line.split(",") for line in
                (out / "speed_sweep.csv").read_text().strip().split("\n")[1:]]
        assert rows[0][6] == rows[1][6] == "nan"
        assert float(rows[2][6]) == pytest.approx(np.sqrt(3) * 4 / np.sqrt(12))

    def test_speed_sweep_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["speed-sweep", "--n", "5..8", "--theta", "pi"]
        main(["--out", str(a)] + argv)
        main(["--out", str(b)] + argv)
        assert (a / "speed_sweep.csv").read_bytes() == (b / "speed_sweep.csv").read_bytes()


class TestParity:
    def test_basis_string(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "parity", "--basis", "0101"])
        assert code == EXIT_OK
        res = _result(out)["result"]
        assert res["inferred_parity"] == "even"
        assert res["left_ancilla_one_probability"] == pytest.approx(1.0, abs=1e-8)

    def test_odd_basis(self, tmp_path):
        out = tmp_path / "o"
        main(["--out", str(out), "parity", "--basis", "100"])
        assert _result(out)["result"]["inferred_parity"] == "odd"

    def test_shots_deterministic_with_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["--out", str(out), "parity", "--basis", "0110",
                  "--shots", "1000", "--seed", "7"])
            outs.append(_result(out)["result"]["shot_ones"])
        assert outs[0] == outs[1] == 1000

    def test_missing_input(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "parity"]) == EXIT_BAD_INPUT

    def test_bad_basis(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "parity", "--basis", "01a"])
        assert code == EXIT_BAD_INPUT

    def test_oversized_basis_refused(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "parity", "--basis", "0" * 40])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "content,code",
        [(None, EXIT_BAD_INPUT), ("[[1, 0],", EXIT_BAD_INPUT),
         ("[[1, 0], [0, 0], [0, 0]]", EXIT_VALIDATION), ("[]", EXIT_VALIDATION)],
    )
    def test_bad_state_file(self, tmp_path, capsys, content, code):
        path = tmp_path / "state.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "o"
        assert main(["--out", str(out), "parity", "--state-file", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("shots", ["-3", str(2**63)])
    def test_bad_shots(self, tmp_path, capsys, shots):
        code = main(["--out", str(tmp_path / "o"), "parity", "--basis", "01",
                     "--shots", shots])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --shots")


class TestScenario:
    def _scenario_file(self, tmp_path, body):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(body))
        return f

    def test_fig2a_refocusing(self, tmp_path):
        f = self._scenario_file(
            tmp_path,
            {"n_sites": 15, "theta": 0.5 * np.pi, "excitations": [1]},
        )
        out = tmp_path / "o"
        code = main(["--out", str(out), "scenario", str(f), "--steps", "40"])
        assert code == EXIT_OK
        final = _result(out)["result"]["final_populations"]
        assert final[14] == pytest.approx(1.0, abs=1e-6)
        lines = (out / "populations.csv").read_text().strip().split("\n")
        assert len(lines) == 42

    def test_missing_file(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "scenario",
                     str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_INPUT

    def test_malformed_json(self, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text('{"n_sites": 5,')
        assert main(["--out", str(tmp_path / "o"), "scenario", str(f)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "excitations,event",
        [
            ([1], {"t": 0.5, "kind": "xflip", "site": 9}),
            ([1], {"t": 0.5, "kind": "xflip", "site": 0}),
            ([1], {"t": 0.5, "kind": "zap", "site": 2}),
            ([1], {"t": -0.5, "kind": "xflip", "site": 2}),
            ([1], {"t": 50, "kind": "xflip", "site": 2}),
            ([1], {"t": 0.5, "site": 2}),
            ([7], None),
        ],
    )
    def test_invalid_scenario(self, tmp_path, capsys, excitations, event):
        body = {"n_sites": 5, "theta": 1.0, "excitations": excitations,
                "events": [event] if event else []}
        f = self._scenario_file(tmp_path, body)
        out = tmp_path / "o"
        assert main(["--out", str(out), "scenario", str(f), "--steps", "4"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "populations.csv").exists()

    def test_negative_steps(self, tmp_path):
        f = self._scenario_file(tmp_path, {"n_sites": 5, "theta": 1.0, "excitations": [1]})
        code = main(["--out", str(tmp_path / "o"), "scenario", str(f), "--steps", "-3"])
        assert code == EXIT_VALIDATION

    def test_determinism(self, tmp_path):
        f = self._scenario_file(
            tmp_path, {"n_sites": 6, "theta": 1.0, "excitations": [2]}
        )
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--out", str(a), "scenario", str(f), "--steps", "20"])
        main(["--out", str(b), "scenario", str(f), "--steps", "20"])
        assert (a / "populations.csv").read_bytes() == (b / "populations.csv").read_bytes()
        assert _result_without_wall_time(a) == _result_without_wall_time(b)


class TestDeviceOptimize:
    def test_trace_has_wall_seconds(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "device-optimize", "--theta", "pi",
                     "--tau-final", "10e-9", "--budget", "2"])
        assert code in (EXIT_OK, EXIT_TOLERANCE)
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "eval,infidelity,leakage,phiA1,phiA2,wd1,wd2,wall_s"
        assert len(lines) == 3
        assert all(float(line.split(",")[-1]) > 0 for line in lines[1:])


class TestDeviceBadInput:
    @pytest.mark.parametrize(
        "argv",
        [["--theta", "0"], ["--theta", "-1"], ["--theta", "nan"],
         ["--theta", "pi", "--tau-final", "-1"], ["--theta", "pi", "--tau-final", "0"],
         ["--theta", "pi", "--tau-final", "nan"], ["--theta", "pi", "--tau-final", "1e-12"]],
    )
    def test_optimize_refused_before_propagation(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(device, "propagate", _no_propagation)
        out = tmp_path / "o"
        assert main(["--out", str(out), "device-optimize"] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--points", "-1"], ["--points", "0"], ["--points", str(10**12)],
         ["--phi-min", "nan"], ["--phi-max", "inf"]],
    )
    def test_zz_scan_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(["--out", str(out), "device-zz-scan"] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def _no_propagation(*args, **kwargs):
    raise AssertionError("refused input reached the propagator")


class TestDeviceZZScan:
    def test_huge_flux_bound(self, tmp_path):
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--out", str(out), "device-zz-scan", "--phi-min", "0",
                         "--phi-max", "1e308", "--points", "2"])
        assert code == EXIT_OK
        rows = (out / "zz_scan.csv").read_text().strip().split("\n")[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert values.shape == (2, 3) and np.isfinite(values).all()

    def test_scan_finds_sign_change(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "device-zz-scan", "--phi-min", "0.3",
                     "--phi-max", "0.45", "--points", "7"])
        assert code == EXIT_OK
        assert _result(out)["result"]["sign_changes_zeta12"] >= 1
        lines = (out / "zz_scan.csv").read_text().strip().split("\n")
        assert lines[0] == "phi,zeta12,zeta23"
        assert len(lines) == 8


_ANGLES = st.sampled_from(
    ["pi", "0.5pi", "0.1pi", "1.3", "0", "-0.4", "2pi", "nan", "inf", "1e-9", "x"]
)
_FLOATS = st.sampled_from(["1", "1e6", "0", "-1", "nan", "inf", "1e-300", "abc"])


# chain sizes above the dense-matrix guard (verify-mapping, N > 12) and the
# state-vector guard (evolve, N > 24): refused before anything is allocated
_DENSE_REFUSED = range(13, 15)
_STATE_REFUSED = (25, 30, 40)


@st.composite
def _cli_argv(draw):
    """Arguments for parity, decompose, speed-sweep, device-zz-scan,
    verify-mapping or evolve, sizes kept small or above the size guards,
    and for device-optimize with the angle or the gate length out of
    range."""
    command = draw(st.sampled_from(
        ["parity", "decompose", "speed-sweep", "device-zz-scan", "device-optimize",
         "verify-mapping", "evolve"]
    ))
    if command == "verify-mapping":
        return ["verify-mapping", "--n", str(draw(st.integers(-2, 14))),
                "--theta", draw(_ANGLES), "--tau", draw(_FLOATS)]
    if command == "evolve":
        n = draw(st.integers(-2, 12) | st.sampled_from(_STATE_REFUSED))
        sites = draw(st.lists(st.integers(-1, 13), max_size=3))
        return ["evolve", "--n", str(n), "--theta", draw(_ANGLES), "--tau", draw(_FLOATS),
                "--excite", ",".join(map(str, sites)), "--time", draw(_FLOATS)]
    if command == "device-zz-scan":
        phis = st.sampled_from(["0", "0.3", "0.45", "-1", "2", "1e300", "nan", "inf", "x"])
        points = st.sampled_from(["-1", "0", "1", "2", "3", str(10**7), "2.5"])
        return ["device-zz-scan", "--phi-min", draw(phis), "--phi-max", draw(phis),
                "--points", draw(points)]
    if command == "device-optimize":
        bad_theta = st.sampled_from(["0", "-0.4", "2pi", "nan", "inf", "x"])
        bad_tau = st.sampled_from(["0", "-1", "-212e-9", "nan", "inf", "1e-12", "abc"])
        theta, tau = draw(st.sampled_from([(bad_theta, _FLOATS), (_ANGLES, bad_tau)]))
        return ["device-optimize", "--theta", draw(theta), "--tau-final", draw(tau)]
    if command == "parity":
        basis = draw(st.text(alphabet="01", max_size=8) | st.sampled_from(["01a", " 1"]))
        shots = draw(st.integers(-10, 10**6) | st.just(2**64))
        return ["parity", "--basis", basis, "--shots", str(shots),
                "--seed", str(draw(st.integers(0, 99)))]
    if command == "decompose":
        return ["decompose", "--n", str(draw(st.integers(-2, 9))),
                "--theta", draw(_ANGLES), "--j-max", draw(_FLOATS)]
    lo = draw(st.integers(0, 12))
    hi = draw(st.integers(lo - 2, lo + 4))
    rng = draw(st.sampled_from([f"{lo}..{hi}", str(lo), f"{lo}..", "a..b"]))
    thetas = ",".join(draw(st.lists(_ANGLES, min_size=1, max_size=3)))
    return ["speed-sweep", "--n", rng, "--theta", thetas]


def _refused_size(argv):
    """Whether a well-formed argv asks for a chain above its size guard."""
    if argv[0] not in ("verify-mapping", "evolve"):
        return False
    n = int(argv[2])
    return n in (_DENSE_REFUSED if argv[0] == "verify-mapping" else _STATE_REFUSED)


@settings(max_examples=60, deadline=None)
@given(argv=_cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    err = io.StringIO()
    refused = _refused_size(argv)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            mock.patch.object(device, "propagate", _no_propagation):
        if refused:
            tracemalloc.start()
        try:
            code = main(["--out", tmp] + argv)
            peak = tracemalloc.get_traced_memory()[1] if refused else 0
        finally:
            tracemalloc.stop()
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_VALIDATION, EXIT_TOLERANCE)
    assert "Traceback" not in err.getvalue()
    if refused:
        # an unparsable angle or time exits 1 first; anything else exits 2
        assert code in (EXIT_BAD_INPUT, EXIT_VALIDATION)
        assert peak < 2**20


def test_unknown_command(tmp_path):
    assert main(["--out", str(tmp_path / "o"), "frobnicate"]) == EXIT_BAD_INPUT
