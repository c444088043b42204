import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path
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
    _write_csv,
    main,
    parse_angle,
)
from fstchain.protocols import Scenario, run_scenario


def _result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


def _result_without_wall_time(out_dir):
    d = _result(out_dir)
    d.pop("wall_time_s")
    return d


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        # reference: each value on its own, %.17g for floats (numpy floats
        # included), str otherwise
        rows = [
            (3, "even", 0.1, np.float64(2 / 3), -0.0, float("nan"), np.inf, 5e-324),
            (np.int64(4), "odd", 1e300, np.float64(-1.5), 2.0, -np.inf, 1e-17, 0.1 + 0.2),
        ]
        path = tmp_path / "x.csv"
        _write_csv(path, list("abcdefgh"), rows)
        want = ["a,b,c,d,e,f,g,h"] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in rows
        ]
        assert path.read_text() == "\n".join(want) + "\n"
        _write_csv(path, ["t"], [])
        assert path.read_text() == "t\n"


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

    def test_theta_out_of_range_refused(self, tmp_path, capsys):
        # theta outside (0, pi] is refused, not clamped
        for theta in ("1.5pi", "0", "-0.1"):
            out = tmp_path / theta
            code = main(["--out", str(out), "synthesize", "--n", "4",
                         "--theta", theta, "--tau", "1.0"])
            assert code == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: theta") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["synthesize", "--n", "30000000", "--theta", "pi", "--tau", "1"],
         ["speed-sweep", "--n", "5..100000000", "--theta", "pi"]],
    )
    def test_oversized_chain_refused(self, tmp_path, capsys, argv):
        # N > 4096 is refused by ChainSpec before any O(N) array or row
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["--out", str(out)] + argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("n", ["4097", "3000000"])
    def test_spectrum_oversized_refused(self, tmp_path, capsys, n):
        # the N x N single-excitation matrix above 2^24 entries (65.5 TiB
        # at N = 3e6) is refused before it is allocated
        out = tmp_path / "o"
        argv = ["--out", str(out), "spectrum", "--n", n, "--theta", "pi", "--tau", "1"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        # the O(N) synthesis before the guard: a few arrays of N floats
        assert peak < 2**20 if n == "4097" else peak < 64 * int(n)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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
                     "--time", "2", "--time-in-tau"])
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

    def test_twenty_sites_peak_within_two_and_a_half_states(self, tmp_path):
        # the 2^20 state is 16 MiB: the input and the evolved state are held,
        # state.json is written in row chunks and populations sector by sector
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["--out", str(out), "evolve", "--n", "20", "--theta", "0.5pi",
                         "--tau", "1", "--excite", "1,5", "--time", "0.7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2.5 * 16 * 2**20
        assert sum(_result(out)["result"]["populations"]) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n,sites", [
        (15, (1, 2, 3, 4, 5, 6, 7)),
        (16, (1, 3, 5, 7, 9, 11, 13, 15)),
        (20, (1, 5)),
    ], ids=["n15_k7", "n16_half", "n20_k2"])
    def test_matches_scenario_populations(self, tmp_path, n, sites):
        # the Givens network of evolve against run_scenario's one-body
        # density matrix, an engine that shares no code with it
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", str(n), "--theta", "0.5pi",
                     "--tau", "1", "--excite", ",".join(map(str, sites)), "--time", "0.7"])
        assert code == EXIT_OK
        want = run_scenario(Scenario(n, 0.5 * np.pi, sites, t_final=0.7), n_steps=1)
        got = _result(out)["result"]["populations"]
        assert np.abs(np.array(got) - want.populations[-1]).max() < 1e-12

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

    @pytest.mark.parametrize("time", ["inf", "nan", "-1"])
    def test_bad_time_refused(self, tmp_path, capsys, time):
        out = tmp_path / "o"
        code = main(["--out", str(out), "evolve", "--n", "3", "--theta", "pi",
                     "--tau", "1", "--excite", "1", "--time", time])
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

    @pytest.mark.parametrize("argv,digest", [
        (["--n", "8", "--theta", "0.5pi", "--j-max", "1e6"],
         "047f67e37ccab309b88c89d3af672b76992d2707d0d6fff7af7cc7899c74e8a8"),
        (["--n", "9", "--theta", "-2", "--j-max", "0.7"],
         "bd00743c4ad9a3e8e9568d2c8802df2d62a77bbba89894b1505f569369d12824"),
    ], ids=["n8", "n9"])
    def test_decompose_file_format(self, tmp_path, argv, digest):
        # circuit.json byte for byte: gate order, key order, float text
        out = tmp_path / "o"
        assert main(["--out", str(out), "decompose"] + argv) == EXIT_OK
        assert hashlib.sha256((out / "circuit.json").read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("n", ["1025", "1000000000"])
    def test_decompose_oversized_refused(self, tmp_path, capsys, n):
        # N(N-1)/2 gates above DECOMPOSITION_GATE_LIMIT: refused before the
        # swap schedule is built
        out = tmp_path / "o"
        argv = ["--out", str(out), "decompose", "--n", n, "--theta", "pi", "--j-max", "1e6"]
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
        assert "limit" in err
        assert not out.exists()

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

    def test_bad_basis(self, tmp_path, capsys):
        for basis in ("01a", "", " "):
            out = tmp_path / "o"
            assert main(["--out", str(out), "parity", "--basis", basis]) == EXIT_BAD_INPUT
            assert capsys.readouterr().err == "error: basis must be a non-empty 0/1 string\n"
            assert not out.exists()

    def test_oversized_basis_refused(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "parity", "--basis", "0" * 40])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "content,code",
        [(None, EXIT_BAD_INPUT), ("[[1, 0],", EXIT_BAD_INPUT),
         ("[[1, 0], [0, 0], [0, 0]]", EXIT_VALIDATION), ("[]", EXIT_VALIDATION),
         ("[[1, 2, 3]]", EXIT_BAD_INPUT), ('{"a": 1}', EXIT_BAD_INPUT)],
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

    def test_oversized_steps_refused(self, tmp_path, capsys):
        # 1e12 steps of 9 populations (7.28 TiB of times alone) are refused
        # before anything is allocated
        f = self._scenario_file(tmp_path, {"n_sites": 9, "theta": 1.0, "excitations": [1, 4]})
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["--out", str(out), "scenario", str(f), "--steps", str(10**12)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_chain_refused(self, tmp_path, capsys):
        f = self._scenario_file(tmp_path, {"n_sites": 2049, "theta": 1.0, "excitations": [1]})
        out = tmp_path / "o"
        assert main(["--out", str(out), "scenario", str(f)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_populations_csv_shape(self, tmp_path):
        f = self._scenario_file(tmp_path, {"n_sites": 4, "theta": 1.0, "excitations": [2]})
        out = tmp_path / "o"
        assert main(["--out", str(out), "scenario", str(f), "--steps", "10"]) == EXIT_OK
        lines = (out / "populations.csv").read_text().strip().split("\n")
        assert lines[0] == "t,p_1,p_2,p_3,p_4"
        assert len(lines) == 12
        assert all(len(line.split(",")) == 5 for line in lines)

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
         ["--theta", "pi", "--tau-final", "nan"], ["--theta", "pi", "--tau-final", "1e-12"],
         ["--theta", "pi", "--budget", "0"],
         # so long that the smallest seed amplitude overshoots the coupling
         ["--theta", "pi", "--tau-final", "1"]],
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


    @pytest.mark.parametrize(
        "content,code",
        [(None, EXIT_BAD_INPUT), ('{"w1":', EXIT_BAD_INPUT), ("missing w1", EXIT_BAD_INPUT),
         ("[]", EXIT_BAD_INPUT), ("nested too deep", EXIT_BAD_INPUT),
         ("dc1 2", EXIT_VALIDATION), ("w1 NaN", EXIT_VALIDATION)],
    )
    def test_bad_device_file(self, tmp_path, capsys, content, code):
        # unreadable or malformed -> 1; a value that parsed but is refused -> 2
        path = tmp_path / "device.json"
        body = json.loads(device.table_s1_spec().to_json())
        if content == "nested too deep":
            content = "[" * 100_000 + "]" * 100_000
        elif content == "w1 NaN":
            content = json.dumps({**body, "w1": float("nan")})
        elif content == "missing w1":
            del body["w1"]
            content = json.dumps(body)
        elif content == "dc1 2":
            content = json.dumps({**body, "dc1": 2})
        if content is not None:
            path.write_text(content)
        out = tmp_path / "o"
        argv = ["--out", str(out), "device-zz-scan", "--points", "1", "--device", str(path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "result.json").exists()


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


_SCENARIO_TIMES = st.floats(-1, 3) | st.sampled_from(
    [0, 2, float("nan"), float("inf"), 10**400, "1", None, True]
)
_SCENARIO_SITES = st.integers(-1, 11) | st.sampled_from(["3", 2.0, True, None])


class _Body(str):
    """JSON text that the fuzz test writes to a file and passes by its path."""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@st.composite
def _state_body(draw):
    """A state JSON text: 2^n [re, im] pairs (n in 0..4), normalized or
    with components of any size and kind, or any JSON value."""
    kind = draw(st.sampled_from(["normalized", "pairs", "json"]))
    if kind == "json":
        return _Body(json.dumps(draw(_JSON)))
    n = draw(st.integers(0, 4))
    amp = st.floats(-1, 1) if kind == "normalized" else st.floats() | st.integers(-1, 1)
    pairs = draw(st.lists(st.tuples(amp, amp), min_size=2**n, max_size=2**n))
    if kind == "normalized":
        pairs = np.array(pairs)
        norm = np.linalg.norm(pairs)
        pairs = (pairs / norm if norm > 0 else pairs).tolist()
    return _Body(json.dumps(pairs))


_DEVICE = json.loads(device.table_s1_spec().to_json())


@st.composite
def _device_body(draw):
    """A device JSON text: Table S1 with up to two fields missing or drawn
    out of range or of the wrong type, or any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return _Body(json.dumps(draw(_JSON)))
    body = dict(_DEVICE)
    value = (st.floats(-10, 10) | st.sampled_from([0, 2, -1, 1e300, 10**400, None, "x", [1.0]])
             | st.floats())
    for key in draw(st.lists(st.sampled_from(sorted(body)), max_size=2)):
        if draw(st.booleans()):
            body.pop(key, None)
        else:
            body[key] = draw(value)
    return _Body(json.dumps(body))


@st.composite
def _scenario_body(draw):
    """A scenario JSON text: well-formed with sorted x-flips inside 2 tau,
    or with any field drawn out of range, of the wrong type or missing."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        sites = st.integers(1, n)
        times = sorted(draw(st.lists(st.floats(0.0, 2.0), max_size=3)))
        return _Body(json.dumps({
            "n_sites": n, "theta": draw(st.floats(0.05, np.pi)),
            "excitations": draw(st.lists(sites, unique=True, max_size=min(n, 4))),
            "events": [{"t": t, "kind": "xflip", "site": draw(sites)} for t in times],
        }))
    event = st.fixed_dictionaries({
        "t": _SCENARIO_TIMES, "kind": st.sampled_from(["xflip", "zflip"]),
        "site": _SCENARIO_SITES,
    })
    body = {
        "n_sites": draw(st.integers(-1, 10) | st.sampled_from([64, "8", 2.5, None])),
        "theta": draw(st.floats(allow_nan=True) | st.sampled_from(["pi", None])),
        "excitations": draw(st.lists(_SCENARIO_SITES, max_size=4)),
        "events": draw(st.lists(event | st.just({"t": 0.5}), max_size=3)
                       | st.sampled_from([{}, "x", 3])),
    }
    if draw(st.booleans()):
        body["t_final"] = draw(_SCENARIO_TIMES)
    if draw(st.booleans()):
        del body[draw(st.sampled_from(sorted(body)))]
    return _Body(draw(st.just(json.dumps(body)) | st.sampled_from(["[]", "3", "{", "null"])))


@st.composite
def _cli_argv(draw):
    """Arguments for parity, decompose, speed-sweep, device-zz-scan,
    synthesize, spectrum, scenario, verify-mapping or evolve, sizes kept
    small or above the size guards, and for device-optimize with the angle
    or the gate length out of range.  An input file (scenario, --state-file,
    --device) appears as its JSON text, a _Body, in place of its path."""
    command = draw(st.sampled_from(
        ["parity", "decompose", "speed-sweep", "device-zz-scan", "device-optimize",
         "synthesize", "spectrum", "scenario", "verify-mapping", "evolve"]
    ))
    if command in ("synthesize", "spectrum"):
        return [command, "--n", str(draw(st.integers(-2, 40))), "--theta", draw(_ANGLES),
                draw(st.sampled_from(["--tau", "--j-max"])), draw(_FLOATS)]
    if command == "scenario":
        steps = draw(st.sampled_from(["-1", "0", "1", "3", "2.5", "x"]))
        return ["scenario", draw(_scenario_body()), "--steps", steps]
    if command == "verify-mapping":
        return ["verify-mapping", "--n", str(draw(st.integers(-2, 14))),
                "--theta", draw(_ANGLES), "--tau", draw(_FLOATS)]
    if command == "evolve":
        n = draw(st.integers(-2, 12) | st.sampled_from(_STATE_REFUSED))
        sites = draw(st.lists(st.integers(-1, 13), max_size=3))
        state = draw(st.just(["--excite", ",".join(map(str, sites))])
                     | _state_body().map(lambda body: ["--state-file", body]))
        return ["evolve", "--n", str(n), "--theta", draw(_ANGLES), "--tau", draw(_FLOATS),
                *state, "--time", draw(_FLOATS)]
    if command == "device-zz-scan":
        phis = st.sampled_from(["0", "0.3", "0.45", "-1", "2", "1e300", "nan", "inf", "x"])
        points = st.sampled_from(["-1", "0", "1", "2", "3", str(10**7), "2.5"])
        spec = draw(st.just([]) | _device_body().map(lambda body: ["--device", body]))
        return ["device-zz-scan", "--phi-min", draw(phis), "--phi-max", draw(phis),
                "--points", draw(points), *spec]
    if command == "device-optimize":
        bad_theta = st.sampled_from(["0", "-0.4", "2pi", "nan", "inf", "x"])
        bad_tau = st.sampled_from(["0", "-1", "-212e-9", "nan", "inf", "1e-12", "abc"])
        theta, tau = draw(st.sampled_from([(bad_theta, _FLOATS), (_ANGLES, bad_tau)]))
        return ["device-optimize", "--theta", draw(theta), "--tau-final", draw(tau)]
    if command == "parity":
        basis = draw(st.text(alphabet="01", max_size=8) | st.sampled_from(["01a", " 1"]))
        shots = draw(st.integers(-10, 10**6) | st.just(2**64))
        state = draw(st.just(["--basis", basis])
                     | _state_body().map(lambda body: ["--state-file", body]))
        return ["parity", *state, "--shots", str(shots),
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


@settings(max_examples=100, deadline=None)
@given(argv=_cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    err = io.StringIO()
    refused = _refused_size(argv)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            mock.patch.object(device, "propagate", _no_propagation):
        path = Path(tmp) / "input.json"
        for arg in argv:
            if isinstance(arg, _Body):
                path.write_text(arg)
        argv = [str(path) if isinstance(arg, _Body) else arg for arg in argv]
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
