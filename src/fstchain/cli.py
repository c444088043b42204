"""Batch command-line front-end.

Every command writes a machine-readable ``result.json`` (input echo,
package version, wall time) plus command-specific CSV artifacts into the
output directory.  Exit codes: 0 success, 1 malformed input, 2 validation
failure, 3 numerical-tolerance failure.

Each handler ``cmd_*(args, out)`` writes only its own artifacts and returns
``(inputs, payload, exit_code)``; ``main`` writes ``result.json`` and maps
errors to exit codes: a ``CliError`` exits with its own code (1 for an
unreadable or malformed argument or file), any other ``ValueError`` (a
refused value, ``SynthesisError`` included) exits 2.

Angles accept plain radians or ``pi`` literals such as ``0.5pi``.
Frequencies on the command line are in Hz (converted to rad/s inside).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, device, gates, protocols, synthesis
from .propagator import (
    basis_state, evolve_state, site_populations, split_sectors, state_from_json,
    write_state_json,
)
from .synthesis import ChainSpec, synthesize

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def parse_angle(text: str) -> float:
    """Parse '0.5pi', 'pi', or a plain number in radians."""
    s = text.strip().lower().replace(" ", "")
    try:
        if s.endswith("pi"):
            head = s[:-2]
            return (float(head) if head not in ("", "+", "-") else float(head + "1")) * np.pi
        return float(s)
    except ValueError:
        raise CliError(f"cannot parse angle {text!r}", EXIT_BAD_INPUT) from None


def _write_result(out_dir: Path, command: str, inputs: dict, payload: dict, t0: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "command": command,
        "inputs": inputs,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "result": payload,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """Write the header and the rows, each row through one % string built
    from the first row's column types: %.17g for floats, %s otherwise.
    Every row has the first row's column types."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    fmt = None
    for row in rows:
        if fmt is None:
            fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row)
        lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n")


def _read_input(path: str, parse, what: str):
    """parse(text of the file at path).  An unreadable or malformed file
    (a number with no float, nesting too deep to decode included) exits 1;
    a ValueError from parse, a value that parsed but is refused, reaches
    main, which exits 2."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            OverflowError, RecursionError) as exc:
        raise CliError(f"bad {what} file: {exc}", EXIT_BAD_INPUT) from None


def _parse_state(text: str) -> np.ndarray:
    psi = state_from_json(text)
    # no amplitude of a normalized state exceeds 1 (to parity_measure's 1e-8
    # tolerance); this also refuses NaN and infinite amplitudes
    if not (np.abs(psi) <= 1 + 1e-8).all():
        raise ValueError("state amplitudes must be finite with modulus <= 1")
    return psi


def _chain_spec(args) -> ChainSpec:
    return ChainSpec(
        n_sites=args.n,
        theta=parse_angle(args.theta),
        tau=args.tau,
        j_max=2 * np.pi * args.j_max if args.j_max is not None else None,
    )


def cmd_synthesize(args, out: Path):
    spec = _chain_spec(args)
    params = synthesize(spec)
    _write_csv(
        out / "chain.csv",
        ["n", "J_n", "Delta_n"],
        [
            (
                n + 1,
                float(params.couplings[n]) if n < params.n_sites - 1 else 0.0,
                float(params.detunings[n]),
            )
            for n in range(params.n_sites)
        ],
    )
    rng = synthesis.detuning_range(params, spec)
    return json.loads(spec.to_json()), {
        "tau": params.tau,
        "couplings": list(params.couplings),
        "detunings": list(params.detunings),
        "detuning_range_direct": rng.direct,
        "detuning_range_formula": rng.formula,
        "detuning_range_matches_formula": rng.matches_formula,
    }, EXIT_OK


def cmd_spectrum(args, out: Path):
    spec = _chain_spec(args)
    params = synthesize(spec)
    report = synthesis.spectrum_check(params, spec.theta)
    _write_csv(
        out / "spectrum.csv",
        ["k", "eigenvalue", "gap_tau_mod_2pi"],
        [
            (k + 1, float(report.eigenvalues[k]),
             float(report.gaps_tau_mod_2pi[k]) if k < len(report.gaps_tau_mod_2pi) else 0.0)
            for k in range(len(report.eigenvalues))
        ],
    )
    return json.loads(spec.to_json()), {
        "nondegenerate": report.nondegenerate,
        "gap_pattern_ok": report.gap_pattern_ok,
        "symmetry_alternation_ok": report.symmetry_alternation_ok,
        "transfer_phase": report.transfer_phase,
        "failures": report.failures,
    }, EXIT_OK if report.ok else EXIT_TOLERANCE


def cmd_evolve(args, out: Path):
    spec = _chain_spec(args)
    params = synthesize(spec)
    try:
        sites = [int(s) for s in args.excite.split(",")] if args.excite else []
    except ValueError:
        raise CliError(f"cannot parse --excite {args.excite!r}", EXIT_BAD_INPUT) from None
    psi = (
        _read_input(args.state_file, _parse_state, "state")
        if args.state_file
        else basis_state(spec.n_sites, sites)
    )
    t = args.time * params.tau if args.time_in_tau else args.time
    final = evolve_state(psi, params, t)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "state.json", "w") as fh:
        write_state_json(final, fh)
        fh.write("\n")
    pops = site_populations(spec.n_sites, split_sectors(final))
    return (
        {"spec": json.loads(spec.to_json()), "excite": sites, "t": t},
        {"populations": pops.tolist(), "norm": float(np.linalg.norm(final))},
        EXIT_OK,
    )


def cmd_verify_mapping(args, out: Path):
    spec = _chain_spec(args)
    report = gates.verify_mapping(synthesize(spec), spec.theta)
    return json.loads(spec.to_json()), {
        "distance": report.distance,
        "transfer_phase": report.transfer_phase,
        "ok": report.ok,
    }, EXIT_OK if report.ok else EXIT_TOLERANCE


def cmd_decompose(args, out: Path):
    theta = parse_angle(args.theta)
    j_max = 2 * np.pi * args.j_max
    try:
        circuit = gates.compile_decomposition(args.n, theta, j_max)
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from None
    out.mkdir(parents=True, exist_ok=True)
    circuit.write_json(out / "circuit.json")
    counts = circuit.gate_counts()
    return {"n_sites": args.n, "theta": theta, "j_max": j_max}, {
        "fswap_count": counts.get("FSwap", 0),
        "iswap_count": counts.get("ISwapTheta", 0),
        "layers": len(circuit.layers),
        "total_duration": circuit.total_duration,
    }, EXIT_OK


def _parse_range(text: str):
    try:
        lo, sep, hi = text.partition("..")
        n_lo, n_hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise CliError(f"cannot parse range {text!r}", EXIT_BAD_INPUT) from None
    if n_lo > n_hi:
        raise CliError(f"empty range {text!r}: {n_lo} > {n_hi}", EXIT_VALIDATION)
    return n_lo, n_hi


def cmd_speed_sweep(args, out: Path):
    n_lo, n_hi = _parse_range(args.n)
    thetas = [parse_angle(s) for s in args.theta.split(",")]
    for theta in thetas:
        # refuse an oversized chain or a bad angle before any O(N) row is built
        ChainSpec(n_sites=n_hi, theta=theta, j_max=1.0)
    rows = []
    for n in range(n_lo, n_hi + 1):
        for theta in thetas:
            spec = ChainSpec(n_sites=n, theta=theta, j_max=1.0)
            t_fst = synthesis.solve_gate_time(spec)
            t_dec = gates.decomposition_duration(n, theta, 1.0)
            even = n % 2 == 0
            # sqrt(3) N / sqrt(N^2 - 4) is the even-N asymptote for N > 2 only
            asym_sqrt3 = np.sqrt(3) * n / np.sqrt(n**2 - 4) if even and n > 2 else float("nan")
            rows.append(
                (n, "even" if even else "odd", float(theta), float(t_fst),
                 float(t_dec), float(t_dec / t_fst), float(asym_sqrt3), 2.0)
            )
    _write_csv(
        out / "speed_sweep.csv",
        ["N", "parity", "theta", "t_fst", "t_decomp", "ratio",
         "asymptote_sqrt3", "asymptote_two"],
        rows,
    )
    return (
        {"n": args.n, "theta": args.theta},
        {"rows": len(rows), "min_ratio": min(r[5] for r in rows)},
        EXIT_OK,
    )


def cmd_parity(args, out: Path):
    if not 0 <= args.shots < 2**63:
        raise CliError(f"--shots must be in 0..2^63-1, got {args.shots}", EXIT_VALIDATION)
    if args.state_file:
        psi = _read_input(args.state_file, _parse_state, "state")
    elif args.basis is not None:
        bits = args.basis.strip()
        if not bits or not set(bits) <= {"0", "1"}:
            raise CliError("basis must be a non-empty 0/1 string", EXIT_BAD_INPUT)
        psi = basis_state(len(bits), [i + 1 for i, b in enumerate(bits) if b == "1"])
    else:
        raise CliError("need --state-file or --basis", EXIT_BAD_INPUT)
    res = protocols.parity_measure(psi)
    payload = {
        "left_ancilla_one_probability": res.left_ancilla_one_probability,
        "inferred_parity": res.inferred_parity,
        "protocol_duration": res.protocol_duration,
    }
    if args.shots:
        rng = np.random.default_rng(args.seed)
        payload["shot_ones"] = int(
            rng.binomial(args.shots, res.left_ancilla_one_probability)
        )
        payload["shots"] = args.shots
    inputs = {"basis": args.basis, "state_file": args.state_file, "shots": args.shots,
              "seed": args.seed}
    return inputs, payload, EXIT_OK


def cmd_scenario(args, out: Path):
    scenario = _read_input(args.scenario, protocols.Scenario.from_json, "scenario")
    result = protocols.run_scenario(scenario, n_steps=args.steps)
    n = scenario.n_sites
    _write_csv(
        out / "populations.csv", ["t"] + [f"p_{i}" for i in range(1, n + 1)],
        np.column_stack((result.times, result.populations)).tolist(),
    )
    return json.loads(scenario.to_json()), {
        "tau": result.tau,
        "final_populations": [float(p) for p in result.populations[-1]],
    }, EXIT_OK


def _device_spec(args) -> device.DeviceSpec:
    if args.device:
        return _read_input(args.device, device.DeviceSpec.from_json, "device")
    return device.table_s1_spec()


def cmd_device_optimize(args, out: Path):
    spec = _device_spec(args)
    theta = parse_angle(args.theta)
    seed_cfg = device.seed_pulse_config(spec, theta, args.tau_final)
    res = device.optimize_pulse(spec, theta, seed_cfg, budget=args.budget)
    _write_csv(
        out / "trace.csv",
        ["eval", "infidelity", "leakage", "phiA1", "phiA2", "wd1", "wd2", "wall_s"],
        [(int(e[0]),) + tuple(float(v) for v in e[1:]) for e in res.trace],
    )
    return {"theta": theta, "tau_final": args.tau_final, "budget": args.budget}, {
        "infidelity": res.metrics.infidelity,
        "leakage": res.metrics.leakage,
        "z_corrections": list(res.metrics.z_corrections),
        "config": json.loads(res.config.to_json()),
        "n_evaluations": res.n_evaluations,
        "converged": res.converged,
    }, EXIT_OK if res.converged else EXIT_TOLERANCE


def cmd_device_zz_scan(args, out: Path):
    if not 1 <= args.points <= 10**6:
        raise CliError(f"--points must be in 1..10^6, got {args.points}", EXIT_VALIDATION)
    if not np.isfinite([args.phi_min, args.phi_max]).all():
        raise CliError("--phi-min and --phi-max must be finite", EXIT_VALIDATION)
    spec = _device_spec(args)
    phis = np.linspace(args.phi_min, args.phi_max, args.points)
    rows = []
    for phi in phis:
        zs = []
        for kwargs, pair in (
            ({"phi_c1": float(phi)}, (1, 2)),
            ({"phi_c2": float(phi)}, (2, 3)),
        ):
            try:
                zs.append(float(device.zz_coupling(spec, pair=pair, **kwargs)))
            except RuntimeError:
                # dressed-state identification ambiguous (coupler resonant
                # with a qubit at this flux): record the point as undefined
                zs.append(float("nan"))
        rows.append((float(phi), zs[0], zs[1]))
    _write_csv(out / "zz_scan.csv", ["phi", "zeta12", "zeta23"], rows)
    z12s = np.array([r[1] for r in rows])
    signs = np.sign(z12s[~np.isnan(z12s)])
    crossings = int(np.sum(np.abs(np.diff(signs)) > 0))
    return (
        {"phi_min": args.phi_min, "phi_max": args.phi_max, "points": args.points},
        {"sign_changes_zeta12": crossings},
        EXIT_OK,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fstchain", description="fractional-state-transfer toolkit"
    )
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def chain_args(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--theta", required=True, help="angle, e.g. 0.5pi")
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--tau", type=float, help="transfer time (s)")
        g.add_argument("--j-max", type=float, help="max coupling (Hz)")

    chain_args(sub.add_parser("synthesize"))
    chain_args(sub.add_parser("spectrum"))
    sp = sub.add_parser("evolve")
    chain_args(sp)
    sp.add_argument("--excite", default="", help="comma-separated sites")
    sp.add_argument("--state-file")
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--time-in-tau", action="store_true")
    chain_args(sub.add_parser("verify-mapping"))
    sp = sub.add_parser("decompose")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--j-max", type=float, required=True, help="Hz")
    sp = sub.add_parser("speed-sweep")
    sp.add_argument("--n", required=True, help="range like 5..40")
    sp.add_argument("--theta", required=True, help="comma list, e.g. 0.1pi,pi")
    sp = sub.add_parser("parity")
    sp.add_argument("--basis", help="bitstring like 0101")
    sp.add_argument("--state-file")
    sp.add_argument("--shots", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("scenario")
    sp.add_argument("scenario", help="scenario JSON file")
    sp.add_argument("--steps", type=int, default=200)
    sp = sub.add_parser("device-optimize")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--tau-final", type=float, default=212e-9)
    sp.add_argument("--budget", type=int, default=200)
    sp.add_argument("--device", help="DeviceSpec JSON file (GHz)")
    sp = sub.add_parser("device-zz-scan")
    sp.add_argument("--phi-min", type=float, default=0.0)
    sp.add_argument("--phi-max", type=float, default=0.45)
    sp.add_argument("--points", type=int, default=46)
    sp.add_argument("--device")
    return p


_HANDLERS = {
    "synthesize": cmd_synthesize,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "verify-mapping": cmd_verify_mapping,
    "decompose": cmd_decompose,
    "speed-sweep": cmd_speed_sweep,
    "parity": cmd_parity,
    "scenario": cmd_scenario,
    "device-optimize": cmd_device_optimize,
    "device-zz-scan": cmd_device_zz_scan,
}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    out = Path(args.out)
    try:
        inputs, payload, code = _HANDLERS[args.command](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_result(out, args.command, inputs, payload, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
