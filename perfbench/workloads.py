"""The three benchmark workloads: seeded inputs, operations and checks.

A workload is a list of operations.  Each operation has a ``run`` part,
made only of calls into fstchain (timed, and traced when tracing is on),
and a ``check`` part that compares the outputs with the references in
``checks`` (not timed).  ``make_inputs(seed)`` builds every input from the
seed; the program sees only those inputs.

Why these workloads: ``chain_dynamics`` is dominated by the m x m
determinant lift of the sector evolution, ``gate_algebra`` by dense 2^N and
4^N matrices (K_N, circuit unitaries, the 2^(N+2) parity lift) and
``device_pulse`` by the 147 x 147 ``eigh`` calls of the CF4 propagator.
Each leaves the other two hot spots idle.  A workload that never calls a
module makes one cheap closed-form probe call into it (``layer_probe``),
so every layer has spans on every workload.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    below,
    comp_bits,
    even_weight,
    holds,
    k_column,
    k_expm,
    generator,
    orthonormality_error,
    pair_rule,
    pattern,
    pauli_expectation,
    segment_drift,
    site_populations,
    swap_counts,
    swap_duration,
    x_flip,
    z_layer_residual,
)
from fstchain import cli, device, gates, propagator, protocols, synthesis
from tracing import Tracer

PI = math.pi
MHZ = 2 * PI * 1e6
TOL_PAIR = 1e-9        # pair rule and reversal (about 1e-14 in practice)
TOL_DRIFT = 1e-10      # sum_n p_n between events
TOL_LANDMARK = 1e-6    # Fig. 2 landmarks, as in the acceptance criterion


@dataclass
class Ctx:
    """What one round's operations share: the tracer, a directory for CLI
    output and the outputs of earlier operations."""

    tr: Tracer
    out: Path
    state: dict


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str  # reference kernel of clock.py, of the same kind as the hot spot
    make_inputs: Callable
    ops: tuple


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cli(ctx: Ctx, tag: str, argv: list) -> tuple:
    """Run one fstchain command in-process; returns (exit code, out dir)."""
    out = ctx.out / tag
    code = ctx.tr.call("cli", cli.main, ["--out", str(out)] + argv)
    ctx.tr.add("cli.bytes_written", sum(f.stat().st_size for f in out.rglob("*") if f.is_file()))
    return code, out


def _read_csv_bytes(data: bytes) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return np.array([[float(v) for v in r] for r in rows[1:]])


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


# ------------------------------------------------------------ layer probes
# One cheap public call per module, with a closed-form check, for the
# workloads that otherwise leave the module idle.


def _probe_synthesis(ctx):
    return ctx.tr.call("synthesis", synthesis.synthesize,
                       synthesis.ChainSpec(n_sites=3, theta=PI / 2, tau=1.0))


def _probe_propagator(ctx):
    params = synthesis.ChainParams(
        couplings=[math.sqrt(3 * PI**2 / 8)] * 2, detunings=[0.0, -PI, 0.0], tau=1.0
    )
    return ctx.tr.call("propagator", propagator.single_propagator, params, 1.0)


def _probe_gates(ctx):
    return ctx.tr.call("gates", gates.iswap_matrix, PI / 3)


def _probe_protocols(ctx):
    return ctx.tr.call("protocols", protocols.parity_measure, np.array([0.0, 1.0 + 0j]))


def _probe_device(ctx):
    spec = ctx.tr.call("device", device.table_s1_spec)
    cfg = device.PulseConfig(amp1=0.05, amp2=0.05, wd1=60 * MHZ, wd2=85 * MHZ, tau_final=10e-9)
    cols = ctx.tr.call("device", device.dressed_basis, spec, 3)
    t0 = time.perf_counter()
    u = ctx.tr.call("device", device.propagate, spec, cfg, 4, nmax=3, columns=cols)
    met = ctx.tr.call("device", device.gate_metrics, u, PI, spec, cfg, nmax=3)
    ctx.tr.add("device.pulse_evals")
    ctx.state.setdefault("eval_times", []).append(time.perf_counter() - t0)
    return u, met


def _check_probe(layer, out):
    if layer == "synthesis":
        # N=3 at theta: J tau = sqrt((pi - theta/2) theta)
        err = abs(out.couplings[0] * out.tau - math.sqrt((PI - PI / 4) * PI / 2))
        return [below("probe synthesis N=3 J*tau", err, 1e-12)]
    if layer == "propagator":
        # the N=3, theta=pi/2 chain moves sin^2(pi/4) of site 1 to site 3 at tau
        return [below("probe propagator N=3 |U31|^2", abs(abs(out[2, 0]) ** 2 - 0.5), 1e-12)]
    if layer == "gates":
        c, s = math.cos(PI / 6), math.sin(PI / 6)
        want = np.array([[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]])
        return [below("probe gates iSWAP(pi/3) block", np.abs(out - want).max(), 1e-15)]
    if layer == "protocols":
        # |1> has odd parity: the left ancilla never reads 1
        return [below("probe protocols parity of |1>", out.left_ancilla_one_probability, 1e-12)]
    u, met = out
    return [
        below("probe device 10 ns pulse column orthonormality", orthonormality_error(u), 1e-8),
        holds("probe device fidelity/leakage in [0,1]",
              0 <= met.avg_fidelity <= 1 and 0 <= met.leakage <= 1,
              f"F={met.avg_fidelity:.6f} L={met.leakage:.2e} vs [0, 1]"),
    ]


_PROBES = {
    "synthesis": _probe_synthesis,
    "propagator": _probe_propagator,
    "gates": _probe_gates,
    "protocols": _probe_protocols,
    "device": _probe_device,
}


def _probe_op(*layers) -> Op:
    def run(inp, ctx):
        return {layer: _PROBES[layer](ctx) for layer in layers}

    def check(inp, out):
        return [c for layer in layers for c in _check_probe(layer, out[layer])]

    return Op("layer_probe", run, check)


# ---------------------------------------------------------- chain_dynamics


def _scenario(n, theta, sites, flip_site=None):
    events = [] if flip_site is None else [{"t": 1.0, "kind": "xflip", "site": flip_site}]
    return {"n_sites": n, "theta": theta, "excitations": list(sites), "events": events}


def chain_inputs(seed: int) -> dict:
    rng = _rng(seed, 1)

    def sites(n, k):
        return sorted(int(s) for s in rng.choice(np.arange(1, n + 1), size=k, replace=False))

    def angle():
        return float(rng.uniform(0.15, 0.95) * PI)

    n_sup = 15
    psi = np.zeros(2**n_sup, dtype=complex)
    for k in (1, 2, 3):
        for _ in range(2):
            idx = sum(1 << (n_sup - s) for s in sites(n_sup, k))
            psi[idx] += rng.normal() + 1j * rng.normal()
    return {
        # Fig. 2 of the paper, fixed: (a) one excitation, (b) {1, 8} with an
        # x-flip of the middle site at tau, which sends site 1 back home
        "fig2_plain": (_scenario(15, PI / 2, [1]), 200),
        "fig2_flip": (_scenario(15, PI / 2, [1, 8], 8), 40),
        "k2_n15": (_scenario(15, angle(), sites(15, 2), 8), 20),
        "k3_n13": (_scenario(13, angle(), sites(13, 3), 7), 4),
        "superposition": (n_sup, angle(), psi / np.linalg.norm(psi)),
    }


def _scenario_checks(tag, sc, steps, pops, flipped=True):
    n, theta, sites = sc["n_sites"], sc["theta"], sc["excitations"]
    half = steps // 2
    at_tau = pair_rule(n, theta, sites)
    out = []
    if flipped:
        mid = (n + 1) // 2
        at_tau[mid - 1] = 1 - at_tau[mid - 1]  # the row at tau is after the flip
        back = pattern(n, sites)
        back[mid - 1] = 1 - back[mid - 1]
        out.append(below(f"{tag} reversal at 2tau", np.abs(pops[steps] - back).max(), TOL_PAIR))
        drift = max(segment_drift(pops, 0, half), segment_drift(pops, half, steps + 1))
    else:
        drift = segment_drift(pops, 0, steps + 1)
    out.append(below(f"{tag} pair rule at tau", np.abs(pops[half] - at_tau).max(), TOL_PAIR))
    out.append(below(f"{tag} sum p_n drift between events", drift, TOL_DRIFT))
    return out


def _scenario_cli(ctx, tag, sc, steps, calls):
    path = ctx.out / f"{tag}.json"
    path.write_text(json.dumps(sc))
    res = [_cli(ctx, f"{tag}-{i}", ["scenario", str(path), "--steps", str(steps)]) for i in range(calls)]
    ctx.tr.add("protocols.snapshots", calls * (steps + 1))
    return [(code, (out / "populations.csv").read_bytes()) for code, out in res]


def _run_fig2_plain(inp, ctx):
    return _scenario_cli(ctx, "fig2_plain", *inp["fig2_plain"], calls=2)


def _check_fig2_plain(inp, out):
    sc, steps = inp["fig2_plain"]
    (code_a, csv_a), (code_b, csv_b) = out
    pops = _read_csv_bytes(csv_a)[:, 1:]
    err = max(abs(pops[100, 0] - 0.5), abs(pops[100, 14] - 0.5), abs(pops[200, 14] - 1.0))
    return [
        holds("fig2a CLI exit codes", code_a == code_b == 0, f"{code_a}, {code_b} vs 0"),
        holds("fig2a CLI CSVs byte-identical", csv_a == csv_b, f"{len(csv_a)} B vs {len(csv_b)} B"),
        below("fig2a landmarks p1(tau) p15(tau) p15(2tau)", err, TOL_LANDMARK),
    ] + _scenario_checks("fig2a", sc, steps, pops, flipped=False)


def _run_fig2_flip(inp, ctx):
    return _scenario_cli(ctx, "fig2_flip", *inp["fig2_flip"], calls=1)[0]


def _check_fig2_flip(inp, out):
    sc, steps = inp["fig2_flip"]
    code, data = out
    pops = _read_csv_bytes(data)[:, 1:]
    return [
        holds("fig2b CLI exit code", code == 0, f"{code} vs 0"),
        below("fig2b landmark p1(2tau) = 1", abs(pops[steps, 0] - 1.0), TOL_LANDMARK),
    ] + _scenario_checks("fig2b", sc, steps, pops)


def _scenario_op(key: str) -> Op:
    def run(inp, ctx):
        sc, steps = inp[key]
        scenario = protocols.Scenario(
            n_sites=sc["n_sites"], theta=sc["theta"],
            excitations=tuple(sc["excitations"]), events=tuple(sc["events"]),
        )
        res = ctx.tr.call("protocols", protocols.run_scenario, scenario, n_steps=steps)
        ctx.tr.add("protocols.snapshots", len(res.times))
        return res.populations

    def check(inp, pops):
        sc, steps = inp[key]
        return _scenario_checks(key, sc, steps, pops)

    return Op(key, run, check)


def _run_superposition(inp, ctx):
    n, theta, psi0 = inp["superposition"]
    params = ctx.tr.call("synthesis", synthesis.synthesize,
                         synthesis.ChainSpec(n_sites=n, theta=theta, tau=1.0))
    at_tau = ctx.tr.call("propagator", propagator.evolve_state, psi0, params, params.tau,
                         method="sector")
    flipped = x_flip(at_tau, n, (n + 1) // 2)
    at_2tau = ctx.tr.call("propagator", propagator.evolve_state, flipped, params, params.tau,
                          method="sector")
    return at_tau, flipped, at_2tau


def _check_superposition(inp, out):
    n, _, psi0 = inp["superposition"]
    at_tau, flipped, at_2tau = out
    mid = (n + 1) // 2

    def excitations(psi):
        return site_populations(psi, n).sum()

    drift = max(abs(excitations(at_tau) - excitations(psi0)),
                abs(excitations(at_2tau) - excitations(flipped)))
    reversal = np.abs(np.abs(at_2tau) ** 2 - np.abs(x_flip(psi0, n, mid)) ** 2).max()
    return [
        below("superposition sum p_n conserved by each evolve", drift, TOL_DRIFT),
        below("superposition |psi(2tau)|^2 = |X_mid psi0|^2", reversal, TOL_PAIR),
    ]


CHAIN_DYNAMICS = Workload(
    "chain_dynamics",
    "sector",
    chain_inputs,
    (
        Op("fig2_plain_cli", _run_fig2_plain, _check_fig2_plain),
        Op("fig2_flip_cli", _run_fig2_flip, _check_fig2_flip),
        _scenario_op("k2_n15"),
        _scenario_op("k3_n13"),
        Op("superposition_n15", _run_superposition, _check_superposition),
        _probe_op("gates", "device"),
    ),
)


# ------------------------------------------------------------ gate_algebra


def gate_inputs(seed: int) -> dict:
    rng = _rng(seed, 2)

    def angle():
        return float(rng.uniform(0.1, 1.0) * PI)

    return {
        "mapping": (9, angle()),
        "mapping_cli": (9, angle()),
        "k10": (10, angle(), [int(b) for b in rng.choice(2**10, size=16, replace=False)]),
        "composition": (8, angle(), angle()),
        "decomposition_angles": [angle() for _ in range(3)],
        "parity_states": [_random_state(rng, 9) for _ in range(60)],
        "correlators": [
            (_random_state(rng, 8), "".join(rng.choice(list("XYZ"), size=8)))
            for _ in range(8)
        ],
        "repeated": _random_state(rng, 9),
        "lift": (9, angle(), float(rng.uniform(0.1, 2.0))),
    }


def _run_mapping(inp, ctx):
    n, theta = inp["mapping"]
    params = ctx.tr.call("synthesis", synthesis.synthesize,
                         synthesis.ChainSpec(n_sites=n, theta=theta, tau=1.0))
    return ctx.tr.call("gates", gates.verify_mapping, params, theta)


def _check_mapping(inp, report):
    return [below(f"verify_mapping N={inp['mapping'][0]} distance", report.distance, 1e-8)]


def _run_mapping_cli(inp, ctx):
    n, theta = inp["mapping_cli"]
    code, out = _cli(ctx, "verify", ["verify-mapping", "--n", str(n), "--theta", repr(theta),
                                     "--tau", "1.0"])
    return code, json.loads((out / "result.json").read_text())["result"]["distance"]


def _check_mapping_cli(inp, out):
    code, distance = out
    return [
        holds("verify-mapping CLI exit code", code == 0, f"{code} vs 0"),
        below(f"verify-mapping CLI N={inp['mapping_cli'][0]} distance", distance, 1e-8),
    ]


def _run_lift(inp, ctx):
    n, theta, t = inp["lift"]
    params = ctx.tr.call("synthesis", synthesis.synthesize,
                         synthesis.ChainSpec(n_sites=n, theta=theta, tau=1.0))
    u1 = ctx.tr.call("propagator", propagator.single_propagator, params, t)
    lifted = ctx.tr.call("propagator", propagator.lift_to_full, u1)
    return lifted, ctx.tr.call("propagator", propagator.dense_oracle, params, t)


def _check_lift(inp, out):
    lifted, dense = out
    n = inp["lift"][0]
    return [
        below(f"determinant lift = dense exponential, N={n}", np.abs(lifted - dense).max(), 1e-9),
        below(f"lifted propagator unitary, N={n}", orthonormality_error(lifted), 1e-10),
    ]


def _run_k10(inp, ctx):
    n, theta, _ = inp["k10"]
    return ctx.tr.call("gates", gates.effective_gate, n, theta)


def _check_k10(inp, k):
    n, theta, cols = inp["k10"]
    err = max(np.abs(k[:, b] - k_column(n, theta, b)).max() for b in cols)
    return [below(f"K_{n} on {len(cols)} columns vs closed form", err, 1e-12)]


def _run_composition(inp, ctx):
    n, a, b = inp["composition"]
    return [ctx.tr.call("gates", gates.effective_gate, n, t) for t in (a, b, a + b)]


def _check_composition(inp, out):
    ka, kb, kab = out
    n = inp["composition"][0]
    return [below(f"K_{n}(a) K_{n}(b) = K_{n}(a+b)", np.abs(ka @ kb - kab).max(), 1e-10)]


def _run_decomposition(inp, ctx):
    out = []
    for n in range(3, 9):
        for theta in inp["decomposition_angles"]:
            circuit = ctx.tr.call("gates", gates.compile_decomposition, n, theta, 1.0,
                                  verify=False)
            u = ctx.tr.call("gates", circuit.unitary)
            k = ctx.tr.call("gates", gates.effective_gate, n, theta)
            ok, _ = ctx.tr.call("gates", gates.z_layer_equivalent, u, k)
            out.append((n, theta, circuit.gate_counts(), circuit.total_duration, u, k, ok))
    return out


def _check_decomposition(inp, out):
    bad_counts, dur_err, z_err, k_err, program_ok = [], 0.0, 0.0, 0.0, True
    gens = {n: generator(n) for n in range(3, 9)}
    for n, theta, counts, duration, u, k, ok in out:
        if (counts.get("FSwap", 0), counts.get("ISwapTheta", 0)) != swap_counts(n):
            bad_counts.append(n)
        if n >= 5:
            dur_err = max(dur_err, abs(duration - swap_duration(n, 1.0)) / duration)
        z_err = max(z_err, z_layer_residual(u, k))
        k_err = max(k_err, np.abs(k - k_expm(n, theta, gens[n])).max())
        program_ok = program_ok and ok
    return [
        holds("swap-network gate counts N=3..8", not bad_counts,
              f"mismatch at N={bad_counts}" if bad_counts else "all equal closed form"),
        below("swap-network durations N=5..8 (relative)", dur_err, 1e-12),
        below("circuit Z-layer equivalent to K_N, N=3..8", z_err, 1e-8),
        holds("z_layer_equivalent agrees", program_ok, f"{program_ok} vs True"),
        below("K_N vs expm(-i theta/2 G_N) from Pauli products, N=3..8", k_err, 1e-10),
    ]


_SWEEP_ANGLES = np.linspace(0.05 * PI, PI, 9)


def _run_speed_gain(inp, ctx):
    grid = {(n, float(t)): ctx.tr.call("gates", gates.speed_gain, n, float(t))
            for n in range(5, 41) for t in _SWEEP_ANGLES}
    small = {n: ctx.tr.call("gates", gates.speed_gain, n, 1e-9) for n in range(6, 41, 2)}
    return grid, small, ctx.tr.call("gates", gates.speed_gain, 801, 1e-9)


def _check_speed_gain(inp, out):
    grid, small, odd_limit = out
    floor = min(grid.values())
    at_pi = min(v for (n, t), v in grid.items() if t == PI)
    asym = max(abs(v - math.sqrt(3) * n / math.sqrt(n * n - 4)) / v for n, v in small.items())
    return [
        holds("speed gain >= sqrt(3), N=5..40 x 9 angles", floor >= math.sqrt(3) - 1e-9,
              f"min {floor:.6f} vs {math.sqrt(3):.6f}"),
        holds("speed gain >= 2 at theta=pi", at_pi >= 2 - 1e-9, f"min {at_pi:.6f} vs 2"),
        below("even-N small-theta asymptote sqrt(3) N/sqrt(N^2-4) (relative)", asym, 1e-6),
        below("odd N=801 small-theta limit |ratio - 2|", abs(odd_limit - 2), 1e-2),
    ]


def _run_sweep_cli(inp, ctx):
    argv = ["speed-sweep", "--n", "5..40", "--theta", "0.05pi,0.5pi,pi"]
    res = [_cli(ctx, f"sweep-{i}", argv) for i in range(2)]
    return [(code, (out / "speed_sweep.csv").read_bytes()) for code, out in res]


def _check_sweep_cli(inp, out):
    (code_a, csv_a), (code_b, csv_b) = out
    rows = list(csv.DictReader(io.StringIO(csv_a.decode())))
    ratios = [float(r["ratio"]) for r in rows]
    at_pi = [float(r["ratio"]) for r in rows if abs(float(r["theta"]) - PI) < 1e-12]
    return [
        holds("speed-sweep CLI exit codes", code_a == code_b == 0, f"{code_a}, {code_b} vs 0"),
        holds("speed-sweep CLI CSVs byte-identical", csv_a == csv_b,
              f"{len(csv_a)} B vs {len(csv_b)} B"),
        holds("speed-sweep CLI rows N=5..40 x 3", len(rows) == 36 * 3, f"{len(rows)} vs 108"),
        holds("speed-sweep CLI floors (sqrt(3); 2 at pi)",
              min(ratios) >= math.sqrt(3) - 1e-9 and min(at_pi) >= 2 - 1e-9,
              f"min {min(ratios):.6f}, at pi {min(at_pi):.6f}"),
    ]


def _run_parity(inp, ctx):
    ctx.tr.add("protocols.parity_runs", len(inp["parity_states"]))
    return [ctx.tr.call("protocols", protocols.parity_measure, psi).left_ancilla_one_probability
            for psi in inp["parity_states"]]


def _check_parity(inp, probs):
    err = max(abs(p - even_weight(psi)) for p, psi in zip(probs, inp["parity_states"]))
    return [below(f"parity P(1) = even weight, {len(probs)} random 9-qubit states", err, 1e-8)]


def _run_correlators(inp, ctx):
    ctx.tr.add("protocols.parity_runs", len(inp["correlators"]))
    return [ctx.tr.call("protocols", protocols.correlator_measure, psi, labels)
            for psi, labels in inp["correlators"]]


def _check_correlators(inp, values):
    err = max(abs(v - pauli_expectation(psi, labels))
              for v, (psi, labels) in zip(values, inp["correlators"]))
    return [below(f"correlator = <psi|P|psi>, {len(values)} 8-qubit strings", err, 1e-8)]


_PARITY_ROUNDS = 4


def _run_repeated(inp, ctx):
    ctx.tr.add("protocols.parity_runs", _PARITY_ROUNDS)
    results, _ = ctx.tr.call("protocols", protocols.repeated_parity, inp["repeated"],
                             _PARITY_ROUNDS)
    return [r.left_ancilla_one_probability for r in results]


def _check_repeated(inp, probs):
    want = 1.0 if probs[0] >= 0.5 else 0.0
    err = max(abs(p - want) for p in probs[1:])
    return [below(f"repeated parity rounds 2..{len(probs)} repeat round 1", err, 1e-8)]


GATE_ALGEBRA = Workload(
    "gate_algebra",
    "dense",
    gate_inputs,
    (
        Op("verify_mapping_n9", _run_mapping, _check_mapping),
        Op("verify_mapping_cli_n9", _run_mapping_cli, _check_mapping_cli),
        Op("lift_vs_dense_n9", _run_lift, _check_lift),
        Op("effective_gate_n10", _run_k10, _check_k10),
        Op("k_composition_n8", _run_composition, _check_composition),
        Op("decomposition_n3_8", _run_decomposition, _check_decomposition),
        Op("speed_gain_sweep", _run_speed_gain, _check_speed_gain),
        Op("speed_sweep_cli", _run_sweep_cli, _check_sweep_cli),
        Op("parity_n9", _run_parity, _check_parity),
        Op("correlator_n8", _run_correlators, _check_correlators),
        Op("repeated_parity_n9", _run_repeated, _check_repeated),
        _probe_op("device"),
    ),
)


# ------------------------------------------------------------ device_pulse

THETA_DEVICE = PI
TAU_FINAL = 212e-9
NMAX = 5


def device_inputs(seed: int) -> dict:
    rng = _rng(seed, 3)
    return {
        # pulse evaluated near the theory seed, as the optimizer's inner loop does
        "amp_scale": rng.uniform(0.98, 1.02, size=2).tolist(),
        "wd_shift": (rng.uniform(-1.0, 1.0, size=2) * MHZ).tolist(),
        "ideal_thetas": [PI, float(rng.uniform(0.1, 1.0) * PI)],
        "global_phase": float(rng.uniform(0, 2 * PI)),
    }


def _run_seed(inp, ctx):
    spec = ctx.tr.call("device", device.table_s1_spec)
    cfg = ctx.tr.call("device", device.seed_pulse_config, spec, THETA_DEVICE, TAU_FINAL)
    ctx.state.update(spec=spec, seed_cfg=cfg)
    return cfg


def _check_seed(inp, cfg):
    # the flux excursion must stay on the bias branch: 0.3 + amp < 0.5
    return [holds("seed pulse amplitudes on the bias branch",
                  0 < cfg.amp1 < 0.2 and 0 < cfg.amp2 < 0.2,
                  f"({cfg.amp1:.4f}, {cfg.amp2:.4f}) vs (0, 0.2)")]


def _run_pulse_eval(inp, ctx):
    spec, seed_cfg = ctx.state["spec"], ctx.state["seed_cfg"]
    (s1, s2), (d1, d2) = inp["amp_scale"], inp["wd_shift"]
    cfg = replace(seed_cfg, amp1=seed_cfg.amp1 * s1, amp2=seed_cfg.amp2 * s2,
                  wd1=seed_cfg.wd1 + d1, wd2=seed_cfg.wd2 + d2)
    cols = ctx.tr.call("device", device.dressed_basis, spec, NMAX)
    ctx.state["cols"] = cols
    t0 = time.perf_counter()
    u = ctx.tr.call("device", device.propagate, spec, cfg, 4, nmax=NMAX, columns=cols)
    met = ctx.tr.call("device", device.gate_metrics, u, THETA_DEVICE, spec, cfg, nmax=NMAX)
    ctx.state.setdefault("eval_times", []).append(time.perf_counter() - t0)
    ctx.tr.add("device.pulse_evals")
    return u, met


def _check_pulse_eval(inp, out):
    u, met = out
    return [
        below("212 ns pulse: propagated columns orthonormal", orthonormality_error(u), 1e-8),
        holds("212 ns pulse: fidelity and leakage in [0, 1]",
              0 <= met.avg_fidelity <= 1 and 0 <= met.leakage <= 1,
              f"F={met.avg_fidelity:.6f} L={met.leakage:.2e} vs [0, 1]"),
    ]


def _run_halving(inp, ctx):
    spec, cols = ctx.state["spec"], ctx.state["cols"]
    cfg = replace(ctx.state["seed_cfg"], tau_final=10e-9)
    return [ctx.tr.call("device", device.propagate, spec, cfg, sub, nmax=NMAX, columns=cols)
            for sub in (8, 16)]


def _check_halving(inp, out):
    coarse, fine = out
    return [
        below("CF4 substep halving 8 -> 16 on a 10 ns pulse", np.abs(coarse - fine).max(), 1e-6),
        below("10 ns pulse: propagated columns orthonormal", orthonormality_error(fine), 1e-8),
    ]


def _run_ideal(inp, ctx):
    # an exact K_3 block, built without fstchain, fed to gate_metrics
    spec, cols = ctx.state["spec"], ctx.state["cols"]
    bits = comp_bits()
    out = []
    for theta in inp["ideal_thetas"]:
        zcorr = np.exp(1j * (bits @ np.array([theta / 2, theta, theta / 2])))
        block = np.exp(1j * inp["global_phase"]) * zcorr[:, None] * k_expm(3, theta)
        out.append(ctx.tr.call("device", device.gate_metrics, cols @ block, theta, spec,
                               nmax=NMAX))
    return out


def _check_ideal(inp, metrics):
    return [below("gate_metrics infidelity of an ideal K_3 block",
                  max(m.infidelity for m in metrics), 1e-12)]


def _run_zz_cli(inp, ctx):
    res = [_cli(ctx, f"zz-{i}", ["device-zz-scan", "--phi-min", "0", "--phi-max", "0.45",
                                 "--points", "46"]) for i in range(2)]
    return [(code, (out / "zz_scan.csv").read_bytes()) for code, out in res]


def _check_zz_cli(inp, out):
    (code_a, csv_a), (code_b, csv_b) = out
    rows = _read_csv_bytes(csv_a)
    window = rows[(rows[:, 0] >= 0.28 - 1e-12) & (rows[:, 0] <= 0.45 + 1e-12)]
    z12 = window[~np.isnan(window[:, 1]), 1]
    changes = int(np.sum(z12[:-1] * z12[1:] < 0))
    return [
        holds("device-zz-scan CLI exit codes", code_a == code_b == 0, f"{code_a}, {code_b} vs 0"),
        holds("device-zz-scan CLI CSVs byte-identical", csv_a == csv_b,
              f"{len(csv_a)} B vs {len(csv_b)} B"),
        holds("zeta12 changes sign on [0.28, 0.45] Phi0", changes >= 1,
              f"{changes} sign changes vs >= 1"),
    ]


DEVICE_PULSE = Workload(
    "device_pulse",
    "eigh",
    device_inputs,
    (
        Op("seed_pulse_config", _run_seed, _check_seed),
        Op("pulse_eval_212ns", _run_pulse_eval, _check_pulse_eval),
        Op("substep_halving_10ns", _run_halving, _check_halving),
        Op("ideal_k3_metrics", _run_ideal, _check_ideal),
        Op("zz_scan_cli", _run_zz_cli, _check_zz_cli),
        _probe_op("synthesis", "propagator", "gates", "protocols"),
    ),
)

WORKLOADS = {w.name: w for w in (CHAIN_DYNAMICS, GATE_ALGEBRA, DEVICE_PULSE)}
