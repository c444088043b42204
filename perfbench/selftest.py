"""Show that the benchmark's output checks can fail.

Each case feeds one check a correct output, built from the reference
computations, and a deliberately corrupted copy of it.  The case holds
when the correct output passes and the corrupted one fails.  Exits 1
if any case does not hold.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from checks import PAULI, even_weight, generator, k_expm, kron_all, pair_rule, pattern  # noqa: E402
from fstchain.device import GateMetrics  # noqa: E402


_X, _Y = PAULI["X"], PAULI["Y"]


def _scenario_case():
    """Populations with two sites swapped."""
    sc = w._scenario(15, 0.4 * np.pi, [2, 5], 8)
    steps, n, mid = 20, 15, 8
    at_tau = pair_rule(n, sc["theta"], sc["excitations"])
    at_tau[mid - 1] = 1 - at_tau[mid - 1]
    back = pattern(n, sc["excitations"])
    back[mid - 1] = 1 - back[mid - 1]
    pops = np.vstack([np.tile(pattern(n, sc["excitations"]), (steps // 2, 1)),
                      np.tile(at_tau, (steps // 2, 1)), back])
    bad = pops.copy()
    bad[:, [1, 2]] = bad[:, [2, 1]]  # site 2 (occupied) <-> site 3 (empty)
    check = lambda p: w._scenario_checks("scenario", sc, steps, p)  # noqa: E731
    return "populations with sites 2 and 3 swapped", check(pops), check(bad)


def _k_case():
    """K_N missing one pair factor."""
    n, theta = 6, 0.7 * np.pi
    inp = {"k10": (n, theta, list(range(2**n)))}
    # drop the factor of the innermost pair (3, 4): its term is (XX + YY)/2
    inner = 0.5 * sum(kron_all([np.eye(4), p, p, np.eye(4)]) for p in (_X, _Y))
    bad = k_expm(n, theta, generator(n) - inner)
    good = k_expm(n, theta)
    return "K_6 missing the (3,4) pair factor", w._check_k10(inp, good), w._check_k10(inp, bad)


def _column_case():
    """A column block scaled by 1 + 1e-6."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(147, 8)) + 1j * rng.normal(size=(147, 8)))
    met = GateMetrics(avg_fidelity=0.9, leakage=1e-4, z_corrections=(0.0, 0.0, 0.0))
    bad = q.copy()
    bad[:, :4] *= 1 + 1e-6
    return ("columns 1-4 scaled by 1+1e-6", w._check_pulse_eval({}, (q, met)),
            w._check_pulse_eval({}, (bad, met)))


def _parity_case():
    """A parity probability off by 1e-6."""
    rng = np.random.default_rng(6)
    states = [w._random_state(rng, 9) for _ in range(5)]
    probs = [even_weight(psi) for psi in states]
    bad = list(probs)
    bad[2] += 1e-6
    inp = {"parity_states": states}
    return "parity probability off by 1e-6", w._check_parity(inp, probs), w._check_parity(inp, bad)


def main() -> int:
    held = 0
    cases = (_scenario_case, _k_case, _column_case, _parity_case)
    for case in cases:
        name, clean, corrupted = case()
        ok = all(c.ok for c in clean) and not all(c.ok for c in corrupted)
        held += ok
        failing = "; ".join(c.line() for c in corrupted if not c.ok) or "no check failed"
        print(f"[{'PASS' if ok else 'FAIL'}] self-test {name}: clean output "
              f"{'passes' if all(c.ok for c in clean) else 'FAILS'}, corrupted -> {failing}")
    print(f"{held}/{len(cases)} self-tests hold")
    return 0 if held == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
