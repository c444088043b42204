"""Application protocols: ancilla parity measurement, correlator
measurement, and chain dynamics scenarios with instantaneous events.

The parity protocol follows Eq.-(8) ordering: Y^{pi/2} on the right
ancilla, then the full-transfer gate K_{N+2}^{(pi)} on the extended chain,
then X^{pi/2} on the left ancilla; the left ancilla then reads out the
excitation-number parity of the register.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import gates
from .propagator import STATE_VECTOR_LIMIT
from .synthesis import DENSE_MATRIX_LIMIT, ChainSpec, single_excitation_hamiltonian, synthesize

__all__ = [
    "ParityProtocolResult",
    "Scenario",
    "ScenarioResult",
    "parity_measure",
    "correlator_measure",
    "run_scenario",
    "repeated_parity",
]

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_DAG = np.diag([1.0, -1.0j])
_BASIS_CHANGE = {
    "Z": np.eye(2, dtype=complex),
    "X": _HADAMARD,
    "Y": _HADAMARD @ _S_DAG,
}


@dataclass(frozen=True)
class ParityProtocolResult:
    left_ancilla_one_probability: float
    inferred_parity: str  # "even" | "odd"
    post_state: np.ndarray  # full (N+2)-site state, site 1 = left ancilla
    protocol_duration: float


def parity_measure(psi: np.ndarray, j_max: float = 1.0) -> ParityProtocolResult:
    """Run the Eq.-(8) parity-measurement protocol on an N-site register.

    Returns the probability of reading the left ancilla in |1> (equal to
    the total even-excitation weight of psi), the inferred parity, the
    full post-protocol state on N+2 sites, and the protocol duration
    ((N+2)/2) * tau_iSWAP with tau_iSWAP = pi/(2 j_max).
    """
    n = psi.size.bit_length() - 1
    if psi.shape != (2**n,):
        raise ValueError("state size is not a power of two")
    if 2 ** (n + 2) > STATE_VECTOR_LIMIT:
        raise ValueError(
            f"register too large: 2^(N+2) = {2 ** (n + 2)} entries "
            f"(limit {STATE_VECTOR_LIMIT})"
        )
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("input state is not normalized")
    m = n + 2
    # |0>_L (x) psi (x) |0>_R
    ext = np.zeros(2**m, dtype=complex)
    ext[0 : 2 ** (m - 1) : 2] = psi  # L bit 0 (MSB), R bit 0 (LSB)
    half_y = gates.GateOp("HalfY", (m,)).matrix()
    half_x = gates.GateOp("HalfX", (1,)).matrix()
    # K_{N+2}(pi) runs in place on ext, which this function owns, so at
    # most two extended states are alive at once (inside apply_local)
    ext = gates.apply_local(ext, half_y, m)
    gates._apply_pairs(ext, np.pi)
    ext = gates.apply_local(ext, half_x, 1)
    # probability that the left ancilla (MSB) reads 1
    p_one = float(np.clip(np.sum(np.abs(ext[2 ** (m - 1) :]) ** 2), 0.0, 1.0))
    duration = (m / 2) * np.pi / (2 * j_max)
    return ParityProtocolResult(
        left_ancilla_one_probability=p_one,
        inferred_parity="even" if p_one >= 0.5 else "odd",
        post_state=ext,
        protocol_duration=duration,
    )


def correlator_measure(psi: np.ndarray, paulis) -> float:
    """<P_1 (x) ... (x) P_N> via the parity protocol, P_n in {X, Y, Z}.

    Rotates each site into the Z basis, measures the Z-string parity with
    the ancilla protocol, and returns 1 - 2 P(odd).
    """
    n = int(np.log2(psi.size))
    if len(paulis) != n:
        raise ValueError(f"need {n} Pauli labels, got {len(paulis)}")
    rotated = psi
    for site, p in enumerate(paulis, start=1):
        try:
            v = _BASIS_CHANGE[p.upper()]
        except KeyError:
            raise ValueError(f"unknown Pauli {p!r}") from None
        rotated = gates.apply_local(rotated, v, site)
    result = parity_measure(rotated)
    p_odd = 1.0 - result.left_ancilla_one_probability
    return 1.0 - 2.0 * p_odd


def _check_site(value, n_sites: int, what: str) -> None:
    """Raise ValueError unless value is a 1-based site of an n_sites chain."""
    if not isinstance(value, (int, np.integer)) or not 1 <= value <= n_sites:
        raise ValueError(f"{what} {value!r} is not a site in 1..{n_sites}")


def _time(value, what: str) -> float:
    """A finite, non-negative time, or ValueError."""
    if not isinstance(value, (int, float, np.number)) or not 0 <= value < np.inf:
        raise ValueError(f"{what} {value!r} is not a finite time >= 0")
    return float(value)


@dataclass(frozen=True)
class Scenario:
    """Dynamics scenario: initial excitations plus timed instantaneous
    events ({"t", "kind": "xflip", "site"}).  Event times non-decreasing;
    run_scenario rejects events after t_final."""

    n_sites: int
    theta: float
    excitations: tuple
    events: tuple = ()
    t_final: float | None = None  # defaults to 2 tau

    def __post_init__(self):
        for s in self.excitations:
            _check_site(s, self.n_sites, "excitation site")
        if len(set(self.excitations)) != len(self.excitations):
            raise ValueError("duplicate excitation sites")
        if self.t_final is not None and _time(self.t_final, "t_final") == 0:
            raise ValueError("t_final must be > 0")
        ts = []
        for e in self.events:
            if not isinstance(e, dict) or set(e) != {"t", "kind", "site"}:
                raise ValueError(f"event {e!r} must have exactly t, kind, site")
            if e["kind"] != "xflip":
                raise ValueError(f"unknown event kind {e['kind']!r}")
            _check_site(e["site"], self.n_sites, "event site")
            ts.append(_time(e["t"], "event time"))
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("event times must be non-decreasing")

    @classmethod
    def from_json(cls, s: str) -> "Scenario":
        d = json.loads(s)
        return cls(
            n_sites=int(d["n_sites"]),
            theta=float(d["theta"]),
            excitations=tuple(d.get("excitations", ())),
            events=tuple(d.get("events", ())),
            t_final=float(d["t_final"]) if "t_final" in d else None,
        )

    def to_json(self) -> str:
        d = {
            "n_sites": self.n_sites,
            "theta": self.theta,
            "excitations": list(self.excitations),
            "events": list(self.events),
        }
        if self.t_final is not None:
            d["t_final"] = self.t_final
        return json.dumps(d)


@dataclass(frozen=True)
class ScenarioResult:
    times: np.ndarray          # in units of tau
    populations: np.ndarray    # shape (len(times), N)
    tau: float


# complex entries of one sample chunk's (samples, N, N) arrays in run_scenario
_CHUNK_ENTRIES = 2**16


def _apply_event(g, v, lam, dt, site) -> None:
    """Evolve the 2N x 2N generalized density matrix g in place by dt under
    H^(1) = V diag(lam) V^T, then x-flip site (1-based)."""
    n = len(lam)
    u = (v * np.exp(-1j * lam * dt)) @ v.T
    uc = u.conj()
    # conj(U) G U^T with U = u (+) conj(u), one N x N block at a time
    halves = (slice(0, n), slice(n, 2 * n))
    for r, left in zip(halves, (uc, u)):
        for c, right in zip(halves, (u.T, uc.T)):
            np.matmul(left @ g[r, c], right, out=g[r, c])
    # W G W^T: rows and columns j and N + j swapped, those of the sites
    # after j negated
    j = site - 1
    g[[j, n + j]] = g[[n + j, j]]
    g[:, [j, n + j]] = g[:, [n + j, j]]
    for after in (slice(j + 1, n), slice(n + j + 1, 2 * n)):
        g[after] *= -1
        g[:, after] *= -1


def run_scenario(scenario: Scenario, n_steps: int = 200) -> ScenarioResult:
    """Site-population time series p_n(t) on a uniform grid of n_steps
    intervals.

    The state is held as its generalized one-body density matrix
    G_ik = <b+_i b_k>, b = (a_1..a_N, a+_1..a+_N), which starts as
    diag(n, 1 - n) for the initial occupations n.  H^(1) = V diag(lam) V^T
    is diagonalised once.  An event evolves G to its time as conj(U) G U^T,
    U = u (+) conj(u) with u = V e^{-i lam dt} V^T, and applies the x-flip
    X_j = Z_1..Z_{j-1} (a_j + a+_j) as G -> W G W^T, where the signed
    permutation W swaps a_j and a+_j and negates a_l and a+_l for l > j.
    Between events p_n(t) = Re sum_pq V_np V_nq rhot_pq e^{-i (lam_p - lam_q) t},
    rhot = V^T rho V with rho = G[:N, :N]^T, taken in chunks of samples.
    An event after t_final (2 tau by default) raises ValueError, and so does
    a chain whose (2N)^2 entries of G exceed DENSE_MATRIX_LIMIT (N > 2048),
    before anything is allocated.
    """
    n = scenario.n_sites
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if (int(n_steps) + 1) * n > STATE_VECTOR_LIMIT:
        raise ValueError(f"{n_steps} steps of {n} site populations "
                         f"exceed {STATE_VECTOR_LIMIT} entries")
    if (2 * n) ** 2 > DENSE_MATRIX_LIMIT:
        raise ValueError(f"the density matrix of an N={n} scenario has (2N)^2 = "
                         f"{(2 * n) ** 2} entries (limit {DENSE_MATRIX_LIMIT}, N <= 2048)")
    params = synthesize(ChainSpec(n_sites=n, theta=scenario.theta, tau=1.0))
    tau = params.tau
    t_final = scenario.t_final if scenario.t_final is not None else 2 * tau
    slack = 1e-12 * max(t_final, 1.0)
    if scenario.events and scenario.events[-1]["t"] > t_final + slack:
        raise ValueError(
            f"event at t={scenario.events[-1]['t']} after t_final={t_final}"
        )
    times = np.linspace(0.0, t_final, n_steps + 1)
    occupied = np.isin(np.arange(1, n + 1), scenario.excitations)
    g = np.diag(np.concatenate((occupied, ~occupied))).astype(complex)
    lam, v = np.linalg.eigh(single_excitation_hamiltonian(params))

    pops = np.empty((len(times), n))
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    t_anchor = 0.0  # time at which `g` is current
    done = 0  # samples written
    for ev in (*scenario.events, None):
        # an event up to `slack` after a grid time is applied before that
        # sample, which is then taken at the event time
        end = len(times) if ev is None else int(np.searchsorted(times + slack, ev["t"]))
        rhot = v.T @ g[:n, :n].T @ v
        for i in range(done, end, chunk):
            dt = np.maximum(times[i : min(i + chunk, end)] - t_anchor, 0.0)
            a = v * np.exp(-1j * np.outer(dt, lam))[:, None, :]
            pops[i : i + len(dt)] = ((a @ rhot) * a.conj()).real.sum(axis=2)
        done = end
        if ev is not None:
            _apply_event(g, v, lam, ev["t"] - t_anchor, int(ev["site"]))
            t_anchor = ev["t"]
    return ScenarioResult(times=times / tau, populations=pops, tau=tau)


def repeated_parity(psi: np.ndarray, rounds: int, j_max: float = 1.0):
    """Run the parity protocol `rounds` times on the same register,
    projecting the ancillas on the read-out outcome between rounds."""
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    n = int(np.log2(psi.size))
    results = []
    current = psi
    for _ in range(rounds):
        res = parity_measure(current, j_max=j_max)
        results.append(res)
        # project left ancilla on the inferred outcome, right ancilla on |0>
        shaped = res.post_state.reshape(2, 2**n, 2)
        register = shaped[1 if res.inferred_parity == "even" else 0, :, 0]
        norm = np.linalg.norm(register)
        if norm < 1e-9:
            raise RuntimeError("projection annihilated the register")
        current = register / norm
    return results, current
