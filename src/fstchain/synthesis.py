"""Chain parameter synthesis for fractional state transfer (FST).

Given a chain length N, a transfer angle theta and a time scale (either the
transfer time tau or the largest available coupling j_max), construct the
couplings J_n and detunings Delta_n of the XY chain whose single-excitation
propagator at t = tau rotates every mirror pair (n, N+1-n) by theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DENSE_MATRIX_LIMIT",
    "ChainSpec",
    "ChainParams",
    "SynthesisError",
    "synthesize",
    "solve_gate_time",
    "detuning_range",
    "spectrum_check",
    "single_excitation_hamiltonian",
    "DetuningRangeReport",
    "SpectrumReport",
]


# largest dense matrix, in entries (2^24 complex entries = 256 MB): the
# N x N single-excitation matrix (so ChainSpec takes N <= 4096) and the 2^N x 2^N oracle,
# lift, G_N and K_N matrices (N <= 12)
DENSE_MATRIX_LIMIT = 2**24


class SynthesisError(ValueError):
    """Raised when the requested chain parameters do not exist."""


@dataclass(frozen=True)
class ChainSpec:
    """Target of the synthesis: chain length, angle and one time scale.

    Exactly one of ``tau`` (seconds) or ``j_max`` (rad/s) must be given.
    theta is in radians and must lie in (0, pi]; n_sites lies in 2..4096
    (N^2 <= DENSE_MATRIX_LIMIT).
    """

    n_sites: int
    theta: float
    tau: float | None = None
    j_max: float | None = None

    def __post_init__(self):
        if self.n_sites < 2:
            raise SynthesisError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.n_sites**2 > DENSE_MATRIX_LIMIT:
            raise SynthesisError(f"n_sites {self.n_sites} above the chain limit: N^2 > "
                                 f"{DENSE_MATRIX_LIMIT} (N <= 4096)")
        if not (0.0 < self.theta <= np.pi):
            raise SynthesisError(f"theta must be in (0, pi], got {self.theta}")
        if (self.tau is None) == (self.j_max is None):
            raise SynthesisError("exactly one of tau or j_max must be set")
        scale = self.tau if self.tau is not None else self.j_max
        if not 0 < scale < np.inf:
            raise SynthesisError(f"time scale must be positive and finite, got {scale}")

    def to_json(self) -> str:
        d = {"n_sites": self.n_sites, "theta": self.theta}
        if self.tau is not None:
            d["tau"] = self.tau
        else:
            d["j_max"] = self.j_max
        return json.dumps(d)


@dataclass(frozen=True)
class ChainParams:
    """Synthesized chain: couplings J_1..J_{N-1}, detunings Delta_1..Delta_N.

    All angular frequencies in rad/s.  Mirror symmetric by construction:
    J_n = J_{N-n} and Delta_n = Delta_{N+1-n}.
    """

    couplings: np.ndarray
    detunings: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "detunings", np.asarray(self.detunings, dtype=float))
        if len(self.detunings) != len(self.couplings) + 1:
            raise SynthesisError("need N detunings and N-1 couplings")

    @property
    def n_sites(self) -> int:
        return len(self.detunings)


def _coupling_products(n: int, theta: float) -> np.ndarray:
    """J_n * tau for n = 1..N-1 (the tau-free bracket of the synthesis)."""
    ns = np.arange(1, n)
    if n % 2 == 0:
        num = ns * (n - ns) * ((n - 2 * ns) ** 2 - (theta / np.pi) ** 2)
        den = (n - 1 - 2 * ns) * (n + 1 - 2 * ns)
    else:
        num = ns * (n - ns) * ((n - 2 * ns) ** 2 - (theta / np.pi - 1) ** 2)
        den = (n - 2 * ns) ** 2
    rad = num / den
    if np.any(rad < -1e-12):
        raise SynthesisError(
            f"negative radicand in coupling synthesis (N={n}, theta={theta})"
        )
    return (np.pi / 2) * np.sqrt(np.clip(rad, 0.0, None))


def _detunings_times_tau(n: int, theta: float) -> np.ndarray:
    if n % 2 == 0:
        return np.zeros(n)
    ns = np.arange(1, n + 1)
    return (
        (np.pi / 2)
        * ((theta / np.pi - 1) * n / 2)
        * (1.0 / (2 * ns - n) - 1.0 / (2 * ns - 2 - n))
    )


def solve_gate_time(spec: ChainSpec) -> float:
    """Minimal tau such that the largest synthesized coupling equals j_max."""
    if spec.j_max is None:
        raise SynthesisError("solve_gate_time needs a j_max-scaled spec")
    return float(_coupling_products(spec.n_sites, spec.theta).max() / spec.j_max)


def synthesize(spec: ChainSpec) -> ChainParams:
    """Construct the FST chain parameters for ``spec``.

    If the spec is scaled by j_max, tau is fixed first so the largest
    coupling saturates j_max.
    """
    tau = spec.tau if spec.tau is not None else solve_gate_time(spec)
    j = _coupling_products(spec.n_sites, spec.theta) / tau
    # enforce exact mirror symmetry against rounding asymmetries
    j = 0.5 * (j + j[::-1])
    d = _detunings_times_tau(spec.n_sites, spec.theta) / tau
    d = 0.5 * (d + d[::-1])
    return ChainParams(couplings=j, detunings=d, tau=tau)


def single_excitation_hamiltonian(params: ChainParams) -> np.ndarray:
    """N x N tridiagonal matrix of the single-excitation manifold, refused
    (SynthesisError) above DENSE_MATRIX_LIMIT entries."""
    n = params.n_sites
    if n * n > DENSE_MATRIX_LIMIT:
        raise SynthesisError(f"the {n} x {n} single-excitation matrix exceeds "
                             f"{DENSE_MATRIX_LIMIT} entries (N <= 4096)")
    h = np.diag(params.detunings.astype(float))
    idx = np.arange(n - 1)
    h[idx, idx + 1] = params.couplings
    h[idx + 1, idx] = params.couplings
    return h


@dataclass(frozen=True)
class DetuningRangeReport:
    direct: float            # max_n Delta_n - min_n Delta_n
    formula: float           # N (pi - theta) / (3 tau)
    matches_formula: bool


def detuning_range(params: ChainParams, spec: ChainSpec) -> DetuningRangeReport:
    """Spread of the detunings, plus the closed-form reference value.

    The direct spread and the closed form disagree by a factor of two for
    odd chains; both are reported and the mismatch is flagged rather than
    silently resolved.
    """
    tau = params.tau
    direct = float(params.detunings.max() - params.detunings.min())
    formula = spec.n_sites * (np.pi - spec.theta) / (3 * tau)
    ok = abs(direct - formula) <= 1e-9 * max(abs(formula), 1e-300)
    return DetuningRangeReport(direct=direct, formula=formula, matches_formula=ok)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    gaps_tau_mod_2pi: np.ndarray
    nondegenerate: bool
    gap_pattern_ok: bool
    symmetry_alternation_ok: bool
    transfer_phase: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# largest distance of a gap times tau from theta or 2 pi - theta (mod 2 pi)
# that spectrum_check accepts
_GAP_TOL = 1e-8


def spectrum_check(params: ChainParams, theta: float) -> SpectrumReport:
    """Diagnose the synthesized spectrum.

    Checks that eigenvalues are non-degenerate, that consecutive gaps times
    tau alternate between theta and 2*pi - theta (mod 2*pi, either phase of
    the alternation, to _GAP_TOL), and that eigenvectors alternate mirror
    symmetric / antisymmetric when sorted by eigenvalue.
    """
    h = single_excitation_hamiltonian(params)
    evals, evecs = np.linalg.eigh(h)
    tau = params.tau
    failures = []

    scale = max(np.abs(evals).max(), 1.0 / tau)
    gaps = np.diff(evals)
    nondeg = bool(np.all(gaps > 1e-10 * scale))
    if not nondeg:
        failures.append("degenerate eigenvalues")

    g = np.mod(gaps * tau, 2 * np.pi)
    targets = np.array([theta % (2 * np.pi), (2 * np.pi - theta) % (2 * np.pi)])

    def matches(seq, first):
        for k, val in enumerate(seq):
            want = targets[(first + k) % 2]
            d = min(abs(val - want), abs(val - want - 2 * np.pi), abs(val - want + 2 * np.pi))
            if d > _GAP_TOL:
                return False
        return True

    pattern_ok = len(g) == 0 or matches(g, 0) or matches(g, 1)
    if not pattern_ok:
        failures.append(f"gap pattern not alternating theta/2pi-theta: {g}")

    # mirror (anti)symmetry of eigenvectors, alternating along the spectrum
    sym_ok = True
    signs = []
    for k in range(evecs.shape[1]):
        v = evecs[:, k]
        r = v[::-1]
        if np.linalg.norm(v - r) < 1e-6:
            signs.append(+1)
        elif np.linalg.norm(v + r) < 1e-6:
            signs.append(-1)
        else:
            sym_ok = False
            break
    if sym_ok and len(signs) > 1:
        sym_ok = all(signs[k] != signs[k + 1] for k in range(len(signs) - 1))
    if not sym_ok:
        failures.append("eigenvectors do not alternate mirror symmetric/antisymmetric")

    from .propagator import extract_transfer_phase, single_propagator

    phi = extract_transfer_phase(single_propagator(params, tau), theta)

    return SpectrumReport(
        eigenvalues=evals,
        gaps_tau_mod_2pi=g,
        nondegenerate=nondeg,
        gap_pattern_ok=pattern_ok,
        symmetry_alternation_ok=sym_ok,
        transfer_phase=phi,
        failures=failures,
    )
