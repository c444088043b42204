"""Pulse-level model of the three-transmon / two-tunable-coupler chain.

Five Duffing modes in the order (q1, c1, q2, c2, q3), three levels each
(243-dimensional).  The couplers are flux tunable; parametric flux
modulation at the qubit-qubit detuning activates sideband exchange
coupling, implementing the three-site FST gate K_3(theta).

All frequencies are angular (rad/s) internally; JSON files use GHz and
quote coupler frequencies at the DC bias point (they are converted to the
zero-flux values this module stores).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import erf, jv

from . import gates

__all__ = [
    "GHZ",
    "MHZ",
    "DeviceSpec",
    "PulseConfig",
    "GateMetrics",
    "OptimizeResult",
    "table_s1_spec",
    "dressed_basis",
    "flux_to_frequency",
    "build_hamiltonian",
    "pulse_envelope",
    "coupler_flux",
    "propagate",
    "swt_effective_params",
    "sideband_coupling",
    "theory_pulse",
    "seed_pulse_config",
    "gate_metrics",
    "optimize_pulse",
    "zz_coupling",
]

GHZ = 2 * np.pi * 1e9
MHZ = 2 * np.pi * 1e6

_LEVELS = 3
_MODES = 5  # q1, c1, q2, c2, q3
_Q1, _C1, _Q2, _C2, _Q3 = range(_MODES)
_DIM = _LEVELS**_MODES


@dataclass(frozen=True)
class DeviceSpec:
    """Physical device parameters (angular frequencies, rad/s).

    ``wc1``/``wc2`` are the *zero-flux* coupler frequencies; the
    frequencies quoted at the bias point follow from flux_to_frequency.
    """

    w1: float
    w2: float
    w3: float
    wc1: float
    wc2: float
    a1: float
    a2: float
    a3: float
    ac1: float
    ac2: float
    g1c1: float
    g2c1: float
    g2c2: float
    g3c2: float
    g12: float
    g23: float
    dc1: float = 0.5
    dc2: float = 0.5
    phi_dc1: float = 0.3
    phi_dc2: float = 0.3

    def __post_init__(self):
        for d in (self.dc1, self.dc2):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"asymmetry d must be in [0, 1], got {d}")

    def dispersive_warnings(self) -> list:
        """Sanity diagnostics: dispersive ratios and direct-coupling sizes."""
        warnings = []
        wc1b = flux_to_frequency(self, 1, self.phi_dc1)
        wc2b = flux_to_frequency(self, 2, self.phi_dc2)
        checks = [
            ("g1c1/(wc1-w1)", self.g1c1 / (wc1b - self.w1)),
            ("g2c1/(wc1-w2)", self.g2c1 / (wc1b - self.w2)),
            ("g2c2/(wc2-w2)", self.g2c2 / (wc2b - self.w2)),
            ("g3c2/(wc2-w3)", self.g3c2 / (wc2b - self.w3)),
        ]
        for name, ratio in checks:
            if abs(ratio) >= 0.2:
                warnings.append(f"dispersive ratio {name} = {ratio:.3f} >= 0.2")
        gq = max(abs(self.g12), abs(self.g23))
        gc = min(abs(self.g1c1), abs(self.g2c2))
        if gq >= 0.5 * gc:
            warnings.append("direct qubit-qubit coupling not small vs g_qc")
        return warnings

    @classmethod
    def from_json(cls, s: str) -> "DeviceSpec":
        """Load a Table-S1-style JSON (GHz; coupler entries at the bias)."""
        d = json.loads(s)
        dc1, dc2 = float(d.get("dc1", 0.5)), float(d.get("dc2", 0.5))
        phi1, phi2 = float(d.get("phi_dc1", 0.3)), float(d.get("phi_dc2", 0.3))
        ac1, ac2 = float(d["ac1"]) * GHZ, float(d["ac2"]) * GHZ

        def bare(w_at_bias, alpha, dd, phi):
            return alpha + (w_at_bias - alpha) / _flux_factor(phi, dd)

        return cls(
            w1=float(d["w1"]) * GHZ,
            w2=float(d["w2"]) * GHZ,
            w3=float(d["w3"]) * GHZ,
            wc1=bare(float(d["wc1"]) * GHZ, ac1, dc1, phi1),
            wc2=bare(float(d["wc2"]) * GHZ, ac2, dc2, phi2),
            a1=float(d["a1"]) * GHZ,
            a2=float(d["a2"]) * GHZ,
            a3=float(d["a3"]) * GHZ,
            ac1=ac1,
            ac2=ac2,
            g1c1=float(d["g1c1"]) * GHZ,
            g2c1=float(d["g2c1"]) * GHZ,
            g2c2=float(d["g2c2"]) * GHZ,
            g3c2=float(d["g3c2"]) * GHZ,
            g12=float(d["g12"]) * GHZ,
            g23=float(d["g23"]) * GHZ,
            dc1=dc1,
            dc2=dc2,
            phi_dc1=phi1,
            phi_dc2=phi2,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "w1": self.w1 / GHZ,
                "w2": self.w2 / GHZ,
                "w3": self.w3 / GHZ,
                "wc1": flux_to_frequency(self, 1, self.phi_dc1) / GHZ,
                "wc2": flux_to_frequency(self, 2, self.phi_dc2) / GHZ,
                "a1": self.a1 / GHZ,
                "a2": self.a2 / GHZ,
                "a3": self.a3 / GHZ,
                "ac1": self.ac1 / GHZ,
                "ac2": self.ac2 / GHZ,
                "g1c1": self.g1c1 / GHZ,
                "g2c1": self.g2c1 / GHZ,
                "g2c2": self.g2c2 / GHZ,
                "g3c2": self.g3c2 / GHZ,
                "g12": self.g12 / GHZ,
                "g23": self.g23 / GHZ,
                "dc1": self.dc1,
                "dc2": self.dc2,
                "phi_dc1": self.phi_dc1,
                "phi_dc2": self.phi_dc2,
            }
        )


def table_s1_spec() -> DeviceSpec:
    """Default parameter set used throughout the device simulations."""
    return DeviceSpec.from_json(
        json.dumps(
            {
                "w1": 5.05, "w2": 5.00, "w3": 5.075,
                "wc1": 6.086, "wc2": 6.106,
                "a1": -0.3, "a2": -0.3, "a3": -0.3,
                "ac1": -0.35, "ac2": -0.35,
                "g1c1": 0.1, "g2c1": -0.1, "g2c2": 0.1, "g3c2": -0.1,
                "g12": -0.0066, "g23": -0.0066,
                "dc1": 0.5, "dc2": 0.5,
                "phi_dc1": 0.3, "phi_dc2": 0.3,
            }
        )
    )


@dataclass(frozen=True)
class PulseConfig:
    """Flattop-Gaussian parametric flux drive on both couplers."""

    amp1: float            # flux amplitude on coupler 1 (Phi_0 units)
    amp2: float            # flux amplitude on coupler 2
    wd1: float             # drive angular frequency, coupler 1 (rad/s)
    wd2: float             # drive angular frequency, coupler 2
    tau_final: float       # gate length (s)
    tau_rise: float = 2e-9
    sample_rate: float = 2.4e9

    def __post_init__(self):
        if self.tau_final > 0 and not self.tau_final > 4 * self.tau_rise:
            raise ValueError("tau_final must exceed 4 * tau_rise")
        if self.amp1 < 0 or self.amp2 < 0:
            raise ValueError("amplitudes must be non-negative")

    def validate_flux_branch(self, spec: DeviceSpec) -> None:
        for amp, dc in ((self.amp1, spec.phi_dc1), (self.amp2, spec.phi_dc2)):
            if abs(dc) + amp >= 0.5:
                raise ValueError("flux excursion leaves the bias branch")

    def to_json(self) -> str:
        return json.dumps(
            {
                "amp1": self.amp1, "amp2": self.amp2,
                "wd1": self.wd1, "wd2": self.wd2,
                "tau_final": self.tau_final, "tau_rise": self.tau_rise,
                "sample_rate": self.sample_rate,
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "PulseConfig":
        return cls(**json.loads(s))


def _flux_factor(phi: float, d: float):
    # cos^2 and sin^2 of pi phi have period 1: reduce phi exactly to
    # [-1/2, 1/2] first, so that no huge flux overflows pi phi
    phi = phi - np.round(phi)
    return (np.cos(np.pi * phi) ** 2 + d**2 * np.sin(np.pi * phi) ** 2) ** 0.25


def flux_to_frequency(spec: DeviceSpec, coupler: int, phi) -> float:
    """Coupler frequency at flux phi (units of Phi_0)."""
    if coupler == 1:
        w0, alpha, d = spec.wc1, spec.ac1, spec.dc1
    elif coupler == 2:
        w0, alpha, d = spec.wc2, spec.ac2, spec.dc2
    else:
        raise ValueError("coupler must be 1 or 2")
    return alpha + (w0 - alpha) * _flux_factor(phi, d)


def _kron_chain(ops) -> np.ndarray:
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def _mode_op(op: np.ndarray, mode: int) -> np.ndarray:
    ops = [np.eye(_LEVELS)] * _MODES
    ops[mode] = op
    return _kron_chain(ops)


class _Operators:
    """Cached embedded operators and the static part of the Hamiltonian."""

    def __init__(self, spec: DeviceSpec):
        b = np.diag(np.sqrt(np.arange(1, _LEVELS)), 1)
        num = b.T @ b
        duff = b.T @ b.T @ b @ b
        x = b.T - b  # (b^dag - b)
        n_ops = [_mode_op(num, m) for m in range(_MODES)]
        d_ops = [_mode_op(duff, m) for m in range(_MODES)]
        x_ops = [_mode_op(x, m) for m in range(_MODES)]
        self.n_c1 = n_ops[_C1]
        self.n_c2 = n_ops[_C2]
        # everything except the (time-dependent) coupler frequency terms
        self.h_static = (
            spec.w1 * n_ops[_Q1]
            + spec.w2 * n_ops[_Q2]
            + spec.w3 * n_ops[_Q3]
            + spec.a1 / 2 * d_ops[_Q1]
            + spec.a2 / 2 * d_ops[_Q2]
            + spec.a3 / 2 * d_ops[_Q3]
            + spec.ac1 / 2 * d_ops[_C1]
            + spec.ac2 / 2 * d_ops[_C2]
            - spec.g1c1 * x_ops[_Q1] @ x_ops[_C1]
            - spec.g2c1 * x_ops[_Q2] @ x_ops[_C1]
            - spec.g2c2 * x_ops[_Q2] @ x_ops[_C2]
            - spec.g3c2 * x_ops[_Q3] @ x_ops[_C2]
            - spec.g12 * x_ops[_Q1] @ x_ops[_Q2]
            - spec.g23 * x_ops[_Q2] @ x_ops[_Q3]
        )
        occ = np.indices((_LEVELS,) * _MODES).reshape(_MODES, -1)
        self.total_occupation = occ.sum(axis=0)
        # every coupling is (b^dag - b)(b^dag - b) and the coupler terms are
        # diagonal, so H(t) never mixes even and odd total occupation;
        # parity_blocks relies on it and a term that breaks it must not be
        # dropped silently
        odd = self.total_occupation % 2 == 1
        if np.any(self.h_static[odd[:, None] != odd[None, :]]):
            raise ValueError(
                "the static Hamiltonian couples even and odd total occupation"
            )
        self._blocks: dict = {}
        self.dressed: dict = {}  # dressed_basis(spec, nmax) by nmax

    def working_space(self, nmax: int | None) -> np.ndarray:
        """Full-space indices of the working space: the states of total
        occupation <= nmax, or all 243 when nmax is None."""
        if nmax is None:
            return np.arange(_DIM)
        return np.flatnonzero(self.total_occupation <= nmax)

    def parity_blocks(self, nmax: int | None) -> tuple:
        """The even and odd total-occupation blocks of the working space,
        each as (rows, h_static block, n_c1 diagonal, n_c2 diagonal), with
        rows the block's positions in the working space."""
        if nmax not in self._blocks:
            keep = self.working_space(nmax)
            blocks = []
            for parity in (0, 1):
                rows = np.flatnonzero(self.total_occupation[keep] % 2 == parity)
                idx = keep[rows]
                blocks.append((
                    rows,
                    self.h_static[np.ix_(idx, idx)],
                    np.diag(self.n_c1)[idx],
                    np.diag(self.n_c2)[idx],
                ))
            self._blocks[nmax] = tuple(blocks)
        return self._blocks[nmax]


_OP_CACHE: dict = {}


def _operators(spec: DeviceSpec) -> _Operators:
    key = spec.to_json()
    if key not in _OP_CACHE:
        _OP_CACHE.clear()  # keep at most one device in memory
        _OP_CACHE[key] = _Operators(spec)
    return _OP_CACHE[key]


def build_hamiltonian(spec: DeviceSpec, phi_c1: float, phi_c2: float) -> np.ndarray:
    """Full 243-dim Hamiltonian at fixed coupler fluxes."""
    ops = _operators(spec)
    return (
        ops.h_static
        + flux_to_frequency(spec, 1, phi_c1) * ops.n_c1
        + flux_to_frequency(spec, 2, phi_c2) * ops.n_c2
    )


def pulse_envelope(cfg: PulseConfig, t) -> np.ndarray:
    """Flattop-Gaussian envelope A(t)/amp in [0, 1], sampled-and-held at
    the AWG rate; the carrier is *not* included here."""
    ts = np.floor(np.asarray(t, dtype=float) * cfg.sample_rate) / cfg.sample_rate
    return (
        0.25
        * (1 + erf(ts / cfg.tau_rise - 2))
        * (1 + erf((cfg.tau_final - ts) / cfg.tau_rise - 2))
    )


def coupler_flux(spec: DeviceSpec, cfg: PulseConfig, coupler: int, t) -> np.ndarray:
    """Total flux Phi_DC + A(t) cos(w_d t) at one coupler."""
    env = pulse_envelope(cfg, t)
    if coupler == 1:
        return spec.phi_dc1 + cfg.amp1 * env * np.cos(cfg.wd1 * np.asarray(t))
    return spec.phi_dc2 + cfg.amp2 * env * np.cos(cfg.wd2 * np.asarray(t))


_CF4_C = np.sqrt(3) / 6  # Gauss nodes at (1/2 -+ sqrt(3)/6) dt


def propagate(
    spec: DeviceSpec,
    cfg: PulseConfig,
    substeps_per_sample: int = 8,
    nmax: int | None = None,
    check_convergence: bool = False,
    convergence_tol: float = 1e-6,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Time-ordered propagator of the driven device over [0, tau_final].

    Uses a fourth-order commutator-free Magnus integrator with substeps
    aligned to the AWG sample grid (the envelope is piecewise constant at
    that rate).  ``nmax`` truncates to total boson occupation <= nmax (a
    faster inner-loop space for the optimizer; full space when None).
    The drive never mixes even and odd total occupation, so the two
    parity blocks are evolved separately, each on the columns where its
    rows are not zero.  A block applies each CF4 half-step exp(-i h dt)
    either through ``eigh`` of h or, when a cost rule finds it cheaper
    (a few columns on a large block), as a Chebyshev expansion in h
    truncated at a Bessel tail below 1e-16.
    ``columns``, a (dim, m) block of working-space vectors, returns
    U @ columns in place of the whole (dim, dim) propagator.

    With check_convergence=True the integration is repeated at half the
    substep and the max-norm difference must stay below convergence_tol.
    """
    u = _propagate_once(spec, cfg, substeps_per_sample, nmax, columns)
    if check_convergence:
        u2 = _propagate_once(spec, cfg, 2 * substeps_per_sample, nmax, columns)
        err = float(np.abs(u - u2).max())
        if err > convergence_tol:
            raise RuntimeError(
                f"substep-halving convergence failed: {err:.2e} > {convergence_tol:.0e}"
            )
    return u


def _eigh_stepper(h0, nc1, nc2):
    """Half-step x -> exp(-i dt h) x with h = h0/2 + alpha nc1 + beta nc2,
    by diagonalising h."""
    h = 0.5 * h0
    static = np.diag(h).copy()

    def step(alpha, beta, dt, x):
        np.fill_diagonal(h, static + (alpha * nc1 + beta * nc2))
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * dt)) @ (v.conj().T @ x)

    return step


# truncation bound of the Chebyshev expansion: the Bessel tail
# sum_{k >= K} 2 |J_k(r dt)| bounds the error of K terms relative to |x|
_CHEBYSHEV_TAIL = 1e-16


def _chebyshev_coefficients(center, radius, dt) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(r dt) exp(-i c dt), k < K, of
    exp(-i h dt) = sum_k ... T_k((h - c) / r), with K the fewest terms
    whose Bessel tail is below _CHEBYSHEV_TAIL."""
    arg = radius * dt
    k = np.arange(int(1.5 * arg) + 40)  # J_k(arg) ~ (e arg / 2k)^k past k ~ arg
    j = jv(k, arg)
    tail = 2 * np.cumsum(np.abs(j[::-1]))[::-1]
    n_terms = max(int(np.argmax(tail < _CHEBYSHEV_TAIL)), 2)
    a = 2 * j[:n_terms] * np.array([1, -1j, -1, 1j])[k[:n_terms] % 4]
    a[0] /= 2
    return a * np.exp(-1j * center * dt)


def _chebyshev_stepper(h0, nc1, nc2, alphas, betas, widths):
    """Half-step x -> exp(-i dt h) x with h = h0/2 + alpha nc1 + beta nc2 by
    a Chebyshev expansion in h (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)), for alpha in ``alphas``, beta in ``betas`` and dt in
    ``widths``; also returns the number of terms at the widest step.

    The off-diagonal part of h never changes and nc1, nc2 >= 0, so one
    Gershgorin interval [c - r, c + r] holds the spectrum of every
    half-step of the pulse; the coefficients then depend on dt alone.
    The three-term recurrence runs on the real view of x, (d, 2m), so
    each term is one real product, and the terms are summed at the end.
    """
    static = 0.5 * np.diag(h0)
    radii = 0.5 * (np.abs(h0).sum(axis=1) - np.abs(np.diag(h0)))
    lo = np.min(static - radii + alphas.min() * nc1 + betas.min() * nc2)
    hi = np.max(static + radii + alphas.max() * nc1 + betas.max() * nc2)
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0
    # b = 2 (h - c) / r, of which only the diagonal changes per half-step
    b = h0 / radius
    coefficients = {dt: _chebyshev_coefficients(center, radius, dt)
                    for dt in np.unique(widths)}

    def step(alpha, beta, dt, x):
        np.fill_diagonal(b, (2 / radius) * (static - center + alpha * nc1 + beta * nc2))
        a = coefficients[dt]
        xr = x.view(float)
        t = np.empty((a.size,) + xr.shape)
        t[0] = xr
        np.matmul(b, xr, out=t[1])
        t[1] *= 0.5
        for k in range(2, a.size):
            np.matmul(b, t[k - 1], out=t[k])
            t[k] -= t[k - 2]
        return (a @ t.view(complex).reshape(a.size, -1)).reshape(x.shape)

    return step, coefficients[np.max(widths)].size


def _chebyshev_is_cheaper(rows: int, columns: int, terms: int) -> bool:
    """Cost rule between the two half-steppers for a d-row block with m
    columns and K Chebyshev terms.  Least-squares fit to single-threaded
    timings of one half-step (d = 16..122, m = 1..d; 2.1 GHz Xeon, us):
    eigh ~ 50 + 0.13 d^2, Chebyshev ~ K (4.1 + 1.1e-4 d^2 m).  The
    per-term overhead is taken as 4.5 us, which keeps the 16-row block of
    nmax=3, a near tie (92 vs 104 us), on eigh."""
    return terms * (4.5 + 1.1e-4 * rows**2 * columns) < 50 + 0.13 * rows**2


def _propagate_once(spec, cfg, substeps_per_sample, nmax, columns=None):
    cfg.validate_flux_branch(spec)
    blocks = _operators(spec).parity_blocks(nmax)
    dim = sum(rows.size for rows, *_ in blocks)
    if columns is not None and (np.ndim(columns) != 2 or len(columns) != dim):
        raise ValueError(f"columns must be a ({dim}, m) block, got {np.shape(columns)}")
    u = np.eye(dim, dtype=complex) if columns is None else np.array(columns, complex)
    if cfg.tau_final <= 0:
        return u

    # substeps aligned to the AWG sample grid: the sampled-and-held drive
    # is discontinuous at sample boundaries, and a step straddling one
    # destroys the integrator's order.  A non-integer number of samples in
    # tau_final leaves a short remainder step inside the last sample.
    dt0 = 1.0 / (cfg.sample_rate * substeps_per_sample)
    n_full = int(np.floor(cfg.tau_final / dt0 + 1e-9))
    edges = dt0 * np.arange(n_full + 1)
    if cfg.tau_final - edges[-1] > 1e-15 * cfg.tau_final:
        edges = np.append(edges, cfg.tau_final)
    widths = np.diff(edges)
    a1, a2 = 0.25 - _CF4_C, 0.25 + _CF4_C

    t_nodes1 = edges[:-1] + (0.5 - _CF4_C) * widths
    t_nodes2 = edges[:-1] + (0.5 + _CF4_C) * widths
    wc1_1 = flux_to_frequency(spec, 1, coupler_flux(spec, cfg, 1, t_nodes1))
    wc1_2 = flux_to_frequency(spec, 1, coupler_flux(spec, cfg, 1, t_nodes2))
    wc2_1 = flux_to_frequency(spec, 2, coupler_flux(spec, cfg, 2, t_nodes1))
    wc2_2 = flux_to_frequency(spec, 2, coupler_flux(spec, cfg, 2, t_nodes2))
    # CF4 step exp(-i dt H_A) exp(-i dt H_B) with
    # H_B = H_static/2 + a2 H_d(t1) + a1 H_d(t2) (earlier in time) and H_A
    # the same with a1/a2 swapped; column j of alpha (beta) is the n_c1
    # (n_c2) coefficient of half-step j of each step
    alpha = np.stack([a2 * wc1_1 + a1 * wc1_2, a1 * wc1_1 + a2 * wc1_2], axis=1)
    beta = np.stack([a2 * wc2_1 + a1 * wc2_2, a1 * wc2_1 + a2 * wc2_2], axis=1)

    # H(t) is block diagonal in total-occupation parity, so each block's
    # rows of u evolve on their own, and only on the columns where they
    # are not zero (a column of u that starts in one parity stays there)
    for rows, h0, nc1, nc2 in blocks:
        live = np.flatnonzero(np.any(u[rows] != 0, axis=0))
        if live.size == 0:
            continue
        x = u[np.ix_(rows, live)]
        step, terms = _chebyshev_stepper(h0, nc1, nc2, alpha, beta, widths)
        if not _chebyshev_is_cheaper(rows.size, live.size, terms):
            step = _eigh_stepper(h0, nc1, nc2)
        for k, dt in enumerate(widths):
            x = step(alpha[k, 0], beta[k, 0], dt, x)
            x = step(alpha[k, 1], beta[k, 1], dt, x)
        u[np.ix_(rows, live)] = x
    return u


def swt_effective_params(spec: DeviceSpec, phi_c1=None, phi_c2=None) -> dict:
    """Dressed qubit frequencies and effective exchange couplings after
    dispersively eliminating the couplers (Schrieffer-Wolff)."""
    phi1 = spec.phi_dc1 if phi_c1 is None else phi_c1
    phi2 = spec.phi_dc2 if phi_c2 is None else phi_c2
    wc1 = flux_to_frequency(spec, 1, phi1)
    wc2 = flux_to_frequency(spec, 2, phi2)

    def exchange(g_direct, gi, gj, wi, wj, wc):
        s = sum(1.0 / (wc - w) + 1.0 / (wc + w) for w in (wi, wj))
        return g_direct - gi * gj / 2 * s

    def lamb(w, g, wc):
        return -g**2 / (wc - w) - g**2 / (wc + w)

    out = {
        "w1": spec.w1 + lamb(spec.w1, spec.g1c1, wc1),
        "w2": spec.w2
        + lamb(spec.w2, spec.g2c1, wc1)
        + lamb(spec.w2, spec.g2c2, wc2),
        "w3": spec.w3 + lamb(spec.w3, spec.g3c2, wc2),
        "g12": exchange(spec.g12, spec.g1c1, spec.g2c1, spec.w1, spec.w2, wc1),
        "g23": exchange(spec.g23, spec.g2c2, spec.g3c2, spec.w2, spec.w3, wc2),
    }
    return out


def _exchange_of_flux(spec: DeviceSpec, coupler: int):
    if coupler == 1:
        return lambda phi: swt_effective_params(spec, phi_c1=phi)["g12"]
    return lambda phi: swt_effective_params(spec, phi_c2=phi)["g23"]


def sideband_coupling(spec: DeviceSpec, coupler: int, amp: float) -> float:
    """First-harmonic coupling g-bar^(1): the cos(w_d t) Fourier component
    of the modulated exchange g~(Phi_DC + amp cos x), which does not depend
    on the drive frequency itself."""
    phi_dc = spec.phi_dc1 if coupler == 1 else spec.phi_dc2
    x = np.linspace(0.0, 2 * np.pi, 1025)[:-1]
    vals = _exchange_of_flux(spec, coupler)(phi_dc + amp * np.cos(x))
    return float(np.mean(vals * np.exp(-1j * x)).real)


def theory_pulse(theta: float, j: float) -> dict:
    """N=3 closed forms: required detuning and gate time for coupling j."""
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must be in (0, pi]")
    if j <= 0:
        raise ValueError("j must be positive")
    root = np.sqrt((np.pi - theta / 2) * theta)
    return {"delta": 2 * j * (np.pi - theta) / root, "tau": root / j}


def seed_pulse_config(
    spec: DeviceSpec, theta: float, tau_final: float = 212e-9
) -> PulseConfig:
    """Theory-seeded pulse: amplitudes solved so the sideband coupling
    matches J = sqrt((pi - theta/2) theta)/tau_final, drive frequencies at
    the dressed detunings minus the Eq.-S21 shift."""
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must be in (0, pi]")
    if not 0.0 < tau_final < np.inf:
        raise ValueError(f"tau_final must be positive and finite, got {tau_final}")
    j = np.sqrt((np.pi - theta / 2) * theta) / tau_final
    delta = theory_pulse(theta, j)["delta"]
    eff = swt_effective_params(spec)

    def solve_amp(coupler):
        f = lambda a: abs(sideband_coupling(spec, coupler, a)) - j
        hi = 0.5 - abs(spec.phi_dc1 if coupler == 1 else spec.phi_dc2) - 1e-3
        if f(hi) < 0:
            raise ValueError(
                f"no flux amplitude on coupler {coupler} reaches the sideband "
                f"coupling of a {tau_final:.3g} s gate"
            )
        return brentq(f, 1e-6, hi, xtol=1e-12)

    return PulseConfig(
        amp1=solve_amp(1),
        amp2=solve_amp(2),
        wd1=(eff["w1"] - eff["w2"]) - delta,
        wd2=(eff["w3"] - eff["w2"]) - delta,
        tau_final=tau_final,
    )


# computational-subspace indices: couplers in 0, qubits in {0, 1};
# ordering matches the 3-qubit basis (q1 = MSB)
_COMP_INDEX = np.array(
    [
        q1 * 3**4 + 0 * 3**3 + q2 * 3**2 + 0 * 3 + q3
        for q1 in (0, 1)
        for q2 in (0, 1)
        for q3 in (0, 1)
    ]
)
_COMP_BITS = np.array([[q1, q2, q3] for q1 in (0, 1) for q2 in (0, 1) for q3 in (0, 1)])


@dataclass(frozen=True)
class GateMetrics:
    avg_fidelity: float
    leakage: float
    z_corrections: tuple  # optimized virtual-Z angles (z1, z2, z3)

    @property
    def infidelity(self) -> float:
        return 1.0 - self.avg_fidelity


def comp_columns(spec: DeviceSpec, nmax: int | None = None) -> np.ndarray:
    """Indices of the 8 computational states in the working space."""
    if nmax is not None and nmax < 3:
        raise ValueError(f"the computational states need nmax >= 3, got {nmax}")
    return np.searchsorted(_operators(spec).working_space(nmax), _COMP_INDEX)


def _static_eigenstates(spec: DeviceSpec, phi_c1: float, phi_c2: float, nmax):
    """Eigenpairs of the Hamiltonian at fixed coupler fluxes, one parity
    block of the working space at a time: [(rows, evals, evecs)]."""
    wc1 = flux_to_frequency(spec, 1, phi_c1)
    wc2 = flux_to_frequency(spec, 2, phi_c2)
    return [
        (rows, *np.linalg.eigh(h0 + np.diag(wc1 * nc1 + wc2 * nc2)))
        for rows, h0, nc1, nc2 in _operators(spec).parity_blocks(nmax)
    ]


def _dressed_index(eigen, bare: int) -> tuple:
    """(block, column) in ``eigen`` of the eigenstate with the largest
    overlap with the bare working-space state ``bare``."""
    b = next(i for i, (rows, _, _) in enumerate(eigen) if bare in rows)
    rows, _, vecs = eigen[b]
    overlaps = np.abs(vecs[np.searchsorted(rows, bare)]) ** 2
    pick = int(np.argmax(overlaps))
    if overlaps[pick] < 0.5:
        raise RuntimeError(
            f"ambiguous dressed-state identification (overlap {overlaps[pick]:.2f})"
        )
    return b, pick


def dressed_basis(spec: DeviceSpec, nmax: int | None = None) -> np.ndarray:
    """Columns of the 8 dressed computational states at the DC bias.

    Eigenvectors of the static Hamiltonian identified by maximal overlap
    with the bare computational states (gauge: overlap real positive).
    The qubits hybridize with the couplers at the (g/Delta)^2 ~ 1% level,
    so fidelity/leakage must be measured against these states rather than
    the bare ones.
    """
    cache = _operators(spec).dressed
    if nmax in cache:
        return cache[nmax]
    eigen = _static_eigenstates(spec, spec.phi_dc1, spec.phi_dc2, nmax)
    w = np.zeros((sum(rows.size for rows, _, _ in eigen), 8), dtype=complex)
    used = set()
    for j, bare in enumerate(comp_columns(spec, nmax)):
        b, pick = _dressed_index(eigen, bare)
        if (b, pick) in used:
            raise RuntimeError("ambiguous dressed computational state")
        used.add((b, pick))
        rows, _, vecs = eigen[b]
        w[rows, j] = vecs[:, pick]
        w[:, j] *= np.conj(w[bare, j]) / abs(w[bare, j])
    cache[nmax] = w
    return w


def gate_metrics(
    u_sim: np.ndarray,
    theta: float,
    spec: DeviceSpec,
    cfg: PulseConfig | None = None,
    nmax: int | None = None,
) -> GateMetrics:
    """Average gate fidelity and leakage of the propagated dressed
    computational states against the K_3(theta) target with its
    Z-corrections.

    ``u_sim`` is U @ dressed_basis(spec, nmax), a (dim, 8) block of the
    working space.  Its 8-dim projection on the dressed states is moved to
    the frame rotating at (w~2 + wd1, w~2, w~2 + wd2) over tau_final (when
    cfg is given), the fixed Z-corrections exp(i theta/2 n_1,3)
    exp(i theta n_2) are folded into the target, and three residual
    virtual-Z angles plus the global phase are optimized away.
    """
    w_basis = dressed_basis(spec, nmax)
    if np.shape(u_sim) != w_basis.shape:
        raise ValueError(f"expected a {w_basis.shape} block, got {np.shape(u_sim)}")
    m = w_basis.conj().T @ u_sim
    if cfg is not None:
        eff = swt_effective_params(spec)
        freqs = np.array(
            [eff["w2"] + cfg.wd1, eff["w2"], eff["w2"] + cfg.wd2]
        )
        frame = np.exp(1j * cfg.tau_final * (_COMP_BITS @ freqs))
        m = frame[:, np.newaxis] * m
    zcorr = np.exp(1j * (_COMP_BITS @ np.array([theta / 2, theta, theta / 2])))
    v = zcorr[:, np.newaxis] * gates.effective_gate(3, theta)

    d = 8
    trace_mm = float(np.trace(m.conj().T @ m).real)
    w = np.diag(m @ v.conj().T)

    def neg_overlap(z):
        return -abs(np.sum(np.exp(-1j * (_COMP_BITS @ z)) * w))

    best = min(
        (
            minimize(neg_overlap, z0, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-14})
            for z0 in (np.zeros(3), np.full(3, np.pi / 2), -np.angle(w[[4, 2, 1]]))
        ),
        key=lambda r: r.fun,
    )
    overlap = -best.fun
    fid = (trace_mm + overlap**2) / (d * (d + 1))
    # leakage: population left outside the computational block, averaged
    # over computational input states (frame phases do not affect it)
    leak = 1.0 - float(np.mean(np.sum(np.abs(m) ** 2, axis=0)))
    z = np.mod(best.x, 2 * np.pi)
    return GateMetrics(avg_fidelity=fid, leakage=leak, z_corrections=tuple(z))


@dataclass(frozen=True)
class OptimizeResult:
    config: PulseConfig
    metrics: GateMetrics
    trace: tuple  # (eval, infidelity, leakage, amp1, amp2, wd1, wd2, wall_s)
    n_evaluations: int
    converged: bool


def optimize_pulse(
    spec: DeviceSpec,
    theta: float,
    initial: PulseConfig,
    budget: int = 200,
    target_infidelity: float = 1e-3,
    substeps_per_sample: int = 4,
    nmax: int | None = 5,
) -> OptimizeResult:
    """Optimize {amp1, amp2, wd1, wd2} to minimize the K_3 infidelity.

    The inner loop propagates on the boson-number-truncated space with a
    coarse substep (accurate to ~1e-3, enough to steer to <1e-2); the
    returned metrics are re-evaluated with the optimized parameters.
    The search stops as soon as the best infidelity falls below
    target_infidelity or the evaluation budget is exhausted.  The search
    is L-BFGS-B with finite-difference gradients.
    """

    class _Done(Exception):
        pass

    w_scale = GHZ  # optimizer works in O(0.05) dimensionless coordinates
    x0 = np.array(
        [initial.amp1, initial.amp2, initial.wd1 / w_scale, initial.wd2 / w_scale]
    )
    trace: list = []
    best: list = [np.inf, x0]
    cols = dressed_basis(spec, nmax)

    def objective(x):
        if len(trace) >= budget or best[0] < target_infidelity:
            raise _Done
        t0 = time.perf_counter()
        cfg = replace(
            initial, amp1=abs(x[0]), amp2=abs(x[1]),
            wd1=x[2] * w_scale, wd2=x[3] * w_scale,
        )
        try:
            u = propagate(spec, cfg, substeps_per_sample, nmax=nmax, columns=cols)
            met = gate_metrics(u, theta, spec, cfg, nmax=nmax)
            infid = met.infidelity
            leak = met.leakage
        except ValueError:
            infid, leak = 1.0, 1.0
        trace.append((len(trace), infid, leak, abs(x[0]), abs(x[1]),
                      x[2] * w_scale, x[3] * w_scale, time.perf_counter() - t0))
        if infid < best[0]:
            best[0], best[1] = infid, np.array(x)
        return infid

    try:
        if objective(x0) > target_infidelity:
            eps = np.maximum(1e-4 * np.abs(x0), 1e-8)
            minimize(
                objective, x0, method="L-BFGS-B",
                options={"eps": eps, "maxfun": budget, "ftol": 1e-12,
                         "gtol": 1e-10},
            )
    except _Done:
        pass

    xb = best[1]
    final_cfg = replace(
        initial, amp1=abs(xb[0]), amp2=abs(xb[1]),
        wd1=xb[2] * w_scale, wd2=xb[3] * w_scale,
    )
    u = propagate(spec, final_cfg, substeps_per_sample, nmax=nmax, columns=cols)
    final_metrics = gate_metrics(u, theta, spec, final_cfg, nmax=nmax)
    return OptimizeResult(
        config=final_cfg,
        metrics=final_metrics,
        trace=tuple(trace),
        n_evaluations=len(trace),
        converged=bool(final_metrics.infidelity < target_infidelity * 10),
    )


def zz_coupling(spec: DeviceSpec, phi_c1=None, phi_c2=None, pair=(1, 2)) -> float:
    """Static ZZ strength zeta between neighboring qubits at a flux bias:
    E(|11>) - E(|10>) - E(|01>) + E(|00>) of dressed states identified by
    maximal overlap with the bare states."""
    phi1 = spec.phi_dc1 if phi_c1 is None else phi_c1
    phi2 = spec.phi_dc2 if phi_c2 is None else phi_c2
    eigen = _static_eigenstates(spec, phi1, phi2, None)
    qa, qb = pair
    mode_of_qubit = {1: _Q1, 2: _Q2, 3: _Q3}

    def dressed_energy(excited):
        levels = np.zeros(_MODES, dtype=int)
        for q in excited:
            levels[mode_of_qubit[q]] = 1
        b, j = _dressed_index(eigen, np.ravel_multi_index(levels, (_LEVELS,) * _MODES))
        return eigen[b][1][j]

    return float(
        dressed_energy((qa, qb))
        - dressed_energy((qa,))
        - dressed_energy((qb,))
        + dressed_energy(())
    )
