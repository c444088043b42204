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
import math
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

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
# DeviceSpec fields that JSON files hold unscaled (the rest are in GHz)
_FLUX_FIELDS = ("dc1", "dc2", "phi_dc1", "phi_dc2")


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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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
        if not isinstance(d, dict):
            raise TypeError("a device spec must be a JSON object")
        flux = {f.name: float(d.get(f.name, f.default))
                for f in fields(cls) if f.name in _FLUX_FIELDS}
        # checked (finite, d in [0, 1]) before the coupler entries move from
        # the bias point to zero flux
        b = cls(**{f.name: float(d[f.name]) * GHZ for f in fields(cls) if f.name not in flux},
                **flux)

        def bare(w_at_bias, alpha, dd, phi):
            return alpha + (w_at_bias - alpha) / _flux_factor(phi, dd)

        return replace(b, wc1=bare(b.wc1, b.ac1, b.dc1, b.phi_dc1),
                       wc2=bare(b.wc2, b.ac2, b.dc2, b.phi_dc2))

    def to_json(self) -> str:
        """The from_json form: GHz, coupler entries at the bias."""
        d = {f.name: getattr(self, f.name) / GHZ for f in fields(self)}
        d["wc1"] = flux_to_frequency(self, 1, self.phi_dc1) / GHZ
        d["wc2"] = flux_to_frequency(self, 2, self.phi_dc2) / GHZ
        return json.dumps(d | {k: getattr(self, k) for k in _FLUX_FIELDS})


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


def _diagonal(a) -> np.ndarray:
    """Writable strided view of the diagonal of a square C-contiguous a."""
    return a.reshape(-1)[:: len(a) + 1]


# the (b^dag - b)(b^dag - b) couplings of the static Hamiltonian: the
# DeviceSpec field of each strength and the two modes it couples
_COUPLINGS = (
    ("g1c1", _Q1, _C1), ("g2c1", _Q2, _C1), ("g2c2", _Q2, _C2),
    ("g3c2", _Q3, _C2), ("g12", _Q1, _Q2), ("g23", _Q2, _Q3),
)


def _static_hamiltonian(spec: DeviceSpec, occ: np.ndarray) -> np.ndarray:
    """Everything except the (time-dependent) coupler frequency terms,
    from the occupations ``occ`` (modes x states) of the basis states.

    The diagonal is w n + (alpha/2) n (n - 1) over the modes; a coupling
    -g (b^dag - b)_p (b^dag - b)_q moves one boson on each of p and q, with
    amplitude +sqrt(n + 1) for a raise and -sqrt(n) for a lowering, so it
    fills four shifted diagonals of the basis index."""
    num = occ.astype(float)
    duff = num * (num - 1)
    h = np.zeros((_DIM, _DIM))
    _diagonal(h)[:] = (
        spec.w1 * num[_Q1] + spec.w2 * num[_Q2] + spec.w3 * num[_Q3]
        + spec.a1 / 2 * duff[_Q1] + spec.a2 / 2 * duff[_Q2] + spec.a3 / 2 * duff[_Q3]
        + spec.ac1 / 2 * duff[_C1] + spec.ac2 / 2 * duff[_C2]
    )
    stride = _LEVELS ** np.arange(_MODES - 1, -1, -1)
    b = np.diag(np.sqrt(np.arange(1.0, _LEVELS)), 1)
    x = b.T - b  # x[n', n] = <n'| b^dag - b |n>
    for name, p, q in _COUPLINGS:
        g = getattr(spec, name)
        for dp, dq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            to_p, to_q = occ[p] + dp, occ[q] + dq
            j = np.flatnonzero((to_p >= 0) & (to_p < _LEVELS) & (to_q >= 0) & (to_q < _LEVELS))
            i = j + dp * stride[p] + dq * stride[q]
            h[i, j] = -(g * x[to_p[j], occ[p, j]]) * x[to_q[j], occ[q, j]]
    return h


class _Operators:
    """The static part of the Hamiltonian, the coupler occupations and the
    cached blocks and dressed bases built from them."""

    def __init__(self, spec: DeviceSpec):
        occ = np.indices((_LEVELS,) * _MODES).reshape(_MODES, -1)
        self.h_static = _static_hamiltonian(spec, occ)
        # diagonals of the coupler number operators
        self.n_c1 = occ[_C1].astype(float)
        self.n_c2 = occ[_C2].astype(float)
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
                    self.n_c1[idx],
                    self.n_c2[idx],
                ))
            self._blocks[nmax] = tuple(blocks)
        return self._blocks[nmax]


# a DeviceSpec is frozen and its fields are finite, so it is its own key;
# at most one device is kept in memory
@lru_cache(maxsize=1)
def _operators(spec: DeviceSpec) -> _Operators:
    return _Operators(spec)


def build_hamiltonian(spec: DeviceSpec, phi_c1: float, phi_c2: float) -> np.ndarray:
    """Full 243-dim Hamiltonian at fixed coupler fluxes."""
    ops = _operators(spec)
    h = ops.h_static.copy()
    diag = _diagonal(h)
    diag += flux_to_frequency(spec, 1, phi_c1) * ops.n_c1
    diag += flux_to_frequency(spec, 2, phi_c2) * ops.n_c2
    return h


def _erf(x):
    """math.erf of each element of x (a scalar for a scalar)."""
    x = np.asarray(x, dtype=float)
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)[()]


def pulse_envelope(cfg: PulseConfig, t) -> np.ndarray:
    """Flattop-Gaussian envelope A(t)/amp in [0, 1], sampled-and-held at
    the AWG rate; the carrier is *not* included here.  It is evaluated
    once per distinct sample time, as many times t share one sample."""
    ts = np.floor(np.asarray(t, dtype=float) * cfg.sample_rate) / cfg.sample_rate
    samples, inverse = np.unique(ts, return_inverse=True)
    env = (
        0.25
        * (1 + _erf(samples / cfg.tau_rise - 2))
        * (1 + _erf((cfg.tau_final - samples) / cfg.tau_rise - 2))
    )
    return env[inverse].reshape(ts.shape)[()]


def coupler_flux(spec: DeviceSpec, cfg: PulseConfig, coupler: int, t) -> np.ndarray:
    """Total flux Phi_DC + A(t) cos(w_d t) at one coupler."""
    env = pulse_envelope(cfg, t)
    if coupler == 1:
        return spec.phi_dc1 + cfg.amp1 * env * np.cos(cfg.wd1 * np.asarray(t))
    return spec.phi_dc2 + cfg.amp2 * env * np.cos(cfg.wd2 * np.asarray(t))


_CF4_C = np.sqrt(3) / 6  # Gauss nodes at (1/2 -+ sqrt(3)/6) dt


def _eigh_stepper(h0, nc1, nc2):
    """Half-step x -> exp(-i dt h) x with h = h0/2 + alpha nc1 + beta nc2,
    by diagonalising h.  h is real, so its eigenvectors v are real, and
    both products with v are real products on the (d, 2m) view of x."""
    h = 0.5 * h0
    static = np.diag(h).copy()
    diag = _diagonal(h)

    def step(alpha, beta, dt, x):
        np.add(static, alpha * nc1 + beta * nc2, out=diag)
        w, v = np.linalg.eigh(h)
        y = (v.T @ np.ascontiguousarray(x, dtype=complex).view(float)).view(complex)
        y *= np.exp(-1j * w * dt)[:, np.newaxis]
        return (v @ y.view(float)).view(complex)

    return step


# truncation bound of the Chebyshev expansion: the Bessel tail
# sum_{k >= K} 2 |J_k(r dt)| bounds the error of K terms relative to |x|
_CHEBYSHEV_TAIL = 1e-16


def _bessel_j(n: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{n-1}(x) for x > 0 by Miller's backward recurrence
    J_{k-1} = (2k / x) J_k - J_{k+1}, started at J_{n+20} = 1, J_{n+21} = 0
    and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1 (Gautschi, SIAM Rev. 9,
    24 (1967)).  Past k ~ x each step back grows J by about 2k/x, so
    starting 20 orders above n leaves a start error far below rounding at
    k < n whenever n > 1.5 x; a run that nears overflow is scaled down."""
    top = n + 20
    j = np.zeros(top + 1)
    j[top], above = 1.0, 0.0
    for k in range(top, 0, -1):
        j[k - 1] = 2 * k / x * j[k] - above
        above = j[k]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
            above *= 1e-250
    return j[:n] / (j[0] + 2 * j[2::2].sum())


def _chebyshev_coefficients(center, radius, dt) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(r dt) exp(-i c dt), k < K, of
    exp(-i h dt) = sum_k ... T_k((h - c) / r), with K the fewest terms
    whose Bessel tail is below _CHEBYSHEV_TAIL."""
    arg = radius * dt
    k = np.arange(int(1.5 * arg) + 40)  # J_k(arg) ~ (e arg / 2k)^k past k ~ arg
    j = _bessel_j(k.size, arg)
    tail = 2 * np.cumsum(np.abs(j[::-1]))[::-1]
    n_terms = max(int(np.argmax(tail < _CHEBYSHEV_TAIL)), 2)
    a = 2 * j[:n_terms] * np.array([1, -1j, -1, 1j])[k[:n_terms] % 4]
    a[0] /= 2
    return a * np.exp(-1j * center * dt)


def _chebyshev_stepper(h0, nc1, nc2, alphas, betas, widths):
    """Half-step x -> exp(-i dt h) x with h = h0/2 + alpha nc1 + beta nc2 by
    a Chebyshev expansion in h (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)), for alpha in ``alphas``, beta in ``betas`` and dt in
    ``widths``; also returns the largest number of terms (that of the
    widest step).

    The off-diagonal part of h never changes and nc1, nc2 >= 0, so one
    Gershgorin interval [c - r, c + r] holds the spectrum of every
    half-step of the pulse; the coefficients then depend on dt alone.
    The three-term recurrence runs on the real view of x, (d, 2m), so
    each term is one real product, and the terms are summed at the end.
    The terms live in one buffer, made at the first call for the shape of
    its x and reused while x keeps that shape; each call returns a new
    array.
    """
    static = 0.5 * np.diag(h0)
    radii = 0.5 * (np.abs(h0).sum(axis=1) - np.abs(np.diag(h0)))
    lo = np.min(static - radii + alphas.min() * nc1 + betas.min() * nc2)
    hi = np.max(static + radii + alphas.max() * nc1 + betas.max() * nc2)
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0
    # b = 2 (h - c) / r, of which only the diagonal, s0 + alpha s1 + beta
    # s2, changes per half-step
    b = h0 / radius
    diag = _diagonal(b)
    s0, s1, s2 = (2 / radius) * (static - center), (2 / radius) * nc1, (2 / radius) * nc2
    coefficients = {dt: _chebyshev_coefficients(center, radius, dt)
                    for dt in np.unique(widths)}
    n_terms = max(a.size for a in coefficients.values())
    t = terms = None

    def step(alpha, beta, dt, x):
        nonlocal t, terms
        np.add(s0, alpha * s1 + beta * s2, out=diag)
        a = coefficients[dt]
        if t is None or t.shape[1:] != (len(x), 2 * x.shape[1]):
            t = np.empty((n_terms, len(x), 2 * x.shape[1]))
            terms = list(t)
        terms[0].view(complex)[...] = x
        np.dot(b, terms[0], out=terms[1])
        terms[1] *= 0.5
        for k in range(2, a.size):
            np.dot(b, terms[k - 1], out=terms[k])
            np.subtract(terms[k], terms[k - 2], out=terms[k])
        return (a @ t[: a.size].view(complex).reshape(a.size, -1)).reshape(x.shape)

    return step, n_terms


def _chebyshev_is_cheaper(rows: int, columns: int, terms: int) -> bool:
    """Cost rule between the two half-steppers for a d-row block with m
    columns and K Chebyshev terms.  Relative least-squares fit to
    single-threaded timings of one half-step (the blocks of nmax = 3, 4,
    5 and None, d = 16..122, m = 1..d; us): eigh ~ 30 + 0.092 d^2,
    Chebyshev ~ K (2.2 + 7.5e-5 d^2 m).  It picks the faster stepper at
    110 of 114 timed points, and the other four are within 27%.  The
    16-row block of nmax=3 with 4 columns is a near tie: at 4 substeps
    (K = 19) it goes to Chebyshev, measured 38 against 51 us."""
    return terms * (2.2 + 7.5e-5 * rows**2 * columns) < 30 + 0.092 * rows**2


def propagate(
    spec: DeviceSpec,
    cfg: PulseConfig,
    substeps_per_sample: int = 8,
    nmax: int | None = None,
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
    """
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
    # tau_final leaves a short remainder step inside the last sample.  Every
    # full step is dt0 exactly, so a block's Chebyshev stepper needs at most
    # two coefficient sets.
    dt0 = 1.0 / (cfg.sample_rate * substeps_per_sample)
    n_full = int(np.floor(cfg.tau_final / dt0 + 1e-9))
    widths = np.full(n_full, dt0)
    rest = cfg.tau_final - dt0 * n_full
    if rest > 1e-15 * cfg.tau_final:
        widths = np.append(widths, rest)
    starts = dt0 * np.arange(widths.size)
    a1, a2 = 0.25 - _CF4_C, 0.25 + _CF4_C

    t_nodes1 = starts + (0.5 - _CF4_C) * widths
    t_nodes2 = starts + (0.5 + _CF4_C) * widths
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


def _illinois(f, lo, hi, f_lo, f_hi, tol):
    """A root of f in [lo, hi], where f(lo) = f_lo <= 0 <= f_hi = f(hi):
    the midpoint of a bracket narrowed to tol by regula falsi.

    When one end is kept twice running, its f is scaled by the Anderson-
    Bjorck factor 1 - f(x)/f(replaced end), or halved as in the Illinois
    method when that factor is not positive, so that both ends converge
    superlinearly (Dowell & Jarratt, BIT 11, 168 (1971); Anderson &
    Bjorck, BIT 13, 253 (1973)).  Each point stays tol/2 inside the
    bracket, so each step narrows it by at least that."""
    kept = 0  # the end kept at the previous step: -1 lo, +1 hi
    while hi - lo > tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + tol / 2), hi - tol / 2)
        fx = f(x)
        if fx < 0:
            if kept > 0:
                m = 1 - fx / f_lo
                f_hi *= m if m > 0 else 0.5
            lo, f_lo, kept = x, fx, 1
        else:
            if kept < 0:
                m = 1 - fx / f_hi
                f_lo *= m if m > 0 else 0.5
            hi, f_hi, kept = x, fx, -1
    return float(0.5 * (lo + hi))


def _max_amplitude(spec: DeviceSpec, coupler: int) -> float:
    """Largest flux amplitude seeded or searched on a coupler: the flux
    excursion stays 1e-3 Phi_0 inside the bias branch |Phi| < 1/2."""
    return 0.5 - abs(spec.phi_dc1 if coupler == 1 else spec.phi_dc2) - 1e-3


def seed_pulse_config(
    spec: DeviceSpec, theta: float, tau_final: float = 212e-9
) -> PulseConfig:
    """Theory-seeded pulse: amplitudes solved so the sideband coupling
    matches J = sqrt((pi - theta/2) theta)/tau_final, drive frequencies at
    the dressed detunings minus the Eq.-S21 shift.

    Each amplitude is solved to a bracket of 1e-12 on [1e-6, 0.5 - |Phi_DC|
    - 1e-3] by _illinois; a gate so long that the smallest amplitude
    overshoots J, or so short that the largest falls below it, raises
    ValueError naming the coupler and tau_final."""
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must be in (0, pi]")
    if not 0.0 < tau_final < np.inf:
        raise ValueError(f"tau_final must be positive and finite, got {tau_final}")
    j = np.sqrt((np.pi - theta / 2) * theta) / tau_final
    delta = theory_pulse(theta, j)["delta"]
    eff = swt_effective_params(spec)

    def solve_amp(coupler):
        f = lambda a: abs(sideband_coupling(spec, coupler, a)) - j
        lo, hi = 1e-6, _max_amplitude(spec, coupler)
        f_lo, f_hi = f(lo), f(hi)
        if f_hi < 0:
            raise ValueError(
                f"no flux amplitude on coupler {coupler} reaches the sideband "
                f"coupling of a {tau_final:.3g} s gate"
            )
        if f_lo > 0:
            raise ValueError(
                f"the smallest flux amplitude on coupler {coupler}, {lo:g}, already "
                f"exceeds the sideband coupling of a {tau_final:.3g} s gate"
            )
        return _illinois(f, lo, hi, f_lo, f_hi, 1e-12)

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


# damped Newton ascent in _fit_z_phases: the floor on the eigenvalues of
# -H relative to |S|^2, and the relative gain below which it stops
_NEWTON_FLOOR = 1e-3
_NEWTON_GAIN = 1e-15


def _fit_z_phases(w: np.ndarray, z: np.ndarray) -> tuple:
    """Maximise |S(z)|^2, S(z) = sum_k w_k e^{-i bits_k . z}, from z by
    damped Newton ascent; returns (|S|^2, z) at the end.

    With S_j = sum_k bits_kj t_k and S_jk = sum_k bits_kj bits_kl t_k,
    t_k = w_k e^{-i bits_k . z}, the gradient is 2 Im(conj(S) S_j) and the
    Hessian 2 Re(conj(S_j) S_k - conj(S) S_jk).  The eigenvalues of -H are
    floored at _NEWTON_FLOOR |S|^2, so each step is an ascent direction; a
    step that does not ascend is halved (at most 60 times), and the ascent
    stops once the gain (or the gain the step predicts) falls below
    _NEWTON_GAIN |S|^2, or after 100 steps.
    The ascent runs on w / max|w_k|, so that a tiny w (a block that leaked
    almost all its population) does not underflow the floor.
    """
    scale = np.abs(w).max()
    if scale == 0:
        return 0.0, z
    w = w / scale
    bits = _COMP_BITS
    t = w * np.exp(-1j * (bits @ z))
    f = abs(t.sum()) ** 2
    for _ in range(100):
        if f < np.finfo(float).tiny:
            break  # S = 0 (to rounding) is stationary, with zero gradient
        s, s1 = t.sum(), bits.T @ t
        grad = 2 * (np.conj(s) * s1).imag
        hess = 2 * (np.conj(s1)[:, np.newaxis] * s1 - np.conj(s) * ((bits.T * t) @ bits)).real
        lam, vec = np.linalg.eigh(-hess)
        step = vec @ ((vec.T @ grad) / np.maximum(lam, _NEWTON_FLOOR * f))
        if grad @ step / 2 <= _NEWTON_GAIN * f:
            break
        for _ in range(60):
            t_new = w * np.exp(-1j * (bits @ (z + step)))
            f_new = abs(t_new.sum()) ** 2
            if f_new > f:
                break
            step = step / 2
        else:
            break
        gain = f_new - f
        z, t, f = z + step, t_new, f_new
        if gain <= _NEWTON_GAIN * f:
            break
    return f * scale**2, z


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
    virtual-Z angles plus the global phase are optimized away: a damped
    Newton ascent of |S(z)|^2 (_fit_z_phases) from three starts (zeros,
    pi/2 and the phases of w against w_000), of which the best is kept.
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

    # w_k = c e^{i bits_k . z} for an exactly Z-rotated target: the phases of
    # w_100, w_010, w_001 against w_000 are the optimum itself
    informed = np.angle(w[[4, 2, 1]] * np.conj(w[0]))
    overlap_sq, z = max(
        (_fit_z_phases(w, z0) for z0 in (np.zeros(3), np.full(3, np.pi / 2), informed)),
        key=lambda r: r[0],
    )
    fid = (trace_mm + overlap_sq) / (d * (d + 1))
    # leakage: population left outside the computational block, averaged
    # over computational input states (frame phases do not affect it)
    leak = 1.0 - float(np.mean(np.sum(np.abs(m) ** 2, axis=0)))
    return GateMetrics(avg_fidelity=fid, leakage=leak,
                       z_corrections=tuple(np.mod(z, 2 * np.pi)))


@dataclass(frozen=True)
class OptimizeResult:
    config: PulseConfig
    metrics: GateMetrics
    trace: tuple  # (eval, infidelity, leakage, amp1, amp2, wd1, wd2, wall_s)
    n_evaluations: int
    converged: bool


# infidelity at which optimize_pulse stops searching
_TARGET_INFIDELITY = 1e-3
# optimize_pulse searches (amp1, amp2, wd1, wd2) in these units, 2^-8 Phi_0
# and 2^24 rad/s (about 2 pi 2.7 MHz), so that L-BFGS-B's first step, of
# unit length, is a small change of a pulse whose amplitudes are near
# 0.05 Phi_0.  Powers of two make x * _SEARCH_UNITS exact, so the first
# point searched is the initial pulse itself.
_SEARCH_UNITS = np.array([2.0**-8, 2.0**-8, 2.0**24, 2.0**24])


def optimize_pulse(
    spec: DeviceSpec,
    theta: float,
    initial: PulseConfig,
    budget: int = 200,
    substeps_per_sample: int = 4,
    nmax: int | None = 5,
) -> OptimizeResult:
    """Optimize {amp1, amp2, wd1, wd2} to minimize the K_3 infidelity.

    The search is L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput.
    16, 1190 (1995)) with finite-difference gradients, on
    (amp1, amp2, wd1, wd2) / _SEARCH_UNITS.  Each amplitude is bounded to
    [0, 0.5 - |Phi_DC| - 1e-3], so every point searched stays on the bias
    branch; the drive frequencies are free.  An ``initial`` pulse outside
    that box, or a budget below 1, raises ValueError before any evaluation.
    The difference step is max(1e-4 |x|, 1e-8) of each parameter in Phi_0
    and GHz.

    Each evaluation propagates on the boson-number-truncated space with a
    coarse substep (at the default 4 substeps per sample the infidelity
    of the 212 ns theta=pi seed pulse differs from a 32-substep reference
    by 4.0e-10).  The result holds the config and metrics of the
    lowest-infidelity evaluation, so no point is evaluated twice.
    The search stops as soon as the best infidelity falls below
    _TARGET_INFIDELITY or the evaluation budget is exhausted; the result
    counts as converged below 10 times that.  scipy.optimize is imported
    here, so that only this search (``fstchain device-optimize``) loads it.
    """
    from scipy.optimize import minimize

    class _Done(Exception):
        pass

    if budget < 1:
        raise ValueError(f"the evaluation budget must be at least 1, got {budget}")
    top = np.array([_max_amplitude(spec, 1), _max_amplitude(spec, 2)])
    if initial.amp1 > top[0] or initial.amp2 > top[1]:
        raise ValueError(
            f"initial amplitudes ({initial.amp1:g}, {initial.amp2:g}) leave the "
            f"search box [0, {top[0]:g}] x [0, {top[1]:g}]"
        )
    x0 = np.array([initial.amp1, initial.amp2, initial.wd1, initial.wd2])
    eps = np.maximum(1e-4 * np.abs(x0), [1e-8, 1e-8, 1e-8 * GHZ, 1e-8 * GHZ]) / _SEARCH_UNITS
    bounds = [(0.0, top[0] / _SEARCH_UNITS[0]), (0.0, top[1] / _SEARCH_UNITS[1]),
              (None, None), (None, None)]
    trace: list = []
    evaluated: list = []  # (metrics, config) of each trace row
    cols = dressed_basis(spec, nmax)

    def objective(x):
        t0 = time.perf_counter()
        amp1, amp2, wd1, wd2 = x * _SEARCH_UNITS
        cfg = replace(initial, amp1=amp1, amp2=amp2, wd1=wd1, wd2=wd2)
        u = propagate(spec, cfg, substeps_per_sample, nmax=nmax, columns=cols)
        met = gate_metrics(u, theta, spec, cfg, nmax=nmax)
        trace.append((len(trace), met.infidelity, met.leakage, amp1, amp2, wd1, wd2,
                      time.perf_counter() - t0))
        evaluated.append((met, cfg))
        if len(trace) >= budget or met.infidelity < _TARGET_INFIDELITY:
            raise _Done
        return met.infidelity

    try:
        minimize(
            objective, x0 / _SEARCH_UNITS, method="L-BFGS-B", bounds=bounds,
            options={"eps": eps, "maxfun": budget, "ftol": 1e-12, "gtol": 1e-10},
        )
    except _Done:
        pass

    metrics, config = min(evaluated, key=lambda e: e[0].infidelity)
    return OptimizeResult(
        config=config,
        metrics=metrics,
        trace=tuple(trace),
        n_evaluations=len(trace),
        converged=bool(metrics.infidelity < _TARGET_INFIDELITY * 10),
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
