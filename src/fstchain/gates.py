"""Gate algebra for the non-local FST gate K_N.

Builds the effective generator G_N, verifies the stroboscopic mapping
between the chain evolution and K_N = exp(-i (theta/2) G_N), compiles K_N
into a fermionic-swap-network circuit of {FSWAP, iSWAP(theta)} layers, and
evaluates the timing comparison between the two routes.

K_N is a product of commuting mirror-pair factors, each with at most two
nonzeros per row; it and the circuit gates are applied to state vectors
(or blocks of them) by index arithmetic and reshapes, never as dense
products of 2^N x 2^N factors.

Angle convention: iSWAP(theta) is generated by the half-angle form
exp(i (theta/4)(XX + YY)), whose swap block reads
[[cos(theta/2), i sin(theta/2)], [i sin(theta/2), cos(theta/2)]].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .propagator import (
    STATE_VECTOR_LIMIT, check_dense_size, dense_oracle, extract_transfer_phase,
    single_propagator,
)
from .synthesis import ChainParams, ChainSpec, solve_gate_time

__all__ = [
    "DECOMPOSITION_GATE_LIMIT",
    "GateOp",
    "Circuit",
    "MappingReport",
    "iswap_matrix",
    "FSWAP",
    "apply_local",
    "apply_effective_gate",
    "build_generator",
    "effective_gate",
    "verify_mapping",
    "compile_decomposition",
    "decomposition_duration",
    "gate_time",
    "speed_gain",
    "z_layer_equivalent",
]

def iswap_matrix(angle: float) -> np.ndarray:
    """4x4 iSWAP(angle) on two sites (basis |00>,|01>,|10>,|11>), with swap
    block entries cos(angle/2), i sin(angle/2)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    m = np.eye(4, dtype=complex)
    m[1, 1] = m[2, 2] = c
    m[1, 2] = m[2, 1] = 1j * s
    return m


# fermionic swap: SWAP with a -1 phase on |11>
FSWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)

_SINGLE_QUBIT_KINDS = frozenset({"RzPhase", "PiFlipX", "HalfX", "HalfY"})


def _check_j_max(j_max, angle=None) -> None:
    """j_max must be positive and finite, and so must the longest gate time
    it sets: an FSwap's, or an iSWAP's of |angle| > pi."""
    if j_max is None or not 0 < j_max < np.inf:
        raise ValueError(f"j_max must be positive and finite, got {j_max!r}")
    if max(abs(float(angle or 0.0)), np.pi) / (2 * float(j_max)) == np.inf:
        raise ValueError(f"j_max {j_max!r} is too small: gate times overflow")


def gate_time(kind: str, angle: float | None, j_max: float | None) -> float:
    """Duration of one gate under the paper's two-qubit timing: ISwapTheta
    takes |angle|/(2 j_max), FSwap takes pi/(2 j_max), single-qubit gates
    are virtual (zero duration)."""
    if kind in _SINGLE_QUBIT_KINDS:
        return 0.0
    if kind not in ("ISwapTheta", "FSwap"):
        raise ValueError(f"unknown gate kind {kind!r}")
    _check_j_max(j_max, angle)
    return (abs(angle) if kind == "ISwapTheta" else np.pi) / (2 * j_max)


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, 1-based target sites, optional angle, and the
    coupling budget j_max that sets its duration (see gate_time)."""

    kind: str
    targets: tuple
    angle: float | None = None
    j_max: float | None = None

    @property
    def duration(self) -> float:
        return gate_time(self.kind, self.angle, self.j_max)

    def matrix(self) -> np.ndarray:
        if self.kind == "ISwapTheta":
            return iswap_matrix(self.angle)
        if self.kind == "FSwap":
            return FSWAP.copy()
        if self.kind == "RzPhase":
            return np.diag([1.0, np.exp(1j * self.angle)])
        if self.kind == "PiFlipX":
            return np.array([[0, 1], [1, 0]], dtype=complex)
        if self.kind == "HalfX":
            return _half_rotation(np.array([[0, 1], [1, 0]], dtype=complex))
        if self.kind == "HalfY":
            return _half_rotation(np.array([[0, -1j], [1j, 0]], dtype=complex))
        raise ValueError(f"unknown gate kind {self.kind!r}")


def _half_rotation(pauli: np.ndarray) -> np.ndarray:
    # exp(-i (pi/4) P)
    return np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * pauli


@dataclass(frozen=True)
class Circuit:
    """Layered circuit; gates within a layer act on disjoint sites, and a
    two-site gate acts on adjacent sites (p, p+1)."""

    n_sites: int
    layers: tuple

    def __post_init__(self):
        for layer in self.layers:
            seen = set()
            for g in layer:
                t = tuple(g.targets)
                width = 1 if g.kind in _SINGLE_QUBIT_KINDS else 2
                p = t[0] if t else 0
                if t != tuple(range(p, p + width)) or not 1 <= p <= self.n_sites - width + 1:
                    raise ValueError(
                        f"{g.kind} on sites {t}: needs {width} adjacent site(s) "
                        f"in 1..{self.n_sites}"
                    )
                if seen & set(t):
                    raise ValueError("overlapping gates within a layer")
                seen |= set(t)

    @property
    def total_duration(self) -> float:
        return sum(max(g.duration for g in layer) for layer in self.layers)

    def gate_counts(self) -> dict:
        counts: dict = {}
        for layer in self.layers:
            for g in layer:
                counts[g.kind] = counts.get(g.kind, 0) + 1
        return counts

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The circuit applied to a 2^N vector or to each column of a 2^N x m
        block, gate by gate through apply_local."""
        for layer in self.layers:
            for g in layer:
                x = apply_local(x, g.matrix(), g.targets[0])
        return x

    def unitary(self) -> np.ndarray:
        check_dense_size(self.n_sites)
        return self.apply(np.eye(2**self.n_sites, dtype=complex))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "total_duration": self.total_duration,
                "layers": [
                    [
                        {
                            "kind": g.kind,
                            "targets": list(g.targets),
                            "angle": g.angle,
                            "duration": g.duration,
                        }
                        for g in layer
                    ]
                    for layer in self.layers
                ],
            }
        )


def apply_local(x: np.ndarray, gate: np.ndarray, site: int) -> np.ndarray:
    """Apply a d x d gate (d = 2 or 4) on the 1-based site(s) site[, site+1]
    (site 1 = MSB) to a 2^N vector or to each column of a 2^N x m block,
    by BLAS products on its (2^(site-1), d, rest) view."""
    d = gate.shape[0]
    shaped = x.reshape(2 ** (site - 1), d, -1)
    rest = shaped.shape[2]
    if d * rest <= 16:
        # short trailing axis (gate on the last sites of a vector): a stack
        # of tiny d x rest products is slower than einsum, so make one
        # (2^(site-1), d rest) product with gate (x) 1_rest instead
        op = (gate[:, None, :, None] * np.eye(rest)[:, None]).reshape(d * rest, -1)
        return (x.reshape(len(shaped), d * rest) @ op.T).reshape(x.shape)
    return np.matmul(gate, shaped).reshape(x.shape)


def _mirror_pairs(y: np.ndarray):
    """The mirror-pair terms of G_N as views of a 2^N vector or block y.

    For each pair (a, b = N+1-a), y is viewed as (2^(a-1), 2, 2^(b-a-1),
    2, 2^(N-b), ...) over bits a and b (site 1 = MSB); yields the rows
    whose bits a, b read 10 and those reading 01 (the exchange partners,
    in the same order), and the parity sign (+1/-1) of the Z string on
    the sites strictly between them, shaped to broadcast over the halves.
    """
    n = y.shape[0].bit_length() - 1
    for a in range(1, n // 2 + 1):
        b = n + 1 - a
        v = y.reshape((2 ** (a - 1), 2, 2 ** (b - a - 1), 2, 2 ** (n - b)) + y.shape[1:])
        par = 1.0 - 2.0 * (np.bitwise_count(np.arange(2 ** (b - a - 1))) & 1)
        yield v[:, 1, :, 0], v[:, 0, :, 1], par.reshape((-1,) + (1,) * y.ndim)


def build_generator(n_sites: int) -> np.ndarray:
    """G_N: sum over mirror pairs of sigma+_n Z..Z sigma-_{N+1-n} + h.c."""
    check_dense_size(n_sites)
    g = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for rows10, rows01, par in _mirror_pairs(np.arange(2**n_sites)):
        g[rows10, rows01] = g[rows01, rows10] = par
    return g


def _apply_pairs(y: np.ndarray, theta: float) -> np.ndarray:
    """K_N y in place, for a C-contiguous 2^N vector or 2^N x m block y."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    for y10, y01, par in _mirror_pairs(y):
        coef = 1j * s * par
        old10 = y10.copy()
        y10 *= c
        y10 -= coef * y01
        y01 *= c
        y01 -= coef * old10
    return y


def apply_effective_gate(x: np.ndarray, theta: float) -> np.ndarray:
    """K_N x with K_N = exp(-i (theta/2) G_N), for a 2^N vector or a 2^N x m
    block x (x itself is left unchanged).

    The mirror-pair factors commute; each acts on the rows whose two bits
    differ as cos(theta/2) x[row] - i sin(theta/2) parity x[partner], and
    leaves the other rows alone.  The update runs in place on a copy of x,
    holding one extra quarter of it.
    """
    n = x.shape[0].bit_length() - 1
    if x.shape[0] != 2**n:
        raise ValueError(f"leading dimension {x.shape[0]} is not a power of two")
    return _apply_pairs(np.array(x, dtype=complex, order="C"), theta)


def effective_gate(n_sites: int, theta: float) -> np.ndarray:
    """K_N = exp(-i (theta/2) G_N) as a dense 2^N x 2^N matrix."""
    check_dense_size(n_sites)
    return _apply_pairs(np.eye(2**n_sites, dtype=complex), theta)


@dataclass(frozen=True)
class MappingReport:
    distance: float
    transfer_phase: float
    ok: bool
    worst_element: tuple | None = None


def verify_mapping(
    params: ChainParams, theta: float, tol: float = 1e-8
) -> MappingReport:
    """Check Eq.-(7)-style equivalence: the full chain propagator at t=tau,
    corrected by diagonal phases (e^{i phi} per excitation plus e^{i theta/2}
    on the middle site of odd chains), equals K_N.  Chains whose 2^N x 2^N
    matrices exceed DENSE_MATRIX_LIMIT are refused before any is built."""
    n = params.n_sites
    check_dense_size(n)
    u1 = single_propagator(params, params.tau)
    phi = extract_transfer_phase(u1, theta)
    idx = np.arange(2**n)
    weight = np.bitwise_count(idx).astype(float)
    phase = phi * weight
    if n % 2 == 1:
        mid_bit = (idx >> (n - (n + 1) // 2)) & 1
        phase = phase + (theta / 2) * mid_bit
    d = dense_oracle(params, params.tau)
    d *= np.exp(1j * phase)[np.newaxis, :]
    d -= effective_gate(n, theta)
    diff = np.abs(d)
    distance = float(diff.max())
    worst = tuple(int(v) for v in np.unravel_index(diff.argmax(), diff.shape))
    return MappingReport(
        distance=distance, transfer_phase=phi, ok=distance <= tol,
        worst_element=None if distance <= tol else worst,
    )


_HOLE = 0  # ghost rider marking the empty slot of odd chains
# largest swap network compile_decomposition builds, in gates: the network
# has N(N-1)/2 of them, so N <= 1024 (N = 1000 takes about 8 s and 400 MB)
DECOMPOSITION_GATE_LIMIT = 2**19


def _bounce_layers(n: int):
    """Schedule of the swap network: brick-wall odd-even transposition of
    the folded ordering toward full reversal.

    Sites ride on M slots (M=N for even N; M=N+1 for odd N, with a hole
    inserted after the middle site).  Each compare-exchange of two
    trajectories emits an FSWAP, except when the two riders form a mirror
    pair (a + b = N + 1): the pair interacts via iSWAP(-theta) and the
    riders bounce (exchange trajectories with no physical swap).  Hole
    crossings emit nothing.  Returns layers of ("ISwapTheta"|"FSwap", bond)
    with 0-based physical bonds.
    """
    odd = n % 2
    m = n + odd
    if odd:
        mid = (n + 1) // 2
        riders = list(range(1, mid + 1)) + [_HOLE] + list(range(mid + 1, n + 1))
    else:
        riders = list(range(1, n + 1))
    virt = list(range(m))  # trajectory id per slot
    rider_of = dict(enumerate(riders))  # trajectory id -> rider
    hole_slot = riders.index(_HOLE) if odd else -1
    target = sorted(virt, reverse=True)
    layers = []
    while virt != target:
        layer = []
        for p in range(len(layers) % 2, m - 1, 2):
            vi, vj = virt[p], virt[p + 1]
            if vi > vj:
                continue
            ri, rj = rider_of[vi], rider_of[vj]
            bond = p - (1 if odd and hole_slot < p else 0)
            if ri == _HOLE or rj == _HOLE:
                hole_slot = p + 1 if hole_slot == p else p
            elif ri + rj == n + 1:
                # mirror pair meets: interact and bounce, no physical swap
                layer.append(("ISwapTheta", bond))
                rider_of[vi], rider_of[vj] = rj, ri
            else:
                layer.append(("FSwap", bond))
            virt[p], virt[p + 1] = vj, vi
        if layer:
            layers.append(layer)
        if len(layers) > 3 * m:
            raise RuntimeError("swap network failed to converge")
    return layers


def compile_decomposition(
    n_sites: int, theta: float, j_max: float, verify: bool | None = None
) -> Circuit:
    """Compile K_N into a layered {FSWAP, iSWAP(-theta)} swap network.

    Gate counts: N even -> N^2/2 - N FSWAPs + N/2 iSWAPs; N odd ->
    (N-1)^2/2 FSWAPs + (N-1)/2 iSWAPs.  The circuit equals K_N up to a
    final single-qubit Z layer; this is verified on N+3 states (see
    _z_layer_residual) for N <= 12, or always when verify=True (refused
    with ValueError past N = 19), and a failure aborts compilation.
    theta must be finite and j_max positive and finite.  Networks above
    DECOMPOSITION_GATE_LIMIT gates are refused before any is built.
    """
    if n_sites < 3:
        raise ValueError("decomposition defined for N >= 3")
    if n_sites * (n_sites - 1) // 2 > DECOMPOSITION_GATE_LIMIT:
        raise ValueError(f"a swap network on N={n_sites} sites has N(N-1)/2 gates "
                         f"(limit {DECOMPOSITION_GATE_LIMIT}, N <= 1024)")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    _check_j_max(j_max, theta)
    layers = tuple(
        tuple(
            GateOp(kind, (bond + 1, bond + 2),
                   -theta if kind == "ISwapTheta" else None, j_max)
            for kind, bond in raw
        )
        for raw in _bounce_layers(n_sites)
    )
    circuit = Circuit(n_sites=n_sites, layers=layers)
    if verify is None:
        verify = n_sites <= 12
    if verify:
        err = _z_layer_residual(circuit, theta)
        if not err <= 1e-8:
            raise RuntimeError(
                f"compiled circuit is not Z-layer equivalent to K_N "
                f"(N={n_sites}, theta={theta}, residual {err:.2e})"
            )
    return circuit


def _z_layer_residual(circuit: Circuit, theta: float) -> float:
    """How far the circuit C is from e^{i phi} D K_N on N+3 states.

    C and K_N both conserve excitation number, and K_N is unitary on the
    vacuum plus the N single-excitation states, so C's action there fixes
    the diagonal of e^{i phi} D on those states: the global phase (the
    vacuum) and one phase per qubit.  D is extended to every basis state
    as the product of its per-qubit phases.  Returns the largest entry of
    C x - e^{i phi} D K_N x over those N+1 states and two seeded random
    states; zero (up to rounding) exactly when C = e^{i phi} D K_N.  The
    block of states is refused above STATE_VECTOR_LIMIT entries.
    """
    n = circuit.n_sites
    if 2**n * (n + 3) > STATE_VECTOR_LIMIT:
        raise ValueError(f"verifying an N={n} circuit needs 2^{n} x {n + 3} "
                         f"entries (limit {STATE_VECTOR_LIMIT})")
    low = np.concatenate(([0], 1 << np.arange(n - 1, -1, -1)))  # |0>, site 1..N
    x = np.zeros((2**n, n + 3), dtype=complex)
    x[low, np.arange(n + 1)] = 1.0
    rng = np.random.default_rng(0)
    x[:, n + 1:] = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
    x[:, n + 1:] /= np.linalg.norm(x[:, n + 1:], axis=0)
    cx = circuit.apply(x)
    kx = _apply_pairs(x, theta)  # in place: x is not needed again
    d_low = np.einsum("ij,ij->i", cx[low, : n + 1], kx[low, : n + 1].conj())
    d = d_low[:1]
    for q in d_low[1:] / d_low[0]:  # site 1 is the most significant bit
        d = np.outer(d, [1.0, q]).ravel()
    kx *= d[:, None]
    kx -= cx
    return float(np.abs(kx).max())


# (FSwap-only, iSWAP-only, mixed) layers of the N < 5 networks; from N = 5
# on, each of the N + N%2 layers holds an FSwap and N//2 of them also hold
# the one iSWAP of a mirror pair (checked against _bounce_layers in tests)
_SMALL_NETWORK_LAYERS = {2: (0, 1, 0), 3: (2, 1, 0), 4: (2, 2, 0)}


def decomposition_duration(n_sites: int, theta: float, j_max: float) -> float:
    """total_duration of compile_decomposition, from the network's layer
    counts: no schedule or GateOp is built.  Needs N >= 2."""
    if n_sites < 2:
        raise ValueError(f"a swap network needs N >= 2 sites, got {n_sites}")
    t_fswap, t_iswap = (gate_time(kind, -theta, j_max) for kind in ("FSwap", "ISwapTheta"))
    fswap_only, iswap_only, mixed = _SMALL_NETWORK_LAYERS.get(
        n_sites, (n_sites + n_sites % 2 - n_sites // 2, 0, n_sites // 2)
    )
    return fswap_only * t_fswap + iswap_only * t_iswap + mixed * max(t_fswap, t_iswap)


def speed_gain(n_sites: int, theta: float, j_max: float = 1.0) -> float:
    """Decomposition time divided by the direct FST gate time."""
    t_fst = solve_gate_time(ChainSpec(n_sites=n_sites, theta=theta, j_max=j_max))
    return decomposition_duration(n_sites, theta, j_max) / t_fst


def z_layer_equivalent(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-8
) -> tuple:
    """Whether a = (single-qubit Z layer) . b up to global phase.

    Computes C = a b^dag, requires it diagonal with unimodular entries whose
    phases factorize as a constant plus one angle per qubit (checked against
    the phases of the single-excitation basis states).
    """
    c = a @ b.conj().T
    off = float(np.abs(c - np.diag(np.diag(c))).max())
    d = np.diag(c)
    if off > tol or np.abs(np.abs(d) - 1).max() > tol:
        return False, max(off, float(np.abs(np.abs(d) - 1).max()))
    n = int(np.log2(len(d)))
    base = d[0]
    per_qubit = np.array([d[1 << (n - 1 - k)] / base for k in range(n)])
    idx = np.arange(len(d))
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    pred = base * np.prod(np.where(bits == 1, per_qubit[None, :], 1.0), axis=1)
    err = float(np.abs(pred - d).max())
    return err <= 10 * tol, err
