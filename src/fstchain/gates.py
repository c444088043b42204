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
    block_propagators, check_dense_size, extract_transfer_phase, single_propagator,
)
from .synthesis import ChainParams, ChainSpec, solve_gate_time

__all__ = [
    "DECOMPOSITION_GATE_LIMIT",
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


# fermionic swap: SWAP with a -1 phase on |11>; read-only
FSWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)
FSWAP.setflags(write=False)


def _check_j_max(j_max, angle=None) -> None:
    """j_max must be positive and finite, and so must the longest gate time
    it sets: an FSwap's, or an iSWAP's of |angle| > pi."""
    if j_max is None or not 0 < j_max < np.inf:
        raise ValueError(f"j_max must be positive and finite, got {j_max!r}")
    if max(abs(float(angle or 0.0)), np.pi) / (2 * float(j_max)) == np.inf:
        raise ValueError(f"j_max {j_max!r} is too small: gate times overflow")


def gate_time(kind: str, angle: float | None, j_max: float | None) -> float:
    """Duration of one gate under the paper's two-qubit timing: ISwapTheta
    takes |angle|/(2 j_max), FSwap takes pi/(2 j_max)."""
    if kind not in ("ISwapTheta", "FSwap"):
        raise ValueError(f"unknown gate kind {kind!r}")
    _check_j_max(j_max, angle)
    return (abs(angle) if kind == "ISwapTheta" else np.pi) / (2 * j_max)


@dataclass(frozen=True)
class Circuit:
    """A compiled swap network of nearest-neighbour {FSWAP, iSWAP(angle)}
    gates, every iSWAP of one angle and every gate timed by one j_max.

    Each layer is (bonds, iswap): the ascending 0-based bonds p of its
    gates, each acting on the 1-based sites p+1, p+2, and the bond of its
    one iSWAP, or None; every other gate of the layer is an FSWAP.
    """

    n_sites: int
    angle: float
    j_max: float
    layers: tuple

    def _times(self) -> tuple:
        return (gate_time("FSwap", None, self.j_max),
                gate_time("ISwapTheta", self.angle, self.j_max))

    @property
    def total_duration(self) -> float:
        t_fswap, t_iswap = self._times()
        return sum(t_fswap if iswap is None else
                   max(t_iswap, t_fswap) if len(bonds) > 1 else t_iswap
                   for bonds, iswap in self.layers)

    def gate_counts(self) -> dict:
        n_iswap = sum(iswap is not None for _, iswap in self.layers)
        return {"FSwap": sum(len(bonds) for bonds, _ in self.layers) - n_iswap,
                "ISwapTheta": n_iswap}

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The circuit applied to a 2^N vector or to each column of a 2^N x m
        block, gate by gate through apply_local."""
        iswap_gate = iswap_matrix(self.angle)
        for bonds, iswap in self.layers:
            for p in bonds:
                x = apply_local(x, iswap_gate if p == iswap else FSWAP, p + 1)
        return x

    def unitary(self) -> np.ndarray:
        check_dense_size(self.n_sites)
        return self.apply(np.eye(2**self.n_sites, dtype=complex))

    def to_json(self) -> str:
        return "".join(self._json_chunks())

    def write_json(self, path) -> None:
        """Write to_json() and a newline to ``path``, one layer at a time."""
        with open(path, "w") as f:
            f.writelines(self._json_chunks())
            f.write("\n")

    def _json_chunks(self):
        """The text of json.dumps({"n_sites", "total_duration", "layers":
        [[{"kind", "targets", "angle", "duration"}, ...], ...]}) in pieces,
        one a layer, each gate formatted from its kind's template."""
        t_fswap, t_iswap = self._times()
        gate = '{"kind": "%s", "targets": [%%d, %%d], "angle": %s, "duration": %s}'
        fswap_text = gate % ("FSwap", "null", json.dumps(t_fswap))
        iswap_text = gate % ("ISwapTheta", json.dumps(self.angle), json.dumps(t_iswap))
        yield '{"n_sites": %s, "total_duration": %s, "layers": [' % (
            json.dumps(self.n_sites), json.dumps(self.total_duration))
        for i, (bonds, iswap) in enumerate(self.layers):
            yield (", [" if i else "[") + ", ".join(
                (iswap_text if p == iswap else fswap_text) % (p + 1, p + 2) for p in bonds) + "]"
        yield "]}"


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


def _k_entries(n_sites: int, theta: float):
    """The nonzero entries (rows, cols, values) of K_N, 2^N (3/2)^(N//2)
    of them: from the identity's, each mirror-pair factor scales the
    entries on rows reading 10 or 01 on the pair by cos(theta/2) and adds
    their copies on the partner rows times -i sin(theta/2) parity.  A row
    and its partner never both hold an entry of one column, so each value
    is the product _apply_pairs forms on the identity, factor by factor."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    idx = np.arange(2**n_sites)
    rows, cols, vals = idx, idx, np.ones(2**n_sites, dtype=complex)
    for rows10, rows01, par in _mirror_pairs(idx):
        partner, sign = idx.copy(), np.zeros(2**n_sites)
        partner[rows10], partner[rows01] = rows01, rows10
        sign[rows10] = sign[rows01] = par
        hit = np.flatnonzero(sign[rows])
        swapped = (-1j * s * sign[rows[hit]]) * vals[hit]
        vals[hit] *= c
        rows = np.concatenate((rows, partner[rows[hit]]))
        cols = np.concatenate((cols, cols[hit]))
        vals = np.concatenate((vals, swapped))
    return rows, cols, vals


def effective_gate(n_sites: int, theta: float) -> np.ndarray:
    """K_N = exp(-i (theta/2) G_N) as a dense 2^N x 2^N matrix: its
    nonzero entries (_k_entries) scattered into zeros."""
    check_dense_size(n_sites)
    rows, cols, vals = _k_entries(n_sites, theta)
    k = np.zeros((2**n_sites,) * 2, dtype=complex)
    k[rows, cols] = vals
    return k


@dataclass(frozen=True)
class MappingReport:
    distance: float
    transfer_phase: float
    ok: bool
    worst_element: tuple | None = None


# largest entry of the corrected chain propagator minus K_N that
# verify_mapping accepts
_MAPPING_TOL = 1e-8


def verify_mapping(params: ChainParams, theta: float) -> MappingReport:
    """Check Eq.-(7)-style equivalence: the full chain propagator at t=tau,
    corrected by diagonal phases (e^{i phi} per excitation plus e^{i theta/2}
    on the middle site of odd chains), equals K_N to _MAPPING_TOL.

    Both conserve excitation number, so each number block of
    block_propagators is checked against K_N's entries of its weight, and
    no 2^N x 2^N matrix is built.  distance is the largest entry of the
    difference; worst_element, when the check fails, its first (row,
    column) in row-major order.  Chains above block_propagators' size
    limit (N <= 12) are refused before any block is built."""
    n = params.n_sites
    blocks = block_propagators(params, params.tau)
    phi = extract_transfer_phase(single_propagator(params, params.tau), theta)
    idx = np.arange(2**n)
    phase = phi * np.bitwise_count(idx).astype(float)
    if n % 2 == 1:
        mid_bit = (idx >> (n - (n + 1) // 2)) & 1
        phase = phase + (theta / 2) * mid_bit
    col_phase = np.exp(1j * phase)
    k_rows, k_cols, k_vals = _k_entries(n, theta)
    k_weight = np.bitwise_count(k_cols)
    peaks, where = [], []
    for rows, d in blocks:
        # the phases as a whole block, not a broadcast row: on the 1x1
        # blocks (k = 0, N) numpy takes a broadcast row for a scalar
        # operand, whose products can differ in the last bit from those of
        # the vector loop that scales a full matrix's rows
        d = d * np.tile(col_phase[rows], (len(rows), 1))
        mine = k_weight == np.bitwise_count(rows[0])
        d[np.searchsorted(rows, k_rows[mine]), np.searchsorted(rows, k_cols[mine])] -= k_vals[mine]
        diff = np.abs(d)
        r, c = divmod(int(diff.argmax()), len(rows))
        peaks.append(diff[r, c])
        where.append((int(rows[r]), int(rows[c])))
    # np.argmax over the blocks' peaks in row-major order of their places:
    # the first largest (or NaN) entry of the whole difference
    order = sorted(range(len(where)), key=where.__getitem__)
    best = order[int(np.argmax(np.array(peaks)[order]))]
    distance = float(peaks[best])
    ok = distance <= _MAPPING_TOL
    return MappingReport(
        distance=distance, transfer_phase=phi, ok=ok,
        worst_element=None if ok else where[best],
    )


# largest swap network compile_decomposition builds, in gates: the network
# has N(N-1)/2 of them, so N <= 1024 (`fstchain decompose --n 1000`, checked
# and written, takes about 0.6 s and peaks at 121 MB RSS on one core of a
# 2-vCPU x86-64 VM)
DECOMPOSITION_GATE_LIMIT = 2**19


def _bounce_layers(n: int):
    """Schedule of the swap network: a brick wall on M slots (M=N for even
    N; M=N+1 for odd N, with a hole after the middle site).

    Layer l holds the slot pairs (p, p+1) with p = l (mod 2), for l = 0..M-1.
    The middle pair p = M/2 - 1 is where each mirror pair (a, N+1-a) meets,
    so it holds an iSWAP(-theta); every other pair is an FSWAP.
    A pair touching the hole emits nothing and moves the hole to its other
    slot; slots after the hole sit on physical bond p - 1.  Returns the
    nonempty layers as Circuit holds them: (ascending 0-based physical
    bonds, the iSWAP's bond or None).
    """
    m = n + n % 2
    hole = (n + 1) // 2 if n % 2 else m  # slot m is never in a pair
    layers = []
    for parity in range(m):
        bonds, iswap = [], None
        for p in range(parity % 2, m - 1, 2):
            if hole in (p, p + 1):
                hole = 2 * p + 1 - hole
            else:
                bonds.append(p - 1 if hole < p else p)
                if p == m // 2 - 1:
                    iswap = bonds[-1]
        if bonds:
            layers.append((tuple(bonds), iswap))
    return layers


def compile_decomposition(
    n_sites: int, theta: float, j_max: float, verify: bool = True
) -> Circuit:
    """Compile K_N into a layered {FSWAP, iSWAP(-theta)} swap network.

    Gate counts: N even -> N^2/2 - N FSWAPs + N/2 iSWAPs; N odd ->
    (N-1)^2/2 FSWAPs + (N-1)/2 iSWAPs.  The circuit equals K_N up to a
    final single-qubit Z layer; unless verify=False this is checked on the
    N x N single-particle matrices (see _single_particle_residual), and a
    failure aborts compilation.  theta must be finite and j_max positive
    and finite.  Networks above DECOMPOSITION_GATE_LIMIT gates are refused
    before any is built.
    """
    if n_sites < 3:
        raise ValueError("decomposition defined for N >= 3")
    if n_sites * (n_sites - 1) // 2 > DECOMPOSITION_GATE_LIMIT:
        raise ValueError(f"a swap network on N={n_sites} sites has N(N-1)/2 gates "
                         f"(limit {DECOMPOSITION_GATE_LIMIT}, N <= 1024)")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    _check_j_max(j_max, theta)
    circuit = Circuit(n_sites=n_sites, angle=-theta, j_max=j_max,
                      layers=tuple(_bounce_layers(n_sites)))
    if verify:
        err = _single_particle_residual(circuit, theta)
        if not err <= 1e-8:
            raise RuntimeError(
                f"compiled circuit is not Z-layer equivalent to K_N "
                f"(N={n_sites}, theta={theta}, residual {err:.2e})"
            )
    return circuit


def _z_layer_error(a: np.ndarray, b: np.ndarray) -> float:
    """The largest entry of a - e^{i phi} D b, for 2^N x m blocks a and b
    and D a single-qubit Z layer; b is overwritten.

    e^{i phi} and the N per-qubit phases of D are the phases of the overlaps
    sum_j a_ij conj(b_ij) of the rows of the vacuum and of one excitation
    on site 1..N: for a = e^{i phi} D b each is the phase times the squared
    norm of b's row, so any b whose such rows are not zero serves.
    D is extended to every basis state as the product of its per-qubit
    phases.  The phases are unimodular, so a scaled a (a = 2b) is refused.
    """
    n = len(a).bit_length() - 1
    low = np.concatenate(([0], 1 << np.arange(n - 1, -1, -1)))
    phases = np.exp(1j * np.angle(np.einsum("ij,ij->i", a[low], b[low].conj())))
    d = phases[:1]
    for q in phases[1:] / phases[0]:
        d = np.outer(d, [1.0, q]).ravel()
    b *= d[:, None]
    b -= a
    return float(np.abs(b).max())


def _single_particle_residual(circuit: Circuit, theta: float) -> float:
    """How far a swap network C is from D K_N, D a single-qubit Z layer,
    judged on N x N single-particle matrices: the largest of the largest
    entry of C_sp - D K_sp, the departure of each gate kind (FSWAP and
    iSWAP(circuit.angle)) from a free-fermion gate (|00> fixed, |11> times
    the determinant of its block on |10>, |01>), and that of FSWAP's block
    from a plain exchange of its two sites, which relabels rows.  Such a
    circuit is the lift of C_sp, as K_N is of K_sp (cos(theta/2) on the
    diagonal, -i sin(theta/2) on the antidiagonal, 1 on the middle site of
    odd N), so C = D K_N on all 2^N states exactly when C_sp = D K_sp.  D is
    fitted from the phases of the rows' overlaps with K_sp.
    """
    n = circuit.n_sites
    g = np.array([FSWAP, iswap_matrix(circuit.angle)])
    block = g[:, 2:0:-1, 2:0:-1]  # on (|10>, |01>): sites p, p+1
    free = np.zeros_like(g)
    free[:, 0, 0] = 1.0
    free[:, 1:3, 1:3] = g[:, 1:3, 1:3]
    free[:, 3, 3] = block[:, 0, 0] * block[:, 1, 1] - block[:, 0, 1] * block[:, 1, 0]
    err = max(np.abs(g - free).max(), np.abs(block[0] - [[0, 1], [1, 0]]).max())
    u = np.eye(n, dtype=complex)
    row = np.arange(n)  # row i of C_sp is u[row[i]]
    for bonds, iswap in circuit.layers:
        p = np.array(bonds)
        if iswap is not None:
            rows = row[[iswap, iswap + 1]]
            u[rows] = block[1] @ u[rows]
            p = p[p != iswap]
        row[np.concatenate((p, p + 1))] = row[np.concatenate((p + 1, p))]
    u = u[row]
    k = np.cos(theta / 2) * np.eye(n) - 1j * np.sin(theta / 2) * np.eye(n)[::-1]
    if n % 2:
        k[n // 2, n // 2] = 1.0
    d = np.exp(1j * np.angle(np.einsum("ij,ij->i", u, k.conj())))
    return max(err, float(np.abs(u - d[:, None] * k).max()))


# (FSwap-only, iSWAP-only, mixed) layers of the N < 5 networks; from N = 5
# on, each of the N + N%2 layers holds an FSwap and N//2 of them also hold
# the one iSWAP of a mirror pair (checked against _bounce_layers in tests)
_SMALL_NETWORK_LAYERS = {2: (0, 1, 0), 3: (2, 1, 0), 4: (2, 2, 0)}


def decomposition_duration(n_sites: int, theta: float, j_max: float) -> float:
    """total_duration of compile_decomposition, from the network's layer
    counts: no schedule is built.  Needs N >= 2."""
    if n_sites < 2:
        raise ValueError(f"a swap network needs N >= 2 sites, got {n_sites}")
    t_fswap, t_iswap = (gate_time(kind, -theta, j_max) for kind in ("FSwap", "ISwapTheta"))
    fswap_only, iswap_only, mixed = _SMALL_NETWORK_LAYERS.get(
        n_sites, (n_sites + n_sites % 2 - n_sites // 2, 0, n_sites // 2)
    )
    return fswap_only * t_fswap + iswap_only * t_iswap + mixed * max(t_fswap, t_iswap)


def speed_gain(n_sites: int, theta: float) -> float:
    """Decomposition time divided by the direct FST gate time, at the same
    coupling budget (the ratio does not depend on its value)."""
    t_fst = solve_gate_time(ChainSpec(n_sites=n_sites, theta=theta, j_max=1.0))
    return decomposition_duration(n_sites, theta, 1.0) / t_fst


def z_layer_equivalent(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-8
) -> tuple:
    """Whether a = e^{i phi} D b for a single-qubit Z layer D, for 2^N x 2^N
    matrices a and unitary b: (ok, err), with err the largest entry of
    a - e^{i phi} D b (see _z_layer_error) and ok = err <= tol."""
    err = _z_layer_error(np.asarray(a), np.array(b, dtype=complex))
    return err <= tol, err
