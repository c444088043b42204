"""Exact chain evolution: single-excitation propagator, free-fermion lift,
and a dense brute-force oracle on the full 2^N space.

The dense oracle uses nothing of the free-fermion engine: H conserves the
excitation number and its nearest-neighbour hops carry no Jordan-Wigner
string, so it is built and exponentiated one number block at a time.

Basis conventions used throughout the package:

* site 1 is the most significant bit of a computational basis index;
* an occupation subset {i1 < ... < ik} labels both the Fock state
  a+_{i1} ... a+_{ik} |vac> and the bitstring with ones at those sites,
  with relative amplitude +1 (the sign convention of the annihilation
  operators cancels in number-conserving bilinears).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .synthesis import DENSE_MATRIX_LIMIT, ChainParams, single_excitation_hamiltonian

__all__ = [
    "check_dense_size",
    "STATE_VECTOR_LIMIT",
    "single_propagator",
    "extract_transfer_phase",
    "lift_to_full",
    "sector_indices",
    "sector_propagator",
    "network_apply",
    "split_sectors",
    "site_populations",
    "block_propagators",
    "dense_oracle",
    "evolve_state",
    "basis_state",
    "write_state_json",
    "state_from_json",
]

# largest dense 2^N state vector basis_state builds, in complex entries
# (2^24 entries = 256 MB, N <= 24); evolving a state in every sector peaks
# at about 145 bytes an entry (network_apply's bond tables), budget 200
STATE_VECTOR_LIMIT = 2**24


def check_dense_size(n_sites: int) -> None:
    """Refuse (ValueError) a 2^N x 2^N matrix above DENSE_MATRIX_LIMIT."""
    if 2 * n_sites > np.log2(DENSE_MATRIX_LIMIT):
        raise ValueError(f"a dense 2^N x 2^N matrix on N={n_sites} sites needs "
                         f"4^{n_sites} entries (limit {DENSE_MATRIX_LIMIT})")


def single_propagator(params: ChainParams, t: float) -> np.ndarray:
    """U = exp(-i H^(1) t) on the single-excitation manifold."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    h = single_excitation_hamiltonian(params)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def extract_transfer_phase(u: np.ndarray, theta: float) -> float:
    """Transfer phase phi of an FST propagator at t = tau.

    The propagator maps |n> to e^{-i phi}(cos(theta/2)|n> -
    i sin(theta/2)|N+1-n>); phi is read off the (1,1) element, or off the
    antidiagonal element when cos(theta/2) vanishes.
    """
    n = u.shape[0]
    c = np.cos(theta / 2)
    if abs(c) >= 1e-6:
        amp = u[0, 0] / c
    else:
        amp = 1j * u[n - 1, 0] / np.sin(theta / 2)
    if abs(amp) < 0.5:
        raise ValueError("input does not look like an FST propagator at t=tau")
    return float(-np.angle(amp))


@lru_cache(maxsize=64)
def sector_indices(n_sites: int, k: int) -> np.ndarray:
    """Basis indices (site 1 = MSB) of all k-excitation bitstrings,
    ordered by their occupation subsets lexicographically, which is
    descending index order.  Built on int64 arrays by the recurrence
    S(m, j) = [2^(m-1) | S(m-1, j-1), S(m-1, j)] for the descending
    weight-j integers below 2^m.  Cached; the array is read-only.  Indices
    must fit in int64, so N <= 63."""
    if n_sites > 63:
        raise ValueError(f"basis indices on N={n_sites} sites overflow int64 (N <= 63)")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    levels = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * k
    for m in range(1, n_sites + 1):
        # descending j, so levels[j - 1] still holds S(m-1, j-1); a weight
        # below k - (N - m) cannot reach k and is left stale
        for j in range(k, max(0, k - n_sites + m - 1), -1):
            levels[j] = np.concatenate(((1 << (m - 1)) | levels[j - 1], levels[j]))
    out = levels[k]
    out.setflags(write=False)
    return out


def sector_propagator(u: np.ndarray, k: int) -> np.ndarray:
    """Determinant lift of the single-particle matrix u to the k-excitation
    sector: element (S', S) = det(u[S', S])."""
    n = u.shape[0]
    subsets = list(combinations(range(n), k))
    m = len(subsets)
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    rows = np.array(subsets)
    # stack all (S', S) submatrices and take dets in one vectorized call
    sub = u[rows[:, None, :, None], rows[None, :, None, :]]
    return np.linalg.det(sub.reshape(m * m, k, k)).reshape(m, m)


def _givens_rotations(u: np.ndarray):
    """u = R_1 ... R_M diag(d) by a Givens QR: for each column c, rows
    (r-1, r) are rotated from the bottom up by G = [[conj(a), conj(b)],
    [-b, a]] / |(a, b)|, which zeros u[r, c] and has determinant 1, so every
    phase is left in d.  Returns the bonds r and the 2x2 blocks of R = G^+
    in the order they act on a state (R_M first), and d.  A plain-Python
    loop over u.tolist(): at N ~ 15 it beats a numpy product per rotation."""
    n = u.shape[0]
    w = u.tolist()
    bonds, blocks = [], []
    for c in range(n):
        for r in range(n - 1, c, -1):
            top, bot = w[r - 1], w[r]
            a, b = top[c], bot[c]
            if b == 0:
                continue
            h = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
            a, b = a / h, b / h
            ac, bc = a.conjugate(), b.conjugate()
            for j in range(c, n):
                x, y = top[j], bot[j]
                top[j] = ac * x + bc * y
                bot[j] = a * y - b * x
            bonds.append(r)
            blocks.append((a, -bc, b, ac))
    d = np.array([w[j][j] for j in range(n)], dtype=complex)
    return bonds[::-1], np.array(blocks[::-1], dtype=complex).reshape(-1, 2, 2), d


def _bond_pairs(n: int, live: np.ndarray) -> list:
    """For each bond (r-1, r), r = 1..N-1, a (2, m) array of positions in
    live: row 0 the states whose modes r-1, r read 10, row 1 their 01
    partners.  live is a concatenation of whole sectors in sector_indices
    order, and moving the particle at r-1 to r moves a subset C(N-1-r, j)
    places on in lexicographic order, j being the particles past r."""
    pairs = []
    for r in range(1, n):
        lo = 1 << (n - 1 - r)
        p = np.flatnonzero(live & 3 * lo == 2 * lo)
        binom = np.array([comb(n - 1 - r, j) for j in range(n)], dtype=np.int64)
        pairs.append(np.stack((p, p + binom[np.bitwise_count(live[p] & (lo - 1))])))
    return pairs


def network_apply(u: np.ndarray, sectors: dict) -> dict:
    """A sector state {k: amplitudes} evolved by the lift of the
    single-particle matrix u, by a nearest-neighbour Givens network.

    u = R_1 ... R_M diag(d) (_givens_rotations).  d lifts to the phase
    prod_{j occupied} d_j of each basis state.  A rotation R of the
    adjacent modes (r-1, r) carries no Jordan-Wigner string, so it lifts to
    its 2x2 block on the 10 / 01 pairs of that bond and to det R = 1 on 11:
    one gather, one 2x2 product and one scatter over all occupied sectors.
    """
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError(f"u must be square, got shape {u.shape}")
    for k, amp in sectors.items():
        if np.shape(amp) != (comb(n, k),):
            raise ValueError(f"sector k={k} amplitudes must have shape "
                             f"({comb(n, k)},), got {np.shape(amp)}")
    if not sectors:
        return {}
    bonds, blocks, d = _givens_rotations(u)
    live = np.concatenate([sector_indices(n, k) for k in sectors])
    amp = np.concatenate(list(sectors.values()), dtype=complex)
    for j, phase in enumerate(d):
        amp[live & (1 << (n - 1 - j)) != 0] *= phase
    pairs = _bond_pairs(n, live)
    for r, g in zip(bonds, blocks):
        pq = pairs[r - 1]
        amp[pq] = g @ amp[pq]
    ends = np.cumsum([comb(n, k) for k in sectors])
    return dict(zip(sectors, np.split(amp, ends[:-1])))


def split_sectors(psi: np.ndarray) -> dict:
    """The occupied sectors of a 2^N state: {k: psi[sector_indices(N, k)]}."""
    n = psi.size.bit_length() - 1
    occupied = np.unique(np.bitwise_count(np.flatnonzero(psi)))
    return {int(k): psi[sector_indices(n, int(k))] for k in occupied}


def site_populations(n_sites: int, sectors: dict) -> np.ndarray:
    """Excitation probability of each site 1..N of a sector state."""
    shifts = np.arange(n_sites - 1, -1, -1)
    p = np.zeros(n_sites)
    for k, amp in sectors.items():
        bits = (sector_indices(n_sites, k)[:, None] >> shifts) & 1
        p += np.abs(amp) ** 2 @ bits
    return p


def lift_to_full(u: np.ndarray) -> np.ndarray:
    """Lift a single-particle unitary to the full 2^N space via Slater
    determinants.  Block diagonal in total excitation number."""
    n = u.shape[0]
    check_dense_size(n)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        idx = sector_indices(n, k)
        full[np.ix_(idx, idx)] = sector_propagator(u, k)
    return full


def _number_blocks(params: ChainParams):
    """Yield, for k = 0..N, the k-excitation basis indices in ascending order
    and the real symmetric block of H on them, by bit arithmetic: the
    detunings of the set bits on the diagonal, and J_s between each pair of
    states whose bits s, s+1 (site 1 = MSB) read 01 and 10."""
    n = params.n_sites
    idx = np.arange(2**n)
    diag = ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1) @ params.detunings
    weight = np.bitwise_count(idx)
    for k in range(n + 1):
        rows = idx[weight == k]
        h = np.diag(diag[rows])
        for s in range(1, n):
            lo = 1 << (n - s - 1)
            a = np.flatnonzero((rows & 3 * lo) == lo)
            b = np.searchsorted(rows, rows[a] ^ 3 * lo)
            h[a, b] = h[b, a] = params.couplings[s - 1]
        yield rows, h


def block_propagators(params: ChainParams, t: float):
    """An iterator over k = 0..N of the k-excitation basis indices in
    ascending order and exp(-i H_k t) on them, H_k the number block of H,
    by one real eigh a block.  t must be finite; a negative t evolves
    backwards.  Chains whose 2^N x 2^N propagator would exceed
    DENSE_MATRIX_LIMIT are refused when this is called, before any block
    is built."""
    check_dense_size(params.n_sites)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")

    def blocks():
        for rows, h in _number_blocks(params):
            evals, evecs = np.linalg.eigh(h)
            yield rows, (evecs * np.exp(-1j * evals * t)) @ evecs.T

    return blocks()


def dense_oracle(params: ChainParams, t: float) -> np.ndarray:
    """exp(-i H t) on the full 2^N space: the blocks of block_propagators
    scattered into a 2^N x 2^N matrix."""
    blocks = block_propagators(params, t)
    u = np.zeros((2**params.n_sites,) * 2, dtype=complex)
    for rows, block in blocks:
        u[rows[:, None], rows] = block
    return u


def basis_state(n_sites: int, sites) -> np.ndarray:
    """Computational basis state with excitations at the given 1-based sites.

    Above STATE_VECTOR_LIMIT entries a ValueError is raised before anything
    is allocated."""
    if 2**n_sites > STATE_VECTOR_LIMIT:
        raise ValueError(
            f"a dense state on N={n_sites} sites needs 2^{n_sites} entries "
            f"(limit {STATE_VECTOR_LIMIT})"
        )
    idx = 0
    for s in sites:
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} outside 1..{n_sites}")
        if idx >> (n_sites - s) & 1:
            raise ValueError(f"site {s} given twice")
        idx |= 1 << (n_sites - s)
    psi = np.zeros(2**n_sites, dtype=complex)
    psi[idx] = 1.0
    return psi


def evolve_state(
    psi: np.ndarray, params: ChainParams, t: float, method: str = "sector"
) -> np.ndarray:
    """Evolve a 2^N state vector for time t: the excitation-number sectors
    the state occupies are evolved together by network_apply.  method must
    be "sector".  The oracles lift_to_full and dense_oracle build the
    2^N x 2^N propagator instead.
    """
    n = params.n_sites
    if psi.shape != (2**n,):
        raise ValueError(f"state dimension {psi.shape} does not match N={n}")
    if method != "sector":
        raise ValueError(f"unknown method {method!r}")
    sectors = network_apply(single_propagator(params, t), split_sectors(psi))
    out = np.zeros(psi.shape, dtype=complex)
    for k, amp in sectors.items():
        out[sector_indices(n, k)] = amp
    return out


_JSON_ROWS = 2**12  # amplitudes formatted at a time by write_state_json


def write_state_json(psi: np.ndarray, fh) -> None:
    """Write psi to a text stream as a JSON list of [re, im] pairs,
    formatting _JSON_ROWS amplitudes at a time."""
    fh.write("[")
    for start in range(0, len(psi), _JSON_ROWS):
        chunk = psi[start : start + _JSON_ROWS]
        pairs = np.column_stack((chunk.real, chunk.imag)).astype(float, copy=False)
        fh.write((", " if start else "") + json.dumps(pairs.tolist())[1:-1])
    fh.write("]")


def state_from_json(s: str) -> np.ndarray:
    """Read a state written by write_state_json; anything other than a JSON
    list of [re, im] number pairs raises TypeError."""
    pairs = json.loads(s, parse_int=float)
    if type(pairs) is not list or not all(
        type(p) is list and len(p) == 2 and type(p[0]) is float and type(p[1]) is float
        for p in pairs
    ):
        raise TypeError("a state must be a JSON list of [re, im] number pairs")
    return np.array(pairs, dtype=float).reshape(-1, 2).view(complex).ravel()
