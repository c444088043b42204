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

import io
import json
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from .synthesis import DENSE_MATRIX_LIMIT, ChainParams, single_excitation_hamiltonian

__all__ = [
    "DENSE_MATRIX_LIMIT",
    "check_dense_size",
    "SECTOR_TENSOR_LIMIT",
    "STATE_VECTOR_LIMIT",
    "single_propagator",
    "extract_transfer_phase",
    "lift_to_full",
    "sector_indices",
    "sector_propagator",
    "sector_apply",
    "split_sectors",
    "evolve_sectors",
    "site_populations",
    "dense_oracle",
    "dense_hamiltonian",
    "evolve_state",
    "basis_state",
    "write_state_json",
    "state_to_json",
    "state_from_json",
]

# largest antisymmetric tensor sector_apply builds, in complex entries
# (2^24 entries = 256 MB; one contraction holds two of them)
SECTOR_TENSOR_LIMIT = 2**24
# largest dense 2^N state vector basis_state builds, in complex entries
# (2^24 entries = 256 MB, N <= 24; evolving and writing it takes about
# 200 bytes an entry)
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
    descending index order.  Cached; the array is read-only.  Indices
    must fit in int64, so N <= 63."""
    if n_sites > 63:
        raise ValueError(f"basis indices on N={n_sites} sites overflow int64 (N <= 63)")
    sites = np.array(list(combinations(range(n_sites), k)), dtype=np.int64)
    out = (1 << (n_sites - 1 - sites.reshape(comb(n_sites, k), k))).sum(axis=1)
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


@lru_cache(maxsize=64)
def _antisymmetric_layout(n: int, k: int):
    """Flat positions of the k-excitation subsets in an (n,)*k tensor.

    Returns (scatter, signs, gather): ``scatter[p, i]`` is the position of
    subset i with its sites in the order of permutation p, ``signs[p]``
    that permutation's sign, and ``gather`` the sorted positions.
    """
    rows = np.array(list(combinations(range(n), k)), dtype=np.int64)
    place = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    # sign of a permutation = parity of its inversion count
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    signs = 1.0 - 2.0 * (inversions % 2)
    scatter = rows[:, perms].transpose(1, 0, 2) @ place
    out = (scatter, signs, rows @ place)
    for a in out:
        a.setflags(write=False)
    return out


def _contract_sector(u: np.ndarray, k: int, amp: np.ndarray) -> np.ndarray:
    if k == 0:
        return amp.astype(complex)
    n = u.shape[0]
    scatter, signs, gather = _antisymmetric_layout(n, k)
    t = np.zeros(n**k, dtype=complex)
    t[scatter] = signs[:, None] * amp[None, :]
    ut = u.T
    for _ in range(k):
        # contract u into the leading axis and rotate it to the back
        t = t.reshape(n, -1).T @ ut
    return t.reshape(-1)[gather]


def sector_apply(u: np.ndarray, k: int, amp: np.ndarray) -> np.ndarray:
    """``sector_propagator(u, k) @ amp`` without building the m x m lift.

    The amplitudes are scattered into an antisymmetric rank-k tensor, u is
    contracted into each of its axes, and the sorted subsets are read back:
    sum_pi sgn(pi) prod_j u[S'_j, S_pi(j)] = det u[S', S].  For k > N/2
    the sector is evolved as its N-k hole sector under conj(u), by Jacobi's
    complementary-minor identity det u[S', S] = (-1)^(sum S' + sum S)
    det u conj(det u[S'^c, S^c]), which needs u unitary.  The tensor has
    N^min(k, N-k) entries; above SECTOR_TENSOR_LIMIT a ValueError is raised
    before anything is allocated.
    """
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError(f"u must be square, got shape {u.shape}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    holes = n - k
    size = n ** int(min(k, holes))  # Python int: no int64 wrap-around
    if size > SECTOR_TENSOR_LIMIT:
        raise ValueError(
            f"sector N={n}, k={k} needs a tensor of {size} entries "
            f"(limit {SECTOR_TENSOR_LIMIT})"
        )
    amp = np.asarray(amp)
    m = comb(n, k)
    if amp.shape != (m,):
        raise ValueError(f"amplitudes must have shape ({m},), got {amp.shape}")
    if k <= holes:
        return _contract_sector(u, k, amp)
    if np.abs(u.conj().T @ u - np.eye(n)).max() > 1e-9:
        raise ValueError("the particle-hole route for k > N/2 needs a unitary u")
    # complements of lexicographic k-subsets are reverse-lexicographic
    sign = np.array([(-1) ** sum(c) for c in combinations(range(n), k)])
    holes_out = _contract_sector(u.conj(), holes, (sign * amp)[::-1])
    return np.linalg.det(u) * sign * holes_out[::-1]


def split_sectors(psi: np.ndarray) -> dict:
    """The occupied sectors of a 2^N state: {k: psi[sector_indices(N, k)]}."""
    n = psi.size.bit_length() - 1
    occupied = np.unique(np.bitwise_count(np.flatnonzero(psi)))
    return {int(k): psi[sector_indices(n, int(k))] for k in occupied}


def evolve_sectors(u: np.ndarray, sectors: dict) -> dict:
    """Each sector evolved by the single-particle propagator u."""
    return {k: sector_apply(u, k, amp) for k, amp in sectors.items()}


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


def dense_hamiltonian(params: ChainParams) -> np.ndarray:
    """Full 2^N matrix of the chain Hamiltonian, scattered from its
    excitation-number blocks."""
    check_dense_size(params.n_sites)
    h = np.zeros((2**params.n_sites,) * 2, dtype=complex)
    for rows, block in _number_blocks(params):
        h[rows[:, None], rows] = block
    return h


def dense_oracle(params: ChainParams, t: float) -> np.ndarray:
    """exp(-i H t) on the full 2^N space, by diagonalizing each
    excitation-number block of H."""
    check_dense_size(params.n_sites)
    u = np.zeros((2**params.n_sites,) * 2, dtype=complex)
    for rows, block in _number_blocks(params):
        evals, evecs = np.linalg.eigh(block)
        u[rows[:, None], rows] = (evecs * np.exp(-1j * evals * t)) @ evecs.T
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
    """Evolve a 2^N state vector for time t.

    method="sector" evolves each excitation-number sector the state
    occupies with sector_apply, at any N whose sectors fit
    SECTOR_TENSOR_LIMIT.  method="lift" (the full determinant lift) and
    method="dense" (the blockwise exponential of H) are oracles that build
    a 2^N x 2^N matrix, so N <= 12 (DENSE_MATRIX_LIMIT).
    """
    n = params.n_sites
    if psi.shape != (2**n,):
        raise ValueError(f"state dimension {psi.shape} does not match N={n}")
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if method == "sector":
        sectors = evolve_sectors(single_propagator(params, t), split_sectors(psi))
        out = np.zeros(psi.shape, dtype=complex)
        for k, amp in sectors.items():
            out[sector_indices(n, k)] = amp
        return out
    if method == "lift":
        full = lift_to_full(single_propagator(params, t))
    elif method == "dense":
        full = dense_oracle(params, t)
    else:
        raise ValueError(f"unknown method {method!r}")
    return full @ psi


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


def state_to_json(psi: np.ndarray) -> str:
    buf = io.StringIO()
    write_state_json(psi, buf)
    return buf.getvalue()


def state_from_json(s: str) -> np.ndarray:
    pairs = json.loads(s)
    return np.array([complex(re, im) for re, im in pairs])
