"""Reference computations made apart from fstchain, and the check record.

Every expected value here comes from a closed form or from a plain
Kronecker-product construction; nothing is read back from a stored run of
the program.  Each check becomes one ``[PASS]/[FAIL] name: measured vs
tolerance`` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import expm

_I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def below(name: str, measured: float, tol: float) -> Check:
    """Pass when ``measured < tol`` (NaN fails)."""
    measured = float(measured)
    return Check(name, bool(measured < tol), f"{measured:.2e} vs {tol:.0e}")


def holds(name: str, ok: bool, detail: str) -> Check:
    return Check(name, bool(ok), detail)


def kron_all(ops) -> np.ndarray:
    return reduce(np.kron, ops)


# ----------------------------------------------------------------- chain


def bit(index: int, n: int, site: int) -> int:
    """Occupation of a 1-based site (site 1 = most significant bit)."""
    return (index >> (n - site)) & 1


def pattern(n: int, sites) -> np.ndarray:
    p = np.zeros(n)
    p[[s - 1 for s in sites]] = 1.0
    return p


def pair_rule(n: int, theta: float, sites) -> np.ndarray:
    """Site populations at t = tau from a basis state: a mirror pair with
    exactly one site occupied ends at cos^2(theta/2) on the occupied site
    and sin^2(theta/2) on its mirror; every other site is unchanged."""
    p = pattern(n, sites)
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    for a in range(1, n // 2 + 1):
        b = n + 1 - a
        if p[a - 1] != p[b - 1]:
            occ, mirror = (a, b) if p[a - 1] else (b, a)
            p[occ - 1], p[mirror - 1] = c2, s2
    return p


def site_populations(psi: np.ndarray, n: int) -> np.ndarray:
    prob = np.abs(psi) ** 2
    idx = np.arange(prob.size)
    return np.array([prob[(idx >> (n - s)) & 1 == 1].sum() for s in range(1, n + 1)])


def x_flip(psi: np.ndarray, n: int, site: int) -> np.ndarray:
    """sigma^x on one site of a state vector: swap the amplitudes of every
    index pair that differs in that bit."""
    return psi[np.arange(psi.size) ^ (1 << (n - site))]


def segment_drift(pops: np.ndarray, start: int, stop: int) -> float:
    """Largest change of sum_n p_n over rows start..stop-1."""
    totals = pops[start:stop].sum(axis=1)
    return float(np.abs(totals - totals[0]).max())


# ----------------------------------------------------------------- gates


def generator(n: int) -> np.ndarray:
    """G_N = sum over mirror pairs (a, b) of (X_a Z..Z X_b + Y_a Z..Z Y_b)/2,
    the Pauli form of sigma+_a Z..Z sigma-_b + h.c."""
    g = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(1, n // 2 + 1):
        b = n + 1 - a
        for p in ("X", "Y"):
            labels = ["I"] * n
            labels[a - 1] = labels[b - 1] = p
            for k in range(a, b - 1):
                labels[k] = "Z"
            g += 0.5 * kron_all([PAULI[x] for x in labels])
    return g


def k_expm(n: int, theta: float, g: np.ndarray | None = None) -> np.ndarray:
    """K_N = exp(-i (theta/2) G_N) by a dense matrix exponential."""
    return expm(-0.5j * theta * (generator(n) if g is None else g))


def k_column(n: int, theta: float, b: int) -> np.ndarray:
    """Column b of K_N in closed form.  The pair factors commute, and each
    pair with exactly one site occupied splits into cos(theta/2) times the
    same state plus -i sin(theta/2) p times the pair-swapped state, p being
    the parity of the occupied sites strictly between the pair (no pair
    factor changes that parity)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    terms = {b: 1.0 + 0.0j}
    for a in range(1, n // 2 + 1):
        m = n + 1 - a
        if bit(b, n, a) == bit(b, n, m):
            continue
        inner = sum(bit(b, n, k) for k in range(a + 1, m))
        amp_swap = -1j * s * (-1 if inner % 2 else 1)
        flip = (1 << (n - a)) | (1 << (n - m))
        new: dict = {}
        for idx, amp in terms.items():
            new[idx] = new.get(idx, 0) + amp * c
            new[idx ^ flip] = new.get(idx ^ flip, 0) + amp * amp_swap
        terms = new
    col = np.zeros(2**n, dtype=complex)
    for idx, amp in terms.items():
        col[idx] = amp
    return col


def z_layer_residual(a: np.ndarray, b: np.ndarray) -> float:
    """How far ``a`` is from (single-qubit Z layer) . ``b`` up to a global
    phase: off-diagonal weight and modulus error of a b^dag, and the error of
    its diagonal against a product of one phase per qubit."""
    c = a @ b.conj().T
    d = np.diag(c).copy()
    off = np.abs(c - np.diag(d)).max()
    n = int(round(math.log2(d.size)))
    ref = d[0]
    per_qubit = [d[1 << (n - s)] / ref for s in range(1, n + 1)]
    pred = np.array(
        [ref * np.prod([per_qubit[s - 1] for s in range(1, n + 1) if bit(i, n, s)])
         for i in range(d.size)]
    )
    return float(max(off, np.abs(np.abs(d) - 1).max(), np.abs(pred - d).max()))


def swap_counts(n: int) -> tuple:
    """(FSWAP, iSWAP) counts of the swap network for K_N."""
    if n % 2 == 0:
        return n * n // 2 - n, n // 2
    return (n - 1) ** 2 // 2, (n - 1) // 2


def swap_duration(n: int, j_max: float) -> float:
    """Circuit time for N >= 5: N FSWAP-bound layers (even N), N + 1 (odd N)."""
    return (n + n % 2) * math.pi / (2 * j_max)


def even_weight(psi: np.ndarray) -> float:
    w = np.array([bin(i).count("1") % 2 for i in range(psi.size)])
    return float(np.sum(np.abs(psi[w == 0]) ** 2))


def pauli_expectation(psi: np.ndarray, labels: str) -> float:
    p = kron_all([PAULI[x] for x in labels.upper()])
    return float(np.vdot(psi, p @ psi).real)


# ---------------------------------------------------------------- device


def orthonormality_error(cols: np.ndarray) -> float:
    return float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())


def comp_bits() -> np.ndarray:
    """Bits (q1, q2, q3) of the 8 computational states, q1 most significant."""
    return np.array([[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)])
