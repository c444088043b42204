import io
import json
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstchain import propagator
from fstchain.gates import Circuit, build_generator, effective_gate, verify_mapping
from fstchain.propagator import (
    basis_state,
    dense_oracle,
    evolve_state,
    extract_transfer_phase,
    lift_to_full,
    network_apply,
    sector_indices,
    single_propagator,
    state_from_json,
    write_state_json,
)
from fstchain.synthesis import ChainParams, ChainSpec, synthesize


def _params(n, theta, tau=1.0):
    return synthesize(ChainSpec(n_sites=n, theta=theta, tau=tau))


# Dense reference, N <= 8: the chain Hamiltonian from kron-embedded ladder
# operators, and its exponential by one eigh of the whole 2^N matrix.


def _site_ops(n_sites):
    sp = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
    sm = sp.T.conj()
    num = np.array([[0, 0], [0, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def embed(op, site):
        out = np.eye(1, dtype=complex)
        for s in range(1, n_sites + 1):
            out = np.kron(out, op if s == site else eye)
        return out

    return sp, sm, num, embed


def _kron_hamiltonian(params):
    n = params.n_sites
    sp, sm, num, embed = _site_ops(n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for s in range(1, n + 1):
        h += params.detunings[s - 1] * embed(num, s)
    for s in range(1, n):
        hop = embed(sp, s) @ embed(sm, s + 1)
        h += params.couplings[s - 1] * (hop + hop.conj().T)
    return h


def _kron_oracle(params, t):
    evals, evecs = np.linalg.eigh(_kron_hamiltonian(params))
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


@st.composite
def _random_chains(draw, max_sites=8):
    """ChainParams with random couplings and detunings (not synthesized)."""
    n = draw(st.integers(2, max_sites))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ChainParams(
        couplings=rng.uniform(-2.0, 2.0, n - 1),
        detunings=rng.uniform(-2.0, 2.0, n),
        tau=1.0,
    )


class TestSinglePropagator:
    def test_identity_at_t0(self):
        params = _params(5, 0.6)
        np.testing.assert_allclose(
            single_propagator(params, 0.0), np.eye(5), atol=1e-12
        )

    def test_two_site_quarter_turn(self):
        params = _params(2, np.pi / 2)
        u = single_propagator(params, params.tau)
        c = np.cos(np.pi / 4)
        np.testing.assert_allclose(
            u, [[c, -1j * c], [-1j * c, c]], atol=1e-10
        )

    @pytest.mark.parametrize("n,theta", [(4, 0.4), (7, 2.0), (9, np.pi)])
    def test_eq5_structure_at_tau(self, n, theta):
        params = _params(n, theta)
        u = single_propagator(params, params.tau)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-10)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        mask = np.zeros((n, n), dtype=bool)
        for k in range(n):
            mask[k, k] = mask[n - 1 - k, k] = True
        diag = np.abs(np.diag(u)).copy()
        anti = np.abs(np.diag(u[::-1])).copy()
        if n % 2 == 1:
            # the middle qubit of an odd chain is a spectator: |U| = 1 there
            mid = (n - 1) // 2
            assert diag[mid] == pytest.approx(1.0, abs=1e-8)
            diag[mid], anti[mid] = c, s
        np.testing.assert_allclose(diag, c, atol=1e-8)
        np.testing.assert_allclose(anti, s, atol=1e-8)
        assert np.abs(u[~mask]).max() < 1e-8

    def test_fifteen_site_half_transfer(self):
        params = _params(15, np.pi / 2)
        u = single_propagator(params, params.tau)
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-8)
        assert abs(u[14, 0]) ** 2 == pytest.approx(0.5, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            single_propagator(_params(3, 1.0), -0.1)


class TestTransferPhase:
    def test_two_sites_zero_phase(self):
        for theta in (0.3, 1.5, 3.0):
            params = _params(2, theta)
            u = single_propagator(params, params.tau)
            assert extract_transfer_phase(u, theta) == pytest.approx(0.0, abs=1e-10)

    def test_middle_qubit_relation_odd_chain(self):
        theta = np.pi / 2
        params = _params(3, theta)
        u = single_propagator(params, params.tau)
        phi = extract_transfer_phase(u, theta)
        mid_phase = np.angle(u[1, 1])
        assert (mid_phase + phi + theta / 2) % (2 * np.pi) == pytest.approx(
            0.0, abs=1e-8
        ) or (mid_phase + phi + theta / 2) % (2 * np.pi) == pytest.approx(
            2 * np.pi, abs=1e-8
        )

    def test_pst_antidiagonal(self):
        params = _params(9, np.pi)
        u = single_propagator(params, params.tau)
        phi = extract_transfer_phase(u, np.pi)
        target = np.exp(-1j * phi) * (-1j) * np.eye(9)[::-1]
        np.testing.assert_allclose(u, target, atol=1e-8)

    def test_rejects_non_fst_input(self):
        with pytest.raises(ValueError):
            extract_transfer_phase(np.eye(4, dtype=complex), np.pi)


class TestLift:
    def test_identity_lifts_to_identity(self):
        np.testing.assert_allclose(
            lift_to_full(np.eye(4, dtype=complex)), np.eye(16), atol=1e-12
        )

    def test_full_iswap_two_excitation_sign(self):
        # <11|U|11> = det([[0,-i],[-i,0]]) = +1: |11> is annihilated by the
        # hopping term, so the dense oracle must agree (the sign is the
        # central JW-consistency check)
        u1 = np.array([[0, -1j], [-1j, 0]])
        full = lift_to_full(u1)
        assert full[3, 3] == pytest.approx(1.0 + 0j, abs=1e-12)
        params = _params(2, np.pi)
        dense = dense_oracle(params, params.tau)
        assert dense[3, 3] == pytest.approx(1.0 + 0j, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.05 * np.pi, np.pi))
        tau = float(rng.uniform(0.2, 3.0))
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=tau))
        t = float(rng.uniform(0.0, 2 * tau))
        lifted = lift_to_full(single_propagator(params, t))
        np.testing.assert_allclose(lifted, dense_oracle(params, t), atol=1e-9)

    def test_block_diagonal_in_excitation_number(self):
        params = _params(4, 1.2)
        full = lift_to_full(single_propagator(params, 0.7))
        w = np.bitwise_count(np.arange(16))
        assert np.abs(full[w[:, None] != w[None, :]]).max() < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            lift_to_full(np.eye(13, dtype=complex))


class TestDenseOracle:
    def test_single_site_detuning(self):
        params = synthesize(ChainSpec(n_sites=2, theta=0.9, tau=1.0))
        # N=1 via a manual params object is disallowed (n_sites >= 2), so
        # check that the N=2 vacuum has zero energy instead
        assert dense_oracle(params, 0.7)[0, 0] == 1.0

    def test_commutes_with_excitation_number(self):
        for n in (2, 4, 6):
            params = _params(n, 0.8)
            u = dense_oracle(params, 0.9)
            w = np.bitwise_count(np.arange(2**n)).astype(float)
            num = np.diag(w)
            np.testing.assert_allclose(u @ num - num @ u, 0, atol=1e-9)

    def test_unitarity(self):
        params = _params(5, 2.2)
        u = dense_oracle(params, 1.7)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(32), atol=1e-9)

    def test_size_guard(self):
        # 12 sites (4^12 = 2^24 entries) run; 13 are refused
        params = _params(4, 1.0)
        object.__setattr__(params, "couplings", np.ones(12))
        object.__setattr__(params, "detunings", np.zeros(13))
        with pytest.raises(ValueError):
            dense_oracle(params, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(params=_random_chains(), t=st.floats(0.0, 3.0))
    def test_matches_kron_reference(self, params, t):
        np.testing.assert_allclose(
            dense_oracle(params, t), _kron_oracle(params, t), rtol=0, atol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(params=_random_chains(max_sites=9), a=st.floats(0.0, 2.0),
           b=st.floats(0.0, 2.0))
    def test_composes(self, params, a, b):
        np.testing.assert_allclose(
            dense_oracle(params, a) @ dense_oracle(params, b),
            dense_oracle(params, a + b),
            rtol=0, atol=1e-12,
        )

    def test_independent_of_free_fermion_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense oracle used the free-fermion engine")

        blocks = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            blocks.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(propagator, "single_propagator", refuse)
        monkeypatch.setattr(propagator, "sector_propagator", refuse)
        monkeypatch.setattr(propagator, "network_apply", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        params = _params(6, 0.8)
        u = dense_oracle(params, 0.9)
        # one eigh of each excitation-number block
        assert blocks == [comb(6, k) for k in range(7)]
        np.testing.assert_allclose(u, _kron_oracle(params, 0.9), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: dense_oracle(p, 1.0),
            lambda p: verify_mapping(p, np.pi),
            lambda p: lift_to_full(np.eye(p.n_sites, dtype=complex)),
            lambda p: build_generator(p.n_sites),
            lambda p: effective_gate(p.n_sites, np.pi),
            lambda p: Circuit(n_sites=p.n_sites, layers=()).unitary(),
        ],
        ids=["dense_oracle", "verify_mapping", "lift_to_full",
             "build_generator", "effective_gate", "circuit_unitary"],
    )
    def test_thirteen_sites_refused_before_allocation(self, call):
        params = _params(13, np.pi)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit"):
                call(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_twelve_sites_accepted(self):
        params = ChainParams(couplings=np.ones(11), detunings=np.zeros(12), tau=1.0)
        u = dense_oracle(params, 0.3)
        assert u.shape == (4096, 4096)
        rng = np.random.default_rng(12)
        psi = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(
            u @ psi, evolve_state(psi, params, 0.3, method="sector"), rtol=0, atol=1e-12
        )


class TestEvolveState:
    def test_vacuum_is_stationary(self):
        params = _params(5, 1.0)
        psi = basis_state(5, [])
        out = evolve_state(psi, params, 1.3)
        assert abs(abs(np.vdot(psi, out)) - 1.0) < 1e-10

    def test_fig2a_refocusing(self):
        params = _params(15, np.pi / 2)
        psi = basis_state(15, [1])
        out = evolve_state(psi, params, 2 * params.tau, method="sector")
        idx_site15 = 1 << 0
        assert abs(out[idx_site15]) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_fig2b_center_refocus_at_tau(self):
        params = _params(15, np.pi / 2)
        psi = basis_state(15, [1, 8])
        out = evolve_state(psi, params, params.tau, method="sector")
        n = 15
        idx = np.flatnonzero(np.abs(out) > 1e-12)
        p8 = sum(
            abs(out[i]) ** 2 for i in idx if (i >> (n - 8)) & 1
        )
        p1 = sum(abs(out[i]) ** 2 for i in idx if (i >> (n - 1)) & 1)
        assert p8 == pytest.approx(1.0, abs=1e-8)
        assert p1 == pytest.approx(0.5, abs=1e-8)

    def test_methods_agree(self):
        params = _params(6, 0.9)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        a = lift_to_full(single_propagator(params, 0.8)) @ psi
        b = dense_oracle(params, 0.8) @ psi
        c = evolve_state(psi, params, 0.8, method="sector")
        np.testing.assert_allclose(a, b, atol=1e-8)
        np.testing.assert_allclose(a, c, atol=1e-8)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "t,route",
        [(t, route) for route in ("dense", "lift", "sector") for t in ("-1", "inf", "nan")
         if (t, route) != ("-1", "dense")],
    )
    def test_bad_time_refused(self, t, route):
        # evolve_state, and the two oracles a state can also be evolved by;
        # dense_oracle takes a negative t (backward evolution)
        evolve = {
            "sector": lambda psi, p, t: evolve_state(psi, p, t, method="sector"),
            "lift": lambda psi, p, t: lift_to_full(single_propagator(p, t)) @ psi,
            "dense": lambda psi, p, t: dense_oracle(p, t) @ psi,
        }[route]
        with pytest.raises(ValueError, match="finite"):
            evolve(basis_state(3, [1]), _params(3, np.pi), float(t))

    @pytest.mark.parametrize("method", ["lift", "dense", None])
    def test_only_the_sector_method(self, method):
        # the oracles are called directly: lift_to_full, dense_oracle
        with pytest.raises(ValueError, match="unknown method"):
            evolve_state(basis_state(3, [1]), _params(3, np.pi), 0.5, method=method)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match N=4"):
            evolve_state(np.ones(8), _params(4, 1.0), 0.5)

    def test_generic_twenty_site_state_within_budget(self):
        # every sector occupied: the bond tables of the Givens network cost
        # most; STATE_VECTOR_LIMIT budgets 200 traced bytes an entry
        n = 20
        rng = np.random.default_rng(20)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        tracemalloc.start()
        try:
            out = evolve_state(psi, _params(n, 0.5 * np.pi), 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**n
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_zero_state_stays_zero(self):
        out = evolve_state(np.zeros(32, dtype=complex), _params(5, 1.0), 0.9)
        assert out.shape == (32,) and not out.any()
        assert network_apply(np.eye(5), {}) == {}

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(6)
        psi = rng.normal(size=2**9) + 1j * rng.normal(size=2**9)
        psi /= np.linalg.norm(psi)
        assert np.abs(evolve_state(psi, _params(9, 0.8), 0.0) - psi).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_empty_and_full_sectors_take_only_the_phase(self, n):
        # the vacuum holds no particle, and k = N fills every mode: neither
        # has a 10 / 01 pair, so only the diagonal's phases act, det u in all
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = np.linalg.qr(z)[0]
        out = network_apply(u, {0: np.array([0.6]), n: np.array([0.8j])})
        assert out[0] == 0.6
        assert abs(out[n][0] - 0.8j * np.linalg.det(u)) < 1e-15


def test_basis_state_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(propagator, "STATE_VECTOR_LIMIT", 2**10)
    psi = basis_state(10, [10])
    assert psi.shape == (2**10,) and psi[1] == 1.0
    with pytest.raises(ValueError, match="limit"):
        basis_state(11, [1])


def test_sector_indices_order_matches_subsets():
    idx = sector_indices(4, 2)
    # subsets in lexicographic order: {1,2},{1,3},{1,4},{2,3},{2,4},{3,4}
    np.testing.assert_array_equal(idx, [0b1100, 0b1010, 0b1001, 0b0110, 0b0101, 0b0011])


@pytest.mark.parametrize(
    "n,ks", [(n, range(n + 2)) for n in range(17)] + [(63, range(3))]
)
def test_sector_indices_match_combinations(n, ks):
    for k in ks:
        want = [sum(1 << (n - 1 - s) for s in sites) for sites in combinations(range(n), k)]
        assert np.array_equal(sector_indices(n, k), np.array(want, dtype=np.int64))


def test_sector_indices_refuse_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        sector_indices(4, -1)


def _state_text(psi):
    buf = io.StringIO()
    write_state_json(psi, buf)
    return buf.getvalue()


def test_state_json_round_trip():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(state_from_json(_state_text(psi)), psi, rtol=1e-15)


def test_state_json_matches_one_dumps_of_all_pairs():
    # state.json is written in row chunks; the text is that of one
    # json.dumps over every [re, im] pair
    rng = np.random.default_rng(4)
    psi = rng.normal(size=2**13) + 1j * rng.normal(size=2**13)
    psi[:4] = [0.0, complex(-0.0, -0.0), 1.0, -1e-300j]
    assert _state_text(psi) == json.dumps([[float(a.real), float(a.imag)] for a in psi])
    real = rng.normal(size=5)
    assert _state_text(real) == json.dumps([[float(a), 0.0] for a in real])
    assert _state_text(np.zeros(0)) == "[]"
