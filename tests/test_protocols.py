import tracemalloc

import numpy as np
import pytest

from fstchain import gates
from fstchain.propagator import (
    basis_state,
    extract_transfer_phase,
    lift_to_full,
    single_propagator,
)
from fstchain.protocols import (
    Scenario,
    correlator_measure,
    parity_measure,
    repeated_parity,
    run_scenario,
)
from fstchain.synthesis import ChainSpec, synthesize

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI = {"X": X, "Y": Y, "Z": Z}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_k_pi_gate_matches_effective_gate(n):
    # K_pi realised by the synthesized theta=pi chain (determinant lift of
    # its propagator, transfer phase removed) is the gate the parity
    # protocol applies by index arithmetic
    params = synthesize(ChainSpec(n_sites=n, theta=np.pi, tau=1.0))
    u1 = single_propagator(params, params.tau)
    phi = extract_transfer_phase(u1, np.pi)
    idx = np.arange(2**n)
    phase = phi * np.bitwise_count(idx).astype(float)
    if n % 2 == 1:
        phase = phase + (np.pi / 2) * ((idx >> (n - (n + 1) // 2)) & 1)
    k_chain = lift_to_full(u1) * np.exp(1j * phase)[np.newaxis, :]
    k_applied = gates.apply_effective_gate(np.eye(2**n, dtype=complex), np.pi)
    assert np.abs(k_chain - k_applied).max() < 1e-8

class TestParityMeasure:
    def test_vacuum_literal_output(self):
        # Eq.-(8) output for m = 0: -i |1>_L |psibar> |0>_R
        psi = basis_state(3, [])
        res = parity_measure(psi)
        assert res.left_ancilla_one_probability == pytest.approx(1.0, abs=1e-9)
        assert res.inferred_parity == "even"
        amp = res.post_state[1 << 4]  # |1>_L |000> |0>_R on 5 sites
        assert amp == pytest.approx(-1j, abs=1e-8)

    def test_single_excitation_reads_odd(self):
        res = parity_measure(basis_state(2, [2]))
        assert res.left_ancilla_one_probability == pytest.approx(0.0, abs=1e-9)
        assert res.inferred_parity == "odd"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_basis_parity(self, n):
        for i in range(2**n):
            sites = [s + 1 for s in range(n) if (i >> (n - 1 - s)) & 1]
            res = parity_measure(basis_state(n, sites))
            want = "even" if len(sites) % 2 == 0 else "odd"
            assert res.inferred_parity == want
            assert res.left_ancilla_one_probability == pytest.approx(
                1.0 if want == "even" else 0.0, abs=1e-9
            )

    def test_superposition_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            even_weight = float(
                np.sum(np.abs(psi[np.bitwise_count(np.arange(2**n)) % 2 == 0]) ** 2)
            )
            res = parity_measure(psi)
            assert res.left_ancilla_one_probability == pytest.approx(
                even_weight, abs=1e-8
            )

    def test_register_transformed_by_k_n(self):
        # for an even-parity input the middle register ends as K_N^{(pi)} psi
        # up to the protocol's local phases; check it stays within the span
        rng = np.random.default_rng(5)
        n = 3
        even_idx = np.flatnonzero(np.bitwise_count(np.arange(2**n)) % 2 == 0)
        psi = np.zeros(2**n, dtype=complex)
        psi[even_idx] = rng.normal(size=len(even_idx)) + 1j * rng.normal(
            size=len(even_idx)
        )
        psi /= np.linalg.norm(psi)
        res = parity_measure(psi)
        register = res.post_state.reshape(2, 2**n, 2)[1, :, 0]
        register /= np.linalg.norm(register)
        target = gates.effective_gate(n, np.pi) @ psi
        # equality up to diagonal phases: compare amplitude magnitudes
        np.testing.assert_allclose(np.abs(register), np.abs(target), atol=1e-8)

    def test_duration(self):
        res = parity_measure(basis_state(4, [1]), j_max=2.0)
        assert res.protocol_duration == pytest.approx((6 / 2) * np.pi / 4)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            parity_measure(np.ones(4, dtype=complex))

    def test_size_guard(self):
        # 22 qubits run (2^24 entries with the ancillas); 23 are refused
        # before the extended state is allocated
        psi = basis_state(23, [])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="register too large"):
                parity_measure(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_is_about_two_extended_states(self):
        # K_{N+2}(pi) runs in place, and at most one old state is alive
        # while apply_local builds the next
        n = 18
        rng = np.random.default_rng(18)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        tracemalloc.start()
        try:
            parity_measure(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** (n + 2) * 16


class TestCorrelator:
    def test_all_z_on_vacuum(self):
        psi = basis_state(4, [])
        assert correlator_measure(psi, "ZZZZ") == pytest.approx(1.0, abs=1e-9)

    def test_all_x_on_plus_state(self):
        n = 3
        psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        assert correlator_measure(psi, "XXX") == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("labels", ["XYZ", "YYX", "ZXY"])
    def test_random_states_match_direct_expectation(self, labels):
        rng = np.random.default_rng(hash(labels) % 2**32)
        op = PAULI[labels[0]]
        for c in labels[1:]:
            op = np.kron(op, PAULI[c])
        for _ in range(10):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            got = correlator_measure(psi, labels)
            want = float((psi.conj() @ op @ psi).real)
            assert got == pytest.approx(want, abs=1e-8)


class TestRepeatedParity:
    def test_even_state_two_rounds_restores_register(self):
        psi = basis_state(4, [2, 4])
        results, register = repeated_parity(psi, 2)
        assert [r.inferred_parity for r in results] == ["even", "even"]
        # register equals input up to Z phases: all weight on one basis state
        np.testing.assert_allclose(np.abs(register), np.abs(psi), atol=1e-8)

    def test_vacuum_many_rounds(self):
        results, _ = repeated_parity(basis_state(3, []), 4)
        assert all(r.inferred_parity == "even" for r in results)

    def test_odd_state_three_rounds(self):
        results, _ = repeated_parity(basis_state(3, [2]), 3)
        assert all(r.inferred_parity == "odd" for r in results)

    def test_rounds_guard(self):
        with pytest.raises(ValueError):
            repeated_parity(basis_state(2, []), 1)


class TestScenario:
    def test_json_round_trip(self):
        s = Scenario(
            n_sites=15,
            theta=np.pi / 2,
            excitations=(1, 8),
            events=({"t": 1.0, "kind": "xflip", "site": 8},),
        )
        back = Scenario.from_json(s.to_json())
        assert back == s

    def test_event_order_enforced(self):
        with pytest.raises(ValueError):
            Scenario(
                n_sites=5, theta=1.0, excitations=(1,),
                events=(
                    {"t": 2.0, "kind": "xflip", "site": 1},
                    {"t": 1.0, "kind": "xflip", "site": 2},
                ),
            )

    def test_fig2a(self):
        s = Scenario(n_sites=15, theta=np.pi / 2, excitations=(1,))
        res = run_scenario(s, n_steps=100)
        mid, end = 50, 100
        assert res.populations[mid, 0] == pytest.approx(0.5, abs=1e-6)
        assert res.populations[mid, 14] == pytest.approx(0.5, abs=1e-6)
        assert res.populations[end, 14] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [5, 9, 15])
    def test_fig2b_flip_reversal(self, n):
        from fstchain.synthesis import ChainSpec, synthesize

        tau = synthesize(ChainSpec(n_sites=n, theta=np.pi / 2, tau=1.0)).tau
        mid_site = (n + 1) // 2
        s = Scenario(
            n_sites=n, theta=np.pi / 2, excitations=(1, mid_site),
            events=({"t": tau, "kind": "xflip", "site": mid_site},),
        )
        res = run_scenario(s, n_steps=40)
        assert res.populations[-1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_vacuum_stays_empty(self):
        s = Scenario(n_sites=15, theta=np.pi / 2, excitations=())
        res = run_scenario(s, n_steps=20)
        assert np.abs(res.populations).max() < 1e-12
