import tracemalloc

import numpy as np
import pytest

from fstchain import gates, propagator
from fstchain.propagator import (
    basis_state,
    evolve_state,
    extract_transfer_phase,
    lift_to_full,
    single_propagator,
    site_populations,
    split_sectors,
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

    def test_mixed_parity_register_is_projected_and_renormalized(self):
        # 0.8|000> + 0.6|100>: the first round reads "even" with P(1) = 0.64
        # and leaves |000>, which every later round reads with certainty
        psi = 0.8 * basis_state(3, []) + 0.6 * basis_state(3, [1])
        results, register = repeated_parity(psi, 3)
        np.testing.assert_allclose([r.left_ancilla_one_probability for r in results],
                                   [0.64, 1.0, 1.0], atol=1e-12)
        assert np.linalg.norm(register) == pytest.approx(1.0, abs=1e-12)


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

    def test_t_final_sets_the_last_sample(self):
        s = Scenario(n_sites=5, theta=np.pi / 2, excitations=(1,), t_final=3.0)
        res = run_scenario(s, n_steps=12)
        assert res.tau == 1.0
        assert res.times[-1] == 3.0
        assert len(res.times) == 13

    @pytest.mark.parametrize("t_final", [0.0, -1.0, np.inf])
    def test_bad_t_final_refused(self, t_final):
        with pytest.raises(ValueError, match="t_final"):
            Scenario(n_sites=5, theta=np.pi / 2, excitations=(1,), t_final=t_final)

    def test_steps_guard_counts_every_population(self):
        # (steps + 1) x N just above 2^24 entries is refused before any
        # step is taken
        s = Scenario(n_sites=9, theta=1.0, excitations=(1,))
        with pytest.raises(ValueError, match="steps"):
            run_scenario(s, n_steps=2**24 // 9)

    def test_vacuum_stays_empty(self):
        s = Scenario(n_sites=15, theta=np.pi / 2, excitations=())
        res = run_scenario(s, n_steps=20)
        assert np.abs(res.populations).max() < 1e-12


def _per_sample_populations(scenario, n_steps):
    """Reference on run_scenario's grid from a dense 2^N state vector: each
    x-flip is a bit flip of its index, every sample is evolve_state from the
    last event time, and site_populations reads its sectors."""
    n = scenario.n_sites
    params = synthesize(ChainSpec(n_sites=n, theta=scenario.theta, tau=1.0))
    t_final = scenario.t_final if scenario.t_final is not None else 2 * params.tau
    slack = 1e-12 * max(t_final, 1.0)
    psi = basis_state(n, scenario.excitations)
    events = list(scenario.events)
    t_anchor = 0.0
    rows = []
    for t in np.linspace(0.0, t_final, n_steps + 1):
        while events and events[0]["t"] <= t + slack:
            ev = events.pop(0)
            psi = evolve_state(psi, params, ev["t"] - t_anchor)
            psi = psi[np.arange(2**n) ^ (1 << (n - ev["site"]))]
            t_anchor = ev["t"]
        phi = evolve_state(psi, params, max(t - t_anchor, 0.0))
        rows.append(site_populations(n, split_sectors(phi)))
    return np.array(rows)


def _flips(*pairs):
    return tuple({"t": float(t), "kind": "xflip", "site": s} for t, s in pairs)


def _tau(n, theta):
    return synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.0)).tau


def _scenario_cases():
    """(id, scenario, steps) on N = 13..15, k up to N - 2."""
    t13, t14, t15 = _tau(13, 1.1), _tau(14, 2.0), _tau(15, 0.4)
    grid15 = 2 * t15 / 40
    return [
        # an event at 0, two coincident events, one on a grid time
        ("n13_coincident", Scenario(13, 1.1, (2, 11), _flips(
            (0, 1), (0.55 * t13, 4), (0.55 * t13, 4))), 24),
        # events at 0 and exactly at t_final
        ("n14_k12_ends", Scenario(14, 2.0, tuple(s for s in range(1, 15) if s not in (3, 9)),
                                  _flips((0, 3), (2 * t14, 14))), 20),
        # the slack is 1e-12 t_final: events inside it after a grid time,
        # and one at its end after t_final
        ("n15_slack", Scenario(15, 0.4, (1, 8), _flips(
            (7 * grid15 + 1.5e-12, 8), (2 * t15 + 1e-12 * 2 * t15, 2))), 40),
        ("n15_k13", Scenario(15, np.pi, tuple(range(2, 15)), _flips(
            (0.3 * t15, 7), (0.3 * t15, 15), (1.7 * t15, 1)), t_final=1.9 * t15), 30),
    ]


class TestScenarioAgainstPerSample:
    @pytest.mark.parametrize("case", _scenario_cases(), ids=lambda c: c[0])
    def test_matches_per_sample_reference(self, case):
        _, scenario, steps = case
        got = run_scenario(scenario, n_steps=steps).populations
        assert np.abs(got - _per_sample_populations(scenario, steps)).max() < 1e-12

    def test_one_eigh_and_no_sector_apply(self, monkeypatch):
        eighs, applied = [], []
        eigh, network_apply = np.linalg.eigh, propagator.network_apply

        def counting_eigh(a, *args, **kwargs):
            eighs.append(a.shape)
            return eigh(a, *args, **kwargs)

        def counting_apply(u, sectors):
            applied.append(list(sectors))
            return network_apply(u, sectors)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(propagator, "network_apply", counting_apply)
        events = _flips((0.2, 3), (0.9, 6), (0.9, 6), (1.4, 1))
        run_scenario(Scenario(11, 1.0, (2, 5), events), n_steps=60)
        assert eighs == [(11, 11)]
        assert applied == []
        # the spy sees evolve_state's call
        evolve_state(basis_state(11, (2, 5)), synthesize(ChainSpec(11, 1.0, 1.0)), 0.3)
        assert applied == [[2]]

    def test_samples_are_taken_in_chunks(self):
        # 400 sites, past the 63 that bit-indexed sectors allow.  G is a
        # (2N)^2 complex matrix of 10 MB; all 41 samples at once would hold
        # (41, 400, 400) complex arrays of 105 MB each
        n, site, flip, t_flip = 400, 5, 9, 0.33
        s = Scenario(n, 0.7 * np.pi, (site,), _flips((t_flip, flip)))
        tracemalloc.start()
        try:
            res = run_scenario(s, n_steps=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # before the flip the excitation spreads as |u_n,site|^2; the flip
        # adds 1 - 2 p_flip(t_flip) excitations
        params = synthesize(ChainSpec(n_sites=n, theta=0.7 * np.pi, tau=1.0))
        before = res.times * res.tau < t_flip
        want = [np.abs(single_propagator(params, t * res.tau)[:, site - 1]) ** 2
                for t in res.times[before]]
        assert np.abs(res.populations[before] - want).max() < 1e-12
        p_flip = np.abs(single_propagator(params, t_flip)[flip - 1, site - 1]) ** 2
        assert np.abs(res.populations[~before].sum(axis=1) - (2 - 2 * p_flip)).max() < 1e-10

    def test_event_adds_three_n_by_n_matrices(self):
        # an event updates G block by block: besides G it holds u, conj(u)
        # and one N x N product
        n = 400
        peaks = []
        for events in ((), _flips((0.33, 9))):
            tracemalloc.start()
            try:
                run_scenario(Scenario(n, 0.7 * np.pi, (5,), events), n_steps=40)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * n * n * 16

    def test_oversized_chain_refused_before_allocation(self):
        # G has (2N)^2 entries: N = 2048 fits DENSE_MATRIX_LIMIT (it passes
        # on to the next check, a late event), 2049 does not
        late = _flips((50.0, 1))
        with pytest.raises(ValueError, match="after t_final"):
            run_scenario(Scenario(2048, 1.0, (1,), late), n_steps=10)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(2N\)\^2 = 16793604 entries"):
                run_scenario(Scenario(2049, 1.0, (1,), late), n_steps=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n,excitations,events", [
        # C(40, 20) = 1.4e11 amplitudes; 201 samples in chunks of 40
        (40, tuple(range(1, 41, 2)), ()),
        (15, (1, 2, 4, 7, 9, 12, 15), _flips((1.5, 8))),
    ], ids=["n40_k20", "n15_k7_flip"])
    def test_large_sectors_run(self, n, excitations, events):
        theta = 0.6 * np.pi
        res = run_scenario(Scenario(n, theta, excitations, events), n_steps=200)
        occupied = np.isin(np.arange(1, n + 1), excitations).astype(float)
        total = res.populations.sum(axis=1)
        t = res.times * res.tau
        for seg in (t < 1.5, t >= 1.5):
            assert np.abs(total[seg] - total[seg][0]).max() < 1e-10
        assert abs(total[0] - len(excitations)) < 1e-10
        # at tau each mirror pair (n, N+1-n) is rotated by theta
        c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        want = c2 * occupied + s2 * occupied[::-1]
        assert np.abs(res.populations[100] - want).max() < 1e-10
