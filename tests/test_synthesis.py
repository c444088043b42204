import json
from dataclasses import replace

import numpy as np
import pytest

from fstchain.synthesis import (
    ChainSpec,
    SynthesisError,
    detuning_range,
    solve_gate_time,
    spectrum_check,
    single_excitation_hamiltonian,
    synthesize,
)


class TestChainSpec:
    def test_requires_exactly_one_time_scale(self):
        with pytest.raises(SynthesisError):
            ChainSpec(n_sites=4, theta=np.pi, tau=1.0, j_max=1.0)
        with pytest.raises(SynthesisError):
            ChainSpec(n_sites=4, theta=np.pi)

    @pytest.mark.parametrize("n,theta", [(1, np.pi), (4, 0.0), (4, -0.1), (4, 3.2)])
    def test_domain_validation(self, n, theta):
        with pytest.raises(SynthesisError):
            ChainSpec(n_sites=n, theta=theta, tau=1.0)

    def test_json_round_trip(self):
        # to_json holds the one time scale that is set
        spec = ChainSpec(n_sites=7, theta=0.3 * np.pi, j_max=2.5e6)
        assert ChainSpec(**json.loads(spec.to_json())) == spec
        spec = ChainSpec(n_sites=7, theta=0.3 * np.pi, tau=1e-7)
        assert ChainSpec(**json.loads(spec.to_json())) == spec


class TestSynthesize:
    @pytest.mark.parametrize("n", [3, 4, 8, 9, 16, 25])
    def test_theta_pi_reduces_to_pst_chain(self, n):
        # J_n = (pi/2 tau) sqrt(n (N - n)) at full transfer
        tau = 0.7
        params = synthesize(ChainSpec(n_sites=n, theta=np.pi, tau=tau))
        ns = np.arange(1, n)
        expected = (np.pi / (2 * tau)) * np.sqrt(ns * (n - ns))
        np.testing.assert_allclose(params.couplings, expected, rtol=1e-12)
        # constant detunings (zero here) for theta = pi
        assert np.ptp(params.detunings) < 1e-12 * np.abs(params.couplings).max()

    def test_two_sites(self):
        theta, tau = 1.1, 2.0
        params = synthesize(ChainSpec(n_sites=2, theta=theta, tau=tau))
        assert params.couplings[0] == pytest.approx(theta / (2 * tau), rel=1e-12)
        np.testing.assert_array_equal(params.detunings, [0.0, 0.0])

    def test_three_sites_quarter_turn(self):
        params = synthesize(ChainSpec(n_sites=3, theta=np.pi / 2, tau=1.0))
        expected_j = np.pi * np.sqrt(6) / 4
        np.testing.assert_allclose(params.couplings, [expected_j, expected_j], rtol=1e-12)
        np.testing.assert_allclose(
            params.detunings, [np.pi / 4, -3 * np.pi / 4, np.pi / 4], rtol=1e-12
        )
        # cross-check middle-vs-outer difference against the N=3 closed form
        j_tau = np.sqrt((np.pi - np.pi / 4) * np.pi / 2)
        assert params.couplings[0] * 1.0 == pytest.approx(j_tau, rel=1e-12)
        assert params.detunings[1] - params.detunings[0] == pytest.approx(
            -2 * (np.pi - np.pi / 2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 12, 13])
    @pytest.mark.parametrize("theta", [0.05 * np.pi, 0.5 * np.pi, np.pi])
    def test_mirror_symmetry_exact(self, n, theta):
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.0))
        np.testing.assert_array_equal(params.couplings, params.couplings[::-1])
        np.testing.assert_array_equal(params.detunings, params.detunings[::-1])
        assert np.all(params.couplings > 0)
        if n % 2 == 0:
            np.testing.assert_array_equal(params.detunings, np.zeros(n))

    def test_coupling_theta_monotonicity(self):
        # odd N: dJ/dtheta >= 0 everywhere; even N: <= 0 except the middle bond
        thetas = np.linspace(0.05 * np.pi, np.pi, 40)
        for n in (5, 9):
            j = np.array(
                [synthesize(ChainSpec(n_sites=n, theta=t, tau=1.0)).couplings for t in thetas]
            )
            assert np.all(np.diff(j, axis=0) >= -1e-9)
        for n in (6, 10):
            j = np.array(
                [synthesize(ChainSpec(n_sites=n, theta=t, tau=1.0)).couplings for t in thetas]
            )
            dj = np.diff(j, axis=0)
            mid = n // 2 - 1
            assert np.all(dj[:, mid] >= -1e-9)
            others = [k for k in range(n - 1) if k != mid]
            assert np.all(dj[:, others] <= 1e-9)


class TestSolveGateTime:
    def test_even_pst_time(self):
        for n in (4, 8, 20):
            tau = solve_gate_time(ChainSpec(n_sites=n, theta=np.pi, j_max=1.0))
            assert tau == pytest.approx(n * np.pi / 4, rel=1e-12)

    def test_odd_pst_time(self):
        for n in (5, 9, 21):
            tau = solve_gate_time(ChainSpec(n_sites=n, theta=np.pi, j_max=1.0))
            assert tau == pytest.approx(np.sqrt(n**2 - 1) * np.pi / 4, rel=1e-12)

    def test_three_sites_quarter_turn(self):
        tau = solve_gate_time(ChainSpec(n_sites=3, theta=np.pi / 2, j_max=1.0))
        assert tau == pytest.approx(np.pi * np.sqrt(6) / 4, rel=1e-12)

    def test_max_coupling_saturates_j_max(self):
        spec = ChainSpec(n_sites=7, theta=0.3 * np.pi, j_max=3.0)
        params = synthesize(spec)
        assert np.abs(params.couplings).max() == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0.02 * np.pi, np.pi, 15))
    @pytest.mark.parametrize("n", [4, 5, 8, 11])
    def test_eq_s5_bounds(self, n, theta):
        tau = solve_gate_time(ChainSpec(n_sites=n, theta=theta, j_max=1.0))
        if n % 2 == 0:
            bound = np.pi * np.sqrt(n**2 - 4) / (2 * np.sqrt(3))
        else:
            bound = np.pi * np.sqrt(n**2 - 1) / 4
        assert tau <= bound * (1 + 1e-12)


class TestDetuningRange:
    def test_even_chain_is_zero(self):
        spec = ChainSpec(n_sites=6, theta=0.4 * np.pi, tau=1.0)
        report = detuning_range(synthesize(spec), spec)
        assert report.direct == 0.0

    def test_odd_theta_pi_is_zero(self):
        spec = ChainSpec(n_sites=7, theta=np.pi, tau=1.0)
        report = detuning_range(synthesize(spec), spec)
        assert report.direct == pytest.approx(0.0, abs=1e-12)

    def test_three_sites_reports_both_numbers(self):
        # direct max - min is pi; the Eq. S6 closed form gives pi/2 —
        # the two disagree by a factor 2 and the report must say so
        spec = ChainSpec(n_sites=3, theta=np.pi / 2, tau=1.0)
        report = detuning_range(synthesize(spec), spec)
        assert report.direct == pytest.approx(np.pi, rel=1e-12)
        assert report.formula == pytest.approx(np.pi / 2, rel=1e-12)
        assert not report.matches_formula


class TestSpectrum:
    def test_two_sites(self):
        theta, tau = 0.8, 1.5
        params = synthesize(ChainSpec(n_sites=2, theta=theta, tau=tau))
        report = spectrum_check(params, theta)
        np.testing.assert_allclose(
            sorted(report.eigenvalues), [-theta / (2 * tau), theta / (2 * tau)], rtol=1e-12
        )
        assert report.ok
        assert report.transfer_phase == pytest.approx(0.0, abs=1e-10)

    def test_pst_chain_equally_spaced(self):
        tau = 1.0
        params = synthesize(ChainSpec(n_sites=9, theta=np.pi, tau=tau))
        evals = np.sort(np.linalg.eigvalsh(single_excitation_hamiltonian(params)))
        np.testing.assert_allclose(np.diff(evals), np.pi / tau, rtol=1e-10)

    def test_alternating_gaps_five_sites(self):
        theta = np.pi / 2
        params = synthesize(ChainSpec(n_sites=5, theta=theta, tau=1.0))
        report = spectrum_check(params, theta)
        assert report.ok
        gaps = report.gaps_tau_mod_2pi
        targets = {round(g, 6) for g in gaps}
        assert targets == {round(np.pi / 2, 6), round(3 * np.pi / 2, 6)}

    @pytest.mark.parametrize("n", [4, 7])
    def test_perturbed_detuning_breaks_the_gap_pattern(self, n):
        theta = 0.5 * np.pi
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.0))
        detunings = params.detunings.copy()
        detunings[1] += 1e-3
        report = spectrum_check(replace(params, detunings=detunings), theta)
        assert report.nondegenerate
        assert not report.gap_pattern_ok
        assert not report.ok
        assert any(f.startswith("gap pattern not alternating") for f in report.failures)

    @pytest.mark.parametrize("n", [3, 4, 6, 7, 8])
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.5 * np.pi, 0.9 * np.pi])
    def test_report_ok_generic(self, n, theta):
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.3))
        assert spectrum_check(params, theta).ok


def test_persymmetry_of_hamiltonian():
    params = synthesize(ChainSpec(n_sites=7, theta=0.7, tau=1.0))
    h = single_excitation_hamiltonian(params)
    np.testing.assert_allclose(h, h[::-1, ::-1].T, atol=1e-15)


def test_hamiltonian_is_exactly_symmetric():
    # eigh reads one triangle only, so no spectrum test sees the other
    params = synthesize(ChainSpec(n_sites=7, theta=0.7, tau=1.0))
    h = single_excitation_hamiltonian(params)
    np.testing.assert_array_equal(h, h.T)
