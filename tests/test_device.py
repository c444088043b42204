import json
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstchain import device, gates
from fstchain.device import (
    GHZ,
    MHZ,
    DeviceSpec,
    PulseConfig,
    build_hamiltonian,
    comp_columns,
    coupler_flux,
    dressed_basis,
    flux_to_frequency,
    gate_metrics,
    optimize_pulse,
    propagate,
    pulse_envelope,
    seed_pulse_config,
    sideband_coupling,
    swt_effective_params,
    table_s1_spec,
    theory_pulse,
    zz_coupling,
)

SPEC = table_s1_spec()


def _uncoupled(spec=SPEC):
    return replace(spec, g1c1=0.0, g2c1=0.0, g2c2=0.0, g3c2=0.0, g12=0.0, g23=0.0)


class TestFluxToFrequency:
    def test_zero_flux_is_bare(self):
        assert flux_to_frequency(SPEC, 1, 0.0) == pytest.approx(SPEC.wc1)
        assert flux_to_frequency(SPEC, 2, 0.0) == pytest.approx(SPEC.wc2)

    def test_half_quantum(self):
        # factor (d^2)^(1/4) = sqrt(d) at Phi_0/2
        want = SPEC.ac1 + (SPEC.wc1 - SPEC.ac1) * np.sqrt(SPEC.dc1)
        assert flux_to_frequency(SPEC, 1, 0.5) == pytest.approx(want, rel=1e-12)

    def test_bias_point_matches_table(self):
        assert flux_to_frequency(SPEC, 1, SPEC.phi_dc1) / GHZ == pytest.approx(
            6.086, abs=1e-9
        )
        assert flux_to_frequency(SPEC, 2, SPEC.phi_dc2) / GHZ == pytest.approx(
            6.106, abs=1e-9
        )

    def test_periodic_in_flux_quantum(self):
        for phi in (0.1, 0.3, 0.45):
            assert flux_to_frequency(SPEC, 1, phi) == pytest.approx(
                flux_to_frequency(SPEC, 1, phi + 1.0), rel=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(coupler=st.sampled_from([1, 2]), phi=st.floats(-1.0, 1.0),
           m=st.integers(-100, 100))
    def test_periodic_under_whole_flux_quanta(self, coupler, phi, m):
        assert flux_to_frequency(SPEC, coupler, phi + m) == pytest.approx(
            flux_to_frequency(SPEC, coupler, phi), rel=1e-12
        )

    def test_huge_flux_is_finite(self):
        # pi * 1e308 overflows; the flux is reduced modulo Phi_0 first
        assert flux_to_frequency(SPEC, 1, 1e308) == flux_to_frequency(SPEC, 1, 0.0)

    def test_bad_coupler_index(self):
        with pytest.raises(ValueError):
            flux_to_frequency(SPEC, 3, 0.1)


class TestDeviceSpec:
    def test_json_round_trip(self):
        back = DeviceSpec.from_json(SPEC.to_json())
        assert back.wc1 == pytest.approx(SPEC.wc1, rel=1e-12)
        assert back.w2 == pytest.approx(SPEC.w2, rel=1e-12)
        assert back.g12 == pytest.approx(SPEC.g12, rel=1e-12)

    def test_table_values(self):
        assert SPEC.w1 / GHZ == pytest.approx(5.05)
        assert SPEC.g1c1 / GHZ == pytest.approx(0.1)
        assert SPEC.g2c1 / GHZ == pytest.approx(-0.1)
        assert SPEC.g12 / GHZ == pytest.approx(-0.0066)

    def test_dispersive_warnings_clean_for_table(self):
        assert SPEC.dispersive_warnings() == []

    def test_dispersive_warning_raised_for_close_coupler(self):
        bad = replace(SPEC, w1=flux_to_frequency(SPEC, 1, 0.3) - 0.3 * GHZ)
        assert any("g1c1" in w for w in bad.dispersive_warnings())


class TestBareHamiltonian:
    def test_uncoupled_single_excitation_energies(self):
        spec = _uncoupled()
        h = build_hamiltonian(spec, spec.phi_dc1, spec.phi_dc2)
        np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-6)
        d = np.diag(h)
        # |1> of each mode: q1, c1, q2, c2, q3
        wc1 = flux_to_frequency(spec, 1, spec.phi_dc1)
        wc2 = flux_to_frequency(spec, 2, spec.phi_dc2)
        assert d[81] == pytest.approx(spec.w1, rel=1e-12)
        assert d[27] == pytest.approx(wc1, rel=1e-12)
        assert d[9] == pytest.approx(spec.w2, rel=1e-12)
        assert d[3] == pytest.approx(wc2, rel=1e-12)
        assert d[1] == pytest.approx(spec.w3, rel=1e-12)
        # |2> of q1 picks up the anharmonicity
        assert d[162] == pytest.approx(2 * spec.w1 + spec.a1, rel=1e-12)

    def test_hermitian(self):
        h = build_hamiltonian(SPEC, 0.25, 0.35)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-3)


class TestPulseShapes:
    CFG = PulseConfig(amp1=0.05, amp2=0.05, wd1=60e6 * 2 * np.pi,
                      wd2=85e6 * 2 * np.pi, tau_final=100e-9)

    def test_plateau_and_edges(self):
        env_mid = pulse_envelope(self.CFG, 50e-9)
        assert env_mid == pytest.approx(1.0, abs=1e-3)
        assert pulse_envelope(self.CFG, 0.0) < 0.05
        assert pulse_envelope(self.CFG, self.CFG.tau_final) < 0.05

    def test_sample_and_hold(self):
        dt = 1.0 / self.CFG.sample_rate
        t0 = 3e-9
        base = np.floor(t0 / dt) * dt
        vals = pulse_envelope(self.CFG, base + np.array([0.0, 0.3 * dt, 0.9 * dt]))
        assert np.ptp(vals) == 0.0

    def test_zero_amp_flux_is_dc(self):
        cfg = replace(self.CFG, amp1=0.0, amp2=0.0)
        t = np.linspace(0, cfg.tau_final, 7)
        np.testing.assert_allclose(coupler_flux(SPEC, cfg, 1, t), SPEC.phi_dc1)
        np.testing.assert_allclose(coupler_flux(SPEC, cfg, 2, t), SPEC.phi_dc2)

    def test_flux_branch_validation(self):
        cfg = replace(self.CFG, amp1=0.25)
        with pytest.raises(ValueError):
            cfg.validate_flux_branch(SPEC)

    def test_too_short_pulse_rejected(self):
        with pytest.raises(ValueError):
            PulseConfig(amp1=0.01, amp2=0.01, wd1=1.0, wd2=1.0,
                        tau_final=5e-9, tau_rise=2e-9)


class TestTheoryPulse:
    def test_full_transfer(self):
        out = theory_pulse(np.pi, 2.0)
        assert out["delta"] == pytest.approx(0.0, abs=1e-12)
        assert out["tau"] == pytest.approx(np.pi / (np.sqrt(2) * 2.0), rel=1e-12)

    def test_half_transfer(self):
        out = theory_pulse(np.pi / 2, 1.0)
        root = np.sqrt((np.pi - np.pi / 4) * np.pi / 2)
        assert out["tau"] == pytest.approx(root, rel=1e-12)
        assert out["delta"] == pytest.approx(2 * (np.pi - np.pi / 2) / root, rel=1e-12)

    def test_small_theta_phase_area(self):
        # delta * tau = 2 (pi - theta) exactly -> 2 pi as theta -> 0
        out = theory_pulse(1e-6, 3.0)
        assert out["delta"] * out["tau"] == pytest.approx(2 * np.pi, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            theory_pulse(0.0, 1.0)
        with pytest.raises(ValueError):
            theory_pulse(np.pi, -1.0)


class TestSchriefferWolff:
    def test_uncoupled_reduces_to_bare(self):
        eff = swt_effective_params(_uncoupled())
        assert eff["w1"] == pytest.approx(SPEC.w1)
        assert eff["g12"] == 0.0

    def test_direct_coupling_passes_through(self):
        spec = replace(_uncoupled(), g12=1.0 * MHZ)
        assert swt_effective_params(spec)["g12"] == pytest.approx(1.0 * MHZ)

    def test_table_exchange_values(self):
        eff = swt_effective_params(SPEC)
        assert eff["g12"] / MHZ == pytest.approx(3.7303, abs=2e-3)
        assert eff["g23"] / MHZ == pytest.approx(3.6679, abs=2e-3)

    def test_avoided_crossing_oracle(self):
        # tune bare w1 through w2; the minimum single-excitation gap of the
        # full Hamiltonian equals 2 g~12 at resonance, within 15%
        deltas = np.linspace(-15, 15, 31) * MHZ
        gaps = []
        for dw in deltas:
            spec = replace(SPEC, w1=SPEC.w2 + dw)
            h = build_hamiltonian(spec, spec.phi_dc1, spec.phi_dc2)
            evals = np.sort(np.linalg.eigvalsh(h))
            # two dressed qubit-like levels nearest w2 among the low levels
            lo = evals[(evals > 4.5 * GHZ) & (evals < 5.5 * GHZ)]
            two = np.sort(np.abs(lo - spec.w2))[:2]
            near = lo[np.argsort(np.abs(lo - spec.w2))[:2]]
            gaps.append(abs(near[1] - near[0]))
        min_gap = min(gaps)
        g12 = abs(swt_effective_params(SPEC)["g12"])
        assert min_gap == pytest.approx(2 * g12, rel=0.15)

    def test_flux_periodicity(self):
        a = swt_effective_params(SPEC, phi_c1=0.31)["g12"]
        b = swt_effective_params(SPEC, phi_c1=1.31)["g12"]
        assert a == pytest.approx(b, rel=1e-12)


class TestSidebandCoupling:
    def test_zero_amplitude(self):
        assert sideband_coupling(SPEC, 1, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_small_amplitude_linear_response(self):
        # g-bar^(1) ~ (dg~/dphi) * amp / 2 for small amp
        amp = 1e-4
        eps = 1e-6
        slope = (
            swt_effective_params(SPEC, phi_c1=SPEC.phi_dc1 + eps)["g12"]
            - swt_effective_params(SPEC, phi_c1=SPEC.phi_dc1 - eps)["g12"]
        ) / (2 * eps)
        got = sideband_coupling(SPEC, 1, amp)
        assert got == pytest.approx(slope * amp / 2, rel=1e-3)

    def test_seed_amplitudes_hit_target_coupling(self):
        cfg = seed_pulse_config(SPEC, np.pi, tau_final=212e-9)
        j = np.sqrt((np.pi - np.pi / 2) * np.pi) / 212e-9
        for coupler, amp in ((1, cfg.amp1), (2, cfg.amp2)):
            assert abs(sideband_coupling(SPEC, coupler, amp)) == pytest.approx(
                j, rel=1e-9
            )

    @pytest.mark.parametrize("coupler", [1, 2])
    @pytest.mark.parametrize("amp", [0.0, 1e-4, 0.048, 0.15])
    def test_matches_pointwise_loop(self, coupler, amp):
        # the per-point loop over the flux grid, one swt_effective_params
        # call each, as the reference for the vectorised grid
        key = "g12" if coupler == 1 else "g23"
        x = np.linspace(0.0, 2 * np.pi, 1025)[:-1]
        vals = [swt_effective_params(SPEC, **{f"phi_c{coupler}": p})[key]
                for p in (SPEC.phi_dc1 if coupler == 1 else SPEC.phi_dc2)
                + amp * np.cos(x)]
        want = float(np.mean(np.array(vals) * np.exp(-1j * x)).real)
        assert sideband_coupling(SPEC, coupler, amp) == pytest.approx(
            want, rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize(
        "theta,tau_final",
        [(0.0, 212e-9), (-1.0, 212e-9), (4.0, 212e-9), (np.nan, 212e-9),
         (np.pi, 0.0), (np.pi, -1.0), (np.pi, np.nan), (np.pi, np.inf),
         (np.pi, 1e-12)],
    )
    def test_seed_refuses_bad_input(self, theta, tau_final):
        with pytest.raises(ValueError):
            seed_pulse_config(SPEC, theta, tau_final)

    def test_seed_reference_values(self):
        cfg = seed_pulse_config(SPEC, np.pi, tau_final=212e-9)
        assert cfg.amp1 == pytest.approx(0.0482063, abs=1e-5)
        assert cfg.amp2 == pytest.approx(0.0485842, abs=1e-5)
        assert cfg.wd1 / MHZ == pytest.approx(59.5016, abs=0.01)
        assert cfg.wd2 / MHZ == pytest.approx(84.4585, abs=0.01)


class TestZZCoupling:
    def test_uncoupled_is_zero(self):
        assert zz_coupling(_uncoupled()) == pytest.approx(0.0, abs=1e-3)

    def test_sign_change_in_flux_window(self):
        # the bias point nearly nulls zeta; it changes sign before 0.45
        z_lo = zz_coupling(SPEC, phi_c1=0.30)
        z_hi = zz_coupling(SPEC, phi_c1=0.45)
        assert z_lo * z_hi < 0

    def test_quartic_scaling_without_direct_coupling(self):
        # zeta ~ g^4 in the dispersive regime: halving all qubit-coupler
        # couplings (at a small overall scale where the expansion is clean)
        # divides zeta by 16
        base = replace(SPEC, g12=0.0, g23=0.0)

        def scaled(s):
            sp = replace(
                base,
                g1c1=base.g1c1 * s, g2c1=base.g2c1 * s,
                g2c2=base.g2c2 * s, g3c2=base.g3c2 * s,
            )
            return zz_coupling(sp, phi_c1=0.35)

        assert scaled(0.2) / scaled(0.1) == pytest.approx(16.0, rel=0.05)

    def test_pair_23(self):
        z = zz_coupling(SPEC, pair=(2, 3))
        assert abs(z) / MHZ < 1.0  # near-nulled at the bias point


class TestPropagate:
    SHORT = PulseConfig(
        amp1=0.0482063, amp2=0.0485842,
        wd1=59.5016 * MHZ, wd2=84.4585 * MHZ,
        tau_final=30e-9,
    )

    def test_zero_time_identity(self):
        cfg = replace(self.SHORT, tau_final=0.0)
        u = propagate(SPEC, cfg, nmax=5)
        np.testing.assert_array_equal(u, np.eye(u.shape[0]))

    def test_unitarity_and_halving(self):
        u = propagate(SPEC, self.SHORT, substeps_per_sample=8, nmax=5,
                      check_convergence=True, convergence_tol=1e-6)
        dim = u.shape[0]
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-8

    def test_static_bias_keeps_computational_population(self):
        cfg = replace(self.SHORT, amp1=0.0, amp2=0.0, tau_final=20e-9)
        u = propagate(SPEC, cfg, nmax=5)
        cols = comp_columns(SPEC, nmax=5)
        block = u[np.ix_(cols, cols)]
        pops = np.sum(np.abs(block) ** 2, axis=0)
        # bare computational states hybridize at the (g/Delta)^2 ~ 1% level
        assert pops.min() > 0.95

    def test_columns_fast_path_matches_full(self):
        cfg = replace(self.SHORT, tau_final=12e-9)
        cols = comp_columns(SPEC, nmax=4)
        full = propagate(SPEC, cfg, nmax=4)
        part = propagate(SPEC, cfg, nmax=4, columns=np.eye(full.shape[0])[:, cols])
        np.testing.assert_allclose(part, full[:, cols], atol=1e-12)

    def test_truncation_agrees_with_larger_space(self):
        cfg = replace(self.SHORT, tau_final=15e-9)
        u5 = propagate(SPEC, cfg, nmax=5, columns=_unit_columns(5))
        u6 = propagate(SPEC, cfg, nmax=6, columns=_unit_columns(6))
        b5 = u5[comp_columns(SPEC, nmax=5), :]
        b6 = u6[comp_columns(SPEC, nmax=6), :]
        # the nmax=5 truncation itself is good to ~1e-3 on this pulse
        np.testing.assert_allclose(b5, b6, atol=1e-3)


def _unit_columns(nmax):
    """The computational states of the working space as unit columns."""
    dim = _working_space(nmax).size
    return np.eye(dim, dtype=complex)[:, comp_columns(SPEC, nmax)]


def _target_unitary(theta):
    bits = np.array([[q1, q2, q3] for q1 in (0, 1) for q2 in (0, 1)
                     for q3 in (0, 1)])
    zcorr = np.exp(1j * (bits @ np.array([theta / 2, theta, theta / 2])))
    return bits, zcorr[:, np.newaxis] * gates.effective_gate(3, theta)


class TestDressedBasis:
    def test_orthonormal_and_close_to_bare(self):
        w = dressed_basis(SPEC, nmax=5)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(8), atol=1e-12)
        idx = comp_columns(SPEC, nmax=5)
        overlaps = np.abs(w[idx, range(8)])
        assert overlaps.min() > 0.98
        # gauge: bare-state overlap is real positive
        assert np.abs(w[idx, range(8)].imag).max() < 1e-12

    def test_computational_states_need_nmax_three(self):
        # |111> has total occupation 3
        with pytest.raises(ValueError, match="nmax >= 3"):
            dressed_basis(SPEC, nmax=2)


class TestGateMetrics:
    def test_exact_target_is_perfect_dressed(self):
        theta = 0.8
        _, v = _target_unitary(theta)
        met = gate_metrics(dressed_basis(SPEC) @ v, theta, SPEC)
        assert met.infidelity < 1e-9
        assert met.leakage == pytest.approx(0.0, abs=1e-12)

    def test_static_evolution_has_tiny_dressed_leakage(self):
        # with the drive off, dressed-state population cannot leave the
        # computational manifold, while the bare states lose ~4% of theirs
        cfg = PulseConfig(amp1=0.0, amp2=0.0, wd1=1e8, wd2=1e8,
                          tau_final=20e-9)
        u = propagate(SPEC, cfg, nmax=5, columns=dressed_basis(SPEC, 5))
        met = gate_metrics(u, np.pi, SPEC, cfg, nmax=5)
        assert met.leakage < 1e-6
        idx = comp_columns(SPEC, nmax=5)
        bare = propagate(SPEC, cfg, nmax=5, columns=_unit_columns(5))[idx]
        assert 1 - np.mean(np.sum(np.abs(bare) ** 2, axis=0)) > 0.01

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(0.0, np.pi, exclude_min=True),
        z=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
        phase=st.floats(-np.pi, np.pi),
        p=st.floats(0.0, 1.0),
    )
    def test_virtual_z_invariance(self, theta, z, phase, p):
        # residual Z rotations and a global phase on an exact K_3 block
        # are corrected away; scaling the block by sqrt(p) leaks 1 - p
        bits, v = _target_unitary(theta)
        extra = np.exp(1j * (bits @ np.array(z) + phase))
        met = gate_metrics(dressed_basis(SPEC) @ (extra[:, np.newaxis] * v), theta, SPEC)
        assert met.infidelity < 1e-9
        assert met.leakage == pytest.approx(0.0, abs=1e-12)
        lossy = gate_metrics(np.sqrt(p) * dressed_basis(SPEC), theta, SPEC)
        assert lossy.leakage == pytest.approx(1 - p, abs=1e-12)

    def test_identity_against_full_transfer(self):
        # leaving the state untouched scores 1/3 against K_3(pi)
        met = gate_metrics(dressed_basis(SPEC), np.pi, SPEC)
        assert met.avg_fidelity == pytest.approx(1 / 3, abs=1e-6)

    def test_leakage_counts_lost_population(self):
        met = gate_metrics(np.sqrt(0.9) * dressed_basis(SPEC), 0.5, SPEC)
        assert met.leakage == pytest.approx(0.1, rel=1e-9)

    def test_dressed_block_propagation_matches_square(self):
        cfg = PulseConfig(amp1=0.0482063, amp2=0.0485842,
                          wd1=59.5016 * MHZ, wd2=84.4585 * MHZ,
                          tau_final=12e-9)
        w = dressed_basis(SPEC, nmax=4)
        full = propagate(SPEC, cfg, nmax=4)
        block = propagate(SPEC, cfg, nmax=4, columns=w)
        a = gate_metrics(full @ w, np.pi, SPEC, cfg, nmax=4)
        b = gate_metrics(block, np.pi, SPEC, cfg, nmax=4)
        assert a.infidelity == pytest.approx(b.infidelity, abs=1e-9)
        assert a.leakage == pytest.approx(b.leakage, abs=1e-12)

    @pytest.mark.parametrize(
        "shape,nmax",
        [((243, 243), None), ((147, 147), 5), ((243, 8), 5), ((147, 7), 5), ((8,), None)],
    )
    def test_refused_shapes(self, shape, nmax):
        # a square propagator, the wrong working space or too few columns
        with pytest.raises(ValueError, match="block"):
            gate_metrics(np.zeros(shape, dtype=complex), np.pi, SPEC, nmax=nmax)


# --------------------------------------------- parity-block references

_OCCUPATION = np.indices((3,) * 5).reshape(5, -1).sum(axis=0)


def _working_space(nmax):
    return np.arange(243) if nmax is None else np.flatnonzero(_OCCUPATION <= nmax)


def _dense_cf4(spec, cfg, substeps_per_sample, nmax):
    """The CF4 integrator on the whole working space, one full-matrix eigh
    per half-step: exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2))
    with H1, H2 the Hamiltonian at the two Gauss nodes of each step."""
    keep = _working_space(nmax)
    dt0 = 1.0 / (cfg.sample_rate * substeps_per_sample)
    n_full = int(np.floor(cfg.tau_final / dt0 + 1e-9))
    edges = dt0 * np.arange(n_full + 1)
    if cfg.tau_final - edges[-1] > 1e-15 * cfg.tau_final:
        edges = np.append(edges, cfg.tau_final)
    c = np.sqrt(3) / 6
    a1, a2 = 0.25 - c, 0.25 + c

    def hamiltonian(t):
        h = build_hamiltonian(spec, coupler_flux(spec, cfg, 1, t),
                              coupler_flux(spec, cfg, 2, t))
        return h[np.ix_(keep, keep)]

    u = np.eye(keep.size, dtype=complex)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = t1 - t0
        h1 = hamiltonian(t0 + (0.5 - c) * dt)
        h2 = hamiltonian(t0 + (0.5 + c) * dt)
        for x1, x2 in ((a2, a1), (a1, a2)):
            w, v = np.linalg.eigh(x1 * h1 + x2 * h2)
            u = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ u)
    return u


def _dressed_by_full_eigh(spec, nmax):
    keep = _working_space(nmax)
    h = build_hamiltonian(spec, spec.phi_dc1, spec.phi_dc2)[np.ix_(keep, keep)]
    _, vecs = np.linalg.eigh(h)
    w = np.empty((keep.size, 8), dtype=complex)
    for j, bare in enumerate(comp_columns(spec, nmax)):
        v = vecs[:, np.argmax(np.abs(vecs[bare]) ** 2)]
        w[:, j] = v * np.conj(v[bare]) / abs(v[bare])
    return w


def _zz_by_full_eigh(spec, phi_c1, phi_c2, pair):
    evals, evecs = np.linalg.eigh(build_hamiltonian(spec, phi_c1, phi_c2))
    mode = {1: 0, 2: 2, 3: 4}

    def energy(excited):
        levels = [0] * 5
        for q in excited:
            levels[mode[q]] = 1
        return evals[np.argmax(np.abs(evecs[np.ravel_multi_index(levels, (3,) * 5)]) ** 2)]

    qa, qb = pair
    return energy((qa, qb)) - energy((qa,)) - energy((qb,)) + energy(())


class TestParityBlocks:
    # 5 ns with a 1 ns rise: 12 AWG samples, 24 CF4 steps at 2 substeps
    PULSE = PulseConfig(amp1=0.1, amp2=0.08, wd1=59.5 * MHZ, wd2=84.5 * MHZ,
                        tau_final=5e-9, tau_rise=1e-9)

    @staticmethod
    @lru_cache(maxsize=None)
    def _reference(nmax):
        return _dense_cf4(SPEC, TestParityBlocks.PULSE, 2, nmax)

    def test_block_sizes(self):
        ops = device._operators(SPEC)
        assert [rows.size for rows, *_ in ops.parity_blocks(5)] == [61, 86]
        assert [rows.size for rows, *_ in ops.parity_blocks(None)] == [122, 121]

    @pytest.mark.parametrize("nmax", [3, 4, None])
    @pytest.mark.parametrize("kind", ["identity", "index", "block"])
    def test_propagate_matches_dense_cf4(self, nmax, kind):
        ref = self._reference(nmax)
        dim = ref.shape[0]
        if kind == "identity":
            columns, want = None, ref
        elif kind == "index":
            # unit columns, each live in one parity block only
            columns = _unit_columns(nmax)
            want = ref[:, comp_columns(SPEC, nmax)]
        else:
            # random columns spread over both parity blocks
            rng = np.random.default_rng(dim)
            columns = rng.normal(size=(dim, 5)) + 1j * rng.normal(size=(dim, 5))
            want = ref @ columns
        got = propagate(SPEC, self.PULSE, 2, nmax=nmax, columns=columns)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("nmax", [3, 5, None])
    def test_dressed_basis_matches_full_eigh(self, nmax):
        got = dressed_basis(SPEC, nmax)
        assert np.abs(got - _dressed_by_full_eigh(SPEC, nmax)).max() < 1e-12

    @pytest.mark.parametrize(
        "phi_c1,phi_c2,pair",
        [(0.3, 0.3, (1, 2)), (0.35, 0.3, (1, 2)), (0.45, 0.3, (1, 2)),
         (0.3, 0.4, (2, 3)), (0.3, 0.3, (1, 3))],
    )
    def test_zz_coupling_matches_full_eigh(self, phi_c1, phi_c2, pair):
        got = zz_coupling(SPEC, phi_c1=phi_c1, phi_c2=phi_c2, pair=pair)
        want = _zz_by_full_eigh(SPEC, phi_c1, phi_c2, pair)
        # 1e-9 GHz: the energies in the difference are ~10 GHz
        assert got == pytest.approx(want, abs=1e-9 * GHZ)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6))
    def test_static_hamiltonian_is_parity_block_diagonal(self, couplings):
        names = ("g1c1", "g2c1", "g2c2", "g3c2", "g12", "g23")
        spec = replace(SPEC, **{k: g * GHZ for k, g in zip(names, couplings)})
        h = device._Operators(spec).h_static
        odd = _OCCUPATION % 2 == 1
        assert not np.any(h[np.ix_(odd, ~odd)])
        assert not np.any(h[np.ix_(~odd, odd)])

    @pytest.mark.parametrize("columns", [np.arange(8), np.zeros((243, 8)), np.zeros((2, 86, 8))])
    def test_refused_columns(self, columns):
        # the 1-D index form, a block of the full space at nmax=5, a stack
        with pytest.raises(ValueError, match=r"\(147, m\) block"):
            propagate(SPEC, self.PULSE, 2, nmax=5, columns=columns)

    def test_parity_breaking_term_is_refused(self, monkeypatch):
        # a single-mode drive (b + b^dag) on q1, folded into its number term
        num = np.diag([0.0, 1.0, 2.0])
        drive = np.diag(np.sqrt([1.0, 2.0]), 1)
        real_mode_op = device._mode_op

        def with_drive(op, mode):
            if mode == 0 and np.allclose(op, num):
                op = op + 1e-3 * (drive + drive.T)
            return real_mode_op(op, mode)

        monkeypatch.setattr(device, "_mode_op", with_drive)
        with pytest.raises(ValueError, match="even and odd"):
            device._Operators(SPEC)


# ------------------------------------------------ Chebyshev half-step


class TestChebyshevStep:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 90),
        m=st.integers(1, 16),
        dt=st.floats(0.01, 3.0),
        offset=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigh_on_random_blocks(self, d, m, dt, offset, seed):
        # a random real symmetric h0 plus a shifted diagonal and two
        # non-negative number-like diagonals, as in the device blocks; the
        # Gershgorin radius times dt reaches about 30
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) / np.sqrt(d)
        h0 = a + a.T + 2 * offset * np.eye(d)
        nc1 = rng.integers(0, 3, size=d).astype(float)
        nc2 = rng.integers(0, 3, size=d).astype(float)
        alpha, beta = rng.normal(size=(2, 5, 2))
        widths = np.array([dt, 0.5 * dt])
        step, _ = device._chebyshev_stepper(h0, nc1, nc2, alpha, beta, widths)
        x = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
        for (al, be), width in zip(zip(alpha.flat, beta.flat), np.resize(widths, 10)):
            w, v = np.linalg.eigh(0.5 * h0 + np.diag(al * nc1 + be * nc2))
            want = (v * np.exp(-1j * w * width)) @ (v.conj().T @ x)
            got = step(al, be, width, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(x)

    def test_exact_on_a_tight_interval(self):
        # h = 15 sigma_x: its spectrum +-15 is its Gershgorin interval, so
        # an interval any narrower leaves the range where T_k is bounded
        h0 = np.array([[0.0, 30.0], [30.0, 0.0]])
        zeros, no_drive = np.zeros(2), np.zeros((1, 2))
        step, terms = device._chebyshev_stepper(h0, zeros, zeros, no_drive, no_drive,
                                                np.array([2.0]))
        got = step(0.0, 0.0, 2.0, np.array([[1.0], [0.0]], dtype=complex))
        assert terms > 30
        assert np.abs(got - [[np.cos(30.0)], [-1j * np.sin(30.0)]]).max() < 1e-12

    @staticmethod
    def _propagate_forced(monkeypatch, chebyshev, cfg, nmax, columns):
        monkeypatch.setattr(device, "_chebyshev_is_cheaper", lambda *a: chebyshev)
        return propagate(SPEC, cfg, 4, nmax=nmax, columns=columns)

    def test_both_steppers_agree_on_a_50ns_pulse(self, monkeypatch):
        cfg = PulseConfig(amp1=0.0482063, amp2=0.0485842, wd1=59.5016 * MHZ,
                          wd2=84.4585 * MHZ, tau_final=50e-9)
        cols = dressed_basis(SPEC, 5)
        by_eigh = self._propagate_forced(monkeypatch, False, cfg, 5, cols)
        by_cheb = self._propagate_forced(monkeypatch, True, cfg, 5, cols)
        assert np.abs(by_eigh - by_cheb).max() < 1e-10
        assert np.abs(by_cheb.conj().T @ by_cheb - np.eye(8)).max() < 1e-10

    def test_dispatch(self, monkeypatch):
        # the 5 ns pulse at 2 substeps is 24 CF4 steps of two half-steps
        cfg = TestParityBlocks.PULSE
        n_steps = 24
        for nmax in (3, 5):
            dressed_basis(SPEC, nmax)  # cached before counting
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape[0])
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)

        def eigh_rows(nmax, columns):
            calls.clear()
            propagate(SPEC, cfg, 2, nmax=nmax, columns=columns)
            return sorted(set(calls)), len(calls)

        # 8 dressed columns, 4 per parity block: Chebyshev on both blocks
        assert eigh_rows(5, dressed_basis(SPEC, 5)) == ([], 0)
        # the whole propagator: every block keeps eigh
        assert eigh_rows(5, None) == ([61, 86], 4 * n_steps)
        # nmax=3: the 16-row block stays on eigh, the 35-row one does not
        assert eigh_rows(3, dressed_basis(SPEC, 3)) == ([16], 2 * n_steps)


class TestOptimizeTrace:
    def test_trace_records_wall_seconds(self):
        cfg = PulseConfig(amp1=0.05, amp2=0.05, wd1=59.5 * MHZ,
                          wd2=84.5 * MHZ, tau_final=10e-9)
        res = optimize_pulse(SPEC, np.pi, cfg, budget=3,
                             substeps_per_sample=2, nmax=3)
        assert res.n_evaluations == 3
        for row in res.trace:
            assert len(row) == 8
            assert 0 < row[7] < 60
