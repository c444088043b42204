"""Property tests: the compound matrices of the determinant lift (Cauchy-Binet,
unitarity), the Givens-network sector engine against that lift and the dense
oracle, the sector state of a chain against its 2^N vector,
run_scenario against a dense state-vector reference, and the parity
protocol's linearity."""

from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fstchain import gates, propagator
from fstchain.cli import main
from fstchain.propagator import (
    basis_state,
    dense_oracle,
    evolve_state,
    lift_to_full,
    network_apply,
    sector_indices,
    sector_propagator,
    single_propagator,
    site_populations,
    split_sectors,
)
from fstchain.protocols import Scenario, parity_measure, run_scenario
from fstchain.synthesis import ChainParams, ChainSpec, synthesize

SETTINGS = settings(max_examples=40, deadline=None)


def _unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def sectors(draw, max_sites=9):
    """(u, k, amp): a random N x N unitary, a sector k in 0..N and random
    amplitudes over its C(N, k) subsets."""
    n = draw(st.integers(1, max_sites))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = comb(n, k)
    amp = rng.normal(size=m) + 1j * rng.normal(size=m)
    return _unitary(n, rng), k, amp


def _one_sector(u, k, amp):
    return network_apply(u, {k: amp})[k]


@SETTINGS
@given(sectors())
def test_sector_apply_matches_determinant_lift(case):
    u, k, amp = case
    want = sector_propagator(u, k) @ amp
    assert np.abs(_one_sector(u, k, amp) - want).max() < 1e-12


@SETTINGS
@given(sectors())
def test_sector_apply_preserves_norm(case):
    u, k, amp = case
    norm = np.linalg.norm(amp)
    assert abs(np.linalg.norm(_one_sector(u, k, amp)) - norm) < 1e-12 * norm


@SETTINGS
@given(sectors(), st.integers(0, 2**32 - 1))
def test_sector_apply_composes(case, seed):
    u2, k, amp = case
    u1 = _unitary(u2.shape[0], np.random.default_rng(seed))
    once = _one_sector(u1 @ u2, k, amp)
    twice = _one_sector(u1, k, _one_sector(u2, k, amp))
    assert np.abs(once - twice).max() < 1e-12


@st.composite
def unitary_pairs(draw, max_sites=8):
    """(a, b, k): two random N x N unitaries and a sector k in 0..N."""
    n = draw(st.integers(1, max_sites))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _unitary(n, rng), _unitary(n, rng), k


@SETTINGS
@given(unitary_pairs())
def test_compound_matrices_obey_cauchy_binet(case):
    a, b, k = case
    want = sector_propagator(a, k) @ sector_propagator(b, k)
    assert np.abs(sector_propagator(a @ b, k) - want).max() < 1e-12


@SETTINGS
@given(unitary_pairs())
def test_compound_matrix_of_a_unitary_is_unitary(case):
    a, _, k = case
    c = sector_propagator(a, k)
    assert np.abs(c.conj().T @ c - np.eye(comb(a.shape[0], k))).max() < 1e-12


@st.composite
def sector_states(draw, max_sites=10):
    """(n, psi): a random normalized 2^N state on a random set of
    excitation sectors."""
    n = draw(st.integers(1, max_sites))
    ks = draw(st.sets(st.integers(0, n), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi[~np.isin(np.bitwise_count(np.arange(2**n)), list(ks))] = 0.0
    return n, psi / np.linalg.norm(psi)


def _scatter(n, sectors):
    psi = np.zeros(2**n, dtype=complex)
    for k, amp in sectors.items():
        psi[sector_indices(n, k)] = amp
    return psi


@SETTINGS
@given(sector_states())
def test_split_sectors_scatters_back(case):
    n, psi = case
    sectors = split_sectors(psi)
    assert set(sectors) == set(np.bitwise_count(np.flatnonzero(psi)).tolist())
    assert np.abs(_scatter(n, sectors) - psi).max() < 1e-12


@SETTINGS
@given(sector_states())
def test_site_populations_match_dense_masks(case):
    n, psi = case
    idx = np.arange(2**n)
    want = [np.sum(np.abs(psi[(idx >> (n - s)) & 1 == 1]) ** 2) for s in range(1, n + 1)]
    assert np.abs(site_populations(n, split_sectors(psi)) - want).max() < 1e-12


@SETTINGS
@given(sector_states(), st.sampled_from([0.0, 0.7, 3.1]), st.integers(0, 2**32 - 1))
def test_evolve_state_matches_dense_oracle(case, t, seed):
    # a random chain, not mirror symmetric
    n, psi = case
    rng = np.random.default_rng(seed)
    params = ChainParams(rng.normal(size=n - 1), rng.normal(size=n), 1.0)
    want = dense_oracle(params, t) @ psi
    assert np.abs(evolve_state(psi, params, t) - want).max() < 1e-12


@SETTINGS
@given(st.integers(0, 10), st.data())
def test_sector_indices_are_weight_k_indices_descending(n, data):
    k = data.draw(st.integers(0, n + 1))
    idx = sector_indices(n, k)
    all_idx = np.arange(2**n)
    np.testing.assert_array_equal(idx, all_idx[np.bitwise_count(all_idx) == k][::-1])
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[...] = 0


def test_sector_indices_refuse_int64_overflow():
    assert sector_indices(63, 1)[0] == 2**62
    with pytest.raises(ValueError, match="int64"):
        sector_indices(64, 1)


def test_sector_apply_rejects_wrong_amplitude_shape():
    with pytest.raises(ValueError, match="shape"):
        _one_sector(np.eye(5, dtype=complex), 2, np.ones(9))


def test_basis_state_rejects_duplicate_sites():
    with pytest.raises(ValueError, match="twice"):
        basis_state(5, [1, 1])


def test_hot_paths_never_build_the_lift(monkeypatch):
    def forbidden(*args):
        raise AssertionError("_compound_levels called")

    monkeypatch.setattr(propagator, "_compound_levels", forbidden)
    params = synthesize(ChainSpec(n_sites=7, theta=1.1, tau=1.0))
    rng = np.random.default_rng(2)
    psi = rng.normal(size=2**7) + 1j * rng.normal(size=2**7)
    evolve_state(psi, params, 0.7)
    events = ({"t": 0.6, "kind": "xflip", "site": 4},)
    run_scenario(Scenario(7, 1.1, (1, 2, 6), events), n_steps=4)
    # the patch bites: both oracle entry points go through _compound_levels
    u = single_propagator(params, 0.7)
    for lift in (lift_to_full, lambda u: sector_propagator(u, 3)):
        with pytest.raises(AssertionError, match="_compound_levels"):
            lift(u)


def test_durations_never_build_the_swap_schedule(monkeypatch, tmp_path):
    def forbidden(*args):
        raise AssertionError("_bounce_layers called")

    monkeypatch.setattr(gates, "_bounce_layers", forbidden)
    gates.speed_gain(801, 1e-9)
    gates.decomposition_duration(300, 4.0, 1.3)
    argv = ["--out", str(tmp_path), "speed-sweep", "--n", "2..60", "--theta", "0.05pi,pi"]
    assert main(argv) == 0


@SETTINGS
@given(
    n=st.integers(1, 6),
    a=st.complex_numbers(max_magnitude=2),
    b=st.complex_numbers(max_magnitude=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_post_state_is_linear(n, a, b, seed):
    rng = np.random.default_rng(seed)
    psi1, psi2 = (v / np.linalg.norm(v) for v in
                  rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n)))
    mix = a * psi1 + b * psi2
    norm = np.linalg.norm(mix)
    assume(norm > 1e-3)
    got = norm * parity_measure(mix / norm).post_state
    want = a * parity_measure(psi1).post_state + b * parity_measure(psi2).post_state
    assert np.abs(got - want).max() < 1e-12


def _dense_populations(scenario, n_steps):
    """Site populations on run_scenario's grid, from a 2^N state vector
    evolved by dense_oracle with each x-flip applied as a bit flip."""
    n = scenario.n_sites
    params = synthesize(ChainSpec(n_sites=n, theta=scenario.theta, tau=1.0))
    t_final = scenario.t_final if scenario.t_final is not None else 2 * params.tau
    idx = np.arange(2**n)
    occupied = (idx[:, None] >> (n - np.arange(1, n + 1))) & 1
    psi = basis_state(n, scenario.excitations)
    events = list(scenario.events)
    t_anchor = 0.0
    rows = []
    for t in np.linspace(0.0, t_final, n_steps + 1):
        while events and events[0]["t"] <= t + 1e-12 * max(t_final, 1.0):
            ev = events.pop(0)
            psi = dense_oracle(params, ev["t"] - t_anchor) @ psi
            psi = psi[idx ^ (1 << (n - ev["site"]))]
            t_anchor = ev["t"]
        phi = dense_oracle(params, t - t_anchor) @ psi
        rows.append(np.abs(phi) ** 2 @ occupied)
    return np.array(rows)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 8))
    sites = st.integers(1, n)
    excitations = draw(st.lists(sites, unique=True, max_size=n))
    times = draw(
        st.lists(st.floats(0.0, 2.0) | st.sampled_from([0.0, 1.0, 2.0]), max_size=4)
    )
    events = tuple(
        {"t": t, "kind": "xflip", "site": draw(sites)} for t in sorted(times)
    )
    theta = draw(st.floats(0.05 * np.pi, np.pi))
    return Scenario(n, theta, tuple(excitations), events), draw(st.integers(1, 10))


@settings(max_examples=25, deadline=None)
@given(scenarios())
# an event inside the slack just after a grid time once gave a negative dt
@example((Scenario(2, 1.0, (), ({"t": 1e-15, "kind": "xflip", "site": 1},)), 1))
def test_run_scenario_matches_dense_state_vector(case):
    scenario, n_steps = case
    got = run_scenario(scenario, n_steps=n_steps).populations
    assert np.abs(got - _dense_populations(scenario, n_steps)).max() < 1e-9


@st.composite
def flip_scenarios(draw):
    """A scenario on N <= 8 sites with up to 4 x-flips, some at t = 0 and
    some repeating the flip before them (same site, same time), ending at a
    drawn t_final, and its step count."""
    n = draw(st.integers(2, 8))
    sites = st.integers(1, n)
    t_final = draw(st.floats(0.1, 3.0))
    flips = []
    for _ in range(draw(st.integers(0, 4))):
        if flips and draw(st.booleans()):
            flips.append(flips[-1])
        else:
            flips.append((draw(st.just(0.0) | st.floats(0.0, t_final)), draw(sites)))
    events = tuple({"t": t, "kind": "xflip", "site": s} for t, s in sorted(flips))
    excitations = tuple(draw(st.lists(sites, unique=True, max_size=n)))
    theta = draw(st.floats(0.05 * np.pi, np.pi))
    return Scenario(n, theta, excitations, events, t_final), draw(st.integers(1, 10))


@settings(max_examples=40, deadline=None)
@given(flip_scenarios())
def test_flips_match_dense_state_vector(case):
    scenario, n_steps = case
    got = run_scenario(scenario, n_steps=n_steps).populations
    assert np.abs(got - _dense_populations(scenario, n_steps)).max() < 1e-12
