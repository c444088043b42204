import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstchain import gates
from fstchain.gates import (
    FSWAP,
    apply_effective_gate,
    apply_local,
    build_generator,
    compile_decomposition,
    decomposition_duration,
    effective_gate,
    gate_time,
    iswap_matrix,
    speed_gain,
    verify_mapping,
    z_layer_equivalent,
)
from fstchain.propagator import (
    basis_state, dense_oracle, extract_transfer_phase, single_propagator,
)
from fstchain.protocols import parity_measure
from fstchain.synthesis import ChainParams, ChainSpec, spectrum_check, synthesize

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma+ = |0><1| on {0,1}=? see below


def kron(*ops):
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


# Dense references: K_N as the product of its 2^N x 2^N mirror-pair
# factors, G_N as a sum of Pauli-string kron products, and circuit gates
# kron-embedded into the full space.


def _dense_pair_factor(n, a, theta):
    """exp(-i (theta/2) (sigma+_a Z..Z sigma-_b + h.c.)), b = N+1-a."""
    b = n + 1 - a
    idx = np.arange(2**n)
    bit_a = (idx >> (n - a)) & 1
    bit_b = (idx >> (n - b)) & 1
    active = bit_a != bit_b
    partner = idx ^ ((1 << (n - a)) | (1 << (n - b)))
    zmask = 0
    for k in range(a + 1, b):
        zmask |= 1 << (n - k)
    par = 1 - 2 * (np.bitwise_count(idx & zmask) & 1).astype(float)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    f = np.zeros((2**n, 2**n), dtype=complex)
    f[idx, idx] = np.where(active, c, 1.0)
    f[idx[active], partner[active]] = -1j * s * par[active]
    return f


def _dense_k(n, theta):
    k = np.eye(2**n, dtype=complex)
    for a in range(1, n // 2 + 1):
        k = _dense_pair_factor(n, a, theta) @ k
    return k


def _kron_generator(n):
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
    g = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(1, n // 2 + 1):
        ops = [np.eye(2, dtype=complex)] * n
        ops[a - 1], ops[n - a] = sp, sp.T.conj()
        for k in range(a, n - a):
            ops[k] = Z
        t = kron(*ops)
        g += t + t.conj().T
    return g


def _kron_embed(gate, targets, n):
    p = targets[0]
    width = int(np.log2(gate.shape[0]))
    return kron(np.eye(2 ** (p - 1)), gate, np.eye(2 ** (n - p - width + 1)))


def _kron_unitary(circuit):
    u = np.eye(2**circuit.n_sites, dtype=complex)
    for bonds, iswap in circuit.layers:
        for p in bonds:
            gate = iswap_matrix(circuit.angle) if p == iswap else FSWAP
            u = _kron_embed(gate, (p + 1, p + 2), circuit.n_sites) @ u
    return u


def _dense_mapping(params, theta):
    """verify_mapping's comparison on the full 2^N x 2^N matrices: the
    largest entry of dense_oracle times the phase correction minus K_N,
    its first (row, column) in row-major order, and the transfer phase."""
    n = params.n_sites
    phi = extract_transfer_phase(single_propagator(params, params.tau), theta)
    idx = np.arange(2**n)
    phase = phi * np.bitwise_count(idx).astype(float)
    if n % 2 == 1:
        phase = phase + (theta / 2) * ((idx >> (n - (n + 1) // 2)) & 1)
    d = dense_oracle(params, params.tau)
    d *= np.exp(1j * phase)[np.newaxis, :]
    d -= effective_gate(n, theta)
    diff = np.abs(d)
    worst = tuple(int(v) for v in np.unravel_index(diff.argmax(), diff.shape))
    return float(diff.max()), worst, phi


def _random_state(rng, shape):
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=0)


class TestGenerator:
    def test_two_sites_is_xy_exchange(self):
        expected = (kron(X, X) + kron(Y, Y)) / 2
        np.testing.assert_allclose(build_generator(2), expected, atol=1e-12)

    def test_three_sites_has_z_string(self):
        # sigma+_1 Z_2 sigma-_3 + h.c. with sigma+ = |1><0|
        sp = np.array([[0, 0], [1, 0]], dtype=complex)
        term = kron(sp, Z, sp.T.conj())
        expected = term + term.conj().T
        np.testing.assert_allclose(build_generator(3), expected, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_pair_terms_commute(self, n):
        sp = np.array([[0, 0], [1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        terms = []
        for a in range(1, n // 2 + 1):
            b = n + 1 - a
            ops = [eye] * n
            ops[a - 1] = sp
            ops[b - 1] = sp.T.conj()
            for k in range(a, b - 1):
                ops[k] = Z
            t = kron(*ops)
            terms.append(t + t.conj().T)
        np.testing.assert_allclose(sum(terms), build_generator(n), atol=1e-12)
        for i in range(len(terms)):
            for j in range(i):
                comm = terms[i] @ terms[j] - terms[j] @ terms[i]
                assert np.abs(comm).max() < 1e-12

    def test_generator_conserves_excitation_number(self):
        g = build_generator(5)
        w = np.bitwise_count(np.arange(32))
        assert np.abs(g[w[:, None] != w[None, :]]).max() == 0.0


class TestEffectiveGate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("theta", [0.2, 1.3, np.pi])
    def test_matches_matrix_exponential(self, n, theta):
        g = build_generator(n)
        w, v = np.linalg.eigh(g)
        expected = (v * np.exp(-1j * (theta / 2) * w)) @ v.conj().T
        np.testing.assert_allclose(effective_gate(n, theta), expected, atol=1e-10)

    def test_small_theta_is_identity(self):
        np.testing.assert_allclose(
            effective_gate(4, 1e-9), np.eye(16), atol=1e-8
        )

    def test_single_excitation_block_closed_form(self):
        n, theta = 6, 0.77
        k = effective_gate(n, theta)
        idx = [1 << (n - 1 - j) for j in range(n)]
        block = k[np.ix_(idx, idx)]
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        expected = c * np.eye(n) - 1j * s * np.eye(n)[::-1]
        np.testing.assert_allclose(block, expected, atol=1e-10)

    def test_k3_parity_conditioned_blocks(self):
        # middle qubit |0>: iSWAP_13(-theta); middle qubit |1>: iSWAP_13(+theta)
        theta = 0.9
        k = effective_gate(3, theta)
        for mid, sign in ((0, -1), (1, +1)):
            idx = [mid << 1, 4 + (mid << 1), (mid << 1) + 1, 4 + (mid << 1) + 1]
            # basis order |q1 q3> in {00, 10, 01, 11} with q2 fixed: remap to
            # standard two-qubit ordering |q1 q3> = 00,01,10,11
            idx = [(0 << 2) + (mid << 1) + 0, (0 << 2) + (mid << 1) + 1,
                   (1 << 2) + (mid << 1) + 0, (1 << 2) + (mid << 1) + 1]
            block = k[np.ix_(idx, idx)]
            np.testing.assert_allclose(block, iswap_matrix(sign * theta), atol=1e-12)

    def test_k4_pi_squares_to_z_layer(self):
        k = effective_gate(4, np.pi)
        ok, err = z_layer_equivalent(k @ k, np.eye(16, dtype=complex))
        assert ok, err

    def test_theta_2pi_is_z_layer(self):
        k = effective_gate(5, np.pi)  # (K^{(pi)})^2 = K at 2 pi effectively
        ok, _ = z_layer_equivalent(k @ k, np.eye(32, dtype=complex))
        assert ok


class TestVerifyMapping:
    @pytest.mark.parametrize(
        "n,theta",
        [(2, np.pi / 2), (5, np.pi / 2), (8, 0.3 * np.pi)]
        + [(n, np.pi) for n in range(2, 8)],
    )
    def test_examples(self, n, theta):
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.0))
        report = verify_mapping(params, theta)
        assert report.ok
        tol = 1e-10 if n == 2 else 1e-8
        assert report.distance < tol

    @pytest.mark.parametrize("n", range(2, 11))
    def test_far_theta_is_reported_not_raised(self, n):
        # a full-transfer chain checked at 1.1 pi: its propagator is far
        # from the checked FST form, and both checks say so
        params = synthesize(ChainSpec(n_sites=n, theta=np.pi, tau=1.0))
        report = verify_mapping(params, 1.1 * np.pi)
        assert not report.ok and report.distance > 0.1
        assert report.worst_element is not None
        assert not spectrum_check(params, 1.1 * np.pi).ok

    def test_detects_wrong_theta(self):
        params = synthesize(ChainSpec(n_sites=4, theta=0.5 * np.pi, tau=1.0))
        report = verify_mapping(params, 0.7 * np.pi)
        assert not report.ok
        assert report.worst_element is not None

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("fault", ["none", "wrong_theta", "scaled_coupling"])
    def test_blocks_match_dense_comparison(self, n, fault):
        theta = 0.6 * np.pi
        params = synthesize(ChainSpec(n_sites=n, theta=theta, tau=1.0))
        if fault == "scaled_coupling":
            couplings = params.couplings.copy()
            couplings[(n - 1) // 2] *= 1.01
            params = ChainParams(couplings, params.detunings, params.tau)
        check = 0.7 * np.pi if fault == "wrong_theta" else theta
        report = verify_mapping(params, check)
        distance, worst, phi = _dense_mapping(params, check)
        assert report.distance == distance
        assert report.transfer_phase == phi
        assert report.ok == (fault == "none")
        assert report.worst_element == (None if report.ok else worst)

    def test_ties_go_to_first_in_row_major_order(self):
        # uncoupled sites with detunings in multiples of pi/2: the largest
        # entry, 2.0, is reached exactly in the k = 2 block, first at
        # (33, 33), and in the k = 4 block at (30, 30), which comes first
        params = ChainParams(np.zeros(5), np.array([0, 0, -1, -1, 2, 1]) * np.pi / 2, 1.0)
        report = verify_mapping(params, 0.25 * np.pi)
        distance, worst, _ = _dense_mapping(params, 0.25 * np.pi)
        assert (report.distance, report.worst_element) == (distance, worst) == (2.0, (30, 30))

    def test_twelve_sites_traced_peak(self):
        # the parent built the dense oracle, K_N and their difference
        # (640 MB traced); the largest number block, C(12, 6) = 924 rows,
        # holds 14 MB
        params = synthesize(ChainSpec(n_sites=12, theta=0.6 * np.pi, tau=1.0))
        tracemalloc.start()
        try:
            report = verify_mapping(params, 0.6 * np.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 128 * 2**20


class TestGateOps:
    def test_iswap_half_angle_matrix(self):
        m = iswap_matrix(np.pi)
        expected = np.eye(4, dtype=complex)
        expected[1:3, 1:3] = [[0, 1j], [1j, 0]]
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_fswap_identity(self):
        s = np.diag([1.0, 1j])
        np.testing.assert_allclose(
            FSWAP, kron(s, s) @ iswap_matrix(-np.pi), atol=1e-12
        )

    def test_fswap_matrix_is_read_only(self):
        assert not FSWAP.flags.writeable
        with pytest.raises(ValueError):
            FSWAP[3, 3] = 1.0

    def test_durations(self):
        j = 2.0
        assert gate_time("ISwapTheta", -0.8, j) == pytest.approx(0.8 / (2 * j))
        assert gate_time("FSwap", None, j) == pytest.approx(np.pi / (2 * j))

    @pytest.mark.parametrize("j_max", [0.0, -1.0, np.nan, np.inf, None])
    @pytest.mark.parametrize("kind", ["ISwapTheta", "FSwap"])
    def test_two_qubit_time_rejects_bad_j_max(self, kind, j_max):
        with pytest.raises(ValueError, match="j_max"):
            gate_time(kind, 0.5, j_max)

    @pytest.mark.parametrize("kind", ["HalfY", "Toffoli"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown gate kind"):
            gate_time(kind, None, 1.0)


_PLAIN_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _inject_fault(monkeypatch, fault, n):
    """Make compile_decomposition's N-site network wrong: one layer past its
    middle drops an FSWAP, or marks the FSWAP next to its iSWAP as the
    iSWAP; or every iSWAP has its angle negated, or every FSWAP acts as a
    plain SWAP (no -1 on |11>).  fault=None changes nothing."""
    if fault in ("dropped_fswap", "misplaced_iswap"):
        def schedule(n, real=gates._bounce_layers):
            layers = real(n)
            for at in range(len(layers) // 2, len(layers)):
                bonds, iswap = layers[at]
                if fault == "dropped_fswap" and len(bonds) > (iswap is not None):
                    drop = next(p for p in bonds if p != iswap)
                    layers[at] = tuple(p for p in bonds if p != drop), iswap
                    return [layer for layer in layers if layer[0]]
                if fault == "misplaced_iswap" and iswap is not None:
                    for p in (iswap - 2, iswap + 2):
                        if p in bonds:
                            layers[at] = bonds, p
                            return layers
            raise AssertionError(f"no {fault} on N={n}")

        monkeypatch.setattr(gates, "_bounce_layers", schedule)
    elif fault == "negated_iswap":
        monkeypatch.setattr(gates, "iswap_matrix", lambda angle, real=iswap_matrix: real(-angle))
    elif fault == "plain_swap":
        monkeypatch.setattr(gates, "FSWAP", _PLAIN_SWAP)


# each fault on each N = 3..10 it can be made on (the N < 5 networks have
# no two gates in an iSWAP layer)
_FAULTS = ["negated_iswap", "dropped_fswap", "plain_swap", "misplaced_iswap"]
_FAULTY_NETWORKS = [(fault, n) for fault in [None] + _FAULTS for n in range(3, 11)
                    if n >= 5 or fault != "misplaced_iswap"]


class TestDecomposition:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.5 * np.pi, np.pi])
    def test_gate_counts(self, n, theta):
        circuit = compile_decomposition(n, theta, 1.0)
        counts = circuit.gate_counts()
        if n % 2 == 0:
            assert counts.get("FSwap", 0) == n * n // 2 - n
            assert counts["ISwapTheta"] == n // 2
        else:
            assert counts.get("FSwap", 0) == (n - 1) ** 2 // 2
            assert counts["ISwapTheta"] == (n - 1) // 2

    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.5 * np.pi, np.pi])
    def test_durations(self, theta):
        j = 3.0
        for n in (6, 8):
            assert compile_decomposition(n, theta, j).total_duration == pytest.approx(
                n * np.pi / (2 * j), rel=1e-12
            )
        for n in (5, 7):
            assert compile_decomposition(n, theta, j).total_duration == pytest.approx(
                (n + 1) * np.pi / (2 * j), rel=1e-12
            )

    def test_three_sites_duration_depends_on_theta(self):
        # N=3 compiles to FSWAP / iSWAP(-theta) / FSWAP: 2 pi/2 + theta/2
        theta, j = 0.4 * np.pi, 1.0
        circuit = compile_decomposition(3, theta, j)
        assert circuit.total_duration == pytest.approx(
            (2 * np.pi + theta) / (2 * j), rel=1e-12
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.5 * np.pi, np.pi])
    def test_z_layer_equivalence(self, n, theta):
        # compiling checks the circuit's single-particle matrix; the dense
        # unitary is the reference
        circuit = compile_decomposition(n, theta, 1.0)
        ok, err = z_layer_equivalent(circuit.unitary(), effective_gate(n, theta))
        assert ok, err

    # every fault at N = 40 and 1000, and the negated iSWAP also at N = 11
    # and 12, past _FAULTY_NETWORKS' dense comparison
    @pytest.mark.parametrize(
        "fault,n",
        [(fault, n) for n in (40, 1000) for fault in _FAULTS]
        + [("negated_iswap", 11), ("negated_iswap", 12)],
    )
    def test_one_faulty_gate_is_caught(self, monkeypatch, fault, n):
        _inject_fault(monkeypatch, fault, n)
        with pytest.raises(RuntimeError, match="not Z-layer equivalent"):
            compile_decomposition(n, 0.3 * np.pi, 1.0)

    def test_residual_tolerance_is_inclusive_and_refuses_nan(self, monkeypatch):
        monkeypatch.setattr(gates, "_single_particle_residual", lambda circuit, theta: 1e-8)
        compile_decomposition(5, 0.3 * np.pi, 1.0)
        monkeypatch.setattr(gates, "_single_particle_residual", lambda circuit, theta: np.nan)
        with pytest.raises(RuntimeError, match="not Z-layer equivalent"):
            compile_decomposition(5, 0.3 * np.pi, 1.0)

    @pytest.mark.parametrize("fault,n", _FAULTY_NETWORKS)
    def test_check_agrees_with_dense_unitary(self, monkeypatch, fault, n):
        theta = 0.3 * np.pi
        _inject_fault(monkeypatch, fault, n)
        circuit = compile_decomposition(n, theta, 1.0, verify=False)
        passes = gates._single_particle_residual(circuit, theta) <= 1e-8
        assert passes == z_layer_equivalent(circuit.unitary(), effective_gate(n, theta))[0]
        assert passes == (fault is None)

    def test_twenty_sites_checked_in_little_memory(self, monkeypatch):
        # the check holds N x N matrices, not 2^N states
        checked = []

        def spy(circuit, theta, real=gates._single_particle_residual):
            checked.append(real(circuit, theta))
            return checked[-1]

        monkeypatch.setattr(gates, "_single_particle_residual", spy)
        tracemalloc.start()
        try:
            compile_decomposition(20, 0.5, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(checked) == 1 and checked[0] <= 1e-8
        assert peak < 2**20

    def test_largest_network_is_built_and_checked(self, monkeypatch):
        checked = []

        def spy(circuit, theta, real=gates._single_particle_residual):
            checked.append(circuit.n_sites)
            return real(circuit, theta)

        monkeypatch.setattr(gates, "_single_particle_residual", spy)
        circuit = compile_decomposition(1024, 0.7, 1.0)
        assert checked == [1024]
        assert sum(circuit.gate_counts().values()) == 1024**2 // 2 - 512
        with pytest.raises(ValueError, match="limit"):
            compile_decomposition(1025, 0.7, 1.0)

    def test_schedule_layout(self):
        # the mirror image of each network (hole before the middle site) is
        # just as valid, so only this pins the layout circuit.json holds
        assert gates._bounce_layers(3) == [((0,), None), ((1,), 1), ((0,), None)]
        assert gates._bounce_layers(4) == [((0, 2), None), ((1,), 1)] * 2
        assert gates._bounce_layers(5) == [
            ((0, 3), None), ((2,), None), ((1, 3), 1),
            ((0, 2), None), ((1, 3), 1), ((2,), None),
        ]

    def test_layers_are_disjoint_nearest_neighbour_gates(self):
        # what the per-gate validation of hand-built circuits checked: each
        # layer's bonds ascend two or more apart inside 0..N-2, and its
        # iSWAP, if any, is one of them
        for n in range(3, 41):
            for bonds, iswap in compile_decomposition(n, 0.3, 1.0, verify=False).layers:
                assert bonds and 0 <= bonds[0] and bonds[-1] <= n - 2
                assert all(b - a >= 2 for a, b in zip(bonds, bonds[1:]))
                assert iswap is None or iswap in bonds

    def test_closed_form_duration_matches_schedule(self):
        # |theta| > pi makes the iSWAP the longer gate of a mixed layer
        j_max = 1.3
        for n in [*range(2, 301), 801]:
            layer_kinds = [{"ISwapTheta" if p == iswap else "FSwap" for p in bonds}
                           for bonds, iswap in gates._bounce_layers(n)]
            for theta in (1e-9, 0.3, np.pi, 4.0, -2.0, -7.0):
                want = sum(max(gate_time(kind, -theta, j_max) for kind in kinds)
                           for kinds in layer_kinds)
                assert decomposition_duration(n, theta, j_max) == pytest.approx(
                    want, rel=1e-12, abs=0
                )

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_duration_needs_two_sites(self, n):
        with pytest.raises(ValueError, match="N >= 2"):
            decomposition_duration(n, 0.5, 1.0)

    def test_duration_helper_matches_circuit(self):
        for n in (3, 6, 9):
            assert decomposition_duration(n, 0.7, 2.0) == pytest.approx(
                compile_decomposition(n, 0.7, 2.0, verify=False).total_duration
            )

    def test_json_export(self):
        circuit = compile_decomposition(4, 0.5 * np.pi, 1.0)
        data = json.loads(circuit.to_json())
        assert data["n_sites"] == 4
        kinds = [g["kind"] for layer in data["layers"] for g in layer]
        assert kinds.count("FSwap") == 4 and kinds.count("ISwapTheta") == 2

    @pytest.mark.parametrize("circuit", [
        compile_decomposition(8, 0.5 * np.pi, 2 * np.pi * 1e6),
        compile_decomposition(9, -1.3, 0.7),
        # |theta| > pi: the iSWAP outlasts the FSWAPs of its layer
        compile_decomposition(6, np.float64(4.0), 1e-3),
        compile_decomposition(7, -2.5, 3.0),
    ])
    def test_json_text_is_the_whole_dict_dump(self, circuit, tmp_path):
        # the layer-by-layer text equals json.dumps of the whole circuit
        # rebuilt from its layers, with every gate's duration from gate_time
        def gate(p, iswap):
            kind, angle = ("ISwapTheta", circuit.angle) if p == iswap else ("FSwap", None)
            return {"kind": kind, "targets": [p + 1, p + 2], "angle": angle,
                    "duration": gate_time(kind, angle, circuit.j_max)}

        layers = [[gate(p, iswap) for p in bonds] for bonds, iswap in circuit.layers]
        want = json.dumps({
            "n_sites": circuit.n_sites,
            "total_duration": sum(max(g["duration"] for g in layer) for layer in layers),
            "layers": layers,
        })
        assert circuit.to_json() == want
        circuit.write_json(tmp_path / "circuit.json")
        assert (tmp_path / "circuit.json").read_text() == want + "\n"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            compile_decomposition(2, np.pi, 1.0)

    @pytest.mark.parametrize("j_max", [0.0, -1.0, np.nan, np.inf])
    def test_bad_j_max_rejected(self, j_max):
        with pytest.raises(ValueError, match="j_max"):
            compile_decomposition(5, 0.5 * np.pi, j_max)
        with pytest.raises(ValueError, match="j_max"):
            decomposition_duration(5, 0.5 * np.pi, j_max)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            compile_decomposition(8, theta, 1.0)


class TestSpeedGain:
    def test_fifteen_sites_full_transfer(self):
        expected = 2 * np.sqrt(16 / 14)
        assert speed_gain(15, np.pi) == pytest.approx(expected, rel=1e-12)

    def test_full_transfer_floor_of_two(self):
        # even chains sit exactly at 2; odd chains approach 2 from above
        assert speed_gain(40, np.pi) == pytest.approx(2.0, rel=1e-12)
        assert speed_gain(41, np.pi) == pytest.approx(
            2 * np.sqrt(42 / 40), rel=1e-12
        )
        assert speed_gain(801, np.pi) == pytest.approx(2.0, abs=3e-3)

    def test_even_small_theta_asymptote(self):
        for n in (6, 12, 20):
            expected = np.sqrt(3) * n / np.sqrt(n**2 - 4)
            assert speed_gain(n, 1e-7) == pytest.approx(expected, rel=1e-9)

    def test_floors_on_grid(self):
        for n in range(5, 21):
            for theta in np.linspace(0.05 * np.pi, np.pi, 9):
                assert speed_gain(n, theta) >= np.sqrt(3) - 1e-9
            assert speed_gain(n, np.pi) >= 2 - 1e-9


def test_z_layer_equivalent_rejects_non_factorizable():
    d = np.ones(8, dtype=complex)
    d[3] = np.exp(0.5j)  # |011>: breaks single-qubit factorization
    ok, _ = z_layer_equivalent(np.diag(d), np.eye(8, dtype=complex))
    assert not ok


def _z_layer(phi, angles, sign=1):
    """Diagonal of e^{i phi} prod_k diag(1, e^{i angles_k}) (site 1 = MSB);
    with sign=-1 the states holding two or more excitations get the
    conjugate phases."""
    n = len(angles)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    total = bits @ np.asarray(angles)
    return np.exp(1j * (phi + np.where(bits.sum(axis=1) > 1, sign, 1) * total))


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


_LAYERS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.floats(-np.pi, np.pi),
    st.lists(st.floats(0.2, 1.2), min_size=n, max_size=n),
    st.integers(0, 2**32 - 1),
))


class TestZLayerEquivalent:
    """z_layer_equivalent on phases away from +-1, where a product taken
    as a quotient, or a per-qubit phase read against the wrong reference,
    changes the layer."""

    @settings(max_examples=40, deadline=None)
    @given(layer=_LAYERS)
    def test_any_layer_times_any_unitary_is_accepted(self, layer):
        phi, angles, seed = layer
        b = _random_unitary(len(angles), seed)
        ok, err = z_layer_equivalent(_z_layer(phi, angles)[:, None] * b, b)
        assert ok and err <= 1e-12, err

    @settings(max_examples=40, deadline=None)
    @given(layer=_LAYERS.filter(lambda layer: len(layer[1]) >= 2))
    def test_conjugate_layer_is_rejected(self, layer):
        # same vacuum and single-excitation phases, conjugate products
        phi, angles, seed = layer
        b = _random_unitary(len(angles), seed)
        ok, _ = z_layer_equivalent(_z_layer(phi, angles, sign=-1)[:, None] * b, b)
        assert not ok

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_scaled_matrix_is_rejected(self, n):
        b = _random_unitary(n, n)
        ok, err = z_layer_equivalent(2 * b, b)
        assert not ok and err > 0.1

    def test_inputs_are_left_unchanged(self):
        b = _random_unitary(3, 0)
        a = _z_layer(0.3, [0.4, 0.5, 0.6])[:, None] * b
        a0, b0 = a.copy(), b.copy()
        z_layer_equivalent(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


PROPERTY = settings(max_examples=30, deadline=None)


class TestMatrixFreeAgainstDense:
    """The index-arithmetic gate algebra against the dense references above,
    to 1e-12."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_effective_gate_and_generator(self, n):
        theta = 0.37 + 0.29 * n
        assert np.abs(effective_gate(n, theta) - _dense_k(n, theta)).max() < 1e-12
        assert np.abs(build_generator(n) - _kron_generator(n)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("theta", [0.0, 0.7 * np.pi, np.pi, 2 * np.pi, -1.3])
    def test_effective_gate_equals_pair_updates_of_identity(self, n, theta):
        # the closed-form entries are the same products, bit for bit, as
        # the state path's in-place pair updates
        want = gates._apply_pairs(np.eye(2**n, dtype=complex), theta)
        assert np.array_equal(effective_gate(n, theta), want)

    def test_effective_gate_traced_peak_is_its_output(self):
        # the parent updated an identity in place (96 MB traced at N = 11)
        out_bytes = 16 * 4**11
        tracemalloc.start()
        try:
            effective_gate(11, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * out_bytes

    @pytest.mark.parametrize("n", range(2, 9))
    def test_effective_gate_is_exponential(self, n):
        theta = 2.1
        expected = scipy.linalg.expm(-1j * (theta / 2) * _kron_generator(n))
        assert np.abs(effective_gate(n, theta) - expected).max() < 1e-12

    @PROPERTY
    @given(
        n=st.integers(1, 9),
        cols=st.sampled_from([None, 1, 3]),
        theta=st.floats(-2 * np.pi, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_matches_dense_product(self, n, cols, theta, seed):
        rng = np.random.default_rng(seed)
        x = _random_state(rng, (2**n,) if cols is None else (2**n, cols))
        before = x.copy()
        got = apply_effective_gate(x, theta)
        assert got.shape == x.shape
        assert np.abs(got - _dense_k(n, theta) @ x).max() < 1e-12
        assert np.array_equal(x, before)

    @PROPERTY
    @given(
        n=st.integers(2, 8),
        a=st.floats(-2 * np.pi, 2 * np.pi),
        b=st.floats(-2 * np.pi, 2 * np.pi),
    )
    def test_composition_and_unitarity(self, n, a, b):
        ka, kb = effective_gate(n, a), effective_gate(n, b)
        assert np.abs(ka @ kb - effective_gate(n, a + b)).max() < 1e-12
        assert np.abs(ka.conj().T @ ka - np.eye(2**n)).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_generator_invariant_under_site_reversal(self, n):
        idx = np.arange(2**n)
        rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n))
        g = build_generator(n)
        assert np.abs(g[np.ix_(rev, rev)] - g).max() == 0.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            apply_effective_gate(np.ones(6, dtype=complex), 1.0)

    def test_fortran_ordered_block(self):
        rng = np.random.default_rng(4)
        x = _random_state(rng, (2**7, 5))
        got = apply_effective_gate(np.asfortranarray(x), 0.9)
        assert np.array_equal(got, apply_effective_gate(x, 0.9))

    def test_memory_is_about_one_extra_state(self):
        # the pair updates run in place on the output, holding one copied
        # quarter of it at a time
        x = _random_state(np.random.default_rng(18), (2**18,))
        tracemalloc.start()
        try:
            apply_effective_gate(x, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    @PROPERTY
    @given(n=st.integers(3, 8), theta=st.floats(-2 * np.pi, 2 * np.pi),
           seed=st.integers(0, 2**32 - 1))
    @example(n=5, theta=4.0, seed=0)
    @example(n=8, theta=-5.0, seed=1)
    def test_circuit_unitary_matches_kron_embedding(self, n, theta, seed):
        circuit = compile_decomposition(n, theta, 1.0, verify=False)
        want = _kron_unitary(circuit)
        assert np.abs(circuit.unitary() - want).max() < 1e-12
        x = _random_state(np.random.default_rng(seed), (2**n, 3))
        assert np.abs(circuit.apply(x) - want @ x).max() < 1e-12

    @PROPERTY
    @given(
        n=st.integers(1, 9),
        width=st.sampled_from([1, 2]),
        site=st.integers(1, 9),
        cols=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    # gates on the last site(s) of a vector: the short-trailing-axis product
    @example(n=6, width=1, site=9, cols=None, seed=0)
    @example(n=6, width=2, site=9, cols=None, seed=0)
    def test_apply_local_matches_kron_embedding(self, n, width, site, cols, seed):
        n = max(n, width)
        site = min(site, n - width + 1)
        rng = np.random.default_rng(seed)
        gate = rng.normal(size=(2**width,) * 2) + 1j * rng.normal(size=(2**width,) * 2)
        x = _random_state(rng, (2**n,) if cols is None else (2**n, cols))
        got = apply_local(x, gate, site)
        assert got.shape == x.shape
        want = _kron_embed(gate, (site,), n) @ x
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n", [11, 12])
    def test_parity_on_registers_past_the_old_limit(self, n):
        rng = np.random.default_rng(n)
        psi = _random_state(rng, (2**n,))
        even = np.bitwise_count(np.arange(2**n)) % 2 == 0
        got = parity_measure(psi).left_ancilla_one_probability
        assert abs(got - np.sum(np.abs(psi[even]) ** 2)) < 1e-12
        assert parity_measure(basis_state(n, [1, n])).inferred_parity == "even"
