"""Unit tests for the state-vector circuit engine."""

import math
import tracemalloc

import numpy as np
import pytest

from qmf import amplify, qsim
from qmf.errors import CapExceededError, ValidationError


def run_of(data_bits, q):
    """The matched run of the string oracle on ``data_bits`` with q bits ignored."""
    return qsim.StringOracleSpec(data_bits, q).matching_states()


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return qsim.StateVector(num_qubits, amps)


def reference_counting_amps(n, q, data_bits, p):
    """Gate-level counting state with its |-> ancilla factored out."""
    state = qsim.init_state(n, p)
    qsim.controlled_grover_powers(state, qsim.StringOracleSpec(data_bits, q))
    qsim.inverse_qft(state, range(n, n + p))
    # lower half, ancilla 0: amplitudes of the factored state / sqrt(2)
    return state.amps[:1 << (n + p)] * math.sqrt(2.0)


def reference_search_amps(n, q, data_bits, k):
    """k gate-level Grover iterations with the |-> ancilla factored out."""
    state = qsim.init_state(n, 0)
    for _ in range(k):
        qsim.grover_iteration(state, qsim.StringOracleSpec(data_bits, q))
    return state.amps[:1 << n] * math.sqrt(2.0)


def reference_marginal(state, qubits):
    """Marginal of a contiguous range as one reshape-and-sum over the whole |amp|^2."""
    probs = np.abs(state.amps) ** 2
    return probs.reshape(-1, 1 << len(qubits), 1 << qubits.start).sum(axis=(0, 2))


def reference_diffusion(amps, n, control):
    """Template reflection as two reshape branches, one per control case, in place."""
    if control is None:
        v = amps.reshape(-1, 1 << n)
        mean = v.mean(axis=1, keepdims=True)
        v *= -1.0
        v += 2.0 * mean
    else:
        block = amps.reshape(-1, 2, 1 << (control - n), 1 << n)[:, 1]
        mean = block.mean(axis=2, keepdims=True)
        block *= -1.0
        block += 2.0 * mean


def dense_fourier(p):
    d = 1 << p
    grid = np.outer(np.arange(d), np.arange(d))
    return np.exp(2j * np.pi * grid / d) / math.sqrt(d)


class TestInitState:
    def test_two_qubit_template_uniform(self):
        state = qsim.init_state(2, 0)
        probs = qsim.marginal_probs(state, range(0, 2))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        # ancilla in |->: equal weight, opposite sign
        v = state.amps.reshape(2, 4)
        np.testing.assert_allclose(v[1], -v[0], atol=1e-15)

    def test_full_register_uniform_modulus(self):
        state = qsim.init_state(6, 5)
        assert state.amps.size == 1 << 12
        np.testing.assert_allclose(np.abs(state.amps) ** 2, 2.0**-12, atol=1e-15)

    def test_norm(self):
        state = qsim.init_state(4, 3)
        assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,p", [(1, 1), (3, 2), (2, 5)])
    def test_h_below_the_top_qubit_minus_on_top(self, n, p):
        # template 0..n-1 and counting n..n+p-1 uniform, the ancilla on top in |->
        state = qsim.init_state(n, p)
        assert state.num_qubits == n + p + 1
        amp = 2.0 ** (-(n + p + 1) / 2)
        np.testing.assert_allclose(state.amps.reshape(2, -1),
                                   [[amp] * (1 << (n + p)), [-amp] * (1 << (n + p))],
                                   rtol=0, atol=1e-15)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            qsim.init_state(20, 10, cap=26)
        qsim.init_state(4, 5, cap=10)  # 2**10 amplitudes, ancilla included, fit
        with pytest.raises(CapExceededError, match="^a state of 2\\*\\*11 amplitudes needs 32768 "
                                                   "bytes, over the budget of 16384$"):
            qsim.init_state(4, 6, cap=10)


class TestApplyGate:
    """The in-place gate kernels that the gate-level reference applies."""

    def test_h_involution(self):
        state = random_state(4, 1)
        ref = state.amps.copy()
        qsim._apply_h(state.amps, 2)
        qsim._apply_h(state.amps, 2)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_x_flips_basis_state(self):
        amps = np.zeros(2, complex)
        amps[0] = 1.0
        qsim._apply_x(amps, 0)
        np.testing.assert_allclose(amps, [0.0, 1.0])

    def test_cnot_truth_table(self):
        for control_val, expect_flip in ((0, False), (1, True)):
            amps = np.zeros(4, complex)
            amps[control_val << 1] = 1.0  # qubit 1 is the control
            qsim._apply_mcx(amps, [1], 0)
            target = (control_val << 1) | (1 if expect_flip else 0)
            assert amps[target] == 1.0

    def test_mcz_matches_dense_matrix(self):
        # H X H = Z on the target: the phase kickback the oracle relies on
        state = random_state(4, 2)
        ref = state.amps.copy()
        qsim._apply_h(state.amps, 0)
        qsim._apply_mcx(state.amps, [1, 2, 3], 0)
        qsim._apply_h(state.amps, 0)
        dense = np.eye(16, dtype=complex)
        dense[15, 15] = -1.0
        np.testing.assert_allclose(state.amps, dense @ ref, atol=1e-12)

    def test_mcx_matches_dense_matrix(self):
        state = random_state(3, 3)
        ref = state.amps.copy()
        qsim._apply_mcx(state.amps, [1, 2], 0)
        dense = np.eye(8, dtype=complex)
        dense[[6, 7], [6, 7]] = 0.0
        dense[6, 7] = dense[7, 6] = 1.0
        np.testing.assert_allclose(state.amps, dense @ ref, atol=1e-12)

    def test_x_fixing_every_qubit_matches_dense_matrix(self):
        # on one qubit the target pattern fixes every axis: 0-d views
        state = random_state(1, 4)
        ref = state.amps.copy()
        qsim._apply_x(state.amps, 0)
        np.testing.assert_array_equal(state.amps, np.array([[0, 1], [1, 0]]) @ ref)

    def test_cphase_fixing_every_qubit_matches_dense_matrix(self):
        state = random_state(2, 5)
        ref = state.amps.copy()
        qsim._apply_cphase(state.amps, 1, 0, 0.7)
        dense = np.diag([1.0, 1.0, 1.0, complex(math.cos(0.7), math.sin(0.7))])
        np.testing.assert_allclose(state.amps, dense @ ref, rtol=0, atol=1e-15)


class TestStringOracle:
    def test_two_low_bit_variants_flip(self):
        spec = qsim.StringOracleSpec("000110", 1)
        state = qsim.init_state(6, 0)
        ref = state.amps.copy()
        qsim.string_oracle(state, spec)
        signs = (state.amps / ref).reshape(2, 64).real
        flipped = sorted(set(np.flatnonzero(np.isclose(signs[0], -1.0)).tolist()))
        assert flipped == [6, 7]
        assert list(spec.matching_states()) == [6, 7]

    def test_ignore_all_flips_everything(self):
        state = qsim.init_state(3, 0)
        ref = state.amps.copy()
        qsim.string_oracle(state, qsim.StringOracleSpec("101", 3))
        np.testing.assert_allclose(state.amps, -ref, atol=1e-14)

    def test_exact_match_equals_dense_oracle(self):
        # dense reference: X fold/sandwich layers around an MCX unitary
        spec = qsim.StringOracleSpec("1011", 0)
        state = random_state(5, 6)
        ref = state.amps.copy()
        qsim.string_oracle(state, spec)

        def x_on(bits):
            m = np.eye(1)
            for q in reversed(range(5)):
                m = np.kron(m, np.array([[0, 1], [1, 0]]) if q in bits else np.eye(2))
            return m

        data = 0b1011
        fold = x_on([j for j in range(4) if (data >> j) & 1])
        sandwich = x_on(range(4))
        mcx = np.eye(32)
        a, b = 0b01111, 0b11111  # all template bits set, ancilla 0/1
        mcx[[a, b], [a, b]] = 0.0
        mcx[a, b] = mcx[b, a] = 1.0
        u = fold @ sandwich @ mcx @ sandwich @ fold
        np.testing.assert_allclose(state.amps, u @ ref, atol=1e-12)

    def test_phase_flip_on_prepared_ancilla_matches_diagonal(self):
        # with the ancilla prepared in |->, the oracle acts as the
        # diagonal +-1 operator on the template register
        spec = qsim.StringOracleSpec("1011", 0)
        state = qsim.init_state(4, 0)
        ref = state.amps.copy()
        qsim.string_oracle(state, spec)
        signs = np.ones(16)
        signs[0b1011] = -1.0
        np.testing.assert_allclose(state.amps.reshape(2, 16), ref.reshape(2, 16) * signs,
                                   atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_state_without_an_ancilla_rejected(self, num_qubits):
        with pytest.raises(ValidationError, match="no ancilla"):
            qsim.string_oracle(random_state(num_qubits, 9), qsim.StringOracleSpec("101", 0))

    def test_involution(self):
        spec = qsim.StringOracleSpec("01101", 1)
        state = qsim.init_state(5, 2)
        ref = state.amps.copy()
        qsim.string_oracle(state, spec)
        qsim.string_oracle(state, spec)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)


class TestDiffusion:
    def test_uniform_state_is_fixed_point(self):
        state = qsim.init_state(3, 0)
        ref = state.amps.copy()
        qsim.diffusion(state, 3)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_involution(self):
        state = random_state(4, 7)
        ref = state.amps.copy()
        qsim.diffusion(state, 3)
        qsim.diffusion(state, 3)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_matches_dense_reflection(self):
        state = random_state(4, 8)
        ref = state.amps.reshape(2, 8).copy()
        qsim.diffusion(state, 3)
        dense = 2.0 / 8.0 * np.ones((8, 8)) - np.eye(8)
        np.testing.assert_allclose(state.amps.reshape(2, 8), ref @ dense.T, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_bit_identical_to_two_branch_reshape(self, num_qubits):
        # every template width, and no control or any control above the template
        for n in range(1, num_qubits + 1):
            for control in [None, *range(n, num_qubits)]:
                state = random_state(num_qubits, 100 * num_qubits + 10 * n + (control or 0))
                want = state.amps.copy()
                reference_diffusion(want, n, control)
                qsim.diffusion(state, n, control)
                np.testing.assert_array_equal(state.amps.view(np.int64), want.view(np.int64))


class TestGroverIteration:
    def test_four_entry_search_is_exact(self):
        state = qsim.init_state(2, 0)
        qsim.grover_iteration(state, qsim.StringOracleSpec("11", 0))
        probs = qsim.marginal_probs(state, range(2))
        np.testing.assert_allclose(probs, [0, 0, 0, 1.0], atol=1e-12)

    def test_marked_probability_matches_analytic(self):
        state = qsim.search_state(6, run_of("000110", 1), 4)
        probs = qsim.marginal_probs(state, range(6))
        marked = probs[[6, 7]].sum()
        expected = amplify.p_match(amplify.theta_of(64, 2), 4)
        assert marked == pytest.approx(expected, abs=1e-9)

    def test_state_stays_in_matched_unmatched_plane(self):
        state = qsim.search_state(6, run_of("000110", 1), 3)
        block = state.amps  # template vector; the |-> ancilla is factored out
        matched = block[[6, 7]]
        unmatched = np.delete(block, [6, 7])
        assert np.std(matched) < 1e-10
        assert np.std(unmatched) < 1e-10


class TestControlledPowers:
    def test_single_counting_qubit_interference(self):
        # one controlled iteration: after the 1-qubit inverse transform
        # the counting qubit reads cos^2(theta) / sin^2(theta)
        state = qsim.counting_state(4, run_of("0110", 1), 1)
        probs = qsim.marginal_probs(state, range(4, 5))
        theta = amplify.theta_of(16, 2)
        np.testing.assert_allclose(
            probs, [math.cos(theta) ** 2, math.sin(theta) ** 2], atol=1e-9
        )

    def test_ladder_applies_geometric_sum_of_iterations(self, monkeypatch):
        calls = []
        original = qsim.grover_iteration

        def spy(state, spec, control=None):
            calls.append(control)
            return original(state, spec, control)

        monkeypatch.setattr(qsim, "grover_iteration", spy)
        state = qsim.init_state(3, 5)
        qsim.controlled_grover_powers(state, qsim.StringOracleSpec("011", 0))
        assert len(calls) == 31
        assert all(c is not None for c in calls)

    def test_distribution_depends_only_on_match_count(self):
        a = qsim.counting_state(4, run_of("0101", 1), 4)
        b = qsim.counting_state(4, run_of("1010", 1), 4)
        np.testing.assert_allclose(
            qsim.marginal_probs(a, range(4, 8)),
            qsim.marginal_probs(b, range(4, 8)), atol=1e-12)


class TestTemplateVectorPath:
    def test_counting_state_equals_gate_reference_on_c3_grid(self):
        worst = 0.0
        for n in range(4, 9):
            for q in range(0, 3):
                data_bits = format(3, f"0{n}b")
                for p in range(4, 8):
                    state = qsim.counting_state(n, run_of(data_bits, q), p)
                    assert state.num_qubits == n + p
                    want = reference_counting_amps(n, q, data_bits, p)
                    worst = max(worst, float(np.max(np.abs(state.amps - want))))
        assert worst < 1e-12

    @pytest.mark.parametrize("n,q,data_bits,k", [
        (3, 0, "101", 2), (5, 2, "00110", 1), (6, 1, "000110", 6), (7, 0, "1100101", 9)])
    def test_search_state_equals_gate_reference(self, n, q, data_bits, k):
        state = qsim.search_state(n, run_of(data_bits, q), k)
        assert state.num_qubits == n
        want = reference_search_amps(n, q, data_bits, k)
        np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-12)

    def test_counting_cap_counts_the_one_block(self):
        qsim.counting_state(4, run_of("0000", 0), 6, cap=10)  # 2**10 amplitudes fit
        with pytest.raises(CapExceededError):
            qsim.counting_state(4, run_of("0000", 0), 7, cap=10)

    def test_search_cap(self):
        qsim.search_state(10, run_of("0" * 10, 0), 1, cap=10)
        with pytest.raises(CapExceededError):
            qsim.search_state(11, run_of("0" * 11, 0), 1, cap=10)

    @pytest.mark.parametrize("n,p", [(10, 2), (6, 8)])
    def test_counting_state_holds_one_full_size_buffer(self, n, p):
        buffer = 16 << (n + p)
        tracemalloc.start()
        try:
            state = qsim.counting_state(n, run_of("1" * n, 2), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.amps.nbytes == buffer
        assert peak < 1.25 * buffer

    @pytest.mark.parametrize("data_bits,q", [
        ("0", 0), ("1", 1), ("101", 0), ("101", 3), ("0110", 1), ("11010", 2),
        ("100111", 4), ("100111", 6)])
    def test_matched_slice_is_the_oracle_phase_kickback(self, data_bits, q):
        n = len(data_bits)
        spec = qsim.StringOracleSpec(data_bits, q)
        state = qsim.init_state(n, 0)
        ref = state.amps.copy()
        qsim.string_oracle(state, spec)
        signs = (state.amps / ref).reshape(2, 1 << n).real
        np.testing.assert_allclose(signs[1], signs[0], atol=1e-12)
        flipped = np.flatnonzero(signs[0] < 0)
        expected = np.arange(1 << n)[spec.matching_states()]
        np.testing.assert_array_equal(flipped, expected)
        assert expected.size == 1 << q
        assert isinstance(spec.matching_states(), range)

    @pytest.mark.parametrize("matched", [
        range(-1, 1), range(15, 17), range(0, 17), range(16, 17), range(0, 4, 2)])
    @pytest.mark.parametrize("make,arg", [
        (qsim.counting_state, 2), (qsim.search_state, 1)])
    def test_matched_run_outside_the_register_rejected(self, make, arg, matched):
        with pytest.raises(ValidationError, match="matched run"):
            make(4, matched, arg)

    @pytest.mark.parametrize("p", [0, -2])
    def test_counting_register_must_be_nonempty(self, p):
        with pytest.raises(ValidationError, match="p >= 1"):
            qsim.counting_state(4, run_of("0000", 0), p)


class TestMarginalProbs:
    """The blocked reduction gives the whole-array sum's bits (int64 view)."""

    @pytest.mark.parametrize("num_qubits", range(17, 22))
    def test_one_qubit_marginals_bit_identical(self, num_qubits):
        # here a block is two outcomes; numpy sums a one-outcome block as a
        # single pairwise run, with other last bits
        state = random_state(num_qubits, num_qubits)
        for q in range(num_qubits):
            got = qsim.marginal_probs(state, range(q, q + 1))
            want = reference_marginal(state, range(q, q + 1))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n,q,p", [(12, 2, 4), (10, 1, 6)])
    def test_gate_level_counting_layout_bit_identical(self, n, q, p):
        # 17 qubits: both registers' marginals take two blocks
        state = qsim.init_state(n, p)
        qsim.controlled_grover_powers(state, qsim.StringOracleSpec(format(5, f"0{n}b"), q))
        qsim.inverse_qft(state, range(n, n + p))
        for qubits in (range(n, n + p), range(n)):
            got = qsim.marginal_probs(state, qubits)
            want = reference_marginal(state, qubits)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestQft:
    def test_zero_state_maps_to_uniform(self):
        amps = np.zeros(8, complex)
        amps[0] = 1.0
        state = qsim.StateVector(3, amps)
        qsim.inverse_qft(state, range(3))
        np.testing.assert_allclose(state.amps, 1 / math.sqrt(8), atol=1e-12)

    def test_matches_dense_matrices(self):
        state = random_state(3, 10)
        ref = state.amps.copy()
        qsim.inverse_qft(state, range(3))
        np.testing.assert_allclose(state.amps, np.conj(dense_fourier(3)) @ ref, atol=1e-12)

    def test_embedded_register(self):
        state = random_state(6, 11)
        ref = state.amps.reshape(8, 8).copy()  # axis 0: qubits 3..5
        qsim.inverse_qft(state, range(3, 6))
        np.testing.assert_allclose(
            state.amps.reshape(8, 8), np.conj(dense_fourier(3)) @ ref, atol=1e-12)

    @pytest.mark.parametrize("qubits", [[0, 2, 3, 5], [1, 4, 2], [3]])
    def test_qubit_reversal_matches_dense_permutation(self, monkeypatch, qubits):
        # with the rotations and Hadamards removed only the reversal is left
        monkeypatch.setattr(qsim, "_apply_cphase", lambda *args: None)
        monkeypatch.setattr(qsim, "_apply_h", lambda *args: None)
        state = random_state(6, 12)
        ref = state.amps.copy()
        qsim.inverse_qft(state, qubits)
        perm = np.zeros((64, 64))
        for i in range(64):
            j = i & ~sum(1 << q for q in qubits)
            for a, b in zip(qubits, reversed(qubits)):
                j |= ((i >> a) & 1) << b
            perm[j, i] = 1.0
        np.testing.assert_array_equal(state.amps, perm @ ref)


class TestMeasure:
    def test_deterministic_state(self):
        amps = np.zeros(8, complex)
        amps[5] = 1.0
        state = qsim.StateVector(3, amps)
        probs = qsim.marginal_probs(state, range(0, 3))
        counts = qsim.measure(probs, 100, np.random.default_rng(0))
        assert counts.tolist() == [0, 0, 0, 0, 0, 100, 0, 0]

    def test_uniform_marginal_within_three_sigma(self):
        state = qsim.init_state(2, 0)
        probs = qsim.marginal_probs(state, range(0, 2))
        counts = qsim.measure(probs, 100_000, np.random.default_rng(1))
        assert counts.shape == (4,)
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        for c in counts:
            assert abs(c / 100_000 - 0.25) < 3 * sigma

    def test_counting_marginal_equals_analytic_distribution(self):
        state = qsim.counting_state(6, run_of("000110", 1), 5)
        probs = qsim.marginal_probs(state, range(6, 11))
        expected = amplify.counting_distribution(64, 2, 5).probs
        np.testing.assert_allclose(probs, expected, atol=1e-9)

    def test_shot_frequencies_converge_to_marginals(self):
        state = qsim.counting_state(5, run_of("00110", 1), 5)
        probs = qsim.marginal_probs(state, range(5, 10))
        shots = 200_000
        counts = qsim.measure(probs, shots, np.random.default_rng(2))
        assert counts.sum() == shots
        for b, prob in enumerate(probs):
            if prob < 1e-12:
                continue
            sigma = math.sqrt(prob * (1 - prob) / shots)
            freq = counts[b] / shots
            assert abs(freq - prob) < 5 * sigma + 1e-9

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_counts_equal_per_outcome_loop(self, seed):
        state = qsim.counting_state(6, run_of("000110", 1), 5)
        probs = qsim.marginal_probs(state, range(6, 11))
        counts = qsim.measure(probs, 3000, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).multinomial(3000, probs / probs.sum())
        assert counts.shape == probs.shape and counts.sum() == 3000
        np.testing.assert_array_equal(counts, draws)

    def test_shots_validated(self):
        with pytest.raises(ValidationError):
            qsim.measure(np.full(4, 0.25), 0, np.random.default_rng(0))


class TestEndToEnd:
    def test_counting_modes_at_conjugate_pair(self):
        state = qsim.counting_state(6, run_of("000110", 1), 5)
        probs = qsim.marginal_probs(state, range(6, 11))
        assert int(np.argmax(probs)) in (2, 30)
        assert probs[2] == pytest.approx(probs[30], abs=1e-12)

    def test_single_match_five_bits(self):
        state = qsim.counting_state(5, run_of("00110", 0), 5)
        probs = qsim.marginal_probs(state, range(5, 10))
        assert int(np.argmax(probs)) in (2, 30)

    def test_ignore_all_concentrates_at_half_register(self):
        state = qsim.counting_state(3, run_of("000", 3), 4)
        probs = qsim.marginal_probs(state, range(3, 7))
        assert probs[8] == pytest.approx(1.0, abs=1e-9)

    def test_search_recovers_matching_pair(self):
        state = qsim.search_state(6, run_of("000110", 1), 4)
        probs = qsim.marginal_probs(state, range(6))
        counts = qsim.measure(probs, 2048, np.random.default_rng(3))
        hits = counts[0b000110] + counts[0b000111]
        assert hits / 2048 > 0.99 - 3 * math.sqrt(0.99 * 0.01 / 2048)

    def test_search_success_probability_low_iteration_case(self):
        state = qsim.search_state(5, run_of("00110", 2), 1)
        probs = qsim.marginal_probs(state, range(5))
        success = probs[qsim.StringOracleSpec("00110", 2).matching_states()].sum()
        assert success == pytest.approx(amplify.p_match(amplify.theta_of(32, 4), 1),
                                        abs=1e-12)
        assert success == pytest.approx(0.7885, abs=0.03)

    def test_zero_iterations_is_uniform(self):
        state = qsim.search_state(4, run_of("0011", 1), 0)
        probs = qsim.marginal_probs(state, range(4))
        np.testing.assert_allclose(probs, 1 / 16, atol=1e-12)

    def test_norm_preserved_through_deep_circuit(self):
        state = qsim.counting_state(6, run_of("000110", 1), 7)
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-10

    def test_register_cap(self):
        with pytest.raises(CapExceededError):
            qsim.counting_state(20, run_of("0" * 20, 0), 10, cap=26)
