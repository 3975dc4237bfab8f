"""Unit tests for the closed-form amplification/counting model."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from qmf import amplify
from qmf.errors import CapExceededError, ValidationError

PI = math.pi

# Reference rows: (ignored_bits q, data_bits n, counting_qubits p,
#                  outcome b, k_estimate, r_estimate, k_true, p_success)
REFERENCE_TABLE = [
    (0, 5, 5, 30, 4, 1, 4, 0.9995),
    (0, 6, 5, 1, 6, 1, 6, 0.9961),
    (0, 7, 5, 1, 8, 1, 8, 0.9956),
    (0, 8, 6, 1, 12, 1, 12, 1.0),
    (0, 9, 7, 2, 17, 1, 17, 0.9990),
    (1, 5, 5, 3, 2, 3, 3, 0.9092),
    (1, 6, 5, 30, 4, 2, 4, 0.9985),
    (1, 7, 6, 61, 5, 3, 6, 0.9619),
    (1, 8, 6, 2, 8, 2, 8, 0.9961),
    (1, 9, 7, 125, 10, 3, 12, 0.9365),
    (1, 10, 7, 126, 17, 2, 17, 0.9995),
    (2, 5, 5, 4, 1, 5, 2, 0.7885),
    (2, 6, 5, 29, 2, 5, 3, 0.9072),
    (2, 7, 6, 60, 3, 5, 4, 0.8926),
    (2, 8, 6, 61, 5, 6, 6, 0.9688),
    (2, 9, 7, 124, 7, 5, 8, 0.9429),
    (2, 10, 7, 125, 10, 6, 12, 0.9395),
]


def draw(n, r, p, u):
    """``sample_b`` at cumulative probability u, from a generator stub that returns u."""
    return amplify.sample_b(n, r, p, SimpleNamespace(random=lambda: u))


class TestThetaOf:
    def test_quarter_match_is_pi_six(self):
        assert amplify.theta_of(4, 1) == pytest.approx(PI / 6, abs=1e-15)

    def test_two_in_sixty_four(self):
        assert amplify.theta_of(64, 2) == pytest.approx(0.17771, abs=5e-6)

    def test_nine_in_2_17(self):
        assert amplify.theta_of(131072, 9) == pytest.approx(8.2863e-3, abs=5e-7)

    def test_extremes(self):
        assert amplify.theta_of(8, 0) == 0.0
        assert amplify.theta_of(8, 8) == pytest.approx(PI / 2)

    def test_r_above_n_rejected(self):
        with pytest.raises(ValidationError):
            amplify.theta_of(4, 5)


class TestOptimalK:
    @pytest.mark.parametrize("n,r,k", [(64, 1, 6), (64, 2, 4), (32, 4, 2)])
    def test_reference_values(self, n, r, k):
        assert amplify.optimal_k(n, r) == k

    def test_no_matches_rejected(self):
        with pytest.raises(ValidationError):
            amplify.optimal_k(64, 0)

    def test_floor_at_zero(self):
        assert amplify.optimal_k(4, 4) == 0


class TestChooseP:
    @pytest.mark.parametrize("n,p", [(131072, 11), (64, 5), (1024, 7), (32, 5)])
    def test_reference_values(self, n, p):
        assert amplify.choose_p(n) == p

    def test_minimality(self):
        rng = np.random.default_rng(2)
        for n in np.exp(rng.uniform(np.log(2), np.log(2**24), size=200)):
            p = amplify.choose_p(n)
            assert 2.0**p > PI * math.sqrt(n)
            assert 2.0 ** (p - 1) <= PI * math.sqrt(n) or p == 1

    @pytest.mark.parametrize("n", [10**400, math.inf])
    def test_beyond_the_float_range(self, n):
        with pytest.raises(ValidationError, match="float range"):
            amplify.choose_p(n)


class TestCountingDistribution:
    def test_no_match_is_point_mass_at_zero(self):
        dist = amplify.counting_distribution(64, 0, 5)
        assert dist.probs[0] == 1.0
        assert np.all(dist.probs[1:] == 0.0)

    def test_two_peaks_at_conjugate_outcomes(self):
        probs = amplify.counting_distribution(64, 2, 5).probs
        top2 = set(np.argsort(probs)[-2:].tolist())
        assert top2 == {2, 30}

    def test_zero_outcome_matches_direct_formula(self):
        # direct evaluation: sin^2(2^p theta) / (2^(2p) sin^2 theta)
        theta = math.asin(math.sqrt(9 / 131072))
        expected = math.sin(2048 * theta) ** 2 / (2048**2 * math.sin(theta) ** 2)
        probs = amplify.counting_distribution(131072, 9, 11).probs
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.1e-3, abs=1e-4)

    @pytest.mark.parametrize("n,r,p", [(64, 2, 5), (128, 1, 6), (1024, 7, 7),
                                       (131072, 9, 11), (37, 5, 6)])
    def test_normalized_and_symmetric(self, n, r, p):
        probs = amplify.counting_distribution(n, r, p).probs
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0.0)
        mirrored = np.roll(probs[::-1], 1)
        np.testing.assert_allclose(probs, mirrored, atol=1e-15)

    def test_aligned_theta_concentrates(self):
        # r = n gives theta = pi/2, aligned with outcome 2^(p-1)
        probs = amplify.counting_distribution(8, 8, 4).probs
        assert probs[8] == pytest.approx(1.0, abs=1e-12)

    def test_memory_budget(self):
        with pytest.raises(CapExceededError):
            amplify.counting_distribution(4, 1, 40)

    @staticmethod
    def roll_reference(n, r, p):
        """The distribution by the formula with np.roll for the mirror branch."""
        theta = math.asin(math.sqrt(r / n))
        d = 1 << p
        delta = theta - np.pi * np.arange(d) / d
        aligned = np.abs(delta) < 1e-12
        plus = math.sin(d * theta) ** 2 / (d * d * np.sin(np.where(aligned, 1.0, delta)) ** 2)
        plus[aligned] = 1.0
        return 0.5 * (plus + np.roll(plus[::-1], 1))

    @pytest.mark.parametrize("n,r,p", [(4, 1, 1), (2, 1, 1), (4, 2, 2), (8, 8, 4),
                                       (64, 0, 5), (131072, 9, 11)])
    def test_equals_roll_reference_bit_for_bit(self, n, r, p):
        probs = amplify.counting_distribution(n, r, p).probs
        assert np.array_equal(probs, self.roll_reference(n, r, p))

    @pytest.mark.parametrize("n,r,p", [(64, 2, 5), (131072, 9, 11), (37, 5, 6)])
    def test_mirror_is_exact(self, n, r, p):
        probs = amplify.counting_distribution(n, r, p).probs
        assert np.array_equal(probs[1:], probs[:0:-1])


class TestSampleB:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        assert all(amplify.sample_b(64, 0, 5, rng) == 0 for _ in range(200))

    def test_seed_reproducibility(self):
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        s1 = [amplify.sample_b(64, 2, 5, rng1) for _ in range(50)]
        s2 = [amplify.sample_b(64, 2, 5, rng2) for _ in range(50)]
        assert s1 == s2

    def test_near_peak_mass_bound(self):
        # at least 8/pi^2 of the draws land within one unit of a peak
        rng = np.random.default_rng(3)
        draws = np.array([amplify.sample_b(64, 2, 5, rng) for _ in range(100_000)])
        near = np.isin(draws, [1, 2, 3, 29, 30, 31]).mean()
        p0 = 8.0 / PI**2
        assert near >= p0 - 3 * math.sqrt(p0 * (1 - p0) / 100_000)


class TestStreamedDraw:
    """The chunked P(b), cdf and draw against the dense arrays, at p = 18 (4 chunks)."""

    N, R, P = 2**30, 7, 18

    @pytest.fixture(scope="class")
    def dense(self):
        probs = TestCountingDistribution.roll_reference(self.N, self.R, self.P)
        return probs, np.cumsum(probs)

    def test_probs_and_cdf_equal_dense_bit_for_bit(self, dense):
        probs, cdf = dense
        blocks = list(amplify.outcome_blocks(self.N, self.R, self.P))
        assert len(blocks) == 4
        assert [start for start, _ in blocks] == [0, 1 << 16, 2 << 16, 3 << 16]
        assert np.array_equal(np.concatenate([b for _, b in blocks]), probs)
        streamed = amplify._StreamedCdf(self.N, self.R, self.P)
        assert streamed._chunk_of(1.0) == 4  # the scan passes every chunk
        # the first two chunks were evicted, so they are computed again
        chunks = [streamed._cdf(k).copy() for k in range(4)]
        assert np.array_equal(np.concatenate(chunks), cdf)
        assert np.array_equal(amplify.counting_distribution(self.N, self.R, self.P).probs,
                              probs)

    def test_draws_equal_dense_searchsorted(self, dense):
        _, cdf = dense
        edge = 1 << 16
        peak = int(np.argmax(dense[0][edge:])) + edge
        u = np.array([
            0.0, cdf[0], cdf[5], cdf[edge - 1], np.nextafter(cdf[edge - 1], 0.0),
            np.nextafter(cdf[edge - 1], 1.0), cdf[edge], cdf[peak], cdf[2 * edge - 1],
            cdf[3 * edge + 17], cdf[-2], cdf[-1], np.nextafter(cdf[-1], 0.0),
            np.nextafter(cdf[-1], 1.0), 1.0,
            *np.random.default_rng(4).random(20),
        ])
        want = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        assert want[13] == cdf.size - 1  # u above the cdf's total is clamped
        assert [draw(self.N, self.R, self.P, x) for x in u] == want.tolist()

    @pytest.mark.parametrize("n,r,p", [(2**30, 7, 18), (131072, 9, 11), (64, 2, 5),
                                       (4, 2, 2), (64, 0, 5), (8, 8, 4)])
    def test_first_cdf_value_is_the_detection_threshold(self, n, r, p):
        # u reaches P(0) exactly when the draw reads b != 0
        probs = amplify.outcome_probs(n, r, p, 0, 1)
        p0 = float(probs[0])
        assert p0 == amplify.counting_distribution(n, r, p).probs[0]
        if p0 < 1.0:
            assert draw(n, r, p, p0) >= 1
        if p0 > 0.0:
            assert draw(n, r, p, float(np.nextafter(p0, 0.0))) == 0

    def test_sample_b_equals_dense_draw(self, dense):
        _, cdf = dense
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            want = min(int(np.searchsorted(cdf, ref.random(), side="right")), cdf.size - 1)
            assert amplify.sample_b(self.N, self.R, self.P, rng) == want

    def test_repeated_draws_compute_one_chunk_each(self, dense, monkeypatch):
        _, cdf = dense
        amplify._streamed_cdf.cache_clear()
        calls = []
        mixture = amplify._mixture
        monkeypatch.setattr(amplify, "_mixture", lambda *a: calls.append(a) or mixture(*a))
        u = [cdf[-2], cdf[3], cdf[-3], cdf[(2 << 16) + 9], cdf[-4], cdf[7]]
        got = [draw(self.N, self.R, self.P, x) for x in u]
        assert got == np.searchsorted(cdf, u, side="right").tolist()
        # the scan to the last chunk, then the first, the third, and the
        # first again after the third evicted it; the draws in the last
        # chunk, which stays kept, compute nothing
        assert [a[2] >> 16 for a in calls] == [0, 1, 2, 3, 0, 2, 0]
        amplify._streamed_cdf.cache_clear()

    @pytest.mark.parametrize("p,error", [(0, ValidationError), (28, CapExceededError)])
    def test_register_outside_the_budget(self, p, error):
        with pytest.raises(error):
            draw(4, 1, p, 0.5)
        with pytest.raises(error):
            amplify.outcome_blocks(4, 1, p)
        with pytest.raises(error):
            amplify.outcome_probs(4, 1, p, 0, 1)

    def test_outcome_probs_is_any_range_of_the_blocks(self, dense):
        probs, _ = dense
        for start, stop in [(0, 1), (5, 4101), ((1 << 16) - 3, (1 << 16) + 3),
                            (1 << 17, 1 << 17), ((1 << 18) - 1, 1 << 18)]:
            got = amplify.outcome_probs(self.N, self.R, self.P, start, stop)
            assert np.array_equal(got, probs[start:stop])

    @pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 33)])
    def test_outcome_range_outside_the_register(self, start, stop):
        with pytest.raises(ValidationError):
            amplify.outcome_probs(64, 2, 5, start, stop)


class TestEstimateFromB:
    @pytest.mark.parametrize("q,n,p,b,k_est,r_est,k_true,p_succ", REFERENCE_TABLE)
    def test_reference_table(self, q, n, p, b, k_est, r_est, k_true, p_succ):
        est = amplify.estimate_from_b(b, p, 2**n)
        assert (est.r_star, est.k_star) == (r_est, k_est)

    def test_mirrored_outcome(self):
        est = amplify.estimate_from_b(30, 5, 64)
        assert (est.r_star, est.k_star) == (2, 4)

    def test_small_outcome_clamps_to_one_match(self):
        est = amplify.estimate_from_b(1, 5, 64)
        assert (est.r_star, est.k_star) == (1, 6)

    def test_half_register_outcome(self):
        est = amplify.estimate_from_b(4, 5, 32)
        assert (est.r_star, est.k_star) == (5, 1)

    def test_zero_outcome_is_no_match(self):
        est = amplify.estimate_from_b(0, 5, 64)
        assert (est.r_star, est.k_star) == (0, None)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            amplify.estimate_from_b(32, 5, 64)

    def test_returns_python_ints(self):
        est = amplify.estimate_from_b(5, 11, 131072)
        assert type(est.r_star) is int and type(est.k_star) is int

    def test_estimate_error_at_most_two_near_ideal(self):
        # decoding the two integers bracketing the ideal outcome
        # recovers the match count to within 2
        for q, n, p, *_ in REFERENCE_TABLE:
            big_n, r = 2**n, 2**q
            ideal = (1 << p) * amplify.theta_of(big_n, r) / PI
            for b in (math.floor(ideal), math.ceil(ideal)):
                if 1 <= b < (1 << p):
                    est = amplify.estimate_from_b(b, p, big_n)
                    assert abs(est.r_star - r) <= 2


def scalar_decode(b, p, n):
    """(r*, k*) of outcome b by per-outcome math, the b = 0 row clamped like the rest."""
    d = 1 << p
    theta_star = math.pi * b / d if b <= d // 2 else math.pi - math.pi * b / d
    r_star = max(1, math.floor(n * math.sin(theta_star) ** 2 + 0.5))
    k_ideal = math.pi / 4.0 * math.sqrt(n / r_star) - 0.5
    return r_star, max(0, math.floor(k_ideal + 0.5))


class TestDecodeOutcomes:
    @pytest.mark.parametrize("n,p", [(2**17, 11), (4096, 7), (64, 5)])
    def test_every_outcome_equals_scalar_math(self, n, p):
        b = np.arange(1 << p)
        r_star, k_star = amplify.decode_outcomes(b, p, n)
        expected = [scalar_decode(v, p, n) for v in b.tolist()]
        assert list(zip(r_star.tolist(), k_star.tolist())) == expected

    @pytest.mark.parametrize("n,p", [(2**38, 21), (2**44, 24)])
    def test_random_outcomes_equal_scalar_math(self, n, p):
        b = np.random.default_rng(p).integers(1, 1 << p, 20_000)
        r_star, k_star = amplify.decode_outcomes(b, p, n)
        expected = [scalar_decode(v, p, n) for v in b.tolist()]
        assert list(zip(r_star.tolist(), k_star.tolist())) == expected

    def test_estimate_is_the_one_element_decode(self):
        for b in (1, 5, 30, 1024, 2047):
            r_star, k_star = amplify.decode_outcomes(b, 11, 131072)
            est = amplify.estimate_from_b(b, 11, 131072)
            assert (est.r_star, est.k_star) == (r_star, k_star)


class TestFalseNegative:
    def test_reference_instance(self):
        assert amplify.false_negative_prob(131072, 9, 11) == pytest.approx(
            3.1e-3, abs=1e-4
        )

    def test_bounded_by_inverse_pi_squared(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(np.exp(rng.uniform(np.log(2**6), np.log(2**24))))
            r = int(rng.integers(1, max(2, int(math.sqrt(n)))))
            p = amplify.choose_p(n)
            assert amplify.false_negative_prob(n, r, p) < 1 / PI**2

    def test_exactly_zero_when_register_aligns(self):
        # n=4, r=2 gives theta = pi/4; 2^2 * theta = pi exactly
        assert amplify.false_negative_prob(4, 2, 2) < 1e-30

    def test_requires_a_match(self):
        with pytest.raises(ValidationError):
            amplify.false_negative_prob(64, 0, 5)

    @pytest.mark.parametrize("p", [0, -1])
    def test_requires_a_counting_qubit(self, p):
        with pytest.raises(ValidationError, match="p >= 1"):
            amplify.false_negative_prob(64, 2, p)

    @pytest.mark.parametrize("n,r,p", [(131072, 9, 11), (131072, 131071, 11), (64, 2, 5),
                                       (4, 2, 2), (1000, 999, 8), (2**30, 1, 16)])
    def test_is_the_distribution_at_zero(self, n, r, p):
        assert (amplify.false_negative_prob(n, r, p)
                == amplify.counting_distribution(n, r, p).probs[0])


class TestRepetitions:
    @pytest.mark.parametrize("target,ell", [(1e-6, 6), (1e-9, 9), (0.5, 1), (0.09, 1)])
    def test_reference_values(self, target, ell):
        assert amplify.repetitions_for(target) == ell

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValidationError):
                amplify.repetitions_for(bad)


class TestPMatch:
    def test_exact_rotation(self):
        assert amplify.p_match(PI / 6, 1) == pytest.approx(1.0, abs=1e-15)

    def test_no_amplification_is_initial_weight(self):
        theta = amplify.theta_of(64, 2)
        assert amplify.p_match(theta, 0) == pytest.approx(2 / 64, abs=1e-15)

    def test_reference_instance(self):
        theta = amplify.theta_of(131072, 9)
        assert amplify.p_match(theta, 94) == pytest.approx(0.99997, abs=1e-5)

    def test_four_iterations_on_two_matches(self):
        # sin^2(9 theta) evaluated directly
        theta = amplify.theta_of(64, 2)
        assert amplify.p_match(theta, 4) == pytest.approx(0.9991823155432941, abs=1e-12)


class TestPFailTotal:
    def test_matches_scalar_recomputation(self):
        # independent path: per-outcome python loop over the estimates
        n, r, p = 4096, 3, amplify.choose_p(4096)
        dist = amplify.counting_distribution(n, r, p)
        total = dist.probs[0]
        for b in range(1, 1 << p):
            k = amplify.estimate_from_b(b, p, n).k_star
            total += dist.probs[b] * math.cos((2 * k + 1) * dist.theta) ** 2
        assert amplify.p_fail_total(n, r, p) == pytest.approx(float(total), rel=1e-12)

    @pytest.mark.parametrize("n,r,p", [(2**30, 7, 17), (2**20, 3, 18)])
    def test_streamed_blocks_equal_the_dense_sum(self, n, r, p, monkeypatch):
        dist = amplify.counting_distribution(n, r, p)
        _, k_star = amplify.decode_outcomes(np.arange(1 << p), p, n)
        fail = np.cos((2.0 * k_star + 1.0) * dist.theta) ** 2
        fail[0] = 1.0
        dense = float(np.dot(dist.probs, fail))

        def refuse(*args):
            raise AssertionError("the dense distribution was built")

        monkeypatch.setattr(amplify, "counting_distribution", refuse)
        assert amplify.p_fail_total(n, r, p) == pytest.approx(dense, rel=1e-13, abs=1e-16)

    def test_zero_for_degenerate_full_match(self):
        # theta = pi/2: the register reads 2^(p-1) with certainty and
        # the decoded k of 0 retrieves with certainty
        assert amplify.p_fail_total(8, 8, 4) < 1e-12

    def test_includes_the_no_match_outcome(self):
        n, r, p = 131072, 9, 11
        assert amplify.p_fail_total(n, r, p) >= amplify.false_negative_prob(n, r, p)

    @pytest.mark.parametrize("n,r", [(4096, 1), (4096, 7), (131072, 9), (2**20, 3)])
    def test_success_bound(self, n, r):
        p = amplify.choose_p(n)
        assert 1.0 - amplify.p_fail_total(n, r, p) >= 0.547

    def test_same_bits_for_any_blas_thread_count(self):
        # 2**17 outcomes: OpenBLAS splits a dot product of more than 10,000
        # elements over its threads, and the split changes the last bits
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = "from qmf import amplify; print(repr(amplify.p_fail_total(2**30, 100, 17)))"
        reprs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": src,
                                                 "OPENBLAS_NUM_THREADS": threads}).stdout
                 for threads in ("1", "2")]
        assert reprs[0] == reprs[1]


class TestFailBound:
    def test_half_offset_reference(self):
        # eps = 0.5 with one match: 1 - (2/pi)^2 (cos^2 pi/8 + cos^2 pi/4)
        eps_p = math.log2(1.5)
        expected = 1 - (2 / PI) ** 2 * (math.cos(PI / 8) ** 2 + math.cos(PI / 4) ** 2)
        assert amplify.fail_bound(1, eps_p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.451, abs=5e-4)

    def test_vanishes_as_alignment_becomes_exact(self):
        assert amplify.fail_bound(1, 1.0 - 1e-12) < 1e-9

    def test_hundred_matches_stays_below_cap(self):
        assert amplify.fail_bound(100, 0.5) < 0.453

    def test_domain(self):
        with pytest.raises(ValidationError):
            amplify.fail_bound(0, 0.5)
        with pytest.raises(ValidationError):
            amplify.fail_bound(1, 0.0)
        with pytest.raises(ValidationError):
            amplify.fail_bound(1, np.array([0.5, 1.0]))
        with pytest.raises(ValidationError):
            amplify.fail_bound(1, np.array([0.5, np.nan]))

    def test_scalar_in_float_out(self):
        assert type(amplify.fail_bound(3, 0.25)) is float
        assert amplify.fail_bound(3, np.array([0.25])).shape == (1,)

    @staticmethod
    def loop_bound(r, eps_p):
        b_ideal = 2.0**eps_p * math.sqrt(r)
        b_hi = math.ceil(b_ideal)
        eps = b_hi - b_ideal
        if eps == 0.0:
            return 0.0
        sinc = lambda x: 1.0 if x == 0.0 else math.sin(PI * x) / (PI * x)  # noqa: E731
        return (1.0 - sinc(eps) ** 2 * math.cos(eps / b_hi * PI / 2.0) ** 2
                - sinc(1.0 - eps) ** 2 * math.cos((1.0 - eps) / (b_hi - 1) * PI / 2.0) ** 2)

    @pytest.mark.parametrize("r", [1, 5, 50, 10_000])
    def test_array_equals_elementwise_loop(self, r):
        grid = np.linspace(1e-9, 1.0 - 1e-9, 20001)
        expected = [self.loop_bound(r, e) for e in grid.tolist()]
        np.testing.assert_allclose(amplify.fail_bound(r, grid), expected, rtol=0, atol=1e-15)

    def test_exact_integer_outcome_is_zero(self):
        # 2**1e-17 rounds to 1, so the ideal outcome is exactly b = 1
        bounds = amplify.fail_bound(1, np.array([1e-17, 0.5]))
        assert bounds.tolist() == [0.0, amplify.fail_bound(1, 0.5)]


class TestMaxFailBound:
    def test_single_match_worst_case(self):
        assert amplify.max_fail_bound_argmax(1)[1] == pytest.approx(0.453, abs=0.002)

    def test_argmax_is_reported_and_consistent(self):
        eps, bound = amplify.max_fail_bound_argmax(5)
        assert 0.0 < eps < 1.0
        assert amplify.fail_bound(5, eps) == pytest.approx(bound, rel=1e-9)

    # (argmax, max) of the sweep before it was vectorised, at 20001 points
    RECORDED = {
        1: (0.5674896405143194, 0.4528881086324974),
        2: (0.06748963886907174, 0.4528881086324975),
        3: (0.5283522417559164, 0.2759413632518514),
        4: (0.3208334963504625, 0.2759413632518511),
        5: (0.15986944602576136, 0.2759413632518514),
        6: (0.028352240860160003, 0.2759413632518515),
        7: (0.40351474840875884, 0.2320050269336551),
        8: (0.3071922128898331, 0.2320050269336551),
        9: (0.22222971067578806, 0.23200502693365505),
        10: (0.1462281631011248, 0.23200502693365488),
    }

    @pytest.mark.parametrize("r", sorted(RECORDED))
    def test_equals_recorded_sweep(self, r):
        assert amplify.max_fail_bound_argmax(r) == self.RECORDED[r]

    @pytest.mark.parametrize("r", [2, 3, 7, 12])
    def test_never_exceeds_single_match_case(self, r):
        assert amplify.max_fail_bound_argmax(r, grid_points=4001)[1] <= 0.453 + 1e-6


class TestRounding:
    @pytest.mark.parametrize("x,expected", [(0.5, 1), (1.5, 2), (2.5, 3), (-0.5, -1),
                                            (0.49, 0), (3.0, 3), (-1.5, -2)])
    def test_half_away_from_zero(self, x, expected):
        assert amplify.round_half_away(x) == expected

    def test_elementwise(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, 0.49, 3.0, -1.5])
        np.testing.assert_array_equal(amplify.round_half_away(x), [1, 2, 3, -1, 0, 3, -2])
