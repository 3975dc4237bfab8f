"""Unit tests for detection/retrieval orchestration and cost accounting."""

import itertools
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from qmf import amplify, bank, dsp, fanout, io, pipeline, seeding
from qmf.bank import BankSpec, bank_size, index_to_params, waveform
from qmf.errors import CapExceededError, ValidationError
from qmf.pipeline import OracleCounter, RetrievalStrategy


def synthetic(n, r, p, strategy=RetrievalStrategy.REUSE_K, **kwargs):
    """A scenario whose r matches are templates 0..r-1."""
    return pipeline.Scenario(n=n, p=p, strategy=strategy, match_set=list(range(r)), **kwargs)


@pytest.fixture(scope="module")
def toy_bank():
    spec = BankSpec(f0_min=40.0, f0_max=120.0, n_f0=8,
                    f1_min=5.0, f1_max=45.0, n_f1=8,
                    fs=512.0, m_samples=1024, dur=1.0)
    psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
    inject = 27
    strain = waveform(index_to_params(spec, inject), spec.fs, spec.m_samples)
    data = dsp.forward_fft(strain)
    return spec, psd, data, inject


class TestCounter:
    def test_monotone(self):
        c = OracleCounter()
        c.add(3)
        c.add(0)
        assert c.evaluations == 3
        with pytest.raises(ValidationError):
            c.add(-1)


class TestOracleEval:
    def test_injected_template_matches(self, toy_bank):
        spec, psd, data, inject = toy_bank
        c = OracleCounter()
        assert pipeline.oracle_eval(spec, data, psd, inject, rho_thr=5.0, counter=c) == 1
        assert c.evaluations == 1

    def test_distant_template_fails_high_threshold(self, toy_bank):
        spec, psd, data, _ = toy_bank
        c = OracleCounter()
        assert pipeline.oracle_eval(spec, data, psd, 0, rho_thr=15.0, counter=c) == 0

    def test_charges_one_per_call(self, toy_bank):
        spec, psd, data, _ = toy_bank
        c = OracleCounter()
        for i in range(5):
            pipeline.oracle_eval(spec, data, psd, i, rho_thr=5.0, counter=c)
        assert c.evaluations == 5


class TestClassicalSearch:
    def test_empty_result_still_charges_full_bank(self, toy_bank):
        spec, psd, data, _ = toy_bank
        c = OracleCounter()
        matches = pipeline.classical_search(spec, data, psd, rho_thr=1e6, counter=c).tolist()
        assert matches == []
        assert c.evaluations == bank_size(spec)

    def test_finds_injection(self, toy_bank):
        spec, psd, data, inject = toy_bank
        c = OracleCounter()
        matches = pipeline.classical_search(spec, data, psd, rho_thr=15.0, counter=c)
        assert inject in matches

    def test_agrees_with_direct_recomputation(self, toy_bank):
        spec, psd, data, _ = toy_bank
        thr = 10.0
        c = OracleCounter()
        matches = pipeline.classical_search(spec, data, psd, rho_thr=thr, counter=c).tolist()
        expected = []
        for i in range(bank_size(spec)):
            qc = dsp.complex_template(bank.quadrature_spectra(index_to_params(spec, i),
                                                              spec.fs, spec.m_samples), psd)
            integrand = dsp.filter_integrand(data, qc, psd)
            rho = float(np.max(dsp.snr_series(integrand, 1.0 / spec.fs).rho))
            if rho >= thr:
                expected.append(i)
        assert matches == expected


def loop_peak_snrs(spec, data, psd):
    """Reference: one complex_template + snr_series per template."""
    return np.array([
        dsp.max_snr(dsp.snr_series(dsp.filter_integrand(data, dsp.complex_template(
            bank.quadrature_spectra(index_to_params(spec, i), spec.fs, spec.m_samples), psd),
            psd), 1.0 / spec.fs))[0]
        for i in range(bank_size(spec))
    ])


def injected_data(spec, inject, noise_seed):
    strain = waveform(index_to_params(spec, inject), spec.fs, spec.m_samples).samples
    strain = strain + np.random.default_rng(noise_seed).normal(size=spec.m_samples)
    return dsp.forward_fft(dsp.TimeSeries(strain, dt=1.0 / spec.fs))


@pytest.fixture(scope="module")
def c8_bank():
    """The acceptance suite's c8 bank and injection, with the loop's peak SNRs."""
    spec = BankSpec(f0_min=30.0, f0_max=180.0, n_f0=64, f1_min=5.0, f1_max=50.0,
                    n_f1=64, fs=512.0, m_samples=1024, dur=1.0)
    psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
    data = injected_data(spec, 40 * 64 + 20, 99)
    return spec, psd, data, loop_peak_snrs(spec, data, psd)


def no_search(*args):
    raise AssertionError("the bank search ran")


def small_spec(n_f0=8, n_f1=8, f0_max=120.0, m_samples=1024, dur=1.0):
    return BankSpec(f0_min=40.0, f0_max=f0_max, n_f0=n_f0, f1_min=5.0, f1_max=45.0,
                    n_f1=n_f1, fs=512.0, m_samples=m_samples, dur=dur)


class TestBatchedSearch:
    def test_c8_match_set_equals_the_loop(self, c8_bank):
        spec, psd, data, rho = c8_bank
        for thr in (0.8 * rho.max(), float(np.median(rho)), 10.0):
            c = OracleCounter()
            got = pipeline.classical_search(spec, data, psd, thr, c)
            assert got.dtype == np.int64
            assert got.tolist() == np.flatnonzero(rho >= thr).tolist()
            assert c.evaluations == bank_size(spec)

    def test_c8_peak_snr_matches_reference(self, c8_bank):
        spec, psd, data, rho = c8_bank
        got = pipeline._peak_snrs(spec, data, psd, range(bank_size(spec)))
        assert np.array_equal(got, rho)

    @pytest.mark.parametrize("n_f0,n_f1", [(8, 8), (1, 8), (8, 1), (1, 1)])
    # an odd length has no Nyquist bin, so the band keeps the last bin
    @pytest.mark.parametrize("m_samples", [1024, 1023], ids=["default", "odd"])
    def test_peak_snr_matches_reference(self, monkeypatch, n_f0, n_f1, m_samples):
        # 7 rows a block: the bank sizes are not multiples of the block
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 7 * 64 * m_samples)
        spec = small_spec(n_f0, n_f1, m_samples=m_samples)
        psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
        data = injected_data(spec, bank_size(spec) // 2, 5)
        got = pipeline._peak_snrs(spec, data, psd, range(bank_size(spec)))
        assert np.array_equal(got, loop_peak_snrs(spec, data, psd))

    def test_c8_peak_snr_at_every_worker_count(self, c8_bank, cpus):
        self.test_c8_peak_snr_matches_reference(c8_bank)

    @pytest.mark.parametrize("n_f0,n_f1", [(8, 8), (1, 8), (8, 1), (1, 1)])
    @pytest.mark.parametrize("m_samples", [1024, 1023], ids=["default", "odd"])
    def test_peak_snr_at_every_worker_count(self, monkeypatch, cpus, n_f0, n_f1, m_samples):
        # 7 rows fit the budget: 7, 3 and 2 rows a block at 1, 2 and 3 workers
        self.test_peak_snr_matches_reference(monkeypatch, n_f0, n_f1, m_samples)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["cpus1", "cpus2"], indirect=True)
    def test_reused_block_buffers_leak_nothing(self, monkeypatch, cpus):
        # 4 rows fit the budget: 4 rows a block on 1 CPU, 2 on 2, so each worker
        # filters block after block in its buffers and the 35 templates end in a
        # short block on their leading rows.  A bin outside the band that kept
        # the last block's transform, or a row of the last block, would move a peak.
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 4 * 64 * 1024)
        assert pipeline._search_blocks(1024) == (cpus, 4 // cpus)
        spec = small_spec(n_f0=5, n_f1=7)
        psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
        data = injected_data(spec, 17, 5)
        got = pipeline._peak_snrs(spec, data, psd, range(bank_size(spec)))
        assert got.tobytes() == loop_peak_snrs(spec, data, psd).tobytes()

    @pytest.mark.parametrize("m_samples", [64, 1024, 2**18, 2**19])
    def test_workers_hold_the_block_budget(self, cpus, m_samples):
        w, rows = pipeline._search_blocks(m_samples)
        assert 1 <= w <= cpus and rows >= 1
        assert w * rows * 64 * m_samples <= pipeline._BLOCK_BYTES
        if m_samples == 2**19:  # one row fills the budget
            assert (w, rows) == (1, 1)

    def test_oracle_eval_is_the_one_index_search(self, toy_bank):
        spec, psd, data, _ = toy_bank
        matches = pipeline.classical_search(spec, data, psd, 10.0, OracleCounter()).tolist()
        hits = [i for i in range(bank_size(spec))
                if pipeline.oracle_eval(spec, data, psd, i, 10.0, OracleCounter())]
        assert hits == matches

    def test_nyquist_error(self):
        # the spec refuses the bank, so no search can take it
        with pytest.raises(ValidationError, match="reaches Nyquist"):
            small_spec(f0_max=300.0)

    def test_zero_energy_error(self, toy_bank):
        # a 2-sample chirp is all taper: tukey_window(2, 0.1) is [0, 0]
        _, psd, data, _ = toy_bank
        spec = small_spec(dur=2 / 512.0)
        with pytest.raises(ValidationError, match="zero energy"):
            pipeline.classical_search(spec, data, psd, 5.0, OracleCounter())

    def test_psd_vanishing_error(self, toy_bank):
        spec, psd, data, _ = toy_bank
        values = psd.values.copy()
        values[300] = 0.0
        holed = dsp.Psd(values=values, df=psd.df)
        with pytest.raises(ValidationError, match="PSD vanishes"):
            pipeline.classical_search(spec, data, holed, 5.0, OracleCounter())

    def test_threshold_checked(self, toy_bank):
        spec, psd, data, _ = toy_bank
        with pytest.raises(ValidationError, match="threshold"):
            pipeline.classical_search(spec, data, psd, 0.0, OracleCounter())

    def test_search_holds_the_budgeted_arrays(self, monkeypatch):
        # in the process, whatever the host's CPU count
        monkeypatch.setattr(fanout, "cpus", lambda: 1)
        self.search_holds_the_budgeted_arrays(monkeypatch)

    def test_search_on_two_workers_holds_the_budgeted_arrays(self, monkeypatch):
        monkeypatch.setattr(fanout, "cpus", lambda: 2)
        self.search_holds_the_budgeted_arrays(monkeypatch)

    def search_holds_the_budgeted_arrays(self, monkeypatch):
        # every template matches, 64 rows a block: 9 bytes a template at the
        # peak (the peaks, then their mask) and 8 held after (the int64
        # matches); 2**16 templates, so that an 8-byte index array would
        # not fit in the slack
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 64 * 64 * 64)
        spec = small_spec(n_f0=256, n_f1=256, m_samples=64, dur=0.1)
        psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
        data = injected_data(spec, 0, 5)
        n, slack = bank_size(spec), 64 << 10
        pipeline.oracle_eval(spec, data, psd, 0, 1e-9, OracleCounter())  # warm caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            matches = pipeline.classical_search(spec, data, psd, 1e-9, OracleCounter())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matches.size == n
        assert peak - start <= 9 * n + pipeline._BLOCK_BYTES + slack
        assert held - start <= 8 * n + slack


class TestThreshold:
    """The match predicate's threshold: inclusive, and positive or refused."""

    # the threshold sits at the peak of the template of this rank, loudest
    # first: rank 0 is the injection, rank 63 the quietest of the 64
    @pytest.mark.parametrize("rank,step,expected", [
        pytest.param(rank, step, expected, id=f"rank{rank}-{name}" if rank else name)
        for rank in (0, 1, 4, 16, 40, 63)
        for step, expected, name in [(0.0, 1, "at-peak"), (1.0, 0, "above-peak"),
                                     (-1.0, 1, "below-peak")]])
    def test_inclusive(self, toy_bank, step, expected, rank):
        spec, psd, data, inject = toy_bank
        peaks = pipeline._peak_snrs(spec, data, psd, range(bank_size(spec)))  # one search
        i = int(np.argsort(-peaks, kind="stable")[rank])
        assert rank or i == inject
        rho = peaks[i]
        thr = float(np.nextafter(rho, step * np.inf) if step else rho)
        assert pipeline.oracle_eval(spec, data, psd, i, thr, OracleCounter()) == expected
        matches = pipeline.classical_search(spec, data, psd, thr, OracleCounter())
        assert (i in matches) == bool(expected)
        assert matches.tolist() == np.flatnonzero(peaks >= thr).tolist()

    @pytest.mark.parametrize("thr", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_refused_before_any_template(self, toy_bank, monkeypatch, thr):
        spec, psd, data, inject = toy_bank
        monkeypatch.setattr(pipeline, "_peak_snrs", no_search)
        with pytest.raises(ValidationError, match="threshold must be positive"):
            pipeline.oracle_eval(spec, data, psd, inject, thr, OracleCounter())
        with pytest.raises(ValidationError, match="threshold must be positive"):
            pipeline.classical_search(spec, data, psd, thr, OracleCounter())


class TestSignalDetection:
    def test_no_matches_never_detects(self):
        rng = np.random.default_rng(0)
        c = OracleCounter()
        for _ in range(5000):
            assert not pipeline.signal_detection(synthetic(2**17, 0, 11), rng, c).detected

    def test_vectorized_counter_agrees(self):
        assert pipeline.count_detections(2**17, 0, 11, 100_000, seed=1) == 0
        hits = pipeline.count_detections(2**17, 9, 11, 100_000, seed=1)
        expect = 1 - amplify.false_negative_prob(2**17, 9, 11)
        sigma = math.sqrt(expect * (1 - expect) / 100_000)
        assert abs(hits / 100_000 - expect) < 5 * sigma

    @pytest.mark.parametrize("n,r,p,seed", [
        (2**17, 9, 11, 1), (2**17, 0, 11, 2), (64, 2, 5, 3), (4, 2, 2, 4), (2**30, 7, 18, 5),
        (8, 8, 4, 6)])
    def test_count_equals_scalar_draws(self, n, r, p, seed):
        u = np.random.default_rng(seed).random(2000)
        want = sum(amplify.sample_b(n, r, p, SimpleNamespace(random=lambda: x)) != 0
                   for x in u.tolist())
        assert pipeline.count_detections(n, r, p, 2000, seed) == want

    def test_charges_full_ladder(self):
        c = OracleCounter()
        pipeline.signal_detection(synthetic(2**17, 9, 11), np.random.default_rng(2), c)
        assert c.evaluations == 2047

    def test_detection_rate_matches_false_negative_model(self):
        rng = np.random.default_rng(3)
        c = OracleCounter()
        sc = synthetic(2**17, 9, 11)
        trials = 20_000
        hits = sum(pipeline.signal_detection(sc, rng, c).detected for _ in range(trials))
        expect = 1 - amplify.false_negative_prob(2**17, 9, 11)
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(hits / trials - expect) < 4 * sigma

    def test_outcome_decoding(self):
        rng = np.random.default_rng(4)
        c = OracleCounter()
        out = pipeline.signal_detection(synthetic(64, 2, 5), rng, c)
        assert out == amplify.estimate_from_b(out.b, 5, 64)
        assert out.detected == (out.b != 0)

    def test_empty_register_rejected_before_charging(self):
        c = OracleCounter()
        with pytest.raises(ValidationError, match="p >= 1, got 0"):
            pipeline.signal_detection(synthetic(64, 2, 0), np.random.default_rng(4), c)
        assert c.evaluations == 0


class TestTemplateRetrieval:
    def test_exact_rotation_always_succeeds(self):
        rng = np.random.default_rng(5)
        c = OracleCounter()
        sc = replace(synthetic(4, 1, 3), match_set=[3])
        for _ in range(200):
            got = pipeline.template_retrieval(sc, 1, rng, c)
            assert got == 3

    def test_charges_ladder_plus_verification(self):
        c = OracleCounter()
        sc = replace(synthetic(4, 1, 3), match_set=[3])
        pipeline.template_retrieval(sc, 1, np.random.default_rng(6), c)
        assert c.evaluations == 2

    def test_success_rate_matches_analytic(self):
        rng = np.random.default_rng(7)
        c = OracleCounter()
        k = 3  # deliberately sub-optimal
        p_succ = amplify.p_match(amplify.theta_of(64, 2), k)
        sc = replace(synthetic(64, 2, 5), match_set=[10, 20])
        trials = 20_000
        wins = sum(
            pipeline.template_retrieval(sc, k, rng, c) is not None
            for _ in range(trials)
        )
        sigma = math.sqrt(p_succ * (1 - p_succ) / trials)
        assert abs(wins / trials - p_succ) < 4 * sigma

    def test_returned_index_uniform_over_matches(self):
        rng = np.random.default_rng(8)
        c = OracleCounter()
        match_set = list(range(100, 109))
        sc = replace(synthetic(2**17, 9, 11), match_set=match_set)
        draws = []
        while len(draws) < 10_000:
            got = pipeline.template_retrieval(sc, 94, rng, c)
            if got is not None:
                draws.append(got)
        counts = [draws.count(i) for i in match_set]
        assert stats.chisquare(counts).pvalue > 1e-4


class TestRetrieveUntilSuccess:
    def test_reuse_k_ledger_replay(self):
        # replay the identical stream and rebuild the charge ledger
        sc = synthetic(2**17, 9, 11, RetrievalStrategy.REUSE_K)
        rec = pipeline.retrieve_until_success(sc, np.random.default_rng(99), OracleCounter())
        rng = np.random.default_rng(99)
        c = OracleCounter()
        detections = 0
        attempts = 0
        k_star = None
        while True:
            if k_star is None:
                out = pipeline.signal_detection(sc, rng, c)
                detections += 1
                if not out.detected:
                    continue
                k_star = out.k_star
            attempts += 1
            if pipeline.template_retrieval(sc, k_star, rng, c) is not None:
                break
        assert rec.succeeded
        assert rec.attempts == attempts
        assert rec.oracle_evals == c.evaluations
        assert rec.oracle_evals >= detections * 2047 + attempts  # ladder + k*+1 each

    def test_recount_pays_detection_per_attempt(self):
        n, r, p = 2**17, 9, 11
        rec = pipeline.retrieve_until_success(
            synthetic(n, r, p, RetrievalStrategy.RECOUNT_EACH_TRY),
            np.random.default_rng(1), OracleCounter())
        assert rec.succeeded
        assert rec.oracle_evals >= rec.attempts * 2047

    def test_max_attempts_exhaustion(self):
        rec = pipeline.retrieve_until_success(
            synthetic(2**17, 9, 11, RetrievalStrategy.REUSE_K, max_attempts=0),
            np.random.default_rng(2), OracleCounter())
        assert not rec.succeeded
        assert rec.returned_index is None

    def test_succeeded_index_comes_from_match_set(self):
        match_set = [5, 17, 90]
        for seed in range(30):
            rec = pipeline.retrieve_until_success(
                pipeline.Scenario(n=4096, p=8, strategy=RetrievalStrategy.REUSE_K,
                                  match_set=match_set),
                np.random.default_rng(seed), OracleCounter())
            assert rec.succeeded and rec.returned_index in match_set


class TestCollectAllMatches:
    def test_coupon_collector_expectation(self):
        # mean successful draws to see all 9 of 9 is 9*H_9 ~ 25.46
        draws = []
        for t in range(400):
            rng = np.random.default_rng((77, t))
            c = OracleCounter()
            seen = set()
            n_draws = 0
            while len(seen) < 9:
                rec = pipeline.retrieve_until_success(
                    synthetic(2**17, 9, 11, RetrievalStrategy.REUSE_K), rng, c)
                n_draws += 1
                seen.add(rec.returned_index)
            draws.append(n_draws)
        expected = 9 * sum(1 / i for i in range(1, 10))
        assert np.mean(draws) == pytest.approx(expected, rel=0.10)


class TestScenario:
    def test_synthetic_config(self):
        sc = pipeline.scenario_from_config({"n": 64, "r": 2, "p": 5,
                                            "strategy": "recount_each_try"})
        assert (sc.n, sc.p, sc.r_true) == (64, 5, 2)
        assert sc.strategy is RetrievalStrategy.RECOUNT_EACH_TRY

    def test_auto_p(self):
        sc = pipeline.scenario_from_config({"n": 2**17, "r": 9})
        assert sc.p == 11

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            pipeline.scenario_from_config({"n": 64})

    @pytest.mark.parametrize("key,value", [("n", "abc"), ("r", [2]), ("p", "five"),
                                           ("max_attempts", "many"), ("n", 1e400)])
    def test_non_numeric_key_names_it(self, key, value):
        cfg = {"n": 64, "r": 2, key: value}
        with pytest.raises(ValidationError, match=repr(key)):
            pipeline.scenario_from_config(cfg)

    def test_config_number_integral_float(self):
        assert io.config_number({"noise_seed": 7.0}, "noise_seed", int) == 7

    def test_seed_and_trials_read_once(self):
        cfg = {"n": 64, "r": 2, "seed": 3.0, "trials": 5}
        scenario = pipeline.scenario_from_config(cfg)
        assert (scenario.seed, scenario.trials) == (3, 5)
        assert pipeline.scenario_from_config(cfg, seed=0).seed == 0  # the flag wins
        bare = pipeline.scenario_from_config({"n": 64, "r": 2})
        assert (bare.seed, bare.trials) == (None, 0)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            pipeline.scenario_from_config(cfg, seed=-1)

    def test_strategy_parse(self):
        assert RetrievalStrategy.parse("reuse-k") is RetrievalStrategy.REUSE_K
        with pytest.raises(ValidationError):
            RetrievalStrategy.parse("other")

    def test_injection_config(self):
        cfg = {
            "bank": {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 8,
                     "f1_min": 5.0, "f1_max": 45.0, "n_f1": 8,
                     "fs_hz": 512.0, "m_samples": 1024, "dur_s": 1.0},
            "inject_index": 27, "amplitude": 1.0, "noise_sigma": 0.0,
            "rho_thr": 15.0,
        }
        sc = pipeline.scenario_from_config(cfg)
        assert 27 in sc.match_set
        assert sc.setup_evals == 64
        assert sc.n == 64


    def test_injection_byte_budget_boundary(self):
        # m = 2 costs 33,554,480 bytes beside 9 a template, 2**25 of them the
        # 262,144 rows that the search's blocks hold: 2**30 - 33554480 >= 9 * 115576371;
        # a 2-sample chirp, so that it fits
        spec = BankSpec(f0_min=40.0, f0_max=120.0, n_f0=115576371, f1_min=5.0, f1_max=5.0,
                        n_f1=1, fs=512.0, m_samples=2, dur=2 / 512)
        pipeline._check_injection_bytes(spec)
        with pytest.raises(CapExceededError, match="over the budget of 1073741824"):
            pipeline._check_injection_bytes(replace(spec, n_f0=spec.n_f0 + 1))

    @pytest.mark.parametrize("bank_keys", [
        {"m_samples": 10**12}, {"n_f0": 10**5, "n_f1": 10**5}])
    def test_injection_over_budget_refused_before_any_array(self, monkeypatch, bank_keys):
        def waveform(*args):
            raise AssertionError("the injection was synthesized")

        monkeypatch.setattr(bank, "waveform", waveform)
        cfg = {"bank": {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 8,
                        "f1_min": 5.0, "f1_max": 45.0, "n_f1": 8,
                        "fs_hz": 512.0, "m_samples": 1024, "dur_s": 1.0, **bank_keys},
               "inject_index": 27, "rho_thr": 15.0}
        with pytest.raises(CapExceededError):
            pipeline.scenario_from_config(cfg)


class TestDistributionCache:
    def test_third_key_evicts_the_oldest(self):
        # the streamed cdfs that detections draw from
        cached = amplify._streamed_cdf
        cached.cache_clear()
        try:
            first = cached(64, 2, 5)
            second = cached(64, 3, 5)
            cached(64, 4, 5)
            assert cached.cache_info().currsize == 2
            assert cached(64, 3, 5) is second
            assert cached(64, 2, 5) is not first
        finally:
            cached.cache_clear()


class TestMonteCarlo:
    def test_single_trial_summary(self):
        sc = pipeline.scenario_from_config({"n": 64, "r": 2, "p": 5})
        summary = pipeline.monte_carlo(sc, 1, seed=5)
        record = pipeline.retrieve_until_success(sc, np.random.default_rng((5, 0)),
                                                 pipeline.OracleCounter())
        assert summary.trials == 1
        assert summary.mean == record.oracle_evals
        assert summary.stddev == 0.0

    def test_seed_determinism(self):
        sc = pipeline.scenario_from_config({"n": 2**17, "r": 9, "p": 11})
        s1 = pipeline.monte_carlo(sc, 300, seed=6)
        s2 = pipeline.monte_carlo(sc, 300, seed=6)
        assert s1 == s2

    def test_strategy_cost_ordering(self):
        reuse = pipeline.scenario_from_config(
            {"n": 2**17, "r": 9, "p": 11, "strategy": "reuse_k"})
        recount = pipeline.scenario_from_config(
            {"n": 2**17, "r": 9, "p": 11, "strategy": "recount_each_try"})
        m1 = pipeline.monte_carlo(reuse, 2000, seed=7)
        m2 = pipeline.monte_carlo(recount, 2000, seed=7)
        assert m1.mean <= m2.mean
        assert m2.classical_evals == 2**17

    def test_histogram_accounts_every_trial(self):
        sc = pipeline.scenario_from_config({"n": 1024, "r": 3, "p": 7})
        summary = pipeline.monte_carlo(sc, 500, seed=8)
        assert sum(c for _, c in summary.histogram) == 500

    def test_modal_cost_is_one_ladder_plus_one_attempt(self):
        # the most likely outcome decodes to k*=100, so the cheapest and
        # most common trial charges (2^11 - 1) + (100 + 1)
        sc = pipeline.scenario_from_config({"n": 2**17, "r": 9, "p": 11})
        dist = amplify.counting_distribution(2**17, 9, 11)
        b_mode = int(np.argmax(dist.probs))
        k_mode = amplify.estimate_from_b(b_mode, 11, 2**17).k_star
        summary = pipeline.monte_carlo(sc, 3000, seed=9)
        modal_evals = max(summary.histogram, key=lambda ec: ec[1])[0]
        assert modal_evals == 2047 + k_mode + 1 == 2148

    def test_trials_are_tallied_not_kept(self):
        # a record per trial peaked at 3.2 MiB here; the tally keeps one
        # count per distinct cost, and the statistics are taken from it
        sc = pipeline.scenario_from_config(
            {"n": 2**17, "r": 9, "p": 11, "max_attempts": 1_000_000})
        pipeline.monte_carlo(sc, 1, seed=1)  # first run: lazy imports are not counted
        tracemalloc.start()
        try:
            summary = pipeline.monte_carlo(sc, 20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 2**20
        assert summary.trials == 20_000

    def test_statistics_from_the_tally_are_the_lists_bits(self):
        rng = np.random.default_rng(2024)
        totals = set()
        for _ in range(1000):
            costs = rng.integers(0, 10**12, size=rng.integers(1, 20), endpoint=True)
            counts = rng.integers(1, 20, costs.size)
            tally = Counter({int(c): int(n) for c, n in zip(costs, counts)})
            evals = [c for c, n in tally.items() for _ in range(n)]
            rng.shuffle(evals)
            expected = (statistics.fmean(evals), float(statistics.median(evals)),
                        statistics.pstdev(evals))
            found = pipeline._statistics(tally)
            assert [x.hex() for x in found] == [x.hex() for x in expected], tally
            totals.add(len(evals) % 2)
        assert totals == {0, 1}

    def test_a_million_trial_tally_is_summarised_in_under_a_mebibyte(self):
        # a list of the costs, and its sorted copy for the median, take 16.4 MB
        tally = Counter({2047 + k: 1000 for k in range(1000)})
        pipeline._statistics(Counter({1: 1}))  # first run: lazy imports are not counted
        tracemalloc.start()
        try:
            mean, median, _ = pipeline._statistics(tally)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert mean == median == 2047 + 499.5

    @pytest.mark.parametrize("strategy", ["reuse_k", "recount_each_try"])
    def test_same_summary_at_every_worker_count(self, monkeypatch, strategy):
        # 1000 trials in 15 spans, the last one short
        monkeypatch.setattr(pipeline, "_TRIAL_SPAN", 70)
        sc = pipeline.scenario_from_config({"n": 2**17, "r": 9, "p": 11, "strategy": strategy})
        costs = sorted(Counter(
            pipeline.retrieve_until_success(sc, np.random.default_rng((12, t)),
                                            OracleCounter()).oracle_evals
            for t in range(1000)).items())
        summaries = []
        for w in (1, 2, 3):
            monkeypatch.setattr(fanout, "cpus", lambda: w)
            summaries.append(pipeline.monte_carlo(sc, 1000, seed=12).to_dict())
        assert summaries[0] == summaries[1] == summaries[2]
        assert [(h["evals"], h["count"]) for h in summaries[0]["histogram"]] == costs

    @pytest.mark.parametrize("start", [0, 2**32 - 250], ids=["from-0", "across-2**32"])
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5])
    def test_span_seeding_is_default_rng(self, seed, start):
        # across 2**32 one span holds t of one uint32 word and of two; with a seed
        # of 2 words t's words end the pool of 4, with 3 its high word is past it
        span = seeding.trial_rngs(seed, start, start + pipeline._TRIAL_SPAN)
        for t, rng in zip(itertools.count(start), span):
            ref = np.random.default_rng((seed, t))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random(3).tolist() == ref.random(3).tolist()
        assert t == start + pipeline._TRIAL_SPAN - 1

    def test_fanned_out_parent_never_imports_numpy_random(self):
        # numpy.random adds about 6 MB of RSS: only the process that seeds a span
        # loads it, and runs the body of the lazy module qmf.seeding
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import sys, types; from qmf import fanout, pipeline; fanout.cpus = lambda: {}; "
                  "sc = pipeline.scenario_from_config({{'n': 2**17, 'r': 9, 'p': 11}}); "
                  "pipeline.monte_carlo(sc, 1000, seed=3); print('numpy.random' in sys.modules, "
                  "type(sys.modules['qmf.seeding']) is types.ModuleType)")
        loaded = [subprocess.run([sys.executable, "-c", script.format(w)], capture_output=True,
                                 text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src}).stdout.split()[-2:]
                  for w in (2, 1)]
        assert loaded == [["False", "False"], ["True", "True"]]  # one process runs the spans

    def test_rejects_empty(self):
        sc = pipeline.scenario_from_config({"n": 64, "r": 2, "p": 5})
        with pytest.raises(ValidationError):
            pipeline.monte_carlo(sc, 0, seed=1)
        sc0 = pipeline.scenario_from_config({"n": 64, "r": 0, "p": 5})
        with pytest.raises(ValidationError):
            pipeline.monte_carlo(sc0, 10, seed=1)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            pipeline.monte_carlo(sc, 10, seed=-1)  # a seed's words are unsigned


class TestEndToEndSoundness:
    def test_retrieved_index_passes_classical_predicate(self, toy_bank):
        spec, psd, data, inject = toy_bank
        thr = 15.0
        c = OracleCounter()
        match_set = pipeline.classical_search(spec, data, psd, thr, c)
        assert len(match_set)
        n = bank_size(spec)
        sc = pipeline.Scenario(n=n, p=amplify.choose_p(n),
                               strategy=RetrievalStrategy.REUSE_K, match_set=match_set)
        for seed in range(25):
            rec = pipeline.retrieve_until_success(
                sc, np.random.default_rng(seed), OracleCounter())
            assert rec.succeeded
            verify = OracleCounter()
            assert pipeline.oracle_eval(spec, data, psd, rec.returned_index,
                                        thr, verify) == 1
