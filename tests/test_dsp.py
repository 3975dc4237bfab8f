"""Unit tests for the matched-filtering engine."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import welch

from qmf import bank, dsp
from qmf.bank import ChirpParams, chirps, waveform
from qmf.errors import ValidationError

FS = 1024.0
M = 2048
CHIRP = ChirpParams(f0=100.0, f1=50.0, dur=1.0)


@pytest.fixture(scope="module")
def white():
    return dsp.white_psd(M, 1.0 / FS)


@pytest.fixture(scope="module")
def qc(white):
    return dsp.complex_template(bank.quadrature_spectra(CHIRP, FS, M), white)


def chirp_data(phi0=0.0, amplitude=1.0, shift=0):
    sig = chirps(CHIRP, (phi0,), FS, M)[0]
    samples = amplitude * np.roll(np.pad(sig, (0, M - sig.size)), shift)
    return dsp.forward_fft(dsp.TimeSeries(samples, dt=1.0 / FS))


def snr_of(data, template, psd):
    """The SNR series of one data spectrum and one template, on the data's time grid."""
    return dsp.snr_series(dsp.filter_integrand(data, template, psd),
                          1.0 / (data.df * data.m_time))


class TestTypes:
    def test_time_series_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="index 3"):
            dsp.TimeSeries(np.array([0.0, 1.0, 2.0, np.nan]), dt=1.0)

    def test_time_series_rejects_short_and_bad_dt(self):
        with pytest.raises(ValidationError):
            dsp.TimeSeries(np.array([1.0]), dt=1.0)
        with pytest.raises(ValidationError):
            dsp.TimeSeries(np.zeros(4), dt=0.0)

    def test_frequency_series_bin_count(self):
        with pytest.raises(ValidationError):
            dsp.FrequencySeries(np.zeros(5, complex), df=1.0, m_time=16)
        # leading axes index templates; the bins are counted on the last axis
        rows = dsp.FrequencySeries(np.zeros((3, 9), complex), df=1.0, m_time=16)
        assert rows.bins.shape == (3, 9)
        with pytest.raises(ValidationError, match="8 bins"):
            dsp.FrequencySeries(np.zeros((9, 8), complex), df=1.0, m_time=16)
        with pytest.raises(ValidationError, match="frequency axis"):
            dsp.FrequencySeries(np.complex128(1.0), df=1.0, m_time=1)

    def test_psd_rejects_negative(self):
        with pytest.raises(ValidationError):
            dsp.Psd(np.array([1.0, -1.0, 1.0]), df=1.0)


class TestForwardFft:
    def test_zero_series_has_zero_bins(self):
        fs = dsp.forward_fft(dsp.TimeSeries(np.zeros(8), dt=1.0))
        assert np.all(fs.bins == 0.0)

    def test_impulse_transform_is_flat(self):
        fs = dsp.forward_fft(dsp.TimeSeries(np.array([1.0, 0, 0, 0]), dt=1.0))
        np.testing.assert_allclose(fs.bins, np.ones(3), atol=1e-15)

    @pytest.mark.parametrize("m", [4, 64, 1024, 63])
    def test_round_trip(self, m):
        rng = np.random.default_rng(m)
        ts = dsp.TimeSeries(rng.normal(size=m), dt=1.0 / 128)
        fs = dsp.forward_fft(ts)
        back = np.fft.irfft(fs.bins, n=fs.m_time)
        scale = np.max(np.abs(ts.samples))
        assert np.max(np.abs(back - ts.samples)) / scale < 1e-12
        assert 1.0 / (fs.df * fs.m_time) == pytest.approx(ts.dt)

    def test_matches_direct_dft_sum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=16)
        fs = dsp.forward_fft(dsp.TimeSeries(x, dt=1.0))
        j = np.arange(16)
        direct = np.array([np.sum(x * np.exp(-2j * np.pi * j * k / 16)) for k in range(9)])
        np.testing.assert_allclose(fs.bins, direct, atol=1e-12)


class TestEstimatePsd:
    def test_white_noise_level(self):
        rng = np.random.default_rng(11)
        ts = dsp.TimeSeries(rng.normal(size=2**16), dt=1.0 / 1024)
        psd = dsp.estimate_psd(ts, seg_len=2048)
        level = psd.values[1:-1].mean()
        assert level == pytest.approx(2.0 / 1024, rel=0.05)

    def test_sinusoid_concentrates(self):
        t = np.arange(2**14) / 1024.0
        ts = dsp.TimeSeries(np.sin(2 * np.pi * 128.0 * t) + 1e-3 * np.random.default_rng(1).normal(size=t.size), dt=1.0 / 1024)
        psd = dsp.estimate_psd(ts, seg_len=1024)
        peak_bin = int(round(128.0 / psd.df))
        assert psd.values[peak_bin] > 10 * np.median(psd.values[1:-1])

    def test_zero_input_rejected(self):
        ts = dsp.TimeSeries(np.zeros(4096), dt=1.0 / 1024)
        with pytest.raises(ValidationError):
            dsp.estimate_psd(ts, seg_len=512)

    def test_segment_validation(self):
        ts = dsp.TimeSeries(np.random.default_rng(2).normal(size=1024), dt=1.0)
        with pytest.raises(ValidationError):
            dsp.estimate_psd(ts, seg_len=2048)
        with pytest.raises(ValidationError):
            dsp.estimate_psd(ts, seg_len=1024)  # single segment

    @pytest.mark.parametrize("m,seg_len,dt,mean", [
        (2**14, 1024, 1.0 / 1024, 0.0),    # even seg_len, m a multiple of the hop
        (2**14 + 37, 1000, 1.0 / 1024, 0.0),  # m not a multiple of the hop
        (5003, 255, 1.0 / 3000, 0.0),      # odd seg_len; 1/dt is not exact
        (4099, 31, 1.0 / 3000, 2.5),       # nonzero mean
        (3000, 256, 1.0 / 7.3, -4.0),
        (64, 3, 0.1, 1.0),
        # 2, 63, 64, 65 and 129 segments of 16 in blocks of m // 128: two blocks
        # of one, 15 of 4 and part of one, exactly 16 of 4, 16 of 4 and one segment
        # more, 16 of 8 and one segment more
        (16 + 1 * 8, 16, 1.0 / 1024, 0.5),
        (16 + 62 * 8 + 5, 16, 1.0 / 1024, 0.0),
        (16 + 63 * 8, 16, 1.0 / 1024, 0.0),
        (16 + 64 * 8 + 7, 16, 1.0 / 1024, 0.0),
        (16 + 128 * 8, 16, 1.0 / 1024, 0.0),
    ])
    def test_equals_scipy_welch_bit_for_bit(self, m, seg_len, dt, mean):
        x = np.random.default_rng(seg_len).normal(size=m) + mean
        ts = dsp.TimeSeries(x, dt=dt)
        psd = dsp.estimate_psd(ts, seg_len=seg_len)
        freqs, pxx = welch(x, fs=1.0 / ts.dt, window="hann", nperseg=seg_len,
                           noverlap=seg_len // 2)
        assert np.array_equal(psd.values, pxx)
        assert psd.df == freqs[1] - freqs[0]

    def test_interpolation_onto_analysis_grid(self, white):
        coarse = dsp.Psd(values=np.full(65, 2.0 / FS), df=FS / 128)
        fine = dsp.interpolate_psd(coarse, M, 1.0 / FS)
        assert fine.values.size == M // 2 + 1
        np.testing.assert_allclose(fine.values, white.values)


class TestNormalizeTemplate:
    @staticmethod
    def copy(s):
        return dsp.FrequencySeries(s.bins.copy(), s.df, s.m_time)

    def test_idempotent(self, white):
        s = dsp.forward_fft(waveform(CHIRP, FS, M))
        once = dsp.normalize_template(s, white)
        twice = dsp.normalize_template(self.copy(once), white)
        np.testing.assert_allclose(twice.bins, once.bins, rtol=1e-12)

    def test_scale_invariant(self, white):
        s = dsp.forward_fft(waveform(CHIRP, FS, M))
        scaled = dsp.FrequencySeries(7.0 * s.bins, s.df, s.m_time)
        block = dsp.FrequencySeries(np.stack([s.bins, scaled.bins]), s.df, s.m_time)
        a = dsp.normalize_template(self.copy(s), white)
        b = dsp.normalize_template(self.copy(scaled), white)
        np.testing.assert_allclose(b.bins, a.bins, rtol=1e-12)
        # a 2-row block normalizes each row bit for bit as a 1-row call does
        assert np.array_equal(dsp.normalize_template(block, white).bins,
                              np.stack([a.bins, b.bins]))

    def test_divides_in_place_by_sigma(self, white):
        s = dsp.forward_fft(waveform(CHIRP, FS, M))
        for bins in (s.bins, np.stack([s.bins, 3.0 * s.bins])):  # one row, then a block
            power = np.abs(bins[..., 1:M // 2]) ** 2 / white.values[1:M // 2]
            want = bins / np.sqrt(np.sum(power, axis=-1) * s.df)[..., None]
            given = dsp.FrequencySeries(bins.copy(), s.df, s.m_time)
            q = dsp.normalize_template(given, white)
            assert q is given
            assert np.array_equal(q.bins, want)

    def test_norm_matches_brute_force_sum(self, white):
        s = dsp.forward_fft(waveform(CHIRP, FS, M))
        sigma_sq = 0.0
        for k in range(1, M // 2):  # skip DC and Nyquist
            sigma_sq += abs(s.bins[k]) ** 2 / white.values[k] * s.df
        q = dsp.normalize_template(self.copy(s), white)
        np.testing.assert_allclose(q.bins, s.bins / math.sqrt(sigma_sq), rtol=1e-10)

    def test_zero_energy_rejected(self, white):
        empty = dsp.FrequencySeries(np.zeros(M // 2 + 1, complex), 1.0 / (M / FS), M)
        with pytest.raises(ValidationError):
            dsp.normalize_template(empty, white)

    def test_zero_psd_bin_in_band_rejected(self):
        s = dsp.forward_fft(waveform(CHIRP, FS, M))
        values = np.full(M // 2 + 1, 2.0 / FS)
        values[150] = 0.0
        with pytest.raises(ValidationError):
            dsp.normalize_template(s, dsp.Psd(values, s.df))


class TestComplexTemplate:
    def test_real_part_recovers_phase_zero_output(self):
        # exact quadrature pair: on-bin sinusoid spanning the full record
        fs, m = 256.0, 512
        psd = dsp.white_psd(m, 1.0 / fs)
        params = ChirpParams(f0=32.0, f1=0.0, dur=m / fs)
        qc = dsp.complex_template(bank.quadrature_spectra(params, fs, m), psd)
        q0 = dsp.normalize_template(dsp.forward_fft(waveform(params, fs, m)), psd)
        data = dsp.forward_fft(waveform(params, fs, m))
        z_c = dsp.filter_series(data, qc, psd)
        z_0 = dsp.filter_series(data, q0, psd)
        scale = np.max(np.abs(z_0.real))
        assert np.max(np.abs(z_c.real - z_0.real)) / scale < 1e-5

    def test_peak_is_phase_invariant(self, white, qc):
        maxima = []
        for phi in (0.0, np.pi / 4, np.pi / 2, 1.3):
            snr = snr_of(chirp_data(phi0=phi), qc, white)
            maxima.append(dsp.max_snr(snr)[0])
        assert (max(maxima) - min(maxima)) / np.mean(maxima) < 0.01

    def test_propagates_bad_psd(self):
        values = np.full(M // 2 + 1, 2.0 / FS)
        values[200] = 0.0
        with pytest.raises(ValidationError):
            dsp.complex_template(bank.quadrature_spectra(CHIRP, FS, M),
                                 dsp.Psd(values, 1.0 / (M / FS)))


# The acceptance suite's c8 lattice, and one block of it the size that the
# bank search cuts at 1024 samples on two CPUs.
C8_SPEC = bank.BankSpec(f0_min=30.0, f0_max=180.0, n_f0=64, f1_min=5.0, f1_max=50.0,
                        n_f1=64, fs=512.0, m_samples=1024, dur=1.0)
C8_BLOCK = range(512, 768)


@pytest.fixture(scope="module")
def c8_block_templates():
    psd = dsp.white_psd(C8_SPEC.m_samples, 1.0 / C8_SPEC.fs)

    def spectra():
        return bank.quadrature_spectra(bank.lattice(C8_SPEC, C8_BLOCK), C8_SPEC.fs,
                                       C8_SPEC.m_samples)

    return psd, spectra(), dsp.complex_template(spectra(), psd)  # which consumes its pair


class TestOneChirpAndBlock:
    @pytest.mark.parametrize("j", [0, len(C8_BLOCK) // 2, len(C8_BLOCK) - 1],
                             ids=["first", "middle", "last"])
    def test_one_chirp_equals_its_block_row_bit_for_bit(self, c8_block_templates, j):
        psd, spectra, block = c8_block_templates
        params = bank.index_to_params(C8_SPEC, C8_BLOCK[j])
        pair = bank.quadrature_spectra(params, C8_SPEC.fs, C8_SPEC.m_samples)
        assert spectra.bins.shape == (2, len(C8_BLOCK), C8_SPEC.m_samples // 2 + 1)
        assert pair.bins.shape == (2, C8_SPEC.m_samples // 2 + 1)
        assert (pair.df, pair.m_time) == (spectra.df, spectra.m_time)
        assert np.array_equal(pair.bins.view(np.float64), spectra.bins[:, j].view(np.float64))
        one = dsp.complex_template(pair, psd)
        assert block.bins.shape == spectra.bins.shape[1:]
        assert one.bins.shape == block.bins.shape[1:]
        assert (one.df, one.m_time) == (block.df, block.m_time)
        assert np.array_equal(one.bins.view(np.float64), block.bins[j].view(np.float64))

    def test_block_build_holds_the_pair_spectra_and_their_normalized_copy(self):
        # Per sample and row, at the traced peak: the pair's two spectra (16
        # bytes), normalized in their own buffer by the band's |s|^2 (8), 24.6
        # in all; the chirps go once transformed.  Without out=, the template
        # is combined into a fresh spectrum (8), the one held after, and the
        # pair is dropped.
        psd = dsp.white_psd(C8_SPEC.m_samples, 1.0 / C8_SPEC.fs)
        params = bank.lattice(C8_SPEC, range(512))

        def build():
            return dsp.complex_template(
                bank.quadrature_spectra(params, C8_SPEC.fs, C8_SPEC.m_samples), psd)

        build()  # warm caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            template = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_row = 512 * C8_SPEC.m_samples
        assert template.bins.shape == (512, C8_SPEC.m_samples // 2 + 1)
        assert (peak - start) / per_row < 34.0
        assert (held - start) / per_row < 8.1


class TestSnrSeries:
    def test_zero_data_gives_zero_snr(self, white, qc):
        zero = dsp.FrequencySeries(np.zeros(M // 2 + 1, complex), qc.df, M)
        snr = snr_of(zero, qc, white)
        assert np.all(snr.rho == 0.0)

    def test_injection_peaks_at_offset(self, white, qc):
        snr = snr_of(chirp_data(shift=300), qc, white)
        assert dsp.max_snr(snr)[1] == 300

    def test_fft_path_equals_direct_sum(self):
        m, fs = 256, 128.0
        rng = np.random.default_rng(5)
        psd = dsp.white_psd(m, 1.0 / fs)
        params = ChirpParams(f0=20.0, f1=5.0, dur=1.0)
        q = dsp.complex_template(bank.quadrature_spectra(params, fs, m), psd)
        h = dsp.forward_fft(dsp.TimeSeries(rng.normal(size=m), dt=1.0 / fs))
        fast = snr_of(h, q, psd).rho
        ks = np.arange(m // 2 + 1)[dsp.band(m)]
        j = np.arange(m)
        weights = np.conj(q.bins[ks]) * h.bins[ks] / psd.values[ks]
        direct = np.abs(
            2.0 / m * (weights[None, :] * np.exp(2j * np.pi * np.outer(j, ks) / m)).sum(axis=1)
        )
        np.testing.assert_allclose(fast, direct, rtol=1e-9, atol=1e-9 * direct.max())

    def test_grid_mismatch_rejected(self, white, qc):
        other = dsp.forward_fft(dsp.TimeSeries(np.zeros(M // 2), dt=1.0 / FS))
        with pytest.raises(ValidationError):
            snr_of(other, qc, white)

    def test_self_match_scales_linearly(self, white, qc):
        # data built as the inverse transform of S_n * Q
        shaped = dsp.FrequencySeries(white.values * qc.bins, qc.df, M)
        base = np.fft.irfft(shaped.bins, n=M)
        rhos = []
        for amp in (1.0, 3.0, 11.0):
            h = dsp.forward_fft(dsp.TimeSeries(amp * base, dt=1.0 / FS))
            rhos.append(dsp.max_snr(snr_of(h, qc, white))[0])
        assert rhos[1] / rhos[0] == pytest.approx(3.0, rel=1e-9)
        assert rhos[2] / rhos[0] == pytest.approx(11.0, rel=1e-9)

    def test_noise_calibration(self, white, qc):
        rng = np.random.default_rng(6)
        means = [
            np.mean(snr_of(
                dsp.forward_fft(dsp.TimeSeries(rng.normal(size=M), dt=1.0 / FS)),
                qc, white).rho ** 2)
            for _ in range(30)
        ]
        assert np.mean(means) == pytest.approx(2.0, rel=0.1)


class TestMaxSnrAndPredicate:
    def test_constant_series_takes_first_index(self):
        snr = dsp.SnrSeries(np.full(10, 3.5), dt=1.0)
        assert dsp.max_snr(snr) == (3.5, 0)

    def test_single_spike(self):
        rho = np.zeros(32)
        rho[17] = 4.0
        assert dsp.max_snr(dsp.SnrSeries(rho, dt=1.0)) == (4.0, 17)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        rho = rng.random(100)
        best = max(range(100), key=lambda j: rho[j])
        assert dsp.max_snr(dsp.SnrSeries(rho, dt=1.0)) == (rho[best], best)


class TestBand:
    def test_excludes_dc_and_even_nyquist(self):
        assert np.arange(5)[dsp.band(8)].tolist() == [1, 2, 3]
        assert np.arange(5)[dsp.band(9)].tolist() == [1, 2, 3, 4]
