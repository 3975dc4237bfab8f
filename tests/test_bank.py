"""Unit tests for template parameterization and chirp generation."""

import re

import numpy as np
import pytest
from scipy.signal.windows import tukey

from qmf import dsp
from qmf.bank import (QUADRATURE, BankSpec, ChirpParams, bank_size, chirps, index_to_params,
                      lattice, quadrature_spectra, tukey_window, waveform)
from qmf.errors import ValidationError


BANK_CFG = {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 8,
            "f1_min": 5.0, "f1_max": 45.0, "n_f1": 8,
            "fs_hz": 512.0, "m_samples": 1024, "dur_s": 1.0}


def make_spec(n_f0=8, n_f1=8, **fields):
    return BankSpec(**{"f0_min": 40.0, "f0_max": 120.0, "n_f0": n_f0,
                       "f1_min": 5.0, "f1_max": 45.0, "n_f1": n_f1,
                       "fs": 512.0, "m_samples": 1024, "dur": 1.0, **fields})


# Banks that name an invalid chirp, each with the message of check_chirps;
# a breach at a lattice corner, or in a field that every template shares.
CHIRP_BREACHES = pytest.mark.parametrize("field,value,message", [
    ("f1_max", 200.0, "instantaneous frequency 320.0 Hz reaches Nyquist 256.0 Hz"),
    ("f1_min", -50.0, "instantaneous frequency goes non-positive"),
    ("m_samples", 1, "chirp of 512 samples does not fit in 1 samples"),
    ("dur", 0.0, "duration must be positive, got 0.0"),
    ("dur", -1.0, "duration must be positive, got -1.0"),
], ids=["past-nyquist", "non-positive", "one-sample", "zero-dur", "negative-dur"])


class TestChirpParams:
    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValidationError):
            waveform(ChirpParams(f0=0.0, f1=1.0, dur=1.0), fs=512.0, m=1024)
        with pytest.raises(ValidationError):
            # sweeps through zero
            waveform(ChirpParams(f0=10.0, f1=-20.0, dur=1.0), fs=512.0, m=1024)


class TestBankSpec:
    def test_size(self):
        assert bank_size(make_spec(1, 1)) == 1
        assert bank_size(make_spec(8, 8)) == 64
        assert bank_size(make_spec(512, 256)) == 131072

    def test_zero_counts_rejected(self):
        with pytest.raises(ValidationError):
            make_spec(0, 8)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValidationError):
            BankSpec(f0_min=40.0, f0_max=40.0, n_f0=2, f1_min=0.0, f1_max=1.0,
                     n_f1=1, fs=512.0, m_samples=1024, dur=1.0)

    def test_config_round_trip(self):
        assert BankSpec.from_config(BANK_CFG) == make_spec()

    @CHIRP_BREACHES
    def test_invalid_chirp_refused(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_spec(**{field: value})

    @CHIRP_BREACHES
    def test_config_with_an_invalid_chirp_refused(self, field, value, message):
        key = {"dur": "dur_s"}.get(field, field)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            BankSpec.from_config({**BANK_CFG, key: value})

    def test_count_past_the_float_range_refused(self):
        with pytest.raises(ValidationError, match=r"exceeds 2\*\*63 - 1"):
            make_spec(n_f1=10**400)

    def test_config_missing_keys(self):
        with pytest.raises(ValidationError, match="missing"):
            BankSpec.from_config({"f0_min": 1.0})

    @pytest.mark.parametrize("key,value", [("n_f0", "eight"), ("fs_hz", None),
                                           ("m_samples", float("inf"))])
    def test_config_non_numeric_value(self, key, value):
        with pytest.raises(ValidationError, match=f"'{key}' must be a number"):
            BankSpec.from_config({**BANK_CFG, key: value})

    def test_config_not_an_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            BankSpec.from_config([40.0, 120.0])


class TestIndexToParams:
    def test_lattice_corners(self):
        spec = make_spec()
        first = index_to_params(spec, 0)
        last = index_to_params(spec, bank_size(spec) - 1)
        assert (first.f0, first.f1) == (spec.f0_min, spec.f1_min)
        assert (last.f0, last.f1) == (spec.f0_max, spec.f1_max)

    def test_row_major_wrap(self):
        spec = make_spec()
        p = index_to_params(spec, spec.n_f0)
        assert p.f0 == spec.f0_min
        assert p.f1 == pytest.approx(spec.f1_min + (spec.f1_max - spec.f1_min) / 7)

    def test_bijection_against_nested_loops(self):
        spec = make_spec(5, 3)
        expected = []
        for b in range(3):
            for a in range(5):
                expected.append((
                    spec.f0_min + (spec.f0_max - spec.f0_min) * a / 4,
                    spec.f1_min + (spec.f1_max - spec.f1_min) * b / 2,
                ))
        got = [(index_to_params(spec, i).f0, index_to_params(spec, i).f1)
               for i in range(15)]
        assert got == expected
        assert len(set(got)) == 15

    def test_single_count_axis_pins_to_min(self):
        spec = make_spec(4, 1)
        assert index_to_params(spec, 2).f1 == spec.f1_min

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            index_to_params(make_spec(), 64)


class TestLattice:
    @pytest.mark.parametrize("n_f0,n_f1", [(8, 8), (1, 8), (8, 1), (1, 1), (7, 5)])
    def test_arrays_equal_the_scalar_closed_form(self, n_f0, n_f1):
        spec = make_spec(n_f0, n_f1)

        def axis(lo, hi, count, i):
            return lo if count == 1 else lo + (hi - lo) * i / (count - 1)

        params = lattice(spec, np.arange(bank_size(spec)))
        f0, f1 = params.f0, params.f1
        for i in range(bank_size(spec)):
            a, b = i % n_f0, i // n_f0
            assert f0[i] == axis(spec.f0_min, spec.f0_max, n_f0, a)
            assert f1[i] == axis(spec.f1_min, spec.f1_max, n_f1, b)
            p = index_to_params(spec, i)
            assert (p.f0, p.f1) == (f0[i], f1[i])

    def test_scalar_index_gives_zero_d_fields(self):
        spec = make_spec(7, 5)
        params = lattice(spec, 23)
        assert (np.ndim(params.f0), np.ndim(params.f1), params.dur) == (0, 0, spec.dur)
        block = lattice(spec, [[23]])
        assert (block.f0.shape, block.f1.shape) == ((1, 1), (1, 1))
        assert (params.f0, params.f1) == (block.f0[0, 0], block.f1[0, 0])

    def test_rejects_any_index_outside(self):
        with pytest.raises(ValidationError, match="template index 64 outside"):
            lattice(make_spec(), np.array([3, 64, 2]))
        with pytest.raises(ValidationError, match="outside"):
            lattice(make_spec(), np.array([-1]))


class TestTukeyWindow:
    @pytest.mark.parametrize("m", [2, 3, 10, 11, 255, 256, 512, 4097])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.37, 0.5, 0.99])
    def test_equals_scipy_bit_for_bit(self, m, alpha):
        assert np.array_equal(tukey_window(m, alpha), tukey(m, alpha=alpha))


class TestWaveform:
    def test_degenerate_chirp_is_windowed_cosine(self):
        # the quarter-cycle copy of a constant-frequency chirp
        sig = chirps(ChirpParams(f0=64.0, f1=0.0, dur=0.5), QUADRATURE, 512.0, 512)[1]
        ts = waveform(ChirpParams(f0=64.0, f1=0.0, dur=0.5), fs=512.0, m=512)
        n_sig = 256
        t = np.arange(n_sig) / 512.0
        expected = np.cos(2 * np.pi * 64.0 * t) * tukey(n_sig, alpha=0.1)
        np.testing.assert_allclose(sig, expected, atol=1e-12)
        assert np.all(ts.samples[n_sig:] == 0.0)
        # interior samples are untouched by the taper
        core = slice(n_sig // 4, 3 * n_sig // 4)
        np.testing.assert_allclose(sig[core], np.cos(2 * np.pi * 64.0 * t)[core],
                                   atol=1e-12)

    def test_one_chirp_equals_a_one_element_block(self):
        one = chirps(ChirpParams(f0=64.0, f1=7.5, dur=0.5), QUADRATURE, 512.0, 512)
        block = chirps(ChirpParams(f0=np.array([64.0]), f1=np.array([7.5]), dur=0.5),
                       QUADRATURE, 512.0, 512)
        assert one.shape == (len(QUADRATURE), 256)
        assert block.shape == (len(QUADRATURE), 1, 256)
        assert np.array_equal(one, block[:, 0])

    def test_aliasing_guard(self):
        with pytest.raises(ValidationError, match="Nyquist"):
            waveform(ChirpParams(f0=400.0, f1=300.0, dur=1.0), fs=1024.0, m=2048)

    def test_fit_guard(self):
        with pytest.raises(ValidationError):
            waveform(ChirpParams(f0=50.0, f1=0.0, dur=2.0), fs=512.0, m=512)

    def test_deterministic(self):
        p = ChirpParams(f0=100.0, f1=50.0, dur=1.0)
        a = waveform(p, fs=1024.0, m=2048).samples
        b = waveform(p, fs=1024.0, m=2048).samples
        assert np.array_equal(a, b)


class TestSelfMatchDominance:
    def test_each_template_is_its_own_best_match(self):
        spec = make_spec(4, 4)
        psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
        templates = [
            dsp.complex_template(quadrature_spectra(index_to_params(spec, i), spec.fs,
                                                    spec.m_samples), psd)
            for i in range(bank_size(spec))
        ]
        for i in range(bank_size(spec)):
            data = dsp.forward_fft(waveform(index_to_params(spec, i), spec.fs, spec.m_samples))
            rhos = [dsp.max_snr(dsp.snr_series(dsp.filter_integrand(data, q, psd),
                                               1.0 / spec.fs))[0] for q in templates]
            assert int(np.argmax(rhos)) == i
