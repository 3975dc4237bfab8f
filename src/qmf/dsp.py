"""Classical matched-filtering engine.

Spectra, Welch noise estimates, normalized templates and the
whitened-correlation SNR series that the search oracle thresholds.
Conventions, fixed once here and relied on everywhere else:

* forward transform is the plain unnormalized DFT, kept one-sided with
  the originating length ``m_time`` for exact inversion;
* the analysis band is every one-sided bin but DC and, for even
  lengths, Nyquist: the contiguous bins 1 .. (m_time + 1) // 2 - 1;
* template normalization divides by sigma with
  sigma^2 = sum_band |s(f_k)|^2 / S_n(f_k) * df, and the SNR series is
  rho(t_j) = 2/(M dt) * |sum_band conj(Qc(f_k)) h(f_k) / S_n(f_k)
  exp(2 pi i j k / M)|.

The engine knows no template family and imports no other layer:
:mod:`qmf.bank` makes the quadrature spectra that :func:`complex_template` combines.

All operations are pure functions of value-like inputs and are safe to
call concurrently, except two that reuse a buffer they are given:
:func:`complex_template` normalizes and combines in its pair's buffer,
so it consumes the pair, and :func:`snr_series` transforms the integrand
it is given in place.  :func:`complex_template`,
:func:`filter_integrand` and :func:`filter_series` also take an ``out=``
array for their result, so that a caller filtering block after block
allocates its buffers once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError


@dataclass(eq=False)
class TimeSeries:
    """Uniformly sampled strain, ``samples[j]`` at time ``t0 + j*dt``."""

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValidationError("time series needs at least 2 samples")
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        bad = np.flatnonzero(~np.isfinite(self.samples))
        if bad.size:
            raise NonFiniteError(f"non-finite sample at index {bad[0]}")

    @property
    def m(self) -> int:
        return self.samples.size


@dataclass(eq=False)
class FrequencySeries:
    """One-sided spectra along the last axis: bins k = 0..floor(m_time/2), spacing df.

    Leading axes, if any, index templates; the functions below work
    row by row along the last axis.
    """

    bins: np.ndarray
    df: float
    m_time: int

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim == 0:
            raise ValidationError("spectrum needs a frequency axis")
        if self.bins.shape[-1] != self.m_time // 2 + 1:
            raise ValidationError(
                f"{self.bins.shape[-1]} bins inconsistent with m_time={self.m_time}"
            )
        if not self.df > 0.0:
            raise ValidationError(f"df must be positive, got {self.df}")
        if not np.isfinite(self.bins).all():
            raise NonFiniteError("non-finite spectrum bin")


@dataclass(eq=False)
class Psd:
    """One-sided noise power spectral density (strain^2/Hz)."""

    values: np.ndarray
    df: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValidationError("PSD needs at least 2 bins")
        if not self.df > 0.0:
            raise ValidationError(f"df must be positive, got {self.df}")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise NonFiniteError("PSD values must be finite and non-negative")


@dataclass(eq=False)
class SnrSeries:
    """Matched-filter SNR magnitude at every time offset."""

    rho: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.ndim != 1 or self.rho.size == 0:
            raise ValidationError("SNR series must be non-empty")
        if not np.isfinite(self.rho).all():
            raise NonFiniteError("non-finite SNR series")


def band(m_time: int) -> slice:
    """The analysis band: DC excluded, and Nyquist when ``m_time`` is even."""
    return slice(1, (m_time + 1) // 2)


def forward_fft(ts: TimeSeries) -> FrequencySeries:
    """One-sided DFT, bins[k] = sum_j samples[j] exp(-2 pi i j k / M)."""
    return FrequencySeries(
        bins=np.fft.rfft(ts.samples), df=1.0 / (ts.m * ts.dt), m_time=ts.m
    )


def estimate_psd(ts: TimeSeries, seg_len: int) -> Psd:
    """Welch PSD: mean of Hann-windowed periodograms, segments overlapping by half.

    Normalized so white Gaussian noise of variance sigma^2 averages to
    2 sigma^2 dt across the band.  The arithmetic is that of
    ``scipy.signal.welch(samples, fs, window="hann", nperseg=seg_len,
    noverlap=seg_len // 2)``, operation for operation, so the two are
    equal bit for bit without the import of ``scipy.signal``.
    """
    if seg_len > ts.m:
        raise ValidationError(f"seg_len={seg_len} exceeds series length {ts.m}")
    if seg_len < 2:
        raise ValidationError("seg_len must be at least 2")
    hop = seg_len - seg_len // 2
    n_segments = 1 + (ts.m - seg_len) // hop
    if n_segments < 2:
        raise ValidationError("need at least 2 segments to average")
    period = 1.0 / (1.0 / ts.dt)  # scipy's 1/fs, which can differ from dt in the last bit
    # Periodic Hann: the symmetric window over seg_len + 1 points, last one dropped.
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, seg_len + 1)))[:-1]
    # Density scaling; the built-in sum adds in order, as scipy's does.
    win = win * (1.0 / np.sqrt(sum(win ** 2) / period))
    segments = np.lib.stride_tricks.sliding_window_view(ts.samples, seg_len)[::hop]
    # Laid out (frequency, segment), so the mean adds each bin's segments as scipy's does, and
    # filled a block of segments at a time: an eighth of the series (one segment at least), as
    # is each copy that a block makes.
    power = np.empty((seg_len // 2 + 1, n_segments))
    per_block = max(1, ts.m // (8 * seg_len))
    for start in range(0, n_segments, per_block):
        block = segments[start:start + per_block]
        block = block - block.mean(axis=-1, keepdims=True)
        spectra = np.fft.rfft(block * win, axis=-1)
        power[:, start:start + per_block] = (spectra.real ** 2 + spectra.imag ** 2).T
    power[1:-1 if seg_len % 2 == 0 else None] *= 2
    psd = Psd(values=power.mean(axis=-1), df=float(np.fft.rfftfreq(seg_len, period)[1]))
    if not (psd.values[band(seg_len)] > 0.0).all():
        raise ValidationError("estimated PSD is not positive on the analysis band")
    return psd


def white_psd(m_time: int, dt: float, sigma: float = 1.0) -> Psd:
    """Flat one-sided PSD of white noise with per-sample deviation sigma."""
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    n_bins = m_time // 2 + 1
    return Psd(values=np.full(n_bins, 2.0 * sigma * sigma * dt), df=1.0 / (m_time * dt))


def interpolate_psd(psd: Psd, m_time: int, dt: float) -> Psd:
    """Resample a PSD onto the one-sided grid of an M-point analysis."""
    df = 1.0 / (m_time * dt)
    f_new = np.arange(m_time // 2 + 1) * df
    f_old = np.arange(psd.values.size) * psd.df
    return Psd(values=np.interp(f_new, f_old, psd.values), df=df)


def same_grid(step: float, other: float) -> bool:
    """Whether two spacings, of bins or of samples, are one grid: equal to a relative 1e-9."""
    return math.isclose(step, other, rel_tol=1e-9)


def _analysis_band(*series: FrequencySeries, psd: Psd) -> slice:
    """The analysis band of spectra on one grid, checked against the PSD."""
    n_bins = series[0].bins.shape[-1]
    df = series[0].df
    for s in series[1:]:
        if s.bins.shape[-1] != n_bins or not same_grid(s.df, df):
            raise ValidationError("frequency series are on different grids")
    if psd.values.size != n_bins or not same_grid(psd.df, df):
        raise ValidationError("PSD grid does not match the spectra")
    in_band = band(series[0].m_time)
    if (psd.values[in_band] <= 0.0).any():
        raise ValidationError("PSD vanishes inside the analysis band")
    return in_band


def _sigma(s: FrequencySeries, psd: Psd) -> np.ndarray:
    """Each row's sigma, sqrt(sum_band |s_k|^2 / S_n(f_k) * df), with a trailing axis.

    Refuses a template with no energy in the band and a PSD that
    vanishes inside it.  Holds one band-sized float copy of the spectra.
    """
    in_band = _analysis_band(s, psd=psd)
    power = np.abs(s.bins[..., in_band])
    np.square(power, out=power)
    np.divide(power, psd.values[in_band], out=power)
    sigma_sq = np.sum(power, axis=-1) * s.df
    if (sigma_sq <= 0.0).any():
        raise ValidationError("template has zero energy in the analysis band")
    return np.sqrt(sigma_sq)[..., None]


def normalize_template(s: FrequencySeries, psd: Psd) -> FrequencySeries:
    """Scale each template spectrum (row) to unit noise-weighted norm.

    Divides by sigma with sigma^2 = sum_band |s_k|^2 / S_n(f_k) * df.
    Invariant under positive rescaling of the input; rejects templates
    with no energy in the band and PSDs that vanish inside it.
    """
    return FrequencySeries(bins=s.bins / _sigma(s, psd), df=s.df, m_time=s.m_time)


def complex_template(pair: FrequencySeries, psd: Psd,
                     out: np.ndarray | None = None) -> FrequencySeries:
    """Phase-maximizing complex templates of a quadrature pair, such as ``bank.quadrature_spectra``.

    ``pair.bins[0]`` and ``pair.bins[1]`` hold a template's spectra at a
    phase and a quarter cycle later, one row per template.  Each is
    normalized and they are combined as (Q0 - i Qq)/2.  Under exact
    quadrature this collapses to Q0 alone, and in general |z| of the
    filtered output is independent of the signal phase while Re z
    recovers the phase-0 filter output.

    The pair is consumed: it is normalized and combined in its own
    buffer, so a caller must not use it again.  The templates go into
    ``out`` (``pair.bins[0]`` itself may be given), or else into a fresh
    array, and the pair's buffer is dropped.
    """
    q = pair.bins
    q /= _sigma(pair, psd)
    q[1] *= 1j
    out = np.subtract(q[0], q[1], out=out)
    out *= 0.5
    return FrequencySeries(bins=out, df=pair.df, m_time=pair.m_time)


def filter_integrand(data: FrequencySeries, template: FrequencySeries,
                     psd: Psd, out: np.ndarray | None = None) -> np.ndarray:
    """conj(Q_k) h_k / S_n(f_k) on the band, zero elsewhere, per template row.

    Full length M along the last axis: the buffer that :func:`filter_series`
    and :func:`snr_series` transform in place.  It is ``out`` when given,
    whose bins outside the band are zeroed again, or else a fresh array.
    """
    in_band = _analysis_band(data, template, psd=psd)
    shape = template.bins.shape[:-1] + (data.m_time,)
    integrand = np.empty(shape, dtype=np.complex128) if out is None else out
    integrand[..., :in_band.start] = 0.0
    integrand[..., in_band.stop:] = 0.0
    weighted = np.conj(template.bins[..., in_band], out=integrand[..., in_band])
    weighted *= data.bins[..., in_band]
    weighted /= psd.values[in_band]
    return integrand


def _transform(integrand: np.ndarray) -> np.ndarray:
    """z = 2/M * sum_k integrand_k e^{2 pi i jk/M}, computed in the integrand's buffer."""
    m = integrand.shape[-1]
    z = np.fft.ifft(integrand, axis=-1, out=integrand)
    z *= m  # ifft carries 1/M; the sum does not
    z *= 2.0 / m
    return z


def filter_series(data: FrequencySeries, template: FrequencySeries, psd: Psd,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Complex matched-filter output of one data spectrum, per template row.

    z(t_j) = 2/(M dt) * sum_band conj(Q_k) (dt h_k) / S_n(f_k) e^{2 pi i jk/M},
    where dt*h_k calibrates the raw DFT of the data to the continuum
    transform; the dt factors cancel into an overall 2/M on raw bins.
    With this calibration pure unit-variance noise gives E[|z|^2] = 2,
    so z is on the conventional SNR scale.  For a real template's
    spectrum, Re z is the signed phase-0 filter output and |z| the
    phase-maximized SNR.  The result has the template's leading axes, in
    ``out`` when given (see :func:`filter_integrand`).
    """
    return _transform(filter_integrand(data, template, psd, out))


def snr_series(integrand: np.ndarray, dt: float) -> SnrSeries:
    """SNR series rho(t_j) = |z(t_j)| of one :func:`filter_integrand`, ``dt`` apart.

    The transform runs in place: ``integrand`` holds z afterwards.
    """
    return SnrSeries(rho=np.abs(_transform(integrand)), dt=dt)


def max_snr(snr: SnrSeries) -> tuple[float, int]:
    """Peak SNR and the first index attaining it."""
    j = int(np.argmax(snr.rho))
    return float(snr.rho[j]), j
