"""Template parameterization and synthetic chirp generation.

Templates are linear chirps sin(phi0 + 2 pi (f0 t + f1 t^2 / 2)) on a
regular (f0, f1) lattice, indexed row-major with f0 varying fastest.
The family keeps the full matched-filtering structure (frequency
evolution, phase maximization) while staying exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import TimeSeries
from .errors import ValidationError

# Fraction of the chirp tapered at each end; unwindowed truncation
# leaks enough to break self-match dominance on coarse lattices.
TAPER_FRAC = 0.05

_CONFIG_KEYS = ("f0_min", "f0_max", "n_f0", "f1_min", "f1_max", "n_f1",
                "fs_hz", "m_samples", "dur_s")


@dataclass(frozen=True)
class ChirpParams:
    """Linear chirp: start frequency, drift rate, duration, initial phase."""

    f0: float
    f1: float
    dur: float
    phi0: float = 0.0

    def __post_init__(self) -> None:
        if not self.f0 > 0.0:
            raise ValidationError(f"start frequency must be positive, got {self.f0}")
        if not self.dur > 0.0:
            raise ValidationError(f"duration must be positive, got {self.dur}")
        if not self.f0 + self.f1 * self.dur > 0.0:
            raise ValidationError("instantaneous frequency goes non-positive")

    def freq_at(self, t: float) -> float:
        """Instantaneous frequency f0 + f1*t of the phase derivative."""
        return self.f0 + self.f1 * t


@dataclass(frozen=True)
class BankSpec:
    """Regular lattice over (f0, f1) plus the common sampling layout."""

    f0_min: float
    f0_max: float
    n_f0: int
    f1_min: float
    f1_max: float
    n_f1: int
    fs: float
    m_samples: int
    dur: float

    def __post_init__(self) -> None:
        if self.n_f0 < 1 or self.n_f1 < 1:
            raise ValidationError("lattice counts must be at least 1")
        if self.n_f0 > 1 and not self.f0_max > self.f0_min:
            raise ValidationError("degenerate f0 range with n_f0 > 1")
        if self.n_f1 > 1 and not self.f1_max > self.f1_min:
            raise ValidationError("degenerate f1 range with n_f1 > 1")
        if not self.fs > 0.0:
            raise ValidationError(f"sampling rate must be positive, got {self.fs}")
        if self.m_samples < 2:
            raise ValidationError("need at least 2 samples")
        if not self.dur > 0.0:
            raise ValidationError(f"duration must be positive, got {self.dur}")

    @classmethod
    def from_config(cls, cfg: dict) -> "BankSpec":
        missing = [k for k in _CONFIG_KEYS if k not in cfg]
        if missing:
            raise ValidationError(f"bank config missing keys: {missing}")
        return cls(
            f0_min=float(cfg["f0_min"]), f0_max=float(cfg["f0_max"]),
            n_f0=int(cfg["n_f0"]),
            f1_min=float(cfg["f1_min"]), f1_max=float(cfg["f1_max"]),
            n_f1=int(cfg["n_f1"]),
            fs=float(cfg["fs_hz"]), m_samples=int(cfg["m_samples"]),
            dur=float(cfg["dur_s"]),
        )


def bank_size(spec: BankSpec) -> int:
    """Number of templates on the lattice."""
    return spec.n_f0 * spec.n_f1


def _axis_value(lo: float, hi: float, count: int, i: int) -> float:
    if count == 1:
        return lo
    return lo + (hi - lo) * i / (count - 1)


def index_to_params(spec: BankSpec, idx: int) -> ChirpParams:
    """Closed-form lattice lookup, row-major with f0 fastest."""
    n = bank_size(spec)
    if idx < 0 or idx >= n:
        raise ValidationError(f"template index {idx} outside [0, {n})")
    a, b = idx % spec.n_f0, idx // spec.n_f0
    return ChirpParams(
        f0=_axis_value(spec.f0_min, spec.f0_max, spec.n_f0, a),
        f1=_axis_value(spec.f1_min, spec.f1_max, spec.n_f1, b),
        dur=spec.dur,
    )


def waveform(params: ChirpParams, fs: float, m: int) -> TimeSeries:
    """Tapered chirp over [0, dur), zero-padded to m samples.

    Rejects chirps whose instantaneous frequency reaches the Nyquist
    frequency anywhere in [0, dur).
    """
    n_sig = int(round(params.dur * fs))
    if n_sig < 2:
        raise ValidationError("chirp spans fewer than 2 samples")
    if n_sig > m:
        raise ValidationError(
            f"chirp of {n_sig} samples does not fit in {m} samples"
        )
    f_peak = max(params.f0, params.freq_at(params.dur))
    if f_peak >= fs / 2.0:
        raise ValidationError(
            f"instantaneous frequency {f_peak} Hz reaches Nyquist {fs / 2.0} Hz"
        )
    # deferred: scipy.signal dominates the import time of every command
    from scipy.signal.windows import tukey

    t = np.arange(n_sig) / fs
    phase = params.phi0 + 2.0 * np.pi * (params.f0 * t + 0.5 * params.f1 * t * t)
    sig = np.sin(phase) * tukey(n_sig, alpha=2.0 * TAPER_FRAC)
    out = np.zeros(m)
    out[:n_sig] = sig
    return TimeSeries(samples=out, dt=1.0 / fs)
