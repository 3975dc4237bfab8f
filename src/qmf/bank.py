"""Template parameterization and synthetic chirp generation.

Templates are linear chirps sin(2 pi (f0 t + f1 t^2 / 2)) at phase 0 on a
regular (f0, f1) lattice, indexed row-major with f0 varying fastest.
The search filters each with its quarter-cycle copy, phase pi/2 (the
``QUADRATURE`` pair), which maximizes over the signal's unknown phase.
The family keeps the full matched-filtering structure (frequency
evolution, phase maximization) while staying exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import ValidationError
from .io import read_config

# Fraction of the chirp tapered at each end; unwindowed truncation
# leaks enough to break self-match dominance on coarse lattices.
TAPER_FRAC = 0.05

# The bank config's keys, each with the kind it converts to, in the order
# of BankSpec's fields.
_CONFIG_KINDS = {"f0_min": float, "f0_max": float, "n_f0": int, "f1_min": float,
                 "f1_max": float, "n_f1": int, "fs_hz": float, "m_samples": int,
                 "dur_s": float}

# The phases of a template's quadrature pair: the chirp and the same chirp
# a quarter cycle later.
QUADRATURE = (0.0, np.pi / 2.0)


@dataclass(frozen=True)
class ChirpParams:
    """Linear chirp at phase 0: start frequency, drift rate, duration; see ``BankSpec``."""

    f0: float
    f1: float
    dur: float


@dataclass(frozen=True)
class BankSpec:
    """Regular (f0, f1) lattice and sampling layout; each of its chirps passes ``check_chirps``."""

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
        n = bank_size(self)
        if n > np.iinfo(np.int64).max:
            raise ValidationError("n_f0 * n_f1 exceeds 2**63 - 1, the most an int64 index holds")
        if self.n_f0 > 1 and not self.f0_max > self.f0_min:
            raise ValidationError("degenerate f0 range with n_f0 > 1")
        if self.n_f1 > 1 and not self.f1_max > self.f1_min:
            raise ValidationError("degenerate f1 range with n_f1 > 1")
        if not self.fs > 0.0:
            raise ValidationError(f"sampling rate must be positive, got {self.fs}")
        # the chirp rules bound f0 and f0 + f1*dur, monotone along both lattice
        # axes, so the four corners hold their extremes
        corners = lattice(self, [0, self.n_f0 - 1, n - self.n_f0, n - 1])
        check_chirps(*corners, self.dur, self.fs, self.m_samples)

    @classmethod
    def from_config(cls, cfg: dict) -> "BankSpec":
        return cls(*read_config(cfg, "bank", _CONFIG_KINDS, tuple(_CONFIG_KINDS)).values())


def bank_size(spec: BankSpec) -> int:
    """Number of templates on the lattice."""
    return spec.n_f0 * spec.n_f1


def _axis_values(lo: float, hi: float, count: int, i: np.ndarray) -> np.ndarray:
    if count == 1:
        return np.full(i.shape, lo)
    return lo + (hi - lo) * i / (count - 1)


def lattice(spec: BankSpec, idx) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form lattice lookup of (f0, f1) arrays, row-major with f0 fastest."""
    idx = np.asarray(idx)
    n = bank_size(spec)
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise ValidationError(f"template index {idx[outside][0]} outside [0, {n})")
    return (_axis_values(spec.f0_min, spec.f0_max, spec.n_f0, idx % spec.n_f0),
            _axis_values(spec.f1_min, spec.f1_max, spec.n_f1, idx // spec.n_f0))


def index_to_params(spec: BankSpec, idx: int) -> ChirpParams:
    """Parameters of one template: the one-index call of :func:`lattice`."""
    f0, f1 = lattice(spec, [idx])
    return ChirpParams(f0=float(f0[0]), f1=float(f1[0]), dur=spec.dur)


def tukey_window(m: int, alpha: float) -> np.ndarray:
    """Tukey window of m points for 0 < alpha < 1.

    Same formula and operations as ``scipy.signal.windows.tukey(m, alpha)``,
    so equal to it bit for bit, without the import of ``scipy.signal``
    (over a second per process).
    """
    n = np.arange(m, dtype=np.float64)
    width = int(math.floor(alpha * (m - 1) / 2.0))
    n1 = n[:width + 1]
    n3 = n[m - width - 1:]
    w = np.ones(m)
    w[:width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n1 / alpha / (m - 1))))
    w[m - width - 1:] = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n3 / alpha / (m - 1))))
    return w


def check_chirps(f0: np.ndarray, f1: np.ndarray, dur: float, fs: float, m: int) -> int:
    """The chirp rules for every (f0[j], f1[j]); returns n_sig = round(dur * fs).

    Refuses a start frequency or duration that is not positive, an
    instantaneous frequency that goes non-positive or reaches the
    Nyquist frequency anywhere in [0, dur), and a dur * fs that is not
    finite or rounds to an n_sig outside [2, m].
    """
    bad = ~(f0 > 0.0)
    if bad.any():
        raise ValidationError(f"start frequency must be positive, got {f0[bad][0]}")
    if not dur > 0.0:
        raise ValidationError(f"duration must be positive, got {dur}")
    f_end = f0 + f1 * dur
    if not (f_end > 0.0).all():
        raise ValidationError("instantaneous frequency goes non-positive")
    if not math.isfinite(dur * fs):
        raise ValidationError(f"a chirp of {dur} s at {fs} Hz spans no finite sample count")
    n_sig = int(round(dur * fs))
    if n_sig < 2:
        raise ValidationError("chirp spans fewer than 2 samples")
    if n_sig > m:
        raise ValidationError(f"chirp of {n_sig} samples does not fit in {m} samples")
    f_peak = np.maximum(f0, f_end)
    bad = f_peak >= fs / 2.0
    if bad.any():
        raise ValidationError(
            f"instantaneous frequency {f_peak[bad][0]} Hz reaches Nyquist {fs / 2.0} Hz"
        )
    return n_sig


def chirps(f0, f1, phases, dur: float, fs: float, m: int) -> np.ndarray:
    """Tapered chirps over [0, dur) for every phase and every (f0[j], f1[j]).

    Returns shape ``(len(phases), len(f0), n_sig)``, not zero-padded,
    after :func:`check_chirps` has passed every chirp.
    """
    f0 = np.asarray(f0, dtype=np.float64)
    f1 = np.asarray(f1, dtype=np.float64)
    n_sig = check_chirps(f0, f1, dur, fs, m)
    t = np.arange(n_sig) / fs
    sweep = 2.0 * np.pi * (f0[:, None] * t + 0.5 * f1[:, None] * t * t)
    taper = tukey_window(n_sig, 2.0 * TAPER_FRAC)
    out = np.empty((len(phases), f0.size, n_sig))
    for row, phi0 in zip(out, phases):
        np.sin(phi0 + sweep, out=row)
        row *= taper
    return out


def waveform(params: ChirpParams, fs: float, m: int) -> dsp.TimeSeries:
    """Tapered chirp over [0, dur), zero-padded to m samples (see :func:`chirps`)."""
    sig = chirps([params.f0], [params.f1], (0.0,), params.dur, fs, m)[0, 0]
    out = np.zeros(m)
    out[:sig.size] = sig
    return dsp.TimeSeries(samples=out, dt=1.0 / fs)
