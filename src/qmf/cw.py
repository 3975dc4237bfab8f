"""Continuous-wave search cost estimator.

Order-of-magnitude template counts for a fully coherent all-sky search
over frequency and first frequency derivative, and the corresponding
quantum-vs-classical operation-count comparison.  Counts are carried as
reals; the formulas are scaling laws, not integer enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import amplify
from .errors import ValidationError
from .io import read_config

# Reversible-circuit conversion costs a factor 3 in gates, and erasing
# the intermediate registers doubles that.
GATE_FACTOR = 6.0

_F1_REF = 1e-9  # Hz/s reference spin-down range


@dataclass(frozen=True)
class CwSearchSpec:
    """Search extent: frequency, span, bands, and false-negative goal."""

    f_khz: float = 1.0
    t_obs_yr: float = 1.0
    delta_f_hz: float = 1.0
    delta_f1_hz_s: float = 1e-9
    delta_target: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("f_khz", "t_obs_yr", "delta_f_hz", "delta_f1_hz_s"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 < self.delta_target < 1.0:
            raise ValidationError(
                f"delta_target must be in (0, 1), got {self.delta_target}"
            )

    @classmethod
    def from_config(cls, cfg: dict) -> "CwSearchSpec":
        return cls(**read_config(cfg, "CW", {f.name: float for f in fields(cls)}))


def n_total(spec: CwSearchSpec) -> float:
    """Templates for the entire sky, frequency band and spin-down range."""
    return (2e28 * spec.f_khz**2 * spec.t_obs_yr**3
            * spec.delta_f_hz * (spec.delta_f1_hz_s / _F1_REF))


def n_sky_f1(spec: CwSearchSpec) -> float:
    """Templates over sky position and spin-down; the FFT removes f0."""
    return 1e20 * spec.f_khz**2 * spec.t_obs_yr**2 * (spec.delta_f1_hz_s / _F1_REF)


def n_f0(spec: CwSearchSpec) -> float:
    """Intrinsic-frequency templates handled jointly by one FFT pass."""
    return 2e8 * spec.t_obs_yr


def quantum_cost(spec: CwSearchSpec) -> dict:
    """Operation-count comparison in units of one per-template cost.

    The quantum side pays ``ell`` detection repetitions of the full
    ``2**p - 1`` ladder, each iteration costing ``GATE_FACTOR`` times
    the classical per-template work; the classical side evaluates every
    sky/spin-down template once.  A spec whose template counts overflow
    a float is rejected.
    """
    try:
        n, total = n_sky_f1(spec), n_total(spec)
    except OverflowError:
        n = total = math.inf
    if not (math.isfinite(n) and math.isfinite(total)):
        raise ValidationError("template counts exceed the float range")
    p = amplify.choose_p(n)
    ell = amplify.repetitions_for(spec.delta_target)
    iterations = ell * (2.0**p - 1.0)
    quantum_ops = GATE_FACTOR * iterations
    return {
        "n_total": total,
        "n_sky_f1": n,
        "n_f0": n_f0(spec),
        "p": p,
        "ell": ell,
        "iterations": iterations,
        "gate_factor": GATE_FACTOR,
        "quantum_ops": quantum_ops,
        "classical_ops": n,
        "speedup": n / quantum_ops,
    }
