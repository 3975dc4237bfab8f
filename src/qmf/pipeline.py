"""Detection and retrieval orchestration with oracle-call accounting.

Runs the count-then-retrieve procedure at realistic bank sizes by
combining the classical match oracle (:mod:`qmf.dsp` + :mod:`qmf.bank`)
with the analytic counting model (:mod:`qmf.amplify`).  The quantum
measurement is emulated by sampling the exact outcome distribution,
with the true match count established classically during scenario
setup; this reproduces the algorithm's statistics without claiming
quantum execution.

Detection and retrieval take their ``Scenario`` (n, p, the strategy,
the match set, the round limit); the match count r is ``len(match_set)``.
The match set is ``range(r)`` when synthetic, or else the sorted int64
index array that the bank search returns, kept as it is to the draw.

Charge model: one detection costs ``2**p - 1`` oracle queries (the
controlled-iteration ladder), one retrieval attempt costs ``k* + 1``
(the Grover ladder plus one classical verification of the returned
candidate).

Detection and retrieval draw scalars from a :mod:`qmf.seeding` stream,
numpy's PCG64 bit for bit, without loading ``numpy.random``: ``detect``
and ``retrieve`` draw from the stream ``np.random.default_rng(seed)``
starts.  Trials are independent: trial t draws from the stream
``np.random.default_rng((seed, t))`` starts, so results do not depend on
execution order, and a span of trials seeds its streams at once.  A
vector or a normal draw (``count_detections``, an injection's noise)
takes numpy's ``Generator``.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import statistics
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import amplify, bank, dsp, fanout, seeding
from .errors import NonFiniteError, ValidationError, check_bytes
from .io import read_config

DEFAULT_MAX_ATTEMPTS = 10_000


@dataclass
class OracleCounter:
    """Running tally of match-predicate evaluations charged."""

    evaluations: int = 0

    def add(self, k: int) -> None:
        if k < 0:
            raise ValidationError("cannot charge a negative evaluation count")
        self.evaluations += k


class RetrievalStrategy(enum.Enum):
    """How to schedule recounts between retrieval attempts."""

    REUSE_K = "reuse_k"
    RECOUNT_EACH_TRY = "recount_each_try"

    @classmethod
    def parse(cls, name: str) -> "RetrievalStrategy":
        try:
            return cls(name.strip().lower().replace("-", "_"))
        except (AttributeError, ValueError):
            names = " or ".join(repr(s.value) for s in cls)
            raise ValidationError(f"unknown strategy {name!r}; use {names}") from None


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial ledger of one retrieve-until-success run, fields in output order."""

    succeeded: bool
    returned_index: int | None
    attempts: int
    oracle_evals: int


# ---------------------------------------------------------------------------
# classical oracle

# Working-set budget of the blocks of templates that the search's workers
# hold at once, one block each.  A search makes the buffers of one block once,
# and each worker writes its own copy of them: per template row the pair's
# spectra (16 M bytes), normalized and combined in place, and the integrand
# that the inverse FFT overwrites (16 M); |z| (8 M) goes into the pair's
# buffer once the integrand holds the filter.  Beside them a block makes its
# chirp pair (16 M at n_sig = M) from a phase sweep (8 M), 24 M at most, and
# the normalization a band copy of |s|^2 (8 M): 56 M at the peak.
# Budgeted as 64 M bytes a row.
_BLOCK_BYTES = 32 << 20
_SAMPLE_BYTES = 64  # the 64 of 64 M, held by each worker for the whole search


def _rows_held(m_samples: int) -> int:
    """Rows that the workers' blocks hold together: as many as fit the budget, at least 1."""
    return max(1, _BLOCK_BYTES // (_SAMPLE_BYTES * m_samples))


def _search_blocks(m_samples: int) -> tuple[int, int]:
    """Workers and rows a block: the blocks that the workers hold at once fit the budget."""
    fit = _rows_held(m_samples)
    w = min(fanout.cpus(), fit)
    return w, fit // w


def _peak_snrs(spec: bank.BankSpec, data: dsp.FrequencySeries, psd: dsp.Psd,
               idx: range) -> np.ndarray:
    """Peak SNR of every template in ``idx``, one block of rows per worker at a time.

    The block buffers are made once, before the workers fork, and every block
    reuses them; a short last block uses their leading rows.  The parent never
    writes them, so each worker's first write makes its own pages.
    """
    w, rows = _search_blocks(spec.m_samples)
    m = spec.m_samples
    size = min(rows, len(idx))  # a bank smaller than a block is one block
    pair = np.empty((2, size, m // 2 + 1), dtype=np.complex128)
    integrand = np.empty((size, m), dtype=np.complex128)
    rho = pair.reshape(-1).view(np.float64)  # |z|, once the integrand holds the filter

    def block(start: int) -> np.ndarray:
        n = min(rows, len(idx) - start)
        spectra = bank.quadrature_spectra(bank.lattice(spec, idx[start:start + n]), spec.fs,
                                          m, out=pair[:, :n])
        qc = dsp.complex_template(spectra, psd, out=spectra.bins[0])
        z = dsp.filter_series(data, qc, psd, out=integrand[:n])
        peaks = np.abs(z, out=rho[:n * m].reshape(n, m)).max(axis=-1)
        bad = np.flatnonzero(~np.isfinite(peaks))  # a NaN would silently miss the threshold
        if bad.size:
            raise NonFiniteError(f"template {idx[start + bad[0]]} has a non-finite peak SNR")
        return peaks

    peaks = np.empty(len(idx))
    starts = range(0, len(idx), rows)
    for block_peaks, start in zip(fanout.fan_out(block, starts, w), starts):
        peaks[start:start + rows] = block_peaks
    return peaks


def _oracle(spec: bank.BankSpec, data: dsp.FrequencySeries, psd: dsp.Psd, idx: range,
            rho_thr: float, counter: OracleCounter) -> np.ndarray:
    """The sorted int64 offsets into ``idx`` where f(i), peak SNR >= rho_thr, is 1."""
    if not rho_thr > 0.0:  # refused before any template is made
        raise ValidationError(f"threshold must be positive, got {rho_thr}")
    hits = _peak_snrs(spec, data, psd, idx) >= rho_thr
    counter.add(len(idx))  # one query a template, once the search has returned
    return np.flatnonzero(hits)


def oracle_eval(spec: bank.BankSpec, data: dsp.FrequencySeries, psd: dsp.Psd, i: int,
                rho_thr: float, counter: OracleCounter) -> int:
    """The match predicate f(i) of one template, charged 1."""
    return _oracle(spec, data, psd, range(i, i + 1), rho_thr, counter).size


def classical_search(spec: bank.BankSpec, data: dsp.FrequencySeries, psd: dsp.Psd,
                     rho_thr: float, counter: OracleCounter) -> np.ndarray:
    """Exhaustive baseline: f(i) for every template, charged N; the sorted int64 matches."""
    return _oracle(spec, data, psd, range(bank.bank_size(spec)), rho_thr, counter)


# ---------------------------------------------------------------------------
# distribution-level quantum procedures

def signal_detection(scenario: Scenario, rng: seeding.Stream,
                     counter: OracleCounter) -> amplify.CountEstimate:
    """One counting run: sample an outcome b and decode it.

    Charges the full controlled ladder of ``2**p - 1`` oracle queries.
    With no matches the outcome is 0 with certainty, so the procedure can
    never raise a false alarm.
    """
    b = amplify.sample_b(scenario.cdf, rng)
    counter.add((1 << scenario.p) - 1)
    return amplify.estimate_from_b(b, scenario.p, scenario.n)


def count_detections(n: int, r_true: int, p: int, trials: int, seed: int) -> int:
    """Number of detected (b != 0) outcomes over many independent runs."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    u = np.random.default_rng(seed).random(trials)
    # a draw reads b != 0 exactly when u reaches the cdf's first value, P(0)
    p0 = amplify.outcome_probs(n, r_true, p, 0, 1)[0]
    return int(np.count_nonzero(u >= p0))


def template_retrieval(scenario: Scenario, k_star: int, rng: seeding.Stream,
                       counter: OracleCounter) -> int | None:
    """One amplification run: succeed with probability sin^2((2k*+1) theta).

    On success returns a uniformly random element of the match set.
    Charges ``k*`` ladder queries plus one verification query.
    """
    match_set = scenario.match_set
    if k_star < 0:
        raise ValidationError(f"iteration count k*={k_star} must be >= 0")
    if len(match_set) == 0:
        raise ValidationError("retrieval needs at least one true match")
    counter.add(k_star + 1)
    if rng.random() < _success_prob(scenario.n, len(match_set), k_star):
        return int(match_set[int(rng.integers(len(match_set)))])
    return None


@functools.lru_cache
def _success_prob(n: int, r: int, k_star: int) -> float:
    """sin^2((2k*+1) theta) of one attempt, kept: a trial repeats its attempts."""
    return amplify.p_match(amplify.theta_of(n, r), k_star)


def retrieve_until_success(scenario: Scenario, rng: seeding.Stream,
                           counter: OracleCounter) -> TrialRecord:
    """Repeat detection/retrieval until a match comes back.

    REUSE_K keeps the first decoded k* across retries and only recounts
    after a b = 0 outcome (which decodes to "no match", leaving no k*
    to reuse).  RECOUNT_EACH_TRY pays for a fresh detection before
    every retrieval attempt.
    """
    if scenario.r_true < 1:
        raise ValidationError("retrieval needs at least one true match")
    start = counter.evaluations
    attempts = 0
    rounds = 0
    k_star: int | None = None
    found: int | None = None
    while found is None and rounds < scenario.max_attempts:
        rounds += 1
        if k_star is None or scenario.strategy is RetrievalStrategy.RECOUNT_EACH_TRY:
            outcome = signal_detection(scenario, rng, counter)
            if not outcome.detected:
                k_star = None
                continue
            k_star = outcome.k_star
        attempts += 1
        found = template_retrieval(scenario, k_star, rng, counter)
    return TrialRecord(succeeded=found is not None, returned_index=found, attempts=attempts,
                       oracle_evals=counter.evaluations - start)


# ---------------------------------------------------------------------------
# scenarios and Monte Carlo benchmarking

@dataclass(frozen=True)
class Scenario:
    """A fully specified detection/retrieval experiment.

    Either synthetic (n, r given directly; match set is ``range(r)``,
    never built) or derived from a template bank plus an injected
    chirp, in which case the match set is the sorted int64 index array
    that the exhaustive classical search returns during setup.  The
    run's seed (None when there is none) and its Monte Carlo trial count
    (0 when the config has none) ride along for the CLI.  ``cdf`` is the
    ``amplify.StreamedCdf`` that its detections draw from, made with the
    scenario, which refuses a register outside the budget.  It computes no
    chunk before a draw needs one, so a forked Monte Carlo worker scans its own.
    """

    n: int
    p: int
    strategy: RetrievalStrategy
    match_set: Sequence[int] | np.ndarray
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    setup_evals: int = 0
    seed: int | None = None
    trials: int = 0

    @property
    def r_true(self) -> int:
        return len(self.match_set)

    def __post_init__(self) -> None:
        # set as the frozen fields are: a write to the instance's __dict__, as by
        # functools.cached_property, slows every later attribute read in a trial
        object.__setattr__(self, "cdf", amplify.StreamedCdf(self.n, self.r_true, self.p))


def _check_injection_bytes(spec: bank.BankSpec) -> None:
    """Refuse a bank whose injection scenario's arrays would pass the byte budget."""
    # 9 bytes a template for the bank search's float64 peaks and their bool mask
    # (then the mask and the int64 matches), the strain (8 M bytes), its spectrum
    # (16 a one-sided bin) and the rows that the search's blocks hold together
    m = spec.m_samples
    check_bytes("injection scenario", 9 * bank.bank_size(spec) + 8 * m + 16 * (m // 2 + 1)
                + _rows_held(m) * _SAMPLE_BYTES * m)


# The keys of each scenario form with the kind each converts to.
_SCENARIO_KINDS = {"p": int, "strategy": None, "max_attempts": int, "seed": int, "trials": int}
_SYNTHETIC_KINDS = {"n": int, "r": int, **_SCENARIO_KINDS}
_INJECTION_KINDS = {"bank": None, "inject_index": int, "rho_thr": float, "amplitude": float,
                    "noise_sigma": float, "noise_seed": int, **_SCENARIO_KINDS}


def scenario_from_config(cfg: dict, seed: int | None = None) -> Scenario:
    """Build a scenario from the JSON block accepted by the CLI.

    A config with a ``bank`` block (a bank config) is an injection, whose
    match set is computed classically; otherwise it is synthetic, with n
    and r.  p is auto-selected if missing.  ``seed`` (a flag) takes the
    place of the config's ``seed``; either is refused below 0 before an
    injection's bank search.
    """
    if "bank" in cfg:
        values = read_config(cfg, "injection scenario", _INJECTION_KINDS,
                           ("bank", "inject_index", "rho_thr"))
        spec = bank.BankSpec.from_config(values["bank"])
        _check_injection_bytes(spec)
        n = bank.bank_size(spec)
    else:
        values = read_config(cfg, "synthetic scenario", _SYNTHETIC_KINDS, ("n", "r"))
        n, r = values["n"], values["r"]
        amplify.theta_of(n, r)
        if n > sys.float_info.max:
            raise ValidationError("bank size n exceeds the float range")
        if r > np.iinfo(np.int64).max:
            raise ValidationError(f"match count r={r} exceeds 2**63 - 1, the most a draw indexes")
    strategy = RetrievalStrategy.parse(values.get("strategy", RetrievalStrategy.REUSE_K.value))
    max_attempts = values.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
    if max_attempts < 1:
        raise ValidationError(f"scenario key 'max_attempts' must be >= 1, got {max_attempts}")
    p = values["p"] if "p" in values else amplify.choose_p(n)
    # p and the seed are checked before an injection's bank search, not after it
    amplify.check_register(p)
    seed = values.get("seed") if seed is None else seed
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    counter = OracleCounter()
    if "bank" in cfg:
        sigma, noise_seed = values.get("noise_sigma", 0.0), values.get("noise_seed", 0)
        for key, value in (("noise_sigma", sigma), ("noise_seed", noise_seed)):
            if not value >= 0:
                raise ValidationError(f"scenario key {key!r} must be >= 0, got {value}")
        amplitude = values.get("amplitude", 1.0)
        wave = bank.waveform(bank.index_to_params(spec, values["inject_index"]), spec.fs,
                             spec.m_samples)
        try:  # the value types refuse a strain, spectrum or PSD that overflowed
            strain = amplitude * wave.samples
            if sigma > 0.0:
                noise_rng = np.random.default_rng(noise_seed)
                strain = strain + noise_rng.normal(scale=sigma, size=strain.size)
            data = dsp.forward_fft(dsp.TimeSeries(strain, dt=wave.dt))
            psd = dsp.white_psd(spec.m_samples, wave.dt, sigma=max(sigma, 1.0))
        except NonFiniteError as exc:
            raise ValidationError(f"scenario keys 'amplitude' {amplitude} and 'noise_sigma' "
                                  f"{sigma} overflow the injection: {exc}") from None
        try:  # a peak SNR that overflows comes from the injected strain
            match_set = classical_search(spec, data, psd, values["rho_thr"], counter)
        except NonFiniteError as exc:
            raise ValidationError(f"scenario key 'amplitude' {amplitude} overflows the bank "
                                  f"search: {exc}") from None
    else:
        match_set = range(r)
    return Scenario(n=n, p=p, strategy=strategy, match_set=match_set,
                    max_attempts=max_attempts, setup_evals=counter.evaluations, seed=seed,
                    trials=values.get("trials", 0))


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of per-trial oracle-evaluation counts, fields in output order."""

    trials: int
    mean: float
    median: float
    stddev: float
    n_failed: int
    classical_evals: int
    histogram: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {**asdict(self),
                "histogram": [{"evals": e, "count": c} for e, c in self.histogram]}


# Consecutive trials a Monte Carlo worker tallies per result it sends.
_TRIAL_SPAN = 500


def monte_carlo(scenario: Scenario, trials: int, seed: int) -> MonteCarloSummary:
    """Independent trials of the retrieval procedure, fixed substreams.

    Each trial's cost and outcome are folded into its span's tally as it
    finishes; no per-trial record is kept.  The spans' tallies are merged
    in span order.
    """
    if not 1 <= trials <= np.iinfo(np.int64).max:
        raise ValidationError(f"trials must be in [1, 2**63 - 1], got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    def span(start: int) -> tuple[Counter[int], int]:
        costs: Counter[int] = Counter()
        n_failed = 0
        for rng in seeding.trial_rngs(seed, start, min(start + _TRIAL_SPAN, trials)):
            record = retrieve_until_success(scenario, rng, OracleCounter())
            costs[record.oracle_evals] += 1
            n_failed += not record.succeeded
        return costs, n_failed

    costs: Counter[int] = Counter()
    n_failed = 0
    for span_costs, span_failed in fanout.fan_out(span, range(0, trials, _TRIAL_SPAN)):
        costs.update(span_costs)
        n_failed += span_failed
    mean, median, stddev = _statistics(costs)
    return MonteCarloSummary(trials=trials, mean=mean, median=median, stddev=stddev,
                             histogram=tuple(sorted(costs.items())), n_failed=n_failed,
                             classical_evals=scenario.n)


def _statistics(costs: Counter[int]) -> tuple[float, float, float]:
    """The mean, median and population stddev of the tallied costs, bit for bit
    ``statistics.fmean``, ``median`` and ``pstdev`` of their list.

    No value a trial is held: the mean and stddev stream ``elements()`` through exact sums,
    so neither depends on the order, and the median walks the sorted tally.
    """
    histogram = sorted(costs.items())
    ends = list(itertools.accumulate(n for _, n in histogram))

    def nth(i: int) -> int:  # the i-th smallest cost, from 0
        return histogram[bisect.bisect_right(ends, i)][0]

    low, high = nth((ends[-1] - 1) // 2), nth(ends[-1] // 2)
    median = float(high if ends[-1] % 2 else (low + high) / 2)
    return statistics.fmean(costs.elements()), median, statistics.pstdev(costs.elements())
