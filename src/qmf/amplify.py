"""Closed-form model of Grover amplification and quantum counting.

Everything here is exact arithmetic on the two-dimensional rotation
picture of amplitude amplification, so it stays valid for template-bank
sizes far beyond what a state vector can hold.  The measurement
statistics of the counting register are evaluated from the analytic
outcome distribution; :mod:`qmf.qsim` reproduces the same distribution
gate-by-gate for small registers, which is how the two modules
cross-validate each other.

All functions are pure.  ``CountingDistribution`` instances are
immutable after construction; sampling takes a caller-supplied
``numpy.random.Generator`` so reproducibility is owned by the caller.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapExceededError, ValidationError

# Below this distance from an aligned outcome the geometric sum is
# evaluated by its limit (removable singularity).
_ALIGNED_TOL = 1e-12

# Outcomes are computed a chunk at a time, and a register of more than
# 2**_MAX_P outcomes is refused: a draw may scan every one of them.
_CHUNK = 1 << 16
_MAX_P = 27


def round_half_away(x):
    """Round to the nearest integer, halves away from zero, elementwise, as floats."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _c_pow(base, exponent) -> np.ndarray:
    """Elementwise ``base ** exponent`` by the C library's pow, as Python floats do it.

    NumPy's vectorised power (and ``x ** 2``, which it turns into a
    square) rounds differently in the last bit for some inputs: a few in
    a hundred for 2**x, one or two in a thousand for squares.  Array
    formulas that must give the bits of their scalar form use this.
    """
    base, exponent = np.asarray(base, float), np.asarray(exponent, float)
    shape = np.broadcast_shapes(base.shape, exponent.shape)

    def operand(a: np.ndarray):
        if a.ndim == 0:
            return itertools.repeat(a.item())
        return np.broadcast_to(a, shape).ravel().tolist()

    values = map(math.pow, operand(base), operand(exponent))
    return np.fromiter(values, float, math.prod(shape)).reshape(shape)


def theta_of(n: float, r: float) -> float:
    """Rotation half-angle arcsin(sqrt(r/n)) of one Grover iteration."""
    if n < 1:
        raise ValidationError(f"need at least one entry, got n={n}")
    if r < 0 or r > n:
        raise ValidationError(f"match count r={r} outside [0, {n}]")
    return math.asin(math.sqrt(r / n))


def optimal_k(n: float, r: float) -> int:
    """Iteration count that maximises the matched amplitude, (pi/4)sqrt(n/r) - 1/2.

    Rounded half-away-from-zero and floored at 0 (the formula goes
    negative once r is no longer small against n).
    """
    if r <= 0:
        raise ValidationError("optimal_k needs at least one match (r >= 1)")
    if r > n:
        raise ValidationError(f"match count r={r} exceeds bank size n={n}")
    return int(_optimal_k_arr(n, r))


def _optimal_k_arr(n: float, r) -> np.ndarray:
    """``optimal_k`` without its checks, elementwise over r."""
    return np.maximum(0.0, round_half_away(np.pi / 4.0 * np.sqrt(n / r) - 0.5))


def choose_p(n: float) -> int:
    """Smallest counting-register width p with 2**p > pi*sqrt(n)."""
    if n < 2:
        raise ValidationError(f"bank size n={n} must be >= 2")
    try:
        bound = math.pi * math.sqrt(n)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValidationError("bank size n exceeds the float range")
    p = max(1, math.floor(math.log2(bound)))
    while 2.0**p <= bound:
        p += 1
    return p


class CountingDistribution(NamedTuple):
    """Exact outcome distribution of the counting register.

    ``probs[b]`` is the probability of reading integer ``b`` from a
    p-qubit counting register after phase estimation of the Grover
    operator with rotation half-angle ``theta``.  The distribution is
    the equal mixture of the two conjugate eigenvalue branches, so it is
    symmetric under ``b <-> (2**p - b) mod 2**p`` and sums to one.
    ``probs`` is read-only.
    """

    p: int
    theta: float
    probs: np.ndarray


def _branch_probs(theta: float, d: int, out: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a single eigenvalue branch, P+(b), in place.

    ``out`` holds the outcomes b as floats on entry.  The in-place ufuncs
    follow the operation order of ``num / (d**2 * sin(theta - pi*b/d)**2)``.
    """
    np.multiply(out, np.pi, out=out)
    np.divide(out, d, out=out)
    np.subtract(theta, out, out=out)  # delta
    aligned = (out < _ALIGNED_TOL) & (out > -_ALIGNED_TOL)
    out[aligned] = 1.0
    np.sin(out, out=out)
    np.square(out, out=out)
    np.multiply(out, d * d, out=out)
    np.divide(math.sin(d * theta) ** 2, out, out=out)
    out[aligned] = 1.0
    return out


def _mixture(theta: float, d: int, start: int, stop: int) -> np.ndarray:
    """P(b) = 0.5 * (P+(b) + P+((d - b) mod d)) for start <= b < stop.

    The equal mixture of the two eigenvalue branches; the sum is the same,
    bit for bit, for b and for its mirror d - b.
    """
    b = np.arange(start, stop, dtype=float)
    mirror = np.subtract(d, b)
    if start == 0:
        mirror[0] = 0.0
    probs = _branch_probs(theta, d, b)
    np.add(probs, _branch_probs(theta, d, mirror), out=probs)
    np.multiply(probs, 0.5, out=probs)
    return probs


def check_register(p: int) -> None:
    """Refuse a counting register of p < 1 qubits, or one over the outcome budget."""
    if p < 1:
        raise ValidationError(f"counting register needs p >= 1, got {p}")
    if p > _MAX_P:
        raise CapExceededError(
            f"2**{p} counting outcomes exceed the budget of 2**{_MAX_P} per call")


def outcome_probs(n: int, r: int, p: int, start: int, stop: int) -> np.ndarray:
    """P(b) for r matches among n entries, for start <= b < stop, after the checks."""
    check_register(p)
    theta, d = theta_of(n, r), 1 << p
    if not 0 <= start <= stop <= d:
        raise ValidationError(f"outcomes [{start}, {stop}) outside [0, 2**{p})")
    return _mixture(theta, d, start, stop)


def outcome_blocks(n: int, r: int, p: int) -> Iterator[tuple[int, np.ndarray]]:
    """P(b) for r matches among n entries, a chunk of outcomes at a time.

    Yields ``(start, probs)`` with ``probs[i] = P(start + i)`` for every
    outcome of the p-qubit register in order.  The arguments are checked
    here, before the first block is made.
    """
    check_register(p)
    theta_of(n, r)
    d = 1 << p
    return ((start, outcome_probs(n, r, p, start, min(start + _CHUNK, d)))
            for start in range(0, d, _CHUNK))


def counting_distribution(n: int, r: int, p: int) -> CountingDistribution:
    """Exact counting-register distribution for r matches among n entries."""
    blocks = outcome_blocks(n, r, p)
    probs = np.empty(1 << p)
    for start, block in blocks:
        probs[start:start + block.size] = block
    probs.flags.writeable = False
    return CountingDistribution(p=p, theta=theta_of(n, r), probs=probs)


class _StreamedCdf:
    """The cdf of one counting distribution, a chunk of outcomes at a time.

    A chunk's cdf is ``np.cumsum`` of its P(b) after the cdf value before
    the chunk is added to its first element, which equals the dense
    ``np.cumsum`` bit for bit.  The scan goes only as far as the draws
    need and remembers the last cdf value of every chunk it passed, so a
    later draw computes at most the one chunk that holds its outcome.
    The two chunks drawn from last are kept whole: the two peaks of the
    distribution lie in the first and the last chunk.
    """

    def __init__(self, n: int, r: int, p: int):
        check_register(p)
        self._args, self._d = (n, r, p), 1 << p
        self._chunks = -(-self._d // _CHUNK)
        self._edges: list[float] = []
        self._cdf = functools.lru_cache(maxsize=2)(self._chunk_cdf)

    def _chunk_cdf(self, k: int) -> np.ndarray:
        """The cdf over chunk k; the scan has passed every chunk before it."""
        start = k * _CHUNK
        cdf = outcome_probs(*self._args, start, min(start + _CHUNK, self._d))
        if k:
            cdf[0] += self._edges[k - 1]
        return np.cumsum(cdf, out=cdf)

    def _chunk_of(self, u: float) -> int:
        """The first chunk whose last cdf value exceeds u, or the chunk count."""
        k = bisect.bisect_right(self._edges, u)
        while k == len(self._edges) < self._chunks:
            self._edges.append(float(self._cdf(k)[-1]))
            if self._edges[-1] <= u:
                k += 1
        return k

    def outcome(self, u: float) -> int:
        """Counting outcome at cumulative probability u.

        The first b whose cdf exceeds u, clamped to 2**p - 1 for a u at or
        above the cdf's rounded total: the dense
        ``np.searchsorted(cdf, u, side="right")``, in O(chunk) memory.
        """
        k = self._chunk_of(u)
        if k == self._chunks:
            return self._d - 1
        return k * _CHUNK + int(self._cdf(k).searchsorted(u, side="right"))


# Monte Carlo trials draw from one distribution many thousand times, so
# the last two distributions drawn from keep their scan.
@functools.lru_cache(maxsize=2)
def _streamed_cdf(n: int, r: int, p: int) -> _StreamedCdf:
    return _StreamedCdf(n, r, p)


def sample_b(n: int, r: int, p: int, rng: np.random.Generator) -> int:
    """Draw one counting outcome by inverse CDF at u = ``rng.random()``."""
    return _streamed_cdf(n, r, p).outcome(rng.random())


@dataclass(frozen=True)
class CountEstimate:
    """Estimates decoded from a counting outcome b.

    ``b = 0`` is the distinguished no-match outcome: ``r_star`` is 0 and
    ``k_star`` is None (no retrieval is attempted).
    """

    b: int
    r_star: int
    k_star: int | None

    @property
    def detected(self) -> bool:
        """True iff b != 0, the outcome that reports at least one match."""
        return self.b != 0


def decode_outcomes(b, p: int, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Decode counting outcomes b (a scalar or an array) into (r*, k*).

    theta* folds the two eigenvalue branches onto [0, pi/2]; r* rounds
    n*sin^2(theta*) and is clamped to at least 1, since b != 0 cannot
    occur when there are no matches; k* is ``optimal_k(n, r*)``.  The
    no-match outcome b = 0 decodes by the same clamp; callers treat it
    apart.  The arithmetic is that of the scalar formulas, square by the
    C library's pow included, so r* and k* are the integers they give.
    """
    d = 1 << p
    b = np.asarray(b)
    theta_star = np.pi * b / d
    theta_star = np.where(b <= d // 2, theta_star, np.pi - theta_star)
    r_star = np.maximum(round_half_away(n * _c_pow(np.sin(theta_star), 2.0)), 1.0)
    return r_star.astype(np.int64), _optimal_k_arr(n, r_star).astype(np.int64)


# A one-element array decode costs several times the scalar formulas it
# replaced, and a Monte Carlo run decodes the same few outcomes over and
# over; estimates are immutable, so they are shared.
@functools.lru_cache(maxsize=4096)
def estimate_from_b(b: int, p: int, n: float) -> CountEstimate:
    """Decode one outcome b into (r*, k*); see :func:`decode_outcomes`."""
    d = 1 << p
    if b < 0 or b >= d:
        raise ValidationError(f"outcome b={b} outside [0, 2**{p})")
    if b == 0:
        return CountEstimate(b=0, r_star=0, k_star=None)
    r_star, k_star = decode_outcomes(b, p, n)
    return CountEstimate(b=b, r_star=int(r_star), k_star=int(k_star))


def false_negative_prob(n: int, r: int, p: int) -> float:
    """Probability of reading b = 0 although r >= 1 matches exist."""
    if r < 1:
        raise ValidationError("false negatives are defined for r >= 1")
    return float(outcome_probs(n, r, p, 0, 1)[0])


def repetitions_for(delta_target: float) -> int:
    """Detection repetitions needed to push the false-negative rate to target.

    Each repetition multiplies the per-run bound 1/pi^2, so the count is
    log(1/target) / (2 log pi), rounded to the nearest integer (the
    quoted targets are order-of-magnitude figures) and at least 1.
    """
    if not (0.0 < delta_target < 1.0 and math.isfinite(1.0 / delta_target)):
        raise ValidationError(f"target must be in (0, 1) with 1/target finite, got {delta_target}")
    ell = round_half_away(math.log(1.0 / delta_target) / (2.0 * math.log(math.pi)))
    return max(1, int(ell))


def p_match(theta: float, k: int) -> float:
    """Probability of measuring a matched entry after k iterations."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValidationError(f"theta={theta} outside [0, pi/2]")
    if k < 0:
        raise ValidationError(f"iteration count k={k} must be >= 0")
    return math.sin((2 * k + 1) * theta) ** 2


def p_fail_total(n: int, r: int, p: int) -> float:
    """Total probability that one count-then-retrieve cycle returns nothing.

    Averages the retrieval failure cos^2((2 k_b + 1) theta) over the
    counting outcomes b, where k_b is the iteration count decoded from
    b.  The b = 0 outcome aborts retrieval and therefore fails outright.
    The outcomes are streamed a block at a time, and the block sums added.
    """
    if r < 1:
        raise ValidationError("retrieval failure is defined for r >= 1")
    theta, total = theta_of(n, r), 0.0
    for start, probs in outcome_blocks(n, r, p):
        _, k_star = decode_outcomes(np.arange(start, start + probs.size), p, n)
        fail = np.cos((2.0 * k_star + 1.0) * theta) ** 2
        if start == 0:
            fail[0] = 1.0
        total += float((probs * fail).sum())  # not BLAS, whose bits vary with its threads
    return total


def fail_bound(r: int, eps_p):
    """Two-term upper bound on the count-then-retrieve failure probability.

    ``eps_p`` in (0, 1) is the fractional excess of the register width
    over its lower bound; the ideal outcome is then 2**eps_p * sqrt(r),
    and only its two neighbouring integers are credited with success.
    The O(sqrt(r/n)) correction is dropped.  ``eps_p`` may be a scalar,
    which gives a float, or an array, which gives the bound elementwise.
    """
    if r < 1:
        raise ValidationError("bound is defined for r >= 1")
    eps_p = np.asarray(eps_p, dtype=float)
    inside = (eps_p > 0.0) & (eps_p < 1.0)
    if not inside.all():
        bad = eps_p[~inside].flat[0]
        raise ValidationError(f"eps_p must be in (0, 1), got {bad}")
    b_ideal = _c_pow(2.0, eps_p) * math.sqrt(r)
    b_hi = np.ceil(b_ideal)
    eps = b_hi - b_ideal
    b_lo = b_hi - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # b_lo = 0 only where eps = 0
        term_hi = _c_pow(np.sinc(eps), 2.0) * _c_pow(np.cos(eps / b_hi * np.pi / 2.0), 2.0)
        term_lo = (_c_pow(np.sinc(1.0 - eps), 2.0)
                   * _c_pow(np.cos((1.0 - eps) / b_lo * np.pi / 2.0), 2.0))
    # an ideal outcome that is an exact integer retrieves with certainty
    bound = np.where(eps == 0.0, 0.0, 1.0 - term_hi - term_lo)
    return float(bound) if bound.ndim == 0 else bound


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximisation of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def max_fail_bound_argmax(r: int, grid_points: int = 20001) -> tuple[float, float]:
    """Return (argmax eps_p, sup fail_bound(r, eps_p)) over eps_p in (0, 1).

    Dense grid scan followed by golden-section refinement around the
    grid maximum.  The bound is piecewise smooth (jumps where the ideal
    outcome crosses an integer), so the grid locates the right piece and
    the refinement polishes within it.
    """
    if grid_points < 3:
        raise ValidationError("grid needs at least 3 points")
    lo_edge, hi_edge = 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo_edge, hi_edge, grid_points)
    vals = fail_bound(r, grid)
    i = int(np.argmax(vals))
    lo = grid[max(0, i - 1)]
    hi = grid[min(grid_points - 1, i + 1)]
    x, fx = _golden_max(lambda e: fail_bound(r, e), lo, hi)
    if fx >= vals[i]:
        return float(x), float(fx)
    return float(grid[i]), float(vals[i])
