"""Exact state-vector simulator for the string-matching search circuits.

Two paths compute the same pre-measurement states.

The template-vector path (``counting_state``, ``search_state``) is the
one the CLI runs.  With its ancilla prepared in |->, the matching
oracle flips the phase of one contiguous run of templates, the
``range`` that ``StringOracleSpec.matching_states`` gives, so one
Grover step negates a slice of a ``2**n`` vector in place and reflects
the vector about its mean.  The ancilla stays |-> and is factored out:
a returned ``StateVector`` covers the template register (qubits 0..n-1)
and, for counting, the counting register above it (qubits n..n+p-1).
A call holds one full-size buffer, the state it returns.  Before its
inverse Fourier transform the counting circuit holds
sum_j |j> (x) G^j|psi0> / sqrt(2**p); row j of a ``(2**p, 2**n)`` block
gets G^j psi0, and one in-place FFT along the counting axis is the
inverse transform, qubit reversal included.

The gate-level path (``init_state``, ``string_oracle``, ``diffusion``,
``grover_iteration``, ``controlled_grover_powers``, ``inverse_qft``) is
the circuit itself, kept as the cross-validation reference for tests.
Amplitudes are a dense complex array indexed so that qubit ``t`` is bit
``t`` of the basis-state integer (little endian).  Every gate kernel
addresses amplitudes one way: through a view of the buffer reshaped to
one length-2 axis per qubit, with the axes of the qubits the gate fixes
(target value, controls) indexed by their bit.  A kernel is then a few
vectorized passes over such views, in place.

Both paths use one register map: template on qubits 0..n-1, counting
on n..n+p-1, and in the gate-level state the |-> ancilla on the top
qubit, so the ancilla-0 half of that state is the lower half of its
buffer, the template-vector state over sqrt(2).  Each gate-level block
reads n from its ``StringOracleSpec`` and the total width from
``StateVector.num_qubits``.  Counting qubit ``n + t`` controls the
``2**t``-th Grover power and contributes bit ``t`` of the outcome integer
``b``; the inverse Fourier transform includes the final qubit reversal
so that measured bitstrings read directly as ``b``.

The data register of the matching oracle is elided: the data bits are
classical here, so the data-conditioned CNOT layer collapses to a
classically chosen X layer on the template register.  The oracle
unitary on template + ancilla is identical to the full circuit's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BYTE_BUDGET, ValidationError, check_bytes

# The complex128 amplitudes of the byte budget, 2**26 at 1 GiB, over all
# full-size buffers a call holds at once; override per call if needed.
DEFAULT_QUBIT_CAP = (BYTE_BUDGET // 16).bit_length() - 1

# Amplitudes per block of ``marginal_probs`` (8 bytes each once squared).
_BLOCK_LOG2 = 16

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(eq=False)
class StateVector:
    """Dense amplitude vector over ``2**num_qubits`` basis states."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValidationError(f"amplitude array shape {self.amps.shape} does not match "
                                  f"{self.num_qubits} qubits")


@dataclass(frozen=True)
class StringOracleSpec:
    """Digital matching condition: agree with the data on the high bits.

    ``data_bits`` is an n-character 0/1 string whose rightmost character
    is bit 0; the ``q_ignored`` lowest-order bits are exempt from the
    comparison, so ``2**q_ignored`` basis states match.
    """

    data_bits: str
    q_ignored: int

    def __post_init__(self) -> None:
        if not self.data_bits or set(self.data_bits) - {"0", "1"}:
            raise ValidationError(f"data_bits must be a 0/1 string, got {self.data_bits!r}")
        if not 0 <= self.q_ignored <= len(self.data_bits):
            raise ValidationError(f"q_ignored={self.q_ignored} outside [0, {len(self.data_bits)}]")

    @property
    def n(self) -> int:
        return len(self.data_bits)

    @property
    def data_int(self) -> int:
        return int(self.data_bits, 2)

    def matching_states(self) -> range:
        """All template integers satisfying the predicate: one contiguous run."""
        base = (self.data_int >> self.q_ignored) << self.q_ignored
        return range(base, base + (1 << self.q_ignored))


# ---------------------------------------------------------------------------
# gate kernels

def _bits(amps: np.ndarray, pattern: dict[int, int]) -> np.ndarray:
    """Writable view of the amplitudes whose qubit ``q`` holds bit ``pattern[q]``.

    The buffer is reshaped to one length-2 axis per qubit, the highest
    qubit first, and indexed by bit on the fixed axes.  The index ends
    in ``...``, so a pattern that fixes every qubit gives a 0-d view
    rather than a copied scalar.
    """
    nq = amps.size.bit_length() - 1
    index = tuple(pattern.get(q, slice(None)) for q in reversed(range(nq)))
    return amps.reshape((2,) * nq)[index + (Ellipsis,)]


def _exchange(amps: np.ndarray, a: dict[int, int], b: dict[int, int]) -> None:
    """Swap the amplitudes of bit pattern ``a`` with those of pattern ``b``."""
    va, vb = _bits(amps, a), _bits(amps, b)
    tmp = va.copy()
    va[...] = vb
    vb[...] = tmp


def _apply_h(amps: np.ndarray, q: int) -> None:
    v0, v1 = _bits(amps, {q: 0}), _bits(amps, {q: 1})
    lo = v0.copy()
    v0[...] = (lo + v1) * _INV_SQRT2
    v1[...] = (lo - v1) * _INV_SQRT2


def _apply_x(amps: np.ndarray, q: int) -> None:
    _exchange(amps, {q: 0}, {q: 1})


def _apply_cphase(amps: np.ndarray, control: int, target: int, phi: float) -> None:
    """diag(1, 1, 1, e^{i phi}) on the (control, target) pair."""
    _bits(amps, {control: 1, target: 1})[...] *= complex(math.cos(phi), math.sin(phi))


def _apply_mcx(amps: np.ndarray, controls: list[int], target: int) -> None:
    on = dict.fromkeys(controls, 1)
    _exchange(amps, {**on, target: 0}, {**on, target: 1})


# ---------------------------------------------------------------------------
# circuit blocks

def init_state(n: int, p: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Uniform superposition on template+counting, the top (ancilla) qubit in |->."""
    nq = n + p + 1
    _check_cap(nq, cap)
    amps = np.zeros(1 << nq, dtype=np.complex128)
    amps[0] = 1.0
    for q in range(nq - 1):
        _apply_h(amps, q)
    _apply_x(amps, nq - 1)
    _apply_h(amps, nq - 1)
    return StateVector(num_qubits=nq, amps=amps)


def string_oracle(state: StateVector, spec: StringOracleSpec,
                  control: int | None = None) -> StateVector:
    """Phase-flip template states matching the data on the unignored bits.

    X gates fold the classical data bits onto the template register,
    an X sandwich turns the matching pattern into all-ones, and a
    multi-controlled X kicks a phase back off the |-> ancilla on the top
    qubit.  Both layers are then uncomputed.  Only the MCX needs the
    extra control qubit: with the control off, the X layers cancel on
    their own.
    """
    n = spec.n
    if state.num_qubits <= n:
        raise ValidationError(
            f"a {state.num_qubits}-qubit state has no ancilla above the {n}-qubit template")
    unignored = list(range(spec.q_ignored, n))
    fold = [q for q in unignored if (spec.data_int >> q) & 1]
    controls = unignored if control is None else unignored + [control]
    for q in fold:
        _apply_x(state.amps, q)
    for q in unignored:
        _apply_x(state.amps, q)
    _apply_mcx(state.amps, controls, state.num_qubits - 1)
    for q in unignored:
        _apply_x(state.amps, q)
    for q in fold:
        _apply_x(state.amps, q)
    return state


def diffusion(state: StateVector, n: int, control: int | None = None) -> StateVector:
    """Reflect the template register (qubits 0..n-1) about its uniform superposition."""
    v = _bits(state.amps, {} if control is None else {control: 1})
    # merge the template axes; setting .shape raises where reshape would copy
    v.shape = v.shape[:v.ndim - n] + (1 << n,)
    mean = v.mean(axis=-1, keepdims=True)
    v *= -1.0
    v += 2.0 * mean
    return state


def grover_iteration(state: StateVector, spec: StringOracleSpec,
                     control: int | None = None) -> StateVector:
    """One Grover step: matching oracle, then diffusion."""
    string_oracle(state, spec, control)
    diffusion(state, spec.n, control)
    return state


def controlled_grover_powers(state: StateVector, spec: StringOracleSpec) -> StateVector:
    """Ladder of controlled powers: counting qubit n + t drives 2**t iterations."""
    for t, q in enumerate(range(spec.n, state.num_qubits - 1)):
        for _ in range(1 << t):
            grover_iteration(state, spec, control=q)
    return state


def inverse_qft(state: StateVector, qubits: range | list[int]) -> StateVector:
    """Inverse Fourier transform, including the qubit-order reversal.

    After this block a computational-basis readout of the register is
    the phase-estimation integer b with qubit order already fixed.
    """
    qs = list(qubits)
    for a, b in zip(qs[:len(qs) // 2], reversed(qs)):
        _exchange(state.amps, {a: 1, b: 0}, {a: 0, b: 1})
    for i in range(len(qs)):
        for j in range(i):
            _apply_cphase(state.amps, qs[j], qs[i], -math.pi / (1 << (i - j)))
        _apply_h(state.amps, qs[i])
    return state


def marginal_probs(state: StateVector, qubits: range) -> np.ndarray:
    """Exact outcome distribution of a contiguous qubit range, one block at a time.

    Beside the state the call holds the marginal and one block of |amp|^2.
    A block spans at least two outcomes: numpy sums a one-outcome block as a
    single pairwise run, which moves the last bits against the whole sum.
    """
    lo, hi = qubits.start, qubits.stop
    if not (0 <= lo < hi <= state.num_qubits):
        raise ValidationError(f"range {qubits} outside register")
    width = hi - lo
    amps = state.amps.reshape(-1, 1 << width, 1 << lo)
    rows = 1 << max(1, min(width, _BLOCK_LOG2 - (state.num_qubits - width)))
    probs = np.empty(1 << width)
    block = np.empty((amps.shape[0], rows, amps.shape[2]))
    for start in range(0, probs.size, rows):
        np.abs(amps[:, start:start + rows], out=block)
        np.square(block, out=block)
        block.sum(axis=(0, 2), out=probs[start:start + rows])
    return probs


def measure(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draw of ``shots`` outcomes from a marginal: the count of each outcome.

    ``probs`` is normalized in place before the draw, so the call holds the
    marginal and the counts alone.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    probs /= probs.sum()
    return rng.multinomial(shots, probs)


# ---------------------------------------------------------------------------
# end-to-end circuits on the template vector

def _check_cap(log2_amps: int, cap: int) -> None:
    """Refuse full-size buffers past 2**cap amplitudes of 16 bytes; shift neither past 2**59."""
    top = sys.maxsize.bit_length() - 5  # 2**58 amplitudes: what an array addresses
    cap, k = min(cap, top), min(log2_amps, top + 1)
    what = f"2**{k}" if k == log2_amps else f"over 2**{top}"
    check_bytes(f"a state of {what} amplitudes", 16 << k, 16 << cap if cap >= 0 else 0)


def _check_run(n: int, matched: range) -> slice:
    """The matched run as a slice of the ``2**n`` template vector."""
    if matched.step != 1 or not 0 <= matched.start <= matched.stop <= 1 << n:
        raise ValidationError(f"matched run {matched} is not a run inside [0, 2**{n})")
    return slice(matched.start, matched.stop)


def _grover_step(psi: np.ndarray, matched: slice) -> None:
    """One Grover iteration in place: negate the matched run, reflect about the mean."""
    np.negative(psi[matched], out=psi[matched])
    np.subtract(2.0 * psi.mean(), psi, out=psi)


def counting_state(n: int, matched: range, p: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Pre-measurement state of the counting circuit, ancilla factored out.

    ``matched`` is the run of templates the oracle flips.  Amplitude
    ``b * 2**n + x`` belongs to counting outcome ``b`` and template ``x``.
    The power sweep block is transformed in place and returned, so the
    call holds ``2**(n + p)`` amplitudes and needs ``n + p <= cap``.
    """
    if p < 1:
        raise ValidationError(f"the counting register needs p >= 1 qubits, got {p}")
    _check_cap(n + p, cap)
    run = _check_run(n, matched)
    dim = 1 << p
    block = np.empty((dim, 1 << n), dtype=np.complex128)
    block[0] = 1.0 / math.sqrt(dim << n)
    for j in range(1, dim):
        block[j] = block[j - 1]
        _grover_step(block[j], run)
    np.fft.fft(block, axis=0, out=block)
    block /= math.sqrt(dim)
    return StateVector(n + p, block.reshape(-1))


def search_state(n: int, matched: range, k: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """k Grover iterations on the template vector, ancilla factored out.

    ``matched`` is the run of templates the oracle flips.  The state is
    the one buffer of ``2**n`` amplitudes the call holds, so it needs
    ``n <= cap``.
    """
    _check_cap(n, cap)
    if k < 0:
        raise ValidationError(f"iteration count k={k} must be >= 0")
    run = _check_run(n, matched)
    psi = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    for _ in range(k):
        _grover_step(psi, run)
    return StateVector(n, psi)
