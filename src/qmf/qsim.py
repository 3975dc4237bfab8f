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

Register layout used by the gate-level circuits
(``RegisterLayout.standard``): the template register occupies the low
qubits, the ancilla sits just above it, and the counting register
occupies the top.  Counting qubit ``t`` controls the ``2**t``-th Grover
power and contributes bit ``t`` of the outcome integer ``b``; the
inverse Fourier transform includes the final qubit reversal so that
measured bitstrings read directly as ``b``.

The data register of the matching oracle is elided: the data bits are
classical here, so the data-conditioned CNOT layer collapses to a
classically chosen X layer on the template register.  The oracle
unitary on template + ancilla is identical to the full circuit's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError

# Budget of 2**26 complex128 amplitudes (1 GiB) over all full-size
# buffers a call holds at once; override per call if needed.
DEFAULT_QUBIT_CAP = 26

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
            raise ValidationError(
                f"amplitude array shape {self.amps.shape} does not match "
                f"{self.num_qubits} qubits"
            )


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit index map: template low, ancilla above it, counting on top."""

    template: range
    ancilla: int
    counting: range = field(default_factory=lambda: range(0))

    def __post_init__(self) -> None:
        claimed = list(self.template) + [self.ancilla] + list(self.counting)
        if len(set(claimed)) != len(claimed):
            raise ValidationError("register ranges overlap")
        if sorted(claimed) != list(range(len(claimed))):
            raise ValidationError("registers must cover qubits 0..Q-1 exactly")

    @classmethod
    def standard(cls, n: int, p: int = 0) -> "RegisterLayout":
        return cls(template=range(0, n), ancilla=n, counting=range(n + 1, n + 1 + p))

    @property
    def num_qubits(self) -> int:
        return len(self.template) + 1 + len(self.counting)


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
            raise ValidationError(
                f"q_ignored={self.q_ignored} outside [0, {len(self.data_bits)}]"
            )

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

def init_state(layout: RegisterLayout, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Uniform superposition on counting+template, ancilla in |->."""
    nq = layout.num_qubits
    if nq > cap:
        raise CapExceededError(f"{nq} qubits exceed the cap of {cap}")
    amps = np.zeros(1 << nq, dtype=np.complex128)
    amps[0] = 1.0
    state = StateVector(num_qubits=nq, amps=amps)
    for q in list(layout.template) + list(layout.counting):
        _apply_h(state.amps, q)
    _apply_x(state.amps, layout.ancilla)
    _apply_h(state.amps, layout.ancilla)
    return state


def string_oracle(state: StateVector, layout: RegisterLayout, spec: StringOracleSpec,
                  control: int | None = None) -> StateVector:
    """Phase-flip template states matching the data on the unignored bits.

    X gates fold the classical data bits onto the template register,
    an X sandwich turns the matching pattern into all-ones, and a
    multi-controlled X kicks a phase back off the |-> ancilla.  Both
    layers are then uncomputed.  Only the MCX needs the extra control
    qubit: with the control off, the X layers cancel on their own.
    """
    n = len(layout.template)
    if spec.n != n:
        raise ValidationError(f"oracle is {spec.n} bits but template register is {n}")
    unignored = [layout.template[j] for j in range(spec.q_ignored, n)]
    data = spec.data_int
    fold = [layout.template[j] for j in range(spec.q_ignored, n) if (data >> j) & 1]
    controls = unignored if control is None else unignored + [control]
    for q in fold:
        _apply_x(state.amps, q)
    for q in unignored:
        _apply_x(state.amps, q)
    _apply_mcx(state.amps, controls, layout.ancilla)
    for q in unignored:
        _apply_x(state.amps, q)
    for q in fold:
        _apply_x(state.amps, q)
    return state


def diffusion(state: StateVector, layout: RegisterLayout,
              control: int | None = None) -> StateVector:
    """Reflect the template register about its uniform superposition."""
    n = len(layout.template)
    if layout.template.start != 0:
        raise ValidationError("template register must start at qubit 0")
    if control is None:
        v = state.amps.reshape(-1, 1 << n)
        mean = v.mean(axis=1, keepdims=True)
        v *= -1.0
        v += 2.0 * mean
    else:
        v = state.amps.reshape(-1, 2, 1 << (control - n), 1 << n)
        block = v[:, 1]
        mean = block.mean(axis=2, keepdims=True)
        block *= -1.0
        block += 2.0 * mean
    return state


def grover_iteration(state: StateVector, layout: RegisterLayout,
                     spec: StringOracleSpec, control: int | None = None) -> StateVector:
    """One Grover step: matching oracle, then diffusion."""
    string_oracle(state, layout, spec, control)
    diffusion(state, layout, control)
    return state


def controlled_grover_powers(state: StateVector, layout: RegisterLayout,
                             spec: StringOracleSpec) -> StateVector:
    """Ladder of controlled powers: counting qubit t drives 2**t iterations."""
    for t, q in enumerate(layout.counting):
        for _ in range(1 << t):
            grover_iteration(state, layout, spec, control=q)
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
    """Multinomial draw of ``shots`` outcomes from a marginal: the count of each outcome."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    return rng.multinomial(shots, probs / probs.sum())


# ---------------------------------------------------------------------------
# end-to-end circuits on the template vector

def _check_cap(log2_amps: int, cap: int) -> None:
    """Refuse a call whose full-size buffers hold more than 2**cap amplitudes."""
    if log2_amps > cap:
        raise CapExceededError(f"needs 2**{log2_amps} amplitudes, over the cap of 2**{cap}")


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
