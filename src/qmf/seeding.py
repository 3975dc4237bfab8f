"""qmf's scalar draws: numpy's PCG64 stream, bit for bit, without ``numpy.random``.

``Pcg64`` holds numpy's PCG64 state and increment as Python ints and
makes the two scalar draws qmf's sampling needs (a ``Stream``),
``random()`` and ``integers(n)``, as ``np.random.Generator`` makes them.
``default_rng(seed)`` is the stream ``np.random.default_rng(seed)``
starts, and ``trial_rngs(seed, start, stop)`` yields, for each t in
[start, stop), the stream ``np.random.default_rng((seed, t))`` starts.
Both repeat numpy's own seeding on arrays: ``SeedSequence`` hashes the
entropy (the uint32 words of each int, low word first; 0 is one word)
into a pool of four words and draws four uint64 words from it, and
PCG64 takes its state and increment from those.  One numpy pass does
this for a span of trials, against one ``SeedSequence`` and one
``PCG64`` a trial.

``import qmf`` registers this module lazily, so only a process that
draws loads it.  It needs numpy's core only: ``numpy.random`` (about
6 MB of RSS) stays unloaded.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from typing import Protocol

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128, _MASK_64, _MASK_32 = (1 << 128) - 1, (1 << 64) - 1, (1 << 32) - 1


class Stream(Protocol):
    """The scalar draws qmf samples with; ``np.random.Generator`` has them too."""

    def random(self) -> float: ...

    def integers(self, n: int, /) -> int: ...


class Pcg64:
    """numpy's PCG64 stream from its ``(state, inc)``, drawing as ``np.random.Generator`` does.

    Each step is PCG64's LCG step and XSL-RR output (O'Neill 2014); a
    bounded integer is Lemire's (2019) with rejection.
    """

    __slots__ = ("state", "inc", "_half")

    def __init__(self, state: int, inc: int) -> None:
        self.state, self.inc = state, inc
        self._half: int | None = None  # the high half of a 64-bit output kept for a 32-bit draw

    def _next64(self) -> int:
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK_128
        x, rot = (s >> 64 ^ s) & _MASK_64, s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK_64

    def _next32(self) -> int:
        """The low half of a 64-bit output, then its high half, as ``pcg64_next32``."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK_32

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of one output, as ``next_double``."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """An int in [0, n), for 1 <= n < 2**63, as ``Generator.integers(n)`` draws it.

        n = 1 draws nothing.  Up to n = 2**32 a draw takes 32 bits; at
        2**32 its threshold is 0, so it is ``next_uint32`` as it is.
        """
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n <= 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        threshold = (1 << bits) % n  # (2**bits - n) % n: the low parts to reject
        m = draw() * n
        while (m & mask) < threshold:
            m = draw() * n
        return m >> bits


def _hasher(h: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash of uint32 words, its constant ``h`` stepped by ``mult`` a call."""
    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & 0xFFFFFFFF
        v = v * h
        return v ^ v >> 16
    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _MIX_MULT_L * x - _MIX_MULT_R * y
    return x ^ x >> 16


def _words(x: int, size: int = 1) -> list[np.ndarray]:
    """The uint32 words of x >= 0, low word first (0 is one word), each repeated ``size`` times."""
    n = max(1, -(-x.bit_length() // 32))
    return [np.full(size, w) for w in np.frombuffer(x.to_bytes(4 * n, "little"), "<u4")]


def _streams(words: list[np.ndarray], length: np.ndarray | int) -> Iterator[Pcg64]:
    """The PCG64 stream of each entropy: column i of ``words``, its first ``length[i]`` words.

    A missing word is 0 in the pool of 4, and must be the last word if past it.
    """
    words = words + [np.zeros_like(words[0])] * (4 - len(words))  # a pool of 4, padded with 0
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]
    for i, j in itertools.permutations(range(4), 2):
        pool[j] = _mix(pool[j], hashmix(pool[i]))
    for i, w in enumerate(words[4:], 4):  # only the last word can be missing, so h steps alike
        for j in range(4):
            pool[j] = np.where(i < length, _mix(pool[j], hashmix(w)), pool[j])
    hash_ = _hasher(_INIT_B, _MULT_B)
    out = [hash_(pool[i % 4]).astype(np.uint64) for i in range(8)]
    init = [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    for s_hi, s_lo, q_hi, q_lo in zip(*init):
        # PCG64's seeding from state 0: one step, add the initial state, one more step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK_128
        yield Pcg64(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK_128, inc)


def default_rng(seed: int) -> Pcg64:
    """The stream ``np.random.default_rng(seed)`` starts, with seed >= 0."""
    words = _words(seed)
    return next(_streams(words, len(words)))


def trial_rngs(seed: int, start: int, stop: int) -> Iterator[Pcg64]:
    """The stream ``np.random.default_rng((seed, t))`` starts, for each t in [start, stop).

    seed and t are >= 0.
    """
    t = np.arange(start, stop, dtype=np.uint64)
    words = _words(seed, t.size) + [t.astype(np.uint32), (t >> 32).astype(np.uint32)]
    return _streams(words, len(words) - 1 + (words[-1] > 0))  # each t's word count
