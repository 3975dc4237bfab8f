"""The Monte Carlo trials' substreams, ``np.random.default_rng((seed, t))``, a span at a time.

``trial_rngs(seed, start, stop)`` yields, for each t in [start, stop), a
``Generator`` in the state that ``default_rng((seed, t))`` starts in, bit
for bit.  It repeats numpy's own seeding on arrays: ``SeedSequence``
hashes the entropy (the uint32 words of seed, then of t, low word first;
0 is one word) into a pool of four words and draws four uint64 words
from it, and PCG64 takes its state and increment from those.  One numpy
pass does this for every t, against one ``SeedSequence`` and one
``PCG64`` a trial.

``import qmf`` registers this module lazily, so only a process that runs
a span of trials loads it, and with it ``numpy.random`` (about 6 MB of
RSS).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


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


def trial_rngs(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """``np.random.default_rng((seed, t))`` for t in [start, stop), with seed, t >= 0.

    One Generator is set to each t's state in turn: use it before the next.
    """
    t = np.arange(start, stop, dtype=np.uint64)
    n_seed = max(1, -(-seed.bit_length() // 32))
    words = [np.full(t.size, w) for w in np.frombuffer(seed.to_bytes(4 * n_seed, "little"), "<u4")]
    words += [t.astype(np.uint32), (t >> 32).astype(np.uint32)]
    length = n_seed + 1 + (words[-1] > 0)  # each t's word count
    words += [np.zeros(t.size, np.uint32)] * (4 - len(words))  # a pool of 4, padded with 0
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
    rng = np.random.default_rng(0)  # each t overwrites its state
    state = rng.bit_generator.state
    for s_hi, s_lo, q_hi, q_lo in zip(*init):
        # PCG64's seeding from state 0: one step, add the initial state, one more step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK_128
        s = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK_128
        state["state"] = {"state": s, "inc": inc}
        rng.bit_generator.state = state
        yield rng
