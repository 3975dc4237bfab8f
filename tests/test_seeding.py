"""qmf.seeding's PCG64 streams against numpy's: the same states and the same draws, bit for bit."""

import numpy as np
import pytest

from qmf import seeding

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# integers(n) at its edges: n = 1 draws nothing; up to 2**32 a draw takes 32 bits,
# one half of a 64-bit output, and at 2**31 + 1 about half of them are rejected
EDGES = [1, 2, 9, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63 - 1]

# a seed of 1 to 3 uint32 words
seeds = st.integers(1, 3).flatmap(lambda k: st.integers(0 if k == 1 else 1 << 32 * (k - 1),
                                                        (1 << 32 * k) - 1))
# None is a random() call, an int n an integers(n) call
draws = st.lists(st.one_of(st.none(), st.sampled_from(EDGES), st.integers(1, 2**63 - 1)),
                 max_size=40)


def state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state["state"]


def draw(stream, n):
    return stream.random() if n is None else int(stream.integers(n))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, calls=draws)
@example(seed=1, calls=[n for n in EDGES for _ in range(16)])
@example(seed=2**64 + 5, calls=[m for n in EDGES for m in (n, None, n, n)])
@example(seed=3**200, calls=[None, 2**40])  # 10 words: past the pool of 4, each is mixed in
def test_stream_draws_as_generator(seed, calls):
    ours, ref = seeding.default_rng(seed), np.random.default_rng(seed)
    assert {"state": ours.state, "inc": ours.inc} == state(ref)
    # a trailing integers(9) reads the 32-bit half a call may have kept
    for n in [*calls, None, 9, 9]:
        assert draw(ours, n) == draw(ref, n)
    assert {"state": ours.state, "inc": ours.inc} == state(ref)
