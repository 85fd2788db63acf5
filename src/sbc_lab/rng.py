"""Counter-based random number streams for reproducible parallel simulation.

Every stream is a pure function of ``(global_seed, stream_id)``: replaying a
stream yields identical values no matter how other streams were consumed, so
simulations can run in any order or in parallel without changing results.
Streams are backed by the Philox counter-based bit generator, keyed directly
with the two 64-bit words ``[global_seed mod 2^64, stream_id mod 2^64]`` at
counter 0, which guarantees statistical independence between distinct
``(seed, stream_id)`` pairs.

The key itself is the Philox seed sequence (``_StreamKey``), so opening a
stream reads no OS entropy and builds no ``SeedSequence``: about 9 µs per
stream, where ``Philox(key=...)`` took about 21 µs (numpy 2.4.6, shared
2-vCPU machine). The streams do not ``spawn``: new work takes new stream
ids. ``copy_stream`` copies a stream at its position in about 14 µs, where
``copy.deepcopy`` took about 75 µs. This module is the only place that
builds a bit generator.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "MAX_SEED",
    "stream",
    "copy_stream",
    "generation_stream",
    "posterior_stream",
    "tiebreak_stream",
    "POSTERIOR_OFFSET",
    "TIEBREAK_OFFSET",
]

_MASK64 = (1 << 64) - 1

# Seeds are 0..MAX_SEED: a stream key holds the seed mod 2^64, so any other
# seed would silently run the simulations of one in that range.
MAX_SEED = _MASK64

# Stream-id namespaces for the three random choices made per simulation.
POSTERIOR_OFFSET = 1 << 62
TIEBREAK_OFFSET = 1 << 63


class _StreamKey(ISeedSequence):
    """A Philox key posing as the seed sequence Philox draws its key from."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for (2, uint64) and copies the words into its own state
        return self.key


def stream(global_seed: int, stream_id: int) -> np.random.Generator:
    """Return the generator for stream ``(global_seed, stream_id)``."""
    key = np.array([global_seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_StreamKey(key)))


def copy_stream(rng: np.random.Generator) -> np.random.Generator:
    """Return an independent copy of a stream, at the same position.

    The copy has the stream's key, counter and buffered words, so it yields
    the values the stream would yield next, and drawing from either one
    leaves the other where it was.
    """
    state = rng.bit_generator.state
    bit_generator = np.random.Philox(_StreamKey(state["state"]["key"]))
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def generation_stream(global_seed: int, sim_index: int) -> np.random.Generator:
    """Stream used to draw the prior parameter and the dataset of one simulation."""
    return stream(global_seed, sim_index)


def posterior_stream(global_seed: int, sim_index: int) -> np.random.Generator:
    """Stream used by the posterior sampler of one simulation."""
    return stream(global_seed, sim_index + POSTERIOR_OFFSET)


def tiebreak_stream(global_seed: int, sim_index: int) -> np.random.Generator:
    """Stream used to break rank ties of one simulation."""
    return stream(global_seed, sim_index + TIEBREAK_OFFSET)
