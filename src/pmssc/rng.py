"""Seedable, splittable random streams.

All randomized code draws from Philox counter-based generators keyed by
(seed, *path), so any subroutine can be replayed in isolation and
independent streams can run in parallel without coordination. A counter-based
stream also replays any part of itself: ``bit_generator.advance(b)`` skips b
blocks of four 64-bit words, so PMC rounding takes one stream per call and
still reproduces iteration r alone from its row offset (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

import numpy as np

_UINT64 = 2**64


def _normalize(seed):
    return int(seed) % _UINT64


def stream(seed, *path):
    """Generator for the substream identified by (seed, *path)."""
    ss = np.random.SeedSequence(_normalize(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed, *path):
    """64-bit integer seed for the substream identified by (seed, *path)."""
    ss = np.random.SeedSequence(_normalize(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
