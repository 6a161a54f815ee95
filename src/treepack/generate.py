"""Seeded random graphs for the ``gen`` command and the tests."""

from __future__ import annotations

import sys

from .multigraph import MultiGraph


_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator: 64-bit state, the usual published constants.

    Identical seeds yield identical streams in any implementation of the
    algorithm, which makes generated instances reproducible bit for bit.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_word(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_word() % bound


def random_graph(n: int, m: int, seed: int) -> MultiGraph:
    """Random multigraph with loops and parallels allowed, reproducible by seed.

    Each endpoint is ``(next SplitMix64 word) % n``, drawn in order (u then
    v per edge), so the graph is a pure function of (n, m, seed). An ``n``
    or ``m`` that no index can address is a ValueError, raised before any
    edge is drawn.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if max(n, m) > sys.maxsize:
        raise ValueError(f"input too large: n and m must be at most {sys.maxsize}")
    rng = SplitMix64(seed)
    return MultiGraph(n, tuple((rng.below(n), rng.below(n)) for _ in range(m)))
