"""Host-speed calibration: a fixed pure-Python kernel timed beside the workload.

The benchmark runs on a share of a machine whose speed drifts, by up to
about 2x over minutes, with the load of its other tenants. Raw seconds
measured minutes apart then differ more than any change worth gating. So
every time the benchmark reports is scaled to a reference speed:

    reported = measured seconds × REFERENCE_UNIT_S ÷ kernel seconds

where the kernel seconds are the mean duration of one run of ``kernel``,
timed right before and right after the measured interval. ``kernel`` is
plain Python of the same kind as the package (dicts, lists, tuples, small
objects, a union-find and a breadth-first search) but never calls it, so a
change to the package moves the reported time as much as the raw one. On
a shared 2-vCPU Intel Xeon host under CPython 3.11, one kernel run took
0.6 to 1 ms, so reported seconds are close to raw ones there.
"""

from __future__ import annotations

import random
import time

REFERENCE_UNIT_S = 0.001
SHARE = 0.2  # seconds of calibration per measured second
WARMUP_UNITS = 20

_N = 300
_rng = random.Random(5)
_EDGES = tuple((_rng.randrange(_N), _rng.randrange(_N)) for _ in range(3 * _N))


class _Node:
    __slots__ = ("vertex", "parent")

    def __init__(self, vertex: int, parent: int | None) -> None:
        self.vertex = vertex
        self.parent = parent


def kernel() -> int:
    """A spanning forest of a fixed random graph, then a search over it."""
    parent = list(range(_N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for i, (u, v) in enumerate(_EDGES):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append(i)
    adjacent: dict[int, list[tuple[int, int]]] = {}
    for i in forest:
        u, v = _EDGES[i]
        adjacent.setdefault(u, []).append((v, i))
        adjacent.setdefault(v, []).append((u, i))
    seen: dict[int, _Node] = {}
    for start in range(_N):
        if start in seen:
            continue
        seen[start] = _Node(start, None)
        queue = [start]
        for x in queue:
            for y, _ in adjacent.get(x, ()):
                if y not in seen:
                    seen[y] = _Node(y, x)
                    queue.append(y)
    roots = tuple(sorted({find(v) for v in range(_N)}))
    return len(forest) + len(roots) + len(frozenset(seen))


class Meter:
    """Times ``kernel`` between measured intervals and gives each interval
    its scale to the reference speed."""

    def __init__(self) -> None:
        self._before = self._calibrate(WARMUP_UNITS)
        self.raw_seconds = 0.0
        self.scaled_seconds = 0.0

    @staticmethod
    def _calibrate(units: int) -> tuple[float, int]:
        start = time.perf_counter()
        for _ in range(units):
            kernel()
        return time.perf_counter() - start, units

    def scale(self, seconds: float) -> float:
        """The factor for an interval of ``seconds`` that has just ended.

        Calibrates for about ``SHARE × seconds`` now, and averages that
        with the calibration made before the interval began.
        """
        units = max(1, round(SHARE * seconds / REFERENCE_UNIT_S))
        after = self._calibrate(units)
        (t0, n0), (t1, n1) = self._before, after
        self._before = after
        factor = REFERENCE_UNIT_S * (n0 + n1) / (t0 + t1)
        self.raw_seconds += seconds
        self.scaled_seconds += seconds * factor
        return factor
