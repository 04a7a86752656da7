"""A fixed pure-Python workload that tracks how fast the machine runs now.

On a shared machine the same code can run tens of percent slower for
seconds or minutes while neighbours are busy. Timing this probe next to
each solve measures that slowdown, so solve times can be scaled to a
reference speed.
"""

from __future__ import annotations

import heapq
import math
import random
import time

NODES = 300
OUT_DEGREE = 5
SOURCES = range(0, NODES, 30)


class SpeedProbe:
    """Heap-based shortest paths over a fixed random graph."""

    def __init__(self):
        rng = random.Random(0)
        self.adj = [[(rng.randrange(NODES), rng.uniform(1.0, 10.0))
                     for _ in range(OUT_DEGREE)] for _ in range(NODES)]

    def seconds(self) -> float:
        """Time one run of the fixed workload."""
        adj = self.adj
        t0 = time.perf_counter()
        for source in SOURCES:
            dist = [math.inf] * NODES
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                for u, w in adj[v]:
                    nd = d + w
                    if nd < dist[u]:
                        dist[u] = nd
                        heapq.heappush(heap, (nd, u))
        return time.perf_counter() - t0
