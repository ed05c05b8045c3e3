"""Traditional (combinatorial) BFS — the paper's ``Trad-BFS`` baseline.

Two implementations:

* :func:`bfs_serial` — textbook deque BFS, pure Python.  The oracle for
  correctness tests on small graphs.
* :func:`bfs_top_down` — the work-efficient frontier-expansion BFS in the
  style of the optimized Graph500 OpenMP code [30] the paper compares
  against: per iteration, the adjacency lists of the frontier are gathered,
  unvisited endpoints become the next frontier and receive distances and
  parents.  Fully vectorized; per-iteration edge-examination counts feed
  the cost model's scalar-work term (traditional BFS does fine-grained,
  irregular accesses that do not vectorize — §I).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmspv import expand_adjacency
from repro.graphs.graph import Graph


def bfs_serial(graph: Graph, root: int) -> BFSResult:
    """Reference textbook BFS (deque); O(n + m) but Python-speed."""
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    dist[root] = 0.0
    parent[root] = root
    q = deque([root])
    t0 = time.perf_counter()
    while q:
        v = q.popleft()
        for w in graph.neighbors(v):
            if not np.isfinite(dist[w]):
                dist[w] = dist[v] + 1.0
                parent[w] = v
                q.append(int(w))
    return BFSResult(
        dist=dist, parent=parent, root=root, method="serial",
        total_time_s=time.perf_counter() - t0,
    )


def bfs_top_down(graph: Graph, root: int, max_iters: int | None = None) -> BFSResult:
    """Work-efficient top-down BFS with per-iteration statistics.

    Each iteration examines exactly the adjacency entries of the current
    frontier (Σ over the run = 2m on a connected graph), mirroring the
    Graph500 baseline's work profile.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    dist[root] = 0.0
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    iters: list[IterationStats] = []
    cap = max_iters if max_iters is not None else n + 1
    t_total = time.perf_counter()
    k = 0
    while frontier.size and k < cap:
        k += 1
        t0 = time.perf_counter()
        nbrs, seg = expand_adjacency(graph, frontier)
        src = frontier[seg]
        unvisited = ~np.isfinite(dist[nbrs])
        cand, first = np.unique(nbrs[unvisited], return_index=True)
        dist[cand] = k
        parent[cand] = src[unvisited][first]
        frontier = cand
        iters.append(IterationStats(
            k=k, newly=int(cand.size),
            time_s=time.perf_counter() - t0,
            edges_examined=int(nbrs.size),
            direction="top-down",
        ))
    return BFSResult(
        dist=dist, parent=parent, root=root, method="traditional",
        representation="al", iterations=iters,
        total_time_s=time.perf_counter() - t_total,
    )
