"""Direction-optimizing BFS (Beamer et al. [3]) — Fig 1's "direction opt.".

The paper positions direction optimization as *orthogonal* to SlimSell
("can be implemented on top of SlimSell"); Fig 1 plots an algebraic BFS
with direction optimization next to SlimSell and traditional BFS.  This
module provides the combinatorial variant: switch from top-down frontier
expansion to bottom-up parent hunting when the frontier's edge mass exceeds
a fraction of the unexplored edge mass, and back when the frontier shrinks.

Heuristic (Beamer's α/β): go bottom-up when ``m_f > m_u / alpha``; return
top-down when ``n_f < n / beta``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmspv import expand_adjacency
from repro.graphs.graph import Graph


def _bottom_up_step(graph: Graph, dist: np.ndarray, parent: np.ndarray,
                    in_frontier: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """One bottom-up sweep: every unvisited vertex scans for a frontier parent.

    Returns the new frontier (vertex ids) and the number of adjacency
    entries examined (a full scan of unvisited adjacency; the real code
    stops at the first hit — we report full-scan counts and note the
    modeled early exit via the ``/ 2`` expectation in the cost model).
    """
    unvisited = np.flatnonzero(~np.isfinite(dist))
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64), 0
    nbrs, _ = expand_adjacency(graph, unvisited)
    total = int(nbrs.size)
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    deg = graph.indptr[unvisited + 1] - graph.indptr[unvisited]
    hit = in_frontier[nbrs]
    # Segment-max picks one frontier parent per vertex (−1 = none found).
    cand = np.where(hit, nbrs, np.int64(-1))
    best = np.full(unvisited.size, -1, dtype=np.int64)
    nonempty = deg > 0
    offsets = np.concatenate([[0], np.cumsum(deg)])[:-1]
    best[nonempty] = np.maximum.reduceat(cand, offsets[nonempty])
    found = best >= 0
    newly = unvisited[found]
    dist[newly] = k
    parent[newly] = best[found]
    return newly, total


def bfs_direction_optimizing(
    graph: Graph,
    root: int,
    alpha: float = 14.0,
    beta: float = 24.0,
    max_iters: int | None = None,
) -> BFSResult:
    """BFS with Beamer-style top-down / bottom-up switching.

    Parameters
    ----------
    graph, root:
        The traversal input.
    alpha:
        Switch to bottom-up when frontier edge mass > unexplored mass / α.
    beta:
        Switch back to top-down when frontier size < n / β.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    dist[root] = 0.0
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    in_frontier = np.zeros(n, dtype=bool)
    degrees = graph.degrees
    m2 = int(degrees.sum())
    explored_mass = int(degrees[root])
    bottom_up = False
    iters: list[IterationStats] = []
    cap = max_iters if max_iters is not None else n + 1
    t_total = time.perf_counter()
    k = 0
    while frontier.size and k < cap:
        k += 1
        t0 = time.perf_counter()
        m_f = int(degrees[frontier].sum())
        m_u = m2 - explored_mass
        # Beamer's rule, with the frontier-size guard so a tiny tail
        # frontier never ping-pongs into bottom-up sweeps.
        if not bottom_up and m_f > m_u / alpha and frontier.size >= n / beta:
            bottom_up = True
        elif bottom_up and frontier.size < n / beta:
            bottom_up = False
        if bottom_up:
            in_frontier[:] = False
            in_frontier[frontier] = True
            newly, examined = _bottom_up_step(graph, dist, parent, in_frontier, k)
            direction = "bottom-up"
        else:
            nbrs, seg = expand_adjacency(graph, frontier)
            src = frontier[seg]
            unvisited = ~np.isfinite(dist[nbrs])
            newly, first = np.unique(nbrs[unvisited], return_index=True)
            dist[newly] = k
            parent[newly] = src[unvisited][first]
            examined = int(nbrs.size)
            direction = "top-down"
        explored_mass += int(degrees[newly].sum())
        frontier = newly
        iters.append(IterationStats(
            k=k, newly=int(newly.size), time_s=time.perf_counter() - t0,
            edges_examined=examined, direction=direction,
        ))
    return BFSResult(
        dist=dist, parent=parent, root=root, method="direction-optimizing",
        representation="al", iterations=iters,
        total_time_s=time.perf_counter() - t_total,
    )
