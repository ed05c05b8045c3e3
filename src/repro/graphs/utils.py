"""Graph utilities: components, pseudo-diameter, degree statistics.

These back the Table IV corpus reproduction (n, m, ρ̄, D columns) and are
used by generators and tests.  All routines are vectorized frontier sweeps
on the CSR structure — no per-vertex Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph, _sort_unique
from repro.obs.metrics import percentile


def _bfs_levels(g: Graph, root: int) -> np.ndarray:
    """Distance (in hops) from ``root`` to every vertex; -1 if unreachable."""
    n = g.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        deg = g.indptr[frontier + 1] - g.indptr[frontier]
        starts = np.repeat(g.indptr[frontier], deg)
        within = np.arange(int(deg.sum())) - np.repeat(np.cumsum(deg) - deg, deg)
        nbrs = g.indices[starts + within]
        cand = _sort_unique(nbrs[dist[nbrs] < 0])
        dist[cand] = level
        frontier = cand
    return dist


def connected_components(g: Graph) -> np.ndarray:
    """Component label of every vertex (labels are arbitrary 0..k-1)."""
    n = g.n
    label = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        d = _bfs_levels(g, start)
        label[d >= 0] = next_label
        next_label += 1
        if (label >= 0).all():
            break
    return label


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component (relabeled 0..k-1)."""
    lab = connected_components(g)
    counts = np.bincount(lab)
    keep = lab == counts.argmax()
    newid = np.cumsum(keep) - 1
    e = g.edges()
    e_keep = e[keep[e[:, 0]] & keep[e[:, 1]]]
    remapped = np.stack([newid[e_keep[:, 0]], newid[e_keep[:, 1]]], axis=1)
    return Graph.from_edges(int(keep.sum()), remapped)


def pseudo_diameter(g: Graph, sweeps: int = 4, seed: int = 0) -> int:
    """Lower-bound estimate of the diameter D by repeated double sweeps.

    Standard heuristic: BFS from a start vertex, move to the farthest vertex
    found, repeat.  Exact for trees, a tight lower bound in practice; the
    paper reports diameters at this fidelity (Table IV).
    Operates on the component of the start vertex (highest-degree vertex).
    """
    if g.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    start = int(np.argmax(g.degrees))
    best = 0
    for _ in range(max(1, sweeps)):
        dist = _bfs_levels(g, start)
        reach = dist >= 0
        if not reach.any():
            break
        ecc = int(dist[reach].max())
        best = max(best, ecc)
        far = np.flatnonzero(dist == ecc)
        start = int(rng.choice(far))
    return best


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution (used by Table IV verification)."""

    n: int
    m: int
    avg: float
    max: int
    median: float
    p99: float


def degree_stats(g: Graph) -> DegreeStats:
    """Compute n, m, ρ̄, ρ̂ and quantiles of the degree distribution."""
    d = g.degrees
    if d.size == 0:
        return DegreeStats(0, 0, 0.0, 0, 0.0, 0.0)
    return DegreeStats(
        n=g.n,
        m=g.m,
        avg=g.avg_degree,
        max=int(d.max()),
        median=float(np.median(d)),
        p99=percentile(d, 99),
    )
