"""Brandes betweenness centrality over SlimSell SpMV/SpMM products.

The paper's §VI names betweenness centrality (BC) as the natural next
algorithm for SlimSell (and [35] is the authors' own algebraic BC work).
This module implements Brandes' algorithm [2001] with both sweeps expressed
as A ⊗ x products over the real semiring on a chunked representation:

* **forward** — level-synchronous path counting: σ_k = A ⊗ (σ restricted
  to level k−1), keeping entries that land on level k;
* **backward** — dependency accumulation: δ contributions flow one level
  down via A ⊗ ((1 + δ_w)/σ_w restricted to level k).

Sources are processed in batches (``batch`` parameter): the per-source BFS
levelizations come from one multi-source SpMM traversal
(:class:`~repro.bfs.msbfs.MultiSourceBFS`) and both sweeps run over
``(n, B)`` blocks through :meth:`~repro.bfs.operator.SlimSpMV.matmat`, so
the layout's ``col`` stream is read once per layer for all B sources.
``batch=1`` falls back to the sequential per-source loop (same numbers up
to float summation order when accumulating into ``bc``).

For an unweighted undirected graph, BC(v) = Σ_{s≠v≠t} σ_st(v)/σ_st.
Exact for every graph; normalized like networkx when ``normalized=True``.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.operator import SlimSpMV
from repro.bfs.spmv import BFSSpMV
from repro.formats.sell import SellCSigma
from repro.formats.slimsell import SlimSell
from repro.graphs.graph import Graph

#: Default number of Brandes sources per SpMM batch.  The batched path
#: holds roughly six (n, B) float64 blocks live (dist/σ/δ/X/Y plus masks):
#: ~1.5 MB per 1k vertices at B=32.  That amortizes the per-layer indexing
#: ~32x and stays comfortable up to ~10^6 vertices (~1.5 GB); beyond that,
#: pass a smaller ``batch`` to trade speed for footprint.
DEFAULT_BC_BATCH = 32


def _bc_from_source(op: SlimSpMV, bfs: BFSSpMV, s: int, bc: np.ndarray,
                    x: np.ndarray | None = None) -> None:
    """Accumulate one source's dependencies into ``bc`` (Brandes inner loop).

    ``x`` is an optional caller-owned scratch vector (all zeros on entry,
    re-zeroed via the level index sets before returning) so the n-source
    loop doesn't allocate two fresh dense vectors per level per sweep.
    """
    n = op.n
    res = bfs.run(s)
    dist = res.dist
    reached = np.isfinite(dist)
    depth = int(dist[reached].max()) if reached.any() else 0
    levels = [np.flatnonzero(reached & (dist == k)) for k in range(depth + 1)]
    if x is None:
        x = np.zeros(n)

    # Forward sweep: σ (number of shortest paths) per level.
    sigma = np.zeros(n)
    sigma[s] = 1.0
    for k in range(1, depth + 1):
        prev = levels[k - 1]
        x[prev] = sigma[prev]
        y = op(x)  # y[w] = Σ_{v ∈ N(w)} x[v]
        sigma[levels[k]] = y[levels[k]]
        x[prev] = 0.0  # re-zero the scratch via the level index set

    # Backward sweep: δ dependencies, deepest level first.
    delta = np.zeros(n)
    for k in range(depth, 0, -1):
        w = levels[k]
        x[w] = (1.0 + delta[w]) / sigma[w]
        y = op(x)  # y[v] = Σ_{w ∈ N(v)} x[w]
        v = levels[k - 1]
        delta[v] += sigma[v] * y[v]
        x[w] = 0.0
    delta[s] = 0.0
    bc += delta


def _bc_from_batch(op: SlimSpMV, ms: MultiSourceBFS, srcs: np.ndarray,
                   bc: np.ndarray) -> None:
    """Accumulate one batch of sources via (n, B) SpMM sweeps."""
    n = op.n
    B = srcs.size
    cols = np.arange(B)
    results = ms.run(srcs)
    dist = np.stack([r.dist for r in results], axis=1)  # (n, B)
    reached = np.isfinite(dist)
    depth = int(dist[reached].max()) if reached.any() else 0

    # Forward sweep: all B σ columns advance one level per matmat.
    sigma = np.zeros((n, B))
    sigma[srcs, cols] = 1.0
    for k in range(1, depth + 1):
        prev = dist == (k - 1)
        X = np.where(prev, sigma, 0.0)
        Y = op.matmat(X)
        sigma = np.where(dist == k, Y, sigma)

    # Backward sweep, deepest level first; columns past their own depth
    # contribute all-zero blocks and are effectively idle.
    delta = np.zeros((n, B))
    for k in range(depth, 0, -1):
        wm = dist == k
        X = np.zeros((n, B))
        np.divide(1.0 + delta, sigma, out=X, where=wm & (sigma != 0))
        Y = op.matmat(X)
        delta += np.where(dist == (k - 1), sigma * Y, 0.0)
    delta[srcs, cols] = 0.0
    bc += delta.sum(axis=1)


def betweenness_centrality(
    graph_or_rep: Graph | SellCSigma,
    *,
    C: int = 8,
    sources: np.ndarray | None = None,
    normalized: bool = True,
    seed: int = 0,
    batch: int | None = None,
) -> np.ndarray:
    """Betweenness centrality via algebraic sweeps on SlimSell.

    Parameters
    ----------
    graph_or_rep:
        Graph (a SlimSell representation is built) or a prebuilt rep.
    C:
        Chunk height when building the representation.
    sources:
        Source subset for approximate BC (Brandes–Pich sampling); ``None``
        computes the exact value from every vertex.
    normalized:
        Divide by (n−1)(n−2) (undirected pairs, networkx convention).
    seed:
        Reserved for samplers built on top; unused when ``sources`` given.
    batch:
        Sources per SpMM batch (``None`` = :data:`DEFAULT_BC_BATCH`;
        1 = sequential per-source SpMV loop).

    Returns
    -------
    float64[n] centrality scores (undirected: each pair counted once).
    """
    if isinstance(graph_or_rep, Graph):
        rep = SlimSell(graph_or_rep, C, graph_or_rep.n)
    else:
        rep = graph_or_rep
    n = rep.n
    if batch is None:
        batch = DEFAULT_BC_BATCH
    if batch < 1:
        raise ValueError(f"batch must be >= 1 or None, got {batch}")
    src = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    if src.ndim != 1:
        raise ValueError(f"sources must be a 1-D sequence, got shape {src.shape}")
    op = SlimSpMV(rep, "real")
    bc = np.zeros(n)
    if batch > 1 and len(src):
        ms = MultiSourceBFS(rep, "tropical", slimwork=True,
                            compute_parents=False)
        for i in range(0, len(src), batch):
            _bc_from_batch(op, ms, np.asarray(src[i:i + batch]), bc)
    else:
        bfs = BFSSpMV(rep, "tropical", slimwork=True, compute_parents=False)
        x_scratch = np.zeros(n)
        for s in src:
            _bc_from_source(op, bfs, int(s), bc, x_scratch)
    bc /= 2.0  # undirected: every pair (s, t) visited twice
    if sources is not None and len(src) and len(src) < n:
        bc *= n / len(src)  # unbiased sample scale-up
    if normalized and n > 2:
        bc /= (n - 1) * (n - 2) / 2.0
    return bc
