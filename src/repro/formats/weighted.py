"""Weighted Sell-C-σ: the chunked layout with real edge values.

The precise boundary of the SlimSell idea (§III-B): Sell-C-σ works for any
matrix, and its SIMD-friendly chunking carries over to weighted graphs
unchanged — but the ``val`` array now holds information (the weights) and
can no longer be reconstructed from ``col`` markers.  ``WeightedSellCSigma``
completes that story: it shares the geometry of :class:`SellCSigma` and
adds a weight-filled ``val``, on which :func:`sssp_chunked` runs min-plus
SSSP with the same layer sweep the BFS engines use.

Storage: 4m + 2n/C + P cells — exactly Sell-C-σ; the 2m-cell SlimSell
saving is unavailable, by construction.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.result import BFSResult, IterationStats
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph


class WeightedSellCSigma(SellCSigma):
    """Sell-C-σ over a weighted undirected graph.

    Parameters
    ----------
    graph:
        The graph (structure only).
    weights:
        float64[m] per-undirected-edge weights aligned with
        :meth:`Graph.edges` (canonical u < v order); must be non-negative.
    C / sigma:
        Chunk height and sorting scope, as for :class:`SellCSigma`.
    """

    name = "weighted-sell-c-sigma"
    has_val = True

    def __init__(self, graph: Graph, weights: np.ndarray, C: int,
                 sigma: int | None = None):
        super().__init__(graph, C, sigma)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (graph.m,):
            raise ValueError(
                f"weights must have shape ({graph.m},), got {weights.shape}")
        if weights.size and weights.min() < 0:
            raise ValueError("negative edge weights are not supported")
        self.edge_weights = weights
        self._wval = self._scatter_weights(weights)

    def _scatter_weights(self, weights: np.ndarray) -> np.ndarray:
        """Weights → padded slot array (padding = +inf, the ⊗ annihilator)."""
        g = self.graph_original
        n = g.n
        e = g.edges()
        keys = e[:, 0] * np.int64(n) + e[:, 1]
        order = np.argsort(keys)
        keys_sorted, w_sorted = keys[order], weights[order]
        # Each slot of the permuted layout corresponds to a directed entry
        # (row', col') in sorted space; map back to original-id pairs.
        lay = self._layout
        slots = np.flatnonzero(lay.col != -1)
        rows_p = self.row64[slots]
        cols_p = lay.col[slots].astype(np.int64)
        u = self.iperm[rows_p]
        v = self.iperm[cols_p]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        idx = np.searchsorted(keys_sorted, lo * np.int64(n) + hi)
        val = np.full(lay.col.size, np.inf)
        val[slots] = w_sorted[idx]
        return val

    def val_for(self, semiring) -> np.ndarray:
        """Weighted values for the tropical semiring (others are undefined)."""
        if semiring.name != "tropical":
            raise ValueError(
                "WeightedSellCSigma only supports the tropical semiring "
                f"(min-plus SSSP); got {semiring.name!r}")
        return self._wval


def sssp_chunked(rep: WeightedSellCSigma, root: int,
                 max_iters: int | None = None) -> BFSResult:
    """Min-plus SSSP by repeated layer sweeps over the weighted layout.

    The weighted generalization of the tropical BFS-SpMV: identical memory
    access pattern, real edge weights in ``val``.  Converges in (weighted
    hop diameter + 1) sweeps.
    """
    from repro.bfs.msbfs import sweep_band_layers
    from repro.semirings.base import get_semiring

    n = rep.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    sr = get_semiring("tropical")
    C = rep.C
    col = rep.col64  # memoized on the representation across runs
    val = rep.val_for(sr)
    chunks = np.arange(rep.nc)
    f = np.full(rep.N, np.inf)
    f[int(rep.perm[root])] = 0.0
    iters: list[IterationStats] = []
    cap = max_iters if max_iters is not None else rep.N + 1
    t0 = time.perf_counter()
    k = 0
    while k < cap:
        k += 1
        t_it = time.perf_counter()
        x = f.copy()
        sweep_band_layers(sr, C, col, val, rep.cs, rep.cl, f,
                          x.reshape(rep.nc, C), chunks, row64=rep.row64)
        changed = int(np.count_nonzero(x != f))
        f = x
        iters.append(IterationStats(
            k=k, newly=changed, time_s=time.perf_counter() - t_it,
            work_lanes=int(rep.cl.sum()) * C, direction="weighted-sweep"))
        if changed == 0:
            break
    dist = f[rep.perm]
    from repro.apps.sssp import _weighted_parents, expand_edge_weights

    wd = expand_edge_weights(rep.graph_original, rep.edge_weights)
    return BFSResult(
        dist=dist, parent=_weighted_parents(rep.graph_original, wd, dist),
        root=root, method="sssp-chunked", semiring="tropical",
        representation=rep.name, iterations=iters,
        preprocess_time_s=rep.build_time_s,
        total_time_s=time.perf_counter() - t0)
