"""Direction-optimized *algebraic* BFS: push (SpMSpV) / pull (SpMV) hybrid.

Figure 1 of the paper plots "Algebraic BFS with SlimSell (direction opt.)"
— the well-known direction optimization [3] expressed algebraically, which
the paper calls orthogonal to SlimSell ("can be implemented on top of
SlimSell").  In algebraic terms the two directions are:

* **push** — a sparse product: only the frontier's columns contribute
  (SpMSpV), work ∝ adjacency of the frontier.  Optimal for small frontiers.
* **pull** — the dense SlimSell SpMV sweep restricted by SlimWork's chunk
  mask, work ∝ surviving chunks.  Optimal for huge frontiers, where it
  vectorizes perfectly and touches each output lane once.

The switch uses Beamer's edge-mass heuristic, exactly like the
combinatorial :mod:`repro.bfs.direction_opt`.

Iteration-stats contract (shared with :mod:`repro.bfs.mshybrid`): every
iteration is labeled ``direction`` ``"push"`` or ``"pull"``;
``work_lanes`` always holds the total work issued — padded lanes
``Σ cl[active]·C`` on pull iterations, adjacency entries examined on push
iterations — so per-iteration work series are comparable across
directions.  ``chunks_processed``/``chunks_skipped`` are nonzero only on
pull iterations, ``edges_examined`` only on push iterations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.msbfs import spmm_layer_sweep
from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmspv import expand_adjacency
from repro.bfs.spmv import BFSSpMV
from repro.formats.sell import SellCSigma
from repro.graphs.graph import _sort_unique
from repro.semirings.base import get_semiring


def bfs_hybrid(
    rep: SellCSigma,
    root: int,
    alpha: float = 14.0,
    max_iters: int | None = None,
) -> BFSResult:
    """Push/pull algebraic BFS over a chunked representation.

    Runs the tropical semiring in both directions: push iterations expand
    the frontier's adjacency sparsely; pull iterations run the SlimWork
    SpMV sweep.  Distances (and DP parents) are identical to every other
    BFS in the library.

    Parameters
    ----------
    rep:
        Built :class:`SellCSigma`/:class:`SlimSell` (pull direction).
    root:
        Start vertex, original ids.
    alpha:
        Beamer threshold: pull when frontier edge mass > unexplored / α.
    """
    graph = rep.graph_original
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    sr = get_semiring("tropical")
    # Pull engine state lives in permuted space; we keep the canonical
    # distance vector in original space and mirror it into the engine's
    # state on direction changes.
    pull = BFSSpMV(rep, sr, slimwork=True, compute_parents=False)
    st = sr.init_state(rep.n, rep.N, int(rep.perm[root]))

    dist = np.full(n, np.inf)
    dist[root] = 0.0
    frontier = np.array([root], dtype=np.int64)
    degrees = graph.degrees
    m2 = int(degrees.sum())
    explored = int(degrees[root])
    iters: list[IterationStats] = []
    cap = max_iters if max_iters is not None else n + 1
    t0 = time.perf_counter()
    k = 0
    while frontier.size and k < cap:
        k += 1
        t_it = time.perf_counter()
        m_f = int(degrees[frontier].sum())
        use_pull = m_f > (m2 - explored) / alpha
        if use_pull:
            # One SlimWork SpMV sweep (state mirrors current distances).
            st.f = np.full(rep.N, np.inf)
            st.f[rep.perm] = dist
            st.depth = k
            active = pull._active_chunks(st)
            x_raw = st.f.copy()
            spmm_layer_sweep(rep, sr, st.f, x_raw, np.flatnonzero(active))
            st.f = x_raw
            dist_new = x_raw[rep.perm]
            newly = np.flatnonzero(dist_new < dist)
            dist = dist_new
            stats = IterationStats(
                k=k, newly=int(newly.size),
                time_s=time.perf_counter() - t_it,
                chunks_processed=int(active.sum()),
                chunks_skipped=int(rep.nc - active.sum()),
                work_lanes=int(rep.cl[active].sum()) * rep.C,
                direction="pull")
        else:
            # Sparse push: expand the frontier's adjacency lists.
            nbrs, _ = expand_adjacency(graph, frontier)
            total = int(nbrs.size)
            if total:
                cand = _sort_unique(nbrs[~np.isfinite(dist[nbrs])])
            else:
                cand = np.empty(0, dtype=np.int64)
            dist[cand] = k
            newly = cand
            stats = IterationStats(
                k=k, newly=int(cand.size),
                time_s=time.perf_counter() - t_it,
                work_lanes=total,  # push work = adjacency entries examined
                edges_examined=total, direction="push")
        explored += int(degrees[newly].sum())
        frontier = newly
        iters.append(stats)

    from repro.bfs.dp import dp_transform

    return BFSResult(
        dist=dist, parent=dp_transform(graph, dist), root=root,
        method="spmv-hybrid", semiring="tropical",
        representation=rep.name, iterations=iters,
        preprocess_time_s=rep.build_time_s,
        total_time_s=time.perf_counter() - t0)
