"""Batched direction-optimizing multi-source BFS: the push/pull SpMM hybrid.

The paper notes that direction optimization [3] "can be implemented on top
of SlimSell" (Fig. 1).  :class:`MultiSourceHybridBFS` does so as one step on
the batched loop of :mod:`repro.bfs.msbfs`: it supplies Beamer's per-column
choice, the push phase and the per-column run state they need (frontier,
its edge mass ``m_f``, explored mass); state, tracing, timing, termination,
compaction and finalize are the all-pull engine's.  Each column of the
``(N, B)`` frontier matrix chooses its direction per layer:

* **push columns** expand their frontiers' adjacency sparsely in one
  vectorized segment pass — a batched SpMSpV: all push columns'
  (column, neighbor, value) contributions are keyed, sorted once, and
  ⊕-reduced with the semiring's ``add.reduceat`` (the algebraic
  generalization of :func:`repro.bfs.hybrid.bfs_hybrid`'s push step);
* **pull columns** share one SlimWork-masked SpMM sweep over the union of
  their active chunks, through the same mask-and-sweep helper as the
  all-pull step.

Both directions write into the same carried accumulator ``x_raw``, so one
shape-polymorphic ``postprocess`` per iteration updates the batched state.
Distances, parents, and roots are **bit-identical** to every existing
engine (per semiring): push contributions are algebraically the
frontier-restricted SpMV product, and — the BFS invariant that makes the
restriction lossless — every visited neighbor of a still-unvisited vertex
lies on the current frontier, so ⊕ over the frontier equals ⊕ over all
visited neighbors.  (The real semiring's carried *path counts* may differ
in summation order between directions; only their nonzeroness reaches
distances/parents, which stay exact.)

Direction heuristic (per column, memoryless like ``bfs_hybrid``): pull
when the frontier's edge mass exceeds the unexplored mass over α —
``m_f > m_u / α``.  α → 0 therefore forces all-push, α → ∞ all-pull.

Iteration-stats contract: see :mod:`repro.bfs.hybrid` — ``direction`` is
``"push"`` or ``"pull"`` per column per iteration; ``work_lanes`` is the
work issued for that column (padded lanes on pull, adjacency entries on
push); chunk counts are pull-only, ``edges_examined`` push-only.  Traced
runs get one ``bfs.layer`` span per iteration with the ``pull`` and
``push`` column counts.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.msbfs import _BatchLoop, build_rep, run_in_batches
from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmspv import expand_adjacency
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.semirings.base import BFSState, SemiringBFS

__all__ = ["MultiSourceHybridBFS", "bfs_mshybrid"]


class MultiSourceHybridBFS(_BatchLoop):
    """Batched push/pull BFS over a chunked representation.

    Parameters
    ----------
    rep:
        A built :class:`SellCSigma` or :class:`SlimSell`.
    semiring:
        A :class:`SemiringBFS` instance or name — all four BFS semirings
        are supported in both directions.
    alpha:
        Beamer threshold (per column): pull when frontier edge mass >
        unexplored mass / α.  Must be positive.
    slimwork:
        §III-C chunk skipping for the pull direction, tracked per column;
        the shared SpMM sweep processes the union of the pull columns'
        active sets.  On (the default) it reproduces ``bfs_hybrid``'s
        pull iterations exactly.
    compute_parents:
        Produce parent vectors (sel-max: native; others: DP transform).
    max_iters:
        Safety cap on iterations (defaults to N + 1).
    """

    _method = "spmv-mshybrid"

    def __init__(
        self,
        rep: SellCSigma,
        semiring: SemiringBFS | str = "tropical",
        *,
        alpha: float = 14.0,
        slimwork: bool = True,
        compute_parents: bool = True,
        max_iters: int | None = None,
    ):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        super().__init__(rep, semiring, slimwork=slimwork,
                         compute_parents=compute_parents, max_iters=max_iters)
        self.alpha = float(alpha)

    # ------------------------------------------------------------------
    def run(self, roots) -> list[BFSResult]:
        """Traverse from every root, as :meth:`.MultiSourceBFS.run` does."""
        return self._run(roots)

    def _start(self, st: BFSState, proots: np.ndarray) -> None:
        rep = self.rep
        # Degree vector over the padded id space (virtual rows are edgeless)
        # drives both the heuristic's edge-mass terms and push stats.
        self._deg = np.zeros(rep.N, dtype=np.int64)
        self._deg[: rep.n] = rep.graph.degrees
        self._m2 = int(self._deg.sum())
        self._frontier = np.zeros((rep.N, proots.size), dtype=bool)
        self._frontier[proots, np.arange(proots.size)] = True
        self._m_f = self._deg[proots]  # per-column frontier edge mass
        self._explored = self._m_f.copy()  # per-column explored edge mass

    def _compact(self, keep: np.ndarray) -> None:
        self._frontier = self._frontier[:, keep]
        self._explored = self._explored[keep]
        self._m_f = self._m_f[keep]

    def _step(self, st: BFSState, k: int):
        rep, sr = self.rep, self.semiring
        C, nc = rep.C, rep.nc
        # Beamer's rule, evaluated per column exactly as bfs_hybrid does
        # per traversal (memoryless, no hysteresis).  m_f was computed
        # when this frontier was settled (one dense product per layer).
        m_f = self._m_f
        use_pull = m_f > (self._m2 - self._explored) / self.alpha
        pc = np.flatnonzero(use_pull)
        qc = np.flatnonzero(~use_pull)
        proc = layers = None
        if not qc.size:
            # Dense middle layers: every live column pulls — sweep the
            # whole state, no column extraction needed.
            _, proc, layers, x_raw = self._pull(st, k)
        else:
            x_raw = st.f.copy()  # carry: untouched lanes keep their columns
            if pc.size:
                _, proc, layers, x_pull = self._pull(st, k, pc)
                x_raw[:, pc] = x_pull
            self._push_phase(st, x_raw, qc)
        # The next frontier must be read off before postprocess consumes
        # x_raw (it replaces the carried vector in place); passing it
        # back in skips postprocess's own newly_mask evaluation.
        self._frontier = sr.newly_mask(st, x_raw)
        newly = sr.postprocess(st, x_raw, self._frontier)  # int64[width]
        self._m_f = self._deg @ self._frontier  # next frontier's edge mass
        self._explored = self._explored + self._m_f

        def stats(j: int, newly_j: int, share: float) -> IterationStats:
            if use_pull[j]:
                jj = int(np.searchsorted(pc, j))
                p, lay = int(proc[jj]), int(layers[jj])
                return IterationStats(
                    k=k, newly=newly_j, time_s=share, chunks_processed=p,
                    chunks_skipped=nc - p, work_lanes=lay * C,
                    direction="pull")
            edges = int(m_f[j])
            return IterationStats(
                k=k, newly=newly_j, time_s=share, work_lanes=edges,
                edges_examined=edges, direction="push")

        return newly, stats, {"pull": int(pc.size), "push": int(qc.size)}

    def _push_phase(self, st: BFSState, x_raw: np.ndarray,
                    qc: np.ndarray) -> None:
        """Batched sparse push: one segment pass over all push columns.

        Every (frontier vertex, column) pair contributes
        ``edge_value ⊗ f[v, c]`` to each neighbor; contributions are keyed
        by ``column · N + neighbor``, sorted once, ⊕-reduced per key, and
        ⊕-combined into the carried accumulator — exactly the
        frontier-restricted SpMV product, so postprocess sees the same
        values a pull sweep would have produced for those columns.
        """
        rep, sr = self.rep, self.semiring
        N = rep.N
        v, c = np.nonzero(self._frontier[:, qc])  # (vertex, push col) pairs
        if v.size == 0:
            return
        nbrs, seg = expand_adjacency(rep.graph, v)
        if nbrs.size == 0:
            return
        fvals = st.f[v, qc[c]]
        contrib = sr.mul(sr.edge_value, fvals[seg])
        key = qc[c[seg]] * np.int64(N) + nbrs
        order = np.argsort(key, kind="stable")
        key = key[order]
        contrib = contrib[order]
        starts = np.flatnonzero(
            np.concatenate([[True], key[1:] != key[:-1]]))
        reduced = sr.add.reduceat(contrib, starts)
        rows = key[starts] % N
        cols = key[starts] // N
        x_raw[rows, cols] = sr.add(x_raw[rows, cols], reduced)


def bfs_mshybrid(
    graph_or_rep: Graph | SellCSigma,
    roots,
    semiring: str | SemiringBFS = "tropical",
    *,
    C: int = 8,
    sigma: int | None = None,
    slim: bool = True,
    alpha: float = 14.0,
    slimwork: bool = True,
    compute_parents: bool = True,
    batch: int | None = None,
) -> list[BFSResult]:
    """One-call convenience: direction-optimized batched BFS from ``roots``.

    Mirrors :func:`repro.bfs.msbfs.bfs_msbfs` — a :class:`SlimSell`
    (``slim=True``, default) or :class:`SellCSigma` is built when a raw
    :class:`Graph` is passed.  ``batch`` caps the number of frontier
    columns per sweep (``None`` = all roots at once; values larger than
    ``len(roots)`` simply run one sweep).
    """
    engine = MultiSourceHybridBFS(
        build_rep(graph_or_rep, C, sigma, slim), semiring, alpha=alpha,
        slimwork=slimwork, compute_parents=compute_parents)
    return run_in_batches(engine, roots, batch)
