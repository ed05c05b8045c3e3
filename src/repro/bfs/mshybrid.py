"""Batched direction-optimizing multi-source BFS: the push/pull SpMM hybrid.

This engine closes the gap between two PR lineages the paper treats as
orthogonal and composable (Fig. 1: direction optimization [3] "can be
implemented on top of SlimSell"):

* :mod:`repro.bfs.msbfs` traverses B sources at once with one SpMM layer
  sweep per iteration — but always in the *pull* direction, paying a full
  SlimWork-masked sweep even when a column's frontier is a handful of
  vertices;
* :mod:`repro.bfs.hybrid` switches push/pull with Beamer's edge-mass
  heuristic — but one source at a time.

:class:`MultiSourceHybridBFS` carries an ``(N, B)`` frontier matrix in
which **each column independently** chooses its direction per layer:

* **push columns** expand their frontiers' adjacency sparsely in one
  vectorized segment pass — a batched SpMSpV: all push columns'
  (column, neighbor, value) contributions are keyed, sorted once, and
  ⊕-reduced with the semiring's ``add.reduceat`` (the algebraic
  generalization of :func:`repro.bfs.hybrid.bfs_hybrid`'s push step);
* **pull columns** share one SlimWork-masked SpMM sweep over the union of
  their active chunks, reusing :func:`repro.bfs.msbfs.spmm_layer_sweep`
  and the representation's memoized ``col64``/``val_for`` operands.

Both directions write into the same carried accumulator ``x_raw``, so one
shape-polymorphic ``postprocess`` per iteration updates the batched state
and per-column termination/compaction work exactly as in the all-pull
engine.  Distances, parents, and roots are **bit-identical** to every
existing engine (per semiring): push contributions are algebraically the
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
push); chunk counts are pull-only, ``edges_examined`` push-only.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.msbfs import (
    build_rep,
    chunk_mask,
    compact_columns,
    finalize_batch,
    run_in_batches,
    snapshot_column,
    spmm_layer_sweep,
    validate_roots,
)
from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmspv import expand_adjacency
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.semirings.base import BFSState, SemiringBFS, get_semiring

__all__ = ["MultiSourceHybridBFS", "bfs_mshybrid"]


class MultiSourceHybridBFS:
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
        self.rep = rep
        self.semiring = get_semiring(semiring) if isinstance(semiring, str) else semiring
        self.alpha = float(alpha)
        self.slimwork = bool(slimwork)
        self.compute_parents = bool(compute_parents)
        self.max_iters = max_iters
        #: Optional tracing hooks, same contract as
        #: :class:`~repro.bfs.msbfs.MultiSourceBFS`: an owner attaches a
        #: :class:`repro.obs.trace.Tracer` (and optionally a parent span)
        #: around a run to get one ``bfs.layer`` span per iteration, with
        #: per-direction column counts.
        self.tracer = None
        self.trace_parent = None
        self._layer_span = None

    # ------------------------------------------------------------------
    def run(self, roots) -> list[BFSResult]:
        """Traverse from every root in ``roots`` (original vertex ids).

        Duplicate roots, isolated-vertex roots, and batches wider than the
        graph are all fine — each column is an independent traversal.
        Returns one :class:`BFSResult` per root, in input order.
        """
        rep = self.rep
        roots = validate_roots(rep, roots)
        proots = rep.perm[roots]
        t0 = time.perf_counter()
        finals, per_src = self._sweep(proots)
        total = time.perf_counter() - t0
        method = "spmv-mshybrid"
        if self.slimwork:
            method += "+slimwork"
        return finalize_batch(rep, self.semiring, finals, roots, per_src,
                              total, method, self.compute_parents)

    # ------------------------------------------------------------------
    def _sweep(self, proots: np.ndarray):
        rep, sr = self.rep, self.semiring
        C, nc, N = rep.C, rep.nc, rep.N
        gp = rep.graph  # permuted CSR — push expands in the engine id space
        B = proots.size
        st = sr.init_batch_state(rep.n, N, proots)
        # Degree vector over the padded id space (virtual rows are edgeless)
        # drives both the heuristic's edge-mass terms and push stats.
        deg_N = np.zeros(N, dtype=np.int64)
        deg_N[: rep.n] = gp.degrees
        m2 = int(deg_N.sum())
        frontier = np.zeros((N, B), dtype=bool)
        frontier[proots, np.arange(B)] = True
        m_f = deg_N[proots]        # per-column frontier edge mass
        explored = m_f.copy()      # per-column explored edge mass
        cap = self.max_iters if self.max_iters is not None else N + 1
        per_src: list[list[IterationStats]] = [[] for _ in range(B)]
        col_of = np.arange(B)  # original source of each live state column
        finals: list[BFSState | None] = [None] * B
        k = 0
        while k < cap and col_of.size:
            k += 1
            st.depth = k
            t0 = time.perf_counter()
            width = col_of.size
            tracer = self.tracer
            if tracer is not None:
                self._layer_span = tracer.begin(
                    "bfs.layer", t=t0, parent=self.trace_parent,
                    k=k, width=width)
            # Beamer's rule, evaluated per column exactly as bfs_hybrid does
            # per traversal (memoryless, no hysteresis).  m_f was computed
            # when this frontier was settled (one dense product per layer).
            use_pull = m_f > (m2 - explored) / self.alpha
            pc = np.flatnonzero(use_pull)
            x_raw = st.f.copy()  # carry: untouched lanes keep their columns
            pull_proc = pull_layers = None
            if pc.size:
                pull_proc, pull_layers = self._pull_phase(st, x_raw, pc)
            qc = np.flatnonzero(~use_pull)
            if qc.size:
                self._push_phase(st, x_raw, frontier, qc)
            # The next frontier must be read off before postprocess consumes
            # x_raw (it replaces the carried vector in place); passing it
            # back in skips postprocess's own newly_mask evaluation.
            frontier = sr.newly_mask(st, x_raw)
            newly = sr.postprocess(st, x_raw, frontier)  # int64[width]
            m_next = deg_N @ frontier  # next frontier's edge mass
            explored = explored + m_next
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(self._layer_span, t=t1, pull=int(pc.size),
                           push=int(qc.size), settled=int((newly == 0).sum()))
                self._layer_span = None
            share = (t1 - t0) / width
            for j, b in enumerate(col_of):
                if use_pull[j]:
                    jj = int(np.searchsorted(pc, j))
                    proc = int(pull_proc[jj])
                    layers = int(pull_layers[jj])
                    stat = IterationStats(
                        k=k, newly=int(newly[j]), time_s=share,
                        chunks_processed=proc, chunks_skipped=nc - proc,
                        work_lanes=layers * C, direction="pull")
                else:
                    edges = int(m_f[j])
                    stat = IterationStats(
                        k=k, newly=int(newly[j]), time_s=share,
                        work_lanes=edges, edges_examined=edges,
                        direction="push")
                per_src[b].append(stat)
            m_f = m_next
            dead = newly == 0
            if dead.any():
                for j in np.flatnonzero(dead):
                    finals[col_of[j]] = snapshot_column(st, int(j))
                keep = ~dead
                compact_columns(st, keep)
                frontier = frontier[:, keep]
                explored = explored[keep]
                m_f = m_f[keep]
                col_of = col_of[keep]
        for j, b in enumerate(col_of):  # max_iters cap: snapshot leftovers
            finals[b] = snapshot_column(st, int(j))
        return finals, per_src

    # ------------------------------------------------------------------
    def _pull_phase(self, st: BFSState, x_raw: np.ndarray, pc: np.ndarray):
        """One shared SpMM sweep over the pull columns ``pc``.

        Returns per-pull-column ``(chunks_processed, layers)`` footprints
        (the column's own SlimWork active set, matching ``bfs_hybrid``'s
        reported stats; the sweep itself processes the union).
        """
        rep, sr = self.rep, self.semiring
        nc, C = rep.nc, rep.C
        all_pull = pc.size == x_raw.shape[1]
        if self.slimwork:
            settled = sr.settled_lanes(st)                 # (N, width)
            if not all_pull:
                settled = settled[:, pc]                   # (N, P)
            src_active = chunk_mask(settled, C)            # (nc, P)
            act = np.flatnonzero(src_active.any(axis=1))   # union sweep
            proc = src_active.sum(axis=0)
            layers = rep.cl @ src_active
        else:
            act = np.arange(nc, dtype=np.int64)
            proc = np.full(pc.size, nc, dtype=np.int64)
            layers = np.full(pc.size, int(rep.cl.sum()), dtype=np.int64)
        if all_pull:
            # Dense middle layers: every live column pulls — sweep straight
            # into the carried accumulator, no column extraction needed.
            spmm_layer_sweep(rep, sr, st.f, x_raw, act)
        else:
            f_pull = np.ascontiguousarray(st.f[:, pc])
            x_pull = f_pull.copy()
            spmm_layer_sweep(rep, sr, f_pull, x_pull, act)
            x_raw[:, pc] = x_pull
        return proc, layers

    def _push_phase(self, st: BFSState, x_raw: np.ndarray,
                    frontier: np.ndarray, qc: np.ndarray) -> None:
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
        sub = frontier[:, qc]
        v, c = np.nonzero(sub)  # frontier (vertex, local push column) pairs
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
