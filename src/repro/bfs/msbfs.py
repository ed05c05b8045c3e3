"""Batched multi-source BFS: the SpMM layer sweep.

The paper's evaluation protocol (Graph500: 64 roots over one graph) and its
§VI generalization argument (betweenness, connectivity — anything built on
``y = A ⊗ x``) both traverse the *same* SlimSell layout many times.  Running
those traversals one at a time re-pays the per-layer gather indexing and all
Python-level loop overhead once per source.

:class:`MultiSourceBFS` instead carries a frontier **matrix** ``F`` of shape
``(N, B)`` — one column per source — so each gather ``f[col[idx]]`` and
each semiring ``mul``/``add`` of the sweep serves all ``B`` sources at
once: an SpMM sweep instead of B separate SpMV sweeps.  The kernel
(:func:`sweep_band_layers`) folds chunks of equal length together, a
cache-sized block of their column layers at a time.  The matrix operand
``col`` streams once per sweep regardless of B, which is exactly the
amortization the batched counter model
(:func:`repro.bfs.spmv.synthesize_counters` with ``batch=B``) accounts
for.  With two matrix values (§III-B) no ``val`` streams at all: ⊗ is
applied once per frontier row (:func:`premultiply`), not per slot.

Semantics are *bit-identical* to the single-source layer engine, per
source:

* SlimWork keeps **per-source active-chunk masks**; a chunk enters the SpMM
  sweep when any still-running source needs it.  Processing a chunk that is
  settled for some source cannot change that source's column (the settled
  predicate of every semiring is a fixed point of its update), so per-source
  results match the per-source skip decisions of the sequential engine.
* Each source **terminates independently**: its ``newly`` count reaching 0
  ends its iteration log, its final state column is snapshotted, and the
  column is compacted out of the frontier matrix — a straggler source only
  drags live columns (not the whole batch) through its extra layers.  The
  sweep stops when every source has terminated.
* Per-source :class:`IterationStats` — processed/skipped chunks, work
  lanes, and synthesized instruction counters — reproduce the sequential
  engine's numbers exactly (validated against the chunk engine in tests).

Wall-clock accounting: one sweep's time is shared equally by the sources
still running, so per-source ``time_s``/``total_time_s`` are amortized
figures (their sum over a batch equals the batch's true wall clock).

The iteration loop (state, tracing, timing, termination, compaction,
finalize) is the one batched loop in the library: the executed backend
(:mod:`repro.exec`) swaps its sweep, and the direction-optimizing
:class:`~repro.bfs.mshybrid.MultiSourceHybridBFS` is another step on it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.dp import dp_transform
from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.spmv import synthesize_counters
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.semirings.base import BFSState, SemiringBFS, get_semiring

__all__ = [
    "MultiSourceBFS",
    "batched_levels",
    "bfs_msbfs",
    "build_rep",
    "chunk_mask",
    "compact_columns",
    "edge_pad",
    "finalize_batch",
    "premultiply",
    "run_in_batches",
    "snapshot_column",
    "spmm_layer_sweep",
    "sweep_band_layers",
    "validate_roots",
]


def validate_roots(rep: SellCSigma, roots) -> np.ndarray:
    """Normalize a roots sequence (original vertex ids) to ``int64[B]``.

    Shared by every batched engine: rejects empty/non-1-D input and
    out-of-range ids with one error contract.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if roots.ndim != 1 or roots.size == 0:
        raise ValueError("roots must be a non-empty 1-D sequence")
    bad = (roots < 0) | (roots >= rep.n)
    if bad.any():
        raise ValueError(
            f"root {int(roots[bad][0])} out of range [0, {rep.n})")
    return roots


def build_rep(graph_or_rep: Graph | SellCSigma, C: int, sigma: int | None,
              slim: bool) -> SellCSigma:
    """Pass a built representation through; build one from a raw graph."""
    if isinstance(graph_or_rep, Graph):
        from repro.formats.slimsell import SlimSell

        rep_cls = SlimSell if slim else SellCSigma
        return rep_cls(graph_or_rep, C, sigma)
    return graph_or_rep


def batched_levels(rep: SellCSigma, roots, *,
                   slimwork: bool = True) -> tuple[list[BFSResult], np.ndarray]:
    """One SpMM layer sweep from every root; per-column padded level vectors.

    The distributed model (:mod:`repro.dist`) consumes this as its batched
    ground truth: ``results`` are the per-column traversals (bit-identical
    to the single-source layer engine, including iteration logs), and
    ``levels`` is float64[N, B] — column ``b`` holds root ``b``'s hop levels
    in the representation's permuted, padded id space (padding lanes ∞), the
    exact input of the per-iteration SlimWork reconstruction.  Restricting
    the sweep to one rank's chunk band is :func:`spmm_layer_sweep` with that
    band as ``act`` — the partition-local slice of the same kernel.
    """
    engine = MultiSourceBFS(rep, "tropical", slimwork=slimwork,
                            compute_parents=False)
    results = engine.run(roots)
    levels = np.full((rep.N, len(results)), np.inf)
    for j, res in enumerate(results):
        levels[rep.perm, j] = res.dist
    return results, levels


def run_in_batches(engine, roots, batch: int | None) -> list[BFSResult]:
    """Chop ``roots`` into groups of ``batch`` columns per ``engine.run``.

    ``None`` (or a width >= the root count) runs one sweep; results are
    ordered like ``roots`` either way.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1 or None, got {batch}")
    if batch is None or batch >= roots.size:
        return engine.run(roots)
    out: list[BFSResult] = []
    for i in range(0, roots.size, batch):
        out.extend(engine.run(roots[i:i + batch]))
    return out


# ----------------------------------------------------------------------
# Shared sweep machinery: every engine that sweeps the chunked layout
# drives the same column-layer kernel and the same per-column state
# bookkeeping, so those pieces live here as functions.
# ----------------------------------------------------------------------

#: Elements per fold block, carry included (0.5 MB of float64, which fits
#: in L2), at any batch width.
TAIL_BLOCK = 1 << 16


def chunk_mask(settled: np.ndarray, C: int) -> np.ndarray:
    """SlimWork chunk activity: a chunk is active unless every lane settled.

    Shape-polymorphic: settled lanes ``(N,)`` give ``(nc,)``, a batch's
    ``(N, W)`` gives one column per source, ``(nc, W)``.
    """
    return ~settled.reshape((-1, C) + settled.shape[1:]).all(axis=1)


def _live_chunks(scl: np.ndarray) -> np.ndarray:
    """Chunks still live at each column layer, for lengths sorted descending."""
    return np.searchsorted(-scl, -np.arange(int(scl[0])), side="left")


def edge_pad(sr: SemiringBFS) -> np.ndarray:
    """``(edge, pad)``, a BFS matrix's two values, as a sweep's ``val``."""
    return np.array([sr.edge_value, sr.pad_value])


def premultiply(sr: SemiringBFS, val: np.ndarray, f: np.ndarray,
                pad_row: int, out: np.ndarray | None = None) -> np.ndarray:
    """``fx``: slot ``s``'s term ``val[s] ⊗ f[col[s]]`` is ``fx[col[s]]``.

    With ``val = (edge, pad)``, rows ``0..N−1`` hold ``edge ⊗ f`` and the
    sentinel row N, which the −1 marker reaches by wrap-around,
    ``pad ⊗ f[pad_row]`` (:attr:`SellCSigma.pad_row`): each term is the
    per-slot one bit for bit, on any input.  ``out`` may supply ``fx``.
    """
    if out is None:
        out = np.empty((f.shape[0] + 1,) + f.shape[1:], dtype=f.dtype)
    sr.mul(val[0], f, out=out[:-1])
    if f.shape[0]:  # N = 0: no slot reads the sentinel
        out[-1] = sr.mul(val[1], f[pad_row])
    return out


def _fold_slot_runs(sr: SemiringBFS, C: int, col: np.ndarray,
                    val: np.ndarray | None, cs: np.ndarray, cl: np.ndarray,
                    f_prev: np.ndarray, x_nd: np.ndarray, chunks: np.ndarray,
                    out: np.ndarray, row64: np.ndarray) -> None:
    """One frontier column: ⊕-scatter each run of contiguous chunk slots.

    ``chunks`` (global ids) are swept into rows ``out`` of ``x_nd``.  A run
    is a slot-order sequence of chunks whose slots abut and whose output
    rows keep one offset from their global rows; it is folded in blocks of
    :data:`TAIL_BLOCK` slots by one gather, one ⊗ (none if ``val`` is
    ``None``) and one ``ufunc.at`` scatter.  ``ufunc.at`` applies updates
    in index order and a row's slots ascend by layer, so every row folds
    ``carry ⊕ c₀ ⊕ c₁ ⊕ …`` exactly as the per-layer loop does.
    """
    if not x_nd.flags["C_CONTIGUOUS"]:
        # reshape() would return a copy and silently drop every update.
        raise ValueError("x_nd must be C-contiguous for a one-column sweep")
    x = x_nd.reshape(-1)
    f = f_prev if f_prev.ndim == 1 else f_prev[:, 0]
    by_slot = np.argsort(cs[chunks], kind="stable")
    chunks, out = chunks[by_slot], out[by_slot]
    lo = cs[chunks]
    hi = lo + cl[chunks] * C
    shift = (chunks - out) * C
    # brk[i]: chunk i starts a run (its slots do not begin where chunk
    # i-1's end, or its rows sit at another offset); brk[n] closes the last.
    brk = np.ones(chunks.size + 1, dtype=bool)
    brk[1:-1] = (lo[1:] != hi[:-1]) | (shift[1:] != shift[:-1])
    first, last = np.flatnonzero(brk[:-1]), np.flatnonzero(brk[1:])
    for s0, s1, d in zip(lo[first].tolist(), hi[last].tolist(),
                         shift[first].tolist()):
        for b0 in range(s0, s1, TAIL_BLOCK):
            b1 = min(b0 + TAIL_BLOCK, s1)
            rows = row64[b0:b1] - d if d else row64[b0:b1]
            src = f[col[b0:b1]]
            sr.add.at(x, rows, src if val is None else sr.mul(val[b0:b1], src))


def sweep_band_layers(sr: SemiringBFS, C: int, col: np.ndarray,
                      val: np.ndarray, cs: np.ndarray, cl: np.ndarray,
                      f_prev: np.ndarray, x_nd: np.ndarray, act: np.ndarray,
                      act_out: np.ndarray | None = None,
                      profile: list | None = None, *,
                      row64: np.ndarray) -> None:
    """Column-layer sweep over the chunks ``act``, into an ``x_nd`` view.

    The sharded core of :func:`spmm_layer_sweep`: ``x_nd`` is a chunk-major
    accumulator view of shape ``(nb, C)`` or ``(nb, C, W)`` covering ``nb``
    chunks — the whole representation (``nb = nc``) or a row band.
    ``act`` holds *global* chunk ids (they index ``cs``/``cl``);
    ``act_out`` holds the matching positions inside ``x_nd`` and defaults
    to ``act``.  ``f_prev`` always stays global: a chunk's gather may read
    any vertex.  The unweighted BFS sweeps pass ``fx`` (:func:`premultiply`,
    known by its N + 1 rows) and its ``(edge, pad)`` pair as ``val``, so no
    slot applies ⊗; an N-row ``f_prev`` (the weighted layout's weights) is
    combined per slot, ``val[s] ⊗ f_prev[col[s]]``.

    A single frontier column (``x_nd`` of shape ``(nb, C)`` or
    ``(nb, C, 1)``) walks no layers: runs of active chunks with contiguous
    slots are ⊕-scattered into their rows through ``row64``, the
    representation's slot → padded-row map (:attr:`SellCSigma.row64`).
    Wider batches split the active chunks into groups of equal length and
    fold each group in blocks ``(layers + 1, chunks, C, W)`` of at most
    :data:`TAIL_BLOCK` elements: one gather into ``blk[1:]`` (and the
    per-slot ⊗, if any) and one ⊕ reduction over the leading axis with the
    chunks' carry in ``blk[0]``, chained across a group's layer blocks and
    written back once per chunk block.  A leading-axis reduction adds row
    after row, and exact lengths keep padding out of it (even the ⊕
    identity is not bit-neutral: −0.0 + 0.0 is +0.0).  Every path
    accumulates each chunk's rows over only their own layers, in ascending
    order (so the real semiring's float sums round exactly as a per-layer
    loop's), reading nothing but the fixed source — so sweeping ``act``
    in parts, band by band or in place, is bit-identical to one global
    sweep, for any partition.

    ``profile`` (optional): one ``(j, live_n)`` pair per column layer swept
    — layer index and the number of chunks at least ``j + 1`` layers long,
    the shape the tracing engines attach to their layer spans.
    """
    if act.size == 0:
        return
    if profile is not None:
        live = _live_chunks(np.sort(cl[act])[::-1])
        profile.extend(enumerate(live.tolist()))
    val = None if f_prev.shape[0] > cs.size * C else val  # fx: no ⊗
    if x_nd[0].size == C:  # one frontier column: no layer walk
        _fold_slot_runs(sr, C, col, val, cs, cl, f_prev, x_nd, act,
                        act if act_out is None else act_out, row64)
        return
    order = np.argsort(-cl[act], kind="stable")
    srt = act[order]
    out = srt if act_out is None else act_out[order]
    scl, base = cl[srt], cs[srt, None]
    lay = np.arange(int(scl[0]) * C).reshape(-1, C)  # layer j's slot offsets
    cell = x_nd.shape[1:]  # one chunk layer, (C, W)
    per = max(2, TAIL_BLOCK // x_nd[0].size)  # chunk layers per block
    buf = np.empty((per,) + cell, dtype=x_nd.dtype)
    cut = (np.flatnonzero(scl[1:] != scl[:-1]) + 1).tolist()
    for g0, g1 in zip([0, *cut], [*cut, scl.size]):
        n_l = int(scl[g0])
        if n_l == 0:  # zero-length chunks sort last
            break
        step = min(n_l, per - 1)  # layers per block, after the carry
        nch = per // (step + 1)  # chunks per block
        for c0 in range(g0, g1, nch):
            c1 = min(c0 + nch, g1)
            rows = out[c0:c1]
            for j0 in range(0, n_l, step):
                j1 = min(j0 + step, n_l)
                blk = buf[:(j1 - j0 + 1) * (c1 - c0)].reshape(
                    (j1 - j0 + 1, c1 - c0) + cell)
                blk[0] = carry if j0 else x_nd[rows]
                idx = lay[j0:j1, None] + base[c0:c1]  # (layers, chunks, C)
                # mode="wrap" writes straight into out= (the default mode
                # buffers it) and maps the −1 marker to the last row
                # (fx's sentinel), exactly as fancy indexing does.
                np.take(f_prev, col[idx], axis=0, out=blk[1:], mode="wrap")
                if val is not None:
                    sr.mul(val[idx][..., None], blk[1:], out=blk[1:])
                carry = sr.add.reduce(blk, axis=0)
            x_nd[rows] = carry


def spmm_layer_sweep(rep: SellCSigma, sr: SemiringBFS, f_prev: np.ndarray,
                     x_out: np.ndarray, act: np.ndarray,
                     profile: list | None = None) -> None:
    """One semiring layer sweep over the active chunks, in place.

    ``f_prev`` is the frontier — ``(N,)`` for a single source or
    ``(N, W)`` for a batch of W frontier columns; ``x_out`` is a contiguous
    accumulator of the same shape that already carries ``f_prev``'s values
    (inactive chunks keep their columns untouched).  ``act`` holds the
    indices of the chunks to process.  The matrix operands come from the
    representation's memoized ``col64``/``row64`` caches, so repeated
    sweeps stream the same arrays; no ``val`` is read, since the sweep
    gathers from ``f_prev`` pre-multiplied once (:func:`premultiply`).

    With W >= 2, active chunks of equal length are folded together in
    cache-sized blocks; every gather/add of a block moves all W columns at
    once (the SpMM amortization).  A single column is scattered run by run
    instead.
    The inner loop is :func:`sweep_band_layers` over the whole chunk range;
    the executed parallel backend (:mod:`repro.exec`) drives the same core
    over per-worker chunk sets.
    """
    if act.size == 0:
        return
    if not x_out.flags["C_CONTIGUOUS"]:
        # reshape() on a non-contiguous accumulator would return a copy and
        # silently discard every chunk update — fail loudly instead.
        raise ValueError("x_out must be C-contiguous (pass a materialized "
                         "column block, not a sliced view)")
    batched = f_prev.ndim == 2
    x_nd = x_out.reshape((rep.nc, rep.C, -1) if batched else (rep.nc, rep.C))
    val = edge_pad(sr)
    fx = premultiply(sr, val, f_prev, rep.pad_row)
    sweep_band_layers(sr, rep.C, rep.col64, val, rep.cs, rep.cl, fx, x_nd,
                      act, profile=profile, row64=rep.row64)


def snapshot_column(st: BFSState, j: int) -> BFSState:
    """Snapshot column ``j`` of a batched state as a single-source state."""
    def pick(a):
        return None if a is None else np.ascontiguousarray(a[:, j])

    return BFSState(f=pick(st.f), d=pick(st.d), n=st.n, N=st.N,
                    root=st.root, g=pick(st.g), p=pick(st.p))


def compact_columns(st: BFSState, keep: np.ndarray) -> None:
    """Drop terminated columns so later sweeps cost O(live sources)."""
    st.f = st.f[:, keep]
    st.d = st.d[:, keep]
    if st.g is not None:
        st.g = st.g[:, keep]
    if st.p is not None:
        st.p = st.p[:, keep]


def finalize_batch(rep: SellCSigma, sr: SemiringBFS,
                   finals: list[BFSState], roots: np.ndarray,
                   per_src: list[list[IterationStats]], total: float,
                   method: str, compute_parents: bool) -> list[BFSResult]:
    """Turn per-column terminal state snapshots into :class:`BFSResult`\\ s.

    Distances and (sel-max) parents are mapped back to original vertex ids;
    other semirings derive parents with the DP transformation.  The batch's
    wall clock ``total`` is shared equally by the sources.
    """
    B = roots.size
    share = total / B
    results = []
    for b in range(B):
        root = int(roots[b])
        stc = finals[b]
        dist = sr.finalize_distances(stc)[rep.perm]  # back to orig ids
        parent = None
        if compute_parents:
            pp = sr.finalize_parents(stc)
            if pp is not None:
                pv = pp[rep.perm]
                parent = np.where(
                    pv >= 0, rep.iperm[np.clip(pv, 0, rep.n - 1)], -1)
                parent[root] = root
            else:
                parent = dp_transform(rep.graph_original, dist)
        results.append(BFSResult(
            dist=dist, parent=parent, root=root, method=method,
            semiring=sr.name, representation=rep.name,
            iterations=per_src[b], preprocess_time_s=rep.build_time_s,
            total_time_s=share))
    return results


class _BatchLoop:
    """The batched iteration loop: one frontier column per root.

    It owns the state, tracing, timing, per-column termination, snapshots,
    compaction, the ``max_iters`` cap and finalize.  An engine supplies one
    iteration (:meth:`_step`), its own per-column run state (:meth:`_start`,
    :meth:`_compact`) and its result label.  Pulls go through :meth:`_pull`,
    so :meth:`_layer_sweep` is the one sweep seam.
    """

    _method = ""  # result label; "+slimwork" is appended with SlimWork on

    def __init__(self, rep: SellCSigma, semiring: SemiringBFS | str, *,
                 slimwork: bool, compute_parents: bool,
                 max_iters: int | None):
        self.rep = rep
        self.semiring = get_semiring(semiring) if isinstance(semiring, str) else semiring
        self.slimwork = bool(slimwork)
        self.compute_parents = bool(compute_parents)
        self.max_iters = max_iters
        #: Optional :class:`repro.obs.trace.Tracer` an owner (the serving
        #: tier, or a direct caller) attaches around a run, and the parent
        #: of its per-iteration ``bfs.layer`` spans (``None``: each run's
        #: layers start a fresh trace the owner re-bases).
        self.tracer = None
        self.trace_parent = None
        #: The open ``bfs.layer`` span; the executed backend hangs its
        #: worker spans off it.
        self._layer_span = None

    def _run(self, roots) -> list[BFSResult]:
        # Every engine's run() calls this, never another engine's run(), so
        # a wrapper around one class's run() sees each batch exactly once.
        rep = self.rep
        roots = validate_roots(rep, roots)
        proots = rep.perm[roots]
        t0 = time.perf_counter()
        finals, per_src = self._sweep(proots)
        total = time.perf_counter() - t0
        method = self._method + ("+slimwork" if self.slimwork else "")
        return finalize_batch(rep, self.semiring, finals, roots, per_src,
                              total, method, self.compute_parents)

    def _sweep(self, proots: np.ndarray):
        rep = self.rep
        B = proots.size
        st = self.semiring.init_batch_state(rep.n, rep.N, proots)
        self._start(st, proots)
        cap = self.max_iters if self.max_iters is not None else rep.N + 1
        per_src: list[list[IterationStats]] = [[] for _ in range(B)]
        col_of = np.arange(B)  # original source of each live state column
        finals: list[BFSState | None] = [None] * B  # terminal snapshots
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
            newly, stats, attrs = self._step(st, k)  # newly: int64[width]
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(self._layer_span, t=t1, **attrs,
                           settled=int((newly == 0).sum()))
                self._layer_span = None
            # Per-column stats are built outside the timed window.
            share = (t1 - t0) / width
            for j, b in enumerate(col_of):
                per_src[b].append(stats(j, int(newly[j]), share))
            dead = newly == 0
            if dead.any():
                # A terminated column is a fixed point of the sweep:
                # snapshot it for finalize and drop it from the state so
                # stragglers don't drag dead columns through every layer.
                for j in np.flatnonzero(dead):
                    finals[col_of[j]] = snapshot_column(st, int(j))
                keep = ~dead
                compact_columns(st, keep)
                self._compact(keep)
                col_of = col_of[keep]
        for j, b in enumerate(col_of):  # max_iters cap: snapshot leftovers
            finals[b] = snapshot_column(st, int(j))
        return finals, per_src

    def _start(self, st: BFSState, proots: np.ndarray) -> None:
        """Set up the engine's own per-column run state (default: none)."""

    def _step(self, st: BFSState, k: int):
        """Run iteration ``k``; return ``(newly, stats, attrs)``.

        ``newly`` is int64[width]; ``stats(j, newly_j, time_s)`` builds
        column ``j``'s :class:`IterationStats` after the timed window;
        ``attrs`` annotate the iteration's ``bfs.layer`` span.
        """
        raise NotImplementedError

    def _compact(self, keep: np.ndarray) -> None:
        """Drop the terminated columns' run state (default: none)."""

    def _pull(self, st: BFSState, k: int, cols: np.ndarray | None = None):
        """SlimWork masks and one union sweep of the columns ``cols``.

        ``None`` pulls every live column.  Returns ``(act, proc, layers,
        x_raw)``: the union of active chunks, each column's own processed
        chunks and column layers, and the swept accumulator.
        """
        rep = self.rep
        f = st.f if cols is None else np.ascontiguousarray(st.f[:, cols])
        if self.slimwork:
            settled = self.semiring.settled_lanes(st)
            if cols is not None:
                settled = settled[:, cols]
            src_active = chunk_mask(settled, rep.C)  # (nc, width)
            act = np.flatnonzero(src_active.any(axis=1))  # union sweep
            # All columns' footprints in two vectorized reductions.
            proc = src_active.sum(axis=0)
            layers = rep.cl @ src_active
        else:
            act = np.arange(rep.nc)
            proc = np.full(f.shape[1], rep.nc)
            layers = np.full(f.shape[1], int(rep.cl.sum()))
        return act, proc, layers, self._layer_sweep(f, act, k)

    def _layer_sweep(self, f_prev: np.ndarray, act: np.ndarray,
                     k: int) -> np.ndarray:
        """Run one union layer sweep; return the raw accumulator.

        The single extension point the executed parallel backend
        (:mod:`repro.exec`) overrides: it shards ``act`` across workers,
        which fold their chunks concurrently into one union accumulator
        — everything else in the loop (SlimWork masks, postprocess,
        termination, stats) is shared verbatim.
        """
        # Carry: inactive chunks keep their columns.  Every gather of the
        # sweep moves all live columns at once.
        x_raw = f_prev.copy()
        profile = [] if self._layer_span is not None else None
        spmm_layer_sweep(self.rep, self.semiring, f_prev, x_raw, act,
                         profile=profile)
        if profile is not None:
            self._layer_span.attrs["column_layers"] = len(profile)
            self._layer_span.attrs["live_chunk_layers"] = sum(
                n for _, n in profile)
        return x_raw


class MultiSourceBFS(_BatchLoop):
    """Batched BFS-SpMV over a chunked representation (layer engine only).

    Parameters
    ----------
    rep:
        A built :class:`SellCSigma` or :class:`SlimSell`.
    semiring:
        A :class:`SemiringBFS` instance or name
        (``"tropical" | "real" | "boolean" | "sel-max"``).
    slimwork:
        §III-C chunk skipping, tracked per source; the SpMM sweep processes
        the union of the per-source active sets.
    counting:
        Synthesize per-source :class:`OpCounters` analytically (identical
        to the single-source chunk engine's counts).
    compute_parents:
        Produce parent vectors (sel-max: native; others: DP transform).
    max_iters:
        Safety cap on iterations (defaults to N + 1).
    """

    _method = "spmv-msbfs"

    def __init__(
        self,
        rep: SellCSigma,
        semiring: SemiringBFS | str = "tropical",
        *,
        slimwork: bool = False,
        counting: bool = False,
        compute_parents: bool = True,
        max_iters: int | None = None,
    ):
        super().__init__(rep, semiring, slimwork=slimwork,
                         compute_parents=compute_parents, max_iters=max_iters)
        self.counting = bool(counting)
        self.is_slim = not rep.has_val
        #: (B, per-iteration union sweep stats) of the most recent run().
        self._last_sweep: tuple[int, list[tuple[int, int, int]]] | None = None

    # ------------------------------------------------------------------
    def run(self, roots) -> list[BFSResult]:
        """Traverse from every root in ``roots`` (original vertex ids).

        Duplicate roots, isolated-vertex roots, and batches wider than the
        graph are all fine — each column is an independent traversal.
        Returns one :class:`BFSResult` per root, in input order.
        """
        return self._run(roots)

    def _start(self, st: BFSState, proots: np.ndarray) -> None:
        self._last_sweep = (proots.size, [])

    def _step(self, st: BFSState, k: int):
        rep, sr = self.rep, self.semiring
        C, nc = rep.C, rep.nc
        act, proc, layers, x_raw = self._pull(st, k)
        newly = sr.postprocess(st, x_raw)  # int64[width]
        self._last_sweep[1].append(
            (int(act.size), int(rep.cl[act].sum()), newly.size))

        def stats(j: int, newly_j: int, share: float) -> IterationStats:
            p, lay = int(proc[j]), int(layers[j])
            stat = IterationStats(
                k=k, newly=newly_j, time_s=share, chunks_processed=p,
                chunks_skipped=nc - p, work_lanes=lay * C)
            if self.counting:
                stat.counters = synthesize_counters(
                    sr, C, self.is_slim, p, nc - p, lay, self.slimwork)
            return stat

        return newly, stats, {"chunks": int(act.size)}

    # ------------------------------------------------------------------
    def batch_counters(self):
        """Aggregate SpMM-level counters of the most recent :meth:`run`.

        Per-source counters model B independent SpMV runs; this re-costs
        the *actual* union sweep of each iteration — the shared
        ``col``/``val`` streams over the union of the per-source active
        chunks, charged once, with gathers/compute scaled by the number of
        columns still live (``synthesize_counters(..., batch=width)``) —
        quantifying the operand-streaming amortization of the batched
        engine.
        """
        from repro.vec.counters import OpCounters

        if self._last_sweep is None:
            raise RuntimeError("batch_counters() requires a prior run()")
        _, union_stats = self._last_sweep
        out = OpCounters()
        for proc, layers, width in union_stats:
            out += synthesize_counters(
                self.semiring, self.rep.C, self.is_slim, proc,
                self.rep.nc - proc, layers, self.slimwork, batch=width)
        return out


def bfs_msbfs(
    graph_or_rep: Graph | SellCSigma,
    roots,
    semiring: str | SemiringBFS = "tropical",
    *,
    C: int = 8,
    sigma: int | None = None,
    slim: bool = True,
    slimwork: bool = False,
    counting: bool = False,
    compute_parents: bool = True,
    batch: int | None = None,
) -> list[BFSResult]:
    """One-call convenience: batched BFS from every root in ``roots``.

    Mirrors :func:`repro.bfs.spmv.bfs_spmv` — a :class:`SlimSell`
    (``slim=True``, default) or :class:`SellCSigma` is built when a raw
    :class:`Graph` is passed.  ``batch`` caps the number of frontier
    columns per SpMM sweep (``None`` = all roots in one sweep).
    """
    engine = MultiSourceBFS(
        build_rep(graph_or_rep, C, sigma, slim), semiring,
        slimwork=slimwork, counting=counting,
        compute_parents=compute_parents)
    return run_in_batches(engine, roots, batch)
