"""Algebraic BFS as repeated SpMV products — the paper's core contribution.

:class:`BFSSpMV` runs BFS on a :class:`~repro.formats.sell.SellCSigma` or
:class:`~repro.formats.slimsell.SlimSell` representation with any of the
four semirings, with two interchangeable execution engines:

* ``engine="chunk"`` — a faithful transliteration of Listings 5/6/7 onto the
  simulated vector ISA.  One Python-level loop over chunks and column
  layers; every vector instruction and memory word is counted when
  ``counting=True``.  This engine is the ground truth for the cost model.
* ``engine="layer"`` — sweeps the active chunks with the shared
  column-layer kernel :func:`repro.bfs.msbfs.sweep_band_layers`
  (whole-array NumPy, ELLPACK-style).  Bit-identical results, orders of
  magnitude faster wall clock; per-iteration counters are synthesized
  analytically (validated against the chunk engine in tests).

SlimWork (§III-C) is supported by both engines; SlimChunk (§III-D) affects
the work-unit decomposition reported to the scheduling simulator.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bfs.result import BFSResult, IterationStats
from repro.bfs.slimchunk import make_work_units
from repro.formats.sell import PAD, SellCSigma
from repro.graphs.graph import Graph
from repro.semirings.base import BFSState, SemiringBFS, get_semiring
from repro.vec.counters import OpCounters
from repro.vec.ops import VectorUnit

__all__ = ["BFSSpMV", "bfs_spmv", "synthesize_counters"]


def synthesize_counters(semiring: SemiringBFS, C: int, slim: bool,
                        processed_chunks: int, skipped_chunks: int,
                        processed_layers: int, slimwork: bool,
                        batch: int = 1) -> OpCounters:
    """Analytic counter model of one iteration of the chunk engine.

    Mirrors exactly what :meth:`BFSSpMV._run_chunk` issues so the layer
    engine can report counters without paying chunk-engine wall clock.
    Validated instruction-for-instruction by the test suite.

    ``batch`` models the SpMM sweep of :mod:`repro.bfs.msbfs`: the streamed
    ``col``/``val`` loads and the SlimSell CMP+BLEND val derivation happen
    *once* per column layer regardless of batch width (the matrix operands
    are shared by all sources), while the gather, the semiring compute
    instructions, and all per-chunk post-processing scale with ``batch``.
    ``batch=1`` reproduces the single-source chunk engine exactly.
    """
    c = OpCounters()
    B = int(batch)
    if B < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    inner_loads = 1 if slim else 2  # col only vs val+col
    # Inner loop per column layer: loads, gather, the val derivation
    # (SlimSell: CMP+BLEND), and the semiring's two compute instructions.
    # The col/val streams (and derived val registers) are batch-shared.
    c.count("LOAD", processed_layers * inner_loads, lanes=processed_layers * inner_loads * C)
    c.load(processed_layers * inner_loads * C)
    c.count("GATHER", processed_layers * B, lanes=processed_layers * B * C)
    c.load(processed_layers * B * C, gather=True)
    if slim:
        c.count("CMP", processed_layers, lanes=processed_layers * C)
        c.count("BLEND", processed_layers, lanes=processed_layers * C)
    kernel = {
        "tropical": ("ADD", "MIN"),
        "real": ("MUL", "ADD"),
        "boolean": ("AND", "OR"),
        "sel-max": ("MUL", "MAX"),
    }[semiring.name]
    for mnem in kernel:
        c.count(mnem, processed_layers * B, lanes=processed_layers * B * C)
    # Per processed chunk: the carry load plus the semiring post-processing,
    # both per source.
    processed_chunks *= B
    skipped_chunks *= B
    c.count("LOAD", processed_chunks, lanes=processed_chunks * C)
    c.load(processed_chunks * C)
    post = {
        # (extra loads, stores, cmp, blend, and_, not_, mul)
        "tropical": dict(loads=0, stores=1, CMP=0, BLEND=0, AND=0, NOT=0, MUL=0),
        "boolean": dict(loads=2, stores=3, CMP=1, BLEND=1, AND=2, NOT=1, MUL=1),
        "real": dict(loads=2, stores=3, CMP=2, BLEND=2, AND=2, NOT=1, MUL=1, MIN=1),
        "sel-max": dict(loads=3, stores=3, CMP=2, BLEND=3, AND=1, NOT=0, MUL=0),
    }[semiring.name]
    k = processed_chunks
    if post["loads"]:
        c.count("LOAD", k * post["loads"], lanes=k * post["loads"] * C)
        c.load(k * post["loads"] * C)
    c.count("STORE", k * post["stores"], lanes=k * post["stores"] * C)
    c.store(k * post["stores"] * C)
    for mnem in ("CMP", "BLEND", "AND", "NOT", "MUL", "MIN"):
        cnt = post.get(mnem, 0)
        if cnt:
            c.count(mnem, k * cnt, lanes=k * cnt * C)
    if slimwork:
        total = processed_chunks + skipped_chunks
        c.count("SKIPCHK", total, lanes=total * C)
        # Skipped chunks carry the old vector over (Listing 7 line 18).
        c.count("LOAD", skipped_chunks, lanes=skipped_chunks * C)
        c.load(skipped_chunks * C)
        c.count("STORE", skipped_chunks, lanes=skipped_chunks * C)
        c.store(skipped_chunks * C)
    return c


class BFSSpMV:
    """BFS via SpMV products over a chunked representation.

    Parameters
    ----------
    rep:
        A built :class:`SellCSigma` or :class:`SlimSell`.
    semiring:
        A :class:`SemiringBFS` instance or name
        (``"tropical" | "real" | "boolean" | "sel-max"``).
    slimwork:
        Enable §III-C chunk skipping.
    slimchunk:
        Maximum column layers per work unit (§III-D); ``None`` disables.
        Affects work-unit stats (and the scheduling model), not results.
    engine:
        ``"layer"`` (fast, default) or ``"chunk"`` (faithful, countable).
    counting:
        Attach per-iteration :class:`OpCounters` (chunk engine counts on
        the simulated ISA; layer engine synthesizes analytically).
    compute_parents:
        Produce the parent vector (sel-max: native; others: DP transform).
    max_iters:
        Safety cap on iterations (defaults to N + 1).
    batch:
        Multi-source batch width used by :meth:`run_many`: ``None``/1 runs
        sources sequentially; B > 1 traverses B sources per SpMM sweep via
        the :mod:`repro.bfs.msbfs` engine (layer engine only).  Results are
        bit-identical to sequential runs.
    """

    def __init__(
        self,
        rep: SellCSigma,
        semiring: SemiringBFS | str = "tropical",
        *,
        slimwork: bool = False,
        slimchunk: int | None = None,
        engine: str = "layer",
        counting: bool = False,
        compute_parents: bool = True,
        max_iters: int | None = None,
        batch: int | None = None,
    ):
        if engine not in ("layer", "chunk"):
            raise ValueError(f"engine must be 'layer' or 'chunk', got {engine!r}")
        if batch is not None and batch < 1:
            raise ValueError(f"batch must be >= 1 or None, got {batch}")
        self.rep = rep
        self.semiring = get_semiring(semiring) if isinstance(semiring, str) else semiring
        self.slimwork = bool(slimwork)
        self.slimchunk = slimchunk
        self.engine = engine
        self.counting = bool(counting)
        self.compute_parents = bool(compute_parents)
        self.max_iters = max_iters
        self.batch = batch
        self.is_slim = not rep.has_val

    # ------------------------------------------------------------------
    def run(self, root: int) -> BFSResult:
        """Execute BFS from ``root`` (original vertex ids)."""
        rep = self.rep
        n = rep.n
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range [0, {n})")
        proot = int(rep.perm[root])
        t0 = time.perf_counter()
        if self.engine == "layer":
            st, iters = self._run_layer(proot)
        else:
            st, iters = self._run_chunk(proot)
        total = time.perf_counter() - t0
        return self._finalize(st, root, iters, total)

    # ------------------------------------------------------------------
    def run_many(self, roots) -> list:
        """Traverse from every root, batching ``batch`` sources per sweep.

        With ``batch`` unset (or 1, or the chunk engine) this is a plain
        sequential loop over :meth:`run`; otherwise roots are chopped into
        groups of ``batch`` columns and each group is traversed by one
        multi-source SpMM sweep.  Either way the returned
        :class:`BFSResult` list is ordered like ``roots`` and bit-identical
        to sequential execution.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1:
            raise ValueError(f"roots must be 1-D, got shape {roots.shape}")
        if (self.batch is None or self.batch <= 1 or self.engine == "chunk"
                or roots.size == 0):
            return [self.run(int(r)) for r in roots]
        from repro.bfs.msbfs import MultiSourceBFS, run_in_batches

        return run_in_batches(MultiSourceBFS(
            self.rep, self.semiring, slimwork=self.slimwork,
            counting=self.counting, compute_parents=self.compute_parents,
            max_iters=self.max_iters), roots, self.batch)

    # ------------------------------------------------------------------
    def _active_chunks(self, st: BFSState) -> np.ndarray:
        """SlimWork chunk mask: process a chunk unless all lanes are settled."""
        from repro.bfs.msbfs import chunk_mask

        if not self.slimwork:
            return np.ones(self.rep.nc, dtype=bool)
        return chunk_mask(self.semiring.settled_lanes(st), self.rep.C)

    def _run_layer(self, proot: int) -> tuple[BFSState, list[IterationStats]]:
        from repro.bfs.msbfs import (chunk_mask, edge_pad, premultiply,
                                     sweep_band_layers)

        rep, sr = self.rep, self.semiring
        C, nc, N = rep.C, rep.nc, rep.N
        st = sr.init_state(rep.n, N, proot)
        col, row64 = rep.col64, rep.row64  # memoized
        cs, cl, val, pad_row = rep.cs, rep.cl, edge_pad(sr), rep.pad_row
        every = np.arange(nc)
        cap = self.max_iters if self.max_iters is not None else N + 1
        iters: list[IterationStats] = []
        k = 0
        while k < cap:
            k += 1
            st.depth = k
            t0 = time.perf_counter()
            act = (np.flatnonzero(chunk_mask(sr.settled_lanes(st), C))
                   if self.slimwork else every)
            x_raw = st.f.copy()  # carry: skipped chunks keep their old values
            # Sweep even an empty active set (perfbench's probe counts one
            # sweep per iteration here); build fx only for a chunk to fold.
            fx = premultiply(sr, val, st.f, pad_row) if act.size else st.f
            sweep_band_layers(sr, C, col, val, cs, cl, fx,
                              x_raw.reshape(nc, C), act, row64=row64)
            newly = sr.postprocess(st, x_raw)
            stats = IterationStats(
                k=k, newly=newly, time_s=time.perf_counter() - t0,
                chunks_processed=int(act.size),
                chunks_skipped=int(nc - act.size),
                work_lanes=int(cl[act].sum()) * C,
            )
            if self.counting:
                stats.counters = synthesize_counters(
                    sr, C, self.is_slim, int(act.size), int(nc - act.size),
                    int(cl[act].sum()), self.slimwork)
            iters.append(stats)
            if newly == 0:
                break
        return st, iters

    def _run_chunk(self, proot: int) -> tuple[BFSState, list[IterationStats]]:
        rep, sr = self.rep, self.semiring
        C, nc, N = rep.C, rep.nc, rep.N
        vu = VectorUnit(C, counting=self.counting)
        st = sr.init_state(rep.n, N, proot)
        col = rep.col
        val = None if self.is_slim else rep.val_for(sr)
        cs, cl = rep.cs, rep.cl
        # Hoisted constant registers (Listing 6 line 2).
        m_ones = np.full(C, PAD, dtype=np.int32)
        ones = np.full(C, sr.edge_value)
        annih = np.full(C, sr.pad_value)
        cap = self.max_iters if self.max_iters is not None else N + 1
        iters: list[IterationStats] = []
        k = 0
        while k < cap:
            k += 1
            st.depth = k
            t0 = time.perf_counter()
            before = vu.snapshot() if self.counting else None
            f_prev = st.f
            f_next = np.empty_like(f_prev)
            settled = sr.settled_lanes(st).reshape(nc, C) if self.slimwork else None
            newly = 0
            processed = skipped = 0
            work_lanes = 0
            for i in range(nc):
                a = i * C
                if self.slimwork:
                    # Listing 7: a scalar check over the chunk's C entries.
                    if self.counting:
                        vu.counters.count("SKIPCHK", lanes=C)
                    if settled[i].all():
                        vu.store(f_next, a, vu.load(f_prev, a))  # carry over
                        skipped += 1
                        continue
                processed += 1
                x = vu.load(f_prev, a)
                index = int(cs[i])
                layers = int(cl[i])
                work_lanes += layers * C
                for _ in range(layers):
                    if self.is_slim:
                        cols = vu.load(col, index)
                        mask = vu.cmp(cols, m_ones, "EQ")  # padding marker?
                        vals = vu.blend(ones, annih, mask)  # derive val
                    else:
                        vals = vu.load(val, index)
                        cols = vu.load(col, index)
                    rhs = vu.gather(f_prev, cols)
                    x = sr.kernel_step(vu, x, rhs, vals)
                    index += C
                newly += sr.chunk_post(vu, st, f_next, a, x)
            st.f = f_next
            stats = IterationStats(
                k=k, newly=newly, time_s=time.perf_counter() - t0,
                chunks_processed=processed, chunks_skipped=skipped,
                work_lanes=work_lanes,
                counters=vu.counters.diff(before) if self.counting else None,
            )
            iters.append(stats)
            if newly == 0:
                break
        return st, iters

    # ------------------------------------------------------------------
    def work_units(self, st: BFSState | None = None):
        """Current work-unit decomposition (SlimChunk-aware), for scheduling."""
        active = self._active_chunks(st) if st is not None else None
        return make_work_units(self.rep.cl, self.slimchunk, active)

    def _finalize(self, st: BFSState, root: int, iters: list[IterationStats],
                  total: float) -> BFSResult:
        from repro.bfs.msbfs import finalize_batch

        method = f"spmv-{self.engine}"
        if self.slimwork:
            method += "+slimwork"
        if self.slimchunk:
            method += "+slimchunk"
        return finalize_batch(self.rep, self.semiring, [st], np.array([root]),
                              [iters], total, method, self.compute_parents)[0]


def bfs_spmv(
    graph_or_rep: Graph | SellCSigma,
    root: int,
    semiring: str | SemiringBFS = "tropical",
    *,
    C: int = 8,
    sigma: int | None = None,
    slim: bool = True,
    slimwork: bool = False,
    slimchunk: int | None = None,
    engine: str = "layer",
    counting: bool = False,
    compute_parents: bool = True,
) -> BFSResult:
    """One-call convenience: build the representation (if needed) and run BFS.

    Parameters mirror :class:`BFSSpMV`; when a raw :class:`Graph` is passed,
    a :class:`SlimSell` (``slim=True``, the default) or :class:`SellCSigma`
    is built with the given ``C`` and ``sigma`` (σ defaults to n, full sort).
    """
    from repro.bfs.msbfs import build_rep

    return BFSSpMV(
        build_rep(graph_or_rep, C, sigma, slim), semiring, slimwork=slimwork,
        slimchunk=slimchunk, engine=engine, counting=counting,
        compute_parents=compute_parents,
    ).run(root)
