"""Executed parallel MS-BFS: the SpMM sweep sharded across real workers.

:class:`ExecMultiSourceBFS` subclasses the batched engine and overrides
exactly one step — the union layer sweep — with a sharded execution over a
:class:`~repro.dist.partition.Partition1D`:

1. the iteration's active chunks are split by owner
   (``act[owner[act] == r]``),
2. the leader stages the carry and the pre-multiplied global frontier,
   each worker folds its own chunks in place into the one union
   accumulator (:mod:`repro.exec.pool` backends), and
3. the leader takes the union result — the executed counterpart of the
   allgather :func:`repro.dist.bfs1d.bfs_dist_1d` charges at the same
   point of the iteration.

Everything else — SlimWork masks, semiring postprocess, per-source
termination and stats — runs unchanged in the base class, which is why
every worker count and backend is bit-identical to
:func:`repro.bfs.msbfs.bfs_msbfs` (each chunk's accumulator rows depend
only on the fixed ``f_prev``, so who sweeps which chunk cannot change any
value).  ``workers=1`` *is* the base engine, staged through the backend.

Each union iteration appends an :class:`ExecLayerStats` to
``layer_profile`` — measured per-worker compute seconds and leader-side
exchange seconds, the raw material :func:`repro.dist.calibrate.calibrate`
compares against the model's ``t_local``/``t_comm``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bfs.msbfs import MultiSourceBFS, build_rep, run_in_batches
from repro.bfs.result import BFSResult
from repro.dist.partition import Partition1D
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.semirings.base import SemiringBFS

from .pool import BACKENDS, idle_times, make_backend

__all__ = ["ExecLayerStats", "ExecMultiSourceBFS", "bfs_exec"]


@dataclass(frozen=True)
class ExecLayerStats:
    """Measured profile of one executed union iteration.

    Attributes
    ----------
    k:
        Union iteration number (1-based), aligned with the iteration the
        dist model profiles at the same position.
    width:
        Frontier columns still live this iteration.
    t_workers:
        Measured per-worker compute seconds: the in-place fold of the
        worker's active chunks.
    t_exchange_s:
        Leader-side exchange seconds: the carry write and the workers'
        pre-multiplied frontier (process backend: plus the union copy
        out) — the executed stand-in for the modeled allgather.
    chunks_per_worker:
        Active chunks each worker swept this iteration.
    exchanged_bytes:
        Bytes of union frontier gathered by the leader
        (``N · width · itemsize``).
    """

    k: int
    width: int
    t_workers: tuple[float, ...]
    t_exchange_s: float
    chunks_per_worker: tuple[int, ...]
    exchanged_bytes: int

    @property
    def t_local_s(self) -> float:
        """Critical-path compute: the slowest worker (the model's barrier)."""
        return max(self.t_workers, default=0.0)

    @property
    def t_compute_total_s(self) -> float:
        """Σ per-worker compute — the single-worker-equivalent cost."""
        return float(sum(self.t_workers))

    @property
    def t_idle_workers(self) -> tuple[float, ...]:
        """Per-worker seconds spent waiting at the layer barrier."""
        return idle_times(self.t_workers)

    @property
    def t_idle_total_s(self) -> float:
        """Σ barrier idle — compute lost to load imbalance this layer."""
        return float(sum(self.t_idle_workers))


class ExecMultiSourceBFS(MultiSourceBFS):
    """Batched BFS whose union sweep executes across sharded workers.

    Parameters (beyond :class:`~repro.bfs.msbfs.MultiSourceBFS`)
    ----------
    workers:
        Worker count; ``1`` reproduces the base engine exactly (one worker
        owning every chunk).
    backend:
        ``"serial"`` (sequential shards, clean per-shard timing — the
        calibration backend), ``"threads"`` (persistent thread pool), or
        ``"process"`` (persistent forked pool over shared memory).
    partition:
        Chunk-to-worker assignment; defaults to
        ``Partition1D.balanced(rep.cl, workers)``.  More workers than
        chunks is legal (the surplus workers own empty bands).

    The backend is created lazily on first sweep and persists across
    :meth:`run` calls; call :meth:`close` (or use the engine as a context
    manager) to release it — mandatory for ``backend="process"``, which
    holds OS resources.
    """

    def __init__(
        self,
        rep: SellCSigma,
        semiring: SemiringBFS | str = "tropical",
        *,
        workers: int = 1,
        backend: str = "serial",
        partition: Partition1D | None = None,
        slimwork: bool = False,
        counting: bool = False,
        compute_parents: bool = True,
        max_iters: int | None = None,
    ):
        super().__init__(rep, semiring, slimwork=slimwork, counting=counting,
                         compute_parents=compute_parents, max_iters=max_iters)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown exec backend {backend!r}; "
                             f"available: {list(BACKENDS)}")
        if partition is None:
            partition = Partition1D.balanced(rep.cl, workers)
        if partition.nchunks != rep.nc:
            raise ValueError(
                f"partition covers {partition.nchunks} chunks, "
                f"representation has {rep.nc}")
        if partition.ranks != workers:
            raise ValueError(
                f"partition has {partition.ranks} ranks, workers={workers}")
        self.workers = workers
        self.backend = backend
        self._method = f"exec-{backend}-w{workers}"  # result label
        self.partition = partition
        self._shards = [partition.chunks_of(r) for r in range(workers)]
        self._owner = partition.owner
        self._pool = None
        #: Measured per-union-iteration profiles, accumulated across runs
        #: (reset with :meth:`reset_profile`).
        self.layer_profile: list[ExecLayerStats] = []
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` to publish
        #: per-layer compute/exchange/idle figures into (``exec.*``).
        self.metrics = None

    # ------------------------------------------------------------------
    def _ensure_pool(self, f_prev: np.ndarray):
        """Create (or grow) the persistent backend for this frontier."""
        pool = self._pool
        if pool is not None and pool.name == "process" and (
                f_prev.size > pool.capacity_elems
                or f_prev.dtype != pool.dtype):
            pool.close()
            pool = self._pool = None
        if pool is None:
            pool = self._pool = make_backend(
                self.backend, self.semiring, self.rep, self._shards,
                capacity_elems=f_prev.size, dtype=f_prev.dtype)
        return pool

    def _layer_sweep(self, f_prev: np.ndarray, act: np.ndarray,
                     k: int) -> np.ndarray:
        pool = self._ensure_pool(f_prev)
        act_parts = [act[self._owner[act] == r] for r in range(self.workers)]
        tracer = self.tracer
        if tracer is not None:
            t0 = time.perf_counter()
        x_raw, t_workers, t_exchange = pool.run_layer(f_prev, act_parts)
        stats = ExecLayerStats(
            k=k, width=f_prev.shape[1], t_workers=tuple(t_workers),
            t_exchange_s=t_exchange,
            chunks_per_worker=tuple(int(p.size) for p in act_parts),
            exchanged_bytes=int(f_prev.nbytes))
        self.layer_profile.append(stats)
        if tracer is not None:
            self._trace_layer(stats, act_parts, t0)
        if self.metrics is not None:
            self._publish_layer(stats)
        return x_raw

    def _trace_layer(self, stats: ExecLayerStats, act_parts, t0: float):
        """Emit exec.layer/worker/exchange spans for one union sweep.

        Worker spans carry ``track="w{r}"`` so the Chrome export lays
        each rank on its own row.  The serial backend runs shards back to
        back, so its worker spans are laid out cumulatively; the
        concurrent backends' all start at the sweep's origin.
        """
        tracer = self.tracer
        t1 = time.perf_counter()
        parent = (self._layer_span if self._layer_span is not None
                  else self.trace_parent)
        lspan = tracer.record(
            "exec.layer", t0, t1, parent=parent, k=stats.k,
            width=stats.width, workers=self.workers,
            backend=self.backend)
        serial = self.backend == "serial"
        idle = stats.t_idle_workers
        off = t0
        for r, tw in enumerate(stats.t_workers):
            ws = off if serial else t0
            tracer.record(
                "exec.worker", ws, ws + tw, parent=lspan, track=f"w{r}",
                rank=r, chunks=int(act_parts[r].size), idle_s=idle[r])
            if serial:
                off += tw
        tracer.record("exec.exchange", max(t0, t1 - stats.t_exchange_s), t1,
                      parent=lspan, bytes=stats.exchanged_bytes)

    def _publish_layer(self, stats: ExecLayerStats) -> None:
        """Publish one union sweep's profile into ``self.metrics``."""
        m = self.metrics
        m.counter("exec.layers").inc()
        m.counter("exec.compute_s").inc(stats.t_compute_total_s)
        m.counter("exec.exchange_s").inc(stats.t_exchange_s)
        m.counter("exec.idle_s").inc(stats.t_idle_total_s)
        m.counter("exec.exchanged_bytes").inc(stats.exchanged_bytes)
        m.histogram("exec.layer.local_s").observe(stats.t_local_s)
        m.histogram("exec.layer.exchange_s").observe(stats.t_exchange_s)

    # ------------------------------------------------------------------
    def reset_profile(self) -> None:
        """Drop accumulated :class:`ExecLayerStats` (e.g. between sweeps)."""
        self.layer_profile = []

    def close(self) -> None:
        """Release the persistent backend (workers, shared memory)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExecMultiSourceBFS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def bfs_exec(
    graph_or_rep: Graph | SellCSigma,
    roots,
    semiring: str | SemiringBFS = "tropical",
    *,
    workers: int = 1,
    backend: str = "serial",
    partition: Partition1D | None = None,
    C: int = 8,
    sigma: int | None = None,
    slim: bool = True,
    slimwork: bool = False,
    counting: bool = False,
    compute_parents: bool = True,
    batch: int | None = None,
) -> list[BFSResult]:
    """One-call convenience: executed-parallel batched BFS from ``roots``.

    Mirrors :func:`repro.bfs.msbfs.bfs_msbfs` and is bit-identical to it
    for every ``workers``/``backend`` combination; the backend is torn
    down before returning.
    """
    engine = ExecMultiSourceBFS(
        build_rep(graph_or_rep, C, sigma, slim), semiring,
        workers=workers, backend=backend, partition=partition,
        slimwork=slimwork, counting=counting,
        compute_parents=compute_parents)
    try:
        return run_in_batches(engine, roots, batch)
    finally:
        engine.close()
