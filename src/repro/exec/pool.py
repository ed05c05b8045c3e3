"""Shard-execution backends for the executed parallel SpMM sweep.

A backend owns one worker per :class:`~repro.dist.partition.Partition1D`
rank and runs the layer sweep of each rank's chunks concurrently,
mirroring the structure :func:`repro.dist.bfs1d.bfs_dist_1d` *models*:
the leader writes the carry (``f_prev``) into the union accumulator and
the frontier, pre-multiplied once (:func:`repro.bfs.msbfs.premultiply`),
where every worker gathers from it — the executed stand-in for the
allgather whose time :func:`repro.dist.calibrate.calibrate` compares
against :func:`~repro.dist.network.model_allgather` — and every worker
folds its own active chunks in place into that accumulator, at their
global ids.  Chunks own disjoint rows, so no band is copied out or
written back, for any partition.

Three implementations share that protocol:

``serial``
    Runs the shards back to back in the calling thread.  This is the
    *measurement* backend: each shard's compute time is attributed cleanly
    (no time-slicing contamination), so ``max`` over the per-worker times
    is exactly the critical-path ``t_local`` of the 1D model — a real
    measurement that is meaningful even on a single-core host, where
    concurrent backends cannot beat wall clock.
``threads``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`; numpy
    releases the GIL for the large gather/compare kernels, so shards
    overlap on multicore hosts.  Per-worker spans include scheduler
    interleaving — use ``serial`` for calibration-grade attribution.
``process``
    A persistent pool of forked workers around two
    :class:`~multiprocessing.shared_memory.SharedMemory` blocks (the
    frontier, the accumulator the leader copies the union out of).
    Matrix operands are inherited copy-on-write at fork time, so nothing
    but the frontier crosses a process boundary.

``run_layer`` returns ``(x_raw, t_workers, t_exchange_s)``: the union
accumulator (bit-identical to one global sweep), per-worker compute
seconds, and the leader-side exchange seconds.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.bfs.msbfs import edge_pad, premultiply, sweep_band_layers
from repro.formats.sell import SellCSigma
from repro.semirings.base import SemiringBFS

__all__ = ["BACKENDS", "SerialBackend", "ThreadBackend", "ProcessBackend",
           "idle_times", "make_backend"]

#: Selectable backend names, in documentation order.
BACKENDS = ("serial", "threads", "process")


def idle_times(t_workers) -> tuple[float, ...]:
    """Per-worker barrier idle seconds: slowest worker's time minus own.

    The layer exchange is a barrier — every worker waits for the slowest
    one — so a worker's idle share is exactly that gap.  The profiling
    spans and :class:`repro.exec.engine.ExecLayerStats` both report it.
    """
    t_workers = tuple(t_workers)
    if not t_workers:
        return ()
    slowest = max(t_workers)
    return tuple(slowest - t for t in t_workers)


class _ShardBackend:
    """Shared operand plumbing of the three backends."""

    name = "?"

    def __init__(self, sr: SemiringBFS, rep: SellCSigma,
                 shards: list[np.ndarray]):
        self.sr = sr
        self.C = rep.C
        self.col = rep.col64
        self.val = edge_pad(sr)
        self.cs = rep.cs
        self.cl = rep.cl
        self.row64 = rep.row64
        self.pad_row = rep.pad_row
        self.shards = [np.asarray(s, dtype=np.int64) for s in shards]

    @property
    def workers(self) -> int:
        return len(self.shards)

    def run_layer(self, f_prev: np.ndarray, act_parts: list[np.ndarray]):
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _stage(self, f_prev, act_parts, fx=None, x_raw=None):
        """Leader: the carry into ``x_raw`` and, if a chunk is active, ``fx``
        (else the workers read none of ``f_prev``); timed."""
        t0 = time.perf_counter()
        x_raw = np.empty_like(f_prev) if x_raw is None else x_raw
        x_raw[...] = f_prev
        if any(a.size for a in act_parts):
            f_prev = premultiply(self.sr, self.val, f_prev, self.pad_row, fx)
        return f_prev, x_raw, time.perf_counter() - t0

    def _fold(self, fx, x_raw, act_r) -> float:
        """One worker's iteration: fold ``act_r`` into ``x_raw``; seconds."""
        t0 = time.perf_counter()
        x_nd = x_raw.reshape((self.cs.size, self.C) + x_raw.shape[1:])
        sweep_band_layers(self.sr, self.C, self.col, self.val, self.cs,
                          self.cl, fx, x_nd, act_r, row64=self.row64)
        return time.perf_counter() - t0


class SerialBackend(_ShardBackend):
    """Shards back to back in the caller — the clean-attribution backend."""

    name = "serial"

    def run_layer(self, f_prev, act_parts):
        fx, x_raw, t_exchange = self._stage(f_prev, act_parts)
        t_workers = [self._fold(fx, x_raw, act_r) for act_r in act_parts]
        return x_raw, t_workers, t_exchange


class ThreadBackend(_ShardBackend):
    """Persistent thread pool over released-GIL numpy chunk folds."""

    name = "threads"

    def __init__(self, sr, rep, shards):
        super().__init__(sr, rep, shards)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.workers),
            thread_name_prefix="repro-exec")

    def run_layer(self, f_prev, act_parts):
        fx, x_raw, t_exchange = self._stage(f_prev, act_parts)
        futures = [self._pool.submit(self._fold, fx, x_raw, act_r)
                   for act_r in act_parts]
        return x_raw, [f.result() for f in futures], t_exchange

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def _worker_main(conn, shm_f, shm_x, backend):
    """Forked worker loop: fold one chunk set per message until ``None``.

    Everything heavy (the matrix operands on ``backend``) arrived through
    the fork; only ``(shape, dtype, act_r)`` messages and timing floats
    cross the pipe.  The worker gathers from ``fx`` in ``shm_f`` and folds
    its chunks in place into the accumulator in ``shm_x``.
    """
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            shape, dtype_str, act_r = msg
            dt = np.dtype(dtype_str)
            fx = np.ndarray((shape[0] + 1,) + shape[1:], dt, shm_f.buf)
            x_raw = np.ndarray(shape, dt, shm_x.buf)
            conn.send(backend._fold(fx, x_raw, act_r))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ProcessBackend(_ShardBackend):
    """Persistent forked-worker pool over two shared-memory blocks.

    ``capacity_elems`` sizes the shared blocks (elements of ``dtype``);
    the owning engine recreates the backend if a later frontier outgrows
    it.  Requires the ``fork`` start method (operands are inherited
    copy-on-write, never pickled).
    """

    name = "process"

    def __init__(self, sr, rep, shards, *, capacity_elems: int,
                 dtype: np.dtype):
        super().__init__(sr, rep, shards)
        self.dtype = np.dtype(dtype)
        self.capacity_elems = int(capacity_elems)
        nbytes = max(1, self.capacity_elems * self.dtype.itemsize)
        try:
            ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise ValueError(
                "backend='process' needs the fork start method; "
                "use backend='threads' on this platform") from None
        self._shm_f = shared_memory.SharedMemory(  # fx: one row more
            create=True, size=nbytes + nbytes // max(rep.N, 1))
        self._shm_x = shared_memory.SharedMemory(create=True, size=nbytes)
        self._conns = []
        self._procs = []
        try:
            for r in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, self._shm_f, self._shm_x, self),
                    daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def run_layer(self, f_prev, act_parts):
        if f_prev.size > self.capacity_elems or f_prev.dtype != self.dtype:
            raise ValueError(
                f"frontier ({f_prev.size} x {f_prev.dtype}) exceeds the "
                f"pool capacity ({self.capacity_elems} x {self.dtype}); "
                "the engine must recreate the backend")
        shape, dt = f_prev.shape, f_prev.dtype
        # Broadcast: fx for every worker's gather, the carry to fold into.
        _, xview, t_stage = self._stage(
            f_prev, act_parts,
            np.ndarray((shape[0] + 1,) + shape[1:], dt, self._shm_f.buf),
            np.ndarray(shape, dt, self._shm_x.buf))
        for r, conn in enumerate(self._conns):
            conn.send((shape, dt.str, act_parts[r]))
        t_workers = [conn.recv() for conn in self._conns]
        t0 = time.perf_counter()
        x_raw = xview.copy()  # gather: the union accumulator -> leader
        return x_raw, t_workers, t_stage + (time.perf_counter() - t0)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []
        for shm in (self._shm_f, self._shm_x):
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass


def make_backend(name: str, sr: SemiringBFS, rep: SellCSigma,
                 shards: list[np.ndarray], *, capacity_elems: int = 0,
                 dtype=np.float64) -> _ShardBackend:
    """Instantiate a shard backend by name (``BACKENDS``)."""
    if name == "serial":
        return SerialBackend(sr, rep, shards)
    if name == "threads":
        return ThreadBackend(sr, rep, shards)
    if name == "process":
        return ProcessBackend(sr, rep, shards, capacity_elems=capacity_elems,
                              dtype=dtype)
    raise ValueError(f"unknown exec backend {name!r}; "
                     f"available: {list(BACKENDS)}")
