"""Shard-execution backends for the executed parallel SpMM sweep.

A backend owns one worker per :class:`~repro.dist.partition.Partition1D`
rank and runs the layer sweep of each rank's chunk band concurrently,
mirroring the structure :func:`repro.dist.bfs1d.bfs_dist_1d` *models*:

* every worker reads the **global** frontier matrix ``f_prev`` (the state
  after the previous iteration's allgather),
* sweeps only its own chunk band into a **private** band accumulator
  (:func:`repro.bfs.msbfs.sweep_band_layers` with band-local output
  positions), and
* the leader reassembles the union result — the executed stand-in for the
  allgather the dist model charges, and the copy whose time
  :func:`repro.dist.calibrate.calibrate` compares against
  :func:`~repro.dist.network.model_allgather`.

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
    releases the GIL for the large gather/compare kernels, so bands
    overlap on multicore hosts.  Per-worker spans include scheduler
    interleaving — use ``serial`` for calibration-grade attribution.
``process``
    A persistent pool of forked workers around two
    :class:`~multiprocessing.shared_memory.SharedMemory` blocks: the
    leader broadcasts ``f_prev`` into one, workers sweep their bands and
    write the disjoint band rows into the other, and the leader gathers
    the union copy out.  Matrix operands are inherited copy-on-write at
    fork time, so nothing but the frontier crosses a process boundary.

``run_layer`` returns ``(x_raw, t_workers, t_exchange_s)``: the union
accumulator (bit-identical to one global sweep), per-worker compute
seconds, and the leader-side exchange seconds.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.bfs.msbfs import sweep_band_layers
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


def _band_rows(chunks: np.ndarray, C: int) -> np.ndarray:
    """Padded row ids (length ``len(chunks)·C``) of a chunk band."""
    lane = np.arange(C, dtype=np.int64)
    return (chunks[:, None] * C + lane).ravel()


def _sweep_shard(sr: SemiringBFS, C: int, col: np.ndarray, val: np.ndarray,
                 cs: np.ndarray, cl: np.ndarray, row64: np.ndarray,
                 chunks: np.ndarray, rows: np.ndarray, f_prev: np.ndarray,
                 act_r: np.ndarray) -> np.ndarray:
    """One worker's iteration: copy its band out of ``f_prev``, sweep it.

    ``f_prev`` is the ``(N, W)`` frontier matrix.  Returns the flat band
    accumulator (``len(rows)`` rows of ``W`` columns).  The fancy-index
    read is a fresh copy, so the sweep never writes through into the
    shared frontier.
    """
    x_band = f_prev[rows]  # fancy index -> private copy
    act_out = np.searchsorted(chunks, act_r)
    shape = (chunks.size, C, f_prev.shape[1])
    sweep_band_layers(sr, C, col, val, cs, cl, f_prev, x_band.reshape(shape),
                      act_r, act_out, row64=row64)
    return x_band


class _ShardBackend:
    """Shared operand plumbing of the three backends."""

    name = "?"

    def __init__(self, sr: SemiringBFS, rep: SellCSigma,
                 shards: list[np.ndarray]):
        self.sr = sr
        self.C = rep.C
        self.col = rep.col64
        self.val = rep.val_for(sr)
        self.cs = rep.cs
        self.cl = rep.cl
        self.row64 = rep.row64
        self.shards = [np.asarray(s, dtype=np.int64) for s in shards]
        self.rows = [_band_rows(s, rep.C) for s in self.shards]

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
    def _gather(self, f_prev: np.ndarray, bands: list[np.ndarray]):
        """Assemble the union accumulator from per-worker bands, timed."""
        t0 = time.perf_counter()
        x_raw = np.empty_like(f_prev)
        for rows, band in zip(self.rows, bands):
            x_raw[rows] = band
        return x_raw, time.perf_counter() - t0


class SerialBackend(_ShardBackend):
    """Shards back to back in the caller — the clean-attribution backend."""

    name = "serial"

    def run_layer(self, f_prev, act_parts):
        bands, t_workers = [], []
        for r in range(self.workers):
            t0 = time.perf_counter()
            bands.append(_sweep_shard(
                self.sr, self.C, self.col, self.val, self.cs, self.cl,
                self.row64, self.shards[r], self.rows[r], f_prev,
                act_parts[r]))
            t_workers.append(time.perf_counter() - t0)
        x_raw, t_exchange = self._gather(f_prev, bands)
        return x_raw, t_workers, t_exchange


class ThreadBackend(_ShardBackend):
    """Persistent thread pool over released-GIL numpy band sweeps."""

    name = "threads"

    def __init__(self, sr, rep, shards):
        super().__init__(sr, rep, shards)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.workers),
            thread_name_prefix="repro-exec")

    def _timed_shard(self, r: int, f_prev, act_r):
        t0 = time.perf_counter()
        band = _sweep_shard(self.sr, self.C, self.col, self.val, self.cs,
                            self.cl, self.row64, self.shards[r], self.rows[r],
                            f_prev, act_r)
        return band, time.perf_counter() - t0

    def run_layer(self, f_prev, act_parts):
        futures = [self._pool.submit(self._timed_shard, r, f_prev,
                                     act_parts[r])
                   for r in range(self.workers)]
        done = [f.result() for f in futures]
        bands = [band for band, _ in done]
        t_workers = [t for _, t in done]
        x_raw, t_exchange = self._gather(f_prev, bands)
        return x_raw, t_workers, t_exchange

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def _worker_main(conn, shm_f, shm_x, sr, C, col, val, cs, cl, row64, chunks,
                 rows):
    """Forked worker loop: sweep one band per message until ``None``.

    Everything heavy (matrix operands, the chunk band) arrived through the
    fork; only ``(shape, dtype, act_r)`` messages and timing floats cross
    the pipe.  The worker reads the global frontier out of ``shm_f`` and
    writes its disjoint band rows into ``shm_x``.
    """
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            shape, dtype_str, act_r = msg
            t0 = time.perf_counter()
            dt = np.dtype(dtype_str)
            f_prev = np.ndarray(shape, dtype=dt, buffer=shm_f.buf)
            band = _sweep_shard(sr, C, col, val, cs, cl, row64, chunks, rows,
                                f_prev, act_r)
            x_out = np.ndarray(shape, dtype=dt, buffer=shm_x.buf)
            x_out[rows] = band
            conn.send(time.perf_counter() - t0)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ProcessBackend(_ShardBackend):
    """Persistent forked-worker pool over two shared-memory frontiers.

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
        self._shm_f = shared_memory.SharedMemory(create=True, size=nbytes)
        self._shm_x = shared_memory.SharedMemory(create=True, size=nbytes)
        self._conns = []
        self._procs = []
        try:
            for r in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, self._shm_f, self._shm_x, self.sr, self.C,
                          self.col, self.val, self.cs, self.cl, self.row64,
                          self.shards[r], self.rows[r]),
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
        shape = f_prev.shape
        t0 = time.perf_counter()
        fview = np.ndarray(shape, dtype=f_prev.dtype, buffer=self._shm_f.buf)
        fview[...] = f_prev  # broadcast: leader -> every worker's gather
        t_broadcast = time.perf_counter() - t0
        msg_dtype = f_prev.dtype.str
        for r, conn in enumerate(self._conns):
            conn.send((shape, msg_dtype, act_parts[r]))
        t_workers = [conn.recv() for conn in self._conns]
        t0 = time.perf_counter()
        xview = np.ndarray(shape, dtype=f_prev.dtype, buffer=self._shm_x.buf)
        x_raw = xview.copy()  # gather: every worker's band -> leader
        t_exchange = t_broadcast + (time.perf_counter() - t0)
        return x_raw, t_workers, t_exchange

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
