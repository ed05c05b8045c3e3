"""The traced run's instrumentation: spans and counts around layer entry points.

:class:`LayerProbe` replaces public entry points of each layer with timing
wrappers for the duration of a ``with`` block and restores the originals on
exit.  Module-level functions are patched in *every* ``repro.*`` namespace
that imported them by name (``repro.exec.pool`` imports
``sweep_band_layers``, ``repro.bfs.mshybrid`` imports ``finalize_batch``
and ``expand_adjacency``), methods on the class that defines them.  Spans go
into a :class:`repro.obs.trace.Tracer` on the wall clock; a call stack gives
each span its caller as parent, so the benchmark can compute exclusive time.

Kernel work is counted from the column-layer sweep's own arguments (the
active chunk ids and the chunk lengths ``cl``), at the three places a sweep
is dispatched from the leader process:

* ``sweep_band_layers`` — the batched engines and the in-process exec
  backends;
* ``BFSSpMV._active_chunks`` — the single-source engine inlines its layer
  loop, so the SlimWork mask it sweeps is the only seam that shows it;
* ``ProcessBackend.run_layer`` — the forked backend sweeps in children that
  no parent-side wrapper reaches, so each shard's ``act`` is counted as it
  is sent.

Every count is an exact integer, a pure function of the inputs.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from repro.bfs import msbfs, spmspv
from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.bfs.spmv import BFSSpMV
from repro.exec import pool as exec_pool
from repro.obs.trace import Tracer
from repro.semirings.base import SemiringBFS
from repro.serve.server import Server

#: A column layer with fewer live chunks than this is "narrow": the
#: interpreter dispatches a whole NumPy layer for a handful of rows.
NARROW_LIVE = 8

#: Integer counts that must repeat exactly for the same seed.
EXACT_COUNTS = ("bfs.sweep_calls", "bfs.column_layers", "bfs.narrow_layers",
                "bfs.chunk_layers", "bfs.computed_bytes")


def sweep_counts(cl: np.ndarray, act: np.ndarray, C: int, col_bytes: int,
                 val_bytes: int, f_bytes: int, width: int) -> dict[str, int]:
    """Interpreter-level work of one shrinking-prefix sweep over ``act``.

    ``column_layers`` is the number of Python-level layer iterations (the
    longest active chunk), ``narrow_layers`` those with fewer than
    :data:`NARROW_LIVE` live chunks, ``chunk_layers`` the live chunks summed
    over layers (useful rows / C).  ``computed_bytes`` is the operand
    traffic computed from array sizes: per live chunk and layer, C column
    ids, C values and, per frontier column, one gather plus the
    accumulator's read and write.
    """
    if act.size == 0:
        return dict.fromkeys(EXACT_COUNTS, 0) | {"bfs.sweep_calls": 1}
    scl = np.sort(cl[act])[::-1]
    layers = int(scl[0])
    wide = int(scl[NARROW_LIVE - 1]) if scl.size >= NARROW_LIVE else 0
    chunk_layers = int(scl.sum())
    per_slot = col_bytes + val_bytes + 3 * width * f_bytes
    return {"bfs.sweep_calls": 1, "bfs.column_layers": layers,
            "bfs.narrow_layers": layers - wide,
            "bfs.chunk_layers": chunk_layers,
            "bfs.computed_bytes": chunk_layers * C * per_slot}


def _width(f: np.ndarray) -> int:
    return f.shape[1] if f.ndim == 2 else 1


class LayerProbe:
    """Context manager installing the span/count wrappers.

    ``tracer`` holds the spans of the current pass and ``counts`` its sweep
    counts; :meth:`reset` clears both between passes.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.counts: dict[str, int] = dict.fromkeys(EXACT_COUNTS, 0)
        self._stack: list = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.tracer.clear()
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)

    def _add(self, counts: dict[str, int]) -> None:
        for k, v in counts.items():
            self.counts[k] += v

    # ------------------------------------------------------------------
    def _wrapper(self, fn, name: str | None, count=None):
        tracer, stack = self.tracer, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = None
            if name is not None:
                span = tracer.begin(name, t=time.perf_counter(),
                                    parent=stack[-1] if stack else None)
                stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                if span is not None:
                    stack.pop()
                    tracer.end(span, t=time.perf_counter())
            if count is not None:
                self._add(count(out, *args, **kwargs))
            return out

        return wrapped

    def _patch_function(self, fn, name: str, count=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        wrapped = self._wrapper(fn, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str | None,
                      count=None) -> None:
        fn = vars(cls)[attr]
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, count))

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerProbe":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        # Kernel entry points.  ExecMultiSourceBFS inherits MultiSourceBFS.run.
        for cls in (BFSSpMV, MultiSourceBFS, MultiSourceHybridBFS):
            self._patch_method(cls, "run", "bfs.run")
        self._patch_function(msbfs.sweep_band_layers, "bfs.sweep",
                             count=_count_band_sweep)
        self._patch_method(BFSSpMV, "_active_chunks", None,
                           count=_count_inline_sweep)
        self._patch_function(msbfs.finalize_batch, "bfs.finalize")
        self._patch_function(spmspv.expand_adjacency, "bfs.push")
        # Semiring state handling, on every class that defines it.
        self._patch_method(SemiringBFS, "init_batch_state", "bfs.init_state")
        for cls in _subclasses(SemiringBFS):
            if "postprocess" in vars(cls):
                self._patch_method(cls, "postprocess", "bfs.postprocess")
            if "init_state" in vars(cls):
                self._patch_method(cls, "init_state", "bfs.init_state")
        # The executed backend the benchmark runs.
        self._patch_method(exec_pool.ProcessBackend, "run_layer",
                           "exec.run_layer", count=_count_shard_sweeps)
        # Serving entry points.
        for attr in ("submit", "poll", "drain"):
            self._patch_method(Server, attr, f"serve.{attr}")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _count_band_sweep(_out, sr, C, col, val, cs, cl, f_prev, x_nd, act,
                      *rest, **kw) -> dict[str, int]:
    return sweep_counts(cl, act, C, col.itemsize, val.itemsize,
                        f_prev.itemsize, _width(f_prev))


def _count_inline_sweep(mask, engine, st) -> dict[str, int]:
    rep = engine.rep
    return sweep_counts(rep.cl, np.flatnonzero(mask), rep.C,
                        rep.col64.itemsize,
                        rep.val_for(engine.semiring).itemsize,
                        st.f.itemsize, _width(st.f))


def _count_shard_sweeps(_out, backend, f_prev, act_parts) -> dict[str, int]:
    total = dict.fromkeys(EXACT_COUNTS, 0)
    for act in act_parts:
        for k, v in sweep_counts(backend.cl, act, backend.C,
                                 backend.col.itemsize, backend.val.itemsize,
                                 f_prev.itemsize, _width(f_prev)).items():
            total[k] += v
    return total
