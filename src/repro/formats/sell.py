"""Sell-C-σ construction (§II-D2, Fig 2) — the chunked, SIMD-friendly layout.

The adjacency matrix is split into ``nc = ⌈n/C⌉`` chunks of C consecutive
rows.  Inside σ-scoped windows, rows are sorted by descending degree (a
symmetric vertex relabeling), which packs similar-length rows together and
minimizes zero-padding.  Each chunk is stored **column-major**: slot
``cs[i] + j·C + r`` holds the j-th neighbor of the chunk's r-th row, so C
consecutive memory cells feed the C SIMD lanes directly (the "rotate the
layout by 90°" move of the paper).

Internally padding slots carry the marker ``PAD = -1`` in ``col``.
``SellCSigma`` materializes an explicit ``val`` array per semiring and a
gather-safe ``col`` (padding redirected to index 0, annihilated by val);
``SlimSell`` (see :mod:`repro.formats.slimsell`) keeps the marker and drops
``val`` — that is the entire storage trick of §III-B.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.graph import Graph
from repro.semirings.base import SemiringBFS

#: Column-index marker for padding slots (§III-B: "a special marker, e.g., -1").
PAD = np.int32(-1)


def sigma_sort_permutation(degrees: np.ndarray, sigma: int) -> np.ndarray:
    """σ-scoped sort: perm[v] = new id of old vertex v.

    Rows are sorted by descending degree inside each window of ``sigma``
    consecutive vertices (σ=1 keeps the input order; σ=n is a full sort).
    The sort is stable so results are deterministic.

    Vectorized: the degree vector is padded to a whole number of windows
    with a sentinel key that sorts last, reshaped to ``(n/σ, σ)``, and
    argsorted row-wise on the (−degree, old id) key — one NumPy call
    instead of O(n/σ) interpreter iterations, with semantics identical to
    the windowed loop (see :func:`_sigma_sort_permutation_loop`).
    """
    n = degrees.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    sigma = int(min(max(sigma, 1), n))
    if sigma == 1:
        return np.arange(n, dtype=np.int64)
    nw = -(-n // sigma)  # number of σ-windows, last one possibly partial
    # Key = −degree (ascending == descending degree); the pad sentinel is
    # larger than any real key so padded tail slots sort to the window end,
    # and the stable argsort keeps ties in old-id order.
    key = np.full(nw * sigma, np.iinfo(np.int64).max, dtype=np.int64)
    key[:n] = -np.asarray(degrees, dtype=np.int64)
    local = np.argsort(key.reshape(nw, sigma), axis=1, kind="stable")
    offsets = (np.arange(nw, dtype=np.int64) * sigma)[:, None]
    order = (local + offsets).ravel()
    order = order[order < n]  # drop the padded tail of the last window
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return perm


def _sigma_sort_permutation_loop(degrees: np.ndarray, sigma: int) -> np.ndarray:
    """Reference implementation: the original per-window Python loop.

    Kept as the semantic oracle for property tests of the vectorized
    :func:`sigma_sort_permutation` (exact stable-descending tie-breaks).
    """
    n = degrees.size
    sigma = int(min(max(sigma, 1), n)) if n else 1
    order = np.arange(n, dtype=np.int64)
    for start in range(0, n, sigma):
        stop = min(start + sigma, n)
        window = order[start:stop]
        # stable argsort of -degree == descending degree, ties by old id
        local = np.argsort(-degrees[window], kind="stable")
        order[start:stop] = window[local]
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return perm


class _ChunkedLayout:
    """Shared Sell-C-σ/SlimSell chunked storage (built once, wrapped twice)."""

    __slots__ = (
        "graph_original", "graph", "C", "sigma", "n", "N", "nc",
        "perm", "iperm", "cs", "cl", "col", "build_time_s", "sort_time_s",
    )

    def __init__(self, graph: Graph, C: int, sigma: int):
        if C < 1:
            raise ValueError(f"chunk height C must be >= 1, got {C}")
        t0 = time.perf_counter()
        self.graph_original = graph
        self.C = int(C)
        n = graph.n
        self.n = n
        self.sigma = int(min(max(sigma, 1), n)) if n else 1
        self.perm = sigma_sort_permutation(graph.degrees, self.sigma)
        self.sort_time_s = time.perf_counter() - t0
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(n, dtype=np.int64)
        self.graph = graph.permute(self.perm)

        self.nc = (n + C - 1) // C if n else 0
        self.N = self.nc * C
        deg = np.zeros(self.N, dtype=np.int64)
        deg[:n] = self.graph.degrees
        per_chunk = deg.reshape(self.nc, C) if self.nc else deg.reshape(0, C)
        self.cl = per_chunk.max(axis=1) if self.nc else np.zeros(0, dtype=np.int64)
        sizes = self.cl * C
        self.cs = np.zeros(self.nc, dtype=np.int64)
        if self.nc:
            np.cumsum(sizes[:-1], out=self.cs[1:])
        total = int(sizes.sum())

        # Scatter neighbor ids into column-major chunk slots (vectorized):
        # CSR entry k of row r is its (k − indptr[r])-th neighbor, so it
        # lands in slot cs[r // C] + r % C + (k − indptr[r])·C.
        g = self.graph
        rows = np.arange(n, dtype=np.int64)
        slot = np.repeat(self.cs[rows // C] + rows % C - g.indptr[:-1] * C,
                         g.degrees)
        slot += C * np.arange(g.indices.size, dtype=np.int64)
        col = np.full(total, PAD, dtype=np.int32)
        col[slot] = g.indices
        self.col = col
        self.build_time_s = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def total_slots(self) -> int:
        """Slots per padded array (= 2m + padding slots)."""
        return self.col.size

    @property
    def padding_slots(self) -> int:
        """Number of padding slots per padded array."""
        return int(self.col.size - self.graph.indices.size)

    def edge_mask(self) -> np.ndarray:
        """Bool mask over slots: True on edges, False on padding."""
        return self.col != PAD


class SellCSigma:
    """Sell-C-σ representation of an undirected graph (§II-D2).

    Parameters
    ----------
    graph:
        The graph to encode.
    C:
        Chunk height = SIMD width of the target unit (8 AVX, 16 AVX-512,
        32 GPU warp).
    sigma:
        Sorting scope in [1, n]; larger σ → less padding (§IV-A1).

    Attributes (paper names)
    ----------
    val-like data is materialized per semiring with :meth:`val_for`;
    ``col`` is gather-safe (padding → index 0); ``cs``/``cl`` are chunk
    start offsets and lengths; ``perm``/``iperm`` map original ↔ sorted ids.
    """

    name = "sell-c-sigma"
    has_val = True

    def __init__(self, graph: Graph, C: int, sigma: int | None = None,
                 _layout: _ChunkedLayout | None = None):
        self._layout = _layout if _layout is not None else _ChunkedLayout(
            graph, C, sigma if sigma is not None else graph.n)
        lay = self._layout
        self.C = lay.C
        self.sigma = lay.sigma
        self.cs = lay.cs
        self.cl = lay.cl
        self.perm = lay.perm
        self.iperm = lay.iperm
        self.graph = lay.graph
        self.graph_original = lay.graph_original
        self._edge_mask = lay.edge_mask()
        #: Gather-safe column indices: padding slots redirected to vertex 0;
        #: the padding value annihilates their contribution.  A val-free
        #: representation keeps the −1 markers its values are derived from.
        self.col = (np.where(self._edge_mask, lay.col, np.int32(0))
                    if self.has_val else lay.col)
        self._val_cache: dict[str, np.ndarray] = {}
        self._col64: np.ndarray | None = None
        self._row64: np.ndarray | None = None

    # -- shared geometry ------------------------------------------------
    @property
    def n(self) -> int:
        """Number of (real) vertices."""
        return self._layout.n

    @property
    def N(self) -> int:
        """Padded vertex count nc·C (vectors are allocated at this length)."""
        return self._layout.N

    @property
    def nc(self) -> int:
        """Number of chunks."""
        return self._layout.nc

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.graph.m

    @property
    def total_slots(self) -> int:
        """Slots per padded array (2m + P_slots)."""
        return self._layout.total_slots

    @property
    def padding_slots(self) -> int:
        """Padding slots per padded array."""
        return self._layout.padding_slots

    @property
    def build_time_s(self) -> float:
        """Wall-clock construction time (preprocessing, §IV-D)."""
        return self._layout.build_time_s

    @property
    def sort_time_s(self) -> float:
        """Wall-clock of the σ sort alone (preprocessing, §IV-D)."""
        return self._layout.sort_time_s

    # -- hot-path operands ------------------------------------------------
    @property
    def col64(self) -> np.ndarray:
        """``col`` widened to int64 for fancy indexing, materialized once.

        The layer engines index ``f[col[idx]]`` on every column layer of
        every traversal; memoizing the widened copy here (per instance,
        since SlimSell's ``col`` keeps the −1 markers while Sell-C-σ's is
        gather-safe) means repeated-traversal workloads — 64 Graph500
        roots, n betweenness sources — pay the astype exactly once.
        """
        c = self._col64
        if c is None:
            c = self.col.astype(np.int64)
            self._col64 = c
        return c

    @property
    def row64(self) -> np.ndarray:
        """Padded row id of every slot (``chunk·C + lane``), memoized.

        Slot ``cs[i] + j·C + r`` holds an entry of row ``i·C + r``; the
        single-column sweep scatters whole slot runs through this map, and
        the weighted and 2D-distributed layouts read their rows from it.
        Chunks are stored back to back, so the map is each chunk's first
        row repeated over its slots plus the lane, built in place: no
        temporary as large as the map itself.
        """
        r = self._row64
        if r is None:
            C = self.C
            r = np.repeat(np.arange(self.nc, dtype=np.int64) * C, self.cl * C)
            r.reshape(-1, C)[...] += np.arange(C)
            self._row64 = r
        return r

    # -- values ----------------------------------------------------------
    def val_for(self, semiring: SemiringBFS) -> np.ndarray:
        """Materialized ``val`` array under ``semiring`` (cached)."""
        v = self._val_cache.get(semiring.name)
        if v is None:
            v = semiring.values_from_edge_mask(self._edge_mask)
            self._val_cache[semiring.name] = v
        return v

    # -- storage (Table III) ----------------------------------------------
    @property
    def padding_cells(self) -> int:
        """The paper's P for this representation: padding in val *and* col."""
        return 2 * self.padding_slots

    def storage_cells(self) -> int:
        """Table III: 4m + 2n/C + P cells (val+col incl. padding, cs+cl)."""
        return 2 * self.total_slots + 2 * self.nc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(n={self.n}, m={self.m}, C={self.C}, "
                f"sigma={self.sigma}, slots={self.total_slots})")
