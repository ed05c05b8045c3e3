"""Core undirected graph structure (CSR-backed, NumPy-native).

``Graph`` is the single in-memory graph type every representation and BFS in
this repository builds from.  It stores the symmetric adjacency in CSR form
(``indptr``/``indices``, both ``int32`` per the paper's 32-bit vertex-id
convention of §IV-A) and exposes vectorized degree queries, symmetric
relabeling (needed for Sell-C-σ's σ-scoped sort), and edge-list round trips.

The graph is simple (no self-loops, no parallel edges) and unweighted —
exactly the setting SlimSell targets: entries of A only indicate presence or
absence of an edge (§III-B).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

VERTEX_DTYPE = np.int32
INDPTR_DTYPE = np.int64


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Distinct values of ``keys`` in ascending order; sorts ``keys`` in place."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _csr_from_sorted_keys(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of ascending, distinct packed keys ``src·n + dst``.

    Row ``r`` owns the keys in ``[r·n, (r+1)·n)``, so its pointer is one
    binary search and its neighbors are the keys modulo ``n``, ascending.
    """
    nn = max(n, 1)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * nn)
    return indptr, (keys % nn).astype(VERTEX_DTYPE)


class Graph:
    """Undirected, unweighted, simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n+1``; row pointers of the symmetric CSR.
    indices:
        ``int32`` array of length ``2m``; concatenated sorted neighbor lists.

    Use :meth:`from_edges` to construct from an arbitrary (possibly
    duplicated, possibly self-looped) edge list.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=INDPTR_DTYPE)
        indices = np.asarray(indices, dtype=VERTEX_DTYPE)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed CSR: indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("malformed CSR: indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a simple undirected graph from an edge list.

        Self-loops are dropped; duplicate and reverse-duplicate edges are
        merged.  ``edges`` is an ``(E, 2)`` array (or iterable of pairs) of
        vertex ids in ``[0, n)``.
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        u, v = e[:, 0], e[:, 1]
        keep = u != v
        u, v = u[keep], v[keep]
        # Canonical (min, max) pairs packed as lo·n + hi, deduplicated by
        # one sort; both directions then sort once more into CSR order.
        nn = np.int64(max(n, 1))  # no edge survives the range check at n = 0
        key = _sort_unique(np.minimum(u, v) * nn + np.maximum(u, v))
        lo, hi = np.divmod(key, nn)
        keys = np.concatenate([key, hi * nn + lo])
        keys.sort()
        return cls(*_csr_from_sorted_keys(n, keys))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Graph with ``n`` vertices and no edges."""
        return cls(np.zeros(n + 1, dtype=INDPTR_DTYPE), np.empty(0, dtype=VERTEX_DTYPE))

    # ------------------------------------------------------------------
    # Basic properties (paper notation: n, m, rho, D)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices |V|."""
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        """Number of undirected edges |E| (each counted once)."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (``int64`` array of length n)."""
        return np.diff(self.indptr)

    @property
    def avg_degree(self) -> float:
        """Average degree ρ̄ = 2m/n (0 for the empty graph)."""
        return float(self.indices.size) / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        """Maximum degree ρ̂ (0 for an edgeless graph)."""
        d = self.degrees
        return int(d.max()) if d.size else 0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of vertex ``v`` (a CSR view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in u's sorted neighbor list."""
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return bool(i < nb.size and nb[i] == v)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "Graph":
        """Symmetric relabeling: new id of old vertex ``v`` is ``perm[v]``.

        Used by Sell-C-σ/SlimSell construction to apply the σ-scoped degree
        sort as a vertex relabeling, so frontier vectors live in the sorted
        order (§II-D2).
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.n
        if perm.shape != (n,):
            raise ValueError(f"perm must have shape ({n},)")
        hit = np.zeros(n, dtype=bool)
        hit[perm] = True  # an id outside [-n, n) raises IndexError here
        if not hit.all() or (n and perm.min() < 0):
            raise ValueError("perm is not a permutation of range(n)")
        # Entry (v, w) becomes (perm[v], perm[w]): pack and sort once.
        keys = np.repeat(perm * n, self.degrees) + perm[self.indices]
        keys.sort()
        return Graph(*_csr_from_sorted_keys(n, keys))

    def edges(self) -> np.ndarray:
        """Canonical edge list ``(m, 2)`` with ``u < v`` per row."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        dst = self.indices.astype(np.int64)
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def to_scipy(self):
        """Symmetric ``scipy.sparse.csr_matrix`` with unit values."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.indices.size, dtype=np.float64)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    # ------------------------------------------------------------------
    # Dunder sugar
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, avg_degree={self.avg_degree:.2f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self):  # pragma: no cover - mutable arrays, identity hash
        return id(self)
