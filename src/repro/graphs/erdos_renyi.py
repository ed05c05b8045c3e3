"""Erdős–Rényi generators — the paper's uniform-degree inputs (§IV).

Two variants are provided:

* :func:`erdos_renyi` — G(n, p): every unordered pair independently with
  probability ``p``.  For the sparse regime the paper uses (p ≈ ρ/n) we
  sample the *number* of edges binomially and then the edges uniformly,
  which is exact for G(n, p) restricted to simple graphs and avoids the
  O(n²) dense loop.
* :func:`erdos_renyi_nm` — G(n, m): exactly m distinct uniform edges.

Both are fully vectorized with rejection-free unranking of unordered pairs.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, _sort_unique


def _pairs_from_ranks(ranks: np.ndarray, n: int) -> np.ndarray:
    """Unrank unordered pairs: rank r in [0, n(n-1)/2) → (u, v), u < v.

    Uses the row-major enumeration (0,1),(0,2),...,(0,n-1),(1,2),...  The
    inverse is computed in closed form with float64 then fixed up exactly in
    integer arithmetic (float rounding can be off by one row at large n).
    """
    r = ranks.astype(np.int64)
    # Solve u(2n - u - 1)/2 <= r for the largest u.
    nn = np.float64(2 * n - 1)
    u = np.floor((nn - np.sqrt(nn * nn - 8.0 * r)) / 2.0).astype(np.int64)
    # Integer fix-up for float error: row start of u is u*(2n-u-1)/2.
    def row_start(x):
        return x * (2 * n - x - 1) // 2

    u = np.maximum(u, 0)
    # Step back/forward at most once.
    too_big = row_start(u) > r
    u[too_big] -= 1
    too_small = row_start(u + 1) <= r
    u[too_small] += 1
    v = r - row_start(u) + u + 1
    return np.stack([u, v], axis=1)


def erdos_renyi_nm(n: int, m: int, seed: int = 0) -> Graph:
    """G(n, m): a uniform simple graph with exactly ``m`` edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges on n={n} vertices")
    rng = np.random.default_rng(seed)
    if m == 0:
        return Graph.empty(n)
    # Sample distinct ranks; for sparse graphs oversample + unique is fast.
    if m < total // 8:
        ranks = np.empty(0, dtype=np.int64)
        need = m
        while need > 0:
            cand = rng.integers(0, total, size=int(need * 1.2) + 8, dtype=np.int64)
            ranks = _sort_unique(np.concatenate([ranks, cand]))
            need = m - ranks.size
        ranks = rng.permutation(ranks)[:m]
    else:
        ranks = rng.choice(total, size=m, replace=False)
    return Graph.from_edges(n, _pairs_from_ranks(ranks, n))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each unordered pair is an edge independently with prob ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(total, p)) if total else 0
    return erdos_renyi_nm(n, m, seed=seed + 1)
