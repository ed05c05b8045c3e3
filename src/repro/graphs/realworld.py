"""Synthetic proxies for the paper's Table IV real-world corpus.

The paper evaluates ten SNAP graphs (orc, pok, epi, ljn, brk, gog, sta, ndm,
amz, rca).  The raw datasets are not available offline, so each graph is
substituted with a synthetic proxy that matches the published structural
parameters that SlimSell's behaviour depends on:

* **n, m, ρ̄ = m/n** — matched directly (scaled down by ``downscale``);
* **degree distribution shape** — heavy-tailed (Chung–Lu with the measured
  exponent) for social/web/purchase networks, near-uniform grid for the road
  network;
* **diameter regime** — low (≈10–20) for social networks, high (hundreds)
  for web crawls and road networks.  High-diameter proxies are built as a
  path of power-law communities whose length sets D, which reproduces the
  paper's "high D, low ρ̄ ⇒ little SlimWork gain" finding (§IV-A5).

Note the paper's ρ̄ column is m/n (directed-edge-per-vertex convention),
not 2m/n; this module follows the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph, _sort_unique


@dataclass(frozen=True)
class RealWorldSpec:
    """Published statistics of one Table IV graph plus proxy parameters."""

    id: str
    name: str
    kind: str  # social | community | web | purchase | road
    n: int
    m: int
    rho: float  # paper's ρ̄ = m/n
    diameter: int
    powerlaw_beta: float = 2.3  # degree exponent used by the proxy
    communities: int = 1  # >1 → path-of-communities (high-D proxy)


#: Table IV of the paper, verbatim published statistics.
REALWORLD_REGISTRY: dict[str, RealWorldSpec] = {
    s.id: s
    for s in (
        RealWorldSpec("orc", "Orkut social network", "social", 3_070_000, 117_000_000, 39.0, 9, 2.2),
        RealWorldSpec("pok", "Pokec social network", "social", 1_630_000, 30_600_000, 18.75, 11, 2.3),
        RealWorldSpec("epi", "Epinions trust network", "social", 75_000, 508_000, 6.7, 15, 2.0),
        RealWorldSpec("ljn", "LiveJournal communities", "community", 3_990_000, 34_600_000, 8.67, 17, 2.35),
        RealWorldSpec("brk", "Berkeley-Stanford web", "web", 685_000, 7_600_000, 11.09, 514, 2.1, communities=48),
        RealWorldSpec("gog", "Google web graph", "web", 875_000, 5_100_000, 5.82, 21, 2.3, communities=3),
        RealWorldSpec("sta", "Stanford web graph", "web", 281_000, 2_310_000, 8.2, 46, 2.1, communities=6),
        RealWorldSpec("ndm", "Notre Dame web graph", "web", 325_000, 1_490_000, 4.59, 674, 2.1, communities=64),
        RealWorldSpec("amz", "Amazon purchase network", "purchase", 262_000, 1_230_000, 4.71, 32, 2.6, communities=4),
        RealWorldSpec("rca", "California road network", "road", 1_960_000, 2_760_000, 1.4, 849),
    )
}


# --------------------------------------------------------------------------
# Proxy generators
# --------------------------------------------------------------------------
def chung_lu(n: int, m: int, beta: float, seed: int = 0) -> Graph:
    """Chung–Lu graph: P(u~v) ∝ w_u w_v with power-law weights w_i ∝ i^{-1/(β-1)}.

    Produces a heavy-tailed simple graph with ≈``m`` edges.  Endpoints are
    drawn from the weight distribution and duplicates removed; we oversample
    to compensate for the removal.
    """
    if n < 2:
        return Graph.empty(max(n, 0))
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (beta - 1.0))
    p = w / w.sum()
    target = min(m, n * (n - 1) // 2)
    edges = np.empty((0, 2), dtype=np.int64)
    attempts = 0
    need = target
    while need > 0 and attempts < 12:
        draw = int(need * 1.35) + 16
        u = rng.choice(n, size=draw, p=p)
        v = rng.choice(n, size=draw, p=p)
        cand = np.stack([u, v], axis=1)
        cand = cand[cand[:, 0] != cand[:, 1]]
        lo = cand.min(axis=1)
        hi = cand.max(axis=1)
        key = lo * np.int64(n) + hi
        if edges.size:
            key_old = edges[:, 0] * np.int64(n) + edges[:, 1]
            key = np.concatenate([key_old, key])
        key = _sort_unique(key)
        edges = np.stack([key // n, key % n], axis=1)
        if edges.shape[0] >= target:
            edges = edges[rng.permutation(edges.shape[0])[:target]]
            break
        need = target - edges.shape[0]
        attempts += 1
    return Graph.from_edges(n, edges)


def grid_road(n: int, rho: float, seed: int = 0) -> Graph:
    """Road-network proxy: 2D grid with random edge deletions down to m ≈ ρ·n.

    Grids have near-uniform degree ≤ 4 and diameter Θ(√n) — the same regime
    as the paper's California road network (ρ̄=1.4, D=849).
    """
    side = max(2, int(round(np.sqrt(n))))
    nn = side * side
    ids = np.arange(nn, dtype=np.int64).reshape(side, side)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    edges = np.concatenate([right, down])
    target_m = int(rho * nn)
    rng = np.random.default_rng(seed)
    if target_m < edges.shape[0]:
        keep = rng.permutation(edges.shape[0])[:target_m]
        edges = edges[keep]
    return Graph.from_edges(nn, edges)


def community_path(n: int, m: int, beta: float, communities: int, seed: int = 0) -> Graph:
    """High-diameter proxy: a path of Chung–Lu communities plus bridges.

    The diameter is ≈ ``communities`` × (per-community diameter), which lets
    web-crawl proxies (brk D=514, ndm D=674) land in the paper's regime
    while keeping the heavy-tailed local structure.
    """
    communities = max(1, min(communities, n // 4 if n >= 8 else 1))
    if communities == 1:
        return chung_lu(n, m, beta, seed=seed)
    sizes = np.full(communities, n // communities, dtype=np.int64)
    sizes[: n % communities] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    m_per = max(1, (m - (communities - 1)) // communities)
    rng = np.random.default_rng(seed)
    all_edges = []
    for c in range(communities):
        sub = chung_lu(int(sizes[c]), m_per, beta, seed=seed + 101 * c + 1)
        e = sub.edges() + offsets[c]
        all_edges.append(e)
    # One bridge edge between consecutive communities keeps D ≈ sum of hops.
    for c in range(communities - 1):
        u = offsets[c] + rng.integers(0, sizes[c])
        v = offsets[c + 1] + rng.integers(0, sizes[c + 1])
        all_edges.append(np.array([[u, v]], dtype=np.int64))
    return Graph.from_edges(int(offsets[-1]), np.concatenate(all_edges))


def realworld_proxy(graph_id: str, downscale: int = 64, seed: int = 0) -> Graph:
    """Generate the synthetic proxy for a Table IV graph.

    Parameters
    ----------
    graph_id:
        One of the Table IV ids (``orc``, ``pok``, ``epi``, ``ljn``, ``brk``,
        ``gog``, ``sta``, ``ndm``, ``amz``, ``rca``).
    downscale:
        Divide published n and m by this factor (degree ratio m/n is kept).
        ``downscale=1`` reproduces the published size.
    seed:
        RNG seed.
    """
    try:
        spec = REALWORLD_REGISTRY[graph_id]
    except KeyError:
        raise KeyError(
            f"unknown real-world graph {graph_id!r}; available: {sorted(REALWORLD_REGISTRY)}"
        ) from None
    n = max(16, spec.n // downscale)
    m = max(n, spec.m // downscale)
    if spec.kind == "road":
        return grid_road(n, spec.rho, seed=seed)
    if spec.communities > 1:
        return community_path(n, m, spec.powerlaw_beta, spec.communities, seed=seed)
    return chung_lu(n, m, spec.powerlaw_beta, seed=seed)
