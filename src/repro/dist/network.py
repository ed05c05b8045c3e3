"""Interconnect descriptors and the collective cost model.

The distributed BFS exchanges collectives every iteration; their costs are
modeled with the standard latency/bandwidth formulations

    allgather       T(P, B) = log2(P)·α + B·(P−1)/P / β   (recursive doubling)
    reduce-scatter  T(P, B) = log2(P)·α + B·(P−1)/P / β   (recursive halving)
    transpose       T(B)    = α + B / β                   (pairwise exchange)

where α is the per-hop latency, β the per-link bandwidth, and B the size of
the exchanged result.  A single rank communicates nothing.  As with the
:mod:`repro.vec.machine` descriptors, the numbers are public spec-sheet
values: the reproduction targets *shape* (how the communication share grows
with P, why Aries beats commodity Ethernet), not absolute seconds.

Batched traversals (the (N, B) frontier matrix of :mod:`repro.bfs.msbfs`)
exchange a *shared* payload per layer: one dense union-frontier value vector
— the same word count the single-source exchange ships — plus an N-bit
membership bitmap per live column (:func:`batched_frontier_bytes`).  The α
terms are charged once per layer for the whole batch, which is exactly the
amortization the §VI scaling study measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Network", "NETWORKS", "CRAY_ARIES", "ETHERNET_10G",
           "model_allgather", "model_reduce_scatter", "model_transpose",
           "model_checkpoint", "batched_frontier_bytes", "get_network"]


@dataclass(frozen=True)
class Network:
    """An interconnect, as the collective cost model sees it.

    Attributes
    ----------
    name:
        Identifier used by benchmarks (e.g. ``"cray-aries"``).
    latency_s:
        One-hop message latency α in seconds.
    bandwidth_gbs:
        Per-link injection bandwidth β in GB/s (10^9 bytes per second).
    """

    name: str
    latency_s: float
    bandwidth_gbs: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name} (α={self.latency_s * 1e6:.1f}µs, "
                f"β={self.bandwidth_gbs}GB/s)")


#: Cray Aries dragonfly (Piz Daint / Piz Dora class): ~1.3µs MPI latency,
#: ~10 GB/s injection bandwidth per node.
CRAY_ARIES = Network("cray-aries", latency_s=1.3e-6, bandwidth_gbs=10.2)

#: Commodity 10-Gigabit Ethernet: ~50µs latency, 1.25 GB/s line rate.
ETHERNET_10G = Network("ethernet-10g", latency_s=5e-5, bandwidth_gbs=1.25)

NETWORKS: dict[str, Network] = {n.name: n for n in (CRAY_ARIES, ETHERNET_10G)}


def get_network(name: str) -> Network:
    """Look up a modeled interconnect by name."""
    try:
        return NETWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; available: {sorted(NETWORKS)}"
        ) from None


def model_allgather(network: Network, ranks: int, nbytes: int | float) -> float:
    """Modeled seconds for an allgather whose result is ``nbytes`` bytes.

    Recursive doubling over ``ranks`` participants: log2(P) latency hops,
    and every rank receives the (P−1)/P fraction of the result it does not
    already hold at line rate.  One rank (or an empty result) is free.
    """
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if ranks == 1:
        return 0.0
    t_latency = math.log2(ranks) * network.latency_s
    t_bandwidth = nbytes * (ranks - 1) / ranks / (network.bandwidth_gbs * 1e9)
    return t_latency + t_bandwidth


def model_reduce_scatter(network: Network, ranks: int,
                         nbytes: int | float) -> float:
    """Modeled seconds for a reduce-scatter of an ``nbytes``-byte vector.

    Recursive halving over ``ranks`` participants: log2(P) latency hops, and
    every rank sends (and combines) the (P−1)/P fraction of the vector whose
    reduced segments end up elsewhere, at line rate.  The ⊕ combine itself is
    local compute and is charged to the node cost model, not the network.
    This is the proper model for the 2D row merge (each grid-row rank holds a
    *partial* result for the whole row band and keeps only its segment),
    which the seed modeled as an allgather-shaped collective; the volume and
    hop counts coincide, so the cost is :func:`model_allgather`'s.
    """
    return model_allgather(network, ranks, nbytes)


def model_transpose(network: Network, nbytes: int | float) -> float:
    """Modeled seconds for the frontier transpose of direction-optimizing
    2D BFS: rank (i, j) exchanges its ``nbytes``-byte result segment with
    rank (j, i) pairwise (one hop, full segment at line rate) so the merged
    result can serve as the next iteration's column frontier under Aᵀ.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return 0.0
    return network.latency_s + nbytes / (network.bandwidth_gbs * 1e9)


def model_checkpoint(network: Network, nbytes: int | float) -> float:
    """Modeled seconds to write (or read back) an ``nbytes`` checkpoint.

    The resilience model's stable-store term: each rank streams its BFS
    state segment (frontier/levels payload) to a remote checkpoint store
    at NIC line rate, one α to open the channel.  The same cost is
    charged for the read-back during recovery.  Zero bytes are free.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return 0.0
    return network.latency_s + nbytes / (network.bandwidth_gbs * 1e9)


def batched_frontier_bytes(nwords: int, width: int,
                           bytes_per_word: int = 4) -> int:
    """Exchanged bytes for a ``width``-column frontier segment of ``nwords``.

    A single column ships the plain dense value vector (``nwords`` words —
    the seed's single-source payload, bit-for-bit).  A batch instead ships
    one dense *union* value vector (still ``nwords`` words: ⊕ over the live
    columns, which is all the shared SpMM gather needs) plus an
    ``nwords``-bit membership bitmap per column to attribute updates back to
    their sources — the standard MS-BFS compression.  Per-column volume
    therefore falls from ``bytes_per_word·nwords`` toward ``nwords/8`` as
    the batch widens, while the collective's α terms are paid once.
    """
    if nwords < 0:
        raise ValueError(f"nwords must be >= 0, got {nwords}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width == 1:
        return bytes_per_word * nwords
    return bytes_per_word * nwords + (nwords * width + 7) // 8
