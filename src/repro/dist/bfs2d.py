"""2D-decomposed distributed BFS over SlimSell (cf. Buluç & Madduri, [9]).

The adjacency matrix is mapped onto an (R, C) process grid: the nc chunks
(row bands) are work-balanced across the R grid rows, and the column space
is split into C contiguous vertex blocks.  Rank (i, j) stores the slots of
row-band i whose column index falls in block j, so its local chunk lengths
``cl2d[c, j]`` (max per-row neighbor count inside the block) are computed
from the real layout — the 2D analog of SlimSell's ``cl`` array.

One iteration is the textbook 2D BFS-SpMV:

1. **column allgather** — the R ranks of a grid column assemble their
   frontier segment (N/C words each: the vector entries their matrix
   columns need);
2. **local SpMV** — the column-restricted SlimSell kernel, SlimWork
   skipping decided per row chunk exactly as in 1D;
3. **row merge** — the C ranks of a grid row reduce-scatter their partial
   result segments (N/R words; recursive halving, the ⊕ combine charged to
   the local cost model);
4. optionally a **frontier transpose** (``transpose=True``, the
   direction-optimizing variant): rank (i, j) swaps its merged result
   segment with rank (j, i) so the next iteration can sweep Aᵀ.

Per-iteration traffic is therefore O(N/R + N/C) words instead of the 1D
decomposition's O(N) — [9]'s scalability argument, reproduced by the
``bench_dist_scaling`` benchmark.  Batched traversals exchange the shared
union payload of :func:`repro.dist.network.batched_frontier_bytes` per
segment, paying each collective's α terms once per layer for the whole
batch; ``overlap`` hides that fraction of the wire time behind the local
sweep.

This module supplies only the grid mapping (``_profile_2d`` over one
``_Grid2D``); :func:`bfs_dist_2d` checks the grid and hands that profile to
the one driver both decompositions share (:func:`repro.dist.result.simulate`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dist.faults import DistFaultInjector, DistFaultModel
from repro.dist.network import (
    Network,
    batched_frontier_bytes,
    model_allgather,
    model_reduce_scatter,
    model_transpose,
)
from repro.dist.partition import Partition1D
from repro.dist.result import (
    DistBatchResult,
    DistBFSResult,
    DistIterationStats,
    check_overlap,
    modeled_local_seconds,
    simulate,
    work_imbalance,
)
from repro.formats.sell import SellCSigma
from repro.perf.costmodel import BYTES_PER_WORD
from repro.semirings.base import get_semiring
from repro.vec.machine import Machine

__all__ = ["bfs_dist_2d", "column_split_lengths"]


def column_split_lengths(rep: SellCSigma, nblocks: int) -> np.ndarray:
    """int64[nc, nblocks]: chunk lengths of the column-restricted layouts.

    ``out[c, j]`` is the number of column layers chunk ``c`` needs when only
    the edges whose target falls in contiguous column block ``j`` are kept —
    the ``cl`` array rank (i, j) would build locally.  Derived from the real
    slot layout, so empty blocks and skewed columns are captured exactly.
    """
    lay = rep._layout  # shared Sell-C-σ/SlimSell geometry (marker col array)
    nc, C = rep.nc, rep.C
    if nc == 0 or nblocks < 1:
        return np.zeros((nc, max(nblocks, 0)), dtype=np.int64)
    edge = lay.edge_mask()
    block_size = max(1, -(-rep.N // nblocks))  # ceil(N / nblocks)
    block_of = lay.col[edge].astype(np.int64) // block_size
    key = rep.row64[edge] * nblocks + block_of
    counts = np.bincount(key, minlength=nc * C * nblocks)
    return counts.reshape(nc, C, nblocks).max(axis=1).astype(np.int64)


class _Grid2D:
    """Per-grid invariants shared by every iteration of the 2D model."""

    def __init__(self, rep: SellCSigma, grid: tuple[int, int],
                 network: Network, transpose: bool):
        self.R, self.Cg = grid
        self.ranks = self.R * self.Cg
        self.rows = Partition1D.balanced(rep.cl, self.R)  # bands → grid rows
        self.cl2d = column_split_lengths(rep, self.Cg)
        self.owned = self.rows.counts_per_rank()
        self.col_seg = -(-rep.N // self.Cg)  # frontier words per grid column
        self.row_seg = -(-rep.N // self.R)  # partial-result words per row
        self.tr_seg = -(-rep.N // self.ranks)  # merged segment per rank
        self.transpose = transpose
        self.network = network
        hops = (0 if self.R == 1 else math.log2(self.R)) + \
               (0 if self.Cg == 1 else math.log2(self.Cg)) + \
               (1 if transpose else 0)
        self.latency = hops * network.latency_s

    def comm(self, width: int) -> tuple[int, float]:
        """(bytes received per rank, modeled seconds) for one iteration."""
        if self.ranks == 1:
            return 0, 0.0
        net = self.network
        col_bytes = batched_frontier_bytes(self.col_seg, width,
                                           BYTES_PER_WORD)
        row_bytes = batched_frontier_bytes(self.row_seg, width,
                                           BYTES_PER_WORD)
        comm_bytes = col_bytes + row_bytes
        t_comm = (model_allgather(net, self.R, col_bytes)
                  + model_reduce_scatter(net, self.Cg, row_bytes))
        if self.transpose:
            tr_bytes = batched_frontier_bytes(self.tr_seg, width,
                                              BYTES_PER_WORD)
            comm_bytes += tr_bytes
            t_comm += model_transpose(net, tr_bytes)
        return comm_bytes, t_comm


def _profile_2d(rep: SellCSigma, g2d: _Grid2D, machine: Machine,
                slimwork: bool, overlap: float,
                schedule) -> list[DistIterationStats]:
    """Map a union iteration schedule onto the (R, C) grid and the wire."""
    semiring = get_semiring("tropical")
    slim = not rep.has_val
    R, Cg = g2d.R, g2d.Cg
    rowner, owned = g2d.rows.owner, g2d.owned
    iterations: list[DistIterationStats] = []
    for k, width, newly, active in schedule:
        processed = np.bincount(rowner[active], minlength=R)
        # layers[i, j] = Σ cl2d[c, j] over active chunks of grid row i.
        layers = np.zeros((R, Cg), dtype=np.int64)
        np.add.at(layers, rowner[active], g2d.cl2d[active])
        rank_lanes = (layers * rep.C).reshape(g2d.ranks)
        t_local = max(
            modeled_local_seconds(machine, semiring, rep.C, slim,
                                  int(processed[i]),
                                  int(owned[i] - processed[i]),
                                  int(layers[i, j]), slimwork, batch=width)
            for i in range(R) for j in range(Cg))
        comm_bytes, t_comm = g2d.comm(width)
        iterations.append(DistIterationStats(
            k=k, newly=newly, t_local_s=t_local, t_comm_s=t_comm,
            comm_bytes=comm_bytes, imbalance=work_imbalance(rank_lanes),
            rank_lanes=rank_lanes, chunks_active=int(active.sum()),
            width=width, overlap=overlap,
            comm_latency_s=0.0 if g2d.ranks == 1 else g2d.latency,
        ))
    return iterations


def bfs_dist_2d(
    rep: SellCSigma,
    root,
    grid: tuple[int, int],
    machine: Machine,
    network: Network,
    *,
    slimwork: bool = True,
    batch: int | None = None,
    overlap: float = 0.0,
    transpose: bool = False,
    faults: DistFaultModel | DistFaultInjector | None = None,
) -> DistBFSResult | DistBatchResult:
    """Simulate a 2D-distributed BFS-SpMV on an ``(R, C)`` process grid.

    Parameters
    ----------
    rep:
        A built :class:`~repro.formats.slimsell.SlimSell` (or
        :class:`~repro.formats.sell.SellCSigma`) representation.
    root:
        Traversal root in original vertex ids, or a sequence of roots for a
        batched multi-source sweep.
    grid:
        ``(R, C)`` process grid dimensions; both must be ≥ 1.  Grids with
        more cells than chunks are legal (surplus ranks idle).
    machine / network:
        Node and interconnect descriptors for the cost model.
    slimwork:
        Enable §III-C chunk skipping inside each rank's local SpMV.
    batch:
        With a roots sequence: columns per SpMM sweep (``None`` = all roots
        in one sweep); ``batch=1`` reproduces the single-source model per
        root, cost term for cost term.
    overlap:
        Fraction (0..1) of each collective hidden behind the local sweep.
    transpose:
        Charge the direction-optimizing variant's frontier transpose (rank
        (i, j) ↔ (j, i) segment swap) on top of the two collectives.
    faults:
        A :class:`~repro.dist.faults.DistFaultModel` (or a prebuilt
        injector) charging rank failures, stragglers, and
        checkpoint/recovery into ``t_fault_s``; ``None`` charges nothing
        (bit-identical to the fault-free model).

    Returns
    -------
    DistBFSResult | DistBatchResult
        Exact distances plus per-iteration profiles whose iteration count
        and ``newly`` series match the 1D simulation (the global computation
        is identical; only its mapping onto ranks differs).
    """
    R, C_grid = grid
    if R < 1 or C_grid < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {grid!r}")
    overlap = check_overlap(overlap)
    g2d = _Grid2D(rep, grid, network, transpose)
    return simulate(
        rep, root, batch=batch, slimwork=slimwork, faults=faults,
        profile=lambda schedule: _profile_2d(rep, g2d, machine, slimwork,
                                             overlap, schedule),
        kind="dist-2d", ranks=g2d.ranks, machine=machine.name,
        network=network, overlap=overlap)
