"""1D-decomposed distributed BFS over SlimSell (§VI; cf. [9]'s 1D variant).

Each rank owns a band of chunks (C-row blocks of the permuted matrix) and
the matching slice of every vector.  An iteration is

1. **local SpMV** — the rank's chunks, exactly the single-node SlimSell
   kernel with SlimWork chunk skipping; all ranks wait for the slowest
   (modeled with the vector-ISA cost model on the node descriptor);
2. **frontier allgather** — every rank receives the full N-word frontier
   (4·N bytes), modeled with the interconnect's allgather cost.

This is the classic 1D-BFS scaling story the benchmark regenerates: local
work shrinks ≈ 1/P while the allgather result is P-independent, so the
communication share grows with P — the motivation for the 2D decomposition
in :mod:`repro.dist.bfs2d`.

Batched traversals (``roots`` a sequence, optionally chopped into groups of
``batch`` columns) run the multi-source SpMM sweep instead: the local term
models the union-of-columns chunk activity at the live width, and the
allgather ships one union value vector plus per-column bitmaps
(:func:`repro.dist.network.batched_frontier_bytes`) — once per layer, so
the α·log2(P) latency amortizes across the batch.  ``overlap`` hides that
fraction of every collective behind the local compute.

This module supplies only the 1D mapping, :func:`profile_1d`;
:func:`bfs_dist_1d` checks its partition and hands that profile to the one
driver both decompositions share (:func:`repro.dist.result.simulate`).
"""

from __future__ import annotations

import math

from repro.dist.faults import DistFaultInjector, DistFaultModel
from repro.dist.network import (
    Network,
    batched_frontier_bytes,
    model_allgather,
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

__all__ = ["bfs_dist_1d", "machine_label", "per_rank_machines", "profile_1d"]


def per_rank_machines(machine, ranks: int) -> list[Machine]:
    """Normalize a node descriptor spec to one :class:`Machine` per rank.

    A single :class:`Machine` models a homogeneous cluster (every rank on
    the same descriptor); a sequence models a heterogeneous one — rank
    ``r`` runs on ``machine[r]``, so its length must equal ``ranks``.
    """
    if isinstance(machine, Machine):
        return [machine] * ranks
    machines = list(machine)
    if len(machines) != ranks:
        raise ValueError(
            f"heterogeneous machine list has {len(machines)} entries "
            f"but the partition has {ranks} ranks")
    return machines


def machine_label(machine) -> str:
    """Report label of a machine spec: one name, or the per-rank list."""
    if isinstance(machine, Machine):
        return machine.name
    names = [m.name for m in machine]
    if len(set(names)) == 1:
        return names[0]
    return "+".join(names)


def profile_1d(rep: SellCSigma, partition: Partition1D, machine,
               network: Network, slimwork: bool, overlap: float,
               schedule) -> list[DistIterationStats]:
    """Map a union iteration schedule onto 1D ranks and the wire.

    ``machine`` is a single :class:`Machine` (homogeneous ranks) or a
    per-rank sequence (heterogeneous cluster: the barrier waits for the
    slowest rank *on its own descriptor*, which is what weighted
    placement exists to rebalance).  This is the profiling seam the
    capacity planner (:mod:`repro.serve.plan`) charges batches through.
    """
    ranks = partition.ranks
    machines = per_rank_machines(machine, ranks)
    semiring = get_semiring("tropical")
    slim = not rep.has_val
    owned = partition.counts_per_rank()
    latency = 0.0 if ranks == 1 else math.log2(ranks) * network.latency_s
    iterations: list[DistIterationStats] = []
    for k, width, newly, active in schedule:
        processed = partition.counts_per_rank(active)
        layers = partition.sum_by_rank(rep.cl, active)
        rank_lanes = layers * rep.C
        t_local = max(
            modeled_local_seconds(machines[r], semiring, rep.C, slim,
                                  int(processed[r]),
                                  int(owned[r] - processed[r]),
                                  int(layers[r]), slimwork, batch=width)
            for r in range(ranks))
        # Each rank receives the whole frontier: one dense union value
        # vector plus, for batches, a membership bitmap per column.
        comm_bytes = (0 if ranks == 1
                      else batched_frontier_bytes(rep.N, width,
                                                  BYTES_PER_WORD))
        t_comm = model_allgather(network, ranks, comm_bytes)
        iterations.append(DistIterationStats(
            k=k, newly=newly, t_local_s=t_local, t_comm_s=t_comm,
            comm_bytes=comm_bytes, imbalance=work_imbalance(rank_lanes),
            rank_lanes=rank_lanes, chunks_active=int(active.sum()),
            width=width, overlap=overlap,
            comm_latency_s=0.0 if ranks == 1 else latency,
        ))
    return iterations


def bfs_dist_1d(
    rep: SellCSigma,
    root,
    partition: Partition1D,
    machine: Machine | list[Machine] | tuple[Machine, ...],
    network: Network,
    *,
    slimwork: bool = True,
    batch: int | None = None,
    overlap: float = 0.0,
    faults: DistFaultModel | DistFaultInjector | None = None,
) -> DistBFSResult | DistBatchResult:
    """Simulate a 1D-distributed BFS-SpMV from ``root`` (original ids).

    Parameters
    ----------
    rep:
        A built :class:`~repro.formats.slimsell.SlimSell` (or
        :class:`~repro.formats.sell.SellCSigma`) representation.
    root:
        Traversal root in original vertex ids, or a sequence of roots for a
        batched multi-source sweep.
    partition:
        Chunk → rank assignment; must cover all ``rep.nc`` chunks.
    machine:
        Node descriptor used to model each rank's local SpMV, or a
        per-rank sequence of descriptors (one entry per partition rank)
        modeling a heterogeneous cluster — each iteration's barrier then
        waits for the slowest rank *on its own machine*.  Pair with
        ``Partition1D.balanced(weights=machine_weights(...))`` so weak
        ranks own proportionally less work.
    network:
        Interconnect descriptor used to model the frontier allgather.
    slimwork:
        Enable §III-C chunk skipping inside each rank's local SpMV.
    batch:
        With a roots sequence: columns per SpMM sweep (``None`` = all roots
        in one sweep; groups run back to back).  ``batch=1`` reproduces the
        single-source model per root, cost term for cost term.
    overlap:
        Fraction (0..1) of each collective hidden behind the local SpMV;
        0 is the bulk-synchronous seed model.
    faults:
        A :class:`~repro.dist.faults.DistFaultModel` (or a prebuilt
        injector) charging rank failures, stragglers, and
        checkpoint/recovery into the per-iteration ``t_fault_s``.
        ``None`` (default) charges nothing and creates no rng — modeled
        times are bit-identical to the fault-free model.

    Returns
    -------
    DistBFSResult | DistBatchResult
        Exact distances (bit-identical to the single-node run) plus the
        per-iteration profile: slowest-rank local time, allgather time,
        bytes moved, per-rank work lanes, and work imbalance.  A scalar
        ``root`` yields :class:`DistBFSResult`; a sequence yields the
        batched container.
    """
    if partition.nchunks != rep.nc:
        raise ValueError(
            f"partition covers {partition.nchunks} chunks but the "
            f"representation has {rep.nc}; the partition must cover every chunk")
    overlap = check_overlap(overlap)
    return simulate(
        rep, root, batch=batch, slimwork=slimwork, faults=faults,
        profile=lambda schedule: profile_1d(rep, partition, machine, network,
                                            slimwork, overlap, schedule),
        kind="dist-1d", ranks=partition.ranks, machine=machine_label(machine),
        network=network, overlap=overlap)
