"""Distributed-memory BFS simulation (§VI "Scaling to Distributed Memory").

The paper's §VI observes that SlimSell composes with the classic
Graph500 / Combinatorial-BLAS distributed BFS formulations: partition the
chunked matrix across P ranks, run the local SlimSell SpMV on each rank,
and allgather the frontier between iterations.  This package simulates
that execution the same way :mod:`repro.perf` simulates a single node —
exact distances come from the real single-node engine, while per-rank
compute is modeled with the vector-ISA cost model and inter-node traffic
with an allgather latency/bandwidth model.

Both decompositions take either one root (the seed's single-traversal
simulation, unchanged cost term for cost term) or a sequence of roots with
``batch=``/``overlap=`` knobs: the batched path reuses the multi-source
SpMM sweep of :mod:`repro.bfs.msbfs` for the local term and charges each
collective once per layer for the whole batch, which is the §VI scaling
question — how much allgather latency and volume a B-wide frontier
amortizes on Aries vs commodity Ethernet.

Modules
-------
``partition``  1D chunk-to-rank partitions (naive blocks / work-balanced)
``network``    interconnect descriptors + allgather / reduce-scatter /
               transpose / checkpoint cost models and the
               batched-frontier payload
``bfs1d``      1D row decomposition (frontier allgather over all ranks)
``bfs2d``      2D (R, C) grid decomposition (column allgather + row
               reduce-scatter, optional direction-optimizing transpose)
``faults``     seed-deterministic rank-failure/straggler injection with
               checkpoint-interval vs recompute-from-root recovery cost
``calibrate``  fit the machine/network descriptors to the *executed*
               parallel backend's measured layer times (:mod:`repro.exec`)
``result``     per-iteration profile, result containers and the one
               simulation driver both decompositions share
"""

from repro.dist.bfs1d import bfs_dist_1d, profile_1d
from repro.dist.bfs2d import bfs_dist_2d
from repro.dist.calibrate import (
    CalibrationIteration,
    CalibrationReport,
    calibrate,
)
from repro.dist.faults import (
    DistFaultInjector,
    DistFaultModel,
    apply_dist_faults,
)
from repro.dist.network import (
    CRAY_ARIES,
    ETHERNET_10G,
    NETWORKS,
    Network,
    batched_frontier_bytes,
    get_network,
    model_allgather,
    model_checkpoint,
    model_reduce_scatter,
    model_transpose,
)
from repro.dist.partition import Partition1D, machine_weights
from repro.dist.result import DistBatchResult, DistBFSResult, DistIterationStats

__all__ = [
    "bfs_dist_1d",
    "bfs_dist_2d",
    "CalibrationIteration",
    "CalibrationReport",
    "calibrate",
    "Partition1D",
    "Network",
    "NETWORKS",
    "CRAY_ARIES",
    "ETHERNET_10G",
    "batched_frontier_bytes",
    "get_network",
    "model_allgather",
    "model_checkpoint",
    "model_reduce_scatter",
    "model_transpose",
    "DistBatchResult",
    "DistBFSResult",
    "DistFaultInjector",
    "DistFaultModel",
    "DistIterationStats",
    "apply_dist_faults",
    "machine_weights",
    "profile_1d",
]
