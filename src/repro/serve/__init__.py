"""Serving layer: adaptive micro-batching of single-root graph queries.

The batched engines (``repro.bfs.msbfs`` / ``repro.bfs.mshybrid``) only
pay off at width — one (N, B) SpMM sweep is ~B× cheaper per source than B
single-source sweeps — but real traffic arrives as independent
single-root queries.  This subsystem is the layer between the two:

* :class:`~repro.serve.query.Query` /
  :class:`~repro.serve.query.Ticket` — single-root requests (BFS
  distances, connectivity membership, Graph500-style validation) and
  their pending handles;
* :class:`~repro.serve.batcher.QueryBatcher` — groups pending frontier
  columns, one per MSHR entry, into (N, B) batches on a width
  (``max_batch``) or deadline (``max_wait``) trigger;
* :class:`~repro.serve.cache.ResultCache` — bounded LRU keyed on
  (epoch, semiring, root), consulted before enqueue; results commit at
  their batch's virtual completion time, never at dispatch;
* :class:`~repro.serve.mshr.MissStatusRegistry` — the MSHR, the one
  place duplicates are found: misses on a root that is already pending
  or in flight attach as waiters on the outstanding traversal (one
  frontier column no matter how many users or query kinds), and
  ``Server.invalidate()`` bumps the epoch for O(1) invalidation;
* :class:`~repro.serve.server.Server` — the synchronous driver
  (``submit()`` / ``drain()``) with backpressure and latency/throughput
  accounting, plus :class:`~repro.serve.server.AsyncServer`, the asyncio
  front-end awaiting per-query futures;
* :class:`~repro.serve.engines.EnginePool` — width-driven engine
  selection (direction-optimizing hybrid for narrow batches, all-pull
  SpMM for wide ones, split at ``hybrid_max_width``);
* :mod:`~repro.serve.workload` — closed-loop and open-loop (Poisson
  arrivals, Zipfian roots) generators driving the server on a virtual
  arrival clock;
* :mod:`~repro.serve.plan` — the offline capacity planner: replays the
  open-loop workload through the server while each dispatched batch is
  priced by the §VI distributed models
  (:class:`~repro.serve.plan.DistServiceModel`), sweeping rank count ×
  network × batch width × checkpoint interval to the cheapest feasible
  configuration per (qps, p99) target
  (:func:`~repro.serve.plan.plan_capacity`), with
  heterogeneous-placement ablation
  (:func:`~repro.serve.plan.compare_placement`).

* :mod:`~repro.serve.faults` — the failure surface: seed-driven
  :class:`~repro.serve.faults.FaultPlan` /
  :class:`~repro.serve.faults.FaultInjector` (kernel exceptions,
  stragglers, cache flakiness on the virtual clock) and the
  :class:`~repro.serve.faults.CircuitBreaker` behind graceful
  degradation — per-query deadlines (``TimedOut``), batch-level retry
  with exponential backoff, load shedding, and stale serves.

Served answers are bit-identical to direct engine calls — the serving
path is registered in the cross-engine differential oracle
(``tests/engines.py``) next to the engines themselves.
"""

from repro.serve.batcher import Batch, QueryBatcher
from repro.serve.cache import CacheStats, ResultCache, graph_fingerprint
from repro.serve.engines import EnginePool, default_strategy
from repro.serve.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    KernelFault,
    PermanentKernelFault,
    TransientKernelFault,
)
from repro.serve.mshr import MissStatusRegistry, MSHREntry, MSHRStats
from repro.serve.plan import (
    DistServiceModel,
    ReplayEnginePool,
    SweepCache,
    best_configuration,
    compare_placement,
    plan_capacity,
)
from repro.serve.query import (
    Failed,
    Query,
    QueryResult,
    Rejected,
    Ticket,
    TimedOut,
)
from repro.serve.server import AsyncServer, ServeStats, Server
from repro.serve.workload import (
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
    sample_zipf_roots,
    zipf_weights,
)

__all__ = [
    "AsyncServer",
    "Batch",
    "CacheStats",
    "CircuitBreaker",
    "DistServiceModel",
    "EnginePool",
    "Failed",
    "FaultInjector",
    "FaultPlan",
    "KernelFault",
    "MSHREntry",
    "MSHRStats",
    "MissStatusRegistry",
    "PermanentKernelFault",
    "Query",
    "QueryBatcher",
    "QueryResult",
    "Rejected",
    "ReplayEnginePool",
    "ResultCache",
    "ServeStats",
    "Server",
    "SweepCache",
    "Ticket",
    "TimedOut",
    "TransientKernelFault",
    "best_configuration",
    "compare_placement",
    "default_strategy",
    "graph_fingerprint",
    "plan_capacity",
    "poisson_arrivals",
    "run_closed_loop",
    "run_open_loop",
    "sample_zipf_roots",
    "zipf_weights",
]
