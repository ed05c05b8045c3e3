"""Offline capacity planner: serve traffic priced by the distributed model.

The north-star question — *how many ranks on which network sustain X
queries/s at p99 ≤ Y?* — needs both halves of the repo at once: the
serving tier knows how Poisson×Zipf traffic coalesces into (N, B) batches
(batcher, MSHR, cache, FIFO queueing on the virtual clock), and the dist
tier knows what one batched union sweep costs on P ranks of a given
machine over a given interconnect (:func:`repro.dist.bfs1d.profile_1d`,
with PR 7's :class:`~repro.dist.faults.DistFaultModel` charging failures,
checkpoints, and recovery).  This module connects them:

* :class:`SweepCache` — one batched ground-truth sweep over the root pool
  (:func:`repro.bfs.msbfs.batched_levels`): per-root levels, iteration
  counts, and traversal results.  Per-column levels are batch-invariant
  (the repo's pinned msbfs property), so the union schedule of *any*
  dispatched subset of roots can be reconstructed exactly without
  re-running a kernel;
* :class:`DistServiceModel` — a ``roots -> seconds`` callable for
  ``Server(service_model=...)``: reconstructs the dispatched
  batch's union schedule from the cache, profiles it with
  :func:`~repro.dist.bfs1d.profile_1d` (homogeneous or per-rank
  heterogeneous machines), and charges fault overhead through
  :func:`~repro.dist.faults.faulted_profile`.  Bit-identical to
  ``bfs_dist_1d(roots, batch=len(roots))`` sweep for sweep;
* :class:`ReplayEnginePool` — answers queries from the cached traversals
  instead of re-running kernels, so a rank × network × batch × checkpoint
  sweep costs numpy bookkeeping, not thousands of SpMM sweeps;
* :func:`plan_capacity` — the sweep driver: replays one seed-determined
  workload through a real :class:`~repro.serve.server.Server` per
  configuration cell and reports, per (qps, p99) target, every cell's
  modeled latency, the checkpoint interval minimizing p99 at the given
  rank-failure probability, and the cheapest feasible configuration;
* :func:`compare_placement` — the heterogeneous-placement ablation:
  :func:`~repro.dist.partition.machine_weights` drives
  ``Partition1D.balanced(weights=)`` so mixed clusters shift rows off
  weak ranks, verified end to end through the dist models against
  uniform placement.

Everything runs on virtual clocks from seeded streams: a plan is a pure
function of its arguments, so ``BENCH_capacity.json`` regression-gates
exactly (``timing=False`` points).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.msbfs import batched_levels, build_rep
from repro.bfs.result import BFSResult
from repro.dist.bfs1d import machine_label, per_rank_machines, profile_1d
from repro.dist.faults import (
    DistFaultInjector,
    DistFaultModel,
    faulted_profile,
)
from repro.dist.network import Network, get_network
from repro.dist.partition import Partition1D, machine_weights
from repro.dist.result import active_chunk_mask
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.perf.costmodel import BYTES_PER_WORD
from repro.serve.server import Server
from repro.serve.workload import (
    poisson_arrivals,
    run_open_loop,
    sample_zipf_roots,
)
from repro.vec.machine import Machine, get_machine, get_machines

__all__ = [
    "DistServiceModel",
    "ReplayEnginePool",
    "SweepCache",
    "best_configuration",
    "compare_placement",
    "plan_capacity",
]

#: Relative acquisition/operating cost rank of the network presets: a
#: commodity 10 GbE fabric is cheaper than Cray Aries at equal rank count,
#: so feasible configs tie-break toward Ethernet.  Unknown networks rank
#: after both (never preferred on a tie).
NETWORK_COST_RANK = {"ethernet-10g": 0, "cray-aries": 1}


class SweepCache:
    """Per-root ground truth of one pool: levels, iterations, results.

    One :func:`~repro.bfs.msbfs.batched_levels` sweep per batch of unseen
    roots; because per-column levels and iteration logs are invariant
    under batch composition (the msbfs property the oracle pins), the
    cached columns reconstruct the union schedule of any subset exactly
    as :func:`repro.dist.result.batch_schedule` would from a fresh sweep.
    """

    def __init__(self, rep: SellCSigma, *, slimwork: bool = True):
        self.rep = rep
        self.slimwork = slimwork
        self._index: dict[int, int] = {}
        self._levels = np.empty((rep.N, 0))
        self._n_iters = np.empty(0, dtype=np.int64)
        self._newly: list[list[int]] = []
        self._results: list[BFSResult] = []

    def ensure(self, roots) -> None:
        """Sweep any roots not cached yet (one batched run, in order)."""
        fresh: list[int] = []
        for r in np.asarray(roots, dtype=np.int64).ravel():
            r = int(r)
            if r not in self._index and r not in fresh:
                fresh.append(r)
        if not fresh:
            return
        results, levels = batched_levels(
            self.rep, np.asarray(fresh, dtype=np.int64), slimwork=self.slimwork
        )
        for root, res in zip(fresh, results):
            self._index[root] = len(self._results)
            self._results.append(res)
            self._newly.append([int(it.newly) for it in res.iterations])
        self._levels = np.concatenate([self._levels, levels], axis=1)
        self._n_iters = np.concatenate(
            [self._n_iters, [len(r.iterations) for r in results]]
        ).astype(np.int64)

    def result_for(self, root: int) -> BFSResult:
        """The cached traversal of ``root`` (sweeping it if needed)."""
        self.ensure([root])
        return self._results[self._index[int(root)]]

    def schedule_for(self, roots) -> list[tuple[int, int, int, np.ndarray]]:
        """Union iteration schedule ``(k, width, newly, active)`` of one
        batched sweep over ``roots`` — the dist models' profiling input,
        reconstructed from cached columns instead of a fresh kernel run.
        """
        roots = np.asarray(roots, dtype=np.int64).ravel()
        if roots.size == 0:
            raise ValueError("cannot schedule an empty batch")
        self.ensure(roots)
        idx = np.array([self._index[int(r)] for r in roots], dtype=np.int64)
        levels = self._levels[:, idx]
        n_iters = self._n_iters[idx]
        rep = self.rep
        schedule = []
        for k in range(1, int(n_iters.max()) + 1):
            live = np.flatnonzero(n_iters >= k)
            per_col = active_chunk_mask(
                levels[:, live], rep.nc, rep.C, k, self.slimwork
            )
            newly = sum(self._newly[int(idx[b])][k - 1] for b in live)
            schedule.append((k, int(live.size), newly, per_col.any(axis=1)))
        return schedule


class DistServiceModel:
    """``roots -> modeled seconds`` of one batched sweep on a 1D cluster.

    Plugs into ``Server(service_model=...)``: every dispatched
    batch is charged what :func:`repro.dist.bfs1d.bfs_dist_1d` would
    model for the same roots in one sweep — slowest-rank local SpMM at
    the live width per union layer (heterogeneous per-rank machines
    supported), per-layer allgather on ``network``, ``overlap`` hiding,
    and the fault model's straggler/checkpoint/recovery overhead.  One
    :class:`~repro.dist.faults.DistFaultInjector` persists across
    batches, so consecutive dispatches draw from one evolving seeded
    stream (like groups of one ``bfs_dist_1d`` call).
    """

    def __init__(
        self,
        rep: SellCSigma,
        partition: Partition1D,
        machine,
        network: Network,
        *,
        slimwork: bool = True,
        overlap: float = 0.0,
        faults: DistFaultModel | DistFaultInjector | None = None,
        cache: SweepCache | None = None,
    ):
        if cache is not None and (
            cache.rep is not rep or cache.slimwork != slimwork
        ):
            raise ValueError(
                "shared SweepCache must be built on the same rep and "
                "slimwork setting as the service model"
            )
        self.rep = rep
        self.partition = partition
        self.machines = per_rank_machines(machine, partition.ranks)
        self.network = network
        self.slimwork = slimwork
        self.overlap = overlap
        self.injector = (
            faults
            if faults is None or isinstance(faults, DistFaultInjector)
            else DistFaultInjector(faults)
        )
        self.cache = cache if cache is not None else SweepCache(
            rep, slimwork=slimwork
        )
        #: Σ modeled seconds charged across all batches (planner totals).
        self.charged_s = 0.0
        self.batches = 0

    @property
    def label(self) -> str:
        """Report label (machine name, or the heterogeneous list)."""
        return machine_label(self.machines)

    def service_seconds(self, roots) -> float:
        """Modeled seconds of one batched sweep over ``roots``."""
        schedule = self.cache.schedule_for(roots)
        iterations = profile_1d(
            self.rep,
            self.partition,
            self.machines,
            self.network,
            self.slimwork,
            self.overlap,
            schedule,
        )
        iterations = faulted_profile(
            iterations,
            self.injector,
            ranks=self.partition.ranks,
            network=self.network,
            nwords=self.rep.N,
            bytes_per_word=BYTES_PER_WORD,
        )
        total = float(sum(it.t_total_s for it in iterations))
        self.charged_s += total
        self.batches += 1
        return total

    __call__ = service_seconds


class _ReplayEngine:
    """Engine facade over cached traversals: ``run`` never sweeps twice."""

    def __init__(self, cache: SweepCache):
        self.cache = cache

    def run(self, roots) -> list[BFSResult]:
        return [
            self.cache.result_for(int(r))
            for r in np.asarray(roots, dtype=np.int64).ravel()
        ]


class ReplayEnginePool:
    """Drop-in for :class:`~repro.serve.engines.EnginePool` that answers
    from a :class:`SweepCache`.

    The cached per-root results are bit-identical to what any live engine
    would produce (msbfs column invariance, oracle-pinned), so the served
    answers stay exact while a planner cell costs no kernel time.  Only
    the tropical semiring is cached — the planner's workload semiring.
    """

    def __init__(self, cache: SweepCache):
        self._engine = _ReplayEngine(cache)

    def engine_for(self, semiring: str, width: int):
        if semiring != "tropical":
            raise ValueError(
                f"replay pool caches tropical traversals only, "
                f"got semiring {semiring!r}"
            )
        return "replay", self._engine


def _resolve_machines(machine, machines):
    """Normalize the homogeneous/heterogeneous machine arguments."""
    if machines is not None:
        if isinstance(machines, str):
            machines = get_machines(machines)
        machines = [
            get_machine(m) if isinstance(m, str) else m for m in machines
        ]
        return None, machines
    if isinstance(machine, str):
        machine = get_machine(machine)
    return machine, None


def _network_cost(name: str) -> int:
    return NETWORK_COST_RANK.get(name, len(NETWORK_COST_RANK))


def best_configuration(rows: list[dict], target_index: int) -> dict | None:
    """The cheapest feasible grid row for one target (``None`` if none).

    Cost order: fewest ranks first (nodes dominate cost), then the
    cheaper network preset (commodity Ethernet before Aries), then the
    narrower batch, then lower modeled p99.
    """
    feasible = [
        (r, r["per_target"][target_index])
        for r in rows
        if r["per_target"][target_index]["feasible"]
    ]
    if not feasible:
        return None
    row, cell = min(
        feasible,
        key=lambda rc: (
            rc[0]["ranks"],
            _network_cost(rc[0]["network"]),
            rc[0]["max_batch"],
            rc[1]["latency_p99_s"],
        ),
    )
    return {
        "ranks": row["ranks"],
        "network": row["network"],
        "max_batch": row["max_batch"],
        "machine": row["machine"],
        "checkpoint_interval": cell["checkpoint_interval"],
        "latency_p99_s": cell["latency_p99_s"],
        "virtual_throughput_qps": cell["virtual_throughput_qps"],
    }


def _evaluate_cell(
    rep,
    cache: SweepCache,
    partition: Partition1D,
    machine_spec,
    network: Network,
    max_batch: int,
    roots: np.ndarray,
    arrivals: np.ndarray,
    target: tuple[float, float],
    *,
    max_wait: float,
    cache_size: int,
    overlap: float,
    slimwork: bool,
    faults: DistFaultModel | None,
    tracer=None,
) -> dict:
    """Replay one workload through one configuration; report feasibility."""
    qps, p99_target = target
    model = DistServiceModel(
        rep,
        partition,
        machine_spec,
        network,
        slimwork=slimwork,
        overlap=overlap,
        faults=faults,
        cache=cache,
    )
    server = Server(
        rep,
        max_batch=max_batch,
        max_wait=max_wait,
        cache_size=cache_size,
        service_model=model,
        tracer=tracer,
    )
    server.pool = ReplayEnginePool(cache)
    report = run_open_loop(
        server,
        roots,
        arrivals,
        semiring="tropical",
        params={"qps": float(qps)},
    )
    span = float(arrivals[-1] - arrivals[0])
    p99 = report["latency_p99_s"]
    sustained = report["virtual_makespan_s"] <= span + p99_target
    return {
        "qps": float(qps),
        "p99_target_s": float(p99_target),
        "latency_p50_s": report["latency_p50_s"],
        "latency_p99_s": p99,
        "virtual_makespan_s": report["virtual_makespan_s"],
        "virtual_throughput_qps": report["virtual_throughput_qps"],
        "served": report["served"],
        "cache_hits": report["cache_hits"],
        "mshr_hits": report["mshr_hits"],
        "batches": report["batches"],
        "mean_batch_width": report["mean_batch_width"],
        "modeled_service_s": model.charged_s,
        "sustained": bool(sustained),
        "feasible": bool(sustained and p99 <= p99_target),
    }


def plan_capacity(
    graph_or_rep: Graph | SellCSigma,
    targets,
    *,
    ranks=(2, 4, 8),
    networks=("cray-aries", "ethernet-10g"),
    max_batches=(1, 8, 32),
    machine="knl",
    machines=None,
    placement: str = "weighted",
    rank_failure_prob: float = 0.0,
    checkpoint_intervals=(None,),
    nqueries: int = 256,
    root_pool: int = 64,
    zipf: float = 1.1,
    seed: int = 1,
    fault_seed: int = 0,
    max_wait: float = 1e-3,
    overlap: float = 0.0,
    slimwork: bool = True,
    C: int = 16,
    cache: bool = True,
    tracer=None,
) -> dict:
    """Sweep rank count × network × batch width against one workload.

    For every configuration cell and every ``(qps, p99_s)`` target, the
    seed-determined Poisson×Zipf workload is replayed through a real
    :class:`~repro.serve.server.Server` (batching, coalescing, MSHR,
    cache, FIFO queueing — all on the virtual clock) whose batches are
    priced by :class:`DistServiceModel`.  At ``rank_failure_prob > 0``
    each cell additionally sweeps ``checkpoint_intervals`` and keeps the
    interval minimizing modeled p99 — the planner answers capacity
    questions *at* a failure probability, checkpoint policy included.

    Parameters mirror the serve benches; ``machines`` (a per-rank
    descriptor list or ``"knl,knl,knl@0.5"`` spec) switches to a
    heterogeneous plan of exactly ``len(machines)`` ranks, placed by
    :func:`~repro.dist.partition.machine_weights` unless
    ``placement="uniform"``.  ``tracer`` (an optional
    :class:`repro.obs.trace.Tracer`) threads through every cell's replay
    server, so one planner run exports the span trees of every
    configuration it evaluated.

    Returns a JSON-friendly payload: ``grid`` rows (one per cell, with
    ``per_target`` feasibility cells and the per-interval p99 curve) and
    ``targets`` summaries naming the cheapest feasible configuration
    (see :func:`best_configuration`) or ``None``.
    """
    from repro.graph500 import sample_roots

    targets = [(float(q), float(p)) for q, p in targets]
    if not targets:
        raise ValueError("at least one (qps, p99_s) target is required")
    for q, p in targets:
        if not (q > 0 and np.isfinite(q)):
            raise ValueError(f"target qps must be positive finite, got {q}")
        if not p > 0:
            raise ValueError(f"target p99 must be positive, got {p}")
    if placement not in ("weighted", "uniform"):
        raise ValueError(
            f"placement must be 'weighted' or 'uniform', got {placement!r}"
        )
    intervals = list(checkpoint_intervals) or [None]
    if rank_failure_prob == 0.0 and intervals != [None]:
        # Checkpoints without failures are pure premium: the fault-free
        # plan never benefits, so the sweep would waste cells.
        intervals = [None]

    rep = build_rep(graph_or_rep, C, None, slim=True)
    graph = rep.graph_original
    machine_one, machine_list = _resolve_machines(machine, machines)
    if machine_list is not None:
        rank_counts = [len(machine_list)]
        weights = (
            machine_weights(machine_list, rep, slimwork=slimwork)
            if placement == "weighted"
            else None
        )
    else:
        rank_counts = sorted(set(int(r) for r in ranks))
        if any(r < 1 for r in rank_counts):
            raise ValueError(f"rank counts must be >= 1, got {rank_counts}")
        weights = None

    pool = sample_roots(graph, root_pool, seed)
    roots = sample_zipf_roots(pool, nqueries, zipf, seed=seed)
    arrival_streams = {
        qps: poisson_arrivals(nqueries, qps, seed=seed) for qps, _ in targets
    }
    sweep_cache = SweepCache(rep, slimwork=slimwork)
    sweep_cache.ensure(pool)
    cache_size = int(pool.size) if cache else 0

    rows: list[dict] = []
    for P in rank_counts:
        partition = Partition1D.balanced(rep.cl, P, weights=weights)
        machine_spec = (
            machine_list if machine_list is not None else machine_one
        )
        for net_name in networks:
            network = get_network(net_name)
            for B in max_batches:
                per_target = []
                for t_index, target in enumerate(targets):
                    qps = target[0]
                    candidates = []
                    for interval in intervals:
                        faults = None
                        if rank_failure_prob > 0 or interval is not None:
                            faults = DistFaultModel(
                                rank_failure_prob=rank_failure_prob,
                                checkpoint_interval=interval,
                                seed=fault_seed,
                            )
                        cell = _evaluate_cell(
                            rep,
                            sweep_cache,
                            partition,
                            machine_spec,
                            network,
                            B,
                            roots,
                            arrival_streams[qps],
                            target,
                            max_wait=max_wait,
                            cache_size=cache_size,
                            overlap=overlap,
                            slimwork=slimwork,
                            faults=faults,
                            tracer=tracer,
                        )
                        cell["checkpoint_interval"] = interval
                        candidates.append(cell)
                    best = min(
                        candidates, key=lambda c: c["latency_p99_s"]
                    )
                    best["interval_p99_s"] = {
                        "never" if c["checkpoint_interval"] is None
                        else str(c["checkpoint_interval"]): c["latency_p99_s"]
                        for c in candidates
                    }
                    per_target.append(best)
                rows.append({
                    "ranks": int(P),
                    "network": net_name,
                    "max_batch": int(B),
                    "machine": machine_label(
                        machine_spec
                        if machine_list is None
                        else machine_list
                    ),
                    "placement": (
                        placement if machine_list is not None else "uniform"
                    ),
                    "per_target": per_target,
                })

    target_reports = []
    for t_index, (qps, p99) in enumerate(targets):
        feasible = sum(
            1 for r in rows if r["per_target"][t_index]["feasible"]
        )
        target_reports.append({
            "qps": qps,
            "p99_target_s": p99,
            "feasible_configs": feasible,
            "best": best_configuration(rows, t_index),
        })

    return {
        "workload": {
            "n": graph.n,
            "m": graph.m,
            "nqueries": int(nqueries),
            "root_pool": int(pool.size),
            "zipf": float(zipf),
            "seed": int(seed),
            "fault_seed": int(fault_seed),
            "C": int(rep.C),
            "semiring": "tropical",
            "max_wait": float(max_wait),
            "overlap": float(overlap),
            "slimwork": bool(slimwork),
            "cache_size": cache_size,
            "rank_failure_prob": float(rank_failure_prob),
            "checkpoint_intervals": [
                "never" if i is None else int(i) for i in intervals
            ],
        },
        "grid": rows,
        "targets": target_reports,
        "deterministic": True,
    }


def compare_placement(
    graph_or_rep: Graph | SellCSigma,
    machines,
    *,
    network: str = "cray-aries",
    max_batch: int = 8,
    target=(2000.0, 0.05),
    nqueries: int = 192,
    root_pool: int = 48,
    zipf: float = 1.1,
    seed: int = 1,
    max_wait: float = 1e-3,
    slimwork: bool = True,
    C: int = 16,
) -> dict:
    """Weighted vs uniform placement on a heterogeneous cluster, end to
    end through the dist models.

    Two probes of the same mixed cluster: (a) one direct
    ``bfs_dist_1d``-equivalent batched sweep over the root pool, and
    (b) a full serve replay at ``target`` — both under
    :func:`~repro.dist.partition.machine_weights` placement and under
    uniform bands.  On a skewed cluster the weighted bands move rows off
    the weak ranks, so both the modeled sweep total and the served p99
    must come out strictly better (the bench and tests pin this).
    """
    from repro.graph500 import sample_roots

    rep = build_rep(graph_or_rep, C, None, slim=True)
    if isinstance(machines, str):
        machines = get_machines(machines)
    machines = [get_machine(m) if isinstance(m, str) else m for m in machines]
    net = get_network(network)
    pool = sample_roots(rep.graph_original, root_pool, seed)
    cache = SweepCache(rep, slimwork=slimwork)
    cache.ensure(pool)
    weights = machine_weights(machines, rep, slimwork=slimwork)
    out: dict = {
        "machines": [m.name for m in machines],
        "network": net.name,
        "max_batch": int(max_batch),
        "weights": [float(w) for w in weights],
    }
    for label, w in (("weighted", weights), ("uniform", None)):
        partition = Partition1D.balanced(rep.cl, len(machines), weights=w)
        model = DistServiceModel(
            rep, partition, machines, net, slimwork=slimwork, cache=cache
        )
        sweep_s = model.service_seconds(pool)
        qps, p99_target = float(target[0]), float(target[1])
        cell = _evaluate_cell(
            rep,
            cache,
            partition,
            machines,
            net,
            max_batch,
            sample_zipf_roots(pool, nqueries, zipf, seed=seed),
            poisson_arrivals(nqueries, qps, seed=seed),
            (qps, p99_target),
            max_wait=max_wait,
            cache_size=int(pool.size),
            overlap=0.0,
            slimwork=slimwork,
            faults=None,
        )
        out[label] = {
            "pool_sweep_s": sweep_s,
            "latency_p99_s": cell["latency_p99_s"],
            "latency_p50_s": cell["latency_p50_s"],
            "feasible": cell["feasible"],
            "work_per_rank": [
                int(x) for x in partition.work_per_rank(rep.cl)
            ],
        }
    out["p99_improvement"] = (
        out["uniform"]["latency_p99_s"] / out["weighted"]["latency_p99_s"]
        if out["weighted"]["latency_p99_s"] > 0
        else float("inf")
    )
    out["sweep_improvement"] = (
        out["uniform"]["pool_sweep_s"] / out["weighted"]["pool_sweep_s"]
    )
    return out
