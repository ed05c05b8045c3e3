"""Result containers and the shared simulation core of the dist subsystem.

Both decompositions execute the *same global computation* as the single-node
layer engine (the decomposition only changes who computes which chunk and
what travels over the wire), so the simulation runs the real engine once for
ground-truth distances and wall clock, then reconstructs each iteration's
SlimWork chunk-activity analytically from the final BFS levels: a lane is
settled before iteration k iff its level is ≤ k−1 (tropical semantics —
padding lanes stay ∞ and therefore never let their chunk be skipped, exactly
as in :meth:`repro.semirings.tropical.TropicalSemiring.settled_lanes`).

Batched traversals generalize both halves: the ground truth comes from one
:class:`repro.bfs.msbfs.MultiSourceBFS` SpMM sweep (bit-identical per column
to the single-source engine), and the per-iteration activity is the *union*
of the per-column reconstructions over the columns still live — the set a
real batched rank would have to process.  :func:`batch_schedule` yields that
union schedule.

:func:`simulate` is the one driver of both decompositions.  Each supplies
only its ``profile`` callback (schedule → :class:`DistIterationStats` list:
the mapping onto ranks and wires), its rank count and its labels; the driver
owns the root dispatch and checks, the fault model and result assembly.
"""

from __future__ import annotations

import time

import numpy as np

from dataclasses import dataclass, field

from repro.bfs.msbfs import batched_levels, chunk_mask, validate_roots
from repro.dist.network import Network
from repro.formats.sell import SellCSigma
from repro.perf.costmodel import BYTES_PER_WORD
from repro.semirings.base import SemiringBFS
from repro.vec.machine import Machine

__all__ = ["DistIterationStats", "DistBFSResult", "DistBatchResult"]


@dataclass
class DistIterationStats:
    """Profile of one distributed BFS iteration (frontier expansion).

    Attributes
    ----------
    k:
        Iteration number (1-based), as in :class:`repro.bfs.result.IterationStats`.
    newly:
        Vertices settled this iteration (identical to the single-node run).
    t_local_s:
        Modeled seconds of the slowest rank's local SpMV (the barrier time).
    t_comm_s:
        Modeled seconds of the frontier exchange collectives.
    comm_bytes:
        Bytes of collective result received per rank this iteration.
    imbalance:
        max/mean of per-rank work lanes (1.0 = perfectly balanced).
    rank_lanes:
        int64[P]; padded SpMV lanes (Σ cl·C over processed chunks) per rank.
    chunks_active:
        Chunks processed globally (SlimWork skips fully-settled chunks).
    width:
        Frontier columns still live this iteration (1 for single-source).
    overlap:
        Fraction of ``t_comm_s`` the runtime may hide behind the local SpMV
        (0 = bulk-synchronous, the seed model; 1 = perfect overlap).
    comm_latency_s:
        The α (per-hop latency) share of ``t_comm_s`` — the term a batch
        amortizes by paying each collective once per layer.
    t_fault_s:
        Modeled resilience overhead charged to this iteration by a
        :class:`~repro.dist.faults.DistFaultModel`: straggler slowdown,
        checkpoint writes, and recovery (checkpoint read-back + replayed
        layers) after a rank failure.  0.0 without a fault model.
    """

    k: int
    newly: int
    t_local_s: float
    t_comm_s: float
    comm_bytes: int
    imbalance: float
    rank_lanes: np.ndarray
    chunks_active: int = 0
    width: int = 1
    overlap: float = 0.0
    comm_latency_s: float = 0.0
    t_fault_s: float = 0.0

    @property
    def t_comm_visible_s(self) -> float:
        """Communication seconds left on the critical path after overlap.

        The ``overlap`` fraction of the collective runs concurrently with
        the local SpMV, so it is hidden only insofar as ``t_local_s`` is
        long enough to cover it; the rest is exposed.  ``overlap=0``
        reproduces the bulk-synchronous seed model exactly.
        """
        hidden = min(self.overlap * self.t_comm_s, self.t_local_s)
        return self.t_comm_s - hidden

    @property
    def t_base_s(self) -> float:
        """Fault-free iteration time: compute barrier + exposed collective.

        The quantity a recovery replays (re-executing a layer repeats its
        compute and collectives, not the one-off fault charge that caused
        the replay).
        """
        return self.t_local_s + self.t_comm_visible_s

    @property
    def t_total_s(self) -> float:
        """Modeled iteration time: compute + exposed comm + fault overhead."""
        return self.t_base_s + self.t_fault_s


class _IterationTotals:
    """The totals both result containers derive from their ``iterations``."""

    @property
    def n_iterations(self) -> int:
        """Iterations executed (for a batch: union iterations, all groups)."""
        return len(self.iterations)

    @property
    def modeled_total_s(self) -> float:
        """Modeled end-to-end seconds: Σ per-iteration (local + exposed comm)."""
        return float(sum(it.t_total_s for it in self.iterations))

    @property
    def total_comm_bytes(self) -> int:
        """Total collective bytes received per rank across all iterations."""
        return int(sum(it.comm_bytes for it in self.iterations))

    @property
    def comm_fraction(self) -> float:
        """Communication share of the modeled total (0 when nothing is modeled)."""
        total = self.modeled_total_s
        if total <= 0.0:
            return 0.0
        return float(sum(it.t_comm_visible_s for it in self.iterations)) / total

    @property
    def fault_overhead_s(self) -> float:
        """Σ modeled resilience overhead (0.0 without a fault model)."""
        return float(sum(it.t_fault_s for it in self.iterations))


@dataclass
class DistBFSResult(_IterationTotals):
    """Outcome of one simulated distributed BFS traversal.

    Attributes
    ----------
    dist:
        float64[n]; hop distances in original vertex ids (``inf`` unreached).
    root:
        Traversal root (original ids).
    method:
        Provenance label (``"dist-1d"`` / ``"dist-2d"``, ``+slimwork``).
    ranks:
        Total number of simulated ranks.
    machine / network:
        Names of the node and interconnect descriptors used by the model.
    iterations:
        Per-iteration profiles, in order.
    wall_time_s:
        Wall clock of the simulation itself (the real local computation).
    """

    dist: np.ndarray
    root: int
    method: str
    ranks: int
    machine: str
    network: str
    iterations: list[DistIterationStats] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def reached(self) -> int:
        """Vertices reached (finite distance)."""
        return int(np.isfinite(self.dist).sum())


@dataclass
class DistBatchResult(_IterationTotals):
    """Outcome of one simulated batched (multi-source) distributed sweep.

    One :class:`DistIterationStats` per *union* iteration: the collective is
    charged once per layer for all live columns, and the local term models
    the SpMM over the union of the per-column active chunks.  Groups (when
    ``batch`` caps the sweep width below the root count) run back to back;
    their iteration profiles are concatenated in order.

    Attributes
    ----------
    dists:
        float64[B, n]; per-source hop distances in original vertex ids,
        bit-identical to ``B`` single-source runs.
    roots:
        int64[B]; traversal roots in input order.
    method:
        Provenance label (``"dist-1d"`` / ``"dist-2d"``, ``+slimwork``).
    ranks / machine / network:
        As in :class:`DistBFSResult`.
    batch:
        Maximum sweep width (columns per group); ``B`` when unbounded.
    overlap:
        The communication/computation overlap knob the model was run with.
    groups:
        Number of consecutive sweeps the roots were chopped into.
    iterations:
        Union-iteration profiles of every group, concatenated.
    wall_time_s:
        Wall clock of the simulation itself (the real batched sweeps).
    """

    dists: np.ndarray
    roots: np.ndarray
    method: str
    ranks: int
    machine: str
    network: str
    batch: int
    overlap: float
    groups: int
    iterations: list[DistIterationStats] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def n_sources(self) -> int:
        """Number of traversals simulated (frontier columns)."""
        return int(self.roots.size)

    @property
    def reached(self) -> np.ndarray:
        """int64[B]; vertices reached (finite distance) per source."""
        return np.isfinite(self.dists).sum(axis=1)

    @property
    def modeled_per_source_s(self) -> float:
        """Amortized modeled seconds per traversal — the batching headline."""
        return self.modeled_total_s / self.n_sources

    @property
    def total_comm_latency_s(self) -> float:
        """Σ α terms — the per-layer latency the batch pays once per sweep."""
        return float(sum(it.comm_latency_s for it in self.iterations))


# ----------------------------------------------------------------------
# Shared simulation core
# ----------------------------------------------------------------------

def run_global_bfs(rep: SellCSigma, root: int, slimwork: bool):
    """Run the real single-node engine once; return ``(result, levels)``.

    ``levels`` is the distance vector in the representation's permuted,
    padded id space (length N; padding lanes are ∞), from which each
    iteration's settled-lane state can be reconstructed exactly.
    """
    from repro.bfs.spmv import BFSSpMV

    res = BFSSpMV(rep, "tropical", slimwork=slimwork, engine="layer",
                  compute_parents=False).run(root)
    levels = np.full(rep.N, np.inf)
    levels[rep.perm] = res.dist
    return res, levels


def active_chunk_mask(levels: np.ndarray, nc: int, C: int, k: int,
                      slimwork: bool) -> np.ndarray:
    """Bool[nc] (or bool[nc, W]): chunks processed in iteration ``k``.

    Without SlimWork every chunk is processed; with it, a chunk is skipped
    iff all of its lanes settled in iterations < k (level ≤ k−1).  A 2-D
    ``levels`` of shape (N, W) — one column per batched source — yields the
    per-column decision matrix; ``k`` is 1-based either way.
    """
    if not slimwork:
        return np.ones((nc,) + levels.shape[1:], dtype=bool)
    return chunk_mask(levels <= k - 1, C)


def modeled_local_seconds(machine: Machine, semiring: SemiringBFS, C: int,
                          slim: bool, processed_chunks: int,
                          skipped_chunks: int, processed_layers: int,
                          slimwork: bool, batch: int = 1) -> float:
    """Model one rank's local SpMV/SpMM share on ``machine`` via the cost model.

    ``batch`` is the number of live frontier columns the rank carries
    through its chunks: the ``col``/``val`` operand streams are charged once
    per layer while gathers and semiring compute scale with the width
    (:func:`repro.bfs.spmv.synthesize_counters`); ``batch=1`` reproduces the
    single-source model exactly.
    """
    from repro.bfs.spmv import synthesize_counters
    from repro.perf.costmodel import model_vector_iteration

    counters = synthesize_counters(semiring, C, slim, processed_chunks,
                                   skipped_chunks, processed_layers, slimwork,
                                   batch=batch)
    return model_vector_iteration(machine, counters).t_total


def check_overlap(overlap: float) -> float:
    """Validate the communication/computation overlap knob (0 ≤ f ≤ 1)."""
    overlap = float(overlap)
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    return overlap


def group_widths(nroots: int, batch: int | None) -> list[int]:
    """Column counts of the consecutive sweeps ``batch`` chops roots into."""
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1 or None, got {batch}")
    if batch is None or batch >= nroots:
        return [nroots]
    return [min(batch, nroots - i) for i in range(0, nroots, batch)]


def batch_schedule(rep: SellCSigma, roots, slimwork: bool):
    """Union iteration schedule of one batched sweep: the dist ground truth.

    Runs the real batched engine once (:func:`repro.bfs.msbfs.batched_levels`
    — bit-identical per column to the single-source layer engine), then
    yields, per union iteration ``k`` while any column is live::

        (k, width, newly, active)

    where ``width`` is the number of live columns, ``newly`` the vertices
    settled across them, and ``active`` the bool[nc] union of the per-column
    SlimWork chunk decisions — what a batched rank actually processes.
    Returns ``(dists, schedule)`` with ``dists`` of shape (B, n).
    """
    results, levels = batched_levels(rep, roots, slimwork=slimwork)
    schedule = union_schedule(rep, results, levels, slimwork)
    return np.stack([r.dist for r in results]), schedule


def union_schedule(rep: SellCSigma, results, levels: np.ndarray,
                   slimwork: bool) -> list[tuple[int, int, int, np.ndarray]]:
    """The ``(k, width, newly, active)`` schedule of :func:`batch_schedule`.

    ``results`` and their padded level columns ``levels`` (N, B) may come
    from one fresh sweep or from columns cached from earlier sweeps.
    """
    n_iters = np.array([len(r.iterations) for r in results], dtype=np.int64)
    schedule = []
    for k in range(1, int(n_iters.max()) + 1):
        live = np.flatnonzero(n_iters >= k)
        per_col = active_chunk_mask(levels[:, live], rep.nc, rep.C, k,
                                    slimwork)
        newly = sum(int(results[b].iterations[k - 1].newly) for b in live)
        schedule.append((k, int(live.size), newly, per_col.any(axis=1)))
    return schedule


def simulate_batched(rep: SellCSigma, roots, *, batch: int | None,
                     slimwork: bool, profile, method: str, ranks: int,
                     machine: str, network: str,
                     overlap: float) -> DistBatchResult:
    """The batched half of :func:`simulate`.

    Checks ``roots``, chops them into groups of ``batch`` columns, runs one
    :func:`batch_schedule` sweep per group, and hands each group's union
    schedule to the decomposition-specific ``profile`` callback
    (``schedule -> list[DistIterationStats]``); everything else — grouping,
    distance assembly, the result container — is decomposition-independent.
    """
    t0 = time.perf_counter()
    roots = validate_roots(rep, roots)
    widths = group_widths(roots.size, batch)
    iterations: list[DistIterationStats] = []
    dists = []
    start = 0
    for w in widths:
        group = roots[start:start + w]
        start += w
        group_dists, schedule = batch_schedule(rep, group, slimwork)
        dists.append(group_dists)
        iterations.extend(profile(schedule))
    return DistBatchResult(
        dists=np.concatenate(dists), roots=roots, method=method, ranks=ranks,
        machine=machine, network=network, batch=max(widths), overlap=overlap,
        groups=len(widths), iterations=iterations,
        wall_time_s=time.perf_counter() - t0,
    )


def simulate(rep: SellCSigma, root, *, batch: int | None, slimwork: bool,
             faults, profile, kind: str, ranks: int, machine: str,
             network: Network,
             overlap: float) -> DistBFSResult | DistBatchResult:
    """The one driver of both decompositions.

    A root sequence runs :func:`simulate_batched`; a scalar root runs the
    real single-source engine once (:func:`run_global_bfs`) and profiles
    the schedule of that run's own iteration log.  Every profiled sweep
    passes through :func:`~repro.dist.faults.faulted_profile` with one
    injector for the whole call, so a batched sweep's groups draw from the
    same evolving stream instead of replaying the seed per group.
    ``profile`` (``schedule -> list[DistIterationStats]``), ``ranks`` and the
    ``machine`` label are the decomposition's; ``kind`` (``"dist-1d"`` or
    ``"dist-2d"``) gains ``+slimwork`` in the result's ``method``.
    """
    # Imported here: repro.dist.faults imports this module.
    from repro.dist.faults import fault_injector, faulted_profile

    injector = fault_injector(faults)

    def faulted(schedule) -> list[DistIterationStats]:
        return faulted_profile(profile(schedule), injector, ranks=ranks,
                               network=network, nwords=rep.N,
                               bytes_per_word=BYTES_PER_WORD)

    method = kind + ("+slimwork" if slimwork else "")
    if np.ndim(root) != 0:
        return simulate_batched(
            rep, root, batch=batch, slimwork=slimwork, profile=faulted,
            method=method, ranks=ranks, machine=machine,
            network=network.name, overlap=overlap)
    if batch is not None and batch != 1:
        raise ValueError("batch= requires a sequence of roots; "
                         "pass root=[...] for a multi-source sweep")
    if not 0 <= root < rep.n:
        raise ValueError(f"root {root} out of range [0, {rep.n})")
    t0 = time.perf_counter()
    res, levels = run_global_bfs(rep, root, slimwork)
    schedule = [
        (it.k, 1, it.newly,
         active_chunk_mask(levels, rep.nc, rep.C, it.k, slimwork))
        for it in res.iterations
    ]
    return DistBFSResult(
        dist=res.dist, root=root, method=method, ranks=ranks,
        machine=machine, network=network.name, iterations=faulted(schedule),
        wall_time_s=time.perf_counter() - t0,
    )


def work_imbalance(rank_lanes: np.ndarray) -> float:
    """max/mean per-rank work; 1.0 for idle iterations (nothing to balance)."""
    total = int(rank_lanes.sum())
    if total == 0:
        return 1.0
    return float(rank_lanes.max()) * rank_lanes.size / total
