"""Rank failures, stragglers, and checkpoint/recovery for the dist model.

At the scale the paper's machine descriptors target (hundreds of ranks on
Aries or commodity Ethernet), rank failures and stragglers are the
dominant deviation from the bulk-synchronous ideal — yet the base model
charges zero for them.  This module quantifies resilience overhead the
same way :mod:`repro.dist.network` quantifies collectives: as modeled
seconds charged into the per-iteration profile, seed-deterministically,
so resilience ablations regression-gate exactly.

The model (:class:`DistFaultModel`) is applied per *union iteration* of a
simulated sweep:

* **straggler** — with probability ``straggler_prob`` the slowest rank is
  ``straggler_factor``× slower this iteration: charge
  ``t_local_s · (factor − 1)``;
* **rank failure** — each of the P ranks fails independently with
  probability ``rank_failure_prob`` per iteration, so the iteration is
  hit with probability ``1 − (1 − p)^P`` (the blow-up with P is the
  whole point of planning for failures).  Recovery re-executes every
  layer since the last checkpoint (their fault-free ``t_base_s``), plus
  the checkpoint read-back
  (:func:`~repro.dist.network.model_checkpoint`); with no checkpointing
  (``checkpoint_interval=None``) the sweep recomputes from the root —
  every layer so far is replayed;
* **checkpoint write** — every ``checkpoint_interval`` iterations each
  rank streams its BFS state (the batched frontier payload) to stable
  store: the insurance premium the interval trades against recovery
  depth.

``faults=None`` on ``bfs_dist_1d``/``bfs_dist_2d`` charges nothing and
creates no rng: the fault-free model is bit-identical to one that
predates this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.network import (
    Network,
    batched_frontier_bytes,
    model_checkpoint,
)
from repro.dist.result import DistIterationStats

__all__ = ["DistFaultModel", "DistFaultInjector", "apply_dist_faults",
           "fault_injector", "faulted_profile"]


@dataclass(frozen=True)
class DistFaultModel:
    """Declarative, seed-driven failure model for one distributed sweep."""

    #: Per-rank, per-iteration failure probability.
    rank_failure_prob: float = 0.0
    #: P(the iteration's critical-path rank is a straggler).
    straggler_prob: float = 0.0
    #: Local-compute multiplier of a straggler iteration (>= 1).
    straggler_factor: float = 4.0
    #: Checkpoint every this many union iterations; ``None`` = never
    #: checkpoint, recover by recomputing from the root.
    checkpoint_interval: int | None = None
    #: Seed of the rng stream behind every decision.
    seed: int = 0

    def __post_init__(self):
        for name in ("rank_failure_prob", "straggler_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.straggler_factor < 1.0:
            raise ValueError(f"straggler_factor must be >= 1, "
                             f"got {self.straggler_factor}")
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1 or None, "
                f"got {self.checkpoint_interval}")


@dataclass
class DistFaultStats:
    """Lifetime counters of one :class:`DistFaultInjector`."""

    #: Straggler iterations charged.
    stragglers: int = 0
    #: Rank-failure recoveries charged.
    failures: int = 0
    #: Checkpoint writes charged.
    checkpoints: int = 0
    #: Union iterations replayed across all recoveries.
    replayed_layers: int = 0


class DistFaultInjector:
    """Stateful sampler of one :class:`DistFaultModel`.

    One rng stream; draw order depends only on the iteration sequence
    (guarded per rate, so zero-rate terms consume no draws), which makes
    the charged overhead an exact, machine-portable function of
    ``(model, sweep schedule)``.  A ``bfs_dist_*`` call creates one
    injector and threads it through every group of a batched sweep, so
    consecutive groups see an evolving stream rather than a replay.
    """

    def __init__(self, model: DistFaultModel):
        self.model = model
        self.rng = np.random.default_rng(model.seed)
        self.stats = DistFaultStats()

    def straggler(self) -> float:
        """Local-compute multiplier of one iteration (1.0 = none)."""
        if self.model.straggler_prob == 0.0:
            return 1.0
        if self.rng.random() < self.model.straggler_prob:
            self.stats.stragglers += 1
            return self.model.straggler_factor
        return 1.0

    def rank_failed(self, ranks: int) -> bool:
        """Whether any of ``ranks`` ranks failed this iteration."""
        p = self.model.rank_failure_prob
        if p == 0.0:
            return False
        if self.rng.random() < 1.0 - (1.0 - p) ** ranks:
            self.stats.failures += 1
            return True
        return False


def fault_injector(faults: DistFaultModel | DistFaultInjector | None
                   ) -> DistFaultInjector | None:
    """Normalize a ``faults=`` argument: ``None`` and a prebuilt injector
    (whose stream may already be in use) pass through; a model gets a fresh
    injector.
    """
    if faults is None or isinstance(faults, DistFaultInjector):
        return faults
    return DistFaultInjector(faults)


def apply_dist_faults(iterations: list[DistIterationStats],
                      injector: DistFaultInjector, *, ranks: int,
                      network: Network,
                      state_bytes: int) -> list[DistIterationStats]:
    """Charge one sweep's fault overhead into its iteration profiles.

    Walks the (already profiled, fault-free) ``iterations`` of one group
    in order, accumulating each fault term into ``t_fault_s`` (which
    ``t_total_s`` includes):

    * straggler: ``t_local_s · (factor − 1)``;
    * checkpoint write: :func:`~repro.dist.network.model_checkpoint` of
      ``state_bytes``, every ``checkpoint_interval`` iterations;
    * rank failure: read-back of the last checkpoint (when one exists)
      plus the fault-free ``t_base_s`` of every layer since it — or, with
      ``checkpoint_interval=None``, of every layer of the sweep so far
      (recompute-from-root).

    A failed iteration recovers *before* re-executing, so its own base
    time is charged once (in ``t_base_s``) and the replay covers only
    completed prior layers.  Mutates and returns ``iterations``.
    """
    interval = injector.model.checkpoint_interval
    ckpt_cost = model_checkpoint(network, state_bytes)
    #: Fault-free seconds of completed layers since the last checkpoint.
    since_ckpt = 0.0
    have_ckpt = False
    replay_depth = 0
    for i, it in enumerate(iterations):
        fault = 0.0
        factor = injector.straggler()
        if factor > 1.0:
            fault += it.t_local_s * (factor - 1.0)
        if injector.rank_failed(ranks):
            # Replay everything since the last durable state: checkpoint
            # read-back + the completed layers after it (or the whole
            # sweep so far when nothing was ever checkpointed).
            fault += (ckpt_cost if have_ckpt else 0.0) + since_ckpt
            injector.stats.replayed_layers += replay_depth
        it.t_fault_s += fault
        since_ckpt += it.t_base_s
        replay_depth += 1
        if interval is not None and (i + 1) % interval == 0:
            it.t_fault_s += ckpt_cost
            injector.stats.checkpoints += 1
            since_ckpt = 0.0
            have_ckpt = True
            replay_depth = 0
    return iterations


def faulted_profile(iterations: list[DistIterationStats],
                    injector: DistFaultInjector | None, *, ranks: int,
                    network: Network, nwords: int,
                    bytes_per_word: int = 4) -> list[DistIterationStats]:
    """:func:`apply_dist_faults` with the checkpoint payload derived from
    the sweep itself: each rank's BFS state is the batched frontier
    payload of the sweep's width over ``nwords`` vector words.  The
    no-op seam for ``injector=None`` — both decompositions route every
    profiled sweep through here.
    """
    if injector is None or not iterations:
        return iterations
    state_bytes = batched_frontier_bytes(nwords, iterations[0].width,
                                         bytes_per_word)
    return apply_dist_faults(iterations, injector, ranks=ranks,
                             network=network, state_bytes=state_bytes)
