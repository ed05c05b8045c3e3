"""Rank failures, stragglers, and checkpoint/recovery in the dist model.

Hand-built iteration profiles pin the exact overhead arithmetic of
``apply_dist_faults`` against a scripted injector; the end-to-end tests
check seed determinism, the ``faults=None`` bit-identity guarantee, and
the checkpoint-interval vs recompute-from-root cost tradeoff the model
exists to expose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import (
    DistFaultInjector,
    DistFaultModel,
    apply_dist_faults,
    bfs_dist_1d,
    bfs_dist_2d,
    get_network,
    model_checkpoint,
)
from repro.dist.faults import fault_injector
from repro.dist.partition import Partition1D
from repro.dist.result import DistIterationStats
from repro.formats.slimsell import SlimSell
from repro.graphs.kronecker import kronecker
from repro.vec.machine import get_machine

NET = get_network("cray-aries")
KNL = get_machine("knl")


def _rep():
    g = kronecker(8, 8, seed=3)
    return SlimSell(g, 8, g.n)


def _iters(times):
    """Fault-free profiles with the given local times (no comm term)."""
    return [DistIterationStats(k=i + 1, newly=1, t_local_s=t, t_comm_s=0.0,
                               comm_bytes=0, imbalance=1.0,
                               rank_lanes=np.ones(4, dtype=np.int64))
            for i, t in enumerate(times)]


class ScriptedDistInjector(DistFaultInjector):
    """Replays exact straggler factors / failure booleans per iteration."""

    def __init__(self, model, stragglers=(), failures=()):
        super().__init__(model)
        self._stragglers = list(stragglers)
        self._failures = list(failures)

    def straggler(self):
        return self._stragglers.pop(0) if self._stragglers else 1.0

    def rank_failed(self, ranks):
        if self._failures and self._failures.pop(0):
            self.stats.failures += 1
            return True
        return False


# ----------------------------------------------------------------------
class TestDistFaultModel:
    @pytest.mark.parametrize("name", ["rank_failure_prob", "straggler_prob"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_bounded(self, name, bad):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            DistFaultModel(**{name: bad})

    def test_straggler_factor_bounded(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            DistFaultModel(straggler_factor=0.9)

    def test_checkpoint_interval_bounded(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            DistFaultModel(checkpoint_interval=0)
        assert DistFaultModel(checkpoint_interval=None).checkpoint_interval \
            is None


class TestModelCheckpoint:
    def test_zero_bytes_free(self):
        assert model_checkpoint(NET, 0) == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="nbytes"):
            model_checkpoint(NET, -1)

    def test_alpha_beta_form(self):
        nbytes = 1 << 20
        expect = NET.latency_s + nbytes / (NET.bandwidth_gbs * 1e9)
        assert model_checkpoint(NET, nbytes) == pytest.approx(expect)


class TestDistFaultInjector:
    def test_seed_determinism(self):
        model = DistFaultModel(rank_failure_prob=0.05, straggler_prob=0.3,
                               seed=9)
        a = DistFaultInjector(model)
        b = DistFaultInjector(model)
        seq_a = [(a.straggler(), a.rank_failed(16)) for _ in range(50)]
        seq_b = [(b.straggler(), b.rank_failed(16)) for _ in range(50)]
        assert seq_a == seq_b
        assert a.stats.failures == b.stats.failures > 0

    def test_zero_rates_draw_nothing(self):
        inj = DistFaultInjector(DistFaultModel())
        state = inj.rng.bit_generator.state
        assert inj.straggler() == 1.0
        assert not inj.rank_failed(64)
        assert inj.rng.bit_generator.state == state

    def test_failure_prob_compounds_with_ranks(self):
        # p per rank, P ranks: the iteration is hit w.p. 1-(1-p)^P, so
        # with many ranks even a small p almost always hits.
        inj = DistFaultInjector(DistFaultModel(rank_failure_prob=0.05))
        hits = sum(inj.rank_failed(200) for _ in range(100))
        assert hits > 90

    def test_fault_injector_normalizes_faults_argument(self):
        # The one faults= normalization of both decompositions and the
        # planner: None and a prebuilt injector pass through, a model gets
        # a fresh injector on its own seed.
        model = DistFaultModel(straggler_prob=0.5, seed=3)
        inj = DistFaultInjector(model)
        assert fault_injector(None) is None
        assert fault_injector(inj) is inj
        fresh = fault_injector(model)
        assert isinstance(fresh, DistFaultInjector)
        assert fresh is not fault_injector(model)
        assert fresh.model is model
        assert fresh.rng.bit_generator.state == inj.rng.bit_generator.state


class TestApplyDistFaults:
    def test_straggler_charge(self):
        its = _iters([1.0, 2.0])
        inj = ScriptedDistInjector(DistFaultModel(straggler_factor=4.0),
                                   stragglers=[4.0, 1.0])
        apply_dist_faults(its, inj, ranks=4, network=NET, state_bytes=0)
        assert its[0].t_fault_s == pytest.approx(3.0)  # 1.0 * (4 - 1)
        assert its[1].t_fault_s == 0.0
        assert its[0].t_total_s == pytest.approx(4.0)

    def test_recompute_from_root_replays_everything(self):
        its = _iters([1.0, 2.0, 4.0])
        inj = ScriptedDistInjector(DistFaultModel(),
                                   failures=[False, False, True])
        apply_dist_faults(its, inj, ranks=4, network=NET, state_bytes=0)
        # No checkpointing: the failure at iter 3 replays iters 1 and 2.
        assert its[2].t_fault_s == pytest.approx(1.0 + 2.0)
        assert inj.stats.replayed_layers == 2

    def test_checkpoint_bounds_replay_depth(self):
        ckpt = model_checkpoint(NET, 1 << 20)
        its = _iters([1.0, 2.0, 4.0])
        inj = ScriptedDistInjector(DistFaultModel(checkpoint_interval=2),
                                   failures=[False, False, True])
        apply_dist_faults(its, inj, ranks=4, network=NET,
                          state_bytes=1 << 20)
        # Checkpoint written after iter 2; the failure at iter 3 reads it
        # back and replays nothing (no completed layer since).
        assert its[1].t_fault_s == pytest.approx(ckpt)  # the write
        assert its[2].t_fault_s == pytest.approx(ckpt)  # the read-back
        assert inj.stats.checkpoints == 1
        assert inj.stats.replayed_layers == 0

    def test_failure_before_first_checkpoint_replays_from_root(self):
        ckpt = model_checkpoint(NET, 1 << 20)
        its = _iters([1.0, 2.0, 4.0])
        inj = ScriptedDistInjector(DistFaultModel(checkpoint_interval=3),
                                   failures=[False, True, False])
        apply_dist_faults(its, inj, ranks=4, network=NET,
                          state_bytes=1 << 20)
        # No checkpoint exists yet at iter 2: no read-back, replay iter 1.
        assert its[1].t_fault_s == pytest.approx(1.0)
        assert its[2].t_fault_s == pytest.approx(ckpt)  # interval write


# ----------------------------------------------------------------------
class TestDistFaultsEndToEnd:
    def test_faults_none_is_bit_identical(self):
        rep = _rep()
        part = Partition1D.balanced(rep.cl, 8)
        base = bfs_dist_1d(rep, 0, part, KNL, NET)
        none = bfs_dist_1d(rep, 0, part, KNL, NET, faults=None)
        assert none.modeled_total_s == base.modeled_total_s
        assert all(it.t_fault_s == 0.0 for it in none.iterations)

    def test_zero_rate_model_without_checkpoints_charges_nothing(self):
        rep = _rep()
        part = Partition1D.balanced(rep.cl, 8)
        res = bfs_dist_1d(rep, 0, part, KNL, NET, faults=DistFaultModel())
        assert res.fault_overhead_s == 0.0

    def test_seed_determinism_and_distances_unchanged(self):
        rep = _rep()
        part = Partition1D.balanced(rep.cl, 8)
        model = DistFaultModel(rank_failure_prob=0.1, straggler_prob=0.2,
                               checkpoint_interval=2, seed=5)
        base = bfs_dist_1d(rep, 0, part, KNL, NET)
        a = bfs_dist_1d(rep, 0, part, KNL, NET, faults=model)
        b = bfs_dist_1d(rep, 0, part, KNL, NET, faults=model)
        assert a.fault_overhead_s == b.fault_overhead_s > 0.0
        assert [it.t_fault_s for it in a.iterations] == \
               [it.t_fault_s for it in b.iterations]
        # Faults are charged to modeled time only — never to the answer,
        # and never to the fault-free base terms.
        assert np.array_equal(a.dist, base.dist)
        assert [it.t_base_s for it in a.iterations] == \
               [it.t_base_s for it in base.iterations]
        assert a.modeled_total_s == pytest.approx(
            base.modeled_total_s + a.fault_overhead_s)

    def test_checkpointing_beats_recompute_under_heavy_failures(self):
        rep = _rep()
        part = Partition1D.balanced(rep.cl, 8)
        model = dict(rank_failure_prob=0.05, seed=11)
        never = bfs_dist_1d(rep, 0, part, KNL, NET,
                            faults=DistFaultModel(**model))
        every = bfs_dist_1d(rep, 0, part, KNL, NET,
                            faults=DistFaultModel(checkpoint_interval=1,
                                                  **model))
        # Same seed, same draw sequence: identical failure pattern, so the
        # comparison isolates recovery depth vs checkpoint premium.
        assert 0.0 < every.fault_overhead_s < never.fault_overhead_s

    def test_batched_2d_with_faults(self):
        rep = _rep()
        model = DistFaultModel(rank_failure_prob=0.1, straggler_prob=0.2,
                               checkpoint_interval=2, seed=1)
        base = bfs_dist_2d(rep, [0, 1, 2, 3], (2, 2), KNL, NET, batch=2)
        res = bfs_dist_2d(rep, [0, 1, 2, 3], (2, 2), KNL, NET, batch=2,
                          faults=model)
        assert res.fault_overhead_s > 0.0
        assert np.array_equal(res.dists, base.dists)
        assert res.modeled_total_s == pytest.approx(
            base.modeled_total_s + res.fault_overhead_s)

    def test_prebuilt_injector_exposes_stats(self):
        rep = _rep()
        part = Partition1D.balanced(rep.cl, 8)
        inj = DistFaultInjector(DistFaultModel(rank_failure_prob=0.3,
                                               checkpoint_interval=1,
                                               seed=2))
        bfs_dist_1d(rep, [0, 1, 2, 3], part, KNL, NET, batch=2, faults=inj)
        assert inj.stats.checkpoints > 0
        assert inj.stats.failures > 0
