"""Tests of the offline capacity planner (``repro.serve.plan``).

The planner's contract has three load-bearing identities, each pinned
here exactly (``==``, not ``approx``):

* a :class:`DistServiceModel` charge equals what ``bfs_dist_1d`` models
  for the same roots in one sweep — the cached-schedule reconstruction
  is the real dist model, not an approximation of it;
* ``machine_weights`` over identical descriptors is a uniform vector,
  and any uniform vector leaves ``Partition1D.balanced`` bit-identical
  to the unweighted bounds;
* a zero-rate fault model without checkpoints charges exactly nothing,
  so fault-rate-0 plans match the fault-free model number for number.

Plus the acceptance criterion of the heterogeneous-placement path:
weighted placement strictly beats uniform on a skewed cluster, end to
end through the dist models and the served p99.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.msbfs import MultiSourceBFS, build_rep
from repro.cli import main
from repro.dist import Partition1D, bfs_dist_1d, get_network, machine_weights
from repro.dist.faults import DistFaultModel
from repro.graph500 import sample_roots
from repro.serve.plan import (
    DistServiceModel,
    ReplayEnginePool,
    SweepCache,
    best_configuration,
    compare_placement,
    plan_capacity,
)
from repro.vec.machine import get_machine, get_machines

KNL = get_machine("knl")
ARIES = get_network("cray-aries")
ETH = get_network("ethernet-10g")


@pytest.fixture(scope="module")
def rep(kron_small_module):
    return build_rep(kron_small_module, 16, None, slim=True)


@pytest.fixture(scope="module")
def kron_small_module():
    from repro.graphs.kronecker import kronecker

    return kronecker(9, 8, seed=7)


@pytest.fixture(scope="module")
def pool(kron_small_module):
    return sample_roots(kron_small_module, 12, 3)


class TestDistServiceModel:
    def test_charge_equals_bfs_dist_1d_sweep(self, rep, pool):
        """The planner's seam: cached-schedule profiling == the dist model."""
        part = Partition1D.balanced(rep.cl, 4)
        model = DistServiceModel(rep, part, KNL, ARIES)
        ref = bfs_dist_1d(rep, pool, part, KNL, ARIES, batch=None)
        assert model.service_seconds(pool) == ref.modeled_total_s

    def test_charge_equals_dist_model_per_subset(self, rep, pool):
        part = Partition1D.balanced(rep.cl, 2)
        model = DistServiceModel(rep, part, KNL, ETH)
        model.cache.ensure(pool)  # warm on the full pool, charge subsets
        for sub in (pool[:1], pool[3:7], pool[::2]):
            ref = bfs_dist_1d(rep, sub, part, KNL, ETH, batch=None)
            assert model.service_seconds(sub) == ref.modeled_total_s

    def test_heterogeneous_charge_matches(self, rep, pool):
        machines = get_machines("knl*3,knl@0.5")
        part = Partition1D.balanced(rep.cl, 4)
        model = DistServiceModel(rep, part, machines, ARIES)
        ref = bfs_dist_1d(rep, pool, part, machines, ARIES, batch=None)
        assert model.service_seconds(pool) == ref.modeled_total_s

    def test_zero_rate_faults_match_fault_free_exactly(self, rep, pool):
        part = Partition1D.balanced(rep.cl, 4)
        free = DistServiceModel(rep, part, KNL, ARIES)
        zero = DistServiceModel(
            rep,
            part,
            KNL,
            ARIES,
            faults=DistFaultModel(rank_failure_prob=0.0, straggler_prob=0.0),
        )
        assert zero.service_seconds(pool) == free.service_seconds(pool)

    def test_overlap_reduces_charge(self, rep, pool):
        part = Partition1D.balanced(rep.cl, 4)
        t0 = DistServiceModel(rep, part, KNL, ETH).service_seconds(pool)
        t5 = DistServiceModel(rep, part, KNL, ETH, overlap=0.5).service_seconds(pool)
        assert t5 < t0

    def test_charge_accumulates(self, rep, pool):
        part = Partition1D.balanced(rep.cl, 2)
        model = DistServiceModel(rep, part, KNL, ARIES)
        a = model.service_seconds(pool[:4])
        b = model.service_seconds(pool[4:8])
        assert model.batches == 2
        assert model.charged_s == a + b

    def test_shared_cache_must_match_rep(self, rep, pool):
        cache = SweepCache(rep, slimwork=False)
        with pytest.raises(ValueError, match="same rep and"):
            DistServiceModel(
                rep,
                Partition1D.balanced(rep.cl, 2),
                KNL,
                ARIES,
                slimwork=True,
                cache=cache,
            )

    def test_empty_batch_rejected(self, rep):
        cache = SweepCache(rep)
        with pytest.raises(ValueError, match="empty batch"):
            cache.schedule_for(np.empty(0, dtype=np.int64))


class TestReplayEnginePool:
    def test_replayed_results_bit_identical_to_live_engine(self, rep, pool):
        cache = SweepCache(rep)
        cache.ensure(pool)
        name, engine = ReplayEnginePool(cache).engine_for("tropical", 4)
        assert name == "replay"
        live = MultiSourceBFS(rep, "tropical").run(pool)
        for got, want in zip(engine.run(pool), live):
            np.testing.assert_array_equal(got.dist, want.dist)

    def test_non_tropical_semiring_rejected(self, rep):
        replay = ReplayEnginePool(SweepCache(rep))
        with pytest.raises(ValueError, match="tropical"):
            replay.engine_for("sel-max", 4)


class TestMachineWeights:
    def test_identical_machines_give_uniform_weights(self, rep):
        w = machine_weights([KNL, KNL, KNL], rep)
        assert np.all(w == 1.0)

    def test_uniform_weights_bit_identical_placement(self, rep):
        """The bit-for-bit guarantee the planner's homogeneous path rests
        on: weights from identical descriptors change nothing at all."""
        w = machine_weights([KNL] * 4, rep)
        weighted = Partition1D.balanced(rep.cl, 4, weights=w)
        plain = Partition1D.balanced(rep.cl, 4)
        np.testing.assert_array_equal(weighted.owner, plain.owner)

    def test_slow_machine_gets_less_work(self, rep):
        machines = get_machines("knl,knl,knl@0.25")
        w = machine_weights(machines, rep)
        assert w[2] < w[0] == w[1] == 1.0
        part = Partition1D.balanced(rep.cl, 3, weights=w)
        work = part.work_per_rank(rep.cl)
        assert work[2] < work[0]

    def test_empty_machine_list_rejected(self, rep):
        with pytest.raises(ValueError, match="non-empty"):
            machine_weights([], rep)


class TestPlanCapacity:
    def test_plan_is_deterministic(self, kron_small_module):
        kwargs = dict(
            ranks=(1, 2),
            max_batches=(1, 4),
            nqueries=48,
            root_pool=12,
            seed=5,
        )
        a = plan_capacity(kron_small_module, [(2000.0, 0.01)], **kwargs)
        b = plan_capacity(kron_small_module, [(2000.0, 0.01)], **kwargs)
        assert a == b

    def test_infeasible_target_reports_cleanly(self, kron_small_module):
        """An impossible p99 yields best=None and zero feasible configs —
        a clean report, not an exception."""
        plan = plan_capacity(
            kron_small_module,
            [(2000.0, 1e-12)],
            ranks=(2,),
            max_batches=(4,),
            nqueries=48,
            root_pool=12,
        )
        (t,) = plan["targets"]
        assert t["best"] is None
        assert t["feasible_configs"] == 0
        assert all(not r["per_target"][0]["feasible"] for r in plan["grid"])

    def test_single_rank_plan_is_network_independent(self, kron_small_module):
        """ranks=1 moves no bytes, so the local serve numbers reproduce
        identically on every network preset."""
        plan = plan_capacity(
            kron_small_module,
            [(2000.0, 0.01)],
            ranks=(1,),
            networks=("cray-aries", "ethernet-10g"),
            max_batches=(1, 8),
            nqueries=64,
            root_pool=12,
        )
        by_net = {}
        for row in plan["grid"]:
            by_net.setdefault(row["network"], []).append(
                (row["max_batch"], row["per_target"])
            )
        assert by_net["cray-aries"] == by_net["ethernet-10g"]

    def test_fault_rate_zero_matches_fault_free(self, kron_small_module):
        """Explicit zero-rate faults are charged through the injector path
        yet match the fault-free plan exactly (nothing drawn, nothing
        charged)."""
        base = dict(
            ranks=(2,),
            networks=("cray-aries",),
            max_batches=(4,),
            nqueries=48,
            root_pool=12,
        )
        free = plan_capacity(kron_small_module, [(2000.0, 0.01)], **base)
        zero = plan_capacity(
            kron_small_module,
            [(2000.0, 0.01)],
            rank_failure_prob=0.0,
            checkpoint_intervals=(None,),
            **base,
        )
        assert free["grid"] == zero["grid"]

    def test_faulty_plan_sweeps_checkpoint_intervals(self, kron_small_module):
        plan = plan_capacity(
            kron_small_module,
            [(1000.0, 0.05)],
            ranks=(4,),
            networks=("cray-aries",),
            max_batches=(8,),
            rank_failure_prob=0.08,
            checkpoint_intervals=(None, 1, 4),
            nqueries=48,
            root_pool=12,
        )
        cell = plan["grid"][0]["per_target"][0]
        assert set(cell["interval_p99_s"]) == {"never", "1", "4"}
        best_p99 = min(cell["interval_p99_s"].values())
        assert cell["latency_p99_s"] == best_p99

    def test_cheapest_prefers_fewer_ranks_then_ethernet(self):
        rows = []
        configs = ((4, "cray-aries"), (2, "cray-aries"), (2, "ethernet-10g"))
        for ranks, net in configs:
            rows.append(
                {
                    "ranks": ranks,
                    "network": net,
                    "max_batch": 8,
                    "machine": "knl",
                    "per_target": [
                        {
                            "feasible": True,
                            "latency_p99_s": 1e-3,
                            "checkpoint_interval": None,
                            "virtual_throughput_qps": 1000.0,
                        }
                    ],
                }
            )
        best = best_configuration(rows, 0)
        assert (best["ranks"], best["network"]) == (2, "ethernet-10g")

    def test_heterogeneous_plan_fixes_rank_count(self, kron_small_module):
        plan = plan_capacity(
            kron_small_module,
            [(2000.0, 0.05)],
            machines="knl*3,knl@0.5",
            max_batches=(4,),
            networks=("cray-aries",),
            nqueries=48,
            root_pool=12,
        )
        assert all(r["ranks"] == 4 for r in plan["grid"])
        assert all(r["machine"] == "knl+knl+knl+knl@0.5" for r in plan["grid"])
        assert all(r["placement"] == "weighted" for r in plan["grid"])

    def test_target_validation(self, kron_small_module):
        with pytest.raises(ValueError, match="at least one"):
            plan_capacity(kron_small_module, [])
        with pytest.raises(ValueError, match="positive finite"):
            plan_capacity(kron_small_module, [(float("inf"), 0.01)])
        with pytest.raises(ValueError, match="p99 must be positive"):
            plan_capacity(kron_small_module, [(100.0, 0.0)])
        with pytest.raises(ValueError, match="placement"):
            plan_capacity(kron_small_module, [(100.0, 0.01)], placement="magic")


class TestComparePlacement:
    def test_weighted_strictly_beats_uniform_on_skewed_cluster(
        self, kron_small_module
    ):
        """The acceptance criterion: on a mixed cluster the weighted bands
        shift rows off the weak rank, and both the modeled pool sweep and
        the served p99 come out strictly better than uniform bands."""
        out = compare_placement(
            kron_small_module,
            "knl*3,knl@0.4",
            max_batch=8,
            nqueries=96,
            root_pool=24,
            max_wait=1e-5,
            target=(20000.0, 0.005),
        )
        assert out["weighted"]["pool_sweep_s"] < out["uniform"]["pool_sweep_s"]
        assert out["weighted"]["latency_p99_s"] < out["uniform"]["latency_p99_s"]
        assert out["sweep_improvement"] > 1.0
        # The weak rank (last) carries strictly fewer rows under weights.
        assert (
            out["weighted"]["work_per_rank"][-1] < out["uniform"]["work_per_rank"][-1]
        )


class TestPlanCLI:
    def test_plan_command_runs(self, capsys):
        rc = main(
            [
                "plan",
                "kronecker:8,8,3",
                "--target",
                "2000:5",
                "--ranks",
                "1,2",
                "--max-batches",
                "1,4",
                "-n",
                "48",
                "--root-pool",
                "12",
                "-v",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "capacity plan" in out
        assert "cheapest:" in out or "infeasible:" in out

    def test_plan_writes_json(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        rc = main(
            [
                "plan",
                "kronecker:8,8,3",
                "--target",
                "2000:5",
                "--ranks",
                "1",
                "--max-batches",
                "2",
                "-n",
                "32",
                "--root-pool",
                "8",
                "--json",
                str(path),
            ]
        )
        assert rc == 0
        import json

        plan = json.loads(path.read_text())
        assert plan["deterministic"] is True
        assert plan["targets"][0]["qps"] == 2000.0

    def test_plan_ablation_command(self, capsys):
        rc = main(
            [
                "plan",
                "kronecker:8,8,3",
                "--target",
                "2000:5",
                "--machines",
                "knl,knl@0.5",
                "--ablate-placement",
                "-n",
                "32",
                "--root-pool",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "placement ablation" in out

    def test_plan_target_validation(self):
        for bad in ("nope", "100", "0:1", "100:-1"):
            with pytest.raises(SystemExit):
                main(["plan", "kronecker:7,4", "--target", bad])

    def test_plan_checkpoint_validation(self):
        with pytest.raises(SystemExit, match="checkpoints"):
            main(
                [
                    "plan",
                    "kronecker:7,4",
                    "--target",
                    "100:5",
                    "--checkpoints",
                    "sometimes",
                ]
            )

    def test_plan_ablation_requires_machines(self):
        with pytest.raises(SystemExit, match="requires --machines"):
            main(["plan", "kronecker:7,4", "--target", "100:5", "--ablate-placement"])


class TestServerHook:
    def test_batch_service_model_prices_dispatches(self, kron_small_module):
        """Every dispatched batch is charged exactly what the callable
        returns for its root array (virtual time, not wall time)."""
        from repro.serve.server import Server
        from repro.serve.workload import run_open_loop

        charged = []

        def price(roots):
            charged.append(roots.size)
            return 1e-3 * roots.size

        server = Server(
            kron_small_module,
            max_batch=4,
            cache_size=0,
            service_model=price,
        )
        roots = sample_roots(kron_small_module, 8, 3)
        report = run_open_loop(
            server,
            roots,
            np.zeros(roots.size),
            semiring="tropical",
        )
        assert report["served"] == roots.size
        assert sum(charged) == roots.size
        assert report["kernel_s"] == pytest.approx(1e-3 * roots.size)


class TestMachineSpecs:
    def test_scaled_machine(self):
        half = KNL.scaled(0.5)
        assert half.name == "knl@0.5"
        assert half.ghz == KNL.ghz * 0.5
        assert half.bandwidth_gbs == KNL.bandwidth_gbs * 0.5
        assert KNL.scaled(1.0) is KNL

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="> 0"):
            KNL.scaled(0.0)

    def test_get_machine_factor_suffix(self):
        assert get_machine("knl@0.5") == KNL.scaled(0.5)
        with pytest.raises(KeyError):
            get_machine("knl@zero")
        with pytest.raises(KeyError):
            get_machine("nope@0.5")

    def test_get_machines_spec(self):
        ms = get_machines("knl*3,dora")
        assert [m.name for m in ms] == ["knl", "knl", "knl", "dora"]
        with pytest.raises(KeyError):
            get_machines("knl*0")
        with pytest.raises(KeyError):
            get_machines("")
