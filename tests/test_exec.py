"""Executed parallel backend: bit-identity, sharding edges, calibration.

The exec engine's one obligation is that *who* sweeps a chunk never
changes *what* the sweep computes: every worker count, backend, and
partition must be bit-identical — distances, parents, per-source
iteration profiles, synthesized counters — to the plain batched engine.
Equivalence against every other engine runs through the shared
cross-engine oracle (:mod:`engines`); the sharding boundary cases, the
persistent process pool, and the measured-vs-modeled calibration loop
are covered here.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs.msbfs import bfs_msbfs
from repro.dist.bfs1d import bfs_dist_1d
from repro.dist.calibrate import calibrate
from repro.dist.partition import Partition1D
from repro.exec import BACKENDS, ExecMultiSourceBFS, bfs_exec
from repro.formats.slimsell import SlimSell
from repro.graphs.erdos_renyi import erdos_renyi_nm
from repro.graphs.kronecker import kronecker

from conftest import SEMIRING_NAMES, two_components
from engines import assert_bfs_equivalent

WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def kron():
    return kronecker(8, 8, seed=7)


@pytest.fixture(scope="module")
def kron_rep(kron):
    return SlimSell(kron, 8, kron.n)


def _roots(g):
    cand = [0, int(np.argmax(g.degrees)), g.n // 2, g.n - 1]
    return np.unique(cand)


def _assert_results_equal(got, exp, *, check_stats=True):
    assert len(got) == len(exp)
    for a, b in zip(got, exp):
        np.testing.assert_array_equal(a.dist, b.dist)
        if a.parent is not None or b.parent is not None:
            np.testing.assert_array_equal(a.parent, b.parent)
        if not check_stats:
            continue
        assert len(a.iterations) == len(b.iterations)
        for ia, ib in zip(a.iterations, b.iterations):
            assert ia.k == ib.k
            assert ia.newly == ib.newly
            assert ia.chunks_processed == ib.chunks_processed
            assert ia.chunks_skipped == ib.chunks_skipped
            assert ia.work_lanes == ib.work_lanes
            assert (ia.counters is None) == (ib.counters is None)
            if ia.counters is not None:
                assert ia.counters == ib.counters


class TestOracle:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_full_oracle_all_semirings(self, kron, semiring, workers):
        """Engine "exec" vs the whole registry, at every worker count."""
        assert_bfs_equivalent(kron, _roots(kron), semiring=semiring,
                              exec_workers=workers)

    @pytest.mark.parametrize("graph_name", ["er", "disconnected"])
    def test_other_graph_shapes(self, graph_name):
        g = (erdos_renyi_nm(200, 800, seed=13) if graph_name == "er"
             else two_components())
        assert_bfs_equivalent(g, _roots(g), engines=["traditional", "msbfs",
                                                     "exec"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_through_oracle(self, kron, backend):
        assert_bfs_equivalent(kron, _roots(kron), exec_backend=backend,
                              engines=["traditional", "msbfs", "exec"])


class TestWorkersOneExact:
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("slimwork", [False, True])
    def test_reproduces_msbfs_including_stats(self, kron, kron_rep, semiring,
                                              slimwork):
        """workers=1 is bfs_msbfs bit for bit, iteration stats included."""
        roots = _roots(kron)
        exp = bfs_msbfs(kron_rep, roots, semiring, slimwork=slimwork,
                        counting=True)
        got = bfs_exec(kron_rep, roots, semiring, workers=1,
                       slimwork=slimwork, counting=True)
        _assert_results_equal(got, exp)

    def test_batched_grouping_matches(self, kron, kron_rep):
        roots = np.arange(10, dtype=np.int64)
        exp = bfs_msbfs(kron_rep, roots, slimwork=True, batch=4)
        got = bfs_exec(kron_rep, roots, workers=1, slimwork=True, batch=4)
        _assert_results_equal(got, exp)

    def test_method_label(self, kron_rep):
        res = bfs_exec(kron_rep, [0], workers=3, backend="serial",
                       slimwork=True)
        assert res[0].method == "exec-serial-w3+slimwork"


class TestWorkerInvariance:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), nroots=st.integers(1, 6),
           slimwork=st.booleans())
    def test_results_independent_of_worker_count(self, seed, nroots,
                                                 slimwork):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_nm(60, 180, seed=seed)
        rep = SlimSell(g, 8, g.n)
        roots = rng.integers(0, g.n, size=nroots)
        base = None
        for workers in WORKER_COUNTS:
            got = bfs_exec(rep, roots, workers=workers, slimwork=slimwork,
                           counting=True)
            if base is None:
                base = got
            else:
                _assert_results_equal(got, base)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, kron_rep, backend):
        roots = np.array([0, 3, 9], dtype=np.int64)
        exp = bfs_msbfs(kron_rep, roots, slimwork=True)
        got = bfs_exec(kron_rep, roots, workers=3, backend=backend,
                       slimwork=True)
        _assert_results_equal(got, exp)


class TestShardBoundaries:
    def test_more_workers_than_chunks(self):
        g = two_components()  # 9 vertices -> 2 chunks at C=8
        rep = SlimSell(g, 8, g.n)
        assert rep.nc < 6
        exp = bfs_msbfs(rep, [0, 4, 8], slimwork=True)
        got = bfs_exec(rep, [0, 4, 8], workers=6, slimwork=True)
        _assert_results_equal(got, exp)

    def test_empty_middle_shard(self, kron_rep):
        """A custom partition with a rank owning zero chunks."""
        owner = np.zeros(kron_rep.nc, dtype=np.int64)
        owner[kron_rep.nc // 2:] = 2  # rank 1 owns nothing
        part = Partition1D(owner, ranks=3)
        exp = bfs_msbfs(kron_rep, [0, 5], slimwork=True)
        got = bfs_exec(kron_rep, [0, 5], workers=3, partition=part,
                       slimwork=True)
        _assert_results_equal(got, exp)

    def test_profile_accounts_every_active_chunk(self, kron_rep):
        engine = ExecMultiSourceBFS(kron_rep, workers=3, slimwork=True)
        with engine:
            engine.run([0, 5, 9])
            assert engine.layer_profile, "no layers profiled"
            for layer in engine.layer_profile:
                assert len(layer.t_workers) == 3
                assert len(layer.chunks_per_worker) == 3
                assert sum(layer.chunks_per_worker) <= kron_rep.nc
                assert layer.t_local_s == max(layer.t_workers)
                assert layer.exchanged_bytes > 0

    def test_validation_errors(self, kron_rep):
        with pytest.raises(ValueError, match="workers"):
            ExecMultiSourceBFS(kron_rep, workers=0)
        with pytest.raises(ValueError, match="backend"):
            ExecMultiSourceBFS(kron_rep, backend="mpi")
        with pytest.raises(ValueError, match="ranks"):
            ExecMultiSourceBFS(
                kron_rep, workers=3,
                partition=Partition1D.balanced(kron_rep.cl, 2))
        small = Partition1D.balanced(np.ones(3), 2)
        with pytest.raises(ValueError, match="chunks"):
            ExecMultiSourceBFS(kron_rep, workers=2, partition=small)


class TestNonContiguousPartition:
    """Workers fold their chunks in place into one shared accumulator, so
    interleaved owners must leave every other rank's rows alone."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("width", [1, 5])
    def test_round_robin_owners_and_an_empty_rank(self, kron_rep, backend,
                                                  semiring, width):
        owner = np.arange(kron_rep.nc) % 3  # rank 3 owns nothing
        part = Partition1D(owner, ranks=4)
        roots = np.array([0, 5, 9, 77, 200])[:width]
        exp = bfs_msbfs(kron_rep, roots, semiring, slimwork=True,
                        counting=True)
        got = bfs_exec(kron_rep, roots, semiring, workers=4, backend=backend,
                       partition=part, slimwork=True, counting=True)
        _assert_results_equal(got, exp)

    def test_threads_under_fast_switching(self, kron_rep):
        """More threads than cores, switching every microsecond: a lost or
        torn row of the shared accumulator would change a bit."""
        part = Partition1D(np.arange(kron_rep.nc) % 6, ranks=6)
        roots = np.arange(0, 40, 5)
        exp = bfs_msbfs(kron_rep, roots, "sel-max", slimwork=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExecMultiSourceBFS(kron_rep, "sel-max", workers=6,
                                    backend="threads", partition=part,
                                    slimwork=True) as engine:
                for _ in range(3):
                    _assert_results_equal(engine.run(roots), exp)
        finally:
            sys.setswitchinterval(interval)


class TestProcessBackend:
    def test_persistent_pool_reuse(self, kron_rep):
        """Two runs on one engine reuse the forked pool; both bit-exact."""
        exp = bfs_msbfs(kron_rep, [0, 5], slimwork=True)
        with ExecMultiSourceBFS(kron_rep, workers=2, backend="process",
                                slimwork=True) as engine:
            _assert_results_equal(engine.run([0, 5]), exp)
            pool = engine._pool
            _assert_results_equal(engine.run([0, 5]), exp)
            assert engine._pool is pool  # same workers, no respawn

    def test_pool_grows_for_wider_frontier(self, kron_rep):
        with ExecMultiSourceBFS(kron_rep, workers=2,
                                backend="process") as engine:
            engine.run([0])
            first = engine._pool
            got = engine.run(np.arange(8))  # wider than the w=1 capacity
            assert engine._pool is not first
        exp = bfs_msbfs(kron_rep, np.arange(8))
        _assert_results_equal(got, exp)

    def test_close_is_idempotent(self, kron_rep):
        engine = ExecMultiSourceBFS(kron_rep, workers=2, backend="process")
        engine.run([0])
        engine.close()
        engine.close()


class TestCalibrate:
    def test_calibrated_descriptors_reproduce_measured_totals(self, kron_rep):
        roots = np.arange(6, dtype=np.int64)
        rpt = calibrate(kron_rep, roots, workers=2, machine="knl",
                        network="cray-aries", slimwork=True)
        assert rpt.compute_scale > 0
        assert rpt.comm_scale is not None and rpt.comm_scale > 0
        # The whole point: under the calibrated descriptors the model's
        # totals equal the measured totals (the scaling is exact because
        # both cost formulas are homogeneous in their descriptors).
        part = Partition1D.balanced(kron_rep.cl, 2)
        remodeled = bfs_dist_1d(kron_rep, roots, part,
                                rpt.machine_calibrated,
                                rpt.network_calibrated, slimwork=True)
        local = sum(it.t_local_s for it in remodeled.iterations)
        comm = sum(it.t_comm_s for it in remodeled.iterations)
        assert local == pytest.approx(rpt.measured_local_s, rel=1e-9)
        assert comm == pytest.approx(rpt.measured_exchange_s, rel=1e-9)
        # The diffs name exactly the fields the calibration touched.
        assert set(rpt.machine_diff()) == {"name", "ghz", "bandwidth_gbs"}
        assert set(rpt.network_diff()) == {"name", "latency_s",
                                           "bandwidth_gbs"}
        assert "compute_scale" in rpt.describe()

    def test_single_worker_leaves_network_alone(self, kron_rep):
        rpt = calibrate(kron_rep, [0, 1, 2], workers=1)
        assert rpt.comm_scale is None
        assert rpt.network_calibrated == rpt.network
        assert rpt.machine_diff()  # compute is still calibrated

    def test_iteration_table_aligns_widths(self, kron_rep):
        roots = np.arange(5, dtype=np.int64)
        rpt = calibrate(kron_rep, roots, workers=2, slimwork=True, batch=2)
        assert rpt.iterations
        assert all(it.width <= 2 for it in rpt.iterations)
        assert rpt.iterations[0].width == 2
