"""Edge-case coverage of the distributed subsystem beyond the seed specs."""

import numpy as np
import pytest

from conftest import path_graph, two_components

from repro.bfs.validate import reference_distances
from repro.dist.bfs1d import bfs_dist_1d
from repro.dist.bfs2d import bfs_dist_2d, column_split_lengths
from repro.dist.network import CRAY_ARIES, ETHERNET_10G, Network, model_allgather
from repro.dist.partition import Partition1D
from repro.formats.slimsell import SlimSell
from repro.vec.machine import get_machine

KNL = get_machine("knl")


class TestUnreachable:
    """Disconnected graphs: unreached vertices keep inf on every layout."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = two_components()  # K4 + path + one isolated vertex
        return g, SlimSell(g, 4, g.n), reference_distances(g, 0)

    def test_1d_keeps_inf(self, setup):
        g, rep, ref = setup
        res = bfs_dist_1d(rep, 0, Partition1D.blocks(rep.nc, 2),
                          KNL, CRAY_ARIES)
        assert np.isinf(res.dist[4:]).all()
        same = (res.dist == ref) | (np.isinf(res.dist) & np.isinf(ref))
        assert same.all()
        assert res.reached == 4

    def test_2d_keeps_inf(self, setup):
        g, rep, ref = setup
        res = bfs_dist_2d(rep, 0, (2, 2), KNL, CRAY_ARIES)
        assert np.isinf(res.dist[4:]).all()
        same = (res.dist == ref) | (np.isinf(res.dist) & np.isinf(ref))
        assert same.all()

    def test_unsettled_chunks_stay_active_under_slimwork(self, setup):
        # Chunks holding unreachable vertices can never fully settle, so
        # SlimWork must keep processing them through the final iteration.
        g, rep, ref = setup
        res = bfs_dist_1d(rep, 0, Partition1D.blocks(rep.nc, 2),
                          KNL, CRAY_ARIES, slimwork=True)
        assert res.iterations[-1].chunks_active >= 1


class TestOversizedGrids:
    """(R, C) grids with more cells than chunks: surplus ranks idle."""

    def test_exact_with_more_cells_than_chunks(self):
        g = path_graph(10)
        rep = SlimSell(g, 4, g.n)  # nc = 3 chunks
        assert rep.nc == 3
        res = bfs_dist_2d(rep, 0, (4, 3), KNL, CRAY_ARIES)
        assert res.ranks == 12
        ref = reference_distances(g, 0)
        same = (res.dist == ref) | (np.isinf(res.dist) & np.isinf(ref))
        assert same.all()
        assert all(it.rank_lanes.size == 12 for it in res.iterations)

    def test_more_1d_ranks_than_chunks(self):
        g = path_graph(10)
        rep = SlimSell(g, 4, g.n)
        res = bfs_dist_1d(rep, 0, Partition1D.blocks(rep.nc, 7),
                          KNL, CRAY_ARIES)
        ref = reference_distances(g, 0)
        assert (res.dist == ref).all()
        # Idle ranks carry zero lanes but still appear in the profile.
        assert all(it.rank_lanes.size == 7 for it in res.iterations)


class TestTermination:
    """The empty-frontier iteration after the last level ends the run."""

    def test_one_trailing_empty_iteration(self):
        g = path_graph(9)  # eccentricity 8 from vertex 0
        rep = SlimSell(g, 4, g.n)
        res = bfs_dist_1d(rep, 0, Partition1D.blocks(rep.nc, 2),
                          KNL, CRAY_ARIES)
        assert res.n_iterations == 9  # 8 discovering levels + 1 empty
        assert res.iterations[-1].newly == 0
        assert all(it.newly > 0 for it in res.iterations[:-1])

    def test_matches_2d(self):
        g = path_graph(9)
        rep = SlimSell(g, 4, g.n)
        res = bfs_dist_2d(rep, 0, (2, 2), KNL, CRAY_ARIES)
        assert res.n_iterations == 9
        assert res.iterations[-1].newly == 0


class TestRootContract:
    """One root-input contract for both decompositions, batched or not."""

    @pytest.fixture(scope="class")
    def rep(self):
        g = path_graph(10)
        return SlimSell(g, 4, g.n)

    @pytest.mark.parametrize("decomposition", ["1d", "2d"])
    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("make_root, error", [
        (lambda n: n, "out of range"),
        (lambda n: -1, "out of range"),
        (lambda n: [0, n], "out of range"),
        (lambda n: [0, -1], "out of range"),
        (lambda n: [], "non-empty 1-D"),
        (lambda n: [[0, 1]], "non-empty 1-D"),
    ], ids=["n", "-1", "[0,n]", "[0,-1]", "[]", "[[0,1]]"])
    def test_rejected(self, rep, decomposition, batch, make_root, error):
        root = make_root(rep.n)
        if batch is not None and np.ndim(root) == 0:
            error = "requires a sequence of roots"
        with pytest.raises(ValueError, match=error):
            if decomposition == "1d":
                bfs_dist_1d(rep, root, Partition1D.blocks(rep.nc, 2),
                            KNL, CRAY_ARIES, batch=batch)
            else:
                bfs_dist_2d(rep, root, (2, 2), KNL, CRAY_ARIES, batch=batch)


class TestAllgatherMonotonicity:
    def test_monotone_in_ranks(self):
        for net in (CRAY_ARIES, ETHERNET_10G):
            times = [model_allgather(net, p, 10**6) for p in range(1, 65)]
            assert all(a <= b for a, b in zip(times, times[1:]))
            assert times[0] == 0.0 and times[1] > 0.0

    def test_monotone_in_bytes(self):
        for net in (CRAY_ARIES, ETHERNET_10G):
            times = [model_allgather(net, 8, b)
                     for b in (0, 10, 10**3, 10**6, 10**9)]
            assert all(a < b for a, b in zip(times, times[1:]))

    def test_zero_bytes_costs_only_latency(self):
        net = Network("toy", latency_s=1e-6, bandwidth_gbs=1.0)
        assert model_allgather(net, 8, 0) == pytest.approx(3e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            model_allgather(CRAY_ARIES, 4, -1)


class TestPartitionValidation:
    def test_work_per_rank_conserves_total(self):
        cl = np.array([5, 0, 3, 7, 1, 2, 9, 4], dtype=np.int64)
        for ranks in (1, 3, 8, 11):
            for p in (Partition1D.blocks(cl.size, ranks),
                      Partition1D.balanced(cl, ranks)):
                w = p.work_per_rank(cl)
                assert w.size == ranks
                assert w.sum() == cl.sum()

    def test_balanced_zero_work_falls_back_to_blocks(self):
        p = Partition1D.balanced(np.zeros(6, dtype=np.int64), 3)
        assert p.ranks == 3
        assert np.concatenate([p.chunks_of(r) for r in range(3)]).size == 6

    def test_owner_out_of_declared_ranks(self):
        with pytest.raises(ValueError, match="rank"):
            Partition1D(np.array([0, 5]), ranks=2)

    def test_negative_owner_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Partition1D(np.array([0, -1]))

    def test_mismatched_cl_length(self):
        p = Partition1D.blocks(4, 2)
        with pytest.raises(ValueError, match="chunks"):
            p.work_per_rank(np.ones(5, dtype=np.int64))


class TestWeightedBalanced:
    """Heterogeneous ranks: ``Partition1D.balanced(weights=...)``."""

    CLS = (
        np.array([5, 0, 3, 7, 1, 2, 9, 4], dtype=np.int64),
        np.arange(1, 40, dtype=np.int64),
        np.ones(16, dtype=np.int64),
        np.array([1000, 1, 1, 1, 1, 1], dtype=np.int64),
    )

    def test_uniform_weights_reproduce_unweighted_splits(self):
        # The heterogeneity hook must be a strict generalization: any
        # uniform weight vector yields the unweighted owner array
        # bit-for-bit, for every workload shape and rank count.
        for cl in self.CLS:
            for ranks in (1, 2, 3, 5, 8):
                base = Partition1D.balanced(cl, ranks)
                for w in (1.0, 3.0, 0.25):
                    p = Partition1D.balanced(
                        cl, ranks, weights=np.full(ranks, w))
                    np.testing.assert_array_equal(p.owner, base.owner)

    def test_fast_rank_carries_proportional_work(self):
        cl = np.ones(400, dtype=np.int64)
        p = Partition1D.balanced(cl, 3, weights=np.array([2.0, 1.0, 1.0]))
        work = p.work_per_rank(cl)
        # Rank 0 is twice as fast: ~half the work; others ~a quarter each.
        assert abs(work[0] - 200) <= 2
        assert abs(work[1] - 100) <= 2 and abs(work[2] - 100) <= 2

    def test_weighted_bands_stay_contiguous_and_total(self):
        cl = np.array([5, 0, 3, 7, 1, 2, 9, 4], dtype=np.int64)
        p = Partition1D.balanced(cl, 3, weights=np.array([1.0, 4.0, 2.0]))
        assert p.work_per_rank(cl).sum() == cl.sum()
        assert np.all(np.diff(p.owner) >= 0)  # contiguous bands

    def test_weight_validation(self):
        cl = np.ones(8, dtype=np.int64)
        with pytest.raises(ValueError, match="one entry per rank"):
            Partition1D.balanced(cl, 3, weights=np.ones(2))
        with pytest.raises(ValueError, match="positive"):
            Partition1D.balanced(cl, 2, weights=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            Partition1D.balanced(cl, 2, weights=np.array([1.0, np.inf]))

    def test_zero_work_ignores_weights(self):
        p = Partition1D.balanced(np.zeros(6, dtype=np.int64), 3,
                                 weights=np.array([5.0, 1.0, 1.0]))
        assert p.ranks == 3 and p.nchunks == 6  # blocks fallback


class TestColumnSplit:
    """The 2D per-block chunk lengths partition the local work sensibly."""

    def test_single_block_recovers_cl(self):
        g = path_graph(16)
        rep = SlimSell(g, 4, g.n)
        cl2d = column_split_lengths(rep, 1)
        assert np.array_equal(cl2d[:, 0], rep.cl)

    def test_blocks_bound_cl(self):
        g = two_components()
        rep = SlimSell(g, 4, g.n)
        for nblocks in (2, 3, 5):
            cl2d = column_split_lengths(rep, nblocks)
            assert cl2d.shape == (rep.nc, nblocks)
            # Per-block lengths never exceed, and jointly cover, cl.
            assert (cl2d.max(axis=1) <= rep.cl).all()
            assert (cl2d.sum(axis=1) >= rep.cl).all()
