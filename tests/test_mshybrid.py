"""Batched direction-optimizing multi-source BFS: bit-identity & semantics.

The engine must be indistinguishable (distances, parents, roots) from every
other engine in the library — verified through the shared differential
oracle in :mod:`engines` — while its per-column push/pull decisions must
reproduce :func:`repro.bfs.hybrid.bfs_hybrid` exactly at B=1 and stay
invariant under root reordering and batch chopping.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.mshybrid import MultiSourceHybridBFS, bfs_mshybrid
from repro.formats.sell import SellCSigma
from repro.formats.slimsell import SlimSell
from repro.graphs.erdos_renyi import erdos_renyi_nm
from repro.graphs.graph import Graph
from repro.graphs.kronecker import kronecker

from conftest import SEMIRING_NAMES, two_components
from engines import assert_bfs_equivalent

SETTINGS = dict(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])


def _graph(name):
    if name == "kron":
        return kronecker(8, 8, seed=7)
    if name == "er":
        return erdos_renyi_nm(200, 800, seed=13)
    return two_components()


def _roots(g):
    cand = [0, int(np.argmax(g.degrees)), g.n // 2, g.n - 1]
    return np.unique(cand)


@st.composite
def random_graph_and_roots(draw, max_n=32, max_m=90, max_b=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, rng.integers(0, n, size=(m, 2)))
    b = draw(st.integers(min_value=1, max_value=max_b))
    roots = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=b, max_size=b))
    return g, np.asarray(roots, dtype=np.int64)


class TestBitIdentity:
    """The acceptance criterion: oracle equality across the engine zoo."""

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("graph_name", ["kron", "er", "disconnected"])
    def test_matches_every_engine(self, semiring, graph_name):
        g = _graph(graph_name)
        engines = ["traditional", "spmv-layer", "msbfs", "mshybrid"]
        if semiring == "tropical":
            engines.append("hybrid")
        results = assert_bfs_equivalent(g, _roots(g), semiring=semiring,
                                        engines=engines)
        # The oracle already pins distances to the reference and parents
        # within the derivation class; assert the batched engines' results
        # are bit-identical to the single-source layer engine, pairwise.
        for name in ("msbfs", "mshybrid"):
            for a, b in zip(results["spmv-layer"], results[name]):
                np.testing.assert_array_equal(a.dist, b.dist)
                np.testing.assert_array_equal(a.parent, b.parent)
                assert a.root == b.root

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_sell_rep_matches_too(self, kron_small, semiring):
        rep = SellCSigma(kron_small, 8, kron_small.n)
        roots = _roots(kron_small)
        assert_bfs_equivalent(kron_small, roots, semiring=semiring, rep=rep,
                              engines=["traditional", "spmv-layer",
                                       "mshybrid"])

    @pytest.mark.parametrize("C", [4, 16])
    def test_chunk_heights(self, kron_small, C):
        assert_bfs_equivalent(kron_small, _roots(kron_small), C=C,
                              engines=["traditional", "msbfs", "mshybrid"])


class TestDirectionSemantics:
    def test_b1_reproduces_bfs_hybrid_exactly(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        for root in _roots(kron_small):
            got = MultiSourceHybridBFS(rep, "tropical").run([int(root)])[0]
            ref = bfs_hybrid(rep, int(root))
            np.testing.assert_array_equal(got.dist, ref.dist)
            np.testing.assert_array_equal(got.parent, ref.parent)
            assert len(got.iterations) == len(ref.iterations)
            for a, b in zip(got.iterations, ref.iterations):
                assert a.direction == b.direction
                assert a.newly == b.newly
                assert a.chunks_processed == b.chunks_processed
                assert a.chunks_skipped == b.chunks_skipped
                assert a.work_lanes == b.work_lanes
                assert a.edges_examined == b.edges_examined

    def test_columns_switch_direction_independently(self):
        # A hub root floods the graph (pulls early); a degree-1 root on the
        # same graph keeps pushing longer — in the same batch.
        g = kronecker(10, 16, seed=1)
        rep = SlimSell(g, 8, g.n)
        hub = int(np.argmax(g.degrees))
        leaf = int(np.flatnonzero(g.degrees == g.degrees[g.degrees > 0].min())[0])
        res = MultiSourceHybridBFS(rep, "tropical").run([hub, leaf])
        dirs = [[it.direction for it in r.iterations] for r in res]
        assert dirs[0] != dirs[1]  # per-column, not per-batch, decisions
        assert "pull" in dirs[0] and dirs[0][0] == "push"

    def test_direction_labels_match_single_source(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        roots = _roots(kron_small)
        batched = MultiSourceHybridBFS(rep, "tropical").run(roots)
        for r, res in zip(roots, batched):
            ref = bfs_hybrid(rep, int(r))
            assert ([it.direction for it in res.iterations]
                    == [it.direction for it in ref.iterations])

    def test_method_label(self, kron_small):
        rep = SlimSell(kron_small, 8)
        assert MultiSourceHybridBFS(rep).run([0])[0].method == \
            "spmv-mshybrid+slimwork"
        assert MultiSourceHybridBFS(rep, slimwork=False).run([0])[0].method \
            == "spmv-mshybrid"


class TestRunSeam:
    """perfbench's probe wraps ``run`` in the body of each engine class;
    one engine's ``run`` calling another's would nest two ``bfs.run``
    spans and count every batch twice."""

    def test_each_engine_defines_run(self):
        assert "run" in vars(MultiSourceBFS)
        assert "run" in vars(MultiSourceHybridBFS)

    def test_run_does_not_go_through_msbfs_run(self, kron_small,
                                                monkeypatch):
        def refuse(self, roots):
            raise AssertionError("MultiSourceBFS.run was called")

        rep = SlimSell(kron_small, 8, kron_small.n)
        want = MultiSourceHybridBFS(rep, "sel-max").run([0, 5])
        monkeypatch.setattr(MultiSourceBFS, "run", refuse)
        got = MultiSourceHybridBFS(rep, "sel-max").run([0, 5])
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.parent, b.parent)

    def test_hybrid_has_no_msbfs_only_options(self, kron_small):
        eng = MultiSourceHybridBFS(SlimSell(kron_small, 8))
        assert not isinstance(eng, MultiSourceBFS)
        assert not hasattr(eng, "counting")
        assert not hasattr(eng, "batch_counters")


class TestProperties:
    """Hypothesis: invariance to root order and batch width."""

    @given(gr=random_graph_and_roots())
    @settings(**SETTINGS)
    def test_invariant_to_root_order(self, gr):
        g, roots = gr
        rep = SlimSell(g, 4, g.n)
        eng = MultiSourceHybridBFS(rep, "tropical")
        fwd = eng.run(roots)
        rev = eng.run(roots[::-1])
        for a, b in zip(fwd, rev[::-1]):
            assert a.root == b.root
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.parent, b.parent)
            assert ([it.direction for it in a.iterations]
                    == [it.direction for it in b.iterations])
            assert ([it.newly for it in a.iterations]
                    == [it.newly for it in b.iterations])

    @given(gr=random_graph_and_roots(), batch=st.integers(1, 7),
           semiring=st.sampled_from(SEMIRING_NAMES))
    @settings(**SETTINGS)
    def test_invariant_to_batch_width(self, gr, batch, semiring):
        g, roots = gr
        full = bfs_mshybrid(g, roots, semiring, C=4)
        chopped = bfs_mshybrid(g, roots, semiring, C=4, batch=batch)
        for a, b in zip(full, chopped):
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.parent, b.parent)
            assert ([it.direction for it in a.iterations]
                    == [it.direction for it in b.iterations])

    @given(gr=random_graph_and_roots(max_b=1))
    @settings(**SETTINGS)
    def test_b1_column_equals_bfs_hybrid(self, gr):
        g, roots = gr
        rep = SlimSell(g, 4, g.n)
        got = MultiSourceHybridBFS(rep, "tropical").run(roots)[0]
        ref = bfs_hybrid(rep, int(roots[0]))
        np.testing.assert_array_equal(got.dist, ref.dist)
        np.testing.assert_array_equal(got.parent, ref.parent)
        assert ([(it.direction, it.newly) for it in got.iterations]
                == [(it.direction, it.newly) for it in ref.iterations])


class TestEdgeCases:
    def test_duplicate_roots(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        res = MultiSourceHybridBFS(rep, "sel-max").run([5, 5, 5])
        ref = MultiSourceBFS(rep, "sel-max", slimwork=True).run([5])[0]
        for r in res:
            assert r.root == 5
            np.testing.assert_array_equal(r.dist, ref.dist)
            np.testing.assert_array_equal(r.parent, ref.parent)

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_isolated_root_terminates_immediately(self, disconnected,
                                                  semiring):
        g = disconnected  # vertex 8 is isolated
        rep = SlimSell(g, 4, g.n)
        res = MultiSourceHybridBFS(rep, semiring).run([8, 0])
        iso = res[0]
        assert iso.reached == 1 and iso.dist[8] == 0
        assert len(iso.iterations) == 1 and iso.iterations[0].newly == 0

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_disconnected_graph_oracle_equal(self, disconnected, semiring):
        assert_bfs_equivalent(disconnected, [0, 4, 8], C=4,
                              semiring=semiring,
                              engines=["traditional", "spmv-layer",
                                       "msbfs", "mshybrid"])

    def test_batch_wider_than_roots(self, disconnected):
        g = disconnected
        res = bfs_mshybrid(g, [0, 4], "tropical", C=4, batch=64)
        ref = bfs_mshybrid(g, [0, 4], "tropical", C=4)
        assert len(res) == 2
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.dist, b.dist)

    def test_batch_chops_like_msbfs_convenience(self, kron_small):
        roots = [0, 1, 2, 3, 4]
        res = bfs_mshybrid(kron_small, roots, "tropical", C=8, batch=2)
        assert len(res) == 5
        ref = bfs_mshybrid(kron_small, roots, "tropical", C=8)
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.dist, b.dist)

    def test_tiny_alpha_forces_all_push(self, disconnected):
        # Root 4's component never explores the K4's edges, so unexplored
        # mass stays positive and α→0 keeps every iteration in push.
        rep = SlimSell(disconnected, 4, disconnected.n)
        res = MultiSourceHybridBFS(rep, "tropical", alpha=1e-12).run([4, 0])
        assert all(it.direction == "push"
                   for r in res for it in r.iterations)
        assert_bfs_equivalent(disconnected, [4, 0], C=4, alpha=1e-12,
                              engines=["traditional", "mshybrid"])

    def test_huge_alpha_forces_all_pull(self, disconnected):
        rep = SlimSell(disconnected, 4, disconnected.n)
        res = MultiSourceHybridBFS(rep, "tropical", alpha=1e12).run([4, 0])
        assert all(it.direction == "pull"
                   for r in res for it in r.iterations)
        assert_bfs_equivalent(disconnected, [4, 0], C=4, alpha=1e12,
                              engines=["traditional", "mshybrid"])

    def test_exhausted_component_pulls_regardless_of_alpha(self, kron_small):
        # Once a column has explored every edge (m_u = 0), Beamer's rule
        # pulls even with tiny α — exactly like bfs_hybrid.
        rep = SlimSell(kron_small, 8, kron_small.n)
        root = int(np.argmax(kron_small.degrees))
        got = MultiSourceHybridBFS(rep, "tropical", alpha=1e-12).run([root])[0]
        ref = bfs_hybrid(rep, root, alpha=1e-12)
        assert ([it.direction for it in got.iterations]
                == [it.direction for it in ref.iterations])

    def test_alpha_validation(self, kron_small):
        rep = SlimSell(kron_small, 8)
        with pytest.raises(ValueError, match="alpha"):
            MultiSourceHybridBFS(rep, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            MultiSourceHybridBFS(rep, alpha=-3.0)

    def test_root_validation(self, kron_small):
        rep = SlimSell(kron_small, 8)
        eng = MultiSourceHybridBFS(rep)
        with pytest.raises(ValueError, match="out of range"):
            eng.run([0, kron_small.n])
        with pytest.raises(ValueError, match="non-empty"):
            eng.run([])
        with pytest.raises(ValueError, match="batch"):
            bfs_mshybrid(kron_small, [0], batch=0)

    def test_results_ordered_like_roots(self, kron_small):
        rep = SlimSell(kron_small, 8)
        roots = [9, 2, 40]
        res = MultiSourceHybridBFS(rep).run(roots)
        assert [r.root for r in res] == roots


class TestIterationStatsContract:
    """The explicit push/pull counter contract (shared with bfs_hybrid)."""

    @staticmethod
    def _check(res, nc, C):
        for it in res.iterations:
            assert it.direction in ("push", "pull")
            if it.direction == "push":
                assert it.chunks_processed == 0 and it.chunks_skipped == 0
                assert it.work_lanes == it.edges_examined
            else:
                assert it.edges_examined == 0
                assert it.chunks_processed + it.chunks_skipped == nc
                assert it.work_lanes % C == 0

    def test_bfs_hybrid_contract(self):
        g = kronecker(10, 16, seed=3)
        rep = SlimSell(g, 8, g.n)
        res = bfs_hybrid(rep, int(np.argmax(g.degrees)))
        dirs = {it.direction for it in res.iterations}
        assert dirs == {"push", "pull"}  # both branches exercised
        self._check(res, rep.nc, rep.C)
        # Push work is real: a non-final push iteration examined edges.
        pushes = [it for it in res.iterations if it.direction == "push"]
        assert any(it.edges_examined > 0 for it in pushes)

    def test_mshybrid_contract(self):
        g = kronecker(10, 16, seed=3)
        rep = SlimSell(g, 8, g.n)
        for res in MultiSourceHybridBFS(rep, "tropical").run(
                [int(np.argmax(g.degrees)), 0]):
            self._check(res, rep.nc, rep.C)

    def test_pull_uses_slimwork_pruning(self):
        g = kronecker(10, 16, seed=4)
        rep = SlimSell(g, 8, g.n)
        res = MultiSourceHybridBFS(rep, "tropical").run(
            [int(np.argmax(g.degrees))])[0]
        pulls = [it for it in res.iterations if it.direction == "pull"]
        assert pulls and any(it.chunks_skipped > 0 for it in pulls)
