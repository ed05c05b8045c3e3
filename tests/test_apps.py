"""Tests of the application layer (betweenness, PageRank, connectivity)."""

import numpy as np
import pytest

from repro.apps.betweenness import betweenness_centrality
from repro.apps.connectivity import Reachability, components_via_bfs
from repro.apps.pagerank import pagerank
from repro.formats.slimsell import SlimSell
from repro.graphs.graph import Graph
from repro.graphs.kronecker import kronecker
from repro.graphs.utils import connected_components

from conftest import complete_graph, cycle_graph, path_graph, star_graph, two_components


def _nx_graph(g: Graph):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(map(tuple, g.edges()))
    return G


class TestBetweenness:
    def test_path_graph_closed_form(self):
        # On a path, BC of interior vertex i (normalized) is known exactly.
        g = path_graph(7)
        bc = betweenness_centrality(g, C=4)
        import networkx as nx

        want = nx.betweenness_centrality(_nx_graph(g))
        np.testing.assert_allclose(bc, [want[v] for v in range(7)], atol=1e-12)

    def test_star_center_dominates(self):
        bc = betweenness_centrality(star_graph(9), C=4)
        assert bc[0] == pytest.approx(1.0)
        np.testing.assert_allclose(bc[1:], 0.0)

    def test_cycle_uniform(self):
        bc = betweenness_centrality(cycle_graph(8), C=4)
        np.testing.assert_allclose(bc, bc[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_networkx_on_kronecker(self, seed):
        import networkx as nx

        g = kronecker(6, 4, seed=seed)
        bc = betweenness_centrality(g, C=8)
        want = nx.betweenness_centrality(_nx_graph(g))
        np.testing.assert_allclose(bc, [want[v] for v in range(g.n)],
                                   atol=1e-10)

    def test_disconnected(self):
        import networkx as nx

        g = two_components()
        bc = betweenness_centrality(g, C=4)
        want = nx.betweenness_centrality(_nx_graph(g))
        np.testing.assert_allclose(bc, [want[v] for v in range(g.n)],
                                   atol=1e-12)

    def test_sampled_sources_approximate(self):
        g = kronecker(7, 8, seed=3)
        exact = betweenness_centrality(g, C=8)
        approx = betweenness_centrality(
            g, C=8, sources=np.arange(0, g.n, 2))
        # Sampled estimator correlates strongly with the exact ranking.
        corr = np.corrcoef(exact, approx)[0, 1]
        assert corr > 0.9

    def test_accepts_prebuilt_rep(self):
        g = path_graph(5)
        rep = SlimSell(g, 4, g.n)
        np.testing.assert_allclose(
            betweenness_centrality(rep), betweenness_centrality(g, C=4))

    def test_unnormalized(self):
        g = path_graph(4)  # pairs through vertex 1: (0,2), (0,3) -> 2
        bc = betweenness_centrality(g, C=4, normalized=False)
        assert bc[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("batch", [2, 8, 1024])
    def test_batched_matches_sequential(self, batch):
        g = kronecker(7, 6, seed=9)
        seq = betweenness_centrality(g, C=8, batch=1)
        bat = betweenness_centrality(g, C=8, batch=batch)
        np.testing.assert_allclose(bat, seq, atol=1e-12)

    def test_batched_sampled_sources(self):
        g = kronecker(7, 6, seed=9)
        srcs = np.arange(0, g.n, 3)
        seq = betweenness_centrality(g, C=8, sources=srcs, batch=1)
        bat = betweenness_centrality(g, C=8, sources=srcs, batch=16)
        np.testing.assert_allclose(bat, seq, atol=1e-12)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="batch"):
            betweenness_centrality(path_graph(4), C=4, batch=0)

    @pytest.mark.parametrize("batch", [None, 1])
    @pytest.mark.parametrize("sources", [16, 0, [[0, 1], [2, 3]]])
    def test_sources_must_be_1d(self, batch, sources):
        # One contract on the batched and the per-source path: a scalar
        # or a 2-D block is refused by name, not by a numpy TypeError.
        with pytest.raises(ValueError, match="sources must be a 1-D"):
            betweenness_centrality(path_graph(6), C=4, sources=sources,
                                   batch=batch)


class TestPageRank:
    def test_sums_to_one(self, kron_small):
        pr = pagerank(kron_small, C=8)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_networkx(self):
        import networkx as nx

        g = kronecker(7, 4, seed=5)
        pr = pagerank(g, C=8, alpha=0.85, tol=1e-12)
        want = nx.pagerank(_nx_graph(g), alpha=0.85, tol=1e-12, max_iter=500)
        np.testing.assert_allclose(pr, [want[v] for v in range(g.n)],
                                   atol=1e-8)

    def test_cycle_uniform(self):
        pr = pagerank(cycle_graph(10), C=4)
        np.testing.assert_allclose(pr, 0.1, atol=1e-9)

    def test_hub_ranks_highest(self):
        pr = pagerank(star_graph(12), C=4)
        assert pr.argmax() == 0

    def test_dangling_vertices_handled(self):
        g = Graph.from_edges(4, [(0, 1)])  # vertices 2, 3 isolated
        pr = pagerank(g, C=4)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)
        assert pr[2] == pytest.approx(pr[3])

    def test_alpha_validation(self, kron_small):
        with pytest.raises(ValueError, match="alpha"):
            pagerank(kron_small, alpha=1.5)

    def test_nonconvergence_raises(self, kron_small):
        with pytest.raises(RuntimeError, match="converge"):
            pagerank(kron_small, C=8, tol=0.0, max_iters=2)

    def test_empty_graph(self):
        assert pagerank(Graph.empty(0)).size == 0


class TestConnectivity:
    def test_components_match_reference(self, kron_small):
        ours = components_via_bfs(kron_small, C=8)
        ref = connected_components(kron_small)
        # Same partition (labels may differ): bijection between label sets.
        pairs = set(zip(ours.tolist(), ref.tolist()))
        assert len(pairs) == len(set(ours.tolist())) == len(set(ref.tolist()))

    def test_two_components_plus_isolate(self):
        lab = components_via_bfs(two_components(), C=4)
        assert len(set(lab.tolist())) == 3

    def test_complete_graph_single_component(self):
        lab = components_via_bfs(complete_graph(6), C=4)
        assert np.all(lab == lab[0])

    @pytest.mark.parametrize("batch", [2, 4, 64])
    def test_batched_labels_identical_to_sequential(self, batch):
        g = kronecker(8, 2, seed=1)  # sparse: many components + isolates
        seq = components_via_bfs(g, C=8, batch=1)
        bat = components_via_bfs(g, C=8, batch=batch)
        np.testing.assert_array_equal(seq, bat)

    def test_batched_two_components_plus_isolate(self):
        lab = components_via_bfs(two_components(), C=4, batch=8)
        np.testing.assert_array_equal(
            lab, components_via_bfs(two_components(), C=4, batch=1))

    def test_connectivity_batch_validation(self):
        with pytest.raises(ValueError, match="batch"):
            components_via_bfs(path_graph(4), C=4, batch=0)

    def test_reachability_oracle(self):
        g = two_components()
        r = Reachability(g, C=4)
        assert r.reachable(0, 3)
        assert not r.reachable(0, 5)
        assert r.hops(4, 7) == 3
        assert r.hops(0, 8) is None
        assert r.cached_sources == 2  # sources 0 and 4

    def test_reachability_cache_reused(self):
        g = path_graph(6)
        r = Reachability(g, C=4)
        d1 = r.distances_from(0)
        d2 = r.distances_from(0)
        assert d1 is d2
