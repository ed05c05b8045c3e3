"""Tests of graph utilities: components, pseudo-diameter, degree stats."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bfs.direction_opt import bfs_direction_optimizing
from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.traditional import bfs_top_down
from repro.formats.slimsell import SlimSell
from repro.graphs.erdos_renyi import erdos_renyi_nm
from repro.graphs.graph import Graph, _first_unique
from repro.graphs.kronecker import kronecker
from repro.graphs.realworld import grid_road
from repro.graphs.utils import (
    _bfs_levels,
    connected_components,
    degree_stats,
    largest_component,
    pseudo_diameter,
)

from conftest import complete_graph, cycle_graph, path_graph, star_graph, two_components


class TestConnectedComponents:
    def test_single_component(self):
        lab = connected_components(cycle_graph(6))
        assert np.all(lab == lab[0])

    def test_two_components_plus_isolate(self):
        lab = connected_components(two_components())
        assert len(np.unique(lab)) == 3
        assert lab[0] == lab[3]       # K4
        assert lab[4] == lab[7]       # path
        assert lab[0] != lab[4] != lab[8]

    def test_edgeless(self):
        lab = connected_components(Graph.empty(4))
        assert len(np.unique(lab)) == 4


class TestLargestComponent:
    def test_extracts_k4(self):
        g = largest_component(two_components())
        assert g.n == 4 and g.m == 6

    def test_connected_graph_unchanged_in_size(self):
        g = largest_component(cycle_graph(8))
        assert g.n == 8 and g.m == 8


class TestPseudoDiameter:
    def test_path(self):
        assert pseudo_diameter(path_graph(17)) == 16

    def test_cycle(self):
        assert pseudo_diameter(cycle_graph(12)) == 6

    def test_star(self):
        assert pseudo_diameter(star_graph(20)) == 2

    def test_complete(self):
        assert pseudo_diameter(complete_graph(5)) == 1

    def test_empty(self):
        assert pseudo_diameter(Graph.empty(3)) == 0
        assert pseudo_diameter(Graph.empty(0)) == 0


class TestDegreeStats:
    def test_star(self):
        s = degree_stats(star_graph(10))
        assert s.n == 10 and s.m == 9
        assert s.max == 9
        assert s.median == 1.0

    def test_empty(self):
        s = degree_stats(Graph.empty(0))
        assert s.n == 0 and s.avg == 0.0


# Digests of each traversal's (dist, parent) from roots 0, 1, n // 2 and
# n - 1 (levels: the hop vector), read while these traversals still called
# np.unique once per level; the sort-based dedupe must reproduce them.
TRAVERSAL_GRAPHS = {
    "kronecker": lambda: kronecker(10, 16, seed=3),
    "er": lambda: erdos_renyi_nm(1001, 4000, 5),
    "grid": lambda: grid_road(1024, 1.4, seed=2),
}
TRAVERSALS = {
    "top_down": lambda g, r: _tree(bfs_top_down(g, r)),
    "direction_opt": lambda g, r: _tree(bfs_direction_optimizing(g, r)),
    "hybrid": lambda g, r: _tree(bfs_hybrid(SlimSell(g, 8, g.n), r)),
    "levels": lambda g, r: (_bfs_levels(g, r),),
}
PINS = {
    ("kronecker", "top_down"): "4134db92052c908d7850b397f298affa",
    ("kronecker", "direction_opt"): "0299c38ae37b188f96a32c2dc63fb68b",
    ("kronecker", "hybrid"): "c08b0d3b0c8730dd702e882ce5cfe935",
    ("kronecker", "levels"): "9144b0e4322784e7887f5ff4a86ffd40",
    ("er", "top_down"): "9233ad9de752425eda2046bd8996c945",
    ("er", "direction_opt"): "023947430141f887e4ae4c471597913f",
    ("er", "hybrid"): "de47de2de7f229e2988d5d489d7371b2",
    ("er", "levels"): "e849376790286e9ff098dba6420fc3eb",
    ("grid", "top_down"): "d086b3ee2131d267b823b53deacf176c",
    ("grid", "direction_opt"): "d086b3ee2131d267b823b53deacf176c",
    ("grid", "hybrid"): "8c3d3142ddc6522d1d928fbdffa41c0c",
    ("grid", "levels"): "79e8cf53d1a6e80f52e1252cea16092b",
}


def _tree(res):
    return res.dist, res.parent


@pytest.mark.parametrize("graph_name, traversal", sorted(PINS))
def test_traversals_match_their_np_unique_pins(graph_name, traversal):
    g = TRAVERSAL_GRAPHS[graph_name]()
    h = hashlib.blake2b(digest_size=16)
    for root in (0, 1, g.n // 2, g.n - 1):
        for a in TRAVERSALS[traversal](g, root):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == PINS[graph_name, traversal]


@given(
    ids=hnp.arrays(
        st.sampled_from([np.int32, np.int64]),
        st.integers(0, 300),
        elements=st.integers(0, 99),
    )
)
@settings(max_examples=100, deadline=None)
def test_first_unique_is_np_unique_with_index(ids):
    want_ids, want_first = np.unique(ids, return_index=True)
    got_ids, got_first = _first_unique(ids)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_first, want_first)
    assert got_ids.dtype == want_ids.dtype
