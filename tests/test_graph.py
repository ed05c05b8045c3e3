"""Unit tests for the core Graph structure."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats.slimsell import SlimSell
from repro.graphs.graph import Graph
from repro.graphs.kronecker import kronecker
from repro.serve.cache import graph_fingerprint

from conftest import complete_graph, cycle_graph, path_graph, star_graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert np.array_equal(g.degrees, [1, 2, 2, 1])

    def test_self_loops_dropped(self):
        g = Graph.from_edges(3, [(0, 0), (0, 1), (2, 2)])
        assert g.m == 1
        assert not g.has_edge(0, 0)

    def test_duplicates_merged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.m == 2

    def test_neighbor_lists_sorted(self):
        g = Graph.from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        assert np.array_equal(g.neighbors(2), [0, 1, 3, 4])

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.n == 5
        assert g.m == 0
        assert g.avg_degree == 0.0
        assert g.max_degree == 0

    def test_empty_edge_list(self):
        g = Graph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert g.m == 0

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match=r"shape \(E, 2\)"):
            Graph.from_edges(3, np.zeros((2, 3), dtype=np.int64))

    def test_malformed_csr_rejected(self):
        with pytest.raises(ValueError, match="malformed CSR"):
            Graph(np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            Graph(np.array([0, 2, 1]), np.array([0]))


class TestProperties:
    def test_degrees_and_averages(self):
        g = star_graph(10)
        assert g.max_degree == 9
        assert g.avg_degree == pytest.approx(2 * 9 / 10)

    def test_has_edge(self):
        g = cycle_graph(6)
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 5)
        assert not g.has_edge(0, 3)

    def test_edges_roundtrip(self):
        g = complete_graph(6)
        e = g.edges()
        assert e.shape == (15, 2)
        assert (e[:, 0] < e[:, 1]).all()
        g2 = Graph.from_edges(6, e)
        assert g2 == g

    def test_to_scipy_symmetric(self):
        g = path_graph(5)
        a = g.to_scipy()
        assert (a != a.T).nnz == 0
        assert a.nnz == 2 * g.m

    def test_equality(self):
        assert path_graph(4) == path_graph(4)
        assert path_graph(4) != cycle_graph(4)
        assert path_graph(4).__eq__(42) is NotImplemented


class TestPermute:
    def test_identity_permutation(self):
        g = cycle_graph(8)
        assert g.permute(np.arange(8)) == g

    def test_reversal_preserves_structure(self):
        g = path_graph(5)
        perm = np.array([4, 3, 2, 1, 0])
        h = g.permute(perm)
        # old edge (0,1) -> new edge (4,3)
        assert h.has_edge(4, 3)
        assert h.has_edge(0, 1)  # old (4,3)
        assert h.m == g.m

    def test_random_permutation_isomorphic(self):
        rng = np.random.default_rng(0)
        g = complete_graph(5)
        perm = rng.permutation(5)
        h = g.permute(perm)
        assert h.m == g.m
        for u, v in g.edges():
            assert h.has_edge(perm[u], perm[v])

    def test_permute_keeps_neighbor_lists_sorted(self):
        rng = np.random.default_rng(3)
        g = Graph.from_edges(8, rng.integers(0, 8, size=(20, 2)))
        h = g.permute(rng.permutation(8))
        for v in range(8):
            nb = h.neighbors(v)
            assert np.array_equal(nb, np.sort(nb))

    def test_degree_multiset_preserved(self):
        rng = np.random.default_rng(5)
        g = Graph.from_edges(16, rng.integers(0, 16, size=(40, 2)))
        h = g.permute(rng.permutation(16))
        assert sorted(g.degrees) == sorted(h.degrees)

    def test_non_permutation_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="not a permutation"):
            g.permute(np.array([0, 0, 1, 2]))

    def test_wrong_length_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="shape"):
            g.permute(np.arange(3))

    def test_negative_ids_rejected(self):
        # -2 wraps to 2 under indexing, so every new id is "hit".
        g = path_graph(4)
        with pytest.raises(ValueError, match="not a permutation"):
            g.permute(np.array([3, 0, 1, -2]))

    def test_out_of_range_id_raises_index_error(self):
        g = path_graph(4)
        with pytest.raises(IndexError, match="out of bounds"):
            g.permute(np.array([0, 1, 2, 4]))

    def test_empty_graph(self):
        g = Graph.from_edges(0, np.empty((0, 2), dtype=np.int64))
        assert g.permute(np.empty(0, dtype=np.int64)) == g


# ----------------------------------------------------------------------
# Exact construction: the sort-once builders against the formulation they
# replaced, and the bytes of the graphs the benchmark and tests build.
# ----------------------------------------------------------------------
def _from_edges_reference(n, e):
    """``(indptr, indices)`` by hash unique, two-key lexsort and ``add.at``."""
    u, v = e[:, 0], e[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    key = np.unique(np.minimum(u, v) * np.int64(n) + np.maximum(u, v))
    lo, hi = key // n, key % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst[order].astype(np.int32)


def _permute_reference(g, perm):
    """``(indptr, indices)`` by gathering old rows, relabeling and lexsort."""
    n = g.n
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a permutation of range(n)")
    new_deg = g.degrees[inv]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=indptr[1:])
    starts = np.repeat(g.indptr[inv], new_deg)
    within = np.arange(g.indices.size) - np.repeat(indptr[:-1], new_deg)
    indices = perm[g.indices[starts + within]].astype(np.int32)
    row_of = np.repeat(np.arange(n, dtype=np.int64), new_deg)
    return indptr, indices[np.lexsort((indices, row_of))]


@st.composite
def messy_edges(draw):
    """``(n, edges)`` with duplicates, reverse duplicates and self-loops."""
    n = draw(st.integers(min_value=0, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 0:
        return 0, np.empty((0, 2), dtype=np.int64), rng
    base = rng.integers(0, n, size=(draw(st.integers(0, 150)), 2))
    loops = np.repeat(rng.integers(0, n, size=(draw(st.integers(0, 8)), 1)), 2, axis=1)
    e = np.concatenate([base,
                        base[rng.random(len(base)) < 0.3, ::-1],
                        base[rng.random(len(base)) < 0.3],
                        loops])
    return n, rng.permutation(e), rng


def _assert_csr_bytes(g, indptr, indices):
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert g.indptr.tobytes() == indptr.tobytes()
    assert g.indices.tobytes() == indices.tobytes()


class TestAgainstReference:
    SETTINGS = dict(deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

    @given(case=messy_edges())
    @settings(**SETTINGS)
    def test_from_edges_byte_identical(self, case):
        n, e, _ = case
        _assert_csr_bytes(Graph.from_edges(n, e), *_from_edges_reference(n, e))

    @given(case=messy_edges())
    @settings(**SETTINGS)
    def test_permute_byte_identical(self, case):
        n, e, rng = case
        g = Graph.from_edges(n, e)
        perm = rng.permutation(n)
        _assert_csr_bytes(g.permute(perm), *_permute_reference(g, perm))

    @given(case=messy_edges())
    @settings(**SETTINGS)
    def test_permute_rejects_what_reference_rejects(self, case):
        n, e, rng = case
        g = Graph.from_edges(n, e)
        perm = rng.permutation(n)
        if n:  # one id replaced by a duplicate, a wrapped or an out-of-range id
            perm[rng.integers(n)] = rng.integers(-n - 2, n + 2)
        try:
            want = _permute_reference(g, perm)
        except (IndexError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                g.permute(perm)
            assert str(got.value) == str(exc)
        else:
            _assert_csr_bytes(g.permute(perm), *want)


#: ``(scale, edgefactor, seed)`` → graph fingerprint and the BLAKE2b-16 of
#: the SlimSell C=16 layout's ``perm``, ``cs``, ``cl`` and ``col`` bytes.
#: (14, 16, 1) is the benchmark graph; a changed generator stream or build
#: changes every benchmark input.
PINNED = [
    ((10, 16, 1), "c9c55f41e2d877c387901f35dc194044", "f59551320ff7047614beff71d73930da"),
    ((14, 16, 1), "e8ba855779847e6c660eeb07acfb2869", "99cd15f7ae0cbd956c72176931cda34d"),
    ((12, 8, 7), "1908b1ca7898c0d1f694d89a7f9e962b", "e261f4e7422da5c223dea8fcfde657e1"),
]


@pytest.mark.parametrize("args, graph_digest, layout_digest", PINNED)
def test_pinned_kronecker_and_slimsell_bytes(args, graph_digest, layout_digest):
    scale, edgefactor, seed = args
    g = kronecker(scale, edgefactor, seed=seed)
    assert graph_fingerprint(g) == graph_digest
    rep = SlimSell(g, 16)
    h = hashlib.blake2b(digest_size=16)
    for a in (rep.perm, rep.cs, rep.cl, rep.col):
        h.update(a.tobytes())
    assert h.hexdigest() == layout_digest
