"""Tests of SlimSell (§III-B): markers, derived values, storage halving."""

import numpy as np
import pytest

from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.bfs.operator import SlimSpMV
from repro.bfs.spmv import BFSSpMV
from repro.bfs.traditional import bfs_top_down
from repro.exec import BACKENDS, ExecMultiSourceBFS
from repro.formats.sell import PAD, SellCSigma
from repro.formats.slimsell import SlimSell
from repro.graphs.kronecker import kronecker
from repro.semirings.base import get_semiring

from conftest import SEMIRING_NAMES, path_graph, star_graph


class TestMarkers:
    def test_col_keeps_pad_markers(self):
        g = star_graph(5)
        slim = SlimSell(g, C=8, sigma=5)
        assert (slim.col == PAD).sum() == slim.padding_slots

    def test_edge_entries_are_column_indices(self):
        g = path_graph(6)
        slim = SlimSell(g, C=4, sigma=1)
        real = slim.col[slim.col != PAD]
        assert real.min() >= 0 and real.max() < g.n

    def test_derived_values_match_sell(self):
        g = kronecker(7, 4, seed=5)
        sell = SellCSigma(g, C=8, sigma=g.n)
        slim = SlimSell.from_sell(sell)
        for name in ("tropical", "boolean", "real", "sel-max"):
            sr = get_semiring(name)
            np.testing.assert_array_equal(slim.val_for(sr), sell.val_for(sr))


class TestNoValInTheEngines:
    """§III-B: SlimSell stores no ``val``, and its BFS engines build none."""

    @pytest.fixture()
    def slim(self, monkeypatch):
        def refuse(self, semiring):
            raise AssertionError("a SlimSell engine materialized val")

        g = kronecker(8, 8, seed=7)
        rep = SlimSell(g, C=8, sigma=g.n)
        monkeypatch.setattr(SlimSell, "val_for", refuse)
        return rep

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_bfs_engines(self, slim, semiring):
        g = slim.graph_original
        roots = [0, 5, 9]
        want = [bfs_top_down(g, r).dist for r in roots]
        runs = [
            [BFSSpMV(slim, semiring, slimwork=True).run(r) for r in roots],
            MultiSourceBFS(slim, semiring, slimwork=True).run(roots),
            MultiSourceHybridBFS(slim, semiring).run(roots),
        ]
        for backend in BACKENDS:
            with ExecMultiSourceBFS(slim, semiring, workers=2, backend=backend) as ex:
                runs.append(ex.run(roots))
        if semiring == "tropical":
            runs.append([bfs_hybrid(slim, r) for r in roots])
        for results in runs:
            for res, dist in zip(results, want):
                np.testing.assert_array_equal(res.dist, dist)

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_operator(self, slim, semiring):
        sell = SellCSigma(slim.graph_original, C=8, sigma=slim.n)
        x = np.random.default_rng(1).random((slim.n, 3))
        np.testing.assert_array_equal(
            SlimSpMV(slim, semiring).matmat(x), SlimSpMV(sell, semiring).matmat(x)
        )


class TestSharedLayout:
    def test_from_sell_shares_geometry(self):
        g = kronecker(7, 4, seed=1)
        sell = SellCSigma(g, C=8, sigma=64)
        slim = SlimSell.from_sell(sell)
        assert slim._layout is sell._layout
        assert np.array_equal(slim.cs, sell.cs)
        assert np.array_equal(slim.cl, sell.cl)
        assert np.array_equal(slim.perm, sell.perm)

    def test_direct_construction_equivalent(self):
        g = kronecker(7, 4, seed=1)
        a = SlimSell(g, C=8, sigma=64)
        b = SlimSell.from_sell(SellCSigma(g, C=8, sigma=64))
        assert np.array_equal(a.col, b.col)
        assert np.array_equal(a.cs, b.cs)

    def test_has_val_flags(self):
        g = path_graph(4)
        assert SellCSigma(g, C=4).has_val is True
        assert SlimSell(g, C=4).has_val is False


class TestStorage:
    def test_table_iii_formula(self):
        g = kronecker(8, 4, seed=0)
        slim = SlimSell(g, C=8, sigma=g.n)
        nc2 = 2 * slim.nc
        assert slim.storage_cells() == 2 * g.m + nc2 + slim.padding_slots
        assert slim.padding_cells == slim.padding_slots

    def test_half_of_sell_for_small_padding(self):
        # §III-B: reduction factor up to (m+n)/(2m+n), i.e. ~50% for m >> n.
        g = kronecker(10, 16, seed=3)
        sell = SellCSigma(g, C=8, sigma=g.n)
        slim = SlimSell.from_sell(sell)
        ratio = slim.storage_cells() / sell.storage_cells()
        assert 0.5 <= ratio < 0.56

    def test_inequality_3_dense_graph_beats_al(self):
        # P < n(1 - 2/C) => SlimSell smaller than AL (2m + n cells).
        g = kronecker(10, 16, seed=3)
        slim = SlimSell(g, C=8, sigma=g.n)
        al_cells = 2 * g.m + g.n
        if slim.padding_slots < g.n * (1 - 2 / 8):
            assert slim.storage_cells() < al_cells

    def test_unsorted_padding_can_lose_to_al(self):
        # With sigma=1 on a skewed graph, padding blows past inequality (3).
        g = kronecker(9, 2, seed=8)
        slim = SlimSell(g, C=8, sigma=1)
        al_cells = 2 * g.m + g.n
        assert slim.padding_slots > g.n * (1 - 2 / 8)
        assert slim.storage_cells() > al_cells

    @pytest.mark.parametrize("C", [4, 8, 16, 32])
    def test_always_smaller_than_sell(self, C):
        g = kronecker(8, 8, seed=2)
        sell = SellCSigma(g, C=C, sigma=g.n)
        slim = SlimSell.from_sell(sell)
        assert slim.storage_cells() < sell.storage_cells()
