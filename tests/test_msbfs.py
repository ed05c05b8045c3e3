"""Bit-identity and batching semantics of the multi-source BFS engine.

The batched SpMM sweep must be indistinguishable — distances, parents,
iteration profiles, synthesized instruction counters — from running the
single-source layer and chunk engines once per root.  Distance/parent
equivalence runs through the shared cross-engine oracle (:mod:`engines`);
the iteration-profile and counter comparisons stay engine-specific.
"""

import numpy as np
import pytest

from repro.bfs.msbfs import MultiSourceBFS, bfs_msbfs
from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.bfs.operator import SlimSpMV
from repro.bfs.spmv import BFSSpMV, synthesize_counters
from repro.exec.engine import ExecMultiSourceBFS
from repro.formats.sell import SellCSigma
from repro.formats.slimsell import SlimSell
from repro.graphs.erdos_renyi import erdos_renyi_nm
from repro.graphs.kronecker import kronecker
from repro.semirings.base import get_semiring

from conftest import SEMIRING_NAMES, two_components
from engines import assert_bfs_equivalent


def _graph(name):
    if name == "kron":
        return kronecker(8, 8, seed=7)
    if name == "er":
        return erdos_renyi_nm(200, 800, seed=13)
    return two_components()


def _roots(g):
    # A spread of roots, including the highest-degree vertex and vertex 0.
    cand = [0, int(np.argmax(g.degrees)), g.n // 2, g.n - 1]
    return np.unique(cand)


class TestBitIdentity:
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("C", [4, 8, 16])
    @pytest.mark.parametrize("graph_name", ["kron", "er", "disconnected"])
    def test_matches_layer_engine(self, semiring, C, graph_name):
        g = _graph(graph_name)
        roots = _roots(g)
        results = assert_bfs_equivalent(
            g, roots, semiring=semiring, C=C,
            engines=["traditional", "spmv-layer", "msbfs"])
        # Beyond the oracle: per-iteration profiles must match exactly.
        for res, ref in zip(results["msbfs"], results["spmv-layer"]):
            np.testing.assert_array_equal(res.dist, ref.dist)
            np.testing.assert_array_equal(res.parent, ref.parent)
            assert len(res.iterations) == len(ref.iterations)
            for a, b in zip(res.iterations, ref.iterations):
                assert a.newly == b.newly
                assert a.chunks_processed == b.chunks_processed
                assert a.chunks_skipped == b.chunks_skipped
                assert a.work_lanes == b.work_lanes

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("slimwork", [False, True])
    def test_matches_chunk_engine(self, kron_small, semiring, slimwork):
        roots = _roots(kron_small)
        results = assert_bfs_equivalent(
            kron_small, roots, semiring=semiring, slimwork=slimwork,
            engines=["spmv-chunk", "msbfs"])
        for res, ref in zip(results["msbfs"], results["spmv-chunk"]):
            np.testing.assert_array_equal(res.dist, ref.dist)
            np.testing.assert_array_equal(res.parent, ref.parent)

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_sell_rep_matches_too(self, kron_small, semiring):
        rep = SellCSigma(kron_small, 8, kron_small.n)
        roots = _roots(kron_small)
        assert_bfs_equivalent(kron_small, roots, semiring=semiring, rep=rep,
                              slimwork=False,
                              engines=["traditional", "spmv-layer", "msbfs"])


class TestCounterSynthesis:
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    @pytest.mark.parametrize("slimwork", [False, True])
    def test_per_source_counters_match_chunk_engine(self, kron_small,
                                                    semiring, slimwork):
        """Each column's synthesized counters equal the instruction-counted
        single-source chunk engine's — batching is free of modeling drift."""
        rep = SlimSell(kron_small, 8, kron_small.n)
        roots = np.array([3, 10])
        batched = MultiSourceBFS(rep, semiring, slimwork=slimwork,
                                 counting=True).run(roots)
        for r, res in zip(roots, batched):
            ref = BFSSpMV(rep, semiring, engine="chunk", counting=True,
                          slimwork=slimwork).run(int(r))
            for a, b in zip(res.iterations, ref.iterations):
                assert a.counters.instructions == b.counters.instructions
                assert a.counters.words_loaded == b.counters.words_loaded
                assert a.counters.words_stored == b.counters.words_stored
                assert a.counters.gather_words == b.counters.gather_words

    def test_batch_dimension_amortizes_operand_streams(self):
        """synthesize_counters(batch=B) must charge the col stream once:
        strictly cheaper than B independent single-source iterations."""
        sr = get_semiring("tropical")
        single = synthesize_counters(sr, 8, True, 4, 0, 20, False)
        batched = synthesize_counters(sr, 8, True, 4, 0, 20, False, batch=8)
        assert batched.instructions["LOAD"] < 8 * single.instructions["LOAD"]
        # Gathers and compute lanes still scale with B.
        assert batched.instructions["GATHER"] == 8 * single.instructions["GATHER"]
        assert batched.instructions["MIN"] == 8 * single.instructions["MIN"]

    def test_batch_one_is_exact_single_source_model(self):
        sr = get_semiring("sel-max")
        a = synthesize_counters(sr, 16, True, 3, 2, 11, True)
        b = synthesize_counters(sr, 16, True, 3, 2, 11, True, batch=1)
        assert a.instructions == b.instructions
        assert a.words_loaded == b.words_loaded

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="batch"):
            synthesize_counters(get_semiring("tropical"), 8, True, 1, 0, 1,
                                False, batch=0)


class TestEdgeCases:
    def test_duplicate_roots(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        res = MultiSourceBFS(rep, "sel-max", slimwork=True).run([5, 5, 5])
        ref = BFSSpMV(rep, "sel-max", slimwork=True).run(5)
        for r in res:
            np.testing.assert_array_equal(r.dist, ref.dist)
            np.testing.assert_array_equal(r.parent, ref.parent)

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_isolated_root_terminates_immediately(self, disconnected,
                                                  semiring):
        g = disconnected  # vertex 8 is isolated
        rep = SlimSell(g, 4, g.n)
        res = MultiSourceBFS(rep, semiring, slimwork=True).run([8, 0])
        iso = res[0]
        assert iso.reached == 1
        assert iso.dist[8] == 0
        ref = BFSSpMV(rep, semiring, slimwork=True).run(8)
        assert len(iso.iterations) == len(ref.iterations)
        np.testing.assert_array_equal(iso.dist, ref.dist)

    def test_batch_wider_than_graph(self, disconnected):
        g = disconnected
        rep = SlimSell(g, 4, g.n)
        roots = np.arange(g.n).repeat(2)  # B = 2n > n
        res = MultiSourceBFS(rep, "tropical").run(roots)
        assert len(res) == 2 * g.n
        single = BFSSpMV(rep, "tropical")
        for r, got in zip(roots, res):
            np.testing.assert_array_equal(got.dist, single.run(int(r)).dist)

    def test_root_validation(self, kron_small):
        rep = SlimSell(kron_small, 8)
        with pytest.raises(ValueError, match="out of range"):
            MultiSourceBFS(rep, "tropical").run([0, kron_small.n])
        with pytest.raises(ValueError, match="non-empty"):
            MultiSourceBFS(rep, "tropical").run([])

    def test_results_ordered_like_roots(self, kron_small):
        rep = SlimSell(kron_small, 8)
        roots = [9, 2, 40]
        res = MultiSourceBFS(rep, "tropical").run(roots)
        assert [r.root for r in res] == roots

    def test_method_label(self, kron_small):
        rep = SlimSell(kron_small, 8)
        res = MultiSourceBFS(rep, "tropical", slimwork=True).run([0])
        assert res[0].method == "spmv-msbfs+slimwork"


class TestIterationCap:
    """``max_iters`` stops every engine after the same iteration.

    The batched loop snapshots the columns still live when the cap hits;
    the single-source engines stop at the same point, so distances,
    parents and iteration logs must agree with the layer engine's.
    """

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    @pytest.mark.parametrize("slimwork", [False, True])
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_engines_agree_under_cap(self, kron_small, semiring, slimwork,
                                     cap):
        g = kron_small
        rep = SlimSell(g, 8, g.n)
        hub = int(np.argmax(g.degrees))
        roots = np.array([hub, 0, hub, g.n - 1])  # hub twice in one batch
        kw = dict(slimwork=slimwork, max_iters=cap)
        runs = {
            engine: [BFSSpMV(rep, semiring, engine=engine, **kw).run(int(r))
                     for r in roots]
            for engine in ("layer", "chunk")
        }
        runs["msbfs"] = MultiSourceBFS(rep, semiring, **kw).run(roots)
        runs["mshybrid"] = MultiSourceHybridBFS(rep, semiring, **kw).run(roots)
        with ExecMultiSourceBFS(rep, semiring, workers=2, **kw) as eng:
            runs["exec"] = eng.run(roots)
        ref = runs.pop("layer")
        # The cap must bite: the hub's traversal is longer than 3 layers,
        # so none of its capped iterations is the terminating one.
        hub_log = ref[0].iterations
        assert len(hub_log) == cap and all(it.newly for it in hub_log)
        for name, results in runs.items():
            for want, got in zip(ref, results):
                assert got.root == want.root, name
                np.testing.assert_array_equal(got.dist, want.dist, name)
                np.testing.assert_array_equal(got.parent, want.parent, name)
                assert ([it.newly for it in got.iterations]
                        == [it.newly for it in want.iterations]), name


class TestBFSSpMVBatchAPI:
    def test_run_many_sequential_vs_batched(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        roots = _roots(kron_small)
        seq = BFSSpMV(rep, "sel-max", slimwork=True).run_many(roots)
        bat = BFSSpMV(rep, "sel-max", slimwork=True,
                      batch=2).run_many(roots)
        for a, b in zip(seq, bat):
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.parent, b.parent)

    def test_chunk_engine_falls_back_to_sequential(self, kron_small):
        rep = SlimSell(kron_small, 8)
        eng = BFSSpMV(rep, "tropical", engine="chunk", batch=4)
        res = eng.run_many([0, 1])
        assert all(r.method.startswith("spmv-chunk") for r in res)

    def test_batch_validation(self, kron_small):
        rep = SlimSell(kron_small, 8)
        with pytest.raises(ValueError, match="batch"):
            BFSSpMV(rep, "tropical", batch=0)

    def test_bfs_msbfs_convenience_chops_batches(self, kron_small):
        res = bfs_msbfs(kron_small, [0, 1, 2, 3, 4], "tropical", C=8,
                        batch=2)
        assert len(res) == 5
        ref = bfs_msbfs(kron_small, [0, 1, 2, 3, 4], "tropical", C=8)
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.dist, b.dist)


class TestOperatorMatmat:
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_matmat_columns_equal_matvec(self, kron_small, semiring):
        rep = SlimSell(kron_small, 8, 64)
        op = SlimSpMV(rep, semiring)
        rng = np.random.default_rng(3)
        X = rng.random((kron_small.n, 6)) * 4
        if semiring == "boolean":
            X = (X > 2).astype(float)
        Y = op.matmat(X)
        for b in range(X.shape[1]):
            np.testing.assert_array_equal(Y[:, b], op(X[:, b]))

    def test_matmat_shape_validation(self, kron_small):
        op = SlimSpMV(SlimSell(kron_small, 8), "real")
        with pytest.raises(ValueError, match="shape"):
            op.matmat(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            op.matmat(np.zeros(kron_small.n))


class TestBatchCounters:
    def test_aggregate_cheaper_than_sum_of_sources(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        eng = MultiSourceBFS(rep, "tropical", counting=True)
        results = eng.run([0, 1, 2, 3])
        agg = eng.batch_counters()
        per_src = sum(
            sum(it.counters.instructions["LOAD"] for it in r.iterations)
            for r in results)
        assert agg.instructions["LOAD"] < per_src

    def test_slimwork_union_stream_covers_every_source(self, disconnected):
        """Under SlimWork with sources in different components, the
        aggregate model must charge the union of the active chunk sets,
        not any single source's footprint."""
        rep = SlimSell(disconnected, 4, disconnected.n)
        eng = MultiSourceBFS(rep, "tropical", slimwork=True, counting=True)
        results = eng.run([0, 4])  # K4 component and path component
        agg = eng.batch_counters()
        _, union_stats = eng._last_sweep
        for (proc, _, _), stats in zip(
                union_stats, zip(*[r.iterations for r in results])):
            assert proc >= max(s.chunks_processed for s in stats)
        assert agg.total_instructions > 0

    def test_requires_prior_run(self, kron_small):
        eng = MultiSourceBFS(SlimSell(kron_small, 8), "tropical")
        with pytest.raises(RuntimeError, match="run"):
            eng.batch_counters()
