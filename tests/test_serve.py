"""The serving layer: batcher, cache, server, workloads, async front-end.

The load-bearing property — served answers are bit-identical to direct
engine calls under *any* interleaving of submits, any ``max_batch``, and
cache on or off — is checked both directly (hypothesis, against
``MultiSourceBFS``) and through the cross-engine oracle
(``tests/engines.py`` registers ``"serve"`` as an engine, so every
oracle-based test in the suite also covers the serving path).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SEMIRING_NAMES, path_graph, star_graph, two_components
from engines import assert_bfs_equivalent

from repro.bfs.msbfs import MultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.serve.batcher import QueryBatcher
from repro.serve.cache import ResultCache, graph_fingerprint
from repro.serve.engines import EnginePool, default_strategy
from repro.serve.faults import FaultPlan
from repro.serve.query import Query, Rejected, Ticket, TimedOut
from repro.serve.server import AsyncServer, Server
from repro.serve.workload import (
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
    sample_zipf_roots,
    zipf_weights,
)

SETTINGS = dict(deadline=None, max_examples=20,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _ticket(root: int, semiring: str = "sel-max", at: float = 0.0) -> Ticket:
    return Ticket(query=Query(root=root, semiring=semiring), submitted_at=at)


# ----------------------------------------------------------------------
class TestQuery:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            Query(root=0, kind="pagerank")

    def test_reachability_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Query(root=0, kind="reachability")

    def test_pending_ticket_raises(self):
        t = _ticket(0)
        assert not t.done
        with pytest.raises(RuntimeError, match="pending"):
            t.result()

    def test_double_resolution_rejected(self):
        t = _ticket(0)
        t._resolve(Rejected(t.query))
        with pytest.raises(RuntimeError, match="twice"):
            t._resolve(Rejected(t.query))


# ----------------------------------------------------------------------
class TestGraphFingerprint:
    def test_equal_graphs_equal_fingerprint(self):
        a, b = path_graph(16), path_graph(16)
        assert a is not b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_different_graphs_differ(self):
        assert graph_fingerprint(path_graph(16)) != \
            graph_fingerprint(star_graph(16))

    def test_rep_fingerprints_original_graph(self):
        g = path_graph(32)
        assert graph_fingerprint(SlimSell(g, 4, g.n)) == graph_fingerprint(g)
        # Build parameters don't change the key: answers are bit-identical.
        assert graph_fingerprint(SlimSell(g, 8, 16)) == graph_fingerprint(g)


class TestResultCache:
    def test_lru_eviction_order(self):
        c = ResultCache(capacity=2)
        c.put(("f", "s", 1), "one")
        c.put(("f", "s", 2), "two")
        assert c.get(("f", "s", 1)) == "one"  # refreshes 1
        c.put(("f", "s", 3), "three")         # evicts 2 (LRU)
        assert c.get(("f", "s", 2)) is None
        assert c.get(("f", "s", 1)) == "one"
        assert c.stats.evictions == 1

    def test_stats(self):
        c = ResultCache(capacity=4)
        assert c.get(("f", "s", 0)) is None
        c.put(("f", "s", 0), "x")
        assert c.get(("f", "s", 0)) == "x"
        assert (c.stats.hits, c.stats.misses) == (1, 1)
        assert c.stats.hit_rate == 0.5

    def test_capacity_zero_disables(self):
        c = ResultCache(capacity=0)
        c.put(("f", "s", 0), "x")
        assert len(c) == 0 and c.get(("f", "s", 0)) is None
        assert c.stats.rejected_puts == 1

    def test_refresh_existing_key_no_growth(self):
        c = ResultCache(capacity=2)
        c.put(("f", "s", 1), "a")
        c.put(("f", "s", 1), "b")
        assert len(c) == 1 and c.get(("f", "s", 1)) == "b"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear_keeps_stats(self):
        c = ResultCache(capacity=2)
        c.put(("f", "s", 1), "a")
        c.get(("f", "s", 1))
        c.clear()
        assert len(c) == 0 and c.stats.hits == 1


# ----------------------------------------------------------------------
class TestQueryBatcher:
    def test_width_trigger_releases_exactly_max_batch(self):
        b = QueryBatcher(max_batch=3, max_wait=60.0)
        for r in range(5):
            b.enqueue(_ticket(r), now=0.0)
        batches = b.ready(now=0.0)
        assert [x.width for x in batches] == [3]
        assert batches[0].reason == "width"
        assert batches[0].roots.tolist() == [0, 1, 2]  # oldest first
        assert len(b) == 2

    def test_deadline_trigger_releases_partial_group(self):
        b = QueryBatcher(max_batch=8, max_wait=1.0)
        b.enqueue(_ticket(0, at=0.0), now=0.0)
        b.enqueue(_ticket(1, at=0.5), now=0.5)
        assert b.ready(now=0.99) == []
        assert b.next_deadline() == pytest.approx(1.0)
        (batch,) = b.ready(now=1.0)
        assert batch.reason == "deadline" and batch.width == 2
        assert len(b) == 0 and b.next_deadline() is None

    def test_one_column_per_ticket(self):
        # Deduplication belongs to the server's MSHR: the batcher gives
        # every enqueued ticket its own column, even on a repeated root.
        b = QueryBatcher(max_batch=4, max_wait=60.0)
        tickets = [_ticket(7) for _ in range(3)]
        for t in tickets:
            b.enqueue(t, now=0.0)
        assert len(b) == 3
        (batch,) = b.flush_all()
        assert batch.width == 3 and batch.roots.tolist() == [7, 7, 7]
        assert all(a is t for a, t in zip(batch.tickets, tickets))

    def test_semirings_batch_separately(self):
        b = QueryBatcher(max_batch=2, max_wait=60.0)
        b.enqueue(_ticket(0, "tropical"), now=0.0)
        b.enqueue(_ticket(0, "boolean"), now=0.0)
        assert len(b) == 2  # same root, different semiring: two columns
        assert b.ready(now=0.0) == []
        batches = b.flush_all()
        assert sorted(x.semiring for x in batches) == ["boolean", "tropical"]

    def test_max_wait_zero_always_due(self):
        b = QueryBatcher(max_batch=64, max_wait=0.0)
        b.enqueue(_ticket(0), now=5.0)
        (batch,) = b.ready(now=5.0)
        assert batch.width == 1 and batch.reason == "deadline"

    def test_deadline_restarts_after_width_pop(self):
        b = QueryBatcher(max_batch=2, max_wait=1.0)
        b.enqueue(_ticket(0, at=0.0), now=0.0)
        b.enqueue(_ticket(1, at=0.0), now=0.0)
        b.enqueue(_ticket(2, at=0.8), now=0.8)
        (full,) = b.ready(now=0.8)
        assert full.reason == "width"
        # The leftover root 2 arrived at 0.8: its deadline is 1.8, not 1.0.
        assert b.ready(now=1.0) == []
        assert b.next_deadline() == pytest.approx(1.8)

    def test_flush_all_respects_max_batch(self):
        b = QueryBatcher(max_batch=2, max_wait=60.0)
        for r in range(5):
            b.enqueue(_ticket(r), now=0.0)
        # enqueue never auto-dispatches; the owner pumps via ready().
        widths = [x.width for x in b.flush_all()]
        assert widths == [2, 2, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBatcher(max_batch=0)
        with pytest.raises(ValueError):
            QueryBatcher(max_wait=-1.0)


# ----------------------------------------------------------------------
class TestEnginePool:
    def test_default_strategy_threshold(self):
        assert default_strategy(1) == "mshybrid"
        assert default_strategy(16) == "mshybrid"
        assert default_strategy(17) == "msbfs"

    def test_engines_are_reused(self, kron_small):
        pool = EnginePool(SlimSell(kron_small, 8, kron_small.n))
        _, e1 = pool.engine_for("sel-max", 4)
        _, e2 = pool.engine_for("sel-max", 8)
        assert e1 is e2  # same (engine, semiring): one instance


# ----------------------------------------------------------------------
class TestServer:
    @pytest.fixture(scope="class")
    def served(self, kron_small):
        rep = SlimSell(kron_small, 8, kron_small.n)
        return kron_small, rep

    def test_served_bit_identical_to_direct(self, served):
        g, rep = served
        roots = [0, 5, 9, 3]
        server = Server(rep, max_batch=4, cache_size=0)
        tickets = [server.submit(r, now=0.0) for r in roots]
        server.drain(now=0.0)
        direct = MultiSourceBFS(rep, "sel-max", slimwork=True).run(roots)
        for t, d in zip(tickets, direct):
            res = t.result()
            assert res.status == "served" and res.bfs.root == d.root
            np.testing.assert_array_equal(res.bfs.dist, d.dist)
            np.testing.assert_array_equal(res.bfs.parent, d.parent)

    def test_width_trigger_dispatches_without_drain(self, served):
        _, rep = served
        server = Server(rep, max_batch=2, max_wait=60.0, cache_size=0)
        t1 = server.submit(0, now=0.0)
        assert not t1.done
        t2 = server.submit(1, now=0.0)
        assert t1.done and t2.done
        assert t1.result().batch_width == 2
        assert server.stats.reasons == {"width": 1}

    def test_cache_hit_path(self, served):
        _, rep = served
        server = Server(rep, max_batch=4, cache_size=8)
        server.submit(0, now=0.0)
        server.drain(now=0.0)
        t = server.submit(0, now=1.0)
        assert t.done and t.result().cache_hit
        assert t.result().latency_s == 0.0
        assert server.stats.cache_hits == 1
        # The reduced kinds ride on the same cached traversal.
        r = server.submit(0, kind="reachability", target=1, now=1.0)
        assert r.done and isinstance(r.result().value, bool)

    def test_backpressure_rejects_explicitly(self, served):
        _, rep = served
        server = Server(rep, max_batch=64, max_wait=60.0, cache_size=0,
                        max_pending=2)
        tickets = [server.submit(r, now=0.0) for r in range(4)]
        assert [t.rejected for t in tickets] == [False, False, True, True]
        assert isinstance(tickets[2].result(), Rejected)
        assert tickets[2].result().status == "rejected"
        assert server.stats.rejected == 2
        # Draining frees capacity: the next submit is accepted again.
        server.drain(now=0.0)
        assert not server.submit(9, now=0.0).rejected

    def test_max_wait_zero_degenerates_to_immediate(self, served):
        _, rep = served
        server = Server(rep, max_batch=64, max_wait=0.0, cache_size=0)
        t = server.submit(3, now=0.0)
        assert t.done and t.result().batch_width == 1

    def test_max_batch_one_degeneration(self, served):
        g, rep = served
        server = Server(rep, max_batch=1, max_wait=60.0, cache_size=0)
        t = server.submit(3, now=0.0)
        assert t.done and t.result().batch_width == 1
        direct = MultiSourceBFS(rep, "sel-max", slimwork=True).run([3])[0]
        np.testing.assert_array_equal(t.result().bfs.dist, direct.dist)
        np.testing.assert_array_equal(t.result().bfs.parent, direct.parent)

    def test_duplicate_submits_share_column(self, served):
        _, rep = served
        server = Server(rep, max_batch=8, cache_size=0)
        tickets = [server.submit(5, now=0.0) for _ in range(3)]
        server.drain(now=0.0)
        assert server.stats.batches == 1
        assert server.stats.widths == [1]  # one column served 3 queries
        assert server.stats.served == 3
        assert all(t.result().bfs is tickets[0].result().bfs
                   for t in tickets)

    def test_kinds_and_semiring_aliases_share_one_column(self, served):
        # Every kind on one root, under either spelling of sel-max, is
        # one traversal: the server keys the MSHR, cache and engine pool
        # by the canonical semiring name.
        _, rep = served
        server = Server(rep, max_batch=8, cache_size=8)
        tickets = [server.submit(5, now=0.0),
                   server.submit(5, kind="reachability", target=1, now=0.0),
                   server.submit(5, semiring="selmax", now=0.0),
                   server.submit(5, semiring="SEL_MAX", now=0.0)]
        server.drain(now=0.0)
        assert server.stats.widths == [1] and server.stats.mshr_hits == 3
        assert all(t.result().bfs is tickets[0].result().bfs
                   for t in tickets)
        assert {t.result().query.semiring for t in tickets} == {"sel-max"}
        assert len(server.pool._engines) == 1
        later = server.submit(5, semiring="selmax",
                              now=server.busy_until + 1.0)
        assert later.result().cache_hit and len(server.cache) == 1

    def test_engine_selection_by_width(self, served):
        _, rep = served
        server = Server(rep, max_batch=64, cache_size=0, hybrid_max_width=2)
        for r in range(4):
            server.submit(r, now=0.0)
        server.drain(now=0.0)
        assert server.stats.widths == [4]
        # Width 4 > hybrid_max_width 2: the all-pull engine ran.  Re-ask
        # after the batch's virtual completion (an earlier `now` would
        # coalesce onto the in-flight msbfs traversal instead): with the
        # cache off the root is recomputed at width 1 <= 2.
        later = server.busy_until + 1.0
        t = server.submit(0, now=later)
        server.drain(now=later)
        assert t.result().engine == "mshybrid"  # width 1 <= 2

    def test_validate_kind_runs_graph500_checks(self, served):
        _, rep = served
        server = Server(rep, max_batch=1)
        t = server.submit(0, kind="validate", now=0.0)
        assert t.result().value is True

    def test_client_errors_raise(self, served):
        _, rep = served
        server = Server(rep)
        with pytest.raises(ValueError, match="out of range"):
            server.submit(rep.n)
        with pytest.raises(ValueError, match="out of range"):
            server.submit(0, kind="reachability", target=-1)
        with pytest.raises(KeyError):
            server.submit(0, semiring="nope")
        with pytest.raises(ValueError, match="max_pending"):
            Server(rep, max_pending=0)

    def test_fifo_service_queueing(self, served):
        _, rep = served
        server = Server(rep, max_batch=1, cache_size=0)
        t1 = server.submit(0, now=0.0)
        t2 = server.submit(1, now=0.0)
        # Both dispatched at t=0, but service is FIFO: the second batch
        # starts after the first completes, so its latency is larger.
        assert t2.result().latency_s > t1.result().latency_s

    def test_stats_summary_keys(self, served):
        _, rep = served
        server = Server(rep, max_batch=2, cache_size=4)
        for r in range(3):
            server.submit(r, now=0.0)
        server.drain(now=0.0)
        s = server.stats.summary()
        assert s["submitted"] == 3 and s["served"] == 3
        assert s["batches"] == 2 and s["mean_batch_width"] == 1.5
        assert s["latency_p99_s"] >= s["latency_p50_s"] >= 0.0

    def test_builds_rep_from_raw_graph(self, kron_small):
        server = Server(kron_small, C=8)
        assert server.rep.graph_original is kron_small


# ----------------------------------------------------------------------
class TestServeOracle:
    """Bit-identity of the whole serving path, through the shared oracle."""

    def test_registered_in_oracle(self, kron_small):
        results = assert_bfs_equivalent(
            kron_small, [0, 3, 3, 7],
            engines=["traditional", "msbfs", "serve"])
        assert len(results["serve"]) == 4

    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_all_semirings_on_disconnected(self, semiring):
        assert_bfs_equivalent(two_components(), [0, 4, 8],
                              semiring=semiring,
                              engines=["traditional", "mshybrid", "serve"])

    @settings(**SETTINGS)
    @given(
        roots=st.lists(st.integers(0, 511), min_size=1, max_size=12),
        max_batch=st.integers(1, 6),
        cache_size=st.sampled_from([0, 4, 64]),
        max_wait=st.sampled_from([0.0, 60.0]),
        semiring=st.sampled_from(SEMIRING_NAMES),
        gaps=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
    )
    def test_any_interleaving_bit_identical(self, kron_small, roots,
                                            max_batch, cache_size, max_wait,
                                            semiring, gaps):
        """Any submit interleaving serves exactly the direct answers."""
        rep = SlimSell(kron_small, 8, kron_small.n)
        server = Server(rep, max_batch=max_batch, max_wait=max_wait,
                        cache_size=cache_size)
        now, tickets = 0.0, []
        for root, gap in zip(roots, gaps):
            now += gap
            server.poll(now=now)
            tickets.append(server.submit(root, semiring=semiring, now=now))
        server.drain(now=now)
        direct = MultiSourceBFS(rep, semiring, slimwork=True).run(roots)
        for t, d in zip(tickets, direct):
            res = t.result()
            assert res.status == "served"
            np.testing.assert_array_equal(res.bfs.dist, d.dist)
            np.testing.assert_array_equal(res.bfs.parent, d.parent)
        assert server.stats.served == len(roots)


# ----------------------------------------------------------------------
class TestWorkload:
    def test_zipf_weights(self):
        w = zipf_weights(8, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)  # strictly decreasing popularity
        assert np.allclose(zipf_weights(5, 0.0), 0.2)  # s=0: uniform
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -1.0)

    def test_sample_zipf_roots_from_candidates(self):
        cand = np.array([3, 9, 27, 81])
        roots = sample_zipf_roots(cand, 100, 1.1, seed=5)
        assert roots.shape == (100,)
        assert np.isin(roots, cand).all()
        np.testing.assert_array_equal(
            roots, sample_zipf_roots(cand, 100, 1.1, seed=5))  # seeded

    def test_poisson_arrivals(self):
        arr = poisson_arrivals(64, 100.0, seed=5)
        assert arr.shape == (64,) and np.all(np.diff(arr) >= 0)
        assert np.allclose(poisson_arrivals(8, float("inf")), 0.0)
        with pytest.raises(ValueError):
            poisson_arrivals(0, 10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(4, 0.0)

    def test_open_loop_serves_everything(self, kron_small):
        server = Server(kron_small, C=8, max_batch=8, max_wait=1e-3,
                        cache_size=0)
        roots = sample_zipf_roots(np.arange(kron_small.n), 40, 1.1, seed=2)
        report = run_open_loop(server, roots,
                               poisson_arrivals(40, 5000.0, seed=2))
        assert report["served"] == report["nqueries"] == 40
        assert report["rejected"] == 0
        assert report["batches"] == sum(
            server.stats.reasons.get(k, 0)
            for k in ("width", "deadline", "drain"))
        assert report["latency_p99_s"] >= report["latency_p50_s"]
        assert report["virtual_makespan_s"] > 0

    def test_open_loop_burst_fills_batches(self, kron_small):
        server = Server(kron_small, C=8, max_batch=8, cache_size=0)
        roots = np.arange(32) % kron_small.n
        report = run_open_loop(server, roots, np.zeros(32))
        assert report["mean_batch_width"] == 8.0  # all width-triggered

    def test_closed_loop(self, kron_small):
        server = Server(kron_small, C=8, max_batch=8, cache_size=0)
        roots = np.arange(24) % kron_small.n
        report = run_closed_loop(server, roots, clients=8)
        assert report["served"] == 24
        assert report["mean_batch_width"] == 8.0
        assert report["virtual_makespan_s"] == pytest.approx(
            report["kernel_s"])

    def test_open_loop_validation(self, kron_small):
        server = Server(kron_small, C=8)
        with pytest.raises(ValueError, match="equal-length"):
            run_open_loop(server, np.arange(3), np.zeros(2))
        with pytest.raises(ValueError, match="non-decreasing"):
            run_open_loop(server, np.arange(2), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="clients"):
            run_closed_loop(server, np.arange(2), clients=0)


# ----------------------------------------------------------------------
class TestAsyncServer:
    def test_concurrent_awaits_share_batches(self, kron_small):
        async def scenario():
            server = AsyncServer(Server(kron_small, C=8, max_batch=4,
                                        max_wait=60.0, cache_size=0))
            return await asyncio.gather(
                *(server.async_submit(r) for r in range(8)))

        results = asyncio.run(scenario())
        assert all(r.status == "served" for r in results)
        assert {r.batch_width for r in results} == {4}

    def test_deadline_timer_fires_for_partial_batch(self, kron_small):
        async def scenario():
            server = AsyncServer(Server(kron_small, C=8, max_batch=64,
                                        max_wait=0.02, cache_size=0))
            # One lone query: only the max_wait timer can resolve it.
            return await asyncio.wait_for(server.async_submit(1), timeout=10)

        result = asyncio.run(scenario())
        assert result.status == "served" and result.batch_width == 1

    def test_drain_settles_everything(self, kron_small):
        async def scenario():
            server = AsyncServer(Server(kron_small, C=8, max_batch=64,
                                        max_wait=60.0, cache_size=0))
            tasks = [asyncio.ensure_future(server.async_submit(r))
                     for r in range(3)]
            await asyncio.sleep(0)  # let submits enqueue
            assert server.pending == 3
            await server.drain()
            assert server.pending == 0
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert [r.query.root for r in results] == [0, 1, 2]

    def test_cache_hit_resolves_inline(self, kron_small):
        async def scenario():
            server = AsyncServer(Server(kron_small, C=8, max_batch=1,
                                        cache_size=8))
            first = await server.async_submit(2)
            second = await server.async_submit(2)
            return first, second

        first, second = asyncio.run(scenario())
        assert not first.cache_hit and second.cache_hit

    def test_timer_rearms_when_deadline_moves(self, kron_small):
        # Stale-timer regression: a width-triggered release used to leave
        # the timer armed for the emptied group's (earlier) deadline and
        # never re-arm it for the surviving group.  max_wait is large so
        # the timer cannot fire during the test; only arming is observed.
        async def scenario():
            server = AsyncServer(Server(kron_small, C=8, max_batch=2,
                                        max_wait=5.0, cache_size=0))
            task_a = asyncio.ensure_future(server.async_submit(0))
            await asyncio.sleep(0)
            armed_first = server._armed_deadline
            assert armed_first is not None
            # A second group (tropical) becomes pending later: its
            # deadline is strictly after the sel-max group's.
            task_b = asyncio.ensure_future(
                server.async_submit(1, semiring="tropical"))
            await asyncio.sleep(0)
            assert server._armed_deadline == armed_first  # still oldest
            # Width release empties the sel-max group inline ...
            task_a2 = asyncio.ensure_future(server.async_submit(2))
            await asyncio.sleep(0)
            # ... so the timer must now track the tropical group's
            # deadline, not the stale (already-released) one.
            assert server._armed_deadline == \
                server.server.batcher.next_deadline()
            assert server._armed_deadline != armed_first
            await server.drain()
            results = await asyncio.gather(task_a, task_b, task_a2)
            return results, server._timer, server._armed_deadline

        results, timer, armed = asyncio.run(scenario())
        assert all(r.status == "served" for r in results)
        assert timer is None and armed is None  # fully disarmed when idle


# ----------------------------------------------------------------------
class TestBugfixRegressions:
    def test_dropped_server_freed_without_cyclic_gc(self):
        # Registry views and MSHR ticket/entry edges used to form
        # reference cycles, so a dropped server (stats lists, cache,
        # results) lived until a gen-2 collection.
        import gc
        import weakref

        g = path_graph(40)
        gc.disable()
        try:
            srv = Server(g, max_batch=4, max_wait=1e-3)
            tickets = [srv.submit(r, now=i * 1e-4)
                       for i, r in enumerate([1, 2, 3, 1, 1, 5, 7, 2, 3])]
            srv.poll(now=1e-2)
            srv.submit(9, now=2e-2)
            srv.drain(now=1.0)
            srv.poll(now=10.0)
            assert all(t.done for t in tickets)
            ref, stats = weakref.ref(srv), weakref.ref(srv.stats)
            del srv
            assert ref() is None and stats() is None
            assert all(t.mshr is None for t in tickets)
        finally:
            gc.enable()


    """Pin the serve-layer fixes that rode along with the MSHR change."""

    @pytest.fixture(scope="class")
    def rep(self, kron_small):
        return SlimSell(kron_small, 8, kron_small.n)

    def test_no_premature_cache_visibility(self, rep):
        # The headline bug: a duplicate arriving while its root's batch
        # is still (virtually) in flight used to read the cache entry
        # published at *dispatch* and report an impossible 0.0 latency.
        server = Server(rep, max_batch=1, cache_size=64)
        server.submit(0, now=0.0)
        completion = server.busy_until
        mid = completion / 2  # strictly before the batch completes
        res = server.submit(0, now=mid).result()
        assert not res.cache_hit and res.mshr_hit
        assert res.latency_s == completion - mid > 0.0
        assert server.stats.batches == 1  # and no extra kernel column
        assert all(lat > 0.0 for lat in server.stats.latencies)

    def test_duplicate_coalesces_before_backpressure(self, rep):
        # Coalescing must run before the max_pending check: a duplicate
        # of an outstanding root costs no queue slot and no kernel work,
        # so rejecting it would shed load that is free to serve.
        server = Server(rep, max_batch=64, max_wait=60.0, cache_size=0,
                        max_pending=1)
        first = server.submit(0, now=0.0)
        dup = server.submit(0, now=0.0)  # queue "full", but coalescible
        assert not dup.rejected and server.stats.mshr_hits == 1
        distinct = server.submit(1, now=0.0)  # genuinely new work
        assert distinct.rejected
        server.drain(now=0.0)
        assert first.result().bfs is dup.result().bfs
        # Same holds while the batch is in flight (dispatched, not
        # committed): the MSHR still owns the root, so no rejection.
        inflight_dup = server.submit(0, now=0.0)
        assert not inflight_dup.rejected and inflight_dup.result().mshr_hit

    def test_rejected_lookup_not_a_cache_miss(self, rep):
        # A rejected submit never produces a cache entry, so counting
        # its lookup as a miss deflated the hit rate.
        server = Server(rep, max_batch=64, max_wait=60.0, cache_size=8,
                        max_pending=1)
        server.submit(0, now=0.0)
        misses = server.cache.stats.misses
        assert server.submit(1, now=0.0).rejected
        assert server.cache.stats.misses == misses
        assert server.cache.stats.rejected_lookups == 1
        assert server.cache.stats.lookups == misses  # hit_rate unaffected

    def test_cache_hits_not_in_kernel_latencies(self, rep):
        # Cache hits used to append 0.0 to the kernel-path latency list,
        # dragging p50/p99 toward zero under skewed (hot-root) traffic.
        server = Server(rep, max_batch=1, cache_size=8)
        server.submit(0, now=0.0)
        nlat = len(server.stats.latencies)
        hit = server.submit(0, now=server.busy_until + 1.0)
        assert hit.result().cache_hit
        assert len(server.stats.latencies) == nlat  # no phantom 0.0
        assert server.stats.cache_latencies == [0.0]
        assert min(server.stats.latencies) > 0.0
        s = server.stats.summary()
        assert s["cache_latency_p99_s"] == 0.0 and s["latency_p50_s"] > 0.0

    def test_validate_verdict_memoized(self, rep, monkeypatch):
        # A cache hit on a "validate" query used to re-run the full
        # O(N + M) Graph500 tree check; the verdict is now memoized per
        # (epoch, semiring, root).
        import repro.graph500 as g5

        calls = {"n": 0}
        real = g5.validate_bfs_tree

        def counting(graph, res):
            calls["n"] += 1
            return real(graph, res)

        monkeypatch.setattr(g5, "validate_bfs_tree", counting)
        server = Server(rep, max_batch=1, cache_size=8)
        server.submit(0, kind="validate", now=0.0)
        assert calls["n"] == 1
        hit = server.submit(0, kind="validate", now=server.busy_until + 1.0)
        assert hit.result().cache_hit and hit.result().value is True
        assert calls["n"] == 1  # verdict reused, tree check skipped

    # ---- workload accounting and stale-index fixes (this PR) ----

    def test_closed_loop_on_reused_server_reports_delta(self, rep,
                                                        kron_small):
        # run_closed_loop used to start its virtual clock at 0.0 even
        # when the server's busy_until was already ahead from an earlier
        # run: the second run's makespan absorbed the first run's entire
        # history, and its latencies included time spent waiting behind
        # batches submitted before the run began.
        server = Server(rep, max_batch=8, cache_size=0)
        roots = np.arange(24) % kron_small.n
        first = run_closed_loop(server, roots, clients=8)
        assert server.busy_until > 0.0
        second = run_closed_loop(server, roots, clients=8)
        assert second["served"] == first["served"] == 24
        # Per-run delta, not "time since the server was born" — on a
        # serial closed loop the makespan is exactly this run's kernel
        # seconds (pre-fix it was first kernel_s + second kernel_s).
        assert second["virtual_makespan_s"] == pytest.approx(
            second["kernel_s"])
        assert second["virtual_throughput_qps"] > 0.0

    def test_report_is_the_runs_own_summary(self, rep, kron_small):
        # A run's report is ServeStats.summary over the run: on a fresh
        # server the lifetime summary, and on a reused one only the
        # run's own counts and batches.
        server = Server(rep, max_batch=4, cache_size=0)
        roots = np.arange(12) % kron_small.n
        first = run_closed_loop(server, roots, clients=4)
        lifetime = server.stats.summary()
        assert {k: first[k] for k in lifetime} == lifetime
        second = run_closed_loop(server, roots, clients=4)
        assert second["submitted"] == 12
        assert sum(second["reasons"].values()) == second["batches"]
        assert server.stats.batches == first["batches"] + second["batches"]

    def test_all_timeout_batch_charges_wasted_kernel(self, rep):
        # A batch whose every waiter timed out contributes nothing to
        # ``served``, but its kernel seconds used to stay in the
        # throughput denominator, silently deflating
        # ``kernel_throughput_qps`` exactly when faults made the number
        # interesting.
        server = Server(rep, max_batch=1, cache_size=0,
                        service_model=lambda roots: 1.0)
        dead = server.submit(0, now=0.0, deadline=0.5)
        server.drain(now=0.0)
        assert isinstance(dead.result(), TimedOut)
        ok = server.submit(1, now=server.busy_until)
        server.drain(now=server.busy_until)
        assert ok.result().bfs is not None
        st = server.stats
        assert st.timeouts == 1
        assert st.kernel_s == pytest.approx(2.0)
        assert st.kernel_s_wasted == pytest.approx(1.0)
        # One served query over one *useful* kernel second (pre-fix:
        # 1 / 2.0 = 0.5 qps, half the truth).
        assert st.kernel_throughput == pytest.approx(1.0)
        assert st.summary()["kernel_s_wasted"] == pytest.approx(1.0)

    def test_faulted_run_goodput_over_useful_seconds(self, rep, kron_small):
        # The report-level counterpart at a nonzero fault rate:
        # straggler batches blow past the query deadline, their waiters
        # all time out, and the wasted kernel seconds are split out of
        # the goodput denominator.
        server = Server(rep, max_batch=1, cache_size=0,
                        service_model=lambda roots: 0.1,
                        faults=FaultPlan(straggler_rate=0.5,
                                         straggler_factor=10.0, seed=3))
        roots = np.arange(30) % kron_small.n
        arrivals = np.arange(30, dtype=np.float64)  # 1 s apart
        report = run_open_loop(server, roots, arrivals, deadline=0.5)
        assert report["timeouts"] > 0 and report["served"] > 0
        assert 0.0 < report["kernel_s_wasted"] < report["kernel_s"]
        kernel_served = report["served"] - report["cache_hits"]
        useful = report["kernel_s"] - report["kernel_s_wasted"]
        assert report["kernel_throughput_qps"] == pytest.approx(
            kernel_served / useful)
        # Strictly above the pre-fix value, which kept the wasted
        # seconds in the denominator.
        assert report["kernel_throughput_qps"] > \
            kernel_served / report["kernel_s"]

    def test_stale_survives_eviction_of_newer_epoch(self):
        # LRU-evicting the newest entry for a root used to leave the
        # stale-serve index pointing at a dead key, hiding the older
        # epoch that was still cached.
        c = ResultCache(capacity=2)
        c.put((0, "s", 7), "old")
        c.put((1, "s", 7), "new")
        assert c.peek((0, "s", 7)) == "old"  # refresh: epoch-1 is now LRU
        c.put((0, "s", 9), "other")          # evicts (1, "s", 7)
        assert c.peek((1, "s", 7)) is None
        assert c.peek_stale("s", 7, epoch=2) == ((0, "s", 7), "old")

    def test_invalidate_put_interleaving_keeps_older_stale(self):
        # A fresh-epoch put after invalidate() used to move the
        # newest-key pointer to the current epoch; peek_stale's "prior
        # epoch only" check then reported no stale entry even though the
        # older epoch was still cached.
        c = ResultCache(capacity=8)
        c.put((0, "s", 3), "stale")
        c.put((1, "s", 3), "fresh")  # server invalidated; epoch is now 1
        assert c.peek_stale("s", 3, epoch=1) == ((0, "s", 3), "stale")
        assert c.peek_stale("s", 3, epoch=0) is None  # nothing before 0

    @settings(**SETTINGS)
    @given(capacity=st.integers(1, 4),
           ops=st.lists(st.one_of(
               st.tuples(st.just("put"), st.integers(0, 3),
                         st.integers(0, 4)),
               st.tuples(st.just("clear"), st.booleans(), st.just(0)),
           ), max_size=40))
    def test_stale_index_invariant(self, capacity, ops):
        # The invariant the fixes above rest on: the stale-serve index
        # holds exactly the live epochs of every entry (no dead keys, no
        # hidden live ones, no empty sets), and peek_stale answers with
        # the newest live prior epoch — under any put/evict/clear
        # interleaving.
        c = ResultCache(capacity=capacity)
        for op, a, b in ops:
            if op == "put":
                c.put((a, "s", b), f"v{a}:{b}")
            else:
                c.clear(keep_stale=a)
        indexed = {(e, s, r) for (s, r), live in c._epochs.items()
                   for e in live}
        assert indexed == set(c._entries)
        assert all(live for live in c._epochs.values())
        for root in range(5):
            for epoch in range(5):
                prior = [e for (e, s, r) in c._entries
                         if r == root and e < epoch]
                hit = c.peek_stale("s", root, epoch)
                if prior:
                    assert hit == ((max(prior), "s", root),
                                   c._entries[(max(prior), "s", root)])
                else:
                    assert hit is None
