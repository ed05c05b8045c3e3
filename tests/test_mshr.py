"""The miss-status registry (MSHR) and epoch-based invalidation.

The load-bearing properties, each checked directly and by hypothesis:

* **fan-out** — k duplicate misses on an outstanding (pending or
  in-flight) root cost exactly one kernel column, and every waiter's
  latency is its batch's virtual completion minus its own submit time;
* **visibility** — a result becomes cache-visible only at its virtual
  completion time, never at dispatch (no 0.0-latency phantom hits);
* **invalidation** — ``Server.invalidate()`` bumps the epoch: nothing
  computed before the call can be observed by queries submitted after
  it, while already-attached waiters still resolve correctly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SEMIRING_NAMES
from repro.bfs.msbfs import MultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.serve.mshr import MissStatusRegistry
from repro.serve.query import Query, Ticket
from repro.serve.server import Server

SETTINGS = dict(deadline=None, max_examples=20,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _ticket(root: int, semiring: str = "sel-max", at: float = 0.0) -> Ticket:
    return Ticket(query=Query(root=root, semiring=semiring), submitted_at=at)


# ----------------------------------------------------------------------
class TestRegistry:
    def test_allocate_attach_dispatch_retire_cycle(self):
        reg = MissStatusRegistry()
        key = (0, "sel-max", 5)
        t1, t2 = _ticket(5), _ticket(5)
        entry = reg.allocate(key, t1)
        assert t1.mshr is entry and entry.state == "pending"
        assert len(reg) == 1 and reg.pending == 1 and reg.inflight == 0
        reg.attach(entry, t2)
        assert entry.n_waiters == 2 and t2.mshr is entry
        assert reg.stats.pending_hits == 1 and reg.stats.inflight_hits == 0

        reg.dispatch(entry, "res", completion=2.5, batch_width=4,
                     engine="msbfs")
        assert entry.state == "inflight" and reg.inflight == 1
        assert reg.inflight_widths() == [4]
        t3 = _ticket(5)
        reg.attach(entry, t3)  # late waiter: batch already dispatched
        assert reg.stats.inflight_hits == 1 and entry.n_waiters == 3

        assert reg.take_due(2.4999) == []  # completion not yet reached
        (done,) = reg.take_due(2.5)        # due exactly at completion
        assert done is entry and len(reg) == 0
        assert reg.stats.retired == 1 and reg.stats.allocated == 1
        assert reg.stats.hits == 2
        assert reg.lookup(key) is None     # retired entries leave the table
        # Retiring drops every waiter's edge back to the entry, so tickets
        # and entry do not keep each other alive.
        assert t1.mshr is t2.mshr is t3.mshr is None

    def test_abort_releases_waiters(self):
        reg = MissStatusRegistry()
        t1, t2 = _ticket(3), _ticket(3)
        entry = reg.allocate((0, "sel-max", 3), t1)
        reg.attach(entry, t2)
        reg.abort(entry)
        assert t1.mshr is None and t2.mshr is None
        assert entry.waiters == [t1, t2]

    def test_double_allocate_rejected(self):
        reg = MissStatusRegistry()
        reg.allocate((0, "sel-max", 1), _ticket(1))
        with pytest.raises(ValueError, match="already live"):
            reg.allocate((0, "sel-max", 1), _ticket(1))

    def test_epochs_are_distinct_keys(self):
        # Post-invalidate, the same (semiring, root) may be outstanding
        # under two epochs at once: the old traversal can no longer
        # answer new queries, so the new epoch owns a fresh column.
        reg = MissStatusRegistry()
        old = reg.allocate((0, "sel-max", 7), _ticket(7))
        new = reg.allocate((1, "sel-max", 7), _ticket(7))
        assert old is not new and len(reg) == 2
        assert reg.lookup((0, "sel-max", 7)) is old
        assert reg.lookup((1, "sel-max", 7)) is new
        assert (old.epoch, old.semiring, old.root) == (0, "sel-max", 7)


# ----------------------------------------------------------------------
class TestFanOut:
    """k duplicate misses -> 1 column; latency = completion − submit."""

    @pytest.fixture(scope="class")
    def rep(self, kron_small):
        return SlimSell(kron_small, 8, kron_small.n)

    @settings(**SETTINGS)
    @given(k=st.integers(1, 8), root=st.integers(0, 511),
           semiring=st.sampled_from(SEMIRING_NAMES))
    def test_inflight_duplicates_share_one_column(self, rep, k, root,
                                                  semiring):
        server = Server(rep, max_batch=1, max_wait=60.0, cache_size=64)
        primary = server.submit(root, semiring=semiring, now=0.0)
        assert primary.done  # max_batch=1: dispatched inline
        completion = server.busy_until
        assert completion > 0.0
        # All duplicates arrive before the batch's virtual completion.
        waiters = [server.submit(root, semiring=semiring, now=0.0)
                   for _ in range(k)]
        assert server.stats.batches == 1 and server.stats.widths == [1]
        assert server.mshr.stats.inflight_hits == k
        for w in waiters:
            res = w.result()
            assert res.mshr_hit and not res.cache_hit
            assert res.latency_s == completion - 0.0
            assert res.bfs is primary.result().bfs
        assert not primary.result().mshr_hit  # the allocator paid the column

    @settings(**SETTINGS)
    @given(k=st.integers(1, 8), root=st.integers(0, 511),
           gaps=st.lists(st.floats(0.0, 0.5), min_size=9, max_size=9))
    def test_pending_fanout_latency(self, rep, k, root, gaps):
        server = Server(rep, max_batch=64, max_wait=60.0, cache_size=0)
        times = np.cumsum(gaps)[:k + 1]
        tickets = [server.submit(root, now=float(t)) for t in times]
        server.drain(now=float(times[-1]))
        completion = server.busy_until
        assert server.stats.widths == [1]  # one column for k+1 queries
        for t, ticket in zip(times, tickets):
            assert ticket.result().latency_s == completion - float(t)
        assert server.mshr.stats.pending_hits == k

    def test_late_arrival_gets_cache_hit_not_waiter(self, rep):
        # At `now` past the batch's completion the result is committed:
        # the late query is a genuine cache hit, not an MSHR waiter.
        server = Server(rep, max_batch=1, cache_size=8)
        server.submit(3, now=0.0)
        late = server.submit(3, now=server.busy_until + 1.0)
        assert late.result().cache_hit and not late.result().mshr_hit
        assert server.stats.mshr_hits == 0 and server.stats.batches == 1


# ----------------------------------------------------------------------
class TestEpochInvalidation:
    @pytest.fixture(scope="class")
    def rep(self, kron_small):
        return SlimSell(kron_small, 8, kron_small.n)

    def test_invalidate_bumps_epoch_and_drops_cache(self, rep):
        server = Server(rep, max_batch=1, cache_size=8)
        server.submit(0, now=0.0)
        hit = server.submit(0, now=server.busy_until + 1.0)
        assert hit.result().cache_hit
        fp = server.fingerprint
        assert server.invalidate() == 1 and server.epoch == 1
        assert server.fingerprint == fp  # same structure, re-hashed lazily
        t = server.submit(0, now=server.busy_until + 2.0)
        assert not t.result().cache_hit  # recomputed under the new epoch
        assert server.stats.batches == 2

    def test_inflight_result_never_commits_after_invalidate(self, rep):
        server = Server(rep, max_batch=1, cache_size=8)
        t = server.submit(0, now=0.0)  # dispatched; committed at busy_until
        assert t.done
        server.invalidate()
        later = server.busy_until + 1.0
        again = server.submit(0, now=later)  # commit drops the stale epoch
        assert not again.result().cache_hit
        assert len(server.cache) == 0 or all(
            k[0] == server.epoch for k in server.cache._entries)
        assert server.stats.batches == 2

    def test_pending_waiters_still_resolve_across_invalidate(self, rep):
        server = Server(rep, max_batch=64, max_wait=60.0, cache_size=8)
        a = server.submit(0, now=0.0)
        b = server.submit(0, now=0.0)  # attaches to the pending miss
        server.invalidate()
        server.drain(now=0.0)
        assert a.result().status == "served"
        assert b.result().status == "served" and b.result().mshr_hit
        assert a.result().bfs is b.result().bfs

    @settings(**SETTINGS)
    @given(roots=st.lists(st.integers(0, 511), min_size=1, max_size=12),
           invalidations=st.lists(st.booleans(), min_size=12, max_size=12),
           gaps=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
    def test_invalidation_semantics_property(self, rep, roots, invalidations,
                                             gaps):
        """Any interleaving of submits and invalidates: answers stay
        bit-identical, epochs are monotonic, and the cache only ever
        holds current-epoch keys."""
        server = Server(rep, max_batch=3, max_wait=0.5, cache_size=32)
        now, tickets = 0.0, []
        for root, inv, gap in zip(roots, invalidations, gaps):
            now += gap
            if inv:
                before = server.epoch
                assert server.invalidate() == before + 1
            tickets.append(server.submit(root, now=now))
        server.drain(now=now)
        server.poll(now=now + 1e6)  # commit every remaining entry
        direct = MultiSourceBFS(rep, "sel-max", slimwork=True).run(roots)
        for t, d in zip(tickets, direct):
            res = t.result()
            assert res.status == "served"
            np.testing.assert_array_equal(res.bfs.dist, d.dist)
            np.testing.assert_array_equal(res.bfs.parent, d.parent)
        assert all(k[0] == server.epoch for k in server.cache._entries)
        assert len(server.mshr) == 0  # everything committed or dropped

    def test_validate_memo_scoped_to_epoch(self, rep, monkeypatch):
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
        assert calls["n"] == 1  # memoized verdict: no O(N+M) re-check
        server.invalidate()
        server.submit(0, kind="validate", now=server.busy_until + 2.0)
        assert calls["n"] == 2  # new epoch: verdict must be re-earned
