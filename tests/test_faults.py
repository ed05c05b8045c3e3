"""Fault injection, deadlines, and graceful degradation of the serving tier.

Scripted-injector tests pin each resilience mechanism (batch-level retry,
permanent failure, straggler timing, deadlines, breaker shedding, stale
serving, cache flakes) deterministically; the chaos property at the end
drives a random workload through a random fault plan and checks the
resolve-exactly-once contract — every accepted ticket resolves exactly
once, to exactly one of served / rejected / timeout / failed, with no
waiter stranded in the MSHR and nothing wrong ever published to the
cache.  CI re-runs it wider under ``HYPOTHESIS_PROFILE=chaos``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import path_graph, star_graph

from repro.bfs.validate import reference_distances
from repro.serve.faults import (
    BREAKER_STATES,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    KernelFault,
    PermanentKernelFault,
    TransientKernelFault,
)
from repro.serve.query import Failed, Query, Rejected, Ticket, TimedOut
from repro.serve.server import Server
from repro.serve.workload import run_open_loop

SETTINGS = dict(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])

#: Deterministic virtual kernel time: 10 ms per batch, width-independent.
TEN_MS = 0.010


def _model(roots: np.ndarray) -> float:
    return TEN_MS


class ScriptedInjector(FaultInjector):
    """Replays exact fault scripts instead of sampling the rng.

    ``kernel`` is a sequence of exception *classes* (or None = clean
    attempt), consumed one per batch attempt; ``stragglers`` a sequence
    of multipliers per successful attempt; ``flaky`` a sequence of bools
    per cache read.  Exhausted scripts behave fault-free.
    """

    def __init__(self, kernel=(), stragglers=(), flaky=()):
        super().__init__(FaultPlan())
        self._kernel = list(kernel)
        self._stragglers = list(stragglers)
        self._flaky = list(flaky)

    def kernel_fault(self) -> None:
        if self._kernel:
            exc = self._kernel.pop(0)
            if exc is not None:
                raise exc("scripted kernel fault")

    def straggler(self) -> float:
        return self._stragglers.pop(0) if self._stragglers else 1.0

    def cache_flaky(self) -> bool:
        return self._flaky.pop(0) if self._flaky else False


def make_server(g=None, **kw):
    """A virtual-clock server with deterministic 10 ms service."""
    kw.setdefault("C", 4)
    kw.setdefault("max_batch", 1)
    kw.setdefault("max_wait", 0.05)
    kw.setdefault("service_model", _model)
    return Server(g if g is not None else path_graph(12), **kw)


# ----------------------------------------------------------------------
class TestFaultPlan:
    @pytest.mark.parametrize("name", ["transient_rate", "permanent_rate",
                                      "straggler_rate", "cache_flake_rate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_bounded(self, name, bad):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            FaultPlan(**{name: bad})

    def test_kernel_rates_must_sum_below_one(self):
        with pytest.raises(ValueError, match="must be <= 1"):
            FaultPlan(transient_rate=0.6, permanent_rate=0.6)

    def test_straggler_factor_bounded(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            FaultPlan(straggler_factor=0.5)

    def test_fault_hierarchy(self):
        assert issubclass(TransientKernelFault, KernelFault)
        assert issubclass(PermanentKernelFault, KernelFault)


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=-1.0)

    def test_lifecycle(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
        assert b.state == "closed" and b.state in BREAKER_STATES
        assert not b.record_failure(0.0)
        assert b.record_failure(0.1)  # threshold reached: trips open
        assert b.state == "open" and b.opens == 1
        assert not b.allow(0.5)  # cooling down
        assert b.allow(1.2)  # cooldown elapsed: half-open trial
        assert b.state == "half-open"
        assert b.record_success()
        assert b.state == "closed" and b.closes == 1

    def test_half_open_failure_reopens_immediately(self):
        b = CircuitBreaker(failure_threshold=4, cooldown_s=1.0)
        for t in range(4):
            b.record_failure(float(t))
        assert b.state == "open"
        assert b.allow(10.0)
        assert b.state == "half-open"
        # One failure suffices in half-open, regardless of the threshold.
        assert b.record_failure(10.5)
        assert b.state == "open" and b.opens == 2

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success()
        assert not b.record_failure(1.0)  # streak restarted
        assert b.state == "closed"


class TestFaultInjector:
    def _kernel_outcomes(self, inj, n=60):
        out = []
        for _ in range(n):
            try:
                inj.kernel_fault()
                out.append("ok")
            except TransientKernelFault:
                out.append("transient")
            except PermanentKernelFault:
                out.append("permanent")
        return out

    def test_seed_determinism(self):
        plan = FaultPlan(transient_rate=0.3, permanent_rate=0.2, seed=42)
        a = self._kernel_outcomes(FaultInjector(plan))
        b = self._kernel_outcomes(FaultInjector(plan))
        assert a == b
        assert {"transient", "permanent"} <= set(a)

    def test_zero_rate_seams_consume_no_draws(self):
        # A kernel-fault-only plan must keep its draw sequence no matter
        # how many (disabled) straggler / cache-flake probes interleave.
        plan = FaultPlan(transient_rate=0.4, seed=7)
        a = self._kernel_outcomes(FaultInjector(plan))
        inj = FaultInjector(plan)
        b = []
        for _ in range(60):
            assert inj.straggler() == 1.0
            assert not inj.cache_flaky()
            try:
                inj.kernel_fault()
                b.append("ok")
            except TransientKernelFault:
                b.append("transient")
        assert a == b

    def test_certain_rates(self):
        inj = FaultInjector(FaultPlan(permanent_rate=1.0))
        with pytest.raises(PermanentKernelFault):
            inj.kernel_fault()
        inj = FaultInjector(FaultPlan(transient_rate=1.0))
        with pytest.raises(TransientKernelFault):
            inj.kernel_fault()
        inj = FaultInjector(FaultPlan(straggler_rate=1.0,
                                      straggler_factor=8.0,
                                      cache_flake_rate=1.0))
        assert inj.straggler() == 8.0
        assert inj.cache_flaky()
        assert inj.stats.stragglers == 1 and inj.stats.cache_flakes == 1


# ----------------------------------------------------------------------
class TestServerResilience:
    def test_fault_free_server_has_no_rng(self):
        assert make_server().faults is None

    def test_transient_fault_retries_and_serves(self):
        srv = make_server(faults=ScriptedInjector(
            kernel=[TransientKernelFault, None]))
        t = srv.submit(0, now=0.0)
        assert t.result().status == "served"
        assert srv.stats.retries == 1
        assert srv.stats.failed == 0 and srv.stats.failed_batches == 0
        # Attempt 0's backoff (retry_backoff * 2**0) precedes the kernel.
        assert srv.busy_until == pytest.approx(srv.retry_backoff + TEN_MS)

    def test_retry_is_batch_level_not_per_waiter(self):
        srv = make_server(max_batch=4, faults=ScriptedInjector(
            kernel=[TransientKernelFault, None]))
        tickets = [srv.submit(5, now=0.0) for _ in range(3)]
        out = srv.drain(now=0.0)
        assert len(out) == 3
        assert all(t.result().status == "served" for t in tickets)
        assert srv.stats.retries == 1  # one retry carried all 3 waiters
        assert srv.stats.mshr_hits == 2

    def test_exhausted_retries_fail_the_batch(self):
        srv = make_server(max_retries=1, faults=ScriptedInjector(
            kernel=[TransientKernelFault, TransientKernelFault]))
        t = srv.submit(0, now=0.0)
        res = t.result()
        assert isinstance(res, Failed) and res.status == "failed"
        assert srv.stats.retries == 1
        assert srv.stats.failed == 1 and srv.stats.failed_batches == 1
        assert len(srv.mshr) == 0  # aborted, not stranded

    def test_permanent_fault_fails_without_retry(self):
        srv = make_server(faults=ScriptedInjector(
            kernel=[PermanentKernelFault]))
        t = srv.submit(3, now=0.0)
        res = t.result()
        assert isinstance(res, Failed)
        assert "scripted kernel fault" in res.error
        assert srv.stats.retries == 0
        assert len(srv.mshr) == 0

    def test_failed_batch_is_never_cached_and_root_recovers(self):
        srv = make_server(faults=ScriptedInjector(
            kernel=[PermanentKernelFault]))
        assert srv.submit(3, now=0.0).result().status == "failed"
        srv.poll(now=1.0)
        assert len(srv.cache) == 0
        # The injector script is exhausted: the same root now recomputes
        # cleanly on a fresh MSHR entry.
        t = srv.submit(3, now=1.0)
        assert t.result().status == "served"
        assert not t.result().cache_hit

    def test_straggler_scales_modeled_kernel_time(self):
        srv = make_server(faults=ScriptedInjector(stragglers=[4.0]))
        srv.submit(0, now=0.0)
        assert srv.busy_until == pytest.approx(4.0 * TEN_MS)
        srv.submit(1, now=srv.busy_until)
        assert srv.busy_until == pytest.approx(5.0 * TEN_MS)

    def test_deadline_met_serves(self):
        srv = make_server()
        t = srv.submit(0, now=0.0, deadline=0.05)
        assert t.result().status == "served"

    def test_deadline_missed_times_out_but_caches(self):
        srv = make_server()
        t = srv.submit(0, now=0.0, deadline=0.005)  # < 10 ms kernel
        res = t.result()
        assert isinstance(res, TimedOut) and res.status == "timeout"
        assert res.latency_s == pytest.approx(TEN_MS)
        assert srv.stats.timeouts == 1 and srv.stats.served == 0
        # The traversal still completed and is cache-visible afterwards.
        t2 = srv.submit(0, now=0.02)
        assert t2.result().cache_hit

    def test_deadline_checked_on_inflight_attach(self):
        srv = make_server()
        srv.submit(0, now=0.0)  # dispatches (max_batch=1); completes at 10 ms
        late = srv.submit(0, now=0.002, deadline=0.001)
        assert isinstance(late.result(), TimedOut)
        ok = srv.submit(0, now=0.002, deadline=0.05)
        assert ok.result().status == "served"
        assert srv.stats.mshr_hits == 2

    def test_timeouts_excluded_from_latency_population(self):
        srv = make_server()
        srv.submit(0, now=0.0, deadline=0.001)
        assert srv.stats.latencies == []

    def test_engine_exception_restores_invariants(self):
        # Satellite regression: a real engine exception must resolve every
        # waiter Failed, abort the MSHR entries, and leave the server
        # usable — not strand waiters forever.
        srv = make_server(max_batch=2)
        t1 = srv.submit(0, now=0.0)
        t2 = srv.submit(0, now=0.0)  # coalesced waiter

        class Boom:
            def run(self, roots):
                raise RuntimeError("engine exploded")

        orig = srv.pool.engine_for
        srv.pool.engine_for = lambda s, w: ("boom", Boom())
        with pytest.raises(RuntimeError, match="engine exploded"):
            srv.drain(now=0.0)
        srv.pool.engine_for = orig
        for t in (t1, t2):
            assert isinstance(t.result(), Failed)
            assert "engine exploded" in t.result().error
        assert len(srv.mshr) == 0
        assert srv.stats.failed_batches == 1 and srv.stats.failed == 2
        t3 = srv.submit(0, now=1.0)
        srv.drain(now=1.0)
        assert t3.result().status == "served"

    def test_breaker_opens_sheds_and_recovers(self):
        srv = make_server(
            faults=ScriptedInjector(kernel=[PermanentKernelFault] * 2),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=1.0))
        assert srv.submit(0, now=0.0).result().status == "failed"
        assert srv.submit(1, now=0.0).result().status == "failed"
        assert srv.breaker.state == "open"
        assert srv.stats.breaker_opens == 1
        shed = srv.submit(2, now=0.1)
        assert isinstance(shed.result(), Rejected)
        assert shed.result().reason == "shed"
        assert srv.stats.sheds == 1
        # After the cooldown the half-open trial (script exhausted: clean)
        # closes the breaker again.
        trial = srv.submit(2, now=2.0)
        assert trial.result().status == "served"
        assert srv.breaker.state == "closed"
        assert srv.stats.breaker_closes == 1

    def test_breaker_halves_and_restores_max_batch(self):
        srv = make_server(
            max_batch=4,
            faults=ScriptedInjector(kernel=[PermanentKernelFault] * 2),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.5))
        for i, now in ((0, 0.0), (1, 0.1)):
            srv.submit(i, now=now)
            srv.drain(now=now)
        assert srv.breaker.state == "open"
        assert srv.batcher.max_batch == 2  # degraded on open
        srv.submit(3, now=2.0)
        srv.drain(now=2.0)
        assert srv.breaker.state == "closed"
        assert srv.batcher.max_batch == 4  # restored on close

    def test_stale_serve_while_open(self):
        srv = make_server(
            g=star_graph(16), serve_stale=True,
            faults=ScriptedInjector(kernel=[None, PermanentKernelFault]),
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=100.0))
        srv.submit(5, now=0.0)
        srv.poll(now=0.5)  # commit: root 5 is cache-visible in epoch 0
        assert len(srv.cache) == 1
        srv.invalidate()  # epoch 1; stale entries kept for degradation
        assert srv.submit(7, now=0.5).result().status == "failed"  # trips
        assert srv.breaker.state == "open"
        stale = srv.submit(5, now=0.6)
        res = stale.result()
        assert res.status == "served" and res.stale and res.cache_hit
        assert srv.stats.stale_serves == 1
        # No prior-epoch entry for root 9: shed instead.
        assert srv.submit(9, now=0.6).result().reason == "shed"

    def test_stale_serves_are_not_kernel_work(self):
        # Stale serves answer from the cache like hits; counting them as
        # kernel-served inflated throughput sixfold here (600 q/s over
        # one 10 ms batch that served one query).
        srv = make_server(
            g=star_graph(16), serve_stale=True,
            faults=ScriptedInjector(kernel=[None, None, PermanentKernelFault]),
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=100.0))
        srv.submit(3, now=0.0)
        srv.poll(now=0.5)  # root 3 cache-visible in epoch 0
        srv.invalidate()
        roots = [5, 7, 3, 3, 3, 3, 3]  # kernel, trip, then five stale
        report = run_open_loop(srv, roots, 1.0 + 0.1 * np.arange(7))
        assert report["served"] == 6 and report["stale_serves"] == 5
        assert report["kernel_s"] == pytest.approx(TEN_MS)
        assert report["kernel_throughput_qps"] == pytest.approx(100.0)
        # Server lifetime: two kernel-served queries over two batches.
        assert srv.stats.kernel_throughput == pytest.approx(100.0)

    def test_without_serve_stale_invalidate_drops_everything(self):
        srv = make_server()
        srv.submit(0, now=0.0)
        srv.poll(now=0.5)
        assert len(srv.cache) == 1
        srv.invalidate()
        assert len(srv.cache) == 0

    def test_cache_flake_recomputes(self):
        srv = make_server(faults=ScriptedInjector(flaky=[True]))
        srv.submit(0, now=0.0)
        srv.poll(now=0.5)
        flaked = srv.submit(0, now=0.5)  # hit forced to miss: kernel path
        assert flaked.result().status == "served"
        assert not flaked.result().cache_hit
        assert srv.stats.cache_flakes == 1
        hit = srv.submit(0, now=1.0)  # script exhausted: normal hit again
        assert hit.result().cache_hit

    def test_constructor_validation(self):
        g = path_graph(6)
        with pytest.raises(ValueError, match="max_retries"):
            Server(g, max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            Server(g, retry_backoff=-1e-3)
        with pytest.raises(ValueError, match="alpha"):
            Server(g, alpha=0.0)
        with pytest.raises(ValueError, match="hybrid_max_width"):
            Server(g, hybrid_max_width=0)
        with pytest.raises(ValueError, match="max_pending"):
            Server(g, max_pending=0)

    def test_submit_rejects_nonpositive_deadline(self):
        srv = make_server()
        with pytest.raises(ValueError, match="deadline"):
            srv.submit(0, now=0.0, deadline=0.0)
        with pytest.raises(ValueError, match="deadline"):
            srv.submit(0, now=0.0, deadline=-1.0)

    def test_pending_ticket_message_names_the_clock(self):
        srv = make_server(max_batch=8)  # stays pending: batch never fills
        t = srv.submit(0, now=0.0)
        with pytest.raises(RuntimeError,
                           match="advance the clock past the batch deadline"):
            t.result()

    def test_ticket_resolves_at_most_once(self):
        t = Ticket(query=Query(root=0))
        t._resolve(Rejected(t.query))
        with pytest.raises(RuntimeError, match="resolved twice"):
            t._resolve(Rejected(t.query))


# ----------------------------------------------------------------------
class TestChaosProperty:
    """The resolve-exactly-once contract under random faults and load."""

    @given(seed=st.integers(0, 2**31 - 1),
           transient=st.sampled_from([0.0, 0.2, 0.5]),
           permanent=st.sampled_from([0.0, 0.1, 0.3]),
           straggler=st.sampled_from([0.0, 0.3]),
           flake=st.sampled_from([0.0, 0.3]),
           serve_stale=st.booleans(),
           invalidate_mid=st.booleans(),
           deadlines=st.booleans())
    # No max_examples here: the loaded hypothesis profile controls it, so
    # CI's HYPOTHESIS_PROFILE=chaos job widens this test specifically.
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_ticket_resolves_exactly_once(
            self, seed, transient, permanent, straggler, flake,
            serve_stale, invalidate_mid, deadlines):
        g = star_graph(16)
        ref = {r: reference_distances(g, r) for r in range(g.n)}
        srv = Server(
            g, C=4, max_batch=4, max_wait=5e-3, cache_size=8,
            max_pending=4, serve_stale=serve_stale,
            service_model=lambda roots: 2e-3,
            faults=FaultPlan(transient_rate=transient,
                             permanent_rate=permanent,
                             straggler_rate=straggler,
                             cache_flake_rate=flake, seed=seed),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.02))
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(8, 40))
        now = 0.0
        tickets = []
        for i in range(nq):
            now += float(rng.exponential(2e-3))
            if invalidate_mid and i == nq // 2:
                srv.invalidate()
            deadline = (float(rng.uniform(1e-3, 2e-2))
                        if deadlines and rng.random() < 0.5 else None)
            tickets.append(srv.submit(int(rng.integers(0, g.n)), now=now,
                                      deadline=deadline))
        srv.drain(now=now)
        srv.poll(now=now + 10.0)

        # Exactly once, to exactly one terminal status.  (The "at most
        # once" half is enforced by Ticket._resolve raising — this run
        # completing without that RuntimeError is the evidence.)
        assert all(t.done for t in tickets)
        statuses = [t.result().status for t in tickets]
        assert set(statuses) <= {"served", "rejected", "timeout", "failed"}
        st_ = srv.stats
        assert st_.submitted == nq
        assert st_.served == statuses.count("served")
        assert st_.rejected == statuses.count("rejected")
        assert st_.timeouts == statuses.count("timeout")
        assert st_.failed == statuses.count("failed")
        assert st_.served + st_.rejected + st_.timeouts + st_.failed == nq
        results = [t.result() for t in tickets]
        served = [r for r in results if r.status == "served"]
        assert st_.cache_hits == sum(r.cache_hit and not r.stale
                                     for r in served)
        assert st_.stale_serves == sum(r.stale for r in served)
        assert st_.sheds == sum(isinstance(r, Rejected) and r.reason == "shed"
                                for r in results)
        assert len(st_.latencies) == sum(not r.cache_hit for r in served)
        assert len(st_.cache_latencies) == sum(r.cache_hit for r in served)
        # The kernel-served count kernel_throughput divides by.
        useful = st_.kernel_s - st_.kernel_s_wasted
        if useful > 0:
            assert st_.kernel_throughput * useful == pytest.approx(
                len(st_.latencies))

        # No waiter stranded: the MSHR fully drained.
        assert len(srv.mshr) == 0

        # Nothing wrong was ever published: every cached traversal (any
        # epoch — stale entries included) is the exact answer for its
        # root, and failed batches never surface here at all.
        for (epoch, _sr, root), res in srv.cache._entries.items():
            assert epoch <= srv.epoch
            assert np.array_equal(res.dist, ref[root])
        # Served tickets carry correct answers too, stale or not.
        for t in tickets:
            r = t.result()
            if r.status == "served" and r.bfs is not None:
                assert np.array_equal(r.bfs.dist, ref[r.query.root])
