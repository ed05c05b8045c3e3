"""The serving driver: submit single-root queries, answer them in batches.

:class:`Server` is the synchronous core.  ``submit()`` resolves each
query in stages:

1. **cache** — a committed result for ``(epoch, semiring, root)`` is a
   hit: answered immediately, no kernel, no frontier column (hot
   ``"validate"`` queries reuse a memoized verdict, so they skip the
   O(N+M) tree checks too);
2. **MSHR** — a miss on a root that is already *pending* or *in flight*
   (:class:`~repro.serve.mshr.MissStatusRegistry`) attaches the ticket
   as a waiter on the outstanding traversal instead of enqueueing a new
   column — zero extra kernel work, latency = the batch's virtual
   completion minus the submit time;
3. **backpressure** — only a query that would need a *new* frontier
   column counts against ``max_pending``; beyond it the ticket resolves
   to an explicit :class:`~repro.serve.query.Rejected` result (and its
   cache lookup is counted as rejected, not as a miss);
4. **enqueue** — otherwise the ticket allocates an MSHR entry and hands
   its column to the :class:`~repro.serve.batcher.QueryBatcher`.

Batches released by width or deadline run on the engine the
:class:`~repro.serve.engines.EnginePool` picks for their width.  Results
become cache-visible only at the batch's *virtual completion time*
(``busy_until``), never at dispatch: completed entries are committed
lazily as the clock advances, so a query arriving before completion can
never observe the result early (it attaches to the in-flight entry and
pays the remaining wait instead).  Every resolved query is accounted in
:class:`ServeStats` — kernel-path and cache-hit latencies are kept as
separate populations so percentiles stay meaningful under Zipf skew.

Time is explicit: every entry point takes ``now=`` (defaulting to the
server's ``clock``), so workload generators can drive the server on a
virtual arrival clock while kernel time stays measured.  The sync server
is cooperatively scheduled — ``max_wait`` deadlines fire inside
``submit()``/``poll()``/``drain()``; :class:`AsyncServer` adds real
timers and per-query awaitable futures on top.

Service is modeled FIFO: a batch dispatched while a previous batch is
still "running" (in virtual time) starts after it, so open-loop latencies
include queueing delay, not just batching delay.

The failure surface is first-class (:mod:`repro.serve.faults`): a
seed-driven ``faults=`` plan injects kernel exceptions, stragglers, and
cache flakiness; per-query ``deadline=`` turns late answers into
:class:`~repro.serve.query.TimedOut`; transient faults are retried at
*batch* granularity with exponential backoff (all coalesced waiters ride
one retry); and a :class:`~repro.serve.faults.CircuitBreaker` degrades
gracefully under sustained failures — shedding kernel-path load,
halving ``max_batch``, optionally serving prior-epoch cache entries
flagged ``stale=True``.  With ``faults=None`` and no deadlines none of
this machinery runs: behavior is bit-identical to the fault-free server.

Observability rides on the same opt-in pattern (:mod:`repro.obs`): a
``tracer=`` turns every accepted query into a span tree — root
``serve.query`` [submit → resolution], children for the cache/MSHR
verdict and the queue wait, ``serve.batch``/``serve.kernel`` spans per
dispatched batch with the engine's wall-clock per-layer spans re-based
into the kernel's virtual window — while ``tracer=None`` (default)
creates *no span ever* and stays bit-identical, exactly like
``faults=None``.  Every scalar :class:`ServeStats` counter lives in the
server's :class:`~repro.obs.metrics.MetricsRegistry` (``self.metrics``)
under stable ``serve.*`` names, and the cache, MSHR, batcher and breaker
publish lazy views beside them; the registry always exists — it is pure
bookkeeping relocation, with no clock reads and no rng.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.bfs.msbfs import build_rep
from repro.bfs.result import BFSResult
from repro.formats.sell import SellCSigma
from repro.graphs.graph import Graph
from repro.obs.metrics import MetricsRegistry, owner_view, percentile
from repro.obs.trace import Tracer
from repro.semirings.base import get_semiring
from repro.serve.batcher import Batch, QueryBatcher
from repro.serve.cache import ResultCache, graph_fingerprint
from repro.serve.engines import DEFAULT_HYBRID_MAX_WIDTH, EnginePool
from repro.serve.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    PermanentKernelFault,
    TransientKernelFault,
)
from repro.serve.mshr import MissStatusRegistry, MSHREntry
from repro.serve.query import (
    Failed,
    Query,
    QueryResult,
    Rejected,
    Ticket,
    TimedOut,
)

__all__ = ["AsyncServer", "ServeStats", "Server"]


#: ServeStats scalar counters → their stable registry names: the single
#: source of truth for the attribute surface *and* the ``serve.*`` metric
#: table (see the README).  Semantics, per attribute:
#:
#: - ``submitted`` / ``served`` / ``rejected``: query outcomes.
#: - ``cache_hits``: answered straight from the committed cache.
#: - ``mshr_hits``: attached to an outstanding (pending or in-flight)
#:   miss instead of paying for a new frontier column.
#: - ``batches``: dispatched batches.
#: - ``kernel_s``: total kernel wall-clock seconds across batches.
#: - ``kernel_s_wasted``: kernel seconds of batches that served *no*
#:   waiter (every query resolved past its deadline) — charged to
#:   ``kernel_s`` like any other batch but split out so goodput metrics
#:   can exclude them.
#: - ``timeouts`` / ``retries`` / ``failed`` / ``failed_batches`` /
#:   ``sheds`` / ``stale_serves`` / ``cache_flakes`` /
#:   ``breaker_opens`` / ``breaker_closes``: resilience accounting (all
#:   zero with ``faults=None`` and no deadlines).
_STAT_COUNTERS = {
    "submitted": "serve.submitted",
    "served": "serve.served",
    "rejected": "serve.rejected",
    "cache_hits": "serve.cache_hits",
    "mshr_hits": "serve.mshr_hits",
    "batches": "serve.batches",
    "kernel_s": "serve.kernel_s",
    "kernel_s_wasted": "serve.kernel_s_wasted",
    "timeouts": "serve.timeouts",
    "retries": "serve.retries",
    "failed": "serve.failed",
    "failed_batches": "serve.failed_batches",
    "sheds": "serve.sheds",
    "stale_serves": "serve.stale_serves",
    "cache_flakes": "serve.cache_flakes",
    "breaker_opens": "serve.breaker_opens",
    "breaker_closes": "serve.breaker_closes",
}


class ServeStats:
    """Serving-side accounting: counts, widths, kernel time, latencies.

    The scalar counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    under the stable dotted names of :data:`_STAT_COUNTERS`; the familiar
    attributes (``stats.served``, ``stats.kernel_s``, ...) are thin
    read/write properties over those registry counters, so existing code
    and registry readers see one store.  Values and arithmetic are
    bit-identical to the former plain fields (a counter starts at int 0
    and follows ordinary ``+=`` promotion).  The list/dict populations
    (widths, reasons, latencies) stay plain attributes; their derived
    percentiles are registered as lazy views.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        #: The registry every scalar counter lives in; the owning server
        #: shares it with its components (``Server.metrics``).
        self.registry = MetricsRegistry() if registry is None else registry
        self._counters = {attr: self.registry.counter(name)
                          for attr, name in _STAT_COUNTERS.items()}
        #: Width of every dispatched batch, in dispatch order.
        self.widths: list[int] = []
        #: Release-reason histogram (``width`` / ``deadline`` / ``drain``).
        self.reasons: dict[str, int] = {}
        #: Kernel-path latency (submit → batch completion) per query
        #: resolved by a traversal — batch fan-out and in-flight MSHR
        #: attaches alike.
        self.latencies: list[float] = []
        #: Cache-hit latency per query answered from the committed cache
        #: — a separate population (identically 0.0 on the virtual
        #: clock), so kernel percentiles are not diluted by hits under
        #: Zipf skew.
        self.cache_latencies: list[float] = []
        views = {
            "serve.mean_batch_width": lambda s: s.mean_batch_width,
            "serve.kernel_throughput_qps": lambda s: s.kernel_throughput,
            "serve.latency_p50_s": lambda s: s.latency_percentile(50),
            "serve.latency_p95_s": lambda s: s.latency_percentile(95),
            "serve.latency_p99_s": lambda s: s.latency_percentile(99),
            "serve.cache_latency_p50_s":
                lambda s: s.cache_latency_percentile(50),
            "serve.cache_latency_p99_s":
                lambda s: s.cache_latency_percentile(99),
        }
        for name, read in views.items():
            self.registry.register_view(name, owner_view(self, read))

    @property
    def mean_batch_width(self) -> float:
        """Average frontier columns per dispatched batch."""
        return float(np.mean(self.widths)) if self.widths else 0.0

    @property
    def kernel_throughput(self) -> float:
        """Kernel-resolved queries per *useful* kernel second (lifetime)."""
        return _goodput(self._counts())

    def latency_percentile(self, p: float) -> float:
        """``p``-th percentile (0–100) of *kernel-path* latencies."""
        return percentile(self.latencies, p)

    def cache_latency_percentile(self, p: float) -> float:
        """``p``-th percentile (0–100) of cache-hit latencies."""
        return percentile(self.cache_latencies, p)

    def _counts(self) -> dict:
        return {attr: c.value for attr, c in self._counters.items()}

    def mark(self) -> dict:
        """Where every counter and population stands now.

        Pass it back as ``summary(since=mark)`` to summarize only what
        was counted after this call — one workload run's figures on a
        shared server.
        """
        return {"counts": self._counts(), "reasons": dict(self.reasons),
                "widths": len(self.widths),
                "latencies": len(self.latencies),
                "cache_latencies": len(self.cache_latencies)}

    def summary(self, since: dict | None = None) -> dict:
        """Plain-dict figures (JSON-friendly; used by benches/CLI).

        Lifetime figures by default; with ``since`` (a :meth:`mark`) the
        figures of everything counted after that mark.
        """
        c = self._counts()
        reasons = dict(self.reasons)
        widths, lat, clat = self.widths, self.latencies, self.cache_latencies
        if since is not None:
            c = {attr: v - since["counts"][attr] for attr, v in c.items()}
            old = since["reasons"]
            reasons = {r: n - old.get(r, 0) for r, n in reasons.items()
                       if n > old.get(r, 0)}
            widths = widths[since["widths"]:]
            lat = lat[since["latencies"]:]
            clat = clat[since["cache_latencies"]:]
        lat = np.asarray(lat, dtype=np.float64)
        return {
            **c,
            "mean_batch_width": float(np.mean(widths)) if widths else 0.0,
            "reasons": reasons,
            "kernel_throughput_qps": _goodput(c),
            "latency_p50_s": percentile(lat, 50),
            "latency_p95_s": percentile(lat, 95),
            "latency_p99_s": percentile(lat, 99),
            "latency_mean_s": float(lat.mean()) if lat.size else 0.0,
            "cache_latency_p50_s": percentile(clat, 50),
            "cache_latency_p99_s": percentile(clat, 99),
        }


def _goodput(c: dict) -> float:
    """Kernel-resolved queries per *useful* kernel second, from counts.

    Excludes cache hits and stale serves (both answered from the cache)
    from the numerator and wasted kernel seconds (batches whose every
    waiter timed out) from the denominator, so the figure stays a goodput
    rate under fault injection instead of silently deflating.
    """
    kernel_served = c["served"] - c["cache_hits"] - c["stale_serves"]
    useful = c["kernel_s"] - c["kernel_s_wasted"]
    return kernel_served / useful if useful > 0 else 0.0


def _counter_property(attr: str, metric: str) -> property:
    """Read/write property over one registry-backed stats counter."""
    def fget(self):
        return self._counters[attr].value

    def fset(self, value):
        self._counters[attr].value = value

    return property(fget, fset,
                    doc=f"Registry-backed counter ``{metric}``.")


for _attr, _metric in _STAT_COUNTERS.items():
    setattr(ServeStats, _attr, _counter_property(_attr, _metric))
del _attr, _metric


class Server:
    """Adaptive micro-batching query server over one graph.

    Parameters
    ----------
    graph_or_rep:
        The served graph, or a prebuilt :class:`SellCSigma`/``SlimSell``.
    C / sigma:
        Build parameters when a raw graph is passed (SlimSell, C=16).
    max_batch:
        Frontier columns per dispatched batch (width release trigger).
    max_wait:
        Seconds a pending query may wait for its batch to fill before the
        deadline releases it (0 = dispatch on every submit: B degenerates
        to the coalesced arrivals of a single timestamp).
    cache_size:
        :class:`ResultCache` capacity in entries (0 disables caching;
        in-flight miss coalescing through the MSHR stays on either way).
    max_pending:
        Bound on frontier columns waiting in the batcher; a submit that
        would need a *new* column beyond it is rejected.  Duplicates of
        an outstanding root attach to its MSHR entry for free and are
        never rejected.  ``None`` (default) = unbounded.
    alpha / slimwork / hybrid_max_width:
        Engine-selection knobs, see :class:`EnginePool`.
    clock:
        The time source for defaulted ``now`` values
        (``time.perf_counter``); injectable for deterministic tests.
    faults:
        A :class:`~repro.serve.faults.FaultPlan` (or a prebuilt — possibly
        scripted — :class:`~repro.serve.faults.FaultInjector`) injecting
        kernel faults, stragglers, and cache flakiness around
        ``_run_batch``.  ``None`` (default) = no injection and *no rng is
        ever created*: the fault-free server is bit-identical to one that
        predates the fault layer.
    max_retries:
        Batch re-dispatches allowed after transient kernel faults before
        the batch fails.  One retry re-dispatches *all* coalesced MSHR
        waiters together — never a per-waiter retry storm.
    retry_backoff:
        Base of the exponential backoff charged to the virtual timeline
        per retry (attempt ``k`` adds ``retry_backoff * 2**k`` modeled
        seconds).
    breaker:
        The :class:`~repro.serve.faults.CircuitBreaker` degrading service
        under sustained batch failures (opens after its
        ``failure_threshold``: sheds kernel-path load, halves
        ``max_batch``, optionally serves stale).  Pass a configured
        instance to tune thresholds; the default never acts unless
        batches actually fail.
    serve_stale:
        While the breaker is open, answer shed queries from prior-epoch
        cache entries (flagged ``stale=True``) when one exists, instead
        of rejecting; also keeps cache entries across
        :meth:`invalidate` so there is something stale to serve.
    service_model:
        Optional ``roots -> seconds`` callable (``roots`` the dispatched
        batch's int64 root array) replacing the *measured* kernel time on
        the virtual timeline (the engine still runs for real answers).
        Makes completion times — hence timeouts, breaker cooldowns,
        goodput — deterministic for tests and benchmarks, and prices each
        batch from its actual composition: the capacity planner's
        :class:`~repro.serve.plan.DistServiceModel` plugs in here to
        charge the distributed model's union-sweep time.
    tracer:
        A :class:`~repro.obs.trace.Tracer` collecting the span tree of
        every accepted query (root ``serve.query`` per ticket,
        ``serve.batch``/``serve.kernel`` per dispatched batch, engine
        per-layer spans re-based into the kernel's virtual window — see
        the README span taxonomy).  ``None`` (default) = tracing off and
        *no span is ever created*: like ``faults=None``, the untraced
        server is bit-identical to one that predates the tracing layer.
    """

    def __init__(self, graph_or_rep: Graph | SellCSigma, *, C: int = 16,
                 sigma: int | None = None, max_batch: int = 16,
                 max_wait: float = 2e-3, cache_size: int = 1024,
                 max_pending: int | None = None, alpha: float = 14.0,
                 slimwork: bool = True,
                 hybrid_max_width: int = DEFAULT_HYBRID_MAX_WIDTH,
                 clock: Callable[[], float] = time.perf_counter,
                 faults: FaultPlan | FaultInjector | None = None,
                 max_retries: int = 2, retry_backoff: float = 1e-3,
                 breaker: CircuitBreaker | None = None,
                 serve_stale: bool = False,
                 service_model: Callable[[np.ndarray], float] | None = None,
                 tracer: Tracer | None = None):
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 or None, got {max_pending}")
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        if hybrid_max_width < 1:
            raise ValueError(
                f"hybrid_max_width must be >= 1, got {hybrid_max_width}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}")
        self.rep = build_rep(graph_or_rep, C, sigma, slim=True)
        self.graph = self.rep.graph_original
        self.batcher = QueryBatcher(max_batch=max_batch, max_wait=max_wait)
        self.cache = ResultCache(capacity=cache_size)
        self.mshr = MissStatusRegistry()
        self.pool = EnginePool(self.rep, alpha=alpha, slimwork=slimwork,
                               hybrid_max_width=hybrid_max_width)
        self.max_pending = max_pending
        self.clock = clock
        self.stats = ServeStats()
        #: The metrics registry every serving component publishes into:
        #: the stats counters live here (``serve.*``), and the cache,
        #: MSHR, batcher and breaker register lazy views below.
        self.metrics = self.stats.registry
        #: Span tracer (None = tracing off: no span is ever created and
        #: the serve path is bit-identical to an untraced server).
        self.tracer = tracer
        #: The fault sampler (None = fault-free: no rng exists at all).
        self.faults: FaultInjector | None = (
            FaultInjector(faults) if isinstance(faults, FaultPlan)
            else faults)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.serve_stale = serve_stale
        self.service_model = service_model
        #: The configured width trigger, restored when the breaker closes
        #: (opens halve ``batcher.max_batch`` to drain faster).
        self._configured_max_batch = max_batch
        #: Monotonic invalidation counter: the first component of every
        #: cache/MSHR key.  Bumped by :meth:`invalidate`.
        self.epoch = 0
        self._fingerprint: str | None = None
        #: Memoized ``"validate"`` verdicts per (epoch, semiring, root):
        #: hot roots never re-run the O(N+M) five-check validation.
        self._validated: set[tuple[int, str, int]] = set()
        #: Virtual completion time of the last dispatched batch (FIFO).
        self._busy_until = float("-inf")
        # Component views: lazy reads, nothing on the serve path changes.
        self.cache.register_metrics(self.metrics)
        self.mshr.register_metrics(self.metrics)
        self.batcher.register_metrics(self.metrics)
        self.breaker.register_metrics(self.metrics)
        self.metrics.register_view(
            "serve.epoch", owner_view(self, lambda s: s.epoch))
        self.metrics.register_view(
            "serve.busy_until", owner_view(self, lambda s: s._busy_until))

    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        """Width release trigger (delegated to the batcher)."""
        return self.batcher.max_batch

    @property
    def max_wait(self) -> float:
        """Deadline release trigger in seconds (delegated to the batcher)."""
        return self.batcher.max_wait

    @property
    def busy_until(self) -> float:
        """Virtual completion time of the last dispatched batch.

        ``-inf`` before the first dispatch; workload drivers read this to
        advance their clocks past the modeled FIFO service.
        """
        return self._busy_until

    @property
    def fingerprint(self) -> str:
        """Structural digest of the served graph, hashed once per epoch.

        Provenance only — cache keys use the cheap :attr:`epoch` counter
        instead of re-hashing the CSR arrays on every lookup.
        """
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.rep)
        return self._fingerprint

    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Begin a new epoch: no query submitted from now on can observe
        a result computed before this call.

        O(1) where it matters: the epoch counter is bumped (making every
        older key unreachable) and the fingerprint is re-hashed lazily on
        next access.  Already-cached entries are dropped; traversals
        still pending or in flight run to completion and resolve their
        existing waiters, but their results are *discarded at commit*
        instead of becoming cache-visible.  Returns the new epoch.

        This is the hook for mutable graphs: mutate the underlying
        structure, then ``invalidate()`` so stale traversals can never be
        served again.
        """
        self.epoch += 1
        self._fingerprint = None
        # A stale-serving server keeps the old entries: unreachable
        # through epoch-keyed lookups, but peek_stale can degrade to them
        # while the breaker is open.
        self.cache.clear(keep_stale=self.serve_stale)
        self._validated.clear()
        return self.epoch

    # ------------------------------------------------------------------
    def submit(self, root: int, *, kind: str = "distances",
               semiring: str = "sel-max", target: int | None = None,
               now: float | None = None,
               deadline: float | None = None) -> Ticket:
        """Submit one query; returns its :class:`Ticket`.

        Resolution order: cache hit (immediate; a fault plan with cache
        flakiness may spuriously turn it into a miss), MSHR attach
        (shares the outstanding traversal — immediate if that batch
        already dispatched, else resolved at its dispatch), breaker shed
        (while the circuit breaker is open a kernel-path query is
        answered from a prior-epoch cache entry flagged ``stale=True``
        when ``serve_stale`` allows, else rejected with reason
        ``"shed"``), backpressure rejection (immediate, explicit
        :class:`Rejected` result — only for queries needing a new
        frontier column), else enqueue — the ticket resolves when its
        batch dispatches (possibly within this very call, if it fills a
        batch or a deadline is due).

        ``deadline`` (seconds from ``now``) marks the answer useless
        after ``now + deadline``: a batch completing later resolves the
        ticket :class:`TimedOut` instead of served.  The traversal still
        runs and is cached for future queries.

        Invalid input — unknown kind/semiring, out-of-range root or
        target, non-positive deadline — raises :class:`ValueError` (a
        client error, not backpressure).
        """
        # Unknown semiring: raise here, not at flush.  Aliases ("selmax",
        # "SEL_MAX") key the cache, MSHR, batcher and engines by one name.
        semiring = get_semiring(semiring).name
        query = Query(root=int(root), kind=kind, semiring=semiring,
                      target=None if target is None else int(target))
        n = self.rep.n
        if not 0 <= query.root < n:
            raise ValueError(f"root {query.root} out of range [0, {n})")
        if query.target is not None and not 0 <= query.target < n:
            raise ValueError(f"target {query.target} out of range [0, {n})")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if now is None:
            now = self.clock()
        self._commit(now)
        self.stats.submitted += 1
        ticket = Ticket(query=query, submitted_at=now,
                        deadline_at=None if deadline is None
                        else now + deadline)
        tracer = self.tracer
        if tracer is not None:
            ticket.span = tracer.begin(
                "serve.query", t=now, root=query.root, kind=kind,
                semiring=semiring)

        key = (self.epoch, semiring, query.root)
        cached = self.cache.peek(key)
        if cached is not None and self.faults is not None \
                and self.faults.cache_flaky():
            # Injected flaky read: the hit is spuriously invisible and
            # the query pays the full kernel path (recompute).
            self.stats.cache_flakes += 1
            if tracer is not None:
                tracer.record("serve.cache.flake", now, now,
                              parent=ticket.span)
            cached = None
        if cached is not None:
            self.cache.record_hit()
            self._finish(ticket, QueryResult(
                query=query, status="served",
                value=self._reduce(query, cached, key),
                bfs=cached, cache_hit=True), now,
                ("serve.cache.hit", now, now, {}), cache_hit=True)
            return ticket

        entry = self.mshr.lookup(key)
        if entry is not None:
            # Outstanding miss: attach as a waiter (zero extra kernel
            # work), *before* any backpressure check — sharing an
            # existing column must never be rejected or shed.
            self.cache.record_miss()
            self.mshr.attach(entry, ticket)
            self.stats.mshr_hits += 1
            if tracer is not None:
                tracer.record("serve.mshr.attach", now, now,
                              parent=ticket.span, state=entry.state)
            if entry.state == "inflight":
                # The batch already dispatched: the answer exists from
                # its virtual completion, so latency is completion −
                # submit (never the impossible 0.0 of an early hit).
                qr = self._answer(entry, ticket)
                kspan = entry.kernel_span
                self._finish(
                    ticket, qr, entry.completion, mshr_hit=True,
                    kernel_span=None if kspan is None else kspan.span_id,
                    latency_s=qr.latency_s)
            return ticket

        if not self.breaker.allow(now):
            # Breaker open: degrade instead of queueing doomed kernel
            # work.  A prior-epoch cache entry (when configured) beats
            # refusing outright; either way no new column is paid for.
            stale = (self.cache.peek_stale(semiring, query.root, self.epoch)
                     if self.serve_stale else None)
            if stale is not None:
                stale_key, stale_res = stale
                self.cache.record_hit()
                self._finish(ticket, QueryResult(
                    query=query, status="served",
                    value=self._reduce(query, stale_res, stale_key),
                    bfs=stale_res, cache_hit=True, stale=True), now,
                    ("serve.cache.stale", now, now, {}), stale=True)
                return ticket
            self.cache.record_rejected_lookup()
            self._finish(ticket, Rejected(query, reason="shed"), now,
                         ("serve.shed", now, now, {}), reason="shed")
            return ticket

        if (self.max_pending is not None
                and len(self.batcher) >= self.max_pending):
            self.cache.record_rejected_lookup()
            self._finish(ticket, Rejected(query), now,
                         ("serve.reject", now, now,
                          {"reason": "backpressure"}),
                         reason="backpressure")
            return ticket

        self.cache.record_miss()
        self.mshr.allocate(key, ticket)
        self.batcher.enqueue(ticket, now)
        if tracer is not None:
            tracer.record("serve.enqueue", now, now, parent=ticket.span,
                          pending=len(self.batcher))
        self._pump(now)
        return ticket

    def poll(self, now: float | None = None) -> None:
        """Commit completed batches and dispatch any deadline-due ones."""
        now = self.clock() if now is None else now
        self._commit(now)
        self._pump(now)

    def drain(self, now: float | None = None) -> list[QueryResult]:
        """Dispatch everything still pending; returns the drained results.

        Pending queries are released in (at most) ``max_batch``-wide
        groups, so a drain keeps the batching benefit; results come back
        in completion order.
        """
        now = self.clock() if now is None else now
        self._commit(now)
        out: list[QueryResult] = []
        for batch in self.batcher.flush_all():
            out.extend(self._run_batch(batch, now))
        return out

    # ------------------------------------------------------------------
    def _commit(self, now: float) -> None:
        """Publish every in-flight traversal whose virtual completion
        time has passed: only now does it become cache-visible.  Entries
        whose epoch was invalidated while in flight are dropped."""
        for entry in self.mshr.take_due(now):
            if entry.key[0] == self.epoch:
                self.cache.put(entry.key, entry.result)

    def _pump(self, now: float) -> None:
        for batch in self.batcher.ready(now):
            self._run_batch(batch, now)

    def _run_batch(self, batch: Batch, now: float) -> list[QueryResult]:
        """Run one released batch, under the fault plan when one is set.

        The retry loop is *batch-level*: a transient kernel fault
        re-dispatches the whole batch (all coalesced MSHR waiters ride
        the one retry), charging ``retry_backoff * 2**attempt`` modeled
        seconds per attempt.  A permanent fault, an exhausted retry
        budget, or a real engine exception takes the :meth:`_fail_batch`
        path — every waiter resolves ``Failed``, the MSHR entries are
        aborted, and nothing is ever published to the cache (a real
        exception then re-raises, invariants already restored).
        """
        name, engine = self.pool.engine_for(batch.semiring, batch.width)
        start = max(now, self._busy_until)
        tracer = self.tracer
        delay = 0.0  # modeled seconds lost to faulted attempts
        attempt = 0
        while True:
            if self.faults is not None:
                try:
                    self.faults.kernel_fault()
                except PermanentKernelFault as exc:
                    return self._fail_batch(batch, start + delay, exc)
                except TransientKernelFault as exc:
                    if attempt >= self.max_retries:
                        return self._fail_batch(batch, start + delay, exc)
                    delay += self.retry_backoff * (2.0 ** attempt)
                    attempt += 1
                    self.stats.retries += 1
                    continue
            if tracer is not None:
                # Let the engine emit its per-layer wall-clock spans
                # (re-based into the virtual kernel window below).
                engine.tracer = tracer
                engine.trace_parent = None
                mark = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                results = engine.run(batch.roots)
            except Exception as exc:
                if tracer is not None:
                    engine.tracer = None
                self._fail_batch(batch, start + delay, exc)
                raise
            kernel = time.perf_counter() - t0
            if tracer is not None:
                engine.tracer = None
                engine_spans = tracer.spans[mark:]
                measured = kernel
            break
        if self.service_model is not None:
            kernel = self.service_model(batch.roots)
        if self.faults is not None:
            kernel *= self.faults.straggler()
        completion = start + delay + kernel
        self._busy_until = completion
        st = self.stats
        st.batches += 1
        st.kernel_s += kernel
        st.widths.append(batch.width)
        st.reasons[batch.reason] = st.reasons.get(batch.reason, 0) + 1
        if self.breaker.record_success():
            st.breaker_closes += 1
            self.batcher.max_batch = self._configured_max_batch
        kspan = None
        links = {}  # the waiters' root-span links to this batch
        if tracer is not None:
            bspan = tracer.begin(
                "serve.batch", t=start, track="server",
                semiring=batch.semiring, width=batch.width,
                reason=batch.reason, engine=name,
                queries=sum(len(t.mshr.waiters) for t in batch.tickets))
            if delay > 0.0:
                tracer.record("serve.retry.backoff", start, start + delay,
                              parent=bspan, retries=attempt)
            kstart = start + delay
            kspan = tracer.record("serve.kernel", kstart, completion,
                                  parent=bspan, track="server", engine=name,
                                  width=batch.width, measured_s=measured)
            if engine_spans and measured > 0.0:
                # Re-base the engine's wall-clock layer spans into the
                # kernel's virtual window: offset to kstart, scaled so
                # the measured duration fills the modeled one exactly.
                scale = kernel / measured
                for s in engine_spans:
                    if s.parent_id is None:
                        s.parent_id = kspan.span_id
                    s.trace_id = kspan.trace_id
                    s.t_start = kstart + (s.t_start - t0) * scale
                    if s.t_end is not None:
                        s.t_end = kstart + (s.t_end - t0) * scale
            tracer.end(bspan, t=completion)
            links = {"batch_span": bspan.span_id,
                     "kernel_span": kspan.span_id}
        out: list[QueryResult] = []
        for primary, res in zip(batch.tickets, results):
            entry = primary.mshr
            self.mshr.dispatch(entry, res, completion, batch.width, name)
            entry.kernel_span = kspan
            for i, ticket in enumerate(entry.waiters):
                qr = self._answer(entry, ticket)
                queued = (("serve.queue", ticket.submitted_at, start, {})
                          if start > ticket.submitted_at else None)
                self._finish(ticket, qr, completion, queued, mshr_hit=i > 0,
                             **links, engine=qr.engine,
                             latency_s=qr.latency_s)
                out.append(qr)
        if not any(qr.status == "served" for qr in out):
            # Every waiter missed its deadline: the batch's kernel time
            # produced no served answer (goodput-wasted, though the
            # results are still cached for future queries).
            st.kernel_s_wasted += kernel
        return out

    def _fail_batch(self, batch: Batch, completion: float,
                    exc: BaseException) -> list[QueryResult]:
        """Resolve a failed batch: every coalesced waiter gets ``Failed``,
        every MSHR entry is aborted (so later queries on the same roots
        allocate fresh misses), and the breaker accounts the failure —
        possibly opening and degrading ``max_batch``.  Restores every
        serving invariant, so it is safe to re-raise afterwards for real
        engine exceptions."""
        st = self.stats
        st.failed_batches += 1
        self._busy_until = max(self._busy_until, completion)
        out: list[QueryResult] = []
        for primary in batch.tickets:
            entry = primary.mshr
            for ticket in entry.waiters:
                qr = Failed(ticket.query, error=str(exc) or repr(exc),
                            latency_s=completion - ticket.submitted_at)
                self._finish(ticket, qr, completion, latency_s=qr.latency_s)
                out.append(qr)
            self.mshr.abort(entry)
        if self.breaker.record_failure(completion):
            st.breaker_opens += 1
            # Degrade: narrower batches fail less work per fault and
            # drain the queue sooner; restored when the breaker closes.
            self.batcher.max_batch = max(1, self.batcher.max_batch // 2)
        return out

    def _answer(self, entry: MSHREntry, ticket: Ticket) -> QueryResult:
        """What a waiter on the dispatched ``entry`` gets: its traversal,
        answered at the batch's virtual completion, or :class:`TimedOut`
        when that completion is past the ticket's deadline (too late to
        be useful for *this* ticket; the traversal is still cached for
        future queries)."""
        latency = entry.completion - ticket.submitted_at
        if (ticket.deadline_at is not None
                and entry.completion > ticket.deadline_at):
            return TimedOut(ticket.query, latency_s=latency)
        return QueryResult(
            query=ticket.query, status="served",
            value=self._reduce(ticket.query, entry.result, entry.key),
            bfs=entry.result, mshr_hit=ticket is not entry.waiters[0],
            waiters=len(entry.waiters), batch_width=entry.batch_width,
            engine=entry.engine, latency_s=latency)

    def _finish(self, ticket: Ticket, qr: QueryResult, t: float,
                marker: tuple[str, float, float, dict] | None = None,
                **attrs) -> None:
        """Resolve ``ticket`` to ``qr``: the one path every outcome takes.

        The outcome counters and the latency population are derived from
        ``qr`` alone, bumped on the registry counters directly rather
        than through the ``ServeStats`` properties: this runs on every
        cache hit.  On a traced server the site's ``marker`` span
        ``(name, t_start, t_end, attrs)`` is recorded under the query's
        root span, which then closes at ``t`` with ``qr.status`` and
        ``attrs``.  The ticket resolves last, after the accounting.
        """
        st = self.stats
        count = st._counters
        status = qr.status
        if status == "served":
            count["served"].value += 1
            if qr.cache_hit:
                count["stale_serves" if qr.stale else "cache_hits"].value += 1
                st.cache_latencies.append(qr.latency_s)
            else:
                st.latencies.append(qr.latency_s)
        elif status == "rejected":
            count["rejected"].value += 1
            if qr.reason == "shed":
                count["sheds"].value += 1
        elif status == "timeout":
            count["timeouts"].value += 1
        else:
            count["failed"].value += 1
        span = ticket.span
        if span is not None and self.tracer is not None:
            if marker is not None:
                name, t0, t1, marker_attrs = marker
                self.tracer.record(name, t0, t1, parent=span, **marker_attrs)
            self.tracer.end(span, t=t, status=status, **attrs)
            qr.span = span
        ticket._resolve(qr)

    def _reduce(self, query: Query, res: BFSResult,
                key: tuple[int, str, int]):
        """Kind-specific reduction of the shared traversal."""
        if query.kind == "reachability":
            return bool(np.isfinite(res.dist[query.target]))
        if query.kind == "validate":
            if key not in self._validated:
                from repro.graph500 import validate_bfs_tree

                validate_bfs_tree(self.graph, res)
                self._validated.add(key)
            return True
        return res  # "distances": the traversal is the answer


class AsyncServer:
    """asyncio front-end: per-query awaitable futures over a :class:`Server`.

    ``await async_submit(...)`` resolves when the query's batch runs —
    which a width trigger may do inline, a ``max_wait`` timer (a real
    asyncio timer armed at the batcher's next deadline) does for partial
    batches, and :meth:`drain` forces.  Duplicate submits attach to the
    outstanding miss's MSHR entry inside the server, so their futures all
    settle from that one traversal's fan-out.  The timer is
    deadline-aware: it tracks the deadline it was armed for and re-arms
    whenever the batcher's next deadline moves (e.g. after a
    width-triggered release empties the group it was armed for), so no
    stale timer is left behind and no due group is stranded.  The wrapped
    server must use the default real-time clock (virtual ``now`` values
    would disagree with the event loop's timers).
    """

    def __init__(self, server: Server):
        self.server = server
        self._waiters: list = []  # (Ticket, asyncio.Future) pairs
        self._timer = None
        #: The batcher deadline the live timer was armed for (None =
        #: no timer armed); compared against ``next_deadline()`` so a
        #: moved deadline cancels and re-arms instead of going stale.
        self._armed_deadline: float | None = None

    async def async_submit(self, root: int, *, kind: str = "distances",
                           semiring: str = "sel-max",
                           target: int | None = None,
                           deadline: float | None = None) -> QueryResult:
        """Submit one query and await its :class:`QueryResult`.

        ``deadline`` behaves as in :meth:`Server.submit`: an answer
        arriving after it resolves the future to a
        :class:`~repro.serve.query.TimedOut` result (the future itself
        still settles at batch completion — no asyncio-level
        cancellation is involved).
        """
        import asyncio

        loop = asyncio.get_running_loop()
        ticket = self.server.submit(root, kind=kind, semiring=semiring,
                                    target=target, deadline=deadline)
        self._settle()
        if ticket.done:
            if self._waiters:
                self._arm_timer(loop)  # this submit may have moved the deadline
            return ticket.result()
        future = loop.create_future()
        self._waiters.append((ticket, future))
        self._arm_timer(loop)
        return await future

    async def drain(self) -> list[QueryResult]:
        """Force-dispatch everything pending and settle all futures."""
        out = self.server.drain()
        self._settle()
        return out

    @property
    def pending(self) -> int:
        """Futures still awaiting a batch."""
        return len(self._waiters)

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        still = []
        for ticket, future in self._waiters:
            if ticket.done:
                if not future.cancelled():
                    future.set_result(ticket.result())
            else:
                still.append((ticket, future))
        self._waiters = still
        if not self._waiters:
            self._disarm()

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_deadline = None

    def _arm_timer(self, loop) -> None:
        deadline = self.server.batcher.next_deadline()
        if deadline == self._armed_deadline and (
                deadline is None or self._timer is not None):
            return  # already armed for exactly this deadline
        self._disarm()
        if deadline is None:
            return
        self._armed_deadline = deadline
        delay = max(0.0, deadline - self.server.clock())
        self._timer = loop.call_later(delay, self._fire, loop)

    def _fire(self, loop) -> None:
        self._timer = None
        self._armed_deadline = None
        self.server.poll()
        self._settle()
        if self._waiters:
            self._arm_timer(loop)
