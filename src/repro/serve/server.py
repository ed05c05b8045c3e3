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
        """Kernel-resolved queries per *useful* kernel second.

        Excludes cache hits from the numerator and wasted kernel seconds
        (batches whose every waiter timed out) from the denominator, so
        the metric stays a goodput rate under fault injection instead of
        silently deflating.
        """
        kernel_served = self.served - self.cache_hits
        useful = self.kernel_s - self.kernel_s_wasted
        return kernel_served / useful if useful > 0 else 0.0

    def latency_percentile(self, p: float) -> float:
        """``p``-th percentile (0–100) of *kernel-path* latencies."""
        return percentile(self.latencies, p)

    def cache_latency_percentile(self, p: float) -> float:
        """``p``-th percentile (0–100) of cache-hit latencies."""
        return percentile(self.cache_latencies, p)

    def summary(self) -> dict:
        """Plain-dict snapshot (JSON-friendly; used by benches/CLI)."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "mshr_hits": self.mshr_hits,
            "batches": self.batches,
            "mean_batch_width": self.mean_batch_width,
            "reasons": dict(self.reasons),
            "kernel_s": self.kernel_s,
            "kernel_s_wasted": self.kernel_s_wasted,
            "kernel_throughput_qps": self.kernel_throughput,
            "latency_p50_s": self.latency_percentile(50),
            "latency_p95_s": self.latency_percentile(95),
            "latency_p99_s": self.latency_percentile(99),
            "cache_latency_p50_s": self.cache_latency_percentile(50),
            "cache_latency_p99_s": self.cache_latency_percentile(99),
            "timeouts": self.timeouts,
            "retries": self.retries,
            "failed": self.failed,
            "failed_batches": self.failed_batches,
            "sheds": self.sheds,
            "stale_serves": self.stale_serves,
            "cache_flakes": self.cache_flakes,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
        }


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
    alpha / slimwork / strategy / hybrid_max_width:
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
        Optional ``width -> seconds`` callable replacing the *measured*
        kernel time on the virtual timeline (the engine still runs for
        real answers).  Makes completion times — hence timeouts, breaker
        cooldowns, goodput — deterministic for tests and benchmarks.
    batch_service_model:
        Optional ``roots -> seconds`` callable (``roots`` the dispatched
        batch's int64 root array) replacing the measured kernel time with
        a cost computed from the *actual batch composition*, not just its
        width.  This is the capacity planner's seam
        (:class:`~repro.serve.plan.DistServiceModel` charges each batch
        the distributed model's union-sweep time); mutually exclusive
        with ``service_model``.
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
                 strategy: Callable[[int], str] | None = None,
                 hybrid_max_width: int = DEFAULT_HYBRID_MAX_WIDTH,
                 clock: Callable[[], float] = time.perf_counter,
                 faults: FaultPlan | FaultInjector | None = None,
                 max_retries: int = 2, retry_backoff: float = 1e-3,
                 breaker: CircuitBreaker | None = None,
                 serve_stale: bool = False,
                 service_model: Callable[[int], float] | None = None,
                 batch_service_model: Callable[[np.ndarray], float] | None
                 = None,
                 tracer: Tracer | None = None):
        if service_model is not None and batch_service_model is not None:
            raise ValueError(
                "service_model and batch_service_model are mutually "
                "exclusive: one virtual timeline per server")
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
                               strategy=strategy,
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
        self.batch_service_model = batch_service_model
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
        query = Query(root=int(root), kind=kind, semiring=semiring,
                      target=None if target is None else int(target))
        get_semiring(semiring)  # unknown semiring: raise here, not at flush
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
            self.stats.cache_hits += 1
            self.stats.served += 1
            self.stats.cache_latencies.append(0.0)
            qr = QueryResult(
                query=query, status="served",
                value=self._reduce(query, cached, key),
                bfs=cached, cache_hit=True)
            if tracer is not None:
                tracer.record("serve.cache.hit", now, now,
                              parent=ticket.span)
                tracer.end(ticket.span, t=now, status="served",
                           cache_hit=True)
                qr.span = ticket.span
            ticket._resolve(qr)
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
                self._resolve_inflight(entry, ticket)
            return ticket

        if not self.breaker.allow(now):
            # Breaker open: degrade instead of queueing doomed kernel
            # work.  A prior-epoch cache entry (when configured) beats
            # refusing outright; either way no new column is paid for.
            if self.serve_stale:
                stale = self.cache.peek_stale(semiring, query.root,
                                              self.epoch)
                if stale is not None:
                    stale_key, stale_res = stale
                    self.cache.record_hit()
                    self.stats.stale_serves += 1
                    self.stats.served += 1
                    self.stats.cache_latencies.append(0.0)
                    qr = QueryResult(
                        query=query, status="served",
                        value=self._reduce(query, stale_res, stale_key),
                        bfs=stale_res, cache_hit=True, stale=True)
                    if tracer is not None:
                        tracer.record("serve.cache.stale", now, now,
                                      parent=ticket.span)
                        tracer.end(ticket.span, t=now, status="served",
                                   stale=True)
                        qr.span = ticket.span
                    ticket._resolve(qr)
                    return ticket
            self.cache.record_rejected_lookup()
            self.stats.rejected += 1
            self.stats.sheds += 1
            qr = Rejected(query, reason="shed")
            if tracer is not None:
                tracer.record("serve.shed", now, now, parent=ticket.span)
                tracer.end(ticket.span, t=now, status="rejected",
                           reason="shed")
                qr.span = ticket.span
            ticket._resolve(qr)
            return ticket

        if (self.max_pending is not None
                and self.batcher.pending_queries >= self.max_pending):
            self.cache.record_rejected_lookup()
            self.stats.rejected += 1
            qr = Rejected(query)
            if tracer is not None:
                tracer.record("serve.reject", now, now, parent=ticket.span,
                              reason="backpressure")
                tracer.end(ticket.span, t=now, status="rejected",
                           reason="backpressure")
                qr.span = ticket.span
            ticket._resolve(qr)
            return ticket

        self.cache.record_miss()
        self.mshr.allocate(key, ticket)
        self.batcher.enqueue(ticket, now)
        if tracer is not None:
            tracer.record("serve.enqueue", now, now, parent=ticket.span,
                          pending=self.batcher.pending_queries)
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
        if self.batch_service_model is not None:
            kernel = self.batch_service_model(batch.roots)
        elif self.service_model is not None:
            kernel = self.service_model(batch.width)
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
        bspan = kspan = None
        if tracer is not None:
            bspan = tracer.begin(
                "serve.batch", t=start, track="server",
                semiring=batch.semiring, width=batch.width,
                reason=batch.reason, engine=name,
                queries=batch.n_queries)
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
        out: list[QueryResult] = []
        batch_served = 0
        for j, res in enumerate(results):
            entry = self._entry_for(batch, j)
            self.mshr.dispatch(entry, res, completion, batch.width, name)
            if tracer is not None:
                entry.kernel_span = kspan
            nwaiters = len(entry.waiters)
            for i, ticket in enumerate(entry.waiters):
                latency = completion - ticket.submitted_at
                if (ticket.deadline_at is not None
                        and completion > ticket.deadline_at):
                    # Too late to be useful for *this* ticket; the
                    # traversal is still cached for future queries.
                    qr = TimedOut(ticket.query, latency_s=latency)
                    st.timeouts += 1
                else:
                    qr = QueryResult(
                        query=ticket.query, status="served",
                        value=self._reduce(ticket.query, res, entry.key),
                        bfs=res, mshr_hit=i > 0, waiters=nwaiters,
                        batch_width=batch.width, engine=name,
                        latency_s=latency)
                    st.served += 1
                    batch_served += 1
                    st.latencies.append(latency)
                if tracer is not None:
                    self._trace_finish(ticket, qr, start, completion,
                                       bspan, kspan, mshr_hit=i > 0)
                ticket._resolve(qr)
                out.append(qr)
        if batch_served == 0:
            # Every waiter missed its deadline: the batch's kernel time
            # produced no served answer (goodput-wasted, though the
            # results are still cached for future queries).
            st.kernel_s_wasted += kernel
        return out

    def _trace_finish(self, ticket: Ticket, qr: QueryResult, start: float,
                      completion: float, batch_span, kernel_span, *,
                      mshr_hit: bool) -> None:
        """Close one waiter's root span at its batch's completion time,
        linking it to the batch/kernel spans that answered it (and
        recording the queueing wait, when there was one)."""
        span = ticket.span
        if span is None:
            return
        if start > ticket.submitted_at:
            self.tracer.record("serve.queue", ticket.submitted_at, start,
                               parent=span)
        self.tracer.end(
            span, t=completion, status=qr.status, mshr_hit=mshr_hit,
            batch_span=batch_span.span_id, kernel_span=kernel_span.span_id,
            engine=qr.engine, latency_s=qr.latency_s)
        qr.span = span

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
        for j in range(batch.width):
            entry = self._entry_for(batch, j)
            for ticket in entry.waiters:
                qr = Failed(ticket.query, error=str(exc) or repr(exc),
                            latency_s=completion - ticket.submitted_at)
                if self.tracer is not None and ticket.span is not None:
                    self.tracer.end(ticket.span, t=completion,
                                    status="failed", latency_s=qr.latency_s)
                    qr.span = ticket.span
                ticket._resolve(qr)
                st.failed += 1
                out.append(qr)
            self.mshr.abort(entry)
        if self.breaker.record_failure(completion):
            st.breaker_opens += 1
            # Degrade: narrower batches fail less work per fault and
            # drain the queue sooner; restored when the breaker closes.
            self.batcher.max_batch = max(1, self.batcher.max_batch // 2)
        return out

    def _entry_for(self, batch: Batch, j: int) -> MSHREntry:
        """The MSHR entry owning column ``j`` of ``batch``.

        ``submit()`` always allocates one before enqueueing, so the
        primary ticket carries it; tickets enqueued into the batcher
        directly (bypassing the server) get an entry synthesized here,
        and any batcher-level coalesced duplicates are folded into the
        waiter list so fan-out stays the single resolution path.
        """
        tickets = batch.tickets[j]
        entry = tickets[0].mshr
        if entry is None:
            entry = self.mshr.allocate(
                (self.epoch, batch.semiring, int(batch.roots[j])), tickets[0])
        for t in tickets[1:]:
            if t.mshr is None:
                self.mshr.attach(entry, t)
        return entry

    def _resolve_inflight(self, entry: MSHREntry, ticket: Ticket) -> None:
        """Resolve a waiter that attached after its batch dispatched: the
        answer exists from the batch's virtual completion, so latency is
        completion − submit (never the impossible 0.0 of a premature
        cache hit).  A deadline earlier than that completion resolves
        :class:`TimedOut` instead."""
        latency = entry.completion - ticket.submitted_at
        if (ticket.deadline_at is not None
                and entry.completion > ticket.deadline_at):
            qr = TimedOut(ticket.query, latency_s=latency)
            self.stats.timeouts += 1
        else:
            qr = QueryResult(
                query=ticket.query, status="served",
                value=self._reduce(ticket.query, entry.result, entry.key),
                bfs=entry.result, mshr_hit=True, waiters=len(entry.waiters),
                batch_width=entry.batch_width, engine=entry.engine,
                latency_s=latency)
            self.stats.served += 1
            self.stats.latencies.append(latency)
        if self.tracer is not None and ticket.span is not None:
            kspan = entry.kernel_span
            self.tracer.end(
                ticket.span, t=entry.completion, status=qr.status,
                mshr_hit=True,
                kernel_span=None if kspan is None else kspan.span_id,
                latency_s=latency)
            qr.span = ticket.span
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
