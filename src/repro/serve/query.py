"""Query and result types of the serving layer.

A *query* is one user request that reduces to a single-root BFS over the
served graph:

* ``"distances"`` — the BFS itself: hop distances and a parent tree from
  ``root`` (the :class:`~repro.bfs.result.BFSResult` is the answer);
* ``"reachability"`` — connectivity membership: is ``target`` in
  ``root``'s connected component?  (answer: ``bool``);
* ``"validate"`` — Graph500-style service: run the BFS *and* the official
  five-check tree validation (answer: ``True``, or the check raises).

Every kind shares the same expensive sub-problem — a traversal from
``root`` under ``semiring`` — which is exactly what the MSHR
(:mod:`repro.serve.mshr`) deduplicates and the cache memoizes: two
queries of different kinds on the same ``(semiring, root)`` share one
MSHR entry, hence one frontier column, and one cache entry, and only the
cheap *reduction* (nothing / a distance lookup / the validator) differs
per ticket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bfs.result import BFSResult

if TYPE_CHECKING:  # pragma: no cover - circular at runtime only
    from repro.obs.trace import Span
    from repro.serve.mshr import MSHREntry

__all__ = [
    "KINDS",
    "Failed",
    "Query",
    "QueryResult",
    "Rejected",
    "Ticket",
    "TimedOut",
]

#: Supported query kinds, in documentation order.
KINDS = ("distances", "reachability", "validate")


@dataclass(frozen=True)
class Query:
    """One user request: a single-root question about the served graph."""

    root: int
    kind: str = "distances"
    semiring: str = "sel-max"
    #: ``"reachability"`` only: the vertex whose membership is asked.
    target: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.kind == "reachability" and self.target is None:
            raise ValueError("reachability queries need a target vertex")


@dataclass
class QueryResult:
    """The resolved answer to one query, with serving provenance."""

    query: Query
    #: ``"served"``, ``"rejected"`` (backpressure or load shedding),
    #: ``"timeout"`` (missed its deadline), or ``"failed"`` (kernel fault).
    status: str
    #: Kind-specific answer: the :class:`BFSResult` (distances), a bool
    #: (reachability / validate), or ``None`` for a rejection.
    value: Any = None
    #: The underlying traversal (also set for reduced kinds), ``None`` for
    #: rejections.
    bfs: BFSResult | None = None
    #: Answered straight from the :class:`~repro.serve.cache.ResultCache`.
    cache_hit: bool = False
    #: Answered by attaching to another query's outstanding miss (the
    #: MSHR coalescing path): no new frontier column was paid for.
    mshr_hit: bool = False
    #: Queries sharing the answering traversal's frontier column at the
    #: time this result was resolved (0 = cache hit or rejection).
    waiters: int = 0
    #: Width of the SpMM batch that computed the answer (0 = cache hit or
    #: rejection).
    batch_width: int = 0
    #: Engine that ran the batch (``"msbfs"`` / ``"mshybrid"`` / ``""``).
    engine: str = ""
    #: Submit-to-completion seconds (queue wait + kernel share).
    latency_s: float = 0.0
    #: Answered from a prior-epoch cache entry while the circuit breaker
    #: was open (graceful degradation: possibly outdated, never wrong for
    #: the epoch it was computed in).
    stale: bool = False
    #: Root span of this query's trace (None when the server ran without
    #: a tracer).  Its ``kernel_span``/``batch_span`` attrs link into the
    #: owning tracer's span list, so the full tree — queue wait, batch,
    #: kernel, per-layer sweeps — is reconstructable from the result.
    span: "Span | None" = field(default=None, repr=False)


class Rejected(QueryResult):
    """Explicit refusal: the query never reached a kernel.

    ``reason`` says why: ``"backpressure"`` (the pending queue was full)
    or ``"shed"`` (the circuit breaker was open and no stale cache entry
    could stand in).  A distinct type (``isinstance(result, Rejected)``)
    so clients can branch on overload without string-matching ``status``.
    """

    def __init__(self, query: Query, reason: str = "backpressure"):
        super().__init__(query=query, status="rejected")
        self.reason = reason


class TimedOut(QueryResult):
    """The answer arrived after the query's ``deadline=`` expired.

    The traversal still ran (and is cache-visible for later queries);
    only *this* ticket's answer was too late to be useful.  ``latency_s``
    records when the answer would have arrived.
    """

    def __init__(self, query: Query, latency_s: float = 0.0):
        super().__init__(query=query, status="timeout", latency_s=latency_s)


class Failed(QueryResult):
    """The answering batch failed (injected or real kernel exception).

    Every waiter coalesced onto the failed traversal resolves to one of
    these; nothing is published to the cache.  ``error`` carries the
    exception message.
    """

    def __init__(self, query: Query, error: str = "",
                 latency_s: float = 0.0):
        super().__init__(query=query, status="failed", latency_s=latency_s)
        self.error = error


@dataclass
class Ticket:
    """Handle returned by ``submit()``; resolves to a :class:`QueryResult`.

    A ticket is *done* once its batch ran (or it was answered from cache /
    rejected on entry).  :meth:`result` is the blocking-free accessor: it
    raises if the ticket is still pending — call ``Server.drain()`` (or
    await the asyncio front-end) to force completion.

    **Resolve-exactly-once contract.**  Every ticket the server accepts is
    resolved exactly once, by exactly one of: the cache-hit fast path, a
    rejection on entry (backpressure or breaker shed), a stale serve, or
    its batch's completion fan-out (served / timeout / failed — including
    batches that fail), each through ``Server._finish``.  :meth:`_resolve`
    enforces the "at most once" half by raising on a second call; the
    server's dispatch paths provide the "at least once" half, which the
    chaos property test pins.
    """

    query: Query
    #: Virtual/real submit timestamp (the server's clock domain).
    submitted_at: float = 0.0
    #: Absolute virtual time after which the answer is useless (None =
    #: no deadline).  Checked at batch completion: an answer landing
    #: later resolves :class:`TimedOut`.
    deadline_at: float | None = None
    #: The outstanding-miss entry this ticket waits on (set by the
    #: server's MSHR when the ticket allocates or attaches, cleared when
    #: the entry retires or aborts; None for cache hits and rejections).
    mshr: "MSHREntry | None" = field(default=None, repr=False)
    #: The query's open root span (tracing servers only; closed — and
    #: copied onto the result — when the ticket resolves).
    span: "Span | None" = field(default=None, repr=False)
    _result: QueryResult | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether a result is available."""
        return self._result is not None

    @property
    def rejected(self) -> bool:
        """Whether the ticket was refused on entry (backpressure)."""
        return self._result is not None and self._result.status == "rejected"

    def result(self) -> QueryResult:
        """The resolved :class:`QueryResult`; raises while pending."""
        if self._result is None:
            raise RuntimeError(
                f"query {self.query} is still pending; drain() the server "
                "(or advance the clock past the batch deadline) before "
                "reading results")
        return self._result

    def _resolve(self, result: QueryResult) -> None:
        if self._result is not None:
            raise RuntimeError(f"ticket for {self.query} resolved twice")
        self._result = result
