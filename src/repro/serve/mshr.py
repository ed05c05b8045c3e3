"""Miss-status registry: MSHR-style in-flight miss coalescing.

The non-blocking-cache pattern from hardware memory hierarchies, applied
to the serving layer.  A CPU's Miss Status Holding Registers track every
cache miss that is already being fetched so a second load to the same
line *attaches* to the outstanding fill instead of issuing a new memory
request; when the fill returns, it fans out to every waiter at once.

Here the "cache line" is one traversal — keyed ``(epoch, semiring,
root)`` — and the "fill" is the frontier column computing it inside a
dispatched batch.  The registry sits between the
:class:`~repro.serve.cache.ResultCache` and the
:class:`~repro.serve.batcher.QueryBatcher` and tracks each miss through
three stages:

* **pending** — the miss owns a frontier column waiting in the batcher.
  A duplicate miss attaches its ticket to the entry's waiter list
  instead of enqueueing a second column.
* **in flight** — the column's batch has been dispatched.  On the
  virtual clock the result exists only from the batch's completion time
  (``busy_until``), so it is *not yet cache-visible*; a duplicate miss
  still attaches here and resolves with latency ``completion − submit``,
  exactly as if it had waited for the batch.
* **retired** — the owner committed the entry at (or after) its virtual
  completion time: the result becomes cache-visible and the entry leaves
  the registry.

Results therefore become visible *only* at completion — never at
dispatch — which fixes premature cache visibility by construction: no
query can observe a result before the virtual clock says it exists.

Epoch-based invalidation rides on the key: bumping the epoch makes every
older entry unreachable for new lookups, and the owner drops stale
epochs at commit time instead of publishing them (see
``Server.invalidate``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bfs.result import BFSResult
from repro.serve.query import Ticket

__all__ = ["MSHREntry", "MSHRStats", "MissStatusRegistry"]

#: An entry's key: (epoch, semiring, root) — the same key the cache uses.
Key = tuple[int, str, int]


@dataclass
class MSHREntry:
    """One outstanding miss and everything waiting on it."""

    key: Key
    #: Tickets answered by this entry's traversal; ``waiters[0]`` is the
    #: primary (the miss that allocated the entry and owns its column).
    waiters: list[Ticket]
    #: ``"pending"`` (column queued) or ``"inflight"`` (batch dispatched).
    state: str = "pending"
    #: Set at dispatch: the traversal, its virtual completion time, and
    #: the batch provenance late waiters inherit.
    result: BFSResult | None = None
    completion: float = 0.0
    batch_width: int = 0
    engine: str = ""
    #: Tracing servers only: the ``serve.kernel`` span of the batch that
    #: computed this entry's column, set at dispatch — late (in-flight)
    #: waiters link their root span to it, so every coalesced query
    #: points at the one traversal that answered it.
    kernel_span: object = None

    @property
    def epoch(self) -> int:
        return self.key[0]

    @property
    def semiring(self) -> str:
        return self.key[1]

    @property
    def root(self) -> int:
        return self.key[2]

    @property
    def n_waiters(self) -> int:
        """Queries sharing this entry's single frontier column."""
        return len(self.waiters)


@dataclass
class MSHRStats:
    """Lifetime counters of one :class:`MissStatusRegistry`."""

    #: Entries allocated (= frontier columns actually paid for).
    allocated: int = 0
    #: Tickets attached to a pending entry (column still in the batcher).
    pending_hits: int = 0
    #: Tickets attached to an in-flight entry (batch already dispatched).
    inflight_hits: int = 0
    #: Entries retired at commit time.
    retired: int = 0
    #: Entries removed because their batch failed (kernel fault or real
    #: exception): their waiters resolved ``Failed``; nothing published.
    aborted: int = 0

    @property
    def hits(self) -> int:
        """Misses absorbed without a new column (pending + in-flight)."""
        return self.pending_hits + self.inflight_hits


def _release(entry: MSHREntry) -> None:
    """Drop the waiters' ticket → entry edges of a retired or aborted entry.

    ``Ticket.mshr`` and ``MSHREntry.waiters`` point at each other; left in
    place, every resolved ticket keeps its entry (and the entry's
    traversal) alive until a cyclic-GC pass.
    """
    for ticket in entry.waiters:
        if ticket.mshr is entry:
            ticket.mshr = None


class MissStatusRegistry:
    """Outstanding-miss table keyed ``(epoch, semiring, root)``.

    Holds only live entries (pending or in flight); retired entries leave
    the table at :meth:`take_due`.  At most one live entry exists per
    key, but distinct epochs may hold live entries for the same
    ``(semiring, root)`` — that is exactly what invalidation means: the
    old epoch's traversal can no longer answer new queries.
    """

    def __init__(self):
        self._entries: dict[Key, MSHREntry] = {}
        self.stats = MSHRStats()

    def __len__(self) -> int:
        """Live (pending + in-flight) entries."""
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, key: Key) -> MSHREntry | None:
        """The live entry for ``key``, or None (no stats side effects)."""
        return self._entries.get(key)

    def allocate(self, key: Key, ticket: Ticket) -> MSHREntry:
        """Open a pending entry for a fresh miss; ``ticket`` is primary."""
        if key in self._entries:
            raise ValueError(f"MSHR entry for {key} already live; "
                             "attach to it instead of allocating")
        entry = MSHREntry(key=key, waiters=[ticket])
        ticket.mshr = entry
        self._entries[key] = entry
        self.stats.allocated += 1
        return entry

    def attach(self, entry: MSHREntry, ticket: Ticket) -> None:
        """Add ``ticket`` as a waiter on an outstanding miss."""
        entry.waiters.append(ticket)
        ticket.mshr = entry
        if entry.state == "inflight":
            self.stats.inflight_hits += 1
        else:
            self.stats.pending_hits += 1

    def dispatch(self, entry: MSHREntry, result: BFSResult,
                 completion: float, batch_width: int, engine: str) -> None:
        """Mark ``entry`` in flight: its batch ran, completing (on the
        virtual clock) at ``completion``.  The result stays invisible to
        the cache until the owner commits the entry at that time."""
        entry.state = "inflight"
        entry.result = result
        entry.completion = completion
        entry.batch_width = batch_width
        entry.engine = engine

    def abort(self, entry: MSHREntry) -> None:
        """Remove a live entry whose batch failed.

        The owner has already resolved every waiter (``Failed``); the
        entry must leave the table so a later query on the same key can
        allocate a fresh miss instead of attaching to a dead one —
        nothing is ever published from an aborted entry.
        """
        if self._entries.get(entry.key) is entry:
            del self._entries[entry.key]
            self.stats.aborted += 1
            _release(entry)

    def take_due(self, now: float) -> list[MSHREntry]:
        """Pop every in-flight entry whose completion time has passed.

        The owner publishes each returned entry to the result cache (or
        drops it, if its epoch was invalidated while in flight).
        """
        due = [e for e in self._entries.values()
               if e.state == "inflight" and e.completion <= now]
        for entry in due:
            del self._entries[entry.key]
            _release(entry)
        self.stats.retired += len(due)
        return due

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Live entries whose column is still waiting in the batcher."""
        return sum(e.state == "pending" for e in self._entries.values())

    @property
    def inflight(self) -> int:
        """Live entries whose batch has dispatched but not yet committed."""
        return sum(e.state == "inflight" for e in self._entries.values())

    def inflight_widths(self) -> list[int]:
        """Batch widths of the currently in-flight entries."""
        return [e.batch_width for e in self._entries.values()
                if e.state == "inflight"]

    def register_metrics(self, registry, prefix: str = "serve.mshr") -> None:
        """Publish live views of this registry under ``prefix``.

        Views are lazy reads of the existing counters/tables — nothing on
        the miss path changes, and re-registering (a rebuilt server) just
        replaces the previous component's views.
        """
        st = self.stats
        registry.register_view(f"{prefix}.allocated", lambda: st.allocated)
        registry.register_view(f"{prefix}.pending_hits",
                               lambda: st.pending_hits)
        registry.register_view(f"{prefix}.inflight_hits",
                               lambda: st.inflight_hits)
        registry.register_view(f"{prefix}.retired", lambda: st.retired)
        registry.register_view(f"{prefix}.aborted", lambda: st.aborted)
        registry.register_view(f"{prefix}.hits", lambda: st.hits)
        registry.register_view(f"{prefix}.live", lambda: len(self))
        registry.register_view(f"{prefix}.pending", lambda: self.pending)
        registry.register_view(f"{prefix}.inflight", lambda: self.inflight)
