"""Adaptive micro-batching of pending frontier columns.

The batched engines make a traversal ~B× cheaper *per source* when B
frontier columns share one SpMM sweep — but only if someone turns
independently-arriving single-root queries into (N, B) batches.  That is
this module: pending tickets accumulate in per-semiring groups (one SpMM
sweep runs one semiring), and a group is released as a :class:`Batch`
when either

* **width** — ``max_batch`` columns accumulated (the profitable batch is
  full), or
* **deadline** — ``max_wait`` seconds elapsed since the group's oldest
  pending query (latency SLO beats batch efficiency), or
* **drain** — the owner flushes unconditionally (shutdown / sync barrier).

Every enqueued ticket is one frontier column: the batcher does not
deduplicate.  Inside a :class:`~repro.serve.server.Server` the MSHR
(:mod:`repro.serve.mshr`) does: a duplicate of a pending or in-flight root
attaches to that root's entry, so only a miss's primary ticket ever
reaches the batcher, and the entry fans the one traversal out to every
waiter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.query import Ticket

__all__ = ["Batch", "QueryBatcher"]


@dataclass
class Batch:
    """One released group: the unit of work handed to an engine."""

    semiring: str
    #: int64[B] roots, column order = enqueue order.
    roots: np.ndarray
    #: ``tickets[j]`` is the ticket that enqueued column ``j``; inside a
    #: server it is the primary of an MSHR entry (``tickets[j].mshr``)
    #: whose waiters the column answers.
    tickets: list[Ticket]
    #: Enqueue timestamp of the group's oldest query.
    enqueued_at: float
    #: What released the batch: ``"width" | "deadline" | "drain"``.
    reason: str

    @property
    def width(self) -> int:
        """Number of frontier columns."""
        return int(self.roots.size)


@dataclass
class QueryBatcher:
    """Per-semiring queue that releases (N, B) batches by width or deadline."""

    max_batch: int = 16
    max_wait: float = 2e-3
    #: semiring → pending tickets (one column each), oldest first.
    _groups: dict[str, list[Ticket]] = field(default_factory=dict, repr=False)
    #: semiring → enqueue time of the group's oldest pending ticket.
    _first: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Pending tickets (frontier columns if flushed now)."""
        return sum(len(g) for g in self._groups.values())

    # ------------------------------------------------------------------
    def enqueue(self, ticket: Ticket, now: float) -> None:
        """Add one pending ticket — one frontier column — at ``now``."""
        semiring = ticket.query.semiring
        group = self._groups.setdefault(semiring, [])
        if not group:
            self._first[semiring] = now
        group.append(ticket)

    def register_metrics(self, registry,
                         prefix: str = "serve.batcher") -> None:
        """Publish live views of the queue under ``prefix``."""
        registry.register_view(f"{prefix}.pending_roots", lambda: len(self))
        registry.register_view(f"{prefix}.max_batch", lambda: self.max_batch)

    def next_deadline(self) -> float | None:
        """Timestamp at which the oldest group becomes due (None = empty)."""
        if not self._first:
            return None
        return min(self._first.values()) + self.max_wait

    # ------------------------------------------------------------------
    def ready(self, now: float) -> list[Batch]:
        """Release every batch due at ``now`` (full-width first).

        Width-triggered releases pop exactly ``max_batch`` columns (oldest
        first); a busy group can release several full batches from one
        call.  Deadline-triggered releases pop the whole remaining group.
        """
        out: list[Batch] = []
        for semiring in list(self._groups):
            while len(self._groups.get(semiring, ())) >= self.max_batch:
                out.append(self._pop(semiring, self.max_batch, "width"))
            group = self._groups.get(semiring)
            # Same float expression as next_deadline(): polling exactly at
            # the returned deadline is always due (a - b >= w can round
            # differently than a >= b + w and strand the group forever).
            if group and now >= self._first[semiring] + self.max_wait:
                out.append(self._pop(semiring, len(group), "deadline"))
        return out

    def flush_all(self) -> list[Batch]:
        """Release everything still pending (``reason="drain"``)."""
        out = []
        for semiring in list(self._groups):
            while self._groups.get(semiring):
                width = min(self.max_batch, len(self._groups[semiring]))
                out.append(self._pop(semiring, width, "drain"))
        return out

    # ------------------------------------------------------------------
    def _pop(self, semiring: str, width: int, reason: str) -> Batch:
        group = self._groups[semiring]
        first = self._first[semiring]
        tickets = group[:width]
        del group[:width]
        if group:
            # The remaining oldest ticket restarts the clock.
            self._first[semiring] = group[0].submitted_at
        else:
            del self._groups[semiring]
            del self._first[semiring]
        roots = np.array([t.query.root for t in tickets], dtype=np.int64)
        return Batch(semiring=semiring, roots=roots, tickets=tickets,
                     enqueued_at=first, reason=reason)
