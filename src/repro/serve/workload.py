"""Workload generators for the serving layer: make the benefit measurable.

Two classic load models drive a :class:`~repro.serve.server.Server` on a
**virtual arrival clock** (kernel time stays real, measured):

* **Open loop** (:func:`run_open_loop`) — queries arrive by a Poisson
  process at ``rate`` queries/second regardless of completions (the
  "millions of independent users" regime): root popularity is Zipfian
  (:func:`sample_zipf_roots`), arrival gaps are exponential
  (:func:`poisson_arrivals`), and the driver fires the server's
  ``max_wait`` deadlines between arrivals exactly when they fall due, so
  the adaptive batcher sees the same interleaving a real event loop
  would.  Latencies include queueing delay (FIFO service model).
* **Closed loop** (:func:`run_closed_loop`) — ``clients`` users each keep
  exactly one query outstanding and resubmit on completion: the classic
  saturation benchmark, and the upper bound of what batching can harvest
  (every round offers ``clients`` concurrent roots).

Both return a JSON-friendly report: the run's own
:meth:`~repro.serve.server.ServeStats.summary` (throughput, latency
percentiles, batch-width, cache and resilience counts) plus its query
count, virtual makespan and virtual-wall throughput.
"""

from __future__ import annotations

import numpy as np

from repro.serve.server import Server

__all__ = [
    "poisson_arrivals",
    "run_closed_loop",
    "run_open_loop",
    "sample_zipf_roots",
    "zipf_weights",
]


def zipf_weights(k: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ``k`` ranks: p(r) ∝ 1/(r+1)^s.

    ``s = 0`` is uniform; larger ``s`` concentrates mass on few ranks.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    w = 1.0 / np.power(np.arange(1, k + 1, dtype=np.float64), s)
    return w / w.sum()


def sample_zipf_roots(candidates: np.ndarray, nqueries: int, s: float,
                      seed: int = 1) -> np.ndarray:
    """Draw ``nqueries`` roots with Zipfian popularity over ``candidates``.

    Popularity ranks are assigned to candidates in a seeded shuffle (the
    hottest root is a random candidate, not vertex 0), then queries sample
    from that fixed popularity law — with replacement, since independent
    users repeat hot roots; that repetition is precisely what duplicate
    coalescing and the result cache exploit.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("no candidate roots to sample from")
    if nqueries < 1:
        raise ValueError(f"nqueries must be >= 1, got {nqueries}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(candidates)
    return rng.choice(order, size=nqueries, replace=True,
                      p=zipf_weights(candidates.size, s))


def poisson_arrivals(nqueries: int, rate: float, seed: int = 1) -> np.ndarray:
    """Arrival timestamps of a Poisson process at ``rate`` queries/second.

    ``rate = inf`` puts every arrival at t=0 (the all-at-once burst).
    """
    if nqueries < 1:
        raise ValueError(f"nqueries must be >= 1, got {nqueries}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if np.isinf(rate):
        return np.zeros(nqueries)
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=nqueries))


def run_open_loop(server: Server, roots: np.ndarray, arrivals: np.ndarray,
                  *, kind: str = "distances",
                  semiring: str = "sel-max",
                  deadline: float | None = None,
                  params: dict | None = None) -> dict:
    """Drive ``server`` with ``roots[i]`` arriving at ``arrivals[i]``.

    Arrivals must be non-decreasing.  Between consecutive arrivals the
    driver fires every batcher deadline at its due time, reproducing the
    event order of a real timer loop on the virtual clock.  All pending
    work is drained at the end (the stream is over; nothing more to wait
    for).  ``deadline`` (seconds, relative) is attached to every query:
    answers arriving later resolve ``TimedOut`` and count in the
    report's ``timeouts``.

    ``params`` (optional) are caller-side generation parameters — seed,
    arrival rate, Zipf exponent — echoed verbatim into the report's
    ``"workload"`` key so a saved report (or the trace exported next to
    it) is self-describing and reproducible.
    """
    roots = np.asarray(roots, dtype=np.int64)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if roots.shape != arrivals.shape or roots.ndim != 1 or roots.size == 0:
        raise ValueError("roots and arrivals must be equal-length 1-D "
                         "non-empty sequences")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be non-decreasing")
    since = server.stats.mark()
    tickets = []
    for root, t in zip(roots, arrivals):
        due = server.batcher.next_deadline()
        while due is not None and due <= t:
            server.poll(now=due)
            due = server.batcher.next_deadline()
        tickets.append(server.submit(int(root), kind=kind,
                                     semiring=semiring, now=float(t),
                                     deadline=deadline))
    end = float(arrivals[-1])
    due = server.batcher.next_deadline()
    while due is not None:
        server.poll(now=due)
        end = max(end, due)
        due = server.batcher.next_deadline()
    server.drain(now=end)
    makespan = max(server.busy_until, end) - float(arrivals[0])
    return _report(server, since, tickets, makespan,
                   _workload_key("open-loop", kind, semiring,
                                 deadline=deadline, nqueries=int(roots.size),
                                 params=params))


def run_closed_loop(server: Server, roots: np.ndarray, *,
                    clients: int | None = None, kind: str = "distances",
                    semiring: str = "sel-max",
                    params: dict | None = None) -> dict:
    """Drive ``server`` with ``clients`` users of one outstanding query each.

    Round-robin: each round, every client submits its next root from
    ``roots`` at the current virtual time, then blocks until the round's
    results are drained; the clock advances to the round's completion.
    ``clients`` defaults to the server's ``max_batch`` (saturation).

    The run begins at the server's current virtual time (``busy_until``
    of any earlier run on a shared server; 0.0 on a fresh one) — never
    behind it, which would land the first round's completions in the
    past — and the reported makespan is the delta from that start.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if roots.ndim != 1 or roots.size == 0:
        raise ValueError("roots must be a non-empty 1-D sequence")
    if clients is None:
        clients = server.max_batch
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    since = server.stats.mark()
    tickets = []
    start = max(0.0, server.busy_until)  # busy_until is -inf when idle
    now = start
    for i in range(0, roots.size, clients):
        for root in roots[i:i + clients]:
            tickets.append(server.submit(int(root), kind=kind,
                                         semiring=semiring, now=now))
        server.drain(now=now)
        now = max(now, server.busy_until)
    return _report(server, since, tickets, makespan=now - start,
                   workload=_workload_key("closed-loop", kind, semiring,
                                          clients=int(clients),
                                          nqueries=int(roots.size),
                                          params=params))


# ----------------------------------------------------------------------
def _workload_key(loop: str, kind: str, semiring: str, *,
                  params: dict | None = None, **extra) -> dict:
    """The report's self-description: loop shape, query mix, and the
    caller's generation parameters (seed, rate, Zipf s, ...) merged in —
    so a saved report states how to regenerate its own traffic."""
    out = {"loop": loop, "kind": kind, "semiring": semiring}
    out.update({k: v for k, v in extra.items() if v is not None})
    if params:
        out.update(params)
    return out


def _report(server: Server, since: dict, tickets: list,
            makespan: float, workload: dict | None = None) -> dict:
    """One run's figures: ``server.stats.summary(since=...)`` over the
    run, plus its query count, virtual makespan and throughput.

    ``latency_*`` keys cover the *kernel path* only (queries resolved by
    a traversal, including MSHR waiters that shared one); cache hits are
    a separate population (``cache_latency_*``, identically 0.0 on the
    virtual clock) so Zipf-skewed hit traffic cannot drag p50 to zero.
    ``workload`` is echoed under the ``"workload"`` key (self-describing
    reports: loop shape, seed, arrival parameters).
    """
    figures = server.stats.summary(since=since)
    makespan = float(max(makespan, 0.0))
    served = figures["served"]
    return {
        "workload": workload if workload is not None else {},
        "nqueries": len(tickets),
        **figures,
        "virtual_makespan_s": makespan,
        "virtual_throughput_qps": served / makespan if makespan > 0 else 0.0,
    }
