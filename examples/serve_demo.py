#!/usr/bin/env python
"""Serving-layer walkthrough: from single queries to adaptive batches.

The batched engines make a BFS ~B× cheaper per source when B frontier
columns share one SpMM sweep — but users send single-root queries, one at
a time.  This demo walks the layer that bridges the gap:

1. sync ``submit()``/``drain()``, a duplicate root attaching to the MSHR;
2. the LRU result cache absorbing a hot-root storm;
3. an open-loop Poisson/Zipf workload, micro-batched vs per-query
   dispatch (the throughput headline, measured honestly: both sides serve
   the identical query stream, answers checked bit-identical);
4. the asyncio front-end awaiting per-query futures.

Run:  python examples/serve_demo.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import AsyncServer, Server, kronecker
from repro.bfs.msbfs import MultiSourceBFS
from repro.graph500 import sample_roots
from repro.serve.workload import (
    poisson_arrivals,
    run_open_loop,
    sample_zipf_roots,
)


def main() -> None:
    g = kronecker(scale=12, edgefactor=16, seed=7)
    print(f"graph: n={g.n}, m={g.m}")

    # 1. Sync driver: five users, two of them asking the same root.
    server = Server(g, max_batch=8, max_wait=2e-3, cache_size=256)
    pool = sample_roots(g, 64, seed=7)
    asks = [int(pool[0]), int(pool[1]), int(pool[0]), int(pool[2]),
            int(pool[3])]
    tickets = [server.submit(r, now=0.0) for r in asks]
    server.drain(now=0.0)
    widths = {t.result().batch_width for t in tickets}
    print("\n-- 1. submit/drain --")
    print(f"5 queries, {server.stats.batches} batch of width {widths} "
          f"({server.stats.mshr_hits} duplicate attached to the MSHR)")

    # Reductions share the traversal: connectivity and validation ride on
    # the same cached BFS the distance query produced.
    t_reach = server.submit(int(pool[0]), kind="reachability",
                            target=int(pool[1]))
    t_valid = server.submit(int(pool[0]), kind="validate")
    print(f"reachability({int(pool[0])} -> {int(pool[1])}) = "
          f"{t_reach.result().value} (cache hit: "
          f"{t_reach.result().cache_hit}); Graph500 validation = "
          f"{t_valid.result().value}")

    # 2. Hot-root storm: the cache answers without touching a kernel.
    before = server.stats.kernel_s
    for _ in range(1000):
        server.submit(int(pool[0]))
    print("\n-- 2. result cache --")
    print(f"1000 hot-root queries: kernel seconds added = "
          f"{server.stats.kernel_s - before:g}, hit rate "
          f"{server.cache.stats.hit_rate:.1%}")

    # 3. Open-loop Poisson/Zipf traffic, batched vs per-query dispatch.
    print("\n-- 3. micro-batching vs per-query dispatch (open loop) --")
    nq = 512
    roots = sample_zipf_roots(pool, nq, s=1.1, seed=7)
    arrivals = poisson_arrivals(nq, rate=float("inf"), seed=7)
    rep = Server(g).rep  # share one build across both servers
    reports = {}
    for label, max_batch in (("per-query (B=1)", 1), ("micro-batch (64)", 64)):
        srv = Server(rep, max_batch=max_batch, max_wait=1e-3, cache_size=0)
        reports[label] = run_open_loop(srv, roots, arrivals)
    base = reports["per-query (B=1)"]["kernel_throughput_qps"]
    for label, r in reports.items():
        print(f"{label:18s} {r['kernel_throughput_qps']:8.0f} q/s "
              f"(x{r['kernel_throughput_qps'] / base:.1f}), mean width "
              f"{r['mean_batch_width']:5.1f}, p99 latency "
              f"{r['latency_p99_s'] * 1e3:7.2f} ms")

    # Served answers are bit-identical to direct engine calls.
    direct = MultiSourceBFS(rep, "sel-max", slimwork=True).run(pool[:4])
    srv = Server(rep, max_batch=4)
    got = [srv.submit(int(r), now=0.0) for r in pool[:4]]
    srv.drain(now=0.0)
    assert all(np.array_equal(t.result().bfs.dist, d.dist)
               and np.array_equal(t.result().bfs.parent, d.parent)
               for t, d in zip(got, direct))
    print("served answers bit-identical to direct engine calls: True")

    # 4. asyncio front-end: concurrent awaits, one shared batch.
    print("\n-- 4. asyncio front-end --")

    async def clients() -> list:
        aserver = AsyncServer(Server(rep, max_batch=8, max_wait=5e-3))
        return await asyncio.gather(
            *(aserver.async_submit(int(r)) for r in pool[:8]))

    results = asyncio.run(clients())
    print(f"8 concurrent awaits answered by batches of width "
          f"{sorted({r.batch_width for r in results})}, all served: "
          f"{all(r.status == 'served' for r in results)}")


if __name__ == "__main__":
    main()
