#!/usr/bin/env python
"""Serving-layer ablation: throughput/latency vs max_batch × arrival rate.

One Zipf-popular query stream (Graph500-sampled root pool) is replayed
against the micro-batching server at every (max_batch, arrival-rate)
combination — arrivals on a virtual Poisson clock, kernels measured for
real, cache off so the comparison isolates *batching* (a cache-on row is
reported separately).  ``max_batch=1`` is the per-query single-source
dispatch baseline; the headline is how far adaptive batching beats it in
kernel throughput, and what it costs (or saves, under load: queueing)
in latency.

Every configuration's served answers are verified bit-identical to
direct batched-engine calls before its numbers are trusted.  Each point
also reports ``kernel_over_probe``: kernel seconds per served query over
the same-process gather + ⊕ microkernel of ``_common.probe_seconds``, which
sees absolute kernel speed where the per-query speedups divide it out.

A second, seed-deterministic ablation sweeps Zipf skew under burst
arrivals (cache on) and records MSHR reuse: ``reuse_rate`` and
``columns_per_query`` per skew, with a hard failure if a duplicate of an
outstanding root ever spawns an extra kernel column.  Those ratios are
pinned exactly by the ``check_regression.py`` gate.

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_serve.json``) that CI uploads as
the perf-trajectory artifact and the bench-gate reads.

Usage::

    python benchmarks/bench_serve.py              # scale 14, 512 queries
    python benchmarks/bench_serve.py --quick      # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import print_table, probe_seconds, write_bench_json

from repro.bfs.msbfs import MultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker
from repro.serve.server import Server
from repro.serve.workload import (
    poisson_arrivals,
    run_open_loop,
    sample_zipf_roots,
)

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.
QUICK = {
    "scale": 10,
    "edgefactor": 16,
    "nqueries": 192,
    "root_pool": 48,
    "zipf": 1.1,
    "max_batches": [1, 8, 32],
    "rates": [2000.0, float("inf")],
    "zipfs": [0.6, 1.1, 1.5],
}

#: Deadline used by every batched configuration (per-query B=1 ignores it).
MAX_WAIT_S = 0.01


def _rate_key(rate: float) -> str:
    """JSON-safe label for an arrival rate (``inf`` has no JSON float)."""
    return "inf" if np.isinf(rate) else f"{rate:g}"


def _verify_identical(rep, max_batch: int, roots: np.ndarray) -> bool:
    """Served answers == direct engine calls, bit for bit, at this width."""
    uniq = np.unique(roots)
    server = Server(rep, max_batch=max_batch, max_wait=60.0, cache_size=0)
    tickets = [server.submit(int(r), now=0.0) for r in uniq]
    server.drain(now=0.0)
    direct = MultiSourceBFS(rep, "sel-max", slimwork=True).run(uniq)
    return all(
        np.array_equal(t.result().bfs.dist, d.dist)
        and np.array_equal(t.result().bfs.parent, d.parent)
        for t, d in zip(tickets, direct))


def run_zipf_ablation(rep, pool: np.ndarray, nqueries: int,
                      zipfs: list[float], max_batch: int,
                      seed: int = 1) -> dict:
    """MSHR reuse across Zipf skews, under the all-at-once burst.

    Every query arrives at t=0, so each repeat of a root lands while the
    root's first traversal is still pending or (virtually) in flight and
    the MSHR must absorb it.  The invariant gated here is the headline
    bugfix: ``kernel_columns == distinct_roots`` — a duplicate of an
    outstanding root never spawns another frontier column.  Reuse is
    decided by the virtual clock, not wall time, so ``reuse_rate`` and
    ``columns_per_query`` are seed-deterministic and
    ``check_regression.py`` pins them exactly (p99 stays timing-only).
    """
    rows = []
    for s in zipfs:
        roots = sample_zipf_roots(pool, nqueries, s, seed=seed)
        server = Server(rep, max_batch=max_batch, max_wait=MAX_WAIT_S,
                        cache_size=int(pool.size))
        report = run_open_loop(server, roots, np.zeros(nqueries))
        distinct = int(np.unique(roots).size)
        columns = int(sum(server.stats.widths))
        served = report["served"]
        reused = report["mshr_hits"] + report["cache_hits"]
        rows.append({
            "zipf": float(s),
            "distinct_roots": distinct,
            "kernel_columns": columns,
            "columns_per_query": columns / served,
            "mshr_hits": report["mshr_hits"],
            "cache_hits": report["cache_hits"],
            "reuse_rate": reused / served,
            "kernel_p99_ms": report["latency_p99_s"] * 1e3,
        })
    return {
        "max_batch": max_batch,
        "nqueries": nqueries,
        "rows": rows,
        "zero_extra_columns": all(
            r["kernel_columns"] == r["distinct_roots"] for r in rows),
    }


def run_trace_overhead(rep, pool: np.ndarray, nqueries: int, zipf: float,
                       max_batch: int, seed: int = 1) -> dict:
    """Tracing cost and span-tree/latency consistency, gated by CI.

    Two questions:

    * **Disabled-path overhead** — ``tracer=None`` must stay the same
      code path as before tracing existed.  Measured as the per-submit
      wall time of the pure cache-hit path (no kernel, no allocation)
      with the tracer off, divided by the same loop with it on: a
      machine-portable ratio well below 1.0, because the traced loop
      does strictly more work.  If guard-free span work ever leaks onto
      the disabled path the ratio climbs toward 1.0 and the gate trips.
    * **Span/latency consistency** — in a traced run the closed
      ``serve.query`` root spans must sum to the stats' reported
      latencies (both clocks are virtual, so near-exactly); and the
      span-per-query rate is a seed-deterministic change detector for
      the instrumentation surface itself.
    """
    from repro.obs.trace import Tracer

    hot, n, reps = int(pool[0]), 2000, 3

    def per_submit_s(tracer) -> float:
        server = Server(rep, max_batch=max_batch, max_wait=MAX_WAIT_S,
                        cache_size=1, tracer=tracer)
        server.submit(hot, now=0.0)
        server.drain(now=0.0)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for i in range(n):
                server.submit(hot, now=1.0 + i * 1e-6)
            best = min(best, time.perf_counter() - t0)
            if tracer is not None:
                tracer.clear()
        return best / n

    disabled = per_submit_s(None)
    enabled = per_submit_s(Tracer())

    # One fully traced burst run (cache off: every query takes the
    # kernel path), checked against its own report.
    roots = sample_zipf_roots(pool, nqueries, zipf, seed=seed)
    tracer = Tracer()
    server = Server(rep, max_batch=max_batch, max_wait=MAX_WAIT_S,
                    cache_size=0, tracer=tracer)
    report = run_open_loop(server, roots, np.zeros(nqueries),
                           params={"zipf": float(zipf), "seed": seed})
    qspans = [s for s in tracer.spans if s.name == "serve.query"]
    span_latency_s = sum(s.duration_s for s in qspans)
    reported_s = report["latency_mean_s"] * (report["served"]
                                             - report["cache_hits"])
    consistent = (
        len(qspans) == nqueries
        and all(s.t_end is not None for s in tracer.spans)
        and abs(span_latency_s - reported_s)
        <= 1e-6 * max(1.0, reported_s))
    return {
        "max_batch": max_batch,
        "submit_us_disabled": disabled * 1e6,
        "submit_us_enabled": enabled * 1e6,
        "disabled_over_enabled": disabled / enabled,
        "spans": len(tracer.spans),
        "spans_per_query": len(tracer.spans) / nqueries,
        "span_latency_s": span_latency_s,
        "reported_latency_s": reported_s,
        "span_latency_consistent": bool(consistent),
    }


def run_sweep(scale: int, edgefactor: float, nqueries: int, root_pool: int,
              zipf: float, max_batches: list[int], rates: list[float],
              zipfs: list[float], seed: int = 1) -> dict:
    graph = kronecker(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    rep = SlimSell(graph, 16, graph.n)
    build_s = time.perf_counter() - t0

    pool = sample_roots(graph, root_pool, seed)
    roots = sample_zipf_roots(pool, nqueries, zipf, seed=seed)
    # Warm the memoized operands (col64, per-semiring val) so every config
    # measures steady-state kernel time, not one-time materialization.
    Server(rep, max_batch=1, cache_size=0).submit(int(pool[0]), now=0.0)
    probe_s = probe_seconds()

    if 1 not in max_batches:
        raise SystemExit("max_batches must include 1 (the per-query baseline)")
    grid = []
    # Bit-identity depends only on (rep, B, roots): verify once per width,
    # not once per (width, rate).
    identical_by_B = {B: _verify_identical(rep, B, roots)
                      for B in sorted(set(max_batches))}
    identical_all = all(identical_by_B.values())
    for rate in rates:
        arrivals = poisson_arrivals(nqueries, rate, seed=seed)
        base_qps = None
        for B in sorted(set(max_batches)):
            server = Server(rep, max_batch=B, max_wait=MAX_WAIT_S,
                            cache_size=0)
            report = run_open_loop(server, roots, arrivals)
            if B == 1:
                base_qps = report["kernel_throughput_qps"]
            grid.append({
                "rate": _rate_key(rate),
                "B": B,
                "kernel_s": report["kernel_s"],
                "kernel_qps": report["kernel_throughput_qps"],
                "virtual_qps": report["virtual_throughput_qps"],
                "speedup_vs_per_query": (report["kernel_throughput_qps"]
                                         / base_qps),
                "kernel_over_probe": (1.0 / report["kernel_throughput_qps"]
                                      / probe_s),
                "batches": report["batches"],
                "mean_width": report["mean_batch_width"],
                "mshr_hits": report["mshr_hits"],
                "latency_p50_ms": report["latency_p50_s"] * 1e3,
                "latency_p95_ms": report["latency_p95_s"] * 1e3,
                "latency_p99_ms": report["latency_p99_s"] * 1e3,
                "identical_to_direct": bool(identical_by_B[B]),
            })

    # Cache-on reference row (widest batch, burst arrivals): how much of
    # the Zipf stream the LRU absorbs, on top of batching.
    wide = max(max_batches)
    server = Server(rep, max_batch=wide, max_wait=MAX_WAIT_S,
                    cache_size=root_pool)
    cached = run_open_loop(server, roots, np.zeros(nqueries))
    cache_row = {
        "B": wide,
        "cache_size": root_pool,
        "hit_rate": server.cache.stats.hit_rate,
        # Under the burst every repeat lands while its root is still
        # outstanding, so reuse shows up as MSHR hits, not cache hits
        # (results only become cache-visible at virtual completion).
        "mshr_hits": cached["mshr_hits"],
        "kernel_s": cached["kernel_s"],
        "kernel_qps": cached["kernel_throughput_qps"],
        "virtual_qps": cached["virtual_throughput_qps"],
    }

    mshr_zipf = run_zipf_ablation(rep, pool, nqueries, zipfs, wide,
                                  seed=seed)
    trace = run_trace_overhead(rep, pool, nqueries, zipf, wide, seed=seed)

    best = max(grid, key=lambda r: r["speedup_vs_per_query"])
    return {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nqueries": nqueries,
            "root_pool": int(pool.size), "zipf": zipf, "seed": seed,
            "C": 16, "semiring": "sel-max", "max_wait_s": MAX_WAIT_S,
            "build_s": build_s, "probe_s": probe_s,
        },
        "grid": grid,
        "cache_reference": cache_row,
        "mshr_zipf": mshr_zipf,
        "trace": trace,
        "best_speedup_vs_per_query": best["speedup_vs_per_query"],
        "best_point": {"rate": best["rate"], "B": best["B"]},
        "identical_to_direct": bool(identical_all),
    }


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Serving-layer ablation (scale={w['scale']}, n={w['n']}, "
          f"m={w['m']}, {w['nqueries']} queries, zipf s={w['zipf']:g} over "
          f"{w['root_pool']} roots) ===")
    rows = [[r["rate"], r["B"],
             r["mean_width"], r["kernel_qps"], r["speedup_vs_per_query"],
             r["virtual_qps"], r["latency_p50_ms"], r["latency_p99_ms"],
             r["identical_to_direct"]]
            for r in payload["grid"]]
    print_table(
        "throughput/latency vs (arrival rate, max_batch)",
        ["rate/s", "B", "width", "kernel q/s", "speedup", "wall q/s",
         "p50 ms", "p99 ms", "identical"],
        rows)
    c = payload["cache_reference"]
    print(f"\ncache-on reference (B={c['B']}, {c['cache_size']} entries): "
          f"hit rate {c['hit_rate']:.1%}, {c['mshr_hits']} MSHR hits, "
          f"wall {c['virtual_qps']:.0f} q/s")
    mz = payload["mshr_zipf"]
    print_table(
        f"MSHR reuse vs Zipf skew (burst arrivals, B={mz['max_batch']})",
        ["zipf s", "distinct", "columns", "cols/query", "mshr hits",
         "reuse", "kernel p99 ms"],
        [[r["zipf"], r["distinct_roots"], r["kernel_columns"],
          r["columns_per_query"], r["mshr_hits"], r["reuse_rate"],
          r["kernel_p99_ms"]] for r in mz["rows"]])
    print(f"zero extra columns for outstanding roots: "
          f"{mz['zero_extra_columns']}")
    t = payload["trace"]
    print(f"\ntracing: submit {t['submit_us_disabled']:.2f}us off vs "
          f"{t['submit_us_enabled']:.2f}us on "
          f"(off/on {t['disabled_over_enabled']:.2f}), "
          f"{t['spans_per_query']:.2f} spans/query, span/latency sums "
          f"consistent: {t['span_latency_consistent']}")
    b = payload["best_point"]
    print(f"best point: rate={b['rate']}, max_batch={b['B']} -> "
          f"{payload['best_speedup_vs_per_query']:.2f}x the per-query "
          f"dispatch throughput")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nqueries", type=int, default=512)
    ap.add_argument("--root-pool", type=int, default=128)
    ap.add_argument("--zipf", type=float, default=1.1)
    ap.add_argument("--max-batches", default="1,8,32,64",
                    help="comma-separated widths (must include 1)")
    ap.add_argument("--rates", default="5000,20000,inf",
                    help="comma-separated arrival rates in queries/s")
    ap.add_argument("--zipfs", default="0.6,1.1,1.5",
                    help="comma-separated Zipf skews for the MSHR ablation")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration")
    ap.add_argument("--output", default="BENCH_serve.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        cfg = dict(QUICK)
    else:
        cfg = {
            "scale": args.scale, "edgefactor": args.edgefactor,
            "nqueries": args.nqueries, "root_pool": args.root_pool,
            "zipf": args.zipf,
            "max_batches": [int(b) for b in args.max_batches.split(",")],
            "rates": [float(r) for r in args.rates.split(",")],
            "zipfs": [float(s) for s in args.zipfs.split(",")],
        }

    payload = run_sweep(cfg["scale"], cfg["edgefactor"], cfg["nqueries"],
                        cfg["root_pool"], cfg["zipf"], cfg["max_batches"],
                        cfg["rates"], cfg["zipfs"], seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    if not payload["identical_to_direct"]:
        print("ERROR: a served configuration diverged from the direct "
              "engine calls", file=sys.stderr)
        return 1
    if not payload["mshr_zipf"]["zero_extra_columns"]:
        print("ERROR: a duplicate of an outstanding root spawned an extra "
              "kernel column (MSHR coalescing broke)", file=sys.stderr)
        return 1
    if not payload["trace"]["span_latency_consistent"]:
        print("ERROR: traced span durations diverged from the reported "
              "latencies (span tree is lying about the run)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
