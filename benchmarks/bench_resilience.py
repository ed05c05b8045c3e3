#!/usr/bin/env python
"""Resilience ablation: goodput and recovery cost vs injected fault rate.

Two sections, both fully deterministic (virtual clocks, seeded fault
streams, modeled service/recovery times — no wall-clock timing anywhere),
so every number is an exact change detector the ``check_regression.py``
gate pins with ``timing=False`` points:

* **serving tier** — one Poisson×Zipf query stream with a per-query
  deadline is replayed against the micro-batching server at increasing
  kernel-fault rates (transient + permanent + straggler, one seeded
  stream).  Kernel time on the virtual timeline comes from a linear
  ``service_model`` so completion times — hence timeouts, breaker trips,
  goodput — are machine-independent.  Reported per rate: goodput
  (in-deadline served fraction), timeout/failed rates, batch retries per
  query, sheds, and breaker opens.
* **distributed tier** — the 1D batched sweep under rank failures, for a
  grid of checkpoint intervals: modeled fault overhead (recovery replay +
  checkpoint premiums) as a fraction of the fault-free modeled time.  The
  tradeoff the model exists to expose: frequent checkpoints pay a steady
  premium, no checkpoints pay recompute-from-root on every failure.

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_resilience.json``) that CI uploads
as an artifact and the bench-gate reads.

Usage::

    python benchmarks/bench_resilience.py            # full configuration
    python benchmarks/bench_resilience.py --quick    # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys

from _common import print_table, write_bench_json

from repro.dist import DistFaultModel, bfs_dist_1d, get_network
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker
from repro.serve.faults import CircuitBreaker, FaultPlan
from repro.serve.server import Server
from repro.serve.workload import (
    poisson_arrivals,
    run_open_loop,
    sample_zipf_roots,
)
from repro.vec.machine import get_machine

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.  Everything here is deterministic, so
#: quick and full runs differ only in scale.
QUICK = {
    "scale": 10,
    "edgefactor": 16,
    "nqueries": 256,
    "root_pool": 96,
    "zipf": 0.8,
    "rate": 40000.0,
    "deadline_s": 0.008,
    "fault_rates": [0.0, 0.05, 0.15, 0.3],
    "dist_ranks": 8,
    "dist_batch": 8,
    "failure_probs": [0.01, 0.05],
    "checkpoint_intervals": [None, 1, 4],
}

def service_model(roots) -> float:
    """Virtual kernel seconds for a batch of ``roots`` (the dispatched
    int64 root array): a base dispatch cost plus a per-column term.
    Close enough to the real engines' shape for the batching dynamics
    while making every completion time exact."""
    return 5e-4 + 1e-4 * roots.size


def run_serve_sweep(rep, pool, nqueries: int, zipf: float, rate: float,
                    deadline_s: float, fault_rates: list[float],
                    seed: int = 1) -> dict:
    """Goodput / timeout / retry curves vs injected kernel-fault rate.

    Each rate ``f`` maps to a plan with transient faults at ``f``,
    permanent faults at ``f/4`` (retries can save most batches, not all),
    and stragglers at ``f`` (4x kernel time) — one seeded stream, so the
    whole curve is reproducible bit for bit.
    """
    roots = sample_zipf_roots(pool, nqueries, zipf, seed=seed)
    arrivals = poisson_arrivals(nqueries, rate, seed=seed)
    rows = []
    for f in fault_rates:
        faults = None
        if f > 0:
            faults = FaultPlan(transient_rate=f, permanent_rate=f / 4,
                               straggler_rate=f, seed=seed)
        server = Server(rep, max_batch=8, max_wait=1e-3,
                        cache_size=int(pool.size), faults=faults,
                        service_model=service_model,
                        breaker=CircuitBreaker(failure_threshold=3,
                                               cooldown_s=5e-3))
        report = run_open_loop(server, roots, arrivals,
                               deadline=deadline_s)
        n = report["nqueries"]
        rows.append({
            "fault_rate": float(f),
            "goodput": report["served"] / n,
            "timeout_rate": report["timeouts"] / n,
            "failed_rate": report["failed"] / n,
            "shed_rate": report["sheds"] / n,
            "retries_per_query": report["retries"] / n,
            "failed_batches": report["failed_batches"],
            "breaker_opens": report["breaker_opens"],
            "served": report["served"],
            "timeouts": report["timeouts"],
            "failed": report["failed"],
            "sheds": report["sheds"],
            "retries": report["retries"],
        })
    return {
        "nqueries": nqueries,
        "rate": rate,
        "deadline_s": deadline_s,
        "max_batch": 8,
        "rows": rows,
    }


def run_dist_sweep(rep, ranks: int, batch: int,
                   failure_probs: list[float],
                   checkpoint_intervals: list[int | None],
                   seed: int = 1) -> dict:
    """Modeled resilience overhead vs (failure prob × checkpoint interval).

    Same seed across the interval column, so every cell of a row sees the
    *same* failure pattern and the comparison isolates recovery depth vs
    checkpoint premium.
    """
    from repro.dist.partition import Partition1D

    machine = get_machine("knl")
    network = get_network("cray-aries")
    part = Partition1D.balanced(rep.cl, ranks)
    roots = list(range(batch))
    base = bfs_dist_1d(rep, roots, part, machine, network, batch=batch)
    rows = []
    for p in failure_probs:
        for interval in checkpoint_intervals:
            model = DistFaultModel(rank_failure_prob=p,
                                   checkpoint_interval=interval, seed=seed)
            res = bfs_dist_1d(rep, roots, part, machine, network,
                              batch=batch, faults=model)
            rows.append({
                "rank_failure_prob": float(p),
                "checkpoint_interval": interval,
                "fault_overhead_s": res.fault_overhead_s,
                "overhead_ratio": (res.fault_overhead_s
                                   / base.modeled_total_s),
                "modeled_total_s": res.modeled_total_s,
            })
    return {
        "ranks": ranks,
        "batch": batch,
        "network": network.name,
        "machine": machine.name,
        "base_modeled_total_s": base.modeled_total_s,
        "rows": rows,
    }


def run_sweep(scale: int, edgefactor: float, nqueries: int, root_pool: int,
              zipf: float, rate: float, deadline_s: float,
              fault_rates: list[float], dist_ranks: int, dist_batch: int,
              failure_probs: list[float],
              checkpoint_intervals: list[int | None],
              seed: int = 1) -> dict:
    graph = kronecker(scale, edgefactor, seed=seed)
    rep = SlimSell(graph, 16, graph.n)
    pool = sample_roots(graph, root_pool, seed)
    serve = run_serve_sweep(rep, pool, nqueries, zipf, rate, deadline_s,
                            fault_rates, seed=seed)
    dist = run_dist_sweep(rep, dist_ranks, dist_batch, failure_probs,
                          checkpoint_intervals, seed=seed)
    return {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nqueries": nqueries,
            "root_pool": int(pool.size), "zipf": zipf, "rate": rate,
            "deadline_s": deadline_s, "seed": seed, "C": 16,
            "semiring": "sel-max",
        },
        "serve": serve,
        "dist": dist,
        "deterministic": True,
    }


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Resilience ablation (scale={w['scale']}, n={w['n']}, "
          f"m={w['m']}, {w['nqueries']} queries @ {w['rate']:g}/s, "
          f"deadline {w['deadline_s'] * 1e3:g} ms) ===")
    sv = payload["serve"]
    print_table(
        f"serving tier vs kernel-fault rate (B={sv['max_batch']})",
        ["fault", "goodput", "timeout", "failed", "shed", "retries/q",
         "bad batches", "breaker opens"],
        [[r["fault_rate"], r["goodput"], r["timeout_rate"],
          r["failed_rate"], r["shed_rate"], r["retries_per_query"],
          r["failed_batches"], r["breaker_opens"]]
         for r in sv["rows"]])
    d = payload["dist"]
    print_table(
        f"dist tier: overhead vs checkpoint interval (P={d['ranks']}, "
        f"B={d['batch']}, {d['network']})",
        ["p(fail)", "ckpt every", "overhead ms", "share of base"],
        [[r["rank_failure_prob"],
          "never" if r["checkpoint_interval"] is None
          else r["checkpoint_interval"],
          r["fault_overhead_s"] * 1e3, r["overhead_ratio"]]
         for r in d["rows"]])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nqueries", type=int, default=768)
    ap.add_argument("--root-pool", type=int, default=128)
    ap.add_argument("--zipf", type=float, default=0.8)
    ap.add_argument("--rate", type=float, default=40000.0)
    ap.add_argument("--deadline", type=float, default=0.008,
                    help="per-query deadline in seconds")
    ap.add_argument("--fault-rates", default="0,0.05,0.15,0.3",
                    help="comma-separated kernel-fault rates")
    ap.add_argument("--dist-ranks", type=int, default=16)
    ap.add_argument("--dist-batch", type=int, default=8)
    ap.add_argument("--failure-probs", default="0.01,0.05",
                    help="comma-separated per-rank failure probabilities")
    ap.add_argument("--checkpoint-intervals", default="never,1,4",
                    help="comma-separated intervals ('never' = no ckpt)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration")
    ap.add_argument("--output", default="BENCH_resilience.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        cfg = dict(QUICK)
    else:
        cfg = {
            "scale": args.scale, "edgefactor": args.edgefactor,
            "nqueries": args.nqueries, "root_pool": args.root_pool,
            "zipf": args.zipf, "rate": args.rate,
            "deadline_s": args.deadline,
            "fault_rates": [float(f) for f in args.fault_rates.split(",")],
            "dist_ranks": args.dist_ranks,
            "dist_batch": args.dist_batch,
            "failure_probs": [float(p)
                              for p in args.failure_probs.split(",")],
            "checkpoint_intervals": [
                None if k == "never" else int(k)
                for k in args.checkpoint_intervals.split(",")],
        }

    payload = run_sweep(cfg["scale"], cfg["edgefactor"], cfg["nqueries"],
                        cfg["root_pool"], cfg["zipf"], cfg["rate"],
                        cfg["deadline_s"], cfg["fault_rates"],
                        cfg["dist_ranks"], cfg["dist_batch"],
                        cfg["failure_probs"], cfg["checkpoint_intervals"],
                        seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    # Sanity: the fault-free row must be perfect (bit-identity guarantee).
    clean = payload["serve"]["rows"][0]
    if clean["fault_rate"] == 0.0 and (
            clean["failed"] or clean["retries"] or clean["sheds"]):
        print("ERROR: the fault-free configuration failed or retried "
              "queries", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
