#!/usr/bin/env python
"""B-sweep ablation of the batched multi-source BFS engine.

Runs the Graph500-style workload (Kronecker graph, sampled valid roots,
default engine: SlimSell C=16, sel-max, SlimWork) once per batch width
B ∈ {1, 4, 16, 64}, over the *same* prebuilt representation, and reports
total kernel wall clock, speedup over the sequential B=1 sweep,
harmonic-mean TEPS, and ``kernel_over_probe``: kernel seconds over the
seconds of a fixed, seeded gather + ⊕ microkernel timed in the same
process.  The speedups are quotients of kernel times, so they cannot see a
change that speeds every width up alike and read a faster B=1 as a loss;
the probe quotient sees absolute kernel speed while the host's speed still
divides out.  Every batched run is checked bit-identical (distances and
parents) to the sequential baseline before its timing is trusted.

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_msbfs.json`` in the current
directory) that CI uploads as the perf-trajectory artifact.

Usage::

    python benchmarks/bench_msbfs_batch.py              # scale 14, 64 roots
    python benchmarks/bench_msbfs_batch.py --quick      # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import probe_seconds, write_bench_json

from repro.bfs.spmv import BFSSpMV
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.
QUICK = {"scale": 10, "edgefactor": 16, "nroots": 16, "batches": [1, 4, 16]}


def run_sweep(scale: int, edgefactor: float, nroots: int,
              batches: list[int], seed: int = 1) -> dict:
    graph = kronecker(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    rep = SlimSell(graph, 16, graph.n)
    build_s = time.perf_counter() - t0

    roots = sample_roots(graph, nroots, seed)

    # Warm the memoized operands (col64, per-semiring val) so every batch
    # width measures steady-state kernel time, not one-time materialization.
    BFSSpMV(rep, "sel-max", slimwork=True).run(int(roots[0]))
    probe_s = probe_seconds()

    baseline = None
    rows = []
    for B in sorted(set(batches)):
        engine = BFSSpMV(rep, "sel-max", slimwork=True,
                         batch=B if B > 1 else None)
        t1 = time.perf_counter()
        results = engine.run_many(roots)
        kernel_s = time.perf_counter() - t1
        if baseline is None:
            if B != 1:
                raise SystemExit("batches must include 1 (the baseline)")
            edges = [int(graph.degrees[np.isfinite(r.dist)].sum()) // 2
                     for r in results]
            baseline = (kernel_s, results, edges)
        base_s, base_results, edges = baseline
        identical = all(
            np.array_equal(a.dist, b.dist) and np.array_equal(a.parent, b.parent)
            for a, b in zip(base_results, results))
        teps = np.array(edges) / (kernel_s / len(roots))
        rows.append({
            "B": B,
            "kernel_s": kernel_s,
            "speedup_vs_B1": base_s / kernel_s,
            "kernel_over_probe": kernel_s / probe_s,
            "hmean_teps": float(teps.size / np.sum(1.0 / teps)),
            "identical_to_B1": bool(identical),
        })
    return {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nroots": int(roots.size),
            "seed": seed, "C": 16, "semiring": "sel-max", "slimwork": True,
            "representation": "slimsell", "build_s": build_s,
            "probe_s": probe_s,
        },
        "batches": rows,
    }


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Batched MS-BFS ablation (scale={w['scale']}, "
          f"edgefactor={w['edgefactor']}, n={w['n']}, m={w['m']}, "
          f"{w['nroots']} roots) ===")
    hdr = (f"{'B':>4s}  {'kernel s':>10s}  {'speedup':>8s}  "
           f"{'/probe':>8s}  {'hmean TEPS':>11s}  identical")
    print(hdr)
    print("-" * len(hdr))
    for r in payload["batches"]:
        print(f"{r['B']:4d}  {r['kernel_s']:10.3f}  {r['speedup_vs_B1']:7.2f}x "
              f" {r['kernel_over_probe']:8.1f}  {r['hmean_teps']:11.3e}  "
              f"{r['identical_to_B1']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nroots", type=int, default=64)
    ap.add_argument("--batches", default="1,4,16,64",
                    help="comma-separated batch widths (must include 1)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration (scale 10, 16 roots, "
                         "B in {1,4,16})")
    ap.add_argument("--output", default="BENCH_msbfs.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        scale, nroots = QUICK["scale"], QUICK["nroots"]
        edgefactor, batches = QUICK["edgefactor"], QUICK["batches"]
    else:
        scale, nroots, edgefactor = args.scale, args.nroots, args.edgefactor
        batches = [int(b) for b in args.batches.split(",")]

    payload = run_sweep(scale, edgefactor, nroots, batches,
                        seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    if not all(r["identical_to_B1"] for r in payload["batches"]):
        print("ERROR: a batched run diverged from the sequential baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
