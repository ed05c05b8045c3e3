#!/usr/bin/env python
"""B-sweep and α-sweep ablation of the direction-optimizing batched BFS.

Runs the Graph500-style workload (Kronecker graph, sampled valid roots,
default engine config: SlimSell C=16, sel-max, SlimWork) over a grid of
batch widths B and Beamer thresholds α, against the all-pull multi-source
engine (PR 2's ``bench_msbfs_batch.py`` kernel) measured at the same batch
widths on the same prebuilt representation.  Every hybrid run is checked
bit-identical (distances and parents) to the all-pull baseline before its
timing is trusted.  Each hybrid point also reports ``kernel_over_probe``
(kernel seconds over the same-process gather + ⊕ microkernel of
``_common.probe_seconds``), which sees absolute kernel speed where the
speedups over all-pull divide it out.

The expected shape: direction optimization dominates at small B (push
phases skip the full-graph pull sweeps that batching has not yet
amortized) and tapers as B grows — the headline is the best hybrid (B, α)
point against the *best* all-pull point.

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_mshybrid.json``) that CI uploads
as the perf-trajectory artifact.

Usage::

    python benchmarks/bench_mshybrid.py              # scale 14, 64 roots
    python benchmarks/bench_mshybrid.py --quick      # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import probe_seconds, write_bench_json

from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.bfs.spmv import BFSSpMV
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.
QUICK = {"scale": 10, "edgefactor": 16, "nroots": 16,
         "batches": [1, 4], "alphas": [8.0, 14.0]}


def _identical(a, b) -> bool:
    return all(np.array_equal(x.dist, y.dist) and np.array_equal(x.parent, y.parent)
               for x, y in zip(a, b))


def run_sweep(scale: int, edgefactor: float, nroots: int,
              batches: list[int], alphas: list[float], seed: int = 1) -> dict:
    graph = kronecker(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    rep = SlimSell(graph, 16, graph.n)
    build_s = time.perf_counter() - t0

    roots = sample_roots(graph, nroots, seed)

    # Warm the memoized operands (col64, per-semiring val) so every config
    # measures steady-state kernel time, not one-time materialization.
    BFSSpMV(rep, "sel-max", slimwork=True).run(int(roots[0]))
    probe_s = probe_seconds()

    # All-pull baselines (the PR 2 kernel), one per batch width.
    ref_results = None
    baselines = []
    for B in sorted(set(batches)):
        engine = BFSSpMV(rep, "sel-max", slimwork=True,
                         batch=B if B > 1 else None)
        t1 = time.perf_counter()
        results = engine.run_many(roots)
        kernel_s = time.perf_counter() - t1
        if ref_results is None:
            ref_results = results
        baselines.append({"B": B, "kernel_s": kernel_s})
    assert ref_results is not None
    pull_by_b = {row["B"]: row["kernel_s"] for row in baselines}
    best_pull = min(pull_by_b.values())

    grid = []
    for B in sorted(set(batches)):
        for alpha in alphas:
            engine = MultiSourceHybridBFS(rep, "sel-max", alpha=alpha)
            t1 = time.perf_counter()
            results = []
            for i in range(0, roots.size, B):
                results.extend(engine.run(roots[i:i + B]))
            kernel_s = time.perf_counter() - t1
            grid.append({
                "B": B,
                "alpha": alpha,
                "kernel_s": kernel_s,
                "speedup_vs_allpull_same_B": pull_by_b[B] / kernel_s,
                "speedup_vs_best_allpull": best_pull / kernel_s,
                "kernel_over_probe": kernel_s / probe_s,
                "identical_to_allpull": _identical(ref_results, results),
            })

    best = max(grid, key=lambda r: r["speedup_vs_best_allpull"])
    return {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nroots": int(roots.size),
            "seed": seed, "C": 16, "semiring": "sel-max", "slimwork": True,
            "representation": "slimsell", "build_s": build_s,
            "probe_s": probe_s,
        },
        "allpull_baseline": baselines,
        "grid": grid,
        "headline": {
            "best_hybrid": {k: best[k] for k in ("B", "alpha", "kernel_s")},
            "best_allpull_kernel_s": best_pull,
            "speedup": best["speedup_vs_best_allpull"],
            "hybrid_beats_allpull": best["speedup_vs_best_allpull"] > 1.0,
        },
    }


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Direction-optimizing MS-BFS ablation (scale={w['scale']}, "
          f"edgefactor={w['edgefactor']}, n={w['n']}, m={w['m']}, "
          f"{w['nroots']} roots) ===")
    print("all-pull baseline (PR 2 kernel):")
    for r in payload["allpull_baseline"]:
        print(f"  B={r['B']:3d}  {r['kernel_s']:8.3f} s")
    hdr = (f"{'B':>4s} {'alpha':>7s}  {'kernel s':>9s}  {'vs pull@B':>9s}  "
           f"{'vs best pull':>12s}  identical")
    print(hdr)
    print("-" * len(hdr))
    for r in payload["grid"]:
        print(f"{r['B']:4d} {r['alpha']:7g}  {r['kernel_s']:9.3f}  "
              f"{r['speedup_vs_allpull_same_B']:8.2f}x  "
              f"{r['speedup_vs_best_allpull']:11.2f}x  "
              f"{r['identical_to_allpull']}")
    h = payload["headline"]
    b = h["best_hybrid"]
    print(f"\nheadline: hybrid B={b['B']} alpha={b['alpha']:g} "
          f"({b['kernel_s']:.3f} s) vs best all-pull "
          f"({h['best_allpull_kernel_s']:.3f} s): {h['speedup']:.2f}x")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nroots", type=int, default=64)
    ap.add_argument("--batches", default="1,4,16,64",
                    help="comma-separated batch widths")
    ap.add_argument("--alphas", default="8,14,32,64",
                    help="comma-separated Beamer thresholds")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration (scale 10, 16 roots, "
                         "B in {1,4}, alpha in {8,14})")
    ap.add_argument("--output", default="BENCH_mshybrid.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        scale, nroots = QUICK["scale"], QUICK["nroots"]
        edgefactor = QUICK["edgefactor"]
        batches, alphas = QUICK["batches"], QUICK["alphas"]
    else:
        scale, nroots, edgefactor = args.scale, args.nroots, args.edgefactor
        batches = [int(b) for b in args.batches.split(",")]
        alphas = [float(a) for a in args.alphas.split(",")]

    payload = run_sweep(scale, edgefactor, nroots, batches, alphas,
                        seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    if not all(r["identical_to_allpull"] for r in payload["grid"]):
        print("ERROR: a hybrid run diverged from the all-pull baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
