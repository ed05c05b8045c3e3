#!/usr/bin/env python
"""Worker-count ablation of the executed row-sharded SpMM backend.

Runs the Graph500-style workload (Kronecker graph, sampled valid roots,
SlimSell C=16, sel-max, SlimWork) through ``repro.exec`` once per worker
count W ∈ {1, 2, 4}, over the *same* prebuilt representation, and reports
the measured per-layer shard timings: total compute seconds, the
critical-path (slowest-shard) seconds the distributed model charges as
``t_local``, and the exchange seconds where it charges collectives.

The gated figure of merit is ``speedup_critical_path``: the W=1 compute
total over the W-worker critical-path total, measured by the serial
backend (each shard timed alone, so per-shard attribution is clean).  It
is the measured analogue of the dist model's local-phase scaling and is
portable to a single-core CI host, where *wall-clock* parallel speedup
is unmeasurable by construction — the threads backend's wall times are
reported for reference but never gated.  The W=1 row also reports
``kernel_over_probe`` (its single-shard compute total over the
same-process gather + ⊕ microkernel of ``_common.probe_seconds``), which
sees the absolute kernel speed that the speedup ratios divide out.  Every
run is checked bit-identical (distances and parents) to the plain batched
engine before its timing is trusted, and the sweep ends by fitting the
``knl`` / ``cray-aries`` descriptors to the measured run (the calibration
loop).

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_exec.json`` in the current
directory) that CI uploads as the perf-trajectory artifact.

Usage::

    python benchmarks/bench_exec.py              # scale 14, 64 roots
    python benchmarks/bench_exec.py --quick      # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import probe_seconds, write_bench_json

from repro.bfs.msbfs import MultiSourceBFS
from repro.dist.calibrate import calibrate
from repro.exec.engine import ExecMultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.
QUICK = {"scale": 12, "edgefactor": 16, "nroots": 32, "workers": [1, 2, 4]}


def _identical(got, exp) -> bool:
    return all(np.array_equal(a.dist, b.dist)
               and np.array_equal(a.parent, b.parent)
               for a, b in zip(got, exp))


def _timed_run(engine, roots):
    """One warmed, profiled run: ``(results, wall_s, profile)``."""
    engine.run(roots)  # warm operand caches and worker pools
    engine.reset_profile()
    t0 = time.perf_counter()
    results = engine.run(roots)
    wall_s = time.perf_counter() - t0
    return results, wall_s, list(engine.layer_profile)


def run_sweep(scale: int, edgefactor: float, nroots: int,
              workers: list[int], seed: int = 1) -> dict:
    graph = kronecker(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    rep = SlimSell(graph, 16, graph.n)
    build_s = time.perf_counter() - t0

    roots = sample_roots(graph, nroots, seed)
    expected = MultiSourceBFS(rep, "sel-max", slimwork=True).run(roots)
    probe_s = probe_seconds()

    rows = []
    base_compute = None
    for W in sorted(set(workers)):
        with ExecMultiSourceBFS(rep, "sel-max", workers=W, backend="serial",
                                slimwork=True) as engine:
            results, wall_s, prof = _timed_run(engine, roots)
        compute_s = sum(layer.t_compute_total_s for layer in prof)
        critical_s = sum(layer.t_local_s for layer in prof)
        if base_compute is None:
            if W != 1:
                raise SystemExit("workers must include 1 (the baseline)")
            base_compute = compute_s
        row = {
            "workers": W,
            "wall_s": wall_s,
            "compute_s": compute_s,
            "critical_path_s": critical_s,
            "exchange_s": sum(layer.t_exchange_s for layer in prof),
            "speedup_critical_path": base_compute / critical_s,
            "identical_to_msbfs": bool(_identical(results, expected)),
        }
        if W == 1:
            row["kernel_over_probe"] = compute_s / probe_s
        rows.append(row)

    threads_rows = []
    for W in sorted(set(workers)):
        with ExecMultiSourceBFS(rep, "sel-max", workers=W, backend="threads",
                                slimwork=True) as engine:
            results, wall_s, _ = _timed_run(engine, roots)
        threads_rows.append({
            "workers": W,
            "wall_s": wall_s,
            "identical_to_msbfs": bool(_identical(results, expected)),
        })

    wmax = max(workers)
    rpt = calibrate(rep, roots, workers=wmax, machine="knl",
                    network="cray-aries", slimwork=True)
    return {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nroots": int(roots.size),
            "seed": seed, "C": 16, "semiring": "sel-max", "slimwork": True,
            "representation": "slimsell", "backend": "serial",
            "build_s": build_s, "probe_s": probe_s,
        },
        "workers": rows,
        "threads_wall": {
            "note": "wall clock of the GIL-releasing thread pool; "
                    "informational only (never gated: it tracks the host's "
                    "core count, not the code)",
            "rows": threads_rows,
        },
        "calibration": {
            "workers": wmax,
            "machine": rpt.machine.name,
            "network": rpt.network.name,
            "compute_scale": rpt.compute_scale,
            "comm_scale": rpt.comm_scale,
            "measured_local_s": rpt.measured_local_s,
            "modeled_local_s": rpt.modeled_local_s,
            "measured_exchange_s": rpt.measured_exchange_s,
            "modeled_comm_s": rpt.modeled_comm_s,
        },
    }


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Executed row-sharded sweep (scale={w['scale']}, "
          f"edgefactor={w['edgefactor']}, n={w['n']}, m={w['m']}, "
          f"{w['nroots']} roots) ===")
    hdr = (f"{'W':>4s}  {'wall s':>9s}  {'compute s':>10s}  "
           f"{'critical s':>10s}  {'exchange s':>10s}  {'speedup':>8s}  "
           "identical")
    print(hdr)
    print("-" * len(hdr))
    for r in payload["workers"]:
        print(f"{r['workers']:4d}  {r['wall_s']:9.3f}  "
              f"{r['compute_s']:10.4f}  {r['critical_path_s']:10.4f}  "
              f"{r['exchange_s']:10.4f}  "
              f"{r['speedup_critical_path']:7.2f}x  "
              f"{r['identical_to_msbfs']}")
    print("threads backend wall clock (reference, ungated): "
          + ", ".join(f"W={r['workers']}: {r['wall_s']:.3f}s"
                      for r in payload["threads_wall"]["rows"]))
    c = payload["calibration"]
    print(f"calibration (W={c['workers']}, {c['machine']}/{c['network']}): "
          f"compute_scale={c['compute_scale']:.3g} "
          f"comm_scale={c['comm_scale']:.3g}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nroots", type=int, default=64)
    ap.add_argument("--workers", default="1,2,4",
                    help="comma-separated worker counts (must include 1)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration (scale 12, 32 roots, "
                         "W in {1,2,4})")
    ap.add_argument("--output", default="BENCH_exec.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        scale, nroots = QUICK["scale"], QUICK["nroots"]
        edgefactor, workers = QUICK["edgefactor"], QUICK["workers"]
    else:
        scale, nroots, edgefactor = args.scale, args.nroots, args.edgefactor
        workers = [int(w) for w in args.workers.split(",")]

    payload = run_sweep(scale, edgefactor, nroots, workers, seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    diverged = (
        [r for r in payload["workers"] if not r["identical_to_msbfs"]]
        + [r for r in payload["threads_wall"]["rows"]
           if not r["identical_to_msbfs"]])
    if diverged:
        print("ERROR: a sharded run diverged from the batched baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
