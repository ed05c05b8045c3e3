"""Shared helpers for the benchmark suite.

Every bench regenerates one table or figure of the paper: it computes the
same rows/series the paper reports, prints them (visible with ``pytest -s``
or in the saved artifacts), and persists them as JSON under
``benchmarks/results/`` so EXPERIMENTS.md can cite exact numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"


def save_results(name: str, payload: dict) -> Path:
    """Persist a bench's series as JSON under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=_jsonify))
    return path


def write_bench_json(path, payload: dict) -> None:
    """Write a standalone-bench payload, keeping any gate baseline intact.

    The committed ``BENCH_*.json`` files carry a ``quick_baseline`` section
    stamped by ``check_regression.py --update-baselines``; re-running a
    bench with ``--output`` pointed at the committed file (the documented
    refresh flow) must not silently delete it, or the CI bench-gate job
    starts failing with "no quick_baseline section".
    """
    path = Path(path)
    if path.exists() and "quick_baseline" not in payload:
        try:
            old = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            old = {}
        if "quick_baseline" in old:
            payload = {**payload, "quick_baseline": old["quick_baseline"]}
    # Strict JSON: refuse NaN/Infinity instead of emitting the Python-only
    # literals no other tooling can parse (benches must stringify them).
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def probe_seconds(reps: int = 31) -> float:
    """Median seconds of a fixed, seeded gather + ⊕ microkernel.

    One sel-max layer step (gather, ⊗ = multiply, ⊕ = max) over 2**16
    slots reading a 2**12-vertex frontier: operands come from a fixed seed,
    so the time moves only with the host.  Benches divide kernel seconds by
    it (``kernel_over_probe``) to gate absolute kernel speed portably.
    """
    rng = np.random.default_rng(20170529)
    f = rng.random(1 << 12)
    val = rng.random(1 << 16)
    col = rng.integers(0, f.size, val.size)
    acc = rng.random(val.size)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.maximum(acc, np.multiply(val, f[col]))
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned ASCII table (the paper-row format)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _fmt(c) -> str:
    if isinstance(c, float):
        if c == 0:
            return "0"
        if abs(c) >= 1000 or abs(c) < 1e-3:
            return f"{c:.3e}"
        return f"{c:.4g}"
    return str(c)


def geomean(xs) -> float:
    """Geometric mean of positive values."""
    xs = np.asarray(list(xs), dtype=float)
    return float(np.exp(np.mean(np.log(xs)))) if xs.size else float("nan")


def modeled_spmv_run(machine, rep, semiring, root, *, sched="static",
                     slimwork=False, slimchunk=None, include_dp=True,
                     engine="layer"):
    """Run a counted BFS-SpMV and model it on ``machine``.

    Returns ``(result, per_iteration_ModeledTime, total_seconds)``.  The
    load-balance factor comes from simulating the requested OpenMP schedule
    over the representation's work units (SlimChunk-aware); the DP
    transformation cost is added for semirings that need it (§IV-A2) unless
    ``include_dp=False`` (the paper's "No-DP" configurations).
    """
    from repro.bfs.slimchunk import make_work_units, unit_costs
    from repro.bfs.spmv import BFSSpMV
    from repro.perf.costmodel import (
        model_bfs_result,
        model_scalar_iteration,
    )
    from repro.sched.scheduling import (
        imbalance,
        schedule_dynamic,
        schedule_static,
    )

    runner = BFSSpMV(rep, semiring, counting=True, slimwork=slimwork,
                     slimchunk=slimchunk, engine=engine,
                     compute_parents=False)
    res = runner.run(root)
    units = make_work_units(rep.cl, slimchunk)
    costs = unit_costs(units, rep.C)
    if sched == "static":
        schedule = schedule_static(costs, machine.units)
    else:
        schedule = schedule_dynamic(costs, machine.units)
    bal = imbalance(schedule)
    times = model_bfs_result(machine, res, balance=bal)
    total = sum(t.t_total for t in times)
    if include_dp and runner.semiring.needs_dp:
        dp = model_scalar_iteration(machine, edges_examined=2 * rep.m,
                                    vertices_touched=rep.n)
        total += dp.t_total
    return res, times, total
