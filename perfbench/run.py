"""SlimSell reproduction benchmark: Graph500 TEPS, executed and served BFS.

Run from the repository root::

    python3 perfbench/run.py --workload g500-b1 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repository
root; this script reads their names and units from there.  One workload runs
per process; ``--workload all`` runs each in its own child process.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half the time on an untraced run and half on a traced
run (:mod:`layers` wraps each layer's entry points), reports the per-layer
metrics, ``trace.overhead`` (traced over untraced wall time per pass), and
writes ``perfbench/results/<workload>-seed<seed>.*``: the first traced pass's
spans as JSONL (readable by ``python -m repro trace``), the exclusive-time
budget per layer, and the exact kernel counts, which later runs of the same
seed are compared against (``counts.drift``).

Every workload reports every end-to-end metric:

* ``teps_hmean`` — harmonic-mean TEPS of the workload's traversals, each
  timed as its call's wall time divided by the call's width (the rule
  ``run_graph500`` uses for batches; the served engines' own per-column
  ``total_time_s`` on the serve workloads);
* ``latency_ms_p50`` / ``latency_ms_tail`` — the wait of the operation the
  workload's users send, at the median and at the highest percentile with
  at least ten samples beyond it at the workload's fixed sample count:
  one traversal, p80 of 64 roots, each timed by its median pass
  (g500-b1); one 64-root batch, whose roots are all answered when it
  returns, median and p80 of the run's batches (exec); one
  ``Server.submit`` call, which resolves nearly every hot query, p98 of a
  pass's 10**5 calls, upper quartile over the passes (serve-hot);
* ``wall_qps`` — roots or queries answered per wall second;
* ``setup_s`` — graph generation, SlimSell build and warm-up, median of
  several set-ups; ``peak_rss_mb`` — peak RSS, forked workers included.

Other load on the machine moves its speed by a fifth or more, either way,
for seconds to minutes at a time, so every figure is a median or quantile over the
whole run: g500-b1 times each root by its median of three or more passes,
exec uses its median batch, serve-hot the level of each pass's figure that
three quarters of its passes reach.  Figures reported but not gated
(``traversal_ms_p80``, the attaches' ``kernel_path_ms_p95``,
``submit_us_p99_pooled``, ``failed_frac``, ``env.probe_ms`` and others)
are printed above the result line.

The result is the last line of standard output, one JSON object; the exit
code is non-zero when any answer was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def env_probe(reps: int = 15) -> float:
    """Median ms of a fixed gather + min/max/add microkernel.

    Operands match one scale-15 sweep (~2**20 slots over 2**15 vertices)
    and come from a fixed seed, so the probe moves only with the machine.
    """
    import time

    import numpy as np

    rng = np.random.default_rng(20170529)
    f = rng.random(1 << 15)
    h = rng.random(1 << 20)
    idx = rng.integers(0, f.size, h.size)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        g = f[idx]
        np.add(np.minimum(g, h), np.maximum(g, h))
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def layer_row(spans, budget, counts: dict, wall: float, C: int) -> dict:
    """Per-layer metrics of one traced pass from its spans and counts."""
    from stats import under

    def incl(name):
        return budget.get(name, {}).get("incl_s", 0.0)

    row = {f"bfs.{k}_s": incl(f"bfs.{k}") for k in
           ("run", "sweep", "postprocess", "init_state", "finalize", "push")}
    row["bfs.self_s"] = budget.get("bfs.run", {}).get("self_s", 0.0)
    row["exec.run_layer_s"] = incl("exec.run_layer")
    for k in ("submit", "poll", "drain"):
        row[f"serve.{k}_s"] = incl(f"serve.{k}")
    if "serve.submit" in budget:
        engine = under(spans, "bfs.run", "serve.")
        row["serve.engine_s"] = engine
        row["serve.overhead_s"] = wall - engine
        row["serve.overhead_share"] = (wall - engine) / wall
    row.update(counts)
    layers = counts["bfs.column_layers"]
    if layers:
        row["bfs.narrow_layer_share"] = counts["bfs.narrow_layers"] / layers
        row["bfs.rows_per_layer"] = counts["bfs.chunk_layers"] * C / layers
    return row


def measure(name: str, seed: int, seconds: float, trace: bool,
            cfg=None, out_dir: Path = RESULTS) -> dict:
    """Run one workload; returns counts, metrics and, traced, the budget.

    The workloads' reasons for existing are in ``BENCHMARK.json``.
    """
    import numpy as np

    from layers import EXACT_COUNTS, LayerProbe
    from repro.obs.export import write_jsonl
    from stats import budget as span_budget
    from workloads import WORKLOADS, Config

    wl = WORKLOADS[name](cfg or Config(), seed)
    probe = LayerProbe()  # installed for the traced passes only
    tally = {"attempted": 0, "failed": 0}

    def passes(budget_s, min_passes=1, on_pass=None):
        # No pass starts that would, at the mean pass time so far, end past
        # the budget: g500-b1's passes take a third of a run or more.
        recs, spent = [], 0.0
        while (len(recs) < min_passes
               or spent + spent / len(recs) <= budget_s):
            if on_pass is not None:
                probe.reset()
            rec = wl.run_pass()
            spent += rec["wall_s"]
            if on_pass is not None:
                on_pass(rec)
            attempted, failed = wl.verify(rec)
            tally["attempted"] += attempted
            tally["failed"] += failed
            recs.append(rec)
        return recs

    out = {"workload": name, "seed": seed}
    try:
        setups = [wl.setup() for _ in range(wl.cfg.setup_repeats)]
        setup = {k: float(np.median([s[k] for s in setups]))
                 for k in setups[0]}
        out["probe_ms"] = env_probe()
        if not trace:
            recs = passes(seconds, wl.min_passes)
            out["e2e"], out["extras"] = wl.end_to_end(recs)
            out["e2e"]["setup_s"] = setup["setup_s"]
        else:
            plain = passes(seconds / 2)
            rows, budgets = [], []
            out_dir.mkdir(exist_ok=True)
            stem = out_dir / f"{name}-seed{seed}"

            def on_pass(rec):
                spans = probe.tracer.spans
                b = span_budget(spans, rec["wall_s"])
                if not budgets:
                    write_jsonl(spans, f"{stem}.spans.jsonl")
                budgets.append(b)
                row = layer_row(spans, b, dict(probe.counts), rec["wall_s"],
                                wl.rep.C)
                row.update(wl.layer_metrics(rec))
                rows.append(row)

            with probe:
                traced = passes(seconds / 2, on_pass=on_pass)
            out["layers"], out["budget"] = summarize_traced(
                wl, rows, budgets, traced, plain, setup, stem,
                EXACT_COUNTS + ("bfs.iterations", "bfs.work_lanes",
                                "exec.exchanged_bytes"))
            out["layers"]["env.probe_ms"] = out["probe_ms"]
    finally:
        wl.close()
        # Shared memory of the process backend starts multiprocessing's
        # resource tracker; stop it and wait for it to exit.
        resource_tracker._resource_tracker._stop()
    out.update(tally)
    out["peak_rss_mb"] = peak_rss_mb()
    if not trace:
        out["e2e"]["peak_rss_mb"] = out["peak_rss_mb"]
        out["extras"]["failed_frac"] = tally["failed"] / tally["attempted"]
        out["extras"]["env.probe_ms"] = out["probe_ms"]
    return out


def summarize_traced(wl, rows, budgets, traced, plain, setup, stem, exact):
    """Average the traced passes; check count drift; write the artifacts."""
    import numpy as np

    layers = {k: float(np.mean([r.get(k, 0.0) for r in rows]))
              for k in rows[0]}
    first = {k: int(rows[0][k]) for k in exact if k in rows[0]}
    drift = sum(any(int(r[k]) != v for r in rows[1:]) for k, v in first.items())
    counts_path = Path(f"{stem}.counts.json")
    if counts_path.exists():
        before = json.loads(counts_path.read_text())
        drift += sum(before.get(k) != v for k, v in first.items())
    else:
        counts_path.write_text(json.dumps(first, indent=1) + "\n")
    if drift:
        print(f"count drift: {drift} exact counters differ from "
              f"{counts_path.name} or between passes", file=sys.stderr)
    layers.update(first)
    layers["counts.drift"] = drift
    layers.update({k: v for k, v in setup.items() if k != "setup_s"})
    wall = float(np.mean([r["wall_s"] for r in traced]))
    layers["trace.overhead"] = (
        float(np.median([r["wall_s"] for r in traced]))
        / float(np.median([r["wall_s"] for r in plain])))
    names = {n for b in budgets for n in b}
    mean = {n: {f: float(np.mean([b.get(n, {}).get(f, 0.0) for b in budgets]))
                for f in ("count", "incl_s", "self_s")} for n in names}
    for row in mean.values():
        row["self_share"] = row["self_s"] / wall
    share = layers.get(wl.purpose, 0.0) / wall
    doc = {"workload": wl.name, "seed": wl.seed, "passes": len(traced),
           "wall_s_per_pass": wall, "trace_overhead": layers["trace.overhead"],
           "purpose": {"metric": wl.purpose, "share": share,
                       "holds": share > 0.5},
           "self_time": dict(sorted(mean.items(),
                                    key=lambda kv: -kv[1]["self_s"]))}
    Path(f"{stem}.budget.json").write_text(json.dumps(doc, indent=1) + "\n")
    return layers, doc


def result_line(out: dict, spec: dict, trace: bool) -> dict:
    """The contract's last-line object, every declared metric present."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = out["layers"] if trace else out["e2e"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def print_human(out: dict, line: dict) -> None:
    name = out["workload"]
    for key, m in line["metrics"].items():
        print(f"{name}  {key:<28} {m['value']:>16.6g} {m['unit']}")
    for key, value in out.get("extras", {}).items():
        print(f"{name}  {key:<28} {value:>16.6g} (reported, not gated)")
    if "budget" in out:
        p = out["budget"]["purpose"]
        print(f"{name}  purpose {p['metric']} share {p['share']:.3f} "
              f"({'holds' if p['holds'] else 'DOES NOT HOLD'})")
    print(f"{name}  attempted {out['attempted']} failed {out['failed']}")


def run_all(args, spec) -> int:
    """Each workload in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{wl['name']}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{wl['name']}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(out, spec, bool(args.trace))
    print_human(out, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
