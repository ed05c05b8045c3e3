"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from layers import NARROW_LIVE, sweep_counts  # noqa: E402
from repro.graphs.kronecker import kronecker  # noqa: E402
from repro.obs.export import load_trace  # noqa: E402
from repro.obs.trace import Span  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Small enough for a unit test, large enough that each layer still does
#: the work its workload exists for.
SMALL = workloads.Config(scale=11, hot_queries=20_000, setup_repeats=1,
                         sample_checks=2)


# ----------------------------------------------------------------------
def test_tail_rule_needs_ten_samples_beyond():
    assert stats.samples_beyond(64, 80) == pytest.approx(12.8)
    assert stats.tail_ok(64, 80)
    assert not stats.tail_ok(64, 90)
    assert stats.tail_ok(200, 95)
    assert not stats.tail_ok(199, 95)
    with pytest.raises(ValueError, match="need >= 10"):
        stats.tail(np.arange(64.0), 95)
    assert stats.tail(np.arange(101.0), 90) == pytest.approx(90.0)


def test_tail_percentiles_fit_the_fixed_sample_counts():
    assert stats.tail_ok(workloads.NROOTS, 80)  # g500-b1: one time per root
    # serve-hot: one submit() per query, p98 of each pass
    assert stats.tail_ok(workloads.Config().hot_queries, 98)


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    g = kronecker(SMALL.scale, workloads.EDGEFACTOR, seed=workloads.GRAPH_SEED)
    return g, workloads.giant_component(g)


def test_same_seed_same_inputs_other_seed_other_inputs(small_graph):
    g, giant = small_graph
    a = workloads.make_inputs(g, giant, 3, SMALL)
    b = workloads.make_inputs(g, giant, 3, SMALL)
    c = workloads.make_inputs(g, giant, 4, SMALL)
    for key in ("roots", "hot_set", "hot_roots", "hot_arrivals"):
        assert np.array_equal(a[key], b[key]), key
    for key in ("roots", "hot_roots", "hot_arrivals"):
        assert not np.array_equal(a[key], c[key]), key
    assert np.array_equal(a["hot_set"], c["hot_set"])  # part of the workload
    assert a["roots"].size == workloads.NROOTS
    assert np.unique(a["roots"]).size == workloads.NROOTS
    assert giant[a["roots"]].all() and giant[a["hot_set"]].all()
    assert np.array_equal(np.unique(a["hot_roots"]), np.sort(a["hot_set"]))
    assert (a["hot_arrivals"][:workloads.HOT_SET] == 0).all()
    assert (np.diff(a["hot_arrivals"]) >= 0).all()


# ----------------------------------------------------------------------
def test_names_and_units_follow_the_contract():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
def span(i, parent, t0, t1, name="x"):
    return Span(name=name, span_id=i, trace_id=1, parent_id=parent,
                t_start=t0, t_end=t1)


def test_self_time_subtracts_merged_clipped_children():
    spans = [span(1, None, 0.0, 10.0, "root"),
             span(2, 1, 1.0, 4.0, "a"),
             span(3, 1, 3.0, 6.0, "b"),       # overlaps a
             span(4, 1, 8.0, 12.0, "c"),      # runs past its parent
             span(5, 2, 2.0, 3.0, "a"),       # nested in a span named a
             span(6, 5, 2.5, 2.75, "d")]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[5] == pytest.approx(0.75)
    assert selfs[6] == pytest.approx(0.25)
    b = stats.budget(spans, wall_s=11.0)
    assert b["a"]["count"] == 2
    assert b["a"]["incl_s"] == pytest.approx(3.0)  # the nested one not again
    assert b["a"]["self_s"] == pytest.approx(2.75)
    assert b["bench.loop"]["self_s"] == pytest.approx(1.0)
    assert stats.under(spans, "d", "a") == pytest.approx(0.25)
    assert stats.under(spans, "c", "a") == 0.0


# ----------------------------------------------------------------------
def loop_counts(cl, act, C):
    """The column-layer loop of ``sweep_band_layers``, counted by hand."""
    scl = np.sort(cl[act])[::-1]
    layers = narrow = chunk_layers = 0
    for j in range(int(scl[0]) if scl.size else 0):
        live = int((scl > j).sum())
        layers += 1
        narrow += live < NARROW_LIVE
        chunk_layers += live
    return layers, narrow, chunk_layers


@pytest.mark.parametrize("n", [0, 1, 5, 8, 9, 40])
def test_sweep_counts_match_the_layer_loop(n):
    rng = np.random.default_rng(n)
    cl = rng.integers(0, 30, size=64)
    act = np.sort(rng.choice(64, size=n, replace=False))
    got = sweep_counts(cl, act, 16, 8, 8, 8, 4)
    layers, narrow, chunk_layers = loop_counts(cl, act, 16)
    assert got["bfs.column_layers"] == layers
    assert got["bfs.narrow_layers"] == narrow
    assert got["bfs.chunk_layers"] == chunk_layers
    assert got["bfs.computed_bytes"] == chunk_layers * 16 * (8 + 8 + 3 * 4 * 8)
    assert got["bfs.sweep_calls"] == 1


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return out, {name: run.measure(name, 1, 0.01, True, SMALL, out)
                 for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_records_its_purpose_and_every_layer(traced, name):
    out_dir, results = traced
    res = results[name]
    assert res["failed"] == 0 and res["attempted"] > 0
    purpose = res["budget"]["purpose"]
    assert purpose["metric"] == workloads.WORKLOADS[name].purpose
    assert purpose["holds"], purpose
    line = run.result_line(res, SPEC, trace=True)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = res["layers"]
    assert layers["counts.drift"] == 0
    assert layers["bfs.column_layers"] > 0 and layers["bfs.iterations"] > 0
    assert (layers["exec.run_layer_s"] > 0) == (name == "g500-b64-exec2")
    assert (layers["serve.submit_s"] > 0) == name.startswith("serve")
    spans = load_trace(str(out_dir / f"{name}-seed1.spans.jsonl"))
    assert spans and all(s.t_end is not None for s in spans)


def test_serve_hot_is_dominated_by_server_overhead(traced):
    layers = traced[1]["serve-hot"]["layers"]
    assert layers["serve.overhead_share"] > 0.5
    assert layers["serve.cache_hit_ratio"] > 0.5


def test_rerun_of_the_same_seed_shows_no_count_drift(traced):
    out_dir, results = traced
    again = run.measure("g500-b1", 1, 0.01, True, SMALL, out_dir)
    assert again["layers"]["counts.drift"] == 0
    for key in ("bfs.column_layers", "bfs.chunk_layers", "bfs.work_lanes"):
        assert again["layers"][key] == results["g500-b1"]["layers"][key]
    counts = json.loads((out_dir / "g500-b1-seed1.counts.json").read_text())
    assert all(isinstance(v, int) for v in counts.values())


def test_untraced_run_reports_every_end_to_end_metric():
    res = run.measure("g500-b1", 2, 0.01, False, SMALL)
    line = run.result_line(res, SPEC, trace=False)
    passes = workloads.Graph500B1.min_passes
    assert line["correct"] and line["attempted"] >= passes * workloads.NROOTS
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
