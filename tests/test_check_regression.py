"""Unit tests of the CI benchmark-regression gate's comparison logic.

The gate script lives in ``benchmarks/`` (not a package), so it is loaded
by file path; its ``BENCHES`` registry is stubbed with a canned payload so
these tests exercise the baseline/point machinery — tolerance bounds,
direction handling, best-of-N damping, the --inject self-test, exit codes —
without re-running any real sweep.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO / "benchmarks" / "check_regression.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses resolves cls.__module__ through sys.modules at class
    # creation, so the file-loaded module must be registered while exec'd.
    sys.modules["check_regression"] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.modules.pop("check_regression", None)


def make_bench(gate, payload):
    """A stub bench: runs return ``payload``, points read two metrics."""

    def run():
        return json.loads(json.dumps(payload))  # fresh copy per sweep

    def extract(p):
        return [
            gate.Point("speedup", p["speedup"], "higher", True),
            gate.Point("bytes", p["bytes"], "lower", False),
        ]

    return run, extract


def write_baseline(tmp_path, payload, gated=None):
    doc = {"workload": {}, "quick_baseline": dict(payload)}
    if gated is not None:
        doc["quick_baseline"]["gated_points"] = gated
    path = tmp_path / "BENCH_stub.json"
    path.write_text(json.dumps(doc))
    return path


def run_gate(gate, tmp_path, fresh, baseline, tolerance=0.25, inject=1.0):
    run, extract = make_bench(gate, fresh)
    gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
    write_baseline(tmp_path, baseline)
    return gate.check(tmp_path, tolerance, inject, repeats=2)


class TestGate:
    def test_identical_passes(self, gate, tmp_path):
        p = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, p, p) == 0

    def test_within_tolerance_passes(self, gate, tmp_path):
        fresh = {"speedup": 3.2, "bytes": 1200}
        base = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, fresh, base) == 0

    def test_speedup_regression_fails(self, gate, tmp_path):
        fresh = {"speedup": 2.9, "bytes": 1000}
        base = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, fresh, base) == 1

    def test_bytes_regression_fails(self, gate, tmp_path):
        fresh = {"speedup": 4.0, "bytes": 1300}
        base = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, fresh, base) == 1

    def test_improvements_pass(self, gate, tmp_path):
        fresh = {"speedup": 9.0, "bytes": 10}
        base = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, fresh, base) == 0

    def test_injected_slowdown_trips_gate(self, gate, tmp_path):
        # The self-test knob: identical numbers must fail once a simulated
        # slowdown beyond the tolerance is injected into timing metrics.
        p = {"speedup": 4.0, "bytes": 1000}
        assert run_gate(gate, tmp_path, p, p, inject=1.5) == 1
        assert run_gate(gate, tmp_path, p, p, inject=1.1) == 0

    def test_inject_spares_non_timing_metrics(self, gate, tmp_path):
        # bytes is not a timing metric: a huge injected slowdown alone
        # must not flag it, so failures come from the speedup point only.
        fresh = {"speedup": 4.0, "bytes": 1000}
        run, extract = make_bench(gate, fresh)
        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
        write_baseline(tmp_path, fresh)
        assert gate.check(tmp_path, 0.25, 10.0, repeats=1) == 1

    def test_missing_baseline_errors(self, gate, tmp_path):
        run, extract = make_bench(gate, {"speedup": 1.0, "bytes": 1})
        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 2

    def test_missing_quick_section_errors(self, gate, tmp_path):
        run, extract = make_bench(gate, {"speedup": 1.0, "bytes": 1})
        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
        (tmp_path / "BENCH_stub.json").write_text(json.dumps({"workload": {}}))
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 2

    def test_gated_points_override_payload(self, gate, tmp_path):
        # The stamped best-of-N envelope, not the raw payload value, is
        # what the gate holds fresh runs against.
        fresh = {"speedup": 4.0, "bytes": 1000}
        run, extract = make_bench(gate, fresh)
        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
        write_baseline(
            tmp_path,
            {"speedup": 1.0, "bytes": 1000},
            gated={"speedup": 8.0},
        )
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 1

    def test_new_point_is_not_a_failure(self, gate, tmp_path):
        fresh = {"speedup": 4.0, "bytes": 1000}
        run, _ = make_bench(gate, fresh)

        def extract_more(p):
            return [
                gate.Point("speedup", p["speedup"], "higher", True),
                gate.Point("brand-new", 1.0, "higher", True),
            ]

        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract_more, False)}
        doc = {
            "quick_baseline": {
                "speedup": 4.0,
                "bytes": 1000,
                "gated_points": {"speedup": 4.0},
            }
        }
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(doc))
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 0


def run_deterministic(gate, tmp_path, fresh, deterministic=True, inject=1.0):
    """Gate ``fresh`` against a fixed baseline at the default 25% tolerance."""
    run, extract = make_bench(gate, fresh)
    gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, deterministic)}
    write_baseline(tmp_path, {"speedup": 4.0, "bytes": 1000})
    return gate.check(tmp_path, 0.25, inject, repeats=1)


class TestDeterministicGate:
    """A deterministic bench's points are pure functions of the code, so it
    fails any regression beyond float noise, whatever --tolerance says."""

    @pytest.mark.parametrize("fresh", [
        {"speedup": 3.96, "bytes": 1000},
        {"speedup": 4.0, "bytes": 1010},
    ])
    def test_one_percent_worse_fails(self, gate, tmp_path, fresh):
        assert run_deterministic(gate, tmp_path, fresh) == 1
        # The same drift is inside a timing bench's tolerance.
        assert run_deterministic(gate, tmp_path, fresh,
                                 deterministic=False) == 0

    @pytest.mark.parametrize("fresh", [
        {"speedup": 4.0, "bytes": 1000},
        {"speedup": 4.04, "bytes": 990},
    ])
    def test_identical_or_better_passes(self, gate, tmp_path, fresh):
        assert run_deterministic(gate, tmp_path, fresh) == 0

    def test_inject_trips_at_any_slowdown(self, gate, tmp_path):
        # --inject still scales the timing-flagged points, which an exact
        # bound flags at any factor above 1.
        p = {"speedup": 4.0, "bytes": 1000}
        assert run_deterministic(gate, tmp_path, p, inject=1.01) == 1


class TestOnlySelection:
    def test_only_restricts_benches(self, gate, tmp_path):
        # Two stub benches, one of them failing; --only the healthy one
        # must pass, --only the broken one (or no selection) must fail.
        good = {"speedup": 4.0, "bytes": 1000}
        bad = {"speedup": 1.0, "bytes": 1000}
        run_good, extract = make_bench(gate, good)
        run_bad, _ = make_bench(gate, bad)
        gate.BENCHES = {
            "good": ("BENCH_good.json", run_good, extract, False),
            "bad": ("BENCH_bad.json", run_bad, extract, False),
        }
        for name in ("good", "bad"):
            doc = {"workload": {}, "quick_baseline": dict(good)}
            (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(doc))
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1, only=["good"]) == 0
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1, only=["bad"]) == 1
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 1

    def test_only_restricts_update(self, gate, tmp_path):
        payload = {"speedup": 4.0, "bytes": 1000}
        run, extract = make_bench(gate, payload)
        gate.BENCHES = {
            "a": ("BENCH_a.json", run, extract, True),
            "b": ("BENCH_b.json", run, extract, True),
        }
        for name in ("a", "b"):
            (tmp_path / f"BENCH_{name}.json").write_text(
                json.dumps({"workload": {}}))
        assert gate.update_baselines(tmp_path, repeats=1, only=["a"]) == 0
        assert "quick_baseline" in json.loads(
            (tmp_path / "BENCH_a.json").read_text())
        assert "quick_baseline" not in json.loads(
            (tmp_path / "BENCH_b.json").read_text())

    def test_only_point_restamps_that_point(self, gate, tmp_path):
        # bench:point moves one gated value and keeps the committed payload
        # and every other point; the gate then holds fresh runs to it.
        run, extract = make_bench(gate, {"speedup": 2.0, "bytes": 500})
        gate.BENCHES = {"stub": ("BENCH_stub.json", run, extract, False)}
        path = write_baseline(tmp_path, {"speedup": 4.0, "bytes": 1000},
                              gated={"speedup": 4.0, "bytes": 1000})
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 1
        assert gate.update_baselines(tmp_path, repeats=1,
                                     only=["stub:speedup"]) == 0
        doc = json.loads(path.read_text())["quick_baseline"]
        assert doc["gated_points"] == {"speedup": 2.0, "bytes": 1000}
        assert doc["speedup"] == 4.0
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1) == 0
        assert gate.check(tmp_path, 0.25, 1.0, repeats=1,
                          only=["stub:bytes"]) == 0
        with pytest.raises(SystemExit):
            gate.update_baselines(tmp_path, repeats=1, only=["stub:typo"])
        with pytest.raises(SystemExit):
            gate.check(tmp_path, 0.25, 1.0, repeats=1, only=["nope"])


class TestBestPoints:
    def test_envelope_takes_best_per_direction(self, gate):
        seq = iter([3.0, 5.0, 4.0])

        def run():
            return {"v": next(seq)}

        def extract(p):
            return [
                gate.Point("hi", p["v"], "higher", True),
                gate.Point("lo", p["v"], "lower", True),
            ]

        best = gate._best_points(run, extract, 3)
        assert best["hi"].value == 5.0
        assert best["lo"].value == 3.0


class TestProbePoints:
    def test_probe_points_gate_absolute_kernel_speed(self, gate):
        # Every hybrid point, every batched serve point and the exec
        # single-shard row carry a lower-is-better timing point next to
        # their ratios.
        hybrid = {"grid": [
            {"B": B, "alpha": 8.0, "speedup_vs_allpull_same_B": 1.5,
             "kernel_over_probe": 40.0 * B}
            for B in (1, 4)]}
        serve = {"grid": [
            {"rate": "inf", "B": B, "speedup_vs_per_query": 2.0,
             "kernel_over_probe": 9.0}
            for B in (1, 8)]}
        exec_ = {"workers": [
            {"workers": 1, "speedup_critical_path": 1.0,
             "kernel_over_probe": 30.0},
            {"workers": 2, "speedup_critical_path": 1.8}]}
        points = (gate._extract_mshybrid(hybrid) + gate._extract_serve(serve)
                  + gate._extract_exec(exec_))
        probes = [p for p in points if p.name.endswith("kernel_over_probe")]
        assert [p.name for p in probes] == [
            "B=1,alpha=8.kernel_over_probe", "B=4,alpha=8.kernel_over_probe",
            "rate=inf,B=8.kernel_over_probe", "W=1.kernel_over_probe"]
        assert all(p.direction == "lower" and p.timing for p in probes)


class TestListFlag:
    def test_list_prints_registered_gates(self, gate, capsys):
        # --list shows every registered gate without running any sweep.
        rc = gate.main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name, (fname, _run, _extract, _det) in gate.BENCHES.items():
            assert name in out
            assert fname in out

    def test_list_marks_determinism(self, gate, capsys):
        run, extract = make_bench(gate, {"speedup": 4.0, "bytes": 1000})
        gate.BENCHES = {
            "det": ("BENCH_det.json", run, extract, True),
            "timed": ("BENCH_timed.json", run, extract, False),
        }
        assert gate.main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        kinds = {ln.split()[0]: ln.split()[-1] for ln in lines if ln}
        assert kinds["det"] == "deterministic"
        assert kinds["timed"] == "timing"

    def test_list_skips_the_gate_run(self, gate, capsys, tmp_path):
        # No baseline files exist, which would make check() exit 2 — but
        # --list must short-circuit before any sweep or baseline read.
        gate.BENCHES = {"ghost": ("BENCH_ghost.json", None, None, True)}
        assert gate.main(["--list"]) == 0
        assert "ghost" in capsys.readouterr().out
