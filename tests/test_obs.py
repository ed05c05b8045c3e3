"""Observability: tracer, metrics registry, exporters, span-tree invariants.

The load-bearing properties:

* :func:`repro.obs.metrics.percentile` is *exactly* ``numpy.percentile``
  (the serve stats / workload report / planner expressions it replaced
  must stay bit-identical);
* span trees built by a tracing :class:`~repro.serve.server.Server` are
  well-formed under any interleaving — one ``serve.query`` root per
  submitted ticket, children nested within parent bounds, coalesced
  waiters linked to the primary's kernel span (hypothesis);
* both exporters round-trip: JSONL losslessly, Chrome trace-event up to
  the documented re-basing of absolute timestamps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import path_graph, star_graph

from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.formats.slimsell import SlimSell
from repro.graphs.kronecker import kronecker
from repro.obs.export import (
    chrome_trace_events,
    load_trace,
    read_chrome_trace,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _P2Quantile,
    owner_view,
    percentile,
)
from repro.obs.trace import Span, Tracer
from repro.serve.server import Server

SETTINGS = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

EPS = 1e-9


# ----------------------------------------------------------------------
class TestPercentile:
    @pytest.mark.parametrize("p", [0, 25, 50, 90, 95, 99, 100])
    def test_exact_against_numpy(self, p):
        rng = np.random.default_rng(7)
        for size in (1, 2, 5, 100, 1001):
            x = rng.exponential(3.0, size=size)
            assert percentile(x, p) == float(np.percentile(x, p))

    def test_accepts_lists_and_ints(self):
        vals = [5, 1, 4, 1, 3]
        assert percentile(vals, 50) == float(np.percentile(vals, 50))
        assert isinstance(percentile(vals, 50), float)

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0
        assert percentile(np.array([]), 50) == 0.0


# ----------------------------------------------------------------------
class TestTracer:
    def test_begin_end_record(self):
        tr = Tracer()
        root = tr.begin("a", t=1.0, k=7)
        child = tr.begin("b", parent=root, t=2.0)
        tr.end(child, t=3.0)
        tr.end(root, t=4.0, status="done")
        rec = tr.record("c", 1.5, 1.75, parent=root)
        assert root.is_root and not child.is_root
        assert child.trace_id == root.trace_id == rec.trace_id
        assert root.attrs == {"k": 7, "status": "done"}
        assert root.duration_s == 3.0
        assert tr.roots() == [root]
        assert tr.children(root) == [child, rec]
        assert tr.by_id(child.span_id) is child
        assert tr.by_id(10**9) is None

    def test_double_end_raises(self):
        tr = Tracer()
        s = tr.begin("a", t=0.0)
        tr.end(s, t=1.0)
        with pytest.raises(ValueError, match="already ended"):
            tr.end(s, t=2.0)

    def test_distinct_roots_get_distinct_traces(self):
        tr = Tracer()
        a, b = tr.begin("a", t=0.0), tr.begin("b", t=0.0)
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_injectable_clock(self):
        ticks = iter([10.0, 11.5])
        tr = Tracer(clock=lambda: next(ticks))
        with tr.span("work") as s:
            pass
        assert (s.t_start, s.t_end) == (10.0, 11.5)

    def test_explicit_t_never_reads_clock(self):
        def boom():
            raise AssertionError("clock consulted")

        tr = Tracer(clock=boom)
        s = tr.begin("a", t=0.0)
        tr.end(s, t=1.0)
        tr.record("b", 0.0, 0.5)

    def test_open_span_duration_zero(self):
        tr = Tracer()
        s = tr.begin("a", t=3.0)
        assert s.duration_s == 0.0

    def test_clear_keeps_id_counters(self):
        tr = Tracer()
        a = tr.begin("a", t=0.0)
        tr.clear()
        b = tr.begin("b", t=0.0)
        assert tr.spans == [b]
        assert b.span_id > a.span_id

    def test_span_dict_roundtrip(self):
        s = Span(
            name="x",
            span_id=3,
            trace_id=2,
            parent_id=1,
            t_start=0.5,
            t_end=1.5,
            attrs={"w": 4},
        )
        assert Span.from_dict(s.to_dict()) == s
        o = Span(name="y", span_id=4, trace_id=2, parent_id=None, t_start=2.0)
        assert Span.from_dict(o.to_dict()) == o


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_stays_int(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5 and isinstance(c.value, int)

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(2)
        g.set(7.5)
        assert g.value == 7.5

    def test_p2_exact_below_six_samples(self):
        est = _P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value == float(np.percentile([5.0, 1.0, 3.0], 50))

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_p2_tracks_uniform_quantiles(self, q):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, size=5000)
        est = _P2Quantile(q)
        for v in x:
            est.observe(float(v))
        exact = float(np.percentile(x, 100 * q))
        assert est.value == pytest.approx(exact, abs=0.03)

    def test_histogram_moments_and_snapshot(self):
        h = Histogram("lat", quantiles=(0.5,))
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3.0
        assert snap["sum"] == 6.0
        assert snap["mean"] == 2.0
        assert (snap["min"], snap["max"]) == (1.0, 3.0)
        assert snap["p50"] == 2.0
        assert Histogram("e").snapshot()["min"] == 0.0

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        reg.counter("a").inc(3)
        assert reg.value("a") == 3
        assert "a" in reg and "b" not in reg

    def test_registry_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("a")

    def test_view_shadowing_rejected_both_ways(self):
        reg = MetricsRegistry()
        reg.register_view("v", lambda: 1)
        with pytest.raises(TypeError, match="view"):
            reg.counter("v")
        reg.counter("c")
        with pytest.raises(TypeError, match="concrete"):
            reg.register_view("c", lambda: 2)

    def test_view_reregister_replaces(self):
        reg = MetricsRegistry()
        reg.register_view("v", lambda: 1)
        reg.register_view("v", lambda: 2)
        assert reg.value("v") == 2

    def test_owner_view_holds_owner_weakly(self):
        class Owner:
            def __init__(self):
                self.registry = MetricsRegistry()
                self.n = 3
                self.registry.register_view("n", owner_view(self, lambda o: o.n))

        owner = Owner()
        reg = owner.registry
        assert reg.value("n") == 3
        del owner  # no cycle: freed by reference counting alone
        assert reg.value("n") is None

    def test_snapshot_evaluates_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(0.5)
        reg.histogram("h").observe(1.0)
        reg.register_view("v", lambda: "ok")
        snap = reg.snapshot()
        assert snap["a"] == 1 and snap["b"] == 0.5 and snap["v"] == "ok"
        assert snap["h"]["count"] == 1.0
        assert reg.names() == ["a", "b", "h", "v"]
        assert len(reg) == 4
        with pytest.raises(KeyError):
            reg.value("missing")


# ----------------------------------------------------------------------
def _sample_trace() -> Tracer:
    tr = Tracer()
    root = tr.begin("serve.query", t=0.0, root=3)
    k = tr.record("serve.kernel", 0.5, 2.0, parent=root, track="server")
    tr.record("bfs.layer", 0.5, 1.0, parent=k, k=0, width=np.int64(2))
    tr.end(root, t=2.0, status="served")
    tr.begin("open.span", t=1.0)  # deliberately left open
    return tr


def _plain_attrs(span: Span) -> dict:
    d = span.to_dict()
    d["attrs"] = {
        k: int(v) if isinstance(v, np.integer) else v
        for k, v in d["attrs"].items()
    }
    return d


class TestExport:
    def test_jsonl_roundtrip_lossless(self, tmp_path):
        tr = _sample_trace()
        path = str(tmp_path / "t.jsonl")
        assert write_jsonl(tr.spans, path) == len(tr.spans)
        back = read_jsonl(path)
        # numpy attrs come back as plain Python scalars.
        assert [s.to_dict() for s in back] == [_plain_attrs(s) for s in tr.spans]

    def test_chrome_roundtrip_preserves_structure(self, tmp_path):
        tr = _sample_trace()
        path = str(tmp_path / "t.json")
        n = write_chrome_trace(tr.spans, path)
        assert n == len(tr.spans)
        back = read_chrome_trace(path)
        assert [s.name for s in back] == [s.name for s in tr.spans]
        assert [s.span_id for s in back] == [s.span_id for s in tr.spans]
        assert [s.parent_id for s in back] == [s.parent_id for s in tr.spans]
        for orig, got in zip(tr.spans, back):
            if orig.t_end is None:
                assert got.t_end is None
            else:
                assert got.duration_s == pytest.approx(orig.duration_s, abs=1e-9)

    def test_chrome_events_tracks_and_open_flag(self):
        events = chrome_trace_events(_sample_trace().spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} >= {"server"}
        open_ev = [e for e in events if e["ph"] == "X" and e["args"].get("open")]
        assert len(open_ev) == 1 and open_ev[0]["dur"] == 0.0
        assert chrome_trace_events([]) == []

    def test_load_trace_sniffs_both_formats(self, tmp_path):
        tr = _sample_trace()
        jsonl, chrome = str(tmp_path / "a.jsonl"), str(tmp_path / "b.json")
        write_jsonl(tr.spans, jsonl)
        write_chrome_trace(tr.spans, chrome)
        names = [s.name for s in tr.spans]
        assert [s.name for s in load_trace(jsonl)] == names
        assert [s.name for s in load_trace(chrome)] == names

    def test_summarize(self):
        s = summarize(_sample_trace().spans)
        assert s["spans"] == 4 and s["open"] == 1
        assert s["roots"] == 2 and s["traces"] == 2
        assert s["names"]["serve.kernel"]["count"] == 1
        assert s["names"]["serve.kernel"]["total_s"] == pytest.approx(1.5)
        assert "open.span" not in s["names"]


# ----------------------------------------------------------------------
def _traced_server(max_batch: int = 4, cache_size: int = 64) -> Server:
    return Server(
        path_graph(16),
        max_batch=max_batch,
        max_wait=2e-3,
        cache_size=cache_size,
        service_model=lambda roots: 1e-3 + 1e-4 * roots.size,
        tracer=Tracer(),
    )


def _drive(server: Server, roots, gap: float = 5e-4) -> list:
    now, tickets = 0.0, []
    for r in roots:
        tickets.append(server.submit(int(r), now=now))
        now += gap
    server.drain(now=now)
    return tickets


class TestSpanTreeInvariants:
    @given(
        roots=st.lists(st.integers(0, 15), min_size=1, max_size=30),
        max_batch=st.integers(1, 8),
        cache_size=st.sampled_from([0, 64]),
    )
    @settings(**SETTINGS)
    def test_wellformed_under_any_interleaving(self, roots, max_batch, cache_size):
        srv = _traced_server(max_batch=max_batch, cache_size=cache_size)
        tickets = _drive(srv, roots)
        spans = srv.tracer.spans
        byid = {s.span_id: s for s in spans}

        # One serve.query root span per submitted ticket, all closed.
        qspans = [s for s in spans if s.name == "serve.query"]
        assert len(qspans) == len(tickets) == srv.stats.submitted
        assert all(s.parent_id is None for s in qspans)
        assert all(s.t_end is not None for s in spans)

        # Children nest within their parent's bounds.
        for s in spans:
            if s.parent_id is None:
                continue
            parent = byid[s.parent_id]
            assert s.t_start >= parent.t_start - EPS
            assert s.t_end <= parent.t_end + EPS

        # Root spans start at submit time and span exactly the reported
        # latency (both clocks are virtual here).
        for ticket, span in zip(tickets, qspans):
            qr = ticket.result()
            assert qr.span is span
            assert span.t_start == ticket.submitted_at
            if qr.status == "served":
                assert span.duration_s == qr.latency_s

    @given(roots=st.lists(st.integers(0, 15), min_size=2, max_size=24))
    @settings(**SETTINGS)
    def test_coalesced_waiters_share_kernel_span(self, roots):
        srv = _traced_server(max_batch=4, cache_size=0)
        _drive(srv, roots)
        spans = srv.tracer.spans
        byid = {s.span_id: s for s in spans}
        served = [
            s
            for s in spans
            if s.name == "serve.query" and "kernel_span" in s.attrs
        ]
        # Every kernel-path answer links to a real serve.kernel span.
        for s in served:
            ks = s.attrs["kernel_span"]
            if ks is not None:
                assert byid[ks].name == "serve.kernel"
        # Queries for one root resolved at one completion shared one
        # traversal: primary and MSHR waiters cite the same kernel span.
        groups: dict[tuple, set] = {}
        for s in served:
            key = (s.attrs["root"], s.t_end)
            groups.setdefault(key, set()).add(s.attrs["kernel_span"])
        assert all(len(ks) == 1 for ks in groups.values())
        # And mshr_hit waiters exist iff a duplicate was in flight.
        waiters = [s for s in served if s.attrs.get("mshr_hit")]
        assert len(waiters) == srv.stats.mshr_hits

    def test_mshr_waiter_links_to_primary_kernel(self):
        srv = _traced_server(max_batch=4)
        t1 = srv.submit(3, now=0.0)
        t2 = srv.submit(3, now=1e-4)  # duplicate: attaches to the miss
        srv.drain(now=1e-3)
        s1, s2 = t1.result().span, t2.result().span
        assert srv.stats.mshr_hits == 1
        assert s2.attrs["mshr_hit"] is True
        assert s2.attrs["kernel_span"] == s1.attrs["kernel_span"]
        attach = [s for s in srv.tracer.spans if s.name == "serve.mshr.attach"]
        assert len(attach) == 1 and attach[0].parent_id == s2.span_id

    def test_cache_hit_span_closes_at_submit(self):
        srv = _traced_server()
        _drive(srv, [5])
        t = srv.submit(5, now=1.0)
        span = t.result().span
        assert span.attrs.get("cache_hit") is True
        assert span.duration_s == 0.0
        names = {s.name for s in srv.tracer.children(span)}
        assert names == {"serve.cache.hit"}

    def test_engine_layer_spans_nest_in_kernel_window(self):
        srv = _traced_server()
        _drive(srv, [0, 7, 13])
        spans = srv.tracer.spans
        byid = {s.span_id: s for s in spans}
        layers = [s for s in spans if s.name == "bfs.layer"]
        assert layers, "traced serve run produced no engine layer spans"
        for s in layers:
            k = byid[s.parent_id]
            assert k.name == "serve.kernel"
            assert s.t_start >= k.t_start - 1e-6
            assert s.t_end <= k.t_end + 1e-6
            assert s.trace_id == k.trace_id

    def test_disabled_tracer_is_bit_identical(self):
        runs = []
        for tracer in (None, Tracer()):
            srv = Server(
                star_graph(32),
                max_batch=4,
                cache_size=64,
                service_model=lambda roots: 1e-3 + 1e-4 * roots.size,
                tracer=tracer,
            )
            tickets = _drive(srv, [0, 5, 5, 9, 0, 21, 5])
            statuses = [t.result().status for t in tickets]
            latencies = [t.result().latency_s for t in tickets]
            runs.append((srv.stats.summary(), statuses, latencies))
        assert runs[0] == runs[1]


class TestEngineLayerSpans:
    def test_hybrid_layer_span_attributes(self):
        # A hub root and a low-degree root: the first iteration pushes in
        # both columns, later ones pull in one or both.
        g = kronecker(10, 16, seed=1)
        rep = SlimSell(g, 8, g.n)
        eng = MultiSourceHybridBFS(rep, "tropical")
        eng.tracer = Tracer()
        results = eng.run([int(np.argmax(g.degrees)), 0])
        layers = [s for s in eng.tracer.spans if s.name == "bfs.layer"]
        assert len(layers) == max(len(r.iterations) for r in results)
        assert [s.attrs["k"] for s in layers] == list(range(1, len(layers) + 1))
        base = {"k", "width", "pull", "push", "settled"}
        sweep = {"column_layers", "live_chunk_layers"}
        kinds = set()
        for s in layers:
            assert s.parent_id is None and s.t_end is not None
            assert s.attrs["pull"] + s.attrs["push"] == s.attrs["width"]
            if s.attrs["pull"]:
                assert set(s.attrs) == base | sweep
                assert s.attrs["live_chunk_layers"] >= s.attrs["column_layers"]
            else:
                assert set(s.attrs) == base
            kinds.add(bool(s.attrs["pull"]))
        assert kinds == {True, False}  # push-only and pull iterations both
