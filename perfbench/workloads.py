"""The four workloads: set-up, seeded inputs, timed passes and checks.

Every workload runs on one Kronecker graph (Graph500 initiator, edgefactor
16, fixed generation seed) so that runs with different ``--seed`` values
differ only in the inputs the program receives: Graph500-sampled roots, a
Zipf root stream and Poisson arrival times.

Work is measured in *passes*.  A pass is a fixed amount of work derived from
the seed (64 roots, one 64-wide batch, or one query stream on a fresh
server), so every count taken over a pass repeats exactly; a run repeats
passes until its time is used, and timings are aggregated over all of them.
Correctness is checked after each pass, outside its timed window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.bfs.spmv import BFSSpMV
from repro.exec.engine import ExecMultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.graph500 import ValidationError, sample_roots, validate_bfs_tree
from repro.graphs.kronecker import kronecker
from repro.obs.metrics import percentile
from repro.serve.server import Server
from repro.serve.workload import poisson_arrivals, sample_zipf_roots

from stats import component_edges, hmean, tail, tail_or_nan

#: Generation seed of the benchmark graph (``run_graph500``'s default).
GRAPH_SEED = 1
EDGEFACTOR = 16
SEMIRING = "sel-max"
#: Graph500 roots per pass.
NROOTS = 64
#: serve-hot: hot roots (the server's default batch width), Zipf exponent,
#: and virtual arrival rate in queries per second.
HOT_SET = 16
ZIPF_S = 1.1
HOT_RATE = 2e4


@dataclass(frozen=True)
class Config:
    """Sizes of the workloads; the defaults are the benchmark's.

    Scale 14 (the ROADMAP's profiling scale) keeps a g500-b1 pass of 64
    roots near 7 s on two vCPUs, so a 30 s run times every root three or
    more times; at scale 15 it holds two passes.
    """

    scale: int = 14
    hot_queries: int = 100_000
    setup_repeats: int = 3
    sample_checks: int = 4


def giant_component(graph) -> np.ndarray:
    """Boolean mask of the largest connected component."""
    a = csr_matrix((np.ones(graph.indices.size, dtype=np.int8),
                    graph.indices, graph.indptr), shape=(graph.n, graph.n))
    _, label = connected_components(a, directed=False)
    return label == np.bincount(label).argmax()


def graph500_roots(graph, giant: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The first ``k`` Graph500-sampled roots that lie in the giant component.

    A root in a two-vertex component traverses one edge, and its TEPS alone
    would set the harmonic mean; at scale 15 about one seed in twenty draws
    one.  Keeping ``sample_roots``' order and skipping such roots holds the
    headline figure to the traversal it is meant to measure.
    """
    cand = sample_roots(graph, 4 * k, seed)
    roots = cand[giant[cand]][:k]
    if roots.size < k:
        raise ValueError(f"only {roots.size} giant-component roots sampled")
    return roots


def make_inputs(graph, giant: np.ndarray, seed: int, cfg: Config) -> dict:
    """Every generated input of every workload, from ``seed`` alone.

    The hot set is part of the workload, like the graph: one straggler root
    adds an iteration to the whole 16-wide batch, so a per-seed set would
    make the kernel figures bimodal.  The seed orders its popularity.
    """
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(5)]
    hot = graph500_roots(graph, giant, HOT_SET, GRAPH_SEED)
    stream = sample_zipf_roots(hot, cfg.hot_queries, ZIPF_S, seed=s[2])
    arrivals = poisson_arrivals(cfg.hot_queries, HOT_RATE, seed=s[3])
    return {
        "roots": graph500_roots(graph, giant, NROOTS, s[0]),
        "hot_set": hot,
        # The hot set once at t=0, then the Zipf stream over it.
        "hot_roots": np.concatenate([hot, stream]),
        "hot_arrivals": np.concatenate([np.zeros(hot.size), arrivals]),
        "check_seed": s[4],
    }


def same_tree(a, b) -> bool:
    """Bit-identical distances and parents."""
    return np.array_equal(a.dist, b.dist) and np.array_equal(a.parent, b.parent)


def result_counts(results) -> dict[str, float]:
    """Kernel counts read from the ``BFSResult`` iteration logs."""
    iters = [it for r in results for it in r.iterations]
    proc = sum(it.chunks_processed for it in iters)
    chunks = proc + sum(it.chunks_skipped for it in iters)
    return {"bfs.iterations": len(iters),
            "bfs.work_lanes": sum(it.work_lanes for it in iters),
            "bfs.active_chunk_share": proc / chunks if chunks else 0.0}


class Workload:
    """Base: graph + SlimSell set-up, inputs, and the pass loop contract.

    Subclasses set ``name``/``purpose`` and implement ``warm``,
    ``run_pass``, ``verify``, ``end_to_end`` and ``layer_metrics``.
    ``purpose`` names the per-layer metric whose share of the pass wall time
    must exceed one half for the workload to stress what it claims to.
    An untraced run makes at least ``min_passes`` passes.
    """

    name = ""
    purpose = ""
    min_passes = 1

    def __init__(self, cfg: Config, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.inputs = None
        self.graph = self.rep = None

    def setup(self) -> dict[str, float]:
        """Build graph and representation, warm up; phase times in seconds."""
        t0 = time.perf_counter()
        graph = kronecker(self.cfg.scale, EDGEFACTOR, seed=GRAPH_SEED)
        t1 = time.perf_counter()
        rep = SlimSell(graph, 16, graph.n)
        t2 = time.perf_counter()
        self.graph, self.rep = graph, rep
        if self.inputs is None:  # input generation is not set-up work
            self.inputs = make_inputs(graph, giant_component(graph), self.seed,
                                      self.cfg)
        t3 = time.perf_counter()
        self.warm()
        t4 = time.perf_counter()
        return {"graphs.kronecker_s": t1 - t0,
                "formats.slimsell_build_s": t2 - t1,
                "setup.warmup_s": t4 - t3,
                "setup_s": (t2 - t0) + (t4 - t3)}

    def edges(self, res) -> int:
        return component_edges(self.graph.degrees, res.dist)

    def warm(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict:
        raise NotImplementedError

    def verify(self, rec: dict) -> tuple[int, int]:
        """Check one pass's answers outside its timed window and drop what
        later passes do not need; ``(attempted, failed)`` operations."""
        raise NotImplementedError

    def end_to_end(self, recs: list[dict]) -> tuple[dict, dict]:
        """``(gated end-to-end metrics, reported-only extras)``."""
        raise NotImplementedError

    def layer_metrics(self, rec: dict) -> dict[str, float]:
        """Per-layer figures of one traced pass read from its results."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Graph500B1(Workload):
    name = "g500-b1"
    purpose = "bfs.run_s"
    min_passes = 3  # a root's median then drops one outlying sample

    def warm(self) -> None:
        self.engine = BFSSpMV(self.rep, SEMIRING, slimwork=True)
        self.engine.run(int(self.inputs["roots"][0]))
        self.first = None

    def run_pass(self) -> dict:
        engine, roots = self.engine, self.inputs["roots"]
        times = np.empty(roots.size)
        results = []
        t_pass = time.perf_counter()
        for i, root in enumerate(roots.tolist()):
            t0 = time.perf_counter()
            results.append(engine.run(root))
            times[i] = time.perf_counter() - t0
        return {"wall_s": time.perf_counter() - t_pass, "times": times,
                "results": results}

    def verify(self, rec: dict) -> tuple[int, int]:
        failed = 0
        if self.first is None:
            for res in rec["results"]:
                try:
                    validate_bfs_tree(self.graph, res)
                except ValidationError:
                    failed += 1
            self.first = rec["results"]
            self.edge_counts = np.array([self.edges(r) for r in self.first])
        else:
            failed = sum(not same_tree(a, b)
                         for a, b in zip(self.first, rec["results"]))
        return len(rec.pop("results")), failed

    def end_to_end(self, recs):
        # Each root's time is its median over the run's three or more
        # passes.  The machine's speed wanders by a fifth or more, either
        # way, in spells of seconds: a spell shorter than a pass touches
        # one of a root's samples, which the median drops, where a best
        # pass or a pooled p80 follows it.
        per_root = np.median([r["times"] for r in recs], axis=0)
        lat = {"teps_hmean": hmean(self.edge_counts / per_root),
               "latency_ms_p50": percentile(per_root, 50) * 1e3,
               "latency_ms_tail": tail(per_root, 80) * 1e3,
               "wall_qps": per_root.size * len(recs)
               / sum(r["wall_s"] for r in recs)}
        extras = {"traversal_ms_p50": lat["latency_ms_p50"],
                  "traversal_ms_p80": lat["latency_ms_tail"]}
        return lat, extras

    def layer_metrics(self, rec):
        return result_counts(rec["results"])


class Graph500Exec(Workload):
    name = "g500-b64-exec2"
    purpose = "exec.run_layer_s"

    def warm(self) -> None:
        self.close()
        # Full width: a narrower first run would re-fork the pool later.
        self.engine = ExecMultiSourceBFS(
            self.rep, SEMIRING, workers=2, backend="process", slimwork=True)
        self.engine.run(self.inputs["roots"])
        self.reference = None

    def run_pass(self) -> dict:
        self.engine.reset_profile()
        t0 = time.perf_counter()
        results = self.engine.run(self.inputs["roots"])
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "results": results,
                "profile": self.engine.layer_profile}

    def verify(self, rec: dict) -> tuple[int, int]:
        if self.reference is None:
            single = MultiSourceBFS(self.rep, SEMIRING, slimwork=True)
            t0 = time.perf_counter()
            self.reference = single.run(self.inputs["roots"])
            self.single_s = time.perf_counter() - t0
            self.edge_counts = np.array([self.edges(r)
                                         for r in self.reference])
        failed = sum(not same_tree(a, b)
                     for a, b in zip(self.reference, rec["results"]))
        return len(rec.pop("results")), failed

    def end_to_end(self, recs):
        walls = np.array([r["wall_s"] for r in recs])
        width = self.edge_counts.size
        per_root = float(np.median(walls)) / width  # run_graph500's batch rule
        lat = {"teps_hmean": hmean(self.edge_counts / per_root),
               "latency_ms_p50": float(np.median(walls)) * 1e3,
               # Every root of a batch is answered when the batch returns.
               "latency_ms_tail": tail(np.repeat(walls, width), 80) * 1e3,
               "wall_qps": width / float(np.median(walls))}
        return lat, {}

    def layer_metrics(self, rec):
        prof = rec["profile"]
        crit = sum(p.t_local_s for p in prof)
        compute = sum(p.t_compute_total_s for p in prof)
        out = result_counts(rec["results"])
        out.update({
            "exec.critical_path_s": crit,
            "exec.compute_s": compute,
            "exec.idle_s": sum(p.t_idle_total_s for p in prof),
            "exec.exchange_s": sum(p.t_exchange_s for p in prof),
            "exec.exchanged_bytes": sum(p.exchanged_bytes for p in prof),
            "exec.imbalance": crit * self.engine.workers / compute,
            "exec.speedup_vs_single": self.single_s / rec["wall_s"],
        })
        return out

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None


class ServeHot(Workload):
    """Open loop of Poisson arrivals on the server's virtual clock.

    Each pass starts a fresh server with one burst of the 16 hot roots at
    t=0 (one 16-wide batch), then the Zipf stream over them: the queries
    that follow are cache hits or attach to the in-flight batch.
    """

    name = "serve-hot"
    purpose = "serve.overhead_s"

    def warm(self) -> None:
        # Memoize the representation's operands at the server's full width.
        MultiSourceHybridBFS(self.rep, SEMIRING).run(self.inputs["hot_set"])
        self.reference = {}
        self.passes = 0

    def run_pass(self) -> dict:
        roots = self.inputs["hot_roots"]
        arrivals = self.inputs["hot_arrivals"]
        rng = np.random.default_rng([self.inputs["check_seed"], self.passes])
        self.passes += 1
        sample = set(rng.choice(roots.size, self.cfg.sample_checks,
                                replace=False).tolist())
        server = Server(self.rep)
        submit_s = np.empty(roots.size)
        kept, checked = [], []
        t_pass = time.perf_counter()
        for i, (root, t) in enumerate(zip(roots.tolist(), arrivals.tolist())):
            due = server.batcher.next_deadline()
            while due is not None and due <= t:
                server.poll(now=due)
                due = server.batcher.next_deadline()
            t0 = time.perf_counter()
            tk = server.submit(root, now=t)
            submit_s[i] = time.perf_counter() - t0
            if not tk.done or not tk.result().cache_hit:
                kept.append(tk)
            if i in sample:
                checked.append(tk)
        end = float(arrivals[-1])
        due = server.batcher.next_deadline()
        while due is not None:
            server.poll(now=due)
            end = max(end, due)
            due = server.batcher.next_deadline()
        server.drain(now=end)
        wall = time.perf_counter() - t_pass
        st = server.stats
        traversals = {id(qr.bfs): qr.bfs
                      for qr in (tk.result() for tk in kept)
                      if qr.status == "served"}
        # Plain numbers only: the stats' registry views keep the server,
        # and with it the result cache, alive.
        return {"wall_s": wall, "submit_s": submit_s,
                "latencies": np.asarray(st.latencies),
                "traversals": list(traversals.values()),
                "checked": checked,
                "submitted": st.submitted,
                "failed": st.rejected + st.timeouts + st.failed,
                "cache_hits": st.cache_hits, "mshr_hits": st.mshr_hits,
                "batches": st.batches, "columns": sum(st.widths),
                "kernel_s": st.kernel_s,
                "makespan_s": max(server.busy_until, end) - float(arrivals[0])}

    def verify(self, rec: dict) -> tuple[int, int]:
        failed = rec["failed"]
        for tk in rec.pop("checked"):
            qr = tk.result()
            if qr.status != "served":
                continue  # already counted above
            root = qr.query.root
            ref = self.reference.get(root)
            if ref is None:
                ref = BFSSpMV(self.rep, SEMIRING, slimwork=True).run(root)
                self.reference[root] = ref
            failed += not same_tree(qr.bfs, ref)
        rec["teps"] = np.array([self.edges(r) / r.total_time_s
                                for r in rec.pop("traversals")])
        return rec["submitted"], failed

    def end_to_end(self, recs):
        # Each figure is taken per pass and read at the level the machine
        # holds for three quarters of the run's passes: the upper quartile
        # of times, the lower quartile of rates.  This workload runs about
        # 1.6x faster in spells of uncontended CPU that come and go within
        # seconds; a median over passes jumps between the two levels when
        # the spells fill about half a run.  Nearly every query resolves
        # inside submit() (a hit or an attach), so the caller's wait is the
        # call's wall time; the attaches' virtual waits are reported apart.
        # The tail is p98: a few calls in a thousand stall, at a rate that
        # moves with the machine's load, and p99 sits at the knee where
        # they begin.
        def held(figure, q):
            return float(np.percentile([figure(r) for r in recs], q))

        e2e = {"teps_hmean": held(lambda r: hmean(r["teps"]), 25),
               "latency_ms_p50": held(
                   lambda r: percentile(r["submit_s"], 50), 75) * 1e3,
               "latency_ms_tail": held(
                   lambda r: tail(r["submit_s"], 98), 75) * 1e3,
               "wall_qps": held(
                   lambda r: r["submit_s"].size / r["wall_s"], 25)}
        lat = np.concatenate([r["latencies"] for r in recs])
        sub = np.concatenate([r["submit_s"] for r in recs])
        extras = {"kernel_path_ms_p50": percentile(lat, 50) * 1e3,
                  "kernel_path_ms_p95": tail_or_nan(lat, 95) * 1e3,
                  "kernel_path_samples": lat.size,
                  "submit_us_p50": e2e["latency_ms_p50"] * 1e3,
                  "submit_us_p98": e2e["latency_ms_tail"] * 1e3,
                  "submit_us_p99_pooled": tail(sub, 99) * 1e6}
        return e2e, extras

    def layer_metrics(self, rec):
        q = rec["submitted"]
        out = result_counts(rec["traversals"])
        out.update({
            "serve.cache_hit_ratio": rec["cache_hits"] / q,
            "serve.mshr_attach_ratio": rec["mshr_hits"] / q,
            "serve.columns_per_query": rec["columns"] / q,
            "serve.batches": rec["batches"],
            "serve.mean_batch_width": rec["columns"] / rec["batches"],
            "serve.utilization": rec["kernel_s"] / rec["makespan_s"],
        })
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Graph500B1, Graph500Exec, ServeHot)}
