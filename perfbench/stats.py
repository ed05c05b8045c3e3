"""Pure helpers of the benchmark: percentiles, TEPS, span self time.

Nothing here times or runs anything, so the tests in ``tests/`` exercise
the benchmark's arithmetic on hand-built inputs.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.obs.metrics import percentile

#: A reported tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> float:
    """Expected number of the ``n`` samples that lie beyond percentile ``p``."""
    return n * (100.0 - p) / 100.0


def tail_ok(n: int, p: float) -> bool:
    """Whether percentile ``p`` of ``n`` samples may be reported as a tail."""
    return samples_beyond(n, p) >= TAIL_MIN_BEYOND


def tail(values, p: float) -> float:
    """Percentile ``p`` of ``values``; raises if too few samples lie beyond."""
    values = np.asarray(values, dtype=np.float64)
    if not tail_ok(values.size, p):
        raise ValueError(
            f"p{p:g} of {values.size} samples leaves "
            f"{samples_beyond(values.size, p):.1f} beyond it; "
            f"need >= {TAIL_MIN_BEYOND}")
    return percentile(values, p)


def tail_or_nan(values, p: float) -> float:
    """:func:`tail`, or NaN where too few samples lie beyond ``p``."""
    values = np.asarray(values, dtype=np.float64)
    return tail(values, p) if tail_ok(values.size, p) else float("nan")


def hmean(values) -> float:
    """Harmonic mean (the Graph500 headline statistic for TEPS)."""
    v = np.asarray(values, dtype=np.float64)
    return float(v.size / np.sum(1.0 / v))


def component_edges(degrees: np.ndarray, dist: np.ndarray) -> int:
    """Graph500 edges traversed: undirected edges inside the reached set."""
    return int(degrees[np.isfinite(dist)].sum()) // 2


# ----------------------------------------------------------------------
# Span arithmetic.  ``repro.obs.export.summarize`` adds nested spans into
# every enclosing total; the budget below separates inclusive time of the
# outermost span of each name from exclusive (self) time.
def self_times(spans) -> dict[int, float]:
    """``span_id -> seconds`` not covered by the span's direct children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are never counted twice.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent_id is not None and s.t_end is not None:
            kids[s.parent_id].append(s)
    out = {}
    for s in spans:
        if s.t_end is None:
            continue
        covered = 0.0
        lo_run = hi_run = None
        for c in sorted(kids[s.span_id], key=lambda c: c.t_start):
            lo, hi = max(c.t_start, s.t_start), min(c.t_end, s.t_end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.span_id] = s.duration_s - covered
    return out


def budget(spans, wall_s: float) -> dict[str, dict[str, float]]:
    """Per span name: count, inclusive and exclusive seconds.

    ``incl_s`` sums only spans with no ancestor of the same name (a
    recursive or re-entrant call is not counted twice).  The pseudo-name
    ``bench.loop`` holds ``wall_s`` minus the time covered by root spans:
    the benchmark's own driving loop.
    """
    spans = [s for s in spans if s.t_end is not None]
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    roots_s = 0.0
    for s in spans:
        row = out.setdefault(s.name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += selfs[s.span_id]
        p = by_id.get(s.parent_id)
        nested = False
        while p is not None:
            if p.name == s.name:
                nested = True
                break
            p = by_id.get(p.parent_id)
        if not nested:
            row["incl_s"] += s.duration_s
        if s.parent_id is None:
            roots_s += s.duration_s
    out["bench.loop"] = {"count": 1, "incl_s": wall_s,
                         "self_s": max(0.0, wall_s - roots_s)}
    return out


def under(spans, name: str, ancestor_prefix: str) -> float:
    """Inclusive seconds of ``name`` spans with an ancestor named
    ``ancestor_prefix*`` (e.g. engine time inside serve calls)."""
    by_id = {s.span_id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name or s.t_end is None:
            continue
        p = by_id.get(s.parent_id)
        while p is not None and not p.name.startswith(ancestor_prefix):
            p = by_id.get(p.parent_id)
        if p is not None:
            total += s.duration_s
    return total
