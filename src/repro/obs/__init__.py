"""Observability: span tracing, a metrics registry, and trace exporters.

The cross-tier visibility layer (PR 10).  Three pieces, importable
without pulling in any other subsystem (numpy is the only dependency,
so the engines, the serving layer and the dist models can all publish
into it without cycles):

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer`: deterministic
  span trees on an injectable clock (virtual serve time or wall time);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, P² streaming-quantile histograms and lazy derived views, plus
  :func:`percentile`, the one shared exact-percentile helper;
* :mod:`repro.obs.export` — JSONL and Chrome trace-event
  (``chrome://tracing``/Perfetto) exporters and readers.

See the README's "Observability" section for the span taxonomy and the
stable metric names.
"""

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
    owner_view,
    percentile,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "load_trace",
    "owner_view",
    "percentile",
    "read_chrome_trace",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]
