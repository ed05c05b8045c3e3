"""Width-driven engine selection for the serving layer.

A released :class:`~repro.serve.batcher.Batch` can run on either batched
engine, and how far apart they are depends on the batch width the
traffic produced (``BENCH_mshybrid.json``, scale 14, 64 roots): the
direction-optimizing :class:`~repro.bfs.mshybrid.MultiSourceHybridBFS`
leads most at narrow widths (1.59× over all-pull at B=1, 0.253 vs
0.402 s, its best point), and the all-pull SpMM sweep of
:class:`~repro.bfs.msbfs.MultiSourceBFS` closes in at wide batches,
where the shared pull sweep amortizes best (the hybrid still leads at
B=64, 0.321 vs 0.344 s).  :class:`EnginePool` encodes the policy as a
width threshold (``hybrid_max_width``, applied by
:func:`default_strategy`) and keeps one engine instance per (semiring,
kind) so repeated batches reuse the representation's memoized operands.

Both engines are differential-tested bit-identical through
``tests/engines.py``'s oracle, so the policy only moves *work*, never
answers.
"""

from __future__ import annotations

from repro.bfs.msbfs import MultiSourceBFS
from repro.bfs.mshybrid import MultiSourceHybridBFS
from repro.formats.sell import SellCSigma

__all__ = ["EnginePool", "default_strategy"]

#: Widths at or below this run the direction-optimizing engine by default.
DEFAULT_HYBRID_MAX_WIDTH = 16


def default_strategy(width: int, *,
                     hybrid_max_width: int = DEFAULT_HYBRID_MAX_WIDTH) -> str:
    """Width-threshold policy: hybrid for narrow batches, all-pull wide."""
    return "mshybrid" if width <= hybrid_max_width else "msbfs"


class EnginePool:
    """Engine instances over one representation, selected per batch.

    Parameters
    ----------
    rep:
        The served, prebuilt representation (shared by every engine).
    alpha:
        Beamer push/pull threshold for the hybrid engine.
    slimwork:
        §III-C chunk skipping (both engines).
    hybrid_max_width:
        Threshold of :func:`default_strategy`: batches this wide or
        narrower run the hybrid engine.
    """

    def __init__(self, rep: SellCSigma, *, alpha: float = 14.0,
                 slimwork: bool = True,
                 hybrid_max_width: int = DEFAULT_HYBRID_MAX_WIDTH):
        self.rep = rep
        self.alpha = float(alpha)
        self.slimwork = bool(slimwork)
        self.hybrid_max_width = hybrid_max_width
        self._engines: dict[tuple[str, str], object] = {}

    def engine_for(self, semiring: str, width: int):
        """``(engine_name, engine)`` to run a batch of ``width`` columns."""
        name = default_strategy(width, hybrid_max_width=self.hybrid_max_width)
        key = (name, semiring)
        engine = self._engines.get(key)
        if engine is None:
            if name == "mshybrid":
                engine = MultiSourceHybridBFS(
                    self.rep, semiring, alpha=self.alpha,
                    slimwork=self.slimwork)
            else:
                engine = MultiSourceBFS(
                    self.rep, semiring, slimwork=self.slimwork)
            self._engines[key] = engine
        return name, engine
