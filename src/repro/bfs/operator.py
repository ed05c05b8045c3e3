"""Generic SpMV operator over chunked representations.

The paper's closing argument (§VI) is that SlimSell generalizes beyond BFS:
any algorithm built on y = A ⊗ x products — betweenness centrality,
PageRank, label propagation — can run on the slim layout.  ``SlimSpMV``
packages the layer-engine sweep as a reusable matrix-free operator so the
application layer (:mod:`repro.apps`) composes with any semiring.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.msbfs import spmm_layer_sweep
from repro.formats.sell import SellCSigma
from repro.semirings.base import SemiringBFS, get_semiring


class SlimSpMV:
    """Matrix-free ``y = A ⊗ x`` over a Sell-C-σ/SlimSell layout.

    Operates in *original* vertex-id space: inputs are permuted in, outputs
    permuted back, so callers never see the σ-sorted order.

    Parameters
    ----------
    rep:
        A built :class:`SellCSigma` or :class:`SlimSell`.
    semiring:
        Semiring instance or name; ⊗ combines matrix entries with gathered
        x values, ⊕ reduces along each row.
    """

    def __init__(self, rep: SellCSigma, semiring: SemiringBFS | str = "real"):
        self.rep = rep
        self.semiring = (get_semiring(semiring)
                         if isinstance(semiring, str) else semiring)
        self._chunks = np.arange(rep.nc)

    @property
    def n(self) -> int:
        """Number of (real) vertices/rows."""
        return self.rep.n

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """One product ``A ⊗ x`` (length-n in, length-n out)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.rep.n,):
            raise ValueError(
                f"x must have shape ({self.rep.n},), got {x.shape}")
        return self.matmat(x[:, None])[:, 0]

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched product ``Y = A ⊗ X`` over an ``(n, B)`` column block.

        The SpMM core shared with :meth:`__call__` (a B=1 column block):
        the layer sweep :func:`~repro.bfs.msbfs.spmm_layer_sweep` over every
        chunk, into a zero accumulator, so the ``col`` stream is read once
        regardless of B, and no ``val`` at all.  Column ``b`` of the result
        is bit-identical to ``self(X[:, b])``.
        """
        rep, sr = self.rep, self.semiring
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != rep.n:
            raise ValueError(f"X must have shape ({rep.n}, B), got {X.shape}")
        Xp = np.full((rep.N, X.shape[1]), sr.zero)
        Xp[rep.perm] = X
        Y = np.full(Xp.shape, sr.zero)
        spmm_layer_sweep(rep, sr, Xp, Y, self._chunks)
        return Y[rep.perm]

    def power_iterate(self, x0: np.ndarray, steps: int) -> np.ndarray:
        """Repeated application: ``A^steps ⊗ x0`` (for diffusion-style uses)."""
        x = np.asarray(x0, dtype=np.float64)
        for _ in range(steps):
            x = self(x)
        return x
