"""Semiring base class and BFS state shared by all algebraic BFS variants.

A semiring S = (X, op1, op2, el1, el2) gives the MV product
``x_k[v] = ⊕_w (A'[v, w] ⊗ f[w])`` (§III-A).  For BFS the matrix entries
take only two values: ``edge_value`` on edges and ``pad_value`` on padding /
structural zeros, where ``pad_value ⊗ anything`` must be absorbed by ⊕ —
that is exactly what lets SlimSell reconstruct ``val`` from a −1 marker in
``col`` with one CMP + one BLEND (Listing 6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.vec.ops import VectorUnit


@dataclass
class BFSState:
    """Mutable per-traversal state, in the representation's (permuted) id space.

    Arrays have length N = nc·C (padded to whole chunks); entries beyond n
    are virtual rows with no edges, initialized so they never block SlimWork
    skipping or convergence.

    **Batched states** (built by :meth:`SemiringBFS.init_batch_state`) carry
    a trailing batch axis: every per-vertex array has shape ``(N, B)`` and
    column ``b`` evolves bit-identically to the single-source state of
    ``roots[b]``.  The semiring methods that the layer engines call
    (``postprocess`` / ``settled_lanes`` / ``finalize_*``) are
    shape-polymorphic: they accept both layouts and return per-source
    results (shape ``(B,)``) for batched input.

    Attributes
    ----------
    f:
        The carried/gathered vector (frontier for tropical/boolean/real,
        the x vector for sel-max).  Double-buffered by the engines.
    d:
        Distances; ``inf`` = not yet reached, root = 0.
    g:
        Unvisited filter (boolean/real): 1 = not yet visited.
    p:
        1-based parent ids (sel-max): 0 = unassigned.
    depth:
        Current iteration number k (0 before the first expansion).
    n / N:
        Real and padded vertex counts.
    """

    f: np.ndarray
    d: np.ndarray
    n: int
    N: int
    root: int
    g: np.ndarray | None = None
    p: np.ndarray | None = None
    depth: int = 0
    extras: dict = field(default_factory=dict)


class SemiringBFS(ABC):
    """Algebra + BFS semantics of one semiring.

    Subclasses set the class attributes and implement state handling.

    Attributes
    ----------
    name:
        Identifier (``"tropical"``, ``"real"``, ``"boolean"``, ``"sel-max"``).
    add / mul:
        NumPy ufuncs for ⊕ (op1) and ⊗ (op2).  For the boolean semiring,
        max/min on {0,1} floats are used as OR/AND — identical algebra,
        reduceat-friendly.
    zero:
        Additive identity el1 (result of an empty reduction).
    edge_value / pad_value:
        Matrix entry on an edge / on padding.  ``pad_value`` is the ⊗
        annihilator w.r.t. ⊕ accumulation.
    needs_dp:
        True when parents require the DP transformation (all but sel-max).
    """

    name: str = "abstract"
    add: np.ufunc
    mul: np.ufunc
    zero: float
    edge_value: float
    pad_value: float
    needs_dp: bool = True

    # ------------------------------------------------------------------
    # State lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def init_state(self, n: int, N: int, root: int) -> BFSState:
        """Fresh state for a traversal from ``root`` (ids already permuted)."""

    def init_batch_state(self, n: int, N: int, roots: np.ndarray) -> BFSState:
        """Batched state whose column ``b`` equals ``init_state(n, N, roots[b])``.

        Per-vertex arrays (``f``/``d``/``g``/``p``) gain a trailing batch
        axis of width ``B = len(roots)``; root-independent extras of shape
        ``(N,)`` become broadcast-ready ``(N, 1)`` columns.  The batched
        SpMM engine (:mod:`repro.bfs.msbfs`) relies on every column
        trajectory being bit-identical to the corresponding single-source
        state, which this generic construction guarantees for any semiring.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1 or roots.size == 0:
            raise ValueError("roots must be a non-empty 1-D array")
        states = [self.init_state(n, N, int(r)) for r in roots]

        def stack(attr: str) -> np.ndarray | None:
            cols = [getattr(s, attr) for s in states]
            if cols[0] is None:
                return None
            # Stack rows contiguously, then one transposing copy into
            # C-order (N, B): cheaper than stacking along axis 1, whose
            # writes stride by B.
            return np.ascontiguousarray(np.stack(cols).T)

        st = BFSState(f=stack("f"), d=stack("d"), n=n, N=N,
                      root=int(roots[0]), g=stack("g"), p=stack("p"))
        st.extras = {
            key: (value[:, None]
                  if isinstance(value, np.ndarray) and value.shape == (N,)
                  else value)
            for key, value in states[0].extras.items()
        }
        return st

    @abstractmethod
    def newly_mask(self, st: BFSState, x_raw: np.ndarray) -> np.ndarray:
        """Bool mask of vertices settled by this iteration's product.

        ``x_raw`` is the MV result combined with the carried vector, *before*
        :meth:`postprocess` has consumed it — the mask is exactly the set of
        vertices ``postprocess`` would newly settle, i.e. the next frontier.
        Shape-polymorphic: ``(N,)`` states yield a ``(N,)`` mask, batched
        ``(N, B)`` states a ``(N, B)`` mask (column-wise independent).

        The direction-optimizing engines (:mod:`repro.bfs.mshybrid`) rely on
        this to keep an explicit frontier across push/pull direction changes:
        a push step writes its sparse expansion into ``x_raw`` and the mask
        mirrors the resulting frontier back into the batched state exactly as
        a pull sweep would have.
        """

    @abstractmethod
    def postprocess(self, st: BFSState, x_raw: np.ndarray,
                    newly: np.ndarray | None = None) -> int | np.ndarray:
        """Whole-array derivation of f_k (and d/g/p updates) from x_k.

        ``x_raw`` is the MV result already combined with the carried vector
        (the kernels initialize each chunk register from the carried chunk).
        Returns the number of newly settled vertices; 0 means converged.
        Must write the new carried vector into ``st.f`` (fresh array).
        The settled set is ``newly_mask(st, x_raw)``; implementations share
        that predicate so the two views can never drift apart.  An engine
        that already evaluated it (the hybrid engines keep the mask as the
        next frontier) passes it as ``newly`` to skip the second pass.

        Shape-polymorphic: on a batched ``(N, B)`` state the same algebra
        applies column-wise and an ``int64[B]`` per-source count is returned.
        """

    @abstractmethod
    def chunk_post(self, vu: VectorUnit, st: BFSState, f_next: np.ndarray,
                   addr: int, x: np.ndarray) -> int:
        """Per-chunk post-processing on the vector ISA (Listing 5 l.22–45).

        ``x`` is the chunk's accumulated register; ``addr`` the chunk's base
        offset; ``f_next`` the output buffer for the carried vector.
        Returns newly settled lanes in this chunk.
        """

    @abstractmethod
    def kernel_step(self, vu: VectorUnit, x: np.ndarray, rhs: np.ndarray,
                    vals: np.ndarray) -> np.ndarray:
        """The inner-loop vector update (Listing 5 lines 12–19)."""

    @abstractmethod
    def settled_lanes(self, st: BFSState) -> np.ndarray:
        """Bool[N]: lanes whose final output can no longer change.

        SlimWork (§III-C, Listing 7) skips a chunk iff *all* its lanes are
        settled.
        """

    @abstractmethod
    def finalize_distances(self, st: BFSState) -> np.ndarray:
        """Distances over the padded id space (inf = unreached)."""

    def finalize_parents(self, st: BFSState) -> np.ndarray | None:
        """Parents (0-based, -1 unassigned) if the semiring computes them."""
        return None

    # ------------------------------------------------------------------
    # Algebra helpers
    # ------------------------------------------------------------------
    def values_from_edge_mask(self, is_edge: np.ndarray) -> np.ndarray:
        """Materialize matrix values from an edge/padding mask."""
        return np.where(is_edge, self.edge_value, self.pad_value)

    def mv_combine(self, acc: np.ndarray, contrib: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Accumulate ``contrib`` into ``acc`` with ⊕ (vectorized)."""
        return self.add(acc, contrib, out=out if out is not None else acc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def count_newly(mask: np.ndarray) -> int | np.ndarray:
    """Settled-vertex count of a postprocess mask, batch-aware.

    1-D masks (single-source states) reduce to a plain ``int``; ``(N, B)``
    masks reduce per column to ``int64[B]`` — one count per source, which is
    what lets the batched engine terminate each source independently.
    """
    if mask.ndim == 2:
        return np.count_nonzero(mask, axis=0)
    return int(np.count_nonzero(mask))


def get_semiring(name: str) -> SemiringBFS:
    """Instantiate a semiring by name (accepts ``selmax`` for ``sel-max``)."""
    from repro.semirings import SEMIRINGS

    key = name.lower().replace("_", "-")
    if key == "selmax":
        key = "sel-max"
    try:
        return SEMIRINGS[key]()
    except KeyError:
        raise KeyError(
            f"unknown semiring {name!r}; available: {sorted(SEMIRINGS)}"
        ) from None
