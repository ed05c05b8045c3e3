"""Bitwise tests of the column-layer kernel ``sweep_band_layers``.

The oracle compares distances and parents, and the operator tests compare
with a tolerance, so neither would notice the kernel folding a chunk's
layers in a different order.  PageRank and betweenness consume the real
semiring's float sums, where a different order rounds differently.  These
tests hold the kernel's raw accumulator, bit for bit, and its ``profile=``
record to the per-layer loop below: one vectorized step per column layer,
each chunk's contributions added in ascending layer order.  A single
frontier column takes the kernel's run-scatter path, two or more its
equal-length group fold; the widths below cover both.  The BFS callers
feed the kernel a pre-multiplied frontier instead of per-slot values; the
reference still multiplies every slot by ``val_for(sr)``.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import msbfs
from repro.bfs.msbfs import TAIL_BLOCK, edge_pad, premultiply, sweep_band_layers
from repro.formats.sell import SellCSigma
from repro.formats.slimsell import SlimSell
from repro.graphs.kronecker import kronecker
from repro.semirings.base import get_semiring

SEMIRINGS = ["tropical", "real", "boolean", "sel-max"]
# None: a 1-D (N,) frontier; 1: one (N, 1) column, the shape of a batch
# compacted to its last live source.
WIDTHS = [None, 1, 2, 3, 16, 64]
ACTS = ["empty", "hub", "all", "subset", "unsorted", "zero-length"]
LAYOUTS = ["slimsell-8", "sell-8", "sell-1", "sell-1-unsorted"]


def reference_sweep(sr, C, col, val, cs, cl, f_prev, x_nd, act, act_out, profile):
    """The per-layer loop: every live chunk advances one layer per step."""
    if act.size == 0:
        return
    lane_off = np.arange(C, dtype=np.int64)
    order = np.argsort(-cl[act], kind="stable")
    srt = act[order]
    out = srt if act_out is None else act_out[order]
    scl = cl[srt]
    for j in range(int(scl[0])):
        live_n = int(np.searchsorted(-scl, -j, side="left"))
        profile.append((j, live_n))
        idx = (cs[srt[:live_n]] + j * C)[:, None] + lane_off
        vals = val[idx][..., None] if x_nd.ndim == 3 else val[idx]
        contrib = sr.mul(vals, f_prev[col[idx]])
        x_nd[out[:live_n]] = sr.add(x_nd[out[:live_n]], contrib)


@cache
def layout(name):
    """A scale-10 Kronecker layout: one hub chunk far longer than the rest,
    and zero-length chunks from isolated vertices (interleaved with the
    others when unsorted, σ = 1).  n == N, so the rows padding reads, N − 1
    through SlimSell's marker and 0 through Sell-C-σ's ``col``, are real
    vertices; C = 1 has no padding."""
    g = kronecker(10, 16, seed=3)
    if name == "slimsell-8":
        return SlimSell(g, 8, g.n)
    if name == "sell-8":
        return SellCSigma(g, 8, g.n)
    return SellCSigma(g, 1, 1 if name == "sell-1-unsorted" else g.n)


def wide_range(rng, shape):
    """Positive floats spanning 1e0 to 1e60."""
    return rng.random(shape) * 10.0 ** rng.integers(0, 61, shape)


def operands(rep, sr, shape, rng, per_slot=True):
    """``(val, f_prev, x0)`` in the semiring's domain; wide-range reals.
    ``per_slot=False`` keeps the matrix's two BFS values."""
    val = rep.val_for(sr)
    if sr.name == "real":
        if per_slot:
            val = np.where(val != 0.0, wide_range(rng, val.shape), 0.0)
        return val, wide_range(rng, shape), wide_range(rng, shape)
    if sr.name == "boolean":
        return val, *(rng.integers(0, 2, (2,) + shape).astype(np.float64))
    f, x0 = rng.integers(0, 1 << 20, (2,) + shape).astype(np.float64)
    if sr.name == "tropical":
        f[rng.random(shape) < 0.3] = np.inf
        x0[rng.random(shape) < 0.3] = np.inf
    return val, f, x0


def active_set(rep, kind, rng):
    nc = rep.nc
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "hub":
        return np.array([int(np.argmax(rep.cl))])
    if kind == "all":
        return np.arange(nc)
    if kind == "zero-length":
        act = np.flatnonzero(rep.cl == 0)
        assert act.size
        return act
    act = rng.choice(nc, size=int(rng.integers(1, nc)), replace=False)
    return act if kind == "unsorted" else np.sort(act)


def sweep_both(
    layout_name, semiring, W, kind, banded, seed, band=None, premul=False, poison=False
):
    """Run kernel and reference on identical inputs; both accumulators and
    both profiles.  ``band`` fixes the row band (and keeps only the active
    chunks inside it); by default ``banded`` draws one at random.

    ``premul`` feeds the kernel what the BFS callers pass: the value pair
    and the pre-multiplied frontier.  The reference then multiplies each
    slot by ``val_for(sr)`` on the representation's own ``col``, which
    reads ``f_prev[pad_row]`` on padding; ``poison`` puts NaN in that row,
    so only a sentinel taken from it matches."""
    rep = layout(layout_name)
    sr = get_semiring(semiring)
    C = rep.C
    rng = np.random.default_rng(seed)
    shape = (rep.N,) if W is None else (rep.N, W)
    val, f_prev, x0 = operands(rep, sr, shape, rng, per_slot=not premul)
    if poison:
        f_prev[rep.pad_row] = np.nan
    act = active_set(rep, kind, rng)
    if band is not None:
        act = act[np.isin(act, band)]
    elif banded:
        # One worker's row band: the active chunks plus some idle ones.
        extra = rng.choice(rep.nc, size=rep.nc // 4, replace=False)
        band = np.union1d(act, extra)
    if banded:
        # Band-local output positions.
        act_out = np.searchsorted(band, act)
        rows = (band[:, None] * C + np.arange(C)).ravel()
        x0 = x0[rows]
    else:
        band, act_out = np.arange(rep.nc), None
    nd = (band.size, C) + shape[1:]
    got, want = x0.copy(), x0.copy()
    prof_got, prof_want = [], []
    args = ref = (sr, C, rep.col64, val, rep.cs, rep.cl, f_prev)
    if premul:
        pair = edge_pad(sr)
        fx = premultiply(sr, pair, f_prev, rep.pad_row)
        args = (sr, C, rep.col64, pair, rep.cs, rep.cl, fx)
        ref = (sr, C, rep.col.astype(np.int64), val, rep.cs, rep.cl, f_prev)
    sweep_band_layers(*args, got.reshape(nd), act, act_out, prof_got, row64=rep.row64)
    reference_sweep(*ref, want.reshape(nd), act, act_out, prof_want)
    return got, want, prof_got, prof_want


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@given(
    layout_name=st.sampled_from(LAYOUTS),
    semiring=st.sampled_from(SEMIRINGS),
    W=st.sampled_from(WIDTHS),
    kind=st.sampled_from(ACTS),
    banded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_per_layer_loop(layout_name, semiring, W, kind, banded, seed):
    got, want, prof_got, prof_want = sweep_both(
        layout_name, semiring, W, kind, banded, seed
    )
    assert_bitwise(got, want)
    assert prof_got == prof_want


@pytest.mark.parametrize("layout_name", LAYOUTS)
@pytest.mark.parametrize("W", WIDTHS)
@pytest.mark.parametrize("kind", ["hub", "all"])
def test_real_sums_fold_in_layer_order(layout_name, W, kind):
    # Every width, so both paths, with the hub's layers spanning several
    # blocks at W = 64.
    got, want, prof_got, prof_want = sweep_both(layout_name, "real", W, kind, False, 7)
    assert_bitwise(got, want)
    assert prof_got == prof_want


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("W", [None, 1])
@pytest.mark.parametrize("layout_name", ["slimsell-8", "sell-1-unsorted"])
def test_one_column_runs_break_at_band_gaps(layout_name, semiring, W):
    # Bands with holes, swept in shuffled order.  Without the isolated
    # vertices' empty chunks, the unsorted layout's band has chunks whose
    # slots abut while their band-local rows keep a different offset, so
    # a run must break on the rows as well as on the slots.
    rep = layout(layout_name)
    nc = rep.nc
    if layout_name == "sell-1-unsorted":
        band = np.flatnonzero(rep.cl > 0)
    else:
        band = np.r_[0:3, 5 : nc // 2, nc // 2 + 7 : nc]
    got, want, prof_got, prof_want = sweep_both(
        layout_name, semiring, W, "unsorted", True, 11, band=band
    )
    assert_bitwise(got, want)
    assert prof_got == prof_want


@pytest.mark.parametrize("layout_name", LAYOUTS)
@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("W", WIDTHS)
def test_premultiplied_source_matches_per_slot_values(layout_name, semiring, W):
    # Every active set, then every chunk with the sentinel's row poisoned:
    # folding fx with no per-slot ⊗ changes no bit.  Whole and banded
    # outputs alternate, so each active set sees both across the widths.
    w = WIDTHS.index(W)
    cases = [(kind, (k + w) % 2 == 1, False) for k, kind in enumerate(ACTS)]
    cases.append(("all", w % 2 == 0, True))
    for seed, (kind, banded, poison) in enumerate(cases):
        with np.errstate(invalid="ignore"):  # NaN meets ∞ or 0
            got, want, prof_got, prof_want = sweep_both(
                layout_name, semiring, W, kind, banded, seed, premul=True, poison=poison
            )
        assert_bitwise(got, want)
        assert prof_got == prof_want


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_premultiply_sentinel_row(semiring):
    # fx has one row more than f: edge ⊗ f, then pad ⊗ f[pad_row], which
    # the −1 marker reaches by wrap-around.  N = 0 leaves it unread.
    sr = get_semiring(semiring)
    pair = edge_pad(sr)
    f = np.arange(12.0).reshape(4, 3)
    fx = premultiply(sr, pair, f, 1)
    assert fx.shape == (5, 3)
    assert_bitwise(fx[:4], sr.mul(sr.edge_value, f))
    assert_bitwise(fx[-1], sr.mul(sr.pad_value, f[1]))
    assert premultiply(sr, pair, np.empty((0, 3)), -1).shape == (1, 3)


def test_one_column_needs_a_contiguous_accumulator():
    # reshape() of a strided view copies, which would drop every update.
    rep = layout("slimsell-8")
    sr = get_semiring("sel-max")
    f_prev = np.ones((rep.N, 1))
    x_nd = np.ones((rep.N, 2))[:, :1].reshape(rep.nc, rep.C, 1)
    args = (sr, rep.C, rep.col64, rep.val_for(sr), rep.cs, rep.cl, f_prev)
    with pytest.raises(ValueError, match="C-contiguous"):
        sweep_band_layers(*args, x_nd, np.arange(rep.nc), row64=rep.row64)


def group_blocks(rep, W, block):
    """Chunk blocks and layer blocks of each equal-length group of ``rep``
    at width ``W``, with the kernel's geometry for a ``block``-element
    block, and each group's chunk count."""
    per = max(2, block // (rep.C * W))
    n_l, count = np.unique(rep.cl[rep.cl > 0], return_counts=True)
    step = np.minimum(n_l, per - 1)
    return -(-count // (per // (step + 1))), -(-n_l // step), count


def test_layout_spans_several_blocks():
    # The fixed layout must exercise what the tests above claim: a group
    # of several equal-length chunks, split over several chunk blocks at
    # W = 64 once a block holds 999 elements, and a hub whose layers span
    # three or more blocks at W = 64 and the default block.
    rep = layout("slimsell-8")
    chunk_blocks, _, count = group_blocks(rep, 64, 999)
    assert count.max() >= 2
    assert chunk_blocks.max() >= 2
    _, layer_blocks, _ = group_blocks(rep, 64, TAIL_BLOCK)
    assert layer_blocks.max() >= 3


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("W", [None, 1, 3, 16, 64])
def test_block_boundaries_fall_anywhere(monkeypatch, semiring, W):
    # At the default block the scale-10 layout fits one-column runs in one
    # block and every equal-length group in one chunk block; a block of 999
    # elements cuts runs mid-layer and mid-chunk, and groups every few
    # chunks and layers, without changing a bit.
    monkeypatch.setattr(msbfs, "TAIL_BLOCK", 999)
    got, want, prof_got, prof_want = sweep_both(
        "slimsell-8", semiring, W, "all", False, 5
    )
    assert_bitwise(got, want)
    assert prof_got == prof_want
