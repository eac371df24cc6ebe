"""The two-level attention layer: forward passes, traces, and analytic backward.

The fast path never materializes an n-by-n score matrix.  Both levels run one
banded driver (``_banded_attention``): each row sees an interval of keys
(tokens within w1, or pooled segments centered within w2) plus, at the first
level, the global columns; a global row sees every valid key.  One generator
(``_blocks``) yields a band's blocks, each with its 0/-inf mask bias and
visible-key counts, for the forward, the backward and ``attention_rows``: the
global rows first, as one block against every key with one bias row over the
valid keys, then the cells of one grid of consecutive rows whose size follows
the first-level window (``block_rows``, a multiple of the pooling stride at
the second level), the grid ``row_chunks`` tiles.  A global row sits in its
cell hidden: its banded row sees no key and adds exact zeros, and its counts,
statistics and output are written after every banded block.  A cell's bias
comes from its own mask (``_block_mask``), or is shared by a run of cells
with like bound offsets.  Each block scores its rows against the union of
their intervals plus that bias and runs a softmax that divides its (rows,
d/h) output, not its probabilities, by the denominator, as FlashAttention
does (arXiv 2205.14135).  Every block first takes exp of its scores unshifted, with no
row maximum, flooring its masked lanes at ``FLOOR`` when it is clean (every
row and key valid, every row seeing a key) and at least ``FLOOR_SHARE`` of
them are masked.  It keeps that result when every row's denominator lies
within [e^-BOUND, e^BOUND] and its output is finite; otherwise it reruns
subtracting the row maximum first, as a stable softmax does, and so does the
global rows' online softmax.  On default-scale inputs every block keeps its
unshifted exp.  Every array the layer keeps is a row matrix: each level's
output, the pooled segments (segments, d) and every gradient.  Heads are
strided column blocks of those rows: ``_heads`` views them as (n_heads,
rows, d/h) without a copy, every head is attended by one batched matmul
reading through such views, and block gradients are written through them.

The forwards stream row chunks (``row_chunks``: ``CHUNK_ROWS`` rows in whole
blocks, the last chunk shorter) and never hold a whole projection.  Each
level has one builder, ``_first_chunks`` or ``_second_chunks``, the only
code that projects or pools during the layer's passes.  It returns
``(queries, keys, releases)``: ``queries(rows)``, the queries of a row slice
or of the global rows' index array, and ``keys(c0, c1)``, the keys and
values of a chunk's key union followed by the global rows', which both
drivers read in both directions, and ``releases(...)``, which builds the
backward's ``release_q`` and ``release`` callbacks, so each level's releases
sit with its projections.  Each chunk projects exactly the rows it reads;
the driver projects the global rows' queries once.  The second level holds a
rolling window of pooled segments, never a whole pooled grid, and its window
fills and its releases run over one pooling-call generator, which holds the
rows per call, the kappa - xi halo and the end that reads no padded tail.
Every block adds its output rows into the level's buffer: zeros, or in
``layer_forward`` the second level's copy of y (or y itself), which z is
added into.  A padding row sees no key and is no visible key, so every block
adds exact zeros into its +0.0 output row and takes exact zeros as its key
and value gradients.  ``core.project`` (the routine ``project_qkv`` uses)
gives any slice or gather of rows the bits of the whole projection, so
chunks see bitwise the rows of the whole projection and pooled segments
bitwise as ``pool_grid`` pools them: only the global rows' online softmax
rounds differently from one whole block.

Traces keep each level's counts and band and, per head and row, the shift
its exp took and the denominator (``rowmax``, ``denom``: (n_heads, n, 1)
each; the shift is the row maximum, or 0 in an unshifted block),
never a projection, a mask, a block's key columns or the probabilities; both
levels' traces declare these in one base, ``_LevelTrace``, with
``attention_rows``.  The statistics are per row, so any block or chunk
partition replays them; which blocks shifted, and so ``rowmax``, follows
the block partition, never the chunk size.  Each trace builds its read-only
views (``q``, ``pooled_k``, ...) and ``attention_rows`` whole from its
batch, params and second-level source, each building only what it reads
(``FirstLevelTrace._input``, ``SecondLevelTrace._projected`` and
``SecondLevelTrace._input``).

``layer_backward`` runs both levels' passes, the second level's first,
through the forwards' twin driver, ``_banded_backward``, over the same row
chunks, and the releases add into the gradients it returns: with shared
projections both levels' into one triple.  It never holds a whole
projection, pooled or unpooled grid, or their gradients.  Per chunk it reads
the keys the forward read, runs the blocks backward, replays the global
rows' block against the chunk's own rows, carries the key-gradient rows the
next chunk reads, and hands the rest and the chunk's query gradient to the
level's releases.  Blocks replay their unnormalized probabilities from the
rows' statistics with the forward's own operations: one helper,
``_exp_scores``, shifts by a nonzero ``rowmax``, floors, and exponentiates
in both directions.  The first level takes FlashAttention-2's
``D = rowsum(dO * O)`` from y (arXiv 2307.08691), its global rows' block
split over column chunks; the second, which has no extra rows, the same
paper's ``D = rowsum(P * dP)``, exact over each block's own columns.  The
first level's query release sets its rows of the input gradient to +0.0
before adding into them, so a padding row's input gradient is +0.0 however
the masked upstream's zeros are signed.  Gradients are exact reverse-mode;
sums over rows run in chunk order, so gradients agree with any other chunk
size to rounding.

``retain`` (the default) keeps y and the output in the trace, but no z:
``layer_forward`` adds z into a copy of y, and ``z`` is a view that re-runs
the second level.  A training step holds the trace, the masked upstream
(whose buffer becomes the input gradient), and one chunk's projections,
pooled segments and gradients: 19.4 MiB on the ``train_ldconv`` benchmark
step (n = 8192), as ``costmodel.estimate_training_peak_bytes`` models it.
``layer_forward(retain=False)`` (inference) adds z into y's own buffer,
which it returns as the output, bitwise ``y + z``; its trace keeps counts,
flags and statistics but no y, and refuses z, so ``layer_backward`` refuses
it, and without mix its second-level views, whose source y became the
output, refuse too.  The ``infer_long`` benchmark forward (n = 16384) peaks
at 12.3 MiB, in its first level.  All computations are pure functions of
(batch, params, config), single-threaded, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from poolattn.core import (
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    project,
)
from poolattn.pooling import (
    PoolingOp,
    pool_grid,
    pool_grid_rows,
    pool_grid_rows_backward,
)
from poolattn.windowing import (
    PooledGrid,
    build_pooled_grid,
    segment_bounds,
    window_bounds,
)

SCHEDULE_MODES = ("sliding_only", "two_level")

# fewest rows per block: below this, per-block Python overhead outweighs the
# scores a smaller key union saves
MIN_BLOCK = 32
# rows per chunk a forward streams (``row_chunks``): its projections, its key
# union and its global-row scores are what a chunk adds to the level's output
CHUNK_ROWS = 1024
# Every block first takes exp of its masked scores unshifted: no row max and
# no subtraction, which the shift exists only to keep exp (range +-709) from
# overflowing.  It keeps that result when every row's denominator lies within
# [e^-BOUND, e^BOUND] and its output is finite, and otherwise reruns as a
# stable softmax.  Default-scale inputs, whose scores lie within about +-1.7,
# keep every block's.  On a (4, 64, 328) first-level block (Xeon, one BLAS
# thread) the row max took 34 us and its subtraction 50, against 72 for the
# scores and 107 for exp.  The high bound keeps the backward's ``up / denom``
# within e^BOUND of the upstream.
BOUND = 64.0
_LOW, _HIGH = np.exp(-BOUND), np.exp(BOUND)
# An unshifted clean block with at least FLOOR_SHARE of its lanes masked
# raises their -inf to FLOOR before exp: on that block exp took 48 / 71 / 86 /
# 134 us at 0 / 10 / 20 / 50% of its lanes at -inf, 48-51 us floored, and the
# floor pass about 21 us.  The low bound keeps those lanes negligible: a row's
# denominator is at least e^-BOUND, so a masked lane's e^-600 (about
# 1.4e-261) is at most e^-536 of it, and cols * e^-536 all together.
FLOOR = -600.0
FLOOR_SHARE = 1 / 8


def block_rows(n: int, w1: int) -> int:
    """Default rows per block: half the first-level window radius, at least MIN_BLOCK.

    A block of b rows scores against a key union of b + 2*w1 columns while
    each row sees 2*w1 + 1 of them, so b = w1/2 computes about 1.25x the
    visible scores; the second level's segment union grows the same way.
    """
    return min(n, max(MIN_BLOCK, w1 // 2))


@dataclass(frozen=True)
class _Band:
    """Which keys one level's rows see: per-row bounds, extra keys, validity and a row step.

    Row r sees key j if ``lo <= j < hi`` for ``lo, hi = bounds(r)`` (both
    non-decreasing in r) or ``extra[j]``, and if ``row_ok[r]`` and ``key_ok[j]``
    (None: every key valid; a band with extras has ``key_ok``).  An extra
    key's own row sees every valid key: ``_blocks`` gives the extra rows one
    block of their own, then hides them from the band's grid (``row_ok``
    cleared), so an extra row's banded row sees nothing and the drivers write
    the extra rows' results after every banded block.  The bounds' offsets
    repeat every ``step`` rows (the pooling stride at the second level), so
    ``_blocks`` sizes its cells in multiples of it.
    """

    bounds: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    row_ok: np.ndarray
    key_ok: np.ndarray | None = None
    extra: np.ndarray | None = None
    step: int = 1


def _heads(mat: np.ndarray, n_heads: int) -> np.ndarray:
    """(n, d) rows as an (n_heads, n, d/h) strided view: head i is columns i*d/h to (i+1)*d/h.

    Of a C-contiguous ``mat`` it is a view, not a copy: batched matmuls read
    the heads through it, and writes through it land in ``mat``.
    """
    n, d = mat.shape
    return mat.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def _block_mask(band: _Band, rows: slice, cols: slice | np.ndarray) -> np.ndarray:
    """The (rows, cols) bool mask of a row slice: in bounds or extra, on valid rows and keys."""
    # int32 comparisons take about half the time of int64 ones
    keys = (np.arange(cols.start, cols.stop) if isinstance(cols, slice) else cols).astype(np.int32)
    lo, hi = (x.astype(np.int32)[:, None] for x in band.bounds(np.arange(rows.start, rows.stop)))
    mask = (keys >= lo) & (keys < hi)
    if band.extra is not None:
        mask |= band.extra[cols]
    if band.key_ok is not None:
        mask &= band.key_ok[cols]
    mask &= band.row_ok[rows, None]
    return mask


def _masked_scores(qr: np.ndarray, kc: np.ndarray, bias: np.ndarray, alpha: float) -> np.ndarray:
    """Scores (h, rows, cols) of alpha-scaled block queries against key columns, plus ``bias``."""
    scores = np.matmul(qr * alpha, kc.transpose(0, 2, 1))
    scores += bias
    return scores


def _exp_scores(e: np.ndarray, shift: np.ndarray | float, floor: bool) -> np.ndarray:
    """A block's unnormalized probabilities ``exp(e - shift)`` from its masked scores ``e``,
    in place: the forward's and the replay's one way to exponentiate a block.

    A ``shift`` that is 0 on every row (an unshifted block's) is not
    subtracted, which changes no bit; then, at ``floor``, the masked lanes are
    raised to ``FLOOR`` before exp.
    """
    if np.any(shift):
        e -= shift
    elif floor:
        np.maximum(e, FLOOR, out=e)
    np.exp(e, out=e)
    return e


def _block_size(band: _Band, w1: int) -> int:
    """Rows per cell of ``band``'s block grid: ``block_rows``, rounded down to a multiple of
    ``band.step``."""
    return max(band.step, block_rows(band.row_ok.shape[0], w1) // band.step * band.step)


def _chunk_size(step: int) -> int:
    """``CHUNK_ROWS`` rounded down to a whole number of ``step``-row cells, at least one."""
    return max(step, CHUNK_ROWS // step * step)


def row_chunks(n: int, block: int) -> list[tuple[int, int]]:
    """The row chunks a forward streams over n rows, as (start, stop) pairs.

    Chunks are ``_chunk_size(block)`` rows, whole cells of the level's block
    grid, so no block crosses a chunk edge; the last may be shorter.
    """
    size = _chunk_size(block)
    return [(a, min(n, a + size)) for a in range(0, n, size)]


def _blocks(
    band: _Band, w1: int
) -> Iterator[tuple[slice | np.ndarray, slice | np.ndarray, np.ndarray, np.ndarray, bool]]:
    """A pass's blocks over ``band``, in pass order: (rows, key columns, bias, counts, floor).

    ``bias`` is the block's 0/-inf mask bias, broadcastable to (rows, cols),
    and ``counts`` each row's number of visible keys.  ``floor`` says whether
    the block's unshifted exp raises its masked lanes to ``FLOOR``
    (``_exp_scores``): it holds for a clean block (every row and key valid,
    every row seeing a key) with at least ``FLOOR_SHARE`` of its lanes
    masked, and never for the extra rows' block.  The extra rows come first,
    as one block (an index array) against every key, with a (1, n) bias over
    the valid keys and their count, one number for every row.  Then every row
    goes in the cells of one grid, ``_block_size`` consecutive rows each (the
    last shorter), the grid ``row_chunks`` tiles, with the extra rows hidden:
    their banded rows are invalid, so each sees no key (a -inf bias row,
    count 0) and a cell holding one is never clean, shared or floored; the
    drivers write the extra rows' results after every banded block.  A cell
    scores against its rows' interval union plus the extras outside it, and
    is skipped if that is empty or none of its rows is valid.  A cell whose
    rows and keys are all valid has its mask fixed by its rows' bound offsets
    from its first column and ``extra[cols]``, so a run of such cells shares
    one bias, counts and floor, built once.
    """
    n, block = band.row_ok.shape[0], _block_size(band, w1)
    extra = np.flatnonzero(band.extra) if band.extra is not None else np.empty(0, np.int64)
    if extra.size:
        yield extra, slice(0, n), np.where(band.key_ok, 0.0, -np.inf)[None], band.key_ok.sum(), False
        band = replace(band, row_ok=band.row_ok & ~band.extra)
    starts = np.arange(0, n, block)
    stops = np.minimum(starts + block, n)
    # each block's key union: its first row's lo to its last row's hi
    c0s = band.bounds(starts)[0].tolist()
    c1s = band.bounds(stops - 1)[1].tolist()
    shared_key = None
    for s, e, c0, c1 in zip(starts.tolist(), stops.tolist(), c0s, c1s):
        rows = slice(s, e)
        if not band.row_ok[rows].any():
            continue
        outside = extra[(extra < c0) | (extra >= c1)]
        if outside.size:
            cols = np.concatenate([np.arange(c0, c1, dtype=np.int64), outside])
        elif c1 > c0:
            cols = slice(c0, c1)
        else:
            continue
        key = None
        if band.row_ok[rows].all() and (band.key_ok is None or band.key_ok[cols].all()):
            # no width: it is the last row's hi offset plus the extras outside
            # the union, one byte each of extra[cols]
            lo, hi = (x - c0 for x in band.bounds(np.arange(s, e)))
            extra_cols = b"" if band.extra is None else band.extra[cols].tobytes()
            key = lo.tobytes(), hi.tobytes(), extra_cols
        if key is None or key != shared_key:
            mask = _block_mask(band, rows, cols)
            seen = mask.sum(axis=1)
            floor = bool(key is not None and seen.all()
                         and mask.size - seen.sum() >= FLOOR_SHARE * mask.size)
            shared_key, shared = key, (np.where(mask, 0.0, -np.inf), seen, floor)
            del mask  # not held while the block is scored
        yield rows, cols, *shared


def _banded_attention(
    band: _Band, config: LayerConfig, queries: Callable[[slice | np.ndarray], np.ndarray],
    keys: Callable[[int, int], tuple[np.ndarray, np.ndarray]], out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked attention of every row under ``band``, streamed over row chunks, added into
    ``out``.

    ``queries`` and ``keys`` describe the level, as ``_first_chunks`` and
    ``_second_chunks`` build them.  Per chunk (``row_chunks``) of rows a..b,
    ``keys(c0, c1)`` gives the keys and values of the chunk's key union
    c0..c1, followed by every extra key's, and then ``queries(slice(a, b))``
    the rows' queries; each of the chunk's blocks (``_blocks``) gathers its
    key columns from these.  A block divides its output, not its
    probabilities, by the denominator.  Each block first takes exp of its
    masked scores unshifted (``_exp_scores``, floored at the block's
    ``floor``), and keeps that when every row's denominator lies within
    [e^-BOUND, e^BOUND] and its output is finite; otherwise it reruns as a
    stable softmax whose row maximum is taken over visible entries only.  The
    decision reads only the block's own rows and columns, so it does not
    depend on the chunk size.  A row whose visible scores overflowed even so
    turns NaN, which the level's finiteness check reports.  The extra rows
    (queries ``queries(extra)``, projected once) see every key, so they score
    each chunk's own rows as keys with an online softmax (arXiv 1805.02867),
    rescaling what earlier chunks summed whenever the row maximum grows;
    their counts, statistics and output are written after the chunk loop,
    over the exact zeros their hidden banded rows added.  Every block adds
    its output rows into ``out``: zeros make that a write.
    Returns each row's count of visible keys, the shift its exp took (the
    row maximum, or 0 in an unshifted block) and the denominator, (n_heads, n,
    1) each, 0 and 1 on rows that see nothing, whose output rows stay
    untouched.
    """
    n, n_heads = band.row_ok.shape[0], config.n_heads
    alpha = config.alpha()
    counts = np.zeros(n, dtype=np.int64)
    rowmax, denom = np.zeros((n_heads, n, 1)), np.ones((n_heads, n, 1))
    plan = _blocks(band, config.w1)
    extra = None
    if band.extra is not None:  # the plan's first block: the extra rows against every key
        extra, _, extra_bias, extra_seen, _ = next(plan)
        extra_qh = _heads(queries(extra), n_heads)
        e_max = np.full((n_heads, len(extra), 1), -np.inf)
        e_sum = np.zeros((n_heads, len(extra), 1))
        e_out = np.zeros((n_heads, len(extra), config.head_dim))
        where = np.empty(n, dtype=np.intp)  # each key's row in the chunk's buffer
    block = next(plan, None)
    for a, b in row_chunks(n, _block_size(band, config.w1)):
        c0, c1 = int(band.bounds(a)[0]), int(band.bounds(b - 1)[1])
        kh, vh = (_heads(m, n_heads) for m in keys(c0, c1))
        qh = _heads(queries(slice(a, b)), n_heads)
        if extra is not None:  # the extra keys follow the union
            where[extra] = c1 - c0 + np.arange(len(extra))
            where[c0:c1] = np.arange(c1 - c0)
        while block is not None and block[0].start < b:
            rows, cols, bias, seen, floor = block
            counts[rows] = seen
            local = slice(rows.start - a, rows.stop - a)
            cols = slice(cols.start - c0, cols.stop - c0) if isinstance(cols, slice) else where[cols]
            empty = seen == 0
            for shift in (False, True):  # unshifted first; the rerun is a stable softmax
                e = _masked_scores(qh[:, local], kh[:, cols], bias, alpha)
                m = 0.0
                if shift:
                    m = e.max(axis=-1, keepdims=True)
                    m[:, empty] = 0.0
                quiet = None if shift else "ignore"  # only the unshifted try may overflow
                with np.errstate(over=quiet, invalid=quiet):
                    _exp_scores(e, m, floor)
                    total = e.sum(axis=-1, keepdims=True)
                    total[:, empty] = 1.0  # empty rows stay exactly zero
                    e = np.matmul(e, vh[:, cols])  # the block's output; the scores go
                if shift or (_LOW <= total.min() and total.max() <= _HIGH
                             and np.isfinite(e).all()):
                    break
            rowmax[:, rows], denom[:, rows] = m, total
            e /= total
            # through the rows, not the strided head view: numpy buffers that add
            out[rows] += e.transpose(1, 0, 2).reshape(e.shape[1], -1)
            block = next(plan, None)
        if extra is not None and band.key_ok[a:b].any():
            own = slice(a - c0, b - c0)
            e = _masked_scores(extra_qh, kh[:, own], extra_bias[:, a:b], alpha)
            top = np.maximum(e_max, e.max(axis=-1, keepdims=True))
            scale = np.exp(e_max - top)  # 0 before the first chunk with a valid key
            e -= top
            np.exp(e, out=e)
            e_sum *= scale
            e_sum += e.sum(axis=-1, keepdims=True)
            e_out *= scale
            e_out += np.matmul(e, vh[:, own])
            e_max = top
        qh = kh = vh = e = None  # freed before the next chunk builds its own
    if extra is not None:  # after every banded block, which hides these rows
        counts[extra] = extra_seen
        rowmax[:, extra], denom[:, extra] = e_max, e_sum
        e_out /= e_sum
        out[extra] += e_out.transpose(1, 0, 2).reshape(len(extra), -1)
    return counts, rowmax, denom


def _replay_probs(
    qr: np.ndarray, kc: np.ndarray, bias: np.ndarray, rowmax: np.ndarray, floor: bool,
    alpha: float,
) -> np.ndarray:
    """A block's forward ``exp(scores + bias - rowmax)`` (h, rows, cols), by the forward's ops.

    ``_exp_scores`` skips a shift that is 0 on every row, as the forward
    does, and then floors at the block's ``floor``.  Unnormalized: divided by
    the rows' ``denom`` they are the block's probabilities.
    """
    e = _masked_scores(qr, kc, bias, alpha)
    return _exp_scores(e, rowmax, floor)


def _view(mat: np.ndarray) -> np.ndarray:
    """A freshly built (rows, d) input, marked read-only."""
    mat.flags.writeable = False
    return mat


def _pooling_op(params: LayerParams, config: LayerConfig, i: int) -> PoolingOp:
    """The pooling of the second level's keys (i=1) or values (2)."""
    return PoolingOp(config.pooling_kind, (params.w_p_key, params.w_p_value)[i - 1])


def _retained(arr: np.ndarray | None, what: str) -> np.ndarray:
    if arr is None:
        raise ValueError(f"a retain=False forward keeps no {what}; run it with retain=True")
    return arr


@dataclass
class _LevelTrace:
    """What both levels' traces keep: the inputs, counts, band and row statistics.

    ``rowmax`` is the shift each row's exp took: its row maximum, or 0 where
    its block kept its unshifted exp, its denominators within e^+-BOUND;
    ``denom`` the softmax denominator.  ``attention_rows`` reads the level's queries and keys
    through the subclass's ``_input(0)`` and ``_input(1)``.
    """

    batch: SequenceBatch
    params: LayerParams
    config: LayerConfig
    counts: np.ndarray
    band: _Band
    rowmax: np.ndarray
    denom: np.ndarray

    def attention_rows(self) -> list[np.ndarray]:
        """Per-token attention weights over the level's visible keys (tokens or pooled
        segments), ragged: token i -> (n_heads, |field(i)|)."""
        config, q, k = self.config, self._input(0), self._input(1)
        alpha = config.alpha()
        qh, kh = _heads(q, config.n_heads), _heads(k, config.n_heads)
        tokens = np.arange(len(q))
        out: list[np.ndarray] = [np.zeros((config.n_heads, 0))] * len(q)
        for rows, cols, bias, _, floor in _blocks(self.band, config.w1):
            probs = _replay_probs(qh[:, rows], kh[:, cols], bias, self.rowmax[:, rows], floor,
                                  alpha)
            probs /= self.denom[:, rows]
            visible = np.broadcast_to(bias == 0.0, probs.shape[1:])
            for r, tok in enumerate(tokens[rows]):
                if visible[r].any():
                    out[int(tok)] = probs[:, r, visible[r]]
        return out


@dataclass
class FirstLevelTrace(_LevelTrace):
    """The first level's output, counts, band and statistics; ``q``, ``k``, ``v`` re-project.

    ``y`` is None in the trace of a ``retain=False`` forward.
    """

    y: np.ndarray | None

    def _input(self, i: int) -> np.ndarray:
        """q (i=0), k (1) or v (2): the embeddings projected."""
        return project(self.batch.embeddings, *self.params.first.pairs()[i])

    q = property(lambda self: _view(self._input(0)))
    k = property(lambda self: _view(self._input(1)))
    v = property(lambda self: _view(self._input(2)))


@dataclass
class SecondLevelTrace(_LevelTrace):
    """The second level's source, grid, counts, band and row statistics; no output.

    Every view re-projects ``source`` on access; ``k2`` and ``v2`` are its
    unpooled keys and values, and ``z`` re-runs the level, bitwise the output
    the forward returned.  The trace of a ``retain=False`` forward refuses
    ``z``, and ``layer_forward(retain=False)`` adds z into y, so without
    ``mix`` its trace has no ``source`` either (None) and its views raise.
    """

    source: np.ndarray | None
    grid: PooledGrid
    degenerate: np.ndarray
    retain: bool

    def _source(self) -> np.ndarray:
        return _retained(self.source, "second-level source: layer_forward added z into y")

    def _projected(self, i: int) -> np.ndarray:
        """q2 (i=0), or the unpooled keys (1) or values (2): the source projected."""
        return project(self._source(), *self.params.second.pairs()[i])

    def _input(self, i: int) -> np.ndarray:
        """q2 (i=0), the pooled keys (1) or the pooled values (2)."""
        if i == 0:
            return self._projected(0)
        op = _pooling_op(self.params, self.config, i)
        return pool_grid(op, self._projected(i), self.grid, self.batch.pad_mask)

    q2 = property(lambda self: _view(self._input(0)))
    pooled_k = property(lambda self: _view(self._input(1)))
    pooled_v = property(lambda self: _view(self._input(2)))
    k2 = property(lambda self: _view(self._projected(1)))
    v2 = property(lambda self: _view(self._projected(2)))

    @property
    def z(self) -> np.ndarray:
        if not self.retain:
            raise ValueError("a retain=False forward keeps no z; run it with retain=True")
        return _view(_second_level(self.batch, self._source(), self.params, self.config)[0])


@dataclass
class AttentionTrace:
    """Everything a layer forward produced, enough to replay it backward."""

    first: FirstLevelTrace
    second: SecondLevelTrace
    final: np.ndarray

    @property
    def batch(self) -> SequenceBatch:
        return self.first.batch

    @property
    def y(self) -> np.ndarray:
        return _retained(self.first.y, "y")

    @property
    def z(self) -> np.ndarray:
        return self.second.z

    @property
    def first_counts(self) -> np.ndarray:
        return self.first.counts

    @property
    def second_counts(self) -> np.ndarray:
        return self.second.counts

    @property
    def degenerate_second(self) -> np.ndarray:
        return self.second.degenerate


def _first_chunks(
    x: np.ndarray, params: LayerParams, glob: np.ndarray
) -> tuple[Callable, Callable, Callable]:
    """The first level's ``queries(rows)``, ``keys(c0, c1)`` and ``releases(d_x, d_pairs)``:
    the queries of a row slice or of the global rows' indices, the keys and values of rows
    c0..c1 followed by the global rows', and the ``release_q`` and ``release`` callbacks
    of ``_banded_backward``, which take released rows through the projection backward
    into ``d_x`` and the flat (d_w, d_b, ...) ``d_pairs``.

    ``release_q`` overwrites its rows of ``d_x``, which may be the upstream's
    buffer: a chunk's query release is the first write to its rows, after
    every block reading their upstream; their key and value releases come
    later and add.
    """
    pairs = params.first.pairs()

    def keys(c0, c1):
        rows = np.r_[c0:c1, glob]
        xs = x[rows]
        return project(xs, *pairs[1], tokens=rows), project(xs, *pairs[2], tokens=rows)

    def releases(d_x, d_pairs):
        def release_q(a, b, d_q):
            d_x[a:b] = 0.0
            _projection_backward(x[a:b], pairs[:1], [d_q], d_x[a:b], d_pairs[:2])

        def release(lo, hi, d_k, d_v):
            _projection_backward(x[lo:hi], pairs[1:], [d_k, d_v], d_x[lo:hi], d_pairs[2:])

        return release_q, release

    return lambda rows: project(x[rows], *pairs[0], tokens=np.r_[rows]), keys, releases


def _check_finite(out: np.ndarray, stage: str, scores: str) -> None:
    """The level's overflow error, naming the first token of ``out`` that is not finite."""
    if not np.isfinite(out).all():
        token = np.argwhere(~np.isfinite(out))[0, 0]
        raise ValueError(
            f"{stage}: non-finite output; the scaled {scores} scores "
            f"overflow float64, first at token {token}"
        )


def first_level_forward(
    batch: SequenceBatch,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
) -> tuple[np.ndarray, FirstLevelTrace]:
    """Sliding-window attention with global tokens (the first level).

    Every real token attends to its clipped radius-w1 window plus all global
    tokens; global tokens attend to every real token.  Padding tokens yield
    zero rows and are invisible as keys.  No whole projection is held
    (``_first_chunks``).  The trace keeps y unless ``retain`` is False.
    """
    params.validate(config)
    x, pad = batch.embeddings, batch.pad_mask
    n, d = x.shape
    if n < 1:
        raise ValueError("sequence must have at least one token")
    if d != config.d_model:
        raise ValueError(f"batch dimension {d} does not match config d_model {config.d_model}")
    glob = np.asarray(batch.global_set, dtype=np.int64)
    is_global = np.zeros(n, dtype=bool)
    is_global[glob] = True
    band = _Band(
        partial(window_bounds, w=config.w1, n=n), row_ok=pad, key_ok=pad,
        extra=is_global if glob.size else None,
    )
    y = np.zeros((n, d))
    counts, rowmax, denom = _banded_attention(band, config, *_first_chunks(x, params, glob)[:2], y)
    blind = band.row_ok & (counts == 0)
    if blind.any():
        raise ValueError(
            f"malformed batch: the receptive field of token {int(np.argmax(blind))} "
            "is entirely padding"
        )
    _check_finite(y, "first_level_forward", "query-key")
    return y, FirstLevelTrace(
        batch, params, config, counts, band, rowmax, denom, y if retain else None
    )


def _second_chunks(
    source: np.ndarray, params: LayerParams, config: LayerConfig, grid: PooledGrid,
    pad: np.ndarray, band: _Band,
) -> tuple[Callable, Callable, Callable]:
    """The second level's ``queries(rows)``, ``keys(c0, c1)`` and ``releases(d_src, d_pairs,
    d_wp)``: the q2 of a row slice of ``source``, its pooled key and value segments c0 to
    c1 from one rolling window of segments per grid, and the ``release_q`` and ``release``
    callbacks of ``_banded_backward``, which take released gradients through the pooling
    and projection backward into ``d_src``, the flat (d_w, d_b, ...) ``d_pairs`` and the
    pooling weights' ``d_wp``.

    Every pooling call, forward and backward, comes from one generator,
    ``calls(lo, hi)``, over the rows of segments lo..hi: ``_chunk_size(xi)``
    rows at a time, each call reading the kappa - xi halo past them
    (``pool_grid_rows``), up to segment hi's start or the last segment's
    stride step, so no call reads a padded tail; each call slices its segments
    from ``grid``, the level's one grid.  ``keys``, called once per
    chunk of ``band``'s rows, in order, drops the segments below c0, keeps
    those it holds, and pools only the new ones, so every segment is pooled
    once, with ``pool_grid``'s bits.  It also pools every segment that starts
    before the chunk's end, whether or not the chunk's rows see it: a forward
    that adds z into its own source has pooled each segment before z reaches
    its rows.  Each window is allocated once, at the widest chunk, and
    shifted in place.

    ``release(lo, hi, d_k, d_v)`` takes segments lo..hi's gradients through
    ``pool_grid_rows_backward`` over their re-projected keys, then values,
    call by call, each call's halo rows' gradient carried into the next,
    which starts where it stopped.  ``d_src`` may be the upstream (without
    mix both are d_y), so no release may add into a valid row whose upstream
    a later block reads.  None does: a kept segment starting at or after the
    next chunk's first row has its center not left of that row's window, so
    its index is at least that chunk's c0, and a release reaches only
    segments below it.  A valid row at or past that first row lies in the
    kept segment starting in its stride step, at or after that first row, so
    no release has reached it; any row a release writes there is padding,
    and gets exactly zero.
    """
    (n, d), halo, starts = source.shape, config.kappa - config.xi, grid.segment_starts
    ops = [_pooling_op(params, config, i) for i in (1, 2)]
    pq, *pairs = params.second.pairs()
    size = _chunk_size(config.xi)  # rows per pooling call, whole stride steps

    def calls(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
        # each call's rows start..stop and the segments first..last starting there
        if hi <= lo:  # an all-padding batch has an empty grid
            return
        # to segment hi's start, or the last one's stride step: no padded tail
        end = int(starts[hi]) if hi < len(grid) else min(n, int(starts[-1]) + config.xi)
        for start in range(int(starts[lo]), end, size):
            stop = min(end, start + size)
            first, last = (int(j) for j in np.searchsorted(starts, (start, stop)))
            yield start, stop, first, last

    def unpooled(i: int, start: int, stop: int) -> np.ndarray:
        # the keys (i=0) or values (1) a call pools: its rows and the halo
        last = min(n, stop + halo)
        return project(source[start:last], *pairs[i], tokens=range(start, last))

    # each chunk's segments: its union's, and every one starting before its end
    a, b = np.array(row_chunks(n, _block_size(band, config.w1))).T
    ends = np.maximum(band.bounds(b - 1)[1], np.searchsorted(starts, b))
    windows = [np.empty((int((ends - band.bounds(a)[0]).max()), d)) for _ in ops]
    ends = iter(ends.tolist())  # ``keys`` is called once per chunk, in order
    h0 = h1 = 0  # the windows hold segments h0 to h1

    def keys(c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal h0, h1
        end = next(ends)
        if c0 > h0:  # c0 <= h1: a row's lo never passes the row before's hi
            for win in windows:  # one-dimensional, numpy shifts it without a copy
                flat = win.reshape(-1)
                flat[:(h1 - c0) * d] = flat[(c0 - h0) * d:(h1 - h0) * d]
        for start, stop, lo, hi in calls(h1, end):
            for i, win in enumerate(windows):
                win[lo - c0:hi - c0] = pool_grid_rows(ops[i], unpooled(i, start, stop), grid, pad,
                                                      start, stop)
        h0, h1 = c0, end
        return windows[0][:c1 - c0], windows[1][:c1 - c0]

    def releases(d_src, d_pairs, d_wp):
        carry = [np.zeros((0, d))] * 2  # the gradient of the rows past the last call's

        def release_q(a, b, d_q):
            _projection_backward(source[a:b], [pq], [d_q], d_src[a:b], d_pairs[:2])

        def release(lo, hi, d_k, d_v):
            for start, stop, first, last in calls(lo, hi):
                grads = []
                for i, pooled in enumerate((d_k, d_v)):
                    g, d_w = pool_grid_rows_backward(ops[i], unpooled(i, start, stop), grid, pad,
                                                     start, stop, pooled[first - lo:last - lo])
                    g[:len(carry[i])] += carry[i]
                    carry[i] = g[stop - start:].copy()
                    grads.append(g[:stop - start])
                    if d_w is not None:
                        d_wp[i] += d_w
                _projection_backward(source[start:stop], pairs, grads, d_src[start:stop],
                                     d_pairs[2:])

        return release_q, release

    return lambda rows: project(source[rows], *pq, tokens=np.r_[rows]), keys, releases


def _second_level(
    batch: SequenceBatch, y: np.ndarray, params: LayerParams, config: LayerConfig, *,
    into: np.ndarray | None = None, retain: bool = True,
) -> tuple[np.ndarray, SecondLevelTrace]:
    """``second_level_forward``, which with ``into`` adds z into that array and returns it.

    The chunks' keys and values come from one rolling window of pooled
    segments (``_second_chunks``), so ``into`` may be the source.  Without
    ``retain`` the trace refuses ``z``.  ``params`` are already validated.
    """
    n, d = batch.embeddings.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n, d):
        raise ValueError(f"y must be ({n}, {d}), got {y.shape}")
    src = batch.embeddings if config.mix else y
    pad = batch.pad_mask
    grid = build_pooled_grid(n, config.kappa, config.xi, pad)
    band = _Band(partial(segment_bounds, w2=config.w2, grid=grid), row_ok=pad, step=config.xi)
    out = np.zeros((n, d)) if into is None else into
    counts, rowmax, denom = _banded_attention(
        band, config, *_second_chunks(src, params, config, grid, pad, band)[:2], out
    )
    degenerate = pad & (counts == 0)
    _check_finite(out, "second_level_forward", "query-segment")
    return out, SecondLevelTrace(
        batch, params, config, counts, band, rowmax, denom, None if src is into else src, grid,
        degenerate, retain,
    )


def second_level_forward(
    batch: SequenceBatch,
    y: np.ndarray,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
) -> tuple[np.ndarray, SecondLevelTrace]:
    """Attention over pooled key/value grids (the second level).

    Keys and values are projected from the first-level output (or the raw
    embeddings in the mix setting), pooled once over a shared stride grid, and
    each token attends to the segments whose center lies within its radius-w2
    window.  A token with no visible segment gets a zero row, flagged in the
    trace.  No whole pooled grid is held (``_second_chunks``).  The trace
    keeps no z: its ``z`` re-runs the level, and with ``retain=False``
    refuses.
    """
    params.validate(config)
    return _second_level(batch, y, params, config, retain=retain)


def layer_forward(
    batch: SequenceBatch,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
) -> tuple[np.ndarray, AttentionTrace]:
    """Full layer: first level, second level, residual sum of the two outputs.

    Each level frees its projections and pooled segments when it returns.  The
    second level adds z into the output's buffer, bitwise ``y + z``: with
    ``retain`` (the default) a copy of y, so the trace keeps y and the output,
    but no z (its ``z`` re-runs the second level), and ``layer_backward`` can
    differentiate it.  With ``retain=False`` (inference) the buffer is y's own;
    the trace keeps counts, flags and row statistics but no y, and refuses z,
    so it cannot be differentiated.
    """
    y, first = first_level_forward(batch, params, config, retain=retain)
    final, second = _second_level(
        batch, y, params, config, into=y.copy() if retain else y, retain=retain
    )
    return final, AttentionTrace(first, second, final)


@dataclass
class LayerGrads:
    """Gradients mirroring LayerParams plus the input-embedding gradient.

    ``layer_backward``'s releases add each level's contributions into these
    arrays.  With shared projections, ``first`` and ``second`` are the same
    triple, which both levels' releases add into.
    """

    first: ProjectionTriple
    second: ProjectionTriple
    w_p_key: np.ndarray | None
    w_p_value: np.ndarray | None
    embeddings: np.ndarray


def _block_backward(
    qr: np.ndarray, kc: np.ndarray, vc: np.ndarray, up: np.ndarray, out: np.ndarray | None,
    bias: np.ndarray, rowmax: np.ndarray, denom: np.ndarray, floor: bool, alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's attention backward: (d_q, d_k, d_v) as (rows, d) and (cols, d) row matrices.

    The block's queries ``qr``, keys ``kc`` and values ``vc``, and its rows'
    upstream ``up`` and output ``out``, are head views, (n_heads, rows or
    cols, d/h).  The block's unnormalized probabilities ``e`` are replayed from
    the rows' statistics, whatever partition the forward ran, and all heads go
    through one batched matmul per product, as in the forward.  The softmax
    backward is ``e * (dO v^T - D) / denom`` with FlashAttention-2's
    ``D = rowsum(dO * O)`` per head and row, or, with ``out`` None, where
    every key the block's rows see is one of its columns, the equal
    ``D = rowsum(P * dP)``, summed over the block's columns.  Each product is
    written through a head view of its row matrix, so the caller adds whole
    rows.
    """
    (n_heads, rows, dh), cols = qr.shape, kc.shape[1]
    d_q, d_k, d_v = (np.empty((m, n_heads * dh)) for m in (rows, cols, cols))
    e = _replay_probs(qr, kc, bias, rowmax, floor, alpha)
    du = up / denom
    np.matmul(e.transpose(0, 2, 1), du, out=_heads(d_v, n_heads))
    ds = np.matmul(du, vc.transpose(0, 2, 1))  # dP / denom
    if out is None:  # rowsum(e * ds) is rowsum(P * dP); a batched dot product per row
        d_row = np.matmul(e[..., None, :], ds[..., None])[..., 0]
        d_row /= denom
    else:
        d_row = np.einsum("hrc,hrc->hr", du, out)[..., None]
    ds -= d_row  # D / denom
    ds *= e
    del e
    np.matmul(ds, kc, out=_heads(d_q, n_heads))
    d_q *= alpha
    np.matmul(ds.transpose(0, 2, 1), qr, out=_heads(d_k, n_heads))
    d_k *= alpha
    return d_q, d_k, d_v


def _projection_backward(
    source: np.ndarray, pairs, grads: list[np.ndarray], d_source: np.ndarray,
    d_pairs: list[np.ndarray],
) -> None:
    """Backward of projections ``source @ w.T + b`` of (rows, d) gradients ``grads``: adds
    each ``g @ w`` into ``d_source`` in order, as in ``d_q @ w_q + d_k @ w_k``, and each
    (d_w, d_b) into ``d_pairs``, flat (d_w, d_b, ...) in the order of ``pairs``' (w, b)."""
    for (w, _), g, d_w, d_b in zip(pairs, grads, d_pairs[::2], d_pairs[1::2]):
        d_source += g @ w
        d_w += g.T @ source
        d_b += g.sum(axis=0)


def _banded_backward(
    band: _Band, config: LayerConfig, queries: Callable[[slice | np.ndarray], np.ndarray],
    keys: Callable[[int, int], tuple[np.ndarray, np.ndarray]], up: np.ndarray,
    out: np.ndarray | None, rowmax: np.ndarray, denom: np.ndarray,
    release_q: Callable[[int, int, np.ndarray], None],
    release: Callable[[int, int, np.ndarray, np.ndarray], None],
) -> list[np.ndarray]:
    """The backward of ``_banded_attention``, streamed over the same row chunks.

    ``queries`` and ``keys`` are the level's pair, as the forward read them.
    Per chunk of rows a..b, ``keys(c0, c1)`` and ``queries(slice(a, b))``
    give what the forward read, and each block runs ``_block_backward`` with
    its rows' upstream ``up``, output ``out`` (None: D from each block's own
    probabilities) and statistics; the extra rows' block (queries
    ``queries(extra)``, projected once) is replayed against the chunk's own
    rows, its query gradient summed over the chunks.  Key and value
    gradients sum in one buffer each, laid out as ``keys``: the union, then
    the extra keys.  Then ``release_q(a, b, d_q)`` takes the chunk's query
    gradient and ``release(c0, final, d_k, d_v)`` the union rows below the
    next chunk's union (at the last chunk, all), which no later block reads;
    the rest carry into the next chunk.  No release precedes a block reading
    its rows' upstream; the extra rows' is read from a copy.  Returns the
    extra rows' query, key and value gradients, (extras, d) each.
    """
    n, d, n_heads = band.row_ok.shape[0], config.d_model, config.n_heads
    alpha = config.alpha()
    uh = _heads(up, n_heads)
    oh = None if out is None else _heads(out, n_heads)
    plan = _blocks(band, config.w1)
    extra = np.empty(0, dtype=np.int64)
    if band.extra is not None:  # the plan's first block: the extra rows against every key
        extra, _, extra_bias, _, _ = next(plan)
        extra_qh, extra_up, extra_out = _heads(queries(extra), n_heads), uh[:, extra], oh[:, extra]
        extra_stats = rowmax[:, extra], denom[:, extra]
        where = np.empty(n, dtype=np.intp)  # each key's row in the chunk's buffers
    # the extra rows' query gradient; the held union rows, then the extra keys'
    extra_dq, *carry = (np.zeros((len(extra), d)) for _ in range(3))
    chunks = row_chunks(n, _block_size(band, config.w1))
    unions = [(int(band.bounds(a)[0]), int(band.bounds(b - 1)[1])) for a, b in chunks]
    finals = [c0 for c0, _ in unions[1:]] + [unions[-1][1]]
    block = next(plan, None)
    for (a, b), (c0, c1), final in zip(chunks, unions, finals):
        kh, vh = (_heads(m, n_heads) for m in keys(c0, c1))
        qh = _heads(queries(slice(a, b)), n_heads)
        d_q = np.zeros((b - a, d))
        d_k, d_v = grads = [np.zeros((c1 - c0 + len(extra), d)) for _ in carry]
        held = len(carry[0]) - len(extra)  # union rows the chunk before left
        for g, c in zip(grads, carry):
            g[:held], g[c1 - c0:] = c[:held], c[held:]
        carry = c = None  # not held through the chunk
        if extra.size:  # the extra keys follow the union
            where[extra] = c1 - c0 + np.arange(len(extra))
            where[c0:c1] = np.arange(c1 - c0)
        while block is not None and block[0].start < b:
            rows, cols, bias, _, floor = block
            local = slice(rows.start - a, rows.stop - a)
            cols = slice(cols.start - c0, cols.stop - c0) if isinstance(cols, slice) else where[cols]
            q_part, k_part, v_part = _block_backward(
                qh[:, local], kh[:, cols], vh[:, cols], uh[:, rows],
                None if oh is None else oh[:, rows], bias, rowmax[:, rows], denom[:, rows], floor,
                alpha,
            )
            d_q[local] += q_part
            d_k[cols] += k_part
            d_v[cols] += v_part
            q_part = k_part = v_part = None
            block = next(plan, None)
        if extra.size and band.key_ok[a:b].any():
            own = slice(a - c0, b - c0)
            q_part, k_part, v_part = _block_backward(
                extra_qh, kh[:, own], vh[:, own], extra_up, extra_out, extra_bias[:, a:b],
                *extra_stats, False, alpha,
            )
            extra_dq += q_part
            d_k[own] += k_part
            d_v[own] += v_part
            q_part = k_part = v_part = None
        qh = kh = vh = None
        release_q(a, b, d_q)
        d_q = None
        if final > c0:
            release(c0, final, d_k[:final - c0], d_v[:final - c0])
        carry = [g[final - c0:].copy() for g in grads]
        d_k = d_v = grads = None
    return [extra_dq, *carry]


def layer_backward(trace: AttentionTrace, upstream: np.ndarray) -> LayerGrads:
    """Exact reverse-mode gradients of ``layer_forward`` for the given upstream.

    The residual sum routes the upstream into both levels; the second level's
    input gradient flows into the first-level output (or directly into the
    embeddings in the mix setting).  Padding rows receive zero gradient.
    Neither the trace nor ``upstream`` is modified.

    Both passes run here, the second level's first, each through
    ``_banded_backward`` with its builder's ``(queries, keys, releases)``, and
    the releases add into the gradients returned.  The second level takes D
    from each block's own probabilities, not from z, and holds no (segments,
    d) gradient.  With shared projections the first level's releases add
    into the second level's triple; otherwise the first level's triple is
    allocated after the second level's pass, where a padded layer's step
    peaks.  The global rows take their projection backward last.
    """
    ft, st = trace.first, trace.second
    config, batch, params = ft.config, ft.batch, ft.params
    if ft.y is None:
        raise ValueError(
            "layer_backward needs a retain=True trace: a retain=False forward keeps no y"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != trace.final.shape:
        raise ValueError(
            f"upstream must have shape {trace.final.shape}, got {upstream.shape}"
        )
    if not np.isfinite(upstream).all():
        row, col = np.argwhere(~np.isfinite(upstream))[0]
        raise ValueError(f"upstream gradient must be finite; first at row {row}, column {col}")
    d_y = upstream * batch.pad_mask[:, None]
    # the second level's input gradient: without mix added into d_y, which then
    # is the first level's whole upstream; with mix an embeddings gradient
    d_src = np.zeros_like(d_y) if config.mix else d_y
    second = ProjectionTriple(*map(np.zeros_like, params.second))
    d_wp = [None if w is None else np.zeros_like(w) for w in (params.w_p_key, params.w_p_value)]
    queries, keys, releases = _second_chunks(st._source(), params, config, st.grid,
                                             batch.pad_mask, st.band)
    _banded_backward(st.band, config, queries, keys, d_y, None, st.rowmax, st.denom,
                     *releases(d_src, second, d_wp))
    first = second
    if not config.share_projections:  # allocated after the second level's pass
        first = ProjectionTriple(*map(np.zeros_like, params.first))
    # the input gradient takes d_y's buffer: each chunk's query release
    # overwrites its rows after every block reading their upstream
    d_x = d_y
    x, glob = batch.embeddings, np.asarray(batch.global_set, dtype=np.int64)
    queries, keys, releases = _first_chunks(x, params, glob)
    extra_grads = _banded_backward(ft.band, config, queries, keys, d_y, ft.y, ft.rowmax,
                                   ft.denom, *releases(d_x, first))
    d_glob = np.zeros((len(glob), x.shape[1]))
    _projection_backward(x[glob], params.first.pairs(), extra_grads, d_glob, first)
    d_x[glob] += d_glob
    if config.mix:
        d_x += d_src
    return LayerGrads(first, second, *d_wp, d_x)


def stack_forward(batch: SequenceBatch, layers, schedule) -> np.ndarray:
    """Sequentially compose layers; each entry of ``schedule`` picks the mode.

    ``layers`` is a sequence of (config, params) pairs and ``schedule`` a
    same-length sequence of "sliding_only" / "two_level".  Sliding-only layers
    skip the second level entirely, but every layer's params are validated
    against its whole config, second level and pooling weights included, so a
    sliding-only layer still holds what its pooling kind needs.  Every layer's
    mode, width and params are checked before any layer runs.
    """
    layers = list(layers)
    schedule = list(schedule)
    if len(layers) != len(schedule):
        raise ValueError(
            f"schedule length {len(schedule)} does not match layer count {len(layers)}"
        )
    for depth, ((config, params), mode) in enumerate(zip(layers, schedule)):
        if config.d_model != batch.d:
            raise ValueError(
                f"layer {depth} d_model {config.d_model} does not match batch width {batch.d}"
            )
        if mode not in SCHEDULE_MODES:
            raise ValueError(f"schedule mode must be one of {SCHEDULE_MODES}, got {mode!r}")
        params.validate(config)
    x = batch.embeddings
    for (config, params), mode in zip(layers, schedule):
        current = SequenceBatch(x, batch.pad_mask, batch.global_set)
        if mode == "sliding_only":
            x, _ = first_level_forward(current, params, config, retain=False)
        else:
            x, _ = layer_forward(current, params, config, retain=False)
    return x
