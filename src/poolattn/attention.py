"""The two-level attention layer: forward passes, traces, and analytic backward.

The fast path never materializes an n-by-n score matrix.  Both levels run one
banded driver (``_banded_attention``): each row sees an interval of keys
(tokens within w1, or pooled segments centered within w2) plus, at the first
level, the global columns; a global row sees every valid key.  One generator
(``_blocks``) yields a band's blocks, each with its 0/-inf mask bias and
visible-key counts, for the forward, the backward and ``attention_rows``: the
global rows first, as one block against every key with one bias row over the
valid keys, then slices of consecutive rows whose size follows the
first-level window (``block_rows``, a multiple of the pooling stride at the
second level), cut around each global row.  A slice's bias comes from its own
mask (``_block_mask``), or is shared by a run of slices with like bound
offsets.  Each block scores its rows against the union of their intervals
plus that bias and runs a stable softmax that divides its (rows, d/h)
output, not its probabilities, by the denominator, as FlashAttention does
(arXiv 2205.14135).  Every array the layer keeps is a row matrix: each
level's output, the pooled grids (segments, d) and every gradient.  Heads
are strided column blocks of those rows: ``_heads`` views them as
(n_heads, rows, d/h) without a copy, every head is attended by one batched
matmul reading through such views, and block outputs and gradients are
written through them.

The forwards stream row chunks (``row_chunks``: ``CHUNK_ROWS`` rows, whole
blocks, a short tail folded into the last chunk) and never hold a whole
projection.  Each chunk projects exactly the rows it reads.  The first level
projects a chunk's queries, and its keys and values as one product each over
the chunk's key union, its 2*w1 halo included, followed by the global rows;
the global rows' queries are projected once, and their block runs over the
chunks as an online softmax.  The second level projects and pools its
unpooled keys and values chunk by chunk, with a kappa - xi halo, into the
whole pooled grids (``pool_grid_rows``), then projects q2 per chunk and adds
each chunk's output into its target.  ``core.project`` (the routine
``project_qkv`` uses) gives any slice or gather of rows the bits of the whole
projection, so chunks see bitwise the rows of the whole projection and
pooled segments bitwise as ``pool_grid`` pools them: only the global rows'
online softmax rounds differently from one whole block.

Traces keep each level's counts and band and, per head and row, the softmax
row maximum and denominator (``rowmax``, ``denom``: (n_heads, n, 1) each),
never a projection, a mask, a block's key columns or the probabilities.  The
statistics are per row, so they do not depend on the block or chunk
partition that made them.  One function per level (``_first_input``,
``_second_input``) builds any one of the level's inputs whole from the
trace's batch, params and second-level source, for each read-only view
(``q``, ``pooled_k``, ...) and ``attention_rows``, each building only what
it reads.

The backward streams the same row chunks as the forwards and never holds a
whole projection, unpooled grid or their gradients.  The first level
re-projects each chunk's queries and its gathered key union, runs the
chunk's blocks backward, and replays the global rows' block one column
chunk (the chunk's own rows) at a time; the union rows no later chunk reads
take their projection backward at once, and the 2*w1 halo rows' gradients
and the global rows' (g, d) accumulators carry into the next chunk.  The
second level accumulates the whole pooled grids' gradients, (segments, d)
each, over q2's chunks, then re-projects each chunk's unpooled keys and
values with their kappa - xi halo for ``pool_grid_rows_backward``, carrying
the halo rows' gradient.  Every block replays its unnormalized
probabilities from the rows' statistics with the forward's own operations
and takes FlashAttention-2's ``D = rowsum(dO * O)`` from the kept output
(arXiv 2307.08691); gradient products are written through head views of row
matrices and added row-wise.  Every gradient is exact reverse-mode, shared
projections accumulating both levels' contributions; sums over rows run in
chunk order, so gradients agree with any other chunk size to rounding.

``retain`` (the default) keeps each level's output, y and z, in its trace,
and a training step holds the trace, the masked upstream (whose buffer
becomes the input gradient), the pooled grids and their gradients, and one
chunk: 24.0 MiB on the ``train_ldconv`` benchmark step (n = 8192), as
``costmodel.estimate_training_peak_bytes`` models it.
``layer_forward(retain=False)`` (inference) adds z into y's own buffer, which it returns as the output, bitwise ``y + z``; its trace
keeps counts, flags and statistics but no y or z, so ``layer_backward``
refuses it, and without mix its second-level views, whose source y became
the output, refuse too.  The ``infer_long`` benchmark forward (n = 16384)
peaks at 15.7 MiB.  All computations are pure functions of (batch, params,
config), single-threaded, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    check_pooled,
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
    key's own row sees every valid key.  The bounds' offsets repeat every
    ``step`` rows (the pooling stride at the second level), so ``_blocks``
    sizes its slices in multiples of it.
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


def _block_size(band: _Band, w1: int) -> int:
    """Rows per cell of ``band``'s block grid: ``block_rows``, rounded down to a multiple of
    ``band.step``."""
    return max(band.step, block_rows(band.row_ok.shape[0], w1) // band.step * band.step)


def row_chunks(n: int, block: int) -> list[tuple[int, int]]:
    """The row chunks a forward streams over n rows, as (start, stop) pairs.

    Chunks are ``CHUNK_ROWS`` rounded down to a whole number of ``block``-row
    cells of the level's block grid, at least one, so no block crosses a
    chunk edge; a shorter tail folds into the chunk before it.
    """
    size = max(block, CHUNK_ROWS // block * block)
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size:
        starts.pop()  # the short tail joins the chunk before it
    return list(zip(starts, starts[1:] + [n]))


def _blocks(
    band: _Band, w1: int
) -> Iterator[tuple[slice | np.ndarray, slice | np.ndarray, np.ndarray, np.ndarray]]:
    """A pass's blocks over ``band``, in pass order: (rows, key columns, bias, counts).

    ``bias`` is the block's 0/-inf mask bias, broadcastable to (rows, cols),
    and ``counts`` each row's number of visible keys.  The extra rows come
    first, as one block (an index array) against every key, with a (1, n)
    bias over the valid keys and their count, one number for every row.  The
    other rows go in slices of at most
    ``block_rows(n, w1)`` consecutive rows, rounded down to a multiple of
    ``band.step``: that grid, cut around each extra row.  A slice scores
    against its rows' interval union plus the extras outside it, and is
    skipped if that is empty or none of its rows is valid.  A slice whose
    rows and keys are all valid has its mask fixed by its rows' bound
    offsets from its first column and ``extra[cols]``, so a run of such
    slices shares one bias and counts, built once.
    """
    n, block = band.row_ok.shape[0], _block_size(band, w1)
    extra = np.flatnonzero(band.extra) if band.extra is not None else np.empty(0, np.int64)
    if extra.size:
        yield extra, slice(0, n), np.where(band.key_ok, 0.0, -np.inf)[None], band.key_ok.sum()
    # the grid's and each extra row's bounds
    edge = np.zeros(n + 1, dtype=bool)
    edge[:n:block] = edge[extra] = edge[extra + 1] = edge[n] = True
    edges = np.flatnonzero(edge)
    starts, stops = edges[:-1], edges[1:]
    if extra.size:
        banded = ~band.extra[starts]
        starts, stops = starts[banded], stops[banded]
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
            shared_key, shared = key, (np.where(mask, 0.0, -np.inf), mask.sum(axis=1))
            del mask  # not held while the block is scored
        yield rows, cols, *shared


def _banded_attention(
    band: _Band, config: LayerConfig, queries: Callable[[int, int], np.ndarray],
    keys: Callable[[int, int], tuple[np.ndarray, np.ndarray]], out: np.ndarray, *,
    extra_q: np.ndarray | None = None, add: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked attention of every row under ``band``, streamed over row chunks.

    Per chunk (``row_chunks``) of rows a..b, ``queries(a, b)`` gives their
    queries and ``keys(c0, c1)`` the keys and values of the chunk's key union
    c0..c1, followed by every extra key's; each of the chunk's blocks
    (``_blocks``) gathers its key columns from these.  A block runs a stable
    softmax whose row maximum is taken over visible entries only and divides
    the output, not the probabilities, by the denominator; a row whose
    visible scores overflowed turns NaN, which the level's finiteness check
    reports.  The extra rows (queries ``extra_q``) see every key, so they
    score each chunk's own rows as keys with an online softmax (arXiv
    1805.02867), rescaling what earlier chunks summed whenever the row
    maximum grows.  Each block writes its output rows into ``out``, or with
    ``add`` adds them to it.  Returns each row's count of visible keys and
    the softmax row maximum and denominator, (n_heads, n, 1) each, 0 and 1 on
    rows that see nothing, whose output rows stay untouched.
    """
    n, n_heads = band.row_ok.shape[0], config.n_heads
    alpha = config.alpha()
    out_h = _heads(out, n_heads)
    counts = np.zeros(n, dtype=np.int64)
    rowmax, denom = np.zeros((n_heads, n, 1)), np.ones((n_heads, n, 1))
    plan = _blocks(band, config.w1)
    extra = None
    if band.extra is not None:  # the plan's first block: the extra rows against every key
        extra, _, extra_bias, seen = next(plan)
        counts[extra] = seen
        extra_qh = _heads(extra_q, n_heads)
        e_max = np.full((n_heads, len(extra), 1), -np.inf)
        e_sum = np.zeros((n_heads, len(extra), 1))
        e_out = np.zeros((n_heads, len(extra), config.head_dim))
        where = np.empty(n, dtype=np.intp)  # each key's row in the chunk's buffer
    block = next(plan, None)
    for a, b in row_chunks(n, _block_size(band, config.w1)):
        c0, c1 = int(band.bounds(a)[0]), int(band.bounds(b - 1)[1])
        qh = _heads(queries(a, b), n_heads)
        kh, vh = (_heads(m, n_heads) for m in keys(c0, c1))
        if extra is not None:  # the extra keys follow the union
            where[extra] = c1 - c0 + np.arange(len(extra))
            where[c0:c1] = np.arange(c1 - c0)
        while block is not None and block[0].start < b:
            rows, cols, bias, seen = block
            counts[rows] = seen
            cols = slice(cols.start - c0, cols.stop - c0) if isinstance(cols, slice) else where[cols]
            e = _masked_scores(qh[:, rows.start - a:rows.stop - a], kh[:, cols], bias, alpha)
            empty = seen == 0
            m = e.max(axis=-1, keepdims=True)
            m[:, empty] = 0.0
            e -= m
            np.exp(e, out=e)
            total = e.sum(axis=-1, keepdims=True)
            total[:, empty] = 1.0  # empty rows stay exactly zero
            rowmax[:, rows], denom[:, rows] = m, total
            e = np.matmul(e, vh[:, cols])  # the block's output; the scores go
            e /= total
            if add:  # through the rows, not the strided head view: numpy buffers that add
                out[rows] += e.transpose(1, 0, 2).reshape(e.shape[1], -1)
            else:
                out_h[:, rows] = e
            block = bias = None  # not held while the plan builds the next bias
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
    if extra is not None:
        rowmax[:, extra], denom[:, extra] = e_max, e_sum
        out_h[:, extra] = e_out / e_sum
    return counts, rowmax, denom


def _replay_probs(
    qr: np.ndarray, kc: np.ndarray, bias: np.ndarray, rowmax: np.ndarray, alpha: float
) -> np.ndarray:
    """A block's forward ``exp(scores + bias - rowmax)`` (h, rows, cols), by the forward's ops.

    Unnormalized: divided by the rows' ``denom`` they are the block's
    probabilities.
    """
    e = _masked_scores(qr, kc, bias, alpha)
    e -= rowmax
    np.exp(e, out=e)
    return e


def _view(mat: np.ndarray) -> np.ndarray:
    """A freshly built (rows, d) input, marked read-only."""
    mat.flags.writeable = False
    return mat


def _first_input(batch: SequenceBatch, params: LayerParams, i: int) -> np.ndarray:
    """The first level's q (i=0), k (1) or v (2): the embeddings projected."""
    return project(batch.embeddings, *params.first.pairs()[i])


def _pooling_op(params: LayerParams, config: LayerConfig, i: int) -> PoolingOp:
    """The pooling of the second level's keys (i=1) or values (2)."""
    return PoolingOp(config.pooling_kind, (params.w_p_key, params.w_p_value)[i - 1])


def _second_input(
    source: np.ndarray, params: LayerParams, config: LayerConfig, grid: PooledGrid, pad_arg,
    i: int,
) -> np.ndarray:
    """The second level's q2 (i=0), pooled keys (1) or pooled values (2) from ``source``."""
    projected = project(source, *params.second.pairs()[i])
    if i == 0:
        return projected
    return pool_grid(_pooling_op(params, config, i), projected, grid, pad_arg)


def _retained(arr: np.ndarray | None, what: str) -> np.ndarray:
    if arr is None:
        raise ValueError(f"a retain=False forward keeps no {what}; run it with retain=True")
    return arr


@dataclass
class FirstLevelTrace:
    """The first level's output, counts, band and statistics; ``q``, ``k``, ``v`` re-project.

    ``y`` is None in the trace of a ``retain=False`` forward.
    """

    batch: SequenceBatch
    params: LayerParams
    config: LayerConfig
    y: np.ndarray
    counts: np.ndarray
    band: _Band
    rowmax: np.ndarray
    denom: np.ndarray

    def _input(self, i: int) -> np.ndarray:
        return _first_input(self.batch, self.params, i)

    q = property(lambda self: _view(self._input(0)))
    k = property(lambda self: _view(self._input(1)))
    v = property(lambda self: _view(self._input(2)))

    def attention_rows(self) -> list[np.ndarray]:
        """Per-token attention weights, ragged: token i -> (n_heads, |field(i)|)."""
        return _ragged_rows(self, self._input(0), self._input(1))


@dataclass
class SecondLevelTrace:
    """The second level's source, grid, output, counts, band and row statistics.

    Every view re-projects ``source`` on access; ``k2`` and ``v2`` are its
    unpooled keys and values.  A ``retain=False`` forward keeps no ``z``
    (None), and ``layer_forward(retain=False)`` adds z into y, so without
    ``mix`` its trace has no ``source`` either (None) and its views raise.
    """

    batch: SequenceBatch
    params: LayerParams
    config: LayerConfig
    source: np.ndarray | None
    grid: PooledGrid
    z: np.ndarray | None
    counts: np.ndarray
    degenerate: np.ndarray
    band: _Band
    rowmax: np.ndarray
    denom: np.ndarray
    _pad_arg: np.ndarray | None

    def _source(self) -> np.ndarray:
        return _retained(self.source, "second-level source: layer_forward added z into y")

    def _input(self, i: int) -> np.ndarray:
        return _second_input(self._source(), self.params, self.config, self.grid, self._pad_arg, i)

    q2 = property(lambda self: _view(self._input(0)))
    pooled_k = property(lambda self: _view(self._input(1)))
    pooled_v = property(lambda self: _view(self._input(2)))
    k2 = property(lambda self: _view(project(self._source(), *self.params.second.pairs()[1])))
    v2 = property(lambda self: _view(project(self._source(), *self.params.second.pairs()[2])))

    def attention_rows(self) -> list[np.ndarray]:
        """Per-token weights over visible pooled segments, ragged."""
        return _ragged_rows(self, self._input(0), self._input(1))


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
        return _retained(self.second.z, "z")

    @property
    def first_counts(self) -> np.ndarray:
        return self.first.counts

    @property
    def second_counts(self) -> np.ndarray:
        return self.second.counts

    @property
    def degenerate_second(self) -> np.ndarray:
        return self.second.degenerate


def _ragged_rows(
    level: FirstLevelTrace | SecondLevelTrace, q: np.ndarray, k: np.ndarray
) -> list[np.ndarray]:
    config, band = level.config, level.band
    alpha = config.alpha()
    qh, kh = _heads(q, config.n_heads), _heads(k, config.n_heads)
    tokens = np.arange(len(q))
    out: list[np.ndarray] = [np.zeros((config.n_heads, 0))] * len(q)
    for rows, cols, bias, _ in _blocks(band, config.w1):
        probs = _replay_probs(qh[:, rows], kh[:, cols], bias, level.rowmax[:, rows], alpha)
        probs /= level.denom[:, rows]
        visible = np.broadcast_to(bias == 0.0, probs.shape[1:])
        for r, tok in enumerate(tokens[rows]):
            if visible[r].any():
                out[int(tok)] = probs[:, r, visible[r]]
    return out


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
    zero rows and are invisible as keys.  Queries are projected per chunk,
    keys and values per chunk's key union and the global tokens, and the
    global tokens' queries once.  The trace keeps y unless ``retain`` is False.
    """
    params.validate(config)
    x, pad = batch.embeddings, batch.pad_mask
    n, d = x.shape
    if n < 1:
        raise ValueError("sequence must have at least one token")
    if d != config.d_model:
        raise ValueError(f"batch dimension {d} does not match config d_model {config.d_model}")
    pq, pk, pv = params.first.pairs()
    glob = np.asarray(batch.global_set, dtype=np.int64)
    is_global = np.zeros(n, dtype=bool)
    is_global[glob] = True
    band = _Band(
        partial(window_bounds, w=config.w1, n=n), row_ok=pad, key_ok=pad,
        extra=is_global if glob.size else None,
    )
    gq = project(x[glob], *pq, tokens=glob) if glob.size else None

    def keys(c0, c1):  # the union's rows, then the global rows'
        rows = np.r_[c0:c1, glob]
        xs = x[rows]
        return project(xs, *pk, tokens=rows), project(xs, *pv, tokens=rows)

    y = np.zeros((n, d))
    counts, rowmax, denom = _banded_attention(
        band, config, lambda a, b: project(x[a:b], *pq, tokens=range(a, b)), keys, y,
        extra_q=gq,
    )
    blind = band.row_ok & (counts == 0)
    if blind.any():
        raise ValueError(
            f"malformed batch: the receptive field of token {int(np.argmax(blind))} "
            "is entirely padding"
        )

    y[~pad] = 0.0
    if not np.isfinite(y).all():
        token = np.argwhere(~np.isfinite(y))[0, 0]
        raise ValueError(
            "first_level_forward: non-finite output; the scaled query-key scores "
            f"overflow float64, first at token {token}"
        )
    return y, FirstLevelTrace(
        batch, params, config, y if retain else None, counts, band, rowmax, denom
    )


def _pooled_grids(
    source: np.ndarray, params: LayerParams, config: LayerConfig, grid: PooledGrid, pad_arg,
    chunks: list[tuple[int, int]],
) -> list[np.ndarray]:
    """The pooled keys and values of ``source``, pooled chunk by chunk into whole grids.

    A chunk's unpooled keys and values span its rows and a kappa - xi halo
    past them; pooled with ``pool_grid_rows``, every segment has
    ``pool_grid``'s bits.
    """
    n, halo = len(source), config.kappa - config.xi
    ops = [_pooling_op(params, config, i) for i in (1, 2)]
    pairs = params.second.pairs()[1:]
    pooled = [np.empty((len(grid), source.shape[1])) for _ in ops]
    for a, b in chunks:
        first, last = np.searchsorted(grid.segment_starts, (a, b))
        stop = min(n, b + halo)
        for op, pair, out in zip(ops, pairs, pooled):
            rows = project(source[a:stop], *pair, tokens=range(a, stop))
            out[first:last] = pool_grid_rows(op, rows, grid, pad_arg, a, b)
    return [check_pooled(op, out) for op, out in zip(ops, pooled)]


def _second_level(
    batch: SequenceBatch, y: np.ndarray, params: LayerParams, config: LayerConfig, *,
    into: np.ndarray | None = None, retain: bool = True,
) -> tuple[np.ndarray, SecondLevelTrace]:
    """``second_level_forward``, which with ``into`` adds z into that array and returns it."""
    params.validate(config)
    n, d = batch.embeddings.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n, d):
        raise ValueError(f"y must be ({n}, {d}), got {y.shape}")
    src = batch.embeddings if config.mix else y
    pad = batch.pad_mask
    pad_arg = None if pad.all() else pad
    grid = build_pooled_grid(n, config.kappa, config.xi, pad_arg)
    band = _Band(partial(segment_bounds, w2=config.w2, grid=grid), row_ok=pad, step=config.xi)
    chunks = row_chunks(n, _block_size(band, config.w1))
    # the grids are whole before any z is added: into may be the source
    pooled_k, pooled_v = _pooled_grids(src, params, config, grid, pad_arg, chunks)
    out = np.zeros((n, d)) if into is None else into
    # a chunk's q2 is projected before its blocks add to ``out``
    pq = params.second.pairs()[0]
    counts, rowmax, denom = _banded_attention(
        band, config, lambda a, b: project(src[a:b], *pq, tokens=range(a, b)),
        lambda c0, c1: (pooled_k[c0:c1], pooled_v[c0:c1]), out, add=into is not None,
    )
    del pooled_k, pooled_v
    degenerate = pad & (counts == 0)

    if not np.isfinite(out).all():
        token = np.argwhere(~np.isfinite(out))[0, 0]
        raise ValueError(
            "second_level_forward: non-finite output; the scaled query-segment scores "
            f"overflow float64, first at token {token}"
        )
    return out, SecondLevelTrace(
        batch, params, config, None if src is into else src, grid,
        out if retain and into is None else None, counts, degenerate, band, rowmax, denom,
        pad_arg,
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
    trace.  Keys and values are projected and pooled chunk by chunk into the
    whole pooled grids, then q2 per chunk.  The trace keeps z unless
    ``retain`` is False.
    """
    return _second_level(batch, y, params, config, retain=retain)


def layer_forward(
    batch: SequenceBatch,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
) -> tuple[np.ndarray, AttentionTrace]:
    """Full layer: first level, second level, residual sum of the two outputs.

    Each level frees its projections and pooled grids when it returns.  With
    ``retain`` (the default) the trace keeps y, z and the output, and
    ``layer_backward`` can differentiate it.  With ``retain=False`` (inference)
    the second level adds z into y's own buffer, which becomes the output,
    bitwise ``y + z``; the trace keeps counts, flags and row statistics but
    no y or z, so it cannot be differentiated.
    """
    y, first = first_level_forward(batch, params, config, retain=retain)
    if retain:
        z, second = second_level_forward(batch, y, params, config)
        final = y + z
    else:
        final, second = _second_level(batch, y, params, config, into=y, retain=False)
    return final, AttentionTrace(first, second, final)


@dataclass
class LayerGrads:
    """Gradients mirroring LayerParams plus the input-embedding gradient.

    With shared projections, ``first`` and ``second`` are the same triple
    holding the sum of both levels' contributions.
    """

    first: ProjectionTriple
    second: ProjectionTriple
    w_p_key: np.ndarray | None
    w_p_value: np.ndarray | None
    embeddings: np.ndarray


def _block_backward(
    qr: np.ndarray, kc: np.ndarray, vc: np.ndarray, up: np.ndarray, out: np.ndarray,
    bias: np.ndarray, rowmax: np.ndarray, denom: np.ndarray, alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's attention backward: (d_q, d_k, d_v) as (rows, d) and (cols, d) row matrices.

    The block's queries ``qr``, keys ``kc`` and values ``vc``, and its rows'
    upstream ``up`` and output ``out``, are head views, (n_heads, rows or
    cols, d/h).  The block's unnormalized probabilities ``e`` are replayed from
    the rows' statistics, whatever partition the forward ran, and all heads go
    through one batched matmul per product, as in the forward.  With
    FlashAttention-2's ``D = rowsum(dO * O)`` per head and row, the softmax
    backward is ``e * (dO v^T - D) / denom``.  Each product is written through
    a head view of its row matrix, so the caller adds whole rows.
    """
    (n_heads, rows, dh), cols = qr.shape, kc.shape[1]
    d_q, d_k, d_v = (np.empty((m, n_heads * dh)) for m in (rows, cols, cols))
    e = _replay_probs(qr, kc, bias, rowmax, alpha)
    du = up / denom
    np.matmul(e.transpose(0, 2, 1), du, out=_heads(d_v, n_heads))
    ds = np.matmul(du, vc.transpose(0, 2, 1))
    ds -= np.einsum("hrc,hrc->hr", du, out)[..., None]  # D / denom
    ds *= e
    del e
    np.matmul(ds, kc, out=_heads(d_q, n_heads))
    d_q *= alpha
    np.matmul(ds.transpose(0, 2, 1), qr, out=_heads(d_k, n_heads))
    d_k *= alpha
    return d_q, d_k, d_v


def _projection_backward(
    source: np.ndarray, pairs, grads: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward of projections ``source @ w.T + b``: returns (d_source, [d_w, d_b, ...]).

    ``pairs`` are the projections' (w, b) and ``grads`` their (rows, d)
    gradients, in the same order; the ``g @ w`` terms are added in that
    order, as in ``d_q @ w_q + d_k @ w_k + d_v @ w_v``.
    """
    d_source, out = None, []
    for (w, _), g in zip(pairs, grads):
        out += [g.T @ source, g.sum(axis=0)]
        if d_source is None:
            d_source = g @ w
        else:
            d_source += g @ w
    return d_source, out


def _accumulate(total: list[np.ndarray] | None, part: list[np.ndarray]) -> list[np.ndarray]:
    """``total`` (None: nothing yet) with ``part`` added in place, item by item."""
    if total is None:
        return part
    for t, p in zip(total, part):
        t += p
    return total


def _first_backward(ft: FirstLevelTrace, d_y: np.ndarray) -> tuple[np.ndarray, ProjectionTriple]:
    """The first level's backward over the forward's row chunks: (d_x, gradient triple).

    A chunk of rows a..b projects its queries, and its keys and values over
    its key union c0..c1 followed by the global rows, as the forward does, and
    runs its blocks backward into q, k and v gradients of that layout; the
    global rows' block is replayed against the chunk's own rows as its key
    columns.  The union rows before the next chunk's union are then final:
    their projection backward is taken at once, and the rest of the
    gradients, the 2*w1 halo rows and the global rows' (g, d) accumulators,
    carry into the next chunk.  The global rows' projection backward comes
    last.  ``d_x`` is ``d_y``'s own buffer: a row's input gradient overwrites
    its upstream once no later block reads it (the global rows' upstream is
    read from a copy).
    """
    config, band = ft.config, ft.band
    x = ft.batch.embeddings
    n, d = x.shape
    alpha, n_heads = config.alpha(), config.n_heads
    pairs = ft.params.first.pairs()
    d_x = d_y
    uh, oh = _heads(d_y, n_heads), _heads(ft.y, n_heads)
    plan = _blocks(band, config.w1)
    glob = np.empty(0, dtype=np.int64)
    if band.extra is not None:  # the plan's first block: the global rows against every key
        glob, _, glob_bias, _ = next(plan)
        glob_qh = _heads(project(x[glob], *pairs[0]), n_heads)
        # copies: d_y's rows are overwritten as the chunks go
        glob_up, glob_out = uh[:, glob], oh[:, glob]
        glob_stats = ft.rowmax[:, glob], ft.denom[:, glob]
        where = np.empty(n, dtype=np.intp)  # each key's row in the chunk's buffers
    chunks = row_chunks(n, _block_size(band, config.w1))
    # each chunk's union rows before the next chunk's union are final after it
    finals = [int(band.bounds(a)[0]) for a, _ in chunks[1:]] + [n]
    carry = [np.zeros((len(glob), d))] * 3
    total = None
    block = next(plan, None)
    for (a, b), final in zip(chunks, finals):
        c0, c1 = int(band.bounds(a)[0]), int(band.bounds(b - 1)[1])
        keys = np.r_[c0:c1, glob]
        xs = x[keys]
        qh = _heads(project(x[a:b], *pairs[0]), n_heads)
        kh, vh = (_heads(project(xs, *pair), n_heads) for pair in pairs[1:])
        del xs
        grads = [np.zeros((len(keys), d)) for _ in range(3)]
        held = len(carry[0]) - len(glob)  # halo rows the previous chunk left
        for g, c in zip(grads, carry):
            g[:held], g[c1 - c0:] = c[:held], c[held:]
        d_q, d_k, d_v = grads
        if glob.size:
            where[glob] = c1 - c0 + np.arange(len(glob))
            where[c0:c1] = np.arange(c1 - c0)
        while block is not None and block[0].start < b:
            rows, cols, bias, _ = block
            cols = slice(cols.start - c0, cols.stop - c0) if isinstance(cols, slice) else where[cols]
            q_part, k_part, v_part = _block_backward(
                qh[:, rows.start - a:rows.stop - a], kh[:, cols], vh[:, cols], uh[:, rows],
                oh[:, rows], bias, ft.rowmax[:, rows], ft.denom[:, rows], alpha,
            )
            d_q[rows.start - c0:rows.stop - c0] += q_part
            d_k[cols] += k_part
            d_v[cols] += v_part
            block = bias = q_part = k_part = v_part = None
            block = next(plan, None)
        if glob.size and band.key_ok[a:b].any():
            own = slice(a - c0, b - c0)
            q_part, k_part, v_part = _block_backward(
                glob_qh, kh[:, own], vh[:, own], glob_up, glob_out, glob_bias[:, a:b],
                *glob_stats, alpha,
            )
            d_q[c1 - c0:] += q_part
            d_k[own] += k_part
            d_v[own] += v_part
            q_part = k_part = v_part = None
        qh = kh = vh = None
        d_src, part = _projection_backward(x[c0:final], pairs, [g[:final - c0] for g in grads])
        d_x[c0:final] = d_src  # no later block reads these rows' upstream
        total = _accumulate(total, part)
        carry = [g[final - c0:].copy() for g in grads]
        grads = d_q = d_k = d_v = d_src = None
    if glob.size:
        d_src, part = _projection_backward(x[glob], pairs, carry)
        d_x[glob] += d_src
        total = _accumulate(total, part)
    return d_x, ProjectionTriple(*total)


def _second_backward(
    st: SecondLevelTrace, d_z: np.ndarray, d_src: np.ndarray
) -> tuple[ProjectionTriple, np.ndarray | None, np.ndarray | None]:
    """The second level's backward over the forward's row chunks; adds its input gradient
    into ``d_src``.

    Pass 1 pools the whole grids as the forward does and, per chunk, projects
    q2 and runs the chunk's blocks backward: q2's projection backward is taken
    at once, and the pooled grids' gradients, (segments, d) each, accumulate
    whole.  Pass 2 re-projects each chunk's unpooled keys, then values, with
    their kappa - xi halo and runs ``pool_grid_rows_backward``; the halo rows'
    part of the gradient carries into the next chunk, and the chunk's k and v
    projection backward is taken.  ``d_z`` is read only in pass 1, so it may
    be ``d_src``.
    """
    config, band, grid = st.config, st.band, st.grid
    src = st.source
    n, d = src.shape
    alpha, n_heads = config.alpha(), config.n_heads
    pairs = st.params.second.pairs()
    chunks = row_chunks(n, _block_size(band, config.w1))
    pooled = _pooled_grids(src, st.params, config, grid, st._pad_arg, chunks)
    d_pooled = [np.zeros_like(m) for m in pooled]
    kh, vh = (_heads(m, n_heads) for m in pooled)
    d_k, d_v = d_pooled
    uh, oh = _heads(d_z, n_heads), _heads(st.z, n_heads)
    plan = _blocks(band, config.w1)
    total = None
    block = next(plan, None)
    for a, b in chunks:
        qh = _heads(project(src[a:b], *pairs[0]), n_heads)
        d_q = np.zeros((b - a, d))
        while block is not None and block[0].start < b:
            rows, cols, bias, _ = block
            local = slice(rows.start - a, rows.stop - a)
            q_part, k_part, v_part = _block_backward(
                qh[:, local], kh[:, cols], vh[:, cols], uh[:, rows], oh[:, rows], bias,
                st.rowmax[:, rows], st.denom[:, rows], alpha,
            )
            d_q[local] += q_part
            d_k[cols] += k_part
            d_v[cols] += v_part
            block = bias = q_part = k_part = v_part = None
            block = next(plan, None)
        qh = None
        d_rows, part = _projection_backward(src[a:b], pairs[:1], [d_q])
        d_src[a:b] += d_rows
        total = _accumulate(total, part)
        d_q = d_rows = None
    del pooled, kh, vh
    ops = [_pooling_op(st.params, config, i) for i in (1, 2)]
    halo = config.kappa - config.xi
    carry = [np.zeros((0, d))] * 2
    d_wp = [None, None]
    kv_total = None
    for a, b in chunks:
        stop = min(n, b + halo)
        first, last = np.searchsorted(grid.segment_starts, (a, b))
        grads = []
        for i in range(2):
            rows = project(src[a:stop], *pairs[1 + i])
            g, d_w = pool_grid_rows_backward(
                ops[i], rows, grid, st._pad_arg, a, b, d_pooled[i][first:last]
            )
            del rows
            g[:len(carry[i])] += carry[i]
            carry[i] = g[b - a:].copy()
            grads.append(g[:b - a])
            d_wp[i] = d_w if d_wp[i] is None else d_wp[i] + d_w
        d_rows, part = _projection_backward(src[a:b], pairs[1:], grads)
        d_src[a:b] += d_rows
        kv_total = _accumulate(kv_total, part)
        grads = d_rows = None
    return ProjectionTriple(*total, *kv_total), *d_wp


def layer_backward(trace: AttentionTrace, upstream: np.ndarray) -> LayerGrads:
    """Exact reverse-mode gradients of ``layer_forward`` for the given upstream.

    The residual sum routes the upstream into both levels; the second level's
    input gradient flows into the first-level output (or directly into the
    embeddings in the mix setting).  Padding rows receive zero gradient.
    Neither the trace nor ``upstream`` is modified.
    """
    ft, st = trace.first, trace.second
    config, batch = ft.config, ft.batch
    if ft.y is None or st.z is None:
        raise ValueError(
            "layer_backward needs a retain=True trace: a retain=False forward keeps no y or z"
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
    second_grads, d_wp_k, d_wp_v = _second_backward(st, d_y, d_src)
    d_x, first_grads = _first_backward(ft, d_y)
    if config.mix:
        d_x += d_src
    d_x *= batch.pad_mask[:, None]

    if config.share_projections:
        total = ProjectionTriple(*(a + b for a, b in zip(first_grads, second_grads)))
        first_grads = second_grads = total
    return LayerGrads(first_grads, second_grads, d_wp_k, d_wp_v, d_x)


def stack_forward(batch: SequenceBatch, layers, schedule) -> np.ndarray:
    """Sequentially compose layers; each entry of ``schedule`` picks the mode.

    ``layers`` is a sequence of (config, params) pairs and ``schedule`` a
    same-length sequence of "sliding_only" / "two_level".  Sliding-only layers
    skip the second level entirely (their second-level parameters are unused).
    Every layer's mode and width are checked before any layer runs.
    """
    layers = list(layers)
    schedule = list(schedule)
    if len(layers) != len(schedule):
        raise ValueError(
            f"schedule length {len(schedule)} does not match layer count {len(layers)}"
        )
    for depth, ((config, _), mode) in enumerate(zip(layers, schedule)):
        if config.d_model != batch.d:
            raise ValueError(
                f"layer {depth} d_model {config.d_model} does not match batch width {batch.d}"
            )
        if mode not in SCHEDULE_MODES:
            raise ValueError(f"schedule mode must be one of {SCHEDULE_MODES}, got {mode!r}")
    x = batch.embeddings
    for (config, params), mode in zip(layers, schedule):
        current = SequenceBatch(x, batch.pad_mask, batch.global_set)
        if mode == "sliding_only":
            x, _ = first_level_forward(current, params, config, retain=False)
        else:
            x, _ = layer_forward(current, params, config, retain=False)
    return x
