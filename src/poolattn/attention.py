"""The two-level attention layer: forward passes, traces, and analytic backward.

The fast path never materializes an n-by-n score matrix.  Tokens are processed
in blocks whose size follows the first-level window (``block_rows``); each
block scores its rows against the union of their windows (plus global
columns), masks per-row, and runs a stable masked softmax.  Global tokens get
a separate full-width pass.  Heads are contiguous slices of the projected
d-model vectors, attended independently (one batched matmul over heads) and
concatenated.

Traces keep, per block, its rows, key columns, mask, and the softmax row
maximum and denominator (two floats per head and row), never the
probabilities.  The backward pass replays each block's probabilities from
those statistics with the forward's own operations, so they are bitwise the
forward's; every gradient is exact reverse-mode, with shared projections
accumulating both levels' contributions.  All computations are pure functions
of (batch, params, config), single-threaded, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poolattn.core import (
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    project_qkv,
)
from poolattn.pooling import PoolingOp, pool_grid, pool_grid_backward
from poolattn.windowing import (
    PooledGrid,
    build_pooled_grid,
    neighbor_set,
    visible_segments,
)

SCHEDULE_MODES = ("sliding_only", "two_level")

# fewest rows per block: below this, per-block Python overhead outweighs the
# scores a smaller key union saves
MIN_BLOCK = 32


def block_rows(n: int, w1: int) -> int:
    """Default rows per block: half the first-level window radius, at least MIN_BLOCK.

    A block of b rows scores against a key union of b + 2*w1 columns while
    each row sees 2*w1 + 1 of them, so b = w1/2 computes about 1.25x the
    visible scores; the second level's segment union grows the same way.
    """
    return min(n, max(MIN_BLOCK, w1 // 2))


@dataclass
class _Block:
    """One processed row block: its rows, key columns, mask, and softmax row statistics.

    ``row_idx`` and ``col_idx`` index the token (or segment) axis: a slice for
    a contiguous range, an index array otherwise.  ``rowmax`` and ``denom``
    are the (n_heads, rows, 1) shift and normalizer of the forward softmax, so
    ``_replay_probs`` rebuilds the block's probabilities bit for bit.
    """

    row_idx: slice | np.ndarray
    col_idx: slice | np.ndarray
    allowed: np.ndarray
    rowmax: np.ndarray
    denom: np.ndarray


def _split_heads(mat: np.ndarray, n_heads: int) -> np.ndarray:
    """(n, d) -> contiguous (n_heads, n, d/h) for batched per-head matmuls."""
    n, d = mat.shape
    return np.ascontiguousarray(mat.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2))


def _merge_heads(mat: np.ndarray) -> np.ndarray:
    """(n_heads, n, d/h) -> (n, d)."""
    h, n, dh = mat.shape
    return mat.transpose(1, 0, 2).reshape(n, h * dh)


def _masked_scores(
    qr: np.ndarray, kc: np.ndarray, allowed: np.ndarray, alpha: float
) -> np.ndarray:
    """Scaled scores (h, rows, cols) of block queries against key columns, -inf where masked.

    The mask is added as a 0/-inf bias built from ``allowed`` on every call (an
    additive bias is cheaper than a boolean fancy-index assignment).
    """
    scores = np.matmul(qr, kc.transpose(0, 2, 1))
    scores *= alpha
    scores += np.where(allowed, 0.0, -np.inf)
    return scores


def _block_attention(
    qh: np.ndarray,
    kh: np.ndarray,
    vh: np.ndarray,
    rows: slice | np.ndarray,
    cols: slice | np.ndarray,
    allowed: np.ndarray,
    alpha: float,
) -> tuple[_Block, np.ndarray]:
    """Masked attention of a row block against selected key columns, all heads.

    Runs a stable softmax whose row maximum is taken over visible entries
    only; rows with nothing visible yield all-zero rows.  A row whose visible
    scores overflowed turns NaN rather than silently zero, so the level's
    finiteness check reports it.  Returns the block record and the output
    (h, rows, d/h).
    """
    probs = _masked_scores(qh[:, rows], kh[:, cols], allowed, alpha)
    empty = ~allowed.any(axis=1)
    rowmax = probs.max(axis=-1, keepdims=True)
    rowmax[:, empty] = 0.0
    probs -= rowmax
    np.exp(probs, out=probs)
    denom = probs.sum(axis=-1, keepdims=True)
    denom[:, empty] = 1.0  # empty rows stay exactly zero
    probs /= denom
    return _Block(rows, cols, allowed, rowmax, denom), np.matmul(probs, vh[:, cols])


def _replay_probs(b: _Block, qr: np.ndarray, kc: np.ndarray, alpha: float) -> np.ndarray:
    """A block's forward probabilities (h, rows, cols), recomputed by the forward's own ops."""
    probs = _masked_scores(qr, kc, b.allowed, alpha)
    probs -= b.rowmax
    np.exp(probs, out=probs)
    probs /= b.denom
    return probs


@dataclass
class FirstLevelTrace:
    batch: SequenceBatch
    params: LayerParams
    config: LayerConfig
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    blocks: list[_Block] | None
    global_block: _Block | None

    def attention_rows(self) -> list[np.ndarray]:
        """Per-token attention weights, ragged: token i -> (n_heads, |field(i)|)."""
        return _ragged_rows(_first_blocks(self), self.q, self.k, self.config)


@dataclass
class SecondLevelTrace:
    batch: SequenceBatch
    params: LayerParams
    config: LayerConfig
    source: np.ndarray
    q2: np.ndarray
    k2: np.ndarray
    v2: np.ndarray
    grid: PooledGrid
    pooled_k: np.ndarray
    pooled_v: np.ndarray
    z: np.ndarray
    counts: np.ndarray
    degenerate: np.ndarray
    blocks: list[_Block] | None
    _pad_arg: np.ndarray | None

    def attention_rows(self) -> list[np.ndarray]:
        """Per-token weights over visible pooled segments, ragged."""
        return _ragged_rows(_require_blocks(self.blocks), self.q2, self.pooled_k, self.config)


@dataclass
class AttentionTrace:
    """Everything a layer forward produced, enough to replay it backward."""

    first: FirstLevelTrace
    second: SecondLevelTrace
    final: np.ndarray

    @property
    def config(self) -> LayerConfig:
        return self.first.config

    @property
    def batch(self) -> SequenceBatch:
        return self.first.batch

    @property
    def y(self) -> np.ndarray:
        return self.first.y

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


def _require_blocks(blocks):
    if blocks is None:
        raise ValueError("trace was built with retain=False; rerun the forward with retain=True")
    return blocks


def _first_blocks(ft: FirstLevelTrace) -> list[_Block]:
    blocks = _require_blocks(ft.blocks)
    return blocks if ft.global_block is None else blocks + [ft.global_block]


def _ragged_rows(
    blocks: list[_Block], q: np.ndarray, keys: np.ndarray, config: LayerConfig
) -> list[np.ndarray]:
    qh, kh = (_split_heads(m, config.n_heads) for m in (q, keys))
    tokens = np.arange(q.shape[0])
    out: list[np.ndarray] = [np.zeros((config.n_heads, 0))] * q.shape[0]
    for b in blocks:
        probs = _replay_probs(b, qh[:, b.row_idx], kh[:, b.col_idx], config.alpha())
        for r, tok in enumerate(tokens[b.row_idx]):
            sel = b.allowed[r]
            if sel.any():
                out[int(tok)] = probs[:, r, sel]
    return out


def first_level_forward(
    batch: SequenceBatch,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
    block_size: int | None = None,
) -> tuple[np.ndarray, FirstLevelTrace]:
    """Sliding-window attention with global tokens (the first level).

    Every real token attends to its clipped radius-w1 window plus all global
    tokens; global tokens attend to every real token.  Padding tokens yield
    zero rows and are invisible as keys.
    """
    params.validate(config)
    x, pad = batch.embeddings, batch.pad_mask
    n, d = x.shape
    if n < 1:
        raise ValueError("sequence must have at least one token")
    if d != config.d_model:
        raise ValueError(f"batch dimension {d} does not match config d_model {config.d_model}")
    q, k, v = project_qkv(x, params.first)
    qh, kh, vh = (_split_heads(m, config.n_heads) for m in (q, k, v))
    w1, alpha = config.w1, config.alpha()
    g = np.asarray(batch.global_set, dtype=np.int64)
    is_global = np.zeros(n, dtype=bool)
    is_global[g] = True
    block = min(block_size or block_rows(n, w1), n)

    y = np.empty((n, d))
    counts = np.zeros(n, dtype=np.int64)
    blocks: list[_Block] = []
    for s in range(0, n, block):
        e = min(n, s + block)
        # the block's key union: first row's window start to last row's window end
        c0 = neighbor_set(s, w1, n).lo
        c1 = neighbor_set(e - 1, w1, n).hi + 1
        extras = g[(g < c0) | (g >= c1)]
        col_idx = np.concatenate([np.arange(c0, c1, dtype=np.int64), extras])
        rows = np.arange(s, e, dtype=np.int64)
        lo = np.maximum(0, rows - w1)[:, None]
        hi = np.minimum(n - 1, rows + w1)[:, None]
        allowed = (col_idx[None, :] >= lo) & (col_idx[None, :] <= hi)
        if g.size:
            allowed |= is_global[col_idx][None, :]
        allowed &= pad[col_idx][None, :]
        row_pad = pad[rows]
        allowed[~row_pad] = False
        row_glob = is_global[rows]
        allowed[row_glob] = False  # global rows attend in the full-width pass
        counts[rows] = allowed.sum(axis=1)
        blind = row_pad & ~row_glob & (counts[rows] == 0)
        if blind.any():
            raise ValueError(
                f"malformed batch: the receptive field of token {s + int(np.argmax(blind))} "
                "is entirely padding"
            )
        cols = slice(c0, c1) if extras.size == 0 else col_idx
        b, out = _block_attention(qh, kh, vh, slice(s, e), cols, allowed, alpha)
        y[s:e] = _merge_heads(out)
        if retain:
            blocks.append(b)

    global_block = None
    if g.size:
        allowed = np.tile(pad, (g.size, 1))
        counts[g] = int(pad.sum())
        b, out = _block_attention(qh, kh, vh, g, slice(None), allowed, alpha)
        y[g] = _merge_heads(out)
        if retain:
            global_block = b

    y[~pad] = 0.0
    if not np.isfinite(y).all():
        raise ValueError(
            "first_level_forward: non-finite output; the scaled query-key scores "
            "overflow float64"
        )
    trace = FirstLevelTrace(
        batch, params, config, q, k, v, y, counts,
        blocks if retain else None, global_block,
    )
    return y, trace


def second_level_forward(
    batch: SequenceBatch,
    y: np.ndarray,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
    block_size: int | None = None,
) -> tuple[np.ndarray, SecondLevelTrace]:
    """Attention over pooled key/value grids (the second level).

    Keys and values are projected from the first-level output (or the raw
    embeddings in the mix setting), pooled once over a shared stride grid, and
    each token attends to the segments whose center lies within its radius-w2
    window.  A token with no visible segment gets a zero row, flagged in the
    trace.
    """
    params.validate(config)
    n, d = batch.embeddings.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n, d):
        raise ValueError(f"y must be ({n}, {d}), got {y.shape}")
    src = batch.embeddings if config.mix else y
    q2, k2, v2 = project_qkv(src, params.second)
    pad = batch.pad_mask
    pad_arg = None if pad.all() else pad
    grid = build_pooled_grid(n, config.kappa, config.xi, pad_arg)
    op_k = PoolingOp(config.pooling_kind, params.w_p_key)
    op_v = PoolingOp(config.pooling_kind, params.w_p_value)
    pooled_k = pool_grid(op_k, k2, grid, pad_arg)
    pooled_v = pool_grid(op_v, v2, grid, pad_arg)

    w2, alpha = config.w2, config.alpha()
    q2h = _split_heads(q2, config.n_heads)
    pkh = _split_heads(pooled_k, config.n_heads)
    pvh = _split_heads(pooled_v, config.n_heads)
    centers = grid.centers
    block = min(block_size or block_rows(n, config.w1), n)
    z = np.zeros((n, d))
    counts = np.zeros(n, dtype=np.int64)
    degenerate = np.zeros(n, dtype=bool)
    blocks: list[_Block] = []
    for s in range(0, n, block):
        e = min(n, s + block)
        rows = np.arange(s, e, dtype=np.int64)
        # the block's segment union: first row's range start to last row's end
        j0 = visible_segments(s, w2, grid).start
        j1 = visible_segments(e - 1, w2, grid).stop
        c = centers[j0:j1][None, :]
        allowed = (c >= (rows - w2)[:, None]) & (c <= (rows + w2)[:, None])
        allowed[~pad[rows]] = False
        counts[rows] = allowed.sum(axis=1)
        degenerate[rows] = pad[rows] & (counts[rows] == 0)
        if j1 > j0:
            b, out = _block_attention(
                q2h, pkh, pvh, slice(s, e), slice(j0, j1), allowed, alpha
            )
            z[s:e] = _merge_heads(out)
            if retain:
                blocks.append(b)

    if not np.isfinite(z).all():
        raise ValueError(
            "second_level_forward: non-finite output; the scaled query-segment scores "
            "overflow float64"
        )
    trace = SecondLevelTrace(
        batch, params, config, src, q2, k2, v2, grid, pooled_k, pooled_v,
        z, counts, degenerate, blocks if retain else None, pad_arg,
    )
    return z, trace


def layer_forward(
    batch: SequenceBatch,
    params: LayerParams,
    config: LayerConfig,
    *,
    retain: bool = True,
    block_size: int | None = None,
) -> tuple[np.ndarray, AttentionTrace]:
    """Full layer: first level, second level, residual sum of the two outputs."""
    y, first = first_level_forward(batch, params, config, retain=retain, block_size=block_size)
    z, second = second_level_forward(
        batch, y, params, config, retain=retain, block_size=block_size
    )
    final = y + z
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


def _attention_backward(
    blocks: list[_Block],
    upstream: np.ndarray,
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    config: LayerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse blocked softmax attention; returns (d_q, d_keys, d_values) as (rows, d).

    Each block's probabilities are replayed from its row statistics, and all
    heads go through one batched matmul per product, as in the forward.
    """
    alpha = config.alpha()
    qh, kh, vh, uh = (_split_heads(m, config.n_heads) for m in (q, keys, values, upstream))
    d_qh, d_kh, d_vh = np.zeros_like(qh), np.zeros_like(kh), np.zeros_like(vh)
    for b in blocks:
        rows, cols = b.row_idx, b.col_idx
        qr, kc, vc, du = qh[:, rows], kh[:, cols], vh[:, cols], uh[:, rows]
        p = _replay_probs(b, qr, kc, alpha)
        d_vh[:, cols] += np.matmul(p.transpose(0, 2, 1), du)
        ds = np.matmul(du, vc.transpose(0, 2, 1))
        ds *= p
        p *= ds.sum(axis=-1, keepdims=True)
        ds -= p  # p * (dp - rowsum(p * dp)), the softmax backward
        d_qh[:, rows] += alpha * np.matmul(ds, kc)
        d_kh[:, cols] += alpha * np.matmul(ds.transpose(0, 2, 1), qr)
    return _merge_heads(d_qh), _merge_heads(d_kh), _merge_heads(d_vh)


def _projection_backward(
    source: np.ndarray,
    triple: ProjectionTriple,
    d_q: np.ndarray,
    d_k: np.ndarray,
    d_v: np.ndarray,
) -> tuple[np.ndarray, ProjectionTriple]:
    """Backward of project_qkv: returns (d_source, gradient triple)."""
    grads = ProjectionTriple(
        d_q.T @ source, d_q.sum(axis=0),
        d_k.T @ source, d_k.sum(axis=0),
        d_v.T @ source, d_v.sum(axis=0),
    )
    d_source = d_q @ triple.w_q + d_k @ triple.w_k + d_v @ triple.w_v
    return d_source, grads


def _first_backward(ft: FirstLevelTrace, d_y: np.ndarray) -> tuple[np.ndarray, ProjectionTriple]:
    d_q, d_k, d_v = _attention_backward(_first_blocks(ft), d_y, ft.q, ft.k, ft.v, ft.config)
    return _projection_backward(ft.batch.embeddings, ft.params.first, d_q, d_k, d_v)


def _second_backward(
    st: SecondLevelTrace, d_z: np.ndarray
) -> tuple[np.ndarray, ProjectionTriple, np.ndarray | None, np.ndarray | None]:
    config = st.config
    d_q2, d_pooled_k, d_pooled_v = _attention_backward(
        _require_blocks(st.blocks), d_z, st.q2, st.pooled_k, st.pooled_v, config
    )
    op_k = PoolingOp(config.pooling_kind, st.params.w_p_key)
    op_v = PoolingOp(config.pooling_kind, st.params.w_p_value)
    d_k2, d_wp_k = pool_grid_backward(op_k, st.k2, st.grid, st._pad_arg, d_pooled_k)
    d_v2, d_wp_v = pool_grid_backward(op_v, st.v2, st.grid, st._pad_arg, d_pooled_v)
    d_src, grads = _projection_backward(st.source, st.params.second, d_q2, d_k2, d_v2)
    return d_src, grads, d_wp_k, d_wp_v


def layer_backward(trace: AttentionTrace, upstream: np.ndarray) -> LayerGrads:
    """Exact reverse-mode gradients of ``layer_forward`` for the given upstream.

    The residual sum routes the upstream into both levels; the second level's
    input gradient flows into the first-level output (or directly into the
    embeddings in the mix setting).  Padding rows receive zero gradient.
    """
    ft, st = trace.first, trace.second
    config, batch = ft.config, ft.batch
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != trace.final.shape:
        raise ValueError(
            f"upstream must have shape {trace.final.shape}, got {upstream.shape}"
        )
    if not np.isfinite(upstream).all():
        raise ValueError("upstream gradient must be finite")
    up = upstream * batch.pad_mask[:, None]

    d_src2, second_grads, d_wp_k, d_wp_v = _second_backward(st, up)
    d_y = up.copy()
    d_x = np.zeros_like(batch.embeddings)
    if config.mix:
        d_x += d_src2
    else:
        d_y += d_src2
    d_x_first, first_grads = _first_backward(ft, d_y)
    d_x += d_x_first
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
    """
    layers = list(layers)
    schedule = list(schedule)
    if len(layers) != len(schedule):
        raise ValueError(
            f"schedule length {len(schedule)} does not match layer count {len(layers)}"
        )
    x = batch.embeddings
    for depth, ((config, params), mode) in enumerate(zip(layers, schedule)):
        if config.d_model != batch.d:
            raise ValueError(
                f"layer {depth} d_model {config.d_model} does not match batch width {batch.d}"
            )
        if mode not in SCHEDULE_MODES:
            raise ValueError(f"schedule mode must be one of {SCHEDULE_MODES}, got {mode!r}")
        current = SequenceBatch(x, batch.pad_mask, batch.global_set)
        if mode == "sliding_only":
            x, _ = first_level_forward(current, params, config, retain=False)
        else:
            x, _ = layer_forward(current, params, config, retain=False)
    return x
