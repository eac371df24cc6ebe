"""Configuration records, validated dense matrices, and shared numeric primitives.

All numerics are 64-bit floats.  Matrices are plain numpy arrays in row-major
order, validated at construction; token embeddings use the token-rows
convention (row i of an (n, d) matrix is token i).  Linear projections are
stored as (d, d) weight matrices applied as ``x @ w.T + b``, i.e. the
transposed column-vector form ``w @ x_i + b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

POOLING_KINDS = ("mean", "max", "ldconv", "mean_ldconv")
LDCONV_KINDS = ("ldconv", "mean_ldconv")
SECOND_LEVEL_INPUTS = ("first_level_output", "raw_embeddings")


def matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validated dense matrix: 2-D float64, C-contiguous, every entry finite."""
    out = np.ascontiguousarray(data, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {out.shape}")
    if rows is not None and out.shape != (rows, cols):
        raise ValueError(f"expected matrix shape {(rows, cols)}, got {out.shape}")
    if not np.isfinite(out).all():
        row, col = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(
            f"matrix entries must be finite (no NaN/Inf); first at row {row}, column {col}"
        )
    return out


def softmax_row(scores) -> np.ndarray:
    """Numerically stable softmax of a single score vector.

    Subtracts the row maximum before exponentiating, so arbitrarily large
    finite inputs never overflow; entries whose shifted exponent underflows
    come out as exact zeros.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("softmax_row expects a non-empty 1-D score vector")
    if not np.isfinite(s).all():
        raise ValueError("softmax_row expects finite scores")
    e = np.exp(s - s.max())
    return e / e.sum()


class ProjectionTriple(NamedTuple):
    """Query/key/value projection weights and biases for one attention level."""

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray

    def pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(weight, bias) of the query, key and value projections, in that order."""
        return (self.w_q, self.b_q), (self.w_k, self.b_k), (self.w_v, self.b_v)

    def validate(self, d: int) -> "ProjectionTriple":
        for name, (w, b) in zip("qkv", self.pairs()):
            if w.shape != (d, d):
                raise ValueError(f"w_{name} must be ({d}, {d}), got {w.shape}")
            if b.shape != (d,):
                raise ValueError(f"b_{name} must have length {d}, got {b.shape}")
        return self


# OpenBLAS on x86-64 computes an ``a @ b.T`` product of at most this many
# entries, with an inner dimension of 32 or more, by its small-matrix kernel,
# which rounds differently from the kernel of larger products
SMALL_PRODUCT = 1200


def product_rows(width: int) -> int:
    """Fewest rows of an ``a @ b.T`` product, ``b`` having ``width`` rows, that
    give each row the bits it has in any taller product: more than ``SMALL_PRODUCT``
    entries.  19 rows at width 64, 38 at width 32."""
    return SMALL_PRODUCT // width + 1


def project(x: np.ndarray, w: np.ndarray, b: np.ndarray, tokens=None) -> np.ndarray:
    """``x @ w.T + b`` as (n, d) rows: the one projection of queries, keys and values.

    Heads are strided column blocks of the result (head i is columns i*d/h to
    (i+1)*d/h), read through views, so every consumer sees the same product.
    A product of at least ``product_rows(d)`` rows gives each row the bits it
    has in the projection of the whole sequence.  ``tokens`` maps ``x``'s rows
    to the token indices the non-finite error names (default: the row index).
    """
    out = x @ w.T
    out += b
    if not np.isfinite(out).all():
        token = np.argwhere(~np.isfinite(out))[0, 0]
        token = token if tokens is None else tokens[token]
        raise ValueError(
            "project_qkv: non-finite query/key/value projection; the embeddings "
            f"overflow float64, first at token {token}"
        )
    return out


def project_qkv(x: np.ndarray, proj: ProjectionTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project token embeddings to query/key/value matrices.

    ``x`` is (n, d) with tokens as rows; each output row is ``w @ x_i + b``
    written in row convention as ``x @ w.T + b`` with the bias broadcast over
    tokens, by ``project``, the routine the layer itself projects with.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {x.shape}")
    proj.validate(x.shape[1])
    return tuple(project(x, w, b) for w, b in proj.pairs())


@dataclass(frozen=True)
class LayerConfig:
    """Hyperparameters of one two-level attention layer.

    ``w1`` and ``w2`` are one-side window radii in tokens (a token sees
    ``2*w + 1`` positions before clipping).  ``kappa``/``xi`` are the pooling
    kernel and stride.  ``second_level_input`` selects what the second level
    reads: the first-level output (default) or the raw embeddings ("mix").
    """

    d_model: int = 64
    n_heads: int = 4
    w1: int = 128
    w2: int = 512
    kappa: int = 5
    xi: int = 4
    pooling_kind: str = "mean"
    second_level_input: str = "first_level_output"
    share_projections: bool = False

    def __post_init__(self):
        if self.d_model < 1 or self.n_heads < 1:
            raise ValueError("d_model and n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.w1 < 0:
            raise ValueError("w1 must be >= 0")
        if self.w2 < self.w1:
            raise ValueError(f"w2 ({self.w2}) must be >= w1 ({self.w1})")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if not 1 <= self.xi <= self.kappa:
            raise ValueError(f"xi ({self.xi}) must satisfy 1 <= xi <= kappa ({self.kappa})")
        if self.pooling_kind not in POOLING_KINDS:
            raise ValueError(f"pooling_kind must be one of {POOLING_KINDS}")
        if self.second_level_input not in SECOND_LEVEL_INPUTS:
            raise ValueError(f"second_level_input must be one of {SECOND_LEVEL_INPUTS}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def mix(self) -> bool:
        return self.second_level_input == "raw_embeddings"

    @property
    def needs_pool_weights(self) -> bool:
        return self.pooling_kind in LDCONV_KINDS

    def alpha(self) -> float:
        """Score scale 1/sqrt(d/h): each head's scaled dot-product."""
        return 1.0 / math.sqrt(self.head_dim)


@dataclass
class LayerParams:
    """Learnable parameters of one layer.

    With ``share_projections`` the ``second`` triple must be the *same object*
    as ``first`` (alias); gradients for shared weights accumulate both levels'
    contributions.  ``w_p_key``/``w_p_value`` are the (kappa, d) dynamic-weight
    matrices of the two pooled grids; they exist only for the ldconv kinds and
    are independent parameters.
    """

    first: ProjectionTriple
    second: ProjectionTriple
    w_p_key: np.ndarray | None = None
    w_p_value: np.ndarray | None = None

    def validate(self, config: LayerConfig) -> "LayerParams":
        d = config.d_model
        self.first.validate(d)
        self.second.validate(d)
        if config.share_projections and self.second is not self.first:
            raise ValueError("share_projections requires second to alias first")
        if config.needs_pool_weights:
            for name, w in (("w_p_key", self.w_p_key), ("w_p_value", self.w_p_value)):
                if w is None:
                    raise ValueError(f"{name} required for pooling kind {config.pooling_kind}")
                if w.shape != (config.kappa, d):
                    raise ValueError(
                        f"{name} must be ({config.kappa}, {d}), got {w.shape}"
                    )
        elif self.w_p_key is not None or self.w_p_value is not None:
            raise ValueError(f"pooling kind {config.pooling_kind} takes no pooling weights")
        return self


def zeros_projection(d: int) -> ProjectionTriple:
    return ProjectionTriple(
        np.zeros((d, d)), np.zeros(d),
        np.zeros((d, d)), np.zeros(d),
        np.zeros((d, d)), np.zeros(d),
    )


def zeros_params(config: LayerConfig) -> LayerParams:
    """All-zero parameters with the aliasing/pool-weight layout the config requires."""
    first = zeros_projection(config.d_model)
    second = first if config.share_projections else zeros_projection(config.d_model)
    wpk = wpv = None
    if config.needs_pool_weights:
        wpk = np.zeros((config.kappa, config.d_model))
        wpv = np.zeros((config.kappa, config.d_model))
    return LayerParams(first, second, wpk, wpv).validate(config)


@dataclass(frozen=True)
class SequenceBatch:
    """One input sequence: embeddings, padding mask, and global-token indices.

    ``pad_mask[i]`` is True for real tokens.  ``global_set`` is sorted,
    duplicate-free, and may only reference real tokens.
    """

    embeddings: np.ndarray
    pad_mask: np.ndarray
    global_set: tuple[int, ...] = ()

    def __post_init__(self):
        emb = matrix(self.embeddings)
        object.__setattr__(self, "embeddings", emb)
        pad = np.ascontiguousarray(self.pad_mask, dtype=bool)
        if pad.shape != (emb.shape[0],):
            raise ValueError(
                f"pad_mask must have length {emb.shape[0]}, got shape {pad.shape}"
            )
        object.__setattr__(self, "pad_mask", pad)
        g = tuple(int(i) for i in self.global_set)
        if list(g) != sorted(set(g)):
            raise ValueError("global_set must be sorted and duplicate-free")
        for i in g:
            if not 0 <= i < emb.shape[0]:
                raise ValueError(f"global index {i} out of range [0, {emb.shape[0]})")
            if not pad[i]:
                raise ValueError(f"global index {i} references a padding token")
        object.__setattr__(self, "global_set", g)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    @staticmethod
    def of(embeddings, pad_mask=None, global_set=()) -> "SequenceBatch":
        emb = matrix(embeddings)
        if pad_mask is None:
            pad_mask = np.ones(emb.shape[0], dtype=bool)
        return SequenceBatch(emb, pad_mask, tuple(global_set))
