"""Two-level windowed/pooled attention in pure numpy.

The library computes a sliding-window attention level with optional global
tokens, a second attention level over stride-pooled key/value grids, exact
analytic gradients for every parameter, brute-force oracles for equivalence
testing, and an operation-count model that the instrumented fast path must
match exactly.
"""

from poolattn.core import (
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    matrix,
    project_qkv,
    softmax_row,
)
from poolattn.windowing import PooledGrid, build_pooled_grid
from poolattn.pooling import (
    PoolingOp,
    pool_grid,
    pool_grid_backward,
    pool_segment,
)
from poolattn.attention import (
    AttentionTrace,
    LayerGrads,
    first_level_forward,
    layer_backward,
    layer_forward,
    second_level_forward,
    stack_forward,
)
from poolattn.oracle import (
    dense_attention,
    dense_first_level,
    dense_layer_reference,
    literal_pooling_attention,
    mask_from_config,
)
from poolattn.costmodel import (
    CostReport,
    CountCheck,
    cost_dense,
    cost_single_window,
    cost_two_level,
    estimate_peak_bytes,
    estimate_training_peak_bytes,
    instrumented_report,
    verify_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionTrace",
    "CostReport",
    "CountCheck",
    "LayerConfig",
    "LayerGrads",
    "LayerParams",
    "PooledGrid",
    "PoolingOp",
    "ProjectionTriple",
    "SequenceBatch",
    "build_pooled_grid",
    "cost_dense",
    "cost_single_window",
    "cost_two_level",
    "dense_attention",
    "dense_first_level",
    "dense_layer_reference",
    "estimate_peak_bytes",
    "estimate_training_peak_bytes",
    "first_level_forward",
    "instrumented_report",
    "layer_backward",
    "layer_forward",
    "literal_pooling_attention",
    "mask_from_config",
    "matrix",
    "pool_grid",
    "pool_grid_backward",
    "pool_segment",
    "project_qkv",
    "second_level_forward",
    "softmax_row",
    "stack_forward",
    "verify_counts",
]
