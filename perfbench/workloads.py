"""Workload definitions, seeded input pools and the request each workload sends.

A request is one call a user of the layer makes: ``layer_forward`` with
``retain=False`` for inference, or ``layer_forward(retain=True)`` followed by
``layer_backward`` for a training step.  Inputs are generated from the
workload seed only; the layer never sees the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from poolattn import (
    LayerConfig,
    LayerGrads,
    LayerParams,
    SequenceBatch,
    layer_backward,
    layer_forward,
)
from poolattn.harness import init_params, splitmix64, symmetric_uniform, synth_batch, unit_uniform
from spans import Tracer

# inputs per pool; set-up ``s`` warms up on pool input ``s``, so every input
# has a reference output before timing starts
POOL_SIZE = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: LayerConfig
    n: int
    n_global: int
    train: bool = False
    # seeded tail of padding per input, as a share of n: (low, high)
    pad_share: tuple[float, float] | None = None

    def tiny(self) -> "Workload":
        """The same workload at n=256, for smoke tests."""
        return replace(self, n=256)


# Each workload stresses different stages, so a change to one stage has a
# workload where it should show and one where it should not (see BENCHMARK.json).
WORKLOADS = {
    w.name: w
    for w in (
        # first-level blocked attention dominates; pooling is vectorised and
        # there is no backward: the control for pooling and backward changes
        Workload("infer_long", LayerConfig(), n=16384, n_global=8),
        # training step: backward is about half, pool_grid_backward loops per
        # segment, and the retained probabilities set the peak memory
        Workload(
            "train_ldconv", LayerConfig(pooling_kind="ldconv"), n=8192, n_global=8, train=True
        ),
        # padding sends every segment through the pool_grid loop; second-level
        # attention over the wide w2 is the largest stage
        Workload(
            "padded_wide",
            LayerConfig(
                w1=16, w2=1024, kappa=4, xi=2, pooling_kind="mean_ldconv",
                second_level_input="raw_embeddings",
            ),
            n=8192,
            n_global=4,
            pad_share=(0.10, 0.40),
        ),
    )
}


@dataclass
class Result:
    """What one request returned, reduced to the arrays the checks look at."""

    output: np.ndarray
    grads: LayerGrads | None
    first_counts: np.ndarray
    second_counts: np.ndarray
    degenerate_rows: int

    def arrays(self) -> dict[str, np.ndarray]:
        """Output and every gradient array by name."""
        out = {"output": self.output}
        if self.grads is not None:
            g = self.grads
            for level, triple in (("first", g.first), ("second", g.second)):
                for field, arr in zip(triple._fields, triple):
                    out[f"grad.{level}.{field}"] = arr
            for name in ("w_p_key", "w_p_value", "embeddings"):
                arr = getattr(g, name)
                if arr is not None:
                    out[f"grad.{name}"] = arr
        return out


@dataclass
class Inputs:
    params: LayerParams
    batches: list[SequenceBatch]
    upstreams: list[np.ndarray]  # one seeded upstream gradient per batch

    def real_tokens(self, k: int) -> int:
        return int(self.batches[k].pad_mask.sum())


def make_batch(w: Workload, n: int, seed: int, stratum: int, strata: int) -> SequenceBatch:
    """One seeded input; a padded workload gets a tail of padding.

    The tail share is drawn from stratum ``stratum`` of ``strata`` equal
    slices of ``w.pad_share``, so a pool covers the whole range and its mean
    padding barely moves between seeds.
    """
    batch = synth_batch(n, w.config.d_model, seed, w.n_global)
    if w.pad_share is None:
        return batch
    lo, hi = w.pad_share
    u = float(unit_uniform(seed ^ 0x5EED, 1)[0])
    share = lo + (hi - lo) * (stratum + u) / strata
    pad = np.ones(n, dtype=bool)
    pad[n - int(round(share * n)):] = False
    return SequenceBatch(batch.embeddings, pad, batch.global_set)


def make_inputs(w: Workload, seed: int, tracer: Tracer) -> Inputs:
    """The pool of seeded inputs and the parameters, all derived from ``seed``."""
    subseeds = [int(s) for s in splitmix64(seed, 2 * POOL_SIZE + 1)]
    batches, upstreams = [], []
    for k in range(POOL_SIZE):
        with tracer.span("harness.synth_batch"):
            batches.append(make_batch(w, w.n, subseeds[k], k, POOL_SIZE))
        shape = (w.n, w.config.d_model)
        upstreams.append(symmetric_uniform(subseeds[POOL_SIZE + k], w.n * shape[1]).reshape(shape))
    with tracer.span("harness.init_params"):
        params = init_params(w.config, subseeds[-1])
    return Inputs(params, batches, upstreams)


def request(w: Workload, inputs: Inputs, k: int) -> Result:
    """Send request ``k`` of the pool and return what the checks need."""
    batch = inputs.batches[k]
    out, trace = layer_forward(batch, inputs.params, w.config, retain=w.train)
    grads = layer_backward(trace, inputs.upstreams[k]) if w.train else None
    return Result(
        out, grads, trace.first_counts, trace.second_counts,
        int(trace.degenerate_second.sum()),
    )
