"""Multi-view embedding: view weighting, combination, shared factorization.

One factorization is fitted to W~ = sum_i beta_i W^(i) over the shared node
registry, so every view is explained by the same latent communities.
Per-view total weights can differ by orders of magnitude, so by default each
view is rescaled to unit total weight before combining.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .factorize import Factorization, FactorizeConfig, factorize
from .graph import MultiViewGraph, SparseAdjacency


@dataclass(eq=False)
class ViewWeights:
    """Convex weights over views; normalized to sum 1 on construction."""

    beta: np.ndarray

    def __init__(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a non-empty vector")
        if not (np.isfinite(beta).all() and (beta >= 0).all()):
            raise ValueError(f"beta entries must be finite and nonnegative, got {beta.tolist()}")
        total = beta.sum()
        if not (0 < total < np.inf):
            raise ValueError("beta must have a positive, finite total")
        if abs(total - 1.0) > 1e-12:
            warnings.warn(f"view weights sum to {total:.6g}; renormalizing to 1",
                          stacklevel=2)
            beta = beta / total
        self.beta = beta

    @property
    def k(self) -> int:
        return self.beta.size


@dataclass
class MvneConfig:
    """FactorizeConfig plus the view-combination policy."""

    factorize: FactorizeConfig
    betas: ViewWeights | None = None  # None -> default by active-node counts
    normalize_views: bool = True


def default_betas(graph: MultiViewGraph) -> ViewWeights:
    """beta_i proportional to the number of active nodes in view i."""
    return _active_count_weights(graph.views)


def _active_count_weights(views) -> ViewWeights:
    counts = np.array([len(adj.active_nodes()) for adj in views], dtype=np.float64)
    if counts.sum() <= 0:
        raise ValueError("every view is empty; cannot derive view weights")
    return ViewWeights(counts / counts.sum())


def combine_views(graph: MultiViewGraph, weights: ViewWeights,
                  normalize_views: bool = True) -> SparseAdjacency:
    """Entrywise weighted sum of the views over the global index space.

    Views with beta = 0 (or nothing stored) contribute nothing, also to the
    support. With normalize_views each view is first scaled to total weight
    one. A weight count other than graph.k raises ValueError, and so does a
    sum whose total weight SparseAdjacency refuses.
    """
    return _weighted_sum(graph.views, weights, normalize_views)


def _weighted_sum(views, weights: ViewWeights, normalize_views: bool) -> SparseAdjacency:
    if weights.k != len(views):
        raise ValueError(f"got {weights.k} weights for {len(views)} views")
    n = views[0].n
    acc = sp.csr_array((n, n), dtype=np.float64)
    for beta, adj in zip(weights.beta, views):
        if beta == 0.0 or adj.nnz == 0:
            continue
        acc = acc + adj.mat * (beta / adj.total_weight if normalize_views else beta)
    acc.eliminate_zeros()
    return SparseAdjacency(acc)


def combine_as_configured(views, config: MvneConfig):
    """(weights, combined view): combine_views as configured, the first step of a fit.

    The combined view shares no array with the views, so a caller that drops
    them after this step holds only the combined view during the fit.
    """
    weights = config.betas if config.betas is not None else _active_count_weights(views)
    return weights, _weighted_sum(views, weights, config.normalize_views)


def mvne_embed(graph: MultiViewGraph, config: MvneConfig) -> Factorization:
    """Shared factorization of the combined view.

    The returned embedding covers every registry node; nodes absent from all
    positive-weight views get the uniform membership row 1/d and are listed
    in the run metadata. The graph is left as it was given.
    """
    return factorize(combine_as_configured(graph.views, config)[1], config.factorize)


def svne_embed(adj: SparseAdjacency, config: MvneConfig) -> Factorization:
    """Single-view embedding: the k = 1 case of mvne_embed, through the same fit."""
    return factorize(combine_as_configured([adj], config)[1], config.factorize)
