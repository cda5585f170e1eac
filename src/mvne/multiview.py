"""Multi-view embedding: view weighting, combination, shared factorization.

The views are merged into a single adjacency W~ = sum_i beta_i W^(i) over
the shared node registry, and one factorization B is fitted to the
combination, so every view is explained by the same latent communities.
View weights beta default to the per-view active-node counts, normalized to
sum 1; per-view total weights can differ by orders of magnitude, so each
view is rescaled to unit total weight before combining unless disabled.
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
    counts = graph.active_counts().astype(np.float64)
    if counts.sum() <= 0:
        raise ValueError("every view is empty; cannot derive view weights")
    return ViewWeights(counts / counts.sum())


def combine_views(graph: MultiViewGraph, weights: ViewWeights,
                  normalize_views: bool = True) -> SparseAdjacency:
    """Entrywise weighted sum of the views over the global index space.

    Views with beta = 0 (or nothing stored) contribute nothing, also to the
    support. With normalize_views each view is first scaled to total weight
    one. A weight count other than graph.k raises ValueError, and so do a
    view whose total is too small to divide by and a sum whose total weight
    is not finite.
    """
    return _weighted_sum(graph.views, weights, normalize_views)


def _weighted_sum(views, weights: ViewWeights, normalize_views: bool) -> SparseAdjacency:
    if weights.k != len(views):
        raise ValueError(f"got {weights.k} weights for {len(views)} views")
    n = views[0].n
    acc = sp.csr_array((n, n), dtype=np.float64)
    for k, (beta, adj) in enumerate(zip(weights.beta, views)):
        if beta == 0.0 or adj.nnz == 0:
            continue
        scale = beta
        if normalize_views:
            with np.errstate(over="ignore", divide="ignore"):
                scale = beta / adj.total_weight
            if not np.isfinite(scale):
                raise ValueError(f"the view at position {k} has total weight "
                                 f"{adj.total_weight!r}, too small to scale to total weight "
                                 "one; rescale its weights or pass --no-normalize-views")
        acc = acc + adj.mat * scale
    acc.eliminate_zeros()
    return SparseAdjacency(acc)


def mvne_embed(graph: MultiViewGraph, config: MvneConfig) -> Factorization:
    """Shared factorization of the combined view.

    The returned embedding covers every registry node; nodes absent from all
    positive-weight views get the uniform membership row 1/d and are listed
    in the run metadata.
    """
    weights = config.betas if config.betas is not None else default_betas(graph)
    combined = combine_views(graph, weights, config.normalize_views)
    fac = factorize(combined, config.factorize)
    return fac


def svne_embed(adj: SparseAdjacency, config: MvneConfig) -> Factorization:
    """Single-view embedding: the k = 1 case of mvne_embed, through the same weighted sum."""
    weights = config.betas if config.betas is not None else ViewWeights([1.0])
    combined = _weighted_sum([adj], weights, config.normalize_views)
    return factorize(combined, config.factorize)
