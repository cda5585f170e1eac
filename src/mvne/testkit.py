"""Dense brute-force oracles and a synthetic multi-view graph generator.

The dense oracle mirrors the sparse factorization kernel with full-matrix
arithmetic and shares its initialization, so sparse and dense trajectories
are directly comparable. The generator plants one community partition,
samples a base stochastic block model once, and derives each view by
keeping base edges at a per-view rate and adding uniform noise edges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .factorize import (_GROW, _MAX_EXPONENT, Factorization, FactorizeConfig,
                        init_factorization)
from .graph import (LabelStore, MultiViewGraph, NodeRegistry, SparseAdjacency,
                    write_edge_list)

ORACLE_MAX_NODES = 64


@dataclass
class SbmSpec:
    """Planted-partition generator settings."""

    n: int
    communities: int
    p_in: float
    p_out: float
    views: int = 1
    keep: float = 1.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.communities < 1 or self.views < 1:
            raise ValueError("n, communities and views must be >= 1")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out < p_in <= 1")
        if not (0.0 <= self.keep <= 1.0 and 0.0 <= self.noise <= 1.0):
            raise ValueError("keep and noise rates must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def reconstruct_dense(fac: Factorization) -> np.ndarray:
    """Full n x n reconstruction sum_p b_ip * b_jp / lam_p (small graphs / tests)."""
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    return (fac.mass / lam_safe[None, :]) @ fac.mass.T


def dense_kl_objective(W: np.ndarray, fac: Factorization, epsilon: float = 1e-12) -> float:
    """Generalized KL divergence by brute force over all n^2 pairs."""
    Yhat = reconstruct_dense(fac)
    mask = W > 0
    Yf = np.maximum(Yhat, epsilon)
    data = float(np.sum(W[mask] * np.log(W[mask] / Yf[mask]) - W[mask]))
    return data + float(Yhat.sum())


def dense_update_step(W: np.ndarray, fac: Factorization, epsilon: float = 1e-12,
                      t: float = 1.0) -> Factorization:
    """Full-matrix twin of the sparse ratio-form update, B * G^t renormalized.

    G = (R @ B) / lam is the update factor; t = 1 is the plain update and
    t > 1 the over-relaxed candidate of factorize.
    """
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    R = np.where(W > 0, W / np.maximum(reconstruct_dense(fac), epsilon), 0.0)
    mass_new = fac.mass * ((R @ fac.mass) / lam_safe[None, :]) ** t
    total = mass_new.sum()
    if total <= 0:
        raise ValueError("update collapsed all mass; is the graph edgeless?")
    mass_new *= W.sum() / total
    return Factorization(mass_new)


def dense_factorize_oracle(W: np.ndarray, config: FactorizeConfig) -> Factorization:
    """Reference implementation of factorize() on a dense matrix.

    Guarded to small graphs; shares init_factorization with the sparse path
    so the trajectories can be compared step by step, and like factorize()
    tries the relaxed step with exponent t > 1 first, keeps it only if the
    objective falls, and returns the last iterate.
    """
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    if n > ORACLE_MAX_NODES:
        raise ValueError(f"dense oracle is limited to {ORACLE_MAX_NODES} nodes")
    total = W.sum()
    if total <= 0:
        raise ValueError("graph has no edges; total weight is zero")
    fac = init_factorization(n, config, total)
    obj = dense_kl_objective(W, fac, config.epsilon)
    t = 1.0
    for _ in range(config.max_iters):
        prev = obj
        if t > 1:
            cand = dense_update_step(W, fac, config.epsilon, t)
            obj = dense_kl_objective(W, cand, config.epsilon)
        if t > 1 and obj < prev:
            fac, t = cand, min(_GROW * t, _MAX_EXPONENT)
        else:
            t = max(t / 2, 1.0) if t > 1 else _GROW
            fac = dense_update_step(W, fac, config.epsilon)
            obj = dense_kl_objective(W, fac, config.epsilon)
        if prev - obj < config.rel_tol * max(abs(prev), 1e-300):
            break
    return fac


def generate_multiview_sbm(spec: SbmSpec):
    """Sample a planted-partition multi-view graph plus community labels.

    One latent partition into `communities` blocks; a base graph sampled
    once with within/between probabilities p_in/p_out; each view keeps each
    base edge with probability `keep` and adds Binomial(base_edges, noise)
    uniform random extra edges. Returns (MultiViewGraph, LabelStore).
    Deterministic per spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, c = spec.n, spec.communities
    z = rng.integers(0, c, size=n)

    iu, ju = np.triu_indices(n, k=1)
    p_edge = np.where(z[iu] == z[ju], spec.p_in, spec.p_out)
    base_mask = rng.random(iu.size) < p_edge
    base_i, base_j = iu[base_mask], ju[base_mask]
    m = base_i.size

    registry = NodeRegistry()
    for v in range(n):
        registry.intern(f"n{v}")

    names, views = [], []
    for view in range(spec.views):
        kept = rng.random(m) < spec.keep
        vi = base_i[kept]
        vj = base_j[kept]
        n_noise = rng.binomial(m, spec.noise) if m else 0
        if n_noise:
            ni = rng.integers(0, n, size=n_noise)
            nj = rng.integers(0, n, size=n_noise)
            ok = ni != nj
            lo, hi = np.minimum(ni[ok], nj[ok]), np.maximum(ni[ok], nj[ok])
            vi = np.concatenate([vi, lo])
            vj = np.concatenate([vj, hi])
        # collapse duplicates (kept-base vs noise collisions) to unit weight
        pair_ids = np.unique(vi.astype(np.int64) * n + vj.astype(np.int64))
        names.append(f"view{view}")
        views.append(SparseAdjacency.from_undirected(pair_ids // n, pair_ids % n,
                                                     np.ones(pair_ids.size), n))

    labels = LabelStore()
    for v in range(n):
        labels.add(v, [f"c{z[v]}"])
    return MultiViewGraph(registry=registry, view_names=names, views=views), labels


def dump_dataset(graph: MultiViewGraph, labels: LabelStore, out_dir):
    """Write manifest + per-view edge lists + labels in the standard formats.

    Label lines are restricted to nodes that carry at least one edge in some
    view, since the edge files alone rebuild the registry on reload.
    Returns the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "views.manifest")
    with open(manifest_path, "w", encoding="utf-8") as mf:
        for name, adj in zip(graph.view_names, graph.views):
            fname = f"{name}.edges"
            mf.write(f"{name}\t{fname}\n")
            write_edge_list(adj, graph.registry, os.path.join(out_dir, fname))
    covered = set()
    for adj in graph.views:
        covered.update(int(x) for x in adj.active_nodes())
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as lf:
        for v in sorted(covered):
            names = sorted(labels.label_name(l) for l in labels.labels_of(v))
            if names:
                lf.write(f"{graph.registry.name_of(v)}\t{','.join(names)}\n")
    return manifest_path


def random_weighted_graph(n: int, density: float, seed: int) -> SparseAdjacency:
    """Erdos-Renyi-style symmetric test graph with weights uniform in [0.5, 2)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < density
    return SparseAdjacency.from_undirected(iu[mask], ju[mask],
                                           rng.uniform(0.5, 2.0, size=mask.sum()), n)
