"""Dense brute-force oracles for the sparse factorization and the SBM generator,
and a random test graph.

The dense functions mirror the sparse kernel with full n x n arithmetic and
share its initialization and step schedule, so sparse and dense trajectories
are directly comparable; tests hold them to 1e-10. They are guarded to
ORACLE_MAX_NODES nodes. all_pairs_multiview_sbm draws the SBM's base graph
from all n(n - 1)/2 pairs at once. Tests import them as they import
conftest's helpers.
"""

import numpy as np

from mvne import (Factorization, FactorizeConfig, LabelStore, MultiViewGraph, NodeRegistry,
                  SbmSpec, SparseAdjacency, init_factorization)
from mvne.factorize import _EPSILON, _GROW, _MAX_EXPONENT

ORACLE_MAX_NODES = 64


def reconstruct_dense(fac: Factorization) -> np.ndarray:
    """Full n x n reconstruction sum_p b_ip * b_jp / lam_p (small graphs / tests)."""
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    return (fac.mass / lam_safe[None, :]) @ fac.mass.T


def dense_kl_objective(W: np.ndarray, fac: Factorization, epsilon: float = _EPSILON) -> float:
    """Generalized KL divergence by brute force over all n^2 pairs, with the
    data terms' reconstruction floored at epsilon times the total weight."""
    Yhat = reconstruct_dense(fac)
    mask = W > 0
    Yf = np.maximum(Yhat, epsilon * W.sum())
    data = float(np.sum(W[mask] * np.log(W[mask] / Yf[mask]) - W[mask]))
    return data + float(Yhat.sum())


def dense_update_step(W: np.ndarray, fac: Factorization, epsilon: float = _EPSILON,
                      t: float = 1.0) -> Factorization:
    """Full-matrix twin of the sparse ratio-form update, B * G^t renormalized.

    G = (R @ B) / lam is the update factor; t = 1 is the plain update and
    t > 1 the over-relaxed candidate of factorize. The reconstruction is
    floored at epsilon times the total weight, as in dense_kl_objective.
    """
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    R = np.where(W > 0, W / np.maximum(reconstruct_dense(fac), epsilon * W.sum()), 0.0)
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


def random_weighted_graph(n: int, density: float, seed: int) -> SparseAdjacency:
    """Erdos-Renyi-style symmetric test graph with weights uniform in [0.5, 2)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < density
    return SparseAdjacency.from_undirected(iu[mask], ju[mask],
                                           rng.uniform(0.5, 2.0, size=mask.sum()), n)


def all_pairs_multiview_sbm(spec: SbmSpec):
    """generate_multiview_sbm with the base graph drawn over all pairs in one array.

    The reference for the generator's blocked draw: one uniform per pair
    i < j, all n(n - 1)/2 of them at once, in np.triu_indices order.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    z = rng.integers(0, spec.communities, size=n)
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
        vi, vj = base_i[kept], base_j[kept]
        n_noise = rng.binomial(m, spec.noise) if m else 0
        if n_noise:
            ni = rng.integers(0, n, size=n_noise)
            nj = rng.integers(0, n, size=n_noise)
            ok = ni != nj
            lo, hi = np.minimum(ni[ok], nj[ok]), np.maximum(ni[ok], nj[ok])
            vi, vj = np.concatenate([vi, lo]), np.concatenate([vj, hi])
        pair_ids = np.unique(vi.astype(np.int64) * n + vj.astype(np.int64))
        names.append(f"view{view}")
        views.append(SparseAdjacency.from_undirected(pair_ids // n, pair_ids % n,
                                                     np.ones(pair_ids.size), n))
    labels = LabelStore()
    for v in range(n):
        labels.add(v, [f"c{z[v]}"])
    return MultiViewGraph(registry=registry, view_names=names, views=views), labels
