"""Dense brute-force oracles for the sparse factorization, and a random test graph.

The dense functions mirror the sparse kernel with full n x n arithmetic and
share its initialization and step schedule, so sparse and dense trajectories
are directly comparable; tests hold them to 1e-10. They are guarded to
ORACLE_MAX_NODES nodes. Tests import them as they import conftest's helpers.
"""

import numpy as np

from mvne import Factorization, FactorizeConfig, SparseAdjacency, init_factorization
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
