"""Single-view graph factorization under the generalized KL divergence.

The model approximates a symmetric nonnegative adjacency W by a low-rank
bipartite construction: each node i carries a nonnegative mass vector over d
latent communities, collected in a matrix B (n x d), and the reconstruction is

    yhat_ij = sum_p b_ip * b_jp / lam_p,      lam_p = sum_i b_ip

i.e. the weight induced by two-hop paths through the latent communities. The
fit minimizes the generalized KL divergence

    L(W, Yhat) = sum_ij ( w_ij log(w_ij / yhat_ij) - w_ij + yhat_ij )

with the multiplicative ratio-kernel update

    B <- B * (R @ B) / lam,     R_ij = w_ij / yhat_ij at stored entries

which is a majorize-minimize step: the objective is non-increasing at every
iteration, mass stays nonnegative, and sum(lam) = sum(W) holds after each
update. The exposed factorization keeps the row-normalized memberships
H = B / rowsum(B) (each row a distribution over communities) together with
the community masses lam; H is the per-node embedding.

Zero-degree nodes receive no update signal: their membership rows stay at
their initial values and they are flagged in the run metadata.

W must be bit-exactly symmetric in structure and values; the edge kernel
raises ValueError otherwise. One iteration costs one pass over the stored
entries with i <= j, which evaluates yhat once per iterate in blocks of
_BLOCK = 16384 entries and mirrors it to the lower half, plus one
sparse-dense product R @ B. Temporaries are O(_BLOCK d), not O(|E| d). The
same yhat serves the objective of the iterate and the update that follows
it. The objective's mass term is an O(n d) column sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import SparseAdjacency

# Stored entries per block of the edge kernel; its two gathers hold
# _BLOCK x d floats each (8 MB at d = 64).
_BLOCK = 16384
# Embedding rows formatted per write; their strings stay under 0.4 MB at d = 128.
_WRITE_ROWS = 128


@dataclass
class FactorizeConfig:
    """Knobs for one factorization run.

    rel_tol stops the loop once the relative objective improvement per
    iteration falls below it; epsilon floors logs and divisions.
    """

    d: int
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 42
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


@dataclass
class RunMetadata:
    """Bookkeeping recorded by factorize().

    stop_reason is "tolerance" when the relative improvement of the last
    iteration fell below rel_tol, else "max_iters"; final_rel_improvement is
    that last improvement, (previous - final objective) / |previous|.
    """

    iterations: int = 0
    objective: float = float("nan")
    objective_trace: list = field(default_factory=list)
    degenerate_nodes: list = field(default_factory=list)
    stop_reason: str = ""
    final_rel_improvement: float = float("nan")

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "objective": self.objective,
            "objective_trace": self.objective_trace,
            "degenerate_nodes": self.degenerate_nodes,
            "stop_reason": self.stop_reason,
            "final_rel_improvement": self.final_rel_improvement,
        }


def _factor_array(name: str, a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    if (a < 0).any():
        raise ValueError(f"{name} has a negative entry; factor entries must be nonnegative")
    return a


class Factorization:
    """Row-stochastic memberships H (n x d) plus community masses lam.

    ``mass`` is the underlying nonnegative node-community mass matrix B that
    the reconstruction and the updates operate on. Building a factorization
    directly from (H, lam) takes B = H * lam, the mass split implied by the
    memberships.
    """

    def __init__(self, H: np.ndarray, lam: np.ndarray, mass: np.ndarray | None = None,
                 run: RunMetadata | None = None):
        H = _factor_array("H", H)
        lam = _factor_array("lam", lam)
        if H.ndim != 2:
            raise ValueError("H must be 2-D")
        if lam.shape != (H.shape[1],):
            raise ValueError("lam length must equal the number of columns of H")
        self.H = H
        self.lam = lam
        self.mass = H * lam[None, :] if mass is None else _factor_array("mass", mass)
        self.run = run

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def d(self) -> int:
        return self.H.shape[1]

    def check_invariants(self, total_weight: float | None = None,
                         row_tol: float = 1e-9, lam_tol: float = 1e-6):
        rows = self.H.sum(axis=1)
        if np.abs(rows - 1.0).max() > row_tol:
            raise ValueError("membership rows do not sum to 1")
        if total_weight is not None:
            if abs(self.lam.sum() - total_weight) > lam_tol * max(abs(total_weight), 1e-300):
                raise ValueError("sum(lam) does not match the graph weight")


def init_factorization(n: int, config: FactorizeConfig, total_weight: float) -> Factorization:
    """Uniform-positive random memberships, uniform masses.

    H rows are drawn uniform-positive then row-normalized; lam is split
    evenly so that sum(lam) equals the supplied total weight. Deterministic
    given config.seed.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(config.seed)
    H = rng.uniform(0.1, 1.0, size=(n, config.d))
    H /= H.sum(axis=1, keepdims=True)
    lam = np.full(config.d, total_weight / config.d, dtype=np.float64)
    return Factorization(H, lam)


def reconstruct_entry(fac: Factorization, i: int, j: int) -> float:
    """Reconstructed weight between nodes i and j.

    Equals sum_p h_ip * lam_p * h_jp for a factorization built from (H, lam);
    along an optimization trajectory it is the model's two-hop path weight
    sum_p b_ip * b_jp / lam_p.
    """
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    return float(np.sum(fac.mass[i] * fac.mass[j] / lam_safe))


def reconstruct_dense(fac: Factorization) -> np.ndarray:
    """Full n x n reconstruction (small graphs / tests)."""
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    return (fac.mass / lam_safe[None, :]) @ fac.mass.T


def _yhat_at_edges(adj: SparseAdjacency, fac: Factorization) -> np.ndarray:
    """yhat_ij at every stored entry of W, in CSR data order.

    A sampled dense-dense product: only the entries with i <= j are
    evaluated, _BLOCK at a time, and copied to their transposes.
    """
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    Bl = fac.mass / lam_safe[None, :]
    upper = adj.upper
    rows, cols = adj.coo_rows[upper], adj.indices[upper]
    half = np.empty(upper.size)
    left = np.empty((min(_BLOCK, upper.size), fac.d))
    right = np.empty_like(left)
    for s in range(0, upper.size, _BLOCK):
        e = min(s + _BLOCK, upper.size)
        k = e - s
        # CSR indices are in range; mode="clip" spares take() the bounds
        # check that makes it gather through an extra buffer.
        np.take(Bl, rows[s:e], axis=0, out=left[:k], mode="clip")
        np.take(fac.mass, cols[s:e], axis=0, out=right[:k], mode="clip")
        np.einsum("ep,ep->e", left[:k], right[:k], out=half[s:e])
    yhat = np.empty(adj.nnz)
    yhat[upper] = half
    yhat[adj.transpose_perm[upper]] = half
    return yhat


def kl_objective(adj: SparseAdjacency, fac: Factorization,
                 epsilon: float = 1e-12) -> float:
    """Generalized KL divergence between W and the reconstruction.

    The sum runs over all n^2 pairs; zero-weight pairs contribute their
    reconstructed weight. Evaluated sparsely: the data terms only touch
    stored entries, and the total reconstructed mass folds to
    sum_p colsum(B)_p^2 / lam_p, so the cost is O(|E| d + n d).
    """
    return _objective(adj, fac, _yhat_at_edges(adj, fac), epsilon)


def _objective(adj: SparseAdjacency, fac: Factorization, yhat: np.ndarray,
               epsilon: float) -> float:
    w = adj.values
    yhat = np.maximum(yhat, epsilon)
    data_term = float(np.sum(w * np.log(np.maximum(w, epsilon) / yhat) - w)) if adj.nnz else 0.0
    col = fac.mass.sum(axis=0)
    lam_safe = np.maximum(fac.lam, epsilon)
    mass_term = float(np.sum(np.where(col > 0, col * col / lam_safe, 0.0)))
    return data_term + mass_term


def _active_mask(adj: SparseAdjacency) -> np.ndarray:
    return np.diff(adj.indptr) > 0


def _update_ratio(adj: SparseAdjacency, fac: Factorization, yhat: np.ndarray,
                  epsilon: float) -> Factorization:
    # R holds w_ij / yhat_ij on the support of W
    r = adj.values / np.maximum(yhat, epsilon)
    R = sp.csr_array((r, adj.indices, adj.indptr), shape=(adj.n, adj.n))
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    mass_new = fac.mass * (R @ fac.mass) / lam_safe[None, :]
    total = mass_new.sum()
    if total <= 0:
        raise ValueError("update collapsed all mass; is the graph edgeless?")
    mass_new *= adj.total_weight / total
    lam_new = mass_new.sum(axis=0)
    H_new = fac.H.copy()
    active = _active_mask(adj)
    rowsum = mass_new[active].sum(axis=1, keepdims=True)
    ok = rowsum.ravel() > 0  # a fully underflowed row keeps its last memberships
    idx = np.flatnonzero(active)[ok]
    H_new[idx] = mass_new[idx] / rowsum[ok]
    return Factorization(H_new, lam_new, mass=mass_new)


def update_step(adj: SparseAdjacency, fac: Factorization,
                config: FactorizeConfig | None = None) -> Factorization:
    """One multiplicative update of the factorization.

    The ratio form does not increase kl_objective and preserves the
    row-sum and mass constraints exactly (up to float rounding).
    """
    epsilon = config.epsilon if config else 1e-12
    return _update_ratio(adj, fac, _yhat_at_edges(adj, fac), epsilon)


def factorize(adj: SparseAdjacency, config: FactorizeConfig) -> Factorization:
    """Fit the factorization by iterating update_step from a random init.

    Stops when the relative objective improvement drops below
    config.rel_tol or after config.max_iters iterations, and returns the
    last iterate with run metadata attached, so run.objective equals
    run.objective_trace[-1]. The update does not increase the objective, and
    a rise from float rounding ends the loop at once.
    """
    if adj.total_weight <= 0:
        raise ValueError("graph has no edges; total weight is zero")
    fac = init_factorization(adj.n, config, adj.total_weight)
    yhat = _yhat_at_edges(adj, fac)
    obj = _objective(adj, fac, yhat, config.epsilon)
    trace = [obj]
    stop_reason = "max_iters"
    for it in range(1, config.max_iters + 1):
        fac = _update_ratio(adj, fac, yhat, config.epsilon)
        yhat = _yhat_at_edges(adj, fac)
        prev, obj = obj, _objective(adj, fac, yhat, config.epsilon)
        trace.append(obj)
        if prev - obj < config.rel_tol * max(abs(prev), 1e-300):
            stop_reason = "tolerance"
            break
    degenerate = np.flatnonzero(~_active_mask(adj))
    fac.run = RunMetadata(
        iterations=it,
        objective=obj,
        objective_trace=trace,
        degenerate_nodes=[int(x) for x in degenerate],
        stop_reason=stop_reason,
        final_rel_improvement=(prev - obj) / max(abs(prev), 1e-300),
    )
    return fac


def embedding(fac: Factorization) -> np.ndarray:
    """The per-node embedding: the row-stochastic membership matrix H."""
    return fac.H


def write_embedding(path, X: np.ndarray, names) -> None:
    """Write `n d` then one `name v1 ... vd` line per node (17 sig. digits).

    Rows are formatted and written in blocks of _WRITE_ROWS, one `%`
    operation per row.
    """
    X = np.asarray(X)
    n, d = X.shape
    line = "%s " + " ".join(["%.17g"] * d) + "\n"
    names = iter(names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for start in range(0, n, _WRITE_ROWS):
            rows = X[start:start + _WRITE_ROWS].tolist()
            # rows first: zip then stops without drawing a name past the block
            fh.write("".join([line % (name, *row) for row, name in zip(rows, names)]))


def read_embedding(path):
    """Read the write_embedding() format; returns (names, X)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("embedding file: bad header line")
        n, d = int(header[0]), int(header[1])
        names, rows = [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise ValueError(f"embedding file: expected {d + 1} fields per row")
            names.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    if len(names) != n:
        raise ValueError(f"embedding file: header promised {n} rows, found {len(names)}")
    return names, np.asarray(rows, dtype=np.float64).reshape(n, d)


def write_run_metadata(path, meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
