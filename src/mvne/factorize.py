"""Single-view graph factorization under the generalized KL divergence.

The rows of B (n x d) are the nodes' nonnegative masses over d latent
communities, and W is reconstructed as

    yhat_ij = sum_p b_ip * b_jp / lam_p,      lam_p = sum_i b_ip.

The fit minimizes L(W, Yhat) = sum_ij (w_ij log(w_ij / yhat_ij) - w_ij + yhat_ij),
with yhat_ij floored at epsilon sum(W) in the data terms. Yhat is
1-homogeneous in B, so L(W, Yhat(B)) = U L(W / U, Yhat(B / U)) for any
U > 0: the fit runs on B' = B / U for the power of two U nearest the total
weight, so the masses sum to sum(W) / U, between 2^-1/2 and 2^1/2, and U
multiplies only the outputs. Scaling by a power of two is exact, so
factorize(c W) gives the same bits for c = 2^k while every value stays a
normal float, and one H up to rounding for any c > 0. The step is the
majorize-minimize update

    B' <- B' * (R @ B') / lam',     R_ij = w_ij / yhat_ij at stored entries,

renormalized to sum(B') = sum(W) / U, which never raises L and keeps B'
nonnegative. factorize over-relaxes it (Fevotte & Idier, Neural
Computation 2011): with the update factor G = (R @ B') / lam' it tries
B' * G^t, renormalized alike, and keeps it only if L falls strictly. The
exponent t starts at 1, where the plain step alone is taken, grows by 1.2
up to 4 after an accepted candidate and halves down to 1 after a rejected
one. A rejected candidate costs a second kernel pass, for the plain step,
so a fit makes iterations + 1 + rejected_steps passes.

A pass runs in up to one part per usable core, each part after the first
in a thread that lives for one kernel step (``_parts.threads``): the parts
split the entries, never a sum, so the fit's every bit is the same for any
number of parts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _parts
from .graph import _TINY, SparseAdjacency

# Floats per gather of the edge kernel: a block of _BLOCK_FLOATS // d stored
# entries, so each part's two gathers hold 1 MiB each at any d. Fixed
# 2,048-entry blocks ran the d = 16 sbm_converge fits 7% slower (two blocks
# a part, not one); at d = 128, 8 MiB blocks ran 29% slower.
_BLOCK_FLOATS = 1 << 17
# The fewest i <= j entries worth a kernel part, and a thread, of their own.
# Starting and joining a step's threads costs about 140 us, four steps a
# pass; 2^16 entries at d = 64 take about 10 ms to reconstruct.
_PART_ENTRIES = 1 << 16
# The relaxed step's exponent grows by _GROW up to _MAX_EXPONENT; caps 2 and 8
# and growth 1.1 and 1.5 were measured too (CHANGES.md).
_GROW = 1.2
_MAX_EXPONENT = 4.0
_EPSILON = 1e-12


@dataclass
class FactorizeConfig:
    """Knobs for one factorization run.

    rel_tol stops the loop once the relative objective improvement per
    iteration falls below it; epsilon floors the reconstruction relative to
    the total weight, yhat_ij >= epsilon * sum(W).
    """

    d: int
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 42
    epsilon: float = _EPSILON

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")


@dataclass
class RunMetadata:
    """Bookkeeping recorded by factorize().

    stop_reason is "tolerance" when the relative improvement of the last
    iteration fell below rel_tol, else "max_iters"; final_rel_improvement is
    that last improvement, (previous - final objective) / |previous|.
    rejected_steps counts relaxed candidates that did not lower the
    objective; each cost one extra kernel pass.
    """

    iterations: int = 0
    objective: float = float("nan")
    objective_trace: list = field(default_factory=list)
    degenerate_nodes: list = field(default_factory=list)
    stop_reason: str = ""
    final_rel_improvement: float = float("nan")
    rejected_steps: int = 0

    def to_dict(self):
        return asdict(self)


class Factorization:
    """The node-community mass matrix B (n x d) of a fit, and what it implies.

    ``mass`` is B, the one state the reconstruction and the updates operate
    on; it must be 2-D, finite and nonnegative. ``lam`` = colsum(B) are the
    community masses and ``H`` = B / rowsum(B) the row-stochastic
    memberships, with the uniform row 1/d for a row of B with no mass.
    """

    def __init__(self, mass: np.ndarray, *, run: RunMetadata | None = None):
        mass = np.asarray(mass, dtype=np.float64)
        if mass.ndim != 2 or mass.shape[1] < 1:
            raise ValueError("mass must be 2-D with at least one column")
        if not np.isfinite(mass).all():
            raise ValueError("mass has a NaN or infinite entry")
        if (mass < 0).any():
            raise ValueError("mass has a negative entry; factor entries must be nonnegative")
        self.mass = mass
        self.lam = mass.sum(axis=0)
        rowsum = mass.sum(axis=1, keepdims=True)
        self.H = np.divide(mass, rowsum, out=np.full(mass.shape, 1.0 / mass.shape[1]),
                           where=rowsum > 0)
        self.run = run

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def d(self) -> int:
        return self.mass.shape[1]


def init_factorization(n: int, config: FactorizeConfig, total_weight: float) -> Factorization:
    """Uniform-positive random memberships H0 and a B0 of mass total_weight.

    H0 rows are drawn uniform-positive then row-normalized; B0 scales column
    p of H0 by colsum(H0)_p, the one B whose reconstruction
    B diag(1/colsum B) B^T is H0 H0^T, and then by the one factor that makes
    B0, and so its reconstruction, sum to total_weight. Deterministic given
    config.seed.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(config.seed)
    B = rng.uniform(0.1, 1.0, size=(n, config.d))
    B /= B.sum(axis=1, keepdims=True)  # H0
    B *= B.sum(axis=0)
    B *= total_weight / B.sum()
    return Factorization(B)


class _EdgePlan:
    """What the edge kernel and the ratio update reuse between iterates.

    It reads the adjacency's edge index and weights by reference, without a
    copy. Its methods take the mass matrix B' = B / unit alone, in units of
    the weights' unit, and read lam' = colsum(B') from it.
    """

    def __init__(self, adj: SparseAdjacency, d: int, epsilon: float):
        self.pos, self.rows, self.cols, self.mirror = adj.upper_index
        self.w = adj.mat.data
        # The weights' unit, a normal float as SparseAdjacency refuses a smaller
        # total; self.total is sum(W) in units.
        total = adj.total_weight
        self.unit = 2.0 ** min(round(math.log2(total)), 1023) if total > 0 else 1.0
        self.total = total / self.unit
        self.floor = epsilon * self.total
        self.yhat = np.empty(adj.nnz)
        self.block = max(1, _BLOCK_FLOATS // d)
        m = self.pos.size
        cuts, self.map = _parts.threads(-(-m // self.block), m // _PART_ENTRIES)
        cuts = [min(c * self.block, m) for c in cuts]
        # rows cut where the parts hold near-equal shares of the stored entries
        k = len(cuts) - 1
        row_cuts = np.searchsorted(adj.mat.indptr, [adj.nnz * i // k for i in range(k)])
        row_cuts = [*row_cuts.tolist(), adj.n]
        self.parts = [_Part(adj.mat, d, self.block, lo, hi, r0, r1)
                      for lo, hi, r0, r1 in zip(cuts, cuts[1:], row_cuts, row_cuts[1:])]

    def measure(self, mass: np.ndarray) -> float:
        """The objective of B = unit * mass, in units, with R and lam_safe set for update(mass)."""
        lam = mass.sum(axis=0)
        self.lam_safe = np.where(lam > 0, lam, np.inf)
        Bl = mass / self.lam_safe[None, :]
        w, yhat, unit, block = self.w, self.yhat, self.unit, self.block

        def reconstruct(p):
            left, right, half = p.left, p.right, p.half
            for s in range(p.lo, p.hi, block):
                e = min(s + block, p.hi)
                k = e - s
                # CSR indices are in range; mode="clip" spares take() the bounds
                # check that makes it gather through an extra buffer.
                np.take(Bl, self.rows[s:e], axis=0, out=left[:k], mode="clip")
                np.take(mass, self.cols[s:e], axis=0, out=right[:k], mode="clip")
                np.einsum("ep,ep->e", left[:k], right[:k], out=half[:k])
                np.maximum(half[:k], self.floor, out=half[:k])
                half[:k] *= unit
                yhat[self.pos[s:e]] = half[:k]
                yhat[self.mirror[s:e]] = half[:k]

        def ratio(p):
            term, wp = yhat[p.entries], w[p.entries]
            np.divide(wp, term, out=p.R.data)
            np.log(p.R.data, out=term)
            term *= wp
            term -= wp

        self.map(reconstruct, self.parts)
        self.map(ratio, self.parts)
        # sum_ij yhat'_ij = sum_p colsum(B')_p^2 / lam'_p = sum(B')
        return float(yhat.sum()) / unit + float(mass.sum())

    def update(self, mass: np.ndarray) -> np.ndarray:
        """The ratio update of mass as a new B', by the R and column sums measure(mass) took."""
        new = np.empty_like(mass)

        def part(p):
            out = new[p.rows]
            np.multiply(p.R @ mass, mass[p.rows], out=out)
            out /= self.lam_safe

        self.map(part, self.parts)
        total = new.sum()
        if total <= 0:
            raise ValueError("the update has no mass to move: B has none on a node with edges")
        new *= self.total / total
        return new

    def relax(self, mass: np.ndarray, step: np.ndarray, t: float) -> np.ndarray:
        """Overwrite mass with the relaxed candidate step * (step / mass)^(t - 1).

        step is update(mass), so the candidate is mass * G^t for the update
        factor G = (R @ B') / lam' up to rounding, renormalized as update's.
        A zero of mass stays zero. Returns mass: the fit keeps either the
        candidate or step, never the old mass, so no buffer is needed.
        """

        def part(p):
            m, s = mass[p.rows], step[p.rows]
            np.maximum(m, _TINY, out=m)
            np.divide(s, m, out=m)
            np.power(m, t - 1.0, out=m)
            m *= s

        self.map(part, self.parts)
        mass *= self.total / mass.sum()
        return mass


class _Part:
    """One part of an _EdgePlan's kernel, with the buffers it writes alone."""

    def __init__(self, mat: sp.csr_array, d: int, block: int, lo: int, hi: int, r0: int,
                 r1: int):
        self.lo, self.hi = lo, hi
        self.rows = slice(r0, r1)
        a, b = int(mat.indptr[r0]), int(mat.indptr[r1])
        self.entries = slice(a, b)
        # measure() writes R.data, this part's own array. scipy's constructor copies
        # a slice of less than half its base array, so R gets the index view after.
        self.R = sp.csr_array((np.empty(b - a), mat.indices[a:b], mat.indptr[r0:r1 + 1] - a),
                              shape=(r1 - r0, mat.shape[1]))
        self.R.indices = mat.indices[a:b]
        self.left = np.empty((min(block, hi - lo), d))
        self.right = np.empty_like(self.left)
        self.half = np.empty(self.left.shape[0])


def kl_objective(adj: SparseAdjacency, fac: Factorization,
                 epsilon: float = _EPSILON) -> float:
    """Generalized KL divergence between W and the reconstruction.

    The sum runs over all n^2 pairs; zero-weight pairs contribute their
    reconstructed weight. Evaluated sparsely: the data terms only touch
    stored entries, and the total reconstructed mass
    sum_p colsum(B)_p^2 / lam_p folds to sum(B) since lam = colsum(B), so
    the cost is O(|E| d + n d).
    """
    plan = _EdgePlan(adj, fac.d, epsilon)
    return plan.unit * plan.measure(fac.mass / plan.unit)


def update_step(adj: SparseAdjacency, fac: Factorization,
                config: FactorizeConfig | None = None) -> Factorization:
    """One plain multiplicative update of the factorization.

    The ratio form does not increase kl_objective and preserves the
    row-sum and mass constraints exactly (up to float rounding).
    """
    plan = _EdgePlan(adj, fac.d, config.epsilon if config else _EPSILON)
    mass = fac.mass / plan.unit
    plan.measure(mass)
    return Factorization(plan.update(mass) * plan.unit)


def _overflow(kind, flag):
    raise ValueError(f"the fit overflows float64 (numpy: {kind}); rescale the edge weights")


# The objective's terms and sums are in the weights' own units, and overflow for a
# total weight near the largest float; "invalid" catches a NaN from an inf.
@np.errstate(over="call", invalid="call", call=_overflow)
def factorize(adj: SparseAdjacency, config: FactorizeConfig) -> Factorization:
    """Fit the factorization from a random init by guarded relaxed steps.

    Each iteration takes the relaxed candidate if it lowers the objective,
    else the plain update_step (see the module docstring). Stops when the
    relative objective improvement of an accepted step drops below
    config.rel_tol or after config.max_iters accepted steps, and returns the
    last iterate with run metadata attached, so run.objective equals
    run.objective_trace[-1]. Neither step increases the objective, and a
    rise from float rounding ends the loop at once. A float64 overflow
    anywhere in the fit raises ValueError.
    """
    if adj.total_weight <= 0:
        raise ValueError("graph has no edges; total weight is zero")
    plan = _EdgePlan(adj, config.d, config.epsilon)
    mass = init_factorization(adj.n, config, plan.total).mass
    obj = plan.measure(mass)
    trace = [obj]
    stop_reason = "max_iters"
    t, rejected = 1.0, 0
    for it in range(1, config.max_iters + 1):
        step, prev = plan.update(mass), obj
        if t > 1:
            mass = plan.relax(mass, step, t)
            obj = plan.measure(mass)
        if t > 1 and obj < prev:
            t = min(_GROW * t, _MAX_EXPONENT)
            # the next update then holds two n x d arrays, not three
            del step
        else:
            rejected += t > 1
            t = max(t / 2, 1.0) if t > 1 else _GROW
            mass = step
            obj = plan.measure(mass)
        trace.append(obj)
        if prev - obj < config.rel_tol * max(abs(prev), 1e-300):
            stop_reason = "tolerance"
            break
    mass *= plan.unit
    trace = np.multiply(trace, plan.unit).tolist()
    run = RunMetadata(
        iterations=it,
        objective=trace[-1],
        objective_trace=trace,
        degenerate_nodes=[int(x) for x in np.flatnonzero(adj.degrees() == 0)],
        stop_reason=stop_reason,
        final_rel_improvement=(prev - obj) / max(abs(prev), 1e-300),
        rejected_steps=rejected,
    )
    return Factorization(mass, run=run)


def embedding(fac: Factorization) -> np.ndarray:
    """The per-node embedding: the row-stochastic membership matrix H."""
    return fac.H


def _json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_run_metadata(path, meta) -> None:
    """Write the JSON value meta to path in the _json_text layout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(meta))
