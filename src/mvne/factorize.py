"""Single-view graph factorization under the generalized KL divergence.

The rows of B (n x d) are the nodes' nonnegative masses over d latent
communities, and W is reconstructed as

    yhat_ij = sum_p b_ip * b_jp / lam_p,      lam_p = sum_i b_ip.

The fit minimizes L(W, Yhat) = sum_ij (w_ij log(w_ij / yhat_ij) - w_ij + yhat_ij)
by the majorize-minimize update

    B <- B * (R @ B) / lam,     R_ij = w_ij / yhat_ij at stored entries,

which never raises L, keeps B nonnegative and keeps sum(lam) = sum(W).
factorize over-relaxes it (Fevotte & Idier, Neural Computation 2011): with
the update factor G = (R @ B) / lam it tries B * G^t, renormalized to
sum(W), and keeps it only if L falls strictly. The exponent t starts at 1,
where the plain step alone is taken, grows by 1.2 up to 4 after an accepted
candidate and halves down to 1 after a rejected one. A rejected candidate
costs a second kernel pass, for the plain step, so a fit makes
iterations + 1 + rejected_steps passes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _parts
from .graph import ParseError, SparseAdjacency

# Stored entries per block of the edge kernel; its two gathers hold
# _BLOCK x d floats each (1 MB at d = 64), allocated once per fit.
_BLOCK = 2048
# The relaxed step's exponent grows by _GROW up to _MAX_EXPONENT; caps 2 and 8
# and growth 1.1 and 1.5 were measured too (CHANGES.md).
_GROW = 1.2
_MAX_EXPONENT = 4.0
_TINY = np.finfo(np.float64).tiny


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
    """Uniform-positive random memberships H0 and the B0 that reconstructs H0 (total/d) H0^T.

    H0 rows are drawn uniform-positive then row-normalized; B0 scales column
    p of H0 by (total/d) colsum(H0)_p, the one B whose reconstruction
    B diag(1/colsum B) B^T is H0 diag(total/d) H0^T. The masses are not
    total/d: B0 sums to (total/d) sum_p colsum(H0)_p^2, about total (n/d)^2,
    and so does its reconstruction. The first update renormalizes the mass
    to total. Deterministic given config.seed.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(config.seed)
    B = rng.uniform(0.1, 1.0, size=(n, config.d))
    B /= B.sum(axis=1, keepdims=True)  # H0
    B *= total_weight / config.d * B.sum(axis=0)
    return Factorization(B)


def reconstruct_entry(fac: Factorization, i: int, j: int) -> float:
    """Reconstructed weight between nodes i and j.

    The model's two-hop path weight sum_p b_ip * b_jp / lam_p, read from the
    mass matrix B; a community with no mass contributes nothing.
    """
    lam_safe = np.where(fac.lam > 0, fac.lam, np.inf)
    return float(np.sum(fac.mass[i] * fac.mass[j] / lam_safe))


class _EdgePlan:
    """What the edge kernel and the ratio update reuse between iterates.

    factorize builds one per fit; the public update_step and kl_objective
    build one per call. It reads the adjacency's i <= j edge index (CSR
    positions, rows, columns and mirror positions) by reference, without a
    copy, and holds the ratio matrix R whose data array every ratio() call
    overwrites, and the yhat and gather buffers. Its methods take the mass
    matrix B alone and read lam = colsum(B) from it.
    """

    def __init__(self, adj: SparseAdjacency, d: int, epsilon: float):
        self.pos, self.rows, self.cols, self.mirror = adj.upper_index
        self.w = adj.values
        # max(w, epsilon) is w itself unless a weight is below epsilon
        self.w_floor = self.w if (self.w >= epsilon).all() else np.maximum(self.w, epsilon)
        self.total_weight = adj.total_weight
        self.epsilon = epsilon
        self.R = sp.csr_array((np.empty(adj.nnz), adj.indices, adj.indptr),
                              shape=(adj.n, adj.n))
        self.yhat = np.empty(adj.nnz)
        self.left = np.empty((min(_BLOCK, self.rows.size), d))
        self.right = np.empty_like(self.left)
        self.half = np.empty(self.left.shape[0])

    def reconstruct(self, mass: np.ndarray) -> np.ndarray:
        """max(yhat_ij, epsilon) at every stored entry, in CSR data order.

        A sampled dense-dense product: only the entries with i <= j are
        evaluated, _BLOCK at a time, and copied to their transposes. The
        result is self.yhat, which the next call overwrites.
        """
        lam = mass.sum(axis=0)
        Bl = mass / np.where(lam > 0, lam, np.inf)[None, :]
        left, right, half, yhat = self.left, self.right, self.half, self.yhat
        for s in range(0, self.rows.size, _BLOCK):
            e = min(s + _BLOCK, self.rows.size)
            k = e - s
            # CSR indices are in range; mode="clip" spares take() the bounds
            # check that makes it gather through an extra buffer.
            np.take(Bl, self.rows[s:e], axis=0, out=left[:k], mode="clip")
            np.take(mass, self.cols[s:e], axis=0, out=right[:k], mode="clip")
            np.einsum("ep,ep->e", left[:k], right[:k], out=half[:k])
            yhat[self.pos[s:e]] = half[:k]
            yhat[self.mirror[s:e]] = half[:k]
        return np.maximum(yhat, self.epsilon, out=yhat)

    def ratio(self, yhat: np.ndarray) -> None:
        """Set R_ij = w_ij / yhat_ij, the ratio the next update multiplies by."""
        np.divide(self.w, yhat, out=self.R.data)

    def objective(self, mass: np.ndarray) -> float:
        """kl_objective of mass from its reconstruct(); overwrites self.yhat."""
        t = self.yhat
        np.divide(self.w_floor, t, out=t)
        np.log(t, out=t)
        t *= self.w
        t -= self.w
        # sum_ij yhat_ij = sum_p colsum(B)_p^2 / lam_p = sum(B)
        return float(t.sum()) + float(mass.sum())

    def measure(self, mass: np.ndarray) -> float:
        """The objective of mass, with R set for the update from it."""
        self.ratio(self.reconstruct(mass))
        return self.objective(mass)

    def update(self, mass: np.ndarray) -> np.ndarray:
        """The ratio update from mass with the R that ratio() set, as a new B."""
        lam = mass.sum(axis=0)
        new = self.R @ mass
        new *= mass
        new /= np.where(lam > 0, lam, np.inf)
        total = new.sum()
        if total <= 0:
            # factorize rejects a zero total weight, so only underflow gets here:
            # weights far below the epsilon floor of yhat give ratios near zero
            raise ValueError(f"the update's mass underflowed to zero: the edge weights total "
                             f"{self.total_weight!r}, too little against the reconstruction's "
                             f"epsilon floor {self.epsilon!r}; rescale the edge weights")
        new *= self.total_weight / total
        return new

    def relax(self, mass: np.ndarray, step: np.ndarray, t: float) -> np.ndarray:
        """Overwrite mass with the relaxed candidate step * (step / mass)^(t - 1).

        step is update(mass), so the candidate is mass * G^t for the update
        factor G = (R @ B) / lam up to rounding, renormalized to the total
        weight. A zero of mass stays zero. Returns mass: the fit keeps either
        the candidate or step, never the old mass, so no buffer is needed.
        """
        np.maximum(mass, _TINY, out=mass)
        np.divide(step, mass, out=mass)
        np.power(mass, t - 1.0, out=mass)
        mass *= step
        mass *= self.total_weight / mass.sum()
        return mass


def kl_objective(adj: SparseAdjacency, fac: Factorization,
                 epsilon: float = 1e-12) -> float:
    """Generalized KL divergence between W and the reconstruction.

    The sum runs over all n^2 pairs; zero-weight pairs contribute their
    reconstructed weight. Evaluated sparsely: the data terms only touch
    stored entries, and the total reconstructed mass
    sum_p colsum(B)_p^2 / lam_p folds to sum(B) since lam = colsum(B), so
    the cost is O(|E| d + n d).
    """
    plan = _EdgePlan(adj, fac.d, epsilon)
    plan.reconstruct(fac.mass)
    return plan.objective(fac.mass)


def update_step(adj: SparseAdjacency, fac: Factorization,
                config: FactorizeConfig | None = None) -> Factorization:
    """One plain multiplicative update of the factorization.

    The ratio form does not increase kl_objective and preserves the
    row-sum and mass constraints exactly (up to float rounding).
    """
    plan = _EdgePlan(adj, fac.d, config.epsilon if config else 1e-12)
    plan.ratio(plan.reconstruct(fac.mass))
    return Factorization(plan.update(fac.mass))


def _overflow(kind, flag):
    raise ValueError(f"the fit overflows float64 (numpy: {kind}); rescale the edge weights")


# B * (R @ B) grows as the total weight squared, and the init's and objective's sums
# can overflow too; "invalid" catches the NaN from an inf of R @ B, which sets no flag.
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
    mass = init_factorization(adj.n, config, adj.total_weight).mass
    plan = _EdgePlan(adj, config.d, config.epsilon)
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
        else:
            rejected += t > 1
            t = max(t / 2, 1.0) if t > 1 else _GROW
            mass = step
            obj = plan.measure(mass)
        trace.append(obj)
        if prev - obj < config.rel_tol * max(abs(prev), 1e-300):
            stop_reason = "tolerance"
            break
    run = RunMetadata(
        iterations=it,
        objective=obj,
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


def write_embedding(path, X: np.ndarray, names) -> None:
    """Write `n d` then one `name v1 ... vd` line per node (17 sig. digits).

    ``names`` is a sequence of the n row names, strings. A count other than n,
    a value that is NaN or infinite, a name that is empty or holds
    whitespace and a repeated name raise ValueError, naming the first bad
    row, before the file is opened: read_embedding would refuse them. Rows
    are formatted by ``_parts.write``, one `%` operation per row, and an
    embedding above the split size by up to one process per usable core;
    the bytes are the same.
    """
    X = np.asarray(X)
    n, d = X.shape
    if len(names) != n:
        raise ValueError(f"got {len(names)} names for {n} embedding rows")
    if not np.isfinite(X).all():
        r = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"embedding row {r}: node {names[r]!r} has a NaN or infinite value")
    joined = "".join(names)
    # every whitespace character but " " is unprintable, so most names pass here at once
    if not (all(names) and joined.isprintable() and " " not in joined):
        r = next((r for r, name in enumerate(names) if name.split() != [name]), None)
        if r is not None:
            raise ValueError(f"embedding row {r}: node name {names[r]!r} is empty or holds "
                             "whitespace")
    if len(set(names)) < n:
        r = _first_repeat(names)
        raise ValueError(f"embedding row {r}: repeated node {names[r]!r}")
    line = "%s " + " ".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        _parts.write(fh, n, n * d, lambda lo, hi: "".join(
            [line % (name, *row) for name, row in zip(names[lo:hi], X[lo:hi].tolist())]))


def _first_repeat(names) -> int:
    """The first row whose name an earlier row holds."""
    first = {}
    return next(r for r, name in enumerate(names) if first.setdefault(name, r) != r)


def _row_line(path, row: int) -> int:
    """The file line holding embedding row ``row``; blank lines hold no row."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        lines = (no for no, line in enumerate(fh, start=2) if line.split())
        return next(itertools.islice(lines, row, None))


def read_embedding(path):
    """Read the write_embedding() format; returns (names, X).

    Node names must be unique and values finite: a repeated name, a value
    that is not a float, NaN or +-inf raises ParseError naming the line. The
    rows are read in bulk, a file above the split size by up to one process
    per usable core (``_parts.read``). On any input the bulk reader cannot
    vouch for, or when one of its worker processes fails, the per-line
    reader _read_rows, which defines the legal input, reads the file again
    and names the faulty line. The uniqueness and finiteness checks run once
    over the whole file; only a failure looks up its line.
    """
    try:
        names, X = _read_rows_bulk(path)
    except (ValueError, ChildProcessError):
        names, X = _read_rows(path)
    n = len(names)
    if len(set(names)) < n:
        r = _first_repeat(names)
        raise ParseError(f"embedding file: repeated node {names[r]!r}", _row_line(path, r))
    if not np.isfinite(X).all():
        r = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ParseError(f"embedding file: node {names[r]!r} has a NaN or infinite value",
                         _row_line(path, r))
    return names, X


def _read_header(line: str):
    header = line.split()
    if len(header) != 2 or not all(h.isdecimal() for h in header):
        raise ParseError("embedding file: bad header line, expected `n d`", 1)
    return int(header[0]), int(header[1])


def _read_rows(path):
    """Names and values line by line; raises ParseError naming a bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        n, d = _read_header(fh.readline())
        names, rows = [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise ParseError(f"embedding file: expected {d + 1} fields per row", line_no)
            names.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"embedding file: {exc}", line_no) from None
    if len(names) != n:
        raise ValueError(f"embedding file: header promised {n} rows, found {len(names)}")
    return names, np.asarray(rows, dtype=np.float64).reshape(n, d)


def _read_rows_bulk(path):
    """Names and values as _read_rows gives them, or ValueError.

    Each part of the data lines (``_parts.read``) is read by one np.loadtxt,
    whose converter for the first column collects the names. loadtxt splits
    on the whitespace str.split splits on, skips blank lines and refuses
    ragged rows, so parts of d + 1 columns, n rows and n names in all are
    the rows _read_rows reads. A child that fails raises ChildProcessError.
    """
    # newline="": lines end as in text mode, but the header keeps its line
    # end, so its UTF-8 length is where the data starts
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.readline()
        n, d = _read_header(head)
        start, size = len(head.encode("utf-8")), os.fstat(fh.fileno()).st_size
    if size == start:  # a header alone has no range of lines to cut
        raise ValueError("no values")
    parts = _parts.read(path, start, size, n * d, _read_span)
    blocks = [X for _, X in parts if len(X)]
    if not blocks or any(X.shape[1] != d + 1 for X in blocks):
        raise ValueError("not d + 1 fields per row")
    names = [name for names, _ in parts for name in names]
    X = np.concatenate([X[:, 1:] for X in blocks])
    if len(names) != n or X.shape[0] != n:
        raise ValueError("not n rows")
    return names, X


def _read_span(text):
    """(names, rows of all fields with the name read as 0) of the embedding lines in text."""
    names = []
    with warnings.catch_warnings():
        # loadtxt warns on a part of blank lines, and reads it as 0 rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        X = np.loadtxt(text, converters={0: lambda name: names.append(name) or 0.0},
                       comments=None, ndmin=2)
    return names, X


def write_run_metadata(path, meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
