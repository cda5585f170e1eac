"""Node-label prediction harness.

One-vs-rest L2-regularized logistic regression on embedding rows, multi-label
top-k prediction (k = the node's true label count), Micro/Macro-F1, and the
fraction-sweep / repeated-split protocols. Identical inputs give identical
reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from .factorize import _json_text
from .graph import LabelStore

NEG_CONST = -1e30  # score of the constant-negative classifier
_ARMIJO_HALVINGS = 50  # step sizes down to 2**-49 before a label stops
_GRAD_TOL = 1e-6
_NEWTON_ITERS = 100


@dataclass(frozen=True)
class EvalProtocol:
    """Train-fraction sweep with repeated random splits; frozen, as an EvalReport holds it."""

    fractions: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    repeats: int = 10
    seed: int = 42
    reg: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if not self.fractions:
            raise ValueError("need at least one train fraction")
        if any(not (0.0 < f < 1.0) for f in self.fractions):
            raise ValueError("train fractions must lie strictly in (0, 1)")
        if len(set(map(_fraction_key, self.fractions))) < len(self.fractions):
            raise ValueError("fractions must give distinct report keys (6 significant "
                             f"digits), got {list(self.fractions)}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.reg) and self.reg >= 0):
            raise ValueError(f"reg must be finite and >= 0, got {self.reg!r}")


def _fraction_key(f: float) -> str:
    """A train fraction as reports name it: 6 significant digits, as ``%g``."""
    return f"{f:g}"


def split_labeled(nodes, fraction: float, seed: int):
    """Uniform random train/test partition of the labeled nodes.

    |train| = round(fraction * m), clamped so both sides keep at least one
    node. Deterministic per seed.
    """
    nodes = list(nodes)
    m = len(nodes)
    if m < 2:
        raise ValueError("need at least two labeled nodes to split")
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly in (0, 1)")
    n_train = min(max(int(round(fraction * m)), 1), m - 1)
    order = np.random.default_rng(seed).permutation(m)
    return [nodes[i] for i in order[:n_train]], [nodes[i] for i in order[n_train:]]


def _fit_ovr(X: np.ndarray, Y: np.ndarray, reg: float):
    """Fit one logistic regression per column of the m x L indicator Y, at once.

    Label l minimizes mean log-loss of Y[:, l] given X + reg * ||w_l||^2 / 2;
    its bias is not regularized. With reg > 0 each label's objective is
    strictly convex; a label stops once its gradient norm falls below 1e-6,
    typically after about five steps. All labels share one batched, damped
    Newton iteration: one product gives every label's margins and one its
    gradient, then each label whose gradient norm is still at least _GRAD_TOL
    gets its own (d+1) x (d+1) Hessian (built label by label, so no m x d x L
    temporary exists) and all steps come from one batched solve. A ridge of
    1e-10 times the mean Hessian diagonal keeps the solve defined at reg = 0,
    where features collinear with the bias make the Hessian singular. Each
    step is Armijo-guarded per label by halving; a label whose step cannot
    lower its objective keeps its previous point and stops.

    Returns (weights (L x d), biases (L,)).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=bool)
    m, d = X.shape
    Xa = np.hstack([X, np.ones((m, 1))])  # last coefficient is the bias
    sign = np.where(Y, 1.0, -1.0)
    penalty = np.full(d + 1, reg)
    penalty[d] = 0.0
    diag = np.arange(d + 1)
    W = np.zeros((d + 1, Y.shape[1]))

    def objective(Wc, sc):
        return (np.logaddexp(0.0, -sc * (Xa @ Wc)).mean(axis=0)
                + 0.5 * (penalty @ (Wc * Wc)))

    active = np.arange(Y.shape[1])
    for _ in range(_NEWTON_ITERS):
        Wa, sa = W[:, active], sign[:, active]
        margins = sa * (Xa @ Wa)
        loss_pos, loss_neg = np.logaddexp(0.0, margins), np.logaddexp(0.0, -margins)
        q = np.exp(-loss_pos)  # sigmoid(-margin), overflow-safe
        grad = Xa.T @ (-sa * q) / m + penalty[:, None] * Wa
        go = np.sqrt((grad * grad).sum(axis=0)) >= _GRAD_TOL
        if not go.any():
            break
        active, Wa, sa, grad = active[go], Wa[:, go], sa[:, go], grad[:, go]
        value = loss_neg[:, go].mean(axis=0) + 0.5 * (penalty @ (Wa * Wa))
        curv = np.exp(-0.5 * (loss_pos[:, go] + loss_neg[:, go]))  # sqrt(p(1 - p))
        hess = np.empty((active.size, d + 1, d + 1))
        for k in range(active.size):
            R = curv[:, k, None] * Xa
            hess[k] = R.T @ R
        hess /= m
        hess[:, diag, diag] += penalty
        hess[:, diag, diag] += 1e-10 * hess[:, diag, diag].mean(axis=1, keepdims=True)
        step = np.linalg.solve(hess, grad.T[:, :, None])[:, :, 0].T
        slope = (grad * step).sum(axis=0)
        t = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(_ARMIJO_HALVINGS):
            trial = Wa[:, pending] - t[pending] * step[:, pending]
            ok = (objective(trial, sa[:, pending])
                  <= value[pending] - 1e-4 * t[pending] * slope[pending])
            W[:, active[pending[ok]]] = trial[:, ok]
            pending = pending[~ok]
            if not pending.size:
                break
            t[pending] *= 0.5
        active = np.delete(active, pending)  # no decrease found: keep and stop
        if not active.size:
            break
    return W[:d].T, W[d]


def _indicator(id_sets, num_labels: int) -> np.ndarray:
    """The boolean matrix whose row r marks the label ids in the r-th set."""
    id_sets = list(id_sets)
    rows = np.repeat(np.arange(len(id_sets)), [len(ids) for ids in id_sets])
    Y = np.zeros((len(id_sets), num_labels), dtype=bool)
    Y[rows, list(chain(*id_sets))] = True
    return Y


def _ovr_model(X: np.ndarray, Y: np.ndarray, reg: float):
    """The model (weights L x d, biases L): a fit for each column of Y with a positive
    row, constant-negative for the rest. ``x @ weights.T + biases`` scores x."""
    present = Y.any(axis=0)
    if not present.any():
        raise ValueError("no label is present in the train set")
    weights = np.zeros((Y.shape[1], X.shape[1]))
    biases = np.full(Y.shape[1], NEG_CONST)
    weights[present], biases[present] = _fit_ovr(X, Y[:, present], reg)
    return weights, biases


def train_ovr(X: np.ndarray, labels: LabelStore, train_nodes,
              reg: float = EvalProtocol.reg):
    """Fit one binary classifier per vocabulary label on the train nodes.

    Returns the (weights, biases) model of _ovr_model: labels with no positive
    train node get a constant-negative classifier.
    """
    train_nodes = list(train_nodes)
    if not train_nodes:
        raise ValueError("empty train set")
    Y = _indicator(map(labels.labels_of, train_nodes), labels.num_labels)
    return _ovr_model(X[train_nodes], Y, reg)


def _top_k(scores: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Mark the k[r] highest scores of each row; ties go to the lower label id."""
    order = np.argsort(-scores, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(scores.shape[1]), axis=1)
    return rank < k[:, None]


def _f1(truth: np.ndarray, predicted: np.ndarray):
    """(Micro-F1, Macro-F1) of two m x L boolean indicator matrices.

    TP/FP/FN are counted once per label. Micro-F1 pools the integer totals;
    Macro-F1 averages per-label F1, added in ascending label id, over the
    labels with a true or predicted instance.
    """
    tp = (truth & predicted).sum(axis=0)
    denom = truth.sum(axis=0) + predicted.sum(axis=0)  # 2 TP + FP + FN
    pooled = int(denom.sum())
    micro = 2 * int(tp.sum()) / pooled if pooled else 0.0
    per_label = 2 * tp[denom > 0] / denom[denom > 0]
    # added strictly left to right, which the pinned F1 record relies on; np.sum adds pairwise
    macro = float(np.cumsum(per_label)[-1]) / per_label.size if per_label.size else 0.0
    return micro, macro


def predict_multilabel(model, x: np.ndarray, k: int):
    """The k labels of the (weights, biases) model with highest scores on x;
    ties broken by ascending label id."""
    weights, biases = model
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(biases):
        raise ValueError(f"k={k} exceeds the vocabulary size {len(biases)}")
    top = _top_k(np.atleast_2d(x) @ weights.T + biases, np.array([k]))[0]
    return frozenset(np.flatnonzero(top).tolist())


def _f1_of_maps(truth: dict, predicted: dict):
    if set(truth) != set(predicted):
        raise ValueError("truth and prediction cover different node sets")
    vocab = {l: i for i, l in enumerate(dict.fromkeys(chain(*truth.values(),
                                                            *predicted.values())))}
    return _f1(*(_indicator([[vocab[l] for l in sets[v]] for v in truth], len(vocab))
                 for sets in (truth, predicted)))


def micro_f1(truth: dict, predicted: dict) -> float:
    """F1 over globally pooled true/false positive/negative counts."""
    return _f1_of_maps(truth, predicted)[0]


def macro_f1(truth: dict, predicted: dict) -> float:
    """Unweighted mean of per-label F1 over labels with any support.

    A label enters the mean if it has a true or predicted instance; a label
    with support but no true positives scores 0.
    """
    return _f1_of_maps(truth, predicted)[1]


@dataclass
class EvalReport:
    """The protocol a run followed, its per-(fraction, repeat) scores and their aggregates."""

    protocol: EvalProtocol
    micro: dict = field(default_factory=dict)  # fraction -> [score per repeat]
    macro: dict = field(default_factory=dict)

    def mean_micro(self, fraction: float) -> float:
        return float(np.mean(self.micro[fraction]))

    def mean_macro(self, fraction: float) -> float:
        return float(np.mean(self.macro[fraction]))

    def sd_micro(self, fraction: float) -> float:
        return float(np.std(self.micro[fraction]))

    def sd_macro(self, fraction: float) -> float:
        return float(np.std(self.macro[fraction]))

    def to_dict(self) -> dict:
        def by_fraction(score):
            return {_fraction_key(f): score(f) for f in self.protocol.fractions}

        return {
            "protocol": {**asdict(self.protocol), "fractions": list(self.protocol.fractions)},
            "micro_f1": by_fraction(lambda f: list(self.micro[f])),
            "macro_f1": by_fraction(lambda f: list(self.macro[f])),
            "mean_micro": by_fraction(self.mean_micro),
            "mean_macro": by_fraction(self.mean_macro),
            "sd_micro": by_fraction(self.sd_micro),
            "sd_macro": by_fraction(self.sd_macro),
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    def to_tsv(self) -> str:
        lines = ["fraction\tmean_micro\tsd_micro\tmean_macro\tsd_macro"]
        for f in self.protocol.fractions:
            lines.append(f"{_fraction_key(f)}\t{self.mean_micro(f):.17g}\t{self.sd_micro(f):.17g}"
                         f"\t{self.mean_macro(f):.17g}\t{self.sd_macro(f):.17g}")
        return "\n".join(lines) + "\n"


def run_protocol(X: np.ndarray, labels: LabelStore,
                 protocol: EvalProtocol) -> EvalReport:
    """Sweep train fractions with repeated splits and score each repeat.

    Per repeat: split the labeled nodes, fit the one-vs-rest model on the
    train side, predict top-k labels (k = true label count) on the test
    side, and record Micro/Macro-F1. Per-repeat split seeds are
    protocol.seed + repeat index.
    """
    nodes = labels.labeled_nodes()
    X, Y = X[nodes], _indicator(map(labels.labels_of, nodes), labels.num_labels)
    report = EvalReport(protocol)
    for fraction in protocol.fractions:
        for rep in range(protocol.repeats):
            # split row positions: X and Y hold the labeled nodes' rows
            train, test = split_labeled(range(len(nodes)), fraction, protocol.seed + rep)
            weights, biases = _ovr_model(X[train], Y[train], protocol.reg)
            truth = Y[test]
            micro, macro = _f1(truth, _top_k(X[test] @ weights.T + biases, truth.sum(axis=1)))
            report.micro.setdefault(fraction, []).append(micro)
            report.macro.setdefault(fraction, []).append(macro)
    return report
