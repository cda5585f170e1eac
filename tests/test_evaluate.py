import dataclasses
import json
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import mvne
from mvne.evaluate import _fit_ovr

from conftest import community_array


def store_from(assignments):
    """LabelStore from {node: [label names]}."""
    store = mvne.LabelStore()
    for node, names in assignments.items():
        store.add(node, names)
    return store


def one_hot_dataset(n_per_label=20, labels=3):
    """Perfectly separable one-hot features, single label per node."""
    n = n_per_label * labels
    X = np.zeros((n, labels))
    store = mvne.LabelStore()
    for v in range(n):
        lid = v % labels
        X[v, lid] = 1.0
        store.add(v, [f"L{lid}"])
    return X, store


class TestSplit:
    def test_even_split(self):
        train, test = mvne.split_labeled(range(10), 0.5, seed=0)
        assert len(train) == 5 and len(test) == 5
        assert sorted(train + test) == list(range(10))

    def test_minimum_one_rule(self):
        train, test = mvne.split_labeled(range(10), 0.09, seed=0)
        assert len(train) == 1 and len(test) == 9

    def test_determinism_and_variation(self):
        a = mvne.split_labeled(range(40), 0.5, seed=3)
        b = mvne.split_labeled(range(40), 0.5, seed=3)
        assert a == b
        different = sum(mvne.split_labeled(range(40), 0.5, seed=s) != a
                        for s in range(4, 24))
        assert different == 20  # overwhelming probability of distinct splits

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            mvne.split_labeled([1], 0.5, seed=0)
        with pytest.raises(ValueError):
            mvne.split_labeled(range(10), 1.0, seed=0)


class TestTrainOvr:
    def test_separable_1d_perfect_train_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0.2, 1.0, 30), rng.uniform(-1.0, -0.2, 30)])
        X = x[:, None]
        store = store_from({i: ["pos"] if x[i] > 0 else ["neg"] for i in range(60)})
        W, b = mvne.train_ovr(X, store, range(60), reg=1e-4)
        pos = store._vocab["pos"]
        correct = sum(((X[i] @ W.T + b)[pos] > 0) == (x[i] > 0) for i in range(60))
        assert correct == 60

    def test_all_positive_label_dominates_absent_label(self):
        X = np.random.default_rng(1).uniform(0, 1, (12, 3))
        store = mvne.LabelStore()
        everywhere, nowhere = store.label_id("everywhere"), store.label_id("nowhere")
        for v in range(12):
            store.add(v, ["everywhere"])
        W, b = mvne.train_ovr(X, store, range(12), reg=0.01)
        for v in range(12):
            s = X[v] @ W.T + b
            assert s[everywhere] > s[nowhere]

    def test_gradient_norm_below_tolerance(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (40, 4))
        y = rng.random(40) < 0.4
        (w,), (b,) = _fit_ovr(X, y[:, None], reg=0.01)
        sign = np.where(y, 1.0, -1.0)
        coef = -sign / (1.0 + np.exp(sign * (X @ w + b)))
        gw = X.T @ coef / 40 + 0.01 * w
        gb = coef.mean()
        assert np.sqrt(gw @ gw + gb * gb) < 1e-6

    def test_objective_no_worse_than_zero_weights(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            X = rng.uniform(-1, 1, (30, 3))
            y = rng.random(30) < rng.uniform(0.2, 0.8)
            if not y.any():
                continue
            reg = float(rng.uniform(1e-4, 1.0))
            (w,), (b,) = _fit_ovr(X, y[:, None], reg)
            sign = np.where(y, 1.0, -1.0)

            def obj(w_, b_):
                return np.mean(np.logaddexp(0, -sign * (X @ w_ + b_))) + 0.5 * reg * w_ @ w_

            assert obj(w, b) <= obj(np.zeros(3), 0.0) + 1e-12

    def test_empty_train_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError):
            mvne.train_ovr(X, store_from({0: ["a"]}), [], reg=0.1)


def logistic_objective(X, y, w, b, reg):
    sign = np.where(y, 1.0, -1.0)
    return float(np.mean(np.logaddexp(0.0, -sign * (X @ w + b))) + 0.5 * reg * w @ w)


def logistic_gradient_norm(X, y, w, b, reg):
    sign = np.where(y, 1.0, -1.0)
    coef = -sign * np.exp(-np.logaddexp(0.0, sign * (X @ w + b)))
    gw = X.T @ coef / len(y) + reg * w
    gb = coef.mean()
    return float(np.sqrt(gw @ gw + gb * gb))


def row_stochastic(rng, m, d):
    X = rng.uniform(0, 1, (m, d))
    return X / X.sum(axis=1, keepdims=True)


class TestNewtonSolver:
    def test_batched_fit_equals_per_column_fits(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, (120, 6))
        Y = rng.random((120, 5)) < np.array([0.1, 0.3, 0.5, 0.7, 0.95])
        W, b = _fit_ovr(X, Y, reg=0.01)
        assert W.shape == (5, 6) and b.shape == (5,)
        for l in range(5):
            (w,), (bl,) = _fit_ovr(X, Y[:, l, None], reg=0.01)
            assert np.abs(W[l] - w).max() <= 1e-10
            assert abs(b[l] - bl) <= 1e-10

    def test_every_label_gradient_below_tolerance(self):
        rng = np.random.default_rng(8)
        for X in (rng.uniform(-1, 1, (200, 8)), row_stochastic(rng, 200, 8)):
            Y = rng.random((200, 6)) < rng.uniform(0.05, 0.6, 6)
            for reg in (0.01, 1e-4):
                W, b = _fit_ovr(X, Y, reg)
                for l in range(6):
                    assert logistic_gradient_norm(X, Y[:, l], W[l], b[l], reg) < 1e-6

    @pytest.mark.parametrize("case", ["separable_1d", "row_stochastic", "one_hot"])
    def test_unregularized_fit_terminates_finite(self, case):
        rng = np.random.default_rng(9)
        if case == "separable_1d":
            x = np.concatenate([rng.uniform(0.2, 1.0, 30), rng.uniform(-1.0, -0.2, 30)])
            X, Y = x[:, None], (x > 0)[:, None]
        elif case == "row_stochastic":  # rows sum to 1: collinear with the bias
            X = row_stochastic(rng, 150, 5)
            Y = rng.random((150, 3)) < np.array([0.2, 0.5, 0.8])
        else:  # rows sum to exactly 1, so the Hessian is exactly singular
            X = np.eye(3)[np.arange(60) % 3]
            Y = rng.random((60, 2)) < 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W, b = _fit_ovr(X, Y, reg=0.0)
        assert np.isfinite(W).all() and np.isfinite(b).all()
        for l in range(Y.shape[1]):
            zero = logistic_objective(X, Y[:, l], np.zeros(X.shape[1]), 0.0, 0.0)
            assert logistic_objective(X, Y[:, l], W[l], b[l], 0.0) <= zero

    def test_armijo_guard_on_heavy_tailed_features(self):
        # The full Newton step from the second iterate overshoots here; taken
        # unguarded, the iteration diverges to an objective near 1e17.
        X = np.array([[0.048, 0.0084], [0.028, 3.2e-05], [1.1, 20.0], [0.043, 0.12],
                      [0.99, 0.52], [20.0, 0.66], [1.8, 0.15], [13.0, 36.0],
                      [0.27, 0.0041], [5.5, 0.78], [53.0, 0.081], [0.33, 9.8e-05]])
        y = np.arange(12) < 11
        for reg in (1e-8, 0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (w,), (b,) = _fit_ovr(X, y[:, None], reg)
            assert np.isfinite(w).all() and np.isfinite(b)
            assert logistic_objective(X, y, w, b, reg) < logistic_objective(X, y, np.zeros(2), 0.0, reg)
            assert logistic_gradient_norm(X, y, w, b, reg) < 1e-6

    def test_train_ovr_builds_no_stacked_hessian_temporary(self):
        m, d, L = 2000, 64, 40
        rng = np.random.default_rng(10)
        X = row_stochastic(rng, m, d)
        store = mvne.LabelStore()
        for v in range(m):
            store.add(v, [f"l{v % L}"])
        tracemalloc.start()
        try:
            mvne.train_ovr(X, store, range(m), reg=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one m x d x L float64 temporary alone would be 41 MB
        assert peak < 0.5 * m * d * L * 8

    def test_protocol_matches_gradient_descent_record(self):
        """F1 lists recorded with the former first-order solver (grad norm < 1e-6).

        The input is a pinned embedding file: mvne_embed of the SBM below
        (d=16, seed 42), so the record tests the OvR solver alone, whatever
        the fit does.

        One split differs: at fraction 0.1, repeat 3, the former solver stopped
        about 4e-5 from the minimizer, and one test node's two top scores came
        out 1.9e-6 apart; at the minimizer (gradient norm 1e-13) they are
        7.8e-7 apart the other way, which the Newton fit reproduces.
        """
        data = pathlib.Path(__file__).parent / "data"
        record = json.loads((data / "sbm_protocol_f1_gradient_descent.json").read_text())
        near_tie = {("micro_f1", "0.1", 3): 0.8, ("macro_f1", "0.1", 3): 0.7850539016206182}
        spec = mvne.SbmSpec(n=200, communities=4, p_in=0.3, p_out=0.01, views=3,
                            keep=0.4, noise=0.2, seed=0)
        graph, labels = mvne.generate_multiview_sbm(spec)
        names, H = mvne.read_embedding(data / "sbm_protocol_f1_embedding.txt")
        assert names == graph.registry.names
        protocol = mvne.EvalProtocol(fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                                     repeats=5, seed=7)
        doc = mvne.run_protocol(H, labels, protocol).to_dict()
        for metric in ("micro_f1", "macro_f1"):
            assert sorted(doc[metric]) == sorted(record[metric])
            for f, scores in record[metric].items():
                expected = [near_tie.get((metric, f, r), s) for r, s in enumerate(scores)]
                assert doc[metric][f] == expected


class TestPredict:
    def make_model(self, scores):
        # one feature; weights chosen so the scores at x=[1] equal the given values
        return np.array(scores)[:, None], np.zeros(len(scores))

    def test_top_k(self):
        model = self.make_model([0.9, 0.2, 0.8])
        assert mvne.predict_multilabel(model, np.array([1.0]), 2) == {0, 2}

    def test_k_zero(self):
        model = self.make_model([0.9, 0.2])
        assert mvne.predict_multilabel(model, np.array([1.0]), 0) == frozenset()

    def test_tie_breaks_to_smaller_id(self):
        model = self.make_model([0.5, 0.5])
        assert mvne.predict_multilabel(model, np.array([1.0]), 1) == {0}

    def test_k_beyond_vocabulary_rejected(self):
        model = self.make_model([0.5, 0.5])
        with pytest.raises(ValueError):
            mvne.predict_multilabel(model, np.array([1.0]), 3)


class TestF1:
    def test_perfect_prediction(self):
        truth = {0: {0, 1}, 1: {2}}
        assert mvne.micro_f1(truth, truth) == 1.0
        assert mvne.macro_f1(truth, truth) == 1.0

    def test_disjoint_prediction(self):
        truth = {0: {0}, 1: {1}}
        pred = {0: {1}, 1: {0}}
        assert mvne.micro_f1(truth, pred) == pytest.approx(0.0)

    def test_worked_example(self):
        # label a: TP=1 FP=1 FN=0; label b: TP=0 FP=0 FN=1
        truth = {0: {"a"}, 1: {"b"}, 2: set()}
        pred = {0: {"a"}, 1: set(), 2: {"a"}}
        assert mvne.micro_f1(truth, pred) == pytest.approx(0.5)
        assert mvne.macro_f1(truth, pred) == pytest.approx(1.0 / 3.0)

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            nodes = range(rng.integers(2, 12))
            labels = list(range(rng.integers(1, 5)))
            truth = {v: set(rng.choice(labels, rng.integers(0, len(labels) + 1),
                                       replace=False).tolist()) for v in nodes}
            pred = {v: set(rng.choice(labels, rng.integers(0, len(labels) + 1),
                                      replace=False).tolist()) for v in nodes}
            for score in (mvne.micro_f1(truth, pred), mvne.macro_f1(truth, pred)):
                assert 0.0 <= score <= 1.0

    def test_micro_invariant_under_label_permutation(self):
        rng = np.random.default_rng(5)
        truth = {v: set(rng.choice(4, 2, replace=False).tolist()) for v in range(8)}
        pred = {v: set(rng.choice(4, 2, replace=False).tolist()) for v in range(8)}
        perm = {0: 3, 1: 2, 2: 0, 3: 1}
        truth_p = {v: {perm[l] for l in s} for v, s in truth.items()}
        pred_p = {v: {perm[l] for l in s} for v, s in pred.items()}
        assert mvne.micro_f1(truth, pred) == pytest.approx(mvne.micro_f1(truth_p, pred_p))

    def test_macro_invariant_under_node_permutation(self):
        rng = np.random.default_rng(6)
        truth = {v: set(rng.choice(4, 2, replace=False).tolist()) for v in range(8)}
        pred = {v: set(rng.choice(4, 2, replace=False).tolist()) for v in range(8)}
        remap = {v: (v + 3) % 8 for v in range(8)}
        truth_p = {remap[v]: s for v, s in truth.items()}
        pred_p = {remap[v]: s for v, s in pred.items()}
        assert mvne.macro_f1(truth, pred) == pytest.approx(mvne.macro_f1(truth_p, pred_p))

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(ValueError):
            mvne.micro_f1({0: {1}}, {1: {1}})


class TestProtocol:
    def test_perfect_one_hot_scores_one_everywhere(self):
        X, store = one_hot_dataset(n_per_label=20, labels=3)
        protocol = mvne.EvalProtocol(fractions=(0.3, 0.5, 0.7), repeats=1, seed=0)
        report = mvne.run_protocol(X, store, protocol)
        for f in protocol.fractions:
            assert report.mean_micro(f) == pytest.approx(1.0)
            assert report.mean_macro(f) == pytest.approx(1.0)

    def test_aggregates_match_per_repeat_scores(self):
        X, store = one_hot_dataset(n_per_label=10, labels=2)
        protocol = mvne.EvalProtocol(fractions=(0.5,), repeats=4, seed=1)
        report = mvne.run_protocol(X, store, protocol)
        assert report.mean_micro(0.5) == pytest.approx(
            np.mean(report.micro[0.5]), abs=1e-12)

    def test_report_holds_the_protocol_it_ran(self):
        X, store = one_hot_dataset(n_per_label=8, labels=3)
        protocol = mvne.EvalProtocol(fractions=(0.25, 0.75), repeats=2, seed=3, reg=0.5)
        report = mvne.run_protocol(X, store, protocol)
        assert report.protocol is protocol
        assert list(report.micro) == list(report.macro) == [0.25, 0.75]
        assert report.to_dict()["protocol"] == {"fractions": [0.25, 0.75], "repeats": 2,
                                                "seed": 3, "reg": 0.5}
        assert [line.split("\t")[0] for line in report.to_tsv().splitlines()[1:]] == \
            ["0.25", "0.75"]
        # the protocol is frozen, so the report cannot come to describe another run
        before = report.to_json()
        with pytest.raises(dataclasses.FrozenInstanceError):
            protocol.fractions = (0.5,)
        assert report.to_json() == before

    def test_deterministic(self):
        X, store = one_hot_dataset(n_per_label=8, labels=3)
        protocol = mvne.EvalProtocol(fractions=(0.4, 0.6), repeats=3, seed=9)
        a = mvne.run_protocol(X, store, protocol)
        b = mvne.run_protocol(X, store, protocol)
        assert a.to_json() == b.to_json()
        assert a.to_tsv() == b.to_tsv()

    def test_structured_beats_shuffled_labels(self):
        spec = mvne.SbmSpec(n=150, communities=3, p_in=0.3, p_out=0.01, seed=5)
        graph, labels = mvne.generate_multiview_sbm(spec)
        fac = mvne.svne_embed(graph.views[0],
                              mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=3, seed=5)))
        protocol = mvne.EvalProtocol(fractions=(0.5,), repeats=5, seed=0)
        structured = mvne.run_protocol(fac.H, labels, protocol).mean_micro(0.5)

        z = community_array(labels, 150)
        rng = np.random.default_rng(123)
        shuffled_store = mvne.LabelStore()
        for v, zl in zip(range(150), z[rng.permutation(150)]):
            shuffled_store.add(v, [f"c{zl}"])
        shuffled = mvne.run_protocol(fac.H, shuffled_store, protocol).mean_micro(0.5)
        assert structured - shuffled >= 0.2

    def test_more_training_data_does_not_hurt(self):
        highs, lows = [], []
        for seed in range(10):
            spec = mvne.SbmSpec(n=120, communities=3, p_in=0.3, p_out=0.02, seed=seed)
            graph, labels = mvne.generate_multiview_sbm(spec)
            fac = mvne.svne_embed(graph.views[0],
                                  mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=3, seed=seed)))
            protocol = mvne.EvalProtocol(fractions=(0.1, 0.9), repeats=3, seed=seed)
            report = mvne.run_protocol(fac.H, labels, protocol)
            lows.append(report.mean_micro(0.1))
            highs.append(report.mean_micro(0.9))
        assert np.mean(highs) >= np.mean(lows)

    def test_invalid_protocols_rejected(self):
        with pytest.raises(ValueError):
            mvne.EvalProtocol(fractions=(0.0,))
        with pytest.raises(ValueError):
            mvne.EvalProtocol(fractions=(0.5,), repeats=0)
        with pytest.raises(ValueError):
            mvne.EvalProtocol(fractions=())
