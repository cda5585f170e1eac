"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import mvne
from mvne.cli import main as cli_main

from conftest import argmax_purity, community_array
from oracles import dense_update_step, random_weighted_graph


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"FAIL  {name}  (over budget: {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"{name}: runtime {elapsed:.1f}s exceeds {budget_s}s")
    print(f"PASS  {name}  ({elapsed:.1f}s)")


def _criterion_graphs():
    """20 random graphs, n in [5, 30], density in [0.1, 0.5], shared seeds."""
    out = []
    for g in range(20):
        rng = np.random.default_rng(1000 + g)
        n = int(rng.integers(5, 31))
        density = float(rng.uniform(0.1, 0.5))
        d = int(rng.integers(2, 9))
        adj = random_weighted_graph(n, density, seed=1000 + g)
        if adj.total_weight > 0:
            out.append((adj, d, 1000 + g))
    return out


def test_criterion_1_and_2_monotone_objective_with_constraints():
    with criterion("1+2 objective monotone, constraints preserved", budget_s=10):
        for adj, d, seed in _criterion_graphs():
            cfg = mvne.FactorizeConfig(d=d, seed=seed)
            fac = mvne.init_factorization(adj.n, cfg, adj.total_weight)
            prev = mvne.kl_objective(adj, fac)
            for _ in range(200):
                fac = mvne.update_step(adj, fac, cfg)
                cur = mvne.kl_objective(adj, fac)
                assert cur <= prev + 1e-9, "objective increased"
                prev = cur
                assert np.abs(fac.H.sum(axis=1) - 1.0).max() <= 1e-9
                assert abs(fac.lam.sum() - adj.total_weight) <= 1e-6 * adj.total_weight


def test_criterion_3_sparse_dense_equivalence():
    # also at weights times 1e-14 and 1e14, far from the [0.5, 2) of the draw;
    # lam is compared in the units of the draw
    with criterion("3 sparse/dense trajectories agree <= 1e-10", budget_s=5):
        for seed, scale in [(seed, 1.0) for seed in range(10)] + [(0, 1e-14), (1, 1e14)]:
            adj = random_weighted_graph(15, 0.35, seed=2000 + seed)
            if adj.total_weight == 0:
                continue
            adj = mvne.SparseAdjacency(adj.mat * scale)
            W = adj.mat.toarray()
            cfg = mvne.FactorizeConfig(d=4, seed=2000 + seed)
            sparse_fac = mvne.init_factorization(15, cfg, adj.total_weight)
            dense_fac = mvne.init_factorization(15, cfg, W.sum())
            for _ in range(50):
                sparse_fac = mvne.update_step(adj, sparse_fac, cfg)
                dense_fac = dense_update_step(W, dense_fac)
                assert np.abs(sparse_fac.H - dense_fac.H).max() <= 1e-10
                assert np.abs(sparse_fac.lam - dense_fac.lam).max() / scale <= 1e-10


def test_criterion_4_linear_scaling_in_edges():
    with criterion("4 per-iteration time linear in |E|", budget_s=60):
        n = 2000
        d = 32
        iters, rounds = 25, 6
        pair_count = n * (n - 1) / 2
        cfg = mvne.FactorizeConfig(d=d, seed=0)
        sizes = (10_000, 20_000, 40_000)
        graphs, states = [], []
        for target_edges in sizes:
            adj = random_weighted_graph(n, target_edges / pair_count, seed=int(target_edges))
            fac = mvne.init_factorization(n, cfg, adj.total_weight)
            for _ in range(3):  # warm up caches and the CSR structures
                fac = mvne.update_step(adj, fac, cfg)
            graphs.append(adj)
            states.append(fac)
        # interleave timing rounds across sizes; keep the per-size minimum
        best = [np.inf] * len(sizes)
        for _ in range(rounds):
            for k, (adj, fac) in enumerate(zip(graphs, states)):
                cur = fac
                start = time.perf_counter()
                for _ in range(iters):
                    cur = mvne.update_step(adj, cur, cfg)
                best[k] = min(best[k], (time.perf_counter() - start) / iters)
        assert best[1] / best[0] <= 2.5, f"2x edges cost {best[1]/best[0]:.2f}x"
        assert best[2] / best[1] <= 2.5, f"2x edges cost {best[2]/best[1]:.2f}x"


def test_criterion_5_sbm_cluster_recovery():
    with criterion("5 SBM argmax purity >= 0.95 (10-seed mean)", budget_s=30):
        purities = []
        for seed in range(10):
            spec = mvne.SbmSpec(n=200, communities=4, p_in=0.3, p_out=0.01,
                                views=1, seed=seed)
            graph, labels = mvne.generate_multiview_sbm(spec)
            fac = mvne.svne_embed(
                graph.views[0],
                mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=4, seed=seed)))
            z = community_array(labels, 200)
            purities.append(argmax_purity(fac.H, z, 4))
        mean_purity = float(np.mean(purities))
        assert mean_purity >= 0.95, f"mean purity {mean_purity:.4f}"


def test_criterion_6_mvne_beats_best_single_view():
    with criterion("6 MVNE micro-F1 >= best SVNE + 0.05 (10-seed mean)",
                   budget_s=180):
        protocol = mvne.EvalProtocol(fractions=(0.5,), repeats=10, seed=7)
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=16, seed=42))
        margins = []
        for gseed in range(10):
            spec = mvne.SbmSpec(n=200, communities=4, p_in=0.3, p_out=0.01,
                                views=3, keep=0.4, noise=0.2, seed=gseed)
            graph, labels = mvne.generate_multiview_sbm(spec)
            best_single = max(
                mvne.run_protocol(mvne.svne_embed(adj, cfg).H, labels,
                                  protocol).mean_micro(0.5)
                for adj in graph.views)
            multi = mvne.run_protocol(mvne.mvne_embed(graph, cfg).H, labels,
                                      protocol).mean_micro(0.5)
            margins.append(multi - best_single)
        mean_margin = float(np.mean(margins))
        assert mean_margin >= 0.05, f"mean margin {mean_margin:+.4f}"


def test_criterion_7_k1_reduction_byte_identical(tmp_path):
    with criterion("7 MVNE(k=1) byte-identical to SVNE", budget_s=1):
        spec = mvne.SbmSpec(n=60, communities=3, p_in=0.4, p_out=0.05,
                            views=1, seed=3)
        graph, _ = mvne.generate_multiview_sbm(spec)
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=8, seed=3))
        mv = mvne.mvne_embed(graph, cfg)
        sv = mvne.svne_embed(graph.views[0], cfg)
        names = graph.registry.names
        a, b = tmp_path / "mv.txt", tmp_path / "sv.txt"
        mvne.write_embedding(a, mvne.embedding(mv), names)
        mvne.write_embedding(b, mvne.embedding(sv), names)
        assert a.read_bytes() == b.read_bytes()


def test_criterion_8_evaluation_harness_correctness():
    with criterion("8 F1 worked example, perfect fixture, determinism",
                   budget_s=1):
        truth = {0: {"a"}, 1: {"b"}, 2: set()}
        pred = {0: {"a"}, 1: set(), 2: {"a"}}
        assert mvne.micro_f1(truth, pred) == 0.5
        assert mvne.macro_f1(truth, pred) == pytest.approx(1.0 / 3.0, abs=1e-15)

        n, L = 30, 3
        X = np.zeros((n, L))
        store = mvne.LabelStore()
        for v in range(n):
            X[v, v % L] = 1.0
            store.add(v, [f"c{v % L}"])
        protocol = mvne.EvalProtocol(fractions=(0.5,), repeats=3, seed=1)
        report = mvne.run_protocol(X, store, protocol)
        assert report.mean_micro(0.5) == 1.0
        assert report.mean_macro(0.5) == 1.0

        again = mvne.run_protocol(X, store, protocol)
        assert report.to_json() == again.to_json()
        assert report.to_tsv() == again.to_tsv()


def test_criterion_9_default_view_weights():
    with criterion("9 size-proportional view weights", budget_s=1):
        import io
        sizes = [2358, 2724, 4061, 1341, 6163]
        manifest = []
        for v, size in enumerate(sizes):
            lines = "\n".join(f"u{i}\tu{i + 1}" for i in range(size - 1))
            manifest.append((f"view{v}", io.StringIO(lines + "\n")))
        graph = mvne.build_multiview(manifest)
        beta = mvne.default_betas(graph).beta
        # exact-rational oracle values (size / 16647); the five-decimal
        # constants quoted alongside the criterion are truncations of these
        oracle = np.array([0.1416471436294828, 0.1636330870427104,
                           0.24394785847299813, 0.08055505496485853,
                           0.3702168558899501])
        assert np.abs(beta - oracle).max() <= 5e-6
        quoted = np.array([0.14164, 0.16363, 0.24395, 0.08055, 0.37022])
        assert np.abs(beta - quoted).max() <= 1.1e-5
        assert abs(beta.sum() - 1.0) <= 1e-12


def test_criterion_10_end_to_end_cli(tmp_path):
    with criterion("10 synth -> embed -> eval pipeline, rerun byte-identical",
                   budget_s=180):
        def pipeline(tag):
            root = tmp_path / tag
            data = root / "data"
            emb = root / "emb.txt"
            rep_json, rep_tsv = root / "report.json", root / "report.tsv"
            assert cli_main(["synth", "--nodes", "200", "--communities", "4",
                             "--p-in", "0.3", "--p-out", "0.01", "--views", "3",
                             "--keep", "0.4", "--noise", "0.2", "--seed", "0",
                             "--out-dir", str(data)]) == 0
            assert cli_main(["embed", "--manifest", str(data / "views.manifest"),
                             "-d", "16", "--seed", "42", "--out", str(emb)]) == 0
            assert cli_main(["eval", "--embedding", str(emb),
                             "--labels", str(data / "labels.tsv"),
                             "--fractions", "0.5", "--repeats", "10",
                             "--json", str(rep_json), "--tsv", str(rep_tsv)]) == 0
            return data, emb, rep_json, rep_tsv

        data1, emb1, json1, tsv1 = pipeline("run1")

        doc = json.loads(json1.read_text())
        for key in ("protocol", "micro_f1", "macro_f1", "mean_micro",
                    "mean_macro", "sd_micro", "sd_macro"):
            assert key in doc
        assert len(doc["micro_f1"]["0.5"]) == 10
        assert all(0.0 <= s <= 1.0 for s in doc["micro_f1"]["0.5"])
        lines = tsv1.read_text().splitlines()
        assert lines[0] == "fraction\tmean_micro\tsd_micro\tmean_macro\tsd_macro"
        assert len(lines) == 2 and lines[1].startswith("0.5\t")

        data2, emb2, json2, tsv2 = pipeline("run2")
        assert emb1.read_bytes() == emb2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        assert tsv1.read_bytes() == tsv2.read_bytes()
        for name in ("views.manifest", "labels.tsv"):
            assert (data1 / name).read_bytes() == (data2 / name).read_bytes()
