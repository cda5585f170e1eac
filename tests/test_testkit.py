import numpy as np
import pytest

import mvne
from mvne import testkit

from conftest import argmax_purity, community_array
from oracles import (all_pairs_multiview_sbm, dense_factorize_oracle, dense_kl_objective,
                     dense_update_step, random_weighted_graph)


class TestDenseOracle:
    def test_size_guard(self):
        W = np.ones((65, 65)) - np.eye(65)
        with pytest.raises(ValueError, match="64"):
            dense_factorize_oracle(W, mvne.FactorizeConfig(d=2))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            dense_factorize_oracle(np.zeros((5, 5)), mvne.FactorizeConfig(d=2))

    def test_objective_monotone_100_iters(self):
        for seed in range(10):
            adj = random_weighted_graph(12, 0.4, seed)
            W = adj.mat.toarray()
            cfg = mvne.FactorizeConfig(d=3, seed=seed)
            fac = mvne.init_factorization(12, cfg, W.sum())
            prev = dense_kl_objective(W, fac)
            for _ in range(100):
                fac = dense_update_step(W, fac)
                cur = dense_kl_objective(W, fac)
                assert cur <= prev + 1e-9
                prev = cur

    def test_matches_sparse_factorize(self):
        for seed in range(3):
            adj = random_weighted_graph(15, 0.35, seed + 50)
            cfg = mvne.FactorizeConfig(d=4, seed=seed, max_iters=60, rel_tol=0.0)
            sparse = mvne.factorize(adj, cfg)
            dense = dense_factorize_oracle(adj.mat.toarray(), cfg)
            assert np.abs(sparse.H - dense.H).max() <= 1e-10
            assert np.abs(sparse.lam - dense.lam).max() <= 1e-10


def assert_same_dataset(got, expected):
    (g1, l1), (g2, l2) = got, expected
    assert g1.registry.names == g2.registry.names and g1.view_names == g2.view_names
    for a, b in zip(g1.views, g2.views, strict=True):
        assert np.array_equal(a.mat.indptr, b.mat.indptr)
        assert np.array_equal(a.mat.indices, b.mat.indices)
        assert np.array_equal(a.mat.data, b.mat.data)
    assert [l1.label_name(i) for i in range(l1.num_labels)] == \
        [l2.label_name(i) for i in range(l2.num_labels)]
    assert all(l1.labels_of(v) == l2.labels_of(v) for v in range(g2.n))


class TestGenerator:
    @pytest.mark.parametrize("n, seed, views, keep, noise", [
        (1, 0, 1, 1.0, 0.0), (2, 3, 2, 0.5, 0.5), (57, 1, 3, 0.4, 0.2),
        (200, 7, 3, 0.4, 0.2), (120, 4, 1, 1.0, 0.0), (90, 11, 4, 0.9, 1.0),
        (1500, 5, 2, 0.5, 0.1)])
    @pytest.mark.parametrize("block", [1 << 20, 1, 37, 1000])
    def test_blocked_draw_matches_the_all_pairs_oracle(self, monkeypatch, n, seed, views,
                                                       keep, noise, block):
        # a block is whole rows: 1 and 37 draw one row at a time, 1000 several rows;
        # n = 1500 has 1,124,250 pairs, three blocks at the shipped 2^20
        monkeypatch.setattr(testkit, "_PAIR_BLOCK", block)
        spec = mvne.SbmSpec(n=n, communities=3, p_in=0.3, p_out=0.02, views=views,
                            keep=keep, noise=noise, seed=seed)
        assert_same_dataset(mvne.generate_multiview_sbm(spec), all_pairs_multiview_sbm(spec))

    def test_deterministic_per_seed(self):
        spec = mvne.SbmSpec(n=60, communities=3, p_in=0.4, p_out=0.05,
                            views=2, keep=0.7, noise=0.1, seed=9)
        g1, l1 = mvne.generate_multiview_sbm(spec)
        g2, l2 = mvne.generate_multiview_sbm(spec)
        for a, b in zip(g1.views, g2.views):
            assert np.array_equal(a.mat.data, b.mat.data)
            assert np.array_equal(a.mat.indices, b.mat.indices)
        assert all(l1.labels_of(v) == l2.labels_of(v) for v in range(60))

    def test_pure_communities_fully_recovered(self):
        for seed in range(10):
            spec = mvne.SbmSpec(n=120, communities=3, p_in=0.35, p_out=0.0,
                                views=1, keep=1.0, noise=0.0, seed=seed)
            graph, labels = mvne.generate_multiview_sbm(spec)
            fac = mvne.svne_embed(
                graph.views[0],
                mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=3, seed=seed)))
            z = community_array(labels, 120)
            assert argmax_purity(fac.H, z, 3) == 1.0

    def test_empty_view_still_combines(self):
        spec = mvne.SbmSpec(n=30, communities=2, p_in=0.5, p_out=0.1,
                            views=2, keep=0.0, noise=0.0, seed=1)
        graph, _ = mvne.generate_multiview_sbm(spec)
        assert all(v.nnz == 0 for v in graph.views)
        full = mvne.SparseAdjacency.from_undirected([0], [1], [1.0], 30)
        g = mvne.MultiViewGraph(registry=graph.registry,
                                view_names=["full", "empty"],
                                views=[full, graph.views[0]])
        combined = mvne.combine_views(g, mvne.ViewWeights([0.5, 0.5]))
        assert combined.nnz == 2

    def test_expected_edge_counts_binomial(self):
        keep, noise = 0.6, 0.15
        devs = []
        for seed in range(20):
            spec = mvne.SbmSpec(n=100, communities=4, p_in=0.3, p_out=0.02,
                                views=1, keep=keep, noise=noise, seed=seed)
            graph, _ = mvne.generate_multiview_sbm(spec)
            # recount the base graph the generator sampled
            base_spec = mvne.SbmSpec(n=100, communities=4, p_in=0.3, p_out=0.02,
                                     views=1, keep=1.0, noise=0.0, seed=seed)
            base_graph, _ = mvne.generate_multiview_sbm(base_spec)
            m = base_graph.views[0].edge_count()
            got = graph.views[0].edge_count()
            mean = m * keep + m * noise
            sd = np.sqrt(m * keep * (1 - keep) + m * noise * (1 - noise))
            devs.append((got - mean) / sd)
        # within 3 sigma on average; duplicate collisions only shrink counts
        assert np.abs(np.mean(devs)) <= 3.0

    def test_generated_views_pass_invariants(self):
        spec = mvne.SbmSpec(n=50, communities=2, p_in=0.4, p_out=0.05,
                            views=3, keep=0.5, noise=0.2, seed=4)
        graph, labels = mvne.generate_multiview_sbm(spec)
        for adj in graph.views:
            adj.upper_index  # raises unless bit-exactly symmetric
            assert (adj.mat.data > 0).all()
        sizes = np.bincount(community_array(labels, 50), minlength=2)
        assert sizes.sum() == 50

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            mvne.SbmSpec(n=10, communities=2, p_in=0.1, p_out=0.2)
        with pytest.raises(ValueError):
            mvne.SbmSpec(n=10, communities=2, p_in=0.5, p_out=0.1, keep=1.5)


class TestDump:
    def test_round_trip_through_files(self, tmp_path):
        spec = mvne.SbmSpec(n=40, communities=2, p_in=0.5, p_out=0.05,
                            views=2, keep=0.8, noise=0.1, seed=2)
        graph, labels = mvne.generate_multiview_sbm(spec)
        manifest = mvne.dump_dataset(graph, labels, tmp_path)
        reloaded = mvne.build_multiview(mvne.read_manifest(manifest))
        # same undirected edge multisets per view, modulo node renaming
        for orig, again in zip(graph.views, reloaded.views):
            assert orig.edge_count() == again.edge_count()
            assert orig.total_weight == pytest.approx(again.total_weight)
        store = mvne.load_labels(str(tmp_path / "labels.tsv"), reloaded.registry)
        assert len(store.labeled_nodes()) == reloaded.n
