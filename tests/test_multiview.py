import dataclasses
import io
import json
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import mvne

from conftest import make_adjacency
from oracles import random_weighted_graph


def two_view_graph():
    return mvne.build_multiview([
        ("v1", io.StringIO("a\tb\t1\n")),
        ("v2", io.StringIO("a\tb\t3\n")),
    ])


class TestViewWeights:
    def test_normalized_accepted_silently(self):
        vw = mvne.ViewWeights([0.25, 0.75])
        assert np.array_equal(vw.beta, [0.25, 0.75])

    def test_unnormalized_renormalized_with_warning(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            vw = mvne.ViewWeights([2.0, 6.0])
        assert np.allclose(vw.beta, [0.25, 0.75])
        assert vw.beta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mvne.ViewWeights([0.5, -0.5, 1.0])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            mvne.ViewWeights([0.0, 0.0])

    def test_equality_is_identity_and_never_raises(self):
        # a generated __eq__ would compare the beta arrays and raise on their truth value
        a, b = mvne.ViewWeights([0.5, 0.5]), mvne.ViewWeights([0.5, 0.5])
        assert a == a and a != b
        config = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=2), betas=a)
        assert config == dataclasses.replace(config)
        assert config != dataclasses.replace(config, betas=b)


class TestDefaultBetas:
    def test_equal_views(self):
        g = mvne.build_multiview([
            ("v1", io.StringIO("a\tb\nb\tc\nc\td\ne\ta\n")),
            ("v2", io.StringIO("a\tc\nb\td\nd\te\nc\te\n")),
        ])
        assert [len(v.active_nodes()) for v in g.views] == [5, 5]
        assert np.array_equal(mvne.default_betas(g).beta, [0.5, 0.5])

    def test_single_view(self):
        g = mvne.build_multiview([("v", io.StringIO("a\tb\n"))])
        assert np.array_equal(mvne.default_betas(g).beta, [1.0])

    def test_flickr_shaped_counts(self):
        sizes = [2358, 2724, 4061, 1341, 6163]
        manifest = []
        for v, size in enumerate(sizes):
            lines = "\n".join(f"u{i}\tu{i + 1}" for i in range(size - 1))
            manifest.append((f"view{v}", io.StringIO(lines + "\n")))
        g = mvne.build_multiview(manifest)
        beta = mvne.default_betas(g).beta
        # frozen from the exact-rational oracle: size / 16647
        oracle = [0.1416471436294828, 0.1636330870427104, 0.24394785847299813,
                  0.08055505496485853, 0.3702168558899501]
        assert np.abs(beta - oracle).max() <= 5e-6
        assert abs(beta.sum() - 1.0) <= 1e-12

    def test_all_views_empty_rejected(self):
        reg = mvne.NodeRegistry()
        reg.intern("a")
        g = mvne.MultiViewGraph(registry=reg, view_names=["e"],
                                views=[mvne.SparseAdjacency(sp.csr_array((1, 1)))])
        with pytest.raises(ValueError, match="empty"):
            mvne.default_betas(g)


class TestCombineViews:
    def test_weighted_sum_arithmetic(self):
        g = two_view_graph()
        combined = mvne.combine_views(g, mvne.ViewWeights([0.5, 0.5]),
                                      normalize_views=False)
        assert combined.mat[0, 1] == 2.0
        assert combined.mat[1, 0] == 2.0
        assert combined.nnz == 2

    def test_k1_identity(self):
        g = mvne.build_multiview([("v", io.StringIO("a\tb\t2\nb\tc\t5\n"))])
        combined = mvne.combine_views(g, mvne.ViewWeights([1.0]),
                                      normalize_views=False)
        assert np.array_equal(combined.mat.data, g.views[0].mat.data)
        assert np.array_equal(combined.mat.indices, g.views[0].mat.indices)

    def test_normalization_gives_unit_total(self):
        g = two_view_graph()  # totals 2 and 6
        combined = mvne.combine_views(g, mvne.ViewWeights([0.5, 0.5]),
                                      normalize_views=True)
        assert combined.total_weight == pytest.approx(1.0, rel=1e-12)
        # direct summation check: 0.5*(1/2) + 0.5*(3/6) per direction
        assert combined.mat[0, 1] == pytest.approx(0.5, rel=1e-12)

    def test_linearity_on_dyadic_weights(self):
        g = mvne.build_multiview([
            ("v1", io.StringIO("a\tb\t2\nb\tc\t4\n")),
            ("v2", io.StringIO("a\tc\t8\nb\tc\t2\n")),
        ])
        b1 = mvne.ViewWeights([0.75, 0.25])
        b2 = mvne.ViewWeights([0.25, 0.75])
        lhs = mvne.combine_views(g, mvne.ViewWeights([0.5, 0.5]), normalize_views=False)
        t1 = mvne.combine_views(g, b1, normalize_views=False)
        t2 = mvne.combine_views(g, b2, normalize_views=False)
        rhs = 0.5 * t1.mat.toarray() + 0.5 * t2.mat.toarray()
        assert np.array_equal(lhs.mat.toarray(), rhs)

    def test_support_excludes_zero_beta_views(self):
        g = mvne.build_multiview([
            ("v1", io.StringIO("a\tb\n")),
            ("v2", io.StringIO("c\td\n")),
        ])
        combined = mvne.combine_views(g, mvne.ViewWeights([1.0, 0.0]))
        dense = combined.mat.toarray()
        assert dense[0, 1] > 0
        assert dense[2, 3] == 0
        assert combined.nnz == 2

    def test_support_is_union_of_positive_views(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            views = [random_weighted_graph(12, 0.25, seed * 10 + v) for v in range(3)]
            reg = mvne.NodeRegistry()
            for i in range(12):
                reg.intern(f"n{i}")
            g = mvne.MultiViewGraph(registry=reg,
                                    view_names=[f"v{v}" for v in range(3)],
                                    views=views)
            beta = mvne.ViewWeights([0.5, 0.5, 0.0])
            combined = mvne.combine_views(g, beta)
            got = combined.mat.toarray() > 0
            expect = (views[0].mat.toarray() > 0) | (views[1].mat.toarray() > 0)
            assert np.array_equal(got, expect)

    def test_weight_count_mismatch_rejected(self):
        g = two_view_graph()
        with pytest.raises(ValueError, match="weights for"):
            mvne.combine_views(g, mvne.ViewWeights([1.0]))

    def test_empty_view_with_positive_beta_contributes_nothing(self):
        reg = mvne.NodeRegistry()
        for c in "ab":
            reg.intern(c)
        full, _ = make_adjacency("a\tb\n")
        g = mvne.MultiViewGraph(registry=reg, view_names=["v", "empty"],
                                views=[full, mvne.SparseAdjacency(sp.csr_array((2, 2)))])
        combined = mvne.combine_views(g, mvne.ViewWeights([0.5, 0.5]))
        assert combined.nnz == 2
        assert combined.total_weight == pytest.approx(0.5, rel=1e-12)

    def test_view_with_overflowing_total_rejected_silently(self):
        # the adjacency refuses its own total, so no view that combine_views
        # could be given has one that is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="edge weights sum to inf, which is not finite"):
                mvne.SparseAdjacency(sp.csr_array([[0.0, 1e308], [1e308, 0.0]]))

    def test_subnormal_view_total_rejected_silently(self):
        # 1 / 2e-320 would overflow: the adjacency refuses the total, so
        # every view combine_views is given divides to a finite scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"view 'v2' \(.*\): edge weights sum to "
                                                 r"2e-320, below the smallest normal float"):
                mvne.build_multiview([("v1", io.StringIO("a\tb\t1\n")),
                                      ("v2", io.StringIO("a\tb\t1e-320\n"))])

    def test_sum_with_overflowing_total_rejected_silently(self):
        # each view's total is finite; 1 + 5e-13 passes as a weight total of
        # one, and the second view's share rounds the sum past the largest float
        g = mvne.build_multiview([("v1", io.StringIO("a\ta\t1.7976931348623157e308\n")),
                                  ("v2", io.StringIO("b\tb\t1e308\n"))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="edge weights sum to inf, which is not finite"):
                mvne.combine_views(g, mvne.ViewWeights([1.0, 5e-13]), normalize_views=False)


class TestMvneEmbed:
    def test_svne_takes_one_beta_only(self):
        adj, _ = make_adjacency("a\tb\nb\tc\nc\ta\nc\td\n")
        fcfg = mvne.FactorizeConfig(d=2, seed=3)
        with pytest.raises(ValueError, match="got 2 weights for 1 views"):
            mvne.svne_embed(adj, mvne.MvneConfig(fcfg, betas=mvne.ViewWeights([0.5, 0.5])))
        one = mvne.svne_embed(adj, mvne.MvneConfig(fcfg, betas=mvne.ViewWeights([1.0])))
        assert np.array_equal(one.mass, mvne.svne_embed(adj, mvne.MvneConfig(fcfg)).mass)

    def test_k1_reduces_to_svne_bitwise(self):
        g = mvne.build_multiview([("v", io.StringIO("a\tb\nb\tc\nc\ta\nc\td\n"))])
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=2, seed=3))
        mv = mvne.mvne_embed(g, cfg)
        sv = mvne.svne_embed(g.views[0], cfg)
        assert np.array_equal(mv.H, sv.H)
        assert np.array_equal(mv.lam, sv.lam)

    def test_embed_leaves_the_graph_as_given(self):
        g = two_view_graph()
        stats = mvne.view_stats(g)
        arrays = [(adj.mat.indptr.copy(), adj.mat.indices.copy(), adj.mat.data.copy())
                  for adj in g.views]
        mvne.mvne_embed(g, mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=2, seed=3)))
        assert mvne.view_stats(g) == stats
        for adj, before in zip(g.views, arrays):
            assert all(np.array_equal(a, b) for a, b in
                       zip((adj.mat.indptr, adj.mat.indices, adj.mat.data), before))

    def test_identical_views_match_single_view_run(self):
        text = "a\tb\nb\tc\nc\ta\nc\td\n"
        g2 = mvne.build_multiview([("v1", io.StringIO(text)), ("v2", io.StringIO(text))])
        g1 = mvne.build_multiview([("v", io.StringIO(text))])
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=2, seed=5))
        f2 = mvne.mvne_embed(g2, cfg)
        f1 = mvne.mvne_embed(g1, cfg)
        assert np.array_equal(f2.H, f1.H)
        assert np.array_equal(f2.lam, f1.lam)

    def test_embedding_covers_all_registry_nodes(self):
        g = mvne.build_multiview([
            ("v1", io.StringIO("a\tb\n")),
            ("v2", io.StringIO("c\td\n")),
        ])
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=2, seed=1),
                              betas=mvne.ViewWeights([1.0, 0.0]))
        fac = mvne.mvne_embed(g, cfg)
        assert fac.H.shape == (4, 2)
        assert fac.run.degenerate_nodes == [2, 3]

    def test_scaling_invariance_of_membership_trajectory(self):
        adj = random_weighted_graph(10, 0.5, 21)
        c = 7.5
        scaled = mvne.SparseAdjacency(adj.mat * c)
        cfg = mvne.FactorizeConfig(d=3, seed=21, max_iters=40, rel_tol=0.0)
        a = mvne.factorize(adj, cfg)
        b = mvne.factorize(scaled, cfg)
        assert np.abs(a.H - b.H).max() <= 1e-10
        assert np.abs(b.lam - c * a.lam).max() <= 1e-10 * max(1.0, c * a.lam.max())

    def test_sbm_fit_matches_pinned_trace(self):
        """The criterion-6 SBM (gseed 0, d=16, seed 42) against records of its fit.

        tests/data/sbm_fit_trace.json holds the iteration count and objective
        trace, and sbm_protocol_f1_embedding.txt the H, of this fit as
        iterated plain steps computed it, so update_step and kl_objective
        replayed from init_factorization must reproduce them up to rounding.
        factorize, which also tries the relaxed step, must descend
        monotonically and reach the tolerance stop in fewer iterations.
        """
        data = pathlib.Path(__file__).parent / "data"
        record = json.loads((data / "sbm_fit_trace.json").read_text())
        spec = mvne.SbmSpec(n=200, communities=4, p_in=0.3, p_out=0.01, views=3,
                            keep=0.4, noise=0.2, seed=0)
        graph, _ = mvne.generate_multiview_sbm(spec)
        cfg = mvne.MvneConfig(factorize=mvne.FactorizeConfig(d=16, seed=42))
        fcfg = cfg.factorize
        combined = mvne.combine_views(graph, mvne.default_betas(graph), cfg.normalize_views)
        fac = mvne.init_factorization(combined.n, fcfg, combined.total_weight)
        trace = [mvne.kl_objective(combined, fac, fcfg.epsilon)]
        for _ in range(record["iterations"]):
            fac = mvne.update_step(combined, fac, fcfg)
            trace.append(mvne.kl_objective(combined, fac, fcfg.epsilon))
        trace, pinned = np.array(trace), np.array(record["objective_trace"])
        assert trace.shape == pinned.shape
        assert (np.abs(trace - pinned) <= 1e-12 * np.abs(pinned)).all()
        names, H = mvne.read_embedding(data / "sbm_protocol_f1_embedding.txt")
        assert names == graph.registry.names
        assert np.abs(fac.H - H).max() <= 1e-10

        run = mvne.mvne_embed(graph, cfg).run
        assert all(b <= a for a, b in zip(run.objective_trace, run.objective_trace[1:]))
        assert run.stop_reason == "tolerance"
        assert run.iterations < record["iterations"]
