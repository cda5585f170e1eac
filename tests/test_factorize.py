import dataclasses
import importlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import mvne
from mvne import _parts
from mvne.factorize import _BLOCK, _EdgePlan
from mvne.graph import ParseError

from conftest import coo_rows, make_adjacency

factorize_module = importlib.import_module("mvne.factorize")  # mvne.factorize is the function


def small_config(d, seed=0, **kw):
    return mvne.FactorizeConfig(d=d, seed=seed, **kw)


def loops_and_isolated_node(n, density, seed, loops):
    """A random graph on n nodes with `loops` self-loops, plus isolated node n."""
    rng = np.random.default_rng(seed)
    W = np.triu(mvne.random_weighted_graph(n, density, seed).mat.toarray())
    at = rng.choice(n, loops, replace=False)
    W[at, at] = rng.uniform(0.5, 2.0, loops)
    return mvne.SparseAdjacency.from_undirected(*np.nonzero(W), W[np.nonzero(W)], n + 1)


def assert_fit_matches_stepwise(adj, cfg, monkeypatch):
    """Each accepted iterate of factorize is, bit for bit, update_step of the
    one before or the relaxed candidate built from it with the exponent t
    the loop's schedule gives; the trace does not rise; and the kernel
    passes are one per accepted step, one for the init and one per
    rejected candidate. Returns the fit's run metadata.
    """
    measure, passes = _EdgePlan.measure, []
    monkeypatch.setattr(_EdgePlan, "measure",
                        lambda plan, mass: passes.append(1) or measure(plan, mass))
    fit = mvne.factorize(adj, cfg)
    monkeypatch.setattr(_EdgePlan, "measure", measure)
    run = fit.run
    assert len(passes) == run.iterations + 1 + run.rejected_steps
    assert all(b <= a for a, b in zip(run.objective_trace, run.objective_trace[1:]))

    prev = mvne.init_factorization(adj.n, cfg, adj.total_weight)
    assert run.objective_trace[0] == mvne.kl_objective(adj, prev, cfg.epsilon)
    t, rejected = 1.0, 0
    for k in range(1, run.iterations + 1):
        # factorize is deterministic, so stopping it after k accepted steps
        # gives its k-th iterate
        cur = mvne.factorize(adj, dataclasses.replace(cfg, max_iters=k))
        assert cur.run.objective_trace == run.objective_trace[:k + 1]
        step = mvne.update_step(adj, prev, cfg).mass
        if t > 1 and not np.array_equal(cur.mass, step):
            cand = _EdgePlan(adj, cfg.d, cfg.epsilon).relax(prev.mass.copy(), step, t)
            assert np.array_equal(cur.mass, cand)
            t = min(factorize_module._GROW * t, factorize_module._MAX_EXPONENT)
        else:
            assert np.array_equal(cur.mass, step)
            rejected += t > 1
            t = max(t / 2, 1.0) if t > 1 else factorize_module._GROW
        assert run.objective_trace[k] == mvne.kl_objective(adj, cur, cfg.epsilon)
        prev = cur
    assert rejected == run.rejected_steps
    for name in ("H", "lam", "mass"):
        assert np.array_equal(getattr(fit, name), getattr(prev, name))
    return run


def edges_150k():
    """n = 4000 nodes, 150k random edge draws: nnz is about 300k."""
    n = 4000
    rng = np.random.default_rng(5)
    adj = mvne.SparseAdjacency.from_undirected(
        rng.integers(0, n, 150_000), rng.integers(0, n, 150_000), np.ones(150_000), n)
    assert adj.nnz > 16 * _BLOCK
    adj.upper_index  # the symmetry cache is built once per adjacency, not per fit
    return adj


class TestInit:
    def test_rows_sum_to_one(self):
        fac = mvne.init_factorization(1, small_config(3), total_weight=2.0)
        assert fac.H.shape == (1, 3)
        assert abs(fac.H.sum() - 1.0) < 1e-12

    def test_same_seed_identical(self):
        a = mvne.init_factorization(7, small_config(4, seed=9), 5.0)
        b = mvne.init_factorization(7, small_config(4, seed=9), 5.0)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.lam, b.lam)

    def test_uniform_mass_split(self):
        # B0 reconstructs to H0 diag(total/d) H0^T, with H0 redrawn from the seed
        fac = mvne.init_factorization(3, small_config(4), total_weight=8.0)
        H0 = np.random.default_rng(0).uniform(0.1, 1.0, size=(3, 4))
        H0 /= H0.sum(axis=1, keepdims=True)
        assert np.abs(mvne.reconstruct_dense(fac) - (H0 * 2.0) @ H0.T).max() <= 1e-12

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            mvne.init_factorization(0, small_config(2), 1.0)


class TestFactorizationChecks:
    @pytest.mark.parametrize("H, lam, mass", [
        ([[math.nan, 1.0]], [1.0, math.inf], None),
        ([[math.nan, 1.0]], [1.0, 1.0], None),
        ([[math.inf, 1.0]], [1.0, 1.0], None),
        ([[0.5, 0.5]], [1.0, math.inf], None),
        ([[0.5, 0.5]], [-math.inf, 1.0], None),
        ([[0.5, 0.5]], [1.0, math.nan], None),
        ([[0.5, 0.5]], [1.0, 1.0], [[math.nan, 0.5]]),
        ([[0.5, 0.5]], [1.0, 1.0], [[0.5, math.inf]]),
        ([[0.5, 0.5]], [1.0, 1.0], [[0.5, -0.5]]),
    ])
    def test_non_finite_or_negative_rejected(self, H, lam, mass):
        # each case's mass matrix: the given one, else the split H * lam
        with np.errstate(invalid="ignore"):
            B = np.multiply(H, lam) if mass is None else mass
        with pytest.raises(ValueError):
            mvne.Factorization(B)

    @pytest.mark.parametrize("mass", [[1.0, 2.0], [[[1.0]]], np.empty((2, 0))])
    def test_mass_shape_checked(self, mass):
        with pytest.raises(ValueError, match="2-D"):
            mvne.Factorization(mass)


class TestReconstruct:
    def test_identity_like_rows(self):
        fac = mvne.Factorization(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert mvne.reconstruct_entry(fac, 0, 1) == 0.0
        assert mvne.reconstruct_entry(fac, 0, 0) == 1.0

    def test_uniform_memberships(self):
        fac = mvne.Factorization(np.full((2, 2), 0.5))
        for i in range(2):
            for j in range(2):
                assert mvne.reconstruct_entry(fac, i, j) == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_product_oracle(self):
        rng = np.random.default_rng(3)
        H = rng.uniform(0.1, 1.0, (4, 2))
        H /= H.sum(axis=1, keepdims=True)
        lam = rng.uniform(0.5, 2.0, 2)
        # the one mass matrix whose reconstruction is H diag(lam) H^T
        fac = mvne.Factorization(H * (lam * H.sum(axis=0)))
        ref = (H * lam) @ H.T
        got = mvne.reconstruct_dense(fac)
        assert np.abs(got - ref).max() <= 1e-12
        for i in range(4):
            for j in range(4):
                assert abs(mvne.reconstruct_entry(fac, i, j) - ref[i, j]) <= 1e-12
                assert mvne.reconstruct_entry(fac, i, j) == mvne.reconstruct_entry(fac, j, i)


class TestObjective:
    def test_exact_reconstruction_is_zero(self):
        # all-ones W including self-loops is exactly reconstructible at d=1
        adj, _ = make_adjacency("a\ta\t1\nb\tb\t1\na\tb\t1\n")
        fac = mvne.Factorization(np.array([[2.0], [2.0]]))
        assert mvne.kl_objective(adj, fac) == pytest.approx(0.0, abs=1e-12)

    def test_worked_two_node_value(self):
        adj, _ = make_adjacency("a\tb\t1\n")
        fac = mvne.Factorization(np.full((2, 2), 0.5))
        expect = 2 * math.log(2)  # 2(log 2 - 0.5) + 2*0.5, all four pairs
        assert mvne.kl_objective(adj, fac) == pytest.approx(expect, rel=1e-12)
        W = adj.mat.toarray()
        assert mvne.dense_kl_objective(W, fac) == pytest.approx(expect, rel=1e-12)

    def test_sparse_matches_dense_oracle(self):
        for seed in range(8):
            adj = mvne.random_weighted_graph(10, 0.4, seed)
            if adj.total_weight == 0:
                continue
            fac = mvne.init_factorization(10, small_config(3, seed=seed), adj.total_weight)
            sparse_val = mvne.kl_objective(adj, fac)
            dense_val = mvne.dense_kl_objective(adj.mat.toarray(), fac)
            assert sparse_val == pytest.approx(dense_val, rel=1e-10)


class TestEdgeKernel:
    def test_matches_dense_reconstruction_across_blocks(self):
        # more than one block of upper-half entries, plus self-loops
        n = 300
        adj = loops_and_isolated_node(n, 0.4, 41, 25)
        assert adj.upper_index.pos.size > _BLOCK
        cfg = small_config(6, seed=41)
        fac = mvne.update_step(adj, mvne.init_factorization(n + 1, cfg, adj.total_weight), cfg)
        ref = np.maximum(mvne.reconstruct_dense(fac)[coo_rows(adj), adj.indices], cfg.epsilon)
        got = _EdgePlan(adj, fac.d, cfg.epsilon).reconstruct(fac.mass)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        pos, _, _, mirror = adj.upper_index
        assert np.array_equal(got[pos], got[mirror])

    def test_plan_reads_the_adjacency_index_without_a_copy(self):
        adj = mvne.random_weighted_graph(40, 0.3, 23)
        plan = _EdgePlan(adj, 4, 1e-12)
        for mine, owned in zip((plan.pos, plan.rows, plan.cols, plan.mirror),
                               adj.upper_index):
            assert np.shares_memory(mine, owned)

    def test_factorize_trace_matches_stepwise(self, monkeypatch):
        adj = mvne.random_weighted_graph(40, 0.3, 23)
        assert_fit_matches_stepwise(adj, small_config(5, seed=23, max_iters=30), monkeypatch)

    def test_factorize_trace_matches_stepwise_to_tolerance(self, monkeypatch):
        # a fit that stops at rel_tol, after at least one rejected candidate
        adj = mvne.random_weighted_graph(20, 0.3, 7)
        run = assert_fit_matches_stepwise(adj, small_config(4, seed=11), monkeypatch)
        assert run.stop_reason == "tolerance"
        assert run.rejected_steps >= 1

    @pytest.mark.parametrize("n, block", [(40, 7), (300, _BLOCK)])
    def test_factorize_trace_matches_stepwise_loops_isolated_blocks(self, monkeypatch,
                                                                    n, block):
        monkeypatch.setattr(factorize_module, "_BLOCK", block)
        adj = loops_and_isolated_node(n, 0.3, 23, 6)
        assert adj.upper_index.pos.size > block
        assert adj.degrees()[-1] == 0
        assert_fit_matches_stepwise(adj, small_config(5, seed=23, max_iters=30), monkeypatch)

    @pytest.mark.parametrize("rows, cols, weights", [
        ([0, 1], [1, 2], [1.0, 1.0]),  # structure
        ([0, 1], [1, 0], [1.0, 2.0]),  # values
    ])
    def test_non_symmetric_adjacency_rejected(self, rows, cols, weights):
        adj = mvne.SparseAdjacency(sp.csr_array((weights, (rows, cols)), shape=(3, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            mvne.factorize(adj, small_config(2))

    def test_update_step_temporaries_bounded_by_block(self):
        d = 32
        adj = edges_150k()
        cfg = small_config(d, seed=5)
        fac = mvne.init_factorization(adj.n, cfg, adj.total_weight)
        tracemalloc.start()
        try:
            mvne.update_step(adj, fac, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # |E| x d gathers alone would take 2 * nnz * d * 8 bytes
        assert peak < 0.5 * adj.nnz * d * 8

    @pytest.mark.parametrize("max_iters", [5, 10])
    def test_factorize_workspace_bounded_and_flat(self, max_iters):
        d = 32
        adj = edges_150k()
        cfg = small_config(d, seed=5, max_iters=max_iters, rel_tol=0.0)
        tracemalloc.start()
        try:
            run = mvne.factorize(adj, cfg).run
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.iterations == max_iters
        # The same bound at 5 and 10 iterations: nothing piles up per
        # iterate. Measured 3.7x; 6.2x when every iterate built its own plan.
        assert peak < 5 * (adj.n * d + adj.nnz) * 8
        assert peak < 0.25 * adj.nnz * d * 8


class TestUpdateStep:
    def test_fixed_point_drift_tiny(self):
        adj, _ = make_adjacency("a\tb\t1\n")
        cfg = small_config(1, seed=2, max_iters=200)
        fac = mvne.factorize(adj, cfg)
        nxt = mvne.update_step(adj, fac, cfg)
        assert np.abs(nxt.H - fac.H).max() <= 1e-12
        assert np.abs(nxt.lam - fac.lam).max() <= 1e-12

    def test_constraints_preserved_disjoint_edges(self):
        adj, _ = make_adjacency("a\tb\nc\td\n")
        cfg = small_config(2, seed=4)
        fac = mvne.init_factorization(4, cfg, adj.total_weight)
        fac = mvne.update_step(adj, fac, cfg)
        assert np.abs(fac.H.sum(axis=1) - 1.0).max() <= 1e-9
        assert fac.lam.sum() == pytest.approx(4.0, rel=1e-12)

    def test_monotone_and_matches_dense_trajectory(self):
        for seed in range(5):
            adj = mvne.random_weighted_graph(15, 0.35, seed)
            cfg = small_config(4, seed=seed)
            W = adj.mat.toarray()
            sparse_fac = mvne.init_factorization(15, cfg, adj.total_weight)
            dense_fac = mvne.init_factorization(15, cfg, W.sum())
            prev = mvne.kl_objective(adj, sparse_fac)
            for _ in range(50):
                sparse_fac = mvne.update_step(adj, sparse_fac, cfg)
                dense_fac = mvne.dense_update_step(W, dense_fac)
                cur = mvne.kl_objective(adj, sparse_fac)
                assert cur <= prev + 1e-9
                prev = cur
                assert np.abs(sparse_fac.H - dense_fac.H).max() <= 1e-10
                assert np.abs(sparse_fac.lam - dense_fac.lam).max() <= 1e-10

    def test_self_loops_monotone_and_match_dense(self):
        # diagonal entries are stored once but weigh both factor slots
        rng = np.random.default_rng(31)
        adj0 = mvne.random_weighted_graph(12, 0.35, 31)
        loops = rng.choice(12, 4, replace=False)
        W = adj0.mat.toarray()
        W[loops, loops] = rng.uniform(0.5, 2.0, 4)
        adj = mvne.SparseAdjacency.from_undirected(*np.nonzero(np.triu(W)),
                                                   np.triu(W)[np.nonzero(np.triu(W))], 12)
        cfg = small_config(3, seed=31)
        sparse_fac = mvne.init_factorization(12, cfg, adj.total_weight)
        dense_fac = mvne.init_factorization(12, cfg, W.sum())
        prev = mvne.kl_objective(adj, sparse_fac)
        assert prev == pytest.approx(mvne.dense_kl_objective(W, sparse_fac), rel=1e-10)
        for _ in range(50):
            sparse_fac = mvne.update_step(adj, sparse_fac, cfg)
            dense_fac = mvne.dense_update_step(W, dense_fac)
            cur = mvne.kl_objective(adj, sparse_fac)
            assert cur <= prev + 1e-9
            prev = cur
            assert np.abs(sparse_fac.H - dense_fac.H).max() <= 1e-10
            assert np.abs(sparse_fac.lam - dense_fac.lam).max() <= 1e-10

    def test_nonnegativity_exact(self):
        adj = mvne.random_weighted_graph(12, 0.3, 5)
        cfg = small_config(3, seed=5)
        fac = mvne.init_factorization(12, cfg, adj.total_weight)
        for _ in range(30):
            fac = mvne.update_step(adj, fac, cfg)
            assert (fac.H >= 0).all()
            assert (fac.lam >= 0).all()
            assert (fac.mass >= 0).all()


class TestFactorize:
    def test_single_edge_d1_closed_form(self):
        adj, _ = make_adjacency("a\tb\t1\n")
        fac = mvne.factorize(adj, small_config(1, seed=3))
        assert np.array_equal(fac.H, [[1.0], [1.0]])
        assert fac.lam[0] == pytest.approx(2.0, rel=1e-12)
        # best achievable d=1 objective, from the dense oracle
        assert fac.run.objective == pytest.approx(2 * math.log(2), rel=1e-9)

    def test_two_cliques_separate(self):
        lines = []
        for a in range(5):
            for b in range(a + 1, 5):
                lines.append(f"x{a}\tx{b}")
                lines.append(f"y{a}\ty{b}")
        adj, reg = make_adjacency("\n".join(lines) + "\n")
        fac = mvne.factorize(adj, small_config(2, seed=8))
        km = fac.H.argmax(axis=1)
        first = {km[reg.index_of(f"x{a}")] for a in range(5)}
        second = {km[reg.index_of(f"y{a}")] for a in range(5)}
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_deterministic_per_seed(self):
        adj = mvne.random_weighted_graph(20, 0.3, 7)
        a = mvne.factorize(adj, small_config(4, seed=11))
        b = mvne.factorize(adj, small_config(4, seed=11))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.lam, b.lam)
        assert a.run.objective_trace == b.run.objective_trace

    @pytest.mark.parametrize("seed, max_iters", [(1, 500), (2, 500), (3, 7)])
    def test_returns_the_iterate_its_metadata_describes(self, seed, max_iters):
        adj = mvne.random_weighted_graph(25, 0.25, seed)
        fac = mvne.factorize(adj, small_config(4, seed=seed, max_iters=max_iters))
        assert fac.run.objective == fac.run.objective_trace[-1]
        assert mvne.kl_objective(adj, fac) == pytest.approx(fac.run.objective, rel=1e-12)

    def test_stop_reason_tolerance(self):
        adj, _ = make_adjacency("a\tb\t1\n")
        cfg = small_config(1, seed=3)
        run = mvne.factorize(adj, cfg).run
        assert run.iterations < cfg.max_iters
        assert run.stop_reason == "tolerance"
        assert run.final_rel_improvement < cfg.rel_tol
        meta = run.to_dict()
        assert meta["stop_reason"] == "tolerance"
        assert meta["final_rel_improvement"] == run.final_rel_improvement

    def test_stop_reason_max_iters(self):
        adj = mvne.random_weighted_graph(20, 0.3, 7)
        run = mvne.factorize(adj, small_config(4, seed=11, max_iters=2)).run
        assert run.iterations == 2
        assert run.stop_reason == "max_iters"
        prev, last = run.objective_trace[-2:]
        assert run.final_rel_improvement == (prev - last) / abs(prev)
        assert run.final_rel_improvement >= 1e-6
        assert run.to_dict()["stop_reason"] == "max_iters"

    def test_edgeless_rejected(self):
        adj = mvne.SparseAdjacency(sp.csr_array((4, 4)))
        with pytest.raises(ValueError, match="no edges"):
            mvne.factorize(adj, small_config(2))

    @pytest.mark.parametrize("text", ["a\tb\t1e-320\n", "a\tb\t1e-300\nb\tc\t1e-300\n"],
                             ids=["subnormal", "two-tiny"])
    def test_underflowing_mass_names_the_cause(self, text):
        adj, _ = make_adjacency(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mass underflowed to zero") as info:
                mvne.factorize(adj, small_config(2))
        message = str(info.value)
        assert f"total {adj.total_weight!r}" in message
        assert "epsilon floor 1e-12" in message
        assert "rescale the edge weights" in message

    def test_result_passes_invariant_checker(self):
        adj = mvne.random_weighted_graph(14, 0.4, 17)
        fac = mvne.factorize(adj, small_config(3, seed=17))
        assert np.abs(fac.H.sum(axis=1) - 1.0).max() <= 1e-9
        assert abs(fac.lam.sum() - adj.total_weight) <= 1e-6 * adj.total_weight

    def test_degenerate_rows_flagged_and_uniform(self):
        reg = mvne.NodeRegistry()
        for name in ("a", "b", "c", "x", "y"):
            reg.intern(name)
        adj, _ = mvne.load_edge_list(io.StringIO("a\tb\nb\tc\n"), reg)
        assert adj.n == 5  # nodes 3, 4 have no edges
        cfg = small_config(2, seed=6)
        fac = mvne.factorize(adj, cfg)
        assert fac.run.degenerate_nodes == [3, 4]
        assert (fac.mass[3:] == 0).all()
        assert np.array_equal(fac.H[3:], np.full((2, 2), 0.5))

    def test_permutation_equivariance(self):
        adj = mvne.random_weighted_graph(12, 0.4, 13)
        cfg = small_config(3, seed=13)
        n = adj.n
        rng = np.random.default_rng(99)
        perm = rng.permutation(n)
        P = np.zeros((n, n))
        P[np.arange(n), perm] = 1.0  # row i of PWP^T is row perm[i] of W
        Wp = P @ adj.mat.toarray() @ P.T
        i, j = np.nonzero(np.triu(Wp))
        adj_p = mvne.SparseAdjacency.from_undirected(i, j, Wp[i, j], n)

        fac = mvne.init_factorization(n, cfg, adj.total_weight)
        fac_p = mvne.Factorization(fac.mass[perm])
        for _ in range(25):
            fac = mvne.update_step(adj, fac, cfg)
            fac_p = mvne.update_step(adj_p, fac_p, cfg)
            assert np.abs(fac.H[perm] - fac_p.H).max() <= 1e-12
            assert np.abs(fac.lam - fac_p.lam).max() <= 1e-12


class TestEmbedding:
    def test_rows_sum_to_one(self):
        adj = mvne.random_weighted_graph(9, 0.5, 2)
        fac = mvne.factorize(adj, small_config(3, seed=2))
        X = mvne.embedding(fac)
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-9

    def test_d1_all_ones(self):
        adj = mvne.random_weighted_graph(6, 0.6, 4)
        fac = mvne.factorize(adj, small_config(1, seed=4))
        assert np.array_equal(mvne.embedding(fac), np.ones((6, 1)))

    def test_bit_identical_no_transform(self):
        adj = mvne.random_weighted_graph(6, 0.6, 4)
        fac = mvne.factorize(adj, small_config(2, seed=4))
        assert mvne.embedding(fac) is fac.H


class TestEmbeddingFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (5, 3))
        names = [f"node{i}" for i in range(5)]
        path = tmp_path / "emb.txt"
        mvne.write_embedding(path, X, names)
        first = path.read_text().splitlines()[0]
        assert first == "5 3"
        names2, X2 = mvne.read_embedding(path)
        assert names2 == names
        assert np.array_equal(X, X2)  # 17 significant digits round-trip float64

    def test_bytes_match_per_float_format_across_blocks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (11, 4))
        X[0] = [1 / 3, 0.1, 1e-300, 0.0]
        X[5, 2] = 1.0
        names = [f"v{i}" for i in range(11)]
        expected = "11 4\n" + "".join(
            name + " " + " ".join(f"{v:.17g}" for v in row) + "\n"
            for name, row in zip(names, X))
        for block in (1, 3, 11, 1024):
            monkeypatch.setattr(_parts, "_BLOCK_VALUES", 4 * block)  # rows of d = 4 values
            path = tmp_path / f"emb{block}.txt"
            mvne.write_embedding(path, X, names)
            assert path.read_text() == expected
            names2, X2 = mvne.read_embedding(path)
            assert names2 == names
            assert np.array_equal(X, X2)
        assert "v0 0.33333333333333331 0.10000000000000001 1e-300 0\n" in expected

    @pytest.mark.parametrize("names, value, match", [
        (["a", "b", "c"], math.nan, "row 1: node 'b' has a NaN or infinite value"),
        (["a", "b", "c"], -math.inf, "row 1: node 'b' has a NaN or infinite value"),
        (["a", "b c", ""], 0.5, "row 1: node name 'b c' is empty or holds whitespace"),
        (["a", "", "c"], 0.5, "row 1: node name '' is empty or holds whitespace"),
        (["a", "b", "a"], 0.5, "row 2: repeated node 'a'"),
    ], ids=["nan", "inf", "space", "empty", "repeated"])
    def test_rows_the_reader_refuses_are_refused_before_open(self, tmp_path, names, value,
                                                              match):
        path = tmp_path / "emb.txt"
        X = np.eye(3)
        X[1, 2] = value
        with pytest.raises(ValueError, match=f"embedding {match}"):
            mvne.write_embedding(path, X, names)
        assert not path.exists()

    @pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "c", "d"]], ids=["few", "many"])
    def test_name_count_other_than_n_refused_before_open(self, tmp_path, names):
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError, match=f"got {len(names)} names for 3 embedding rows"):
            mvne.write_embedding(path, np.eye(3), names)
        assert not path.exists()

    def test_reader_validates_shape(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nn0 0.5 0.5\n")
        with pytest.raises(ValueError, match="promised 2"):
            mvne.read_embedding(path)
        path.write_text("x 2\nn0 0.5 0.5\n")
        with pytest.raises(ParseError, match="line 1: embedding file: bad header"):
            mvne.read_embedding(path)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(d=0), dict(d=2, max_iters=0), dict(d=2, rel_tol=-1.0),
        dict(d=2, epsilon=0.0),
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValueError):
            mvne.FactorizeConfig(**kw)
