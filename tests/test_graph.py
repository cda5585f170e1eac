import io
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import mvne
from mvne import _parts
from mvne.graph import ParseError, parse_edges

from conftest import coo_rows, make_adjacency, per_entry_edge_list
from oracles import random_weighted_graph


class TestLoadEdgeList:
    def test_symmetrization_doubles_unit_edges(self):
        adj, reg = make_adjacency("a\tb\nb\tc\n")
        assert adj.n == 3
        assert adj.nnz == 4
        assert adj.total_weight == 4.0

    def test_duplicate_lines_merge_weights(self):
        adj, _ = make_adjacency("a\tb\t2.0\na\tb\t1.0\n")
        assert adj.nnz == 2
        assert adj.total_weight == 6.0
        assert adj.mat[0, 1] == 3.0

    def test_empty_stream(self):
        reg = mvne.NodeRegistry()
        adj, reg = mvne.load_edge_list(io.StringIO(""), reg)
        assert adj.n == 0
        assert adj.nnz == 0
        assert adj.total_weight == 0.0

    def test_self_loop_single_diagonal_entry(self):
        adj, _ = make_adjacency("a\ta\t2.5\na\tb\n")
        assert adj.mat[0, 0] == 2.5
        assert adj.total_weight == 2.5 + 2.0
        assert adj.edge_count() == 2

    def test_comments_and_blank_lines_skipped(self):
        adj, _ = make_adjacency("# header\n\na\tb\n  \n# tail\n")
        assert adj.nnz == 2

    def test_registry_first_appearance_order(self):
        _, reg = make_adjacency("x\ty\nz\tx\n")
        assert reg.names == ["x", "y", "z"]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            make_adjacency("a\tb\na\tb\tc\td\n")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ParseError, match="non-positive"):
            make_adjacency("a\tb\t0\n")
        with pytest.raises(ParseError, match="non-positive"):
            make_adjacency("a\tb\t-1.5\n")

    @pytest.mark.parametrize("weight", ["inf", "nan", "1e999", "-inf", "NaN"])
    def test_non_finite_weight_rejected_as_not_finite(self, weight):
        with pytest.raises(ParseError, match=rf"^line 2: weight '{weight}' is not finite$"):
            make_adjacency(f"a\tb\nb\tc\t{weight}\n")

    @pytest.mark.parametrize("text, line", [
        ("x\ty\na b\tc\n", 2),
        ("a\tb c\t2.0\n", 1),
        ("a\t\t2.0\n", 1),
        ("a\u00a0b\tc\n", 1),
        ("c\t#a\nd\t#a\n", 1),
        ("x\ty\na #b 2.0\n", 2),
    ])
    def test_node_id_with_whitespace_rejected(self, text, line):
        # the embedding file is whitespace-separated and a written edge-list line
        # starting with # reads as a comment, so such ids cannot round-trip
        with pytest.raises(ParseError, match=f"line {line}: node identifier"):
            make_adjacency(text)

    def test_total_that_is_not_finite_refused_silently(self):
        # every weight is finite and positive; their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="edge weights sum to inf, which is not finite"):
                make_adjacency("a\tb\t1e308\nb\tc\t1e308\nc\ta\t1e308\n")
            with pytest.raises(ValueError, match="edge weights sum to nan, which is not finite"):
                mvne.SparseAdjacency(sp.csr_array([[0.0, np.nan], [np.nan, 0.0]]))

    @pytest.mark.parametrize("text, lines", [("", 0), ("# only a comment\n", 0),
                                             ("a\tb\t2\nb c\n", 2)])
    def test_parse_returns_integer_ids_and_float64_weights(self, tmp_path, forks, text, lines):
        path = tmp_path / "view.edges"
        path.write_text(text)
        for source in (io.StringIO(text), path):  # one part, and split when it has lines
            rows, cols, weights = parse_edges(source, mvne.NodeRegistry())
            assert rows.dtype == cols.dtype == np.int64 and weights.dtype == np.float64
            assert rows.shape == cols.shape == weights.shape == (lines,)
        assert len(forks) == (1 if lines else 0)

    def test_space_separated_fallback(self):
        adj, _ = make_adjacency("a b 2.0\nb c\n")
        assert adj.total_weight == 2 * 2.0 + 2 * 1.0


class TestNodeNames:
    @pytest.mark.parametrize("name, fault", [
        ("bad\ud800", "does not encode as UTF-8"),
        ("a b", "is empty or holds whitespace"),
        ("", "is empty or holds whitespace"),
        ("a\u00a0b", "is empty or holds whitespace"),  # NBSP
        ("a\u2028b", "is empty or holds whitespace"),  # line separator
        ("a\x00b", "holds a control character"),
        ("\x1b", "holds a control character"),
        ("\ufeffa", "holds a byte-order mark (U+FEFF)"),
        (3, "is not a str"),
    ])
    def test_registry_and_embedding_writer_refuse_by_one_rule(self, tmp_path, name, fault):
        registry = mvne.NodeRegistry()
        with pytest.raises(ValueError) as exc:
            registry.intern(name)
        assert str(exc.value) == f"node identifier {name!r} {fault}"
        assert len(registry) == 0
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError) as exc:
            mvne.write_embedding(path, np.ones((1, 2)), [name])
        assert str(exc.value) == f"embedding row 0: node name {name!r} {fault}"
        assert not path.exists()

    @pytest.mark.parametrize("names, row, fault", [
        (["a", "", "b"], 1, "is empty or holds whitespace"),  # the join "ab" is clean
        (["\ud83d", "\ude00"], 0, "does not encode as UTF-8"),  # a pair only when joined
    ])
    def test_embedding_writer_refuses_names_a_clean_join_would_hide(self, tmp_path, names,
                                                                   row, fault):
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError) as exc:
            mvne.write_embedding(path, np.ones((len(names), 2)), names)
        assert str(exc.value) == f"embedding row {row}: node name {names[row]!r} {fault}"
        assert not path.exists()

    @pytest.mark.parametrize("text, line, name, fault", [
        ("\ufeffa\tb\nb\ta\n", 1, "\ufeffa", "holds a byte-order mark (U+FEFF)"),
        ("a\tb\nb\x00\ta\n", 2, "b\x00", "holds a control character"),
    ], ids=["bom", "nul"])
    def test_bom_and_nul_ids_are_refused_naming_the_line(self, tmp_path, text, line, name,
                                                          fault):
        # neither is whitespace: both were read as part of an id, a node other than
        # `a` or `b`, and a NUL was written and read back
        path = tmp_path / "v.edges"
        path.write_bytes(text.encode("utf-8"))  # U+FEFF is the UTF-8 byte-order mark
        with pytest.raises(ParseError) as exc:
            mvne.load_edge_list(str(path))
        assert str(exc.value) == f"line {line}: node identifier {name!r} {fault}"
        with pytest.raises(ValueError, match="^embedding row 1: node name "):
            mvne.write_embedding(tmp_path / "emb.txt", np.ones((2, 1)), ["c", name])
        assert not (tmp_path / "emb.txt").exists()
        # the reader refuses the name by the writer's rule, naming the file line
        (tmp_path / "emb.txt").write_text(f"2 1\nc 1\n{name} 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            mvne.read_embedding(tmp_path / "emb.txt")
        assert str(exc.value) == f"line 3: embedding file: node name {name!r} {fault}"

    def test_registry_refuses_a_leading_hash_that_the_embedding_may_hold(self, tmp_path):
        with pytest.raises(ValueError, match=r"^node identifier '#a' starts with '#'$"):
            mvne.NodeRegistry().intern("#a")
        mvne.write_embedding(tmp_path / "emb.txt", np.ones((1, 2)), ["#a"])
        assert mvne.read_embedding(tmp_path / "emb.txt")[0] == ["#a"]

    def test_unencodable_id_refused_before_any_edge_list_is_written(self, tmp_path):
        # a registry could hold this id: write_edge_list then raised UnicodeEncodeError
        # with 4,096 of the 5,000 lines in the file
        text = "".join(f"n{k}\tn{k + 1}\n" for k in range(4999)) + "n4999\tbad\ud800\n"
        with pytest.raises(ParseError, match=r"^line 5000: node identifier 'bad\\ud800' "
                                             "does not encode as UTF-8$"):
            make_adjacency(text)


class TestRoundTrip:
    def test_write_then_load_identical(self):
        adj, reg = make_adjacency("a\tb\t0.123456789012345\nb\tc\t7\nc\tc\t2\n")
        buf = io.StringIO()
        mvne.write_edge_list(adj, reg, buf)
        buf.seek(0)
        again, reg2 = mvne.load_edge_list(buf, reg)
        assert reg2.names == reg.names
        assert np.array_equal(adj.mat.indptr, again.mat.indptr)
        assert np.array_equal(adj.mat.indices, again.mat.indices)
        assert np.array_equal(adj.mat.data, again.mat.data)

    def test_random_graphs_round_trip_and_symmetry(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 60))
            lines = []
            for _ in range(m):
                i, j = rng.integers(0, n, 2)
                w = float(rng.uniform(0.1, 5.0))
                lines.append(f"n{i}\tn{j}\t{w!r}")
            adj, reg = make_adjacency("\n".join(lines) + "\n")
            adj.upper_index  # raises unless bit-exactly symmetric
            assert (adj.mat.data > 0).all()
            assert abs(adj.total_weight - adj.mat.data.sum()) <= 1e-12 * max(1.0, adj.total_weight)
            buf = io.StringIO()
            mvne.write_edge_list(adj, reg, buf)
            buf.seek(0)
            again, _ = mvne.load_edge_list(buf, reg)
            assert np.array_equal(adj.mat.data, again.mat.data)
            assert np.array_equal(adj.mat.indices, again.mat.indices)


class TestUpperIndex:
    def test_library_adjacencies_keep_int32_indices(self, tmp_path):
        loaded, _ = make_adjacency("a\tb\nb\tc\t2\nc\tc\n")
        spec = mvne.SbmSpec(n=40, communities=2, p_in=0.4, p_out=0.05,
                            views=2, keep=0.7, noise=0.1, seed=3)
        generated, labels = mvne.generate_multiview_sbm(spec)
        built = mvne.build_multiview(mvne.read_manifest(
            mvne.dump_dataset(generated, labels, tmp_path)))
        combined = mvne.combine_views(built, mvne.default_betas(built))
        for adj in [loaded, *generated.views, *built.views, combined,
                    random_weighted_graph(30, 0.3, 1)]:
            for a in (adj.mat.indices, adj.mat.indptr, *adj.upper_index):
                assert a.dtype == np.int32

    def test_lists_each_upper_entry_with_its_mirror(self):
        adj = random_weighted_graph(30, 0.3, 2)
        pos, rows, cols, mirror = adj.upper_index
        dense = adj.mat.toarray()
        assert sorted(zip(rows.tolist(), cols.tolist())) == \
            sorted(zip(*np.nonzero(np.triu(dense))))
        assert np.array_equal(coo_rows(adj)[pos], rows)
        assert np.array_equal(adj.mat.indices[pos], cols)
        assert np.array_equal(coo_rows(adj)[mirror], cols)
        assert np.array_equal(adj.mat.indices[mirror], rows)

    def test_directed_cycle_with_symmetric_counts_raises(self):
        # every row and column holds one entry of equal weight, so only the
        # column indices tell the 3-cycle from a symmetric matrix
        adj = mvne.SparseAdjacency(sp.csr_array(
            (np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3)))
        with pytest.raises(ValueError, match="not bit-exactly symmetric"):
            adj.upper_index


class TestWriteEdgeListBlocks:
    TEXT = ("a\ta\t0.3333333333333333\na\tb\t0.1\nb\tc\t1e-300\nc\tc\t2\n"
            "c\td\t7\nd\ta\t0.1\ne\tb\t1e-300\ne\te\t0.1\nb\td\t3\n")

    def test_bytes_match_per_entry_format_across_blocks(self, monkeypatch):
        adj, reg = make_adjacency(self.TEXT)
        assert adj.nnz == 15
        expected = per_entry_edge_list(adj, reg)
        for block in (1, 4, 7, 16384):
            monkeypatch.setattr(_parts, "_BLOCK_VALUES", block)
            buf = io.StringIO()
            mvne.write_edge_list(adj, reg, buf)
            assert buf.getvalue() == expected
        assert "\t1e-300\n" in expected and "\t0.3333333333333333\n" in expected

    def test_reload_gives_same_adjacency(self, monkeypatch):
        monkeypatch.setattr(_parts, "_BLOCK_VALUES", 4)
        adj, reg = make_adjacency(self.TEXT)
        buf = io.StringIO()
        mvne.write_edge_list(adj, reg, buf)
        buf.seek(0)
        again, reg2 = mvne.load_edge_list(buf, reg)
        assert reg2.names == reg.names
        assert np.array_equal(adj.mat.indptr, again.mat.indptr)
        assert np.array_equal(adj.mat.indices, again.mat.indices)
        assert np.array_equal(adj.mat.data, again.mat.data)

    def test_non_symmetric_input_refused(self, tmp_path):
        # the writer reads upper_index, as the fit does, so it refuses what the fit refuses
        reg = mvne.NodeRegistry()
        for name in "abc":
            reg.intern(name)
        out = tmp_path / "out.edges"
        for vals, rows, cols in [
            ([1.0, 2.0], [0, 1], [1, 0]),  # w(a, b) = 1, w(b, a) = 2
            ([1 / 3, 0.5, 0.1, 1e-300, 4.0], [0, 1, 2, 2, 1], [1, 0, 0, 2, 2]),
        ]:
            adj = mvne.SparseAdjacency(sp.csr_array((vals, (rows, cols)), shape=(3, 3)))
            with pytest.raises(ValueError, match="not bit-exactly symmetric"):
                mvne.write_edge_list(adj, reg, out)
            with pytest.raises(ValueError, match="not bit-exactly symmetric"):
                adj.edge_count()
            assert not out.exists()

    def test_each_weight_formatted_once_keeps_signed_zero(self, monkeypatch):
        # the writer memoises repr per weight; 0.0 == -0.0 as floats, so a
        # float-keyed memo would print -0.0 as 0.0
        monkeypatch.setattr(_parts, "_BLOCK_VALUES", 2)
        monkeypatch.setattr(mvne.graph, "_MEMO_ENTRIES", 2)
        reg = mvne.NodeRegistry()
        for name in "abcdef":
            reg.intern(name)
        upper = [(0, 0, 0.0), (0, 1, -0.0), (0, 2, 0.5), (1, 1, 0.5), (1, 3, 0.0),
                 (2, 3, -0.0), (2, 4, 0.1), (3, 3, 0.5), (3, 5, 0.5),
                 (4, 4, -0.0), (4, 5, 0.1), (5, 5, 0.1)]
        dense = np.zeros((6, 6))
        mask = np.zeros((6, 6), dtype=bool)
        for i, j, w in upper:
            dense[i, j] = dense[j, i] = w
            mask[i, j] = mask[j, i] = True
        rows, cols = np.nonzero(mask)  # row-major: canonical CSR order, zeros kept
        adj = mvne.SparseAdjacency(sp.csr_array((dense[rows, cols], (rows, cols)), shape=(6, 6)))
        assert adj.nnz == 19
        buf = io.StringIO()
        mvne.write_edge_list(adj, reg, buf)
        assert buf.getvalue() == per_entry_edge_list(adj, reg)
        assert buf.getvalue().splitlines()[:3] == ["a\ta\t0.0", "a\tb\t-0.0", "a\tc\t0.5"]
        assert buf.getvalue().count("\t-0.0\n") == 3


class TestLabels:
    def test_basic_multilabel(self):
        _, reg = make_adjacency("a\tb\n")
        store = mvne.load_labels(io.StringIO("a\tx,y\n"), reg)
        names = {store.label_name(l) for l in store.labels_of(0)}
        assert names == {"x", "y"}

    def test_unknown_node_rejected(self):
        _, reg = make_adjacency("a\tb\n")
        with pytest.raises(ParseError, match="'z'"):
            mvne.load_labels(io.StringIO("z\tq\n"), reg)

    def test_unknown_nodes_reported_together(self):
        _, reg = make_adjacency("a\tb\n")
        with pytest.raises(ParseError) as exc:
            mvne.load_labels(io.StringIO("a\tq\nz\tq\nb\tq\ny\tq\n"), reg)
        assert str(exc.value) == "line 2: 2 unknown node identifier(s): 'z', 'y'"

    def test_repeated_lines_union(self):
        _, reg = make_adjacency("a\tb\n")
        store = mvne.load_labels(io.StringIO("a\tx\na\ty\n"), reg)
        names = {store.label_name(l) for l in store.labels_of(0)}
        assert names == {"x", "y"}

    def test_unlabeled_node_empty_set(self):
        _, reg = make_adjacency("a\tb\n")
        store = mvne.load_labels(io.StringIO("a\tx\n"), reg)
        assert store.labels_of(1) == frozenset()
        assert store.labeled_nodes() == [0]


class TestMultiView:
    def test_shared_registry_union(self):
        g = mvne.build_multiview([
            ("v1", io.StringIO("a\tb\n")),
            ("v2", io.StringIO("b\tc\n")),
        ])
        assert g.n == 3
        assert [len(v.active_nodes()) for v in g.views] == [2, 2]
        for v in g.views:
            assert v.n == 3

    def test_single_view(self):
        g = mvne.build_multiview([("only", io.StringIO("a\tb\n"))])
        assert g.k == 1
        assert g.views[0].total_weight == 2.0

    @pytest.mark.parametrize("text, line, name", [
        ("\ufeffv1\tv1.edges\n", 1, "\ufeffv1"),  # saved with a byte-order mark
        ("v1\tv1.edges\nv\x1b2\tv2.edges\n", 2, "v\x1b2"),
    ], ids=["bom", "esc"])
    def test_manifest_refuses_an_unprintable_view_name_naming_the_line(self, tmp_path, text,
                                                                      line, name):
        path = tmp_path / "views.manifest"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            mvne.read_manifest(path)
        assert str(exc.value) == f"line {line}: view name {name!r} holds an unprintable character"

    def test_manifest_view_name_may_hold_a_space(self, tmp_path):
        path = tmp_path / "views.manifest"
        path.write_text("my view\tv1.edges\n", encoding="utf-8")
        assert mvne.read_manifest(path) == [("my view", str(tmp_path / "v1.edges"))]

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mvne.build_multiview([])

    @pytest.mark.parametrize("names, sizes, error", [
        ([], [], "empty view list"),
        (["a"], [3, 3], "got 1 view names for 2 views"),
        (["a", "b"], [3], "got 2 view names for 1 views"),
        (["v", "w", "v"], [3, 3, 3], "view name 'v' is repeated"),
        (["a", "b"], [3, 2], "view 'b' has 2 nodes; the registry has 3"),
    ], ids=["no-views", "fewer-names", "more-names", "repeated-name", "wrong-size"])
    def test_graph_refuses_views_it_cannot_name_or_index(self, names, sizes, error):
        reg = mvne.NodeRegistry()
        for name in "xyz":
            reg.intern(name)
        views = [mvne.SparseAdjacency.from_undirected([0], [1], [1.0], n) for n in sizes]
        with pytest.raises(ValueError, match=error):
            mvne.MultiViewGraph(registry=reg, view_names=names, views=views)

    def test_flickr_shaped_view_sizes(self):
        # five chain views over nested prefixes of one identifier space:
        # active counts equal the prescribed sizes, union is the largest
        sizes = [2358, 2724, 4061, 1341, 6163]
        manifest = []
        for v, size in enumerate(sizes):
            lines = "\n".join(f"u{i}\tu{i + 1}" for i in range(size - 1))
            manifest.append((f"view{v}", io.StringIO(lines + "\n")))
        g = mvne.build_multiview(manifest)
        assert g.n == max(sizes)
        assert [len(v.active_nodes()) for v in g.views] == sizes


class TestViewStats:
    def test_triangle(self, triangle):
        adj, reg = triangle
        g = mvne.MultiViewGraph(registry=reg, view_names=["t"], views=[adj])
        (row,) = mvne.view_stats(g)
        assert row["nodes"] == 3
        assert row["edges"] == 3

    def test_star_degrees(self):
        adj, reg = make_adjacency("h\ta\nh\tb\nh\tc\nh\td\n")
        degs = sorted(adj.degrees(), reverse=True)
        assert degs == [4, 1, 1, 1, 1]
        g = mvne.MultiViewGraph(registry=reg, view_names=["s"], views=[adj])
        (row,) = mvne.view_stats(g)
        assert row["degree"]["max"] == 4
        assert row["degree"]["min"] == 1

    def test_sbm_edge_count_matches_generator(self):
        spec = mvne.SbmSpec(n=80, communities=3, p_in=0.4, p_out=0.05, views=2, seed=11)
        graph, _ = mvne.generate_multiview_sbm(spec)
        for row, adj in zip(mvne.view_stats(graph), graph.views):
            # independent recount from the stored structure
            rows_, cols_ = coo_rows(adj), adj.mat.indices
            undirected = {(min(i, j), max(i, j)) for i, j in zip(rows_, cols_)}
            assert row["edges"] == len(undirected)
