import json
import warnings

import numpy as np
import pytest

import mvne
import mvne.cli
from mvne.cli import main

from conftest import per_entry_edge_list


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--nodes", 80, "--communities", 3, "--views", 2,
                "--keep", 0.8, "--noise", 0.1, "--seed", 5, "--out-dir", out])
    assert code == 0
    return out


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth", "--nodes", 50, "--communities", 4, "--views", 3,
                    "--seed", 1, "--out-dir", out]) == 0
        assert (out / "views.manifest").exists()
        assert (out / "labels.tsv").exists()
        assert sorted(p.name for p in out.glob("*.edges")) == \
            ["view0.edges", "view1.edges", "view2.edges"]

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--nodes", 40, "--communities", 2, "--views", 2,
                        "--keep", 0.6, "--noise", 0.2, "--seed", 7,
                        "--out-dir", out]) == 0
        for name in ("views.manifest", "labels.tsv", "view0.edges", "view1.edges"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_lossless_views_identical(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth", "--nodes", 40, "--communities", 2, "--views", 3,
                    "--keep", 1.0, "--noise", 0.0, "--seed", 3,
                    "--out-dir", out]) == 0
        blobs = {(out / f"view{v}.edges").read_bytes() for v in range(3)}
        assert len(blobs) == 1

    def test_unwritable_dir_runtime_error(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("file, not a dir")
        assert run(["synth", "--nodes", 10, "--communities", 2,
                    "--out-dir", target]) in (1, 2)


class TestEmbed:
    def test_single_view_header(self, tmp_path, dataset):
        out = tmp_path / "emb.txt"
        assert run(["embed", "--edges", dataset / "view0.edges", "-d", 8,
                    "--seed", 2, "--out", out]) == 0
        assert out.read_text().splitlines()[0].endswith(" 8")

    def test_manifest_metadata_betas(self, tmp_path):
        data = tmp_path / "three"
        assert run(["synth", "--nodes", 60, "--communities", 3, "--views", 3,
                    "--keep", 0.7, "--noise", 0.1, "--seed", 6,
                    "--out-dir", data]) == 0
        out, meta = tmp_path / "emb.txt", tmp_path / "meta.json"
        assert run(["embed", "--manifest", data / "views.manifest", "-d", 4,
                    "--seed", 2, "--out", out, "--meta", meta]) == 0
        doc = json.loads(meta.read_text())
        assert len(doc["betas"]) == 3
        assert sum(doc["betas"]) == pytest.approx(1.0, abs=1e-12)
        assert doc["iterations"] >= 1
        assert "wall_time_s" in doc and "objective_trace" in doc
        assert doc["stop_reason"] in ("tolerance", "max_iters")
        assert "final_rel_improvement" in doc
        assert doc["rejected_steps"] >= 0

    def test_node_id_with_space_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\tc\nc\td\n")
        assert run(["embed", "--edges", edges, "-d", 2, "--out", tmp_path / "emb.txt"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, dataset):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["embed", "--manifest", dataset / "views.manifest",
                        "-d", 4, "--seed", 11, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_betas_and_weighted_export(self, tmp_path, dataset):
        out = tmp_path / "emb.txt"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4,
                    "--seed", 2, "--beta", "0.9,0.1", "--out", out,
                    "--export-weighted"]) == 0
        names, X = mvne.read_embedding(out)
        names_w, Xw = mvne.read_embedding(str(out) + ".weighted")
        assert names == names_w and Xw.shape == X.shape
        # weighted export is H * lam: per-column ratio to H is constant
        colsum = X.sum(axis=0)
        live = colsum > 1e-12
        lam = Xw.sum(axis=0)[live] / colsum[live]
        assert np.abs(Xw[:, live] - X[:, live] * lam).max() <= 1e-9

    def test_export_combined_view(self, tmp_path, dataset):
        out, combined = tmp_path / "emb.txt", tmp_path / "combined.edges"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4,
                    "--seed", 2, "--out", out, "--export-combined", combined]) == 0
        adj, _ = mvne.load_edge_list(str(combined))
        # combined view is normalized per view then beta-weighted: total 1
        assert adj.total_weight == pytest.approx(1.0, rel=1e-9)

    def test_export_combined_bytes_match_per_entry_format(self, tmp_path):
        # two weighted views whose entries share weights, so the writer's
        # per-weight repr memo is hit across views and rows
        (tmp_path / "v0.edges").write_text("a\tb\t2\nb\tc\t2\nc\td\t0.5\na\ta\t2\nd\te\n")
        (tmp_path / "v1.edges").write_text("a\tc\t3\nb\td\t3\r\ne\te\t3\nd\ta\t0.1\n")
        manifest = tmp_path / "views.manifest"
        manifest.write_text("v0\tv0.edges\nv1\tv1.edges\n")
        combined = tmp_path / "combined.edges"
        assert run(["embed", "--manifest", manifest, "-d", 2, "--seed", 1,
                    "--out", tmp_path / "emb.txt", "--export-combined", combined]) == 0
        graph = mvne.build_multiview(mvne.read_manifest(str(manifest)))
        adj = mvne.combine_views(graph, mvne.default_betas(graph))
        assert len(set(adj.values.tolist())) < adj.nnz // 2
        assert combined.read_bytes() == per_entry_edge_list(adj, graph.registry).encode()

    def test_beta_count_mismatch_exits_2(self, tmp_path, dataset):
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4,
                    "--beta", "0.5,0.3,0.2", "--out", tmp_path / "e.txt"]) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--rel-tol", "nan", "rel_tol"),
        ("--rel-tol", "inf", "rel_tol"),
        ("--beta", "nan,1", "beta"),
        ("--beta", "inf,1", "beta"),
        ("--beta", "", "beta"),  # an empty field, not the default betas
        ("--beta", "0.5,,0.3,0.2", "beta"),
    ])
    def test_non_finite_flag_exits_2_naming_the_field(self, tmp_path, dataset, capsys,
                                                       flag, value, field):
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 2,
                    flag, value, "--out", tmp_path / "e.txt"]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err

    def test_nodes_only_in_zero_weight_views_embed_uniform(self, tmp_path, dataset):
        # view1 gains nodes that view0 lacks; with beta 0 they have no edges
        extra = tmp_path / "extra.edges"
        extra.write_text((dataset / "view1.edges").read_text() + "z0\tz1\nz1\tz2\n")
        manifest = tmp_path / "views.manifest"
        manifest.write_text(f"view0\t{dataset / 'view0.edges'}\nview1\t{extra}\n")
        out, meta = tmp_path / "emb.txt", tmp_path / "meta.json"
        assert run(["embed", "--manifest", manifest, "-d", 4, "--beta", "1,0",
                    "--out", out, "--meta", meta]) == 0
        names, X = mvne.read_embedding(out)
        degenerate = json.loads(meta.read_text())["degenerate_nodes"]
        assert [names[v] for v in degenerate if names[v].startswith("z")] == ["z0", "z1", "z2"]
        assert (X[degenerate] == 0.25).all()

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["embed", "--edges", tmp_path / "nope.edges",
                    "--out", tmp_path / "e.txt"]) == 2


class TestEval:
    def test_pipeline_and_defaults(self, tmp_path, dataset):
        emb = tmp_path / "emb.txt"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 6,
                    "--seed", 2, "--out", emb]) == 0
        rep_json, rep_tsv = tmp_path / "r.json", tmp_path / "r.tsv"
        assert run(["eval", "--embedding", emb, "--labels", dataset / "labels.tsv",
                    "--repeats", 2, "--json", rep_json, "--tsv", rep_tsv]) == 0
        doc = json.loads(rep_json.read_text())
        assert doc["protocol"]["fractions"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert doc["protocol"]["repeats"] == 2
        lines = rep_tsv.read_text().splitlines()
        assert lines[0].split("\t") == ["fraction", "mean_micro", "sd_micro",
                                        "mean_macro", "sd_macro"]
        assert len(lines) == 10

    def test_custom_protocol_flags(self, tmp_path, dataset):
        emb = tmp_path / "emb.txt"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 6,
                    "--seed", 2, "--out", emb]) == 0
        rep = tmp_path / "r.json"
        assert run(["eval", "--embedding", emb, "--labels", dataset / "labels.tsv",
                    "--fractions", "0.5", "--repeats", 10, "--json", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["protocol"] == {"fractions": [0.5], "repeats": 10,
                                   "seed": 42, "reg": 0.01}
        assert len(doc["micro_f1"]["0.5"]) == 10

    def test_perfect_one_hot_embedding(self, tmp_path):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        n, L = 45, 3
        X = np.zeros((n, L))
        with open(labels, "w") as fh:
            for v in range(n):
                X[v, v % L] = 1.0
                fh.write(f"n{v}\tc{v % L}\n")
        mvne.write_embedding(emb, X, [f"n{v}" for v in range(n)])
        rep = tmp_path / "r.json"
        assert run(["eval", "--embedding", emb, "--labels", labels,
                    "--fractions", "0.5", "--repeats", 3, "--json", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["mean_micro"]["0.5"] == pytest.approx(1.0)
        assert doc["mean_macro"]["0.5"] == pytest.approx(1.0)

    def test_missing_nodes_exit_2_with_names(self, tmp_path, dataset, capsys):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        labels.write_text("".join(f"ghost{i}\tc0\n" for i in range(15)))
        assert run(["eval", "--embedding", emb, "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert "ghost0" in err and "ghost9" in err and "ghost10" not in err

    @pytest.mark.parametrize("rows, line, what", [
        (["a 0.5 0.5", "b 0.5 0.5", "a 0.5 nan"], 4, "repeated node 'a'"),
        (["a 0.5 0.5", "", "b nan 0.5", "c 1 0"], 4, "node 'b' has a NaN"),
        (["a 0.5 0.5", "b 0.5 -inf", "c 1 0"], 3, "node 'b' has a NaN or infinite"),
        (["a 0.5 0.5", "b 0.5 0.5", "c 1e999 0"], 4, "node 'c' has a NaN or infinite"),
        (["a 0.5 0.5", "b x1 0.5", "c 1 0"], 3, "could not convert string to float: 'x1'"),
    ])
    def test_bad_embedding_exits_2_naming_the_line(self, tmp_path, capsys, rows, line, what):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        emb.write_text("3 2\n" + "\n".join(rows) + "\n")
        labels.write_text("a\tc0\nb\tc1\n")
        assert run(["eval", "--embedding", emb, "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err and what in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_reg_exits_2_naming_the_field(self, tmp_path, capsys, value):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        labels.write_text("n0\tc0\nn1\tc1\n")
        assert run(["eval", "--embedding", emb, "--labels", labels, "--reg", value]) == 2
        err = capsys.readouterr().err
        assert "reg must be finite" in err

    @pytest.mark.parametrize("fractions, error", [
        ("0.1,0.10000001", "fractions must give distinct report keys"),
        ("0.5,0.5", "fractions must give distinct report keys"),
        ("0.5,,0.7", "--fractions has an empty field"),  # no longer read as 0.5,0.7
    ], ids=["0.1,0.10000001", "0.5,0.5", "0.5,,0.7"])
    def test_fractions_sharing_a_report_key_exit_2(self, tmp_path, capsys, fractions, error):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        labels.write_text("n0\tc0\nn1\tc1\n")
        rep = tmp_path / "r.json"
        assert run(["eval", "--embedding", emb, "--labels", labels,
                    "--fractions", fractions, "--json", rep]) == 2
        assert error in capsys.readouterr().err
        assert not rep.exists()


class TestChecksBeforeInput:
    @pytest.mark.parametrize("command", ["embed", "eval", "synth"])
    def test_negative_seed_exits_2_naming_the_field(self, tmp_path, dataset, capsys, command):
        emb = tmp_path / "emb.txt"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        args = {"embed": ["--manifest", dataset / "views.manifest", "-d", 2,
                          "--out", tmp_path / "e.txt"],
                "eval": ["--embedding", emb, "--labels", dataset / "labels.tsv",
                         "--json", tmp_path / "r.json"],
                "synth": ["--nodes", 10, "--communities", 2, "--out-dir", tmp_path / "s"]}
        assert run([command, *args[command], "--seed", -1]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "emb.txt"]

    @pytest.mark.parametrize("flag", ["--out", "--meta", "--export-combined"])
    def test_missing_output_directory_exits_2_before_the_fit(self, tmp_path, dataset, capsys,
                                                             monkeypatch, flag):
        fits = []
        monkeypatch.setattr(mvne.cli, "factorize", lambda *a, **k: fits.append(a))
        paths = {f: tmp_path / f"{f[2:]}.out" for f in ("--out", "--meta", "--export-combined")}
        paths[flag] = tmp_path / "missing" / "x"
        args = [tok for f, path in paths.items() for tok in (f, path)]
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 2, *args]) == 2
        assert f"{flag}: directory " in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize("extra", [[], ["--no-normalize-views"]], ids=["normalized", "raw"])
    def test_overflowing_view_total_exits_2_naming_view_and_file(self, tmp_path, capsys, extra):
        edges = tmp_path / "big.edges"
        edges.write_text("a\tb\t1e308\nb\tc\t1e308\nc\ta\t1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["embed", "--edges", edges, "-d", 2, "--out", tmp_path / "e.txt",
                        *extra]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert f"view 'view0' ({edges}): edge weights sum to inf, which is not finite" in err

    def test_overflowing_combined_total_exits_2(self, tmp_path, capsys):
        (tmp_path / "v1.edges").write_text("a\ta\t1.7976931348623157e308\n")
        (tmp_path / "v2.edges").write_text("b\tb\t1e308\n")
        manifest = tmp_path / "views.manifest"
        manifest.write_text("v1\tv1.edges\nv2\tv2.edges\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["embed", "--manifest", manifest, "-d", 2, "--beta", "1,5e-13",
                        "--no-normalize-views", "--out", tmp_path / "e.txt"]) == 2
        assert caught == []
        assert "edge weights sum to inf, which is not finite" in capsys.readouterr().err

    def test_subnormal_view_total_exits_2_naming_the_view(self, tmp_path, capsys):
        edges = tmp_path / "tiny.edges"
        edges.write_text("a\tb\t1e-320\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["embed", "--edges", edges, "-d", 2, "--out", tmp_path / "e.txt"]) == 2
        err = capsys.readouterr().err
        assert "the view at position 0 has total weight 2e-320" in err
        assert "--no-normalize-views" in err

    @pytest.mark.parametrize("text", ["a\tb\t1e-320\n", "a\tb\t1e-300\nb\tc\t1e-300\n"],
                             ids=["subnormal", "two-tiny"])
    def test_underflowing_fit_exits_2_naming_the_cause(self, tmp_path, capsys, text):
        edges = tmp_path / "tiny.edges"
        edges.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["embed", "--edges", edges, "--no-normalize-views", "-d", 2,
                        "--out", tmp_path / "e.txt"]) == 2
        err = capsys.readouterr().err
        assert "mass underflowed to zero" in err
        assert "rescale the edge weights" in err
        assert "edgeless" not in err

    @pytest.mark.parametrize("command, flag", [("eval", "--json"), ("eval", "--tsv"),
                                               ("stats", "--json")])
    def test_missing_output_directory_exits_2_before_input_is_read(
            self, tmp_path, dataset, capsys, monkeypatch, command, flag):
        calls = []
        for name in ("read_embedding", "run_protocol", "build_multiview"):
            monkeypatch.setattr(mvne.cli, name, lambda *a, name=name: calls.append(name))
        emb = tmp_path / "emb.txt"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        inputs = {"eval": ["--embedding", emb, "--labels", dataset / "labels.tsv"],
                  "stats": ["--manifest", dataset / "views.manifest"]}
        assert run([command, *inputs[command], flag, tmp_path / "missing" / "x"]) == 2
        assert f"{flag}: directory " in capsys.readouterr().err
        assert calls == []

    def test_repeated_view_name_exits_2_naming_it(self, tmp_path, dataset, capsys):
        manifest = tmp_path / "views.manifest"
        manifest.write_text(f"v\t{dataset / 'view0.edges'}\nv\t{dataset / 'view1.edges'}\n")
        meta = tmp_path / "meta.json"
        assert run(["embed", "--manifest", manifest, "-d", 2, "--out", tmp_path / "e.txt",
                    "--meta", meta]) == 2
        assert "view name 'v' is repeated" in capsys.readouterr().err
        assert not meta.exists()

    # the same two views overflow first in the update's product, in the
    # init's column sums or in the objective's sum, depending on d and the layout
    @pytest.mark.parametrize("second, dim", [("a\tb", 2), ("c\td", 2), ("a\tb", 128)],
                             ids=["update", "init", "objective"])
    def test_overflow_inside_the_fit_exits_2_silently(self, tmp_path, capsys, second, dim):
        (tmp_path / "v1.edges").write_text("a\tb\t5e307\n")
        (tmp_path / "v2.edges").write_text(f"{second}\t5e307\n")
        manifest = tmp_path / "views.manifest"
        manifest.write_text("v1\tv1.edges\nv2\tv2.edges\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["embed", "--manifest", manifest, "-d", dim, "--no-normalize-views",
                        "--out", tmp_path / "e.txt"]) == 2
        assert caught == []
        assert "the fit overflows float64" in capsys.readouterr().err


class TestStats:
    def test_seed_is_not_an_option(self, tmp_path, capsys):
        edges = tmp_path / "t.edges"
        edges.write_text("a\tb\n")
        with pytest.raises(SystemExit) as exc:
            run(["stats", "--edges", edges, "--seed", -1])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err

    def test_seed_config_key_exits_2_naming_the_line(self, tmp_path, capsys):
        edges, cfg = tmp_path / "t.edges", tmp_path / "run.cfg"
        edges.write_text("a\tb\n")
        cfg.write_text("# stats defaults\nseed=3\n")
        assert run(["stats", "--edges", edges, "--config", cfg]) == 2
        assert "line 2: unknown config key 'seed'" in capsys.readouterr().err

    def test_triangle_fixture(self, tmp_path, capsys):
        edges = tmp_path / "t.edges"
        edges.write_text("a\tb\nb\tc\nc\ta\n")
        assert run(["stats", "--edges", edges]) == 0
        out = capsys.readouterr().out
        assert "view0" in out
        row = [t for t in out.splitlines() if t.startswith("view0")][0].split()
        assert row[1] == "3" and row[2] == "3"

    def test_five_view_counts_match_generator(self, tmp_path):
        data = tmp_path / "five"
        assert run(["synth", "--nodes", 80, "--communities", 4, "--views", 5,
                    "--keep", 0.6, "--noise", 0.1, "--seed", 9,
                    "--out-dir", data]) == 0
        out_json = tmp_path / "stats.json"
        assert run(["stats", "--manifest", data / "views.manifest",
                    "--json", out_json]) == 0
        rows = json.loads(out_json.read_text())
        assert len(rows) == 5
        reloaded = mvne.build_multiview(mvne.read_manifest(str(data / "views.manifest")))
        for row, adj in zip(rows, reloaded.views):
            assert row["edges"] == adj.edge_count()
            assert row["nodes"] == len(adj.active_nodes())

    def test_empty_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "empty.manifest"
        manifest.write_text("")
        assert run(["stats", "--manifest", manifest]) == 2


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "mvne" in capsys.readouterr().out

    def test_config_file_defaults_and_flag_override(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=4\nseed=99\n")
        a = tmp_path / "a.txt"
        assert run(["embed", "--edges", dataset / "view0.edges",
                    "--config", cfg, "--out", a]) == 0
        assert a.read_text().splitlines()[0].endswith(" 4")
        b = tmp_path / "b.txt"
        assert run(["embed", "--edges", dataset / "view0.edges",
                    "--config", cfg, "-d", 6, "--out", b]) == 0
        assert b.read_text().splitlines()[0].endswith(" 6")

    def test_malformed_config_file_exits_2(self, tmp_path, dataset):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim 4\n")
        assert run(["embed", "--edges", dataset / "view0.edges",
                    "--config", cfg, "--out", tmp_path / "e.txt"]) == 2

    def test_config_equals_form_is_read(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=4\n")
        out = tmp_path / "e.txt"
        assert run(["embed", "--edges", dataset / "view0.edges",
                    f"--config={cfg}", "--out", out]) == 0
        assert out.read_text().splitlines()[0].endswith(" 4")

    @pytest.mark.parametrize("text, line, key", [
        ("# defaults\nseed=3\ndimm=5\n", 3, "dimm"),
        ("repeats=3\n", 1, "repeats"),  # an option of `mvne eval` only
        ("max=2\n", 1, "max"),  # a prefix of --max-iters
        ("di=3\n", 1, "di"),  # a prefix of --dim
    ])
    def test_unknown_config_key_exits_2_naming_the_line(self, tmp_path, dataset, capsys,
                                                         text, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run(["embed", "--edges", dataset / "view0.edges",
                    "--config", cfg, "--out", tmp_path / "e.txt"]) == 2
        assert f"line {line}: unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, normalized", [("true", False), ("off", True)])
    def test_config_sets_store_true_flag(self, tmp_path, dataset, value, normalized):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no-normalize-views={value}\ndim=3\n")
        meta = tmp_path / "meta.json"
        assert run(["embed", "--manifest", dataset / "views.manifest", "--config", cfg,
                    "--out", tmp_path / "e.txt", "--meta", meta]) == 0
        assert json.loads(meta.read_text())["normalize_views"] is normalized
