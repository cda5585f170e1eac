import dataclasses
import gc
import importlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import mvne
import mvne.cli
from mvne import _parts
from mvne.cli import main
from mvne.factorize import _EdgePlan

from conftest import per_entry_edge_list


factorize_module = importlib.import_module("mvne.factorize")  # mvne.factorize is the function
graph_module = importlib.import_module("mvne.graph")


def run(args):
    return main([str(a) for a in args])


TEN_HEAVY_EDGES = "".join(f"a{k}\tb{k}\t4e306\n" for k in range(10))


def embed_max_difference(tmp_path, texts, flags):
    """Embed each {file name: edge-list text} view set with flags; the largest
    difference between the first set's embedding and the others', which
    list the same nodes."""
    embeddings = []
    for k, views in enumerate(texts):
        manifest = tmp_path / f"views{k}.manifest"
        for name, text in views.items():
            (tmp_path / f"{k}-{name}").write_text(text)
        manifest.write_text("".join(f"{name}\t{k}-{name}\n" for name in views))
        out = tmp_path / f"emb{k}.txt"
        assert run(["embed", "--manifest", manifest, *flags, "--out", out]) == 0
        embeddings.append(mvne.read_embedding(out))
    (names, X), *others = embeddings
    assert all(other == names for other, _ in others)
    return max(np.abs(Y - X).max() for _, Y in others)


def args_file(tmp_path, text, name="run.args"):
    """The `@FILE` argument for a file holding text."""
    path = tmp_path / name
    path.write_text(text)
    return f"@{path}"


def exits_2(args, capsys):
    """Run args, which argparse refuses; its message."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    return capsys.readouterr().err


def bad_output_paths(tmp_path, flag):
    """(path, error) for an output path whose directory is missing and for one
    that is an existing directory."""
    return [(tmp_path / "missing" / "x", f"{flag}: directory "),
            (tmp_path, f"{flag}: {str(tmp_path)!r} is a directory")]


def os_threads():
    """This process's OS threads, as the kernel counts them."""
    status = Path("/proc/self/status").read_text()
    return int(next(line.split()[1] for line in status.splitlines() if line.startswith("Threads:")))


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


class TestEmbed:
    def test_single_view_header(self, tmp_path, dataset):
        out = tmp_path / "emb.txt"
        assert run(["embed", "--edges", dataset / "view0.edges", "-d", 8,
                    "--seed", 2, "--out", out]) == 0
        assert out.read_text().splitlines()[0].endswith(" 8")

    def test_no_os_thread_outlives_an_embed_in_parts(self, tmp_path, dataset, monkeypatch):
        # the bench fails a run whose process ends with more threads than cores
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status")
        args = ["embed", "--manifest", dataset / "views.manifest", "-d", 4, "--seed", 3]
        monkeypatch.setattr(_parts, "_CORES", 1)
        assert run([*args, "--out", tmp_path / "one.txt"]) == 0
        monkeypatch.setattr(_parts, "_CORES", 3)
        monkeypatch.setattr(factorize_module, "_PART_ENTRIES", 1)
        monkeypatch.setattr(factorize_module, "_BLOCK", 16)
        measure, during = _EdgePlan.measure, []
        monkeypatch.setattr(_EdgePlan, "measure", lambda plan, mass: (
            during.append(os_threads()) or measure(plan, mass)))
        started, before = threading.active_count(), os_threads()
        assert run([*args, "--out", tmp_path / "three.txt"]) == 0
        assert threading.active_count() == started
        # a joined thread's OS thread ends a moment after the join returns
        deadline = time.monotonic() + 2
        while os_threads() != before and time.monotonic() < deadline:
            time.sleep(0.001)
        assert os_threads() == before
        assert max(during) > before
        assert (tmp_path / "three.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()

    def test_fits_what_the_library_fits(self, tmp_path, dataset):
        out, combined, meta = tmp_path / "e.txt", tmp_path / "c.edges", tmp_path / "m.json"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4, "--seed", 3,
                    "--out", out, "--export-combined", combined, "--meta", meta]) == 0
        graph = mvne.build_multiview(mvne.read_manifest(dataset / "views.manifest"))
        cfg = mvne.MvneConfig(mvne.FactorizeConfig(d=4, seed=3))
        betas = mvne.default_betas(graph)
        lib = tmp_path / "lib"
        lib.mkdir()
        mvne.write_embedding(lib / "e.txt", mvne.mvne_embed(graph, cfg).H, graph.registry.names)
        mvne.write_edge_list(mvne.combine_views(graph, betas), graph.registry, lib / "c.edges")
        assert out.read_bytes() == (lib / "e.txt").read_bytes()
        assert combined.read_bytes() == (lib / "c.edges").read_bytes()
        assert json.loads(meta.read_text())["betas"] == betas.beta.tolist()

        assert run(["embed", "--edges", dataset / "view0.edges", "-d", 4, "--seed", 3,
                    "--out", out]) == 0
        adj, reg = mvne.load_edge_list(dataset / "view0.edges")
        mvne.write_embedding(lib / "e.txt", mvne.svne_embed(adj, cfg).H, reg.names)
        assert out.read_bytes() == (lib / "e.txt").read_bytes()

    @pytest.mark.parametrize("source", ["--manifest", "--edges"])
    def test_fit_holds_no_view_of_the_graph(self, tmp_path, dataset, monkeypatch, source):
        refs, alive = [], []
        build, fit = mvne.cli.build_multiview, mvne.cli.factorize

        def recorded_build(manifest):
            graph = build(manifest)
            refs.extend(weakref.ref(x) for x in (graph, graph.registry, *graph.views,
                                                 *(adj.mat for adj in graph.views)))
            return graph

        def checked_fit(*args, **kwargs):
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
            return fit(*args, **kwargs)

        monkeypatch.setattr(mvne.cli, "build_multiview", recorded_build)
        monkeypatch.setattr(mvne.cli, "factorize", checked_fit)
        path = dataset / ("views.manifest" if source == "--manifest" else "view0.edges")
        assert run(["embed", source, path, "-d", 2, "--out", tmp_path / "e.txt",
                    "--meta", tmp_path / "m.json", "--export-combined", tmp_path / "c.edges"]) == 0
        views = 2 if source == "--manifest" else 1
        assert len(refs) == 2 + 2 * views
        assert alive == [False] * len(refs)

    @pytest.mark.parametrize("flag, values, fixed", [
        ("--max-iters", (400, 500), ["--rel-tol", 1e-2]),   # both stop at the tolerance
        ("--rel-tol", (1e-6, 1e-7), ["--max-iters", 2]),    # both stop at max_iters
    ], ids=["max-iters", "rel-tol"])
    def test_meta_records_every_fit_setting(self, tmp_path, dataset, flag, values, fixed):
        docs, embeddings = [], []
        for k, value in enumerate(values):
            out, meta = tmp_path / f"e{k}.txt", tmp_path / f"m{k}.json"
            assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4,
                        *fixed, flag, value, "--out", out, "--meta", meta]) == 0
            docs.append(json.loads(meta.read_text()))
            del docs[-1]["wall_time_s"]
            embeddings.append(out.read_bytes())
        key, fixed_key = (f[2:].replace("-", "_") for f in (flag, fixed[0]))
        assert embeddings[0] == embeddings[1]
        assert [doc.pop(key) for doc in docs] == list(values)
        assert docs[0] == docs[1]
        settings = dataclasses.asdict(mvne.FactorizeConfig(d=4, **{fixed_key: fixed[1]}))
        del settings[key]
        assert {name: docs[0][name] for name in settings} == settings

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

    def test_renormalized_betas_warn_in_one_stderr_line(self, tmp_path, dataset, capsys):
        outs = []
        for action in ("default", "error"):
            outs.append(tmp_path / f"{action}.txt")
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 2,
                            "--beta", "1,2", "--out", outs[-1]]) == 0
            assert capsys.readouterr().err == \
                "mvne: warning: view weights sum to 3; renormalizing to 1\n"
        assert outs[0].read_bytes() == outs[1].read_bytes()

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
        assert len(set(adj.mat.data.tolist())) < adj.nnz // 2
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

    def test_json_is_the_library_report(self, tmp_path, dataset):
        # the CLI writes write_run_metadata(report.to_dict()), the library report.to_json()
        emb, rep = tmp_path / "emb.txt", tmp_path / "r.json"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 6,
                    "--seed", 2, "--out", emb]) == 0
        assert run(["eval", "--embedding", emb, "--labels", dataset / "labels.tsv",
                    "--fractions", "0.3,0.7", "--repeats", 3, "--seed", 5, "--reg", 0.1,
                    "--json", rep]) == 0
        names, X = mvne.read_embedding(emb)
        labels = mvne.load_labels(dataset / "labels.tsv",
                                  {name: i for i, name in enumerate(names)})
        protocol = mvne.EvalProtocol(fractions=(0.3, 0.7), repeats=3, seed=5, reg=0.1)
        expected = mvne.run_protocol(X, labels, protocol).to_json()
        assert rep.read_bytes() == expected.encode("utf-8")

    def test_stdout_names_each_fraction_as_the_tsv_does(self, tmp_path, dataset, capsys):
        # at two decimals these would print as 0.12, 0.12 and 0.01
        emb, tsv = tmp_path / "emb.txt", tmp_path / "r.tsv"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 6,
                    "--seed", 2, "--out", emb]) == 0
        capsys.readouterr()
        assert run(["eval", "--embedding", emb, "--labels", dataset / "labels.tsv",
                    "--fractions", "0.115,0.12,0.005", "--repeats", 2, "--tsv", tsv]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert printed == [line.split("\t")[0] for line in tsv.read_text().splitlines()[1:]]
        assert printed == ["0.115", "0.12", "0.005"]

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
        (["a 0.5 0.5", "b\x00c 0.5 0.5", "c 1 0"], 3, "holds a control character"),
        (["a 0.5 0.5", "b 0.5 0.5", "\ufeffc 1 0"], 4, "holds a byte-order mark"),
    ])
    def test_bad_embedding_exits_2_naming_the_line(self, tmp_path, capsys, rows, line, what):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        emb.write_text("3 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        labels.write_text("a\tc0\nb\tc1\n")
        assert run(["eval", "--embedding", emb, "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err and what in err

    def test_refused_name_in_a_split_embedding_exits_2_naming_the_line(self, tmp_path, capsys,
                                                                       forks):
        emb, labels = tmp_path / "emb.txt", tmp_path / "labels.tsv"
        names = [f"n{i}" for i in range(7)]
        names[5] = "n\x1b5"
        emb.write_text("7 1\n" + "".join(f"{name} 1\n" for name in names), encoding="utf-8")
        labels.write_text("n0\tc0\n")
        assert run(["eval", "--embedding", emb, "--labels", labels]) == 2
        assert len(forks) == 2  # the bulk reader ran in three parts
        assert "line 7: embedding file: node name 'n\\x1b5' holds a control character" \
            in capsys.readouterr().err

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
        calls = []
        monkeypatch.setattr(mvne.cli, "factorize", lambda *a, **k: calls.append("fit"))
        monkeypatch.setattr(mvne.cli, "build_multiview", lambda *a: calls.append("load"))
        for bad, error in bad_output_paths(tmp_path, flag):
            paths = {f: tmp_path / f"{f[2:]}.out" for f in ("--out", "--meta", "--export-combined")}
            paths[flag] = bad
            args = [tok for f, path in paths.items() for tok in (f, path)]
            assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 2, *args]) == 2
            assert error in capsys.readouterr().err
            assert calls == []

    @pytest.mark.parametrize("case", ["a-file", "under-a-file", "labels-directory",
                                      "view-directory"])
    def test_bad_out_dir_exits_2_before_the_graph_is_generated(self, tmp_path, capsys,
                                                               monkeypatch, case):
        calls = []
        monkeypatch.setattr(mvne.cli, "generate_multiview_sbm", lambda *a: calls.append("gen"))
        blocker = tmp_path / "f"
        blocker.write_text("a file\n")
        not_a_dir = f"--out-dir: {os.path.realpath(blocker)!r} is not a directory"
        out, error = {
            "a-file": (blocker, not_a_dir),
            "under-a-file": (blocker / "sub", not_a_dir),
            "labels-directory": (tmp_path / "d", "labels.tsv"),
            "view-directory": (tmp_path / "d", "view1.edges"),
        }[case]
        if not error.startswith("--"):
            (out / error).mkdir(parents=True)
            error = f"--out-dir {error}: {str(out / error)!r} is a directory"
        files = lambda: sorted(tmp_path.rglob("*"))
        before = files()
        assert run(["synth", "--nodes", 10, "--communities", 2, "--out-dir", out]) == 2
        assert error in capsys.readouterr().err
        assert calls == [] and files() == before

    def test_weighted_export_directory_exits_2_before_input_is_read(self, tmp_path, dataset,
                                                                    capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(mvne.cli, "build_multiview", lambda *a: calls.append("load"))
        out = tmp_path / "e.txt"
        (tmp_path / "e.txt.weighted").mkdir()
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 2, "--out", out,
                    "--export-weighted"]) == 2
        assert f"--export-weighted: {str(out) + '.weighted'!r} is a directory" in \
            capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_beta_with_edges_exits_2_naming_both_flags(self, tmp_path, dataset, capsys,
                                                       monkeypatch):
        """One view's weight is always 1, so --beta would be accepted and ignored."""
        calls = []
        monkeypatch.setattr(mvne.cli, "build_multiview", lambda *a: calls.append("load"))
        out = tmp_path / "e.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["embed", "--edges", dataset / "view0.edges", "-d", 2, "--beta", "0.3",
                        "--out", out]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "--beta" in err and "--edges" in err
        assert calls == [] and not out.exists()

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
        assert (f"view 'view0' ({edges}): edge weights sum to 2e-320, below the smallest "
                "normal float") in err

    @pytest.mark.parametrize("text", ["a\tb\t1e-320\n", "a\tb\t1e-300\nb\tc\t1e-300\n"],
                             ids=["subnormal", "two-tiny"])
    def test_underflowing_fit_exits_2_naming_the_cause(self, tmp_path, capsys, text):
        # a subnormal total exits 2 at load; any other total fits in the
        # weights' unit, as the same graph with weights of one does
        flags = ["--no-normalize-views", "-d", 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if "1e-320" in text:
                edges = tmp_path / "tiny.edges"
                edges.write_text(text)
                assert run(["embed", "--edges", edges, *flags, "--out", tmp_path / "e.txt"]) == 2
                assert "edge weights sum to 2e-320, below the smallest normal float" in \
                    capsys.readouterr().err
                return
            views = [{"tiny.edges": text}, {"tiny.edges": text.replace("1e-300", "1")}]
            assert embed_max_difference(tmp_path, views, flags) <= 1e-12

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
        for bad, error in bad_output_paths(tmp_path, flag):
            assert run([command, *inputs[command], flag, bad]) == 2
            assert error in capsys.readouterr().err
            assert calls == []

    @pytest.mark.parametrize("case", ["out-meta", "out-view", "edges-out", "weighted-meta",
                                      "json-tsv", "json-labels", "stats-manifest"])
    def test_output_path_named_twice_exits_2_naming_both_flags(self, tmp_path, dataset, capsys,
                                                               monkeypatch, case):
        calls = []
        for name in ("read_embedding", "build_multiview"):
            monkeypatch.setattr(mvne.cli, name, lambda *a, name=name: calls.append(name))
        emb, x = tmp_path / "emb.txt", tmp_path / "x.txt"
        mvne.write_embedding(emb, np.eye(2), ["n0", "n1"])
        x.write_text("kept\n")
        manifest, labels = dataset / "views.manifest", dataset / "labels.tsv"
        view = dataset / ".." / "data" / "view0.edges"  # another spelling of a view file
        embed, evaluate = ["embed", "--manifest", manifest], ["eval", "--embedding", emb,
                                                              "--labels", labels]
        args, path, flag, other = {
            "out-meta": (embed + ["--out", x, "--meta", x], x, "--meta", "--out"),
            "out-view": (embed + ["--out", view], view, "--out", "--manifest view 'view0'"),
            "edges-out": (["embed", "--edges", x, "--out", x], x, "--out", "--edges"),
            "weighted-meta": (embed + ["--out", emb, "--export-weighted",
                                       "--meta", f"{emb}.weighted"],
                              f"{emb}.weighted", "--export-weighted", "--meta"),
            "json-tsv": (evaluate + ["--json", x, "--tsv", x], x, "--tsv", "--json"),
            "json-labels": (evaluate + ["--json", labels], labels, "--json", "--labels"),
            "stats-manifest": (["stats", "--manifest", manifest, "--json", manifest], manifest,
                               "--json", "--manifest"),
        }[case]
        files = lambda: {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        before = files()
        assert run(args) == 2
        assert f"{flag}: {str(path)!r} is also named by {other}" in capsys.readouterr().err
        assert calls == [] and files() == before

    def test_repeated_view_name_exits_2_naming_it(self, tmp_path, dataset, capsys, monkeypatch):
        parses = []
        monkeypatch.setattr(graph_module, "parse_edges", lambda *a: parses.append(a))
        manifest = tmp_path / "views.manifest"
        manifest.write_text(f"v\t{dataset / 'view0.edges'}\nv\t{dataset / 'view1.edges'}\n")
        meta = tmp_path / "meta.json"
        assert run(["embed", "--manifest", manifest, "-d", 2, "--out", tmp_path / "e.txt",
                    "--meta", meta]) == 2
        assert "view name 'v' is repeated" in capsys.readouterr().err
        assert not meta.exists()
        assert parses == []

    # The fit runs in the weights' unit and starts at their total, so a graph
    # whose weight nears the largest float fits as its weights-of-one twin
    # does: one edge of 5e307 in both views, or two disjoint ones, at d = 2.
    # Only a fitted objective past the largest float overflows: ten disjoint
    # edges of 4e306 in both views, a total of 1.6e308, fit at d = 1 to
    # about 1.5 times that total
    @pytest.mark.parametrize("v1, v2, dim", [
        ("a\tb\t5e307\n", "a\tb\t5e307\n", 2),
        ("a\tb\t5e307\n", "c\td\t5e307\n", 2),
        (TEN_HEAVY_EDGES, TEN_HEAVY_EDGES, 1),
    ], ids=["update", "init", "objective"])
    def test_overflow_inside_the_fit_exits_2_silently(self, tmp_path, capsys, v1, v2, dim):
        flags = ["-d", dim, "--no-normalize-views"]
        views = {"v1.edges": v1, "v2.edges": v2}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if dim == 2:
                one = {name: text.replace("5e307", "1") for name, text in views.items()}
                assert embed_max_difference(tmp_path, [views, one], flags) <= 1e-12
                assert caught == []
                return
            for name, text in views.items():
                (tmp_path / name).write_text(text)
            manifest = tmp_path / "views.manifest"
            manifest.write_text("v1\tv1.edges\nv2\tv2.edges\n")
            assert run(["embed", "--manifest", manifest, *flags, "--out", tmp_path / "e.txt"]) == 2
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

    def test_seed_in_an_args_file_is_refused(self, tmp_path, capsys):
        edges = tmp_path / "t.edges"
        edges.write_text("a\tb\n")
        at = args_file(tmp_path, "# stats defaults\n--seed=3\n")
        assert "unrecognized arguments: --seed=3" in exits_2(["stats", "--edges", edges, at],
                                                             capsys)

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

    def test_python_m_mvne_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(Path(mvne.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "mvne", "--version"], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("mvne ")

    def test_config_file_defaults_and_flag_override(self, tmp_path, dataset):
        # an @FILE's lines stand where it does, so a later flag wins
        at = args_file(tmp_path, "# defaults\n--dim=4\n\n--seed=99\n")
        edges = dataset / "view0.edges"
        a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        assert run(["embed", "--edges", edges, at, "--out", a]) == 0
        assert a.read_text().splitlines()[0].endswith(" 4")
        assert run(["embed", "--edges", edges, at, "-d", 6, "--out", b]) == 0
        assert b.read_text().splitlines()[0].endswith(" 6")
        assert run(["embed", "--edges", edges, "-d", 4, "--seed", 99, "--out", c]) == 0
        assert a.read_bytes() == c.read_bytes()

    def test_malformed_config_file_exits_2(self, tmp_path, dataset, capsys):
        # one argument a line: a flag and its value on one line are one argument
        at = args_file(tmp_path, "--dim 4\n")
        out = tmp_path / "e.txt"
        err = exits_2(["embed", "--edges", dataset / "view0.edges", at, "--out", out], capsys)
        assert "unrecognized arguments: --dim 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "--dimm=5",
        "--repeats=3",  # an option of `mvne eval` only
        "--max=2",  # a prefix of --max-iters
        "--di=3",  # a prefix of --dim
        "--config=other.args",
    ])
    def test_unknown_flag_in_an_args_file_exits_2_naming_it(self, tmp_path, dataset, capsys,
                                                             line):
        at = args_file(tmp_path, f"# defaults\n--seed=3\n{line}\n")
        out = tmp_path / "e.txt"
        err = exits_2(["embed", "--edges", dataset / "view0.edges", at, "--out", out], capsys)
        assert f"unrecognized arguments: {line}" in err
        assert not out.exists()

    def test_config_flag_is_an_unrecognized_argument(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=4\n")
        err = exits_2(["embed", "--edges", dataset / "view0.edges", "--config", cfg,
                       "--out", tmp_path / "e.txt"], capsys)
        assert f"unrecognized arguments: --config {cfg}" in err

    def test_two_args_files_apply_in_order(self, tmp_path, dataset):
        a = args_file(tmp_path, "--dim=3\n--max-iters=2\n", "a.args")
        b = args_file(tmp_path, "--dim=5\n", "b.args")
        meta = tmp_path / "meta.json"
        assert run(["embed", "--edges", dataset / "view0.edges", a, b,
                    "--out", tmp_path / "e.txt", "--meta", meta]) == 0
        record = json.loads(meta.read_text())
        assert (record["d"], record["max_iters"]) == (5, 2)

    @pytest.mark.parametrize("line, normalized", [("--no-normalize-views", False),
                                                  ("# --no-normalize-views", True)],
                             ids=["set", "commented"])
    def test_args_file_sets_store_true_flag(self, tmp_path, dataset, line, normalized):
        at = args_file(tmp_path, f"{line}\n--dim=3\n")
        meta = tmp_path / "meta.json"
        assert run(["embed", "--manifest", dataset / "views.manifest", at,
                    "--out", tmp_path / "e.txt", "--meta", meta]) == 0
        assert json.loads(meta.read_text())["normalize_views"] is normalized


def spelled_defaults(cls, *fields):
    """The flags that set each named field of cls to its dataclass default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    flags = []
    for name in fields:
        value = defaults[name]
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        flags += ["--" + name.replace("_", "-"), text]
    return flags


def output_bytes(out_dir):
    """Every file under out_dir by relative path; a run record without its wall time."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".json" and path.name.startswith("meta"):
            record = json.loads(path.read_text())
            del record["wall_time_s"]
            files[path.relative_to(out_dir)] = record
        elif path.is_file():
            files[path.relative_to(out_dir)] = path.read_bytes()
    return files


class TestOneDefaultPerSetting:
    """An omitted config flag writes what the flag spelled out at its field's default
    writes, so the CLI cannot hold a second copy of a config's default."""

    def test_embed(self, tmp_path, dataset):
        runs = [[], spelled_defaults(mvne.FactorizeConfig, "max_iters", "rel_tol", "seed")]
        for k, flags in enumerate(runs):
            out = tmp_path / f"run{k}"
            out.mkdir()
            assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4, *flags,
                        "--out", out / "emb.txt", "--meta", out / "meta.json",
                        "--export-combined", out / "combined.edges"]) == 0
        assert output_bytes(tmp_path / "run0") == output_bytes(tmp_path / "run1")

    def test_eval(self, tmp_path, dataset):
        emb = tmp_path / "emb.txt"
        assert run(["embed", "--manifest", dataset / "views.manifest", "-d", 4,
                    "--out", emb]) == 0
        runs = [[], spelled_defaults(mvne.EvalProtocol, "fractions", "repeats", "reg", "seed")]
        for k, flags in enumerate(runs):
            out = tmp_path / f"run{k}"
            out.mkdir()
            assert run(["eval", "--embedding", emb, "--labels", dataset / "labels.tsv", *flags,
                        "--json", out / "report.json", "--tsv", out / "report.tsv"]) == 0
        assert output_bytes(tmp_path / "run0") == output_bytes(tmp_path / "run1")

    def test_synth(self, tmp_path):
        # the shape, --views 3 and --seed 42 are the CLI's own defaults
        cli_defaults = ["--nodes", 200, "--communities", 4, "--p-in", 0.3, "--p-out", 0.01,
                        "--views", 3, "--seed", 42]
        runs = [[], cli_defaults + spelled_defaults(mvne.SbmSpec, "keep", "noise")]
        for k, flags in enumerate(runs):
            assert run(["synth", *flags, "--out-dir", tmp_path / f"run{k}"]) == 0
        first = output_bytes(tmp_path / "run0")
        assert len(first) == 5 and first == output_bytes(tmp_path / "run1")
