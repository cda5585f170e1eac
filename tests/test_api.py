"""The public API is the listed names, and they resolve; so does every name
perfbench's traced replay imports from it, and the replay runs clean on one
small dataset, so a deleted name or attribute the replay reads shows here and
not only in a `perfbench/run.py --trace 1` run. Outside `_parts`, only its
`read`, `write` and `threads` are used, and the private names one module
imports from another are the listed ones. The settable surface, the config
fields and every subcommand's options, is the listed one."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import mvne
from mvne.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(mvne.__file__).resolve().parent


# Adding or dropping a public name is an edit here.
PUBLIC = [
    "EvalProtocol", "EvalReport", "Factorization", "FactorizeConfig", "LabelStore",
    "MultiViewGraph", "MvneConfig", "NodeRegistry", "ParseError", "SbmSpec",
    "SparseAdjacency", "ViewWeights", "build_multiview", "combine_views", "default_betas",
    "dump_dataset", "embedding", "factorize", "generate_multiview_sbm", "init_factorization",
    "kl_objective", "load_edge_list", "load_labels", "macro_f1", "micro_f1", "mvne_embed",
    "predict_multilabel", "read_embedding", "read_manifest", "run_protocol",
    "split_labeled", "svne_embed", "train_ovr", "update_step", "view_stats",
    "write_edge_list", "write_embedding",
]


def test_public_names_are_the_listed_ones():
    assert sorted(mvne.__all__) == PUBLIC


def test_every_exported_name_resolves():
    assert [name for name in mvne.__all__ if not hasattr(mvne, name)] == []


def test_every_public_name_has_its_own_docstring():
    """Not one inherited from a base class, nor the `Name(field, ...)` line that
    dataclass writes for a class without a docstring."""
    def own_doc(obj):
        doc = inspect.getdoc(obj) if obj.__doc__ else None
        return doc and not re.fullmatch(rf"{obj.__name__}\(.*\)", doc, re.S)

    assert [name for name in mvne.__all__ if not own_doc(getattr(mvne, name))] == []


def test_parts_is_used_only_through_read_write_and_threads():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "_parts.py":
            used |= {(path.name, node.attr) for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "_parts"}
    assert {attr for _, attr in used} <= {"read", "threads", "write"}, sorted(used)


# Each (importer, source, name) of a private name one module imports from
# another; a new coupling between modules is an edit here.
PRIVATE_IMPORTS = [
    ("evaluate", "factorize", "_json_text"),
    ("factorize", "graph", "_TINY"),
]


def test_private_imports_between_modules_are_the_listed_ones():
    found = sorted((path.stem, node.module, alias.name)
                   for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level and node.module
                   for alias in node.names
                   if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert found == PRIVATE_IMPORTS


def test_traced_replay_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    assert callable(traced.run_traced)


def test_traced_replay_runs_clean(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, traced = importlib.import_module("run"), importlib.import_module("traced")
    wl = dataclasses.replace(importlib.import_module("workloads").WORKLOADS["sbm_converge"],
                             datasets=1)
    untraced = run.run_untraced(wl, 1, 0.0, tmp_path)
    replay = traced.run_traced(wl, 1, tmp_path, tmp_path / "trace.json")
    for result in (untraced, replay):
        # the thread check counts this process's threads, pytest's among them
        assert [f for f in result["checks"]["failures"]
                if not f.startswith("threads <= usable cores")] == []
    checks = run.Checks()
    run.compare_replay(untraced, replay, checks)
    assert checks.attempted == 1 and checks.failures == []
    assert set(run.PER_LAYER) - set(replay["metrics"]) == {"trace.overhead_s"}


# Adding or dropping a knob is an edit here.
SETTABLE = {
    "FactorizeConfig": ["d", "max_iters", "rel_tol", "seed", "epsilon"],
    "MvneConfig": ["factorize", "betas", "normalize_views"],
    "EvalProtocol": ["fractions", "repeats", "seed", "reg"],
    "mvne embed": ["--beta", "--dim", "--edges", "--export-combined", "--export-weighted",
                   "--help", "--manifest", "--max-iters", "--meta", "--no-normalize-views",
                   "--out", "--rel-tol", "--seed"],
    "mvne eval": ["--embedding", "--fractions", "--help", "--json", "--labels", "--reg",
                  "--repeats", "--seed", "--tsv"],
    "mvne stats": ["--edges", "--help", "--json", "--manifest"],
    "mvne synth": ["--communities", "--help", "--keep", "--nodes", "--noise", "--out-dir",
                   "--p-in", "--p-out", "--seed", "--views"],
}


def test_settable_surface_is_the_listed_one():
    surface = {name: [f.name for f in dataclasses.fields(getattr(mvne, name))]
               for name in ("FactorizeConfig", "MvneConfig", "EvalProtocol")}
    for command in ("embed", "eval", "stats", "synth"):
        help_text = io.StringIO()
        with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
            main([command, "--help"])
        surface[f"mvne {command}"] = sorted(set(re.findall(r"--[a-z][a-z-]*",
                                                           help_text.getvalue())))
    assert surface == SETTABLE
