"""The public API resolves, and so does every name perfbench's traced replay
imports from it: tier-1 runs that replay no other way, so a deleted name
would otherwise only show in a `perfbench/run.py --trace 1` run."""

import importlib
from pathlib import Path

import mvne

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in mvne.__all__ if not hasattr(mvne, name)] == []


def test_traced_replay_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    assert callable(traced.run_traced)
