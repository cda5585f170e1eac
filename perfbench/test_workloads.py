"""Tests of the benchmark's own input generators and metric definitions.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, scan_inputs, write_ingest_io, write_large_fit


def _files(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _line_count(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


@pytest.mark.parametrize("write", [write_large_fit, write_ingest_io])
def test_same_seed_writes_identical_bytes(tmp_path, write):
    write(7, str(tmp_path / "a"))
    write(7, str(tmp_path / "b"))
    write(8, str(tmp_path / "c"))
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_large_fit_has_the_stated_counts(tmp_path):
    inp = write_large_fit(3, str(tmp_path))
    assert inp.edge_lines == 400_000
    assert inp.view_edges == [400_000]
    assert inp.stored_entries == 800_000
    assert inp.nodes == 20_000
    assert _line_count(tmp_path / "view0.edges") == 400_000
    assert _line_count(tmp_path / "labels.tsv") == 1_000
    scanned = scan_inputs(inp.manifest, inp.labels, inp.communities)
    assert (scanned.edge_lines, scanned.view_edges, scanned.stored_entries) == \
        (400_000, [400_000], 800_000)
    assert set(scanned.node_ids) == set(inp.node_ids)


def test_ingest_io_has_the_stated_counts(tmp_path):
    inp = write_ingest_io(3, str(tmp_path))
    assert inp.edge_lines == 500_000
    assert inp.nodes == 100_000
    assert [_line_count(tmp_path / f"view{k}.edges") for k in range(2)] == [250_000] * 2
    scanned = scan_inputs(inp.manifest, inp.labels, inp.communities)
    assert scanned.edge_lines == inp.edge_lines
    assert scanned.view_edges == inp.view_edges
    assert scanned.stored_entries == inp.stored_entries
    assert set(scanned.node_ids) == set(inp.node_ids)
    # repeated lines and self-loops are present
    assert all(edges < 250_000 for edges in inp.view_edges)
    assert inp.stored_entries < 2 * inp.upper_entries
    widths = {len(name) for name in inp.node_ids}
    assert min(widths) <= 4 and max(widths) >= 20
    # the labeled subset holds each block in proportion to its size
    with open(inp.labels, encoding="utf-8") as fh:
        blocks = [line.split("\t")[1].strip() for line in fh]
    assert {b: blocks.count(b) for b in set(blocks)} == {"c0": 700, "c1": 300}


def test_program_loads_the_stated_sizes(tmp_path):
    from mvne import build_multiview, combine_views, default_betas, read_manifest

    inp = write_ingest_io(5, str(tmp_path), n=500, lines_per_view=2_000)
    graph = build_multiview(read_manifest(inp.manifest))
    assert graph.n == inp.nodes
    assert [v.edge_count() for v in graph.views] == inp.view_edges
    assert combine_views(graph, default_betas(graph)).nnz == inp.stored_entries


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
