"""The text writers, the embedding reader and the edge-list parser split over
processes: the same bytes, values and ids as one part, failures raised in the
caller, and no child process, temporary file or descriptor left behind."""

import importlib
import io
import os
import shutil
import tempfile
import time

import numpy as np
import pytest
import scipy.sparse as sp

import mvne
from mvne import _parts
from mvne.graph import ParseError, parse_edges

from test_properties import parse_outcome, reference_outcome, write_bytes

factorize_module = importlib.import_module("mvne.factorize")  # mvne.factorize is the function

# warnings are errors here: a numpy warning, or Python >= 3.12's warning on
# fork() in a process with threads, must not reach the caller
pytestmark = pytest.mark.filterwarnings("error")

NAMES = ["a", "ä", "节点", "🙂", "n-4", "Ω5", "x6"]


def embedding_rows(n):
    X = np.random.default_rng(n).uniform(0, 1, (n, 3))
    X[-1, 1:] = [-0.0, 1 / 3]
    X[0] = [0.0, -0.0, 1e-300]
    return X


def signed_zero_adjacency(count):
    """An adjacency over NAMES whose first `count` upper entries hold 0.0,
    -0.0, 1e-300 and repeats, stored explicitly, with a registry."""
    upper = [(0, 0, 0.0), (0, 1, -0.0), (1, 2, 1e-300), (2, 2, 1 / 3), (2, 3, -0.0),
             (4, 5, 1e-300), (5, 6, 0.0)][:count]
    reg = mvne.NodeRegistry()
    for name in NAMES:
        reg.intern(name)
    dense = np.zeros((7, 7))
    mask = np.zeros((7, 7), dtype=bool)
    for i, j, w in upper:
        dense[i, j] = dense[j, i] = w
        mask[i, j] = mask[j, i] = True
    rows, cols = np.nonzero(mask)  # row-major: canonical CSR order, zeros kept
    adj = mvne.SparseAdjacency(sp.csr_array((dense[rows, cols], (rows, cols)), shape=(7, 7)))
    assert adj.edge_count() == count
    return adj, reg


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def one_part(monkeypatch, write):
    with monkeypatch.context() as m:
        m.setattr(_parts, "_CORES", 1)
        return write()


def emb_bytes(path, X, names):
    mvne.write_embedding(path, X, names)
    return path.read_bytes()


def edges_text(adj, reg, sink):
    mvne.write_edge_list(adj, reg, sink)
    return sink.getvalue() if isinstance(sink, io.StringIO) else sink.read_text(encoding="utf-8")


@pytest.mark.parametrize("n", [1, 2, 7], ids=["one", "fewer-than-parts", "seven"])
@pytest.mark.parametrize("block", [1, 3])
def test_embedding_bytes_and_values_match_one_part(tmp_path, monkeypatch, forks, n, block):
    monkeypatch.setattr(_parts, "_BLOCK_VALUES", 3 * block)  # rows of 3 values
    X, names, path = embedding_rows(n), NAMES[:n], tmp_path / "emb.txt"
    expected = one_part(monkeypatch, lambda: emb_bytes(path, X, names))
    assert expected.decode("utf-8").startswith(f"{n} 3\na 0 -0 1e-300\n")
    forks.clear()
    assert emb_bytes(path, X, names) == expected
    assert len(forks) == min(n, 3) - 1
    forks.clear()
    names2, X2 = factorize_module._read_rows_bulk(path)
    # cut at the first newline past each third of the bytes, so short files make fewer parts
    assert len(forks) == {1: 0, 2: 0, 7: 2}[n]
    names1, X1 = factorize_module._read_rows(path)
    assert names2 == names1 == names
    assert X2.tobytes() == X1.tobytes() == X.tobytes()
    assert no_child_left()


@pytest.mark.parametrize("count", [1, 2, 7], ids=["one", "fewer-than-parts", "seven"])
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stringio"])
def test_edge_list_text_matches_one_part(tmp_path, monkeypatch, forks, count, block, to_path):
    monkeypatch.setattr(_parts, "_BLOCK_VALUES", block)
    adj, reg = signed_zero_adjacency(count)
    sink = (lambda: tmp_path / "out.edges") if to_path else io.StringIO
    expected = one_part(monkeypatch, lambda: edges_text(adj, reg, sink()))
    assert expected.startswith("a\ta\t0.0\n")
    forks.clear()
    assert edges_text(adj, reg, sink()) == expected
    assert len(forks) == min(count, 3) - 1
    assert no_child_left()


def test_bad_field_in_the_last_part_names_its_line(tmp_path, forks):
    path = tmp_path / "emb.txt"
    mvne.write_embedding(path, embedding_rows(7), NAMES)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[7] = lines[7].replace(" ", " x", 1)  # line 8, the last row
    path.write_text("".join(lines), encoding="utf-8")
    forks.clear()
    with pytest.raises(ParseError, match="line 8: embedding file") as info:
        mvne.read_embedding(path)
    assert info.value.line_no == 8
    assert len(forks) == 2
    assert no_child_left()


def failing_blocks(fail):
    """_parts.write whose format_block first calls fail(in_caller), in_caller
    telling the caller's own part from the forked ones."""
    caller, write = os.getpid(), _parts.write

    def patched(stream, count, values, format_block):
        def failing(lo, hi):
            fail(os.getpid() == caller)
            return format_block(lo, hi)

        write(stream, count, values, failing)

    return patched


def raising_in(in_caller):
    """_parts.write, raising in the caller's own part or in every other part."""

    def fail(here):
        if here == in_caller:
            raise RuntimeError("part failed")

    return failing_blocks(fail)


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """The directory temporary files go to, to check that none stays."""
    where = tmp_path / "tmp"
    where.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(where))
    return where


@pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "child"])
def test_failing_embedding_part_raises_in_the_caller(tmp_path, monkeypatch, forks, temp_dir,
                                                     in_caller):
    fds = open_fds()
    monkeypatch.setattr(_parts, "write", raising_in(in_caller))
    with pytest.raises(RuntimeError, match="part failed"):
        mvne.write_embedding(tmp_path / "emb.txt", embedding_rows(7), NAMES)
    assert len(forks) == 2
    assert no_child_left()
    assert os.listdir(temp_dir) == []
    assert open_fds() == fds


@pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "child"])
def test_failing_edge_list_part_raises_in_the_caller(monkeypatch, forks, temp_dir, in_caller):
    fds = open_fds()
    monkeypatch.setattr(_parts, "write", raising_in(in_caller))
    adj, reg = signed_zero_adjacency(7)
    with pytest.raises(RuntimeError, match="part failed"):
        mvne.write_edge_list(adj, reg, io.StringIO())
    assert len(forks) == 2
    assert no_child_left()
    assert os.listdir(temp_dir) == []
    assert open_fds() == fds


def test_children_still_running_are_killed_when_the_caller_fails(monkeypatch, forks, temp_dir):
    def slow_children(in_caller):
        if in_caller:
            raise RuntimeError("part failed")
        time.sleep(60)

    monkeypatch.setattr(_parts, "write", failing_blocks(slow_children))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="part failed"):
        mvne.write_embedding(temp_dir.parent / "emb.txt", embedding_rows(7), NAMES)
    assert time.perf_counter() - start < 30
    assert no_child_left()


def test_output_directory_vanishing_mid_call_raises(tmp_path, monkeypatch, forks):
    # the temporary files go to the output directory, which is removed after
    # the output file is open and the first temporary file is made
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(out))
    made, make = [], tempfile.TemporaryFile

    def vanishing(*args, **kwargs):
        if made:
            shutil.rmtree(out)
        made.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", vanishing)
    fds = open_fds()
    with pytest.raises(FileNotFoundError):
        mvne.write_embedding(out / "emb.txt", embedding_rows(7), NAMES)
    assert not out.exists()
    assert no_child_left()
    assert open_fds() == fds


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_failing_reader_child_falls_back_to_the_per_line_reader(tmp_path, monkeypatch, forks,
                                                                failure):
    path = tmp_path / "emb.txt"
    X = embedding_rows(7)
    mvne.write_embedding(path, X, NAMES)
    caller, read = os.getpid(), _parts.read

    def failing(path, start, end, values, read_span):
        def span(text):
            if os.getpid() != caller:
                if failure == "exits":
                    os._exit(3)
                raise ValueError("part failed")
            return read_span(text)

        return read(path, start, end, values, span)

    monkeypatch.setattr(_parts, "read", failing)
    if failure == "exits":
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            factorize_module._read_rows_bulk(path)
    names, X2 = mvne.read_embedding(path)
    assert names == NAMES and X2.tobytes() == X.tobytes()
    assert no_child_left()


def test_without_fork_or_affinity_every_path_is_one_part(tmp_path, monkeypatch):
    X = embedding_rows(7)
    adj, reg = signed_zero_adjacency(7)
    expected = (emb_bytes(tmp_path / "emb.txt", X, NAMES), edges_text(adj, reg, io.StringIO()))
    edges = tmp_path / "view.edges"
    edges.write_text(expected[1], encoding="utf-8")
    parsed = parse_outcome(parse_edges, [], io.StringIO(expected[1]))
    monkeypatch.delattr(os, "fork")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(_parts, "_CORES", _parts._usable_cores())
    monkeypatch.setattr(_parts, "_PART_VALUES", 1)
    monkeypatch.setattr(mvne.graph, "_LINE_BYTES", 1)
    assert _parts._CORES == 1
    parts, run = [], _parts.run

    def counted(cuts, part):
        parts.append(len(cuts) - 1)
        return run(cuts, part)

    monkeypatch.setattr(_parts, "run", counted)
    assert (emb_bytes(tmp_path / "emb.txt", X, NAMES),
            edges_text(adj, reg, io.StringIO())) == expected
    names, X2 = mvne.read_embedding(tmp_path / "emb.txt")
    assert names == NAMES and X2.tobytes() == X.tobytes()
    assert parse_outcome(parse_edges, [], edges) == parsed
    assert parts == [1, 1, 1]  # a one-part parse runs no parts at all


def ranges(path):
    """The text of each range the parse of path is cut into."""
    data = path.read_bytes()
    cuts = _parts.line_cuts(path, 0, len(data), len(data) // mvne.graph._LINE_BYTES)
    return [data[lo:hi].decode("utf-8") for lo, hi in zip(cuts, cuts[1:])]


SPLIT_CASES = {
    "utf8-ids": "ä\t节点\t2\n🙂\tä\n节点\t🙂\t0.5\nΩ5\tä\n",
    "no-final-newline": "a\tb\nb\tc\t3\nc\td\nd\ta",
    "crlf": "a\tb\r\nb\tc\t2\r\nc\ta\r\nd\ta\r\n",
    "comment-starts-a-range": "aaaa\tbbbb\n# note\nb\tc\nc\td\t2\n#x\td\ne\ta\n",
    "blank-starts-a-range": "a\tb\nb\tc\n\n\nc\td\n \t\nd\te\n\ne\ta\n",
    "bad-line-in-the-last-part": "a\tb\nb\tc\t2\nc\td\nd\te\nx\te\t-1\n",
}


@pytest.mark.parametrize("known", [[], ["c", "a"]], ids=["fresh", "known"])
@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_split_parse_cases_agree_with_per_line_reference(tmp_path, forks, name, known):
    path = write_bytes(tmp_path, SPLIT_CASES[name])
    parts = ranges(path)
    assert len(parts) == 3
    if name == "comment-starts-a-range":
        assert any(part.startswith("#") for part in parts[1:])
    if name == "blank-starts-a-range":
        assert any(part.startswith("\n") for part in parts[1:])
    if name == "bad-line-in-the-last-part":
        assert parts[-1].endswith("x\te\t-1\n")
    forks.clear()
    outcome = parse_outcome(parse_edges, known, path)
    assert len(forks) == 2
    assert outcome == reference_outcome(known, path)
    if name == "bad-line-in-the-last-part":
        assert outcome[0][:2] == ("error", 5)
    assert no_child_left()


def test_lone_carriage_returns_are_one_part(tmp_path, forks):
    path = write_bytes(tmp_path, "a\tb\rb\tc\rc\ta\r")
    assert ranges(path) == ["a\tb\rb\tc\rc\ta\r"]
    assert parse_outcome(parse_edges, [], path) == reference_outcome([], path)
    assert forks == []


def test_split_views_build_the_graph_of_one_part(tmp_path, forks):
    first = "a\tb\t2\nb\tc\nc\td\t0.5\nd\ta\ne\tf\nf\tg\t3\n"
    second = "g\th\nc\ta\t4\nh\ti\na\ta\ni\tb\t0.25\nj\tg\n"
    paths = [write_bytes(tmp_path, first, "v1.edges"), write_bytes(tmp_path, second, "v2.edges")]
    forks.clear()
    split = mvne.build_multiview([("v1", paths[0]), ("v2", paths[1])])
    assert len(forks) == 4
    whole = mvne.build_multiview([("v1", io.StringIO(first)), ("v2", io.StringIO(second))])
    assert split.registry.names == whole.registry.names
    for a, b in zip(split.views, whole.views):
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.values, b.values)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert no_child_left()


def test_bad_line_in_a_child_names_its_file_line(tmp_path, forks):
    path = write_bytes(tmp_path, SPLIT_CASES["bad-line-in-the-last-part"])
    fds = open_fds()
    registry = mvne.NodeRegistry()
    with pytest.raises(ParseError, match="line 5: non-positive weight") as info:
        parse_edges(path, registry)
    assert info.value.line_no == 5
    assert registry.names == ["a", "b", "c", "d", "e"]  # as the one-part parse leaves it
    assert len(forks) == 2
    assert no_child_left()
    assert open_fds() == fds


def test_failing_caller_part_rolls_the_registry_back(tmp_path, monkeypatch, forks):
    path = write_bytes(tmp_path, SPLIT_CASES["utf8-ids"])
    caller, parse_lines = os.getpid(), mvne.graph._parse_lines

    def failing_here(stream, registry):
        triple = parse_lines(stream, registry)  # interns this part's ids first
        if os.getpid() == caller:
            raise RuntimeError("part failed")
        return triple

    monkeypatch.setattr(mvne.graph, "_parse_lines", failing_here)
    fds = open_fds()
    registry = mvne.NodeRegistry()
    registry.intern("known")
    with pytest.raises(RuntimeError, match="part failed"):
        parse_edges(path, registry)
    assert registry.names == ["known"]
    assert registry.get("ä") is None and registry.intern("new") == 1
    assert len(forks) == 2
    assert no_child_left()
    assert open_fds() == fds


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_failing_parse_child_falls_back_to_one_part(tmp_path, monkeypatch, forks, failure):
    path = write_bytes(tmp_path, SPLIT_CASES["crlf"])
    caller, parse_lines = os.getpid(), mvne.graph._parse_lines

    def failing_there(stream, registry):
        if os.getpid() != caller:
            if failure == "exits":
                os._exit(3)
            raise ValueError("part failed")
        return parse_lines(stream, registry)

    monkeypatch.setattr(mvne.graph, "_parse_lines", failing_there)
    assert parse_outcome(parse_edges, ["d"], path) == reference_outcome(["d"], path)
    assert len(forks) == 2
    assert no_child_left()


def test_small_files_fork_nothing_and_open_nothing_more(tmp_path, monkeypatch):
    """With the real split size, a view of about 1k lines (13 KB, as in the
    sbm_converge workload) takes the one-part loop: no fork, no second open."""
    rng = np.random.default_rng(0)
    text = "".join(f"n{i}\tn{j}\t1.5\n" for i, j in rng.integers(0, 200, (1000, 2)))
    path = write_bytes(tmp_path, text)
    assert 11_000 < path.stat().st_size < 14_000
    made, opened = [], []
    monkeypatch.setattr(_parts, "_CORES", 3)
    monkeypatch.setattr(_parts, "_fork", lambda: made.append(1))
    monkeypatch.setattr(_parts, "open", lambda *a, **k: opened.append(a), raising=False)
    assert parse_outcome(parse_edges, [], path) == reference_outcome([], path)
    assert made == [] and opened == []
