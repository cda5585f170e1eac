"""Property tests: any legal input round-trips through the text formats,
the edge-list parser agrees with its per-line reference, the mirror index
with a stable-argsort oracle, the bulk embedding reader with the per-line
one and the batched top-k and F1 with per-node scoring, config
constructors accept exactly the finite, valid values, every path that builds
an adjacency accepts a total weight or raises alike, the ratio update and
the fit keep their invariants on any small graph, the fit starts at the
total weight and does not depend on the unit of the weights."""

import dataclasses
import importlib
import io
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mvne
from mvne import _parts
from mvne.graph import ParseError, parse_edges

from conftest import coo_rows, per_entry_edge_list

graph_module = importlib.import_module("mvne.graph")
evaluate_module = importlib.import_module("mvne.evaluate")

# Non-empty ids without whitespace, drawn often from the formats' own
# syntax characters; surrogates cannot be written as UTF-8, and the id rule
# refuses C0 control characters and U+FEFF.
REFUSED = [chr(c) for c in range(32)] + ["\ufeff"]
node_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=REFUSED)
                   | st.sampled_from("#,=.-"), min_size=1, max_size=6).filter(
                       lambda s: s.split() == [s])
weights = st.none() | st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def edge_lists(draw):
    """Edge-list text with duplicates, self-loops and optional weights."""
    pool = draw(st.lists(node_ids, min_size=1, max_size=6, unique=True))
    node = st.sampled_from(pool)
    edges = draw(st.lists(st.tuples(node, node, weights), max_size=20))
    return "".join(f"{a}\t{b}\n" if w is None else f"{a}\t{b}\t{w!r}\n" for a, b, w in edges)


def triples(adj, reg):
    names = reg.names
    return {(names[i], names[j], w) for i, j, w in
            zip(coo_rows(adj).tolist(), adj.mat.indices.tolist(), adj.mat.data.tolist())}


def write(adj, reg):
    buf = io.StringIO()
    mvne.write_edge_list(adj, reg, buf)
    return buf.getvalue()


@settings(deadline=None)
@given(edge_lists())
@example("c\t#a\nd\t#a\n")  # used to write the line "#a\td\t1.0", a comment on reload
@example("0\t#'\n")  # the error message quotes this id with double quotes
@example("a\tb\t5e-324\n")  # the total, 1e-323, is below the smallest normal float
def test_edge_list_round_trip(text):
    try:
        adj, reg = mvne.load_edge_list(io.StringIO(text))
    except ParseError as exc:
        # the one refused id: a leading '#' would make a written line a comment
        assert "node identifier '#" in str(exc) or 'node identifier "#' in str(exc)
        return
    except ValueError as exc:
        # the one refused total
        assert "below the smallest normal float" in str(exc)
        return
    adj.upper_index  # raises unless structure and values are bit-exactly symmetric
    first = write(adj, reg)
    assert first == per_entry_edge_list(adj, reg)

    again, reg2 = mvne.load_edge_list(io.StringIO(first))
    again.upper_index
    assert triples(again, reg2) == triples(adj, reg)

    # Line order follows registry order, so the byte-level check reloads
    # into the registry the first write came from.
    n = len(reg)
    same, _ = mvne.load_edge_list(io.StringIO(first), reg)
    assert len(reg) == n
    assert write(same, reg) == first


def per_line_parse_edges(source, registry):
    """The edge-list parser as it was written before its loop was tightened,
    kept as the reference for what the format accepts and how it fails."""

    def _iter_data_lines(source):
        for line_no, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, line

    rows, cols, weights = [], [], []
    for line_no, line in _iter_data_lines(source):
        parts = line.split("\t")
        if len(parts) == 1:
            parts = line.split()
        if len(parts) == 2:
            w = 1.0
        elif len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"bad weight {parts[2]!r}", line_no) from None
            if not math.isfinite(w):
                raise ParseError(f"weight {parts[2]!r} is not finite", line_no)
            if w <= 0:
                raise ParseError(f"non-positive weight {parts[2]!r}", line_no)
        else:
            raise ParseError(f"expected 2 or 3 fields, got {len(parts)}", line_no)
        try:
            i = registry.intern(parts[0])
            j = registry.intern(parts[1])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        rows.append(i); cols.append(j); weights.append(w)
    return rows, cols, weights


good_weights = st.sampled_from(["1", "2.5", "0.1", "1e-300", "+3", "1_0", " 4"]) \
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
bad_weights = st.sampled_from(["0", "0.0", "-0.0", "-1", "nan", "inf", "-inf", "1e999", "x", "",
                               "0x1"]) | st.floats().map(repr)


@st.composite
def raw_edge_lists(draw):
    """Edge-list text, mostly legal: 2- and 3-field lines, tab or space
    separated, comments, blank lines, CRLF ends, ids that start with '#',
    and now and then a bad weight or a line of 1 or 4 fields. Also a set of
    ids already in the registry."""
    pool = draw(st.lists(st.sampled_from([node_ids] * 3 + [st.sampled_from(["#a", "#", "a#"])])
                         .flatmap(lambda ids: ids), min_size=1, max_size=5, unique=True))
    field = st.sampled_from(pool)
    weight = st.sampled_from([good_weights] * 8 + [bad_weights]).flatmap(lambda w: w)
    sep = st.sampled_from(["\t", "\t", " ", "  "])
    edge = st.tuples(field, field) | st.tuples(field, field, weight)
    odd = st.tuples(field) | st.tuples(field, field, weight, weight)
    data = st.sampled_from([edge] * 10 + [odd]).flatmap(lambda f: st.tuples(f, sep)).map(
        lambda fs: fs[1].join(fs[0]))
    skipped = st.sampled_from(["", " ", "\t", "#", "# note", "#a\tb"])
    line = st.sampled_from([data] * 4 + [skipped]).flatmap(lambda x: x)
    lines = draw(st.lists(line, min_size=1, max_size=16))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    known = draw(st.lists(st.sampled_from(pool), unique=True)
                 .map(lambda ids: [x for x in ids if x.split() == [x] and x[0] != "#"]))
    return known, "".join(x + end for x in lines)


def parse_outcome(parse, known, source):
    """The triples as lists, or the error's line and message; and the registry's names."""
    registry = mvne.NodeRegistry()
    for name in known:
        registry.intern(name)
    try:
        result = tuple(np.asarray(x).tolist() for x in parse(source, registry))
    except ParseError as exc:
        result = ("error", exc.line_no, str(exc))
    return result, registry.names


@settings(deadline=None)
@given(raw_edge_lists())
@example(([], "a\tb\t0\n"))
@example(([], "#a\tb\nb\t#a\n"))  # a comment, then a '#' id in the second column
@example((["b"], "a b\r\nb\tc\tnan\r\n"))  # 'c' is never interned
@example(([], "a\tb\tc\td\n"))
def test_parse_edges_agrees_with_per_line_reference(case):
    known, text = case
    assert parse_outcome(parse_edges, known, io.StringIO(text)) == \
        parse_outcome(per_line_parse_edges, known, io.StringIO(text))


def reference_outcome(known, path):
    with open(path, encoding="utf-8") as fh:
        return parse_outcome(per_line_parse_edges, known, fh)


def write_bytes(tmp_path, text, name="view.edges"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw_edge_lists())
@example(([], "a\tb\t0\n"))
@example((["b"], "a b\r\nb\tc\tnan\r\n"))
def test_split_parse_agrees_with_per_line_reference(tmp_path, forks, case):
    """A file parsed in up to 3 processes, the known ids already in the
    registry, gives the per-line parse's triples, registry, error and line."""
    known, text = case
    path = write_bytes(tmp_path, text)
    assert parse_outcome(parse_edges, known, path) == reference_outcome(known, path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Row names, now and then empty, holding whitespace, repeated, a lone
# surrogate (no UTF-8 form) or not a str.
row_names = node_ids | st.sampled_from(["", "a b", " a", "a\t", "\u2028", "\x1c", "a",
                                        "\ud800", "a\udfffb", "a\x00", "\ufeffa", 3, None])


def writable(name):
    return (isinstance(name, str) and name.split() == [name]
            and not any("\ud800" <= c <= "\udfff" or c in REFUSED for c in name))


@settings(deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(row_names, min_size=n, max_size=n),
    hnp.arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([math.nan, math.inf, -math.inf])))))
@example((["a", "a"], np.zeros((2, 3))))
@example((["a", "b c"], np.zeros((2, 3))))
@example((["a", ""], np.zeros((2, 3))))
@example((["a\u200bb", "\x00"], np.zeros((2, 3))))  # unprintable: the first passes
@example((["a", "\ud800"], np.zeros((2, 3))))
@example((["a", 3], np.zeros((2, 3))))
@example((["a", "b"], np.array([[0.0, -0.0, 1.0], [1.0, math.nan, 2.0]])))
def test_embedding_round_trip(case):
    """What write_embedding accepts reads back with the same names and bits;
    anything else raises before the file exists."""
    names, X = case
    legal = (all(writable(name) for name in names) and len(set(names)) == len(names)
             and np.isfinite(X).all())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.txt")
        if not legal:
            with pytest.raises(ValueError, match=r"embedding row \d+: "):
                mvne.write_embedding(path, X, names)
            assert not os.path.exists(path)
            return
        mvne.write_embedding(path, X, names)
        names2, X2 = mvne.read_embedding(path)
    assert names2 == names
    assert X2.shape == X.shape
    assert X2.tobytes() == X.tobytes()


separators = st.sampled_from([" ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                              "\u2028", "\u3000"])
finite_values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
values = finite_values | st.floats().map(repr) | st.sampled_from(
    ["nan", "-inf", "1e999", "1_0", "0x10", "\u0661", "1.", ".5", "+2", "1E5", "x1", '"1"'])


# An id that holds a character the id rule refuses; one that is whitespace
# or a line end splits the id instead.
refused_ids = st.builds("".join, st.tuples(st.sampled_from(["", "a"]), st.sampled_from(REFUSED),
                                           st.sampled_from(["", "b"])))


@st.composite
def embedding_texts(draw):
    """Embedding-file text with odd whitespace and line ends and blank lines:
    well formed three times in five, else now and then with a bad header, a
    bad value, a refused or repeated id, or a field or row count off by one."""
    faulty = draw(st.sampled_from([False] * 3 + [True] * 2))

    def pick(good, bad):
        """One of good, or in a faulty text one of good + bad."""
        return draw(st.sampled_from(good + bad if faulty else good))

    n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    lines = [pick([f"{n} {d}"] * 4 + [f"{n}\t{d} "], ["x 2", f"{n}"])]
    value = pick([finite_values], [values])
    names = draw(st.lists(node_ids, min_size=n + 1, max_size=n + 1, unique=not faulty))
    for name in names[:pick([n] * 8, [n + 1, max(n - 1, 0)])]:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(separators))
        k = pick([d] * 8, [d + 1, max(d - 1, 0)])
        fields = [draw(pick([st.just(name)] * 9, [refused_ids]))]
        fields += draw(st.lists(value, min_size=k, max_size=k))
        lines.append(draw(separators).join(fields))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def read_outcome(path):
    try:
        names, X = mvne.read_embedding(path)
    except ParseError as exc:
        return "error", exc.line_no, str(exc)
    except ValueError as exc:
        return "error", str(exc)
    return names, X.shape, X.tobytes()


@settings(deadline=None)
@given(embedding_texts(), st.integers(1, 64), st.sampled_from([1, 3]))
@example("2 2\na 1 2\n\nb 3 4", 1, 1)
@example("2 2\na 1 2 3\nb 4\n", 64, 1)  # right field total, wrong rows
@example("2 1\na 1 b 2\n", 64, 1)  # right field total, one row short
@example("1 2\na 1 2 3\n", 64, 1)  # a field too many
@example("1 2\na\x1c1\u20282\r\n", 64, 1)  # whitespace that is no line end
@example("3 1\ra 1\r\nb 2\rc 3", 1, 3)  # parts cut at \n only, header ends at \r
@example("2 1\na 1\n\n\n\n\n\nb 2\n", 1, 3)  # a part of blank lines
@example("3 1\n1e5 1\nnan 2\n-0 3\n", 1, 3)  # names that parse as floats
@example("2 1\n#a 1\nb 2\n", 64, 1)  # a name starting with '#'
@example('2 1\na"b 1\n"c" 2\n', 64, 1)  # names holding '"'
@example("3 1\na 1\n" + "\n" * 12 + "b 2\nc 3\n", 1, 3)  # the middle of 3 parts is blank
@example("3 1\na 1\nb 2\nc\x00 3\n", 1, 3)  # a refused id in the last of 3 parts
@example("2 1\n\ufeffa 1\nb\x1b 2\n", 64, 1)  # two refused ids: the first is named
def test_bulk_embedding_reader_agrees_with_per_line(text, read_bytes, parts):
    """The bulk reader, in up to `parts` processes of at least `read_bytes`
    bytes each, agrees with the per-line one, and neither reads back an id
    that write_embedding refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        with mock.patch.object(_parts, "_PART_BYTES", read_bytes), \
                mock.patch.object(_parts, "_CORES", parts):
            bulk = read_outcome(path)
        with mock.patch.object(graph_module, "_read_rows_bulk", side_effect=ValueError):
            per_line = read_outcome(path)
    assert bulk == per_line
    assert bulk[0] == "error" or all(writable(name) for name in bulk[0])


@st.composite
def label_files(draw):
    """Known ids, and label-file text over known and unknown ids."""
    registered = node_ids.filter(lambda s: not s.startswith("#"))
    known = draw(st.lists(registered, min_size=1, max_size=5, unique=True))
    name = st.sampled_from(known) | node_ids
    line = (st.tuples(name, st.text("ab,", max_size=4)).map("\t".join) | name)
    return known, "".join(f"{x}\n" for x in draw(st.lists(line, max_size=8)))


@st.composite
def symmetric_dense(draw):
    """A symmetric matrix on up to 7 nodes with self-loops, empty rows and no entries at all."""
    n = draw(st.integers(0, 7))
    dense = np.zeros((n, n))
    if n:
        node = st.integers(0, n - 1)
        for i, j, w in draw(st.lists(st.tuples(node, node, st.floats(1e-3, 1e3)), max_size=15)):
            dense[i, j] = dense[j, i] = w
    return dense


@settings(deadline=None)
@given(symmetric_dense(), st.integers(0, 2**16))
def test_upper_index_mirror_matches_stable_argsort(dense, pick):
    adj = mvne.SparseAdjacency(sp.csr_array(dense))
    rows, cols = coo_rows(adj), adj.mat.indices
    perm = np.argsort(cols, kind="stable")  # CSR rows are sorted: the transpose's order
    pos = np.flatnonzero(rows <= cols)
    got = adj.upper_index
    for a, b in zip(got, (pos, rows[pos], cols[pos], perm[pos])):
        assert a.dtype == cols.dtype and np.array_equal(a, b)

    off = np.flatnonzero(rows != cols)
    if off.size:
        e = off[pick % off.size]
        i, j = rows[e], cols[e]
        nudged, dropped = dense.copy(), dense.copy()
        nudged[i, j] = np.nextafter(dense[i, j], np.inf)  # one ulp off its mirror
        dropped[i, j] = 0.0  # its mirror stays
        for bad in (nudged, dropped):
            with pytest.raises(ValueError, match="not bit-exactly symmetric"):
                mvne.SparseAdjacency(sp.csr_array(bad)).upper_index


@settings(deadline=None)
@given(label_files())
def test_load_labels_same_for_registry_and_dict(case):
    known, text = case
    registry = mvne.NodeRegistry()
    for name in known:
        registry.intern(name)
    results = []
    for index in (registry, {name: i for i, name in enumerate(known)}):
        try:
            store = mvne.load_labels(io.StringIO(text), index)
        except ParseError as exc:
            results.append(("error", exc.line_no, str(exc)))
            continue
        results.append([sorted(store.label_name(l) for l in store.labels_of(v))
                        for v in range(len(known))])
    assert results[0] == results[1]


@settings(deadline=None)
@given(st.integers(-1, 3), st.integers(-1, 3), st.floats(), st.floats(), st.integers(-2, 2))
@example(2, 5, math.nan, 1e-12, 0)
@example(2, 5, 1e-6, math.inf, 0)
@example(2, 5, 1e-6, 1e-12, -1)
def test_factorize_config_accepts_exactly_finite_valid_values(d, max_iters, rel_tol, epsilon,
                                                              seed):
    valid = (d >= 1 and max_iters >= 1 and math.isfinite(rel_tol) and rel_tol >= 0
             and math.isfinite(epsilon) and epsilon > 0 and seed >= 0)
    try:
        mvne.FactorizeConfig(d=d, max_iters=max_iters, rel_tol=rel_tol, epsilon=epsilon,
                             seed=seed)
    except ValueError:
        assert not valid
        return
    assert valid


@settings(deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2) | st.lists(st.floats(), max_size=3),
       st.integers(0, 2), st.floats(), st.integers(-2, 2))
@example([0.5], 1, math.nan, 0)
@example([0.5, 0.5], 1, 0.01, 0)
@example([0.1, 0.10000001], 1, 0.01, 0)
@example([0.5], 1, 0.01, -1)
def test_eval_protocol_accepts_exactly_finite_valid_values(fractions, repeats, reg, seed):
    valid = (fractions and all(0 < f < 1 for f in fractions) and repeats >= 1
             and math.isfinite(reg) and reg >= 0 and seed >= 0
             and len({f"{f:g}" for f in fractions}) == len(fractions))
    try:
        mvne.EvalProtocol(fractions=fractions, repeats=repeats, reg=reg, seed=seed)
    except ValueError:
        assert not valid
        return
    assert valid


# The scoring of the per-node evaluator, kept as the reference for the
# batched top-k and F1: label sets, one lexsort per node, dict counts.
def per_node_predict(model, x, k):
    if k == 0:
        return frozenset()
    weights, biases = model
    s = weights @ x + biases
    order = np.lexsort((np.arange(len(s)), -s))  # score desc, label id asc
    return frozenset(int(l) for l in order[:k])


def per_label_counts(truth, predicted):
    tp, fp, fn = {}, {}, {}
    for node, t in truth.items():
        p = predicted[node]
        for l in p & t:
            tp[l] = tp.get(l, 0) + 1
        for l in p - t:
            fp[l] = fp.get(l, 0) + 1
        for l in t - p:
            fn[l] = fn.get(l, 0) + 1
    return tp, fp, fn


def per_node_f1(truth, predicted):
    tp, fp, fn = per_label_counts(truth, predicted)
    TP, FP, FN = sum(tp.values()), sum(fp.values()), sum(fn.values())
    micro = 2 * TP / (2 * TP + FP + FN) if 2 * TP + FP + FN else 0.0
    labels = set(tp) | set(fp) | set(fn)
    total = 0.0
    for l in labels:
        total += 2 * tp.get(l, 0) / (2 * tp.get(l, 0) + fp.get(l, 0) + fn.get(l, 0))
    return micro, total / len(labels) if labels else 0.0


@st.composite
def scored_splits(draw):
    """Small-integer scores (many ties), a truth matrix with empty rows, and
    labels with no positive train node, scored at the constant NEG_CONST."""
    m, L = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    scores = draw(hnp.arrays(np.float64, (m, L), elements=st.integers(-2, 2).map(float)))
    absent = draw(hnp.arrays(bool, L))
    truth = draw(hnp.arrays(bool, (m, L)))
    return scores, absent, truth


@settings(deadline=None)
@given(scored_splits())
@example((np.zeros((2, 3)), np.array([False, True, True]),
          np.array([[True, True, False], [False, False, False]])))
def test_batched_top_k_and_f1_agree_with_per_node_reference(case):
    scores, absent, truth = case
    m, L = truth.shape
    # features e_r make row r's scores exact in any summation order
    model = (np.where(absent[:, None], 0.0, scores.T),
             np.where(absent, evaluate_module.NEG_CONST, 0.0))
    X = np.eye(m)
    k = truth.sum(axis=1)
    predicted = evaluate_module._top_k(X @ model[0].T + model[1], k)
    truth_sets = {r: set(np.flatnonzero(truth[r]).tolist()) for r in range(m)}
    expected = {r: set(per_node_predict(model, X[r], int(k[r]))) for r in range(m)}
    assert {r: set(np.flatnonzero(predicted[r]).tolist()) for r in range(m)} == expected
    # Macro-F1 adds per-label F1 in ascending id, the reference in set order
    micro, macro = per_node_f1(truth_sets, expected)
    assert evaluate_module._f1(truth, predicted) == (micro, pytest.approx(macro, rel=1e-15))
    # the dict adapters run the same code
    for r in range(m):
        assert mvne.predict_multilabel(model, X[r], int(k[r])) == expected[r]
    assert mvne.micro_f1(truth_sets, expected) == micro
    assert mvne.macro_f1(truth_sets, expected) == pytest.approx(macro, rel=1e-15)


@settings(deadline=None)
@given(st.lists(st.floats(), max_size=4))
@example([math.nan, 1.0])
@example([math.inf, 1.0])
@example([1e308, 1e308])  # the total overflows
def test_view_weights_are_finite_convex_or_rejected(beta):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weights = mvne.ViewWeights(beta)
    except ValueError:
        assert not (beta and all(0 <= b < 1e300 for b in beta) and sum(beta) > 0)
        return
    assert np.isfinite(weights.beta).all() and (weights.beta >= 0).all()
    assert abs(weights.beta.sum() - 1.0) <= 1e-12


@st.composite
def small_graphs(draw):
    """A graph on up to 8 nodes with self-loops and isolated nodes, and a step count."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.floats(1e-3, 1e3)), min_size=1, max_size=20))
    i, j, w = (np.array(x) for x in zip(*edges))
    extra = draw(st.integers(0, 2))  # isolated nodes past the last one drawn
    adj = mvne.SparseAdjacency.from_undirected(i, j, w, n + extra)
    d, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))
    return adj, mvne.FactorizeConfig(d=d, seed=seed), draw(st.integers(1, 5))


@settings(deadline=None)
@given(small_graphs())
def test_update_step_keeps_invariants(case):
    adj, config, steps = case
    active = adj.degrees() > 0
    fac = mvne.init_factorization(adj.n, config, adj.total_weight)
    obj = mvne.kl_objective(adj, fac, config.epsilon)
    for _ in range(steps):
        fac = mvne.update_step(adj, fac, config)
        assert np.isfinite(fac.mass).all() and (fac.mass >= 0).all()
        assert np.abs(fac.H[active].sum(axis=1) - 1.0).max() <= 1e-9
        assert abs(fac.lam.sum() - adj.total_weight) <= 1e-9 * adj.total_weight
        assert (fac.H[~active] == 1.0 / config.d).all()
        prev, obj = obj, mvne.kl_objective(adj, fac, config.epsilon)
        # Relative to the size of the summed terms: after an update the
        # mass term equals the total weight, and an exact fit has objective 0
        # give or take rounding at that scale (seen: +-1e-13 at weight 1e3).
        assert obj <= prev + 1e-9 * max(abs(prev), adj.total_weight)


@st.composite
def fit_cases(draw):
    """A graph on up to 8 nodes with self-loops and isolated node n, and a fit config."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.floats(1e-3, 1e3)), min_size=1, max_size=20))
    i, j, w = (np.array(x) for x in zip(*edges))
    adj = mvne.SparseAdjacency.from_undirected(i, j, w, n + 1)
    config = mvne.FactorizeConfig(d=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32 - 1)),
                                  rel_tol=draw(st.sampled_from([0.0, 1e-6])),
                                  max_iters=draw(st.integers(1, 300)))
    return adj, config


@settings(deadline=None)
@given(fit_cases())
def test_factorize_keeps_invariants(case):
    adj, config = case
    fac = mvne.factorize(adj, config)
    assert np.isfinite(fac.mass).all() and (fac.mass >= 0).all()
    assert abs(fac.mass.sum() - adj.total_weight) <= 1e-9 * adj.total_weight
    assert (fac.H[adj.degrees() == 0] == 1.0 / config.d).all()
    trace = fac.run.objective_trace
    assert len(trace) == fac.run.iterations + 1
    # A relaxed step is kept only below the current objective; a plain step
    # may rise by rounding, which ends the loop (scale as in the update test).
    for prev, obj in zip(trace, trace[1:]):
        assert obj <= prev + 1e-9 * max(abs(prev), adj.total_weight)


@settings(deadline=None)
@given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**32),
       st.floats(1e-300, 1e300))
def test_init_mass_is_the_total_weight(n, d, seed, total):
    fac = mvne.init_factorization(n, mvne.FactorizeConfig(d=d, seed=seed), total)
    assert abs(fac.mass.sum() - total) <= 1e-13 * total


FLOAT_MAX = float(np.finfo(np.float64).max)


@settings(deadline=None)
@given(st.floats(1e-300, FLOAT_MAX), st.floats(1e-300, FLOAT_MAX))
@example(1e-300, 1e-300)
@example(FLOAT_MAX, 1e-300)  # the largest total: a + 2b rounds to a
@example(FLOAT_MAX / 3, FLOAT_MAX / 3)  # a + 2b passes the largest float
def test_graph_paths_accept_a_total_or_all_raise(a, b):
    """A self-loop x-x of weight a and an edge x-y of weight b, so each path sums a, b, b.

    SparseAdjacency, from_undirected, load_edge_list, build_multiview and
    combine_views (two copies of the view at beta 1/2, raw and normalized)
    all accept the total or all raise ValueError, and none warns.
    """
    text = f"x\tx\t{a!r}\nx\ty\t{b!r}\n"
    registry = mvne.NodeRegistry()
    registry.intern("x"), registry.intern("y")

    def combined(normalize_views):
        view = mvne.SparseAdjacency.from_undirected([0, 0], [0, 1], [a, b], 2)
        graph = mvne.MultiViewGraph(registry, ["v1", "v2"], [view, view])
        return mvne.combine_views(graph, mvne.ViewWeights([0.5, 0.5]), normalize_views)

    paths = [
        lambda: mvne.SparseAdjacency(sp.csr_array(([a, b, b], ([0, 0, 1], [0, 1, 0])),
                                                  shape=(2, 2))),
        lambda: mvne.SparseAdjacency.from_undirected([0, 0], [0, 1], [a, b], 2),
        lambda: mvne.load_edge_list(io.StringIO(text))[0],
        lambda: mvne.build_multiview([("v", io.StringIO(text))]).views[0],
        lambda: combined(False),
        lambda: combined(True),
    ]
    totals = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            try:
                totals.append(path().total_weight)
            except ValueError as exc:
                assert "edge weights sum to inf, which is not finite" in str(exc)
                totals.append(None)
    if totals[0] is None:
        assert totals == [None] * len(paths)
    else:
        assert math.isfinite(totals[0]) and totals[:5] == [totals[0]] * 5
        assert totals[5] == pytest.approx(1.0, rel=1e-12)


@st.composite
def scaled_fits(draw):
    """A graph builder, from fit_cases or the raw combine of two views: the
    graph with every weight times c; a config; and k for c = 10^k."""
    k = draw(st.integers(-300, 300))
    if draw(st.booleans()):
        adj, config = draw(fit_cases())
        _, i, j, _ = adj.upper_index
        w = adj.mat.data[adj.upper_index.pos]
        return (lambda c: mvne.SparseAdjacency.from_undirected(i, j, w * c, adj.n),
                dataclasses.replace(config, rel_tol=1e-6), k)
    graph = mvne.build_multiview([("v1", io.StringIO("a\tb\t1\nb\tc\t2\nc\ta\t1\n")),
                                  ("v2", io.StringIO("c\td\t3\nd\ta\t0.5\na\ta\t2\n"))])

    def combined(c):
        views = [mvne.SparseAdjacency(view.mat * c) for view in graph.views]
        return mvne.combine_views(mvne.MultiViewGraph(graph.registry, graph.view_names, views),
                                  mvne.ViewWeights([0.5, 0.5]), normalize_views=False)

    return combined, mvne.FactorizeConfig(d=draw(st.integers(1, 4)),
                                          seed=draw(st.integers(0, 2**16))), k


@settings(deadline=None)
@given(scaled_fits())
@example((lambda c: mvne.SparseAdjacency.from_undirected([0], [1], [c], 2),
          mvne.FactorizeConfig(d=2), -300))
def test_factorize_does_not_depend_on_the_unit_of_the_weights(case):
    """The fit of c W, c = 10^k, has the H of the c = 1 fit within 1e-12,
    as many iterations and c times its objective; or it raises the overflow.

    c W rounds each weight, and on these small graphs an ulp of input alone
    moves H by up to 4e-10 (and decides where an exact fit's rounding stops
    it), so the c = 1 fit is that of the same rounded weights, brought back
    by the power of two nearest 1 / c, which scales them exactly.
    """
    scaled, config, k = case
    c = 10.0 ** k
    back = 2.0 ** -round(math.log2(c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adj = scaled(c)
        one = mvne.factorize(mvne.SparseAdjacency(adj.mat * back), config)
        try:
            fit = mvne.factorize(adj, config)
        except ValueError as exc:
            assert "overflows float64" in str(exc)
            return
    assert np.abs(fit.H - one.H).max() <= 1e-12
    assert fit.run.iterations == one.run.iterations
    assert fit.run.objective * back == pytest.approx(one.run.objective, rel=1e-12)
