"""Property tests: any legal input round-trips through the text formats."""

import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mvne
from mvne.graph import ParseError

# Non-empty ids without whitespace, drawn often from the formats' own
# syntax characters; surrogates cannot be written as UTF-8.
node_ids = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from("#,=.-"),
                   min_size=1, max_size=6).filter(lambda s: s.split() == [s])
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
            zip(adj.coo_rows.tolist(), adj.indices.tolist(), adj.values.tolist())}


def write(adj, reg):
    buf = io.StringIO()
    mvne.write_edge_list(adj, reg, buf)
    return buf.getvalue()


@settings(deadline=None)
@given(edge_lists())
@example("c\t#a\nd\t#a\n")  # used to write the line "#a\td\t1.0", a comment on reload
def test_edge_list_round_trip(text):
    try:
        adj, reg = mvne.load_edge_list(io.StringIO(text))
    except ParseError as exc:
        # the one refused id: a leading '#' would make a written line a comment
        assert "node identifier '#" in str(exc)
        return
    adj.upper  # raises unless structure and values are bit-exactly symmetric
    first = write(adj, reg)

    again, reg2 = mvne.load_edge_list(io.StringIO(first))
    again.upper
    assert triples(again, reg2) == triples(adj, reg)

    # Line order follows registry order, so the byte-level check reloads
    # into the registry the first write came from.
    n = len(reg)
    same, _ = mvne.load_edge_list(io.StringIO(first), reg)
    assert len(reg) == n
    assert write(same, reg) == first


@settings(deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(node_ids, min_size=n, max_size=n),
    hnp.arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)))))
def test_embedding_round_trip(case):
    names, X = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.txt")
        mvne.write_embedding(path, X, names)
        names2, X2 = mvne.read_embedding(path)
    assert names2 == names
    assert X2.shape == X.shape
    assert np.array_equal(X2, X)
