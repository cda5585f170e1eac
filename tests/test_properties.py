"""Property tests: any legal input round-trips through the text formats, and
the ratio update keeps its invariants on any small graph."""

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
@example("0\t#'\n")  # the error message quotes this id with double quotes
def test_edge_list_round_trip(text):
    try:
        adj, reg = mvne.load_edge_list(io.StringIO(text))
    except ParseError as exc:
        # the one refused id: a leading '#' would make a written line a comment
        assert "node identifier '#" in str(exc) or 'node identifier "#' in str(exc)
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
    isolated = fac.H[~active]
    obj = mvne.kl_objective(adj, fac, config.epsilon)
    for _ in range(steps):
        fac = mvne.update_step(adj, fac, config)
        assert np.isfinite(fac.mass).all() and (fac.mass >= 0).all()
        assert np.abs(fac.H[active].sum(axis=1) - 1.0).max() <= 1e-9
        assert abs(fac.lam.sum() - adj.total_weight) <= 1e-9 * adj.total_weight
        assert np.array_equal(fac.H[~active], isolated)
        prev, obj = obj, mvne.kl_objective(adj, fac, config.epsilon)
        # Relative to the size of the summed terms: after an update the
        # mass term equals the total weight, and an exact fit has objective 0
        # give or take rounding at that scale (seen: +-1e-13 at weight 1e3).
        assert obj <= prev + 1e-9 * max(abs(prev), adj.total_weight)
