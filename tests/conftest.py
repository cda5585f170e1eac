import io

import numpy as np
import pytest

import mvne


def make_adjacency(text):
    """Edge list from a literal string; returns (adjacency, registry)."""
    return mvne.load_edge_list(io.StringIO(text))


def per_entry_edge_list(adj, reg):
    """The writer's format, one f-string per stored upper entry."""
    rows, cols, vals = adj.coo_rows, adj.indices, adj.values
    return "".join(f"{reg.name_of(int(rows[e]))}\t{reg.name_of(int(cols[e]))}\t{float(vals[e])!r}\n"
                   for e in range(adj.nnz) if rows[e] <= cols[e])


def argmax_purity(H, z, c):
    """Majority-true-label purity of the argmax community assignment."""
    km = np.asarray(H).argmax(axis=1)
    total = 0
    for k in range(H.shape[1]):
        mask = km == k
        if mask.sum():
            total += np.bincount(z[mask], minlength=c).max()
    return total / len(z)


def community_array(labels, n):
    """Single-label community ids as an int array (testkit datasets)."""
    return np.array([next(iter(labels.labels_of(v))) for v in range(n)])


@pytest.fixture
def triangle():
    adj, reg = make_adjacency("a\tb\nb\tc\nc\ta\n")
    return adj, reg
