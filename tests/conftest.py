import io

import numpy as np
import pytest

import mvne
from mvne import _parts


def make_adjacency(text):
    """Edge list from a literal string; returns (adjacency, registry)."""
    return mvne.load_edge_list(io.StringIO(text))


def coo_rows(adj):
    """Row index of every stored entry, in CSR data order."""
    return np.repeat(np.arange(adj.n), np.diff(adj.indptr))


def per_entry_edge_list(adj, reg):
    """The writer's format, one f-string per entry of the adjacency's upper_index."""
    pos, rows, cols, _ = adj.upper_index
    return "".join(f"{reg.name_of(int(i))}\t{reg.name_of(int(j))}\t{float(adj.values[p])!r}\n"
                   for p, i, j in zip(pos, rows, cols))


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


@pytest.fixture
def forks(monkeypatch):
    """Split every range into up to 3 parts of at least one value (an edge
    list: of one byte); counts the forks."""
    monkeypatch.setattr(_parts, "_CORES", 3)
    monkeypatch.setattr(_parts, "_PART_VALUES", 1)
    monkeypatch.setattr(mvne.graph, "_LINE_BYTES", 1)
    made = []
    fork = _parts._fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(_parts, "_fork", counted)
    return made
