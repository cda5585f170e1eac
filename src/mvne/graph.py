"""Sparse multi-view graph data model and text-format ingestion.

Graphs are undirected and weighted. Every view of a multi-view graph is
indexed against one shared node registry, so embeddings computed on any
combination of views line up row-by-row with the original identifiers.

File formats
------------
Edge list   : ``src<TAB>dst[<TAB>weight]``, one edge per line, ``#`` comments.
Label file  : ``node<TAB>label1,label2,...``; every node must be known.
View manifest: ``view_name<TAB>path``, one view per line.
Embedding   : an ``n d`` header, then one ``name v1 ... vd`` line per node.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _parts

# The most weight reprs write_edge_list's memo holds before it is emptied.
_MEMO_ENTRIES = 16384
_TINY = float(np.finfo(np.float64).tiny)


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _name_fault(name):
    """Why ``name`` cannot be a node name, or None; whitespace separates embedding-file
    fields, and a byte-order mark or C0 control character would be an invisible part
    of an id (a BOM read as part of a file's first id)."""
    if not isinstance(name, str):
        return "is not a str"
    if name.split() != [name]:
        return "is empty or holds whitespace"
    if not name.isprintable():  # the cheap test passes almost every name
        if "\ufeff" in name:
            return "holds a byte-order mark (U+FEFF)"
        if min(name) < " ":
            return "holds a control character"
    if not name.isascii():
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            return "does not encode as UTF-8"
    return None


class NodeRegistry:
    """Bijective map between string node identifiers and dense indices.

    Indices are assigned in first-appearance order, which makes every run
    reproducible from identical inputs. The id rule: an identifier passes
    _name_fault and does not start with ``#``, which would make an edge-list
    line a comment, so every writer can write every registered id.
    """

    def __init__(self):
        self._index = {}
        self._names = []

    def intern(self, name: str) -> int:
        """Return the index for ``name``, registering it if unseen.

        Raises ValueError, naming it, for an unseen ``name`` the id rule refuses.
        """
        idx = self._index.get(name)
        if idx is None:
            fault = _name_fault(name) or (name[0] == "#" and "starts with '#'")
            if fault:
                raise ValueError(f"node identifier {name!r} {fault}")
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def get(self, name: str):
        """Return the index for ``name``, or None if it is unknown."""
        return self._index.get(name)

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> list:
        return list(self._names)

    def _truncate(self, size: int) -> None:
        for name in self._names[size:]:
            del self._index[name]
        del self._names[size:]


# The stored entries (rows[k], cols[k]) with i <= j: pos[k] is the CSR data
# position of each and mirror[k] that of its transpose (j, i).
UpperIndex = namedtuple("UpperIndex", "pos rows cols mirror")


class SparseAdjacency:
    """Symmetric weighted adjacency of one view in CSR form.

    Each undirected edge {i, j} is stored in both directions with the same
    positive weight; a self-loop is a single diagonal entry. ``mat`` is the
    one handle on the canonical CSR arrays, duplicates summed and indices
    sorted. ``total_weight`` is the sum over all stored entries; a NaN or
    overflowing total, and a nonzero one below the smallest normal float,
    raise ValueError, with no numpy warning.
    """

    def __init__(self, mat: sp.csr_array):
        mat = sp.csr_array(mat)
        mat.sum_duplicates()
        mat.sort_indices()
        self.mat = mat
        with np.errstate(over="ignore", invalid="ignore"):
            self.total_weight = float(mat.data.sum()) if mat.nnz else 0.0
        if not math.isfinite(self.total_weight):
            raise ValueError(f"edge weights sum to {self.total_weight}, which is not finite")
        if 0 < self.total_weight < _TINY:
            raise ValueError(f"edge weights sum to {self.total_weight!r}, below the smallest "
                             f"normal float {_TINY!r}")
        self._upper_index = None

    @classmethod
    def from_undirected(cls, rows, cols, weights, n: int) -> "SparseAdjacency":
        """Build from one canonical triple per undirected edge occurrence.

        Duplicates are summed once per undirected edge and the summed value
        is mirrored to both directions, so symmetry is bit-exact.
        """
        itype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        i = np.asarray(rows, dtype=itype)
        j = np.asarray(cols, dtype=itype)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        upper = sp.coo_array((np.asarray(weights, dtype=np.float64), (lo, hi)),
                             shape=(n, n)).tocsr()
        return cls(upper + sp.triu(upper, k=1).T)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    @property
    def upper_index(self) -> UpperIndex:
        """The stored entries with i <= j, in CSR data order (cached).

        Arrays in the CSR's index dtype, mirrors read off an O(nnz) CSR transpose.
        Raises ValueError unless structure and values are bit-exactly symmetric.
        """
        if self._upper_index is None:
            indptr, cols, values = self.mat.indptr, self.mat.indices, self.mat.data
            rows = np.repeat(np.arange(self.n, dtype=cols.dtype), np.diff(indptr))
            # Transposing a CSR of positions gives each entry's mirror when the matrix is symmetric.
            tr = sp.csr_array((np.arange(self.nnz, dtype=cols.dtype), cols, indptr),
                              shape=self.mat.shape).T.tocsr()
            perm = tr.data
            if not (np.array_equal(tr.indptr, indptr) and np.array_equal(tr.indices, cols)
                    and np.array_equal(values[perm], values)):
                raise ValueError("adjacency is not bit-exactly symmetric")
            pos = np.flatnonzero(rows <= cols).astype(cols.dtype)
            self._upper_index = UpperIndex(pos, rows[pos], cols[pos], perm[pos])
        return self._upper_index

    def degrees(self):
        """Number of stored entries per row (self-loop counts once)."""
        return np.diff(self.mat.indptr)

    def active_nodes(self):
        """Indices of nodes with degree > 0 in this view."""
        return np.flatnonzero(self.degrees() > 0)

    def edge_count(self) -> int:
        """Undirected edge count: the stored entries with i <= j."""
        return self.upper_index.pos.size


@dataclass
class MultiViewGraph:
    """Global node registry plus one distinctly named, registry-sized adjacency per view."""

    registry: NodeRegistry
    view_names: list
    views: list  # list[SparseAdjacency]

    def __post_init__(self):
        names, n = self.view_names, len(self.registry)
        if not self.views:
            raise ValueError("empty view list: a multi-view graph needs at least one view")
        if len(names) != len(self.views):
            raise ValueError(f"got {len(names)} view names for {len(self.views)} views")
        _refuse_repeated_view_names(names)
        for name, adj in zip(names, self.views):
            if adj.n != n:
                raise ValueError(f"view {name!r} has {adj.n} nodes; the registry has {n}")

    @property
    def k(self) -> int:
        return len(self.views)

    @property
    def n(self) -> int:
        return len(self.registry)


def _refuse_repeated_view_names(names):
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"view name {name!r} is repeated")


class LabelStore:
    """Multi-label assignments per node, with a string-label vocabulary.

    Label ids are assigned in first-appearance order. Nodes absent from the
    store are unlabeled.
    """

    def __init__(self):
        self._vocab = {}
        self._vocab_names = []
        self._labels = {}  # node index -> set[int]

    def label_id(self, name: str) -> int:
        lid = self._vocab.get(name)
        if lid is None:
            lid = len(self._vocab_names)
            self._vocab[name] = lid
            self._vocab_names.append(name)
        return lid

    def add(self, node: int, label_names):
        ids = {self.label_id(x) for x in label_names}
        self._labels.setdefault(node, set()).update(ids)

    def labels_of(self, node: int) -> frozenset:
        return frozenset(self._labels.get(node, ()))

    def labeled_nodes(self):
        """Sorted indices of nodes with at least one label."""
        return sorted(i for i, s in self._labels.items() if s)

    @property
    def num_labels(self) -> int:
        return len(self._vocab_names)

    def label_name(self, lid: int) -> str:
        return self._vocab_names[lid]


def _iter_data_lines(source):
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


@contextmanager
def _opened(source, mode="r"):
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def parse_edges(source, registry: NodeRegistry):
    """Parse an edge list into one COO triple per data line, as numpy arrays.

    Returns integer row and column ids and float64 weights. The triples are
    direction-agnostic; unseen ids extend the registry in first-appearance
    order. _parse_lines defines legal input and names the line of each
    ParseError. A regular file given as a path is read by ``_parts.read``,
    so a large one is parsed by up to one process per usable core; the ids,
    triples and errors are those of the one-part parse. A stream and any
    other path take the one-part loop.
    """
    if isinstance(source, (str, os.PathLike)):
        info = os.stat(source)
        if stat.S_ISREG(info.st_mode):
            parsed = _parse_parts(source, info.st_size, registry)
            if parsed is not None:
                return parsed
    with _opened(source) as stream:
        return _parse_lines(stream, registry)


def _parse_lines(stream, registry: NodeRegistry):
    """The one loop that defines legal edge-list input."""
    index = registry._index
    rows, cols, weights = [], [], []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            parts = line.split()
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"bad weight {parts[2]!r}", line_no) from None
            if not 0.0 < w < math.inf:
                raise ParseError(f"non-positive weight {parts[2]!r}" if math.isfinite(w)
                                 else f"weight {parts[2]!r} is not finite", line_no)
        elif len(parts) == 2:
            w = 1.0
        else:
            raise ParseError(f"expected 2 or 3 fields, got {len(parts)}", line_no)
        i, j = index.get(parts[0]), index.get(parts[1])
        if i is None or j is None:
            try:
                i, j = registry.intern(parts[0]), registry.intern(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
        rows.append(i); cols.append(j); weights.append(w)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(weights, dtype=np.float64))


def _parse_parts(path, size: int, registry: NodeRegistry):
    """_parse_lines over ranges of whole lines of path, one process each, or None.

    None when a part raises ValueError or its process fails: the registry
    is then as it was, and the one-part parse names the bad line. Each child
    interns into its forked copy of the registry, which holds ids
    0..base - 1, and sends back the ids it added, names[base:], in
    first-appearance order. Interning those in part order after part 0
    (this process, the real registry) adds each name where the one-part
    parse would, since a name an earlier part added is already there; one
    lookup array then moves the child's ids >= base to them.
    """
    base = len(registry)
    try:
        parts = _parts.read(path, 0, size, lambda text: (
            _parse_lines(text, registry), registry._names[base:]))
        parsed = [parts[0][0]]
        for (rows, cols, weights), added in parts[1:]:
            if added:
                lookup = np.arange(base + len(added))
                lookup[base:] = [registry.intern(name) for name in added]
                rows, cols = lookup[rows], lookup[cols]
            parsed.append((rows, cols, weights))
    except (ValueError, ChildProcessError):
        registry._truncate(base)
        return None
    except BaseException:
        registry._truncate(base)
        raise
    return tuple(np.concatenate(arrays) for arrays in zip(*parsed))


def load_edge_list(source, registry: NodeRegistry | None = None):
    """Load one edge list into a symmetric adjacency.

    ``source`` is a path or an open text stream, parsed by parse_edges.
    Duplicate edges sum their weights; self-loops are retained as single
    diagonal entries. Returns (SparseAdjacency, registry).
    """
    if registry is None:
        registry = NodeRegistry()
    rows, cols, weights = parse_edges(source, registry)
    adj = SparseAdjacency.from_undirected(rows, cols, weights, len(registry))
    return adj, registry


def write_edge_list(adj: SparseAdjacency, registry, sink):
    """Write one line per entry of ``upper_index`` so a reload round-trips.

    ``registry`` names the nodes: a NodeRegistry, or its ``names`` list.
    A non-symmetric adjacency raises ValueError before anything is written.
    Each weight's repr is made once, in a memo keyed by its float64 bits (0.0
    and -0.0 compare equal but print apart) and emptied past _MEMO_ENTRIES.
    An edge list above the split size (``_parts.write``) is formatted by up
    to one process per usable core, each with its own copy of the memo; the
    text is the same.
    """
    pos, rows, cols, _ = adj.upper_index
    names = registry.names if isinstance(registry, NodeRegistry) else registry
    reprs = {}

    def entries(lo, hi):
        vals = adj.mat.data[pos[lo:hi]]
        if len(reprs) > _MEMO_ENTRIES:
            reprs.clear()
        return "".join([f"{names[i]}\t{names[j]}\t{reprs.get(b) or reprs.setdefault(b, repr(x))}\n"
                        for i, j, b, x in zip(rows[lo:hi].tolist(), cols[lo:hi].tolist(),
                                              vals.view(np.int64).tolist(), vals.tolist())])

    with _opened(sink, "w") as stream:
        _parts.write(stream, pos.size, pos.size, entries)


def load_labels(source, index) -> LabelStore:
    """Load a multi-label file keyed by node identifiers.

    ``index`` maps each known identifier to its row through ``index.get``: a
    NodeRegistry, or a dict such as the embedding's name -> row map.
    Repeated lines for one node union their label sets. Unknown identifiers
    are collected and rejected together, in one ParseError that gives their
    count, the first 10 of them and the line of the first.
    """
    store = LabelStore()
    missing = []  # (line, identifier)
    with _opened(source) as stream:
        for line_no, line in _iter_data_lines(stream):
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError("expected `node<TAB>label1,label2,...`", line_no)
            name, labels = parts
            row = index.get(name)
            if row is None:
                missing.append((line_no, name))
                continue
            store.add(row, [x.strip() for x in labels.split(",") if x.strip()])
    if missing:
        shown = ", ".join(repr(name) for _, name in missing[:10])
        raise ParseError(f"{len(missing)} unknown node identifier(s): {shown}", missing[0][0])
    return store


def build_multiview(manifest) -> MultiViewGraph:
    """Assemble a multi-view graph from (view_name, edge-list source) pairs.

    All views are indexed against one shared registry (the union of node
    identifiers across views), in first-appearance order over the views in
    manifest order. Each source is parsed by parse_edges. An adjacency's
    ValueError names its view; a repeated view name raises ValueError before
    any source is parsed.
    """
    manifest = list(manifest)
    names = [name for name, _ in manifest]
    _refuse_repeated_view_names(names)
    registry = NodeRegistry()
    parsed = [parse_edges(source, registry) for _, source in manifest]
    views = []
    for (name, source), triples in zip(manifest, parsed):
        try:
            views.append(SparseAdjacency.from_undirected(*triples, len(registry)))
        except ValueError as exc:
            raise ValueError(f"view {name!r} ({source}): {exc}") from exc
    return MultiViewGraph(registry=registry, view_names=names, views=views)


def read_manifest(path):
    """Read a `view_name<TAB>path` manifest; paths resolved against its dir.

    A view name that is not printable (a control character, or a BOM left by
    the editor that saved the file) raises ParseError naming the line.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in _iter_data_lines(fh):
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected `view_name<TAB>path`", line_no)
            name, p = parts
            if not name.isprintable():
                raise ParseError(f"view name {name!r} holds an unprintable character", line_no)
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            entries.append((name, p))
    return entries


def write_embedding(path, X: np.ndarray, names) -> None:
    """Write `n d` then one `name v1 ... vd` line per node (17 sig. digits).

    ``X`` is a 2-D real (bool, integer or float) array and ``names`` a
    sequence of its n row names. Before the file is opened, ValueError is
    raised for any other X, a count other than n, and, naming the first bad
    row, for what _embedding_fault finds: read_embedding could not read
    these back. Rows are formatted by ``_parts.write``, one `%` operation
    per row; the bytes do not depend on its parts.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.dtype.kind not in "biuf":
        raise ValueError(f"embedding values must be a 2-D real array, not {X.ndim}-D {X.dtype}")
    n, d = X.shape
    if len(names) != n:
        raise ValueError(f"got {len(names)} names for {n} embedding rows")
    fault = _embedding_fault(names, X)
    if fault:
        raise ValueError("embedding row %d: %s" % fault)
    line = "%s " + " ".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        _parts.write(fh, n, n * d, lambda lo, hi: "".join(
            [line % (name, *row) for name, row in zip(names[lo:hi], X[lo:hi].tolist())]))


def _embedding_fault(names, X):
    """(row, reason) for the first fault of a legal embedding, or None: the one
    rule that write_embedding and read_embedding both apply."""
    try:
        # the rule holds for every name if it holds for their join and none is empty
        plain = all(names) and _name_fault("".join(names)) is None
    except TypeError:  # a name that is not a str
        plain = False
    if not plain:
        for r, name in enumerate(names):
            fault = _name_fault(name)
            if fault:
                return r, f"node name {name!r} {fault}"
    if len(set(names)) < len(names):
        first = {}
        r = next(r for r, name in enumerate(names) if first.setdefault(name, r) != r)
        return r, f"repeated node {names[r]!r}"
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        return r, f"node {names[r]!r} has a NaN or infinite value"
    return None


def read_embedding(path):
    """Read the write_embedding() format; returns (names, X).

    The per-line reader _read_rows defines the legal input: a bad header,
    field or row count, a value that is not a float, and what
    _embedding_fault finds (a refused or repeated name, a NaN or infinite
    value) raise ParseError naming the file line. The rows are read in bulk
    (``_parts.read``, so a large file by up to one process per usable core);
    a file that read cannot vouch for, or whose rows hold a fault, is read
    again line by line.
    """
    try:
        return _read_rows_bulk(path)
    except (ValueError, ChildProcessError):
        return _read_rows(path)


def _read_header(line: str):
    header = line.split()
    if len(header) != 2 or not all(h.isdecimal() for h in header):
        raise ParseError("embedding file: bad header line, expected `n d`", 1)
    return int(header[0]), int(header[1])


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        n, d = _read_header(fh.readline())
        names, rows, lines = [], [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise ParseError(f"embedding file: expected {d + 1} fields per row", line_no)
            names.append(parts[0])
            lines.append(line_no)
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"embedding file: {exc}", line_no) from None
    if len(names) != n:
        raise ParseError(f"embedding file: header promised {n} rows, found {len(names)}", 1)
    X = np.asarray(rows, dtype=np.float64).reshape(n, d)
    fault = _embedding_fault(names, X)
    if fault:
        raise ParseError(f"embedding file: {fault[1]}", lines[fault[0]])
    return names, X


def _read_rows_bulk(path):
    """Names and values as _read_rows gives them, or ValueError.

    np.loadtxt splits on the whitespace str.split splits on, skips blank
    lines and refuses ragged rows, so parts of d + 1 columns, n rows and n
    names in all are the rows _read_rows reads.
    """
    # newline="": lines end as in text mode, but the header keeps its line
    # end, so its UTF-8 length is where the data starts
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.readline()
        n, d = _read_header(head)
        start, size = len(head.encode("utf-8")), os.fstat(fh.fileno()).st_size
    parts = _parts.read(path, start, size, _read_span)
    blocks = [X for _, X in parts if len(X)]
    if not blocks or any(X.shape[1] != d + 1 for X in blocks):
        raise ValueError("not d + 1 fields per row")
    names = [name for names, _ in parts for name in names]
    X = np.concatenate([X[:, 1:] for X in blocks])
    if len(names) != n or X.shape[0] != n or _embedding_fault(names, X):
        raise ValueError("not n legal rows")
    return names, X


def _read_span(text):
    """(names, rows of all fields with the name read as 0) of the embedding lines in text."""
    names = []
    with warnings.catch_warnings():
        # loadtxt warns on a part of blank lines, and reads it as 0 rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        X = np.loadtxt(text, converters={0: lambda name: names.append(name) or 0.0},
                       comments=None, ndmin=2)
    return names, X

def view_stats(graph: MultiViewGraph):
    """Per-view node/edge counts and a degree-distribution summary."""
    out = []
    for name, adj in zip(graph.view_names, graph.views):
        deg = adj.degrees()
        active = deg[deg > 0]
        some = active if active.size else np.zeros(1, dtype=deg.dtype)  # an empty view reads 0
        out.append({"view": name, "nodes": int(active.size), "edges": adj.edge_count(),
                    "total_weight": adj.total_weight,
                    "degree": {"min": int(some.min()), "max": int(some.max()),
                               "mean": float(some.mean()), "median": float(np.median(some))}})
    return out
