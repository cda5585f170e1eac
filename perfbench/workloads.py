"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and an output directory and writes the files
the program reads (edge lists, a view manifest, a label file). The same
seed gives byte-identical files. Each returns an ``Inputs`` record with the
exact counts of what it wrote, so the benchmark can check the program's
outputs against them.

``large_fit`` and ``ingest_io`` use the planted-partition writer below, which
holds O(|E|) memory. The library's ``generate_multiview_sbm`` enumerates all
n^2/2 node pairs, about 4.8 GB at n = 20k, so it serves only the small
``sbm_converge`` shape (through ``mvne synth``).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

# Shapes of the generated workloads (see perfbench/README.md).
LARGE_FIT_NODES = 20_000
LARGE_FIT_COMMUNITIES = 16
LARGE_FIT_EDGES = 400_000       # distinct undirected edges, 800k stored entries
LARGE_FIT_P_WITHIN = 0.95       # share of edges inside a block
INGEST_NODES = 100_000
INGEST_SHARES = (0.7, 0.3)      # block sizes as shares of the nodes
INGEST_VIEWS = 2
INGEST_LINES_PER_VIEW = 250_000
INGEST_P_WITHIN = 0.8
INGEST_DUP_RATE = 0.10          # lines that repeat an earlier line of the view
INGEST_LOOP_RATE = 0.02         # self-loop lines
LABELED = 1_000                 # labeled nodes per generated dataset


@dataclass
class Inputs:
    """Paths and exact sizes of one generated dataset."""

    manifest: str
    labels: str
    node_ids: list                 # every id that appears in some edge line
    edge_lines: int                # data lines over all views
    view_edges: list               # distinct undirected edges per view (loops count once)
    stored_entries: int            # nonzeros of the combined view
    upper_entries: int             # stored entries with i <= j (one per edge)
    communities: int               # planted blocks, one label each

    @property
    def nodes(self) -> int:
        return len(self.node_ids)


class Partition:
    """Planted partition of n nodes into blocks of the given shares, O(n) tables."""

    def __init__(self, rng, n: int, shares):
        bounds = np.round(np.cumsum(shares) * n).astype(np.int64)
        self.n = n
        self.comm = rng.permutation(np.searchsorted(bounds, np.arange(n), side="right"))
        self.order = np.argsort(self.comm, kind="stable")
        self.sizes = np.bincount(self.comm, minlength=len(shares))
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])

    def sample(self, rng, count: int, p_within: float, first=None):
        """``count`` node pairs; with probability p_within both ends share a block.

        ``first`` fixes a prefix of the first endpoints.
        """
        i = rng.integers(0, self.n, size=count)
        if first is not None:
            i[:first.size] = first
        j = rng.integers(0, self.n, size=count)
        within = rng.random(count) < p_within
        c = self.comm[i[within]]
        offset = (rng.random(c.size) * self.sizes[c]).astype(np.int64)
        j[within] = self.order[self.starts[c] + offset]
        return i, j

    def distinct(self, rng, m: int, p_within: float):
        """m distinct non-loop undirected pairs in first-sampled order."""
        keys = np.empty(0, dtype=np.int64)
        while keys.size < m:
            need = m - keys.size
            i, j = self.sample(rng, need + need // 8 + 1024, p_within)
            ok = i != j
            lo, hi = np.minimum(i[ok], j[ok]), np.maximum(i[ok], j[ok])
            keys = np.concatenate([keys, lo * self.n + hi])
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)]
        keys = keys[:m]
        return keys // self.n, keys % self.n


def _edge_key(i, j, n):
    return np.minimum(i, j) * n + np.maximum(i, j)


def _write_edges(path, names, src, dst, milli):
    """One ``src<TAB>dst<TAB>weight`` line per pair; weights in thousandths."""
    lines = [f"{names[a]}\t{names[b]}\t{w // 1000}.{w % 1000:03d}\n"
             for a, b, w in zip(src.tolist(), dst.tolist(), milli.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _write_views(out_dir, names, views, part, labeled):
    """Write the per-view edge files, the manifest and the label file."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "views.manifest")
    with open(manifest, "w", encoding="utf-8") as mf:
        for k, (src, dst, milli) in enumerate(views):
            fname = f"view{k}.edges"
            _write_edges(os.path.join(out_dir, fname), names, src, dst, milli)
            mf.write(f"view{k}\t{fname}\n")
    labels = os.path.join(out_dir, "labels.tsv")
    with open(labels, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{names[v]}\tc{part.comm[v]}\n" for v in labeled.tolist()))
    return manifest, labels


def _inputs(manifest, labels, names, views, communities):
    n = len(names)
    keys = [_edge_key(src, dst, n) for src, dst, _ in views]
    view_edges = [int(np.unique(k).size) for k in keys]
    union = np.unique(np.concatenate(keys))
    loops = int(np.count_nonzero(union // n == union % n))
    seen = np.unique(np.concatenate([np.concatenate([s, d]) for s, d, _ in views]))
    return Inputs(
        manifest=manifest, labels=labels,
        node_ids=[names[v] for v in seen.tolist()],
        edge_lines=sum(src.size for src, _, _ in views),
        view_edges=view_edges,
        stored_entries=2 * (union.size - loops) + loops,
        upper_entries=int(union.size),
        communities=communities,
    )


def _labeled_subset(rng, part, count):
    """``count`` nodes, each block represented in proportion to its size (within 1).

    Nodes are ranked by block, in random order inside a block, and taken at
    even steps, so the label mix of the subset does not vary with the seed.
    """
    count = min(count, part.n)
    ranked = np.lexsort((rng.random(part.n), part.comm))
    return np.sort(ranked[np.arange(count) * part.n // count])


def write_large_fit(seed: int, out_dir: str) -> Inputs:
    """One weighted view of LARGE_FIT_EDGES distinct undirected non-loop edges.

    The blocks are equal and strong enough that ten iterations separate
    them, so F1 sits near its ceiling and is steady across seeds.
    """
    n, communities, edges = LARGE_FIT_NODES, LARGE_FIT_COMMUNITIES, LARGE_FIT_EDGES
    rng = np.random.default_rng([seed, 1])
    part = Partition(rng, n, [1.0 / communities] * communities)
    lo, hi = part.distinct(rng, edges, LARGE_FIT_P_WITHIN)
    swap = rng.random(edges) < 0.5
    src, dst = np.where(swap, hi, lo), np.where(swap, lo, hi)
    milli = rng.integers(250, 4001, size=edges)
    names = [str(v) for v in range(n)]
    views = [(src, dst, milli)]
    manifest, labels = _write_views(out_dir, names, views, part,
                                    _labeled_subset(rng, part, LABELED))
    return _inputs(manifest, labels, names, views, communities)


def _mixed_width_ids(rng, n):
    """Unique ids of 1 to ~22 characters: hex, optionally behind a prefix."""
    prefixes = ("", "u", "user-", "org.example.node/")
    which = rng.integers(0, len(prefixes), size=n)
    return [f"{prefixes[p]}{v:x}" for v, p in enumerate(which.tolist())]


def write_ingest_io(seed: int, out_dir: str, n: int = INGEST_NODES,
                    lines_per_view: int = INGEST_LINES_PER_VIEW) -> Inputs:
    """INGEST_VIEWS weighted views whose lines repeat edges and hold self-loops.

    Per view, about INGEST_DUP_RATE of the lines repeat an earlier line of
    that view (half of them reversed) and about INGEST_LOOP_RATE are
    self-loops; the rest are planted-partition pairs. The first view's first
    n lines start at every node once, so all n ids appear. ``n`` and
    ``lines_per_view`` are parameters only so that a test can write a small
    instance.

    Two iterations leave the embedding without label signal, so a classifier
    on it predicts from the label prior. With unequal blocks that is always
    the larger block, which keeps chance-level F1 steady across seeds.
    """
    if lines_per_view <= n:
        raise ValueError("need more lines per view than nodes")
    rng = np.random.default_rng([seed, 2])
    part = Partition(rng, n, INGEST_SHARES)
    names = _mixed_width_ids(rng, n)
    out = []
    for k in range(INGEST_VIEWS):
        cover = rng.permutation(n) if k == 0 else None
        src, dst = part.sample(rng, lines_per_view, INGEST_P_WITHIN, first=cover)
        loops = rng.random(lines_per_view) < INGEST_LOOP_RATE
        dst[loops] = src[loops]
        is_dup = rng.random(lines_per_view) < INGEST_DUP_RATE
        is_dup[:n] = False  # keeps the covering lines and gives every repeat an origin
        dup, kept = np.flatnonzero(is_dup), np.flatnonzero(~is_dup)
        before = np.searchsorted(kept, dup)  # kept lines earlier than each repeat
        origin = kept[(rng.random(dup.size) * before).astype(np.int64)]
        flip = rng.random(dup.size) < 0.5
        osrc, odst = src[origin], dst[origin]
        src[dup], dst[dup] = np.where(flip, odst, osrc), np.where(flip, osrc, odst)
        milli = rng.integers(250, 4001, size=lines_per_view)
        out.append((src, dst, milli))
    manifest, labels = _write_views(out_dir, names, out, part,
                                    _labeled_subset(rng, part, LABELED))
    return _inputs(manifest, labels, names, out, len(INGEST_SHARES))


def write_sbm_converge(seed: int, out_dir: str) -> Inputs:
    """The README/acceptance shape, written by ``mvne synth`` itself."""
    from mvne.cli import main

    args = ["synth", "--nodes", "200", "--communities", "4", "--p-in", "0.3",
            "--p-out", "0.01", "--views", "3", "--keep", "0.4", "--noise", "0.2",
            "--seed", str(seed), "--out-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(args)
    if rc != 0:
        raise RuntimeError(f"mvne synth exited {rc}")
    return scan_inputs(os.path.join(out_dir, "views.manifest"),
                       os.path.join(out_dir, "labels.tsv"), communities=4)


def scan_inputs(manifest: str, labels: str, communities: int) -> Inputs:
    """Count what a manifest's edge files hold by reading them back."""
    base = os.path.dirname(manifest)
    index = {}
    lines, view_edges, union = 0, [], set()
    with open(manifest, encoding="utf-8") as mf:
        paths = [os.path.join(base, row.split("\t")[1].strip()) for row in mf if row.strip()]
    for path in paths:
        pairs = set()
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                i = index.setdefault(fields[0], len(index))
                j = index.setdefault(fields[1], len(index))
                pairs.add((min(i, j), max(i, j)))
                lines += 1
        view_edges.append(len(pairs))
        union |= pairs
    loops = sum(1 for i, j in union if i == j)
    return Inputs(manifest=manifest, labels=labels, node_ids=list(index),
                  edge_lines=lines, view_edges=view_edges,
                  stored_entries=2 * (len(union) - loops) + loops,
                  upper_entries=len(union), communities=communities)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its generator and how the pipeline runs on it."""

    name: str
    write: object                  # (seed, out_dir) -> Inputs
    datasets: int                  # distinct datasets per run, each from its own seed
    d: int
    fit: dict                      # FactorizeConfig fields passed as `mvne embed` flags
    fractions: tuple
    repeats: int
    export_combined: bool = False
    # `mvne eval` calls per dataset and pass: repeating a short call gives its
    # median enough samples in one run. Every call rewrites the same bytes.
    eval_calls: int = 1


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(name="sbm_converge", write=write_sbm_converge, datasets=16, d=16, fit={},
             fractions=(0.1, 0.5, 0.9), repeats=1),
    Workload(name="large_fit", write=write_large_fit, datasets=1, d=64,
             fit={"max_iters": 10, "rel_tol": 0.0}, fractions=(0.5,), repeats=3),
    Workload(name="ingest_io", write=write_ingest_io, datasets=1, d=8,
             fit={"max_iters": 2, "rel_tol": 0.0}, fractions=(0.5,), repeats=3,
             export_combined=True, eval_calls=3),
)}
