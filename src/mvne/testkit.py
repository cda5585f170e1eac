"""The synthetic multi-view graph generator behind `mvne synth`."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import (LabelStore, MultiViewGraph, NodeRegistry, SparseAdjacency,
                    write_edge_list)

_PAIR_BLOCK = 1 << 20  # the most base-graph pair draws generate_multiview_sbm holds at once


@dataclass
class SbmSpec:
    """Planted-partition generator settings."""

    n: int
    communities: int
    p_in: float
    p_out: float
    views: int = 1
    keep: float = 1.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.communities < 1 or self.views < 1:
            raise ValueError("n, communities and views must be >= 1")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out < p_in <= 1")
        if not (0.0 <= self.keep <= 1.0 and 0.0 <= self.noise <= 1.0):
            raise ValueError("keep and noise rates must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def view_names(self) -> list:
        return [f"view{v}" for v in range(self.views)]


def generate_multiview_sbm(spec: SbmSpec):
    """Sample a planted-partition multi-view graph plus community labels.

    One latent partition into `communities` blocks; a base graph sampled
    once with within/between probabilities p_in/p_out; each view keeps each
    base edge with probability `keep` and adds Binomial(base_edges, noise)
    uniform random extra edges. Returns (MultiViewGraph, LabelStore).
    Deterministic per spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, c = spec.n, spec.communities
    z = rng.integers(0, c, size=n)

    # pairs i < j, row-major, drawn a block of rows at a time: one draw's stream
    rows, base = max(1, _PAIR_BLOCK // n), []
    for lo in range(0, n, rows):
        iu, ju = np.triu_indices(min(rows, n - lo), k=lo + 1, m=n)
        iu += lo
        p_edge = np.where(z[iu] == z[ju], spec.p_in, spec.p_out)
        base_mask = rng.random(iu.size) < p_edge
        base.append((iu[base_mask], ju[base_mask]))
    base_i, base_j = map(np.concatenate, zip(*base))
    m = base_i.size

    registry = NodeRegistry()
    for v in range(n):
        registry.intern(f"n{v}")

    views = []
    for _ in range(spec.views):
        kept = rng.random(m) < spec.keep
        vi = base_i[kept]
        vj = base_j[kept]
        n_noise = rng.binomial(m, spec.noise) if m else 0
        if n_noise:
            ni = rng.integers(0, n, size=n_noise)
            nj = rng.integers(0, n, size=n_noise)
            ok = ni != nj
            lo, hi = np.minimum(ni[ok], nj[ok]), np.maximum(ni[ok], nj[ok])
            vi = np.concatenate([vi, lo])
            vj = np.concatenate([vj, hi])
        # collapse duplicates (kept-base vs noise collisions) to unit weight
        pair_ids = np.unique(vi.astype(np.int64) * n + vj.astype(np.int64))
        views.append(SparseAdjacency.from_undirected(pair_ids // n, pair_ids % n,
                                                     np.ones(pair_ids.size), n))

    labels = LabelStore()
    for v in range(n):
        labels.add(v, [f"c{z[v]}"])
    return MultiViewGraph(registry=registry, view_names=spec.view_names, views=views), labels


def dump_dataset(graph: MultiViewGraph, labels: LabelStore, out_dir):
    """Write manifest + per-view edge lists + labels in the standard formats.

    Label lines are restricted to nodes that carry at least one edge in some
    view, since the edge files alone rebuild the registry on reload.
    Returns the manifest path.
    """
    manifest, *edges, labels_file = dataset_files(graph.view_names)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, manifest)
    with open(manifest_path, "w", encoding="utf-8") as mf:
        for name, adj, fname in zip(graph.view_names, graph.views, edges):
            mf.write(f"{name}\t{fname}\n")
            write_edge_list(adj, graph.registry, os.path.join(out_dir, fname))
    covered = set()
    for adj in graph.views:
        covered.update(int(x) for x in adj.active_nodes())
    nodes = graph.registry.names
    with open(os.path.join(out_dir, labels_file), "w", encoding="utf-8") as lf:
        for v in sorted(covered):
            names = sorted(labels.label_name(l) for l in labels.labels_of(v))
            if names:
                lf.write(f"{nodes[v]}\t{','.join(names)}\n")
    return manifest_path


def dataset_files(view_names) -> list:
    """The file names dump_dataset writes: the manifest, one edge list per view, the labels."""
    return ["views.manifest", *(f"{name}.edges" for name in view_names), "labels.tsv"]
