"""Embed a single graph and read the communities off the membership rows.

Builds a small two-community graph by hand, factorizes it, and shows how the
row-stochastic membership matrix H exposes the cluster structure: each row is
a distribution over latent communities, and argmax(H) is a soft clustering.
"""

import io

import numpy as np

import mvne

# Two dense groups bridged by a single edge. Names are arbitrary strings;
# the registry assigns dense indices in first-appearance order.
edges = """
a1 a2
a1 a3
a2 a3
a1 a4
a2 a4
b1 b2
b1 b3
b2 b3
b1 b4
b3 b4
a4 b1
"""
adj, registry = mvne.load_edge_list(io.StringIO(edges))
print(f"graph: {adj.n} nodes, {adj.edge_count()} edges, total weight {adj.total_weight}")

config = mvne.FactorizeConfig(d=2, seed=0)
fac = mvne.factorize(adj, config)
print(f"converged after {fac.run.iterations} iterations, "
      f"objective {fac.run.objective:.6f}")

print("\nmembership rows (each sums to 1):")
for idx, name in enumerate(registry.names):
    row = mvne.embedding(fac)[idx]
    print(f"  {name}: {np.round(row, 3)}  -> community {row.argmax()}")

print("\ncommunity masses lam (sum equals the total edge weight):")
print(" ", np.round(fac.lam, 3), "->", fac.lam.sum())

# The objective never increases along the fit; the trace is recorded.
trace = np.array(fac.run.objective_trace)
assert (np.diff(trace) <= 1e-9).all()
print(f"\nobjective trace: {trace[0]:.3f} -> {trace[-1]:.3f} "
      f"over {len(trace) - 1} updates, monotone")

# Reconstructed edge weights approximate the adjacency: the two-hop path
# weight sum_p b_ip * b_jp / lam_p through the communities.
i, j = registry.get("a1"), registry.get("a2")
k = registry.get("b1")
print(f"\nreconstructed weight a1~a2 (linked):   {fac.mass[i] @ (fac.mass[j] / fac.lam):.3f}")
print(f"reconstructed weight a1~b1 (unlinked): {fac.mass[i] @ (fac.mass[k] / fac.lam):.3f}")
