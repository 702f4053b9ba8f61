"""Deterministic tourist walks on a point cloud.

The walker always moves along an edge to the nearest vertex not visited
in the last mu steps. Small memories trap it in short local cycles; larger
memories push it across the whole component until every neighbor is
forbidden and it halts. The (transient, cycle) pair against mu is the
structural fingerprint used by the high-level classifier.
"""

import numpy as np

from sensewalk import component_stats, walk
from sensewalk.attgraph import GraphConfig, build_training_graph
from sensewalk.evaluate import walk_curve_rows
from sensewalk.features import Dataset

rng = np.random.default_rng(4)
points = rng.uniform(0, 1, size=(12, 2))
labels = [1] * 12
ds = Dataset(list(range(12)), points, labels, ["x", "y"])
component = build_training_graph(ds, GraphConfig(epsilon=0.35, kappa=2))[0]

print("walks from vertex 0:")
for mu in range(0, 7):
    result = walk(component, 0, mu)
    path = " -> ".join(str(v) for v in result.trajectory)
    kind = f"cycle of {result.cycle}" if result.cycle else "dead end"
    print(f"  mu={mu}: transient={result.transient:2d} {kind:12s} [{path}]")

# ---------------------------------------------------------------------------
# averaging over all starting vertices characterizes the whole component

print("\ncomponent averages <t>(mu), <c>(mu):")
stats = component_stats(component, 8)
for mu in range(9):
    t, c = stats[mu]
    print(f"  mu={mu}: <t>={t:5.2f}  <c>={c:5.2f}")

# ---------------------------------------------------------------------------
# a regular lattice and a random cloud freeze at different memory lengths

xs, ys = np.meshgrid(np.arange(4), np.arange(4))
lattice = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
cloud = rng.uniform(10, 16, size=(16, 2))
both = Dataset(
    list(range(32)), np.vstack([lattice, cloud]), [1] * 16 + [2] * 16, ["x", "y"]
)
lattice_graph, cloud_graph = build_training_graph(both, GraphConfig(epsilon=1.4, kappa=3))
for name, graph in (("lattice", lattice_graph), ("cloud", cloud_graph)):
    _, _, final_t, _, onset = walk_curve_rows([graph], 18)[-1]  # the row at mu = 18
    print(f"{name}: steady state from mu={onset}, final <t>={final_t:.2f}")
