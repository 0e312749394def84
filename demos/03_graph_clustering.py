"""Cluster sample slices from learned ring features, with and without the
sample-graph regularizer.

The last core's mode-2 unfolding has one row per sample: that row is the
sample's feature vector.  Regularizing it with the mutual nearest-neighbor
graph Laplacian pulls the feature rows of neighboring samples together,
which preserves cluster structure in the embedding.
"""

import numpy as np

from tring import (
    SolverConfig,
    accuracy,
    blob_tensor,
    feature_matrix,
    fit,
    kmeans,
    neighbor_graph,
    nmi,
    sparseness,
)

x, labels = blob_tensor((6, 6, 3), n_classes=3, per_class=20, noise=0.05, seed=42)
print(f"data: {x.shape[-1]} samples of shape {x.shape[:-1]}, "
      f"{np.unique(labels).size} classes")

graph = neighbor_graph(x, p=5)
print(f"mutual 5-NN graph: {int(graph.degree.sum() / 2)} edges, "
      f"degrees {graph.degree.min():.0f}..{graph.degree.max():.0f}")

# feature width = r_d * r_1 = 3, one column per class
ranks = (1, 2, 2, 3)

for name, beta, g in (("plain fit      ", 0.0, None),
                      ("graph-regularized", 0.1, graph)):
    acs, nmis = [], []
    for run in range(5):
        cfg = SolverConfig(t_max=50, max_sweeps=100, tol=1e-6, beta=beta, seed=run)
        cores, _ = fit(x, ranks, cfg, g)
        feats = feature_matrix(cores)
        pred = kmeans(feats, 3, restarts=200, seed=run)
        acs.append(accuracy(pred, labels))
        nmis.append(nmi(pred, labels))
    print(f"{name}: AC {np.mean(acs):.3f} +- {np.std(acs):.3f}   "
          f"NMI {np.mean(nmis):.3f} +- {np.std(nmis):.3f}   "
          f"feature sparseness {sparseness(feats):.3f}")
