"""Nonnegative tensor ring decomposition with optional graph regularization.

A dense-tensor numerical library built on numpy: ring-format core chains,
an accelerated proximal gradient solver for the nonnegative fit, mutual
p-nearest-neighbor graph Laplacians for manifold-aware regularization,
and the clustering/classification metrics used to evaluate the extracted
features.  The ``tring`` command line drives reproducible desk-scale
experiments on top of it.
"""

__version__ = "0.1.0"

from .graph import NeighborGraph, neighbor_graph
from .metrics import accuracy, kmeans, knn_classify, nmi, sparseness
from .ring import (
    TRCores,
    basis_tensors,
    build_subchain,
    core_unfold2,
    feature_matrix,
    init_random,
    reconstruct,
    relative_error,
)
from .solver import FitReport, NumericalError, SolverConfig, Subproblem, fit
from .synthetic import blob_tensor, ring_tensor
from .tensor_ops import fold_tr, unfold_tr

__all__ = [
    "TRCores",
    "NeighborGraph",
    "SolverConfig",
    "FitReport",
    "NumericalError",
    "unfold_tr",
    "fold_tr",
    "init_random",
    "build_subchain",
    "core_unfold2",
    "reconstruct",
    "relative_error",
    "feature_matrix",
    "basis_tensors",
    "neighbor_graph",
    "Subproblem",
    "fit",
    "sparseness",
    "accuracy",
    "nmi",
    "kmeans",
    "knn_classify",
    "ring_tensor",
    "blob_tensor",
]
