"""Nonnegative tensor ring decomposition with optional graph regularization.

A dense-tensor numerical library built on numpy: ring-format core chains,
an accelerated proximal gradient solver for the nonnegative fit, mutual
p-nearest-neighbor graph Laplacians for manifold-aware regularization,
and the clustering/classification metrics used to evaluate the extracted
features.  The ``tring`` command line drives reproducible desk-scale
experiments on top of it.
"""

__version__ = "0.1.0"

from .graph import (
    LaplacianOperator,
    NeighborGraph,
    laplacian_operator,
    neighbor_graph,
)
from .metrics import accuracy, entropy, kmeans, knn_classify, mutual_information, nmi, sparseness
from .ring import (
    TRCores,
    build_subchain,
    core_fold2,
    core_unfold2,
    feature_matrix,
    init_random,
    reconstruct,
    relative_error,
    subchain_unfold2,
)
from .solver import (
    DegenerateSubproblemError,
    FitReport,
    NumericalError,
    SolverConfig,
    alpha_next,
    fit,
    gradient_gntr,
    gradient_ntr,
    lipschitz_gntr,
    lipschitz_ntr,
    prox_step,
    search_point,
    solve_core,
)
from .synthetic import blob_tensor, ring_tensor
from .tensor_ops import fold_tr, unfold_tr

__all__ = [
    "TRCores",
    "NeighborGraph",
    "LaplacianOperator",
    "SolverConfig",
    "FitReport",
    "DegenerateSubproblemError",
    "NumericalError",
    "unfold_tr",
    "fold_tr",
    "init_random",
    "build_subchain",
    "subchain_unfold2",
    "core_unfold2",
    "core_fold2",
    "reconstruct",
    "relative_error",
    "feature_matrix",
    "neighbor_graph",
    "laplacian_operator",
    "gradient_ntr",
    "gradient_gntr",
    "lipschitz_ntr",
    "lipschitz_gntr",
    "alpha_next",
    "search_point",
    "prox_step",
    "solve_core",
    "fit",
    "sparseness",
    "accuracy",
    "mutual_information",
    "entropy",
    "nmi",
    "kmeans",
    "knn_classify",
    "ring_tensor",
    "blob_tensor",
]
