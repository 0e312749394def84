"""Walk through the ring algebra: cores, subchains, unfoldings.

A ring factorization stores an order-d tensor as d small third-order
cores chained in a cycle.  This script builds a random chain, shows the
two reconstruction routes (elementwise trace of slice products vs one
matricized product), and demonstrates why the frozen unfolding
conventions matter.
"""

import numpy as np

from tring import (
    Subproblem,
    build_subchain,
    core_unfold2,
    fold_tr,
    init_random,
    reconstruct,
    unfold_tr,
)

dims = (4, 5, 3)
ranks = (2, 3, 2)
cores = init_random(dims, ranks, seed=0)
print(f"chain: {cores}")
for n, core in enumerate(cores):
    print(f"  core {n}: shape {core.shape}")

# Route 1: the definition. Element (i, j, k) is the trace of the product
# of the cores' lateral slices at those indices.
x_slow = np.empty(dims)
for i in range(dims[0]):
    for j in range(dims[1]):
        for k in range(dims[2]):
            x_slow[i, j, k] = np.trace(
                cores[0][:, i, :] @ cores[1][:, j, :] @ cores[2][:, k, :]
            )

# Route 2: what the library actually does. Merge all-but-one cores into a
# subchain, then one matrix product gives a full matricization.
x_fast = reconstruct(cores)
print("max |trace route - matricized route|:", np.abs(x_slow - x_fast).max())

# The identity holds at EVERY mode, which is what lets the solver update
# one core at a time as a nonnegative least-squares problem.
for mode in range(3):
    g2 = core_unfold2(cores[mode])                       # i_n x (r_n r_{n+1})
    s2 = build_subchain(cores, mode)                     # rest x (r_n r_{n+1})
    residual = np.abs(fold_tr(g2 @ s2.T, mode, dims) - x_fast).max()
    lipschitz = Subproblem(s2, unfold_tr(x_fast, mode)).lipschitz
    print(f"mode {mode}: unfold identity residual {residual:.3e}, "
          f"step-size constant ||S^T S||_2 {lipschitz:.3f}")

# Cyclic unfolding = cycle the dimensions to the front, then flatten with
# the first remaining dimension fastest. Nonnegative cores always give a
# nonnegative tensor.
print("unfold_tr(x, 1) shape:", unfold_tr(x_fast, 1).shape)
print("reconstruction minimum (nonnegative by construction):", x_fast.min())
