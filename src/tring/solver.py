"""Accelerated proximal gradient solver for nonnegative tensor ring fitting.

The outer loop sweeps cyclically over the d cores; each core update is an
inner accelerated-proximal-gradient run on the convex nonnegative
least-squares subproblem

    min_{G >= 0}  0.5 * || X_[n] - G @ S.T ||_F^2   (+ 0.5*beta*tr(G.T H G) at n = d-1)

where S is the mode-2 unfolding of the subchain merging every other core
and H is the sample-graph Laplacian.  The step size is the reciprocal of
the subproblem's Lipschitz constant ||S.T S||_2 (+ beta*||H||_2 for the
regularized sample-mode update).

The subproblem is defined once, by the private ``_Subproblem``: its
objective, gradient and Lipschitz constant are what :func:`solve_core`
iterates on, what :func:`gradient_ntr` and :func:`gradient_gntr` return,
and what :func:`fit` reports per sweep.  It forms the r^2 x r^2 Gram
S.T S once, for the gradient and for the Lipschitz constant alike:
||S.T S||_2 is its top eigenvalue (``eigvalsh``) raised by the same small
relative margin as the graph norm, so it never falls below the true value.
:func:`lipschitz_ntr` and :func:`lipschitz_gntr` go through the same
helper.  A subproblem holds only its Gram and its cross term X S; its
objective leaves out the constant 0.5*||X||^2, which moves neither the
minimizer, nor the gradient, nor the step.  :func:`fit` takes ||X||^2
once and adds it to each objective it reports.

The set-up is what moves memory: on a tensor with many samples a
subchain is tens of MB.  :func:`fit` builds every mode's subchain into
one workspace, sized to the largest, instead of fresh memory per sweep,
and ``_products`` forms the Gram and the cross term in one pass over row
blocks of S that stay in cache.  A subchain of at most ``_BLOCK`` rows is
one block and gets the one-shot products bit for bit; longer ones differ
from them only in rounding.

H is fixed and sparse, so the graph keeps it as a
:class:`~tring.graph.LaplacianOperator` (``NeighborGraph.operator``): every
product with H is a CSR product, and ||H||_2 is computed once per graph,
however many fits use it.  The gradient, Lipschitz and inner-solver code
below all go through that one operator, whether they are handed it or a
dense Laplacian.

Plain momentum can overshoot, so a step that would raise the subproblem
objective restarts the momentum (alpha <- 1, search point <- current
iterate) and retakes a plain projected-gradient step, which the quadratic
majorization guarantees is non-increasing.  This keeps both the per-core
and the full objective monotone without giving up acceleration.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import NeighborGraph, laplacian_operator
from .ring import (
    TRCores,
    build_subchain,
    core_fold2,
    core_unfold2,
    init_random,
    subchain_unfold2,
)
from .tensor_ops import as_tensor, gram_norm, unfold_tr

__all__ = [
    "SolverConfig",
    "FitReport",
    "DegenerateSubproblemError",
    "NumericalError",
    "gradient_ntr",
    "gradient_gntr",
    "lipschitz_ntr",
    "lipschitz_gntr",
    "alpha_next",
    "search_point",
    "prox_step",
    "solve_core",
    "fit",
]


class DegenerateSubproblemError(RuntimeError):
    """Raised when a core subproblem has a zero Lipschitz constant."""


class NumericalError(RuntimeError):
    """Raised when the sweep objective stops being finite."""


@dataclass
class SolverConfig:
    """Knobs for :func:`fit`.

    t_max
        Inner accelerated-gradient iterations per core per sweep.
    max_sweeps
        Cap on outer sweeps over the cores.
    tol
        Stop when the relative objective change between sweeps drops
        below this.
    beta
        Graph regularization weight; 0 disables the graph term entirely.
    seed
        Seed for the random nonnegative initialization.
    """

    t_max: int = 100
    max_sweeps: int = 500
    tol: float = 1e-6
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass
class FitReport:
    """Per-sweep progress of one :func:`fit` run.

    ``objective_per_sweep`` and ``initial_objective`` are ``0.5*||X||^2``
    plus the sample-mode subproblem's objective.  ``seconds_per_sweep``
    holds seconds since the fit began, not per-sweep durations; the CLI
    writes it as ``report.csv``'s ``seconds`` column.

    ``rel_change_per_sweep`` is the objective decrease per sweep measured
    relative to the run's initial objective, floored at ``eps * ||X||^2``
    (float64 ``eps``): a fit that starts at an exact decomposition reads
    an initial objective of rounding size, or below zero.  Measuring
    against the previous sweep instead would never flag a plateau on
    exactly decomposable data, where the objective decays geometrically
    toward zero at a near-constant rate.
    """

    objective_per_sweep: np.ndarray
    rel_change_per_sweep: np.ndarray
    seconds_per_sweep: np.ndarray
    sweeps_run: int = 0
    terminated_by: str = "max_sweeps"
    wall_seconds: float = 0.0
    initial_objective: float = float("nan")


# Rows of S, and columns of the unfolding X, per block of the subproblem
# set-up.  A block then holds 4096 * (r_n*r_{n+1} + i_n) float64 entries,
# 0.4-1.4 MB on the colour and COIL tensors' multi-block modes, so it stays
# in cache between its products.  The rows do not depend on X, so the
# Gram's summation order is a function of S alone.
_BLOCK = 4096


def _products(subchain2, x_unfold=None):
    """``(S.T @ S, X @ S)`` in one pass over row blocks of S.

    Each block of ``_BLOCK`` rows of S and the matching column block of the
    unfolding X is read from memory once and then reused from cache for
    both products, where the one-shot formulas read S twice.  A subchain of
    at most ``_BLOCK`` rows is one block, and then the results are bitwise
    the one-shot ``S.T @ S`` and ``X @ S``.  Longer ones add the blocks'
    products in row order, which can change the last bits.  Without
    ``x_unfold`` only the Gram is formed, by the same blocks, and the cross
    term is ``None``; that is how the public Lipschitz functions form the
    Gram the solver steps with, bit for bit.
    """
    s = subchain2[:_BLOCK]
    sts = s.T @ s
    xs = None if x_unfold is None else x_unfold[:, :_BLOCK] @ s
    for lo in range(_BLOCK, subchain2.shape[0], _BLOCK):
        s = subchain2[lo : lo + _BLOCK]
        sts += s.T @ s
        if xs is not None:
            xs += x_unfold[:, lo : lo + _BLOCK] @ s
    return sts, xs


class _Subproblem:
    """One core subproblem, the only definition of its objective and gradient.

    ``min_{G >= 0} 0.5*||x_unfold - G @ subchain2.T||_F^2`` plus
    ``0.5*beta*tr(G.T H G)`` when a Laplacian ``h_g`` is given and
    ``beta > 0``.  It holds only the Gram ``S.T @ S`` and the cross term
    ``X @ S``, from one :func:`_products` pass, so :meth:`objective` is the
    expanded form without its constant, ``0.5*<G S.T S, G> - <G, X S>``.
    The Lipschitz constant is taken on first use only, so a gradient alone
    never runs an eigensolver.
    """

    def __init__(self, x_unfold, subchain2, h_g=None, beta=0.0):
        self.sts, self.xs = _products(subchain2, x_unfold)
        self.h_g = laplacian_operator(h_g) if h_g is not None and beta > 0 else None
        self.beta = beta

    @functools.cached_property
    def lipschitz(self):
        return _lipschitz(self.sts, self.h_g, self.beta)

    def objective(self, g):
        val = 0.5 * float(np.vdot(g @ self.sts, g)) - float(np.vdot(g, self.xs))
        if self.h_g is not None:
            val += 0.5 * self.beta * float(np.vdot(g, self.h_g @ g))
        return val

    def gradient(self, g):
        grad = g @ self.sts - self.xs
        if self.h_g is not None:
            grad = grad + self.beta * (self.h_g @ g)
        return grad


def gradient_ntr(g2, subchain2, x_unfold):
    """Gradient of 0.5*||x_unfold - g2 @ subchain2.T||_F^2 in g2."""
    return gradient_gntr(g2, subchain2, x_unfold, None, 0.0)


def gradient_gntr(g2, subchain2, x_unfold, h_g, beta):
    """Gradient of the graph-regularized subproblem (sample mode only).

    ``h_g`` is the Laplacian, dense or as a ``LaplacianOperator``; ``None``
    gives the plain gradient, as does ``beta == 0``.
    """
    g2 = as_tensor(g2)
    subchain2 = as_tensor(subchain2)
    x_unfold = as_tensor(x_unfold)
    if h_g is not None:
        h_g = laplacian_operator(h_g)
        if h_g.shape[1] != g2.shape[0]:
            raise ValueError(f"Laplacian shape {h_g.shape} does not match g2 rows")
    if (
        g2.shape[1] != subchain2.shape[1]
        or x_unfold.shape[0] != g2.shape[0]
        or x_unfold.shape[1] != subchain2.shape[0]
    ):
        raise ValueError(
            f"shape mismatch: g2 {g2.shape}, subchain2 {subchain2.shape}, "
            f"x_unfold {x_unfold.shape}"
        )
    return _Subproblem(x_unfold, subchain2, h_g, beta).gradient(g2)


def _lipschitz(sts, h_g=None, beta=0.0):
    """Lipschitz constant of a subproblem gradient from its Gram ``S.T @ S``.

    ``gram_norm(sts)`` (top eigenvalue plus margin), plus ``beta * ||H||_2``
    when a ``LaplacianOperator`` ``h_g`` is given.  Raises
    ``NumericalError`` on a non-finite Gram or constant.
    """
    if not np.all(np.isfinite(sts)):
        raise NumericalError("subchain Gram became non-finite")
    lipschitz = gram_norm(sts)
    if h_g is not None:
        lipschitz += beta * h_g.norm
    if not math.isfinite(lipschitz):
        raise NumericalError(f"non-finite subproblem step size: {lipschitz}")
    return lipschitz


def lipschitz_ntr(subchain2):
    """Lipschitz constant ||S.T S||_2 of the plain subproblem gradient."""
    return _lipschitz(_products(as_tensor(subchain2))[0])


def lipschitz_gntr(subchain2, h_g, beta):
    """Lipschitz constant of the graph-regularized subproblem gradient.

    ``h_g`` is the Laplacian, dense or as a ``LaplacianOperator``, whose
    kept norm is then reused.
    """
    gram = _products(as_tensor(subchain2))[0]
    return _lipschitz(gram, laplacian_operator(h_g), beta)


def alpha_next(alpha):
    """Momentum coefficient recurrence (1 + sqrt(4*alpha^2 + 1)) / 2."""
    return 0.5 * (1.0 + math.sqrt(4.0 * alpha * alpha + 1.0))


def search_point(g_curr, g_prev, alpha_curr, alpha_nxt):
    """Extrapolated search point from the two latest iterates."""
    coeff = (alpha_curr - 1.0) / alpha_nxt
    return g_curr + coeff * (g_curr - g_prev)


def prox_step(y, grad_at_y, lipschitz):
    """Gradient step from ``y`` followed by projection onto the nonnegative orthant."""
    if not lipschitz > 0:
        raise ValueError("lipschitz constant must be > 0")
    return np.maximum(0.0, y - grad_at_y / lipschitz)


def solve_core(x_unfold, subchain2, g_init, cfg, h_g=None, callback=None):
    """Run ``cfg.t_max`` accelerated projected-gradient iterations on one core.

    Parameters
    ----------
    x_unfold : ndarray, (i_n, prod of other dims)
        Cyclic unfolding of the data at the core's mode.
    subchain2 : ndarray, (prod of other dims, r_n * r_{n+1})
        Mode-2 unfolding of the merged remaining cores.
    g_init : ndarray, (i_n, r_n * r_{n+1})
        Nonnegative starting iterate (current core unfolding).
    cfg : SolverConfig
        Supplies ``t_max`` and ``beta``.
    h_g : LaplacianOperator or ndarray, optional
        Sample-graph Laplacian; pass only for the sample-mode core.
        :func:`fit` passes the graph's kept operator, so ``||H||_2`` is
        not recomputed per call; a dense Laplacian is wrapped in a new
        operator on every call.
    callback : callable, optional
        ``callback(g_new, y, grad_y)`` after each accepted iterate, for
        diagnostics and audits.

    Returns
    -------
    ndarray
        The final nonnegative iterate; its subproblem objective never
        exceeds the initial one.
    """
    g_init = as_tensor(g_init)
    sub = _Subproblem(as_tensor(x_unfold), as_tensor(subchain2), h_g, cfg.beta)
    lipschitz = sub.lipschitz
    if lipschitz == 0.0:
        raise DegenerateSubproblemError("all-zero subchain gives a zero step size")

    g_curr = g_init
    y = g_init
    alpha = 1.0
    f_curr = sub.objective(g_init)
    for _ in range(cfg.t_max):
        grad = sub.gradient(y)
        g_next = prox_step(y, grad, lipschitz)
        f_next = sub.objective(g_next)
        if f_next > f_curr:
            # Momentum overshoot: restart and retake a plain projected
            # gradient step, which majorization makes non-increasing.
            alpha = 1.0
            y = g_curr
            grad = sub.gradient(y)
            g_next = prox_step(y, grad, lipschitz)
            f_next = sub.objective(g_next)
        if callback is not None:
            callback(g_next, y, grad)
        a_nxt = alpha_next(alpha)
        y = search_point(g_next, g_curr, alpha, a_nxt)
        g_curr = g_next
        f_curr = f_next
        alpha = a_nxt
    return g_curr


def fit(x, ranks, cfg=None, graph=None):
    """Fit a nonnegative tensor ring to ``x`` by cyclic core sweeps.

    Parameters
    ----------
    x : ndarray
        Nonnegative data tensor of order >= 2; samples along the last
        dimension when a graph is supplied.
    ranks : sequence of int
        Cyclic rank chain, one entry per tensor dimension.
    cfg : SolverConfig, optional
        Defaults to ``SolverConfig()``.
    graph : NeighborGraph, optional
        Sample graph whose Laplacian regularizes the last core.  With
        ``cfg.beta == 0`` (or no graph) the run is the plain nonnegative
        fit, bit-for-bit.

    Returns
    -------
    (TRCores, FitReport)
        Nonnegative cores and the per-sweep progress record.  The reported
        objective is measured at the sample mode; every mode's value is
        identical because the unfoldings only permute entries.
    """
    x = as_tensor(x)
    if cfg is None:
        cfg = SolverConfig()
    if x.ndim < 2:
        raise ValueError("fit requires a tensor of order >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("data tensor must be finite (no NaN or Inf)")
    if np.any(x < 0):
        raise ValueError("data tensor must be nonnegative")
    norm_x2 = float(np.vdot(x, x))
    if not math.isfinite(norm_x2):
        raise ValueError("data tensor too large for float64: its squared norm overflows")
    dims = x.shape
    d = x.ndim
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != d:
        raise ValueError(f"{len(ranks)} ranks for an order-{d} tensor")

    if graph is not None and cfg.beta > 0:
        if not isinstance(graph, NeighborGraph):
            raise ValueError("graph must be a NeighborGraph")
        if graph.n_samples != dims[-1]:
            raise ValueError(
                f"graph has {graph.n_samples} samples, tensor has {dims[-1]}"
            )
        h_g = graph.operator
    else:
        h_g = None

    t0 = time.perf_counter()
    cores = list(init_random(dims, ranks, cfg.seed))
    x_unfolds = [unfold_tr(x, n) for n in range(d)]
    # Every mode's subchain is built into this one buffer, sized to the
    # largest.  Each is read only until the next build, and nothing the fit
    # returns refers to it.
    workspace = np.empty(
        max(math.prod(dims) // dims[n] * ranks[n] * ranks[(n + 1) % d] for n in range(d))
    )

    def objective(sub2, g):
        """The full objective at the sample-mode core ``g``, subchain ``sub2``."""
        sub = _Subproblem(x_unfolds[d - 1], sub2, h_g, cfg.beta)
        return 0.5 * norm_x2 + sub.objective(g)

    sub2 = subchain_unfold2(build_subchain(cores, d - 1, workspace))
    prev_obj = initial_objective = objective(sub2, core_unfold2(cores[d - 1]))
    # A fit that starts at an exact decomposition reads an initial objective
    # of rounding size, or even below zero where the expanded form cancels;
    # changes are then measured against the rounding of ||X||^2 instead.
    scale = max(initial_objective, np.finfo(np.float64).eps * norm_x2)
    objectives, rel_changes, seconds = [], [], []
    terminated_by = "max_sweeps"
    for _ in range(cfg.max_sweeps):
        for n in range(d):
            sub2 = subchain_unfold2(build_subchain(cores, n, workspace))
            g0 = core_unfold2(cores[n])
            hg_n = h_g if n == d - 1 else None
            g = solve_core(x_unfolds[n], sub2, g0, cfg, h_g=hg_n)
            cores[n] = core_fold2(g, ranks[n], dims[n], ranks[(n + 1) % d])
        # Cores 0..d-2 are untouched since the last inner solve, so its
        # subchain is still the current one.
        obj = objective(sub2, g)
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite: {obj}")
        rel = abs(prev_obj - obj) / scale
        objectives.append(obj)
        rel_changes.append(rel)
        seconds.append(time.perf_counter() - t0)
        prev_obj = obj
        if rel < cfg.tol:
            terminated_by = "tol"
            break

    report = FitReport(
        objective_per_sweep=np.asarray(objectives),
        rel_change_per_sweep=np.asarray(rel_changes),
        seconds_per_sweep=np.asarray(seconds),
        sweeps_run=len(objectives),
        terminated_by=terminated_by,
        wall_seconds=time.perf_counter() - t0,
        initial_objective=initial_objective,
    )
    return TRCores(cores, nonneg=True, copy=False), report
