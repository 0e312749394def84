"""Accelerated proximal gradient solver for nonnegative tensor ring fitting.

The outer loop sweeps cyclically over the d cores; each core update is an
inner accelerated-proximal-gradient run on the convex nonnegative
least-squares subproblem

    min_{G >= 0}  0.5 * || X_[n] - G @ S.T ||_F^2   (+ 0.5*beta*tr(G.T H G) at n = d-1)

where S is the mode-2 unfolding of the subchain merging every other core,
the one form :func:`~tring.ring.build_subchain` returns, and H is the
sample-graph Laplacian.  The step size is the reciprocal of the
subproblem's Lipschitz constant ||S.T S||_2 (+ beta*||H||_2 for the
regularized sample-mode update).

The subproblem is defined once, by :class:`Subproblem`: its objective,
gradient and Lipschitz constant are what :func:`solve_core` iterates on,
what the acceptance criteria check, and, handed to the callback of the
sample-mode :func:`solve_core`, what :func:`fit` reports per sweep.  It
forms the r^2 x r^2 Gram S.T S once, for the gradient and for the
Lipschitz constant alike: ||S.T S||_2 and ||H||_2 are both
``tensor_ops.spectral_norm``, a top eigenvalue raised by a small relative
margin so that it never falls below the true value.  A subproblem holds
only its Gram and its cross term X S; its objective leaves out the
constant 0.5*||X||^2, which moves neither the minimizer, nor the
gradient, nor the step.  :func:`fit` takes ||X||^2 once and adds it to
each objective it reports.

The set-up is what moves memory: on a tensor with many samples a
subchain is tens of MB, and so is each unfolding of X.  :func:`fit`
takes the unfoldings from ``tensor_ops._unfoldings``, ceil(d/2) copies
of X.  It builds every mode's subchain into one workspace, sized to the
largest, instead of fresh memory per sweep, and ``Subproblem`` forms the
Gram and the cross term in one pass over row blocks of S that stay in
cache.  A subchain of at most ``_BLOCK`` rows is one block and gets the
one-shot products bit for bit; longer ones, and the C-ordered
unfoldings, differ from them only in rounding.

H is fixed and sparse, and the sample graph is the operator that applies
it: every entry point that takes H takes a
:class:`~tring.graph.NeighborGraph`, as :func:`fit` does, so every product
with H is a CSR product and ||H||_2 is computed once per graph.  A custom
Laplacian goes in through a hand-built ``NeighborGraph``.

Plain momentum can overshoot, so a step that would raise the subproblem
objective restarts the momentum (alpha <- 1, search point <- current
iterate) and retakes a plain projected-gradient step, which the quadratic
majorization guarantees is non-increasing.  This keeps both the per-core
and the full objective monotone without giving up acceleration.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import NeighborGraph
from .ring import build_subchain, core_fold2, core_unfold2, init_random
from .tensor_ops import _is_finite, _unfoldings, as_count, as_tensor, spectral_norm

__all__ = [
    "SolverConfig",
    "FitReport",
    "NumericalError",
    "Subproblem",
    "search_point",
    "prox_step",
    "solve_core",
    "fit",
]


class NumericalError(RuntimeError):
    """Raised when a fit cannot step: a non-finite Gram, step size or
    objective, or a zero step size from an all-zero subchain."""


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
        Seed for the random nonnegative initialization, an integer >= 0.

    Every assignment is checked, at construction and after it, so a
    config that :func:`fit` cannot run never exists; a rejected value
    raises ``ValueError`` and leaves the old one in place.
    """

    t_max: int = 100
    max_sweeps: int = 500
    tol: float = 1e-6
    beta: float = 0.1
    seed: int = 0

    def __setattr__(self, name, value):
        if name in ("t_max", "max_sweeps"):
            as_count(value, name, 1)
        elif name == "tol" and not (_is_finite(value) and value > 0):
            raise ValueError(f"tol must be finite and > 0, got {value}")
        elif name == "beta" and not (_is_finite(value) and value >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {value}")
        elif name == "seed":
            as_count(value, name, 0)
        super().__setattr__(name, value)


@dataclass
class FitReport:
    """Per-sweep progress of one :func:`fit` run.

    ``objective_per_sweep`` and ``initial_objective`` are ``0.5*||X||^2``
    plus the sample-mode subproblem's objective; :func:`fit` checks each
    of them, the initial one too, and raises ``NumericalError`` on a
    non-finite value.  With ``beta > 0`` the graph's ``||H||_2`` is taken
    when :func:`fit` checks the graph, before the first objective.
    ``seconds_per_sweep`` holds seconds since the fit began, not per-sweep
    durations; the CLI writes it as ``report.csv``'s ``seconds`` column.

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


def _sample_graph(graph, beta, n_samples):
    """``graph``, checked, if it regularizes (``beta > 0``); else ``None``.

    It must be a ``NeighborGraph`` with ``n_samples`` samples, and
    ``beta * ||H||_2`` must be finite; anything else raises ``ValueError``.
    The check takes the graph's norm, which the graph keeps.
    """
    if graph is None or not beta > 0:
        return None
    if not isinstance(graph, NeighborGraph):
        raise ValueError("graph must be a NeighborGraph")
    if graph.n_samples != n_samples:
        raise ValueError(f"graph has {graph.n_samples} samples, tensor has {n_samples}")
    # A Python float product overflows to inf without a warning; a NumPy one warns.
    if not math.isfinite(float(beta) * graph.norm):
        raise ValueError(f"beta * ||H||_2 overflows float64: beta={beta}, ||H||_2={graph.norm}")
    return graph


class Subproblem:
    """One core subproblem, the only definition of its objective, gradient and step.

    ``min_{G >= 0} 0.5*||x_unfold - G @ subchain2.T||_F^2`` plus
    ``0.5*beta*tr(G.T H G)`` when a sample ``graph`` is given and
    ``beta > 0``; the graph must then be a ``NeighborGraph`` with one sample
    per row of ``x_unfold`` and a finite ``beta*||H||_2``, or ``ValueError``
    is raised, as :func:`fit` raises it.  So is a ``subchain2`` with other
    than one row per column of ``x_unfold``.

    The set-up forms only the Gram ``sts = S.T @ S`` and the cross term
    ``xs = X @ S``, so :meth:`objective` is the expanded form without its
    constant, ``0.5*<G S.T S, G> - <G, X S>``.  Both products come from one
    pass over row blocks of S: each block of ``_BLOCK`` rows of S and the
    matching column block of X is read from memory once and then reused
    from cache for both, where the one-shot formulas read S twice.  A
    subchain of at most ``_BLOCK`` rows is one block, and then the products
    are bitwise the one-shot ``S.T @ S`` and ``X @ S``.  Longer ones add the
    blocks' products in row order, which can change the last bits.
    """

    def __init__(self, subchain2, x_unfold, graph=None, beta=0.0):
        subchain2 = as_tensor(subchain2)
        x_unfold = as_tensor(x_unfold)
        if subchain2.ndim != 2 or x_unfold.ndim != 2 or x_unfold.shape[1] != subchain2.shape[0]:
            raise ValueError(
                f"shape mismatch: subchain2 {subchain2.shape}, x_unfold {x_unfold.shape}"
            )
        s = subchain2[:_BLOCK]
        self.sts = s.T @ s
        self.xs = x_unfold[:, :_BLOCK] @ s
        for lo in range(_BLOCK, subchain2.shape[0], _BLOCK):
            s = subchain2[lo : lo + _BLOCK]
            self.sts += s.T @ s
            self.xs += x_unfold[:, lo : lo + _BLOCK] @ s
        self.graph = _sample_graph(graph, beta, x_unfold.shape[0])
        self.beta = beta

    @property
    def lipschitz(self):
        """``spectral_norm(S.T S)`` (top eigenvalue plus margin), plus ``beta*||H||_2``.

        The Gram's norm is taken on each read, not at set-up, so a gradient
        alone never runs an eigensolver on it.  With ``beta > 0`` the
        graph's norm was taken when the graph was checked, at set-up, and
        ``beta*||H||_2`` is finite.  Raises ``NumericalError`` on a
        non-finite Gram or constant.
        """
        if not np.all(np.isfinite(self.sts)):
            raise NumericalError("subchain Gram became non-finite")
        lipschitz = spectral_norm(self.sts)
        if self.graph is not None:
            lipschitz += self.beta * self.graph.norm
        if not math.isfinite(lipschitz):
            raise NumericalError(f"non-finite subproblem step size: {lipschitz}")
        return lipschitz

    def _check(self, g):
        """Raise ``ValueError`` unless the iterate ``g`` is shaped like ``xs``."""
        if np.shape(g) != self.xs.shape:
            raise ValueError(f"shape mismatch: g {np.shape(g)}, expected {self.xs.shape}")

    def objective(self, g):
        """The objective at ``g``, shaped like ``xs``, without its constant ``0.5*||X||^2``."""
        self._check(g)
        val = 0.5 * float(np.vdot(g @ self.sts, g)) - float(np.vdot(g, self.xs))
        if self.graph is not None:
            val += 0.5 * self.beta * float(np.vdot(g, self.graph @ g))
        return val

    def gradient(self, g):
        """``g @ S.T S - X S`` (plus ``beta * H g``); ``g`` must be shaped like ``xs``."""
        self._check(g)
        grad = g @ self.sts - self.xs
        if self.graph is not None:
            grad = grad + self.beta * (self.graph @ g)
        return grad


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
    h_g : NeighborGraph, optional
        Sample graph whose Laplacian regularizes the core; pass only for
        the sample-mode core.  Checked as :func:`fit` checks its graph.
        The graph keeps its ``||H||_2``, so the norm is not recomputed
        per call.
    callback : callable, optional
        ``callback(g_new, y, grad_y, f_new)`` once per iteration, at its
        accepted iterate; ``f_new`` is ``Subproblem.objective(g_new)``,
        without ``0.5*||X||^2``, the value the restart test compares.

    Returns
    -------
    ndarray
        The final nonnegative iterate; its subproblem objective never
        exceeds the initial one.
    """
    g_init = as_tensor(g_init)
    sub = Subproblem(subchain2, x_unfold, h_g, cfg.beta)
    lipschitz = sub.lipschitz
    if lipschitz == 0.0:
        raise NumericalError("all-zero subchain gives a zero step size")

    g_curr = g_init
    y = g_init
    alpha = 1.0
    f_curr = sub.objective(g_init)
    for _ in range(cfg.t_max):
        # The step from the search point, retaken from the current iterate
        # on a momentum overshoot: restart and take a plain projected
        # gradient step, which majorization makes non-increasing.
        for y in (y, g_curr):
            grad = sub.gradient(y)
            g_next = prox_step(y, grad, lipschitz)
            f_next = sub.objective(g_next)
            if not f_next > f_curr:
                break
            alpha = 1.0
        if callback is not None:
            callback(g_next, y, grad, f_next)
        a_nxt = 0.5 * (1.0 + math.sqrt(4.0 * alpha * alpha + 1.0))
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
        Nonnegative data tensor of order >= 2, with a nonzero entry and a
        finite ``||X||^2``, else ``ValueError`` before any work; samples
        along the last dimension when a graph is supplied.
    ranks : sequence of int
        Cyclic rank chain, one entry per tensor dimension.
    cfg : SolverConfig, optional
        Defaults to ``SolverConfig()``.
    graph : NeighborGraph, optional
        Sample graph whose Laplacian regularizes the last core.  With
        ``cfg.beta == 0`` (or no graph) the run is the plain nonnegative
        fit, bit-for-bit.  With ``cfg.beta > 0`` it is checked before any
        work, and its ``||H||_2`` is taken then: a ``beta * ||H||_2`` that
        overflows float64 raises ``ValueError``.

    Returns
    -------
    (TRCores, FitReport)
        Nonnegative cores and the per-sweep progress record.  The reported
        objective is measured at the sample mode, solved last, as its last
        ``f_new``; every mode's value is identical because the unfoldings
        only permute entries.  A non-finite objective raises
        ``NumericalError``; a non-finite initial one does so before any
        core is solved.
    """
    x = as_tensor(x)
    if cfg is None:
        cfg = SolverConfig()
    if x.ndim < 2:
        raise ValueError("fit requires a tensor of order >= 2")
    # A sum of squares is NaN or Inf exactly when an entry is NaN or +-Inf,
    # or when it overflows, so this one value checks both.
    norm_x2 = float(np.vdot(x, x))
    if not math.isfinite(norm_x2):
        raise ValueError("data tensor must be finite (no NaN or Inf) and not too large "
                         "for float64: its squared norm must not overflow")
    # Squares of entries below about 2e-162 underflow to 0, so a zero norm alone
    # does not mean zero data.
    if x.min() < 0 or not (norm_x2 > 0 or x.any()):
        raise ValueError("data tensor must be nonnegative, with a nonzero entry")
    d = x.ndim

    graph = _sample_graph(graph, cfg.beta, x.shape[-1])

    t0 = time.perf_counter()
    # A checked ring throughout, so build_subchain reads it without a copy.
    cores = init_random(x.shape, ranks, cfg.seed)
    x_unfolds = _unfoldings(x)
    # Every mode's subchain is built into this one buffer, sized to the
    # largest.  Each is read only until the next build, and nothing the fit
    # returns refers to it.
    workspace = np.empty(max(x.size // i * r * r_next
                             for r, i, r_next in (c.shape for c in cores)))

    objectives, seconds = [], []

    def add_objective(f):
        """Append ``0.5*||X||^2 + f``, which must be finite, to ``objectives``."""
        obj = 0.5 * norm_x2 + f
        if not math.isfinite(obj):
            raise NumericalError(f"objective became non-finite: {obj}")
        objectives.append(obj)

    sub = Subproblem(build_subchain(cores, d - 1, workspace), x_unfolds[d - 1], graph, cfg.beta)
    add_objective(sub.objective(core_unfold2(cores[d - 1])))
    # A fit that starts at an exact decomposition reads an initial objective
    # of rounding size, or even below zero where the expanded form cancels;
    # changes are then measured against the rounding of ||X||^2 instead.
    scale = max(objectives[0], np.finfo(np.float64).eps * norm_x2)
    terminated_by = "max_sweeps"
    f_last = None

    def keep_objective(g_new, y, grad_y, f_new):
        nonlocal f_last
        f_last = f_new

    for _ in range(cfg.max_sweeps):
        for n in range(d):
            sub2 = build_subchain(cores, n, workspace)
            g0 = core_unfold2(cores[n])
            sample = n == d - 1
            g = solve_core(x_unfolds[n], sub2, g0, cfg, h_g=graph if sample else None,
                           callback=keep_objective if sample else None)
            cores = cores._replace(n, core_fold2(g, *cores[n].shape))
        add_objective(f_last)
        seconds.append(time.perf_counter() - t0)
        if abs(objectives[-2] - objectives[-1]) / scale < cfg.tol:
            terminated_by = "tol"
            break

    report = FitReport(
        objective_per_sweep=np.asarray(objectives[1:]),
        rel_change_per_sweep=np.abs(np.diff(objectives)) / scale,
        seconds_per_sweep=np.asarray(seconds),
        sweeps_run=len(seconds),
        terminated_by=terminated_by,
        wall_seconds=time.perf_counter() - t0,
        initial_objective=objectives[0],
    )
    return cores, report
