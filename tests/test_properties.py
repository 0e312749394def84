"""Property-based checks of fit's guarantees on odd inputs.

Orders 2 to 5, dimensions and ranks that may be 1, a graph weight of 0,
0.3 or 5, and mutual p-NN graphs with p anywhere from 1 to n - 1.  The
examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tring.graph import neighbor_graph
from tring.ring import build_subchain, core_unfold2, init_random, reconstruct, subchain_unfold2
from tring.solver import SolverConfig, fit, solve_core
from tring.tensor_ops import unfold_tr

EXAMPLES = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def problems(draw):
    """``(x, ranks, graph, cfg)`` for a small random nonnegative tensor."""
    order = draw(st.integers(2, 5))
    n = draw(st.integers(2, 6))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=order - 1, max_size=order - 1)))
    ranks = tuple(draw(st.lists(st.integers(1, 3), min_size=order, max_size=order)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random(dims + (n,))
    graph = neighbor_graph(x, draw(st.integers(1, n - 1)))
    cfg = SolverConfig(
        t_max=draw(st.integers(1, 8)),
        max_sweeps=draw(st.integers(1, 8)),
        tol=1e-12,
        beta=draw(st.sampled_from([0.0, 0.3, 5.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    return x, ranks, graph, cfg


@EXAMPLES
@given(problems())
def test_fit_keeps_its_guarantees(problem):
    x, ranks, graph, cfg = problem
    cores, report = fit(x, ranks, cfg, graph)
    norm_x2 = float(np.sum(x**2))

    assert cores.nonneg and all(np.all(c >= 0) for c in cores)

    objectives = np.concatenate([[report.initial_objective], report.objective_per_sweep])
    assert np.all(np.diff(objectives) <= 1e-12 * norm_x2)

    f = report.objective_per_sweep[-1]
    g = core_unfold2(cores[-1])
    dense = 0.5 * np.sum((x - reconstruct(cores)) ** 2)
    dense += 0.5 * cfg.beta * np.sum(g * (graph.laplacian @ g))
    assert abs(f - dense) <= 1e-8 * f + 1e-13 * norm_x2

    cores_b, report_b = fit(x, ranks, cfg, graph)
    assert all(np.array_equal(a, b) for a, b in zip(cores, cores_b))
    assert np.array_equal(report.objective_per_sweep, report_b.objective_per_sweep)


@EXAMPLES
@given(problems())
def test_no_inner_iterate_raises_the_core_objective(problem):
    # Every core's subproblem at the random start, read after each accepted
    # iterate through solve_core's callback and measured densely.  Plain
    # momentum overshoots here; the restart must undo it.
    x, ranks, graph, cfg = problem
    norm_x2 = float(np.sum(x**2))
    cores = init_random(x.shape, ranks, cfg.seed)
    for n in range(x.ndim):
        x_unfold = unfold_tr(x, n)
        sub2 = subchain_unfold2(build_subchain(cores, n))
        h = graph.laplacian if n == x.ndim - 1 else None

        def objective(g):
            val = 0.5 * np.sum((x_unfold - g @ sub2.T) ** 2)
            if h is not None:
                val += 0.5 * cfg.beta * np.sum(g * (h @ g))
            return val

        g0 = core_unfold2(cores[n])
        values = [objective(g0)]
        solve_core(x_unfold, sub2, g0, cfg, h_g=h,
                   callback=lambda g, y, grad: values.append(objective(g)))
        assert len(values) == cfg.t_max + 1
        assert np.all(np.diff(values) <= 1e-12 * norm_x2)


@EXAMPLES
@given(problems())
def test_zero_beta_ignores_the_graph_bitwise(problem):
    x, ranks, graph, cfg = problem
    cfg.beta = 0.0
    cores_a, rep_a = fit(x, ranks, cfg)
    cores_b, rep_b = fit(x, ranks, cfg, graph)
    assert all(np.array_equal(a, b) for a, b in zip(cores_a, cores_b))
    assert np.array_equal(rep_a.objective_per_sweep, rep_b.objective_per_sweep)
