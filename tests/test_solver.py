"""Solver pieces against an independent projected gradient, and the
descent/majorization guarantees.  The finite-difference gradients and the
Lipschitz inequality are acceptance criteria 2 and 3, checked there alone."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import subproblem_objective
from scipy import sparse

import tring.graph
import tring.solver
from tring.graph import NeighborGraph, neighbor_graph
from tring.ring import (
    build_subchain,
    core_unfold2,
    init_random,
    reconstruct,
    relative_error,
)
from tring.solver import (
    NumericalError,
    SolverConfig,
    Subproblem,
    fit,
    prox_step,
    search_point,
    solve_core,
)
from tring.synthetic import blob_tensor, ring_tensor
from tring.tensor_ops import _unfoldings, unfold_tr


def laplacian_graph(lap):
    """A hand-built graph that applies the Laplacian ``lap``."""
    degree = np.diag(lap).copy()
    return NeighborGraph(w=np.diag(degree) - lap, degree=degree, laplacian=lap)


def empty_graph(n):
    return laplacian_graph(np.zeros((n, n)))


def random_instance(seed, rows=5, cols=8, width=4):
    rng = np.random.default_rng(seed)
    g = np.abs(rng.standard_normal((rows, width)))
    s2 = np.abs(rng.standard_normal((cols, width)))
    xn = np.abs(rng.standard_normal((rows, cols)))
    return g, s2, xn


def projected_gradient_oracle(xn, s2, g0, tol=1e-10, max_iter=20000):
    """Plain projected gradient with an SVD-based step size."""
    sts = s2.T @ s2
    xs = xn @ s2
    lipschitz = np.linalg.norm(sts, 2)
    g = g0.copy()
    for _ in range(max_iter):
        g_new = np.maximum(0.0, g - (g @ sts - xs) / lipschitz)
        if np.abs(g_new - g).max() < tol:
            return g_new
        g = g_new
    return g


class TestGradients:
    def test_zero_at_exact_fit(self):
        g, s2, _ = random_instance(0)
        xn = g @ s2.T
        assert np.abs(Subproblem(s2, xn).gradient(g)).max() <= 1e-12 * np.abs(xn).max()

    def test_orthonormal_subchain_zero_data(self):
        g = np.abs(np.random.default_rng(1).standard_normal((5, 3)))
        s2, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((8, 3)))
        grad = Subproblem(s2, np.zeros((5, 8))).gradient(g)
        assert np.allclose(grad, g, rtol=1e-12, atol=1e-13)

    def test_graph_gradient_with_zero_beta_is_plain(self):
        g, s2, xn = random_instance(9)
        h = np.random.default_rng(10).random((5, 5))
        h = h + h.T
        assert np.array_equal(
            Subproblem(s2, xn, h, 0.0).gradient(g), Subproblem(s2, xn).gradient(g)
        )

    def test_laplacian_annihilates_constant_rows_at_exact_fit(self):
        rng = np.random.default_rng(11)
        s2 = np.abs(rng.standard_normal((8, 4)))
        g = np.tile(np.abs(rng.standard_normal((1, 4))), (6, 1))  # constant rows
        xn = g @ s2.T
        graph = neighbor_graph(rng.random((3, 6)), 2)
        grad = Subproblem(s2, xn, graph, 0.5).gradient(g)
        assert np.abs(grad).max() <= 1e-10

    def test_shape_mismatch_raises(self):
        # X has 5 columns, S has 4 rows.
        with pytest.raises(ValueError, match="shape mismatch"):
            Subproblem(np.ones((4, 3)), np.ones((3, 5)))

    @pytest.mark.parametrize("rows, cols", [(1, 4), (5, 3), (4, 4)])
    def test_gradient_rejects_an_iterate_not_shaped_like_xs(self, rows, cols):
        # A one-row iterate would broadcast against the (5, 4) cross term.
        g, s2, xn = random_instance(3)
        sub = Subproblem(s2, xn)
        with pytest.raises(ValueError, match="shape mismatch"):
            sub.gradient(g[:rows, :cols])

    @pytest.mark.parametrize("rows, cols", [(1, 4), (5, 3), (4, 4)])
    def test_objective_rejects_an_iterate_not_shaped_like_xs(self, rows, cols):
        g, s2, xn = random_instance(3)
        sub = Subproblem(s2, xn)
        with pytest.raises(ValueError, match="shape mismatch"):
            sub.objective(g[:rows, :cols])

    def test_solve_core_rejects_a_start_not_shaped_like_xs(self):
        # The start is scored before any gradient, so the objective's check
        # is the one that names the mismatch.
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_core(np.ones((2, 3)), np.ones((3, 1)), np.ones((1, 1)), SolverConfig(t_max=1))


class TestLipschitz:
    def test_orthonormal_columns_give_one(self):
        s2, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((9, 4)))
        assert Subproblem(s2, np.zeros((1, 9))).lipschitz == pytest.approx(1.0, rel=1e-8)

    def test_zero_beta_reduces_to_plain(self):
        s2 = np.random.default_rng(1).random((7, 3))
        h, xn = np.eye(5), np.zeros((5, 7))
        assert Subproblem(s2, xn, h, 0.0).lipschitz == Subproblem(s2, xn).lipschitz

    def test_no_laplacian_gives_plain(self):
        # No graph gives the plain constant, whatever beta is.
        s2, xn = np.random.default_rng(2).random((7, 3)), np.zeros((5, 7))
        assert Subproblem(s2, xn, None, 0.4).lipschitz == Subproblem(s2, xn).lipschitz

    @pytest.mark.parametrize("case", ["rank_deficient", "all_zero", "one_column"])
    def test_lipschitz_never_below_top_gram_eigenvalue(self, case):
        rng = np.random.default_rng(31)
        if case == "rank_deficient":
            s2 = np.abs(rng.standard_normal((9, 2))) @ np.abs(rng.standard_normal((2, 6)))
        elif case == "all_zero":
            s2 = np.zeros((7, 4))
        else:
            s2 = np.abs(rng.standard_normal((8, 1)))
        lip = Subproblem(s2, np.zeros((1, s2.shape[0]))).lipschitz
        assert lip >= np.linalg.eigvalsh(s2.T @ s2)[-1]

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    @pytest.mark.parametrize("block", [None, 5])
    def test_solver_steps_at_the_public_constant(self, monkeypatch, block, beta):
        # Criteria 2 and 3 check Subproblem's gradient and constant; every
        # step solve_core takes must use exactly that gradient and that
        # constant, and hand its callback exactly that objective.  With
        # block=5 the sample-mode subchain's 16 rows come in blocks of 5, 5,
        # 5 and 1.
        if block is not None:
            monkeypatch.setattr(tring.solver, "_BLOCK", block)
        x, _ = blob_tensor((4, 4), 3, 10, seed=4)
        graph = neighbor_graph(x, 4)
        cores = init_random(x.shape, (2, 2, 3), seed=1)
        s2 = build_subchain(cores, 2)
        xn = unfold_tr(x, 2)
        assert s2.shape[0] == 16
        sub = Subproblem(s2, xn, graph, beta)
        lip = sub.lipschitz
        steps = []

        def audit(g_new, y, grad_y, f_new):
            steps.append(np.array_equal(grad_y, sub.gradient(y))
                         and np.array_equal(g_new, prox_step(y, grad_y, lip))
                         and f_new == sub.objective(g_new))

        solve_core(xn, s2, core_unfold2(cores[2]),
                   SolverConfig(t_max=20, beta=beta), h_g=graph,
                   callback=audit)
        assert len(steps) == 20 and all(steps)

    @pytest.mark.parametrize(
        "case", ["isolated", "no_edges", "path2", "path3", "complete"]
    )
    def test_graph_lipschitz_never_below_top_eigenvalue(self, case):
        # With an all-zero subchain the graph Lipschitz constant is beta*||H||_2
        # alone; it must bound the top eigenvalue of H, which Lanczos can
        # undershoot by an ulp (1.9999999999999998 for the 2-node path's 2.0).
        rng = np.random.default_rng(30)
        if case == "isolated":
            graphs = []
            for n in (6, 12, 40, 150):
                for _ in range(4):
                    g = neighbor_graph(rng.random((3, n)), 1)
                    assert np.any(g.degree == 0)
                    graphs.append(g)
        elif case == "no_edges":
            graphs = [empty_graph(7)]
        elif case.startswith("path"):
            n = int(case[-1])
            w = np.eye(n, k=1) + np.eye(n, k=-1)
            graphs = [laplacian_graph(np.diag(w.sum(axis=1)) - w)]
        else:
            graphs = [laplacian_graph(n * np.eye(n) - np.ones((n, n))) for n in (3, 9, 30)]
        for graph in graphs:
            top = np.linalg.eigvalsh(graph.laplacian)[-1]
            zero_x = np.zeros((graph.n_samples, 1))
            lip = Subproblem(np.zeros((1, 1)), zero_x, graph, 1.0).lipschitz
            assert top <= lip <= top * (1 + 1e-8) + 1e-12


    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_gram_is_numerical_error(self, bad):
        s2 = np.ones((4, 2))
        s2[1, 0] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            sub = Subproblem(s2, np.ones((3, 4)))
        with pytest.raises(NumericalError, match="subchain Gram became non-finite"):
            sub.lipschitz

    def test_non_finite_constant_is_numerical_error(self):
        # Each term is finite, about 1e308; their sum is not.  (A beta*||H||_2
        # that overflows on its own is a ValueError when the graph is checked.)
        path = np.array([[1.0, -1.0], [-1.0, 1.0]])  # ||H||_2 = 2
        sub = Subproblem(np.array([[1e154]]), np.ones((2, 1)), laplacian_graph(path), 5e307)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite subproblem step size: inf"):
                sub.lipschitz


class TestMomentumPieces:
    def test_search_points_follow_the_momentum_recurrence(self, monkeypatch):
        # Without a restart, step k+1 starts from
        # y = g_k + (a_k - 1)/a_{k+1} * (g_k - g_{k-1}), with a_1 = 1 and
        # a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2, bit for bit.
        g0, s2, xn = random_instance(3)
        t_max = 12
        steps = []
        prox_calls = []

        def counting_prox(*args):
            prox_calls.append(1)
            return prox_step(*args)

        monkeypatch.setattr(tring.solver, "prox_step", counting_prox)
        solve_core(xn, s2, g0, SolverConfig(t_max=t_max, beta=0.0),
                   callback=lambda g_new, y, grad_y, f_new: steps.append((g_new, y)))
        assert len(prox_calls) == t_max  # no momentum restart retook a step
        assert np.array_equal(steps[0][1], g0)
        alpha, g_prev = 1.0, g0
        alphas = [alpha]
        for (g, _), (_, y) in zip(steps, steps[1:]):
            a_nxt = 0.5 * (1.0 + np.sqrt(4.0 * alpha * alpha + 1.0))
            assert np.array_equal(y, g + (alpha - 1.0) / a_nxt * (g - g_prev))
            alpha, g_prev = a_nxt, g

    def test_restart_retakes_the_step_from_the_accepted_iterate(self, monkeypatch):
        # A step whose objective rises is retaken once, as a plain projected
        # gradient step from the last accepted iterate, and the next search
        # point starts the momentum over (alpha = 1).  The callback sees the
        # retaken step.  Each step is logged as its prox calls, then the
        # callback, then its search point.
        g0, s2, xn = random_instance(5)
        t_max = 60
        events = []

        def logging_prox(y, grad, lipschitz):
            events.append(("prox", y, grad))
            return prox_step(y, grad, lipschitz)

        def logging_search_point(g, g_prev, alpha, a_nxt):
            events.append(("search", alpha))
            return search_point(g, g_prev, alpha, a_nxt)

        monkeypatch.setattr(tring.solver, "prox_step", logging_prox)
        monkeypatch.setattr(tring.solver, "search_point", logging_search_point)
        solve_core(xn, s2, g0, SolverConfig(t_max=t_max, beta=0.0),
                   callback=lambda g_new, y, grad_y, f_new: events.append(("step", g_new, y, grad_y)))
        steps, current = [], []
        for event in events:
            current.append(event)
            if event[0] == "search":
                steps.append(current)
                current = []
        assert len(steps) == t_max and current == []
        proxes = [[e for e in step if e[0] == "prox"] for step in steps]
        # Past step 1, alpha only grows unless a restart resets it to 1.
        restarts = sum(step[-1][1] == 1.0 for step in steps[1:])
        assert restarts >= 1 and sum(map(len, proxes)) == t_max + restarts
        g_prev = g0
        for step, prox in zip(steps, proxes):
            _, g_new, y, grad = step[-2]
            assert len(prox) in (1, 2)
            # The callback gets the accepted step's search point and gradient.
            assert y is prox[-1][1] and grad is prox[-1][2]
            if len(prox) == 2:
                assert np.array_equal(prox[1][1], g_prev)  # bitwise, not just close
                assert step[-1][1] == 1.0  # alpha_curr of this step's search point
            g_prev = g_new

    @staticmethod
    def momentum_pairs(monkeypatch, instance, t_max):
        # The (a_k, a_{k+1}) pair solve_core hands each search point.
        pairs = []

        def recording_search_point(g, g_prev, alpha, a_nxt):
            pairs.append((alpha, a_nxt))
            return search_point(g, g_prev, alpha, a_nxt)

        monkeypatch.setattr(tring.solver, "search_point", recording_search_point)
        g0, s2, xn = instance
        solve_core(xn, s2, g0, SolverConfig(t_max=t_max, beta=0.0))
        assert len(pairs) == t_max
        return pairs

    def test_alpha_golden_start(self, monkeypatch):
        pairs = self.momentum_pairs(monkeypatch, random_instance(3), 12)
        assert pairs[0][0] == 1.0
        assert pairs[0][1] == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)

    def test_alpha_large_argument(self, monkeypatch):
        # Geometrically shrinking subchain columns make the problem
        # ill-conditioned enough that momentum never overshoots, so a_k
        # grows past 100 without a restart.
        g0, s2, xn = random_instance(0)
        s2 = s2 * np.geomspace(1.0, 1e-2, s2.shape[1])
        pairs = self.momentum_pairs(monkeypatch, (g0, s2, xn), 250)
        assert max(a for a, _ in pairs) > 100.0
        for a, a_nxt in pairs:
            assert a_nxt == pytest.approx((1 + np.sqrt(4 * a * a + 1)) / 2, rel=1e-12)

    def test_alpha_strictly_increasing(self, monkeypatch):
        pairs = self.momentum_pairs(monkeypatch, random_instance(3), 50)
        for (a, a_nxt), (a_after, _) in zip(pairs, pairs[1:]):
            assert a_nxt > a
            assert a_after in (a_nxt, 1.0)  # carried over, or reset by a restart

    def test_search_point_zero_momentum(self):
        g = np.random.default_rng(0).random((3, 2))
        assert np.array_equal(search_point(g, g, 1.7, 2.2), g)
        # first iteration: alpha = 1 gives coefficient 0
        prev = np.random.default_rng(1).random((3, 2))
        assert np.array_equal(search_point(g, prev, 1.0, (1 + np.sqrt(5)) / 2), g)

    def test_search_point_scalar_substitution(self):
        y = search_point(np.array([[2.0]]), np.array([[1.0]]), 1.618, 2.148)
        assert y[0, 0] == pytest.approx(2.0 + 0.618 / 2.148, rel=1e-12)

    def test_prox_fixed_point_and_projection(self):
        y = np.array([[1.0, 2.0]])
        assert np.array_equal(prox_step(y, np.zeros_like(y), 3.0), y)
        assert np.array_equal(
            prox_step(np.array([[-1.0, 2.0]]), np.zeros((1, 2)), 1.0),
            np.array([[0.0, 2.0]]),
        )
        assert prox_step(np.array([[1.0]]), np.array([[3.0]]), 2.0)[0, 0] == 0.0

    def test_prox_requires_positive_step(self):
        with pytest.raises(ValueError):
            prox_step(np.ones((1, 1)), np.ones((1, 1)), 0.0)


class TestSolveCore:
    def test_stationary_at_exact_solution(self):
        g, s2, _ = random_instance(0)
        xn = g @ s2.T
        out = solve_core(xn, s2, g, SolverConfig(t_max=25, beta=0.0))
        assert np.abs(out - g).max() <= 1e-12 * g.max()

    def test_scalar_problem_closed_form(self):
        out = solve_core(
            np.array([[2.0]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
            SolverConfig(t_max=50, beta=0.0),
        )
        assert out[0, 0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_projected_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s2 = np.abs(rng.standard_normal((9, 4)))
        xn = np.abs(rng.standard_normal((6, 9)))
        g0 = np.abs(rng.standard_normal((6, 4)))
        ours = solve_core(xn, s2, g0, SolverConfig(t_max=400, beta=0.0))
        ref = projected_gradient_oracle(xn, s2, g0)
        f_ours = subproblem_objective(ours, s2, xn)
        f_ref = subproblem_objective(ref, s2, xn)
        assert f_ours <= f_ref + 1e-4 * max(1.0, f_ref)

    def test_never_worse_than_start_and_nonnegative(self):
        rng = np.random.default_rng(10)
        s2 = np.abs(rng.standard_normal((7, 3)))
        xn = np.abs(rng.standard_normal((5, 7)))
        g0 = np.abs(rng.standard_normal((5, 3)))
        out = solve_core(xn, s2, g0, SolverConfig(t_max=3, beta=0.0))
        assert np.all(out >= 0)
        assert subproblem_objective(out, s2, xn) <= subproblem_objective(g0, s2, xn) + 1e-9

    def test_majorization_bound_at_every_step(self):
        # Replays the audit through the callback hook: each accepted step
        # must satisfy f(g_new) <= f(y) + <grad, g_new - y> + L/2 ||g_new - y||^2,
        # and the objective handed over is f(g_new) less 0.5*||X||^2.
        rng = np.random.default_rng(11)
        s2 = np.abs(rng.standard_normal((8, 4)))
        xn = np.abs(rng.standard_normal((6, 8)))
        g0 = np.abs(rng.standard_normal((6, 4)))
        lip = Subproblem(s2, xn).lipschitz
        half_norm_x2 = 0.5 * float(np.vdot(xn, xn))
        checked = []

        def audit(g_new, y, grad_y, f_sub):
            f_new = subproblem_objective(g_new, s2, xn)
            phi = (
                subproblem_objective(y, s2, xn)
                + float(np.vdot(grad_y, g_new - y))
                + 0.5 * lip * np.linalg.norm(g_new - y) ** 2
            )
            checked.append(f_new <= phi + 1e-9 * max(1.0, abs(phi))
                           and half_norm_x2 + f_sub == pytest.approx(f_new, rel=1e-10))

        solve_core(xn, s2, g0, SolverConfig(t_max=60, beta=0.0), callback=audit)
        assert len(checked) == 60 and all(checked)

    def test_subproblem_convexity_witness(self):
        rng = np.random.default_rng(12)
        s2 = np.abs(rng.standard_normal((8, 4)))
        xn = np.abs(rng.standard_normal((6, 8)))
        for _ in range(50):
            g1 = rng.standard_normal((6, 4))
            g2 = rng.standard_normal((6, 4))
            lam = rng.uniform(0.01, 0.99)
            mid = subproblem_objective(lam * g1 + (1 - lam) * g2, s2, xn)
            chord = (lam * subproblem_objective(g1, s2, xn)
                     + (1 - lam) * subproblem_objective(g2, s2, xn))
            assert mid <= chord + 1e-9 * max(1.0, abs(chord))

    def test_zero_subchain_is_degenerate(self):
        with pytest.raises(NumericalError, match="all-zero subchain gives a zero step size"):
            solve_core(
                np.ones((3, 4)),
                np.zeros((4, 2)),
                np.ones((3, 2)),
                SolverConfig(t_max=5, beta=0.0),
            )


class TestFit:
    def test_no_config_is_the_default_config(self):
        x = blob_tensor((3, 3), 2, 4, seed=0)[0]
        cores_a, rep_a = fit(x, (2, 2, 2))
        cores_b, rep_b = fit(x, (2, 2, 2), SolverConfig())
        assert all(np.array_equal(a, b) for a, b in zip(cores_a, cores_b))
        assert np.array_equal(rep_a.objective_per_sweep, rep_b.objective_per_sweep)
        assert (rep_a.sweeps_run, rep_a.terminated_by) == (rep_b.sweeps_run, rep_b.terminated_by)

    def test_exact_recovery_small(self):
        x, _ = ring_tensor((6, 5, 4), (2, 2, 2), seed=0)
        cfg = SolverConfig(t_max=60, max_sweeps=300, tol=1e-10, beta=0.0, seed=3)
        cores, report = fit(x, (2, 2, 2), cfg)
        assert relative_error(x, cores) <= 1e-3
        assert cores.nonneg and all(np.all(c >= 0) for c in cores)
        # The reported objective comes from the solver's expanded form, which
        # cancels most where the fit is nearly exact.
        f = report.objective_per_sweep[-1]
        dense = 0.5 * np.sum((x - reconstruct(cores)) ** 2)
        assert abs(f - dense) <= 1e-8 * f + 1e-13 * np.sum(x**2)

    def test_objective_identical_across_modes(self):
        # The reported value is measured at the sample mode, but every
        # mode's matricized residual has the same Frobenius norm.
        x, _ = ring_tensor((4, 3, 5), (2, 2, 2), seed=4)
        cores = init_random((4, 3, 5), (2, 2, 2), seed=77)
        vals = []
        for mode in range(3):
            g2 = core_unfold2(cores[mode])
            s2 = build_subchain(cores, mode)
            vals.append(0.5 * np.linalg.norm(unfold_tr(x, mode) - g2 @ s2.T) ** 2)
        assert np.allclose(vals, vals[0], rtol=1e-12)

    def test_tol_termination_reported(self):
        x, _ = blob_tensor((3, 3), 2, 5, seed=5)
        cfg = SolverConfig(t_max=30, max_sweeps=200, tol=1e-4, beta=0.0, seed=2)
        _, report = fit(x, (2, 2, 2), cfg)
        assert report.terminated_by == "tol"
        assert report.sweeps_run < 200
        assert report.rel_change_per_sweep[-1] < 1e-4

    def test_max_sweeps_termination_reported(self):
        x, _ = ring_tensor((4, 4, 4), (2, 2, 2), seed=6)
        cfg = SolverConfig(t_max=5, max_sweeps=3, tol=1e-15, beta=0.0, seed=0)
        _, report = fit(x, (2, 2, 2), cfg)
        assert report.terminated_by == "max_sweeps"
        assert report.sweeps_run == 3
        assert report.seconds_per_sweep.shape == (3,)
        assert np.all(np.diff(report.seconds_per_sweep) >= 0)

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            fit(-np.ones((3, 3)), (1, 1), SolverConfig(beta=0.0))

    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_order_below_two_rejected(self, shape, monkeypatch):
        monkeypatch.setattr("tring.solver.init_random", None)  # no work may start
        with pytest.raises(ValueError, match="fit requires a tensor of order >= 2"):
            fit(np.ones(shape), (1,) * len(shape), SolverConfig(beta=0.0))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(5, 6, 7), (3, 4, 5), (16, 16, 3, 50)])
    def test_all_zero_data_rejected_for_every_seed(self, shape, seed, monkeypatch):
        # It used to depend on the seed: some fits returned, others raised
        # NumericalError on a zero step size.
        monkeypatch.setattr("tring.solver.init_random", None)  # no work may start
        with pytest.raises(ValueError, match="data tensor must be nonnegative, with a nonzero"):
            fit(np.zeros(shape), (2,) * len(shape), SolverConfig(seed=seed, beta=0.0))

    def test_overflowing_objective_is_numerical_error(self):
        # beta * ||H||_2 is finite, but the graph term of the objective is not.
        x, _ = blob_tensor((3, 3), 3, 10, seed=0)
        graph = neighbor_graph(x, 3)
        beta = 0.9 * np.finfo(np.float64).max / graph.norm
        cfg = SolverConfig(t_max=1, max_sweeps=3, beta=beta)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="objective became non-finite: inf"):
                fit(x, (2, 2, 2), cfg, graph)

    def test_overflowing_initial_objective_raises_before_any_core_solve(self, monkeypatch):
        # beta * ||H||_2 = 5.3e307 is finite, but the initial objective's graph
        # term is not.
        x, _ = blob_tensor((3, 3), 3, 10, seed=0)
        graph = neighbor_graph(x, 3)
        solves = []
        real = tring.solver.solve_core

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tring.solver, "solve_core", counting)
        with pytest.raises(NumericalError, match="objective became non-finite: inf"):
            fit(x, (2, 2, 2), SolverConfig(beta=1e307), graph)
        assert not solves

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_non_finite_data_rejected_before_fitting(self, bad, beta, monkeypatch):
        x, _ = ring_tensor((4, 4, 5), (2, 2, 2), seed=0)
        x[1, 2, 3] = bad
        monkeypatch.setattr("tring.solver.init_random", None)  # no work may start
        with pytest.raises(ValueError, match="finite"):
            fit(x, (2, 2, 2), SolverConfig(beta=beta), empty_graph(5))

    @pytest.mark.parametrize("field, value", [
        ("beta", -0.1), ("beta", np.nan), ("beta", np.inf),
        ("tol", 0.0), ("tol", -1e-6), ("tol", np.nan), ("tol", np.inf),
        ("t_max", 0), ("t_max", 2.5), ("t_max", "3"),
        ("max_sweeps", 0), ("max_sweeps", 2.5), ("max_sweeps", None),
        ("seed", 1.5), ("seed", -1),
        ("beta", None), ("tol", "1e-6"), ("beta", 1j),
    ])
    def test_config_rejects_values_it_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
        cfg = SolverConfig()
        before = getattr(cfg, field)
        with pytest.raises(ValueError, match=field):
            setattr(cfg, field, value)
        assert getattr(cfg, field) == before

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones((3, 3, 3)), (2, 2), SolverConfig(beta=0.0))

    def test_graph_size_mismatch_rejected(self):
        x, _ = blob_tensor((3, 3), 2, 5, seed=7)
        graph = neighbor_graph(x[..., :8], 2)
        with pytest.raises(ValueError):
            fit(x, (2, 2, 2), SolverConfig(beta=0.1), graph)

    @pytest.mark.parametrize("mode", range(3))
    def test_solve_core_independent_of_unfolding_memory_order(self, mode):
        # unfold_tr returns F-ordered arrays; fit passes C-ordered views for odd modes.
        x, _ = blob_tensor((4, 5), 3, 6, seed=9)
        cores = init_random(x.shape, (2, 3, 2), seed=2)
        s2 = build_subchain(cores, mode)
        g0 = core_unfold2(cores[mode])
        xf = np.asfortranarray(unfold_tr(x, mode))
        xc = np.ascontiguousarray(xf)
        assert xf.flags.f_contiguous and xc.flags.c_contiguous
        cfg = SolverConfig(t_max=30, beta=0.0)
        got_f = solve_core(xf, s2, g0, cfg)
        got_c = solve_core(xc, s2, g0, cfg)
        assert np.linalg.norm(got_f - got_c) <= 1e-12 * np.linalg.norm(got_c)

    def test_overflowing_data_rejected_before_fitting(self, monkeypatch):
        # ||X||^2 overflows float64: bad input, rejected before any sweep.
        x = np.full((4, 4, 4), 1e160)
        monkeypatch.setattr("tring.solver.init_random", None)  # no work may start
        monkeypatch.setattr("tring.solver.solve_core", None)  # no sweep may start
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="too large for float64"):
                fit(x, (2, 2, 2), SolverConfig(t_max=3, max_sweeps=2, beta=0.0))

    def test_near_overflow_data_with_finite_norm_fits(self):
        x = np.random.default_rng(21).random((3, 3, 4)) * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            cores, report = fit(x, (2, 2, 2), SolverConfig(t_max=10, max_sweeps=5, beta=0.0))
        assert all(np.all(np.isfinite(c)) and np.all(c >= 0) for c in cores)
        assert np.all(np.isfinite(report.objective_per_sweep))
        assert np.all(np.diff(report.objective_per_sweep) <= 0)

    def test_full_rank_subchain_on_synthetic_data(self):
        # When every r_n * r_{n+1} is at most i_n, random chains give
        # full-column-rank subchain unfoldings.
        cores = init_random((6, 6, 6), (2, 2, 2), seed=8)
        for mode in range(3):
            s2 = build_subchain(cores, mode)
            assert np.linalg.matrix_rank(s2) == s2.shape[1]


class TestStopRule:
    # ring_tensor's cores are init_random's for the same seed, so each fit
    # starts at an exact decomposition; its initial objective reads above,
    # at and below zero for seeds 0, 3 and 5.
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_exact_start_measures_changes_against_rounding_of_the_data(self, seed):
        x, _ = ring_tensor((8, 8, 3, 20), (2, 2, 2, 2), seed=seed)
        cfg = SolverConfig(beta=0.0, seed=seed, max_sweeps=20)
        _, report = fit(x, (2, 2, 2, 2), cfg)
        floor = np.finfo(np.float64).eps * np.sum(x**2)
        assert report.initial_objective < floor
        objectives = np.concatenate([[report.initial_objective], report.objective_per_sweep])
        np.testing.assert_allclose(
            report.rel_change_per_sweep, np.abs(np.diff(objectives)) / floor, rtol=1e-12
        )
        # Rounding noise reads as a few units; floored at finfo.tiny, an
        # initial objective of 0 or below made it read about 1e297.
        assert np.all(report.rel_change_per_sweep < 10)

    def test_ordinary_start_measures_changes_against_initial_objective(self):
        x, _ = blob_tensor((4, 4), 2, 6, seed=1)
        _, report = fit(x, (2, 2, 2), SolverConfig(t_max=10, max_sweeps=5, beta=0.0))
        objectives = np.concatenate([[report.initial_objective], report.objective_per_sweep])
        assert np.array_equal(
            report.rel_change_per_sweep,
            np.abs(np.diff(objectives)) / report.initial_objective,
        )


# One fit on 1400 samples: ||X||^2 is a dot over 1.08M entries and the
# sample mode's cross term a 1400x768 GEMM, both large enough for OpenBLAS to
# split across threads (the reported objectives then differ in their last
# bits between 1 and 2 threads), and the channel-mode subchain's 358400 rows
# take 88 set-up blocks.  It prints a digest of the fitted cores.  No core
# update reads ||X||^2, but the restart and stop tests compare objectives,
# so the cores stay bitwise only while no such comparison is a near-tie:
# with tol=5.283890054351239e-07, sweep 3's relative change under one
# thread, the same fit runs 4 sweeps on one thread and 3 on two.  Here
# max_sweeps=3 ends the fit at sweep 3 under any thread count.
_THREADED_FIT = """
import hashlib
import numpy as np
from tring.solver import SolverConfig, fit
from tring.synthetic import blob_tensor
x, _ = blob_tensor((16, 16, 3), 4, 350, seed=2)
cores, _ = fit(x, (4, 2, 2, 5), SolverConfig(t_max=20, max_sweeps=3, beta=0.0))
print(hashlib.sha256(b"".join(c.tobytes() for c in cores)).hexdigest())
"""


class TestBlockedSetup:
    """``Subproblem`` forms S.T S and X S from row blocks of S."""

    # With _BLOCK = 8: fewer rows than a block, exactly one block, one row
    # over, and a whole number of blocks.
    @pytest.mark.parametrize("rows", [5, 8, 9, 32])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_matches_one_shot_formulas(self, monkeypatch, rows, order):
        monkeypatch.setattr(tring.solver, "_BLOCK", 8)
        rng = np.random.default_rng(rows)
        s2 = rng.random((rows, 6))
        x_unfold = np.asarray(rng.random((4, rows)), order=order)
        sub = Subproblem(s2, x_unfold)
        for got, want in zip((sub.sts, sub.xs), (s2.T @ s2, x_unfold @ s2)):
            np.testing.assert_allclose(got, want, rtol=1e-13)
            if rows <= 8:
                assert np.array_equal(got, want)

    def test_block_size_moves_only_rounding(self, monkeypatch):
        x, _ = blob_tensor((6, 6), 3, 20, seed=6)
        graph = neighbor_graph(x, 4)
        cfg = SolverConfig(t_max=30, beta=0.1, seed=3)
        reports = []
        for block in (3, 10**9):
            monkeypatch.setattr(tring.solver, "_BLOCK", block)
            reports.append(fit(x, (2, 2, 3), cfg, graph)[1])
        tiny, huge = reports
        assert tiny.terminated_by == huge.terminated_by == "tol"
        assert tiny.sweeps_run == huge.sweeps_run
        np.testing.assert_allclose(
            tiny.objective_per_sweep, huge.objective_per_sweep, rtol=1e-8
        )

    def test_back_to_back_fits_leave_the_first_untouched(self):
        # Each fit builds its subchains into one workspace; nothing a fit
        # returns may be a view of it, or of any buffer larger than itself.
        x, _ = blob_tensor((5, 4), 2, 6, seed=8)
        cfg = SolverConfig(t_max=10, max_sweeps=4, tol=1e-12, beta=0.0)
        cores_a, rep_a = fit(x, (2, 3, 2), cfg)
        kept_cores = [c.copy() for c in cores_a]
        kept_objectives = rep_a.objective_per_sweep.copy()
        kept_changes = rep_a.rel_change_per_sweep.copy()
        cores_b, _ = fit(2.0 * x + 1.0, (2, 3, 2), cfg)
        assert all(np.array_equal(a, k) for a, k in zip(cores_a, kept_cores))
        assert np.array_equal(rep_a.objective_per_sweep, kept_objectives)
        assert np.array_equal(rep_a.rel_change_per_sweep, kept_changes)
        assert not any(np.shares_memory(a, b) for a in cores_a for b in cores_b)
        for arr in [*cores_a, rep_a.objective_per_sweep, rep_a.rel_change_per_sweep]:
            root = arr
            while root.base is not None:
                root = root.base
            assert root.size == arr.size

    def test_blas_thread_count_keeps_the_cores_bitwise(self):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", _THREADED_FIT], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == len(hashlib.sha256().hexdigest())
        assert digests[0] == digests[1]


def _buffers(x, mats):
    """How many distinct buffers other than ``x``'s hold ``mats``."""
    owners = []
    for m in mats:
        if not np.shares_memory(m, x) and not any(np.shares_memory(m, o) for o in owners):
            owners.append(m)
    return len(owners)


class TestSharedUnfoldings:
    """``fit`` holds ceil(d/2) copies of x: each odd mode reads its
    neighbour's copy in C order."""

    @pytest.mark.parametrize("dims", [(5, 7), (3, 4, 5), (2, 3, 4, 5), (2, 3, 1, 4, 5)])
    def test_every_mode_is_unfold_tr_bit_for_bit(self, dims):
        x = np.random.default_rng(len(dims)).random(dims)
        mats = _unfoldings(x)
        assert len(mats) == x.ndim
        for n, m in enumerate(mats):
            want = unfold_tr(x, n)
            assert m.shape == want.shape
            assert np.ascontiguousarray(m).tobytes() == np.ascontiguousarray(want).tobytes()
        assert _buffers(x, mats) <= math.ceil(x.ndim / 2)
        if x.ndim == 2:
            assert all(np.shares_memory(m, x) for m in mats)

    def test_fit_holds_at_most_half_the_copies_of_x(self):
        # Traced as the benchmark traces its fits.  All i_n >= r_n*r_{n+1},
        # so no subchain is larger than x; d copies would read about 5x.
        # The slack covers the rest of the set-up (a subchain one merge
        # short of the last, the cores and iterates): under 0.25x here.
        dims, ranks = (10, 10, 4, 500), (2, 2, 2, 2)
        x = np.random.default_rng(0).random(dims)
        d = x.ndim
        subchain = max(math.prod(dims) // dims[n] * ranks[n] * ranks[(n + 1) % d]
                       for n in range(d)) * x.itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(x, ranks, SolverConfig(t_max=3, max_sweeps=2, beta=0.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= math.ceil(d / 2) * x.nbytes + subchain + x.nbytes // 4

    @pytest.mark.parametrize("slice_dims", [(6, 5), (4, 3, 3)])
    def test_views_move_only_rounding(self, monkeypatch, slice_dims):
        # Against d F-ordered copies of x: the C-ordered views take other
        # BLAS paths in the set-up, which may move the last bits, not the fit.
        x, _ = blob_tensor(slice_dims, 3, 20, seed=6)
        graph = neighbor_graph(x, 4)
        ranks = (2,) * len(slice_dims) + (3,)
        cfg = SolverConfig(t_max=30, beta=0.1, seed=3)
        shared = fit(x, ranks, cfg, graph)[1]
        monkeypatch.setattr(tring.solver, "_unfoldings",
                            lambda y: [unfold_tr(y, n) for n in range(y.ndim)])
        copied = fit(x, ranks, cfg, graph)[1]
        assert shared.terminated_by == copied.terminated_by == "tol"
        assert shared.sweeps_run == copied.sweeps_run
        np.testing.assert_allclose(
            shared.objective_per_sweep, copied.objective_per_sweep, rtol=1e-8
        )

class TestLaplacianOperator:
    """The sample graph as the Laplacian operator every solver entry point applies."""

    @staticmethod
    def sample_mode_problem(beta=0.5):
        x, _ = blob_tensor((4, 4), 3, 10, seed=4)
        graph = neighbor_graph(x, 4)
        cores = init_random(x.shape, (2, 2, 3), seed=1)
        s2 = build_subchain(cores, 2)
        cfg = SolverConfig(t_max=100, beta=beta)
        return (unfold_tr(x, 2), s2, core_unfold2(cores[2]), cfg), graph

    def test_solve_core_sparse_matches_dense_products(self, monkeypatch):
        args, graph = self.sample_mode_problem()
        sparse_out = solve_core(*args, h_g=graph)
        # A dense Laplacian is not a graph: it goes in through a NeighborGraph.
        with pytest.raises(ValueError, match="NeighborGraph"):
            solve_core(*args, h_g=graph.laplacian)
        dense = graph.laplacian
        monkeypatch.setattr(NeighborGraph, "__matmul__", lambda self, g: dense @ g)
        dense_out = solve_core(*args, h_g=graph)
        assert np.linalg.norm(sparse_out - dense_out) <= 1e-12 * np.linalg.norm(dense_out)

    @pytest.mark.parametrize("entry", ["solve_core", "gradient_gntr", "lipschitz_gntr"])
    def test_only_a_neighbor_graph_is_accepted(self, entry):
        # The GNTR gradient and Lipschitz constant, each taken through Subproblem.
        (xn, s2, g0, cfg), graph = self.sample_mode_problem()
        calls = {
            "solve_core": lambda h, beta: solve_core(xn, s2, g0, SolverConfig(beta=beta), h_g=h),
            "gradient_gntr": lambda h, beta: Subproblem(s2, xn, h, beta).gradient(g0),
            "lipschitz_gntr": lambda h, beta: Subproblem(s2, xn, h, beta).lipschitz,
        }
        for dense in (graph.laplacian, sparse.csr_array(graph.laplacian)):
            with pytest.raises(ValueError, match="graph must be a NeighborGraph"):
                calls[entry](dense, cfg.beta)
            calls[entry](dense, 0.0)  # beta == 0 ignores h_g, as fit ignores its graph
        calls[entry](graph, cfg.beta)

    @pytest.mark.parametrize("entry", ["solve_core", "Subproblem"])
    def test_graph_of_another_sample_count_rejected_as_fit_rejects_it(self, entry):
        (xn, s2, g0, cfg), _ = self.sample_mode_problem()
        n = xn.shape[0]
        other = empty_graph(n + 1)
        calls = {
            "solve_core": lambda: solve_core(xn, s2, g0, cfg, h_g=other),
            "Subproblem": lambda: Subproblem(s2, xn, other, cfg.beta),
        }
        message = f"graph has {n + 1} samples, tensor has {n}"
        with pytest.raises(ValueError, match=message):
            calls[entry]()
        x = blob_tensor((4, 4), 3, 10, seed=4)[0]
        with pytest.raises(ValueError, match=message):
            fit(x, (2, 2, 3), cfg, other)

    @pytest.mark.parametrize("entry", ["fit", "solve_core", "Subproblem"])
    def test_overflowing_graph_constant_rejected_as_fit_rejects_it(self, entry, monkeypatch):
        # beta * ||H||_2 overflows float64: bad input, rejected before any work.
        (xn, s2, g0, cfg), graph = self.sample_mode_problem(beta=1e308)
        x = blob_tensor((4, 4), 3, 10, seed=4)[0]
        monkeypatch.setattr("tring.solver.init_random", None)  # fit may start no work
        calls = {
            "fit": lambda: fit(x, (2, 2, 3), cfg, graph),
            "solve_core": lambda: solve_core(xn, s2, g0, cfg, h_g=graph),
            "Subproblem": lambda: Subproblem(s2, xn, graph, cfg.beta),
        }
        with pytest.raises(ValueError, match=r"beta=1e\+308, \|\|H\|\|_2="):
            calls[entry]()

    def test_norm_computed_once_per_graph_fit(self, monkeypatch):
        calls = []
        real = tring.graph.spectral_norm

        def counting(h):
            calls.append(h.shape)
            return real(h)

        monkeypatch.setattr(tring.graph, "spectral_norm", counting)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        cfg = SolverConfig(t_max=5, max_sweeps=6, tol=1e-15, beta=0.2, seed=1)
        _, report = fit(x, (2, 2, 2), cfg, neighbor_graph(x, 4))
        assert report.sweeps_run == 6
        assert calls == [(16, 16)]

    def test_norm_computed_once_per_graph_across_fits(self, monkeypatch):
        calls = []
        real = tring.graph.spectral_norm

        def counting(h):
            calls.append(h.shape)
            return real(h)

        monkeypatch.setattr(tring.graph, "spectral_norm", counting)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        for seed in (1, 2):
            fit(x, (2, 2, 2), SolverConfig(t_max=5, max_sweeps=3, beta=0.2, seed=seed), graph)
        assert calls == [(16, 16)]

    def test_fit_hands_solve_core_the_graph_itself(self, monkeypatch):
        laplacians = []

        def recording(*args, h_g=None, **kwargs):
            laplacians.append(h_g)
            return solve_core(*args, h_g=h_g, **kwargs)

        monkeypatch.setattr(tring.solver, "solve_core", recording)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        fit(x, (2, 2, 2), SolverConfig(t_max=5, max_sweeps=2, tol=1e-15, beta=0.2), graph)
        assert len(laplacians) == 6
        assert laplacians[0::3] == laplacians[1::3] == [None, None]
        assert all(h is graph for h in laplacians[2::3])

    @pytest.mark.parametrize("beta", [0.0, 0.2])
    def test_fit_sets_up_each_subproblem_once(self, monkeypatch, beta):
        # One set-up for the initial objective, then one per core solve: each
        # sweep's objective comes from its sample-mode solve.
        builds = []
        init = Subproblem.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subproblem, "__init__", counting)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        cfg = SolverConfig(t_max=5, max_sweeps=4, tol=1e-15, beta=beta)
        _, report = fit(x, (2, 2, 2), cfg, graph)
        assert report.sweeps_run == 4
        assert len(builds) == 1 + report.sweeps_run * x.ndim

    def test_final_objective_matches_dense_formula(self):
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        beta = 0.2
        cfg = SolverConfig(t_max=15, max_sweeps=10, tol=1e-12, beta=beta, seed=1)
        cores, report = fit(x, (2, 2, 2), cfg, graph)
        g = core_unfold2(cores[-1])
        resid = x - reconstruct(cores)
        want = 0.5 * float(np.vdot(resid, resid)) + 0.5 * beta * float(
            np.trace(g.T @ graph.laplacian @ g)
        )
        assert report.objective_per_sweep[-1] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 0.2])
    def test_final_objective_is_the_sample_mode_subproblem_s(self, beta):
        # The reported objective is 0.5*||X||^2 plus the public subproblem's
        # objective at the returned sample-mode core, bit for bit.
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        cfg = SolverConfig(t_max=15, max_sweeps=10, tol=1e-12, beta=beta, seed=1)
        cores, report = fit(x, (2, 2, 2), cfg, graph)
        s2 = build_subchain(cores, 2)
        sub = Subproblem(s2, unfold_tr(x, 2), graph, beta)
        want = 0.5 * float(np.vdot(x, x)) + sub.objective(core_unfold2(cores[2]))
        assert report.objective_per_sweep[-1] == want

    def test_graph_without_edges_fits_like_plain(self):
        x, _ = blob_tensor((3, 3), 2, 5, seed=5)
        cfg = SolverConfig(t_max=10, max_sweeps=5, tol=1e-12, beta=0.3, seed=2)
        cores, report = fit(x, (2, 2, 2), cfg, empty_graph(x.shape[-1]))
        cfg.beta = 0.0
        plain_cores, plain_report = fit(x, (2, 2, 2), cfg)
        assert report.sweeps_run == 5
        assert np.array_equal(report.objective_per_sweep, plain_report.objective_per_sweep)
        for a, b in zip(cores, plain_cores):
            assert np.array_equal(a, b)
