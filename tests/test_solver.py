"""Solver pieces against finite differences, independent projected
gradient, and the descent/majorization guarantees."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import tring.graph
import tring.solver
from tring.graph import (
    LaplacianOperator,
    NeighborGraph,
    laplacian_operator,
    neighbor_graph,
)
from tring.ring import (
    build_subchain,
    core_unfold2,
    init_random,
    reconstruct,
    relative_error,
    subchain_unfold2,
)
from tring.solver import (
    DegenerateSubproblemError,
    _products,
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
from tring.synthetic import blob_tensor, ring_tensor
from tring.tensor_ops import unfold_tr


def objective_plain(g, s2, xn):
    return 0.5 * np.linalg.norm(xn - g @ s2.T) ** 2


def objective_graph(g, s2, xn, h, beta):
    return objective_plain(g, s2, xn) + 0.5 * beta * float(np.vdot(g, h @ g))


def fd_gradient(objective, g, h=1e-6):
    grad = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        e = np.zeros_like(g)
        e[idx] = h
        grad[idx] = (objective(g + e) - objective(g - e)) / (2.0 * h)
    return grad


def empty_graph(n):
    zeros = np.zeros((n, n))
    return NeighborGraph(w=zeros, degree=np.zeros(n), laplacian=zeros)


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
        assert np.abs(gradient_ntr(g, s2, xn)).max() <= 1e-12 * np.abs(xn).max()

    def test_orthonormal_subchain_zero_data(self):
        g = np.abs(np.random.default_rng(1).standard_normal((5, 3)))
        s2, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((8, 3)))
        grad = gradient_ntr(g, s2, np.zeros((5, 8)))
        assert np.allclose(grad, g, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        g, s2, xn = random_instance(seed)
        grad = gradient_ntr(g, s2, xn)
        ref = fd_gradient(lambda v: objective_plain(v, s2, xn), g)
        assert np.linalg.norm(grad - ref) / np.linalg.norm(ref) <= 1e-5

    def test_graph_gradient_with_zero_beta_is_plain(self):
        g, s2, xn = random_instance(9)
        h = np.random.default_rng(10).random((5, 5))
        h = h + h.T
        assert np.array_equal(
            gradient_gntr(g, s2, xn, h, 0.0), gradient_ntr(g, s2, xn)
        )

    def test_laplacian_annihilates_constant_rows_at_exact_fit(self):
        rng = np.random.default_rng(11)
        s2 = np.abs(rng.standard_normal((8, 4)))
        g = np.tile(np.abs(rng.standard_normal((1, 4))), (6, 1))  # constant rows
        xn = g @ s2.T
        graph = neighbor_graph(rng.random((3, 6)), 2)
        grad = gradient_gntr(g, s2, xn, graph.laplacian, 0.5)
        assert np.abs(grad).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_graph_gradient_matches_finite_differences(self, seed):
        g, s2, xn = random_instance(seed + 20, rows=6)
        graph = neighbor_graph(np.random.default_rng(seed).random((4, 6)), 2)
        h, beta = graph.laplacian, 0.1
        grad = gradient_gntr(g, s2, xn, h, beta)
        ref = fd_gradient(lambda v: objective_graph(v, s2, xn, h, beta), g)
        assert np.linalg.norm(grad - ref) / np.linalg.norm(ref) <= 1e-5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            gradient_ntr(np.ones((3, 2)), np.ones((4, 3)), np.ones((3, 4)))


class TestLipschitz:
    def test_orthonormal_columns_give_one(self):
        s2, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((9, 4)))
        assert lipschitz_ntr(s2) == pytest.approx(1.0, rel=1e-8)

    def test_zero_beta_reduces_to_plain(self):
        s2 = np.random.default_rng(1).random((7, 3))
        h = np.eye(5)
        assert lipschitz_gntr(s2, h, 0.0) == lipschitz_ntr(s2)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_lipschitz_inequality(self, seed):
        rng = np.random.default_rng(seed)
        s2 = np.abs(rng.standard_normal((8, 4)))
        xn = np.abs(rng.standard_normal((5, 8)))
        lip = lipschitz_ntr(s2)
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            lhs = np.linalg.norm(gradient_ntr(a, s2, xn) - gradient_ntr(b, s2, xn))
            assert lhs <= lip * np.linalg.norm(a - b) * (1 + 1e-9)

    def test_graph_lipschitz_inequality(self):
        rng = np.random.default_rng(6)
        s2 = np.abs(rng.standard_normal((8, 4)))
        xn = np.abs(rng.standard_normal((6, 8)))
        graph = neighbor_graph(rng.random((3, 6)), 2)
        h, beta = graph.laplacian, 0.3
        lip = lipschitz_gntr(s2, h, beta)
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            lhs = np.linalg.norm(
                gradient_gntr(a, s2, xn, h, beta) - gradient_gntr(b, s2, xn, h, beta)
            )
            assert lhs <= lip * np.linalg.norm(a - b) * (1 + 1e-9)

    @pytest.mark.parametrize("case", ["rank_deficient", "all_zero", "one_column"])
    def test_lipschitz_never_below_top_gram_eigenvalue(self, case):
        rng = np.random.default_rng(31)
        if case == "rank_deficient":
            s2 = np.abs(rng.standard_normal((9, 2))) @ np.abs(rng.standard_normal((2, 6)))
        elif case == "all_zero":
            s2 = np.zeros((7, 4))
        else:
            s2 = np.abs(rng.standard_normal((8, 1)))
        assert lipschitz_ntr(s2) >= np.linalg.eigvalsh(s2.T @ s2)[-1]

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_solver_steps_at_the_public_constant(self, beta):
        # Criteria 2 and 3 check gradient_ntr/gntr and lipschitz_ntr/gntr;
        # every step solve_core takes must use exactly that gradient and
        # that constant.
        x, _ = blob_tensor((4, 4), 3, 10, seed=4)
        graph = neighbor_graph(x, 4)
        cores = init_random(x.shape, (2, 2, 3), seed=1)
        s2 = subchain_unfold2(build_subchain(cores, 2))
        xn = unfold_tr(x, 2)
        if beta > 0:
            lip = lipschitz_gntr(s2, graph.operator, beta)
        else:
            lip = lipschitz_ntr(s2)
        steps = []

        def audit(g_new, y, grad_y):
            if beta > 0:
                public = gradient_gntr(y, s2, xn, graph.operator, beta)
            else:
                public = gradient_ntr(y, s2, xn)
            steps.append(np.array_equal(grad_y, public)
                         and np.array_equal(g_new, prox_step(y, grad_y, lip)))

        solve_core(xn, s2, core_unfold2(cores[2]),
                   SolverConfig(t_max=20, beta=beta), h_g=graph.operator,
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
            laps = []
            for n in (6, 12, 40, 150):
                for _ in range(4):
                    g = neighbor_graph(rng.random((3, n)), 1)
                    assert np.any(g.degree == 0)
                    laps.append(g.laplacian)
        elif case == "no_edges":
            laps = [np.zeros((7, 7))]
        elif case.startswith("path"):
            n = int(case[-1])
            w = np.eye(n, k=1) + np.eye(n, k=-1)
            laps = [np.diag(w.sum(axis=1)) - w]
        else:
            laps = [n * np.eye(n) - np.ones((n, n)) for n in (3, 9, 30)]
        for h in laps:
            top = np.linalg.eigvalsh(h)[-1]
            lip = lipschitz_gntr(np.zeros((1, 1)), h, 1.0)
            assert top <= lip <= top * (1 + 1e-8) + 1e-12


class TestMomentumPieces:
    def test_alpha_golden_start(self):
        assert alpha_next(1.0) == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)

    def test_alpha_large_argument(self):
        assert alpha_next(100.0) == pytest.approx((1 + np.sqrt(40001)) / 2, rel=1e-12)

    def test_alpha_strictly_increasing(self):
        for a in np.linspace(1.0, 50.0, 25):
            assert alpha_next(a) > a

    def test_search_point_zero_momentum(self):
        g = np.random.default_rng(0).random((3, 2))
        assert np.array_equal(search_point(g, g, 1.7, 2.2), g)
        # first iteration: alpha = 1 gives coefficient 0
        prev = np.random.default_rng(1).random((3, 2))
        assert np.array_equal(search_point(g, prev, 1.0, alpha_next(1.0)), g)

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
        f_ours = objective_plain(ours, s2, xn)
        f_ref = objective_plain(ref, s2, xn)
        assert f_ours <= f_ref + 1e-4 * max(1.0, f_ref)

    def test_never_worse_than_start_and_nonnegative(self):
        rng = np.random.default_rng(10)
        s2 = np.abs(rng.standard_normal((7, 3)))
        xn = np.abs(rng.standard_normal((5, 7)))
        g0 = np.abs(rng.standard_normal((5, 3)))
        out = solve_core(xn, s2, g0, SolverConfig(t_max=3, beta=0.0))
        assert np.all(out >= 0)
        assert objective_plain(out, s2, xn) <= objective_plain(g0, s2, xn) + 1e-9

    def test_majorization_bound_at_every_step(self):
        # Replays the audit through the callback hook: each accepted step
        # must satisfy f(g_new) <= f(y) + <grad, g_new - y> + L/2 ||g_new - y||^2.
        rng = np.random.default_rng(11)
        s2 = np.abs(rng.standard_normal((8, 4)))
        xn = np.abs(rng.standard_normal((6, 8)))
        g0 = np.abs(rng.standard_normal((6, 4)))
        lip = lipschitz_ntr(s2)
        checked = []

        def audit(g_new, y, grad_y):
            f_new = objective_plain(g_new, s2, xn)
            phi = (
                objective_plain(y, s2, xn)
                + float(np.vdot(grad_y, g_new - y))
                + 0.5 * lip * np.linalg.norm(g_new - y) ** 2
            )
            checked.append(f_new <= phi + 1e-9 * max(1.0, abs(phi)))

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
            mid = objective_plain(lam * g1 + (1 - lam) * g2, s2, xn)
            chord = lam * objective_plain(g1, s2, xn) + (1 - lam) * objective_plain(
                g2, s2, xn
            )
            assert mid <= chord + 1e-9 * max(1.0, abs(chord))

    def test_zero_subchain_is_degenerate(self):
        with pytest.raises(DegenerateSubproblemError):
            solve_core(
                np.ones((3, 4)),
                np.zeros((4, 2)),
                np.ones((3, 2)),
                SolverConfig(t_max=5, beta=0.0),
            )


class TestFit:
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

    def test_zero_beta_with_graph_bit_identical_to_plain(self):
        x, labels = blob_tensor((4, 4), 2, 6, seed=1)
        graph = neighbor_graph(x, 3)
        cfg = SolverConfig(t_max=20, max_sweeps=15, tol=1e-12, beta=0.0, seed=5)
        cores_a, rep_a = fit(x, (2, 2, 2), cfg)
        cores_b, rep_b = fit(x, (2, 2, 2), cfg, graph)
        for a, b in zip(cores_a, cores_b):
            assert np.array_equal(a, b)
        assert np.array_equal(rep_a.objective_per_sweep, rep_b.objective_per_sweep)

    def test_same_seed_reproducible(self):
        x, _ = ring_tensor((4, 3, 5), (2, 2, 2), seed=2)
        cfg = SolverConfig(t_max=10, max_sweeps=8, tol=1e-12, beta=0.0, seed=9)
        cores_a, _ = fit(x, (2, 2, 2), cfg)
        cores_b, _ = fit(x, (2, 2, 2), cfg)
        for a, b in zip(cores_a, cores_b):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_non_increasing(self, seed):
        x, _ = ring_tensor((5, 4, 3), (2, 2, 2), seed=100 + seed)
        cfg = SolverConfig(t_max=15, max_sweeps=30, tol=1e-12, beta=0.0, seed=seed)
        _, report = fit(x, (2, 2, 2), cfg)
        obj = np.concatenate([[report.initial_objective], report.objective_per_sweep])
        assert np.all(np.diff(obj) <= 1e-9)

    def test_graph_regularized_objective_non_increasing(self):
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        cfg = SolverConfig(t_max=15, max_sweeps=30, tol=1e-12, beta=0.2, seed=1)
        _, report = fit(x, (2, 2, 2), cfg, graph)
        obj = np.concatenate([[report.initial_objective], report.objective_per_sweep])
        assert np.all(np.diff(obj) <= 1e-9)

    def test_objective_identical_across_modes(self):
        # The reported value is measured at the sample mode, but every
        # mode's matricized residual has the same Frobenius norm.
        x, _ = ring_tensor((4, 3, 5), (2, 2, 2), seed=4)
        cores = init_random((4, 3, 5), (2, 2, 2), seed=77)
        vals = []
        for mode in range(3):
            g2 = core_unfold2(cores[mode])
            s2 = subchain_unfold2(build_subchain(cores, mode))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_non_finite_data_rejected_before_fitting(self, bad, beta, monkeypatch):
        x, _ = ring_tensor((4, 4, 5), (2, 2, 2), seed=0)
        x[1, 2, 3] = bad
        monkeypatch.setattr("tring.solver.init_random", None)  # no work may start
        with pytest.raises(ValueError, match="finite"):
            fit(x, (2, 2, 2), SolverConfig(beta=beta), empty_graph(5))

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
        # unfold_tr returns F-ordered arrays; a caller may pass C-ordered ones.
        x, _ = blob_tensor((4, 5), 3, 6, seed=9)
        cores = init_random(x.shape, (2, 3, 2), seed=2)
        s2 = subchain_unfold2(build_subchain(cores, mode))
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
            s2 = subchain_unfold2(build_subchain(cores, mode))
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
# bits between 1 and 2 threads; the cores do not read ||X||^2 at all), and
# the channel-mode subchain's 358400 rows take 88 set-up blocks.  It prints a
# digest of the fitted cores.
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
    """``_products`` forms S.T S and X S from row blocks of S."""

    # With _BLOCK = 8: fewer rows than a block, exactly one block, one row
    # over, and a whole number of blocks.
    @pytest.mark.parametrize("rows", [5, 8, 9, 32])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_matches_one_shot_formulas(self, monkeypatch, rows, order):
        monkeypatch.setattr(tring.solver, "_BLOCK", 8)
        rng = np.random.default_rng(rows)
        s2 = rng.random((rows, 6))
        x_unfold = np.asarray(rng.random((4, rows)), order=order)
        sts, xs = _products(s2, x_unfold)
        for got, want in zip((sts, xs), (s2.T @ s2, x_unfold @ s2)):
            np.testing.assert_allclose(got, want, rtol=1e-13)
            if rows <= 8:
                assert np.array_equal(got, want)
        gram, no_xs = _products(s2)
        assert np.array_equal(gram, sts) and no_xs is None

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_multi_block_steps_at_the_public_constant(self, monkeypatch, beta):
        # TestLipschitz's check with the sample-mode subchain's 16 rows in
        # blocks of 5, 5, 5 and 1: the public gradient and constant must
        # still be exactly the ones every solver step uses.
        monkeypatch.setattr(tring.solver, "_BLOCK", 5)
        x, _ = blob_tensor((4, 4), 3, 10, seed=4)
        graph = neighbor_graph(x, 4)
        cores = init_random(x.shape, (2, 2, 3), seed=1)
        s2 = subchain_unfold2(build_subchain(cores, 2))
        xn = unfold_tr(x, 2)
        assert s2.shape[0] == 16
        h = graph.operator if beta > 0 else None
        lip = lipschitz_gntr(s2, h, beta) if beta > 0 else lipschitz_ntr(s2)
        steps = []

        def audit(g_new, y, grad_y):
            public = gradient_gntr(y, s2, xn, h, beta)
            steps.append(np.array_equal(grad_y, public)
                         and np.array_equal(g_new, prox_step(y, grad_y, lip)))

        solve_core(xn, s2, core_unfold2(cores[2]), SolverConfig(t_max=20, beta=beta),
                   h_g=h, callback=audit)
        assert len(steps) == 20 and all(steps)

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


class TestLaplacianOperator:
    @staticmethod
    def sample_mode_problem(beta=0.5):
        x, _ = blob_tensor((4, 4), 3, 10, seed=4)
        graph = neighbor_graph(x, 4)
        cores = init_random(x.shape, (2, 2, 3), seed=1)
        s2 = subchain_unfold2(build_subchain(cores, 2))
        cfg = SolverConfig(t_max=100, beta=beta)
        return (unfold_tr(x, 2), s2, core_unfold2(cores[2]), cfg), graph

    def test_solve_core_sparse_matches_dense_products(self, monkeypatch):
        args, graph = self.sample_mode_problem()
        op = laplacian_operator(graph.laplacian)
        sparse_out = solve_core(*args, h_g=op)
        # A dense Laplacian from a caller goes through the same operator.
        assert np.array_equal(solve_core(*args, h_g=graph.laplacian), sparse_out)
        dense = graph.laplacian
        monkeypatch.setattr(LaplacianOperator, "__matmul__", lambda self, g: dense @ g)
        dense_out = solve_core(*args, h_g=op)
        assert np.linalg.norm(sparse_out - dense_out) <= 1e-12 * np.linalg.norm(dense_out)

    def test_norm_computed_once_per_graph_fit(self, monkeypatch):
        calls = []
        real = tring.graph.laplacian_norm

        def counting(h):
            calls.append(h.shape)
            return real(h)

        monkeypatch.setattr(tring.graph, "laplacian_norm", counting)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        cfg = SolverConfig(t_max=5, max_sweeps=6, tol=1e-15, beta=0.2, seed=1)
        _, report = fit(x, (2, 2, 2), cfg, neighbor_graph(x, 4))
        assert report.sweeps_run == 6
        assert calls == [(16, 16)]

    def test_norm_computed_once_per_graph_across_fits(self, monkeypatch):
        calls = []
        real = tring.graph.laplacian_norm

        def counting(h):
            calls.append(h.shape)
            return real(h)

        monkeypatch.setattr(tring.graph, "laplacian_norm", counting)
        x, _ = blob_tensor((4, 4), 2, 8, seed=3)
        graph = neighbor_graph(x, 4)
        for seed in (1, 2):
            fit(x, (2, 2, 2), SolverConfig(t_max=5, max_sweeps=3, beta=0.2, seed=seed), graph)
        assert calls == [(16, 16)]

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
