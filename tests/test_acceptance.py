"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The recovery and clustering experiments are shared
module-scoped fixtures so the expensive fits run once.  The references
the criteria compare against come from ``oracles``, where each is
written once and imports nothing from ``tring``.
"""

import time

import numpy as np
import pytest
from oracles import (
    accuracy_oracle,
    fd_gradient,
    mi_oracle,
    nmi_oracle,
    subproblem_objective,
    trace_oracle,
)

from tring.fileio import read_tensor, write_tensor
from tring.graph import neighbor_graph
from tring.images import area_resize, ingest_images, montage, read_pnm
from tring.metrics import accuracy, kmeans, mutual_information, nmi, sparseness
from tring.ring import (
    build_subchain,
    core_unfold2,
    feature_matrix,
    init_random,
    relative_error,
)
from tring.solver import SolverConfig, Subproblem, fit, solve_core
from tring.synthetic import blob_tensor, ring_tensor
from tring.tensor_ops import fold_tr, unfold_tr

RECOVERY_SHAPE = (8, 8, 3, 20)
RECOVERY_RANKS = (2, 2, 2, 2)
CLUSTER_SLICE = (6, 6, 3)
CLUSTER_CLASSES = 3
CLUSTER_PER_CLASS = 20


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def recovery_runs():
    """Ten seeded plain fits of the exactly decomposable fixture."""
    x, _ = ring_tensor(RECOVERY_SHAPE, RECOVERY_RANKS, seed=1234)
    runs = []
    for seed in range(10):
        cfg = SolverConfig(
            t_max=100, max_sweeps=500, tol=1e-12, beta=0.0, seed=seed
        )
        start = time.perf_counter()
        cores, report = fit(x, RECOVERY_RANKS, cfg)
        wall = time.perf_counter() - start
        runs.append({"error": relative_error(x, cores), "report": report, "wall": wall})
    return x, runs


@pytest.fixture(scope="module")
def cluster_scores():
    """Ten-run clustering scores for the plain and graph-regularized fits."""
    x, labels = blob_tensor(
        CLUSTER_SLICE, CLUSTER_CLASSES, CLUSTER_PER_CLASS, noise=0.05, seed=42
    )
    graph = neighbor_graph(x, 5)
    ranks = (1, 2, 2, CLUSTER_CLASSES)
    out = {}
    for name, beta, g in (("plain", 0.0, None), ("graph", 0.1, graph)):
        acs, nmis = [], []
        for run in range(10):
            cfg = SolverConfig(
                t_max=50, max_sweeps=100, tol=1e-6, beta=beta, seed=run
            )
            cores, _ = fit(x, ranks, cfg, g)
            pred = kmeans(feature_matrix(cores), CLUSTER_CLASSES,
                          restarts=200, seed=run)
            acs.append(accuracy(pred, labels))
            nmis.append(nmi(pred, labels))
        out[name] = (np.mean(acs), np.mean(nmis))
    return out


def test_criterion_1_tensor_algebra_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 5))
        dims = tuple(rng.integers(2, 6, size=d))
        ranks = tuple(rng.integers(1, 4, size=d))
        cores = init_random(dims, ranks, seed=int(rng.integers(1 << 30)))
        ref = trace_oracle(cores)
        scale = np.abs(ref).max()
        for mode in range(d):
            xn = core_unfold2(cores[mode]) @ build_subchain(cores, mode).T
            err = np.abs(fold_tr(xn, mode, dims)- ref).max() / scale
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    check(
        "criterion 1: factored reconstruction == trace oracle, every mode",
        worst <= 1e-10 and elapsed <= 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_finite_difference_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_plain, worst_graph = 0.0, 0.0
    for _ in range(50):
        rows, cols, width = 5, 8, 4
        g = np.abs(rng.standard_normal((rows, width)))
        s2 = np.abs(rng.standard_normal((cols, width)))
        xn = np.abs(rng.standard_normal((rows, cols)))

        ref = fd_gradient(lambda v: subproblem_objective(v, s2, xn), g)
        err = np.linalg.norm(Subproblem(s2, xn).gradient(g) - ref) / np.linalg.norm(ref)
        worst_plain = max(worst_plain, err)

        graph = neighbor_graph(rng.random((3, rows)), 2)
        h, beta = graph.laplacian, 0.1
        ref = fd_gradient(lambda v: subproblem_objective(v, s2, xn, h, beta), g)
        grad = Subproblem(s2, xn, graph, beta).gradient(g)
        err = np.linalg.norm(grad - ref) / np.linalg.norm(ref)
        worst_graph = max(worst_graph, err)
    elapsed = time.perf_counter() - start
    check(
        "criterion 2: gradients match central finite differences",
        worst_plain <= 1e-5 and worst_graph <= 1e-5 and elapsed <= 60.0,
        f"plain {worst_plain:.2e}, graph {worst_graph:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_lipschitz_and_majorization():
    rng = np.random.default_rng(11)
    violations = 0
    for trial in range(100):
        s2 = np.abs(rng.standard_normal((9, 4)))
        xn = np.abs(rng.standard_normal((6, 9)))
        if trial % 2 == 1:
            sub = Subproblem(s2, xn, neighbor_graph(rng.random((3, 6)), 2), 0.2)
        else:
            sub = Subproblem(s2, xn)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 4))
        diff = sub.gradient(a) - sub.gradient(b)
        if np.linalg.norm(diff) > sub.lipschitz * np.linalg.norm(a - b) * (1 + 1e-9):
            violations += 1

    # Majorization audit at every accepted step of seeded inner runs.
    x, _ = ring_tensor(RECOVERY_SHAPE, RECOVERY_RANKS, seed=1234)
    cores = init_random(RECOVERY_SHAPE, RECOVERY_RANKS, seed=0)
    graph = neighbor_graph(x, 5)
    bad_steps = 0
    total_steps = 0
    for h_g, beta in ((None, 0.0), (graph, 0.1)):
        mode = 3
        s2 = build_subchain(cores, mode)
        xn = unfold_tr(x, mode)
        g0 = core_unfold2(cores[mode])
        lip = Subproblem(s2, xn, h_g, beta).lipschitz
        h = None if h_g is None else h_g.laplacian
        steps = []

        def audit(g_new, y, grad_y, f_new):
            phi = (
                subproblem_objective(y, s2, xn, h, beta)
                + float(np.vdot(grad_y, g_new - y))
                + 0.5 * lip * np.linalg.norm(g_new - y) ** 2
            )
            steps.append(subproblem_objective(g_new, s2, xn, h, beta)
                         <= phi + 1e-9 * max(1.0, abs(phi)))

        solve_core(xn, s2, g0, SolverConfig(t_max=100, beta=beta), h_g=h_g,
                   callback=audit)
        total_steps += len(steps)
        bad_steps += len(steps) - sum(steps)
    check(
        "criterion 3: Lipschitz inequality and per-step majorization bound",
        violations == 0 and bad_steps == 0,
        f"0/100 pair violations, {total_steps} audited steps"
        if violations == 0 and bad_steps == 0
        else f"{violations} pair violations, {bad_steps} bad steps",
    )


def test_criterion_4_exact_recovery(recovery_runs):
    _, runs = recovery_runs
    errors = [r["error"] for r in runs]
    walls = [r["wall"] for r in runs]
    recovered = sum(e <= 1e-3 for e in errors)
    check(
        "criterion 4: exact recovery on 8x8x3x20 ranks (2,2,2,2)",
        recovered >= 8 and max(walls) <= 120.0,
        f"{recovered}/10 seeds <= 1e-3 (worst {max(errors):.2e}), "
        f"slowest fit {max(walls):.1f}s",
    )


def test_criterion_5_descent_and_convergence_speed(recovery_runs):
    _, runs = recovery_runs
    monotone = True
    plateau_sweeps = []
    for r in runs:
        rep = r["report"]
        series = np.concatenate([[rep.initial_objective], rep.objective_per_sweep])
        if np.any(np.diff(series) > 1e-9):
            monotone = False
        below = np.flatnonzero(rep.rel_change_per_sweep < 1e-6)
        plateau_sweeps.append(int(below[0]) + 1 if below.size else np.inf)
    median_plateau = float(np.median(plateau_sweeps))
    check(
        "criterion 5: per-sweep descent and plateau before sweep 150",
        monotone and median_plateau < 150,
        f"monotone={monotone}, median plateau sweep {median_plateau:.0f}",
    )


def test_criterion_6_graph_degeneracy_bitwise():
    x, _ = blob_tensor((5, 4), 2, 8, noise=0.05, seed=3)
    graph = neighbor_graph(x, 4)
    cfg = SolverConfig(t_max=25, max_sweeps=20, tol=1e-12, beta=0.0, seed=6)
    cores_plain, rep_plain = fit(x, (2, 2, 2), cfg)
    cores_graph, rep_graph = fit(x, (2, 2, 2), cfg, graph)
    identical = all(
        np.array_equal(a, b) for a, b in zip(cores_plain, cores_graph)
    ) and np.array_equal(
        rep_plain.objective_per_sweep, rep_graph.objective_per_sweep
    )
    check(
        "criterion 6: beta=0 graph run bit-identical to plain run",
        identical,
        f"{rep_plain.sweeps_run} sweeps compared",
    )


def test_criterion_7_graph_laplacian_properties():
    rng = np.random.default_rng(5)
    x = rng.random((4, 4, 12))
    g = neighbor_graph(x, 4)
    rows_zero = bool(np.all(g.laplacian.sum(axis=1) == 0.0))
    quad_ok = all(
        np.vdot(v, g @ v) >= -1e-10 for v in rng.standard_normal((1000, 12))
    )
    # hand-enumerated mutual 1-NN on scalar samples 0, 1, 10
    hand = neighbor_graph(np.array([[0.0, 1.0, 10.0]]), 1)
    hand_ok = np.array_equal(
        hand.w, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    ) and np.array_equal(hand.degree, [1, 1, 0])
    check(
        "criterion 7: Laplacian row sums, PSD witness, hand-built 3-sample graph",
        rows_zero and quad_ok and hand_ok,
        "1000 quadratic samples >= 0",
    )


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(13)
    acc_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(5, 30))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        if abs(accuracy(pred, truth) - accuracy_oracle(pred, truth)) > 1e-12:
            acc_ok = False

    nmi_ok = True
    for _ in range(200):
        n = int(rng.integers(4, 50))
        a = rng.integers(0, rng.integers(2, 6), size=n)
        b = rng.integers(0, rng.integers(2, 6), size=n)
        if abs(mutual_information(a, b) - mi_oracle(a, b)) > 1e-10:
            nmi_ok = False
        if abs(nmi(a, b) - nmi_oracle(a, b)) > 1e-10:
            nmi_ok = False

    endpoints_ok = (
        sparseness(np.array([0.0, 0.0, 5.0, 0.0])) == 1.0
        and sparseness(np.full(4, 3.0)) == 0.0
    )
    check(
        "criterion 8: accuracy vs permutation search, NMI oracle, sparseness endpoints",
        acc_ok and nmi_ok and endpoints_ok,
        "200 label pairs each",
    )


def test_criterion_9_desk_scale_clustering(cluster_scores):
    ac_plain, _ = cluster_scores["plain"]
    ac_graph, nmi_graph = cluster_scores["graph"]
    check(
        "criterion 9: graph-regularized clustering quality on separable blobs",
        ac_graph >= 0.9 and nmi_graph >= 0.8 and ac_graph >= ac_plain - 0.02,
        f"graph AC {ac_graph:.3f} NMI {nmi_graph:.3f}, plain AC {ac_plain:.3f}",
    )


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(17)

    # tensor container and core serialization round trips, bit exact
    x = rng.random((3, 4, 2, 5))
    write_tensor(tmp_path / "x.ten", x)
    tensor_ok = np.array_equal(read_tensor(tmp_path / "x.ten"), x)
    cores = init_random((4, 3, 5), (2, 2, 2), seed=2)
    cores_ok = True
    for i, core in enumerate(cores):
        write_tensor(tmp_path / f"core_{i}.ten", core)
        if not np.array_equal(read_tensor(tmp_path / f"core_{i}.ten"), core):
            cores_ok = False

    # crafted 2x2 P5 ingest: bytes (0, 255, 0, 255) -> [[0, 1], [0, 1]]
    cls = tmp_path / "corpus" / "a"
    cls.mkdir(parents=True)
    (cls / "i.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    ingested, labels = ingest_images(tmp_path / "corpus", 2, 2)
    pgm_ok = np.array_equal(ingested[..., 0], [[0.0, 1.0], [0.0, 1.0]]) and np.array_equal(
        labels, [0]
    )

    # crafted 4x4 constant-128 P6 area-averaged to 2x2
    (cls / "c.ppm").write_bytes(
        b"P6\n4 4\n255\n" + bytes([128] * 48)
    )
    color = read_pnm(cls / "c.ppm")
    small = area_resize(color, 2, 2)
    ppm_ok = small.shape == (2, 2, 3) and np.allclose(small, 128 / 255)

    # montage size contract
    tiles = [np.zeros((3, 5), dtype=np.uint8)] * 6
    montage_ok = montage(tiles, 2, 3).shape == (6, 15)

    check(
        "criterion 10: container/core round trips, image ingest, montage contract",
        tensor_ok and cores_ok and pgm_ok and ppm_ok and montage_ok,
        "bit-exact tensor round trips",
    )
