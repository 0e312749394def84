"""Each output check passes on tring's real output and rejects a corrupted copy.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tring  # noqa: E402
import tring.images  # noqa: E402
import tring.solver  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def blobs():
    x, labels = inputs.colour_blobs(3, (3, 3, 2), n_classes=3, per_class=10, noise=0.3)
    return x, labels, tring.neighbor_graph(x, 3)


@pytest.fixture(scope="module")
def gntr_fit(blobs):
    x, _, graph = blobs
    cfg = tring.SolverConfig(t_max=20, max_sweeps=15, tol=1e-12, beta=0.5, seed=1)
    audit = checks.SolveCoreAudit(tring.solver)
    audit.install()
    try:
        cores, report = tring.fit(x, (2, 2, 2, 3), cfg, graph)
    finally:
        audit.uninstall()
    return cores, report, audit


def test_ring_contract_matches_tring_reconstruct():
    rng = np.random.default_rng(7)
    dims, ranks = (3, 4, 2, 5), (2, 3, 1, 2)
    cores = [rng.random((ranks[n], dims[n], ranks[(n + 1) % 4])) for n in range(4)]
    np.testing.assert_allclose(inputs.ring_contract(cores), tring.reconstruct(cores), rtol=1e-12)


def test_nonnegative_rejects_negative_core(gntr_fit):
    cores = [c.copy() for c in gntr_fit[0]]
    checks.check_nonnegative(cores)
    cores[1][0, 0, 0] = -1e-6
    with pytest.raises(CheckFailed, match="negative"):
        checks.check_nonnegative(cores)


def test_descent_rejects_rising_objective(blobs, gntr_fit):
    norm_x2 = float(np.vdot(blobs[0], blobs[0]))
    report = gntr_fit[1]
    checks.check_descent(report, norm_x2)
    bad = copy.deepcopy(report)
    bad.objective_per_sweep[5] = bad.objective_per_sweep[4] * 1.001
    with pytest.raises(CheckFailed, match="rose"):
        checks.check_descent(bad, norm_x2)


def test_final_objective_rejects_wrong_report(blobs, gntr_fit):
    x, _, graph = blobs
    cores, report, _ = gntr_fit
    checks.check_final_objective(report, x, cores, 0.5, graph.laplacian)
    # Leaving out the graph term is a different objective.
    with pytest.raises(CheckFailed):
        checks.check_final_objective(report, x, cores, 0.0, None)
    bad = copy.deepcopy(report)
    bad.objective_per_sweep[-1] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_final_objective(bad, x, cores, 0.5, graph.laplacian)


def test_audit_passes_real_solver_and_rejects_rising_step(gntr_fit):
    audit = gntr_fit[2]
    assert audit.failures == [] and len(audit.cum_seconds) == 15 * 4

    class FakeSolver:
        @staticmethod
        def solve_core(x_unfold, subchain2, g_init, cfg, h_g=None, callback=None):
            return g_init + 1.0

    rng = np.random.default_rng(0)
    s2, g0 = rng.random((12, 4)), rng.random((5, 4))
    x_unfold = g0 @ s2.T
    original = FakeSolver.solve_core
    audit = checks.SolveCoreAudit(FakeSolver)
    audit.install()
    FakeSolver.solve_core(x_unfold, s2, g0, tring.SolverConfig(beta=0.0))
    audit.uninstall()
    audit.uninstall()
    assert FakeSolver.solve_core is original
    assert audit.failures and "rose" in audit.failures[0]


def _drop_edge(graph):
    w = graph.w.copy()
    i, j = np.argwhere(np.triu(w))[0]
    w[i, j] = w[j, i] = 0.0
    degree = w.sum(axis=1)
    return tring.NeighborGraph(w=w, degree=degree, laplacian=np.diag(degree) - w)


def test_graph_rejects_dropped_edge(blobs):
    x, _, graph = blobs
    checks.check_graph(graph, x, 3)
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_graph(_drop_edge(graph), x, 3)


def test_graph_rejects_inconsistent_laplacian(blobs):
    x, _, graph = blobs
    lap = graph.laplacian.copy()
    lap[0, 1] -= 1.0
    bad = tring.NeighborGraph(w=graph.w, degree=graph.degree, laplacian=lap)
    with pytest.raises(CheckFailed, match="Laplacian"):
        checks.check_graph(bad, x, 3)


def test_mutual_knn_shortlist_matches_full_cdist():
    from scipy.spatial.distance import cdist

    # Duplicated samples force exact ties, which the shortlist must order by index.
    x, _ = inputs.colour_blobs(5, (2, 3), n_classes=4, per_class=9, noise=0.4)
    x = np.concatenate([x, x[..., :6]], axis=-1)
    for p in (1, 4, x.shape[-1] - 1):
        edges, _ = checks.mutual_knn(x, p, spare=2)
        flat = checks.unfold_last(x)
        dist = cdist(flat, flat)
        np.fill_diagonal(dist, np.inf)
        nbrs = np.argsort(dist, axis=1, kind="stable")[:, :p]
        directed = {(i, int(j)) for i in range(len(flat)) for j in nbrs[i]}
        assert edges == {(i, j) for i, j in directed if i < j and (j, i) in directed}


def test_ingested_rejects_permuted_labels_and_pixels(tmp_path):
    images, classes = inputs.turntable_images(0, n_classes=3, poses=4, size=16)
    inputs.write_image_corpus(tmp_path, images, classes)
    x, labels = tring.images.ingest_images(tmp_path, 4, 4)
    checks.check_ingested(x, labels, images, classes)
    with pytest.raises(CheckFailed, match="labels"):
        checks.check_ingested(x, labels[::-1], images, classes)
    bad = x.copy()
    bad[0, 0, 0] += 1.0 / 255
    with pytest.raises(CheckFailed, match="tensor"):
        checks.check_ingested(bad, labels, images, classes)


def test_scores_and_lloyd_reject_permuted_labels(blobs, gntr_fit):
    _, truth, _ = blobs
    feats = tring.feature_matrix(gntr_fit[0])
    pred = tring.kmeans(feats, 3, restarts=20, seed=0)
    ac, nmi = tring.accuracy(pred, truth), tring.nmi(pred, truth)
    checks.check_lloyd_fixed_point(feats, pred, 3)
    checks.check_scores(ac, nmi, pred, truth, floor=0.5)
    shuffled = np.random.default_rng(1).permutation(pred)
    with pytest.raises(CheckFailed, match="k-means"):
        checks.check_lloyd_fixed_point(feats, shuffled, 3)
    with pytest.raises(CheckFailed):
        checks.check_scores(ac, nmi, shuffled, truth, floor=0.5)


def test_ac_nmi_reference_values():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert checks.ac_nmi(np.array([2, 2, 0, 0, 1, 1]), truth) == (1.0, 1.0)
    ac, nmi = checks.ac_nmi(np.array([0, 0, 0, 1, 1, 1]), truth)
    assert ac == pytest.approx(4 / 6) and 0.0 < nmi < 1.0


def test_knn_rejects_changed_prediction(blobs, gntr_fit):
    _, labels, _ = blobs
    feats = tring.feature_matrix(gntr_fit[0])
    train = np.concatenate([np.arange(c * 10, c * 10 + 4) for c in range(3)])
    test = np.setdiff1d(np.arange(30), train)
    for k in (1, 3, 5):
        pred = tring.knn_classify(feats[train], labels[train], feats[test], k)
        checks.check_knn(pred, feats[train], labels[train], feats[test], k)
    bad = pred.copy()
    bad[0] = (bad[0] + 1) % 3
    with pytest.raises(CheckFailed, match="brute force"):
        checks.check_knn(bad, feats[train], labels[train], feats[test], 5)


def test_tracer_self_time_and_uninstall():
    original = tring.solver.solve_core
    tracer = Tracer()
    tracer.install()
    try:
        assert tring.solver.solve_core is not original
        with tracer.span("bench.op"):
            x, _ = tring.ring_tensor((3, 3, 4), (2, 2, 2), seed=2)
            tring.solver.fit(x, (2, 2, 2), tring.SolverConfig(t_max=5, max_sweeps=3, tol=1e-12, beta=0.0))
    finally:
        tracer.uninstall()
    assert tring.solver.solve_core is original
    totals = tracer.totals("bench.op")
    assert totals["solver.fit"][0] == 1 and totals["solver.solve_core"][0] == 9
    assert tracer.inline["solver.prox_step"][0] >= 45
    for name, (_, total, self_s) in totals.items():
        assert 0.0 <= self_s <= total, name
    # fit's self time is its span minus the spans it called, and minus the
    # inline calls it made, which have no span of their own.
    fit = next(i for i, s in enumerate(tracer.spans) if s[0] == "solver.fit")
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == fit)
    span = tracer.spans[fit]
    assert 0.0 <= span[2] - span[1] - children - totals["solver.fit"][2] < 1e-3
