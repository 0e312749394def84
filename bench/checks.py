"""Output checks, each made apart from ``tring``'s own code.

Every check raises :class:`CheckFailed` with a reason, or returns quietly.
They use only numpy/scipy and the benchmark's own formulas, so a defect in
``tring`` cannot hide itself by agreeing with its own reference.  Memory
stays O(n * block) even where ``tring`` builds n x n arrays, so the checks
never set the peak RSS that the benchmark reports.
"""

import time

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from inputs import ring_contract

BLOCK = 256
KNN_BLOCK = 64


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def unfold_last(x):
    """Samples-last tensor as an (n_samples, features) matrix."""
    return np.moveaxis(x, -1, 0).reshape(x.shape[-1], -1)


def check_equal(name, got, want, atol=0.0):
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    if atol == 0.0:
        _require(np.array_equal(got, want), f"{name}: values differ")
    else:
        err = float(np.max(np.abs(got - want)))
        _require(err <= atol, f"{name}: max abs difference {err:.3g} > {atol:.3g}")


def check_ingested(x, labels, images, classes):
    """Ingested stack == 4x4 block means of the uint8 images / 255, samples last."""
    n, h, w = images.shape
    fh, fw = h // x.shape[0], w // x.shape[1]
    means = images.reshape(n, x.shape[0], fh, x.shape[1], fw).mean(axis=(2, 4)) / 255.0
    check_equal("ingested tensor", x, np.moveaxis(means, 0, -1), atol=1e-12)
    check_equal("ingested labels", labels, classes)


def mutual_knn(x, p, spare=10):
    """Reference mutual p-NN edges ``{(i, j): i < j}``, and each sample's p-th
    and (p+1)-th neighbour distances.

    Distances come from ``scipy.spatial.distance.cdist`` on the flattened
    sample slices, self excluded, ties toward the lower index.  A full
    n x n cdist costs O(n^2 * features) without BLAS, so each row first
    shortlists ``p + 1 + spare`` candidates by the Gram expansion; the row
    is accepted only when every sample left out is provably farther than
    the (p+1)-th exact distance, else its full cdist row is used.
    """
    flat = unfold_last(x)
    n = flat.shape[0]
    sq = np.einsum("ij,ij->i", flat, flat)
    m = min(p + 1 + spare, n - 1)
    q = min(p + 1, n - 1)  # neighbours needed to know the boundary gap
    nbrs = np.empty((n, p), dtype=np.int64)
    bound = np.full((n, 2), np.inf)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        approx = sq[lo:hi, None] + sq[None, :] - 2.0 * (flat[lo:hi] @ flat.T)
        rows = np.arange(hi - lo)
        approx[rows, lo + rows] = np.inf
        # Bound on the expansion's rounding error, in squared distance.
        slack = 1e-10 * (sq[lo:hi] + sq.max())
        short = np.sort(np.argpartition(approx, m - 1, axis=1)[:, :m], axis=1)
        for r in rows:
            i = lo + r
            cand = short[r]
            exact = cdist(flat[i : i + 1], flat[cand])[0]
            order = np.argsort(exact, kind="stable")[:q]
            left_out = np.ones(n, dtype=bool)
            left_out[cand] = False
            left_out[i] = False
            if np.any(approx[r, left_out] - slack[r] <= exact[order[-1]] ** 2):
                exact = cdist(flat[i : i + 1], flat)[0]
                exact[i] = np.inf
                cand = np.arange(n)
                order = np.argsort(exact, kind="stable")[:q]
            nbrs[i] = cand[order[:p]]
            bound[i, : order.size - p + 1] = exact[order[p - 1 :]]
    directed = {(i, int(j)) for i in range(n) for j in nbrs[i]}
    return {(i, j) for i, j in directed if i < j and (j, i) in directed}, bound


def check_graph(graph, x, p, rel_tie=1e-9):
    """Graph == mutual p-NN graph from cdist; Laplacian == D - W.

    An edge may differ from the reference only where an endpoint's p-th and
    (p+1)-th neighbours are tied to within ``rel_tie`` and the edge lies in
    that tie: there the two distance formulas may round apart.
    """
    w = np.asarray(graph.w)
    ref, bound = mutual_knn(x, p)
    n = bound.shape[0]
    _require(w.shape == (n, n), f"graph: {w.shape} adjacency for {n} samples")
    rows, cols = np.nonzero(w)
    _require(np.all(w[rows, cols] == 1.0), "graph: adjacency not binary")
    got = {(int(i), int(j)) for i, j in zip(rows, cols) if i < j}
    _require(2 * len(got) == rows.size and all(w[j, i] for i, j in got),
             "graph: adjacency not symmetric or has self-loops")
    flat = unfold_last(x)
    for i, j in got ^ ref:
        dij = float(np.linalg.norm(flat[i] - flat[j]))
        tie = any(
            hi - lo <= rel_tie * lo and lo * (1 - rel_tie) <= dij <= hi * (1 + rel_tie)
            for lo, hi in (bound[i], bound[j])
        )
        _require(tie, f"graph: edge ({i}, {j}) is {'extra' if (i, j) in got else 'missing'}")
    degree = np.bincount(rows, minlength=n).astype(np.float64)
    check_equal("graph degree", graph.degree, degree)
    lap = np.asarray(graph.laplacian)
    _require(np.array_equal(np.diagonal(lap), degree), "graph: Laplacian diagonal != degree")
    _require(np.all(lap[rows, cols] == -1.0)
             and np.count_nonzero(lap) == rows.size + np.count_nonzero(degree),
             "graph: Laplacian off-diagonal != -W")


def check_nonnegative(cores):
    for n, core in enumerate(cores):
        _require(np.all(np.isfinite(core)), f"core {n} has non-finite entries")
        _require(np.all(core >= 0.0), f"core {n} has negative entries (min {core.min():.3g})")


def fit_objective(x, cores, beta=0.0, laplacian=None):
    """0.5 * ||X - ring||^2 + 0.5 * beta * tr(G^T L G), G = last core unfolded per sample."""
    resid = x - ring_contract(list(cores))
    val = 0.5 * float(np.vdot(resid, resid))
    if beta > 0.0 and laplacian is not None:
        g = last_core_rows(cores[-1])
        val += 0.5 * beta * float(np.vdot(g, laplacian @ g))
    return val


def last_core_rows(core):
    """(samples, r_d * r_1) rows of the last core, columns (r_d slow, r_1 fast)."""
    return np.transpose(core, (1, 0, 2)).reshape(core.shape[1], -1)


def check_descent(report, norm_x2):
    """The per-sweep objective, initial value first, never rises.

    Rises up to 1e-12 * ||X||^2 are rounding: the solver's accept test
    works in expanded form, whose error scales with ||X||^2.
    """
    series = np.concatenate([[report.initial_objective], report.objective_per_sweep])
    rise = np.diff(series)
    worst = int(np.argmax(rise))
    _require(rise[worst] <= 1e-12 * norm_x2,
             f"objective rose by {rise[worst]:.3g} at sweep {worst + 1}")


def check_final_objective(report, x, cores, beta, laplacian):
    """FitReport's last objective == the benchmark's own objective of the cores."""
    mine = fit_objective(x, cores, beta, laplacian)
    got = float(report.objective_per_sweep[-1])
    tol = 1e-8 * mine + 1e-13 * float(np.vdot(x, x))
    _require(abs(got - mine) <= tol,
             f"reported objective {got:.12g} != recomputed {mine:.12g}")


def relative_error(x, cores):
    return float(np.linalg.norm(x - ring_contract(list(cores))) / np.linalg.norm(x))


def contingency(pred, truth):
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    return table


def ac_nmi(pred, truth):
    """Clustering accuracy (best one-to-one mapping) and NMI = MI / max(H)."""
    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    ac = table[rows, cols].sum() / table.sum()
    joint = table / table.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    h = max(-(pa * np.log(pa)).sum(), -(pb * np.log(pb)).sum())
    return float(ac), (min(1.0, mi / h) if mi > 0 else 0.0)


def check_scores(ac_got, nmi_got, pred, truth, floor):
    ac, nmi = ac_nmi(pred, truth)
    _require(abs(ac - ac_got) <= 1e-12, f"AC {ac_got} != recomputed {ac}")
    _require(abs(nmi - nmi_got) <= 1e-9, f"NMI {nmi_got} != recomputed {nmi}")
    _require(ac >= floor and nmi >= floor, f"AC {ac:.3f} / NMI {nmi:.3f} below {floor}")


def check_lloyd_fixed_point(features, labels, k):
    """Every point is nearest (up to rounding) to the mean of its own cluster."""
    labels = np.asarray(labels)
    _require(labels.shape == (features.shape[0],), "k-means: one label per row required")
    _require(set(np.unique(labels)) == set(range(k)), "k-means: not all k clusters used")
    centers = np.stack([features[labels == c].mean(axis=0) for c in range(k)])
    d2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(labels.size), labels]
    slack = 1e-9 * (1.0 + d2.min(axis=1))
    bad = np.flatnonzero(own > d2.min(axis=1) + slack)
    _require(bad.size == 0, f"k-means: {bad.size} points nearer another centre, e.g. row {bad[:1]}")


def brute_knn(train, train_labels, test, k):
    """Majority vote of the k nearest (stable order, lower index first);
    vote ties go to the smaller summed distance, then the lower class id.
    Also returns, per row, whether a near-tie makes the answer rounding-sensitive.
    """
    out = np.empty(test.shape[0], dtype=np.int64)
    fragile = np.zeros(test.shape[0], dtype=bool)
    for lo in range(0, test.shape[0], KNN_BLOCK):
        dist = np.sqrt(((test[lo : lo + KNN_BLOCK, None, :] - train[None, :, :]) ** 2).sum(axis=2))
        for r, row in enumerate(dist):
            order = np.argsort(row, kind="stable")
            neigh = order[:k]
            if k < row.size and row[order[k]] - row[order[k - 1]] <= 1e-9 * row[order[k]]:
                fragile[lo + r] = True
            classes = train_labels[neigh]
            cand, votes = np.unique(classes, return_counts=True)
            top = cand[votes == votes.max()]
            if top.size > 1:
                sums = np.array([row[neigh[classes == c]].sum() for c in top])
                if np.sum(sums <= sums.min() * (1 + 1e-9)) > 1:
                    fragile[lo + r] = True
                top = top[sums == sums.min()]
            out[lo + r] = top.min()
    return out, fragile


def check_knn(pred, train, train_labels, test, k):
    want, fragile = brute_knn(train, train_labels, test, k)
    pred = np.asarray(pred)
    _require(pred.shape == want.shape, f"k-NN: {pred.shape} predictions for {want.shape} rows")
    bad = np.flatnonzero((pred != want) & ~fragile)
    _require(bad.size == 0, f"k={k}: {bad.size} predictions differ from brute force")


class SolveCoreAudit:
    """Wraps ``tring.solver.solve_core``: each call must end at a subproblem
    objective no higher than where it started, by the benchmark's formula
    ``0.5 * ||X_n - G S^T||^2 (+ 0.5 * beta * tr(G^T H G))``.

    The time spent checking is kept in ``seconds`` (cumulative after each
    call in ``cum_seconds``) so it can be taken out of the fit's timings;
    with a tracer it is also a ``bench.check`` span.
    """

    def __init__(self, solver_module, tracer=None):
        self.module = solver_module
        self.tracer = tracer
        self.inner = None
        self.seconds = 0.0
        self.cum_seconds = []
        self.failures = []

    def install(self):
        self.inner = self.module.solve_core
        self.module.solve_core = self._call

    def uninstall(self):
        if self.inner is not None:
            self.module.solve_core = self.inner
            self.inner = None

    def reset(self):
        self.seconds = 0.0
        self.cum_seconds = []
        self.failures = []

    def _objective(self, x_unfold, s2, g, beta, h_g):
        resid = x_unfold - g @ s2.T
        val = 0.5 * float(np.vdot(resid, resid))
        if h_g is not None and beta > 0:
            val += 0.5 * beta * float(np.vdot(g, h_g @ g))
        return val, float(np.vdot(x_unfold, x_unfold))

    def _timed(self, fn):
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer.span("bench.check"):
                out = fn()
        self.seconds += time.perf_counter() - t0
        return out

    def _call(self, x_unfold, subchain2, g_init, cfg, h_g=None, callback=None):
        f0, nx2 = self._timed(lambda: self._objective(x_unfold, subchain2, g_init, cfg.beta, h_g))
        g = self.inner(x_unfold, subchain2, g_init, cfg, h_g=h_g, callback=callback)
        f1, _ = self._timed(lambda: self._objective(x_unfold, subchain2, g, cfg.beta, h_g))
        if f1 > f0 + 1e-12 * nx2:
            self.failures.append(f"solve_core call {len(self.cum_seconds) + 1}: "
                                 f"objective rose {f0:.12g} -> {f1:.12g}")
        self.cum_seconds.append(self.seconds)
        return g
