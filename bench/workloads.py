"""The benchmark's workloads, driven through ``tring``'s public API.

Each workload makes its inputs untimed (``make_inputs``), then repeats a
timed ``setup`` (once-per-dataset work) and whole rounds of operations.
One operation is one seeded ``fit`` with its downstream scoring, in the
order the ``tring`` CLI calls them.  Every ``tring`` function is looked up
through its module at call time, so the tracer's wrappers are the ones
that run.  ``check_setup`` and ``check_op`` raise ``checks.CheckFailed``.
"""

import time

import numpy as np

import checks
import inputs


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def prefix_split(labels, fraction):
    """First ``floor(fraction * size)`` samples of each class are labelled."""
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        n_lab = int(np.floor(fraction * idx.size))
        train.extend(idx[:n_lab])
        test.extend(idx[n_lab:])
    return np.asarray(train), np.asarray(test)


def sweeps_to(report, norm_x, goal):
    """First sweep (1-based) whose relative residual is at most ``goal``.

    The relative residual is ``sqrt(2 * objective) / ||X||``.  A fit that
    never gets there counts all its sweeps.
    """
    rel = np.sqrt(2.0 * np.maximum(report.objective_per_sweep, 0.0)) / norm_x
    hit = np.flatnonzero(rel <= goal)
    return int(hit[0]) + 1 if hit.size else len(rel)


class Workload:
    name = ""
    setups = 15
    graph_p = None
    op_seeds = (0,)
    # The highest final relative residual of the round's fits, measured once
    # and fixed, so that fits which stop later leave sweeps_to unchanged.
    ref_residual = 0.0

    def round(self):
        return list(self.op_seeds)

    def run_op(self, tring, state, audit, s):
        """Timed ``fit`` (the audit's checking time taken out), then timed scoring."""
        x, ranks, cfg, graph = self.fit_args(tring, state, s)
        audit.reset()
        (cores, report), wall = _timed(tring.solver.fit, x, ranks, cfg, graph)
        fit_s = wall - audit.seconds
        k = sweeps_to(report, state["norm_x"], self.ref_residual + 1e-3)
        # Sweep k ends after solve_core call k * d; its check time is not the fit's.
        time_to_s = float(report.seconds_per_sweep[k - 1]) - audit.cum_seconds[k * len(ranks) - 1]
        op, score_s = _timed(self.score, tring, state, cores, s)
        op.update(cores=cores, report=report, fit_s=fit_s, op_s=fit_s + score_s,
                  time_to_s=time_to_s, sweeps_to=k, t_max=cfg.t_max)
        return op

    def check_fit(self, state, audit, op, beta, graph):
        x, cores, report = state["x"], op["cores"], op["report"]
        if audit.failures:
            raise checks.CheckFailed(audit.failures[0])
        checks.check_nonnegative(cores)
        checks.check_descent(report, state["norm_x"] ** 2)
        checks.check_final_objective(report, x, cores, beta,
                                     None if graph is None else graph.laplacian)


class CoilCluster(Workload):
    """COIL-20-sized clustering: ingest PGMs, mutual 5-NN graph, GNTR, k-means."""

    name = "coil_cluster"
    graph_p = 5
    size = 32
    classes = 20
    ranks = (4, 2, 5)  # the CLI default for 20 classes
    data_seed = 0
    op_seeds = (0, 1)  # the cluster command seeds run r's fit and k-means with seed + r
    ref_residual = 0.1983

    def make_inputs(self, workdir):
        images, classes = inputs.turntable_images(self.data_seed, n_classes=self.classes)
        root = workdir / "coil"
        inputs.write_image_corpus(root, images, classes)
        return {"images": images, "classes": classes, "root": root}

    def setup(self, tring, inp):
        x, labels = tring.images.ingest_images(inp["root"], self.size, self.size)
        graph = tring.graph.neighbor_graph(x, self.graph_p)
        return {"x": x, "labels": labels, "graph": graph, "norm_x": float(np.linalg.norm(x)),
                "counts": {"files": len(labels)}}

    def check_setup(self, inp, state):
        checks.check_ingested(state["x"], state["labels"], inp["images"], inp["classes"])
        checks.check_graph(state["graph"], state["x"], self.graph_p)

    def fit_args(self, tring, state, s):
        return state["x"], self.ranks, tring.solver.SolverConfig(beta=0.1, seed=s), state["graph"]

    def score(self, tring, state, cores, s):
        feats = tring.ring.feature_matrix(cores)
        # Seeded like the fit, as the CLI's cluster command does.
        pred = tring.metrics.kmeans(feats, self.classes, restarts=200, seed=s)
        return {"feats": feats, "pred": pred,
                "ac": tring.metrics.accuracy(pred, state["labels"]),
                "nmi": tring.metrics.nmi(pred, state["labels"])}

    def check_op(self, inp, state, audit, op):
        self.check_fit(state, audit, op, 0.1, state["graph"])
        checks.check_lloyd_fixed_point(op["feats"], op["pred"], self.classes)
        checks.check_scores(op["ac"], op["nmi"], op["pred"], inp["classes"], floor=0.5)
        return op["ac"]


class ColorClassify(Workload):
    """Order-4 colour tensor from a .ten file: graph, GNTR, k-NN on a labelled prefix."""

    name = "color_classify"
    setups = 11  # each set-up builds the n = 3000 graph, about 1.5 s
    graph_p = 5
    slice_dims = (16, 16, 3)
    classes = 20
    per_class = 150
    # Uniform noise amplitude relative to the U[0, 1) prototypes; at 0.05
    # k-NN is perfect, at 1.3 it sits near 0.93 and can move both ways.
    noise = 1.3
    ranks = (4, 2, 2, 5)
    k_list = (1, 3, 5)
    label_fraction = 0.4
    ref_residual = 0.3776
    data_seed = 0

    def make_inputs(self, workdir):
        x, labels = inputs.colour_blobs(self.data_seed, self.slice_dims, self.classes, self.per_class,
                                        self.noise)
        path, lpath = workdir / "color.ten", workdir / "labels.txt"
        inputs.write_ten(path, x)
        inputs.write_label_file(lpath, labels)
        return {"x": x, "labels": labels, "path": path, "labels_path": lpath}

    def setup(self, tring, inp):
        x = tring.fileio.read_tensor(inp["path"])
        labels = tring.fileio.read_labels(inp["labels_path"])
        graph = tring.graph.neighbor_graph(x, self.graph_p)
        return {"x": x, "labels": labels, "graph": graph, "norm_x": float(np.linalg.norm(x)),
                "counts": {"read_bytes": inp["path"].stat().st_size}}

    def check_setup(self, inp, state):
        checks.check_equal("read_tensor", state["x"], inp["x"])
        checks.check_equal("read_labels", state["labels"], inp["labels"])
        checks.check_graph(state["graph"], state["x"], self.graph_p)

    def fit_args(self, tring, state, s):
        return state["x"], self.ranks, tring.solver.SolverConfig(beta=0.1, seed=s), state["graph"]

    def score(self, tring, state, cores, s):
        labels = state["labels"]
        train, test = prefix_split(labels, self.label_fraction)
        feats = tring.ring.feature_matrix(cores)
        preds = {k: tring.metrics.knn_classify(feats[train], labels[train], feats[test], k)
                 for k in self.k_list}
        return {"feats": feats, "preds": preds, "train": train, "test": test,
                "knn_rows": len(self.k_list) * test.size}

    def check_op(self, inp, state, audit, op):
        self.check_fit(state, audit, op, 0.1, state["graph"])
        feats, labels, train, test = op["feats"], inp["labels"], op["train"], op["test"]
        for k, pred in op["preds"].items():
            checks.check_knn(pred, feats[train], labels[train], feats[test], k)
        acc = float(np.mean([np.mean(p == labels[test]) for p in op["preds"].values()]))
        if acc < 0.5:
            raise checks.CheckFailed(f"k-NN accuracy {acc:.3f} below 0.5")
        return acc


class PlainFit(Workload):
    """The CLI ``fit`` command's path on the colour tensor: no graph, beta = 0.

    It reads ``color_classify``'s input but bypasses the graph and the k-NN
    scoring, so a change on the sample side must leave it unchanged.  Its
    score is the relative error.
    """

    name = "plain_fit"
    ranks = ColorClassify.ranks
    op_seeds = tuple(range(5))
    ref_residual = 0.3778

    def make_inputs(self, workdir):
        return ColorClassify().make_inputs(workdir)

    def setup(self, tring, inp):
        x = tring.fileio.read_tensor(inp["path"])
        return {"x": x, "norm_x": float(np.linalg.norm(x)),
                "counts": {"read_bytes": inp["path"].stat().st_size}}

    def check_setup(self, inp, state):
        checks.check_equal("read_tensor", state["x"], inp["x"])

    def fit_args(self, tring, state, s):
        return state["x"], self.ranks, tring.solver.SolverConfig(beta=0.0, seed=s), None

    def score(self, tring, state, cores, s):
        return {"error": tring.ring.relative_error(state["x"], cores)}

    def check_op(self, inp, state, audit, op):
        self.check_fit(state, audit, op, 0.0, None)
        err = checks.relative_error(state["x"], op["cores"])
        if abs(err - op["error"]) > 1e-9:
            raise checks.CheckFailed(f"relative_error {op['error']:.6g} != recomputed {err:.6g}")
        return 1.0 - err


WORKLOADS = {w.name: w for w in (CoilCluster(), ColorClassify(), PlainFit())}
