"""Command-line experiment front end.

Subcommands
-----------
fit       decompose a tensor, write cores + convergence report
cluster   fit, k-means the extracted features, score AC/NMI
classify  fit, k-NN classify features from a per-class prefix split
sweep     rerun the clustering task over a parameter grid
basis     export the learned per-feature basis images as one montage
ingest    convert a PGM/PPM class-directory corpus to the tensor format

Each subcommand accepts only the options it reads.  The five fitting
commands share the input, rank, solver and output options; ``cluster``,
``classify`` and ``sweep`` add ``--labels`` and ``--repeats``, and the
two that run k-means add ``--restarts``.  Every fit is planned by
``_fits``, which checks each setting and builds the sample graph before
any fit runs, and seeds run ``r`` (and its k-means) with ``--seed`` + ``r``.
``sweep`` reruns the ``cluster`` experiment with one option replaced by
each grid value, and plans every value before the first fit; its plans
share one graph per distinct ``p``.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure.  Every run writes a ``manifest.json`` capturing the effective
configuration and input digests, enough to reproduce the outputs
bit-for-bit with the same binary.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .fileio import (
    FileFormatError,
    _int64,
    atomic_write_bytes,
    read_labels,
    read_tensor,
    sha256_file,
    write_labels,
    write_tensor,
)
from .graph import neighbor_graph
from .images import ingest_images, montage, to_uint8, write_pnm
from .metrics import accuracy, kmeans, knn_classify, nmi
from .ring import _chain_shape, basis_tensors, feature_matrix
from .solver import NumericalError, SolverConfig, fit
from .tensor_ops import as_count

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

SWEEP_DEFAULTS = {
    "tmax": (60, 80, 100, 120, 140),
    "p": (3, 4, 5, 6, 7),
    "beta": (0.1, 0.2, 0.3, 0.4, 0.5),
}


def integer(text):
    """An integer option or list item: ``fileio._int64`` of ``text``, whitespace stripped."""
    return _int64(text.strip())


def _parse_list(text, kind=integer):
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        what = "integers" if kind is integer else "numbers"
        raise ValueError(f"expected comma-separated {what}, got {text!r}") from exc


def _parse_layout(text, tiles):
    """``(rows, cols)`` from ``--layout``, checked as :func:`montage` checks it for ``tiles``."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"layout must look like ROWSxCOLS, got {text!r}")
    try:
        rows, cols = integer(parts[0]), integer(parts[1])
    except ValueError as exc:
        raise ValueError(f"layout must look like ROWSxCOLS, got {text!r}") from exc
    rows, cols = as_count(rows, "--layout rows", 1), as_count(cols, "--layout cols", 1)
    as_count(rows * cols, f"cells in layout {rows}x{cols}", tiles)
    return rows, cols


def default_ranks(order, n_classes):
    """Rank chain giving ``n_classes`` feature columns on the last core.

    The last core's leading/trailing ranks take the most balanced factor
    pair of the class count (larger factor on the last core's own rank);
    all other ranks are 2.
    """
    as_count(order, "tensor order", 2)
    n_classes = as_count(n_classes, "class count", 1)
    b = int(np.sqrt(n_classes))
    while n_classes % b:
        b -= 1
    return (b, *[2] * (order - 2), n_classes // b)


def _load(args):
    """``(x, labels, ranks)`` from ``--data``, ``--labels`` and ``--ranks``.

    Labels are read, and required, when the command takes ``--labels``;
    otherwise ``labels`` is ``None``.  The ranks pass ``fit``'s own rank
    rule here, so a bad one fails before any graph is built.
    """
    x = read_tensor(args.data)
    labels = None
    if hasattr(args, "labels"):
        if args.labels is None:
            raise ValueError("this command requires --labels")
        labels = read_labels(args.labels)
        if labels.size != x.shape[-1]:
            raise ValueError(
                f"{labels.size} labels for {x.shape[-1]} samples (last dimension)"
            )
    if args.ranks is not None:
        ranks = _parse_list(args.ranks)
    elif labels is None:
        raise ValueError("--ranks is required when no labels define a class count")
    else:
        ranks = default_ranks(x.ndim, np.unique(labels).size)
    return x, labels, _chain_shape(x.shape, ranks)[1]


def _config(args, seed):
    """The ``SolverConfig`` that the solver options of ``args`` give, seeded ``seed``."""
    return SolverConfig(t_max=args.tmax, max_sweeps=args.max_sweeps, tol=args.tol,
                        beta=args.beta, seed=seed)


def _fits(x, ranks, args, graphs=None):
    """Plan the fits of ``x`` that ``args`` asks for; iterating the result runs them.

    That is ``--repeats`` runs when the command takes the option, else
    one.  This call builds every run's config, ``_config(args, args.seed
    + r)`` for run ``r``, and the sample graph when ``args.beta > 0``, so
    a bad setting fails before any fit.  The graph is taken from
    ``graphs``, a ``p -> graph`` dict on ``x``, and added to it when
    missing, so plans that share the dict build one graph per distinct
    ``p``.  The returned iterator yields ``(seed, cores, report)``.
    """
    repeats = as_count(getattr(args, "repeats", 1), "--repeats", 1)
    cfgs = [_config(args, args.seed + run) for run in range(repeats)]
    graphs = {} if graphs is None else graphs
    if args.beta > 0 and args.p not in graphs:
        graphs[args.p] = neighbor_graph(x, args.p)
    graph = graphs[args.p] if args.beta > 0 else None
    return ((cfg.seed, *fit(x, ranks, cfg, graph)) for cfg in cfgs)


def _check_outdir(args):
    """Fail unless ``--out`` can become a directory, creating nothing.

    Its nearest existing path, itself or an ancestor, must be a
    directory, not a file or a dangling link; ``main`` checks this
    before any work starts.
    """
    out = Path(args.out).absolute()
    found = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not found.is_dir():
        raise NotADirectoryError(f"--out {args.out}: {found} is not a directory")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_manifest(outdir, command, params, inputs):
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": params,
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
    }
    atomic_write_bytes(
        outdir / "manifest.json",
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii"),
    )


def _write_fit_manifest(outdir, args, ranks, **extra):
    """Write ``_config(args, args.seed)``, ``ranks``, ``--p`` and ``extra``, and input digests."""
    params = {**dataclasses.asdict(_config(args, args.seed)), "ranks": list(ranks),
              "p": args.p, **extra}
    inputs = {"data": args.data}
    if hasattr(args, "labels"):
        inputs["labels"] = args.labels
    _write_manifest(outdir, args.command, params, inputs)


def cmd_fit(args):
    x, _, ranks = _load(args)
    _, cores, report = next(_fits(x, ranks, args))
    out = _outdir(args)
    for i, core in enumerate(cores):
        write_tensor(out / f"core_{i + 1}.ten", core)
    rows = [
        (s + 1, float(report.objective_per_sweep[s]),
         float(report.rel_change_per_sweep[s]), float(report.seconds_per_sweep[s]))
        for s in range(report.sweeps_run)
    ]
    _write_csv(out / "report.csv", ("sweep", "objective", "rel_change", "seconds"), rows)
    _write_fit_manifest(out, args, ranks)
    print(
        f"fit: {report.sweeps_run} sweeps, objective "
        f"{report.objective_per_sweep[-1]:.6g}, stopped by {report.terminated_by}, "
        f"cores in {out}"
    )


def _cluster_runs(fits, labels, restarts):
    """Score planned fits: k-means each run seeded like its fit, one (AC, NMI) row."""
    as_count(restarts, "restarts", 1)  # kmeans' own check, made before the first fit runs
    k = int(np.unique(labels).size)
    rows = []
    for seed, cores, _ in fits:
        pred = kmeans(feature_matrix(cores), k, restarts=restarts, seed=seed)
        rows.append((accuracy(pred, labels), nmi(pred, labels)))
    return np.asarray(rows)


def cmd_cluster(args):
    x, labels, ranks = _load(args)
    scores = _cluster_runs(_fits(x, ranks, args), labels, args.restarts)
    out = _outdir(args)
    rows = [(r + 1, scores[r, 0], scores[r, 1]) for r in range(len(scores))]
    rows.append(("mean", scores[:, 0].mean(), scores[:, 1].mean()))
    rows.append(("std", scores[:, 0].std(), scores[:, 1].std()))
    _write_csv(out / "cluster.csv", ("run", "ac", "nmi"), rows)
    _write_fit_manifest(out, args, ranks, restarts=args.restarts, repeats=args.repeats)
    for r in range(len(scores)):
        print(f"run {r + 1}: ac={scores[r, 0]:.4f} nmi={scores[r, 1]:.4f}")
    print(
        f"cluster: mean ac={scores[:, 0].mean():.4f} (std {scores[:, 0].std():.4f}), "
        f"mean nmi={scores[:, 1].mean():.4f} (std {scores[:, 1].std():.4f})"
    )


def _prefix_split(labels, fraction):
    """Per-class prefix split: first ``fraction`` of each class is labeled."""
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        n_lab = int(np.floor(fraction * idx.size))
        if n_lab < 1:
            raise ValueError(
                f"class {c} has {idx.size} samples; fraction {fraction} labels none"
            )
        train_idx.extend(idx[:n_lab])
        test_idx.extend(idx[n_lab:])
    return np.asarray(train_idx), np.asarray(test_idx)


def cmd_classify(args):
    if not 0.0 < args.label_fraction < 1.0:
        raise ValueError("--label-fraction must lie strictly between 0 and 1")
    x, labels, ranks = _load(args)
    k_list = _parse_list(args.k_list)
    train_idx, test_idx = _prefix_split(labels, args.label_fraction)
    fits = _fits(x, ranks, args)
    for k in k_list:  # knn_classify's own check, made before the first fit runs
        as_count(k, "k", 1, train_idx.size)
    acc = [[] for _ in k_list]  # one list per entry, so a repeated k keeps runs 1..R
    for _, cores, _ in fits:
        feats = feature_matrix(cores)
        for k, runs in zip(k_list, acc):
            pred = knn_classify(feats[train_idx], labels[train_idx],
                                feats[test_idx], k)
            runs.append(float(np.mean(pred == labels[test_idx])))
    out = _outdir(args)
    rows = []
    for k, runs in zip(k_list, acc):
        vals = np.asarray(runs)
        rows.extend((k, r + 1, vals[r]) for r in range(len(vals)))
        rows.append((k, "mean", vals.mean()))
        rows.append((k, "std", vals.std()))
        print(f"k={k}: mean accuracy {vals.mean():.4f} (std {vals.std():.4f})")
    _write_csv(out / "classify.csv", ("k", "run", "accuracy"), rows)
    _write_fit_manifest(out, args, ranks, label_fraction=args.label_fraction,
                        k_list=list(k_list), repeats=args.repeats)


def cmd_sweep(args):
    x, labels, ranks = _load(args)
    param = args.sweep_param
    if param == "p" and not args.beta > 0:
        raise ValueError("sweeping p needs --beta > 0")
    values = (SWEEP_DEFAULTS[param] if args.sweep_values is None
              else _parse_list(args.sweep_values, float if param == "beta" else integer))
    graphs = {}
    plans = [_fits(x, ranks, argparse.Namespace(**{**vars(args), param: value}),
                   graphs) for value in values]
    rows = []
    for value, fits in zip(values, plans):
        start = time.perf_counter()
        scores = _cluster_runs(fits, labels, args.restarts)
        elapsed = time.perf_counter() - start
        rows.append((param, value, scores[:, 0].mean(), scores[:, 0].std(),
                     scores[:, 1].mean(), scores[:, 1].std(), elapsed))
        print(f"{param}={value}: mean ac={scores[:, 0].mean():.4f} "
              f"mean nmi={scores[:, 1].mean():.4f} ({elapsed:.2f}s)")
    out = _outdir(args)
    _write_csv(out / "sweep.csv",
               ("param", "value", "ac_mean", "ac_std", "nmi_mean", "nmi_std", "seconds"),
               rows)
    _write_fit_manifest(out, args, ranks, sweep_param=param, sweep_values=list(values),
                        restarts=args.restarts, repeats=args.repeats)


def cmd_basis(args):
    x, _, ranks = _load(args)
    rows_n, cols_n = _parse_layout(args.layout, ranks[-1] * ranks[0])  # one tile per feature
    slice_dims = x.shape[:-1]
    color = len(slice_dims) == 3 and slice_dims[2] == 3
    if not color and len(slice_dims) != 2:
        raise ValueError(
            "basis montage needs grayscale (h, w, samples) or color "
            "(h, w, 3, samples) data"
        )
    _, cores, _ = next(_fits(x, ranks, args))
    tiles = [to_uint8(b) for b in basis_tensors(cores)]
    canvas = montage(tiles, rows_n, cols_n)
    out = _outdir(args)
    name = "basis.ppm" if color else "basis.pgm"
    write_pnm(out / name, canvas)
    _write_fit_manifest(out, args, ranks, layout=[rows_n, cols_n])
    print(f"basis: {len(tiles)} tiles -> {out / name} "
          f"({canvas.shape[0]}x{canvas.shape[1]} pixels)")


def cmd_ingest(args):
    x, labels = ingest_images(args.images, args.height, args.width)
    out = _outdir(args)
    write_tensor(out / "data.ten", x)
    write_labels(out / "labels.txt", labels)
    _write_manifest(out, "ingest",
                    {"height": args.height, "width": args.width,
                     "images": str(args.images)},
                    {"data": out / "data.ten", "labels": out / "labels.txt"})
    print(f"ingest: {labels.size} samples, shape {x.shape}, wrote {out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tring",
        description="Nonnegative tensor ring decomposition experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups; each subcommand takes only the groups it reads.
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--data", required=True, help="input tensor (.ten)")
    fitting.add_argument("--ranks", help="comma-separated rank chain r1,...,rd")
    # The solver knobs default to SolverConfig's, except --beta: a command
    # fits plain unless it is asked for the graph.
    fitting.add_argument("--beta", type=float, default=0.0,
                         help="graph regularization weight (0 = plain fit)")
    fitting.add_argument("--p", type=integer, default=5,
                         help="neighbor count for the graph (read when --beta > 0)")
    fitting.add_argument("--tmax", type=integer, default=SolverConfig.t_max,
                         help="inner iterations per core")
    fitting.add_argument("--tol", type=float, default=SolverConfig.tol,
                         help="relative objective-change stopping threshold")
    fitting.add_argument("--max-sweeps", type=integer, default=SolverConfig.max_sweeps,
                         help="outer sweep cap")
    fitting.add_argument("--seed", type=integer, default=SolverConfig.seed,
                         help="random seed; repeated run r uses seed + r")
    fitting.add_argument("--out", default="tring-out", help="output directory")
    repeated = argparse.ArgumentParser(add_help=False, parents=[fitting])
    repeated.add_argument("--labels", help="labels file, one integer per line")
    repeated.add_argument("--repeats", type=integer, default=10,
                          help="independent experiment repetitions")
    clustering = argparse.ArgumentParser(add_help=False, parents=[repeated])
    clustering.add_argument("--restarts", type=integer, default=200, help="k-means restarts")

    p = sub.add_parser("fit", parents=[fitting],
                       help="decompose a tensor and save the cores")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cluster", parents=[clustering],
                       help="cluster extracted features, score AC/NMI")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("classify", parents=[repeated],
                       help="k-NN classification on extracted features")
    p.add_argument("--label-fraction", type=float, default=0.4,
                   help="labeled prefix fraction per class (in (0, 1))")
    p.add_argument("--k-list", default="1,3,5",
                   help="comma-separated neighbor counts")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", parents=[clustering],
                       help="rerun the clustering task over a grid")
    p.add_argument("--sweep-param", required=True, choices=("tmax", "p", "beta"))
    p.add_argument("--sweep-values",
                   help="comma-separated grid (defaults per parameter)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("basis", parents=[fitting],
                       help="export per-feature basis images as a montage")
    p.add_argument("--layout", required=True, help="montage grid, e.g. 3x4")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("ingest", help="convert a PGM/PPM corpus to tensor format")
    p.add_argument("--images", required=True,
                   help="directory with one subdirectory per class")
    p.add_argument("--height", type=integer, required=True)
    p.add_argument("--width", type=integer, required=True)
    p.add_argument("--out", default="tring-out", help="output directory")
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_outdir(args)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
