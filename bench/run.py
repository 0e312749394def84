"""Benchmark for the tring library: GNTR clustering, GNTR classification, plain NTR fits.

Run from the repository root:

    python3 bench/run.py --workload coil_cluster --seed 0 --seconds 15 --trace 0
    python3 bench/run.py            # every workload, each in its own process

The library is imported from ``src/`` next to this directory, never from an
installed copy.  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans go to ``bench/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "fit_s": "s", "peak_rss_mb": "MB", "quality": "ratio"}


def import_tring():
    """Import the library from this checkout's ``src/``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "tring" / "__init__.py").is_file():
        print(f"error: no tring sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tring
    import tring.fileio
    import tring.graph
    import tring.images
    import tring.metrics
    import tring.ring
    import tring.solver
    import tring.tensor_ops

    if Path(tring.__file__).resolve().parent != (src / "tring").resolve():
        print(f"error: tring imported from {tring.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return tring


def measure(wl, tring, seconds, tracer):
    """Make inputs, then time setups and whole rounds of operations."""
    work = BENCH_DIR / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    audit = checks.SolveCoreAudit(tring.solver, tracer)
    try:
        inp = wl.make_inputs(work)
        if tracer is not None:
            tracer.install()
        audit.install()
        res = {"setup_s": [], "ops": [], "failures": [], "setup_ok": True, "state": None}
        # Half the set-ups run before the operations and half after, so that
        # they sample this machine's speed, which drifts over seconds, at
        # both ends of the run rather than in one stretch.
        before = (wl.setups + 1) // 2
        set_up(wl, tring, inp, tracer, res, before)
        start = time.perf_counter()
        while True:
            for s in wl.round():
                res["ops"].append(run_one(wl, tring, inp, res["state"], audit, s, tracer, res))
            if time.perf_counter() - start >= seconds:
                break
        res["measured_s"] = time.perf_counter() - start
        set_up(wl, tring, inp, tracer, res, wl.setups - before)
        if tracer is not None:
            audit.uninstall()
            tracer.uninstall()
            res["peak_alloc_mb"] = peak_allocations(wl, tring, res["state"])
        return res
    finally:
        audit.uninstall()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def set_up(wl, tring, inp, tracer, res, count):
    """Time ``count`` set-ups; ``res["state"]`` keeps the last one's output."""
    for _ in range(count):
        res["state"] = None  # free the previous set-up's graph before building the next
        t0 = time.perf_counter()
        if tracer is None:
            state = wl.setup(tring, inp)
        else:
            with tracer.span("bench.setup"):
                state = wl.setup(tring, inp)
        res["setup_s"].append(time.perf_counter() - t0)
        try:
            wl.check_setup(inp, state)
        except checks.CheckFailed as exc:
            res["setup_ok"] = False
            res["failures"].append(f"setup: {exc}")
        res["state"], state = state, None


def peak_allocations(wl, tring, state):
    """Peak traced allocation (MB) of one ``neighbor_graph`` and one ``fit``.

    tracemalloc slows every allocation several-fold, so it runs in this
    separate, untimed pass on plain library calls.  The fit is cut to two
    sweeps: every sweep allocates the same arrays, so its peak is reached
    in the first.
    """
    def peak(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    out = {"graph.neighbor_graph": 0.0}
    if wl.graph_p is not None:
        out["graph.neighbor_graph"] = peak(tring.graph.neighbor_graph, state["x"], wl.graph_p)
    x, ranks, cfg, graph = wl.fit_args(tring, state, wl.round()[0])
    cfg.max_sweeps = 2
    out["solver.fit"] = peak(tring.solver.fit, x, ranks, cfg, graph)
    return out


def run_one(wl, tring, inp, state, audit, s, tracer, res):
    """One operation: a seeded fit with its scoring, then its checks."""
    try:
        if tracer is None:
            op = wl.run_op(tring, state, audit, s)
        else:
            with tracer.span("bench.op"):
                op = wl.run_op(tring, state, audit, s)
        op["quality"] = wl.check_op(inp, state, audit, op)
        op["ok"] = res["setup_ok"]
    except (checks.CheckFailed, ArithmeticError, RuntimeError, ValueError) as exc:
        res["failures"].append(f"op seed {s}: {type(exc).__name__}: {exc}")
        op = {"ok": False, "quality": 0.0}
    # Keep only what the metrics need; cores and predictions go.
    keep = ("ok", "quality", "fit_s", "op_s", "time_to_s", "sweeps_to", "t_max", "knn_rows",
            "nmi")
    out = {k: op[k] for k in keep if k in op}
    out["seed"] = s
    if "report" in op:
        out["sweeps"] = op["report"].sweeps_run
    return out


def end_to_end(res):
    good = [op for op in res["ops"] if op["ok"]] or res["ops"]
    med = statistics.median
    setup = med(res["setup_s"])
    op_s = {}
    for op in good:
        op_s.setdefault(op["seed"], []).append(op.get("op_s", float("nan")))
    vals = {
        "setup_s": setup,
        # One set-up and one whole round, each operation of the round at its median.
        "run_s": setup + sum(med(times) for times in op_s.values()),
        "fit_s": med(op.get("fit_s", float("nan")) for op in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": statistics.fmean(op["quality"] for op in res["ops"]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in vals.items()}


PER_LAYER = {
    "images.ingest_images.s": "s", "images.ingest_images.files": "count",
    "fileio.read_tensor.s": "s", "fileio.read_tensor.bytes": "B",
    "graph.pairwise_distances.s": "s", "graph.knn_graph.s": "s",
    "graph.edges": "count", "graph.isolated": "count",
    "graph.neighbor_graph.peak_alloc_mb": "MB",
    "tensor_ops.spectral_norm.calls": "count", "tensor_ops.spectral_norm.s": "s",
    "tensor_ops.unfold_tr.s": "s",
    "ring.build_subchain.calls": "count", "ring.build_subchain.s": "s",
    "ring.subchain_unfold2.s": "s",
    "solver.solve_core.calls": "count", "solver.solve_core.self_s": "s",
    "solver.prox_step.calls": "count", "solver.prox_step.s": "s",
    "solver.search_point.s": "s", "solver.restarts": "count",
    "solver.fit.calls": "count", "solver.fit.self_s": "s",
    "solver.sweeps": "count", "solver.sweeps_to_1e-3": "count", "solver.time_to_1e-3_s": "s",
    "solver.fit.peak_alloc_mb": "MB",
    "metrics.kmeans.calls": "count", "metrics.kmeans.s": "s",
    "metrics.knn_classify.s": "s", "metrics.knn_classify.rows": "count",
}


def per_layer(res, tracer):
    """Per-layer figures: set-up layers per set-up, the rest per operation."""
    n_setup, n_ops = len(res["setup_s"]), len(res["ops"])
    setup = tracer.totals("bench.setup")
    ops = tracer.totals("bench.op")

    def layer(name, field):
        i = {"calls": 0, "s": 1, "self_s": 2}[field]
        return setup[name][i] / n_setup + ops[name][i] / n_ops

    def inline(name, field):
        calls, secs = tracer.inline[name]
        return (calls if field == "calls" else secs) / n_ops

    def mean_op(key):
        return statistics.fmean(op.get(key, 0) for op in res["ops"])

    state = res["state"]
    graph = state.get("graph")
    counts = state["counts"]
    vals = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name.startswith("solver.prox_step") or name == "solver.search_point.s":
            vals[name] = inline(head, field)
        elif field in ("calls", "s", "self_s"):
            vals[name] = layer(head, field)
    vals["images.ingest_images.files"] = counts.get("files", 0)
    vals["fileio.read_tensor.bytes"] = counts.get("read_bytes", 0)
    vals["graph.edges"] = int(graph.w.sum()) // 2 if graph is not None else 0
    vals["graph.isolated"] = int((graph.degree == 0).sum()) if graph is not None else 0
    vals["graph.neighbor_graph.peak_alloc_mb"] = res["peak_alloc_mb"]["graph.neighbor_graph"]
    vals["solver.fit.peak_alloc_mb"] = res["peak_alloc_mb"]["solver.fit"]
    t_max = res["ops"][0].get("t_max", 0)
    vals["solver.restarts"] = vals["solver.prox_step.calls"] - t_max * vals["solver.solve_core.calls"]
    vals["solver.sweeps"] = mean_op("sweeps")
    vals["solver.sweeps_to_1e-3"] = mean_op("sweeps_to")
    vals["solver.time_to_1e-3_s"] = mean_op("time_to_s")
    vals["metrics.knn_classify.rows"] = mean_op("knn_rows")
    return {k: {"value": vals[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def environment(tring):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or f"default ({os.cpu_count()} CPUs)"
    return (f"tring {tring.__version__}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"{blas['name']} {blas['version']}, BLAS threads {threads}")


def run_workload(args):
    tring = import_tring()
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    res = measure(wl, tring, args.seconds, tracer)
    wall = time.perf_counter() - t0
    failed = sum(not op["ok"] for op in res["ops"])
    for msg in res["failures"]:
        print(f"FAILED {wl.name}: {msg}", file=sys.stderr)
    metrics = per_layer(res, tracer) if tracer is not None else end_to_end(res)
    print(f"# {environment(tring)}")
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {len(res['ops'])} operations "
          f"in {res['measured_s']:.1f} s measured ({wall:.1f} s with inputs), {failed} failed")
    print("# setup seconds: " + " ".join(f"{t:.4f}" for t in res["setup_s"]))
    for i, op in enumerate(res["ops"]):
        extra = f" nmi={op['nmi']:.4f}" if "nmi" in op else ""
        print(f"# op {i}: ok={op['ok']} fit_s={op.get('fit_s', float('nan')):.3f} "
              f"sweeps={op.get('sweeps', 0)} quality={op['quality']:.4f}{extra}")
    if tracer is not None:
        e2e = end_to_end(res)
        print(f"# traced run_s {e2e['run_s']['value']:.4f} s (compare an untraced run)")
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{wl.name}.jsonl")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["setup_ok"], "attempted": len(res["ops"]),
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, so each peak RSS is that workload's alone."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(proc.returncode or 1)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: each workload's inputs and fit seeds are fixed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
