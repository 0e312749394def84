"""End-to-end command-line runs: outputs, schemas, determinism, exit codes."""

import argparse
import json

import numpy as np
import pytest

from tring.cli import build_parser, default_ranks, main
from tring.fileio import FileFormatError, read_tensor, write_labels, write_tensor
from tring.ring import TRCores, relative_error
from tring.solver import DegenerateSubproblemError, NumericalError
from tring.synthetic import blob_tensor, ring_tensor


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    x, labels = blob_tensor((4, 4), n_classes=2, per_class=6, noise=0.05, seed=0)
    write_tensor(root / "data.ten", x)
    write_labels(root / "labels.txt", labels)
    return root / "data.ten", root / "labels.txt"


def fast_args(extra):
    return ["--tmax", "10", "--max-sweeps", "6", "--restarts", "5",
            "--repeats", "2", "--seed", "1"] + extra


def test_default_ranks_balanced_pair():
    assert default_ranks(4, 3) == (1, 2, 2, 3)
    assert default_ranks(4, 4) == (2, 2, 2, 2)
    assert default_ranks(3, 12) == (3, 2, 4)
    assert default_ranks(4, 7) == (1, 2, 2, 7)


class TestFitCommand:
    def test_writes_cores_report_manifest(self, blob_files, tmp_path):
        data, _ = blob_files
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data), "--ranks", "2,2,2",
                     "--tmax", "10", "--max-sweeps", "5", "--out", str(out)])
        assert code == 0
        for i in range(1, 4):
            assert (out / f"core_{i}.ten").exists()
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "sweep,objective,rel_change,seconds"
        assert len(lines) >= 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["parameters"]["ranks"] == [2, 2, 2]
        assert "data" in manifest["inputs"]

    def test_rerun_bit_identical_cores(self, blob_files, tmp_path):
        data, _ = blob_files
        args = ["fit", "--data", str(data), "--ranks", "2,2,2",
                "--tmax", "8", "--max-sweeps", "4", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for i in range(1, 4):
            assert (out_a / f"core_{i}.ten").read_bytes() == (
                out_b / f"core_{i}.ten"
            ).read_bytes()

    def test_graph_fit_needs_no_labels(self, blob_files, tmp_path):
        data, _ = blob_files
        out = tmp_path / "g"
        code = main(["fit", "--data", str(data), "--ranks", "2,2,2",
                     "--beta", "0.1", "--p", "3", "--tmax", "8",
                     "--max-sweeps", "4", "--out", str(out)])
        assert code == 0

    def test_objective_column_non_increasing(self, blob_files, tmp_path):
        data, _ = blob_files
        out = tmp_path / "m"
        main(["fit", "--data", str(data), "--ranks", "2,2,2", "--tmax", "10",
              "--max-sweeps", "8", "--out", str(out)])
        rows = (out / "report.csv").read_text().splitlines()[1:]
        objectives = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_recovers_exactly_decomposable_data(self, tmp_path):
        x, _ = ring_tensor((5, 4, 6), (2, 2, 2), seed=9)
        write_tensor(tmp_path / "ring.ten", x)
        out = tmp_path / "rec"
        code = main(["fit", "--data", str(tmp_path / "ring.ten"),
                     "--ranks", "2,2,2", "--tmax", "60", "--max-sweeps", "300",
                     "--tol", "1e-10", "--seed", "4", "--out", str(out)])
        assert code == 0
        cores = TRCores([read_tensor(out / f"core_{i}.ten") for i in (1, 2, 3)])
        assert relative_error(x, cores) <= 1e-3


class TestClusterCommand:
    def test_csv_schema_and_summary_rows(self, blob_files, tmp_path):
        data, labels = blob_files
        out = tmp_path / "out"
        code = main(["cluster", "--data", str(data), "--labels", str(labels)]
                    + fast_args(["--out", str(out)]))
        assert code == 0
        lines = (out / "cluster.csv").read_text().splitlines()
        assert lines[0] == "run,ac,nmi"
        assert len(lines) == 1 + 2 + 2  # runs + mean + std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")
        ac = float(lines[1].split(",")[1])
        assert 0.0 <= ac <= 1.0

    def test_default_ranks_from_class_count(self, blob_files, tmp_path):
        data, labels = blob_files
        out = tmp_path / "dr"
        code = main(["cluster", "--data", str(data), "--labels", str(labels)]
                    + fast_args(["--out", str(out)]))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["ranks"] == [1, 2, 2]  # 2 classes, order 3

    def test_deterministic_given_seed(self, blob_files, tmp_path):
        data, labels = blob_files
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["cluster", "--data", str(data), "--labels", str(labels)]
                 + fast_args(["--out", str(out)]))
            outs.append((out / "cluster.csv").read_text())
        assert outs[0] == outs[1]

    def test_missing_labels_is_validation_error(self, blob_files, tmp_path):
        data, _ = blob_files
        code = main(["cluster", "--data", str(data),
                     "--out", str(tmp_path / "x")])
        assert code == 2


class TestClassifyCommand:
    def test_csv_schema(self, blob_files, tmp_path):
        data, labels = blob_files
        out = tmp_path / "out"
        code = main(["classify", "--data", str(data), "--labels", str(labels),
                     "--label-fraction", "0.4", "--k-list", "1,3", "--tmax", "10",
                     "--max-sweeps", "6", "--repeats", "2", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "classify.csv").read_text().splitlines()
        assert lines[0] == "k,run,accuracy"
        # per k: repeats rows + mean + std
        assert len(lines) == 1 + 2 * (2 + 2)
        for row in lines[1:]:
            k, run, acc = row.split(",")
            if run == "mean":
                # separable fixture classifies nearly perfectly
                assert float(acc) >= 0.9, (k, acc)

    def test_duplicate_sample_fixture_perfect_at_k1(self, tmp_path):
        # every sample within a class is identical, so features coincide
        x, labels = blob_tensor((3, 3), 2, 6, noise=0.0, seed=1)
        write_tensor(tmp_path / "d.ten", x)
        write_labels(tmp_path / "l.txt", labels)
        out = tmp_path / "out"
        code = main(["classify", "--data", str(tmp_path / "d.ten"),
                     "--labels", str(tmp_path / "l.txt"),
                     "--label-fraction", "0.5", "--k-list", "1",
                     "--tmax", "20", "--max-sweeps", "10", "--repeats", "1",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "classify.csv").read_text().splitlines()
        mean_row = [r for r in lines if r.split(",")[1] == "mean"][0]
        assert float(mean_row.split(",")[2]) == 1.0

    def test_fraction_one_rejected(self, blob_files, tmp_path):
        data, labels = blob_files
        code = main(["classify", "--data", str(data), "--labels", str(labels),
                     "--label-fraction", "1.0", "--out", str(tmp_path / "x")])
        assert code == 2


class TestSweepCommand:
    def test_grid_rows(self, blob_files, tmp_path):
        data, labels = blob_files
        out = tmp_path / "out"
        code = main(["sweep", "--data", str(data), "--labels", str(labels),
                     "--sweep-param", "beta", "--sweep-values", "0,0.1,0.2",
                     "--repeats", "1", "--restarts", "4", "--tmax", "8",
                     "--max-sweeps", "4", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,ac_mean,ac_std,nmi_mean,nmi_std,seconds"
        assert len(lines) == 4
        assert all(line.startswith("beta,") for line in lines[1:])

    def test_wall_time_grows_with_inner_iterations(self, blob_files, tmp_path):
        # coarse timing audit: 10x the inner iterations must cost more
        data, labels = blob_files
        out = tmp_path / "t"
        code = main(["sweep", "--data", str(data), "--labels", str(labels),
                     "--sweep-param", "tmax", "--sweep-values", "5,50",
                     "--repeats", "1", "--restarts", "2", "--tol", "1e-15",
                     "--max-sweeps", "6", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        seconds = [float(r.split(",")[-1]) for r in rows]
        assert seconds[1] > seconds[0]

    def test_beta_zero_row_matches_plain_cluster_run(self, blob_files, tmp_path):
        data, labels = blob_files
        sweep_out = tmp_path / "s"
        cluster_out = tmp_path / "c"
        common = ["--repeats", "1", "--restarts", "4", "--tmax", "8",
                  "--max-sweeps", "4", "--seed", "5"]
        main(["sweep", "--data", str(data), "--labels", str(labels),
              "--sweep-param", "beta", "--sweep-values", "0"]
             + common + ["--out", str(sweep_out)])
        main(["cluster", "--data", str(data), "--labels", str(labels),
              "--beta", "0"] + common + ["--out", str(cluster_out)])
        sweep_row = (sweep_out / "sweep.csv").read_text().splitlines()[1].split(",")
        cluster_row = (cluster_out / "cluster.csv").read_text().splitlines()[1].split(",")
        assert sweep_row[2] == cluster_row[1]  # ac
        assert sweep_row[4] == cluster_row[2]  # nmi


    @pytest.mark.parametrize("param, values", [("tmax", "2,8"), ("p", "2,4")])
    def test_row_matches_cluster_run_with_that_value(self, param, values, tmp_path):
        # Noisy enough that the grid values score differently, so a sweep
        # that kept the base value would not match.
        x, labels = blob_tensor((4, 4), n_classes=2, per_class=6, noise=1.0, seed=0)
        data, label_file = tmp_path / "d.ten", tmp_path / "l.txt"
        write_tensor(data, x)
        write_labels(label_file, labels)
        common = ["--data", str(data), "--labels", str(label_file), "--beta", "0.5",
                  "--repeats", "2", "--restarts", "4", "--tmax", "8",
                  "--max-sweeps", "4", "--seed", "5"]
        assert main(["sweep", "--sweep-param", param, "--sweep-values", values]
                    + common + ["--out", str(tmp_path / "s")]) == 0
        first = values.split(",")[0]
        assert main(["cluster"] + common
                    + [f"--{param}", first, "--out", str(tmp_path / "c")]) == 0
        sweep_rows = [r.split(",") for r in
                      (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]]
        cluster_rows = [r.split(",") for r in
                        (tmp_path / "c" / "cluster.csv").read_text().splitlines()[-2:]]
        mean, std = cluster_rows
        assert sweep_rows[0][1] == first
        assert sweep_rows[0][2:6] == [mean[1], std[1], mean[2], std[2]]
        assert sweep_rows[0][2:6] != sweep_rows[1][2:6]


class TestBasisCommand:
    def test_montage_dimensions_contract(self, blob_files, tmp_path):
        data, _ = blob_files  # grayscale 4x4 slices
        out = tmp_path / "out"
        code = main(["basis", "--data", str(data), "--ranks", "2,2,2",
                     "--layout", "2x2", "--tmax", "8", "--max-sweeps", "4",
                     "--out", str(out)])
        assert code == 0
        raw = (out / "basis.pgm").read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")  # 2*4 x 2*4 pixels
        assert len(raw) == len(b"P5\n8 8\n255\n") + 64

    def test_color_data_writes_ppm(self, tmp_path):
        x, _ = blob_tensor((4, 4, 3), 2, 4, seed=2)
        write_tensor(tmp_path / "c.ten", x)
        out = tmp_path / "out"
        code = main(["basis", "--data", str(tmp_path / "c.ten"),
                     "--ranks", "1,2,2,2", "--layout", "1x2", "--tmax", "8",
                     "--max-sweeps", "4", "--out", str(out)])
        assert code == 0
        assert (out / "basis.ppm").read_bytes().startswith(b"P6\n8 4\n255\n")

    def test_layout_too_small_rejected(self, blob_files, tmp_path):
        data, _ = blob_files
        code = main(["basis", "--data", str(data), "--ranks", "2,2,2",
                     "--layout", "1x2", "--tmax", "5", "--max-sweeps", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2


class TestIngestCommand:
    def test_pgm_corpus_to_tensor(self, tmp_path):
        corpus = tmp_path / "corpus"
        for ci, cls in enumerate(["a", "b"]):
            d = corpus / cls
            d.mkdir(parents=True)
            img = np.full((4, 4), 100 * (ci + 1), dtype=np.uint8)
            d.joinpath("i.pgm").write_bytes(b"P5\n4 4\n255\n" + img.tobytes())
        out = tmp_path / "out"
        code = main(["ingest", "--images", str(corpus), "--height", "2",
                     "--width", "2", "--out", str(out)])
        assert code == 0
        x = read_tensor(out / "data.ten")
        assert x.shape == (2, 2, 2)
        assert np.allclose(x[..., 0], 100 / 255)
        assert (out / "labels.txt").read_text() == "0\n1\n"

    def test_missing_corpus_is_validation_error(self, tmp_path):
        code = main(["ingest", "--images", str(tmp_path / "nope"),
                     "--height", "2", "--width", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2


FITTING = {"-h", "--help", "--data", "--ranks", "--beta", "--p", "--tmax", "--tol",
           "--max-sweeps", "--seed", "--out"}
REPEATED = FITTING | {"--labels", "--repeats"}


class TestOptions:
    @pytest.mark.parametrize("command, expected", [
        ("fit", FITTING),
        ("basis", FITTING | {"--layout"}),
        ("cluster", REPEATED | {"--restarts"}),
        ("classify", REPEATED | {"--label-fraction", "--k-list"}),
        ("sweep", REPEATED | {"--restarts", "--sweep-param", "--sweep-values"}),
        ("ingest", {"-h", "--help", "--images", "--height", "--width", "--out"}),
    ])
    def test_each_command_takes_only_the_options_it_reads(self, command, expected):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert options == expected

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "d.ten", "--restarts", "5"],
        ["basis", "--data", "d.ten", "--layout", "2x2", "--labels", "l.txt"],
        ["classify", "--data", "d.ten", "--labels", "l.txt", "--restarts", "5"],
    ])
    def test_unread_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExitCodes:
    def test_unreadable_data_file(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "missing.ten"),
                     "--ranks", "2,2", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_corrupt_data_file(self, tmp_path):
        bad = tmp_path / "bad.ten"
        bad.write_bytes(b"garbage")
        code = main(["fit", "--data", str(bad), "--ranks", "2,2",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_declared_size_beyond_int64_is_file_error(self, tmp_path):
        bad = tmp_path / "huge.ten"
        bad.write_bytes(b"TEN1" + (2).to_bytes(4, "little") + (2**32).to_bytes(8, "little") * 2)
        code = main(["fit", "--data", str(bad), "--ranks", "2,2",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_bad_ranks_is_validation_error(self, blob_files, tmp_path):
        data, _ = blob_files
        code = main(["fit", "--data", str(data), "--ranks", "2,2",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_wrong_label_count(self, blob_files, tmp_path):
        data, _ = blob_files
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        code = main(["cluster", "--data", str(data), "--labels", str(short),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command", ["fit", "cluster"])
    def test_non_finite_data_is_validation_error(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # The .ten reader already refuses NaN, so hand the commands a tensor
        # that got past it: fit's own check must map to exit 2, not 4.
        x, _ = ring_tensor((4, 4, 5), (2, 2, 2), seed=0)
        x[1, 2, 3] = np.nan
        monkeypatch.setattr("tring.cli.read_tensor", lambda path: x.copy())
        labels = tmp_path / "labels.txt"
        write_labels(labels, [0, 0, 1, 1, 1])
        label_opts = ["--labels", str(labels)] if command == "cluster" else []
        code = main([command, "--data", "nan.ten", *label_opts,
                     "--ranks", "2,2,2", "--beta", "0", "--tmax", "5", "--max-sweeps", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_data_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "huge.ten"
        write_tensor(data, np.random.default_rng(0).random((3, 3, 4)) * 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit", "--data", str(data), "--ranks", "2,2,2", "--tmax", "5",
                         "--max-sweeps", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "too large for float64" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, expected", [
        (ValueError, 2),
        (FileFormatError, 3),
        (OSError, 3),
        (NumericalError, 4),
        (DegenerateSubproblemError, 4),
    ])
    def test_exception_maps_to_exit_code(self, exc, expected, blob_files, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr("tring.cli.fit", failing_fit)
        data, _ = blob_files
        code = main(["fit", "--data", str(data), "--ranks", "2,2,2",
                     "--out", str(tmp_path / "o")])
        assert code == expected

    def test_unmapped_exception_propagates(self, blob_files, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr("tring.cli.fit", failing_fit)
        data, _ = blob_files
        with pytest.raises(RuntimeError, match="injected"):
            main(["fit", "--data", str(data), "--ranks", "2,2,2", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command", ["cluster", "classify", "sweep"])
    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_no_repeats_is_validation_error(self, command, repeats, blob_files, tmp_path,
                                            capsys):
        data, labels = blob_files
        extra = ["--sweep-param", "beta", "--sweep-values", "0"] if command == "sweep" else []
        out = tmp_path / "o"
        code = main([command, "--data", str(data), "--labels", str(labels),
                     "--repeats", repeats, "--tmax", "5", "--max-sweeps", "2",
                     "--out", str(out)] + extra)
        assert code == 2
        assert "--repeats must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_no_kmeans_restarts_is_validation_error(self, blob_files, tmp_path, capsys):
        data, labels = blob_files
        code = main(["cluster", "--data", str(data), "--labels", str(labels),
                     "--restarts", "0", "--repeats", "1", "--tmax", "5",
                     "--max-sweeps", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "restarts must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
