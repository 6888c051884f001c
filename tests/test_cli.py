"""Command-line interface tests.

Drives the in-process entry point `cli.run` for speed, plus one
subprocess smoke test for module invocation.  Fixtures build a small
synthetic scene directory and a hand-made, linearly separable metrics
CSV so training subcommands have a known-good answer.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metaseg import cli, features, metaclf, raster

# Boosted optimizer flags for the tiny separable dataset; the library
# defaults underfit 24 rows.
TRAIN_FLAGS = [
    "--lr", "0.1", "--weight-decay", "0.0",
    "--epochs", "150", "--batch-size", "8", "--seed", "0",
]

SYNTH_FLAGS = [
    "--count", "4", "--seed", "9", "--height", "24", "--width", "24",
    "--classes", "4", "--blob-min", "1", "--blob-max", "2",
    "--size-min", "3", "--size-max", "6", "--false-rate", "1.5",
]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenes")
    assert cli.run(["synth", "--out", str(d)] + SYNTH_FLAGS) == 0
    return d


@pytest.fixture(scope="module")
def toy_mu(tmp_path_factory):
    """Separable metrics CSV: metric 0 carries the label, the rest noise."""
    rng = np.random.default_rng(42)
    n = 24
    labels = np.tile([0, 1], n // 2).astype(bool)
    rows = rng.normal(0.0, 1.0, size=(n, 3))
    rows[:, 0] = np.where(labels, 2.0, -2.0) + rng.normal(0.0, 0.1, size=n)
    dataset = features.MetricsDataset(
        rows=rows,
        labels=labels,
        group_ids=[f"g{i // 4}" for i in range(n)],
        registry=features.MetricRegistry.custom(("sig", "noise_a", "noise_b")),
    )
    path = tmp_path_factory.mktemp("mu") / "mu.csv"
    features.save_metrics_csv(dataset, path)
    return path


def read_lines(path):
    return Path(path).read_text().splitlines()


def report_value(path, key):
    for line in read_lines(path)[1:]:
        k, v = line.split(",")
        if k == key:
            return v
    raise AssertionError(f"{key} not in {path}")


class TestParsing:
    """Argument handling and exit codes for malformed invocations."""

    def test_help_exits_zero_and_lists_subcommands(self, capsys):
        assert cli.run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out
        for name in (
            "score", "segments", "metrics", "train-meta", "eval-meta",
            "loo", "lars", "incremental", "filter-proxy", "eval-pixel",
            "synth",
        ):
            assert name in out

    def test_subcommand_help_exits_zero(self, capsys):
        assert cli.run(["synth", "--help"]) == 0
        assert "--anomaly-entropy" in capsys.readouterr().out

    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "metaseg", "--help"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"usage" in proc.stdout

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path):
        args = ["lars", "--mu", "x.csv", "--out", "y.csv", "--bogus"]
        assert cli.run(args) == 1

    def test_bad_kind_choice(self, toy_mu, tmp_path):
        args = [
            "train-meta", "--mu", str(toy_mu),
            "--out", str(tmp_path / "m.model"), "--kind", "quadratic",
        ]
        assert cli.run(args) == 1

    def test_missing_required_flag(self):
        assert cli.run(["score", "--in", "somewhere"]) == 1


class TestDataErrors:
    """Invalid data and option values exit 2 with a prefixed message."""

    def test_missing_input_directory(self, tmp_path, capsys):
        args = [
            "segments", "--in", str(tmp_path / "empty"),
            "--out", str(tmp_path / "out.csv"),
        ]
        assert cli.run(args) == 2
        assert capsys.readouterr().err.startswith("metaseg: error:")

    def test_threshold_out_of_range(self, scene_dir, tmp_path):
        args = [
            "segments", "--in", str(scene_dir), "--t", "1.5",
            "--out", str(tmp_path / "out.csv"),
        ]
        assert cli.run(args) == 2

    def test_mask_label_out_of_byte_range(self, scene_dir, tmp_path):
        args = [
            "segments", "--in", str(scene_dir), "--ood-label", "300",
            "--out", str(tmp_path / "out.csv"),
        ]
        assert cli.run(args) == 2

    def test_missing_model_file(self, toy_mu, tmp_path, capsys):
        args = [
            "eval-meta", "--model", str(tmp_path / "nope.model"),
            "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        assert "metaseg: error:" in capsys.readouterr().err

    def test_model_missing_header_field(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        data = model.read_bytes()
        start = data.index(b"\nkind ")
        model.write_bytes(data[:start] + data[data.index(b"\n", start + 1):])
        capsys.readouterr()
        args = [
            "eval-meta", "--model", str(model),
            "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("metaseg: error:")
        assert "missing model field 'kind'" in err


class TestScore:
    """score: probability rasters to anomaly score rasters."""

    def test_writes_one_score_map_per_raster(self, scene_dir, tmp_path):
        out = tmp_path / "scored"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"scene_{i:04d}.score.rast" for i in range(4)]
        smap = raster.load_score_map(out / "scene_0000.score.rast")
        assert smap.scores.min() >= 0.0 and smap.scores.max() <= 1.0

    def test_rerun_is_byte_identical(self, scene_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(a)]) == 0
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(b)]) == 0
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_thread_cap_env(self, scene_dir, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(base)]) == 0
        monkeypatch.setenv("METASEG_THREADS", "1")
        capped = tmp_path / "capped"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(capped)]) == 0
        for pa in sorted(base.iterdir()):
            assert pa.read_bytes() == (capped / pa.name).read_bytes()

    def test_invalid_thread_env(self, scene_dir, tmp_path, monkeypatch):
        for bad in ("abc", "0"):
            monkeypatch.setenv("METASEG_THREADS", bad)
            out = tmp_path / f"out_{bad}"
            code = cli.run(["score", "--in", str(scene_dir), "--out", str(out)])
            assert code == 2


class TestSegments:
    """segments: labeled component table."""

    def test_component_table_layout(self, scene_dir, tmp_path):
        out = tmp_path / "segments.csv"
        assert cli.run(["segments", "--in", str(scene_dir), "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == (
            "group_id,component_id,size,size_interior,size_boundary,"
            "bbox_rmin,bbox_rmax,bbox_cmin,bbox_cmax,is_false_positive"
        )
        assert len(lines) > 1
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 10
            assert parts[0].startswith("scene_")
            assert parts[9] in ("0", "1")
            # interior + boundary partition the component
            assert int(parts[3]) + int(parts[4]) == int(parts[2])

    def test_min_size_filters_everything(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "none.csv"
        args = [
            "segments", "--in", str(scene_dir),
            "--min-size", "100000", "--out", str(out),
        ]
        assert cli.run(args) == 0
        assert len(read_lines(out)) == 1
        assert "wrote 0 components" in capsys.readouterr().out


class TestMetrics:
    """metrics: per-component metric dataset CSV."""

    def test_dataset_shape(self, scene_dir, tmp_path):
        out = tmp_path / "mu.csv"
        assert cli.run(["metrics", "--in", str(scene_dir), "--out", str(out)]) == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        # 37 + 2C metrics at C=4, plus the label and group columns
        assert len(header) == 47
        assert header[-2:] == ["label", "group_id"]
        dataset = features.load_metrics_csv(out)
        assert dataset.num_metrics == 45
        assert len(dataset) == len(lines) - 1 > 0

    def test_rerun_is_byte_identical(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(["metrics", "--in", str(scene_dir), "--out", str(a)]) == 0
        assert cli.run(["metrics", "--in", str(scene_dir), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    """train-meta and eval-meta round trip."""

    def test_train_writes_model(self, toy_mu, tmp_path, capsys):
        out = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(out)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        assert out.read_bytes().startswith(b"metaseg-model v1")
        assert "trained logistic on 24 rows" in capsys.readouterr().out

    def test_train_rerun_is_byte_identical(self, toy_mu, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        for out in (a, b):
            args = ["train-meta", "--mu", str(toy_mu), "--out", str(out)]
            assert cli.run(args + TRAIN_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_perfect_separation(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        report = tmp_path / "report.csv"
        args = [
            "eval-meta", "--model", str(model),
            "--mu", str(toy_mu), "--out", str(report),
        ]
        assert cli.run(args) == 0
        assert report_value(report, "auroc") == "1"
        assert report_value(report, "auprc") == "1"
        assert report_value(report, "positives") == "12"
        assert report_value(report, "negatives") == "12"
        assert "auroc 1.0000" in capsys.readouterr().out

    def test_eval_writes_curve_svgs(self, toy_mu, tmp_path):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        svgs = [tmp_path / "roc.svg", tmp_path / "pr.svg"]
        args = [
            "eval-meta", "--model", str(model), "--mu", str(toy_mu),
            "--out", str(tmp_path / "r.csv"),
            "--roc-svg", str(svgs[0]), "--pr-svg", str(svgs[1]),
        ]
        assert cli.run(args) == 0
        first = [p.read_bytes() for p in svgs]
        assert all(body.startswith(b"<svg") for body in first)
        assert cli.run(args) == 0
        assert [p.read_bytes() for p in svgs] == first

    def test_mlp_kind_trains(self, toy_mu, tmp_path):
        out = tmp_path / "m.model"
        args = [
            "train-meta", "--mu", str(toy_mu), "--out", str(out),
            "--kind", "mlp", "--epochs", "3",
        ]
        assert cli.run(args) == 0
        assert metaclf.load_model(out).kind == "mlp"


class TestLooLarsIncremental:
    """Leave-one-out, metric ordering, and incremental curves."""

    def test_loo_report_and_scores(self, toy_mu, tmp_path):
        report = tmp_path / "report.csv"
        scores = tmp_path / "scores.csv"
        args = [
            "loo", "--mu", str(toy_mu), "--out", str(report),
            "--scores-csv", str(scores),
        ]
        assert cli.run(args + TRAIN_FLAGS) == 0
        assert report_value(report, "auroc") == "1"
        lines = read_lines(scores)
        assert lines[0] == "row,group_id,label,score"
        assert len(lines) == 25
        for i, line in enumerate(lines[1:]):
            row, group, label, score = line.split(",")
            assert int(row) == i
            assert group == f"g{i // 4}"
            assert label == str(i % 2)
            assert 0.0 <= float(score) <= 1.0

    def test_loo_rerun_is_byte_identical(self, toy_mu, tmp_path):
        bodies = []
        for name in ("a", "b"):
            report = tmp_path / f"{name}.csv"
            scores = tmp_path / f"{name}_scores.csv"
            args = [
                "loo", "--mu", str(toy_mu), "--out", str(report),
                "--scores-csv", str(scores),
            ]
            assert cli.run(args + TRAIN_FLAGS) == 0
            bodies.append(report.read_bytes() + scores.read_bytes())
        assert bodies[0] == bodies[1]

    def test_lars_ordering_table(self, toy_mu, tmp_path):
        out = tmp_path / "order.csv"
        assert cli.run(["lars", "--mu", str(toy_mu), "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == "step,metric_index,metric_name,entry_correlation"
        assert len(lines) == 4
        steps = [line.split(",") for line in lines[1:]]
        assert [s[0] for s in steps] == ["0", "1", "2"]
        # the separating metric enters first
        assert steps[0][1] == "0" and steps[0][2] == "sig"
        assert sorted(s[2] for s in steps) == ["noise_a", "noise_b", "sig"]

    def test_incremental_curve(self, toy_mu, tmp_path):
        curve = tmp_path / "curve.csv"
        report = tmp_path / "report.csv"
        svg = tmp_path / "curve.svg"
        args = [
            "incremental", "--mu", str(toy_mu),
            "--out", str(curve), "--svg", str(svg),
        ]
        assert cli.run(args + TRAIN_FLAGS) == 0
        assert cli.run(["loo", "--mu", str(toy_mu), "--out", str(report)]
                       + TRAIN_FLAGS) == 0
        lines = read_lines(curve)
        assert lines[0] == "num_metrics,auroc,auprc"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0
            assert 0.0 <= float(r[2]) <= 1.0
        # the full-subset step equals the plain leave-one-out run
        assert rows[-1][1] == report_value(report, "auroc")
        assert svg.read_bytes().startswith(b"<svg")


class TestFilterProxy:
    """filter-proxy: bucket masks by their anomalous pixel fraction."""

    def test_buckets_and_fractions(self, tmp_path, capsys):
        masks = tmp_path / "masks"
        masks.mkdir()
        grid = np.zeros((5, 4), dtype=np.uint8)

        def write(name, n_ood, n_ignore=0):
            arr = grid.copy().reshape(-1)
            arr[:n_ood] = raster.OOD_LABEL
            arr[n_ood:n_ood + n_ignore] = raster.IGNORE_LABEL
            raster.save_mask(raster.LabelMask(arr.reshape(5, 4)), masks / name)

        write("a.pgm", 0)          # 0.0  -> low
        write("b.pgm", 10)         # 0.5  -> rest
        write("c.pgm", 20)         # 1.0  -> high
        write("d.pgm", 4)          # 0.2  -> low (boundary inclusive)
        write("e.pgm", 2, 10)      # 2/10 -> low (ignore shrinks denominator)
        out = tmp_path / "split.csv"
        args = [
            "filter-proxy", "--in", str(masks),
            "--low", "0.2", "--high", "0.8", "--out", str(out),
        ]
        assert cli.run(args) == 0
        lines = read_lines(out)
        assert lines[0] == "id,ood_fraction,bucket"
        got = {p[0]: (p[1], p[2]) for p in (l.split(",") for l in lines[1:])}
        assert got == {
            "a": ("0", "low"),
            "b": ("0.5", "rest"),
            "c": ("1", "high"),
            "d": ("0.2", "low"),
            "e": ("0.2", "low"),
        }
        assert "3 low / 1 high / 1 rest" in capsys.readouterr().out

    def test_empty_mask_directory(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        args = [
            "filter-proxy", "--in", str(empty), "--out", str(tmp_path / "o.csv"),
        ]
        assert cli.run(args) == 2


class TestEvalPixel:
    """eval-pixel: pooled pixel-level report from score maps and masks."""

    def test_pooled_report(self, scene_dir, tmp_path):
        scored = tmp_path / "scored"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(scored)]) == 0
        report = tmp_path / "report.csv"
        args = [
            "eval-pixel", "--scores", str(scored),
            "--masks", str(scene_dir), "--out", str(report),
        ]
        assert cli.run(args) == 0
        assert int(report_value(report, "positives")) > 0
        assert 0.0 < float(report_value(report, "auroc")) <= 1.0

    def test_missing_mask_is_data_error(self, scene_dir, tmp_path, capsys):
        scored = tmp_path / "scored"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(scored)]) == 0
        holey = tmp_path / "masks"
        holey.mkdir()
        for p in scene_dir.glob("*.pgm"):
            if p.stem != "scene_0002":
                (holey / p.name).write_bytes(p.read_bytes())
        args = [
            "eval-pixel", "--scores", str(scored),
            "--masks", str(holey), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        assert "scene_0002" in capsys.readouterr().err


class TestSynth:
    """synth: deterministic scene directories."""

    def test_writes_sample_pairs(self, tmp_path):
        out = tmp_path / "scenes"
        args = ["synth", "--out", str(out), "--count", "3", "--height", "16",
                "--width", "16", "--classes", "3", "--blob-min", "1",
                "--blob-max", "1", "--size-min", "3", "--size-max", "5"]
        assert cli.run(args) == 0
        names = sorted(p.name for p in out.iterdir())
        expected = []
        for i in range(3):
            expected += [f"scene_{i:04d}.pgm", f"scene_{i:04d}.rast"]
        assert names == sorted(expected)

    def test_rerun_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.run(["synth", "--out", str(d)] + SYNTH_FLAGS) == 0
        for pa in sorted(dirs[0].iterdir()):
            assert pa.read_bytes() == (dirs[1] / pa.name).read_bytes()

    def test_couple_flag(self, tmp_path):
        out = tmp_path / "coupled"
        args = ["synth", "--out", str(out), "--count", "2", "--height", "24",
                "--width", "24", "--classes", "4", "--couple"]
        assert cli.run(args) == 0
        assert len(list(out.glob("*.rast"))) == 2

    def test_zero_count_is_data_error(self, tmp_path):
        args = ["synth", "--out", str(tmp_path / "x"), "--count", "0"]
        assert cli.run(args) == 2
