"""Command-line interface tests.

Drives the in-process entry point `cli.run` for speed, plus one
subprocess smoke test for module invocation.  Fixtures build a small
synthetic scene directory and a hand-made, linearly separable metrics
CSV so training subcommands have a known-good answer.
"""

import csv
import hashlib
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from pixel_sets import pixel_sets
from sample_dirs import loaded_samples
from test_metaclf import v1_model_bytes

import metaseg
from metaseg import analysis, cli, features, metaclf, raster, scoring
from metaseg.scoring import anomaly_score_map
from metaseg.segments import ThresholdConfig, label_image

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
        names=("sig", "noise_a", "noise_b"),
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

    @pytest.mark.parametrize("command, source", [
        ("segments", "--in"), ("metrics", "--in"), ("train-meta", "--mu"),
    ])
    def test_threshold_refused_before_any_file(self, tmp_path, capsys, command, source):
        # The input does not exist: the threshold is refused first.
        out = tmp_path / "out"
        args = [command, source, str(tmp_path / "nope"), "--t", "1.5", "--out", str(out)]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err == "metaseg: error: threshold must be in [0, 1], got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter-proxy", "eval-pixel"])
    @pytest.mark.parametrize("flag, name, value", [
        ("--ood-label", "ood_label", "300"), ("--ignore-label", "ignore_label", "-1"),
    ])
    def test_mask_label_out_of_byte_range_on_masks(
        self, scene_dir, tmp_path, capsys, command, flag, name, value
    ):
        if command == "eval-pixel":
            scored = tmp_path / "scored"
            assert cli.run(["score", "--in", str(scene_dir), "--out", str(scored)]) == 0
            capsys.readouterr()
            inputs = ["--scores", str(scored), "--masks", str(scene_dir)]
        else:
            inputs = ["--in", str(scene_dir)]
        out = tmp_path / "out.csv"
        assert cli.run([command, *inputs, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"metaseg: error: {name} must fit in a byte, got {value}\n"
        assert not out.exists()

    def test_missing_model_file(self, toy_mu, tmp_path, capsys):
        args = [
            "eval-meta", "--model", str(tmp_path / "nope.model"),
            "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        assert "metaseg: error:" in capsys.readouterr().err

    def test_model_file_ending_after_params_value(self, toy_mu, tmp_path, capsys):
        # The params line is the file's last: no parameter follows it.
        model = tmp_path / "m.model"
        model.write_bytes(b"metaseg-model v2\nlayer_dims 3,1\nparams\n")
        args = ["eval-meta", "--model", str(model),
                "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv")]
        assert cli.run(args) == 2
        assert capsys.readouterr().err == (
            f"metaseg: error: {model}: parameter block is 0 bytes, "
            "layer_dims (3, 1) need 16\n")

    @pytest.mark.parametrize("fault", ["v1", "repeated", "undefined", "non_utf8"])
    def test_refused_model_file_is_one_named_error(self, toy_mu, tmp_path, capsys,
                                                   fault):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        data = model.read_bytes()
        if fault == "v1":
            data = v1_model_bytes(metaclf.load_model(model), model)
        elif fault == "repeated":
            data = data.replace(b"\nthreshold 0.7\n",
                                b"\nthreshold 0.7\nthreshold 0.2\n")
        elif fault == "undefined":
            data = data.replace(b"\nlayer_dims ", b"\nkind logistic\nlayer_dims ")
        else:
            data = data.replace(b"\nseed 0\n", b"\nseed \xff\n")
        assert data != model.read_bytes()
        model.write_bytes(data)
        capsys.readouterr()
        report = tmp_path / "r.csv"
        args = ["eval-meta", "--model", str(model), "--mu", str(toy_mu),
                "--out", str(report)]
        assert cli.run(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"metaseg: error: {model}: ")
        assert not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, field", [("--lr", "learning_rate"),
                                             ("--weight-decay", "weight_decay")])
    def test_non_finite_optimizer_flag(self, toy_mu, tmp_path, capsys, flag, field,
                                       value):
        # Refused before training, so no step computes with it.
        out = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(out), flag, value]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(args) == 2
        assert [w.category for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"metaseg: error: {field} must be")
        assert "RuntimeWarning" not in err and not out.exists()

    def test_model_missing_header_field(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        data = model.read_bytes()
        start = data.index(b"\nlayer_dims ")
        model.write_bytes(data[:start] + data[data.index(b"\n", start + 1):])
        capsys.readouterr()
        args = [
            "eval-meta", "--model", str(model),
            "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("metaseg: error:")
        assert "missing model field 'layer_dims'" in err

    def test_model_unparseable_header_value(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        data = model.read_bytes()
        start = data.index(b"\nlearning_rate ") + 1
        model.write_bytes(data[:start] + b"learning_rate abc"
                          + data[data.index(b"\n", start):])
        capsys.readouterr()
        args = [
            "eval-meta", "--model", str(model),
            "--mu", str(toy_mu), "--out", str(tmp_path / "r.csv"),
        ]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("metaseg: error:")
        assert f"{model}: model field 'learning_rate'" in err
        assert "'abc'" in err

    def test_model_threshold_nan(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        data = model.read_bytes()
        start = data.index(b"\nthreshold ") + 1
        model.write_bytes(data[:start] + b"threshold nan"
                          + data[data.index(b"\n", start):])
        capsys.readouterr()
        report = tmp_path / "r.csv"
        args = ["eval-meta", "--model", str(model), "--mu", str(toy_mu),
                "--out", str(report)]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err == (f"metaseg: error: {model}: threshold must be in [0, 1], "
                       "got nan\n")
        assert not report.exists()

    def test_metrics_csv_with_a_repeated_name(self, tmp_path, capsys):
        mu = tmp_path / "dup.csv"
        mu.write_text("m0,m0,label,group_id\n1.0,2.0,0,g\n")
        out = tmp_path / "order.csv"
        assert cli.run(["lars", "--mu", str(mu), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"metaseg: error: {mu}: metric names must be unique\n"
        assert not out.exists()

    def test_repeated_name_is_reported_before_a_body_fault(self, tmp_path, capsys):
        # The header is checked before the body is parsed, so the bad
        # label on line 3 does not hide the repeated name.
        mu = tmp_path / "dupbad.csv"
        mu.write_text("m0,m0,label,group_id\n1.0,2.0,0,g\n1.0,2.0,7,g\n")
        out = tmp_path / "order.csv"
        assert cli.run(["lars", "--mu", str(mu), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"metaseg: error: {mu}: metric names must be unique\n"
        assert not out.exists()

    def test_model_refuses_swapped_metric_columns(self, toy_mu, tmp_path, capsys):
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(model)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        # The same table with its first two columns swapped, header and all.
        ds = features.load_metrics_csv(toy_mu)
        swapped = tmp_path / "swapped.csv"
        features.save_metrics_csv(ds.select_metrics([1, 0, 2]), swapped)
        capsys.readouterr()
        report = tmp_path / "r.csv"
        args = ["eval-meta", "--model", str(model), "--mu", str(swapped),
                "--out", str(report)]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err == ("metaseg: error: dataset metric 0 is 'noise_a', "
                       "model was trained on 'sig'\n")
        assert not report.exists()

    def test_signalling_nan_is_one_error_line(self, tmp_path):
        # float32 0x7f800001, a signalling NaN, then 0.5: the float64
        # cast must not warn before the map is rejected.
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "snan.rast").write_bytes(
            b"RASTv001" + struct.pack("<III", 1, 1, 2)
            + bytes.fromhex("0100807f") + struct.pack("<f", 0.5)
        )
        env = {**os.environ, "PYTHONPATH": str(Path(metaseg.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "metaseg", "score",
             "--in", str(scenes), "--out", str(tmp_path / "scored")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("metaseg: error:")
        assert "non-finite value" in lines[0]


class TestCsvQuoting:
    """Group ids with CSV syntax in them survive every CLI CSV."""

    def test_group_ids_round_trip_through_csv_reader(self, scene_dir, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        names = {"scene_0000": "a,b", "scene_0001": 'q"x'}
        for old, new in names.items():
            for ext in (".rast", ".pgm"):
                shutil.copy(scene_dir / f"{old}{ext}", scenes / f"{new}{ext}")
        mu, seg, scores, split = (
            tmp_path / n for n in ("mu.csv", "segments.csv", "scores.csv", "split.csv")
        )
        assert cli.run(["segments", "--in", str(scenes), "--out", str(seg)]) == 0
        assert cli.run(["metrics", "--in", str(scenes), "--out", str(mu)]) == 0
        args = [
            "loo", "--kind", "logistic", "--mu", str(mu),
            "--out", str(tmp_path / "report.csv"), "--scores-csv", str(scores),
        ]
        assert cli.run(args + TRAIN_FLAGS) == 0
        args = ["filter-proxy", "--in", str(scenes), "--out", str(split)]
        assert cli.run(args) == 0

        def records(path):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *body = csv.reader(fh)
            assert body and all(len(r) == len(header) for r in body)
            return header, body

        dataset = features.load_metrics_csv(mu)
        header, body = records(mu)
        groups = [r[header.index("group_id")] for r in body]
        assert groups == list(dataset.group_ids)
        assert set(groups) == set(names.values())
        header, body = records(seg)
        assert [r[header.index("group_id")] for r in body] == groups
        header, body = records(scores)
        assert [r[header.index("group_id")] for r in body] == groups
        header, body = records(split)
        assert sorted(r[header.index("id")] for r in body) == sorted(names.values())


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

    def test_maps_below_the_cut_off_scored_in_the_calling_thread(
        self, scene_dir, tmp_path, monkeypatch
    ):
        # Two 24x24x4 maps and one 32x24x4 map, with the cut-off at the
        # larger one's 3,072 values: only that map goes to the pool.
        d = tmp_path / "maps"
        d.mkdir()
        shutil.copy(scene_dir / "scene_0000.rast", d / "a.rast")
        shutil.copy(scene_dir / "scene_0001.rast", d / "c.rast")
        big = tmp_path / "big"
        synth = ["synth", "--out", str(big)] + SYNTH_FLAGS + ["--height", "32"]
        assert cli.run(synth) == 0
        shutil.copy(big / "scene_0000.rast", d / "b.rast")
        assert raster.load_probability_map(d / "b.rast").values.size == 3072
        monkeypatch.setattr(raster, "_THREAD_MIN_VALUES", 3072)
        caller = threading.get_ident()
        score_file = scoring.anomaly_score_file
        on_caller = {}

        def recording(path):
            on_caller[path.name] = threading.get_ident() == caller
            return score_file(path)

        monkeypatch.setattr(scoring, "anomaly_score_file", recording)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            out = tmp_path / threads
            assert cli.run(["score", "--in", str(d), "--out", str(out)]) == 0
            assert on_caller == {"a.rast": True, "b.rast": threads == "1",
                                 "c.rast": True}
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs["1"]) == 3 and outputs["1"] == outputs["2"]

    def test_invalid_thread_env(self, scene_dir, tmp_path, monkeypatch):
        for bad in ("abc", "0"):
            monkeypatch.setenv("METASEG_THREADS", bad)
            out = tmp_path / f"out_{bad}"
            code = cli.run(["score", "--in", str(scene_dir), "--out", str(out)])
            assert code == 2

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        # The CPUs this process may run on, not the host's, at most 8.
        monkeypatch.delenv("METASEG_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for cpus, want in (({0, 5, 9}, 3), (set(range(32)), 8)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            assert raster.worker_count() == want


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

    def test_rows_match_component_records(self, scene_dir, tmp_path):
        # Each row holds its component's fields, read from the pixel sets
        # of the label image of the loaded sample, in the header's order.
        out = tmp_path / "segments.csv"
        args = ["segments", "--in", str(scene_dir), "--min-size", "2", "--out", str(out)]
        assert cli.run(args) == 0
        want = []
        for sample in loaded_samples(scene_dir):
            hot, ood = anomaly_score_map(sample.pmap).scores >= 0.7, sample.mask.is_ood()
            image = label_image(hot, 2, ood)
            for k, (pixels, boundary, interior) in enumerate(pixel_sets(image)):
                rows, cols = zip(*pixels)
                want.append([sample.id] + [str(int(v)) for v in (
                    k, len(pixels), len(interior), len(boundary),
                    min(rows), max(rows), min(cols), max(cols),
                    not any(ood[p] for p in pixels),
                )])
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))[1:]
        assert len(got) > 4 and got == want

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


class TestStreamedSamples:
    """segments and metrics walk each map block by block from its file."""

    @pytest.mark.parametrize("command", ["segments", "metrics"])
    def test_never_loads_a_map(self, command, scene_dir, tmp_path, monkeypatch):
        def refused(path):
            raise AssertionError(f"{command} loaded {path} whole")

        monkeypatch.setattr(raster, "load_probability_map", refused)
        out = tmp_path / "out.csv"
        assert cli.run([command, "--in", str(scene_dir), "--out", str(out)]) == 0
        monkeypatch.undo()
        if command == "metrics":
            # The same bytes as the metrics of the loaded samples.
            want = tmp_path / "want.csv"
            features.save_metrics_csv(features.build_metrics_dataset(
                list(loaded_samples(scene_dir)), ThresholdConfig(0.7)), want)
            assert out.read_bytes() == want.read_bytes()

    def test_metrics_memory_follows_the_anomaly_area(self, tmp_path):
        # A 256 x 512 x 19 map, confident but for a few discs, takes
        # 19.9 MB as float64: the whole map is more than the bound.
        h, w, c = 256, 512, 19
        rng = np.random.default_rng(3)
        yy, xx = np.mgrid[:h, :w]
        hot = np.zeros((h, w), dtype=bool)
        for cy, cx, r in ((40, 60, 12), (120, 300, 20), (200, 450, 8)):
            hot |= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        raw = np.full((h, w, c), 1e-3)
        raw[yy, xx, rng.integers(0, c, (h, w))] = 1.0
        raw[hot] = rng.uniform(0.5, 1.0, (int(hot.sum()), c))
        labels = np.where(hot, raster.OOD_LABEL, 0).astype(np.uint8)
        labels[:40] = 1
        d = tmp_path / "scenes"
        raster.save_samples([raster.Sample(
            "big", raster.ProbabilityMap(raw / raw.sum(axis=2, keepdims=True)),
            raster.LabelMask(labels),
        )], d)
        nbytes = raw.nbytes
        del raw
        out = tmp_path / "mu.csv"
        tracemalloc.start()
        try:
            assert cli.run(["metrics", "--in", str(d), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * nbytes, peak / nbytes
        assert len(read_lines(out)) == 4

    @pytest.mark.parametrize("command", ["segments", "metrics"])
    def test_empty_directory(self, command, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        out = tmp_path / "out.csv"
        args = [command, "--in", str(tmp_path / "empty"), "--out", str(out)]
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("metaseg: error:") and "no sample pairs" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segments", "metrics"])
    @pytest.mark.parametrize("fault", [
        "truncated_rast", "missing_pgm", "nan_value", "sum_off", "mask_dims",
        "other_classes",
    ])
    def test_error_in_second_sample(self, command, fault, scene_dir, tmp_path,
                                    capsys):
        d = tmp_path / "scenes"
        shutil.copytree(scene_dir, d)
        second = sorted(p for p in d.glob("*.rast")
                        if not p.name.endswith(".score.rast"))[1]
        pgm = second.with_suffix(".pgm")
        values = raster.load_probability_map(second).values
        # The error the loaders give for the fault, where they give one.
        text = None
        if fault == "truncated_rast":
            second.write_bytes(second.read_bytes()[:-5])
            named = second.name
        elif fault == "missing_pgm":
            pgm.unlink()
            named = pgm.name
        elif fault in ("nan_value", "sum_off"):
            bad = values.copy()
            r, col = 5, 7
            k = int(bad[r, col].argmin())
            bad[r, col, k] = np.nan if fault == "nan_value" else bad[r, col, k] + 1e-3
            with open(second, "r+b") as fh:
                fh.seek(20)
                fh.write(bad.astype("<f4").tobytes())
            with pytest.raises(raster.RasterFormatError) as exc:
                raster.load_probability_map(second)
            text, named = str(exc.value), second.name
        elif fault == "mask_dims":
            mask = raster.load_mask(pgm)
            raster.save_mask(raster.LabelMask(mask.labels[:-1]), pgm)
            with pytest.raises(ValueError) as exc:
                raster.Sample(second.stem, raster.ProbabilityMap(values),
                              raster.load_mask(pgm))
            text, named = str(exc.value), second.stem
        else:
            more = np.concatenate([values, np.zeros(values.shape[:2] + (1,))], axis=2)
            raster.save_probability_map(raster.ProbabilityMap(more), second)
            with pytest.raises(raster.RasterFormatError) as exc:
                list(loaded_samples(d))
            text, named = str(exc.value), second.name
        out = tmp_path / "out" / "result.csv"
        out.parent.mkdir()
        code = cli.run([command, "--in", str(d), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("metaseg: error:") and err.count("\n") == 1
        assert named in err
        if text is not None:
            assert err == f"metaseg: error: {text}\n"
        assert list(out.parent.iterdir()) == []


class TestSampleThreads:
    """`score`, `segments` and `metrics` work their maps on METASEG_THREADS
    threads (`raster.thread_map`); with the cut-off at 0 every map goes to
    a thread, however small."""

    @pytest.fixture(autouse=True)
    def every_map_threaded(self, monkeypatch):
        monkeypatch.setattr(raster, "_THREAD_MIN_VALUES", 0)

    def test_outputs_identical_at_every_worker_count(self, tmp_path, monkeypatch):
        scenes = tmp_path / "scenes"
        # SYNTH_FLAGS with 7 scenes instead of 4.
        synth = ["synth", "--out", str(scenes), "--count", "7"] + SYNTH_FLAGS[2:]
        assert cli.run(synth) == 0
        threads_before = threading.active_count()
        outputs = {}
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            out = tmp_path / threads
            for step, dest in (("score", "scored"), ("segments", "segments.csv"),
                               ("metrics", "mu.csv")):
                assert cli.run([step, "--in", str(scenes), "--out", str(out / dest)]) == 0
            assert threading.active_count() == threads_before
            outputs[threads] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
        assert len(outputs["1"]) == 7 + 2
        assert outputs["1"] == outputs["2"] == outputs["4"]

    @pytest.mark.parametrize("command", ["score", "segments", "metrics"])
    def test_first_failing_map_is_reported(self, command, scene_dir, tmp_path,
                                           monkeypatch, capsys):
        # Three maps: the second has a NaN in its last block, the third no
        # mask, which `segments` and `metrics` find on drawing it, while the
        # second may still be in work.
        monkeypatch.setattr(raster, "_BLOCK_VALUES", 64)
        d = tmp_path / "scenes"
        d.mkdir()
        for i, name in enumerate("abc"):
            for ext in (".rast", ".pgm"):
                shutil.copy(scene_dir / f"scene_{i:04d}{ext}", d / f"{name}{ext}")
        with open(d / "b.rast", "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(struct.pack("<f", float("nan")))
        (d / "c.pgm").unlink()
        h, w, c = raster.load_probability_map(d / "a.rast").values.shape
        out = tmp_path / "out" / "result"
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            assert cli.run([command, "--in", str(d), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == (f"metaseg: error: {d / 'b.rast'}: non-finite value at "
                           f"({h - 1}, {w - 1}, {c - 1})\n")
            if command != "score":
                assert not out.exists()


class TestTrainEval:
    """train-meta and eval-meta round trip."""

    def test_train_writes_model(self, toy_mu, tmp_path, capsys):
        out = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(toy_mu), "--out", str(out)]
        assert cli.run(args + TRAIN_FLAGS) == 0
        assert out.read_bytes().startswith(b"metaseg-model v2\n")
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

    def test_threshold_above_the_rows_refused(self, tmp_path, capsys):
        # Components built at 0.5 of blobs at entropy 0.6: every ent_mean
        # is below the default --t 0.7, which the rows contradict.
        scenes, mu = tmp_path / "scenes", tmp_path / "mu.csv"
        synth = ["synth", "--out", str(scenes), "--anomaly-entropy", "0.6"]
        assert cli.run(synth + SYNTH_FLAGS) == 0
        assert cli.run(["metrics", "--in", str(scenes), "--t", "0.5",
                        "--out", str(mu)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.model"
        args = ["train-meta", "--mu", str(mu), "--out", str(model)]
        assert cli.run(args) == 2
        err = assert_one_error_line(capsys, "--t 0.7 is above its smallest ent_mean")
        assert str(mu) in err
        assert not model.exists()
        assert cli.run(args + ["--t", "0.5"]) == 0
        assert metaclf.load_model(model).threshold == 0.5

    def test_mlp_kind_trains(self, toy_mu, tmp_path):
        out = tmp_path / "m.model"
        args = [
            "train-meta", "--mu", str(toy_mu), "--out", str(out),
            "--kind", "mlp", "--epochs", "3",
        ]
        assert cli.run(args) == 0
        model = metaclf.load_model(out)
        assert model.kind == "mlp"
        assert model.core.layer_dims == (3, *metaclf.HIDDEN_DIMS["mlp"], 1)


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


@pytest.fixture(scope="module")
def pool_mu(tmp_path_factory):
    """Metrics CSV whose MLP leave-one-out and incremental runs are just
    above the cut-off where the folds move to worker processes."""
    rng = np.random.default_rng(43)
    n = 240
    labels = rng.random(n) < 0.5
    rows = rng.normal(0.0, 1.0, size=(n, 2))
    rows[:, 0] += np.where(labels, 1.0, -1.0)
    dataset = features.MetricsDataset(
        rows=rows, labels=labels, group_ids=[f"g{i // 6}" for i in range(n)],
        names=("sig", "noise"),
    )
    path = tmp_path_factory.mktemp("mu") / "mu.csv"
    features.save_metrics_csv(dataset, path)
    return path


class TestFoldPool:
    """`loo` and `incremental` train their folds on METASEG_THREADS worker
    processes when the training work is above `analysis._POOL_MIN_WORK`."""

    POOL_FLAGS = ["--kind", "mlp", "--epochs", "20"]

    def spy(self, monkeypatch):
        calls = []
        fold = analysis._fold
        monkeypatch.setattr(analysis, "_fold",
                            lambda *a: calls.append(a[3]) or fold(*a))
        return calls

    def test_corpus_is_above_the_cut_off(self, pool_mu):
        dataset = features.load_metrics_csv(pool_mu)
        cfg = metaclf.TrainConfig(epochs=20)
        work = 40 * analysis._training_work(len(dataset), 2, cfg,
                                            metaclf.HIDDEN_DIMS["mlp"])
        assert analysis._POOL_MIN_WORK < work < 1.5 * analysis._POOL_MIN_WORK

    def test_outputs_identical_at_every_worker_count(self, pool_mu, tmp_path,
                                                     monkeypatch):
        digests = {}
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            calls = self.spy(monkeypatch)
            out = tmp_path / threads
            out.mkdir()
            assert cli.run(["loo", "--mu", str(pool_mu), "--out", str(out / "loo.csv"),
                            "--scores-csv", str(out / "scores.csv")]
                           + self.POOL_FLAGS) == 0
            assert cli.run(["incremental", "--mu", str(pool_mu),
                            "--out", str(out / "curve.csv")] + self.POOL_FLAGS) == 0
            # In-process, the folds reach `_fold` here; pooled, they do not.
            assert len(calls) == (40 * 3 if threads == "1" else 0)
            assert multiprocessing.active_children() == []
            digests[threads] = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in ("loo.csv", "scores.csv", "curve.csv")]
        assert digests["1"] == digests["2"] == digests["4"]

    def test_fold_error_exits_2_with_the_same_message(self, tmp_path, monkeypatch,
                                                      capsys):
        # Values of 1e300 overflow every fold's standardization.
        dataset = features.MetricsDataset(
            rows=[[1e300], [-1e300], [1.0], [2.0]], labels=[1, 0, 1, 0],
            group_ids=["a", "b", "c", "d"],
            names=("m",),
        )
        mu = tmp_path / "mu.csv"
        features.save_metrics_csv(dataset, mu)
        monkeypatch.setattr(analysis, "_POOL_MIN_WORK", 0.0)
        errors = []
        for threads in ("1", "2"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            calls = self.spy(monkeypatch)
            with pytest.warns(RuntimeWarning, match="overflow"):
                code = cli.run(["loo", "--mu", str(mu), "--out", str(tmp_path / "r.csv")])
            assert code == 2 and len(calls) == (1 if threads == "1" else 0)
            assert multiprocessing.active_children() == []
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "metaseg: error: statistics must be finite\n"


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

    def test_mask_without_counted_pixels_is_named(self, tmp_path, capsys):
        masks = tmp_path / "masks"
        masks.mkdir()
        raster.save_mask(raster.LabelMask(np.zeros((2, 3), dtype=np.uint8)),
                         masks / "a.pgm")
        ignored = np.full((2, 3), raster.IGNORE_LABEL, dtype=np.uint8)
        raster.save_mask(raster.LabelMask(ignored), masks / "b.pgm")
        out = tmp_path / "split.csv"
        assert cli.run(["filter-proxy", "--in", str(masks), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"metaseg: error: {masks / 'b.pgm'}: mask has no non-IGNORE pixels\n")
        assert not out.exists()

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
        assert_one_error_line(capsys, "scene_0002.score.rast")
        assert not (tmp_path / "r.csv").exists()

    def test_mask_pixel_above_maxval_is_data_error(self, scene_dir, tmp_path, capsys):
        scored = tmp_path / "scored"
        assert cli.run(["score", "--in", str(scene_dir), "--out", str(scored)]) == 0
        masks = tmp_path / "masks"
        shutil.copytree(scene_dir, masks)
        bad = masks / "scene_0001.pgm"
        pixels = bytearray(24 * 24)
        pixels[5] = raster.OOD_LABEL
        bad.write_bytes(b"P5\n24 24\n1\n" + bytes(pixels))
        args = ["eval-pixel", "--scores", str(scored), "--masks", str(masks),
                "--out", str(tmp_path / "r.csv")]
        assert cli.run(args) == 2
        assert_one_error_line(capsys, f"{bad}: pixel 254 at (0, 5) above PGM maxval 1")
        assert not (tmp_path / "r.csv").exists()

    @staticmethod
    def write_pair(d, name, scores, labels):
        """`<name>.score.rast` holding `scores` as written, bypassing the
        library's checks, and `<name>.pgm` holding `labels`."""
        save_rast(d / f"{name}.score.rast", scores[:, :, None])
        raster.save_mask(raster.LabelMask(labels), d / f"{name}.pgm")

    def test_streamed_report_equals_in_memory_oracle(self, tmp_path):
        # Eleven images: IGNORE pixels, -0.0 and +0.0 (which tie), tiny
        # negative scores that are clamped to 0, a constant map, and
        # ties across images from float32 scores on a coarse grid.
        rng = np.random.default_rng(181)
        d = tmp_path / "pairs"
        d.mkdir()
        for i in range(11):
            shape = (7 + i, 13 - i // 2)
            labels = np.zeros(shape, dtype=np.uint8)
            labels[rng.random(shape) < 0.2] = raster.OOD_LABEL
            labels[rng.random(shape) < 0.15] = raster.IGNORE_LABEL
            scores = (rng.integers(0, 40, size=shape) / 40).astype(np.float32)
            flat = scores.reshape(-1)
            flat[rng.random(flat.size) < 0.1] = -0.0
            flat[rng.random(flat.size) < 0.05] = -1e-13
            if i == 3:
                scores[:] = 0.375
            self.write_pair(d, f"img_{i:02d}", scores, labels)
        out = tmp_path / "pixel_report.csv"
        args = ["eval-pixel", "--scores", str(d), "--masks", str(d), "--out", str(out)]
        assert cli.run(args) == 0
        paths = sorted(d.glob("*.score.rast"))
        smaps = [raster.load_score_map(p) for p in paths]
        assert any(np.signbit(s.scores).any() for s in smaps)
        masks = [raster.load_mask(p.with_name(p.name.replace(".score.rast", ".pgm")))
                 for p in paths]
        oracle = tmp_path / "oracle.csv"
        analysis.save_report_csv(analysis.evaluate_pixels(smaps, masks), oracle)
        assert out.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("fault, message", [
        ("channels", "score map must have C=1, got 19"),
        ("nan", "score map contains non-finite values"),
        ("above_one", "scores must lie in [0, 1]"),
        ("truncated", "payload is"),
        ("size", "score map 4x6 does not match mask"),
    ])
    def test_refusal_names_the_file(self, tmp_path, capsys, fault, message):
        d = tmp_path / "pairs"
        d.mkdir()
        labels = np.zeros((4, 6), dtype=np.uint8)
        labels[0, 0] = raster.OOD_LABEL
        self.write_pair(d, "a", np.full((4, 6), 0.25), labels)
        scores = np.full((4, 6), 0.5)
        if fault == "nan":
            scores[2, 3] = np.nan
        elif fault == "above_one":
            scores[1, 1] = 1.5
        self.write_pair(d, "b", scores, labels)
        bad = d / "b.score.rast"
        if fault == "channels":
            save_rast(bad, np.full((4, 6, 19), 1 / 19))
        elif fault == "truncated":
            bad.write_bytes(bad.read_bytes()[:-4])
        elif fault == "size":
            raster.save_mask(raster.LabelMask(np.zeros((5, 6), dtype=np.uint8)), d / "b.pgm")
        out = tmp_path / "pixel_report.csv"
        args = ["eval-pixel", "--scores", str(d), "--masks", str(d), "--out", str(out)]
        assert cli.run(args) == 2
        err = assert_one_error_line(capsys, f"{bad}: ")
        assert message in err
        if fault == "size":
            assert str(d / "b.pgm") in err
        assert not out.exists()

    def test_peak_memory_per_kept_pixel(self, tmp_path):
        # The step holds one float32 score and one bool label per kept
        # pixel, and the ranking needs at most 21.8 B per kept pixel
        # beyond them, on nearly distinct float32 scores with 10% of the
        # pixels IGNORE.  The whole step read 64.0-67.1 B per kept pixel
        # when it loaded every score map as float64 before pooling.
        rng = np.random.default_rng(179)
        kept = 0
        for i in range(2):
            labels = np.zeros((500, 1000), dtype=np.uint8)
            labels[rng.random(labels.shape) < 0.05] = raster.OOD_LABEL
            labels[rng.random(labels.shape) < 0.1] = raster.IGNORE_LABEL
            kept += int(np.count_nonzero(labels != raster.IGNORE_LABEL))
            self.write_pair(tmp_path, f"img_{i}", rng.random(labels.shape), labels)
        args = ["eval-pixel", "--scores", str(tmp_path), "--masks", str(tmp_path),
                "--out", str(tmp_path / "pixel_report.csv")]
        tracemalloc.start()
        try:
            assert cli.run(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 5 * kept) / kept <= 21.8
        assert peak / kept <= 30.0


def assert_one_error_line(capsys, text) -> str:
    """The one line written to stderr, a `metaseg: error:` holding `text`."""
    err = capsys.readouterr().err
    assert err.startswith("metaseg: error:") and err.count("\n") == 1, err
    assert text in err
    return err


def save_rast(path, arr):
    """`arr` written as a RAST file of its own shape, unchecked."""
    h, w, c = arr.shape
    path.write_bytes(b"RASTv001" + struct.pack("<III", h, w, c)
                     + np.ascontiguousarray(arr, dtype="<f4").tobytes())


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

    def test_memory_holds_one_scene(self, tmp_path):
        # Each scene is written and dropped before the next is built, so
        # the step holds one 128 x 128 x 19 map whatever the count.
        out = tmp_path / "scenes"
        args = ["synth", "--out", str(out), "--count", "8", "--height", "128",
                "--width", "128", "--couple"]
        tracemalloc.start()
        try:
            assert cli.run(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        map_bytes = 128 * 128 * 19 * 8
        assert peak <= 2 * map_bytes, peak / map_bytes
        assert len(list(out.glob("*.rast"))) == 8

    def test_scene_above_rast_limit_refused(self, tmp_path, capsys, monkeypatch):
        # No reader takes a map above the limit, so none is built.
        monkeypatch.setattr(raster, "_MAX_VALUES", 1000)
        out = tmp_path / "scenes"
        args = ["synth", "--out", str(out), "--height", "16", "--width", "16"]
        assert cli.run(args) == 2
        assert_one_error_line(capsys, "16x16x19 map has 4864 values, above the RAST limit")
        assert not out.exists()

    def test_scene_error_is_one_line(self, tmp_path):
        # At 19 classes the low-margin pair cannot reach an anomaly
        # entropy of 0.22.  At seed 39 scene 2 is the first coupled scene
        # to paint a low-margin blob, so it fails when it is built, and
        # the two scenes written before it stay.
        out = tmp_path / "scenes"
        env = {**os.environ, "PYTHONPATH": str(Path(metaseg.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "metaseg", "synth", "--out", str(out),
             "--count", "4", "--seed", "39", "--couple",
             "--anomaly-entropy", "0.22", "--background-entropy", "0.05"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("metaseg: error:")
        assert "below the minimum" in lines[0]
        assert proc.stdout == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "scene_0000.pgm", "scene_0000.rast", "scene_0001.pgm", "scene_0001.rast",
        ]
