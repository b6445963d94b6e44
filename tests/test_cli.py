"""CLI wiring: subcommands, config files, exit codes."""

import json
import re
import shutil

import numpy as np
import pytest

from groundcap.cli import build_train_config, main, read_config_file
from groundcap.data import load_dataset, read_jsonl
from groundcap.model import ModelConfig, ModelParams, save_checkpoint

TINY_FLAGS = [
    "--hidden-size", "8",
    "--min-count", "1",
    "--batch-size", "8",
    "--sample-size", "10",
    "--max-epochs", "1",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = main([
        "generate-data", "--out", str(out),
        "--classes", "3", "--images", "60", "--feature-size", "12",
        "--objects-min", "2", "--objects-max", "3", "--seed", "9",
    ])
    assert code == 0
    return out


class TestGenerateData:
    def test_writes_all_split_files(self, data_dir):
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "classes.json"):
            assert (data_dir / name).exists()
        ds = load_dataset(data_dir)
        assert len(ds.train) == 48

    def test_bad_spec_exit_code_2(self, tmp_path, capsys):
        code = main(["generate-data", "--out", str(tmp_path / "x"), "--classes", "2"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestAssignLabels:
    def test_end_to_end(self, tmp_path):
        targets = tmp_path / "targets.jsonl"
        targets.write_text(
            json.dumps(
                {
                    "id": "img0",
                    "features": [[0.1, 0.2], [0.3, 0.4]],
                    "boxes": [[0.0, 0.0, 0.5, 0.5], [0.6, 0.6, 0.9, 0.9]],
                    "labels": [0, 0],
                    "captions": ["a dog"],
                }
            )
            + "\n"
        )
        detections = tmp_path / "dets.jsonl"
        detections.write_text(
            json.dumps({"id": "img0", "boxes": [[0.0, 0.0, 0.4, 0.5]], "labels": [1]}) + "\n"
        )
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps({"0": "dog", "1": "cat", "2": "UNK"}))
        out = tmp_path / "labeled.jsonl"
        code = main([
            "assign-labels", "--targets", str(targets),
            "--detections", str(detections), "--classes", str(classes),
            "--out", str(out),
        ])
        assert code == 0
        assert read_jsonl(out)[0].labels.tolist() == [1, 2]

    def test_malformed_targets_exit_code_3(self, tmp_path, capsys):
        targets = tmp_path / "targets.jsonl"
        targets.write_text('{"id": "x"}\n')
        detections = tmp_path / "dets.jsonl"
        detections.write_text("")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps({"0": "dog", "1": "UNK"}))
        code = main([
            "assign-labels", "--targets", str(targets),
            "--detections", str(detections), "--classes", str(classes),
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 3
        assert "data validation error" in capsys.readouterr().err


class TestTrainEvaluateAnalyze:
    @pytest.fixture(scope="class")
    def run_dir(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("runs") / "run0"
        code = main(["train", "--data", str(data_dir), "--out", str(out), *TINY_FLAGS])
        assert code == 0
        return out

    def test_train_outputs(self, run_dir):
        assert (run_dir / "checkpoint_best.json").exists()
        assert (run_dir / "convergence.csv").exists()
        config = json.loads((run_dir / "config.json").read_text())
        assert config["hidden_size"] == 8

    def test_evaluate_writes_table(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--checkpoint", str(run_dir / "checkpoint_best.json"),
            "--data", str(data_dir), "--split", "test", "--out", str(out),
        ])
        assert code == 0
        table = json.loads(out.read_text())
        assert set(table) == {"BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr"}

    def test_analyze_writes_report_and_vectors(self, run_dir, data_dir, tmp_path):
        report_path = tmp_path / "analysis.json"
        vectors_path = tmp_path / "vectors.jsonl"
        code = main([
            "analyze", "--checkpoint", str(run_dir / "checkpoint_best.json"),
            "--data", str(data_dir), "--neighbor-k", "1",
            "--out", str(report_path), "--vectors", str(vectors_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report["neighbor_overlap"]) == {"original", "projected"}
        assert len(vectors_path.read_text().splitlines()) == 3

    def test_missing_data_dir_exit_code_3(self, run_dir, tmp_path):
        code = main([
            "evaluate", "--checkpoint", str(run_dir / "checkpoint_best.json"),
            "--data", str(tmp_path / "nope"),
        ])
        assert code == 3

    def test_analyze_reports_the_evaluate_cider(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        flags = [*TINY_FLAGS, "--hidden-size", "16", "--learning-rate", "2e-2", "--max-epochs", "10"]
        assert main(["train", "--data", str(data_dir), "--out", str(run), *flags]) == 0
        common = ["--checkpoint", str(run / "checkpoint_best.json"), "--data", str(data_dir)]
        capsys.readouterr()
        assert main(["evaluate", *common]) == 0
        table = json.loads(capsys.readouterr().out)
        assert main(["analyze", *common, "--neighbor-k", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert table["CIDEr"] > 0.0
        assert report["cider"].hex() == table["CIDEr"].hex()

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    def test_feature_width_differs_from_checkpoint_exit_code_3(
        self, command, run_dir, tmp_path, capsys
    ):
        narrow = tmp_path / "narrow"
        assert main([
            "generate-data", "--out", str(narrow), "--classes", "3", "--images", "20",
            "--feature-size", "10", "--seed", "9",
        ]) == 0
        code = main([
            command, "--checkpoint", str(run_dir / "checkpoint_best.json"),
            "--data", str(narrow),
        ])
        assert code == 3
        assert "the checkpoint expects 12" in capsys.readouterr().err

    @pytest.mark.parametrize("images", [0, 1])
    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    def test_split_below_two_images_exit_code_3(
        self, command, images, run_dir, data_dir, tmp_path, capsys
    ):
        small = tmp_path / "small"
        shutil.copytree(data_dir, small)
        lines = (small / "test.jsonl").read_text().splitlines(keepends=True)
        (small / "test.jsonl").write_text("".join(lines[:images]))
        code = main([
            command, "--checkpoint", str(run_dir / "checkpoint_best.json"), "--data", str(small),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data validation error: ") and "at least 2 images for CIDEr" in err

    def test_nan_training_exit_code_4(self, data_dir, tmp_path, capsys):
        # the first update moves every weight by about the learning rate, so
        # the second step's matmuls overflow and its loss is NaN
        code = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "nanrun"), *TINY_FLAGS,
            "--learning-rate", "1e308",
        ])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err


def _edit_first_record(path, edit):
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    edit(record)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _set_first_label(record):
    record["labels"][0] = 99  # the class table holds ids 0..3


def _set_first(field, value, row=None):
    """An edit that sets ``record[field][0]``, or ``record[field][row][0]``, to ``value``."""
    def edit(record):
        target = record[field] if row is None else record[field][row]
        target[0] = value

    return edit


def _set_first_feature_infinite(record):
    record["features"][0][0] = float("inf")  # written as Infinity, which is not JSON


def _set_first_box_infinite(record):
    record["boxes"][0][2] = float("inf")


def _cut_first_feature_row(record):
    record["features"][0] = record["features"][0][:10]  # the others keep 12


def _set_first_caption_lone_surrogate(record):
    record["captions"][0] = "\ud800"  # a lone surrogate: written as the escape \ud800


def _overflow_first_feature(path):
    lines = path.read_text().splitlines()
    lines[0], edits = re.subn(r'"features": \[\[[^,\]]+', '"features": [[1e400', lines[0], count=1)
    assert edits == 1
    path.write_text("\n".join(lines) + "\n")


def _copy_first_record_over_second(path):
    lines = path.read_text().splitlines()
    lines[1] = lines[0]
    path.write_text("\n".join(lines) + "\n")


def _train_on_broken_copy(break_data):
    def argv(data_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        break_data(broken)
        out = tmp_path / "run"
        return ["train", "--data", str(broken), "--out", str(out), *TINY_FLAGS, "--use-cluster-loss"]

    return argv


def _missing_checkpoint(data_dir, tmp_path):
    return ["evaluate", "--checkpoint", str(tmp_path / "missing.json"), "--data", str(data_dir)]


def _nan_checkpoint(data_dir, tmp_path):
    path = tmp_path / "nan.json"
    params = ModelParams.init(ModelConfig(vocab_size=5, feature_size=12, hidden_size=4),
                              np.random.default_rng(0))
    params.arrays["out.b"][0] = float("nan")  # json.dumps writes the literal NaN
    save_checkpoint(params, path)
    assert b"NaN" in path.read_bytes()
    return ["evaluate", "--checkpoint", str(path), "--data", str(data_dir)]


def _assign_labels(targets, detections, classes, tmp_path):
    return [
        "assign-labels", "--targets", str(targets), "--detections", str(detections),
        "--classes", str(classes), "--out", str(tmp_path / "out.jsonl"),
    ]


def _write(path, text):
    path.write_text(text)
    return path


BROKEN_INPUTS = {
    "malformed_split_line": _train_on_broken_copy(
        lambda d: (d / "val.jsonl").write_text((d / "val.jsonl").read_text() + "{not json\n")
    ),
    "malformed_class_table": _train_on_broken_copy(
        lambda d: (d / "classes.json").write_text('{"0": "dog",\n')
    ),
    "label_outside_class_table": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first_label)
    ),
    "non_finite_feature": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "test.jsonl", _set_first_feature_infinite)
    ),
    "feature_overflowing_float64": _train_on_broken_copy(
        lambda d: _overflow_first_feature(d / "val.jsonl")
    ),
    "caption_lone_surrogate": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first_caption_lone_surrogate)
    ),
    "infinite_box_coordinate": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "val.jsonl", _set_first_box_infinite)
    ),
    "mixed_feature_width": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "test.jsonl", _cut_first_feature_row)
    ),
    "duplicate_image_id": _train_on_broken_copy(
        lambda d: _copy_first_record_over_second(d / "test.jsonl")
    ),
    "label_float": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("labels", 3.7))
    ),
    "label_bool": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("labels", True))
    ),
    "label_string": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("labels", "1"))
    ),
    "label_beyond_int64": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("labels", 2**63))
    ),
    "caption_null": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("captions", None))
    ),
    "caption_number": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("captions", 5))
    ),
    "box_coordinate_string": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("boxes", "0.5", row=0))
    ),
    "feature_string": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("features", "0.5", row=0))
    ),
    # numpy would read true among floats as 1.0
    "feature_bool": _train_on_broken_copy(
        lambda d: _edit_first_record(d / "train.jsonl", _set_first("features", True, row=0))
    ),
    "missing_checkpoint": _missing_checkpoint,
    "nan_in_checkpoint": _nan_checkpoint,
    "malformed_detections_line": lambda d, t: _assign_labels(
        d / "test.jsonl", _write(t / "dets.jsonl", "{not json\n"), d / "classes.json", t
    ),
    "missing_detections_file": lambda d, t: _assign_labels(
        d / "test.jsonl", t / "missing.jsonl", d / "classes.json", t
    ),
    "missing_targets_file": lambda d, t: _assign_labels(
        t / "missing.jsonl", _write(t / "dets.jsonl", ""), d / "classes.json", t
    ),
    "missing_class_table_file": lambda d, t: _assign_labels(
        d / "test.jsonl", _write(t / "dets.jsonl", ""), t / "missing.json", t
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_unreadable_input_exit_code_3(case, data_dir, tmp_path, capsys):
    code = main(BROKEN_INPUTS[case](data_dir, tmp_path))
    err = capsys.readouterr().err
    assert code == 3
    assert any(line.startswith("data validation error: ") for line in err.splitlines()), err


class TestMatrixCommand:
    def test_matrix_tiny(self, data_dir, tmp_path):
        out = tmp_path / "matrix"
        code = main([
            "matrix", "--data", str(data_dir), "--out", str(out),
            "--seeds", "3", "--neighbor-k", "1", *TINY_FLAGS,
        ])
        assert code == 0
        rows = json.loads((out / "matrix_metrics.json").read_text())
        assert len(rows) == 4

    def test_bad_seeds_exit_code_2(self, data_dir, tmp_path):
        code = main([
            "matrix", "--data", str(data_dir), "--out", str(tmp_path / "m"),
            "--seeds", "a,b", *TINY_FLAGS,
        ])
        assert code == 2


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "batch_size = 16\n"
            "learning_rate=1e-3\n"
            "use_cluster_loss=true\n"
            "att_size=none\n"
            "dropout=0.1\n"
        )
        values = read_config_file(cfg)
        assert values["batch_size"] == "16"

        import argparse

        args = argparse.Namespace(config=cfg)
        config = build_train_config(args)
        assert config.batch_size == 16
        assert config.learning_rate == 1e-3
        assert config.use_cluster_loss is True
        assert config.att_size is None
        assert config.dropout == 0.1

    def test_flags_override_config_file(self, tmp_path, data_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size=16\nhidden_size=8\nmin_count=1\nmax_epochs=1\nsample_size=10\n")
        run = tmp_path / "run"
        code = main([
            "train", "--data", str(data_dir), "--out", str(run),
            "--config", str(cfg), "--batch-size", "4",
        ])
        assert code == 0
        snapshot = json.loads((run / "config.json").read_text())
        assert snapshot["batch_size"] == 4
        assert snapshot["hidden_size"] == 8

    def test_unknown_key_exit_code_2(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
            "--config", str(cfg),
        ])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err
