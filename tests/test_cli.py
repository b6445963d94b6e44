"""CLI wiring: subcommands, config files, exit codes."""

import dataclasses
import json
import re
import shutil

import numpy as np
import pytest

import checkpoint_reference
from groundcap import analysis, cli
from groundcap.cli import build_train_config, main, make_parser, read_config_file
from groundcap.data import (
    RESERVED,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_dataset,
    read_jsonl,
    save_dataset,
)
from groundcap.model import ModelConfig, ModelParams, greedy_decode, save_checkpoint
from groundcap.training import TrainConfig

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

    def test_defaults_are_those_of_synthetic_spec(self, tmp_path):
        assert main(["generate-data", "--out", str(tmp_path / "cli")]) == 0
        save_dataset(generate_synthetic_dataset(SyntheticSpec(), 0), tmp_path / "library")

        def files(d):
            return {path.name: path.read_bytes() for path in sorted(d.iterdir())}

        assert files(tmp_path / "cli") == files(tmp_path / "library")


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


    def assign(self, tmp_path, detection_lines):
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({
            "id": "img0", "features": [[0.1, 0.2]], "boxes": [[0.0, 0.0, 0.5, 0.5]],
            "labels": [0], "captions": ["a dog"],
        }) + "\n")
        detections = tmp_path / "dets.jsonl"
        detections.write_text("".join(line + "\n" for line in detection_lines))
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps({"0": "dog", "1": "cat", "2": "UNK"}))
        out = tmp_path / "out.jsonl"
        code = main([
            "assign-labels", "--targets", str(targets), "--detections", str(detections),
            "--classes", str(classes), "--out", str(out),
        ])
        assert not out.exists()
        return code, detections

    def test_repeated_detection_id_exit_code_3(self, tmp_path, capsys):
        records = [{"id": "img0", "boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [label]}
                   for label in (0, 1)]
        code, detections = self.assign(tmp_path, [json.dumps(r) for r in records])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{detections}: image id img0 appears twice" in err, err

    def test_detection_label_outside_class_table_exit_code_3(self, tmp_path, capsys):
        record = {"id": "img0", "boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [7]}
        code, detections = self.assign(tmp_path, [json.dumps(record)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{detections}: image img0 detections: label 7 not in the class table" in err, err

    def test_detections_line_not_json_exit_code_3(self, tmp_path, capsys):
        record = {"id": "img0", "boxes": [], "labels": []}
        code, detections = self.assign(tmp_path, [json.dumps(record), "{not json"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{detections}:2: malformed JSON" in err, err


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


def _edit_first(edit):
    return lambda path: _edit_first_record(path, edit)


def _append_malformed_line(path):
    path.write_text(path.read_text() + "{not json\n")


# name: (the split that the training case breaks, an edit of a split file)
SPLIT_BREAKAGES = {
    "malformed_split_line": ("val", _append_malformed_line),
    "label_outside_class_table": ("train", _edit_first(_set_first_label)),
    "non_finite_feature": ("test", _edit_first(_set_first_feature_infinite)),
    "feature_overflowing_float64": ("val", _overflow_first_feature),
    "caption_lone_surrogate": ("train", _edit_first(_set_first_caption_lone_surrogate)),
    "infinite_box_coordinate": ("val", _edit_first(_set_first_box_infinite)),
    "mixed_feature_width": ("test", _edit_first(_cut_first_feature_row)),
    "duplicate_image_id": ("test", _copy_first_record_over_second),
    "label_float": ("train", _edit_first(_set_first("labels", 3.7))),
    "label_bool": ("train", _edit_first(_set_first("labels", True))),
    "label_string": ("train", _edit_first(_set_first("labels", "1"))),
    "label_beyond_int64": ("train", _edit_first(_set_first("labels", 2**63))),
    "caption_null": ("train", _edit_first(_set_first("captions", None))),
    "caption_number": ("train", _edit_first(_set_first("captions", 5))),
    "box_coordinate_string": ("train", _edit_first(_set_first("boxes", "0.5", row=0))),
    "feature_string": ("train", _edit_first(_set_first("features", "0.5", row=0))),
    # numpy would read true among floats as 1.0
    "feature_bool": ("train", _edit_first(_set_first("features", True, row=0))),
}


def _broken_copy(data_dir, tmp_path, break_data):
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    break_data(broken)
    return broken


def _train_on_broken_copy(break_data):
    def argv(data_dir, tmp_path):
        broken = _broken_copy(data_dir, tmp_path, break_data)
        out = tmp_path / "run"
        return ["train", "--data", str(broken), "--out", str(out), *TINY_FLAGS, "--use-cluster-loss"]

    return argv


def _break_split(split, edit):
    return lambda d: edit(d / f"{split}.jsonl")


def _missing_checkpoint(data_dir, tmp_path):
    return ["evaluate", "--checkpoint", str(tmp_path / "missing.json"), "--data", str(data_dir)]


def _nan_checkpoint(data_dir, tmp_path):
    path = tmp_path / "nan.json"
    params = ModelParams.init(ModelConfig(vocab_size=5, feature_size=12, hidden_size=4),
                              np.random.default_rng(0))
    params.arrays["out.b"][0] = float("nan")
    # save_checkpoint refuses this; the json.dumps writer it replaced wrote the literal NaN
    checkpoint_reference.save_checkpoint(params, path)
    assert b"NaN" in path.read_bytes()
    return ["evaluate", "--checkpoint", str(path), "--data", str(data_dir)]


CHECKPOINT_TOKENS = [*RESERVED, "a", "dog", "cat"]


def _write_checkpoint(path, **extra):
    """An untrained checkpoint for the ``data_dir`` fixture's 12-wide
    features; ``extra`` replaces entries of its metadata."""
    config = ModelConfig(vocab_size=len(CHECKPOINT_TOKENS), feature_size=12, hidden_size=4)
    params = ModelParams.init(config, np.random.default_rng(0))
    metadata = {"vocab_tokens": CHECKPOINT_TOKENS, "train_config": {"max_len": 4}}
    save_checkpoint(params, path, extra={**metadata, **extra})
    return path


def _evaluate_with_metadata(**extra):
    def argv(data_dir, tmp_path):
        path = _write_checkpoint(tmp_path / "checkpoint.json", **extra)
        return ["evaluate", "--checkpoint", str(path), "--data", str(data_dir)]

    return argv


def _checkpoint_extra_not_object(data_dir, tmp_path):
    path = _write_checkpoint(tmp_path / "checkpoint.json")
    payload = json.loads(path.read_text())
    payload["extra"] = [payload["extra"]]
    path.write_text(json.dumps(payload))
    return ["evaluate", "--checkpoint", str(path), "--data", str(data_dir)]


def _assign_labels(targets, detections, classes, tmp_path):
    return [
        "assign-labels", "--targets", str(targets), "--detections", str(detections),
        "--classes", str(classes), "--out", str(tmp_path / "out.jsonl"),
    ]


def _write(path, text):
    path.write_text(text)
    return path


def _assign_with_class_table(edit):
    """``assign-labels`` on the test split, with no detections and the data's
    class table passed through ``edit`` (a function of its JSON object)."""

    def argv(d, t):
        names = edit(json.loads((d / "classes.json").read_text()))
        table = _write(t / "classes.json", json.dumps(names))
        return _assign_labels(d / "test.jsonl", _write(t / "dets.jsonl", ""), table, t)

    return argv


def _repeat_first_class_key(classes_json):
    """The class table with its first key also bound to another label before
    it. orjson keeps the last of two equal keys, so without a check for
    repeated keys this table would read as the original one."""
    text = classes_json.read_text()
    first = next(iter(json.loads(text)))
    _write(classes_json, "{" + json.dumps(first) + ': "zebra", ' + text.lstrip()[1:])


def _evaluate_on_broken_copy(break_data):
    def argv(data_dir, tmp_path):
        broken = _broken_copy(data_dir, tmp_path, break_data)
        checkpoint = _write_checkpoint(tmp_path / "checkpoint.json")
        return ["evaluate", "--checkpoint", str(checkpoint), "--data", str(broken)]

    return argv


def _assign_with_repeated_class_key(d, t):
    table = _write(t / "classes.json", (d / "classes.json").read_text())
    _repeat_first_class_key(table)
    return _assign_labels(d / "test.jsonl", _write(t / "dets.jsonl", ""), table, t)


BROKEN_INPUTS = {
    **{
        name: _train_on_broken_copy(_break_split(split, edit))
        for name, (split, edit) in SPLIT_BREAKAGES.items()
    },
    "malformed_class_table": _train_on_broken_copy(
        lambda d: (d / "classes.json").write_text('{"0": "dog",\n')
    ),
    "missing_checkpoint": _missing_checkpoint,
    "nan_in_checkpoint": _nan_checkpoint,
    # 4 of the model's 6 tokens: decoding would emit ids the vocabulary lacks
    "vocab_shorter_than_model": _evaluate_with_metadata(vocab_tokens=CHECKPOINT_TOKENS[:4]),
    "vocab_longer_than_model": _evaluate_with_metadata(vocab_tokens=[*CHECKPOINT_TOKENS, "bus"]),
    "vocab_token_twice": _evaluate_with_metadata(vocab_tokens=[*RESERVED, "a", "dog", "a"]),
    "vocab_reserved_not_first": _evaluate_with_metadata(
        vocab_tokens=["a", *RESERVED, "dog", "cat"]
    ),
    "vocab_token_not_string": _evaluate_with_metadata(vocab_tokens=[*RESERVED, "a", 5, "cat"]),
    "train_config_not_object": _evaluate_with_metadata(train_config=[4]),
    "train_config_null": _evaluate_with_metadata(train_config=None),
    "max_len_missing": _evaluate_with_metadata(train_config={"hidden_size": 4}),
    "max_len_string": _evaluate_with_metadata(train_config={"max_len": "abc"}),
    "max_len_float": _evaluate_with_metadata(train_config={"max_len": 4.0}),
    "max_len_zero": _evaluate_with_metadata(train_config={"max_len": 0}),
    "checkpoint_extra_not_object": _checkpoint_extra_not_object,
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
    # "01" and "1" would both read as class 1, one silently dropping the other
    "class_table_key_zero_padded": _assign_with_class_table(
        lambda names: {"1": "dog", "01": "cat", "2": "UNK"}
    ),
    "class_table_key_with_space": _assign_with_class_table(
        lambda names: {(" 1" if k == "1" else k): v for k, v in names.items()}
    ),
    "class_table_key_repeated_train": _train_on_broken_copy(
        lambda d: _repeat_first_class_key(d / "classes.json")
    ),
    "class_table_key_repeated_evaluate": _evaluate_on_broken_copy(
        lambda d: _repeat_first_class_key(d / "classes.json")
    ),
    "class_table_key_repeated_assign_labels": _assign_with_repeated_class_key,
    "class_table_label_null": _assign_with_class_table(lambda names: {**names, "1": None}),
    "class_table_label_number": _assign_with_class_table(lambda names: {**names, "1": 5}),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_unreadable_input_exit_code_3(case, data_dir, tmp_path, capsys):
    code = main(BROKEN_INPUTS[case](data_dir, tmp_path))
    err = capsys.readouterr().err
    assert code == 3
    assert any(line.startswith("data validation error: ") for line in err.splitlines()), err


def _train(*flags):
    return lambda d, t: ["train", "--data", str(d), "--out", str(t / "run"), *TINY_FLAGS, *flags]


def _matrix(*flags):
    return lambda d, t: ["matrix", "--data", str(d), "--out", str(t / "run"), *TINY_FLAGS, *flags]


def _train_with_config(text):
    return lambda d, t: _train("--config", str(_write(t / "run.cfg", text)))(d, t)


def _analyze(*flags):
    def argv(d, t):
        checkpoint = _write_checkpoint(t / "checkpoint.json")
        return ["analyze", "--checkpoint", str(checkpoint), "--data", str(d),
                "--out", str(t / "run"), *flags]

    return argv


def _keep_one_test_image(data_dir):
    path = data_dir / "test.jsonl"
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _label_test_objects_alike(data_dir):
    path = data_dir / "test.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record["labels"] = [records[0]["labels"][0]] * len(record["labels"])
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


def _label_test_objects_two_classes(data_dir):
    """Relabel class 2 of the 3-class fixture's test split as class 1."""
    path = data_dir / "test.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record["labels"] = [min(label, 1) for label in record["labels"]]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]


def _evaluate_with_header(key, value):
    """``evaluate`` of an untrained checkpoint whose header entry ``key``
    (``format_version`` or ``model.<field>``) is set to ``value``."""

    def argv(data_dir, tmp_path):
        path = _write_checkpoint(tmp_path / "checkpoint.json")
        payload = json.loads(path.read_text())
        *parents, leaf = key.split(".")
        owner = payload
        for name in parents:
            owner = owner[name]
        owner[leaf] = value
        path.write_text(json.dumps(payload))
        return ["evaluate", "--checkpoint", str(path), "--data", str(data_dir)]

    return argv


# each header integer of _write_checkpoint's checkpoint, and the types that
# int() used to accept in its place: a bool, a float and a string
HEADER_INTEGERS = {
    "format_version": ("1", 1),
    "model.vocab_size": ("an integer", len(CHECKPOINT_TOKENS)),
    "model.feature_size": ("an integer", 12),
    "model.hidden_size": ("an integer", 4),
    "model.att_size": ("an integer or null", 4),
}


def _assign_with_repeated_target(d, t):
    first = (d / "test.jsonl").read_text().splitlines(keepends=True)[0]
    return [
        "assign-labels", "--targets", str(_write(t / "targets.jsonl", first + first)),
        "--detections", str(_write(t / "dets.jsonl", "")), "--classes", str(d / "classes.json"),
        "--out", str(t / "run"),
    ]


def _scoring(command, flag, path):
    """``command`` (evaluate or analyze) of an untrained checkpoint, with the
    output ``flag`` set to t / ``path``."""

    def argv(d, t):
        checkpoint = _write_checkpoint(t / "checkpoint.json")
        return [command, "--checkpoint", str(checkpoint), "--data", str(d), flag, str(t / path)]

    return argv


def _assign_test_split_to(out):
    """``assign-labels`` on the test split, with no detections, writing t / ``out``."""

    def argv(d, t):
        args = _assign_labels(d / "test.jsonl", _write(t / "dets.jsonl", ""), d / "classes.json", t)
        args[-1] = str(t / out)
        return args

    return argv


def _out_under_a_file(argv):
    """``argv(d, t)`` with its ``--out`` moved under the regular file t / "file"."""

    def under(d, t):
        args = argv(d, t)
        args[args.index("--out") + 1] = str(_write(t / "file", "") / "run")
        return args

    return under


# name: (argv of a command that must fail before it writes to t / "run",
#        its exit code, a line of its error message)
NAMED_FAILURES = {
    "evaluate_out_in_missing_directory": (
        _scoring("evaluate", "--out", "run/metrics.json"), 2, "run is not a directory",
    ),
    "analyze_out_in_missing_directory": (
        _scoring("analyze", "--out", "run/analysis.json"), 2, "run is not a directory",
    ),
    "analyze_vectors_in_missing_directory": (
        _scoring("analyze", "--vectors", "run/vectors.jsonl"), 2, "run is not a directory",
    ),
    "evaluate_out_is_a_directory": (_scoring("evaluate", "--out", "."), 2, "it is a directory"),
    "assign_labels_out_in_missing_directory": (
        _assign_test_split_to("run/labels.jsonl"), 2, "run is not a directory",
    ),
    "assign_labels_out_is_a_directory": (_assign_test_split_to("."), 2, "it is a directory"),
    **{
        f"{command}_out_under_a_file": (
            _out_under_a_file(argv), 2, "file is not a directory",
        )
        for command, argv in (
            ("train", _train()),
            ("matrix", _matrix("--seeds", "1")),
            ("generate_data", lambda d, t: ["generate-data", "--out", str(t / "run"), "--images", "10"]),
        )
    },
    "generate_data_spread_overflows": (
        lambda d, t: ["generate-data", "--out", str(t / "run"), "--images", "10", "--spread", "1e308"],
        4, "has non-finite features or boxes",
    ),
    "att_size_zero": (_train("--att-size", "0"), 2, "att_size must be none or >= 1, got 0"),
    "att_size_negative": (_train("--att-size", "-3"), 2, "att_size must be none or >= 1, got -3"),
    "seed_negative": (_train("--seed", "-1"), 2, "seed must be >= 0, got -1"),
    "config_key_repeated": (
        _train_with_config("batch_size=4\nbatch_size=16\n"), 2,
        "run.cfg:2: key 'batch_size' appears more than once",
    ),
    "matrix_seed_negative": (_matrix("--seeds", "1,-1"), 2, "seed must be >= 0, got -1"),
    "matrix_seed_repeated": (_matrix("--seeds", "1,1"), 2, "seed 1 appears more than once"),
    # the data_dir fixture's test split labels all 3 classes
    "matrix_neighbor_k_zero": (
        _matrix("--seeds", "1", "--neighbor-k", "0"), 2,
        "neighbor count k=0 must satisfy 1 <= k < 3 classes",
    ),
    "matrix_neighbor_k_all_classes": (
        _matrix("--seeds", "1", "--neighbor-k", "3"), 2,
        "neighbor count k=3 must satisfy 1 <= k < 3 classes",
    ),
    "analyze_neighbor_k_all_classes": (
        _analyze("--neighbor-k", "3"), 2, "neighbor count k=3 must satisfy 1 <= k < 3 classes",
    ),
    # a split that cannot be scored or separated is named as such, not as a bad k
    "matrix_test_split_one_image": (
        lambda d, t: _matrix("--seeds", "1")(_broken_copy(d, t, _keep_one_test_image), t), 3,
        "scoring a split needs at least 2 images for CIDEr, got 1",
    ),
    **{
        f"{command}_test_split_one_class": (
            lambda d, t, argv=argv: argv(_broken_copy(d, t, _label_test_objects_alike), t), 1,
            "cluster separation needs >= 2 classes, got 1",
        )
        for command, argv in (("matrix", _matrix("--seeds", "1")), ("analyze", _analyze()))
    },
    # k=1 suits 2 classes, but the similarity correlation needs 3
    **{
        f"{command}_test_split_two_classes": (
            lambda d, t, argv=argv: argv(_broken_copy(d, t, _label_test_objects_two_classes), t),
            1, "similarity correlation needs >= 3 classes, got 2",
        )
        for command, argv in (("matrix", _matrix("--seeds", "1", "--neighbor-k", "1")),
                              ("analyze", _analyze("--neighbor-k", "1")))
    },
    # every float field, as a flag and as a --config key
    **{
        f"{name}_nan_flag": (
            _train("--" + name.replace("_", "-"), "nan"), 2, f"{name} must be finite, got nan",
        )
        for name in FLOAT_FIELDS
    },
    **{
        f"{name}_inf_config_key": (
            _train_with_config(f"{name}=-inf\n"), 2, f"{name} must be finite, got -inf",
        )
        for name in FLOAT_FIELDS
    },
    "margin_inf_matrix": (_matrix("--margin", "inf"), 2, "margin must be finite, got inf"),
    **{
        f"generate_data_spread_{value}": (
            lambda d, t, value=value: ["generate-data", "--out", str(t / "run"), "--spread", value],
            2, f"spread must be finite, got {value}",
        )
        for value in ("nan", "inf")
    },
    **{
        f"checkpoint_{key}_{type(value).__name__}": (
            _evaluate_with_header(key, value), 3,
            f"checkpoint {key} must be {kind}, got {json.dumps(value)}",
        )
        for key, (kind, good) in HEADER_INTEGERS.items()
        for value in (True, float(good), str(good))
    },
    **{
        f"checkpoint_{key}_zero": (
            _evaluate_with_header(key, 0), 3, f"checkpoint {key} must be >= 1, got 0",
        )
        for key in HEADER_INTEGERS
        if key.startswith("model.")
    },
    "checkpoint_model.hidden_size_fraction": (
        _evaluate_with_header("model.hidden_size", 4.7), 3,
        "checkpoint model.hidden_size must be an integer, got 4.7",
    ),
    "assign_labels_target_id_repeated": (
        _assign_with_repeated_target, 3, "targets.jsonl: image id {first_test_id} appears twice"
    ),
}


@pytest.mark.parametrize("case", sorted(NAMED_FAILURES))
def test_failure_is_named_before_writing(case, data_dir, tmp_path, capsys, monkeypatch, recwarn):
    def must_not_decode(*args, **kwargs):
        raise AssertionError("decoded before the failure")

    decodes = []

    def counting_greedy_decode(*args, **kwargs):
        decodes.append(1)
        return greedy_decode(*args, **kwargs)

    monkeypatch.setattr(cli, "split_cider", must_not_decode)
    monkeypatch.setattr(analysis, "greedy_decode", counting_greedy_decode)
    argv, code, message = NAMED_FAILURES[case]
    assert main(argv(data_dir, tmp_path)) == code
    err = capsys.readouterr().err
    assert message.format(first_test_id=_first_id(data_dir / "test.jsonl")) in err, err
    assert not (tmp_path / "run").exists()
    assert len(decodes) == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]  # no numpy noise


@pytest.mark.parametrize("command", ["train", "evaluate", "assign_labels"])
def test_repeated_class_key_is_named(command, data_dir, tmp_path, capsys):
    first = next(iter(json.loads((data_dir / "classes.json").read_text())))
    assert main(BROKEN_INPUTS[f"class_table_key_repeated_{command}"](data_dir, tmp_path)) == 3
    assert f"key {first!r} appears more than once" in capsys.readouterr().err


def _first_id(path):
    return json.loads(path.read_text().splitlines()[0])["id"]


def _set_first_box_degenerate(record):
    record["boxes"][0][2] = record["boxes"][0][0]  # x_max == x_min


class TestScopedLoad:
    """``evaluate`` and ``analyze`` read their split in full and the other two
    splits' lines as JSON records with an image id, unique across all three."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        return _write_checkpoint(tmp_path_factory.mktemp("checkpoint") / "checkpoint.json")

    def evaluate(self, checkpoint, data, split="test"):
        return main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--split", split])

    def test_unbroken_data_exits_0(self, checkpoint, data_dir):
        assert self.evaluate(checkpoint, data_dir) == 0

    @pytest.mark.parametrize("case", sorted(SPLIT_BREAKAGES))
    def test_breakage_in_scored_split_exit_code_3(self, case, checkpoint, data_dir, tmp_path,
                                                 capsys):
        broken = _broken_copy(data_dir, tmp_path, _break_split("test", SPLIT_BREAKAGES[case][1]))
        code = self.evaluate(checkpoint, broken)
        assert code == 3
        assert capsys.readouterr().err.startswith("data validation error: ")

    UNSCORED_BREAKAGES = {
        "malformed_json": (_append_malformed_line, 3),
        "record_not_an_object": (lambda p: p.write_text(p.read_text() + "[1, 2]\n"), 3),
        "id_missing": (_edit_first(lambda record: record.pop("id")), 3),
        "id_float": (_edit_first(lambda record: record.update(id=7.5)), 3),
        "id_null": (_edit_first(lambda record: record.update(id=None)), 3),
        "id_twice_in_split": (_copy_first_record_over_second, 3),
        # the records of unscored splits are not converted: these read as documented
        "label_outside_class_table": (_edit_first(_set_first_label), 0),
        "label_float": (_edit_first(_set_first("labels", 3.7)), 0),
        "degenerate_box": (_edit_first(_set_first_box_degenerate), 0),
        "feature_string": (_edit_first(_set_first("features", "0.5", row=0)), 0),
    }

    @pytest.mark.parametrize("unscored", ["train", "val"])
    @pytest.mark.parametrize("case", sorted(UNSCORED_BREAKAGES))
    def test_breakage_in_unscored_split(self, case, unscored, checkpoint, data_dir, tmp_path,
                                        capsys):
        edit, expected = self.UNSCORED_BREAKAGES[case]
        broken = _broken_copy(data_dir, tmp_path, _break_split(unscored, edit))
        assert self.evaluate(checkpoint, broken) == expected
        if expected == 3:
            assert capsys.readouterr().err.startswith("data validation error: ")
        # scoring the broken split reads it in full, which rejects every breakage
        assert self.evaluate(checkpoint, broken, split=unscored) == 3

    @pytest.mark.parametrize("unscored", ["train", "val"])
    def test_id_of_a_scored_image_in_unscored_split_exit_code_3(
        self, unscored, checkpoint, data_dir, tmp_path, capsys
    ):
        test_id = _first_id(data_dir / "test.jsonl")
        broken = _broken_copy(data_dir, tmp_path, _break_split(
            unscored, _edit_first(lambda record: record.update(id=test_id))))
        assert self.evaluate(checkpoint, broken) == 3
        assert f"image id {test_id} appears twice" in capsys.readouterr().err

    def test_id_shared_by_the_unscored_splits_exit_code_3(self, checkpoint, data_dir, tmp_path):
        train_id = _first_id(data_dir / "train.jsonl")
        broken = _broken_copy(data_dir, tmp_path, _break_split(
            "val", _edit_first(lambda record: record.update(id=train_id))))
        assert self.evaluate(checkpoint, broken) == 3

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_output_equals_that_of_a_full_load(self, split, data_dir, tmp_path, monkeypatch,
                                               capsys):
        run = tmp_path / "run"
        flags = [*TINY_FLAGS, "--hidden-size", "16", "--learning-rate", "2e-2", "--max-epochs", "3"]
        assert main(["train", "--data", str(data_dir), "--out", str(run), *flags]) == 0
        capsys.readouterr()

        def outputs(tag):
            common = ["--checkpoint", str(run / "checkpoint_best.json"), "--data", str(data_dir),
                      "--split", split]
            files = [tmp_path / f"{tag}.{name}" for name in ("metrics", "report", "vectors")]
            assert main(["evaluate", *common, "--out", str(files[0])]) == 0
            assert main(["analyze", *common, "--neighbor-k", "1", "--out", str(files[1]),
                         "--vectors", str(files[2])]) == 0
            return capsys.readouterr().out, [f.read_bytes() for f in files]

        scoped = outputs("scoped")
        splits = []

        def full_load(data_dir, split=None):
            splits.append(split)
            return load_dataset(data_dir)

        monkeypatch.setattr(cli, "load_dataset", full_load)
        assert outputs("full") == scoped
        assert splits == [split, split]


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


TRAIN_FIELDS = dataclasses.fields(TrainConfig)


def _non_default(field):
    """A value of TrainConfig ``field`` other than its default, as text."""
    if field.type == "bool":
        return "true"
    if field.type == "int | None":
        return "7"
    return repr(field.default + 1 if field.type == "int" else field.default / 2)


def _parse_train(*flags):
    return build_train_config(make_parser().parse_args(["train", "--data", "d", "--out", "o",
                                                        *flags]))


class TestConfigFile:
    @pytest.mark.parametrize("field", TRAIN_FIELDS, ids=[f.name for f in TRAIN_FIELDS])
    def test_flag_and_config_key_give_the_same_config(self, field, tmp_path):
        raw = _non_default(field)
        flag = ["--" + field.name.replace("_", "-")] + ([] if field.type == "bool" else [raw])
        cfg = _write(tmp_path / "run.cfg", f"{field.name}={raw}\n")
        from_flag, from_file = _parse_train(*flag), _parse_train("--config", str(cfg))
        assert from_flag == from_file
        assert getattr(from_flag, field.name) != field.default

    def test_att_size_none_flag_overrides_config_file(self, tmp_path):
        cfg = _write(tmp_path / "run.cfg", "att_size=5\n")
        assert _parse_train("--config", str(cfg)).att_size == 5
        assert _parse_train("--config", str(cfg), "--att-size", "none").att_size is None

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
