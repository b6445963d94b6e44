"""Harness behaviour: optimizer, schedule, early stopping, determinism, logs."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import decode_reference
import loop_reference
from groundcap import analysis, heap, kernels, training
from groundcap import autodiff as ad
from groundcap.analysis import analyze
from groundcap.data import SyntheticSpec, generate_synthetic_dataset, normalize
from groundcap.errors import ConfigError, DataValidationError, NumericalError
from groundcap.model import load_checkpoint
from groundcap.training import (
    Adam,
    TrainConfig,
    clip_global_norm,
    evaluate,
    learning_rate_at,
    load_for_inference,
    run_experiment_matrix,
    train,
    vocab_from_checkpoint_extra,
    write_convergence_csv,
)

TINY = TrainConfig(
    hidden_size=8,
    min_count=1,
    batch_size=8,
    sample_size=25,
    max_epochs=3,
    patience=10,
    lr_decay_every=6000,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic_dataset(
        SyntheticSpec(num_classes=3, spread=0.2, images=30, feature_size=12,
                      objects_min=2, objects_max=3),
        seed=77,
    )


@pytest.fixture(scope="module")
def decode_dataset():
    # enough validation images, objects from 1 to 6 per image
    return generate_synthetic_dataset(
        SyntheticSpec(num_classes=4, spread=0.2, images=120, feature_size=12,
                      objects_min=1, objects_max=6),
        seed=78,
    )


def strip_wall_ms(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


class TestOptimizer:
    def test_learning_rate_schedule_exact(self):
        cfg = replace(TINY, learning_rate=2e-3, lr_decay=0.8, lr_decay_every=6000)
        assert learning_rate_at(cfg, 0) == 2e-3
        assert learning_rate_at(cfg, 5999) == 2e-3
        assert learning_rate_at(cfg, 6000) == 2e-3 * 0.8
        assert learning_rate_at(cfg, 18000) == 2e-3 * 0.8**3

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
        pre = clip_global_norm(grads, 1.0)
        assert pre == pytest.approx(5.0)
        post = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert post <= 1.0 + 1e-9

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_global_norm(grads, 1.0)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_adam_matches_reference_update(self):
        arrays = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.1])}
        opt = Adam({"w": (2,)}, 0.9, 0.999, 1e-8)
        opt.step(arrays, {k: g.copy() for k, g in grads.items()}, lr=0.01)
        # first step: m_hat = g, v_hat = g^2 -> update = lr * g/(|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * grads["w"] / (np.abs(grads["w"]) + 1e-8)
        np.testing.assert_allclose(arrays["w"], expected, atol=1e-12)


class TestTrainLoop:
    def test_patience_exhaustion_stops_after_eleven_epochs(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(training, "split_cider", lambda *a, **k: 5.0)
        cfg = replace(TINY, max_epochs=50, patience=10)
        result = train(cfg, tiny_dataset)
        assert result.epochs_run == 11
        assert result.best_epoch == 1

    def test_determinism_same_seed_identical_artifacts(self, tiny_dataset, tmp_path):
        cfg = replace(TINY, seed=123, max_epochs=2)
        outputs = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            train(cfg, tiny_dataset, run_dir=run_dir)
            outputs.append(run_dir)
        csv_a = (outputs[0] / "convergence.csv").read_text()
        csv_b = (outputs[1] / "convergence.csv").read_text()
        assert strip_wall_ms(csv_a) == strip_wall_ms(csv_b)
        assert (outputs[0] / "checkpoint_best.json").read_bytes() == (
            outputs[1] / "checkpoint_best.json"
        ).read_bytes()

    def test_grounded_run_identical_with_loop_reference_grounding(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        cfg = replace(
            TINY, seed=9, max_epochs=2, sample_size=200,
            use_cluster_loss=True, use_perceptual_loss=True,
        )
        train(cfg, tiny_dataset, run_dir=tmp_path / "vectorised")
        monkeypatch.setattr(training, "sample_triplets", loop_reference.sample_triplets)
        monkeypatch.setattr(training, "sample_pairs", loop_reference.sample_pairs)
        monkeypatch.setattr(kernels, "scatter_cells", loop_reference.scatter_cells)
        monkeypatch.setattr(kernels, "scatter_rows", loop_reference.scatter_rows)
        train(cfg, tiny_dataset, run_dir=tmp_path / "loops")
        runs = [tmp_path / "vectorised", tmp_path / "loops"]
        csvs = [strip_wall_ms((run / "convergence.csv").read_text()) for run in runs]
        assert csvs[0] == csvs[1]
        rows = [line.split(",") for line in csvs[0].splitlines()[1:]]
        assert all(float(row[3]) != 0.0 and float(row[4]) != 0.0 for row in rows)
        checkpoints = [(run / "checkpoint_best.json").read_bytes() for run in runs]
        assert checkpoints[0] == checkpoints[1]

    def test_grounded_run_identical_with_per_image_decoder(
        self, decode_dataset, tmp_path, monkeypatch
    ):
        cfg = replace(
            TINY, seed=4, hidden_size=16, learning_rate=1e-2, max_epochs=8, sample_size=50,
            use_cluster_loss=True, use_perceptual_loss=True,
        )
        batched = train(cfg, decode_dataset, run_dir=tmp_path / "batched")
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "greedy_decode", decode_reference.greedy_decode)
            train(cfg, decode_dataset, run_dir=tmp_path / "per_image")
        runs = [tmp_path / "batched", tmp_path / "per_image"]
        csvs = [strip_wall_ms((run / "convergence.csv").read_text()) for run in runs]
        assert csvs[0] == csvs[1]
        ciders = [r.val_cider for r in batched.rows if r.val_cider is not None]
        assert len(set(ciders)) > 1 and max(ciders) > 0.0  # decoding moved the score
        checkpoints = [(run / "checkpoint_best.json").read_bytes() for run in runs]
        assert checkpoints[0] == checkpoints[1]

        # evaluate and split_cider on a split match the per-image path
        params, vocab = batched.best_params, batched.vocab
        split = decode_dataset.test

        def outputs():
            table = evaluate(params, split, vocab, cfg.max_len)
            return table, analysis.split_cider(params, split, vocab, cfg.max_len)

        got = outputs()
        monkeypatch.setattr(analysis, "greedy_decode", decode_reference.greedy_decode)
        assert got == outputs()
        assert got[0]["CIDEr"] > 0.0

    def test_total_equals_xe_when_grounding_disabled(self, tiny_dataset):
        cfg = replace(TINY, max_epochs=2, use_cluster_loss=False, use_perceptual_loss=False)
        result = train(cfg, tiny_dataset)
        for row in result.rows:
            assert row.total == row.l_xe
            assert row.l_c == 0.0 and row.l_p == 0.0

    def test_grounded_run_logs_loss_components(self, tiny_dataset):
        cfg = replace(TINY, max_epochs=1, use_cluster_loss=True, use_perceptual_loss=True)
        result = train(cfg, tiny_dataset)
        assert any(row.l_c != 0.0 for row in result.rows)
        expected = [row.l_xe + row.l_c + row.l_p for row in result.rows]
        got = [row.total for row in result.rows]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_best_checkpoint_dominates_epoch_ciders(self, tiny_dataset):
        cfg = replace(TINY, max_epochs=3)
        result = train(cfg, tiny_dataset)
        epoch_ciders = [r.val_cider for r in result.rows if r.val_cider is not None]
        assert len(epoch_ciders) == result.epochs_run
        assert result.best_val_cider >= max(epoch_ciders) - 1e-12

    def test_steps_strictly_increasing_and_one_cider_per_epoch(self, tiny_dataset):
        cfg = replace(TINY, max_epochs=3)
        result = train(cfg, tiny_dataset)
        steps = [r.step for r in result.rows]
        assert steps == sorted(set(steps))
        per_epoch = {}
        for r in result.rows:
            if r.val_cider is not None:
                per_epoch[r.epoch] = per_epoch.get(r.epoch, 0) + 1
        assert set(per_epoch.values()) == {1}
        assert set(per_epoch) == set(range(1, result.epochs_run + 1))
        # patience 10 never runs out in 3 epochs: the loop stops at max_epochs
        assert result.epochs_run == 3
        assert len(result.rows) == result.total_steps

    @pytest.mark.parametrize("sampler, alone", [
        ("sample_triplets", "use_cluster_loss"),
        ("sample_pairs", "use_perceptual_loss"),
    ])
    def test_toggling_the_other_loss_leaves_a_samplers_draws(
        self, sampler, alone, tiny_dataset, monkeypatch
    ):
        real = getattr(training, sampler)

        def draws(**losses):
            got = []

            def recorded(*args):
                got.append(real(*args))
                return got[-1]

            monkeypatch.setattr(training, sampler, recorded)
            result = train(replace(TINY, seed=5, **losses), tiny_dataset)
            assert len(got) == result.total_steps
            return got

        only = draws(**{alone: True})
        both = draws(use_cluster_loss=True, use_perceptual_loss=True)
        assert len(only) == len(both) and any(len(step[0]) for step in only)
        for one, other in zip(only, both):
            assert len(one) == len(other)
            for a, b in zip(one, other):
                np.testing.assert_array_equal(a, b)

    def test_grounding_with_all_unk_labels_is_config_error(self, tiny_dataset):
        import copy

        ds = copy.deepcopy(tiny_dataset)
        unk = ds.class_table.unk_id
        for ex in ds.train:
            ex.labels = np.full_like(ex.labels, unk)
        cfg = replace(TINY, use_cluster_loss=True)
        with pytest.raises(ConfigError, match="UNK"):
            train(cfg, ds)

    def test_label_tokens_must_be_in_vocabulary(self, tiny_dataset):
        import copy

        from groundcap.data import ClassTable

        ds = copy.deepcopy(tiny_dataset)
        names = dict(ds.class_table.names)
        names[0] = "zzyzx"
        ds.class_table = ClassTable(names=names)
        cfg = replace(TINY, use_perceptual_loss=True)
        with pytest.raises(ConfigError, match="zzyzx"):
            train(cfg, ds)

    def test_nan_features_abort_with_numerical_error(self, tiny_dataset, tmp_path):
        import copy

        ds = copy.deepcopy(tiny_dataset)
        ds.train[0].features[0, 0] = np.nan
        run_dir = tmp_path / "nanrun"
        run_dir.mkdir()
        sentinel = run_dir / "checkpoint_best.json"
        sentinel.write_text("{}")
        with pytest.raises(NumericalError):
            train(replace(TINY, max_epochs=1), ds, run_dir=run_dir)
        # previously written artifacts survive the abort, and the log flushed
        assert sentinel.exists()
        assert (run_dir / "convergence.csv").exists()

    def test_infinite_gradient_stops_at_the_step_that_made_it(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        # the loss stays finite; clipping would scale the inf by 0 into NaN
        backward, adam_step = ad.backward, training.Adam.step
        calls = {"backward": 0, "adam": 0}

        def inf_at_step_3(loss, params):
            grads = backward(loss, params)
            calls["backward"] += 1
            if calls["backward"] == 3:
                grads["out.b"][0] = np.inf
            return grads

        def counted_adam_step(self, *args):
            calls["adam"] += 1
            adam_step(self, *args)

        monkeypatch.setattr(ad, "backward", inf_at_step_3)
        monkeypatch.setattr(training.Adam, "step", counted_adam_step)
        with pytest.raises(NumericalError, match="non-finite gradient at step 3$"):
            train(replace(TINY, max_epochs=1), tiny_dataset, run_dir=tmp_path)
        assert calls == {"backward": 3, "adam": 2}
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["1", "2"]

    def test_killed_run_keeps_the_log_of_finished_epochs(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        cfg = replace(TINY, seed=5, max_epochs=4)
        train(cfg, tiny_dataset, run_dir=tmp_path / "full")
        real = training.split_cider
        calls = []

        def killed_at_epoch_3(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "split_cider", killed_at_epoch_3)
        with pytest.raises(KeyboardInterrupt):
            train(cfg, tiny_dataset, run_dir=tmp_path / "killed")
        full, killed = (
            strip_wall_ms((tmp_path / name / "convergence.csv").read_text()).splitlines()
            for name in ("full", "killed")
        )
        epochs = [line.split(",")[0] for line in killed[1:]]
        assert set(epochs) == {"1", "2"}
        assert killed == [full[0]] + [line for line in full[1:] if line.split(",")[0] in epochs]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            replace(TINY, patience=0).validate()
        with pytest.raises(ConfigError):
            replace(TINY, learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            replace(TINY, dropout=1.0).validate()
        with pytest.raises(ConfigError):
            replace(TINY, margin=-1.0).validate()

    def test_empty_split_rejected(self, tiny_dataset):
        import copy

        ds = copy.deepcopy(tiny_dataset)
        ds.val = []
        with pytest.raises(DataValidationError):
            train(TINY, ds)


class TestKeepHeap:
    """``train`` keeps the process's heap through glibc's mallopt, where the
    C library has it; results never depend on it."""

    def test_train_grounded_shapes_take_few_page_faults_per_step(self, monkeypatch):
        resource = pytest.importorskip("resource")
        if getattr(heap._LIBC, "mallopt", None) is None:
            pytest.skip("the C library has no mallopt")
        # the train-grounded benchmark's shapes: batches of 100 captions, 2 to
        # 10 objects per image, hidden size 64, both grounding losses
        dataset = generate_synthetic_dataset(
            SyntheticSpec(num_classes=20, spread=0.1, images=250, feature_size=32,
                          objects_min=2, objects_max=10),
            seed=9,
        )
        cfg = replace(
            TINY, hidden_size=64, batch_size=100, sample_size=2000, max_epochs=3,
            use_cluster_loss=True, use_perceptual_loss=True,
        )
        faults = []
        step = training._train_step

        def probed(*args):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            out = step(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return out

        monkeypatch.setattr(training, "_train_step", probed)
        result = train(cfg, dataset)
        later = [f for f, row in zip(faults, result.rows) if row.epoch > 1]
        assert len(faults) == result.total_steps and len(later) >= 5
        # without the setting, each of these steps takes thousands
        assert np.median(later) < 100, faults

    def test_same_bytes_without_the_c_library(self, tiny_dataset, tmp_path, monkeypatch):
        cfg = replace(
            TINY, seed=5, max_epochs=2, sample_size=200,
            use_cluster_loss=True, use_perceptual_loss=True,
        )
        train(cfg, tiny_dataset, run_dir=tmp_path / "libc")
        monkeypatch.setattr(heap, "_LIBC", None)
        train(cfg, tiny_dataset, run_dir=tmp_path / "none")
        load_checkpoint(tmp_path / "none" / "checkpoint_best.json")  # trims nothing
        runs = [tmp_path / "libc", tmp_path / "none"]
        csvs = [strip_wall_ms((run / "convergence.csv").read_text()) for run in runs]
        assert csvs[0] == csvs[1]
        checkpoints = [(run / "checkpoint_best.json").read_bytes() for run in runs]
        assert checkpoints[0] == checkpoints[1]

    def test_refused_setting_is_logged_and_training_goes_on(
        self, tiny_dataset, monkeypatch, caplog
    ):
        calls = []

        class RefusingLibc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 0

        monkeypatch.setattr(heap, "_LIBC", RefusingLibc())
        with caplog.at_level(logging.DEBUG, logger="groundcap.heap"):
            result = train(replace(TINY, max_epochs=1), tiny_dataset)
        assert result.total_steps > 0
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]
        refused = [r for r in caplog.records if r.name == "groundcap.heap"]
        assert [r.levelno for r in refused] == [logging.DEBUG] * 2
        assert "M_TRIM_THRESHOLD" in refused[0].getMessage()
        assert "M_MMAP_THRESHOLD" in refused[1].getMessage()


class TestEvaluate:
    def test_rigged_decoder_reaches_bleu_100(self, tiny_dataset, monkeypatch):
        cfg = replace(TINY, max_epochs=1)
        result = train(cfg, tiny_dataset)
        vocab = result.vocab
        scripted = [
            [vocab.token_to_id(t) for t in normalize(ex.captions[0])]
            for ex in tiny_dataset.test
        ]
        calls = []

        def scripted_decode(zs, params, max_len):
            calls.append(len(zs))
            return scripted

        monkeypatch.setattr(analysis, "greedy_decode", scripted_decode)
        table = evaluate(result.best_params, tiny_dataset.test, vocab, cfg.max_len)
        assert table["BLEU-1"] == pytest.approx(100.0, abs=1e-6)
        assert calls == [len(tiny_dataset.test)]  # one call for the whole split

    def test_repeated_evaluation_identical(self, tiny_dataset):
        result = train(replace(TINY, max_epochs=1), tiny_dataset)
        a = evaluate(result.best_params, tiny_dataset.test, result.vocab, max_len=16)
        b = evaluate(result.best_params, tiny_dataset.test, result.vocab, max_len=16)
        assert a == b

    def test_missing_references_is_validation_error(self, tiny_dataset):
        import copy

        result = train(replace(TINY, max_epochs=1), tiny_dataset)
        ds = copy.deepcopy(tiny_dataset)
        ds.test[0].captions = ["!!!"]
        with pytest.raises(DataValidationError):
            evaluate(result.best_params, ds.test, result.vocab, max_len=16)


class TestCheckpointRoundtrip:
    def test_load_for_inference(self, tiny_dataset, tmp_path):
        cfg = replace(TINY, max_epochs=1)
        result = train(cfg, tiny_dataset, run_dir=tmp_path)
        params, vocab, max_len = load_for_inference(tmp_path / "checkpoint_best.json")
        assert vocab.tokens == result.vocab.tokens
        assert max_len == cfg.max_len
        assert params.config.hidden_size == cfg.hidden_size
        for name, arr in result.best_params.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_vocab_required(self):
        with pytest.raises(DataValidationError):
            vocab_from_checkpoint_extra({})


class TestExperimentMatrix:
    def test_four_variants_and_reports(self, tiny_dataset, tmp_path):
        cfg = replace(TINY, max_epochs=1, sample_size=10)
        bundle = run_experiment_matrix(cfg, tiny_dataset, seeds=[5], out_dir=tmp_path,
                                       neighbor_k=1)
        variants = {row["variant"] for row in bundle["metrics"]}
        assert variants == {"baseline", "cluster", "perceptual", "cluster+perceptual"}
        assert (tmp_path / "matrix_metrics.json").exists()
        assert (tmp_path / "matrix_analysis.json").exists()
        for name in ("baseline", "cluster", "perceptual", "cluster_perceptual"):
            run_dir = tmp_path / f"{name}_seed5"
            assert (run_dir / "convergence.csv").exists()
            assert (run_dir / "checkpoint_best.json").exists()
            csv_lines = (run_dir / "convergence.csv").read_text().splitlines()
            assert csv_lines[0] == training.CSV_HEADER
            cider_cells = [l.split(",")[7] for l in csv_lines[1:]]
            assert sum(1 for c in cider_cells if c) == 1  # one epoch -> one point

    def test_decodes_test_split_once_with_unchanged_reports(
        self, decode_dataset, tmp_path, monkeypatch
    ):
        real_decode = analysis.greedy_decode
        decodes = []

        def counting(*args):
            decodes.append(args)
            return real_decode(*args)

        monkeypatch.setattr(analysis, "greedy_decode", counting)
        cfg = replace(TINY, hidden_size=16, learning_rate=1e-2, max_epochs=6, sample_size=10)
        bundle = run_experiment_matrix(cfg, decode_dataset, seeds=[5], out_dir=tmp_path,
                                       neighbor_k=1)
        runs = bundle["runs"]
        assert all(row["CIDEr"] > 0.0 for row in bundle["metrics"])
        # one validation decode per epoch, one test decode per run
        assert len(decodes) == sum(run["epochs_run"] for run in runs) + len(runs)
        monkeypatch.undo()

        # analysis.json and matrix_analysis.json hold what the CLI's analyze,
        # with its own CIDEr decode, writes for each run's best parameters
        rows = []
        for run in runs:
            run_dir = tmp_path / f"{run['variant'].replace('+', '_')}_seed5"
            params, vocab, max_len = load_for_inference(run_dir / "checkpoint_best.json")
            cider = analysis.split_cider(params, decode_dataset.test, vocab, max_len)
            report, _ = analyze(params, decode_dataset.test, decode_dataset.class_table, vocab,
                                cider=cider, neighbor_k=1)
            assert (run_dir / "analysis.json").read_bytes() == (report.to_json() + "\n").encode()
            rows.append({"variant": run["variant"], "seed": 5, **json.loads(report.to_json())})
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "matrix_analysis.json").read_text() == expected

    def test_csv_roundtrip_schema(self, tmp_path):
        rows = [
            training.LogRow(1, 1, 2.0, 0.1, -0.5, 1.6, 2e-3, None, 12),
            training.LogRow(1, 2, 1.9, 0.0, 0.0, 1.9, 2e-3, 33.25, 20),
        ]
        path = tmp_path / "log.csv"
        write_convergence_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,l_xe,l_c,l_p,total,lr,val_cider,wall_ms"
        assert lines[1].endswith(",12") and ",," in lines[1]
        assert "33.25" in lines[2]
