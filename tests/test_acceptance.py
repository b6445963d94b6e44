"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

The directional criteria (4, 5, 6) share a 12-run experiment matrix
(4 loss variants x 3 seeds) on the synthetic benchmark: 10 classes,
500 images, matched geometry, all optimization hyperparameters at their
defaults. The matrix is trained once per test session by
``training.run_experiment_matrix``, the runner behind ``groundcap matrix``;
the criteria read its run summaries and each run's ``analysis.json``.
Criterion 6 also analyzes each run's initial parameters, rebuilt from the
run's checkpoint config and the init seed stream.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import loop_reference
from groundcap import autodiff as ad
from groundcap.analysis import AnalysisReport, analyze
from groundcap.autodiff import Tensor
from groundcap.data import (
    BoundingBox,
    EOS_ID,
    SyntheticSpec,
    generate_synthetic_dataset,
)
from groundcap.labeling import Detection, assign_labels, iou
from groundcap.losses import (
    LabeledProjection,
    cluster_loss,
    perceptual_loss,
    sample_pairs,
    sample_triplets,
)
from groundcap.metrics import EvaluationCorpus, bleu, cider, rouge_l
from groundcap.model import ModelConfig, ModelParams, batch_forward
from groundcap.training import (
    MATRIX_VARIANTS,
    TrainConfig,
    load_for_inference,
    run_experiment_matrix,
    train,
)

from conftest import central_difference, max_relative_error

FD_TOL = 1e-4

BENCH_SPEC = SyntheticSpec(
    num_classes=10,
    spread=0.1,
    images=500,
    feature_size=32,
    objects_min=2,
    objects_max=4,
    captions_per_image=3,
)
BENCH_DATA_SEED = 2024
BENCH_TRAIN_SEEDS = (1, 2, 3)
BENCH_CONFIG = TrainConfig(
    hidden_size=64,
    min_count=1,
    batch_size=100,
    max_epochs=80,
    patience=10,
    sample_size=500,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

class TestCriterion1Gradients:
    def test_gradient_suite(self):
        """Every parameter block of the full model and both grounding losses
        passes central finite differences at toy dims in under 60 s."""
        started = time.monotonic()
        rng = np.random.default_rng(42)

        cfg = ModelConfig(vocab_size=12, feature_size=6, hidden_size=8)
        params = ModelParams.init(cfg, np.random.default_rng(7))
        feats = [rng.normal(size=(3, 6)), rng.normal(size=(3, 6))]
        labels = [[0, 1, 2], [1, 0, 2]]
        tokens = [[3, 5, 7, EOS_ID], [4, 6, 8, EOS_ID]]  # T = 4

        def nll_value(arrays):
            with ad.no_grad():
                p = {k: Tensor(v) for k, v in arrays.items()}
                out = batch_forward(p, cfg, feats, labels, [0, 1], tokens)
            return float(-out.per_example_logprob.data.mean())

        tape = ad.GradientTape()
        tensors = params.tensors(tape)
        out = batch_forward(tensors, cfg, feats, labels, [0, 1], tokens)
        grads = ad.backward(tape, ad.neg(ad.mean_(out.per_example_logprob)))

        failures = []
        for name, arr in params.arrays.items():
            def fn(block, _n=name):
                merged = {k: (block if k == _n else v) for k, v in params.arrays.items()}
                return nll_value(merged)

            fd = central_difference(fn, [arr])[0]
            err = max_relative_error(grads[name], fd)
            if err > FD_TOL:
                failures.append(f"{name}: {err:.2e}")

        # grounding losses w.r.t. projection and embeddings
        pool_feats = rng.normal(size=(6, 6))
        pool_labels = np.array([0, 0, 1, 1, 2, 2])
        w_in0 = params.arrays["input_proj"].copy()
        w_e0 = params.arrays["embedding"].copy()
        class_tokens = {0: [3], 1: [4, 5], 2: [6]}
        seed_pool = LabeledProjection(
            vectors=Tensor(pool_feats @ w_in0.T), rows=np.arange(6), class_ids=pool_labels
        )
        triplets = sample_triplets(seed_pool, 60, np.random.default_rng(0))
        pairs = sample_pairs(seed_pool, 60, np.random.default_rng(1))

        def grounding_losses(w_in, w_e):
            pool = LabeledProjection(
                vectors=ad.linear(Tensor(pool_feats), w_in if isinstance(w_in, Tensor) else Tensor(w_in)),
                rows=np.arange(6),
                class_ids=pool_labels,
            )
            l_c = cluster_loss(pool, triplets, 0.5)
            l_p = perceptual_loss(
                pool, pairs, w_e if isinstance(w_e, Tensor) else Tensor(w_e), class_tokens
            )
            return l_c, l_p

        tape2 = ad.GradientTape()
        w_in_t = tape2.parameter("input_proj", w_in0)
        w_e_t = tape2.parameter("embedding", w_e0)
        l_c, l_p = grounding_losses(w_in_t, w_e_t)
        grads2 = ad.backward(tape2, ad.add(l_c, l_p))

        def loss_sum(w_in, w_e):
            with ad.no_grad():
                l_c, l_p = grounding_losses(w_in, w_e)
                return float(l_c.data + l_p.data)

        fd_in = central_difference(lambda a: loss_sum(a, w_e0), [w_in0])[0]
        fd_e = central_difference(lambda a: loss_sum(w_in0, a), [w_e0])[0]
        for name, got, want in (
            ("grounding/input_proj", grads2["input_proj"], fd_in),
            ("grounding/embedding", grads2["embedding"], fd_e),
        ):
            err = max_relative_error(got, want)
            if err > FD_TOL:
                failures.append(f"{name}: {err:.2e}")

        elapsed = time.monotonic() - started
        ok = not failures and elapsed < 60.0
        report(
            "1 (gradient suite)", ok,
            f"{len(params.arrays) + 2} blocks, rel err <= {FD_TOL}, {elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""),
        )
        assert not failures, failures
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: loss endpoints
# ---------------------------------------------------------------------------

class TestCriterion2LossEndpoints:
    def test_endpoints(self):
        # cluster loss: margin satisfied -> exactly 0
        vecs = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        pool = LabeledProjection(vectors=Tensor(vecs), rows=np.arange(3),
                                 class_ids=np.array([0, 0, 1]))
        trip = (np.array([0]), np.array([1]), np.array([2]))
        zero = cluster_loss(pool, trip, 0.5).item()

        # degenerate equal-vector triplet -> exactly margin
        same = np.tile(np.array([1.0, 2.0]), (3, 1))
        pool_same = LabeledProjection(vectors=Tensor(same), rows=np.arange(3),
                                      class_ids=np.array([0, 0, 1]))
        gamma = cluster_loss(pool_same, trip, 0.5).item()

        # perceptual loss: identical similarity structure -> -1
        w_e = np.random.default_rng(3).normal(size=(3, 4))
        tokens = {c: [c] for c in range(4)}
        obj = w_e.T.copy()
        pool_p = LabeledProjection(vectors=Tensor(obj), rows=np.arange(4),
                                   class_ids=np.arange(4))
        pairs = sample_pairs(pool_p, 200, np.random.default_rng(0))
        minus_one = perceptual_loss(pool_p, pairs, Tensor(w_e), tokens).item()

        # anticorrelated similarity structure -> +1, via a Gram construction
        words = np.stack([np.array([1.0, 0.0]),
                          np.array([np.cos(1.0), np.sin(1.0)]),
                          np.array([np.cos(1.4), np.sin(1.4)])])
        w_sims = [loop_reference.cosine(words[i], words[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        target = np.eye(3)
        target[0, 1] = target[1, 0] = 0.3 - w_sims[0]
        target[0, 2] = target[2, 0] = 0.3 - w_sims[1]
        target[1, 2] = target[2, 1] = 0.3 - w_sims[2]
        anti_obj = np.linalg.cholesky(target)
        pool_a = LabeledProjection(vectors=Tensor(anti_obj), rows=np.arange(3),
                                   class_ids=np.arange(3))
        pairs_a = sample_pairs(pool_a, 200, np.random.default_rng(1))
        plus_one = perceptual_loss(
            pool_a, pairs_a, Tensor(words.T.copy()), {c: [c] for c in range(3)}
        ).item()

        ok = (
            zero == 0.0
            and gamma == 0.5
            and abs(minus_one - (-1.0)) <= 1e-10
            and abs(plus_one - 1.0) <= 1e-10
        )
        report(
            "2 (loss endpoints)", ok,
            f"cluster 0={zero!r}, gamma={gamma!r}; perceptual -1 err "
            f"{abs(minus_one + 1):.1e}, +1 err {abs(plus_one - 1):.1e}",
        )
        assert zero == 0.0
        assert gamma == 0.5
        assert minus_one == pytest.approx(-1.0, abs=1e-10)
        assert plus_one == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 3: metric oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion3MetricOracle:
    def test_reference_equivalence(self):
        import json

        fixture = json.loads(
            (Path(__file__).parent / "fixtures" / "metric_reference.json").read_text()
        )
        corpus = EvaluationCorpus(
            entries=[
                (e["candidate"].split(), [r.split() for r in e["references"]])
                for e in fixture["corpus"]
            ]
        )
        expected = fixture["expected"]
        got = {
            "BLEU-1": bleu(corpus, 1),
            "BLEU-2": bleu(corpus, 2),
            "BLEU-3": bleu(corpus, 3),
            "BLEU-4": bleu(corpus, 4),
            "ROUGE-L": rouge_l(corpus),
            "CIDEr": cider(corpus),
        }
        errors = {k: abs(got[k] - expected[k]) for k in got}
        ok = all(v <= 1e-6 for v in errors.values())
        report(
            "3 (metric oracle equivalence)", ok,
            "max |diff| = {:.2e} over {} metrics on the 10-image fixture".format(
                max(errors.values()), len(errors)
            ),
        )
        for key, err in errors.items():
            assert err <= 1e-6, f"{key} deviates by {err}"


# ---------------------------------------------------------------------------
# criteria 4-6: the synthetic experiment matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    dataset = generate_synthetic_dataset(BENCH_SPEC, seed=BENCH_DATA_SEED)
    out_dir = tmp_path_factory.mktemp("acceptance_matrix")
    started = time.monotonic()
    bundle = run_experiment_matrix(
        BENCH_CONFIG, dataset, BENCH_TRAIN_SEEDS, out_dir, neighbor_k=3
    )
    runs = {}
    for summary in bundle["runs"]:
        seed, name = summary["seed"], summary["variant"]
        run_dir = out_dir / f"{name.replace('+', '_')}_seed{seed}"
        # the initial parameters: same model config, same init stream as train
        params, vocab, _ = load_for_inference(run_dir / "checkpoint_best.json")
        initial_params = ModelParams.init(params.config, np.random.default_rng([seed, 0]))
        initial, _ = analyze(
            initial_params, dataset.test, dataset.class_table, vocab,
            cider=float("nan"), neighbor_k=3,
        )
        runs[(seed, name)] = {
            "steps": summary["total_steps"],
            "report": AnalysisReport.from_json((run_dir / "analysis.json").read_text()),
            "initial": initial,
        }
    return {"runs": runs, "elapsed": time.monotonic() - started}


class TestCriterion4GroundingDirection:
    def test_structure_directions(self, matrix):
        runs = matrix["runs"]
        cluster_wins = 0
        perceptual_wins = 0
        details = []
        for seed in BENCH_TRAIN_SEEDS:
            base = runs[(seed, "baseline")]["report"]
            clus = runs[(seed, "cluster")]["report"]
            perc = runs[(seed, "perceptual")]["report"]
            c_ok = (
                clus.intra_cluster["projected"] > base.intra_cluster["projected"]
                and clus.inter_cluster["projected"] > base.inter_cluster["projected"]
            )
            p_ok = (
                perc.similarity_correlation["projected"]
                > base.similarity_correlation["projected"]
                and perc.neighbor_overlap["projected"] > base.neighbor_overlap["projected"]
            )
            cluster_wins += c_ok
            perceptual_wins += p_ok
            details.append(f"seed{seed}: +cluster {'Y' if c_ok else 'N'} +perceptual {'Y' if p_ok else 'N'}")
        within_budget = matrix["elapsed"] < 1800.0
        ok = cluster_wins >= 2 and perceptual_wins >= 2 and within_budget
        report(
            "4 (grounding direction)", ok,
            f"cluster {cluster_wins}/3 seeds, perceptual {perceptual_wins}/3 seeds; "
            f"matrix wall time {matrix['elapsed']:.0f}s < 1800s",
        )
        assert cluster_wins >= 2, details
        assert perceptual_wins >= 2, details
        assert within_budget, f"matrix took {matrix['elapsed']:.0f}s"


class TestCriterion5ConvergenceDirection:
    def test_grounded_variants_stop_no_later(self, matrix):
        runs = matrix["runs"]
        details = []
        grounded = [name for name, use_c, use_p in MATRIX_VARIANTS if use_c or use_p]
        wins = dict.fromkeys(grounded, 0)
        for seed in BENCH_TRAIN_SEEDS:
            base_steps = runs[(seed, "baseline")]["steps"]
            row = [f"seed{seed}: baseline {base_steps}"]
            for variant in grounded:
                steps = runs[(seed, variant)]["steps"]
                wins[variant] += steps <= base_steps
                row.append(f"{variant} {steps}")
            details.append(" ".join(row))
        ok = all(count >= 2 for count in wins.values())
        report(
            "5 (convergence direction)", ok,
            "optimizer updates to early stop <= baseline in "
            + ", ".join(f"{v}: {c}/3" for v, c in wins.items()),
        )
        assert ok, details


class TestCriterion6MutualGrounding:
    def test_word_embeddings_move_toward_object_structure(self, matrix):
        """Original-space similarity correlation must rise from init to
        convergence for the grounded runs whose loss reaches the embeddings
        (the perceptual-bearing variants)."""
        runs = matrix["runs"]
        wins = {name: 0 for name, _, use_p in MATRIX_VARIANTS if use_p}
        details = []
        for seed in BENCH_TRAIN_SEEDS:
            for variant in wins:
                before = runs[(seed, variant)]["initial"].similarity_correlation["original"]
                after = runs[(seed, variant)]["report"].similarity_correlation["original"]
                wins[variant] += after > before
                details.append(f"seed{seed} {variant}: {before:.1f} -> {after:.1f}")
        ok = all(count >= 2 for count in wins.values())
        report(
            "6 (mutual grounding)", ok,
            "original-space correlation rose in "
            + ", ".join(f"{v}: {c}/3 seeds" for v, c in wins.items()),
        )
        assert ok, details


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

class TestCriterion7Determinism:
    def test_byte_identical_runs(self, tmp_path):
        """Identical config + seed reproduce the checkpoint byte for byte and
        every convergence-log column except the wall-clock diagnostic."""
        dataset = generate_synthetic_dataset(
            replace(BENCH_SPEC, images=120), seed=BENCH_DATA_SEED
        )
        config = replace(BENCH_CONFIG, max_epochs=3, seed=11)
        artifacts = []
        for name in ("first", "second"):
            run_dir = tmp_path / name
            train(config, dataset, run_dir=run_dir)
            csv_rows = (run_dir / "convergence.csv").read_text().splitlines()
            without_wall = [",".join(line.split(",")[:-1]) for line in csv_rows]
            artifacts.append(
                (without_wall, (run_dir / "checkpoint_best.json").read_bytes())
            )
        csv_equal = artifacts[0][0] == artifacts[1][0]
        ckpt_equal = artifacts[0][1] == artifacts[1][1]
        ok = csv_equal and ckpt_equal
        report(
            "7 (determinism)", ok,
            f"convergence CSV (sans wall_ms) identical: {csv_equal}; "
            f"checkpoint bytes identical: {ckpt_equal}",
        )
        assert csv_equal and ckpt_equal


# ---------------------------------------------------------------------------
# criterion 8: label assignment properties
# ---------------------------------------------------------------------------

class TestCriterion8LabelAssignment:
    def test_property_suite(self):
        rng = np.random.default_rng(20240809)

        def random_box():
            x0, y0 = rng.uniform(0, 0.7, size=2)
            w, h = rng.uniform(0.02, 0.3, size=2)
            return BoundingBox(x0, y0, x0 + w, y0 + h)

        violations = []
        for trial in range(1000):
            a, b = random_box(), random_box()
            ab, ba = iou(a, b), iou(b, a)
            if ab != ba:
                violations.append(f"trial {trial}: symmetry {ab} != {ba}")
            if not (0.0 <= ab <= 1.0):
                violations.append(f"trial {trial}: range {ab}")
            if iou(a, a) != 1.0:
                violations.append(f"trial {trial}: identity")

        # hand fixtures
        unk = 99
        t = BoundingBox(0, 0, 2, 2)
        hand_ok = (
            iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(1 / 7)
            and assign_labels([BoundingBox(0.8, 0.8, 0.9, 0.9)],
                              [Detection(BoundingBox(0, 0, 0.2, 0.2), 3)], unk) == [unk]
            and assign_labels([t], [], unk) == [unk]
            and assign_labels(
                [t],
                [Detection(BoundingBox(0, 0, 1, 2), 5), Detection(BoundingBox(1, 0, 2, 2), 6)],
                unk,
            ) == [5]  # exact IoU tie -> lowest detection index
            and assign_labels(
                [t],
                [Detection(BoundingBox(1, 1, 3, 3), 1), Detection(BoundingBox(0, 0, 2, 4), 2)],
                unk,
            ) == [2]  # IoU 1/7 vs 1/2
        )
        ok = not violations and hand_ok
        report(
            "8 (label assignment)", ok,
            f"1000 randomized pairs clean: {not violations}; hand fixtures: {hand_ok}",
        )
        assert not violations, violations[:3]
        assert hand_ok
