"""IoU contracts and label assignment, including the randomized property suite."""

import json

import numpy as np
import pytest

from groundcap.data import BoundingBox, read_jsonl
from groundcap.errors import DataValidationError
from groundcap.labeling import Detection, assign_labels, iou, label_dataset_file

UNK = 99


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


class TestIou:
    def test_identical_boxes(self):
        b = box(0.1, 0.2, 0.5, 0.9)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 0.2, 0.2), box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_hand_value_one_seventh(self):
        assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_edge_touching_counts_as_zero(self):
        assert iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0

    def test_randomized_properties(self):
        rng = np.random.default_rng(2024)

        def random_box():
            x0, y0 = rng.uniform(0, 0.7, size=2)
            w, h = rng.uniform(0.05, 0.3, size=2)
            return box(x0, y0, x0 + w, y0 + h)

        for _ in range(1000):
            a, b = random_box(), random_box()
            ab = iou(a, b)
            assert iou(b, a) == ab  # symmetry, exact
            assert 0.0 <= ab <= 1.0
            assert iou(a, a) == 1.0


class TestAssignLabels:
    def test_exact_match_takes_that_label(self):
        b = box(0.1, 0.1, 0.4, 0.4)
        assert assign_labels([b], [Detection(b, 7)], UNK) == [7]

    def test_zero_overlap_gets_unk(self):
        target = box(0.8, 0.8, 0.9, 0.9)
        dets = [Detection(box(0.0, 0.0, 0.2, 0.2), 3)]
        assert assign_labels([target], dets, UNK) == [UNK]

    def test_empty_detections_gets_unk(self):
        assert assign_labels([box(0, 0, 1, 1)], [], UNK) == [UNK]

    def test_highest_iou_wins(self):
        # IoUs 1/7 and 1/2 against the target -> second detection's label
        target = box(0, 0, 2, 2)
        d1 = Detection(box(1, 1, 3, 3), 1)
        d2 = Detection(box(0, 0, 2, 4), 2)
        assert iou(target, d1.box) == pytest.approx(1 / 7)
        assert iou(target, d2.box) == pytest.approx(1 / 2)
        assert assign_labels([target], [d1, d2], UNK) == [2]

    def test_tie_breaks_to_lowest_detection_index(self):
        target = box(0, 0, 2, 2)
        left = Detection(box(0, 0, 1, 2), 5)
        right = Detection(box(1, 0, 2, 2), 6)
        assert iou(target, left.box) == iou(target, right.box)
        assert assign_labels([target], [left, right], UNK) == [5]
        assert assign_labels([target], [right, left], UNK) == [6]

    def test_targets_may_share_one_detection(self):
        det = Detection(box(0, 0, 1, 1), 4)
        targets = [box(0, 0, 0.5, 1), box(0.5, 0, 1, 1)]
        assert assign_labels(targets, [det], UNK) == [4, 4]

    def test_permutation_stability_up_to_tie_break(self):
        rng = np.random.default_rng(7)
        targets = []
        dets = []
        for _ in range(12):
            x0, y0 = rng.uniform(0, 0.6, size=2)
            targets.append(box(x0, y0, x0 + 0.3, y0 + 0.3))
        for label in range(8):
            x0, y0 = rng.uniform(0, 0.6, size=2)
            dets.append(Detection(box(x0, y0, x0 + 0.25, y0 + 0.25), label))
        base = assign_labels(targets, dets, UNK)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        permuted = assign_labels(targets, perm, UNK)
        # no exact ties in this random geometry, so labels are identical
        assert permuted == base


class TestLabelDatasetFile:
    def test_fills_labels_by_image_id(self, tmp_path):
        targets = tmp_path / "targets.jsonl"
        record = {
            "id": "img0",
            "features": [[0.0, 1.0], [1.0, 0.0]],
            "boxes": [[0.0, 0.0, 0.5, 0.5], [0.6, 0.6, 0.9, 0.9]],
            "labels": [0, 0],
            "captions": ["a dog"],
        }
        targets.write_text(json.dumps(record) + "\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            json.dumps({"id": "img0", "boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [3]})
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        n = label_dataset_file(targets, dets, out, unk_id=UNK)
        assert n == 1
        labeled = read_jsonl(out)[0]
        assert labeled.labels == [3, UNK]

    def test_missing_detection_record_gives_unk(self, tmp_path):
        targets = tmp_path / "targets.jsonl"
        record = {
            "id": "lonely",
            "features": [[0.0, 1.0]],
            "boxes": [[0.1, 0.1, 0.4, 0.4]],
            "labels": [0],
            "captions": ["a cat"],
        }
        targets.write_text(json.dumps(record) + "\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text("")
        out = tmp_path / "out.jsonl"
        label_dataset_file(targets, dets, out, unk_id=UNK)
        assert read_jsonl(out)[0].labels == [UNK]

    def test_detection_id_beyond_64_bits_is_rejected(self, tmp_path):
        # orjson reads 2**64 + 1 as a float, whose str() matches that of 2**64
        targets = tmp_path / "targets.jsonl"
        targets.write_text("")
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"id": 18446744073709551617, "boxes": [], "labels": []}\n')
        with pytest.raises(DataValidationError, match="64-bit integer"):
            label_dataset_file(targets, dets, tmp_path / "out.jsonl", unk_id=UNK)
