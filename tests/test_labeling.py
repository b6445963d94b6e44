"""IoU contracts and label assignment, including the randomized property suite."""

import json

import numpy as np
import pytest

from groundcap.data import ClassTable, read_jsonl
from groundcap.errors import DataValidationError
from groundcap.labeling import assign_labels, iou, label_dataset_file

UNK = 99
TABLE = ClassTable({0: "dog", 3: "cat", 4: "cow", UNK: "UNK"})


def box(x0, y0, x1, y1):
    return np.array([x0, y0, x1, y1], dtype=np.float64)


def labels_of(targets, detections):
    """assign_labels over lists of target boxes and of (box, label) detections."""
    det_boxes = np.array([b for b, _ in detections]).reshape(-1, 4)
    det_labels = np.array([label for _, label in detections], dtype=np.int64)
    return assign_labels(np.array(targets), det_boxes, det_labels, UNK).tolist()


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
        assert labels_of([b], [(b, 7)]) == [7]

    def test_zero_overlap_gets_unk(self):
        target = box(0.8, 0.8, 0.9, 0.9)
        dets = [(box(0.0, 0.0, 0.2, 0.2), 3)]
        assert labels_of([target], dets) == [UNK]

    def test_empty_detections_gets_unk(self):
        assert labels_of([box(0, 0, 1, 1)], []) == [UNK]

    def test_highest_iou_wins(self):
        # IoUs 1/7 and 1/2 against the target -> second detection's label
        target = box(0, 0, 2, 2)
        d1 = (box(1, 1, 3, 3), 1)
        d2 = (box(0, 0, 2, 4), 2)
        assert iou(target, d1[0]) == pytest.approx(1 / 7)
        assert iou(target, d2[0]) == pytest.approx(1 / 2)
        assert labels_of([target], [d1, d2]) == [2]

    def test_tie_breaks_to_lowest_detection_index(self):
        target = box(0, 0, 2, 2)
        left = (box(0, 0, 1, 2), 5)
        right = (box(1, 0, 2, 2), 6)
        assert iou(target, left[0]) == iou(target, right[0])
        assert labels_of([target], [left, right]) == [5]
        assert labels_of([target], [right, left]) == [6]

    def test_targets_may_share_one_detection(self):
        det = (box(0, 0, 1, 1), 4)
        targets = [box(0, 0, 0.5, 1), box(0.5, 0, 1, 1)]
        assert labels_of(targets, [det]) == [4, 4]

    def test_permutation_stability_up_to_tie_break(self):
        rng = np.random.default_rng(7)
        targets = []
        dets = []
        for _ in range(12):
            x0, y0 = rng.uniform(0, 0.6, size=2)
            targets.append(box(x0, y0, x0 + 0.3, y0 + 0.3))
        for label in range(8):
            x0, y0 = rng.uniform(0, 0.6, size=2)
            dets.append((box(x0, y0, x0 + 0.25, y0 + 0.25), label))
        base = labels_of(targets, dets)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        permuted = labels_of(targets, perm)
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
        n = label_dataset_file(targets, dets, out, TABLE)
        assert n == 1
        labeled = read_jsonl(out)[0]
        assert labeled.labels.tolist() == [3, UNK]

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
        label_dataset_file(targets, dets, out, TABLE)
        assert read_jsonl(out)[0].labels.tolist() == [UNK]

    def test_detection_id_beyond_64_bits_is_rejected(self, tmp_path):
        # orjson reads 2**64 + 1 as a float, whose str() matches that of 2**64
        targets = tmp_path / "targets.jsonl"
        targets.write_text("")
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"id": 18446744073709551617, "boxes": [], "labels": []}\n')
        with pytest.raises(DataValidationError, match="64-bit integer"):
            label_dataset_file(targets, dets, tmp_path / "out.jsonl", TABLE)

    def _label(self, tmp_path, detection_record):
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({
            "id": "img0", "features": [[0.0, 1.0]], "boxes": [[0.0, 0.0, 0.5, 0.5]],
            "labels": [0], "captions": ["a dog"],
        }) + "\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps({"id": "img0", **detection_record}) + "\n")
        out = tmp_path / "out.jsonl"
        label_dataset_file(targets, dets, out, TABLE)
        return read_jsonl(out)[0].labels.tolist()

    def test_empty_detection_record_gives_unk(self, tmp_path):
        assert self._label(tmp_path, {"boxes": [], "labels": []}) == [UNK]

    @pytest.mark.parametrize("record", [
        # 2 boxes, 1 label: zip would keep one detection and drop the other box
        {"boxes": [[0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.9, 0.9]], "labels": [3]},
        {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [3, 4]},
        {"boxes": [], "labels": [3]},
        {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": []},
    ], ids=["extra_box", "extra_label", "no_box", "no_label"])
    def test_boxes_and_labels_of_different_lengths_are_rejected(self, record, tmp_path):
        with pytest.raises(DataValidationError, match="boxes of shape"):
            self._label(tmp_path, record)

    @pytest.mark.parametrize("record", [
        {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [3.9]},
        {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [True]},
        {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": ["3"]},
        {"boxes": [[0.0, 0.0, "0.5", 0.5]], "labels": [3]},
        {"boxes": [[0.0, 0.0, None, 0.5]], "labels": [3]},
    ], ids=["float_label", "bool_label", "string_label", "string_coordinate", "null_coordinate"])
    def test_values_of_the_wrong_json_type_are_rejected(self, record, tmp_path):
        with pytest.raises(DataValidationError, match="must be a JSON array of"):
            self._label(tmp_path, record)

    def test_label_beyond_64_bits_is_rejected(self, tmp_path):
        with pytest.raises(DataValidationError, match="malformed detection record"):
            self._label(tmp_path, {"boxes": [[0.0, 0.0, 0.5, 0.5]], "labels": [2**63]})

    def test_degenerate_detection_box_is_rejected(self, tmp_path):
        with pytest.raises(DataValidationError, match="degenerate or non-finite box"):
            self._label(tmp_path, {"boxes": [[0.5, 0.0, 0.5, 0.5]], "labels": [3]})
