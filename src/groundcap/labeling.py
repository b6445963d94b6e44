"""IoU-based transfer of detector labels onto externally provided boxes.

Each target box takes the label of the detection with the highest IoU;
targets overlapping nothing (or an empty detection list) fall back to the
UNK class. Ties break toward the lowest detection index so labeling is
reproducible. Edge-touching boxes have zero intersection area and count
as no overlap. Boxes are (x_min, y_min, x_max, y_max) rows, as in
``data.box_array``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import kernels
from .data import (
    ClassTable,
    DataValidationError,
    add_unique_ids,
    box_array,
    image_id_of,
    json_array,
    read_jsonl,
    read_records,
    write_jsonl,
)

NO_DETECTIONS = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    pair = np.asarray([a, b], dtype=np.float64)
    return float(kernels.iou_matrix(pair[:1], pair[1:])[0, 0])


def assign_labels(
    targets: np.ndarray, det_boxes: np.ndarray, det_labels: np.ndarray, unk_id: int
) -> np.ndarray:
    """Label of the max-IoU detection per target, UNK on zero overlap."""
    if len(det_labels) == 0:
        return np.full(len(targets), unk_id, dtype=np.int64)
    matrix = kernels.iou_matrix(targets, det_boxes)
    best = matrix.argmax(axis=1)  # first maximum = lowest detection index
    overlap = matrix[np.arange(len(targets)), best] > 0.0
    return np.where(overlap, det_labels[best], unk_id)


def _load_detections(path: Path, table: ClassTable) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Image id -> (boxes (m, 4), labels (m,)) of its detection record; an
    id may have one record only, and its labels are classes of ``table``."""
    per_image: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for rec in read_records(path):
        try:
            image_id = image_id_of(rec)
            where = f"image {image_id} detections"
            labels = np.asarray(
                json_array(rec["labels"], "integer", f"{where}: labels"), dtype=np.int64
            )
            boxes = json_array(rec["boxes"], "number", f"{where}: boxes", rows=True)
            detections = box_array(boxes, len(labels), where), labels
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise DataValidationError(f"malformed detection record: {err}") from err
        if image_id in per_image:
            raise DataValidationError(f"{path}: image id {image_id} appears twice")
        unknown = [c for c in labels.tolist() if c not in table.names]
        if unknown:
            raise DataValidationError(f"{path}: {where}: label {unknown[0]} not in the class table")
        per_image[image_id] = detections
    return per_image


def label_dataset_file(
    targets_path: Path, detections_path: Path, out_path: Path, table: ClassTable
) -> int:
    """Fill the labels of every record in a JSONL feature file.

    Detector records are matched to targets by image id; images without
    one get the table's UNK class throughout. A target id may appear once.
    Returns the number of images written.
    """
    detections = _load_detections(Path(detections_path), table)
    examples = read_jsonl(Path(targets_path))
    add_unique_ids(targets_path, [ex.image_id for ex in examples], set())
    for ex in examples:
        ex.labels = assign_labels(
            ex.boxes, *detections.get(ex.image_id, NO_DETECTIONS), table.unk_id
        )
    write_jsonl(examples, Path(out_path))
    return len(examples)
