"""IoU-based transfer of detector labels onto externally provided boxes.

Each target box takes the label of the detection with the highest IoU;
targets overlapping nothing (or an empty detection list) fall back to the
UNK class. Ties break toward the lowest detection index so labeling is
reproducible. Edge-touching boxes have zero intersection area and count
as no overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .data import BoundingBox, DataValidationError
from .errors import ConfigError


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    label: int


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    return float(kernels.iou_matrix(a.as_array()[None], b.as_array()[None])[0, 0])


def assign_labels(
    targets: list[BoundingBox], detections: list[Detection], unk_id: int
) -> list[int]:
    """Label of the max-IoU detection per target, UNK on zero overlap."""
    if not targets:
        return []
    if not detections:
        return [unk_id] * len(targets)
    t = np.stack([b.as_array() for b in targets])
    d = np.stack([det.box.as_array() for det in detections])
    matrix = kernels.iou_matrix(t, d)
    best = matrix.argmax(axis=1)  # first maximum = lowest detection index
    out = []
    for row, col in enumerate(best):
        out.append(detections[col].label if matrix[row, col] > 0.0 else unk_id)
    return out


def _load_detections(path: Path) -> dict[str, list[Detection]]:
    per_image: dict[str, list[Detection]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            try:
                dets = [
                    Detection(box=BoundingBox(*map(float, box)), label=int(label))
                    for box, label in zip(rec["boxes"], rec["labels"])
                ]
                per_image[str(rec["id"])] = dets
            except (KeyError, TypeError, ValueError) as err:
                raise DataValidationError(f"malformed detection record: {err}") from err
    return per_image


def label_dataset_file(
    targets_path: Path, detections_path: Path, out_path: Path, unk_id: int
) -> int:
    """Fill the labels of every record in a JSONL feature file.

    Detections are matched to targets by image id; images without a
    detection record get UNK throughout. Returns the number of images
    written.
    """
    from .data import read_jsonl, write_jsonl

    if unk_id < 0:
        raise ConfigError(f"unk_id must be non-negative, got {unk_id}")
    detections = _load_detections(Path(detections_path))
    examples = read_jsonl(Path(targets_path))
    for ex in examples:
        ex.labels = assign_labels(ex.boxes, detections.get(ex.image_id, []), unk_id)
    write_jsonl(examples, Path(out_path))
    return len(examples)
