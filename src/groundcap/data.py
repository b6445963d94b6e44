"""Vocabulary, caption preprocessing, dataset containers and the synthetic
dataset generator.

Caption preprocessing is pinned to: lowercase, delete every character
outside [a-z0-9 ], split on whitespace. Tokens below ``min_count`` map to
the UNK token. Encoded captions are truncated to ``max_len`` tokens and
carry a trailing EOS; the BOS symbol is supplied by the decoder, never
stored.

Dataset files are JSON lines, one record per image:
    {"id": str, "features": [[float x d_in] x k],
     "boxes": [[x_min, y_min, x_max, y_max] x k],
     "labels": [int x k], "captions": [str, ...]}
The same format ingests externally produced feature files. The class
table is a flat JSON map label-id -> label string in which the UNK class
carries the literal string "UNK". Inputs are parsed as RFC 8259 JSON in
UTF-8: NaN/Infinity literals, numbers that overflow float64 and lone
surrogate escapes are malformed JSON. An image id is a JSON string or a
64-bit integer.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson

from .errors import ConfigError, DataValidationError

log = logging.getLogger(__name__)

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
RESERVED = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

UNK_CLASS_NAME = "UNK"

_KEEP = re.compile(r"[^a-z0-9 ]")


def normalize(text: str) -> list[str]:
    """Lowercase, drop characters outside [a-z0-9 ], split on whitespace."""
    return _KEEP.sub("", text.lower()).split()


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> id bijection with reserved BOS/EOS/UNK ids."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def token_to_id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def id_to_token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocabulary(captions: list[str], min_count: int = 5) -> Vocabulary:
    """Count normalized tokens and keep those seen at least min_count times.

    Kept tokens are ordered by descending count, ties alphabetical, after
    the three reserved tokens.
    """
    if not captions:
        raise ConfigError("cannot build a vocabulary from zero captions")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: dict[str, int] = {}
    for caption in captions:
        for token in normalize(caption):
            counts[token] = counts.get(token, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        log.warning("every token fell below min_count=%d; vocabulary is reserved-only", min_count)
    tokens = RESERVED + tuple(kept)
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def encode_caption(text: str, vocab: Vocabulary, max_len: int = 16) -> list[int]:
    """Token ids of the normalized caption, truncated, with EOS appended."""
    ids = [vocab.token_to_id(t) for t in normalize(text)[:max_len]]
    ids.append(EOS_ID)
    return ids


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box; coordinates are conventionally normalized to [0,1]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # chained comparisons also reject NaN and infinite coordinates
        inf = float("inf")
        if not (-inf < self.x_min < self.x_max < inf and -inf < self.y_min < self.y_max < inf):
            raise DataValidationError(
                "degenerate or non-finite box "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max])


@dataclass
class ImageExample:
    """One image: k object feature vectors with boxes, labels and captions."""

    image_id: str
    features: np.ndarray  # (k, d_in) float64
    boxes: list[BoundingBox]
    labels: list[int]
    captions: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataValidationError(
                f"image {self.image_id}: features must be a (k>=1, d_in) matrix"
            )
        k = self.features.shape[0]
        if len(self.boxes) != k or len(self.labels) != k:
            raise DataValidationError(
                f"image {self.image_id}: {k} features but {len(self.boxes)} boxes "
                f"and {len(self.labels)} labels"
            )


@dataclass(frozen=True)
class ClassTable:
    """Class-label id <-> label string, including the UNK class."""

    names: dict[int, str]

    def __post_init__(self):
        strings = list(self.names.values())
        if len(set(strings)) != len(strings):
            raise DataValidationError("class label strings must be unique")
        if UNK_CLASS_NAME not in strings:
            raise DataValidationError(f"class table must contain the {UNK_CLASS_NAME!r} class")

    @property
    def unk_id(self) -> int:
        for cid, name in self.names.items():
            if name == UNK_CLASS_NAME:
                return cid
        raise AssertionError("unreachable")

    def label(self, class_id: int) -> str:
        return self.names[class_id]

    def label_token_ids(self, vocab: Vocabulary) -> dict[int, list[int]]:
        """Constituent token ids per non-UNK class; ids must be in-vocabulary."""
        out: dict[int, list[int]] = {}
        for cid, name in self.names.items():
            if name == UNK_CLASS_NAME:
                continue
            tokens = normalize(name)
            missing = [t for t in tokens if t not in vocab]
            if missing:
                raise ConfigError(
                    f"class {name!r}: label tokens {missing} are not in the vocabulary"
                )
            out[cid] = [vocab.token_to_id(t) for t in tokens]
        return out

    def to_json(self) -> str:
        return json.dumps({str(k): v for k, v in sorted(self.names.items())}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClassTable":
        try:
            names = {int(k): str(v) for k, v in orjson.loads(text).items()}
        except (AttributeError, ValueError) as err:
            raise DataValidationError(f"malformed class table: {err}") from err
        return cls(names=names)


@dataclass
class Dataset:
    train: list[ImageExample]
    val: list[ImageExample]
    test: list[ImageExample]
    class_table: ClassTable

    @property
    def splits(self) -> dict[str, list[ImageExample]]:
        return {"train": self.train, "val": self.val, "test": self.test}


# ---------------------------------------------------------------------------
# JSONL / directory I/O
# ---------------------------------------------------------------------------

def example_to_record(ex: ImageExample) -> dict:
    return {
        "id": ex.image_id,
        "features": [[float(v) for v in row] for row in ex.features],
        "boxes": [[b.x_min, b.y_min, b.x_max, b.y_max] for b in ex.boxes],
        "labels": [int(l) for l in ex.labels],
        "captions": list(ex.captions),
    }


def image_id_of(rec: dict) -> str:
    """The record's id, which must be a JSON string or a 64-bit integer.
    orjson reads a wider integer as a float, whose str() is rounded, so two
    distinct ids could collide."""
    value = rec["id"]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataValidationError(f"image id {value!r} is not a JSON string or a 64-bit integer")
    return str(value)


def record_to_example(rec: dict) -> ImageExample:
    try:
        boxes = [BoundingBox(*map(float, b)) for b in rec["boxes"]]
        return ImageExample(
            image_id=image_id_of(rec),
            features=np.asarray(rec["features"], dtype=np.float64),
            boxes=boxes,
            labels=[int(l) for l in rec["labels"]],
            captions=[str(c) for c in rec["captions"]],
        )
    except (KeyError, TypeError, ValueError) as err:
        raise DataValidationError(f"malformed dataset record: {err}") from err


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a ``.partial`` sibling and a rename,
    so a failed or interrupted write leaves any previous file intact."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        partial.write_text(text)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_jsonl(examples: list[ImageExample], path: Path) -> None:
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_record(ex), sort_keys=True))
            fh.write("\n")


def read_jsonl(path: Path) -> list[ImageExample]:
    out = []
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = orjson.loads(line)
                except ValueError as err:
                    raise DataValidationError(f"{path}:{lineno}: malformed JSON: {err}") from err
                out.append(record_to_example(record))
    except OSError as err:
        raise DataValidationError(f"cannot read {path}: {err}") from err
    return out


def save_dataset(dataset: Dataset, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, examples in dataset.splits.items():
        write_jsonl(examples, out_dir / f"{name}.jsonl")
    (out_dir / "classes.json").write_text(dataset.class_table.to_json() + "\n")


def load_class_table(path: Path) -> ClassTable:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise DataValidationError(f"cannot read class table {path}: {err}") from err
    return ClassTable.from_json(text)


def load_dataset(data_dir: Path) -> Dataset:
    """Read a dataset directory; image ids are unique, features one width."""
    data_dir = Path(data_dir)
    table = load_class_table(data_dir / "classes.json")
    splits = {}
    seen: set[str] = set()
    width = None
    for name in ("train", "val", "test"):
        path = data_dir / f"{name}.jsonl"
        splits[name] = read_jsonl(path)
        for ex in splits[name]:
            unknown = set(ex.labels) - table.names.keys()
            if unknown:
                raise DataValidationError(
                    f"{path}: image {ex.image_id} has labels {sorted(unknown)} "
                    "that are not in the class table"
                )
            if not np.isfinite(ex.features).all():
                raise DataValidationError(f"{path}: image {ex.image_id} has non-finite features")
            if ex.image_id in seen:
                raise DataValidationError(f"{path}: image id {ex.image_id} appears twice")
            seen.add(ex.image_id)
            width = ex.features.shape[1] if width is None else width
            if ex.features.shape[1] != width:
                raise DataValidationError(f"{path}: image {ex.image_id} has feature width "
                                          f"{ex.features.shape[1]}, not {width}")
    return Dataset(class_table=table, **splits)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

LABEL_POOL = [
    "dog", "cat", "horse", "cow",
    "car", "bus", "truck", "traffic light",
    "apple", "banana",
    "sheep", "bird", "train", "boat",
    "chair", "table", "pizza", "orange",
    "stop sign", "bicycle", "bear", "zebra",
    "cup", "bottle",
]

PAIR_TEMPLATE = "a {a} and a {b}"
SINGLE_TEMPLATE = "a photo of a {a}"

SAME_GROUP_COSINE = 0.5
_GROUP_SIZE = 4


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 10
    spread: float = 0.3
    images: int = 500
    objects_min: int = 2
    objects_max: int = 6
    feature_size: int = 32
    geometry: str = "matched"  # or "scrambled"
    captions_per_image: int = 2
    # share of images whose caption reverses the label order: irreducible
    # ambiguity no model can resolve, which pins every run's achievable
    # validation score to the same ceiling
    caption_order_noise: float = 0.3

    def validate(self) -> None:
        if self.num_classes < 3:
            raise ConfigError(f"need at least 3 classes, got {self.num_classes}")
        if self.num_classes > len(LABEL_POOL):
            raise ConfigError(
                f"at most {len(LABEL_POOL)} classes supported, got {self.num_classes}"
            )
        if self.images < 10:
            raise ConfigError(f"need at least 10 images, got {self.images}")
        if self.objects_max < 1:
            raise ConfigError("objects_per_image upper bound must be >= 1")
        if not 1 <= self.objects_min <= self.objects_max:
            raise ConfigError(
                f"bad objects_per_image range ({self.objects_min}, {self.objects_max})"
            )
        if self.spread < 0:
            raise ConfigError(f"spread must be >= 0, got {self.spread}")
        if self.geometry not in ("matched", "scrambled"):
            raise ConfigError(f"geometry must be matched or scrambled, got {self.geometry!r}")
        if self.feature_size < self.num_classes + self._num_groups():
            raise ConfigError(
                f"feature_size {self.feature_size} too small for "
                f"{self.num_classes} classes (+{self._num_groups()} group axes)"
            )
        if self.captions_per_image < 1:
            raise ConfigError("captions_per_image must be >= 1")
        if not 0.0 <= self.caption_order_noise <= 1.0:
            raise ConfigError(
                f"caption_order_noise must be in [0, 1], got {self.caption_order_noise}"
            )

    def _num_groups(self) -> int:
        return len(_class_groups(self.num_classes))


def _class_groups(num_classes: int) -> list[list[int]]:
    """Consecutive chunks of 4; a trailing singleton merges backwards."""
    groups = [
        list(range(i, min(i + _GROUP_SIZE, num_classes)))
        for i in range(0, num_classes, _GROUP_SIZE)
    ]
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-2].extend(groups.pop())
    return groups


def class_prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm class directions whose pairwise cosines follow the groups.

    Classes sharing a group have cosine SAME_GROUP_COSINE; classes in
    different groups are orthogonal. Under scrambled geometry the
    prototype rows are permuted against the class ids, so the planted
    similarity structure no longer lines up with caption co-occurrence.
    """
    groups = _class_groups(spec.num_classes)
    n_axes = spec.num_classes + len(groups)
    basis, _ = np.linalg.qr(rng.standard_normal((spec.feature_size, n_axes)))
    shared = np.sqrt(SAME_GROUP_COSINE)
    private = np.sqrt(1.0 - SAME_GROUP_COSINE)
    protos = np.empty((spec.num_classes, spec.feature_size))
    for gi, members in enumerate(groups):
        for c in members:
            protos[c] = shared * basis[:, gi] + private * basis[:, len(groups) + c]
    if spec.geometry == "scrambled":
        perm = rng.permutation(spec.num_classes)
        while (perm == np.arange(spec.num_classes)).all():
            perm = rng.permutation(spec.num_classes)
        protos = protos[perm]
    return protos


def _random_box(rng: np.random.Generator) -> BoundingBox:
    x0 = rng.uniform(0.0, 0.55)
    y0 = rng.uniform(0.0, 0.55)
    w = rng.uniform(0.1, 0.4)
    h = rng.uniform(0.1, 0.4)
    return BoundingBox(x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0))


def _caption_for(class_ids: list[int], names: dict[int, str], swap: bool) -> str:
    """Canonical caption of an object set.

    The two lowest class ids present fill the pair template in class-id
    order (not object order, so the target is learnable from an unordered
    object set), reversed for the ``swap`` fraction of images. Without the
    swap the caption is a pure function of the label set, which keeps
    validation CIDEr flat once a model has converged and makes
    early-stopping times comparable across runs; the swap adds a
    model-independent noise floor so no run can chase the ceiling.
    """
    distinct = sorted(set(class_ids))
    if len(distinct) >= 2:
        first, second = (distinct[1], distinct[0]) if swap else (distinct[0], distinct[1])
        return PAIR_TEMPLATE.format(a=names[first], b=names[second])
    return SINGLE_TEMPLATE.format(a=names[distinct[0]])


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> Dataset:
    """Clustered gaussian object features with template captions.

    Object vectors are class prototype + N(0, spread^2) noise. Every image
    picks one class group and (up to) two distinct member classes, then
    splits its objects between them, so caption co-occurrence exactly
    mirrors the group structure and every label pair a caption can mention
    is frequent enough to learn; ``geometry`` controls whether prototype
    similarities line up with the co-occurrence. Each image carries
    captions_per_image copies of its canonical caption (every copy is one
    training pair). Deterministic given (spec, seed); splits are a fixed
    80/10/10 cut over images.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    protos = class_prototypes(spec, rng)
    groups = _class_groups(spec.num_classes)
    names = {c: LABEL_POOL[c] for c in range(spec.num_classes)}
    names[spec.num_classes] = UNK_CLASS_NAME
    table = ClassTable(names=names)

    examples = []
    for m in range(spec.images):
        gi = int(rng.integers(len(groups)))
        k = int(rng.integers(spec.objects_min, spec.objects_max + 1))
        members = groups[gi]
        if len(members) >= 2:
            first = int(rng.integers(len(members)))
            second = int(rng.integers(len(members) - 1))
            if second >= first:
                second += 1
            present = [members[first], members[second]]
        else:
            present = [members[0]]
        labels = [present[int(rng.integers(len(present)))] for _ in range(k)]
        feats = protos[labels] + spec.spread * rng.standard_normal(
            (k, spec.feature_size)
        )
        boxes = [_random_box(rng) for _ in range(k)]
        swap = bool(rng.random() < spec.caption_order_noise)
        captions = [_caption_for(labels, names, swap)] * spec.captions_per_image
        examples.append(
            ImageExample(
                image_id=f"synth-{m:06d}",
                features=feats,
                boxes=boxes,
                labels=labels,
                captions=captions,
            )
        )

    n_train = int(spec.images * 0.8)
    n_val = int(spec.images * 0.1)
    return Dataset(
        train=examples[:n_train],
        val=examples[n_train : n_train + n_val],
        test=examples[n_train + n_val :],
        class_table=table,
    )
