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
The same format ingests externally produced feature files. The detection
file of ``assign-labels`` holds {"id", "boxes", "labels"} records whose
boxes and labels have equal lengths, zero allowed. Feature values and box
coordinates are JSON numbers, labels JSON integers that fit in 64 bits,
captions JSON strings: ``true``, ``null`` or a quoted number there is an
error, not converted. Every box satisfies ``-inf < x_min < x_max < inf``
and ``-inf < y_min < y_max < inf``, which also rejects NaN. The class
table is a flat JSON map label-id -> label string in which the UNK class
carries the literal string "UNK". Inputs are parsed as RFC 8259 JSON in
UTF-8: NaN/Infinity literals, numbers that overflow float64 and lone
surrogate escapes are malformed JSON. An image id is a JSON string or a
64-bit integer.

One encoder, ``float_array_json``, writes every float array of the program's
output: the parameters of a checkpoint, the features and boxes of a dataset
record and the vectors of ``analyze --vectors``, each with the bytes
``json.dumps`` writes. A dataset file holds exactly
``json.dumps(example_to_record(ex), sort_keys=True)`` per line.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .errors import ConfigError, DataValidationError, NumericalError

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


def build_vocabulary(captions: list[str], min_count: int) -> Vocabulary:
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


def encode_caption(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Token ids of the normalized caption, truncated, with EOS appended."""
    ids = [vocab.token_to_id(t) for t in normalize(text)[:max_len]]
    ids.append(EOS_ID)
    return ids


def box_array(boxes, count: int, where: str) -> np.ndarray:
    """``boxes`` as a (count, 4) float64 array of (x_min, y_min, x_max, y_max)
    rows, each with ``-inf < x_min < x_max < inf`` and
    ``-inf < y_min < y_max < inf``; the chained comparisons also reject NaN."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.shape == (0,):
        boxes = boxes.reshape(0, 4)
    if boxes.shape != (count, 4):
        raise DataValidationError(f"{where}: boxes of shape {boxes.shape}, not ({count}, 4)")
    inf = float("inf")
    for x_min, y_min, x_max, y_max in boxes.tolist():
        if not (-inf < x_min < x_max < inf and -inf < y_min < y_max < inf):
            raise DataValidationError(
                f"{where}: degenerate or non-finite box ({x_min}, {y_min}, {x_max}, {y_max})"
            )
    return boxes


@dataclass
class ImageExample:
    """One image: k object feature vectors with boxes, labels and captions."""

    image_id: str
    features: np.ndarray  # (k, d_in) float64
    boxes: np.ndarray  # (k, 4) float64, see box_array
    labels: np.ndarray  # (k,) int64
    captions: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataValidationError(
                f"image {self.image_id}: features must be a (k>=1, d_in) matrix"
            )
        k = self.features.shape[0]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (k,):
            raise DataValidationError(
                f"image {self.image_id}: {k} features but labels of shape {self.labels.shape}"
            )
        self.boxes = box_array(self.boxes, k, f"image {self.image_id}")


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
        """Keys are class ids written as ``to_json`` writes them ("3", not
        "03" or " 3"), each once, and values are JSON strings."""
        try:
            items = list(orjson.loads(text).items())
            names = {int(k): v for k, v in items}
        except (AttributeError, ValueError) as err:
            raise DataValidationError(f"malformed class table: {err}") from err
        # orjson keeps the last of two equal keys; the json module lists them all.
        keys = [key for key, _ in json.loads(text, object_pairs_hook=list)]
        if len(keys) != len(items):
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise DataValidationError(
                f"malformed class table: key {repeated!r} appears more than once"
            )
        for key, name in items:
            if key != str(int(key)):
                raise DataValidationError(f"malformed class table: key {key!r} is not canonical")
            if not isinstance(name, str):
                raise DataValidationError(f"malformed class table: label {name!r} is not a string")
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
        "features": ex.features.tolist(),
        "boxes": ex.boxes.tolist(),
        "labels": ex.labels.tolist(),
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


# the Python types orjson reads each JSON kind as; true and false read as bool
_JSON_TYPES = {"number": {float, int}, "integer": {int}, "string": {str}}


def json_array(value, kind: str, where: str, rows: bool = False) -> list:
    """``value`` if it is a JSON array of JSON ``kind`` values (with ``rows``,
    an array of such arrays)."""
    if type(value) is list:
        items = chain.from_iterable(value) if rows else value
        if set(map(type, items)) <= _JSON_TYPES[kind]:
            return value
    nesting = "arrays of " if rows else ""
    raise DataValidationError(f"{where} must be a JSON array of {nesting}{kind}s")


def record_to_example(rec: dict) -> ImageExample:
    try:
        image_id = image_id_of(rec)
        where = f"image {image_id}:"
        return ImageExample(
            image_id=image_id,
            features=json_array(rec["features"], "number", f"{where} features", rows=True),
            boxes=json_array(rec["boxes"], "number", f"{where} boxes", rows=True),
            labels=json_array(rec["labels"], "integer", f"{where} labels"),
            captions=json_array(rec["captions"], "string", f"{where} captions"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise DataValidationError(f"malformed dataset record: {err}") from err


def write_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data`` to ``path`` through a ``.partial`` sibling and a rename,
    so a failed or interrupted write leaves any previous file intact."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        if isinstance(data, bytes):
            partial.write_bytes(data)
        else:
            partial.write_text(data)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def float_array_json(arr: np.ndarray) -> bytes:
    """``json.dumps(arr.tolist())`` of a finite float64 array of any shape, as
    bytes; NaN and infinities have no JSON number, so callers reject them.

    orjson prints the same shortest round-trip digits as ``float.__repr__``
    and differs only in layout: it writes no space after ``,``, and where
    Python uses the exponent form (nonzero magnitudes below 1e-4 or from
    1e16 up) it writes ``0.00001``, ``1e-6`` or ``1e16`` for Python's
    ``1e-05``, ``1e-06`` and ``1e+16``. Those few values get ``repr``
    spliced over their orjson token: the i-th value's token is the i-th run
    of bytes other than ``[``, ``]`` and ``,``.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)  # orjson takes C order only
    body = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
    flat = arr.ravel()
    magnitude = np.abs(flat)
    exponent = np.flatnonzero((flat != 0) & ((magnitude < 1e-4) | (magnitude >= 1e16)))
    if exponent.size:
        buf = np.frombuffer(body, np.uint8)
        delimiter = (buf == ord(",")) | (buf == ord("[")) | (buf == ord("]"))
        bounds = np.flatnonzero(delimiter[1:] != delimiter[:-1]) + 1  # start, end, start, ...
        starts, ends = bounds[0::2][exponent], bounds[1::2][exponent]
        pieces = [body[: starts[0]]]
        for value, end, next_start in zip(
            flat[exponent].tolist(), ends.tolist(), [*starts[1:].tolist(), len(body)]
        ):
            pieces += (repr(value).encode(), body[end:next_start])
        body = b"".join(pieces)
    return body.replace(b",", b", ")


def record_json(ex: ImageExample) -> bytes:
    """The line ``write_jsonl`` writes for ``ex``, as bytes:
    ``json.dumps(example_to_record(ex), sort_keys=True)`` and a newline. The
    arrays go through ``float_array_json`` and orjson, the id and the captions
    through ``json.dumps``, which escapes non-ASCII text and lone surrogates
    as it always has."""
    return b"".join((
        b'{"boxes": ', float_array_json(ex.boxes),
        b', "captions": ', json.dumps(list(ex.captions)).encode(),
        b', "features": ', float_array_json(ex.features),
        b', "id": ', json.dumps(ex.image_id).encode(),
        b', "labels": ', orjson.dumps(ex.labels.tolist()).replace(b",", b", "),
        b"}\n",
    ))


def _check_finite(examples: list[ImageExample], path: Path) -> None:
    for ex in examples:
        if not (np.isfinite(ex.features).all() and np.isfinite(ex.boxes).all()):
            raise NumericalError(
                f"image {ex.image_id} has non-finite features or boxes; {path} not written"
            )


def write_jsonl(examples: list[ImageExample], path: Path) -> None:
    """Write one ``record_json`` line per example, atomically. An example
    with a NaN or infinite feature or box raises ``NumericalError`` before
    anything is written: JSON has no such number, and ``load_dataset``
    would reject the file."""
    _check_finite(examples, path)
    write_atomic(path, b"".join(map(record_json, examples)))


def read_records(path: Path):
    """The JSON record of each non-blank line of a JSON-lines file."""
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield orjson.loads(line)
                except ValueError as err:
                    raise DataValidationError(f"{path}:{lineno}: malformed JSON: {err}") from err
    except OSError as err:
        raise DataValidationError(f"cannot read {path}: {err}") from err


def read_jsonl(path: Path) -> list[ImageExample]:
    return [record_to_example(record) for record in read_records(path)]


def _read_ids(path: Path) -> list[str]:
    """The image id of each record of a JSON-lines file; the rest is not checked."""
    try:
        return [image_id_of(record) for record in read_records(path)]
    except (KeyError, TypeError) as err:
        raise DataValidationError(f"{path}: malformed dataset record: {err}") from err


def add_unique_ids(path: Path, ids: list[str], seen: set[str]) -> None:
    """Add the image ids read from ``path`` to ``seen``; an id already there
    is a DataValidationError."""
    for image_id in ids:
        if image_id in seen:
            raise DataValidationError(f"{path}: image id {image_id} appears twice")
        seen.add(image_id)


def save_dataset(dataset: Dataset, out_dir: Path) -> None:
    """Write every split and the class table into ``out_dir``. Every split is
    checked as ``write_jsonl`` checks it before the directory is made, so a
    non-finite value creates nothing."""
    out_dir = Path(out_dir)
    paths = {name: out_dir / f"{name}.jsonl" for name in dataset.splits}
    for name, examples in dataset.splits.items():
        _check_finite(examples, paths[name])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, examples in dataset.splits.items():
        write_atomic(paths[name], b"".join(map(record_json, examples)))
    write_atomic(out_dir / "classes.json", dataset.class_table.to_json() + "\n")


def load_class_table(path: Path) -> ClassTable:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise DataValidationError(f"cannot read class table {path}: {err}") from err
    return ClassTable.from_json(text)


SPLITS = ("train", "val", "test")


def load_dataset(data_dir: Path, split: str | None = None) -> Dataset:
    """Read a dataset directory; image ids are unique across its splits.

    Without ``split`` every record of every split is read and checked: its
    labels are keys of the class table and its features have the width of
    every other image's. With ``split`` only that split is read and checked
    so; every line of the other two must still be JSON with a valid image
    id, and those splits come back empty.

    Every feature is finite: the JSON parser rejects NaN, Infinity and
    numbers that overflow float64.
    """
    if split is not None and split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}, expected one of {SPLITS}")
    data_dir = Path(data_dir)
    table = load_class_table(data_dir / "classes.json")
    splits = {}
    seen: set[str] = set()
    width = None
    for name in SPLITS:
        path = data_dir / f"{name}.jsonl"
        if split in (None, name):
            splits[name] = read_jsonl(path)
            ids = [ex.image_id for ex in splits[name]]
        else:
            splits[name] = []
            ids = _read_ids(path)
        for ex in splits[name]:
            unknown = set(ex.labels.tolist()) - table.names.keys()
            if unknown:
                raise DataValidationError(
                    f"{path}: image {ex.image_id} has labels {sorted(unknown)} "
                    "that are not in the class table"
                )
            width = ex.features.shape[1] if width is None else width
            if ex.features.shape[1] != width:
                raise DataValidationError(f"{path}: image {ex.image_id} has feature width "
                                          f"{ex.features.shape[1]}, not {width}")
        add_unique_ids(path, ids, seen)
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
# a box is drawn as (x0, y0, w, h) from these bounds, then clipped to
# (x0, y0, min(x0 + w, 1), min(y0 + h, 1))
_BOX_LOW = (0.0, 0.0, 0.1, 0.1)
_BOX_HIGH = (0.55, 0.55, 0.4, 0.4)
GEOMETRIES = ("matched", "scrambled")


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 10
    spread: float = 0.3
    images: int = 500
    objects_min: int = 2
    objects_max: int = 6
    feature_size: int = 32
    geometry: str = "matched"  # one of GEOMETRIES
    captions_per_image: int = 2
    # share of images whose caption reverses the label order: ambiguity no
    # model can resolve, which caps validation CIDEr at the score of always
    # emitting the canonical (unswapped) caption
    caption_order_noise: float = 0.3

    def validate(self) -> None:
        for f in fields(self):  # the comparisons below let NaN and infinities through
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry must be {' or '.join(GEOMETRIES)}, got {self.geometry!r}")
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


def _caption_for(class_ids: list[int], names: dict[int, str], swap: bool) -> str:
    """Canonical caption of an object set.

    The two lowest class ids present fill the pair template in class-id
    order (not object order, so the target is learnable from an unordered
    object set), reversed for the ``swap`` fraction of images. Without the
    swap the caption is a pure function of the label set. With it, no model
    can tell a swapped image from its canonical twin, so validation CIDEr
    is capped at the score of the canonical captions (836.2 on the
    validation split of the acceptance-matrix data). Runs still reach
    different best scores and stop at different times.
    """
    distinct = sorted(set(class_ids))
    if len(distinct) >= 2:
        first, second = (distinct[1], distinct[0]) if swap else (distinct[0], distinct[1])
        return PAIR_TEMPLATE.format(a=names[first], b=names[second])
    return SINGLE_TEMPLATE.format(a=names[distinct[0]])


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> Dataset:
    """Clustered gaussian object features with template captions.

    Object vectors are class prototype + N(0, spread^2) noise. Every image
    picks one class group and two distinct member classes (a group has at
    least 2, as a spec has at least 3 classes), then
    splits its objects between them, so caption co-occurrence exactly
    mirrors the group structure and every label pair a caption can mention
    is frequent enough to learn; ``geometry`` controls whether prototype
    similarities line up with the co-occurrence. Each image carries
    captions_per_image copies of its canonical caption (every copy is one
    training pair). Deterministic given (spec, seed); splits are a fixed
    80/10/10 cut over images. After the prototypes, each image draws in
    turn its group, object count k, two members, k labels in one call, the
    (k, d) noise, a (k, 4) block of box bounds and the caption swap.
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
        first = int(rng.integers(len(members)))
        second = int(rng.integers(len(members) - 1))
        if second >= first:
            second += 1
        present = np.array([members[first], members[second]])
        labels = present[rng.integers(len(present), size=k)]
        with np.errstate(over="ignore"):  # the dataset's finite check names it
            feats = protos[labels] + spec.spread * rng.standard_normal((k, spec.feature_size))
        boxes = rng.uniform(_BOX_LOW, _BOX_HIGH, size=(k, 4))
        boxes[:, 2:] = np.minimum(boxes[:, :2] + boxes[:, 2:], 1.0)
        swap = bool(rng.random() < spec.caption_order_noise)
        captions = [_caption_for(labels.tolist(), names, swap)] * spec.captions_per_image
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
