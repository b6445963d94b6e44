"""The checkpoint writer as it was before the arrays were encoded with
orjson: the oracle for ``groundcap.model.save_checkpoint``.

``save_checkpoint`` here builds the whole payload, every array as a Python
list, and hands it to ``json.dumps(payload, sort_keys=True)``. The writer in
``groundcap.model`` must write the same bytes for every checkpoint of finite
parameters. This one writes the literal ``NaN`` or ``Infinity`` for a
non-finite entry, which no reader accepts.
"""

from __future__ import annotations

import json
from pathlib import Path

from groundcap.data import write_atomic
from groundcap.model import CHECKPOINT_VERSION, ModelParams


def save_checkpoint(params: ModelParams, path: Path, extra: dict | None = None) -> None:
    """Write the checkpoint JSON atomically: a kill or a failed write leaves
    any previous checkpoint at ``path`` intact."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model": {
            "vocab_size": params.config.vocab_size,
            "feature_size": params.config.feature_size,
            "hidden_size": params.config.hidden_size,
            "att_size": params.config.att_size,
        },
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in sorted(params.arrays.items())
        },
    }
    if extra:
        payload["extra"] = extra
    write_atomic(path, json.dumps(payload, sort_keys=True))
