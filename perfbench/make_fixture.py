"""Rebuild the checkpoint fixture of the eval-checkpoint workload.

    python3 perfbench/make_fixture.py

Trains the acceptance-matrix baseline (data seed 2024, training seed 1,
``max_epochs`` 80, ``patience`` 10) once, through the CLI, to its validation
plateau, then stores ``checkpoint_best.json`` gzip-compressed in
``perfbench/fixture/`` with a ``fixture.json`` that records how it was made.
The benchmark only reads the fixture and never retrains it, so a change to the
training arithmetic cannot change the captions, and with them the decode time,
that eval-checkpoint measures. Rebuilding it changes the benchmark's input;
do so only in a change that redefines the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from groundcap import cli  # noqa: E402

DATA_SEED = 2024
TRAIN_SEED = 1
GENERATE = [
    "generate-data", "--classes", "10", "--images", "500", "--spread", "0.1",
    "--objects-min", "2", "--objects-max", "4", "--feature-size", "32",
    "--captions-per-image", "3", "--seed", str(DATA_SEED),
]
TRAIN = [
    "train", "--hidden-size", "64", "--batch-size", "100", "--min-count", "1",
    "--sample-size", "500", "--max-epochs", "80", "--patience", "10",
    "--seed", str(TRAIN_SEED),
]
CHECKPOINT_FILE = "checkpoint_best.json.gz"


def main() -> int:
    out_dir = HERE / "fixture"
    out_dir.mkdir(exist_ok=True)
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="fixture-", dir=scratch))
    try:
        data, run = work / "data", work / "run"
        if cli.main(GENERATE + ["--out", str(data)]) != 0:
            return 1
        if cli.main(TRAIN + ["--data", str(data), "--out", str(run)]) != 0:
            return 1
        raw = (run / "checkpoint_best.json").read_bytes()
        extra = json.loads(raw)["extra"]
        with open(out_dir / CHECKPOINT_FILE, "wb") as fh:
            with gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
                gz.write(raw)
        lines = (run / "convergence.csv").read_text().splitlines()
        provenance = {
            "checkpoint_file": CHECKPOINT_FILE,
            "checkpoint_sha256": hashlib.sha256(raw).hexdigest(),
            "data_seed": DATA_SEED,
            "commands": [
                "groundcap " + " ".join(GENERATE + ["--out", "DATA"]),
                "groundcap " + " ".join(TRAIN + ["--data", "DATA", "--out", "RUN"]),
            ],
            "blas_threads": 1,
            "best_epoch": extra["epoch"],
            "best_val_cider": extra["val_cider"],
            "epochs_run": int(lines[-1].split(",")[0]),
            "steps_run": len(lines) - 1,
        }
        (out_dir / "fixture.json").write_text(json.dumps(provenance, indent=1) + "\n")
        print(json.dumps(provenance, indent=1))
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
