"""Layer spans for the traced benchmark run, installed from outside the program.

Each traced layer is a public function of ``groundcap``. The tracer replaces
it in the module namespace where its caller looks it up (``training.
batch_forward`` for the training step, ``analysis.greedy_decode`` for
``split_cider``, ``kernels.lstm_gates_forward`` for the autodiff ops, ...), so
the program itself carries no hooks. ``uninstall`` puts every original back,
which lets one process alternate traced and untraced iterations.

A span records its name, start, end and parent; spans live in memory and are
folded into per-layer statistics after each iteration. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). The attribute is patched in the module
# whose code calls it, which is why some functions appear twice.
SPANS = (
    ("groundcap.cli", "load_dataset", "data.load_dataset"),
    ("groundcap.cli", "analyze", "analysis.analyze"),
    ("groundcap.training", "load_checkpoint", "model.load_checkpoint"),
    ("groundcap.training", "save_checkpoint", "model.save_checkpoint"),
    ("groundcap.training", "batch_forward", "model.batch_forward"),
    ("groundcap.training", "greedy_decode", "model.greedy_decode"),
    ("groundcap.analysis", "greedy_decode", "model.greedy_decode"),
    ("groundcap.autodiff", "backward", "autodiff.backward"),
    ("groundcap.autodiff", "lstm_cell", "autodiff.lstm_cell"),
    ("groundcap.autodiff", "attend", "autodiff.attend"),
    ("groundcap.kernels", "lstm_gates_forward", "kernels.lstm_gates_forward"),
    ("groundcap.kernels", "lstm_gates_backward", "kernels.lstm_gates_backward"),
    ("groundcap.kernels", "pair_cosines_forward", "kernels.pair_cosines_forward"),
    ("groundcap.kernels", "pair_cosines_backward", "kernels.pair_cosines_backward"),
    ("groundcap.kernels", "lcs_length", "kernels.lcs_length"),
    ("groundcap.training", "build_projection_pool", "losses.build_projection_pool"),
    ("groundcap.training", "sample_triplets", "losses.sample_triplets"),
    ("groundcap.training", "sample_pairs", "losses.sample_pairs"),
    ("groundcap.training", "cluster_loss", "losses.cluster_loss"),
    ("groundcap.training", "perceptual_loss", "losses.perceptual_loss"),
    ("groundcap.training", "Adam.step", "training.adam"),
    ("groundcap.training", "clip_global_norm", "training.clip"),
    ("groundcap.training", "split_cider", "training.val_decode"),
    ("groundcap.training", "metric_table", "metrics.metric_table"),
    ("groundcap.metrics", "cider", "metrics.cider"),
    ("groundcap.analysis", "cider", "metrics.cider"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def _count_tokens(counters, args, kwargs, result):
    counters["model.decoded_tokens"] += len(result)


def _checkpoint_size(counters, args, kwargs, result):
    counters["model.checkpoint_bytes"] = os.path.getsize(args[1])


def _pool_size(counters, args, kwargs, result):
    counters["pool_sizes"].append(result.size)


def _sampler(prefix):
    def observe(counters, args, kwargs, result):
        counters[prefix + "_draws"] += args[1]
        counters[prefix + "_valid"] += len(result[0])

    return observe


def _clipped(counters, args, kwargs, result):
    counters["clip_steps"] += 1
    counters["clipped_steps"] += result > args[1]


# Counts taken at the span boundaries, from each call's arguments and result.
OBSERVERS = {
    "model.greedy_decode": _count_tokens,
    "model.save_checkpoint": _checkpoint_size,
    "losses.build_projection_pool": _pool_size,
    "losses.sample_triplets": _sampler("triplet"),
    "losses.sample_pairs": _sampler("pair"),
    "training.clip": _clipped,
}


class Tracer:
    """In-memory span recorder with per-layer self-time statistics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, tensors_in, tensors_out]
        self.stack: list[int] = []
        self.tensors = 0  # groundcap.autodiff.Tensor constructions while installed
        self.counters: dict = defaultdict(int, pool_sizes=[])
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.incl_ns: dict[str, list[int]] = defaultdict(list)
        self.span_tensors: dict[str, int] = defaultdict(int)
        self.nesting_violations = 0
        self.iterations = 0
        self.total_spans = 0
        self.first_iteration: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.tensors, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()
        rec[5] = self.tensors

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a CLI call."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

        tensor = importlib.import_module("groundcap.autodiff").Tensor
        original_init = tensor.__init__
        tracer = self

        def counting_init(obj, data):
            tracer.tensors += 1
            original_init(obj, data)

        self._patches.append((tensor, "__init__", original_init))
        tensor.__init__ = counting_init

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- folding -----------------------------------------------------------

    def end_iteration(self) -> None:
        """Fold this iteration's spans into the per-layer statistics."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open at the end of an iteration")
        spans = self.spans
        children_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                children_ns[rec[3]] += rec[2] - rec[1]
        origin = spans[0][1] if spans else 0
        for idx, rec in enumerate(spans):
            name = rec[0]
            incl = rec[2] - rec[1]
            own = incl - children_ns[idx]
            if own < 0:
                self.nesting_violations += 1
            self.self_ns[name].append(own)
            self.incl_ns[name].append(incl)
            self.span_tensors[name] += rec[5] - rec[4]
            if self.iterations == 0:
                self.first_iteration.append(
                    {
                        "id": idx,
                        "parent": rec[3],
                        "name": name,
                        "start_us": (rec[1] - origin) / 1e3,
                        "dur_us": incl / 1e3,
                        "self_us": own / 1e3,
                    }
                )
        self.total_spans += len(spans)
        self.iterations += 1
        self.spans = []

    def calls(self, name: str) -> float:
        """Calls per traced iteration."""
        return len(self.self_ns.get(name, ())) / max(self.iterations, 1)

    def median_self_ms(self, name: str) -> float:
        values = self.self_ns.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def median_incl_ms(self, name: str) -> float:
        values = self.incl_ns.get(name)
        return statistics.median(values) / 1e6 if values else 0.0
