"""Spans around mvrecon's public functions, installed from the benchmark.

``Tracer.install`` replaces each function or method in ``TARGETS`` with a
wrapper that records a span: its name, start, end, the span that was open
when it began, and the unit of work (set-up repetition or timed op) it
belongs to.  A few spans also record the memory malloc has handed out, on
entry and exit, or the bytes the call wrote or read.  Spans stay in memory;
``per_layer`` turns them into per-op figures and ``dump`` writes them out.
Nothing inside ``mvrecon`` changes; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import time
from collections import defaultdict

from mvrecon import (autodiff, checkpoint, datagen, decoder, encoder, evaluation,
                     layers, model, refiner, training, voxels, voxio)

from reference import median, self_times

_MB = 1024.0 * 1024.0


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


_mallinfo2 = ctypes.CDLL(None).mallinfo2
_mallinfo2.restype = _MallInfo2


def heap_bytes() -> int:
    """Bytes malloc has handed out and not taken back (glibc ``mallinfo2``).

    The resident set size would not do: it barely moves after the first
    op, because glibc keeps freed pages resident and hands them out again.
    """
    info = _mallinfo2()
    return info.uordblks + info.hblkhd


# (span name, owner, attribute, what else to record).  "mem" records
# heap_bytes() on entry and exit; "out", "in" and "file" record the bytes
# written or read.  The owner is the namespace the caller looks the name up
# in: ``training`` imports ``sgd_step`` by name, ``evaluation`` imports the
# metrics and ``occlude``, and the training loop takes its loss from
# ``voxels.LOSS_FUNCTIONS``.
TARGETS = (
    ("model.forward", model.MultiViewReconstructor, "forward", "mem"),
    ("encoder.backbone", encoder.ViewBackbone, "__call__", None),
    ("encoder.attention", encoder.MultiViewEncoder, "__call__", None),
    ("decoder.forward", decoder.VolumeDecoder, "__call__", None),
    ("refiner.forward", refiner.VolumeRefiner, "__call__", None),
    ("layers.attention", layers.MultiHeadAttention, "__call__", None),
    ("layers.feedforward", layers.FeedForward, "__call__", None),
    ("autodiff.matmul", autodiff, "matmul", None),
    ("autodiff.gelu", autodiff, "gelu", None),
    ("autodiff.softmax", autodiff, "softmax", None),
    ("autodiff.im2col", autodiff, "im2col", None),
    ("autodiff.layer_norm", autodiff, "layer_norm", None),
    ("autodiff.backward", autodiff, "backward", "mem"),
    ("autodiff.sgd", training, "sgd_step", None),
    ("voxels.loss", voxels.LOSS_FUNCTIONS, "total", "mem"),
    ("training.sample_batch", training, "sample_batch", None),
    ("evaluation.reconstruct", evaluation, "reconstruct_objects", None),
    ("datagen.occlude", evaluation, "occlude", None),
    ("voxels.iou", evaluation, "metric_iou", None),
    ("voxels.fscore", evaluation, "metric_fscore", None),
    ("checkpoint.save", checkpoint, "save_checkpoint", "file"),
    ("checkpoint.load", checkpoint, "load_checkpoint", None),
    ("datagen.gen_object", datagen, "gen_object", None),
    ("datagen.render_views", datagen, "render_views", None),
    ("datagen.save_dataset", datagen, "save_dataset", None),
    ("datagen.load_dataset", datagen, "load_dataset", None),
    ("voxio.write_pgm", voxio, "write_pgm", "out"),
    ("voxio.read_pgm", voxio, "read_pgm", "in"),
    ("voxio.write_binvox", voxio, "write_binvox", "out"),
    ("voxio.read_binvox", voxio, "read_binvox", "in"),
)

# Spans whose _ms figure the benchmark reports; model.forward only feeds
# the memory figures and the nesting.
TIMED = tuple(name for name, *_ in TARGETS if name != "model.forward")
COUNTED = ("layers.attention", "autodiff.matmul", "autodiff.gelu",
           "autodiff.softmax", "autodiff.im2col", "autodiff.layer_norm")

# name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {f"{name}_ms": ("ms", "lower") for name in TIMED}
PER_LAYER.update({f"{name}_calls": ("count", "lower") for name in COUNTED})
PER_LAYER.update({
    "checkpoint.bytes": ("bytes", "lower"),
    "voxio.bytes": ("bytes", "lower"),
    "model.forward_rss_mb": ("MB", "lower"),
    "model.backward_rss_mb": ("MB", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
})


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        # [name, start, end, parent, unit, before, after]; before/after hold
        # heap bytes on entry and exit, or (after) the bytes written or read.
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn, extra: str | None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if extra == "mem":
                rec[5] = heap_bytes()
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if extra == "mem":
                rec[6] = heap_bytes()
            elif extra == "out":
                rec[6] = len(result)
            elif extra == "in":
                rec[6] = len(args[0])
            elif extra == "file":
                rec[6] = os.path.getsize(args[0])
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            return
        for name, owner, attr, extra in TARGETS:
            original = _get(owner, attr)
            self._originals.append((owner, attr, original))
            _set(owner, attr, self._wrap(name, original, extra))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            _set(owner, attr, original)
        self._originals.clear()

    # --- summaries ---

    def _by_unit(self) -> tuple[dict, dict]:
        """unit -> name -> [self seconds, calls, bytes], and unit -> the
        largest heap growth across one forward (+ loss) and one backward."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        units: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        growth: dict = defaultdict(lambda: {"forward": 0, "backward": 0})
        forward_entry = None
        for rec, t in zip(self.spans, own):
            name, unit = rec[0], rec[4]
            acc = units[unit][name]
            acc[0] += t
            acc[1] += 1
            if name.startswith(("voxio.", "checkpoint.")):
                acc[2] += rec[6]
            # forward growth runs from forward entry to the end of the loss
            # that follows it, or to forward exit when no loss follows
            g = growth[unit]
            if name == "model.forward":
                forward_entry = rec[5]
                g["forward"] = max(g["forward"], rec[6] - rec[5])
            elif name == "voxels.loss" and forward_entry is not None:
                g["forward"] = max(g["forward"], rec[6] - forward_entry)
            elif name == "autodiff.backward":
                g["backward"] = max(g["backward"], rec[6] - rec[5])
        return units, growth

    def per_layer(self, op_units: list, setup_units: list, overhead_ms: float) -> dict:
        """Every per-layer metric.  A layer that runs in the timed ops is
        the median over those ops; one that runs only in set-up is the
        median over set-up repetitions; one that never runs reads 0."""
        units, growth = self._by_unit()

        def pick(field, names):
            for group in (op_units, setup_units):
                if any(n in units[u] for u in group for n in names):
                    return median([sum(units[u][n][field] for n in names if n in units[u])
                                   for u in group])
            return 0

        out = {}
        for name in TIMED:
            out[f"{name}_ms"] = pick(0, (name,)) * 1000.0
        for name in COUNTED:
            out[f"{name}_calls"] = pick(1, (name,))
        out["checkpoint.bytes"] = pick(2, ("checkpoint.save",))
        out["voxio.bytes"] = pick(2, [n for n in TIMED if n.startswith("voxio.")])
        for kind in ("forward", "backward"):
            values = [growth[u][kind] for u in op_units] or [0]
            out[f"model.{kind}_rss_mb"] = median(values) / _MB
        out["trace.overhead_ms"] = overhead_ms
        return {k: (out[k], PER_LAYER[k][0]) for k in PER_LAYER}

    def dump(self, path: str) -> None:
        """Write every span, with its self time, as JSON."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        keys = ("name", "start", "end", "parent", "unit", "before", "after")
        rows = [dict(zip(keys, rec), self=t) for rec, t in zip(self.spans, own)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
