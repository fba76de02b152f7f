"""The four benchmark workloads and their correctness checks.

Each workload has ``make`` (inputs and model, timed for set-up), ``run``
(the warm-up op, then timed ops until the clock says stop), ``check``
(run once, outside the timed ops) and ``digest`` (a hash of its outputs,
for determinism tests).  ``tiny=True`` shrinks every size for smoke tests.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np

from mvrecon import checkpoint, config, datagen, evaluation, model, training, voxels
from mvrecon import autodiff as ad

import reference

# Model weights for eval-desk come from a fixed seed, not from --seed.
EVAL_WEIGHT_SEED = 2205
# Finite-difference step, as the expected loss change h * |grad|.
FD_LOSS_STEP = 1e-3
# Relative tolerances, justified in README.md.
LOSS_RTOL = 1e-5
FD_RTOL = 0.02
METRIC_ATOL = 1e-9


class _Stop(Exception):
    """Raised from the training-loop callback when the clock runs out."""


def _dataset_seed(seed: int, salt: int) -> int:
    return int(np.random.default_rng([seed, salt]).integers(1 << 30))


class TrainWorkload:
    """Iterations of ``training.train``: forward, loss_total, backward, SGD."""

    def __init__(self, seed: int, preset: str, batch: int, n_objects: int,
                 voxel_side: int, image_size: int):
        self.seed = seed
        self.preset = preset
        self.batch = batch
        self.n_objects = n_objects
        self.voxel_side = voxel_side
        self.image_size = image_size
        self.items_per_op = batch
        self.check_ops = 1  # check() runs one more train step
        self.losses: list[float] = []
        self.notes: dict = {}

    def make(self) -> None:
        self.model = self.dataset = None
        self.dataset = datagen.build_dataset(
            self.n_objects, self.voxel_side, self.image_size,
            seed=_dataset_seed(self.seed, 1))
        mcfg = config.MODEL_PRESETS[self.preset]()
        self.cfg = config.TrainConfig(model=mcfg, batch_size=self.batch,
                                      views_per_sample=8, epochs=1 << 30,
                                      seed=self.seed)
        self.model = model.MultiViewReconstructor(mcfg, seed=self.seed)

    def run(self, clock) -> None:
        def progress(iteration, value, lr):
            self.losses.append(value)
            if not clock.lap():
                raise _Stop

        try:
            training.train(self.model, self.dataset, self.cfg, log_every=1,
                           progress=progress)
        except _Stop:
            pass

    def check(self) -> list[str]:
        failures = []
        cfg, net = self.cfg, self.model
        lr = cfg.learning_rate(0)
        rng = np.random.default_rng([self.seed, 0xc4ec])
        images, targets = training.sample_batch(
            self.dataset.split("train")[:self.batch], cfg, rng)

        named = list(net.named_params())
        picked = sorted(rng.choice(len(named), size=min(8, len(named)), replace=False))
        before = {named[i][0]: named[i][1].data.copy() for i in picked}
        captured = {}
        forward = net.forward

        def capture(x):
            out = forward(x)
            captured["refined"] = out.refined.data.copy()
            return out

        net.forward = capture
        try:
            value = training.train_step(net, images, targets, cfg, lr)
        finally:
            del net.forward
        self.losses.append(value)

        expected = reference.total_loss(targets, captured["refined"])
        if abs(value - expected) > LOSS_RTOL * max(1.0, abs(expected)):
            failures.append(f"train_step loss {value!r} vs reference {expected!r}")
        params = dict(named)
        for name, old in before.items():
            p = params[name]
            if not np.array_equal(p.data, old - p.dtype.type(lr) * p.grad):
                failures.append(f"{name}: update is not p - lr * grad")

        # Undo the step, then compare the gradient with a central difference
        # of the loss along the gradient direction.
        for _, p in named:
            if p.grad is not None:
                p.data += p.dtype.type(lr) * p.grad
        fd, predicted = directional_difference(net, images, targets, cfg)
        if abs(fd - predicted) > FD_RTOL * abs(predicted):
            failures.append(f"finite difference {fd!r} vs gradient {predicted!r}")
        self.notes = {"check_loss": value,
                      "fd_relative_error": abs(fd - predicted) / abs(predicted)}
        return failures

    def digest(self) -> str:
        return hashlib.sha256(np.asarray(self.losses, np.float64).tobytes()).hexdigest()


def directional_difference(net, images, targets, cfg) -> tuple[float, float]:
    """(L(x + d) - L(x - d), grad . 2d) for d along the stored gradient.

    Parameters move in place and the float32 displacement actually applied
    is what the gradient is dotted with, so rounding of x +- d does not
    count as gradient error.  Parameters are left near, not at, x.
    """
    named = [(n, p) for n, p in net.named_params() if p.grad is not None]
    norm = np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for _, p in named))
    h = FD_LOSS_STEP / norm

    def loss_at() -> float:
        with ad.no_grad():
            out = net.forward(images.astype(cfg.model.np_dtype))
            return voxels.loss_total(targets.astype(cfg.model.np_dtype),
                                     out.refined).item()

    def move(sign: float) -> float:
        """Step every parameter by sign * h * grad; return grad . step."""
        dot = 0.0
        for _, p in named:
            moved = p.data + p.dtype.type(sign * h) * p.grad
            dot += float(np.vdot(p.grad, moved - p.data))
            p.data = moved
        return dot

    move(1.0)
    loss_up = loss_at()
    down = move(-2.0)
    loss_down = loss_at()
    return loss_up - loss_down, -down


class EvalWorkload:
    """One op: ``evaluate`` over the default view counts, then the centre
    occlusion sweep at 12 views, on a model loaded from a checkpoint."""

    def __init__(self, seed: int, preset: str, n_objects: int, voxel_side: int,
                 image_size: int, scratch: str):
        self.seed = seed
        self.preset = preset
        self.n_objects = n_objects
        self.voxel_side = voxel_side
        self.image_size = image_size
        self.scratch = scratch
        self.check_ops = 0  # check() judges the last timed op
        self.reports: list = []
        self.notes: dict = {}

    def make(self) -> None:
        self.model = self.dataset = None
        self.dataset = datagen.build_dataset(
            self.n_objects, self.voxel_side, self.image_size,
            seed=_dataset_seed(self.seed, 2))
        self.n_test = len(self.dataset.split("test"))
        n_scored = len(evaluation.DEFAULT_VIEW_COUNTS) + len(datagen.OCCLUSION_BOX_SIZES)
        self.items_per_op = self.n_test * n_scored
        mcfg = config.MODEL_PRESETS[self.preset]()
        os.makedirs(self.scratch, exist_ok=True)
        path = os.path.join(self.scratch, "weights.ckpt")
        checkpoint.save_checkpoint(path, model.MultiViewReconstructor(mcfg, seed=EVAL_WEIGHT_SEED))
        self.model = model.MultiViewReconstructor(mcfg, seed=0)
        checkpoint.load_checkpoint(path, self.model)

    def run(self, clock) -> None:
        while True:
            report = evaluation.evaluate(self.model, self.dataset)
            report.occlusion = evaluation.occlusion_sweep(self.model, self.dataset,
                                                          mode="center", n_views=12)
            self.reports.append(report)
            if not clock.lap():
                return

    def check(self) -> list[str]:
        """Recompute per-object IoU and F-score for two sampled view counts
        from one-object reconstructions, by brute force."""
        failures = []
        shutil.rmtree(self.scratch, ignore_errors=True)
        fresh = model.MultiViewReconstructor(self.model.cfg, seed=EVAL_WEIGHT_SEED)
        for (name, p), (_, q) in zip(fresh.named_params(), self.model.named_params()):
            if not np.array_equal(p.data, q.data):
                failures.append(f"loaded weights differ from saved at {name}")
                break
        report = self.reports[-1]
        rng = np.random.default_rng([self.seed, 0xe7a1])
        counts = rng.choice(evaluation.DEFAULT_VIEW_COUNTS, size=2, replace=False)
        objects = self.dataset.split("test")
        tau = 1.0 / self.dataset.voxel_side
        thr = voxels.DEFAULT_THRESHOLD
        for k in sorted(int(c) for c in counts):
            ious, fs, slack_iou, slack_f = [], [], 0.0, 0.0
            for obj in objects:
                vol = self.model.reconstruct(obj.views[:k]).values
                truth, pred = obj.grid >= 0.5, vol >= thr
                ious.append(reference.iou(truth, pred))
                fs.append(reference.fscore(truth, pred, tau))
                # Batched and one-object forwards differ by ~1e-6; a voxel
                # that close to the threshold may binarise either way.
                near = int(np.count_nonzero(np.abs(vol - thr) < 1e-5))
                slack_iou += 2 * near / max(1, np.count_nonzero(truth | pred) - near)
                slack_f += 16 * near / max(1, min(truth.sum(), pred.sum()) - near)
            got = report.result_for(k)
            n = len(objects)
            if abs(np.mean(ious) - got.mean_iou) > METRIC_ATOL + slack_iou / n:
                failures.append(f"{k} views: IoU {got.mean_iou!r} vs {np.mean(ious)!r}")
            if abs(np.mean(fs) - got.mean_fscore) > METRIC_ATOL + slack_f / n:
                failures.append(f"{k} views: F {got.mean_fscore!r} vs {np.mean(fs)!r}")
        self.notes = {f"iou_{k}_views": report.result_for(k).mean_iou
                      for k in evaluation.DEFAULT_VIEW_COUNTS}
        return failures

    def digest(self) -> str:
        values = [(r.mean_iou, r.mean_fscore) for rep in self.reports
                  for r in rep.view_counts + rep.occlusion]
        return hashlib.sha256(np.asarray(values, np.float64).tobytes()).hexdigest()


class SynthWorkload:
    """One op: build a nine-object dataset (one per category), save it as
    PGM views and binvox grids, and load it back."""

    def __init__(self, seed: int, voxel_side: int, image_size: int, scratch: str):
        self.seed = seed
        self.voxel_side = voxel_side
        self.image_size = image_size
        self.scratch = scratch
        self.items_per_op = len(datagen.CATEGORIES)
        self.check_ops = 0  # check() judges the last timed op
        self.notes: dict = {}

    def make(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run(self, clock) -> None:
        while True:
            self.built = self.loaded = None  # keep one op's datasets alive, not two
            self.built = datagen.build_dataset(
                self.items_per_op, self.voxel_side, self.image_size,
                seed=_dataset_seed(self.seed, 1000))
            datagen.save_dataset(self.built, self.scratch)
            self.loaded = datagen.load_dataset(self.scratch)
            if not clock.lap():
                return

    def check(self) -> list[str]:
        """The last op's loaded dataset equals the built one; grids and
        silhouettes are non-empty; view values lie on the 1/255 grid."""
        failures = []
        shutil.rmtree(self.scratch, ignore_errors=True)
        a, b = self.built, self.loaded
        meta = ("voxel_side", "image_size", "n_views", "elevation_deg")
        if any(getattr(a, f) != getattr(b, f) for f in meta) or len(a.objects) != len(b.objects):
            failures.append("loaded dataset header differs from the built one")
        for x, y in zip(a.objects, b.objects):
            same = ((x.object_id, x.category, x.seed, x.split)
                    == (y.object_id, y.category, y.seed, y.split)
                    and np.array_equal(x.grid, y.grid) and np.array_equal(x.views, y.views))
            if not same:
                failures.append(f"{x.object_id}: loaded object differs from built")
            if not x.grid.any():
                failures.append(f"{x.object_id}: empty grid")
            if not x.views[:, 0].reshape(len(x.views), -1).any(axis=1).all():
                failures.append(f"{x.object_id}: a view has an empty silhouette")
            steps = x.views.astype(np.float64) * 255.0
            if np.abs(steps - np.rint(steps)).max() > 1e-3 or steps.min() < 0 or steps.max() > 255:
                failures.append(f"{x.object_id}: view values off the 1/255 grid")
        return failures

    def digest(self) -> str:
        h = hashlib.sha256()
        for obj in self.loaded.objects:
            h.update(obj.grid.tobytes())
            h.update(obj.views.tobytes())
        return h.hexdigest()


def make_workload(name: str, seed: int, tiny: bool, scratch: str):
    """The named workload at full size, or shrunk to smoke-test size."""
    if name == "train-paper":
        if tiny:
            return TrainWorkload(seed, "tiny", 2, 9, 8, 32)
        return TrainWorkload(seed, "paper", 2, 9, 32, 224)
    if name == "train-desk":
        if tiny:
            return TrainWorkload(seed, "tiny", 32, 45, 8, 32)
        return TrainWorkload(seed, "desk", 32, 45, 16, 64)
    if name == "eval-desk":
        if tiny:
            return EvalWorkload(seed, "tiny", 40, 8, 32, scratch)
        return EvalWorkload(seed, "desk", 40, 16, 64, scratch)
    if name == "synth-paper":
        if tiny:
            return SynthWorkload(seed, 8, 32, scratch)
        return SynthWorkload(seed, 32, 224, scratch)
    raise KeyError(name)


WORKLOADS = ("train-paper", "train-desk", "eval-desk", "synth-paper")
