"""Shared helpers for the model test modules."""

import json
import math
import os
import subprocess
import sys

import numpy as np

from mvrecon import autodiff as ad
from mvrecon.config import IMAGE_CHANNELS, tiny_model_config
from mvrecon.layers import Init

from fd import central_diff_sample


def traced_tiny_benchmark(workload: str) -> dict:
    """Each metric's value from one traced tiny op of a ``benchmark/run.py``
    workload, after checking that the run exits 0 and passes its checks."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, os.path.join(root, "benchmark", "run.py"),
                           "--workload", workload, "--seed", "1", "--trace", "1",
                           "--tiny", "--ops", "1"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    return {k: v["value"] for k, v in result["metrics"].items()}


# the standard library's double erf, elementwise: a GELU oracle that shares no
# code with the one autodiff.gelu calls
erf = np.vectorize(math.erf, otypes=[np.float64])


def nan_weight(model):
    """One NaN in the first backbone convolution's weight."""
    model.backbone.convs[0].weight.data[0, 0] = np.nan


def overflowing_weights(model):
    """Two chained backbone convolutions whose outputs overflow float32."""
    model.backbone.convs[0].weight.data[:] = np.float32(1e20)
    model.backbone.convs[1].weight.data[:] = np.float32(1e20)


WEIGHT_FAULTS = [nan_weight, overflowing_weights]


def tiny64(**overrides):
    overrides.setdefault("dtype", "float64")
    return tiny_model_config(**overrides)


def seeded_init(seed, dtype=np.float32):
    return Init(np.random.default_rng(seed), dtype)


def random_images(seed, batch, views, cfg):
    rng = np.random.default_rng(seed)
    shape = (batch, views, IMAGE_CHANNELS, cfg.image_size, cfg.image_size)
    return rng.random(shape).astype(cfg.np_dtype)


def check_param_grads(params, forward, seed=0, entries=2, tol=1e-4, h=1e-6):
    """FD-check a few entries of every parameter group against backward().

    ``forward`` builds the scalar loss from the current parameter values;
    finite differences re-run it (without taping) at perturbed entries.
    h is smaller than the per-op oracle's because deep compositions have
    much larger third derivatives; float64 keeps round-off harmless.
    """
    loss = forward()
    loss.backward()
    rng = np.random.default_rng(seed)

    def forward_value():
        with ad.no_grad():
            return forward().item()

    failures = []
    for name, p in params.items():
        if p.grad is None:
            failures.append(f"{name}: no gradient populated")
            continue
        k = min(entries, p.size)
        idxs = rng.choice(p.size, size=k, replace=False)
        numeric = central_diff_sample(forward_value, p.data, idxs, h=h)
        analytic = p.grad.reshape(-1)[idxs]
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = float(np.max(np.abs(analytic - numeric) / denom))
        if err >= tol:
            failures.append(f"{name}: rel err {err:.3e}")
    assert not failures, "gradient mismatches:\n" + "\n".join(failures)
    return True


def naive_conv(x, weight, bias, stride=2, pad=1):
    """Loop reference convolution of one [C, H, W] image by an [O, C, k, k]
    weight -> [O, OH, OW]."""
    cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    out = np.zeros((cout, oh, ow), dtype=x.dtype)
    for co in range(cout):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                out[co, i, j] = np.sum(patch * weight[co]) + bias[co]
    return out
