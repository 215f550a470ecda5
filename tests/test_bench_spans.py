"""Smoke test of the benchmark's span tracer (``bench/spans.py``, read, never changed here).

``bench/run.py --trace 1`` wraps the package's public functions by name and
books their spans into layers. A change in ``src/`` that breaks that
tracing fails here, in Tier-1, rather than on the next benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from msgt import blocks, tensor, train, windows
from msgt import model as M

LAYERS = ("windows.region_view", "windows.pad_crop", "windows.partition", "blocks.s1.msg")


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("msgt_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_micro_train_step_books_the_window_and_exchange_layers():
    spans = _load_spans()
    cfg = train.TrainConfig(seed=0, batch_size=2)
    arch = cfg.arch_config()
    model = M.build_model(arch, seed=0)
    optimizer = train.AdamW(model.named_parameters(), weight_decay=cfg.weight_decay, betas=cfg.betas, eps=cfg.eps)
    rng = np.random.default_rng(0)
    images = tensor.Tensor(rng.standard_normal((2, arch.input_size, arch.input_size, 3)).astype(np.float32))
    mods = {"tensor": tensor, "windows": windows, "blocks": blocks, "model": M, "train": train}
    originals = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = spans.Tracer(mods, {s.dim: i for i, s in enumerate(arch.stages, start=1)})
    tracer.step = 0
    tracer.install()
    try:
        root = tracer.open("step", layer="step")
        logits = M.forward(model, images, mode="train", rng=rng)
        loss = train.cross_entropy(logits, np.array([0, 1]), cfg.label_smoothing)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step(train.cosine_warmup_lr(0, cfg))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == originals  # every wrapper removed

    layer_names = np.asarray(tracer.names)[tracer.arrays()["layer"]]
    for layer in LAYERS:
        assert (layer_names == layer).sum() > 0, f"no span landed in {layer}"
    metrics = spans.per_layer_metrics(tracer, steps=1, images=2)
    for metric in ("windows.region_view.ms", "windows.pad_crop.fwd_ms", "windows.partition.ms", "blocks.s1.msg.fwd_ms"):
        assert metrics[metric][0] > 0, metric
    assert np.isfinite(loss.data) and all(np.isfinite(p.grad).all() for p in model.parameters())
