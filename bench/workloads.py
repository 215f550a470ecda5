"""The three benchmark workloads: train-micro, eval-micro and tiny-256.

Each workload is driven by ``run.py`` in a closed loop with one client.
``setup`` makes the inputs from the seed, builds the model and runs the
warm-up; ``step`` runs one timed step and returns its checkable output;
``check_step`` and ``final_checks`` return failure messages, so the
driver can count failures against attempts.

Every public call into msgt goes through the module attribute
(``M.forward``, ``TR.cross_entropy``), so the span tracer sees it.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time

import numpy as np

from msgt import checkpoint as CK
from msgt import complexity as C
from msgt import data as D
from msgt import model as M
from msgt import tensor as T
from msgt import train as TR

# float32 logits must match a float64 forward of the same weights within
# FP64_RTOL * max(1, max |float64 logit|); measured drift is about 1e-6.
FP64_RTOL = 1e-4

# Input sizes of the tiny preset that validate() accepts (see the
# ROADMAP's shuffle item); each is probed once, untimed.
PROBE_SIZES = (160, 176, 192, 288)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _float64_copy(model: M.Model) -> M.Model:
    wide = copy.deepcopy(model)
    for _, p in wide.named_parameters():
        p.data = p.data.astype(np.float64)
    wide.dtype = np.float64
    return wide


def _logits_match_float64(model: M.Model, images: np.ndarray) -> list[str]:
    with T.no_grad():
        narrow = M.forward(model, T.Tensor(images), mode="eval").data
        wide = M.forward(_float64_copy(model), T.Tensor(images.astype(np.float64)), mode="eval").data
    err = float(np.abs(narrow.astype(np.float64) - wide).max())
    tol = FP64_RTOL * max(1.0, float(np.abs(wide).max()))
    if not err <= tol:
        return [f"float32 logits differ from float64 by {err:.3g} > {tol:.3g}"]
    return []


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Workload:
    name = ""
    batch = 1
    arch: M.ArchConfig
    input_size = 0

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir

    def macs_per_image(self) -> int:
        return C.model_flops(self.arch, self.input_size)["total_macs"]

    def stage_of_channels(self) -> dict[int, int]:
        return {s.dim: i for i, s in enumerate(self.arch.stages, start=1)}

    def setup(self) -> dict:
        """One set-up: inputs, model, warm-up. Returns timings and the output digest."""
        raise NotImplementedError

    def step(self, tracer=None):
        raise NotImplementedError

    def check_step(self, out) -> list[str]:
        raise NotImplementedError

    def final_checks(self) -> dict[str, list[str]]:
        raise NotImplementedError

    def probe(self) -> dict:
        return {}


def _span(tracer, name):
    return tracer.open(name, layer=name) if tracer is not None else None


def _end(tracer, rec):
    if tracer is not None:
        tracer.close(rec)


class _Micro(Workload):
    """The micro preset with the ``msgt train`` defaults, on 128 px textures."""

    batch = 16

    def __init__(self, seed, scratch_dir):
        super().__init__(seed, scratch_dir)
        self.cfg = TR.TrainConfig(seed=seed, batch_size=self.batch)
        self.arch = self.cfg.arch_config()
        self.input_size = self.arch.input_size
        self.data_spec = D.DatasetSpec(image_size=self.input_size, seed=seed)


class TrainMicro(_Micro):
    """Micro preset, 128 px textures, batch 16: forward, loss, backward, AdamW."""

    name = "train-micro"
    warmup_steps = 3

    def setup(self):
        (self.train_ds, self.val_ds), gen_s = _timed(TR.load_data, self.data_spec)
        self.model, build_s = _timed(M.build_model, self.arch, self.seed)
        self.optimizer = TR.AdamW(
            self.model.named_parameters(),
            weight_decay=self.cfg.weight_decay, betas=self.cfg.betas, eps=self.cfg.eps,
        )
        self.rng = np.random.default_rng(self.seed)
        self.order = self.rng.permutation(len(self.train_ds))
        self.cursor = 0
        self.step_index = 0
        losses = [self.step() for _ in range(self.warmup_steps)]
        return {"data.generate_s": gen_s, "model.build_s": build_s, "digest": _digest(losses)}

    def step(self, tracer=None):
        rec = _span(tracer, "train.batch")
        if self.cursor + self.batch > len(self.order):
            self.order = self.rng.permutation(len(self.train_ds))
            self.cursor = 0
        idx = self.order[self.cursor : self.cursor + self.batch]
        self.cursor += self.batch
        images = T.Tensor(TR.center_images(self.train_ds.images[idx]))
        labels = self.train_ds.labels[idx]
        _end(tracer, rec)
        logits = M.forward(self.model, images, mode="train", rng=self.rng)
        loss = TR.cross_entropy(logits, labels, self.cfg.label_smoothing)
        rec = _span(tracer, "train.optimizer")
        self.optimizer.zero_grad()
        _end(tracer, rec)
        loss.backward()
        rec = _span(tracer, "train.optimizer")
        self.optimizer.step(TR.cosine_warmup_lr(self.step_index, self.cfg))
        _end(tracer, rec)
        self.step_index += 1
        return loss.data.copy()

    def check_step(self, loss):
        return [] if np.isfinite(loss).all() else [f"loss is {loss}"]

    def _val_logits(self, model):
        with T.no_grad():
            return [
                M.forward(model, T.Tensor(TR.center_images(self.val_ds.images[s : s + self.batch]))).data
                for s in range(0, len(self.val_ds), self.batch)
            ]

    def final_checks(self):
        val = TR.center_images(self.val_ds.images[: self.batch])
        os.makedirs(self.scratch_dir, exist_ok=True)
        path = os.path.join(self.scratch_dir, f"{self.name}-seed{self.seed}.ckpt")
        try:
            CK.save_checkpoint(self.model, path)
            reloaded = CK.load_checkpoint(path, self.arch)
        finally:
            if os.path.exists(path):
                os.remove(path)
        same = all(
            np.array_equal(a, b) for a, b in zip(self._val_logits(self.model), self._val_logits(reloaded))
        )
        return {
            "float64": _logits_match_float64(self.model, val),
            "checkpoint": [] if same else ["reloaded checkpoint gives different eval logits"],
        }


class EvalMicro(_Micro):
    """The micro model under no_grad over the 128-image val split, batch 16, repeated."""

    name = "eval-micro"

    def setup(self):
        (_, self.val_ds), gen_s = _timed(TR.load_data, self.data_spec)
        self.model, build_s = _timed(M.build_model, self.arch, self.seed)
        self.batches = len(self.val_ds) // self.batch
        self.step_index = 0
        self.reference = [self.step()[0] for _ in range(self.batches)]
        return {"data.generate_s": gen_s, "model.build_s": build_s, "digest": _digest(self.reference)}

    def step(self, tracer=None):
        k = self.step_index % self.batches
        self.step_index += 1
        rec = _span(tracer, "train.batch")
        sl = slice(k * self.batch, (k + 1) * self.batch)
        images = T.Tensor(TR.center_images(self.val_ds.images[sl]))
        labels = self.val_ds.labels[sl]
        _end(tracer, rec)
        with T.no_grad():
            logits = M.forward(self.model, images, mode="eval")
            loss = TR.cross_entropy(logits, labels)
        return logits.data, loss.data, k

    def check_step(self, out):
        logits, loss, k = out
        if not (np.isfinite(logits).all() and np.isfinite(loss).all()):
            return ["non-finite logits or loss"]
        if not np.array_equal(logits, self.reference[k]):
            return [f"batch {k} logits differ from the warm-up pass"]
        return []

    def final_checks(self):
        val = TR.center_images(self.val_ds.images[: self.batch])
        return {"float64": _logits_match_float64(self.model, val)}


class Tiny256(Workload):
    """Tiny preset (cls), batch 1 at 256x256, forward only."""

    name = "tiny-256"
    batch = 1
    num_images = 2

    def __init__(self, seed, scratch_dir):
        super().__init__(seed, scratch_dir)
        self.arch = M.tiny_config()
        self.input_size = 256

    def setup(self):
        spec = D.DatasetSpec(image_size=self.input_size, num_train=4, num_val=0, seed=self.seed)
        ds, gen_s = _timed(D.generate_synthetic, spec)
        self.images = TR.center_images(ds.images[: self.num_images])
        self.model, build_s = _timed(M.build_model, self.arch, self.seed)
        self.step_index = 0
        self.reference = [self.step()[0] for _ in range(self.num_images)]
        return {"data.generate_s": gen_s, "model.build_s": build_s, "digest": _digest(self.reference)}

    def step(self, tracer=None):
        k = self.step_index % self.num_images
        self.step_index += 1
        with T.no_grad():
            logits = M.forward(self.model, T.Tensor(self.images[k : k + 1]), mode="eval")
        return logits.data, k

    def check_step(self, out):
        logits, k = out
        if not np.isfinite(logits).all():
            return ["non-finite logits"]
        if not np.array_equal(logits, self.reference[k]):
            return [f"image {k} logits differ from the warm-up pass"]
        return []

    def final_checks(self):
        return {"float64": _logits_match_float64(self.model, self.images[:1])}

    def probe(self):
        """Untimed forwards at the probe sizes; counts the sizes that raise."""
        errors = {}
        for size in PROBE_SIZES:
            x = np.zeros((1, size, size, 3), dtype=np.float32)
            try:
                with T.no_grad():
                    M.forward(self.model, T.Tensor(x), mode="eval")
            except Exception as exc:  # the probe reports any failure by type
                errors[str(size)] = f"{type(exc).__name__}: {exc}"
        return {"sizes_failed": len(errors), "size_errors": errors}


WORKLOADS = {w.name: w for w in (TrainMicro, EvalMicro, Tiny256)}
