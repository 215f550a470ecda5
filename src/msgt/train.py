"""Training, evaluation, and ablation drivers.

Optimization follows the common recipe at desk scale: decoupled-weight-
decay Adam (decay 0.05 on weight matrices only), cosine-annealed learning
rate with linear warmup, cross-entropy with label smoothing. Runs are
fully reproducible from (config, seed) up to the wall-clock column of
metrics.csv.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import model as M
from . import tensor as T
from .checkpoint import save_checkpoint
from .data import load_data
from .errors import ConfigError, ContractError, TrainingDiverged
from .model import ArchConfig, Model
from .tensor import Tensor

METRICS_HEADER = "epoch,step,split,loss,top1,lr,seconds"

MSG_POLICIES = ("learnable", "frozen-random", "rerandomize-at-eval")


@dataclass(frozen=True)
class TrainConfig:
    arch: ArchConfig = field(default_factory=M.micro_config)
    msg_input_policy: str = "learnable"
    base_lr: float = 3e-3
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    total_steps: int = 600
    warmup_steps: int = 50
    min_lr: float = 0.0
    batch_size: int = 16
    label_smoothing: float = 0.1
    eval_interval: int = 100
    seed: int = 0

    def validate(self) -> None:
        if self.warmup_steps < 0:
            raise ConfigError(f"schedule.warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.warmup_steps >= self.total_steps:
            raise ConfigError(
                f"warmup steps {self.warmup_steps} must be below total steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval interval must be >= 1, got {self.eval_interval}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label smoothing must lie in [0, 1), got {self.label_smoothing}")
        if not self.base_lr >= 0.0:  # 0 is allowed: it freezes the weights
            raise ConfigError(f"base learning rate must be >= 0, got {self.base_lr}")
        if not 0.0 <= self.min_lr <= self.base_lr:
            raise ConfigError(f"schedule.min_lr must lie in [0, optimizer.lr {self.base_lr}], got {self.min_lr}")
        if not all(0.0 <= b < 1.0 for b in self.betas):  # beta = 1 divides by 1 - beta**t = 0
            raise ConfigError(f"optimizer.betas must each lie in [0, 1), got {list(self.betas)}")
        if not self.eps > 0.0:
            raise ConfigError(f"optimizer.eps must be > 0, got {self.eps}")
        if self.msg_input_policy not in MSG_POLICIES:
            raise ConfigError(
                f"unknown msg_input_policy {self.msg_input_policy!r}; expected one of {MSG_POLICIES}"
            )
        if self.msg_input_policy == "rerandomize-at-eval" and not self.arch.use_msg:
            raise ConfigError("msg_input_policy 'rerandomize-at-eval' needs a model with messengers")

    def arch_config(self) -> ArchConfig:
        self.arch.validate()
        return self.arch


@dataclass
class MetricsRow:
    epoch: int
    step: int
    split: str
    loss: float
    top1: float
    lr: float
    seconds: float

    def format(self) -> str:
        return (
            f"{self.epoch},{self.step},{self.split},{self.loss:.6f},"
            f"{self.top1:.4f},{self.lr:.8f},{self.seconds:.3f}"
        )


# -- optimizer and schedule -------------------------------------------------------


def cosine_warmup_lr(step: int, cfg: TrainConfig) -> float:
    """Linear ramp over the warmup steps, then cosine decay to min_lr."""
    if step < cfg.warmup_steps:
        return cfg.base_lr * (step + 1) / cfg.warmup_steps
    progress = (step - cfg.warmup_steps) / max(1, cfg.total_steps - cfg.warmup_steps)
    return float(cfg.min_lr + 0.5 * (cfg.base_lr - cfg.min_lr) * (1.0 + np.cos(np.pi * progress)))


def _decays(name: str, tensor: Tensor) -> bool:
    # decay weight matrices and conv kernels; skip norms, biases, the
    # relative-bias group, and the input messenger tokens
    return tensor.data.ndim >= 2 and ".bias." not in name and name != "msg_input"


class AdamW:
    """Adam with decoupled weight decay over named parameters."""

    def __init__(self, named_params, weight_decay, betas, eps):
        self.params = [(n, p) for n, p in named_params if p.requires_grad]
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        lr = float(lr)  # keep numpy scalars from upcasting float32 params
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and _decays(name, p):
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update


# -- losses and metrics -------------------------------------------------------------


def center_images(images: np.ndarray) -> np.ndarray:
    """Map [0, 1] pixels to [-1, 1] before the model.

    The patch-embed conv sees a large common-mode term on uncentered
    inputs, which empirically stalls learning on the texture task. The
    result is a new C-contiguous, writeable array, also for a read-only
    broadcast slice of ``Dataset.images``.
    """
    out = images * 2.0
    out -= 1.0  # in place: one array per batch, the same bits
    return out


def _batch(ds: D.Dataset, idx) -> Tensor:
    """Model input for rows ``idx``: the stored channel gathered and centered, then viewed as RGB."""
    gray = center_images(ds.gray[idx])
    return Tensor(np.broadcast_to(gray, gray.shape[:3] + (3,)))


def cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean smoothed cross-entropy over the batch."""
    n, k = logits.shape
    target = np.full((n, k), smoothing / k, dtype=logits.data.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    logp = T.log_softmax(logits, axis=1)
    return T.mul(T.tsum(T.mul(logp, Tensor(target))), -1.0 / n)


def evaluate(model: Model, ds: D.Dataset, batch_size: int, smoothing: float) -> tuple[float, float]:
    """Mean loss and top-1 accuracy over a dataset, eval mode."""
    losses, hits, seen = 0.0, 0.0, 0
    with T.no_grad():
        for start in range(0, len(ds), batch_size):
            labels = ds.labels[start : start + batch_size]
            logits = M.forward(model, _batch(ds, slice(start, start + batch_size)))
            losses += cross_entropy(logits, labels, smoothing).item() * len(labels)
            hits += (logits.data.argmax(axis=1) == labels).sum()
            seen += len(labels)
    return losses / seen, hits / seen


# -- the training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    metrics_path: str
    checkpoint_path: str
    model: Model
    rows: list[MetricsRow] = field(repr=False)

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]


def check_run(cfg: TrainConfig, spec: D.DatasetSpec) -> None:
    """Reject a run the classification loop cannot score, before any compute or output."""
    cfg.validate()
    arch = cfg.arch_config()
    if arch.task != "cls":
        raise ConfigError(f"task {arch.task!r} has no training or eval loop; use 'cls'")
    if spec.num_classes > arch.num_classes:
        raise ConfigError(
            f"dataset has {spec.num_classes} classes but the model head has {arch.num_classes}"
        )
    if spec.num_val < 1:
        raise ConfigError(f"data.num_val must be >= 1 to score the run, got {spec.num_val}")
    if spec.image_size != arch.input_size:
        raise ConfigError(f"dataset image size {spec.image_size} != model input {arch.input_size}")
    spec.validate()
    if cfg.batch_size > spec.num_train:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds data.num_train {spec.num_train}")


def train(cfg: TrainConfig, data_spec: D.DatasetSpec, out_dir: str) -> TrainResult:
    """Run the full loop; writes metrics.csv and model.ckpt under ``out_dir``."""
    check_run(cfg, data_spec)
    os.makedirs(out_dir, exist_ok=True)
    train_ds, val_ds = load_data(data_spec)

    model = M.build_model(cfg.arch, seed=cfg.seed)
    if cfg.msg_input_policy == "frozen-random" and model.msg_input is not None:
        model.msg_input = Tensor(model.msg_input.data)  # the same draw, kept out of training
    optimizer = AdamW(
        model.named_parameters(), weight_decay=cfg.weight_decay, betas=cfg.betas, eps=cfg.eps
    )
    rng = np.random.default_rng(cfg.seed)

    rows: list[MetricsRow] = []
    start_time = time.perf_counter()
    order = rng.permutation(len(train_ds))
    cursor, epoch = 0, 0
    losses: list[float] = []  # the train steps since the last record
    hits, seen = 0, 0

    for step in range(cfg.total_steps):
        if cursor + cfg.batch_size > len(order):
            order = rng.permutation(len(train_ds))
            cursor = 0
            epoch += 1
        batch_idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        labels = train_ds.labels[batch_idx]
        logits = M.forward(model, _batch(train_ds, batch_idx))
        loss = cross_entropy(logits, labels, cfg.label_smoothing)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(step, f"loss became {loss_val}")
        losses.append(loss_val)
        hits += int((logits.data.argmax(axis=1) == labels).sum())
        seen += len(labels)

        optimizer.zero_grad()
        loss.backward()
        lr = cosine_warmup_lr(step, cfg)
        optimizer.step(lr)

        if (step + 1) % cfg.eval_interval == 0 or step + 1 == cfg.total_steps:
            rows.append(MetricsRow(
                epoch, step + 1, "train", float(np.mean(losses)), hits / seen, lr, time.perf_counter() - start_time
            ))
            vloss, vtop1 = evaluate(model, val_ds, batch_size=cfg.batch_size, smoothing=cfg.label_smoothing)
            rows.append(MetricsRow(epoch, step + 1, "val", vloss, vtop1, lr, time.perf_counter() - start_time))
            losses, hits, seen = [], 0, 0

    if cfg.msg_input_policy == "rerandomize-at-eval":
        # evaluate with re-sampled input messengers, then restore the trained ones
        trained = model.msg_input.data
        M.rerandomize_msg_input(model, seed=cfg.seed + 1)
        vloss, vtop1 = evaluate(model, val_ds, batch_size=cfg.batch_size, smoothing=cfg.label_smoothing)
        model.msg_input.data = trained
        rows.append(MetricsRow(
            epoch, cfg.total_steps, "val-rerandomized", vloss, vtop1, lr, time.perf_counter() - start_time
        ))

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w") as f:
        f.write(METRICS_HEADER + "\n")
        for row in rows:
            f.write(row.format() + "\n")
    checkpoint_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(model, checkpoint_path)
    return TrainResult(metrics_path=metrics_path, checkpoint_path=checkpoint_path, model=model, rows=rows)


# -- ablation driver ------------------------------------------------------------------

# each two-arm mode: its ArchConfig changes against the msg-shuffle baseline
ABLATION_ARMS = {
    "no-msg": dict(use_msg=False, manipulation="none"),
    "msg-noshuffle": dict(manipulation="none"),
    "msg-average": dict(manipulation="average"),
    "msg-shift": dict(manipulation="shift"),
}
ABLATION_MODES = (*ABLATION_ARMS, "msg-shuffle", "rerandomize-input-msg", "shuffle-size-sweep")

SHUFFLE_SIZE_SWEEP = ((2, 2, 2, 1), (4, 2, 2, 1), (4, 4, 2, 1))

REPORT_NOTE = (
    "# desk-scale comparison only: relative effects on the synthetic task; "
    "full-scale classification/detection accuracies, latencies, and their "
    "orderings are out of scope and not reproduced"
)


def _variant_rows(mode: str, cfg: TrainConfig) -> list[tuple[str, TrainConfig]]:
    arch = replace(cfg.arch, use_msg=True, manipulation="shuffle")
    baseline = replace(cfg, arch=arch, msg_input_policy="learnable")

    if mode in ABLATION_ARMS:
        return [("msg-shuffle", baseline), (mode, replace(baseline, arch=replace(arch, **ABLATION_ARMS[mode])))]
    if mode == "msg-shuffle":
        return [("msg-shuffle", baseline)]
    if mode == "rerandomize-input-msg":  # one run, evaluated before and after re-sampling
        return [("rerandomize-base", replace(cfg, msg_input_policy="rerandomize-at-eval"))]
    if mode == "shuffle-size-sweep":
        return [
            ("shuffle-" + "".join(map(str, r)), replace(baseline, arch=M.with_shuffle_sizes(arch, r)))
            for r in SHUFFLE_SIZE_SWEEP
        ]
    raise ConfigError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")


def ablate(mode: str, cfg: TrainConfig, data_spec: D.DatasetSpec, out_dir: str) -> list[dict]:
    """Train/evaluate the configurations named by ``mode`` under a shared seed.

    Emits ``ablation_<mode>.csv`` with one row per variant. Structural
    guarantees: only the named knob changes, and the parameter-count diff
    between variants is part of the report.
    """
    variants = _variant_rows(mode, cfg)
    for _, variant_cfg in variants:  # every variant, before the first one trains
        check_run(variant_cfg, data_spec)
    os.makedirs(out_dir, exist_ok=True)
    results: list[dict] = []
    for name, variant_cfg in variants:
        run = train(variant_cfg, data_spec, os.path.join(out_dir, name))
        counts = M.count_params(run.model)
        if name == "no-msg" and counts["msg_related"]:
            raise ContractError(f"messenger-free variant carries {counts['msg_related']} msg params")
        named = [(name, run.final)]
        if variant_cfg.msg_input_policy == "rerandomize-at-eval":  # trained, then re-sampled
            named = zip(("learned-input-msg", "rerandomized-input-msg"), run.rows[-2:])
        results += [{"variant": v, "loss": row.loss, "top1": row.top1, **counts} for v, row in named]

    path = os.path.join(out_dir, f"ablation_{mode}.csv")
    with open(path, "w") as f:
        f.write(REPORT_NOTE + "\n")
        f.write("variant,loss,top1,params_total,params_msg_input,params_msg_related\n")
        for r in results:
            f.write(
                f"{r['variant']},{r['loss']:.6f},{r['top1']:.4f},"
                f"{r['total']},{r['msg_input']},{r['msg_related']}\n"
            )
    return results
