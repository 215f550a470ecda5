"""Command-line entry point.

Subcommands: train, eval, ablate, flops, analyze-comm, gradcheck, gen-data.
Each takes only the options it reads: train, eval, ablate and gen-data read
--config (JSON) and --seed, and all but eval write under --out. Exit code 0
on success, 1 on validation or usage failure, 2 on runtime error.

MSGT_THREADS caps the BLAS thread pools; the package applies it on import,
before numpy is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from typing import Optional

from .errors import ConfigError, ContractError, FormatError, ShapeError

USAGE_EXIT, RUNTIME_EXIT = 1, 2
# an OSError on a path the user gave (--config, --checkpoint, --out, an IDX file) is a usage failure
PATH_ERRORS = {
    FileNotFoundError: "file not found", IsADirectoryError: "is a directory", NotADirectoryError: "not a directory",
    PermissionError: "permission denied", FileExistsError: "file exists",
}
PROBE_MAC_BUDGET = 2**32  # analyze-comm runs no reach probe whose forward costs more


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    from . import model as M

    parser = _Parser(prog="msgt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def config_options(p, out: bool = True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", default="run", help="output directory")
        return p

    config_options(sub.add_parser("train", help="train a model and write metrics + checkpoint"))

    p_eval = config_options(sub.add_parser("eval", help="evaluate a checkpoint on the validation split"), out=False)
    p_eval.add_argument("--checkpoint", required=True)

    p_abl = config_options(sub.add_parser("ablate", help="run an ablation comparison"))
    p_abl.add_argument("--mode", required=True)

    p_flops = sub.add_parser("flops", help="closed-form cost accounting")
    p_flops.add_argument("--window", type=int, default=M.PRESET_WINDOW)
    p_flops.add_argument("--dim", type=int, default=384)
    p_flops.add_argument("--arch", default=None, help="also report model totals for a preset")

    p_comm = sub.add_parser("analyze-comm", help="receptive fields and information flow")
    p_comm.add_argument("--window", type=int, default=M.PRESET_WINDOW)
    p_comm.add_argument("--shuffle", type=int, default=M.CLS_SHUFFLES[0])

    p_gc = sub.add_parser("gradcheck", help="64-bit finite-difference verification")
    p_gc.add_argument("--full-model", action="store_true", help="include the micro-model sweep")

    config_options(sub.add_parser("gen-data", help="write the synthetic dataset as IDX files"))
    return parser


# -- config handling ---------------------------------------------------------------


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")


# JSON key -> TrainConfig field, per config section ("" is the top level); the
# "data" section holds DatasetSpec fields under their own names
_TRAIN_KEYS = {
    "": {k: k for k in ("msg_input_policy", "batch_size", "label_smoothing", "eval_interval", "seed")},
    "optimizer": {"lr": "base_lr", "weight_decay": "weight_decay", "betas": "betas", "eps": "eps"},
    "schedule": {k: k for k in ("total_steps", "warmup_steps", "min_lr")},
}
_ARCH_OVERRIDES = ("num_classes", "task", "input_size", "use_msg", "manipulation", "window_size")  # ArchConfig fields
_STAGE_KEYS = ("dim", "heads", "blocks")  # StageConfig.dim, num_heads, num_blocks


def _object(value, prefix: str, known) -> dict:
    """``value`` as a JSON object whose keys are all ``known``."""
    unknown = set(_coerce(value, {}, prefix.rstrip(".") or "config")) - set(known)
    if unknown:
        raise ConfigError(f"unknown config key {prefix + min(unknown)!r}; expected one of {sorted(known)}")
    return value


def _coerce(value, like, key: str):
    """``value`` as the type of ``like``: numbers convert only without loss, a tuple takes a list."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if isinstance(like, tuple) and isinstance(value, list) and len(value) == len(like):
        return tuple(_coerce(v, d, f"{key}[{i}]") for i, (v, d) in enumerate(zip(value, like)))
    if type(value) is type(like) or {type(value), type(like)} <= {int, float}:
        with contextlib.suppress(ValueError, OverflowError):
            if type(like)(value) == value:
                return type(like)(value)
    expected = f"a list of {len(like)} values" if isinstance(like, tuple) else type(like).__name__
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def parse_config(raw: dict, seed_override: Optional[int]):
    """Build (TrainConfig, DatasetSpec) from the JSON schema.

    Top-level keys: arch, stages[], window_size, shuffle_sizes[], input_size,
    num_classes, task, use_msg, manipulation, msg_input_policy, optimizer{},
    schedule{}, batch_size, label_smoothing, eval_interval, data{}, seed.
    Omitted keys take the TrainConfig, DatasetSpec or preset defaults, with data.image_size,
    data.num_classes and data.seed following the run; unknown or mistyped keys raise ConfigError.
    """
    from . import model as M
    from .data import DatasetSpec
    from .train import TrainConfig

    arch_keys = ("arch", "stages", "shuffle_sizes", *_ARCH_OVERRIDES)
    top = _object(raw, "", (*arch_keys, *_TRAIN_KEYS[""], "optimizer", "schedule", "data"))
    default = TrainConfig()

    def get(key, like):
        return _coerce(top[key], like, key) if key in top else like

    num_classes, task = get("num_classes", default.arch.num_classes), get("task", default.arch.task)
    arch = default.arch
    if "stages" in top:
        stages = []
        for i, (entry, shuffle) in enumerate(zip(get("stages", ({},) * M.NUM_STAGES), M.CLS_SHUFFLES)):
            entry = _object(entry, f"stages[{i}].", _STAGE_KEYS)
            dim, heads, blocks = (_coerce(entry.get(k), 0, f"stages[{i}].{k}") for k in _STAGE_KEYS)
            stages.append(M.StageConfig(dim, heads, blocks, shuffle))
        arch = M.ArchConfig(tuple(stages), M.PRESET_INPUT_SIZE, num_classes, task)
    elif "arch" in top:
        arch = M.preset_config(get("arch", ""), num_classes=num_classes, task=task)
    arch = replace(arch, **{k: get(k, getattr(arch, k)) for k in _ARCH_OVERRIDES})
    arch = M.with_shuffle_sizes(arch, get("shuffle_sizes", tuple(s.shuffle_size for s in arch.stages)))

    values = {} if seed_override is None else {"seed": seed_override}
    for name, keys in _TRAIN_KEYS.items():
        section = _object(raw.get(name, {}), f"{name}.", keys) if name else top
        for key in keys.keys() & section.keys():
            value = _coerce(section[key], getattr(default, keys[key]), f"{name}.{key}".lstrip("."))
            values.setdefault(keys[key], value)
    train_cfg = TrainConfig(arch=arch, **values)

    data = _object(raw.get("data", {}), "data.", [f.name for f in fields(DatasetSpec)])
    spec = replace(DatasetSpec(), image_size=arch.input_size, num_classes=num_classes, seed=train_cfg.seed)
    return train_cfg, replace(spec, **{k: _coerce(v, getattr(spec, k), f"data.{k}") for k, v in data.items()})


# -- commands -----------------------------------------------------------------------


def _cmd_train(args) -> int:
    from .train import train

    cfg, data_spec = parse_config(load_config(args.config), args.seed)
    result = train(cfg, data_spec, args.out)
    print(f"wrote {result.metrics_path} and {result.checkpoint_path}")
    print(f"final: {result.final.format()}")
    return 0


def _cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint
    from .train import check_run, evaluate, load_data

    cfg, data_spec = parse_config(load_config(args.config), args.seed)
    check_run(cfg, data_spec)
    model = load_checkpoint(args.checkpoint, cfg.arch)  # before the val split is rendered
    _, val_ds = load_data(data_spec)
    loss, top1 = evaluate(model, val_ds, cfg.batch_size, cfg.label_smoothing)
    print(f"val loss {loss:.6f}  top1 {top1:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    from .train import ablate

    cfg, data_spec = parse_config(load_config(args.config), args.seed)
    results = ablate(args.mode, cfg, data_spec, args.out)
    print("variant,loss,top1,params_total")
    for r in results:
        print(f"{r['variant']},{r['loss']:.6f},{r['top1']:.4f},{r['total']}")
    print("note: desk-scale comparison only; full-scale results are not reproduced")
    return 0


def _cmd_flops(args) -> int:
    from . import complexity as C
    from . import model as M

    w, ch = args.window, args.dim
    ratio = C.flops_ratio(w, ch)  # rejects a window or width that is not positive
    print(f"per-window block cost, window {w} x {w}, {ch} channels:")
    print(f"  without messenger token: {C.flops_block(1, w, ch, with_msg=False)} MACs")
    print(f"  with messenger token:    {C.flops_block(1, w, ch)} MACs")
    print(f"  increase ratio: {ratio.numerator}/{ratio.denominator} ≈ {float(ratio) * 100:.4f}%")
    print(f"  exact increase ratio: {float(C.flops_ratio_exact(w, ch)) * 100:.4f}%")
    if args.arch:
        report = C.model_flops(M.preset_config(args.arch))
        print(f"model totals for {args.arch}:")
        print(f"  attention+mlp: {report['attention_mlp']}")
        print(f"    of which the messenger-only final block: {report['final_block']}")
        print(f"  convs (macs):  {report['conv_macs']}")
        print(f"  head:          {report['head']}")
        print(f"  total (macs):  {report['total_macs']}")
        print(f"  total (convs at 2 flops/mac): {report['total_flops_conv2x']}")
    return 0


def _cmd_analyze_comm(args) -> int:
    from . import complexity as C
    from .analysis import information_reach

    w, s = args.window, args.shuffle
    swin = C.receptive_field(C.SWIN_SHIFT, w)
    msg = C.receptive_field(C.MSG_SHUFFLE, w, s)
    print("receptive field after two attention computations:")
    print(f"  window shifting:    {float(swin):g}")
    print(f"  messenger shuffle:  {float(msg):g} (shuffle size {s})")
    if s == 1:
        print("shuffle size 1 exchanges nothing between windows, so there is nothing to check")
        return 0
    if 2 * C.flops_block(s * s, w, s * s) > PROBE_MAC_BUDGET:  # two blocks over S*S windows of S*S channels
        print(f"reach probe skipped: a {s}x{s} region of window {w} costs over {PROBE_MAC_BUDGET} MACs per forward")
        return 0
    reached = information_reach(s, "shuffle", window=w)
    print(f"reach probe (stage 1, window {w}, one head, a {s}x{s} region), perturbation reach after two blocks: "
          f"{int(reached.sum())}/{reached.size} windows")
    confined = information_reach(s, "none", window=w)
    print(f"with exchange disabled: {int(confined.sum())}/{confined.size} windows")
    if not reached.all() or confined.sum() != 1:
        print("information-flow check FAILED")
        return USAGE_EXIT
    print("information-flow check passed")
    return 0


def _cmd_gradcheck(args) -> int:
    from .analysis import block_grad_check, model_grad_check, single_op_grad_checks

    op_errors = single_op_grad_checks()
    width = max(map(len, [*op_errors, "micro model"]))
    failures = []

    def report(name: str, err: float, bound: float) -> None:
        ok = err < bound
        if not ok:
            failures.append(name)
        print(f"  {name:<{width}} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")

    for name, err in sorted(op_errors.items()):
        report(name, err, 1e-6)
    report("block", block_grad_check(), 1e-4)
    report("block_no_msg", block_grad_check(use_msg=False), 1e-4)
    report("block_msg_only", block_grad_check(msg_only=True), 1e-4)
    if args.full_model:
        report("micro model", model_grad_check(), 1e-3)
    if failures:
        print(f"gradient check FAILED: {', '.join(failures)}")
        return USAGE_EXIT
    print("all gradient checks passed")
    return 0


def _cmd_gen_data(args) -> int:
    import numpy as np

    from .data import save_idx, synthetic_rows

    _, data_spec = parse_config(load_config(args.config), args.seed)
    labels, rows = synthetic_rows(data_spec)  # checks the spec, renders nothing yet
    os.makedirs(args.out, exist_ok=True)
    images_u8 = np.round(rows(0, len(labels))[..., 0] * 255.0).astype(np.uint8)
    images_path = os.path.join(args.out, "textures-images.idx3-ubyte")
    labels_path = os.path.join(args.out, "textures-labels.idx1-ubyte")
    save_idx(images_u8, labels, images_path, labels_path)
    print(f"wrote {len(labels)} images to {images_path}")
    print(f"wrote labels to {labels_path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "flops": _cmd_flops,
    "analyze-comm": _cmd_analyze_comm,
    "gradcheck": _cmd_gradcheck,
    "gen-data": _cmd_gen_data,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        parser.print_usage()
        return USAGE_EXIT
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage()
            return USAGE_EXIT
        try:
            return _COMMANDS[args.command](args)
        except (ConfigError, ContractError, FormatError, ShapeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        except tuple(PATH_ERRORS) as exc:
            print(f"error: {PATH_ERRORS[type(exc)]}: {exc.filename}", file=sys.stderr)
            return USAGE_EXIT
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
