"""Command-line entry point.

Subcommands: train, eval, ablate, flops, analyze-comm, gradcheck, gen-data.
All commands accept --config (JSON), --seed, and --out; exit code 0 on
success, 1 on validation failure, 2 on runtime error.

Heavy imports happen inside ``main`` so that MSGT_THREADS can cap the BLAS
thread pools before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

USAGE_EXIT, RUNTIME_EXIT = 1, 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _apply_thread_cap() -> None:
    cap = os.environ.get("MSGT_THREADS")
    if not cap:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def build_parser() -> _Parser:
    parser = _Parser(prog="msgt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="run", help="output directory")

    common(sub.add_parser("train", help="train a model and write metrics + checkpoint"))

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_abl = sub.add_parser("ablate", help="run an ablation comparison")
    common(p_abl)
    p_abl.add_argument("--mode", required=True)

    p_flops = sub.add_parser("flops", help="closed-form cost accounting")
    common(p_flops)
    p_flops.add_argument("--window", type=int, default=7)
    p_flops.add_argument("--dim", type=int, default=384)
    p_flops.add_argument("--arch", default=None, help="also report model totals for a preset")

    p_comm = sub.add_parser("analyze-comm", help="receptive fields and information flow")
    common(p_comm)
    p_comm.add_argument("--window", type=int, default=7)
    p_comm.add_argument("--shuffle", type=int, default=4)

    p_gc = sub.add_parser("gradcheck", help="64-bit finite-difference verification")
    common(p_gc)
    p_gc.add_argument("--full-model", action="store_true", help="include the micro-model sweep")

    common(sub.add_parser("gen-data", help="write the synthetic dataset as IDX files"))
    return parser


# -- config handling ---------------------------------------------------------------


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")


def parse_config(raw: dict, seed_override: Optional[int] = None):
    """Build (TrainConfig, DatasetSpec) from the JSON schema.

    Top-level keys: arch, stages[], window_size, shuffle_sizes[], input_size,
    num_classes, task, use_msg, manipulation, msg_input_policy, optimizer{},
    schedule{}, batch_size, label_smoothing, eval_interval, data{}, seed.
    """
    from . import model as M
    from .data import DatasetSpec
    from .train import TrainConfig

    seed = seed_override if seed_override is not None else int(raw.get("seed", 0))
    num_classes = int(raw.get("num_classes", 4))

    if "stages" in raw:
        window = int(raw.get("window_size", 7))
        shuffles = raw.get("shuffle_sizes") or [4, 4, 2, 1]
        stages = tuple(
            M.StageConfig(
                dim=int(s["dim"]),
                num_heads=int(s["heads"]),
                num_blocks=int(s["blocks"]),
                shuffle_size=int(r),
                window_size=window,
            )
            for s, r in zip(raw["stages"], shuffles)
        )
        arch = M.ArchConfig(
            stages=stages,
            input_size=int(raw.get("input_size", 224)),
            num_classes=num_classes,
            task=raw.get("task", "cls"),
        )
    else:
        arch = raw.get("arch", "micro")
        if "task" in raw or "input_size" in raw:
            preset = M.preset_config(arch, num_classes, raw.get("task", "cls"))
            arch = replace(preset, input_size=int(raw.get("input_size", preset.input_size)))

    optimizer = raw.get("optimizer", {})
    schedule = raw.get("schedule", {})
    train_cfg = TrainConfig(
        arch=arch,
        num_classes=num_classes,
        use_msg=bool(raw.get("use_msg", True)),
        manipulation=raw.get("manipulation", "shuffle"),
        msg_input_policy=raw.get("msg_input_policy", "learnable"),
        shuffle_sizes=tuple(raw["shuffle_sizes"]) if "shuffle_sizes" in raw and "stages" not in raw else None,
        base_lr=float(optimizer.get("lr", 3e-3)),
        weight_decay=float(optimizer.get("weight_decay", 0.05)),
        betas=tuple(optimizer.get("betas", (0.9, 0.999))),
        eps=float(optimizer.get("eps", 1e-8)),
        total_steps=int(schedule.get("total_steps", 600)),
        warmup_steps=int(schedule.get("warmup_steps", 50)),
        min_lr=float(schedule.get("min_lr", 0.0)),
        batch_size=int(raw.get("batch_size", 16)),
        label_smoothing=float(raw.get("label_smoothing", 0.1)),
        eval_interval=int(raw.get("eval_interval", 100)),
        seed=seed,
    )

    data_raw = raw.get("data", {})
    data_spec = DatasetSpec(
        source=data_raw.get("source", "synthetic-textures"),
        image_size=int(data_raw.get("image_size", 128)),
        num_classes=int(data_raw.get("num_classes", num_classes)),
        num_train=int(data_raw.get("num_train", 512)),
        num_val=int(data_raw.get("num_val", 128)),
        seed=int(data_raw.get("seed", seed)),
        noise_sigma=float(data_raw.get("noise_sigma", 0.1)),
        images_path=data_raw.get("images_path", ""),
        labels_path=data_raw.get("labels_path", ""),
    )
    return train_cfg, data_spec


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
    from .train import check_task_data, evaluate, load_data

    cfg, data_spec = parse_config(load_config(args.config), args.seed)
    arch = cfg.arch_config()
    check_task_data(arch, data_spec)
    _, val_ds = load_data(data_spec)
    model = load_checkpoint(args.checkpoint, arch)
    loss, top1 = evaluate(model, val_ds, cfg.batch_size)
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
    spec_no = C.ComplexitySpec(w, w, w, ch, with_msg=False)
    spec_yes = C.ComplexitySpec(w, w, w, ch, with_msg=True)
    ratio = C.flops_ratio(w, ch)
    print(f"per-window block cost, window {w} x {w}, {ch} channels:")
    print(f"  without messenger token: {C.flops_block(spec_no)} MACs")
    print(f"  with messenger token:    {C.flops_block(spec_yes)} MACs")
    print(f"  increase ratio: {ratio.numerator}/{ratio.denominator} ≈ {float(ratio) * 100:.4f}%")
    print(f"  exact increase ratio: {float(C.flops_ratio_exact(w, ch)) * 100:.4f}%")
    if args.arch:
        if args.arch not in M.PRESETS:
            raise _UsageError(f"unknown arch preset {args.arch!r}")
        report = C.model_flops(M.PRESETS[args.arch]())
        print(f"model totals for {args.arch}:")
        print(f"  attention+mlp: {report['attention_mlp']}")
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
    grid = min(s, 3)
    reached = information_reach(
        window_size=2, region_size=grid, grid=(grid, grid), channels=2 * grid * grid,
        num_heads=1, num_blocks=2, mode="shuffle", seed=0,
    )
    print(f"perturbation reach over a {grid}x{grid} region after two blocks: "
          f"{int(reached.sum())}/{reached.size} windows")
    confined = information_reach(
        window_size=2, region_size=grid, grid=(grid, grid), channels=2 * grid * grid,
        num_heads=1, num_blocks=2, mode="none", seed=0,
    )
    print(f"with exchange disabled: {int(confined.sum())}/{confined.size} windows")
    if not reached.all() or confined.sum() != 1:
        print("information-flow check FAILED")
        return USAGE_EXIT
    print("information-flow check passed")
    return 0


def _cmd_gradcheck(args) -> int:
    from .analysis import block_grad_check, model_grad_check, single_op_grad_checks

    failures = []
    op_errors = single_op_grad_checks()
    for name, err in sorted(op_errors.items()):
        status = "ok" if err < 1e-6 else "FAIL"
        if err >= 1e-6:
            failures.append(name)
        print(f"  {name:<14} max rel err {err:.3e}  {status}")
    block_err = block_grad_check()
    print(f"  {'block':<14} max rel err {block_err:.3e}  {'ok' if block_err < 1e-4 else 'FAIL'}")
    if block_err >= 1e-4:
        failures.append("block")
    if args.full_model:
        model_err = model_grad_check(max_entries_per_param=3)
        print(f"  {'micro model':<14} max rel err {model_err:.3e}  {'ok' if model_err < 1e-3 else 'FAIL'}")
        if model_err >= 1e-3:
            failures.append("micro model")
    if failures:
        print(f"gradient check FAILED: {', '.join(failures)}")
        return USAGE_EXIT
    print("all gradient checks passed")
    return 0


def _cmd_gen_data(args) -> int:
    import numpy as np

    from .data import generate_synthetic, save_idx

    _, data_spec = parse_config(load_config(args.config), args.seed)
    ds = generate_synthetic(data_spec)
    os.makedirs(args.out, exist_ok=True)
    images_u8 = np.round(ds.images[..., 0] * 255.0).astype(np.uint8)
    images_path = os.path.join(args.out, "textures-images.idx3-ubyte")
    labels_path = os.path.join(args.out, "textures-labels.idx1-ubyte")
    save_idx(images_u8, ds.labels, images_path, labels_path)
    print(f"wrote {len(ds)} images to {images_path}")
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
    _apply_thread_cap()
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
        from .errors import ConfigError, ContractError, FormatError, ShapeError

        try:
            return _COMMANDS[args.command](args)
        except (ConfigError, ContractError, FormatError, ShapeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
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
