"""Outside-in span tracing for the msgt benchmark.

``Tracer.install`` replaces the public functions of ``msgt.tensor``,
``msgt.windows``, ``msgt.blocks``, ``msgt.model`` and ``msgt.train`` with
timing wrappers by ``setattr`` on the module. The package resolves module
attributes at call time (``T.conv2d``, ``W.partition_windows``, and the
module-global calls inside ``tensor``), so the wrappers see every call.
When a tensor op returns a node with a backward closure, the closure is
wrapped too, and the backward span is tagged with the layer that ran the
forward. ``Tracer.uninstall`` restores the originals.

Each span records name, start, end, parent span, step id and layer. Spans
stay in memory; ``write`` stores them once, at the end of the run.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

_ns = time.perf_counter_ns

# Span record fields; a record is a list so the wrapper can fill in the end.
# COUNT is the work a span did: MACs for matmul/conv2d, tokens for windows.
NAME, START, END, PARENT, STEP, LAYER, COUNT, BWD = range(8)

# Counter readers the driver calls inside a traced step; they are not layers.
_SKIP = {"partition_call_count", "reset_partition_call_count"}
_MSG_FUNCS = {"blocks.attach_msg", "blocks.detach_msg", "blocks.manipulate_msg"}
_FIXED_LAYERS = {
    "model.forward": "model.forward",
    "model.patch_embed": "model.patch_embed",
    "windows.partition_windows": "windows.partition",
    "windows.reverse_windows": "windows.reverse",
    "windows.build_region_view": "windows.region_view",
    "windows.pad_to_window_multiple": "windows.pad_crop",
    "windows.crop_to": "windows.pad_crop",
    "blocks.bias_matrix": "blocks.bias_matrix",
    "train.cross_entropy": "train.loss",
    "train.center_images": "train.batch",
    "tensor.Tensor.backward": "tensor.backward",
}


def _public_functions(module):
    return [
        (name, fn)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and name not in _SKIP
    ]


class Tracer:
    """Records spans around calls into the msgt layers while installed.

    ``stage_of_channels`` maps a stage's channel count to its 1-based
    index; block and merge spans are attributed to a stage by the channel
    count of the tokens they receive.
    """

    def __init__(self, modules, stage_of_channels: dict[int, int]):
        self.modules = modules  # short name -> module, e.g. {"tensor": T, ...}
        self.stage_of_channels = dict(stage_of_channels)
        self.records: list[list] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._block_phase: dict[int, list] = {}  # block span -> [stage, layer_norms seen]
        self._saved: list[tuple[object, str, object]] = []
        self.step = -1

    # -- interning ---------------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- spans the benchmark opens itself ------------------------------------

    def open(self, name: str, layer: str | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        lid = self.intern(layer if layer is not None else self._inherit(parent))
        rec = [self.intern(name), 0, 0, parent, self.step, lid, 0, False]
        self._stack.append(len(self.records))
        self.records.append(rec)
        rec[START] = _ns()
        return rec

    def close(self, rec: list) -> None:
        """End ``rec`` and any span a raising call left open inside it."""
        rec[END] = _ns()
        while self._stack and self.records[self._stack.pop()] is not rec:
            pass

    def _inherit(self, parent: int) -> str:
        return self.names[self.records[parent][LAYER]] if parent >= 0 else "other"

    # -- layer attribution -----------------------------------------------------

    def _layer_for(self, qual: str, args, parent: int) -> str:
        fixed = _FIXED_LAYERS.get(qual)
        if fixed is not None:
            return fixed
        if qual == "blocks.block_forward":
            stage = self.stage_of_channels[args[0].channels]
            return f"blocks.s{stage}.attn"
        if qual == "windows.merge_tokens":
            return f"windows.merge{self.stage_of_channels[args[0].channels]}"
        phase = self._block_phase.get(parent)
        if phase is None:
            return self._inherit(parent)
        # A direct child of block_forward: messenger plumbing is "msg";
        # everything up to the second layer norm is "attn", the rest "mlp".
        stage = phase[0]
        if qual in _MSG_FUNCS:
            return f"blocks.s{stage}.msg"
        if qual == "tensor.layer_norm":
            phase[1] += 1
        return f"blocks.s{stage}.{'attn' if phase[1] <= 1 else 'mlp'}"

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, qual: str, fn, tensor_cls=None):
        tracer = self
        records, stack = self.records, self._stack
        name_id = self.intern(qual)
        is_block = qual == "blocks.block_forward"
        is_op = qual.startswith("tensor.") and tensor_cls is not None
        count_of = _COUNTS.get(qual)

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            layer = tracer._layer_for(qual, args, parent)
            lid = tracer.intern(layer)
            idx = len(records)
            rec = [name_id, 0, 0, parent, tracer.step, lid, 0, False]
            records.append(rec)
            stack.append(idx)
            if is_block:
                tracer._block_phase[idx] = [tracer.stage_of_channels[args[0].channels], 0]
            rec[START] = _ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = _ns()
                stack.pop()
                if is_block:
                    del tracer._block_phase[idx]
            if count_of is not None:
                rec[COUNT] = count_of(args, out)
            if is_op and isinstance(out, tensor_cls):
                bwd = out._backward
                if bwd is not None and not getattr(bwd, "_traced", False):
                    out._backward = tracer._wrap_backward(bwd, qual, lid)
            return out

        return wrapped

    def _wrap_backward(self, fn, qual: str, layer_id: int):
        tracer = self
        records, stack = self.records, self._stack
        name_id = self.intern(qual + ".bwd")

        def backward(g):
            parent = stack[-1] if stack else -1
            rec = [name_id, 0, 0, parent, tracer.step, layer_id, 0, True]
            stack.append(len(records))
            records.append(rec)
            rec[START] = _ns()
            try:
                fn(g)
            finally:
                rec[END] = _ns()
                stack.pop()

        backward._traced = True
        return backward

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tensor_cls = self.modules["tensor"].Tensor
        for short, module in self.modules.items():
            for name, fn in _public_functions(module):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{short}.{name}", fn, tensor_cls))
        original = tensor_cls.backward
        self._saved.append((tensor_cls, "backward", original))
        setattr(tensor_cls, "backward", self._wrap("tensor.Tensor.backward", original))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- output --------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        recs = self.records
        cols = list(zip(*recs)) if recs else [()] * 8
        return {
            "name": np.asarray(cols[NAME], dtype=np.int32),
            "start_ns": np.asarray(cols[START], dtype=np.int64),
            "end_ns": np.asarray(cols[END], dtype=np.int64),
            "parent": np.asarray(cols[PARENT], dtype=np.int64),
            "step": np.asarray(cols[STEP], dtype=np.int64),
            "layer": np.asarray(cols[LAYER], dtype=np.int32),
            "count": np.asarray(cols[COUNT], dtype=np.int64),
            "backward": np.asarray(cols[BWD], dtype=bool),
        }

    def write(self, path: str) -> None:
        """Store all spans as one ``.npz``; ``names`` resolves name and layer ids."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _matmul_macs(args, out) -> int:
    return int(out.data.size) * int(args[0].data.shape[-1])


def _conv_macs(args, out) -> int:
    kh, kw, cin, _ = args[1].data.shape
    return int(out.data.size) * kh * kw * cin


def _padded_tokens(args, out) -> int:
    fm, (h, w) = out
    b, hp, wp, _ = fm.tokens.shape
    return b * (hp * wp - h * w)


def _partitioned_tokens(args, out) -> int:
    b, gh, gw, n, _ = out.windows.shape
    return b * gh * gw * n


_COUNTS = {
    "tensor.matmul": _matmul_macs,
    "tensor.conv2d": _conv_macs,
    "windows.pad_to_window_multiple": _padded_tokens,
    "windows.partition_windows": _partitioned_tokens,
}


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus the durations of its children."""
    dur = arrays["end_ns"] - arrays["start_ns"]
    child = np.zeros_like(dur)
    parent = arrays["parent"]
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


# -- per-layer metrics ---------------------------------------------------------------

OPS = ("matmul", "conv2d", "gelu", "softmax", "layer_norm", "gather_last", "getitem", "concat")
NUM_STAGES = 4


def per_layer_metrics(tracer: Tracer, steps: int, images: int) -> dict[str, tuple[float, str]]:
    """Per-step layer times (ms, mean over traced steps) and per-image counts.

    A layer's time is the self time of every span tagged with it, forward
    or backward as named. ``trace.coverage_ratio`` is the sum of the layer
    times that partition a step over the traced step time.
    """
    a = tracer.arrays()
    self_ns = self_times(a)
    dur = a["end_ns"] - a["start_ns"]
    bwd = a["backward"]
    ids = tracer._name_ids

    def is_name(name):
        return a["name"] == ids.get(name, -1)

    def in_layers(pred):
        return np.isin(a["layer"], [i for n, i in ids.items() if pred(n)])

    def is_layer(layer):
        return a["layer"] == ids.get(layer, -1)

    def ms(mask, values=self_ns):
        return float(values[mask].sum()) / 1e6 / steps

    out: dict[str, tuple[float, str]] = {}
    # Layer times whose sum is a step, less the backward of the head and loss.
    parts: list[str] = []

    def layer_ms(metric, mask, part=True):
        out[metric] = (ms(mask), "ms")
        if part:
            parts.append(metric)

    for op in OPS:
        out[f"tensor.{op}.fwd_ms"] = (ms(is_name(f"tensor.{op}")), "ms")
        out[f"tensor.{op}.bwd_ms"] = (ms(is_name(f"tensor.{op}.bwd")), "ms")
    layer_ms("tensor.backward.self_ms", is_name("tensor.Tensor.backward"))
    children = np.bincount(a["parent"][a["parent"] >= 0], minlength=len(dur))
    op_ids = [
        i for n, i in ids.items()
        if n.startswith("tensor.") and n != "tensor.Tensor.backward" and not n.endswith(".bwd")
    ]
    leaf_ops = np.isin(a["name"], op_ids) & (children == 0)
    out["tensor.ops"] = (float(leaf_ops.sum()) / steps, "count")
    gemm = is_name("tensor.matmul") | is_name("tensor.conv2d")
    macs = int(a["count"][gemm].sum())
    out["tensor.macs"] = (macs / steps, "MAC")
    gemm_ns = float(self_ns[gemm].sum())
    out["tensor.gmacs_per_s"] = (macs / gemm_ns if gemm_ns else 0.0, "GMAC/s")

    for part in ("partition", "reverse", "region_view"):
        layer_ms(f"windows.{part}.ms", is_layer(f"windows.{part}"))
    layer_ms("windows.pad_crop.fwd_ms", is_layer("windows.pad_crop") & ~bwd)
    padded = int(a["count"][is_name("windows.pad_to_window_multiple")].sum())
    tokens = int(a["count"][is_name("windows.partition_windows")].sum())
    out["windows.padded_token_ratio"] = (padded / (tokens - padded) if tokens else 0.0, "ratio")
    for k in range(1, NUM_STAGES):
        layer_ms(f"windows.merge{k}.fwd_ms", is_layer(f"windows.merge{k}") & ~bwd)
        layer_ms(f"windows.merge{k}.bwd_ms", is_layer(f"windows.merge{k}") & bwd)
    forwards = int(is_name("model.forward").sum())
    calls = int(is_name("windows.partition_windows").sum())
    out["windows.partition_calls"] = (calls / forwards if forwards else 0.0, "count")

    for s in range(1, NUM_STAGES + 1):
        for sub in ("attn", "msg", "mlp"):
            layer = is_layer(f"blocks.s{s}.{sub}")
            layer_ms(f"blocks.s{s}.{sub}.fwd_ms", layer & ~bwd)
            layer_ms(f"blocks.s{s}.{sub}.bwd_ms", layer & bwd)
        stage = in_layers(lambda n, s=s: n.startswith(f"blocks.s{s}."))
        out[f"blocks.s{s}.macs"] = (int(a["count"][gemm & stage].sum()) / images, "MAC")
    layer_ms("blocks.bias_matrix.fwd_ms", is_layer("blocks.bias_matrix") & ~bwd)
    layer_ms("blocks.bias_matrix.bwd_ms", is_layer("blocks.bias_matrix") & bwd)

    embed = is_layer("model.patch_embed")
    layer_ms("model.patch_embed.fwd_ms", embed & ~bwd)
    layer_ms("model.patch_embed.bwd_ms", embed & bwd)
    out["model.patch_embed.macs"] = (int(a["count"][gemm & embed].sum()) / images, "MAC")
    layer_ms("model.forward.self_ms", is_layer("model.forward") & ~bwd)
    out["model.macs_per_image"] = (macs / images, "MAC")

    layer_ms("train.batch_ms", is_layer("train.batch"))
    layer_ms("train.loss.fwd_ms", is_layer("train.loss") & ~bwd)
    out["train.backward_ms"] = (ms(is_name("tensor.Tensor.backward"), dur), "ms")
    layer_ms("train.optimizer_ms", is_layer("train.optimizer"))

    step_ms = ms(is_name("step"), dur)
    covered = sum(out[m][0] for m in parts)
    out["trace.coverage_ratio"] = (covered / step_ms if step_ms else 0.0, "ratio")
    return out
