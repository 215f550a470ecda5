"""Acceptance criteria.

Each test prints one pass/fail line (run with ``pytest -v -s`` to see them
live). Criteria 9 and 10 share one trained micro model via a module-scoped
fixture, so the whole module completes in a few minutes on CPU.
"""

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from msgt import blocks as B
from msgt import complexity as C
from msgt import model as M
from msgt import tensor as T
from msgt import windows as W
from msgt.analysis import information_reach, model_grad_check, single_op_grad_checks
from msgt.data import DatasetSpec
from msgt.tensor import Tensor
from msgt.train import REPORT_NOTE, TrainConfig, ablate, evaluate, load_data, train


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_flops_increase_claim():
    ratio = C.flops_ratio(7, 384)
    ok = ratio == Fraction(2354, 115297) and f"{float(ratio) * 100:.4f}" == "2.0417"
    report(1, "flops increase ratio is exactly 2354/115297 (2.0417%)", ok, str(ratio))


def test_criterion_2_parameter_accounting():
    model = M.build_model(M.small_config(num_classes=10), seed=0)
    counts = M.count_params(model)
    ok = counts["msg_input"] == 16 * 96 == 1536
    report(2, "input messenger tokens contribute exactly 16*C1 = 1536 at C1=96", ok,
           f"msg_input={counts['msg_input']}")


def test_criterion_3_shuffle_correctness():
    t0 = time.time()
    rng = np.random.default_rng(3)
    ok = True
    for region in (1, 2, 4):
        for _ in range(100):
            c = region * region * int(rng.integers(1, 4))
            msg = Tensor(rng.standard_normal((1, region, region, c)).astype(np.float32))
            once = B.manipulate_msg(msg, region, W.TOP_LEFT, "shuffle")
            ok &= np.array_equal(np.sort(once.data.ravel()), np.sort(msg.data.ravel()))
            ok &= np.array_equal(B.manipulate_msg(once, region, W.TOP_LEFT, "shuffle").data, msg.data)
    hand = Tensor(np.arange(16, dtype=np.float32).reshape(1, 2, 2, 4))
    got = B.manipulate_msg(hand, 2, W.TOP_LEFT, "shuffle").data.reshape(4, 4)
    expected = np.array([[0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]], dtype=np.float32)
    ok &= np.array_equal(got, expected)
    report(3, "shuffle is a value-preserving involutive permutation incl. hand example", ok,
           f"{time.time() - t0:.2f}s")


def test_criterion_4_windowing_round_trips():
    t0 = time.time()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        ws = int(rng.integers(1, 6))
        gh, gw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        c = int(rng.integers(1, 5))
        fm = W.FeatureMap(tokens=Tensor(rng.standard_normal((1, gh * ws, gw * ws, c)).astype(np.float32)))
        back = W.reverse_windows(W.partition_windows(fm, ws))
        ok &= np.array_equal(back.tokens.data, fm.tokens.data)
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        fm2 = W.FeatureMap(tokens=Tensor(rng.standard_normal((1, h, w, c)).astype(np.float32)))
        padded, extents = W.pad_to_window_multiple(fm2, ws)
        ok &= np.array_equal(W.crop_to(padded, extents).tokens.data, fm2.tokens.data)
    report(4, "partition/reverse and pad/crop are bit-exact over 100 random shapes", ok,
           f"{time.time() - t0:.2f}s")


def test_criterion_5_gradient_fidelity():
    t0 = time.time()
    op_errors = single_op_grad_checks()
    worst_op = max(op_errors.values())
    model_err = model_grad_check()
    elapsed = time.time() - t0
    ok = worst_op < 1e-6 and model_err < 1e-3 and elapsed < 60
    report(5, "finite differences: ops < 1e-6, micro model < 1e-3, under 60 s", ok,
           f"ops {worst_op:.2e}, model {model_err:.2e}, {elapsed:.1f}s")


def test_criterion_6_information_flow():
    t0 = time.time()
    reached = information_reach(mode="shuffle", use_msg=True, num_blocks=2, seed=6)
    confined_none = information_reach(mode="none", use_msg=True, num_blocks=2, seed=6)
    confined_nomsg = information_reach(mode="none", use_msg=False, num_blocks=2, seed=6)
    ok = (
        bool(reached.all())
        and confined_none.sum() == 1
        and bool(confined_none[0, 0])
        and confined_nomsg.sum() == 1
    )
    report(6, "shuffle reaches the whole region in two blocks; disabled exchange stays local",
           ok, f"{time.time() - t0:.2f}s")


def test_criterion_7_receptive_field_formulas():
    swin = C.receptive_field(C.SWIN_SHIFT, 7)
    msg = C.receptive_field(C.MSG_SHUFFLE, 7, 4)
    ok = float(swin) == 110.25 and msg == 784
    for w in (2, 4, 7, 14):
        for s in range(2, 9):
            ok &= C.receptive_field(C.MSG_SHUFFLE, w, s) >= C.receptive_field(C.SWIN_SHIFT, w)
    report(7, "receptive fields: 110.25 vs 784, shuffle >= shift for all S >= 2", ok)


def test_criterion_8_closed_form_vs_instrumented():
    t0 = time.time()
    rng = np.random.default_rng(8)
    gh = gw = 2
    ws, ch, heads = 4, 16, 2
    params = M.make_block_params(rng, ch, heads, ws, 2)
    wt = W.WindowedTokens(Tensor(rng.standard_normal((1, gh, gw, ws * ws, ch)).astype(np.float32)))
    msg = Tensor(rng.standard_normal((1, gh, gw, ch)).astype(np.float32))
    with T.count_macs() as counter:
        B.detach_msg(B.block_forward(B.attach_msg(wt, msg), params))
    ok = counter["matmul"] == C.flops_block(gh * gw, ws, ch) and counter["other"] > 0 and counter["conv"] == 0
    report(8, "per-block formula equals the instrumented matmul MAC count exactly", ok,
           f"{counter['matmul']} MACs, {time.time() - t0:.2f}s")


ACCEPT_TRAIN = TrainConfig(
    total_steps=400,
    warmup_steps=50,
    base_lr=3e-3,
    batch_size=16,
    eval_interval=100,
    seed=7,
)
ACCEPT_DATA = DatasetSpec(num_train=512, num_val=128, image_size=128, seed=7)


@pytest.fixture(scope="module")
def trained_micro(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept-train"))
    started = time.time()
    result = train(ACCEPT_TRAIN, ACCEPT_DATA, out)
    return result, time.time() - started


def test_criterion_9_toy_learnability(trained_micro):
    result, elapsed = trained_micro
    ok = (
        result.final.top1 >= 0.90
        and ACCEPT_TRAIN.total_steps <= 2000
        and elapsed < 600
    )
    report(9, "micro model reaches >= 90% val top-1 within 2000 steps in under 10 min",
           ok, f"top1 {result.final.top1:.3f} after {ACCEPT_TRAIN.total_steps} steps, {elapsed:.0f}s")


def test_criterion_10_input_msg_rerandomization(trained_micro):
    result, _ = trained_micro
    _, val_ds = load_data(ACCEPT_DATA)
    _, top1_learned = evaluate(result.model, val_ds, ACCEPT_TRAIN.batch_size)
    M.rerandomize_msg_input(result.model, seed=ACCEPT_TRAIN.seed + 1)
    _, top1_rerandomized = evaluate(result.model, val_ds, ACCEPT_TRAIN.batch_size)
    delta = abs(top1_learned - top1_rerandomized)
    report(10, "re-randomizing input messenger tokens moves val top-1 by <= 2 points",
           delta <= 0.02, f"learned {top1_learned:.3f} vs rerandomized {top1_rerandomized:.3f}")


def test_criterion_11_non_reproduction_statement(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    statements = (
        "does **not** reproduce",
        "ImageNet",
        "MS-COCO",
        "latency",
        "reports only",
    )
    ok = all(s in readme for s in statements)
    # the ablation driver stamps its CSVs as desk-scale reports
    quick = TrainConfig(total_steps=2, warmup_steps=1, batch_size=8, eval_interval=5, seed=11)
    quick_data = DatasetSpec(num_train=8, num_val=8, image_size=128, seed=11)
    ablate("msg-shuffle", quick, quick_data, str(tmp_path))
    csv_text = (tmp_path / "ablation_msg-shuffle.csv").read_text()
    ok &= csv_text.startswith(REPORT_NOTE)
    ok &= "not reproduced" in csv_text
    report(11, "full-scale accuracies/latencies declared out of scope; ablations are reports only", ok)
