"""Training harness tests: optimizer, schedule, loss, loop determinism, ablation."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from msgt import model as M
from msgt import tensor as T
from msgt import train as TR
from msgt.data import DatasetSpec
from msgt.errors import ConfigError, ContractError, TrainingDiverged
from msgt.tensor import Tensor

TINY_RUN = TR.TrainConfig(
    total_steps=8, warmup_steps=2, eval_interval=4, batch_size=8, base_lr=1e-3, seed=3
)
TINY_DATA = DatasetSpec(num_train=32, num_val=16, image_size=128, seed=3)


class TestSchedule:
    def test_linear_warmup(self):
        cfg = TR.TrainConfig(total_steps=100, warmup_steps=10, base_lr=1.0)
        lrs = [TR.cosine_warmup_lr(s, cfg) for s in range(10)]
        np.testing.assert_allclose(lrs, np.arange(1, 11) / 10)

    def test_cosine_decay_reaches_min(self):
        cfg = TR.TrainConfig(total_steps=100, warmup_steps=10, base_lr=1.0, min_lr=0.05)
        assert TR.cosine_warmup_lr(10, cfg) == pytest.approx(1.0, abs=1e-3)
        assert TR.cosine_warmup_lr(99, cfg) == pytest.approx(0.05, abs=2e-3)
        mid = TR.cosine_warmup_lr(55, cfg)
        assert 0.05 < mid < 1.0

    def test_monotone_decay_after_warmup(self):
        cfg = TR.TrainConfig(total_steps=50, warmup_steps=5, base_lr=1.0)
        lrs = [TR.cosine_warmup_lr(s, cfg) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_must_precede_total(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(total_steps=10, warmup_steps=10).validate()


class TestValidate:
    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("eval_interval", 0, "eval interval"),
            ("eval_interval", -3, "eval interval"),
            ("label_smoothing", 1.0, "label smoothing"),
            ("label_smoothing", 1.5, "label smoothing"),
            ("label_smoothing", -0.1, "label smoothing"),
            ("base_lr", -1e-3, "learning rate"),
            ("base_lr", float("nan"), "learning rate"),
            ("betas", (1.0, 0.999), "optimizer.betas"),
            ("betas", (0.9, 1.0), "optimizer.betas"),
            ("betas", (-0.1, 0.999), "optimizer.betas"),
            ("betas", (0.9, float("nan")), "optimizer.betas"),
            ("eps", 0.0, "optimizer.eps"),
            ("eps", -1e-8, "optimizer.eps"),
            ("eps", float("nan"), "optimizer.eps"),
            ("warmup_steps", -5, "schedule.warmup_steps"),
            ("min_lr", -1.0, "schedule.min_lr"),
            ("min_lr", 4e-3, "schedule.min_lr"),
            ("min_lr", float("nan"), "schedule.min_lr"),
        ],
    )
    def test_rejects_bad_value(self, field, value, named):
        with pytest.raises(ConfigError, match=named):
            TR.TrainConfig(**{field: value}).validate()

    def test_boundary_values_accepted(self):
        TR.TrainConfig(eval_interval=1, label_smoothing=0.0, base_lr=0.0, betas=(0.0, 0.0), eps=1e-30).validate()
        TR.TrainConfig(total_steps=1, warmup_steps=0, min_lr=3e-3).validate()  # min_lr may equal base_lr

    def test_run_without_steps_rejected(self):
        with pytest.raises(ConfigError, match="schedule.warmup_steps must be >= 0, got -1"):
            TR.TrainConfig(total_steps=0, warmup_steps=-1).validate()

    def test_batch_beyond_train_split_rejected_before_compute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TR, "load_data", None)  # any data loading would fail with TypeError
        spec = DatasetSpec(num_train=8, num_val=8, image_size=128, seed=3)
        with pytest.raises(ConfigError, match="batch_size 16 exceeds data.num_train 8"):
            TR.train(replace(TINY_RUN, batch_size=16), spec, str(tmp_path / "run"))

    def test_idx_label_at_num_classes_rejected_before_compute(self, tmp_path, monkeypatch):
        from msgt import data as D

        images = np.zeros((24, 8, 8), dtype=np.uint8)
        labels = np.arange(24) % 4
        labels[19] = 4
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        D.save_idx(images, labels, ip, lp)
        spec = DatasetSpec(
            source="idx-files", image_size=128, num_classes=4, num_train=16, num_val=8,
            images_path=ip, labels_path=lp,
        )
        monkeypatch.setattr(M, "build_model", None)  # any compute would fail with TypeError
        with pytest.raises(ConfigError, match="label 4 at index 19"):
            TR.train(TINY_RUN, spec, str(tmp_path / "run"))


    def test_data_classes_beyond_head_rejected_before_compute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TR, "load_data", None)  # any data loading would fail with TypeError
        spec = DatasetSpec(num_classes=10, num_train=32, num_val=16, image_size=128, seed=3)
        with pytest.raises(ConfigError, match="dataset has 10 classes but the model head has 4"):
            TR.train(TINY_RUN, spec, str(tmp_path / "run"))

    def test_det_backbone_task_rejected_before_compute(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setattr(TR, "load_data", None)
        run = replace(TINY_RUN, arch=M.micro_config(task="det-backbone"))
        with pytest.raises(ConfigError, match="det-backbone"):
            TR.train(run, TINY_DATA, str(tmp_path / "run"))


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        p = Tensor(np.array([[1.0, -2.0]], dtype=np.float32), requires_grad=True)
        g = np.array([[0.5, 0.25]], dtype=np.float32)
        p.grad = g.copy()
        opt = TR.AdamW([("w", p)], weight_decay=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step(lr=0.01)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = np.array([[1.0, -2.0]]) - 0.01 * (
            g / (np.abs(g) + 1e-8) + 0.1 * np.array([[1.0, -2.0]])
        )
        np.testing.assert_allclose(p.data, expected, rtol=1e-6)

    def test_second_step_momentum(self):
        p = Tensor(np.array([[1.0]], dtype=np.float64), requires_grad=True)
        opt = TR.AdamW([("w", p)], weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8)
        m = v = 0.0
        x = 1.0
        for t in (1, 2):
            g = 2.0 * x  # d/dx of x^2 evaluated at the current value
            p.grad = np.array([[g]])
            opt.step(lr=0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert p.data[0, 0] == pytest.approx(x, rel=1e-12)

    def test_decay_skips_vectors_and_bias_tables(self):
        w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        v = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        tbl = Tensor(np.ones((1, 3, 3), dtype=np.float32), requires_grad=True)
        assert TR._decays("mlp.w1", w)
        assert not TR._decays("mlp.b1", v)
        assert not TR._decays("stage1.block0.bias.table", tbl)
        assert not TR._decays("msg_input", tbl)

    def test_frozen_params_not_updated(self):
        frozen = Tensor(np.ones(3, dtype=np.float32), requires_grad=False)
        opt = TR.AdamW([("frozen", frozen)], weight_decay=0.05, betas=(0.9, 0.999), eps=1e-8)
        assert opt.params == []


class TestCrossEntropy:
    def test_matches_hand_computation(self):
        logits = Tensor(np.array([[2.0, 0.0, 0.0]], dtype=np.float64))
        labels = np.array([0])
        loss = TR.cross_entropy(logits, labels, smoothing=0.0)
        z = np.array([2.0, 0.0, 0.0])
        expected = -(z[0] - np.log(np.exp(z).sum()))
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_label_smoothing_mixes_uniform(self):
        logits = Tensor(np.array([[1.0, -1.0]], dtype=np.float64))
        labels = np.array([1])
        s = 0.1
        logp = np.array([1.0, -1.0]) - np.log(np.exp([1.0, -1.0]).sum())
        expected = -((1 - s) * logp[1] + (s / 2) * logp.sum())
        assert TR.cross_entropy(logits, labels, s).item() == pytest.approx(expected, rel=1e-12)

    def test_gradient_against_finite_differences(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
        labels = np.array([2, 0])
        err = T.grad_check(lambda: TR.cross_entropy(logits, labels, 0.1), [logits])
        assert err < 1e-8


class TestTrainLoop:
    def test_zero_lr_keeps_loss_constant(self, tmp_path):
        cfg = TR.TrainConfig(
            total_steps=4, warmup_steps=1, eval_interval=10, batch_size=16,
            base_lr=0.0, min_lr=0.0, seed=5,
        )
        # batch covers the whole train split, so every step sees identical data
        data = DatasetSpec(num_train=16, num_val=16, image_size=128, seed=5)
        res = TR.train(cfg, data, str(tmp_path))
        train_losses = [r.loss for r in res.rows if r.split == "train"]
        # single train row aggregates the window; verify via direct eval equality
        assert len(set(f"{v:.7f}" for v in train_losses)) <= 1

    def test_same_seed_reproduces_metrics_modulo_seconds(self, tmp_path):
        a = TR.train(TINY_RUN, TINY_DATA, str(tmp_path / "a"))
        b = TR.train(TINY_RUN, TINY_DATA, str(tmp_path / "b"))

        def strip_seconds(path):
            lines = open(path).read().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_seconds(a.metrics_path) == strip_seconds(b.metrics_path)
        for (_, ta), (_, tb) in zip(a.model.named_parameters(), b.model.named_parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_metrics_csv_schema(self, tmp_path):
        res = TR.train(TINY_RUN, TINY_DATA, str(tmp_path))
        lines = open(res.metrics_path).read().splitlines()
        assert lines[0] == "epoch,step,split,loss,top1,lr,seconds"
        steps = [int(line.split(",")[1]) for line in lines[1:]]
        assert steps == sorted(steps)
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[4]) <= 1.0

    def test_diverged_loss_aborts_with_step(self, tmp_path, monkeypatch):
        cfg = TR.TrainConfig(total_steps=3, warmup_steps=1, batch_size=4, base_lr=1e-3, seed=6)
        data = DatasetSpec(num_train=8, num_val=8, image_size=128, seed=6)
        original = TR.cross_entropy

        def poisoned(logits, labels, smoothing=0.0):
            out = original(logits, labels, smoothing)
            out.data = np.array(np.nan, dtype=out.data.dtype)
            return out

        monkeypatch.setattr(TR, "cross_entropy", poisoned)
        with pytest.raises(TrainingDiverged, match="step 0"):
            TR.train(cfg, data, str(tmp_path))

    def test_rerandomize_at_eval_policy_appends_extra_row(self, tmp_path):
        cfg = TR.TrainConfig(
            total_steps=4, warmup_steps=1, eval_interval=10, batch_size=8,
            base_lr=1e-3, seed=9, msg_input_policy="rerandomize-at-eval",
        )
        data = DatasetSpec(num_train=16, num_val=8, image_size=128, seed=9)
        res = TR.train(cfg, data, str(tmp_path))
        assert res.final.split == "val-rerandomized"
        splits = [r.split for r in res.rows]
        assert "val" in splits and splits[-1] == "val-rerandomized"

    def test_rerandomize_at_eval_saves_the_trained_model(self, tmp_path):
        cfg = TR.TrainConfig(
            total_steps=4, warmup_steps=1, eval_interval=10, batch_size=8, base_lr=1e-3, seed=9,
        )
        data = DatasetSpec(num_train=16, num_val=8, image_size=128, seed=9)
        learned = TR.train(cfg, data, str(tmp_path / "learnable"))
        rerandomized = replace(cfg, msg_input_policy="rerandomize-at-eval")
        res = TR.train(rerandomized, data, str(tmp_path / "rerandomize"))
        with open(learned.checkpoint_path, "rb") as a, open(res.checkpoint_path, "rb") as b:
            assert a.read() == b.read()
        np.testing.assert_array_equal(res.model.msg_input.data, learned.model.msg_input.data)

    def test_rerandomize_without_messengers_rejected_before_training(self, tmp_path):
        arch = M.micro_config(use_msg=False, manipulation="none")
        cfg = replace(TINY_RUN, arch=arch, msg_input_policy="rerandomize-at-eval")
        with pytest.raises(ConfigError, match="needs a model with messengers"):
            TR.train(cfg, TINY_DATA, str(tmp_path / "run"))
        with pytest.raises(ConfigError, match="needs a model with messengers"):
            TR.ablate("rerandomize-input-msg", replace(TINY_RUN, arch=arch), TINY_DATA, str(tmp_path))
        assert not list(tmp_path.rglob("metrics.csv"))

    def test_frozen_msg_policy_keeps_input_tokens_fixed(self, tmp_path):
        cfg = TR.TrainConfig(
            total_steps=4, warmup_steps=1, eval_interval=10, batch_size=8,
            base_lr=1e-2, seed=8, msg_input_policy="frozen-random",
        )
        data = DatasetSpec(num_train=16, num_val=8, image_size=128, seed=8)
        res = TR.train(cfg, data, str(tmp_path))
        fresh = M.build_model(cfg.arch_config(), seed=cfg.seed)
        assert not res.model.msg_input.requires_grad and fresh.msg_input.requires_grad
        np.testing.assert_array_equal(res.model.msg_input.data, fresh.msg_input.data)
        assert not np.array_equal(res.model.embed_weight.data, fresh.embed_weight.data)


class TestAblate:
    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            TR.ablate("swap-everything", TINY_RUN, TINY_DATA, str(tmp_path))

    def test_no_msg_variant_structure(self, tmp_path):
        results = TR.ablate("no-msg", TINY_RUN, TINY_DATA, str(tmp_path))
        by_name = {r["variant"]: r for r in results}
        assert by_name["no-msg"]["msg_related"] == 0
        assert by_name["msg-shuffle"]["msg_related"] > 0
        csv = open(str(tmp_path / "ablation_no-msg.csv")).read()
        assert csv.startswith("#") and "desk-scale" in csv

    def test_no_msg_variant_with_msg_params_raises(self, tmp_path, monkeypatch):
        """The guard holds under ``python -O``: it raises, it does not assert."""
        row = SimpleNamespace(loss=1.0, top1=0.5)
        monkeypatch.setattr(TR, "train", lambda cfg, spec, out: SimpleNamespace(model=None, final=row, rows=[row]))
        monkeypatch.setattr(M, "count_params", lambda model: {"total": 9, "msg_input": 0, "msg_related": 3})
        with pytest.raises(ContractError, match="messenger-free variant carries 3 msg params"):
            TR.ablate("no-msg", TINY_RUN, TINY_DATA, str(tmp_path))
        assert not (tmp_path / "ablation_no-msg.csv").exists()

    def test_shuffle_size_sweep_emits_three_rows(self, tmp_path):
        results = TR.ablate("shuffle-size-sweep", TINY_RUN, TINY_DATA, str(tmp_path))
        assert [r["variant"] for r in results] == ["shuffle-2221", "shuffle-4221", "shuffle-4421"]
        # only the input-messenger tile (one per stage-1 region) may differ
        assert len({r["total"] - r["msg_input"] for r in results}) == 1

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("msg-noshuffle", ["msg-shuffle", "msg-noshuffle"]),
            ("msg-average", ["msg-shuffle", "msg-average"]),
            ("msg-shift", ["msg-shuffle", "msg-shift"]),
            ("msg-shuffle", ["msg-shuffle"]),
        ],
    )
    def test_variant_construction(self, mode, expected):
        rows = TR._variant_rows(mode, TINY_RUN)
        assert [name for name, _ in rows] == expected
        for name, cfg in rows:
            if name.startswith("msg-") and name != "msg-shuffle":
                assert cfg.arch.manipulation == name.removeprefix("msg-").replace("noshuffle", "none")

    def test_rerandomize_mode_reports_two_rows_without_retraining(self, tmp_path):
        results = TR.ablate("rerandomize-input-msg", TINY_RUN, TINY_DATA, str(tmp_path))
        assert [r["variant"] for r in results] == [
            "learned-input-msg",
            "rerandomized-input-msg",
        ]
        assert results[0]["total"] == results[1]["total"]
        # the losses are the run's smoothed val rows, as in its metrics.csv
        rows = open(tmp_path / "rerandomize-base" / "metrics.csv").read().splitlines()[-2:]
        assert [row.split(",")[2:5] for row in rows] == [
            [split, f"{r['loss']:.6f}", f"{r['top1']:.4f}"]
            for split, r in zip(("val", "val-rerandomized"), results)
        ]
