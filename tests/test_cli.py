"""CLI dispatch tests: exit codes, printed values, and end-to-end command flows."""

import argparse
import ast
import copy
import inspect
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import textwrap
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgt
from msgt import cli
from msgt import model as M
from msgt.analysis import OP_CASES
from msgt.checkpoint import load_checkpoint, save_checkpoint
from msgt.data import DatasetSpec
from msgt.errors import ConfigError
from msgt.train import TrainConfig, check_run
from test_checkpoint import write_records
from test_data import read_idx


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_no_arguments_prints_usage_exit_1(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "explode")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "flops", "--nonsense")
        assert code == 1

    def test_missing_config_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "train", "--config", "/does/not/exist.json")
        assert code == 1
        assert "not found" in err


def _declared_options() -> dict:
    """The dest of every option each subcommand declares, --help aside."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }


def _args_read(fn) -> set:
    """The names ``fn`` reads as ``args.<name>``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


class TestOptions:
    def test_each_command_declares_exactly_the_options_it_reads(self):
        declared = _declared_options()
        assert declared.keys() == cli._COMMANDS.keys()
        for name, fn in cli._COMMANDS.items():
            assert declared[name] == _args_read(fn), name
        assert sum(map(len, declared.values())) == 19

    @pytest.mark.parametrize(
        "argv",
        [
            *([cmd, *opt] for cmd in ("flops", "analyze-comm", "gradcheck")
              for opt in (["--config", "x.json"], ["--seed", "5"], ["--out", "x"])),
            ["eval", "--checkpoint", "m.ckpt", "--out", "x"],
        ],
        ids=" ".join,
    )
    def test_option_a_command_does_not_read_exits_1_with_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("usage: msgt") and f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestConfigKeys:
    def test_every_config_field_is_set_by_a_json_key(self):
        """A field that no JSON key sets is a knob no run can turn."""
        assert {f.name for f in fields(M.ArchConfig)} == {"stages", *cli._ARCH_OVERRIDES}
        train_fields = {name for keys in cli._TRAIN_KEYS.values() for name in keys.values()}
        assert {f.name for f in fields(TrainConfig)} == {"arch", *train_fields}
        changed, default = {str: lambda v: v + "-set", int: lambda v: v + 1, float: lambda v: v + 0.5}, DatasetSpec()
        for f in fields(default):
            value = changed[type(getattr(default, f.name))](getattr(default, f.name))
            _, spec = cli.parse_config({"data": {f.name: value}})
            assert getattr(spec, f.name) == value, f"data.{f.name}"


class TestThreadCap:
    def test_msgt_threads_env_propagates(self, monkeypatch):
        monkeypatch.setenv("MSGT_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        msgt._apply_thread_cap()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_existing_caps_not_overwritten(self, monkeypatch):
        monkeypatch.setenv("MSGT_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        msgt._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "4"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
    def test_cap_holds_for_the_cli_module(self):
        """Importing msgt.cli, as the entry point does, leaves one thread after a GEMM."""
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["MSGT_THREADS"] = "1"
        src = os.path.dirname(os.path.dirname(msgt.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import os, msgt.cli, numpy as np; a = np.ones((400, 400)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert done.stdout.strip() == "1"


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestWarmForwardFaults:
    @pytest.mark.skipif(not _on_glibc(), reason="the bound is measured under glibc's default malloc thresholds")
    def test_warm_no_grad_forwards_fault_in_no_pages(self):
        """After two warm-up micro forwards at batch 16, three more take under 100 minor faults."""
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["MSGT_THREADS"] = "1"
        src = os.path.dirname(os.path.dirname(msgt.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import resource, numpy as np\n"
            "from msgt import model as M, tensor as T\n"
            "model = M.build_model(M.micro_config(), seed=0)\n"
            "x = T.Tensor(np.random.default_rng(0).standard_normal((16, 128, 128, 3)).astype(np.float32))\n"
            "def forward():\n"
            "    with T.no_grad():\n"
            "        M.forward(model, x, mode='eval')\n"
            "forward(); forward()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "forward(); forward(); forward()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert int(done.stdout.strip()) < 100


class TestFlops:
    def test_reference_ratio_printed(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--window", "7", "--dim", "384")
        assert code == 0
        assert "2354/115297" in out
        assert "2.0417" in out
        for bad in (("--window", "0"), ("--dim", "-1")):  # outside input, checked before any cost is printed
            code, out, err = run_cli(capsys, "flops", *bad)
            assert code == 1 and "must be positive" in err and not out

    def test_model_totals_for_preset(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--window", "7", "--dim", "384", "--arch", "tiny")
        assert code == 0
        total = int(out.split("total (convs at 2 flops/mac):")[1].strip().splitlines()[0])
        assert abs(total - 3.8e9) / 3.8e9 < 0.10
        assert "of which the messenger-only final block: 41732096" in out


class TestAnalyzeComm:
    def test_receptive_fields_and_reach(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-comm", "--window", "7", "--shuffle", "4")
        assert code == 0
        assert "110.25" in out
        assert "784" in out
        assert "passed" in out

    def test_shuffle_size_one_claims_no_check(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-comm", "--shuffle", "1")
        assert code == 0
        assert "shuffle size 1 exchanges nothing" in out
        assert "passed" not in out and "probe" not in out

    def test_probe_line_names_the_geometry_it_runs(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-comm", "--window", "4", "--shuffle", "8")
        assert code == 0
        assert "(shuffle size 8)" in out
        assert "window 4, one head, a 8x8 region" in out and "64/64 windows" in out
        assert "with exchange disabled: 1/64 windows" in out and "passed" in out

    def test_probe_over_the_mac_budget_is_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-comm", "--window", "7", "--shuffle", "16")
        assert code == 0
        assert "(shuffle size 16)" in out and "reach probe skipped" in out
        assert "passed" not in out and "windows" not in out


class TestGradcheck:
    def test_op_and_block_suite(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        assert "all gradient checks passed" in out
        listed = {line.split()[0] for line in out.splitlines() if "max rel err" in line}
        assert {"attention", "attention_msg_rows", "mlp", "concat", "pad", "transpose"} <= listed
        assert {"block", "block_no_msg", "block_msg_only"} <= listed  # every block kind
        assert not {"softmax", "gelu", "exp", "log"} & listed  # run only inside the attention and mlp nodes

    def test_rows_align_whatever_the_name_length(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        rows = [line for line in out.splitlines() if "max rel err" in line]
        assert code == 0 and any(len(line.split()[0]) > 14 for line in rows)
        assert len({line.index("max rel err") for line in rows}) == 1


FUZZ_PRESET = {
    "arch": "micro", "num_classes": 4, "task": "cls", "input_size": 128, "use_msg": True,
    "manipulation": "shuffle", "shuffle_sizes": [2, 2, 2, 1], "msg_input_policy": "learnable",
    "optimizer": {"lr": 1e-3, "weight_decay": 0.05, "betas": [0.9, 0.999], "eps": 1e-8},
    "schedule": {"total_steps": 6, "warmup_steps": 2, "min_lr": 0.0},
    "batch_size": 8, "label_smoothing": 0.1, "eval_interval": 3, "seed": 13,
    "data": {
        "source": "synthetic-textures", "image_size": 128, "num_classes": 4, "num_train": 16,
        "num_val": 8, "seed": 13, "noise_sigma": 0.1, "images_path": "", "labels_path": "",
    },
}
FUZZ_STAGES = {
    **{k: v for k, v in FUZZ_PRESET.items() if k != "arch"},
    "stages": [
        {"dim": 16, "heads": 1, "blocks": 1},
        {"dim": 32, "heads": 2, "blocks": 1},
        {"dim": 64, "heads": 4, "blocks": 2},
        {"dim": 128, "heads": 8, "blocks": 1},
    ],
    "window_size": 4,
}
DROP, UNKNOWN_KEY = object(), object()
# what a mutation puts at a key: nothing, a sibling unknown key, a wrong type or a bad value
FUZZ_EDITS = [DROP, UNKNOWN_KEY, "abc", None, True, [], {}, [2, 2, 2, 1, 1], 0, -1, 1.5, 10**6, 1e300,
              float("nan")]


NEGATIVE_BLOCKS = [{**s, "blocks": -2} if i == 1 else s for i, s in enumerate(FUZZ_STAGES["stages"])]
# values no run can use, with the key each sits at: parse_config plus the
# pre-compute checks must reject every one of them
FUZZ_REJECT = [
    (("seed",), -1), (("data", "seed"), -1), (("data", "num_train"), 0), (("data", "num_train"), -4),
    (("data", "num_val"), 0), (("eval_interval",), 0), (("label_smoothing",), 1.5), (("optimizer", "lr"), -1e-3),
    (("optimizer", "betas"), [1.0, 0.999]), (("optimizer", "betas"), [0.9, 1.0]), (("optimizer", "eps"), 0),
    (("stages",), NEGATIVE_BLOCKS), (("schedule", "warmup_steps"), -1), (("schedule", "min_lr"), -1e-3),
]


def _paths(obj, prefix=()):
    """Every key path into a JSON value, containers included."""
    for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


def _apply(base, edits):
    raw = copy.deepcopy(base)
    for path, edit in edits:
        parent = raw
        for k in path[:-1]:  # skip a path that an earlier edit cut
            if isinstance(parent, dict) and k in parent or isinstance(parent, list) and k < len(parent):
                parent = parent[k]
            else:
                break
        else:
            if edit is UNKNOWN_KEY and isinstance(parent, dict):
                parent["bogus_key"] = 1
            elif edit is DROP and isinstance(parent, dict):
                parent.pop(path[-1], None)
            elif edit not in (DROP, UNKNOWN_KEY) and isinstance(parent, (dict, list)):
                parent[path[-1]] = copy.deepcopy(edit)
    return raw


def _mutated(base):
    """Configs made from ``base`` by one or two edits."""
    edit = st.tuples(st.sampled_from(list(_paths(base))), st.sampled_from(FUZZ_EDITS))
    return st.lists(edit, min_size=1, max_size=2).map(lambda edits: _apply(base, edits))


class TestConfigFuzz:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(raw=st.sampled_from([FUZZ_PRESET, FUZZ_STAGES]).flatmap(_mutated))
    def test_mutated_config_is_rejected_or_valid(self, raw):
        """parse_config plus the checks that run before compute raise only ConfigError."""
        try:
            cfg, data = cli.parse_config(raw)
            check_run(cfg, data)
        except ConfigError:
            pass

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        base=st.sampled_from([FUZZ_PRESET, FUZZ_STAGES]),
        bad=st.sampled_from(FUZZ_REJECT),
        extra=st.lists(st.tuples(st.sampled_from(list(_paths(FUZZ_PRESET))), st.sampled_from(FUZZ_EDITS)), max_size=1),
    )
    def test_bad_value_is_rejected(self, base, bad, extra):
        """A bad value stays rejected whatever other key an edit changes."""
        path, value = bad
        extra = [(p, e) for p, e in extra if p != path[: len(p)]]  # never cut or replace the bad key
        raw = _apply(base, extra + [bad])
        with pytest.raises(ConfigError):
            cfg, data = cli.parse_config(raw)
            check_run(cfg, data)


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_schema() -> dict:
    """The object in README's "Config schema (JSON)" block, without its // comments and ``, ...`` elisions."""
    with open(README) as f:
        block = f.read().split("### Config schema (JSON)", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r",\s*\.\.\.", "", re.sub(r"//[^\n]*", "", block)))


def _accepted_keys(raw) -> set:
    """The keys parse_config names as expected when ``raw`` holds an unknown one."""
    with pytest.raises(ConfigError, match="unknown config key") as info:
        cli.parse_config(raw)
    return set(ast.literal_eval(str(info.value).split("expected one of ", 1)[1]))


class TestReadmeSchema:
    def test_schema_block_holds_exactly_the_accepted_keys(self):
        schema, unknown = _readme_schema(), {"not_a_key": 1}
        assert set(schema) == _accepted_keys(unknown)
        for section in ("optimizer", "schedule", "data"):
            assert set(schema[section]) == _accepted_keys({section: unknown}), section
        assert set(schema["stages"][0]) == _accepted_keys({"stages": [unknown] * M.NUM_STAGES})


def _readme_cli_lines() -> list[str]:
    """The ``msgt ...`` command lines of README's "## CLI" block, without their # comments."""
    with open(README) as f:
        block = f.read().split("\n## CLI\n", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("msgt ")]


class TestReadmeCli:
    def test_every_documented_command_line_parses(self):
        """A documented option that its subcommand no longer declares fails here."""
        parser, documented = cli.build_parser(), set()
        for line in _readme_cli_lines():
            documented.add(parser.parse_args(shlex.split(line)[1:]).command)
        assert documented == cli._COMMANDS.keys()


class TestReadmeGradcheck:
    def test_listed_op_cases_are_exactly_the_suite(self):
        """An op case added to or deleted from ``OP_CASES`` without README's list fails here."""
        with open(README) as f:
            listed = f.read().split("against central differences:", 1)[1].split(", then each block", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == list(OP_CASES)


class TestDataAndTraining:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = {
            "arch": "micro",
            "num_classes": 4,
            "optimizer": {"lr": 1e-3, "weight_decay": 0.05},
            "schedule": {"total_steps": 6, "warmup_steps": 2},
            "batch_size": 8,
            "eval_interval": 3,
            "seed": 13,
            "data": {
                "source": "synthetic-textures",
                "image_size": 128,
                "num_train": 16,
                "num_val": 8,
                "seed": 13,
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_gen_data_writes_loadable_idx(self, capsys, tmp_path, config_file):
        out_dir = str(tmp_path / "data")
        code, out, _ = run_cli(capsys, "gen-data", "--config", config_file, "--out", out_dir)
        assert code == 0
        ds = read_idx(f"{out_dir}/textures-images.idx3-ubyte", f"{out_dir}/textures-labels.idx1-ubyte", 128)
        assert len(ds) == 24
        assert np.bincount(ds.labels, minlength=4).tolist() == [6, 6, 6, 6]

    def test_train_then_eval_round_trip(self, capsys, tmp_path, config_file):
        out_dir = str(tmp_path / "run")
        code, out, _ = run_cli(capsys, "train", "--config", config_file, "--out", out_dir)
        assert code == 0
        assert "metrics.csv" in out

        code, out, _ = run_cli(
            capsys, "eval", "--config", config_file, "--checkpoint", f"{out_dir}/model.ckpt"
        )
        assert code == 0
        assert "top1" in out
        # eval reports the smoothed val loss of the run's last val row
        last_val = [r for r in open(f"{out_dir}/metrics.csv").read().splitlines() if ",val," in r][-1]
        assert f"val loss {last_val.split(',')[3]} " in out

    def test_eval_rejects_a_version1_checkpoint_exit_1(self, capsys, tmp_path, config_file):
        cfg, _ = cli.parse_config(json.loads(open(config_file).read()))
        model = M.build_model(cfg.arch_config(), seed=3)
        v1 = tmp_path / "v1.ckpt"
        write_records(v1, 1, [(name, t.data) for name, t in model.named_parameters()])
        code, out, err = run_cli(capsys, "eval", "--config", config_file, "--checkpoint", str(v1))
        assert code == 1 and "val loss" not in out
        assert "unsupported checkpoint version 1" in err

    def test_eval_rejects_wrong_checkpoint_shape(self, capsys, tmp_path, config_file):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"MSGT" + bytes(8))
        code, _, err = run_cli(
            capsys, "eval", "--config", config_file, "--checkpoint", str(bogus)
        )
        assert code == 1
        assert "error" in err

    def test_eval_rejects_non_utf8_tensor_name_exit_1(self, capsys, tmp_path, config_file):
        bogus = tmp_path / "name.ckpt"
        name = b"\xff\xfe"
        # one 1-element tensor whose 2-byte name is not UTF-8
        header = b"MSGT" + struct.pack("<IIH", 2, 1, len(name)) + name
        bogus.write_bytes(header + struct.pack("<BI", 1, 1) + bytes(4))
        code, _, err = run_cli(capsys, "eval", "--config", config_file, "--checkpoint", str(bogus))
        assert code == 1
        assert "not UTF-8" in err

    @pytest.mark.parametrize(
        "key,value",
        [("eval_interval", 0), ("label_smoothing", 1.5), ("optimizer", {"lr": -1e-3})],
    )
    def test_train_rejects_bad_value_exit_1(self, capsys, tmp_path, config_file, key, value):
        raw = json.loads(open(config_file).read())
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "error:" in err and "runtime error" not in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "key_path,value,message",
        [
            (("seed",), -1, "error: seed must be >= 0, got -1"),
            (("data", "seed"), -1, "error: data.seed must be >= 0, got -1"),
            (("data", "num_train"), -4, "error: data.num_train must be >= 1, got -4"),
            (("data", "num_train"), 0, "error: data.num_train must be >= 1, got 0"),
            (("data", "num_val"), 0, "error: data.num_val must be >= 1"),
            (("optimizer", "betas"), [1.0, 0.999], "error: optimizer.betas must each lie in [0, 1)"),
            (("optimizer", "betas"), [0.9, 1.0], "error: optimizer.betas must each lie in [0, 1)"),
            (("optimizer", "eps"), 0, "error: optimizer.eps must be > 0, got 0.0"),
            (("schedule", "warmup_steps"), -1, "error: schedule.warmup_steps must be >= 0, got -1"),
            (("schedule", "min_lr"), -1, "error: schedule.min_lr must lie in [0, optimizer.lr 0.001], got -1.0"),
            (("schedule", "min_lr"), 0.01, "error: schedule.min_lr must lie in [0, optimizer.lr 0.001], got 0.01"),
            (("batch_size",), 32, "error: batch_size 32 exceeds data.num_train 16"),
            (("window_size",), 0, "error: window size must be >= 1, got 0"),
        ],
    )
    def test_train_rejects_unrunnable_value_exit_1(
        self, capsys, tmp_path, config_file, key_path, value, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_apply(json.loads(open(config_file).read()), [(key_path, value)])))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert message in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_eval_rejects_bad_batch_size_exit_1(self, capsys, tmp_path, config_file, batch_size):
        raw = json.loads(open(config_file).read())
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(M.build_model(cli.parse_config(raw)[0].arch_config(), seed=0), ckpt)
        raw["batch_size"] = batch_size
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "eval", "--config", str(path), "--checkpoint", ckpt)
        assert code == 1 and "val loss" not in out
        assert f"error: batch size must be >= 1, got {batch_size}" in err and "runtime error" not in err

    def test_ablate_rejects_unknown_mode_before_making_out_dir(self, capsys, tmp_path, config_file):
        argv = ("ablate", "--mode", "bogus", "--config", config_file, "--out", str(tmp_path / "abl"))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error: unknown ablation mode 'bogus'" in err
        assert not (tmp_path / "abl").exists()

    def test_ablate_checks_every_variant_before_training_the_first(self, capsys, tmp_path, config_file):
        """A stage-1 dim of 24 splits into 2x2 regions' 4 groups but not 4x4 regions' 16: the sweep trains nothing."""
        raw = json.loads(open(config_file).read())
        del raw["arch"]
        dims, heads, blocks = (24, 32, 64, 128), (1, 2, 4, 8), (1, 1, 2, 1)
        raw["stages"] = [{"dim": d, "heads": h, "blocks": b} for d, h, b in zip(dims, heads, blocks)]
        raw.update(input_size=128, window_size=4, shuffle_sizes=[2, 2, 2, 1])
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(raw))
        argv = ("ablate", "--mode", "shuffle-size-sweep", "--config", str(path), "--out", str(tmp_path / "abl"))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error: stage 1: dim 24 does not split into shuffle size 4's 16 channel groups" in err
        assert not (tmp_path / "abl").exists()

    def test_eval_rejects_empty_val_split_exit_1(self, capsys, tmp_path, config_file):
        raw = json.loads(open(config_file).read())
        cfg, _ = cli.parse_config(raw)
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(M.build_model(cfg.arch_config(), seed=0), ckpt)
        raw["data"]["num_val"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "eval", "--config", str(path), "--checkpoint", ckpt)
        assert code == 1
        assert "error: data.num_val must be >= 1" in err and "runtime error" not in err

    def test_eval_rejects_image_size_off_the_model_input_exit_1(self, capsys, tmp_path, config_file):
        raw = json.loads(open(config_file).read())
        cfg, _ = cli.parse_config(raw)
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(M.build_model(cfg.arch_config(), seed=0), ckpt)
        raw["data"]["image_size"] = 60
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "eval", "--config", str(path), "--checkpoint", ckpt)
        assert code == 1 and "val loss" not in out
        assert "error: dataset image size 60 != model input 128" in err and "runtime error" not in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("stages", [{"dim": 16, "blocks": 1}] + FUZZ_STAGES["stages"][1:], "'stages[0].heads' must be int"),
            ("batch_size", "abc", "'batch_size' must be int, got 'abc'"),
            ("shuffle_sizes", [2, 2, 2, 1, 1], "'shuffle_sizes' must be a list of 4 values"),
            ("optimizer", {"learning_rate": 5.0}, "unknown config key 'optimizer.learning_rate'"),
            ("schedule", {"steps": 5}, "unknown config key 'schedule.steps'"),
            ("data", {"size": 128}, "unknown config key 'data.size'"),
            ("stages", [{**s, "mlp": 4} for s in FUZZ_STAGES["stages"]], "unknown config key 'stages[0].mlp'"),
            ("windows", 4, "unknown config key 'windows'"),
        ],
    )
    def test_malformed_config_exit_1_naming_key(self, capsys, tmp_path, config_file, key, value, message):
        raw = json.loads(open(config_file).read())
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert message in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "path,value,shown",
        [
            (("optimizer", "lr"), float("nan"), "nan"),
            (("optimizer", "lr"), float("inf"), "inf"),
            (("optimizer", "weight_decay"), float("inf"), "inf"),
            (("optimizer", "betas"), [float("-inf"), 0.999], "-inf"),
            (("data", "noise_sigma"), float("inf"), "inf"),
            (("data", "noise_sigma"), float("-inf"), "-inf"),
            (("label_smoothing",), float("nan"), "nan"),
            (("num_classes",), float("inf"), "inf"),
        ],
    )
    def test_non_finite_number_exit_1_naming_key(self, capsys, tmp_path, config_file, path, value, shown):
        """JSON's NaN, Infinity and -Infinity are rejected as not finite, whatever the key's type."""
        raw = json.loads(open(config_file).read())
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(tmp_path / "run"))
        assert code == 1
        assert f"error: config key '{'.'.join(path)}' must be finite, got {shown}" in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    def test_idx_label_out_of_range_exit_1(self, capsys, tmp_path, config_file):
        from msgt.data import save_idx

        images = np.zeros((24, 8, 8), dtype=np.uint8)
        labels = np.arange(24) % 4
        labels[5] = 7
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        save_idx(images, labels, ip, lp)
        raw = json.loads(open(config_file).read())
        raw["data"] = {
            "source": "idx-files", "image_size": 128, "num_train": 16, "num_val": 8,
            "images_path": ip, "labels_path": lp,
        }
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(raw))
        ckpt = str(tmp_path / "model.ckpt")  # eval reads the checkpoint before the data
        save_checkpoint(M.build_model(cli.parse_config(raw)[0].arch_config(), seed=0), ckpt)
        for argv in (["train", "--out", str(tmp_path / "run")], ["eval", "--checkpoint", ckpt]):
            code, _, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 1
            assert "label 7 at index 5" in err

    def test_missing_idx_file_exit_1_naming_it(self, capsys, tmp_path, config_file):
        from msgt.data import save_idx

        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        save_idx(np.zeros((24, 8, 8), dtype=np.uint8), np.arange(24) % 4, ip, lp)
        raw = json.loads(open(config_file).read())
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(M.build_model(cli.parse_config(raw)[0].arch_config(), seed=0), ckpt)
        gone = str(tmp_path / "gone.idx")
        for images, labels in ((gone, lp), (ip, gone)):
            raw["data"] = {
                "source": "idx-files", "image_size": 128, "num_train": 16, "num_val": 8,
                "images_path": images, "labels_path": labels,
            }
            path = tmp_path / "idx.json"
            path.write_text(json.dumps(raw))
            for argv in (["train", "--out", str(tmp_path / "run")], ["eval", "--checkpoint", ckpt]):
                code, _, err = run_cli(capsys, *argv, "--config", str(path))
                assert code == 1, err
                assert f"error: file not found: {gone}" in err and "runtime error" not in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_eval_missing_checkpoint_exit_1_before_rendering_val(self, capsys, tmp_path, config_file, monkeypatch):
        from msgt import train as TR

        rendered = []
        monkeypatch.setattr(TR, "load_data", lambda spec: rendered.append(spec))
        missing = str(tmp_path / "missing.ckpt")
        code, out, err = run_cli(capsys, "eval", "--config", config_file, "--checkpoint", missing)
        assert code == 1 and "val loss" not in out
        assert f"error: file not found: {missing}" in err and "runtime error" not in err
        assert rendered == []

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("image_size", -4, "error: data.image_size must be >= 1, got -4"),
            ("image_size", 0, "error: data.image_size must be >= 1, got 0"),
            ("noise_sigma", -1.0, "error: data.noise_sigma must be >= 0, got -1.0"),
            ("noise_sigma", float("nan"), "error: config key 'data.noise_sigma' must be finite, got nan"),
        ],
    )
    def test_gen_data_rejects_unusable_image_size_or_noise_exit_1(
        self, capsys, tmp_path, config_file, key, value, message
    ):
        raw = json.loads(open(config_file).read())
        raw["data"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))  # NaN is written as NaN, which json.load reads back
        out_dir = tmp_path / "data"
        code, _, err = run_cli(capsys, "gen-data", "--config", str(path), "--out", str(out_dir))
        assert code == 1
        assert message in err and "runtime error" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("num_classes", [5, 3])
    def test_gen_data_rejects_a_source_it_does_not_generate_exit_1(self, capsys, tmp_path, num_classes):
        """An idx-files config once crashed at 5 classes and wrote three-class textures at 3."""
        path = tmp_path / "idx.json"
        data = {"source": "idx-files", "images_path": "x", "labels_path": "y", "num_classes": num_classes}
        path.write_text(json.dumps({"data": data}))
        out_dir = tmp_path / "data"
        code, out, err = run_cli(capsys, "gen-data", "--config", str(path), "--out", str(out_dir))
        assert code == 1 and not out
        assert "error: data.source 'idx-files'" in err and "runtime error" not in err
        assert not out_dir.exists()

    def test_custom_stage_config_parses(self, tmp_path):
        raw = {
            "stages": [
                {"dim": 16, "heads": 1, "blocks": 1},
                {"dim": 32, "heads": 2, "blocks": 1},
                {"dim": 64, "heads": 4, "blocks": 1},
                {"dim": 128, "heads": 8, "blocks": 1},
            ],
            "window_size": 4,
            "shuffle_sizes": [2, 2, 2, 1],
            "input_size": 128,
            "num_classes": 4,
            "seed": 5,
        }
        cfg, data = cli.parse_config(raw)
        arch = cfg.arch_config()
        assert arch.window_size == 4
        assert [s.shuffle_size for s in arch.stages] == [2, 2, 2, 1]
        assert data.seed == 5

    def test_unrunnable_custom_stages_exit_1(self, capsys, tmp_path, config_file):
        """Stage 1's 72 channels do not split into shuffle size 4's 16 groups: exit 1 before any compute."""
        raw = json.loads(open(config_file).read())
        raw.pop("arch")
        raw.update(
            stages=[
                {"dim": 72, "heads": 2, "blocks": 1},
                {"dim": 128, "heads": 4, "blocks": 1},
                {"dim": 256, "heads": 8, "blocks": 1},
                {"dim": 512, "heads": 16, "blocks": 1},
            ],
        )
        path = tmp_path / "stages.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "error: stage 1: dim 72 does not split into shuffle size 4's 16 channel groups" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_negative_block_count_exit_1(self, capsys, tmp_path, config_file):
        raw = json.loads(open(config_file).read())
        raw.pop("arch")
        raw.update(stages=NEGATIVE_BLOCKS, window_size=4, input_size=128)
        path = tmp_path / "stages.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "error: stage 2: number of blocks must be >= 0, got -2" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_window_size_applies_to_presets_and_the_default_and_trains(self, capsys, tmp_path, config_file):
        for raw in ({"arch": "micro", "window_size": 2}, {"window_size": 2}):
            assert cli.parse_config(raw)[0].arch_config() == M.micro_config(window_size=2)
        raw = json.loads(open(config_file).read())
        raw["window_size"] = 2
        path = tmp_path / "window2.json"
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(out_dir))
        assert code == 0, err
        model = load_checkpoint(str(out_dir / "model.ckpt"), M.micro_config(window_size=2))
        assert model.stages[0][0].bias_table.shape == (1, 3, 3)

    def test_preset_keeps_task_and_input_size(self):
        cfg, _ = cli.parse_config({"arch": "micro", "task": "det-backbone", "input_size": 96})
        arch = cfg.arch_config()
        assert (arch.task, arch.input_size) == ("det-backbone", 96)
        assert arch.stages == M.micro_config().stages
        with pytest.raises(ConfigError, match="unknown arch preset"):
            cli.parse_config({"arch": "huge", "task": "cls"})

    def test_train_rejects_det_backbone_exit_1(self, capsys, tmp_path, config_file):
        raw = json.loads(open(config_file).read())
        raw["task"] = "det-backbone"
        path = tmp_path / "det.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "det-backbone" in err and "runtime error" not in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_data_classes_beyond_head_exit_1(self, capsys, tmp_path, config_file):
        from msgt.data import save_idx

        images = np.zeros((24, 8, 8), dtype=np.uint8)
        labels = np.arange(24) % 10
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        save_idx(images, labels, ip, lp)
        raw = json.loads(open(config_file).read())
        raw["data"] = {
            "source": "idx-files", "image_size": 128, "num_classes": 10, "num_train": 16,
            "num_val": 8, "images_path": ip, "labels_path": lp,
        }
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(raw))
        for argv in (["train", "--out", str(tmp_path / "run")], ["eval", "--checkpoint", str(tmp_path / "none.ckpt")]):
            code, _, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 1
            assert "dataset has 10 classes but the model head has 4" in err

    def test_seed_flag_overrides_config(self, config_file):
        cfg, _ = cli.parse_config(json.loads(open(config_file).read()), seed_override=99)
        assert cfg.seed == 99
