"""Checkpoint round-trip and validation tests."""

import gc
import hashlib
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from msgt import checkpoint as CK
from msgt import model as M
from msgt import tensor as T
from msgt.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from msgt.errors import FormatError
from msgt.tensor import Tensor


@pytest.fixture(scope="module")
def micro_model():
    return M.build_model(M.micro_config(), seed=11)


def test_round_trip_is_bit_identical(micro_model, tmp_path):
    path = str(tmp_path / "ckpt.msgt")
    save_checkpoint(micro_model, path)
    loaded = load_checkpoint(path, M.micro_config())
    for (na, ta), (nb, tb) in zip(micro_model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


# size and SHA-256 of the golden version-2 file for the seed-11 micro model:
# a change to the layout, the value bytes or the init fails here
GOLDEN_MICRO_SEED11 = (1_662_433, "8449990cdab552f864264e093a25cd12beaa249a968f99562aed8d8760b40570")


def write_records(path, version, records) -> None:
    """A checkpoint file of ``version`` holding the (name, array) ``records`` in order."""
    blob = bytearray(MAGIC + struct.pack("<II", version, len(records)))
    for name, data in records:
        blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape) + np.ascontiguousarray(data, dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))


def test_saved_bytes_equal_the_golden_file(micro_model, tmp_path):
    path = tmp_path / "ckpt.msgt"
    save_checkpoint(micro_model, str(path))
    blob = path.read_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == GOLDEN_MICRO_SEED11


@pytest.mark.parametrize(
    "version,change,message",
    [(2, "add stage1.block0.bias.msg_query", "unknown tensor 'stage1.block0.bias.msg_query'")],
)
def test_version1_names_are_checked(micro_model, tmp_path, version, change, message):
    """A name only version 1 held is unknown to a version-2 model."""
    name = change.split()[1]
    records = [(n, t.data) for n, t in micro_model.named_parameters()] + [(name, np.ones(1, np.float32))]
    path = tmp_path / "bad.msgt"
    write_records(path, version, records)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_checkpoint(str(path), M.micro_config())


def test_load_fills_the_built_model_in_place(tmp_path):
    # micro at four times the channels: MB-scale tensors, still quick to build
    micro = M.micro_config()
    cfg = replace(micro, stages=tuple(replace(s, dim=4 * s.dim) for s in micro.stages))
    path = str(tmp_path / "wide.msgt")
    model = M.build_model(cfg, seed=3)
    model_bytes = sum(t.data.nbytes for t in model.parameters())
    save_checkpoint(model, path)
    del model
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for t in loaded.parameters()) == model_bytes
    assert peak <= 1.05 * model_bytes + 2 * 2**20, f"{peak:,} bytes at the traced peak for a {model_bytes:,}-byte model"


def test_eval_logits_preserved_exactly(micro_model, tmp_path):
    path = str(tmp_path / "ckpt.msgt")
    save_checkpoint(micro_model, path)
    loaded = load_checkpoint(path, M.micro_config())
    x = Tensor(np.random.default_rng(0).standard_normal((1, 128, 128, 3)).astype(np.float32))
    with T.no_grad():
        a = M.forward(micro_model, x).data
        b = M.forward(loaded, x).data
    np.testing.assert_array_equal(a, b)


def test_corrupt_magic_rejected_immediately(tmp_path):
    path = tmp_path / "bad.msgt"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(path), M.micro_config())


def test_version_mismatch_rejected(micro_model, tmp_path):
    """Only version 2 loads; version 1, whose read path is gone, is named like any other."""
    path = tmp_path / "ver.msgt"
    save_checkpoint(micro_model, str(path))
    blob = bytearray(path.read_bytes())
    for version in (1, 99):
        blob[4] = version  # little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"version {version}$"):
            load_checkpoint(str(path), M.micro_config())


def test_shape_mismatch_names_first_bad_tensor(micro_model, tmp_path):
    path = str(tmp_path / "ckpt.msgt")
    save_checkpoint(micro_model, path)
    # a micro checkpoint cannot fill a tiny model
    with pytest.raises(FormatError, match="embed.weight"):
        load_checkpoint(path, M.tiny_config())


def test_truncated_file_rejected(micro_model, tmp_path):
    path = tmp_path / "trunc.msgt"
    save_checkpoint(micro_model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(str(path), M.micro_config())


def _one_tensor_file(path, extents, name=b"embed.weight"):
    """A checkpoint with one tensor record whose values are cut to 16 bytes."""
    blob = MAGIC + struct.pack("<II", 2, 1) + struct.pack("<H", len(name)) + name
    blob += struct.pack("<B", len(extents)) + struct.pack(f"<{len(extents)}I", *extents)
    path.write_bytes(blob + bytes(16))


def test_extents_whose_size_wraps_int64_rejected(tmp_path):
    # 4e9 ** 3 elements wrap a 64-bit product to a negative read length
    path = tmp_path / "wrap.msgt"
    _one_tensor_file(path, (4_000_000_000,) * 3)
    with pytest.raises(FormatError, match="'embed.weight'.*needs"):
        load_checkpoint(str(path), M.micro_config())


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "name.msgt"
    _one_tensor_file(path, (2, 2), name=b"\xff\xfe")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(str(path), M.micro_config())


def test_extents_beyond_file_rejected_before_reading(tmp_path, monkeypatch):
    # 65536 x 65536 floats is 16 GiB: the loader must refuse without asking for it
    path = tmp_path / "huge.msgt"
    _one_tensor_file(path, (65536, 65536, 1))
    size = path.stat().st_size

    class Guarded:
        def __init__(self, f):
            self.f = f

        def read(self, n=-1):
            assert n <= size, f"loader asked for {n} bytes of a {size}-byte file"
            return self.f.read(n)

        def __getattr__(self, attr):
            return getattr(self.f, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(CK, "open", lambda p, mode: Guarded(open(p, mode)), raising=False)
    with pytest.raises(FormatError, match="'embed.weight'.*needs 17179869184 bytes"):
        load_checkpoint(str(path), M.micro_config())


def test_magic_bytes_literal(micro_model, tmp_path):
    path = tmp_path / "ckpt.msgt"
    save_checkpoint(micro_model, str(path))
    assert path.read_bytes()[:4] == MAGIC == b"MSGT"


def test_failed_save_leaves_previous_file_intact(micro_model, tmp_path, monkeypatch):
    path = tmp_path / "ckpt.msgt"
    save_checkpoint(micro_model, str(path))
    before = path.read_bytes()
    params = micro_model.named_parameters()

    def broken():
        # a tensor whose data cannot be serialized, after some bytes are written
        return params[:3] + [("broken", object())]

    monkeypatch.setattr(micro_model, "named_parameters", broken)
    with pytest.raises(AttributeError):
        save_checkpoint(micro_model, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.msgt"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_names_first_bad_tensor(micro_model, tmp_path, bad):
    path = tmp_path / "ckpt.msgt"
    save_checkpoint(micro_model, str(path))
    names = [n for n, _ in micro_model.named_parameters()]
    blob = bytearray(path.read_bytes())
    # poison the last value of the third and fifth tensors; the third is reported
    for victim in (names[2], names[4]):
        tensor = dict(micro_model.named_parameters())[victim]
        header = struct.pack("<H", len(victim)) + victim.encode()
        start = blob.index(header) + len(header) + 1 + 4 * tensor.data.ndim
        end = start + 4 * tensor.data.size
        blob[end - 4 : end] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=re.escape(repr(names[2])) + ".*NaN or Inf"):
        load_checkpoint(str(path), M.micro_config())
    assert path.read_bytes() == bytes(blob)


def test_duplicated_tensor_rejected(micro_model, tmp_path):
    path = tmp_path / "dup.msgt"
    save_checkpoint(micro_model, str(path))
    blob = bytearray(path.read_bytes())
    name, tensor = micro_model.named_parameters()[0]
    # repeat the first tensor record right after it, filled with 7.0
    head = struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", tensor.data.ndim)
    head += struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape)
    copy = head + np.full(tensor.data.size, 7.0, dtype="<f4").tobytes()
    end = 12 + len(copy)
    blob[8:12] = struct.pack("<I", len(micro_model.named_parameters()) + 1)
    path.write_bytes(bytes(blob[:end] + copy + blob[end:]))
    with pytest.raises(FormatError, match=re.escape(repr(name)) + ".*twice"):
        load_checkpoint(str(path), M.micro_config())


def test_trailing_bytes_rejected(micro_model, tmp_path):
    path = tmp_path / "tail.msgt"
    save_checkpoint(micro_model, str(path))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(FormatError, match="trailing bytes"):
        load_checkpoint(str(path), M.micro_config())


def test_missing_name_reported_before_unknown_name(micro_model, tmp_path):
    path = tmp_path / "renamed.msgt"
    save_checkpoint(micro_model, str(path))
    old, new = struct.pack("<H", 10) + b"embed.bias", struct.pack("<H", 10) + b"embed.bixs"
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(FormatError, match="missing tensor 'embed.bias'"):
        load_checkpoint(str(path), M.micro_config())
