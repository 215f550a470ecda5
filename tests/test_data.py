"""Dataset tests: synthetic texture generation and the IDX binary format."""

import hashlib
import re
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from msgt import data as D
from msgt import train as TR
from msgt.errors import ConfigError, FormatError

# sha256 of images.tobytes(): the (N, S, S, 3) float32 bytes of three equal
# channels, which the one stored channel must read back as
SMALL_SPEC = D.DatasetSpec(num_train=12, num_val=4, image_size=16, seed=11)
SMALL_SPEC_SHA256 = "8eea18ca2504553fd430735f635fffeadb44a20db9246d81531e3dcc8043cc8b"
HAND_BUILT_IDX_SHA256 = "dad0fcc5138692f3844536fd2a617bed3e1ecc33b790e4e71d2d8ca20adfc788"


def read_idx(images_path: str, labels_path: str, image_size: int) -> D.Dataset:
    """Every row of an IDX pair, read as a run reads them: the train split of ``load_data``, as many
    rows as the labels header counts. A file too short for a header is left to the loader to reject."""
    with open(labels_path, "rb") as f:
        head = f.read(8)
    spec = D.DatasetSpec(
        source="idx-files", image_size=image_size, num_train=struct.unpack(">ii", head)[1] if len(head) == 8 else 1,
        num_val=0, images_path=images_path, labels_path=labels_path,
    )
    return D.load_data(spec)[0]


def classify_by_orientation(images: np.ndarray) -> np.ndarray:
    """Independent oracle: dominant Fourier-peak angle, snapped to the class grid.

    A grating at angle theta concentrates spectral energy at +-freq*(cos,
    sin)(theta); the argmax bin's angle mod 180 degrees identifies the class.
    """
    n = images.shape[0]
    out = np.empty(n, dtype=np.int64)
    class_angles = np.deg2rad(np.asarray(D.ORIENTATIONS_DEG))
    for i in range(n):
        gray = images[i].mean(axis=-1)
        spectrum = np.abs(np.fft.fft2(gray - gray.mean()))
        spectrum[0, 0] = 0.0
        ky, kx = np.unravel_index(np.argmax(spectrum), spectrum.shape)
        size = gray.shape[0]
        ky = ky - size if ky > size // 2 else ky
        kx = kx - size if kx > size // 2 else kx
        angle = np.arctan2(ky, kx) % np.pi
        diffs = np.abs(angle - class_angles)
        diffs = np.minimum(diffs, np.pi - diffs)
        out[i] = int(np.argmin(diffs))
    return out


class TestSynthetic:
    def test_identical_spec_and_seed_give_identical_bytes(self):
        spec = D.DatasetSpec(num_train=64, num_val=16, image_size=32, seed=7)
        a = D.generate_synthetic(spec)
        b = D.generate_synthetic(spec)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seed_differs(self):
        base = D.DatasetSpec(num_train=32, num_val=0, image_size=32, seed=1)
        other = D.DatasetSpec(num_train=32, num_val=0, image_size=32, seed=2)
        assert D.generate_synthetic(base).images.tobytes() != D.generate_synthetic(other).images.tobytes()

    def test_classes_exactly_balanced(self):
        spec = D.DatasetSpec(num_train=96, num_val=32, image_size=32, seed=3)
        ds = D.generate_synthetic(spec)
        counts = np.bincount(ds.labels, minlength=4)
        assert (counts == (96 + 32) // 4).all()

    def test_values_in_unit_interval(self):
        ds = D.generate_synthetic(D.DatasetSpec(num_train=16, num_val=0, image_size=32, seed=4))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_noiseless_classes_separable_by_orientation_oracle(self):
        spec = D.DatasetSpec(num_train=64, num_val=0, image_size=32, seed=5, noise_sigma=0.0)
        ds = D.generate_synthetic(spec)
        predicted = classify_by_orientation(ds.images)
        assert (predicted == ds.labels).mean() == 1.0

    def test_oracle_robust_to_default_noise(self):
        spec = D.DatasetSpec(num_train=64, num_val=0, image_size=32, seed=6)
        ds = D.generate_synthetic(spec)
        predicted = classify_by_orientation(ds.images)
        assert (predicted == ds.labels).mean() >= 0.95

    def test_split_sizes(self):
        spec = D.DatasetSpec(num_train=48, num_val=16, image_size=32, seed=8)
        train, val = D.load_data(spec)
        assert len(train) == 48 and len(val) == 16

    def test_uneven_class_split_rejected(self):
        with pytest.raises(ConfigError):
            D.DatasetSpec(num_train=13, num_val=0).validate()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("image_size", 0, "data.image_size must be >= 1, got 0"),
            ("image_size", -4, "data.image_size must be >= 1, got -4"),
            ("noise_sigma", -1.0, "data.noise_sigma must be >= 0, got -1.0"),
            ("noise_sigma", float("nan"), "data.noise_sigma must be >= 0, got nan"),
        ],
    )
    def test_unusable_image_size_or_noise_rejected(self, key, value, message):
        spec = replace(D.DatasetSpec(num_train=4, num_val=0, image_size=16), **{key: value})
        with pytest.raises(ConfigError, match=re.escape(message)):
            D.generate_synthetic(spec)


class TestIdx:
    @staticmethod
    def hand_built_fixture(tmp_path):
        """Four 3x2 images written byte-by-byte, independent of save_idx."""
        images_path = tmp_path / "imgs.idx3-ubyte"
        labels_path = tmp_path / "lbls.idx1-ubyte"
        payload = bytes(range(4 * 3 * 2))
        with open(images_path, "wb") as f:
            f.write(struct.pack(">i", 0x00000803))
            f.write(struct.pack(">iii", 4, 3, 2))
            f.write(payload)
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">i", 0x00000801))
            f.write(struct.pack(">i", 4))
            f.write(bytes([0, 1, 2, 3]))
        return str(images_path), str(labels_path)

    def test_hand_built_fixture_loads(self, tmp_path):
        images_path, labels_path = self.hand_built_fixture(tmp_path)
        ds = read_idx(images_path, labels_path, 8)
        assert ds.images.shape == (4, 8, 8, 3)
        np.testing.assert_array_equal(ds.labels, [0, 1, 2, 3])
        # centered: 3 rows starting at (8-3)//2=2, 2 cols starting at 3
        assert ds.images[0, 2, 3, 0] == 0.0
        assert ds.images[0, 2, 4, 0] == pytest.approx(1 / 255)
        assert ds.images[0, 1, :, :].sum() == 0.0

    def test_round_trip_through_writer(self, tmp_path):
        rng = np.random.default_rng(9)
        images = rng.integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
        labels = np.array([0, 1, 2, 3, 0], dtype=np.int64)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        D.save_idx(images, labels, ip, lp)
        ds = read_idx(ip, lp, 6)
        np.testing.assert_allclose(ds.images[..., 0], images.astype(np.float32) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_count_mismatch_rejected(self, tmp_path):
        images_path, labels_path = self.hand_built_fixture(tmp_path)
        bad_labels = tmp_path / "bad.idx"
        with open(bad_labels, "wb") as f:
            f.write(struct.pack(">ii", 0x00000801, 3))
            f.write(bytes([0, 1, 2]))
        with pytest.raises(FormatError, match="count"):
            read_idx(images_path, str(bad_labels), 8)

    def test_empty_file_rejected_at_offset_zero(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(b"")
        with pytest.raises(FormatError, match="offset 0"):
            read_idx(str(empty), str(empty), 8)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">iiii", 0x12345678, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match="magic"):
            read_idx(str(bad), str(bad), 8)

    def test_truncated_payload_names_offset(self, tmp_path):
        trunc = tmp_path / "trunc.idx"
        trunc.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + bytes(5))
        with pytest.raises(FormatError, match="offset"):
            read_idx(str(trunc), str(trunc), 8)

    def test_oversized_images_rejected(self, tmp_path):
        images_path, labels_path = self.hand_built_fixture(tmp_path)
        with pytest.raises(ConfigError):
            read_idx(images_path, labels_path, 2)

    def test_writer_rejects_labels_above_one_byte(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        with pytest.raises(ConfigError, match="256"):
            D.save_idx(images, np.array([3, 256]), ip, lp)
        with pytest.raises(ConfigError, match="-1"):
            D.save_idx(images, np.array([-1, 0]), ip, lp)


class TestStorage:
    @staticmethod
    def both_sources(tmp_path):
        idx = read_idx(*TestIdx.hand_built_fixture(tmp_path), 8)
        return {"synthetic": D.generate_synthetic(SMALL_SPEC), "idx": idx}

    def test_one_stored_channel_behind_a_read_only_rgb_view(self, tmp_path):
        for source, ds in self.both_sources(tmp_path).items():
            n, size = len(ds), ds.images.shape[1]
            assert ds.images.shape == (n, size, size, 3) and ds.images.dtype == np.float32, source
            assert ds.gray.nbytes == n * size * size * 4 and np.shares_memory(ds.images, ds.gray), source
            assert not ds.images.flags.writeable, source
            with pytest.raises(ValueError):
                ds.images[0, 0, 0, 0] = 0.5

    def test_bytes_equal_the_three_channel_layout(self, tmp_path):
        digests = {k: hashlib.sha256(ds.images.tobytes()).hexdigest() for k, ds in self.both_sources(tmp_path).items()}
        assert digests == {"synthetic": SMALL_SPEC_SHA256, "idx": HAND_BUILT_IDX_SHA256}

    def test_val_split_owns_its_rows(self):
        full = D.generate_synthetic(SMALL_SPEC)
        expected = full.images[12:16].tobytes(), full.labels[12:16].tobytes()
        train, val = D.load_data(SMALL_SPEC)
        stored = weakref.ref(train.gray)
        del train
        assert stored() is None
        assert (val.images.tobytes(), val.labels.tobytes()) == expected
        assert val.gray.base is None and val.gray.nbytes == 4 * 16 * 16 * 4 and not val.images.flags.writeable

    @staticmethod
    def split_specs(tmp_path):
        images_path, labels_path = TestIdx.hand_built_fixture(tmp_path)
        idx = D.DatasetSpec(
            source="idx-files", image_size=8, num_train=2, num_val=1, images_path=images_path, labels_path=labels_path
        )
        return {
            "synthetic": (SMALL_SPEC, D.generate_synthetic(SMALL_SPEC)),
            "idx": (idx, read_idx(images_path, labels_path, 8)),  # 4 rows: the last is in neither split
        }

    def test_each_split_owns_exactly_its_rows(self, tmp_path):
        for source, (spec, full) in self.split_specs(tmp_path).items():
            t, v = spec.num_train, spec.num_val
            train, val = D.load_data(spec)
            for split, rows in ((train, slice(0, t)), (val, slice(t, t + v))):
                assert split.gray.base is None and split.labels.base is None, source
                assert split.gray.nbytes == full.gray[rows].nbytes, source
                assert split.gray.tobytes() == full.gray[rows].tobytes(), source
                assert split.labels.dtype == np.int64 and split.labels.tobytes() == full.labels[rows].tobytes(), source
            assert not np.shares_memory(train.gray, val.gray), source

    def test_idx_splits_need_enough_rows_and_known_labels(self, tmp_path):
        spec, _ = self.split_specs(tmp_path)["idx"]
        with pytest.raises(ConfigError, match="dataset has 4 samples, need 5"):
            D.load_data(replace(spec, num_train=4))
        with pytest.raises(ConfigError, match="IDX label 3 at index 3 is out of range for num_classes=3"):
            D.load_data(replace(spec, num_classes=3))

    def test_center_images_gives_the_dense_bits(self):
        ds = D.generate_synthetic(SMALL_SPEC)
        dense = np.ascontiguousarray(ds.images)
        gather = np.array([5, 0, 9, 3])
        cases = {
            "broadcast slice": (ds.images[2:6], dense[2:6]),
            "fancy-index gather": (ds.images[gather], dense[gather]),
            "dense": (dense[2:6], dense[2:6]),
        }
        for case, (images, reference) in cases.items():
            out = TR.center_images(images)
            assert out.tobytes() == (reference * 2.0 - 1.0).tobytes(), case
            assert out.dtype == np.float32 and out.shape == reference.shape, case
            assert out.flags.c_contiguous and out.flags.writeable, case
