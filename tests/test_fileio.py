"""Tensor container and label file round trips, strict validation."""

import numpy as np
import pytest

from tring.fileio import (
    FileFormatError,
    read_labels,
    read_tensor,
    sha256_file,
    write_labels,
    write_tensor,
)


class TestTensorFile:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 5)])
    def test_round_trip_bit_exact(self, tmp_path, shape):
        x = np.random.default_rng(0).random(shape)
        path = tmp_path / "t.ten"
        write_tensor(path, x)
        y = read_tensor(path)
        assert y.shape == x.shape
        assert np.array_equal(x, y)

    def test_header_layout(self, tmp_path):
        x = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "t.ten"
        write_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"TEN1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 4 + 4 + 16 + 48
        assert np.frombuffer(raw, "<f8", offset=24)[0] == 0.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ten"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        x = np.ones((2, 2))
        path = tmp_path / "t.ten"
        write_tensor(path, x)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        x = np.ones((2, 2))
        path = tmp_path / "t.ten"
        write_tensor(path, x)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_nan_payload_rejected_on_load(self, tmp_path):
        path = tmp_path / "nan.ten"
        header = b"TEN1" + (1).to_bytes(4, "little") + (2).to_bytes(8, "little")
        payload = np.array([1.0, np.nan]).astype("<f8").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_inf_refused_on_write(self, tmp_path):
        with pytest.raises(FileFormatError):
            write_tensor(tmp_path / "inf.ten", np.array([1.0, np.inf]))

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "z.ten"
        header = b"TEN1" + (1).to_bytes(4, "little") + (0).to_bytes(8, "little")
        path.write_bytes(header)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_declared_size_beyond_int64_rejected(self, tmp_path):
        # 2**32 * 2**32 entries wraps to 0 in int64, which an empty payload
        # would match; the size must be checked without wrap-around.
        path = tmp_path / "huge.ten"
        path.write_bytes(b"TEN1" + (2).to_bytes(4, "little")
                         + (2**32).to_bytes(8, "little") * 2)
        assert len(path.read_bytes()) == 24
        with pytest.raises(FileFormatError, match="payload length"):
            read_tensor(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(tmp_path / "absent.ten")


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 3, 1, 1, 2])
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        assert path.read_text() == "0\n3\n1\n1\n2\n"
        assert np.array_equal(read_labels(path), labels)

    def test_non_integer_line_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\nfoo\n1\n")
        with pytest.raises(FileFormatError):
            read_labels(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_labels(path)


def test_sha256_matches_known_digest(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
