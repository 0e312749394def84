"""Tensor container and label file round trips, strict validation."""

import re

import numpy as np
import pytest

from tring.fileio import (
    FileFormatError,
    atomic_write_bytes,
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

    @pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.array(2.5)],
                             ids=["float", "numpy scalar", "0-d array"])
    def test_order_zero_refused_on_write(self, tmp_path, value):
        # read_tensor rejects order 0, so the writer refuses it too, rather
        # than writing a (1,) tensor that reads back with another shape.
        with pytest.raises(FileFormatError, match="order-0"):
            write_tensor(tmp_path / "scalar.ten", value)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("header, message", [
        ((0).to_bytes(4, "little"), "tensor order must be >= 1, got 0"),
        ((3).to_bytes(4, "little") + (2).to_bytes(8, "little") * 2, "truncated header"),
    ], ids=["order_0", "truncated_header"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "h.ten"
        path.write_bytes(b"TEN1" + header)
        with pytest.raises(FileFormatError, match=message):
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

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7, -2.9], [0.0, 1.5], [np.nan], [], [[0, 1]]],
        ids=["fractions", "half", "nan", "empty", "2-D"],
    )
    def test_write_refuses_what_it_would_truncate(self, tmp_path, labels):
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match="labels must be"):
            write_labels(path, labels)
        assert not path.exists()

    def test_write_takes_integer_valued_floats_exactly(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, np.array([2.0, -0.0, 7.0]))
        assert path.read_text() == "2\n0\n7\n"

    def test_byte_order_mark_accepted(self, tmp_path):
        # Some editors start a UTF-8 file with U+FEFF; it is not part of a label.
        path = tmp_path / "labels.txt"
        path.write_bytes(b"\xef\xbb\xbf0\n1\n")
        assert np.array_equal(read_labels(path), [0, 1])

    def test_non_integer_line_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\nfoo\n1\n")
        with pytest.raises(FileFormatError):
            read_labels(path)

    @pytest.mark.parametrize("line", ["1_0", "\u0663", "\uff11", "+-1", "0x1", "1.0",
                                      "99999999999999999999", "9223372036854775808",
                                      "-9223372036854775809"])
    def test_label_outside_the_grammar_named(self, tmp_path, line):
        # int() alone reads "1_0" as 10, Arabic-Indic three as 3 and a
        # fullwidth one as 1; a label beyond int64 escaped as OverflowError.
        path = tmp_path / "labels.txt"
        path.write_text(f"0\n{line}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"bad label on line 2: {line!r}")):
            read_labels(path)

    def test_signed_ascii_labels_within_int64_read(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(" 7 \n+3\n-2\n007\n9223372036854775807\n-9223372036854775808\n")
        assert read_labels(path).tolist() == [7, 3, -2, 7, 2**63 - 1, -(2**63)]

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n  \n1\n")
        with pytest.raises(FileFormatError, match="blank line 2"):
            read_labels(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_labels(path)

    def test_undecodable_file_is_a_format_error_naming_the_path(self, tmp_path):
        # A binary file handed over as labels, e.g. the data tensor itself.
        path = tmp_path / "labels.ten"
        write_tensor(path, np.full((2, 2), -1.0))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: not a text labels file")):
            read_labels(path)


def test_failed_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"kept")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "text, not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert path.read_bytes() == b"kept"


def test_sha256_matches_known_digest(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
