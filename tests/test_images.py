"""PGM/PPM parsing, area-average resizing, corpus ingestion, montage."""

import math

import numpy as np
import pytest

from tring.fileio import FileFormatError
from tring.images import (
    _overlap_weights,
    area_resize,
    ingest_images,
    montage,
    read_pnm,
    to_uint8,
    write_pnm,
)


def make_pgm(path, pixels, maxval=255):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes())


def make_ppm(path, pixels, maxval=255):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes())


def overlap_weights_oracle(n_in, n_out):
    """Per-cell loop: row o weights input cell i by its overlap with
    [o, o+1) * n_in / n_out, divided by that interval's length."""
    w = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for o in range(n_out):
        lo, hi = o * scale, (o + 1) * scale
        for i in range(int(math.floor(lo)), min(int(math.ceil(hi)), n_in)):
            w[o, i] = min(hi, i + 1) - max(lo, i)
    return w / scale


def ingest_oracle(root, height, width):
    """One resize per file from the loop weights, then one ``np.stack``."""
    slices, labels = [], []
    for ci, cdir in enumerate(sorted(p for p in root.iterdir() if p.is_dir())):
        for f in sorted(cdir.iterdir()):
            img = read_pnm(f)
            rows = overlap_weights_oracle(img.shape[0], height)
            cols = overlap_weights_oracle(img.shape[1], width)
            out = np.tensordot(np.tensordot(rows, img, axes=(1, 0)), cols, axes=(1, 1))
            slices.append(np.moveaxis(out, -1, 1) if img.ndim == 3 else out)
            labels.append(ci)
    return np.stack(slices, axis=-1), np.asarray(labels)


class TestReadPnm:
    def test_two_by_two_pgm_normalization(self, tmp_path):
        p = tmp_path / "a.pgm"
        make_pgm(p, [[0, 255], [0, 255]])
        img = read_pnm(p)
        assert np.array_equal(img, [[0.0, 1.0], [0.0, 1.0]])

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
        assert np.array_equal(read_pnm(p), [[0.0, 1.0]])

    def test_ppm_channels(self, tmp_path):
        p = tmp_path / "a.ppm"
        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 1] = (255, 0, 128)
        make_ppm(p, px)
        img = read_pnm(p)
        assert img.shape == (1, 2, 3)
        assert img[0, 1, 0] == 1.0 and img[0, 1, 2] == pytest.approx(128 / 255)

    def test_sixteen_bit_big_endian(self, tmp_path):
        p = tmp_path / "w.pgm"
        data = np.array([[0, 65535]], dtype=">u2")
        p.write_bytes(b"P5\n2 1\n65535\n" + data.tobytes())
        assert np.array_equal(read_pnm(p), [[0.0, 1.0]])

    def test_ascii_format_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(FileFormatError):
            read_pnm(p)

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FileFormatError):
            read_pnm(p)

    @pytest.mark.parametrize(
        "data, error",
        [
            pytest.param(b"", "truncated header", id="empty"),
            pytest.param(b"# only a comment\n", "truncated header", id="comment-only"),
            pytest.param(b"P5", "truncated header", id="magic-only"),
            pytest.param(b"P5 2", "truncated header", id="no-height"),
            pytest.param(b"P5\n2 1\n", "truncated header", id="no-maxval"),
            pytest.param(b"P5\n2 1\n# maxval\n", "truncated header", id="comment-for-maxval"),
            pytest.param(b"P5 2 1 # c", "truncated header", id="comment-for-maxval-at-end"),
            pytest.param(b"P5\nx\n", "malformed header", id="malformed-before-missing"),
            pytest.param(b"P5\n2 1 2#5\n\x00\x01", "malformed header", id="hash-inside-token"),
            pytest.param(b"P5\n2#1 1\n255\n\x00\x01", "malformed header", id="hash-inside-width"),
            # int() alone reads b"1_0" as 10 and b"+2" as 2.
            pytest.param(b"P5\n1_0 1\n255\n" + bytes(10), "malformed header", id="underscore"),
            pytest.param(b"P5\n+2 1\n255\n\x00\x01", "malformed header", id="signed"),
            pytest.param(b"P5\n2 1\n2\xd9\xa3\n\x00\x01", "malformed header", id="non-ascii-digit"),
            pytest.param(b"P5#c\n2 1 255\n\x00\x01", "unsupported format", id="hash-after-magic"),
            pytest.param(b"P5\n0 1\n255\n", "bad dimensions or maxval", id="zero-width"),
            pytest.param(b"P5\n1 1\n65536\n\x00\x00", "bad dimensions or maxval", id="maxval"),
            pytest.param(b"P5\n1 1\n255", "truncated raster data", id="no-raster"),
            pytest.param(b"P5\n2 1\n100\n\x00\xc8", "sample 200 above maxval 100",
                         id="sample-above-maxval"),
            pytest.param(b"P5\n1 1\n1000\n\x03\xe9", "sample 1001 above maxval 1000",
                         id="16-bit-sample-above-maxval"),
        ],
    )
    def test_header_errors(self, tmp_path, data, error):
        p = tmp_path / "e.pgm"
        p.write_bytes(data)
        with pytest.raises(FileFormatError, match=error):
            read_pnm(p)

    def test_header_whitespace_and_comments(self, tmp_path):
        # Any byte str.isspace accepts separates tokens, and a comment may
        # run straight into the next token's line.
        p = tmp_path / "w.pgm"
        p.write_bytes(b"#lead\nP5\x85 2\xa0#x\n1\x1c255\n\x00\xff")
        assert np.array_equal(read_pnm(p), [[0.0, 1.0]])

    def test_comment_after_every_header_token(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6 # c\n1 # d\n1\n255\n\x01\x02\x03")
        assert np.array_equal(read_pnm(p), np.array([[[1, 2, 3]]]) / 255)

    # The 12 bytes str.isspace accepts, each the only separator of a header,
    # including the one byte between maxval and the raster.
    @pytest.mark.parametrize(
        "sep", [bytes([c]) for c in b"\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0"],
        ids=lambda sep: f"0x{sep[0]:02x}",
    )
    def test_every_space_byte_separates_tokens(self, tmp_path, sep):
        assert chr(sep[0]).isspace()
        p = tmp_path / "s.pgm"
        p.write_bytes(sep.join([b"P5", b"2", b"1", b"255", b"\x00\xff"]))
        assert np.array_equal(read_pnm(p), [[0.0, 1.0]])

    # Neighbours of separators that are not separators: inside a number they
    # make the field malformed.
    @pytest.mark.parametrize("byte", [b"\x1b", b"\x84"], ids=["0x1b", "0x84"])
    @pytest.mark.parametrize("field", range(3), ids=["width", "height", "maxval"])
    def test_non_space_byte_in_a_number_is_malformed(self, tmp_path, byte, field):
        fields = [b"2", b"1", b"255"]
        fields[field] += byte
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P5\n" + b" ".join(fields) + b"\n\x00\xff")
        with pytest.raises(FileFormatError, match="malformed header"):
            read_pnm(p)


class TestWritePnm:
    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, size=(4, 5)).astype(np.uint8)
        p = tmp_path / "r.pgm"
        write_pnm(p, img)
        assert np.array_equal(read_pnm(p), img / 255.0)

    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, size=(3, 2, 3)).astype(np.uint8)
        p = tmp_path / "r.ppm"
        write_pnm(p, img)
        assert np.array_equal(read_pnm(p), img / 255.0)

    @pytest.mark.parametrize("shape, magic", [((2, 1), b"P5"), ((2, 1, 3), b"P6")])
    def test_magic_from_shape(self, tmp_path, shape, magic):
        img = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
        p = tmp_path / "m.pnm"
        write_pnm(p, img)
        assert p.read_bytes() == magic + b"\n1 2\n255\n" + img.tobytes()

    @pytest.mark.parametrize("img, message", [
        (np.zeros((2, 2, 4), dtype=np.uint8), r"\(h, w\) or \(h, w, 3\)"),
        (np.zeros((2, 2, 1), dtype=np.uint8), r"\(h, w\) or \(h, w, 3\)"),
        (np.zeros(4, dtype=np.uint8), r"\(h, w\) or \(h, w, 3\)"),
        (np.zeros((2, 2)), "uint8"),
        # read_pnm rejects a zero width or height, so the writer refuses them too.
        (np.zeros((0, 5), dtype=np.uint8), r"with pixels, got shape \(0, 5\)"),
        (np.zeros((4, 0), dtype=np.uint8), r"with pixels, got shape \(4, 0\)"),
        (np.zeros((0, 5, 3), dtype=np.uint8), r"with pixels, got shape \(0, 5, 3\)"),
    ])
    def test_other_arrays_rejected(self, tmp_path, img, message):
        p = tmp_path / "bad.pnm"
        with pytest.raises(ValueError, match=message):
            write_pnm(p, img)
        assert not p.exists()


class TestOverlapWeights:
    @pytest.mark.parametrize(
        "n_in, n_out", [(128, 32), (7, 3), (3, 7), (5, 5), (1, 1), (1000, 33)]
    )
    def test_matches_loop_oracle_bitwise(self, n_in, n_out):
        w = _overlap_weights(n_in, n_out)
        want = overlap_weights_oracle(n_in, n_out)
        assert w.dtype == want.dtype and w.tobytes() == want.tobytes()

    def test_cached_read_only(self):
        w = _overlap_weights(9, 4)
        assert _overlap_weights(9, 4) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


class TestAreaResize:
    def test_exact_block_average(self):
        img = np.array([[1.0, 1.0, 3.0, 3.0], [1.0, 1.0, 3.0, 3.0]])
        out = area_resize(img, 1, 2)
        assert np.allclose(out, [[1.0, 3.0]])

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 3, 1)])
    def test_image_must_be_2d_or_3d(self, shape):
        with pytest.raises(ValueError, match="expected a 2-D or 3-D image array"):
            area_resize(np.ones(shape), 1, 1)

    @pytest.mark.parametrize("shape, side", [
        ((0, 4), "height"), ((4, 0), "width"), ((0, 4, 3), "height"), ((4, 4, 0), "channel count"),
    ])
    def test_image_without_pixels_rejected(self, shape, side):
        # An image without pixels has nothing to average, so no output image.
        with pytest.raises(ValueError, match=rf"cannot resize an image of {side} 0"):
            area_resize(np.zeros(shape), 2, 2)

    def test_fractional_overlap(self):
        # 3 -> 2 cells: output 0 covers [0, 1.5) = cell0 + half of cell1
        img = np.array([[0.0, 3.0, 6.0]])
        out = area_resize(img, 1, 2)
        assert np.allclose(out, [[(0 + 1.5) / 1.5, (1.5 + 6) / 1.5]])

    def test_mean_preserved(self):
        img = np.random.default_rng(2).random((7, 11))
        out = area_resize(img, 3, 4)
        assert out.mean() == pytest.approx(img.mean(), rel=1e-12)

    def test_color_channels_independent(self):
        img = np.random.default_rng(3).random((6, 6, 3))
        out = area_resize(img, 2, 3)
        assert out.shape == (2, 3, 3)
        for c in range(3):
            assert np.allclose(out[:, :, c], area_resize(img[:, :, c], 2, 3))


class TestIngest:
    def test_grayscale_corpus(self, tmp_path):
        for ci, cls in enumerate(["class_a", "class_b"]):
            d = tmp_path / cls
            d.mkdir()
            make_pgm(d / "img0.pgm", np.full((4, 4), 64 * (ci + 1)))
        x, labels = ingest_images(tmp_path, 2, 2)
        assert x.shape == (2, 2, 2)
        assert np.array_equal(labels, [0, 1])
        assert np.allclose(x[..., 0], 64 / 255)
        assert np.allclose(x[..., 1], 128 / 255)

    def test_color_corpus_constant_downsample(self, tmp_path):
        d = tmp_path / "only"
        d.mkdir()
        make_ppm(d / "c.ppm", np.full((4, 4, 3), 128, dtype=np.uint8))
        x, labels = ingest_images(tmp_path, 2, 2)
        assert x.shape == (2, 2, 3, 1)
        assert np.allclose(x, 128 / 255)

    def test_values_in_unit_interval(self, tmp_path):
        d = tmp_path / "cls"
        d.mkdir()
        rng = np.random.default_rng(4)
        for i in range(3):
            make_pgm(d / f"i{i}.pgm", rng.integers(0, 256, size=(5, 7)))
        x, _ = ingest_images(tmp_path, 3, 3)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_mixed_color_and_gray_rejected(self, tmp_path):
        d = tmp_path / "cls"
        d.mkdir()
        make_pgm(d / "a.pgm", np.zeros((2, 2)))
        make_ppm(d / "b.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            ingest_images(tmp_path, 2, 2)

    def test_lexicographic_class_order(self, tmp_path):
        for cls in ["zeta", "alpha"]:
            d = tmp_path / cls
            d.mkdir()
            make_pgm(d / "x.pgm", np.zeros((2, 2)))
        _, labels = ingest_images(tmp_path, 2, 2)
        assert np.array_equal(labels, [0, 1])  # alpha first

    def test_matches_per_image_stack_oracle(self, tmp_path):
        # Grayscale with two input sizes, colour, and 16-bit grayscale.
        rng = np.random.default_rng(5)
        gray, color, deep = tmp_path / "gray", tmp_path / "color", tmp_path / "deep"
        for i, (h, w) in enumerate([(13, 17), (40, 9), (13, 17)]):
            (gray / f"c{i % 2}").mkdir(parents=True, exist_ok=True)
            make_pgm(gray / f"c{i % 2}" / f"i{i}.pgm", rng.integers(0, 256, (h, w)))
        for i in range(3):
            (color / f"c{i}").mkdir(parents=True)
            make_ppm(color / f"c{i}" / "i.ppm", rng.integers(0, 256, (11, 14, 3)))
        (deep / "c").mkdir(parents=True)
        for i in range(2):
            px = rng.integers(0, 65536, (10, 12)).astype(">u2")
            (deep / "c" / f"i{i}.pgm").write_bytes(b"P5\n12 10\n65535\n" + px.tobytes())
        for root in (gray, color, deep):
            for height, width in [(4, 5), (1, 1), (20, 20)]:
                x, labels = ingest_images(root, height, width)
                want_x, want_labels = ingest_oracle(root, height, width)
                assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
                assert labels.dtype == np.int64 and np.array_equal(labels, want_labels)

    def test_empty_class_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        make_pgm(tmp_path / "a" / "x.pgm", np.zeros((2, 2)))
        (tmp_path / "b").mkdir()
        with pytest.raises(ValueError, match="no .pgm/.ppm images"):
            ingest_images(tmp_path, 2, 2)

    def test_bad_output_size_rejected_before_any_file_is_read(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "x.pgm").write_bytes(b"P5\n2 2\n255\n\x01")  # truncated raster
        with pytest.raises(ValueError, match="output height must be an integer >= 1, got 0"):
            ingest_images(tmp_path, 0, 2)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_images(tmp_path, 2, 2)


class TestMontage:
    def test_canvas_dimensions_exact(self):
        tiles = [np.full((3, 4), i, dtype=np.uint8) for i in range(5)]
        canvas = montage(tiles, 2, 3)
        assert canvas.shape == (6, 12)
        assert np.all(canvas[0:3, 0:4] == 0)
        assert np.all(canvas[3:6, 4:8] == 4)
        assert np.all(canvas[3:6, 8:12] == 0)  # unused cell stays black

    def test_layout_too_small_rejected(self):
        tiles = [np.zeros((2, 2), dtype=np.uint8)] * 5
        with pytest.raises(ValueError, match="cells in layout 2x2 must be an integer >= 5, got 4"):
            montage(tiles, 2, 2)

    def test_no_tiles_rejected(self):
        with pytest.raises(ValueError, match="no tiles to assemble"):
            montage([], 1, 1)

    @pytest.mark.parametrize("other", [(2, 3), (2, 2, 3)])
    def test_mixed_tile_shapes_rejected(self, other):
        tiles = [np.zeros((2, 2), dtype=np.uint8), np.zeros(other, dtype=np.uint8)]
        with pytest.raises(ValueError, match="all tiles must share one shape"):
            montage(tiles, 1, 2)

    def test_color_tiles(self):
        tiles = [np.full((2, 2, 3), 7, dtype=np.uint8)] * 2
        assert montage(tiles, 1, 2).shape == (2, 4, 3)

    @pytest.mark.parametrize("tile", [np.full((2, 2), 300.7), np.full((2, 2), 44, dtype=np.int64)])
    def test_non_uint8_tiles_rejected_not_wrapped(self, tile):
        # A float tile of 300.7 used to wrap to 44 in the uint8 canvas.
        with pytest.raises(ValueError, match="tiles must be uint8"):
            montage([np.zeros((2, 2), dtype=np.uint8), tile], 1, 2)


class TestToUint8:
    def test_min_max_scaling(self):
        img = np.array([[0.0, 0.5, 1.0]])
        assert np.array_equal(to_uint8(img), [[0, 128, 255]])

    def test_constant_image_goes_black(self):
        assert np.all(to_uint8(np.full((2, 2), 3.3)) == 0)

    def test_negative_renders_white(self):
        img = np.array([[-1.0, 0.0, 2.0]])
        out = to_uint8(img)
        assert out[0, 0] == 255 and out[0, 1] == 0 and out[0, 2] == 255

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, bad):
        # NaN used to give a silently black tile, Inf a RuntimeWarning.
        with pytest.raises(ValueError, match="image must be finite"):
            to_uint8(np.array([[bad, 1.0, 0.5]]))
