"""Image I/O, preprocessing, and the software edge-detection reference.

The reference detector is checked against an explicit nested-loop brute
force written here, so the two implementations stay independent."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otsim.imaging import (
    BinaryImage,
    ColorImage,
    GrayImage,
    ImageError,
    ShiftDirection,
    binarize,
    color_to_gray,
    load_image,
    otsu_threshold,
    reference_edges,
    save_pgm,
    shift,
    to_gray,
)


def brute_force_edges(bits: np.ndarray) -> np.ndarray:
    """Pixel-by-pixel XOR edge detection, spelled out with loops."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            left = bits[y][x - 1] if x > 0 else bits[y][x]
            up = bits[y - 1][x] if y > 0 else bits[y][x]
            out[y][x] = (bits[y][x] ^ left) | (bits[y][x] ^ up)
    return out


binary_images = arrays(np.uint8, st.tuples(st.integers(2, 9), st.integers(2, 9)),
                       elements=st.integers(0, 1))


class TestNetpbm:
    def test_p5_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x80")
        img = load_image(str(path))
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[128]]

    def test_p6_two_pixels(self, tmp_path):
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = load_image(str(path))
        assert isinstance(img, ColorImage)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]
        assert img.pixels[0, 1].tolist() == [0, 0, 255]

    @pytest.mark.parametrize("data, message", [
        (b"P5", "truncated netpbm header"),
        (b"P5\n4 4\n", "truncated netpbm header"),
        (b"P5\n4 4 # a comment\n", "truncated netpbm header"),
        (b"P5\n4x 4\n255\n", "malformed netpbm header token b'4x'"),
        (b"P6\n4 -4\n255\n", "malformed netpbm header token b'-4'"),
        (b"P5\n1 1\n255", "netpbm header must end with a whitespace byte"),
    ])
    def test_a_bad_header_is_named(self, data, message, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageError, match=f"^{re.escape(message)}$"):
            load_image(str(path))

    @pytest.mark.parametrize("data, message", [
        (b"P", "file too short for a netpbm image"),
        (b"P5\n0 4\n255\n", "invalid dimensions 0x4"),
        (b"P6\n4 0\n255\n", "invalid dimensions 4x0"),
    ])
    def test_a_short_file_or_a_zero_dimension_is_named(self, data, message, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageError, match=f"^{re.escape(message)}$"):
            load_image(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 15)
        with pytest.raises(ImageError, match="truncated"):
            load_image(str(path))

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageError, match="maxval"):
            load_image(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n1 1\n255\n128\n")
        with pytest.raises(ImageError, match="magic"):
            load_image(str(path))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 # inline\n1\n255\n\x01\x02")
        img = load_image(str(path))
        assert img.pixels.tolist() == [[1, 2]]

    def test_roundtrip_gray(self, tmp_path):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (5, 7), dtype=np.uint8))
        path = tmp_path / "rt.pgm"
        save_pgm(img, str(path))
        back = load_image(str(path))
        assert np.array_equal(back.pixels, img.pixels)

    def test_binary_saved_as_0_255(self, tmp_path):
        img = BinaryImage(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        path = tmp_path / "b.pgm"
        save_pgm(img, str(path))
        back = load_image(str(path))
        assert back.pixels.tolist() == [[0, 255], [255, 0]]


class TestGrayscale:
    def test_extremes(self):
        assert to_gray(0, 0, 0) == 0
        assert to_gray(255, 255, 255) == 255

    def test_pure_channels(self):
        assert to_gray(255, 0, 0) == 76    # 0.299*255 = 76.245
        assert to_gray(0, 255, 0) == 150   # 0.587*255 = 149.685
        assert to_gray(0, 0, 255) == 29    # 0.114*255 = 29.07

    def test_out_of_range_rejected(self):
        with pytest.raises(ImageError):
            to_gray(256, 0, 0)

    @pytest.mark.parametrize("px", [[[[300, 0, 0]]], [[[0, -5, 0]]]], ids=["above", "below"])
    def test_color_image_rejects_out_of_range_pixels(self, px):
        with pytest.raises(ImageError, match=r"pixel values must lie in \[0, 255\]"):
            ColorImage(np.array(px))

    @pytest.mark.parametrize("cls, px", [
        (GrayImage, [[np.nan, 12.0]]), (GrayImage, [[0.0, np.inf]]),
        (ColorImage, [[[np.nan, 0.0, 0.0]]]), (ColorImage, [[[0.0, -np.inf, 0.0]]]),
    ], ids=["gray-nan", "gray-inf", "color-nan", "color-inf"])
    def test_non_finite_pixels_rejected(self, cls, px):
        with pytest.raises(ImageError, match="^pixel values must be finite$"):
            cls(np.array(px))

    @pytest.mark.parametrize("cls, px", [(GrayImage, [[0.0, 12.7]]), (ColorImage, [[[0.0, 0.5, 255.0]]])],
                             ids=["gray", "color"])
    def test_fractional_pixels_rejected(self, cls, px):
        with pytest.raises(ImageError, match="^pixel values must be whole numbers$"):
            cls(np.array(px))

    def test_whole_float_pixels_accepted(self):
        assert GrayImage(np.array([[0.0, 255.0]])).pixels.tolist() == [[0, 255]]

    def test_color_image_conversion_matches_scalar(self):
        rng = np.random.default_rng(11)
        px = rng.integers(0, 256, (4, 5, 3), dtype=np.uint8)
        gray = color_to_gray(ColorImage(px))
        for y in range(4):
            for x in range(5):
                assert gray.pixels[y, x] == to_gray(*px[y, x].tolist())


class TestRasterShapes:
    @pytest.mark.parametrize("cls, pixels, message", [
        (GrayImage, np.zeros((0, 3)), "grayscale image must be a non-empty 2-D array"),
        (GrayImage, np.zeros(4), "grayscale image must be a non-empty 2-D array"),
        (GrayImage, np.zeros((2, 2, 3)), "grayscale image must be a non-empty 2-D array"),
        (ColorImage, np.zeros((0, 2, 3)), "color image must be a non-empty (h, w, 3) array"),
        (ColorImage, np.zeros((2, 2)), "color image must be a non-empty (h, w, 3) array"),
        (ColorImage, np.zeros((2, 2, 4)), "color image must be a non-empty (h, w, 3) array"),
        (BinaryImage, np.zeros((3, 0)), "binary image must be a non-empty 2-D array"),
        (BinaryImage, np.zeros((1, 2, 2)), "binary image must be a non-empty 2-D array"),
        (BinaryImage, np.array([[0, 2]]), "binary image entries must be 0 or 1"),
        (BinaryImage, np.array([[0.5, 1.0]]), "binary image entries must be 0 or 1"),
    ])
    def test_an_ill_shaped_or_non_binary_raster_is_refused(self, cls, pixels, message):
        with pytest.raises(ImageError, match=f"^{re.escape(message)}$"):
            cls(pixels)


class TestBinarize:
    def test_all_zero(self):
        img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
        assert not binarize(img, 128).bits.any()

    def test_boundary_is_inclusive(self):
        img = GrayImage(np.array([[127, 128, 129]], dtype=np.uint8))
        assert binarize(img, 128).bits.tolist() == [[0, 1, 1]]

    def test_otsu_separates_bimodal(self):
        img = GrayImage(np.array([[10] * 8, [200] * 8] * 4, dtype=np.uint8))
        t = otsu_threshold(img)
        assert 10 < t <= 200
        b = binarize(img, t)
        assert b.bits.sum() == 32


class TestShift:
    def test_uniform_invariant(self):
        img = BinaryImage(np.ones((4, 4), dtype=np.uint8))
        for d in ShiftDirection:
            assert np.array_equal(shift(img, d).bits, img.bits)

    def test_row_replication(self):
        img = BinaryImage(np.array([[0, 1]], dtype=np.uint8))
        assert shift(img, ShiftDirection.HORIZONTAL).bits.tolist() == [[0, 0]]

    def test_incompatible_direction_errors(self):
        row = BinaryImage(np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(ImageError):
            shift(row, ShiftDirection.VERTICAL)
        col = BinaryImage(np.array([[0], [1]], dtype=np.uint8))
        with pytest.raises(ImageError):
            shift(col, ShiftDirection.HORIZONTAL)

    def test_vertical_shift_then_xor_marks_row_boundaries(self):
        bits = np.array(
            [[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0]], dtype=np.uint8
        )
        img = BinaryImage(bits)
        marked = img.bits ^ shift(img, ShiftDirection.VERTICAL).bits
        assert marked.tolist() == [
            [0, 0, 0, 0],
            [1, 1, 1, 1],
            [0, 0, 0, 0],
            [1, 1, 1, 1],
        ]


class TestReferenceEdges:
    def test_uniform_image_null(self):
        img = BinaryImage(np.ones((6, 6), dtype=np.uint8))
        assert not reference_edges(img).bits.any()

    def test_single_column_8x8(self):
        bits = np.ones((8, 8), dtype=np.uint8)
        bits[:, 4] = 0
        edges = reference_edges(BinaryImage(bits))
        assert np.array_equal(edges.bits, brute_force_edges(bits))
        cols = sorted(set(np.nonzero(edges.bits)[1].tolist()))
        assert cols == [4, 5]

    @settings(max_examples=60, deadline=None)
    @given(bits=binary_images)
    def test_matches_brute_force(self, bits):
        assert np.array_equal(reference_edges(BinaryImage(bits)).bits, brute_force_edges(bits))

    @settings(max_examples=30, deadline=None)
    @given(bits=arrays(np.uint8, st.tuples(st.integers(2, 5), st.integers(2, 5)),
                       elements=st.integers(0, 1)))
    def test_translation_covariance(self, bits):
        # embed the pattern away from the border; translating it translates
        # the interior of the edge map identically
        h, w = bits.shape
        canvas = np.zeros((h + 6, w + 6), dtype=np.uint8)
        a = canvas.copy()
        a[2 : 2 + h, 2 : 2 + w] = bits
        b = canvas.copy()
        b[3 : 3 + h, 4 : 4 + w] = bits
        ea = reference_edges(BinaryImage(a)).bits
        eb = reference_edges(BinaryImage(b)).bits
        assert np.array_equal(ea[1 : 4 + h, 1 : 4 + w], eb[2 : 5 + h, 3 : 6 + w])

    def test_flatten_row_major(self):
        img = BinaryImage(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert img.flatten() == [1, 0, 0, 1]
