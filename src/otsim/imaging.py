"""Row-major raster images, binary PGM/PPM I/O, and the pure-software
edge-detection reference used as the oracle for the circuit pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

BINARIZE_THRESHOLD = 128  # default intensity at and above which a pixel binarizes to 1


class ImageError(ValueError):
    pass


def _pixels(px: np.ndarray) -> np.ndarray:
    """`px` as uint8, refusing values that are not whole numbers in [0, 255]."""
    if not np.all(np.isfinite(px)):
        raise ImageError("pixel values must be finite")
    if not np.all(np.round(px) == px):
        raise ImageError("pixel values must be whole numbers")
    if px.min() < 0 or px.max() > 255:
        raise ImageError("pixel values must lie in [0, 255]")
    return px.astype(np.uint8)


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster; pixels[y, x] in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ImageError("grayscale image must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", _pixels(px))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class ColorImage:
    """8-bit RGB raster; pixels[y, x, c] in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.size == 0:
            raise ImageError("color image must be a non-empty (h, w, 3) array")
        object.__setattr__(self, "pixels", _pixels(px))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class BinaryImage:
    """Black/white raster; bits[y, x] in {0, 1}."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.size == 0:
            raise ImageError("binary image must be a non-empty 2-D array")
        if not np.all((b == 0) | (b == 1)):
            raise ImageError("binary image entries must be 0 or 1")
        object.__setattr__(self, "bits", b.astype(np.uint8))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def flatten(self) -> list[int]:
        """Row-major 1-D scan, matching the pipeline's raster order."""
        return self.bits.reshape(-1).tolist()


class ShiftDirection(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


# ---------------------------------------------------------------------------
# netpbm I/O (binary P5 / P6, maxval 255)
# ---------------------------------------------------------------------------


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integers after the magic, skipping
    '#' comments; returns the values and the offset past the single
    whitespace byte that terminates the header."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ImageError("truncated netpbm header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise ImageError(f"malformed netpbm header token {tok!r}")
            tokens.append(int(tok))
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise ImageError("netpbm header must end with a whitespace byte")
    return tokens, i + 1


def load_image(path: str) -> GrayImage | ColorImage:
    """Parse a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise ImageError("file too short for a netpbm image")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageError(f"unsupported netpbm magic {magic!r} (need binary P5 or P6)")
    (width, height, maxval), offset = _read_header_tokens(data[2:], 3)
    if width <= 0 or height <= 0:
        raise ImageError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ImageError(f"unsupported maxval {maxval} (only 255)")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = data[2 + offset : 2 + offset + need]
    if len(payload) < need:
        raise ImageError(f"truncated pixel payload: expected {need} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8, count=need)
    if channels == 1:
        return GrayImage(arr.reshape(height, width))
    return ColorImage(arr.reshape(height, width, 3))


def save_pgm(img: BinaryImage | GrayImage, path: str) -> None:
    """Write a binary PGM; binary images map {0, 1} to {0, 255}."""
    if isinstance(img, BinaryImage):
        data = (img.bits * np.uint8(255)).astype(np.uint8)
    else:
        data = img.pixels
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def to_gray(r: int, g: int, b: int) -> int:
    """Perceptual grayscale: round(0.299 r + 0.587 g + 0.114 b)."""
    for c in (r, g, b):
        if not (0 <= c <= 255):
            raise ImageError(f"channel value {c} outside [0, 255]")
    y = 0.299 * r + 0.587 * g + 0.114 * b
    return min(255, int(np.floor(y + 0.5)))


def color_to_gray(img: ColorImage) -> GrayImage:
    px = img.pixels.astype(np.float64)
    y = 0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]
    return GrayImage(np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8))


def check_threshold(threshold: int) -> None:
    """Refuse a binarize threshold outside [0, 255]."""
    if not (0 <= threshold <= 255):
        raise ImageError(f"threshold {threshold} outside [0, 255]")


def binarize(img: GrayImage, threshold: int = BINARIZE_THRESHOLD) -> BinaryImage:
    """Bit = 1 wherever intensity >= threshold."""
    check_threshold(threshold)
    return BinaryImage((img.pixels >= threshold).astype(np.uint8))


def otsu_threshold(img: GrayImage) -> int:
    """Histogram-based automatic threshold (maximizes between-class
    variance); offered as an alternative to the fixed default."""
    hist = np.bincount(img.pixels.reshape(-1), minlength=256).astype(np.float64)
    total = hist.sum()
    cum = np.cumsum(hist)
    cum_mean = np.cumsum(hist * np.arange(256))
    mean_total = cum_mean[-1] / total
    best_t, best_var = 0, -1.0
    for t in range(256):
        w0 = cum[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        m0 = cum_mean[t] / w0
        m1 = (cum_mean[-1] - cum_mean[t]) / w1
        var = w0 * w1 * (m0 - m1) ** 2
        if var > best_var:
            best_var, best_t = var, t
    # binarize() uses >=, Otsu's t is the last bin of the low class
    return best_t + 1


def shift(img: BinaryImage, direction: ShiftDirection) -> BinaryImage:
    """One-pixel shift replacing each pixel with its left (horizontal) or
    upper (vertical) neighbor; the first column/row is edge-replicated so
    the border never XORs to an edge."""
    b = img.bits
    if direction is ShiftDirection.HORIZONTAL:
        if img.width < 2:
            raise ImageError("horizontal shift needs width >= 2")
        return BinaryImage(np.column_stack([b[:, :1], b[:, :-1]]))
    if img.height < 2:
        raise ImageError("vertical shift needs height >= 2")
    return BinaryImage(np.vstack([b[:1, :], b[:-1, :]]))


def reference_edges(img: BinaryImage) -> BinaryImage:
    """Software XOR edge detector: (img ^ shift_h) | (img ^ shift_v)."""
    sh = shift(img, ShiftDirection.HORIZONTAL).bits
    sv = shift(img, ShiftDirection.VERTICAL).bits
    return BinaryImage((img.bits ^ sh) | (img.bits ^ sv))
