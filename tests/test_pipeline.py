"""Circuit edge-detection pipeline against the software XOR oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim import Pulse
from otsim.imaging import BinaryImage, ImageError, reference_edges
from otsim.pipeline import (
    CLOCK_PERIOD,
    PULSE_WIDTH,
    PulseTrain,
    StreamSettings,
    detect_edges,
    mismatch_report,
    xor_stream_circuit,
)


class TestPulseTrain:
    def test_waveform_values(self):
        pt = PulseTrain((1, 0, 1), v_high=5.0)
        assert pt(1e-6) == 5.0
        assert pt(6e-6) == 0.0
        assert pt(11e-6) == 0.0
        assert pt(21e-6) == 5.0
        assert pt(31e-6) == 0.0  # past the last bit

    def test_is_a_pulse_with_the_bit_pattern(self):
        assert PulseTrain([1, 0, 1], v_high=4.5) == Pulse(0.0, 4.5, delay=0.0, width=PULSE_WIDTH,
                                                          period=CLOCK_PERIOD, bits=(1, 0, 1))

    def test_invariants(self):
        with pytest.raises(ValueError, match=r"^Pulse: bits\[0\] must be 0 or 1, got 2$"):
            PulseTrain((2,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^Pulse: v_high must be finite, got nan$"):
            PulseTrain((1, 0), v_high=float("nan"))


class TestXorStream:
    def test_equal_streams_all_zero(self):
        assert xor_stream_circuit([0, 0], [0, 0]) == [0, 0]
        assert xor_stream_circuit([1, 1], [1, 1]) == [0, 0]

    def test_reference_pattern(self):
        assert xor_stream_circuit([0, 1, 1, 0], [0, 1, 0, 1]) == [0, 0, 1, 1]

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_half_step_gives_the_bitwise_xor(self, data):
        # the result holds at dt/2, not only at the default step
        bits = st.lists(st.integers(0, 1), min_size=32, max_size=32)
        a, b = data.draw(bits), data.draw(bits)
        assert xor_stream_circuit(a, b, settings=StreamSettings(dt=25e-9)) == [x ^ y for x, y in zip(a, b)]

    def test_random_64_bits_exact(self):
        rng = np.random.default_rng(2024)
        a = rng.integers(0, 2, 64).tolist()
        b = rng.integers(0, 2, 64).tolist()
        assert xor_stream_circuit(a, b) == [x ^ y for x, y in zip(a, b)]

    def test_segmentation_transparent(self):
        rng = np.random.default_rng(99)
        a = rng.integers(0, 2, 24).tolist()
        b = rng.integers(0, 2, 24).tolist()
        whole = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=256))
        split = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=8))
        assert whole == split == [x ^ y for x, y in zip(a, b)]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_segment_length_gives_the_bitwise_xor(self, data):
        n = data.draw(st.integers(1, 12))
        a = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        b = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        split = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=data.draw(st.integers(1, n))))
        whole = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=n))
        assert split == whole == [x ^ y for x, y in zip(a, b)]

    def test_parallel_segments_identical(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 24).tolist()
        b = rng.integers(0, 2, 24).tolist()
        serial = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=6, n_jobs=1))
        threaded = xor_stream_circuit(a, b, settings=StreamSettings(segment_clocks=6, n_jobs=3))
        assert serial == threaded

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_stream_circuit([0, 1], [0])

    def test_empty(self):
        assert xor_stream_circuit([], []) == []

    @pytest.mark.parametrize("a, b, name", [([0.5, 0], [0, 0], r"bits_a\[0\]"), ([0, 1], [1, 2], r"bits_b\[1\]"),
                                            ([1, math.nan], [0, 0], r"bits_a\[1\]")])
    def test_a_value_that_is_not_a_bit_is_rejected(self, a, b, name):
        with pytest.raises(ValueError, match=rf"^xor_stream_circuit: {name} must be 0 or 1, got "):
            xor_stream_circuit(a, b)


class TestDetectEdges:
    def test_uniform_image_all_zero(self):
        img = BinaryImage(np.ones((4, 4), dtype=np.uint8))
        edges = detect_edges(img)
        assert not edges.bits.any()

    def test_single_column(self):
        bits = np.ones((8, 8), dtype=np.uint8)
        bits[:, 4] = 0
        img = BinaryImage(bits)
        edges = detect_edges(img)
        ref = reference_edges(img)
        assert np.array_equal(edges.bits, ref.bits)
        # vertical transitions only: no horizontal-boundary rows
        assert set(np.nonzero(edges.bits)[1].tolist()) == {4, 5}

    def test_checkerboard_matches_oracle(self):
        bits = (np.indices((6, 6)).sum(axis=0) % 2).astype(np.uint8)
        img = BinaryImage(bits)
        report = mismatch_report(detect_edges(img), reference_edges(img))
        assert report["total"] == 0

    def test_random_image_matches_oracle(self):
        rng = np.random.default_rng(31415)
        bits = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        img = BinaryImage(bits)
        report = mismatch_report(detect_edges(img), reference_edges(img))
        assert report["total"] == 0
        assert report["mismatches"] == []

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            detect_edges(BinaryImage(np.array([[1, 0]], dtype=np.uint8)))
        with pytest.raises(ImageError, match=r"^edge detection needs at least a 2x2 image, got 2x1$"):
            detect_edges(BinaryImage(np.array([[1, 0]], dtype=np.uint8)))

    def test_or_combination_properties(self):
        # commutative and idempotent at the bit level
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, (5, 5), dtype=np.uint8)
        b = rng.integers(0, 2, (5, 5), dtype=np.uint8)
        assert np.array_equal(a | b, b | a)
        assert np.array_equal(a | a, a)

    def test_mismatch_report_coordinates(self):
        a = BinaryImage(np.zeros((2, 3), dtype=np.uint8))
        bits = np.zeros((2, 3), dtype=np.uint8)
        bits[1, 2] = 1
        b = BinaryImage(bits)
        report = mismatch_report(a, b)
        assert report["total"] == 1
        assert report["mismatches"] == [(2, 1)]  # (x, y)

    def test_shape_mismatch_rejected(self):
        a = BinaryImage(np.zeros((2, 2), dtype=np.uint8))
        b = BinaryImage(np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            mismatch_report(a, b)


class TestStreamSettings:
    @pytest.mark.parametrize("clocks", [2.5, True, np.bool_(True), "8"])
    def test_segment_clocks_must_be_an_integer(self, clocks):
        with pytest.raises(ValueError, match=r"^StreamSettings: segment_clocks must be an integer, got "):
            StreamSettings(segment_clocks=clocks)

    def test_integer_segment_clocks_become_an_int(self):
        assert type(StreamSettings(segment_clocks=np.int64(8)).segment_clocks) is int

    @pytest.mark.parametrize("clocks", [0, 5000])
    def test_segment_bounds(self, clocks):
        with pytest.raises(ValueError, match=rf"^StreamSettings: segment_clocks must be in 1\.\.4096, got {clocks}$"):
            StreamSettings(segment_clocks=clocks)

    @pytest.mark.parametrize("dt", [50e-9, 25e-9, 12.5e-9, 10e-9])
    def test_whole_steps_per_pulse_accepted(self, dt):
        assert StreamSettings(dt=dt).dt == dt

    def test_step_off_the_pulse_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^StreamSettings: PULSE_WIDTH must be a whole number of steps of "
                                             r"dt = 3e-08, got 5e-06$"):
            StreamSettings(dt=30e-9)

    @pytest.mark.parametrize("dt", [0.0, -1e-8, 5e-6, math.nan])
    def test_step_outside_the_pulse_rejected(self, dt):
        with pytest.raises(ValueError, match=rf"^StreamSettings: dt must be positive and below the pulse width "
                                             rf"5e-06 s, got {dt!r}$"):
            StreamSettings(dt=dt)
