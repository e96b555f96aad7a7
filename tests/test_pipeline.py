"""Circuit edge-detection pipeline against the software XOR oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim.imaging import BinaryImage, reference_edges
from otsim.pipeline import (
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
        assert pt.duration == pytest.approx(30e-6)

    def test_invariants(self):
        with pytest.raises(ValueError):
            PulseTrain((2,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="PulseTrain: v_high must be finite"):
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
    def test_segment_bounds(self):
        with pytest.raises(ValueError):
            StreamSettings(segment_clocks=0)
        with pytest.raises(ValueError):
            StreamSettings(segment_clocks=5000)

    @pytest.mark.parametrize("dt", [50e-9, 25e-9, 12.5e-9, 10e-9])
    def test_whole_steps_per_pulse_accepted(self, dt):
        assert StreamSettings(dt=dt).dt == dt

    def test_step_off_the_pulse_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^dt must divide the pulse width 5e-06 s and the clock period 1e-05 s, got 3e-08$"):
            StreamSettings(dt=30e-9)
