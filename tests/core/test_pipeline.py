"""Unit and integration tests for the full ISOBAR workflow (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidInputError, UnknownCodecError
from repro.core.metadata import ChunkMode
from repro import compress, decompress
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization, Preference
from repro.datasets.synthetic import build_structured


def _roundtrip(values, config=None):
    compressor = IsobarCompressor(config)
    payload = compressor.compress(values)
    restored = compressor.decompress(payload)
    width = np.asarray(values).dtype.itemsize
    assert np.array_equal(
        np.asarray(restored).reshape(-1).view(f"u{width}"),
        np.asarray(values).reshape(-1).view(f"u{width}"),
    )
    return payload, restored


class TestRoundTrips:
    def test_improvable_doubles(self, improvable_doubles):
        _roundtrip(improvable_doubles)

    def test_improvable_float32(self, improvable_floats):
        _roundtrip(improvable_floats)

    def test_undetermined_passthrough(self, undetermined_doubles):
        _roundtrip(undetermined_doubles)

    def test_pure_noise(self, incompressible_doubles):
        _roundtrip(incompressible_doubles)

    def test_int64(self, rng):
        values = rng.integers(0, 1 << 24, 10_000)
        _roundtrip(values)

    def test_special_float_values(self):
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-310,
                           np.finfo(np.float64).max] * 100)
        _roundtrip(values)

    def test_single_element(self):
        _roundtrip(np.array([1.5]))

    def test_empty_array(self):
        payload, restored = _roundtrip(np.array([], dtype=np.float64))
        assert restored.size == 0
        assert restored.dtype == np.float64

    def test_shape_preserved(self, rng):
        values = build_structured(7_200, np.float64, 6, rng).reshape(60, 120)
        _, restored = _roundtrip(values)
        assert restored.shape == (60, 120)

    def test_3d_shape_preserved(self, rng):
        values = build_structured(8_000, np.float32, 2, rng).reshape(20, 20, 20)
        _, restored = _roundtrip(values)
        assert restored.shape == (20, 20, 20)

    @pytest.mark.parametrize("preference", ["ratio", "speed"])
    @pytest.mark.parametrize("linearization", [None, "row", "column"])
    def test_all_option_combinations(self, improvable_doubles, preference,
                                     linearization):
        config = IsobarConfig(
            preference=preference,
            linearization=linearization,
            sample_elements=4096,
        )
        _roundtrip(improvable_doubles, config)


class TestChunking:
    def test_multi_chunk_roundtrip(self, rng):
        values = build_structured(25_000, np.float64, 6, rng)
        config = IsobarConfig(chunk_elements=4_000, sample_elements=2048)
        payload, _ = _roundtrip(values, config)
        compressor = IsobarCompressor(config)
        result = compressor.compress_detailed(values)
        assert len(result.chunks) == 7  # ceil(25000 / 4000)
        assert result.header.n_chunks == 7

    def test_chunks_can_differ_in_mode(self, rng):
        # First half improvable, second half constant (all compressible).
        # Chunks must be large enough for the analyzer's threshold to be
        # reliable at tau=1.42 (Figure 8); 30k elements is comfortably so.
        noisy = build_structured(30_000, np.float64, 6, rng)
        flat = np.full(30_000, 1.5)
        values = np.concatenate([noisy, flat])
        config = IsobarConfig(chunk_elements=30_000, sample_elements=2048)
        result = IsobarCompressor(config).compress_detailed(values)
        modes = [chunk.mode for chunk in result.chunks]
        assert ChunkMode.PARTITIONED in modes
        assert ChunkMode.PASSTHROUGH in modes
        restored = IsobarCompressor(config).decompress(result.payload)
        assert np.array_equal(restored, values)

    def test_ragged_final_chunk(self, rng):
        values = build_structured(10_001, np.float64, 6, rng)
        config = IsobarConfig(chunk_elements=5_000, sample_elements=2048)
        _roundtrip(values, config)


class TestCompressionBehaviour:
    def test_improvable_beats_standalone_zlib(self, rng):
        import zlib

        values = build_structured(40_000, np.float64, 6, rng)
        payload = compress(values)
        standalone = zlib.compress(values.tobytes())
        assert len(payload) < len(standalone)

    def test_detailed_result_accounting(self, improvable_doubles):
        result = IsobarCompressor(
            IsobarConfig(sample_elements=4096)
        ).compress_detailed(improvable_doubles)
        assert result.original_bytes == improvable_doubles.nbytes
        assert result.compressed_bytes == len(result.payload)
        assert result.ratio == pytest.approx(
            improvable_doubles.nbytes / len(result.payload)
        )
        assert result.improvable
        assert result.analyze_seconds >= 0.0
        assert result.compress_seconds >= 0.0
        assert result.select_seconds >= 0.0
        assert result.chunks[0].htc_bytes_percent == pytest.approx(75.0)

    def test_container_overhead_is_small(self, improvable_doubles):
        result = IsobarCompressor().compress_detailed(improvable_doubles)
        payload_bytes = sum(c.stored_bytes for c in result.chunks)
        overhead = len(result.payload) - payload_bytes
        assert overhead < 200  # just the global header

    def test_noise_bytes_stored_verbatim(self, rng):
        # With 6 of 8 noise bytes, the container cannot be smaller than
        # the raw noise it must keep.
        values = build_structured(20_000, np.float64, 6, rng)
        result = IsobarCompressor().compress_detailed(values)
        noise_floor = values.size * 6
        assert result.compressed_bytes > noise_floor

    def test_explicit_codec_respected(self, improvable_doubles):
        config = IsobarConfig(codec="lzma", sample_elements=2048)
        result = IsobarCompressor(config).compress_detailed(improvable_doubles)
        assert result.header.codec_name == "lzma"
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(restored, improvable_doubles)


class TestConvenienceApi:
    def test_isobar_compress_decompress(self, improvable_doubles):
        payload = compress(improvable_doubles, preference="speed")
        assert np.array_equal(decompress(payload), improvable_doubles)

    def test_keyword_overrides(self, improvable_doubles):
        payload = compress(
            improvable_doubles, codec="zlib", linearization="column"
        )
        assert np.array_equal(decompress(payload), improvable_doubles)

    def test_unknown_codec_override(self, improvable_doubles):
        with pytest.raises(UnknownCodecError):
            compress(improvable_doubles, codec="snappy")

    def test_config_passthrough(self, improvable_doubles):
        config = IsobarConfig(chunk_elements=5_000, sample_elements=2048)
        payload = compress(improvable_doubles, config=config)
        assert np.array_equal(decompress(payload), improvable_doubles)


class TestValidation:
    def test_rejects_unsupported_dtype(self):
        with pytest.raises(InvalidInputError):
            compress(np.zeros(10, dtype=np.complex64))

    def test_rejects_object_arrays(self):
        with pytest.raises((InvalidInputError, TypeError, ValueError)):
            compress(np.array([object()]))
