"""Unit tests for streaming file-to-file compression."""

import hashlib
import io

import numpy as np
import pytest

from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
)
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.stream import StreamingWriter, stream_compress, stream_decompress
from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import build_structured
from repro.testing.faults import chunk_chain_end
from tests.core.probe_digest_battery import frozen_probe_clock

_CFG = IsobarConfig(chunk_elements=10_000, sample_elements=2048)


@pytest.fixture
def data(rng):
    return build_structured(35_000, np.float64, 6, rng)


def _chunks(values, size):
    for start in range(0, values.size, size):
        yield values[start:start + size]


class TestStreamingRoundTrip:
    def test_chunked_roundtrip(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        written = stream_compress(_chunks(data, 10_000), path, np.float64,
                                  config=_CFG)
        assert written == path.stat().st_size
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_container_readable_by_in_memory_pipeline(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        restored = IsobarCompressor().decompress(path.read_bytes())
        assert np.array_equal(restored.reshape(-1), data)

    def test_pipeline_container_readable_by_stream_reader(self, tmp_path,
                                                          data):
        path = tmp_path / "c.isobar"
        payload = IsobarCompressor(_CFG).compress(data)
        path.write_bytes(payload)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_uneven_chunks(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 7_777), path, np.float64, config=_CFG)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_compresses(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        written = stream_compress(_chunks(data, 10_000), path, np.float64,
                                  config=_CFG)
        assert written < data.nbytes

    def test_float32_stream(self, tmp_path, rng):
        values = build_structured(20_000, np.float32, 2, rng)
        path = tmp_path / "f.isobar"
        stream_compress(_chunks(values, 8_000), path, np.float32, config=_CFG)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(
            restored.view(np.uint32), values.view(np.uint32)
        )


class TestStreamingWriter:
    def test_context_manager(self, tmp_path, data):
        path = tmp_path / "w.isobar"
        with open(path, "wb") as sink:
            with StreamingWriter(sink, np.float64, config=_CFG) as writer:
                for chunk in _chunks(data, 10_000):
                    writer.write_chunk(chunk)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.isobar"
        stream_compress(iter(()), path, np.float64, config=_CFG)
        assert list(stream_decompress(path)) == []

    def test_zero_length_chunks_skipped(self, tmp_path, data):
        path = tmp_path / "z.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(np.array([], dtype=np.float64))
            writer.write_chunk(data[:10_000])
            writer.close()
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])

    def test_dtype_mismatch_rejected(self, tmp_path, data):
        path = tmp_path / "m.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            with pytest.raises(InvalidInputError):
                writer.write_chunk(data.astype(np.float32))
            writer.close()

    def test_write_after_close_rejected(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(data[:5_000])
            writer.close()
            with pytest.raises(InvalidInputError):
                writer.write_chunk(data[:5_000])

    def test_close_idempotent(self, tmp_path, data):
        path = tmp_path / "i.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(data[:5_000])
            writer.close()
            writer.close()  # no-op


class TestCrashSafety:
    """Atomic publication and crashed-writer recovery."""

    def test_open_is_atomic(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with StreamingWriter.open(path, np.float64, config=_CFG) as writer:
            writer.write_chunk(data[:10_000])
            assert not path.exists()  # nothing published before close
        assert path.exists()
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_exception_inside_context_aborts(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with pytest.raises(RuntimeError):
            with StreamingWriter.open(path, np.float64, config=_CFG) as writer:
                writer.write_chunk(data[:10_000])
                raise RuntimeError("simulated crash")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp debris either

    def test_abort_is_idempotent(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        writer = StreamingWriter.open(path, np.float64, config=_CFG)
        writer.write_chunk(data[:10_000])
        writer.abort()
        writer.abort()
        assert not path.exists()

    def test_non_atomic_open_writes_in_place(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with StreamingWriter.open(path, np.float64, config=_CFG,
                                  atomic=False) as writer:
            writer.write_chunk(data[:10_000])
            assert path.exists()  # visible immediately without atomic
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])

    def _crashed_stream(self, tmp_path, data):
        """A stream whose writer never reached close(): the header still
        carries the n_chunks=0 placeholder."""
        path = tmp_path / "crashed.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            for chunk in _chunks(data, 10_000):
                writer.write_chunk(chunk)
            sink.flush()
            # Simulated kill -9: no close(), no header patch.
        return path

    def test_unclosed_stream_strict_read_fails(self, tmp_path, data):
        path = self._crashed_stream(tmp_path, data)
        with pytest.raises(ContainerFormatError) as excinfo:
            list(stream_decompress(path))
        assert "tolerate_unclosed" in str(excinfo.value)

    def test_unclosed_stream_recovered_with_zero_chunk_loss(self, tmp_path,
                                                            data):
        path = self._crashed_stream(tmp_path, data)
        restored = np.concatenate(
            list(stream_decompress(path, tolerate_unclosed=True))
        )
        assert np.array_equal(restored, data)

    def test_unclosed_stream_with_torn_tail(self, tmp_path, data):
        # kill -9 mid-write: the final chunk is half-flushed.
        path = self._crashed_stream(tmp_path, data)
        torn = tmp_path / "torn.isobar"
        torn.write_bytes(path.read_bytes()[:-40])
        restored = np.concatenate(
            list(stream_decompress(torn, tolerate_unclosed=True))
        )
        # All fully-flushed chunks survive; only the torn tail is lost.
        assert restored.size in (10_000, 20_000, 30_000)
        assert np.array_equal(restored, data[: restored.size])

    def test_tolerate_unclosed_on_closed_stream_is_harmless(self, tmp_path,
                                                            data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        restored = np.concatenate(
            list(stream_decompress(path, tolerate_unclosed=True))
        )
        assert np.array_equal(restored, data)


class TestLenientStreaming:
    def test_skip_policy(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(IsobarError):
            list(stream_decompress(bad))
        restored = np.concatenate(list(stream_decompress(bad, errors="skip")))
        assert np.array_equal(restored, data[:30_000])

    def test_zero_fill_policy(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        restored = np.concatenate(
            list(stream_decompress(bad, errors="zero_fill"))
        )
        assert restored.size == data.size
        assert np.array_equal(restored[:30_000], data[:30_000])
        assert np.all(restored[30_000:] == 0)

    def test_unknown_policy_rejected(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        with pytest.raises(ConfigurationError):
            list(stream_decompress(path, errors="replace"))

    def test_canonical_policy_spellings(self, tmp_path, data):
        """The unified errors= vocabulary works on the streaming reader."""
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        skipped = np.concatenate(
            list(stream_decompress(bad, errors="salvage-skip"))
        )
        assert np.array_equal(skipped, data[:30_000])
        zeroed = np.concatenate(
            list(stream_decompress(bad, errors="salvage-zero"))
        )
        assert zeroed.size == data.size
        assert np.all(zeroed[30_000:] == 0)


class TestStreamingResilience:
    """Degraded chunks flush through the streaming writer like healthy
    ones, and bounded readahead overlaps production with compression."""

    def _pinned(self, **overrides):
        from repro.core.preferences import Linearization

        base = dict(
            codec="zlib",
            linearization=Linearization.ROW,
            chunk_elements=10_000,
            sample_elements=2048,
        )
        base.update(overrides)
        return IsobarConfig(**base)

    def test_degraded_chunks_flush_and_roundtrip(self, tmp_path, data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        path = tmp_path / "c.isobar"
        config = self._pinned()
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            stream_compress(_chunks(data, 10_000), path, np.float64,
                            config=config)
        # Pristine registry decodes the degraded stream bit-exactly.
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_writer_degradation_report(self, tmp_path, data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned()
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            writer = StreamingWriter.open(
                tmp_path / "c.isobar", np.float64, config
            )
            for chunk in _chunks(data, 10_000):
                writer.write_chunk(chunk)
            writer.close()
        report = writer.degradation
        assert report.degraded_chunks == 4  # ceil(35000 / 10000)
        assert [e.chunk_index for e in report.events] == [0, 1, 2, 3]

    def test_streaming_output_matches_pipeline_under_chaos(self, tmp_path,
                                                           data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned()
        path = tmp_path / "c.isobar"
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            stream_compress(_chunks(data, 10_000), path, np.float64,
                            config=config)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            pipeline = IsobarCompressor(config).compress(data)
        assert path.read_bytes() == pipeline

    def test_strict_streaming_fails_hard(self, tmp_path, data):
        from repro.core.exceptions import CodecError
        from repro.core.resilience import ResiliencePolicy
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned(
            resilience=ResiliencePolicy(strict=True, max_attempts=1)
        )
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            with pytest.raises(CodecError):
                stream_compress(_chunks(data, 10_000),
                                tmp_path / "c.isobar", np.float64,
                                config=config)

    def test_readahead_roundtrip_identical(self, tmp_path, data):
        inline = tmp_path / "inline.isobar"
        ahead = tmp_path / "ahead.isobar"
        stream_compress(_chunks(data, 10_000), inline, np.float64,
                        config=_CFG)
        stream_compress(_chunks(data, 10_000), ahead, np.float64,
                        config=_CFG, readahead_chunks=2)
        assert inline.read_bytes() == ahead.read_bytes()

    def test_readahead_negative_rejected(self, tmp_path, data):
        with pytest.raises(InvalidInputError):
            stream_compress(_chunks(data, 10_000),
                            tmp_path / "c.isobar", np.float64,
                            config=_CFG, readahead_chunks=-1)

    def test_readahead_propagates_source_error(self, tmp_path):
        def exploding():
            yield np.zeros(1000)
            raise RuntimeError("simulation crashed")

        with pytest.raises(RuntimeError, match="simulation crashed"):
            stream_compress(exploding(), tmp_path / "c.isobar",
                            np.float64, config=_CFG, readahead_chunks=4)
        # Atomic write: the sink must not exist after the failure.
        assert not (tmp_path / "c.isobar").exists()

    def test_decompress_readahead_roundtrip_identical(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        inline = np.concatenate(list(stream_decompress(path)))
        ahead = np.concatenate(
            list(stream_decompress(path, readahead_chunks=3))
        )
        assert np.array_equal(inline, ahead)
        assert np.array_equal(inline, data)

    def test_decompress_readahead_negative_rejected(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        with pytest.raises(InvalidInputError):
            list(stream_decompress(path, readahead_chunks=-1))

    def test_decompress_readahead_propagates_decode_error(
        self, tmp_path, data
    ):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        blob = bytearray(path.read_bytes())
        # Corrupt the final chunk's payload (just before the footer).
        blob[chunk_chain_end(bytes(blob)) - 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        consumed = []
        with pytest.raises(IsobarError):
            for chunk in stream_decompress(path, readahead_chunks=2):
                consumed.append(chunk)
        assert consumed  # earlier chunks arrived before the error


class TestStrictChainCoverage:
    """The strict stream reader checks the walked chain against the
    header, as the in-memory strict readers do."""

    @pytest.mark.parametrize(
        "field, delta, covered",
        [("n_chunks", -1, 8192), ("n_elements", -1, 12_288),
         ("n_elements", 1, 12_288)],
    )
    def test_header_disagreeing_with_chain_raises(
        self, tmp_path, rng, field, delta, covered
    ):
        from dataclasses import replace

        from repro.core.metadata import ContainerHeader

        values = build_structured(3 * 4096, np.float64, 6, rng)
        payload = IsobarCompressor(
            IsobarConfig(chunk_elements=4096, sample_elements=1024)
        ).compress(values)
        header, offset = ContainerHeader.decode(payload)
        tampered = replace(header, **{field: getattr(header, field) + delta})
        path = tmp_path / "c.isobar"
        path.write_bytes(tampered.encode() + payload[offset:])
        yielded = []
        with pytest.raises(ContainerFormatError,
                           match=f"chunks cover {covered} elements"):
            for chunk in stream_decompress(path):
                yielded.append(chunk)
        # Every walked chunk still arrives before the coverage check.
        assert sum(chunk.size for chunk in yielded) == covered


def _structured(n, dtype=np.float64, noise=6):
    return build_structured(n, dtype, noise, np.random.default_rng(2024))


def _sizes(values, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(values[start:start + size])
        start += size
    return out


def _fresh_selector(name, config):
    from repro.core.selector_learned import (
        CachedSelector,
        LearnedSelector,
        OnlineRatioModel,
        SelectorDecisionCache,
    )

    learned = LearnedSelector(config, model=OnlineRatioModel())
    if name == "learned":
        return config.replace(selector=learned)
    return config.replace(selector=CachedSelector(
        config, cache=SelectorDecisionCache(), inner=learned
    ))


def _noise(n):
    info = np.iinfo(np.int64)
    return np.random.default_rng(7).integers(
        info.min, info.max, n, dtype=np.int64
    )


#: name -> (dtype, chunks, config); ``_CFG`` chunks at 10 000 elements
#: and samples 2 048, so only the ``reuse`` case (whole-chunk samples)
#: lets chunk 0 store the probe's winning stream.
_DIGEST_CASES = {
    "equal": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000), _CFG),
    "uneven": lambda: (
        np.float64, _chunks(_structured(35_000), 7_000), _CFG),
    "first_larger": lambda: (
        np.float64, _sizes(_structured(35_000), (25_000, 10_000)), _CFG),
    "reuse": lambda: (
        np.float64, _chunks(_structured(40_000), 20_000),
        _CFG.replace(chunk_elements=20_000, sample_elements=20_000)),
    "float32": lambda: (
        np.float32, _chunks(_structured(30_000, np.float32, 2), 10_000),
        _CFG),
    "int64": lambda: (
        np.int64,
        _chunks(get_dataset("xgc_igid").generate(n_elements=30_000), 10_000),
        _CFG),
    "noise": lambda: (np.int64, _chunks(_noise(20_000), 10_000), _CFG),
    "speed": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000),
        _CFG.replace(preference="speed")),
    "learned": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000),
        _fresh_selector("learned", _CFG)),
    "cached": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000),
        _fresh_selector("cached", _CFG)),
    "pinned": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000),
        _CFG.replace(codec="bzip2", linearization="row")),
    "no_resilience": lambda: (
        np.float64, _chunks(_structured(30_000), 10_000),
        _CFG.replace(resilience=None)),
    "empty": lambda: (np.float64, [], _CFG),
    "zero_length_ends": lambda: (
        np.float64,
        [np.empty(0), *_chunks(_structured(20_000), 10_000), np.empty(0)],
        _CFG),
}

#: sha256 prefixes of each case's container.
_STREAM_DIGESTS = {
    "cached": "eec9cae87cb0817a",
    "empty": "c7184f6fbb5953e1",
    "equal": "eec9cae87cb0817a",
    "first_larger": "5419153477a71403",
    "float32": "046c1af3d9ef0c44",
    "int64": "a2544faf6617113c",
    "learned": "eec9cae87cb0817a",
    "no_resilience": "eec9cae87cb0817a",
    "noise": "5a7ed72c72a16290",
    "pinned": "4d8563687f158d43",
    "reuse": "609138884d237de9",
    "speed": "e7d42876bbd9a07a",
    "uneven": "fbcc3a707caa13d9",
    "zero_length_ends": "0be80183aad2219c",
}


class TestStreamDigests:
    """StreamingWriter containers stay byte-identical: decision, chunk
    encoding, header and footer of every case are pinned."""

    @pytest.mark.parametrize("case", sorted(_DIGEST_CASES))
    def test_container_digest(self, case):
        dtype, chunks, config = _DIGEST_CASES[case]()
        sink = io.BytesIO()
        # Frozen probe timings make SPEED decisions a function of the
        # data alone; RATIO decisions never read the clock.
        with frozen_probe_clock():
            writer = StreamingWriter(sink, dtype, config)
            for chunk in chunks:
                writer.write_chunk(chunk)
            writer.close()
        digest = hashlib.sha256(sink.getvalue()).hexdigest()[:16]
        assert digest == _STREAM_DIGESTS[case]

    @pytest.mark.parametrize("case, reused", [("reuse", 1), ("equal", 0)])
    def test_chunk_zero_stores_probe_trial(self, case, reused):
        """A first chunk the probe sampled whole stores the probe's
        winning stream, as the one-shot pipeline's chunk 0 does."""
        dtype, chunks, config = _DIGEST_CASES[case]()
        writer = StreamingWriter(
            io.BytesIO(), dtype, config, collect_metrics=True
        )
        for chunk in chunks:
            writer.write_chunk(chunk)
        writer.close()
        counter = writer.metrics.get("isobar_selector_trials_reused_total")
        assert counter.value() == reused
