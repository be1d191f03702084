"""Unit tests for random access into ISOBAR containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.exceptions import ChecksumError, InvalidInputError, IsobarError
from repro.core.metadata import ChunkMode
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.random_access import ContainerFile, ContainerReader
from repro.datasets.synthetic import build_structured
from repro.observability.registry import MetricsRegistry
from repro.testing.chaos import FlakyCodec, chaos_codec
from repro.testing.faults import chunk_chain_end

# 25k-element chunks: reliable analyzer statistics at tau=1.42.
_CFG = IsobarConfig(chunk_elements=25_000, sample_elements=2048)


@pytest.fixture(scope="module")
def stored():
    rng = np.random.default_rng(77)
    values = build_structured(100_000, np.float64, 6, rng)
    payload = IsobarCompressor(_CFG).compress(values)
    return payload, values


@pytest.fixture(scope="module")
def reader(stored):
    payload, _ = stored
    return ContainerReader(payload)


class TestIndex:
    def test_index_covers_all_elements(self, reader, stored):
        _, values = stored
        assert reader.n_elements == values.size
        assert reader.n_chunks == 4  # ceil(100000/25000)
        entries = reader.chunk_index()
        assert entries[0].element_start == 0
        assert entries[-1].element_stop == values.size
        for prev, cur in zip(entries, entries[1:]):
            assert prev.element_stop == cur.element_start

    def test_chunk_for_element(self, reader):
        assert reader.chunk_for_element(0).index == 0
        assert reader.chunk_for_element(24_999).index == 0
        assert reader.chunk_for_element(25_000).index == 1
        assert reader.chunk_for_element(99_999).index == 3

    def test_chunk_for_element_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.chunk_for_element(-1)
        with pytest.raises(InvalidInputError):
            reader.chunk_for_element(100_000)


class TestReads:
    def test_read_chunk(self, reader, stored):
        _, values = stored
        chunk = reader.read_chunk(2)
        assert np.array_equal(chunk, values[50_000:75_000])

    def test_read_chunk_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.read_chunk(4)

    def test_read_range_within_chunk(self, reader, stored):
        _, values = stored
        assert np.array_equal(reader.read_range(100, 200), values[100:200])

    def test_read_range_across_chunks(self, reader, stored):
        _, values = stored
        assert np.array_equal(
            reader.read_range(24_500, 51_500), values[24_500:51_500]
        )

    def test_read_range_everything(self, reader, stored):
        _, values = stored
        assert np.array_equal(reader.read_range(0, values.size), values)

    def test_read_range_empty(self, reader):
        assert reader.read_range(10, 10).size == 0

    def test_read_range_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.read_range(-1, 10)
        with pytest.raises(InvalidInputError):
            reader.read_range(0, 100_001)
        with pytest.raises(InvalidInputError):
            reader.read_range(20, 10)

    def test_point_lookup(self, reader, stored):
        _, values = stored
        for position in (0, 1, 24_999, 25_000, 60_000, 99_999):
            assert reader.element(position) == values[position]

    def test_read_all_matches_pipeline(self, reader, stored):
        payload, values = stored
        assert np.array_equal(reader.read_all().reshape(-1), values)

    def test_cache_returns_same_array(self, reader):
        first = reader.read_chunk(1)
        second = reader.read_chunk(1)
        assert first is second

    @pytest.mark.parametrize("errors", ["raise", "salvage-zero"])
    def test_read_chunk_is_read_only(self, stored, tmp_path, errors):
        # The chunk handed out is the cache's own: writing to it would
        # change what every later read of those elements returns.
        payload, values = stored
        path = tmp_path / "c.isobar"
        path.write_bytes(payload)
        with ContainerFile(path, errors=errors) as reader:
            chunk = reader.read_chunk(0)
            with pytest.raises(ValueError):
                chunk[0] = -1
            assert np.array_equal(reader.read_range(0, 2), values[:2])
            assert reader.element(0) == values[0]

    @settings(max_examples=30, deadline=None)
    @given(start=st.integers(0, 99_999), length=st.integers(0, 40_000))
    def test_arbitrary_ranges_property(self, reader, stored, start, length):
        _, values = stored
        stop = min(start + length, values.size)
        assert np.array_equal(
            reader.read_range(start, stop), values[start:stop]
        )


class TestIntegrity:
    def test_corrupt_chunk_detected_on_access(self, stored):
        payload, _ = stored
        corrupted = bytearray(payload)
        # Inside the last chunk's raw noise, just before the footer.
        corrupted[chunk_chain_end(payload) - 2] ^= 0xFF
        reader = ContainerReader(bytes(corrupted))
        # Index builds fine; only touching the bad chunk raises.
        reader.read_chunk(0)
        with pytest.raises(ChecksumError):
            reader.read_chunk(reader.n_chunks - 1)

    def test_salvage_skip_read_all_matches_decompress(self, stored, tmp_path):
        # Skipping the damaged chunk leaves fewer elements than the
        # header's shape holds; both readers return what the salvage
        # decoder returns instead of failing the reshape.
        payload, _ = stored
        corrupted = bytearray(payload)
        corrupted[chunk_chain_end(payload) - 2] ^= 0xFF
        corrupted = bytes(corrupted)
        expected = IsobarCompressor().decompress(
            corrupted, errors="salvage-skip"
        )
        assert expected.size == 75_000
        reader = ContainerReader(corrupted, errors="salvage-skip")
        assert np.array_equal(reader.read_all(), expected)
        path = tmp_path / "c.isobar"
        path.write_bytes(corrupted)
        with ContainerFile(path, errors="salvage-skip") as file_reader:
            assert np.array_equal(file_reader.read_all(), expected)

    def test_truncated_container_rejected_at_index(self, stored):
        payload, _ = stored
        from repro.core.exceptions import TruncatedContainerError

        # Cut past the footer and into the last chunk so the chain
        # itself is short; the error carries the damage location.
        keep = chunk_chain_end(payload) - 100
        with pytest.raises(TruncatedContainerError) as excinfo:
            ContainerReader(payload[:keep])
        assert "byte offset" in str(excinfo.value)


# -- the kept tier: solver output of evicted partitioned chunks -----------

_KEPT_CHUNK = 20_000  # large enough for the analyzer to find raw columns


def _loads(registry: MetricsRegistry, source: str) -> float:
    return registry.get("isobar_reader_chunk_loads_total").value(source=source)


def _evict_then_reread(n_chunks: int, capacity: int) -> list[int]:
    """A read order in which every chunk is evicted from a cache of
    ``capacity`` decoded chunks and then read again."""
    order = []
    for i in range(n_chunks):
        order.append(i)
        order.extend((i + k) % n_chunks for k in range(1, capacity + 1))
        order.append(i)
    return order


def _write(tmp_path, values, **config):
    cfg = IsobarConfig(
        chunk_elements=_KEPT_CHUNK, sample_elements=1024, codec="zlib",
        **config,
    )
    payload = repro.compress(values, config=cfg)
    path = tmp_path / "kept.isobar"
    path.write_bytes(payload)
    return path, payload


def _modes(payload):
    return [e.metadata.mode for e in ContainerReader(payload).chunk_index()]


class TestKeptTier:
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("linearization", list(Linearization))
    @pytest.mark.parametrize(
        "dtype, noise_bytes",
        [(np.float32, 2), (np.float64, 6), (np.int64, 4)],
    )
    def test_rebuilds_match_decompress(
        self, tmp_path, capacity, linearization, dtype, noise_bytes
    ):
        rng = np.random.default_rng(5)
        values = build_structured(4 * _KEPT_CHUNK, dtype, noise_bytes, rng)
        path, payload = _write(tmp_path, values, linearization=linearization)
        entries = ContainerReader(payload).chunk_index()
        assert ContainerReader(payload).header.linearization is linearization
        # Guard: every chunk must have solver and raw columns, or there
        # is nothing to keep and the test proves nothing.
        for e in entries:
            assert e.metadata.mode is ChunkMode.PARTITIONED
            assert 0 < e.metadata.mask.sum() < e.metadata.mask.size
        expected = repro.decompress(payload).reshape(-1).view(np.uint8)
        registry = MetricsRegistry()
        rebuilt = set()
        with ContainerFile(
            path, cache_chunks=capacity, metrics=registry
        ) as reader:
            for i in _evict_then_reread(reader.n_chunks, capacity):
                e = entries[i]
                before = _loads(registry, "kept")
                got = reader.read_chunk(i)
                if _loads(registry, "kept") > before:
                    rebuilt.add(i)
                assert got.dtype == reader.header.dtype
                assert np.array_equal(
                    got.view(np.uint8),
                    expected[e.element_start * got.itemsize:
                             e.element_stop * got.itemsize],
                )
        assert rebuilt == set(range(len(entries)))

    def test_passthrough_and_fallback_chunks_are_never_kept(self, tmp_path):
        rng = np.random.default_rng(9)
        structured = build_structured(4 * _KEPT_CHUNK, np.float64, 6, rng)
        # No noise columns: the analyzer passes these chunks through.
        smooth = build_structured(2 * _KEPT_CHUNK, np.float64, 0, rng)
        values = np.concatenate([structured[:2 * _KEPT_CHUNK], smooth,
                                 structured[2 * _KEPT_CHUNK:]])
        want = {ChunkMode.PARTITIONED, ChunkMode.PASSTHROUGH,
                ChunkMode.FALLBACK_ZLIB}
        for seed in range(50):
            with chaos_codec(FlakyCodec("zlib", fail_percent=30.0, seed=seed)):
                path, payload = _write(
                    tmp_path, values, linearization=Linearization.ROW
                )
            if want <= set(_modes(payload)):
                break
        else:
            raise AssertionError("no chaos seed mixes all three modes")
        entries = ContainerReader(payload).chunk_index()
        keepable = {
            e.index for e in entries
            if e.metadata.mode is ChunkMode.PARTITIONED
            and 0 < e.metadata.mask.sum() < e.metadata.mask.size
        }
        assert keepable and len(keepable) < len(entries)
        expected = repro.decompress(payload).reshape(-1)
        registry = MetricsRegistry()
        rebuilt = set()
        with ContainerFile(path, cache_chunks=1, metrics=registry) as reader:
            for i in _evict_then_reread(reader.n_chunks, 1):
                e = entries[i]
                before = _loads(registry, "kept")
                got = reader.read_chunk(i)
                if _loads(registry, "kept") > before:
                    rebuilt.add(i)
                assert np.array_equal(
                    got.view(np.uint8),
                    expected[e.element_start:e.element_stop].view(np.uint8),
                )
        assert rebuilt == keepable

    def test_kept_tier_is_bounded(self, tmp_path):
        rng = np.random.default_rng(3)
        values = build_structured(12 * _KEPT_CHUNK, np.float64, 6, rng)
        path, _ = _write(tmp_path, values)
        reads = np.random.default_rng(4).integers(0, 12, size=200)
        for capacity in (0, 1, 3):
            with ContainerFile(path, cache_chunks=capacity) as reader:
                for i in reads:
                    reader.read_chunk(int(i))
                    assert reader.cached_chunks <= capacity
                    assert reader._cache.kept_streams <= capacity
                if capacity:
                    assert reader._cache.kept_streams == capacity
        with ContainerFile(path) as unbounded:
            for i in reads:
                unbounded.read_chunk(int(i))
            assert unbounded.cached_chunks == 12
            assert unbounded._cache.kept_streams == 0


class TestKeptTierDamage:
    """A kept stream never outlives the bytes it was derived from."""

    @pytest.fixture
    def archive(self, tmp_path):
        rng = np.random.default_rng(11)
        values = build_structured(3 * _KEPT_CHUNK, np.float64, 6, rng)
        path, payload = _write(tmp_path, values)
        return path, payload, values

    @staticmethod
    def _rewrite(path, payload, region):
        """Invert one region of chunk 0 on disk, keeping its length."""
        entry = ContainerReader(payload).chunk_index()[0]
        if region == "raw":
            start = entry.payload_offset + entry.compressed_size
            length = entry.incompressible_size
        else:
            start = entry.payload_offset
            length = entry.compressed_size
        start += length // 2
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(bytes(b ^ 0xFF for b in payload[start:start + 16]))

    @pytest.mark.parametrize("region", ["raw", "solver"])
    def test_raises_like_a_fresh_reader(self, archive, region):
        path, payload, _ = archive
        registry = MetricsRegistry()
        with ContainerFile(path, cache_chunks=1, metrics=registry) as reader:
            reader.read_chunk(0)
            reader.read_chunk(1)  # evicts chunk 0: its stream is kept
            assert reader._cache.kept_streams == 1
            self._rewrite(path, payload, region)
            with pytest.raises(IsobarError) as kept:
                reader.read_chunk(0)
        with ContainerFile(path) as fresh:
            with pytest.raises(IsobarError) as direct:
                fresh.read_chunk(0)
        assert type(kept.value) is type(direct.value)
        assert str(kept.value) == str(direct.value)
        assert "chunk 0 at byte offset" in str(kept.value)
        assert _loads(registry, "kept") == 0

    @pytest.mark.parametrize("region", ["raw", "solver"])
    def test_salvage_zero_fills(self, archive, region):
        path, payload, values = archive
        with ContainerFile(
            path, cache_chunks=1, errors="salvage-zero"
        ) as reader:
            reader.read_chunk(0)
            reader.read_chunk(1)
            self._rewrite(path, payload, region)
            assert not reader.read_chunk(0).any()
            assert np.array_equal(
                reader.read_chunk(1), values[_KEPT_CHUNK:2 * _KEPT_CHUNK]
            )
