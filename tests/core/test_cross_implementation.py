"""Cross-implementation consistency: one format, many readers/writers.

The container format has four writers (the serial pipeline, the
parallel compressor that only maps its chunks onto worker threads, the
streaming writer and concat) and five strict readers (serial and
parallel ``decompress``, ``ContainerReader``, ``ContainerFile`` and
``stream_decompress``), which all walk the chain with
``repro.core.metadata.iter_chain``; the validator reads through the
lenient ``scan_chunks``.  The property tests drive random inputs
through every pairing and assert bit-exact agreement; the differential
test drives damaged and header-tampered containers through the strict
readers and asserts they return the same bits or raise the same error.
"""

import functools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.concat import concat_containers
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerReader
from repro.core.stream import stream_decompress
from repro.core.validate import validate_container

_CFG = IsobarConfig(codec="zlib", linearization="row",
                    chunk_elements=64, sample_elements=64)

_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 400),
    elements=st.floats(allow_nan=True, allow_infinity=True),
)


def _bits(values):
    return np.asarray(values).reshape(-1).view(np.uint64)


class TestEveryReaderAgrees:
    @settings(max_examples=30, deadline=None)
    @given(values=_arrays)
    def test_all_readers_on_pipeline_output(self, values, tmp_path_factory):
        payload = IsobarCompressor(_CFG).compress(values)

        from_pipeline = IsobarCompressor().decompress(payload)
        from_parallel = ParallelIsobarCompressor(n_workers=2).decompress(
            payload
        )
        from_reader = ContainerReader(payload).read_all()

        assert np.array_equal(_bits(from_pipeline), _bits(values))
        assert np.array_equal(_bits(from_parallel), _bits(values))
        assert np.array_equal(_bits(from_reader), _bits(values))
        assert validate_container(payload).valid

    @settings(max_examples=20, deadline=None)
    @given(values=_arrays)
    def test_stream_reader_on_pipeline_output(self, values, tmp_path_factory):
        payload = IsobarCompressor(_CFG).compress(values)
        path = tmp_path_factory.mktemp("ximpl") / "c.isobar"
        path.write_bytes(payload)
        chunks = list(stream_decompress(path))
        restored = (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype=np.float64))
        assert np.array_equal(_bits(restored), _bits(values))

    @settings(max_examples=25, deadline=None)
    @given(values=_arrays)
    def test_parallel_writer_serial_reader(self, values):
        payload = ParallelIsobarCompressor(_CFG, n_workers=3).compress(values)
        restored = IsobarCompressor().decompress(payload)
        assert np.array_equal(_bits(restored), _bits(values))


class TestConcatProperty:
    @settings(max_examples=25, deadline=None)
    @given(pieces=st.lists(_arrays, min_size=1, max_size=4))
    def test_concat_equals_concatenation(self, pieces):
        containers = [IsobarCompressor(_CFG).compress(p) for p in pieces]
        merged = concat_containers(containers)
        restored = IsobarCompressor().decompress(merged)
        expected = np.concatenate([p.reshape(-1) for p in pieces])
        assert np.array_equal(_bits(restored), _bits(expected))
        assert validate_container(merged).valid

    @settings(max_examples=15, deadline=None)
    @given(pieces=st.lists(_arrays, min_size=2, max_size=3))
    def test_concat_is_associative(self, pieces):
        containers = [IsobarCompressor(_CFG).compress(p) for p in pieces]
        left = concat_containers(
            [concat_containers(containers[:-1]), containers[-1]]
        )
        flat = concat_containers(containers)
        assert (IsobarCompressor().decompress(left).tobytes()
                == IsobarCompressor().decompress(flat).tobytes())


# -- differential strict readers ----------------------------------------

# tau=2 makes every 4096-element chunk partitioned, so each chunk has a
# compressed and an incompressible payload boundary to cut at.
_DIFF_CFG = IsobarConfig(codec="zlib", linearization="row", tau=2.0,
                         chunk_elements=4096, sample_elements=1024)


def _strict_readers(tmp_path):
    """The five strict readers, each ``bytes -> flat array``."""
    from repro.core.random_access import ContainerFile

    def _file(payload):
        path = tmp_path / "c.isobar"
        path.write_bytes(payload)
        return path

    def _container_file(payload):
        with ContainerFile(_file(payload)) as reader:
            return reader.read_all()

    def _stream(payload):
        chunks = list(stream_decompress(_file(payload)))
        return np.concatenate(chunks) if chunks else np.empty(0)

    return {
        "pipeline": IsobarCompressor().decompress,
        "parallel": ParallelIsobarCompressor(n_workers=2).decompress,
        "reader": lambda payload: ContainerReader(payload).read_all(),
        "file": _container_file,
        "stream": _stream,
    }


@functools.lru_cache(maxsize=None)
def _three_chunk_container():
    from repro.datasets.synthetic import build_structured

    values = build_structured(
        3 * 4096, np.float64, 6, np.random.default_rng(7)
    )
    return IsobarCompressor(_DIFF_CFG).compress(values), values


def _structural_cuts(payload):
    """Truncation points at every structural boundary of the chain."""
    from repro.core.metadata import ChunkMetadata, ContainerHeader

    header, offset = ContainerHeader.decode(payload)
    cuts = [0, offset]
    for _ in range(header.n_chunks):
        meta, payload_offset = ChunkMetadata.decode(
            payload, offset, header.element_width
        )
        offset = payload_offset + meta.compressed_size
        cuts += [payload_offset, offset, offset + meta.incompressible_size]
        offset += meta.incompressible_size
    cuts.append(len(payload) - 1)  # inside the footer trailer
    return sorted(set(cuts))


def _retitle(payload, **changes):
    """Re-encode the header with ``changes``; the footer stays intact."""
    from dataclasses import replace

    from repro.core.metadata import ContainerHeader

    header, offset = ContainerHeader.decode(payload)
    encoded = replace(header, **changes).encode()
    assert len(encoded) == offset
    return encoded + payload[offset:]


def _damaged_inputs(payload):
    from repro.core.metadata import ContainerHeader
    from repro.testing.faults import FAULT_TYPES, inject

    for fault in FAULT_TYPES:
        for seed in range(3):
            yield f"{fault}-{seed}", inject(payload, fault, seed).data
    for cut in _structural_cuts(payload):
        yield f"cut-{cut}", payload[:cut]
    header, _ = ContainerHeader.decode(payload)
    for delta in (-1, 1):
        yield (f"n_elements{delta:+d}",
               _retitle(payload, n_elements=header.n_elements + delta))
        yield (f"n_chunks{delta:+d}",
               _retitle(payload, n_chunks=header.n_chunks + delta))
    yield "shape-mismatch", _retitle(payload, shape=(header.n_elements + 1,))


_DAMAGED = dict(_damaged_inputs(_three_chunk_container()[0]))


class TestStrictReadersAgree:
    """Every strict reader returns the same bits or the same error.

    One 3x4096-element container is damaged every way the fault
    injectors know, cut at every structural boundary and given a
    header that disagrees with its chunk chain; the pipeline, parallel,
    in-memory random-access, file-backed random-access and streaming
    readers must all agree on each input.
    """

    @pytest.mark.parametrize("label", sorted(_DAMAGED))
    def test_differential(self, label, tmp_path):
        from repro.core.exceptions import IsobarError

        outcomes = {}
        for name, read in _strict_readers(tmp_path).items():
            try:
                restored = read(_DAMAGED[label])
            except IsobarError as exc:
                outcomes[name] = type(exc).__name__
            else:
                outcomes[name] = f"{restored.size} elements, crc " + str(
                    zlib.crc32(_bits(restored).tobytes())
                )
        assert len(set(outcomes.values())) == 1, outcomes

    def test_clean_container_reads_back(self, tmp_path):
        payload, values = _three_chunk_container()
        for name, read in _strict_readers(tmp_path).items():
            assert np.array_equal(_bits(read(payload)), _bits(values)), name
