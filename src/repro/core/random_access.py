"""Random access into ISOBAR containers (database-style reads).

Two readers serve point and range queries without decompressing whole
streams:

* :class:`ContainerReader` — in-memory: indexes a container byte string
  with one metadata pass, then decodes chunks on demand;
* :class:`ContainerFile` — file-backed: opens via the trailing
  chunk-index footer in **O(footer)** work (header + footer reads
  only, no chain scan, no whole-stream load) and seeks straight to
  chunk records.  When the footer is missing, truncated, CRC-damaged
  or inconsistent with the header, it falls back transparently to the
  structural scan (emitting
  ``isobar_container_footer_fallback_total{reason=}``), so pre-footer
  containers and damaged archives stay readable.

Both expose the same query surface —

* ``read_chunk(i)`` — decode exactly one chunk;
* ``read_range(start, stop)`` — decode only the chunks overlapping an
  element range and slice out the requested elements;
* ``element(i)`` — point lookup

— and the same ``errors=`` damage policy and ``cache_chunks=`` LRU
bound.  For ICDE's query workloads this is the payoff of chunked
framing: a range read touches ``O(range / chunk_elements)`` chunks
instead of the whole stream.

A bounded cache keeps more than it shows: when it evicts a partitioned
chunk, the chunk's solver output (its compressible byte-columns) is
kept, and a later miss rebuilds the chunk from that stream plus the
raw columns re-read from the container — the solver, the expensive
part of a decode, does not run again.  Every rebuild passes the same
record and CRC checks as a fresh decode.
"""

from __future__ import annotations

import bisect
import os
import struct
import zlib
from collections import OrderedDict
from typing import BinaryIO, NamedTuple

import numpy as np

from repro.analysis.bytefreq import byte_view
from repro.codecs.base import Codec, get_codec
from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
)
from repro.core.metadata import (
    ChunkIndexEntry,
    ChunkMetadata,
    ChunkMode,
    ContainerFooter,
    ContainerHeader,
    chunk_record_nbytes,
    iter_chain,
    locate_footer,
)
from repro.core.pipeline import decode_chunk_payload
from repro.core.preferences import Linearization, normalize_errors
from repro.core.workspace import gather_columns
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["ChunkIndexEntry", "ContainerFile", "ContainerReader"]

#: Bytes read from the start of a file to parse the global header
#: (generous: headers are well under 1 KiB).
_HEADER_PROBE = 4096
#: Bytes read from EOF to find the footer.  Covers footers of up to
#: ~127 chunks in one read; longer footers declare their length in the
#: trailer and trigger exactly one larger re-read.
_TAIL_PROBE = 4096


def _footer_index(
    footer: ContainerFooter, header: ContainerHeader, header_end: int,
    chain_end: int,
) -> list[ChunkIndexEntry] | None:
    """Build the chunk index from a validated footer — O(n_entries)
    arithmetic, no payload or record reads.

    Returns ``None`` when the footer disagrees with the header or does
    not tile the chunk region exactly (a stale footer after an append,
    or an index for some other version of the file) — the caller then
    falls back to the structural scan.
    """
    if footer.n_chunks != header.n_chunks:
        return None
    index: list[ChunkIndexEntry] = []
    element_cursor = 0
    cursor = header_end
    record_nbytes = chunk_record_nbytes(header.element_width)
    for i, entry in enumerate(footer.entries):
        if entry.payload_offset - record_nbytes != cursor:
            return None
        index.append(
            ChunkIndexEntry(
                index=i,
                element_start=element_cursor,
                element_stop=element_cursor + entry.n_elements,
                payload_offset=entry.payload_offset,
                compressed_size=entry.compressed_size,
                incompressible_size=entry.incompressible_size,
                record_offset=cursor,
            )
        )
        element_cursor += entry.n_elements
        cursor = entry.payload_end
    if cursor != chain_end or element_cursor != header.n_elements:
        return None
    return index


class _Origin(NamedTuple):
    """What a decoded partitioned chunk's solver output can be kept as."""

    mask: np.ndarray  # the record's compressible byte-columns
    payload_crc: int  # crc32 of the solver payload it was decoded from


class _Kept(NamedTuple):
    """An evicted chunk's solver output, ready to rebuild the chunk from."""

    stream: bytes  # compressible columns in the header's linearization
    payload_crc: int  # crc32 of the solver payload it stands in for


def _keepable(meta: ChunkMetadata) -> bool:
    """Whether keeping ``meta``'s solver output saves a solver run and
    costs strictly less memory than the chunk: a partitioned chunk with
    both compressible and raw columns.  Passthrough and zlib-fallback
    chunks are all solver output; degraded-raw ones have none."""
    n_solved = int(np.count_nonzero(meta.mask))
    return meta.mode is ChunkMode.PARTITIONED and 0 < n_solved < meta.mask.size


class _ChunkCache:
    """Two-tier LRU: decoded chunks, then evicted chunks' solver output.

    ``capacity=None`` keeps every decoded chunk (the historical
    behaviour, right for small containers); an integer bounds the
    cache so long-lived range-serving readers cannot grow without
    limit; ``0`` disables caching entirely.

    When the bounded first tier evicts a chunk that has an
    :class:`_Origin`, its compressible stream is gathered from the
    decoded chunk and kept in a second LRU of the same capacity, so at
    most ``capacity`` decoded chunks plus ``capacity`` kept streams —
    each strictly smaller than its chunk — are held.
    """

    def __init__(self, capacity: int | None, linearization: Linearization):
        if capacity is not None and capacity < 0:
            raise ConfigurationError(
                f"cache_chunks must be None or >= 0, got {capacity}"
            )
        self._capacity = capacity
        self._linearization = linearization
        self._entries: OrderedDict[
            int, tuple[np.ndarray, _Origin | None]
        ] = OrderedDict()
        self._kept: OrderedDict[int, _Kept] = OrderedDict()

    @property
    def keeps(self) -> bool:
        """Whether evictions can happen, so solver output is worth
        tracking (a bounded, non-zero capacity)."""
        return bool(self._capacity)

    @property
    def kept_streams(self) -> int:
        """Solver streams currently kept for evicted chunks."""
        return len(self._kept)

    def get(self, index: int) -> np.ndarray | None:
        found = self._entries.get(index)
        if found is None:
            return None
        if self._capacity is not None:
            self._entries.move_to_end(index)
        return found[0]

    def take_kept(self, index: int) -> _Kept | None:
        """Remove and return the solver output kept for ``index``."""
        return self._kept.pop(index, None)

    def put(
        self, index: int, chunk: np.ndarray, origin: _Origin | None
    ) -> None:
        if self._capacity == 0:
            return
        self._entries[index] = (chunk, origin)
        if self._capacity is not None:
            self._entries.move_to_end(index)
            while len(self._entries) > self._capacity:
                evicted, (old, old_origin) = self._entries.popitem(last=False)
                if old_origin is not None:
                    self._keep(evicted, old, old_origin)

    def _keep(self, index: int, chunk: np.ndarray, origin: _Origin) -> None:
        assert self._capacity is not None
        columns = np.flatnonzero(origin.mask)
        stream = gather_columns(byte_view(chunk), columns, self._linearization)
        self._kept[index] = _Kept(stream.tobytes(), origin.payload_crc)
        while len(self._kept) > self._capacity:
            self._kept.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class _RangeReaderBase:
    """Query surface shared by the in-memory and file-backed readers.

    Subclasses set ``_source`` (the container bytes or its seekable
    file) and build the index; this base decodes walked chunks from it
    and supplies the element-span index, the LRU memoisation, the
    ``errors=`` policy, and the range/point read logic on top.
    """

    _source: bytes | BinaryIO
    _header: ContainerHeader
    _codec: Codec
    _errors: str
    _index: list[ChunkIndexEntry]
    _starts: list[int]
    _cache: _ChunkCache
    _instruments = PipelineInstruments(NULL_REGISTRY)

    def _init_base(
        self,
        header: ContainerHeader,
        index: list[ChunkIndexEntry],
        errors: str,
        cache_chunks: int | None,
    ) -> None:
        self._header = header
        self._codec = get_codec(header.codec_name)
        self._errors = normalize_errors(errors)
        self._index = index
        self._starts = [entry.element_start for entry in index]
        self._cache = _ChunkCache(cache_chunks, header.linearization)

    # -- introspection ----------------------------------------------------

    @property
    def header(self) -> ContainerHeader:
        """The container's global header."""
        return self._header

    @property
    def n_elements(self) -> int:
        """Total elements stored."""
        return self._header.n_elements

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the container."""
        return self._header.n_chunks

    @property
    def cached_chunks(self) -> int:
        """Decoded chunks currently memoised."""
        return len(self._cache)

    def chunk_index(self) -> tuple[ChunkIndexEntry, ...]:
        """The full chunk index (spans and payload offsets)."""
        return tuple(self._index)

    def chunk_for_element(self, position: int) -> ChunkIndexEntry:
        """Index entry of the chunk containing element ``position``."""
        if not 0 <= position < self.n_elements:
            raise InvalidInputError(
                f"element {position} out of range [0, {self.n_elements})"
            )
        i = bisect.bisect_right(self._starts, position) - 1
        return self._index[i]

    # -- decoding ---------------------------------------------------------

    def _fetch(
        self, entry: ChunkIndexEntry
    ) -> tuple[ChunkMetadata, bytes, bytes]:
        """Read one chunk's record and its two payload streams."""
        meta = entry.metadata
        assert meta is not None  # iter_chain entries carry their record
        compressed, incompressible = entry.payloads(self._source)
        return meta, compressed, incompressible

    def _decode(
        self, entry: ChunkIndexEntry, kept: _Kept | None
    ) -> tuple[np.ndarray, _Origin | None]:
        """Fetch and decode one chunk (raises on damage), rebuilding it
        from ``kept`` solver output when that still matches the file."""
        meta, compressed, incompressible = self._fetch(entry)
        origin = None
        if self._cache.keeps and _keepable(meta):
            origin = _Origin(meta.mask, zlib.crc32(compressed))
        if (
            kept is not None
            and origin is not None
            and kept.payload_crc == origin.payload_crc
        ):
            try:
                chunk = decode_chunk_payload(
                    self._header, self._codec, meta, compressed,
                    incompressible, chunk_index=entry.index,
                    byte_offset=entry.record_offset, solved=kept.stream,
                )
            except IsobarError:
                pass  # the rebuild failed its checks: the solver decides
            else:
                self._instruments.reader_chunk_loads.inc(1, source="kept")
                return chunk, origin
        chunk = decode_chunk_payload(
            self._header, self._codec, meta, compressed, incompressible,
            chunk_index=entry.index, byte_offset=entry.record_offset,
        )
        self._instruments.reader_chunk_loads.inc(1, source="solver")
        return chunk, origin

    def read_chunk(self, index: int) -> np.ndarray:
        """Decode exactly one chunk (memoised per ``cache_chunks``).

        The returned array is read-only: it may be the cache's own
        copy, shared with later reads.
        """
        if not 0 <= index < self.n_chunks:
            raise InvalidInputError(
                f"chunk {index} out of range [0, {self.n_chunks})"
            )
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        entry = self._index[index]
        origin = None
        try:
            chunk, origin = self._decode(entry, self._cache.take_kept(index))
        except IsobarError:
            if self._errors == "raise":
                raise
            if self._errors == "salvage-zero":
                chunk = np.zeros(entry.n_elements, dtype=self._header.dtype)
            else:  # salvage-skip: the chunk's elements are simply gone
                chunk = np.empty(0, dtype=self._header.dtype)
        chunk.flags.writeable = False
        self._cache.put(index, chunk, origin)
        return chunk

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Decode elements ``[start, stop)``, touching only needed chunks."""
        if not 0 <= start <= stop <= self.n_elements:
            raise InvalidInputError(
                f"range [{start}, {stop}) out of bounds for "
                f"{self.n_elements} elements"
            )
        if start == stop:
            return np.empty(0, dtype=self._header.dtype)
        first = self.chunk_for_element(start).index
        last = self.chunk_for_element(stop - 1).index
        pieces = []
        for i in range(first, last + 1):
            entry = self._index[i]
            chunk = self.read_chunk(i)
            lo = max(start, entry.element_start) - entry.element_start
            hi = min(stop, entry.element_stop) - entry.element_start
            pieces.append(chunk[lo:hi])
        # concatenate() normalises byte order to native; restore the
        # header's exact dtype.
        return np.concatenate(pieces).astype(self._header.dtype, copy=False)

    def element(self, position: int) -> np.generic:
        """Point lookup of a single element.

        Under ``errors="salvage-skip"`` a position inside a damaged
        chunk has no value to return; that read raises
        :class:`~repro.core.exceptions.ContainerFormatError` (use
        ``"salvage-zero"`` to keep point lookups total).
        """
        entry = self.chunk_for_element(position)
        chunk = self.read_chunk(entry.index)
        offset = position - entry.element_start
        if offset >= chunk.size:
            raise ContainerFormatError(
                f"chunk {entry.index}: element {position} was lost to a "
                "damaged chunk (errors='salvage-skip')"
            )
        return chunk[offset]

    def read_all(self) -> np.ndarray:
        """Decode the whole container (equivalent to the pipeline path).

        Under ``errors="salvage-skip"`` the elements of damaged chunks
        are dropped, and the flat survivors are returned unshaped.
        """
        flat = self.read_range(0, self.n_elements)
        shape = self._header.shape
        n_shape = 1
        for dim in shape:
            n_shape *= dim
        if shape and n_shape == flat.size:
            return flat.reshape(shape)
        return flat


class ContainerReader(_RangeReaderBase):
    """Index an in-memory ISOBAR container once, then decode on demand.

    ``errors`` selects the shared damage policy: ``"raise"`` (default)
    propagates the located exception of the first damaged chunk read;
    ``"salvage-skip"`` yields an empty chunk in its place (range reads
    simply drop the lost elements); ``"salvage-zero"`` substitutes zero
    elements of the declared chunk length, keeping element positions
    stable.

    ``cache_chunks`` bounds the decoded-chunk memoisation: ``None``
    (default) keeps every decoded chunk, an integer keeps an LRU of at
    most that many, ``0`` disables caching.  A bounded cache also keeps
    the solver output of up to that many evicted partitioned chunks,
    so re-reading one skips the solver (see the "Reader cache" section
    of ``docs/container_format.md``).
    """

    def __init__(
        self,
        data: bytes,
        *,
        errors: str = "raise",
        cache_chunks: int | None = None,
    ):
        self._source = data
        header, offset = ContainerHeader.decode(data)
        self._init_base(
            header, list(iter_chain(data, header, offset)), errors,
            cache_chunks,
        )


class ContainerFile(_RangeReaderBase):
    """File-backed random access with O(1) open via the index footer.

    Opening reads only the header prefix and the trailing footer —
    cost proportional to the footer, independent of payload size — and
    each ``read_chunk`` then seeks directly to its record.  When the
    footer cannot be used (missing on pre-footer containers, truncated,
    CRC-failed, or inconsistent with the header) the reader falls back
    transparently to walking the chunk chain one record at a time,
    and counts the event under
    ``isobar_container_footer_fallback_total{reason=}``.

    ``source`` is a filesystem path or a seekable binary file object
    (a path-opened handle is owned and closed by :meth:`close` / the
    context manager; a caller-provided handle stays the caller's).
    ``errors`` and ``cache_chunks`` behave as on
    :class:`ContainerReader`.  Instances are not thread-safe: they
    share one seek cursor.
    """

    def __init__(
        self,
        source: str | os.PathLike | BinaryIO,
        *,
        errors: str = "raise",
        cache_chunks: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        registry = NULL_REGISTRY if metrics is None else metrics
        self._instruments = PipelineInstruments(registry)
        if isinstance(source, (str, os.PathLike)):
            self._file: BinaryIO = open(source, "rb")
            self._owned = True
        else:
            self._file = source
            self._owned = False
        self._source = self._file
        self._closed = False
        self._fallback_reason: str | None = None
        try:
            self._open_index(errors, cache_chunks)
        except BaseException:
            if self._owned:
                self._file.close()
            raise

    def _open_index(self, errors: str, cache_chunks: int | None) -> None:
        prefix = self._pread(0, _HEADER_PROBE)
        header, header_end = ContainerHeader.decode(prefix)
        self._file.seek(0, os.SEEK_END)
        file_size = self._file.tell()

        reason: str | None = None
        index: list[ChunkIndexEntry] | None = None
        probe_len = min(file_size, _TAIL_PROBE)
        tail = self._pread(file_size - probe_len, probe_len)
        location = locate_footer(tail)
        if location.status == "truncated" and probe_len < file_size:
            # The trailer declares a footer longer than the probe — not
            # necessarily damage.  Re-read exactly footer_len bytes and
            # classify again; a genuinely impossible length stays
            # "truncated".
            (footer_len,) = struct.unpack_from("<I", tail, len(tail) - 8)
            if footer_len <= file_size:
                tail = self._pread(file_size - footer_len, footer_len)
                location = locate_footer(tail)
        if location.ok:
            assert location.footer is not None
            footer_start = file_size - (len(tail) - location.start)
            index = _footer_index(
                location.footer, header, header_end, footer_start
            )
            reason = None if index is not None else "inconsistent"
        else:
            reason = location.status

        if index is None:
            # Fallback: the strict chain walk, one record read per
            # chunk.  Worse than the footer path (O(n_chunks) reads)
            # but keeps every pre-footer and damaged container readable.
            assert reason is not None
            self._fallback_reason = reason
            self._instruments.footer_fallback.inc(1, reason=reason)
            index = list(iter_chain(self._file, header, header_end))
        self._init_base(header, index, errors, cache_chunks)

    def _pread(self, offset: int, n_bytes: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(n_bytes)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release the underlying file handle (owned handles only)."""
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self._file.close()

    def __enter__(self) -> "ContainerFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ----------------------------------------------------

    @property
    def opened_via(self) -> str:
        """``"footer"`` (O(1) open) or ``"scan"`` (fallback walk)."""
        return "scan" if self._fallback_reason is not None else "footer"

    @property
    def fallback_reason(self) -> str | None:
        """Why the footer was unusable (``None`` on the footer path)."""
        return self._fallback_reason

    # -- decoding ---------------------------------------------------------

    def _fetch(
        self, entry: ChunkIndexEntry
    ) -> tuple[ChunkMetadata, bytes, bytes]:
        if entry.metadata is not None:  # scan-opened: walked records
            return super()._fetch(entry)
        # Footer path: one seek + one read covers record and payloads.
        record_offset = entry.record_offset
        blob = self._pread(record_offset, entry.payload_end - record_offset)
        meta, payload_pos = ChunkMetadata.decode(
            blob, 0, self._header.element_width
        )
        if (
            meta.compressed_size != entry.compressed_size
            or meta.incompressible_size != entry.incompressible_size
            or meta.n_elements != entry.n_elements
        ):
            raise ContainerFormatError(
                f"chunk {entry.index} at byte offset {record_offset}: "
                "chunk record disagrees with the index footer "
                "(container modified after indexing?)"
            )
        split = payload_pos + entry.compressed_size
        return (
            meta,
            blob[payload_pos:split],
            blob[split:split + entry.incompressible_size],
        )
