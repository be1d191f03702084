"""Reusable per-chunk scratch buffers for the compression hot path.

Chunked compression touches every byte of a chunk several times:
building the byte matrix, gathering the compressible/incompressible
column groups, and assembling the container record.  The byte-matrix
copy is gone (:func:`repro.analysis.bytefreq.byte_view` is zero-copy),
and :class:`ChunkWorkspace` removes the remaining per-chunk churn: the
column-gather outputs land in preallocated buffers that are reused from
chunk to chunk, and the column-index arrays derived from an analyzer
mask are memoised (in steady state every chunk of a stream produces the
same mask).

A workspace is *not* thread-safe — the parallel compressor keeps one
per worker thread.  The streams a workspace hands out alias its
buffers, so they are only valid until the next
:meth:`ChunkWorkspace.partition_streams` call; the pipeline materialises
them into the container record (or the solver's input ``bytes``) before
moving to the next chunk.
"""

from __future__ import annotations

import numpy as np

from repro.core.preferences import Linearization

__all__ = ["ChunkWorkspace", "gather_columns"]

#: Memoised mask-index entries kept before the cache is reset (masks
#: are tiny; this only guards against adversarial mask churn).
_MASK_CACHE_LIMIT = 128


def gather_columns(
    matrix: np.ndarray,
    columns: np.ndarray,
    linearization: Linearization,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gather byte-columns of an ``(N, w)`` matrix into one stream.

    ``ROW`` keeps each element's selected bytes adjacent; ``COLUMN``
    emits whole byte-columns in sequence — the stream layouts
    :func:`repro.core.partitioner.partition_matrix` defines.  The
    result is a C-contiguous uint8 array whose bytes are the stream;
    ``out``, when given, is a 1-D uint8 buffer of exactly
    ``N * len(columns)`` bytes that receives it.
    """
    n = matrix.shape[0]
    k = columns.size
    if linearization is Linearization.ROW:
        shaped = None if out is None else out.reshape(n, k)
        return np.take(matrix, columns, axis=1, out=shaped)
    shaped = None if out is None else out.reshape(k, n)
    return np.take(matrix.T, columns, axis=0, out=shaped)


class ChunkWorkspace:
    """Scratch buffers and mask-index memoisation for chunk encoding."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._mask_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def scratch(self, key: str, nbytes: int) -> np.ndarray:
        """A 1-D uint8 scratch view of exactly ``nbytes`` bytes.

        Buffers grow geometrically and persist across calls; two calls
        with the same ``key`` alias the same memory.
        """
        buf = self._buffers.get(key)
        if buf is None or buf.size < nbytes:
            size = max(nbytes, 2 * buf.size if buf is not None else nbytes)
            buf = np.empty(size, dtype=np.uint8)
            self._buffers[key] = buf
        return buf[:nbytes]

    def column_indices(
        self, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(compressible, incompressible)`` column indices for ``mask``."""
        mask_arr = np.asarray(mask, dtype=bool)
        key = mask_arr.tobytes()
        cached = self._mask_cache.get(key)
        if cached is None:
            if len(self._mask_cache) >= _MASK_CACHE_LIMIT:
                self._mask_cache.clear()
            cached = (
                np.flatnonzero(mask_arr),
                np.flatnonzero(~mask_arr),
            )
            self._mask_cache[key] = cached
        return cached

    def partition_streams(
        self,
        matrix: np.ndarray,
        mask: np.ndarray,
        linearization: Linearization,
    ) -> tuple[bytes, memoryview]:
        """Split an ``(N, w)`` byte matrix into its two streams.

        Equivalent to the stream contents of
        :func:`repro.core.partitioner.partition_matrix`, but the column
        gathers land in this workspace's reusable buffers.  The
        compressible stream is materialised as ``bytes`` (it is handed
        to a solver, which may be pure Python); the incompressible
        stream is returned as a zero-copy ``memoryview`` that is only
        valid until the next call on this workspace.
        """
        n, _width = matrix.shape
        lin = Linearization.parse(linearization)
        comp_idx, incomp_idx = self.column_indices(mask)

        if comp_idx.size:
            flat = self.scratch("comp", n * comp_idx.size)
            gather_columns(matrix, comp_idx, lin, out=flat)
            compressible = flat.tobytes()
        else:
            compressible = b""

        if incomp_idx.size:
            flat = self.scratch("incomp", n * incomp_idx.size)
            # The incompressible side is always column-major so each
            # noise column stays contiguous (matches partition_matrix).
            gather_columns(matrix, incomp_idx, Linearization.COLUMN, out=flat)
            incompressible = flat.data
        else:
            incompressible = memoryview(b"")
        return compressible, incompressible
