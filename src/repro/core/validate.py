"""Deep container validation (the ``isobar verify`` tool).

Archival data outlives the software that wrote it; a validator that
checks a container end-to-end — structure, metadata consistency,
payload decodability and CRC integrity — belongs next to any archival
format.  :func:`validate_container` walks an ISOBAR container and
produces a structured report instead of an exception trail, so
operators can see *everything* wrong with a file in one pass.

Checks performed per container:

* header magic, version and field sanity;
* chunk record chain: magics, monotone offsets, exact coverage of the
  declared element count;
* per chunk: payload decodability with the declared solver, stream
  length consistency with the mask geometry, and the CRC32 of the
  reconstructed raw bytes;
* chunk-index footer cross-check: a validated footer is compared
  entry-by-entry against the walked chunk chain and classified as
  ``ok`` / ``absent`` / ``rebuildable`` / ``inconsistent``;
* trailing-garbage detection (bytes after the last chunk that are not
  a valid footer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import zlib as _zlib

from repro.codecs.base import get_codec
from repro.core.exceptions import IsobarError, UnknownCodecError
from repro.core.metadata import (
    ChunkIndexRecord,
    ChunkMode,
    ContainerHeader,
    FooterLocation,
    locate_footer,
)
from repro.core.partitioner import reassemble_matrix

__all__ = [
    "ChunkFinding",
    "FooterCheck",
    "ValidationReport",
    "classify_footer",
    "validate_container",
]


@dataclass(frozen=True)
class ChunkFinding:
    """One problem discovered in one chunk (or the header, index -1)."""

    chunk_index: int
    severity: str  # "error" | "warning"
    message: str


@dataclass
class ValidationReport:
    """Everything the validator learned about a container."""

    valid: bool = True
    header: ContainerHeader | None = None
    n_chunks_checked: int = 0
    n_elements_recovered: int = 0
    findings: list[ChunkFinding] = field(default_factory=list)
    #: Chunk-index footer classification: ``"ok"`` (validated and
    #: consistent with the chain), ``"absent"`` (pre-footer container),
    #: ``"rebuildable"`` (lost/truncated/CRC-failed — ``isobar fsck
    #: --repair`` can rebuild it from the chain) or ``"inconsistent"``
    #: (validates but disagrees with the header or chain).
    footer_status: str = "absent"
    footer_detail: str = ""

    def error(self, chunk_index: int, message: str) -> None:
        """Record a fatal finding."""
        self.findings.append(ChunkFinding(chunk_index, "error", message))
        self.valid = False

    def warn(self, chunk_index: int, message: str) -> None:
        """Record a non-fatal finding."""
        self.findings.append(ChunkFinding(chunk_index, "warning", message))

    @property
    def errors(self) -> list[ChunkFinding]:
        """Only the fatal findings."""
        return [f for f in self.findings if f.severity == "error"]

    def summary_lines(self) -> list[str]:
        """Human-readable report body."""
        lines = []
        if self.header is not None:
            lines.append(
                f"header: {self.header.dtype}, "
                f"{self.header.n_elements} elements, "
                f"{self.header.n_chunks} chunks, "
                f"codec {self.header.codec_name}"
            )
        lines.append(
            f"checked {self.n_chunks_checked} chunks, recovered "
            f"{self.n_elements_recovered} elements"
        )
        footer_line = f"footer: {self.footer_status}"
        if self.footer_detail:
            footer_line += f" ({self.footer_detail})"
        lines.append(footer_line)
        for finding in self.findings:
            where = ("header" if finding.chunk_index < 0
                     else f"chunk {finding.chunk_index}")
            lines.append(f"[{finding.severity}] {where}: {finding.message}")
        lines.append("RESULT: " + ("VALID" if self.valid else "INVALID"))
        return lines


def validate_container(data: bytes) -> ValidationReport:
    """Walk an ISOBAR container and report every problem found.

    Never raises for content problems — all failures land in the
    report.  (Programming errors, e.g. passing a non-bytes object,
    still raise.)

    The chunk chain is walked with the salvage scanner
    (:func:`repro.core.salvage.scan_chunks`), so the validator
    resynchronizes over structurally damaged regions and reports *all*
    findings instead of stopping at the first unreadable record.
    """
    # Imported here: salvage builds on pipeline which builds on the
    # metadata layer this module also uses — keep import order simple.
    from repro.core.salvage import scan_chunks

    report = ValidationReport()

    try:
        header, offset = ContainerHeader.decode(data)
    except IsobarError as exc:
        report.error(-1, f"unreadable header: {exc}")
        return report
    report.header = header

    try:
        codec = get_codec(header.codec_name)
    except UnknownCodecError as exc:
        report.error(-1, str(exc))
        return report

    width = header.element_width
    element_cursor = 0
    index = 0
    end = offset
    chain: list[ChunkIndexRecord] = []
    for event in scan_chunks(data, header, offset, codec):
        end = max(end, event.end)
        if event.kind == "chunk":
            chain.append(
                ChunkIndexRecord(
                    payload_offset=event.payload_offset,
                    compressed_size=event.meta.compressed_size,
                    incompressible_size=event.meta.incompressible_size,
                    n_elements=event.meta.n_elements,
                )
            )
        if event.kind == "gap":
            if event.end == len(data):
                report.error(
                    index,
                    f"unreadable chunk record at byte {event.start}, no "
                    f"later chunk found: {event.cause}",
                )
            else:
                report.error(
                    index,
                    f"unreadable chunk record at byte {event.start}; "
                    f"resynchronized at byte {event.end} "
                    f"({event.end - event.start} bytes lost): {event.cause}",
                )
            index += 1
            continue
        meta = event.meta
        payload_offset = event.payload_offset
        compressed = data[payload_offset:payload_offset + meta.compressed_size]
        incompressible = data[payload_offset + meta.compressed_size:event.end]
        report.n_chunks_checked += 1

        n_comp_cols = int(np.count_nonzero(meta.mask))
        n_incomp_cols = width - n_comp_cols
        if meta.mode is ChunkMode.PARTITIONED:
            expected_incomp = meta.n_elements * n_incomp_cols
            if meta.incompressible_size != expected_incomp:
                report.error(
                    index,
                    f"incompressible stream is {meta.incompressible_size} "
                    f"bytes, mask geometry implies {expected_incomp}",
                )
                index += 1
                continue
            if n_comp_cols == 0 and meta.compressed_size == 0:
                report.warn(
                    index,
                    "chunk stored raw with an all-incompressible mask "
                    "(resilience degradation or undetermined data)",
                )
            elif n_comp_cols == 0 or n_incomp_cols == 0:
                report.warn(
                    index,
                    "partitioned chunk with a degenerate mask "
                    "(all or none compressible)",
                )
        elif meta.incompressible_size != 0:
            # PASSTHROUGH and FALLBACK_ZLIB both store a single solver
            # stream and no noise bytes.
            report.error(
                index, f"{meta.mode.name.lower()} chunk carries raw "
                "noise bytes"
            )
            index += 1
            continue

        try:
            if meta.mode is ChunkMode.PARTITIONED:
                comp_stream = (
                    codec.decompress(compressed) if compressed else b""
                )
                matrix = reassemble_matrix(
                    comp_stream, incompressible, meta.mask,
                    header.linearization, meta.n_elements,
                )
                raw = matrix.tobytes()
            elif meta.mode is ChunkMode.FALLBACK_ZLIB:
                try:
                    raw = _zlib.decompress(compressed)
                except _zlib.error as exc:
                    report.error(
                        index, f"zlib-fallback payload undecodable: {exc}"
                    )
                    index += 1
                    continue
                if len(raw) != meta.n_elements * width:
                    report.error(
                        index,
                        f"payload decodes to {len(raw)} bytes, expected "
                        f"{meta.n_elements * width}",
                    )
                    index += 1
                    continue
            else:
                raw = codec.decompress(compressed)
                if len(raw) != meta.n_elements * width:
                    report.error(
                        index,
                        f"payload decodes to {len(raw)} bytes, expected "
                        f"{meta.n_elements * width}",
                    )
                    index += 1
                    continue
        except IsobarError as exc:
            report.error(index, f"payload undecodable: {exc}")
            index += 1
            continue

        if _zlib.crc32(raw) != meta.raw_crc32:
            report.error(index, "CRC mismatch: chunk content corrupted")
            index += 1
            continue
        element_cursor += meta.n_elements
        report.n_elements_recovered += meta.n_elements
        index += 1

    if report.n_chunks_checked < header.n_chunks and not report.errors:
        report.error(
            -1,
            f"found {report.n_chunks_checked} chunk records, header "
            f"declares {header.n_chunks}",
        )
    if element_cursor != header.n_elements and not report.errors:
        report.error(
            -1,
            f"chunks cover {element_cursor} elements, header declares "
            f"{header.n_elements}",
        )
    check = classify_footer(data, header, chain, end)
    report.footer_status, report.footer_detail = check.status, check.detail
    location = check.location
    repair_hint = "; run `isobar fsck --repair` to rebuild it"
    if check.status == "inconsistent":
        report.warn(
            -1, f"chunk-index footer inconsistent: {check.detail}{repair_hint}"
        )
    if location.ok and end < location.start:
        report.warn(
            -1,
            f"{location.start - end} trailing bytes between the last "
            "chunk and the footer",
        )
    if check.status == "rebuildable":
        report.warn(
            -1,
            f"chunk-index footer {location.status}: {check.detail}"
            f"{repair_hint}",
        )
        if len(data) > end:
            report.warn(
                -1, f"{len(data) - end} trailing bytes after the last chunk"
            )
    return report


@dataclass(frozen=True)
class FooterCheck:
    """Verdict of :func:`classify_footer` on a container's index footer.

    ``status`` is ``"ok"`` (validated and consistent with the chain),
    ``"absent"`` (pre-footer container), ``"rebuildable"`` (lost,
    truncated, CRC-failed or debris — rebuildable from the chain) or
    ``"inconsistent"`` (validates but disagrees with the header or
    chain); ``location`` is the raw discovery result.
    """

    status: str
    detail: str
    location: FooterLocation


def classify_footer(
    data: bytes,
    header: ContainerHeader,
    chain: Sequence[ChunkIndexRecord],
    chain_end: int,
) -> FooterCheck:
    """Cross-check the index footer against the walked chunk chain.

    ``chain`` holds the records the chain walk found and ``chain_end``
    the offset just past them.  Shared by ``isobar verify`` and
    ``isobar fsck``, which map the verdict into their own reports.
    """
    location = locate_footer(data)
    footer = location.footer
    if footer is not None:
        if footer.n_chunks != header.n_chunks:
            detail = (
                f"footer indexes {footer.n_chunks} chunks, header "
                f"declares {header.n_chunks} (stale footer after append?)"
            )
        elif len(chain) != footer.n_chunks:
            detail = (
                f"footer indexes {footer.n_chunks} chunks, chain walk "
                f"found {len(chain)}"
            )
        else:
            mismatch = next(
                (i for i, (entry, walked) in enumerate(
                    zip(footer.entries, chain)
                ) if entry != walked),
                None,
            )
            if mismatch is None:
                return FooterCheck("ok", "", location)
            detail = f"footer entry {mismatch} disagrees with the chunk chain"
        return FooterCheck("inconsistent", detail, location)
    trailing = len(data) - chain_end
    if location.status == "absent" and trailing == 0:
        return FooterCheck(
            "absent", "pre-footer container (scan-indexed open)", location
        )
    # Footer damaged or replaced by debris: a forward scan still
    # reconstructs the index, so fsck can rebuild it.
    return FooterCheck(
        "rebuildable",
        location.detail or (
            f"{trailing} trailing bytes after the last chunk are not a "
            "valid footer"
        ),
        location,
    )
