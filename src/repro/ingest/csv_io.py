"""Vectorized CSV flow-record I/O — the on-disk wire format of the plane.

The schema mirrors a NetFlow-style CSV export, one record per line::

    src_addr,dst_addr,src_port,dst_port,protocol,start_time,end_time,bytes,packets,router

* ``src_addr`` / ``dst_addr``: IPv4 addresses, integer form in canonical
  exports; the parser also accepts dotted-quad (both are exact).
* ``start_time`` / ``end_time``: seconds, written with ``repr`` so the
  shortest-round-trip float survives the text hop bit for bit (likewise
  ``bytes`` / ``packets``) — the foundation of the generator-vs-ingest
  byte-parity proof.
* ``router``: name of the exporting router, empty when unknown.

Real exports are dirty — files get concatenated (stray header lines
mid-file), fields go missing, counters come back ``NaN``.  Parsing is
batch-vectorized through numpy with an explicit policy: a batch is parsed
column-wise in one shot, and only when that fails (a malformed or header
row somewhere in the batch) does the parser drop to per-line
classification of exactly that batch.  Blocks parse inline or, with
``workers > 1``, in a process pool that keeps a bounded number of blocks
in flight; either way batches come out in file order with the same bytes
and the same :class:`ParseStats`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.flows.records import FlowRecord
from repro.routing.prefixes import parse_ipv4
from repro.utils.validation import require

__all__ = [
    "FLOW_CSV_COLUMNS",
    "ParseStats",
    "RecordBatch",
    "export_flow_csv",
    "read_flow_batches",
]

#: Column order of the on-disk schema.
FLOW_CSV_COLUMNS = (
    "src_addr", "dst_addr", "src_port", "dst_port", "protocol",
    "start_time", "end_time", "bytes", "packets", "router",
)
_N_COLUMNS = len(FLOW_CSV_COLUMNS)
_HEADER_LINE = ",".join(FLOW_CSV_COLUMNS)

#: Dirty-row policies: drop and count, fail fast, or keep non-finite
#: byte/packet values so they surface as NaN cells for the detector's
#: ``on_bad_chunk`` discipline to judge.
BAD_ROW_POLICIES = ("skip", "raise", "propagate")


@dataclass
class ParseStats:
    """Counters describing one parsing pass (mutated in place)."""

    rows: int = 0            #: physical data lines seen (headers excluded)
    records: int = 0         #: rows that became records
    bad_rows: int = 0        #: rows dropped (or that raised) under the policy
    header_rows: int = 0     #: stray header lines skipped (concat artifacts)
    propagated_rows: int = 0  #: rows kept with non-finite bytes/packets


@dataclass
class RecordBatch:
    """A column-oriented batch of parsed flow records.

    The vectorized analogue of ``List[FlowRecord]``: one numpy array per
    schema column, all of length :attr:`n_records`, in file order.
    """

    src_addr: np.ndarray      #: int64
    dst_addr: np.ndarray      #: int64
    src_port: np.ndarray      #: int64
    dst_port: np.ndarray      #: int64
    protocol: np.ndarray      #: int64
    start_time: np.ndarray    #: float64
    end_time: np.ndarray      #: float64
    bytes: np.ndarray         #: float64 (NaN/Inf only under ``propagate``)
    packets: np.ndarray       #: float64 (NaN/Inf only under ``propagate``)
    router: np.ndarray = field(default_factory=lambda: np.empty(0, object))
    #: object array of router names ("" = unknown)

    @property
    def n_records(self) -> int:
        """Number of records in the batch."""
        return int(self.src_addr.shape[0])


def _format_value(value: float) -> str:
    """Render a count/time losslessly and compactly (ints without ``.0``)."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 2**53:
        return str(int(as_float))
    return repr(as_float)


def export_flow_csv(records: Iterable[FlowRecord], path,
                    append: bool = False, header: bool = True) -> int:
    """Write *records* to *path* in the canonical schema; returns the count.

    ``append=True`` with ``header=True`` reproduces the concatenated-export
    artifact (a second header line mid-file) on purpose — the parser must
    survive it, and tests build dirty fixtures this way.
    """
    n_written = 0
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(_HEADER_LINE + "\n")
        for record in records:
            fh.write(",".join((
                str(record.src_address),
                str(record.dst_address),
                str(record.src_port),
                str(record.dst_port),
                str(record.protocol),
                _format_value(record.start_time),
                _format_value(record.end_time),
                _format_value(record.bytes),
                _format_value(record.packets),
                record.observing_router or "",
            )) + "\n")
            n_written += 1
    return n_written


# --------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------- #
def _parse_addresses(values: List[str], n: int) -> np.ndarray:
    """Integer addresses from string fields (dotted-quad tolerated)."""
    try:
        return np.array(values, np.int64)
    except ValueError:
        return np.fromiter(
            (parse_ipv4(s) if "." in s else int(s) for s in values),
            np.int64, n)


def _batch_fast_path(fields: List[str], n: int, on_bad_row: str):
    """Whole-batch column-wise parse of *n* rows' flat *fields* list;
    raises ``ValueError`` on any dirt the vectorized path cannot classify
    (the caller then re-parses the batch line by line)."""
    if len(fields) != n * _N_COLUMNS:
        raise ValueError("ragged batch")
    # Columns by list slicing + fromiter(map(...)): no intermediate
    # unicode array, the int/float parse is the only per-field pass —
    # roughly 3x faster than np.array(fields).astype(...).
    src = _parse_addresses(fields[0::_N_COLUMNS], n)
    dst = _parse_addresses(fields[1::_N_COLUMNS], n)
    src_port = np.array(fields[2::_N_COLUMNS], np.int64)
    dst_port = np.array(fields[3::_N_COLUMNS], np.int64)
    protocol = np.array(fields[4::_N_COLUMNS], np.int64)
    start = np.array(fields[5::_N_COLUMNS], np.float64)
    end = np.array(fields[6::_N_COLUMNS], np.float64)
    byte_count = np.array(fields[7::_N_COLUMNS], np.float64)
    packet_count = np.array(fields[8::_N_COLUMNS], np.float64)
    router = np.empty(n, object)
    router[:] = fields[9::_N_COLUMNS]

    valid = ((src >= 0) & (src <= 0xFFFFFFFF)
             & (dst >= 0) & (dst <= 0xFFFFFFFF)
             & (src_port >= 0) & (src_port <= 65535)
             & (dst_port >= 0) & (dst_port <= 65535)
             & (protocol >= 0) & (protocol <= 255)
             & np.isfinite(start) & np.isfinite(end) & (end >= start))
    counts_clean = (np.isfinite(byte_count) & (byte_count >= 0)
                    & np.isfinite(packet_count) & (packet_count >= 0))
    if on_bad_row == "propagate":
        # Non-finite counts ride through (they become NaN cells for the
        # detector's on_bad_chunk policy); finite-but-negative counts are
        # structurally bad under every policy.
        counts_ok = ((~np.isfinite(byte_count) | (byte_count >= 0))
                     & (~np.isfinite(packet_count) | (packet_count >= 0)))
        keep = valid & counts_ok
        n_propagated = int(np.count_nonzero(keep & ~counts_clean))
    else:
        keep = valid & counts_clean
        n_propagated = 0
    n_bad = n - int(np.count_nonzero(keep))
    if n_bad and on_bad_row == "raise":
        raise ValueError("structurally bad row")  # caller pinpoints the line
    if n_bad:
        src, dst = src[keep], dst[keep]
        src_port, dst_port, protocol = src_port[keep], dst_port[keep], protocol[keep]
        start, end = start[keep], end[keep]
        byte_count, packet_count = byte_count[keep], packet_count[keep]
        router = router[keep]
    batch = RecordBatch(src, dst, src_port, dst_port, protocol,
                        start, end, byte_count, packet_count, router)
    return batch, n_bad, n_propagated


def _parse_line(line: str, on_bad_row: str):
    """Classify one line: ``None`` (header), a field tuple, or raise."""
    fields = line.split(",")
    if [f.strip() for f in fields] == list(FLOW_CSV_COLUMNS):
        return None
    if len(fields) != _N_COLUMNS:
        raise ValueError(f"expected {_N_COLUMNS} fields, got {len(fields)}")
    src = parse_ipv4(fields[0]) if "." in fields[0] else int(fields[0])
    dst = parse_ipv4(fields[1]) if "." in fields[1] else int(fields[1])
    src_port, dst_port, protocol = (int(fields[2]), int(fields[3]),
                                    int(fields[4]))
    start, end = float(fields[5]), float(fields[6])
    byte_count, packet_count = float(fields[7]), float(fields[8])
    if not (0 <= src <= 0xFFFFFFFF and 0 <= dst <= 0xFFFFFFFF
            and 0 <= src_port <= 65535 and 0 <= dst_port <= 65535
            and 0 <= protocol <= 255
            and math.isfinite(start) and math.isfinite(end)
            and end >= start):
        raise ValueError("field out of range")
    counts_clean = (math.isfinite(byte_count) and byte_count >= 0
                    and math.isfinite(packet_count) and packet_count >= 0)
    if not counts_clean:
        if on_bad_row != "propagate":
            raise ValueError("non-finite byte/packet count")
        if ((math.isfinite(byte_count) and byte_count < 0)
                or (math.isfinite(packet_count) and packet_count < 0)):
            raise ValueError("negative byte/packet count")
    return (src, dst, src_port, dst_port, protocol, start, end,
            byte_count, packet_count, fields[9].strip(), not counts_clean)


def _batch_line_fallback(lines: List[str], on_bad_row: str,
                         stats: ParseStats):
    """Per-line re-parse of a batch the fast path rejected.

    Owns all the row/header accounting for the batch (the caller adds
    only the record count)."""
    columns: List[list] = [[] for _ in range(_N_COLUMNS + 1)]
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            parsed = _parse_line(stripped, on_bad_row)
        except ValueError as exc:
            if on_bad_row == "raise":
                raise ValueError(
                    f"bad flow-record row {stripped!r}: {exc}") from exc
            stats.rows += 1
            stats.bad_rows += 1
            continue
        if parsed is None:
            stats.header_rows += 1
            continue
        stats.rows += 1
        for column, value in zip(columns, parsed):
            column.append(value)
    if columns[-1]:
        stats.propagated_rows += int(np.count_nonzero(columns[-1]))
    return RecordBatch(
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.int64),
        np.array(columns[3], dtype=np.int64),
        np.array(columns[4], dtype=np.int64),
        np.array(columns[5], dtype=np.float64),
        np.array(columns[6], dtype=np.float64),
        np.array(columns[7], dtype=np.float64),
        np.array(columns[8], dtype=np.float64),
        np.array(columns[9], dtype=object),
    )


def _split_batch(lines: List[str]):
    """Flatten a batch of raw lines to ``(fields, n_rows, n_headers)``
    in C-speed string ops, peeling header/blank lines only when present."""
    buffer = "".join(lines)
    if "\r" in buffer:
        buffer = buffer.replace("\r\n", "\n").replace("\r", "\n")
    n_headers = 0
    if FLOW_CSV_COLUMNS[0] in buffer or "\n\n" in buffer \
            or buffer.startswith("\n"):
        # Header lines (the leading one and mid-file concat artifacts) and
        # blank lines are peeled here so one stray header does not push
        # the whole batch off the vectorized fast path.
        kept = []
        for line in buffer.split("\n"):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == _HEADER_LINE:
                n_headers += 1
                continue
            kept.append(stripped)
        fields = ",".join(kept).split(",") if kept else []
        return fields, len(kept), n_headers
    if buffer.endswith("\n"):
        buffer = buffer[:-1]
    n_rows = buffer.count("\n") + 1
    return buffer.replace("\n", ",").split(","), n_rows, 0


def _parse_block(lines: List[str], on_bad_row: str):
    """Parse one block of raw lines to ``(batch, local ParseStats)``.

    Top-level and self-accounting so it runs identically inline and in a
    worker process (``parse_workers`` parallelism)."""
    local = ParseStats()
    fields, n_rows, n_headers = _split_batch(lines)
    if not n_rows:
        local.header_rows += n_headers
        return None, local
    try:
        batch, n_bad, n_propagated = _batch_fast_path(
            fields, n_rows, on_bad_row)
        local.rows += n_rows
        local.header_rows += n_headers
        local.bad_rows += n_bad
        local.propagated_rows += n_propagated
    except ValueError:
        # The fallback re-reads the raw lines and does its own row/header
        # accounting for this batch.
        batch = _batch_line_fallback(lines, on_bad_row, local)
    local.records += batch.n_records
    return batch, local


def _iter_line_blocks(path, batch_rows: int) -> Iterator[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            lines = fh.readlines(batch_rows * 64)
            if not lines:
                return
            yield lines


def _parse_blocks(blocks: Iterator[List[str]], on_bad_row: str,
                  workers: int):
    """``(batch, local ParseStats)`` per block, in block order."""
    if workers <= 1:
        for lines in blocks:
            yield _parse_block(lines, on_bad_row)
        return
    # Process-parallel parse: each block accounts for itself, so results
    # drained in submission order equal the serial pass.  At most
    # 2 x workers blocks are in flight — memory is bounded by batch_rows,
    # not by the file size.  Binning stays downstream and sequential.
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    pending: deque = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for lines in blocks:
            pending.append(pool.submit(_parse_block, lines, on_bad_row))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _drain_parsed(parsed, stats: ParseStats) -> Iterator[RecordBatch]:
    for batch, local in parsed:
        stats.rows += local.rows
        stats.records += local.records
        stats.bad_rows += local.bad_rows
        stats.header_rows += local.header_rows
        stats.propagated_rows += local.propagated_rows
        if batch is not None and batch.n_records:
            yield batch


def read_flow_batches(
    paths: Union[str, Sequence[str]],
    batch_rows: int = 8192,
    on_bad_row: str = "skip",
    stats: Optional[ParseStats] = None,
    workers: int = 1,
) -> Iterator[RecordBatch]:
    """Stream column-oriented :class:`RecordBatch`es from CSV export(s).

    Parameters
    ----------
    paths:
        One path or an ordered sequence (read back to back, the logical
        concatenation — stray header lines are skipped and counted).
    batch_rows:
        Rows per vectorized parse batch (bounds memory).
    on_bad_row:
        ``"skip"`` (drop and count), ``"raise"`` (fail fast), or
        ``"propagate"`` (keep rows whose byte/packet counts are non-finite
        so they surface as NaN cells downstream; structurally broken rows
        are still skipped).
    stats:
        A :class:`ParseStats` mutated in place as batches are drawn.
    workers:
        Parse processes.  ``1`` (default) parses inline; ``> 1`` fans
        blocks out to a process pool with at most ``2 * workers`` blocks
        in flight — batch order, stats, and byte-parity are identical to
        the serial pass.
    """
    require(batch_rows >= 1, "batch_rows must be >= 1")
    require(on_bad_row in BAD_ROW_POLICIES,
            f"on_bad_row must be one of {BAD_ROW_POLICIES}")
    require(workers >= 1, "workers must be >= 1")
    if stats is None:
        stats = ParseStats()
    path_list = [paths] if isinstance(paths, (str, bytes)) else list(paths)
    require(len(path_list) >= 1, "at least one path is required")
    blocks = itertools.chain.from_iterable(
        _iter_line_blocks(path, batch_rows) for path in path_list)
    yield from _drain_parsed(_parse_blocks(blocks, on_bad_row, workers),
                             stats)
