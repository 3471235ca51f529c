"""CSV flow-record parser/exporter: round trips, dirty data, parallelism.

The committed fixture ``tests/data/flows_fixture.csv`` is a deliberately
dirty concatenated export: a stray mid-file header, a blank line, a
malformed address, a NaN byte count, a negative byte count, an inverted
time range, an out-of-range port, and a record without a router name.
Every dirty-row policy is pinned against it.
"""

import os

import numpy as np
import pytest

from repro.flows.records import FiveTuple, FlowRecord
from repro.ingest import (
    FLOW_CSV_COLUMNS,
    ParseStats,
    export_flow_csv,
    read_flow_batches,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "flows_fixture.csv")


def _records():
    return [
        FlowRecord(FiveTuple(167772161, 167772162, 1234, 80, 6),
                   0.0, 10.0, 1000.0, 10.0, observing_router="r1"),
        FlowRecord(FiveTuple(3232235521, 167772162, 4321, 443, 17),
                   300.5, 310.25, 2048.125, 4.0, observing_router="r2"),
        FlowRecord(FiveTuple(1, 2, 0, 0, 0),
                   600.0, 600.0, 0.5, 1.0),
    ]


def _read_all(path, **kwargs):
    stats = kwargs.pop("stats", ParseStats())
    batches = list(read_flow_batches(path, stats=stats, **kwargs))
    return batches, stats


class TestExportRoundTrip:
    def test_export_then_parse_is_lossless(self, tmp_path):
        path = tmp_path / "flows.csv"
        records = _records()
        assert export_flow_csv(records, path) == len(records)
        batches, stats = _read_all(str(path))
        assert stats.records == len(records)
        assert stats.bad_rows == 0
        assert stats.header_rows == 1
        (batch,) = batches
        assert batch.n_records == len(records)
        assert batch.src_addr.dtype == np.int64
        assert batch.start_time.dtype == np.float64
        for i, record in enumerate(records):
            assert batch.src_addr[i] == record.src_address
            assert batch.dst_addr[i] == record.dst_address
            assert batch.src_port[i] == record.src_port
            assert batch.protocol[i] == record.protocol
            # repr shortest-round-trip floats survive the text hop exactly.
            assert batch.start_time[i] == record.start_time
            assert batch.end_time[i] == record.end_time
            assert batch.bytes[i] == record.bytes
            assert batch.packets[i] == record.packets
            assert batch.router[i] == (record.observing_router or "")

    def test_append_reproduces_concatenated_export(self, tmp_path):
        path = tmp_path / "cat.csv"
        export_flow_csv(_records(), path)
        export_flow_csv(_records(), path, append=True, header=True)
        batches, stats = _read_all(str(path))
        assert stats.header_rows == 2
        assert stats.records == 2 * len(_records())
        assert sum(b.n_records for b in batches) == stats.records

    def test_multiple_paths_are_logically_concatenated(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        export_flow_csv(_records(), first)
        export_flow_csv(_records(), second)
        batches, stats = _read_all([str(first), str(second)])
        assert stats.records == 2 * len(_records())
        assert stats.header_rows == 2
        assert sum(b.n_records for b in batches) == stats.records

    def test_dotted_quad_addresses_parse_to_integers(self, tmp_path):
        path = tmp_path / "dotted.csv"
        path.write_text(",".join(FLOW_CSV_COLUMNS) + "\n"
                        "10.0.0.1,192.168.0.1,1,2,6,0,1,10,1,r1\n")
        (batch,), stats = _read_all(str(path))
        assert batch.src_addr[0] == 167772161
        assert batch.dst_addr[0] == 3232235521
        assert stats.records == 1


class TestDirtyDataPolicies:
    def test_skip_counts_every_kind_of_dirt(self):
        batches, stats = _read_all(FIXTURE, on_bad_row="skip")
        assert stats.header_rows == 2       # leading + mid-file concat
        assert stats.rows == 8              # data lines (blank excluded)
        assert stats.records == 3           # two clean + routerless tail row
        assert stats.bad_rows == 5
        assert stats.propagated_rows == 0
        total = sum(b.n_records for b in batches)
        assert total == 3
        # Dotted-quad and integer forms of the same address are one value.
        assert batches[0].src_addr[0] == batches[0].src_addr[1] == 167772161

    def test_propagate_keeps_nonfinite_counts_only(self):
        batches, stats = _read_all(FIXTURE, on_bad_row="propagate")
        # The NaN-bytes row rides through; the negative-bytes row, the
        # inverted time range, the bad address and the bad port stay out.
        assert stats.records == 4
        assert stats.bad_rows == 4
        assert stats.propagated_rows == 1
        merged = np.concatenate([b.bytes for b in batches])
        assert np.isnan(merged).sum() == 1

    def test_raise_pinpoints_the_offending_line(self):
        with pytest.raises(ValueError, match="bad flow-record row.*badaddr"):
            list(read_flow_batches(FIXTURE, on_bad_row="raise"))

    def test_policy_and_engine_validation(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), on_bad_row="ignore"))
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), batch_rows=0))
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), workers=0))
        with pytest.raises(ValueError):
            list(read_flow_batches([]))


class TestParallelParse:
    def _flatten(self, batches):
        return {
            name: np.concatenate([getattr(b, name) for b in batches])
            for name in ("src_addr", "dst_addr", "src_port", "dst_port",
                         "protocol", "start_time", "end_time", "bytes",
                         "packets", "router")
        }

    def test_workers_produce_bit_identical_batches(self, tmp_path):
        path = tmp_path / "big.csv"
        export_flow_csv(
            [FlowRecord(FiveTuple(i + 1, 2 * i + 1, i % 65536, 80, 6),
                        float(i), float(i) + 0.5, 100.25 + i, 1.0 + i % 7,
                        observing_router=f"r{i % 3}")
             for i in range(2000)],
            path)
        serial, serial_stats = _read_all(str(path), batch_rows=256)
        parallel, parallel_stats = _read_all(str(path), batch_rows=256,
                                             workers=2)
        a, b = self._flatten(serial), self._flatten(parallel)
        for name, column in a.items():
            assert np.array_equal(column, b[name],
                                  equal_nan=column.dtype.kind == "f"), name
        assert serial_stats == parallel_stats

    def test_workers_bound_the_blocks_in_flight(self, tmp_path, monkeypatch):
        # The pool must not read the export ahead of the consumer: when the
        # first batch comes out, at most 2 x workers blocks are in flight
        # (plus the one just read).
        from repro.ingest import csv_io

        path = tmp_path / "long.csv"
        export_flow_csv(
            [FlowRecord(FiveTuple(i + 1, 2 * i + 1, 1000, 80, 6),
                        float(i), float(i) + 0.5, 100.0, 1.0)
             for i in range(2000)],
            path)
        blocks_read = []
        line_blocks = csv_io._iter_line_blocks

        def counting(path, batch_rows):
            for lines in line_blocks(path, batch_rows):
                blocks_read.append(len(lines))
                yield lines

        monkeypatch.setattr(csv_io, "_iter_line_blocks", counting)
        workers = 2
        stats = ParseStats()
        batches = read_flow_batches(str(path), batch_rows=4, stats=stats,
                                    workers=workers)
        next(batches)
        assert len(blocks_read) <= 2 * workers + 1
        for _ in batches:
            pass
        assert len(blocks_read) > 10 * workers
        assert stats.records == sum(blocks_read) - 1  # minus the header

    def test_workers_agree_on_dirty_input(self):
        _, serial = _read_all(FIXTURE, batch_rows=2)
        _, parallel = _read_all(FIXTURE, batch_rows=2, workers=2)
        assert serial == parallel
        assert serial.records == 3 and serial.bad_rows == 5

    def test_small_batches_equal_one_big_batch(self, tmp_path):
        path = tmp_path / "flows.csv"
        export_flow_csv(_records(), path)
        small, small_stats = _read_all(str(path), batch_rows=1)
        big, big_stats = _read_all(str(path), batch_rows=10_000)
        assert self._flatten(small).keys() == self._flatten(big).keys()
        for name, column in self._flatten(small).items():
            assert np.array_equal(column, self._flatten(big)[name]), name
        assert small_stats == big_stats


def test_nan_start_time_is_structurally_bad(tmp_path):
    # A NaN timestamp cannot be binned, so even "propagate" rejects it —
    # only non-finite *counts* ride through.
    path = tmp_path / "nan_time.csv"
    path.write_text("1,2,3,4,6,nan,1,10,1,r1\n")
    batches, stats = _read_all(str(path), on_bad_row="propagate")
    assert stats.bad_rows == 1 and stats.records == 0
    assert batches == []
