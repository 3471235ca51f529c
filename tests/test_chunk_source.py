"""The unified ChunkSource protocol and its adapters.

One feed shape for every driver: protocol conformance across all source
implementations, the ``as_chunk_source`` adapter, suffix-replay resume
semantics, and the DetectionService auto-resume that the protocol makes
possible.
"""

import numpy as np
import pytest

from repro.datasets.streaming import SyntheticChunkSource
from repro.datasets.synthetic import DatasetConfig
from repro.service import DetectionService
from repro.service.store import EventStore
from repro.streaming import (
    ChunkSource,
    ChunkedSeriesSource,
    StreamingConfig,
)
from repro.streaming.sources import (
    AsyncChunkSource,
    IterableChunkSource,
    as_chunk_source,
)

CHUNK = 32
CONFIG = StreamingConfig(min_train_bins=96, recalibrate_every_bins=48)


def _chunks_equal(a, b):
    if a.start_bin != b.start_bin or a.traffic_types != b.traffic_types:
        return False
    return all(np.array_equal(a.matrix(t), b.matrix(t))
               for t in a.traffic_types)


class TestProtocol:
    def test_every_source_implementation_conforms(self, clean_series,
                                                  abilene, tmp_path):
        from repro.ingest import FlowCsvSource, IngestConfig, export_flow_csv

        path = tmp_path / "empty.csv"
        export_flow_csv([], path)
        sources = [
            ChunkedSeriesSource(clean_series, CHUNK),
            IterableChunkSource([]),
            AsyncChunkSource(maxsize=2),
            SyntheticChunkSource(chunk_size=CHUNK, max_blocks=1),
            FlowCsvSource(str(path), network=abilene,
                          config=IngestConfig(chunk_size=CHUNK)),
        ]
        for source in sources:
            assert isinstance(source, ChunkSource), type(source).__name__

    def test_non_sources_do_not_conform(self):
        assert not isinstance(42, ChunkSource)
        assert not isinstance([], ChunkSource)  # no resume()

    def test_as_chunk_source_passes_protocol_objects_through(
            self, clean_series):
        source = ChunkedSeriesSource(clean_series, CHUNK)
        assert as_chunk_source(source) is source

    def test_as_chunk_source_wraps_plain_iterables_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wrapped = as_chunk_source([])
        assert isinstance(wrapped, IterableChunkSource)

    def test_as_chunk_source_rejects_everything_else(self):
        with pytest.raises(TypeError, match="must be a ChunkSource"):
            as_chunk_source(42)
        with pytest.raises(TypeError, match="must be a ChunkSource"):
            as_chunk_source(lambda start_bin: iter([]))
        with pytest.raises(ValueError, match="must not be None"):
            as_chunk_source(None)


def _assert_resumes_at_every_boundary(source):
    """``source.resume(k)`` is the uninterrupted suffix for every chunk
    boundary ``k``, the stream end included; returns the full chunk list."""
    full = list(source)
    for k in [c.start_bin for c in full] + [full[-1].end_bin]:
        resumed = list(source.resume(k))
        suffix = [c for c in full if c.start_bin >= k]
        assert [c.start_bin for c in resumed] \
            == [c.start_bin for c in suffix], k
        for a, b in zip(resumed, suffix):
            assert _chunks_equal(a, b), k
    return full


class TestResume:
    def test_series_source_resume_reproduces_the_suffix(self, clean_series,
                                                        abilene, tmp_path):
        from repro.ingest import FlowCsvSource, IngestConfig
        from repro.ingest.parity import export_series_records

        full = list(ChunkedSeriesSource(clean_series, CHUNK))
        resumed = list(ChunkedSeriesSource(clean_series, CHUNK).resume(64))
        assert len(resumed) == len(full) - 2
        for a, b in zip(resumed, full[2:]):
            assert _chunks_equal(a, b)

        # A chunk size that does not divide the series: the short tail
        # chunk survives every resume.
        assert clean_series.n_bins % 40
        for chunk_size in (CHUNK, 40):
            chunks = _assert_resumes_at_every_boundary(
                ChunkedSeriesSource(clean_series, chunk_size))
            assert chunks[-1].end_bin == clean_series.n_bins

        # The same rule on the CSV ingest path, over an export of the series.
        window = clean_series.window(0, 100)
        path = tmp_path / "flows.csv"
        export_series_records(window, abilene, path, seed=1,
                              max_flows_per_cell=1)
        for chunk_size in (CHUNK, 40):
            chunks = _assert_resumes_at_every_boundary(FlowCsvSource(
                str(path), network=abilene,
                config=IngestConfig(chunk_size=chunk_size, n_bins=100)))
            assert [c.start_bin for c in chunks] \
                == list(range(0, 100, chunk_size))

    def test_synthetic_source_resume_reproduces_the_suffix(self):
        source = SyntheticChunkSource(
            chunk_size=CHUNK, block_config=DatasetConfig(weeks=1.0 / 7.0),
            seed=3, max_blocks=1)
        full = list(source)
        resumed = list(source.resume(96))
        assert [c.start_bin for c in resumed] \
            == [c.start_bin for c in full if c.start_bin >= 96]
        for a, b in zip(resumed, full[3:]):
            assert _chunks_equal(a, b)

        # 72-bin blocks cut into 40-bin chunks: boundaries restart at each
        # block edge, and a resume exactly at the edge (bin 72) replays the
        # second block from its start.
        block = DatasetConfig(weeks=0.25 / 7.0, schedule=None)
        assert block.n_bins == 72
        chunks = _assert_resumes_at_every_boundary(SyntheticChunkSource(
            chunk_size=40, block_config=block, seed=3, max_blocks=2))
        assert [c.start_bin for c in chunks] == [0, 40, 72, 112]

    def test_iterable_source_resume_skips_forward_only(self, clean_series):
        chunks = list(ChunkedSeriesSource(clean_series, CHUNK))
        resumed = list(IterableChunkSource(chunks).resume(64))
        assert resumed == chunks[2:]
        # A resume bin off the chunk grid cannot be honoured by skipping.
        with pytest.raises(ValueError, match="cannot resume a plain"):
            list(IterableChunkSource(chunks).resume(40))


class TestServiceAutoResume:
    def _interrupted_run(self, clean_series, tmp_path):
        """The uninterrupted digest, and a store + checkpoint of a run
        stopped after four chunks."""
        source = ChunkedSeriesSource(clean_series, CHUNK)
        chunks = list(source)

        reference = DetectionService(CONFIG)
        reference.run(source)
        expected_digest = reference.store.table_digest()
        reference.close()

        store_path = str(tmp_path / "events.sqlite")
        checkpoint_dir = str(tmp_path / "ckpt")

        first = DetectionService(CONFIG, store=EventStore(store_path),
                                 checkpoint_dir=checkpoint_dir)

        def stopping(feed, after):
            for index, chunk in enumerate(feed, start=1):
                yield chunk
                if index == after:
                    first.request_stop()

        # The stop request lands while chunk 4 is in flight; that chunk is
        # finished, not dropped, before the loop exits.
        result = first.run(stopping(iter(chunks), 3))
        assert result.interrupted
        assert first.resume_bin == 4 * CHUNK
        first.close()
        return expected_digest, store_path, checkpoint_dir

    def test_restarted_service_positions_a_resumable_source(
            self, clean_series, tmp_path):
        expected_digest, store_path, checkpoint_dir = self._interrupted_run(
            clean_series, tmp_path)
        # The restarted service gets the FULL stream and positions the
        # resumable source itself — callers no longer slice suffixes.
        second = DetectionService(CONFIG, store=EventStore(store_path),
                                  checkpoint_dir=checkpoint_dir)
        assert second.resume_bin == 4 * CHUNK
        second.run(ChunkedSeriesSource(clean_series, CHUNK))
        assert second.store.table_digest() == expected_digest
        second.close()

    def test_restarted_service_positions_a_full_plain_list(
            self, clean_series, tmp_path):
        expected_digest, store_path, checkpoint_dir = self._interrupted_run(
            clean_series, tmp_path)
        # A plain list is positioned too: its resume drops the chunks the
        # checkpoint already covers.
        second = DetectionService(CONFIG, store=EventStore(store_path),
                                  checkpoint_dir=checkpoint_dir)
        second.run(list(ChunkedSeriesSource(clean_series, CHUNK)))
        assert second.store.table_digest() == expected_digest
        second.close()
