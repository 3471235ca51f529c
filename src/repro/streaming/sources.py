"""Chunked stream sources feeding the online detection pipeline.

A stream is any object satisfying the :class:`ChunkSource` protocol: an
iterable of :class:`TrafficChunk` — blocks of consecutive timebins carrying
aligned matrices for one or more traffic types — plus a ``resume(start_bin)``
method returning the same stream's suffix from a stream-global bin (the
checkpoint-restart path).  Every driver (``stream_detect``,
``DetectionService``) accepts one uniform ``source=`` argument normalized
by :func:`as_chunk_source`:

* a :class:`ChunkSource` is used as-is;
* a plain iterable of chunks is wrapped in :class:`IterableChunkSource`
  (``resume`` skips already-covered chunks — forward-only);
* anything else (a bare callable included) raises :class:`TypeError`.

Concrete sources provided here:

* :class:`ChunkedSeriesSource` (built by :func:`chunk_series`) replays an
  in-memory :class:`~repro.flows.timeseries.TrafficMatrixSeries` as
  zero-copy chunks (the bridge from every existing dataset to the
  streaming pipeline);
* :class:`AsyncChunkSource` bridges an :mod:`asyncio` producer (a collector
  polling routers, a network receive loop) to the synchronous detection
  drivers, with bounded backpressure and explicit watermarks;
* :class:`repro.datasets.streaming.SyntheticChunkSource` (in the datasets
  package) generates an **unbounded** synthetic feed block by block;
* :class:`repro.ingest.FlowCsvSource` parses and bins on-disk flow-record
  exports.
"""

from __future__ import annotations

import asyncio
import queue as queue_module
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Protocol, \
    runtime_checkable

import numpy as np

from repro.flows.timeseries import TrafficMatrixSeries, TrafficType
from repro.utils.validation import require

__all__ = ["TrafficChunk", "ChunkSource", "IterableChunkSource",
           "as_chunk_source", "ChunkedSeriesSource", "AsyncChunkSource",
           "chunk_series"]


@dataclass(frozen=True)
class TrafficChunk:
    """A block of consecutive timebins for one or more traffic types.

    All matrices share the same ``m x p`` shape; ``start_bin`` is the
    stream-global index of the first row.
    """

    start_bin: int
    matrices: Mapping[TrafficType, np.ndarray]

    def __post_init__(self) -> None:
        require(self.start_bin >= 0, "start_bin must be non-negative")
        require(len(self.matrices) >= 1, "a chunk needs at least one traffic type")
        shape = None
        coerced = {}
        for traffic_type, matrix in self.matrices.items():
            name = f"matrices[{TrafficType(traffic_type).value}]"
            # Shape-only coercion: a chunk is a wire format and may carry a
            # collector's malformed payload (NaN/Inf cells).  Whether that
            # kills the run or is quarantined is the *detector's* policy
            # (StreamingConfig.on_bad_chunk), not the container's.
            array = np.asarray(matrix, dtype=float)
            require(array.ndim == 2,
                    f"{name} must be 2-dimensional, got ndim={array.ndim}")
            require(array.size > 0, f"{name} must be non-empty")
            if shape is None:
                shape = array.shape
            require(array.shape == shape,
                    "all traffic types of a chunk must share one shape")
            coerced[TrafficType(traffic_type)] = array
        object.__setattr__(self, "matrices", coerced)

    @property
    def n_bins(self) -> int:
        """Number of timebins ``m`` in the chunk."""
        return int(next(iter(self.matrices.values())).shape[0])

    @property
    def n_od_pairs(self) -> int:
        """Number of OD flows ``p``."""
        return int(next(iter(self.matrices.values())).shape[1])

    @property
    def end_bin(self) -> int:
        """Exclusive stream-global end bin."""
        return self.start_bin + self.n_bins

    @property
    def traffic_types(self) -> List[TrafficType]:
        """Traffic types present in the chunk."""
        return [TrafficType(t) for t in self.matrices.keys()]

    def matrix(self, traffic_type: TrafficType) -> np.ndarray:
        """The ``m x p`` matrix for *traffic_type*."""
        try:
            return self.matrices[TrafficType(traffic_type)]
        except KeyError:
            raise KeyError(f"traffic type {traffic_type!r} not in chunk") from None


def chunk_end(start_bin: int, chunk_size: int,
              stop: Optional[int] = None) -> int:
    """Exclusive end of the chunk that holds bin *start_bin*.

    Chunk boundaries are fixed multiples of *chunk_size*, capped at the
    stream end *stop* (``None``: open-ended), so a stream resumed at any
    bin emits exactly the chunks an uninterrupted run emits from there.
    """
    end = (start_bin // chunk_size + 1) * chunk_size
    return end if stop is None else min(stop, end)


def chunk_series(series: TrafficMatrixSeries,
                 chunk_size: int) -> "ChunkedSeriesSource":
    """Replay *series* as consecutive zero-copy :class:`TrafficChunk`s.

    Returns a :class:`ChunkedSeriesSource`: re-iterable, and resumable at
    any bin with ``chunk_series(series, n).resume(start_bin)``.
    """
    return ChunkedSeriesSource(series, chunk_size)


@runtime_checkable
class ChunkSource(Protocol):
    """The one feed shape every streaming driver consumes.

    A chunk source is (re-)iterable — yielding in-order, gapless
    :class:`TrafficChunk`s — and supports suffix replay: ``resume(k)``
    returns a source yielding the same stream from stream-global bin ``k``
    on, with the **same chunk boundaries** the original stream had past
    ``k`` (live-mode detection results depend on chunking, so a resumed
    run must see the chunks an undisturbed run would have seen).  Sources
    that fundamentally cannot replay (a live feed) implement ``resume`` as
    a positioning assertion instead (see :meth:`AsyncChunkSource.resume`).
    """

    def __iter__(self) -> Iterator[TrafficChunk]:
        ...  # pragma: no cover - protocol signature

    def resume(self, start_bin: int) -> "ChunkSource":
        ...  # pragma: no cover - protocol signature


class IterableChunkSource:
    """A plain iterable of chunks behind the :class:`ChunkSource` protocol.

    The weakest adapter: iteration is whatever the wrapped iterable does
    (a one-shot generator stays one-shot), and :meth:`resume` can only
    skip **forward** — chunks entirely below the resume bin are dropped,
    and the first surviving chunk must start exactly at it.
    """

    def __init__(self, chunks: Iterable[TrafficChunk]) -> None:
        self._chunks = chunks

    def __iter__(self) -> Iterator[TrafficChunk]:
        return iter(self._chunks)

    def resume(self, start_bin: int) -> "IterableChunkSource":
        require(start_bin >= 0, "start_bin must be non-negative")
        if start_bin == 0:
            return self

        def suffix(chunks=self._chunks, start=int(start_bin)):
            first = True
            for chunk in chunks:
                if chunk.end_bin <= start:
                    continue
                if first:
                    require(chunk.start_bin == start,
                            f"cannot resume a plain iterable at bin {start}: "
                            f"the first surviving chunk is "
                            f"[{chunk.start_bin}, {chunk.end_bin}) (use a "
                            f"source with real suffix replay)")
                    first = False
                yield chunk

        return IterableChunkSource(suffix())


def as_chunk_source(source) -> "ChunkSource":
    """Normalize any accepted feed shape to a :class:`ChunkSource`.

    The single adapter behind every driver's ``source=`` parameter:
    protocol-conforming sources pass through and plain iterables are
    wrapped; anything else raises :class:`TypeError`.
    """
    require(source is not None, "source must not be None")
    if isinstance(source, ChunkSource):
        return source
    if isinstance(source, Iterable):
        return IterableChunkSource(source)
    raise TypeError(
        f"source must be a ChunkSource or an iterable of TrafficChunk; "
        f"got {type(source).__name__}")


class ChunkedSeriesSource:
    """Re-iterable chunked view of a :class:`TrafficMatrixSeries`.

    The source can be iterated multiple times — which is what the
    two-pass replay harness in :mod:`repro.streaming.pipeline` needs — and
    it implements the :class:`ChunkSource` protocol: :meth:`resume`
    replays the suffix of the stream from any bin, preserving the original
    chunk boundaries (the resume path of a checkpoint-restored detector).
    Chunk rows are views of the series matrices; callers must not mutate
    them.
    """

    def __init__(self, series: TrafficMatrixSeries, chunk_size: int) -> None:
        require(chunk_size >= 1, "chunk_size must be >= 1")
        self._series = series
        self._chunk_size = int(chunk_size)
        # The bin iteration starts at.  resume() moves only this: one set of
        # chunk boundaries (multiples of chunk_size) serves every suffix,
        # which is what makes a resumed run chunk-identical.
        self._resume_bin = 0

    @property
    def series(self) -> TrafficMatrixSeries:
        """The underlying series."""
        return self._series

    @property
    def chunk_size(self) -> int:
        """Rows per chunk (the final chunk may be shorter)."""
        return self._chunk_size

    @property
    def start_bin(self) -> int:
        """Stream-global bin iteration starts at."""
        return self._resume_bin

    @property
    def end_bin(self) -> int:
        """Exclusive stream-global bin of the series' end."""
        return self._series.n_bins

    def resume(self, start_bin: int) -> "ChunkedSeriesSource":
        """This stream from *start_bin* on, original chunk boundaries kept."""
        require(0 <= start_bin <= self.end_bin,
                f"resume bin {start_bin} outside the stream range "
                f"[0, {self.end_bin}]")
        clone = ChunkedSeriesSource(self._series, self._chunk_size)
        clone._resume_bin = int(start_bin)
        return clone

    def __iter__(self) -> Iterator[TrafficChunk]:
        n_bins = self._series.n_bins
        local = self._resume_bin
        while local < n_bins:
            stop = chunk_end(local, self._chunk_size, n_bins)
            yield TrafficChunk(
                start_bin=local,
                matrices={t: self._series.matrix(t)[local:stop, :]
                          for t in self._series.traffic_types})
            local = stop


#: Queue sentinel marking a cleanly closed stream.
_CLOSED = object()


class AsyncChunkSource:
    """Bridge an :mod:`asyncio` producer to the synchronous chunk drivers.

    The detection drivers (:func:`~repro.streaming.pipeline.stream_detect`,
    :class:`~repro.service.DetectionService`) consume a plain iterable;
    live collectors are naturally asynchronous.  This adapter is both at
    once — an awaitable sink and a blocking iterator — over one bounded
    queue:

    * **backpressure**: :meth:`put` suspends the producer coroutine (via an
      executor thread, never blocking the event loop) while the queue holds
      *maxsize* chunks, so ingestion lag propagates back to the collector
      instead of growing an unbounded buffer;
    * **explicit watermarks**: every accepted chunk must start exactly at
      :attr:`produced_watermark` (in order, gapless — the contract the
      online aggregator's event-closing watermark relies on), and
      :attr:`consumed_watermark` reports how far the consumer got —
      ``produced - consumed`` is the in-flight backlog in bins;
    * **failure propagation**: :meth:`abort` carries a producer-side
      exception to the consumer, which re-raises it instead of silently
      truncating the stream.

    Typical wiring (consumer on a worker thread, producer on the loop)::

        source = AsyncChunkSource(maxsize=4)
        report_future = loop.run_in_executor(None, stream_detect, source)
        async for chunk in collector:
            await source.put(chunk)
        await source.aclose()
        report = await report_future
    """

    def __init__(self, maxsize: int = 4,
                 start_bin: Optional[int] = None) -> None:
        require(maxsize >= 1, "maxsize must be >= 1")
        require(start_bin is None or start_bin >= 0,
                "start_bin must be non-negative")
        self._queue: queue_module.Queue = queue_module.Queue(maxsize)
        self._produced: Optional[int] = start_bin
        self._consumed: Optional[int] = start_bin
        self._closed = False
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # watermarks
    # ------------------------------------------------------------------ #
    @property
    def produced_watermark(self) -> Optional[int]:
        """Exclusive end bin of everything accepted so far (``None``: nothing
        yet and no explicit ``start_bin`` was given)."""
        return self._produced

    @property
    def consumed_watermark(self) -> Optional[int]:
        """Exclusive end bin of everything the consumer iterated past."""
        return self._consumed

    def resume(self, start_bin: int) -> "AsyncChunkSource":
        """Position the live feed at *start_bin* (no replay possible).

        A live feed cannot re-emit the past, so ``resume`` is a
        positioning assertion rather than a suffix replay: on a fresh
        source it pins both watermarks to *start_bin* (the producer must
        then start there); on a source already in flight it requires the
        stream to sit exactly at *start_bin* with no buffered backlog.
        """
        require(start_bin >= 0, "start_bin must be non-negative")
        if self._produced is None and self._consumed is None:
            self._produced = int(start_bin)
            self._consumed = int(start_bin)
            return self
        require(self._produced == start_bin and self._consumed == start_bin,
                f"cannot replay a live feed: resume bin {start_bin} but the "
                f"feed sits at produced={self._produced}, "
                f"consumed={self._consumed}")
        return self

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def put_sync(self, chunk: TrafficChunk) -> None:
        """Blocking put with watermark enforcement (thread producers)."""
        require(not self._closed, "source is closed")
        require(self._error is None, "source was aborted")
        require(self._produced is None or chunk.start_bin == self._produced,
                f"out-of-order chunk: expected start_bin {self._produced}, "
                f"got {chunk.start_bin} (streams must be in order and "
                f"gapless)")
        self._queue.put(chunk)
        self._produced = chunk.end_bin

    async def put(self, chunk: TrafficChunk) -> None:
        """Enqueue *chunk*; suspends (without blocking the loop) when full."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.put_sync, chunk)

    def close(self) -> None:
        """Mark the end of the stream (blocking; idempotent)."""
        if not self._closed:
            self._closed = True
            self._queue.put(_CLOSED)

    async def aclose(self) -> None:
        """Async :meth:`close` (suspends while the queue is full)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    def abort(self, error: BaseException) -> None:
        """Propagate a producer failure to the consumer (never blocks).

        The consumer re-raises *error* on its next step, before any chunk
        still sitting in the queue — a failed producer means the stream is
        incomplete, so buffered data must not be mistaken for a clean tail.
        """
        self._error = error
        self._closed = True
        try:
            self._queue.put_nowait(_CLOSED)
        except queue_module.Full:
            # The consumer is not blocked on an empty queue; it will see
            # the error flag before its next get.
            pass

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[TrafficChunk]:
        return self

    def __next__(self) -> TrafficChunk:
        if self._error is not None:
            raise self._error
        item = self._queue.get()
        if self._error is not None:
            raise self._error
        if item is _CLOSED:
            # Re-enqueue so a second (accidental) iteration also stops
            # instead of blocking forever.
            self._queue.put(_CLOSED)
            raise StopIteration
        self._consumed = item.end_bin
        return item
