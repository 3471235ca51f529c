#!/usr/bin/env python
"""Live ingestion from outside the detection loop: an asyncio feed.

Builds on ``examples/streaming_checkpoint.py``.  Live collectors are
asynchronous while the detection drivers consume a plain iterable;
``AsyncChunkSource`` bridges the two.  An async producer pushes chunks
through one bounded queue (backpressure on the producer, in-order
watermarks) while the unchanged synchronous ``stream_detect`` consumes
them — and the events match a run over the same chunks in memory.

Run with::

    python examples/distributed_ingestion.py
"""

import asyncio
import threading

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.streaming import (
    AsyncChunkSource,
    StreamingConfig,
    chunk_series,
    stream_detect,
)

CHUNK = 48


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=7)
    series = dataset.series
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # ------------------------------------------------------------------ #
    # Reference: single-process, single-engine live run.
    # ------------------------------------------------------------------ #
    baseline = stream_detect(chunk_series(series, CHUNK), config)
    print(f"baseline live run:    {baseline.n_events} events")

    # ------------------------------------------------------------------ #
    # Asyncio feed: an async producer with bounded backpressure and
    # watermarks, the same synchronous driver on the consuming side.
    # ------------------------------------------------------------------ #
    source = AsyncChunkSource(maxsize=4)

    def produce() -> None:
        async def pump():
            for chunk in chunk_series(series, CHUNK):
                await source.put(chunk)
            await source.aclose()
        asyncio.run(pump())

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    live = stream_detect(source, config)
    producer.join()
    print(f"asyncio feed:         {live.n_events} events, exact parity: "
          f"{event_parity(baseline.events, live.events).exact} "
          f"(consumed watermark {source.consumed_watermark} bins)")


if __name__ == "__main__":
    main()
