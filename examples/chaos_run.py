#!/usr/bin/env python
"""Chaos demo: a torn checkpoint write against the fault-tolerant runtime.

The newest checkpoint generation is **truncated** (a torn write) and
``load_checkpoint(fallback=True)`` quarantines the damaged files and
restores the previous verified generation — identical events after the
suffix replay (the invariant ``tests/test_chaos.py`` enforces in CI,
next to the alert-sink-down case).

Run with::

    python examples/chaos_run.py
"""

import tempfile
from pathlib import Path

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.faults import corrupt_checkpoint
from repro.streaming import (
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    load_checkpoint,
    save_checkpoint,
)
from repro.telemetry import MetricsRegistry

CHUNK = 48
SEED = 11


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0),
                                       seed=SEED)
    series = dataset.series
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # ------------------------------------------------------------------ #
    # Torn checkpoint write: fallback to the previous generation.
    # ------------------------------------------------------------------ #
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
    chunks = list(chunk_series(series, CHUNK))
    reference = StreamingNetworkDetector(config)
    for chunk in chunks:
        reference.process_chunk(chunk)
    reference_report = reference.finish()
    print(f"undisturbed run:   {reference_report.n_events} events")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        detector = StreamingNetworkDetector(config)
        for index, chunk in enumerate(chunks[:8]):
            detector.process_chunk(chunk)
            if (index + 1) % 2 == 0:
                save_checkpoint(detector, checkpoint_dir)
        (victim,) = corrupt_checkpoint(checkpoint_dir, mode="truncate")
        print(f"truncated newest checkpoint arrays: {Path(victim).name}")

        restore_registry = MetricsRegistry()
        restored = load_checkpoint(checkpoint_dir, fallback=True,
                                   registry=restore_registry)
        print(f"fallback restore:  resumed at chunk "
              f"{restored.report.n_chunks_processed}, "
              f"{int(restore_registry.value('checkpoints_quarantined'))} "
              f"file(s) quarantined (never deleted)")
        for chunk in chunks[restored.report.n_chunks_processed:]:
            restored.process_chunk(chunk)
        restored_report = restored.finish()
    parity = event_parity(reference_report.events, restored_report.events)
    print(f"replayed suffix:   {restored_report.n_events} events, "
          f"exact parity: {parity.exact}")


if __name__ == "__main__":
    main()
