"""Chaos harness: seeded faults against the full durable stack.

Parity invariants under injected failure, all deterministic under fixed
seeds (the CI ``chaos`` job runs exactly this file):

1. **Checkpoint corruption** — truncating the newest checkpoint
   generation makes ``load_checkpoint(fallback=True)`` quarantine the
   damaged files (never delete), restore the previous verified
   generation, and a suffix replay into the idempotent
   :class:`~repro.service.EventStore` ends with the **byte-identical**
   ``table_digest()`` of an uninterrupted run.
2. **Alert channel down** — an always-failing sink dead-letters every
   alert while the run itself completes with its full event table.

When ``CHAOS_ARTIFACT_DIR`` is set (the CI job does), quarantined
checkpoint files are copied there so a failing run uploads the evidence.
"""

import os
import shutil

import pytest

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.faults import FailingSink, corrupt_checkpoint
from repro.service import AlertDispatcher, EventStore
from repro.streaming import (StreamingConfig, StreamingNetworkDetector,
                             chunk_series, load_checkpoint, save_checkpoint)
from repro.streaming.checkpoint import QUARANTINE_DIRNAME
from repro.telemetry import HealthSnapshot, MetricsRegistry

CHUNK = 48
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=SEED)


def _preserve_quarantine(checkpoint_dir):
    """Copy quarantined files into CHAOS_ARTIFACT_DIR when CI asks."""
    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR", "")
    quarantine = os.path.join(str(checkpoint_dir), QUARANTINE_DIRNAME)
    if artifact_dir and os.path.isdir(quarantine):
        target = os.path.join(artifact_dir,
                              os.path.basename(str(checkpoint_dir)))
        shutil.copytree(quarantine, target, dirs_exist_ok=True)


class TestCheckpointCorruption:
    def _run_to_store(self, series, store, detector, first_chunk=0,
                      checkpoint_dir=None, checkpoint_every=None,
                      crash_after=None):
        """Feed chunks into *detector*, persisting closed events to *store*."""
        detector.on_events = lambda events: store.add_events(events)
        start_bin = detector.report.n_bins_processed
        for index, chunk in enumerate(
                chunk_series(series, CHUNK).resume(start_bin),
                start=first_chunk):
            detector.process_chunk(chunk)
            if (checkpoint_every is not None
                    and (index + 1) % checkpoint_every == 0):
                save_checkpoint(detector, checkpoint_dir)
            if crash_after is not None and index >= crash_after:
                return  # simulated crash: no finish(), no final checkpoint
        detector.finish()

    def test_truncated_generation_falls_back_to_byte_identical_table(
            self, dataset, tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        reference_store = EventStore()
        self._run_to_store(dataset.series, reference_store,
                           StreamingNetworkDetector(config))
        reference_digest = reference_store.table_digest()

        checkpoint_dir = tmp_path / "ckpt"
        store = EventStore(tmp_path / "events.sqlite")
        self._run_to_store(dataset.series, store,
                           StreamingNetworkDetector(config),
                           checkpoint_dir=checkpoint_dir, checkpoint_every=2,
                           crash_after=7)
        # Torn write: the newest generation's arrays are cut in half.
        corrupt_checkpoint(checkpoint_dir, mode="truncate")

        registry = MetricsRegistry()
        restored = load_checkpoint(checkpoint_dir, fallback=True,
                                   registry=registry)
        _preserve_quarantine(checkpoint_dir)
        assert registry.value("checkpoint_fallbacks") == 1
        assert registry.value("checkpoints_quarantined") >= 1
        # Quarantined, not deleted: the corrupt evidence is preserved.
        quarantine = checkpoint_dir / QUARANTINE_DIRNAME
        assert any(quarantine.iterdir())
        # The restored run replays the suffix; the idempotent store absorbs
        # re-emitted events, ending byte-identical to the clean run.
        resume_chunk = restored.report.n_chunks_processed
        self._run_to_store(dataset.series, store, restored,
                           first_chunk=resume_chunk)
        assert store.table_digest() == reference_digest
        snapshot = HealthSnapshot.from_registry(registry)
        assert snapshot.checkpoint_fallbacks == 1
        assert snapshot.checkpoints_quarantined >= 1
        store.close()
        reference_store.close()

    def test_bitflip_damage_is_seed_deterministic(self, dataset, tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        damaged = []
        for attempt in ("a", "b"):
            directory = tmp_path / attempt
            detector = StreamingNetworkDetector(config)
            for chunk in chunk_series(dataset.series.window(0, 4 * CHUNK),
                                      CHUNK):
                detector.process_chunk(chunk)
            save_checkpoint(detector, directory)
            (victim,) = corrupt_checkpoint(directory, mode="bitflip",
                                           seed=1234)
            with open(victim, "rb") as handle:
                damaged.append(handle.read())
        assert damaged[0] == damaged[1]


class TestAlertChannelDown:
    def test_failing_sink_dead_letters_but_run_completes(self, dataset,
                                                         tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        sink = FailingSink()
        registry = MetricsRegistry()
        dispatcher = AlertDispatcher(
            [sink], registry=registry, max_attempts=2,
            sleep=lambda seconds: None,
            dead_letter_path=str(tmp_path / "dead.jsonl"))
        store = EventStore()
        detector = StreamingNetworkDetector(config)
        detector.on_events = lambda events: dispatcher.dispatch_many(
            store.add_events(events))
        for chunk in chunk_series(dataset.series, CHUNK):
            detector.process_chunk(chunk)
        report = detector.finish()

        assert report.n_events > 0
        assert store.count() == report.n_events
        assert registry.value("alerts_dead_lettered",
                              {"sink": "failing"}) == report.n_events
        assert (tmp_path / "dead.jsonl").exists()
        store.close()
