"""Detection-service tests: graceful SIGTERM, restart parity, alert dedup.

The acceptance property of the service layer: a run SIGTERMed mid-stream
and restarted from its checkpoint must end with the **byte-identical**
event table an uninterrupted run over the Abilene week produces — and must
never alert twice for the same event across the restart.
"""

import json
import signal

import pytest

from repro.datasets.streaming import SyntheticChunkSource
from repro.datasets.synthetic import DatasetConfig
from repro.service import (AlertDispatcher, AlertSink, DetectionService,
                           EventStore)
from repro.service.runner import main as service_main
from repro.streaming import StreamingConfig

CHUNK = 48
SEED = 7
WEEK_BLOCKS = 7  # one-day blocks -> the Abilene week


@pytest.fixture(scope="module")
def service_config():
    return StreamingConfig(min_train_bins=256, recalibrate_every_bins=48)


@pytest.fixture(scope="module")
def week_chunks():
    """The synthetic Abilene week, materialized once per module."""
    return list(SyntheticChunkSource(
        chunk_size=CHUNK,
        block_config=DatasetConfig(weeks=1.0 / 7.0),
        seed=SEED,
        max_blocks=WEEK_BLOCKS,
    ))


class ListSink(AlertSink):
    name = "list"

    def __init__(self):
        self.payloads = []

    def emit(self, payload):
        self.payloads.append(payload)

    @property
    def keys(self):
        return [p["key"] for p in self.payloads]


def _service(config, tmp_path, name="run", checkpoint=True, **kwargs):
    sink = ListSink()
    store = EventStore(tmp_path / f"{name}.sqlite")
    service = DetectionService(
        config,
        store=store,
        dispatcher=AlertDispatcher([sink]),
        checkpoint_dir=(tmp_path / f"{name}-ckpt") if checkpoint else None,
        **kwargs,
    )
    return service, store, sink


@pytest.fixture(scope="module")
def reference(service_config, week_chunks, tmp_path_factory):
    """Uninterrupted run over the week: digest, rows, and alert keys."""
    tmp_path = tmp_path_factory.mktemp("reference")
    service, store, sink = _service(service_config, tmp_path,
                                    checkpoint=False)
    result = service.run(iter(week_chunks))
    assert not result.interrupted
    assert result.events_stored > 0
    reference = {
        "digest": store.table_digest(),
        "rows": store.canonical_rows(),
        "alert_keys": list(sink.keys),
        "n_events": store.count(),
    }
    service.close()
    return reference


def _sigterm_after(chunks, n_chunks):
    """Yield chunks, raising a real SIGTERM in-process after the n-th."""
    for index, chunk in enumerate(chunks, start=1):
        yield chunk
        if index == n_chunks:
            signal.raise_signal(signal.SIGTERM)


class TestGracefulRestart:
    def test_sigterm_then_restart_is_byte_identical(
            self, service_config, week_chunks, reference, tmp_path):
        # --- first run: SIGTERM lands mid-stream --------------------- #
        service, store, sink = _service(service_config, tmp_path)
        service.install_signal_handlers()
        result = service.run(_sigterm_after(iter(week_chunks), 18))
        assert result.interrupted
        # The signal landed while chunk 19 was in flight: that chunk was
        # finished — not dropped — before the loop stopped.
        assert service.resume_bin == 19 * CHUNK
        assert store.count() < reference["n_events"]
        first_keys = list(sink.keys)
        store.close()

        # --- restart: resume from the checkpoint, feed the suffix ---- #
        resumed, reopened, resumed_sink = _service(service_config, tmp_path)
        assert resumed.resume_bin == 19 * CHUNK
        suffix = (c for c in week_chunks if c.start_bin >= resumed.resume_bin)
        final = resumed.run(suffix)
        assert not final.interrupted

        # Byte-identical event table, exactly as if never interrupted.
        assert reopened.canonical_rows() == reference["rows"]
        assert reopened.table_digest() == reference["digest"]
        # Never re-paged: the two runs' alerts partition the reference set.
        assert not set(first_keys) & set(resumed_sink.keys)
        assert sorted(first_keys + resumed_sink.keys) \
            == sorted(reference["alert_keys"])
        resumed.close()

    def test_crash_replay_is_absorbed(self, service_config, week_chunks,
                                      reference, tmp_path):
        """A hard crash (no graceful checkpoint) replays chunks since the
        last periodic checkpoint; the idempotent store absorbs them."""
        service, store, _ = _service(service_config, tmp_path,
                                     checkpoint_every_chunks=4)

        class Crash(RuntimeError):
            pass

        def crashing(chunks, after):
            for index, chunk in enumerate(chunks, start=1):
                yield chunk
                if index == after:
                    raise Crash("simulated power loss")

        with pytest.raises(Crash):
            service.run(crashing(iter(week_chunks), 23))
        store.close()

        # Restart resumes at the periodic checkpoint (chunk 20), replaying
        # chunks 21-23 whose events are already stored.
        resumed, reopened, resumed_sink = _service(service_config, tmp_path)
        assert resumed.resume_bin == 20 * CHUNK
        suffix = (c for c in week_chunks if c.start_bin >= resumed.resume_bin)
        final = resumed.run(suffix)
        assert final.events_duplicate > 0  # the replay really happened
        assert reopened.table_digest() == reference["digest"]
        # Replayed events were already alerted before the crash.
        assert len(set(resumed_sink.keys)) == len(resumed_sink.keys)
        resumed.close()

    def test_restored_finished_run_is_a_noop(self, service_config,
                                             week_chunks, tmp_path):
        service, store, _ = _service(service_config, tmp_path)
        service.run(iter(week_chunks[:12]))  # runs finish() at exhaustion
        digest = store.table_digest()
        store.close()

        again, reopened, sink = _service(service_config, tmp_path)
        assert again.detector.finished
        result = again.run(iter(week_chunks[12:]))  # ignored: run is sealed
        assert result.events_stored == 0
        assert sink.payloads == []
        assert reopened.table_digest() == digest
        again.close()


class TestRunLoopContracts:
    def test_resume_misalignment_rejected(self, service_config, week_chunks,
                                          tmp_path):
        service, _, _ = _service(service_config, tmp_path)
        with pytest.raises(ValueError, match="resume misalignment"):
            service.run(iter(week_chunks[3:]))
        service.close()

    def test_signal_handlers_restored_after_run(self, service_config,
                                                week_chunks, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        service, _, _ = _service(service_config, tmp_path, checkpoint=False)
        service.install_signal_handlers()
        assert signal.getsignal(signal.SIGTERM) != before
        service.run(iter(week_chunks[:3]))
        assert signal.getsignal(signal.SIGTERM) == before
        service.close()

    def test_stop_flag_breaks_between_chunks(self, service_config,
                                             week_chunks, tmp_path):
        service, _, _ = _service(service_config, tmp_path)

        def stopping(chunks):
            for index, chunk in enumerate(chunks, start=1):
                yield chunk
                if index == 2:
                    service.request_stop()

        result = service.run(stopping(iter(week_chunks)))
        assert result.interrupted
        # The stop was requested while chunk 3 was being pulled; it still
        # completes before the loop breaks.
        assert service.resume_bin == 3 * CHUNK
        service.close()

    def test_stop_signal_counter_increments(self, service_config,
                                            week_chunks, tmp_path):
        service, _, _ = _service(service_config, tmp_path, checkpoint=False)
        service.install_signal_handlers()
        service.run(_sigterm_after(iter(week_chunks[:4]), 2))
        assert service.registry.value(
            "service_stop_signals", {"signal": "SIGTERM"}) == 1
        service.close()

    def test_periodic_checkpoint_needs_directory(self, service_config):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            DetectionService(service_config, checkpoint_every_chunks=4)
        with pytest.raises(ValueError, match=">= 1"):
            DetectionService(service_config, checkpoint_dir="somewhere",
                             checkpoint_every_chunks=0)

    def test_events_flow_through_pipeline_hook(self, service_config,
                                               week_chunks, tmp_path):
        """Everything the pipeline reports — including the end-of-stream
        tail — lands in the store via the on_events hand-off."""
        service, store, sink = _service(service_config, tmp_path,
                                        checkpoint=False)
        result = service.run(iter(week_chunks))
        stored_keys = {e.event_key for e in store.query()}
        assert len(stored_keys) == result.report.n_events
        assert sorted(sink.keys) == sorted(stored_keys)
        service.close()


class TestServiceCli:
    def test_cli_runs_and_resumes_idempotently(self, tmp_path, capsys):
        argv = ["--store", str(tmp_path / "events.sqlite"),
                "--checkpoint", str(tmp_path / "ckpt"),
                "--days", "2", "--chunk-size", str(CHUNK),
                "--seed", str(SEED),
                "--alerts", str(tmp_path / "alerts.jsonl"),
                "--dead-letter", str(tmp_path / "dead.jsonl"),
                "--snapshot", str(tmp_path / "health.json")]
        assert service_main(argv) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert first["interrupted"] is False
        assert first["events_stored"] > 0
        assert (tmp_path / "health.json").is_file()
        alert_lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
        assert len(alert_lines) == first["events_stored"]
        assert not (tmp_path / "dead.jsonl").exists()

        # Second invocation restores a finished run: nothing new happens
        # and the table digest is unchanged.
        assert service_main(argv) == 0
        second = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert second["events_stored"] == 0
        assert second["table_digest"] == first["table_digest"]

    def test_cli_ingests_csv_flow_records(self, clean_series, abilene,
                                          tmp_path, capsys):
        from repro.ingest import export_series_records

        csv_path = tmp_path / "flows.csv"
        export_series_records(clean_series.window(0, 192), abilene,
                              str(csv_path), seed=3, max_flows_per_cell=2)
        argv = ["--store", str(tmp_path / "events.sqlite"),
                "--ingest-csv", str(csv_path),
                "--chunk-size", "48",
                "--min-train-bins", "96",
                "--recalibrate-every-bins", "48"]
        assert service_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["interrupted"] is False
        assert payload["n_bins_processed"] == 192
