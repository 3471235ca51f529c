"""Benchmark of the streaming subspace anomaly detector, end to end.

Usage::

    python3 perfbench/run.py --workload backbone-p529 --seed 1 --seconds 12 \\
        --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``abilene-4w`` — the paper's span: four synthetic Abilene weeks
  (p = 121) through ``chunk_series`` into ``StreamingNetworkDetector``,
  32-bin chunks, six inputs per run.  Greedy T² identification dominates
  it.  Run it by hand: it is not in ``BENCHMARK.json`` because its
  Python-bound chunks follow the host's speed drift too closely for the
  benchmark's bounds (ten-seed spreads of 0.19 to 0.33 on a 2-vCPU VM);
* ``backbone-p529`` — a 23-PoP random backbone (p = 529), two days per
  input, 16-bin chunks, six inputs per run;
* ``csv-service`` — three Abilene days exported as flow-record CSV, read
  by ``FlowCsvSource`` (8-bin chunks) into ``DetectionService`` with an
  on-disk event store, checkpointing every 8 chunks.

Every workload uses the exact engine with ``recalibrate_every_bins=96``
and ``min_train_bins=128``, one process, no parse workers, telemetry off.

A run makes its inputs from ``--seed`` in a child process (cached under
``.perfbench``), times set-up in fresh processes, then streams rounds of
passes — a round is one pass over each input, with fresh detector state
per pass — until ``--seconds`` of passes are measured.  The output
checks of ``checks.py`` run after the timed loop.

With ``--trace 0`` the last output line carries the end-to-end metrics:

* ``bins_per_s`` and ``records_per_s`` — bins, and input records (flow
  records on ``csv-service``; (bin, OD flow, traffic type) cells of the
  input matrices elsewhere), over the summed pass time;
* ``chunk_p50_ms`` and ``chunk_p90_ms`` — per-chunk service time, from
  pulling a chunk to pulling the next, over every chunk of the run;
* ``setup_s`` — median of three fresh processes, from start to the first
  chunk handed over, input generation and loading excluded;
* ``peak_rss_mb`` — peak resident memory of the measuring process.

With ``--trace 1`` each pass runs twice on the same input, untraced and
then traced, and the last line carries the per-layer metrics of
``layers.py``.  The line before the result describes the run (seed, p,
bins, records, chunks, events, digests).  Failed chunks are counted in
``failed``; when an output check fails, every chunk counts as failed and
``correct`` is false.  A run that cannot be made at all exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from checks import (csv_problems, digest_problems, event_problems,
                    reference_digests)
from common import (CACHE, WORKLOADS, BenchmarkError, streaming_config,
                    use_checkout_library)
from inputs import ensure_inputs, load_series
from layers import Tracer
from passes import pass_error, run_pass

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
MIN_CHUNKS = 100
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "setup_probe.py")


def measure_setup(workload, manifest: dict) -> float:
    """Median seconds from process start to the first chunk handed over."""
    values = []
    for _ in range(SETUP_REPEATS):
        workdir = os.path.join(CACHE, "work", f"setup-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, PROBE, workload.name, manifest["dir"],
                 workdir],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        values.append(probe["handover"] - started - probe["loading"])
    return statistics.median(values)


class Runner:
    """Streams rounds of passes over a workload's inputs; checks outputs."""

    def __init__(self, workload, seed: int, manifest: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.manifest = manifest
        self.config = streaming_config()
        self.loaded = {}
        self._loaded_index = None
        if workload.days:
            from repro.topology.abilene import abilene_topology
            self.loaded["network"] = abilene_topology()
        self.digests = defaultdict(set)
        self.events = {}
        self.problems = []
        self.chunks = 0
        self.bad_chunks = 0

    def one_pass(self, index: int, tracer=None):
        if not self.workload.days and self._loaded_index != index:
            self.loaded.pop("series", None)
            self.loaded["series"] = load_series(self.manifest, index)
            self._loaded_index = index
        gc.collect()
        try:
            result = run_pass(self.workload, self.manifest, index,
                              self.config, self.loaded, tracer)
        except Exception as exc:  # a failing pass fails the run, not the tool
            result = pass_error(exc)
        self.chunks += len(result.chunk_seconds)
        self.bad_chunks += result.bad_chunks
        self.problems.extend(result.problems)
        if not result.problems:
            self.digests[index].add(result.digest)
            self.events[index] = len(result.events)
            self.problems.extend(event_problems(
                result.events, self.manifest["n_bins"], self.manifest["p"]))
        return result

    def check(self, last_digest: str) -> dict:
        """Run the output checks; return the run description."""
        reference = reference_digests(self.workload.name, self.seed)
        if not self.problems:
            self.problems.extend(digest_problems(self.digests, reference))
        if not self.problems and self.workload.days:
            self.problems.extend(csv_problems(
                self.manifest, self.workload, self.config,
                self.loaded["network"], last_digest))
        return {
            "workload": self.workload.name, "seed": self.seed,
            "p": self.manifest["p"], "bins": self.manifest["n_bins"],
            "records_per_input": self.manifest.get(
                "records", 3 * self.manifest["n_bins"] * self.manifest["p"]),
            "inputs": len(self.manifest["inputs"]),
            "chunks": self.chunks, "bad_chunks": self.bad_chunks,
            "events": [self.events[i] for i in sorted(self.events)],
            "digests": [sorted(self.digests[i])
                        for i in sorted(self.digests)],
            "reference": ("not recorded for this seed" if reference is None
                          else "compared"),
            "problems": self.problems,
        }


def run_rounds(runner: Runner, seconds: float, one_pass) -> None:
    """Call ``one_pass(index)`` round after round until time is up.

    *one_pass* returns the seconds it measured.  Stopping only after whole
    rounds — one pass over every input — weighs the inputs alike however
    many rounds fit into the time; a round starts only while the run is
    more than half a round short of *seconds*, so runs end as close to it
    as whole rounds allow.
    """
    measured = last_round = 0.0
    while not runner.problems and (measured + last_round / 2 < seconds
                                   or runner.chunks < MIN_CHUNKS):
        last_round = 0.0
        for index in range(runner.workload.n_inputs):
            last_round += one_pass(index)
            if runner.problems:
                return
        measured += last_round


def plain_run(runner: Runner, seconds: float):
    setup = measure_setup(runner.workload, runner.manifest)
    results = []

    def one(index):
        results.append(runner.one_pass(index))
        return results[-1].seconds

    run_rounds(runner, seconds, one)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = runner.check(results[-1].digest)
    measured = sum(r.seconds for r in results)
    chunk_seconds = [s for r in results for s in r.chunk_seconds]
    metrics = {"setup_s": (setup, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    if measured > 0 and len(chunk_seconds) >= 2:
        metrics.update({
            "bins_per_s": (sum(r.bins for r in results) / measured, "1/s"),
            "records_per_s": (sum(r.records for r in results) / measured,
                              "1/s"),
            "chunk_p50_ms": (1e3 * statistics.median(chunk_seconds), "ms"),
            "chunk_p90_ms": (1e3 * statistics.quantiles(
                chunk_seconds, n=10)[8], "ms"),
        })
    info.update(passes=len(results), measured_s=measured,
                pass_seconds=[round(r.seconds, 4) for r in results])
    return metrics, info


def traced_run(runner: Runner, seconds: float):
    tracer = Tracer()
    spent = {"untraced": 0.0, "traced": 0.0, "passes": 0}
    last = []

    def one(index):
        untraced = runner.one_pass(index).seconds
        tracer.pass_index = spent["passes"]
        tracer.install()
        try:
            last[:] = [runner.one_pass(index, tracer)]
        finally:
            tracer.uninstall()
        spent["untraced"] += untraced
        spent["traced"] += last[0].seconds
        spent["passes"] += 1
        return untraced + last[0].seconds

    run_rounds(runner, seconds, one)
    info = runner.check(last[0].digest)
    metrics = {}
    if not runner.problems:
        tracer.check_coverage(runner.workload.name)
        metrics = tracer.metrics(spent["traced"],
                                 spent["traced"] / spent["untraced"])
        tracer.write(os.path.join(CACHE, "trace",
                                  f"{runner.workload.name}.jsonl"),
                     {"workload": runner.workload.name, "seed": runner.seed,
                      **spent})
    info.update(spent)
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_library()
        workload = WORKLOADS[args.workload]
        manifest = ensure_inputs(workload, args.seed)
        runner = Runner(workload, args.seed, manifest)
        run = traced_run if args.trace else plain_run
        metrics, info = run(runner, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    correct = not runner.problems
    attempted = max(1, runner.chunks)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.bad_chunks if correct else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
