"""Seeded benchmark inputs: generation, on-disk cache, loading.

Inputs are generated in a child process (``python3 perfbench/inputs.py
<workload> <seed>``) so that neither their run time nor their memory
(the CSV export holds every flow record as a Python object) reaches the
measuring process.  They are cached under ``.perfbench/inputs`` because
runs with the same seed need the same inputs; the least recently used
entries are evicted beyond :data:`CACHE_LIMIT_BYTES`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

from common import (CACHE, WORKLOADS, BenchmarkError, Workload, input_seed,
                    use_checkout_library)

CACHE_LIMIT_BYTES = 2_500_000_000
#: Seed of the anomaly scenario and of the random backbone's topology,
#: fixed across runs (the repository's customary seed).
SCENARIO_SEED = 2004
GENERATE_TIMEOUT_S = 150
_DONE = "done.json"


def input_dir(workload: Workload, seed: int) -> str:
    return os.path.join(CACHE, "inputs", f"{workload.name}-seed{seed}")


def _params(workload: Workload) -> dict:
    """What a cached entry was generated with; a mismatch regenerates it."""
    return {"workload": dataclasses.asdict(workload), "format": 2}


def ensure_inputs(workload: Workload, seed: int) -> dict:
    """Generate (or reuse) the inputs of *workload* at *seed*.

    Returns the entry's manifest: input file names, bins and OD flows per
    input and, for the CSV, the number of records exported.
    """
    directory = input_dir(workload, seed)
    manifest = _read_manifest(directory)
    if manifest is None or manifest.get("params") != _params(workload):
        shutil.rmtree(directory, ignore_errors=True)
        staging = f"{directory}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        try:
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), workload.name,
                 str(seed), staging],
                check=True, timeout=GENERATE_TIMEOUT_S,
                stdout=subprocess.DEVNULL)
            os.replace(staging, directory)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            raise BenchmarkError(f"input generation failed: {exc}") from exc
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        manifest = _read_manifest(directory)
        if manifest is None:
            raise BenchmarkError(f"input generation left no manifest in "
                                 f"{directory}")
    os.utime(os.path.join(directory, _DONE))
    _evict(keep=directory)
    manifest["dir"] = directory
    return manifest


def _read_manifest(directory: str):
    try:
        with open(os.path.join(directory, _DONE), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _evict(keep: str) -> None:
    base = os.path.join(CACHE, "inputs")
    entries = []
    for name in os.listdir(base):
        path = os.path.join(base, name)
        size = sum(os.path.getsize(os.path.join(path, f))
                   for f in os.listdir(path))
        done = os.path.join(path, _DONE)
        used = os.path.getmtime(done) if os.path.exists(done) else 0.0
        entries.append((used, path, size))
    total = sum(size for _, _, size in entries)
    for used, path, size in sorted(entries):
        if total <= CACHE_LIMIT_BYTES:
            return
        if path != keep:
            shutil.rmtree(path, ignore_errors=True)
            total -= size


# --------------------------------------------------------------------- #
# loading (measuring process)
# --------------------------------------------------------------------- #
def load_series(manifest: dict, index: int):
    """Input *index* of a matrix workload as a ``TrafficMatrixSeries``."""
    import numpy as np
    from repro.flows.timeseries import TrafficMatrixSeries, TrafficType
    from repro.utils.timebins import TimeBinning

    path = os.path.join(manifest["dir"], manifest["inputs"][index])
    with np.load(path) as data:
        od_pairs = list(zip(data["od_src"].tolist(), data["od_dst"].tolist()))
        matrices = {t: data[t.value] for t in TrafficType}
    n_bins = next(iter(matrices.values())).shape[0]
    return TrafficMatrixSeries(od_pairs, TimeBinning(n_bins=n_bins), matrices)


def load_direct(manifest: dict):
    """The in-memory aggregation of the CSV's records, per traffic type."""
    import numpy as np
    from repro.flows.timeseries import TrafficType

    with np.load(os.path.join(manifest["dir"], "direct.npz")) as data:
        return {t: data[t.value] for t in TrafficType}


# --------------------------------------------------------------------- #
# generation (child process)
# --------------------------------------------------------------------- #
def network_of(workload: Workload):
    if workload.n_pops:
        from repro.topology.builder import random_backbone
        return random_backbone(workload.n_pops, seed=SCENARIO_SEED)
    from repro.topology.abilene import abilene_topology
    return abilene_topology()


def _dataset(network, weeks: float, seed: int):
    """One input: the fixed anomaly scenario over traffic drawn from *seed*.

    The scenario (which anomalies, where, how large) is drawn once from
    :data:`SCENARIO_SEED` and injected into every input, so inputs differ
    in their traffic only and every run holds comparable anomalies.
    """
    from repro.anomalies.schedule import AnomalyScheduler
    from repro.datasets.synthetic import DatasetConfig, generate_abilene_dataset
    from repro.utils.timebins import TimeBinning

    config = DatasetConfig(weeks=weeks)
    scenario = AnomalyScheduler(network, config.schedule,
                                seed=SCENARIO_SEED).build_schedule(
        TimeBinning(n_bins=config.n_bins, bin_seconds=config.bin_seconds))
    return generate_abilene_dataset(config, seed=seed, network=network,
                                    injectors=scenario)


def _save_series(series, path: str) -> None:
    import numpy as np
    arrays = {t.value: series.matrix(t) for t in series.traffic_types}
    od_pairs = series.od_pairs
    np.savez(path, od_src=np.array([a for a, _ in od_pairs]),
             od_dst=np.array([b for _, b in od_pairs]), **arrays)


def generate(workload: Workload, seed: int, out: str) -> None:
    network = network_of(workload)
    manifest = {"params": _params(workload), "seed": seed, "inputs": []}
    if not workload.days:
        for index in range(workload.n_inputs):
            dataset = _dataset(network, workload.weeks,
                               input_seed(seed, index))
            name = f"input-{index}.npz"
            _save_series(dataset.series, os.path.join(out, name))
            manifest["inputs"].append(name)
        manifest["n_bins"] = dataset.series.n_bins
        manifest["p"] = len(dataset.series.od_pairs)
    else:
        manifest.update(_generate_csv(workload, seed, network, out))
    with open(os.path.join(out, _DONE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def _generate_csv(workload: Workload, seed: int, network, out: str) -> dict:
    """Export flow records to CSV and aggregate the same records in memory.

    Mirrors ``repro.ingest.parity.round_trip_check``: the direct path
    resolves and aggregates the very records written to the CSV, so the
    ingested matrices must equal it byte for byte.
    """
    import numpy as np
    from repro.flows.aggregation import aggregate_records
    from repro.ingest import export_series_records
    from repro.routing.resolver import PoPResolver

    sub_seed = input_seed(seed, 0)
    series = _dataset(network, workload.days / 7.0, sub_seed).series
    csv_path = os.path.join(out, "flows.csv")
    records = export_series_records(
        series, network, csv_path, seed=sub_seed,
        max_flows_per_cell=workload.flows_per_cell)
    resolved, _ = PoPResolver(network).resolve_records(records)
    direct = aggregate_records(resolved, network.od_pairs(), series.binning)
    np.savez(os.path.join(out, "direct.npz"),
             **{t.value: direct.matrix(t) for t in direct.traffic_types})
    return {"inputs": ["flows.csv"], "n_bins": series.n_bins,
            "p": len(series.od_pairs), "records": len(records)}


if __name__ == "__main__":
    use_checkout_library()
    started = time.perf_counter()
    generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
    print(f"generated {sys.argv[1]} seed {sys.argv[2]} in "
          f"{time.perf_counter() - started:.1f} s")
