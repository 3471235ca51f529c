"""Ready-made synthetic datasets.

:func:`generate_abilene_dataset` builds the full Abilene-like dataset the
experiments run on: the 11-PoP topology, four weeks (configurable) of
OD-flow traffic at 5-minute bins with diurnal/weekly structure, a randomized
schedule of injected anomalies of every Table 2 type, the lazily-evaluated
flow composition, and the ground-truth log.

:func:`small_scenario` produces a fast, scaled-down dataset (fewer PoPs
and/or bins) for unit tests and examples.
"""

from repro.datasets.synthetic import (
    DatasetConfig,
    SyntheticDataset,
    generate_abilene_dataset,
    generate_drifting_dataset,
    small_scenario,
)
from repro.datasets.streaming import SyntheticChunkSource

__all__ = [
    "DatasetConfig",
    "SyntheticDataset",
    "generate_abilene_dataset",
    "generate_drifting_dataset",
    "small_scenario",
    "SyntheticChunkSource",
]
