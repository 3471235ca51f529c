"""The multivariate OD-flow timeseries container.

:class:`TrafficMatrixSeries` holds the three ``n x p`` matrices the paper
analyzes — byte counts, packet counts, and IP-flow counts per OD pair per
5-minute bin — together with the OD-pair labels and the time binning.  It is
the single data structure exchanged between the traffic generator, the
measurement pipeline, the subspace detector, the baselines, and the
evaluation code.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.timebins import TimeBinning
from repro.utils.validation import ensure_2d, require

__all__ = ["TrafficType", "TrafficMatrixSeries"]


class TrafficType(str, enum.Enum):
    """The three OD-flow traffic types analyzed in the paper."""

    BYTES = "bytes"
    PACKETS = "packets"
    FLOWS = "flows"

    @property
    def short_label(self) -> str:
        """The single-letter label used in the paper's tables (B, P, F)."""
        return {"bytes": "B", "packets": "P", "flows": "F"}[self.value]

    @classmethod
    def from_short_label(cls, label: str) -> "TrafficType":
        """Inverse of :attr:`short_label`."""
        mapping = {"B": cls.BYTES, "P": cls.PACKETS, "F": cls.FLOWS}
        try:
            return mapping[label.upper()]
        except KeyError:
            raise ValueError(f"unknown traffic-type label {label!r}") from None

    @classmethod
    def all(cls) -> Tuple["TrafficType", ...]:
        """All three traffic types, in the paper's (B, P, F) order."""
        return (cls.BYTES, cls.PACKETS, cls.FLOWS)


class TrafficMatrixSeries:
    """Timeseries of OD-flow traffic for the three traffic types.

    Parameters
    ----------
    od_pairs:
        The ``p`` OD-pair labels ``(origin, destination)`` giving the column
        ordering of all matrices.
    binning:
        The time binning shared by all matrices (``n`` bins).
    matrices:
        Mapping from :class:`TrafficType` to an ``n x p`` non-negative array.
        At least one traffic type must be present.
    """

    def __init__(
        self,
        od_pairs: Sequence[Tuple[str, str]],
        binning: TimeBinning,
        matrices: Mapping[TrafficType, np.ndarray],
    ) -> None:
        require(len(od_pairs) >= 1, "od_pairs must be non-empty")
        require(len(matrices) >= 1, "at least one traffic type is required")
        self._od_pairs: List[Tuple[str, str]] = [tuple(pair) for pair in od_pairs]
        if len(set(self._od_pairs)) != len(self._od_pairs):
            raise ValueError("od_pairs contains duplicates")
        self._binning = binning
        self._index: Dict[Tuple[str, str], int] = {
            pair: i for i, pair in enumerate(self._od_pairs)
        }
        self._matrices: Dict[TrafficType, np.ndarray] = {}
        for traffic_type, matrix in matrices.items():
            array = ensure_2d(matrix, f"matrix[{traffic_type.value}]")
            if array.shape != (binning.n_bins, len(self._od_pairs)):
                raise ValueError(
                    f"matrix[{traffic_type.value}] has shape {array.shape}, "
                    f"expected {(binning.n_bins, len(self._od_pairs))}"
                )
            if np.any(array < 0):
                raise ValueError(f"matrix[{traffic_type.value}] must be non-negative")
            self._matrices[TrafficType(traffic_type)] = array

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, od_pairs: Sequence[Tuple[str, str]], binning: TimeBinning,
              traffic_types: Iterable[TrafficType] = TrafficType.all()) -> "TrafficMatrixSeries":
        """An all-zero series with the given shape (used by aggregators)."""
        matrices = {
            TrafficType(t): np.zeros((binning.n_bins, len(od_pairs)))
            for t in traffic_types
        }
        return cls(od_pairs, binning, matrices)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def od_pairs(self) -> List[Tuple[str, str]]:
        """OD-pair labels in column order."""
        return list(self._od_pairs)

    @property
    def binning(self) -> TimeBinning:
        """The shared time binning."""
        return self._binning

    @property
    def n_bins(self) -> int:
        """Number of timebins ``n``."""
        return self._binning.n_bins

    @property
    def n_od_pairs(self) -> int:
        """Number of OD pairs ``p``."""
        return len(self._od_pairs)

    @property
    def traffic_types(self) -> List[TrafficType]:
        """Traffic types present in this series."""
        return list(self._matrices.keys())

    def matrix(self, traffic_type: TrafficType) -> np.ndarray:
        """The ``n x p`` matrix for *traffic_type* (a live view, not a copy)."""
        try:
            return self._matrices[TrafficType(traffic_type)]
        except KeyError:
            raise KeyError(f"traffic type {traffic_type!r} not present") from None

    def od_index(self, origin: str, destination: str) -> int:
        """Column index of the OD pair ``(origin, destination)``."""
        try:
            return self._index[(origin, destination)]
        except KeyError:
            raise KeyError(f"unknown OD pair ({origin!r}, {destination!r})") from None

    def od_series(self, traffic_type: TrafficType, origin: str,
                  destination: str) -> np.ndarray:
        """The length-``n`` timeseries of a single OD flow."""
        return self.matrix(traffic_type)[:, self.od_index(origin, destination)]

    def total_series(self, traffic_type: TrafficType) -> np.ndarray:
        """Network-wide total traffic per bin (sum over OD pairs)."""
        return self.matrix(traffic_type).sum(axis=1)

    # ------------------------------------------------------------------ #
    # mutation (used by generators, aggregators, and injectors)
    # ------------------------------------------------------------------ #
    def add(self, traffic_type: TrafficType, bin_index: int, origin: str,
            destination: str, amount: float) -> None:
        """Add *amount* to one cell (may be negative but never below zero)."""
        matrix = self.matrix(traffic_type)
        column = self.od_index(origin, destination)
        new_value = matrix[bin_index, column] + amount
        matrix[bin_index, column] = max(new_value, 0.0)

    def add_block(self, traffic_type: TrafficType, bin_indices: Sequence[int],
                  origin: str, destination: str, amounts: Sequence[float]) -> None:
        """Add a vector of *amounts* to consecutive bins of one OD flow."""
        require(len(bin_indices) == len(amounts),
                "bin_indices and amounts must have the same length")
        matrix = self.matrix(traffic_type)
        column = self.od_index(origin, destination)
        for bin_index, amount in zip(bin_indices, amounts):
            matrix[bin_index, column] = max(matrix[bin_index, column] + amount, 0.0)

    def scale_od(self, traffic_type: TrafficType, origin: str, destination: str,
                 bin_indices: Sequence[int], factor: float) -> np.ndarray:
        """Multiply selected bins of one OD flow by *factor*; returns the delta."""
        require(factor >= 0, "factor must be non-negative")
        matrix = self.matrix(traffic_type)
        column = self.od_index(origin, destination)
        indices = np.asarray(bin_indices, dtype=int)
        before = matrix[indices, column].copy()
        matrix[indices, column] = before * factor
        return matrix[indices, column] - before

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def window(self, start_bin: int, end_bin: int) -> "TrafficMatrixSeries":
        """Return a new series restricted to bins ``[start_bin, end_bin)``."""
        require(0 <= start_bin < end_bin <= self.n_bins, "invalid bin window")
        new_binning = TimeBinning(
            n_bins=end_bin - start_bin,
            bin_seconds=self._binning.bin_seconds,
            start_seconds=self._binning.bin_start(start_bin),
        )
        matrices = {
            t: m[start_bin:end_bin, :].copy() for t, m in self._matrices.items()
        }
        return TrafficMatrixSeries(self._od_pairs, new_binning, matrices)

    def select_od_pairs(self, pairs: Sequence[Tuple[str, str]]) -> "TrafficMatrixSeries":
        """Return a new series containing only the given OD pairs."""
        indices = [self.od_index(o, d) for o, d in pairs]
        matrices = {t: m[:, indices].copy() for t, m in self._matrices.items()}
        return TrafficMatrixSeries(list(pairs), self._binning, matrices)

    def copy(self) -> "TrafficMatrixSeries":
        """Deep copy of the series."""
        matrices = {t: m.copy() for t, m in self._matrices.items()}
        return TrafficMatrixSeries(self._od_pairs, self._binning, matrices)

    def rebin(self, coarse_bin_seconds: int) -> "TrafficMatrixSeries":
        """Aggregate into coarser bins by summation (e.g. 1-min → 5-min).

        The paper's pipeline aggregates one-minute exports into five-minute
        bins; this is that step.  The number of fine bins must be a multiple
        of the rebin factor.
        """
        factor = self._binning.rebin_factor(coarse_bin_seconds)
        require(self.n_bins % factor == 0,
                "number of bins must be divisible by the rebin factor")
        n_coarse = self.n_bins // factor
        new_binning = TimeBinning(n_bins=n_coarse, bin_seconds=coarse_bin_seconds,
                                  start_seconds=self._binning.start_seconds)
        matrices = {}
        for traffic_type, matrix in self._matrices.items():
            reshaped = matrix.reshape(n_coarse, factor, self.n_od_pairs)
            matrices[traffic_type] = reshaped.sum(axis=1)
        return TrafficMatrixSeries(self._od_pairs, new_binning, matrices)

    # ------------------------------------------------------------------ #
    # comparisons / summaries
    # ------------------------------------------------------------------ #
    def allclose(self, other: "TrafficMatrixSeries", rtol: float = 1e-9,
                 atol: float = 1e-6) -> bool:
        """Whether two series hold (numerically) identical data."""
        if self._od_pairs != other._od_pairs or self.n_bins != other.n_bins:
            return False
        if set(self._matrices) != set(other._matrices):
            return False
        return all(
            np.allclose(self._matrices[t], other._matrices[t], rtol=rtol, atol=atol)
            for t in self._matrices
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-traffic-type summary statistics (totals, means, maxima)."""
        result: Dict[str, Dict[str, float]] = {}
        for traffic_type, matrix in self._matrices.items():
            result[traffic_type.value] = {
                "total": float(matrix.sum()),
                "mean_per_bin": float(matrix.sum(axis=1).mean()),
                "max_cell": float(matrix.max()),
                "nonzero_fraction": float(np.count_nonzero(matrix) / matrix.size),
            }
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        types = ",".join(t.short_label for t in self._matrices)
        return (
            f"TrafficMatrixSeries(n_bins={self.n_bins}, n_od_pairs={self.n_od_pairs}, "
            f"types=[{types}])"
        )
