"""Seeded randomized property tests of the streaming moment algebra.

**Chunking invariance**, the guarantee the streaming drivers rest on: with
``λ = 1``, any split of a stream into chunks yields the same
mean/covariance as ``np.cov`` of the full history, regardless of chunk
boundaries.
"""

import numpy as np
import pytest

from repro.streaming import OnlinePCA

#: Number of randomized draws per property (seeded, so deterministic).
N_TRIALS = 10


def _random_stream(rng, n_bins=None, n_features=None):
    """A correlated random stream with nontrivial spectrum and offset."""
    n = int(n_bins if n_bins is not None else rng.integers(30, 200))
    p = int(n_features if n_features is not None else rng.integers(3, 24))
    k = int(rng.integers(1, p + 1))
    latent = rng.normal(size=(n, k))
    mixing = rng.normal(size=(k, p))
    return latent @ mixing + rng.normal(scale=20.0, size=p) + 50.0


def _random_splits(rng, n_bins):
    """Random chunk boundaries 0 < s1 < ... < n_bins (possibly none)."""
    n_cuts = int(rng.integers(0, min(8, n_bins)))
    cuts = sorted(rng.choice(np.arange(1, n_bins), size=n_cuts, replace=False))
    return [0] + [int(c) for c in cuts] + [n_bins]


def _feed(engine, matrix, bounds):
    for start, stop in zip(bounds[:-1], bounds[1:]):
        engine.partial_fit(matrix[start:stop])
    return engine


class TestChunkingInvariance:
    def test_any_split_matches_full_history_cov(self):
        rng = np.random.default_rng(20040101)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            bounds = _random_splits(rng, matrix.shape[0])
            engine = _feed(OnlinePCA(), matrix, bounds)
            np.testing.assert_allclose(engine.mean, matrix.mean(axis=0),
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(engine.covariance(),
                                       np.cov(matrix, rowvar=False),
                                       rtol=1e-8, atol=1e-8)

    def test_two_different_splits_agree_with_each_other(self):
        rng = np.random.default_rng(19970423)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            first = _feed(OnlinePCA(), matrix,
                          _random_splits(rng, matrix.shape[0]))
            second = _feed(OnlinePCA(), matrix,
                           _random_splits(rng, matrix.shape[0]))
            np.testing.assert_allclose(first.covariance(), second.covariance(),
                                       rtol=1e-9, atol=1e-9)
            assert first.n_bins_seen == second.n_bins_seen
            assert first.weight_sum == pytest.approx(second.weight_sum)

    def test_chunking_invariance_extends_to_eigenbasis(self):
        rng = np.random.default_rng(11)
        matrix = _random_stream(rng, n_bins=150, n_features=12)
        whole = OnlinePCA().partial_fit(matrix)
        chunked = _feed(OnlinePCA(), matrix, _random_splits(rng, 150))
        np.testing.assert_allclose(whole.eigenbasis()[0],
                                   chunked.eigenbasis()[0],
                                   rtol=1e-8, atol=1e-8)
