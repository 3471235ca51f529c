"""Reference implementations the streaming hot path is held to.

The exact engine's per-chunk work is written for speed: greedy T²
identification scores every candidate flow with one array operation per
round, and the scatter update is one fused rank-``(m+1)`` product.  Each is
checked here against the plain formulation it replaced:

* the greedy loop over :func:`t2_of_centered_row`, one candidate at a time,
  must give the same flow list in the same order (seeds, exact ties, zero
  flows, both T² scalings, the ``max_flows`` cap, bins no removal helps);
* the scatter at ``λ = 1`` must equal ``np.cov(history) · (n - 1)`` over
  chunks of mixed sizes, and at ``λ < 1`` the three-term
  ``decay·M + Cᵀ W C + c·δδᵀ`` update to ``rtol = 1e-12``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SubspaceDetector, T2Scaling
from repro.core.identification import (identify_od_flows, identify_t2_flows,
                                       t2_of_centered_row)
from repro.streaming.online_pca import OnlinePCA


def greedy_oracle(row, axes, eigenvalues, n_samples, threshold,
                  scaling=T2Scaling.HOTELLING, max_flows=None):
    """The per-candidate greedy loop: re-score every remaining flow from
    scratch each round, keep the first strictly best one."""
    n_features = row.size
    cap = n_features if max_flows is None else min(max_flows, n_features)

    def value(removed):
        return t2_of_centered_row(row, axes, eigenvalues, n_samples,
                                  scaling, removed)

    identified, remaining = [], list(range(n_features))
    current = value(identified)
    while current > threshold and len(identified) < cap and remaining:
        best_flow, best_value = None, current
        for flow in remaining:
            candidate = value(identified + [flow])
            if candidate < best_value:
                best_flow, best_value = flow, candidate
        if best_flow is None:
            break
        identified.append(best_flow)
        remaining.remove(best_flow)
        current = best_value
    if not identified:
        contribution = np.sum((row[:, np.newaxis] * axes)**2, axis=1)
        identified.append(int(np.argmax(contribution)))
    return identified


def random_case(rng, p, k=4, zero_fraction=0.2):
    """An orthonormal ``p x k`` basis, a descending spectrum, and a centered
    row with a few large flows and ~*zero_fraction* exact zeros."""
    axes, _ = np.linalg.qr(rng.normal(size=(p, k)))
    eigenvalues = np.sort(rng.uniform(0.5, 50.0, size=p))[::-1]
    row = rng.normal(size=p)
    spikes = rng.choice(p, size=min(3, p), replace=False)
    row[spikes] += rng.uniform(5.0, 30.0, size=spikes.size)
    row[rng.random(p) < zero_fraction] = 0.0
    return row, axes, eigenvalues


class TestGreedyT2Oracle:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("scaling", list(T2Scaling))
    def test_random_bins_match_the_loop(self, seed, scaling):
        rng = np.random.default_rng(seed)
        for p in (8, 30, 121):
            row, axes, eigenvalues = random_case(rng, p)
            n_samples = int(rng.integers(50, 3000))
            full = t2_of_centered_row(row, axes, eigenvalues, n_samples,
                                      scaling)
            for fraction in (0.02, 0.3, 0.9):
                for cap in (None, 16, 2):
                    args = (row, axes, eigenvalues, n_samples,
                            fraction * full, scaling, cap)
                    assert identify_t2_flows(*args) == greedy_oracle(*args)

    def test_large_p_matches_the_loop(self):
        rng = np.random.default_rng(529)
        row, axes, eigenvalues = random_case(rng, 529)
        full = t2_of_centered_row(row, axes, eigenvalues, 1000)
        args = (row, axes, eigenvalues, 1000, 0.05 * full,
                T2Scaling.HOTELLING, 16)
        flows = identify_t2_flows(*args)
        assert flows == greedy_oracle(*args)
        assert len(flows) > 1

    def test_exact_ties_go_to_the_lowest_index(self):
        # Dyadic axes, power-of-two eigenvalues and integer values keep
        # every sum exact, so duplicated rows tie bit for bit on both sides.
        axes = np.array([[0.5, 0.25], [0.0, 1.0], [0.5, 0.25],
                         [0.25, 0.0], [0.5, 0.25]])
        eigenvalues = np.array([4.0, 2.0, 1.0, 1.0, 1.0])
        row = np.array([8.0, 1.0, 8.0, 2.0, 8.0])
        for scaling in T2Scaling:
            full = t2_of_centered_row(row, axes, eigenvalues, 65, scaling)
            args = (row, axes, eigenvalues, 65, 0.1 * full, scaling, None)
            flows = identify_t2_flows(*args)
            assert flows == greedy_oracle(*args) == [0, 2, 4]

    def test_zero_flows_are_never_picked(self):
        # Removing a flow already at zero changes nothing; it must not look
        # one ulp better than keeping it.  The two live flows cannot bring
        # the bin under a zero threshold, so only zero flows remain.
        rng = np.random.default_rng(7)
        axes, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        eigenvalues = np.linspace(9.0, 1.0, 10)
        row = np.zeros(10)
        row[[3, 6]] = [4.0, -7.0]
        args = (row, axes, eigenvalues, 200, 0.0, T2Scaling.HOTELLING, None)
        flows = identify_t2_flows(*args)
        assert flows == greedy_oracle(*args)
        assert sorted(flows) == [3, 6]

    def test_search_stops_when_only_zero_flows_are_left(self):
        # One axis, exact values: the score is 5 + 3 - 2 = 6 (T² 36).
        # Zeroing flow 0 leaves 1; then flows 3 and 4 would raise it (to 4
        # and 9) and the zero flows 1 and 2 leave it at exactly 1, which is
        # no improvement, so the search ends above the threshold.
        axes = np.array([[1.0], [0.5], [0.25], [1.0], [-1.0]])
        eigenvalues = np.ones(5)
        row = np.array([5.0, 0.0, 0.0, 3.0, 2.0])
        args = (row, axes, eigenvalues, 10, 0.5, T2Scaling.HOTELLING, None)
        assert identify_t2_flows(*args) == greedy_oracle(*args) == [0]

    def test_bin_no_single_removal_helps(self):
        # Two opposed flows: the score is 3 - 2 = 1, and zeroing either one
        # raises T² (to 4 or 9), so the search stops at once and falls back
        # to the flow with the largest score contribution: flow 0 (3 against
        # 2), although flow 1 has the larger centered value.
        axes = np.array([[3.0], [-1.0]])
        eigenvalues = np.array([1.0, 1.0])
        row = np.array([1.0, 2.0])
        for scaling in T2Scaling:
            args = (row, axes, eigenvalues, 2, 0.5, scaling, None)
            assert identify_t2_flows(*args) == greedy_oracle(*args) == [0]

    def test_cap_limits_the_list(self):
        rng = np.random.default_rng(3)
        row, axes, eigenvalues = random_case(rng, 40, zero_fraction=0.0)
        for cap in (1, 2, 3):
            args = (row, axes, eigenvalues, 400, 0.0, T2Scaling.HOTELLING,
                    cap)
            flows = identify_t2_flows(*args)
            assert flows == greedy_oracle(*args)
            assert len(flows) == cap

    @pytest.mark.parametrize("scaling", list(T2Scaling))
    def test_batch_path_matches_the_loop(self, scaling):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(300, 20)) @ rng.normal(size=(20, 20))
        data[150, [2, 9]] += 40.0
        detector = SubspaceDetector(n_normal=4, t2_scaling=scaling)
        detector.fit(data)
        model = detector.model
        centered = data - model.decomposition.column_means
        for bin_index in (150, 151, 10):
            full = t2_of_centered_row(centered[bin_index], model.normal_axes,
                                      model.decomposition.eigenvalues,
                                      model.n_samples, model.t2_scaling)
            for fraction in (0.05, 0.5):
                threshold = fraction * full
                expected = greedy_oracle(
                    centered[bin_index], model.normal_axes,
                    model.decomposition.eigenvalues, model.n_samples,
                    threshold, model.t2_scaling, 16)
                assert identify_od_flows(model, data, bin_index, "t2",
                                         threshold, max_flows=16) == expected


class ThreeTermPCA(OnlinePCA):
    """The unfused update: decayed scatter, chunk scatter and the rank-one
    mean-shift term built as three separate ``p x p`` arrays."""

    def _apply_scatter_update(self, centered, weights, delta, decay,
                              outer_coefficient):
        if weights is None:
            chunk_scatter = centered.T @ centered
        else:
            chunk_scatter = (centered * weights[:, np.newaxis]).T @ centered
        self._scatter = (self._scatter * decay + chunk_scatter
                         + np.outer(delta, delta) * outer_coefficient)


def mixed_chunks(rng, p=30, sizes=(1, 5, 16, 3, 32, 7, 1, 12)):
    mixing = rng.normal(size=(p, p))
    return [rng.normal(size=(m, p)) @ mixing + 100.0 for m in sizes]


class TestFusedScatterUpdate:
    def test_no_forgetting_equals_batch_scatter(self):
        chunks = mixed_chunks(np.random.default_rng(0))
        engine = OnlinePCA()
        seen = []
        for chunk in chunks:
            engine.partial_fit(chunk)
            seen.append(chunk)
            history = np.concatenate(seen)
            n = history.shape[0]
            if n < 2:
                continue
            expected = np.cov(history, rowvar=False) * (n - 1)
            np.testing.assert_allclose(engine.covariance() * (n - 1),
                                       expected, rtol=1e-9,
                                       atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("forgetting", [0.999, 0.98, 0.5])
    def test_forgetting_equals_three_term_update(self, forgetting):
        chunks = mixed_chunks(np.random.default_rng(1))
        fused, reference = OnlinePCA(forgetting), ThreeTermPCA(forgetting)
        for chunk in chunks:
            fused.partial_fit(chunk)
            reference.partial_fit(chunk)
            np.testing.assert_allclose(fused._scatter, reference._scatter,
                                       rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(fused.mean, reference.mean)
        assert fused.weight_sum == reference.weight_sum
        assert fused.effective_samples == reference.effective_samples
