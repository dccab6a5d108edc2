from __future__ import annotations

import numpy as np
import pytest

from densevoc.aggregate import hard_aggregate, hard_sample_indices, soft_aggregate
from densevoc.assoc import AssocMatrix, IdentityAssignment, preprocess
from densevoc.core import ValidationError


def _assoc(values, frames) -> AssocMatrix:
    return AssocMatrix(values=np.asarray(values, dtype=float), frame_of=np.asarray(frames))


def test_soft_identity_weights_pass_features_through(rng) -> None:
    f = rng.normal(size=(4, 3))
    a = _assoc(np.eye(4), [0, 1, 2, 3])
    assert soft_aggregate(a, f) == pytest.approx(f)


def test_soft_all_ones_averages() -> None:
    a = _assoc(np.ones((2, 2)), [0, 1])
    g = soft_aggregate(a, np.array([[2.0, 4.0], [6.0, 8.0]]))
    assert g == pytest.approx(np.array([[4.0, 6.0], [4.0, 6.0]]))


def test_soft_cross_frame_weights() -> None:
    a = _assoc([[1.0, 0.5], [0.5, 1.0]], [0, 1])
    g = soft_aggregate(a, np.array([[0.0, 0.0], [3.0, 3.0]]))
    assert g == pytest.approx(np.array([[1.0, 1.0], [2.0, 2.0]]))


def test_soft_rows_stay_in_convex_hull(rng) -> None:
    for _ in range(50):
        m = int(rng.integers(1, 7))
        a = preprocess(
            _assoc(rng.uniform(0, 1, size=(m, m)), rng.integers(0, 3, size=m))
        )
        f = rng.normal(size=(m, 4))
        g = soft_aggregate(a, f)
        lo, hi = f.min(axis=0), f.max(axis=0)
        assert np.all(g >= lo - 1e-12) and np.all(g <= hi + 1e-12)


def test_soft_block_diagonal_equals_trajectory_mean() -> None:
    values = np.zeros((5, 5))
    values[:3, :3] = 1.0
    values[3:, 3:] = 1.0
    a = _assoc(values, [0, 1, 2, 0, 1])
    f = np.arange(10.0).reshape(5, 2)
    g = soft_aggregate(a, f)
    first = f[:3].mean(axis=0)
    second = f[3:].mean(axis=0)
    assert g[:3] == pytest.approx(np.tile(first, (3, 1)), abs=1e-12)
    assert g[3:] == pytest.approx(np.tile(second, (2, 1)), abs=1e-12)


def test_soft_dimension_mismatch_rejected() -> None:
    a = _assoc(np.eye(2), [0, 1])
    with pytest.raises(ValidationError):
        soft_aggregate(a, np.zeros((3, 2)))


def test_sample_indices_short_trajectory_passthrough() -> None:
    assert hard_sample_indices(3, 6).tolist() == [0, 1, 2]


def test_sample_indices_ten_of_six() -> None:
    assert hard_sample_indices(10, 6).tolist() == [0, 2, 4, 5, 7, 9]


def test_sample_indices_single_sample_takes_first() -> None:
    assert hard_sample_indices(7, 1).tolist() == [0]


def test_sample_indices_reject_empty_trajectory_and_zero_samples() -> None:
    for length, m in ((0, 6), (6, 0)):
        with pytest.raises(ValidationError):
            hard_sample_indices(length, m)


def test_sample_indices_properties() -> None:
    for length in range(1, 40):
        for m in range(1, 10):
            idx = hard_sample_indices(length, m)
            assert idx[0] == 0
            assert np.all(np.diff(idx) > 0) or len(idx) == 1
            if m >= 2 and length >= 2:
                assert idx[-1] == length - 1
            assert len(idx) == min(length, m)


def test_hard_single_observation_identity() -> None:
    f = np.array([[5.0, 6.0]])
    out = hard_aggregate(f, IdentityAssignment(ids=np.array([1])), np.array([0]), m=6)
    assert out[1] == pytest.approx([5.0, 6.0])


def test_hard_two_rows_full_concatenation() -> None:
    f = np.array([[1.0, 1.0], [3.0, 3.0]])
    out = hard_aggregate(f, IdentityAssignment(ids=np.array([1, 1])), np.array([0, 1]), m=2)
    assert out[1] == pytest.approx([1.0, 1.0, 3.0, 3.0])


def test_hard_ten_rows_sampled_indices() -> None:
    f = np.arange(20.0).reshape(10, 2)
    out = hard_aggregate(
        f, IdentityAssignment(ids=np.ones(10, dtype=int)), np.arange(10), m=6
    )
    expected = f[[0, 2, 4, 5, 7, 9]].reshape(-1)
    assert out[1] == pytest.approx(expected)
    assert len(out[1]) == 6 * 2


def test_hard_permutation_invariant(rng) -> None:
    f = rng.normal(size=(8, 3))
    ids = np.array([1, 1, 2, 2, 1, 2, 1, 2])
    frames = np.array([0, 1, 0, 1, 2, 2, 3, 3])
    base = hard_aggregate(f, IdentityAssignment(ids=ids), frames, m=3)
    perm = rng.permutation(8)
    shuffled = hard_aggregate(
        f[perm], IdentityAssignment(ids=ids[perm]), frames[perm], m=3
    )
    for tid in (1, 2):
        assert shuffled[tid] == pytest.approx(base[tid])


def test_hard_aggregate_checks_m_with_no_identity() -> None:
    with pytest.raises(ValidationError, match="m must be >= 1, got 0"):
        hard_aggregate(np.zeros((0, 2)), IdentityAssignment(ids=[]), [], m=0)
