from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

from densevoc import losses
from densevoc.core import Box, ValidationError
from densevoc.losses import (
    assoc_loss,
    assoc_loss_grad,
    caption_loss,
    caption_loss_grad,
    finite_diff_check,
    giou_loss,
    heatmap_loss,
    heatmap_loss_grad,
    roi_cls_loss,
    roi_cls_loss_grad,
    roi_reg_loss,
)

from oracles import giou as giou_oracle

LN2 = math.log(2.0)


def test_heatmap_perfect_prediction_is_tiny() -> None:
    y = np.ones((4, 4))
    assert heatmap_loss(y, np.ones((4, 4)), n=2) == pytest.approx(0.0, abs=1e-5)


def test_heatmap_positive_branch_value() -> None:
    value = heatmap_loss(np.array([[0.5]]), np.array([[1.0]]), n=1)
    assert value == pytest.approx(0.25 * LN2, abs=1e-9)


def test_heatmap_negative_branch_value() -> None:
    value = heatmap_loss(np.array([[0.5]]), np.array([[0.0]]), n=1)
    assert value == pytest.approx(0.25 * LN2, abs=1e-9)


def test_heatmap_soft_target_uses_negative_branch() -> None:
    # A 0.99 target is still the "otherwise" case; only exact 1 is positive.
    soft = heatmap_loss(np.array([[0.5]]), np.array([[0.99]]), n=1)
    assert soft == pytest.approx((0.01**4) * 0.25 * LN2, abs=1e-9)


def test_heatmap_shape_and_count_validation() -> None:
    with pytest.raises(ValidationError):
        heatmap_loss(np.ones((2, 2)), np.ones((2, 3)), n=1)
    with pytest.raises(ValidationError):
        heatmap_loss(np.ones((2, 2)), np.ones((2, 2)), n=0)


def test_giou_loss_identical_zero() -> None:
    boxes = [(0, 0, 1, 1), (2, 2, 5, 5)]
    assert giou_loss(boxes, boxes) == pytest.approx(0.0, abs=1e-12)


def test_giou_loss_disjoint_pair() -> None:
    value = giou_loss([(0, 0, 1, 1)], [(2, 0, 3, 1)])
    assert value == pytest.approx(4 / 3, abs=1e-9)


def test_giou_loss_two_pair_mean() -> None:
    pred = [(0, 0, 1, 1), (0, 0, 2, 2)]
    gt = [(0, 0, 1, 1), (1, 0, 3, 2)]
    assert giou_loss(pred, gt) == pytest.approx(1 - (1 + 1 / 3) / 2, abs=1e-9)


def test_giou_loss_validates_lengths() -> None:
    with pytest.raises(ValidationError):
        giou_loss([], [])
    with pytest.raises(ValidationError):
        giou_loss([(0, 0, 1, 1)], [])


def test_roi_cls_uniform_logits() -> None:
    assert roi_cls_loss(np.array([0.0, 0.0]), 0) == pytest.approx(LN2, abs=1e-9)


def test_roi_cls_confident_hit_and_miss() -> None:
    hit = roi_cls_loss(np.array([10.0, 0.0]), 0)
    miss = roi_cls_loss(np.array([0.0, 10.0]), 0)
    assert hit == pytest.approx(math.log(1 + math.exp(-10.0)), abs=1e-9)
    assert hit == pytest.approx(4.54e-5, abs=1e-6)
    assert miss == pytest.approx(10.0 + math.log(1 + math.exp(-10.0)), abs=1e-9)


def test_roi_reg_examples() -> None:
    a = [(0, 0, 1, 1)]
    assert roi_reg_loss(a, a) == 0.0
    assert roi_reg_loss(a, [(1, 1, 2, 2)]) == pytest.approx(1.0)
    assert roi_reg_loss(a, [(0, 0, 1, 3)]) == pytest.approx(0.5)


def test_assoc_loss_perfect_binary_is_tiny() -> None:
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert assoc_loss(a, a) == pytest.approx(0.0, abs=1e-4)


def test_assoc_loss_single_element() -> None:
    assert assoc_loss(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(LN2, abs=1e-9)


def test_assoc_loss_normalized_by_m_not_m_squared() -> None:
    value = assoc_loss(np.full((2, 2), 0.5), np.eye(2))
    assert value == pytest.approx(2 * LN2, abs=1e-9)


def test_assoc_loss_permutation_invariant(rng) -> None:
    a = rng.uniform(0.05, 0.95, size=(5, 5))
    a_gt = (rng.random((5, 5)) < 0.5).astype(float)
    perm = rng.permutation(5)
    assert assoc_loss(a[np.ix_(perm, perm)], a_gt[np.ix_(perm, perm)]) == pytest.approx(
        assoc_loss(a, a_gt), abs=1e-12
    )


def test_caption_loss_uniform_logits() -> None:
    logits = np.zeros((3, 4))
    assert caption_loss(logits, [0, 1, 2], smoothing=0.0) == pytest.approx(
        math.log(4), abs=1e-9
    )


def test_caption_loss_hand_softmax() -> None:
    logits = np.array([[math.log(3.0), 0.0]])
    assert caption_loss(logits, [0], smoothing=0.0) == pytest.approx(-math.log(0.75), abs=1e-9)


def test_caption_loss_smoothed_mixture() -> None:
    logits = np.array([[math.log(3.0), 0.0]])
    expected = 0.9 * -math.log(0.75) + 0.1 * -math.log(0.25)
    assert caption_loss(logits, [0], smoothing=0.1) == pytest.approx(expected, abs=1e-9)


def test_caption_loss_zero_smoothing_equals_plain_cross_entropy(rng) -> None:
    logits = rng.normal(size=(6, 9))
    targets = rng.integers(0, 9, size=6)
    smoothed = caption_loss(logits, targets, smoothing=0.0)
    log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    plain = float(-log_p[np.arange(6), targets].mean())
    assert smoothed == pytest.approx(plain, abs=1e-12)


def test_caption_loss_target_out_of_range() -> None:
    with pytest.raises(ValidationError):
        caption_loss(np.zeros((1, 3)), [3])


def test_finite_diff_polynomial_exactness() -> None:
    err = finite_diff_check(
        lambda x: float((x**2).sum()), lambda x: 2 * x, np.array([1.0, 2.0])
    )
    assert err <= 1e-6


def test_assoc_gradient_matches_finite_differences(rng) -> None:
    for _ in range(10):
        a = rng.uniform(0.1, 0.9, size=(4, 4))
        a_gt = (rng.random((4, 4)) < 0.5).astype(float)
        err = finite_diff_check(
            lambda v: assoc_loss(v, a_gt), lambda v: assoc_loss_grad(v, a_gt), a
        )
        assert err <= 1e-4


def test_heatmap_gradient_matches_finite_differences(rng) -> None:
    for _ in range(10):
        y = rng.uniform(0.1, 0.9, size=(4, 4))
        y_gt = np.where(rng.random((4, 4)) < 0.3, 1.0, rng.uniform(0, 0.95, size=(4, 4)))
        err = finite_diff_check(
            lambda v: heatmap_loss(v, y_gt, n=2), lambda v: heatmap_loss_grad(v, y_gt, n=2), y
        )
        assert err <= 1e-4


def test_caption_gradient_matches_finite_differences(rng) -> None:
    for _ in range(10):
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        err = finite_diff_check(
            lambda v: caption_loss(v, targets, smoothing=0.1),
            lambda v: caption_loss_grad(v, targets, smoothing=0.1),
            logits,
        )
        assert err <= 1e-4


def test_roi_cls_gradient_matches_finite_differences(rng) -> None:
    for _ in range(10):
        logits = rng.normal(size=2)
        label = int(rng.integers(0, 2))
        err = finite_diff_check(
            lambda v: roi_cls_loss(v, label), lambda v: roi_cls_loss_grad(v, label), logits
        )
        assert err <= 1e-4


def test_numpy_softmax_bitwise_equals_scipy(rng) -> None:
    pairs = ((losses.softmax, scipy.special.softmax), (losses.log_softmax, scipy.special.log_softmax))
    inf = np.inf
    cases = [(rng.normal(scale=s, size=(int(rng.integers(1, 6)), int(rng.integers(1, 9)))), axis)
             for s in (0.1, 1.0, 30.0) for axis in (None, 1) for _ in range(10)]
    cases += [(np.array([1000.0, 1.0]), None), (np.array([[1.0, -inf, 2.0], [-inf, 0.5, -inf]]), 1)]
    for x, axis in cases:
        for ours, theirs in pairs:
            got, want = ours(x, axis=axis), theirs(x, axis=axis)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (ours, x, axis)
    all_inf = np.array([[0.0, 1.0], [-inf, -inf]])
    with np.errstate(invalid="ignore"):
        for ours, theirs in pairs:
            got, want = ours(all_inf, axis=1), theirs(all_inf, axis=1)
            assert np.isnan(got[1]).all() and np.array_equal(got, want, equal_nan=True)


def _assert_pair_rejects(loss, grad, cases) -> None:
    """The loss and its gradient each raise ValidationError on every (args, kwargs) case."""
    for args, kwargs in cases:
        for fn in (loss, grad):
            with pytest.raises(ValidationError):
                fn(*args, **kwargs)


def test_heatmap_gradient_rejects_what_its_loss_rejects() -> None:
    _assert_pair_rejects(heatmap_loss, heatmap_loss_grad, [
        ((np.ones((2, 2)), np.ones((2, 3)), 1), {}),
        ((np.full((2, 2), 0.5), np.ones((2, 1)), 1), {}),  # would broadcast
        ((np.full((2, 2), 0.5), np.ones((2, 2)), 0), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), math.nan), 1), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), -1.0), 1), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), math.inf), 1), {}),
        ((np.full((2, 2), math.nan), np.zeros((2, 2)), 1), {}),
        ((np.full((2, 2), math.inf), np.zeros((2, 2)), 1), {}),
        ((np.full((2, 2), -math.inf), np.zeros((2, 2)), 1), {}),
    ])


def test_assoc_gradient_rejects_what_its_loss_rejects() -> None:
    _assert_pair_rejects(assoc_loss, assoc_loss_grad, [
        ((np.full((2, 3), 0.5), np.ones((2, 3))), {}),
        ((np.full((2, 2), 0.5), np.ones((3, 3))), {}),
        ((np.full(4, 0.5), np.ones(4)), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), 7.0)), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), -1.0)), {}),
        ((np.full((2, 2), 0.5), np.full((2, 2), math.nan)), {}),
        ((np.full((2, 2), math.nan), np.zeros((2, 2))), {}),
        ((np.full((2, 2), math.inf), np.zeros((2, 2))), {}),
        ((np.full((2, 2), -math.inf), np.zeros((2, 2))), {}),
    ])


def test_caption_gradient_rejects_what_its_loss_rejects() -> None:
    _assert_pair_rejects(caption_loss, caption_loss_grad, [
        ((np.zeros((2, 4)), [0, -1]), {}),
        ((np.zeros((2, 4)), [0, 4]), {}),
        ((np.zeros((2, 4)), [0, 1]), {"smoothing": 1.5}),
        ((np.zeros((2, 4)), [0, 1]), {"smoothing": -0.1}),
        ((np.zeros((2, 1)), [0, 0]), {"smoothing": 0.1}),
        ((np.zeros((2, 4)), [0]), {}),
        ((np.zeros(4), [0]), {}),
        ((np.zeros((2, 3)), [[0], [1]]), {}),  # would broadcast to a (2, 2) index
        ((np.zeros((0, 3)), []), {}),
        ((np.full((2, 3), math.nan), [0, 1]), {}),
        ((np.full((2, 3), math.inf), [0, 1]), {}),
        ((np.full((2, 3), -math.inf), [0, 1]), {}),
    ])


def test_roi_cls_gradient_rejects_what_its_loss_rejects() -> None:
    _assert_pair_rejects(roi_cls_loss, roi_cls_loss_grad, [
        ((np.zeros(3), 0), {}),
        ((np.zeros(3), 2), {}),
        ((np.zeros(2), 2), {}),
        ((np.zeros(2), -1), {}),
        ((np.array([math.nan, 1.0]), 0), {}),
        ((np.array([math.inf, 1.0]), 0), {}),
        ((np.array([-math.inf, 1.0]), 0), {}),
    ])


def test_box_losses_equal_the_scalar_oracle_on_corner_rows() -> None:
    pairs = [
        ([(0, 0, 1, 1), (2, 2, 5, 5)], [(0, 0, 1, 1), (2, 2, 5, 5)]),
        ([(0, 0, 1, 1)], [(2, 0, 3, 1)]),
        ([(0, 0, 1, 1), (0, 0, 2, 2)], [(0, 0, 1, 1), (1, 0, 3, 2)]),
        ([(0, 0, 1, 1)], [(1, 1, 2, 2)]),
        ([(0, 0, 1, 1)], [(0, 0, 1, 3)]),
        ([(1, 1, 1, 1), (0.1, 0.2, 0.7, 0.3)], [(1, 1, 1, 1), (4, 0, 6, 2)]),  # zero-area and disjoint rows
    ]
    for pred, gt in pairs:
        boxes = [(Box(*a), Box(*b)) for a, b in zip(pred, gt)]
        assert giou_loss(pred, gt) == float(1.0 - np.mean([giou_oracle(a, b) for a, b in boxes]))
        expected = np.abs(np.array([a.as_tuple() for a, _ in boxes]) - np.array([b.as_tuple() for _, b in boxes]))
        assert roi_reg_loss(pred, gt) == float(expected.mean())


@pytest.mark.parametrize("loss", [giou_loss, roi_reg_loss])
def test_box_losses_check_corner_rows(loss) -> None:
    with pytest.raises(ValidationError, match="out of order"):
        loss([(1, 0, 0, 1)], [(0, 0, 1, 1)])
    with pytest.raises(ValidationError, match="finite"):
        loss([(0, 0, 1, 1)], [(0, 0, math.nan, 1)])


def test_roi_reg_loss_validates_lengths() -> None:
    with pytest.raises(ValidationError):
        roi_reg_loss([], [])
    with pytest.raises(ValidationError):
        roi_reg_loss([(0, 0, 1, 1)], [(0, 0, 1, 1), (0, 0, 2, 2)])


def _square_sum(x: np.ndarray) -> float:
    return float((x**2).sum())


def test_finite_diff_check_returns_nan_on_a_nan_gradient_or_loss() -> None:
    point = np.array([1.0, 2.0])
    assert math.isnan(finite_diff_check(_square_sum, lambda x: np.full_like(x, math.nan), point))
    assert math.isnan(finite_diff_check(_square_sum, lambda x: np.array([2 * x[0], math.nan]), point))
    assert math.isnan(finite_diff_check(lambda x: math.nan, lambda x: 2 * x, point))


def test_finite_diff_check_rejects_a_gradient_of_the_wrong_size() -> None:
    for size in (1, 3):
        with pytest.raises(ValidationError):
            finite_diff_check(_square_sum, lambda x: np.zeros(size), np.array([1.0, 2.0]))
