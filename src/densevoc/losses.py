"""Training loss terms as pure numerical functions, with gradient checking.

Sign conventions: the focal heatmap term and the gIoU regression term are
returned in minimizable form (non-negative, zero at the perfect prediction).
Probabilities passed to any log are clamped to [1e-6, 1 - 1e-6] so the
functions are total on finite inputs; a prediction, association score or
logit that is NaN or infinite is a ValidationError, in a loss and in its
gradient alike.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import ValidationError, _int_column, _real_column, check_corners

PROB_EPS = 1e-6


# CenterNet's focal weights (Zhou et al., "Objects as Points", 2019).
FOCAL_ALPHA = 2.0  # down-weights confident positives
FOCAL_BETA = 4.0  # down-weights negatives near soft ground-truth peaks
FD_STEP = 1e-5  # central-difference step of finite_diff_check


def softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """exp(x - max) over its sum: scipy.special.softmax's operations, in its order."""
    shifted = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return shifted / np.sum(shifted, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """scipy.special.log_softmax's operations, in its order: a non-finite max shifts by 0."""
    x_max = np.max(x, axis=axis, keepdims=True)
    tmp = x - np.where(np.isfinite(x_max), x_max, 0.0)
    with np.errstate(divide="ignore"):
        return tmp - np.log(np.sum(np.exp(tmp), axis=axis, keepdims=True))


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _finite(x: np.ndarray, name: str) -> np.ndarray:
    """``x``, checked to hold no NaN or infinity."""
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must be finite")
    return x


def _probabilities(target: np.ndarray, name: str) -> np.ndarray:
    """``target``, checked to hold probabilities: every value finite and in [0, 1]."""
    if not np.all((target >= 0.0) & (target <= 1.0)):  # False on NaN
        raise ValidationError(f"{name} must hold values in [0, 1]")
    return target


def _heatmaps(y: np.ndarray, y_gt: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The clamped predicted heatmap and the target, checked: one shape, a finite prediction, a [0, 1] target.

    The object count ``n`` must be one integer >= 1, by core's integer rule.
    """
    y, y_gt = _real_column(y, "heatmap prediction"), _real_column(y_gt, "heatmap target")
    if y.shape != y_gt.shape:
        raise ValidationError(f"heatmap shapes differ: {y.shape} vs {y_gt.shape}")
    n = _int_column(n, "object count")
    if n.ndim or n < 1:
        raise ValidationError(f"object count must be one integer >= 1, got {n}")
    return _clamp(_finite(y, "heatmap prediction")), _probabilities(y_gt, "heatmap target")


def heatmap_loss(y: np.ndarray, y_gt: np.ndarray, n: int) -> float:
    """Penalty-reduced focal loss between predicted and target heatmaps.

    Cells where the target is exactly 1 use the positive branch
    (1-Y)^alpha * log(Y); all other cells use (1-Ybar)^beta * Y^alpha *
    log(1-Y), with alpha = FOCAL_ALPHA and beta = FOCAL_BETA. The sum is
    negated and divided by the object count ``n``.
    """
    y, y_gt = _heatmaps(y, y_gt, n)
    pos = y_gt == 1.0
    pos_term = (1.0 - y) ** FOCAL_ALPHA * np.log(y)
    neg_term = (1.0 - y_gt) ** FOCAL_BETA * y**FOCAL_ALPHA * np.log(1.0 - y)
    return float(-np.where(pos, pos_term, neg_term).sum() / n)


def heatmap_loss_grad(y: np.ndarray, y_gt: np.ndarray, n: int) -> np.ndarray:
    """d(heatmap_loss)/dY, valid away from the clamping boundaries."""
    y, y_gt = _heatmaps(y, y_gt, n)
    a, b = FOCAL_ALPHA, FOCAL_BETA
    pos = y_gt == 1.0
    d_pos = a * (1.0 - y) ** (a - 1.0) * np.log(y) - (1.0 - y) ** a / y
    d_neg = -((1.0 - y_gt) ** b) * (
        a * y ** (a - 1.0) * np.log(1.0 - y) - y**a / (1.0 - y)
    )
    return np.where(pos, d_pos, d_neg) / n


def _paired(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """Paired ``(x1, y1, x2, y2)`` corner rows as two ``(n, 4)`` arrays, checked by ``check_corners``; n >= 1."""
    pred, gt = check_corners(pred), check_corners(gt)
    if len(pred) != len(gt) or not len(pred):
        raise ValidationError(f"box lists must be equal-length and non-empty, got {len(pred)} and {len(gt)}")
    return pred, gt


def giou(a, b) -> np.ndarray:
    """Generalized IoU of each pair of corner rows, in (-1, 1].

    The IoU (0 on a zero-area union) minus the slack of the enclosing hull (none on a zero-area hull).
    """
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = (rows.T for rows in _paired(a, b))
    inter = np.maximum(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0.0) * np.maximum(
        np.minimum(ay2, by2) - np.maximum(ay1, by1), 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hull = (np.maximum(ax2, bx2) - np.minimum(ax1, bx1)) * (np.maximum(ay2, by2) - np.minimum(ay1, by1))
    base = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    return base - np.divide(hull - union, hull, out=np.zeros_like(hull), where=hull > 0.0)


def giou_loss(pred, gt) -> float:
    """1 - mean generalized IoU over paired corner rows."""
    return float(1.0 - np.mean(giou(pred, gt)))


def _roi_logits(logits: np.ndarray, label: int) -> np.ndarray:
    """The foreground/background logit pair, checked to be finite and to come with the integer label 0 or 1."""
    logits = _real_column(logits, "logits")
    if logits.shape != (2,) or _int_column(label, "label").shape != () or label not in (0, 1):
        raise ValidationError("expected 2 logits and a binary label")
    return _finite(logits, "logits")


def roi_cls_loss(logits: np.ndarray, label: int) -> float:
    """Softmax cross-entropy of a foreground/background logit pair."""
    return float(-log_softmax(_roi_logits(logits, label))[label])


def roi_cls_loss_grad(logits: np.ndarray, label: int) -> np.ndarray:
    p = softmax(_roi_logits(logits, label))
    p[label] -= 1.0
    return p


def roi_reg_loss(pred, gt) -> float:
    """Mean absolute corner-coordinate difference over paired corner rows."""
    pred, gt = _paired(pred, gt)
    return float(np.abs(pred - gt).mean())


def _assoc_pair(a: np.ndarray, a_gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clamped predicted matrix and the target, checked: square, one shape, a finite prediction, a [0, 1] target."""
    a = _real_column(getattr(a, "values", a), "association scores")
    a_gt = _real_column(getattr(a_gt, "values", a_gt), "association target")
    if a.shape != a_gt.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrices must be square and equal-shape: {a.shape} vs {a_gt.shape}")
    return _clamp(_finite(a, "association scores")), _probabilities(a_gt, "association target")


def assoc_loss(a: np.ndarray, a_gt: np.ndarray) -> float:
    """Elementwise binary cross-entropy between association matrices.

    Normalized by the observation count M (one side of the matrix), not the
    element count M^2.
    """
    p, a_gt = _assoc_pair(a, a_gt)
    bce = -(a_gt * np.log(p) + (1.0 - a_gt) * np.log(1.0 - p))
    return float(bce.sum() / p.shape[0])


def assoc_loss_grad(a: np.ndarray, a_gt: np.ndarray) -> np.ndarray:
    """d(assoc_loss)/dA = (A - Abar) / (A (1 - A)) / M, away from clamping."""
    p, a_gt = _assoc_pair(a, a_gt)
    return (p - a_gt) / (p * (1.0 - p)) / p.shape[0]


def _caption_target(
    token_logits: np.ndarray, gt_tokens: Sequence[int], smoothing: float
) -> tuple[np.ndarray, np.ndarray]:
    """The finite (L, V) logits and their label-smoothed target distribution q, checked; L must be at least 1."""
    logits, targets = _real_column(token_logits, "token logits"), _int_column(gt_tokens, "target tokens")
    if targets.ndim != 1 or targets.size == 0:
        raise ValidationError(f"expected a non-empty vector of target tokens, got shape {targets.shape}")
    if logits.ndim != 2 or logits.shape[0] != len(targets):
        raise ValidationError(f"expected (L, V) logits for {len(targets)} targets")
    length, vocab = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValidationError("target token index out of vocabulary range")
    if not (0.0 <= smoothing < 1.0):
        raise ValidationError(f"smoothing must be in [0, 1), got {smoothing}")
    if smoothing > 0.0 and vocab < 2:
        raise ValidationError("smoothing requires a vocabulary of at least 2")
    q = np.full((length, vocab), smoothing / (vocab - 1) if vocab > 1 else 0.0)
    q[np.arange(length), targets] = 1.0 - smoothing
    return _finite(logits, "token logits"), q


def caption_loss(
    token_logits: np.ndarray, gt_tokens: Sequence[int], smoothing: float = 0.1
) -> float:
    """Label-smoothed cross-entropy over a caption's token positions.

    The target distribution puts 1 - smoothing on the true token and spreads
    smoothing uniformly over the V - 1 others; the per-position losses are
    averaged over the caption length.
    """
    logits, q = _caption_target(token_logits, gt_tokens, smoothing)
    return float(-(q * log_softmax(logits, axis=1)).sum() / len(q))


def caption_loss_grad(
    token_logits: np.ndarray, gt_tokens: Sequence[int], smoothing: float = 0.1
) -> np.ndarray:
    logits, q = _caption_target(token_logits, gt_tokens, smoothing)
    return (softmax(logits, axis=1) - q) / len(q)


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    grad_f: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
) -> float:
    """Max relative error between central differences (step FD_STEP) and an analytic gradient.

    Relative error per coordinate is |fd - analytic| / (|analytic| + 1e-8).
    A NaN in the loss or the gradient makes the result NaN; a gradient whose
    size differs from the point's is a ValidationError.
    """
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(grad_f(point), dtype=float).reshape(-1)
    if analytic.size != point.size:
        raise ValidationError(f"gradient has {analytic.size} entries for a point of {point.size}")
    flat = point.reshape(-1)
    fd = np.empty(flat.size)
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = FD_STEP
        fd[i] = (f((flat + step).reshape(point.shape)) - f((flat - step).reshape(point.shape))) / (
            2.0 * FD_STEP
        )
    # np.max, unlike the builtin max, propagates NaN.
    return float(np.max(np.abs(fd - analytic) / (np.abs(analytic) + 1e-8), initial=0.0))
