"""The training loss terms, with gradients verified by central differences."""

import numpy as np

from densevoc import assoc_loss, caption_loss, finite_diff_check, giou_loss, heatmap_loss
from densevoc.losses import assoc_loss_grad, heatmap_loss_grad, roi_cls_loss, roi_reg_loss

# Focal heatmap loss: peak cells (target exactly 1) use the positive branch,
# everything else is down-weighted by distance from the peak.
y = np.array([[0.9, 0.2], [0.1, 0.05]])
y_gt = np.array([[1.0, 0.3], [0.0, 0.0]])
print("heatmap loss:", heatmap_loss(y, y_gt, n=1))

# Box regression in gIoU form: 0 for a perfect match, up to 2 for a miss.
# Box losses take paired (x1, y1, x2, y2) corner rows.
print("giou loss:   ", giou_loss([(0, 0, 2, 2)], [(1, 0, 3, 2)]))
print("roi-cls loss:", roi_cls_loss(np.array([2.0, -1.0]), 0))
print("roi-reg loss:", roi_reg_loss([(0, 0, 1, 1)], [(0, 0, 1, 3)]))

# Association BCE, normalized by the observation count M (not M^2).
a = np.array([[0.9, 0.2], [0.2, 0.8]])
a_gt = np.eye(2)
print("assoc loss:  ", assoc_loss(a, a_gt))

# Caption cross-entropy with label smoothing 0.1 over the vocabulary.
logits = np.array([[2.0, 0.0, -1.0], [0.0, 1.5, 0.0]])
print("caption loss:", caption_loss(logits, [0, 1], smoothing=0.1))

# Every analytic gradient is checked against central finite differences;
# the reported number is the worst per-coordinate relative error.
err = finite_diff_check(lambda v: assoc_loss(v, a_gt), lambda v: assoc_loss_grad(v, a_gt), a)
print(f"assoc grad max rel err:   {err:.2e}")
rng = np.random.default_rng(0)
y = rng.uniform(0.2, 0.8, size=(3, 3))
y_gt = np.where(rng.random((3, 3)) < 0.4, 1.0, rng.uniform(0, 0.9, size=(3, 3)))
err = finite_diff_check(
    lambda v: heatmap_loss(v, y_gt, n=2), lambda v: heatmap_loss_grad(v, y_gt, n=2), y
)
print(f"heatmap grad max rel err: {err:.2e}")
print("(run `densevoc verify-losses` for the full table)")
