"""Box geometry basics: IoU, generalized IoU, and the degenerate conventions.

Boxes are (x1, y1, x2, y2) corner rows, and the geometry functions take
(n, 4) arrays of them.
"""

import numpy as np

from densevoc import giou
from densevoc.core import iou_matrix

a = np.array([[0.0, 0.0, 2.0, 2.0]])
b = np.array([[1.0, 0.0, 3.0, 2.0]])

# Plain intersection-over-union: overlap area 2, union 6. iou_matrix scores
# every pair of rows at once.
print("iou_matrix(a, b) =", iou_matrix(a, b))

# Generalized IoU subtracts the slack of the enclosing hull. Here the hull
# equals the union, so there is no penalty and giou == iou. giou pairs the
# rows: row i of the first array with row i of the second.
print("giou(a, b)     =", giou(a, b))

# Disjoint boxes have IoU 0 but giou goes negative: the further apart, the
# larger the hull penalty, approaching -1 in the limit.
unit = [(0, 0, 1, 1)] * 2
print("giou separated, far apart =", giou(unit, [(2, 0, 3, 1), (99, 0, 100, 1)]))

# Zero-area boxes are legal inputs and score 0 against everything,
# themselves included, so degraded data never crashes an evaluation.
corners = np.array([(5, 5, 5, 5), (0, 0, 10, 10)], dtype=float)
print("iou_matrix(point, [point, big]) =", iou_matrix(corners[:1], corners))

# (x, y, w, h) data converts to corners at the boundary, as convert-flat does.
xywh = np.array([[10.0, 20.0, 30.0, 40.0]])
print("xywh -> corners:", np.hstack([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]]))
