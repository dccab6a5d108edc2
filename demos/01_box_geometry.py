"""Box geometry basics: IoU, generalized IoU, and the degenerate conventions."""

import numpy as np

from densevoc import Box, giou
from densevoc.core import iou_matrix

a = Box(0, 0, 2, 2)
b = Box(1, 0, 3, 2)

# Plain intersection-over-union: overlap area 2, union 6. iou_matrix takes
# (n, 4) corner arrays and scores every pair of rows at once.
print("iou_matrix(a, b) =", iou_matrix(np.array([a.as_tuple()]), np.array([b.as_tuple()])))

# Generalized IoU subtracts the slack of the enclosing hull. Here the hull
# equals the union, so there is no penalty and giou == iou.
print("giou(a, b)     =", giou(a, b))

# Disjoint boxes have IoU 0 but giou goes negative: the further apart, the
# larger the hull penalty, approaching -1 in the limit.
c = Box(2, 0, 3, 1)
print("giou separated =", giou(Box(0, 0, 1, 1), c))
print("giou far apart =", giou(Box(0, 0, 1, 1), Box(99, 0, 100, 1)))

# Zero-area boxes are legal inputs and score 0 against everything,
# themselves included, so degraded data never crashes an evaluation.
point = Box(5, 5, 5, 5)
corners = np.array([point.as_tuple(), (0, 0, 10, 10)], dtype=float)
print("iou_matrix(point, [point, big]) =", iou_matrix(corners[:1], corners))

# Boxes are corner pairs; (x, y, w, h) data converts at the boundary.
print("from_xywh:", Box.from_xywh(10, 20, 30, 40))
