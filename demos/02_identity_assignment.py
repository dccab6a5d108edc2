"""Forming trajectories from an association matrix, and the IoU baseline.

The association matrix scores every pair of per-frame observations; the
greedy assignment repeatedly peels off the longest remaining track.
"""

import numpy as np

from densevoc import (
    AssocMatrix,
    VideoTable,
    assign_identities,
    build_gt_association,
    iou_tracker,
    preprocess,
)

# Four observations: two per frame across two frames. Observation 0 and 2
# look alike (score 0.9), observation 1 and 3 look alike (score 0.8).
values = np.full((4, 4), 0.1)
np.fill_diagonal(values, 1.0)
values[0, 2] = values[2, 0] = 0.9
values[1, 3] = values[3, 1] = 0.8
matrix = AssocMatrix(values=values, frame_of=np.array([0, 0, 1, 1]))

# Preprocessing symmetrizes, zeroes same-frame pairs, and pins the diagonal.
print("preprocessed:\n", preprocess(matrix).values)

# At threshold 0.5 both cross-frame links survive: two tracks of length 2.
print("ids at theta=0.50:", assign_identities(matrix, theta=0.5).ids)

# At 0.95 only the diagonal survives: every observation becomes a singleton.
print("ids at theta=0.95:", assign_identities(matrix, theta=0.95).ids)

# Ground-truth association matrices come from per-frame IoU matching against
# annotated trajectories: 1 where two observations hit the same track. The
# ground truth is a table: one row per box, with its track id and frame.
gt = VideoTable.from_rows(
    "demo", 2, track_ids=[1, 1], frames=[0, 1], corners=[[0, 0, 10, 10], [2, 0, 12, 10]], scores=[1.0, 1.0]
)
# Predictions are columns: a frame per row and its (x1, y1, x2, y2) corners,
# rows in non-decreasing frame order.
pred_frames = np.array([0, 1])
pred_corners = np.array([[0, 0, 10, 10], [2, 0, 12, 10]], dtype=float)
print("gt association:\n", build_gt_association(pred_frames, pred_corners, gt).values)

# The online IoU tracker is the floor baseline: link frame to frame, no
# re-identification. A static box keeps its id; a teleporting one does not,
# and a frame without boxes ends every track.
frames = np.arange(4)
static = np.tile([0.0, 0.0, 10.0, 10.0], (4, 1))
jumpy = np.array([[100.0 * f, 0, 100.0 * f + 10, 10] for f in range(4)])
print("static ids:", iou_tracker(frames, static, match_thresh=0.5).ids)
print("jumpy ids: ", iou_tracker(frames, jumpy, match_thresh=0.5).ids)
print("gap ids:   ", iou_tracker([0, 1, 3], static[:3], match_thresh=0.5).ids)
