"""Association-matrix operations and trajectory formation.

The association matrix is a square real matrix over every per-frame object
observation in a video; entry (i, j) scores whether observations i and j
belong to the same trajectory. Identity assignment greedily extracts the
longest remaining track until the binarized matrix is empty.

Ground-truth association and the IoU tracker baseline take predictions as
columns: one observation per row, a frame column and ``(n, 4)`` corners, in
the non-decreasing frame order of ``AssocMatrix.frame_of``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lsap import linear_sum_assignment
from .core import ValidationError, VideoTable, _int_column, _real_column, check_corners, iou_matrix

# The binarization threshold of greedy identity assignment.
THETA = 0.5


@dataclass(frozen=True)
class AssocMatrix:
    """Pairwise association scores plus the frame index of each observation."""

    values: np.ndarray  # (M, M) float, entries in [0, 1]
    frame_of: np.ndarray  # (M,) int

    def __post_init__(self) -> None:
        values, frame_of = _real_column(self.values, "association scores"), _int_column(self.frame_of, "frame_of")
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"association matrix must be square, got {values.shape}")
        if frame_of.ndim != 1 or len(frame_of) != values.shape[0]:
            raise ValidationError(
                f"frame_of length {frame_of.shape} does not match matrix {values.shape}"
            )
        if not ((values >= -1e-9) & (values <= 1 + 1e-9)).all():  # NaN fails too
            raise ValidationError("association scores must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "frame_of", frame_of)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class IdentityAssignment:
    """Trajectory identity (>= 1) per observation, in observation order."""

    ids: np.ndarray  # (M,) int

    def __post_init__(self) -> None:
        ids = _int_column(self.ids, "ids")
        if ids.ndim != 1:
            raise ValidationError("ids must be a flat vector")
        if ids.size and ids.min() < 1:
            raise ValidationError("every observation must receive an id >= 1")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)


def preprocess(a: AssocMatrix) -> AssocMatrix:
    """Symmetrize by elementwise max, zero same-frame pairs, force diagonal 1."""
    values = np.maximum(a.values, a.values.T)
    same_frame = a.frame_of[:, None] == a.frame_of[None, :]
    values = np.where(same_frame, 0.0, values)
    np.fill_diagonal(values, 1.0)
    return AssocMatrix(values=values, frame_of=a.frame_of)


def validate_theta(theta: float) -> float:
    """``theta``, checked to lie in (0, 1): the rule of ``assign_identities``."""
    if not (0.0 < theta < 1.0):
        raise ValidationError(f"theta must be in (0, 1), got {theta}")
    return theta


def assign_identities(a: AssocMatrix, theta: float = THETA) -> IdentityAssignment:
    """Greedy identity assignment from an association matrix.

    Binarizes at ``theta``, then repeatedly merges the row with the most
    candidate members (ties: lowest row index). A merge keeps at most one
    observation per frame, preferring the highest real-valued score (ties:
    lowest observation index); merged rows and columns are removed. The unit
    diagonal guarantees every observation eventually self-assigns.
    """
    validate_theta(theta)
    a = preprocess(a)
    scores = a.values
    frame_of = a.frame_of
    m = a.size
    active = scores >= theta
    ids = np.zeros(m, dtype=int)
    id_count = 0
    while active.any():
        track_len = active.sum(axis=1)
        i = int(np.argmax(track_len))
        members = np.flatnonzero(active[i])
        kept: dict[int, int] = {}  # frame -> observation index
        for j in members:
            frame = int(frame_of[j])
            best = kept.get(frame)
            if best is None or scores[i, j] > scores[i, best]:
                kept[frame] = int(j)
        merged = np.fromiter(kept.values(), dtype=int)
        id_count += 1
        ids[merged] = id_count
        active[merged, :] = False
        active[:, merged] = False
    return IdentityAssignment(ids=ids)


def match_boxes(left: np.ndarray, right: np.ndarray, min_iou: float) -> list[tuple[int, int, float]]:
    """Optimal bipartite IoU matching of two (n, 4) corner arrays; pairs below ``min_iou`` are forbidden.

    Returns (left_index, right_index, iou) triples. The assignment maximizes
    total IoU over admissible pairs.
    """
    if not len(left) or not len(right):
        return []
    sim = iou_matrix(left, right)
    eligible = sim >= min_iou
    score = np.where(eligible, sim, 0.0)
    rows, cols = linear_sum_assignment(-score)
    return [
        (int(r), int(c), float(sim[r, c]))
        for r, c in zip(rows, cols)
        if eligible[r, c]
    ]


def _frame_runs(frame_of, corners) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """The checked ``frame_of`` and ``(n, 4)`` corner columns, and (frame, first row, end row) per frame holding rows.

    Rows are observations in non-decreasing frame order, as in ``AssocMatrix.frame_of``.
    """
    frame_of = _int_column(frame_of, "frame_of").reshape(-1)
    corners = check_corners(corners)
    if len(corners) != len(frame_of) or (np.diff(frame_of) < 0).any():
        raise ValidationError(f"frame_of must be non-decreasing with one box per entry, got {len(frame_of)} "
                              f"frames for {len(corners)} boxes")
    frames, starts = np.unique(frame_of, return_index=True)
    return frame_of, corners, list(zip(frames.tolist(), starts.tolist(), starts[1:].tolist() + [len(frame_of)]))


def build_gt_association(frame_of, corners, gt: VideoTable, iou_thresh: float = 0.5) -> AssocMatrix:
    """Binary ground-truth association matrix for predicted boxes, as columns below ``gt.num_frames``.

    Each frame's predictions are matched to the ground-truth boxes of that
    frame by optimal bipartite IoU matching (pairs under ``iou_thresh``
    forbidden); two observations associate iff they matched the same
    ground-truth trajectory. Unmatched observations associate only with
    themselves.
    """
    if not isinstance(gt, VideoTable):
        raise ValidationError(f"gt must be a VideoTable, got {type(gt).__name__}; use VideoTable.from_record")
    frame_of, corners, runs = _frame_runs(frame_of, corners)
    if runs and not 0 <= runs[0][0] <= runs[-1][0] < gt.num_frames:
        raise ValidationError(f"prediction frames must lie in [0, {gt.num_frames}), got {runs[0][0]}..{runs[-1][0]}")
    rows, track = gt.frame_order()
    gt_frames, gt_corners, gt_ids = gt.frames[rows], gt.corners[rows], gt.track_ids[track]
    matched = np.full(len(frame_of), -1, dtype=np.int64)
    for frame, lo, hi in runs:
        g_lo, g_hi = np.searchsorted(gt_frames, [frame, frame + 1]).tolist()
        for r, c, _ in match_boxes(corners[lo:hi], gt_corners[g_lo:g_hi], iou_thresh):
            matched[lo + r] = gt_ids[g_lo + c]
    values = ((matched[:, None] == matched[None, :]) & (matched[:, None] >= 0)).astype(float)
    np.fill_diagonal(values, 1.0)
    return AssocMatrix(values=values, frame_of=frame_of)


def iou_tracker(frame_of, corners, match_thresh: float) -> IdentityAssignment:
    """Online greedy IoU linker, the floor baseline for comparisons; one id per detection row.

    Each frame's detections are matched to the previous frame's active tracks
    by optimal bipartite IoU matching; unmatched detections open new ids in
    row order and unmatched tracks terminate. No re-identification. A frame
    without rows ends every track, and frames without rows cost nothing.
    """
    frame_of, corners, runs = _frame_runs(frame_of, corners)
    ids = np.zeros(len(frame_of), dtype=np.int64)
    next_id = 1
    for (previous, p_lo, _), (frame, lo, hi) in zip([(None, 0, 0)] + runs, runs):
        if previous == frame - 1:
            for r, c, _ in match_boxes(corners[p_lo:lo], corners[lo:hi], match_thresh):
                ids[lo + c] = ids[p_lo + r]
        fresh = lo + np.flatnonzero(ids[lo:hi] == 0)
        ids[fresh] = np.arange(next_id, next_id + len(fresh))
        next_id += len(fresh)
    return IdentityAssignment(ids=ids)
