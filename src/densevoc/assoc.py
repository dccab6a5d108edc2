"""Association-matrix operations and trajectory formation.

The association matrix is a square real matrix over every per-frame object
observation in a video; entry (i, j) scores whether observations i and j
belong to the same trajectory. Identity assignment greedily extracts the
longest remaining track until the binarized matrix is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Box, Detection, ValidationError, VideoRecord, VideoTable, as_tables, corner_array, iou_matrix


@dataclass(frozen=True)
class AssocMatrix:
    """Pairwise association scores plus the frame index of each observation."""

    values: np.ndarray  # (M, M) float, entries in [0, 1]
    frame_of: np.ndarray  # (M,) int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        frame_of = np.asarray(self.frame_of, dtype=int)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"association matrix must be square, got {values.shape}")
        if frame_of.ndim != 1 or len(frame_of) != values.shape[0]:
            raise ValidationError(
                f"frame_of length {frame_of.shape} does not match matrix {values.shape}"
            )
        if values.size and (values.min() < -1e-9 or values.max() > 1 + 1e-9):
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
        ids = np.asarray(self.ids, dtype=int)
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


def assign_identities(a: AssocMatrix, theta: float = 0.5) -> IdentityAssignment:
    """Greedy identity assignment from an association matrix.

    Binarizes at ``theta``, then repeatedly merges the row with the most
    candidate members (ties: lowest row index). A merge keeps at most one
    observation per frame, preferring the highest real-valued score (ties:
    lowest observation index); merged rows and columns are removed. The unit
    diagonal guarantees every observation eventually self-assigns.
    """
    if not (0.0 < theta < 1.0):
        raise ValidationError(f"theta must be in (0, 1), got {theta}")
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


def match_boxes(
    left: list[Box], right: list[Box], min_iou: float
) -> list[tuple[int, int, float]]:
    """Optimal bipartite IoU matching; pairs below ``min_iou`` are forbidden.

    Returns (left_index, right_index, iou) triples. The assignment maximizes
    total IoU over admissible pairs.
    """
    if not left or not right:
        return []
    sim = iou_matrix(corner_array(left), corner_array(right))
    eligible = sim >= min_iou
    score = np.where(eligible, sim, 0.0)
    rows, cols = linear_sum_assignment(-score)
    return [
        (int(r), int(c), float(sim[r, c]))
        for r, c in zip(rows, cols)
        if eligible[r, c]
    ]


def build_gt_association(
    pred_frames: list[list[Box]], gt: VideoTable | VideoRecord, iou_thresh: float = 0.5
) -> AssocMatrix:
    """Binary ground-truth association matrix for predicted boxes.

    ``gt`` is a table or a record. Each frame's predictions are matched to
    the ground-truth boxes of that frame by optimal bipartite IoU matching
    (pairs under ``iou_thresh`` forbidden); two observations associate iff
    they matched the same ground-truth trajectory. Unmatched observations
    associate only with themselves.
    """
    (gt,) = as_tables([gt])
    if len(pred_frames) > gt.num_frames:
        raise ValidationError(
            f"{len(pred_frames)} prediction frames exceed num_frames {gt.num_frames}"
        )
    rows, track = gt.frame_order()
    bounds = np.searchsorted(gt.frames[rows], np.arange(len(pred_frames) + 1)).tolist()
    gt_boxes = [Box(*c) for c in gt.corners[rows].tolist()]
    gt_ids = gt.track_ids[track].tolist()

    frame_of: list[int] = []
    matched_track: list[int | None] = []
    for frame, boxes in enumerate(pred_frames):
        lo, hi = bounds[frame], bounds[frame + 1]
        assignment = {r: gt_ids[lo + c] for r, c, _ in match_boxes(boxes, gt_boxes[lo:hi], iou_thresh)}
        for k in range(len(boxes)):
            frame_of.append(frame)
            matched_track.append(assignment.get(k))

    m = len(frame_of)
    values = np.zeros((m, m))
    track_arr = np.array([-1 if t is None else t for t in matched_track])
    same = (track_arr[:, None] == track_arr[None, :]) & (track_arr[:, None] >= 0)
    values[same] = 1.0
    np.fill_diagonal(values, 1.0)
    return AssocMatrix(values=values, frame_of=np.array(frame_of, dtype=int))


def iou_tracker(frames: list[list[Detection]], match_thresh: float) -> IdentityAssignment:
    """Online greedy IoU linker, the floor baseline for comparisons.

    Each frame's detections are matched to the previous frame's active tracks
    by optimal bipartite IoU matching; unmatched detections open new ids and
    unmatched tracks terminate. No re-identification. An empty frame list
    ends every track, so consecutive empty lists act as one.
    """
    ids: list[int] = []
    next_id = 1
    prev_boxes: list[Box] = []
    prev_ids: list[int] = []
    for dets in frames:
        boxes = [d.box for d in dets]
        assigned = [0] * len(dets)
        matches = match_boxes(prev_boxes, boxes, match_thresh)
        taken = set()
        for r, c, _ in matches:
            assigned[c] = prev_ids[r]
            taken.add(c)
        for k in range(len(dets)):
            if k not in taken:
                assigned[k] = next_id
                next_id += 1
        ids.extend(assigned)
        prev_boxes = boxes
        prev_ids = assigned
    return IdentityAssignment(ids=np.array(ids, dtype=int))
