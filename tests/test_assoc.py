from __future__ import annotations

import importlib.util

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from densevoc import _lsap
from densevoc.assoc import (
    AssocMatrix,
    IdentityAssignment,
    assign_identities,
    build_gt_association,
    iou_tracker,
    match_boxes,
    preprocess,
)
from densevoc.core import Box, Detection, ValidationError, VideoTable

from conftest import make_track, make_video
from oracles import build_gt_association_oracle, greedy_assignment_oracle, iou, iou_tracker_oracle


def test_preprocess_forces_diagonal() -> None:
    m = preprocess(AssocMatrix(values=np.array([[0.2]]), frame_of=np.array([0])))
    assert m.values == pytest.approx(np.array([[1.0]]))


def test_preprocess_zeroes_same_frame_pairs() -> None:
    m = preprocess(
        AssocMatrix(values=np.array([[1.0, 0.9], [0.9, 1.0]]), frame_of=np.array([0, 0]))
    )
    assert m.values == pytest.approx(np.eye(2))


def test_preprocess_symmetrizes_by_max() -> None:
    m = preprocess(
        AssocMatrix(values=np.array([[1.0, 0.4], [0.8, 1.0]]), frame_of=np.array([0, 1]))
    )
    assert m.values == pytest.approx(np.array([[1.0, 0.8], [0.8, 1.0]]))


def test_preprocess_idempotent(rng) -> None:
    for _ in range(50):
        m = int(rng.integers(1, 8))
        a = AssocMatrix(
            values=rng.uniform(0, 1, size=(m, m)),
            frame_of=rng.integers(0, 4, size=m),
        )
        once = preprocess(a)
        twice = preprocess(once)
        assert twice.values == pytest.approx(once.values, abs=0)


def test_mismatched_frame_vector_rejected() -> None:
    with pytest.raises(ValidationError):
        AssocMatrix(values=np.eye(3), frame_of=np.array([0, 1]))


def test_non_square_matrix_and_bad_ids_rejected() -> None:
    with pytest.raises(ValidationError, match="square"):
        AssocMatrix(values=np.ones((2, 3)), frame_of=np.array([0, 1]))
    with pytest.raises(ValidationError, match="flat"):
        IdentityAssignment(ids=np.array([[1, 2]]))
    with pytest.raises(ValidationError, match=">= 1"):
        IdentityAssignment(ids=np.array([1, 0]))


def _four_obs_matrix() -> AssocMatrix:
    values = np.full((4, 4), 0.1)
    np.fill_diagonal(values, 1.0)
    values[0, 2] = values[2, 0] = 0.9
    values[1, 3] = values[3, 1] = 0.8
    return AssocMatrix(values=values, frame_of=np.array([0, 0, 1, 1]))


def test_assign_singleton() -> None:
    m = AssocMatrix(values=np.array([[0.3]]), frame_of=np.array([0]))
    assert assign_identities(m).ids.tolist() == [1]


def test_assign_two_tracks_hand_trace() -> None:
    assert assign_identities(_four_obs_matrix(), theta=0.5).ids.tolist() == [1, 2, 1, 2]


def test_assign_high_threshold_all_singletons() -> None:
    assert assign_identities(_four_obs_matrix(), theta=0.95).ids.tolist() == [1, 2, 3, 4]


def test_assign_theta_out_of_range() -> None:
    m = _four_obs_matrix()
    for theta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            assign_identities(m, theta=theta)


def _random_assoc(rng, max_m=8) -> AssocMatrix:
    m = int(rng.integers(1, max_m + 1))
    return AssocMatrix(
        values=rng.uniform(0, 1, size=(m, m)),
        frame_of=rng.integers(0, max(1, m // 2) + 1, size=m),
    )


def test_assign_matches_straightline_oracle(rng) -> None:
    for _ in range(150):
        a = _random_assoc(rng)
        theta = float(rng.uniform(0.05, 0.95))
        expected = greedy_assignment_oracle(a.values.tolist(), a.frame_of.tolist(), theta)
        assert assign_identities(a, theta).ids.tolist() == expected


def test_assign_never_reuses_id_within_frame(rng) -> None:
    for _ in range(1000):
        a = _random_assoc(rng)
        ids = assign_identities(a, theta=float(rng.uniform(0.1, 0.9))).ids
        seen = set()
        for frame, track in zip(a.frame_of, ids):
            assert (frame, track) not in seen
            seen.add((int(frame), int(track)))


def test_assign_recovers_block_diagonal_components(rng) -> None:
    for _ in range(25):
        n_blocks = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        m = sum(sizes)
        values = np.full((m, m), 0.1)
        frame_of = np.zeros(m, dtype=int)
        labels = np.zeros(m, dtype=int)
        start = 0
        for b, size in enumerate(sizes):
            block = slice(start, start + size)
            values[block, block] = 0.9
            frame_of[block] = np.arange(size)  # one observation per frame per block
            labels[block] = b
            start += size
        a = AssocMatrix(values=values, frame_of=frame_of)
        ids = assign_identities(a, theta=0.5).ids
        for i in range(m):
            for j in range(m):
                assert (ids[i] == ids[j]) == (labels[i] == labels[j])


def _columns(frames: list[list[Box]]) -> tuple[list[int], np.ndarray]:
    """frame_of and (n, 4) corners of one list of boxes per frame."""
    frame_of = [f for f, boxes in enumerate(frames) for _ in boxes]
    return frame_of, np.array([b.as_tuple() for boxes in frames for b in boxes], dtype=float).reshape(-1, 4)


def test_gt_association_perfect_trajectory_all_ones() -> None:
    gt = make_video(
        "v", [make_track(1, [(0, 0, 0, 10, 10), (1, 1, 0, 11, 10), (2, 2, 0, 12, 10)])], 3
    )
    m = build_gt_association([0, 1, 2], [[0, 0, 10, 10], [1, 0, 11, 10], [2, 0, 12, 10]], gt)
    assert m.values == pytest.approx(np.ones((3, 3)))


def test_gt_association_background_only_identity() -> None:
    gt = make_video("v", [make_track(1, [(0, 0, 0, 10, 10)])], 1)
    m = build_gt_association([0, 0], [[50, 50, 60, 60], [80, 80, 90, 90]], gt)
    assert m.values == pytest.approx(np.eye(2))


def test_gt_association_shuffled_predictions_block_structure() -> None:
    track_a = make_track(1, [(0, 0, 0, 10, 10), (1, 0, 0, 10, 10)])
    track_b = make_track(2, [(0, 40, 40, 50, 50), (1, 40, 40, 50, 50)])
    gt = make_video("v", [track_a, track_b], 2)
    # Frame 0 lists track A first; frame 1 lists track B first.
    frame_of = [0, 0, 1, 1]
    corners = [[0, 0, 10, 10], [40, 40, 50, 50], [40, 40, 50, 50], [0, 0, 10, 10]]
    m = build_gt_association(frame_of, corners, gt)
    expected = np.eye(4)
    expected[0, 3] = expected[3, 0] = 1.0  # observations 0 and 3 are track A
    expected[1, 2] = expected[2, 1] = 1.0  # observations 1 and 2 are track B
    assert m.values == pytest.approx(expected)
    from_table = build_gt_association(frame_of, corners, VideoTable.from_record(gt))
    assert np.array_equal(from_table.values, m.values) and np.array_equal(from_table.frame_of, m.frame_of)


def test_gt_association_is_equivalence_like(rng) -> None:
    gt_tracks = []
    for k in range(3):
        x = 30.0 * k
        gt_tracks.append(make_track(k + 1, [(f, x, 0, x + 10, 10) for f in range(3)]))
    gt = make_video("v", gt_tracks, 3)
    pred = []
    for f in range(3):
        boxes = [Box(30.0 * k + rng.uniform(-1, 1), 0, 30.0 * k + 10, 10) for k in range(3)]
        boxes.append(Box(200, 200, 210, 210))  # never matches
        pred.append(boxes)
    m = build_gt_association(*_columns(pred), gt)
    v = m.values
    assert np.array_equal(v, v.T)
    assert set(np.unique(v)) <= {0.0, 1.0}
    assert np.all(np.diag(v) == 1.0)
    n = m.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if v[i, j] and v[j, k]:
                    assert v[i, k]


def _square(x, y=0.0, size=10.0) -> list[float]:
    return [x, y, x + size, y + size]


def test_iou_tracker_static_box_single_id() -> None:
    assert iou_tracker(range(5), [_square(0.0)] * 5, match_thresh=0.5).ids.tolist() == [1, 1, 1, 1, 1]


def test_iou_tracker_teleporting_box_new_ids() -> None:
    corners = [_square(100.0 * f) for f in range(5)]
    assert iou_tracker(range(5), corners, match_thresh=0.5).ids.tolist() == [1, 2, 3, 4, 5]


def test_iou_tracker_crossing_boxes_follow_best_overlap() -> None:
    # Two boxes moving toward each other at 2px/frame, 10px wide: the best
    # continuation is always the box's own previous position.
    frame_of, corners = [], []
    for f in range(6):
        frame_of += [f, f]
        corners += [_square(0.0 + 2.0 * f), _square(20.0 - 2.0 * f)]
    ids = iou_tracker(frame_of, corners, match_thresh=0.1).ids
    assert ids.tolist() == [1, 2] * 6


def test_iou_tracker_track_termination_no_reid() -> None:
    # Frame 1 holds no box, which ends the track.
    assert iou_tracker([0, 2], [_square(0.0)] * 2, match_thresh=0.5).ids.tolist() == [1, 2]


def _random_frames(rng, num_frames: int, grid: bool, empty_first: bool) -> list[list[Box]]:
    """Boxes per frame: some frames empty (frame 0 when ``empty_first``), some with one box."""
    frames = []
    for f in range(num_frames):
        n = 0 if f == 0 and empty_first else int(rng.choice([0, 1, 1, 2, 3, 4]))
        boxes = []
        for _ in range(n):
            if grid:  # integer grid: many tied IoUs
                x, y = (float(v) for v in rng.integers(0, 4, size=2) * 5)
                w, h = (float(v) for v in rng.integers(1, 3, size=2) * 10)
            else:
                x, y = (float(v) for v in rng.uniform(0, 40, size=2))
                w, h = (float(v) for v in rng.uniform(5, 25, size=2))
            boxes.append(Box(x, y, x + w, y + h))
        frames.append(boxes)
    return frames


def test_column_tracker_and_gt_association_equal_list_oracles(rng) -> None:
    seen = {"gap": 0, "empty first frame": 0, "one-box frame": 0, "empty video": 0}
    for trial in range(300):
        num_frames = int(rng.integers(1, 9))
        grid, empty_first = trial % 2 == 1, trial % 3 == 0
        pred = _random_frames(rng, num_frames, grid, empty_first)
        if trial % 25 == 0:
            pred = [[] for _ in pred]
        frame_of, corners = _columns(pred)
        seen["gap"] += any(not boxes for boxes in pred[1:])
        seen["empty first frame"] += not pred[0]
        seen["one-box frame"] += any(len(boxes) == 1 for boxes in pred)
        seen["empty video"] += not frame_of
        for thresh in (0.0, 0.3, 0.5):
            detections = [[Detection(f, b) for b in boxes] for f, boxes in enumerate(pred)]
            expected = iou_tracker_oracle(detections, thresh)
            assert iou_tracker(frame_of, corners, thresh).ids.tolist() == expected.ids.tolist(), (trial, thresh)

        gt_frames = _random_frames(rng, num_frames, grid, empty_first=False)
        tracks = [
            make_track(k + 1, [(f, *boxes[k].as_tuple()) for f, boxes in enumerate(gt_frames) if len(boxes) > k])
            for k in range(4)
        ]
        gt = make_video("v", [t for t in tracks if len(t)], num_frames)
        for thresh in (0.3, 0.5):
            values, expected_frames = build_gt_association_oracle(pred, gt, thresh)
            for gt_view in (gt, VideoTable.from_record(gt)):
                m = build_gt_association(frame_of, corners, gt_view, thresh)
                assert np.array_equal(m.values, values) and m.frame_of.tolist() == expected_frames, (trial, thresh)
    assert all(seen.values()), seen


def test_malformed_columns_rejected() -> None:
    gt = make_video("v", [make_track(1, [(0, 0, 0, 10, 10), (1, 0, 0, 10, 10)])], 2)
    boxes = [_square(0.0)] * 2
    with pytest.raises(ValidationError, match="non-decreasing"):
        iou_tracker([1, 0], boxes, match_thresh=0.5)
    with pytest.raises(ValidationError, match="non-decreasing"):
        build_gt_association([1, 0], boxes, gt)
    with pytest.raises(ValidationError, match="one box per entry"):
        iou_tracker([0, 1, 2], boxes, match_thresh=0.5)
    with pytest.raises(ValidationError, match="integers"):
        iou_tracker([0.5, 1.0], boxes, match_thresh=0.5)
    for bad in ([0, 0, np.nan, 10], [10, 0, 0, 10]):
        with pytest.raises(ValidationError, match="corners"):
            iou_tracker([0, 1], [_square(0.0), bad], match_thresh=0.5)
        with pytest.raises(ValidationError, match="corners"):
            build_gt_association([0, 1], [_square(0.0), bad], gt)
    for frames in ([0, 2], [2, 3], [-1, 0]):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 2\)"):
            build_gt_association(frames, boxes, gt)
    assert build_gt_association([0, 1], boxes, gt).values.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def _scalar_match_boxes(left, right, min_iou):
    """match_boxes with the IoU matrix built pair by pair from scalar iou."""
    if not left or not right:
        return []
    sim = np.array([[iou(a, b) for b in right] for a in left])
    eligible = sim >= min_iou
    rows, cols = linear_sum_assignment(-np.where(eligible, sim, 0.0))
    return [(int(r), int(c), float(sim[r, c])) for r, c in zip(rows, cols) if eligible[r, c]]


def test_match_boxes_equals_scalar_iou_reference(rng) -> None:
    for trial in range(200):
        boxes = []
        for _ in range(int(rng.integers(0, 9))):
            if trial % 2:  # integer grid: many tied IoUs
                x, y = (float(v) for v in rng.integers(0, 4, size=2) * 5)
                w, h = (float(v) for v in rng.integers(1, 3, size=2) * 10)
            else:
                x, y = (float(v) for v in rng.uniform(0, 40, size=2))
                w, h = (float(v) for v in rng.uniform(1, 25, size=2))
            boxes.append(Box(x, y, x + w, y + h))
        cut = int(rng.integers(0, len(boxes) + 1))
        left, right = boxes[:cut], boxes[cut:]
        corners = _columns([boxes])[1]
        for thresh in (0.0, 0.3, 0.5):
            got = match_boxes(corners[:cut], corners[cut:], thresh)
            assert got == _scalar_match_boxes(left, right, thresh)


def _solver_cases(rng):
    for _ in range(50):
        yield rng.random((int(rng.integers(1, 9)),) * 2)
    for _ in range(50):
        n, m = (int(v) for v in rng.integers(1, 9, size=2))
        yield rng.random((n, m + 3)) if rng.random() < 0.5 else rng.random((n + 3, m))
    for _ in range(100):  # ties: the tie-break must be the same too
        yield rng.choice([0.0, 0.5, 1.0], size=tuple(int(v) for v in rng.integers(1, 7, size=2)))
    yield np.zeros((0, 4))
    yield np.zeros((4, 0))


def test_loaded_solver_equals_public_solver(rng) -> None:
    assert _lsap._PATH is not None  # the extension file was loaded, not the public import
    for cost in _solver_cases(rng):
        for maximize in (False, True):
            got = _lsap.linear_sum_assignment(cost, maximize=maximize)
            want = linear_sum_assignment(cost, maximize=maximize)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))
    cost = np.array([[0.1, np.nan], [0.2, 0.3]])
    with pytest.raises(ValueError) as loaded:
        _lsap.linear_sum_assignment(cost)
    with pytest.raises(ValueError) as public:
        linear_sum_assignment(cost)
    assert type(loaded.value) is type(public.value)


def test_solver_falls_back_to_public_import(monkeypatch) -> None:
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    try:
        fallback = importlib.reload(_lsap)
        assert fallback._PATH is None
        assert fallback.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    finally:
        monkeypatch.undo()
        importlib.reload(_lsap)
    assert _lsap._PATH is not None
