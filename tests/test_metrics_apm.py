from __future__ import annotations

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from densevoc.core import Box, ValidationError
from densevoc.metrics import _average_precisions, ap_m, grounding_ious

from conftest import make_track, make_video
from oracles import apm_grid_oracle, average_precision, detection_ap_oracle


def _one_frame_video(video_id, tracks):
    return make_video(video_id, tracks, num_frames=1)


def test_apm_perfect_single_detection() -> None:
    gt = _one_frame_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="a red car")])
    pred = _one_frame_video(
        "v", [make_track(1, [(0, 0.5, 0.0, 10.0, 10.0)], caption="a red car")]
    )
    report = ap_m([pred], [gt])
    assert report.overall == pytest.approx(1.0)


def test_apm_low_iou_passes_one_threshold_band() -> None:
    gt = _one_frame_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="a red car")])
    # IoU exactly 0.35: passes only the 0.3 threshold; caption identical.
    pred = _one_frame_video(
        "v", [make_track(1, [(0, 0.0, 0.0, 3.5, 10.0)], caption="a red car")]
    )
    report = ap_m([pred], [gt])
    assert report.overall == pytest.approx(0.2)


def test_apm_captionless_gt_accepts_any_caption() -> None:
    gt = _one_frame_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)])])
    pred = _one_frame_video(
        "v", [make_track(1, [(0, 0.5, 0.0, 10.0, 10.0)], caption="total nonsense words")]
    )
    report = ap_m([pred], [gt])
    assert report.overall == pytest.approx(1.0)


def test_apm_empty_prediction_scores_zero() -> None:
    gt = _one_frame_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="a dog")])
    pred = make_video("v", [], num_frames=1)
    report = ap_m([pred], [gt])
    assert report.overall == 0.0
    assert report.num_frames == 1


def test_apm_frames_without_gt_excluded() -> None:
    gt = make_video("v", [make_track(1, [(1, 0.0, 0.0, 10.0, 10.0)], caption="a dog")], 3)
    pred = make_video("v", [make_track(1, [(1, 0.0, 0.0, 10.0, 10.0)], caption="a dog")], 3)
    report = ap_m([pred], [gt])
    assert report.num_frames == 1
    assert report.overall == pytest.approx(1.0)


def test_apm_grid_shape_and_monotone_thresholds() -> None:
    gt = _one_frame_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="a red car")])
    pred = _one_frame_video(
        "v", [make_track(1, [(0, 0.0, 0.0, 6.0, 10.0)], caption="a red car")]
    )  # IoU 0.6
    report = ap_m([pred], [gt])
    assert report.grid.shape == (5, 5)
    # Tightening IoU thresholds can only lower the per-pair AP.
    assert np.all(np.diff(report.grid, axis=0) <= 1e-12)


def _random_detection_scene(rng, video_id):
    n_gt = int(rng.integers(1, 5))
    n_pred = int(rng.integers(0, 6))
    gt_tracks = []
    for k in range(n_gt):
        x, y = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(5, 25, size=2)
        gt_tracks.append(
            make_track(k + 1, [(0, float(x), float(y), float(x + w), float(y + h))], caption="a dog runs")
        )
    pred_tracks = []
    for k in range(n_pred):
        x, y = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(5, 25, size=2)
        pred_tracks.append(
            make_track(
                k + 1,
                [(0, float(x), float(y), float(x + w), float(y + h))],
                caption="a dog runs",
                scores=[float(rng.uniform(0.05, 1.0))],
            )
        )
    return (
        _one_frame_video(video_id, pred_tracks),
        _one_frame_video(video_id, gt_tracks),
    )


def test_apm_reduces_to_detection_ap_with_zero_meteor_thresholds(rng) -> None:
    iou_thresholds = (0.3, 0.4, 0.5, 0.6, 0.7)
    for trial in range(40):
        pred, gt = _random_detection_scene(rng, f"v{trial}")
        report = ap_m([pred], [gt], iou_thresholds=iou_thresholds, meteor_thresholds=(0.0,))
        pred_dets = [
            (d.box, d.score) for t in pred.trajectories for d in t.detections
        ]
        gt_boxes = [d.box for t in gt.trajectories for d in t.detections]
        expected = np.mean(
            [detection_ap_oracle(pred_dets, gt_boxes, t) for t in iou_thresholds]
        )
        assert report.overall == pytest.approx(expected, abs=1e-12), trial


_WORDS = ("a", "red", "dog", "car", "runs", "left", "small", "blue")


def _random_caption(rng) -> str:
    return " ".join(rng.choice(_WORDS, size=int(rng.integers(2, 6))))


def _tie_heavy_apm_scene(rng, video_id, num_frames):
    """Integer-grid boxes, two score levels, some caption-less ground truth.

    Predictions copy ground-truth boxes (shifted on the grid or not), so IoUs,
    scores and captions tie often; some predictions carry box captions.
    """
    gt_tracks, pred_tracks = [], []
    for k in range(int(rng.integers(1, 5))):
        frames = sorted(rng.choice(num_frames, size=int(rng.integers(1, num_frames + 1)), replace=False))
        boxes = []
        for f in frames:
            x, y = (float(v) for v in rng.integers(0, 4, size=2) * 5)
            w, h = (float(v) for v in rng.integers(1, 3, size=2) * 10)
            boxes.append((int(f), x, y, x + w, y + h))
        caption = _random_caption(rng) if rng.random() < 0.7 else None
        gt_tracks.append(make_track(k + 1, boxes, caption=caption))
        for copy in range(int(rng.integers(0, 3))):
            shifted = [(f, x1 + 5 * copy, y1, x2 + 5 * copy, y2) for f, x1, y1, x2, y2 in boxes]
            scores = [float(rng.choice([0.5, 0.8])) for _ in boxes]
            det_caps = [_random_caption(rng) if rng.random() < 0.3 else None for _ in boxes]
            track_cap = caption if rng.random() < 0.5 else _random_caption(rng)
            pred_tracks.append(
                make_track(len(pred_tracks) + 1, shifted, caption=track_cap, scores=scores,
                           det_captions=det_caps)
            )
    return make_video(video_id, pred_tracks, num_frames), make_video(video_id, gt_tracks, num_frames)


@pytest.mark.parametrize(
    "iou_thresholds, meteor_thresholds",
    [
        ((0.3, 0.4, 0.5, 0.6, 0.7), (0.0, 0.05, 0.1, 0.15, 0.2)),
        ((0.0, 0.3, 0.5), (0.1, 0.3, 0.6, 1.0)),
        ((0.5, 0.0), (0.25,)),
    ],
)
def test_apm_grid_equals_per_cell_oracle(rng, iou_thresholds, meteor_thresholds) -> None:
    for trial in range(30):
        preds, gts = [], []
        for v in range(int(rng.integers(1, 4))):
            pred, gt = _tie_heavy_apm_scene(rng, f"v{trial}_{v}", int(rng.integers(1, 5)))
            preds.append(pred)
            gts.append(gt)
        if trial % 5 == 0:
            preds.pop()  # a video without predictions
        report = ap_m(preds, gts, iou_thresholds=iou_thresholds, meteor_thresholds=meteor_thresholds)
        expected = apm_grid_oracle(preds, gts, iou_thresholds, meteor_thresholds)
        assert np.array_equal(report.grid, expected), trial


def _long_apm_scene(rng, video_id):
    """20-40 frames and 1-9 objects on an integer grid, so one shape holds many frames.

    A few ground-truth frames get no predictions at all, and the prediction
    record runs past the ground truth's last frame with boxes there.
    """
    num_frames = int(rng.integers(20, 41))
    blank = set(rng.choice(num_frames, size=3, replace=False).tolist())
    gt_tracks, pred_tracks = [], []
    for k in range(int(rng.integers(1, 10))):
        frames = [f for f in range(num_frames) if rng.random() < 0.7] or [0]
        boxes = []
        for f in frames:
            x, y = (float(v) for v in rng.integers(0, 6, size=2) * 5)
            w, h = (float(v) for v in rng.integers(1, 4, size=2) * 10)
            boxes.append((f, x, y, x + w, y + h))
        caption = _random_caption(rng) if rng.random() < 0.8 else None
        gt_tracks.append(make_track(k + 1, boxes, caption=caption))
        for _ in range(int(rng.integers(1, 3))):
            dx = float(rng.choice([0.0, 2.5, 5.0]))
            shifted = [(f, x1 + dx, y1, x2 + dx, y2) for f, x1, y1, x2, y2 in boxes
                       if f not in blank and rng.random() < 0.9]
            shifted += [(num_frames + j, 0.0, 0.0, 10.0, 10.0) for j in range(int(rng.integers(0, 3)))]
            if not shifted:
                continue
            scores = [float(rng.choice([0.3, 0.6, 0.9])) for _ in shifted]
            det_caps = [_random_caption(rng) if rng.random() < 0.2 else None for _ in shifted]
            track_cap = caption if rng.random() < 0.6 else _random_caption(rng)
            pred_tracks.append(
                make_track(len(pred_tracks) + 1, shifted, caption=track_cap, scores=scores,
                           det_captions=det_caps)
            )
    return make_video(video_id, pred_tracks, num_frames + 3), make_video(video_id, gt_tracks, num_frames)


@pytest.mark.parametrize(
    "iou_thresholds, meteor_thresholds",
    [((0.3, 0.4, 0.5, 0.6, 0.7), (0.0, 0.05, 0.1, 0.15, 0.2)), ((0.0, 0.3, 0.5), (0.1, 0.3))],
)
def test_apm_long_videos_equal_per_cell_oracle(rng, iou_thresholds, meteor_thresholds) -> None:
    for trial in range(6):
        preds, gts = [], []
        for v in range(3):
            pred, gt = _long_apm_scene(rng, f"v{trial}_{v}")
            preds.append(pred)
            gts.append(gt)
        # A copy of the first video under a new id repeats its AP inputs exactly.
        preds.append(replace(preds[0], video_id=f"v{trial}_copy"))
        gts.append(replace(gts[0], video_id=f"v{trial}_copy"))
        report = ap_m(preds, gts, iou_thresholds=iou_thresholds, meteor_thresholds=meteor_thresholds)
        expected = apm_grid_oracle(preds, gts, iou_thresholds, meteor_thresholds)
        assert np.array_equal(report.grid, expected), trial
        assert report.num_frames == sum(
            len({d.frame for t in gt.trajectories for d in t.detections}) for gt in gts
        )


def test_average_precision_all_points_interpolation() -> None:
    # Ranked flags TP, FP, TP over 2 gt: precision envelope gives 1*0.5 + (2/3)*0.5.
    value = _average_precisions(np.array([[True, False, True]]), n_gt=2)[0]
    assert value == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)


def test_average_precision_undefined_without_ground_truth() -> None:
    with pytest.raises(ValidationError, match="without ground truth"):
        _average_precisions(np.zeros((1, 0), dtype=bool), 0)


def test_average_precisions_equal_per_row_oracle() -> None:
    # Every flag row of length 1-12 against 1-13 ground truth: from 9 recall
    # steps on, numpy sums with an unrolled pairwise loop, whose rounding
    # depends on the number of terms.
    for n in range(1, 13):
        flags = np.array(list(itertools.product([False, True], repeat=n)))
        for n_gt in range(1, 14):
            expected = [average_precision(row, n_gt) for row in flags]
            assert _average_precisions(flags, n_gt).tolist() == expected, (n, n_gt)
    assert _average_precisions(np.zeros((2, 0), dtype=bool), 3).tolist() == [0.0, 0.0]


def test_grounding_ious_simple_average() -> None:
    gt_boxes = {0: (0, 0, 10, 10), 1: (0, 0, 10, 10)}
    pred_boxes = {0: (0, 0, 10, 5), 1: (0, 0, 10, 10)}
    s, t, v = grounding_ious(pred_boxes, (0, 1), gt_boxes, (0, 1))
    assert s == pytest.approx(0.75)
    assert t == 1.0
    assert v == pytest.approx(0.75)


def test_grounding_ious_span_overlap_counting() -> None:
    gt_boxes = {f: (0, 0, 10, 10) for f in range(4, 9)}
    pred_boxes = {f: (0, 0, 10, 10) for f in range(2, 7)}
    s, t, v = grounding_ious(pred_boxes, (2, 6), gt_boxes, (4, 8))
    assert t == pytest.approx(3 / 7)
    assert v == pytest.approx(3 / 7)
    # sIoU over the gt span: frames 4..6 hit, 7..8 missing -> 3/5.
    assert s == pytest.approx(3 / 5)


def test_grounding_ious_disjoint_spans() -> None:
    gt_boxes = {f: (0, 0, 10, 10) for f in range(5, 8)}
    pred_boxes = {f: (0, 0, 10, 10) for f in range(0, 3)}
    s, t, v = grounding_ious(pred_boxes, (0, 2), gt_boxes, (5, 7))
    assert t == 0.0
    assert v == 0.0
    assert s == 0.0


def test_grounding_ious_rejects_bad_spans() -> None:
    gt_boxes = {0: (0, 0, 10, 10), 1: (0, 0, 10, 10)}
    with pytest.raises(ValidationError, match="start <= end"):
        grounding_ious({}, (1, 0), gt_boxes, (0, 1))
    with pytest.raises(ValidationError, match="start <= end"):
        grounding_ious({}, (0, 1), gt_boxes, (1, 0))
    with pytest.raises(ValidationError, match="frame 2"):
        grounding_ious({}, (0, 2), gt_boxes, (0, 2))


def test_grounding_ious_rejects_bad_corner_rows() -> None:
    gt_boxes = {0: (0, 0, 10, 10), 1: (0, 0, 10, 10)}
    for bad, message in (((0, 0, float("nan"), 10), "finite"), ((10, 0, 0, 10), "out of order")):
        with pytest.raises(ValidationError, match=message):
            grounding_ious({0: bad}, (0, 1), gt_boxes, (0, 1))
        with pytest.raises(ValidationError, match=message):
            grounding_ious({0: (0, 0, 10, 10)}, (0, 1), {**gt_boxes, 1: bad}, (0, 1))


def test_apm_and_chota_reports_do_not_depend_on_video_order() -> None:
    # Both reduces add per-video sums in video-id order, whatever the files' order.
    from densevoc.metrics import chota
    from densevoc.synth import SynthConfig, generate

    for seed in range(3):
        gts, preds = generate(SynthConfig(
            seed=seed, num_videos=6, frames_per_video=20, objects_per_video=5, box_jitter_sigma=4.0,
            drop_rate=0.2, false_positive_rate=0.3, id_switch_rate=0.1, caption_corruption_rate=0.4,
        ))
        base = (ap_m(preds, gts).to_dict(), chota(preds, gts).to_dict())
        rng = np.random.default_rng(seed)
        for _ in range(5):
            gt_order, pred_order = rng.permutation(6), rng.permutation(6)
            shuffled = ([preds[i] for i in pred_order], [gts[i] for i in gt_order])
            got = (ap_m(*shuffled).to_dict(), chota(*shuffled).to_dict())
            assert json.dumps(got) == json.dumps(base), (seed, gt_order, pred_order)
