from __future__ import annotations

import numpy as np
import pytest

from densevoc.core import Box, Caption, Detection, Trajectory, VideoRecord

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []

# A caption pair whose METEOR chunk search runs past the default 20,000-node budget.
OVER_BUDGET_PAIR = (
    tuple("fly walked walk red dog a a a the fly walked flies walk walked flies walking walked walk walk flies".split()),
    tuple("red fly walked a dog fly walk a walking walking fly the a fly a walk a red dogs dogs".split()),
)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    _ACCEPTANCE_RESULTS.append((name, outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{outcome:>4}  {name}")


def make_track(track_id, boxes, caption=None, scores=None, det_captions=None):
    """boxes: list of (frame, x1, y1, x2, y2)."""
    dets = []
    for k, (frame, x1, y1, x2, y2) in enumerate(boxes):
        dets.append(
            Detection(
                frame=frame,
                box=Box(x1, y1, x2, y2),
                score=scores[k] if scores else 1.0,
                track_id=track_id,
                caption=Caption.from_text(det_captions[k]) if det_captions and det_captions[k] else None,
            )
        )
    return Trajectory(
        track_id=track_id,
        detections=tuple(dets),
        caption=Caption.from_text(caption) if caption else None,
    )


def make_video(video_id, tracks, num_frames):
    return VideoRecord(video_id=video_id, num_frames=num_frames, trajectories=tuple(tracks))


def random_tiny_instance(rng: np.random.Generator, max_tracks=3, max_frames=4):
    """Random prediction/ground-truth pair small enough for enumeration."""
    num_frames = int(rng.integers(1, max_frames + 1))

    def random_record(video_id, id_base):
        tracks = []
        n_tracks = int(rng.integers(1, max_tracks + 1))
        for k in range(n_tracks):
            frames = sorted(
                rng.choice(num_frames, size=int(rng.integers(1, num_frames + 1)), replace=False)
            )
            boxes = []
            for frame in frames:
                x = float(rng.uniform(0, 60))
                y = float(rng.uniform(0, 60))
                w = float(rng.uniform(8, 40))
                h = float(rng.uniform(8, 40))
                boxes.append((int(frame), x, y, x + w, y + h))
            tracks.append(make_track(id_base + k, boxes))
        return make_video("tiny", tracks, num_frames)

    return random_record("tiny", 1), random_record("tiny", 1)


def tie_heavy_instance(rng: np.random.Generator, max_tracks=3, max_frames=4):
    """Random pair with integer-grid boxes and duplicated prediction tracks.

    Boxes snap to a coarse grid, so many pairs share the same IoU; each
    prediction track may be copied under a new id, so matchings tie.
    """
    num_frames = int(rng.integers(1, max_frames + 1))

    def random_record(duplicate):
        tracks = []
        for k in range(int(rng.integers(1, max_tracks + 1))):
            frames = sorted(
                rng.choice(num_frames, size=int(rng.integers(1, num_frames + 1)), replace=False)
            )
            boxes = []
            for frame in frames:
                x, y = (float(v) for v in rng.integers(0, 4, size=2) * 5)
                w, h = (float(v) for v in rng.integers(1, 3, size=2) * 10)
                boxes.append((int(frame), x, y, x + w, y + h))
            tracks.append(make_track(k + 1, boxes))
            if duplicate and rng.random() < 0.5:
                tracks.append(make_track(k + 1 + max_tracks, boxes))
        return make_video("tiny", tracks, num_frames)

    return random_record(True), random_record(False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
