from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from densevoc.core import VideoTable

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


class Track(NamedTuple):
    """One track's rows for ``make_video``: ``(frame, x1, y1, x2, y2)`` boxes, scores and captions."""

    track_id: int
    boxes: list
    caption: str | None
    scores: list
    box_captions: list


def make_track(track_id, boxes, caption=None, scores=None, det_captions=None) -> Track:
    """boxes: list of (frame, x1, y1, x2, y2); an empty caption counts as none."""
    boxes = list(boxes)
    return Track(
        track_id,
        boxes,
        caption or None,
        list(scores) if scores else [1.0] * len(boxes),
        [c or None for c in det_captions] if det_captions else [None] * len(boxes),
    )


def make_video(video_id, tracks, num_frames) -> VideoTable:
    """The table of ``make_track`` tracks, in the order given."""
    box_captions = [c for t in tracks for c in t.box_captions]
    return VideoTable(
        video_id=video_id,
        num_frames=num_frames,
        track_ids=np.array([t.track_id for t in tracks], dtype=np.int64),
        track_captions=tuple(t.caption for t in tracks),
        offsets=np.cumsum([0] + [len(t.boxes) for t in tracks]),
        frames=np.array([int(b[0]) for t in tracks for b in t.boxes], dtype=np.int64),
        corners=np.array([b[1:] for t in tracks for b in t.boxes], dtype=float).reshape(-1, 4),
        scores=np.array([s for t in tracks for s in t.scores], dtype=float),
        box_captions=None if all(c is None for c in box_captions) else tuple(box_captions),
    )


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
