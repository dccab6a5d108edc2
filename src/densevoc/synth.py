"""Deterministic synthetic tracking scenarios.

Objects move linearly across a fixed canvas and carry templated
subject-verb-object captions. Predictions are the ground truth pushed
through configurable perturbations: corner jitter, detection drops,
false-positive injection, identity switches, and caption corruption.

All randomness flows through one numpy PCG64 generator seeded from the
config, and every draw happens in a fixed order, so output is reproducible
bit-for-bit for a given seed and configuration. Draws go straight into
per-video column tables (``core.VideoTable``), which ``formats.save_dataset``
writes without building a box object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidationError, VideoTable

CANVAS = 256.0

SUBJECTS = (
    "a red car", "a blue bus", "a black dog", "a white cat",
    "a young child", "a tall man", "a small bird", "a gray horse",
)
VERBS = (
    "moves past", "runs toward", "waits near", "drifts behind",
    "circles around", "speeds along", "stops beside", "crosses",
)
OBJECTS = (
    "the tree", "the building", "the fence", "the fountain",
    "the crosswalk", "the bench", "the hill", "the gate",
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_videos: int = 4
    frames_per_video: int = 30
    objects_per_video: int = 4
    box_jitter_sigma: float = 0.0
    drop_rate: float = 0.0
    false_positive_rate: float = 0.0
    id_switch_rate: float = 0.0
    caption_corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.num_videos < 1 or self.frames_per_video < 1 or self.objects_per_video < 1:
            raise ValidationError("video, frame and object counts must be >= 1")
        for name in ("drop_rate", "false_positive_rate", "id_switch_rate", "caption_corruption_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if not (0.0 <= self.box_jitter_sigma < np.inf):
            raise ValidationError(f"box_jitter_sigma must be finite and >= 0, got {self.box_jitter_sigma}")


def _random_caption(rng: np.random.Generator) -> str:
    return " ".join((
        SUBJECTS[int(rng.integers(len(SUBJECTS)))],
        VERBS[int(rng.integers(len(VERBS)))],
        OBJECTS[int(rng.integers(len(OBJECTS)))],
    ))


def _random_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """(x, y, w, h) of a fresh object fully inside the canvas."""
    w = float(rng.uniform(25.0, 60.0))
    h = float(rng.uniform(25.0, 60.0))
    x = float(rng.uniform(0.0, CANVAS - w))
    y = float(rng.uniform(0.0, CANVAS - h))
    return x, y, w, h


def _gt_table(rng: np.random.Generator, video_id: str, cfg: SynthConfig) -> VideoTable:
    n_tracks, n_frames = cfg.objects_per_video, cfg.frames_per_video
    t = np.arange(n_frames)
    corners = np.empty((n_tracks, n_frames, 4))
    captions = []
    for k in range(n_tracks):
        x, y, w, h = _random_box(rng)
        vx, vy = rng.uniform(-3.0, 3.0, size=2)
        captions.append(_random_caption(rng))
        xs = np.clip(x + vx * t, 0.0, CANVAS - w)
        ys = np.clip(y + vy * t, 0.0, CANVAS - h)
        corners[k] = np.stack((xs, ys, xs + w, ys + h), axis=1)
    return VideoTable(
        video_id=video_id,
        num_frames=n_frames,
        track_ids=np.arange(1, n_tracks + 1),
        track_captions=tuple(captions),
        offsets=np.arange(n_tracks + 1) * n_frames,
        frames=np.tile(t, n_tracks),
        corners=corners.reshape(-1, 4),
        scores=np.ones(n_tracks * n_frames),
    )


def _perturb_table(rng: np.random.Generator, gt: VideoTable, cfg: SynthConfig) -> VideoTable:
    """Predictions from a ground truth that holds every frame of every track, as ``_gt_table`` builds it."""
    n_tracks, n_frames = len(gt.track_ids), gt.num_frames
    random, uniform = rng.random, rng.uniform
    # Identity relabeling; id switches swap two entries from a frame onward.
    relabel = gt.track_ids.tolist()
    switch_schedule: dict[int, np.ndarray] = {}
    for frame in range(1, n_frames):
        if random() < cfg.id_switch_rate and n_tracks >= 2:
            switch_schedule[frame] = rng.choice(n_tracks, size=2, replace=False)

    # One row per kept or false-positive box, in draw order: (frame, label,
    # ground-truth row or -1, score); jitter and FP corners in side lists.
    rows: list[tuple[int, int, int, float]] = []
    jitters: list[np.ndarray] = []
    fp_corners: list[tuple[float, float, float, float]] = []
    captions: dict[int, str] = {}
    sigma, drop_rate, fp_rate = cfg.box_jitter_sigma, cfg.drop_rate, cfg.false_positive_rate
    no_jitter = np.zeros(4)
    fp_id = max(1000, n_tracks + 1)  # above the labels 1..K, so a false positive never joins a track
    for frame in range(n_frames):
        if frame in switch_schedule:
            a, b = switch_schedule[frame]
            relabel[a], relabel[b] = relabel[b], relabel[a]
        for k in range(n_tracks):
            dropped = random() < drop_rate
            jitter = rng.normal(0.0, sigma, size=4) if sigma > 0 else no_jitter
            score = float(uniform(0.6, 1.0))
            make_fp = random() < fp_rate
            if not dropped:
                rows.append((frame, relabel[k], k * n_frames + frame, score))
                jitters.append(jitter)
            if make_fp:
                x, y, w, h = _random_box(rng)
                rows.append((frame, fp_id, -1, float(uniform(0.2, 0.6))))
                fp_corners.append((x, y, x + w, y + h))
                captions[fp_id] = _random_caption(rng)
                fp_id += 1

    # Captions attach to the persistent pred labels 1..K; after a switch a
    # label carries detections from more than one source track, as intended.
    for label, caption in zip(gt.track_ids.tolist(), gt.track_captions):
        captions[label] = _random_caption(rng) if random() < cfg.caption_corruption_rate else caption

    empty = np.zeros((4, 0), dtype=np.int64)
    frames, labels, sources, scores = (np.array(c) for c in zip(*rows)) if rows else empty
    corners = np.empty((len(rows), 4))
    kept = sources >= 0
    moved = gt.corners[sources[kept]] + np.array(jitters).reshape(-1, 4)
    # sorted() of each corner pair, as check_corners needs x1 <= x2 and y1 <= y2.
    for lo, hi in ((0, 2), (1, 3)):
        swap = moved[:, hi] < moved[:, lo]
        corners[kept, lo] = np.where(swap, moved[:, hi], moved[:, lo])
        corners[kept, hi] = np.where(swap, moved[:, lo], moved[:, hi])
    corners[~kept] = np.array(fp_corners).reshape(-1, 4)
    return VideoTable.from_rows(gt.video_id, n_frames, labels, frames, corners, scores, track_captions=captions)


def generate(cfg: SynthConfig) -> tuple[list[VideoTable], list[VideoTable]]:
    """Ground truth plus perturbed predictions for every configured video, as tables."""
    rng = np.random.default_rng(cfg.seed)
    gts = [_gt_table(rng, f"synth-{cfg.seed:04d}-{v:03d}", cfg) for v in range(cfg.num_videos)]
    preds = [_perturb_table(rng, gt, cfg) for gt in gts]
    return gts, preds
