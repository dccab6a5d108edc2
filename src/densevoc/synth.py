"""Deterministic synthetic tracking scenarios.

Objects move linearly across a fixed canvas and carry templated
subject-verb-object captions. Predictions are the ground truth pushed
through configurable perturbations: corner jitter, detection drops,
false-positive injection, identity switches, and caption corruption.

All randomness flows through one numpy PCG64 generator seeded from the
config, and every draw happens in a fixed order, so output is reproducible
bit-for-bit for a given seed and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Box, Caption, Detection, Trajectory, ValidationError, VideoRecord

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
        if self.num_videos < 1 or self.frames_per_video < 1 or self.objects_per_video < 1:
            raise ValidationError("video, frame and object counts must be >= 1")
        for name in ("drop_rate", "false_positive_rate", "id_switch_rate", "caption_corruption_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if not (self.box_jitter_sigma >= 0.0):
            raise ValidationError(f"box_jitter_sigma must be >= 0, got {self.box_jitter_sigma}")


def _random_caption(rng: np.random.Generator) -> Caption:
    parts = (
        SUBJECTS[int(rng.integers(len(SUBJECTS)))],
        VERBS[int(rng.integers(len(VERBS)))],
        OBJECTS[int(rng.integers(len(OBJECTS)))],
    )
    return Caption.from_text(" ".join(parts))


def _random_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """(x, y, w, h) of a fresh object fully inside the canvas."""
    w = float(rng.uniform(25.0, 60.0))
    h = float(rng.uniform(25.0, 60.0))
    x = float(rng.uniform(0.0, CANVAS - w))
    y = float(rng.uniform(0.0, CANVAS - h))
    return x, y, w, h


def _gt_video(rng: np.random.Generator, video_id: str, cfg: SynthConfig) -> VideoRecord:
    tracks = []
    for k in range(cfg.objects_per_video):
        x, y, w, h = _random_box(rng)
        vx, vy = rng.uniform(-3.0, 3.0, size=2)
        caption = _random_caption(rng)
        t = np.arange(cfg.frames_per_video)
        xs = np.clip(x + vx * t, 0.0, CANVAS - w)
        ys = np.clip(y + vy * t, 0.0, CANVAS - h)
        dets = tuple(
            Detection(
                frame=int(frame),
                box=Box(float(xs[frame]), float(ys[frame]), float(xs[frame] + w), float(ys[frame] + h)),
                score=1.0,
                track_id=k + 1,
            )
            for frame in range(cfg.frames_per_video)
        )
        tracks.append(Trajectory(track_id=k + 1, detections=dets, caption=caption))
    return VideoRecord(video_id=video_id, num_frames=cfg.frames_per_video, trajectories=tuple(tracks))


def _perturb_video(rng: np.random.Generator, gt: VideoRecord, cfg: SynthConfig) -> VideoRecord:
    n_tracks = len(gt.trajectories)
    # Identity relabeling; id switches swap two entries from a frame onward.
    relabel = {t.track_id: t.track_id for t in gt.trajectories}
    flat: list[tuple[int, int, Detection]] = []
    captions: dict[int, Caption] = {}

    switch_schedule: dict[int, tuple[int, int]] = {}
    for frame in range(1, gt.num_frames):
        if rng.random() < cfg.id_switch_rate and n_tracks >= 2:
            a, b = rng.choice(n_tracks, size=2, replace=False)
            switch_schedule[frame] = (
                gt.trajectories[int(a)].track_id,
                gt.trajectories[int(b)].track_id,
            )

    gt_by_frame = gt.detections_by_frame()
    fp_id = 1000
    for frame in range(gt.num_frames):
        if frame in switch_schedule:
            a, b = switch_schedule[frame]
            relabel[a], relabel[b] = relabel[b], relabel[a]
        for track_id, det in gt_by_frame[frame]:
            dropped = rng.random() < cfg.drop_rate
            jitter = rng.normal(0.0, cfg.box_jitter_sigma, size=4) if cfg.box_jitter_sigma > 0 else np.zeros(4)
            score = float(rng.uniform(0.6, 1.0))
            make_fp = rng.random() < cfg.false_positive_rate
            if not dropped:
                x1, x2 = sorted((det.box.x1 + jitter[0], det.box.x2 + jitter[2]))
                y1, y2 = sorted((det.box.y1 + jitter[1], det.box.y2 + jitter[3]))
                flat.append(
                    (frame, relabel[track_id], Detection(frame=frame, box=Box(x1, y1, x2, y2), score=score))
                )
            if make_fp:
                x, y, w, h = _random_box(rng)
                fp_score = float(rng.uniform(0.2, 0.6))
                fp_caption = _random_caption(rng)
                flat.append(
                    (frame, fp_id, Detection(frame=frame, box=Box(x, y, x + w, y + h), score=fp_score))
                )
                captions[fp_id] = fp_caption
                fp_id += 1

    # Captions attach to the persistent pred labels 1..K; after a switch a
    # label carries detections from more than one source track, as intended.
    for track in gt.trajectories:
        label = track.track_id
        if rng.random() < cfg.caption_corruption_rate:
            captions[label] = _random_caption(rng)
        else:
            captions[label] = track.caption

    present = {track_id for _, track_id, _ in flat}
    captions = {tid: cap for tid, cap in captions.items() if tid in present and cap is not None}
    return VideoRecord.regroup(gt.video_id, gt.num_frames, flat, captions)


def generate(cfg: SynthConfig) -> tuple[list[VideoRecord], list[VideoRecord]]:
    """Ground truth plus perturbed predictions for every configured video."""
    rng = np.random.default_rng(cfg.seed)
    gts = [_gt_video(rng, f"synth-{cfg.seed:04d}-{v:03d}", cfg) for v in range(cfg.num_videos)]
    preds = [_perturb_video(rng, gt, cfg) for gt in gts]
    return gts, preds
