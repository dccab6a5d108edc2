"""Workload table and seeded input generation.

Every workload runs one densevoc CLI command in a fresh process, one at a
time (a closed loop with one client). Inputs are made here from the
benchmark's seed with numpy and densevoc's public API only; the program under
test receives nothing but the generated files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# The acceptance-test shape: 200 frames x 8 objects with every corruption on.
TRACK_SHAPE = dict(
    frames_per_video=200,
    objects_per_video=8,
    box_jitter_sigma=2.0,
    drop_rate=0.05,
    false_positive_rate=0.05,
    id_switch_rate=0.02,
    caption_corruption_rate=0.2,
)
DENSE_SHAPE = dict(TRACK_SHAPE, frames_per_video=60, objects_per_video=6)

# Box-level caption edits for caption-dense: one to three word inserts, drops
# or appends per box make nearly every box caption distinct, so the per-video
# caption cache hits only where one match spans several alpha bands.
EDIT_WORDS = (
    "slowly", "quickly", "again", "there", "now", "big", "small", "old",
    "new", "dark", "bright", "left", "right", "far", "close", "still",
    "busy", "quiet", "early", "late", "wet", "dry", "open", "empty",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # densevoc subcommand
    videos: int
    shape: dict
    box_captions: bool = False

    def synth_config(self, seed: int):
        from densevoc import SynthConfig

        return SynthConfig(seed=seed, num_videos=self.videos, **self.shape)

    def synth_argv(self, seed: int, out_gt: str, out_pred: str) -> list[str]:
        s = self.shape
        return [
            "synth", "--seed", str(seed), "--num-videos", str(self.videos),
            "--frames", str(s["frames_per_video"]), "--objects", str(s["objects_per_video"]),
            "--box-jitter", str(s["box_jitter_sigma"]), "--drop-rate", str(s["drop_rate"]),
            "--fp-rate", str(s["false_positive_rate"]),
            "--id-switch-rate", str(s["id_switch_rate"]),
            "--caption-corruption-rate", str(s["caption_corruption_rate"]),
            "--out-gt", out_gt, "--out-pred", out_pred,
        ]


# Sized so that one operation, setup included, is about a second of work and
# a run's medians rest on 10-20 operations.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("track-long", "eval-chota", videos=6, shape=TRACK_SHAPE),
        Workload("caption-dense", "eval-chota", videos=4, shape=DENSE_SHAPE, box_captions=True),
        Workload("frame-map", "eval-apm", videos=2, shape=TRACK_SHAPE),
        Workload("synth-write", "synth", videos=8, shape=TRACK_SHAPE),
    )
}


def _edit_caption(text: str, rng: np.random.Generator) -> str:
    words = text.split()
    for _ in range(1 + int(rng.integers(3))):
        op = int(rng.integers(3))
        word = EDIT_WORDS[int(rng.integers(len(EDIT_WORDS)))]
        if op == 0:
            words.insert(int(rng.integers(len(words) + 1)), word)
        elif op == 1 and len(words) > 2:
            del words[int(rng.integers(len(words)))]
        else:
            words.append(word)
    return " ".join(words)


def with_box_captions(preds, seed: int):
    """Predictions where every box carries its own caption.

    Each box caption is its track's synth caption plus seeded word edits,
    drawn from a stream of its own so the synth stream stays untouched.
    """
    from densevoc import Caption, Detection, Trajectory, VideoRecord

    rng = np.random.default_rng([seed, 0xCA9])
    out = []
    for record in preds:
        tracks = []
        for track in record.trajectories:
            dets = tuple(
                Detection(
                    frame=d.frame,
                    box=d.box,
                    score=d.score,
                    track_id=d.track_id,
                    caption=Caption.from_text(_edit_caption(track.caption.raw, rng)),
                )
                for d in track.detections
            )
            tracks.append(Trajectory(track_id=track.track_id, detections=dets, caption=track.caption))
        out.append(VideoRecord(video_id=record.video_id, num_frames=record.num_frames, trajectories=tuple(tracks)))
    return out


def make_records(workload: Workload, seed: int):
    """(gts, preds) for the workload at this seed."""
    from densevoc import generate

    gts, preds = generate(workload.synth_config(seed))
    if workload.box_captions:
        preds = with_box_captions(preds, seed)
    return gts, preds


def write_inputs(workload: Workload, seed: int, gt_path: str, pred_path: str):
    """Write the eval workloads' input files; returns (gts, preds)."""
    from densevoc import formats

    gts, preds = make_records(workload, seed)
    formats.save_dataset(gts, gt_path)
    formats.save_dataset(preds, pred_path)
    return gts, preds


def workload_facts(gts, preds, paths) -> dict:
    """Exact counts that identify the work, so runs on two commits can be compared."""

    def boxes(records):
        return sum(len(t.detections) for r in records for t in r.trajectories)

    captions = set()
    for r in list(gts) + list(preds):
        for t in r.trajectories:
            if t.caption is not None:
                captions.add(t.caption.raw)
            captions.update(d.caption.raw for d in t.detections if d.caption is not None)
    gt_frames = set()
    for r in gts:
        for t in r.trajectories:
            gt_frames.update((r.video_id, d.frame) for d in t.detections)
    return {
        "videos": len(gts),
        "frames": sum(r.num_frames for r in gts),
        "frames_with_gt": len(gt_frames),
        "gt_boxes": boxes(gts),
        "pred_boxes": boxes(preds),
        "distinct_captions": len(captions),
        "dataset_bytes": sum(os.path.getsize(p) for p in paths),
    }
