"""Output checks. Any failure here counts the operation as failed.

The first successful operation of a run gets the full check: the invariants
below on every seed, plus the pinned SHA-256 of each output at the default
seed. Every later operation, traced or not, must write byte-identical files,
which extends the full check to it and proves tracing changes no output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class CheckFailed(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _in_unit(name: str, values) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not (0.0 <= v <= 1.0):
            raise CheckFailed(f"{name} = {v!r} is outside [0, 1]")


def check_chota_report(path: Path, facts: dict) -> None:
    report = json.loads(path.read_text())
    per_alpha = report["per_alpha"]
    for a, alpha in enumerate(report["alphas"]):
        tp, fp, fn = per_alpha["tp"][a], per_alpha["fp"][a], per_alpha["fn"][a]
        if tp + fn != facts["gt_boxes"]:
            raise CheckFailed(f"alpha {alpha}: tp + fn = {tp + fn} != {facts['gt_boxes']} gt boxes")
        if tp + fp != facts["pred_boxes"]:
            raise CheckFailed(f"alpha {alpha}: tp + fp = {tp + fp} != {facts['pred_boxes']} pred boxes")
    for key in ("det_a", "ass_a", "cap_a"):
        _in_unit(f"per_alpha.{key}", per_alpha[key])
    for key in ("det_a", "ass_a", "cap_a", "hota", "chota"):
        _in_unit(f"aggregate.{key}", [report["aggregate"][key]])
    if len(report["per_video"]) != facts["videos"]:
        raise CheckFailed(f"{len(report['per_video'])} videos reported, {facts['videos']} evaluated")
    for video_id, video in report["per_video"].items():
        _in_unit(f"per_video[{video_id}]", [video["det_a"], video["ass_a"], video["cap_a"]])


def check_apm_report(path: Path, facts: dict) -> None:
    report = json.loads(path.read_text())
    _in_unit("ap_m", [report["ap_m"]])
    for row in report["grid"]:
        _in_unit("grid", row)
    if report["num_frames"] != facts["frames_with_gt"]:
        raise CheckFailed(f"num_frames {report['num_frames']} != {facts['frames_with_gt']} frames with gt")


def _file_form(records) -> list:
    """What the dataset format stores of each record, in the benchmark's own terms."""

    def raw(caption):
        return None if caption is None else caption.raw

    return [
        (r.video_id, r.num_frames, [
            (t.track_id, raw(t.caption), [
                (d.frame, d.box.as_tuple(), d.score, raw(d.caption)) for d in t.detections
            ])
            for t in r.trajectories
        ])
        for r in records
    ]


def check_synth_files(gt_path: Path, pred_path: Path, gts, preds) -> None:
    """The files reload under strict parsing to the records synth generates.

    Records are compared in file form: synth leaves ``Detection.track_id``
    unset on predictions, which the file format implies from the enclosing
    track, so dataclass equality would fail on that alone.
    """
    from densevoc import formats

    for path, expected in ((gt_path, gts), (pred_path, preds)):
        if _file_form(formats.load_dataset(path, strict=True)) != _file_form(expected):
            raise CheckFailed(f"{path.name} does not reload to the generated records")


def check_pinned(hashes: dict, pinned: dict | None) -> None:
    if hashes != pinned:
        raise CheckFailed(f"output hashes {hashes} differ from pinned {pinned}")
