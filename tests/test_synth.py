from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from densevoc.core import ValidationError
from densevoc.formats import save_dataset
from densevoc.synth import SynthConfig, generate
from oracles import as_records, dataset_to_obj, generate_oracle

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_same_seed_same_output() -> None:
    cfg = SynthConfig(seed=9, num_videos=2, frames_per_video=8, objects_per_video=3,
                      box_jitter_sigma=1.0, drop_rate=0.2, false_positive_rate=0.2,
                      id_switch_rate=0.2, caption_corruption_rate=0.5)
    first = generate(cfg)
    second = generate(cfg)
    assert dataset_to_obj(first[0]) == dataset_to_obj(second[0])
    assert dataset_to_obj(first[1]) == dataset_to_obj(second[1])


def test_different_seed_different_output() -> None:
    a, _ = generate(SynthConfig(seed=1, num_videos=1))
    b, _ = generate(SynthConfig(seed=2, num_videos=1))
    assert dataset_to_obj(a) != dataset_to_obj(b)


def test_zero_rates_keep_geometry_identities_captions() -> None:
    gts, preds = generate(SynthConfig(seed=5, num_videos=2))
    for gt, pred in zip(gts, preds):
        gt_tracks = {t.track_id: t for t in gt.trajectories}
        assert {t.track_id for t in pred.trajectories} == set(gt_tracks)
        for track in pred.trajectories:
            twin = gt_tracks[track.track_id]
            assert track.caption == twin.caption
            assert track.frames == twin.frames
            assert [d.box for d in track.detections] == [d.box for d in twin.detections]


def test_drop_rate_one_removes_everything() -> None:
    _, preds = generate(SynthConfig(seed=5, num_videos=2, drop_rate=1.0))
    assert all(len(p.trajectories) == 0 for p in preds)


def test_golden_seed42_files_match_bytewise(tmp_path) -> None:
    cfg = SynthConfig(
        seed=42,
        num_videos=3,
        frames_per_video=12,
        objects_per_video=3,
        box_jitter_sigma=1.5,
        drop_rate=0.1,
        false_positive_rate=0.1,
        id_switch_rate=0.1,
        caption_corruption_rate=0.3,
    )
    gts, preds = generate(cfg)
    save_dataset(gts, tmp_path / "gt.json")
    save_dataset(preds, tmp_path / "pred.json")
    assert (tmp_path / "gt.json").read_bytes() == (FIXTURES / "golden_seed42_gt.json").read_bytes()
    assert (tmp_path / "pred.json").read_bytes() == (FIXTURES / "golden_seed42_pred.json").read_bytes()


def test_config_validation() -> None:
    with pytest.raises(ValidationError):
        SynthConfig(drop_rate=1.5)
    with pytest.raises(ValidationError):
        SynthConfig(box_jitter_sigma=-1.0)
    with pytest.raises(ValidationError):
        SynthConfig(num_videos=0)
    with pytest.raises(ValidationError, match="seed"):
        SynthConfig(seed=-1)
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="box_jitter_sigma"):
            SynthConfig(box_jitter_sigma=sigma)


def test_boxes_stay_on_canvas_and_valid() -> None:
    gts, preds = generate(SynthConfig(seed=3, num_videos=2, box_jitter_sigma=4.0))
    for record in list(gts) + list(preds):
        for track in record.trajectories:
            for det in track.detections:
                assert det.box.x1 <= det.box.x2 and det.box.y1 <= det.box.y2


# objects, frames, drop, FP, id switch, jitter: every combination of the
# values that change which draws happen, with a seed of its own each.
ORACLE_GRID = list(itertools.product((1, 3), (1, 20), (0.0, 1.0), (0.0, 1.0), (0.0, 0.5), (0.0, 2.0, 30.0)))


def test_generate_equals_generator_oracle() -> None:
    for seed, (objects, frames, drop, fp, switch, jitter) in enumerate(ORACLE_GRID):
        cfg = SynthConfig(seed=seed, num_videos=2, frames_per_video=frames, objects_per_video=objects,
                          box_jitter_sigma=jitter, drop_rate=drop, false_positive_rate=fp,
                          id_switch_rate=switch, caption_corruption_rate=0.5)
        gts, preds = generate(cfg)
        assert (as_records(gts), as_records(preds)) == generate_oracle(cfg), cfg


def test_synth20_fixture_matches_bytewise(tmp_path) -> None:
    gts, _ = generate(SynthConfig(seed=20, num_videos=20, frames_per_video=20, objects_per_video=4))
    save_dataset(gts, tmp_path / "gt.json")
    assert (tmp_path / "gt.json").read_bytes() == (FIXTURES / "synth20_gt.json").read_bytes()


def test_false_positives_never_join_a_track() -> None:
    # With 1000 objects the prediction labels reach 1000, where false
    # positive ids used to start.
    objects, frames = 1000, 2
    _, (pred,) = generate(SynthConfig(seed=5, num_videos=1, frames_per_video=frames,
                                      objects_per_video=objects, false_positive_rate=1.0))
    fp = pred.track_ids > objects
    assert fp.sum() == objects * frames  # one false positive per object and frame
    assert (np.diff(pred.offsets)[fp] == 1).all()
    assert len(np.unique(pred.track_ids)) == len(pred.track_ids)
    assert (np.diff(pred.offsets)[~fp] == frames).all()  # the real tracks keep their boxes only
