from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from densevoc.cli import build_parser, main
from densevoc.core import Box, Caption, Detection, Trajectory, VideoRecord
from densevoc.formats import load_dataset, save_dataset, save_matrix
from densevoc.synth import SynthConfig, generate

from densevoc import aggregate, assoc, formats, ground, losses, metrics

from conftest import OVER_BUDGET_PAIR, make_track, make_video
from oracles import ground_oracle, track_iou_oracle

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_eval_chota_gt_as_its_own_pred(tmp_path, capsys) -> None:
    gt = str(FIXTURES / "synth20_gt.json")
    out = tmp_path / "report.json"
    code = main(["eval-chota", gt, gt, "--cap-metrics", "exact", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "chota=1.0" in stdout
    report = json.loads(out.read_text())
    assert report["aggregate"]["chota"] == 1.0
    summary_text = Path(str(out) + ".summary").read_text()
    assert "chota=1.0" in summary_text


def test_eval_warns_about_caption_pairs_past_the_search_budget(tmp_path, capsys) -> None:
    pred_caption, gt_caption = (" ".join(tokens) for tokens in OVER_BUDGET_PAIR)
    boxes = [(f, 10.0, 10.0, 30.0, 30.0) for f in range(3)]
    gt, pred, out = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "report.json"
    save_dataset([make_video(v, [make_track(1, boxes, gt_caption)], 3) for v in ("v0", "v1")], gt)
    save_dataset([make_video(v, [make_track(1, boxes, pred_caption)], 3) for v in ("v0", "v1")], pred)
    assert main(["eval-chota", str(gt), str(pred), "--jobs", "1", "--out", str(out)]) == 0
    budget = "1 caption pairs ran past the METEOR chunk-search budget"
    assert capsys.readouterr().err.count(budget) == 2
    assert [w[:4] for w in json.loads(out.read_text())["warnings"] if budget in w] == ["v0: ", "v1: "]
    assert main(["eval-apm", str(gt), str(pred)]) == 0
    assert capsys.readouterr().err == f"warning: {budget}; their chunk counts are upper bounds and their METEOR lower bounds\n"


def test_eval_chota_gate_failure_exit_code(tmp_path) -> None:
    gt = str(FIXTURES / "golden_seed42_gt.json")
    pred = str(FIXTURES / "golden_seed42_pred.json")
    assert main(["eval-chota", gt, pred, "--gate", "chota:0.99"]) == 1
    assert main(["eval-chota", gt, pred, "--gate", "chota:0.01"]) == 0


def test_eval_chota_malformed_file_exit_2(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval-chota", str(bad), str(bad)]) == 2


def test_eval_chota_missing_file_exit_2(tmp_path) -> None:
    assert main(["eval-chota", str(tmp_path / "none.json"), str(tmp_path / "none.json")]) == 2


def test_eval_chota_jobs_bit_identical(tmp_path) -> None:
    gt = str(FIXTURES / "golden_seed42_gt.json")
    pred = str(FIXTURES / "golden_seed42_pred.json")
    out1 = tmp_path / "r1.json"
    out4 = tmp_path / "r4.json"
    assert main(["eval-chota", gt, pred, "--jobs", "1", "--out", str(out1)]) == 0
    assert main(["eval-chota", gt, pred, "--jobs", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_eval_apm_perfect(tmp_path, capsys) -> None:
    gt = str(FIXTURES / "synth20_gt.json")
    code = main(["eval-apm", gt, gt])
    assert code == 0
    assert "ap_m=1.0" in capsys.readouterr().out


def test_eval_apm_prints_pairing_warnings(tmp_path, capsys) -> None:
    gt = str(FIXTURES / "golden_seed42_gt.json")
    preds = load_dataset(FIXTURES / "golden_seed42_pred.json")
    save_dataset(preds[1:] + [make_video("zzz", [], 1)], tmp_path / "pred.json")
    out = tmp_path / "apm.json"
    assert main(["eval-apm", gt, str(tmp_path / "pred.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: predictions for unknown videos ignored: ['zzz']\n"
        f"warning: no predictions for video {preds[0].video_id!r}; counting all-FN\n"
    )
    assert "warnings" not in json.loads(out.read_text())


def test_eval_apm_report_without_gt_frames_is_strict_json(tmp_path, capsys) -> None:
    gt = _write(tmp_path / "gt.json", [{"video_id": "v0", "num_frames": 3, "tracks": []}])
    out = tmp_path / "apm.json"
    assert main(["eval-apm", gt, gt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "ap_m=nan\nframes=0\n"

    def reject(token):
        raise ValueError(f"not a JSON number: {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["ap_m"] is None
    assert report["grid"] == [[None] * 5] * 5
    assert report["num_frames"] == 0


def test_track_assign_fixture(tmp_path, capsys) -> None:
    values = np.full((4, 4), 0.1)
    np.fill_diagonal(values, 1.0)
    values[0, 2] = values[2, 0] = 0.9
    values[1, 3] = values[3, 1] = 0.8
    matrix_path = tmp_path / "assoc.json"
    save_matrix("v0", np.array([0, 0, 1, 1]), values, matrix_path, "assoc")

    out = tmp_path / "ids.json"
    assert main(["track-assign", str(matrix_path), "--theta", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ids"] == [1, 2, 1, 2]

    assert main(["track-assign", str(matrix_path), "--theta", "0.95", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ids"] == [1, 2, 3, 4]

    assert main(["track-assign", str(matrix_path), "--theta", "1.5"]) == 2


def test_track_assign_singleton(tmp_path) -> None:
    matrix_path = tmp_path / "one.json"
    save_matrix("v0", np.array([0]), np.array([[0.2]]), matrix_path, "assoc")
    out = tmp_path / "ids.json"
    assert main(["track-assign", str(matrix_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ids"] == [1]


def test_track_iou_assigns_ids(tmp_path) -> None:
    detections = [
        {
            "video_id": "v0",
            "num_frames": 3,
            "tracks": [
                {"track_id": k + 1, "boxes": [{"frame": k, "box": [0, 0, 10, 10]}]}
                for k in range(3)
            ],
        }
    ]
    src = tmp_path / "dets.json"
    src.write_text(json.dumps(detections))
    out = tmp_path / "linked.json"
    assert main(["track-iou", str(src), "--thresh", "0.5", "--out", str(out)]) == 0
    linked = load_dataset(out)
    assert len(linked[0].trajectories) == 1
    assert linked[0].trajectories[0].frames == (0, 1, 2)


def _tracking_input(rng: np.random.Generator, video_id: str) -> dict:
    """Drifting and jumping boxes in 40 frames: frames 0-1, 9, 15-18 and 36-39 hold none."""
    holding = [f for f in range(2, 36) if f != 9 and not 15 <= f <= 18]
    tracks = []
    for k in range(int(rng.integers(2, 6))):
        x, y = rng.uniform(0, 300, size=2)
        boxes = []
        for frame in holding:
            if rng.random() < 0.1:
                x, y = rng.uniform(0, 300, size=2)  # a jump, which opens a new track
            else:
                x, y = x + rng.uniform(-3, 3), y + rng.uniform(-3, 3)
            if k == 0 or rng.random() < 0.8:
                box = {"frame": frame, "box": [x, y, x + 30, y + 30], "score": rng.random()}
                if rng.random() < 0.3:
                    box["caption"] = ["a dog runs", "a red car", "someone waves"][int(rng.integers(3))]
                boxes.append(box)
        tracks.append({"track_id": int(rng.integers(1, 10**6)) * 8 + k, "caption": "a track caption", "boxes": boxes})
    tracks = [tracks[i] for i in rng.permutation(len(tracks))]  # file order within a frame is not id order
    return {"video_id": video_id, "num_frames": 40, "tracks": tracks}


@pytest.mark.parametrize("seed", range(4))
def test_track_iou_matches_oracle_bytes(tmp_path, seed) -> None:
    rng = np.random.default_rng(seed)
    src = _write(tmp_path / "dets.json", [_tracking_input(rng, f"v{v}") for v in range(3)])
    for thresh in ("0.3", "0.6"):
        out, expected = tmp_path / "linked.json", tmp_path / "expected.json"
        assert main(["track-iou", src, "--thresh", thresh, "--out", str(out)]) == 0
        save_dataset(track_iou_oracle(load_dataset(src), float(thresh)), expected)
        assert out.read_bytes() == expected.read_bytes()


def _rows_with_effective_caption(path) -> list:
    """(video, frame, box, caption) per row of a dataset file; the caption is the box's own, else its track's."""
    rows = []
    for video in json.loads(Path(path).read_text()):
        for track in video["tracks"]:
            for box in track["boxes"]:
                caption = track.get("caption") if box.get("caption") is None else box["caption"]
                rows.append((video["video_id"], box["frame"], box["box"], caption))
    return sorted(rows)


def test_track_iou_keeps_every_input_caption(tmp_path) -> None:
    rng = np.random.default_rng(5)
    videos = [_tracking_input(rng, f"v{v}") for v in range(3)]
    src, out = _write(tmp_path / "dets.json", videos), tmp_path / "linked.json"
    assert main(["track-iou", src, "--out", str(out)]) == 0
    assert _rows_with_effective_caption(out) == _rows_with_effective_caption(src)
    assert {caption for *_, caption in _rows_with_effective_caption(out)} == {
        "a track caption", "a dog runs", "a red car", "someone waves"}
    # Without captions in, none come out.
    for video in videos:
        for track in video["tracks"]:
            track.pop("caption")
            for box in track["boxes"]:
                box.pop("caption", None)
    assert main(["track-iou", _write(tmp_path / "bare.json", videos), "--out", str(out)]) == 0
    assert "caption" not in out.read_text()


def test_commands_build_no_record_objects(tmp_path, monkeypatch) -> None:
    # These commands run on column tables and corner rows, so none of them builds a Box or a record,
    # not even to name the first bad element of a malformed file.
    def built(self, *args, **kwargs) -> None:
        raise AssertionError(f"built {type(self).__name__}")

    for cls in (Box, Caption, Detection, Trajectory, VideoRecord):
        monkeypatch.setattr(cls, "__init__", built)
    gt, pred = str(tmp_path / "gt.json"), str(tmp_path / "pred.json")
    assert main(["synth", "--seed", "3", "--num-videos", "2", "--frames", "12", "--box-jitter", "2",
                 "--fp-rate", "0.1", "--out-gt", gt, "--out-pred", pred]) == 0
    assert main(["eval-chota", gt, pred]) == 0
    assert main(["eval-apm", gt, pred]) == 0
    dets = _write(tmp_path / "dets.json", [_tracking_input(np.random.default_rng(0), "v0")])
    for src in (pred, dets):
        assert main(["track-iou", src, "--out", str(tmp_path / "linked.json")]) == 0
    pred, queries, likelihoods = _grounding_files(tmp_path, np.random.default_rng(0))
    for mode in ("per-frame", "per-track"):
        assert main(["ground", pred, "--queries", queries, "--likelihoods", likelihoods, "--mode", mode]) == 0
    flat = tmp_path / "flat.csv"
    convert = ["convert-flat", str(flat), "--video-id", "v0", "--one-based", "--out", str(tmp_path / "flat.json")]
    flat.write_text("1,7,10,20,30,40,0.9\n2,7,12,20,30,40,0.8\n1,9,100,100,10,10\n")
    assert main(convert) == 0
    flat.write_text("1,7,10,20,30,40,0.9\n2,7,12,20,30,40,1.5\nx\n")
    assert main(convert) == 2

    def malformed(data) -> None:  # a broken rule before a schema error
        data[0]["tracks"][1]["boxes"][0]["score"] = 1.5
        del data[0]["tracks"][2]["boxes"][0]["frame"]

    assert main(["eval-chota", _SYNTH_GT, _gt_with(tmp_path, malformed)]) == 2


def test_aggregate_soft_and_hard(tmp_path) -> None:
    values = np.array([[1.0, 0.5], [0.5, 1.0]])
    matrix_path = tmp_path / "assoc.json"
    save_matrix("v0", np.array([0, 1]), values, matrix_path, "assoc")
    feat_path = tmp_path / "features.json"
    save_matrix("v0", np.array([0, 1]), np.array([[0.0, 0.0], [3.0, 3.0]]), feat_path, kind="features")

    soft_out = tmp_path / "soft.json"
    code = main(
        ["aggregate", str(feat_path), "--matrix", str(matrix_path), "--mode", "soft", "--out", str(soft_out)]
    )
    assert code == 0
    soft = json.loads(soft_out.read_text())
    assert soft["values"] == pytest.approx([1.0, 1.0, 2.0, 2.0])

    hard_out = tmp_path / "hard.json"
    code = main(
        [
            "aggregate", str(feat_path), "--matrix", str(matrix_path),
            "--mode", "hard", "--m", "2", "--out", str(hard_out),
        ]
    )
    assert code == 0
    hard = json.loads(hard_out.read_text())
    assert hard["tracks"][0]["values"] == pytest.approx([0.0, 0.0, 3.0, 3.0])


def test_aggregate_hard_from_ids_file(tmp_path, capsys) -> None:
    out = tmp_path / "hard.json"
    assert main(_aggregate_ids_files(tmp_path, {"ids": [1, 1]}) + ["--out", str(out)]) == 0
    hard = json.loads(out.read_text())
    assert hard["tracks"][0]["values"] == pytest.approx([0.0, 0.0, 3.0, 3.0])


def test_ground_command(tmp_path, capsys) -> None:
    pred = [
        {
            "video_id": "v0",
            "num_frames": 2,
            "tracks": [
                {"track_id": 1, "boxes": [
                    {"frame": 0, "box": [0, 0, 10, 10], "score": 0.5},
                    {"frame": 1, "box": [0, 0, 10, 10], "score": 0.5},
                ]},
                {"track_id": 2, "boxes": [
                    {"frame": 0, "box": [50, 50, 60, 60], "score": 0.5},
                    {"frame": 1, "box": [50, 50, 60, 60], "score": 0.5},
                ]},
            ],
        }
    ]
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    queries = [
        {
            "video_id": "v0",
            "query_id": "q1",
            "text": "the stationary box",
            "span": [0, 1],
            "boxes": [
                {"frame": 0, "box": [0, 0, 10, 10]},
                {"frame": 1, "box": [0, 0, 10, 10]},
            ],
        }
    ]
    queries_path = tmp_path / "queries.json"
    queries_path.write_text(json.dumps(queries))
    nll = [
        {"video_id": "v0", "frame": f, "observation_index": k, "query_id": "q1", "nll": 0.1 if k == 0 else 4.0}
        for f in range(2)
        for k in range(2)
    ]
    nll_path = tmp_path / "nll.json"
    nll_path.write_text(json.dumps(nll))

    out = tmp_path / "grounded.json"
    code = main(
        ["ground", str(pred_path), "--queries", str(queries_path), "--likelihoods", str(nll_path), "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "s_iou=1.0" in stdout
    results = json.loads(out.read_text())
    assert results[0]["selections"]["0"]["index"] == 0


def test_ground_per_track_mode(tmp_path, capsys) -> None:
    pred = [
        {
            "video_id": "v0",
            "num_frames": 1,
            "tracks": [
                {"track_id": 1, "boxes": [{"frame": 0, "box": [0, 0, 10, 10], "score": 0.5}]},
                {"track_id": 2, "boxes": [{"frame": 0, "box": [50, 50, 60, 60], "score": 0.5}]},
            ],
        }
    ]
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    queries_path = tmp_path / "queries.json"
    queries_path.write_text(
        json.dumps(
            [{"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0],
              "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]}]
        )
    )
    nll_path = tmp_path / "nll.json"
    nll_path.write_text(
        json.dumps(
            [
                {"video_id": "v0", "track_id": 1, "query_id": "q1", "nll": 0.2},
                {"video_id": "v0", "track_id": 2, "query_id": "q1", "nll": 3.0},
            ]
        )
    )
    code = main(
        ["ground", str(pred_path), "--queries", str(queries_path), "--likelihoods", str(nll_path), "--mode", "per-track"]
    )
    assert code == 0
    assert "s_iou=1.0" in capsys.readouterr().out


def _grounding_files(tmp_path, rng: np.random.Generator, n_videos: int = 3) -> list[str]:
    """Predictions, queries and likelihoods (per frame and per track) for ``ground``.

    The videos have frames without boxes; query spans may cover them, query
    boxes reach outside the spans, and one query names a video without
    predictions.
    """
    videos = [_tracking_input(rng, f"v{v}") for v in range(n_videos)]
    queries, likelihoods = [], []
    for video in videos:
        per_frame: dict[int, int] = {}
        for track in video["tracks"]:
            for box in track["boxes"]:
                per_frame[box["frame"]] = per_frame.get(box["frame"], 0) + 1
        for q in range(int(rng.integers(1, 4))):
            start = int(rng.integers(0, 36))
            end = int(rng.integers(start, 40))
            # The query follows one track, shifted, with a fixed box where the track has none.
            track = {b["frame"]: b["box"] for b in video["tracks"][q % len(video["tracks"])]["boxes"]}
            frames = range(max(0, start - 2), min(40, end + 3))  # boxes beyond the span too
            queries.append({"video_id": video["video_id"], "query_id": f"q{q}", "text": "a dog runs", "span": [start, end],
                            "boxes": [{"frame": f, "box": [v + q for v in track.get(f, [0, 0, 30, 30])]}
                                      for f in frames]})
            likelihoods += [{"video_id": video["video_id"], "frame": f, "observation_index": k, "query_id": f"q{q}",
                             "nll": rng.uniform(0, 5)} for f, n in per_frame.items() for k in range(n)]
            likelihoods += [{"video_id": video["video_id"], "track_id": t["track_id"], "query_id": f"q{q}",
                             "nll": rng.uniform(0, 5)} for t in video["tracks"]]
    queries.insert(1, {"video_id": "missing", "query_id": "q0", "text": "x", "span": [0, 0],
                       "boxes": [{"frame": 0, "box": [0, 0, 1, 1]}]})
    return [_write(tmp_path / "pred.json", videos), _write(tmp_path / "queries.json", queries),
            _write(tmp_path / "nll.json", likelihoods)]


@pytest.mark.parametrize("seed", range(4))
def test_ground_matches_oracle_bytes(tmp_path, capsys, seed) -> None:
    pred, queries, likelihoods = _grounding_files(tmp_path, np.random.default_rng(seed))
    out = tmp_path / "grounded.json"
    for mode in ("per-frame", "per-track"):
        argv = ["ground", pred, "--queries", queries, "--likelihoods", likelihoods, "--mode", mode]
        assert main(argv + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        expected_out, expected_stdout = ground_oracle(pred, queries, likelihoods, mode)
        assert out.read_text() == expected_out
        assert captured.out == expected_stdout
        assert captured.err == "warning: no predictions for video 'missing'\n"
        # Some selections fall past the first candidate, and some span frames hold no boxes.
        assert '"index": 1' in expected_out and '": []' in expected_out


def test_ground_checks_each_nll_once(tmp_path, monkeypatch) -> None:
    # Load checks each likelihood record and selection each NLL it reads; nothing checks the table again per video.
    calls = []
    check = ground.check_nll
    for module in (formats, ground):
        monkeypatch.setattr(module, "check_nll", lambda nll: calls.append(check(nll)))
    pred, queries, likelihoods = _grounding_files(tmp_path, np.random.default_rng(0), n_videos=4)
    assert len({q["video_id"] for q in json.loads(Path(queries).read_text())}) == 5
    records = len(json.loads(Path(likelihoods).read_text()))
    out = tmp_path / "grounded.json"
    for mode in ("per-frame", "per-track"):
        calls.clear()
        assert main(["ground", pred, "--queries", queries, "--likelihoods", likelihoods, "--mode", mode,
                     "--out", str(out)]) == 0
        read = sum(len(values) for result in json.loads(out.read_text()) for values in result["values"].values())
        assert read > 0
        assert records <= len(calls) <= records + read


def test_synth_golden_files_bytewise(tmp_path) -> None:
    out_gt = tmp_path / "gt.json"
    out_pred = tmp_path / "pred.json"
    code = main(
        [
            "synth", "--seed", "42", "--num-videos", "3", "--frames", "12", "--objects", "3",
            "--box-jitter", "1.5", "--drop-rate", "0.1", "--fp-rate", "0.1",
            "--id-switch-rate", "0.1", "--caption-corruption-rate", "0.3",
            "--out-gt", str(out_gt), "--out-pred", str(out_pred),
        ]
    )
    assert code == 0
    assert out_gt.read_bytes() == (FIXTURES / "golden_seed42_gt.json").read_bytes()
    assert out_pred.read_bytes() == (FIXTURES / "golden_seed42_pred.json").read_bytes()


def test_synth_default_flags_write_the_default_config(tmp_path) -> None:
    out_gt, out_pred = tmp_path / "gt.json", tmp_path / "pred.json"
    assert main(["synth", "--out-gt", str(out_gt), "--out-pred", str(out_pred)]) == 0
    gts, preds = generate(SynthConfig())
    save_dataset(gts, tmp_path / "want_gt.json")
    save_dataset(preds, tmp_path / "want_pred.json")
    assert out_gt.read_bytes() == (tmp_path / "want_gt.json").read_bytes()
    assert out_pred.read_bytes() == (tmp_path / "want_pred.json").read_bytes()


def test_synth_drop_rate_one(tmp_path) -> None:
    out_gt = tmp_path / "gt.json"
    out_pred = tmp_path / "pred.json"
    code = main(
        ["synth", "--seed", "1", "--drop-rate", "1.0", "--out-gt", str(out_gt), "--out-pred", str(out_pred)]
    )
    assert code == 0
    assert all(not v["tracks"] for v in json.loads(out_pred.read_text()))


def test_convert_flat_records(tmp_path) -> None:
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "# frame,track,x,y,w,h,score\n"
        "1,7,10,20,30,40,0.9\n"
        "2,7,12,20,30,40,0.8\n"
        "1,9,100,100,10,10\n"
    )
    out = tmp_path / "dataset.json"
    code = main(
        ["convert-flat", str(flat), "--video-id", "v7", "--one-based", "--out", str(out)]
    )
    assert code == 0
    records = load_dataset(out)
    assert records[0].video_id == "v7"
    assert records[0].num_frames == 2
    track = next(t for t in records[0].trajectories if t.track_id == 7)
    assert track.frames == (0, 1)
    assert track.detections[0].box.x2 == 40.0  # xywh converted to corners

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    assert main(["convert-flat", str(bad), "--video-id", "v", "--out", str(out)]) == 2


def test_verify_losses_fails_on_a_nan_gradient(monkeypatch, capsys) -> None:
    monkeypatch.setattr(losses, "caption_loss_grad", lambda v, *rest, **fixed: np.full_like(v, np.nan))
    assert main(["verify-losses", "--seeds", "3"]) == 1
    out = capsys.readouterr().out
    assert "caption_loss   max_rel_err=nan over 3 seeds: FAIL" in out
    assert out.count("PASS") == 3


def test_verify_losses_fails_on_a_nan_after_the_first_seed(monkeypatch, capsys) -> None:
    errors = iter([0.0, np.nan, 0.0] * 4)
    monkeypatch.setattr(losses, "finite_diff_check", lambda f, grad_f, point: next(errors))
    assert main(["verify-losses", "--seeds", "3"]) == 1
    assert capsys.readouterr().out.count("max_rel_err=nan over 3 seeds: FAIL") == 4


def test_verify_losses_passes(capsys) -> None:
    assert main(["verify-losses", "--seeds", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


_NO_SCIPY_SUBMODULES = """
import sys
from densevoc import cli

assert cli.main(["synth", "--seed", "3", "--num-videos", "2", "--frames", "10", "--objects", "3",
                 "--out-gt", "gt.json", "--out-pred", "pred.json"]) == 0
for argv in (["eval-chota", "gt.json", "pred.json"], ["eval-apm", "gt.json", "pred.json"],
             ["track-iou", "pred.json", "--out", "linked.json"], ["verify-losses", "--seeds", "2"]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules))
"""


def test_commands_load_no_scipy_submodule(tmp_path) -> None:
    # Running the commands, not only importing the CLI, also catches an import inside a function.
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_SUBMODULES], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


_NO_MASKED_ARRAYS = """
import sys
from densevoc import cli

for command in ("eval-chota", "eval-apm"):
    assert cli.main([command, sys.argv[1], sys.argv[2]]) == 0, command
print("numpy.ma" in sys.modules)
"""


def test_evaluation_loads_no_masked_array_module(tmp_path) -> None:
    # numpy.ma costs 8-16 ms to import, and only a flagless np.unique would load it.
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    gt, pred = (str(FIXTURES / f"golden_seed42_{kind}.json") for kind in ("gt", "pred"))
    result = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, gt, pred], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_summary_keys_name_the_threshold_read(tmp_path, capsys) -> None:
    gt = str(FIXTURES / "golden_seed42_gt.json")
    pred = str(FIXTURES / "golden_seed42_pred.json")
    out = tmp_path / "report.json"
    assert main(["eval-chota", gt, pred, "--alphas", "0.9", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = json.loads(out.read_text())["per_alpha"]
    for key in ("tp", "fp", "fn", "tp_prime"):
        assert f"{key}@0.9={int(counts[key][0])}" in lines
    assert not any(line.startswith("tp@0.5") for line in lines)


def test_jobs_env_default(monkeypatch, capsys) -> None:
    # Without --jobs the command parses DENSEVOC_JOBS, like every numeric flag; the evaluation sees the number.
    monkeypatch.setenv("DENSEVOC_JOBS", "3")
    assert build_parser().parse_args(["eval-chota", "a.json", "b.json"]).jobs is None
    seen, chota = [], metrics.chota

    def recorded(*args, jobs, **kwargs):
        seen.append(jobs)
        return chota(*args, jobs=1, **kwargs)

    monkeypatch.setattr(metrics, "chota", recorded)
    assert main(["eval-chota", _SYNTH_GT, _SYNTH_GT]) == 0
    assert seen == [3]


def test_jobs_env_value_that_is_not_a_count_exits_2(monkeypatch, capsys) -> None:
    monkeypatch.setenv("DENSEVOC_JOBS", "abc")
    assert main(["eval-chota", _SYNTH_GT, _SYNTH_GT]) == 2
    assert capsys.readouterr().err == "error: DENSEVOC_JOBS: expected an integer, got 'abc'\n"
    monkeypatch.setenv("DENSEVOC_JOBS", "-4")
    assert main(["eval-chota", _SYNTH_GT, _SYNTH_GT]) == 2
    assert capsys.readouterr().err == "error: DENSEVOC_JOBS: -4 is outside [1, inf]\n"
    # A --jobs flag overrides the variable, and its errors name the flag.
    assert main(["eval-chota", _SYNTH_GT, _SYNTH_GT, "--jobs", "x"]) == 2
    assert capsys.readouterr().err == "error: --jobs: expected an integer, got 'x'\n"
    assert main(["eval-chota", _SYNTH_GT, _SYNTH_GT, "--jobs", "1"]) == 0


def test_aggregate_hard_defaults_to_m_6_and_theta_0_5(tmp_path, capsys) -> None:
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert main(_aggregate_given(tmp_path, "hard", "--matrix") + ["--out", str(default)]) == 0
    argv = _aggregate_given(tmp_path, "hard", "--matrix") + ["--m", "6", "--theta", "0.5", "--out", str(explicit)]
    assert main(argv) == 0
    assert json.loads(default.read_text())["m"] == 6
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("command", ["eval-chota", "eval-apm", "ground", "track-iou"])
def test_huge_num_frames_costs_only_frames_with_boxes(tmp_path, capsys, command) -> None:
    # One box in a 2**40-frame video: no command may allocate or loop per frame.
    video = [{"video_id": "v0", "num_frames": 2**40, "tracks": [
        {"track_id": 1, "caption": "a dog runs", "boxes": [{"frame": 7, "box": [0, 0, 10, 10]}]},
    ]}]
    path = _write(tmp_path / "huge.json", video)
    argv = [command, path, path]
    if command == "ground":
        queries = [{"video_id": "v0", "query_id": "q1", "text": "a dog", "span": [7, 7],
                    "boxes": [{"frame": 7, "box": [0, 0, 10, 10]}]}]
        likelihoods = [{"video_id": "v0", "frame": 7, "observation_index": 0, "query_id": "q1", "nll": 0.1}]
        argv = [command, path, "--queries", _write(tmp_path / "queries.json", queries),
                "--likelihoods", _write(tmp_path / "nll.json", likelihoods)]
    if command == "track-iou":
        argv = [command, path, "--out", str(tmp_path / "linked.json")]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr().out
    expected = {"eval-chota": ["tp@0.5=1"], "eval-apm": ["ap_m=1.0", "frames=1"], "ground": ["s_iou=1.0"],
                "track-iou": ["videos=1"]}
    assert all(line in out for line in expected[command])


def _write(path: Path, obj) -> str:
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def _ground_files(tmp_path, queries=None, likelihoods=None) -> list[str]:
    pred = [{"video_id": "v0", "num_frames": 1, "tracks": [
        {"track_id": 1, "boxes": [{"frame": 0, "box": [0, 0, 10, 10], "score": 0.5}]},
    ]}]
    if queries is None:
        queries = [{"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0],
                    "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]}]
    if likelihoods is None:
        likelihoods = [{"video_id": "v0", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": 0.1}]
    return [
        "ground", _write(tmp_path / "pred.json", pred),
        "--queries", _write(tmp_path / "queries.json", queries),
        "--likelihoods", _write(tmp_path / "nll.json", likelihoods),
    ]


def _gt_with(tmp_path, edit) -> str:
    data = json.loads((FIXTURES / "synth20_gt.json").read_text())
    edit(data)
    return _write(tmp_path / "gt.json", json.dumps(data, allow_nan=True))


def _huge_coordinate_gt(tmp_path) -> str:
    """The synth20 gt with a 401-digit box coordinate, too large for a float."""
    return _gt_with(tmp_path, lambda d: d[0]["tracks"][0]["boxes"][0].update(box=[0, 0, 10**400, 10]))


def _features_file(tmp_path) -> str:
    feat_path = tmp_path / "features.json"
    save_matrix("v0", np.array([0, 1]), np.array([[0.0, 0.0], [3.0, 3.0]]), feat_path, kind="features")
    return str(feat_path)


def _assoc_file(tmp_path, frame_of=(0, 1)) -> str:
    matrix = tmp_path / "assoc.json"
    save_matrix("v0", np.array(frame_of), np.array([[1.0, 0.5], [0.5, 1.0]]), matrix, "assoc")
    return str(matrix)


def _aggregate_given(tmp_path, mode: str, *flags: str, matrix_frames=(0, 1)) -> list[str]:
    """aggregate on the 2-row feature file in ``mode``, with a value for each of ``flags``."""
    values = {"--matrix": _assoc_file(tmp_path, matrix_frames), "--ids": _write(tmp_path / "ids.json", {"ids": [1, 1]}),
              "--m": "2", "--theta": "0.5"}
    return ["aggregate", _features_file(tmp_path), "--mode", mode] + [v for f in flags for v in (f, values[f])]


def _aggregate_ids_files(tmp_path, ids) -> list[str]:
    return ["aggregate", _features_file(tmp_path), "--mode", "hard", "--m", "2", "--ids", _write(tmp_path / "ids.json", ids)]


def _span_query(span) -> list[dict]:
    return [{"video_id": "v0", "query_id": "q1", "text": "x", "span": span,
             "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]}]


def _assoc_matrix_file(tmp_path, **edit) -> list[str]:
    matrix = {"video_id": "v0", "frame_of": [0, 1], "dim": 2, "values": [1.0, 0.5, 0.5, 1.0]}
    text = json.dumps(dict(matrix, **edit)).replace('"INF"', "1e400")
    return ["track-assign", _write(tmp_path / "assoc.json", text)]


def _flat_file(tmp_path, raw: bytes) -> list[str]:
    (tmp_path / "flat.csv").write_bytes(raw)
    return ["convert-flat", str(tmp_path / "flat.csv"), "--video-id", "v", "--out", str(tmp_path / "out.json")]


_SYNTH_GT = str(FIXTURES / "synth20_gt.json")

BAD_INPUTS = {
    "alphas-not-a-number": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--alphas", "0.1,x"],
    "gate-not-a-number": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--gate", "chota:abc"],
    "gate-unknown-chota": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--gate", "chotaa:0.5"],
    "gate-unknown-apm": lambda tmp: ["eval-apm", _SYNTH_GT, _SYNTH_GT, "--gate", "apm:0.5"],
    "gate-without-minimum": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--gate", "chota"],
    "capa-alpha-not-a-number": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--capa-alpha", "single:x"
    ],
    "iou-thresholds-not-a-number": lambda tmp: [
        "eval-apm", _SYNTH_GT, _SYNTH_GT, "--iou-thresholds", "0.5,x"
    ],
    "iou-threshold-above-one": lambda tmp: ["eval-apm", _SYNTH_GT, _SYNTH_GT, "--iou-thresholds", "1.5"],
    "apm-meteor-threshold-negative": lambda tmp: ["eval-apm", _SYNTH_GT, _SYNTH_GT, "--meteor-thresholds", "-0.1"],
    "capa-alpha-off-grid": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--capa-alpha", "single:0.33"],
    "meteor-threshold-not-finite": lambda tmp: [
        "eval-apm", _SYNTH_GT, _SYNTH_GT, "--meteor-thresholds", "0.1,inf"
    ],
    "external-scores-malformed-json": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "meteor,external",
        "--external-scores", _write(tmp / "scores.json", "[{not json"),
    ],
    "likelihoods-malformed-json": lambda tmp: _ground_files(tmp, likelihoods="[{"),
    "queries-malformed-json": lambda tmp: _ground_files(tmp, queries="[1,"),
    "query-not-an-object": lambda tmp: _ground_files(tmp, queries=[7]),
    "query-box-not-an-object": lambda tmp: _ground_files(
        tmp, queries=[{"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0], "boxes": [7]}]
    ),
    "likelihood-record-missing": lambda tmp: _ground_files(tmp, likelihoods=[]),
    "likelihood-record-repeated": lambda tmp: _ground_files(tmp, likelihoods=[
        {"video_id": "v0", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": 0.1},
        {"video_id": "v0", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": 0.7},
    ]),
    "query-id-repeated": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v0", "query_id": "q1", "text": text, "span": [0, 0], "boxes": [{"frame": 0, "box": box}]}
        for text, box in (("x", [0, 0, 10, 10]), ("y", [20, 20, 30, 30]))
    ]),
    "query-box-frame-repeated": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0],
         "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}, {"frame": 0, "box": [5, 5, 20, 20]}]},
    ]),
    "external-score-repeated": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "meteor,external",
        "--external-scores", _write(tmp / "scores.json", [
            {"video_id": "v0", "pred_observation_index": 0, "gt_track_id": 1, "score": s} for s in (0.2, 0.9)
        ]),
    ],
    "box-coordinate-infinite": lambda tmp: [
        "eval-chota", _SYNTH_GT,
        _gt_with(tmp, lambda d: d[0]["tracks"][0]["boxes"][0].update(box=[0, 0, float("inf"), 10])),
    ],
    "video-id-repeated": lambda tmp: ["eval-chota", _gt_with(tmp, lambda d: d.append(d[0])), _SYNTH_GT],
    "aggregate-ids-malformed-json": lambda tmp: _aggregate_ids_files(tmp, '{"ids": [1,'),
    "aggregate-ids-key-missing": lambda tmp: _aggregate_ids_files(tmp, {"tracks": [1, 1]}),
    "aggregate-ids-not-an-object": lambda tmp: _aggregate_ids_files(tmp, [1, 1]),
    "aggregate-ids-not-a-list": lambda tmp: _aggregate_ids_files(tmp, {"ids": 1}),
    "aggregate-ids-not-integers": lambda tmp: _aggregate_ids_files(tmp, {"ids": [1, "a"]}),
    "aggregate-ids-float": lambda tmp: _aggregate_ids_files(tmp, {"ids": [1, 1.5]}),
    "aggregate-ids-out-of-range": lambda tmp: _aggregate_ids_files(tmp, {"ids": [1, 2**70]}),
    "aggregate-soft-given-ids": lambda tmp: _aggregate_given(tmp, "soft", "--matrix", "--ids"),
    "aggregate-soft-given-m": lambda tmp: _aggregate_given(tmp, "soft", "--matrix", "--m"),
    "aggregate-soft-given-theta": lambda tmp: _aggregate_given(tmp, "soft", "--matrix", "--theta"),
    "aggregate-hard-ids-given-matrix": lambda tmp: _aggregate_given(tmp, "hard", "--ids", "--matrix"),
    "aggregate-hard-ids-given-theta": lambda tmp: _aggregate_given(tmp, "hard", "--ids", "--theta"),
    "track-assign-theta-above-one": lambda tmp: ["track-assign", _assoc_file(tmp), "--theta", "1.5"],
    "track-assign-theta-zero": lambda tmp: ["track-assign", _assoc_file(tmp), "--theta", "0"],
    "track-assign-theta-nan": lambda tmp: ["track-assign", _assoc_file(tmp), "--theta", "nan"],
    "aggregate-hard-theta-one": lambda tmp: _aggregate_given(tmp, "hard", "--matrix") + ["--theta", "1"],
    "aggregate-hard-m-zero": lambda tmp: _aggregate_given(tmp, "hard", "--matrix") + ["--m", "0"],
    "aggregate-hard-ids-m-zero": lambda tmp: _aggregate_given(tmp, "hard", "--ids") + ["--m", "0"],
    "aggregate-soft-without-matrix": lambda tmp: ["aggregate", _features_file(tmp), "--mode", "soft"],
    "aggregate-hard-without-ids-or-matrix": lambda tmp: ["aggregate", _features_file(tmp), "--mode", "hard"],
    "aggregate-soft-matrix-holds-features": lambda tmp: [
        "aggregate", _features_file(tmp), "--mode", "soft", "--matrix", _features_file(tmp)
    ],
    "track-assign-matrix-holds-features": lambda tmp: ["track-assign", _features_file(tmp)],
    "aggregate-features-file-holds-assoc": lambda tmp: ["aggregate", _assoc_file(tmp), "--matrix", _assoc_file(tmp)],
    "aggregate-soft-matrix-frames-differ": lambda tmp: _aggregate_given(tmp, "soft", "--matrix", matrix_frames=(0, 0)),
    "aggregate-hard-matrix-frames-differ": lambda tmp: _aggregate_given(tmp, "hard", "--matrix", matrix_frames=(0, 0)),
    "query-span-strings": lambda tmp: _ground_files(tmp, queries=_span_query(["a", "b"])),
    "query-span-floats": lambda tmp: _ground_files(tmp, queries=_span_query([0, 0.5])),
    "query-span-bools": lambda tmp: _ground_files(tmp, queries=_span_query([False, False])),
    "matrix-file-holds-a-list": lambda tmp: ["track-assign", _write(tmp / "assoc.json", [1.0, 0.5])],
    "external-scores-file-holds-an-object": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "meteor,external",
        "--external-scores", _write(tmp / "scores.json", {"video_id": "v0", "score": 0.5}),
    ],
    "likelihoods-file-holds-an-object": lambda tmp: _ground_files(tmp, likelihoods={"query_id": "q1", "nll": 0.1}),
    "queries-file-holds-an-object": lambda tmp: _ground_files(tmp, queries={"video_id": "v0", "query_id": "q1"}),
    "matrix-dim-strings": lambda tmp: _assoc_matrix_file(tmp, dim=["a", 2]),
    "matrix-frame-of-strings": lambda tmp: _assoc_matrix_file(tmp, frame_of=["x", "y"]),
    "matrix-frame-of-floats": lambda tmp: _assoc_matrix_file(tmp, frame_of=[0.5, 1.7]),
    "matrix-frame-of-infinite": lambda tmp: _assoc_matrix_file(tmp, frame_of=[0, "INF"]),
    "matrix-frame-of-out-of-range": lambda tmp: _assoc_matrix_file(tmp, frame_of=[0, 10**30]),
    "matrix-values-strings": lambda tmp: _assoc_matrix_file(tmp, values=["a", 0, 0, 1]),
    "matrix-values-ragged": lambda tmp: _assoc_matrix_file(tmp, values=[[1, 0], [0]]),
    "matrix-values-bool": lambda tmp: _assoc_matrix_file(tmp, values=[True, 0, 0, 1]),
    "convert-flat-not-utf8": lambda tmp: _flat_file(tmp, b"1,7,10,20,30,40,0.9\xff\n"),
    "convert-flat-duplicate-frame": lambda tmp: _flat_file(tmp, b"1,7,10,20,30,40,0.9\n1,7,12,20,30,40,0.8\n"),
    "convert-flat-num-frames-out-of-range": lambda tmp: _flat_file(tmp, b"1,7,10,20,30,40,0.9\n")
    + ["--num-frames", str(10**20)],
    "convert-flat-field-not-a-number": lambda tmp: _flat_file(tmp, b"1,7,x,20,30,40,0.9\n"),
    "convert-flat-score-above-one": lambda tmp: _flat_file(tmp, b"1,7,10,20,30,40,1.5\n"),
    "convert-flat-negative-frame": lambda tmp: _flat_file(tmp, b"-1,7,10,20,30,40,0.9\n"),
    "convert-flat-negative-width": lambda tmp: _flat_file(tmp, b"1,7,10,20,-30,40,0.9\n"),
    "verify-losses-zero-seeds": lambda tmp: ["verify-losses", "--seeds", "0"],
    "verify-losses-seeds-not-an-integer": lambda tmp: ["verify-losses", "--seeds", "abc"],
    "convert-flat-num-frames-not-an-integer": lambda tmp: _flat_file(tmp, b"1,7,10,20,30,40,0.9\n")
    + ["--num-frames", "x"],
    "track-iou-thresh-nan": lambda tmp: ["track-iou", _SYNTH_GT, "--thresh", "nan"],
    "synth-box-jitter-nan": lambda tmp: [
        "synth", "--box-jitter", "nan", "--out-gt", str(tmp / "gt.json"), "--out-pred", str(tmp / "pred.json")
    ],
    "synth-infinite-jitter": lambda tmp: [
        "synth", "--box-jitter", "inf", "--out-gt", str(tmp / "gt.json"), "--out-pred", str(tmp / "pred.json")
    ],
    "synth-negative-seed": lambda tmp: [
        "synth", "--seed", "-1", "--out-gt", str(tmp / "gt.json"), "--out-pred", str(tmp / "pred.json")
    ],
    "box-coordinate-beyond-float-range": lambda tmp: ["eval-chota", _SYNTH_GT, _huge_coordinate_gt(tmp)],
    "apm-box-coordinate-beyond-float-range": lambda tmp: ["eval-apm", _SYNTH_GT, _huge_coordinate_gt(tmp)],
    "track-iou-box-coordinate-beyond-float-range": lambda tmp: ["track-iou", _huge_coordinate_gt(tmp)],
    "box-score-beyond-float-range": lambda tmp: [
        "eval-chota", _SYNTH_GT, _gt_with(tmp, lambda d: d[0]["tracks"][0]["boxes"][0].update(score=10**400)),
    ],
    "integer-literal-too-long": lambda tmp: [
        "eval-chota", _SYNTH_GT,
        _write(tmp / "gt.json", '[{"video_id": "v", "num_frames": 1%s, "tracks": []}]' % ("0" * 5000)),
    ],
    "external-score-beyond-float-range": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "meteor,external",
        "--external-scores", _write(tmp / "scores.json", [
            {"video_id": "v0", "pred_observation_index": 0, "gt_track_id": 1, "score": 10**400}
        ]),
    ],
    "likelihood-nll-beyond-float-range": lambda tmp: _ground_files(tmp, likelihoods=[
        {"video_id": "v0", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": 10**400},
    ]),
    "query-box-beyond-float-range": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0],
         "boxes": [{"frame": 0, "box": [0, 0, 10**400, 10]}]},
    ]),
    "likelihood-nll-nan-and-no-query-on-a-predicted-video": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v9", "query_id": "q1", "text": "x", "span": [0, 0], "boxes": [{"frame": 0, "box": [0, 0, 1, 1]}]},
    ], likelihoods=[
        {"video_id": "v9", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": float("nan")},
    ]),
    "likelihood-nll-infinite": lambda tmp: _ground_files(tmp, likelihoods=(
        '[{"video_id": "v0", "frame": 0, "observation_index": 0, "query_id": "q1", "nll": 1e400}]'
    )),
    "query-box-corners-out-of-order": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 0],
         "boxes": [{"frame": 0, "box": [10, 0, 0, 10]}]},
    ]),
    "input-path-is-a-directory": lambda tmp: ["eval-chota", str(tmp), _SYNTH_GT],
    "out-path-is-a-directory": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--out", str(tmp)],
    "synth-out-gt-is-a-directory": lambda tmp: ["synth", "--out-gt", str(tmp), "--out-pred", str(tmp / "pred.json")],
    "alphas-not-increasing": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--alphas", "0.5,0.4"],
    "alphas-zero": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--alphas", "0,0.5"],
    "alphas-one": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--alphas", "0.5,1"],
    "cap-metrics-unknown": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "bleu"],
    "cap-metrics-empty": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", ","],
    "external-scores-without-external-metric": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--external-scores", str(tmp / "missing.json")
    ],
    "jobs-below-one": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--jobs", "-3"],
    "cap-metrics-external-without-scores": lambda tmp: [
        "eval-chota", _SYNTH_GT, _SYNTH_GT, "--cap-metrics", "meteor,external"
    ],
    "capa-alpha-mode-unknown": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--capa-alpha", "integral"],
    "query-span-frame-without-box": lambda tmp: _ground_files(tmp, queries=[
        {"video_id": "v0", "query_id": "q1", "text": "x", "span": [0, 1],
         "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]},
    ]),
    "track-assign-theta-not-a-number": lambda tmp: ["track-assign", _assoc_file(tmp), "--theta", "abc"],
    "aggregate-hard-theta-not-a-number": lambda tmp: _aggregate_given(tmp, "hard", "--matrix") + ["--theta", "x"],
    "aggregate-hard-m-not-an-integer": lambda tmp: _aggregate_given(tmp, "hard", "--matrix") + ["--m", "x"],
    "aggregate-hard-ids-m-fraction": lambda tmp: _aggregate_given(tmp, "hard", "--ids") + ["--m", "1.5"],
    "jobs-not-an-integer": lambda tmp: ["eval-chota", _SYNTH_GT, _SYNTH_GT, "--jobs", "2.5"],
    # Each synth flag given a value that is not a number of its type: the count flags take integers.
    **{f"synth-{flag[2:]}-not-a-number": (lambda tmp, flag=flag, value=value: [
        "synth", flag, value, "--out-gt", str(tmp / "gt.json"), "--out-pred", str(tmp / "pred.json")
    ]) for flag, value in (("--seed", "x"), ("--num-videos", "1.5"), ("--frames", "ten"), ("--objects", "2e1"),
                           ("--box-jitter", "x"), ("--drop-rate", "5%"), ("--fp-rate", ""),
                           ("--id-switch-rate", "0,1"), ("--caption-corruption-rate", "half"))},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case) -> None:
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", [
    "track-assign-theta-above-one", "track-assign-theta-zero", "track-assign-theta-nan", "aggregate-hard-theta-one",
    "aggregate-hard-m-zero", "aggregate-hard-ids-m-zero", "aggregate-soft-without-matrix",
    "aggregate-hard-without-ids-or-matrix", "track-assign-theta-not-a-number", "aggregate-hard-theta-not-a-number",
    "aggregate-hard-m-not-an-integer", "aggregate-hard-ids-m-fraction",
])
def test_identity_settings_fail_before_any_matrix_is_read(tmp_path, capsys, monkeypatch, case) -> None:
    argv = BAD_INPUTS[case](tmp_path)
    for name in ("load_matrix", "load_ids"):
        monkeypatch.setattr(formats, name, lambda *args, **kwargs: pytest.fail("a matrix or id file was read"))
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case, message", [
    ("track-assign-theta-not-a-number", "--theta: expected a finite number, got 'abc'"),
    ("aggregate-hard-theta-not-a-number", "--theta: expected a finite number, got 'x'"),
    ("aggregate-hard-m-not-an-integer", "--m: expected an integer, got 'x'"),
    ("aggregate-hard-ids-m-fraction", "--m: expected an integer, got '1.5'"),
    ("jobs-not-an-integer", "--jobs: expected an integer, got '2.5'"),
    ("synth-seed-not-a-number", "--seed: expected an integer, got 'x'"),
    ("synth-objects-not-a-number", "--objects: expected an integer, got '2e1'"),
    ("synth-fp-rate-not-a-number", "--fp-rate: expected a finite number, got ''"),
    ("synth-drop-rate-not-a-number", "--drop-rate: expected a finite number, got '5%'"),
    # A value that parses as a number meets its rule, with the rule's message.
    ("track-assign-theta-nan", "theta must be in (0, 1), got nan"),
    ("aggregate-hard-theta-one", "theta must be in (0, 1), got 1.0"),
    ("aggregate-hard-m-zero", "m must be >= 1, got 0"),
    ("jobs-below-one", "--jobs: -3 is outside [1, inf]"),
    ("synth-infinite-jitter", "box_jitter_sigma must be finite and >= 0, got inf"),
    ("synth-negative-seed", "seed must be >= 0, got -1"),
])
def test_number_flags_fail_with_one_error_line(tmp_path, capsys, case, message) -> None:
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_input_files_are_read_as_utf8_in_any_locale(tmp_path, capsys) -> None:
    # Under the C locale, without locale coercion or UTF-8 mode, Python's default text codec is ASCII.
    gt = tmp_path / "gt.json"
    video = {"video_id": "v0", "num_frames": 1,
             "tracks": [{"track_id": 1, "caption": "un caf\u00e9", "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]}]}
    gt.write_bytes(json.dumps([video], ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"), LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    argv = ["eval-chota", str(gt), str(gt)]
    result = subprocess.run([sys.executable, "-m", "densevoc.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert main(argv) == 0
    assert result.stdout.decode("ascii") == capsys.readouterr().out


def test_non_ascii_letters_are_part_of_the_caption(tmp_path, capsys) -> None:
    paths = []
    for name, caption in (("gt", "un café"), ("pred", "un caf")):
        video = {"video_id": "v0", "num_frames": 1,
                 "tracks": [{"track_id": 1, "caption": caption, "boxes": [{"frame": 0, "box": [0, 0, 10, 10]}]}]}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps([video], ensure_ascii=False), encoding="utf-8")
    assert main(["eval-chota", *map(str, paths), "--cap-metrics", "exact"]) == 0
    assert "cap_a=0.0" in capsys.readouterr().out.splitlines()


def test_identity_defaults_are_read_from_the_library(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(assoc, "THETA", 0.25)
    monkeypatch.setattr(aggregate, "HARD_M", 1)
    assert build_parser().parse_args(["track-assign", "a.json"]).theta == 0.25
    out = tmp_path / "hard.json"
    assert main(_aggregate_given(tmp_path, "hard", "--matrix") + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["m"] == 1


@pytest.mark.parametrize("case", [
    "gate-unknown-chota", "gate-unknown-apm", "gate-not-a-number", "gate-without-minimum", "cap-metrics-unknown",
    "capa-alpha-mode-unknown", "external-scores-without-external-metric", "cap-metrics-external-without-scores",
    "alphas-not-increasing", "iou-threshold-above-one", "apm-meteor-threshold-negative", "capa-alpha-off-grid",
])
def test_argument_errors_exit_before_any_dataset_is_read(tmp_path, capsys, monkeypatch, case) -> None:
    monkeypatch.setattr(formats, "load_dataset", lambda *args, **kwargs: pytest.fail("a dataset was read"))
    out = tmp_path / "r.json"
    assert main(BAD_INPUTS[case](tmp_path) + ["--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists() and not Path(f"{out}.summary").exists()
