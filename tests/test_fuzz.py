"""Seeded mutation fuzz of the CLI input files.

Small valid files of every kind the CLI reads are corrupted one field at a
time (a key deleted, or a value replaced by null, a bool, a string, a list,
an object, NaN, 1e400, an integer beyond int64 or one beyond the float
range); every command that reads the file must then exit 0 or 2 without
raising. A flat CSV file for ``convert-flat`` is held as a list of rows and
written one line per row, each value as ``str`` writes it.
"""

from __future__ import annotations

import json

import numpy as np

from densevoc.cli import main

_INF_TOKEN = "__1e400__"
_REPLACEMENTS = (None, True, "x", [], {}, float("nan"), _INF_TOKEN, 10**30, 10**400, 0, -1)
_DELETE = object()


def _box(frame, x, caption=None):
    entry = {"frame": frame, "box": [x, 0.0, x + 10.0, 10.0], "score": 0.9}
    if caption is not None:
        entry["caption"] = caption
    return entry


def _valid_files() -> dict:
    gt = [{"video_id": "v0", "num_frames": 3, "tracks": [
        {"track_id": 1, "caption": "a red car", "boxes": [_box(0, 0.0), _box(1, 1.0), _box(2, 2.0)]},
        {"track_id": 2, "caption": "a dog runs", "boxes": [_box(0, 30.0), _box(1, 31.0)]},
    ]}]
    pred = [{"video_id": "v0", "num_frames": 3, "tracks": [
        {"track_id": 5, "caption": "a dog", "boxes": [_box(0, 31.0, "a dog runs"), _box(1, 31.0)]},
        {"track_id": 3, "caption": "a car", "boxes": [_box(0, 0.5), _box(2, 2.0)]},
    ]}]
    return {
        "gt": gt,
        "pred": pred,
        "scores": [
            {"video_id": "v0", "pred_observation_index": 0, "gt_track_id": 2, "score": 0.5},
            {"video_id": "v0", "pred_observation_index": 1, "gt_track_id": 1, "score": 0.25},
        ],
        "assoc": {"video_id": "v0", "frame_of": [0, 0, 1, 1], "dim": 4, "values": [
            1.0, 0.1, 0.9, 0.2, 0.1, 1.0, 0.2, 0.8, 0.9, 0.2, 1.0, 0.1, 0.2, 0.8, 0.1, 1.0,
        ]},
        "features": {"video_id": "v0", "frame_of": [0, 0, 1, 1], "dim": [4, 2],
                     "values": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]},
        "ids": {"ids": [1, 2, 1, 2]},
        "queries": [{"video_id": "v0", "query_id": "q1", "text": "a dog", "span": [0, 1],
                     "boxes": [{"frame": 0, "box": [30.0, 0.0, 40.0, 10.0]},
                               {"frame": 1, "box": [31.0, 0.0, 41.0, 10.0]}]}],
        "likelihoods": [
            {"video_id": "v0", "frame": f, "observation_index": k, "query_id": "q1", "nll": 0.5 + k}
            for f in range(2) for k in range(2)
        ] + [{"video_id": "v0", "track_id": t, "query_id": "q1", "nll": 0.2 * t} for t in (3, 5)],
        "flat": [[1, 7, 10.0, 20.0, 30.0, 40.0, 0.9], [2, 7, 12.0, 20.0, 30.0, 40.0, 0.8], [1, 9, 100.0, 100.0, 10.0, 10.0]],
    }


def _file_text(kind: str, text: str) -> str:
    """The text of a ``kind`` file holding the JSON value ``text``: the JSON itself, or the lines of a flat CSV file."""
    if kind != "flat":
        return text
    return "".join((",".join(map(str, row)) if isinstance(row, list) else str(row)) + "\n" for row in json.loads(text))


def _commands(p: dict) -> dict[str, list[list[str]]]:
    """The CLI runs that read each file kind."""
    chota = ["eval-chota", p["gt"], p["pred"], "--cap-metrics", "meteor,external",
             "--external-scores", p["scores"]]
    apm = ["eval-apm", p["gt"], p["pred"]]
    ground = ["ground", p["pred"], "--queries", p["queries"], "--likelihoods", p["likelihoods"]]
    soft = ["aggregate", p["features"], "--matrix", p["assoc"], "--mode", "soft"]
    hard = ["aggregate", p["features"], "--mode", "hard", "--m", "2", "--ids", p["ids"]]
    flat = ["convert-flat", p["flat"], "--video-id", "v0", "--out", p["flat"] + ".out.json"]
    return {
        "gt": [chota, apm],
        "pred": [chota, apm, ["track-iou", p["pred"]], ground],
        "scores": [chota],
        "assoc": [["track-assign", p["assoc"]], soft],
        "features": [soft, hard],
        "ids": [hard],
        "queries": [ground],
        "likelihoods": [ground, ground + ["--mode", "per-track"]],
        "flat": [flat, flat + ["--one-based", "--num-frames", "3"]],
    }


def _paths(obj, prefix=()):
    """The path (a tuple of keys and list indices) of every value nested in ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(obj, path, replacement):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return json.dumps(obj).replace(f'"{_INF_TOKEN}"', "1e400")


def test_mutated_inputs_exit_0_or_2(tmp_path, capsys) -> None:
    files = _valid_files()
    paths = {kind: str(tmp_path / f"{kind}.json") for kind in files}
    for kind, obj in files.items():
        (tmp_path / f"{kind}.json").write_text(_file_text(kind, json.dumps(obj)))
    commands = _commands(paths)
    for argvs in commands.values():
        for argv in argvs:
            assert main(argv) == 0, argv

    rng = np.random.default_rng(20231)
    cases = [(kind, path) for kind, obj in files.items() for path in _paths(obj)]
    for trial in range(340):  # about 300 on the JSON kinds, as before the flat kind
        kind, path = cases[rng.integers(len(cases))]
        options = _REPLACEMENTS + ((_DELETE,) if isinstance(path[-1], str) else ())
        replacement = options[rng.integers(len(options))]
        target = tmp_path / f"{kind}.json"
        target.write_text(_file_text(kind, _mutate(files[kind], path, replacement)))
        for argv in commands[kind]:
            what = (trial, kind, path, "delete" if replacement is _DELETE else replacement, argv[0])
            try:
                code = main(argv)
            except Exception as exc:
                raise AssertionError(f"{what} raised {exc!r}") from exc
            assert code in (0, 2), what
        target.write_text(_file_text(kind, json.dumps(files[kind])))
        capsys.readouterr()
