from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from densevoc.assoc import AssocMatrix
from densevoc.formats import (
    FeatureFile,
    FormatError,
    load_dataset,
    load_external_scores,
    load_flat_records,
    load_likelihoods,
    load_matrix,
    load_queries,
    parse_dataset,
    save_dataset,
    save_matrix,
)
from densevoc.core import Box, Caption, Detection, Trajectory, ValidationError, VideoRecord, VideoTable
from densevoc.synth import SynthConfig, generate
from oracles import as_records, dataset_json_oracle, dataset_to_obj, load_flat_records_oracle, parse_dataset_oracle
from test_fuzz import _DELETE, _REPLACEMENTS, _mutate, _paths, _valid_files

FIXTURES = Path(__file__).parent.parent / "fixtures"

GOOD = [
    {
        "video_id": "v0",
        "num_frames": 3,
        "tracks": [
            {
                "track_id": 1,
                "caption": "a red car crosses",
                "boxes": [
                    {"frame": 0, "box": [0, 0, 10, 10], "score": 0.9},
                    {"frame": 2, "box": [5, 0, 15, 10], "caption": "a red car"},
                ],
            },
            {"track_id": 2, "boxes": [{"frame": 1, "box": [20, 20, 30, 30]}]},
        ],
    }
]


def test_parse_good_dataset() -> None:
    records = parse_dataset(GOOD)
    assert len(records) == 1
    video = records[0]
    assert video.num_frames == 3
    assert video.trajectories[0].caption.tokens == ("a", "red", "car", "crosses")
    assert video.trajectories[0].detections[1].caption.raw == "a red car"
    assert video.trajectories[1].detections[0].score == 1.0


def _outcome(parse, data, strict: bool):
    """The records a parser gives, or its error message."""
    try:
        videos = parse(data, strict=strict)
        return videos if all(isinstance(v, VideoRecord) for v in videos) else as_records(videos)
    except FormatError as exc:
        return f"error: {exc}"


def test_load_dataset_equals_parser_oracle_on_fixtures() -> None:
    loaded = []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        for strict in (False, True):
            try:
                got = as_records(load_dataset(path, strict=strict))
            except FormatError as exc:
                got = f"error: {exc}"
            expected = _outcome(parse_dataset_oracle, data, strict)
            if isinstance(expected, str):
                expected = expected.replace("error: ", f"error: {path}: ", 1)
            assert got == expected, path.name
        loaded += [path.name] if isinstance(got, list) else []
    assert {"synth20_gt.json", "golden_seed42_gt.json", "golden_seed42_pred.json"} <= set(loaded)


def _mutations(obj):
    """Every single-field mutation of ``obj``.

    Each value is replaced by each of the fuzz replacements or, for a key,
    deleted; and each object gets an unknown key.
    """
    for path in _paths(obj):
        options = _REPLACEMENTS + ((_DELETE,) if isinstance(path[-1], str) else ())
        for replacement in options:
            yield json.loads(_mutate(obj, path, replacement))
    for path in [()] + list(_paths(obj)):
        extra = json.loads(json.dumps(obj))
        node = extra
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            node["extra"] = 1
            yield extra


def test_parser_agrees_with_oracle_on_every_single_field_mutation() -> None:
    files = _valid_files()
    cases = 0
    for kind in ("gt", "pred"):
        for data in _mutations(files[kind]):
            for strict in (False, True):
                got = _outcome(parse_dataset, data, strict)
                assert got == _outcome(parse_dataset_oracle, data, strict), (kind, data, strict)
                cases += isinstance(got, str)
    assert cases > 500  # most mutations are rejected


def test_parser_reports_first_error_in_document_order() -> None:
    # Two mutations at once: the message must name the one the oracle's
    # walk meets first, whichever column check fails first.
    rng = np.random.default_rng(9)
    for kind in ("gt", "pred"):
        base = _valid_files()[kind]
        singles = list(_mutations(base))
        for trial in range(400):
            first = singles[rng.integers(len(singles))]
            paths = list(_paths(first))
            path = paths[rng.integers(len(paths))]
            options = _REPLACEMENTS + ((_DELETE,) if isinstance(path[-1], str) else ())
            data = json.loads(_mutate(first, path, options[rng.integers(len(options))]))
            for strict in (False, True):
                expected = _outcome(parse_dataset_oracle, data, strict)
                assert _outcome(parse_dataset, data, strict) == expected, (kind, trial, data, strict)


def test_round_trip_identity(tmp_path) -> None:
    records = parse_dataset(GOOD)
    path = tmp_path / "data.json"
    save_dataset(records, path)
    again = load_dataset(path)
    assert dataset_to_obj(again) == dataset_to_obj(records)
    save_dataset(again, tmp_path / "data2.json")
    assert path.read_text() == (tmp_path / "data2.json").read_text()


def test_round_trip_on_all_fixture_files(tmp_path) -> None:
    fixtures = FIXTURES
    for name in ("synth20_gt.json", "golden_seed42_gt.json", "golden_seed42_pred.json"):
        records = load_dataset(fixtures / name)
        out = tmp_path / name
        save_dataset(records, out)
        assert out.read_bytes() == (fixtures / name).read_bytes(), name
        assert dataset_to_obj(load_dataset(out)) == dataset_to_obj(records)


def test_unknown_fields_strictness() -> None:
    data = json.loads(json.dumps(GOOD))
    data[0]["tracks"][0]["confidence_notes"] = "extra"
    parse_dataset(data, strict=False)
    with pytest.raises(FormatError, match="unknown fields"):
        parse_dataset(data, strict=True)


def test_malformed_json_reports_position(tmp_path) -> None:
    path = tmp_path / "broken.json"
    path.write_text('[{"video_id": "v0", }]')
    with pytest.raises(FormatError, match="line 1"):
        load_dataset(path)


def test_schema_error_reports_path() -> None:
    data = json.loads(json.dumps(GOOD))
    data[0]["tracks"][0]["boxes"][0]["box"] = [0, 0, 10]
    with pytest.raises(FormatError, match=r"video\[0\].tracks\[0\].boxes\[0\]"):
        parse_dataset(data)


def test_invariant_violation_reports_path() -> None:
    data = json.loads(json.dumps(GOOD))
    data[0]["tracks"][0]["boxes"][0]["score"] = 2.0
    with pytest.raises(FormatError, match="score"):
        parse_dataset(data)


def test_assoc_matrix_round_trip(tmp_path) -> None:
    path = tmp_path / "assoc.json"
    values = np.array([[1.0, 0.25], [0.5, 1.0]])
    save_matrix("v0", np.array([0, 1]), values, path, "assoc")
    loaded = load_matrix(path, "assoc")
    assert isinstance(loaded, AssocMatrix)
    assert loaded.values == pytest.approx(values)
    assert loaded.frame_of.tolist() == [0, 1]


def test_feature_matrix_round_trip(tmp_path) -> None:
    path = tmp_path / "features.json"
    values = np.arange(6.0).reshape(3, 2)
    save_matrix("v0", np.array([0, 0, 1]), values, path, "features")
    loaded = load_matrix(path, "features")
    assert isinstance(loaded, FeatureFile)
    assert loaded.values == pytest.approx(values)
    assert loaded.video_id == "v0"


def test_matrix_length_checks(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"video_id": "v", "frame_of": [0], "dim": 2, "values": [1, 0, 0, 1]}))
    with pytest.raises(FormatError, match="frame_of"):
        load_matrix(path, "assoc")
    path.write_text(json.dumps({"video_id": "v", "frame_of": [0, 1], "dim": 2, "values": [1, 0]}))
    with pytest.raises(FormatError, match="values"):
        load_matrix(path, "assoc")


def test_matrix_rejects_nonfinite(tmp_path) -> None:
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps({"video_id": "v", "frame_of": [0], "dim": 1, "values": [float("nan")]})
    )
    with pytest.raises(FormatError, match="finite"):
        load_matrix(path, "assoc")


def test_matrix_file_of_the_other_kind_is_a_format_error(tmp_path) -> None:
    assoc_path, features_path = tmp_path / "assoc.json", tmp_path / "features.json"
    save_matrix("v0", np.array([0, 1]), np.eye(2), assoc_path, "assoc")
    save_matrix("v0", np.array([0, 1]), np.eye(2), features_path, "features")
    with pytest.raises(FormatError, match="holds an association matrix, not a feature matrix"):
        load_matrix(assoc_path, "features")
    with pytest.raises(FormatError, match="holds a feature matrix, not an association matrix"):
        load_matrix(features_path, "assoc")


def test_external_scores_sidecar(tmp_path) -> None:
    path = tmp_path / "ext.json"
    path.write_text(
        json.dumps(
            [{"video_id": "v0", "pred_observation_index": 3, "gt_track_id": 2, "score": 0.75}]
        )
    )
    scores = load_external_scores(path)
    assert scores[("v0", 3, 2)] == pytest.approx(0.75)
    path.write_text(
        json.dumps([{"video_id": "v0", "pred_observation_index": 0, "gt_track_id": 1, "score": 1.5}])
    )
    with pytest.raises(FormatError, match="score"):
        load_external_scores(path)


def test_likelihood_table_both_record_shapes(tmp_path) -> None:
    path = tmp_path / "nll.json"
    path.write_text(
        json.dumps(
            [
                {"video_id": "v0", "frame": 1, "observation_index": 0, "query_id": "q1", "nll": 0.5},
                {"video_id": "v0", "track_id": 4, "query_id": "q1", "nll": 1.25},
            ]
        )
    )
    per_frame, per_track = load_likelihoods(path)
    assert per_frame[("v0", 1, 0, "q1")] == pytest.approx(0.5)
    assert per_track[("v0", 4, "q1")] == pytest.approx(1.25)
    path.write_text(json.dumps([{"video_id": "v0", "track_id": 4, "query_id": "q", "nll": -1}]))
    with pytest.raises(FormatError, match="nll"):
        load_likelihoods(path)


@pytest.mark.parametrize("nll", ["NaN", "1e400"])
def test_likelihood_nll_must_be_finite(tmp_path, nll) -> None:
    # json reads NaN as a float NaN and 1e400 as inf.
    path = tmp_path / "nll.json"
    path.write_text(
        '[{"video_id": "v0", "track_id": 4, "query_id": "q", "nll": 0.5},'
        f' {{"video_id": "v9", "frame": 0, "observation_index": 0, "query_id": "q", "nll": {nll}}}]'
    )
    with pytest.raises(FormatError, match=r"nll\.json: record\[1\]: nll must be finite and >= 0"):
        load_likelihoods(path)


def test_queries_file(tmp_path) -> None:
    path = tmp_path / "queries.json"
    path.write_text(
        json.dumps(
            [
                {
                    "video_id": "v0",
                    "query_id": "q1",
                    "text": "the red car",
                    "span": [2, 5],
                    "boxes": [{"frame": f, "box": [f, 0, f + 10, 10]} for f in range(2, 6)],
                }
            ]
        )
    )
    queries = load_queries(path)
    assert queries[0]["span"] == (2, 5)
    assert 2 in queries[0]["boxes"]
    path.write_text(json.dumps([{"video_id": "v", "query_id": "q", "text": "t", "span": [5, 2], "boxes": []}]))
    with pytest.raises(FormatError, match="span"):
        load_queries(path)



def test_query_span_needs_a_box_per_frame(tmp_path) -> None:
    path = tmp_path / "queries.json"
    boxes = [{"frame": 0, "box": [0, 0, 10, 10]}, {"frame": 2, "box": [0, 0, 10, 10]}]
    path.write_text(json.dumps([{"video_id": "v", "query_id": "q", "text": "t", "span": [0, 2], "boxes": boxes}]))
    with pytest.raises(FormatError, match="no box for frame 1"):
        load_queries(path)
    # A span far longer than its box list is refused after len(boxes) + 1 frames.
    path.write_text(json.dumps([{"video_id": "v", "query_id": "q", "text": "t", "span": [0, 2**62], "boxes": boxes}]))
    with pytest.raises(FormatError, match="no box for frame 1"):
        load_queries(path)


def _saved(records, tmp_path) -> str:
    path = tmp_path / "out.json"
    save_dataset(records, path)
    return path.read_text()


def test_writer_equals_json_oracle_on_fixtures(tmp_path) -> None:
    for name in ("synth20_gt.json", "golden_seed42_gt.json", "golden_seed42_pred.json"):
        records = load_dataset(FIXTURES / name)
        assert _saved(records, tmp_path) == dataset_json_oracle(records), name


def test_writer_equals_json_oracle_on_box_captions(tmp_path) -> None:
    _, preds = generate(SynthConfig(seed=4, num_videos=2, frames_per_video=10, box_jitter_sigma=2.0,
                                    false_positive_rate=0.2, drop_rate=0.1))
    rng = np.random.default_rng(0)
    captioned = [
        VideoRecord(record.video_id, record.num_frames, tuple(
            Trajectory(t.track_id, tuple(
                Detection(d.frame, d.box, d.score, caption=Caption.from_text(f"{t.caption.raw} {k}"))
                if rng.random() < 0.7 else d
                for k, d in enumerate(t.detections)
            ), t.caption)
            for t in record.trajectories
        ))
        for record in preds
    ]
    assert _saved(captioned, tmp_path) == dataset_json_oracle(captioned)


def test_writer_equals_json_oracle_on_hand_built_records(tmp_path) -> None:
    def det(frame, caption=None, score=0.5):
        return Detection(frame, Box(-2.25, 1e-7, 1.5, 3e5), score,
                         caption=None if caption is None else Caption.from_text(caption))

    records = [
        VideoRecord('a "quoted" \\ id', 4, (
            Trajectory(3, (det(0, 'say "hi" \\ back'), det(2, "")), Caption.from_text("café naïve 東京 ☃")),
            Trajectory(7, (), Caption.from_text("a track with no boxes")),
            Trajectory(9, (det(1, "\u2028 line\nbreak\ttab", score=1.0), det(3)), None),
        )),
        VideoRecord("no tracks", 1, ()),
        VideoRecord("ünïcode-id", 2, (Trajectory(1, (det(1, "ok"),), Caption.from_text("")),)),
    ]
    assert _saved(records, tmp_path) == dataset_json_oracle(records)
    reloaded = as_records(load_dataset(tmp_path / "out.json"))
    assert reloaded == as_records([VideoTable.from_record(r) for r in records])
    assert _saved([], tmp_path) == dataset_json_oracle([]) == "[]\n"


def test_writer_writes_floats_and_reloads_equal(tmp_path) -> None:
    record = VideoRecord("v", 1, (Trajectory(1, (Detection(0, Box(0, 0, 10, 10), score=1, track_id=1),)),))
    assert _saved([record], tmp_path) == (
        '[{"video_id":"v","num_frames":1,"tracks":[{"track_id":1,"boxes":'
        '[{"frame":0,"box":[0.0,0.0,10.0,10.0],"score":1.0}]}]}]\n'
    )
    assert as_records(load_dataset(tmp_path / "out.json")) == [record]


def test_writer_rejects_integers_outside_64_bits(tmp_path) -> None:
    record = VideoRecord("v", 1, (Trajectory(2**63, (Detection(0, Box(0, 0, 1, 1)),)),))
    with pytest.raises(ValidationError, match="64-bit"):
        save_dataset([record], tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


def _flat_outcome(load, path, num_frames, one_based):
    """The records of the table a flat CSV loader gives, or its error message."""
    try:
        return as_records([load(path, "v", num_frames=num_frames, one_based_frames=one_based)])
    except FormatError as exc:
        return f"error: {exc}"


# Each bad value of a flat line, by a fragment of its message: the field it replaces, and the value.
_BAD_FLAT_FIELDS = {
    "frame index": (0, lambda base: str(base - 1)),
    "score": (6, lambda base: "1.5"),
    "track_id must be positive": (1, lambda base: "0"),
    "out of order": (4, lambda base: "-3"),
    "finite, got (inf": (2, lambda base: "1e400"),
    "nan)": (5, lambda base: "nan"),
}


def test_flat_loader_equals_oracle_on_seeded_files(tmp_path) -> None:
    # Good lines in random order, with comments, blank lines and up to two bad lines: one or two
    # bad fields, a frame repeated in a track or a frame at --num-frames. The loader names the first bad line
    # as the Detection-built loader did, or gives the same table.
    rng = np.random.default_rng(5)
    path = tmp_path / "flat.csv"
    seen = set()
    for trial in range(300):
        one_based = bool(trial % 2)
        base = int(one_based)
        num_frames = 8 if rng.random() < 0.5 else None
        rows = [
            [str(f + base), str(t), *map(str, rng.integers(0, 50, 2)), *map(str, rng.integers(0, 20, 2)),
             str(round(float(rng.random()), 3))][: 6 + int(rng.random() < 0.8)]
            for t in (1, 2, 3) for f in rng.choice(8, int(rng.integers(1, 5)), replace=False).tolist()
        ]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        for _ in range(int(rng.integers(0, 3))):
            kind = int(rng.integers(len(_BAD_FLAT_FIELDS) + 2))
            row = list(rows[rng.integers(len(rows))])
            if kind < len(_BAD_FLAT_FIELDS):  # one or two bad fields, so the order within a line shows
                for k in {kind, int(rng.integers(len(_BAD_FLAT_FIELDS)))}:
                    field, value = list(_BAD_FLAT_FIELDS.values())[k]
                    row = (row + ["0.5"])[:7] if field == 6 else row
                    row[field] = value(base)
            elif kind == len(_BAD_FLAT_FIELDS):
                row[2] = str(int(row[2]) + 1)  # the same track and frame, a moved box
            else:
                row[0] = str(8 + base)
            rows.insert(int(rng.integers(len(rows) + 1)), row)
        lines = [",".join(row) for row in rows]
        lines.insert(int(rng.integers(len(lines) + 1)), "# frame,track,x,y,w,h,score")
        lines.insert(int(rng.integers(len(lines) + 1)), "")
        path.write_text("\n".join(lines) + "\n")
        expected = _flat_outcome(load_flat_records_oracle, path, num_frames, one_based)
        assert _flat_outcome(load_flat_records, path, num_frames, one_based) == expected, (trial, lines)
        seen |= {m for m in [*_BAD_FLAT_FIELDS, "strictly increasing", ">= num_frames"] if m in str(expected)}
        seen |= {"a table"} if isinstance(expected, list) else set()
    assert seen == {*_BAD_FLAT_FIELDS, "strictly increasing", ">= num_frames", "a table"}
