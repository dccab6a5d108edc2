from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from densevoc.aggregate import hard_aggregate, soft_aggregate
from densevoc.assoc import AssocMatrix, IdentityAssignment
from densevoc.core import (
    Box,
    Caption,
    Detection,
    Trajectory,
    ValidationError,
    VideoRecord,
    VideoTable,
    check_corners,
    iou_matrix,
    tokenize,
)
from densevoc.formats import save_dataset, save_matrix
from densevoc.losses import assoc_loss, caption_loss, giou, heatmap_loss

from conftest import make_track, make_video
from oracles import giou as giou_oracle
from oracles import as_records, iou

SRC = Path(__file__).resolve().parent.parent / "src" / "densevoc"


def test_iou_identity() -> None:
    b = Box(0, 0, 1, 1)
    assert iou(b, b) == 1.0


def test_iou_disjoint() -> None:
    assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0


def test_iou_hand_geometry() -> None:
    assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(1 / 3, abs=1e-12)


def test_giou_identical() -> None:
    b = [(0, 0, 1, 1)]
    assert giou(b, b)[0] == 1.0


def test_giou_disjoint_hand_geometry() -> None:
    assert giou([(0, 0, 1, 1)], [(2, 0, 3, 1)])[0] == pytest.approx(-1 / 3, abs=1e-12)


def test_giou_hull_equals_union() -> None:
    assert giou([(0, 0, 2, 2)], [(1, 0, 3, 2)])[0] == pytest.approx(1 / 3, abs=1e-12)


def _random_box(rng) -> Box:
    x1, y1 = rng.uniform(-10, 10, size=2)
    w, h = rng.uniform(0.1, 8, size=2)
    return Box(float(x1), float(y1), float(x1 + w), float(y1 + h))


def test_iou_symmetric(rng) -> None:
    for _ in range(300):
        a, b = _random_box(rng), _random_box(rng)
        assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-15)


def test_giou_never_exceeds_iou(rng) -> None:
    for _ in range(300):
        a, b = _random_box(rng), _random_box(rng)
        assert giou([a.as_tuple()], [b.as_tuple()])[0] <= iou(a, b) + 1e-15


def test_giou_translation_invariant(rng) -> None:
    for _ in range(100):
        a, b = np.array(_random_box(rng).as_tuple()), np.array(_random_box(rng).as_tuple())
        dx, dy = rng.uniform(-50, 50, size=2)
        shift = np.array([dx, dy, dx, dy])
        assert giou([a + shift], [b + shift])[0] == pytest.approx(
            giou([a], [b])[0], abs=1e-12
        )


def test_giou_equals_scalar_oracle_bit_for_bit(rng) -> None:
    # Real-valued boxes, and integer-grid boxes of width and height 0 to 3:
    # zero-area, touching, nested and disjoint pairs all occur.
    n = 50_000
    xy, wh = rng.uniform(-10, 10, size=(n, 2)), rng.uniform(0.1, 8, size=(n, 2))
    grid_xy, grid_wh = rng.integers(0, 6, size=(n, 2)), rng.integers(0, 4, size=(n, 2))
    boxes = np.vstack([np.hstack([xy, xy + wh]), np.hstack([grid_xy, grid_xy + grid_wh]).astype(float)])
    a, b = boxes[rng.permutation(2 * n)], boxes[rng.permutation(2 * n)]
    expected = np.array([giou_oracle(Box(*p), Box(*q)) for p, q in zip(a.tolist(), b.tolist())])
    assert giou(a, b).tobytes() == expected.tobytes()
    zero_area = ((a[:, 2] == a[:, 0]) | (a[:, 3] == a[:, 1])).any()
    disjoint = (iou_matrix(a[:, None], b[:, None])[:, 0, 0] == 0.0) & (expected < 0.0)
    assert zero_area and disjoint.any()


def test_giou_rejects_bad_rows() -> None:
    with pytest.raises(ValidationError, match="out of order"):
        giou([(1, 0, 0, 1)], [(0, 0, 1, 1)])
    with pytest.raises(ValidationError, match="equal-length"):
        giou([(0, 0, 1, 1)], [(0, 0, 1, 1)] * 2)


def test_zero_area_box_is_legal_and_scores_zero() -> None:
    point = Box(1, 1, 1, 1)
    assert iou(point, point) == 0.0
    assert iou(point, Box(0, 0, 2, 2)) == 0.0


def _assert_kernel_equals_scalar(rows: list[Box], cols: list[Box]) -> None:
    got = iou_matrix(np.array([b.as_tuple() for b in rows]), np.array([b.as_tuple() for b in cols]))
    assert got.shape == (len(rows), len(cols))
    # Symmetric bit for bit, since min, max and + commute: AP_M reads CHOTA's blocks transposed.
    flipped = iou_matrix(np.array([b.as_tuple() for b in cols]), np.array([b.as_tuple() for b in rows]))
    assert np.array_equal(flipped, got.swapaxes(-1, -2))
    for r, a in enumerate(rows):
        for c, b in enumerate(cols):
            assert got[r, c] == iou(a, b), (a, b)


def test_iou_matrix_equals_scalar_iou_on_random_boxes(rng) -> None:
    for _ in range(50):
        rows = [_random_box(rng) for _ in range(int(rng.integers(1, 9)))]
        cols = [_random_box(rng) for _ in range(int(rng.integers(1, 9)))]
        _assert_kernel_equals_scalar(rows, cols)


def test_iou_matrix_equals_scalar_iou_on_integer_grid(rng) -> None:
    boxes = []
    for _ in range(40):
        x1, y1 = (int(v) for v in rng.integers(0, 6, size=2))
        w, h = (int(v) for v in rng.integers(0, 4, size=2))
        boxes.append(Box(x1, y1, x1 + w, y1 + h))
    _assert_kernel_equals_scalar(boxes, boxes)


def test_iou_matrix_equals_scalar_iou_on_degenerate_boxes() -> None:
    base = Box(0.0, 0.0, 4.0, 2.0)
    boxes = [
        base,
        Box(0.0, 0.0, 4.0, 2.0),  # identical
        Box(1.0, 0.5, 2.0, 1.5),  # nested
        Box(4.0, 0.0, 6.0, 2.0),  # touching edge
        Box(4.0, 2.0, 5.0, 3.0),  # touching corner
        Box(1.0, 1.0, 1.0, 1.0),  # zero-area point inside
        Box(0.0, 1.0, 4.0, 1.0),  # zero-area segment
        Box(-3.0, -3.0, -1.0, -1.0),  # disjoint
        Box(0.1, 0.2, 0.7, 0.3),  # inexact decimals
    ]
    _assert_kernel_equals_scalar(boxes, boxes)


def test_iou_matrix_empty_sides() -> None:
    boxes = np.array([Box(0, 0, 1, 1).as_tuple(), Box(0, 0, 2, 2).as_tuple()])
    empty = np.array([], dtype=float).reshape(0, 4)
    assert empty.shape == (0, 4)
    assert iou_matrix(empty, boxes).shape == (0, 2)
    assert iou_matrix(boxes, empty).shape == (2, 0)
    assert iou_matrix(empty, empty).shape == (0, 0)
    assert iou_matrix(empty, boxes).dtype == np.float64


def _rejected(trajectories, match: str, tmp_path, num_frames: int = 1) -> None:
    """A record holding ``trajectories`` is rejected where it meets the rules, and no file is written."""
    record = VideoRecord("v", num_frames, trajectories)
    with pytest.raises(ValidationError, match=match):
        VideoTable.from_record(record)
    path = tmp_path / "records.json"
    with pytest.raises(ValidationError, match=match):
        save_dataset([VideoRecord("ok", 1, ()), record], path)
    assert not path.exists()


def _one_box(box=(0, 0, 1, 1), **fields) -> tuple[Trajectory, ...]:
    detection = Detection(**dict(dict(frame=0, box=Box(*box), track_id=1), **fields))
    return (Trajectory(track_id=1, detections=(detection,)),)


def test_box_corner_order_enforced(tmp_path) -> None:
    _rejected(_one_box((1, 0, 0, 1)), "out of order", tmp_path)
    _rejected(_one_box((2**53 + 1, 0, 2**53, 1)), "out of order", tmp_path)  # equal once cast to float


def test_detection_score_range(tmp_path) -> None:
    _rejected(_one_box(score=1.5), "score", tmp_path)
    _rejected(_one_box(frame=-1), "frame index", tmp_path)


def test_track_ids_positive_and_consistent(tmp_path) -> None:
    zero = Detection(frame=0, box=Box(0, 0, 1, 1), track_id=0)
    _rejected((Trajectory(track_id=0, detections=(zero,)),), "positive", tmp_path)
    _rejected((Trajectory(track_id=0, detections=()),), "positive", tmp_path)
    _rejected(_one_box(track_id=2), "disagrees", tmp_path)


def test_trajectory_frames_strictly_increasing() -> None:
    with pytest.raises(ValidationError):
        make_video("v", [make_track(1, [(0, 0, 0, 1, 1), (0, 0, 0, 1, 1)])], num_frames=1)


def test_video_rejects_duplicate_track_ids() -> None:
    track = make_track(1, [(0, 0, 0, 1, 1)])
    with pytest.raises(ValidationError):
        make_video("v", [track, track], num_frames=2)


def test_video_rejects_frame_out_of_range() -> None:
    with pytest.raises(ValidationError):
        make_video("v", [make_track(1, [(5, 0, 0, 1, 1)])], num_frames=3)


def test_from_rows_regroups_shuffled_rows(rng) -> None:
    tracks = [
        make_track(3, [(0, 0, 0, 1, 1), (2, 1, 1, 2, 2)], caption="a red car crosses"),
        make_track(7, [(1, 4, 4, 6, 6)], caption="a dog waits"),
        make_track(2, [(0, 2, 2, 3, 3), (1, 2, 2, 3, 3), (2, 2, 2, 3, 3)]),
    ]
    video = make_video("v", tracks, num_frames=3)
    # Flat (track_id, frame, corners, score) rows in shuffled order.
    rows = [(t.track_id, d.frame, d.box.as_tuple(), d.score) for t in video.trajectories for d in t.detections]
    track_ids, frames, corners, scores = zip(*(rows[k] for k in rng.permutation(len(rows))))
    rebuilt = VideoTable.from_rows(
        video.video_id,
        video.num_frames,
        track_ids,
        frames,
        corners,
        scores,
        track_captions={t.track_id: t.caption.raw for t in video.trajectories if t.caption},
    )
    assert rebuilt.track_ids.tolist() == [2, 3, 7]
    for original in video.trajectories:
        twin = next(t for t in rebuilt.trajectories if t.track_id == original.track_id)
        assert twin.frames == original.frames
        assert twin.caption == original.caption
        assert [d.box for d in twin.detections] == [d.box for d in original.detections]


def test_tokenize_idempotent() -> None:
    for text in ("A red CAR!", "dog, dog; dog", "  spaces   everywhere ", "x1 -- y2"):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


def test_tokenize_keeps_letters_of_every_script() -> None:
    assert tokenize("un café") == ("un", "café")
    assert tokenize("Naïve ÜBER!") == ("naïve", "über")
    assert tokenize("straße") == ("straße",)
    assert tokenize("一只狗在跑") == ("一只狗在跑",)
    # Composed and decomposed spellings of the same text give the same tokens.
    assert tokenize("caf\u00e9") == tokenize("cafe\u0301") == ("caf\u00e9",)


def test_tokenize_on_ascii_is_the_ascii_rule() -> None:
    rng = np.random.default_rng(0)
    for codes in rng.integers(0, 128, size=(2000, 24)).tolist():
        text = "".join(map(chr, codes))
        assert tokenize(text) == tuple(re.sub(r"[^a-z0-9]+", " ", text.lower()).split()), text


def test_caption_tokens_must_match_raw() -> None:
    assert Caption.from_text("A dog!").tokens == ("a", "dog")
    with pytest.raises(TypeError):
        Caption(raw="a dog", tokens=("dog",))  # tokens is derived, not an __init__ argument


def _table(**edit) -> VideoTable:
    """Two tracks: id 4 on frames 0 and 2, id 9 on frame 1."""
    columns = dict(
        video_id="v", num_frames=3, track_ids=[4, 9], track_captions=("a dog", None), offsets=[0, 2, 3],
        frames=[0, 2, 1], corners=[[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 6.0]],
        scores=[0.5, 1.0, 0.0], box_captions=(None, "a big dog", None),
    )
    return VideoTable(**dict(columns, **edit))


def test_video_table_round_trips_records() -> None:
    (record,) = as_records([_table()])
    assert [t.track_id for t in record.trajectories] == [4, 9]
    assert record.trajectories[0].detections[1].caption.raw == "a big dog"
    assert record.trajectories[1].caption is None
    again = VideoTable.from_record(record)
    assert as_records([again]) == [record]
    assert again.box_captions == (None, "a big dog", None)
    assert as_records([VideoTable.from_record(VideoRecord("e", 1, ()))]) == [VideoRecord("e", 1, ())]


@pytest.mark.parametrize(
    "edit, message",
    [
        (dict(num_frames=0), "num_frames"),
        (dict(num_frames=2**63), "num_frames"),
        (dict(track_ids=[4, 2**63]), "64-bit"),
        (dict(track_ids=[4, 2**64]), "64-bit"),
        (dict(frames=[0.0, 2.0, 1.0]), "integers"),
        (dict(track_ids=[4, 0]), "positive"),
        (dict(track_ids=[4, 4]), "duplicate track_id 4"),
        (dict(offsets=[0, 1, 2]), "lengths"),
        (dict(scores=[0.5, 1.0]), "lengths"),
        (dict(box_captions=(None,)), "lengths"),
        (dict(corners=[[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, np.inf], [5.0, 5.0, 5.0, 6.0]]), "finite"),
        (dict(corners=[[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 3.0], [5.0, 5.0, 4.0, 6.0]]), "out of order"),
        (dict(scores=[0.5, np.nan, 0.0]), "score"),
        (dict(scores=[0.5, 1.5, 0.0]), "score"),
        (dict(frames=[0, 2, -1]), ">= 0"),
        (dict(frames=[0, 3, 1]), "num_frames"),
        (dict(frames=[2, 2, 1]), "track 4: frames must be strictly increasing"),
        (dict(frames=[2, 0, 1]), "track 4: frames must be strictly increasing"),
    ],
)
def test_video_table_checks_columns(edit, message) -> None:
    with pytest.raises(ValidationError, match=message):
        _table(**edit)


@pytest.mark.parametrize(
    "edit, message",
    [
        (dict(video_id=3), "video_id must be a str, got int"),
        (dict(track_captions=("a dog", 7)), "video 'v': track captions must be str or None, got int"),
        (dict(box_captions=(None, b"a big dog", None)), "video 'v': box captions must be str or None, got bytes"),
        (dict(box_captions=[None, ["a", "dog"], None]), "video 'v': box captions must be str or None, got list"),
    ],
)
def test_video_table_ids_and_captions_are_strings(edit, message) -> None:
    with pytest.raises(ValidationError, match=message):
        _table(**edit)


def test_video_table_stores_box_captions_that_are_all_none_as_none() -> None:
    assert _table(box_captions=(None,) * 3).box_captions is None
    assert _table(box_captions=[None, None, None]).box_captions is None
    assert _table(box_captions=[None, "a big dog", None]).box_captions == (None, "a big dog", None)
    empty = dict(track_ids=[], track_captions=(), offsets=[0], frames=[], corners=np.zeros((0, 4)), scores=[])
    assert _table(**empty, box_captions=()).box_captions is None
    rows = VideoTable.from_rows("v", 2, [1, 2], [0, 1], _ROW_CORNERS, [0.5, 0.5], box_captions=[None, None])
    assert rows.box_captions is None
    assert VideoTable.from_record(as_records([_table(box_captions=None)])[0]).box_captions is None


def test_video_table_frames_restart_at_track_boundary() -> None:
    table = _table(frames=[1, 2, 0], offsets=[0, 2, 3])
    assert table.trajectories[1].frames == (0,)


def test_only_the_file_boundary_imports_record_classes() -> None:
    """Computing layers take tables, corner rows and token sequences; only core names a record class.

    formats names ``VideoRecord`` alone, for ``save_dataset``, which converts records: it reads and builds none.
    """
    record_classes = {"Box", "Caption", "Detection", "Trajectory", "VideoRecord"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("core.py", "__init__.py"):
            continue
        allowed = {"VideoRecord"} if path.name == "formats.py" else set()
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            names += [node.attr] if isinstance(node, ast.Attribute) else []
            names += [node.id] if isinstance(node, ast.Name) else []
            named += [f"{path.name}: {name}" for name in names if name.rsplit(".", 1)[-1] in record_classes - allowed]
    assert named == []


_ROW_FRAMES, _ROW_CORNERS = np.array([0, 1]), np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])

# Each entry point that converts a caller array, one argument at a time: (a valid value, whether integers
# belong there, the call). Integer slots follow core's integer rule, the others its real-number rule.
_VALUE_SLOTS = {
    "VideoTable-num_frames": (np.array(3), True, lambda v: _table(num_frames=v)),
    "VideoTable-track_ids": (np.array([4, 9]), True, lambda v: _table(track_ids=v)),
    "VideoTable-frames": (np.array([0, 2, 1]), True, lambda v: _table(frames=v)),
    "VideoTable-corners": (np.array(_table().corners), False, lambda v: _table(corners=v)),
    "VideoTable-scores": (np.array([0.5, 1.0, 0.0]), False, lambda v: _table(scores=v)),
    "from_rows-track_ids": (np.array([1, 2]), True,
                            lambda v: VideoTable.from_rows("v", 2, v, _ROW_FRAMES, _ROW_CORNERS, [0.5, 0.5])),
    "from_rows-frames": (_ROW_FRAMES, True, lambda v: VideoTable.from_rows("v", 2, [1, 2], v, _ROW_CORNERS, [1, 1])),
    "from_rows-corners": (_ROW_CORNERS, False, lambda v: VideoTable.from_rows("v", 2, [1, 2], [0, 1], v, [1, 1])),
    "from_rows-scores": (np.array([0.5, 0.5]), False,
                         lambda v: VideoTable.from_rows("v", 2, [1, 2], [0, 1], _ROW_CORNERS, v)),
    "check_corners": (_ROW_CORNERS, False, check_corners),
    "AssocMatrix-values": (np.eye(2), False, lambda v: AssocMatrix(values=v, frame_of=_ROW_FRAMES)),
    "AssocMatrix-frame_of": (_ROW_FRAMES, True, lambda v: AssocMatrix(values=np.eye(2), frame_of=v)),
    "IdentityAssignment": (np.array([1, 2]), True, lambda v: IdentityAssignment(ids=v)),
    "soft_aggregate": (np.ones((2, 3)), False, lambda v: soft_aggregate(AssocMatrix(np.eye(2), _ROW_FRAMES), v)),
    "hard_aggregate-features": (np.ones((2, 3)), False,
                                lambda v: hard_aggregate(v, IdentityAssignment(np.array([1, 1])), _ROW_FRAMES)),
    "hard_aggregate-frame_of": (_ROW_FRAMES, True,
                                lambda v: hard_aggregate(np.ones((2, 3)), IdentityAssignment(np.array([1, 1])), v)),
    "save_matrix-values": (np.eye(2), False, lambda v: save_matrix("v", _ROW_FRAMES, v, "m.json", "assoc")),
    "save_matrix-frame_of": (_ROW_FRAMES, True, lambda v: save_matrix("v", v, np.eye(2), "m.json", "features")),
    "caption_loss-logits": (np.zeros((2, 3)), False, lambda v: caption_loss(v, [0, 1])),
    "caption_loss-tokens": (np.array([0, 1]), True, lambda v: caption_loss(np.zeros((2, 3)), v)),
    "heatmap_loss-prediction": (np.full((2, 2), 0.5), False, lambda v: heatmap_loss(v, np.zeros((2, 2)), 1)),
    "heatmap_loss-target": (np.zeros((2, 2)), False, lambda v: heatmap_loss(np.full((2, 2), 0.5), v, 1)),
    "heatmap_loss-n": (np.array(3), True, lambda v: heatmap_loss(np.full((2, 2), 0.5), np.zeros((2, 2)), v)),
    "assoc_loss-prediction": (np.full((2, 2), 0.5), False, lambda v: assoc_loss(v, np.eye(2))),
    "assoc_loss-target": (np.eye(2), False, lambda v: assoc_loss(np.full((2, 2), 0.5), v)),
}

# Values the rules reject, as callers pass them: bools and numeric strings as Python values, numbers held
# in an object array, and (where integers belong) fractions.
_REJECTED = {
    "bools": lambda v: v.astype(bool).tolist(),
    "numeric-strings": lambda v: v.astype(str).tolist(),
    "object-array": lambda v: v.astype(object),
}


@pytest.mark.parametrize("slot, bad", [(slot, bad) for slot, (_, integers, _) in _VALUE_SLOTS.items()
                                       for bad in [*_REJECTED, *(["fractions"] if integers else [])]])
def test_every_entry_point_applies_the_value_rules(tmp_path, monkeypatch, slot, bad) -> None:
    monkeypatch.chdir(tmp_path)
    valid, _, call = _VALUE_SLOTS[slot]
    call(valid)  # the slot takes its valid value
    value = (valid + 0.5).tolist() if bad == "fractions" else _REJECTED[bad](valid)
    with pytest.raises(ValidationError, match="must be (integers in the 64-bit range|real numbers)"):
        call(value)


def test_from_rows_checks_column_lengths() -> None:
    with pytest.raises(ValidationError, match="video 'v': column lengths disagree"):
        VideoTable.from_rows("v", 2, [1, 2], [0, 1], _ROW_CORNERS, [0.5])
    with pytest.raises(ValidationError, match="video 'v': column lengths disagree"):
        VideoTable.from_rows("v", 2, [1, 2], [0, 1], _ROW_CORNERS, [0.5, 0.5], box_captions=["a"])
