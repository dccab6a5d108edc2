"""JSON file formats: datasets, matrices, and sidecar tables.

Dataset files hold a list of video objects::

    [{"video_id": str, "num_frames": int,
      "tracks": [{"track_id": int, "caption": str?,
                  "boxes": [{"frame": int, "box": [x1, y1, x2, y2],
                             "score": float?, "caption": str?}]}]}]

Matrix files hold one matrix per file::

    {"video_id": str, "frame_of": [int], "dim": M, "values": [row-major]}

for association matrices, with ``"dim": [M, D]`` for feature matrices.
Schema violations are errors with a JSON-path diagnostic; unknown fields are
errors only under strict mode. Predicted-observation indices used by sidecar
files count detections in frame-major order, within a frame in track order:
``VideoTable.frame_order`` defines that order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .assoc import AssocMatrix
from .core import ValidationError, VideoRecord, VideoTable, check_corners, check_nll, first_broken_rule


class FormatError(ValueError):
    """Malformed input file; message carries the offending location."""


_VIDEO_KEYS = {"video_id", "num_frames", "tracks"}
_TRACK_KEYS = {"track_id", "caption", "boxes"}
_BOX_KEYS = {"frame", "box", "score", "caption"}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _float(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FormatError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where}: integer is too large for a float") from None


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float:
        return value if type(value) is float else _float(value, f"{where}.{key}")
    if kind is int:
        if not _is_int(value):
            raise FormatError(f"{where}.{key}: expected an integer, got {type(value).__name__}")
        if not -(2**63) <= value < 2**63:
            raise FormatError(f"{where}.{key}: integer {value} is out of the 64-bit range")
        return value
    if not isinstance(value, kind):
        raise FormatError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _read_json(path: Path) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise FormatError(f"{path}: {exc}") from exc


def _check_unknown(obj: dict, allowed: set[str], where: str, strict: bool) -> None:
    if strict:
        unknown = set(obj) - allowed
        if unknown:
            raise FormatError(f"{where}: unknown fields {sorted(unknown)}")


def _parse_box(raw: Any, where: str) -> tuple[float, float, float, float]:
    """The corner row of a box value, checked by ``check_corners``."""
    if not isinstance(raw, list) or len(raw) != 4:
        raise FormatError(f"{where}: box must be a list [x1, y1, x2, y2]")
    corners = tuple(_float(v, f"{where}.box[{k}]") for k, v in enumerate(raw))
    try:
        check_corners([corners])
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return corners


def _all_of(values: list, *kinds: type) -> bool:
    """Whether every value is an instance of one of ``kinds`` and not a bool (a bool is never a number).

    Values of exactly those types pass without a per-value check.
    """
    return set(map(type, values)) <= set(kinds) or all(isinstance(v, kinds) and not isinstance(v, bool) for v in values)


def _track_fields(track: Any, where: str, strict: bool) -> tuple[int, str | None, list]:
    """A track object's id, caption and box list, checked in document order."""
    if not isinstance(track, dict):
        raise FormatError(f"{where}: expected an object")
    _check_unknown(track, _TRACK_KEYS, where, strict)
    track_id = _require(track, "track_id", int, where)
    caption = None
    if track.get("caption") is not None:
        caption = _require(track, "caption", str, where)
    return track_id, caption, _require(track, "boxes", list, where)


def _video_table(video_id: str, num_frames: int, tracks: list, where: str, strict: bool) -> VideoTable:
    """One video's boxes gathered into columns and checked by column.

    Raises on the first check that fails, which need not be the check of
    the first bad element in document order.
    """
    malformed = FormatError(f"{where}: a box does not match the schema")
    track_ids, track_captions, counts, entries = [], [], [0], []
    for ti, track in enumerate(tracks):
        track_id, caption, boxes = _track_fields(track, f"{where}.tracks[{ti}]", strict)
        track_ids.append(track_id)
        track_captions.append(caption)
        counts.append(len(boxes))
        entries.extend(boxes)
    if not _all_of(entries, dict) or (strict and not set().union(*entries) <= _BOX_KEYS):
        raise malformed
    frames = [e.get("frame") for e in entries]
    boxes = [e.get("box") for e in entries]
    scores = [e.get("score", 1.0) for e in entries]
    captions = [e.get("caption") for e in entries]
    if not (_all_of(boxes, list) and set(map(len, boxes)) <= {4}):
        raise malformed
    coords = list(chain.from_iterable(boxes))
    if not (
        _all_of(frames, int)
        and _all_of(coords, int, float)
        and _all_of(scores, int, float)
        and _all_of(captions, str, type(None))
    ):
        raise malformed
    return VideoTable(
        video_id=video_id,
        num_frames=num_frames,
        track_ids=np.array(track_ids, dtype=np.int64),
        track_captions=tuple(track_captions),
        offsets=np.cumsum(counts),
        frames=np.array(frames, dtype=np.int64),  # OverflowError beyond 64 bits
        corners=np.array(coords, dtype=float).reshape(-1, 4),  # OverflowError beyond the float range
        scores=np.array(scores, dtype=float),
        box_captions=None if captions.count(None) == len(captions) else tuple(captions),
    )


def _first_error(video_id: str, num_frames: int, tracks: list, where: str, strict: bool) -> None:
    """Raise the first error of a video in document order, with its JSON path.

    Walks the schema box by box to its first error, which a rule broken before it (``first_broken_rule``
    over the boxes walked) precedes. Only a video that failed its column checks gets here.
    """
    track_ids, rows, error, complete = [], [], None, len(tracks)
    try:
        for ti, track in enumerate(tracks):
            twhere = f"{where}.tracks[{ti}]"
            track_id, _, boxes = _track_fields(track, twhere, strict)
            track_ids.append(track_id)
            for bi, entry in enumerate(boxes):
                bwhere = f"{twhere}.boxes[{bi}]"
                if not isinstance(entry, dict):
                    raise FormatError(f"{bwhere}: expected an object")
                _check_unknown(entry, _BOX_KEYS, bwhere, strict)
                frame = _require(entry, "frame", int, bwhere)
                box = _parse_box(entry.get("box"), bwhere)
                score = _require(entry, "score", float, bwhere) if "score" in entry else 1.0
                if entry.get("caption") is not None:
                    _require(entry, "caption", str, bwhere)
                rows.append((ti, frame, box, score))
    except FormatError as exc:
        error, complete = exc, ti
    row_track, frames, corners, scores = zip(*rows) if rows else ((), (), (), ())
    broken = first_broken_rule(video_id, num_frames, np.array(track_ids, dtype=np.int64),
                               np.searchsorted(row_track, range(len(track_ids) + 1)), np.array(frames, dtype=np.int64),
                               np.array(corners, dtype=float).reshape(-1, 4), np.array(scores, dtype=float))
    # Before a schema error come only the rules of the boxes walked and of the tracks walked to their end.
    if broken and (error is None or broken[2] is not None or (broken[1] is not None and broken[1] < complete)):
        message, track, box = broken
        path = where if track is None else f"{where}.tracks[{track}]" + ("" if box is None else f".boxes[{box}]")
        raise FormatError(f"{path}: {message}")
    if error is not None:
        raise error


def parse_dataset(data: Any, strict: bool = False) -> list[VideoTable]:
    """The videos of a dataset file's JSON value, one ``VideoTable`` each.

    Box values are gathered into columns and checked by column. A video that
    fails a check has its schema walked again box by box, so the error names
    the first bad element in document order. No record is built.
    """
    if not isinstance(data, list):
        raise FormatError("top level: expected a list of video objects")
    tables = []
    seen_ids: set[str] = set()
    for vi, video in enumerate(data):
        where = f"video[{vi}]"
        if not isinstance(video, dict):
            raise FormatError(f"{where}: expected an object")
        _check_unknown(video, _VIDEO_KEYS, where, strict)
        video_id = _require(video, "video_id", str, where)
        if video_id in seen_ids:
            raise FormatError(f"{where}: duplicate video_id {video_id!r}")
        seen_ids.add(video_id)
        num_frames = _require(video, "num_frames", int, where)
        tracks = _require(video, "tracks", list, where)
        try:
            tables.append(_video_table(video_id, num_frames, tracks, where, strict))
        except (FormatError, ValidationError, OverflowError) as exc:
            _first_error(video_id, num_frames, tracks, where, strict)
            raise FormatError(f"{where}: {exc}") from exc
    return tables


def load_dataset(path: str | Path, strict: bool = False) -> list[VideoTable]:
    """The videos of a dataset file as tables, by ``parse_dataset``; ``VideoTable.trajectories`` is the record view."""
    path = Path(path)
    data = _read_json(path)
    try:
        return parse_dataset(data, strict=strict)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


_BOX_JSON = '{"frame":%d,"box":[%r,%r,%r,%r],"score":%r}'


def _video_json(table: VideoTable) -> str:
    """One video object, as ``json.dumps`` writes it with ``separators=(",", ":")``."""
    quote = json.encoder.encode_basestring_ascii
    corners = table.corners.T.tolist()
    boxes = list(map(_BOX_JSON.__mod__, zip(table.frames.tolist(), *corners, table.scores.tolist())))
    if table.box_captions is not None:
        boxes = [
            b if c is None else f'{b[:-1]},"caption":{quote(c)}}}' for b, c in zip(boxes, table.box_captions)
        ]
    offsets = table.offsets.tolist()
    tracks = []
    for t, (track_id, caption) in enumerate(zip(table.track_ids.tolist(), table.track_captions)):
        track_boxes = ",".join(boxes[offsets[t] : offsets[t + 1]])
        tail = "" if caption is None else f',"caption":{quote(caption)}'
        tracks.append(f'{{"track_id":{track_id},"boxes":[{track_boxes}]{tail}}}')
    head = f'"video_id":{quote(table.video_id)},"num_frames":{table.num_frames}'
    return f'{{{head},"tracks":[{",".join(tracks)}]}}'


def save_dataset(videos: Sequence[VideoTable | VideoRecord], path: str | Path) -> None:
    """Write a dataset file in compact JSON; dataset files can hold hundreds of thousands of boxes.

    The one place a record is converted: by ``VideoTable.from_record``, where it meets the dataset
    rules, before the file is opened. Coordinates and scores are always written as JSON floats.
    """
    tables = [v if isinstance(v, VideoTable) else VideoTable.from_record(v) for v in videos]
    with Path(path).open("w") as f:  # one video's text at a time, not the whole file's
        f.writelines(chain(["["], (("," if i else "") + _video_json(t) for i, t in enumerate(tables)), ["]\n"]))


@dataclass
class FeatureFile:
    video_id: str
    frame_of: np.ndarray
    values: np.ndarray  # (M, D)


# Each matrix file kind and how an error names it.
_MATRIX_KINDS = {"assoc": "an association matrix", "features": "a feature matrix"}


def _matrix_kind(kind: str) -> str:
    if kind not in _MATRIX_KINDS:
        raise ValidationError(f"matrix kind must be 'assoc' or 'features', got {kind!r}")
    return kind


def load_matrix(path: str | Path, kind: str) -> AssocMatrix | FeatureFile:
    """Load an association matrix ("assoc", dim: M) or a feature matrix ("features", dim: [M, D]).

    A file holding the other kind is a FormatError.
    """
    _matrix_kind(kind)
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level: expected an object")
    where = str(path)
    video_id = _require(data, "video_id", str, where)
    frame_of = _require(data, "frame_of", list, where)
    if not all(_is_int(v) for v in frame_of):
        raise FormatError(f"{where}.frame_of: expected a list of integers")
    values = _require(data, "values", list, where)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise FormatError(f"{where}.values: expected a flat list of numbers")
    try:
        frame_of = np.asarray(frame_of, dtype=int)
        values = np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: matrix values must all be finite")
    dim = data.get("dim")
    if _is_int(dim):
        held, (m, d) = "assoc", (dim, dim)
    elif isinstance(dim, list) and len(dim) == 2 and all(_is_int(v) and v >= 0 for v in dim):
        held, (m, d) = "features", dim
    else:
        raise FormatError(f"{where}: dim must be an integer M or a pair [M, D]")
    if held != kind:
        raise FormatError(f"{where} holds {_MATRIX_KINDS[held]}, not {_MATRIX_KINDS[kind]}")
    if values.size != m * d:
        raise FormatError(f"{where}: expected {m}x{d} values, got {values.size}")
    if len(frame_of) != m:
        raise FormatError(f"{where}: frame_of length {len(frame_of)} != {m} rows")
    if kind == "features":
        return FeatureFile(video_id=video_id, frame_of=frame_of, values=values.reshape(m, d))
    try:
        return AssocMatrix(values=values.reshape(m, m), frame_of=frame_of)
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def save_matrix(
    video_id: str,
    frame_of: np.ndarray,
    values: np.ndarray,
    path: str | Path,
    kind: str,
) -> None:
    """Write an association ("assoc") or feature ("features") matrix file."""
    values = np.asarray(values, dtype=float)
    square = values.ndim == 2 and values.shape[0] == values.shape[1] == len(frame_of)
    if _matrix_kind(kind) == "assoc" and not square:
        raise ValidationError("association matrices must be square with matching frame_of")
    obj = {
        "video_id": video_id,
        "frame_of": [int(f) for f in frame_of],
        "dim": int(values.shape[0]) if kind == "assoc" else [int(values.shape[0]), int(values.shape[1])],
        "values": [float(v) for v in values.reshape(-1)],
    }
    Path(path).write_text(json.dumps(obj, separators=(",", ":")) + "\n")


def load_external_scores(path: str | Path) -> dict[tuple[str, int, int], float]:
    """Sidecar caption scores keyed (video_id, pred_observation_index, gt_track_id)."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top level: expected a list of score records")
    out: dict[tuple[str, int, int], float] = {}
    for i, rec in enumerate(data):
        where = f"{path}: record[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: expected an object")
        video_id = _require(rec, "video_id", str, where)
        obs = _require(rec, "pred_observation_index", int, where)
        gt_track = _require(rec, "gt_track_id", int, where)
        score = _require(rec, "score", float, where)
        if not (0.0 <= score <= 1.0):
            raise FormatError(f"{where}: score must be in [0, 1], got {score}")
        key = (video_id, obs, gt_track)
        if key in out:
            raise FormatError(f"{where}: duplicate (video_id, pred_observation_index, gt_track_id) {key}")
        out[key] = score
    return out


def load_likelihoods(
    path: str | Path,
) -> tuple[dict[tuple[str, int, int, str], float], dict[tuple[str, int, str], float]]:
    """Likelihood table records, split into per-frame and per-track entries.

    Per-frame records carry (video_id, frame, observation_index, query_id,
    nll); per-track records carry (video_id, track_id, query_id, nll).
    """
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top level: expected a list of likelihood records")
    per_frame: dict[tuple[str, int, int, str], float] = {}
    per_track: dict[tuple[str, int, str], float] = {}
    # Messages are built relative to the record (``where`` is empty); the
    # record's location is prefixed on the error path only.
    where = ""
    for i, rec in enumerate(data):
        try:
            if not isinstance(rec, dict):
                raise FormatError(f"{where}: expected an object")
            video_id = _require(rec, "video_id", str, where)
            query_id = _require(rec, "query_id", str, where)
            nll = _require(rec, "nll", float, where)
            try:
                check_nll(nll)
            except ValidationError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            if "track_id" in rec:
                table, key = per_track, (video_id, _require(rec, "track_id", int, where), query_id)
            else:
                frame = _require(rec, "frame", int, where)
                obs = _require(rec, "observation_index", int, where)
                table, key = per_frame, (video_id, frame, obs, query_id)
            if key in table:
                raise FormatError(f"{where}: duplicate likelihood record {key}")
        except FormatError as exc:
            raise FormatError(f"{path}: record[{i}]{exc}") from exc.__cause__
        table[key] = nll
    return per_frame, per_track


def load_queries(path: str | Path) -> list[dict]:
    """Grounding queries with their annotated spans and per-frame ``(x1, y1, x2, y2)`` corner rows."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top level: expected a list of query records")
    queries: dict[tuple[str, str], dict] = {}
    for i, rec in enumerate(data):
        where = f"{path}: query[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: expected an object")
        span = _require(rec, "span", list, where)
        if len(span) != 2 or not all(_is_int(v) for v in span) or span[0] > span[1]:
            raise FormatError(f"{where}: span must be integers [start, end] with start <= end")
        boxes = {}
        entries = _require(rec, "boxes", list, where)
        for bi, entry in enumerate(entries):
            bwhere = f"{where}.boxes[{bi}]"
            if not isinstance(entry, dict):
                raise FormatError(f"{bwhere}: expected an object")
            frame = _require(entry, "frame", int, bwhere)
            if frame in boxes:
                raise FormatError(f"{bwhere}: duplicate box for frame {frame}")
            boxes[frame] = _parse_box(entry.get("box"), bwhere)
        # Every span frame needs a box, so a span is bounded by the size of the
        # file: a span longer than the box list misses a frame among its first
        # len(boxes) + 1.
        end = min(span[1], span[0] + len(boxes))
        missing = next((f for f in range(span[0], end + 1) if f not in boxes), None)
        if missing is not None:
            raise FormatError(f"{where}: span {span} has no box for frame {missing}")
        query = {
            "video_id": _require(rec, "video_id", str, where),
            "query_id": _require(rec, "query_id", str, where),
            "text": _require(rec, "text", str, where),
            "span": (span[0], span[1]),
            "boxes": boxes,
        }
        key = (query["video_id"], query["query_id"])
        if key in queries:
            raise FormatError(f"{where}: duplicate (video_id, query_id) {key}")
        queries[key] = query
    return list(queries.values())


def load_ids(path: str | Path) -> np.ndarray:
    """Identity vector from an ``{"ids": [int, ...]}`` file, as track-assign writes it."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level: expected an object")
    ids = _require(data, "ids", list, str(path))
    if not all(_is_int(v) for v in ids):
        raise FormatError(f"{path}.ids: expected a list of integers")
    try:
        return np.asarray(ids, dtype=int)
    except OverflowError as exc:
        raise FormatError(f"{path}.ids: {exc}") from exc


def load_flat_records(path: str | Path, video_id: str, num_frames: int | None = None,
                      one_based_frames: bool = False) -> VideoTable:
    """Convert flat per-frame CSV rows into a track-grouped table.

    Rows are ``frame,track_id,x,y,w,h[,score]`` (the common tracking-bench
    layout: top-left corner plus width and height). Lines starting with '#'
    and blank lines are skipped. ``one_based_frames`` shifts frame numbers
    down by one on ingestion. An error names the first bad line: one that does not
    parse, or whose box breaks a rule (corners, frame, score, track id, in that order).
    """
    path = Path(path)
    shift = 1 if one_based_frames else 0
    text, rows, error = _read_text(path), [], None
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (6, 7):
                raise ValueError("expected 6 or 7 comma-separated fields")
            frame, track_id = int(parts[0]) - shift, int(parts[1])
            x, y, w, h = (float(v) for v in parts[2:6])
            score = float(parts[6]) if len(parts) == 7 else 1.0
            for value in (frame, track_id):
                if not -(2**63) <= value < 2**63:
                    raise ValueError(f"integer {value} is out of the 64-bit range")
            rows.append((lineno, frame, track_id, (x, y, x + w, y + h), score))
    except ValueError as exc:
        error = FormatError(f"{path}: line {lineno}: {exc}")
    linenos, frames, track_ids, corners, scores = zip(*rows) if rows else ((),) * 5
    frames, track_ids = np.array(frames, dtype=np.int64), np.array(track_ids, dtype=np.int64)
    corners, scores = np.array(corners, dtype=float).reshape(-1, 4), np.array(scores, dtype=float)
    # Each row as a track of its own: a broken box rule then comes first, at its row.
    broken = first_broken_rule(video_id, 1, track_ids, np.arange(len(frames) + 1), frames, corners, scores)
    if broken is not None and broken[2] is not None:
        raise FormatError(f"{path}: line {linenos[broken[1]]}: {broken[0]}")
    if error is not None:
        raise error
    num_frames = int(frames.max(initial=0)) + 1 if num_frames is None else num_frames
    try:
        return VideoTable.from_rows(video_id, num_frames, track_ids, frames, corners, scores)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
