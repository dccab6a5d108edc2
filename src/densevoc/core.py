"""Shared domain types and box geometry.

Boxes are corner pairs (x1, y1, x2, y2) in finite real coordinates; any
(x, y, w, h) input is converted at ingestion time. Zero-area boxes are legal
and score IoU 0 against everything, including themselves, so degraded
synthetic data never crashes an evaluation.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np


class ValidationError(ValueError):
    """Raised when a domain object violates one of its invariants."""


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


_TOKEN_CLEANER = re.compile(r"[\W_]+")


def tokenize(text: str) -> tuple[str, ...]:
    """NFC-normalize, lowercase, and split on runs of characters that are not letters or digits, of any script."""
    return tuple(_TOKEN_CLEANER.sub(" ", unicodedata.normalize("NFC", text).lower()).split())


@dataclass(frozen=True)
class Caption:
    """A caption as its raw string plus the deterministic tokenization."""

    raw: str
    tokens: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tokenize(self.raw))

    @classmethod
    def from_text(cls, text: str) -> "Caption":
        return cls(raw=text)

    def __bool__(self) -> bool:
        return len(self.tokens) > 0


@dataclass(frozen=True)
class Detection:
    """One object observation in one frame."""

    frame: int
    box: Box
    score: float = 1.0
    track_id: int | None = None
    caption: Caption | None = None


@dataclass(frozen=True)
class Trajectory:
    """Per-frame detections sharing one identity, at most one per frame."""

    track_id: int
    detections: tuple[Detection, ...]
    caption: Caption | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))

    @property
    def frames(self) -> tuple[int, ...]:
        return tuple(d.frame for d in self.detections)


@dataclass(frozen=True)
class VideoRecord:
    """All trajectories of one video, for either predictions or ground truth."""

    video_id: str
    num_frames: int
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))


def _corner_faults(corners: np.ndarray) -> np.ndarray:
    """Which rows of an ``(n, 4)`` corner array break the box invariant: a corner not finite, x1 > x2 or y1 > y2."""
    x1, y1, x2, y2 = corners.T
    return ~((-math.inf < x1) & (x1 <= x2) & (x2 < math.inf) & (-math.inf < y1) & (y1 <= y2) & (y2 < math.inf))


def _corner_message(row: np.ndarray) -> str:
    row = tuple(row.tolist())
    return f"box corners out of order: {row}" if np.isfinite(row).all() else f"box corners must be finite, got {row}"


def check_corners(corners) -> np.ndarray:
    """Corner rows ``(x1, y1, x2, y2)`` as an ``(n, 4)`` float array, each row finite with x1 <= x2 and y1 <= y2.

    The one definition of the box invariant; its ValidationError names the first bad row.
    """
    corners = _real_column(corners, "box corners").reshape(-1, 4)
    bad = np.flatnonzero(_corner_faults(corners))
    if len(bad):
        raise ValidationError(_corner_message(corners[bad[0]]))
    return corners


def _score_message(score: float) -> str:
    return f"score must be in [0, 1], got {score}"


def check_score(score: float) -> None:
    """``VideoTable``'s rule for a detection score: a ValidationError unless it lies in [0, 1]."""
    if not (0.0 <= score <= 1.0):
        raise ValidationError(_score_message(score))


def check_nll(nll: float) -> None:
    """The one rule for a negative log likelihood: a ValidationError unless it is finite and >= 0."""
    if not (math.isfinite(nll) and nll >= 0.0):
        raise ValidationError(f"nll must be finite and >= 0, got {nll}")


# The two value rules for arrays that callers pass in. Each keeps the values' shape and converts without
# a copy when the array already has the target dtype; an empty input passes whatever its dtype.
def _int_column(values, what: str) -> np.ndarray:
    """``values`` as int64; a ValidationError unless every value is a 64-bit integer.

    A bool, a string, an object array or a float array (a fraction, whatever its value) is not.
    """
    column = np.asarray(values)
    if column.size and not (column.dtype.kind == "i" or (column.dtype.kind == "u" and column.max() < 2**63)):
        raise ValidationError(f"{what} must be integers in the 64-bit range")
    return column.astype(np.int64, copy=False)


def _real_column(values, what: str) -> np.ndarray:
    """``values`` as float64; a ValidationError unless every value is a float or a 64-bit integer.

    A bool, a string or an object array is not; numpy holds an integer beyond 64 bits as an object.
    """
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real numbers or integers in the 64-bit range")
    return column.astype(float, copy=False)


def _all_of(values, *kinds: type) -> bool:
    """Whether every value is an instance of one of ``kinds`` and not a bool (a bool is never a number).

    Values of exactly those types pass without a per-value check.
    """
    return set(map(type, values)) <= set(kinds) or all(isinstance(v, kinds) and not isinstance(v, bool) for v in values)


def _caption_column(captions, what: str) -> tuple[str | None, ...]:
    """``captions`` as a tuple; a ValidationError unless each is a str or None."""
    captions = tuple(captions)
    if not _all_of(captions, str, type(None)):
        bad = next(c for c in captions if not isinstance(c, (str, type(None))))
        raise ValidationError(f"{what} must be str or None, got {type(bad).__name__}")
    return captions


def first_broken_rule(video_id: str, num_frames: int, track_ids: np.ndarray, offsets: np.ndarray,
                      frames: np.ndarray, corners: np.ndarray, scores: np.ndarray):
    """The one home of each dataset rule: the first rule, in document order, that ``VideoTable``'s columns break.

    None, or ``(message, track, box)``: box ``box`` of track ``track``; the track, after its boxes, when
    ``box`` is None; the video, after its tracks (num_frames, then track by track), when both are None.
    """
    n_tracks, n = len(track_ids), len(frames)
    row_track = np.repeat(np.arange(n_tracks), np.diff(offsets))
    # Document positions: box r of track t at r + t, track t after its boxes, then the video's rules.
    box_at, track_at, video_at = np.arange(n) + row_track, offsets[1:] + np.arange(n_tracks), n + n_tracks
    repeated = np.ones(n_tracks, dtype=bool)
    repeated[np.unique(track_ids, return_index=True)[1]] = False
    unordered = np.zeros(n_tracks, dtype=bool)
    unordered[row_track[1:][(frames[1:] <= frames[:-1]) & (row_track[1:] == row_track[:-1])]] = True
    rules = (  # (position of each element, the elements breaking the rule, the message of one), in order at a position
        (box_at, _corner_faults(corners), lambda r: _corner_message(corners[r])),
        (box_at, frames < 0, lambda r: f"frame index must be >= 0, got {frames[r]}"),
        (box_at, ~((scores >= 0.0) & (scores <= 1.0)), lambda r: _score_message(scores[r])),
        # A track id is checked at the track's first box, or after the track when it has none.
        (offsets[:-1] + np.arange(n_tracks), track_ids < 1, lambda t: f"track_id must be positive, got {track_ids[t]}"),
        (track_at, unordered, lambda t: f"track {track_ids[t]}: frames must be strictly increasing, "
                                        f"got {frames[offsets[t] : offsets[t + 1]].tolist()}"),
        (np.array([video_at]), np.array([num_frames < 1]), lambda _: f"num_frames must be >= 1, got {num_frames}"),
        (video_at + 1 + 2 * np.arange(n_tracks), repeated,
         lambda t: f"video {video_id!r}: duplicate track_id {track_ids[t]}"),
        (video_at + 2 + 2 * row_track, frames >= num_frames,
         lambda r: f"video {video_id!r}: frame {frames[r]} >= num_frames {num_frames}"),
    )
    broken = [(at[bad][0], k, np.flatnonzero(bad)[0]) for k, (at, bad, _) in enumerate(rules) if bad.any()]
    if not broken:
        return None
    at, k, i = min(broken)
    if at >= video_at:
        return rules[k][2](i), None, None
    t = int(np.searchsorted(track_at, at))
    return rules[k][2](i), t, None if at == track_at[t] else int(at - offsets[t] - t)


@dataclass(frozen=True, eq=False)
class VideoTable:
    """All trajectories of one video as columns, in file order.

    Per track: ``track_ids`` and ``track_captions``. Per row: ``frames``,
    ``(n, 4)`` ``corners``, ``scores`` and, when any box has one,
    ``box_captions``: box captions that are all None are stored as None.
    Rows run track by track, each track's in increasing
    frame order; track ``t`` owns rows ``offsets[t]:offsets[t + 1]``.
    Captions are raw strings. Construction checks the columns' values by the
    integer and real-number rules and their lengths, then raises the message of
    ``first_broken_rule``, then checks that the video id is a str and each
    caption a str or None. ``from_record`` is where a record
    meets these checks; ``trajectories`` is the record view, built on first use.

    ``frame_order`` is the one definition of observation order, the order
    that sidecar files index; ``from_rows`` is the one regroup of rows into
    file order.
    """

    video_id: str
    num_frames: int
    track_ids: np.ndarray
    track_captions: tuple[str | None, ...]
    offsets: np.ndarray
    frames: np.ndarray
    corners: np.ndarray
    scores: np.ndarray
    box_captions: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        where = f"video {self.video_id!r}"
        num_frames = _int_column(self.num_frames, f"{where}: num_frames")
        track_ids, offsets, frames = (_int_column(column, f"{where}: {name}").reshape(-1) for column, name in (
            (self.track_ids, "track ids"), (self.offsets, "row offsets"), (self.frames, "frames")))
        corners = np.asarray(self.corners)  # integer corners meet the box rule exactly, then become floats
        corners = corners if corners.dtype.kind in "iu" else _real_column(corners, f"{where}: corners")
        corners = corners.reshape(0, 4) if corners.size == 0 else corners
        scores = _real_column(self.scores, f"{where}: scores").reshape(-1)
        n = len(frames)
        if not (
            num_frames.ndim == 0
            and len(self.track_captions) == len(track_ids)
            and len(offsets) == len(track_ids) + 1
            and offsets[0] == 0
            and offsets[-1] == n
            and (np.diff(offsets) >= 0).all()
            and corners.shape == (n, 4)
            and len(scores) == n
            and (self.box_captions is None or len(self.box_captions) == n)
        ):
            raise ValidationError(f"{where}: column lengths disagree")
        broken = first_broken_rule(self.video_id, int(num_frames), track_ids, offsets, frames, corners, scores)
        if broken is not None:
            raise ValidationError(broken[0])
        if not isinstance(self.video_id, str):
            raise ValidationError(f"video_id must be a str, got {type(self.video_id).__name__}")
        track_captions = _caption_column(self.track_captions, f"{where}: track captions")
        box_captions = _caption_column(() if self.box_captions is None else self.box_captions, f"{where}: box captions")
        box_captions = None if box_captions.count(None) == len(box_captions) else box_captions
        for name, value in (("num_frames", int(num_frames)), ("track_ids", track_ids),
                            ("track_captions", track_captions), ("offsets", offsets), ("frames", frames),
                            ("corners", corners.astype(float, copy=False)), ("scores", scores),
                            ("box_captions", box_captions)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_record(cls, record: VideoRecord) -> "VideoTable":
        """The checked table of a record; a detection's own track id, when set, must be its trajectory's."""
        tracks = record.trajectories
        stray = [(d.track_id, t.track_id) for t in tracks for d in t.detections if d.track_id not in (None, t.track_id)]
        if stray:
            raise ValidationError("detection track_id {} disagrees with trajectory {}".format(*stray[0]))
        dets = [d for t in tracks for d in t.detections]
        return cls(
            video_id=record.video_id,
            num_frames=record.num_frames,
            track_ids=[t.track_id for t in tracks],
            track_captions=tuple(None if t.caption is None else t.caption.raw for t in tracks),
            offsets=np.cumsum([0] + [len(t.detections) for t in tracks]),
            frames=[d.frame for d in dets],
            corners=[d.box.as_tuple() for d in dets],
            scores=[d.score for d in dets],
            box_captions=[None if d.caption is None else d.caption.raw for d in dets],
        )

    @classmethod
    def from_rows(cls, video_id: str, num_frames: int, track_ids, frames, corners, scores,
                  track_captions: Mapping[int, str] | None = None, box_captions=None) -> "VideoTable":
        """The table of rows given in any order, regrouped by track id, then by frame.

        ``track_captions`` maps track ids to captions; ``box_captions`` holds
        one caption or None per row.
        """
        where = f"video {video_id!r}"
        track_ids, frames = (_int_column(column, f"{where}: {name}").reshape(-1)
                             for column, name in ((track_ids, "track ids"), (frames, "frames")))
        corners, scores = _real_column(corners, f"{where}: corners"), _real_column(scores, f"{where}: scores")
        if not len(track_ids) == len(frames) == len(corners) == len(scores) == len(box_captions or frames):
            raise ValidationError(f"{where}: column lengths disagree")
        order = np.lexsort((frames, track_ids))
        ids, starts = np.unique(track_ids[order], return_index=True)
        return cls(video_id=video_id, num_frames=num_frames, track_ids=ids,
                   track_captions=tuple(map((track_captions or {}).get, ids.tolist())),
                   offsets=np.append(starts, len(order)), frames=frames[order],
                   corners=corners.reshape(-1, 4)[order], scores=scores[order],
                   box_captions=None if box_captions is None else [box_captions[i] for i in order.tolist()])

    def frame_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows in observation order, and the track index of each.

        Observation order is frame-major and keeps file order within a frame,
        so a prediction row's position in it is its sidecar
        ``pred_observation_index``. Frames without rows cost nothing. Both
        arrays are computed on the first call and are read-only.
        """
        return self._frame_order

    @cached_property
    def _frame_order(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.argsort(self.frames, kind="stable")
        track = np.repeat(np.arange(len(self.track_ids)), np.diff(self.offsets))[rows]
        rows.flags.writeable = track.flags.writeable = False
        return rows, track

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The record view of the table, built on first use; detections carry their track id."""
        frames, corners, scores = self.frames.tolist(), self.corners.tolist(), self.scores.tolist()
        box_captions = self.box_captions or (None,) * len(frames)
        offsets = self.offsets.tolist()
        tracks = []
        for t, (track_id, caption) in enumerate(zip(self.track_ids.tolist(), self.track_captions)):
            dets = tuple(
                Detection(
                    frame=frames[i],
                    box=Box(*corners[i]),
                    score=scores[i],
                    track_id=track_id,
                    caption=None if box_captions[i] is None else Caption.from_text(box_captions[i]),
                )
                for i in range(offsets[t], offsets[t + 1])
            )
            track_caption = None if caption is None else Caption.from_text(caption)
            tracks.append(Trajectory(track_id=track_id, detections=dets, caption=track_caption))
        return tuple(tracks)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (row of a, row of b) pair of (..., n, 4) and (..., m, 4) corner arrays.

    Leading axes broadcast, so stacks of frames give (..., n, m) blocks. An
    entry is 0 when the union has zero area; it repeats the operations of the
    scalar ``iou`` of ``tests/oracles.py`` in order, so it equals it exactly.
    """
    ix = np.minimum(a[..., :, None, 2], b[..., None, :, 2]) - np.maximum(a[..., :, None, 0], b[..., None, :, 0])
    iy = np.minimum(a[..., :, None, 3], b[..., None, :, 3]) - np.maximum(a[..., :, None, 1], b[..., None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a[..., :, None] + area_b[..., None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
