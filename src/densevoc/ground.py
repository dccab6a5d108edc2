"""Likelihood-based spatial grounding.

Per frame, selects the candidate box maximizing detection score times the
likelihood of the query sentence, exp(-NLL). The text decoder itself stays
behind the CaptionScorer interface: a table of precomputed negative log
likelihoods, or NLL 0 everywhere for degenerate tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence

from .core import ValidationError, check_nll
from .metrics import grounding_ious

Corners = Sequence[float]  # one box as its corner row (x1, y1, x2, y2)


class GroundingError(RuntimeError):
    """Scorer failure or missing likelihood record."""


class CaptionScorer(Protocol):
    """Negative log likelihood of a query caption for one candidate."""

    def nll(self, video_id: str, frame: int, candidate: int, query_id: str) -> float: ...


class UniformScorer:
    """NLL 0 for every candidate; selection degenerates to detection-score argmax."""

    def nll(self, video_id: str, frame: int, candidate: int, query_id: str) -> float:
        return 0.0


@dataclass
class TableScorer:
    """NLLs read from a file, keyed per frame candidate or per track.

    ``per_frame`` maps (video_id, frame, candidate_index, query_id) and
    ``per_track`` maps (video_id, track_id, query_id); ``track_of`` supplies
    the candidate-to-track mapping needed by per-track mode.
    """

    per_frame: dict[tuple[str, int, int, str], float] = field(default_factory=dict)
    per_track: dict[tuple[str, int, str], float] = field(default_factory=dict)
    mode: str = "per-frame"
    track_of: dict[tuple[str, int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("per-frame", "per-track"):
            raise ValidationError(f"unknown scorer mode {self.mode!r}")
        for table in (self.per_frame, self.per_track):
            for key, value in table.items():
                try:
                    check_nll(value)
                except ValidationError as exc:
                    raise ValidationError(f"{key}: {exc}") from exc

    def nll(self, video_id: str, frame: int, candidate: int, query_id: str) -> float:
        if self.mode == "per-frame":
            key = (video_id, frame, candidate, query_id)
            if key not in self.per_frame:
                raise GroundingError(f"no likelihood record for {key}")
            return self.per_frame[key]
        track_key = (video_id, frame, candidate)
        if track_key not in self.track_of:
            raise GroundingError(f"no track id known for candidate {track_key}")
        key = (video_id, self.track_of[track_key], query_id)
        if key not in self.per_track:
            raise GroundingError(f"no likelihood record for {key}")
        return self.per_track[key]


@dataclass
class GroundingResult:
    """Per-frame selection plus the weighted-likelihood diagnostics."""

    selections: dict[int, tuple[int, Corners]]  # frame -> (candidate index, corner row)
    values: dict[int, list[float]]  # frame -> s_k * exp(-NLL_k) per candidate

    def selected_boxes(self) -> dict[int, Corners]:
        return {frame: box for frame, (_, box) in self.selections.items()}


def select_boxes(
    candidates: Mapping[int, Sequence[tuple[Any, float]]],
    nlls: Mapping[int, Sequence[float]],
) -> GroundingResult:
    """Pick, per frame, the candidate maximizing score * exp(-NLL).

    Boxes pass through as given. Ties break to the lowest candidate index;
    frames without candidates yield no selection.
    """
    selections: dict[int, tuple[int, Any]] = {}
    values: dict[int, list[float]] = {}
    for frame, cands in candidates.items():
        frame_nlls = nlls[frame]
        if len(frame_nlls) != len(cands):
            raise ValidationError(
                f"frame {frame}: {len(cands)} candidates but {len(frame_nlls)} NLLs"
            )
        if not cands:
            values[frame] = []
            continue
        weighted = [score * math.exp(-nll) for (_, score), nll in zip(cands, frame_nlls)]
        best = max(range(len(weighted)), key=lambda k: (weighted[k], -k))
        selections[frame] = (best, cands[best][0])
        values[frame] = weighted
    return GroundingResult(selections=selections, values=values)


def ground_and_score(
    video_id: str,
    candidates: Mapping[int, Sequence[tuple[Corners, float]]],
    gt_boxes: Mapping[int, Corners],
    gt_span: tuple[int, int],
    scorer: CaptionScorer,
    query_id: str = "",
) -> tuple[GroundingResult, tuple[float, float, float]]:
    """Ground a query over its annotated span and score the selection.

    The ground-truth temporal span is taken as given, so the prediction span
    equals the ground-truth span and tIoU is 1 whenever the span is valid.
    """
    start, end = gt_span
    span_candidates: dict[int, Sequence[tuple[Corners, float]]] = {}
    span_nlls: dict[int, list[float]] = {}
    for frame in range(start, end + 1):
        cands = candidates.get(frame, [])
        span_candidates[frame] = cands
        span_nlls[frame] = [
            scorer.nll(video_id, frame, k, query_id) for k in range(len(cands))
        ]
    result = select_boxes(span_candidates, span_nlls)
    ious = grounding_ious(result.selected_boxes(), gt_span, gt_boxes, gt_span)
    return result, ious
