"""Likelihood-based spatial grounding.

Per frame, selects the candidate box maximizing detection score times the
likelihood of the query sentence, exp(-NLL). The text decoder stays outside:
its negative log likelihoods arrive as a table keyed per frame candidate or
per track (``formats.load_likelihoods``), and a span frame's candidates are
that frame's rows of the prediction ``VideoTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .core import ValidationError, VideoTable, check_nll
from .metrics import grounding_ious

Corners = Sequence[float]  # one box as its corner row (x1, y1, x2, y2)

# The likelihood key modes: per frame candidate (video_id, frame, index, query_id), or per track
# (video_id, track_id, query_id). ``formats.load_likelihoods`` returns their tables in this order.
MODES = ("per-frame", "per-track")


class GroundingError(RuntimeError):
    """A missing likelihood record."""


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
    frames without candidates yield no selection. Every NLL read must pass
    ``core.check_nll``; the ValidationError names its frame and candidate.
    """
    return _select(candidates, nlls, lambda frame, k: f"frame {frame}, candidate {k}")


def _select(candidates, nlls, name: Callable[[int, int], object]) -> GroundingResult:
    """``select_boxes``, naming a bad NLL by ``name(frame, candidate index)``."""
    selections: dict[int, tuple[int, Any]] = {}
    values: dict[int, list[float]] = {}
    for frame, cands in candidates.items():
        frame_nlls = nlls[frame]
        if len(frame_nlls) != len(cands):
            raise ValidationError(
                f"frame {frame}: {len(cands)} candidates but {len(frame_nlls)} NLLs"
            )
        for k, nll in enumerate(frame_nlls):
            try:
                check_nll(nll)
            except ValidationError as exc:
                raise ValidationError(f"{name(frame, k)}: {exc}") from exc
        values[frame] = [score * math.exp(-nll) for (_, score), nll in zip(cands, frame_nlls)]
        if cands:
            best = max(range(len(cands)), key=lambda k: (values[frame][k], -k))
            selections[frame] = (best, cands[best][0])
    return GroundingResult(selections=selections, values=values)


def ground_and_score(
    video: VideoTable,
    query: Mapping[str, Any],
    nlls: Mapping[tuple, float],
    mode: str = "per-frame",
) -> tuple[GroundingResult, tuple[float, float, float]]:
    """Ground a query over its annotated span of ``video`` and score the selection.

    ``query`` is one parsed query (``formats.load_queries``): its ``query_id``,
    ``span`` and per-frame ``boxes``. A span frame's candidates are its rows in
    ``VideoTable.frame_order``, as (corner row, score); candidate k's NLL is
    ``nlls[(video_id, frame, k, query_id)]`` per frame, or
    ``nlls[(video_id, track_id, query_id)]`` per track, with the row's track
    id read from the table. A missing key is a GroundingError. The
    ground-truth temporal span is taken as given, so the prediction span
    equals the ground-truth span and tIoU is 1 whenever the span is valid.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown grounding mode {mode!r}; known: {list(MODES)}")
    video_id, query_id = video.video_id, query["query_id"]
    start, end = query["span"]
    order, track = video.frame_order()
    lo, hi = np.searchsorted(video.frames, [start, end + 1], sorter=order).tolist()
    rows = order[lo:hi]
    candidates: dict[int, list[tuple[list[float], float]]] = {f: [] for f in range(start, end + 1)}
    keys: dict[int, list[tuple]] = {f: [] for f in range(start, end + 1)}
    for frame, track_id, box, score in zip(video.frames[rows].tolist(), video.track_ids[track[lo:hi]].tolist(),
                                           video.corners[rows].tolist(), video.scores[rows].tolist()):
        here = candidates[frame]
        key = (video_id, frame, len(here), query_id) if mode == "per-frame" else (video_id, track_id, query_id)
        if key not in nlls:
            raise GroundingError(f"no likelihood record for {key}")
        keys[frame].append(key)
        here.append((box, score))
    span_nlls = {frame: [nlls[key] for key in frame_keys] for frame, frame_keys in keys.items()}
    result = _select(candidates, span_nlls, lambda frame, k: keys[frame][k])
    ious = grounding_ious(result.selected_boxes(), query["span"], query["boxes"], query["span"])
    return result, ious
