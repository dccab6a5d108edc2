from __future__ import annotations

import math
import re

import numpy as np
import pytest

from densevoc.core import ValidationError, VideoTable
from densevoc.ground import GroundingError, ground_and_score, select_boxes

from oracles import argmax_selection_oracle


def _box(x: float) -> tuple[float, float, float, float]:
    return (x, 0.0, x + 10.0, 10.0)


def test_single_candidate_always_selected() -> None:
    result = select_boxes({0: [(_box(0), 0.01)]}, {0: [99.0]})
    assert result.selections[0][0] == 0


def test_weighted_likelihood_hand_values() -> None:
    result = select_boxes(
        {0: [(_box(0), 0.9), (_box(20), 0.5)]},
        {0: [2.0, 0.1]},
    )
    values = result.values[0]
    assert values[0] == pytest.approx(0.9 * math.exp(-2.0), abs=1e-4)
    assert values[1] == pytest.approx(0.5 * math.exp(-0.1), abs=1e-4)
    assert values[0] == pytest.approx(0.1218, abs=1e-4)
    assert values[1] == pytest.approx(0.4524, abs=1e-4)
    assert result.selections[0][0] == 1


def test_tie_breaks_to_lowest_index() -> None:
    result = select_boxes(
        {0: [(_box(0), 0.5), (_box(20), 0.5)]},
        {0: [1.0, 1.0]},
    )
    assert result.selections[0][0] == 0


def test_frames_without_candidates_yield_no_selection() -> None:
    result = select_boxes({0: [], 1: [(_box(0), 0.5)]}, {0: [], 1: [0.5]})
    assert 0 not in result.selections
    assert 1 in result.selections


def test_nll_length_mismatch_rejected() -> None:
    with pytest.raises(ValidationError):
        select_boxes({0: [(_box(0), 0.5)]}, {0: [0.1, 0.2]})


def _random_instance(rng):
    candidates = {}
    nlls = {}
    for frame in range(int(rng.integers(1, 5))):
        n = int(rng.integers(0, 6))
        candidates[frame] = [
            (_box(float(rng.uniform(0, 100))), float(rng.uniform(0.01, 1.0))) for _ in range(n)
        ]
        nlls[frame] = [float(rng.uniform(0.0, 5.0)) for _ in range(n)]
    return candidates, nlls


def test_selection_matches_exhaustive_argmax(rng) -> None:
    for _ in range(300):
        candidates, nlls = _random_instance(rng)
        result = select_boxes(candidates, nlls)
        expected = argmax_selection_oracle(candidates, nlls)
        assert {f: idx for f, (idx, _) in result.selections.items()} == expected


def test_argmax_invariance_under_score_scaling_and_nll_shift(rng) -> None:
    for _ in range(200):
        candidates, nlls = _random_instance(rng)
        base = select_boxes(candidates, nlls)
        c = float(rng.uniform(0.1, 1.0))
        shift = float(rng.uniform(0.0, 3.0))
        scaled = {
            f: [(box, score * c) for box, score in cands] for f, cands in candidates.items()
        }
        shifted = {f: [nll + shift for nll in vals] for f, vals in nlls.items()}
        assert {f: i for f, (i, _) in select_boxes(scaled, nlls).selections.items()} == {
            f: i for f, (i, _) in base.selections.items()
        }
        assert {f: i for f, (i, _) in select_boxes(candidates, shifted).selections.items()} == {
            f: i for f, (i, _) in base.selections.items()
        }


def test_uniform_scorer_reduces_to_score_argmax(rng) -> None:
    for _ in range(100):
        candidates, _ = _random_instance(rng)
        nlls = {f: [1.3] * len(cands) for f, cands in candidates.items()}
        result = select_boxes(candidates, nlls)
        for frame, (index, _) in result.selections.items():
            scores = [s for _, s in candidates[frame]]
            assert index == int(np.argmax(scores))


def test_selected_values_reproducible_from_diagnostics() -> None:
    candidates = {0: [(_box(0), 0.9), (_box(20), 0.5)]}
    nlls = {0: [2.0, 0.1]}
    result = select_boxes(candidates, nlls)
    index, _ = result.selections[0]
    assert result.values[0][index] == max(result.values[0])


def _video(tracks: dict[int, list]) -> VideoTable:
    """Video "v" whose track ``t`` holds the (frame, corner row, score) rows ``tracks[t]``."""
    ids, frames, corners, scores = zip(*[(t, *row) for t, rows in tracks.items() for row in rows])
    return VideoTable.from_rows("v", max(frames) + 1, ids, frames, corners, scores)


def _query(gt_boxes: dict, span: tuple[int, int], query_id: str = "q") -> dict:
    return {"video_id": "v", "query_id": query_id, "text": "", "span": span, "boxes": gt_boxes}


def test_ground_and_score_perfect_boxes() -> None:
    gt_boxes = {f: _box(5.0 * f) for f in range(3)}
    video = _video({1: [(f, gt_boxes[f], 0.9) for f in range(3)], 2: [(f, _box(200.0), 0.8) for f in range(3)]})
    nlls = {("v", f, 0, "q"): 0.1 for f in range(3)} | {("v", f, 1, "q"): 5.0 for f in range(3)}
    _, (s, t, v) = ground_and_score(video, _query(gt_boxes, (0, 2)), nlls)
    assert s == pytest.approx(1.0)
    assert t == 1.0
    assert v == pytest.approx(1.0)


def test_ground_and_score_uniform_scorer_uses_detection_scores() -> None:
    gt_boxes = {0: _box(0.0)}
    video = _video({1: [(0, _box(50.0), 0.9)], 2: [(0, _box(0.0), 0.4)]})
    nlls = {("v", 0, k, "q"): 0.0 for k in range(2)}
    _, (s, _, _) = ground_and_score(video, _query(gt_boxes, (0, 0)), nlls)
    assert s == 0.0  # the higher-scored wrong box wins under uniform NLLs


def test_ground_and_score_hand_built_table() -> None:
    # Frame 0: right box wins on likelihood; frame 1: likelihoods push the
    # wrong box, halving the mean IoU.
    gt_boxes = {0: _box(0.0), 1: _box(0.0)}
    video = _video({1: [(f, _box(0.0), 0.5) for f in range(2)], 2: [(f, _box(50.0), 0.5) for f in range(2)]})
    nlls = {
        ("v", 0, 0, "q"): 0.1,
        ("v", 0, 1, "q"): 3.0,
        ("v", 1, 0, "q"): 3.0,
        ("v", 1, 1, "q"): 0.1,
    }
    _, (s, t, v) = ground_and_score(video, _query(gt_boxes, (0, 1)), nlls)
    assert s == pytest.approx(0.5)


def test_per_track_scorer_mode() -> None:
    # The candidate's NLL is its track's, with the track id read from the table.
    nlls = {("v", 7, "q"): 0.2}
    query = _query({0: _box(0.0)}, (0, 0))
    result, _ = ground_and_score(_video({7: [(0, _box(0.0), 1.0)]}), query, nlls, "per-track")
    assert -math.log(result.values[0][0]) == pytest.approx(0.2)
    with pytest.raises(GroundingError):
        ground_and_score(_video({7: [(0, _box(0.0), 1.0)], 8: [(0, _box(50.0), 1.0)]}), query, nlls, "per-track")


def test_table_scorer_missing_record_raises() -> None:
    video = _video({7: [(0, _box(0.0), 0.5), (1, _box(0.0), 0.5)]})
    with pytest.raises(GroundingError):
        ground_and_score(video, _query({0: _box(0.0), 1: _box(0.0)}, (0, 1)), {("v", 0, 0, "q"): 0.5})
    with pytest.raises(GroundingError, match="no likelihood record"):
        ground_and_score(video, _query({0: _box(0.0)}, (0, 0), "r"), {("v", 7, "q"): 0.2}, "per-track")


def test_table_scorer_rejects_unknown_mode() -> None:
    with pytest.raises(ValidationError, match="mode"):
        ground_and_score(_video({1: [(0, _box(0.0), 0.5)]}), _query({0: _box(0.0)}, (0, 0)), {}, "x")


def test_table_scorer_rejects_bad_nll() -> None:
    video, query = _video({1: [(0, _box(0.0), 0.5)]}), _query({0: _box(0.0)}, (0, 0))
    with pytest.raises(ValidationError, match=r"^\('v', 0, 0, 'q'\): nll must be finite and >= 0, got -1.0$"):
        ground_and_score(video, query, {("v", 0, 0, "q"): -1.0})
    with pytest.raises(ValidationError):
        ground_and_score(video, query, {("v", 0, 0, "q"): math.inf})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 2.0])
def test_every_score_read_is_checked(bad) -> None:
    # Unchecked, a NaN first in its frame, an infinity or a score of 2.0 would win frame 0.
    with pytest.raises(ValidationError, match=rf"^frame 0, candidate 0: score must be in \[0, 1\], got {bad}$"):
        select_boxes({0: [(_box(0), bad), (_box(20), 0.9)]}, {0: [0.1, 0.1]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_every_nll_read_is_checked(bad) -> None:
    # A NaN never loses in max, so unchecked it would win frame 0 over the better candidate.
    with pytest.raises(ValidationError, match=rf"^frame 0, candidate 0: nll must be finite and >= 0, got {bad}$"):
        select_boxes({0: [(_box(0), 0.5), (_box(20), 0.9)]}, {0: [bad, 0.1]})
    video = _video({1: [(0, _box(0.0), 0.5)], 2: [(0, _box(20.0), 0.9)]})
    for mode, key in (("per-frame", ("v", 0, 1, "q")), ("per-track", ("v", 2, "q"))):
        other = ("v", 0, 0, "q") if mode == "per-frame" else ("v", 1, "q")
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(key))}: nll must be finite and >= 0, got {bad}$"):
            ground_and_score(video, _query({0: _box(0.0)}, (0, 0)), {other: 0.1, key: bad}, mode)
