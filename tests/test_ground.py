from __future__ import annotations

import math

import numpy as np
import pytest

from densevoc.core import ValidationError
from densevoc.ground import (
    GroundingError,
    TableScorer,
    UniformScorer,
    ground_and_score,
    select_boxes,
)

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


def test_ground_and_score_perfect_boxes() -> None:
    gt_boxes = {f: _box(5.0 * f) for f in range(3)}
    candidates = {
        f: [(gt_boxes[f], 0.9), (_box(200.0), 0.8)] for f in range(3)
    }
    scorer = TableScorer(
        per_frame={("v", f, 0, "q"): 0.1 for f in range(3)}
        | {("v", f, 1, "q"): 5.0 for f in range(3)},
    )
    _, (s, t, v) = ground_and_score(
        "v", candidates, gt_boxes, (0, 2), scorer, "q"
    )
    assert s == pytest.approx(1.0)
    assert t == 1.0
    assert v == pytest.approx(1.0)


def test_ground_and_score_uniform_scorer_uses_detection_scores() -> None:
    gt_boxes = {0: _box(0.0)}
    candidates = {0: [(_box(50.0), 0.9), (_box(0.0), 0.4)]}
    _, (s, _, _) = ground_and_score(
        "v", candidates, gt_boxes, (0, 0), UniformScorer(), "q"
    )
    assert s == 0.0  # the higher-scored wrong box wins under a uniform scorer


def test_ground_and_score_hand_built_table() -> None:
    # Frame 0: right box wins on likelihood; frame 1: likelihoods push the
    # wrong box, halving the mean IoU.
    gt_boxes = {0: _box(0.0), 1: _box(0.0)}
    candidates = {
        0: [(_box(0.0), 0.5), (_box(50.0), 0.5)],
        1: [(_box(0.0), 0.5), (_box(50.0), 0.5)],
    }
    scorer = TableScorer(
        per_frame={
            ("v", 0, 0, "q"): 0.1,
            ("v", 0, 1, "q"): 3.0,
            ("v", 1, 0, "q"): 3.0,
            ("v", 1, 1, "q"): 0.1,
        }
    )
    _, (s, t, v) = ground_and_score(
        "v", candidates, gt_boxes, (0, 1), scorer, "q"
    )
    assert s == pytest.approx(0.5)


def test_per_track_scorer_mode() -> None:
    scorer = TableScorer(
        per_track={("v", 7, "q"): 0.2},
        mode="per-track",
        track_of={("v", 0, 0): 7},
    )
    assert scorer.nll("v", 0, 0, "q") == pytest.approx(0.2)
    with pytest.raises(GroundingError):
        scorer.nll("v", 0, 1, "q")


def test_table_scorer_missing_record_raises() -> None:
    scorer = TableScorer(per_frame={("v", 0, 0, "q"): 0.5})
    with pytest.raises(GroundingError):
        scorer.nll("v", 1, 0, "q")


def test_table_scorer_rejects_bad_nll() -> None:
    with pytest.raises(ValidationError, match=r"^\('v', 0, 0, 'q'\): nll must be finite and >= 0, got -1.0$"):
        TableScorer(per_frame={("v", 0, 0, "q"): -1.0})
    with pytest.raises(ValidationError):
        TableScorer(per_frame={("v", 0, 0, "q"): math.inf})
