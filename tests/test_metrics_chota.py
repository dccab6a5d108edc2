from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from densevoc import metrics
from densevoc.capmetrics import IdfTable, _forced_alignment, meteor_lite
from densevoc.core import ValidationError, VideoTable, tokenize
from densevoc.formats import load_dataset, save_dataset
from densevoc.metrics import (
    DEFAULT_ALPHAS,
    ScorerConfig,
    _caption_sums,
    _evaluate_video,
    _idf_documents,
    _sweep,
    _VideoPrep,
    ap_m,
    chota,
    chota_from_components,
    hota_from_components,
)
from densevoc.synth import SynthConfig, generate

from conftest import OVER_BUDGET_PAIR, make_track, make_video, random_tiny_instance, tie_heavy_instance
from oracles import as_records, caption_sums_oracle, cider_oracle, hota_oracle, meteor_oracle, sweep_oracle


def _simple_video(caption: str | None = "a red car crosses") -> VideoTable:
    track = make_track(1, [(f, 10.0 + 2 * f, 10.0, 30.0 + 2 * f, 30.0) for f in range(5)], caption)
    return make_video("v0", [track], num_frames=5)


def _at(pred, gt, alpha: float, config: ScorerConfig = ScorerConfig()):
    """The report of one video at the single threshold ``alpha``."""
    return chota([pred], [gt], alphas=(alpha,), config=config)


def test_match_perfect_prediction_all_alphas() -> None:
    gt = _simple_video()
    for alpha in (0.05, 0.5, 0.95):
        report = _at(gt, gt, alpha)
        assert report.tp[0] == 5 and report.fp[0] == 0 and report.fn[0] == 0


def test_match_empty_prediction_all_fn() -> None:
    gt = _simple_video()
    pred = make_video("v0", [], num_frames=5)
    report = _at(pred, gt, 0.5)
    assert report.tp[0] == 0 and report.fp[0] == 0 and report.fn[0] == 5


def test_match_alpha_validation() -> None:
    gt = _simple_video()
    with pytest.raises(ValidationError):
        _at(gt, gt, 0.0)
    with pytest.raises(ValidationError, match="non-empty"):
        chota([gt], [gt], alphas=())


def test_det_a_direct_counts() -> None:
    gt = make_video(
        "v0",
        [make_track(1, [(f, 0.0, 0.0, 10.0, 10.0) for f in range(4)])],
        num_frames=4,
    )
    # 3 matched frames, one drifted box (FP+FN), frame 3 missing from pred.
    pred_track = make_track(1, [(0, 0, 0, 10, 10), (1, 0, 0, 10, 10), (2, 100, 100, 110, 110)])
    pred = make_video("v0", [pred_track], num_frames=4)
    report = _at(pred, gt, 0.5)
    assert (report.tp[0], report.fp[0], report.fn[0]) == (2, 1, 2)
    assert report.det_a[0] == pytest.approx(2 / 5)


def test_det_a_conventions() -> None:
    gt = _simple_video()
    assert _at(gt, gt, 0.5).det_a[0] == 1.0
    empty_pred = make_video("v0", [], num_frames=5)
    assert _at(empty_pred, gt, 0.5).det_a[0] == 0.0
    empty_both = make_video("v0", [], num_frames=5)
    assert _at(empty_both, empty_both, 0.5).det_a[0] == 1.0


def test_ass_a_single_perfect_track() -> None:
    gt = _simple_video()
    assert _at(gt, gt, 0.5).ass_a[0] == 1.0


def test_ass_a_split_track_exactly_half() -> None:
    gt = make_video(
        "v0", [make_track(1, [(f, 0.0, 0.0, 10.0, 10.0) for f in range(4)])], num_frames=4
    )
    pred = make_video(
        "v0",
        [
            make_track(1, [(0, 0.0, 0.0, 10.0, 10.0), (1, 0.0, 0.0, 10.0, 10.0)]),
            make_track(2, [(2, 0.0, 0.0, 10.0, 10.0), (3, 0.0, 0.0, 10.0, 10.0)]),
        ],
        num_frames=4,
    )
    report = _at(pred, gt, 0.5)
    assert report.tp[0] == 4
    assert report.ass_a[0] == pytest.approx(0.5, abs=1e-12)


def test_cap_a_identical_captions_meteor_only() -> None:
    gt = _simple_video("a red car crosses")
    value = _at(gt, gt, 0.5, ScorerConfig(metrics=("meteor",))).cap_a[0]
    # Self-comparison of a 4-token caption, one chunk.
    assert value == pytest.approx(1 - 0.5 * (1 / 4) ** 3, abs=1e-12)


def test_cap_a_no_captioned_tp_is_zero() -> None:
    captioned = make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="a dog")
    uncaptioned = make_track(2, [(0, 40.0, 40.0, 50.0, 50.0)])
    gt = make_video("v0", [captioned, uncaptioned], num_frames=1)
    # Prediction only finds the caption-less object.
    pred = make_video("v0", [make_track(2, [(0, 40.0, 40.0, 50.0, 50.0)])], num_frames=1)
    report = _at(pred, gt, 0.5)
    assert report.tp[0] == 1
    assert report.capa_defined and report.cap_a[0] == 0.0


def test_cap_a_mean_of_enabled_submetrics() -> None:
    gt = make_video("v0", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="dog")], 1)
    pred = make_video("v0", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="dog")], 1)
    # meteor("dog","dog") = 0.5 and a supplied external score of 0.3 -> 0.4.
    config = ScorerConfig(
        metrics=("meteor", "external"),
        external_scores={("v0", 0, 1): 0.3},
    )
    assert _at(pred, gt, 0.5, config).cap_a[0] == pytest.approx(0.4, abs=1e-12)


def test_external_scores_keyed_by_frame_major_file_order_index() -> None:
    # Observation index = position among the prediction's detections in
    # frame-major order, then trajectory order in the file (not id order).
    boxes = {1: (0.0, 0.0, 10.0, 10.0), 2: (20.0, 0.0, 30.0, 10.0), 3: (40.0, 0.0, 50.0, 10.0)}
    captions = {1: "dog", 2: "car", 3: "man"}
    gt = make_video(
        "v0", [make_track(g, [(f, *boxes[g]) for f in range(3)], captions[g]) for g in (1, 2, 3)], 3
    )
    # pred track id -> (gt track it covers, frames); listed out of id order.
    layout = {7: (1, [0, 1, 2]), 2: (2, [1, 2, 3]), 4: (3, [0, 2])}
    pred = make_video(
        "v0",
        [make_track(p, [(f, *boxes[g]) for f in frames], captions[g]) for p, (g, frames) in layout.items()],
        num_frames=4,
    )
    # Frame 0: tracks 7, 4; frame 1: 7, 2; frame 2: 7, 2, 4; frame 3 (past the gt): 2.
    matched = [(0, 1), (1, 3), (2, 1), (3, 2), (4, 1), (5, 2), (6, 3)]  # (index, gt track)
    # Unrelated values per key, so a swapped index shows in the CapA sum.
    draws = iter(np.random.default_rng(3).uniform(0.05, 0.95, size=24))
    external = {("v0", k, g): float(next(draws)) for k in range(8) for g in (1, 2, 3)}
    config = ScorerConfig(metrics=("meteor", "external"), external_scores=external)
    # meteor of a one-word caption against itself is 0.5.
    expected = (0.5 + np.mean([external[("v0", k, g)] for k, g in matched])) / 2

    report = chota([pred], [gt], config=config)
    assert report.cap_a == pytest.approx(np.full(len(DEFAULT_ALPHAS), expected), abs=1e-12)
    assert not any("external score" in w for w in report.warnings)
    assert _at(pred, gt, 0.5, config).cap_a[0] == pytest.approx(expected, abs=1e-12)


def test_external_sub_metric_needs_scores() -> None:
    with pytest.raises(ValidationError, match="no scores"):
        ScorerConfig(metrics=("external",))


def test_cap_a_undefined_without_gt_captions() -> None:
    gt = _simple_video(caption=None)
    assert not _at(gt, gt, 0.5).capa_defined


def test_chota_perfect_prediction_with_exact_scorer() -> None:
    gts = [_simple_video()]
    report = chota(gts, gts, config=ScorerConfig(metrics=("exact",)))
    assert report.det_a_mean == 1.0
    assert report.ass_a_mean == 1.0
    assert report.cap_a_mean == 1.0
    assert report.chota == 1.0
    assert np.all(report.det_a == 1.0)
    assert np.all(report.ass_a == 1.0)


def test_chota_combiner_reproduces_published_triples() -> None:
    triples = [
        ((0.642, 0.659, 0.391), 0.549),
        ((0.644, 0.659, 0.384), 0.546),
        ((0.514, 0.596, 0.098), 0.311),
        ((0.658, 0.704, 0.397), 0.569),
    ]
    for (d, a, c), expected in triples:
        assert chota_from_components(d, a, c) == pytest.approx(expected, abs=5e-4)
    assert chota_from_components(1.0, 1.0, 1.0) == 1.0


def test_component_bounds_and_monotonicity() -> None:
    base = chota_from_components(0.5, 0.5, 0.5)
    assert base == pytest.approx(0.5)
    assert chota_from_components(0.6, 0.5, 0.5) > base
    assert chota_from_components(0.5, 0.5, 0.4) < base
    assert hota_from_components(0.64, 0.36) == pytest.approx(0.48)


def test_matching_matches_enumeration_oracle(rng) -> None:
    for trial in range(40):
        pred, gt = random_tiny_instance(rng)
        expected = hota_oracle(pred, gt, DEFAULT_ALPHAS)
        report = chota([pred], [gt], config=ScorerConfig(metrics=("exact",)))
        for k, (det_expected, ass_expected) in enumerate(expected):
            assert report.det_a[k] == pytest.approx(det_expected, abs=1e-9), (trial, k)
            assert report.ass_a[k] == pytest.approx(ass_expected, abs=1e-9), (trial, k)


def test_match_at_alpha_agrees_with_banded_sweep(rng) -> None:
    # The full-grid report reuses one matching across a band of thresholds;
    # a one-threshold report solves that threshold on its own. Tie-heavy
    # instances (grid boxes, duplicated tracks) give many equal-score matchings.
    instances = [random_tiny_instance(rng) for _ in range(20)]
    instances += [tie_heavy_instance(rng) for _ in range(200)]
    config = ScorerConfig(metrics=("exact",))
    for trial, (pred, gt) in enumerate(instances):
        report = chota([pred], [gt], config=config)
        for k, alpha in enumerate(DEFAULT_ALPHAS):
            one = _at(pred, gt, alpha, config)
            assert one.tp[0] == report.tp[k], (trial, alpha)
            assert one.det_a[0] == pytest.approx(report.det_a[k], abs=1e-12), (trial, alpha)
            assert one.ass_a[0] == pytest.approx(report.ass_a[k], abs=1e-12), (trial, alpha)


def _shaped_instance(rng, shapes, grid: bool):
    """Prediction and gt tables whose frame f holds shapes[f] = (n_gt, n_pred) boxes.

    Boxes crowd a small canvas (snapped to a coarse grid when ``grid``, so
    IoUs tie); tracks are listed in a shuffled order.
    """

    def record(counts):
        boxes: dict[int, list] = {}
        for frame, n in enumerate(counts):
            for k in range(n):
                if grid:
                    x, y = (float(v) for v in rng.integers(0, 4, size=2) * 5)
                    w, h = (float(v) for v in rng.integers(1, 3, size=2) * 10)
                else:
                    x, y, w, h = (float(v) for v in rng.uniform([0, 0, 10, 10], [40, 40, 40, 40]))
                boxes.setdefault(k, []).append((frame, x, y, x + w, y + h))
        tracks = [make_track(k + 1, b) for k, b in boxes.items()]
        return make_video("v", [tracks[i] for i in rng.permutation(len(tracks))], len(counts))

    return record([p for _, p in shapes]), record([g for g, _ in shapes])


def _banded_instance():
    """One gt track under five prediction tracks, whose frame 0 is solved at four thresholds.

    In frame 0 the predictions' IoUs with the gt box are .88, .68, .48, .28
    and .13, and frames 1-10 hold one prediction each, so that association
    favours the lower IoUs: at DEFAULT_ALPHAS each band's matching loses its
    pair at the next threshold. Frame 11 has frame 0's shape and is settled
    by its first band.
    """
    heights = [88.0, 68.0, 48.0, 28.0, 13.0]
    alone = [[], [10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]  # frames each prediction holds the gt box alone
    in_frame_11 = [(0.0, 0.0, 100.0, 90.0), (0.0, 0.0, 100.0, 8.0)] + [(200.0, 200.0, 210.0, 210.0)] * 3
    tracks = [
        make_track(k + 1, [(0, 0.0, 0.0, 100.0, h)] + [(f, 0.0, 0.0, 100.0, 100.0) for f in alone[k]]
                   + [(11, *in_frame_11[k])])
        for k, h in enumerate(heights)
    ]
    gt = make_video("v", [make_track(1, [(f, 0.0, 0.0, 100.0, 100.0) for f in range(12)])], 12)
    return make_video("v", tracks, 12), gt


def test_banded_instance_is_solved_in_four_rounds() -> None:
    # Frame 0's bands start at alphas 0, 2, 5 and 9, frame 11's only band at
    # 0; swapping the tables makes the blocks tall (5 x 1).
    pred, gt = _banded_instance()
    for prep in (_VideoPrep(pred, gt), _VideoPrep(gt, pred)):
        assert [len(frames) for frames, *_ in prep.groups] == [10, 2]
        first, last, _, _ = _sweep(prep, DEFAULT_ALPHAS)[0]
        assert first.tolist()[:5] == [0, 2, 5, 9, 0]
        assert last.tolist()[:4] == [1, 4, 8, 16] and last[-1] == 17


def _oracle_columns(records) -> list[np.ndarray]:
    """Band records as (first, last, gt row, pred row) entries, one per matched pair."""
    entries = [(a, end, g, p) for a, end, gs, ps in records for g, p in zip(gs.tolist(), ps.tolist())]
    return [np.array(column, dtype=int) for column in zip(*entries)] if entries else [np.zeros(0, int)] * 4


def _covered(columns) -> list[tuple[int, int, int]]:
    """The sorted (alpha, gt row, pred row) triples that (first, last, gt row, pred row) records cover."""
    first, last, g, p = (column.tolist() for column in columns)
    return sorted((a, gi, pi) for lo, hi, gi, pi in zip(first, last, g, p) for a in range(lo, hi + 1))


@pytest.mark.parametrize("alphas", [DEFAULT_ALPHAS, (0.5,), (0.2, 0.25, 0.5, 0.55, 0.95)])
def test_sweep_equals_per_frame_oracle(rng, alphas) -> None:
    # Crowded frames (9+ and 17+ boxes a side) reach numpy's unrolled pairwise
    # sums, whose rounding depends on the row length; edge shapes cover
    # gt-only and prediction-only frames and 1 x n and n x 1 blocks.
    instances = [random_tiny_instance(rng) for _ in range(20)]
    instances += [tie_heavy_instance(rng) for _ in range(200)]
    for n in (9, 17):
        cfg = SynthConfig(seed=n, num_videos=2, frames_per_video=4, objects_per_video=n, box_jitter_sigma=4.0,
                          drop_rate=0.2, false_positive_rate=0.3, id_switch_rate=0.2)
        instances += [(p, g) for g, p in zip(*generate(cfg))]
    edges = [(0, 3), (3, 0), (1, 4), (4, 1), (1, 1), (2, 1), (1, 2), (0, 0)]
    for trial in range(30):
        crowded = [tuple(rng.integers(9, 21, size=2)) for _ in range(3)]
        shapes = [edges[i] for i in rng.choice(len(edges), size=4)] + crowded * 2
        instances.append(_shaped_instance(rng, [shapes[i] for i in rng.permutation(len(shapes))], trial % 2 == 0))
    # A frame solved at four thresholds, in a group whose frames finish in
    # different rounds, with wide (1 x 5) and tall (5 x 1) blocks; a tall
    # block's solver rows are not arange.
    pred, gt = _banded_instance()
    instances += [(pred, gt), (gt, pred)]
    for trial, (pred, gt) in enumerate(instances):
        records, mc, ass_sum, global_ass = sweep_oracle(pred, gt, alphas)
        prep = _VideoPrep(pred, gt)
        got_records, got_mc, got_ass_sum = _sweep(prep, alphas)
        # The matching at every threshold, each pair covered at most once; the
        # tail's records span a pair's whole run, the oracle's one band each.
        covered = _covered(got_records)
        assert covered == _covered(_oracle_columns(records)), trial
        assert len(set(covered)) == len(covered), trial
        assert np.array_equal(got_mc, mc), trial
        assert np.array_equal(got_ass_sum, ass_sum), trial
        assert np.array_equal(prep.global_ass, global_ass), trial


def test_worker_pool_capped_at_video_count(rng, monkeypatch) -> None:
    import multiprocessing as mp

    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(mp.get_context("fork"), "Pool", SerialPool)
    videos = [random_tiny_instance(rng) for _ in range(2)]
    preds = [replace(p, video_id=f"v{k}") for k, (p, _) in enumerate(videos)]
    gts = [replace(g, video_id=f"v{k}") for k, (_, g) in enumerate(videos)]
    config = ScorerConfig(metrics=("exact",))
    report = chota(preds, gts, config=config, jobs=64)
    assert started == [2]
    assert report.to_dict() == chota(preds, gts, config=config, jobs=1).to_dict()


def test_tp_monotone_in_alpha(rng) -> None:
    for _ in range(30):
        pred, gt = random_tiny_instance(rng)
        report = chota([pred], [gt], config=ScorerConfig(metrics=("exact",)))
        assert np.all(np.diff(report.tp) <= 0)
        for k, alpha in enumerate(DEFAULT_ALPHAS):
            assert _at(pred, gt, alpha, ScorerConfig(metrics=("exact",))).tp[0] == report.tp[k]


def test_relabeling_and_order_invariance(rng) -> None:
    videos = []
    for v in range(3):
        pred, gt = random_tiny_instance(rng)
        videos.append((replace(pred, video_id=f"vid{v}"), replace(gt, video_id=f"vid{v}")))

    def relabel(table: VideoTable, offset: int) -> VideoTable:
        return replace(table, track_ids=table.track_ids + offset)

    preds = [p for p, _ in videos]
    gts = [g for _, g in videos]
    base = chota(preds, gts, config=ScorerConfig(metrics=("exact",)))
    shuffled = chota(
        [relabel(p, 17) for p in reversed(preds)],
        list(reversed(gts)),
        config=ScorerConfig(metrics=("exact",)),
    )
    assert np.array_equal(base.det_a, shuffled.det_a)
    assert np.array_equal(base.ass_a, shuffled.ass_a)
    assert base.chota == shuffled.chota

    # Metamorphic relations (after the HOTA paper's metric properties) on the
    # tiny videos, a captioned synth collection with false positives and id
    # switches, and 200 tie-heavy videos.
    ties = [tie_heavy_instance(rng) for _ in range(200)]
    synth = generate(SynthConfig(seed=3, num_videos=3, frames_per_video=12, objects_per_video=4, box_jitter_sigma=3.0,
                                 drop_rate=0.2, false_positive_rate=0.2, id_switch_rate=0.2, caption_corruption_rate=0.3))
    collections = [
        (preds, gts),
        (synth[1], synth[0]),
        ([replace(p, video_id=f"tie{i}") for i, (p, _) in enumerate(ties)],
         [replace(g, video_id=f"tie{i}") for i, (_, g) in enumerate(ties)]),
    ]
    for pred_tables, gt_tables in collections:
        base_chota, base_apm = chota(pred_tables, gt_tables).to_dict(), ap_m(pred_tables, gt_tables).to_dict()
        # Scaling every coordinate by a power of two is exact, so every IoU and every report is unchanged.
        for scale in (0.25, 4.0, 1024.0):
            scaled = [[replace(t, corners=t.corners * scale) for t in tables] for tables in (pred_tables, gt_tables)]
            assert chota(*scaled).to_dict() == base_chota, scale
            assert ap_m(*scaled).to_dict() == base_apm, scale
        # The collection plus a copy under new video ids doubles every count.
        copied = [tables + [replace(t, video_id=t.video_id + "-copy") for t in tables]
                  for tables in (pred_tables, gt_tables)]
        doubled = chota(*copied).to_dict()["per_alpha"]
        for count in ("tp", "fp", "fn", "tp_prime"):
            assert doubled[count] == [2 * c for c in base_chota["per_alpha"][count]], count


def test_per_video_tp_at_mid_reads_the_summary_threshold() -> None:
    # IoU 0.6: a true positive at alpha 0.5 and 0.6, a miss from 0.7 on.
    gt = make_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)])], num_frames=1)
    pred = make_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 6.0)])], num_frames=1)
    report = chota([pred], [gt], alphas=(0.5, 0.6, 0.7, 0.8, 0.9))
    assert report.flat_summary()["tp@0.5"] == 1
    assert report.per_video["v"]["tp@mid"] == 1.0


@pytest.mark.parametrize("capa_alpha", [None, 0.5, 0.95])
def test_per_video_rows_equal_the_video_evaluated_alone(capa_alpha) -> None:
    # A row follows the aggregate's rule, so it is the report of a collection
    # holding only that video. CIDEr is left out: its IDF spans the collection.
    gts, preds = generate(SynthConfig(seed=0, num_videos=4, frames_per_video=30, objects_per_video=4,
                                      box_jitter_sigma=6.0, drop_rate=0.1, false_positive_rate=0.2))
    gts[3] = replace(gts[3], track_captions=(None,) * len(gts[3].track_ids))
    rng = np.random.default_rng(0)
    external = {
        (p.video_id, obs, t.track_id): float(rng.uniform())
        for p, g in zip(preds, gts) for obs in range(sum(len(t.detections) for t in p.trajectories))
        for t in g.trajectories
    }
    for config in (ScorerConfig(metrics=("meteor",), capa_alpha=capa_alpha),
                   ScorerConfig(metrics=("exact",), capa_alpha=capa_alpha),
                   ScorerConfig(metrics=("external",), external_scores=external, capa_alpha=capa_alpha)):
        report = chota(preds, gts, config=config)
        for pred, gt in zip(preds, gts):
            alone = chota([pred], [gt], config=config)
            row = report.per_video[gt.video_id]
            assert (row["det_a"], row["ass_a"], row["cap_a"]) == (
                alone.det_a_mean, alone.ass_a_mean, alone.cap_a_mean), (gt.video_id, config.metrics)
        assert report.per_video[gts[3].video_id]["cap_a"] is None


def test_chota_falls_back_to_hota_without_captions() -> None:
    gt = _simple_video(caption=None)
    report = chota([gt], [gt])
    assert not report.capa_defined
    assert report.cap_a_mean is None
    assert report.chota == report.hota == 1.0
    assert any("CapA undefined" in w for w in report.warnings)


def test_capa_single_alpha_mode() -> None:
    gt = _simple_video()
    config = ScorerConfig(metrics=("exact",), capa_alpha=0.5)
    report = chota([gt], [gt], config=config)
    assert report.cap_a_mean == 1.0
    with pytest.raises(ValidationError):
        chota([gt], [gt], config=ScorerConfig(metrics=("exact",), capa_alpha=0.33))


def test_duplicated_predictions_det_a_half() -> None:
    tracks = [
        make_track(1, [(f, 0.0, 0.0, 10.0, 10.0) for f in range(4)]),
        make_track(2, [(f, 40.0, 0.0, 50.0, 10.0) for f in range(4)]),
    ]
    gt = make_video("v0", tracks, num_frames=4)
    dup_tracks = []
    for t in tracks:
        dup_tracks.append(t)
        dup_tracks.append(t._replace(track_id=t.track_id + 10))
    pred = make_video("v0", dup_tracks, num_frames=4)
    report = chota([pred], [gt], config=ScorerConfig(metrics=("exact",)))
    assert np.all(report.det_a == pytest.approx(0.5))
    assert report.det_a_mean == pytest.approx(0.5)


def test_missing_video_counts_all_fn() -> None:
    gt1 = _simple_video()
    gt2 = make_video("v1", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)])], num_frames=1)
    report = chota([gt1], [gt1, gt2], config=ScorerConfig(metrics=("exact",)))
    assert any("no predictions" in w for w in report.warnings)
    assert report.fn[0] == 1  # the single gt detection of v1
    assert report.det_a_mean < 1.0


def _mixed_collection():
    """Synth gt and predictions covering the table paths.

    Video 0 has a caption on about half of its predicted boxes, video 1
    only track captions, and both have prediction boxes at and past the
    gt's ``num_frames``; video 2 has no predictions. Prediction track 1
    has no caption, so it takes the empty caption, which gt track 1 has;
    gt track 2 has no caption.
    """
    cfg = SynthConfig(seed=11, num_videos=3, frames_per_video=12, objects_per_video=3, box_jitter_sigma=3.0,
                      drop_rate=0.1, false_positive_rate=0.2, id_switch_rate=0.1, caption_corruption_rate=0.3)
    gts, preds = generate(cfg)

    def recaption(table, captions):
        return {t: captions.get(t, c) for t, c in zip(table.track_ids.tolist(), table.track_captions)}

    gts = [replace(g, track_captions=tuple(recaption(g, {1: "", 2: None}).values())) for g in gts]
    rng = np.random.default_rng(11)
    out = []
    for v, table in enumerate(preds[:2]):
        rows = []  # (track id, frame, corners, score, box caption), track by track
        for t, track_id in enumerate(table.track_ids.tolist()):
            lo, hi = table.offsets[t : t + 2].tolist()
            rows += [
                (track_id, table.frames[i], table.corners[i], table.scores[i],
                 f"box {i - lo}" if v == 0 and rng.random() < 0.5 else None)
                for i in range(lo, hi)
            ]
            rows += [(track_id, table.num_frames + j, (0.0, 0.0, 40.0, 40.0), 0.9, None) for j in range(2)]
        track_ids, frames, corners, scores, captions = zip(*rows)
        out.append(VideoTable.from_rows(
            table.video_id, table.num_frames + 2, track_ids, frames, corners, scores,
            track_captions=recaption(table, {1: None}),
            box_captions=None if v else captions,
        ))
    external = {
        (r.video_id, obs, g): float(rng.uniform())
        for r in out for obs in range(40) for g in (1, 2, 3) if rng.random() < 0.5
    }
    return out, gts, external


def _configs(external):
    return [
        ScorerConfig(),
        ScorerConfig(metrics=("meteor", "external"), external_scores=external),
        ScorerConfig(metrics=("exact", "cider"), capa_alpha=0.5),
    ]


def test_in_memory_and_file_tables_agree(tmp_path) -> None:
    preds, gts, external = _mixed_collection()
    # Tables by the file route: written, then parsed by column.
    save_dataset(preds, tmp_path / "pred.json")
    save_dataset(gts, tmp_path / "gt.json")
    pred_tables, gt_tables = load_dataset(tmp_path / "pred.json"), load_dataset(tmp_path / "gt.json")
    for config in _configs(external):
        expected = chota(preds, gts, config=config).to_dict()
        assert chota(pred_tables, gt_tables, config=config).to_dict() == expected
        assert chota(pred_tables, gts, config=config).to_dict() == expected
        # Every prediction box below the gt's num_frames is a TP or an FP; the ones past it are dropped.
        in_range = sum(d.frame < g.num_frames for p, g in zip(preds, gts) for t in p.trajectories
                       for d in t.detections)
        assert (np.add(expected["per_alpha"]["tp"], expected["per_alpha"]["fp"]) == in_range).all()
    warnings = chota(pred_tables, gt_tables, config=_configs(external)[1]).warnings
    assert any("no external score" in w for w in warnings)
    assert ap_m(pred_tables, gt_tables).to_dict() == ap_m(preds, gts).to_dict()
    for (pred, gt), (pred_table, gt_table) in zip(zip(preds, gts), zip(pred_tables, gt_tables)):
        for alpha in (0.05, 0.5, 0.8):
            (records, mc, ass), (t_records, t_mc, t_ass) = (
                _sweep(_VideoPrep(pred, gt), (alpha,)),
                _sweep(_VideoPrep(pred_table, gt_table), (alpha,)),
            )
            assert all(np.array_equal(a, b) for a, b in zip((*records, mc, ass), (*t_records, t_mc, t_ass)))
            # chota rejects a capa_alpha off its grid; on a one-threshold grid CapA is the value there anyway.
            for config in (replace(c, capa_alpha=None) for c in _configs(external)):
                expected = _at(pred, gt, alpha, config).to_dict()
                assert _at(pred_table, gt_table, alpha, config).to_dict() == expected
                assert _at(pred_table, gt, alpha, config).to_dict() == expected


def test_caption_sums_equal_per_match_oracle() -> None:
    preds, gts, external = _mixed_collection()
    idf = IdfTable.build(_idf_documents(gts))
    for pred, gt in zip(preds, gts):
        tables = pred, gt
        prep = _VideoPrep(*tables)
        for alphas in (DEFAULT_ALPHAS, (0.5,)):
            records = _sweep(prep, alphas)[0]
            for config in _configs(external):
                cap_sum, missing = _caption_sums(records, len(alphas), prep, config, idf, [])
                expected = caption_sums_oracle(pred, gt, records, len(alphas), config, idf)
                tp_prime = _evaluate_video(*tables, alphas, config, idf)[1][5]
                assert np.array_equal(cap_sum, expected[0]), (pred.video_id, config)
                assert np.array_equal(tp_prime, expected[1]), (pred.video_id, config)
                assert missing == expected[2]


_EDIT_WORDS = ("slowly", "again", "big", "old", "dark", "left", "still", "wet", "walks", "dogs")


def _box_captioned(preds: list[VideoTable], rng: np.random.Generator) -> list[VideoTable]:
    """Predictions whose boxes each carry their track's caption after one to three word inserts, drops or appends."""
    out = []
    for table in preds:
        captions = []
        for t in np.repeat(np.arange(len(table.track_ids)), np.diff(table.offsets)).tolist():
            words = (table.track_captions[t] or "").split()
            for _ in range(1 + int(rng.integers(3))):
                op, word = int(rng.integers(3)), _EDIT_WORDS[int(rng.integers(len(_EDIT_WORDS)))]
                if op == 0:
                    words.insert(int(rng.integers(len(words) + 1)), word)
                elif op == 1 and len(words) > 2:
                    del words[int(rng.integers(len(words)))]
                else:
                    words.append(word)
            captions.append(" ".join(words))
        out.append(replace(table, box_captions=tuple(captions)))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_box_caption_reports_equal_caption_oracles(monkeypatch, seed) -> None:
    gts, preds = generate(
        SynthConfig(
            seed=seed, num_videos=2, frames_per_video=30, objects_per_video=4, box_jitter_sigma=2.0,
            drop_rate=0.05, false_positive_rate=0.05, id_switch_rate=0.02, caption_corruption_rate=0.2,
        )
    )
    preds = _box_captioned(preds, np.random.default_rng(seed))
    config = ScorerConfig(metrics=("meteor", "cider"))
    scored = []
    monkeypatch.setattr(metrics, "meteor_lite", lambda p, r, **kw: scored.append((p, r)) or meteor_lite(p, r, **kw))
    expected = chota(preds, gts, config=config).to_dict(), ap_m(preds, gts).to_dict()
    # Both the forced count and the chunk search score some of the pairs.
    forced = [_forced_alignment(p, r) is not None for p, r in scored]
    assert any(forced) and not all(forced)
    monkeypatch.setattr(metrics, "meteor_lite", lambda p, r, over_budget: meteor_oracle(p, r))
    monkeypatch.setattr(metrics, "cider_pair", cider_oracle)
    assert (chota(preds, gts, config=config).to_dict(), ap_m(preds, gts).to_dict()) == expected


def test_caption_scorers_are_called_through_the_metrics_module(monkeypatch) -> None:
    # Tracing wraps metrics.meteor_lite and metrics.cider_pair; a scorer bound
    # at import time would hide the caption layer from it.
    gts, preds = generate(
        SynthConfig(
            seed=3, num_videos=2, frames_per_video=30, objects_per_video=4, box_jitter_sigma=2.0,
            drop_rate=0.05, false_positive_rate=0.05, id_switch_rate=0.02, caption_corruption_rate=0.2,
        )
    )
    preds = _box_captioned(preds, np.random.default_rng(3))
    calls: dict[str, list] = {"meteor_lite": [], "cider_pair": []}

    def counting(scorer, scored):
        def counted(p, r, *args, **kwargs):
            scored.append((p, r))
            return scorer(p, r, *args, **kwargs)

        return counted

    for name, scored in calls.items():
        monkeypatch.setattr(metrics, name, counting(getattr(metrics, name), scored))
    chota(preds, gts)
    # Each distinct (pred caption, gt caption) pair matched at some threshold, per video.
    expected = []
    for pred, gt in zip(preds, gts):
        prep = _VideoPrep(pred, gt)
        _, _, g, p = _sweep(prep, DEFAULT_ALPHAS)[0]
        pairs = zip(prep.pred.caption[p].tolist(), prep.gt_caption[prep.gt.track[g]].tolist())
        ids = {(a, b) for a, b in pairs if b >= 0}
        texts = list(prep.caption_ids)
        expected += [(tokenize(texts[a]), tokenize(texts[b])) for a, b in ids]
    assert len(expected) > 20
    assert sorted(calls["meteor_lite"]) == sorted(calls["cider_pair"]) == sorted(expected)
    calls["meteor_lite"].clear()
    calls["cider_pair"].clear()
    ap_m(preds, gts)
    assert calls["meteor_lite"] and not calls["cider_pair"]


_TIE_CAPTIONS = ("a red car", "a dog runs", "the old man walks slowly", "two birds fly", "")


def _tie_captioned(rng) -> tuple[VideoTable, VideoTable]:
    """A tie-heavy pair whose tracks carry captions and about half of whose predicted boxes carry their own."""

    def caption():
        return _TIE_CAPTIONS[int(rng.integers(len(_TIE_CAPTIONS)))]

    pred, gt = tie_heavy_instance(rng, max_tracks=4, max_frames=8)
    pred = make_video(pred.video_id, [
        make_track(t.track_id, [(d.frame, *d.box.as_tuple()) for d in t.detections], caption(),
                   det_captions=[caption() if rng.random() < 0.5 else None for _ in t.detections])
        for t in pred.trajectories
    ], pred.num_frames)
    gt = replace(gt, track_captions=tuple(caption() for _ in gt.track_ids))
    return pred, gt


@pytest.mark.parametrize("alphas", [DEFAULT_ALPHAS, (0.5,), (0.2, 0.25, 0.5, 0.55, 0.95)])
def test_caption_sums_on_tail_runs_equal_per_band_oracle(rng, alphas) -> None:
    # The sweep keeps one record per pair over its whole tail run; the oracle
    # cuts that run into bands. Both must add the same matches per threshold
    # in the same order, so the sums agree bit for bit.
    instances = [_tie_captioned(rng) for _ in range(6)]
    gts, preds = generate(SynthConfig(seed=5, num_videos=2, frames_per_video=30, objects_per_video=6,
                                      box_jitter_sigma=4.0, drop_rate=0.1, false_positive_rate=0.2,
                                      id_switch_rate=0.05, caption_corruption_rate=0.3))
    instances += list(zip(_box_captioned(preds, np.random.default_rng(5)), gts))
    config = ScorerConfig()
    captioned_matches = 0
    for trial, (pred, gt) in enumerate(instances):
        idf = IdfTable.build(_idf_documents([gt]))
        tables = pred, gt
        prep = _VideoPrep(*tables)
        cap_sum = _caption_sums(_sweep(prep, alphas)[0], len(alphas), prep, config, idf, [])[0]
        bands = _oracle_columns(sweep_oracle(pred, gt, alphas)[0])
        expected = caption_sums_oracle(pred, gt, bands, len(alphas), config, idf)
        assert np.array_equal(cap_sum, expected[0]), trial
        assert np.array_equal(_evaluate_video(*tables, alphas, config, idf)[1][5], expected[1]), trial
        captioned_matches += expected[1].sum()
    assert captioned_matches > 100 * len(alphas)


def test_missing_external_scores_are_counted_once_per_pair() -> None:
    # GT boxes A and B; predictions at IoU 0.9 and 0.25 with A and 0.3 with B.
    # The 0.25 candidate makes the frame a solved one up to 0.25, so the 0.9
    # pair is matched in the solved band 0.05-0.3 and again in the tail from
    # 0.35: three records of two pairs.
    gt = make_video("v0", [
        make_track(1, [(0, 0.0, 0.0, 100.0, 100.0)], "a red car"),
        make_track(2, [(0, 200.0, 0.0, 300.0, 100.0)], "a dog"),
    ], 1)
    pred = make_video("v0", [
        make_track(1, [(0, 0.0, 0.0, 100.0, 90.0)], "a red car"),
        make_track(2, [(0, 200.0, 0.0, 300.0, 30.0)], "a dog"),
        make_track(3, [(0, 0.0, 0.0, 100.0, 25.0)], "a cat"),
    ], 1)
    records = _sweep(_VideoPrep(pred, gt), DEFAULT_ALPHAS)[0]
    assert len(records[0]) == 3
    report = chota([pred], [gt], config=ScorerConfig(metrics=("meteor", "external"), external_scores={}))
    assert [w for w in report.warnings if "external" in w] == ["v0: 2 matched pairs had no external score (scored 0)"]


def test_pairs_past_the_search_budget_are_warned_about() -> None:
    pred_caption, gt_caption = (" ".join(tokens) for tokens in OVER_BUDGET_PAIR)
    boxes = [(f, 10.0, 10.0, 30.0, 30.0) for f in range(3)]
    gts = [make_video(v, [make_track(1, boxes, gt_caption)], 3) for v in ("v0", "v1")]
    preds = [make_video(v, [make_track(1, boxes, pred_caption)], 3) for v in ("v0", "v1")]
    warning = (
        "1 caption pairs ran past the METEOR chunk-search budget;"
        " their chunk counts are upper bounds and their METEOR lower bounds"
    )
    report = chota(preds, gts, config=ScorerConfig(metrics=("meteor",)))
    assert [w for w in report.to_dict()["warnings"] if "budget" in w] == [f"v0: {warning}", f"v1: {warning}"]
    assert [w for w in ap_m(preds, gts).warnings if "budget" in w] == [warning]
    assert not [w for w in chota(gts, gts).warnings + ap_m(gts, gts).warnings if "budget" in w]


def test_evaluators_reject_a_record_with_a_pointer_to_from_record() -> None:
    gts, preds = generate(SynthConfig(seed=2, num_videos=2, frames_per_video=6))
    (record,) = as_records(gts[:1])
    for call in (lambda: chota([record], gts), lambda: chota(preds, [record]),
                 lambda: ap_m([record], gts), lambda: ap_m(preds, [record])):
        with pytest.raises(ValidationError, match=r"take VideoTables, got VideoRecord; use VideoTable\.from_record"):
            call()


def test_box_captions_all_none_give_the_reports_of_no_box_captions() -> None:
    # A table given one None box caption per row holds no box captions, so CHOTA takes the same
    # (track-caption) path and AP_M reads the same captions, bit for bit. The shape is perfbench's track-long.
    shape = dict(frames_per_video=200, objects_per_video=8, box_jitter_sigma=2.0, drop_rate=0.05,
                 false_positive_rate=0.05, id_switch_rate=0.02, caption_corruption_rate=0.2)
    gts, preds = generate(SynthConfig(seed=0, num_videos=6, **shape))
    assert all(p.box_captions is None for p in preds)
    all_none = [replace(p, box_captions=(None,) * len(p.frames)) for p in preds]
    for evaluate in (metrics.chota, metrics.ap_m):
        assert json.dumps(evaluate(all_none, gts).to_dict()) == json.dumps(evaluate(preds, gts).to_dict())
