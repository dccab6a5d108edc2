"""Acceptance suite: one test per release criterion, at pinned tolerances.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from densevoc import losses, metrics, synth
from densevoc.assoc import AssocMatrix, assign_identities
from densevoc.capmetrics import IdfTable, cider_pair, meteor_lite
from densevoc.core import Box, tokenize
from densevoc.formats import load_dataset
from densevoc.ground import select_boxes
from densevoc.metrics import ScorerConfig, ap_m, chota, chota_from_components

from conftest import make_track, make_video, random_tiny_instance
from oracles import (
    argmax_selection_oracle,
    detection_ap_oracle,
    greedy_assignment_oracle,
    hota_oracle,
)

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"


def test_criterion_01_paper_arithmetic_regression() -> None:
    start = time.perf_counter()
    triples = json.loads((FIXTURES / "component_triples.json").read_text())
    assert len(triples) == 4
    for row in triples:
        combined = 100.0 * chota_from_components(
            row["det_a"] / 100.0, row["ass_a"] / 100.0, row["cap_a"] / 100.0
        )
        assert combined == pytest.approx(row["chota"], abs=0.05), row["name"]
    assert time.perf_counter() - start < 1.0


def test_criterion_02_perfect_prediction_identity() -> None:
    start = time.perf_counter()
    gts = load_dataset(FIXTURES / "synth20_gt.json")
    assert len(gts) == 20
    report = chota(gts, gts, config=ScorerConfig(metrics=("exact",)))
    assert report.det_a_mean == 1.0
    assert report.ass_a_mean == 1.0
    assert report.cap_a_mean == 1.0
    assert report.chota == 1.0
    assert np.all(report.det_a == 1.0) and np.all(report.ass_a == 1.0)
    apm = ap_m(gts, gts)
    assert apm.overall == 1.0
    assert time.perf_counter() - start < 5.0


def test_criterion_03_hota_oracle_equivalence() -> None:
    rng = np.random.default_rng(303)
    for trial in range(200):
        pred, gt = random_tiny_instance(rng)
        expected = hota_oracle(pred, gt, metrics.DEFAULT_ALPHAS)
        report = chota([pred], [gt], config=ScorerConfig(metrics=("exact",)))
        for k, (det_expected, ass_expected) in enumerate(expected):
            assert abs(report.det_a[k] - det_expected) <= 1e-9, (trial, k)
            assert abs(report.ass_a[k] - ass_expected) <= 1e-9, (trial, k)


def test_criterion_04_greedy_assignment_oracle_equivalence() -> None:
    rng = np.random.default_rng(404)
    for trial in range(500):
        m = int(rng.integers(1, 9))
        a = AssocMatrix(
            values=rng.uniform(0, 1, size=(m, m)),
            frame_of=rng.integers(0, max(1, m // 2) + 1, size=m),
        )
        theta = float(rng.uniform(0.05, 0.95))
        expected = greedy_assignment_oracle(a.values.tolist(), a.frame_of.tolist(), theta)
        assert assign_identities(a, theta).ids.tolist() == expected, trial

    # Connected-component recovery on block-diagonal instances.
    for trial in range(100):
        n_blocks = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        total = sum(sizes)
        values = np.full((total, total), 0.05)
        frame_of = np.zeros(total, dtype=int)
        labels = np.zeros(total, dtype=int)
        start = 0
        for b, size in enumerate(sizes):
            block = slice(start, start + size)
            values[block, block] = float(rng.uniform(0.75, 1.0))
            frame_of[block] = np.arange(size)
            labels[block] = b
            start += size
        ids = assign_identities(
            AssocMatrix(values=values, frame_of=frame_of), theta=0.5
        ).ids
        for i in range(total):
            for j in range(total):
                assert (ids[i] == ids[j]) == (labels[i] == labels[j]), trial


def test_criterion_05_known_answer_trajectory_splits() -> None:
    gt = make_video(
        "v0", [make_track(1, [(f, 0.0, 0.0, 10.0, 10.0) for f in range(4)])], num_frames=4
    )
    split_pred = make_video(
        "v0",
        [
            make_track(1, [(0, 0.0, 0.0, 10.0, 10.0), (1, 0.0, 0.0, 10.0, 10.0)]),
            make_track(2, [(2, 0.0, 0.0, 10.0, 10.0), (3, 0.0, 0.0, 10.0, 10.0)]),
        ],
        num_frames=4,
    )
    assert chota([split_pred], [gt], alphas=(0.5,)).ass_a[0] == 0.5

    two_tracks = [
        make_track(1, [(f, 0.0, 0.0, 10.0, 10.0) for f in range(4)]),
        make_track(2, [(f, 50.0, 0.0, 60.0, 10.0) for f in range(4)]),
    ]
    two_track_gt = make_video("v0", two_tracks, num_frames=4)
    duplicated = []
    for t in two_tracks:
        duplicated.append(t)
        duplicated.append(t._replace(track_id=t.track_id + 10))
    dup_pred = make_video("v0", duplicated, 4)
    report = chota([dup_pred], [two_track_gt], config=ScorerConfig(metrics=("exact",)))
    assert np.all(report.det_a == 0.5)
    assert report.det_a_mean == 0.5


def test_criterion_06_loss_values_and_gradients() -> None:
    ln2 = math.log(2.0)
    # Tabulated values at 1e-9.
    assert losses.heatmap_loss(np.array([[0.5]]), np.array([[1.0]]), 1) == pytest.approx(
        0.25 * ln2, abs=1e-9
    )
    assert losses.heatmap_loss(np.array([[0.5]]), np.array([[0.0]]), 1) == pytest.approx(
        0.25 * ln2, abs=1e-9
    )
    box = (0, 0, 1, 1)
    assert losses.giou_loss([box], [box]) == pytest.approx(0.0, abs=1e-9)
    assert losses.giou_loss([box], [(2, 0, 3, 1)]) == pytest.approx(4 / 3, abs=1e-9)
    assert losses.giou_loss(
        [box, (0, 0, 2, 2)], [box, (1, 0, 3, 2)]
    ) == pytest.approx(1 / 3, abs=1e-9)
    assert losses.roi_cls_loss(np.array([0.0, 0.0]), 0) == pytest.approx(ln2, abs=1e-9)
    assert losses.roi_cls_loss(np.array([10.0, 0.0]), 0) == pytest.approx(
        math.log1p(math.exp(-10.0)), abs=1e-9
    )
    assert losses.roi_cls_loss(np.array([0.0, 10.0]), 0) == pytest.approx(
        10.0 + math.log1p(math.exp(-10.0)), abs=1e-9
    )
    assert losses.roi_reg_loss([box], [(1, 1, 2, 2)]) == pytest.approx(1.0, abs=1e-9)
    assert losses.roi_reg_loss([box], [(0, 0, 1, 3)]) == pytest.approx(0.5, abs=1e-9)
    assert losses.assoc_loss(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(
        ln2, abs=1e-9
    )
    assert losses.assoc_loss(np.full((2, 2), 0.5), np.eye(2)) == pytest.approx(
        2 * ln2, abs=1e-9
    )
    assert losses.caption_loss(np.zeros((2, 4)), [1, 3], smoothing=0.0) == pytest.approx(
        math.log(4.0), abs=1e-9
    )
    logits = np.array([[math.log(3.0), 0.0]])
    assert losses.caption_loss(logits, [0], smoothing=0.0) == pytest.approx(
        -math.log(0.75), abs=1e-9
    )
    assert losses.caption_loss(logits, [0], smoothing=0.1) == pytest.approx(
        0.9 * -math.log(0.75) + 0.1 * -math.log(0.25), abs=1e-9
    )

    # Analytic gradients vs central differences, 100 seeds per loss.
    for seed in range(100):
        r = np.random.default_rng(seed)
        y = r.uniform(0.1, 0.9, size=(4, 4))
        y_gt = np.where(r.random((4, 4)) < 0.3, 1.0, r.uniform(0, 0.95, size=(4, 4)))
        assert (
            losses.finite_diff_check(
                lambda v: losses.heatmap_loss(v, y_gt, n=2),
                lambda v: losses.heatmap_loss_grad(v, y_gt, n=2),
                y,
            )
            <= 1e-4
        )
        a = r.uniform(0.1, 0.9, size=(4, 4))
        a_gt = (r.random((4, 4)) < 0.5).astype(float)
        assert (
            losses.finite_diff_check(
                lambda v: losses.assoc_loss(v, a_gt),
                lambda v: losses.assoc_loss_grad(v, a_gt),
                a,
            )
            <= 1e-4
        )
        logits = r.normal(size=(3, 6))
        targets = r.integers(0, 6, size=3)
        assert (
            losses.finite_diff_check(
                lambda v: losses.caption_loss(v, targets, smoothing=0.1),
                lambda v: losses.caption_loss_grad(v, targets, smoothing=0.1),
                logits,
            )
            <= 1e-4
        )
        pair = r.normal(size=2)
        label = int(r.integers(0, 2))
        assert (
            losses.finite_diff_check(
                lambda v: losses.roi_cls_loss(v, label),
                lambda v: losses.roi_cls_loss_grad(v, label),
                pair,
            )
            <= 1e-4
        )


def test_criterion_07_caption_metric_oracles() -> None:
    fixture = json.loads((Path(__file__).parent / "fixtures" / "caption_pairs.json").read_text())
    assert len(fixture["pairs"]) == 25
    idf = IdfTable.build([tokenize(doc) for doc in fixture["idf_corpus"]])
    for pair in fixture["pairs"]:
        pred, ref = tokenize(pair["pred"]), tokenize(pair["ref"])
        assert meteor_lite(pred, ref) == pytest.approx(pair["meteor"], abs=1e-9)
        assert cider_pair(pred, ref, idf) == pytest.approx(pair["cider"], abs=1e-9)

    rng = np.random.default_rng(707)
    vocab = ["a", "b", "c", "dog", "dogs", "run", "running", "red"]
    docs = [tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(6)) for _ in range(10)]
    fuzz_idf = IdfTable.build(docs)
    for _ in range(10_000):
        x = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(0, 11))))
        y = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(0, 11))))
        assert 0.0 <= meteor_lite(x, y) <= 1.0
        assert 0.0 <= cider_pair(x, y, fuzz_idf) <= 1.0


def test_criterion_08_apm_detection_reduction_and_captionless_rule() -> None:
    rng = np.random.default_rng(808)
    iou_thresholds = (0.3, 0.4, 0.5, 0.6, 0.7)
    for trial in range(60):
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 6))
        gt_tracks = []
        for k in range(n_gt):
            x, y = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(5, 25, size=2)
            gt_tracks.append(
                make_track(k + 1, [(0, float(x), float(y), float(x + w), float(y + h))], caption="a dog")
            )
        pred_tracks = []
        for k in range(n_pred):
            x, y = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(5, 25, size=2)
            pred_tracks.append(
                make_track(
                    k + 1,
                    [(0, float(x), float(y), float(x + w), float(y + h))],
                    caption="something else entirely",
                    scores=[float(rng.uniform(0.05, 1.0))],
                )
            )
        gt = make_video(f"v{trial}", gt_tracks, 1)
        pred = make_video(f"v{trial}", pred_tracks, 1)
        report = ap_m([pred], [gt], iou_thresholds=iou_thresholds, meteor_thresholds=(0.0,))
        pred_dets = [(d.box, d.score) for t in pred.trajectories for d in t.detections]
        gt_boxes = [d.box for t in gt.trajectories for d in t.detections]
        expected = float(
            np.mean([detection_ap_oracle(pred_dets, gt_boxes, t) for t in iou_thresholds])
        )
        assert abs(report.overall - expected) <= 1e-12, trial

    captionless_gt = make_video("v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)])], 1)
    wordy_pred = make_video(
        "v", [make_track(1, [(0, 0.0, 0.0, 10.0, 10.0)], caption="arbitrary words")], 1
    )
    assert ap_m([wordy_pred], [captionless_gt]).overall == 1.0


def test_criterion_09_grounding_argmax_and_invariances() -> None:
    rng = np.random.default_rng(909)

    def random_instance():
        candidates, nlls = {}, {}
        for frame in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 6))
            candidates[frame] = [
                (Box(float(x), 0.0, float(x) + 10.0, 10.0), float(rng.uniform(0.01, 1.0)))
                for x in rng.uniform(0, 100, size=n)
            ]
            nlls[frame] = [float(v) for v in rng.uniform(0.0, 5.0, size=n)]
        return candidates, nlls

    for trial in range(1000):
        candidates, nlls = random_instance()
        selected = {f: i for f, (i, _) in select_boxes(candidates, nlls).selections.items()}
        assert selected == argmax_selection_oracle(candidates, nlls), trial

        c = float(rng.uniform(0.05, 2.0))
        shift = float(rng.uniform(0.0, 4.0))
        scaled = {f: [(b, s * c) for b, s in cands] for f, cands in candidates.items()}
        shifted = {f: [v + shift for v in vals] for f, vals in nlls.items()}
        assert {f: i for f, (i, _) in select_boxes(scaled, nlls).selections.items()} == selected
        assert {f: i for f, (i, _) in select_boxes(candidates, shifted).selections.items()} == selected

        uniform = {f: [0.7] * len(cands) for f, cands in candidates.items()}
        for f, (i, _) in select_boxes(candidates, uniform).selections.items():
            scores = [s for _, s in candidates[f]]
            assert i == int(np.argmax(scores))


def _mean_over_seeds(field: str, **kw) -> float:
    values = []
    for seed in range(10):
        cfg = synth.SynthConfig(
            seed=seed, num_videos=4, frames_per_video=30, objects_per_video=4, **kw
        )
        gts, preds = synth.generate(cfg)
        values.append(getattr(chota(preds, gts, jobs=1), field))
    return float(np.mean(values))


def test_criterion_10_synthetic_monotonicity() -> None:
    ass = [_mean_over_seeds("ass_a_mean", id_switch_rate=r) for r in (0.0, 0.3, 0.6)]
    assert ass[0] > ass[1] > ass[2], ass
    det = [_mean_over_seeds("det_a_mean", box_jitter_sigma=s) for s in (0.0, 2.0, 5.0)]
    assert det[0] > det[1] > det[2], det
    cap = [_mean_over_seeds("cap_a_mean", caption_corruption_rate=r) for r in (0.0, 0.5)]
    assert cap[0] > cap[1], cap


@pytest.fixture(scope="module")
def perf_run():
    cfg = synth.SynthConfig(
        seed=7,
        num_videos=600,
        frames_per_video=200,
        objects_per_video=8,
        box_jitter_sigma=2.0,
        drop_rate=0.05,
        false_positive_rate=0.05,
        id_switch_rate=0.02,
        caption_corruption_rate=0.2,
    )
    gts, preds = synth.generate(cfg)
    start = time.perf_counter()
    report_1 = chota(preds, gts, jobs=1)
    elapsed_1 = time.perf_counter() - start
    start = time.perf_counter()
    report_4 = chota(preds, gts, jobs=4)
    elapsed_4 = time.perf_counter() - start
    return {"r1": report_1, "r4": report_4, "t1": elapsed_1, "t4": elapsed_4, "gts": gts, "preds": preds}


def test_criterion_11_performance_single_job(perf_run) -> None:
    assert perf_run["t1"] < 60.0, f"jobs=1 took {perf_run['t1']:.1f}s"


def test_criterion_11_performance_apm(perf_run) -> None:
    # Measured on a 2-vCPU host: about 8 s quiet, up to 15 s with the rest of
    # the suite and a second 600-video run competing for the CPUs.
    start = time.perf_counter()
    report = ap_m(perf_run["preds"], perf_run["gts"])
    elapsed = time.perf_counter() - start
    assert np.isfinite(report.overall)
    assert elapsed < 25.0, f"ap_m took {elapsed:.1f}s"


def test_criterion_11_performance_jobs_bit_identical(perf_run) -> None:
    r1, r4 = perf_run["r1"], perf_run["r4"]
    for field in ("det_a", "ass_a", "cap_a", "tp", "fp", "fn", "tp_prime"):
        assert np.array_equal(getattr(r1, field), getattr(r4, field)), field
    assert r1.to_dict() == r4.to_dict()


def test_criterion_11_performance_jobs_speedup(perf_run) -> None:
    speedup = perf_run["t1"] / perf_run["t4"]
    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            f"host has {os.cpu_count()} CPUs, not the 4-core machine this bound "
            f"is stated for (measured speedup {speedup:.2f}x)"
        )
    assert speedup >= 2.0, f"jobs=4 speedup only {speedup:.2f}x"
