"""Independent brute-force oracles the production code is checked against.

The definition oracles are plain straight-line Python against the stated
definitions: no scipy assignment solver, no banding or caching tricks, no
shared helpers with the library beyond the basic domain types. The sections
marked "as first written" keep earlier library code that a faster rewrite
must reproduce exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from densevoc.assoc import IdentityAssignment
from densevoc.capmetrics import cider_pair, exact_match, meteor_lite, stem
from densevoc.core import (
    Box, Caption, Detection, Trajectory, ValidationError, VideoRecord, VideoTable, check_corners, check_nll,
    iou_matrix,
)
from densevoc.formats import FormatError
from densevoc.ground import GroundingError
from densevoc.metrics import _TIE_EPS, _frames
from densevoc.synth import CANVAS, OBJECTS, SUBJECTS, VERBS


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 by convention when the union has zero area.

    The scalar reference of ``core.iou_matrix``, which repeats these
    operations in this order and so equals it exactly.
    """
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: IoU minus the enclosing-hull slack, in (-1, 1].

    The scalar reference of ``losses.giou``, which repeats these operations
    per pair of rows and so equals it exactly.
    """
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    base = inter / union if union > 0.0 else 0.0
    if hull <= 0.0:
        return base
    return base - (hull - union) / hull


def greedy_assignment_oracle(values, frame_of, theta):
    """Identity assignment replayed directly from the greedy pseudocode.

    Plain lists; symmetrize by max, zero same-frame pairs, unit diagonal,
    binarize, then loop: argmax row size (lowest index wins), keep one
    member per frame by highest real score (lowest index wins), assign a
    fresh id, erase merged rows and columns.
    """
    m = len(frame_of)
    a = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            a[i][j] = max(values[i][j], values[j][i])
    for i in range(m):
        for j in range(m):
            if i != j and frame_of[i] == frame_of[j]:
                a[i][j] = 0.0
        a[i][i] = 1.0
    binary = [[a[i][j] >= theta for j in range(m)] for i in range(m)]
    ids = [0] * m
    id_count = 0
    while any(any(row) for row in binary):
        sizes = [sum(row) for row in binary]
        best_row = 0
        for i in range(1, m):
            if sizes[i] > sizes[best_row]:
                best_row = i
        members = [j for j in range(m) if binary[best_row][j]]
        kept = {}
        for j in members:
            frame = frame_of[j]
            if frame not in kept or a[best_row][j] > a[best_row][kept[frame]]:
                kept[frame] = j
        merged = list(kept.values())
        id_count += 1
        for j in merged:
            ids[j] = id_count
            for k in range(m):
                binary[j][k] = False
                binary[k][j] = False
    return ids


def _partial_matchings(n_gt: int, n_pred: int, eligible):
    """Every injective partial map from gt indices to pred indices."""

    def recurse(g, used):
        if g == n_gt:
            yield []
            return
        for rest in recurse(g + 1, used):
            yield rest
        for p in range(n_pred):
            if p not in used and eligible[g][p]:
                for rest in recurse(g + 1, used | {p}):
                    yield [(g, p)] + rest

    yield from recurse(0, frozenset())


def hota_oracle(pred: VideoRecord, gt: VideoRecord, alphas):
    """Per-alpha (DetA, AssA) by exhaustive enumeration of frame matchings.

    Objective per frame: maximize the sum of pass-1 association strength plus
    1e-7 times IoU over matched pairs, pairs under the threshold ineligible.
    """
    gt_ids = [t.track_id for t in gt.trajectories]
    pred_ids = [t.track_id for t in pred.trajectories]
    gt_pos = {tid: k for k, tid in enumerate(gt_ids)}
    pred_pos = {tid: k for k, tid in enumerate(pred_ids)}

    frames = []
    for frame in range(gt.num_frames):
        g_here = []
        for track in gt.trajectories:
            for det in track.detections:
                if det.frame == frame:
                    g_here.append((track.track_id, det.box))
        p_here = []
        for track in pred.trajectories:
            for det in track.detections:
                if det.frame == frame:
                    p_here.append((track.track_id, det.box))
        frames.append((g_here, p_here))

    gt_count = [0] * len(gt_ids)
    pred_count = [0] * len(pred_ids)
    potential = [[0.0] * len(pred_ids) for _ in gt_ids]
    for g_here, p_here in frames:
        for tid, _ in g_here:
            gt_count[gt_pos[tid]] += 1
        for tid, _ in p_here:
            pred_count[pred_pos[tid]] += 1
        if not g_here or not p_here:
            continue
        sim = [[iou(gb, pb) for _, pb in p_here] for _, gb in g_here]
        for i in range(len(g_here)):
            for j in range(len(p_here)):
                denom = (
                    sum(sim[i][k] for k in range(len(p_here)))
                    + sum(sim[k][j] for k in range(len(g_here)))
                    - sim[i][j]
                )
                if denom > 1e-12:
                    potential[gt_pos[g_here[i][0]]][pred_pos[p_here[j][0]]] += sim[i][j] / denom

    ass = [[0.0] * len(pred_ids) for _ in gt_ids]
    for g in range(len(gt_ids)):
        for p in range(len(pred_ids)):
            denom = gt_count[g] + pred_count[p] - potential[g][p]
            if denom > 1e-12:
                ass[g][p] = potential[g][p] / denom

    results = []
    for alpha in alphas:
        tp = fp = fn = 0
        mc: dict[tuple[int, int], int] = {}
        for g_here, p_here in frames:
            fn += len(g_here)
            fp += len(p_here)
            if not g_here or not p_here:
                continue
            sim = [[iou(gb, pb) for _, pb in p_here] for _, gb in g_here]
            eligible = [[sim[i][j] >= alpha for j in range(len(p_here))] for i in range(len(g_here))]
            best_value = -1.0
            best = []
            for matching in _partial_matchings(len(g_here), len(p_here), eligible):
                value = sum(
                    ass[gt_pos[g_here[i][0]]][pred_pos[p_here[j][0]]] + 1e-7 * sim[i][j]
                    for i, j in matching
                )
                if value > best_value:
                    best_value = value
                    best = matching
            tp += len(best)
            fp -= len(best)
            fn -= len(best)
            for i, j in best:
                key = (g_here[i][0], p_here[j][0])
                mc[key] = mc.get(key, 0) + 1
        det = tp / (tp + fp + fn) if (tp + fp + fn) else 1.0
        if tp:
            total = 0.0
            for (g_tid, p_tid), count in mc.items():
                denom = gt_count[gt_pos[g_tid]] + pred_count[pred_pos[p_tid]] - count
                total += count * (count / denom)
            assa = total / tp
        else:
            assa = 1.0
        results.append((det, assa))
    return results


def detection_ap_oracle(pred_dets, gt_boxes, iou_thresh) -> float:
    """Classic single-frame detection AP with greedy score-ordered matching.

    pred_dets: list of (box, score); gt_boxes: list of boxes. All-points
    interpolation with the precision envelope.
    """
    order = sorted(range(len(pred_dets)), key=lambda k: -pred_dets[k][1])
    taken = [False] * len(gt_boxes)
    flags = []
    for k in order:
        box = pred_dets[k][0]
        best = -1
        best_iou = -1.0
        for g, gt_box in enumerate(gt_boxes):
            if taken[g]:
                continue
            value = iou(box, gt_box)
            if value >= iou_thresh and value > best_iou:
                best_iou = value
                best = g
        if best >= 0:
            taken[best] = True
            flags.append(1)
        else:
            flags.append(0)
    if not flags:
        return 0.0
    recalls = [0.0]
    precisions = [0.0]
    tp_cum = 0
    for rank, flag in enumerate(flags, start=1):
        tp_cum += flag
        recalls.append(tp_cum / len(gt_boxes))
        precisions.append(tp_cum / rank)
    recalls.append(1.0)
    precisions.append(0.0)
    for i in range(len(precisions) - 1, 0, -1):
        precisions[i - 1] = max(precisions[i - 1], precisions[i])
    ap = 0.0
    for i in range(len(recalls) - 1):
        if recalls[i + 1] != recalls[i]:
            ap += (recalls[i + 1] - recalls[i]) * precisions[i + 1]
    return ap


# AP as first written: one ranked flag row at a time. The library's batched
# AP over many rows must equal it exactly.
def average_precision(tp_flags: Sequence[bool], n_gt: int) -> float:
    """All-points interpolated AP from ranked true-positive flags."""
    if n_gt == 0:
        raise ValidationError("AP undefined without ground truth")
    if not len(tp_flags):
        return 0.0
    tp_cum = np.cumsum(np.asarray(tp_flags, dtype=float))
    ranks = np.arange(1, len(tp_flags) + 1)
    recalls = np.concatenate(([0.0], tp_cum / n_gt, [1.0]))
    precisions = np.concatenate(([0.0], tp_cum / ranks, [0.0]))
    # Envelope: each precision becomes the maximum at its rank or later.
    precisions = np.maximum.accumulate(precisions[::-1])[::-1]
    steps = np.flatnonzero(recalls[1:] != recalls[:-1])
    return float(np.sum((recalls[steps + 1] - recalls[steps]) * precisions[steps + 1]))


def apm_grid_oracle(preds, gts, iou_thresholds, meteor_thresholds):
    """AP_M threshold grid replayed cell by cell, METEOR scored on every pair.

    For every frame holding ground truth and every (IoU, METEOR) cell,
    predictions in stable descending score order each take the first
    highest-IoU untaken ground truth passing both thresholds; ground truth
    without a caption passes every METEOR threshold. A prediction's caption
    is its box caption, else its track caption, else empty. Per-cell APs are
    summed over videos in ground-truth order and frames in order, then
    divided by the frame count. METEOR is the library's and AP the one
    above, so that the grid can be compared exactly; the matching is
    replayed here.
    """
    from densevoc.capmetrics import meteor_lite

    pred_by_id = {p.video_id: p for p in preds}
    grid_sum = [[0.0] * len(meteor_thresholds) for _ in iou_thresholds]
    n_frames = 0
    for gt in gts:
        pred = pred_by_id.get(gt.video_id)
        pred_tracks = pred.trajectories if pred is not None else ()
        for frame in range(gt.num_frames):
            gt_here = [
                (t.caption, d.box) for t in gt.trajectories for d in t.detections if d.frame == frame
            ]
            if not gt_here:
                continue
            n_frames += 1
            pred_here = []
            for t in pred_tracks:
                for d in t.detections:
                    if d.frame == frame:
                        cap = d.caption if d.caption is not None else t.caption
                        pred_here.append((cap if cap is not None else Caption(""), d.box, d.score))
            order = sorted(range(len(pred_here)), key=lambda k: -pred_here[k][2])
            ious = [[iou(p[1], g[1]) for g in gt_here] for p in pred_here]
            mets = [
                [1.0 if g[0] is None else meteor_lite(p[0].tokens, g[0].tokens) for g in gt_here]
                for p in pred_here
            ]
            for i, t_iou in enumerate(iou_thresholds):
                for m, t_met in enumerate(meteor_thresholds):
                    taken = [False] * len(gt_here)
                    flags = []
                    for k in order:
                        best = -1
                        for g in range(len(gt_here)):
                            if taken[g] or ious[k][g] < t_iou or mets[k][g] < t_met:
                                continue
                            if best < 0 or ious[k][g] > ious[k][best]:
                                best = g
                        if best >= 0:
                            taken[best] = True
                        flags.append(best >= 0)
                    grid_sum[i][m] += average_precision(flags, len(gt_here))
    if n_frames == 0:
        return np.full((len(iou_thresholds), len(meteor_thresholds)), np.nan)
    return np.array(grid_sum) / n_frames


def argmax_selection_oracle(candidates, nlls):
    """Exhaustive per-frame argmax of score * exp(-nll), lowest index on ties."""
    out = {}
    for frame, cands in candidates.items():
        if not cands:
            continue
        best = None
        best_value = None
        for k, ((_, score), nll) in enumerate(zip(cands, nlls[frame])):
            value = score * math.exp(-nll)
            if best_value is None or value > best_value:
                best_value = value
                best = k
        out[frame] = best
    return out


# Caption scoring as first written: Counter state for the METEOR chunk search
# and both TF-IDF sides of CIDEr built on every call. The library's
# integer-state search and precomputed reference vectors must agree with
# these exactly (same values, same node counts). ``stem`` is the library's;
# its rules are pinned by the independent copy in tools/make_caption_fixture.py.


def match_counts_oracle(pred: Sequence[str], ref: Sequence[str]) -> tuple[Counter, Counter, int, int]:
    """Exact-stage quotas per token and stem-stage quotas per stem."""
    pc, rc = Counter(pred), Counter(ref)
    exact = Counter({t: min(pc[t], rc[t]) for t in pc if t in rc})
    exact = +exact
    pred_left = Counter({t: pc[t] - exact[t] for t in pc})
    ref_left = Counter({t: rc[t] - exact[t] for t in rc})
    pred_stem_left = Counter()
    ref_stem_left = Counter()
    for t, c in pred_left.items():
        pred_stem_left[stem(t)] += c
    for t, c in ref_left.items():
        ref_stem_left[stem(t)] += c
    stems = Counter(
        {s: min(pred_stem_left[s], ref_stem_left[s]) for s in pred_stem_left if s in ref_stem_left}
    )
    stems = +stems
    return exact, stems, sum(exact.values()), sum(stems.values())


class ChunkSearchOracle:
    """Exact minimum-chunk alignment search over stagewise-maximum matchings.

    Depth-first over prediction positions with memoization and a node budget.
    Every branch is count-checked so remaining quotas stay satisfiable, which
    keeps each dive completable; move ordering prefers chunk continuation so
    the first completed dive is already a good alignment. Beyond the budget,
    exploration stops after the first finite branch, making the result an
    upper bound on the minimum (the score stays valid either way since chunks
    never exceed matches).
    """

    def __init__(self, pred: Sequence[str], ref: Sequence[str], budget: int = 20000):
        self.pred = pred
        self.ref = ref
        self.budget = budget
        self.nodes = 0
        exact, stems, self.n_exact, self.n_stem = match_counts_oracle(pred, ref)
        self.exact_quota = exact
        self.stem_quota = stems
        self.ref_tokens = list(ref)
        self.ref_stems = [stem(t) for t in ref]
        self.pred_stems = [stem(t) for t in pred]
        # Suffix counts for feasibility checks.
        n = len(pred)
        self.suffix_tok: list[Counter] = [Counter() for _ in range(n + 1)]
        self.suffix_stem: list[Counter] = [Counter() for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            self.suffix_tok[i] = self.suffix_tok[i + 1].copy()
            self.suffix_tok[i][pred[i]] += 1
            self.suffix_stem[i] = self.suffix_stem[i + 1].copy()
            self.suffix_stem[i][self.pred_stems[i]] += 1
        self.memo: dict = {}

    def _stem_capacity_ok(self, i: int, s: str, exact_rem: Counter, demand: int) -> bool:
        """Suffix i.. can still host ``demand`` stem-s matches after exact reservations."""
        reserved = sum(exact_rem[u] for u in self.suffix_tok[i] if stem(u) == s)
        return demand <= self.suffix_stem[i][s] - reserved

    def run(self) -> int:
        if self.n_exact + self.n_stem == 0:
            return 0
        result = self._go(0, 0, -2, Counter(self.exact_quota), Counter(self.stem_quota))
        if not math.isfinite(result):
            return self.n_exact + self.n_stem  # worst legal chunk count
        return int(result)

    def _go(self, i: int, used: int, prev: int, exact_rem: Counter, stem_rem: Counter) -> float:
        # prev: ref index matched by pred position i-1, or -2 when i-1 unmatched.
        if i == len(self.pred):
            return 0.0 if not +exact_rem and not +stem_rem else math.inf
        key = (
            i,
            used,
            prev,
            tuple(sorted((+exact_rem).items())),
            tuple(sorted((+stem_rem).items())),
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        over_budget = self.nodes > self.budget
        t = self.pred[i]
        s = self.pred_stems[i]
        candidates: list[tuple[int, int, bool]] = []  # (order, ref_idx, is_exact)
        if exact_rem[t] > 0:
            exact_rem[t] -= 1
            exact_ok = exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
                i + 1, s, exact_rem, stem_rem[s]
            )
            exact_rem[t] += 1
            if exact_ok:
                for j, u in enumerate(self.ref_tokens):
                    if u == t and not used >> j & 1:
                        cont = j == prev + 1
                        candidates.append((0 if cont else 2, j, True))
        if stem_rem[s] > 0 and exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
            i + 1, s, exact_rem, stem_rem[s] - 1
        ):
            # A stem match must leave enough unused same-token refs for exact quotas.
            unused_by_token = Counter()
            for j, u in enumerate(self.ref_tokens):
                if not used >> j & 1:
                    unused_by_token[u] += 1
            for j, u in enumerate(self.ref_tokens):
                if self.ref_stems[j] == s and u != t and not used >> j & 1:
                    if unused_by_token[u] - 1 < exact_rem[u]:
                        continue
                    cont = j == prev + 1
                    candidates.append((1 if cont else 3, j, False))
        candidates.sort()
        best = math.inf
        for _, j, is_exact in candidates:
            cost = 0 if j == prev + 1 else 1
            if is_exact:
                exact_rem[t] -= 1
            else:
                stem_rem[s] -= 1
            sub = cost + self._go(i + 1, used | 1 << j, j, exact_rem, stem_rem)
            if is_exact:
                exact_rem[t] += 1
            else:
                stem_rem[s] += 1
            best = min(best, sub)
            if over_budget and math.isfinite(best):
                break  # keep the first completed (continuation-preferring) dive
        if exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
            i + 1, s, exact_rem, stem_rem[s]
        ):
            best = min(best, self._go(i + 1, used, -2, exact_rem, stem_rem))
        if not over_budget:
            self.memo[key] = best
        return best


def meteor_oracle(pred, ref, budget: int = 20000) -> float:
    """METEOR from the Counter-state match counts and chunk search."""
    p, r = tuple(pred), tuple(ref)
    if not p or not r:
        return 0.0
    _, _, n_exact, n_stem = match_counts_oracle(p, r)
    matches = n_exact + n_stem
    if matches == 0:
        return 0.0
    chunks = ChunkSearchOracle(p, r, budget).run()
    precision = matches / len(p)
    recall = matches / len(r)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def cider_oracle(pred, ref, idf, sigma: float = 6.0) -> float:
    """CIDEr pair score with both TF-IDF sides rebuilt from ``idf.idf``."""

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    p, r = tuple(pred), tuple(ref)
    sims = []
    for n in range(1, 5):
        pv = {g: c * idf.idf(g) for g, c in ngrams(p, n).items()}
        rv = {g: c * idf.idf(g) for g, c in ngrams(r, n).items()}
        norm_p = math.sqrt(_sum_left_to_right(v * v for v in pv.values()))
        norm_r = math.sqrt(_sum_left_to_right(v * v for v in rv.values()))
        if norm_p == 0.0 or norm_r == 0.0:
            sims.append(0.0)
            continue
        dot = _sum_left_to_right(v * rv[g] for g, v in pv.items() if g in rv)
        sims.append(dot / (norm_p * norm_r))
    penalty = math.exp(-((len(p) - len(r)) ** 2) / (2.0 * sigma**2))
    return min(1.0, _sum_left_to_right(sims) / len(sims) * penalty)


def _sum_left_to_right(values) -> float:
    """A float sum in input order; the builtin sum() compensates floats from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


# The CHOTA matching engine as first written: per-frame IoU blocks, one
# assignment solve per band, match counts added band by band. The library's
# shape-bucketed prep and closed-form sweep tail must agree with it exactly
# (same records in the same order, same counts, same sums). The observation
# table, IoU kernel and matching objective are the library's; IoU is pinned
# to scalar IoU by tests/test_core.py.


def _spans(table) -> dict[int, slice]:
    """Each frame holding rows of an observation table, in order, mapped to its rows."""
    frames, starts, counts = np.unique(table.frame, return_index=True, return_counts=True)
    return {f: slice(s, s + n) for f, s, n in zip(frames.tolist(), starts.tolist(), counts.tolist())}


class _VideoPrepOracle:
    """Observation tables, per-frame similarities and pass-1 association strengths."""

    def __init__(self, pred: VideoRecord, gt: VideoRecord):
        if pred.video_id != gt.video_id:
            raise ValidationError(
                f"video ids differ: {pred.video_id!r} vs {gt.video_id!r}"
            )
        self.video_id = gt.video_id
        self.pred_tracks = pred.trajectories
        self.gt_tracks = gt.trajectories
        self.gt = _frames(VideoTable.from_record(gt), gt.num_frames)
        self.pred = _frames(VideoTable.from_record(pred), gt.num_frames)
        n_gt, n_pred = len(self.gt_tracks), len(self.pred_tracks)
        self.gt_count = np.bincount(self.gt.track, minlength=n_gt)
        self.pred_count = np.bincount(self.pred.track, minlength=n_pred)

        # (gt rows, pred rows, IoU block) of each frame holding both, in order.
        self.frame_sim: list[tuple[slice, slice, np.ndarray]] = []
        potential = np.zeros((n_gt, n_pred))
        pred_spans = _spans(self.pred)
        for frame, gs in _spans(self.gt).items():
            ps = pred_spans.get(frame)
            if ps is None:
                continue
            sim = iou_matrix(self.gt.corners[gs], self.pred.corners[ps])
            self.frame_sim.append((gs, ps, sim))
            denom = sim.sum(0)[None, :] + sim.sum(1)[:, None] - sim
            sim_iou = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[np.ix_(self.gt.track[gs], self.pred.track[ps])] += sim_iou

        denom = self.gt_count[:, None] + self.pred_count[None, :] - potential
        self.global_ass = np.divide(
            potential, denom, out=np.zeros_like(potential), where=denom > 1e-12
        )


def _match_frame_oracle(sim: np.ndarray, ass: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal frame matching: rows are gt, cols are pred; ineligible pairs excluded."""
    eligible = sim >= alpha
    if not eligible.any():
        empty = np.array([], dtype=int)
        return empty, empty
    score = np.where(eligible, ass + _TIE_EPS * sim, 0.0)
    rows, cols = linear_sum_assignment(-score)
    keep = eligible[rows, cols]
    return rows[keep], cols[keep]


def sweep_oracle(pred: VideoRecord, gt: VideoRecord, alphas):
    """Band records, match counts, AssA numerators and association strengths.

    Records are (first_alpha, last_alpha, gt_rows, pred_rows) per solved
    band, in frame order, rows as the solver returns them.
    """
    prep = _VideoPrepOracle(pred, gt)
    alpha_arr = np.asarray(alphas)
    records = []
    mc = np.zeros((len(alphas), len(prep.gt_tracks), len(prep.pred_tracks)))
    for gs, ps, sim in prep.frame_sim:
        g_track, p_track = prep.gt.track[gs], prep.pred.track[ps]
        ass = prep.global_ass[np.ix_(g_track, p_track)]
        a = 0
        while a < len(alphas):
            rows, cols = _match_frame_oracle(sim, ass, alphas[a])
            if rows.size == 0:
                break  # stays empty for every higher threshold
            end = int(np.searchsorted(alpha_arr, sim[rows, cols].min(), side="right") - 1)
            records.append((a, end, gs.start + rows, ps.start + cols))
            mc[a : end + 1, g_track[rows], p_track[cols]] += 1.0
            a = end + 1
    denom = prep.gt_count[None, :, None] + prep.pred_count[None, None, :] - mc
    ass_iou = np.divide(mc, denom, out=np.zeros_like(mc), where=denom > 1e-12)
    return records, mc, (mc * ass_iou).sum(axis=(1, 2)), prep.global_ass


def caption_sums_oracle(pred: VideoRecord, gt: VideoRecord, records, n_alpha: int, config, idf):
    """(CapA sums, tp', missing external keys) as first written: one matched entry at a time, over the dataclasses.

    ``records`` are sweep records over the observation rows of ``pred`` and
    ``gt`` in frames below ``gt.num_frames``: frame-major, then trajectory
    order. A prediction's caption is its box caption, else its track
    caption, else the empty caption. Each entry is scored by its own calls
    of the public caption metrics, summed in ``config.metrics`` order, and
    then its external score is added from a plain dict; a key missing there
    scores 0 and is returned.
    """

    def rows(record):
        obs = [(d.frame, k, d) for k, t in enumerate(record.trajectories) for d in t.detections]
        return sorted((o for o in obs if o[0] < gt.num_frames), key=lambda o: o[:2])

    scorers = {"meteor": meteor_lite, "cider": lambda p, r: cider_pair(p, r, idf), "exact": exact_match}
    external = dict(config.external_scores or {})
    gt_rows, pred_rows = rows(gt), rows(pred)
    cap_sum = np.zeros(n_alpha)
    tp_prime = np.zeros(n_alpha)
    missing = set()
    for a, end, g, p in zip(*(column.tolist() for column in records)):
        gt_track = gt.trajectories[gt_rows[g][1]]
        if gt_track.caption is None:
            continue
        _, k, det = pred_rows[p]
        caption = det.caption if det.caption is not None else pred.trajectories[k].caption
        tokens = caption.tokens if caption is not None else ()
        total = 0.0
        for name in config.metrics:
            if name != "external":
                total += scorers[name](tokens, gt_track.caption.tokens)
        if "external" in config.metrics:
            key = (gt.video_id, p, gt_track.track_id)
            if key in external:
                total += float(external[key])
            else:
                missing.add(key)
        cap_sum[a : end + 1] += total / len(config.metrics)
        tp_prime[a : end + 1] += 1.0
    return cap_sum, tp_prime, missing


# The synthetic generator and the dataset writer as first written: one
# dataclass per box, predictions regrouped from flat rows, and the file as
# ``json.dumps`` of a nested object. ``synth.generate`` must equal the
# generator with ``==``, and ``formats.save_dataset`` must write the writer's
# bytes for records whose coordinates and scores are floats.


def _random_caption_oracle(rng: np.random.Generator) -> Caption:
    parts = (
        SUBJECTS[int(rng.integers(len(SUBJECTS)))],
        VERBS[int(rng.integers(len(VERBS)))],
        OBJECTS[int(rng.integers(len(OBJECTS)))],
    )
    return Caption.from_text(" ".join(parts))


def _random_box_oracle(rng: np.random.Generator) -> tuple[float, float, float, float]:
    w = float(rng.uniform(25.0, 60.0))
    h = float(rng.uniform(25.0, 60.0))
    x = float(rng.uniform(0.0, CANVAS - w))
    y = float(rng.uniform(0.0, CANVAS - h))
    return x, y, w, h


def _gt_video_oracle(rng: np.random.Generator, video_id: str, cfg) -> VideoRecord:
    tracks = []
    for k in range(cfg.objects_per_video):
        x, y, w, h = _random_box_oracle(rng)
        vx, vy = rng.uniform(-3.0, 3.0, size=2)
        caption = _random_caption_oracle(rng)
        t = np.arange(cfg.frames_per_video)
        xs = np.clip(x + vx * t, 0.0, CANVAS - w)
        ys = np.clip(y + vy * t, 0.0, CANVAS - h)
        dets = tuple(
            Detection(
                frame=int(frame),
                box=Box(float(xs[frame]), float(ys[frame]), float(xs[frame] + w), float(ys[frame] + h)),
                score=1.0,
                track_id=k + 1,
            )
            for frame in range(cfg.frames_per_video)
        )
        tracks.append(Trajectory(track_id=k + 1, detections=dets, caption=caption))
    return VideoRecord(video_id=video_id, num_frames=cfg.frames_per_video, trajectories=tuple(tracks))


def _regroup_oracle(video_id, num_frames, detections, captions) -> VideoRecord:
    by_track: dict[int, list] = {}
    for frame, track_id, det in detections:
        by_track.setdefault(track_id, []).append((frame, det))
    tracks = []
    for track_id in sorted(by_track):
        dets = tuple(d for _, d in sorted(by_track[track_id], key=lambda x: x[0]))
        cap = captions.get(track_id) if captions else None
        tracks.append(Trajectory(track_id=track_id, detections=dets, caption=cap))
    return VideoRecord(video_id=video_id, num_frames=num_frames, trajectories=tuple(tracks))


def _perturb_video_oracle(rng: np.random.Generator, gt: VideoRecord, cfg) -> VideoRecord:
    n_tracks = len(gt.trajectories)
    relabel = {t.track_id: t.track_id for t in gt.trajectories}
    flat = []
    captions: dict[int, Caption] = {}

    switch_schedule: dict[int, tuple[int, int]] = {}
    for frame in range(1, gt.num_frames):
        if rng.random() < cfg.id_switch_rate and n_tracks >= 2:
            a, b = rng.choice(n_tracks, size=2, replace=False)
            switch_schedule[frame] = (
                gt.trajectories[int(a)].track_id,
                gt.trajectories[int(b)].track_id,
            )

    gt_by_frame: list[list] = [[] for _ in range(gt.num_frames)]
    for track in gt.trajectories:
        for det in track.detections:
            gt_by_frame[det.frame].append((track.track_id, det))
    fp_id = 1000
    for frame in range(gt.num_frames):
        if frame in switch_schedule:
            a, b = switch_schedule[frame]
            relabel[a], relabel[b] = relabel[b], relabel[a]
        for track_id, det in gt_by_frame[frame]:
            dropped = rng.random() < cfg.drop_rate
            jitter = rng.normal(0.0, cfg.box_jitter_sigma, size=4) if cfg.box_jitter_sigma > 0 else np.zeros(4)
            score = float(rng.uniform(0.6, 1.0))
            make_fp = rng.random() < cfg.false_positive_rate
            if not dropped:
                x1, x2 = sorted((det.box.x1 + jitter[0], det.box.x2 + jitter[2]))
                y1, y2 = sorted((det.box.y1 + jitter[1], det.box.y2 + jitter[3]))
                label = relabel[track_id]
                flat.append(
                    (frame, label, Detection(frame=frame, box=Box(x1, y1, x2, y2), score=score, track_id=label))
                )
            if make_fp:
                x, y, w, h = _random_box_oracle(rng)
                fp_score = float(rng.uniform(0.2, 0.6))
                fp_caption = _random_caption_oracle(rng)
                flat.append(
                    (frame, fp_id, Detection(frame=frame, box=Box(x, y, x + w, y + h), score=fp_score, track_id=fp_id))
                )
                captions[fp_id] = fp_caption
                fp_id += 1

    for track in gt.trajectories:
        label = track.track_id
        if rng.random() < cfg.caption_corruption_rate:
            captions[label] = _random_caption_oracle(rng)
        else:
            captions[label] = track.caption

    present = {track_id for _, track_id, _ in flat}
    captions = {tid: cap for tid, cap in captions.items() if tid in present and cap is not None}
    return _regroup_oracle(gt.video_id, gt.num_frames, flat, captions)


def generate_oracle(cfg) -> tuple[list[VideoRecord], list[VideoRecord]]:
    rng = np.random.default_rng(cfg.seed)
    gts = [_gt_video_oracle(rng, f"synth-{cfg.seed:04d}-{v:03d}", cfg) for v in range(cfg.num_videos)]
    preds = [_perturb_video_oracle(rng, gt, cfg) for gt in gts]
    return gts, preds


def as_records(tables: Sequence[VideoTable]) -> list[VideoRecord]:
    """The record of each table, built from its ``trajectories`` view, for comparing by value."""
    return [VideoRecord(t.video_id, t.num_frames, t.trajectories) for t in tables]


def dataset_to_obj(records: list[VideoRecord]) -> list[dict]:
    out = []
    for record in records:
        tracks = []
        for track in record.trajectories:
            boxes = []
            for det in track.detections:
                entry: dict = {
                    "frame": det.frame,
                    "box": [det.box.x1, det.box.y1, det.box.x2, det.box.y2],
                    "score": det.score,
                }
                if det.caption is not None:
                    entry["caption"] = det.caption.raw
                boxes.append(entry)
            track_obj: dict = {"track_id": track.track_id, "boxes": boxes}
            if track.caption is not None:
                track_obj["caption"] = track.caption.raw
            tracks.append(track_obj)
        out.append(
            {"video_id": record.video_id, "num_frames": record.num_frames, "tracks": tracks}
        )
    return out


def dataset_json_oracle(records: list[VideoRecord]) -> str:
    """The text of a dataset file holding ``records``."""
    return json.dumps(dataset_to_obj(records), separators=(",", ":")) + "\n"


# The record classes' rules as they were written in their ``__post_init__``
# checks, before ``core.first_broken_rule`` became their one home. Each
# returns its record, so ``detection_rules(Detection(...))`` builds a record
# checked as the record classes once checked it.


def box_rules(box: Box) -> Box:
    inf = math.inf
    if not (-inf < box.x1 <= box.x2 < inf and -inf < box.y1 <= box.y2 < inf):
        check_corners([box.as_tuple()])
        raise ValidationError(f"box corners out of order: {box.as_tuple()}")
    return box


def detection_rules(det: Detection) -> Detection:
    if det.frame < 0:
        raise ValidationError(f"frame index must be >= 0, got {det.frame}")
    if not (0.0 <= det.score <= 1.0):
        raise ValidationError(f"score must be in [0, 1], got {det.score}")
    if det.track_id is not None and det.track_id < 1:
        raise ValidationError(f"track_id must be positive, got {det.track_id}")
    return det


def trajectory_rules(track: Trajectory) -> Trajectory:
    if track.track_id < 1:
        raise ValidationError(f"track_id must be positive, got {track.track_id}")
    frames = [d.frame for d in track.detections]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise ValidationError(
            f"track {track.track_id}: frames must be strictly increasing, got {frames}"
        )
    for d in track.detections:
        if d.track_id is not None and d.track_id != track.track_id:
            raise ValidationError(
                f"detection track_id {d.track_id} disagrees with trajectory {track.track_id}"
            )
    return track


def video_rules(video: VideoRecord) -> VideoRecord:
    if video.num_frames < 1:
        raise ValidationError(f"num_frames must be >= 1, got {video.num_frames}")
    seen: set[int] = set()
    for track in video.trajectories:
        if track.track_id in seen:
            raise ValidationError(
                f"video {video.video_id!r}: duplicate track_id {track.track_id}"
            )
        seen.add(track.track_id)
        for det in track.detections:
            if det.frame >= video.num_frames:
                raise ValidationError(
                    f"video {video.video_id!r}: frame {det.frame} >= num_frames {video.num_frames}"
                )
    return video


# The field helpers of ``densevoc.formats`` as they were when the parser oracles below were
# written, kept here so that the oracles and the library share no parsing code.


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


# The dataset parser as first written: every box checked by building its
# Box and Detection, every track its Trajectory, in document order, with the
# record rules above. The column parser of ``formats.parse_dataset`` must
# accept the same values, give the same records (through ``as_records``) and
# reject with the same message. The field helpers are the copies above.


def parse_dataset_oracle(data: Any, strict: bool = False) -> list[VideoRecord]:
    if not isinstance(data, list):
        raise FormatError("top level: expected a list of video objects")
    records = []
    seen_ids: set[str] = set()
    for vi, video in enumerate(data):
        where = f"video[{vi}]"
        if not isinstance(video, dict):
            raise FormatError(f"{where}: expected an object")
        _check_unknown(video, {"video_id", "num_frames", "tracks"}, where, strict)
        video_id = _require(video, "video_id", str, where)
        if video_id in seen_ids:
            raise FormatError(f"{where}: duplicate video_id {video_id!r}")
        seen_ids.add(video_id)
        num_frames = _require(video, "num_frames", int, where)
        tracks_raw = _require(video, "tracks", list, where)
        tracks = []
        for ti, track in enumerate(tracks_raw):
            twhere = f"{where}.tracks[{ti}]"
            if not isinstance(track, dict):
                raise FormatError(f"{twhere}: expected an object")
            _check_unknown(track, {"track_id", "caption", "boxes"}, twhere, strict)
            track_id = _require(track, "track_id", int, twhere)
            caption = None
            if track.get("caption") is not None:
                caption = Caption.from_text(_require(track, "caption", str, twhere))
            dets = []
            for bi, entry in enumerate(_require(track, "boxes", list, twhere)):
                bwhere = f"{twhere}.boxes[{bi}]"
                if not isinstance(entry, dict):
                    raise FormatError(f"{bwhere}: expected an object")
                _check_unknown(entry, {"frame", "box", "score", "caption"}, bwhere, strict)
                frame = _require(entry, "frame", int, bwhere)
                box = box_rules(Box(*_parse_box(entry.get("box"), bwhere)))
                score = _require(entry, "score", float, bwhere) if "score" in entry else 1.0
                det_cap = None
                if entry.get("caption") is not None:
                    det_cap = Caption.from_text(_require(entry, "caption", str, bwhere))
                try:
                    dets.append(detection_rules(
                        Detection(frame=frame, box=box, score=score, track_id=track_id, caption=det_cap)
                    ))
                except ValidationError as exc:
                    raise FormatError(f"{bwhere}: {exc}") from exc
            try:
                tracks.append(trajectory_rules(
                    Trajectory(track_id=track_id, detections=tuple(dets), caption=caption)
                ))
            except ValidationError as exc:
                raise FormatError(f"{twhere}: {exc}") from exc
        try:
            records.append(video_rules(
                VideoRecord(video_id=video_id, num_frames=num_frames, trajectories=tuple(tracks))
            ))
        except ValidationError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return records


# The flat CSV loader as first written: one Detection per line, checked by
# the record rules above as the line is read. ``formats.load_flat_records``
# must give the same table, or the same message with the same line number.
# It differs on purpose for a frame or track id outside 64 bits, which it
# names by its line.


def load_flat_records_oracle(
    path: str | Path,
    video_id: str,
    num_frames: int | None = None,
    one_based_frames: bool = False,
) -> VideoTable:
    path = Path(path)
    dets: list[Detection] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (6, 7):
            raise FormatError(f"{path}: line {lineno}: expected 6 or 7 comma-separated fields")
        try:
            frame = int(parts[0]) - (1 if one_based_frames else 0)
            track_id = int(parts[1])
            x, y, w, h = (float(v) for v in parts[2:6])
            score = float(parts[6]) if len(parts) == 7 else 1.0
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        try:
            box = box_rules(Box(x, y, x + w, y + h))  # Box.from_xywh, which this loader alone called
            dets.append(detection_rules(Detection(frame=frame, box=box, score=score, track_id=track_id)))
        except ValidationError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    frames = [d.frame for d in dets]
    if num_frames is None:
        num_frames = max(frames, default=0) + 1
    try:
        return VideoTable.from_rows(video_id, num_frames, [d.track_id for d in dets], frames,
                                    [d.box.as_tuple() for d in dets], [d.score for d in dets])
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# The IoU tracker and ground-truth association as first written, on one
# list of ``Box``es (``Detection``s for the tracker) per frame; a gap in the
# frames is an empty list. The column versions in ``densevoc.assoc`` must give
# the same ids and matrices.


def _match_boxes_oracle(
    left: list[Box], right: list[Box], min_iou: float
) -> list[tuple[int, int, float]]:
    if not left or not right:
        return []
    corners = [np.array([b.as_tuple() for b in side], dtype=float).reshape(-1, 4) for side in (left, right)]
    sim = iou_matrix(*corners)
    eligible = sim >= min_iou
    score = np.where(eligible, sim, 0.0)
    rows, cols = linear_sum_assignment(-score)
    return [
        (int(r), int(c), float(sim[r, c]))
        for r, c in zip(rows, cols)
        if eligible[r, c]
    ]


def iou_tracker_oracle(frames: list[list[Detection]], match_thresh: float) -> IdentityAssignment:
    ids: list[int] = []
    next_id = 1
    prev_boxes: list[Box] = []
    prev_ids: list[int] = []
    for dets in frames:
        boxes = [d.box for d in dets]
        assigned = [0] * len(dets)
        matches = _match_boxes_oracle(prev_boxes, boxes, match_thresh)
        taken = set()
        for r, c, _ in matches:
            assigned[c] = prev_ids[r]
            taken.add(c)
        for k in range(len(dets)):
            if k not in taken:
                assigned[k] = next_id
                next_id += 1
        ids.extend(assigned)
        prev_boxes = boxes
        prev_ids = assigned
    return IdentityAssignment(ids=np.array(ids, dtype=int))


def build_gt_association_oracle(pred_frames: list[list[Box]], gt: VideoRecord, iou_thresh: float = 0.5):
    """(values, frame_of) of the ground-truth association matrix; gt boxes per frame in file order."""
    gt_frames: list[list[tuple[int, Box]]] = [[] for _ in pred_frames]
    for track in gt.trajectories:
        for det in track.detections:
            if det.frame < len(pred_frames):
                gt_frames[det.frame].append((track.track_id, det.box))
    frame_of: list[int] = []
    matched: list[int | None] = []
    for frame, boxes in enumerate(pred_frames):
        candidates = gt_frames[frame]
        pairs = _match_boxes_oracle(boxes, [b for _, b in candidates], iou_thresh)
        assignment = {r: candidates[c][0] for r, c, _ in pairs}
        for k in range(len(boxes)):
            frame_of.append(frame)
            matched.append(assignment.get(k))
    m = len(frame_of)
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j or (matched[i] is not None and matched[i] == matched[j]):
                values[i, j] = 1.0
    return values, frame_of


# ``densevoc track-iou`` as first written: one detection list per frame of
# ``num_frames``, the tracker's ids in that frame-major order, and the
# relabelled detections regrouped by track, then frame. Each detection keeps
# its effective caption, its own or else its track's, as its box caption.
# The command must write the same file.


def track_iou_oracle(records: Sequence[VideoRecord], thresh: float) -> list[VideoRecord]:
    out = []
    for record in records:
        frames: list[list[Detection]] = [[] for _ in range(record.num_frames)]
        for track in record.trajectories:
            for det in track.detections:
                caption = track.caption if det.caption is None else det.caption
                frames[det.frame].append(replace(det, caption=caption))
        ids = iou_tracker_oracle(frames, match_thresh=thresh)
        flat = []
        k = 0
        for frame, dets in enumerate(frames):
            for det in dets:
                new_id = int(ids.ids[k])
                flat.append((frame, new_id, replace(det, track_id=new_id)))
                k += 1
        out.append(_regroup_oracle(record.video_id, record.num_frames, flat, None))
    return out


# ``densevoc ground`` as first written: a ``Box`` per candidate and query box,
# one ``TableScorer`` per video, built on its first query, and the grounding
# IoUs from scalar ``iou``. The command must write the same ``--out`` file and
# stdout; both are returned as text.


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


def _grounding_ious_oracle(pred_boxes: dict[int, Box], gt_boxes: dict[int, Box], span) -> tuple:
    start, end = span
    total = 0.0
    for frame in range(start, end + 1):
        if frame in pred_boxes:
            total += iou(pred_boxes[frame], gt_boxes[frame])
    s_iou = total / (end - start + 1)
    return s_iou, 1.0, total / (end - start + 1)


def ground_oracle(pred_path, queries_path, likelihoods_path, mode: str) -> tuple[str, str]:
    from densevoc import formats, ground

    by_id = {t.video_id: t for t in formats.load_dataset(pred_path)}
    queries = formats.load_queries(queries_path)
    nlls = formats.load_likelihoods(likelihoods_path)
    # One table holds both key shapes: four fields per frame candidate, three per track.
    per_frame = {key: nll for key, nll in nlls.items() if len(key) == 4}
    per_track = {key: nll for key, nll in nlls.items() if len(key) == 3}
    scorers = {}
    results, ious = [], []
    for query in queries:
        video = by_id.get(query["video_id"])
        if video is None:
            continue
        if video.video_id not in scorers:
            candidates: dict[int, list[tuple[Box, float]]] = {}
            track_of = {}
            frames = [[] for _ in range(max(video.frames.tolist(), default=-1) + 1)]
            for track in video.trajectories:
                for det in track.detections:
                    frames[det.frame].append((track.track_id, det))
            for frame, here in enumerate(frames):
                for k, (track_id, det) in enumerate(here):
                    track_of[(video.video_id, frame, k)] = track_id
                    candidates.setdefault(frame, []).append((det.box, det.score))
            scorer = TableScorer(per_frame=per_frame, per_track=per_track, mode=mode, track_of=track_of)
            scorers[video.video_id] = candidates, scorer
        candidates, scorer = scorers[video.video_id]
        start, end = query["span"]
        span_candidates = {f: candidates.get(f, []) for f in range(start, end + 1)}
        nlls = {
            f: [scorer.nll(video.video_id, f, k, query["query_id"]) for k in range(len(cands))]
            for f, cands in span_candidates.items()
        }
        result = ground.select_boxes(span_candidates, nlls)
        gt_boxes = {f: Box(*row) for f, row in query["boxes"].items()}
        s_iou, t_iou, v_iou = _grounding_ious_oracle(
            {f: box for f, (_, box) in result.selections.items()}, gt_boxes, query["span"]
        )
        ious.append((s_iou, t_iou, v_iou))
        results.append(
            {
                "video_id": video.video_id,
                "query_id": query["query_id"],
                "s_iou": s_iou,
                "t_iou": t_iou,
                "v_iou": v_iou,
                "selections": {
                    str(frame): {"index": index, "box": list(box.as_tuple())}
                    for frame, (index, box) in sorted(result.selections.items())
                },
                "values": {str(f): vals for f, vals in sorted(result.values.items())},
            }
        )
    stdout = ""
    if ious:
        s, t, v = (float(np.mean(column)) for column in zip(*ious))
        stdout = f"queries={len(ious)}\ns_iou={s}\nt_iou={t}\nv_iou={v}\n"
    return json.dumps(results, indent=2) + "\n", stdout
