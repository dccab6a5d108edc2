"""Tracking-and-captioning evaluation: CHOTA, frame mAP-METEOR, grounding IoUs.

CHOTA combines detection accuracy, association accuracy and captioning
accuracy over a grid of localization thresholds. Matching per frame follows
the two-pass scheme of the reference higher-order tracking evaluator: pass 1
estimates track-pair association strength from raw per-frame similarities,
pass 2 matches detections per frame by maximum estimated association
strength with an IoU tie-break, pairs below the localization threshold being
ineligible. Cross-video pooling is micro-averaged per threshold.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._lsap import linear_sum_assignment
from .capmetrics import IdfTable, cider_pair, exact_match, meteor_lite
from .core import ValidationError, VideoRecord, VideoTable
from .core import as_tables, check_corners, iou_matrix, tokenize

DEFAULT_ALPHAS: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 20))
APM_IOU_THRESHOLDS: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)
APM_METEOR_THRESHOLDS: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2)

# Matching objective: estimated association strength, with IoU as tie-break.
_TIE_EPS = 1e-7

KNOWN_CAP_METRICS = ("meteor", "cider", "exact", "external")


def validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValidationError("alpha grid must be non-empty")
    if any(not (0.0 < a < 1.0) for a in alphas):
        raise ValidationError("alphas must lie in (0, 1)")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValidationError("alphas must be strictly increasing")
    return alphas


@dataclass(frozen=True)
class ScorerConfig:
    """Which caption sub-metrics feed CapA, and how CapA treats the grid."""

    metrics: tuple[str, ...] = ("meteor", "cider")
    external_scores: Mapping[tuple[str, int, int], float] | None = None
    capa_alpha: float | None = None  # None: integrate over the alpha grid

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ValidationError("at least one caption sub-metric is required")
        unknown = [m for m in self.metrics if m not in KNOWN_CAP_METRICS]
        if unknown:
            raise ValidationError(f"unknown caption sub-metrics: {unknown}")
        if "external" in self.metrics and self.external_scores is None:
            raise ValidationError("external sub-metric enabled but no scores supplied")

    @property
    def divisor(self) -> int:
        return len(self.metrics)


@dataclass
class _FrameTable:
    """One table's rows in frames 0..num_frames-1, in ``VideoTable.frame_order``.

    A prediction row's index is its sidecar ``pred_observation_index``: rows
    in later frames, dropped here, come last in that order.
    """

    track: np.ndarray  # trajectory index of each row
    corners: np.ndarray  # (n, 4)
    frame: np.ndarray  # frame of each row, non-decreasing
    score: np.ndarray
    caption: np.ndarray | None  # caption id of each row, when asked for (see _frames)


def _intern(texts, ids: dict[str, int], default: str | None = None) -> np.ndarray:
    """The id of each text in ``ids``, adding new texts; None stands for ``default``, and -1 for None."""
    out = []
    for text in texts:
        text = default if text is None else text
        out.append(-1 if text is None else ids.setdefault(text, len(ids)))
    return np.array(out, dtype=np.int64)


def _frames(table: VideoTable, num_frames: int, caption_ids: dict[str, int] | None = None) -> _FrameTable:
    """The observation table of ``table`` over frames 0..num_frames-1.

    With ``caption_ids``, each row gets the id of its effective caption
    there: its box caption, else its track caption, else the empty caption.
    """
    rows, track = table.frame_order()
    kept = table.frames[rows] < num_frames
    rows, track = rows[kept], track[kept]
    caption = None
    if caption_ids is not None:
        caption = _intern(table.track_captions, caption_ids, "")[track]
        if table.box_captions is not None:
            box = _intern([table.box_captions[i] for i in rows.tolist()], caption_ids)
            caption = np.where(box >= 0, box, caption)
    return _FrameTable(
        track=track,
        corners=table.corners[rows],
        frame=table.frames[rows],
        score=table.scores[rows],
        caption=caption,
    )


def _shape_groups(gt: _FrameTable, pred: _FrameTable) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The frames holding both ground truth and predictions, grouped by their exact (n_gt, n_pred) shape.

    Each group is, in increasing frame order, its frame numbers ``(F,)``, its
    gt and pred observation rows ``(F, n_gt)`` and ``(F, n_pred)``, and their
    IoU blocks ``(F, n_gt, n_pred)``. Shapes are kept exact, not zero-padded:
    numpy's pairwise summation depends on the row length, and exact shapes
    keep every row and column sum equal to the one of a single frame's block.
    """
    frames, g_start, n_g = np.unique(gt.frame, return_index=True, return_counts=True)
    p_start = np.searchsorted(pred.frame, frames)
    n_p = np.searchsorted(pred.frame, frames, side="right") - p_start
    shape = n_g * (n_p.max(initial=0) + 1) + n_p
    groups = []
    for key in np.unique(shape[n_p > 0]).tolist():
        sel = shape == key
        g_rows = g_start[sel, None] + np.arange(n_g[sel][0])
        p_rows = p_start[sel, None] + np.arange(n_p[sel][0])
        groups.append((frames[sel], g_rows, p_rows, iou_matrix(gt.corners[g_rows], pred.corners[p_rows])))
    return groups


class _VideoPrep:
    """One video's observation tables, caption ids and per-frame IoU, for CHOTA and AP_M.

    ``gt_caption`` holds each gt track's own caption id (-1 for none) and
    ``pred.caption`` each prediction row's effective one. ``groups`` are the
    ``_shape_groups`` of the two tables. ``global_ass``, the pass-1
    association strength per (gt track, pred track), is computed on first read.
    """

    def __init__(self, pred: VideoTable, gt: VideoTable):
        self.video_id = gt.video_id
        self.gt_track_ids = gt.track_ids
        self.caption_ids: dict[str, int] = {}
        self.gt_caption = _intern(gt.track_captions, self.caption_ids)
        self.gt = _frames(gt, gt.num_frames)
        self.pred = _frames(pred, gt.num_frames, self.caption_ids)
        self.n_gt, self.n_pred = len(gt.track_ids), len(pred.track_ids)
        self.gt_count = np.bincount(self.gt.track, minlength=self.n_gt)
        self.pred_count = np.bincount(self.pred.track, minlength=self.n_pred)
        self.groups = _shape_groups(self.gt, self.pred)

    @cached_property
    def global_ass(self) -> np.ndarray:
        n_gt, n_pred = self.n_gt, self.n_pred
        pair_frame, pair_cell, pair_iou = [], [], []
        for frames, g_rows, p_rows, sim in self.groups:
            denom = sim.sum(1)[:, None, :] + sim.sum(2)[:, :, None] - sim
            pair_iou.append(np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12).ravel())
            cell = self.gt.track[g_rows][:, :, None] * n_pred + self.pred.track[p_rows][:, None, :]
            pair_cell.append(cell.ravel())
            pair_frame.append(np.repeat(frames, sim[0].size))
        # Each cell occurs once per frame, and bincount adds in input order, so
        # summing in frame order repeats the per-frame accumulation exactly.
        potential = np.zeros(n_gt * n_pred)
        if pair_frame:
            order = np.argsort(np.concatenate(pair_frame), kind="stable")
            potential = np.bincount(
                np.concatenate(pair_cell)[order],
                weights=np.concatenate(pair_iou)[order],
                minlength=n_gt * n_pred,
            )
        potential = potential.reshape(n_gt, n_pred)

        denom = self.gt_count[:, None] + self.pred_count[None, :] - potential
        return np.divide(potential, denom, out=np.zeros_like(potential), where=denom > 1e-12)


_Records = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _sweep(prep: _VideoPrep, alphas: tuple[float, ...]) -> tuple[_Records, np.ndarray, np.ndarray]:
    """Per-frame matchings over an increasing threshold grid, in bands.

    Each frame is matched at alphas[0]; the matching stays in use up to the
    last threshold its weakest pair still passes, and the frame is matched
    again at the next one. Returns the records as four int arrays (first
    alpha, last alpha, gt row, pred row) over the observation tables of
    ``prep``: one entry per matched pair of a solved band, and one per pair
    over its whole run in the tail, ordered by frame, first alpha and gt row.
    Also returns the match counts mc[alpha, gt track, pred track], whose
    total per threshold is its true positive count, and the AssA numerators
    per threshold. The frames are those of ``prep.groups``.

    Above the frame's largest second-highest IoU of any row or column, its
    eligible pairs are one-to-one, and the optimal matching is exactly those
    pairs, since each scores above 0. Only bands starting at or below that
    cutoff are solved; from there on each eligible pair stays matched up to
    its own last threshold.
    """
    n_alpha = len(alphas)
    alpha_arr = np.asarray(alphas)
    n_gt, n_pred = prep.n_gt, prep.n_pred
    entries = []  # (frame, first alpha, last alpha, gt row, pred row) arrays
    for frames, g_rows, p_rows, sim in prep.groups:
        n_frames, n_g, n_p = sim.shape
        cutoff = np.full(n_frames, -np.inf)
        if n_p > 1:
            cutoff = np.maximum(cutoff, np.sort(sim, axis=2)[:, :, -2].max(axis=1))
        if n_g > 1:
            cutoff = np.maximum(cutoff, np.sort(sim, axis=1)[:, -2, :].max(axis=1))
        solved = np.searchsorted(alpha_arr, cutoff, side="right")  # bands starting below it are solved

        # Solved head: every band here has an eligible conflict, so it is non-empty.
        ass = prep.global_ass[prep.gt.track[g_rows][:, :, None], prep.pred.track[p_rows][:, None, :]]
        cost = -(ass + _TIE_EPS * sim)
        tail_start = np.zeros(n_frames, dtype=int)
        band_f, band_first, band_last, band_rows, band_cols = [], [], [], [], []
        for f in np.flatnonzero(solved).tolist():
            s, c, k = sim[f], cost[f], solved[f]
            a = 0
            while a < k:
                alpha = alphas[a]
                rows, cols = linear_sum_assignment(np.where(s >= alpha, c, 0.0))
                weakest = min(x for x in s[rows, cols].tolist() if x >= alpha)
                end = bisect_right(alphas, weakest) - 1
                band_f.append(f)
                band_first.append(a)
                band_last.append(end)
                band_rows.append(rows)
                band_cols.append(cols)
                a = end + 1
            tail_start[f] = a
        if band_f:
            counts = [len(r) for r in band_rows]
            f = np.repeat(band_f, counts)
            rows, cols = np.concatenate(band_rows), np.concatenate(band_cols)
            first = np.repeat(band_first, counts)
            keep = sim[f, rows, cols] >= alpha_arr[first]  # drop solver pairs of score 0
            f, rows, cols = f[keep], rows[keep], cols[keep]
            entries.append(
                (frames[f], first[keep], np.repeat(band_last, counts)[keep], g_rows[f, rows], p_rows[f, cols])
            )

        # Closed-form tail: from the frame's first band start at or above the
        # cutoff, a pair stays matched up to its own last threshold.
        last = np.searchsorted(alpha_arr, sim, side="right") - 1
        f, i, j = np.nonzero(last >= tail_start[:, None, None])
        entries.append((frames[f], tail_start[f], last[f, i, j], g_rows[f, i], p_rows[f, j]))

    if entries:
        frame, first, last, g, p = (np.concatenate(c) for c in zip(*entries))
    else:
        frame = first = last = g = p = np.zeros(0, dtype=int)
    order = np.lexsort((g, first, frame))
    records = (first[order], last[order], g[order], p[order])

    # Match counts: +1 at each record's first threshold, -1 past its last, summed over alpha.
    size = n_gt * n_pred
    cell = prep.gt.track[g] * n_pred + prep.pred.track[p]
    diff = np.bincount(
        np.concatenate([first * size + cell, (last + 1) * size + cell]),
        weights=np.repeat([1.0, -1.0], len(cell)),
        minlength=(n_alpha + 1) * size,
    )
    mc = diff.reshape(n_alpha + 1, n_gt, n_pred).cumsum(axis=0, dtype=float)[:n_alpha]
    denom = prep.gt_count[None, :, None] + prep.pred_count[None, None, :] - mc
    ass_iou = np.divide(mc, denom, out=np.zeros_like(mc), where=denom > 1e-12)
    return records, mc, (mc * ass_iou).sum(axis=(1, 2))


class _PairScorer:
    """Caption pair scoring with memoization over token sequences.

    ``over_budget`` collects the scored pairs whose METEOR chunk search ran
    past its node budget, so their METEOR is a lower bound.
    ``missing_external`` collects the distinct external-score keys looked up
    and not found.
    """

    def __init__(self, config: ScorerConfig, idf: IdfTable):
        self.config = config
        self.idf = idf
        self.cache: dict[tuple, float] = {}
        self.missing_external: set[tuple[str, int, int]] = set()
        self.over_budget: list[tuple] = []

    def intrinsic(self, pred: tuple[str, ...], gt: tuple[str, ...]) -> float:
        """Sum of the non-external sub-metric scores for one pair of token tuples."""
        key = (pred, gt)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        total = 0.0
        for name in self.config.metrics:
            if name == "meteor":
                total += meteor_lite(pred, gt, over_budget=self.over_budget)
            elif name == "cider":
                total += cider_pair(pred, gt, self.idf)
            elif name == "exact":
                total += exact_match(pred, gt)
        self.cache[key] = total
        return total

    def pairs(self, caption_ids: dict[str, int], pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
        """``intrinsic`` of each (pred, gt) pair of caption ids; each distinct pair is scored once.

        Only the captions of the scored pairs are tokenized.
        """
        texts = list(caption_ids)
        n = len(texts)
        keys, inverse = np.unique(pred * n + gt, return_inverse=True)
        pred_ids, gt_ids = (ids.tolist() for ids in np.divmod(keys, n))
        tokens = {i: tokenize(texts[i]) for i in {*pred_ids, *gt_ids}}
        values = [self.intrinsic(tokens[a], tokens[b]) for a, b in zip(pred_ids, gt_ids)]
        return np.array(values, dtype=float)[inverse.reshape(-1)]

    def over_budget_warning(self) -> str:
        return (
            f"{len(self.over_budget)} caption pairs ran past the METEOR chunk-search budget;"
            " their chunk counts are upper bounds and their METEOR lower bounds"
        )

    def external(self, video_id: str, pred_obs_index: int, gt_track_id: int) -> float:
        key = (video_id, pred_obs_index, gt_track_id)
        value = (self.config.external_scores or {}).get(key)
        if value is None:
            self.missing_external.add(key)
            return 0.0
        return float(value)


def _evaluate_video(
    pred: VideoTable,
    gt: VideoTable,
    alphas: tuple[float, ...],
    config: ScorerConfig,
    idf: IdfTable,
) -> tuple[str, np.ndarray, int, list[str]]:
    """(video id, sums, gt caption count, warnings) of one video.

    ``sums`` holds per threshold the rows tp, fp, fn, AssA numerator, CapA
    sum and tp' (the matches of captioned ground truth).
    """
    prep = _VideoPrep(pred, gt)
    n_alpha = len(alphas)
    records, mc, ass_iou_sum = _sweep(prep, alphas)
    tp = mc.sum(axis=(1, 2))
    captioned = prep.gt_caption >= 0
    cap_mc = mc * captioned[None, :, None]
    tp_prime = cap_mc.sum(axis=(1, 2))

    gt_caption_count = int(captioned.sum())
    cap_sum = np.zeros(n_alpha)
    warnings: list[str] = []
    if gt_caption_count > 0:
        scorer = _PairScorer(config, idf)
        track_captions_only = "external" not in config.metrics and pred.box_captions is None
        cap_sum = _caption_sums(records, n_alpha, prep, scorer, cap_mc if track_captions_only else None)
        if scorer.missing_external:
            warnings.append(
                f"{prep.video_id}: {len(scorer.missing_external)} matched pairs had no external score (scored 0)"
            )
        if scorer.over_budget:
            warnings.append(f"{prep.video_id}: {scorer.over_budget_warning()}")
    sums = np.array([tp, prep.pred_count.sum() - tp, prep.gt_count.sum() - tp, ass_iou_sum, cap_sum, tp_prime])
    return prep.video_id, sums, gt_caption_count, warnings


def _caption_sums(
    records: _Records, n_alpha: int, prep: _VideoPrep, scorer: _PairScorer, cap_mc: np.ndarray | None = None
) -> np.ndarray:
    """Caption score sums per threshold.

    Scores every matched detection of the sweep records on its own caption,
    falling back to its track caption, plus the external score of its
    observation row if enabled. Given the match counts ``cap_mc`` of
    captioned ground truth, on data with track captions only, every match of
    a track pair has the same score, which is weighted by the pair's match
    count per threshold. That sum rounds differently from the per-match sum,
    and reports on track-captioned data are pinned to it.
    """
    config = scorer.config
    first, last, g, p = records
    gt_track = prep.gt.track[g]
    keep = prep.gt_caption[gt_track] >= 0
    first, last, gt_track, p = first[keep], last[keep], gt_track[keep], p[keep]
    total = scorer.pairs(prep.caption_ids, prep.pred.caption[p], prep.gt_caption[gt_track])
    if "external" in config.metrics:
        gt_ids = prep.gt_track_ids[gt_track].tolist()
        total += [scorer.external(prep.video_id, obs, track_id) for obs, track_id in zip(p.tolist(), gt_ids)]
    if cap_mc is not None:
        scores = np.zeros(cap_mc.shape[1:])
        scores[gt_track, prep.pred.track[p]] = total / config.divisor
        return (cap_mc * scores[None, :, :]).sum(axis=(1, 2))
    alpha = np.arange(n_alpha)
    covered = (alpha >= first[:, None]) & (alpha <= last[:, None])
    # cumsum adds one matched entry at a time, in record order, as a
    # per-entry += over its thresholds would.
    added = np.where(covered, (total / config.divisor)[:, None], 0.0)
    return np.cumsum(np.vstack([np.zeros(n_alpha), added]), axis=0)[-1]


@dataclass
class EvalReport:
    alphas: tuple[float, ...]
    det_a: np.ndarray
    ass_a: np.ndarray
    cap_a: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tp_prime: np.ndarray
    det_a_mean: float
    ass_a_mean: float
    cap_a_mean: float | None
    hota: float
    chota: float
    capa_defined: bool
    cap_metrics: tuple[str, ...]
    cap_divisor: int
    capa_alpha: float | None
    per_video: dict[str, dict]
    warnings: list[str]

    def flat_summary(self) -> dict[str, object]:
        mid = _mid_alpha(self.alphas)
        at = f"@{self.alphas[mid]:g}"
        return {
            "chota": self.chota,
            "hota": self.hota,
            "det_a": self.det_a_mean,
            "ass_a": self.ass_a_mean,
            "cap_a": self.cap_a_mean if self.capa_defined else "undefined",
            "tp" + at: int(self.tp[mid]),
            "fp" + at: int(self.fp[mid]),
            "fn" + at: int(self.fn[mid]),
            "tp_prime" + at: int(self.tp_prime[mid]),
            "cap_metrics": "+".join(self.cap_metrics),
            "cap_divisor": self.cap_divisor,
            "num_videos": len(self.per_video),
            "num_warnings": len(self.warnings),
        }

    def to_dict(self) -> dict:
        return {
            "alphas": list(self.alphas),
            "per_alpha": {
                "det_a": self.det_a.tolist(),
                "ass_a": self.ass_a.tolist(),
                "cap_a": self.cap_a.tolist(),
                "tp": self.tp.tolist(),
                "fp": self.fp.tolist(),
                "fn": self.fn.tolist(),
                "tp_prime": self.tp_prime.tolist(),
            },
            "aggregate": {
                "det_a": self.det_a_mean,
                "ass_a": self.ass_a_mean,
                "cap_a": self.cap_a_mean,
                "hota": self.hota,
                "chota": self.chota,
            },
            "capa_defined": self.capa_defined,
            "cap_metrics": list(self.cap_metrics),
            "cap_divisor": self.cap_divisor,
            "capa_alpha": self.capa_alpha,
            "per_video": self.per_video,
            "warnings": self.warnings,
        }


def _components(sums: np.ndarray, capa_index: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """DetA, AssA and CapA per threshold from the six summed rows, and CapA's value.

    DetA and AssA are 1.0 where undefined, CapA 0 where tp' is 0. CapA's value
    is its mean over the grid, or its value at ``capa_index`` when given.
    """
    tp, fp, fn, ass_iou_sum, cap_sum, tp_prime = sums
    total = tp + fp + fn
    det = np.where(total > 0, tp / np.maximum(total, 1), 1.0)
    ass = np.where(tp > 0, ass_iou_sum / np.maximum(tp, 1), 1.0)
    cap = np.where(tp_prime > 0, cap_sum / np.maximum(tp_prime, 1), 0.0)
    return det, ass, cap, float(cap.mean() if capa_index is None else cap[capa_index])


def _mid_alpha(alphas: Sequence[float]) -> int:
    """Index of the threshold closest to 0.5 (the first of a tie): where counts are reported."""
    return min(range(len(alphas)), key=lambda k: abs(alphas[k] - 0.5))


def chota_from_components(det_a_value: float, ass_a_value: float, cap_a_value: float) -> float:
    """Cube root combination of the three aggregated accuracy components."""
    return float(np.cbrt(det_a_value * ass_a_value * cap_a_value))


def hota_from_components(det_a_value: float, ass_a_value: float) -> float:
    return float(np.sqrt(det_a_value * ass_a_value))


def _pair_records(
    preds: Sequence[VideoTable | VideoRecord], gts: Sequence[VideoTable | VideoRecord]
) -> tuple[list[tuple[VideoTable, VideoTable]], list[str]]:
    """(pred, gt) tables per gt video, in video-id order; a missing prediction is an empty table.

    Reduces follow this order, so no result depends on the order of videos in a file.
    """
    preds, gts = as_tables(preds), as_tables(gts)
    warnings = []
    pred_by_id = {r.video_id: r for r in preds}
    extra = set(pred_by_id) - {g.video_id for g in gts}
    if extra:
        warnings.append(f"predictions for unknown videos ignored: {sorted(extra)}")
    pairs = []
    for gt in sorted(gts, key=lambda g: g.video_id):
        pred = pred_by_id.get(gt.video_id)
        if pred is None:
            warnings.append(f"no predictions for video {gt.video_id!r}; counting all-FN")
            pred = VideoTable(gt.video_id, gt.num_frames, [], (), [0], [], [], [])  # no tracks
        pairs.append((pred, gt))
    return pairs, warnings


def _idf_documents(gts: Sequence[VideoTable]) -> list[tuple[str, ...]]:
    """The token sequences of the ground-truth track captions, one per captioned track."""
    return [tokenize(c) for gt in gts for c in gt.track_captions if c is not None]


# Worker context for fork-based pools: records are inherited by the child
# processes instead of being pickled per task; only the small per-video
# sums travel back.
_PARALLEL_CTX: dict = {}


def _eval_indexed(index: int) -> tuple[str, np.ndarray, int, list[str]]:
    pred, gt = _PARALLEL_CTX["pairs"][index]
    return _evaluate_video(
        pred, gt, _PARALLEL_CTX["alphas"], _PARALLEL_CTX["config"], _PARALLEL_CTX["idf"]
    )


def chota(
    preds: Sequence[VideoTable | VideoRecord],
    gts: Sequence[VideoTable | VideoRecord],
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    config: ScorerConfig = ScorerConfig(),
    jobs: int = 1,
) -> EvalReport:
    """Pooled CHOTA evaluation over a collection of videos.

    Counts are pooled globally per threshold (micro-averaging); aggregate
    components are the means over the grid and combine as
    CHOTA = (DetA * AssA * CapA)^(1/3), HOTA = sqrt(DetA * AssA).
    """
    alphas = validate_alphas(alphas)
    if config.capa_alpha is not None and config.capa_alpha not in alphas:
        raise ValidationError(
            f"capa_alpha {config.capa_alpha} must be one of the evaluated thresholds"
        )
    pairs, warnings = _pair_records(preds, gts)
    idf = IdfTable.build(_idf_documents([gt for _, gt in pairs]))
    if jobs > 1 and len(pairs) > 1:
        import multiprocessing as mp

        processes = min(jobs, len(pairs))
        _PARALLEL_CTX.update(pairs=pairs, alphas=alphas, config=config, idf=idf)
        try:
            with mp.get_context("fork").Pool(processes=processes) as pool:
                results = pool.map(
                    _eval_indexed,
                    range(len(pairs)),
                    chunksize=max(1, len(pairs) // (processes * 4)),
                )
        finally:
            _PARALLEL_CTX.clear()
    else:
        results = [_evaluate_video(pred, gt, alphas, config, idf) for pred, gt in pairs]

    mid = _mid_alpha(alphas)
    capa_index = None if config.capa_alpha is None else alphas.index(config.capa_alpha)
    per_video: dict[str, dict] = {}
    for video_id, sums, gt_caption_count, video_warnings in results:
        warnings.extend(video_warnings)
        v_det, v_ass, _, v_cap = _components(sums, capa_index)
        per_video[video_id] = {
            "det_a": float(v_det.mean()),
            "ass_a": float(v_ass.mean()),
            "cap_a": v_cap if gt_caption_count else None,
            "tp@mid": float(sums[0, mid]),
        }

    # cumsum adds one video at a time, in id order, as a per-video += would.
    pooled = np.cumsum([np.zeros((6, len(alphas)))] + [r[1] for r in results], axis=0)[-1]
    tp, fp, fn, _, _, tp_prime = pooled
    det_arr, ass_arr, cap_arr, cap_mean = _components(pooled, capa_index)
    capa_defined = any(r[2] for r in results)

    det_mean = float(det_arr.mean())
    ass_mean = float(ass_arr.mean())
    if capa_defined:
        chota_value = chota_from_components(det_mean, ass_mean, cap_mean)
    else:
        cap_mean = None
        chota_value = hota_from_components(det_mean, ass_mean)
        warnings.append("no ground-truth captions anywhere: CapA undefined, CHOTA falls back to HOTA")
    if not (tp > 0).all():
        warnings.append("AssA reported as 1.0 at thresholds with zero true positives (undefined)")

    return EvalReport(
        alphas=alphas,
        det_a=det_arr,
        ass_a=ass_arr,
        cap_a=cap_arr,
        tp=tp,
        fp=fp,
        fn=fn,
        tp_prime=tp_prime,
        det_a_mean=det_mean,
        ass_a_mean=ass_mean,
        cap_a_mean=cap_mean,
        hota=hota_from_components(det_mean, ass_mean),
        chota=chota_value,
        capa_defined=capa_defined,
        cap_metrics=config.metrics,
        cap_divisor=config.divisor,
        capa_alpha=config.capa_alpha,
        per_video=per_video,
        warnings=warnings,
    )


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


@dataclass
class ApmReport:
    overall: float
    grid: np.ndarray  # (len(iou_thresholds), len(meteor_thresholds)) means
    iou_thresholds: tuple[float, ...]
    meteor_thresholds: tuple[float, ...]
    num_frames: int
    warnings: list[str]  # not written by to_dict

    def to_dict(self) -> dict:
        """The report as JSON values: with no ground-truth frame, ``ap_m`` and every cell are null, not NaN."""
        defined = self.num_frames > 0
        return {
            "ap_m": self.overall if defined else None,
            "grid": (self.grid if defined else np.full(self.grid.shape, None)).tolist(),
            "iou_thresholds": list(self.iou_thresholds),
            "meteor_thresholds": list(self.meteor_thresholds),
            "num_frames": self.num_frames,
        }


def ap_m(
    preds: Sequence[VideoTable | VideoRecord],
    gts: Sequence[VideoTable | VideoRecord],
    iou_thresholds: Sequence[float] = APM_IOU_THRESHOLDS,
    meteor_thresholds: Sequence[float] = APM_METEOR_THRESHOLDS,
) -> ApmReport:
    """Frame-level average precision gated jointly on IoU and caption quality.

    Evaluated independently per frame: predictions are greedily matched in
    descending score order to unmatched ground truth passing both thresholds
    (highest IoU first), the all-points AP is averaged over the threshold
    grid, and frames containing at least one ground-truth box are averaged.
    Ground-truth objects without a caption accept any predicted caption
    (caption score pinned to 1). METEOR is computed only for pairs that clear
    the lowest IoU threshold, since no other pair can match in any cell; this
    changes no result.

    A video's observation tables and IoU blocks are the ones CHOTA uses
    (``_VideoPrep``): frames holding both ground truth and predictions,
    grouped by exact shape, and each group is matched in every grid cell at
    once. A frame holding ground truth but no prediction counts toward the
    average and adds 0. AP is computed once per distinct (n_gt, ranked flags)
    over the collection. Per-frame APs are added in (video id, frame) order, so
    the grid is the same as a frame-by-frame sum.
    """
    iou_thresholds = tuple(iou_thresholds)
    meteor_thresholds = tuple(meteor_thresholds)
    for name, grid in (("IoU", iou_thresholds), ("METEOR", meteor_thresholds)):
        if not grid or any(not (0.0 <= t <= 1.0) for t in grid):
            raise ValidationError(f"{name} thresholds must be non-empty and in [0, 1], got {grid}")
    pairs, warnings = _pair_records(preds, gts)
    shape = (len(iou_thresholds), len(meteor_thresholds))
    n_cells = shape[0] * shape[1]
    cell_sum = np.zeros(n_cells)
    # Broadcast to (frame, iou cell, meteor cell, gt); row-major cell order.
    iou_cut = np.asarray(iou_thresholds)[:, None, None]
    met_cut = np.asarray(meteor_thresholds)[:, None]
    min_iou = min(iou_thresholds)
    n_frames = 0
    # One scorer and one AP table for every video, so both span the collection.
    scorer = _PairScorer(ScorerConfig(metrics=("meteor",)), IdfTable.build([]))
    ap_by_flags: dict[tuple[int, bytes], float] = {}

    for pred, gt in pairs:
        prep = _VideoPrep(pred, gt)
        gt_caption = prep.gt_caption[prep.gt.track]  # per gt row; -1: accepts any caption
        # The distinct frames of the non-decreasing gt.frame; one holding no
        # prediction has AP 0 in every cell, so it counts and adds +0.0.
        n_frames += int(np.count_nonzero(np.diff(prep.gt.frame, prepend=-1)))
        # Per shape group: prediction rows in descending score order (stable),
        # the IoU block as (frame, pred, gt) in that order (iou_matrix is
        # symmetric bit for bit), and the pairs that clear the lowest IoU
        # threshold against a captioned ground truth: no other pair needs METEOR.
        groups = []
        for _, g_rows, p_rows, sim in prep.groups:
            order = np.argsort(-prep.pred.score[p_rows], axis=1, kind="stable")
            p_rows = np.take_along_axis(p_rows, order, axis=1)
            iou_mat = sim[np.arange(len(sim))[:, None], :, order]  # advanced axes first: (frame, pred, gt)
            candidates = np.nonzero((iou_mat >= min_iou) & (gt_caption[g_rows] >= 0)[:, None, :])
            groups.append((g_rows, p_rows, iou_mat, candidates))
        # METEOR once per distinct (pred caption, gt caption) pair of the video.
        none = [np.zeros(0, dtype=np.int64)]
        pred_ids = [prep.pred.caption[p_rows[f, i]] for _, p_rows, _, (f, i, _) in groups]
        gt_ids = [gt_caption[g_rows[f, j]] for g_rows, _, _, (f, _, j) in groups]
        meteor = scorer.pairs(prep.caption_ids, np.concatenate(none + pred_ids), np.concatenate(none + gt_ids))
        meteor = np.split(meteor, np.cumsum([len(ids) for ids in pred_ids])[:-1])
        video_ap = []
        for (g_rows, p_rows, iou_mat, (f, i, j)), met in zip(groups, meteor):
            n_f, n_gt = g_rows.shape
            n_pred = p_rows.shape[1]
            met_mat = np.ones_like(iou_mat)
            met_mat[f, i, j] = met
            # Greedy match in every frame and cell at once: each prediction
            # takes the first highest-IoU eligible ground truth not yet taken.
            taken = np.zeros((n_f, n_cells, n_gt), dtype=bool)
            flags = np.zeros((n_f, n_cells, n_pred), dtype=bool)
            for k in range(n_pred):
                eligible = (iou_mat[:, None, None, k] >= iou_cut) & (met_mat[:, None, None, k] >= met_cut)
                ok = eligible.reshape(n_f, n_cells, n_gt) & ~taken
                hit = ok.any(axis=2)
                best = np.argmax(np.where(ok, iou_mat[:, None, k], -1.0), axis=2)
                taken[hit, best[hit]] = True
                flags[:, :, k] = hit
            # AP once per distinct flag row, each row viewed as one bytes value.
            flags = flags.reshape(-1, n_pred)
            _, first, inverse = np.unique(
                flags.view(np.dtype((np.void, n_pred))).ravel(), return_index=True, return_inverse=True
            )
            ap = np.empty(len(first))
            for u, row in enumerate(flags[first]):
                key = (n_gt, row.tobytes())
                if key not in ap_by_flags:
                    ap_by_flags[key] = average_precision(row, n_gt)
                ap[u] = ap_by_flags[key]
            video_ap.append(ap[inverse].reshape(n_f, n_cells))
        if groups:
            order = np.argsort(np.concatenate([frames for frames, *_ in prep.groups]))
            # cumsum adds one frame at a time, in frame order, as a per-frame
            # += would; a sum over the frames would regroup the additions.
            cell_sum = np.cumsum(np.vstack([cell_sum, np.concatenate(video_ap)[order]]), axis=0)[-1]

    if scorer.over_budget:
        warnings.append(scorer.over_budget_warning())
    grid = cell_sum.reshape(shape) / n_frames if n_frames else np.full(shape, np.nan)  # NaN: no frame to average
    return ApmReport(
        overall=float(grid.mean()),
        grid=grid,
        iou_thresholds=iou_thresholds,
        meteor_thresholds=meteor_thresholds,
        num_frames=n_frames,
        warnings=warnings,
    )


def grounding_ious(
    pred_boxes: Mapping[int, Sequence[float] | None],
    pred_span: tuple[int, int],
    gt_boxes: Mapping[int, Sequence[float]],
    gt_span: tuple[int, int],
) -> tuple[float, float, float]:
    """(sIoU, tIoU, vIoU) for one grounded query, from ``(x1, y1, x2, y2)`` corner rows per frame.

    Spans are inclusive frame intervals. sIoU averages the per-frame box IoU
    over the ground-truth span (a missing predicted box scores 0); tIoU is
    the span overlap ratio; vIoU sums box IoU over the span intersection,
    normalized by the span union size.
    """
    ps, pe = pred_span
    gs, ge = gt_span
    if ps > pe or gs > ge:
        raise ValidationError("spans must satisfy start <= end")

    gt_len = ge - gs + 1
    held = []  # span frames with a predicted box; the others score 0
    for frame in range(gs, ge + 1):
        if frame not in gt_boxes:
            raise ValidationError(f"ground truth box missing for frame {frame} in its own span")
        if pred_boxes.get(frame) is not None:
            held.append(frame)
    gt_corners = check_corners([gt_boxes[f] for f in range(gs, ge + 1)])
    pred_corners = check_corners([pred_boxes[f] for f in held])
    ious = iou_matrix(pred_corners[:, None], gt_corners[[f - gs for f in held]][:, None])
    box_iou = dict(zip(held, ious[:, 0, 0].tolist()))
    # Added frame by frame, in span order.
    s_total = 0.0
    for frame in range(gs, ge + 1):
        s_total += box_iou.get(frame, 0.0)
    s_iou = s_total / gt_len

    inter_start, inter_end = max(ps, gs), min(pe, ge)
    inter = max(0, inter_end - inter_start + 1)
    union = (pe - ps + 1) + gt_len - inter
    t_iou = inter / union if union else 0.0

    v_total = 0.0
    for frame in range(inter_start, inter_end + 1):
        v_total += box_iou.get(frame, 0.0)
    v_iou = v_total / union if union else 0.0
    return (s_iou, t_iou, v_iou)
