"""Command-line surface.

Exit codes: 0 success, 1 a --gate threshold failed (or a verification table
has failures), 2 malformed or inconsistent input. Missing videos and similar
semantic gaps degrade to warnings with defined metric behavior so sweeps
survive; schema violations do not.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import aggregate as agg
from . import assoc, formats, ground, losses, metrics, synth
from .core import ValidationError, VideoTable


# What a command-line value must read as, by the type it is parsed to.
_EXPECTED = {float: "a finite number", int: "an integer"}


def _parse(kind: type, text: str, flag: str):
    """``kind(text)`` for ``kind`` float or int; else a ValidationError. A float may be NaN or infinite here."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{flag}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _number(text: str, flag: str, low: float = -math.inf, high: float = math.inf) -> float:
    """A finite float in [low, high] from a command-line value; else a ValidationError."""
    value = _parse(float, text, flag)
    if not math.isfinite(value):
        raise ValidationError(f"{flag}: expected {_EXPECTED[float]}, got {text!r}")
    return _in_range(value, flag, low, high)


def _integer(text: str, flag: str, low: float, high: float) -> int:
    """An integer in [low, high] from a command-line value; else a ValidationError."""
    return _in_range(_parse(int, text, flag), flag, low, high)


def _in_range(value, flag: str, low: float, high: float):
    if not low <= value <= high:
        raise ValidationError(f"{flag}: {value} is outside [{low}, {high}]")
    return value


# Each command's gate metrics: gate name -> report attribute.
_CHOTA_GATES = {
    "chota": "chota", "hota": "hota", "det_a": "det_a_mean", "ass_a": "ass_a_mean", "cap_a": "cap_a_mean",
}
_APM_GATES = {"ap_m": "overall"}


def _parse_gates(gates: list[str], known: dict[str, str]) -> list[tuple[str, str, float]]:
    """(name, report attribute, minimum) of each ``metric:min`` gate; an unknown metric is a ValidationError."""
    parsed = []
    for gate in gates:
        name, _, value = gate.partition(":")
        name = name.strip()
        if not value:
            raise ValidationError(f"gate must look like metric:min, got {gate!r}")
        if name not in known:
            raise ValidationError(f"unknown gate metric {name!r}; known: {sorted(known)}")
        parsed.append((name, known[name], _number(value, "--gate")))
    return parsed


def _apply_gates(gates: list[tuple[str, str, float]], report) -> int:
    failed = False
    for name, attribute, minimum in gates:
        value = getattr(report, attribute)
        ok = value is not None and value >= minimum
        print(f"gate {name} >= {minimum}: {'PASS' if ok else 'FAIL'} (value {value})")
        if not ok:
            failed = True
    return 1 if failed else 0


def _scorer_config(args) -> metrics.ScorerConfig:
    names = tuple(m.strip() for m in args.cap_metrics.split(",") if m.strip())
    external = None
    if "external" in names:
        if not args.external_scores:
            raise ValidationError("--cap-metrics external requires --external-scores FILE")
        external = formats.load_external_scores(args.external_scores)
    elif args.external_scores:
        raise ValidationError("--external-scores is read only with external in --cap-metrics")
    capa_alpha = None
    if args.capa_alpha != "integrate":
        mode, _, value = args.capa_alpha.partition(":")
        if mode != "single" or not value:
            raise ValidationError("--capa-alpha must be 'integrate' or 'single:<alpha>'")
        capa_alpha = _number(value, "--capa-alpha")
    return metrics.ScorerConfig(metrics=names, external_scores=external, capa_alpha=capa_alpha)


def cmd_eval_chota(args) -> int:
    gates = _parse_gates(args.gate, _CHOTA_GATES)
    alphas = metrics.validate_alphas(_number(a, "--alphas") for a in args.alphas.split(","))
    if args.jobs is None:
        jobs = _integer(os.environ.get("DENSEVOC_JOBS", "1"), "DENSEVOC_JOBS", 1, math.inf)
    else:
        jobs = _integer(args.jobs, "--jobs", 1, math.inf)
    config = _scorer_config(args)
    config.capa_index(alphas)  # a capa_alpha off the grid fails here, before any dataset is read
    gts = formats.load_dataset(args.gt, strict=args.strict)
    preds = formats.load_dataset(args.pred, strict=args.strict)
    report = metrics.chota(preds, gts, alphas=alphas, config=config, jobs=jobs)
    summary = report.flat_summary()
    for key, value in summary.items():
        print(f"{key}={value}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        formats.write_json(report.to_dict(), args.out)
        with open(str(args.out) + ".summary", "w") as fh:
            for key, value in summary.items():
                fh.write(f"{key}={value}\n")
    return _apply_gates(gates, report)


def cmd_eval_apm(args) -> int:
    gates = _parse_gates(args.gate, _APM_GATES)
    iou_thresholds = metrics.validate_thresholds(
        "IoU", (_number(t, "--iou-thresholds") for t in args.iou_thresholds.split(","))
    )
    meteor_thresholds = metrics.validate_thresholds(
        "METEOR", (_number(t, "--meteor-thresholds") for t in args.meteor_thresholds.split(","))
    )
    gts = formats.load_dataset(args.gt, strict=args.strict)
    preds = formats.load_dataset(args.pred, strict=args.strict)
    report = metrics.ap_m(
        preds, gts, iou_thresholds=iou_thresholds, meteor_thresholds=meteor_thresholds
    )
    print(f"ap_m={report.overall}")
    print(f"frames={report.num_frames}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        formats.write_json(report.to_dict(), args.out)
    return _apply_gates(gates, report)


def cmd_track_assign(args) -> int:
    theta = assoc.validate_theta(_parse(float, args.theta, "--theta"))
    ids = assoc.assign_identities(formats.load_matrix(args.matrix, "assoc"), theta=theta)
    print(f"observations={len(ids)} tracks={len(set(ids.ids.tolist()))}")
    if args.out:
        formats.write_json({"ids": [int(i) for i in ids.ids]}, args.out)
    return 0


def cmd_track_iou(args) -> int:
    thresh = _number(args.thresh, "--thresh", 0.0, 1.0)
    out_tables = []
    for table in formats.load_dataset(args.pred, strict=args.strict):
        rows, track = table.frame_order()
        frames, corners = table.frames[rows], table.corners[rows]
        ids = assoc.iou_tracker(frames, corners, match_thresh=thresh).ids
        # Each row keeps its effective caption, its own or else its track's, as a box caption.
        box = table.box_captions or (None,) * len(rows)
        captions = [table.track_captions[t] if box[r] is None else box[r]
                    for r, t in zip(rows.tolist(), track.tolist())]
        out_tables.append(VideoTable.from_rows(
            table.video_id, table.num_frames, ids, frames, corners, table.scores[rows], box_captions=captions))
    if args.out:
        formats.save_dataset(out_tables, args.out)
    print(f"videos={len(out_tables)}")
    return 0


def cmd_aggregate(args) -> int:
    # Each mode reads only these flags; giving another one is an error, not a silent drop.
    mode = "hard with --ids" if args.mode == "hard" and args.ids else args.mode
    reads = {"soft": ("matrix",), "hard with --ids": ("ids", "m"), "hard": ("matrix", "theta", "m")}[mode]
    unread = [f"--{flag}" for flag in ("matrix", "ids", "m", "theta")
              if flag not in reads and getattr(args, flag) is not None]
    if unread:
        raise ValidationError(f"aggregate --mode {mode} does not read {', '.join(unread)}")
    if "matrix" in reads and not args.matrix:
        needs = "--matrix" if args.mode == "soft" else "--ids or --matrix"
        raise ValidationError(f"{args.mode} aggregation needs {needs}")
    theta = assoc.THETA if args.theta is None else assoc.validate_theta(_parse(float, args.theta, "--theta"))
    m = agg.HARD_M if args.m is None else agg.validate_m(_parse(int, args.m, "--m"))
    features = formats.load_matrix(args.features, "features")
    if "matrix" in reads:
        matrix = formats.load_matrix(args.matrix, "assoc")
        if not np.array_equal(matrix.frame_of, features.frame_of):
            raise ValidationError(f"{args.matrix}: frame_of differs from the frame_of of {args.features}")
    if args.mode == "soft":
        out = agg.soft_aggregate(assoc.preprocess(matrix), features.values)
        if args.out:
            formats.save_matrix(features.video_id, features.frame_of, out, args.out, kind="features")
        print(f"rows={out.shape[0]} dim={out.shape[1]}")
        return 0
    if args.ids:
        ids = assoc.IdentityAssignment(ids=formats.load_ids(args.ids))
    else:
        ids = assoc.assign_identities(matrix, theta=theta)
    result = agg.hard_aggregate(features.values, ids, features.frame_of, m=m)
    obj = {
        "video_id": features.video_id,
        "m": m,
        "tracks": [
            {"track_id": tid, "length": len(vec), "values": [float(v) for v in vec]}
            for tid, vec in sorted(result.items())
        ],
    }
    if args.out:
        formats.write_json(obj, args.out)
    print(f"tracks={len(result)}")
    return 0


def cmd_ground(args) -> int:
    by_id = {t.video_id: t for t in formats.load_dataset(args.pred, strict=args.strict)}
    queries = formats.load_queries(args.queries)
    nlls = formats.load_likelihoods(args.likelihoods)

    results = []
    sious, tious, vious = [], [], []
    for query in queries:
        video = by_id.get(query["video_id"])
        if video is None:
            print(f"warning: no predictions for video {query['video_id']!r}", file=sys.stderr)
            continue
        result, (s_iou, t_iou, v_iou) = ground.ground_and_score(video, query, nlls, args.mode)
        sious.append(s_iou)
        tious.append(t_iou)
        vious.append(v_iou)
        results.append(
            {
                "video_id": video.video_id,
                "query_id": query["query_id"],
                "s_iou": s_iou,
                "t_iou": t_iou,
                "v_iou": v_iou,
                "selections": {
                    str(frame): {"index": index, "box": list(box)}
                    for frame, (index, box) in sorted(result.selections.items())
                },
                "values": {str(f): vals for f, vals in sorted(result.values.items())},
            }
        )
    if args.out:
        formats.write_json(results, args.out)
    if sious:
        print(f"queries={len(sious)}")
        print(f"s_iou={float(np.mean(sious))}")
        print(f"t_iou={float(np.mean(tious))}")
        print(f"v_iou={float(np.mean(vious))}")
    return 0


# Each synth flag and the SynthConfig field it sets; the field's default gives its type and default.
_SYNTH_FLAGS = {
    "--seed": "seed", "--num-videos": "num_videos", "--frames": "frames_per_video",
    "--objects": "objects_per_video", "--box-jitter": "box_jitter_sigma", "--drop-rate": "drop_rate",
    "--fp-rate": "false_positive_rate", "--id-switch-rate": "id_switch_rate",
    "--caption-corruption-rate": "caption_corruption_rate",
}


def cmd_synth(args) -> int:
    defaults = synth.SynthConfig()
    cfg = synth.SynthConfig(**{field: _parse(type(getattr(defaults, field)), getattr(args, field), flag)
                               for flag, field in _SYNTH_FLAGS.items()})
    gts, preds = synth.generate(cfg)
    formats.save_dataset(gts, args.out_gt)
    formats.save_dataset(preds, args.out_pred)
    print(f"videos={len(gts)} gt={args.out_gt} pred={args.out_pred}")
    return 0


def cmd_convert_flat(args) -> int:
    num_frames = args.num_frames
    if num_frames is not None:
        # The range a dataset file may hold (formats reads 64-bit integers).
        num_frames = _integer(num_frames, "--num-frames", 1, 2**63 - 1)
    table = formats.load_flat_records(
        args.flat,
        video_id=args.video_id,
        num_frames=num_frames,
        one_based_frames=args.one_based,
    )
    formats.save_dataset([table], args.out)
    print(f"tracks={len(table.track_ids)} detections={len(table.frames)} out={args.out}")
    return 0


def cmd_verify_losses(args) -> int:
    seeds = _integer(args.seeds, "--seeds", 1, math.inf)
    rng = np.random.default_rng(7)
    # (name, loss, gradient, draw): draw(r) returns the point and the loss's fixed keyword arguments.
    table = (
        ("heatmap_loss", losses.heatmap_loss, losses.heatmap_loss_grad, lambda r: (
            r.uniform(0.1, 0.9, size=(5, 5)),
            {"y_gt": np.where(r.random((5, 5)) < 0.3, 1.0, r.uniform(0.0, 0.95, size=(5, 5))), "n": 3},
        )),
        ("assoc_loss", losses.assoc_loss, losses.assoc_loss_grad, lambda r: (
            r.uniform(0.1, 0.9, size=(4, 4)), {"a_gt": (r.random((4, 4)) < 0.5).astype(float)},
        )),
        ("caption_loss", losses.caption_loss, losses.caption_loss_grad, lambda r: (
            r.normal(size=(5, 7)), {"gt_tokens": r.integers(0, 7, size=5)},
        )),
        ("roi_cls_loss", losses.roi_cls_loss, losses.roi_cls_loss_grad, lambda r: (
            r.normal(size=2), {"label": int(r.integers(0, 2))},
        )),
    )
    failed = False
    for name, loss, grad, draw in table:
        errors = []
        for _ in range(seeds):
            point, fixed = draw(np.random.default_rng(rng.integers(2**32)))
            errors.append(losses.finite_diff_check(
                lambda v: loss(v, **fixed), lambda v: grad(v, **fixed), point
            ))
        worst = np.max(errors)  # NaN-propagating, unlike the builtin max
        ok = worst <= 1e-4
        failed |= not ok
        print(f"{name:<14} max_rel_err={worst:.3e} over {seeds} seeds: {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densevoc",
        description="Dense video object captioning evaluation and trajectory toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_eval(p):
        p.add_argument("gt", help="ground-truth dataset file")
        p.add_argument("pred", help="prediction dataset file")
        p.add_argument("--strict", action="store_true", help="reject unknown fields")
        p.add_argument("--out", default=None, help="write the full report here")
        p.add_argument("--gate", action="append", default=[], metavar="METRIC:MIN")

    p = sub.add_parser("eval-chota", help="tracking + captioning evaluation")
    add_common_eval(p)
    p.add_argument("--alphas", default=",".join(str(a) for a in metrics.DEFAULT_ALPHAS))
    p.add_argument("--cap-metrics", default=",".join(metrics.ScorerConfig().metrics),
                   help="comma list of meteor,cider,exact,external")
    p.add_argument("--capa-alpha", default="integrate", help="'integrate' or 'single:<alpha>'")
    p.add_argument("--external-scores", default=None, help="sidecar score file")
    p.add_argument("--jobs", help="worker processes (default: DENSEVOC_JOBS, else 1)")
    p.set_defaults(func=cmd_eval_chota)

    p = sub.add_parser("eval-apm", help="frame-level average precision")
    add_common_eval(p)
    p.add_argument("--iou-thresholds", default=",".join(str(t) for t in metrics.APM_IOU_THRESHOLDS))
    p.add_argument(
        "--meteor-thresholds", default=",".join(str(t) for t in metrics.APM_METEOR_THRESHOLDS)
    )
    p.set_defaults(func=cmd_eval_apm)

    p = sub.add_parser("track-assign", help="identities from an association matrix")
    p.add_argument("matrix")
    p.add_argument("--theta", default=assoc.THETA)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_track_assign)

    p = sub.add_parser("track-iou", help="baseline IoU linker over a detection file")
    p.add_argument("pred")
    p.add_argument("--thresh", default="0.5")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_track_iou)

    p = sub.add_parser("aggregate", help="trajectory features from per-observation features")
    p.add_argument("features", help="feature matrix file")
    p.add_argument("--matrix", default=None, help="association matrix file")
    p.add_argument("--ids", default=None, help="identity file from track-assign")
    p.add_argument("--mode", choices=("soft", "hard"), default="soft")
    p.add_argument("--m", default=None, help=f"frames sampled per track in hard mode (default {agg.HARD_M})")
    p.add_argument("--theta", default=None, help=f"hard mode without --ids (default {assoc.THETA})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("ground", help="weighted-likelihood spatial grounding")
    p.add_argument("pred")
    p.add_argument("--queries", required=True)
    p.add_argument("--likelihoods", required=True)
    p.add_argument("--mode", choices=ground.MODES, default="per-frame")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("synth", help="deterministic synthetic scenario files")
    defaults = synth.SynthConfig()
    for flag, field in _SYNTH_FLAGS.items():
        # The metavar argparse derives from the flag's name, so the help reads as the flag.
        p.add_argument(flag, dest=field, default=getattr(defaults, field), metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-pred", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "convert-flat", help="flat frame,id,x,y,w,h[,score] rows to a dataset file"
    )
    p.add_argument("flat", help="CSV-style flat records")
    p.add_argument("--video-id", required=True)
    p.add_argument("--num-frames", default=None, help="default: max frame + 1")
    p.add_argument("--one-based", action="store_true", help="frames in the input start at 1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_flat)

    p = sub.add_parser("verify-losses", help="finite-difference gradient table")
    p.add_argument("--seeds", default="100")
    p.set_defaults(func=cmd_verify_losses)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (formats.FormatError, ValidationError, ground.GroundingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
