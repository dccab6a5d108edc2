"""Frame-level average precision and likelihood-based spatial grounding."""

from densevoc import VideoTable, ap_m, grounding_ious, select_boxes
from densevoc.ground import TableScorer, ground_and_score


def one_frame_video(caption, box, score=1.0):
    """A one-frame video holding one captioned track with one (x1, y1, x2, y2) box."""
    return VideoTable.from_rows("demo", 1, track_ids=[1], frames=[0], corners=[box], scores=[score],
                                track_captions={1: caption})


# A true positive must clear an IoU threshold AND a caption-quality threshold,
# over a 5x5 grid of both. Good box + good caption: full marks.
gt = one_frame_video("a red car", (0, 0, 10, 10))
print("good pred:  ", ap_m([one_frame_video("a red car", (0.5, 0, 10, 10))], [gt]).overall)

# A box at IoU 0.35 only clears the loosest IoU threshold: 5 of 25 cells.
print("loose box:  ", ap_m([one_frame_video("a red car", (0, 0, 3.5, 10))], [gt]).overall)

# A wrong caption fails every caption threshold above 0.
print("wrong words:", ap_m([one_frame_video("some thing", (0.5, 0, 10, 10))], [gt]).overall)

# Spatial grounding: per frame, pick the candidate maximizing detection
# score times query likelihood exp(-NLL).
candidates = {0: [((0, 0, 10, 10), 0.9), ((50, 50, 60, 60), 0.5)]}
nlls = {0: [2.0, 0.1]}  # the second candidate explains the query far better
result = select_boxes(candidates, nlls)
print("selected:", result.selections[0], "weighted values:", result.values[0])

# Grounding over a span, scored with spatial / temporal / volumetric IoU.
# Candidates and query boxes are (x1, y1, x2, y2) corner rows.
gt_boxes = {f: (0, 0, 10, 10) for f in range(3)}
per_frame = {("demo", f, k, "q1"): (0.1 if k == 0 else 4.0) for f in range(3) for k in range(2)}
scorer = TableScorer(per_frame=per_frame)
span_candidates = {f: [((0, 0, 10, 10), 0.5), ((80, 80, 90, 90), 0.9)] for f in range(3)}
_, (s_iou, t_iou, v_iou) = ground_and_score("demo", span_candidates, gt_boxes, (0, 2), scorer, "q1")
print(f"grounded: sIoU={s_iou:.2f} tIoU={t_iou:.2f} vIoU={v_iou:.2f}")

# The three IoUs respond differently to span misalignment.
pred_boxes = {f: (0, 0, 10, 10) for f in range(2, 7)}
gt_span_boxes = {f: (0, 0, 10, 10) for f in range(4, 9)}
print("span shift:", grounding_ious(pred_boxes, (2, 6), gt_span_boxes, (4, 8)))
