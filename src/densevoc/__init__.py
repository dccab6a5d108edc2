"""Dense video object captioning: evaluation metrics and trajectory formation."""

from .aggregate import hard_aggregate, hard_sample_indices, soft_aggregate
from .assoc import (
    AssocMatrix,
    IdentityAssignment,
    assign_identities,
    build_gt_association,
    iou_tracker,
    preprocess,
)
from .capmetrics import IdfTable, cider_pair, exact_match, meteor_lite, stem
from .core import (
    Box,
    Caption,
    Detection,
    Trajectory,
    ValidationError,
    VideoRecord,
    VideoTable,
    tokenize,
)
from .ground import GroundingResult, TableScorer, UniformScorer, ground_and_score, select_boxes
from .losses import (
    assoc_loss,
    caption_loss,
    finite_diff_check,
    giou,
    giou_loss,
    heatmap_loss,
    roi_cls_loss,
    roi_reg_loss,
)
from .metrics import (
    DEFAULT_ALPHAS,
    ApmReport,
    EvalReport,
    ScorerConfig,
    ap_m,
    chota,
    chota_from_components,
    grounding_ious,
    hota_from_components,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
