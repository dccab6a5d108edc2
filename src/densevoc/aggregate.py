"""Trajectory-level feature construction from per-observation features.

Soft aggregation averages features with row-normalized association weights;
hard aggregation concatenates uniformly sampled member features per identity.
"""

from __future__ import annotations

import numpy as np

from .assoc import AssocMatrix, IdentityAssignment
from .core import ValidationError, _int_column, _real_column

# Member features sampled per identity by hard aggregation.
HARD_M = 6


def soft_aggregate(a: AssocMatrix, features: np.ndarray) -> np.ndarray:
    """Association-weighted feature average, G = (A / rowsum(A)) @ F.

    Expects a preprocessed association matrix (unit diagonal), so no row sum
    can vanish. Each output row is a convex combination of input rows.
    """
    features = _real_column(features, "features")
    if features.ndim != 2 or features.shape[0] != a.size:
        raise ValidationError(
            f"features {features.shape} do not match {a.size} observations"
        )
    weights = a.values / a.values.sum(axis=1, keepdims=True)
    return weights @ features


def validate_m(m: int) -> int:
    """``m``, checked to be at least 1: the rule of ``hard_sample_indices``."""
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    return m


def hard_sample_indices(length: int, m: int) -> np.ndarray:
    """Evenly spaced sample indices over 0..length-1, endpoints included.

    Trajectories no longer than ``m`` pass through unchanged; otherwise the
    ``m`` indices are round(i * (length-1) / (m-1)) for i = 0..m-1
    (round-half-even), which is strictly increasing because the spacing
    exceeds 1 whenever sampling happens at all.
    """
    validate_m(m)
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    if length <= m:
        return np.arange(length)
    if m == 1:
        return np.array([0])
    return np.rint(np.arange(m) * (length - 1) / (m - 1)).astype(int)


def hard_aggregate(
    features: np.ndarray,
    ids: IdentityAssignment,
    frame_of: np.ndarray,
    m: int = HARD_M,
) -> dict[int, np.ndarray]:
    """Per-identity concatenation of uniformly sampled member features.

    Members are ordered by (frame, observation index) before sampling, so the
    result does not depend on the observation ordering of the input.
    """
    validate_m(m)
    if not isinstance(ids, IdentityAssignment):
        raise ValidationError(f"hard_aggregate takes an IdentityAssignment, got {type(ids).__name__}; "
                              "use IdentityAssignment(ids=...)")
    features, frame_of = _real_column(features, "features"), _int_column(frame_of, "frame_of")
    if features.ndim != 2 or len(ids) != features.shape[0] or len(frame_of) != features.shape[0]:
        raise ValidationError(
            f"features {features.shape}, ids {len(ids)} and frames {len(frame_of)} disagree"
        )
    out: dict[int, np.ndarray] = {}
    for track_id in np.unique(ids.ids):
        members = np.flatnonzero(ids.ids == track_id)
        members = members[np.argsort(frame_of[members], kind="stable")]
        sampled = members[hard_sample_indices(len(members), m)]
        out[int(track_id)] = features[sampled].reshape(-1)
    return out
