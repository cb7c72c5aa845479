"""Training-target encoders: center heatmap, offset field, and loss weights.

Ground truth arrives as a panoptic label map; the encoders derive per-pixel
regression and weighting targets from it. Thing segments are the panoptic
ids whose category is a thing and whose instance part is >= 1; a thing
category with instance part 0 is treated as a crowd region and contributes
no center, no offsets, and no thing-mask pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DatasetSpec, Dims, InstanceCenter

__all__ = [
    "TargetParams",
    "TargetBundle",
    "compute_mass_centers",
    "encode_center_heatmap",
    "encode_offsets",
    "semantic_weight_map",
    "encode_targets",
]


@dataclass(frozen=True)
class TargetParams:
    """Knobs of the target encoders.

    ``sigma`` is the standard deviation of the center Gaussian in pixels;
    contributions are cut off beyond ``truncation_radius * sigma``. Pixels of
    instances smaller than ``small_instance_area`` get ``small_instance_weight``
    in the semantic weight map.
    """

    sigma: float = 8.0
    truncation_radius: float = 3.0
    small_instance_area: int = 64 * 64
    small_instance_weight: float = 3.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.truncation_radius <= 0:
            raise ValueError(f"truncation_radius must be > 0, got {self.truncation_radius}")
        if self.small_instance_weight < 1:
            raise ValueError(
                f"small_instance_weight must be >= 1, got {self.small_instance_weight}"
            )


@dataclass(frozen=True)
class TargetBundle:
    """Everything the three losses need, on one shared grid."""

    heatmap: np.ndarray  # (H, W) float32 in [0, 1]
    offsets: np.ndarray  # (H, W, 2) float32, zero outside thing_mask
    semantic_weights: np.ndarray  # (H, W) float32, 0 at ignore pixels
    semantic_labels: np.ndarray  # (H, W) int32 category ids
    thing_mask: np.ndarray  # (H, W) bool
    centers: tuple[tuple[int, InstanceCenter], ...]  # (panoptic id, center)


def _thing_segments(
    panoptic: np.ndarray, spec: DatasetSpec
) -> list[tuple[int, np.ndarray]]:
    """Unique thing-instance ids with their flat pixel indices, id order."""
    ids, inverse = np.unique(panoptic, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(ids.size + 1))
    segments = []
    for i, pid in enumerate(ids):
        category = int(pid) // spec.label_divisor
        instance = int(pid) % spec.label_divisor
        if instance >= 1 and category in spec.thing_ids:
            segments.append((int(pid), order[boundaries[i] : boundaries[i + 1]]))
    return segments


def compute_mass_centers(
    panoptic: np.ndarray, spec: DatasetSpec
) -> list[tuple[int, InstanceCenter]]:
    """Mass center of every thing segment, as (panoptic id, center) pairs.

    Centers are arithmetic means of pixel coordinates, kept real-valued;
    the score field is fixed at 1. Ordered by ascending panoptic id.
    """
    return _mass_centers(_thing_segments(panoptic, spec), panoptic.shape[1])


def _mass_centers(
    segments: list[tuple[int, np.ndarray]], width: int
) -> list[tuple[int, InstanceCenter]]:
    out = []
    for pid, flat in segments:
        rows = flat // width
        cols = flat % width
        center = InstanceCenter(
            row=float(rows.mean(dtype=np.float64)),
            col=float(cols.mean(dtype=np.float64)),
            score=1.0,
        )
        out.append((pid, center))
    return out


def encode_center_heatmap(
    centers: list[InstanceCenter] | tuple[InstanceCenter, ...],
    dims: Dims,
    params: TargetParams = TargetParams(),
) -> np.ndarray:
    """Render centers as a max-combined truncated Gaussian heatmap.

    Each pixel holds max over centers of exp(-d^2 / (2 sigma^2)) where d is
    the Euclidean distance to the (possibly fractional) center; pixels
    farther than ``truncation_radius * sigma`` from every center are exactly
    zero. Returns float32 (H, W).
    """
    heatmap = np.zeros(dims.shape, dtype=np.float64)
    radius = params.truncation_radius * params.sigma
    inv_two_sigma_sq = 1.0 / (2.0 * params.sigma * params.sigma)
    for c in centers:
        if not (0 <= c.row < dims.height and 0 <= c.col < dims.width):
            raise ValueError(f"center ({c.row}, {c.col}) outside {dims.shape}")
        r0 = max(0, math.ceil(c.row - radius))
        r1 = min(dims.height - 1, math.floor(c.row + radius))
        c0 = max(0, math.ceil(c.col - radius))
        c1 = min(dims.width - 1, math.floor(c.col + radius))
        if r0 > r1 or c0 > c1:
            continue
        dr = np.arange(r0, r1 + 1, dtype=np.float64) - c.row
        dc = np.arange(c0, c1 + 1, dtype=np.float64) - c.col
        dist_sq = dr[:, None] ** 2 + dc[None, :] ** 2
        patch = np.exp(-dist_sq * inv_two_sigma_sq)
        patch[dist_sq > radius * radius] = 0.0
        region = heatmap[r0 : r1 + 1, c0 : c1 + 1]
        np.maximum(region, patch, out=region)
    return heatmap.astype(np.float32)


def encode_offsets(
    panoptic: np.ndarray, spec: DatasetSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (delta_row, delta_col) to the segment's mass center.

    Returns (offsets, thing_mask): offsets are float32 (H, W, 2), zero
    outside the mask; thing_mask is true exactly at thing-instance pixels.
    Adding a pixel's offset to its own coordinates lands on the mass center
    of its segment, up to float32 rounding.
    """
    return _offsets(_thing_segments(panoptic, spec), panoptic.shape)


def _offsets(
    segments: list[tuple[int, np.ndarray]], shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    height, width = shape
    offsets = np.zeros((height, width, 2), dtype=np.float32)
    thing_mask = np.zeros((height, width), dtype=bool)
    flat_off = offsets.reshape(-1, 2)
    flat_mask = thing_mask.reshape(-1)
    for _, flat in segments:
        rows = flat // width
        cols = flat % width
        center_row = rows.mean(dtype=np.float64)
        center_col = cols.mean(dtype=np.float64)
        flat_off[flat, 0] = center_row - rows
        flat_off[flat, 1] = center_col - cols
        flat_mask[flat] = True
    return offsets, thing_mask


def semantic_weight_map(
    panoptic: np.ndarray,
    spec: DatasetSpec,
    params: TargetParams = TargetParams(),
) -> np.ndarray:
    """Per-pixel semantic loss weights.

    ``small_instance_weight`` at pixels of thing instances with area strictly
    below ``small_instance_area``, 1 elsewhere, 0 at ignore pixels. float32.
    """
    return _weight_map(panoptic, _thing_segments(panoptic, spec), spec, params)


def _weight_map(
    panoptic: np.ndarray,
    segments: list[tuple[int, np.ndarray]],
    spec: DatasetSpec,
    params: TargetParams,
) -> np.ndarray:
    weights = np.ones(panoptic.shape, dtype=np.float32)
    flat = weights.reshape(-1)
    for _, seg in segments:
        if seg.size < params.small_instance_area:
            flat[seg] = params.small_instance_weight
    category = panoptic.astype(np.int64) // spec.label_divisor
    weights[category == spec.ignore_label] = 0.0
    return weights


def encode_targets(
    panoptic: np.ndarray,
    spec: DatasetSpec,
    params: TargetParams = TargetParams(),
) -> TargetBundle:
    """Run all encoders over one ground-truth panoptic map."""
    dims = Dims.of(panoptic)
    segments = _thing_segments(panoptic, spec)  # one scan feeds all three
    centers = _mass_centers(segments, dims.width)
    heatmap = encode_center_heatmap([c for _, c in centers], dims, params)
    offsets, thing_mask = _offsets(segments, dims.shape)
    weights = _weight_map(panoptic, segments, spec, params)
    semantic = (panoptic.astype(np.int64) // spec.label_divisor).astype(np.int32)
    return TargetBundle(
        heatmap=heatmap,
        offsets=offsets,
        semantic_weights=weights,
        semantic_labels=semantic,
        thing_mask=thing_mask,
        centers=tuple(centers),
    )
