"""Training-target encoders: center heatmap, offset field, and loss weights.

Ground truth arrives as a panoptic label map. The encoders derive per-pixel
regression and weighting targets from its ``core.segment_table``, which
:func:`encode_targets` builds once for all of them. Thing segments are the panoptic
ids whose category is a thing and whose instance part is >= 1; a thing
category with instance part 0 is treated as a crowd region and contributes
no center, no offsets, and no thing-mask pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DatasetSpec, Dims, InstanceCenter, SegmentTable, _run_blocks, segment_table

__all__ = [
    "TargetParams",
    "TargetBundle",
    "compute_mass_centers",
    "encode_center_heatmap",
    "encode_offsets",
    "semantic_weight_map",
    "encode_targets",
]

# Rows per band of encode_offsets on core._run_blocks. On 2049-pixel rows,
# bands of 16-64 ran alike; 8 and 128 ran slower.
_OFFSET_BAND = 32


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
        # Written so that NaN fails every range test.
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.truncation_radius < math.inf:
            raise ValueError(
                f"truncation_radius must be finite and > 0, got {self.truncation_radius}"
            )
        if not 1 <= self.small_instance_weight < math.inf:
            raise ValueError(
                f"small_instance_weight must be finite and >= 1, got {self.small_instance_weight}"
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
    areas: tuple[int, ...]  # pixel count of each centers entry's segment


def compute_mass_centers(table: SegmentTable) -> list[tuple[int, InstanceCenter]]:
    """Mass center of every thing segment, as (panoptic id, center) pairs.

    Centers are arithmetic means of pixel coordinates, kept real-valued;
    the score field is fixed at 1. Ordered by ascending panoptic id.
    """
    things = table.thing_instance
    rows, cols = table.center_rows[things].tolist(), table.center_cols[things].tolist()
    return [
        (pid, InstanceCenter(row=row, col=col, score=1.0))
        for pid, row, col in zip(table.ids[things].tolist(), rows, cols)
    ]


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


def encode_offsets(table: SegmentTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (delta_row, delta_col) to the segment's mass center.

    Returns (offsets, thing_mask): offsets are float32 (H, W, 2), zero
    outside the mask; thing_mask is true exactly at thing-instance pixels.
    Adding a pixel's offset to its own coordinates lands on the mass center
    of its segment, up to float32 rounding. Bands of rows run on
    ``core._run_blocks``; each writes only its own rows.
    """
    height, width = table.inverse.shape
    thing_mask = np.empty((height, width), dtype=bool)
    offsets = np.zeros((height, width, 2), dtype=np.float32)
    cols = np.arange(width, dtype=np.float64)

    def band_body(j: int) -> None:
        band = slice(j * _OFFSET_BAND, (j + 1) * _OFFSET_BAND)
        segment = table.inverse[band]
        # inverse indexes ids, so "clip" never clips; it keeps take from
        # buffering its out= array, which "raise" does.
        mask = np.take(table.thing_instance, segment, out=thing_mask[band], mode="clip")
        rows = np.arange(band.start, band.start + len(segment), dtype=np.float64)
        # The float64 difference, rounded once to float32; +0.0 stays
        # outside the mask.
        delta = np.take(table.center_rows, segment)
        delta -= rows[:, None]
        np.copyto(offsets[band, :, 0], delta, where=mask)
        np.take(table.center_cols, segment, out=delta, mode="clip")
        delta -= cols
        np.copyto(offsets[band, :, 1], delta, where=mask)

    _run_blocks(band_body, -(-height // _OFFSET_BAND))
    return offsets, thing_mask


def semantic_weight_map(
    table: SegmentTable, params: TargetParams = TargetParams()
) -> np.ndarray:
    """Per-pixel semantic loss weights.

    ``small_instance_weight`` at pixels of thing instances with area strictly
    below ``small_instance_area``, 1 elsewhere, 0 at ignore pixels. float32.
    """
    weight = np.ones(table.ids.size, dtype=np.float32)
    weight[table.thing_instance & (table.areas < params.small_instance_area)] = (
        params.small_instance_weight
    )
    weight[table.void] = 0.0
    return weight[table.inverse]


def encode_targets(
    panoptic: np.ndarray,
    spec: DatasetSpec,
    params: TargetParams = TargetParams(),
) -> TargetBundle:
    """Run all encoders over one ground-truth panoptic map."""
    table = segment_table(panoptic, spec)  # one scan feeds every encoder
    centers = compute_mass_centers(table)
    heatmap = encode_center_heatmap([c for _, c in centers], Dims.of(panoptic), params)
    offsets, thing_mask = encode_offsets(table)
    return TargetBundle(
        heatmap=heatmap,
        offsets=offsets,
        semantic_weights=semantic_weight_map(table, params),
        semantic_labels=table.category.astype(np.int32)[table.inverse],
        thing_mask=thing_mask,
        centers=tuple(centers),
        areas=tuple(table.areas[table.thing_instance].tolist()),
    )
