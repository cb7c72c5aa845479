"""Inference pipeline: peak extraction, offset grouping, and label fusion.

The stages compose into :func:`panoptic_inference`:

    keypoint_nms -> extract_centers -> thing_mask_from_semantic ->
    group_pixels -> merge_panoptic -> filter_small_stuff -> score_instances

Everything is integer- or comparison-based, so outputs are bit-identical
across runs. Instance indices are 1-based positions in the extracted center
list; 0 means "no instance". Pixels of a thing category that no center
claims become VOID (ignore_label * label_divisor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy import ndimage

from .core import DatasetSpec, InstanceCenter

__all__ = [
    "PostprocParams",
    "InstanceRecord",
    "PanopticResult",
    "keypoint_nms",
    "extract_centers",
    "thing_mask_from_semantic",
    "group_pixels",
    "merge_panoptic",
    "filter_small_stuff",
    "score_instances",
    "panoptic_inference",
]

SCORE_MODES = ("objectness", "class", "product")

# Side of the square source-pixel tiles whose candidate centers
# group_pixels prunes together.
_GROUP_TILE = 32


@dataclass(frozen=True)
class PostprocParams:
    """Inference-time knobs. ``stuff_area_threshold`` of None defers to the
    dataset spec."""

    nms_kernel: int = 7
    center_threshold: float = 0.1
    top_k: int = 200
    stuff_area_threshold: int | None = None
    score_mode: str = "product"

    def __post_init__(self):
        if self.nms_kernel < 1 or self.nms_kernel % 2 == 0:
            raise ValueError(f"nms_kernel must be odd and >= 1, got {self.nms_kernel}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.center_threshold < 0:
            raise ValueError(f"center_threshold must be >= 0, got {self.center_threshold}")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")


@dataclass(frozen=True)
class InstanceRecord:
    """One fused instance. ``instance_index`` is the 1-based center index
    and doubles as the instance part of the panoptic id."""

    instance_index: int
    category: int
    area: int
    score: float = 0.0
    center: InstanceCenter | None = None


@dataclass(frozen=True)
class PanopticResult:
    """Fused panoptic map (encoded ids) plus per-instance records."""

    panoptic: np.ndarray
    instances: tuple[InstanceRecord, ...]


def keypoint_nms(heatmap: np.ndarray, kernel: int = 7) -> np.ndarray:
    """Suppress every pixel that is not the maximum of its local window.

    A pixel survives (keeps its value) iff it equals the maximum over the
    kernel x kernel window centered on it, with windows clipped at borders;
    plateau pixels all survive. Everything else becomes 0.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")
    if heatmap.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {heatmap.shape}")
    if kernel == 1:
        return heatmap.copy()
    window_max = ndimage.maximum_filter(
        heatmap, size=kernel, mode="constant", cval=-np.inf
    )
    return np.where(heatmap == window_max, heatmap, heatmap.dtype.type(0))


def extract_centers(
    nms_heatmap: np.ndarray, threshold: float = 0.1, top_k: int = 200
) -> list[InstanceCenter]:
    """Surviving peaks strictly above ``threshold``, strongest first.

    Ties in value are ordered row-major. At most ``top_k`` centers are
    returned; coordinates are integer pixel positions, scores the heatmap
    values.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    flat = nms_heatmap.reshape(-1)
    candidates = np.flatnonzero(flat > threshold)
    if candidates.size == 0:
        return []
    values = flat[candidates].astype(np.float64)
    order = np.lexsort((candidates, -values))[:top_k]
    width = nms_heatmap.shape[1]
    return [
        InstanceCenter(
            row=float(candidates[i] // width),
            col=float(candidates[i] % width),
            score=float(values[i]),
        )
        for i in order
    ]


def thing_mask_from_semantic(semantic: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    """True exactly where the semantic label is a thing category."""
    return spec.thing_lookup(semantic)


def _tile_candidates(
    box_min: np.ndarray, box_max: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """(tiles, centers) mask of the centers that can be nearest in each tile.

    ``box_min`` and ``box_max`` are (2, tiles) corners of each tile's box of
    landing points and ``centers`` is (2, K), rows first, then columns.
    ``lo`` is the squared distance from a center to the box, ``hi`` the
    squared distance to its far corner, both computed as
    ``(r - c)**2 + (col - cc)**2`` exactly like the grouping loop. Rounding
    is monotone, so for every landing point in the box a center's computed
    distance lies in [lo, hi]. A center with ``lo`` above the smallest ``hi``
    is strictly farther than that center from every point of the tile: it can
    neither win nor tie, and dropping it leaves the output unchanged.
    """
    low, high, c = box_min[:, :, None], box_max[:, :, None], centers[:, None, :]
    near = np.minimum(np.maximum(c, low), high) - c
    far = np.maximum(np.abs(low - c), np.abs(high - c))
    near *= near
    far *= far
    lo = near[0] + near[1]
    hi = far[0] + far[1]
    return lo <= hi.min(axis=1, keepdims=True)


def _tile_major(band: np.ndarray, tile: int) -> np.ndarray:
    """(h, tiles * tile) band -> (tiles, h * tile) copy, one row per tile."""
    height = band.shape[0]
    return band.reshape(height, -1, tile).transpose(1, 0, 2).reshape(-1, height * tile)


def group_pixels(
    centers: Sequence[InstanceCenter],
    offsets: np.ndarray,
    thing_mask: np.ndarray,
) -> np.ndarray:
    """Assign every thing pixel to its nearest center after offset shift.

    Each pixel moves by its predicted offset; the instance index is 1 plus
    the index of the center minimizing squared Euclidean distance to the
    landing point, ties going to the lowest center index. Non-thing pixels
    and pixels with no centers available get 0. Returns int32 (H, W).

    The search is exact but pruned: pixels are taken in square tiles of the
    source grid, and each tile is compared only with the centers that could
    be nearest to some point of its landing-point box (see
    :func:`_tile_candidates`). Raises ValueError if a landing point or a
    center coordinate is not finite.
    """
    if offsets.ndim != 3 or offsets.shape[2] != 2:
        raise ValueError(f"offsets must be (H, W, 2), got shape {offsets.shape}")
    if thing_mask.shape != offsets.shape[:2]:
        raise ValueError(
            f"mask shape {thing_mask.shape} != offset grid {offsets.shape[:2]}"
        )
    height, width = thing_mask.shape
    instance_ids = np.zeros((height, width), dtype=np.int32)
    if not centers:
        return instance_ids
    center_coords = np.array([(c.row, c.col) for c in centers], dtype=np.float64).T
    if not np.isfinite(center_coords).all():
        raise ValueError("center coordinates must be finite")
    center_rows, center_cols = center_coords
    tile = _GROUP_TILE
    padded = -(-width // tile) * tile
    col_index = np.arange(padded, dtype=np.float64)
    # Per-tile scratch, allocated once.
    dist = np.empty(tile * tile, dtype=np.float64)
    tmp = np.empty(tile * tile, dtype=np.float64)
    best = np.empty(tile * tile, dtype=np.float64)
    closer = np.empty(tile * tile, dtype=bool)

    # One band of tile rows at a time, padded to whole tiles and laid out
    # tile-major. Every band's arrays have the same size; variable-size
    # band arrays fragmented the heap and raised peak RSS.
    for top in range(0, height, tile):
        h = min(tile, height - top)
        band_mask = np.zeros((h, padded), dtype=bool)
        band_mask[:, :width] = thing_mask[top : top + h]
        mask = _tile_major(band_mask, tile)
        occupied = mask.any(axis=1)
        if not occupied.any():
            continue
        # Landing points; cells off the thing mask get a zero offset.
        rows = np.zeros((h, padded), dtype=np.float64)
        cols = np.zeros((h, padded), dtype=np.float64)
        on_mask = band_mask[:, :width]
        np.copyto(rows[:, :width], offsets[top : top + h, :, 0], where=on_mask)
        np.copyto(cols[:, :width], offsets[top : top + h, :, 1], where=on_mask)
        rows += np.arange(top, top + h, dtype=np.float64)[:, None]
        cols += col_index
        rows, cols = _tile_major(rows, tile), _tile_major(cols, tile)
        box = np.empty((2, 2, mask.shape[0]))
        for axis, points in enumerate((rows, cols)):
            box[0, axis] = np.where(mask, points, np.inf).min(axis=1)
            box[1, axis] = np.where(mask, points, -np.inf).max(axis=1)
        # min/max propagate NaN, so an occupied tile's box is finite iff
        # every landing point in it is.
        if not np.isfinite(box[:, :, occupied]).all():
            raise ValueError("offsets give non-finite landing points")
        keep = _tile_candidates(box[0], box[1], center_coords)

        # Thing cells start at their tile's lowest kept center; tiles with
        # more candidates run the distance loop over them in ascending order.
        ids = (keep.argmax(axis=1).astype(np.int32) + 1)[:, None] * mask
        n = h * tile
        d, t, b, c = dist[:n], tmp[:n], best[:n], closer[:n]
        for i in np.flatnonzero(occupied & (np.count_nonzero(keep, axis=1) > 1)).tolist():
            tile_ids = ids[i]
            b.fill(np.inf)
            for k in np.flatnonzero(keep[i]).tolist():
                np.subtract(rows[i], center_rows[k], out=d)
                np.multiply(d, d, out=d)
                np.subtract(cols[i], center_cols[k], out=t)
                np.multiply(t, t, out=t)
                np.add(d, t, out=d)
                np.less(d, b, out=c)
                np.copyto(b, d, where=c)
                np.copyto(tile_ids, k + 1, where=c)
            tile_ids *= mask[i]
        instance_ids[top : top + h] = (
            ids.reshape(-1, h, tile).transpose(1, 0, 2).reshape(h, padded)[:, :width]
        )
    return instance_ids


def merge_panoptic(
    semantic: np.ndarray, instance_ids: np.ndarray, spec: DatasetSpec
) -> PanopticResult:
    """Fuse semantic labels with instance indices by majority vote.

    Each instance takes the most frequent thing category among its pixels
    (ties to the smallest category id) and is encoded as
    category * label_divisor + instance_index. Stuff pixels keep their
    semantic category with instance part 0; thing-category pixels left
    ungrouped become VOID.
    """
    if semantic.shape != instance_ids.shape:
        raise ValueError(
            f"semantic shape {semantic.shape} != instance shape {instance_ids.shape}"
        )
    max_instance = int(instance_ids.max()) if instance_ids.size else 0
    if max_instance >= spec.label_divisor:
        raise ValueError(
            f"instance index {max_instance} >= label_divisor {spec.label_divisor}"
        )
    num_channels = spec.num_categories
    table = spec.table
    ids_sorted = table.ids

    flat_semantic = semantic.reshape(-1)
    spec.check_known(flat_semantic, "semantic map")
    flat_instance = instance_ids.reshape(-1).astype(np.int32, copy=False)

    # Vote histogram in one bincount; channel num_channels is a sink bin for
    # the ignore label.
    code_dtype = (
        np.int32
        if (max_instance + 1) * (num_channels + 1) <= np.iinfo(np.int32).max
        else np.int64
    )
    codes = flat_instance.astype(code_dtype, copy=False) * code_dtype(
        num_channels + 1
    ) + table.channel.astype(code_dtype)[flat_semantic]
    votes_full = np.bincount(
        codes, minlength=(max_instance + 1) * (num_channels + 1)
    ).reshape(max_instance + 1, num_channels + 1)
    votes = votes_full[:, :num_channels]
    # Majority vote counts thing categories only; ties go to the smallest id.
    thing_channels = table.thing[ids_sorted]
    votes = votes * thing_channels[None, :]
    voted_channel = votes.argmax(axis=1)
    has_votes = votes.sum(axis=1) > 0
    category_of_instance = np.where(has_votes, ids_sorted[voted_channel], -1)
    category_of_instance[0] = -1  # index 0 is "no instance"

    # Whole-map assembly with a single gather over the (instance, channel)
    # codes already built for voting: instances that won a category encode as
    # category * divisor + index, instances without thing votes fall to VOID;
    # ungrouped pixels take their stuff code, with thing and ignore labels
    # going to VOID.
    instance_code = np.where(
        category_of_instance >= 0,
        category_of_instance * spec.label_divisor
        + np.arange(max_instance + 1, dtype=np.int64),
        spec.void_id,
    )
    channel_code = np.full(num_channels + 1, spec.void_id, dtype=np.int64)
    stuff_channels = ~thing_channels
    channel_code[:num_channels][stuff_channels] = (
        ids_sorted[stuff_channels] * spec.label_divisor
    )
    pan_lut = np.repeat(instance_code, num_channels + 1)
    pan_lut[: num_channels + 1] = channel_code  # instance 0: semantic path
    panoptic = pan_lut[codes].reshape(semantic.shape)

    # Every pixel of a claimed instance carries its code, so the histogram
    # row sums are exact areas.
    areas = votes_full.sum(axis=1)
    records = tuple(
        InstanceRecord(
            instance_index=int(k),
            category=int(category_of_instance[k]),
            area=int(areas[k]),
        )
        for k in range(1, max_instance + 1)
        if areas[k] > 0 and category_of_instance[k] >= 0
    )
    return PanopticResult(panoptic=panoptic, instances=records)


def filter_small_stuff(
    result: PanopticResult,
    spec: DatasetSpec,
    threshold: int | None = None,
    per_component: bool = False,
) -> PanopticResult:
    """Re-assign undersized stuff segments to VOID.

    By default a stuff "segment" is the union of all pixels of that category
    in the image; with ``per_component`` each 4-connected component is
    filtered independently. Thing segments are never touched.
    """
    if threshold is None:
        threshold = spec.stuff_area_threshold
    if threshold <= 0:
        return result
    panoptic = result.panoptic
    category = panoptic // spec.label_divisor
    instance = panoptic % spec.label_divisor
    spec.check_known(category, "panoptic map")
    out = panoptic.copy()
    is_stuff = (instance == 0) & spec.table.stuff[category]
    if per_component:
        for cid in np.unique(category[is_stuff]).tolist():
            labeled, count = ndimage.label(is_stuff & (category == cid))
            areas = np.bincount(labeled.reshape(-1), minlength=count + 1)
            small = np.flatnonzero(areas[1:] < threshold) + 1
            if small.size:
                out[np.isin(labeled, small)] = spec.void_id
    else:
        areas = np.bincount(
            category.reshape(-1)[is_stuff.reshape(-1)],
            minlength=spec.max_known_label + 1,
        )
        small_lut = (areas > 0) & (areas < threshold)
        out[is_stuff & small_lut[category]] = spec.void_id
    return PanopticResult(panoptic=out, instances=result.instances)


def _class_scores(
    result: PanopticResult, semantic_probs: np.ndarray, spec: DatasetSpec
) -> dict[int, float]:
    """Mean probability of each instance's voted category over its pixels.

    ``semantic_probs`` may be a (H, W, C) probability grid (channels in
    ascending category-id order) or a (H, W) label map, which is treated as
    its one-hot equivalent.
    """
    panoptic = result.panoptic
    instance = (panoptic % spec.label_divisor).reshape(-1)
    thing_cat = (panoptic // spec.label_divisor).reshape(-1)
    if not result.instances:
        return {}
    max_index = max(r.instance_index for r in result.instances)
    category_lut = np.zeros(max_index + 1, dtype=np.int64)
    for r in result.instances:
        category_lut[r.instance_index] = r.category
    # Instance part 0 is stuff; mask it out of the accumulation.
    member = (instance > 0) & (instance <= max_index)
    member &= category_lut[np.where(member, instance, 0)] == thing_cat

    if semantic_probs.ndim == 2:
        labels = semantic_probs.reshape(-1)
        hit = np.zeros(instance.shape, dtype=np.float64)
        hit[member] = labels[member] == category_lut[instance[member]]
        prob_of_voted = hit
    elif semantic_probs.ndim == 3:
        channel_lut = spec.table.channel[category_lut]
        flat_probs = semantic_probs.reshape(-1, semantic_probs.shape[2])
        prob_of_voted = np.zeros(instance.shape, dtype=np.float64)
        rows = np.flatnonzero(member)
        prob_of_voted[rows] = flat_probs[rows, channel_lut[instance[rows]]]
    else:
        raise ValueError(
            f"semantic probabilities must be (H, W) or (H, W, C), got shape {semantic_probs.shape}"
        )
    sums = np.bincount(
        instance[member], weights=prob_of_voted[member], minlength=max_index + 1
    )
    counts = np.bincount(instance[member], minlength=max_index + 1)
    return {
        r.instance_index: float(sums[r.instance_index] / max(1, counts[r.instance_index]))
        for r in result.instances
    }


def score_instances(
    result: PanopticResult,
    center_scores: Mapping[int, float] | None,
    semantic_probs: np.ndarray | None,
    mode: str,
    spec: DatasetSpec,
) -> PanopticResult:
    """Attach confidence scores; the panoptic map is passed through untouched.

    Objectness is the instance's center heatmap value (``center_scores``
    keyed by instance index); the class score is the mean probability of the
    voted category over the instance's pixels. ``mode`` picks objectness,
    class, or their product.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"score mode must be one of {SCORE_MODES}, got {mode!r}")
    if mode in ("objectness", "product") and center_scores is None:
        raise ValueError(f"score mode {mode!r} requires center scores")
    if mode in ("class", "product"):
        if semantic_probs is None:
            raise ValueError(f"score mode {mode!r} requires semantic probabilities")
        if semantic_probs.ndim == 3:
            sums = semantic_probs.sum(axis=2, dtype=np.float64)
            if not np.all(np.abs(sums - 1.0) <= 1e-5):
                raise ValueError("semantic probabilities must sum to 1 per pixel")
        class_scores = _class_scores(result, semantic_probs, spec)

    scored = []
    for record in result.instances:
        if mode == "objectness":
            score = float(center_scores[record.instance_index])
        elif mode == "class":
            score = class_scores[record.instance_index]
        else:
            score = float(center_scores[record.instance_index]) * class_scores[record.instance_index]
        scored.append(replace(record, score=score))
    return PanopticResult(panoptic=result.panoptic, instances=tuple(scored))


def panoptic_inference(
    semantic: np.ndarray,
    heatmap: np.ndarray,
    offsets: np.ndarray,
    spec: DatasetSpec,
    params: PostprocParams = PostprocParams(),
) -> PanopticResult:
    """Full pipeline from raw prediction grids to a scored panoptic result.

    ``semantic`` is either a (H, W) label map or a (H, W, C) probability
    grid; probabilities are reduced per pixel by argmax with ties to the
    smallest category id.
    """
    if semantic.ndim == 3:
        if semantic.shape[2] != spec.num_categories:
            raise ValueError(
                f"probability grid has {semantic.shape[2]} channels, "
                f"spec has {spec.num_categories} categories"
            )
        labels = spec.table.ids[semantic.argmax(axis=2)]
        probs = semantic
    elif semantic.ndim == 2:
        labels = semantic
        probs = None
    else:
        raise ValueError(f"semantic must be (H, W) or (H, W, C), got shape {semantic.shape}")
    if heatmap.shape != labels.shape:
        raise ValueError(f"heatmap shape {heatmap.shape} != semantic grid {labels.shape}")
    if offsets.shape[:2] != labels.shape:
        raise ValueError(f"offsets shape {offsets.shape} != semantic grid {labels.shape}")

    suppressed = keypoint_nms(heatmap, params.nms_kernel)
    centers = extract_centers(suppressed, params.center_threshold, params.top_k)
    mask = thing_mask_from_semantic(labels, spec)
    instance_ids = group_pixels(centers, offsets, mask)
    result = merge_panoptic(labels, instance_ids, spec)
    result = filter_small_stuff(result, spec, threshold=params.stuff_area_threshold)

    with_centers = tuple(
        replace(record, center=centers[record.instance_index - 1])
        for record in result.instances
    )
    result = PanopticResult(panoptic=result.panoptic, instances=with_centers)
    center_scores = {k + 1: c.score for k, c in enumerate(centers)}
    return score_instances(
        result,
        center_scores,
        probs if probs is not None else labels,
        params.score_mode,
        spec,
    )
