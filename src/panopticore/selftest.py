"""Self-contained property suite behind the ``selftest`` subcommand.

The oracles here are deliberately naive re-statements of each operation's
definition (per-pixel scans, finite differences, sort-and-average) so they
stay independent of the optimized implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import core, losses, metrics, postprocess, targets
from .core import DatasetSpec, Dims, InstanceCenter
from .synth import Scene, make_spec, random_scene

__all__ = [
    "PropertyResult",
    "run_selftest",
    "nms_oracle",
    "group_oracle",
    "bootstrapped_ce_oracle",
    "class_scores_oracle",
    "probability_labels_oracle",
    "segment_table_oracle",
    "joint_histogram_oracle",
    "match_detections_oracle",
    "merge_oracle",
    "inference_oracle",
    "random_merge_inputs",
    "random_inference_case",
    "random_probabilities",
    "exact_inputs",
    "round_trip_pq",
    "random_valid_map",
    "relative_error",
    "histogram_mismatch",
]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Independent oracles


def nms_oracle(heatmap: np.ndarray, kernel: int) -> np.ndarray:
    """Window-max scan straight from the definition (clipped borders)."""
    radius = kernel // 2
    padded = np.pad(heatmap.astype(np.float64), radius, constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel))
    window_max = windows.max(axis=(2, 3))
    return np.where(heatmap.astype(np.float64) == window_max, heatmap, 0).astype(
        heatmap.dtype
    )


def group_oracle(
    centers: list[InstanceCenter], offsets: np.ndarray, thing_mask: np.ndarray
) -> np.ndarray:
    """Per-pixel loop over every center; ties to the lowest index."""
    height, width = thing_mask.shape
    out = np.zeros((height, width), dtype=np.int32)
    if not centers:
        return out
    for r in range(height):
        for c in range(width):
            if not thing_mask[r, c]:
                continue
            lr = r + float(offsets[r, c, 0])
            lc = c + float(offsets[r, c, 1])
            best, best_k = math.inf, 0
            for k, center in enumerate(centers):
                d = (lr - center.row) ** 2 + (lc - center.col) ** 2
                if d < best:
                    best, best_k = d, k
            out[r, c] = best_k + 1
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def bootstrapped_ce_oracle(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    ignore_label: int,
    top_k_fraction: float = 0.15,
    with_gradient: bool = True,
) -> losses.LossValue:
    """``losses.weighted_bootstrapped_ce`` as first written: whole-grid
    float64 copies and a full (-loss, row) lexsort. Weighted cross-entropy
    averaged over the hardest top-K pixels.

    ``logits`` is (H, W, C); ``labels`` holds channel indices in [0, C) or
    ``ignore_label``. Per-pixel loss is weight * -log softmax(logits)[label];
    K = ceil(top_k_fraction * #valid), ties at the K-th largest loss resolved
    in row-major order. The gradient (w.r.t. logits) is nonzero only at
    selected pixels.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be (H, W, C), got shape {logits.shape}")
    if labels.shape != logits.shape[:2]:
        raise ValueError(f"labels shape {labels.shape} != logits grid {logits.shape[:2]}")
    if weights.shape != labels.shape:
        raise ValueError(f"weights shape {weights.shape} != labels shape {labels.shape}")
    if not 0 < top_k_fraction <= 1:
        raise ValueError(f"top_k_fraction must be in (0, 1], got {top_k_fraction}")

    num_classes = logits.shape[2]
    flat_logits = logits.reshape(-1, num_classes).astype(np.float64)
    flat_labels = labels.reshape(-1).astype(np.int64)
    flat_weights = weights.reshape(-1).astype(np.float64)
    if (flat_weights < 0).any():
        raise ValueError("weights must be >= 0")

    valid = np.flatnonzero(flat_labels != ignore_label)
    if valid.size == 0:
        raise ValueError("all pixels carry the ignore label; loss undefined")
    valid_labels = flat_labels[valid]
    if valid_labels.min() < 0 or valid_labels.max() >= num_classes:
        raise ValueError("labels contain indices outside [0, num_classes)")

    log_probs = _log_softmax(flat_logits[valid])
    pixel_loss = -flat_weights[valid] * log_probs[np.arange(valid.size), valid_labels]

    k = max(1, int(np.ceil(top_k_fraction * valid.size)))
    # Sort by descending loss; equal losses keep row-major order.
    order = np.lexsort((valid, -pixel_loss))
    selected = order[:k]
    value = float(pixel_loss[selected].mean(dtype=np.float64))

    gradient = None
    if with_gradient:
        gradient = np.zeros_like(flat_logits)
        sel_rows = valid[selected]
        probs = np.exp(log_probs[selected])
        probs[np.arange(selected.size), valid_labels[selected]] -= 1.0
        probs *= (flat_weights[sel_rows] / k)[:, None]
        gradient[sel_rows] = probs
        gradient = gradient.reshape(logits.shape)
    return losses.LossValue(value=value, gradient=gradient)


def class_scores_oracle(
    result: postprocess.PanopticResult, semantic_probs: np.ndarray, spec: DatasetSpec
) -> dict[int, float]:
    """The scores stage's class scores as first written, on labels and on
    probabilities alike: whole-image instance and category maps, a member
    mask and a float64 per-pixel weight map, summed with one bincount over
    the member pixels."""
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


def probability_labels_oracle(probs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``postprocess._probability_labels`` as first written: numpy's float64
    row sum and row argmax, block by block (``postprocess._PROB_BLOCK``
    pixels), so a grid with faults in two blocks fails on the first one."""
    flat = probs.reshape(-1, probs.shape[2])
    labels = np.empty(flat.shape[0], dtype=ids.dtype)
    for start in range(0, flat.shape[0], postprocess._PROB_BLOCK):
        block = flat[start : start + postprocess._PROB_BLOCK]
        with np.errstate(invalid="ignore", over="ignore"):
            sums = block.sum(axis=1, dtype=np.float64)
        if not np.all(np.abs(sums - 1.0) <= 1e-5):
            if not np.isfinite(block).all():
                raise ValueError("semantic probabilities contain non-finite values")
            raise ValueError("semantic probabilities must sum to 1 per pixel")
        labels[start : start + block.shape[0]] = ids[block.argmax(axis=1)]
    return labels.reshape(probs.shape[:2])


def margin_edge_row(channels: int, dtype, above: bool, outside: bool) -> np.ndarray:
    """A float64 row of ``dtype`` values at the edge of the sum check of
    ``postprocess._probability_labels``: channel 0 holds the last value
    inside the band |s - 1| + beta s <= 1e-5 above or below 1 (one ulp past
    it if ``outside``), and every other channel the largest value below
    half its ulp in the check's sum. The check's sum, channel by channel
    on a block of two pixels or more, drops those and is channel 0; numpy's
    row sum keeps them. So the two sums differ by about (C - 1) u, the most
    that beta allows for. At C where no sum passes, channel 0 is the band's
    formula rounded."""
    sum_dtype = np.float64 if np.dtype(dtype) == np.float64 else np.float32
    beta = postprocess._sum_margin(channels, float(np.finfo(sum_dtype).epsneg))
    side = 1.0 if above else -1.0
    away = dtype(1 + side)  # 2 or 0

    def inside(v) -> bool:
        return abs(float(v) - 1.0) + beta * float(v) <= 1e-5

    value = dtype((1 + side * 1e-5) / (1 + side * beta))
    if inside(1.0):
        while not inside(value):
            value = np.nextafter(value, dtype(1))
        while inside(np.nextafter(value, away)):
            value = np.nextafter(value, away)
    if outside:
        value = np.nextafter(value, away)
    half_ulp = np.spacing(sum_dtype(value)) / 2
    row = np.full(channels, np.nextafter(dtype(half_ulp), dtype(0)), dtype=np.float64)
    row[0] = value
    return row


def segment_table_oracle(panoptic: np.ndarray, spec: DatasetSpec) -> core.SegmentTable:
    """``core.segment_table`` as first written: one ``np.unique`` sort of the
    map with inverse and counts."""
    height, width = panoptic.shape
    ids, inverse, areas = np.unique(panoptic, return_inverse=True, return_counts=True)
    classes = core.classify_segments(ids, spec, "panoptic map")
    inverse = inverse.reshape(-1)
    rows = np.bincount(inverse, np.repeat(np.arange(height, dtype=np.float64), width))
    cols = np.bincount(inverse, np.tile(np.arange(width, dtype=np.float64), height))
    inverse = inverse.reshape(height, width)
    return core.SegmentTable(ids, inverse, areas, rows / areas, cols / areas, *classes)


def joint_histogram_oracle(pred: np.ndarray, gt: np.ndarray) -> metrics.JointHistogram:
    """``metrics.joint_histogram`` as first written: one ``np.unique`` sort
    of a pair code per pixel, or of (pred id, gt id) pixel rows when the
    ids are negative or too large to pack into one int64 code."""
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    pred_flat = pred.reshape(-1).astype(np.int64)
    gt_flat = gt.reshape(-1).astype(np.int64)
    scale = int(gt_flat.max()) + 1
    if min(pred_flat.min(), gt_flat.min()) < 0 or pred_flat.max() >= (2**63 - 1) // scale:
        stacked = np.stack([pred_flat, gt_flat], axis=1)
        pairs, counts = np.unique(stacked, axis=0, return_counts=True)
        inter_pred, inter_gt = pairs[:, 0], pairs[:, 1]
    else:
        pairs, counts = np.unique(pred_flat * scale + gt_flat, return_counts=True)
        inter_pred, inter_gt = pairs // scale, pairs % scale
    pred_ids, pred_index = np.unique(inter_pred, return_inverse=True)
    gt_ids, gt_index = np.unique(inter_gt, return_inverse=True)
    pred_areas = np.bincount(pred_index, counts, pred_ids.size).astype(np.int64)
    gt_areas = np.bincount(gt_index, counts, gt_ids.size).astype(np.int64)
    return metrics.JointHistogram(
        pred_ids, pred_areas, gt_ids, gt_areas, pred_index, gt_index, counts
    )


def match_detections_oracle(
    preds: Sequence[tuple[np.ndarray, int, float]],
    gts: Sequence[tuple[np.ndarray, int, bool]],
    thresholds: Sequence[float] = metrics.DEFAULT_AP_THRESHOLDS,
    max_dets: int = 200,
) -> dict[int, dict]:
    """``metrics.ap_matches_from_histogram``'s match tables from
    full-resolution masks: ``preds`` are (mask, category, score), ties in
    score resolved by input order, and ``gts`` (mask, category, crowd). The
    overlaps are counted mask by mask, then matched by
    ``metrics._greedy_matches`` with every category on the per-detection
    ``metrics._greedy_loop``."""
    dt_cats = np.array([int(c) for _, c, _ in preds], dtype=np.int64)
    gt_cats = np.array([int(c) for _, c, _ in gts], dtype=np.int64)
    overlap = np.zeros((dt_cats.size, gt_cats.size), dtype=np.int64)
    for i, j in zip(*np.nonzero(dt_cats[:, None] == gt_cats[None, :])):
        overlap[i, j] = np.count_nonzero(preds[i][0] & gts[j][0])
    return metrics._greedy_matches(
        dt_cats, np.array([float(s) for _, _, s in preds], dtype=np.float64),
        np.array([int(m.sum()) for m, _, _ in preds], dtype=np.int64),
        gt_cats, np.array([bool(c) for _, _, c in gts], dtype=bool),
        np.array([int(m.sum()) for m, _, _ in gts], dtype=np.int64),
        overlap, thresholds, max_dets, match=metrics._greedy_loop,
    )


def merge_oracle(
    semantic: np.ndarray, instance_ids: np.ndarray, spec: DatasetSpec, min_stuff_area: int
) -> postprocess.PanopticResult:
    """``postprocess.merge_panoptic`` as first written: one vote code per
    pixel, one ``np.bincount`` over them and one gather of the lookup table
    over every pixel. The semantic map must be checked against the spec and
    the instance ids must fit int32."""
    max_instance = int(instance_ids.max()) if instance_ids.size else 0
    if max_instance >= spec.label_divisor:
        raise ValueError(
            f"instance index {max_instance} >= label_divisor {spec.label_divisor}"
        )
    num_channels = spec.num_categories
    table = spec.table
    ids_sorted = table.ids

    flat_semantic = semantic.reshape(-1)
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
    # Instance rows encode a thing category or VOID, so row 0 holds every
    # stuff pixel of the fused map: its counts are the stuff areas.
    small = stuff_channels & (votes_full[0, :num_channels] < min_stuff_area)
    channel_code[:num_channels][small] = spec.void_id
    pan_lut = np.repeat(instance_code, num_channels + 1)
    pan_lut[: num_channels + 1] = channel_code  # instance 0: semantic path
    panoptic = pan_lut[codes].reshape(semantic.shape)

    # Every pixel of a claimed instance carries its code, so the histogram
    # row sums are exact areas.
    areas = votes_full.sum(axis=1)
    records = tuple(
        postprocess.InstanceRecord(
            instance_index=int(k),
            category=int(category_of_instance[k]),
            area=int(areas[k]),
        )
        for k in range(1, max_instance + 1)
        if areas[k] > 0 and category_of_instance[k] >= 0
    )
    return postprocess.PanopticResult(panoptic=panoptic, instances=records)


def inference_oracle(
    semantic: np.ndarray,
    heatmap: np.ndarray,
    offsets: np.ndarray,
    spec: DatasetSpec,
    params: postprocess.PostprocParams = postprocess.PostprocParams(),
) -> postprocess.PanopticResult:
    """``postprocess.panoptic_inference`` of valid inputs, chained from the
    stage oracles: :func:`probability_labels_oracle`, ``extract_centers``
    over :func:`nms_oracle`, :func:`group_oracle`, :func:`merge_oracle` (a
    None stuff threshold defers to the spec's) and
    :func:`class_scores_oracle`. Center k - 1 is instance k."""
    labels = semantic if semantic.ndim == 2 else probability_labels_oracle(semantic, spec.table.ids)
    centers = postprocess.extract_centers(
        nms_oracle(heatmap, params.nms_kernel), params.center_threshold, params.top_k
    )
    instance_ids = group_oracle(centers, offsets, np.isin(labels, sorted(spec.thing_ids)))
    threshold = params.stuff_area_threshold
    threshold = spec.stuff_area_threshold if threshold is None else threshold
    merged = merge_oracle(labels, instance_ids, spec, threshold)
    classes = class_scores_oracle(merged, semantic, spec)
    records = []
    for record in merged.instances:
        center, score = centers[record.instance_index - 1], classes[record.instance_index]
        score = {"objectness": center.score, "class": score, "product": center.score * score}
        records.append(replace(record, score=score[params.score_mode], center=center))
    return postprocess.PanopticResult(merged.panoptic, tuple(records))


def random_probabilities(
    rng: np.random.Generator, shape: tuple[int, ...], channels: int
) -> np.ndarray:
    """A float32 probability grid of ``shape`` + (``channels``,), each row
    normalised to sum to 1. Magnitudes spread over ~2**-60..1, so float64
    sums of them round and their value depends on the summation order."""
    probs = np.exp2(-60 * rng.random(tuple(shape) + (channels,))).astype(np.float32)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def relative_error(analytic: float, numeric: float) -> float:
    scale = max(abs(analytic), abs(numeric))
    if scale < 1e-9:
        return 0.0
    return abs(analytic - numeric) / scale


# ---------------------------------------------------------------------------
# Round-trip oracle


def rounded(value: float) -> int:
    return int(math.floor(value + 0.5))


def exact_inputs(scene: Scene, params: targets.TargetParams = targets.TargetParams()):
    """Exact targets for the reconstruction round trip.

    The heatmap is rendered from centers rounded to pixel positions so each
    instance owns exactly one unit-height peak; offsets stay exact.
    """
    bundle = targets.encode_targets(scene.panoptic, scene.spec, params)
    rounded_centers = [
        InstanceCenter(row=rounded(c.row), col=rounded(c.col), score=1.0)
        for _, c in bundle.centers
    ]
    heatmap = targets.encode_center_heatmap(
        rounded_centers, Dims.of(scene.panoptic), params
    )
    return bundle.semantic_labels, heatmap, bundle.offsets


def round_trip_pq(
    scene: Scene, params: postprocess.PostprocParams = postprocess.PostprocParams()
) -> metrics.PqReport:
    """Encode exact targets, run the full pipeline, score against the gt."""
    semantic, heatmap, offsets = exact_inputs(scene)
    result = postprocess.panoptic_inference(
        semantic, heatmap, offsets, scene.spec, params
    )
    return metrics.panoptic_quality(result.panoptic, scene.panoptic, scene.spec)


# ---------------------------------------------------------------------------
# Random valid maps (for metric stress properties)


def random_valid_map(
    rng: np.random.Generator, spec: DatasetSpec, height: int = 16, width: int = 16
) -> np.ndarray:
    """A random well-formed panoptic map: stuff, things, crowd, and VOID."""
    ids = []
    for cid in spec.stuff_ids:
        ids.append(cid * spec.label_divisor)
    for cid in spec.thing_ids:
        for inst in range(rng.integers(0, 4)):
            ids.append(cid * spec.label_divisor + inst)  # inst 0 = crowd
    ids.append(spec.void_id)
    choices = np.array(ids, dtype=np.int64)
    blocks = rng.integers(0, len(choices), size=(height // 4 + 1, width // 4 + 1))
    grown = np.kron(blocks, np.ones((4, 4), dtype=np.int64))[:height, :width]
    return choices[grown]


def random_merge_inputs(
    rng: np.random.Generator, spec: DatasetSpec, height: int, width: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Labels known to the spec and int32 instance ids in [0, 200] for the
    merge. ``kind`` is ``blocks`` (:func:`random_valid_map` categories, ids
    in 4x4 blocks, half of them 0), ``noise`` (every pixel drawn alone) or
    ``flat`` (one label and one id: a single run across every row)."""
    ids = np.asarray(spec.category_ids + (spec.ignore_label,))
    shape = (height, width)
    if kind == "noise":
        labels = ids[rng.integers(ids.size, size=shape)]
        instance = rng.integers(0, 201, size=shape)
    elif kind == "flat":
        labels = np.full(shape, ids[rng.integers(ids.size)])
        instance = np.full(shape, rng.integers(0, 201))
    else:
        labels = random_valid_map(rng, spec, height, width) // spec.label_divisor
        blocks = rng.integers(0, 201, size=(height // 4 + 1, width // 4 + 1))
        blocks *= rng.random(blocks.shape) < 0.5
        instance = np.kron(blocks, np.ones((4, 4), dtype=np.int64))[:height, :width]
    return labels, instance.astype(np.int32)


def random_inference_case(
    rng: np.random.Generator, height: int, width: int, dtype, stuff,
    params: postprocess.PostprocParams,
) -> tuple:
    """(semantic, heatmap, offsets, spec, params) for ``panoptic_inference``.
    An integer ``dtype`` gives :func:`random_merge_inputs` block labels; a
    float one, rows of small integer weights over the channels, normalised,
    so argmax ties are common. The heatmap holds quantised values (plateaus,
    ties) on a random share of its pixels, some dense enough for the full
    window-max filter; offsets are N(0, 4). The spec's stuff threshold,
    which a ``stuff`` of None defers to, is a stuff area of the unfiltered
    oracle map; ``stuff`` "area" and "area + 1" take it and one more."""
    spec = make_spec(num_stuff=2, num_things=3)
    if np.issubdtype(dtype, np.floating):
        weights = rng.integers(0, 3, size=(height, width, spec.num_categories))
        weights[..., 0] += weights.sum(axis=2) == 0
        semantic = (weights / weights.sum(axis=2, keepdims=True)).astype(dtype)
    else:
        semantic = random_merge_inputs(rng, spec, height, width, "blocks")[0].astype(dtype)
    heatmap = np.ceil(rng.random((height, width)) * 4) / 4
    heatmap *= rng.random((height, width)) < rng.choice([0.02, 0.1, 1.0])
    offsets = rng.normal(0, 4, (height, width, 2)).astype(np.float32)
    inputs = (semantic, heatmap.astype(np.float32), offsets)
    unfiltered = inference_oracle(*inputs, spec, replace(params, stuff_area_threshold=0)).panoptic
    ids, areas = np.unique(unfiltered, return_counts=True)
    areas = areas[np.isin(ids, [c * spec.label_divisor for c in spec.stuff_ids])]
    area = int(rng.choice(areas)) if areas.size else 0
    stuff = area + (stuff == "area + 1") if isinstance(stuff, str) else stuff
    spec = replace(spec, stuff_area_threshold=area)
    return (*inputs, spec, replace(params, stuff_area_threshold=stuff))


def histogram_mismatch(pred, gt, spec, scores=None, max_dets=200) -> str:
    """Which joint-histogram result differs from its dense reference: the
    mIoU report and confusion from ``mean_iou`` on the category maps, the AP
    match tables (hence AP reports) from :func:`match_detections_oracle` on
    full-resolution masks ("" when both agree)."""
    hist, div = metrics.joint_histogram(pred, gt), spec.label_divisor
    got = metrics.miou_from_histogram(hist, spec)
    want = metrics.mean_iou(pred // div, gt // div, spec)
    if got != want or not _same_array(got.confusion, want.confusion):
        return "mIoU differs from mean_iou"
    dts, gts = [], []  # thing segments as full-resolution masks
    for i in np.unique(pred).tolist():
        if i // div in spec.thing_ids and i % div:
            dts.append((pred == i, i // div, 1.0 if scores is None else scores[i % div]))
    for i in np.unique(gt).tolist():
        if i // div in spec.thing_ids:
            gts.append((gt == i, i // div, i % div == 0))
    got = metrics.ap_matches_from_histogram(hist, spec, scores, max_dets=max_dets)
    want = match_detections_oracle(dts, gts, max_dets=max_dets)
    if got.keys() != want.keys():
        return "AP categories differ from match_detections_oracle on full-resolution masks"
    for category, row in got.items():
        if row["n_positive"] != want[category]["n_positive"] or not all(
            _same_array(row[k], want[category][k]) for k in ("scores", "tp", "ignored")
        ):
            return f"AP match table of category {category} differs from match_detections_oracle"
    return ""


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Properties


def _check_round_trip(seed: int) -> str:
    scene = random_scene(seed)
    report = round_trip_pq(scene)
    if report.all.pq != 1.0:
        return f"seed {seed}: PQ {report.all.pq} != 1.0"
    return ""


def _check_nms(seed: int = 0, cases: int = 100) -> str:
    """keypoint_nms == the window-max scan, and the candidate-only peak
    search == extract_centers over it (quantised values make plateaus), with
    window offsets charged nothing so sparse maps take the search."""
    from unittest import mock  # imports asyncio: not at the CLI's start-up

    rng = np.random.default_rng(seed)
    for i in range(cases):
        heatmap = rng.random((16, 16)).astype(np.float32)
        if i % 2:  # sparse enough for the candidate-only search
            heatmap = np.ceil(heatmap * 4) / 4 * (rng.random((16, 16)) < 0.04 * (i % 4))
        for kernel in (1, 3, 5, 7):
            want = nms_oracle(heatmap, kernel)
            if not np.array_equal(postprocess.keypoint_nms(heatmap, kernel), want):
                return f"case {i} kernel {kernel}: mismatch with window-max scan"
            threshold, top_k = (0.0, 0.5, 0.8)[i % 3], (1, 5, 200)[i % 3]
            with mock.patch.object(postprocess, "_PEAK_OFFSET_COST", 0):
                peaks = postprocess._peak_centers(heatmap, kernel, threshold, top_k)
            if peaks != postprocess.extract_centers(want, threshold, top_k):
                return f"case {i} kernel {kernel}: peaks differ from extract_centers"
    return ""


def _check_grouping(seed: int = 0, cases: int = 200) -> str:
    # Centers and landing points reach 8 pixels past every side of the grid.
    rng = np.random.default_rng(seed)
    for i in range(cases):
        height, width = 16, 16
        mask = rng.random((height, width)) < 0.6
        offsets = rng.normal(0, (4, 8)[i % 2], size=(height, width, 2)).astype(np.float32)
        n = int(rng.integers(0, 6))
        centers = [
            InstanceCenter(
                row=float(rng.uniform(-8, height + 8)), col=float(rng.uniform(-8, width + 8))
            )
            for _ in range(n)
        ]
        got = postprocess.group_pixels(centers, offsets, mask)
        want = group_oracle(centers, offsets, mask)
        if not np.array_equal(got, want):
            return f"case {i}: mismatch with per-pixel argmin loop"
    return ""


def _central_differences(name, loss, pred, step, tol, skip=lambda idx: False) -> str:
    """The gradient of ``loss(pred, True)`` against central differences of
    ``loss(pred, False)`` at every entry of ``pred`` that ``skip`` keeps."""
    grad = loss(pred, True).gradient
    for idx in np.ndindex(pred.shape):
        if skip(idx):
            continue
        plus, minus = pred.copy(), pred.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (loss(plus, False).value - loss(minus, False).value) / (2 * step)
        if relative_error(grad[idx], fd) > tol:
            return f"{name} grad at {idx}: analytic {grad[idx]} vs fd {fd}"
    return ""


def _fd_mse(seed: int, step: float = 1e-4, tol: float = 1e-4) -> str:
    rng = np.random.default_rng(seed)
    pred = rng.random((8, 8))
    target = rng.random((8, 8))
    return _central_differences(
        "mse", lambda p, grad: losses.mse_heatmap_loss(p, target, with_gradient=grad),
        pred, step, tol,
    )


def _fd_l1(seed: int, step: float = 1e-4, tol: float = 1e-4) -> str:
    rng = np.random.default_rng(seed)
    pred = rng.normal(0, 2, size=(8, 8, 2))
    target = rng.normal(0, 2, size=(8, 8, 2))
    mask = rng.random((8, 8)) < 0.7
    return _central_differences(
        "l1", lambda p, grad: losses.l1_offset_loss(p, target, mask, with_gradient=grad),
        pred, step, tol,
        skip=lambda idx: abs(pred[idx] - target[idx]) < max(1e-6, 2 * step),  # not differentiable
    )


def _ce_pixel_losses(logits, labels, weights, ignore_label):
    flat_logits = logits.reshape(-1, logits.shape[-1]).astype(np.float64)
    flat_labels = labels.reshape(-1)
    flat_weights = weights.reshape(-1)
    out = np.full(flat_labels.shape, -np.inf)
    for p in range(flat_labels.size):
        if flat_labels[p] == ignore_label:
            continue
        z = flat_logits[p]
        log_prob = z[flat_labels[p]] - (z.max() + np.log(np.exp(z - z.max()).sum()))
        out[p] = -flat_weights[p] * log_prob
    return out


def _fd_ce(
    seed: int, fraction: float = 0.5, step: float = 1e-4, tol: float = 1e-4
) -> str:
    rng = np.random.default_rng(seed)
    num_classes = 5
    ignore = 99
    logits = rng.normal(0, 2, size=(8, 8, num_classes))
    labels = rng.integers(0, num_classes, size=(8, 8))
    labels[rng.random((8, 8)) < 0.1] = ignore
    if (labels == ignore).all():
        labels[0, 0] = 0
    weights = rng.uniform(0.2, 2.0, size=(8, 8))

    pixel = _ce_pixel_losses(logits, labels, weights, ignore).reshape(8, 8)
    valid = pixel[pixel > -np.inf]
    k = max(1, int(np.ceil(fraction * valid.size)))
    ordered = np.sort(valid)[::-1]
    boundary_in = ordered[k - 1]
    boundary_out = ordered[k] if k < valid.size else -np.inf

    def skip(idx) -> bool:
        # Ignored pixels, and pixels whose selection status could flip under
        # the probe.
        at, margin = idx[:2], 10 * weights[idx[:2]] * step
        return (labels[at] == ignore or abs(pixel[at] - boundary_in) < margin
                or abs(pixel[at] - boundary_out) < margin)

    return _central_differences(
        "ce", lambda p, grad: losses.weighted_bootstrapped_ce(
            p, labels, weights, ignore, fraction, with_gradient=grad
        ), logits, step, tol, skip,
    )


def _check_bootstrapped_ce(seed: int = 0, cases: int = 60) -> str:
    """Blocked top-K CE == the full-sort oracle, value and gradient bytes;
    integer logits and weights make exact ties at the K-th loss common. The
    last 6 grids span more than 3 blocks, so the block threads run too; the
    last 2 hold normal float32 logits, which take the float32 filter."""
    rng = np.random.default_rng(seed)
    ignore = 99
    for i in range(cases + 2):
        height, width = rng.integers(1, 24, size=2)
        num_classes = int(rng.integers(1, 8))
        if i >= cases - 4:
            height, width, num_classes = 70, 200, int(rng.integers(2, 20))
        logits = rng.integers(-2, 3, size=(height, width, num_classes)).astype(
            (np.float32, np.float64)[i % 2]
        )
        if i % 3 == 0:
            logits += rng.normal(0, 2, size=logits.shape).astype(logits.dtype)
        if i >= cases:
            logits = rng.normal(0, 2, size=logits.shape).astype(np.float32)
        labels = rng.integers(0, num_classes, size=(height, width))
        labels[rng.random((height, width)) < 0.2] = ignore
        labels[0, 0] = 0
        weights = rng.integers(0, 4, size=(height, width)).astype(np.float64)
        fraction = (1e-9, 0.15, 0.5, 1.0, float(rng.uniform(1e-9, 1)))[i % 5]
        got = losses.weighted_bootstrapped_ce(logits, labels, weights, ignore, fraction)
        want = bootstrapped_ce_oracle(logits, labels, weights, ignore, fraction)
        if repr(got.value) != repr(want.value):
            return f"case {i}: value {got.value!r} != oracle {want.value!r}"
        if got.gradient.tobytes() != want.gradient.tobytes():
            return f"case {i}: gradient differs from the full-sort oracle"
    return ""


def _check_class_scores(seed: int = 0, cases: int = 100) -> str:
    """Class scores == the whole-image oracle, bit for bit, on the merge of
    random labels and instance ids: member-only ``_class_scores`` on
    probabilities, and the merge's votes on the labels."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(cases):
        kind = ("blocks", "noise", "flat")[i % 3]
        labels, instance = random_merge_inputs(rng, spec, 16, 16, kind)
        merged = postprocess.merge_panoptic(labels, instance, spec)
        probs = random_probabilities(rng, labels.shape, spec.num_categories)
        if repr(postprocess._class_scores(merged, instance, probs, spec)) != repr(
            class_scores_oracle(merged, probs, spec)
        ):
            return f"case {i}: class scores on probabilities over {kind} ids differ from the oracle"
        if repr(postprocess._label_scores(merged)) != repr(
            class_scores_oracle(merged, labels, spec)
        ):
            return f"case {i}: class scores from the votes on {kind} labels differ from the oracle"
    return ""


def _labels_outcome(function, probs: np.ndarray, ids: np.ndarray):
    """Labels as (bytes, dtype, shape), or the message."""
    try:
        labels = function(probs, ids)
    except ValueError as e:
        return "error", str(e)
    return "ok", (labels.tobytes(), labels.dtype, labels.shape)


def _check_probability_labels(seed: int = 0, cases: int = 60) -> str:
    """The channel-major probability pass == the row-sum and row-argmax
    oracle: labels (bytes and dtype), verdict and message, at C up to 133
    and past it. Small integer weights make ties common; every grid has a
    row at the edge of the sum check's band (:func:`margin_edge_row`), and
    some span two blocks. Faults (NaN, inf, a bad sum, rows just inside or
    outside the tolerance, negative, -0.0 and tiny negative entries,
    order-dependent sums) land in one block or both."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        channels = (1, 2, 19, 133, 200)[i % 5]
        dtype = (np.float32, np.float64, np.float16)[i % 3]
        if channels <= 19 and i % 4 == 0:
            height, width = 1, postprocess._PROB_BLOCK + int(rng.integers(1, 64))
        else:
            height, width = (int(n) for n in rng.integers(1, 12, size=2))
        weights = rng.integers(0, 3, size=(height, width, channels)).astype(np.float64)
        weights[..., 0] += weights.sum(axis=2) == 0
        probs = (weights / weights.sum(axis=2, keepdims=True)).astype(dtype)
        flat = probs.reshape(-1, channels)
        # Above or below 1, inside or one ulp outside: each with each C and dtype.
        edge = margin_edge_row(channels, dtype, i % 4 in (0, 2), i % 4 >= 2)
        flat[int(rng.integers(flat.shape[0]))] = edge
        for fault in rng.integers(7, size=int(rng.integers(3))):
            row = flat[int(rng.integers(flat.shape[0]))]
            if fault == 0:
                row[rng.integers(channels)] = np.nan
            elif fault == 1:
                row[rng.integers(channels)] = np.inf
            elif fault == 2:
                row *= dtype(2)
            elif fault == 3:
                row *= dtype(1 + rng.choice([-1.1e-5, -0.9e-5, 0.9e-5, 1.1e-5]))
            elif fault == 4:
                row[0] -= dtype(0.5)
                row[-1] += dtype(0.5)
            elif fault == 5:  # order-dependent sums: big is above 2**53 in float32 and float64
                big = np.float64(np.finfo(dtype).max) ** 0.5
                small, one = (min(c, channels - 1) for c in rng.permutation([1, 8]))
                row[:] = 0
                row[0], row[small], row[one] = big, -big, 1
            else:  # -0.0 entries, and on odd cases a tiny negative one
                zeros = np.flatnonzero(row == 0)
                row[zeros] = -0.0
                if zeros.size and i % 2:
                    row[zeros[0]] = -np.finfo(dtype).smallest_subnormal
        ids = (np.arange(channels) * 3 + 1).astype(np.uint16)
        got = _labels_outcome(postprocess._probability_labels, probs, ids)
        want = _labels_outcome(probability_labels_oracle, probs, ids)
        if got != want:
            what = "labels" if got[0] == want[0] == "ok" else "verdict or message"
            return f"case {i} ({channels} channels, {np.dtype(dtype).name}): {what} differ from the oracle"
    return ""


def _check_segment_table(seed: int = 0, cases: int = 60) -> str:
    """The run-length segment table == the ``np.unique`` oracle, field by
    field with dtypes, on maps whose ids stay below or reach past the
    dense-count bound (65536 on these small maps)."""
    specs = (make_spec(), make_spec(2, 2, ignore_label=4, label_divisor=1 << 14))
    rng = np.random.default_rng(seed)
    for i in range(cases):
        spec = specs[i % 2]
        height, width = (int(n) for n in rng.integers(1, 20, size=2))
        panoptic = random_valid_map(rng, spec, height, width)
        dtype = (np.int64, np.uint32, np.uint16)[i % 3]
        if panoptic.max() > np.iinfo(dtype).max:
            dtype = np.int64
        got = core.segment_table(panoptic.astype(dtype), spec)
        want = segment_table_oracle(panoptic.astype(dtype), spec)
        for name, a, b in zip(want._fields, got, want):
            if not _same_array(a, b):
                return f"case {i} ({np.dtype(dtype).name}): {name} differs from np.unique"
    return ""


def _check_joint_histogram(seed: int = 0, cases: int = 60) -> str:
    """The run-length joint histogram == the per-pixel oracle, field by
    field with dtypes: scenes and per-pixel noise, single rows and columns,
    runs across row ends, u16/u32/int64 maps, negative ids and ids past
    2**40 (the oracle's pixel-row branch)."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(cases):
        height, width = (int(n) for n in rng.integers(1, 24, size=2))
        height, width = ((height, width), (1, width), (height, 1))[i % 3]
        gt = random_valid_map(rng, spec, height, width)
        if i % 4 == 1:  # per-pixel noise over three ids: short runs that wrap rows
            gt = rng.choice(np.unique(gt)[:3], size=gt.shape)
        pred = np.where(rng.random(gt.shape) < 0.2, random_valid_map(rng, spec, height, width), gt)
        dtype = (np.int64, np.uint32, np.uint16)[i // 3 % 3]
        if i % 5 == 4:
            pred, dtype = pred + (-(2**40), 2**40)[i % 2], np.int64
        got = metrics.joint_histogram(pred.astype(dtype), gt.astype(dtype))
        want = joint_histogram_oracle(pred.astype(dtype), gt.astype(dtype))
        for name, a, b in zip(want._fields, got, want):
            if not _same_array(a, b):
                return f"case {i} ({np.dtype(dtype).name}): {name} differs from joint_histogram_oracle"
    return ""


def _check_merge(seed: int = 0, cases: int = 60) -> str:
    """The blocked run-length merge == the per-pixel ``merge_oracle``:
    panoptic bytes and dtype, and the records' repr. Blocks, per-pixel
    noise and flat maps; 1xN, Nx1, 0xN and a 257x300 map (two blocks);
    u8/u16/int64 labels; stuff thresholds 0, 1 and 2048."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(cases):
        height, width = (int(n) for n in rng.integers(1, 40, size=2))
        shapes = ((height, width), (1, 3 * width), (3 * height, 1), (0, width), (257, 300))
        height, width = shapes[i % 5]
        kind = ("blocks", "noise", "flat")[i % 3]
        labels, instance = random_merge_inputs(rng, spec, height, width, kind)
        labels = labels.astype((np.uint8, np.uint16, np.int64)[i // 5 % 3])
        threshold = (0, 1, 2048)[i // 3 % 3]
        got = postprocess.merge_panoptic(labels, instance, spec, threshold)
        want = merge_oracle(labels, instance, spec, threshold)
        where = f"case {i} ({height}x{width} {kind}, threshold {threshold})"
        if not _same_array(got.panoptic, want.panoptic):
            return f"{where}: panoptic differs from merge_oracle"
        if repr(got.instances) != repr(want.instances):
            return f"{where}: records differ from merge_oracle"
    return ""


def _check_inference(seed: int = 0, cases: int = 60) -> str:
    """``panoptic_inference`` == :func:`inference_oracle` on labels and on
    probabilities: panoptic bytes and dtype, and the records' repr, over
    kernels, thresholds, ``top_k``, stuff thresholds (None, 0, a stuff area
    and one more) and every score mode."""
    from unittest import mock  # imports asyncio: not at the CLI's start-up

    rng = np.random.default_rng(seed)
    draw = lambda *options: options[int(rng.integers(len(options)))]  # noqa: E731
    for i in range(cases):
        height, width = (int(n) for n in rng.integers(1, 20, size=2))
        dtype = (np.uint8, np.float32, np.uint16, np.float32, np.int64, np.float64)[i % 6]
        params = postprocess.PostprocParams(
            draw(1, 3, 5, 7), draw(0.0, 0.3, 0.6), draw(1, 3, 200), 0, draw(*postprocess.SCORE_MODES)
        )
        stuff = draw(None, 0, "area", "area + 1")
        case = random_inference_case(rng, height, width, dtype, stuff, params)
        with mock.patch.object(postprocess, "_PEAK_OFFSET_COST", 0):  # sparse maps: the search
            got = postprocess.panoptic_inference(*case)
        want = inference_oracle(*case)
        where = f"case {i} ({height}x{width} {np.dtype(dtype).name}, {case[-1]})"
        if not _same_array(got.panoptic, want.panoptic):
            return f"{where}: panoptic differs from inference_oracle"
        if repr(got.instances) != repr(want.instances):
            return f"{where}: records differ from inference_oracle"
    return ""


def _check_pq_formula() -> str:
    spec = make_spec(num_stuff=1, num_things=1)
    thing = sorted(spec.thing_ids)[0]
    stuff = sorted(spec.stuff_ids)[0]
    gt = np.full((20, 20), stuff * spec.label_divisor, dtype=np.int64)
    pred = gt.copy()
    gt[0:10, 0:20] = thing * spec.label_divisor + 1  # area 200
    pred[0:8, 0:20] = thing * spec.label_divisor + 1  # overlap 160, IoU 0.8
    gt[15:19, 0:10] = thing * spec.label_divisor + 2  # unmatched -> FN
    report = metrics.panoptic_quality(pred, gt, spec)
    expected = 0.8 / 1.5
    row = report.per_category[thing]
    if abs(row.pq - expected) > 1e-9:
        return f"PQ {row.pq} != {expected}"
    if row.tp != 1 or row.fn != 1:
        return f"counts tp={row.tp} fn={row.fn}, expected 1/1"
    return ""


def _check_pq_identity(seed: int = 0, pairs: int = 100) -> str:
    spec = make_spec(num_stuff=3, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(pairs):
        pred = random_valid_map(rng, spec)
        gt = random_valid_map(rng, spec)
        report = metrics.panoptic_quality(pred, gt, spec)  # asserts uniqueness
        for cid, row in report.per_category.items():
            if row.tp > 0 and row.pq != row.sq * row.rq:
                return f"pair {i} category {cid}: pq != sq*rq"
    return ""


def _check_histogram_metrics(seed: int = 0, pairs: int = 100) -> str:
    """Crowd, VOID, wrong categories, tied or absent scores, small max_dets,
    exact IoU-0.5 ties."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(pairs):
        gt, pred = random_valid_map(rng, spec), random_valid_map(rng, spec)
        if i % 2:  # mostly the gt, so that IoUs spread over the thresholds
            pred = np.where(rng.random(gt.shape) < 0.2, pred, gt)
        scores = None if i % 3 == 0 else {k: 0.3 * rng.integers(1, 3) for k in (1, 2, 3)}
        message = histogram_mismatch(pred, gt, spec, scores, max_dets=(1, 2, 200)[i % 3])
        if message:
            return f"pair {i}: {message}"
    # Exact IoU-0.5 ties, which random maps do not make: a thing segment
    # against its two halves, both ways round (a gt with two candidates).
    whole = np.full((6, 8), min(spec.stuff_ids) * spec.label_divisor, dtype=np.int64)
    whole[1:3, 2:6] = min(spec.thing_ids) * spec.label_divisor + 1
    halves = whole.copy()
    halves[2, 2:6] += 1
    for pred, gt in ((halves, whole), (whole, halves)):
        message = histogram_mismatch(pred, gt, spec, {1: 0.5, 2: 0.5})
        if message:
            return f"half tie: {message}"
    return ""


PROPERTIES = (
    ("round_trip", lambda: _first_failure(_check_round_trip, range(5))),
    ("nms_bruteforce", _check_nms),
    ("grouping_bruteforce", _check_grouping),
    ("loss_gradients",
     lambda: _first_failure(lambda seed: _fd_mse(seed) or _fd_l1(seed) or _fd_ce(seed), range(3))),
    ("bootstrapped_ce_oracle", _check_bootstrapped_ce),
    ("class_scores_oracle", _check_class_scores),
    ("probability_labels_oracle", _check_probability_labels),
    ("segment_table_oracle", _check_segment_table),
    ("joint_histogram_oracle", _check_joint_histogram),
    ("merge_oracle", _check_merge),
    ("inference_oracle", _check_inference),
    ("pq_formula", _check_pq_formula),
    ("pq_identity_and_uniqueness", _check_pq_identity),
    ("histogram_metrics", _check_histogram_metrics),
)


def _first_failure(check, seeds) -> str:
    for seed in seeds:
        message = check(seed)
        if message:
            return message
    return ""


def run_selftest() -> list[PropertyResult]:
    """Run every property; a result with ``passed=False`` carries a detail."""
    results = []
    for name, prop in PROPERTIES:
        try:
            detail = prop()
        except Exception as e:  # property raised instead of reporting
            detail = f"{type(e).__name__}: {e}"
        results.append(PropertyResult(name=name, passed=not detail, detail=detail))
    return results
