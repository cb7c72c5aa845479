"""Self-contained property suite behind the ``selftest`` subcommand.

The oracles here are deliberately naive re-statements of each operation's
definition (per-pixel scans, finite differences, sort-and-average) so they
stay independent of the optimized implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "random_scored_result",
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
    """The class scores of ``postprocess.score_instances`` as first written:
    whole-image instance and category maps, a member mask and a float64
    per-pixel weight map, summed with one bincount over the member pixels."""
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


def probability_labels_oracle(
    probs: np.ndarray, ids: np.ndarray | None = None
) -> np.ndarray | None:
    """``postprocess._probability_labels`` as first written: numpy's float64
    row sum and row argmax, block by block (``postprocess._PROB_BLOCK``
    pixels), so a grid with faults in two blocks fails on the first one."""
    flat = probs.reshape(-1, probs.shape[2])
    labels = None if ids is None else np.empty(flat.shape[0], dtype=ids.dtype)
    for start in range(0, flat.shape[0], postprocess._PROB_BLOCK):
        block = flat[start : start + postprocess._PROB_BLOCK]
        sums = block.sum(axis=1, dtype=np.float64)
        if not np.all(np.abs(sums - 1.0) <= 1e-5):
            if not np.isfinite(block).all():
                raise ValueError("semantic probabilities contain non-finite values")
            raise ValueError("semantic probabilities must sum to 1 per pixel")
        if labels is not None:
            labels[start : start + block.shape[0]] = ids[block.argmax(axis=1)]
    return None if labels is None else labels.reshape(probs.shape[:2])


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


def random_scored_result(
    rng: np.random.Generator, spec: DatasetSpec, height: int = 16, width: int = 16
) -> tuple[postprocess.PanopticResult, np.ndarray, np.ndarray]:
    """A panoptic result to score, with labels and a probability grid for it.

    The map is :func:`random_valid_map`; the records cover its thing
    instances, some with another thing category (no member pixels), plus
    indices with no pixels at all, which may reach past ``label_divisor``. Labels disagree with the map on ~30% of
    pixels, and probabilities are float32 rows normalised to sum to 1.
    """
    panoptic = random_valid_map(rng, spec, height, width)
    div = spec.label_divisor
    things = sorted(spec.thing_ids)
    records = {}
    for pid in np.unique(panoptic).tolist():
        category, index = divmod(pid, div)
        if category in spec.thing_ids and index:
            if rng.random() < 0.2:
                category = things[int(rng.integers(len(things)))]
            records[index] = category
    for index in rng.integers(1, min(div, 1000) + 10, size=2).tolist():
        records.setdefault(index, things[int(rng.integers(len(things)))])
    instances = tuple(
        postprocess.InstanceRecord(instance_index=k, category=c, area=0)
        for k, c in records.items()
    )
    ids = np.asarray(spec.category_ids)
    labels = np.where(
        rng.random(panoptic.shape) < 0.3,
        ids[rng.integers(ids.size, size=panoptic.shape)],
        panoptic // div,
    )
    # Magnitudes spread over ~2**-60..1, so float64 sums of them round and
    # their value depends on the summation order.
    probs = np.exp2(-60 * rng.random(panoptic.shape + (ids.size,))).astype(np.float32)
    probs /= probs.sum(axis=2, keepdims=True)
    return postprocess.PanopticResult(panoptic, instances), labels, probs


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


def histogram_mismatch(pred, gt, spec, scores=None, max_dets=200) -> str:
    """Which joint-histogram result differs from its dense reference: the
    mIoU report and confusion from ``mean_iou`` on the category maps, the AP
    match tables (hence AP reports) from ``match_detections`` on
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
    want = metrics.match_detections(dts, gts, max_dets=max_dets)
    if got.keys() != want.keys():
        return "AP categories differ from match_detections on full-resolution masks"
    for category, row in got.items():
        if row["n_positive"] != want[category]["n_positive"] or not all(
            _same_array(row[k], want[category][k]) for k in ("scores", "tp", "ignored")
        ):
            return f"AP match table of category {category} differs from match_detections"
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
    search == extract_centers over it (quantised values make plateaus)."""
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
            peaks = postprocess._peak_centers(heatmap, kernel, threshold, top_k)
            if peaks != postprocess.extract_centers(want, threshold, top_k):
                return f"case {i} kernel {kernel}: peaks differ from extract_centers"
    return ""


def _check_grouping(seed: int = 0, cases: int = 200) -> str:
    rng = np.random.default_rng(seed)
    for i in range(cases):
        height, width = 16, 16
        mask = rng.random((height, width)) < 0.6
        offsets = rng.normal(0, 4, size=(height, width, 2)).astype(np.float32)
        n = int(rng.integers(0, 6))
        centers = [
            InstanceCenter(
                row=float(rng.uniform(0, height)), col=float(rng.uniform(0, width))
            )
            for _ in range(n)
        ]
        got = postprocess.group_pixels(centers, offsets, mask)
        want = group_oracle(centers, offsets, mask)
        if not np.array_equal(got, want):
            return f"case {i}: mismatch with per-pixel argmin loop"
    return ""


def _fd_mse(seed: int, step: float = 1e-4, tol: float = 1e-4) -> str:
    rng = np.random.default_rng(seed)
    pred = rng.random((8, 8))
    target = rng.random((8, 8))
    grad = losses.mse_heatmap_loss(pred, target).gradient
    for idx in np.ndindex(pred.shape):
        plus, minus = pred.copy(), pred.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (
            losses.mse_heatmap_loss(plus, target, with_gradient=False).value
            - losses.mse_heatmap_loss(minus, target, with_gradient=False).value
        ) / (2 * step)
        if relative_error(grad[idx], fd) > tol:
            return f"mse grad at {idx}: analytic {grad[idx]} vs fd {fd}"
    return ""


def _fd_l1(seed: int, step: float = 1e-4, tol: float = 1e-4) -> str:
    rng = np.random.default_rng(seed)
    pred = rng.normal(0, 2, size=(8, 8, 2))
    target = rng.normal(0, 2, size=(8, 8, 2))
    mask = rng.random((8, 8)) < 0.7
    grad = losses.l1_offset_loss(pred, target, mask).gradient
    for idx in np.ndindex(pred.shape):
        if abs(pred[idx] - target[idx]) < max(1e-6, 2 * step):
            continue  # sign boundary: not differentiable
        plus, minus = pred.copy(), pred.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (
            losses.l1_offset_loss(plus, target, mask, with_gradient=False).value
            - losses.l1_offset_loss(minus, target, mask, with_gradient=False).value
        ) / (2 * step)
        if relative_error(grad[idx], fd) > tol:
            return f"l1 grad at {idx}: analytic {grad[idx]} vs fd {fd}"
    return ""


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

    grad = losses.weighted_bootstrapped_ce(
        logits, labels, weights, ignore, fraction
    ).gradient

    pixel = _ce_pixel_losses(logits, labels, weights, ignore)
    valid = pixel[pixel > -np.inf]
    k = max(1, int(np.ceil(fraction * valid.size)))
    ordered = np.sort(valid)[::-1]
    boundary_in = ordered[k - 1]
    boundary_out = ordered[k] if k < valid.size else -np.inf

    flat_pixel = pixel.reshape(8, 8)
    for r, c in np.ndindex(8, 8):
        if labels[r, c] == ignore:
            continue
        # Skip pixels whose selection status could flip under the probe.
        margin = 10 * weights[r, c] * step
        if (
            abs(flat_pixel[r, c] - boundary_in) < margin
            or abs(flat_pixel[r, c] - boundary_out) < margin
        ):
            continue
        for ch in range(num_classes):
            plus, minus = logits.copy(), logits.copy()
            plus[r, c, ch] += step
            minus[r, c, ch] -= step
            fd = (
                losses.weighted_bootstrapped_ce(
                    plus, labels, weights, ignore, fraction, with_gradient=False
                ).value
                - losses.weighted_bootstrapped_ce(
                    minus, labels, weights, ignore, fraction, with_gradient=False
                ).value
            ) / (2 * step)
            if relative_error(grad[r, c, ch], fd) > tol:
                return (
                    f"ce grad at {(r, c, ch)}: analytic {grad[r, c, ch]} vs fd {fd}"
                )
    return ""


def _check_gradients(seeds=(0, 1, 2)) -> str:
    for seed in seeds:
        for check in (_fd_mse, _fd_l1, _fd_ce):
            message = check(seed)
            if message:
                return message
    return ""


def _check_bootstrapped_ce(seed: int = 0, cases: int = 60) -> str:
    """Blocked top-K CE == the full-sort oracle, value and gradient bytes;
    integer logits and weights make exact ties at the K-th loss common. The
    last 4 grids span more than 3 blocks, so the block threads run too."""
    rng = np.random.default_rng(seed)
    ignore = 99
    for i in range(cases):
        height, width = rng.integers(1, 24, size=2)
        num_classes = int(rng.integers(1, 8))
        if i >= cases - 4:
            height, width, num_classes = 70, 200, int(rng.integers(2, 20))
        logits = rng.integers(-2, 3, size=(height, width, num_classes)).astype(
            (np.float32, np.float64)[i % 2]
        )
        if i % 3 == 0:
            logits += rng.normal(0, 2, size=logits.shape).astype(logits.dtype)
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
    """Member-only class scores == the whole-image oracle, bit for bit."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    for i in range(cases):
        result, labels, probs = random_scored_result(rng, spec)
        for name, semantic in (("labels", labels), ("probabilities", probs)):
            got = postprocess._class_scores(result, semantic, spec)
            want = class_scores_oracle(result, semantic, spec)
            if repr(got) != repr(want):
                return f"case {i}: class scores on {name} differ from the oracle"
    return ""


def _labels_outcome(function, probs: np.ndarray, ids: np.ndarray | None):
    """Labels as (bytes, dtype, shape), None without ids, or the message."""
    try:
        labels = function(probs, ids)
    except ValueError as e:
        return "error", str(e)
    return "ok", None if labels is None else (labels.tobytes(), labels.dtype, labels.shape)


def _check_probability_labels(seed: int = 0, cases: int = 60) -> str:
    """The channel-major probability pass == the row-sum and row-argmax
    oracle: labels (bytes and dtype), verdict and message. Small integer
    weights make ties common; some grids span two blocks, and faults (NaN,
    inf, a bad sum, rows just inside or outside the tolerance, negative
    entries, order-dependent sums) land in one block or both."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        channels = (1, 2, 19, 200)[i % 4]
        dtype = (np.float32, np.float64, np.float16)[i % 3]
        if i % 4 != 3 and i % 5 == 0:
            height, width = 1, postprocess._PROB_BLOCK + int(rng.integers(1, 64))
        else:
            height, width = (int(n) for n in rng.integers(1, 12, size=2))
        weights = rng.integers(0, 3, size=(height, width, channels)).astype(np.float64)
        weights[..., 0] += weights.sum(axis=2) == 0
        probs = (weights / weights.sum(axis=2, keepdims=True)).astype(dtype)
        flat = probs.reshape(-1, channels)
        for _ in range(i % 3):
            row = flat[int(rng.integers(flat.shape[0]))]
            fault = i // 3 % 6
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
            else:  # order-dependent sums: big is above 2**53 in float32 and float64
                big = np.float64(np.finfo(dtype).max) ** 0.5
                small, one = (min(c, channels - 1) for c in rng.permutation([1, 8]))
                row[:] = 0
                row[0], row[small], row[one] = big, -big, 1
        ids = (np.arange(channels) * 3 + 1).astype(np.uint16)
        for with_ids in (ids, None):
            got = _labels_outcome(postprocess._probability_labels, probs, with_ids)
            want = _labels_outcome(probability_labels_oracle, probs, with_ids)
            if got != want:
                what = "labels" if got[0] == want[0] == "ok" else "verdict or message"
                return f"case {i} ({channels} channels, {np.dtype(dtype).name}): {what} differ from the oracle"
    return ""


def _check_segment_table(seed: int = 0, cases: int = 60) -> str:
    """The dense-count segment table == the ``np.unique`` oracle, field by
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
    """Crowd, VOID, wrong categories, tied or absent scores, small max_dets."""
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
    return ""


def _check_score_modes(seed: int = 0, scenes: int = 5) -> str:
    for i in range(scenes):
        scene = random_scene(seed * 1000 + i, max_size=128)
        semantic, heatmap, offsets = exact_inputs(scene)
        outputs = {}
        for mode in postprocess.SCORE_MODES:
            params = postprocess.PostprocParams(score_mode=mode)
            outputs[mode] = postprocess.panoptic_inference(
                semantic, heatmap, offsets, scene.spec, params
            )
        reference = outputs["product"].panoptic
        for mode, result in outputs.items():
            if result.panoptic.tobytes() != reference.tobytes():
                return f"scene {i}: panoptic map differs under score mode {mode}"
        pqs = {
            mode: metrics.panoptic_quality(r.panoptic, scene.panoptic, scene.spec).all.pq
            for mode, r in outputs.items()
        }
        if len(set(pqs.values())) != 1:
            return f"scene {i}: PQ varies across score modes: {pqs}"
    return ""


PROPERTIES = (
    ("round_trip", lambda: _first_failure(_check_round_trip, range(5))),
    ("nms_bruteforce", _check_nms),
    ("grouping_bruteforce", _check_grouping),
    ("loss_gradients", _check_gradients),
    ("bootstrapped_ce_oracle", _check_bootstrapped_ce),
    ("class_scores_oracle", _check_class_scores),
    ("probability_labels_oracle", _check_probability_labels),
    ("segment_table_oracle", _check_segment_table),
    ("pq_formula", _check_pq_formula),
    ("pq_identity_and_uniqueness", _check_pq_identity),
    ("score_mode_invariance", _check_score_modes),
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
