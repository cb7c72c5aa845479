"""Self-contained property suite behind the ``selftest`` subcommand.

The oracles here are deliberately naive re-statements of each operation's
definition (per-pixel scans, finite differences, sort-and-average) so they
stay independent of the optimized implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, metrics, postprocess, targets
from .core import DatasetSpec, Dims, InstanceCenter
from .synth import Scene, make_spec, random_scene

__all__ = [
    "PropertyResult",
    "run_selftest",
    "nms_oracle",
    "group_oracle",
    "bootstrapped_ce_oracle",
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


def topk_ce_oracle(per_pixel_losses: np.ndarray, fraction: float) -> float:
    """Sort-and-average restatement of the bootstrapped reduction."""
    k = max(1, int(np.ceil(fraction * per_pixel_losses.size)))
    ordered = np.sort(per_pixel_losses)[::-1]
    return float(ordered[:k].mean(dtype=np.float64))


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


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two label maps are identical up to a relabeling bijection."""
    pairs = np.unique(np.stack([a.reshape(-1), b.reshape(-1)], axis=1), axis=0)
    return len(pairs) == np.unique(a).size == np.unique(b).size


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
    rng = np.random.default_rng(seed)
    for i in range(cases):
        heatmap = rng.random((16, 16)).astype(np.float32)
        for kernel in (1, 3, 5, 7):
            got = postprocess.keypoint_nms(heatmap, kernel)
            want = nms_oracle(heatmap, kernel)
            if not np.array_equal(got, want):
                return f"case {i} kernel {kernel}: mismatch with window-max scan"
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
    integer logits and weights make exact ties at the K-th loss common."""
    rng = np.random.default_rng(seed)
    ignore = 99
    for i in range(cases):
        height, width = rng.integers(1, 24, size=2)
        num_classes = int(rng.integers(1, 8))
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
