"""Evaluation: panoptic quality, semantic mIoU, and instance-mask AP.

Multi-image aggregation works on raw tallies: sum the per-image counts
(tp / fp / fn / IoU sums, confusion matrices, pooled detections) first and
derive ratios once at the end. The report dataclasses keep those tallies
around so callers can combine them.

Conventions shared with the rest of the package: VOID pixels carry
ignore_label * label_divisor; a thing-category id with instance part 0 marks
a crowd region, which is excluded from PQ matching like VOID and can absorb
predictions in AP without counting as a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import DatasetSpec

__all__ = [
    "PqCategory",
    "PqAggregate",
    "PqReport",
    "IoUReport",
    "ApReport",
    "match_segments",
    "panoptic_quality",
    "pq_report_from_counts",
    "combine_pq",
    "mean_iou",
    "combine_miou",
    "mask_ap",
    "DEFAULT_AP_THRESHOLDS",
    "JointHistogram",
    "joint_histogram",
    "pq_from_histogram",
    "miou_from_histogram",
    "ap_matches_from_histogram",
]

DEFAULT_AP_THRESHOLDS = tuple(np.arange(0.5, 1.0, 0.05).round(2))


# ---------------------------------------------------------------------------
# Panoptic quality


@dataclass(frozen=True)
class PqCategory:
    tp: int
    fp: int
    fn: int
    iou_sum: float
    pq: float
    sq: float
    rq: float


@dataclass(frozen=True)
class PqAggregate:
    pq: float
    sq: float
    rq: float
    num_categories: int


@dataclass(frozen=True)
class PqReport:
    per_category: dict[int, PqCategory]
    all: PqAggregate
    things: PqAggregate
    stuff: PqAggregate


# A NamedTuple, not a dataclass: it costs less to build at import time.
class JointHistogram(NamedTuple):
    """Pixel counts of every (pred id, gt id) pair that meets in one image.

    Segments are disjoint, so this one table holds every intersection area
    that PQ, mIoU and AP need. ``pred_ids``/``gt_ids`` are each map's
    ascending segment ids, ``pred_areas``/``gt_areas`` their pixel counts.
    Pair ``k``, in ascending (pred id, gt id) order, covers ``counts[k]``
    pixels of ``pred_ids[pred_index[k]]`` and ``gt_ids[gt_index[k]]``.
    """

    pred_ids: np.ndarray
    pred_areas: np.ndarray
    gt_ids: np.ndarray
    gt_areas: np.ndarray
    pred_index: np.ndarray
    gt_index: np.ndarray
    counts: np.ndarray


def joint_histogram(pred: np.ndarray, gt: np.ndarray) -> JointHistogram:
    """The joint histogram of two panoptic maps, from one pass over the pixels."""
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    pred_flat = pred.reshape(-1).astype(np.int64)
    gt_flat = gt.reshape(-1).astype(np.int64)
    scale = int(gt_flat.max()) + 1
    if min(pred_flat.min(), gt_flat.min()) < 0 or pred_flat.max() >= (2**63 - 1) // scale:
        # Ids negative or too large to pack into one int64 code; pair rows instead.
        stacked = np.stack([pred_flat, gt_flat], axis=1)
        pairs, counts = np.unique(stacked, axis=0, return_counts=True)
        inter_pred, inter_gt = pairs[:, 0], pairs[:, 1]
    else:
        pairs, counts = np.unique(pred_flat * scale + gt_flat, return_counts=True)
        inter_pred, inter_gt = pairs // scale, pairs % scale
    pred_ids, pred_index = np.unique(inter_pred, return_inverse=True)
    gt_ids, gt_index = np.unique(inter_gt, return_inverse=True)
    pred_areas = _sums(pred_index, counts, pred_ids.size)
    gt_areas = _sums(gt_index, counts, gt_ids.size)
    return JointHistogram(
        pred_ids, pred_areas, gt_ids, gt_areas, pred_index, gt_index, counts
    )


def _sums(index: np.ndarray, weights, size: int) -> np.ndarray:
    # float64 sums of pixel counts (all below 2**53) are exact.
    return np.bincount(index, weights=weights, minlength=size).astype(np.int64)


def _segment_classes(ids: np.ndarray, spec: DatasetSpec):
    """Category, instance part and thing flag of segment ids, and the
    crowd/VOID exclusion mask. Categories unknown to the spec are no things."""
    categories, instances = np.divmod(ids, spec.label_divisor)
    is_thing = np.isin(categories, list(spec.thing_ids))
    excluded = (categories == spec.ignore_label) | (is_thing & (instances == 0))
    return categories, instances, is_thing, excluded


def _pq_matches(hist: JointHistogram, spec: DatasetSpec):
    """Matched (pred index, gt index, IoU) arrays in pair order, plus the
    (categories, dropped) pred table and (categories, excluded) gt table."""
    pred_cats, _, _, pred_excl = _segment_classes(hist.pred_ids, spec)
    gt_cats, _, _, gt_excl = _segment_classes(hist.gt_ids, spec)
    for cats in (pred_cats, gt_cats):
        if cats.size and (cats.max() > spec.max_known_label or cats.min() < 0):
            raise ValueError("panoptic map contains ids unknown to the dataset spec")
    p, g, area = hist.pred_index, hist.gt_index, hist.counts
    # Per-pred overlap with the excluded (VOID + crowd) part of the gt.
    over_excl = gt_excl[g]
    void_overlap = _sums(p[over_excl], area[over_excl], hist.pred_ids.size)
    # Predictions mostly over excluded gt leave the evaluation entirely.
    pred_dropped = (2 * void_overlap > hist.pred_areas) | pred_excl

    k = np.flatnonzero(~over_excl & ~pred_dropped[p] & (pred_cats[p] == gt_cats[g]))
    p, g = p[k], g[k]
    union = hist.pred_areas[p] + hist.gt_areas[g] - area[k] - void_overlap[p]
    iou = area[k] / union
    hit = iou > 0.5
    p, g, iou = p[hit], g[hit], iou[hit]
    if np.unique(p).size != p.size or np.unique(g).size != g.size:
        message = "IoU > 0.5 matching produced a duplicate segment; implementation bug"
        raise RuntimeError(message)
    return (p, g, iou), (pred_cats, pred_dropped), (gt_cats, gt_excl)


def match_segments(
    pred: np.ndarray, gt: np.ndarray, spec: DatasetSpec
) -> list[tuple[int, int, float]]:
    """All same-category (pred id, gt id, IoU) pairs with IoU > 0.5.

    The > 0.5 rule makes the pairing unique; uniqueness is checked on
    every call.
    """
    hist = joint_histogram(pred, gt)
    (p, g, iou), _, _ = _pq_matches(hist, spec)
    return list(zip(hist.pred_ids[p].tolist(), hist.gt_ids[g].tolist(), iou.tolist()))


def panoptic_quality(
    pred: np.ndarray, gt: np.ndarray, spec: DatasetSpec
) -> PqReport:
    """PQ / SQ / RQ per category with overall, things, and stuff means.

    Segments match iff same category and IoU > 0.5, computed with gt VOID
    and crowd pixels excluded; predictions with more than half their area
    over excluded gt are neither matched nor false positives.
    """
    return pq_from_histogram(joint_histogram(pred, gt), spec)


def pq_from_histogram(hist: JointHistogram, spec: DatasetSpec) -> PqReport:
    """:func:`panoptic_quality` from the joint histogram of one image."""
    (p, g, iou), (pred_cats, pred_dropped), (gt_cats, gt_excl) = _pq_matches(hist, spec)
    unmatched_pred, unmatched_gt = ~pred_dropped, ~gt_excl
    unmatched_pred[p] = unmatched_gt[g] = False
    n = spec.max_known_label + 1
    tp = np.bincount(pred_cats[p], minlength=n)
    fp = np.bincount(pred_cats[unmatched_pred], minlength=n)
    fn = np.bincount(gt_cats[unmatched_gt], minlength=n)
    # bincount adds the IoUs one by one in pair order, like a running sum.
    iou_sum = np.bincount(pred_cats[p], weights=iou, minlength=n)
    categories = np.flatnonzero(tp + fp + fn).tolist()
    counts = {c: (int(tp[c]), int(fp[c]), int(fn[c]), float(iou_sum[c])) for c in categories}
    return pq_report_from_counts(counts, spec)


def pq_report_from_counts(
    counts: dict[int, tuple[int, int, int, float]], spec: DatasetSpec
) -> PqReport:
    """Derive a report from per-category (tp, fp, fn, iou_sum) tallies."""
    per_category = {}
    for category, (tp, fp, fn, iou_sum) in sorted(counts.items()):
        if tp + fp + fn == 0:
            continue
        denom = tp + 0.5 * fp + 0.5 * fn
        sq = iou_sum / tp if tp > 0 else 0.0
        rq = tp / denom
        pq = sq * rq  # exact sq * rq identity by construction
        per_category[category] = PqCategory(
            tp=tp, fp=fp, fn=fn, iou_sum=iou_sum, pq=pq, sq=sq, rq=rq
        )

    def aggregate(ids: Iterable[int]) -> PqAggregate:
        rows = [per_category[c] for c in ids if c in per_category]
        if not rows:
            return PqAggregate(pq=0.0, sq=0.0, rq=0.0, num_categories=0)
        n = len(rows)
        return PqAggregate(
            pq=sum(r.pq for r in rows) / n,
            sq=sum(r.sq for r in rows) / n,
            rq=sum(r.rq for r in rows) / n,
            num_categories=n,
        )

    return PqReport(
        per_category=per_category,
        all=aggregate(per_category.keys()),
        things=aggregate(sorted(spec.thing_ids)),
        stuff=aggregate(sorted(spec.stuff_ids)),
    )


def combine_pq(reports: Sequence[PqReport], spec: DatasetSpec) -> PqReport:
    """Aggregate per-image reports by summing tallies, then re-deriving."""
    counts: dict[int, list] = {}
    for report in reports:
        for category, row in report.per_category.items():
            b = counts.setdefault(category, [0, 0, 0, 0.0])
            b[0] += row.tp
            b[1] += row.fp
            b[2] += row.fn
            b[3] += row.iou_sum
    return pq_report_from_counts(
        {c: (v[0], v[1], v[2], v[3]) for c, v in counts.items()}, spec
    )


# ---------------------------------------------------------------------------
# Mean IoU


@dataclass(frozen=True)
class IoUReport:
    per_category: dict[int, float]
    mean: float
    confusion: np.ndarray = field(repr=False, compare=False, default=None)


def _confusion(
    gt: np.ndarray, pred: np.ndarray, spec: DatasetSpec, weights=None
) -> np.ndarray:
    """(num, num + 1) gt-by-pred category counts, without gt ignore pixels;
    the sink column ``num`` absorbs pred pixels carrying the ignore label."""
    if gt.min() < 0 or gt.max() > spec.max_known_label:
        raise ValueError("gt map contains ids unknown to the dataset spec")
    if pred.min() < 0 or pred.max() > spec.max_known_label:
        raise ValueError("pred map contains ids unknown to the dataset spec")
    num = spec.num_categories
    channel_lut = np.full(spec.max_known_label + 1, num, dtype=np.int64)
    channel_lut[np.asarray(spec.category_ids, dtype=np.int64)] = np.arange(num)
    valid = gt != spec.ignore_label
    code = channel_lut[gt[valid]] * (num + 1) + channel_lut[pred[valid]]
    weights = None if weights is None else weights[valid]
    return _sums(code, weights, num * (num + 1)).reshape(num, num + 1)


def mean_iou(
    pred: np.ndarray,
    gt: np.ndarray,
    spec: DatasetSpec,
    average_over: str = "present",
) -> IoUReport:
    """Confusion-matrix IoU per category over semantic label maps.

    Pixels whose gt is the ignore label are excluded. The mean runs over
    categories present in the gt by default, or over every spec category
    with ``average_over="all"``.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if average_over not in ("present", "all"):
        raise ValueError(f"average_over must be 'present' or 'all', got {average_over!r}")
    confusion = _confusion(*(m.reshape(-1).astype(np.int64) for m in (gt, pred)), spec)
    return _iou_report_from_confusion(confusion, spec, average_over)


def miou_from_histogram(hist: JointHistogram, spec: DatasetSpec) -> IoUReport:
    """:func:`mean_iou` of the category parts of a panoptic pair, from its
    joint histogram."""
    gt = hist.gt_ids[hist.gt_index] // spec.label_divisor
    pred = hist.pred_ids[hist.pred_index] // spec.label_divisor
    return _iou_report_from_confusion(_confusion(gt, pred, spec, hist.counts), spec)


def _iou_report_from_confusion(
    confusion: np.ndarray, spec: DatasetSpec, average_over: str = "present"
) -> IoUReport:
    num = spec.num_categories
    diag = np.diag(confusion[:, :num]).astype(np.float64)
    gt_area = confusion.sum(axis=1).astype(np.float64)
    pred_area = confusion[:, :num].sum(axis=0).astype(np.float64)
    union = gt_area + pred_area - diag
    per_category = {}
    present = []
    for i, cid in enumerate(spec.category_ids):
        if union[i] > 0:
            per_category[cid] = float(diag[i] / union[i])
        if gt_area[i] > 0:
            present.append(cid)
    if average_over == "present":
        mean = (
            sum(per_category[c] for c in present) / len(present) if present else 0.0
        )
    else:
        mean = sum(per_category.get(c.id, 0.0) for c in spec.categories) / num
    return IoUReport(per_category=per_category, mean=float(mean), confusion=confusion)


def combine_miou(
    reports: Sequence[IoUReport], spec: DatasetSpec, average_over: str = "present"
) -> IoUReport:
    """Aggregate by summing confusion matrices, then re-deriving IoU."""
    total = np.zeros_like(reports[0].confusion)
    for r in reports:
        total = total + r.confusion
    return _iou_report_from_confusion(total, spec, average_over)


# ---------------------------------------------------------------------------
# Instance-mask average precision


@dataclass(frozen=True)
class ApReport:
    thresholds: tuple[float, ...]
    mean_ap: float
    per_threshold: dict[float, float]
    per_category: dict[int, float]


def _greedy_matches(
    dt_cats, dt_scores, dt_area, gt_cats, gt_crowd, gt_area, inter_of, thresholds, max_dets
) -> dict[int, dict]:
    """Greedy per-category matching of one image's detections.

    ``inter_of(i, j)`` is the pixel overlap of detection i and gt j; areas
    are integer arrays. Per category, detections rank by descending score
    and only the first ``max_dets`` count; regular gts go before crowds;
    ties keep input order. At each threshold a detection takes the free
    regular gt of highest IoU >= the threshold (the first on ties); failing
    that, a crowd gt with IoU >= the threshold absorbs it as ignored.
    """
    out: dict[int, dict] = {}
    for category in sorted(set(dt_cats) | set(gt_cats)):
        dts = [i for i, c in enumerate(dt_cats) if c == category]
        dts = sorted(dts, key=lambda i: -dt_scores[i])[:max_dets]
        gts = [j for j, c in enumerate(gt_cats) if c == category]
        gts = sorted(gts, key=lambda j: gt_crowd[j])
        inter = np.array([[inter_of(i, j) for j in gts] for i in dts], dtype=np.int64)
        inter = inter.reshape(len(dts), len(gts))
        crowd, area = gt_crowd[gts], dt_area[dts][:, None]
        # Crowd regions score against the detection area alone.
        union = np.where(crowd, area, area + gt_area[gts] - inter)
        ious = np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)
        # All thresholds at once: row t of ``free`` is the gt state at threshold t.
        thresh = np.asarray(thresholds, dtype=np.float64)[:, None]
        free = np.repeat(~crowd[None, :], thresh.shape[0], axis=0)
        tp = np.zeros((thresh.shape[0], len(dts)), dtype=bool)
        ignored = np.zeros_like(tp)
        for di in range(len(dts) if gts else 0):  # argmax needs at least one gt
            hits = ious[di] >= thresh
            candidate = hits & free
            tp[:, di] = candidate.any(axis=1)
            best = np.where(candidate, ious[di], -1.0).argmax(axis=1)
            free[tp[:, di], best[tp[:, di]]] = False
            ignored[:, di] = ~tp[:, di] & (hits & crowd).any(axis=1)
        scores = np.array([dt_scores[i] for i in dts], dtype=np.float64)
        n_positive = int(np.count_nonzero(~crowd))
        out[category] = {
            "scores": scores, "tp": tp, "ignored": ignored, "n_positive": n_positive
        }
    return out


def match_detections(
    preds: Sequence[tuple[np.ndarray, int, float]],
    gts: Sequence[tuple[np.ndarray, int, bool]],
    thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
    max_dets: int = 200,
) -> dict[int, dict]:
    """Greedy per-category matching for one image, on arbitrary masks.

    Returns, per category: detection scores in rank order, per-threshold tp
    flags and ignore flags (crowd absorptions), and the non-crowd gt count.
    The output is poolable across images before computing AP.
    """
    dt_area = np.array([int(m.sum()) for m, _, _ in preds], dtype=np.int64)
    gt_area = np.array([int(m.sum()) for m, _, _ in gts], dtype=np.int64)
    crowd = np.array([bool(c) for _, _, c in gts], dtype=bool)
    return _greedy_matches(
        [int(c) for _, c, _ in preds], [float(s) for _, _, s in preds], dt_area,
        [int(c) for _, c, _ in gts], crowd, gt_area,
        lambda i, j: int((preds[i][0] & gts[j][0]).sum()), thresholds, max_dets,
    )


def ap_matches_from_histogram(
    hist: JointHistogram,
    spec: DatasetSpec,
    scores: Mapping[int, float] | None = None,
    max_dets: int = 200,
) -> dict[int, dict]:
    """:func:`match_detections` on the thing segments of a panoptic pair.

    Detections are the pred thing segments with instance part >= 1, in
    ascending id order; gts are the gt thing segments, instance part 0
    marking crowd. ``scores`` maps instance index to confidence and must
    hold every detection (``KeyError`` otherwise); without it every
    detection scores 1.0.
    """
    pred_cats, pred_inst, pred_thing, _ = _segment_classes(hist.pred_ids, spec)
    gt_cats, gt_inst, gt_thing, _ = _segment_classes(hist.gt_ids, spec)
    dt, gt = np.flatnonzero(pred_thing & (pred_inst >= 1)), np.flatnonzero(gt_thing)
    dt_scores = [1.0 if scores is None else float(scores[i]) for i in pred_inst[dt].tolist()]
    pairs = zip(hist.pred_index.tolist(), hist.gt_index.tolist())
    overlap = dict(zip(pairs, hist.counts.tolist()))
    dt_list, gt_list = dt.tolist(), gt.tolist()
    return _greedy_matches(
        pred_cats[dt].tolist(), dt_scores, hist.pred_areas[dt],
        gt_cats[gt].tolist(), gt_inst[gt] == 0, hist.gt_areas[gt],
        lambda i, j: overlap.get((dt_list[i], gt_list[j]), 0),
        DEFAULT_AP_THRESHOLDS, max_dets,
    )


def _average_precision(scores, tp, ignored, n_positive) -> float:
    """101-point interpolated AP for one category at one threshold."""
    if n_positive == 0:
        return -1.0
    keep = ~ignored
    scores = scores[keep]
    tp = tp[keep]
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp = tp[order]
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    recall = tp_cum / n_positive
    precision = tp_cum / (tp_cum + fp_cum)
    # Precision envelope: best precision at any recall >= r.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    recall_points = np.linspace(0.0, 1.0, 101)
    indices = np.searchsorted(recall, recall_points, side="left")
    sampled = np.zeros(101)
    valid = indices < precision.size
    sampled[valid] = precision[indices[valid]]
    return float(sampled.mean())


def ap_report_from_matches(
    matches: Sequence[dict[int, dict]],
    thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
) -> ApReport:
    """Pool per-image match tables and derive the AP report."""
    pooled: dict[int, dict] = {}
    for table in matches:
        for category, row in table.items():
            slot = pooled.setdefault(
                category,
                {"scores": [], "tp": [], "ignored": [], "n_positive": 0},
            )
            slot["scores"].append(row["scores"])
            slot["tp"].append(row["tp"])
            slot["ignored"].append(row["ignored"])
            slot["n_positive"] += row["n_positive"]

    n_thr = len(thresholds)
    per_category: dict[int, float] = {}
    per_threshold_lists: dict[float, list[float]] = {float(t): [] for t in thresholds}
    for category, slot in sorted(pooled.items()):
        scores = np.concatenate(slot["scores"]) if slot["scores"] else np.zeros(0)
        tp = (
            np.concatenate(slot["tp"], axis=1)
            if slot["tp"]
            else np.zeros((n_thr, 0), dtype=bool)
        )
        ignored = (
            np.concatenate(slot["ignored"], axis=1)
            if slot["ignored"]
            else np.zeros((n_thr, 0), dtype=bool)
        )
        aps = [
            _average_precision(scores, tp[ti], ignored[ti], slot["n_positive"])
            for ti in range(n_thr)
        ]
        defined = [a for a in aps if a >= 0]
        if defined:
            per_category[category] = float(np.mean(defined))
            for ti, t in enumerate(thresholds):
                if aps[ti] >= 0:
                    per_threshold_lists[float(t)].append(aps[ti])

    per_threshold = {
        t: (float(np.mean(v)) if v else 0.0) for t, v in per_threshold_lists.items()
    }
    mean_ap = (
        float(np.mean(list(per_category.values()))) if per_category else 0.0
    )
    return ApReport(
        thresholds=tuple(float(t) for t in thresholds),
        mean_ap=mean_ap,
        per_threshold=per_threshold,
        per_category=per_category,
    )


def mask_ap(
    preds: Sequence[tuple[np.ndarray, int, float]],
    gts: Sequence[tuple[np.ndarray, int, bool]],
    thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
    max_dets: int = 200,
) -> ApReport:
    """Instance-mask average precision for one image.

    ``preds`` are (mask, category, score) with ties in score resolved by
    insertion order; ``gts`` are (mask, category, crowd_flag). AP uses
    greedy highest-IoU matching at each threshold and 101-point interpolated
    precision-recall area, averaged over thresholds and categories.
    """
    for mask, _, score in preds:
        if not np.isfinite(score):
            raise ValueError("prediction scores must be finite")
    return ap_report_from_matches(
        [match_detections(preds, gts, thresholds, max_dets)], thresholds
    )
