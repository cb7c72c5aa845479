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

from .core import DatasetSpec, _runs, _sums, _unique_index, classify_segments

__all__ = [
    "PqCategory",
    "PqAggregate",
    "PqReport",
    "IoUReport",
    "ApReport",
    "panoptic_quality",
    "pq_report_from_counts",
    "combine_pq",
    "mean_iou",
    "combine_miou",
    "DEFAULT_AP_THRESHOLDS",
    "JointHistogram",
    "joint_histogram",
    "pq_from_histogram",
    "miou_from_histogram",
    "ap_matches_from_histogram",
    "ap_report_from_matches",
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


def _check_map(grid: np.ndarray, name: str, kind: str = "panoptic") -> None:
    """Raise ValueError naming ``name`` unless ``grid`` is a 2-D integer map."""
    if grid.ndim != 2 or not np.issubdtype(grid.dtype, np.integer):
        raise ValueError(f"{name} must be a 2-D integer {kind} map, got {grid.dtype} "
                         f"of shape {grid.shape}")


def joint_histogram(pred: np.ndarray, gt: np.ndarray) -> JointHistogram:
    """The joint histogram of two panoptic maps, from one pass over the
    pixels: each run of equal (pred id, gt id) pairs is counted once."""
    _check_map(pred, "pred map")
    _check_map(gt, "gt map")
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if pred.size == 0:
        raise ValueError(f"cannot histogram empty maps of shape {pred.shape}")
    pred_flat, gt_flat = pred.reshape(-1), gt.reshape(-1)
    starts, lengths = _runs(pred_flat, gt_flat)
    size = pred_flat.size
    pred_ids, pred_run = _unique_index(pred_flat[starts].astype(np.int64), size)
    gt_ids, gt_run = _unique_index(gt_flat[starts].astype(np.int64), size)
    # Pair codes ascend in (pred id, gt id) order.
    pairs, pair_run = _unique_index(pred_run * gt_ids.size + gt_run, size)
    counts = _sums(pair_run, lengths, pairs.size)
    pred_index, gt_index = np.divmod(pairs, gt_ids.size)
    pred_areas = _sums(pred_index, counts, pred_ids.size)
    gt_areas = _sums(gt_index, counts, gt_ids.size)
    return JointHistogram(
        pred_ids, pred_areas, gt_ids, gt_areas, pred_index, gt_index, counts
    )


def _pq_matches(hist: JointHistogram, spec: DatasetSpec):
    """Matched (pred index, gt index, IoU) arrays in pair order, plus the
    (categories, dropped) pred table and (categories, excluded) gt table."""
    pred_cats, _, _, pred_crowd, pred_void = classify_segments(hist.pred_ids, spec, "pred map")
    gt_cats, _, _, gt_crowd, gt_void = classify_segments(hist.gt_ids, spec, "gt map")
    pred_excl, gt_excl = pred_crowd | pred_void, gt_crowd | gt_void
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
    spec.check_known(gt, "gt map")
    spec.check_known(pred, "pred map")
    num, channel = spec.num_categories, spec.table.channel
    valid = gt != spec.ignore_label
    code = channel[gt[valid]] * (num + 1) + channel[pred[valid]]
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
    with ``average_over="all"``. Maps that are not 2-D integer arrays raise
    ValueError.
    """
    _check_map(pred, "pred map", "semantic")
    _check_map(gt, "gt map", "semantic")
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if average_over not in ("present", "all"):
        raise ValueError(f"average_over must be 'present' or 'all', got {average_over!r}")
    confusion = _confusion(gt.reshape(-1), pred.reshape(-1), spec)
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


def _greedy_loop(ious, crowd, thresh) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, detections) tp and ignored flags of one category, one
    detection at a time in rank order: ``ious`` is (detections, gts),
    ``crowd`` flags the gts and ``thresh`` is a (thresholds, 1) column. A
    detection takes the free regular gt of highest IoU >= the threshold (the
    first on ties); failing that, a crowd gt with IoU >= the threshold
    absorbs it as ignored."""
    # All thresholds at once: row t of ``free`` is the gt state at threshold t.
    free = np.repeat(~crowd[None, :], thresh.shape[0], axis=0)
    tp = np.zeros((thresh.shape[0], ious.shape[0]), dtype=bool)
    ignored = np.zeros_like(tp)
    for di in range(ious.shape[0] if ious.shape[1] else 0):  # argmax needs at least one gt
        hits = ious[di] >= thresh
        candidate = hits & free
        tp[:, di] = candidate.any(axis=1)
        best = np.where(candidate, ious[di], -1.0).argmax(axis=1)
        free[tp[:, di], best[tp[:, di]]] = False
        ignored[:, di] = ~tp[:, di] & (hits & crowd).any(axis=1)
    return tp, ignored


def _greedy_step(ious, crowd, thresh) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_greedy_loop` in one step, when at every threshold no regular
    gt has two candidate detections: then no detection can find its
    candidates taken, so it is a tp iff it has one, in any order. (Which of
    two candidates it takes is not in the flags.) Hits at the lowest
    threshold hold at every other, so that one is checked. Otherwise this
    runs the loop."""
    hits = ious >= thresh[:, :, None]  # (thresholds, detections, gts)
    regular = hits & ~crowd
    if (regular[np.argmin(thresh[:, 0])].sum(axis=0) > 1).any():
        return _greedy_loop(ious, crowd, thresh)
    tp = regular.any(axis=2)
    return tp, ~tp & (hits & crowd).any(axis=2)


def _greedy_matches(
    dt_cats, dt_scores, dt_area, gt_cats, gt_crowd, gt_area, overlap, thresholds, max_dets,
    match=_greedy_step,
) -> dict[int, dict]:
    """Greedy per-category matching of one image's detections.

    ``overlap`` is the (detections, gts) matrix of pixel overlaps; it is
    read only between a category's detections and gts. The other arguments
    are arrays with one entry per detection or gt; areas are integers and
    scores must be finite. Per category, detections rank by descending
    score, ties in input order, and only the first ``max_dets`` count; each
    category's flags come from ``match``, :func:`_greedy_loop` or the
    :func:`_greedy_step` that equals it.
    """
    if not np.isfinite(dt_scores).all():
        raise ValueError("prediction scores must be finite")
    ranked = np.argsort(-dt_scores, kind="stable")
    thresh = np.asarray(thresholds, dtype=np.float64)[:, None]
    out: dict[int, dict] = {}
    for category in np.union1d(dt_cats, gt_cats).tolist():
        dts = ranked[dt_cats[ranked] == category][:max_dets]
        gts = np.flatnonzero(gt_cats == category)
        inter = overlap[np.ix_(dts, gts)]
        crowd, area = gt_crowd[gts], dt_area[dts][:, None]
        # Crowd regions score against the detection area alone.
        union = np.where(crowd, area, area + gt_area[gts] - inter)
        ious = np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)
        tp, ignored = match(ious, crowd, thresh)
        n_positive = int(np.count_nonzero(~crowd))
        out[category] = {
            "scores": dt_scores[dts], "tp": tp, "ignored": ignored, "n_positive": n_positive
        }
    return out


def ap_matches_from_histogram(
    hist: JointHistogram,
    spec: DatasetSpec,
    scores: Mapping[int, float] | None = None,
    max_dets: int = 200,
) -> dict[int, dict]:
    """Greedy per-category matching of the thing segments of a panoptic pair.

    Returns, per category: detection scores in rank order, per-threshold tp
    flags and ignore flags (crowd absorptions), and the non-crowd gt count,
    poolable across images by :func:`ap_report_from_matches`. Detections
    are the pred thing segments with instance part >= 1, in ascending id
    order; gts are the gt thing segments, instance part 0 marking crowd.
    ``scores`` maps instance index to confidence and must hold every
    detection (``KeyError`` otherwise); without it every detection scores
    1.0.
    """
    pred_cats, pred_inst, pred_thing, _, _ = classify_segments(hist.pred_ids, spec, "pred map")
    gt_cats, _, gt_thing, gt_crowd, _ = classify_segments(hist.gt_ids, spec, "gt map")
    dt, gt = np.flatnonzero(pred_thing), np.flatnonzero(gt_thing | gt_crowd)
    dt_scores = [1.0 if scores is None else float(scores[i]) for i in pred_inst[dt].tolist()]
    # Each segment's row (column) in the overlap matrix; -1 off the matrix.
    row, col = np.full(hist.pred_ids.size, -1), np.full(hist.gt_ids.size, -1)
    row[dt], col[gt] = np.arange(dt.size), np.arange(gt.size)
    r, c = row[hist.pred_index], col[hist.gt_index]
    k = np.flatnonzero((r >= 0) & (c >= 0))
    overlap = np.zeros((dt.size, gt.size), dtype=np.int64)
    overlap[r[k], c[k]] = hist.counts[k]
    return _greedy_matches(
        pred_cats[dt], np.array(dt_scores, dtype=np.float64), hist.pred_areas[dt],
        gt_cats[gt], gt_crowd[gt], hist.gt_areas[gt], overlap, DEFAULT_AP_THRESHOLDS, max_dets,
    )


_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _average_precision(scores, tp, ignored, n_positive) -> np.ndarray:
    """101-point interpolated AP of one category at every threshold, from
    (thresholds, detections) ``tp`` and ``ignored`` flags; n_positive > 0."""
    order = np.argsort(-scores, kind="stable")
    kept = ~ignored[:, order]
    tp_cum = np.cumsum(tp[:, order] & kept, axis=1)
    # Ignored ranks keep precision 0, which leaves the envelope at the kept
    # ranks as it is; recall steps only at kept hits.
    precision = np.zeros((kept.shape[0], kept.shape[1] + 1))  # and 0 past the last rank
    np.divide(tp_cum, np.cumsum(kept, axis=1), out=precision[:, :-1], where=kept)
    # Precision envelope: best precision at any recall >= r.
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # Each row's first rank whose recall tp_cum / n_positive reaches a recall
    # point (``np.searchsorted(recall, _RECALL_POINTS)``): recall rises with
    # the count, so that is the first rank whose count reaches the least
    # count c with c / n_positive >= the point. Counts are integers, so the
    # rows, each offset past the last, are searched exactly in one call.
    least = np.searchsorted(np.arange(n_positive + 1) / n_positive, _RECALL_POINTS)
    rows, ranks = tp_cum.shape
    row = np.arange(rows)[:, None]
    offset = row * (max(ranks, n_positive) + 1)
    found = np.searchsorted((tp_cum + offset).reshape(-1), (least + offset).reshape(-1))
    found = found.reshape(rows, least.size) - row * ranks
    return np.take_along_axis(envelope, found, axis=1).mean(axis=1)


def ap_report_from_matches(
    matches: Sequence[dict[int, dict]],
    thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
) -> ApReport:
    """Pool per-image match tables and derive the AP report. A category
    without a regular gt has no AP and is left out of every mean."""
    pooled: dict[int, list[dict]] = {}
    for table in matches:
        for category, row in table.items():
            pooled.setdefault(category, []).append(row)

    per_category: dict[int, float] = {}
    aps = []  # one (thresholds,) row per category in per_category
    for category, rows in sorted(pooled.items()):
        n_positive = sum(row["n_positive"] for row in rows)
        if n_positive == 0:
            continue
        aps.append(_average_precision(
            np.concatenate([row["scores"] for row in rows]),
            np.concatenate([row["tp"] for row in rows], axis=1),
            np.concatenate([row["ignored"] for row in rows], axis=1),
            n_positive,
        ))
        per_category[category] = float(aps[-1].mean())

    # Row t holds threshold t's APs in ascending category order, contiguous:
    # its 1-D mean sums them in the same order as a mean over a list.
    by_threshold = np.array(aps).reshape(len(aps), len(thresholds)).T.copy()
    per_threshold = {
        float(t): (float(v.mean()) if v.size else 0.0) for t, v in zip(thresholds, by_threshold)
    }
    mean_ap = float(np.mean(list(per_category.values()))) if per_category else 0.0
    thresholds = tuple(float(t) for t in thresholds)
    return ApReport(thresholds, mean_ap, per_threshold, per_category)
