"""Output checks that need no oracle from the package under test.

Every check recomputes what it compares against with this benchmark's own
numpy code, from the inputs ``gen`` wrote. Each returns a list of problems;
an empty list means the outputs of that image passed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import gen
from gen import IGNORE_LABEL, LABEL_DIVISOR, NUM_CATEGORIES, NUM_STUFF, read_pdlt

# float32 rounding of an offset below 2049 px is under 1.3e-4 px.
OFFSET_TOLERANCE_PX = 1e-3
LOSS_RTOL = 1e-9
SMALL_INSTANCE_AREA, SMALL_INSTANCE_WEIGHT = 4096, 3.0
TOP_K_FRACTION = 0.15
LAMBDA_HEATMAP, LAMBDA_OFFSET = 200.0, 0.01
TARGET_SIGMA, TARGET_TRUNCATION = 8.0, 3.0


def _close(got: float, want: float, rtol: float = LOSS_RTOL) -> bool:
    return math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)


def check_fuse(src: Path, out: Path) -> list[str]:
    """The fused map keeps stuff labels, and its report lists exactly the
    instances in the map with their true pixel areas."""
    problems = []
    labels = read_pdlt(src / "semantic.pdlt").astype(np.int64)
    panoptic = read_pdlt(out / "panoptic.pdlt").astype(np.int64)
    report = json.loads((out / "report.json").read_text())
    if panoptic.shape != labels.shape or report["dims"] != list(labels.shape):
        return [f"dims {panoptic.shape} / {report['dims']} != input {labels.shape}"]
    category, instance = panoptic // LABEL_DIVISOR, panoptic % LABEL_DIVISOR
    known = (category < NUM_CATEGORIES) | ((category == IGNORE_LABEL) & (instance == 0))
    if not known.all():
        problems.append(f"{np.count_nonzero(~known)} pixels carry unknown ids")
    stuff = labels < NUM_STUFF
    if not np.array_equal(panoptic[stuff], labels[stuff] * LABEL_DIVISOR):
        problems.append("stuff pixels lost their semantic label")
    thing_out = (category >= NUM_STUFF) & (category < NUM_CATEGORIES)
    if np.any(thing_out & (instance == 0)) or np.any(thing_out & stuff):
        problems.append("thing ids outside thing pixels or with instance 0")
    ids, counts = np.unique(panoptic[thing_out], return_counts=True)
    in_map = {(int(i) // LABEL_DIVISOR, int(i) % LABEL_DIVISOR): int(c) for i, c in zip(ids, counts)}
    rows = report["instances"]
    in_report = {(r["category"], r["instance_index"]): r["area"] for r in rows}
    if report["num_instances"] != len(rows) or len(in_report) != len(rows):
        problems.append("num_instances disagrees with the instance list")
    if in_report != in_map:
        problems.append(
            f"report areas disagree with the map on "
            f"{len(set(in_report.items()) ^ set(in_map.items()))} instances"
        )
    if any(not 0.0 <= r["score"] <= 1.0 or "center" not in r for r in rows):
        problems.append("an instance has no center or a score outside [0, 1]")
    return problems


def _reference_heatmap(ids, mean_row, mean_col, shape) -> np.ndarray:
    heatmap = np.zeros(shape)
    radius = TARGET_TRUNCATION * TARGET_SIGMA
    for pid in ids:
        row, col = mean_row[pid], mean_col[pid]
        r0, r1 = max(0, math.ceil(row - radius)), min(shape[0] - 1, math.floor(row + radius))
        c0, c1 = max(0, math.ceil(col - radius)), min(shape[1] - 1, math.floor(col + radius))
        d2 = (np.arange(r0, r1 + 1)[:, None] - row) ** 2 + (np.arange(c0, c1 + 1)[None, :] - col) ** 2
        patch = np.where(d2 > radius * radius, 0.0, np.exp(-d2 / (2 * TARGET_SIGMA**2)))
        region = heatmap[r0 : r1 + 1, c0 : c1 + 1]
        np.maximum(region, patch, out=region)
    return heatmap


def _reference_ce(logits, labels, weights) -> float:
    valid = np.flatnonzero(labels != IGNORE_LABEL)
    x = logits.reshape(-1, NUM_CATEGORIES)[valid].astype(np.float64)
    peak = x.max(axis=1)
    lse = peak + np.log(np.exp(x - peak[:, None]).sum(axis=1))
    nll = lse - x[np.arange(valid.size), labels[valid]]
    pixel = weights[valid].astype(np.float64) * nll
    k = max(1, math.ceil(TOP_K_FRACTION * valid.size))
    return float(np.partition(pixel, pixel.size - k)[-k:].mean())


_INSTANCE_LINE = re.compile(r"instance (\d+) center=\(([-\d.]+),([-\d.]+)\) area=(\d+)")


def check_train(src: Path, out: Path, loss_values: dict) -> list[str]:
    """Targets match the benchmark's own encoding of the ground truth, and
    the losses match a plain numpy recomputation."""
    problems = []
    gt = read_pdlt(src / "gt.pdlt").astype(np.int64)
    ids, counts, mean_row, mean_col = gen.segment_stats(gt)
    things = ids[gen.is_thing_instance(ids)]
    thing_pixels = gen.is_thing_instance(gt)
    t = {k: read_pdlt(out / f"{k}.pdlt") for k in ("heatmap", "offsets", "weights", "semantic", "thing_mask")}

    lines = (out / "stdout.txt").read_text().splitlines()
    parsed = [_INSTANCE_LINE.fullmatch(line) for line in lines]
    if len(lines) != things.size or not all(parsed):
        problems.append(f"{len(lines)} instance lines for {things.size} instances")
    else:
        for pid, m in zip(things, parsed):
            pid_out, row, col, area = int(m[1]), float(m[2]), float(m[3]), int(m[4])
            if (pid_out, area) != (pid, counts[pid]) or max(
                abs(row - mean_row[pid]), abs(col - mean_col[pid])
            ) > 6e-4:
                problems.append(f"instance line for {pid} disagrees: {m[0]}")
                break

    if not np.array_equal(t["thing_mask"] != 0, thing_pixels):
        problems.append("thing_mask differs from the ground-truth thing pixels")
    if not np.array_equal(t["semantic"], gt // LABEL_DIVISOR):
        problems.append("semantic target differs from the ground-truth categories")
    offsets = t["offsets"].astype(np.float64)
    if np.any(offsets[~thing_pixels] != 0):
        problems.append("nonzero offsets outside thing pixels")
    rows, cols = np.nonzero(thing_pixels)
    pids = gt[rows, cols]
    miss = np.maximum(
        np.abs(rows + offsets[rows, cols, 0] - mean_row[pids]),
        np.abs(cols + offsets[rows, cols, 1] - mean_col[pids]),
    )
    if miss.size and miss.max() > OFFSET_TOLERANCE_PX:
        problems.append(f"offsets miss the mass center by up to {miss.max():.2e} px")
    weights = np.ones(gt.shape)
    small = things[counts[things] < SMALL_INSTANCE_AREA]
    weights[np.isin(gt, small)] = SMALL_INSTANCE_WEIGHT
    weights[gt // LABEL_DIVISOR == IGNORE_LABEL] = 0.0
    if not np.array_equal(t["weights"], weights.astype(np.float32)):
        problems.append("semantic weights differ from the reference weights")
    heatmap = _reference_heatmap(things, mean_row, mean_col, gt.shape)
    if np.abs(t["heatmap"] - heatmap).max() > 1e-6:
        problems.append("center heatmap differs from the reference Gaussians")

    pred_heat = read_pdlt(src / "heatmap.pdlt").astype(np.float64)
    pred_off = read_pdlt(src / "offsets.pdlt").astype(np.float64)
    diff = pred_off[thing_pixels] - offsets[thing_pixels]
    want = {
        "weighted_bootstrapped_ce": _reference_ce(
            read_pdlt(src / "logits.pdlt"), t["semantic"].reshape(-1).astype(np.int64),
            t["weights"].reshape(-1),
        ),
        "mse_heatmap_loss": float(np.mean((pred_heat - t["heatmap"]) ** 2)),
        "l1_offset_loss": float(np.abs(diff).sum() / max(1, rows.size)),
    }
    want["total_loss"] = (
        want["weighted_bootstrapped_ce"]
        + LAMBDA_HEATMAP * want["mse_heatmap_loss"]
        + LAMBDA_OFFSET * want["l1_offset_loss"]
    )
    for name, value in want.items():
        if not _close(loss_values[name], value):
            problems.append(f"{name} {loss_values[name]!r} != reference {value!r}")
    return problems


def _gt_segments_per_category(gt: np.ndarray) -> dict[int, int]:
    """Segments PQ must match or miss: stuff and thing instances, no crowd/VOID."""
    ids = np.unique(gt)
    category, instance = ids // LABEL_DIVISOR, ids % LABEL_DIVISOR
    counted = (category < NUM_STUFF) | (gen.is_thing_instance(ids))
    cats, n = np.unique(category[counted], return_counts=True)
    return dict(zip(cats.tolist(), n.tolist()))


def check_eval(src: Path, out: Path) -> list[str]:
    """Every score lies in [0, 1], mIoU matches a numpy confusion matrix and
    PQ accounts for every ground-truth segment exactly once."""
    problems = []
    report = json.loads((out / "report.json").read_text())
    agg = report["aggregate"]
    scores = [agg["miou"]["mean_iou"], agg["ap"]["mean_ap"]]
    scores += list(agg["miou"]["per_category"].values())
    scores += list(agg["ap"]["per_threshold"].values()) + list(agg["ap"]["per_category"].values())
    for part in ("all", "things", "stuff"):
        scores += [agg["pq"][part][k] for k in ("pq", "sq", "rq")]
    for row in agg["pq"]["per_category"].values():
        scores += [row["pq"], row["sq"], row["rq"]]
    if not all(0.0 <= s <= 1.0 for s in scores):
        problems.append("a PQ/SQ/RQ/mIoU/AP value lies outside [0, 1]")

    gt = read_pdlt(src / "gt.pdlt").astype(np.int64)
    pred = read_pdlt(src / "pred.pdlt").astype(np.int64)
    gt_cat, pred_cat = (gt // LABEL_DIVISOR).reshape(-1), (pred // LABEL_DIVISOR).reshape(-1)
    valid = gt_cat != IGNORE_LABEL
    pred_chan = np.minimum(pred_cat[valid], NUM_CATEGORIES)
    confusion = np.bincount(
        gt_cat[valid] * (NUM_CATEGORIES + 1) + pred_chan,
        minlength=NUM_CATEGORIES * (NUM_CATEGORIES + 1),
    ).reshape(NUM_CATEGORIES, NUM_CATEGORIES + 1)
    inter = np.diag(confusion).astype(np.float64)
    union = confusion.sum(axis=1) + confusion[:, :NUM_CATEGORIES].sum(axis=0) - inter
    want = {str(c): inter[c] / union[c] for c in range(NUM_CATEGORIES) if union[c] > 0}
    got = agg["miou"]["per_category"]
    if got.keys() != want.keys() or any(not _close(got[c], want[c], 1e-12) for c in want):
        problems.append("per-category IoU differs from the reference confusion matrix")

    per_category = agg["pq"]["per_category"]
    for category, n in _gt_segments_per_category(gt).items():
        row = per_category.get(str(category))
        if row is None or row["tp"] + row["fn"] != n:
            problems.append(f"PQ category {category}: tp + fn != {n} ground-truth segments")
            break
    return problems
