"""The three training losses, as pure functions with analytic gradients.

All reductions run in float64 regardless of input storage precision, so the
gradients have enough headroom for finite-difference verification. Gradients
are taken with respect to the raw prediction grids only.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossWeights",
    "LossValue",
    "weighted_bootstrapped_ce",
    "mse_heatmap_loss",
    "l1_offset_loss",
    "total_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights combining the three losses; the semantic weight is
    carried per-pixel by the weight map instead."""

    lambda_heatmap: float = 200.0
    lambda_offset: float = 0.01
    top_k_fraction: float = 0.15

    def __post_init__(self):
        if self.lambda_heatmap <= 0 or self.lambda_offset <= 0:
            raise ValueError("loss weights must be positive")
        if not 0 < self.top_k_fraction <= 1:
            raise ValueError(
                f"top_k_fraction must be in (0, 1], got {self.top_k_fraction}"
            )


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: np.ndarray | None = None


# Grid pixels per block of the per-pixel cross-entropy: a (4096, 19) float64
# block stays in a core's L2 cache, and temporaries of one fixed size keep
# peak RSS from depending on heap layout.
_CE_BLOCK = 4096

# Threads, the caller included, that share the CE's blocks at most.
_MAX_CE_THREADS = 4
_ce_pool: tuple[int, int, ThreadPoolExecutor] | None = None  # (pid, workers, pool)


def _ce_threads() -> int:
    """min(_MAX_CE_THREADS, CPUs this process may run on)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_CE_THREADS, cpus))


def _run_blocks(body, count: int) -> None:
    """``body(j)`` for every j in range(count), on T = min(W, count)
    threads, W = ``_ce_threads()``: the caller takes j = 0 (mod T), as a
    worker thread would get its own malloc arena, and a pool of W - 1
    threads the other residues. Each ``body(j)`` must write only its own
    part of the output, so the bytes do not depend on T. A thread stops at
    its first failing block; once all are done, the exception of the
    lowest failing j is raised, the one the serial loop raises."""
    global _ce_pool
    workers = _ce_threads() - 1
    threads = min(workers + 1, count)
    if threads <= 1:
        for j in range(count):
            body(j)
        return
    # Made on first use, not at import; and anew in a forked child, where
    # the parent's pool would count its vanished threads as idle and hang.
    # A call racing this one may make a pool of its own; that pool's
    # threads exit once its tasks are done and it is dropped.
    pool = _ce_pool
    if pool is None or pool[:2] != (os.getpid(), workers):
        pool = _ce_pool = (os.getpid(), workers, ThreadPoolExecutor(workers))
    failures: list[tuple[int, Exception]] = []

    def residue(first: int) -> None:
        for j in range(first, count, threads):
            try:
                body(j)
            except Exception as e:
                failures.append((j, e))
                return

    futures = [pool[2].submit(residue, r) for r in range(1, threads)]
    try:
        residue(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()  # what residue does not catch, such as SystemExit
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _shifted_logits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 ``rows`` minus each row's max, and the log of each row's
    softmax denominator. Raises on NaN/inf logits."""
    x = rows.astype(np.float64)
    peak = x[:, 0].copy()
    for column in x.T[1:]:
        np.maximum(peak, column, out=peak)  # exact, like the row max
    if not np.isfinite(peak).all():  # NaN and +inf reach the max
        raise ValueError("logits must be finite (no NaN or inf)")
    x -= peak[:, None]
    if x.min() == -np.inf:  # -inf, or a row wider than the float64 range
        raise ValueError("logits must be finite, each pixel's range below the float64 max")
    return x, np.log(np.exp(x).sum(axis=1))


def weighted_bootstrapped_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    ignore_label: int,
    top_k_fraction: float = 0.15,
    with_gradient: bool = True,
) -> LossValue:
    """Weighted cross-entropy averaged over the hardest top-K pixels.

    ``logits`` is (H, W, C); ``labels`` holds channel indices in [0, C) or
    ``ignore_label``. Per-pixel loss is weight * -log softmax(logits)[label];
    K = ceil(top_k_fraction * #valid), ties at the K-th largest loss resolved
    in row-major order. The gradient (w.r.t. logits) is nonzero only at
    selected pixels. NaN or inf anywhere in ``logits`` or ``weights``, and
    labels of a non-integer dtype, raise.

    Blocks of pixels run on up to min(4, CPUs) threads, the caller
    included; each block writes only its own pixels, so the value and
    gradient bytes do not depend on the thread count.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be (H, W, C), got shape {logits.shape}")
    if labels.shape != logits.shape[:2]:
        raise ValueError(f"labels shape {labels.shape} != logits grid {logits.shape[:2]}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must hold integer class indices, got {labels.dtype}")
    if weights.shape != labels.shape:
        raise ValueError(f"weights shape {weights.shape} != labels shape {labels.shape}")
    if not 0 < top_k_fraction <= 1:
        raise ValueError(f"top_k_fraction must be in (0, 1], got {top_k_fraction}")

    num_classes = logits.shape[2]
    flat_logits = logits.reshape(-1, num_classes)
    flat_labels = labels.reshape(-1).astype(np.int64)
    flat_weights = weights.reshape(-1).astype(np.float64)
    if not np.isfinite(flat_weights).all():
        raise ValueError("weights must be finite (no NaN or inf)")
    if (flat_weights < 0).any():
        raise ValueError("weights must be >= 0")

    ignored = flat_labels == ignore_label
    num_valid = ignored.size - int(np.count_nonzero(ignored))
    if num_valid == 0:
        raise ValueError("all pixels carry the ignore label; loss undefined")
    picked = np.where(ignored, 0, flat_labels)
    if picked.min() < 0 or picked.max() >= num_classes:
        raise ValueError("labels contain indices outside [0, num_classes)")

    # Per-pixel loss, the same float64 steps per row as a whole-grid softmax.
    pixel_loss = np.empty(flat_labels.size)

    def value_block(j: int) -> None:
        block = slice(j * _CE_BLOCK, (j + 1) * _CE_BLOCK)
        x, log_norm = _shifted_logits(flat_logits[block])
        log_prob = x[np.arange(len(x)), picked[block]] - log_norm
        pixel_loss[block] = -flat_weights[block] * log_prob

    _run_blocks(value_block, -(-flat_labels.size // _CE_BLOCK))
    pixel_loss[ignored] = -np.inf  # below every valid loss, which is >= 0

    k = max(1, int(np.ceil(top_k_fraction * num_valid)))
    kth = pixel_loss.size - k
    threshold = np.partition(pixel_loss, kth)[kth]  # K-th largest loss
    selected = pixel_loss > threshold
    ties = np.flatnonzero(pixel_loss == threshold)
    selected[ties[: k - int(np.count_nonzero(selected))]] = True  # row-major
    rows = np.flatnonzero(selected)
    # A full sort by (-loss, row) orders equal losses by row. Equal losses
    # are equal terms, apart from +0 and -0, which leave any sum they join
    # unchanged; so the selected values in descending order give the same
    # float64 mean.
    descending = -np.sort(-pixel_loss[rows])
    value = float(descending.mean(dtype=np.float64))

    gradient = None
    if with_gradient:
        gradient = np.zeros((flat_labels.size, num_classes))

        def gradient_block(j: int) -> None:
            block = rows[j * _CE_BLOCK : (j + 1) * _CE_BLOCK]
            x, log_norm = _shifted_logits(flat_logits[block])
            x -= log_norm[:, None]
            probs = np.exp(x, out=x)
            probs[np.arange(block.size), flat_labels[block]] -= 1.0
            probs *= (flat_weights[block] / k)[:, None]
            gradient[block] = probs

        _run_blocks(gradient_block, -(-rows.size // _CE_BLOCK))
        gradient = gradient.reshape(logits.shape)
    return LossValue(value=value, gradient=gradient)


def mse_heatmap_loss(
    pred: np.ndarray, target: np.ndarray, with_gradient: bool = True
) -> LossValue:
    """Mean squared error over all pixels of two heatmaps. NaN or inf in
    either heatmap raises."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = np.subtract(pred, target, dtype=np.float64)
    if not np.isfinite(diff).all():  # NaN and inf in either grid reach diff
        raise ValueError("heatmaps must be finite (no NaN or inf)")
    count = diff.size
    value = float((diff * diff).sum(dtype=np.float64) / count)
    gradient = np.multiply(diff, 2.0 / count, out=diff) if with_gradient else None
    return LossValue(value=value, gradient=gradient)


def l1_offset_loss(
    pred: np.ndarray,
    target: np.ndarray,
    thing_mask: np.ndarray,
    with_gradient: bool = True,
) -> LossValue:
    """L1 offset loss, activated only at thing pixels.

    Value is sum over masked pixels of |d_row| + |d_col|, divided by the
    masked pixel count (0 when the mask is empty). Only masked pixels are
    read: NaN or inf there raises, elsewhere it is ignored.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 3 or pred.shape[2] != 2:
        raise ValueError(f"offsets must be (H, W, 2), got shape {pred.shape}")
    if thing_mask.shape != pred.shape[:2]:
        raise ValueError(
            f"mask shape {thing_mask.shape} != offset grid {pred.shape[:2]}"
        )
    pixels = np.flatnonzero(thing_mask.astype(bool, copy=False))  # bool scans faster
    count = pixels.size
    # The (count, 2) differences in row-major order, as a full-grid
    # difference masked afterwards holds them, so the sum has the same bits.
    diff = np.subtract(
        np.take(pred.reshape(-1, 2), pixels, axis=0),
        np.take(target.reshape(-1, 2), pixels, axis=0),
        dtype=np.float64,
    )
    if not np.isfinite(diff).all():
        raise ValueError("offsets at thing pixels must be finite (no NaN or inf)")
    total = float(np.abs(diff).sum(dtype=np.float64)) if count else 0.0
    value = total / max(1, count)
    gradient = None
    if with_gradient:
        gradient = np.zeros(pred.shape)
        if count:
            # One 16-byte (d_row, d_col) element per pixel: a 1-D scatter.
            pairs = gradient.reshape(-1, 2).view(np.complex128).reshape(-1)
            pairs[pixels] = (np.sign(diff) / count).view(np.complex128).reshape(-1)
    return LossValue(value=value, gradient=gradient)


def total_loss(
    sem: LossValue, heat: LossValue, off: LossValue, w: LossWeights = LossWeights()
) -> float:
    """Weighted sum of the three losses; the per-pixel semantic weight is
    already inside ``sem``."""
    return sem.value + w.lambda_heatmap * heat.value + w.lambda_offset * off.value
