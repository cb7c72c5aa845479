"""The three training losses, as pure functions with analytic gradients.

All reductions run in float64 regardless of input storage precision, so the
gradients have enough headroom for finite-difference verification. Gradients
are taken with respect to the raw prediction grids only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _run_blocks

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
    carried per-pixel by the weight map, and the CE takes its own top-K
    fraction."""

    lambda_heatmap: float = 200.0
    lambda_offset: float = 0.01

    def __post_init__(self):
        for name in ("lambda_heatmap", "lambda_offset"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: np.ndarray | None = None


# Grid pixels per block of the CE's float32 filter and exact pass. Each
# block makes ~17 numpy calls; at 16384 pixels the threads spend little time
# waiting for the GIL between them (8192-65536 measured, 16384 fastest).
# Temporaries of one fixed size keep peak RSS from depending on heap layout.
# The input pass makes cheaper calls per pixel and takes larger blocks.
_CE_BLOCK = 16384
_CE_INPUT_BLOCK = 1 << 16


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


def _label_log_sum_exp(x: np.ndarray, picked: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per row of the float32 (n, C) ``x``, log sum_c exp(fl32(x_c - x_label))
    in float32, with the label's channel in ``picked``; and False where a
    shifted value is -inf or NaN, which the exp could hide."""
    num_classes = x.shape[1]
    flat = x.reshape(-1)
    # x_label repeated over each row's channels: an elementwise
    # subtraction, far faster than broadcasting over rows of C.
    shifted = np.repeat(np.take(flat, np.arange(0, flat.size, num_classes) + picked), num_classes)
    np.subtract(flat, shifted, out=shifted)
    finite = shifted.min() > -np.inf
    np.exp(shifted, out=shifted)
    return np.log(shifted.reshape(x.shape) @ np.ones(num_classes, dtype=np.float32)), finite


def _loss_bounds(weight: np.ndarray, log_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 bounds b -+ delta on the exact losses, b = ``weight`` *
    ``log_sum``, delta = 2**-10 * (weight + b) + 2**-126 (see
    ``_ce_candidates``)."""
    approx = weight * log_sum
    slack = (weight + approx) * 2**-10 + 2**-126
    return approx - slack, approx + slack


def _ce_candidates(
    flat_logits: np.ndarray,
    picked: np.ndarray,
    flat_weights: np.ndarray,
    ignored: np.ndarray,
    k: int,
) -> np.ndarray | None:
    """The rows, ascending, whose exact loss may be among the k largest;
    None where the float32 filter below cannot tell.

    Per row, the filter takes a~ = log sum_c exp(fl32(x_c - x_label)) in
    float32; the label's term is exp(0) = 1, so the sum is >= 1 and needs no
    max. The exact loss w * a, a = log sum_c exp(x_c - x_label), then lies
    within b -+ delta, b = w * a~, delta = 2**-10 * (w + b) + 2**-126, with
    16x slack. The bounds are kept in float32.

    The error, with u = 2**-24 and s = x_c - x_label: the float32 sum is off
    by a factor 1 +- e, where e adds up
      - the rounded difference, a factor exp(s * eta), |eta| <= u, on the
        term exp(s): <= 89u of the sum from terms with 0 < s < 88.8 (beyond,
        the exp overflows and the filter gives up), and <= 0.37u each from
        terms with s = -t < 0, as e**-t * (e**(t u) - 1) <= u / e;
      - the exp, within 4 ulp: 8u, and < u more where it flushes to 0;
      - the sum, in any order (a BLAS dot product): (C - 1)u.
    So |log sum - a| <= 1.01 e = 1.01 (98 + 1.37 (C - 1))u, and the float32
    log adds 4 ulp, 8u * a~. For C <= 512 that is < 830u * (1 + a), and
    delta / 16 >= 1024u * w * (1 + a~). Rounding b, the bounds and the exact
    loss in float64, and the bounds to float32, adds relative errors far
    below that, and absolute ones below 2**-149 near zero, which the
    2**-126 covers.

    A pixel whose upper bound falls below L, the k-th largest lower bound,
    has an exact loss < L, while k pixels have one >= L: it is neither
    among the k largest nor tied with the k-th. The filter gives up (None)
    on NaN or inf in any row, ignored ones included, since the full pass
    raises there; on a bound beyond the float32 range, since the full pass
    may overflow there; and when more than half of the rows are candidates.
    """
    size = flat_logits.shape[0]
    lower = np.empty(size, dtype=np.float32)
    upper = np.empty(size, dtype=np.float32)
    fit = np.empty(-(-size // _CE_BLOCK), dtype=bool)

    def filter_block(j: int) -> None:
        block = slice(j * _CE_BLOCK, (j + 1) * _CE_BLOCK)
        log_sum, finite = _label_log_sum_exp(flat_logits[block], picked[block])
        lower[block], upper[block] = _loss_bounds(flat_weights[block], log_sum)
        fit[j] = finite and upper[block].max() < np.inf  # False for NaN too
        skip = ignored[block]
        lower[block][skip] = upper[block][skip] = -np.inf

    with np.errstate(all="ignore"):
        _run_blocks(filter_block, fit.size)
    if not fit.all():
        return None
    kth = size - k
    lower.partition(kth)
    rows = np.flatnonzero(upper >= lower[kth])
    return rows if 2 * rows.size <= size else None


def _ce_inputs(
    labels: np.ndarray, weights: np.ndarray, ignore_label: int, num_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each pixel's label channel as int64, 0 where ignored; its weight in
    float64; the ignore mask; and the count of valid pixels. One blocked
    pass fills them and flags each block's faults; the checks then raise,
    whatever block and thread found a fault, in this order: weights not
    finite, weights below 0, no valid pixel, labels outside [0, C)."""
    flat_labels, flat_source = labels.reshape(-1), weights.reshape(-1)
    picked = np.empty(flat_labels.size, dtype=np.int64)
    flat_weights = np.empty(flat_labels.size)
    ignored = np.empty(flat_labels.size, dtype=bool)
    count = -(-flat_labels.size // _CE_INPUT_BLOCK)
    not_finite, negative, out_of_range = np.zeros((3, count), dtype=bool)
    valid = np.zeros(count, dtype=np.int64)

    def block_body(j: int) -> None:
        block = slice(j * _CE_INPUT_BLOCK, (j + 1) * _CE_INPUT_BLOCK)
        weight, label, ignore = flat_weights[block], picked[block], ignored[block]
        weight[...] = flat_source[block]
        not_finite[j] = not np.isfinite(weight).all()
        negative[j] = (weight < 0).any()
        label[...] = flat_labels[block]
        np.equal(label, ignore_label, out=ignore)
        valid[j] = ignore.size - np.count_nonzero(ignore)
        label[ignore] = 0
        out_of_range[j] = label.min() < 0 or label.max() >= num_classes

    _run_blocks(block_body, count)
    if not_finite.any():
        raise ValueError("weights must be finite (no NaN or inf)")
    if negative.any():
        raise ValueError("weights must be >= 0")
    num_valid = int(valid.sum())
    if num_valid == 0:
        raise ValueError("all pixels carry the ignore label; loss undefined")
    if out_of_range.any():
        raise ValueError("labels contain indices outside [0, num_classes)")
    return picked, flat_weights, ignored, num_valid


def _top_k(loss: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """A mask of the k largest entries of ``loss``, those tied with the
    k-th largest taken in index order, and their float64 mean."""
    kth = loss.size - k
    threshold = np.partition(loss, kth)[kth]
    selected = loss > threshold
    ties = np.flatnonzero(loss == threshold)
    selected[ties[: k - int(np.count_nonzero(selected))]] = True
    # A full sort by (-loss, index) orders equal losses by index. Equal
    # losses are equal terms, apart from +0 and -0, which leave any sum they
    # join unchanged; so the selected values in descending order give the
    # same float64 mean.
    descending = -np.sort(-loss[selected])
    return selected, float(descending.mean(dtype=np.float64))


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

    On float32 logits, a float32 filter first finds the pixels that can be
    among the top K (``_ce_candidates``), and the exact float64 steps run
    on those alone, gradient rows included. The value and gradient bits,
    the errors and the warnings are those of the exact pass over every
    pixel, which runs where the filter cannot tell.

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
    picked, flat_weights, ignored, num_valid = _ce_inputs(labels, weights, ignore_label, num_classes)
    k = max(1, int(np.ceil(top_k_fraction * num_valid)))

    def exact(rows: np.ndarray | None, loss: np.ndarray, gradient: np.ndarray | None) -> None:
        """The loss of each of ``rows`` (every pixel for None) into ``loss``,
        with the same float64 steps per row as a whole-grid softmax; and its
        gradient row into ``gradient``, unless that is None."""

        def block_body(j: int) -> None:
            part = slice(j * _CE_BLOCK, (j + 1) * _CE_BLOCK)
            block = part if rows is None else rows[part]
            # np.take gathers rows about twice as fast as fancy indexing.
            x, log_norm = _shifted_logits(
                flat_logits[part] if rows is None else np.take(flat_logits, block, axis=0)
            )
            at = np.arange(len(x)), picked[block]
            loss[part] = -flat_weights[block] * (x[at] - log_norm)
            if gradient is not None:
                x -= log_norm[:, None]
                probs = np.exp(x, out=x)
                probs[at] -= 1.0
                probs *= (flat_weights[block] / k)[:, None]
                gradient[block] = probs

        _run_blocks(block_body, -(-loss.size // _CE_BLOCK))

    # The filter's bounds hold for float32 logits and C <= 512. With
    # underflow signalled, the full pass would signal it at pixels the
    # filter skips.
    rows = None
    if logits.dtype == np.float32 and num_classes <= 512 and np.geterr()["under"] == "ignore":
        rows = _ce_candidates(flat_logits, picked, flat_weights, ignored, k)
    gradient = np.zeros((picked.size, num_classes)) if with_gradient else None
    if rows is None:  # every pixel, then the gradient of the selected ones
        pixel_loss = np.empty(picked.size)
        exact(None, pixel_loss, None)
        pixel_loss[ignored] = -np.inf  # below every valid loss, which is >= 0
        selected, value = _top_k(pixel_loss, k)
        if with_gradient:
            exact(np.flatnonzero(selected), np.empty(k), gradient)
    else:  # the candidates with their gradient rows, then the others' rows cleared
        row_loss = np.empty(rows.size)
        exact(rows, row_loss, gradient)
        selected, value = _top_k(row_loss, k)
        if with_gradient:
            gradient[rows[~selected]] = 0.0
    if with_gradient:
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
