import math
import multiprocessing
import sys
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panopticore import core, losses
from panopticore.losses import (
    LossValue,
    LossWeights,
    l1_offset_loss,
    mse_heatmap_loss,
    total_loss,
    weighted_bootstrapped_ce,
)
from panopticore.selftest import _ce_pixel_losses, bootstrapped_ce_oracle, relative_error

IGNORE = 255


def uniform_case(height=4, width=4, num_classes=5):
    logits = np.zeros((height, width, num_classes))
    labels = np.zeros((height, width), dtype=np.int64)
    weights = np.ones((height, width))
    return logits, labels, weights


def test_ce_perfect_prediction_near_zero():
    logits, labels, weights = uniform_case()
    logits[..., 0] = 50.0  # margin 50 approximates the one-hot limit
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)
    assert 0 <= loss.value < 1e-9


def test_ce_uniform_logits_is_log_c():
    for num_classes in (2, 5, 11):
        logits, labels, weights = uniform_case(num_classes=num_classes)
        loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)
        assert loss.value == pytest.approx(math.log(num_classes), rel=1e-12)


def test_ce_bootstrap_selects_largest():
    # Four pixels engineered to per-pixel losses {0.1, 0.4, 0.2, 0.3}:
    # uniform two-class logits give ln 2 each, scaled by weights.
    targets = np.array([0.1, 0.4, 0.2, 0.3])
    logits = np.zeros((1, 4, 2))
    labels = np.zeros((1, 4), dtype=np.int64)
    weights = (targets / math.log(2)).reshape(1, 4)
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.5)
    assert loss.value == pytest.approx((0.4 + 0.3) / 2, rel=1e-12)
    # The full-sort oracle over the same inputs.
    oracle = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 0.5)
    assert loss.value == pytest.approx(oracle.value, rel=1e-12)


def test_ce_fraction_one_equals_plain_weighted_ce():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 6, 4))
    labels = rng.integers(0, 4, size=(6, 6))
    weights = rng.uniform(0.1, 2.0, size=(6, 6))
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)
    # Plain weighted CE: mean of weighted per-pixel losses.
    log_probs = logits - logits.max(-1, keepdims=True)
    log_probs = log_probs - np.log(np.exp(log_probs).sum(-1, keepdims=True))
    per_pixel = -weights * np.take_along_axis(log_probs, labels[..., None], -1)[..., 0]
    assert loss.value == pytest.approx(per_pixel.mean(), rel=1e-12)
    oracle = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 1.0)
    assert loss.value == pytest.approx(oracle.value, rel=1e-12)


def test_ce_tie_at_kth_is_row_major():
    # All per-pixel losses equal; K=2 must pick the first two in row-major order.
    logits = np.zeros((2, 2, 3))
    labels = np.zeros((2, 2), dtype=np.int64)
    weights = np.ones((2, 2))
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.5)
    grad_nonzero = np.abs(loss.gradient).sum(axis=2) > 0
    assert grad_nonzero.tolist() == [[True, True], [False, False]]


def test_ce_k_is_ceil_and_at_least_one():
    logits = np.zeros((1, 3, 2))
    labels = np.zeros((1, 3), dtype=np.int64)
    weights = np.array([[3.0, 1.0, 2.0]])
    # ceil(0.4 * 3) = 2 -> mean of the two largest weighted losses.
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.4)
    assert loss.value == pytest.approx((3.0 + 2.0) * math.log(2) / 2, rel=1e-12)
    tiny = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1e-9)
    assert tiny.value == pytest.approx(3.0 * math.log(2), rel=1e-12)


def test_ce_ignored_pixels_excluded():
    logits, labels, weights = uniform_case(num_classes=3)
    labels[0, 0] = IGNORE
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)
    assert loss.value == pytest.approx(math.log(3), rel=1e-12)
    assert (loss.gradient[0, 0] == 0).all()


def test_ce_all_ignored_raises():
    logits, labels, weights = uniform_case()
    labels[:] = IGNORE
    with pytest.raises(ValueError, match="ignore"):
        weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)


def test_ce_gradient_zero_outside_selection():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 4, 3))
    labels = rng.integers(0, 3, size=(4, 4))
    weights = np.ones((4, 4))
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.25)
    selected_pixels = (np.abs(loss.gradient).sum(axis=2) > 0).sum()
    assert selected_pixels == 4  # ceil(0.25 * 16)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ce_non_finite_logits_rejected(value, dtype):
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 7, 3)).astype(dtype)
    labels = rng.integers(0, 3, size=(5, 7))
    logits[4, 6, 1] = value  # the last pixel, off its label channel
    labels[4, 6] = 0
    with pytest.raises(ValueError, match="logits must be finite"):
        weighted_bootstrapped_ce(logits, labels, np.ones((5, 7)), IGNORE, 0.15)
    labels[4, 6] = IGNORE  # anywhere, ignore pixels included
    with pytest.raises(ValueError, match="logits must be finite"):
        weighted_bootstrapped_ce(logits, labels, np.ones((5, 7)), IGNORE, 0.15)


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
def test_ce_logit_range_beyond_float64_rejected():
    # Finite, but max - min overflows: the softmax would see -inf.
    logits = np.array([[[1e308, -1e308]]])
    with pytest.raises(ValueError, match="logits must be finite, each pixel's range"):
        weighted_bootstrapped_ce(logits, np.zeros((1, 1), dtype=int), np.ones((1, 1)), IGNORE)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ce_non_finite_weights_rejected(value):
    logits, labels, weights = uniform_case()
    weights[3, 1] = value
    with pytest.raises(ValueError, match="weights must be finite"):
        weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)


@st.composite
def ce_cases(draw):
    """Small CE inputs rich in exact ties, zero losses and ignore pixels."""
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    num_classes = draw(st.integers(1, 6))
    shape = (height, width, num_classes)
    kind = draw(st.sampled_from(["uniform", "integer", "normal", "margin"]))
    if kind == "uniform":  # every pixel's loss is weight * log C
        logits = np.full(shape, draw(st.integers(-3, 3)), dtype=np.float64)
    elif kind == "integer":
        logits = draw(hnp.arrays(np.int8, shape, elements=st.integers(-2, 2))).astype(float)
    elif kind == "normal":
        seed = draw(st.integers(0, 2**32 - 1))
        logits = np.random.default_rng(seed).normal(0, 4, size=shape)
    else:  # margins past exp underflow: losses of exactly +-0
        logits = draw(hnp.arrays(np.int8, shape, elements=st.integers(-1, 1))) * 60.0
    logits = logits.astype(draw(st.sampled_from([np.float32, np.float64])))
    labels = draw(hnp.arrays(np.int64, shape[:2], elements=st.integers(0, num_classes - 1)))
    ignore = draw(hnp.arrays(np.bool_, shape[:2]))
    ignore.flat[draw(st.integers(0, height * width - 1))] = False
    labels[ignore] = IGNORE
    if draw(st.booleans()):
        weights = draw(hnp.arrays(np.int8, shape[:2], elements=st.integers(0, 3))).astype(float)
    else:
        weights = draw(hnp.arrays(np.float64, shape[:2], elements=st.floats(0, 5)))
    fraction = draw(st.one_of(st.sampled_from([1e-9, 0.15, 0.5, 1.0]), st.floats(1e-9, 1.0)))
    block = draw(st.sampled_from([1, 2, 3, 5, losses._CE_BLOCK]))
    return logits, labels, weights, fraction, block, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=ce_cases())
def test_ce_equals_full_sort_oracle(case):
    logits, labels, weights, fraction, block, with_gradient = case
    with mock.patch.object(losses, "_CE_BLOCK", block), \
            mock.patch.object(losses, "_CE_INPUT_BLOCK", block):
        got = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, fraction, with_gradient)
    want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, fraction, with_gradient)
    assert got.value == want.value and repr(got.value) == repr(want.value)
    if with_gradient:
        assert got.gradient.dtype == want.gradient.dtype
        assert got.gradient.shape == want.gradient.shape
        assert got.gradient.tobytes() == want.gradient.tobytes()
    else:
        assert got.gradient is None and want.gradient is None


def test_ce_blocks_not_dividing_the_grid_equal_oracle():
    rng = np.random.default_rng(11)
    logits = rng.normal(0, 3, size=(23, 29, 19)).astype(np.float32)
    labels = rng.integers(0, 19, size=(23, 29))
    labels[rng.random((23, 29)) < 0.05] = IGNORE
    weights = rng.integers(0, 4, size=(23, 29)).astype(np.float32)
    want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 0.15)
    for block in (1, 2, 3, 64, 23 * 29 - 1, 23 * 29, 10**6):  # 667 = 23 * 29
        with mock.patch.object(losses, "_CE_BLOCK", block):
            got = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
        assert repr(got.value) == repr(want.value), block
        assert got.gradient.tobytes() == want.gradient.tobytes(), block


def tied_ce_case(dtype, seed=12):
    """A 13x17x5 grid of 0/1 logits and 1/2 weights: few distinct losses,
    so many pixels tie at the K-th loss for K = ceil(0.15 * valid)."""
    rng = np.random.default_rng(seed)
    logits = rng.integers(0, 2, size=(13, 17, 5)).astype(dtype)
    labels = rng.integers(0, 5, size=(13, 17))
    labels[rng.random((13, 17)) < 0.1] = IGNORE
    weights = rng.integers(1, 3, size=(13, 17)).astype(np.float64)
    return logits, labels, weights


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ce_bytes_do_not_depend_on_thread_count(dtype):
    logits, labels, weights = tied_ce_case(dtype)
    pixel = np.sort(_ce_pixel_losses(logits, labels, weights, IGNORE))[::-1]
    k = math.ceil(0.15 * np.count_nonzero(labels != IGNORE))
    assert pixel[k - 2] == pixel[k - 1] == pixel[k]  # ties straddle the K-th loss
    want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 0.15)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
    try:
        for threads in (1, 2, 3):
            for block in (1, 3, 64):
                with mock.patch.object(core, "_block_threads", lambda: threads), \
                        mock.patch.object(losses, "_CE_BLOCK", block), \
                        mock.patch.object(losses, "_CE_INPUT_BLOCK", block):
                    got = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
                assert repr(got.value) == repr(want.value), (threads, block)
                assert got.gradient.tobytes() == want.gradient.tobytes(), (threads, block)
    finally:
        sys.setswitchinterval(interval)


def test_block_runner_runs_every_block_once_caller_takes_residue_zero():
    for threads in (1, 2, 3):
        for count in (1, 2, 3, 10):
            ran = []
            def body(j):
                ran.append((j, threading.current_thread() is threading.main_thread()))
            with mock.patch.object(core, "_block_threads", lambda: threads):
                core._run_blocks(body, count)
            assert sorted(j for j, _ in ran) == list(range(count))
            used = min(threads, count)
            assert all(in_caller == (j % used == 0) for j, in_caller in ran)


def test_block_runner_one_thread_or_one_block_makes_no_pool():
    with mock.patch.object(core, "_block_pool", None):
        with mock.patch.object(core, "_block_threads", lambda: 1):
            core._run_blocks(lambda j: None, 5)
        with mock.patch.object(core, "_block_threads", lambda: 3):
            core._run_blocks(lambda j: None, 1)
        assert core._block_pool is None
        with mock.patch.object(core, "_block_threads", lambda: 2):
            core._run_blocks(lambda j: None, 2)
        assert core._block_pool is not None


def test_ce_threads_is_capped_by_the_cpus_available():
    for system, want in (
        (SimpleNamespace(sched_getaffinity=lambda pid: set(range(64))), 4),
        (SimpleNamespace(sched_getaffinity=lambda pid: {5}), 1),
        (SimpleNamespace(cpu_count=lambda: 3), 3),  # no affinity call
        (SimpleNamespace(cpu_count=lambda: None), 1),
    ):
        with mock.patch.object(core, "os", system):
            assert core._block_threads() == want


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
@pytest.mark.parametrize("threads", [2, 3])
def test_ce_raises_the_earliest_blocks_error(threads):
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(6, 10, 3))
    labels = np.zeros((6, 10), dtype=np.int64)
    weights = np.ones((6, 10))
    overflow, nan = logits.copy(), logits.copy()
    overflow[1, 4, :2] = 1e308, -1e308  # block 4 of 3-pixel blocks
    overflow[5, 8, 1] = np.nan  # block 19
    nan[1, 4, 1] = np.nan
    nan[5, 8, :2] = 1e308, -1e308
    with mock.patch.object(core, "_block_threads", lambda: threads), \
            mock.patch.object(losses, "_CE_BLOCK", 3):
        for _ in range(20):
            with pytest.raises(ValueError, match="each pixel's range below"):
                weighted_bootstrapped_ce(overflow, labels, weights, IGNORE)
            with pytest.raises(ValueError, match=r"logits must be finite \(no NaN or inf\)"):
                weighted_bootstrapped_ce(nan, labels, weights, IGNORE)


# The CE's faults in the order it raises them: the input checks, then the
# logits.
CE_FAULTS = [
    "weights must be finite",
    "weights must be >= 0",
    "all pixels carry the ignore label",
    "labels contain indices outside",
    "logits must be finite",
]
CE_FAULT_PAIRS = [
    (first, later)
    for i, first in enumerate(CE_FAULTS)
    for later in CE_FAULTS[i + 1 :]
    # Every label ignored leaves no label out of range.
    if (first, later) != (CE_FAULTS[2], CE_FAULTS[3])
]


def put_ce_fault(fault, logits, labels, weights, pixel):
    """One of CE_FAULTS at the flat ``pixel``; the ignore label at every pixel."""
    if fault == CE_FAULTS[0]:
        weights.flat[pixel] = np.nan
    elif fault == CE_FAULTS[1]:
        weights.flat[pixel] = -1.0
    elif fault == CE_FAULTS[2]:
        labels[...] = IGNORE
    elif fault == CE_FAULTS[3]:
        labels.flat[pixel] = logits.shape[2]
    else:
        logits.reshape(-1, logits.shape[2])[pixel, 1] = np.nan


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("first, later", CE_FAULT_PAIRS)
def test_ce_raises_the_first_checks_error_from_any_block(first, later, threads):
    rng = np.random.default_rng(14)
    size = 6 * 10
    for first_at, later_at in ((size - 1, 0), (0, size - 1)):
        logits = rng.normal(size=(6, 10, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=(6, 10))
        weights = np.ones((6, 10), dtype=np.float32)
        # The ignore label goes in first, so that it keeps the other fault.
        for fault, at in sorted([(first, first_at), (later, later_at)], key=lambda f: f[0] != CE_FAULTS[2]):
            put_ce_fault(fault, logits, labels, weights, at)
        with mock.patch.object(core, "_block_threads", lambda: threads), \
                mock.patch.object(losses, "_CE_BLOCK", 3), \
                mock.patch.object(losses, "_CE_INPUT_BLOCK", 3):
            for _ in range(5):
                with pytest.raises(ValueError, match=first):
                    weighted_bootstrapped_ce(logits, labels, weights, IGNORE)


def test_ce_worker_blocks_run_under_the_callers_errstate():
    # A worker thread does not inherit np.errstate on its own: the overflow
    # in block 1, a worker's, would then warn and fail the range check.
    logits = np.zeros((2, 3, 2))
    logits[1, 2] = 1e308, -1e308  # pixel 5: block 1 of 3-pixel blocks
    labels = np.zeros((2, 3), dtype=np.int64)
    with mock.patch.object(core, "_block_threads", lambda: 2), \
            mock.patch.object(losses, "_CE_BLOCK", 3), np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            weighted_bootstrapped_ce(logits, labels, np.ones((2, 3)), IGNORE)


def _ce_in_forked_child(logits, labels, weights, want):
    got = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
    if got.gradient.tobytes() != want:
        raise SystemExit(1)


def test_ce_in_a_forked_child_after_a_call_in_the_parent():
    logits, labels, weights = tied_ce_case(np.float64)
    with mock.patch.object(core, "_block_threads", lambda: 2), \
            mock.patch.object(losses, "_CE_BLOCK", 8):
        want = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
        assert core._block_pool is not None  # the child inherits a used pool
        child = multiprocessing.get_context("fork").Process(
            target=_ce_in_forked_child,
            args=(logits, labels, weights, want.gradient.tobytes()),
        )
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the CE hung in a forked child")
    assert child.exitcode == 0


def test_ce_rejects_float_labels():
    logits = np.zeros((2, 2, 3))
    labels = np.array([[0.0, 1.7], [2.2, 0.5]])
    with pytest.raises(ValueError, match="labels must hold integer"):
        weighted_bootstrapped_ce(logits, labels, np.ones((2, 2)), IGNORE)


def test_mse_zero_when_equal():
    rng = np.random.default_rng(0)
    pred = rng.random((5, 5))
    loss = mse_heatmap_loss(pred, pred.copy())
    assert loss.value == 0.0
    assert (loss.gradient == 0).all()


def test_mse_single_pixel_error():
    for height, width in ((4, 4), (3, 7)):
        target = np.zeros((height, width))
        target[1, 2] = 1.0
        loss = mse_heatmap_loss(np.zeros((height, width)), target)
        assert loss.value == pytest.approx(1.0 / (height * width), rel=1e-15)


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    pred = rng.random((8, 8))
    target = rng.random((8, 8))
    grad = mse_heatmap_loss(pred, target).gradient
    step = 1e-4
    for idx in [(0, 0), (3, 5), (7, 7), (2, 1)]:
        plus, minus = pred.copy(), pred.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (
            mse_heatmap_loss(plus, target).value - mse_heatmap_loss(minus, target).value
        ) / (2 * step)
        assert relative_error(grad[idx], fd) < 1e-5


def test_l1_zero_when_equal():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(4, 4, 2))
    mask = np.ones((4, 4), dtype=bool)
    assert l1_offset_loss(pred, pred.copy(), mask).value == 0.0


def test_l1_single_pixel():
    pred = np.zeros((4, 4, 2))
    target = np.zeros((4, 4, 2))
    mask = np.zeros((4, 4), dtype=bool)
    mask[2, 2] = True
    pred[2, 2] = (1.0, -2.0)
    loss = l1_offset_loss(pred, target, mask)
    assert loss.value == 3.0
    assert loss.gradient[2, 2, 0] == 1.0 and loss.gradient[2, 2, 1] == -1.0


def test_l1_ignores_stuff_pixels():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(4, 4, 2))
    target = rng.normal(size=(4, 4, 2))
    mask = rng.random((4, 4)) < 0.5
    base = l1_offset_loss(pred, target, mask).value
    perturbed = pred.copy()
    perturbed[~mask] += 100.0
    assert l1_offset_loss(perturbed, target, mask).value == base


def test_l1_empty_mask_is_zero():
    pred = np.ones((3, 3, 2))
    target = np.zeros((3, 3, 2))
    mask = np.zeros((3, 3), dtype=bool)
    loss = l1_offset_loss(pred, target, mask)
    assert loss.value == 0.0
    assert (loss.gradient == 0).all()


def test_total_loss_examples():
    def scalar(v):
        return LossValue(value=v)

    assert total_loss(scalar(0), scalar(0), scalar(0)) == 0.0
    assert total_loss(scalar(1.0), scalar(0.01), scalar(100.0)) == pytest.approx(4.0)


def test_total_loss_monotone():
    base = total_loss(LossValue(1.0), LossValue(1.0), LossValue(1.0))
    assert total_loss(LossValue(1.1), LossValue(1.0), LossValue(1.0)) > base
    assert total_loss(LossValue(1.0), LossValue(1.1), LossValue(1.0)) > base
    assert total_loss(LossValue(1.0), LossValue(1.0), LossValue(1.1)) > base


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_heatmap=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lambda_heatmap", "lambda_offset"])
def test_loss_weights_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LossWeights(**{field: value})


def test_gradients_finite_on_random_inputs():
    rng = np.random.default_rng(3)
    logits = rng.normal(0, 10, size=(6, 6, 4))
    labels = rng.integers(0, 4, size=(6, 6))
    weights = rng.uniform(0, 3, size=(6, 6))
    ce = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
    assert np.isfinite(ce.gradient).all() and ce.value >= 0
    mse = mse_heatmap_loss(rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))
    assert np.isfinite(mse.gradient).all() and mse.value >= 0
    l1 = l1_offset_loss(
        rng.normal(size=(6, 6, 2)), rng.normal(size=(6, 6, 2)), rng.random((6, 6)) < 0.5
    )
    assert np.isfinite(l1.gradient).all() and l1.value >= 0


def l1_offset_loss_reference(pred, target, thing_mask, with_gradient=True):
    """``l1_offset_loss`` as first written: full-grid float64 copies, the
    difference masked afterwards."""
    diff = pred.astype(np.float64) - target.astype(np.float64)
    mask = thing_mask.astype(bool)
    count = int(mask.sum())
    total = float(np.abs(diff[mask]).sum(dtype=np.float64)) if count else 0.0
    value = total / max(1, count)
    gradient = None
    if with_gradient:
        gradient = np.zeros_like(diff)
        if count:
            gradient[mask] = np.sign(diff[mask]) / count
    return LossValue(value=value, gradient=gradient)


@st.composite
def offset_cases(draw):
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Magnitudes over ~2**-40..2**20, so the float64 sum rounds and its
    # value depends on the order of the terms.
    scale = np.exp2(rng.uniform(-40, 20, size=(height, width, 2)))
    pred = (rng.normal(size=(height, width, 2)) * scale).astype(dtype)
    target = (rng.normal(size=(height, width, 2)) * scale).astype(dtype)
    same = rng.random((height, width)) < 0.2  # zero differences: sign 0
    target[same] = pred[same]
    mask = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    mask = mask.astype(draw(st.sampled_from([bool, np.uint16])))
    return pred, target, mask


@settings(max_examples=200, deadline=None)
@given(case=offset_cases())
def test_l1_equals_full_grid_reference(case):
    pred, target, mask = case
    got = l1_offset_loss(pred, target, mask)
    want = l1_offset_loss_reference(pred, target, mask)
    assert repr(got.value) == repr(want.value)
    assert got.gradient.dtype == want.gradient.dtype
    assert got.gradient.tobytes() == want.gradient.tobytes()
    assert repr(l1_offset_loss(pred, target, mask, with_gradient=False).value) == repr(want.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pred", "target"])
def test_l1_non_finite_at_thing_pixel_raises(bad, where):
    pred, target = np.zeros((3, 4, 2)), np.ones((3, 4, 2))
    mask = np.zeros((3, 4), dtype=bool)
    mask[1, 2] = True
    {"pred": pred, "target": target}[where][1, 2, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        l1_offset_loss(pred, target, mask)


def test_l1_non_finite_outside_mask_ignored():
    pred, target = np.zeros((3, 4, 2)), np.ones((3, 4, 2))
    mask = np.zeros((3, 4), dtype=bool)
    mask[1, 2] = True
    base = l1_offset_loss(pred, target, mask)
    pred[0, 0], target[2, 3, 1] = np.nan, np.inf
    loss = l1_offset_loss(pred, target, mask)
    assert loss.value == base.value == 2.0
    assert loss.gradient.tobytes() == base.gradient.tobytes()


def test_l1_rejects_a_grid_that_is_not_offsets():
    with pytest.raises(ValueError, match=r"\(H, W, 2\)"):
        l1_offset_loss(np.zeros((3, 4, 3)), np.zeros((3, 4, 3)), np.ones((3, 4), bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pred", "target"])
def test_mse_non_finite_raises(bad, where):
    pred, target = np.zeros((3, 4), np.float32), np.ones((3, 4), np.float32)
    {"pred": pred, "target": target}[where][2, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        mse_heatmap_loss(pred, target)


def test_mse_difference_bits_unchanged():
    rng = np.random.default_rng(11)
    pred = rng.random((17, 23)).astype(np.float32)
    target = rng.random((17, 23))
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = mse_heatmap_loss(pred, target)
    assert repr(loss.value) == repr(float((diff * diff).sum(dtype=np.float64) / diff.size))
    assert loss.gradient.tobytes() == ((2.0 / diff.size) * diff).tobytes()


def ce_with_path(logits, labels, weights, fraction=0.15, with_gradient=True):
    """The CE and the path it took: "filter" when the float32 filter gave
    candidates, "full" when every pixel ran the exact pass."""
    results = []
    candidates = losses._ce_candidates

    def spy(*args):
        results.append(candidates(*args))
        return results[-1]

    with mock.patch.object(losses, "_ce_candidates", spy):
        got = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, fraction, with_gradient)
    return got, "filter" if results and results[0] is not None else "full"


def full_pass(logits, labels, weights, fraction=0.15):
    """The CE with the filter turned off: the exact pass over every pixel."""
    with mock.patch.object(losses, "_ce_candidates", lambda *args: None):
        return weighted_bootstrapped_ce(logits, labels, weights, IGNORE, fraction)


def assert_equals_oracle(got, logits, labels, weights, fraction=0.15):
    want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, fraction)
    assert repr(got.value) == repr(want.value)
    assert got.gradient.tobytes() == want.gradient.tobytes()


def normal_case(height=64, width=96, num_classes=19, seed=21):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 1, size=(height, width, num_classes)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=(height, width))
    labels[rng.random((height, width)) < 0.05] = IGNORE
    weights = np.where(rng.random((height, width)) < 0.1, 3.0, 1.0)
    return logits, labels, weights


def test_ce_filter_path_runs_on_normal_float32_logits():
    logits, labels, weights = normal_case()
    for with_gradient in (True, False):
        got, path = ce_with_path(logits, labels, weights, with_gradient=with_gradient)
        assert path == "filter"
        want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 0.15, with_gradient)
        assert repr(got.value) == repr(want.value)
        if with_gradient:
            assert got.gradient.tobytes() == want.gradient.tobytes()


def test_ce_filter_refines_few_pixels():
    logits, labels, weights = normal_case()
    rows = []
    shifted_logits = losses._shifted_logits

    def count(block):
        rows.append(len(block))
        return shifted_logits(block)

    with mock.patch.object(losses, "_shifted_logits", count):
        weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)
    valid = np.count_nonzero(labels != IGNORE)
    assert math.ceil(0.15 * valid) <= sum(rows) < 0.5 * labels.size


@pytest.mark.parametrize("case", ["float64", "all-equal", "share-above-half", "classes-above-512"])
def test_ce_falls_back_to_the_full_pass(case):
    logits, labels, weights = normal_case()
    fraction = 0.15
    if case == "float64":
        logits = logits.astype(np.float64)
    elif case == "all-equal":
        logits[:] = 0.5
    elif case == "share-above-half":
        fraction = 0.6
    else:
        logits, labels, weights = normal_case(4, 5, 513)
    got, path = ce_with_path(logits, labels, weights, fraction)
    assert path == "full"
    assert_equals_oracle(got, logits, labels, weights, fraction)


@st.composite
def filter_rows(draw):
    """float32 rows with their labels and weights: normal logits, +-60
    margins, and rows with a channel up to 88.7 above the label, where the
    float32 exp nears overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 64))
    num_classes = draw(st.sampled_from([1, 2, 5, 19, 133, 512]))
    kind = draw(st.sampled_from(["normal", "margin", "near-overflow"]))
    labels = rng.integers(0, num_classes, size=rows)
    if kind == "normal":
        logits = rng.normal(0, draw(st.sampled_from([0.1, 1.0, 4.0, 30.0])), (rows, num_classes))
    elif kind == "margin":
        logits = rng.integers(-1, 2, size=(rows, num_classes)) * 60.0
    else:
        logits = rng.normal(0, 1, (rows, num_classes))
        logits[np.arange(rows), rng.integers(0, num_classes, rows)] += rng.uniform(80, 88.7, rows)
    logits = logits.astype(np.float32)
    weights = rng.choice([0.0, 1.0, 3.0, float(rng.uniform(0, 5)), 1e-300, 1e30], size=rows)
    return logits, labels, weights


@settings(max_examples=300, deadline=None)
@given(case=filter_rows())
def test_ce_filter_error_is_within_a_sixteenth_of_its_slack(case):
    logits, labels, weights = case
    with np.errstate(all="ignore"):  # as in the filter
        log_sum, finite = losses._label_log_sum_exp(logits, labels)
    assert finite
    exact = _ce_pixel_losses(logits[None], labels[None], weights[None], -1)  # none ignored
    with np.errstate(over="ignore", invalid="ignore"):
        approx = weights * log_sum
        lower, upper = losses._loss_bounds(weights, log_sum)
    used = np.isfinite(upper.astype(np.float32))  # elsewhere the filter gives up
    assert (np.abs(approx - exact)[used] <= (upper - lower)[used] / 32).all()  # delta / 16
    assert (lower.astype(np.float32) <= exact)[used].all()
    assert (exact <= upper.astype(np.float32))[used].all()


def ties_case():
    """40% of the pixels share one hard row, so the K-th loss, K = 15% of
    the valid pixels, falls among thousands of ties."""
    logits, labels, weights = normal_case(80, 100, seed=22)
    labels[labels == IGNORE] = 0
    logits[np.arange(80)[:, None], np.arange(100), labels] += np.float32(6.0)
    hard = np.random.default_rng(23).random((80, 100)) < 0.4
    logits[hard] = logits[hard][0]
    labels[hard] = labels[hard][0]
    weights[hard] = 1.0
    logits[hard, labels[hard][0]] -= np.float32(8.0)
    return logits, labels, weights


def adversarial_cases():
    ties = ties_case()
    logits, labels, weights = normal_case(seed=24)
    many_ignored = labels.copy()
    many_ignored[np.random.default_rng(25).random(labels.shape) < 0.7] = IGNORE
    one_valid = np.full_like(labels, IGNORE)
    one_valid[40, 50] = 3
    one_weight = np.zeros_like(weights)
    one_weight[10, 20] = 2.0
    return {
        "ties": (*ties, 0.15),
        "fraction-one": (logits, many_ignored, weights, 1.0),
        "fraction-1e-9": (logits, labels, weights, 1e-9),
        "one-valid-pixel": (logits, one_valid, weights, 0.15),
        "zero-weights-but-one": (logits, labels, one_weight, 0.15),
    }


@pytest.mark.parametrize("name", list(adversarial_cases()))
def test_ce_adversarial_cases_equal_the_oracle(name):
    logits, labels, weights, fraction = adversarial_cases()[name]
    got, path = ce_with_path(logits, labels, weights, fraction)
    if name == "ties":
        k = math.ceil(fraction * np.count_nonzero(labels != IGNORE))
        pixel = np.sort(_ce_pixel_losses(logits, labels, weights, IGNORE))[::-1]
        assert np.count_nonzero(pixel == pixel[k - 1]) > 1000
    if name != "zero-weights-but-one":  # every zero loss ties: the share is above half
        assert path == "filter"
    assert_equals_oracle(got, logits, labels, weights, fraction)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ce_non_finite_logit_off_the_label_of_an_ignored_pixel_raises(value):
    logits, labels, weights = normal_case()
    labels[30, 40] = IGNORE
    logits[30, 40, 7] = value  # channel 0 is the one the filter shifts by
    with pytest.raises(ValueError, match="logits must be finite"):
        weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 0.15)


def margin_case():
    """+-60 margins: the filter's float32 exp overflows on some rows."""
    rng = np.random.default_rng(26)
    logits = (rng.integers(-1, 2, size=(40, 50, 7)) * 60.0).astype(np.float32)
    labels = rng.integers(0, 7, size=(40, 50))
    return logits, labels, np.ones((40, 50))


def deep_margin_case():
    """Half of the pixels made easy, with a channel 800 below the label's
    logit: the exact pass's float64 exp underflows there, while the
    filter, which leaves them out, sees a finite 0."""
    logits, labels, weights = normal_case()
    easy = np.flatnonzero(np.random.default_rng(30).random(labels.size) < 0.5)
    rows = logits.reshape(-1, 19)[easy]
    channel = np.where(labels.reshape(-1)[easy] == IGNORE, 0, labels.reshape(-1)[easy])
    at = np.arange(easy.size)
    rows[at, channel] += np.float32(10.0)
    rows[at, (channel + 1) % 19] = rows[at, channel] - np.float32(800.0)
    logits.reshape(-1, 19)[easy] = rows
    return logits, labels, weights


def heavy_weight_case():
    """Weights near the float64 max: the exact pass's product overflows."""
    logits, labels, weights = normal_case()
    weights[5, 6] = 1e308
    return logits, labels, weights


CE_SIGNAL_CASES = {
    "normal": normal_case,
    "margins": margin_case,
    "deep-margins": deep_margin_case,
    "heavy-weight": heavy_weight_case,
}


def ce_outcome(call):
    """The CE's value and gradient bytes, or the exception it raised, with
    the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loss = call()
            outcome = (repr(loss.value), loss.gradient.tobytes())
        except (ValueError, FloatingPointError, RuntimeWarning) as e:
            outcome = (type(e), str(e))
    return outcome, sorted(str(w.message) for w in caught)


@pytest.mark.parametrize("name", list(CE_SIGNAL_CASES))
def test_ce_warns_exactly_as_the_full_pass(name):
    logits, labels, weights = CE_SIGNAL_CASES[name]()
    got = ce_outcome(lambda: weighted_bootstrapped_ce(logits, labels, weights, IGNORE))
    assert got == ce_outcome(lambda: full_pass(logits, labels, weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under python -W error
        assert ce_outcome(lambda: weighted_bootstrapped_ce(logits, labels, weights, IGNORE)) \
            == ce_outcome(lambda: full_pass(logits, labels, weights))


@pytest.mark.parametrize("under", ["raise", "ignore"])
@pytest.mark.parametrize("name", list(CE_SIGNAL_CASES))
def test_ce_raises_under_errstate_exactly_as_the_full_pass(name, under):
    logits, labels, weights = CE_SIGNAL_CASES[name]()
    with np.errstate(all="raise", under=under):
        got = ce_outcome(lambda: weighted_bootstrapped_ce(logits, labels, weights, IGNORE))
        want = ce_outcome(lambda: full_pass(logits, labels, weights))
    assert got == want
    raised = isinstance(want[0][0], type)
    assert raised == (name == "heavy-weight" or (name == "deep-margins" and under == "raise"))


def test_ce_filter_path_bytes_do_not_depend_on_thread_count():
    rng = np.random.default_rng(27)
    logits = rng.normal(0, 3, size=(23, 29, 19)).astype(np.float32)
    labels = rng.integers(0, 19, size=(23, 29))
    labels[rng.random((23, 29)) < 0.05] = IGNORE
    weights = rng.integers(0, 4, size=(23, 29)).astype(np.float32)
    want = bootstrapped_ce_oracle(logits, labels, weights, IGNORE, 0.15)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
    try:
        for threads in (1, 2, 3):
            for block in (1, 3, 64):
                with mock.patch.object(core, "_block_threads", lambda: threads), \
                        mock.patch.object(losses, "_CE_BLOCK", block):
                    got, path = ce_with_path(logits, labels, weights)
                assert path == "filter", (threads, block)
                assert repr(got.value) == repr(want.value), (threads, block)
                assert got.gradient.tobytes() == want.gradient.tobytes(), (threads, block)
    finally:
        sys.setswitchinterval(interval)


def test_ce_filter_path_on_a_strided_view_of_the_logits():
    rng = np.random.default_rng(28)
    wide = rng.normal(0, 1, size=(30, 40, 32)).astype(np.float32)
    logits = wide[..., 5:24]  # rows of 19 channels, 32 apart
    labels = rng.integers(0, 19, size=(30, 40))
    weights = np.ones((30, 40))
    got, path = ce_with_path(logits, labels, weights)
    assert path == "filter"
    assert_equals_oracle(got, logits, labels, weights)
