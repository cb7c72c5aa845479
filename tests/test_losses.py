import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panopticore import losses
from panopticore.losses import (
    LossValue,
    LossWeights,
    l1_offset_loss,
    mse_heatmap_loss,
    total_loss,
    weighted_bootstrapped_ce,
)
from panopticore.selftest import bootstrapped_ce_oracle, relative_error, topk_ce_oracle

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
    # Independent sort-and-average oracle over the same per-pixel losses.
    per_pixel = weights.reshape(-1) * math.log(2)
    assert loss.value == pytest.approx(topk_ce_oracle(per_pixel, 0.5), rel=1e-12)


def test_ce_fraction_one_equals_plain_weighted_ce():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 6, 4))
    labels = rng.integers(0, 4, size=(6, 6))
    weights = rng.uniform(0.1, 2.0, size=(6, 6))
    loss = weighted_bootstrapped_ce(logits, labels, weights, IGNORE, 1.0)
    # Plain weighted CE: mean of weighted per-pixel losses, via the oracle.
    log_probs = logits - logits.max(-1, keepdims=True)
    log_probs = log_probs - np.log(np.exp(log_probs).sum(-1, keepdims=True))
    per_pixel = -weights * np.take_along_axis(log_probs, labels[..., None], -1)[..., 0]
    assert loss.value == pytest.approx(topk_ce_oracle(per_pixel.reshape(-1), 1.0), rel=1e-12)


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
    with mock.patch.object(losses, "_CE_BLOCK", block):
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
    with pytest.raises(ValueError):
        LossWeights(top_k_fraction=0)
    with pytest.raises(ValueError):
        LossWeights(top_k_fraction=1.5)


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
