import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panopticore import postprocess
from panopticore.core import InstanceCenter, decode_panoptic_id
from panopticore.postprocess import (
    PanopticResult,
    extract_centers,
    filter_small_stuff,
    group_pixels,
    keypoint_nms,
    merge_panoptic,
    panoptic_inference,
    score_instances,
    thing_mask_from_semantic,
)
from panopticore.selftest import (
    _labels_outcome,
    class_scores_oracle,
    exact_inputs,
    group_oracle,
    nms_oracle,
    probability_labels_oracle,
    random_scored_result,
    random_valid_map,
)
from panopticore.synth import bench_inputs, make_spec, random_scene

SPEC = make_spec(num_stuff=2, num_things=2)
STUFF = sorted(SPEC.stuff_ids)
THING = sorted(SPEC.thing_ids)


# ---------------------------------------------------------------------------
# keypoint_nms


def test_nms_single_peak_preserved():
    heatmap = np.zeros((9, 9), dtype=np.float32)
    heatmap[4, 4] = 0.7
    out = keypoint_nms(heatmap, 7)
    assert out[4, 4] == np.float32(0.7)
    out[4, 4] = 0
    assert (out == 0).all()


def test_nms_suppresses_smaller_neighbor():
    heatmap = np.zeros((9, 9), dtype=np.float32)
    heatmap[4, 4] = 0.9
    heatmap[4, 6] = 0.5  # inside the 7x7 window of the peak and vice versa
    out = keypoint_nms(heatmap, 7)
    assert out[4, 4] == np.float32(0.9)
    assert out[4, 6] == 0.0


def test_nms_plateau_survives():
    heatmap = np.full((5, 5), 0.3, dtype=np.float32)
    out = keypoint_nms(heatmap, 3)
    assert np.array_equal(out, heatmap)


def test_nms_kernel_one_is_identity():
    rng = np.random.default_rng(0)
    heatmap = rng.random((6, 6)).astype(np.float32)
    assert np.array_equal(keypoint_nms(heatmap, 1), heatmap)


def test_nms_even_kernel_rejected():
    with pytest.raises(ValueError):
        keypoint_nms(np.zeros((4, 4), dtype=np.float32), 4)


def test_nms_matches_bruteforce_scan():
    rng = np.random.default_rng(42)
    for _ in range(50):
        heatmap = rng.random((16, 16)).astype(np.float32)
        for kernel in (1, 3, 5, 7):
            assert np.array_equal(
                keypoint_nms(heatmap, kernel), nms_oracle(heatmap, kernel)
            )


@settings(max_examples=50, deadline=None)
@given(
    heatmap=hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.floats(0, 1, width=32),
    ),
    kernel=st.sampled_from([1, 3, 5, 7]),
)
def test_nms_is_pointwise_filter(heatmap, kernel):
    out = keypoint_nms(heatmap, kernel)
    nonzero = out != 0
    assert np.array_equal(out[nonzero], heatmap[nonzero])


@st.composite
def peak_heatmaps(draw):
    """Values in {0, 0.25, ..., 1}: plateaus and ties everywhere, and peaks
    anywhere, borders included."""
    shape = draw(st.tuples(st.integers(1, 14), st.integers(1, 14)))
    levels = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 4)))
    return levels.astype(np.float32) / 4


@settings(max_examples=300, deadline=None)
@given(
    heatmap=peak_heatmaps(),
    kernel=st.sampled_from([1, 3, 5, 7, 9]),
    threshold=st.sampled_from([0.0, 0.1, 0.5, 0.8]),
    top_k=st.integers(1, 6) | st.just(200),
)
def test_candidate_peaks_equal_nms_then_extract(heatmap, kernel, threshold, top_k):
    want = extract_centers(keypoint_nms(heatmap, kernel), threshold, top_k)
    assert postprocess._peak_centers(heatmap, kernel, threshold, top_k) == want
    # Again with the density fallback off, so every case runs the candidate
    # search, threshold 0 included.
    with mock.patch.object(postprocess, "_PEAK_DENSITY", math.inf):
        assert postprocess._peak_centers(heatmap, kernel, threshold, top_k) == want


def test_dense_candidates_fall_back_to_the_full_filter():
    heatmap = np.random.default_rng(3).random((32, 32)).astype(np.float32)
    with mock.patch.object(postprocess, "keypoint_nms", wraps=keypoint_nms) as nms:
        dense = postprocess._peak_centers(heatmap, 7, 0.0, 200)
        assert nms.call_count == 1
        sparse = postprocess._peak_centers(heatmap, 7, 0.99, 200)
        assert nms.call_count == 1
    assert dense == extract_centers(keypoint_nms(heatmap, 7), 0.0, 200)
    assert sparse == extract_centers(keypoint_nms(heatmap, 7), 0.99, 200)
    assert postprocess._peak_centers(np.asfortranarray(heatmap), 7, 0.99, 200) == sparse


# ---------------------------------------------------------------------------
# extract_centers


def test_extract_filters_and_sorts():
    heatmap = np.zeros((4, 4), dtype=np.float32)
    heatmap[0, 0] = 0.9  # A
    heatmap[1, 1] = 0.5  # B
    heatmap[2, 2] = 0.05  # C, below threshold
    centers = extract_centers(heatmap, threshold=0.1, top_k=200)
    assert [(c.row, c.col) for c in centers] == [(0.0, 0.0), (1.0, 1.0)]
    assert centers[0].score == pytest.approx(0.9)


def test_extract_truncates_to_top_k():
    heatmap = np.zeros((4, 4), dtype=np.float32)
    heatmap[0, 0] = 0.9
    heatmap[1, 1] = 0.5
    centers = extract_centers(heatmap, threshold=0.1, top_k=1)
    assert len(centers) == 1 and centers[0].row == 0.0


def test_extract_all_below_threshold_empty():
    heatmap = np.full((4, 4), 0.1, dtype=np.float32)  # strict >, so none pass
    assert extract_centers(heatmap, threshold=0.1, top_k=5) == []


def test_extract_ties_row_major():
    heatmap = np.zeros((4, 4), dtype=np.float32)
    heatmap[2, 1] = 0.5
    heatmap[0, 3] = 0.5
    heatmap[2, 0] = 0.5
    centers = extract_centers(heatmap, threshold=0.1, top_k=2)
    assert [(c.row, c.col) for c in centers] == [(0.0, 3.0), (2.0, 0.0)]


# ---------------------------------------------------------------------------
# thing_mask_from_semantic


def test_thing_mask_all_stuff():
    semantic = np.full((4, 4), STUFF[0], dtype=np.int64)
    assert not thing_mask_from_semantic(semantic, SPEC).any()


def test_thing_mask_region():
    semantic = np.full((4, 4), STUFF[0], dtype=np.int64)
    semantic[1:3, 1:3] = THING[0]
    mask = thing_mask_from_semantic(semantic, SPEC)
    assert mask.sum() == 4 and mask[1, 1] and not mask[0, 0]


def test_thing_mask_counting_oracle():
    rng = np.random.default_rng(5)
    ids = np.array(STUFF + THING + [SPEC.ignore_label])
    for _ in range(20):
        semantic = ids[rng.integers(0, len(ids), size=(12, 12))]
        mask = thing_mask_from_semantic(semantic, SPEC)
        want = sum(int((semantic == t).sum()) for t in THING)
        assert int(mask.sum()) == want


# ---------------------------------------------------------------------------
# group_pixels


def test_group_exact_landing():
    offsets = np.zeros((10, 10, 2), dtype=np.float32)
    mask = np.zeros((10, 10), dtype=bool)
    mask[5, 5] = True
    offsets[5, 5] = (2.0, 0.0)
    centers = [InstanceCenter(7, 5), InstanceCenter(0, 0)]
    out = group_pixels(centers, offsets, mask)
    assert out[5, 5] == 1


def test_group_equidistant_tie_lowest_index():
    offsets = np.zeros((3, 5, 2), dtype=np.float32)
    mask = np.zeros((3, 5), dtype=bool)
    mask[1, 2] = True  # equidistant from (1,0) and (1,4)
    centers = [InstanceCenter(1, 0), InstanceCenter(1, 4)]
    out = group_pixels(centers, offsets, mask)
    assert out[1, 2] == 1
    # Verified against the brute-force loop as well.
    assert np.array_equal(out, group_oracle(centers, offsets, mask))


def test_group_empty_centers_all_zero():
    mask = np.ones((4, 4), dtype=bool)
    out = group_pixels([], np.zeros((4, 4, 2), dtype=np.float32), mask)
    assert (out == 0).all()


def test_group_non_thing_pixels_zero():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    out = group_pixels(
        [InstanceCenter(2, 2)], np.zeros((4, 4, 2), dtype=np.float32), mask
    )
    assert out[0, 0] == 1 and out.sum() == 1


def test_group_matches_bruteforce_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        mask = rng.random((16, 16)) < 0.6
        offsets = rng.normal(0, 4, size=(16, 16, 2)).astype(np.float32)
        centers = [
            InstanceCenter(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        assert np.array_equal(
            group_pixels(centers, offsets, mask), group_oracle(centers, offsets, mask)
        )


def test_group_permutation_invariant_partition():
    rng = np.random.default_rng(13)
    mask = rng.random((12, 12)) < 0.7
    offsets = rng.normal(0, 3, size=(12, 12, 2)).astype(np.float32)
    centers = [
        InstanceCenter(float(rng.uniform(0, 12)), float(rng.uniform(0, 12)))
        for _ in range(4)
    ]
    base = group_pixels(centers, offsets, mask)
    perm = [2, 0, 3, 1]
    permuted = group_pixels([centers[i] for i in perm], offsets, mask)
    # Same pixel partition up to index relabeling.
    relabel = {0: 0}
    for k, original in enumerate(perm):
        relabel[k + 1] = original + 1
    mapped = np.vectorize(relabel.get)(permuted)
    # Ties may resolve differently across permutations; exclude exact ties.
    untied = np.ones_like(base, dtype=bool)
    for r, c in zip(*np.nonzero(mask)):
        lr = r + float(offsets[r, c, 0])
        lc = c + float(offsets[r, c, 1])
        dists = sorted((lr - x.row) ** 2 + (lc - x.col) ** 2 for x in centers)
        if len(dists) > 1 and dists[0] == dists[1]:
            untied[r, c] = False
    assert np.array_equal(base[untied], mapped[untied])


@st.composite
def adversarial_grouping(draw):
    """Small grids whose geometry stresses the per-tile center pruning."""
    tile = draw(st.sampled_from([1, 2, 3, 5, 32]))
    height, width = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    mask = draw(hnp.arrays(np.bool_, (height, width)))
    # Integer or half-integer steps keep every distance exact, so ties are
    # common; the large scales land far outside the grid, beyond its size.
    scale = draw(st.sampled_from([0.5, 1.0, 64.0, 1e4]))
    steps = draw(hnp.arrays(np.int8, (height, width, 2), elements=st.integers(-4, 4)))
    offsets = (steps * scale).astype(np.float32)
    if draw(st.booleans()):
        # Every center inside one tile.
        coord = st.integers(0, tile - 1)
    else:
        coord = st.integers(-12, 22)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    centers = [InstanceCenter(float(r), float(c)) for r, c in points]
    # Mirror a center around a pixel's landing point: an exact tie there.
    for k, pixel in draw(
        st.lists(
            st.tuples(st.integers(0, len(centers) - 1), st.integers(0, height * width - 1)),
            max_size=3,
        )
    ):
        r, c = divmod(pixel, width)
        landing_row = r + float(offsets[r, c, 0])
        landing_col = c + float(offsets[r, c, 1])
        centers.append(
            InstanceCenter(2 * landing_row - centers[k].row, 2 * landing_col - centers[k].col)
        )
    duplicates = draw(st.lists(st.integers(0, len(centers) - 1), max_size=2))
    centers += [centers[k] for k in duplicates]
    order = draw(st.permutations(range(len(centers))))
    return tile, [centers[k] for k in order], offsets, mask


@settings(max_examples=300, deadline=None)
@given(case=adversarial_grouping())
def test_group_pruned_tiles_equal_oracle(case):
    tile, centers, offsets, mask = case
    with mock.patch.object(postprocess, "_GROUP_TILE", tile):
        got = group_pixels(centers, offsets, mask)
    assert np.array_equal(got, group_oracle(centers, offsets, mask))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_group_non_finite_landing_point_rejected(value):
    mask = np.zeros((40, 40), dtype=bool)
    mask[35, 38] = True
    offsets = np.zeros((40, 40, 2), dtype=np.float32)
    offsets[35, 38, 1] = value
    with pytest.raises(ValueError, match="non-finite landing points"):
        group_pixels([InstanceCenter(2, 2), InstanceCenter(30, 30)], offsets, mask)
    # Offsets of non-thing pixels never land anywhere.
    mask[35, 38] = False
    mask[0, 0] = True
    assert group_pixels([InstanceCenter(2, 2)], offsets, mask)[0, 0] == 1


def test_group_non_finite_center_rejected():
    offsets = np.zeros((4, 4, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="center coordinates"):
        group_pixels([InstanceCenter(1, 1), InstanceCenter(np.nan, 2)], offsets,
                     np.ones((4, 4), dtype=bool))


# ---------------------------------------------------------------------------
# merge_panoptic


def test_merge_majority_vote():
    car, bus = THING[0], THING[1]
    semantic = np.full((1, 13), car, dtype=np.int64)
    semantic[0, 10:] = bus
    instance_ids = np.ones((1, 13), dtype=np.int32)
    result = merge_panoptic(semantic, instance_ids, SPEC)
    assert len(result.instances) == 1
    record = result.instances[0]
    assert record.category == car and record.area == 13
    assert (result.panoptic == car * SPEC.label_divisor + 1).all()


def test_merge_vote_tie_smallest_category():
    car, bus = THING[0], THING[1]
    semantic = np.full((1, 10), car, dtype=np.int64)
    semantic[0, 5:] = bus
    instance_ids = np.ones((1, 10), dtype=np.int32)
    result = merge_panoptic(semantic, instance_ids, SPEC)
    assert result.instances[0].category == min(car, bus)


def test_merge_stuff_keeps_semantic():
    road = STUFF[0]
    semantic = np.full((3, 3), road, dtype=np.int64)
    result = merge_panoptic(semantic, np.zeros((3, 3), dtype=np.int32), SPEC)
    assert (result.panoptic == road * SPEC.label_divisor).all()
    assert result.instances == ()


def test_merge_ungrouped_thing_is_void():
    semantic = np.full((2, 2), THING[0], dtype=np.int64)
    result = merge_panoptic(semantic, np.zeros((2, 2), dtype=np.int32), SPEC)
    assert (result.panoptic == SPEC.void_id).all()


def test_merge_ignore_label_is_void():
    semantic = np.full((2, 2), SPEC.ignore_label, dtype=np.int64)
    result = merge_panoptic(semantic, np.zeros((2, 2), dtype=np.int32), SPEC)
    assert (result.panoptic == SPEC.void_id).all()


def test_merge_instance_index_over_divisor_rejected():
    spec = make_spec(num_stuff=1, num_things=1, label_divisor=10)
    semantic = np.full((1, 1), sorted(spec.thing_ids)[0], dtype=np.int64)
    with pytest.raises(ValueError, match="label_divisor"):
        merge_panoptic(semantic, np.full((1, 1), 10, dtype=np.int32), spec)


# ---------------------------------------------------------------------------
# filter_small_stuff


def _stuff_result(area, category, dims=(70, 70), fill=None):
    fill = STUFF[1] if fill is None else fill
    panoptic = np.full(dims, fill * SPEC.label_divisor, dtype=np.int64)
    flat = panoptic.reshape(-1)
    flat[:area] = category * SPEC.label_divisor
    return PanopticResult(panoptic=panoptic, instances=())


def test_filter_small_stuff_below_threshold():
    result = _stuff_result(2000, STUFF[0])
    out = filter_small_stuff(result, SPEC, threshold=2048)
    assert (out.panoptic.reshape(-1)[:2000] == SPEC.void_id).all()
    assert (out.panoptic.reshape(-1)[2000:] != SPEC.void_id).all()


def test_filter_small_stuff_at_threshold_unchanged():
    result = _stuff_result(2048, STUFF[0])
    out = filter_small_stuff(result, SPEC, threshold=2048)
    assert np.array_equal(out.panoptic, result.panoptic)


def test_filter_threshold_zero_identity():
    result = _stuff_result(10, STUFF[0])
    out = filter_small_stuff(result, SPEC, threshold=0)
    assert np.array_equal(out.panoptic, result.panoptic)


def test_filter_leaves_things_alone():
    panoptic = np.full((4, 4), THING[0] * SPEC.label_divisor + 1, dtype=np.int64)
    result = PanopticResult(panoptic=panoptic, instances=())
    out = filter_small_stuff(result, SPEC, threshold=1000)
    assert np.array_equal(out.panoptic, panoptic)


def _filter_small_stuff_reference(result, spec, threshold=None):
    """The full-map body ``filter_small_stuff`` had before it read areas
    from ``segment_table`` and ``panoptic_inference`` filtered in the merge."""
    if threshold is None:
        threshold = spec.stuff_area_threshold
    if threshold <= 0:
        return result
    panoptic = result.panoptic
    category = panoptic // spec.label_divisor
    instance = panoptic % spec.label_divisor
    spec.check_known(category, "panoptic map")
    out = panoptic.copy()
    is_stuff = (instance == 0) & spec.table.stuff[category]
    areas = np.bincount(
        category.reshape(-1)[is_stuff.reshape(-1)],
        minlength=spec.max_known_label + 1,
    )
    small_lut = (areas > 0) & (areas < threshold)
    out[is_stuff & small_lut[category]] = spec.void_id
    return PanopticResult(panoptic=out, instances=result.instances)


def _thresholds_around(areas):
    return sorted({0, 1, max(areas, default=0) + 1} | set(areas) | {a + 1 for a in areas})


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.uint16, np.uint32, np.int64]),
)
def test_filter_small_stuff_equals_reference(seed, dtype):
    # VOID (255 * 100) fits in uint16.
    spec = make_spec(num_stuff=3, num_things=2, label_divisor=100)
    rng = np.random.default_rng(seed)
    panoptic = random_valid_map(rng, spec, *rng.integers(4, 33, size=2))
    # Stuff ids with an instance part are not stuff segments.
    odd = rng.random(panoptic.shape) < 0.05
    panoptic[odd] = sorted(spec.stuff_ids)[1] * spec.label_divisor + 3
    panoptic = panoptic.astype(dtype)
    result = PanopticResult(panoptic=panoptic, instances=())
    areas = [
        int(np.count_nonzero(panoptic == cid * spec.label_divisor)) for cid in spec.stuff_ids
    ]
    present = [a for a in areas if a]
    # None defers to the spec's threshold.
    spec = dataclasses.replace(spec, stuff_area_threshold=min(present, default=0) + 1)
    for threshold in [None] + _thresholds_around(present) + [10**6]:
        got = filter_small_stuff(result, spec, threshold=threshold)
        want = _filter_small_stuff_reference(result, spec, threshold)
        assert got.panoptic.dtype == want.panoptic.dtype == dtype
        assert got.panoptic.tobytes() == want.panoptic.tobytes()
        assert got.instances == want.instances
        assert (got.panoptic[odd] == panoptic[odd]).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.uint8, np.int32, np.int64]),
)
def test_inference_stuff_filter_equals_reference(seed, dtype):
    scene = random_scene(seed, max_size=80)
    semantic, heatmap, offsets = exact_inputs(scene)
    rng = np.random.default_rng(seed)
    # Noisy offsets leave some thing pixels ungrouped (VOID).
    offsets = offsets + rng.normal(0, 2, offsets.shape).astype(offsets.dtype)
    semantic = semantic.astype(dtype)
    params = postprocess.PostprocParams()
    centers = extract_centers(
        keypoint_nms(heatmap, params.nms_kernel), params.center_threshold, params.top_k
    )
    instance_ids = group_pixels(centers, offsets, thing_mask_from_semantic(semantic, scene.spec))
    merged = merge_panoptic(semantic, instance_ids, scene.spec)
    areas = [
        int(np.count_nonzero(merged.panoptic == cid * scene.spec.label_divisor))
        for cid in scene.spec.stuff_ids
    ]
    present = [a for a in areas if a]
    unfiltered = panoptic_inference(semantic, heatmap, offsets, scene.spec, params)
    # None defers to the spec's threshold, here the smallest stuff area + 1.
    spec = dataclasses.replace(scene.spec, stuff_area_threshold=min(present) + 1)
    voided = False
    for threshold in [None] + _thresholds_around(present):
        got = panoptic_inference(
            semantic, heatmap, offsets, spec,
            dataclasses.replace(params, stuff_area_threshold=threshold),
        )
        want = _filter_small_stuff_reference(merged, spec, threshold)
        assert got.panoptic.dtype == want.panoptic.dtype
        assert got.panoptic.tobytes() == want.panoptic.tobytes()
        assert [(r.instance_index, r.category, r.area) for r in got.instances] == [
            (r.instance_index, r.category, r.area) for r in merged.instances
        ]
        assert got.instances == unfiltered.instances
        voided |= bool((want.panoptic != merged.panoptic).any())
    assert voided


# ---------------------------------------------------------------------------
# score_instances


def _one_instance_result():
    panoptic = np.full((2, 2), THING[0] * SPEC.label_divisor + 1, dtype=np.int64)
    from panopticore.postprocess import InstanceRecord

    record = InstanceRecord(instance_index=1, category=THING[0], area=4)
    return PanopticResult(panoptic=panoptic, instances=(record,))


def _probs_for(labels):
    channels = {cid: i for i, cid in enumerate(SPEC.category_ids)}
    probs = np.zeros(labels.shape + (SPEC.num_categories,))
    for cid, ch in channels.items():
        probs[labels == cid, ch] = 1.0
    return probs


def test_score_product_example():
    result = _one_instance_result()
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[0, 0] = THING[1]  # class agreement 3/4
    probs = _probs_for(labels) * 0.5
    probs += 0.5 / SPEC.num_categories  # soften to a proper distribution
    class_score = float(probs[..., SPEC.category_ids.index(THING[0])][labels == THING[0]].mean())
    # Recompute over instance pixels (all 4):
    class_score = float(probs[..., SPEC.category_ids.index(THING[0])].mean())
    scored = score_instances(result, {1: 0.8}, probs, "product", SPEC)
    assert scored.instances[0].score == pytest.approx(0.8 * class_score, rel=1e-12)
    object_only = score_instances(result, {1: 0.8}, None, "objectness", SPEC)
    assert object_only.instances[0].score == pytest.approx(0.8)
    class_only = score_instances(result, None, probs, "class", SPEC)
    assert class_only.instances[0].score == pytest.approx(class_score, rel=1e-12)


def test_score_objectness_times_class_simple():
    result = _one_instance_result()
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[0, 0] = THING[1]  # one disagreeing pixel -> class score 0.75
    scored = score_instances(result, {1: 0.8}, labels, "product", SPEC)
    assert scored.instances[0].score == pytest.approx(0.8 * 0.75)


def test_score_labels_equal_onehot_probs():
    result = _one_instance_result()
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[1, 1] = STUFF[0]
    via_labels = score_instances(result, {1: 1.0}, labels, "class", SPEC)
    via_probs = score_instances(result, {1: 1.0}, _probs_for(labels), "class", SPEC)
    assert via_labels.instances[0].score == via_probs.instances[0].score


def test_score_panoptic_untouched():
    result = _one_instance_result()
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    for mode in ("objectness", "class", "product"):
        scored = score_instances(result, {1: 0.8}, labels, mode, SPEC)
        assert scored.panoptic is result.panoptic


def test_score_missing_probs_rejected():
    result = _one_instance_result()
    with pytest.raises(ValueError, match="requires semantic"):
        score_instances(result, {1: 0.8}, None, "product", SPEC)
    with pytest.raises(ValueError, match="requires center"):
        score_instances(result, None, np.zeros((2, 2), dtype=np.int64), "product", SPEC)


def test_score_bad_probability_rows_rejected():
    result = _one_instance_result()
    probs = np.full((2, 2, SPEC.num_categories), 0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        score_instances(result, {1: 0.8}, probs, "class", SPEC)


def test_score_non_finite_probabilities_named():
    result = _one_instance_result()
    probs = _probs_for(np.full((2, 2), THING[0], dtype=np.int64))
    probs[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        score_instances(result, {1: 0.8}, probs, "class", SPEC)


@pytest.mark.parametrize("seed", range(20))
def test_member_only_class_scores_equal_oracle(seed):
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    result, labels, probs = random_scored_result(rng, spec, 24, 20)
    for semantic in (labels, probs):
        got = postprocess._class_scores(result, semantic, spec)
        assert repr(got) == repr(class_scores_oracle(result, semantic, spec))


def test_class_scores_sparse_ids_equal_oracle():
    # A label_divisor too large for a lookup table over the panoptic ids.
    spec = make_spec(num_stuff=2, num_things=3)
    spec = dataclasses.replace(spec, label_divisor=1 << 40)
    rng = np.random.default_rng(5)
    result, labels, probs = random_scored_result(rng, spec, 12, 12)
    assert any(r.category * spec.label_divisor >= 1 << 20 for r in result.instances)
    for semantic in (labels, probs):
        got = postprocess._class_scores(result, semantic, spec)
        assert repr(got) == repr(class_scores_oracle(result, semantic, spec))


@pytest.mark.parametrize("block", [1, 2, 3, 7, 4096])
def test_blocked_probability_pass_equals_whole_grid(monkeypatch, block):
    monkeypatch.setattr(postprocess, "_PROB_BLOCK", block)
    rng = np.random.default_rng(block)
    probs = rng.random((9, 13, SPEC.num_categories)).astype(np.float32)
    probs[2, 3, :2] = 5.0  # ties go to the lowest channel
    probs /= probs.sum(axis=2, keepdims=True)
    ids = np.asarray(SPEC.category_ids)
    labels = postprocess._probability_labels(probs, ids)
    assert np.array_equal(labels, ids[probs.argmax(axis=2)])
    # Rows just inside and just outside the 1e-5 tolerance: same verdict as
    # the whole-grid float64 sum.
    for scale in (1 + 0.9e-5, 1 + 1.1e-5, 1 - 0.9e-5, 1 - 1.1e-5):
        bad = probs.copy()
        bad[8, 12] *= np.float32(scale)
        sums = bad.sum(axis=2, dtype=np.float64)
        accept = bool(np.all(np.abs(sums - 1.0) <= 1e-5))
        try:
            postprocess._probability_labels(bad, ids)
        except ValueError as e:
            assert not accept and "sum to 1" in str(e)
        else:
            assert accept


def _probability_row(kind, channels, dtype, rng):
    """One pixel's channels of the given kind, as float64 before the cast."""
    info = np.finfo(dtype)
    row = np.zeros(channels)
    last = channels - 1
    if kind == "one_hot":
        row[rng.integers(channels)] = 1.0
    elif kind == "tie_first_last":  # ties at channel 0 and at channel C - 1
        row[[0, last]] = 1.0 if channels == 1 else 0.5
    elif kind == "tie_top":  # the max at channel C - 1 and one random channel
        row[[rng.integers(channels), last]] = 0.5
        row[0] += 1.0 - row.sum()
    elif kind == "uniform":
        row[:] = 1.0 / channels
    elif kind == "random":
        row[:] = rng.integers(0, 4, channels) if rng.random() < 0.5 else rng.random(channels)
        row[0] += row.sum() == 0
        row /= row.sum()
    elif kind == "signed_zeros":
        row[:] = np.where(rng.random(channels) < 0.5, -0.0, 0.0)
        row[rng.integers(channels)] = 1.0
    elif kind == "subnormal":
        row[:] = rng.choice([0.0, info.smallest_subnormal, -info.smallest_subnormal], channels)
        row[rng.integers(channels)] = 1.0
    elif kind == "near_tolerance":  # a few ulps either side of 1 +- 1e-5
        edge = np.asarray(1.0 + rng.choice([1e-5, -1e-5]), dtype=dtype)
        for _ in range(int(rng.integers(-3, 4))):
            edge = np.nextafter(edge, dtype(np.inf if rng.random() < 0.5 else -np.inf))
        row[rng.integers(channels)] = edge
    elif kind == "negative":
        row[rng.integers(channels)] = 1.0
        i, j = rng.integers(channels, size=2)
        shift = rng.choice([0.25, 0.5, 3.0])
        row[i] -= shift
        row[j] += shift
    elif kind == "cancelling":  # big terms whose sum depends on the order
        row[0], row[min(8, last)], row[min(1, last)] = 1e20, -1e20, 1.0
    elif kind == "bad_sum":
        row[rng.integers(channels)] = 2.0
    else:  # a non-finite value in a finite, normalized row
        row[rng.integers(channels)] = 1.0
        row[rng.integers(channels)] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return row


PROBABILITY_ROWS = (
    "one_hot", "tie_first_last", "tie_top", "uniform", "random", "signed_zeros",
    "subnormal", "near_tolerance", "negative", "cancelling", "bad_sum", "nan", "inf", "-inf",
)


@settings(max_examples=300, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 19, 200]),
    height=st.integers(0, 9),
    width=st.integers(1, 9),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    block=st.sampled_from([1, 2, 3, 7, 16384]),
    palette=st.lists(st.sampled_from(PROBABILITY_ROWS), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_probability_labels_equal_oracle(channels, height, width, dtype, block, palette, seed):
    """Labels (bytes and dtype), verdict and message equal the row-sum and
    row-argmax oracle, with faults in earlier or later blocks."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(palette, size=height * width)
    rows = [_probability_row(kind, channels, dtype, rng) for kind in kinds]
    with np.errstate(over="ignore"):  # 1e20 overflows float16 to inf
        probs = np.array(rows, dtype=dtype).reshape(height, width, channels)
    ids = (np.arange(channels) * 3 + 1).astype(np.uint16)
    with mock.patch.object(postprocess, "_PROB_BLOCK", block):
        for with_ids in (ids, None):
            got = _labels_outcome(postprocess._probability_labels, probs, with_ids)
            assert got == _labels_outcome(probability_labels_oracle, probs, with_ids)


@pytest.mark.parametrize(
    "big, small, one",
    [(0, 8, 1),  # numpy's row sum is 1, a channel-by-channel sum 0
     (0, 1, 8)],  # numpy's row sum is 0, a channel-by-channel sum 1
)
def test_probability_check_takes_numpy_verdict_on_order_dependent_sums(big, small, one):
    semantic, heatmap, offsets, spec = bench_inputs(48, 64, 4)
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    np.put_along_axis(probs, spec.table.channel[semantic][..., None], np.float32(1.0), axis=2)
    row = probs[20, 30]
    row[:] = 0
    row[big], row[small], row[one] = 1e20, -1e20, 1.0
    numpy_sum = probs.sum(axis=2, dtype=np.float64)[20, 30]
    channel_sum = 0.0
    for value in row.astype(np.float64):
        channel_sum += value
    assert {numpy_sum, channel_sum} == {0.0, 1.0}
    labels = semantic.copy()
    labels[20, 30] = spec.table.ids[big]
    reference = panoptic_inference(labels, heatmap, offsets, spec)
    for mode in postprocess.SCORE_MODES:
        params = postprocess.PostprocParams(score_mode=mode)
        if numpy_sum == 1.0:
            result = panoptic_inference(probs, heatmap, offsets, spec, params)
            assert result.panoptic.tobytes() == reference.panoptic.tobytes()
        else:
            with pytest.raises(ValueError, match="must sum to 1 per pixel"):
                panoptic_inference(probs, heatmap, offsets, spec, params)
    center_scores = {r.instance_index: 1.0 for r in reference.instances}
    if numpy_sum == 1.0:
        score_instances(reference, center_scores, probs, "class", spec)
    else:
        with pytest.raises(ValueError, match="must sum to 1 per pixel"):
            score_instances(reference, center_scores, probs, "class", spec)


@pytest.mark.parametrize("mode", postprocess.SCORE_MODES)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_inference_rejects_non_finite_probabilities_in_every_mode(mode, value):
    scene = random_scene(31, max_size=64)
    semantic, heatmap, offsets = exact_inputs(scene)
    probs = np.zeros(semantic.shape + (scene.spec.num_categories,), dtype=np.float32)
    channel = np.searchsorted(np.asarray(scene.spec.category_ids), semantic)
    np.put_along_axis(probs, channel[..., None], np.float32(1.0), axis=2)
    probs[-1, -1, 0] = value
    params = postprocess.PostprocParams(score_mode=mode)
    with pytest.raises(ValueError, match="semantic probabilities contain non-finite values"):
        panoptic_inference(probs, heatmap, offsets, scene.spec, params)


# ---------------------------------------------------------------------------
# panoptic_inference


def test_inference_zero_heatmap_only_stuff_and_void():
    scene = random_scene(21, max_size=96)
    semantic, heatmap, offsets = exact_inputs(scene)
    result = panoptic_inference(
        semantic, np.zeros_like(heatmap), offsets, scene.spec
    )
    assert result.instances == ()
    categories = np.unique(result.panoptic // scene.spec.label_divisor)
    for cid in categories:
        assert cid == scene.spec.ignore_label or cid in scene.spec.stuff_ids


def test_inference_deterministic():
    scene = random_scene(22, max_size=96)
    semantic, heatmap, offsets = exact_inputs(scene)
    a = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    b = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    assert a.panoptic.tobytes() == b.panoptic.tobytes()
    assert a.instances == b.instances


def test_inference_probability_input_argmax():
    scene = random_scene(23, max_size=64)
    semantic, heatmap, offsets = exact_inputs(scene)
    probs = np.zeros(semantic.shape + (scene.spec.num_categories,), dtype=np.float64)
    channel = {cid: i for i, cid in enumerate(scene.spec.category_ids)}
    for cid in scene.spec.category_ids:
        probs[semantic == cid, channel[cid]] = 1.0
    # Ignore pixels have no channel; spread uniformly (argmax -> smallest id).
    ignore = semantic == scene.spec.ignore_label
    probs[ignore] = 1.0 / scene.spec.num_categories
    from_probs = panoptic_inference(probs, heatmap, offsets, scene.spec)
    from_labels = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    # Ignore pixels argmax to the smallest category id instead of VOID;
    # everything else must agree.
    agree = ~ignore
    assert np.array_equal(from_probs.panoptic[agree], from_labels.panoptic[agree])


def test_inference_records_carry_centers_and_scores():
    scene = random_scene(24, max_size=96)
    semantic, heatmap, offsets = exact_inputs(scene)
    result = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    assert result.instances
    for record in result.instances:
        assert record.center is not None
        assert record.score > 0
        category, instance = decode_panoptic_id(
            int(record.category * scene.spec.label_divisor + record.instance_index),
            scene.spec.label_divisor,
        )
        assert instance == record.instance_index


def test_inference_dim_mismatch_rejected():
    scene = random_scene(25, max_size=64)
    semantic, heatmap, offsets = exact_inputs(scene)
    with pytest.raises(ValueError):
        panoptic_inference(semantic, heatmap[:-1], offsets, scene.spec)


def test_inference_rejects_non_finite_offset_at_stuff_pixel():
    scene = random_scene(26, max_size=64)
    semantic, heatmap, offsets = exact_inputs(scene)
    row, col = np.argwhere(np.isin(semantic, sorted(scene.spec.stuff_ids)))[0]
    offsets = offsets.copy()
    offsets[row, col, 1] = np.nan
    with pytest.raises(ValueError, match="offsets contains non-finite values"):
        panoptic_inference(semantic, heatmap, offsets, scene.spec)


# ---------------------------------------------------------------------------
# pipeline invariants


def test_result_partitions_image_with_valid_ids():
    scene = random_scene(41, max_size=128)
    semantic, heatmap, offsets = exact_inputs(scene)
    result = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    spec = scene.spec
    categories = result.panoptic // spec.label_divisor
    instances = result.panoptic % spec.label_divisor
    known = set(spec.category_ids) | {spec.ignore_label}
    assert set(np.unique(categories)) <= known
    # Stuff and VOID pixels carry instance part 0.
    stuff_or_void = ~np.isin(categories, sorted(spec.thing_ids))
    assert (instances[stuff_or_void] == 0).all()
    # Every thing pixel's (category, instance) pair matches one record.
    by_index = {r.instance_index: r for r in result.instances}
    thing_pixels = ~stuff_or_void
    for pid in np.unique(result.panoptic[thing_pixels]):
        category, instance = decode_panoptic_id(int(pid), spec.label_divisor)
        assert by_index[instance].category == category
    # Record areas add up to the thing-pixel count.
    assert sum(r.area for r in result.instances) == int(thing_pixels.sum())


def test_grouping_robust_to_small_offset_perturbation():
    # Landing errors below half the minimum center spacing cannot change
    # the partition.
    rng = np.random.default_rng(51)
    height = width = 32
    centers = [
        InstanceCenter(6.0, 6.0),
        InstanceCenter(6.0, 26.0),
        InstanceCenter(26.0, 16.0),
    ]
    min_spacing = min(
        np.hypot(a.row - b.row, a.col - b.col)
        for i, a in enumerate(centers)
        for b in centers[i + 1 :]
    )
    mask = rng.random((height, width)) < 0.7
    offsets = np.zeros((height, width, 2), dtype=np.float32)
    for r in range(height):
        for c in range(width):
            k = rng.integers(0, len(centers))
            offsets[r, c] = (centers[k].row - r, centers[k].col - c)
    base = group_pixels(centers, offsets, mask)
    # Perturb strictly below (min_spacing / 2 - landing_error); landing
    # error is 0 here, keep a margin for float32 storage.
    radius = min_spacing / 2 - 1e-3
    angle = rng.uniform(0, 2 * np.pi, size=(height, width))
    magnitude = rng.uniform(0, radius, size=(height, width))
    perturbed = offsets.copy()
    perturbed[..., 0] += (magnitude * np.cos(angle)).astype(np.float32)
    perturbed[..., 1] += (magnitude * np.sin(angle)).astype(np.float32)
    assert np.array_equal(group_pixels(centers, perturbed, mask), base)


def test_validate_closure_on_inference_output():
    from panopticore.core import validate

    scene = random_scene(42, max_size=96)
    semantic, heatmap, offsets = exact_inputs(scene)
    result = panoptic_inference(semantic, heatmap, offsets, scene.spec)
    assert validate(result.panoptic, scene.spec, "panoptic") == []


def _read_only(array):
    array = array.copy()
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("mode", postprocess.SCORE_MODES)
@pytest.mark.parametrize("kind", ["labels", "probabilities"])
def test_inference_reads_read_only_inputs(mode, kind):
    # fuse hands panoptic_inference read-only arrays mapped over its input
    # files; no stage may write into them, and the result must not change.
    semantic, heatmap, offsets, spec = bench_inputs(96, 160, 24, seed=5)
    semantic = semantic.astype(np.uint16)
    if kind == "probabilities":
        rng = np.random.default_rng(5)
        probs = rng.random(semantic.shape + (spec.num_categories,))
        channel = spec.table.channel[np.minimum(semantic, spec.max_known_label)]
        np.put_along_axis(probs, channel[..., None], 4.0, axis=2)
        semantic = (probs / probs.sum(axis=2, keepdims=True)).astype(np.float32)
    inputs = (semantic, heatmap.astype(np.float32), offsets.astype(np.float32))
    params = postprocess.PostprocParams(score_mode=mode, stuff_area_threshold=64)
    want = panoptic_inference(*inputs, spec, params)
    frozen = [_read_only(a) for a in inputs]
    got = panoptic_inference(*frozen, spec, params)
    assert want.instances
    assert got.panoptic.dtype == want.panoptic.dtype
    assert got.panoptic.tobytes() == want.panoptic.tobytes()
    assert got.instances == want.instances
    assert all(a.tobytes() == b.tobytes() for a, b in zip(frozen, inputs))
