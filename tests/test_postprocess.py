import dataclasses
import functools
import inspect
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panopticore import cli, core, losses, metrics, postprocess, targets, tensor_io
from panopticore.core import InstanceCenter
from panopticore.postprocess import (
    SCORE_MODES,
    PanopticResult,
    extract_centers,
    group_pixels,
    keypoint_nms,
    merge_panoptic,
    panoptic_inference,
    thing_mask_from_semantic,
)
from panopticore.selftest import (
    _labels_outcome,
    class_scores_oracle,
    exact_inputs,
    group_oracle,
    inference_oracle,
    margin_edge_row,
    merge_oracle,
    nms_oracle,
    probability_labels_oracle,
    random_inference_case,
    random_merge_inputs,
    random_probabilities,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_postproc_params_reject_non_finite_center_threshold(value):
    with pytest.raises(ValueError, match="^center_threshold must be finite"):
        postprocess.PostprocParams(center_threshold=value)


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
    # Offsets free, so these small maps take the search or the filter by
    # their candidate count.
    with mock.patch.object(postprocess, "_PEAK_OFFSET_COST", 0):
        assert postprocess._peak_centers(heatmap, kernel, threshold, top_k) == want
    # Again with the density fallback off, so every case runs the candidate
    # search, threshold 0 included.
    with mock.patch.object(postprocess, "_PEAK_DENSITY", math.inf):
        assert postprocess._peak_centers(heatmap, kernel, threshold, top_k) == want


def test_dense_candidates_fall_back_to_the_full_filter():
    heatmap = np.random.default_rng(3).random((32, 32)).astype(np.float32)
    with mock.patch.object(postprocess, "keypoint_nms", wraps=keypoint_nms) as nms, \
            mock.patch.object(postprocess, "_PEAK_OFFSET_COST", 0):
        dense = postprocess._peak_centers(heatmap, 7, 0.0, 200)
        assert nms.call_count == 1
        sparse = postprocess._peak_centers(heatmap, 7, 0.99, 200)
        assert nms.call_count == 1
    assert dense == extract_centers(keypoint_nms(heatmap, 7), 0.0, 200)
    assert sparse == extract_centers(keypoint_nms(heatmap, 7), 0.99, 200)
    assert postprocess._peak_centers(np.asfortranarray(heatmap), 7, 0.99, 200) == sparse


def test_one_peak_at_a_large_kernel_takes_the_full_filter():
    # Charged 16 reads per window offset, one candidate at kernel 701 took
    # the search (1.15 s against 0.04 s for the filter).
    heatmap = np.zeros((1025, 2049), dtype=np.float32)
    heatmap[512, 683] = 1
    with mock.patch.object(postprocess, "keypoint_nms", wraps=keypoint_nms) as nms:
        got = postprocess._peak_centers(heatmap, 701, 0.1, 200)
    assert nms.call_count == 1
    assert got == [InstanceCenter(row=512.0, col=683.0, score=1.0)]


@pytest.mark.parametrize(
    "shape, kernel, peaks",
    [((1025, 2049), 1001, 1), ((64, 96), 401, 0), ((64, 96), 2001, 0)],
)
def test_peak_search_of_large_kernels_within_budget(shape, kernel, peaks):
    # One numpy call per window offset made these take 52 s, 3.8 s and more
    # than a minute; the full filter takes ~40 ms on the largest.
    heatmap = np.zeros(shape, dtype=np.float32)
    heatmap[shape[0] // 2, shape[1] // 3] = peaks
    start = time.perf_counter()
    got = postprocess._peak_centers(heatmap, kernel, 0.1, 200)
    assert time.perf_counter() - start < 1.0
    assert got == extract_centers(keypoint_nms(heatmap, kernel), 0.1, 200)


@pytest.mark.parametrize("kernel", [3, 5, 7, 9, 11])
def test_peak_search_at_edges_and_corners_equals_oracle(kernel):
    # Peaks and plateaus within kernel // 2 of each edge and corner, where
    # the search reads clipped windows; maps narrower than the window too.
    rng = np.random.default_rng(kernel)
    radius = kernel // 2
    for _ in range(60):
        height, width = (int(n) for n in rng.integers(1, 3 * kernel + 3, size=2))
        heatmap = (rng.integers(0, 3, (height, width)) / 8).astype(np.float32)
        for _ in range(int(rng.integers(1, 9))):
            # A point near the top, the bottom or anywhere; so for columns.
            row = (rng.integers(0, radius + 1), height - 1 - rng.integers(0, radius + 1),
                   rng.integers(0, height))[rng.integers(3)]
            col = (rng.integers(0, radius + 1), width - 1 - rng.integers(0, radius + 1),
                   rng.integers(0, width))[rng.integers(3)]
            rows, cols = max(row, 0), max(col, 0)
            extent = rng.integers(1, 3, size=2)  # a single pixel or a plateau
            heatmap[rows : rows + extent[0], cols : cols + extent[1]] = rng.choice([0.5, 0.75, 1.0])
        for threshold in (0.0, 0.2, 0.6):
            want = extract_centers(nms_oracle(heatmap, kernel), threshold, 200)
            with mock.patch.object(postprocess, "_PEAK_DENSITY", math.inf):
                got = postprocess._peak_centers(heatmap, kernel, threshold, 200)
            assert got == want, (heatmap.shape, threshold)


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


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_group_empty_grid(shape):
    offsets = np.zeros(shape + (2,), dtype=np.float32)
    out = group_pixels([InstanceCenter(1, 1), InstanceCenter(2, 2)], offsets, np.zeros(shape, bool))
    assert out.shape == shape and out.dtype == np.int32


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


def _threaded_fuse_case():
    """Labels, instance-grouping inputs and the oracle's instance ids on a
    grid with many centers, so that many cells list several candidates."""
    semantic, heatmap, offsets, spec = bench_inputs(96, 128, 24)
    offsets = offsets + np.random.default_rng(3).normal(0, 6, offsets.shape).astype(np.float32)
    centers = extract_centers(keypoint_nms(heatmap, 7), 0.1, 200)
    mask = thing_mask_from_semantic(semantic, spec)
    return semantic, spec, centers, offsets, mask, group_oracle(centers, offsets, mask)


def test_grouping_and_merge_do_not_depend_on_thread_count():
    semantic, spec, centers, offsets, mask, want = _threaded_fuse_case()
    assert len(centers) > 10
    merged = merge_oracle(semantic, want, spec, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
    try:
        for threads in (1, 2, 3):
            for block in (1, 300, 1 << 16):  # one row, two rows, the whole grid
                with mock.patch.object(core, "_block_threads", lambda: threads), \
                        mock.patch.object(postprocess, "_GROUP_BLOCK", block), \
                        mock.patch.object(postprocess, "_GROUP_LIST", 5), \
                        mock.patch.object(core, "_BLOCK", block):
                    got = group_pixels(centers, offsets, mask)
                    fused = merge_panoptic(semantic, got, spec, 64)
                assert got.tobytes() == want.tobytes(), (threads, block)
                assert fused.panoptic.tobytes() == merged.panoptic.tobytes(), (threads, block)
                assert repr(fused.instances) == repr(merged.instances), (threads, block)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [2, 3])
def test_group_raises_a_late_blocks_non_finite_landing_point(threads):
    mask = np.ones((40, 40), dtype=bool)
    offsets = np.zeros((40, 40, 2), dtype=np.float32)
    offsets[37, 5, 1] = np.nan  # block 37 of one-row blocks
    for centers in ([InstanceCenter(2, 2)], [InstanceCenter(2, 2), InstanceCenter(30, 30)]):
        with mock.patch.object(core, "_block_threads", lambda: threads), \
                mock.patch.object(postprocess, "_GROUP_BLOCK", 40):
            for _ in range(20):
                with pytest.raises(ValueError, match="non-finite landing points"):
                    group_pixels(centers, offsets, mask)


@st.composite
def landing_cell_grouping(draw):
    """Grids whose landing points sit on cell edges, beyond every side of the
    grid, a subnormal step off zero or 1e30 away, with centers outside the
    grid and several in one cell."""
    side = draw(st.integers(1, 8))
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((height, width)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    # Cell edges and half steps from 2 cells before the grid to 2 past it,
    # and points at zero; every landing point is exact in float64.
    reach = max(height, width) // side + 3

    def coords(shape):
        edge = rng.integers(-2, reach + 1, shape) * float(side)
        half = rng.integers(-4 * side, 2 * reach * side + 1, shape) / 2
        tiny = rng.choice([-5e-324, 5e-324, -0.0], shape)
        return np.choose(rng.integers(0, 3, shape), (edge, half, tiny))

    rows, cols = np.indices((height, width))
    offsets = (coords((height, width, 2)) - np.stack((rows, cols), axis=-1)).astype(dtype)
    far = rng.integers(-1, 2, (height, width, 2)) * (rng.random((height, width, 2)) < 0.2)
    offsets[far != 0] = far[far != 0] * dtype(1e30)
    # Centers anywhere in that range, and a few inside one cell.
    corner = rng.integers(-1, reach + 1, 2) * side
    in_cell = corner + rng.integers(0, 2 * side + 1, (draw(st.integers(2, 4)), 2)) / 2
    points = np.concatenate((coords((draw(st.integers(1, 8)), 2)), in_cell))
    centers = [InstanceCenter(float(r), float(c)) for r, c in rng.permutation(points)]
    return side, centers, offsets, mask


@settings(max_examples=400, deadline=None)
@given(case=landing_cell_grouping())
def test_group_landing_cells_equal_oracle(case):
    side, centers, offsets, mask = case
    with mock.patch.object(postprocess, "_GROUP_TILE", side):
        got = group_pixels(centers, offsets, mask)
    assert np.array_equal(got, group_oracle(centers, offsets, mask))


@pytest.mark.parametrize("side", range(1, 9))
def test_landing_cell_boxes_hold_their_points(side):
    # Edges and their float64 neighbours, past both ends too: each point's
    # cell must hold it in its closed box.
    edges = np.arange(-3, 3 * 41) * float(side)
    near = edges[edges != 0]
    values = np.concatenate(
        (edges, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), [-0.0, -1e30, 1e30])
    )
    # The float32 points nearest zero, and float64 subnormals above it.
    values = np.concatenate((values, [-(2.0**-149), 2.0**-149, 5e-324, 1e-310]))
    row_box, _, _ = postprocess._axis_cells(100, side)
    col_box, _, _ = postprocess._axis_cells(17, side)
    land = np.array(np.meshgrid(values, values)).reshape(2, -1)
    row, col = np.divmod(postprocess._landing_cells(land, row_box, col_box, side), len(col_box))
    for box, index, axis in ((row_box, row, land[0]), (col_box, col, land[1])):
        assert (box[index, 0] <= axis).all() and (axis <= box[index, 1]).all()
    # A point just below zero takes the outside cell (row 0), or the cell of
    # 0 (row 1) once its quotient underflows to -0.0.
    below = np.array([[-5e-324, -side * 2.0**-1075, -(2.0**-1074) * side], [0.0, 0.0, 0.0]])
    rows = postprocess._landing_cells(below, row_box, col_box, side) // len(col_box)
    assert (rows == np.where(below[0] / side < 0, 0, 1)).all()


def test_group_peak_allocation_stays_block_local():
    # Per-pixel arrays live one block at a time: a whole-image copy of the
    # thing-pixel indices alone (6.7 MB) would break this bound. Measured:
    # 7.3 MiB above the output on this input with one block thread, 8.2
    # with two.
    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    centers = extract_centers(keypoint_nms(heatmap, 7), 0.1, 200)
    mask = thing_mask_from_semantic(semantic, spec)
    group_pixels(centers, offsets, mask)
    tracemalloc.start()
    try:
        out = group_pixels(centers, offsets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def test_merge_rejects_float_instance_ids():
    semantic = np.full((1, 3), THING[0], dtype=np.int64)
    with pytest.raises(ValueError, match="instance ids must be integers, got float64"):
        merge_panoptic(semantic, np.array([[1.7, 1.2, 0.0]]), SPEC)


def test_merge_rejects_negative_instance_ids():
    semantic = np.full((1, 3), THING[0], dtype=np.int64)
    with pytest.raises(ValueError, match=r"must be in \[0, label_divisor 1000\), got -1"):
        merge_panoptic(semantic, np.array([[1, -1, 0]], dtype=np.int32), SPEC)


def test_merge_sizes_votes_by_the_instances_present():
    # Sized by value, this histogram would need (2**32 + 2) * 6 int64 bins.
    spec = dataclasses.replace(SPEC, label_divisor=2**40)
    big = 2**32 + 1
    semantic = np.full((1, 4), THING[0], dtype=np.int64)
    result = merge_panoptic(semantic, np.array([[0, big, big, 5]], dtype=np.int64), spec)
    assert [(r.instance_index, r.category, r.area) for r in result.instances] == [
        (5, THING[0], 1),
        (big, THING[0], 2),
    ]
    assert result.panoptic.tolist() == [
        [spec.void_id, THING[0] * 2**40 + big, THING[0] * 2**40 + big, THING[0] * 2**40 + 5]
    ]


_SMALL_SPEC = make_spec(num_stuff=2, num_things=2, ignore_label=10)  # ids 0-3 and 10


def _unknown_ids():
    """(dtype, case, id) for an id unknown to _SMALL_SPEC in each integer
    dtype: a gap, max_known_label + 1, -1, the dtype's extremes and, in
    uint64, 2**63 + 1 (negative as intp)."""
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        yield dtype, "gap", 7
        yield dtype, "above", _SMALL_SPEC.max_known_label + 1
        yield dtype, "largest", info.max
        if info.min < 0:
            yield dtype, "negative", -1
            yield dtype, "smallest", info.min
    yield np.uint64, "huge", 2**63 + 1


@pytest.mark.parametrize("block", [3, core._BLOCK])
@pytest.mark.parametrize(
    "dtype, value", [(d, v) for d, _, v in _unknown_ids()], ids=[
        f"{np.dtype(d).name}-{case}" for d, case, _ in _unknown_ids()
    ]
)
def test_merge_rejects_unknown_ids_in_every_dtype(monkeypatch, dtype, value, block):
    # The unknown id sits in the last pixel: with blocks of 3 pixels, only
    # the last block holds it.
    monkeypatch.setattr(core, "_BLOCK", block)
    semantic = np.zeros((4, 6), dtype=dtype)
    semantic[:2, :3] = 2  # a thing
    semantic[3, :2] = _SMALL_SPEC.ignore_label
    instance_ids = np.zeros((4, 6), dtype=np.int32)
    instance_ids[:2, :3] = 1
    merge_panoptic(semantic, instance_ids, _SMALL_SPEC)  # known ids pass
    semantic[-1, -1] = value
    zeros = np.zeros(semantic.shape, np.float32)
    offsets = np.zeros(semantic.shape + (2,), np.float32)
    message = "^semantic map contains ids unknown to the dataset spec$"
    with pytest.raises(ValueError, match=message):
        merge_panoptic(semantic, instance_ids, _SMALL_SPEC, stuff_area_threshold=1)
    with pytest.raises(ValueError, match=message):
        panoptic_inference(semantic, zeros, offsets, _SMALL_SPEC)


@st.composite
def merge_inputs(draw):
    """(labels, instance ids, spec): a scene's own labels and instances, or
    4x4 blocks, per-pixel noise and flat maps with ids up to 200 (top_k) on
    any shape from 0x0 up, single rows and columns included."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["scene", "blocks", "noise", "flat"]))
    rng = np.random.default_rng(seed)
    if kind == "scene":
        scene = random_scene(seed, max_size=64)
        spec = scene.spec
        labels, instance = np.divmod(scene.panoptic, spec.label_divisor)
        instance = instance.astype(np.int32)
    else:
        spec = make_spec(num_stuff=2, num_things=3)
        height, width = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        height, width = draw(st.sampled_from([(height, width), (1, width), (height, 1)]))
        labels, instance = random_merge_inputs(rng, spec, height, width, kind)
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    return labels.astype(dtype), instance, spec


@settings(max_examples=200, deadline=None)
@given(
    case=merge_inputs(),
    threshold=st.sampled_from([0, 1, 2048, "area", "area + 1"]),
    block=st.sampled_from([3, 16, core._BLOCK]),
    data=st.data(),
)
def test_merge_equals_pixel_oracle(case, threshold, block, data):
    labels, instance, spec = case
    if isinstance(threshold, str):  # at or just above a stuff area
        unfiltered = merge_oracle(labels, instance, spec, 0).panoptic
        areas = [int(np.count_nonzero(unfiltered == c * spec.label_divisor)) for c in spec.stuff_ids]
        area = data.draw(st.sampled_from([a for a in areas if a] or [0]))
        threshold = area + (threshold == "area + 1")
    with mock.patch.object(core, "_BLOCK", block):
        got = merge_panoptic(labels, instance, spec, stuff_area_threshold=threshold)
    want = merge_oracle(labels, instance, spec, threshold)
    assert got.panoptic.dtype == want.panoptic.dtype
    assert got.panoptic.shape == want.panoptic.shape
    assert got.panoptic.tobytes() == want.panoptic.tobytes()
    assert repr(got.instances) == repr(want.instances)


# ---------------------------------------------------------------------------
# the stuff-area filter of merge_panoptic


def _stuff_merge(area, category, dims=(70, 70), fill=None, threshold=0):
    fill = STUFF[1] if fill is None else fill
    semantic = np.full(dims, fill, dtype=np.int64)
    semantic.reshape(-1)[:area] = category
    instance_ids = np.zeros(dims, dtype=np.int32)
    return merge_panoptic(semantic, instance_ids, SPEC, stuff_area_threshold=threshold)


def test_filter_small_stuff_below_threshold():
    out = _stuff_merge(2000, STUFF[0], threshold=2048)
    assert (out.panoptic.reshape(-1)[:2000] == SPEC.void_id).all()
    assert (out.panoptic.reshape(-1)[2000:] == STUFF[1] * SPEC.label_divisor).all()


def test_filter_small_stuff_at_threshold_unchanged():
    out = _stuff_merge(2048, STUFF[0], threshold=2048)
    assert out.panoptic.tobytes() == _stuff_merge(2048, STUFF[0]).panoptic.tobytes()
    assert (out.panoptic != SPEC.void_id).all()


def test_filter_threshold_zero_identity():
    out = _stuff_merge(1, STUFF[0], threshold=0)
    assert (out.panoptic.reshape(-1)[:1] == STUFF[0] * SPEC.label_divisor).all()
    assert out.panoptic.tobytes() == _stuff_merge(1, STUFF[0]).panoptic.tobytes()


def test_filter_leaves_things_alone():
    semantic = np.full((4, 4), THING[0], dtype=np.int64)
    instance_ids = np.ones((4, 4), dtype=np.int32)
    out = merge_panoptic(semantic, instance_ids, SPEC, stuff_area_threshold=1000)
    assert (out.panoptic == THING[0] * SPEC.label_divisor + 1).all()
    assert [(r.instance_index, r.area) for r in out.instances] == [(1, 16)]


def _filter_small_stuff_reference(result, spec, threshold=None):
    """The full-map stuff filter that ran on the merged map before the
    merge's lookup table voided small stuff itself."""
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
    # The merge's own filter against the full-map filter run on the
    # unfiltered merge, at and around every stuff area.
    spec = make_spec(num_stuff=3, num_things=2)
    rng = np.random.default_rng(seed)
    height, width = rng.integers(4, 33, size=2)
    kind = ("blocks", "noise")[seed % 2]
    labels, instance = random_merge_inputs(rng, spec, height, width, kind)
    labels = labels.astype(dtype)
    merged = merge_panoptic(labels, instance, spec)
    areas = [int(np.count_nonzero(merged.panoptic == c * spec.label_divisor)) for c in spec.stuff_ids]
    present = [a for a in areas if a]
    for threshold in _thresholds_around(present) + [10**6]:
        got = merge_panoptic(labels, instance, spec, stuff_area_threshold=threshold)
        want = _filter_small_stuff_reference(merged, spec, threshold)
        assert got.panoptic.dtype == want.panoptic.dtype == np.int64
        assert got.panoptic.tobytes() == want.panoptic.tobytes()
        assert got.instances == want.instances


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
# scores


def _one_instance_inference(semantic, mode, objectness=0.8):
    """panoptic_inference on a 2x2 grid whose one center, of heatmap value
    ``objectness``, claims every thing pixel."""
    heatmap = np.zeros((2, 2))
    heatmap[0, 0] = objectness
    params = postprocess.PostprocParams(score_mode=mode)
    return panoptic_inference(semantic, heatmap, np.zeros((2, 2, 2)), SPEC, params)


def _probs_for(labels):
    channels = {cid: i for i, cid in enumerate(SPEC.category_ids)}
    probs = np.zeros(labels.shape + (SPEC.num_categories,))
    for cid, ch in channels.items():
        probs[labels == cid, ch] = 1.0
    return probs


def test_score_product_example():
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[0, 0] = THING[1]  # outvoted: the instance is THING[0] on all 4 pixels
    probs = _probs_for(labels) * 0.5
    probs += 0.5 / SPEC.num_categories  # soften to a proper distribution
    class_score = float(probs[..., SPEC.category_ids.index(THING[0])].mean())
    for mode, want in (("product", 0.8 * class_score), ("objectness", 0.8), ("class", class_score)):
        (record,) = _one_instance_inference(probs, mode).instances
        assert (record.category, record.area) == (THING[0], 4)
        assert record.score == pytest.approx(want, rel=1e-12)


def test_score_objectness_times_class_simple():
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[0, 0] = THING[1]  # one disagreeing pixel -> class score 0.75
    scored = _one_instance_inference(labels, "product")
    assert scored.instances[0].score == pytest.approx(0.8 * 0.75)


def test_score_labels_equal_onehot_probs():
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    labels[0, 0] = THING[1]  # outvoted: 3 of the instance's 4 pixels agree
    via_labels = _one_instance_inference(labels, "class").instances
    via_probs = _one_instance_inference(_probs_for(labels), "class").instances
    assert [r.score for r in via_labels] == [r.score for r in via_probs] == [0.75]


def test_score_panoptic_untouched():
    labels = np.full((2, 2), THING[0], dtype=np.int64)
    merged = merge_panoptic(labels, np.ones((2, 2), dtype=np.int32), SPEC)
    for mode in ("objectness", "class", "product"):
        scored = _one_instance_inference(labels, mode)
        assert scored.panoptic.tobytes() == merged.panoptic.tobytes()


def test_score_bad_probability_rows_rejected():
    probs = np.full((2, 2, SPEC.num_categories), 0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        _one_instance_inference(probs, "class")


@pytest.mark.parametrize("extra", [-1, 1])
def test_score_probability_channels_must_match_the_spec(extra):
    probs = np.full((2, 2, SPEC.num_categories + extra), 1.0 / (SPEC.num_categories + extra))
    with pytest.raises(ValueError, match="probability grid has .* channels, spec has"):
        _one_instance_inference(probs, "class")


def test_score_non_finite_probabilities_named():
    probs = _probs_for(np.full((2, 2), THING[0], dtype=np.int64))
    probs[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _one_instance_inference(probs, "class")


def _merged_class_scores(seed, height, width, kind):
    """``_class_scores`` and the whole-image oracle on the merge of
    :func:`random_merge_inputs` and :func:`random_probabilities`."""
    spec = make_spec(num_stuff=2, num_things=3)
    rng = np.random.default_rng(seed)
    labels, instance = random_merge_inputs(rng, spec, height, width, kind)
    merged = merge_panoptic(labels, instance, spec)
    probs = random_probabilities(rng, labels.shape, spec.num_categories)
    got = postprocess._class_scores(merged, instance, probs, spec)
    return got, class_scores_oracle(merged, probs, spec)


@pytest.mark.parametrize("seed", range(20))
def test_member_only_class_scores_equal_oracle(seed):
    got, want = _merged_class_scores(seed, 24, 20, ("blocks", "noise", "flat")[seed % 3])
    assert repr(got) == repr(want)


def _label_class_scores(semantic, heatmap, offsets, spec):
    """The records of ``panoptic_inference`` in class mode on a label map,
    and their scores by the whole-image oracle."""
    params = postprocess.PostprocParams(score_mode="class")
    result = panoptic_inference(semantic, heatmap, offsets, spec, params)
    want = class_scores_oracle(result, semantic, spec)
    return result.instances, [want[r.instance_index] for r in result.instances]


@pytest.mark.parametrize("seed", range(20))
def test_pipeline_label_scores_equal_oracle(seed):
    # The class scores of a label map come from the merge's votes.
    scene = random_scene(seed, min_size=32, max_size=48)
    semantic, heatmap, offsets = exact_inputs(scene)
    semantic = np.where(  # ~30% of labels disagree with the instances
        np.random.default_rng(seed).random(semantic.shape) < 0.3,
        np.asarray(scene.spec.category_ids)[seed % scene.spec.num_categories],
        semantic,
    )
    records, want = _label_class_scores(semantic, heatmap, offsets, scene.spec)
    assert records
    assert repr([r.score for r in records]) == repr(want)


def test_class_scores_sparse_ids_equal_oracle():
    # A label_divisor too large for a lookup table over the panoptic ids,
    # through the pipeline on labels.
    scene = random_scene(5, min_size=32, max_size=48)
    semantic, heatmap, offsets = exact_inputs(scene)
    spec = dataclasses.replace(scene.spec, label_divisor=1 << 40)
    records, want = _label_class_scores(semantic, heatmap, offsets, spec)
    assert any(r.category * spec.label_divisor >= 1 << 20 for r in records)
    assert repr([r.score for r in records]) == repr(want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(0, 20),
    width=st.integers(0, 20),
    kind=st.sampled_from(["blocks", "noise", "flat"]),
)
def test_score_instances_equal_oracle(seed, height, width, kind):
    # The class scores of the scores stage on probabilities, on merges of
    # any shape, 0xN included, and of per-pixel noise.
    got, want = _merged_class_scores(seed, height, width, kind)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    case=merge_inputs(),
    sparse=st.booleans(),
    block=st.sampled_from([3, core._BLOCK]),
)
def test_label_scores_from_votes_equal_oracle(case, sparse, block):
    # Random labels and instance ids, per-pixel noise included: instances
    # whose pixels hold no thing label win no category and have no record.
    labels, instance, spec = case
    if sparse:
        spec = dataclasses.replace(spec, label_divisor=1 << 40)
    with mock.patch.object(core, "_BLOCK", block):
        merged = merge_panoptic(labels, instance, spec)
    want = class_scores_oracle(merged, labels, spec)
    assert repr(postprocess._label_scores(merged)) == repr(want)


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
    elif kind == "margin_edge":  # the sum check's band edge, or one ulp past it
        row[:] = margin_edge_row(channels, dtype, rng.random() < 0.5, rng.random() < 0.5)
    elif kind == "tiny_negative":  # a one-hot row with -0.0 and one tiny negative entry
        row[:] = -0.0
        row[rng.integers(channels)] = 1.0
        row[rng.integers(channels)] -= rng.choice([info.smallest_subnormal, info.tiny, 2.0**-20])
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
    "subnormal", "margin_edge", "tiny_negative", "near_tolerance", "negative", "cancelling",
    "bad_sum", "nan", "inf", "-inf",
)


@settings(max_examples=300, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 19, 133, 200]),
    height=st.integers(0, 9),
    width=st.integers(1, 9),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    block=st.sampled_from([1, 2, 3, 7, 16384]),
    threads=st.sampled_from([1, 2, 3]),
    palette=st.lists(st.sampled_from(PROBABILITY_ROWS), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_probability_labels_equal_oracle(
    channels, height, width, dtype, block, threads, palette, seed
):
    """Labels (bytes and dtype), verdict and message equal the row-sum and
    row-argmax oracle, with faults in earlier or later blocks."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(palette, size=height * width)
    rows = [_probability_row(kind, channels, dtype, rng) for kind in kinds]
    with np.errstate(over="ignore"):  # 1e20 overflows float16 to inf
        probs = np.array(rows, dtype=dtype).reshape(height, width, channels)
    ids = (np.arange(channels) * 3 + 1).astype(np.uint16)
    with mock.patch.object(postprocess, "_PROB_BLOCK", block), \
            mock.patch.object(core, "_block_threads", lambda: threads):
        got = _labels_outcome(postprocess._probability_labels, probs, ids)
        assert got == _labels_outcome(probability_labels_oracle, probs, ids)


def tied_probability_case():
    """A 13x17x5 float32 grid of small integer weights, normalised: argmax
    ties everywhere, -0.0 entries, and a row with a tiny negative entry
    (its block takes the row-sum path)."""
    rng = np.random.default_rng(14)
    weights = rng.integers(0, 3, size=(13, 17, 5)).astype(np.float64)
    weights[..., 0] += weights.sum(axis=2) == 0
    probs = (weights / weights.sum(axis=2, keepdims=True)).astype(np.float32)
    probs[probs == 0] = -0.0
    probs[6, 9] = 0.5, 0.5, -(2.0**-30), 0, 0
    return probs, (np.arange(5) * 3 + 1).astype(np.uint8)


def test_probability_labels_do_not_depend_on_thread_count():
    probs, ids = tied_probability_case()
    want = probability_labels_oracle(probs, ids)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
    try:
        for threads in (1, 2, 3):
            for block in (1, 3, 64):
                with mock.patch.object(core, "_block_threads", lambda: threads), \
                        mock.patch.object(postprocess, "_PROB_BLOCK", block):
                    got = postprocess._probability_labels(probs, ids)
                assert got.dtype == want.dtype, (threads, block)
                assert got.tobytes() == want.tobytes(), (threads, block)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [2, 3])
def test_probability_labels_raise_the_earliest_blocks_error(threads):
    probs, ids = tied_probability_case()
    bad_sum, nan = probs.copy(), probs.copy()
    bad_sum[1, 4] *= 2  # block 7 of 3-pixel blocks
    bad_sum[12, 8, 1] = np.nan  # block 70
    nan[1, 4, 1] = np.nan
    nan[12, 8] *= 2
    with mock.patch.object(core, "_block_threads", lambda: threads), \
            mock.patch.object(postprocess, "_PROB_BLOCK", 3):
        for _ in range(20):
            with pytest.raises(ValueError, match="must sum to 1 per pixel"):
                postprocess._probability_labels(bad_sum, ids)
            with pytest.raises(ValueError, match="contain non-finite values"):
                postprocess._probability_labels(nan, ids)


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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 20),
    width=st.integers(1, 20),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int64, np.float32, np.float64]),
    kernel=st.sampled_from([1, 3, 5, 7]),
    center_threshold=st.sampled_from([0.0, 0.3, 0.6]),
    top_k=st.sampled_from([1, 3, 200]),
    stuff=st.sampled_from([None, 0, "area", "area + 1"]),
    mode=st.sampled_from(SCORE_MODES),
)
def test_inference_equals_chained_stage_oracles(
    seed, height, width, dtype, kernel, center_threshold, top_k, stuff, mode
):
    # The glue between the stages, on labels and on probabilities: center
    # order as the instance index, a None stuff threshold deferring to the
    # spec, each record's center and score.
    params = postprocess.PostprocParams(kernel, center_threshold, top_k, 0, mode)
    rng = np.random.default_rng(seed)
    case = random_inference_case(rng, height, width, dtype, stuff, params)
    with mock.patch.object(postprocess, "_PEAK_OFFSET_COST", 0):  # sparse maps: the search
        got = panoptic_inference(*case)
    want = inference_oracle(*case)
    assert got.panoptic.dtype == want.panoptic.dtype
    assert got.panoptic.shape == want.panoptic.shape
    assert got.panoptic.tobytes() == want.panoptic.tobytes()
    assert repr(got.instances) == repr(want.instances)


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
        div = scene.spec.label_divisor
        category, instance = divmod(record.category * div + record.instance_index, div)
        assert (category, instance) == (record.category, record.instance_index)


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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_inference_finite_checks_raise_from_any_block(threads):
    # The heatmap and offsets checks run in blocks of 7 values: a NaN or inf
    # in the last block is found, and the heatmap's error comes first.
    scene = random_scene(26, max_size=64)
    semantic, heatmap, offsets = exact_inputs(scene)
    row, col = np.argwhere(np.isin(semantic, sorted(scene.spec.stuff_ids)))[-1]
    bad_heat, bad_offsets = heatmap.copy(), offsets.copy()
    bad_heat[-1, -1] = np.inf
    bad_offsets[row, col, 1] = np.nan
    with mock.patch.object(core, "_block_threads", lambda: threads), \
            mock.patch.object(core, "_BLOCK", 7):
        for heat, off, field in ((bad_heat, offsets, "heatmap"), (heatmap, bad_offsets, "offsets"),
                                 (bad_heat, bad_offsets, "heatmap")):
            with pytest.raises(ValueError, match=f"^{field} contains non-finite values$"):
                panoptic_inference(semantic, heat, off, scene.spec)


# ---------------------------------------------------------------------------
# pipeline invariants


def _recording(fn, called):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        called.add(f"{fn.__module__}.{fn.__name__}")
        return fn(*args, **kwargs)

    return wrapper


# Public functions of the layer modules that no CLI pipeline runs, and why
# each stays public.
ENTRY_POINTS = {
    "panopticore.metrics.panoptic_quality": "README's Library entry point",
    "panopticore.metrics.mean_iou": "the semantic mIoU front end over eval's _confusion body",
    "panopticore.losses.total_loss": "perfbench/child.py calls it",
    "panopticore.tensor_io.read_tensor": "perfbench/child.py calls it",
    "panopticore.tensor_io.write_spec": "writes the spec format that read_spec parses",
}


def test_every_public_stage_runs_in_a_pipeline(monkeypatch, tmp_path, capsys):
    # The public functions are the bodies the pipelines run, not checked
    # wrappers or second copies beside private ones. As perfbench's tracer
    # does, every one is wrapped in each module namespace where it is looked
    # up; then targets, fuse (labels and probabilities, sparse and dense
    # heatmaps), a two-image eval and the train bench run through cli.main.
    semantic, heatmap, offsets, spec = bench_inputs(48, 64, 6)
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    np.put_along_axis(probs, spec.table.channel[semantic][..., None], np.float32(1.0), axis=2)
    dense = np.random.default_rng(0).random(heatmap.shape).astype(np.float32)
    gt = postprocess.panoptic_inference(semantic, heatmap, offsets, spec).panoptic
    grids = {"semantic": semantic.astype(np.uint16), "probs": probs, "heatmap": heatmap,
             "dense": dense, "offsets": offsets, "gt": np.roll(gt, (1, 2), axis=(0, 1))}
    path = {name: str(tmp_path / f"{name}.pdlt") for name in grids}
    for name, grid in grids.items():
        tensor_io.write_tensor(grid.astype(np.uint32) if name == "gt" else grid, path[name])
    spec_path = str(tmp_path / "spec.json")
    tensor_io.write_spec(spec, spec_path)

    called, public, wrappers = set(), set(), {}
    for module in (core, tensor_io, targets, losses, postprocess, metrics):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                public.add(f"{module.__name__}.{name}")
                wrappers[fn] = _recording(fn, called)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "panopticore":
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(module, name, wrappers[value])

    fused = []
    for i, (grid, heat, threshold) in enumerate([
        ("semantic", "heatmap", "0.1"), ("probs", "heatmap", "0.1"),
        ("semantic", "dense", "0.0"), ("probs", "dense", "0.0"),  # the full keypoint_nms filter
    ]):
        out, report = tmp_path / f"pred{i}.pdlt", tmp_path / f"pred{i}.json"
        assert cli.main([
            "fuse", "--semantic", path[grid], "--heatmap", path[heat], "--offsets",
            path["offsets"], "--spec", spec_path, "--out", str(out), "--report", str(report),
            "--center-threshold", threshold, "--stuff-area-threshold", "64",
        ]) == 0
        fused.append((str(out), str(report)))
    (pred0, scores0), (pred1, scores1) = fused[:2]
    assert cli.main([
        "eval", "--pred", pred0, pred1, "--gt", path["gt"], path["gt"],
        "--pred-scores", scores0, scores1, "--spec", spec_path,
        "--report", str(tmp_path / "eval.json"),
    ]) == 0
    assert cli.main([
        "targets", "--panoptic", path["gt"], "--spec", spec_path, "--out", str(tmp_path / "t"),
    ]) == 0
    assert cli.main([
        "bench", "--workload", "train", "--height", "48", "--width", "64", "--centers", "6",
        "--repetitions", "1", "--report", str(tmp_path / "bench.json"),
    ]) == 0
    capsys.readouterr()
    assert set(ENTRY_POINTS) <= public
    assert called == public - set(ENTRY_POINTS)


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
        category, instance = divmod(int(pid), spec.label_divisor)
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
