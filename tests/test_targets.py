import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panopticore import core, targets
from panopticore.core import CategorySpec, DatasetSpec, Dims, InstanceCenter, segment_table, validate
from panopticore.synth import make_spec, random_scene
from panopticore.targets import (
    TargetParams,
    compute_mass_centers,
    encode_center_heatmap,
    encode_offsets,
    encode_targets,
    semantic_weight_map,
)

SPEC = make_spec(num_stuff=2, num_things=2)
STUFF = sorted(SPEC.stuff_ids)[0]
THING = sorted(SPEC.thing_ids)[0]


def panoptic_with(pixels, height=8, width=8, instance=1):
    out = np.full((height, width), STUFF * SPEC.label_divisor, dtype=np.int64)
    for r, c in pixels:
        out[r, c] = THING * SPEC.label_divisor + instance
    return out


@pytest.mark.parametrize("dtype", [np.uint32, np.int32, np.uint64])
def test_encode_targets_of_any_integer_dtype_equal_int64(dtype):
    scene = random_scene(5, max_size=96)
    want = encode_targets(scene.panoptic.astype(np.int64), scene.spec)
    got = encode_targets(scene.panoptic.astype(dtype), scene.spec)
    for field in ("heatmap", "offsets", "semantic_weights", "semantic_labels", "thing_mask"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert repr((got.centers, got.areas)) == repr((want.centers, want.areas))


def test_mass_center_two_pixels():
    centers = compute_mass_centers(segment_table(panoptic_with([(0, 0), (0, 2)]), SPEC))
    assert len(centers) == 1
    _, center = centers[0]
    assert (center.row, center.col) == (0.0, 1.0)


def test_mass_center_single_pixel():
    centers = compute_mass_centers(segment_table(panoptic_with([(5, 7)]), SPEC))
    assert (centers[0][1].row, centers[0][1].col) == (5.0, 7.0)


def test_mass_center_three_pixels():
    # Oracle: arithmetic mean over the enumerated pixels.
    pixels = [(0, 0), (1, 0), (1, 1)]
    want_row = sum(p[0] for p in pixels) / len(pixels)
    want_col = sum(p[1] for p in pixels) / len(pixels)
    centers = compute_mass_centers(segment_table(panoptic_with(pixels), SPEC))
    _, center = centers[0]
    assert center.row == pytest.approx(want_row, abs=1e-15)
    assert center.col == pytest.approx(want_col, abs=1e-15)
    assert center.row == pytest.approx(2 / 3)
    assert center.col == pytest.approx(1 / 3)


def test_mass_center_disconnected_segment_is_one_instance():
    panoptic = panoptic_with([(0, 0), (7, 7)])
    centers = compute_mass_centers(segment_table(panoptic, SPEC))
    assert len(centers) == 1
    assert (centers[0][1].row, centers[0][1].col) == (3.5, 3.5)


def test_mass_center_skips_crowd_and_stuff():
    panoptic = panoptic_with([(1, 1)], instance=1)
    panoptic[4, 4] = THING * SPEC.label_divisor  # crowd: instance part 0
    centers = compute_mass_centers(segment_table(panoptic, SPEC))
    assert len(centers) == 1


def test_heatmap_peak_at_integer_center():
    heatmap = encode_center_heatmap([InstanceCenter(4, 4)], Dims(9, 9))
    assert heatmap[4, 4] == 1.0
    assert heatmap.max() == 1.0


def test_heatmap_distance_eight_sigma_eight():
    heatmap = encode_center_heatmap(
        [InstanceCenter(10, 10)], Dims(32, 32), TargetParams(sigma=8)
    )
    assert heatmap[10, 18] == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert heatmap[18, 10] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_heatmap_two_centers_is_pointwise_max():
    # Brute-force comparison on a 16x16 grid.
    a = [InstanceCenter(4.0, 5.0)]
    b = [InstanceCenter(10.0, 12.0)]
    dims = Dims(16, 16)
    params = TargetParams(sigma=3)
    combined = encode_center_heatmap(a + b, dims, params)
    only_a = encode_center_heatmap(a, dims, params)
    only_b = encode_center_heatmap(b, dims, params)
    assert np.array_equal(combined, np.maximum(only_a, only_b))


def test_heatmap_zero_outside_truncation_disk():
    params = TargetParams(sigma=2, truncation_radius=3)
    heatmap = encode_center_heatmap([InstanceCenter(16, 16)], Dims(33, 33), params)
    yy, xx = np.meshgrid(np.arange(33), np.arange(33), indexing="ij")
    dist_sq = (yy - 16) ** 2 + (xx - 16) ** 2
    outside = dist_sq > 36
    assert (heatmap[outside] == 0).all()
    assert (heatmap[~outside] > 0).all()


def test_heatmap_empty_centers():
    assert (encode_center_heatmap([], Dims(4, 4)) == 0).all()


def test_heatmap_center_outside_dims_rejected():
    with pytest.raises(ValueError):
        encode_center_heatmap([InstanceCenter(10, 2)], Dims(4, 4))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sigma", "truncation_radius", "small_instance_weight"])
def test_target_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TargetParams(**{field: value})


def test_offsets_point_at_center():
    panoptic = panoptic_with([(10, 20), (16, 16), (13, 18)], height=32, width=32)
    # Mass center of the three pixels:
    want = (13.0, 18.0)
    offsets, mask = encode_offsets(segment_table(panoptic, SPEC))
    assert mask[10, 20] and mask[16, 16] and mask[13, 18]
    assert offsets[10, 20, 0] == pytest.approx(want[0] - 10)
    assert offsets[10, 20, 1] == pytest.approx(want[1] - 20)
    assert offsets[13, 18, 0] == 0.0 and offsets[13, 18, 1] == 0.0


def test_offsets_zero_at_stuff():
    panoptic = panoptic_with([(1, 1)])
    offsets, mask = encode_offsets(segment_table(panoptic, SPEC))
    assert not mask[0, 0]
    assert (offsets[~mask] == 0).all()


def test_offsets_land_on_mass_center_random_scene():
    scene = random_scene(11, min_size=32, max_size=32, allow_void=False)
    offsets, mask = encode_offsets(segment_table(scene.panoptic, scene.spec))
    centers = dict(compute_mass_centers(segment_table(scene.panoptic, scene.spec)))
    rows, cols = np.nonzero(mask)
    for r, c in zip(rows, cols):
        pid = int(scene.panoptic[r, c])
        center = centers[pid]
        landed = (r + float(offsets[r, c, 0]), c + float(offsets[r, c, 1]))
        assert landed[0] == pytest.approx(center.row, abs=1e-3)
        assert landed[1] == pytest.approx(center.col, abs=1e-3)


def test_weight_map_small_instance():
    pixels = [(r, c) for r in range(8) for c in range(8)]  # area 64 < 4096
    weights = semantic_weight_map(segment_table(panoptic_with(pixels, 16, 16), SPEC))
    assert weights[0, 0] == 3.0
    assert weights[15, 15] == 1.0  # stuff pixel


def test_weight_map_area_boundary():
    params = TargetParams(small_instance_area=4)
    small = panoptic_with([(0, 0), (0, 1), (0, 2)])  # area 3 < 4
    exact = panoptic_with([(0, 0), (0, 1), (0, 2), (0, 3)])  # area 4, not < 4
    assert semantic_weight_map(segment_table(small, SPEC), params)[0, 0] == 3.0
    assert semantic_weight_map(segment_table(exact, SPEC), params)[0, 0] == 1.0


def test_weight_map_ignore_pixels_zero():
    panoptic = panoptic_with([(1, 1)])
    panoptic[3, 3] = SPEC.void_id
    weights = semantic_weight_map(segment_table(panoptic, SPEC))
    assert weights[3, 3] == 0.0


def test_bundle_invariants_and_validate_closure():
    scene = random_scene(3, min_size=48, max_size=64)
    bundle = encode_targets(scene.panoptic, scene.spec)
    assert bundle.heatmap.min() >= 0.0 and bundle.heatmap.max() <= 1.0
    assert (bundle.offsets[~bundle.thing_mask] == 0).all()
    assert validate(bundle.heatmap, scene.spec, "heatmap", encoded_target=True) == []
    assert validate(bundle.offsets, scene.spec, "offsets") == []
    assert validate(bundle.semantic_weights, scene.spec, "weights") == []
    assert validate(bundle.semantic_labels, scene.spec, "semantic") == []


def test_encode_targets_all_stuff_scene():
    panoptic = np.full((8, 8), STUFF * SPEC.label_divisor, dtype=np.int64)
    bundle = encode_targets(panoptic, SPEC)
    assert bundle.centers == ()
    assert (bundle.heatmap == 0).all()
    assert not bundle.thing_mask.any()
    assert (bundle.semantic_weights == 1.0).all()


@pytest.mark.parametrize("seed", range(6))
def test_encode_targets_equals_its_parts(seed):
    scene = random_scene(40 + seed, min_size=32, max_size=96)
    spec, panoptic = scene.spec, scene.panoptic.copy()
    height, width = panoptic.shape
    rng = np.random.default_rng(seed)
    r, c = rng.integers(0, height - 8), rng.integers(0, width - 8)
    panoptic[r : r + 8, c : c + 8] = sorted(spec.thing_ids)[-1] * spec.label_divisor  # crowd
    r, c = rng.integers(0, height - 5), rng.integers(0, width - 5)
    panoptic[r : r + 5, c : c + 5] = spec.void_id
    ids, areas = np.unique(panoptic, return_counts=True)
    things = (ids % spec.label_divisor > 0) & np.isin(ids // spec.label_divisor, list(spec.thing_ids))
    params = TargetParams(small_instance_area=int(np.median(areas[things])) + 1)
    bundle = encode_targets(panoptic, spec, params)
    offsets, thing_mask = encode_offsets(segment_table(panoptic, spec))
    assert bundle.offsets.tobytes() == offsets.tobytes()
    assert bundle.thing_mask.tobytes() == thing_mask.tobytes()
    weights = semantic_weight_map(segment_table(panoptic, spec), params)
    assert bundle.semantic_weights.tobytes() == weights.tobytes()
    assert (weights == 0).any() and (weights == params.small_instance_weight).any()
    centers = compute_mass_centers(segment_table(panoptic, spec))
    assert bundle.centers == tuple(centers) and centers
    heatmap = encode_center_heatmap([c for _, c in centers], Dims.of(panoptic), params)
    assert bundle.heatmap.tobytes() == heatmap.tobytes()


# The encoders as first written, one Python loop per thing segment over an
# argsort of the map; kept as the reference for the segment-table gathers.


def thing_segments_reference(panoptic, spec):
    ids, inverse = np.unique(panoptic, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(ids.size + 1))
    segments = []
    for i, pid in enumerate(ids):
        category = int(pid) // spec.label_divisor
        instance = int(pid) % spec.label_divisor
        if instance >= 1 and category in spec.thing_ids:
            segments.append((int(pid), order[boundaries[i] : boundaries[i + 1]]))
    return segments


def mass_centers_reference(segments, width):
    out = []
    for pid, flat in segments:
        rows = flat // width
        cols = flat % width
        center = InstanceCenter(
            row=float(rows.mean(dtype=np.float64)),
            col=float(cols.mean(dtype=np.float64)),
            score=1.0,
        )
        out.append((pid, center))
    return out


def offsets_reference(segments, shape):
    height, width = shape
    offsets = np.zeros((height, width, 2), dtype=np.float32)
    thing_mask = np.zeros((height, width), dtype=bool)
    flat_off = offsets.reshape(-1, 2)
    flat_mask = thing_mask.reshape(-1)
    for _, flat in segments:
        rows = flat // width
        cols = flat % width
        center_row = rows.mean(dtype=np.float64)
        center_col = cols.mean(dtype=np.float64)
        flat_off[flat, 0] = center_row - rows
        flat_off[flat, 1] = center_col - cols
        flat_mask[flat] = True
    return offsets, thing_mask


def weight_map_reference(panoptic, segments, spec, params):
    weights = np.ones(panoptic.shape, dtype=np.float32)
    flat = weights.reshape(-1)
    for _, seg in segments:
        if seg.size < params.small_instance_area:
            flat[seg] = params.small_instance_weight
    category = panoptic.astype(np.int64) // spec.label_divisor
    weights[category == spec.ignore_label] = 0.0
    return weights


# Thing ids 3 and 8 with stuff 0 and 5 around an ignore label of 7.
REFERENCE_SPEC = DatasetSpec(
    categories=(
        CategorySpec(0, "road", False),
        CategorySpec(3, "car", True),
        CategorySpec(5, "sky", False),
        CategorySpec(8, "person", True),
    ),
    ignore_label=7,
    label_divisor=16,
)


@st.composite
def target_maps(draw):
    spec = draw(st.sampled_from([REFERENCE_SPEC, SPEC]))
    div = spec.label_divisor
    stuff = [c * div for c in sorted(spec.stuff_ids)]
    # Instance part 0 is a crowd region; div - 1 is the largest instance.
    things = [c * div + i for c in sorted(spec.thing_ids) for i in (0, 1, 2, div - 1)]
    palette = stuff + things + [spec.void_id]
    height = draw(st.integers(1, 24))
    width = draw(st.integers(1, 24))
    blocks = draw(st.integers(1, 6))
    index = draw(
        st.lists(st.integers(0, len(palette) - 1), min_size=blocks * blocks, max_size=blocks * blocks)
    )
    rows = np.arange(height) * blocks // height
    cols = np.arange(width) * blocks // width
    panoptic = np.asarray(palette, dtype=np.int64)[
        np.asarray(index).reshape(blocks, blocks)[rows[:, None], cols[None, :]]
    ]
    # A few one-pixel segments painted over the blocks.
    for _ in range(draw(st.integers(0, 4))):
        r, c = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        panoptic[r, c] = draw(st.sampled_from(palette))
    params = TargetParams(
        sigma=draw(st.sampled_from([0.5, 1.5, 4.0])),
        small_instance_area=draw(st.integers(1, 40)),
        small_instance_weight=draw(st.sampled_from([1.0, 3.0, 2.5])),
    )
    return spec, panoptic, params


@settings(max_examples=300, deadline=None)
@given(case=target_maps())
def test_encoders_equal_segment_loop_reference(case):
    spec, panoptic, params = case
    segments = thing_segments_reference(panoptic, spec)
    centers = mass_centers_reference(segments, panoptic.shape[1])
    offsets, thing_mask = offsets_reference(segments, panoptic.shape)
    weights = weight_map_reference(panoptic, segments, spec, params)
    heatmap = encode_center_heatmap([c for _, c in centers], Dims.of(panoptic), params)
    semantic = (panoptic // spec.label_divisor).astype(np.int32)

    bundle = encode_targets(panoptic, spec, params)
    assert bundle.centers == tuple(centers)
    assert [repr((c.row, c.col)) for _, c in bundle.centers] == [
        repr((c.row, c.col)) for _, c in centers
    ]
    for got, want in (
        (bundle.heatmap, heatmap),
        (bundle.offsets, offsets),
        (bundle.thing_mask, thing_mask),
        (bundle.semantic_weights, weights),
        (bundle.semantic_labels, semantic),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    areas = dict(zip(*np.unique(panoptic, return_counts=True)))
    assert bundle.areas == tuple(int(areas[pid]) for pid, _ in centers)

    assert compute_mass_centers(segment_table(panoptic, spec)) == centers
    got_offsets, got_mask = encode_offsets(segment_table(panoptic, spec))
    assert got_offsets.tobytes() == offsets.tobytes()
    assert got_mask.tobytes() == thing_mask.tobytes()
    assert semantic_weight_map(segment_table(panoptic, spec), params).tobytes() == weights.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("band", [1, 2, 3, targets._OFFSET_BAND])
def test_banded_offsets_equal_segment_loop_reference(band, threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
    try:
        for seed in range(3):
            scene = random_scene(60 + seed, min_size=2 * targets._OFFSET_BAND + 7, max_size=96)
            panoptic = scene.panoptic
            assert panoptic.shape[0] > 2 * band
            want = offsets_reference(thing_segments_reference(panoptic, scene.spec), panoptic.shape)
            assert want[1].any() and not want[1].all()
            with mock.patch.object(targets, "_OFFSET_BAND", band), \
                    mock.patch.object(core, "_block_threads", lambda: threads):
                got = encode_offsets(segment_table(panoptic, scene.spec))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes(), (seed, band, threads)
    finally:
        sys.setswitchinterval(interval)
