import math

import numpy as np
import pytest

from panopticore.core import Dims, InstanceCenter, validate
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


def test_mass_center_two_pixels():
    centers = compute_mass_centers(panoptic_with([(0, 0), (0, 2)]), SPEC)
    assert len(centers) == 1
    _, center = centers[0]
    assert (center.row, center.col) == (0.0, 1.0)


def test_mass_center_single_pixel():
    centers = compute_mass_centers(panoptic_with([(5, 7)]), SPEC)
    assert (centers[0][1].row, centers[0][1].col) == (5.0, 7.0)


def test_mass_center_three_pixels():
    # Oracle: arithmetic mean over the enumerated pixels.
    pixels = [(0, 0), (1, 0), (1, 1)]
    want_row = sum(p[0] for p in pixels) / len(pixels)
    want_col = sum(p[1] for p in pixels) / len(pixels)
    centers = compute_mass_centers(panoptic_with(pixels), SPEC)
    _, center = centers[0]
    assert center.row == pytest.approx(want_row, abs=1e-15)
    assert center.col == pytest.approx(want_col, abs=1e-15)
    assert center.row == pytest.approx(2 / 3)
    assert center.col == pytest.approx(1 / 3)


def test_mass_center_disconnected_segment_is_one_instance():
    panoptic = panoptic_with([(0, 0), (7, 7)])
    centers = compute_mass_centers(panoptic, SPEC)
    assert len(centers) == 1
    assert (centers[0][1].row, centers[0][1].col) == (3.5, 3.5)


def test_mass_center_skips_crowd_and_stuff():
    panoptic = panoptic_with([(1, 1)], instance=1)
    panoptic[4, 4] = THING * SPEC.label_divisor  # crowd: instance part 0
    centers = compute_mass_centers(panoptic, SPEC)
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


def test_offsets_point_at_center():
    panoptic = panoptic_with([(10, 20), (16, 16), (13, 18)], height=32, width=32)
    # Mass center of the three pixels:
    want = (13.0, 18.0)
    offsets, mask = encode_offsets(panoptic, SPEC)
    assert mask[10, 20] and mask[16, 16] and mask[13, 18]
    assert offsets[10, 20, 0] == pytest.approx(want[0] - 10)
    assert offsets[10, 20, 1] == pytest.approx(want[1] - 20)
    assert offsets[13, 18, 0] == 0.0 and offsets[13, 18, 1] == 0.0


def test_offsets_zero_at_stuff():
    panoptic = panoptic_with([(1, 1)])
    offsets, mask = encode_offsets(panoptic, SPEC)
    assert not mask[0, 0]
    assert (offsets[~mask] == 0).all()


def test_offsets_land_on_mass_center_random_scene():
    scene = random_scene(11, min_size=32, max_size=32, allow_void=False)
    offsets, mask = encode_offsets(scene.panoptic, scene.spec)
    centers = dict(compute_mass_centers(scene.panoptic, scene.spec))
    rows, cols = np.nonzero(mask)
    for r, c in zip(rows, cols):
        pid = int(scene.panoptic[r, c])
        center = centers[pid]
        landed = (r + float(offsets[r, c, 0]), c + float(offsets[r, c, 1]))
        assert landed[0] == pytest.approx(center.row, abs=1e-3)
        assert landed[1] == pytest.approx(center.col, abs=1e-3)


def test_weight_map_small_instance():
    pixels = [(r, c) for r in range(8) for c in range(8)]  # area 64 < 4096
    weights = semantic_weight_map(panoptic_with(pixels, 16, 16), SPEC)
    assert weights[0, 0] == 3.0
    assert weights[15, 15] == 1.0  # stuff pixel


def test_weight_map_area_boundary():
    params = TargetParams(small_instance_area=4)
    small = panoptic_with([(0, 0), (0, 1), (0, 2)])  # area 3 < 4
    exact = panoptic_with([(0, 0), (0, 1), (0, 2), (0, 3)])  # area 4, not < 4
    assert semantic_weight_map(small, SPEC, params)[0, 0] == 3.0
    assert semantic_weight_map(exact, SPEC, params)[0, 0] == 1.0


def test_weight_map_ignore_pixels_zero():
    panoptic = panoptic_with([(1, 1)])
    panoptic[3, 3] = SPEC.void_id
    weights = semantic_weight_map(panoptic, SPEC)
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
    offsets, thing_mask = encode_offsets(panoptic, spec)
    assert bundle.offsets.tobytes() == offsets.tobytes()
    assert bundle.thing_mask.tobytes() == thing_mask.tobytes()
    weights = semantic_weight_map(panoptic, spec, params)
    assert bundle.semantic_weights.tobytes() == weights.tobytes()
    assert (weights == 0).any() and (weights == params.small_instance_weight).any()
    centers = compute_mass_centers(panoptic, spec)
    assert bundle.centers == tuple(centers) and centers
    heatmap = encode_center_heatmap([c for _, c in centers], Dims.of(panoptic), params)
    assert bundle.heatmap.tobytes() == heatmap.tobytes()
