import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panopticore import core, metrics, postprocess
from panopticore.core import (
    CategorySpec,
    DatasetSpec,
    Dims,
    segment_table,
    validate,
)
from panopticore.selftest import segment_table_oracle
from panopticore.synth import make_spec
from panopticore.targets import encode_targets


def test_dims_invariants():
    with pytest.raises(ValueError):
        Dims(0, 5)
    assert Dims(3, 4).shape == (3, 4)
    assert Dims(3, 4).area == 12


def test_dataset_spec_rejects_duplicate_ids():
    cats = (
        CategorySpec(1, "a", True),
        CategorySpec(1, "b", False),
    )
    with pytest.raises(ValueError, match="duplicate"):
        DatasetSpec(categories=cats, ignore_label=255)


def test_dataset_spec_rejects_ignore_collision():
    with pytest.raises(ValueError, match="ignore_label"):
        DatasetSpec(categories=(CategorySpec(3, "a", True),), ignore_label=3)


def test_dataset_spec_rejects_id_over_divisor():
    with pytest.raises(ValueError, match="label_divisor"):
        DatasetSpec(
            categories=(CategorySpec(10, "a", True),), ignore_label=255, label_divisor=10
        )


def test_validate_well_formed_semantic():
    spec = make_spec()
    semantic = np.zeros((4, 4), dtype=np.int64)
    assert validate(semantic, spec, "semantic") == []


def test_validate_unknown_category_names_pixel():
    spec = make_spec(num_stuff=2, num_things=2)
    semantic = np.zeros((4, 4), dtype=np.int64)
    semantic[1, 2] = 77
    violations = validate(semantic, spec, "semantic")
    assert len(violations) == 1
    assert "pixel 6" in violations[0]
    assert "77" in violations[0]


def test_validate_heatmap_nan():
    spec = make_spec()
    heatmap = np.zeros((4, 4), dtype=np.float32)
    heatmap[2, 2] = np.nan
    violations = validate(heatmap, spec, "heatmap")
    assert len(violations) == 1 and "pixel 10" in violations[0]


def test_validate_heatmap_target_range():
    spec = make_spec()
    heatmap = np.full((2, 2), 1.5, dtype=np.float32)
    assert validate(heatmap, spec, "heatmap") == []
    assert len(validate(heatmap, spec, "heatmap", encoded_target=True)) == 4


def test_validate_float_kinds_report_non_finite_once():
    spec = make_spec()
    weights = np.ones((3, 4), dtype=np.float32)
    weights[0, 1], weights[1, 2], weights[2, 3] = np.nan, -1.0, -np.inf
    assert validate(weights, spec, "weights") == [
        "weights: pixel 1: non-finite value",
        "weights: pixel 11: non-finite value",
        "weights: pixel 6: negative weight -1.0",
    ]
    offsets = np.zeros((2, 2, 2), dtype=np.float32)
    assert validate(offsets, spec, "offsets") == []
    offsets[1, 0, 1] = np.inf
    assert validate(offsets, spec, "offsets") == ["offsets: pixel 2: non-finite value"]


def test_validate_panoptic_stuff_with_instance():
    spec = make_spec(num_stuff=2, num_things=2)
    stuff_id = sorted(spec.stuff_ids)[0]
    panoptic = np.full((2, 2), stuff_id * spec.label_divisor, dtype=np.int64)
    assert validate(panoptic, spec, "panoptic") == []
    panoptic[0, 0] = stuff_id * spec.label_divisor + 5
    violations = validate(panoptic, spec, "panoptic")
    assert len(violations) == 1 and "stuff" in violations[0]


def test_validate_offsets_shape():
    spec = make_spec()
    bad = np.zeros((4, 4, 3), dtype=np.float32)
    assert validate(bad, spec, "offsets")
    good = np.zeros((4, 4, 2), dtype=np.float32)
    assert validate(good, spec, "offsets") == []


def _report_reference(violations, mask, describe, limit=100):
    idx = np.flatnonzero(mask)
    for i in idx[:limit]:
        violations.append(describe(int(i)))
    if idx.size > limit:
        violations.append(f"... and {idx.size - limit} more")


def validate_labels_reference(array, spec, kind):
    """The label-map half of ``validate`` as first written, with ``np.isin``
    over the spec's ids; kept as the reference for the table lookups."""
    v = []
    labels = array.reshape(-1).astype(np.int64)
    if kind == "semantic":
        known = np.isin(labels, spec.category_ids) | (labels == spec.ignore_label)
        _report_reference(v, ~known, lambda i: f"{kind}: pixel {i}: unknown category id {int(labels[i])}")
    else:
        category = labels // spec.label_divisor
        instance = labels % spec.label_divisor
        known = np.isin(category, spec.category_ids) | (category == spec.ignore_label)
        _report_reference(
            v,
            ~known,
            lambda i: f"panoptic: pixel {i}: unknown category id {int(category[i])}",
        )
        stuff_ids = np.fromiter(spec.stuff_ids, dtype=np.int64, count=len(spec.stuff_ids))
        nonzero_stuff = np.isin(category, stuff_ids) & (instance != 0)
        _report_reference(
            v,
            nonzero_stuff,
            lambda i: f"panoptic: pixel {i}: stuff category {int(category[i])} "
            f"with nonzero instance {int(instance[i])}",
        )
        void_inst = (category == spec.ignore_label) & (instance != 0)
        _report_reference(
            v,
            void_inst,
            lambda i: f"panoptic: pixel {i}: VOID with nonzero instance {int(instance[i])}",
        )
    return v


# Category ids 1, 4 and 9 around an ignore label of 6: gaps below, between
# and above the ignore label.
GAPPY_SPEC = DatasetSpec(
    categories=(
        CategorySpec(9, "car", True),
        CategorySpec(1, "road", False),
        CategorySpec(4, "sky", False),
    ),
    ignore_label=6,
    label_divisor=10,
)
INT64_MAX = np.iinfo(np.int64).max


@st.composite
def label_maps(draw):
    spec = draw(st.sampled_from([GAPPY_SPEC, make_spec(num_stuff=2, num_things=2)]))
    kind = draw(st.sampled_from(["semantic", "panoptic"]))
    div = spec.label_divisor if kind == "panoptic" else 1
    categories = list(spec.category_ids) + [spec.ignore_label]
    gaps = [c for c in range(spec.max_known_label + 3) if c not in categories]
    category = st.one_of(
        st.sampled_from(categories),
        st.sampled_from(gaps),
        st.integers(-3, -1),
        st.integers(spec.max_known_label + 1, 10**6),
    )
    instance = st.sampled_from([0, 0, 1, 2, div - 1])
    composed = st.builds(lambda c, i: c * div + i, category, instance)
    extreme = st.sampled_from([INT64_MAX, INT64_MAX - 1, -INT64_MAX - 1, -1])
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    values = draw(
        st.lists(st.one_of(composed, composed, composed, extreme),
                 min_size=height * width, max_size=height * width)
    )
    return spec, kind, np.array(values, dtype=np.int64).reshape(height, width)


@settings(max_examples=300, deadline=None)
@given(case=label_maps())
def test_validate_equals_isin_reference(case):
    spec, kind, labels = case
    assert validate(labels, spec, kind) == validate_labels_reference(labels, spec, kind)


def test_validate_reports_past_the_limit_like_reference():
    labels = np.full((12, 12), 77, dtype=np.int64)
    got = validate(labels, GAPPY_SPEC, "semantic")
    assert got == validate_labels_reference(labels, GAPPY_SPEC, "semantic")
    assert got[-1] == "... and 44 more"


def _unknown_id_cases():
    spec = make_spec(num_stuff=2, num_things=2)
    div = spec.label_divisor
    good = np.zeros((6, 6), dtype=np.int64)  # stuff category 0
    good[:3, :3] = 2 * div + 1  # one thing instance

    def with_category(category, instance):
        bad = good.copy()
        bad[4:, 4:] = category * div + instance
        return bad

    def semantic(category):
        labels = good // div
        labels[4:, 4:] = category
        return labels

    no_instances = np.zeros((6, 6), dtype=np.int32)
    return spec, {
        "thing_mask_from_semantic": (
            "semantic map",
            lambda c: postprocess.thing_mask_from_semantic(semantic(c), spec),
        ),
        "merge_panoptic": (
            "semantic map",
            lambda c: postprocess.merge_panoptic(semantic(c), no_instances, spec),
        ),
        "panoptic_inference": (
            "semantic map",
            lambda c: postprocess.panoptic_inference(
                semantic(c), np.zeros((6, 6), np.float32), np.zeros((6, 6, 2), np.float32), spec
            ),
        ),
        "panoptic_quality-pred": (
            "pred map", lambda c: metrics.panoptic_quality(with_category(c, 1), good, spec)
        ),
        "panoptic_quality-gt": (
            "gt map", lambda c: metrics.panoptic_quality(good, with_category(c, 1), spec)
        ),
        "mean_iou-pred": (
            "pred map", lambda c: metrics.mean_iou(semantic(c), good // div, spec)
        ),
        "mean_iou-gt": (
            "gt map", lambda c: metrics.mean_iou(good // div, semantic(c), spec)
        ),
        "ap_matches_from_histogram-pred": (
            "pred map",
            lambda c: metrics.ap_matches_from_histogram(
                metrics.joint_histogram(with_category(c, 1), good), spec
            ),
        ),
        "ap_matches_from_histogram-gt": (
            "gt map",
            lambda c: metrics.ap_matches_from_histogram(
                metrics.joint_histogram(good, with_category(c, 1)), spec
            ),
        ),
        "encode_targets": ("panoptic map", lambda c: encode_targets(with_category(c, 1), spec)),
    }


_SPEC, _ENTRY_POINTS = _unknown_id_cases()


@pytest.mark.parametrize("category", [77, _SPEC.max_known_label + 1, -1], ids=["gap", "above", "negative"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_unknown_ids_rejected_at_every_entry_point(entry, category):
    name, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} contains ids unknown to the dataset spec$"):
        call(category)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_accept_a_known_id(entry):
    _, call = _ENTRY_POINTS[entry]
    call(sorted(_SPEC.thing_ids)[-1])


# Ids in [0, 65536) take the dense count on maps of up to 65536 pixels, and
# ids from 65536 up the np.unique sort: with label_divisor 2**14, thing
# category 3 ends at 65535 and VOID (ignore label 4) is 65536.
BOUND_SPEC = make_spec(num_stuff=2, num_things=2, ignore_label=4, label_divisor=1 << 14)


@st.composite
def segment_maps(draw):
    spec = draw(st.sampled_from([BOUND_SPEC, make_spec()]))
    div = spec.label_divisor
    dtype = draw(st.sampled_from([np.uint16, np.uint32, np.int64]))
    stuff = st.sampled_from(sorted(spec.stuff_ids)).map(lambda c: c * div)
    thing = st.builds(
        lambda c, i: c * div + i,  # instance 0 is crowd
        st.sampled_from(sorted(spec.thing_ids)),
        st.sampled_from([0, 1, 2, div - 2, div - 1]),
    )
    ids = st.one_of(stuff, thing, st.just(spec.void_id))
    if dtype is np.uint16:
        ids = ids.filter(lambda v: v <= np.iinfo(np.uint16).max)
    height = draw(st.integers(0, 10))
    width = draw(st.integers(0, 10))
    values = draw(st.lists(ids, min_size=height * width, max_size=height * width))
    return spec, np.array(values, dtype=dtype).reshape(height, width)


@settings(max_examples=300, deadline=None)
@given(case=segment_maps())
def test_segment_table_equals_unique_reference(case):
    spec, panoptic = case
    got = segment_table(panoptic, spec)
    want = segment_table_oracle(panoptic, spec)
    for name, a, b in zip(want._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_segment_table_runs_both_paths(monkeypatch):
    calls = []
    real_unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or real_unique(*a, **k))
    below = np.array([[3 * (1 << 14) + (1 << 14) - 1, 0]], dtype=np.uint32)  # 65535
    segment_table(below, BOUND_SPEC)
    assert calls == []
    at_bound = np.array([[BOUND_SPEC.void_id, 0]], dtype=np.uint32)  # 65536
    segment_table(at_bound, BOUND_SPEC)
    assert calls == [1]
    large = np.full((300, 300), BOUND_SPEC.void_id, dtype=np.int64)  # bound 90000
    segment_table(large, BOUND_SPEC)
    assert calls == [1]


@pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0)])
@pytest.mark.parametrize("dtype", [np.uint16, np.int64])
def test_segment_table_of_an_empty_map(shape, dtype):
    panoptic = np.zeros(shape, dtype=dtype)
    got = segment_table(panoptic, BOUND_SPEC)
    want = segment_table_oracle(panoptic, BOUND_SPEC)
    assert got.inverse.shape == shape and got.ids.dtype == dtype
    for name, a, b in zip(want._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("value", [-1, 20 * 1000, 77 * 1000, 10**12])
def test_segment_table_rejects_unknown_ids(value):
    panoptic = np.zeros((3, 3), dtype=np.int64)
    panoptic[1, 1] = value
    with pytest.raises(ValueError, match="^panoptic map contains ids unknown"):
        segment_table(panoptic, make_spec())


@st.composite
def faulty_panoptic_maps(draw):
    spec = draw(st.sampled_from([GAPPY_SPEC, make_spec(num_stuff=2, num_things=2)]))
    div = spec.label_divisor
    stuff = sorted(spec.stuff_ids)
    thing = sorted(spec.thing_ids)
    ids = st.one_of(
        st.sampled_from(stuff).map(lambda c: c * div),
        st.builds(lambda c, i: c * div + i, st.sampled_from(thing), st.integers(0, div - 1)),
        st.builds(lambda c, i: c * div + i, st.sampled_from(stuff), st.integers(1, div - 1)),
        st.integers(1, div - 1).map(lambda i: spec.void_id + i),  # VOID with instance
        st.just(spec.void_id),
        st.integers(spec.max_known_label + 1, 10**4).map(lambda c: c * div),  # unknown
        st.integers(-10**6, -1),  # negative
    )
    height = draw(st.integers(1, 16))
    width = draw(st.integers(1, 16))
    values = draw(st.lists(ids, min_size=height * width, max_size=height * width))
    return spec, np.array(values, dtype=np.int64).reshape(height, width)


@settings(max_examples=200, deadline=None)
@given(case=faulty_panoptic_maps())
def test_validate_panoptic_equals_reference(case):
    spec, panoptic = case
    got = validate(panoptic, spec, "panoptic")
    assert got == validate_labels_reference(panoptic, spec, "panoptic")


def test_validate_panoptic_past_the_limit_like_reference():
    spec = make_spec(num_stuff=2, num_things=2)
    div = spec.label_divisor
    panoptic = np.zeros((16, 32), dtype=np.int64)
    panoptic[0:4] = 77 * div  # 128 unknown
    panoptic[4:8] = 1 * div + 3  # 128 stuff with an instance part
    panoptic[8:12] = spec.void_id + 9  # 128 VOID with an instance part
    panoptic[12:14] = -5  # 64 negative (unknown category -1)
    got = validate(panoptic, spec, "panoptic")
    assert got == validate_labels_reference(panoptic, spec, "panoptic")
    assert got.count("... and 92 more") == 1 and got.count("... and 28 more") == 2
    panoptic[:14] = 2 * div + 1
    assert validate(panoptic, spec, "panoptic") == []


# ---------------------------------------------------------------------------
# Run scan in blocks


def _scan_reference(*flats, width=0):
    """``core._runs`` as one whole-array pass."""
    size = flats[0].size
    edge = np.zeros(size + 1, dtype=bool)
    for flat in flats:
        edge[1:size] |= flat[1:] != flat[:-1]
    edge[:: width or max(size, 1)] = True
    edges = np.flatnonzero(edge)
    return edges[:-1], np.diff(edges)


def _run_maps(size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat maps of random runs, with a run across the first block
    boundary, a change of both maps exactly at the second boundary's pixel
    and a change of the second map alone at the third's."""
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(1 / 40, size=size // 10 + 2)
    first = np.repeat(rng.integers(0, 6, lengths.size), lengths)[:size].astype(np.uint32)
    second = np.repeat(rng.integers(0, 3, lengths.size), lengths[::-1])[:size].astype(np.int64)
    block = core._RUN_BLOCK
    first[block - 7 : block + 9], second[block - 7 : block + 9] = 9, 9
    first[2 * block - 3 : 2 * block], first[2 * block : 2 * block + 3] = 7, 8
    second[2 * block - 3 : 2 * block], second[2 * block : 2 * block + 3] = 7, 8
    first[3 * block - 3 : 3 * block + 3] = 5
    second[3 * block - 3 : 3 * block], second[3 * block : 3 * block + 3] = 4, 6
    return first, second


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize(
    "size, width",
    [((1 << 20) - 1, 1023), (1 << 20, 1024), ((1 << 20) + 1, 61681), (1025 * 2049, 2049)],
)
def test_blocked_run_scan_equals_one_block(monkeypatch, size, width, threads):
    first, second = _run_maps(size, size)
    blocks = []
    real_run_blocks = core._run_blocks
    monkeypatch.setattr(core, "_block_threads", lambda: threads)
    monkeypatch.setattr(
        core, "_run_blocks", lambda body, count: blocks.append(count) or real_run_blocks(body, count)
    )
    for flats in ((first,), (first, second), (second, first)):
        for w in (0, width):
            got = core._runs(*flats, width=w)
            one_block = core._run_edges(flats, w, 0, size)
            for a, b, c in zip(got, _scan_reference(*flats, width=w),
                               (one_block[:-1], np.diff(one_block))):
                assert a.dtype == b.dtype == c.dtype
                assert a.tobytes() == b.tobytes() == c.tobytes()
    # Below 2^20 pixels one block, from it on blocks of _RUN_BLOCK.
    want = [] if size < 1 << 20 else [-(-size // core._RUN_BLOCK)] * 6
    assert blocks == want


def test_eval_report_bytes_do_not_depend_on_block_threads(tmp_path, monkeypatch):
    """Full-size eval under 1, 2 and 4 block threads; then three images on
    three --threads workers, whose run scans share the block pool, with
    thread switches forced often: each row is the one-image aggregate."""
    from panopticore.cli import main
    from panopticore.synth import bench_inputs
    from panopticore.tensor_io import write_spec, write_tensor

    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    result = postprocess.panoptic_inference(semantic, heatmap, offsets, spec)
    gt = result.panoptic.astype(np.uint32)
    write_spec(spec, tmp_path / "spec.json")
    write_tensor(gt, tmp_path / "gt.pdlt")
    write_tensor(np.roll(gt, (3, -5), axis=(0, 1)), tmp_path / "pred.pdlt")
    pred, gt, spec_path = (str(tmp_path / name) for name in ("pred.pdlt", "gt.pdlt", "spec.json"))
    reports = []
    for threads in (1, 2, 4):
        monkeypatch.setattr(core, "_block_threads", lambda: threads)
        out = tmp_path / f"report{threads}.json"
        assert main(["eval", "--pred", pred, "--gt", gt, "--spec", spec_path,
                     "--report", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    one = json.loads(reports[0])["aggregate"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = tmp_path / "three.json"
        assert main(["eval", "--pred", pred, pred, pred, "--gt", gt, gt, gt, "--spec", spec_path,
                     "--threads", "3", "--report", str(out)]) == 0
    finally:
        sys.setswitchinterval(interval)
    rows = json.loads(out.read_bytes())["images"]
    assert [{k: v for k, v in row.items() if k not in ("pred", "gt")} for row in rows] == [one] * 3
