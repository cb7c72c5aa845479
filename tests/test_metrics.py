import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panopticore.metrics import (
    DEFAULT_AP_THRESHOLDS,
    _average_precision,
    ap_matches_from_histogram,
    ap_report_from_matches,
    combine_miou,
    combine_pq,
    joint_histogram,
    mask_ap,
    match_detections,
    match_segments,
    mean_iou,
    miou_from_histogram,
    panoptic_quality,
    pq_from_histogram,
    pq_report_from_counts,
)
from panopticore.selftest import histogram_mismatch, random_valid_map
from panopticore.synth import make_spec, random_scene

SPEC = make_spec(num_stuff=2, num_things=2)
STUFF = sorted(SPEC.stuff_ids)
THING = sorted(SPEC.thing_ids)
DIV = SPEC.label_divisor


# ---------------------------------------------------------------------------
# match_segments


def test_match_identical_maps():
    gt = np.full((8, 8), STUFF[0] * DIV, dtype=np.int64)
    gt[0:4, 0:4] = THING[0] * DIV + 1
    gt[4:8, 4:8] = THING[1] * DIV + 1
    matches = match_segments(gt.copy(), gt, SPEC)
    assert len(matches) == 3
    assert all(iou == 1.0 for _, _, iou in matches)


def test_match_split_segment_no_pair():
    gt = np.full((4, 4), STUFF[0] * DIV, dtype=np.int64)
    gt[:, :] = THING[0] * DIV + 1
    pred = np.empty_like(gt)
    pred[:, :2] = THING[0] * DIV + 1
    pred[:, 2:] = THING[0] * DIV + 2
    # Each half has IoU exactly 0.5 with the gt segment: no match (strict >).
    assert match_segments(pred, gt, SPEC) == []


def test_match_iou_exactly_half_not_matched():
    def thing_pairs(pred, gt):
        return [
            (p, g, iou)
            for p, g, iou in match_segments(pred, gt, SPEC)
            if p // DIV in SPEC.thing_ids
        ]

    gt = np.full((2, 4), STUFF[0] * DIV, dtype=np.int64)
    gt[0] = THING[0] * DIV + 1  # area 4
    pred = np.full((2, 4), STUFF[0] * DIV, dtype=np.int64)
    pred[0, :2] = THING[0] * DIV + 1  # overlap 2, union 4 -> IoU 0.5
    assert thing_pairs(pred, gt) == []
    pred[0, 2] = THING[0] * DIV + 1  # overlap 3, union 4 -> IoU 0.75
    assert len(thing_pairs(pred, gt)) == 1


def _bruteforce_pairs(pred, gt, spec):
    """Independent all-pairs filter: same category, IoU > 0.5, computed by
    set enumeration with gt VOID/crowd removed."""
    def segments(m):
        out = {}
        for pid in np.unique(m):
            cat, inst = int(pid) // spec.label_divisor, int(pid) % spec.label_divisor
            if cat == spec.ignore_label:
                continue
            if cat in spec.thing_ids and inst == 0:
                continue
            out[int(pid)] = {tuple(p) for p in np.argwhere(m == pid)}
        return out

    excluded = set()
    for pid in np.unique(gt):
        cat, inst = int(pid) // spec.label_divisor, int(pid) % spec.label_divisor
        if cat == spec.ignore_label or (cat in spec.thing_ids and inst == 0):
            excluded |= {tuple(p) for p in np.argwhere(gt == pid)}

    pred_segments, gt_segments = segments(pred), segments(gt)
    pairs = []
    for pk, pset in pred_segments.items():
        if 2 * len(pset & excluded) > len(pset):
            continue
        for gk, gset in gt_segments.items():
            if pk // spec.label_divisor != gk // spec.label_divisor:
                continue
            inter = len(pset & gset)
            union = len((pset | gset) - excluded)
            if union and inter / union > 0.5:
                pairs.append((pk, gk, inter / union))
    return sorted(pairs)


def test_match_equals_bruteforce_on_random_maps():
    rng = np.random.default_rng(17)
    spec = make_spec(num_stuff=2, num_things=2)
    for _ in range(100):
        pred = random_valid_map(rng, spec, height=8, width=8)
        gt = random_valid_map(rng, spec, height=8, width=8)
        got = sorted(match_segments(pred, gt, spec))
        want = _bruteforce_pairs(pred, gt, spec)
        assert [(p, g) for p, g, _ in got] == [(p, g) for p, g, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# panoptic_quality


def test_pq_perfect_prediction():
    gt = np.full((16, 16), STUFF[0] * DIV, dtype=np.int64)
    gt[0:8, 0:8] = THING[0] * DIV + 1
    gt[10:14, 10:14] = STUFF[1] * DIV
    report = panoptic_quality(gt.copy(), gt, SPEC)
    assert report.all.pq == 1.0
    for row in report.per_category.values():
        assert (row.pq, row.sq, row.rq) == (1.0, 1.0, 1.0)


def test_pq_formula_one_tp_one_fn():
    gt = np.full((20, 20), STUFF[0] * DIV, dtype=np.int64)
    pred = gt.copy()
    gt[0:10, :] = THING[0] * DIV + 1  # area 200
    pred[0:8, :] = THING[0] * DIV + 1  # overlap 160 -> IoU 0.8
    gt[15:19, 0:10] = THING[0] * DIV + 2  # missed -> FN
    report = panoptic_quality(pred, gt, SPEC)
    row = report.per_category[THING[0]]
    assert row.tp == 1 and row.fn == 1 and row.fp == 0
    assert row.pq == pytest.approx(0.8 / 1.5, abs=1e-9)
    assert row.sq == pytest.approx(0.8, abs=1e-12)
    assert row.rq == pytest.approx(1 / 1.5, abs=1e-12)


def test_pq_identity_per_category():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pred = random_valid_map(rng, SPEC, 12, 12)
        gt = random_valid_map(rng, SPEC, 12, 12)
        report = panoptic_quality(pred, gt, SPEC)
        for row in report.per_category.values():
            if row.tp > 0:
                assert row.pq == row.sq * row.rq  # bitwise identity


def test_pq_void_pixels_excluded():
    gt = np.full((10, 10), STUFF[0] * DIV, dtype=np.int64)
    gt[0:5, :] = THING[0] * DIV + 1
    gt[0:2, :] = SPEC.void_id  # part of the instance area is VOID
    pred = np.full((10, 10), STUFF[0] * DIV, dtype=np.int64)
    pred[2:5, :] = THING[0] * DIV + 7  # matches the non-void remainder exactly
    report = panoptic_quality(pred, gt, SPEC)
    assert report.per_category[THING[0]].tp == 1
    assert report.per_category[THING[0]].iou_sum == 1.0


def test_pq_mostly_void_prediction_not_fp():
    gt = np.full((10, 10), SPEC.void_id, dtype=np.int64)
    gt[9, :] = STUFF[0] * DIV
    pred = np.full((10, 10), STUFF[0] * DIV, dtype=np.int64)
    pred[0:8, :] = THING[0] * DIV + 1  # 80 pixels, all over gt VOID
    report = panoptic_quality(pred, gt, SPEC)
    assert THING[0] not in report.per_category  # dropped, not an FP


def test_pq_crowd_gt_absorbs_like_void():
    gt = np.full((10, 10), STUFF[0] * DIV, dtype=np.int64)
    gt[0:6, :] = THING[0] * DIV  # crowd: instance part 0
    pred = np.full((10, 10), STUFF[0] * DIV, dtype=np.int64)
    pred[0:6, :] = THING[0] * DIV + 1  # entirely over crowd
    report = panoptic_quality(pred, gt, SPEC)
    row = report.per_category.get(THING[0])
    assert row is None or (row.fp == 0 and row.fn == 0)


def test_pq_aggregates_split_things_stuff():
    gt = np.full((8, 8), STUFF[0] * DIV, dtype=np.int64)
    gt[0:4, :] = THING[0] * DIV + 1
    report = panoptic_quality(gt.copy(), gt, SPEC)
    assert report.things.num_categories == 1
    assert report.stuff.num_categories == 1
    assert report.things.pq == 1.0 and report.stuff.pq == 1.0


def test_pq_combination_identity():
    rng = np.random.default_rng(5)
    reports = []
    pairs = []
    for _ in range(4):
        pred = random_valid_map(rng, SPEC, 12, 12)
        gt = random_valid_map(rng, SPEC, 12, 12)
        pairs.append((pred, gt))
        reports.append(panoptic_quality(pred, gt, SPEC))
    combined = combine_pq(reports, SPEC)
    # Recompute from summed counts by hand.
    for cid, row in combined.per_category.items():
        tp = sum(r.per_category[cid].tp for r in reports if cid in r.per_category)
        fp = sum(r.per_category[cid].fp for r in reports if cid in r.per_category)
        fn = sum(r.per_category[cid].fn for r in reports if cid in r.per_category)
        iou = sum(r.per_category[cid].iou_sum for r in reports if cid in r.per_category)
        assert (row.tp, row.fp, row.fn) == (tp, fp, fn)
        denom = tp + 0.5 * fp + 0.5 * fn
        assert row.pq == pytest.approx((iou / tp) * (tp / denom) if tp else 0.0)


# ---------------------------------------------------------------------------
# mean_iou


def test_miou_identical():
    gt = np.array([[STUFF[0], STUFF[1]], [THING[0], THING[1]]], dtype=np.int64)
    report = mean_iou(gt.copy(), gt, SPEC)
    assert report.mean == 1.0
    assert all(v == 1.0 for v in report.per_category.values())


def test_miou_disjoint_category_zero():
    gt = np.full((2, 2), STUFF[0], dtype=np.int64)
    pred = np.full((2, 2), STUFF[1], dtype=np.int64)
    report = mean_iou(pred, gt, SPEC)
    assert report.per_category[STUFF[0]] == 0.0
    assert report.mean == 0.0


def test_miou_half_overlap_is_one_third():
    # 2x2 map: category A on two pixels in gt, shifted by one in pred.
    a, b = STUFF[0], STUFF[1]
    gt = np.array([[a, a], [b, b]], dtype=np.int64)
    pred = np.array([[b, a], [a, b]], dtype=np.int64)
    report = mean_iou(pred, gt, SPEC)
    assert report.per_category[a] == pytest.approx(1 / 3)
    assert report.per_category[b] == pytest.approx(1 / 3)


def test_miou_ignores_gt_ignore_pixels():
    gt = np.full((2, 2), STUFF[0], dtype=np.int64)
    gt[0, 0] = SPEC.ignore_label
    pred = np.full((2, 2), STUFF[0], dtype=np.int64)
    pred[0, 0] = STUFF[1]  # wrong only at the ignored pixel
    report = mean_iou(pred, gt, SPEC)
    assert report.mean == 1.0


def test_miou_mean_over_present_categories():
    gt = np.full((4, 4), STUFF[0], dtype=np.int64)
    pred = gt.copy()
    pred[0, 0] = THING[0]
    present = mean_iou(pred, gt, SPEC)
    assert set(present.per_category) == {STUFF[0], THING[0]}
    assert present.mean == pytest.approx(15 / 16)  # only STUFF[0] is in gt
    everything = mean_iou(pred, gt, SPEC, average_over="all")
    assert everything.mean == pytest.approx((15 / 16 + 0.0 + 0.0 + 0.0) / 4)


def test_miou_combination_identity():
    rng = np.random.default_rng(6)
    ids = np.array(sorted(SPEC.category_ids) + [SPEC.ignore_label])
    reports, stacks = [], []
    for _ in range(3):
        gt = ids[rng.integers(0, len(ids), size=(6, 6))]
        pred = ids[rng.integers(0, len(ids), size=(6, 6))]
        stacks.append((pred, gt))
        reports.append(mean_iou(pred, gt, SPEC))
    combined = combine_miou(reports, SPEC)
    stacked_pred = np.concatenate([p for p, _ in stacks], axis=0)
    stacked_gt = np.concatenate([g for _, g in stacks], axis=0)
    direct = mean_iou(stacked_pred, stacked_gt, SPEC)
    assert combined.mean == pytest.approx(direct.mean, rel=1e-12)
    assert combined.per_category == direct.per_category


# ---------------------------------------------------------------------------
# mask_ap


def _box_mask(r0, r1, c0, c1, dims=(16, 16)):
    mask = np.zeros(dims, dtype=bool)
    mask[r0:r1, c0:c1] = True
    return mask


def test_ap_perfect_single_prediction():
    gt_mask = _box_mask(2, 10, 2, 10)
    report = mask_ap([(gt_mask.copy(), 1, 0.9)], [(gt_mask, 1, False)])
    assert report.mean_ap == 1.0
    assert all(v == 1.0 for v in report.per_threshold.values())


def test_ap_iou_06_mean_03():
    # Pred overlaps gt with IoU exactly 0.6: passes 0.50/0.55/0.60 only.
    gt_mask = _box_mask(0, 10, 0, 10)  # area 100
    pred_mask = _box_mask(0, 10, 2, 10)  # area 80, inter 80, union 100... no
    # inter=80, union=100 -> 0.8; build IoU 0.6 instead: pred area 60 inside.
    pred_mask = _box_mask(0, 6, 0, 10)  # inter 60, union 100 -> 0.6
    report = mask_ap([(pred_mask, 1, 0.9)], [(gt_mask, 1, False)])
    passing = [t for t, v in report.per_threshold.items() if v == 1.0]
    assert sorted(passing) == [0.5, 0.55, 0.6]
    assert report.mean_ap == pytest.approx(0.3)


def test_ap_no_predictions_zero():
    gt_mask = _box_mask(0, 4, 0, 4)
    report = mask_ap([], [(gt_mask, 1, False)])
    assert report.mean_ap == 0.0


def test_ap_no_gt_undefined_category_excluded():
    pred_mask = _box_mask(0, 4, 0, 4)
    report = mask_ap([(pred_mask, 1, 0.5)], [])
    assert report.per_category == {}
    assert report.mean_ap == 0.0


def test_ap_monotone_score_transform_invariant():
    rng = np.random.default_rng(8)
    gts = [(_box_mask(0, 8, 0, 8), 1, False), (_box_mask(8, 16, 8, 16), 1, False)]
    preds = [
        (_box_mask(0, 8, 0, 7), 1, 0.7),
        (_box_mask(8, 16, 8, 14), 1, 0.4),
        (_box_mask(0, 4, 8, 16), 1, 0.2),
    ]
    base = mask_ap(preds, gts)
    squashed = mask_ap([(m, c, s**3 + 1) for m, c, s in preds], gts)
    assert base.mean_ap == squashed.mean_ap
    assert base.per_threshold == squashed.per_threshold


def test_ap_crowd_absorbs_without_fn():
    crowd = (_box_mask(0, 8, 0, 8), 1, True)
    regular = (_box_mask(8, 16, 8, 16), 1, False)
    pred_on_crowd = (_box_mask(0, 6, 0, 6), 1, 0.9)  # inter/dt_area = 1.0
    pred_on_regular = (_box_mask(8, 16, 8, 16), 1, 0.8)
    report = mask_ap([pred_on_crowd, pred_on_regular], [crowd, regular])
    # Crowd match is ignored; the regular match is a clean TP with n_pos 1.
    assert report.mean_ap == 1.0


def test_ap_score_ties_keep_insertion_order():
    gt = [(_box_mask(0, 8, 0, 8), 1, False)]
    hit = (_box_mask(0, 8, 0, 8), 1, 0.5)
    miss = (np.zeros((16, 16), dtype=bool) | _box_mask(12, 16, 12, 16), 1, 0.5)
    # hit first: TP then FP -> precision at recall 1 is 1.0.
    first = mask_ap([hit, miss], gt)
    # miss first: FP then TP -> precision at recall 1 is 0.5.
    second = mask_ap([miss, hit], gt)
    assert first.per_threshold[0.5] == 1.0
    assert second.per_threshold[0.5] == pytest.approx(0.5)


def test_ap_max_dets_truncates():
    gt = [(_box_mask(0, 8, 0, 8), 1, False)]
    noise = [(_box_mask(12, 16, 12, 16), 1, 0.9)] * 3
    hit = (_box_mask(0, 8, 0, 8), 1, 0.1)
    unlimited = mask_ap(noise + [hit], gt)
    limited = mask_ap(noise + [hit], gt, max_dets=3)
    assert unlimited.per_threshold[0.5] > 0
    assert limited.per_threshold[0.5] == 0.0


def test_ap_nonfinite_score_rejected():
    with pytest.raises(ValueError, match="finite"):
        mask_ap([(np.ones((2, 2), dtype=bool), 1, float("nan"))], [])


def test_ap_pooled_across_images():
    gt_a = [(_box_mask(0, 8, 0, 8), 1, False)]
    gt_b = [(_box_mask(0, 8, 0, 8), 1, False)]
    pred_a = [(_box_mask(0, 8, 0, 8), 1, 0.9)]
    pred_b: list = []
    tables = [match_detections(pred_a, gt_a), match_detections(pred_b, gt_b)]
    pooled = ap_report_from_matches(tables)
    # One TP out of two positives at every threshold: recall caps at 0.5.
    # 101-point AP: precision 1.0 up to recall 0.5, zero beyond -> 51/101.
    assert pooled.per_threshold[0.5] == pytest.approx(51 / 101)


# ---------------------------------------------------------------------------
# order independence


def test_metrics_independent_of_segment_enumeration():
    scene_a = random_scene(31, max_size=64)
    relabeled = scene_a.panoptic.copy()
    # Swap two instance ids (same categories stay matched by content).
    ids = [
        int(pid)
        for pid in np.unique(scene_a.panoptic)
        if int(pid) % DIV >= 1
    ]
    if len(ids) >= 2:
        a, b = ids[0], ids[1]
        where_a = scene_a.panoptic == a
        where_b = scene_a.panoptic == b
        cat_a, cat_b = a // DIV, b // DIV
        relabeled[where_a] = cat_a * DIV + 900
        relabeled[where_b] = cat_b * DIV + 901
    before = panoptic_quality(scene_a.panoptic, scene_a.panoptic, scene_a.spec)
    after = panoptic_quality(relabeled, scene_a.panoptic, scene_a.spec)
    assert before.all.pq == after.all.pq == 1.0


# ---------------------------------------------------------------------------
# joint histogram: one table feeds PQ, mIoU and AP


def _reference_panoptic_quality(pred, gt, spec):
    """PQ as computed before the joint histogram: a segment table per map, a
    Python loop over the packed intersection codes, dict tallies."""
    div = spec.label_divisor

    def table(m):
        ids, areas = np.unique(m.astype(np.int64), return_counts=True)
        cats, inst = ids // div, ids % div
        excl = (cats == spec.ignore_label) | (np.isin(cats, list(spec.thing_ids)) & (inst == 0))
        return {int(i): (int(a), int(c), bool(e)) for i, a, c, e in zip(ids, areas, cats, excl)}

    pred_tab, gt_tab = table(pred), table(gt)
    scale = int(gt.max()) + 1
    codes, counts = np.unique(pred.astype(np.int64) * scale + gt, return_counts=True)
    inter = [(int(c) // scale, int(c) % scale, int(n)) for c, n in zip(codes, counts)]
    void_overlap = dict.fromkeys(pred_tab, 0)
    for p, g, a in inter:
        if gt_tab[g][2]:
            void_overlap[p] += a
    dropped = {p for p, (area, _, e) in pred_tab.items() if e or 2 * void_overlap[p] > area}
    matches = []
    for p, g, a in inter:
        (p_area, p_cat, _), (g_area, g_cat, g_excl) = pred_tab[p], gt_tab[g]
        if g_excl or p in dropped or p_cat != g_cat:
            continue
        iou = a / (p_area + g_area - a - void_overlap[p])
        if iou > 0.5:
            matches.append((p, g, iou))
    counts = {}
    for p, _, iou in matches:
        b = counts.setdefault(pred_tab[p][1], [0, 0, 0, 0.0])
        b[0] += 1
        b[3] += iou
    for p, (_, cat, _) in pred_tab.items():
        if p not in dropped and p not in {m[0] for m in matches}:
            counts.setdefault(cat, [0, 0, 0, 0.0])[1] += 1
    for g, (_, cat, excl) in gt_tab.items():
        if not excl and g not in {m[1] for m in matches}:
            counts.setdefault(cat, [0, 0, 0, 0.0])[2] += 1
    return pq_report_from_counts({c: tuple(v) for c, v in counts.items()}, spec)


HIST_SPEC = make_spec(num_stuff=2, num_things=3)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(4, 24), st.integers(4, 24)),
    mix=st.sampled_from([0.0, 0.2, 1.0]),
    score_values=st.sampled_from([None, (0.5,), (0.3, 0.6), (0.1, 0.4, 0.7, 0.9)]),
    max_dets=st.sampled_from([1, 2, 200]),
)
def test_histogram_metrics_equal_dense_references(seed, shape, mix, score_values, max_dets):
    """Crowd, VOID and wrong categories come from random_valid_map; ties from
    few score values; no scores; max_dets below a category's detections."""
    spec = HIST_SPEC
    rng = np.random.default_rng(seed)
    gt = random_valid_map(rng, spec, *shape)
    pred = np.where(rng.random(shape) < mix, random_valid_map(rng, spec, *shape), gt)
    scores = None
    if score_values is not None:
        scores = {k: float(rng.choice(score_values)) for k in range(1, 4)}
    hist = joint_histogram(pred, gt)

    for ids, areas, m in ((hist.pred_ids, hist.pred_areas, pred), (hist.gt_ids, hist.gt_areas, gt)):
        want_ids, want_areas = np.unique(m, return_counts=True)
        assert np.array_equal(ids, want_ids) and np.array_equal(areas, want_areas)

    assert pq_from_histogram(hist, spec) == _reference_panoptic_quality(pred, gt, spec)
    assert panoptic_quality(pred, gt, spec) == _reference_panoptic_quality(pred, gt, spec)
    # mIoU report and confusion, AP match tables field for field.
    assert histogram_mismatch(pred, gt, spec, scores, max_dets) == ""


def test_histogram_ap_scores_required_for_every_detection():
    gt = np.full((8, 8), STUFF[0] * DIV, dtype=np.int64)
    gt[0:4, 0:4] = THING[0] * DIV + 1
    pred = gt.copy()
    pred[4:8, 4:8] = THING[1] * DIV + 2
    hist = joint_histogram(pred, gt)
    with pytest.raises(KeyError):
        ap_matches_from_histogram(hist, SPEC, {1: 0.9})
    unscored = ap_matches_from_histogram(hist, SPEC)
    assert unscored[THING[0]]["scores"].tolist() == [1.0]


@pytest.mark.parametrize(
    "offset",
    [-(2**40), 2**40],  # negative ids; ids too large to pack into one int64 code
)
def test_joint_histogram_pair_rows_fallback(offset):
    rng = np.random.default_rng(11)
    pred = rng.integers(0, 4, size=(6, 7)) + offset
    gt = rng.integers(0, 5, size=(6, 7)) * (2**31)
    hist = joint_histogram(pred, gt)
    want = {}
    for p, g in zip(pred.reshape(-1).tolist(), gt.reshape(-1).tolist()):
        want[(p, g)] = want.get((p, g), 0) + 1
    got = {
        (int(hist.pred_ids[p]), int(hist.gt_ids[g])): int(n)
        for p, g, n in zip(hist.pred_index, hist.gt_index, hist.counts)
    }
    assert got == want
    assert list(got) == sorted(want)  # ascending (pred id, gt id) order


def test_pq_duplicate_match_raises_runtime_error():
    """The uniqueness invariant is an explicit check that survives python -O."""
    gt = np.full((4, 4), STUFF[0] * DIV, dtype=np.int64)
    hist = joint_histogram(gt.copy(), gt)
    doubled = type(hist)(
        hist.pred_ids, hist.pred_areas, hist.gt_ids, hist.gt_areas,
        np.repeat(hist.pred_index, 2), np.repeat(hist.gt_index, 2), np.repeat(hist.counts, 2),
    )
    with pytest.raises(RuntimeError, match="duplicate segment"):
        pq_from_histogram(doubled, SPEC)


def _reference_match_detections(preds, gts, thresholds, max_dets):
    """The per-threshold, per-detection, per-gt loop that the vectorized
    greedy matching replaced."""
    out = {}
    for category in sorted({c for _, c, _ in preds} | {c for _, c, _ in gts}):
        dts = [(m, float(s)) for m, c, s in preds if c == category]
        dts = [dts[i] for i in sorted(range(len(dts)), key=lambda i: -dts[i][1])[:max_dets]]
        cat_gts = sorted([(m, bool(k)) for m, c, k in gts if c == category], key=lambda g: g[1])
        ious = np.zeros((len(dts), len(cat_gts)))
        for i, (dm, _) in enumerate(dts):
            for j, (gm, crowd) in enumerate(cat_gts):
                inter = int((dm & gm).sum())
                if inter:
                    union = int(dm.sum()) if crowd else int(dm.sum()) + int(gm.sum()) - inter
                    ious[i, j] = inter / union
        tp = np.zeros((len(thresholds), len(dts)), dtype=bool)
        ignored = np.zeros_like(tp)
        for ti, t in enumerate(thresholds):
            taken = [False] * len(cat_gts)
            for di in range(len(dts)):
                best_iou, best = float(t), -1
                for gi, (_, crowd) in enumerate(cat_gts):
                    if taken[gi] and not crowd:
                        continue
                    if best >= 0 and not cat_gts[best][1] and crowd:
                        break
                    if ious[di, gi] < best_iou or (ious[di, gi] == best_iou and best >= 0):
                        continue
                    best_iou, best = ious[di, gi], gi
                if best >= 0 and cat_gts[best][1]:
                    ignored[ti, di] = True
                elif best >= 0:
                    tp[ti, di] = taken[best] = True
        out[category] = {
            "scores": np.array([s for _, s in dts], dtype=np.float64),
            "tp": tp,
            "ignored": ignored,
            "n_positive": sum(1 for _, crowd in cat_gts if not crowd),
        }
    return out


def test_greedy_matching_equals_reference_loop():
    """Tiny masks make IoU ties, crowd absorptions and truncation common."""
    rng = np.random.default_rng(2024)
    thresholds_sets = (DEFAULT_AP_THRESHOLDS, (0.0, 0.25, 0.5), (1 / 3, 2 / 3, 1.0))
    for case in range(600):
        preds = [
            (rng.random((3, 3)) < rng.uniform(0.1, 0.9), int(rng.integers(0, 3)),
             float(rng.choice([0.2, 0.5, 0.9])))
            for _ in range(rng.integers(0, 7))
        ]
        gts = [
            (rng.random((3, 3)) < rng.uniform(0.1, 0.9), int(rng.integers(0, 3)),
             bool(rng.random() < 0.3))
            for _ in range(rng.integers(0, 7))
        ]
        thresholds = thresholds_sets[case % 3]
        max_dets = int(rng.choice([1, 2, 200]))
        got = match_detections(preds, gts, thresholds, max_dets)
        want = _reference_match_detections(preds, gts, thresholds, max_dets)
        assert got.keys() == want.keys()
        for category, row in got.items():
            assert row["n_positive"] == want[category]["n_positive"]
            for key in ("scores", "tp", "ignored"):
                assert np.array_equal(row[key], want[category][key]), (case, category, key)


def test_precision_envelope_equals_reference_loop():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        scores = rng.choice([0.1, 0.5, 0.9], size=n)
        tp = rng.random(n) < 0.5
        ignored = rng.random(n) < 0.2
        n_positive = int(rng.integers(1, 10))
        # Reference: the explicit backward loop over the sorted detections.
        keep = ~ignored
        ranked = tp[keep][np.argsort(-scores[keep], kind="stable")]
        if ranked.size:
            tp_cum = np.cumsum(ranked)
            recall = tp_cum / n_positive
            precision = tp_cum / (tp_cum + np.cumsum(~ranked))
            for i in range(precision.size - 1, 0, -1):
                precision[i - 1] = max(precision[i - 1], precision[i])
            idx = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
            sampled = np.zeros(101)
            sampled[idx < precision.size] = precision[idx[idx < precision.size]]
            want = float(sampled.mean())
        else:
            want = 0.0
        assert _average_precision(scores, tp, ignored, n_positive) == want


@pytest.mark.parametrize("seed", range(4))
def test_histogram_metrics_read_read_only_maps(seed):
    # eval hands joint_histogram read-only u32 maps mapped over its input
    # files; nothing downstream may write into them or change its result.
    spec = HIST_SPEC
    rng = np.random.default_rng(seed)
    gt = random_valid_map(rng, spec, 24, 20).astype(np.uint32)
    pred = np.where(rng.random(gt.shape) < 0.3, random_valid_map(rng, spec, 24, 20), gt)
    pred = pred.astype(np.uint32)
    scores = {k: float(rng.random()) for k in range(1, 4)}

    def run(pred, gt):
        hist = joint_histogram(pred, gt)
        return pickle.dumps((
            hist,
            pq_from_histogram(hist, spec),
            miou_from_histogram(hist, spec),
            miou_from_histogram(hist, spec).confusion,
            ap_matches_from_histogram(hist, spec, scores),
        ))

    frozen_pred, frozen_gt = pred.copy(), gt.copy()
    frozen_pred.setflags(write=False)
    frozen_gt.setflags(write=False)
    assert run(frozen_pred, frozen_gt) == run(pred, gt)
    assert frozen_pred.tobytes() == pred.tobytes() and frozen_gt.tobytes() == gt.tobytes()
