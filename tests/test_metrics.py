import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panopticore import metrics
from panopticore.metrics import (
    DEFAULT_AP_THRESHOLDS,
    _RECALL_POINTS,
    _average_precision,
    _greedy_loop,
    _greedy_matches,
    _pq_matches,
    ap_matches_from_histogram,
    ApReport,
    ap_report_from_matches,
    combine_miou,
    combine_pq,
    joint_histogram,
    mean_iou,
    miou_from_histogram,
    panoptic_quality,
    pq_from_histogram,
    pq_report_from_counts,
)
from panopticore.selftest import (
    histogram_mismatch,
    joint_histogram_oracle,
    match_detections_oracle,
    random_valid_map,
)
from panopticore.synth import make_spec, random_scene

SPEC = make_spec(num_stuff=2, num_things=2)
STUFF = sorted(SPEC.stuff_ids)
THING = sorted(SPEC.thing_ids)
DIV = SPEC.label_divisor


# ---------------------------------------------------------------------------
# PQ matching


def match_segments(pred, gt, spec):
    """The (pred id, gt id, IoU) pairs that PQ matches."""
    hist = joint_histogram(pred, gt)
    (p, g, iou), _, _ = _pq_matches(hist, spec)
    return list(zip(hist.pred_ids[p].tolist(), hist.gt_ids[g].tolist(), iou.tolist()))


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


@pytest.mark.parametrize("kind", ["float", "3-D"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_miou_rejects_non_integer_or_3d_maps(kind, side):
    # A float map used to be truncated to its integer part: gt + 0.7 scored 1.0.
    good = np.array([[STUFF[0], STUFF[1]], [THING[0], THING[1]]], dtype=np.int64)
    bad = good + 0.7 if kind == "float" else np.stack([good, good], axis=2)
    pred, gt = (bad, good) if side == "pred" else (good, bad)
    with pytest.raises(ValueError, match=f"{side} map must be a 2-D integer semantic map"):
        mean_iou(pred, gt, SPEC)
    with pytest.raises(ValueError, match="pred map must be a 2-D integer semantic map"):
        mean_iou(bad, bad, SPEC)  # equal 3-D shapes used to pass


# ---------------------------------------------------------------------------
# AP on full-resolution masks


def mask_ap(preds, gts, thresholds=DEFAULT_AP_THRESHOLDS, max_dets=200):
    """The AP report of one image's (mask, category, score) predictions and
    (mask, category, crowd) gts."""
    return ap_report_from_matches(
        [match_detections_oracle(preds, gts, thresholds, max_dets)], thresholds
    )


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


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_ap_nonfinite_score_rejected_by_both_matchers(score):
    mask = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="finite"):
        match_detections_oracle([(mask, 1, 0.5), (mask, 2, score)], [(mask, 1, False)])
    gt = np.full((8, 8), STUFF[0] * DIV, dtype=np.int64)
    gt[0:4, 0:4] = THING[0] * DIV + 1
    pred = gt.copy()
    pred[4:8, 4:8] = THING[1] * DIV + 2
    with pytest.raises(ValueError, match="finite"):
        ap_matches_from_histogram(joint_histogram(pred, gt), SPEC, {1: 0.9, 2: score})


def test_ap_pooled_across_images():
    gt_a = [(_box_mask(0, 8, 0, 8), 1, False)]
    gt_b = [(_box_mask(0, 8, 0, 8), 1, False)]
    pred_a = [(_box_mask(0, 8, 0, 8), 1, 0.9)]
    pred_b: list = []
    tables = [match_detections_oracle(pred_a, gt_a), match_detections_oracle(pred_b, gt_b)]
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


@pytest.mark.parametrize("split", ["two-half-detections", "two-half-gts"])
def test_histogram_metrics_on_exact_half_ties(split):
    """One segment split in two halves of IoU exactly 0.5 against the whole:
    a detection with two candidate gts, or a gt with two candidate
    detections, at threshold 0.5."""
    whole = np.full((6, 8), STUFF[0] * DIV, dtype=np.int64)
    whole[1:3, 2:6] = THING[0] * DIV + 1
    halves = whole.copy()
    halves[2, 2:6] = THING[0] * DIV + 2
    pred, gt = (halves, whole) if split == "two-half-detections" else (whole, halves)
    assert histogram_mismatch(pred, gt, HIST_SPEC, {1: 0.5, 2: 0.5}) == ""
    tp = ap_matches_from_histogram(joint_histogram(pred, gt), HIST_SPEC, {1: 0.5, 2: 0.5})
    # The first detection in rank order takes the first free gt at 0.5.
    assert tp[THING[0]]["tp"][:, 0].tolist() == [True] + [False] * 9
    assert not tp[THING[0]]["tp"][:, 1:].any()


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


@pytest.mark.parametrize("kind", ["float", "3-D"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_joint_histogram_rejects_non_integer_or_3d_maps(kind, side):
    good = np.full((4, 6), STUFF[0] * DIV, dtype=np.uint32)
    bad = good + np.float32(0.25) if kind == "float" else np.stack([good, good], axis=2)
    pred, gt = (bad, good) if side == "pred" else (good, bad)
    with pytest.raises(ValueError, match=f"{side} map must be a 2-D integer panoptic map"):
        joint_histogram(pred, gt)
    with pytest.raises(ValueError, match="pred map must be a 2-D integer panoptic map"):
        joint_histogram(bad, bad)


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


@st.composite
def histogram_cases(draw):
    """(pred, gt) pairs for the run-length histogram: scenes, per-pixel
    noise, runs that cross row ends, single rows and columns, u16, u32 and
    int64 maps, and negative ids or ids past 2**40."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    height, width = draw(st.sampled_from([(height, width), (1, width), (height, 1)]))
    gt = random_valid_map(rng, HIST_SPEC, height, width)
    kind = draw(st.sampled_from(["scene", "noise", "wrapping"]))
    if kind == "noise":  # every pixel its own run
        gt = rng.choice(np.unique(gt), size=gt.shape)
    elif kind == "wrapping":  # runs longer than a row
        ids = rng.choice(np.unique(gt), size=gt.size)
        gt = np.repeat(ids, rng.integers(1, 2 * width + 2, size=gt.size))[: gt.size]
        gt = gt.reshape(height, width)
    mix = draw(st.sampled_from([0.0, 0.2, 1.0]))
    pred = np.where(rng.random(gt.shape) < mix, random_valid_map(rng, HIST_SPEC, height, width), gt)
    dtype = draw(st.sampled_from([np.uint16, np.uint32, np.int64]))
    offset = draw(st.sampled_from([0, 0, -(2**40), 2**40]))
    if offset:
        pred, gt, dtype = pred + offset, gt * draw(st.sampled_from([1, 2**31])), np.int64
    return pred.astype(dtype), gt.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(case=histogram_cases())
def test_joint_histogram_equals_pixel_oracle(case):
    pred, gt = case
    got, want = joint_histogram(pred, gt), joint_histogram_oracle(pred, gt)
    for name, a, b in zip(want._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_joint_histogram_of_empty_maps_raises(shape):
    empty = np.zeros(shape, dtype=np.uint32)
    for histogram in (joint_histogram, joint_histogram_oracle):
        with pytest.raises(ValueError):
            histogram(empty, empty)


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
        got = match_detections_oracle(preds, gts, thresholds, max_dets)
        want = _reference_match_detections(preds, gts, thresholds, max_dets)
        assert got.keys() == want.keys()
        for category, row in got.items():
            assert row["n_positive"] == want[category]["n_positive"]
            for key in ("scores", "tp", "ignored"):
                assert np.array_equal(row[key], want[category][key]), (case, category, key)


def _match_inputs(preds, gts):
    """``_greedy_matches``' arrays from (mask, category, score) detections
    and (mask, category, crowd) gts, the overlaps counted mask by mask."""
    size = next((m.size for m, _, _ in [*preds, *gts]), 0)
    dt_masks = np.array([m for m, _, _ in preds], dtype=bool).reshape(len(preds), size)
    gt_masks = np.array([m for m, _, _ in gts], dtype=bool).reshape(len(gts), size)
    return (
        np.array([c for _, c, _ in preds], dtype=np.int64),
        np.array([s for _, _, s in preds], dtype=np.float64),
        dt_masks.sum(axis=1).astype(np.int64),
        np.array([c for _, c, _ in gts], dtype=np.int64),
        np.array([k for _, _, k in gts], dtype=bool),
        gt_masks.sum(axis=1).astype(np.int64),
        dt_masks.astype(np.int64) @ gt_masks.T.astype(np.int64),
    )


@st.composite
def overlapping_detections(draw):
    """Boxes on an 8x8 grid, so that most gts have several candidate
    detections and most detections several candidate gts, plus segments
    split in halves of IoU exactly 0.5 against the whole. Detections take
    categories 0-2 and gts 1-3: category 0 has no gts, 3 no detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = draw(st.sampled_from([(0.5,), (0.2, 0.9), (0.1, 0.4, 0.4, 0.8)]))
    preds, gts = [], []

    def box(rows, cols):
        mask = np.zeros((8, 8), dtype=bool)
        r, c = rng.integers(0, 8 - rows + 1), rng.integers(0, 8 - cols + 1)
        mask[r : r + rows, c : c + cols] = True
        return mask

    for _ in range(draw(st.integers(0, 8))):
        preds.append((box(*rng.integers(1, 6, 2)), int(rng.integers(0, 3)), rng.choice(scores)))
    for _ in range(draw(st.integers(0, 8))):
        gts.append((box(*rng.integers(1, 6, 2)), int(rng.integers(1, 4)), rng.random() < 0.25))
    for _ in range(draw(st.integers(0, 2))):  # exact IoU-0.5 ties
        whole, category = box(2, int(rng.integers(1, 5))), int(rng.integers(1, 3))
        top = whole & (np.cumsum(whole.any(axis=1)) == 1)[:, None]
        parts = [(top, category), (whole & ~top, category)]
        if rng.random() < 0.5:  # one detection against two gts
            preds.append((whole, category, rng.choice(scores)))
            gts += [(m, c, False) for m, c in parts]
        else:  # two detections against one gt
            preds += [(m, c, rng.choice(scores)) for m, c in parts]
            gts.append((whole, category, False))
    order = rng.permutation(len(preds))
    return [preds[i] for i in order], gts, draw(st.sampled_from([1, 2, 3, 200]))


@settings(max_examples=300, deadline=None)
@given(case=overlapping_detections())
def test_greedy_matches_equal_the_loop(case):
    """The vectorised step, with its fallback on conflicts, against the
    per-detection loop on every category: same categories, same arrays in
    dtype and bytes."""
    preds, gts, max_dets = case
    args = (*_match_inputs(preds, gts), DEFAULT_AP_THRESHOLDS, max_dets)
    got, want = _greedy_matches(*args), _greedy_matches(*args, match=_greedy_loop)
    assert got.keys() == want.keys()
    for category, row in got.items():
        assert row["n_positive"] == want[category]["n_positive"]
        for key in ("scores", "tp", "ignored"):
            a, b = row[key], want[category][key]
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("split", ["one-detection-two-gts", "two-detections-one-gt"])
def test_greedy_step_takes_the_loop_on_a_contested_gt(monkeypatch, split):
    """Halves of IoU exactly 0.5 against the whole. A gt with two candidate
    detections takes the loop; a detection with two candidate gts does not
    need it, as it is a tp whichever one it takes."""
    whole = np.zeros((4, 4), dtype=bool)
    whole[:2] = True
    top, bottom = whole.copy(), whole.copy()
    top[1], bottom[0] = False, False
    if split == "one-detection-two-gts":
        preds, gts = [(whole, 1, 0.5)], [(top, 1, False), (bottom, 1, False)]
    else:
        preds, gts = [(top, 1, 0.5), (bottom, 1, 0.5)], [(whole, 1, False)]
    calls = []
    monkeypatch.setattr(metrics, "_greedy_loop", lambda *a: calls.append(1) or _greedy_loop(*a))
    got = _greedy_matches(*_match_inputs(preds, gts), DEFAULT_AP_THRESHOLDS, 200)
    assert calls == ([1] if split == "two-detections-one-gt" else [])
    # At 0.5 the first detection takes a gt; above it no IoU reaches.
    assert got[1]["tp"][0].tolist() == [True] + [False] * (len(preds) - 1)
    assert not got[1]["tp"][1:].any()


def _reference_average_precision(scores, tp, ignored, n_positive):
    """AP at one threshold: the kept detections in rank order, then the
    explicit backward loop for the precision envelope."""
    keep = ~ignored
    ranked = tp[keep][np.argsort(-scores[keep], kind="stable")]
    if not ranked.size:
        return 0.0
    tp_cum = np.cumsum(ranked)
    recall = tp_cum / n_positive
    precision = tp_cum / (tp_cum + np.cumsum(~ranked))
    for i in range(precision.size - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    idx = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    sampled = np.zeros(101)
    sampled[idx < precision.size] = precision[idx[idx < precision.size]]
    return float(sampled.mean())


def test_precision_envelope_equals_reference_loop():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, rows = int(rng.integers(0, 30)), int(rng.integers(1, 11))
        scores = rng.choice([0.1, 0.5, 0.9], size=n)
        tp = rng.random((rows, n)) < 0.5
        ignored = rng.random((rows, n)) < 0.2
        n_positive = int(rng.integers(1, 10))
        got = _average_precision(scores, tp, ignored, n_positive)
        assert got.shape == (rows,)
        for t in range(rows):
            assert got[t] == _reference_average_precision(scores, tp[t], ignored[t], n_positive)


def _row_search_average_precision(scores, tp, ignored, n_positive):
    """``_average_precision`` with one ``np.searchsorted`` of the float
    recall and one mean per threshold row."""
    order = np.argsort(-scores, kind="stable")
    kept = ~ignored[:, order]
    tp_cum = np.cumsum(tp[:, order] & kept, axis=1)
    precision = np.zeros((kept.shape[0], kept.shape[1] + 1))
    np.divide(tp_cum, np.cumsum(kept, axis=1), out=precision[:, :-1], where=kept)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    recall = tp_cum / n_positive
    return np.array([
        envelope[t, np.searchsorted(recall[t], _RECALL_POINTS, side="left")].mean()
        for t in range(kept.shape[0])
    ])


@pytest.mark.parametrize("n_positive", [10, 20, 100, 7, 33])
def test_average_precision_equals_row_searches(n_positive):
    """Counts c whose recall c / n_positive falls exactly on a recall point
    (every count at 10, 20 and 100, some at 7 and 33), on one image's table
    and on tables pooled from several images, each with its share of the
    regular gts and at most that many hits per threshold."""
    rng = np.random.default_rng(n_positive)
    for case in range(100):
        images = 1 if case % 2 else int(rng.integers(2, 5))
        cuts = np.sort(rng.integers(0, n_positive + 1, images - 1))
        rows = 10 if case % 4 < 2 else int(rng.integers(1, 11))
        scores, tp, ignored = [], [], []
        for share in np.diff([0, *cuts, n_positive]).tolist():
            n = int(rng.integers(0, 2 * share + 2))
            hits = rng.random((rows, n)) < rng.choice([0.2, 0.5, 0.9, 1.0])
            hits &= np.cumsum(hits, axis=1) <= share  # each gt is taken once
            tp.append(hits)
            ignored.append(~hits & (rng.random((rows, n)) < 0.2))
            scores.append(rng.choice([0.1, 0.5, 0.9, -0.0, 0.0], size=n).astype(np.float64))
        args = (np.concatenate(scores), np.concatenate(tp, axis=1),
                np.concatenate(ignored, axis=1), n_positive)
        got, want = _average_precision(*args), _row_search_average_precision(*args)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case


def _reference_ap_report(matches, thresholds):
    """The report loop that pooled (thresholds, detections) rows replaced:
    one AP per (category, threshold), -1 where the category has no
    regular gt, and each mean over a list of the defined APs."""
    pooled = {}
    for table in matches:
        for category, row in table.items():
            slot = pooled.setdefault(category, {"scores": [], "tp": [], "ignored": [], "n": 0})
            for key in ("scores", "tp", "ignored"):
                slot[key].append(row[key])
            slot["n"] += row["n_positive"]
    per_category, per_threshold = {}, {float(t): [] for t in thresholds}
    for category, slot in sorted(pooled.items()):
        scores = np.concatenate(slot["scores"])
        tp, ignored = (np.concatenate(slot[key], axis=1) for key in ("tp", "ignored"))
        aps = [
            _reference_average_precision(scores, tp[t], ignored[t], slot["n"]) if slot["n"] else -1.0
            for t in range(len(thresholds))
        ]
        defined = [a for a in aps if a >= 0]
        if defined:
            per_category[category] = float(np.mean(defined))
            for t, a in zip(thresholds, aps):
                if a >= 0:
                    per_threshold[float(t)].append(a)
    return ApReport(
        thresholds=tuple(float(t) for t in thresholds),
        mean_ap=float(np.mean(list(per_category.values()))) if per_category else 0.0,
        per_threshold={t: float(np.mean(v)) if v else 0.0 for t, v in per_threshold.items()},
        per_category=per_category,
    )


def test_ap_report_equals_reference_loop():
    """Pooled tables with categories without a regular gt, detections
    ignored at every threshold, images without detections, and tied or
    signed-zero scores."""
    rng = np.random.default_rng(15)
    for case in range(400):
        thresholds = (DEFAULT_AP_THRESHOLDS, (0.5,), (0.25, 0.75))[case % 3]
        rows = len(thresholds)
        matches = []
        for _ in range(rng.integers(0, 4)):
            table = {}
            for category in rng.choice(5, size=rng.integers(0, 5), replace=False).tolist():
                n = int(rng.choice([0, 1, 3, 12]))
                kind = rng.choice(["mixed", "all_ignored", "no_hits"])
                ignored = rng.random((rows, n)) < (1.0 if kind == "all_ignored" else 0.3)
                tp = (rng.random((rows, n)) < (0.0 if kind == "no_hits" else 0.5)) & ~ignored
                table[category] = {
                    "scores": rng.choice([0.9, 0.5, 0.0, -0.0], size=n).astype(np.float64),
                    "tp": tp,
                    "ignored": ignored,
                    "n_positive": int(rng.choice([0, 0, 1, 4])),
                }
            matches.append(table)
        got = ap_report_from_matches(matches, thresholds)
        assert repr(got) == repr(_reference_ap_report(matches, thresholds)), case


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
