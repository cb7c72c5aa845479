import json
import math

import numpy as np
import pytest

from panopticore.cli import TARGET_FILES, main
from panopticore.synth import random_scene
from panopticore.tensor_io import read_tensor, write_spec, write_tensor


@pytest.fixture()
def scene_files(tmp_path):
    scene = random_scene(101, max_size=96)
    gt_path = tmp_path / "gt.pdlt"
    spec_path = tmp_path / "spec.json"
    write_tensor(scene.panoptic.astype(np.uint32), gt_path)
    write_spec(scene.spec, spec_path)
    return scene, gt_path, spec_path, tmp_path


def run_targets(gt_path, spec_path, out_dir, *extra):
    return main(
        [
            "targets",
            "--panoptic",
            str(gt_path),
            "--spec",
            str(spec_path),
            "--out",
            str(out_dir),
            *extra,
        ]
    )


def run_fuse(targets_dir, spec_path, out_path, report_path, *extra):
    return main(
        [
            "fuse",
            "--semantic",
            str(targets_dir / TARGET_FILES["semantic"]),
            "--heatmap",
            str(targets_dir / TARGET_FILES["heatmap"]),
            "--offsets",
            str(targets_dir / TARGET_FILES["offsets"]),
            "--spec",
            str(spec_path),
            "--out",
            str(out_path),
            "--report",
            str(report_path),
            *extra,
        ]
    )


def test_targets_writes_five_files(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    out = tmp / "targets"
    assert run_targets(gt_path, spec_path, out) == 0
    for name in TARGET_FILES.values():
        assert (out / name).exists()
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("instance")]
    assert lines and all("center=" in l and "area=" in l for l in lines)


def test_targets_unknown_category_exit_1(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    bad = scene.panoptic.copy()
    bad[0, 0] = 907 * scene.spec.label_divisor
    bad_path = tmp / "bad.pdlt"
    write_tensor(bad.astype(np.uint32), bad_path)
    assert run_targets(bad_path, spec_path, tmp / "t") == 1
    err = capsys.readouterr().err
    assert "pixel 0" in err


def test_targets_sigma_override(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    out = tmp / "sigma4"
    assert run_targets(gt_path, spec_path, out, "--sigma", "4") == 0
    heatmap = read_tensor(out / TARGET_FILES["heatmap"])
    # A pixel at distance 4 from a rounded... centers here are fractional, so
    # verify against a direct re-encode instead of a single pixel probe.
    from panopticore.targets import TargetParams, encode_targets

    bundle = encode_targets(scene.panoptic, scene.spec, TargetParams(sigma=4))
    assert np.array_equal(heatmap, bundle.heatmap)


def test_targets_sigma_override_distance_value(tmp_path):
    # Deterministic single-instance scene: center lands on an integer pixel.
    from panopticore.synth import make_spec

    spec = make_spec(num_stuff=1, num_things=1)
    thing = sorted(spec.thing_ids)[0]
    stuff = sorted(spec.stuff_ids)[0]
    panoptic = np.full((32, 32), stuff * spec.label_divisor, dtype=np.int64)
    panoptic[15:18, 15:18] = thing * spec.label_divisor + 1  # center (16, 16)
    gt = tmp_path / "gt.pdlt"
    spec_path = tmp_path / "spec.json"
    write_tensor(panoptic.astype(np.uint32), gt)
    write_spec(spec, spec_path)
    out = tmp_path / "out"
    assert run_targets(gt, spec_path, out, "--sigma", "4") == 0
    heatmap = read_tensor(out / TARGET_FILES["heatmap"])
    assert heatmap[16, 20] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_fuse_round_trip_matches_gt(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    # Exact-oracle heatmap: re-encode from rounded centers.
    from panopticore.core import Dims, InstanceCenter
    from panopticore.selftest import rounded
    from panopticore.targets import compute_mass_centers, encode_center_heatmap

    centers = compute_mass_centers(scene.panoptic, scene.spec)
    heatmap = encode_center_heatmap(
        [InstanceCenter(rounded(c.row), rounded(c.col)) for _, c in centers],
        Dims.of(scene.panoptic),
    )
    write_tensor(heatmap, targets_dir / TARGET_FILES["heatmap"])

    out_path = tmp / "panoptic.pdlt"
    report_path = tmp / "instances.json"
    assert run_fuse(targets_dir, spec_path, out_path, report_path) == 0

    from panopticore.metrics import panoptic_quality

    fused = read_tensor(out_path).astype(np.int64)
    report = panoptic_quality(fused, scene.panoptic, scene.spec)
    assert report.all.pq == 1.0
    doc = json.loads(report_path.read_text())
    assert doc["num_instances"] == len(centers)


def test_fuse_zero_heatmap_no_instances(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    zero = np.zeros(scene.panoptic.shape, dtype=np.float32)
    write_tensor(zero, targets_dir / TARGET_FILES["heatmap"])
    out_path = tmp / "panoptic.pdlt"
    report_path = tmp / "instances.json"
    assert run_fuse(targets_dir, spec_path, out_path, report_path) == 0
    assert json.loads(report_path.read_text())["num_instances"] == 0


def test_fuse_score_mode_changes_scores_not_map(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    # Flip a minority of each instance's pixels to another thing category so
    # class scores drop below 1 and the modes give different numbers.
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"]).astype(np.int64)
    things = sorted(scene.spec.thing_ids)
    instance_part = scene.panoptic % scene.spec.label_divisor
    for pid in np.unique(scene.panoptic[instance_part >= 1]):
        rows, cols = np.nonzero(scene.panoptic == pid)
        flip = slice(0, max(1, len(rows) // 5))
        current = int(pid) // scene.spec.label_divisor
        other = next(t for t in things if t != current)
        semantic[rows[flip], cols[flip]] = other
    write_tensor(semantic.astype(np.uint16), targets_dir / TARGET_FILES["semantic"])

    outs, reports = {}, {}
    for mode in ("objectness", "product"):
        out_path = tmp / f"pan_{mode}.pdlt"
        report_path = tmp / f"inst_{mode}.json"
        assert (
            run_fuse(targets_dir, spec_path, out_path, report_path, "--score-mode", mode)
            == 0
        )
        outs[mode] = out_path.read_bytes()
        reports[mode] = json.loads(report_path.read_text())
    assert outs["objectness"] == outs["product"]
    assert reports["objectness"]["num_instances"] == reports["product"]["num_instances"]
    obj_scores = [r["score"] for r in reports["objectness"]["instances"]]
    prod_scores = [r["score"] for r in reports["product"]["instances"]]
    assert obj_scores != prod_scores
    assert all(p <= o for p, o in zip(prod_scores, obj_scores))


def test_fuse_dim_mismatch_exit_1(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    write_tensor(
        np.zeros((8, 8), dtype=np.float32), targets_dir / TARGET_FILES["heatmap"]
    )
    assert run_fuse(targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json") == 1


def test_eval_identical_maps(scene_files, tmp_path):
    scene, gt_path, spec_path, tmp = scene_files
    report_path = tmp / "eval.json"
    code = main(
        [
            "eval",
            "--pred",
            str(gt_path),
            "--gt",
            str(gt_path),
            "--spec",
            str(spec_path),
            "--mode",
            "all",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["aggregate"]["pq"]["all"]["pq"] == 1.0
    assert doc["aggregate"]["miou"]["mean_iou"] == 1.0
    assert doc["aggregate"]["ap"]["mean_ap"] == 1.0


def test_eval_pq_formula_scene(tmp_path):
    from panopticore.synth import make_spec

    spec = make_spec(num_stuff=1, num_things=1)
    thing = sorted(spec.thing_ids)[0]
    stuff = sorted(spec.stuff_ids)[0]
    gt = np.full((20, 20), stuff * spec.label_divisor, dtype=np.int64)
    pred = gt.copy()
    gt[0:10, :] = thing * spec.label_divisor + 1
    pred[0:8, :] = thing * spec.label_divisor + 1
    gt[15:19, 0:10] = thing * spec.label_divisor + 2
    for name, arr in (("gt", gt), ("pred", pred)):
        write_tensor(arr.astype(np.uint32), tmp_path / f"{name}.pdlt")
    write_spec(spec, tmp_path / "spec.json")
    report_path = tmp_path / "eval.json"
    code = main(
        [
            "eval",
            "--pred",
            str(tmp_path / "pred.pdlt"),
            "--gt",
            str(tmp_path / "gt.pdlt"),
            "--spec",
            str(tmp_path / "spec.json"),
            "--mode",
            "pq",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["aggregate"]["pq"]["per_category"][str(thing)]["pq"] == pytest.approx(
        0.8 / 1.5, abs=1e-9
    )


def test_eval_multi_image_aggregation_identity(tmp_path):
    scenes = [random_scene(s, max_size=64) for s in (201, 202)]
    spec = scenes[0].spec
    write_spec(spec, tmp_path / "spec.json")
    preds, gts = [], []
    for i, scene in enumerate(scenes):
        # Predictions: the gt itself for image 0, all-stuff for image 1.
        gt_path = tmp_path / f"gt{i}.pdlt"
        write_tensor(scene.panoptic.astype(np.uint32), gt_path)
        gts.append(str(gt_path))
        if i == 0:
            preds.append(str(gt_path))
        else:
            stuffed = np.full_like(
                scene.panoptic, sorted(spec.stuff_ids)[0] * spec.label_divisor
            )
            pred_path = tmp_path / f"pred{i}.pdlt"
            write_tensor(stuffed.astype(np.uint32), pred_path)
            preds.append(str(pred_path))
    report_path = tmp_path / "eval.json"
    code = main(
        ["eval", "--pred", *preds, "--gt", *gts, "--spec", str(tmp_path / "spec.json"),
         "--mode", "pq", "--report", str(report_path)]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    # Aggregate equals recomputation from summed per-image counts.
    for cid, agg_row in doc["aggregate"]["pq"]["per_category"].items():
        tp = sum(
            img["pq"]["per_category"].get(cid, {}).get("tp", 0) for img in doc["images"]
        )
        fp = sum(
            img["pq"]["per_category"].get(cid, {}).get("fp", 0) for img in doc["images"]
        )
        fn = sum(
            img["pq"]["per_category"].get(cid, {}).get("fn", 0) for img in doc["images"]
        )
        iou = sum(
            img["pq"]["per_category"].get(cid, {}).get("iou_sum", 0.0)
            for img in doc["images"]
        )
        assert (agg_row["tp"], agg_row["fp"], agg_row["fn"]) == (tp, fp, fn)
        denominator = tp + 0.5 * fp + 0.5 * fn
        expected = (iou / tp) * (tp / denominator) if tp else 0.0
        assert agg_row["pq"] == pytest.approx(expected, abs=1e-12)


def test_eval_count_mismatch_exit_1(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    code = main(
        ["eval", "--pred", str(gt_path), str(gt_path), "--gt", str(gt_path),
         "--spec", str(spec_path)]
    )
    assert code == 1


def test_eval_threads_bit_identical(scene_files, tmp_path):
    scene, gt_path, spec_path, tmp = scene_files
    outputs = {}
    for threads in (1, 4):
        report_path = tmp_path / f"eval_t{threads}.json"
        code = main(
            ["eval", "--pred", str(gt_path), str(gt_path), "--gt", str(gt_path),
             str(gt_path), "--spec", str(spec_path), "--mode", "all",
             "--threads", str(threads), "--report", str(report_path)]
        )
        assert code == 0
        outputs[threads] = report_path.read_bytes()
    assert outputs[1] == outputs[4]


def test_missing_input_exit_2(tmp_path):
    write_spec(random_scene(1, max_size=64).spec, tmp_path / "spec.json")
    code = main(
        ["targets", "--panoptic", str(tmp_path / "absent.pdlt"), "--spec",
         str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_bench_structure_and_determinism(tmp_path):
    report_a = tmp_path / "bench_a.json"
    report_b = tmp_path / "bench_b.json"
    for path, reps in ((report_a, "1"), (report_b, "3")):
        code = main(
            ["bench", "--height", "64", "--width", "96", "--centers", "12",
             "--repetitions", reps, "--report", str(path)]
        )
        assert code == 0
    doc_a = json.loads(report_a.read_text())
    doc_b = json.loads(report_b.read_text())
    for stage in ("nms", "grouping", "merge"):
        assert stage in doc_a["stages_ms"]
        assert doc_a["stages_ms"][stage]["median"] >= 0
    # Outputs are bit-equal across repetition counts.
    assert doc_a["panoptic_sha256"] == doc_b["panoptic_sha256"]


def test_fuse_probability_semantic_input(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"]).astype(np.int64)
    spec = scene.spec
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    for channel, cid in enumerate(spec.category_ids):
        probs[semantic == cid, channel] = 1.0
    probs[semantic == spec.ignore_label] = np.float32(1.0 / spec.num_categories)
    write_tensor(probs, tmp / "probs.pdlt")
    out_path = tmp / "pan_probs.pdlt"
    report_path = tmp / "inst_probs.json"
    code = main(
        ["fuse", "--semantic", str(tmp / "probs.pdlt"),
         "--heatmap", str(targets_dir / TARGET_FILES["heatmap"]),
         "--offsets", str(targets_dir / TARGET_FILES["offsets"]),
         "--spec", str(spec_path), "--out", str(out_path),
         "--report", str(report_path)]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["num_instances"] >= 1
    assert all(0.0 <= r["score"] <= 1.0 for r in doc["instances"])


def test_eval_ap_uses_fuse_scores(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    out_path = tmp / "pan.pdlt"
    report_path = tmp / "inst.json"
    assert run_fuse(targets_dir, spec_path, out_path, report_path) == 0
    eval_path = tmp / "eval.json"
    code = main(
        ["eval", "--pred", str(out_path), "--gt", str(gt_path),
         "--spec", str(spec_path), "--mode", "ap",
         "--pred-scores", str(report_path), "--report", str(eval_path)]
    )
    assert code == 0
    doc = json.loads(eval_path.read_text())
    assert "mean_ap" in doc["aggregate"]["ap"]


def test_eval_pred_scores_missing_instance_exit_1(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    div = scene.spec.label_divisor
    instances = sorted(
        int(i) % div
        for i in np.unique(scene.panoptic)
        if int(i) // div in scene.spec.thing_ids and int(i) % div
    )
    missing = instances[-1]
    scores_path = tmp / "partial_scores.json"
    rows = [{"instance_index": k, "score": 0.5} for k in instances if k != missing]
    scores_path.write_text(json.dumps({"instances": rows}))
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--pred-scores", str(scores_path), "--report", str(tmp / "eval.json")]
    for mode in ("ap", "all"):
        assert main(argv + ["--mode", mode]) == 1
        err = capsys.readouterr().err
        assert f"instance index {missing}" in err
        assert str(scores_path) in err
    # PQ and mIoU never read the scores; without --pred-scores AP scores 1.0.
    assert main(argv + ["--mode", "pq"]) == 0
    assert main(argv[:7] + ["--mode", "ap", "--report", str(tmp / "eval.json")]) == 0
