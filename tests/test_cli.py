import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panopticore import cli
from panopticore.cli import TARGET_FILES, main
from panopticore.losses import l1_offset_loss, mse_heatmap_loss
from panopticore.postprocess import panoptic_inference
from panopticore.selftest import bootstrapped_ce_oracle, random_valid_map
from panopticore.synth import bench_inputs, bench_logits, make_spec, random_scene
from panopticore.targets import encode_targets
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


def test_targets_float_container_exit_1_writes_nothing(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    bad_path = tmp / "float.pdlt"
    write_tensor(scene.panoptic.astype(np.float32), bad_path)
    assert run_targets(bad_path, spec_path, tmp / "t") == 1
    assert "panoptic: expected integer dtype, got float32" in capsys.readouterr().err
    assert not (tmp / "t").exists()


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
    from panopticore.core import Dims, InstanceCenter, segment_table
    from panopticore.selftest import rounded
    from panopticore.targets import compute_mass_centers, encode_center_heatmap

    centers = compute_mass_centers(segment_table(scene.panoptic, scene.spec))
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


@pytest.mark.parametrize(
    "field, value", [("offsets", np.nan), ("offsets", np.inf), ("heatmap", np.nan)]
)
def test_fuse_non_finite_input_exit_1(scene_files, capsys, field, value):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    thing_mask = read_tensor(targets_dir / TARGET_FILES["thing_mask"]).astype(bool)
    row, col = np.argwhere(thing_mask)[0]
    path = targets_dir / TARGET_FILES[field]
    grid = read_tensor(path).copy()
    grid[row, col] = value
    write_tensor(grid, path)
    capsys.readouterr()
    assert run_fuse(targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json") == 1
    assert f"{field} contains non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["semantic", "heatmap", "offsets"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_fuse_empty_grid_exit_1_writes_nothing(scene_files, capsys, field, shape):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    grid = read_tensor(targets_dir / TARGET_FILES[field])
    empty = np.zeros(shape + grid.shape[2:], dtype=grid.dtype)
    write_tensor(empty, targets_dir / TARGET_FILES[field])
    capsys.readouterr()
    out, report = tmp / "o.pdlt", tmp / "r.json"
    assert run_fuse(targets_dir, spec_path, out, report) == 1
    err = capsys.readouterr().err
    assert f"{targets_dir / TARGET_FILES[field]}: empty dims {empty.shape}" in err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("field", ["heatmap", "offsets", "probabilities"])
def test_fuse_integer_grid_exit_1_writes_nothing(scene_files, capsys, field):
    # Each is a float32 grid: an integer one, such as the u16 labels given as
    # the heatmap or a u16 one-hot grid as probabilities, is rejected.
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"])
    if field == "probabilities":
        channel = scene.spec.table.channel[semantic]
        channel[channel == scene.spec.num_categories] = 0  # the ignore label
        grid = np.eye(scene.spec.num_categories, dtype=np.uint16)[channel]
        path = targets_dir / TARGET_FILES["semantic"]
    elif field == "heatmap":
        grid, path = semantic, targets_dir / TARGET_FILES["heatmap"]
    else:
        path = targets_dir / TARGET_FILES["offsets"]
        grid = np.abs(read_tensor(path)).astype(np.uint32)
    write_tensor(grid, path)
    capsys.readouterr()
    out, report = tmp / "o.pdlt", tmp / "r.json"
    assert run_fuse(targets_dir, spec_path, out, report) == 1
    assert f"{path}: expected float32, got {grid.dtype}" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_fuse_uint32_scan_only_where_ids_can_exceed_it(tmp_path, capsys):
    # With label_divisor 2**31 and ignore label 255, ids may pass uint32's
    # range: thing category 1 fits (2**31 + k), category 3 does not.
    from panopticore.core import CategorySpec, DatasetSpec

    spec = DatasetSpec(
        (CategorySpec(0, "road", False), CategorySpec(1, "car", True),
         CategorySpec(3, "bus", True)),
        ignore_label=255, label_divisor=2**31,
    )
    write_spec(spec, tmp_path / "spec.json")
    semantic = np.zeros((16, 16), dtype=np.uint16)
    semantic[4:8, 4:8] = 1
    heatmap = np.zeros((16, 16), dtype=np.float32)
    heatmap[5, 5] = 1
    write_tensor(heatmap, tmp_path / "heat.pdlt")
    write_tensor(np.zeros((16, 16, 2), dtype=np.float32), tmp_path / "off.pdlt")
    argv = ["fuse", "--semantic", str(tmp_path / "sem.pdlt"), "--heatmap",
            str(tmp_path / "heat.pdlt"), "--offsets", str(tmp_path / "off.pdlt"),
            "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o.pdlt"),
            "--report", str(tmp_path / "r.json")]
    write_tensor(semantic, tmp_path / "sem.pdlt")
    assert main(argv) == 0
    assert read_tensor(tmp_path / "o.pdlt").max() == 2**31 + 1
    semantic[4:8, 4:8] = 3
    write_tensor(semantic, tmp_path / "sem.pdlt")
    (tmp_path / "o.pdlt").unlink()
    assert main(argv) == 1
    assert "panoptic ids exceed the uint32 container range" in capsys.readouterr().err
    assert not (tmp_path / "o.pdlt").exists()


def test_fuse_bytes_do_not_depend_on_block_threads(tmp_path, monkeypatch):
    semantic, heatmap, offsets, spec = bench_inputs(96, 128, 24)
    write_spec(spec, tmp_path / "spec.json")
    for name, grid in (("sem", semantic.astype(np.uint16)), ("heat", heatmap), ("off", offsets)):
        write_tensor(grid, tmp_path / f"{name}.pdlt")
    outputs = set()
    for threads in (1, 2, 3):
        monkeypatch.setattr(cli.postprocess, "_GROUP_BLOCK", 256)
        monkeypatch.setattr("panopticore.core._BLOCK", 512)
        monkeypatch.setattr("panopticore.core._block_threads", lambda: threads)
        out, report = tmp_path / f"o{threads}.pdlt", tmp_path / f"r{threads}.json"
        assert main(["fuse", "--semantic", str(tmp_path / "sem.pdlt"), "--heatmap",
                     str(tmp_path / "heat.pdlt"), "--offsets", str(tmp_path / "off.pdlt"),
                     "--spec", str(tmp_path / "spec.json"), "--out", str(out),
                     "--report", str(report)]) == 0
        outputs.add((out.read_bytes(), report.read_bytes()))
    assert len(outputs) == 1


def _one_hot_probs(semantic, spec):
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    for channel, cid in enumerate(spec.category_ids):
        probs[semantic == cid, channel] = 1.0
    probs[semantic == spec.ignore_label] = np.float32(1.0 / spec.num_categories)
    return probs


@pytest.mark.parametrize("mode", ["objectness", "class", "product"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fuse_non_finite_probabilities_exit_1(scene_files, capsys, mode, value):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"])
    probs = _one_hot_probs(semantic, scene.spec)
    probs[semantic.shape[0] // 2, 3, 1] = value
    write_tensor(probs, targets_dir / TARGET_FILES["semantic"])
    capsys.readouterr()
    code = run_fuse(targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json", "--score-mode", mode)
    assert code == 1
    assert "semantic probabilities contain non-finite values" in capsys.readouterr().err


def test_fuse_opposite_infinities_exit_1_under_warnings_as_errors(scene_files, capsys):
    # inf + -inf in the row sum warns; the warning must not escape first.
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"])
    probs = _one_hot_probs(semantic, scene.spec)
    probs[semantic.shape[0] // 2, 3, :2] = np.inf, -np.inf
    write_tensor(probs, targets_dir / TARGET_FILES["semantic"])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_fuse(targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: semantic probabilities contain non-finite values\n"
    assert captured.out == ""
    assert not (tmp / "o.pdlt").exists() and not (tmp / "r.json").exists()


def test_fuse_unknown_semantic_id_exit_1(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"]).copy()
    semantic[0, 0] = scene.spec.max_known_label + 1
    write_tensor(semantic, targets_dir / TARGET_FILES["semantic"])
    capsys.readouterr()
    assert run_fuse(targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json") == 1
    assert "semantic map contains ids unknown to the dataset spec" in capsys.readouterr().err


def test_fuse_top_k_not_below_label_divisor_exit_1(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    divisor = scene.spec.label_divisor
    absent = str(tmp / "absent.pdlt")
    # Rejected before any tensor is read: the absent inputs would exit 2.
    code = main(
        ["fuse", "--semantic", absent, "--heatmap", absent, "--offsets", absent,
         "--spec", str(spec_path), "--out", str(tmp / "o.pdlt"),
         "--top-k", str(divisor)]
    )
    assert code == 1
    assert f"--top-k {divisor}" in capsys.readouterr().err
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    assert run_fuse(
        targets_dir, spec_path, tmp / "o.pdlt", tmp / "r.json", "--top-k", str(divisor - 1)
    ) == 0


@pytest.mark.parametrize(
    "flag, value, field",
    [("--nms-kernel", "4", "nms_kernel"), ("--stuff-area-threshold", "-5", "stuff_area_threshold")],
)
def test_fuse_bad_params_exit_1_before_reading(scene_files, capsys, flag, value, field):
    scene, gt_path, spec_path, tmp = scene_files
    absent = str(tmp / "absent.pdlt")
    # Rejected before any tensor is read: the absent inputs would exit 2.
    code = main(
        ["fuse", "--semantic", absent, "--heatmap", absent, "--offsets", absent,
         "--spec", str(spec_path), "--out", str(tmp / "o.pdlt"), flag, value]
    )
    assert code == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--sigma", "--truncation-radius", "--small-instance-weight"])
def test_targets_non_finite_param_exit_1(scene_files, capsys, flag, value):
    scene, gt_path, spec_path, tmp = scene_files
    out = tmp / "targets"
    assert run_targets(gt_path, spec_path, out, f"{flag}={value}") == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fuse_non_finite_center_threshold_exit_1(scene_files, capsys, value):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    out, report = tmp / "o.pdlt", tmp / "r.json"
    capsys.readouterr()
    assert run_fuse(targets_dir, spec_path, out, report, f"--center-threshold={value}") == 1
    assert "--center-threshold" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


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


@pytest.fixture()
def eval_pairs(tmp_path):
    """Two (pred, gt, scores) file triples on one spec: each gt a random
    scene, its pred the scene shifted by (2, -3), with uneven scores."""
    triples = []
    for i, seed in enumerate((201, 202)):
        scene = random_scene(seed, max_size=64)
        paths = [tmp_path / f"{name}{i}" for name in ("pred.pdlt", "gt.pdlt", "scores.json")]
        write_tensor(np.roll(scene.panoptic, (2, -3), axis=(0, 1)).astype(np.uint32), paths[0])
        write_tensor(scene.panoptic.astype(np.uint32), paths[1])
        rows = [{"instance_index": k, "score": 0.05 + 0.1 * (k % 7)}
                for k in _instance_indices(scene)]
        paths[2].write_text(json.dumps({"instances": rows}))
        triples.append(paths)
    write_spec(scene.spec, tmp_path / "spec.json")
    return scene.spec, tmp_path / "spec.json", triples


def run_eval(spec_path, triples, mode, report):
    preds, gts, scores = ([str(t[k]) for t in triples] for k in range(3))
    argv = ["eval", "--pred", *preds, "--gt", *gts, "--spec", str(spec_path),
            "--mode", mode, "--pred-scores", *scores, "--report", str(report)]
    assert main(argv) == 0
    return json.loads(report.read_text())


def test_eval_one_image_aggregate_is_its_row(eval_pairs, tmp_path):
    spec, spec_path, triples = eval_pairs
    doc = run_eval(spec_path, triples[:1], "all", tmp_path / "eval.json")
    image = doc["images"][0]
    assert (image.pop("pred"), image.pop("gt")) == tuple(map(str, triples[0][:2]))
    assert set(image) == {"pq", "miou", "ap"}
    assert doc["aggregate"] == image


def test_eval_aggregate_combines_every_image(eval_pairs, tmp_path):
    from panopticore import metrics

    spec, spec_path, triples = eval_pairs
    doc = run_eval(spec_path, triples, "all", tmp_path / "eval.json")
    hists, scores = [], []
    for pred, gt, scores_path in triples:
        hists.append(metrics.joint_histogram(read_tensor(pred), read_tensor(gt)))
        rows = json.loads(scores_path.read_text())["instances"]
        scores.append({r["instance_index"]: r["score"] for r in rows})
    expected = {
        "pq": cli._pq_payload(
            metrics.combine_pq([metrics.pq_from_histogram(h, spec) for h in hists], spec)),
        "miou": cli._miou_payload(
            metrics.combine_miou([metrics.miou_from_histogram(h, spec) for h in hists], spec)),
        "ap": cli._ap_payload(metrics.ap_report_from_matches(
            [metrics.ap_matches_from_histogram(h, spec, s) for h, s in zip(hists, scores)])),
    }
    assert doc["aggregate"] == json.loads(json.dumps(expected))
    assert doc["aggregate"] != doc["images"][0]


@pytest.mark.parametrize("images", [1, 2])
def test_eval_each_mode_is_its_part_of_all(eval_pairs, tmp_path, images):
    spec, spec_path, triples = eval_pairs
    everything = run_eval(spec_path, triples[:images], "all", tmp_path / "all.json")
    for mode in ("pq", "miou", "ap"):
        doc = run_eval(spec_path, triples[:images], mode, tmp_path / f"{mode}.json")
        assert doc["mode"] == mode
        assert doc["aggregate"] == {mode: everything["aggregate"][mode]}
        for image, whole in zip(doc["images"], everything["images"]):
            assert image == {"pred": whole["pred"], "gt": whole["gt"], mode: whole[mode]}


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


def test_bench_times_one_fuse_run(tmp_path):
    report = tmp_path / "bench.json"
    code = main(
        ["bench", "--height", "64", "--width", "96", "--centers", "12",
         "--repetitions", "3", "--report", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    semantic, heatmap, offsets, spec = bench_inputs(64, 96, 12)
    panoptic = panoptic_inference(semantic, heatmap, offsets, spec).panoptic
    assert doc["panoptic_sha256"] == hashlib.sha256(panoptic.astype(np.int64).tobytes()).hexdigest()
    stages = doc["stages_ms"]
    assert set(stages) == {"inputs", "nms", "grouping", "merge", "scores", "end_to_end"}
    for run in range(3):
        total = sum(stages[name]["runs"][run] for name in stages if name != "end_to_end")
        assert total == pytest.approx(stages["end_to_end"]["runs"][run], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_rejects_repetitions_below_one(tmp_path, capsys, monkeypatch, repetitions):
    def no_inputs(*args, **kwargs):
        raise AssertionError("bench built its inputs")

    monkeypatch.setattr(cli, "bench_inputs", no_inputs)
    report = tmp_path / "bench.json"
    code = main(["bench", "--repetitions", repetitions, "--report", str(report)])
    assert code == 1
    assert "--repetitions" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "height, width, centers",
    [(7, 96, 4), (64, 4, 4), (3, 96, 4), (64, 0, 4), (-1, 96, 4), (64, 96, -3)],
)
def test_bench_rejects_small_grids_and_negative_centers(tmp_path, capsys, height, width, centers):
    # Below 8 pixels no thing box has a pixel, so the painting loop could not end.
    with pytest.raises(ValueError, match="height and width >= 8 and centers >= 0"):
        bench_inputs(height, width, centers)
    report = tmp_path / "bench.json"
    code = main(["bench", "--height", str(height), "--width", str(width), "--centers",
                 str(centers), "--repetitions", "1", "--report", str(report)])
    assert code == 1
    assert "height and width >= 8 and centers >= 0" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("workload", ["fuse-labels", "fuse-probs", "eval", "train"])
def test_bench_runs_on_the_smallest_grid(tmp_path, workload):
    code = main(["bench", "--height", "8", "--width", "8", "--centers", "0", "--repetitions",
                 "1", "--workload", workload, "--report", str(tmp_path / "bench.json")])
    assert code == 0


def test_bench_probability_workload(tmp_path):
    docs = {}
    for workload in ("fuse-labels", "fuse-probs"):
        report = tmp_path / f"{workload}.json"
        code = main(
            ["bench", "--height", "64", "--width", "96", "--centers", "12",
             "--repetitions", "2", "--workload", workload, "--report", str(report)]
        )
        assert code == 0
        docs[workload] = json.loads(report.read_text())
    labels, probs = docs["fuse-labels"], docs["fuse-probs"]
    # The default report keeps the keys it had before --workload.
    assert set(labels) == {"centers", "dims", "panoptic_sha256", "repetitions", "stages_ms"}
    assert probs.pop("workload") == "fuse-probs"
    assert set(probs) == set(labels)
    assert set(probs["stages_ms"]) == set(labels["stages_ms"])
    # The one-hot grid of the labels fuses to the same map.
    semantic, heatmap, offsets, spec = bench_inputs(64, 96, 12)
    panoptic = panoptic_inference(_one_hot_probs(semantic, spec), heatmap, offsets, spec).panoptic
    digest = hashlib.sha256(panoptic.astype(np.int64).tobytes()).hexdigest()
    assert probs["panoptic_sha256"] == labels["panoptic_sha256"] == digest
    stages = probs["stages_ms"]
    for run in range(2):
        total = sum(stages[name]["runs"][run] for name in stages if name != "end_to_end")
        assert total == pytest.approx(stages["end_to_end"]["runs"][run], rel=1e-9, abs=1e-9)


def test_bench_eval_workload_times_the_stages_eval_runs(tmp_path):
    bench = tmp_path / "bench.json"
    code = main(
        ["bench", "--height", "64", "--width", "96", "--centers", "12",
         "--repetitions", "2", "--workload", "eval", "--report", str(bench)]
    )
    assert code == 0
    doc = json.loads(bench.read_text())
    assert set(doc) == {"centers", "dims", "report_sha256", "repetitions", "stages_ms", "workload"}
    assert doc["workload"] == "eval"
    stages = doc["stages_ms"]
    assert set(stages) == {"histogram", "pq", "miou", "ap", "report", "end_to_end"}
    for run in range(2):
        total = sum(stages[name]["runs"][run] for name in stages if name != "end_to_end")
        assert total == pytest.approx(stages["end_to_end"]["runs"][run], rel=1e-9, abs=1e-9)
    # The digest is that of the per-image report eval writes for the same pair.
    semantic, heatmap, offsets, spec = bench_inputs(64, 96, 12)
    result = panoptic_inference(semantic, heatmap, offsets, spec)
    gt = result.panoptic.astype(np.uint32)
    write_spec(spec, tmp_path / "spec.json")
    write_tensor(gt, tmp_path / "gt.pdlt")
    write_tensor(np.roll(gt, (3, -5), axis=(0, 1)), tmp_path / "pred.pdlt")
    rows = [{"instance_index": r.instance_index, "score": r.score} for r in result.instances]
    (tmp_path / "scores.json").write_text(json.dumps({"instances": rows}))
    code = main(
        ["eval", "--pred", str(tmp_path / "pred.pdlt"), "--gt", str(tmp_path / "gt.pdlt"),
         "--spec", str(tmp_path / "spec.json"), "--mode", "all",
         "--pred-scores", str(tmp_path / "scores.json"), "--report", str(tmp_path / "r.json")]
    )
    assert code == 0
    image = json.loads((tmp_path / "r.json").read_text())["images"][0]
    del image["pred"], image["gt"]
    text = json.dumps(image, sort_keys=True)
    assert doc["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_bench_eval_digest_is_pinned(tmp_path):
    # The digest at 9e56525, before the eval modes became one table: the
    # report bytes stay.
    report = tmp_path / "bench.json"
    code = main(["bench", "--height", "64", "--width", "96", "--centers", "12",
                 "--repetitions", "1", "--workload", "eval", "--report", str(report)])
    assert code == 0
    digest = "6da9fecc08a17bbb3713fd37153ac32d523beb5d23359158fde4f3559fa87efa"
    assert json.loads(report.read_text())["report_sha256"] == digest


@pytest.mark.parametrize("workload", ["fuse-labels", "fuse-probs"])
def test_bench_fuse_digest_is_pinned(tmp_path, workload):
    # The digest at 4a25efc, before grouping looked its candidates up by
    # landing cell: the panoptic bytes stay.
    report = tmp_path / "bench.json"
    code = main(["bench", "--height", "64", "--width", "96", "--centers", "12",
                 "--repetitions", "1", "--workload", workload, "--report", str(report)])
    assert code == 0
    digest = "9dede838abd11c8416039fa335b98c10a62bba4f51f503ed56acb58ea2811822"
    assert json.loads(report.read_text())["panoptic_sha256"] == digest


def test_bench_train_workload_times_targets_and_the_losses(tmp_path):
    bench = tmp_path / "bench.json"
    code = main(
        ["bench", "--height", "64", "--width", "96", "--centers", "12",
         "--repetitions", "2", "--workload", "train", "--report", str(bench)]
    )
    assert code == 0
    doc = json.loads(bench.read_text())
    assert set(doc) == {"centers", "dims", "train_sha256", "repetitions", "stages_ms", "workload"}
    assert doc["workload"] == "train"
    stages = doc["stages_ms"]
    assert set(stages) == {"targets", "ce", "heatmap", "offsets", "end_to_end"}
    for run in range(2):
        total = sum(stages[name]["runs"][run] for name in stages if name != "end_to_end")
        assert total == pytest.approx(stages["end_to_end"]["runs"][run], rel=1e-9, abs=1e-9)
    # The digest is that of the losses on the same inputs, with the CE of
    # the full-sort oracle.
    semantic, heatmap, offsets, spec = bench_inputs(64, 96, 12)
    gt = panoptic_inference(semantic, heatmap, offsets, spec).panoptic
    bundle = encode_targets(gt, spec)
    results = (
        bootstrapped_ce_oracle(bench_logits(gt, spec), bundle.semantic_labels,
                               bundle.semantic_weights, spec.ignore_label),
        mse_heatmap_loss(heatmap, bundle.heatmap),
        l1_offset_loss(offsets, bundle.offsets, bundle.thing_mask),
    )
    sha = hashlib.sha256(repr([loss.value for loss in results]).encode())
    for loss in results:
        sha.update(loss.gradient.tobytes())
    assert doc["train_sha256"] == sha.hexdigest()


def test_fuse_probability_semantic_input(scene_files):
    scene, gt_path, spec_path, tmp = scene_files
    targets_dir = tmp / "targets"
    assert run_targets(gt_path, spec_path, targets_dir) == 0
    semantic = read_tensor(targets_dir / TARGET_FILES["semantic"]).astype(np.int64)
    write_tensor(_one_hot_probs(semantic, scene.spec), tmp / "probs.pdlt")
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


def _instance_indices(scene):
    div = scene.spec.label_divisor
    return sorted(
        int(i) % div
        for i in np.unique(scene.panoptic)
        if int(i) // div in scene.spec.thing_ids and int(i) % div
    )


def test_eval_pred_scores_missing_instance_exit_1(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    instances = _instance_indices(scene)
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_eval_non_finite_pred_score_exit_1(scene_files, capsys, value):
    scene, gt_path, spec_path, tmp = scene_files
    rows = [{"instance_index": k, "score": 0.5} for k in _instance_indices(scene)]
    rows[0]["score"] = value  # written as NaN, Infinity or -Infinity
    scores_path = tmp / "scores.json"
    scores_path.write_text(json.dumps({"instances": rows}))
    report = tmp / "eval.json"
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--pred-scores", str(scores_path), "--report", str(report)]
    for mode in ("ap", "all"):
        assert main(argv + ["--mode", mode]) == 1
        err = capsys.readouterr().err
        assert "prediction scores must be finite" in err
        assert str(scores_path) in err
        assert f"instance index {rows[0]['instance_index']}" in err
        assert not report.exists()


@pytest.mark.parametrize(
    "text, message",
    [(b'{"instances": [', "Expecting value: line 1 column 16 (char 15)"),
     (b"\xff{}", "can't decode byte 0xff")],
    ids=["truncated", "not-utf-8"],
)
def test_eval_malformed_pred_scores_names_the_file_exit_1(scene_files, capsys, text, message):
    scene, gt_path, spec_path, tmp = scene_files
    scores_path = tmp / "scores.json"
    scores_path.write_bytes(text)
    report = tmp / "eval.json"
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--pred-scores", str(scores_path), "--report", str(report)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{scores_path} is not a JSON document" in err
    assert message in err
    assert not report.exists()


@pytest.mark.parametrize(
    "doc, field",
    [({"records": []}, "instances"), ({"instances": [{"instance_index": 1}]}, "score")],
)
def test_eval_pred_scores_missing_field_exit_1(scene_files, capsys, doc, field):
    scene, gt_path, spec_path, tmp = scene_files
    scores_path = tmp / "scores.json"
    scores_path.write_text(json.dumps(doc))
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--pred-scores", str(scores_path), "--report", str(tmp / "eval.json")]
    assert main(argv) == 1
    assert f"{scores_path} has no '{field}' field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [([], ""), ({"instances": 3}, ""), ({"instances": [{"instance_index": 1, "score": None}]}, ""),
     ({"instances": [{"instance_index": 1.7, "score": 0.5}]}, "instance index 1.7 is not an integer"),
     ({"instances": [{"instance_index": True, "score": 0.5}]}, "instance index True is not an integer"),
     ({"instances": [{"instance_index": 1, "score": 0.5}, {"instance_index": 1, "score": 0.9}]},
      "instance index 1 occurs twice"),
     ({"instances": [{"instance_index": 1, "score": "0.5"}]},
      "instance index 1 score '0.5' is not a number"),
     ({"instances": [{"instance_index": 1, "score": True}]},
      "instance index 1 score True is not a number")],
    ids=["list", "instances-not-a-list", "null-score", "float-index", "boolean-index",
         "duplicate-index", "string-score", "boolean-score"],
)
def test_eval_pred_scores_wrong_types_exit_1(scene_files, capsys, doc, named):
    scene, gt_path, spec_path, tmp = scene_files
    scores_path = tmp / "scores.json"
    scores_path.write_text(json.dumps(doc))
    report = tmp / "eval.json"
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--pred-scores", str(scores_path), "--report", str(report)]
    assert main(argv) == 1
    assert f"{scores_path} is not a fuse instance report: {named}" in capsys.readouterr().err
    assert not report.exists()


def test_eval_integer_pred_scores_read_as_floats(scene_files, capsys):
    scene, gt_path, spec_path, tmp = scene_files
    reports = []
    for score in (1, 1.0, 10**400):  # the last one has no float
        rows = [{"instance_index": k, "score": score} for k in _instance_indices(scene)]
        scores_path = tmp / "scores.json"
        scores_path.write_text(json.dumps({"instances": rows}))
        report = tmp / f"eval{len(reports)}.json"
        argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
                "--mode", "ap", "--pred-scores", str(scores_path), "--report", str(report)]
        reports.append((main(argv), report.read_bytes() if report.exists() else None))
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert reports[2] == (1, None)
    err = capsys.readouterr().err
    assert "prediction scores must be finite" in err and str(scores_path) in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_eval_rejects_threads_below_one(scene_files, capsys, threads):
    scene, gt_path, spec_path, tmp = scene_files
    report = tmp / "eval.json"
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--threads", threads, "--report", str(report)]
    assert main(argv) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("mode", ["pq", "miou", "ap", "all"])
@pytest.mark.parametrize("category", [77, 300], ids=["gap", "above-range"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_eval_unknown_id_exit_1_in_every_mode(scene_files, capsys, mode, category, side):
    scene, gt_path, spec_path, tmp = scene_files
    # 77 lies between the spec's category ids and its ignore label 255;
    # 300 lies above both. Instance part 1 makes it a would-be detection.
    assert category not in scene.spec.category_ids and category != scene.spec.ignore_label
    bad = scene.panoptic.copy()
    bad[:4, :4] = category * scene.spec.label_divisor + 1
    bad_path = tmp / "bad.pdlt"
    write_tensor(bad.astype(np.uint32), bad_path)
    pred, gt = (bad_path, gt_path) if side == "pred" else (gt_path, bad_path)
    argv = ["eval", "--pred", str(pred), "--gt", str(gt), "--spec", str(spec_path),
            "--mode", mode, "--report", str(tmp / "eval.json")]
    assert main(argv) == 1
    assert f"{side} map contains ids unknown to the dataset spec" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["float", "3-D"])
@pytest.mark.parametrize("side", ["pred", "gt", "both"])
def test_eval_non_integer_or_3d_map_names_the_file_exit_1(scene_files, capsys, kind, side):
    scene, gt_path, spec_path, tmp = scene_files
    ids = scene.panoptic.astype(np.uint32)
    bad = ids.astype(np.float32) + np.float32(0.25) if kind == "float" else np.stack([ids, ids], axis=2)
    bad_path = tmp / "bad.pdlt"
    write_tensor(bad, bad_path)
    pred = gt_path if side == "gt" else bad_path
    gt = gt_path if side == "pred" else bad_path
    report = tmp / "eval.json"
    argv = ["eval", "--pred", str(pred), "--gt", str(gt), "--spec", str(spec_path),
            "--report", str(report)]
    assert main(argv) == 1
    assert f"error: {bad_path} must be a 2-D integer panoptic map" in capsys.readouterr().err
    assert not report.exists()


def test_eval_one_thread_runs_in_the_calling_thread(scene_files, monkeypatch):
    import panopticore.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("--threads 1 started a worker thread")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    scene, gt_path, spec_path, tmp = scene_files
    argv = ["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--spec", str(spec_path),
            "--mode", "all", "--report", str(tmp / "eval.json")]
    assert main(argv + ["--threads", "1"]) == 0
    with pytest.raises(AssertionError, match="worker thread"):
        main(argv + ["--threads", "2"])


def test_cli_import_leaves_scipy_and_selftest_out():
    # Start-up cost: scipy.ndimage takes ~0.25 s to import and only dense
    # heatmaps reach keypoint_nms, which imports it; only the selftest
    # subcommand imports selftest.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, panopticore.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'panopticore.selftest'))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# The CLI boundary: one fault in one input


# The faults each subcommand's inputs can carry. "empty" and "side-1" are
# shapes with a 0 side, and with a trailing side of 1 where a 2-D map or
# another side is due; "spec-*" are spec fields of the wrong type and a
# negative category id; "index-*" replace a --pred-scores row's instance
# index, so that the map's instance has no score.
_BOUNDARY_FAULTS = {
    "targets": ("spec-type", "spec-negative-id", "dtype-code", "rank", "empty", "side-1",
                "nan", "unknown-id", "largest-id"),
    "fuse": ("spec-type", "spec-negative-id", "dtype-code", "rank", "empty", "side-1",
             "nan", "inf", "-inf", "unknown-id", "largest-id", "integer-grid"),
    "eval": ("spec-type", "spec-negative-id", "dtype-code", "rank", "empty", "side-1",
             "nan", "unknown-id", "largest-id", "score-type", "score-nan", "index-negative",
             "index-large"),
}
# Each .pdlt input: its flag, and the names a message may give it besides its path.
_BOUNDARY_GRIDS = {
    "targets": {"panoptic": ("panoptic",)},
    "fuse": {"semantic": ("semantic", "probabilit"), "heatmap": ("heatmap",),
             "offsets": ("offsets",)},
    "eval": {"pred": ("pred",), "gt": ("gt",)},
}


def _boundary_inputs(command, seed, height, width, probabilities):
    """The valid inputs of ``command`` on a random map: the spec document,
    each grid by flag, and eval's --pred-scores document."""
    spec = make_spec(num_stuff=2, num_things=2)
    rng = np.random.default_rng(seed)
    panoptic = random_valid_map(rng, spec, height, width)
    panoptic[0, 0] = 3 * spec.label_divisor + 1  # at least one thing instance
    spec_doc = {"categories": [{"id": c.id, "name": c.name, "is_thing": c.is_thing}
                               for c in spec.categories],
                "ignore_label": spec.ignore_label, "label_divisor": spec.label_divisor,
                "stuff_area_threshold": spec.stuff_area_threshold}
    if command == "targets":
        return spec, spec_doc, {"panoptic": panoptic.astype(np.uint32)}, None
    if command == "eval":
        gt = panoptic.astype(np.uint32)
        pred = np.roll(gt, 1, axis=1)
        category, index = np.divmod(np.unique(pred), spec.label_divisor)
        things = {int(k) for c, k in zip(category, index) if c in spec.thing_ids and k}
        rows = [{"instance_index": k, "score": 0.5 + 0.01 * k} for k in sorted(things)]
        return spec, spec_doc, {"pred": pred, "gt": gt}, {"instances": rows}
    bundle = encode_targets(panoptic, spec)
    semantic = bundle.semantic_labels.astype(np.uint16)
    if probabilities:
        semantic = _one_hot_probs(semantic, spec)
    heatmap = np.clip(bundle.heatmap + rng.normal(0, 0.1, bundle.heatmap.shape), 0, 1)
    grids = {"semantic": semantic, "heatmap": heatmap.astype(np.float32),
             "offsets": bundle.offsets}
    return spec, spec_doc, grids, None


def _put_boundary_fault(fault, spec, spec_doc, grids, scores, data):
    """Put ``fault`` into one input, drawn with ``data``: returns the flag
    of the input it went into, and for the header faults the byte to patch
    (offset, value)."""
    if fault == "spec-type":
        field, value = data.draw(st.sampled_from([
            ("label_divisor", "1000"), ("ignore_label", 2.5), ("categories", {}),
            ("stuff_area_threshold", None), ("is_thing", 1), ("id", "0"), ("name", 7)]))
        entry = spec_doc["categories"][0] if field in ("is_thing", "id", "name") else spec_doc
        entry[field] = value
        return "spec", None
    if fault == "spec-negative-id":
        spec_doc["categories"][0]["id"] = -1
        return "spec", None
    if fault.startswith(("score", "index")):
        row = data.draw(st.sampled_from(scores["instances"]))
        key, value = {"score-type": ("score", "0.5"), "score-nan": ("score", math.nan),
                      "index-negative": ("instance_index", -1),
                      "index-large": ("instance_index", 2**70)}[fault]
        row[key] = value
        return "pred-scores", None
    names = sorted(grids)
    if fault in ("nan", "inf", "-inf"):
        names = [n for n in names if grids[n].dtype == np.float32] or names
    elif fault in ("unknown-id", "largest-id"):
        names = [n for n in names if grids[n].dtype != np.float32]
    elif fault == "integer-grid":
        names = [n for n in names if grids[n].dtype == np.float32]
    name = data.draw(st.sampled_from(names))
    grid = grids[name]
    if fault == "dtype-code":
        return name, (6, data.draw(st.sampled_from([0, 4, 255])))
    if fault == "rank":
        return name, (7, data.draw(st.sampled_from([0, 1, 4])))
    if fault == "empty":
        side = data.draw(st.sampled_from([0, 1]))
        grids[name] = np.delete(grid, np.s_[:], axis=side)
    elif fault == "side-1":
        grids[name] = grid[..., :1] if grid.ndim == 3 else grid[..., None]
    elif fault in ("nan", "inf", "-inf"):
        grids[name] = grid.astype(np.float32)  # an id map becomes a float one
        grids[name].reshape(-1)[data.draw(st.integers(0, grid.size - 1))] = float(fault)
    elif fault == "integer-grid":
        grids[name] = np.abs(grid).astype(data.draw(st.sampled_from([np.uint16, np.uint32])))
    else:
        value = np.iinfo(grid.dtype).max
        if fault == "unknown-id":  # category 77 is neither a category nor the ignore label
            value = 77 * spec.label_divisor + 1 if grid.dtype == np.uint32 else 77
        grids[name] = grid.copy()
        grids[name].reshape(-1)[data.draw(st.integers(0, grid.size - 1))] = value
    return name, None


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(_BOUNDARY_FAULTS)),
    seed=st.integers(0, 2**16),
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    data=st.data(),
)
def test_cli_boundary_fault_exits_1_or_2_naming_the_file(command, seed, height, width, data):
    fault = data.draw(st.sampled_from((None,) + _BOUNDARY_FAULTS[command]))
    # fuse reads probabilities or label ids; an id fault needs the ids.
    probabilities = fault not in ("unknown-id", "largest-id") and data.draw(st.booleans())
    spec, spec_doc, grids, scores = _boundary_inputs(command, seed, height, width, probabilities)
    faulted, patch = None, None
    if fault:
        faulted, patch = _put_boundary_fault(fault, spec, spec_doc, grids, scores, data)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"spec": tmp / "spec.json", "pred-scores": tmp / "scores.json"}
        paths["spec"].write_text(json.dumps(spec_doc, allow_nan=True))
        if scores is not None:
            paths["pred-scores"].write_text(json.dumps(scores, allow_nan=True))
        for name, grid in grids.items():
            paths[name] = tmp / f"{name}.pdlt"
            write_tensor(grid, paths[name])
        if patch:
            raw = bytearray(paths[faulted].read_bytes())
            raw[patch[0]] = patch[1]
            paths[faulted].write_bytes(bytes(raw))
        outputs = {"targets": [tmp / "out"], "fuse": [tmp / "out.pdlt", tmp / "report.json"],
                   "eval": [tmp / "report.json"]}[command]
        argv = [command, "--spec", str(paths["spec"])]
        argv += [a for name in grids for a in (f"--{name}", str(paths[name]))]
        if command == "eval":
            argv += ["--mode", "all", "--pred-scores", str(paths["pred-scores"])]
        argv += [a for flag, p in zip(("--out", "--report"), outputs) for a in (flag, str(p))]
        if command == "eval":
            argv[-2] = "--report"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(io.StringIO()) as err, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        if fault:
            assert code in (1, 2), (fault, faulted, err.getvalue())
            names = (str(paths[faulted]),) + _BOUNDARY_GRIDS[command].get(faulted, ())
            assert any(n in err.getvalue() for n in names), (fault, faulted, err.getvalue())
            assert not any(p.exists() for p in outputs), (fault, faulted)
            return
        assert code == 0, err.getvalue()
        if command == "targets":
            bundle = encode_targets(grids["panoptic"], spec)
            for name, want in (("heatmap", bundle.heatmap), ("offsets", bundle.offsets),
                               ("weights", bundle.semantic_weights)):
                assert read_tensor(outputs[0] / TARGET_FILES[name]).tobytes() == want.tobytes()
        elif command == "fuse":
            result = panoptic_inference(grids["semantic"], grids["heatmap"], grids["offsets"], spec)
            assert read_tensor(outputs[0]).tobytes() == result.panoptic.astype(np.uint32).tobytes()
            report = json.loads(outputs[1].read_text())
            assert report["num_instances"] == len(result.instances)
        else:
            from panopticore import metrics

            report = json.loads(outputs[0].read_text())["aggregate"]
            want = cli._pq_payload(metrics.panoptic_quality(grids["pred"], grids["gt"], spec))
            assert report["pq"] == json.loads(json.dumps(want))
