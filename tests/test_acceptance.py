"""Acceptance suite: one test per exit criterion, each printing a summary.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from unittest import mock

import numpy as np
import pytest

from panopticore import losses, metrics, postprocess, targets
from panopticore.cli import main
from panopticore.core import Dims, InstanceCenter
from panopticore.selftest import (
    _fd_ce,
    _fd_l1,
    _fd_mse,
    exact_inputs,
    group_oracle,
    nms_oracle,
    random_valid_map,
    round_trip_pq,
)
from panopticore.synth import bench_inputs, make_spec, random_scene
from panopticore.tensor_io import write_spec, write_tensor


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_round_trip_oracle():
    """>=100 scenes, 64..256 px, 1..20 instances, >=3 stuff: PQ exactly 1."""
    started = time.perf_counter()
    n_scenes = 100
    for seed in range(n_scenes):
        scene = random_scene(
            seed, min_size=64, max_size=256, max_instances=20, min_stuff=3
        )
        pq = round_trip_pq(scene)
        assert pq.all.pq == 1.0, f"seed {seed}: PQ {pq.all.pq} != 1.0"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"round trip took {elapsed:.1f}s, budget 30s"
    report("round_trip_oracle", f"{n_scenes} scenes, PQ == 1.0, {elapsed:.1f}s")


def test_grouping_oracle_exhaustive_and_random():
    """group_pixels == naive argmin loop; exhaustive 4x4 + 1000 random 16x16."""
    mismatches = 0
    # Exhaustive: every thing-mask on a 4x4 grid, 0..3 deterministic centers.
    for bits in range(65536):
        mask = np.array(
            [(bits >> i) & 1 for i in range(16)], dtype=bool
        ).reshape(4, 4)
        n_centers = bits % 4
        centers = [
            InstanceCenter(
                row=((bits >> (2 * k)) & 3) + 0.25 * k,
                col=((bits >> (2 * k + 4)) & 3) - 0.25 * k,
            )
            for k in range(n_centers)
        ]
        offsets = np.zeros((4, 4, 2), dtype=np.float32)
        offsets[..., 0] = ((bits >> 8) & 3) - 1.5
        offsets[..., 1] = ((bits >> 10) & 3) - 1.5
        got = postprocess.group_pixels(centers, offsets, mask)
        want = group_oracle(centers, offsets, mask)
        mismatches += not np.array_equal(got, want)
    assert mismatches == 0, f"{mismatches} exhaustive mismatches"

    rng = np.random.default_rng(424242)
    for case in range(1000):
        mask = rng.random((16, 16)) < 0.6
        offsets = rng.normal(0, 5, size=(16, 16, 2)).astype(np.float32)
        centers = [
            InstanceCenter(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        got = postprocess.group_pixels(centers, offsets, mask)
        want = group_oracle(centers, offsets, mask)
        mismatches += not np.array_equal(got, want)
    assert mismatches == 0, f"{mismatches} random mismatches"
    report("grouping_oracle", "65536 exhaustive + 1000 random cases, zero mismatches")


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_grouping_oracle_with_small_tiles(monkeypatch, tile):
    """The grouping oracle cases again, pruning centers over many tiny tiles."""
    monkeypatch.setattr(postprocess, "_GROUP_TILE", tile)
    test_grouping_oracle_exhaustive_and_random()


def test_nms_oracle_1000_cases():
    """keypoint_nms == naive window-max scan, kernels 1/3/5/7; the
    candidate-only peak search (forced on every case) == extract_centers
    over the scan."""
    rng = np.random.default_rng(7)
    mismatches = peak_mismatches = 0
    for case in range(1000):
        heatmap = rng.random((16, 16)).astype(np.float32)
        for kernel in (1, 3, 5, 7):
            got = postprocess.keypoint_nms(heatmap, kernel)
            want = nms_oracle(heatmap, kernel)
            mismatches += not np.array_equal(got, want)
            threshold = (0.0, 0.1, 0.5, 0.9)[case % 4]
            with mock.patch.object(postprocess, "_PEAK_DENSITY", math.inf):
                peaks = postprocess._peak_centers(heatmap, kernel, threshold, 200)
            peak_mismatches += peaks != postprocess.extract_centers(want, threshold, 200)
    assert mismatches == 0, f"{mismatches} mismatches"
    assert peak_mismatches == 0, f"{peak_mismatches} candidate-search mismatches"
    report("nms_oracle", "1000 heatmaps x kernels {1,3,5,7}, zero mismatches, "
           "candidate-only peaks included")


def test_gradient_checks_50_instances_each():
    """Analytic gradients match central differences, rel err < 1e-4."""
    fractions = (0.15, 0.5, 1.0)
    for seed in range(50):
        failure = _fd_mse(seed, step=1e-4, tol=1e-4)
        assert not failure, failure
        failure = _fd_l1(seed, step=1e-4, tol=1e-4)
        assert not failure, failure
        failure = _fd_ce(seed, fraction=fractions[seed % 3], step=1e-4, tol=1e-4)
        assert not failure, failure
    report("gradient_checks", "50 random 8x8 instances per loss, rel err < 1e-4")


def test_pq_formula_and_uniqueness():
    """Constructed TP/FN scene hits 0.5333...; identity + uniqueness hold."""
    spec = make_spec(num_stuff=1, num_things=1)
    thing = sorted(spec.thing_ids)[0]
    stuff = sorted(spec.stuff_ids)[0]
    gt = np.full((20, 20), stuff * spec.label_divisor, dtype=np.int64)
    pred = gt.copy()
    gt[0:10, :] = thing * spec.label_divisor + 1
    pred[0:8, :] = thing * spec.label_divisor + 1  # IoU 0.8
    gt[15:19, 0:10] = thing * spec.label_divisor + 2  # FN
    row = metrics.panoptic_quality(pred, gt, spec).per_category[thing]
    assert abs(row.pq - 0.8 / 1.5) <= 1e-9

    stress_spec = make_spec(num_stuff=3, num_things=3)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        a = random_valid_map(rng, stress_spec, 16, 16)
        b = random_valid_map(rng, stress_spec, 16, 16)
        rep = metrics.panoptic_quality(a, b, stress_spec)  # asserts uniqueness
        for r in rep.per_category.values():
            if r.tp > 0:
                assert r.pq == r.sq * r.rq
    report(
        "pq_formula",
        "0.5333... within 1e-9; identity and uniqueness over 1000 random pairs",
    )


def test_score_mode_invariance_20_scenes():
    """Identical panoptic bytes and PQ/mIoU across the three score modes."""
    for i in range(20):
        scene = random_scene(5000 + i, max_size=160)
        semantic, heatmap, offsets = exact_inputs(scene)
        results = {}
        for mode in postprocess.SCORE_MODES:
            params = postprocess.PostprocParams(score_mode=mode)
            results[mode] = postprocess.panoptic_inference(
                semantic, heatmap, offsets, scene.spec, params
            )
        blobs = {m: r.panoptic.tobytes() for m, r in results.items()}
        assert blobs["objectness"] == blobs["class"] == blobs["product"]
        pq = {
            m: metrics.panoptic_quality(r.panoptic, scene.panoptic, scene.spec).all.pq
            for m, r in results.items()
        }
        assert pq["objectness"] == pq["class"] == pq["product"]
        miou = {
            m: metrics.mean_iou(
                r.panoptic // scene.spec.label_divisor,
                scene.panoptic // scene.spec.label_divisor,
                scene.spec,
            ).mean
            for m, r in results.items()
        }
        assert miou["objectness"] == miou["class"] == miou["product"]
    report("score_mode_invariance", "20 scenes, bytes and PQ/mIoU identical")


def test_heatmap_encoding_quantitative():
    """Distance 8 from a lone center at sigma 8 gives exp(-0.5) +- 1e-6."""
    heatmap = targets.encode_center_heatmap(
        [InstanceCenter(16, 16)], Dims(33, 33), targets.TargetParams(sigma=8)
    )
    want = math.exp(-0.5)
    assert abs(float(heatmap[16, 24]) - want) <= 1e-6
    assert abs(float(heatmap[8, 16]) - want) <= 1e-6
    report("heatmap_encoding", f"value {float(heatmap[16, 24]):.9f} vs exp(-0.5)")


def test_performance_budget():
    """Full inference < 1.0 s and merge < 100 ms on 1025x2049, 200 centers."""
    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    suppressed = postprocess.keypoint_nms(heatmap, 7)
    centers = postprocess.extract_centers(suppressed, 0.1, 200)
    mask = postprocess.thing_mask_from_semantic(semantic, spec)
    instance_ids = postprocess.group_pixels(centers, offsets, mask)

    merge_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        postprocess.merge_panoptic(semantic, instance_ids, spec)
        merge_times.append(time.perf_counter() - t0)
    merge_ms = sorted(merge_times)[1] * 1000

    total_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        postprocess.panoptic_inference(semantic, heatmap, offsets, spec)
        total_times.append(time.perf_counter() - t0)
    total_s = sorted(total_times)[1]

    print(
        f"ACCEPTANCE performance: end_to_end {total_s*1000:.0f} ms (budget 1000), "
        f"merge {merge_ms:.1f} ms (budget 100)"
    )
    assert total_s < 1.0, f"end-to-end {total_s:.3f}s exceeds 1.0s"
    assert merge_ms < 100.0, f"merge {merge_ms:.1f}ms exceeds 100ms"


def test_probability_input_budget():
    """Full inference on a (1025, 2049, 19) f32 probability grid < 1.0 s."""
    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    channel = np.searchsorted(np.asarray(spec.category_ids), semantic)
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    np.put_along_axis(probs, channel[..., None], np.float32(1.0), axis=2)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        postprocess.panoptic_inference(probs, heatmap, offsets, spec)
        times.append(time.perf_counter() - t0)
    total_s = sorted(times)[1]
    print(f"ACCEPTANCE probability_budget: end_to_end {total_s*1000:.0f} ms (budget 1000)")
    assert total_s < 1.0, f"probability-input inference {total_s:.3f}s exceeds 1.0s"


def test_bootstrapped_ce_budget():
    """Bootstrapped CE with gradient on (1025, 2049, 19) f32 logits < 1.0 s."""
    rng = np.random.default_rng(1025)
    logits = rng.normal(0, 3, size=(1025, 2049, 19)).astype(np.float32)
    labels = rng.integers(0, 19, size=(1025, 2049)).astype(np.int32)
    labels[:40, :80] = 255
    weights = np.where(rng.random((1025, 2049)) < 0.1, 3.0, 1.0).astype(np.float32)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        loss = losses.weighted_bootstrapped_ce(logits, labels, weights, 255, 0.15)
        times.append(time.perf_counter() - t0)
        del loss
    total_s = sorted(times)[1]
    print(f"ACCEPTANCE bootstrapped_ce_budget: {total_s*1000:.0f} ms (budget 1000)")
    assert total_s < 1.0, f"bootstrapped CE {total_s:.3f}s exceeds 1.0s"


def test_encode_targets_budget():
    """encode_targets on one 1025x2049 ground-truth map < 0.3 s."""
    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    gt = postprocess.panoptic_inference(semantic, heatmap, offsets, spec).panoptic
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        bundle = targets.encode_targets(gt, spec)
        times.append(time.perf_counter() - t0)
        del bundle
    total_s = sorted(times)[1]
    print(f"ACCEPTANCE encode_targets_budget: {total_s*1000:.0f} ms (budget 300)")
    assert total_s < 0.3, f"encode_targets {total_s:.3f}s exceeds 0.3s"


def test_eval_budget(tmp_path):
    """eval --mode all --pred-scores on one 1025x2049 pair < 1.0 s."""
    semantic, heatmap, offsets, spec = bench_inputs(1025, 2049, 200)
    result = postprocess.panoptic_inference(semantic, heatmap, offsets, spec)
    gt = result.panoptic.astype(np.uint32)
    write_spec(spec, tmp_path / "spec.json")
    write_tensor(gt, tmp_path / "gt.pdlt")
    write_tensor(np.roll(gt, (3, -5), axis=(0, 1)), tmp_path / "pred.pdlt")
    rows = [{"instance_index": r.instance_index, "score": r.score} for r in result.instances]
    (tmp_path / "scores.json").write_text(json.dumps({"instances": rows}))
    argv = ["eval", "--pred", str(tmp_path / "pred.pdlt"), "--gt", str(tmp_path / "gt.pdlt"),
            "--spec", str(tmp_path / "spec.json"), "--mode", "all",
            "--pred-scores", str(tmp_path / "scores.json"), "--report", str(tmp_path / "r.json")]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert main(argv) == 0
        times.append(time.perf_counter() - t0)
    eval_s = sorted(times)[1]
    print(
        f"ACCEPTANCE eval_budget: {eval_s*1000:.0f} ms (budget 1000), "
        f"{len(result.instances)} instances"
    )
    assert eval_s < 1.0, f"eval {eval_s:.3f}s exceeds 1.0s"


def test_determinism_across_runs_and_threads(tmp_path):
    """Bit-identical outputs across repeated runs and --threads {1,4}."""
    scene = random_scene(777, max_size=128)
    semantic, heatmap, offsets = exact_inputs(scene)
    a = postprocess.panoptic_inference(semantic, heatmap, offsets, scene.spec)
    b = postprocess.panoptic_inference(semantic, heatmap, offsets, scene.spec)
    assert a.panoptic.tobytes() == b.panoptic.tobytes()
    assert a.instances == b.instances

    scenes = [random_scene(800 + i, max_size=96) for i in range(3)]
    write_spec(scenes[0].spec, tmp_path / "spec.json")
    paths = []
    for i, s in enumerate(scenes):
        p = tmp_path / f"map{i}.pdlt"
        write_tensor(s.panoptic.astype(np.uint32), p)
        paths.append(str(p))
    blobs = {}
    for threads in (1, 4):
        out = tmp_path / f"report_{threads}.json"
        code = main(
            ["eval", "--pred", *paths, "--gt", *paths, "--spec",
             str(tmp_path / "spec.json"), "--mode", "all", "--threads",
             str(threads), "--report", str(out)]
        )
        assert code == 0
        blobs[threads] = out.read_bytes()
    assert blobs[1] == blobs[4]
    report("determinism", "pipeline reruns and --threads {1,4} bit-identical")
