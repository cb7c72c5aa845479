"""Tests of the benchmark itself, on tiny images.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
TINY = ["--scale", "0.1", "--seconds", "0.3"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def digests_of(done: subprocess.CompletedProcess) -> list:
    line = next(l for l in done.stdout.splitlines() if l.startswith("digests "))
    return list(json.loads(line[line.index("{"):]).values())[0]


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            runs[workload, trace] = bench("--workload", workload, "--seed", "5", "--trace", trace, *TINY)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_reports_every_metric(tiny_runs, workload):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = tiny_runs[workload, trace]
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = result_of(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    e2e = result_of(tiny_runs[workload, "0"])["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())
    assert "failed_ops_frac 0 " in tiny_runs[workload, "0"].stdout


def test_every_per_layer_metric_is_measured_on_some_workload(tiny_runs):
    seen = set()
    for workload in WORKLOADS:
        metrics = result_of(tiny_runs[workload, "1"])["metrics"]
        seen |= {k for k, v in metrics.items() if v["value"] != 0}
    expected = {m["name"] for m in SPEC["per_layer"]}
    # The tiny scenes always have centers, so no thing pixel stays ungrouped.
    assert expected - seen == {"postprocess.ungrouped_void_pixels"}


def test_traced_and_untraced_outputs_are_byte_identical(tiny_runs):
    # Within a traced run, every traced op matched the untraced ops of its
    # image (else it would have failed); across runs the digests agree too.
    for workload in WORKLOADS:
        assert digests_of(tiny_runs[workload, "0"]) == digests_of(tiny_runs[workload, "1"])


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    def grids(seed):
        scene = gen.make_scene(seed, 1, 12, scale=0.1)
        labels = gen.semantic_prediction(scene)
        pred, scores = gen.perturbed_prediction(scene, 0.1)
        return [scene.panoptic, gen.center_heatmap(scene), gen.offset_prediction(scene),
                gen.class_probabilities(scene, labels), gen.class_logits(scene, labels), pred]

    first, again, other = grids(7), grids(7), grids(8)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


def test_instance_counts_do_not_depend_on_the_seed():
    counts = gen.instance_counts(3)
    assert counts == [75, 125, 175]
    assert all(gen.MIN_INSTANCES <= n <= gen.MAX_INSTANCES for n in counts)


def test_pdlt_round_trip(tmp_path):
    grid = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    gen.write_pdlt(tmp_path / "g.pdlt", grid)
    assert np.array_equal(gen.read_pdlt(tmp_path / "g.pdlt"), grid)


def _flip_last_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x40])


@pytest.mark.parametrize("workload,victim,corrupt", [
    ("fuse-labels", "report.json", lambda b: b.replace(b'"area": ', b'"area": 1', 1)),
    ("train", "offsets.pdlt", _flip_last_byte),
    ("eval", "report.json", lambda b: b.replace(b'"pq": 0.', b'"pq": 2.', 1)),
])
def test_corrupted_output_counts_as_failed_operation(tmp_path, workload, victim, corrupt):
    work = tmp_path / "work"
    work.mkdir()
    gen.write_spec(work / "spec.json")
    images = run.make_inputs(work, workload, seed=2, scale=0.1)
    outcome = run.run_child({
        "workload": workload, "spec": "spec.json", "images": images, "seconds": 0.1,
        "trace": 0, "src": str(run.SRC), "result": str(work / "result.json"),
        "spans": str(work / "spans.json"),
    }, work)
    ops = outcome["ops"]
    failed, reasons, _, _ = run.check_ops(workload, 2, 0.1, work, images, ops)
    assert not failed, reasons

    # The warm-up and the first timed op both run image 0; the second must
    # repeat the first byte for byte.
    assert ops[0]["image"] == ops[1]["image"] == 0
    good = ops[1]["digest"]
    ops[1]["digest"] = "0" * 64
    failed, reasons, _, _ = run.check_ops(workload, 2, 0.1, work, images, ops)
    assert failed == {1} and "differ from its first repetition" in reasons[0]
    ops[1]["digest"] = good

    path = work / images[0]["out"] / victim
    blob = path.read_bytes()
    path.write_bytes(corrupt(blob))
    assert path.read_bytes() != blob
    failed, reasons, _, _ = run.check_ops(workload, 2, 0.1, work, images, ops)
    assert failed == {i for i, op in enumerate(ops) if op["image"] == 0} and reasons


def test_exits_nonzero_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "eval", "--seed", "1", "--trace", "0", *TINY, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
