"""Timed loop of one workload, in a process of its own.

``run.py`` generates the inputs, then starts ``python3 perfbench/child.py
CONFIG`` with ``PYTHONPATH`` pointing at the checkout's ``src``. This
process imports the package, runs one untimed warm-up operation and then
whole cycles over the run's images until about ``seconds`` of operation time
have passed. Its peak RSS therefore covers the package's work on this
workload only. With ``trace`` set, every image runs twice per cycle, first
untraced and then traced, so the two can be compared byte for byte and in
time.

Each operation is one image handed to ``panopticore.cli.main`` in-process,
in a closed loop: the next operation starts when the previous one returned.
Work that only prepares an operation (loading the predictions the losses
compare against) or inspects its outputs (digests) is not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import gen
from panopticore import cli, losses, tensor_io
from tracing import Tracer

MAX_CYCLES = 1000
TARGET_FILES = ("heatmap", "offsets", "weights", "semantic", "thing_mask")


def _file_digest(h, path: Path) -> None:
    with open(path, "rb") as f:
        while chunk := f.read(1 << 24):
            h.update(chunk)


class Fuse:
    def __init__(self, spec: Path, semantic_file: str):
        self.spec = spec
        self.semantic_file = semantic_file

    def prepare(self, image: dict):
        return None

    def op(self, image: dict, prepared) -> None:
        src, out = Path(image["dir"]), Path(image["out"])
        rc = cli.main([
            "fuse",
            "--semantic", str(src / self.semantic_file),
            "--heatmap", str(src / "heatmap.pdlt"),
            "--offsets", str(src / "offsets.pdlt"),
            "--spec", str(self.spec),
            "--out", str(out / "panoptic.pdlt"),
            "--report", str(out / "report.json"),
        ])
        if rc != 0:
            raise RuntimeError(f"fuse exited with {rc}")

    def digest(self, image: dict, result) -> tuple[str, dict]:
        h = hashlib.sha256()
        for name in ("panoptic.pdlt", "report.json"):
            _file_digest(h, Path(image["out"]) / name)
        return h.hexdigest(), {}


class Train:
    """``targets`` on the ground truth, then the three losses against the
    image's generated predictions, using the targets read back from disk."""

    def __init__(self, spec: Path):
        self.spec = spec

    def prepare(self, image: dict):
        src = Path(image["dir"])
        return {k: gen.read_pdlt(src / f"{k}.pdlt") for k in ("logits", "heatmap", "offsets")}

    def op(self, image: dict, pred) -> dict:
        out = Path(image["out"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main([
                "targets",
                "--panoptic", str(Path(image["dir"]) / "gt.pdlt"),
                "--spec", str(self.spec),
                "--out", str(out),
            ])
        if rc != 0:
            raise RuntimeError(f"targets exited with {rc}")
        t = {k: tensor_io.read_tensor(out / f"{k}.pdlt") for k in TARGET_FILES}
        sem = losses.weighted_bootstrapped_ce(
            pred["logits"], t["semantic"], t["weights"], gen.IGNORE_LABEL
        )
        heat = losses.mse_heatmap_loss(pred["heatmap"], t["heatmap"])
        off = losses.l1_offset_loss(pred["offsets"], t["offsets"], t["thing_mask"])
        total = losses.total_loss(sem, heat, off)
        return {"stdout": stdout.getvalue(), "losses": (sem, heat, off), "total": total}

    def digest(self, image: dict, result: dict) -> tuple[str, dict]:
        h = hashlib.sha256(result["stdout"].encode())
        for name in TARGET_FILES:
            _file_digest(h, Path(image["out"]) / f"{name}.pdlt")
        values = [v.value for v in result["losses"]] + [result["total"]]
        h.update(repr(values).encode())
        for v in result["losses"]:
            h.update(memoryview(v.gradient).cast("B"))
        Path(image["out"], "stdout.txt").write_text(result["stdout"])
        names = ("weighted_bootstrapped_ce", "mse_heatmap_loss", "l1_offset_loss", "total_loss")
        return h.hexdigest(), {"losses": dict(zip(names, values))}


class Eval:
    def __init__(self, spec: Path):
        self.spec = spec

    def prepare(self, image: dict):
        return None

    def op(self, image: dict, prepared) -> None:
        src = Path(image["dir"])
        rc = cli.main([
            "eval",
            "--pred", str(src / "pred.pdlt"),
            "--gt", str(src / "gt.pdlt"),
            "--spec", str(self.spec),
            "--mode", "all",
            "--pred-scores", str(src / "pred_scores.json"),
            "--threads", "1",
            "--report", str(Path(image["out"]) / "report.json"),
        ])
        if rc != 0:
            raise RuntimeError(f"eval exited with {rc}")

    def digest(self, image: dict, result) -> tuple[str, dict]:
        h = hashlib.sha256()
        _file_digest(h, Path(image["out"]) / "report.json")
        return h.hexdigest(), {}


def make_workload(name: str, spec: Path):
    return {
        "fuse-labels": lambda: Fuse(spec, "semantic.pdlt"),
        "fuse-probs": lambda: Fuse(spec, "probs.pdlt"),
        "train": lambda: Train(spec),
        "eval": lambda: Eval(spec),
    }[name]()


def run(config: dict) -> dict:
    expected = Path(config["src"]).resolve()
    if expected not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported {cli.__file__}, not the package under {expected}")
    workload = make_workload(config["workload"], Path(config["spec"]))
    images = config["images"]
    tracer = Tracer() if config["trace"] else None
    records: list[dict] = []
    layers: list[dict] = []

    def run_one(image: dict, traced: bool, warmup: bool = False) -> float:
        prepared = workload.prepare(image)
        op = len(records)
        error = None
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            with tracer.operation(op) if traced else contextlib.nullcontext():
                result = workload.op(image, prepared)
        except Exception:  # a failing operation is counted, the loop goes on
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            layers.append(tracer.operation_metrics(op))
        digest, extra = (None, {}) if error else workload.digest(image, result)
        records.append({
            "image": image["index"], "traced": traced, "warmup": warmup,
            "seconds": seconds, "digest": digest, "error": error, **extra,
        })
        return seconds

    run_one(images[0], traced=False, warmup=True)
    elapsed = 0.0
    for _ in range(MAX_CYCLES):
        cycle = 0.0
        for image in images:
            cycle += run_one(image, traced=False)
            if tracer:
                cycle += run_one(image, traced=True)
        elapsed += cycle
        # Stop at the cycle boundary nearest to the requested time.
        if elapsed + cycle / 2 >= config["seconds"]:
            break
    if tracer:
        tracer.dump(config["spans"])
    return {
        "ops": records,
        "layers": layers,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    cfg = json.loads(Path(sys.argv[1]).read_text())
    os.chdir(Path(sys.argv[1]).parent)
    outcome = run(cfg)
    Path(cfg["result"]).write_text(json.dumps(outcome))
