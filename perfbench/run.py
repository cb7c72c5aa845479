"""Cityscapes-scale benchmark of the panopticore command line.

    python3 perfbench/run.py --workload fuse-labels --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
``--seed`` with its own numpy code (``gen.py``), measures ``setup_s`` in
fresh interpreters, runs the workload's timed loop in a child process
(``child.py``), checks every output (``checks.py``) and prints a report.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.

Exit codes: 0 all outputs correct, 1 some operation failed or a check
failed, 2 the benchmark itself could not run (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Half before and half after the timed loop, so the median samples the
# machine at more than one moment of the run.
SETUP_REPEATS = 6
SETUP_CODE = "import sys, panopticore.cli as cli; cli.tensor_io.read_spec(sys.argv[1])"
CHILD_TIMEOUT_S = 150
WORKLOADS = ("fuse-labels", "fuse-probs", "train", "eval")
# Images per run, cycled in a fixed order. With an odd count the median op
# time falls inside the middle image's cluster of samples, not in the gap
# between two clusters, which keeps it steady from run to run.
NUM_IMAGES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment(seed: int) -> str:
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or commit
    pins = " ".join(f"{v}={child_env()[v]}" for v in THREAD_VARS)
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} commit={commit} "
        f"{pins} seed={seed}"
    )


def platform_key() -> str:
    """Float outputs (exp/log) may differ with numpy's SIMD dispatch, so
    recorded digests hold only for the platform they were made on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        return "unknown"
    simd = "avx512f" if features.get("AVX512F") else "avx2" if features.get("AVX2") else "other"
    return f"{platform.machine()} numpy-{np.__version__} {simd}"


def measure_setup(spec: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse the spec."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(spec)],
            env=child_env(), check=True, timeout=60, capture_output=True,
        )
        times.append(time.perf_counter() - start)
    return times


def make_inputs(work: Path, workload: str, seed: int, scale: float) -> list[dict]:
    """Write the run's images; returns one descriptor per image."""
    images = []
    for k, n in enumerate(gen.instance_counts(NUM_IMAGES)):
        n = max(4, round(n * min(1.0, scale)))
        scene = gen.make_scene(seed, k, n, scale)
        src, out = work / f"img{k}", work / f"out{k}"
        src.mkdir(parents=True)
        out.mkdir(parents=True)
        labels = gen.semantic_prediction(scene)
        if workload != "eval":
            gen.write_pdlt(src / "heatmap.pdlt", gen.center_heatmap(scene))
            gen.write_pdlt(src / "offsets.pdlt", gen.offset_prediction(scene))
        if workload.startswith("fuse"):
            gen.write_pdlt(src / "semantic.pdlt", labels.astype(np.uint16))
        if workload == "fuse-probs":
            gen.write_pdlt(src / "probs.pdlt", gen.class_probabilities(scene, labels))
        if workload in ("train", "eval"):
            gen.write_pdlt(src / "gt.pdlt", scene.panoptic.astype(np.uint32))
        if workload == "train":
            gen.write_pdlt(src / "logits.pdlt", gen.class_logits(scene, labels))
        if workload == "eval":
            pred, scores = gen.perturbed_prediction(scene, scale)
            gen.write_pdlt(src / "pred.pdlt", pred.astype(np.uint32))
            doc = {"instances": [{"instance_index": i, "score": s} for i, s in scores.items()]}
            (src / "pred_scores.json").write_text(json.dumps(doc))
        # Relative to the work directory, where the child runs, so that paths
        # echoed in reports do not depend on where the checkout lives.
        images.append({"index": k, "instances": n, "dir": src.name, "out": out.name})
    return images


def run_child(config: dict, work: Path) -> dict:
    config_path = work / "child.json"
    config_path.write_text(json.dumps(config))
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config_path)],
        cwd=work, env=child_env(), timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise HarnessError(f"timed loop exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(Path(config["result"]).read_text())


def check_ops(workload: str, seed: int, scale: float, work: Path, images: list[dict], ops: list[dict]):
    """Marks failed operations.

    Returns the failed op indices, the reasons, each image's digest and
    whether the digests were compared with recorded ones.

    An operation fails if it raised or exited non-zero, if its output bytes
    differ from the first repetition of its image, or if its image's
    outputs fail a check or a digest recorded for this seed.
    """
    failed, reasons, reference = set(), [], {}
    for i, op in enumerate(ops):
        if op["error"]:
            failed.add(i)
            reasons.append(f"op {i} image {op['image']}: {op['error'].strip().splitlines()[-1]}")
        elif op["image"] not in reference:
            reference[op["image"]] = op
        elif op["digest"] != reference[op["image"]]["digest"]:
            failed.add(i)
            reasons.append(f"op {i} image {op['image']}: output bytes differ from its first repetition")

    recorded = json.loads((HERE / "digests.json").read_text())
    use_recorded = (
        seed == recorded["seed"] and scale == 1.0 and platform_key() == recorded["platform"]
    )
    bad_images = set()
    for image in images:
        first = reference.get(image["index"])
        if first is None:
            continue
        src, out = work / image["dir"], work / image["out"]
        try:
            if workload.startswith("fuse"):
                problems = checks.check_fuse(src, out)
            elif workload == "train":
                problems = checks.check_train(src, out, first["losses"])
            else:
                problems = checks.check_eval(src, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            problems = [f"outputs unreadable: {e!r}"]
        want = recorded["workloads"][workload][image["index"]] if use_recorded else None
        if want is not None and want != first["digest"]:
            problems.append(f"digest {first['digest'][:16]} != recorded {want[:16]}")
        if problems:
            bad_images.add(image["index"])
            reasons += [f"image {image['index']}: {p}" for p in problems]
    failed |= {i for i, op in enumerate(ops) if op["image"] in bad_images}
    digests = [reference[i["index"]]["digest"] if i["index"] in reference else None for i in images]
    return failed, reasons, digests, use_recorded


def tail_percentile(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        value = float(np.percentile(samples, p))
        if sum(s > value for s in samples) >= 10:
            return f"p{p:g} {value * 1000:.1f} ms"
    return "no percentile has 10 samples beyond it"


def end_to_end(timed: list[dict], peak_rss_kib: int, setup: list[float]) -> tuple[dict, dict]:
    seconds = [op["seconds"] for op in timed]
    values = {
        "images_per_s": len(seconds) / sum(seconds),
        "image_ms_p50": statistics.median(seconds) * 1000.0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "images_per_s": f"n={len(seconds)} images in {sum(seconds):.2f} s of operation time",
        "image_ms_p50": f"median of n={len(seconds)}; tail {tail_percentile(seconds)}",
        "peak_rss_mb": "child process that ran only the timed loop, n=1",
        "setup_s": f"median of n={len(setup)}: " + " ".join(f"{s:.3f}" for s in setup),
    }
    return values, notes


def per_layer(names: list[str], ops: list[dict], layers: list[dict]) -> tuple[dict, dict]:
    traced = [op["seconds"] for op in ops if op["traced"]]
    untraced = [op["seconds"] for op in ops if not op["traced"] and not op["warmup"]]
    n = len(layers)
    values = {
        "trace.coverage_frac": sum(l["covered_ms"] for l in layers) / sum(l["op_wall_ms"] for l in layers),
        "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
        "postprocess.center_yield": statistics.median(
            l.get("postprocess.instances", 0) / l["postprocess.centers"] if l.get("postprocess.centers") else 0.0
            for l in layers
        ),
    }
    for name in names:
        if name not in values:
            values[name] = statistics.median(l.get(name, 0.0) for l in layers)
    notes = {name: f"median of n={n} traced ops" for name in names}
    notes["trace.coverage_frac"] = f"sum over n={n} traced ops"
    notes["trace.overhead_frac"] = f"n={len(traced)} traced vs n={len(untraced)} untraced ops"
    return {name: values[name] for name in names}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="image size relative to 1025x2049 (tests use small values)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (HarnessError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (SRC / "panopticore" / "cli.py").is_file():
        raise HarnessError(f"no package source at {SRC}; run from a checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = work / "spec.json"
        gen.write_spec(spec)
        setup = [] if args.trace else measure_setup(spec, SETUP_REPEATS // 2)
        images = make_inputs(work, args.workload, args.seed, args.scale)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        outcome = run_child({
            "workload": args.workload, "spec": spec.name, "images": images,
            "seconds": args.seconds, "trace": args.trace, "src": str(SRC),
            "result": str(work / "result.json"), "spans": str(spans),
        }, work)
        if not args.trace:
            setup += measure_setup(spec, SETUP_REPEATS - len(setup))
        ops = outcome["ops"]
        failed, reasons, digests, used_recorded = check_ops(
            args.workload, args.seed, args.scale, work, images, ops
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    height, width = gen.image_dims(args.scale)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={height}x{width}")
    print(environment(args.seed))
    print(f"inputs {len(images)} images, thing instances {[i['instances'] for i in images]}; "
          f"closed loop, one client, one image per operation")
    if args.trace:
        values, notes = per_layer(list(units), ops, outcome["layers"])
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        timed = [op for op in ops if not op["warmup"]]
        values, notes = end_to_end(timed, outcome["peak_rss_kib"], setup)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit} ({notes[name]})")
    print(f"failed_ops_frac {len(failed) / len(ops):.6g} fraction ({len(failed)} of n={len(ops)} operations failed)")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"digests {'compared with the recorded ones' if used_recorded else 'not compared (no record for this seed and platform)'}: "
          + json.dumps({args.workload: digests}))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
