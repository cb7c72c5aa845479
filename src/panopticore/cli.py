"""Command-line interface.

Subcommands: ``targets`` (ground truth -> training targets), ``fuse``
(prediction grids -> panoptic map), ``eval`` (PQ / mIoU / AP), ``bench``
(stage timings on synthetic inputs), and ``selftest`` (property suite).

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 property failure.
All reports are JSON with sorted keys, so identical inputs produce identical
bytes regardless of thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import losses, metrics, postprocess, targets, tensor_io
from .core import validate
from .synth import bench_inputs, bench_logits

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PROPERTY = 3

TARGET_FILES = {
    "heatmap": "heatmap.pdlt",
    "offsets": "offsets.pdlt",
    "weights": "weights.pdlt",
    "semantic": "semantic.pdlt",
    "thing_mask": "thing_mask.pdlt",
}


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _instances_payload(result: postprocess.PanopticResult) -> list[dict]:
    payload = []
    for record in result.instances:
        row = {name: value for name, value in vars(record).items() if name != "center"}
        if record.center is not None:
            row["center"] = [record.center.row, record.center.col]
        payload.append(row)
    return payload


def _params(cls, args):
    """The parameter dataclass ``cls`` from the options named like its fields.
    A rejected value's message starts with its field name; the error names
    the field's flag too."""
    try:
        return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})
    except ValueError as e:
        raise ValueError(f"--{str(e).split()[0].replace('_', '-')}: {e}") from None


# ---------------------------------------------------------------------------
# targets


def cmd_targets(args) -> int:
    params = _params(targets.TargetParams, args)
    spec = tensor_io.read_spec(args.spec)
    panoptic = tensor_io._map_tensor(args.panoptic)
    violations = validate(panoptic, spec, "panoptic")
    if violations:
        raise ValueError("invalid panoptic input: " + "; ".join(violations[:5]))
    bundle = targets.encode_targets(panoptic, spec, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tensor_io.write_tensor(bundle.heatmap, out / TARGET_FILES["heatmap"])
    tensor_io.write_tensor(bundle.offsets, out / TARGET_FILES["offsets"])
    tensor_io.write_tensor(bundle.semantic_weights, out / TARGET_FILES["weights"])
    tensor_io.write_tensor(
        bundle.semantic_labels.astype(np.uint16), out / TARGET_FILES["semantic"]
    )
    tensor_io.write_tensor(
        bundle.thing_mask.astype(np.uint16), out / TARGET_FILES["thing_mask"]
    )
    for (pid, center), area in zip(bundle.centers, bundle.areas):
        print(
            f"instance {pid} center=({center.row:.3f},{center.col:.3f}) "
            f"area={area}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse


def cmd_fuse(args) -> int:
    spec = tensor_io.read_spec(args.spec)
    if args.top_k >= spec.label_divisor:
        raise ValueError(
            f"--top-k {args.top_k} must be below the spec's label_divisor "
            f"{spec.label_divisor}, which bounds the instance part of a panoptic id"
        )
    params = _params(postprocess.PostprocParams, args)
    grids = []
    for path in (args.semantic, args.heatmap, args.offsets):
        grids.append(tensor_io._map_tensor(path))
        if 0 in grids[-1].shape[:2]:
            raise ValueError(f"{path}: empty dims {grids[-1].shape}")
    result = postprocess.panoptic_inference(*grids, spec, params)
    panoptic = result.panoptic
    # The merge writes only ids below (max_known_label + 1) * label_divisor:
    # the map is scanned only where that bound passes the container's.
    uint32_max = np.iinfo(np.uint32).max
    if (spec.max_known_label + 1) * spec.label_divisor - 1 > uint32_max and (
        panoptic.min() < 0 or panoptic.max() > uint32_max
    ):
        raise ValueError("panoptic ids exceed the uint32 container range")
    tensor_io.write_tensor(panoptic.astype(np.uint32), args.out)
    report = {
        "dims": list(panoptic.shape),
        "num_instances": len(result.instances),
        "instances": _instances_payload(result),
    }
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _pq_payload(report: metrics.PqReport) -> dict:
    payload = {name: vars(part) for name, part in vars(report).items() if name != "per_category"}
    payload["per_category"] = {str(cid): vars(row) for cid, row in report.per_category.items()}
    return payload


def _miou_payload(report: metrics.IoUReport) -> dict:
    return {
        "mean_iou": report.mean,
        "per_category": {str(c): v for c, v in report.per_category.items()},
    }


def _ap_payload(report: metrics.ApReport) -> dict:
    return {
        "mean_ap": report.mean_ap,
        "per_threshold": {f"{t:.2f}": v for t, v in report.per_threshold.items()},
        "per_category": {str(c): v for c, v in report.per_category.items()},
    }


# The eval modes in report order. Each maps the joint histogram of one
# (pred, gt) pair and its prediction scores to a tally, and a list of
# tallies, one image's or every image's, to its report payload. The metrics
# are looked up at call time, so a wrapper installed on them sees each call.
_EVAL_MODES = {
    "pq": (lambda hist, spec, scores: metrics.pq_from_histogram(hist, spec),
           lambda tallies, spec: _pq_payload(metrics.combine_pq(tallies, spec))),
    "miou": (lambda hist, spec, scores: metrics.miou_from_histogram(hist, spec),
             lambda tallies, spec: _miou_payload(metrics.combine_miou(tallies, spec))),
    "ap": (lambda hist, spec, scores: metrics.ap_matches_from_histogram(hist, spec, scores),
           lambda tallies, spec: _ap_payload(metrics.ap_report_from_matches(tallies))),
}


def _report(tallies: dict, spec) -> dict:
    """The payload of each mode from its list of tallies."""
    return {mode: _EVAL_MODES[mode][1](rows, spec) for mode, rows in tallies.items()}


def _eval_stages(pred, gt, spec, modes, scores):
    """The metrics of one (pred, gt) pair: yields each stage's name as it
    finishes (``histogram``, each of ``modes``, then ``report``), then the
    pair's report row and its tallies by mode."""
    hist = metrics.joint_histogram(pred, gt)
    yield "histogram"
    tallies: dict = {}
    for mode in modes:
        tallies[mode] = _EVAL_MODES[mode][0](hist, spec, scores)
        yield mode
    row = _report({mode: [tally] for mode, tally in tallies.items()}, spec)
    yield "report"
    yield row, tallies


def _eval_one(pred_path, gt_path, scores_path, spec, modes):
    pred, gt = tensor_io._map_tensor(pred_path), tensor_io._map_tensor(gt_path)
    metrics._check_map(pred, pred_path)
    metrics._check_map(gt, gt_path)
    scores = None  # every instance scores 1.0 without a fuse report
    if scores_path:
        try:
            doc = json.loads(Path(scores_path).read_text())
        except ValueError as e:  # not UTF-8, or not JSON
            raise ValueError(f"{scores_path} is not a JSON document: {e}") from None
        try:
            rows = [(r["instance_index"], r["score"]) for r in doc["instances"]]
        except KeyError as e:
            raise ValueError(f"{scores_path} has no {e.args[0]!r} field") from None
        except TypeError as e:  # a field of the wrong type
            raise ValueError(f"{scores_path} is not a fuse instance report: {e}") from None
        scores = {}
        for index, score in rows:
            try:  # a JSON integer, once, and a JSON number: true and "0.5" are neither
                tensor_io._json_value(index, int, "instance index")
                if index in scores:
                    raise ValueError(f"instance index {index} occurs twice")
                tensor_io._json_value(score, float, f"instance index {index} score")
            except ValueError as e:
                raise ValueError(f"{scores_path} is not a fuse instance report: {e}") from None
            try:
                scores[index] = float(score)
            except OverflowError:  # an integer beyond the float range
                scores[index] = math.inf
        bad = [k for k, v in scores.items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{scores_path}: prediction scores must be finite, "
                             f"instance index {bad[0]} has {scores[bad[0]]}")
    try:
        *_, result = _eval_stages(pred, gt, spec, modes, scores)
    except KeyError as e:
        message = f"{scores_path} has no score for instance index {e.args[0]}"
        raise ValueError(message) from None
    return result


def cmd_eval(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    spec = tensor_io.read_spec(args.spec)
    preds, gts = args.pred, args.gt
    if len(preds) != len(gts):
        raise ValueError(
            f"pred list has {len(preds)} entries but gt list has {len(gts)}"
        )
    scores = args.pred_scores or [None] * len(preds)
    if len(scores) != len(preds):
        raise ValueError(
            f"pred-scores list has {len(scores)} entries but pred list has {len(preds)}"
        )
    modes = tuple(_EVAL_MODES) if args.mode == "all" else (args.mode,)

    jobs = [(pred, gt, score, spec, modes) for pred, gt, score in zip(preds, gts, scores)]
    # One thread runs in the caller: a worker thread would get its own malloc
    # arena, which keeps freed full-resolution temporaries.
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(lambda job: _eval_one(*job), jobs))
    else:
        rows = [_eval_one(*job) for job in jobs]

    images = [{"pred": str(p), "gt": str(g), **row} for p, g, (row, _) in zip(preds, gts, rows)]
    # One image's tallies combine to its own row.
    aggregate = rows[0][0] if len(rows) == 1 else _report(
        {mode: [tallies[mode] for _, tallies in rows] for mode in modes}, spec
    )
    _emit({"mode": args.mode, "images": images, "aggregate": aggregate}, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _train_stages(gt, logits, heatmap, offsets, spec):
    """Targets of ``gt``, then each loss against its prediction."""
    bundle = targets.encode_targets(gt, spec)
    yield "targets"
    ce = losses.weighted_bootstrapped_ce(
        logits, bundle.semantic_labels, bundle.semantic_weights, spec.ignore_label
    )
    yield "ce"
    heat = losses.mse_heatmap_loss(heatmap, bundle.heatmap)
    yield "heatmap"
    off = losses.l1_offset_loss(offsets, bundle.offsets, bundle.thing_mask)
    yield "offsets"
    yield ce, heat, off


def _bench_probs(semantic, heatmap, offsets, spec, params):
    probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
    np.put_along_axis(probs, spec.table.channel[semantic][..., None], np.float32(1.0), axis=2)
    return partial(postprocess._inference_stages, probs, heatmap, offsets, spec, params)


def _bench_eval(semantic, heatmap, offsets, spec, params):
    result = postprocess.panoptic_inference(semantic, heatmap, offsets, spec, params)
    gt = result.panoptic.astype(np.uint32)
    pred = np.roll(gt, (3, -5), axis=(0, 1))
    scores = {r.instance_index: r.score for r in result.instances}
    return partial(_eval_stages, pred, gt, spec, tuple(_EVAL_MODES), scores)


def _bench_train(semantic, heatmap, offsets, spec, params):
    # Its semantic labels are channel indices: the spec's ids are 0..C-1.
    gt = postprocess.panoptic_inference(semantic, heatmap, offsets, spec, params).panoptic
    return partial(_train_stages, gt, bench_logits(gt, spec), heatmap, offsets, spec)


def _panoptic_buffers(result) -> tuple:
    return (result.panoptic.astype(np.int64).tobytes(),)


# The bench workloads by --workload name, the default first. Each builds,
# from the bench_inputs grids, the factory of one run's stages (a generator
# that yields each stage's name as it finishes, then the result), and names
# its digest's report key and the buffers of a result that the digest hashes.
_BENCH_WORKLOADS = {
    "fuse-labels": (lambda *inputs: partial(postprocess._inference_stages, *inputs),
                    "panoptic_sha256", _panoptic_buffers),
    "fuse-probs": (_bench_probs, "panoptic_sha256", _panoptic_buffers),
    "eval": (_bench_eval, "report_sha256",
             lambda result: (json.dumps(result[0], sort_keys=True).encode(),)),
    # Buffers, so the gradients are not copied.
    "train": (_bench_train, "train_sha256",
              lambda result: (repr([loss.value for loss in result]).encode(),
                              *(loss.gradient for loss in result))),
}


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be >= 1, got {args.repetitions}")
    build, digest_key, buffers = _BENCH_WORKLOADS[args.workload]
    run = build(*bench_inputs(args.height, args.width, args.centers),
                postprocess.PostprocParams())
    stages: dict[str, list[float]] = {}
    end_to_end = []
    for _ in range(args.repetitions):
        # One run of the stages, timed between the names they yield; the
        # last item yielded is the result.
        start = last = time.perf_counter()
        for step in run():
            now = time.perf_counter()
            if isinstance(step, str):
                stages.setdefault(step, []).append(now - last)
                last = now
        end_to_end.append(last - start)
    stages["end_to_end"] = end_to_end
    sha = hashlib.sha256()
    for part in buffers(step):
        sha.update(part)
    report = {
        "dims": [args.height, args.width],
        "centers": args.centers,
        "repetitions": args.repetitions,
        digest_key: sha.hexdigest(),
        "stages_ms": {
            name: {
                "median": statistics.median(times) * 1000.0,
                "runs": [t * 1000.0 for t in times],
            }
            for name, times in stages.items()
        },
    }
    if args.workload != next(iter(_BENCH_WORKLOADS)):  # the default names none
        report["workload"] = args.workload
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    from . import selftest  # not at start-up: no other subcommand uses it

    results = selftest.run_selftest()
    failed = [r for r in results if not r.passed]
    for r in results:
        if r.passed:
            print(f"PASS {r.name}")
        else:
            print(f"FAIL {r.name}: {r.detail}")
    if failed:
        print(f"selftest: {len(failed)} of {len(results)} properties failed "
              f"(first: {failed[0].name})")
        return EXIT_PROPERTY
    print(f"selftest: all {len(results)} properties passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panopticore",
        description="Panoptic segmentation targets, fusion, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("targets", help="encode training targets from ground truth")
    p.add_argument("--panoptic", required=True, help="ground-truth panoptic tensor")
    p.add_argument("--spec", required=True, help="dataset spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sigma", type=float, default=8.0)
    p.add_argument("--truncation-radius", type=float, default=3.0)
    p.add_argument("--small-instance-area", type=int, default=4096)
    p.add_argument("--small-instance-weight", type=float, default=3.0)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("fuse", help="fuse prediction grids into a panoptic map")
    p.add_argument("--semantic", required=True, help="labels (2-D) or probabilities (3-D)")
    p.add_argument("--heatmap", required=True)
    p.add_argument("--offsets", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="output panoptic tensor path")
    p.add_argument("--nms-kernel", type=int, default=7)
    p.add_argument("--center-threshold", type=float, default=0.1)
    p.add_argument("--top-k", type=int, default=200)
    p.add_argument("--stuff-area-threshold", type=int, default=None)
    p.add_argument("--score-mode", choices=postprocess.SCORE_MODES, default="product")
    p.add_argument("--report", default=None, help="instance report path (default stdout)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--gt", nargs="+", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=(*_EVAL_MODES, "all"), default="all")
    p.add_argument("--pred-scores", nargs="+", default=None,
                   help="per-image instance reports from fuse (for AP scores)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time pipeline stages on synthetic input")
    p.add_argument("--height", type=int, default=1025)
    p.add_argument("--width", type=int, default=2049)
    p.add_argument("--centers", type=int, default=200)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--workload", choices=_BENCH_WORKLOADS, default=next(iter(_BENCH_WORKLOADS)),
                   help="fuse on (H, W) labels or on their one-hot (H, W, C) float32 grid, "
                   "eval --mode all of the fused map against itself shifted by (3, -5), "
                   "or targets and the three losses with the fused map as gt")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the property suite")
    p.set_defaults(func=cmd_selftest)

    return parser


# Built once, at import: each main call only parses.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except tensor_io.SpecFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (tensor_io.TensorIoError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
