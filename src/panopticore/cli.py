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
import hashlib
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import metrics, postprocess, selftest, targets, tensor_io
from .core import DatasetSpec, validate
from .synth import bench_inputs

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


def _load_spec(path: str) -> DatasetSpec:
    return tensor_io.read_spec(path)


def _require_valid(array: np.ndarray, spec: DatasetSpec, kind: str) -> None:
    violations = validate(array, spec, kind)
    if violations:
        raise ValueError(f"invalid {kind} input: " + "; ".join(violations[:5]))


def _instances_payload(result: postprocess.PanopticResult) -> list[dict]:
    payload = []
    for record in result.instances:
        row = {
            "instance_index": record.instance_index,
            "category": record.category,
            "area": record.area,
            "score": record.score,
        }
        if record.center is not None:
            row["center"] = [record.center.row, record.center.col]
        payload.append(row)
    return payload


# ---------------------------------------------------------------------------
# targets


def cmd_targets(args) -> int:
    spec = _load_spec(args.spec)
    panoptic = tensor_io._map_tensor(args.panoptic).astype(np.int64)
    _require_valid(panoptic, spec, "panoptic")
    params = targets.TargetParams(
        sigma=args.sigma,
        truncation_radius=args.truncation_radius,
        small_instance_area=args.small_instance_area,
        small_instance_weight=args.small_instance_weight,
    )
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
    spec = _load_spec(args.spec)
    if args.top_k >= spec.label_divisor:
        raise ValueError(
            f"--top-k {args.top_k} must be below the spec's label_divisor "
            f"{spec.label_divisor}, which bounds the instance part of a panoptic id"
        )
    params = postprocess.PostprocParams(
        nms_kernel=args.nms_kernel,
        center_threshold=args.center_threshold,
        top_k=args.top_k,
        stuff_area_threshold=args.stuff_area_threshold,
        score_mode=args.score_mode,
    )
    semantic = tensor_io._map_tensor(args.semantic)
    heatmap = tensor_io._map_tensor(args.heatmap)
    offsets = tensor_io._map_tensor(args.offsets)
    result = postprocess.panoptic_inference(semantic, heatmap, offsets, spec, params)
    panoptic = result.panoptic
    if panoptic.min() < 0 or panoptic.max() > np.iinfo(np.uint32).max:
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
    def agg(a):
        return {
            "pq": a.pq,
            "sq": a.sq,
            "rq": a.rq,
            "num_categories": a.num_categories,
        }

    return {
        "all": agg(report.all),
        "things": agg(report.things),
        "stuff": agg(report.stuff),
        "per_category": {
            str(cid): {
                "pq": row.pq,
                "sq": row.sq,
                "rq": row.rq,
                "tp": row.tp,
                "fp": row.fp,
                "fn": row.fn,
                "iou_sum": row.iou_sum,
            }
            for cid, row in report.per_category.items()
        },
    }


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


def _eval_one(pred_path, gt_path, scores_path, spec, modes):
    pred, gt = tensor_io._map_tensor(pred_path), tensor_io._map_tensor(gt_path)
    hist = metrics.joint_histogram(pred, gt)
    row: dict = {"pred": str(pred_path), "gt": str(gt_path)}
    outputs: dict = {}
    if "pq" in modes:
        outputs["pq"] = metrics.pq_from_histogram(hist, spec)
        row["pq"] = _pq_payload(outputs["pq"])
    if "miou" in modes:
        outputs["miou"] = metrics.miou_from_histogram(hist, spec)
        row["miou"] = _miou_payload(outputs["miou"])
    if "ap" in modes:
        scores = None  # every instance scores 1.0 without a fuse report
        if scores_path:
            doc = json.loads(Path(scores_path).read_text())
            scores = {int(r["instance_index"]): float(r["score"]) for r in doc["instances"]}
        try:
            outputs["ap"] = metrics.ap_matches_from_histogram(hist, spec, scores)
        except KeyError as e:
            message = f"{scores_path} has no score for instance index {e.args[0]}"
            raise ValueError(message) from None
        row["ap"] = _ap_payload(metrics.ap_report_from_matches([outputs["ap"]]))
    return row, outputs


def cmd_eval(args) -> int:
    spec = _load_spec(args.spec)
    preds = args.pred
    gts = args.gt
    if len(preds) != len(gts):
        raise ValueError(
            f"pred list has {len(preds)} entries but gt list has {len(gts)}"
        )
    scores = args.pred_scores or [None] * len(preds)
    if len(scores) != len(preds):
        raise ValueError(
            f"pred-scores list has {len(scores)} entries but pred list has {len(preds)}"
        )
    modes = ("pq", "miou", "ap") if args.mode == "all" else (args.mode,)

    jobs = [(pred, gt, score, spec, modes) for pred, gt, score in zip(preds, gts, scores)]
    # One thread runs in the caller: a worker thread would get its own malloc
    # arena, which keeps freed full-resolution temporaries.
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(lambda job: _eval_one(*job), jobs))
    else:
        rows = [_eval_one(*job) for job in jobs]

    report: dict = {"mode": args.mode, "images": [r for r, _ in rows]}
    aggregate: dict = {}
    if "pq" in modes:
        aggregate["pq"] = _pq_payload(
            metrics.combine_pq([o["pq"] for _, o in rows], spec)
        )
    if "miou" in modes:
        aggregate["miou"] = _miou_payload(
            metrics.combine_miou([o["miou"] for _, o in rows], spec)
        )
    if "ap" in modes:
        aggregate["ap"] = _ap_payload(
            metrics.ap_report_from_matches([o["ap"] for _, o in rows])
        )
    report["aggregate"] = aggregate
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be >= 1, got {args.repetitions}")
    semantic, heatmap, offsets, spec = bench_inputs(
        args.height, args.width, args.centers, seed=args.seed
    )
    if args.workload == "fuse-probs":
        # The one-hot float32 grid of the same labels.
        probs = np.zeros(semantic.shape + (spec.num_categories,), dtype=np.float32)
        np.put_along_axis(probs, spec.table.channel[semantic][..., None], np.float32(1.0), axis=2)
        semantic = probs
    params = postprocess.PostprocParams()
    stages: dict[str, list[float]] = {}
    end_to_end = []
    digest = None
    for _ in range(args.repetitions):
        # One run of the stages fuse runs, timed between the names they
        # yield; the last item yielded is the result.
        start = last = time.perf_counter()
        for step in postprocess._inference_stages(semantic, heatmap, offsets, spec, params):
            now = time.perf_counter()
            if isinstance(step, str):
                stages.setdefault(step, []).append(now - last)
                last = now
        end_to_end.append(last - start)
        digest = hashlib.sha256(step.panoptic.astype(np.int64).tobytes()).hexdigest()
    stages["end_to_end"] = end_to_end
    report = {
        "dims": [args.height, args.width],
        "centers": args.centers,
        "repetitions": args.repetitions,
        "panoptic_sha256": digest,
        "stages_ms": {
            name: {
                "median": statistics.median(times) * 1000.0,
                "runs": [t * 1000.0 for t in times],
            }
            for name, times in stages.items()
        },
    }
    if args.workload != "fuse-labels":  # the default report keeps its keys
        report["workload"] = args.workload
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
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
    p.add_argument("--mode", choices=("pq", "miou", "ap", "all"), default="all")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", choices=("fuse-labels", "fuse-probs"), default="fuse-labels",
                   help="semantic input: (H, W) labels or their one-hot (H, W, C) float32 grid")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the property suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
