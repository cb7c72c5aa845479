"""Cityscapes-like inputs for the benchmark, built with numpy alone.

The package under test never makes its own inputs here: every grid is
painted by this module and written in the ``.pdlt`` container format
(magic, u16 version, u8 dtype code, u8 rank, u32 dims, row-major
little-endian payload), which this module reads and writes itself.

A run uses a handful of images. Their instance counts are fixed points in
[50, 200] and their radii are stratified log-uniform draws, so the amount
of work in a run barely depends on the seed while positions, shapes,
categories and scores all do. That keeps run-to-run spread low enough for
tight regression bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FULL_HEIGHT, FULL_WIDTH = 1025, 2049
NUM_STUFF, NUM_THINGS = 11, 8
THING_IDS = tuple(range(NUM_STUFF, NUM_STUFF + NUM_THINGS))
IGNORE_LABEL = 255
LABEL_DIVISOR = 1000
VOID_ID = IGNORE_LABEL * LABEL_DIVISOR
NUM_CATEGORIES = NUM_STUFF + NUM_THINGS
MIN_INSTANCES, MAX_INSTANCES = 50, 200
MIN_RADIUS, MAX_RADIUS = 4.0, 120.0
CROWD_FRACTION = 0.03
MISSED_FRACTION = 0.10
SPURIOUS_FRACTION = 0.10
WRONG_CATEGORY_FRACTION = 0.05
HEATMAP_SIGMA = 8.0
OFFSET_NOISE_PX = 2.0

_MAGIC = b"PDLT"
_DTYPE_CODES = {np.dtype("<u2"): 1, np.dtype("<u4"): 2, np.dtype("<f4"): 3}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


# ---------------------------------------------------------------------------
# container and spec files


def write_pdlt(path: Path, array: np.ndarray) -> None:
    dtype = array.dtype.newbyteorder("<")
    array = np.ascontiguousarray(array, dtype=dtype)
    header = _MAGIC + np.array([1], "<u2").tobytes()
    header += bytes([_DTYPE_CODES[dtype], array.ndim])
    header += np.array(array.shape, "<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(array).cast("B"))


def read_pdlt(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(8)
        if head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a .pdlt container")
        dtype, ndim = _CODE_DTYPES[head[6]], head[7]
        dims = tuple(int(d) for d in np.frombuffer(f.read(4 * ndim), "<u4"))
        data = np.fromfile(f, dtype=dtype)
    if data.size != math.prod(dims):
        raise ValueError(f"{path}: payload holds {data.size} values, dims {dims}")
    return data.reshape(dims)


def write_spec(path: Path) -> None:
    categories = [
        {"id": i, "name": f"stuff_{i}", "is_thing": False} for i in range(NUM_STUFF)
    ] + [{"id": c, "name": f"thing_{c}", "is_thing": True} for c in THING_IDS]
    doc = {
        "categories": categories,
        "ignore_label": IGNORE_LABEL,
        "label_divisor": LABEL_DIVISOR,
        "stuff_area_threshold": 0,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# scenes


@dataclass(frozen=True)
class Shape:
    """One painted ellipse: center, semi-axes, angle and category."""

    row: float
    col: float
    radius_row: float
    radius_col: float
    angle: float
    category: int


@dataclass
class Scene:
    """Ground truth plus everything needed to derive predictions from it."""

    panoptic: np.ndarray  # (H, W) int64 panoptic ids
    background: np.ndarray  # (H, W) int64 stuff labels under things and VOID
    shapes: list[Shape]  # thing shapes in paint order
    crowd: np.ndarray  # bool per shape
    seed: int
    index: int

    def rng(self, stream: int) -> np.random.Generator:
        """Independent generator per derived grid, so grids do not depend on
        the order in which a workload asks for them."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.index, stream]))


def image_dims(scale: float) -> tuple[int, int]:
    return max(24, round(FULL_HEIGHT * scale)), max(48, round(FULL_WIDTH * scale))


def instance_counts(num_images: int) -> list[int]:
    """Evenly spaced counts in [50, 200]; the same for every seed."""
    span = MAX_INSTANCES - MIN_INSTANCES
    return [round(MIN_INSTANCES + span * (k + 0.5) / num_images) for k in range(num_images)]


def _stratified_log_uniform(rng, n: int, low: float, high: float) -> np.ndarray:
    """n log-uniform draws on [low, high], one per equal-probability stratum."""
    u = (np.arange(n) + rng.random(n)) / n
    return rng.permutation(np.exp(np.log(low) + u * np.log(high / low)))


def _balanced_categories(rng, n: int) -> np.ndarray:
    """Thing categories used equally often (within one), in random order."""
    return rng.permutation(np.resize(rng.permutation(THING_IDS), n))


def _stuff_background(rng, height: int, width: int) -> np.ndarray:
    """Voronoi cells of every stuff category, drawn on an 8x coarser grid."""
    cell = 8
    h, w = -(-height // cell), -(-width // cell)
    sites = 2 * NUM_STUFF
    site_rows = rng.uniform(0, h, sites)
    site_cols = rng.uniform(0, w, sites)
    labels = np.resize(rng.permutation(NUM_STUFF), sites)
    rows = np.arange(h)[:, None, None]
    cols = np.arange(w)[None, :, None]
    nearest = ((rows - site_rows) ** 2 + (cols - site_cols) ** 2).argmin(axis=2)
    coarse = labels[nearest]
    return np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)[:height, :width]


def _paint(target: np.ndarray, shape: Shape, value: int) -> None:
    height, width = target.shape
    reach = max(shape.radius_row, shape.radius_col)
    r0, r1 = max(0, int(shape.row - reach)), min(height, int(shape.row + reach) + 2)
    c0, c1 = max(0, int(shape.col - reach)), min(width, int(shape.col + reach) + 2)
    if r0 >= r1 or c0 >= c1:
        return
    dy = np.arange(r0, r1)[:, None] - shape.row
    dx = np.arange(c0, c1)[None, :] - shape.col
    cos, sin = math.cos(shape.angle), math.sin(shape.angle)
    u = (dy * cos + dx * sin) / shape.radius_row
    v = (dx * cos - dy * sin) / shape.radius_col
    target[r0:r1, c0:c1][u * u + v * v <= 1.0] = value


def _random_shapes(rng, n: int, height: int, width: int, scale: float) -> list[Shape]:
    radii = _stratified_log_uniform(rng, n, MIN_RADIUS * scale, MAX_RADIUS * scale)
    radii = np.maximum(radii, 1.5)
    aspect = np.sqrt(rng.uniform(0.5, 2.0, n))
    categories = _balanced_categories(rng, n)
    shapes = [
        Shape(
            row=float(rng.uniform(0, height)),
            col=float(rng.uniform(0, width)),
            radius_row=float(r * a),
            radius_col=float(r / a),
            angle=float(rng.uniform(0, math.pi)),
            category=int(c),
        )
        for r, a, c in zip(radii, aspect, categories)
    ]
    # Large (near) objects first, so small (far) ones stay visible on top.
    shapes.sort(key=lambda s: -s.radius_row * s.radius_col)
    return shapes


def make_scene(seed: int, index: int, num_instances: int, scale: float = 1.0) -> Scene:
    """Ground truth for image ``index`` of a run with workload seed ``seed``.

    Thing instance ``i`` (paint order) gets id category * 1000 + i + 1; about
    3% of the shapes are crowd regions (instance part 0). A few VOID blocks
    are painted last.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    height, width = image_dims(scale)
    background = _stuff_background(rng, height, width)
    panoptic = background * LABEL_DIVISOR
    shapes = _random_shapes(rng, num_instances, height, width, scale)
    crowd = np.zeros(num_instances, dtype=bool)
    crowd[rng.choice(num_instances, round(CROWD_FRACTION * num_instances), replace=False)] = True
    for i, shape in enumerate(shapes):
        instance = 0 if crowd[i] else i + 1
        _paint(panoptic, shape, shape.category * LABEL_DIVISOR + instance)
    for _ in range(3):
        h = int(rng.uniform(16, 64) * scale) + 1
        w = int(rng.uniform(32, 128) * scale) + 1
        r0 = int(rng.integers(0, height - h))
        c0 = int(rng.integers(0, width - w))
        panoptic[r0 : r0 + h, c0 : c0 + w] = VOID_ID
    return Scene(panoptic, background, shapes, crowd, seed, index)


# ---------------------------------------------------------------------------
# reference quantities computed here, never by the package


def segment_stats(panoptic: np.ndarray):
    """Per panoptic id: pixel count, mean row and mean column (dense by id)."""
    flat = panoptic.reshape(-1)
    width = panoptic.shape[1]
    index = np.arange(flat.size)
    counts = np.bincount(flat, minlength=VOID_ID + 1)
    row_sum = np.bincount(flat, weights=index // width, minlength=VOID_ID + 1)
    col_sum = np.bincount(flat, weights=index % width, minlength=VOID_ID + 1)
    present = np.flatnonzero(counts)
    safe = np.maximum(counts, 1)
    return present, counts, row_sum / safe, col_sum / safe


def is_thing_instance(ids: np.ndarray) -> np.ndarray:
    """True for thing ids with instance part >= 1 (crowd and VOID excluded)."""
    category, instance = ids // LABEL_DIVISOR, ids % LABEL_DIVISOR
    return (category >= NUM_STUFF) & (category < NUM_CATEGORIES) & (instance >= 1)


def semantic_prediction(scene: Scene) -> np.ndarray:
    """Category map a perfect model would predict: VOID shows the stuff below."""
    category = scene.panoptic // LABEL_DIVISOR
    return np.where(category == IGNORE_LABEL, scene.background, category)


def center_heatmap(scene: Scene) -> np.ndarray:
    """Gaussian peaks of random height at every instance's mass center."""
    rng = scene.rng(1)
    height, width = scene.panoptic.shape
    heatmap = rng.random((height, width), dtype=np.float32) * np.float32(0.02)
    ids, _, mean_row, mean_col = segment_stats(scene.panoptic)
    ids = ids[is_thing_instance(ids)]
    peaks = rng.uniform(0.5, 1.0, ids.size)
    radius = int(3 * HEATMAP_SIGMA)
    for pid, peak in zip(ids, peaks):
        row, col = mean_row[pid], mean_col[pid]
        r0, r1 = max(0, int(row) - radius), min(height, int(row) + radius + 1)
        c0, c1 = max(0, int(col) - radius), min(width, int(col) + radius + 1)
        dy = np.arange(r0, r1)[:, None] - row
        dx = np.arange(c0, c1)[None, :] - col
        patch = peak * np.exp(-(dy * dy + dx * dx) / (2 * HEATMAP_SIGMA**2))
        region = heatmap[r0:r1, c0:c1]
        np.maximum(region, patch.astype(np.float32), out=region)
    return heatmap


def offset_prediction(scene: Scene) -> np.ndarray:
    """Offsets to each thing segment's mass center plus ~2 px noise."""
    rng = scene.rng(2)
    panoptic = scene.panoptic
    height, width = panoptic.shape
    _, _, mean_row, mean_col = segment_stats(panoptic)
    flat = panoptic.reshape(-1)
    thing = (flat // LABEL_DIVISOR >= NUM_STUFF) & (flat // LABEL_DIVISOR < NUM_CATEGORIES)
    offsets = rng.normal(0.0, OFFSET_NOISE_PX, (height * width, 2)).astype(np.float32)
    pixels = np.flatnonzero(thing)
    ids = flat[pixels]
    offsets[pixels, 0] += (mean_row[ids] - pixels // width).astype(np.float32)
    offsets[pixels, 1] += (mean_col[ids] - pixels % width).astype(np.float32)
    return offsets.reshape(height, width, 2)


def class_probabilities(scene: Scene, labels: np.ndarray) -> np.ndarray:
    """(H, W, 19) float32 probabilities whose argmax is ``labels``."""
    rng = scene.rng(3)
    probs = rng.random((*labels.shape, NUM_CATEGORIES), dtype=np.float32)
    probs *= np.float32(0.05)
    top = rng.uniform(0.5, 1.0, labels.shape).astype(np.float32)
    np.put_along_axis(probs, labels[..., None], top[..., None], axis=2)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


def class_logits(scene: Scene, labels: np.ndarray) -> np.ndarray:
    """(H, W, 19) float32 logits leaning towards ``labels``."""
    rng = scene.rng(4)
    logits = rng.random((*labels.shape, NUM_CATEGORIES), dtype=np.float32)
    logits *= np.float32(3.0)
    top = rng.uniform(1.0, 3.0, labels.shape).astype(np.float32)
    bump = np.take_along_axis(logits, labels[..., None], axis=2)[..., 0] + top
    np.put_along_axis(logits, labels[..., None], bump[..., None], axis=2)
    return logits


def perturbed_prediction(scene: Scene, scale: float = 1.0):
    """A predicted panoptic map and per-instance scores for ``eval``.

    Each ground-truth shape is repainted with its center moved by up to 20%
    of its radius and its axes scaled by 0.9-1.1, so IoUs spread over the
    0.50-0.95 AP thresholds. 10% of the shapes are missed, 10% spurious
    shapes are added and 5% take a wrong category. VOID is not predicted.
    Returns (panoptic, scores) with scores keyed by instance index.
    """
    rng = scene.rng(5)
    shapes, n = scene.shapes, len(scene.shapes)
    height, width = scene.panoptic.shape
    missed = np.zeros(n, dtype=bool)
    missed[rng.choice(n, round(MISSED_FRACTION * n), replace=False)] = True
    wrong = rng.choice(n, round(WRONG_CATEGORY_FRACTION * n), replace=False)
    categories = np.array([s.category for s in shapes])
    categories[wrong] = NUM_STUFF + (categories[wrong] - NUM_STUFF + rng.integers(1, NUM_THINGS, wrong.size)) % NUM_THINGS
    moved = []
    for shape, category, skip in zip(shapes, categories, missed):
        if skip:
            continue
        shift = rng.uniform(0, 0.2) * math.sqrt(shape.radius_row * shape.radius_col)
        direction = rng.uniform(0, 2 * math.pi)
        moved.append(
            (
                Shape(
                    row=shape.row + shift * math.sin(direction),
                    col=shape.col + shift * math.cos(direction),
                    radius_row=shape.radius_row * rng.uniform(0.9, 1.1),
                    radius_col=shape.radius_col * rng.uniform(0.9, 1.1),
                    angle=shape.angle + rng.uniform(-0.2, 0.2),
                    category=int(category),
                ),
                float(rng.uniform(0.3, 1.0)),
            )
        )
    spurious = _random_shapes(rng, round(SPURIOUS_FRACTION * n), height, width, scale)
    moved += [(s, float(rng.uniform(0.05, 0.6))) for s in spurious]
    moved.sort(key=lambda m: -m[0].radius_row * m[0].radius_col)
    panoptic = scene.background * LABEL_DIVISOR
    scores = {}
    for i, (shape, score) in enumerate(moved, start=1):
        _paint(panoptic, shape, shape.category * LABEL_DIVISOR + i)
        scores[i] = score
    return panoptic, scores
