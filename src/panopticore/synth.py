"""Procedural scenes for self-tests and benchmarks.

``random_scene`` builds ground-truth panoptic maps from a stuff Voronoi
background plus elliptical thing instances. Scenes keep instance mass
centers at least 4 pixels apart so that exact
targets survive the full inference round trip; overlapping paints and
re-checks make that property hold on the final map, not the intent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategorySpec, DatasetSpec, segment_table

__all__ = ["Scene", "random_scene", "bench_inputs", "bench_logits"]


@dataclass(frozen=True)
class Scene:
    panoptic: np.ndarray
    spec: DatasetSpec


def make_spec(
    num_stuff: int = 4,
    num_things: int = 4,
    ignore_label: int = 255,
    label_divisor: int = 1000,
) -> DatasetSpec:
    categories = [
        CategorySpec(id=i, name=f"stuff_{i}", is_thing=False) for i in range(num_stuff)
    ] + [
        CategorySpec(id=num_stuff + i, name=f"thing_{i}", is_thing=True)
        for i in range(num_things)
    ]
    return DatasetSpec(
        categories=tuple(categories),
        ignore_label=ignore_label,
        label_divisor=label_divisor,
    )


def _stuff_background(
    rng: np.random.Generator, height: int, width: int, stuff_ids: list[int]
) -> np.ndarray:
    """Voronoi partition of the image over one seed per stuff category."""
    rows = rng.uniform(0, height, len(stuff_ids))
    cols = rng.uniform(0, width, len(stuff_ids))
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    best = np.full((height, width), np.inf)
    labels = np.zeros((height, width), dtype=np.int64)
    for sid, r, c in zip(stuff_ids, rows, cols):
        d = (yy - r) ** 2 + (xx - c) ** 2
        closer = d < best
        best[closer] = d[closer]
        labels[closer] = sid
    return labels


def _paint_ellipse(
    rng: np.random.Generator, out: np.ndarray, value: int
) -> None:
    height, width = out.shape
    cy = rng.uniform(4, height - 4)
    cx = rng.uniform(4, width - 4)
    ay = rng.uniform(3, max(4.0, height / 5))
    ax = rng.uniform(3, max(4.0, width / 5))
    theta = rng.uniform(0, np.pi)
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    dy, dx = yy - cy, xx - cx
    u = dy * np.cos(theta) + dx * np.sin(theta)
    v = -dy * np.sin(theta) + dx * np.cos(theta)
    out[(u / ay) ** 2 + (v / ax) ** 2 <= 1.0] = value


def random_scene(
    seed: int,
    min_size: int = 64,
    max_size: int = 256,
    max_instances: int = 20,
    min_stuff: int = 3,
    allow_void: bool = True,
) -> Scene:
    """Generate one ground-truth panoptic scene.

    Retries with derived seeds until the mass centers stay 4 pixels apart on
    the final (post-overlap) map and at least ``min_stuff`` stuff
    categories plus one instance survive.
    """
    spec = make_spec(num_stuff=max(4, min_stuff), num_things=4)
    stuff_ids = sorted(spec.stuff_ids)
    thing_ids = sorted(spec.thing_ids)

    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        height = int(rng.integers(min_size, max_size + 1))
        width = int(rng.integers(min_size, max_size + 1))
        n_instances = int(rng.integers(1, max_instances + 1))

        semantic = _stuff_background(rng, height, width, stuff_ids)
        panoptic = semantic * spec.label_divisor
        for i in range(n_instances):
            category = int(rng.choice(thing_ids))
            _paint_ellipse(rng, panoptic, category * spec.label_divisor + i + 1)
        if allow_void and rng.random() < 0.3:
            vh = int(rng.integers(2, max(3, height // 8)))
            vw = int(rng.integers(2, max(3, width // 8)))
            r0 = int(rng.integers(0, height - vh))
            c0 = int(rng.integers(0, width - vw))
            panoptic[r0 : r0 + vh, c0 : c0 + vw] = spec.void_id

        table = segment_table(panoptic, spec)
        things = table.thing_instance
        centers = list(zip(table.center_rows[things], table.center_cols[things]))
        if not centers:
            continue
        ok = True
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                dr = centers[i][0] - centers[j][0]
                dc = centers[i][1] - centers[j][1]
                if dr * dr + dc * dc < 16.0:  # closer than 4 pixels
                    ok = False
        # Each stuff category has one segment id, with instance part 0.
        stuff_present = spec.table.stuff[table.category] & (table.instance == 0)
        if ok and np.count_nonzero(stuff_present) >= min_stuff:
            return Scene(panoptic=panoptic, spec=spec)
    raise RuntimeError(f"could not generate a valid scene for seed {seed}")


def bench_inputs(
    height: int, width: int, num_centers: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, DatasetSpec]:
    """Synthetic full-size inputs for throughput measurement.

    Returns (semantic labels, heatmap, offsets, spec) with roughly 40%
    thing pixels, ``num_centers`` well-separated peaks above the default
    extraction threshold, and noise offsets. Raises ValueError for a side
    below 8 pixels, where no thing box has a pixel, or negative centers.
    """
    if min(height, width) < 8 or num_centers < 0:
        need = "bench inputs need height and width >= 8 and centers >= 0"
        raise ValueError(f"{need}, got {height}x{width} with {num_centers} centers")
    rng = np.random.default_rng(seed)
    spec = make_spec(num_stuff=11, num_things=8)
    stuff_ids = sorted(spec.stuff_ids)
    thing_ids = sorted(spec.thing_ids)

    semantic = np.full((height, width), stuff_ids[0], dtype=np.int64)
    bands = np.linspace(0, height, len(stuff_ids) + 1).astype(int)
    for sid, r0, r1 in zip(stuff_ids, bands[:-1], bands[1:]):
        semantic[r0:r1] = sid
    target_thing = int(0.4 * height * width)
    painted = 0
    while painted < target_thing:
        h = int(rng.integers(height // 16, height // 4))
        w = int(rng.integers(width // 16, width // 4))
        r0 = int(rng.integers(0, height - h))
        c0 = int(rng.integers(0, width - w))
        semantic[r0 : r0 + h, c0 : c0 + w] = int(rng.choice(thing_ids))
        painted += h * w

    heatmap = (rng.random((height, width), dtype=np.float32) * 0.09).astype(np.float32)
    # Jittered grid keeps peaks clear of each other's NMS windows.
    grid = int(np.ceil(np.sqrt(num_centers * height / width) * width / height)) + 1
    step_r = max(9, height // (grid + 1))
    step_c = max(9, width // (grid + 1))
    placed = 0
    for r in range(step_r // 2, height - 4, step_r):
        for c in range(step_c // 2, width - 4, step_c):
            if placed >= num_centers:
                break
            heatmap[r, c] = 0.5 + 0.5 * rng.random()
            placed += 1
        if placed >= num_centers:
            break
    offsets = rng.normal(0.0, 16.0, size=(height, width, 2)).astype(np.float32)
    return semantic, heatmap, offsets, spec


def bench_logits(panoptic: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    """(H, W, C) float32 logits leaning towards the channel of each pixel's
    category in ``panoptic``: U(0, 3) noise, plus U(1, 3) on that channel.
    VOID pixels lean towards the last channel."""
    channel = spec.table.channel[panoptic // spec.label_divisor]
    channel = np.minimum(channel, spec.num_categories - 1)[..., None]
    rng = np.random.default_rng(0)
    logits = rng.random(panoptic.shape + (spec.num_categories,), dtype=np.float32)
    logits *= np.float32(3.0)
    lean = np.take_along_axis(logits, channel, axis=2)
    lean += rng.uniform(1.0, 3.0, lean.shape).astype(np.float32)
    np.put_along_axis(logits, channel, lean, axis=2)
    return logits
