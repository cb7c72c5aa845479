"""Shared grid conventions, dataset description, and segment tables.

Dense images are plain numpy arrays in row-major layout with the origin at
the top-left corner and coordinates ordered (row, col):

* label maps      -- 2-D integer arrays holding category ids or panoptic ids
* heatmaps        -- 2-D float arrays
* offset fields   -- (H, W, 2) float arrays storing (delta_row, delta_col)
* masks / weights -- 2-D bool / float arrays

Every function in this package treats its array arguments as read-only and
returns freshly allocated outputs, so values can be shared freely between
threads.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Dims",
    "CategorySpec",
    "DatasetSpec",
    "CategoryTable",
    "InstanceCenter",
    "SegmentTable",
    "classify_segments",
    "segment_table",
    "validate",
]

# Violations past this count are folded into a single summary entry.
_MAX_REPORTED = 100

# Threads, the caller included, that share the blocks of _run_blocks at most.
_MAX_BLOCK_THREADS = 4
_block_pool: tuple[int, int, ThreadPoolExecutor] | None = None  # (pid, workers, pool)
# _runs splits arrays of _RUN_SPLIT pixels or more (a full map, not one of
# the merge's 65,536-pixel blocks) into blocks of _RUN_BLOCK pixels.
_RUN_SPLIT = 1 << 20
_RUN_BLOCK = 1 << 18


@dataclass(frozen=True)
class Dims:
    """Grid extent in pixels."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"dims must be >= 1x1, got {self.height}x{self.width}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def area(self) -> int:
        return self.height * self.width

    @classmethod
    def of(cls, array: np.ndarray) -> "Dims":
        return cls(int(array.shape[0]), int(array.shape[1]))


@dataclass(frozen=True)
class CategorySpec:
    """One category of a dataset; ``is_thing`` marks countable instances."""

    id: int
    name: str
    is_thing: bool

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"category id must be >= 0, got {self.id}")


@dataclass(frozen=True)
class DatasetSpec:
    """Category table plus the constants that shape panoptic encoding.

    ``label_divisor`` packs (category, instance) into one integer id,
    ``category * label_divisor + instance`` (instance 0 for stuff);
    ``ignore_label`` marks pixels excluded from training and evaluation;
    ``stuff_area_threshold`` is the minimum pixel area below which stuff
    segments are re-assigned to VOID during post-processing.
    """

    categories: tuple[CategorySpec, ...]
    ignore_label: int
    label_divisor: int = 1000
    stuff_area_threshold: int = 0

    def __post_init__(self):
        # Canonical ascending-id order; construction order never matters.
        object.__setattr__(
            self, "categories", tuple(sorted(self.categories, key=lambda c: c.id))
        )
        if not self.categories:
            raise ValueError("categories: at least one category required")
        if self.label_divisor < 1:
            raise ValueError(f"label_divisor: must be >= 1, got {self.label_divisor}")
        if self.stuff_area_threshold < 0:
            raise ValueError(
                f"stuff_area_threshold: must be >= 0, got {self.stuff_area_threshold}"
            )
        if self.ignore_label < 0:
            raise ValueError(f"ignore_label: must be >= 0, got {self.ignore_label}")
        seen: set[int] = set()
        for cat in self.categories:
            if cat.id in seen:
                raise ValueError(f"categories: duplicate category id {cat.id}")
            if cat.id >= self.label_divisor:
                raise ValueError(
                    f"categories: id {cat.id} >= label_divisor {self.label_divisor}"
                )
            seen.add(cat.id)
        if self.ignore_label in seen:
            raise ValueError(
                f"ignore_label: {self.ignore_label} collides with a category id"
            )

    @cached_property
    def category_ids(self) -> tuple[int, ...]:
        """All category ids in ascending order (the channel order for
        probability and logit grids)."""
        return tuple(sorted(c.id for c in self.categories))

    @cached_property
    def thing_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.categories if c.is_thing)

    @cached_property
    def stuff_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.categories if not c.is_thing)

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    @property
    def void_id(self) -> int:
        """Panoptic id carried by VOID pixels."""
        return self.ignore_label * self.label_divisor

    @cached_property
    def max_known_label(self) -> int:
        return max(max(self.category_ids), self.ignore_label)

    @cached_property
    def table(self) -> "CategoryTable":
        """The category facts as arrays indexed by category id."""
        ids = np.asarray(self.category_ids, dtype=np.int64)
        channel = np.full(self.max_known_label + 1, ids.size, dtype=np.int64)
        channel[ids] = np.arange(ids.size)
        thing = np.zeros(channel.size, dtype=bool)
        thing[sorted(self.thing_ids)] = True
        known = channel < ids.size
        stuff = known & ~thing
        known[self.ignore_label] = True
        return CategoryTable(ids, channel, known, thing, stuff)

    def lookup(self, flags: np.ndarray, categories: np.ndarray) -> np.ndarray:
        """``flags[categories]`` for a boolean field of :attr:`table` and
        integer ids of any value; ids outside [0, max_known_label] read
        False."""
        if categories.size == 0 or (
            categories.min() >= 0 and categories.max() <= self.max_known_label
        ):
            return flags[categories]
        inside = (categories >= 0) & (categories <= self.max_known_label)
        return inside & flags[np.where(inside, categories, 0)]

    def check_known(self, categories: np.ndarray, name: str) -> None:
        """Raise ValueError naming ``name`` unless every id in ``categories``
        is a spec category or the ignore label."""
        if not self.lookup(self.table.known, categories).all():
            raise ValueError(f"{name} contains ids unknown to the dataset spec")


class CategoryTable(NamedTuple):
    """A spec's category facts; every field but ``ids`` is indexed by
    category id in [0, max_known_label]."""

    ids: np.ndarray  # (C,) the spec's category ids in channel order
    channel: np.ndarray  # channel of each id; C at the ignore label and at gaps
    known: np.ndarray  # bool: a spec category or the ignore label
    thing: np.ndarray  # bool: a thing category
    stuff: np.ndarray  # bool: a stuff category


def classify_segments(ids: np.ndarray, spec: DatasetSpec, name: str) -> tuple:
    """Category, instance part, and the thing-instance (instance part >= 1),
    crowd (instance part 0) and VOID flags of panoptic ids. Raises
    ValueError naming ``name``, the map of the ids, if a category is unknown
    to the spec."""
    category, instance = np.divmod(ids.astype(np.int64, copy=False), spec.label_divisor)
    spec.check_known(category, name)
    thing = spec.table.thing[category]
    void = category == spec.ignore_label
    return category, instance, thing & (instance >= 1), thing & (instance == 0), void


class SegmentTable(NamedTuple):
    """Every segment of one panoptic map, from a single pass over its
    pixels; the last five fields are :func:`classify_segments`."""

    ids: np.ndarray  # ascending segment ids
    inverse: np.ndarray  # (H, W) index into ids of each pixel
    areas: np.ndarray  # pixel counts
    center_rows: np.ndarray  # mass centers: mean pixel coordinates
    center_cols: np.ndarray
    category: np.ndarray
    instance: np.ndarray
    thing_instance: np.ndarray
    crowd: np.ndarray
    void: np.ndarray


def _run_edges(flats: tuple, width: int, lo: int, hi: int) -> np.ndarray:
    """The pixels i in [lo, hi) at which a run of :func:`_runs` starts,
    then the array size if ``hi`` is it: the end of the last run."""
    size = flats[0].size
    # edge[k]: a run starts at pixel lo + k, or lo + k == size.
    edge = np.empty(hi - lo + (hi == size), dtype=bool)
    first = max(lo, 1)  # pixel 0 has no left neighbour
    np.not_equal(flats[0][first:hi], flats[0][first - 1 : hi - 1], out=edge[first - lo : hi - lo])
    for flat in flats[1:]:
        edge[first - lo : hi - lo] |= flat[first:hi] != flat[first - 1 : hi - 1]
    step = width or max(size, 1)
    edge[-lo % step :: step] = True  # pixel 0, each row start, the end
    edges = np.flatnonzero(edge)
    edges += lo
    return edges


def _runs(*flats: np.ndarray, width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of the 1-D arrays ``flats`` (all of
    one size): a run ends where any of them changes value and, when
    ``width`` is set, at every multiple of ``width`` (each row start).
    Arrays of ``_RUN_SPLIT`` pixels or more are scanned in contiguous blocks
    of ``_RUN_BLOCK`` on :func:`_run_blocks`; the edges are the same."""
    size = flats[0].size
    if size < _RUN_SPLIT:
        edges = _run_edges(flats, width, 0, size)
    else:
        parts = [None] * -(-size // _RUN_BLOCK)

        def block_body(j: int) -> None:
            parts[j] = _run_edges(flats, width, j * _RUN_BLOCK, min(size, (j + 1) * _RUN_BLOCK))

        _run_blocks(block_body, len(parts))
        edges = np.concatenate(parts)
    return edges[:-1], np.diff(edges)


def _unique_index(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D array, bit for
    bit. Integer values in [0, max(bound, 65536)) are found with one
    ``np.bincount`` over that range and indexed through a table, or are
    their own index when every value in [0, max] occurs (then the index is
    ``values`` itself if it is intp); other arrays take the ``np.unique``
    sort, which also bounds the table's memory."""
    if not (
        np.issubdtype(values.dtype, np.integer)
        and values.size
        and values.min() >= 0
        and values.max() < max(bound, 1 << 16)
    ):
        return np.unique(values, return_inverse=True)
    dense = values.astype(np.intp, copy=False)
    present = np.flatnonzero(np.bincount(dense))
    if present.size == present[-1] + 1:  # every value in [0, max]: no table
        return present.astype(values.dtype), dense
    table = np.zeros(int(present[-1]) + 1, dtype=np.intp)
    table[present] = np.arange(present.size)
    return present.astype(values.dtype), np.take(table, dense)


def _sums(index: np.ndarray, weights, size: int) -> np.ndarray:
    """Per-index sums of int64 ``weights`` (counts without), as int64:
    ``np.add.at`` adds them exactly, faster than a float64 ``np.bincount``."""
    if weights is None:
        return np.bincount(index, minlength=size)
    sums = np.zeros(size, dtype=np.int64)
    np.add.at(sums, index, weights)
    return sums


def _block_threads() -> int:
    """min(_MAX_BLOCK_THREADS, CPUs this process may run on)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_BLOCK_THREADS, cpus))


def _run_blocks(body, count: int) -> None:
    """``body(j)`` for every j in range(count), on T = min(W, count)
    threads, W = ``_block_threads()``: the caller takes j = 0 (mod T), as a
    worker thread would get its own malloc arena, and a pool of W - 1
    threads the other residues. Each ``body(j)`` must write only its own
    part of the output, so the bytes do not depend on T. Every block runs
    under the caller's ``np.errstate``. A thread stops at its first failing
    block; once all are done, the exception of the lowest failing j is
    raised, the one the serial loop raises."""
    global _block_pool
    workers = _block_threads() - 1
    threads = min(workers + 1, count)
    if threads <= 1:
        for j in range(count):
            body(j)
        return
    # Made on first use, not at import; and anew in a forked child, where
    # the parent's pool would count its vanished threads as idle and hang.
    # A call racing this one may make a pool of its own; that pool's
    # threads exit once its tasks are done and it is dropped.
    pool = _block_pool
    if pool is None or pool[:2] != (os.getpid(), workers):
        pool = _block_pool = (os.getpid(), workers, ThreadPoolExecutor(workers))
    failures: list[tuple[int, Exception]] = []

    def residue(first: int) -> None:
        for j in range(first, count, threads):
            try:
                body(j)
            except Exception as e:
                failures.append((j, e))
                return

    # numpy keeps ``np.errstate`` in a context variable, which a pool
    # thread does not inherit: each residue runs in a copy of the caller's.
    futures = [
        pool[2].submit(contextvars.copy_context().run, residue, r) for r in range(1, threads)
    ]
    try:
        residue(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()  # what residue does not catch, such as SystemExit
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def segment_table(panoptic: np.ndarray, spec: DatasetSpec) -> SegmentTable:
    """The :class:`SegmentTable` of a 2-D panoptic map. Raises ValueError if
    an id's category is unknown to the spec."""
    height, width = panoptic.shape
    flat = panoptic.reshape(-1)
    starts, lengths = _runs(flat, width=width)
    ids, index = _unique_index(flat[starts], flat.size)
    classes = classify_segments(ids, spec, "panoptic map")
    areas = _sums(index, lengths, ids.size)
    # Each run lies in one row: its coordinate sums are row * L and
    # L * c0 + L (L - 1) / 2. The sums are exact, so sum / count is numpy's
    # mean bit for bit.
    row, col = np.divmod(starts, max(width, 1))
    rows = _sums(index, row * lengths, ids.size)
    cols = _sums(index, col * lengths + lengths * (lengths - 1) // 2, ids.size)
    inverse = np.repeat(index, lengths).reshape(height, width)
    return SegmentTable(ids, inverse, areas, rows / areas, cols / areas, *classes)


@dataclass(frozen=True)
class InstanceCenter:
    """A detected or annotated instance center at sub-pixel precision."""

    row: float
    col: float
    score: float = 1.0

    def __post_init__(self):
        if self.score < 0:
            raise ValueError(f"center score must be >= 0, got {self.score}")


def _report(violations: list[str], mask: np.ndarray, describe) -> None:
    idx = np.flatnonzero(mask)
    for i in idx[:_MAX_REPORTED]:
        violations.append(describe(int(i)))
    if idx.size > _MAX_REPORTED:
        violations.append(f"... and {idx.size - _MAX_REPORTED} more")


def _panoptic_faults(labels: np.ndarray, spec: DatasetSpec) -> tuple:
    """Category and instance part of int64 panoptic ids, and where an id has
    an unknown category, a stuff category with a nonzero instance part, or
    the ignore label with a nonzero instance part."""
    category = labels // spec.label_divisor
    instance = labels % spec.label_divisor
    return (
        category,
        instance,
        ~spec.lookup(spec.table.known, category),
        spec.lookup(spec.table.stuff, category) & (instance != 0),
        (category == spec.ignore_label) & (instance != 0),
    )


def validate(
    array: np.ndarray,
    spec: DatasetSpec,
    kind: str,
    encoded_target: bool = False,
) -> list[str]:
    """Check an array against the dataset spec; returns a violation list.

    ``kind`` is one of ``semantic``, ``panoptic``, ``heatmap``, ``offsets``,
    ``weights``. An empty list means the array is well-formed. This is a
    diagnostic: it never raises for content problems, only reports them.
    ``encoded_target`` additionally enforces the [0, 1] range that encoded
    heatmap targets must satisfy (predicted heatmaps may be arbitrary reals).
    """
    v: list[str] = []
    if kind in ("semantic", "panoptic", "heatmap", "weights"):
        if array.ndim != 2:
            return [f"{kind}: expected 2-D array, got {array.ndim}-D"]
    elif kind == "offsets":
        if array.ndim != 3 or array.shape[2] != 2:
            return [f"offsets: expected (H, W, 2) array, got shape {array.shape}"]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if array.shape[0] < 1 or array.shape[1] < 1:
        return [f"{kind}: empty dims {array.shape}"]

    flat = array.reshape(array.shape[0] * array.shape[1], -1)
    if kind in ("semantic", "panoptic"):
        if not np.issubdtype(array.dtype, np.integer):
            return [f"{kind}: expected integer dtype, got {array.dtype}"]
        labels = flat[:, 0].astype(np.int64, copy=False)
        if kind == "semantic":
            known = spec.lookup(spec.table.known, labels)
            _report(v, ~known, lambda i: f"{kind}: pixel {i}: unknown category id {int(labels[i])}")
        elif any(f.any() for f in _panoptic_faults(labels[_runs(labels)[0]], spec)[2:]):
            # Each run of equal ids is checked once; pixels are searched
            # only when some id is at fault.
            category, instance, unknown, nonzero_stuff, void_inst = _panoptic_faults(
                labels, spec
            )
            _report(
                v,
                unknown,
                lambda i: f"panoptic: pixel {i}: unknown category id {int(category[i])}",
            )
            _report(
                v,
                nonzero_stuff,
                lambda i: f"panoptic: pixel {i}: stuff category {int(category[i])} "
                f"with nonzero instance {int(instance[i])}",
            )
            _report(
                v,
                void_inst,
                lambda i: f"panoptic: pixel {i}: VOID with nonzero instance {int(instance[i])}",
            )
    else:
        if not np.issubdtype(array.dtype, np.floating):
            return [f"{kind}: expected float dtype, got {array.dtype}"]
        finite = True  # fast path: only an array holding NaN or inf is searched
        if not np.isfinite(array).all():
            finite = np.isfinite(flat).all(axis=1)
            _report(v, ~finite, lambda i: f"{kind}: pixel {i}: non-finite value")
        if kind == "heatmap" and encoded_target:
            values = flat[:, 0].astype(np.float64, copy=False)
            out = ((values < 0.0) | (values > 1.0)) & finite
            _report(v, out, lambda i: f"heatmap: pixel {i}: value {values[i]} outside [0, 1]")
        if kind == "weights":
            values = flat[:, 0].astype(np.float64, copy=False)
            neg = (values < 0.0) & finite
            _report(v, neg, lambda i: f"weights: pixel {i}: negative weight {values[i]}")
    return v
