"""Inference pipeline: peak extraction, offset grouping, and label fusion.

:func:`panoptic_inference` runs the five stages that ``bench`` times:

* inputs: each input checked once, the heatmap and the offsets in blocks on
  ``core._run_blocks``; a probability grid reduced to labels, and the label
  ids checked once per run by ``thing_mask_from_semantic``
* nms: the centers of ``keypoint_nms`` + ``extract_centers``, searched
  among the pixels above the threshold only
* grouping: ``group_pixels``, two passes over blocks on the runner around
  one listing of the landing cells hit
* merge: ``merge_panoptic``, two passes over blocks on the runner; its
  lookup table also voids small stuff, counted over runs of equal (label,
  instance) pairs
* scores: on a label map, each instance's votes for its category over its
  area; on probabilities, ``_class_scores`` (members found per run of the
  grouping's instance ids, over the record's area); then the score mode

Everything is integer- or comparison-based, so outputs are bit-identical
across runs and thread counts. Instance indices are 1-based positions in
the extracted center list; 0 means "no instance". Pixels of a thing
category that no center claims become VOID (ignore_label * label_divisor).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import core
from .core import DatasetSpec, InstanceCenter, _run_blocks, _runs, _sums, _unique_index

__all__ = [
    "PostprocParams",
    "InstanceRecord",
    "PanopticResult",
    "keypoint_nms",
    "extract_centers",
    "thing_mask_from_semantic",
    "group_pixels",
    "merge_panoptic",
    "panoptic_inference",
]

SCORE_MODES = ("objectness", "class", "product")

# group_pixels prunes centers per square cell of landing points, _GROUP_TILE
# pixels a side; a coarse cell of _GROUP_COARSE x _GROUP_COARSE cells seeds
# its cells' lists. Per-pixel arrays live one block of _GROUP_BLOCK pixels
# at a time: whole-image ones added 25 MiB to fuse's peak RSS, and blocks
# of 2**17 on two threads broke the 12 MiB tracemalloc bound. The cells hit
# are listed _GROUP_LIST at a time: all at once took 22 MiB at 1025x2049.
_GROUP_TILE = 8
_GROUP_COARSE = 8
_GROUP_BLOCK = 1 << 16
_GROUP_LIST = 2048

# Peaks are searched among the pixels above the center threshold while
# (candidates + _PEAK_OFFSET_COST) x kernel**2 stays within _PEAK_DENSITY
# times the pixel count; denser heatmaps take the full window-max filter,
# which costs about as much as the search at this density. Each window
# offset costs three numpy calls however few the candidates: ~2 us, some
# 400 candidates' reads on a 2-core VM. So one candidate on a 1025x2049 map
# takes the filter from kernel 145 on (at kernel 701 the search took
# 1.15 s, the filter 0.04 s). Small maps take the filter at any kernel; the
# oracles patch this cost to reach the search there.
_PEAK_DENSITY = 4
_PEAK_OFFSET_COST = 400

# Pixels per block of the pass over (H, W, C) probabilities. Its (C, block)
# channel-major copy (1.2 MiB of float32 at C = 19) and scratch fit a 2 MiB
# L2 cache; 4096 took ~20% longer at 1025x2049, through per-call overhead.
_PROB_BLOCK = 16384


@dataclass(frozen=True)
class PostprocParams:
    """Inference-time knobs. ``stuff_area_threshold`` of None defers to the
    dataset spec; stuff segments below it become VOID."""

    nms_kernel: int = 7
    center_threshold: float = 0.1
    top_k: int = 200
    stuff_area_threshold: int | None = None
    score_mode: str = "product"

    def __post_init__(self):
        if self.nms_kernel < 1 or self.nms_kernel % 2 == 0:
            raise ValueError(f"nms_kernel must be odd and >= 1, got {self.nms_kernel}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 <= self.center_threshold < np.inf:  # NaN fails too
            raise ValueError(
                f"center_threshold must be finite and >= 0, got {self.center_threshold}"
            )
        if self.stuff_area_threshold is not None and self.stuff_area_threshold < 0:
            raise ValueError(f"stuff_area_threshold must be >= 0, got {self.stuff_area_threshold}")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")


@dataclass(frozen=True)
class InstanceRecord:
    """One fused instance. ``instance_index`` is the 1-based center index
    and doubles as the instance part of the panoptic id."""

    instance_index: int
    category: int
    area: int
    score: float = 0.0
    center: InstanceCenter | None = None


@dataclass(frozen=True)
class PanopticResult:
    """Fused panoptic map (encoded ids) plus per-instance records.
    ``category_votes``, from ``merge_panoptic``, holds each record's votes
    for its category: its pixels whose semantic label is that category."""

    panoptic: np.ndarray
    instances: tuple[InstanceRecord, ...]
    category_votes: np.ndarray | None = None


def keypoint_nms(heatmap: np.ndarray, kernel: int = 7) -> np.ndarray:
    """Suppress every pixel that is not the maximum of its local window.

    A pixel survives (keeps its value) iff it equals the maximum over the
    kernel x kernel window centered on it, with windows clipped at borders;
    plateau pixels all survive. Everything else becomes 0.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")
    if heatmap.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {heatmap.shape}")
    if kernel == 1:
        return heatmap.copy()
    from scipy import ndimage  # ~0.25 s to import: only dense heatmaps reach here

    window_max = ndimage.maximum_filter(
        heatmap, size=kernel, mode="constant", cval=-np.inf
    )
    return np.where(heatmap == window_max, heatmap, heatmap.dtype.type(0))


def extract_centers(
    nms_heatmap: np.ndarray, threshold: float = 0.1, top_k: int = 200
) -> list[InstanceCenter]:
    """Surviving peaks strictly above ``threshold``, strongest first.

    Ties in value are ordered row-major. At most ``top_k`` centers are
    returned; coordinates are integer pixel positions, scores the heatmap
    values.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    flat = nms_heatmap.reshape(-1)
    candidates = np.flatnonzero(flat > threshold)
    return _ordered_centers(candidates, flat[candidates], nms_heatmap.shape[1], top_k)


def _ordered_centers(
    candidates: np.ndarray, values: np.ndarray, width: int, top_k: int
) -> list[InstanceCenter]:
    """The centers at the flat indices ``candidates`` of a map ``width``
    pixels wide, scored by ``values``: strongest first, ties row-major, at
    most ``top_k``."""
    values = values.astype(np.float64)
    order = np.lexsort((candidates, -values))[:top_k]
    return [
        InstanceCenter(
            row=float(candidates[i] // width),
            col=float(candidates[i] % width),
            score=float(values[i]),
        )
        for i in order
    ]


def _peak_centers(
    heatmap: np.ndarray, kernel: int, threshold: float, top_k: int
) -> list[InstanceCenter]:
    """``extract_centers(keypoint_nms(heatmap, kernel), threshold, top_k)``
    for a finite heatmap and ``threshold >= 0``, computed at the pixels above
    the threshold only.

    Only those pixels can become centers, and one survives iff no pixel of
    its clipped window is larger. The windows are read from the map one
    square ring of offsets at a time, nearest first; a candidate that meets
    a larger value is dropped before the next ring. A candidate within
    ``kernel // 2`` of an edge reads its window through row and column
    indices clipped to the grid: they repeat pixels of its clipped window
    and reach all of them, so the max is that of ``maximum_filter(cval=
    -inf)``. The survivors are ordered as ``extract_centers`` orders them.
    Heatmaps with too many candidates for their kernel (see
    ``_PEAK_DENSITY``) or of a non-float dtype take the full filter instead.
    """
    flat = heatmap.reshape(-1)
    candidates = np.flatnonzero(flat > threshold)
    if not candidates.size:
        return []
    if (
        heatmap.dtype.kind != "f"
        or (candidates.size + _PEAK_OFFSET_COST) * kernel * kernel
        > _PEAK_DENSITY * heatmap.size
    ):
        return extract_centers(keypoint_nms(heatmap, kernel), threshold, top_k)
    height, width = heatmap.shape
    radius = kernel // 2
    rows = candidates // width
    cols = candidates - rows * width
    inner = (rows >= radius) & (rows < height - radius)
    inner &= (cols >= radius) & (cols < width - radius)
    peaks = []
    for group in (inner, ~inner):
        at, row, col = candidates[group], rows[group], cols[group]
        values = flat[at]
        for ring in range(1, radius + 1):
            if not at.size:
                break
            # The square ring: its top and bottom rows, then its side columns.
            side = range(-ring, ring + 1)
            steps = [(edge, d) for edge in (-ring, ring) for d in side]
            steps += [(d, edge) for edge in (-ring, ring) for d in side[1:-1]]
            ring_max = None
            for dr, dc in steps:
                if group is inner:
                    window = flat[at + (dr * width + dc)]
                else:
                    clipped = np.clip(row + dr, 0, height - 1)
                    clipped *= width
                    clipped += np.clip(col + dc, 0, width - 1)
                    window = flat[clipped]
                if ring_max is None:
                    ring_max = window
                else:
                    np.maximum(ring_max, window, out=ring_max)
            peak = ring_max <= values
            at, row, col, values = at[peak], row[peak], col[peak], values[peak]
        peaks.append((at, values))
    at, values = (np.concatenate(part) for part in zip(*peaks))
    return _ordered_centers(at, values, width, top_k)


def thing_mask_from_semantic(semantic: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    """True exactly where the semantic label is a thing category. Raises
    ValueError naming the ``semantic map`` if a label is neither a spec
    category nor the ignore label."""
    flat = semantic.reshape(-1)
    starts, lengths = _runs(flat)
    values = flat[starts]
    spec.check_known(values, "semantic map")
    return np.repeat(spec.table.thing[values], lengths).reshape(semantic.shape)


def _tile_candidates(
    allowed: np.ndarray, box: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (cell, center) pairs, among the ``allowed`` ones of a (cells, K)
    mask with a center in every row, whose center can be nearest to a point
    of the cell's closed box: ``box`` is (2, cells, 2), per axis (rows
    first) [low, high], half-infinite outside the grid; ``centers`` is
    (2, K). ``lo`` and ``hi``, the squared distances to the box and to its
    far corner, are computed like the grouping's ``(r - c)**2 + (col -
    cc)**2``. Rounding is monotone, so a center whose ``lo`` exceeds the
    least ``hi`` of its cell can neither win nor tie anywhere in it."""
    owner, k = allowed.nonzero()
    counts = allowed.sum(axis=1)
    box, c = box.take(owner, 1), centers.take(k, 1)
    near = np.minimum(np.maximum(c, box[..., 0]), box[..., 1]) - c
    far = np.maximum(c - box[..., 0], box[..., 1] - c)  # rounding is symmetric
    near *= near
    far *= far
    hi = np.minimum.reduceat(far[0] + far[1], counts.cumsum() - counts)
    keep = near[0] + near[1] <= hi.repeat(counts)
    return owner[keep], k[keep]


@lru_cache(maxsize=16)
def _axis_cells(size: int, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis' cell boxes as [low, high] rows, each cell's coarse cell and
    the coarse boxes (cached: read-only). The edges -inf, 0, side, ...,
    n * side, inf give n cells over [0, size) and a half-infinite one on
    each side. A coarse cell is an outside cell or spans _GROUP_COARSE inner
    cells, up to n * side; with at most _GROUP_COARSE, one unbounded one."""
    n = -(-size // side)
    edges = np.r_[-np.inf, np.arange(n + 1) * float(side), np.inf]
    bounds = np.r_[0, 1 : n + 1 : _GROUP_COARSE, n + 1, n + 2]
    bounds = bounds[[0, -1]] if n <= _GROUP_COARSE else bounds
    cached = (
        np.column_stack((edges[:-1], edges[1:])),
        np.searchsorted(bounds, np.arange(n + 2), "right") - 1,
        np.column_stack((edges[bounds[:-1]], edges[bounds[1:]])),
    )
    for array in cached:
        array.flags.writeable = False
    return cached


def _landing_cells(
    land: np.ndarray, row_box: np.ndarray, col_box: np.ndarray, side: int
) -> np.ndarray:
    """Flat index, row-major, of the cell whose closed box holds each finite
    landing point of ``land`` (2, points). ``floor(x / side)`` is exact for
    an integer side: a float x below an edge k * side that is no power of
    two lies an ulp of it or more below, over half an ulp of k after the
    division, so rounding cannot reach k (a power of two divides exactly).
    An x within side * 2**-1075 below 0 underflows to -0.0 and takes cell 0,
    whose box holds 0: x - c rounds to -c, or both squares underflow to 0,
    so its distances are those of 0 and the cell's bounds hold."""
    index = land / side
    np.floor(index, out=index)
    np.maximum(index, -1, out=index)
    np.minimum(index, [[len(row_box) - 2], [len(col_box) - 2]], out=index)
    index[0] *= len(col_box)
    index[0] += index[1] + (len(col_box) + 1)
    return index[0].astype(np.intp)


def group_pixels(
    centers: Sequence[InstanceCenter],
    offsets: np.ndarray,
    thing_mask: np.ndarray,
) -> np.ndarray:
    """Assign every thing pixel to its nearest center after offset shift.

    Each pixel moves by its predicted offset; the instance index is 1 plus
    the index of the center minimizing squared Euclidean distance to the
    landing point, ties going to the lowest center index. Non-thing pixels
    and pixels with no centers available get 0. Returns int32 (H, W).

    The search is exact but pruned: a landing point meets only the
    candidates of its cell (see :func:`_tile_candidates`), a square of side
    _GROUP_TILE or a half-infinite cell beside the grid. Blocks of whole
    rows run twice on ``core._run_blocks``. The first pass checks the
    landing points, writes each pixel's cell + 1 into the output and marks
    the cells hit; every cell hit is then listed once, from its coarse
    cell's list, _GROUP_LIST cells at a time. The second pass reads the
    lists: a one-candidate cell gives its index, and only the pixels of the
    other cells recompute their landing points and the distances. Each
    block writes only its own rows. Raises ValueError if a thing pixel's
    landing point or a center is not finite.
    """
    if offsets.ndim != 3 or offsets.shape[2] != 2:
        raise ValueError(f"offsets must be (H, W, 2), got shape {offsets.shape}")
    if thing_mask.shape != offsets.shape[:2]:
        raise ValueError(
            f"mask shape {thing_mask.shape} != offset grid {offsets.shape[:2]}"
        )
    height, width = thing_mask.shape
    instance_ids = np.zeros((height, width), dtype=np.int32)
    if not centers:
        return instance_ids
    center_coords = np.array([(c.row, c.col) for c in centers], dtype=np.float64).T
    if not np.isfinite(center_coords).all():
        raise ValueError("center coordinates must be finite")
    side = _GROUP_TILE
    row_box, row_coarse, row_coarse_box = _axis_cells(height, side)
    col_box, col_coarse, col_coarse_box = _axis_cells(width, side)
    # Blocks of whole rows of about _GROUP_BLOCK pixels (at least one row).
    block_rows = max(1, _GROUP_BLOCK // max(width, 1))

    def landing(rows: slice, at: np.ndarray) -> np.ndarray:
        """The (2, len(at)) landing points of the pixels ``at`` of ``rows``."""
        src_row = at // width  # floor division by a scalar is fast; divmod is not
        land = np.empty((2, at.size))
        np.add(src_row, rows.start, out=land[0])
        np.subtract(at, src_row * width, out=land[1])
        band = offsets[rows].reshape(-1, 2)
        land[0] += band[:, 0].take(at)
        land[1] += band[:, 1].take(at)
        return land

    def land_body(rows: slice) -> np.ndarray | None:
        at = np.flatnonzero(thing_mask[rows])
        if not at.size:
            return None
        land = landing(rows, at)
        if not np.isfinite(land).all():
            raise ValueError("offsets give non-finite landing points")
        if len(centers) == 1:
            instance_ids[rows].reshape(-1)[at] = 1
            return None
        cell = _landing_cells(land, row_box, col_box, side)
        cell += 1
        instance_ids[rows].reshape(-1)[at] = cell
        hit = np.zeros(len(row_box) * len(col_box) + 1, dtype=bool)
        hit[cell] = True
        return hit

    marks = [hit for hit in _run_blocks(land_body, height, block_rows) if hit is not None]
    if not marks:  # one center, or no thing pixel
        return instance_ids
    hit = np.flatnonzero(np.logical_or.reduce(marks))

    # A coarse cell's list is its row; a lone coarse cell keeps every center.
    coarse_cells = len(row_coarse_box) * len(col_coarse_box)
    coarse_keep = np.full((coarse_cells, len(centers)), coarse_cells == 1)
    # At cell + 1 for each cell hit: its one candidate's instance index or
    # minus its candidate count; the candidates sit from ``start`` on in
    # ``store``, lowest center index first. Entry 0, for the pixels off the
    # things, stays 0.
    code = np.zeros(len(row_box) * len(col_box) + 1, dtype=np.int32)
    start = np.zeros(code.size, dtype=np.intp)
    stores, listed = [], 0
    for first in range(0, hit.size, _GROUP_LIST):
        new = hit[first : first + _GROUP_LIST]
        # List the new cells, and their coarse cells first.
        row, col = np.divmod(new - 1, len(col_box))
        parent = row_coarse.take(row) * len(col_coarse_box) + col_coarse.take(col)
        unlisted = ~coarse_keep.take(parent, 0).any(axis=1)
        if unlisted.any():
            need = np.unique(parent[unlisted])
            prow, pcol = np.divmod(need, len(col_coarse_box))
            box = np.array((row_coarse_box.take(prow, 0), col_coarse_box.take(pcol, 0)))
            every = np.ones((need.size, len(centers)), dtype=bool)
            owner, k = _tile_candidates(every, box, center_coords)
            coarse_keep[need[owner], k] = True
        box = np.array((row_box.take(row, 0), col_box.take(col, 0)))
        owner, kept = _tile_candidates(coarse_keep.take(parent, 0), box, center_coords)
        counts = np.bincount(owner, minlength=new.size)
        offset = counts.cumsum() - counts
        start[new] = offset + listed
        code[new] = np.where(counts > 1, -counts, kept[offset] + 1)
        stores.append(kept)
        listed += kept.size
    store = np.concatenate(stores)

    def resolve_body(rows: slice) -> None:
        out = instance_ids[rows].reshape(-1)
        ids = code.take(out)
        # One candidate: its index is taken above. More: one (pixels, k)
        # distance array per count k, whose first minimum is the lowest index.
        todo = np.flatnonzero(ids < 0)
        if todo.size:
            todo = todo[ids[todo].argsort()]
            sizes, slot = -ids[todo], start.take(out.take(todo))
            land = landing(rows, todo)
            cuts = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), todo.size]
            for lo, hi in zip(cuts, cuts[1:]):
                cand = store.take(slot[lo:hi, None] + np.arange(sizes[lo]))
                dist = land[0, lo:hi, None] - center_coords[0].take(cand)
                dist *= dist
                other = land[1, lo:hi, None] - center_coords[1].take(cand)
                other *= other
                dist += other
                slot[lo:hi] += dist.argmin(axis=1)
            ids[todo] = store.take(slot) + 1
        out[...] = ids

    _run_blocks(resolve_body, height, block_rows)
    return instance_ids


def merge_panoptic(
    semantic: np.ndarray,
    instance_ids: np.ndarray,
    spec: DatasetSpec,
    stuff_area_threshold: int = 0,
) -> PanopticResult:
    """Fuse semantic labels with instance indices by majority vote.

    Each instance takes the most frequent thing category among its pixels
    (ties to the smallest category id) and is encoded as
    category * label_divisor + instance_index. Stuff pixels keep their
    semantic category with instance part 0, unless that category covers
    fewer than ``stuff_area_threshold`` stuff pixels of the fused map; those,
    and thing-category pixels left ungrouped, become VOID. Raises ValueError
    naming the ``semantic map`` if a label is not a spec category or the
    ignore label, or if the labels or instance ids are not integers, or the
    instance ids are negative or not below ``label_divisor``.

    Counts runs of equal (label, instance) pairs by length, block by block:
    a run's code is its instance's row among the ids in the block and its
    label's channel. Labels are looked up shifted by one in a channel table
    whose first and last entries and gaps are a sink for unknown ids, with
    ``np.take``'s clipping: an id past the table clips to its end, and a
    negative one (a uint64 id from 2**63 on turns negative as intp, and
    int64's largest wraps when shifted) to its start. The block histograms
    add up to one with a row per id present; the map repeats each run's
    entry of one lookup table. Both passes over blocks of ``core._BLOCK``
    pixels run on ``core._run_blocks``, each block writing only its own
    part of the map. The result's ``category_votes`` are the histogram's
    counts of each record's category.
    """
    if semantic.shape != instance_ids.shape:
        raise ValueError(
            f"semantic shape {semantic.shape} != instance shape {instance_ids.shape}"
        )
    if not np.issubdtype(semantic.dtype, np.integer):
        raise ValueError(f"semantic label map must hold integer ids, got {semantic.dtype}")
    if not np.issubdtype(instance_ids.dtype, np.integer):
        raise ValueError(f"instance ids must be integers, got {instance_ids.dtype}")
    table, divisor, num = spec.table, spec.label_divisor, spec.num_categories
    width = num + 2  # channels, then sinks for the ignore label and for unknown ids
    channel = np.pad(np.where(table.known, table.channel, num + 1), 1, constant_values=num + 1)
    channel = channel.astype(np.min_scalar_type(width))
    flat_semantic, flat_instance = semantic.reshape(-1), instance_ids.reshape(-1)
    block = core._BLOCK

    def vote_body(part: slice) -> tuple:
        labels, instance = flat_semantic[part], flat_instance[part]
        starts, lengths = _runs(labels, instance)
        # Codes built in place on the fresh row index.
        present, codes = _unique_index(np.take(instance, starts), instance.size)
        codes *= width
        shifted = np.add(np.take(labels, starts), 1, dtype=np.intp, casting="unsafe")
        codes += np.take(channel, shifted, mode="clip")
        votes = _sums(codes, lengths, present.size * width).reshape(-1, width)
        narrow = np.min_scalar_type(votes.size), np.min_scalar_type(block)
        return present, votes, codes.astype(narrow[0]), lengths.astype(narrow[1])

    # An empty map is one empty block, so the histogram has its columns.
    blocks = _run_blocks(vote_body, max(flat_semantic.size, 1), block)
    present, row = np.unique(np.concatenate([b[0] for b in blocks]), return_inverse=True)
    votes_full = np.zeros((present.size, width), dtype=np.int64)
    np.add.at(votes_full, row, np.concatenate([b[1] for b in blocks]))
    if votes_full[:, -1].any():
        raise ValueError("semantic map contains ids unknown to the dataset spec")
    if present.size and not 0 <= present[0] <= present[-1] < divisor:
        bad = present[0] if present[0] < 0 else present[-1]
        raise ValueError(f"instance ids must be in [0, label_divisor {divisor}), got {bad}")
    # Majority vote counts thing categories only; ties go to the smallest id.
    thing = table.thing[table.ids]
    votes = votes_full[:, :num] * thing
    grouped = present > 0  # instance 0 is "no instance"
    category = np.where(grouped & votes.any(axis=1), table.ids[votes.argmax(axis=1)], -1)

    # One code per (instance row, channel): instances that won a category
    # encode as category * divisor + index, the others and instance 0 as
    # VOID. Instance 0's row holds every stuff pixel of the fused map, so its
    # counts are the stuff areas: stuff at or above the threshold takes its
    # code there; thing and ignore labels, and smaller stuff, stay VOID.
    pan_lut = np.empty((present.size, width), dtype=np.int64)
    row_code = category * divisor + present.astype(np.int64)
    pan_lut[:] = np.where(category >= 0, row_code, spec.void_id)[:, None]
    kept = ~thing & (votes_full[~grouped, :num].sum(axis=0) >= stuff_area_threshold)
    pan_lut[~grouped, :num] = np.where(kept, table.ids * divisor, spec.void_id)
    panoptic = np.empty(flat_semantic.size, dtype=np.int64)
    block_rows = np.split(row, np.cumsum([b[0].size for b in blocks])[:-1])

    def paint_body(part: slice) -> None:
        j = part.start // block
        _, _, codes, lengths = blocks[j]
        panoptic[part] = np.repeat(np.take(pan_lut[block_rows[j]], codes), lengths)

    _run_blocks(paint_body, flat_semantic.size, block)

    # Every pixel of a claimed instance carries its code, so the histogram
    # row sums are exact areas.
    recorded = np.flatnonzero(category >= 0)
    areas = votes_full.sum(axis=1)
    records = tuple(
        InstanceRecord(instance_index=k, category=c, area=a)
        for k, c, a in zip(
            present[recorded].tolist(), category[recorded].tolist(), areas[recorded].tolist()
        )
    )
    category_votes = votes_full[recorded, table.channel[category[recorded]]]
    return PanopticResult(panoptic.reshape(semantic.shape), records, category_votes)


def _class_scores(
    result: PanopticResult,
    instance_ids: np.ndarray,
    semantic_probs: np.ndarray,
    spec: DatasetSpec,
) -> dict[int, float]:
    """Mean probability of each instance's voted category over its pixels,
    on a (H, W, C) probability grid (channels in ascending category-id
    order), for the ``merge_panoptic`` result of ``instance_ids``. The merge
    paints every pixel of a claimed instance with its code, so the members
    of instance k are the pixels where ``instance_ids`` is k, and its
    record's area counts them. They are found per run of ``instance_ids``:
    a run's index looks up its category's channel, -1 for an index without
    a record. The member rows are expanded from the runs in ascending order,
    so they are read and summed in row-major order.
    """
    if not result.instances:
        return {}
    flat = instance_ids.reshape(-1)
    starts, lengths = _runs(flat)
    values = np.take(flat, starts)
    channel = np.full(int(values.max()) + 1, -1, dtype=np.intp)
    for record in result.instances:
        channel[record.instance_index] = spec.table.channel[record.category]
    member = np.flatnonzero(np.take(channel, values) >= 0)
    owner, first, lengths = np.take(values, member), np.take(starts, member), np.take(lengths, member)
    num_channels = semantic_probs.shape[2]
    # Pixel j of a run starting at row s reads (s + j) * C + channel.
    base = (first - np.cumsum(lengths) + lengths) * num_channels
    base += np.take(channel, owner)
    at_pixels = np.arange(0, lengths.sum() * num_channels, num_channels)
    at_pixels += np.repeat(base, lengths)
    weights = np.take(semantic_probs.reshape(-1), at_pixels)
    sums = np.bincount(np.repeat(owner, lengths), weights=weights, minlength=channel.size)
    return {r.instance_index: float(sums[r.instance_index]) / r.area for r in result.instances}


def _label_scores(result: PanopticResult) -> dict[int, float]:
    """The class scores of ``merge_panoptic``'s result on its label map:
    each instance's votes for its category over its area. Its members are
    exactly the pixels grouped to it, and one float64 division of the two
    integer counts is the mean of the one-hot pixels, bit for bit."""
    areas = np.array([r.area for r in result.instances], dtype=np.int64)
    scores = (result.category_votes / areas).tolist()
    return {r.instance_index: score for r, score in zip(result.instances, scores)}


def _sum_margin(channels: int, unit: float) -> float:
    """beta of the float32 sum check of ``_probability_labels``:
    (g + g64) / (1 - g) for C = ``channels`` nonnegative terms, where
    g = gamma(C - 1) at the unit roundoff ``unit`` of the check's sum, g64
    the same at float64's and gamma(n) = n u / (1 - n u). A sum s in any
    order is within g times the exact sum S of it, so S <= s / (1 - g), and
    numpy's float64 row sum is within g64 S of S. Then
    |row sum - 1| <= |s - 1| + beta s. beta is rounded up by a relative
    2**-30, far above the rounding of this float64 formula, and by 2**-60,
    above half an ulp of 1e-5 (2**-70): so |s - 1| + beta s <= 1e-5 in
    float64, for s in [0.5, 2] where s - 1 is exact, also holds exactly."""

    def gamma(n: int, u: float) -> float:
        return n * u / (1 - n * u)

    g = gamma(channels - 1, unit)
    return (g + gamma(channels - 1, 2.0**-53)) / (1 - g) * (1 + 2.0**-30) + 2.0**-60


def _probability_labels(probs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Check a (H, W, C) probability grid and reduce it to labels.

    ``ids`` holds the category id of each channel. Every pixel's channels
    must sum to 1 within 1e-5 (numpy's float64 row sum) and be finite; the
    (H, W) map ``ids[argmax]`` is returned, ties going to the lowest channel.
    Labels, verdicts and messages are those of the row-wise pass
    (``selftest.probability_labels_oracle``).

    Blocks of ``_PROB_BLOCK`` pixels run on ``core._run_blocks``; each
    thread has its own scratch buffers and each block writes only its own
    labels, so the bytes do not depend on the thread count. A float16,
    float32 or float64 block is copied once into a channel-major (C, block)
    buffer, where the sum and the max of every pixel, and the block's min,
    are reductions across pixels instead of along C-wide rows. The sum runs
    in float32 (float64 on float64 grids). The block passes when its min is
    >= 0 and every pixel's sum s has |s - 1| + beta s <= 1e-5 in float64
    (``_sum_margin``): then numpy's row sum is within the tolerance too.
    That function of s is convex, so it is checked at the block's smallest
    and largest s. Each label is then the lowest channel equal to the
    pixel's max, which is numpy's argmax on a finite row. Any other block
    (a negative entry, NaN or +-inf, a sum too close to or outside the
    tolerance, C too large for any margin, another dtype) takes numpy's row
    sum and argmax: a NaN or infinity makes that sum fail too, and only
    then is the block searched for it, so the message can name it.
    """
    num_channels = probs.shape[2]
    if num_channels != ids.size:
        raise ValueError(
            f"probability grid has {num_channels} channels, spec has {ids.size} categories"
        )
    flat = probs.reshape(-1, num_channels)
    labels = np.empty(flat.shape[0], dtype=ids.dtype)
    size = max(1, min(_PROB_BLOCK, flat.shape[0]))
    # The check's sum: float32, or float64 on a float64 grid. Other dtypes,
    # and C with (C - 1) u >= 1e-5, where beta > 1e-5 passes no block, take
    # the row sums.
    sum_dtype = {"e": np.float32, "f": np.float32, "d": np.float64}.get(probs.dtype.char)
    unit = float(np.finfo(sum_dtype or np.float64).epsneg)  # 2**-24 or 2**-53
    fast = sum_dtype is not None and (num_channels - 1) * unit < 1e-5
    beta = _sum_margin(num_channels, unit) if fast else 0.0
    # A channel c equal to the pixel's max gets the key C - c, so the
    # largest key names the lowest such channel; key k maps to ids[C - k].
    key_dtype = np.min_scalar_type(num_channels)
    keys = np.arange(num_channels, 0, -1, dtype=key_dtype)[:, None]
    id_of_key = np.concatenate((ids[:1], ids[::-1]))
    local = threading.local()

    def block_body(part: slice) -> None:
        block = flat[part]
        n = block.shape[0]
        if fast:
            scratch = getattr(local, "scratch", None)
            if scratch is None:  # allocated once per thread and call
                scratch = local.scratch = (
                    np.empty((num_channels, size), dtype=probs.dtype),
                    np.empty((num_channels, size), dtype=bool),
                    np.empty((num_channels, size), dtype=key_dtype),
                    np.empty(size, dtype=sum_dtype),
                    np.empty(size, dtype=probs.dtype),
                    np.empty(size, dtype=key_dtype),
                )
            major, hits, keyed, sums, top, best = (a[..., :n] for a in scratch)
            np.copyto(major, block.T)
            # inf - inf or an overflow makes a sum NaN or inf: no pass.
            with np.errstate(invalid="ignore", over="ignore"):
                np.add.reduce(major, axis=0, dtype=sum_dtype, out=sums)
            low, high = float(sums.min()), float(sums.max())  # NaN if any s is
            if (
                abs(low - 1.0) + beta * low <= 1e-5
                and abs(high - 1.0) + beta * high <= 1e-5
                and major.min() >= 0
            ):
                np.maximum.reduce(major, axis=0, out=top)
                np.equal(major, top, out=hits)
                np.multiply(hits, keys, out=keyed)
                np.maximum.reduce(keyed, axis=0, out=best)
                np.take(id_of_key, best, out=labels[part])
                return
        # A sum that warns (inf - inf, an overflow) ends in the ValueError.
        with np.errstate(invalid="ignore", over="ignore"):
            row_sums = block.sum(axis=1, dtype=np.float64)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-5):
            if not np.isfinite(block).all():
                raise ValueError("semantic probabilities contain non-finite values")
            raise ValueError("semantic probabilities must sum to 1 per pixel")
        labels[part] = ids[block.argmax(axis=1)]

    _run_blocks(block_body, flat.shape[0], size)
    return labels.reshape(probs.shape[:2])


def _check_finite(array: np.ndarray, message: str) -> None:
    """Raise ValueError(``message``) unless every value of ``array`` is
    finite, checked in blocks of ``core._BLOCK`` values on
    ``core._run_blocks``."""
    flat = array.reshape(-1)
    if not all(_run_blocks(lambda part: np.isfinite(flat[part]).all(), flat.size, core._BLOCK)):
        raise ValueError(message)


def panoptic_inference(
    semantic: np.ndarray,
    heatmap: np.ndarray,
    offsets: np.ndarray,
    spec: DatasetSpec,
    params: PostprocParams = PostprocParams(),
) -> PanopticResult:
    """Full pipeline from raw prediction grids to a scored panoptic result.

    ``semantic`` is either a (H, W) integer label map or a (H, W, C)
    probability grid; probabilities are reduced per pixel by argmax with ties
    to the smallest category id. Each input is checked once, in every score
    mode: label ids must be known to the spec, probabilities finite with
    rows summing to 1, the heatmap and the offsets finite. Centers are the
    peaks of ``extract_centers(keypoint_nms(heatmap))``, searched among the
    pixels above the threshold only. Stuff segments smaller than the area
    threshold become VOID in the same lookup table that assembles the map.
    """
    *_, result = _inference_stages(semantic, heatmap, offsets, spec, params)
    return result


def _inference_stages(
    semantic: np.ndarray,
    heatmap: np.ndarray,
    offsets: np.ndarray,
    spec: DatasetSpec,
    params: PostprocParams,
):
    """:func:`panoptic_inference`, yielding the name of each stage as it
    finishes and then the result."""
    if semantic.ndim not in (2, 3):
        raise ValueError(f"semantic must be (H, W) or (H, W, C), got shape {semantic.shape}")
    grid = semantic.shape[:2]
    if heatmap.shape != grid:
        raise ValueError(f"heatmap shape {heatmap.shape} != semantic grid {grid}")
    if offsets.shape[:2] != grid:
        raise ValueError(f"offsets shape {offsets.shape} != semantic grid {grid}")
    _check_finite(heatmap, "heatmap contains non-finite values")
    _check_finite(offsets, "offsets contains non-finite values")
    labels = semantic
    if semantic.ndim == 3:
        ids = spec.table.ids
        labels = _probability_labels(semantic, ids.astype(np.min_scalar_type(int(ids.max()))))
    elif not np.issubdtype(semantic.dtype, np.integer):
        raise ValueError(f"semantic label map must hold integer ids, got {semantic.dtype}")
    thing = thing_mask_from_semantic(labels, spec)
    yield "inputs"

    centers = _peak_centers(heatmap, params.nms_kernel, params.center_threshold, params.top_k)
    yield "nms"
    instance_ids = group_pixels(centers, offsets, thing)
    yield "grouping"
    threshold = params.stuff_area_threshold
    if threshold is None:
        threshold = spec.stuff_area_threshold
    result = merge_panoptic(labels, instance_ids, spec, threshold)
    yield "merge"

    # Center k - 1 is instance k. Objectness is its heatmap value; the class
    # score is the mean probability of the voted category over the members.
    mode = params.score_mode
    classes = None
    if mode != "objectness" and semantic.ndim == 2:
        classes = _label_scores(result)
    elif mode != "objectness":
        classes = _class_scores(result, instance_ids, semantic, spec)
    scored = []
    for record in result.instances:
        center = centers[record.instance_index - 1]
        score = center.score if mode == "objectness" else classes[record.instance_index]
        if mode == "product":
            score = center.score * score
        scored.append(replace(record, center=center, score=score))
    yield "scores"
    yield replace(result, instances=tuple(scored))
