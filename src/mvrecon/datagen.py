"""Synthetic multi-view voxel dataset.

Procedural object families give category-characteristic shapes that are
fully deterministic from (category, seed, side).  Views are orthographic
silhouette + nearest-depth renders from a ring of azimuths at a fixed
elevation: the nearest depth at each voxel's projected center, then a max
over a square around every pixel, wide enough that face-adjacent voxels
leave no holes.  The occlusion protocol overwrites a square patch on the
odd-indexed views with background.

A dataset holds each object's views as 8-bit levels, the bytes of its PGM
files: one byte per pixel, level k standing for k/255.  ``levels_to_images``
turns them into float32 images, and only the views a step or a pass reads
are turned: a float copy of every view would take four times the memory.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import voxio  # looked up per call, so wrappers set on voxio see every read and write
from .errors import BadConfig, MalformedFile, MissingViews, ShapeMismatch, TooFewObjects

CATEGORIES = (
    "box", "box_stack", "lshape", "table", "chair",
    "lamp", "cylinder", "ring", "composite",
)

SPLITS = ("train", "val", "test")
SPLIT_RATIOS = (0.7, 0.1, 0.2)
DEFAULT_ELEVATION_DEG = 30.0
DEFAULT_N_VIEWS = 24
OCCLUSION_REFERENCE_SIZE = 224  # box sizes are quoted at this image size
OCCLUSION_BOX_SIZES = (10, 15, 20, 25, 30, 35, 40)
OCCLUDED_VIEWS = slice(0, None, 2)  # the views ``occlude`` hits: 1st, 3rd, 5th, ...


# --- procedural generators ---

def _object_rng(category: str, seed: int, side: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), CATEGORIES.index(category), int(side)])


def _coords(side: int):
    ax = np.arange(side) + 0.5
    return np.meshgrid(ax, ax, ax, indexing="ij")


def _fill_box(vol, x0, y0, z0, ex, ey, ez):
    vol[x0:x0 + ex, y0:y0 + ey, z0:z0 + ez] = 1.0


def _gen_box(rng, vol, side):
    """Axis-aligned box.  Draw order: three extents, then three corners."""
    lo, hi = max(2, side // 4), side // 2
    ext = rng.integers(lo, hi + 1, size=3)
    corner = [int(rng.integers(1, side - 1 - ext[a] + 1)) for a in range(3)]
    _fill_box(vol, corner[0], corner[1], corner[2], *ext)


def _gen_box_stack(rng, vol, side):
    count = int(rng.integers(2, 4))
    ex = int(rng.integers(max(3, side // 3), side // 2 + 1))
    ey = int(rng.integers(max(3, side // 3), side // 2 + 1))
    cx = side // 2 + int(rng.integers(-side // 8, side // 8 + 1))
    cy = side // 2 + int(rng.integers(-side // 8, side // 8 + 1))
    z = 1
    for _ in range(count):
        h = int(rng.integers(max(2, side // 8), max(3, side // 4) + 1))
        h = min(h, side - 1 - z)
        if h < 1:
            break
        x0 = int(np.clip(cx - ex // 2, 1, side - 1 - ex))
        y0 = int(np.clip(cy - ey // 2, 1, side - 1 - ey))
        _fill_box(vol, x0, y0, z, ex, ey, h)
        z += h
        ex = max(2, ex - int(rng.integers(1, max(2, ex // 2 + 1))))
        ey = max(2, ey - int(rng.integers(1, max(2, ey // 2 + 1))))


def _gen_lshape(rng, vol, side):
    ext = rng.integers(max(3, side // 3), side - 2 + 1, size=3)
    corner = [int(rng.integers(1, side - 1 - ext[a] + 1)) for a in range(3)]
    _fill_box(vol, corner[0], corner[1], corner[2], *ext)
    # carve one quadrant from the top to leave an L profile
    cut_x = int(ext[0] - ext[0] // 2)
    cut_z = int(ext[2] - ext[2] // 2)
    vol[corner[0] + ext[0] - cut_x:corner[0] + ext[0],
        corner[1]:corner[1] + ext[1],
        corner[2] + ext[2] - cut_z:corner[2] + ext[2]] = 0.0


def _gen_table(rng, vol, side):
    top_t = max(1, side // 10)
    ex = int(rng.integers(max(4, side // 2), side - 2 + 1))
    ey = int(rng.integers(max(4, side // 2), side - 2 + 1))
    x0 = int(rng.integers(1, side - 1 - ex + 1))
    y0 = int(rng.integers(1, side - 1 - ey + 1))
    z_top = int(rng.integers(side // 2, side - 1 - top_t + 1))
    _fill_box(vol, x0, y0, z_top, ex, ey, top_t)
    leg = max(1, side // 10)
    for lx in (x0, x0 + ex - leg):
        for ly in (y0, y0 + ey - leg):
            _fill_box(vol, lx, ly, 1, leg, leg, z_top - 1)


def _gen_chair(rng, vol, side):
    leg = max(1, side // 10)
    seat_t = max(1, side // 10)
    ex = int(rng.integers(max(4, side // 3), side // 2 + 1))
    ey = int(rng.integers(max(4, side // 3), side // 2 + 1))
    x0 = int(rng.integers(1, side - 1 - ex + 1))
    y0 = int(rng.integers(1, side - 1 - ey + 1))
    z_seat = int(rng.integers(max(2, side // 4), side // 2 + 1))
    _fill_box(vol, x0, y0, z_seat, ex, ey, seat_t)
    for lx in (x0, x0 + ex - leg):
        for ly in (y0, y0 + ey - leg):
            _fill_box(vol, lx, ly, 1, leg, leg, z_seat - 1)
    back_h = min(side - 1 - (z_seat + seat_t), int(rng.integers(side // 4, side // 2 + 1)))
    if back_h > 0:
        _fill_box(vol, x0, y0, z_seat + seat_t, ex, max(1, leg), back_h)


def _gen_lamp(rng, vol, side):
    xx, yy, _ = _coords(side)
    cx = side / 2 + float(rng.integers(-side // 8, side // 8 + 1))
    cy = side / 2 + float(rng.integers(-side // 8, side // 8 + 1))
    r_base = max(1.5, side / 6 + float(rng.integers(0, max(1, side // 8) + 1)))
    base_h = max(1, side // 8)
    dist = np.hypot(xx - cx, yy - cy)
    vol[:, :, 1:1 + base_h][dist[:, :, 1:1 + base_h] <= r_base] = 1.0
    pole_r = max(0.8, side / 16)
    z_top = side - 2
    vol[:, :, 1:z_top][dist[:, :, 1:z_top] <= pole_r] = 1.0
    shade_h = max(2, side // 5)
    r_shade = max(2.0, side / 5 + float(rng.integers(0, max(1, side // 8) + 1)))
    sl = slice(z_top - shade_h, z_top)
    vol[:, :, sl][dist[:, :, sl] <= r_shade] = 1.0


def _gen_cylinder(rng, vol, side):
    xx, yy, _ = _coords(side)
    cx = side / 2 + float(rng.integers(-side // 8, side // 8 + 1))
    cy = side / 2 + float(rng.integers(-side // 8, side // 8 + 1))
    radius = side / 6 + float(rng.integers(0, max(1, side // 6) + 1))
    height = int(rng.integers(side // 2, side - 2 + 1))
    z0 = int(rng.integers(1, side - 1 - height + 1))
    mask = np.hypot(xx - cx, yy - cy) <= radius
    band = np.zeros_like(vol, dtype=bool)
    band[:, :, z0:z0 + height] = True
    vol[mask & band] = 1.0


def _gen_ring(rng, vol, side):
    xx, yy, zz = _coords(side)
    r_mid = side / 3 + float(rng.integers(-max(1, side // 12), max(1, side // 12) + 1))
    r_mid = min(r_mid, (side - 3) / 2)
    thickness = max(1.0, side / 8)
    z0 = side / 2 + float(rng.integers(-side // 8, side // 8 + 1))
    z_half = max(1.0, side / 8)
    dist = np.hypot(xx - side / 2, yy - side / 2)
    mask = (np.abs(dist - r_mid) <= thickness) & (np.abs(zz - z0) <= z_half)
    vol[mask] = 1.0


def _gen_composite(rng, vol, side):
    parts = rng.choice(["box", "cylinder", "ring"], size=2, replace=True)
    for part in parts:
        _GENERATORS[str(part)](rng, vol, side)


_GENERATORS = {
    "box": _gen_box,
    "box_stack": _gen_box_stack,
    "lshape": _gen_lshape,
    "table": _gen_table,
    "chair": _gen_chair,
    "lamp": _gen_lamp,
    "cylinder": _gen_cylinder,
    "ring": _gen_ring,
    "composite": _gen_composite,
}


def gen_object(category: str, seed: int, side: int) -> np.ndarray:
    """Deterministic float32 binary [V, V, V] grid of the given family,
    inside a 1-voxel margin."""
    if category not in _GENERATORS:
        raise BadConfig(f"unknown category {category!r}")
    if side < 8:
        raise BadConfig(f"voxel side {side} is below the minimum of 8")
    rng = _object_rng(category, seed, side)
    vol = np.zeros((side, side, side), dtype=np.float32)
    _GENERATORS[category](rng, vol, side)
    vol[[0, -1], :, :] = vol[:, [0, -1], :] = vol[:, :, [0, -1]] = 0.0
    if vol.sum() == 0:  # every family is constructed non-empty; guard anyway
        vol[side // 2, side // 2, side // 2] = 1.0
    return vol


# --- rendering ---

def _rotation(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    rot_z = np.array([[math.cos(az), -math.sin(az), 0.0],
                      [math.sin(az), math.cos(az), 0.0],
                      [0.0, 0.0, 1.0]])
    rot_x = np.array([[1.0, 0.0, 0.0],
                      [0.0, math.cos(el), -math.sin(el)],
                      [0.0, math.sin(el), math.cos(el)]])
    return rot_x @ rot_z


def _project(grid: np.ndarray, n_views: int, out_size: int):
    """For each of ``n_views`` evenly spaced azimuths at the default
    elevation: the pixel row and column of each occupied voxel center, and
    its depth in [0, 1] (nearer is larger)."""
    side = grid.shape[0]
    centers = (np.argwhere(grid > 0).astype(np.float64) + 0.5) / side - 0.5
    scale = (out_size - 4) / math.sqrt(3.0)
    center_px = (out_size - 1) / 2.0
    depth_span = math.sqrt(3.0)
    for k in range(n_views):
        p = centers @ _rotation(k * (360.0 / n_views), DEFAULT_ELEVATION_DEG).T
        rows = np.floor(center_px - scale * p[:, 2] + 0.5).astype(np.int64)
        cols = np.floor(center_px + scale * p[:, 0] + 0.5).astype(np.int64)
        yield rows, cols, (0.5 * depth_span - p[:, 1]) / depth_span


def render_views(grid: np.ndarray, n_views: int = DEFAULT_N_VIEWS,
                 out_size: int = 64) -> np.ndarray:
    """Orthographic silhouette + nearest-depth renders of a [V, V, V] grid
    from ``n_views`` evenly spaced azimuths: [n_views, 2, H, W], background 0.

    Every occupied voxel is painted as a small square around its projected
    center, sized so that face-adjacent voxels leave no holes: each view
    takes the nearest depth at each projected center, then the max over the
    square around every pixel (zero outside the image).  Every depth is > 0,
    so the silhouette is where the depth is.
    """
    if grid.ndim != 3 or grid.shape[0] < 1 or len(set(grid.shape)) != 1:
        raise ShapeMismatch(f"grid of shape {grid.shape} is not [V, V, V] with V >= 1")
    if out_size <= 4:  # _project's scale (out_size - 4) / sqrt(3) must be > 0
        raise BadConfig(f"image size {out_size} px; need at least 5")
    if n_views < 1:
        raise BadConfig(f"{n_views} views per object; need at least 1")
    half = (math.ceil((out_size - 4) / math.sqrt(3.0) / grid.shape[0]) + 1) // 2
    images = np.zeros((n_views, 2, out_size, out_size), dtype=np.float32)
    source = np.empty((out_size, out_size), dtype=np.float32)
    views = zip(_project(grid, n_views, out_size), images)
    for (iv, iu, center_depth), (silhouette, depth) in views:
        np.maximum.at(depth, (iv, iu), center_depth.astype(np.float32))
        for image, src in ((depth, source), (depth.T, source.T)):  # rows, then columns
            np.copyto(src, image)
            for d in range(1, half + 1):
                np.maximum(image[d:], src[:-d], out=image[d:])
                np.maximum(image[:-d], src[d:], out=image[:-d])
        silhouette[:] = depth > 0
    return images


# --- occlusion ---

def scaled_box_size(box: int, image_size: int) -> int:
    if box == 0:
        return 0
    return max(1, round(box * image_size / OCCLUSION_REFERENCE_SIZE))


def occlude(images: np.ndarray, box: int, mode: str = "center",
            seed: int = 0) -> np.ndarray:
    """Overwrite a box x box patch with background on the odd-numbered views.

    ``box`` is quoted at ``OCCLUSION_REFERENCE_SIZE`` and scales with the image.
    Views are numbered from 1, so array indices 0, 2, 4, ... are hit
    (``OCCLUDED_VIEWS``); the rest are copied unchanged.  The
    box is centered on the silhouette bounding box (mode="center") or
    placed seeded-randomly inside it (mode="random"), then clamped so it
    stays within the image.
    """
    if mode not in ("center", "random"):
        raise BadConfig(f"unknown occlusion mode {mode!r}")
    if box < 0:
        raise BadConfig(f"box size {box} is negative")
    out = np.array(images, copy=True)
    if box == 0:
        return out
    h, w = out.shape[-2], out.shape[-1]
    size = scaled_box_size(box, w)
    if size > min(h, w):
        raise ShapeMismatch(f"box {size} exceeds image {h}x{w}")
    rng = np.random.default_rng([int(seed), 0x0cc1])
    for idx in range(out.shape[0])[OCCLUDED_VIEWS]:
        fg = np.argwhere(out[idx, 0] > 0)
        if fg.size == 0:
            cr, cc = h // 2, w // 2
        else:
            (rmin, cmin), (rmax, cmax) = fg.min(axis=0), fg.max(axis=0)
            if mode == "random":
                cr = int(rng.integers(rmin, rmax + 1))
                cc = int(rng.integers(cmin, cmax + 1))
            else:
                cr, cc = (rmin + rmax) // 2, (cmin + cmax) // 2
        top = int(np.clip(cr - size // 2, 0, h - size))
        left = int(np.clip(cc - size // 2, 0, w - size))
        out[idx, :, top:top + size, left:left + size] = 0.0
    return out


# --- manifests and splits ---

def _largest_remainder(want: list[float], total: int) -> list[int]:
    counts = [max(0, math.floor(w)) for w in want]
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    frac = [w - c for w, c in zip(want, counts)]
    order = sorted(range(len(want)), key=lambda k: (-frac[k], k))
    for i in range(total - sum(counts)):
        counts[order[i % len(want)]] += 1
    return counts


def make_splits(entries: list[tuple[str, str]], seed: int = 0) -> dict[str, str]:
    """(object_id, category) pairs -> {object_id: split}.

    Seeded shuffle, stratified per category: each category's counts stay
    within one object of its exact quota, and fractional remainders carry
    across categories so the global ``SPLIT_RATIOS`` hold too.
    """
    rng = np.random.default_rng([int(seed), 0x5311])
    by_category: dict[str, list[str]] = {}
    for object_id, category in entries:
        by_category.setdefault(category, []).append(object_id)
    assignment: dict[str, str] = {}
    carry = [0.0] * len(SPLITS)
    for category in sorted(by_category):
        ids = sorted(by_category[category])
        order = rng.permutation(len(ids))
        n = len(ids)
        want = [r * n + c for r, c in zip(SPLIT_RATIOS, carry)]
        counts = _largest_remainder(want, n)
        carry = [w - got for w, got in zip(want, counts)]
        bounds = np.cumsum(counts)
        for pos, j in enumerate(order):
            split = SPLITS[int(np.searchsorted(bounds, pos, side="right"))]
            assignment[ids[j]] = split
    for split in SPLITS:
        if not any(v == split for v in assignment.values()):
            raise TooFewObjects(f"split {split!r} would be empty")
    return assignment


# --- full datasets (in memory and on disk) ---

def levels_to_images(levels: np.ndarray) -> np.ndarray:
    """8-bit levels as float32 images in [0, 1]: level k becomes k/255, the
    float the renders are quantized to, bit for bit (a division, not a
    product with 1/255, which rounds some levels differently)."""
    return np.divide(levels, np.float32(255.0), dtype=np.float32)


@dataclass
class DatasetObject:
    """One object: its ground-truth grid and its views as uint8 levels.

    ``first_views`` hands out the views from the first poses of the ring as
    float32 images.  ``views`` converts them all, for callers that read every
    view at once, such as the benchmark's checks.
    """
    object_id: str
    category: str
    seed: int
    split: str
    grid: np.ndarray    # [V, V, V] float32 binary; None in a parsed manifest
    levels: np.ndarray  # [n_views, 2, H, W] uint8, as in the PGMs; None in a parsed manifest

    @property
    def views(self) -> np.ndarray:
        """Every view as a float32 image, converted on each read."""
        return levels_to_images(self.levels)

    def first_views(self, n: int) -> np.ndarray:
        """The views from the first ``n`` poses of the ring, as float32 images."""
        if not 1 <= n <= len(self.levels):
            raise MissingViews(f"asked for {n} views, {self.object_id} has {len(self.levels)}")
        return levels_to_images(self.levels[:n])


@dataclass
class Dataset:
    voxel_side: int
    image_size: int
    n_views: int
    elevation_deg: float
    objects: list[DatasetObject]

    def __post_init__(self):
        # built or read, a dataset holds only views the renderer can make
        if self.n_views < 1:
            raise BadConfig(f"{self.n_views} views per object; need at least 1")
        if self.image_size <= 4:  # the renderer's scale (image_size - 4) / sqrt(3) must be > 0
            raise BadConfig(f"image size {self.image_size} px; need at least 5")

    def split(self, name: str) -> list[DatasetObject]:
        return [o for o in self.objects if o.split == name]


def manifest_to_text(dataset: Dataset) -> str:
    lines = [
        "# mvrecon-dataset 1",
        f"# voxel_side {dataset.voxel_side}",
        f"# image_size {dataset.image_size}",
        f"# n_views {dataset.n_views}",
        f"# elevation_deg {dataset.elevation_deg:g}",
    ]
    for o in dataset.objects:
        lines.append(f"{o.object_id} {o.category} {o.seed} {o.split}")
    return "\n".join(lines) + "\n"


_OBJECT_ID = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")  # one path component, never '..'


def manifest_from_text(text: str) -> Dataset:
    """The dataset a manifest lists; its objects carry no grids or views."""
    header: dict[str, str] = {}
    objects: list[DatasetObject] = []
    ids: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2:
                header[parts[0]] = parts[1]
            continue
        try:
            object_id, category, seed, split = line.split()
            obj = DatasetObject(object_id, category, int(seed), split, None, None)
        except ValueError:
            raise MalformedFile(f"manifest line {raw!r} is not 'id category seed split'") from None
        if split not in SPLITS or category not in CATEGORIES:
            raise MalformedFile(f"manifest line {raw!r} names an unknown split or category")
        if not _OBJECT_ID.fullmatch(object_id):
            raise MalformedFile(f"manifest line {raw!r} has an id that is not a file name")
        if object_id in ids:
            raise MalformedFile(f"manifest line {raw!r} repeats an id")
        if obj.seed < 0:
            raise MalformedFile(f"manifest line {raw!r} has a negative seed")
        ids.add(object_id)
        objects.append(obj)
    try:
        return Dataset(
            voxel_side=int(header["voxel_side"]),
            image_size=int(header["image_size"]),
            n_views=int(header["n_views"]),
            elevation_deg=float(header.get("elevation_deg", DEFAULT_ELEVATION_DEG)),
            objects=objects,
        )
    except (KeyError, ValueError) as exc:  # BadConfig is a ValueError
        raise MalformedFile(f"bad manifest header: {exc!r}") from None


def build_dataset(n_objects: int, voxel_side: int, image_size: int, seed: int = 0,
                  categories: tuple[str, ...] = CATEGORIES,
                  n_views: int = DEFAULT_N_VIEWS) -> Dataset:
    """Generate, render, and split a dataset entirely in memory."""
    if not categories or not set(categories) <= set(CATEGORIES):
        raise BadConfig(f"categories {categories} are not a non-empty subset of {CATEGORIES}")
    if seed < 0:
        raise BadConfig(f"seed {seed} is negative")
    dataset = Dataset(voxel_side, image_size, n_views, DEFAULT_ELEVATION_DEG, [])
    for i in range(n_objects):
        category = categories[i % len(categories)]
        obj_seed = seed * 1_000_003 + i
        dataset.objects.append(DatasetObject(f"obj{i:04d}", category, obj_seed, "",
                                             gen_object(category, obj_seed, voxel_side), None))
    assignment = make_splits([(o.object_id, o.category) for o in dataset.objects], seed=seed)
    for obj in dataset.objects:
        obj.split = assignment[obj.object_id]
        views = render_views(obj.grid, n_views, image_size)
        views *= 255.0  # in place: a 224-px object's views are ~10 MB of float32
        obj.levels = np.rint(views, out=views).astype(np.uint8)  # the PGMs' 8 bits
    return dataset


# --- disk persistence (manifest + binvox ground truth + PGM views) ---

def save_dataset(dataset: Dataset, root) -> None:
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "manifest.txt"), "w") as fh:
        fh.write(manifest_to_text(dataset))
    vox_dir = os.path.join(root, "voxels")
    os.makedirs(vox_dir, exist_ok=True)
    for obj in dataset.objects:
        with open(os.path.join(vox_dir, f"{obj.object_id}.binvox"), "wb") as fh:
            fh.write(voxio.write_binvox(obj.grid))
        view_dir = os.path.join(root, "views", obj.object_id)
        os.makedirs(view_dir, exist_ok=True)
        for k in range(len(obj.levels)):
            for ch, tag in ((0, "sil"), (1, "dep")):
                path = os.path.join(view_dir, f"v{k:02d}_{tag}.pgm")
                with open(path, "wb") as fh:
                    fh.write(voxio.write_pgm(obj.levels[k, ch]))


def load_dataset(root) -> Dataset:
    """The dataset under ``root``; every listed file must exist and match its sizes."""
    with open(os.path.join(root, "manifest.txt")) as fh:
        dataset = manifest_from_text(fh.read())
    side, image_shape = dataset.voxel_side, (dataset.image_size, dataset.image_size)
    try:
        for obj in dataset.objects:
            path = os.path.join(root, "voxels", f"{obj.object_id}.binvox")
            with open(path, "rb") as fh:
                grid = voxio.read_binvox(fh.read())
            if grid.shape[0] != side:
                raise MalformedFile(f"{path}: side {grid.shape[0]}, expected {side}")
            obj.grid = grid
            view_dir = os.path.join(root, "views", obj.object_id)
            for k in range(dataset.n_views):
                for ch, tag in ((0, "sil"), (1, "dep")):
                    path = os.path.join(view_dir, f"v{k:02d}_{tag}.pgm")
                    with open(path, "rb") as fh:
                        image = voxio.read_pgm(fh.read())
                    if image.shape != image_shape:
                        raise MalformedFile(f"{path}: image {image.shape}, expected {image_shape}")
                    if obj.levels is None:  # allocate once the files bear out the header:
                        # this view has its image size, and the last listed view exists
                        os.stat(os.path.join(view_dir, f"v{dataset.n_views - 1:02d}_dep.pgm"))
                        obj.levels = np.empty((dataset.n_views, 2) + image_shape, np.uint8)
                    obj.levels[k, ch] = image
    except FileNotFoundError as exc:
        raise MalformedFile(f"{exc.filename}: listed in the manifest but missing") from None
    return dataset
