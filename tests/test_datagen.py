import hashlib
import math
import re

import numpy as np
import pytest

from mvrecon.datagen import (
    CATEGORIES,
    Dataset,
    DatasetObject,
    _project,
    build_dataset,
    gen_object,
    levels_to_images,
    load_dataset,
    make_splits,
    manifest_from_text,
    manifest_to_text,
    occlude,
    render_views,
    save_dataset,
    scaled_box_size,
)
from mvrecon.errors import BadConfig, MalformedFile, ShapeMismatch, TooFewObjects
from mvrecon.voxio import write_binvox, write_pgm


# --- generation ---

def test_box_fills_its_bounding_box():
    side = 32
    for seed in range(10):
        grid = gen_object("box", seed, side)
        occ = np.argwhere(grid > 0)
        lo, hi = occ.min(axis=0), occ.max(axis=0)
        ext = hi - lo + 1
        assert len(occ) == int(np.prod(ext))  # solid: fills its bounding box
        assert np.all((ext >= max(2, side // 4)) & (ext <= side // 2))
        assert lo.min() >= 1 and hi.max() <= side - 2


def test_generation_deterministic():
    for category in CATEGORIES:
        a = gen_object(category, 7, 16)
        b = gen_object(category, 7, 16)
        assert a.dtype == np.float32 and a.shape == (16, 16, 16)
        assert np.all((a == 0) | (a == 1))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("category", CATEGORIES)
def test_objects_nonempty_and_in_margin(category):
    for seed in range(100):
        occ = np.argwhere(gen_object(category, seed, 16) > 0)
        assert occ.size > 0, f"{category} seed {seed} empty"
        assert occ.min() >= 1
        assert occ.max() <= 14


def test_small_side_objects_nonempty():
    for category in CATEGORIES:
        for seed in range(20):
            assert gen_object(category, seed, 8).any()


@pytest.mark.parametrize("category, side", [("box", 4), ("sphere", 16)])
def test_bad_generation_request_is_bad_config(category, side):
    with pytest.raises(BadConfig):
        gen_object(category, 0, side)


def test_distinct_seeds_differ():
    grids = [gen_object("chair", s, 16) for s in range(5)]
    assert any(not np.array_equal(grids[0], g) for g in grids[1:])


# --- rendering ---

def test_center_voxel_projects_to_image_center():
    side = 16
    grid = np.zeros((side, side, side), dtype=np.float32)
    grid[side // 2, side // 2, side // 2] = 1
    views = render_views(grid, 8, out_size=32)
    for k in range(8):
        sil = views[k, 0]
        fg = np.argwhere(sil > 0)
        assert fg.size > 0
        center = fg.mean(axis=0)
        assert np.all(np.abs(center - 15.5) < 3.0)


def test_every_projected_center_is_foreground():
    for i in range(10):
        grid = gen_object(CATEGORIES[i % len(CATEGORIES)], 100 + i, 16)
        views = render_views(grid, 6, out_size=48)
        for k, (rows, cols, _) in enumerate(_project(grid, 6, 48)):
            assert np.all(views[k, 0][rows, cols] == 1.0)


def test_opposite_azimuths_mirror_silhouettes():
    # object mirror-symmetric across the azimuth-0 depth axis (y)
    side = 16
    vals = np.zeros((side, side, side), dtype=np.float32)
    vals[4:12, 5:11, 3:13] = 1  # y indices 5..10 symmetric under y -> 15-y
    vals[6:10, 5:11, 10:13] = 0  # keep it non-trivial, still y-symmetric
    views = render_views(vals, 2, out_size=64)  # azimuths 0 and 180
    front, back = views[0, 0], views[1, 0]
    assert np.array_equal(back, front[:, ::-1])


def test_depth_channel_in_unit_range_and_nearest():
    views = render_views(gen_object("table", 5, 16), 4, out_size=48)
    dep = views[:, 1]
    sil = views[:, 0]
    assert np.all(dep >= 0) and np.all(dep <= 1)
    assert np.all(dep[sil == 0] == 0)
    assert np.all(dep[sil == 1] > 0)


def test_render_deterministic():
    grid = gen_object("ring", 2, 16)
    assert np.array_equal(render_views(grid, 4, 32), render_views(grid, 4, 32))


def reference_render(grid, n_views, out_size):
    """The splat ``render_views`` replaced: every voxel painted as a square of
    (2 * half + 1)^2 scattered copies of its center, clipped into the image."""
    half = (math.ceil((out_size - 4) / math.sqrt(3.0) / grid.shape[0]) + 1) // 2
    offsets = [(dr, dc) for dr in range(-half, half + 1)
               for dc in range(-half, half + 1)]
    images = np.zeros((n_views, 2, out_size, out_size), dtype=np.float32)
    for k, (iv, iu, depth) in enumerate(_project(grid, n_views, out_size)):
        rows = np.clip(np.concatenate([iv + dr for dr, _ in offsets]), 0, out_size - 1)
        cols = np.clip(np.concatenate([iu + dc for _, dc in offsets]), 0, out_size - 1)
        vals = np.concatenate([depth] * len(offsets))
        images[k, 0][rows, cols] = 1.0
        np.maximum.at(images[k, 1], (rows, cols), vals.astype(np.float32))
    return images


@pytest.mark.parametrize("side, size", [(32, 224), (16, 64)])
def test_render_is_the_splat_bitwise_for_every_category(side, size):
    for category in CATEGORIES:
        grid = gen_object(category, 0, side)
        assert render_views(grid, 24, size).tobytes() == reference_render(grid, 24, size).tobytes()


def _four_corners(side):
    grid = np.zeros((side, side, side), dtype=np.float32)
    grid[0, 0, 0] = grid[0, -1, -1] = grid[-1, 0, -1] = grid[-1, -1, 0] = 1.0
    return grid


@pytest.mark.parametrize("make_grid", [lambda s: np.ones((s, s, s), np.float32), _four_corners],
                         ids=["all-ones", "four-corners"])
def test_render_is_the_splat_bitwise_at_the_image_edges(make_grid):
    # the outermost centers land one pixel in from the border, where the
    # splat's clip piles a square's overflow
    for side in (1, 3, 8):
        grid = make_grid(side)
        for size in (5, 7, 64):
            for n_views in (1, 24):
                got = render_views(grid, n_views, size)
                assert got.tobytes() == reference_render(grid, n_views, size).tobytes()


def test_renders_keep_their_pinned_bits():
    # digests of the scattered-splat renderer's output
    levels = hashlib.sha256()
    for obj in build_dataset(9, 16, 64, seed=0).objects:
        levels.update(obj.levels.tobytes())
    assert levels.hexdigest() == (
        "931c4c5b041544c8dee61df4a97b2e7acc0b9632ddb4c8a90b010c943bef83e8")
    renders = hashlib.sha256()
    for category in CATEGORIES:
        renders.update(render_views(gen_object(category, 0, 32), 24, 224).tobytes())
    assert renders.hexdigest() == (
        "c997287c35a28bc0c5ca5d42f16296e4e523c241dd2b83f6149fb6593def8659")


@pytest.mark.parametrize("shape", [(8, 8, 32), (8, 8), (0, 0, 0), (4, 4, 4, 1)])
def test_render_rejects_a_grid_that_is_not_a_cube(shape):
    with pytest.raises(ShapeMismatch, match=re.escape(f"grid of shape {shape} is not [V, V, V]")):
        render_views(np.ones(shape, np.float32), 2, 32)


@pytest.mark.parametrize("size", [-1, 0, 1, 4])
def test_render_rejects_an_image_below_five_px(size):
    with pytest.raises(BadConfig, match=f"image size {size} px; need at least 5"):
        render_views(np.ones((8, 8, 8), np.float32), 2, size)


# --- occlusion ---

def make_views(n=4, size=32, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = size // 4, size - size // 4
    images = np.zeros((n, 2, size, size), dtype=np.float32)
    images[:, 0, lo:hi, lo:hi] = 1.0
    images[:, 1, lo:hi, lo:hi] = rng.random((n, hi - lo, hi - lo)).astype(np.float32)
    return images


def test_occlusion_zero_box_is_identity():
    views = make_views()
    out = occlude(views, 0)
    assert np.array_equal(out, views)
    assert out is not views


def test_occlusion_full_cover_blanks_odd_views_only():
    views = make_views(n=2, size=32)
    out = occlude(views, 224)  # scales to the full image
    assert np.all(out[0] == 0)
    assert np.array_equal(out[1], views[1])


def test_occlusion_touches_exactly_the_box():
    size = 64
    views = make_views(n=4, size=size)
    for box in (10, 15, 20, 25, 30, 35, 40):
        out = occlude(views, box)
        b = scaled_box_size(box, size)
        for idx in range(4):
            changed = np.argwhere(np.any(out[idx] != views[idx], axis=0))
            if idx % 2 == 1:
                assert changed.size == 0
                continue
            region = np.argwhere(np.all(out[idx] == 0, axis=0))
            # the written box is exactly b x b, somewhere inside the image
            (rmin, cmin), (rmax, cmax) = changed.min(axis=0), changed.max(axis=0)
            assert rmax - rmin + 1 <= b and cmax - cmin + 1 <= b
            zero_patch = out[idx][:, rmin:rmin + b, cmin:cmin + b]
            assert np.all(zero_patch == 0) or region.size >= changed.size


def test_occlusion_box_area_is_exact():
    size = 64
    views = np.ones((2, 2, size, size), dtype=np.float32)
    views[:, 0] = 1.0  # full-frame silhouette; bbox center is image center
    for box in (10, 25, 40):
        out = occlude(views, box)
        b = scaled_box_size(box, size)
        blanked = np.argwhere(out[0, 0] == 0)
        assert blanked.shape[0] == b * b
        assert np.all(out[1] == 1.0)


def test_occlusion_random_mode_seeded():
    views = make_views(n=4, size=32)
    a = occlude(views, 30, mode="random", seed=5)
    b = occlude(views, 30, mode="random", seed=5)
    c = occlude(views, 30, mode="random", seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_occlusion_too_large():
    views = make_views(n=2, size=16)
    with pytest.raises(ShapeMismatch, match="box 32 exceeds image 16x16"):
        occlude(views, 448)  # scales to 32 > 16


def test_occlusion_unknown_mode_is_bad_config():
    with pytest.raises(BadConfig, match="unknown occlusion mode 'diagonal'"):
        occlude(make_views(n=2, size=16), 30, mode="diagonal")


@pytest.mark.parametrize("box", [-1, -5, -500])
def test_occlusion_negative_box_is_bad_config(box):
    with pytest.raises(BadConfig, match=f"box size {box} is negative"):
        occlude(make_views(n=2, size=16), box)


# --- splits ---

def test_splits_ten_objects():
    entries = [(f"o{i}", "box") for i in range(10)]
    assignment = make_splits(entries, seed=0)
    counts = {s: sum(1 for v in assignment.values() if v == s)
              for s in ("train", "val", "test")}
    assert counts == {"train": 7, "val": 1, "test": 2}


def test_splits_deterministic():
    entries = [(f"o{i}", CATEGORIES[i % 3]) for i in range(30)]
    assert make_splits(entries, seed=3) == make_splits(entries, seed=3)
    assert make_splits(entries, seed=3) != make_splits(entries, seed=4)


def test_splits_stratified_within_one():
    entries = [(f"o{i}", CATEGORIES[i % 4]) for i in range(80)]
    assignment = make_splits(entries, seed=1)
    for cat_idx in range(4):
        ids = [f"o{i}" for i in range(80) if i % 4 == cat_idx]
        n = len(ids)
        got = {s: sum(1 for o in ids if assignment[o] == s)
               for s in ("train", "val", "test")}
        for split, ratio in zip(("train", "val", "test"), (0.7, 0.1, 0.2)):
            assert abs(got[split] - ratio * n) <= 1.0 + 1e-9


def test_splits_disjoint_exhaustive():
    entries = [(f"o{i}", CATEGORIES[i % len(CATEGORIES)]) for i in range(45)]
    assignment = make_splits(entries, seed=2)
    assert len(assignment) == 45
    assert set(assignment.values()) == {"train", "val", "test"}


def test_splits_too_few():
    with pytest.raises(TooFewObjects):
        make_splits([("a", "box"), ("b", "box")], seed=0)


# --- manifests and datasets ---

def test_manifest_roundtrip():
    dataset = Dataset(16, 32, 24, 30.0, [
        DatasetObject("obj0000", "box", 11, "train", None, None),
        DatasetObject("obj0001", "ring", 12, "test", None, None),
    ])
    assert manifest_from_text(manifest_to_text(dataset)) == dataset


MANIFEST_HEADER = "# voxel_side 16\n# image_size 32\n# n_views 24\n"


@pytest.mark.parametrize("text", [
    "# voxel_side 16\n# n_views 24\nobj0000 box 11 train\n",
    "# voxel_side 16\n# image_size big\n# n_views 24\n",
    MANIFEST_HEADER + "obj0000 box\n",
    MANIFEST_HEADER + "obj0000 box 11 train extra\n",
    MANIFEST_HEADER + "obj0000 box eleven train\n",
    "# voxel_side 16\n# image_size 32\n# n_views -1\n",
    "# voxel_side 16\n# image_size -4\n# n_views 24\n",
    MANIFEST_HEADER + "obj0000 box 11 tset\n",
    MANIFEST_HEADER + "obj0000 nope 11 train\n",
    MANIFEST_HEADER + "../../x box 11 train\n",
    MANIFEST_HEADER + "obj0000 box 11 train\nobj0000 ring 12 test\n",
    MANIFEST_HEADER + "obj0000 box -1 train\n",
], ids=["no-image-size", "non-numeric-header", "two-fields", "five-fields",
        "non-numeric-seed", "negative-views", "negative-image-size", "unknown-split",
        "unknown-category", "path-id", "repeated-id", "negative-seed"])
def test_malformed_manifest_raises_malformed_header(text):
    with pytest.raises(MalformedFile):
        manifest_from_text(text)


@pytest.mark.parametrize("categories", [(), ("box", "nope")], ids=["empty", "unknown"])
def test_build_dataset_rejects_bad_categories(categories):
    with pytest.raises(BadConfig, match="categories"):
        build_dataset(4, 8, 32, categories=categories)


def test_build_dataset_deterministic_and_split():
    ds1 = build_dataset(18, voxel_side=8, image_size=32, seed=5,
                        categories=CATEGORIES[:3], n_views=6)
    ds2 = build_dataset(18, voxel_side=8, image_size=32, seed=5,
                        categories=CATEGORIES[:3], n_views=6)
    assert len(ds1.objects) == 18
    for a, b in zip(ds1.objects, ds2.objects):
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.views, b.views)
        assert a.split == b.split
    names = {s: len(ds1.split(s)) for s in ("train", "val", "test")}
    assert sum(names.values()) == 18
    assert min(names.values()) >= 1


# --- views as 8-bit levels ---

def test_levels_to_images_is_the_float_quantization_for_every_level():
    # floats across each level's rounding interval, quantized as build_dataset does
    x = np.clip((np.arange(256)[:, None] + np.linspace(-0.49, 0.49, 9)) / 255, 0, 1)
    x = x.astype(np.float32)
    levels = np.rint(x * 255.0).astype(np.uint8)
    assert np.array_equal(np.unique(levels), np.arange(256))
    images = levels_to_images(levels)
    assert images.dtype == np.float32
    assert images.tobytes() == (np.rint(x * 255.0).astype(np.float32) / 255.0).tobytes()


def test_build_dataset_stores_views_as_one_byte_per_pixel():
    dataset = build_dataset(10, 8, 32, seed=4, n_views=5, categories=("box", "ring"))
    for obj in dataset.objects:
        assert obj.levels.dtype == np.uint8 and obj.levels.shape == (5, 2, 32, 32)
        assert obj.levels.nbytes == 5 * 2 * 32 * 32
        rendered = render_views(obj.grid, 5, 32)
        quantized = np.rint(rendered * 255.0).astype(np.float32) / 255.0
        assert obj.views.tobytes() == quantized.tobytes()
        assert obj.first_views(3).tobytes() == quantized[:3].tobytes()


def test_save_load_roundtrip_keeps_levels_bitwise(tmp_path):
    built = build_dataset(10, 8, 32, n_views=2, categories=("box",))
    save_dataset(built, tmp_path)
    for a, b in zip(built.objects, load_dataset(tmp_path).objects):
        assert b.levels.dtype == np.uint8 and np.array_equal(a.levels, b.levels)


def _saved_dataset(root):
    save_dataset(build_dataset(10, 8, 32, n_views=2, categories=("box",)), root)
    return root


def test_load_dataset_rejects_view_of_wrong_size(tmp_path):
    path = _saved_dataset(tmp_path) / "views" / "obj0003" / "v01_dep.pgm"
    path.write_bytes(write_pgm(np.zeros((16, 16))))
    with pytest.raises(MalformedFile, match="obj0003.v01_dep.pgm: image"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("missing", ["views/obj0002/v01_sil.pgm", "voxels/obj0005.binvox"])
def test_load_dataset_names_a_missing_listed_file(tmp_path, missing):
    path = _saved_dataset(tmp_path) / missing
    path.unlink()
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: listed in the manifest"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("header,message", [
    ("n_views 999999999", "v999999998_dep.pgm: listed in the manifest but missing"),
    ("image_size 9999999", "v00_sil.pgm: image"),
])
def test_load_dataset_allocates_nothing_the_files_do_not_bear_out(tmp_path, header, message):
    # either header would ask for terabytes of views before any file is read
    manifest = _saved_dataset(tmp_path) / "manifest.txt"
    key = header.split()[0]
    manifest.write_text(re.sub(f"# {key} \\d+", f"# {header}", manifest.read_text()))
    with pytest.raises(MalformedFile, match=re.escape(message)):
        load_dataset(tmp_path)


def test_load_dataset_rejects_grid_of_wrong_side(tmp_path):
    path = _saved_dataset(tmp_path) / "voxels" / "obj0004.binvox"
    path.write_bytes(write_binvox(gen_object("box", 0, 16)))
    with pytest.raises(MalformedFile, match="obj0004.binvox: side 16, expected 8"):
        load_dataset(tmp_path)
