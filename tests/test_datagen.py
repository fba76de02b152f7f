import numpy as np
import pytest

from mvrecon.datagen import (
    CATEGORIES,
    Dataset,
    DatasetObject,
    _project,
    build_dataset,
    gen_object,
    make_splits,
    manifest_from_text,
    manifest_to_text,
    occlude,
    render_views,
    scaled_box_size,
)
from mvrecon.errors import BoxLargerThanImage, TooFewObjects


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
        views = render_views(grid, 6, out_size=48, elevation_deg=30.0)
        for k, (rows, cols, _) in enumerate(_project(grid, 6, 30.0, 48)):
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
    out = occlude(views, 224, reference=224)  # scales to the full image
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
    with pytest.raises(BoxLargerThanImage):
        occlude(views, 448)  # scales to 32 > 16


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
