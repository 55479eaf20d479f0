import math

import numpy as np
import pytest

from partssl import distill
from partssl import multicrop as mc
from partssl import synthetic as sd
from partssl import vit


def sample_image(seed=0, h=32, w=16):
    return np.random.default_rng(seed).random((h, w, 3))


class TestAreas:
    def test_two_areas_occupy_seventy_percent(self):
        areas = mc.define_areas(2)
        assert [(a.top_frac, a.bottom_frac) for a in areas] == [(0.0, 0.70), (0.30, 1.0)]

    def test_three_areas_occupy_fifty_percent(self):
        areas = mc.define_areas(3)
        assert [(a.top_frac, a.bottom_frac) for a in areas] == [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)]

    def test_single_area_degenerate(self):
        assert mc.define_areas(1) == [mc.AreaSpec(0.0, 1.0)]

    def test_unsupported_count(self):
        for bad in (0, 6, -1):
            with pytest.raises(mc.AreaError):
                mc.define_areas(bad)

    def test_consecutive_areas_overlap(self):
        for L in range(2, 6):
            areas = mc.define_areas(L)
            for a, b in zip(areas, areas[1:]):
                assert a.bottom_frac > b.top_frac

    def test_three_area_union_covers_every_row(self):
        areas = mc.define_areas(3)
        for frac in np.linspace(0, 1, 101):
            assert any(a.top_frac <= frac <= a.bottom_frac for a in areas)

    def test_invalid_area_spec(self):
        with pytest.raises(mc.AreaError):
            mc.AreaSpec(0.5, 0.5)
        with pytest.raises(mc.AreaError):
            mc.AreaSpec(-0.1, 0.5)


class TestViewsPerArea:
    def test_paper_values(self):
        assert mc.views_per_area(3) == 3
        assert mc.views_per_area(2) == 5

    def test_exact_division(self):
        assert mc.views_per_area(9) == 1

    def test_formula_over_range(self):
        for L in range(1, 10):
            assert mc.views_per_area(L) == math.ceil(9 / L)


class TestGlobalSampler:
    def cfg(self, **kw):
        base = dict(global_size=(32, 16), local_size=(16, 8))
        base.update(kw)
        return mc.MulticropConfig(**base)

    def test_full_scale_returns_whole_image(self):
        img = sample_image()
        cfg = self.cfg(global_scale=(1.0, 1.0), flip_p=0.0, brightness=0.0, contrast=0.0)
        vs = mc.build_view_set([img], cfg, [0])
        plan = vs.globals[0]
        assert (plan.top, plan.left) == (0, 0)
        assert (plan.height, plan.width) == img.shape[:2]
        np.testing.assert_allclose(vs.global_pixels[0], img, atol=1e-12)

    def test_crop_rects_stay_in_bounds(self):
        img = sample_image(1)
        cfg = self.cfg()
        rng = np.random.default_rng(2)
        plans = [mc.global_plan(img.shape[:2], rng, cfg) for _ in range(1000)]
        for p in plans:
            assert 0 <= p.top and p.top + p.height <= img.shape[0]
            assert 0 <= p.left and p.left + p.width <= img.shape[1]
        assert mc.render([img], plans, [0] * len(plans)).shape == (1000, 32, 16, 3)

    def test_degenerate_image_raises(self):
        with pytest.raises(mc.AreaError):
            mc.build_view_set([np.zeros((1, 8, 3))], self.cfg(), [0])


class TestLocalSampler:
    def cfg(self, **kw):
        base = dict(global_size=(32, 16), local_size=(16, 8))
        base.update(kw)
        return mc.MulticropConfig(**base)

    def test_rects_contained_in_area(self):
        img = sample_image(3, h=64, w=32)
        cfg = self.cfg()
        rng = np.random.default_rng(4)
        H = img.shape[0]
        for area in mc.define_areas(3):
            for _ in range(1000):
                p = mc.local_plan(img.shape[:2], area, 2, rng, cfg)
                assert p.top >= area.top_frac * H
                assert p.top + p.height <= area.bottom_frac * H

    def test_area_cap_never_exceeded(self):
        img = sample_image(5, h=64, w=32)
        cfg = self.cfg()
        rng = np.random.default_rng(6)
        cap = 0.40 * 64 * 32
        for area in mc.define_areas(3):
            for _ in range(500):
                p = mc.local_plan(img.shape[:2], area, 1, rng, cfg)
                assert p.height * p.width <= cap

    def test_max_fraction_middle_area_geometry(self):
        # at the 40% cap a full-width crop is only 0.4*H tall, so it can never
        # span the 0.5*H-tall middle area; spanning it would force the width
        # down to 0.8*W to respect the cap
        img = sample_image(7, h=64, w=32)
        cfg = self.cfg(local_scale=(0.40, 0.40))
        area = mc.define_areas(3)[1]
        rng = np.random.default_rng(8)
        H, W = img.shape[:2]
        for _ in range(200):
            p = mc.local_plan(img.shape[:2], area, 2, rng, cfg)
            assert p.width == W
            assert p.height == int(0.40 * H * W // W)
            assert p.height < 0.5 * H
        # the analytic constraint itself
        area_h = 0.5 * H
        assert 0.40 * H * W / area_h == pytest.approx(0.8 * W)

    def test_area_too_small_raises(self):
        img = sample_image(9, h=16, w=8)
        with pytest.raises(mc.AreaError):
            mc.local_plan(img.shape[:2], mc.AreaSpec(0.5, 0.55), 1, np.random.default_rng(0),
                          self.cfg())

    def test_local_view_resized_to_local_size(self):
        img = sample_image(10, h=64, w=32)
        cfg = self.cfg(local_size=(24, 12))
        vs = mc.build_view_set([img], cfg, [1])
        assert vs.local_pixels.shape == (9, 24, 12, 3)


class TestViewSet:
    def test_counts_for_default_config(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        vs = mc.build_view_set([sample_image(11)], cfg, [0])
        assert len(vs.globals) == 2
        assert len(vs.locals) == 9
        assert (len(vs.global_pixels), len(vs.local_pixels)) == (2, 9)  # M + L*J = 2 + 3*3

    def test_count_contract_across_configs(self):
        img = sample_image(12, h=40, w=20)
        for m in (1, 2):
            for L in (1, 2, 3, 4, 5):
                cfg = mc.MulticropConfig(num_globals=m, num_areas=L,
                                         global_size=(32, 16), local_size=(16, 8))
                vs = mc.build_view_set([img], cfg, [3])
                assert len(vs.globals) + len(vs.locals) == m + L * cfg.resolve_j()
                assert len(vs.global_pixels) + len(vs.local_pixels) == m + L * cfg.resolve_j()

    def test_local_layouts_carry_their_area_index(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        vs = mc.build_view_set([sample_image(13)], cfg, [1])
        assert [p.area for p in vs.locals] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert [p.area for p in vs.globals] == [0, 0]

    def test_same_seed_bit_identical(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        a = mc.build_view_set([sample_image(14)], cfg, [42])
        b = mc.build_view_set([sample_image(14)], cfg, [42])
        assert a.globals + a.locals == b.globals + b.locals
        np.testing.assert_array_equal(a.global_pixels, b.global_pixels)
        np.testing.assert_array_equal(a.local_pixels, b.local_pixels)

    def test_different_seed_differs(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        a = mc.build_view_set([sample_image(14)], cfg, [42])
        b = mc.build_view_set([sample_image(14)], cfg, [43])
        assert a.globals + a.locals != b.globals + b.locals


class TestResize:
    def test_identity(self):
        img = sample_image(16)
        np.testing.assert_array_equal(mc.resize_batch([img], 32, 16)[0], img)

    def test_constant_image_stays_constant(self):
        img = np.full((20, 10, 3), 0.37)
        out = mc.resize_batch([img], 13, 7)[0]
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_upscale_preserves_range(self):
        img = sample_image(17, h=8, w=4)
        out = mc.resize_batch([img], 32, 16)[0]
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


# One view at a time, as the renderer's formulas were first written. The
# memory order of each intermediate is part of the reference: a resized view
# is W-major, and ``mean`` sums in memory order.


def ref_resize(img, out_h, out_w):
    H, W = img.shape[:2]
    if (H, W) == (out_h, out_w):
        return img.copy()

    def axis_coords(n_src, n_dst):
        pos = mc.pixel_centers(n_src, n_dst)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, n_src - 1)
        return lo, hi, pos - lo

    y0, y1, wy = axis_coords(H, out_h)
    x0, x1, wx = axis_coords(W, out_w)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def ref_render_view(image, plan):
    crop = image[plan.top:plan.top + plan.height, plan.left:plan.left + plan.width]
    out = ref_resize(crop, plan.target[0], plan.target[1])
    if plan.flip:
        out = out[:, ::-1].copy()
    if plan.brightness != 1.0:
        out = out * plan.brightness
    if plan.contrast != 1.0:
        m = out.mean()
        out = (out - m) * plan.contrast + m
    return np.clip(out, 0.0, 1.0)


def random_plan(rng, hw, target):
    H, W = hw
    th, tw = target
    # a quarter of the crops take the target size on an axis, when it fits
    h = min(th, H) if rng.random() < 0.25 else int(rng.integers(2, H + 1))
    w = min(tw, W) if rng.random() < 0.25 else int(rng.integers(2, W + 1))
    jitter = [1.0 if rng.random() < 0.25 else rng.uniform(0.6, 1.4) for _ in range(2)]
    return mc.CropPlan(int(rng.integers(0, H - h + 1)), int(rng.integers(0, W - w + 1)), h, w,
                       (H, W), target, bool(rng.random() < 0.5), *jitter)


class TestRenderer:
    def test_equals_the_one_view_formulas_bit_for_bit(self):
        rng = np.random.default_rng(21)
        count = same = 0
        for trial in range(120):
            images = [rng.random((int(rng.integers(24, 48)), int(rng.integers(12, 28)), 3))
                      for _ in range(3)]
            target = [(32, 16), (24, 12), (16, 8), images[0].shape[:2]][trial % 4]
            owners = rng.integers(0, 3, size=int(rng.integers(1, 9)))
            plans = [random_plan(rng, images[o].shape[:2], target) for o in owners]
            got = mc.render(images, plans, owners)
            want = np.stack([ref_render_view(images[o], p) for o, p in zip(owners, plans)])
            assert got.shape == want.shape and np.array_equal(got, want), trial
            count += len(plans)
            same += sum((p.height, p.width) == target for p in plans)
        assert count >= 500 and same >= 20

    def test_resize_equals_the_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            img = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 40)), 3))
            size = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            assert np.array_equal(mc.resize_batch([img], *size)[0], ref_resize(img, *size))
        batch = rng.normal(size=(5, 20, 10, 3))  # unclipped: values outside [0, 1] stay
        assert np.array_equal(mc.resize_batch(batch, 32, 16),
                              np.stack([ref_resize(im, 32, 16) for im in batch]))

    def test_build_batch_equals_the_formulas_per_view(self):
        bb = vit.BackboneConfig(image_h=32, image_w=16, patch_size=4, embed_dim=8, depth=1,
                                heads=2, num_parts=3, proj_dim=8).validate()
        crop = mc.MulticropConfig(num_areas=3, global_size=(32, 16), local_size=(24, 12),
                                  pos_mode="crop")
        ds = sd.generate(sd.SyntheticSpec(num_identities=6, images_per_identity=2,
                                          image_h=32, image_w=16), seed=5)
        tr = distill.Pretrainer(bb, crop, distill.PretrainConfig(steps=1, batch_size=6),
                                ds.images, seed=0)
        indices = [4, 0, 7, 11, 2, 9]
        vs = tr.build_batch(indices)
        globs, locs, j = vs.global_pixels, vs.local_pixels, crop.resolve_j()
        want_g, want_l = [], []
        for i in indices:
            rng = np.random.default_rng(tr._view_seed(i))
            image = ds.images[i]
            for _ in range(crop.num_globals):
                want_g.append(ref_render_view(image, mc.global_plan(image.shape[:2], rng, crop)))
            for a, area in enumerate(mc.define_areas(3), start=1):
                for _ in range(j):
                    want_l.append(ref_render_view(image, mc.local_plan(image.shape[:2], area, a,
                                                                      rng, crop)))
        assert (len(globs), len(locs)) == (12, 54)
        assert np.array_equal(globs, np.stack(want_g))
        assert np.array_equal(locs, np.stack(want_l))
