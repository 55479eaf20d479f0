import math

import numpy as np
import pytest

from partssl import multicrop as mc


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
        view = mc.sample_global(img, np.random.default_rng(0), cfg)
        assert (view.plan.top, view.plan.left) == (0, 0)
        assert (view.plan.height, view.plan.width) == img.shape[:2]
        np.testing.assert_allclose(view.image, img, atol=1e-12)

    def test_crop_rects_stay_in_bounds(self):
        img = sample_image(1)
        cfg = self.cfg()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v = mc.sample_global(img, rng, cfg)
            p = v.plan
            assert 0 <= p.top and p.top + p.height <= img.shape[0]
            assert 0 <= p.left and p.left + p.width <= img.shape[1]
            assert v.image.shape == (32, 16, 3)

    def test_degenerate_image_raises(self):
        with pytest.raises(mc.AreaError):
            mc.sample_global(np.zeros((1, 8, 3)), np.random.default_rng(0), self.cfg())


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
                v = mc.sample_local(img, area, 2, rng, cfg)
                p = v.plan
                assert p.top >= area.top_frac * H
                assert p.top + p.height <= area.bottom_frac * H

    def test_area_cap_never_exceeded(self):
        img = sample_image(5, h=64, w=32)
        cfg = self.cfg()
        rng = np.random.default_rng(6)
        cap = 0.40 * 64 * 32
        for area in mc.define_areas(3):
            for _ in range(500):
                p = mc.sample_local(img, area, 1, rng, cfg).plan
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
            p = mc.sample_local(img, area, 2, rng, cfg).plan
            assert p.width == W
            assert p.height == int(0.40 * H * W // W)
            assert p.height < 0.5 * H
        # the analytic constraint itself
        area_h = 0.5 * H
        assert 0.40 * H * W / area_h == pytest.approx(0.8 * W)

    def test_area_too_small_raises(self):
        img = sample_image(9, h=16, w=8)
        with pytest.raises(mc.AreaError):
            mc.sample_local(img, mc.AreaSpec(0.5, 0.55), 1, np.random.default_rng(0), self.cfg())

    def test_local_view_resized_to_local_size(self):
        img = sample_image(10, h=64, w=32)
        cfg = self.cfg(local_size=(24, 12))
        v = mc.sample_local(img, mc.define_areas(3)[0], 1, np.random.default_rng(1), cfg)
        assert v.image.shape == (24, 12, 3)


class TestViewSet:
    def test_counts_for_default_config(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        vs = mc.build_view_set(sample_image(11), cfg, seed=0)
        assert len(vs.globals) == 2
        assert len(vs.locals) == 9
        assert len(vs.views) == 11  # M + L*J = 2 + 3*3

    def test_count_contract_across_configs(self):
        img = sample_image(12, h=40, w=20)
        for m in (1, 2):
            for L in (1, 2, 3, 4, 5):
                cfg = mc.MulticropConfig(num_globals=m, num_areas=L,
                                         global_size=(32, 16), local_size=(16, 8))
                vs = mc.build_view_set(img, cfg, seed=3)
                assert len(vs.views) == m + L * cfg.resolve_j()

    def test_local_layouts_carry_their_area_index(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        vs = mc.build_view_set(sample_image(13), cfg, seed=1)
        assert [v.area_index for v in vs.locals] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert [v.area_index for v in vs.globals] == [0, 0]

    def test_same_seed_bit_identical(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        a = mc.build_view_set(sample_image(14), cfg, seed=42)
        b = mc.build_view_set(sample_image(14), cfg, seed=42)
        assert [v.plan for v in a.views] == [v.plan for v in b.views]
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.image, vb.image)

    def test_different_seed_differs(self):
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        a = mc.build_view_set(sample_image(14), cfg, seed=42)
        b = mc.build_view_set(sample_image(14), cfg, seed=43)
        assert [v.plan for v in a.views] != [v.plan for v in b.views]


class TestResize:
    def test_identity(self):
        img = sample_image(16)
        np.testing.assert_array_equal(mc.resize_bilinear(img, 32, 16), img)

    def test_constant_image_stays_constant(self):
        img = np.full((20, 10, 3), 0.37)
        out = mc.resize_bilinear(img, 13, 7)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_upscale_preserves_range(self):
        img = sample_image(17, h=8, w=4)
        out = mc.resize_bilinear(img, 32, 16)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12
