import json
import re

import numpy as np
import pytest

from partssl import multicrop as mc
from partssl import synthetic as sd


def small_spec(**kw):
    base = dict(num_identities=6, images_per_identity=4, cameras=2,
                image_h=32, image_w=16, noise=0.02)
    base.update(kw)
    return sd.SyntheticSpec(**base)


class TestGenerate:
    def test_pure_function_of_spec_and_seed(self):
        a = sd.generate(small_spec(), seed=7)
        b = sd.generate(small_spec(), seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.cams, b.cams)
        c = sd.generate(small_spec(), seed=8)
        assert not np.array_equal(a.images, c.images)

    def test_shapes_and_labels(self):
        ds = sd.generate(small_spec(), seed=0)
        assert ds.images.shape == (24, 32, 16, 3)
        assert set(ds.ids) == set(range(6))
        assert set(ds.cams) == {0, 1}
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_palettes_differ_across_identities(self):
        ds = sd.generate(small_spec(noise=0.0), seed=1)
        # compare the noise-free band colors via per-band mean pixels
        per_id = {}
        b = sd.band_bounds(ds.spec)
        for n in range(len(ds)):
            if ds.cams[n] != 0:
                continue
            bands = [ds.images[n, b[i]:b[i + 1]].mean(axis=(0, 1)) for i in range(3)]
            per_id.setdefault(int(ds.ids[n]), np.concatenate(bands))
        keys = sorted(per_id)
        for i in keys:
            for j in keys:
                if i < j:
                    assert np.linalg.norm(per_id[i] - per_id[j]) > 0.05

    def test_same_identity_consistent_across_cameras(self):
        # camera shifts are fixed transforms, so same-id different-cam images
        # must be closer than different-id same-cam images on average
        ds = sd.generate(small_spec(noise=0.01), seed=3)
        flat = ds.images.reshape(len(ds), -1)
        same_id, diff_id = [], []
        for a in range(len(ds)):
            for b in range(a + 1, len(ds)):
                d = np.linalg.norm(flat[a] - flat[b])
                if ds.ids[a] == ds.ids[b] and ds.cams[a] != ds.cams[b]:
                    same_id.append(d)
                elif ds.ids[a] != ds.ids[b] and ds.cams[a] == ds.cams[b]:
                    diff_id.append(d)
        assert np.mean(same_id) < np.mean(diff_id)

    def test_band_masks_align_with_three_area_geometry(self):
        spec = small_spec()
        areas = mc.define_areas(3)
        H = spec.image_h
        b = sd.band_bounds(spec)
        for band in range(3):
            area = areas[band]
            rows = np.arange(b[band], b[band + 1])
            # the dominant part of each band lies inside its matching area
            inside = [(r + 0.5) / H for r in rows]
            frac_inside = np.mean([area.top_frac <= f <= area.bottom_frac for f in inside])
            assert frac_inside == 1.0 if band != 1 else frac_inside > 0.99

    def test_nearest_neighbor_pixel_classifier_beats_chance(self):
        ds = sd.generate(small_spec(num_identities=8, images_per_identity=6), seed=5)
        flat = ds.images.reshape(len(ds), -1)
        correct = 0
        for n in range(len(ds)):
            d = np.linalg.norm(flat - flat[n], axis=1)
            d[n] = np.inf
            correct += ds.ids[int(np.argmin(d))] == ds.ids[n]
        acc = correct / len(ds)
        assert acc > 1.0 / 8 + 0.2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            sd.generate(small_spec(num_identities=0), seed=0)
        with pytest.raises(ValueError):
            sd.generate(small_spec(band_fracs=(0.7, 0.3)), seed=0)


class TestBandHelpers:
    def test_band_row_weights_sum_to_band_height(self):
        for band in sd.band_intervals(small_spec()):
            w = sd.band_row_weights(grid_h=8, patch_size=4, image_h=32, band=band)
            assert w.sum() * 4 == pytest.approx((band[1] - band[0]) * 32)
            assert (w >= 0).all() and (w <= 1).all()


class TestRasterIO:
    def test_round_trip_within_quantization(self, tmp_path):
        ds = sd.generate(small_spec(num_identities=2, images_per_identity=2), seed=9)
        sd.save_dataset(ds, tmp_path / "data")
        back = sd.load_dataset(tmp_path / "data")
        assert len(back) == len(ds)
        np.testing.assert_array_equal(back.ids, ds.ids)
        np.testing.assert_array_equal(back.cams, ds.cams)
        assert np.abs(back.images - ds.images).max() < 1.0 / 65000
        assert [json.loads(line) for line in (tmp_path / "data" / "manifest.jsonl").open()][0] \
            == {"id": 0, "camera": 0, "path": "img_0000.ppm"}

    def test_other_record_keys_ignored(self, tmp_path):
        # e.g. the band-mask files of older dataset directories
        ds = sd.generate(small_spec(num_identities=2, images_per_identity=2), seed=9)
        root = tmp_path / "data"
        sd.save_dataset(ds, root)
        want = sd.load_dataset(root)
        manifest = root / "manifest.jsonl"
        recs = [json.loads(line) for line in manifest.read_text().splitlines()]
        for n, rec in enumerate(recs):
            rec["mask_path"] = "mask_%04d.pgm" % n
            sd.write_pnm(root / rec["mask_path"], np.zeros((32, 16), dtype=np.uint8), 255)
        manifest.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        got = sd.load_dataset(root)
        np.testing.assert_array_equal(got.images, want.images)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.cams, want.cams)

    @pytest.mark.parametrize("shape,maxval,magic", [((3, 5), 255, b"P5"), ((3, 5, 3), 255, b"P6"),
                                                    ((3, 5), 65535, b"P5"),
                                                    ((3, 5, 3), 65535, b"P6")])
    def test_pnm_round_trip(self, tmp_path, shape, maxval, magic):
        ints = np.random.default_rng(0).integers(0, maxval + 1, size=shape)
        path = tmp_path / "x.pnm"
        sd.write_pnm(path, ints, maxval)
        raw = path.read_bytes()
        header = b"%s\n5 3\n%d\n" % (magic, maxval)
        assert raw.startswith(header)
        assert len(raw) == len(header) + ints.size * (2 if maxval > 255 else 1)
        back, back_max = sd.read_pnm(path)
        assert back_max == maxval
        np.testing.assert_array_equal(back, ints)

    @pytest.mark.parametrize("fault", ["not-json", "no-id", "no-camera", "no-path", "string-id",
                                       "not-pnm", "maxval-0", "grey", "other-size",
                                       "no-lines"])
    def test_corrupt_directory_is_config_error(self, tmp_path, fault):
        ds = sd.generate(small_spec(num_identities=2, images_per_identity=2), seed=9)
        root = tmp_path / "data"
        sd.save_dataset(ds, root)
        manifest = root / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        if fault == "not-json":
            lines[1] = "{id: 1}"
        elif fault.startswith("no-") and fault != "no-lines":
            rec = json.loads(lines[1])
            del rec[fault[3:]]
            lines[1] = json.dumps(rec)
        elif fault == "string-id":
            lines[1] = lines[1].replace('"id": 0', '"id": "0"')
        elif fault == "not-pnm":
            (root / "img_0001.ppm").write_bytes(b"GIF89a\n")
        elif fault == "grey":
            sd.write_pnm(root / "img_0001.ppm", np.zeros((32, 16), dtype=np.uint16), 65535)
        elif fault == "maxval-0":  # would divide every sample by zero
            sd.write_pnm(root / "img_0001.ppm", np.zeros((32, 16, 3), dtype=np.uint8), 0)
        elif fault == "other-size":
            sd.write_pnm(root / "img_0001.ppm", np.zeros((8, 8, 3), dtype=np.uint16), 65535)
        else:
            lines = []
        manifest.write_text("".join(line + "\n" for line in lines))
        message = {"not-json": " line 2: Expecting property name",
                   "not-pnm": " line 2: .*img_0001.ppm: not a binary PGM/PPM",
                   "maxval-0": " line 2: .*img_0001.ppm: maxval 0 is not in 1 .. 65535",
                   "grey": " line 2: img_0001.ppm is not an RGB image",
                   "other-size": " line 2: image img_0001.ppm is 8x8, the first is 32x16",
                   "no-lines": ": lists no images"}.get(fault, " line 2: not a record of an int id")
        with pytest.raises(sd.ConfigError, match=re.escape(str(manifest)) + message):
            sd.load_dataset(root)
