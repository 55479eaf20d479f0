"""Deterministic toy person images with identity-coded horizontal bands.

Each identity gets three band colors (head / torso / legs) plus a stripe
texture; cameras apply fixed photometric shifts; every image adds seeded
noise. Band boundaries sit at fixed height fractions so ground-truth part
regions are known, which makes part-localization claims checkable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# gain and RGB tint per camera index (cycled when cameras > 8)
_CAMERA_GAINS = [1.0, 0.85, 1.15, 0.75, 1.25, 0.9, 1.1, 0.8]
_CAMERA_TINTS = [
    (0.0, 0.0, 0.0), (0.05, -0.03, 0.0), (-0.04, 0.02, 0.04), (0.0, 0.05, -0.05),
    (-0.05, 0.0, 0.03), (0.03, 0.03, -0.03), (-0.02, -0.04, 0.02), (0.04, 0.0, 0.04),
]


@dataclass
class SyntheticSpec:
    num_identities: int = 20
    images_per_identity: int = 8
    cameras: int = 4
    image_h: int = 64
    image_w: int = 32
    band_fracs: tuple = (0.30, 0.65)
    noise: float = 0.03
    # structured per-image noise: every image shifts each band's brightness by
    # an independent draw, so one band's exact appearance is only observable
    # by looking at that band (identities stay decodable from the base palette)
    band_jitter: float = 0.12
    # number of discrete jitter levels (like clothing variants); 0 draws the
    # shift continuously. Discrete levels keep the per-band state space finite
    # and learnable at desk scale
    band_jitter_levels: int = 3
    # band colors come from a small shared pool per band position; single
    # bands are then ambiguous across identities (like clothing colors) and
    # only the combination identifies a person. 0 = unique color per identity
    colors_per_band: int = 4
    occlusion_p: float = 0.0
    min_palette_dist: float = 0.25

    def validate(self):
        if self.num_identities < 1 or self.images_per_identity < 1 or self.cameras < 1:
            raise ValueError("num_identities, images_per_identity and cameras must be >= 1")
        if not 0.0 < self.band_fracs[0] < self.band_fracs[1] < 1.0:
            raise ValueError("band fractions must satisfy 0 < a < b < 1")
        if self.colors_per_band and self.colors_per_band ** 3 < self.num_identities:
            raise ValueError("colors_per_band^3 = %d cannot encode %d identities"
                             % (self.colors_per_band ** 3, self.num_identities))
        return self


@dataclass
class SyntheticDataset:
    images: np.ndarray   # (N, H, W, 3) float64 in [0, 1]
    ids: np.ndarray      # (N,) int
    cams: np.ndarray     # (N,) int
    masks: np.ndarray    # (N, H, W) int8 band index 0/1/2
    spec: SyntheticSpec
    seed: int

    def __len__(self):
        return len(self.images)


def band_bounds(spec):
    h = spec.image_h
    return (0, int(round(spec.band_fracs[0] * h)), int(round(spec.band_fracs[1] * h)), h)


def _sample_palettes(spec, rng):
    """One (3 bands x 3 channels) palette per identity.

    Pool mode (colors_per_band > 0): each band position has its own small
    color pool; identities are distinct pool-index triples, so any single
    band is shared by several identities. Texture is keyed to the pool index
    and therefore adds no identity information beyond the color itself.
    Returns (palettes, textures) with textures (num_identities, 3, 2) holding
    per-band stripe frequency and phase.
    """
    n = spec.num_identities
    if not spec.colors_per_band:
        palettes = []
        for _ in range(n):
            for _attempt in range(1000):
                cand = rng.uniform(0.1, 0.9, size=(3, 3))
                if all(np.linalg.norm(cand - p) >= spec.min_palette_dist for p in palettes):
                    palettes.append(cand)
                    break
            else:
                raise RuntimeError("could not draw %d separated palettes; "
                                   "lower min_palette_dist" % n)
        textures = np.stack([np.stack([rng.integers(1, 5, size=3),
                                       rng.uniform(0, 2 * np.pi, size=3)], axis=1)
                             for _ in range(n)])
        return np.array(palettes), textures

    p = spec.colors_per_band
    pools = np.empty((3, p, 3))
    for band in range(3):
        colors = []
        for _ in range(p):
            for _attempt in range(2000):
                cand = rng.uniform(0.1, 0.9, size=3)
                if all(np.linalg.norm(cand - c) >= spec.min_palette_dist for c in colors):
                    colors.append(cand)
                    break
            else:
                raise RuntimeError("pool of %d colors does not fit; lower "
                                   "min_palette_dist" % p)
        pools[band] = colors
    pool_tex = np.stack([np.stack([rng.integers(1, 5, size=p),
                                   rng.uniform(0, 2 * np.pi, size=p)], axis=1)
                         for _ in range(3)])  # (3, p, 2)
    seen = set()
    triples = []
    while len(triples) < n:
        cand = tuple(int(x) for x in rng.integers(0, p, size=3))
        if cand not in seen:
            seen.add(cand)
            triples.append(cand)
    palettes = np.array([[pools[b, t[b]] for b in range(3)] for t in triples])
    textures = np.array([[pool_tex[b, t[b]] for b in range(3)] for t in triples])
    return palettes, textures


def _base_image(spec, palette, texture):
    H, W = spec.image_h, spec.image_w
    b = band_bounds(spec)
    img = np.empty((H, W, 3))
    mask = np.empty((H, W), dtype=np.int8)
    rows = np.arange(H)
    for band in range(3):
        sl = slice(b[band], b[band + 1])
        img[sl] = palette[band]
        mask[sl] = band
        freq, phase = texture[band]
        stripes = 0.08 * np.sin(2 * np.pi * freq * rows[sl] / H + phase)
        img[sl] += stripes[:, None, None]
    return img, mask


def generate(spec, seed):
    """Pure function of (spec, seed) -> labeled image set with band masks."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    palettes, textures = _sample_palettes(spec, rng)

    images, ids, cams, masks = [], [], [], []
    H, W = spec.image_h, spec.image_w
    bounds = band_bounds(spec)
    for ident in range(spec.num_identities):
        base, mask = _base_image(spec, palettes[ident], textures[ident])
        for k in range(spec.images_per_identity):
            cam = k % spec.cameras
            gain = _CAMERA_GAINS[cam % len(_CAMERA_GAINS)]
            tint = np.array(_CAMERA_TINTS[cam % len(_CAMERA_TINTS)])
            img = base.copy()
            if spec.band_jitter:
                for band in range(3):
                    if spec.band_jitter_levels:
                        n_lv = spec.band_jitter_levels
                        level = rng.integers(0, n_lv)
                        shift = spec.band_jitter * (2.0 * level / (n_lv - 1) - 1.0) if n_lv > 1 else 0.0
                    else:
                        shift = rng.uniform(-spec.band_jitter, spec.band_jitter, size=3)
                    img[bounds[band]:bounds[band + 1]] += shift
            img = img * gain + tint
            img = img + rng.normal(0.0, spec.noise, size=img.shape)
            if spec.occlusion_p and rng.random() < spec.occlusion_p:
                oh = int(rng.integers(H // 8, H // 3))
                ow = int(rng.integers(W // 4, W // 2 + 1))
                top = int(rng.integers(0, H - oh + 1))
                left = int(rng.integers(0, W - ow + 1))
                img[top:top + oh, left:left + ow] = 0.5
            images.append(np.clip(img, 0.0, 1.0))
            ids.append(ident)
            cams.append(cam)
            masks.append(mask)
    return SyntheticDataset(
        images=np.array(images),
        ids=np.array(ids, dtype=np.int64),
        cams=np.array(cams, dtype=np.int64),
        masks=np.array(masks),
        spec=spec,
        seed=seed,
    )


def band_row_weights(grid_h, patch_size, image_h, band):
    """Fraction of each patch row's pixels inside a ground-truth band.

    Bands are indexed 0/1/2 with boundaries from the generating spec's
    fractions; used to score attention mass against band geometry.
    """
    lo_frac, hi_frac = band
    lo_px, hi_px = lo_frac * image_h, hi_frac * image_h
    weights = np.zeros(grid_h)
    for r in range(grid_h):
        top, bottom = r * patch_size, (r + 1) * patch_size
        overlap = max(0.0, min(bottom, hi_px) - max(top, lo_px))
        weights[r] = overlap / patch_size
    return weights


def band_intervals(spec):
    """[(lo_frac, hi_frac)] for the three bands."""
    a, b = spec.band_fracs
    return [(0.0, a), (a, b), (b, 1.0)]


# ---------------------------------------------------------------------------
# on-disk form: 16-bit binary PPM/PGM rasters plus a JSONL manifest


def _write_ppm16(path, img):
    arr = np.clip(np.asarray(img) * 65535.0 + 0.5, 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n65535\n" % (img.shape[1], img.shape[0]))
        fh.write(arr.tobytes())


def _read_ppm16(path):
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P6":
            raise ValueError("%s: not a binary PPM" % path)
        w, h = map(int, fh.readline().split())
        maxval = int(fh.readline())
        arr = np.frombuffer(fh.read(), dtype=">u2").reshape(h, w, 3)
    return arr.astype(np.float64) / maxval


def _write_pgm8(path, mask):
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (mask.shape[1], mask.shape[0]))
        fh.write(np.asarray(mask, dtype=np.uint8).tobytes())


def _read_pgm8(path):
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError("%s: not a binary PGM" % path)
        w, h = map(int, fh.readline().split())
        fh.readline()
        return np.frombuffer(fh.read(), dtype=np.uint8).reshape(h, w).astype(np.int8)


def save_dataset(ds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for n in range(len(ds)):
        img_path = "img_%04d.ppm" % n
        mask_path = "mask_%04d.pgm" % n
        _write_ppm16(os.path.join(out_dir, img_path), ds.images[n])
        _write_pgm8(os.path.join(out_dir, mask_path), ds.masks[n])
        records.append({
            "id": int(ds.ids[n]), "camera": int(ds.cams[n]),
            "path": img_path, "mask_path": mask_path,
        })
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return out_dir


def load_dataset(in_dir):
    images, ids, cams, masks = [], [], [], []
    with open(os.path.join(in_dir, "manifest.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            images.append(_read_ppm16(os.path.join(in_dir, rec["path"])))
            masks.append(_read_pgm8(os.path.join(in_dir, rec["mask_path"])))
            ids.append(rec["id"])
            cams.append(rec["camera"])
    images = np.array(images)
    h, w = images.shape[1:3]
    spec = SyntheticSpec(num_identities=len(set(ids)), cameras=len(set(cams)),
                         image_h=h, image_w=w)
    return SyntheticDataset(images=images, ids=np.array(ids), cams=np.array(cams),
                            masks=np.array(masks), spec=spec, seed=-1)
