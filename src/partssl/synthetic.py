"""Deterministic toy person images with identity-coded horizontal bands.

Each identity gets three band colors (head / torso / legs) plus a stripe
texture; cameras apply fixed photometric shifts; every image adds seeded
noise. Band boundaries sit at fixed height fractions (``band_bounds``,
``band_intervals``) so ground-truth part regions are known, which makes
part-localization claims checkable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .vit import ConfigError

# gain and RGB tint per camera index (cycled when cameras > 8)
_CAMERA_GAINS = [1.0, 0.85, 1.15, 0.75, 1.25, 0.9, 1.1, 0.8]
_CAMERA_TINTS = [
    (0.0, 0.0, 0.0), (0.05, -0.03, 0.0), (-0.04, 0.02, 0.04), (0.0, 0.05, -0.05),
    (-0.05, 0.0, 0.03), (0.03, 0.03, -0.03), (-0.02, -0.04, 0.02), (0.04, 0.0, 0.04),
]
# band colors come from a small shared pool per band position; single bands
# are then ambiguous across identities (like clothing colors) and only the
# combination identifies a person, so at most COLORS_PER_BAND**3 identities
COLORS_PER_BAND = 4
_MIN_PALETTE_DIST = 0.25      # least RGB distance between two pool colors
# discrete band-brightness levels (like clothing variants) keep the per-band
# state space finite and learnable at desk scale
_JITTER_LEVELS = 3


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
    # one of _JITTER_LEVELS independent steps, so one band's exact appearance
    # is only observable by looking at that band (identities stay decodable
    # from the base palette)
    band_jitter: float = 0.12

    def validate(self):
        if self.num_identities < 1 or self.images_per_identity < 1 or self.cameras < 1:
            raise ValueError("num_identities, images_per_identity and cameras must be >= 1")
        if not 0.0 < self.band_fracs[0] < self.band_fracs[1] < 1.0:
            raise ValueError("band fractions must satisfy 0 < a < b < 1")
        if COLORS_PER_BAND ** 3 < self.num_identities:
            raise ValueError("COLORS_PER_BAND^3 = %d cannot encode %d identities"
                             % (COLORS_PER_BAND ** 3, self.num_identities))
        return self


@dataclass
class SyntheticDataset:
    images: np.ndarray   # (N, H, W, 3) float64 in [0, 1]
    ids: np.ndarray      # (N,) int
    cams: np.ndarray     # (N,) int
    spec: SyntheticSpec

    def __len__(self):
        return len(self.images)


def band_bounds(spec):
    h = spec.image_h
    return (0, int(round(spec.band_fracs[0] * h)), int(round(spec.band_fracs[1] * h)), h)


def _sample_palettes(spec, rng):
    """One (3 bands x 3 channels) palette per identity.

    Each band position has its own small color pool; identities are distinct
    pool-index triples, so any single band is shared by several identities.
    Texture is keyed to the pool index and therefore adds no identity
    information beyond the color itself. Returns (palettes, textures) with
    textures (num_identities, 3, 2) holding per-band stripe frequency and
    phase.
    """
    n = spec.num_identities
    p = COLORS_PER_BAND
    pools = np.empty((3, p, 3))
    for band in range(3):
        colors = []
        for _ in range(p):
            for _attempt in range(2000):
                cand = rng.uniform(0.1, 0.9, size=3)
                if all(np.linalg.norm(cand - c) >= _MIN_PALETTE_DIST for c in colors):
                    colors.append(cand)
                    break
            else:
                raise RuntimeError("pool of %d colors does not fit; lower "
                                   "_MIN_PALETTE_DIST" % p)
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
    rows = np.arange(H)
    for band in range(3):
        sl = slice(b[band], b[band + 1])
        img[sl] = palette[band]
        freq, phase = texture[band]
        stripes = 0.08 * np.sin(2 * np.pi * freq * rows[sl] / H + phase)
        img[sl] += stripes[:, None, None]
    return img


def generate(spec, seed):
    """Pure function of (spec, seed) -> labeled image set."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    palettes, textures = _sample_palettes(spec, rng)

    images, ids, cams = [], [], []
    bounds = band_bounds(spec)
    for ident in range(spec.num_identities):
        base = _base_image(spec, palettes[ident], textures[ident])
        for k in range(spec.images_per_identity):
            cam = k % spec.cameras
            gain = _CAMERA_GAINS[cam % len(_CAMERA_GAINS)]
            tint = np.array(_CAMERA_TINTS[cam % len(_CAMERA_TINTS)])
            img = base.copy()
            if spec.band_jitter:
                for band in range(3):
                    level = rng.integers(0, _JITTER_LEVELS)
                    shift = spec.band_jitter * (2.0 * level / (_JITTER_LEVELS - 1) - 1.0)
                    img[bounds[band]:bounds[band + 1]] += shift
            img = img * gain + tint
            img = img + rng.normal(0.0, spec.noise, size=img.shape)
            images.append(np.clip(img, 0.0, 1.0))
            ids.append(ident)
            cams.append(cam)
    return SyntheticDataset(
        images=np.array(images),
        ids=np.array(ids, dtype=np.int64),
        cams=np.array(cams, dtype=np.int64),
        spec=spec,
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
# on-disk form: binary PGM/PPM rasters plus a JSONL manifest


def write_pnm(path, ints, maxval):
    """Binary PGM (2-D array) or PPM (3-D, RGB) of integer samples; samples
    are 16-bit big-endian when ``maxval`` is above 255, else one byte."""
    ints = np.asarray(ints)
    magic = b"P5" if ints.ndim == 2 else b"P6"
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n%d\n" % (magic, ints.shape[1], ints.shape[0], maxval))
        fh.write(ints.astype(">u2" if maxval > 255 else np.uint8).tobytes())


def read_pnm(path):
    """(samples, maxval) of a file written by ``write_pnm``."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic not in (b"P5", b"P6"):
            raise ValueError("%s: not a binary PGM/PPM" % path)
        w, h = map(int, fh.readline().split())
        maxval = int(fh.readline())
        if not 1 <= maxval <= 65535:
            raise ValueError("%s: maxval %d is not in 1 .. 65535" % (path, maxval))
        ints = np.frombuffer(fh.read(), dtype=">u2" if maxval > 255 else np.uint8)
    return ints.reshape((h, w) if magic == b"P5" else (h, w, 3)), maxval


def save_dataset(ds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for n in range(len(ds)):
        img_path = "img_%04d.ppm" % n
        write_pnm(os.path.join(out_dir, img_path),
                  np.clip(ds.images[n] * 65535.0 + 0.5, 0, 65535).astype(np.uint16), 65535)
        records.append({"id": int(ds.ids[n]), "camera": int(ds.cams[n]), "path": img_path})
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return out_dir


def manifest_path(in_dir):
    """The manifest of a dataset directory; a missing one is a config error."""
    path = os.path.join(in_dir, "manifest.jsonl")
    if not os.path.isfile(path):
        raise ConfigError("data.path: no dataset manifest %s" % path)
    return path


_MANIFEST_TYPES = {"id": int, "camera": int, "path": str}


def load_dataset(in_dir):
    """The dataset of a directory written by ``save_dataset``. A manifest line
    that is not such a record, or names an image that is unreadable or of
    another size than the first, is a config error naming the line; a
    missing file is an OSError. Other record keys are ignored."""
    images, ids, cams = [], [], []
    path = manifest_path(in_dir)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                if not (isinstance(rec, dict)
                        and all(type(rec.get(k)) is t for k, t in _MANIFEST_TYPES.items())):
                    raise ValueError("not a record of an int id and camera, and a path")
                img, maxval = read_pnm(os.path.join(in_dir, rec["path"]))
                if img.ndim != 3:
                    raise ValueError("%s is not an RGB image" % rec["path"])
                if images and img.shape != images[0].shape:
                    raise ValueError("image %s is %dx%d, the first is %dx%d"
                                     % (rec["path"], *img.shape[:2], *images[0].shape[:2]))
            except ValueError as exc:  # also JSON and PNM errors
                raise ConfigError("%s line %d: %s" % (path, lineno, exc)) from None
            images.append(img.astype(np.float64) / maxval)
            ids.append(rec["id"])
            cams.append(rec["camera"])
    if not images:
        raise ConfigError("%s: lists no images" % path)
    images = np.array(images)
    h, w = images.shape[1:3]
    spec = SyntheticSpec(num_identities=len(set(ids)), cameras=len(set(cams)),
                         image_h=h, image_w=w)
    return SyntheticDataset(images=images, ids=np.array(ids), cams=np.array(cams), spec=spec)
