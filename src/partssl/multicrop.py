"""Region-constrained multi-crop sampler.

An image yields M global crops from anywhere plus J local crops from each of
L fixed, overlapping, full-width horizontal areas. Local crops keep full
image width when they can; width shrinks only when the crop would otherwise
exceed the 40% image-area cap. Every crop and jitter parameter is a pure
function of the seed, so a view set replays bit-identically. Plans are
drawn image by image; then one vectorised pass cuts, resizes and jitters all
views of one size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


POS_MODES = ("stretch", "crop")


class AreaError(ValueError):
    pass


@dataclass(frozen=True)
class AreaSpec:
    top_frac: float
    bottom_frac: float

    def __post_init__(self):
        if not (0.0 <= self.top_frac < self.bottom_frac <= 1.0):
            raise AreaError("invalid area fractions (%.3f, %.3f)" % (self.top_frac, self.bottom_frac))


@dataclass
class MulticropConfig:
    num_globals: int = 2          # M
    num_areas: int = 3            # L
    views_per_area: int = 0       # J; 0 -> derived as ceil(9 / L)
    global_size: tuple = (64, 32)
    local_size: tuple = (24, 12)
    global_scale: tuple = (0.4, 1.0)
    local_scale: tuple = (0.05, 0.40)
    flip_p: float = 0.5
    # DINO's colour-jitter strengths. Views of one image that differ more in
    # level and contrast keep the teacher from sharpening on one batch: with
    # the 0.3x head layer and +-0.2, a small centred run dipped to 25% of
    # log K; at +-0.4 its minimum is 50% of log K
    brightness: float = 0.4
    contrast: float = 0.4
    # "stretch": views are positioned as whole images (standard resolution
    # interpolation); "crop": views keep the positions of their source
    # rectangle, which anchors part tokens at small scale
    pos_mode: str = "stretch"

    def resolve_j(self):
        return self.views_per_area if self.views_per_area else views_per_area(self.num_areas)


def views_per_area(num_areas):
    """J = ceil(9 / L)."""
    if num_areas < 1:
        raise AreaError("need at least one local area")
    return math.ceil(9 / num_areas)


def define_areas(num_areas):
    """L equal-height, uniformly spaced, overlapping full-width areas.

    Heights: 1.0 for L=1, 0.70 for L=2, 2/(L+1) for L>=3 (0.50 at L=3).
    """
    if not 1 <= num_areas <= 5:
        raise AreaError("unsupported area count %d (expected 1..5)" % num_areas)
    if num_areas == 1:
        return [AreaSpec(0.0, 1.0)]
    height = 0.70 if num_areas == 2 else 2.0 / (num_areas + 1)
    step = (1.0 - height) / (num_areas - 1)
    return [AreaSpec(round(i * step, 12), round(i * step + height, 12)) for i in range(num_areas)]


@dataclass
class CropPlan:
    top: int
    left: int
    height: int
    width: int
    source_hw: tuple
    target: tuple
    flip: bool
    brightness: float
    contrast: float
    area: int = 0            # 0 for global views, 1..L for locals

    @property
    def rect_frac(self):
        """(top, left, h, w) as fractions of the source image."""
        H, W = self.source_hw
        return (self.top / H, self.left / W, self.height / H, self.width / W)


@dataclass
class ViewSet:
    globals: list            # CropPlan per global crop, image-major
    locals: list             # CropPlan per local crop, image-major, areas in order
    global_pixels: np.ndarray  # the globals' images stacked: (len(globals), *global_size, C)
    local_pixels: np.ndarray   # the locals' images stacked: (len(locals), *local_size, C)


# ---------------------------------------------------------------------------
# raster helpers


def pixel_centers(src, dst, lo_frac=0.0, hi_frac=1.0):
    """Source coordinates of ``dst`` pixel centers spread over the [lo_frac,
    hi_frac] span of a ``src``-pixel axis: the one rule of resizing and of
    position interpolation, so crop-aware positions match resized pixels.
    An (N, 1) array of sizes gives one row of centers per size."""
    pos = lo_frac * src + (np.arange(dst) + 0.5) * ((hi_frac - lo_frac) * src / dst) - 0.5
    return np.clip(pos, 0.0, src - 1.0)


def _resample(images, plans, owners):
    """Crop, pixel-center bilinear resize and flip of every plan, stacked
    (N, *target, C): plan k cuts ``images[owners[k]]``. All plans share one
    target size.

    Separable and exact: every crop row is first resized in x (a bilinear
    output row blends two such rows, by the same products), then each output
    row blends its two rows in y. A crop of the target size is copied, not
    interpolated. Also returns which views are flipped or copied: resizing
    one of those alone leaves it in C order, any other W-major.
    """
    images = [np.asarray(im, dtype=np.float64) for im in images]
    th, tw = plans[0].target
    C = images[0].shape[2]
    n = len(plans)
    owners = np.asarray(owners)
    pixels = np.concatenate([im.reshape(-1, C) for im in images])  # images end to end
    first = np.cumsum([0] + [im.shape[0] * im.shape[1] for im in images])[owners]
    width = np.asarray([im.shape[1] for im in images])[owners]
    top, left, h, w = np.asarray([(p.top, p.left, p.height, p.width) for p in plans]).T
    flip = np.asarray([p.flip for p in plans], dtype=bool)
    same = (h == th) & (w == tw)

    def axis(n_src, n_dst):
        pos = pixel_centers(n_src[:, None], n_dst)
        lo = np.floor(pos).astype(int)
        return lo, np.minimum(lo + 1, n_src[:, None] - 1), pos - lo

    y0, y1, wy = axis(h, th)
    x0, x1, wx = axis(w, tw)
    for arr in (x0, x1, wx):
        arr[flip] = arr[flip, ::-1]
    x0 += left[:, None]
    x1 += left[:, None]
    r = np.minimum(np.arange(h.max()), h[:, None] - 1)  # (n, R) crop rows, padded
    row_start = (first[:, None] + (top[:, None] + r) * width[:, None])[:, :, None]
    a = pixels.take(row_start + x0[:, None, :], axis=0)  # (n, R, tw, C)
    rows = a * (1 - wx[:, None, :, None])
    rows += pixels.take(row_start + x1[:, None, :], axis=0) * wx[:, None, :, None]
    rows = rows.reshape(-1, tw * C)
    offset = np.arange(n)[:, None] * r.shape[1]
    wy = wy[:, :, None]
    out = rows.take(offset + y0, axis=0)
    out *= 1 - wy
    bot = rows.take(offset + y1, axis=0)
    bot *= wy
    out += bot
    out = out.reshape(n, th, tw, C)
    if same.any():
        out[same] = a[same, :th]
    return out, flip | same


def render(images, plans, owners):
    """Every plan's view, stacked (N, *target, C): crop, resize, flip, then
    brightness and contrast about the view's mean, clipped to [0, 1].

    A view's mean is summed in the memory order that resizing the view alone
    leaves it in (C order when flipped or copied, W-major when interpolated):
    every pixel equals the view-by-view formulas that tests/test_multicrop.py
    keeps, bit for bit."""
    out, c_order = _resample(images, plans, owners)
    out *= np.asarray([p.brightness for p in plans])[:, None, None, None]
    contrast = np.asarray([p.contrast for p in plans])
    jitter = contrast != 1.0  # contrast 1.0 leaves a view as it is
    m = np.zeros(len(plans))  # axis orders: C order, then W-major
    for order, sel in (((0, 1, 2, 3), jitter & c_order), ((0, 2, 1, 3), jitter & ~c_order)):
        m[sel] = out[sel].transpose(order).reshape(-1, out[0].size).mean(axis=1)
    m = m[:, None, None, None]
    sel = jitter[:, None, None, None]
    np.subtract(out, m, out=out, where=sel)
    np.multiply(out, contrast[:, None, None, None], out=out, where=sel)
    np.add(out, m, out=out, where=sel)
    return np.clip(out, 0.0, 1.0, out=out)


def resize_batch(images, out_h, out_w):
    """Every image of a batch resized whole to out_h x out_w (no clipping)."""
    plans = [CropPlan(0, 0, im.shape[0], im.shape[1], im.shape[:2], (out_h, out_w),
                      False, 1.0, 1.0) for im in images]
    return _resample(images, plans, np.arange(len(plans)))[0]


def _photometric(cfg, rng):
    flip = bool(rng.random() < cfg.flip_p)
    brightness = 1.0 + rng.uniform(-cfg.brightness, cfg.brightness) if cfg.brightness else 1.0
    contrast = 1.0 + rng.uniform(-cfg.contrast, cfg.contrast) if cfg.contrast else 1.0
    return flip, brightness, contrast


def global_plan(hw, rng, cfg):
    """Random crop of a whole H x W image, to be resized to the global size."""
    H, W = hw
    if H < 2 or W < 2:
        raise AreaError("degenerate image dims %dx%d" % (H, W))
    lo, hi = cfg.global_scale
    base_aspect = H / W
    ch, cw = H, W
    for _ in range(10):
        frac = rng.uniform(lo, hi)
        aspect = base_aspect * rng.uniform(0.75, 4.0 / 3.0)
        area = frac * H * W
        h = int(round(math.sqrt(area * aspect)))
        w = int(round(math.sqrt(area / aspect)))
        if 2 <= h <= H and 2 <= w <= W:
            ch, cw = h, w
            break
    top = int(rng.integers(0, H - ch + 1))
    left = int(rng.integers(0, W - cw + 1))
    return CropPlan(top, left, ch, cw, (H, W), cfg.global_size, *_photometric(cfg, rng))


def local_plan(hw, area, index, rng, cfg):
    """Random crop in the rows of ``area``, local area ``index`` (1..L), capped at 40%."""
    H, W = hw
    row_lo = int(math.ceil(area.top_frac * H))
    row_hi = int(math.floor(area.bottom_frac * H))
    area_h = row_hi - row_lo
    if area_h < 2:
        raise AreaError("area (%.2f, %.2f) too small for a crop in a %dpx-tall image"
                        % (area.top_frac, area.bottom_frac, H))
    frac = rng.uniform(*cfg.local_scale)
    target_area = frac * H * W
    h = int(target_area // W)  # full width preferred for tall person images
    w = W
    if h > area_h:
        h = area_h
        w = min(W, int(target_area // h))
    h = max(h, 2)
    w = max(w, 2)
    top = int(rng.integers(row_lo, row_hi - h + 1))
    left = int(rng.integers(0, W - w + 1))
    return CropPlan(top, left, h, w, (H, W), cfg.local_size, *_photometric(cfg, rng), index)


def build_view_set(images, cfg, seeds):
    """M global + L*J local crop plans of every image, image-major, with
    their views. Image n's plans replay from ``seeds[n]``; the views of each
    size are rendered in one call."""
    images = [np.asarray(im, dtype=np.float64) for im in images]
    areas = define_areas(cfg.num_areas)
    j = cfg.resolve_j()
    globs, locs = [], []
    for image, seed in zip(images, seeds):
        rng = np.random.default_rng(seed)
        hw = image.shape[:2]
        globs += [global_plan(hw, rng, cfg) for _ in range(cfg.num_globals)]
        for i, area in enumerate(areas, start=1):
            locs += [local_plan(hw, area, i, rng, cfg) for _ in range(j)]
    owners = np.arange(len(images))
    return ViewSet(globs, locs, render(images, globs, owners.repeat(cfg.num_globals)),
                   render(images, locs, owners.repeat(len(areas) * j)))
