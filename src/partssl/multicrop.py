"""Region-constrained multi-crop sampler.

An image yields M global crops from anywhere plus J local crops from each of
L fixed, overlapping, full-width horizontal areas. Local crops keep full
image width when they can; width shrinks only when the crop would otherwise
exceed the 40% image-area cap. Every crop and jitter parameter is a pure
function of the seed, so a view set replays bit-identically.
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

    @property
    def rect_frac(self):
        """(top, left, h, w) as fractions of the source image."""
        H, W = self.source_hw
        return (self.top / H, self.left / W, self.height / H, self.width / W)


@dataclass
class View:
    image: np.ndarray
    area_index: int          # 0 for global views, 1..L for locals
    plan: CropPlan


@dataclass
class ViewSet:
    globals: list
    locals: list

    @property
    def views(self):
        return self.globals + self.locals


# ---------------------------------------------------------------------------
# raster helpers


def pixel_centers(src, dst, lo_frac=0.0, hi_frac=1.0):
    """Source coordinates of ``dst`` pixel centers spread over the [lo_frac,
    hi_frac] span of a ``src``-pixel axis: the one rule of resizing and of
    position interpolation, so crop-aware positions match resized pixels."""
    pos = lo_frac * src + (np.arange(dst) + 0.5) * ((hi_frac - lo_frac) * src / dst) - 0.5
    return np.clip(pos, 0.0, src - 1.0)


def resize_bilinear(img, out_h, out_w):
    """Pixel-center-aligned bilinear resize of an (H,W,C) float image."""
    img = np.asarray(img, dtype=np.float64)
    H, W = img.shape[:2]
    if (H, W) == (out_h, out_w):
        return img.copy()

    def axis_coords(n_src, n_dst):
        pos = pixel_centers(n_src, n_dst)
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


def apply_plan(image, plan):
    """Crop, resize, then photometric ops; output clipped to [0, 1]."""
    crop = image[plan.top:plan.top + plan.height, plan.left:plan.left + plan.width]
    out = resize_bilinear(crop, plan.target[0], plan.target[1])
    if plan.flip:
        out = out[:, ::-1].copy()
    if plan.brightness != 1.0:
        out = out * plan.brightness
    if plan.contrast != 1.0:
        m = out.mean()
        out = (out - m) * plan.contrast + m
    return np.clip(out, 0.0, 1.0)


def _photometric(cfg, rng):
    flip = bool(rng.random() < cfg.flip_p)
    brightness = 1.0 + rng.uniform(-cfg.brightness, cfg.brightness) if cfg.brightness else 1.0
    contrast = 1.0 + rng.uniform(-cfg.contrast, cfg.contrast) if cfg.contrast else 1.0
    return flip, brightness, contrast


def sample_global(image, rng, cfg):
    """Random crop of the whole image, resized to the canonical global size."""
    H, W = image.shape[:2]
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
    plan = CropPlan(top, left, ch, cw, (H, W), cfg.global_size, *_photometric(cfg, rng))
    return View(apply_plan(image, plan), 0, plan)


def sample_local(image, area, area_index, rng, cfg):
    """Random crop constrained to one area's rows, capped at 40% image area."""
    H, W = image.shape[:2]
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
    plan = CropPlan(top, left, h, w, (H, W), cfg.local_size, *_photometric(cfg, rng))
    return View(apply_plan(image, plan), area_index, plan)


def build_view_set(image, cfg, seed):
    """M global + L*J local views, each with its crop plan; replayable from seed."""
    image = np.asarray(image, dtype=np.float64)
    rng = np.random.default_rng(seed)
    areas = define_areas(cfg.num_areas)
    j = cfg.resolve_j()
    globs = [sample_global(image, rng, cfg) for _ in range(cfg.num_globals)]
    locs = []
    for i, area in enumerate(areas, start=1):
        for _ in range(j):
            locs.append(sample_local(image, area, i, rng, cfg))
    return ViewSet(globals=globs, locals=locs)
