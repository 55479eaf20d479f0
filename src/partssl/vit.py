"""Small vision transformer with a [CLS] token and one learnable token per
local area, plus projection heads on every special token.

Views of different resolutions share the patch projection and positional
embeddings; positions for a non-canonical grid are bilinearly interpolated
from the canonical grid. Special tokens carry no separate positional
embedding (the token vector itself is learned, so an extra additive learned
vector would be redundant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    pass


class LayoutError(ValueError):
    pass


@dataclass
class BackboneConfig:
    image_h: int = 64
    image_w: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    num_parts: int = 3
    proj_dim: int = 256
    mlp_ratio: int = 4
    head_hidden: int = 0      # 0 -> 4 * embed_dim
    head_bottleneck: int = 0  # 0 -> embed_dim
    # special tokens start at unit scale per channel, the scale that each
    # fan-in initialized residual branch adds. A token of norm ~2 (0.3) is
    # swamped by the first block's attention average, which is nearly the
    # same for every special token (norm 5-12): all of them then leave the
    # encoder pointing one way, issue the same queries and cannot specialize
    token_init: float = 1.0

    def validate(self):
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError(
                "image %dx%d not divisible by patch size %d"
                % (self.image_h, self.image_w, self.patch_size))
        if self.embed_dim % self.heads:
            raise ConfigError("embed_dim %d not divisible by heads %d" % (self.embed_dim, self.heads))
        if self.num_parts < 1:
            raise ConfigError("num_parts must be >= 1")
        if self.proj_dim < 2:
            raise ConfigError("proj_dim must be >= 2")
        return self

    @property
    def grid(self):
        return (self.image_h // self.patch_size, self.image_w // self.patch_size)

    @property
    def hidden(self):
        return self.head_hidden or 4 * self.embed_dim

    @property
    def bottleneck(self):
        return self.head_bottleneck or self.embed_dim


class NetworkParams:
    """All learnable weights of one network, addressable by name.

    Iteration order is fixed by construction, so two networks built from the
    same config zip together parameter-by-parameter.
    """

    def __init__(self, cfg, tensors):
        self.cfg = cfg
        self._p = tensors

    @classmethod
    def init(cls, cfg, rng, requires_grad=True):
        cfg.validate()
        C, L = cfg.embed_dim, cfg.num_parts
        gh, gw = cfg.grid
        p = {}

        def add(name, arr):
            p[name] = Tensor(arr, requires_grad=requires_grad)

        def normal(fan_in, fan_out):
            # fan-in scaling keeps activations input-dependent at desk scale,
            # where the usual 0.02 init would let biases drown the signal
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))

        def token(*shape):
            return rng.normal(0.0, 0.02, size=shape)

        patch_w = normal(cfg.patch_size * cfg.patch_size * 3, C)
        add("patch_proj.w", patch_w)
        # pixels lie in [0, 1]; a zero bias would hand every patch the same
        # large mid-grey term (0.5 * column sums of patch_w), so patches look
        # alike, keys cannot tell them apart and every special token reads
        # the same attention average. Centring at mid-grey leaves only colour
        # contrast, which is what identities and parts differ in.
        add("patch_proj.b", -0.5 * patch_w.sum(axis=0))
        add("pos_embed", token(gh * gw, C))
        add("cls_token", cfg.token_init * rng.normal(0.0, 1.0, (1, C)))
        add("part_tokens", cfg.token_init * rng.normal(0.0, 1.0, (L, C)))
        for d in range(cfg.depth):
            pre = "blocks.%d." % d
            add(pre + "ln1.g", np.ones(C))
            add(pre + "ln1.b", np.zeros(C))
            for nm in ("wq", "wk", "wv", "wo"):
                add(pre + "attn." + nm, normal(C, C))
            for nm in ("bq", "bk", "bv", "bo"):
                add(pre + "attn." + nm, np.zeros(C))
            add(pre + "ln2.g", np.ones(C))
            add(pre + "ln2.b", np.zeros(C))
            add(pre + "mlp.w1", normal(C, cfg.mlp_ratio * C))
            add(pre + "mlp.b1", np.zeros(cfg.mlp_ratio * C))
            add(pre + "mlp.w2", normal(cfg.mlp_ratio * C, C))
            add(pre + "mlp.b2", np.zeros(C))
        add("final_ln.g", np.ones(C))
        add("final_ln.b", np.zeros(C))
        for head in ("head_cls", "head_part"):
            pre = head + "."
            add(pre + "w1", normal(C, cfg.hidden))
            add(pre + "b1", np.zeros(cfg.hidden))
            add(pre + "w2", normal(cfg.hidden, cfg.hidden))
            add(pre + "b2", np.zeros(cfg.hidden))
            add(pre + "w3", normal(cfg.hidden, cfg.bottleneck))
            add(pre + "b3", np.zeros(cfg.bottleneck))
            # the bottleneck feeding this layer is unit-norm, so at plain
            # fan-in scale the logits have std 1/sqrt(bottleneck). The step-0
            # teacher is sharpened before the centre has seen a batch, so
            # this scale sets its entropy: at 1x a 16-wide bottleneck under
            # tau_t = 0.04 gives a near one-hot teacher (0.56 of log 32). At
            # 0.1x the teacher starts flat at log K and the first few hundred
            # steps carry little gradient; 0.3x starts it at 65% of log K on
            # that head and at 90% on a 48-wide one
            add(pre + "w4", 0.3 * normal(cfg.bottleneck, cfg.proj_dim))
            add(pre + "b4", np.zeros(cfg.proj_dim))
        return cls(cfg, p)

    def __getitem__(self, name):
        return self._p[name]

    def __contains__(self, name):
        return name in self._p

    def names(self):
        return list(self._p)

    def items(self):
        return self._p.items()

    def tensors(self):
        return list(self._p.values())

    def clone(self, requires_grad=False):
        """Deep copy; used to spawn the momentum-tracked twin network."""
        return NetworkParams(
            self.cfg,
            {k: Tensor(v.data.copy(), requires_grad=requires_grad) for k, v in self._p.items()},
        )

    def state(self):
        return {k: v.data.copy() for k, v in self._p.items()}

    def load_state(self, state):
        for k, v in self._p.items():
            if k not in state:
                raise KeyError("missing parameter %r in state" % k)
            arr = np.asarray(state[k], dtype=T.DTYPE)
            if arr.shape != v.shape:
                raise T.ShapeError("load_state: %s expects %s, got %s" % (k, v.shape, arr.shape))
            v.data = arr.copy()
        return self

    def num_params(self):
        return sum(v.size for v in self._p.values())


# ---------------------------------------------------------------------------
# forward pieces


def patch_grid(h, w, patch_size):
    if h % patch_size or w % patch_size:
        raise ConfigError("view %dx%d not divisible by patch size %d" % (h, w, patch_size))
    return h // patch_size, w // patch_size


def extract_patches(images, patch_size):
    """(B,H,W,3) pixels -> (B, P, patch_size^2*3) row-major patch vectors."""
    images = np.asarray(images, dtype=T.DTYPE)
    if images.ndim == 3:
        images = images[None]
    B, H, W, Ch = images.shape
    gh, gw = patch_grid(H, W, patch_size)
    x = images.reshape(B, gh, patch_size, gw, patch_size, Ch)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(B, gh * gw, patch_size * patch_size * Ch)


def _interp_weights(src, dst, lo_frac=0.0, hi_frac=1.0, mirror=False):
    """1-D bilinear interpolation matrix (dst, src), pixel-center aligned.

    ``lo_frac``/``hi_frac`` restrict the source to a sub-interval (crop-aware
    positions); ``mirror`` reverses the target traversal (horizontal flip).
    """
    m = np.zeros((dst, src))
    if src == 1:
        m[:, 0] = 1.0
        return m
    span = (hi_frac - lo_frac) * src
    pos = lo_frac * src + (np.arange(dst) + 0.5) * (span / dst) - 0.5
    if mirror:
        pos = pos[::-1]
    pos = np.clip(pos, 0.0, src - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, src - 1)
    w = pos - lo
    m[np.arange(dst), lo] += 1.0 - w
    m[np.arange(dst), hi] += w
    return m


def pos_embed_matrix(cfg, view_gh, view_gw, rect=None, mirror=False):
    """Interpolation from the canonical pos-embed grid to a view grid.

    ``rect`` = (top, left, height, width) fractions of the source image maps
    the view onto the matching sub-rectangle of the canonical grid instead of
    stretching it over the whole grid.
    """
    gh, gw = cfg.grid
    top, left, h, w = rect if rect is not None else (0.0, 0.0, 1.0, 1.0)
    my = _interp_weights(gh, view_gh, top, top + h)
    mx = _interp_weights(gw, view_gw, left, left + w, mirror=mirror)
    return np.kron(my, mx)  # (view_gh*view_gw, gh*gw)


def patchify(images, cfg, params, rects=None, mirrors=None):
    """Project patches to embeddings and add (interpolated) positions.

    With ``rects`` (per-view source rectangles as (top, left, h, w) fractions)
    positions are crop-aware: each view gets the sub-grid it was cut from.
    Without it, views are treated as whole images (stretch interpolation),
    which is exact (identity) at the canonical resolution.
    """
    images = np.asarray(images, dtype=T.DTYPE)
    if images.ndim == 3:
        images = images[None]
    B, H, W, _ = images.shape
    vg = patch_grid(H, W, cfg.patch_size)
    patches = Tensor(extract_patches(images, cfg.patch_size))
    emb = patches @ params["patch_proj.w"] + params["patch_proj.b"]
    if rects is not None:
        mirrors = mirrors if mirrors is not None else [False] * B
        mats = np.stack([pos_embed_matrix(cfg, *vg, rect=rects[i], mirror=mirrors[i])
                         for i in range(B)])
        pos = Tensor(mats) @ params["pos_embed"]
    elif vg == cfg.grid:
        pos = params["pos_embed"]  # exact identity at canonical resolution
    else:
        pos = Tensor(pos_embed_matrix(cfg, *vg)) @ params["pos_embed"]
    return emb + pos


def all_parts(batch, num_parts):
    """Part index rows of a global view: every part token, in order."""
    return np.broadcast_to(np.arange(1, num_parts + 1), (batch, num_parts))


def assemble(patches, part_index, params):
    """[CLS] ++ the part tokens of ``part_index`` ++ patch embeddings.

    ``part_index`` is a (B, P) array of 1-based part indices, one row per
    view: ``all_parts`` for global views, (B, 1) area indices for local ones.
    """
    cfg = params.cfg
    idx = np.asarray(part_index, dtype=np.int64)
    B, _, C = patches.shape
    if idx.ndim != 2 or idx.shape[0] != B:
        raise T.ShapeError("assemble: need a (%d, P) part index array, got shape %s"
                           % (B, idx.shape))
    if idx.size and (idx.min() < 1 or idx.max() > cfg.num_parts):
        raise LayoutError("part index outside 1..%d" % cfg.num_parts)
    cls = T.broadcast_to(T.reshape(params["cls_token"], (1, 1, C)), (B, 1, C))
    return T.concatenate([cls, T.gather(params["part_tokens"], idx - 1), patches], axis=1)


def _attention(x, params, pre, cfg, cache):
    B, S, C = x.shape
    h = cfg.heads
    dh = C // h
    q = x @ params[pre + "attn.wq"] + params[pre + "attn.bq"]
    k = x @ params[pre + "attn.wk"] + params[pre + "attn.bk"]
    v = x @ params[pre + "attn.wv"] + params[pre + "attn.bv"]
    q = T.transpose(T.reshape(q, (B, S, h, dh)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (B, S, h, dh)), (0, 2, 1, 3))
    v = T.transpose(T.reshape(v, (B, S, h, dh)), (0, 2, 1, 3))
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    if cache is not None:
        cache.append(np.array(attn.data))
    out = T.matmul(attn, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (B, S, C))
    return out @ params[pre + "attn.wo"] + params[pre + "attn.bo"]


def encode(x, params, attn_cache=None):
    """Pre-norm transformer blocks; preserves sequence length and channels.

    depth=0 is the identity (the final norm is skipped too).
    """
    cfg = params.cfg
    if cfg.depth == 0:
        return x
    for d in range(cfg.depth):
        pre = "blocks.%d." % d
        hn = T.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        x = x + _attention(hn, params, pre, cfg, attn_cache)
        hn = T.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        hid = T.gelu(hn @ params[pre + "mlp.w1"] + params[pre + "mlp.b1"])
        x = x + (hid @ params[pre + "mlp.w2"] + params[pre + "mlp.b2"])
    return T.layer_norm(x, params["final_ln.g"], params["final_ln.b"])


def project(x, params, head):
    """Projection head: 3-layer MLP, L2 normalization, final linear to K."""
    pre = head + "."
    hid = T.gelu(x @ params[pre + "w1"] + params[pre + "b1"])
    hid = T.gelu(hid @ params[pre + "w2"] + params[pre + "b2"])
    hid = hid @ params[pre + "w3"] + params[pre + "b3"]
    hid = T.l2_normalize(hid, axis=-1)
    return hid @ params[pre + "w4"] + params[pre + "b4"]


def forward_tokens(images, part_index, params, attn_cache=None, rects=None, mirrors=None):
    """Full encoder pass; returns [CLS] outputs (B, C) and part outputs
    (B, P, C), ordered as in ``part_index``."""
    patches = patchify(images, params.cfg, params, rects=rects, mirrors=mirrors)
    out = encode(assemble(patches, part_index, params), params, attn_cache=attn_cache)
    return out[:, 0, :], out[:, 1:1 + np.shape(part_index)[1], :]


@dataclass
class AttentionMap:
    token: object            # "cls" or 1-based part index
    layer: int
    weights: np.ndarray      # (S,) over all key positions, sums to 1
    patch_weights: np.ndarray  # (gh, gw) slice of `weights` over patches
    grid: tuple


def attention_map(image, token, layer, params):
    """Last-axis attention of one special token's query, averaged over heads."""
    cfg = params.cfg
    if not 0 <= layer < cfg.depth:
        raise LayoutError("layer %d outside 0..%d" % (layer, cfg.depth - 1))
    if token == "cls":
        row = 0
    else:
        idx = int(token)
        if not 1 <= idx <= cfg.num_parts:
            raise LayoutError("part index %d outside 1..%d" % (idx, cfg.num_parts))
        row = idx  # position after [CLS]
    cache = []
    with T.no_grad():
        img = np.asarray(image, dtype=T.DTYPE)
        forward_tokens(img[None], all_parts(1, cfg.num_parts), params, attn_cache=cache)
    attn = cache[layer][0]  # (heads, S, S)
    weights = attn[:, row, :].mean(axis=0)
    n_special = 1 + cfg.num_parts
    gh, gw = patch_grid(img.shape[0], img.shape[1], cfg.patch_size)
    return AttentionMap(
        token=token,
        layer=layer,
        weights=weights,
        patch_weights=weights[n_special:].reshape(gh, gw),
        grid=(gh, gw),
    )
