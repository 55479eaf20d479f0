"""Supervised fine-tuning: fused [CLS]/part features into a BN-neck identity
classifier, trained with cross-entropy plus batch-hard triplet loss.

At test time the embedding is the post-batchnorm, pre-classifier feature;
the triplet loss mines on the pre-batchnorm fused feature, both per the
usual strong-baseline convention.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vit
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .multicrop import resize_batch
from .optim import AdamW, keep_record, warmup_cosine_lr
from .tensor import Tensor

FUSION_STRATEGIES = ("concat_all", "mean_all", "concat_cls_meanpart")
EXTRACT_BATCH = 32  # images per forward pass of ``extract_embeddings``


class FusionError(ValueError):
    pass


class BatchCompositionError(ValueError):
    pass


def fused_dim(strategy, num_parts, embed_dim):
    if strategy == "concat_all":
        return (num_parts + 1) * embed_dim
    if strategy == "mean_all":
        return embed_dim
    if strategy == "concat_cls_meanpart":
        return 2 * embed_dim
    raise FusionError("unknown fusion strategy %r (expected one of %s)"
                      % (strategy, ", ".join(FUSION_STRATEGIES)))


def fuse(cls_out, part_outs, strategy):
    """Combine [CLS] (B,C) with part outputs (B,L,C) into one embedding."""
    L = part_outs.shape[1]
    if strategy == "concat_all":
        parts = T.reshape(part_outs * (1.0 / L), (part_outs.shape[0], -1))
        return T.concatenate([cls_out, parts], axis=-1)
    mean_part = T.mean(part_outs, axis=1)
    if strategy == "mean_all":
        return (cls_out + mean_part) * 0.5
    if strategy == "concat_cls_meanpart":
        return T.concatenate([cls_out, mean_part], axis=-1)
    raise FusionError("unknown fusion strategy %r (expected one of %s)"
                      % (strategy, ", ".join(FUSION_STRATEGIES)))


class ReidHead:
    """Feature batchnorm followed by a bias-free linear identity classifier."""

    bn_momentum, eps = 0.1, 1e-5  # running-statistics update, variance floor

    def __init__(self, dim, num_ids, rng):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.classifier = Tensor(rng.normal(0, 1.0 / np.sqrt(dim), (dim, num_ids)),
                                 requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def named_params(self):
        return [("head.bn.gamma", self.gamma), ("head.bn.beta", self.beta),
                ("head.classifier", self.classifier)]

    def embed(self, features, training):
        """BN neck; batch statistics while training, running ones at eval."""
        if training:
            mu = T.mean(features, axis=0)
            centered = features - mu
            var = T.mean(centered * centered, axis=0)
            xhat = centered / T.sqrt(var + self.eps)
            m = self.bn_momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.data
            self.running_var = (1 - m) * self.running_var + m * var.data
        else:
            xhat = (features - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return xhat * self.gamma + self.beta

    def class_logits(self, embedded):
        return embedded @ self.classifier

    def state(self):
        return {"head.bn.gamma": self.gamma.data.copy(),
                "head.bn.beta": self.beta.data.copy(),
                "head.classifier": self.classifier.data.copy(),
                "head.bn.running_mean": self.running_mean.copy(),
                "head.bn.running_var": self.running_var.copy()}

    def load_state(self, state):
        self.gamma.data = np.asarray(state["head.bn.gamma"], dtype=np.float64).copy()
        self.beta.data = np.asarray(state["head.bn.beta"], dtype=np.float64).copy()
        self.classifier.data = np.asarray(state["head.classifier"], dtype=np.float64).copy()
        self.running_mean = np.asarray(state["head.bn.running_mean"], dtype=np.float64).copy()
        self.running_var = np.asarray(state["head.bn.running_var"], dtype=np.float64).copy()


def id_loss(logits, labels):
    """Mean negative log probability of the ground-truth identity."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("identity label outside 0..%d" % (k - 1))
    return -T.mean(T.log_softmax(logits, axis=-1)[np.arange(n), labels])


def _pairwise_dist_t(emb, eps=1e-12):
    sq = T.sum_(emb * emb, axis=1, keepdims=True)
    sq_t = T.transpose(sq)
    cross = emb @ T.transpose(emb)
    d2 = T.relu(sq + sq_t - 2.0 * cross)
    return T.sqrt(d2 + eps)


def batch_hard_triplet(embeddings, labels, margin=0.3):
    """Hinge on (hardest positive - hardest negative + margin), batch mean."""
    labels = np.asarray(labels)
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    positive = same & ~np.eye(n, dtype=bool)
    n_ids = len(np.unique(labels))
    if n_ids < 2:  # with two, every anchor has a negative
        raise BatchCompositionError("batch needs at least 2 identities, got %d" % n_ids)
    if not positive.any(axis=1).all():
        bad = int(np.argmin(positive.any(axis=1)))
        raise BatchCompositionError(
            "anchor %d (identity %s) has no positive in the batch" % (bad, labels[bad]))
    d = _pairwise_dist_t(embeddings)
    rows = np.arange(n)
    d_pos = d[rows, np.where(positive, d.data, -np.inf).argmax(axis=1)]
    d_neg = d[rows, np.where(same, np.inf, d.data).argmin(axis=1)]
    return T.mean(T.relu(d_pos - d_neg + margin))


# ---------------------------------------------------------------------------
# training loop


@dataclass
class FinetuneConfig:
    steps: int = 300
    ids_per_batch: int = 4
    samples_per_id: int = 4
    lr: float = 0.0         # 0 -> 0.0004 * batch / 64 rule
    fusion: str = "concat_cls_meanpart"

    def resolve_lr(self):
        if self.lr:
            return self.lr
        return 0.0004 * (self.ids_per_batch * self.samples_per_id) / 64.0


def pk_batch(rng, pools, ids_per_batch, samples_per_id):
    """P x K batch: P pools drawn without replacement, K rows from each (with
    replacement only from a pool smaller than K). Returns the rows and, per
    row, the index of its pool."""
    picked = rng.choice(len(pools), size=min(ids_per_batch, len(pools)), replace=False)
    rows = []
    for c in picked:
        pool = pools[c]
        take = rng.choice(pool, size=samples_per_id, replace=len(pool) < samples_per_id)
        rows.extend(int(r) for r in take)
    return np.array(rows), np.repeat(picked, samples_per_id)


def forward_embeddings(params, images, fusion, flip_mask=None):
    """Backbone forward with [CLS] and every part token, then feature fusion,
    in the images' dtype (float32 stays float32, anything else is float64)."""
    cfg = params.cfg
    images = T.asarray(images)
    if images.shape[1:3] != (cfg.image_h, cfg.image_w):
        images = resize_batch(images, cfg.image_h, cfg.image_w).astype(images.dtype, copy=False)
    if flip_mask is not None:
        images = images.copy()
        images[flip_mask] = images[flip_mask, :, ::-1]
    cls_out, part_out = vit.forward_tokens(images, vit.all_parts(len(images), cfg.num_parts),
                                           params)
    return fuse(cls_out, part_out, fusion)


class FinetuneTrainer:
    """Trains the full backbone (tokens included) plus a fresh ReID head."""

    def __init__(self, params, ft_cfg, images, ids, seed, log_path=None):
        self.params = params
        self.cfg = params.cfg
        self.ft = ft_cfg
        self.images = np.asarray(images, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.classes = np.unique(self.ids)
        if len(self.classes) < 2:
            raise BatchCompositionError("fine-tuning needs at least 2 identities")
        self.pools = [np.where(self.ids == c)[0] for c in self.classes]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF17E]))
        dim = fused_dim(ft_cfg.fusion, self.cfg.num_parts, self.cfg.embed_dim)
        self.head = ReidHead(dim, len(self.classes), rng)
        named = params.backbone_items() + self.head.named_params()
        self.optimizer = AdamW(named, lr=ft_cfg.resolve_lr(), weight_decay=0.01)
        self.rng = rng
        self.step_count = 0
        self.log = []
        self.log_path = log_path

    def finetune_step(self):
        # labels are positions in the sorted class list: the classifier rows
        rows, labels = pk_batch(self.rng, self.pools, self.ft.ids_per_batch,
                                self.ft.samples_per_id)
        flip = self.rng.random(len(rows)) < 0.5
        feats = forward_embeddings(self.params, self.images[rows], self.ft.fusion, flip)
        tri = batch_hard_triplet(feats, labels)
        neck = self.head.embed(feats, training=True)
        ce = id_loss(self.head.class_logits(neck), labels)
        loss = ce + tri
        self.optimizer.lr = warmup_cosine_lr(
            self.step_count, self.ft.steps, self.ft.resolve_lr(), int(0.1 * self.ft.steps))
        grad_norm = self.optimizer.minimize(loss, 5.0, "fine-tune step %d" % self.step_count)
        rec = keep_record(self.log, self.log_path, {
            "step": self.step_count, "loss": loss.item(), "id_loss": ce.item(),
            "triplet_loss": tri.item(), "lr": self.optimizer.lr, "grad_norm": grad_norm})
        self.step_count += 1
        return rec

    def run(self):
        while self.step_count < self.ft.steps:
            self.finetune_step()
        return self.log


def extract_workers():
    """The extractor's thread count: ``PARTSSL_WORKERS``, 1 when unset."""
    raw = os.environ.get("PARTSSL_WORKERS", "1")
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise vit.ConfigError("PARTSSL_WORKERS must be a positive integer, got %r" % raw)
    return int(raw)


def extract_embeddings(params, head, images, fusion):
    """Eval-mode post-batchnorm embeddings, or the raw fused features when
    ``head`` is None, as float64; never touches the classifier. The backbone
    runs in float32 on one float32 copy of the parameters and the images (the
    head, if any, in float64). Chunks of ``EXTRACT_BATCH`` images run on
    ``extract_workers()`` threads."""
    params = params.clone(dtype=np.float32)
    images = np.asarray(images, dtype=np.float32)
    chunks = [images[i:i + EXTRACT_BATCH] for i in range(0, len(images), EXTRACT_BATCH)]

    def one(chunk):
        with T.no_grad():
            feats = forward_embeddings(params, chunk, fusion)
            feats = Tensor(feats.data.astype(np.float64))
            return (feats if head is None else head.embed(feats, training=False)).data

    workers = extract_workers()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(one, chunks))
    else:
        outs = [one(c) for c in chunks]
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# embedding dump: a checkpoint container of one (N, D) ``vector`` tensor whose
# row n is image n, with the labels as JSON integers in the header


def dump_embeddings(path, embeddings, ids, cams):
    """Write the dump atomically; ``ids`` and ``cams`` give one label per row."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or not len(ids) == len(cams) == len(embeddings):
        raise ValueError("dump_embeddings needs (N, D) embeddings and N identities and "
                         "cameras, got shape %s, %d and %d"
                         % (embeddings.shape, len(ids), len(cams)))
    return save_checkpoint(path, {"vector": embeddings}, extra={
        "stage": "embeddings",
        "identity": [int(x) for x in ids],
        "camera": [int(x) for x in cams]})


def load_embeddings(path):
    """The dump's (N, D) float64 embeddings and int64 identities and cameras.

    Refuses, with a ``ConfigError`` that names the path, a file that is not a
    dump of this build or holds a non-finite vector or a label that is not
    an int64."""
    try:
        ckpt = load_checkpoint(path)
    except CheckpointError as exc:  # e.g. a JSON-lines dump of an older build
        raise vit.ConfigError("%s; not an embedding dump of this build" % exc) from None
    stage = ckpt.extra.get("stage", "?")
    if stage != "embeddings":
        raise vit.ConfigError("%s: not an embedding dump, got stage %r" % (path, stage))
    matrix = ckpt.tensors.get("vector")
    if matrix is None or matrix.ndim != 2 or not len(matrix):
        raise vit.ConfigError("%s: vector is not an (N, D) tensor with N >= 1, got %s"
                              % (path, "none" if matrix is None else matrix.shape))
    # the container holds NaN and inf, and evaluate would rank them without a word
    bad = np.nonzero(~np.isfinite(matrix))[0]
    if len(bad):
        raise vit.ConfigError("%s row %d: embedding vector is not finite" % (path, bad[0]))
    return (matrix, _labels(path, "identity", ckpt.extra.get("identity"), len(matrix)),
            _labels(path, "camera", ckpt.extra.get("camera"), len(matrix)))


def _labels(path, name, values, count):
    """The labels as int64, if they are a list of ``count`` JSON integers in
    int64's range.

    numpy would truncate 1.5 and read true as 1, and a string, null, list or
    larger integer would fail inside evaluate."""
    if not isinstance(values, list) or len(values) != count:
        raise vit.ConfigError("%s: %s is not a list of %d labels" % (path, name, count))
    try:
        if all(type(x) is int for x in values):  # bool is a subclass of int
            return np.asarray(values, dtype=np.int64)
    except OverflowError:
        pass
    bad = next(n for n, x in enumerate(values)
               if type(x) is not int or not -2 ** 63 <= x < 2 ** 63)
    raise vit.ConfigError("%s row %d: %s %s is not an integer label"
                          % (path, bad, name, json.dumps(values[bad])))
