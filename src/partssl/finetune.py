"""Supervised fine-tuning: fused [CLS]/part features into a BN-neck identity
classifier, trained with cross-entropy plus batch-hard triplet loss.

At test time the embedding is the post-batchnorm, pre-classifier feature;
the triplet loss mines on the pre-batchnorm fused feature, both per the
usual strong-baseline convention.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vit
from .multicrop import resize_bilinear
from .optim import AdamW, clip_grad_norm, warmup_cosine_lr
from .tensor import Tensor

FUSION_STRATEGIES = ("concat_all", "mean_all", "concat_cls_meanpart")


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
        pieces = [cls_out] + [part_outs[:, i, :] * (1.0 / L) for i in range(L)]
        return T.concatenate(pieces, axis=-1)
    mean_part = T.mean(part_outs, axis=1)
    if strategy == "mean_all":
        return (cls_out + mean_part) * 0.5
    if strategy == "concat_cls_meanpart":
        return T.concatenate([cls_out, mean_part], axis=-1)
    raise FusionError("unknown fusion strategy %r (expected one of %s)"
                      % (strategy, ", ".join(FUSION_STRATEGIES)))


class ReidHead:
    """Feature batchnorm followed by a bias-free linear identity classifier."""

    def __init__(self, dim, num_ids, rng, bn_momentum=0.1, eps=1e-5):
        self.dim = dim
        self.num_ids = num_ids
        self.eps = eps
        self.bn_momentum = bn_momentum
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
            centered = features - T.broadcast_to(T.reshape(mu, (1, self.dim)), features.shape)
            var = T.mean(centered * centered, axis=0)
            xhat = centered / T.broadcast_to(
                T.reshape(T.sqrt(var + self.eps), (1, self.dim)), features.shape)
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
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    logp = T.log_softmax(logits, axis=-1)
    return -T.mean(T.sum_(logp * Tensor(onehot), axis=-1))


def _pairwise_dist_t(emb, eps=1e-12):
    sq = T.sum_(emb * emb, axis=1, keepdims=True)
    sq_t = T.transpose(sq)
    cross = emb @ T.transpose(emb)
    d2 = T.relu(sq + sq_t - 2.0 * cross)
    return T.sqrt(d2 + eps)


def _check_batch(pos_mask, neg_mask, labels):
    if len(labels) < 2 or len(set(labels.tolist())) < 2:
        raise BatchCompositionError("batch needs at least 2 identities, got %d"
                                    % len(set(labels.tolist())))
    if not pos_mask.any(axis=1).all():
        bad = int(np.where(~pos_mask.any(axis=1))[0][0])
        raise BatchCompositionError(
            "anchor %d (identity %s) has no positive in the batch" % (bad, labels[bad]))
    if not neg_mask.any(axis=1).all():
        bad = int(np.where(~neg_mask.any(axis=1))[0][0])
        raise BatchCompositionError(
            "anchor %d (identity %s) has no negative in the batch" % (bad, labels[bad]))


def batch_hard_triplet(embeddings, labels, margin=0.3):
    """Hinge on (hardest positive - hardest negative + margin), batch mean."""
    labels = np.asarray(labels)
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same
    _check_batch(pos_mask, neg_mask, labels)
    d = _pairwise_dist_t(embeddings)
    big = 1e12
    d_pos = T.max_(d + Tensor(np.where(pos_mask, 0.0, -big)), axis=1)
    d_neg = T.min_(d + Tensor(np.where(neg_mask, 0.0, big)), axis=1)
    return T.mean(T.relu(d_pos - d_neg + margin))


# ---------------------------------------------------------------------------
# training loop


@dataclass
class FinetuneConfig:
    steps: int = 300
    ids_per_batch: int = 4
    samples_per_id: int = 4
    lr: float = 0.0         # 0 -> 0.0004 * batch / 64 rule
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    clip_grad: float = 5.0
    margin: float = 0.3
    fusion: str = "concat_cls_meanpart"
    flip_p: float = 0.5

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
    """Backbone forward with [CLS] and every part token, then feature fusion."""
    cfg = params.cfg
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:3] != (cfg.image_h, cfg.image_w):
        images = np.stack([resize_bilinear(im, cfg.image_h, cfg.image_w) for im in images])
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
        named = list(params.items()) + self.head.named_params()
        self.optimizer = AdamW(named, lr=ft_cfg.resolve_lr(), weight_decay=ft_cfg.weight_decay)
        self.rng = rng
        self.step_count = 0
        self.log = []
        self.log_path = log_path

    def finetune_step(self):
        # labels are positions in the sorted class list: the classifier rows
        rows, labels = pk_batch(self.rng, self.pools, self.ft.ids_per_batch,
                                self.ft.samples_per_id)
        flip = self.rng.random(len(rows)) < self.ft.flip_p
        feats = forward_embeddings(self.params, self.images[rows], self.ft.fusion, flip)
        tri = batch_hard_triplet(feats, labels, self.ft.margin)
        neck = self.head.embed(feats, training=True)
        ce = id_loss(self.head.class_logits(neck), labels)
        loss = ce + tri
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise RuntimeError("non-finite fine-tune loss at step %d" % self.step_count)
        try:
            all_params = self.params.tensors() + [p for _, p in self.head.named_params()]
            loss.backward(params=all_params)
            clip_grad_norm(all_params, self.ft.clip_grad)
            self.optimizer.lr = warmup_cosine_lr(
                self.step_count, self.ft.steps, self.ft.resolve_lr(),
                int(self.ft.warmup_frac * self.ft.steps))
            self.optimizer.step()
            self.optimizer.zero_grad()
        finally:
            T.clear_tape()
        rec = {"step": self.step_count, "loss": loss_val, "id_loss": ce.item(),
               "triplet_loss": tri.item(), "lr": self.optimizer.lr}
        self.log.append(rec)
        if self.log_path:
            with open(self.log_path, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
        self.step_count += 1
        return rec

    def run(self, steps=None):
        steps = self.ft.steps if steps is None else steps
        while self.step_count < steps:
            self.finetune_step()
        return self.log


def extract_embeddings(params, head, images, fusion, batch_size=32, workers=0):
    """Eval-mode post-batchnorm embeddings, or the raw fused features when
    ``head`` is None; never touches the classifier. Chunks of ``batch_size``
    images run on ``workers`` threads (0 -> ``PARTSSL_WORKERS``, default 1)."""
    images = np.asarray(images, dtype=np.float64)
    chunks = [images[i:i + batch_size] for i in range(0, len(images), batch_size)]

    def one(chunk):
        with T.no_grad():
            feats = forward_embeddings(params, chunk, fusion)
            return (feats if head is None else head.embed(feats, training=False)).data

    workers = workers or int(os.environ.get("PARTSSL_WORKERS", "1"))
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(one, chunks))
    else:
        outs = [one(c) for c in chunks]
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# embedding dump interchange format (JSON lines)


def dump_embeddings(path, embeddings, ids, cams):
    with open(path, "w") as fh:
        for n, vec in enumerate(np.asarray(embeddings, dtype=np.float64)):
            fh.write(json.dumps({
                "image_id": n,
                "identity": int(ids[n]),
                "camera": int(cams[n]),
                "vector": [float(x) for x in vec],
            }) + "\n")
    return path


def load_embeddings(path):
    vecs, ids, cams = [], [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            vecs.append(rec["vector"])
            ids.append(rec["identity"])
            cams.append(rec["camera"])
    return np.asarray(vecs, dtype=np.float64), np.asarray(ids), np.asarray(cams)
