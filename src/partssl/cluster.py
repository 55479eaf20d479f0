"""Pseudo-label adaptation loop: extract features, density-cluster them into
pseudo identities, build normalized cluster prototypes, then optimize a
prototype-contrastive loss. Labels are never consumed; purity against any
ground truth is strictly an external measurement.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .evaluate import pairwise_dist
from .finetune import extract_embeddings, forward_embeddings, pk_batch
from .optim import SGD, AdamW, clip_grad_norm
from .tensor import Tensor


OPTIMIZERS = ("sgd", "adamw")


class ClusterError(ValueError):
    pass


@dataclass
class PseudoLabeling:
    assignments: np.ndarray   # (N,) cluster id, -1 for outliers
    num_clusters: int

    def member_rows(self, c):
        return np.where(self.assignments == c)[0]

    @property
    def num_outliers(self):
        return int((self.assignments == -1).sum())


def _l2n(x, eps=1e-12):
    x = np.asarray(x, dtype=np.float64)
    return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), eps)


def dbscan(features, eps, min_points):
    """Plain O(n^2) density clustering with Euclidean distances."""
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    d = pairwise_dist(x, x)
    neighbors = [np.where(d[i] <= eps)[0] for i in range(n)]
    core = np.array([len(nb) >= min_points for nb in neighbors])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = deque(neighbors[i])
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster
                if core[j]:
                    queue.extend(neighbors[j])
        cluster += 1
    return PseudoLabeling(assignments=labels, num_clusters=cluster)


def cluster(features, eps=0.5, min_points=4):
    """L2-normalize then density-cluster; points in no cluster are outliers."""
    if len(features) < 2:
        raise ClusterError("need at least 2 feature vectors")
    labeling = dbscan(_l2n(features), eps, min_points)
    if labeling.num_clusters == 0:
        raise ClusterError(
            "all %d points are outliers at eps=%.3f; increase eps" % (len(features), eps))
    return labeling


class PrototypeBank:
    """Normalized cluster-mean features with momentum updates."""

    def __init__(self, prototypes, momentum=0.2):
        self.prototypes = np.asarray(prototypes, dtype=np.float64)
        self.momentum = momentum

    def __len__(self):
        return len(self.prototypes)

    def update(self, label, feature):
        """p <- normalize(m * p + (1 - m) * f) for the feature's own cluster."""
        m = self.momentum
        mixed = m * self.prototypes[label] + (1.0 - m) * _l2n(feature)
        self.prototypes[label] = _l2n(mixed)


def build_prototypes(features, labeling, momentum=0.2, norm_floor=1e-6):
    """Prototype_c = normalize(mean of member features)."""
    protos = []
    for c in range(labeling.num_clusters):
        rows = labeling.member_rows(c)
        if len(rows) == 0:
            raise ClusterError("cluster %d is empty" % c)
        mean = _l2n(np.asarray(features, dtype=np.float64)[rows]).mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < norm_floor:
            raise ClusterError("cluster %d mean is degenerate (norm %.2e)" % (c, norm))
        protos.append(mean / norm)
    return PrototypeBank(np.array(protos), momentum=momentum)


def prototype_contrastive_loss(features, labels, bank, temperature=0.05):
    """Cross-entropy of cosine similarity against all prototypes.

    Outlier rows (label -1) are skipped; gradients reach only the features,
    the bank is a constant memory."""
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels >= 0
    if not keep.any():
        raise ClusterError("no non-outlier features in batch")
    feats = features if keep.all() else features[np.where(keep)[0]]
    labs = labels[keep]
    normed = T.l2_normalize(feats, axis=-1)
    sims = normed @ Tensor(bank.prototypes.T)
    logp = T.log_softmax(sims * (1.0 / temperature), axis=-1)
    onehot = np.zeros((len(labs), len(bank)))
    onehot[np.arange(len(labs)), labs] = 1.0
    return -T.mean(T.sum_(logp * Tensor(onehot), axis=-1))


def extract_all_features(params, images, fusion="mean_all", batch_size=32, workers=0):
    """One fused embedding per image, eval mode (no head, raw fusion)."""
    return extract_embeddings(params, None, images, fusion, batch_size, workers)


# ---------------------------------------------------------------------------
# adaptation loop (shared by the source-pretrained and from-scratch modes)


@dataclass
class ClusterConfig:
    epochs: int = 3
    eps: float = 0.5
    min_points: int = 4
    temperature: float = 0.05
    proto_momentum: float = 0.2
    fusion: str = "mean_all"
    ids_per_batch: int = 4
    samples_per_id: int = 4
    steps_per_epoch: int = 0   # 0 -> one pass over the clustered subset
    optimizer: str = "sgd"
    lr: float = 3.5e-4
    lr_decay_every: int = 20   # epochs
    lr_decay: float = 0.1
    momentum: float = 0.9
    clip_grad: float = 5.0


@dataclass
class EpochStats:
    epoch: int
    labeling: PseudoLabeling
    mean_loss: float
    num_clusters: int
    num_outliers: int


class AdaptTrainer:
    """Cluster-prototype adaptation; consumes images only, never labels."""

    def __init__(self, params, cl_cfg, images, seed, out_dir=None):
        self.params = params
        self.cl = cl_cfg
        self.images = np.asarray(images, dtype=np.float64)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC105]))
        if cl_cfg.optimizer == "sgd":
            self.optimizer = SGD(params.items(), lr=cl_cfg.lr, momentum=cl_cfg.momentum)
        elif cl_cfg.optimizer == "adamw":
            self.optimizer = AdamW(params.items(), lr=cl_cfg.lr)
        else:
            raise ClusterError("optimizer: expected one of %s, got %r"
                               % (", ".join(OPTIMIZERS), cl_cfg.optimizer))
        self.out_dir = out_dir
        self.history = []

    def _epoch_lr(self, epoch):
        decays = epoch // self.cl.lr_decay_every if self.cl.lr_decay_every else 0
        return self.cl.lr * (self.cl.lr_decay ** decays)

    def run_epoch(self, epoch):
        cl = self.cl
        feats = extract_all_features(self.params, self.images, fusion=cl.fusion)
        labeling = cluster(feats, eps=cl.eps, min_points=cl.min_points)
        bank = build_prototypes(feats, labeling, momentum=cl.proto_momentum)
        if self.out_dir:
            snap = os.path.join(self.out_dir, "pseudo_labels_epoch%d.jsonl" % epoch)
            with open(snap, "w") as fh:
                for n, c in enumerate(labeling.assignments):
                    fh.write(json.dumps({"image_id": n, "cluster": int(c)}) + "\n")

        clustered = np.where(labeling.assignments >= 0)[0]
        pools = [clustered[labeling.assignments[clustered] == c]
                 for c in range(labeling.num_clusters)]
        batch = cl.ids_per_batch * cl.samples_per_id
        steps = cl.steps_per_epoch or max(1, len(clustered) // batch)
        self.optimizer.lr = self._epoch_lr(epoch)
        losses = []
        for _ in range(steps):
            rows, labs = pk_batch(self.rng, pools, cl.ids_per_batch, cl.samples_per_id)
            feats_t = forward_embeddings(self.params, self.images[rows], cl.fusion)
            loss = prototype_contrastive_loss(feats_t, labs, bank, cl.temperature)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise RuntimeError("non-finite adaptation loss in epoch %d" % epoch)
            try:
                loss.backward(params=self.params.tensors())
                clip_grad_norm(self.params.tensors(), cl.clip_grad)
                self.optimizer.step()
                self.optimizer.zero_grad()
            finally:
                T.clear_tape()
            with T.no_grad():
                fresh = forward_embeddings(self.params, self.images[rows], cl.fusion).data
            for r, lab in zip(range(len(rows)), labs):
                bank.update(int(lab), fresh[r])
            losses.append(loss_val)
        stats = EpochStats(epoch=epoch, labeling=labeling, mean_loss=float(np.mean(losses)),
                           num_clusters=labeling.num_clusters,
                           num_outliers=labeling.num_outliers)
        self.history.append(stats)
        return stats

    def run(self, epochs=None):
        epochs = self.cl.epochs if epochs is None else epochs
        for e in range(epochs):
            self.run_epoch(e)
        return self.history


def cluster_purity(labeling, true_ids):
    """Fraction of clustered points whose cluster's majority identity they share."""
    true_ids = np.asarray(true_ids)
    total, agree = 0, 0
    for c in range(labeling.num_clusters):
        rows = labeling.member_rows(c)
        if len(rows) == 0:
            continue
        ids, counts = np.unique(true_ids[rows], return_counts=True)
        agree += counts.max()
        total += len(rows)
    if total == 0:
        raise ClusterError("no clustered points to score")
    return agree / total
