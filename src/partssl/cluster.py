"""Pseudo-label adaptation loop: extract features, density-cluster them into
pseudo identities, build normalized cluster prototypes, then optimize a
prototype-contrastive loss. Labels are never consumed; purity against any
ground truth is strictly an external measurement.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .evaluate import block_bounds, sq_dist
from .finetune import extract_embeddings, forward_embeddings, id_loss, pk_batch
from .optim import AdamW, keep_record
from .tensor import Tensor
from .vit import ConfigError, NetworkParams


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
    """Plain O(n^2) density clustering with Euclidean distances.

    The labels are those of a breadth-first search over the rows in index
    order, computed with array operations on ``neighbour_pairs``: a point
    with at least ``min_points`` neighbours (itself included) is core; a
    cluster is a component of the core-core graph, numbered in the order of
    its smallest core index; a border point joins the first cluster that
    reaches it, the smallest among its core neighbours'."""
    n = len(features)
    lo, hi = neighbour_pairs(features, eps)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi[hi != lo], minlength=n)
    core = degree >= min_points
    root, _ = _components(n, *(e[core[lo] & core[hi]] for e in (lo, hi)))
    roots = np.unique(root[core])
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.searchsorted(roots, root[core])
    # border points: the smallest cluster id among their core neighbours
    border = np.full(n, len(roots), dtype=np.int64)
    for a, b in ((lo, hi), (hi, lo)):
        claim = core[a] & ~core[b]
        np.minimum.at(border, b[claim], labels[a[claim]])
    claimed = ~core & (border < len(roots))
    labels[claimed] = border[claimed]
    return PseudoLabeling(assignments=labels, num_clusters=len(roots))


def neighbour_pairs(features, eps):
    """(lo, hi): every pair of rows lo <= hi at a Euclidean distance of at
    most eps, stored once, a row with itself included when its computed
    distance is.

    Each block of ``evaluate.BLOCK_ROWS`` rows takes its squared distances to
    the columns from its own start onward, an upper triangle, so the
    relation is symmetric by construction. When n mod 16 is 0 or 8 these
    squares equal the full rows of ``evaluate.pairwise_blocks``, which are
    then symmetric too (one BLAS thread); otherwise the gemm edge columns
    of late blocks can differ from both halves of that matrix in the last
    bits. A pair is a neighbour when its square is at most
    ``_sq_threshold(eps)``, which holds exactly when its distance is."""
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    thr = _sq_threshold(eps)
    gg = (x * x).sum(axis=1)
    lo, hi = [], []
    for start, stop in block_bounds(n):
        near = np.flatnonzero(sq_dist(x[start:stop], x[start:], gg[start:]) <= thr)
        r, c = np.divmod(near, n - start)
        upper = c >= r
        lo.append(r[upper] + start)
        hi.append(c[upper] + start)
    return np.concatenate(lo), np.concatenate(hi)


def _sq_threshold(eps):
    """The largest double t with sqrt(max(t, 0)) <= eps, so that for every
    square sq, ``sq <= t`` exactly when its distance is at most eps: NaN
    (no pair) for a negative or NaN eps, inf (every pair but NaN) for an
    infinite one, else a few ulp steps from eps * eps."""
    eps = float(eps)
    if not eps >= 0.0:
        return math.nan
    if eps == math.inf:
        return math.inf
    t = min(eps * eps, sys.float_info.max)
    while math.sqrt(t) > eps:  # ends by t = 0 at the latest
        t = math.nextafter(t, 0.0)
    while math.sqrt(math.nextafter(t, math.inf)) <= eps:
        t = math.nextafter(t, math.inf)
    return t


def _components(n, a, b):
    """(root, rounds): each node's component root, its smallest node index,
    for the undirected edges a[k] - b[k] over nodes 0 .. n-1. Each round
    hooks every root onto the smallest root across its edges, then jumps
    pointers until every node points at a root; it stops when no edge joins
    two roots."""
    parent = np.arange(n)
    rounds = 0
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent, rounds
        rounds += 1
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


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

    momentum = 0.2

    def __init__(self, prototypes):
        self.prototypes = np.asarray(prototypes, dtype=np.float64)

    def update(self, label, feature):
        """p <- normalize(m * p + (1 - m) * f) for the feature's own cluster."""
        m = self.momentum
        mixed = m * self.prototypes[label] + (1.0 - m) * _l2n(feature)
        self.prototypes[label] = _l2n(mixed)


def build_prototypes(features, labeling):
    """Prototype_c = normalize(mean of member features)."""
    protos = []
    for c in range(labeling.num_clusters):
        rows = labeling.member_rows(c)
        if len(rows) == 0:
            raise ClusterError("cluster %d is empty" % c)
        mean = _l2n(np.asarray(features, dtype=np.float64)[rows]).mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-6:
            raise ClusterError("cluster %d mean is degenerate (norm %.2e)" % (c, norm))
        protos.append(mean / norm)
    return PrototypeBank(np.array(protos))


def prototype_contrastive_loss(features, labels, bank, temperature=0.05):
    """Cross-entropy of cosine similarity against all prototypes.

    Outlier rows (label -1) are skipped; gradients reach only the features,
    the bank is a constant memory, read in the features' dtype."""
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels >= 0
    if not keep.any():
        raise ClusterError("no non-outlier features in batch")
    feats = features if keep.all() else features[np.where(keep)[0]]
    labs = labels[keep]
    normed = T.l2_normalize(feats, axis=-1)
    sims = normed @ Tensor(bank.prototypes.T.astype(normed.data.dtype, copy=False))
    return id_loss(sims * (1.0 / temperature), labs)


def extract_all_features(params, images, fusion="mean_all"):
    """One fused embedding per image, eval mode (no head, raw fusion)."""
    return extract_embeddings(params, None, images, fusion)


# ---------------------------------------------------------------------------
# adaptation loop (shared by the source-pretrained and from-scratch modes)


@dataclass
class ClusterConfig:
    epochs: int = 3
    eps: float = 0.5
    min_points: int = 4
    fusion: str = "mean_all"
    ids_per_batch: int = 4
    samples_per_id: int = 4
    steps_per_epoch: int = 0   # 0 -> one pass over the clustered subset
    lr: float = 3.5e-4


class AdaptTrainer:
    """Cluster-prototype adaptation; consumes images only, never labels. Each
    epoch's record is appended to ``log_path`` as the epoch ends, so a run
    that stops keeps the records written before it."""

    def __init__(self, params, cl_cfg, images, seed, log_path=None):
        self.params = params
        self.cl = cl_cfg
        self.images = np.asarray(images, dtype=np.float64)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC105]))
        self.optimizer = AdamW(params.backbone_items(), lr=cl_cfg.lr)
        self.log_path = log_path
        self.log = []
        self.labeling = None  # the last epoch's PseudoLabeling

    def run_epoch(self, epoch):
        cl = self.cl
        feats = extract_all_features(self.params, self.images, fusion=cl.fusion)
        try:
            labeling = cluster(feats, eps=cl.eps, min_points=cl.min_points)
        except ClusterError as exc:  # no pseudo-labels at this radius: a config fix
            raise ConfigError("cluster.eps = %g: %s" % (cl.eps, exc)) from None
        bank = build_prototypes(feats, labeling)
        clustered = np.where(labeling.assignments >= 0)[0]
        pools = [clustered[labeling.assignments[clustered] == c]
                 for c in range(labeling.num_clusters)]
        batch = cl.ids_per_batch * cl.samples_per_id
        steps = cl.steps_per_epoch or max(1, len(clustered) // batch)
        losses, norms = [], []
        for step in range(steps):
            rows, labs = pk_batch(self.rng, pools, cl.ids_per_batch, cl.samples_per_id)
            work = NetworkParams(self.params.cfg, self.optimizer.working())
            feats_t = forward_embeddings(work, self.images[rows], cl.fusion)
            loss = prototype_contrastive_loss(feats_t, labs, bank)
            losses.append(loss.item())
            norms.append(self.optimizer.minimize(
                loss, 5.0, "adaptation epoch %d step %d" % (epoch, step)))
            with T.no_grad():
                fresh = forward_embeddings(self.params, self.images[rows], cl.fusion).data
            for r, lab in zip(range(len(rows)), labs):
                bank.update(int(lab), fresh[r])
        self.labeling = labeling
        return keep_record(self.log, self.log_path, {
            "epoch": epoch, "mean_loss": float(np.mean(losses)),
            "grad_norm_mean": float(np.mean(norms)), "grad_norm_max": float(np.max(norms)),
            "clusters": labeling.num_clusters, "outliers": labeling.num_outliers,
            "assignments": labeling.assignments.tolist()})

    def run(self):
        for e in range(self.cl.epochs):
            self.run_epoch(e)
        return self.log


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
