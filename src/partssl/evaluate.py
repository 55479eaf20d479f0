"""Retrieval metrics: pairwise distances, CMC rank-k and mAP under the
standard same-identity-same-camera gallery exclusion, plus ranking reports.

Ranking is purely ordinal: any strictly monotone transform of the distances
yields identical metrics. Ties break by gallery index (stable argsort) for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EvalError(ValueError):
    pass


@dataclass
class RetrievalIndex:
    query: np.ndarray      # (Q, D)
    q_ids: np.ndarray
    q_cams: np.ndarray
    gallery: np.ndarray    # (G, D)
    g_ids: np.ndarray
    g_cams: np.ndarray

    def __post_init__(self):
        self.query = np.asarray(self.query, dtype=np.float64)
        self.gallery = np.asarray(self.gallery, dtype=np.float64)
        for nm in ("q_ids", "q_cams", "g_ids", "g_cams"):
            setattr(self, nm, np.asarray(getattr(self, nm), dtype=np.int64))
        if self.query.ndim != 2 or self.gallery.ndim != 2:
            raise EvalError("embeddings must be 2-D")
        if self.query.shape[1] != self.gallery.shape[1]:
            raise EvalError("query dim %d != gallery dim %d"
                            % (self.query.shape[1], self.gallery.shape[1]))
        if len(self.q_ids) != len(self.query) or len(self.g_ids) != len(self.gallery):
            raise EvalError("label arrays do not match embedding counts")


def pairwise_dist(queries, gallery):
    """Euclidean distance matrix (|Q|, |G|)."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[-1] != g.shape[-1]:
        raise EvalError("dim mismatch: %s vs %s" % (q.shape, g.shape))
    sq = (q * q).sum(axis=1)[:, None] + (g * g).sum(axis=1)[None, :] - 2.0 * q @ g.T
    return np.sqrt(np.maximum(sq, 0.0))


def _ranked_gallery(index, qi, dist_row):
    """Gallery indices closest first (ties by index), without the entries
    that share query ``qi``'s (identity, camera)."""
    order = np.argsort(dist_row, kind="stable")
    keep = ~((index.g_ids[order] == index.q_ids[qi]) & (index.g_cams[order] == index.q_cams[qi]))
    return order[keep]


@dataclass
class EvalResult:
    mean_ap: float
    cmc: np.ndarray          # (max_rank,), cmc[k-1] = rank-(k) rate
    num_valid_queries: int
    num_excluded_queries: int

    def rank(self, k):
        return float(self.cmc[k - 1])


def evaluate(index, max_rank=None):
    """Single-query AP averaged over queries plus the CMC curve.

    Gallery entries sharing the query's (identity, camera) are removed per
    query. Queries left with no positive are excluded and counted.
    """
    dist = pairwise_dist(index.query, index.gallery)
    n_g = dist.shape[1]
    if max_rank is None:
        max_rank = min(50, n_g)
    max_rank = min(max_rank, n_g)
    aps = []
    cmc_rows = []
    excluded = 0
    for qi in range(dist.shape[0]):
        order = _ranked_gallery(index, qi, dist[qi])
        matches = (index.g_ids[order] == index.q_ids[qi]).astype(np.float64)
        if not matches.any():
            excluded += 1
            continue
        hits = matches.cumsum()
        precision = hits / np.arange(1, len(matches) + 1)
        aps.append(float((precision * matches).sum() / matches.sum()))
        found = np.minimum(hits, 1.0)
        if len(found) < max_rank:  # every later rank already contains the hit
            found = np.concatenate([found, np.ones(max_rank - len(found))])
        cmc_rows.append(found[:max_rank])
    if not aps:
        raise EvalError("no query has a valid gallery positive after exclusion")
    return EvalResult(
        mean_ap=float(np.mean(aps)),
        cmc=np.mean(cmc_rows, axis=0),
        num_valid_queries=len(aps),
        num_excluded_queries=excluded,
    )


@dataclass
class RankEntry:
    gallery_index: int
    distance: float
    match: bool


def ranking_list(index, query_index, top_k):
    """Top-k gallery entries for one query, closest first, with match flags."""
    if not 0 <= query_index < len(index.query):
        raise EvalError("query index %d out of range" % query_index)
    dist = pairwise_dist(index.query[query_index:query_index + 1], index.gallery)[0]
    order = _ranked_gallery(index, query_index, dist)
    entries = []
    for gi in order[:top_k]:
        entries.append(RankEntry(
            gallery_index=int(gi),
            distance=float(dist[gi]),
            match=bool(index.g_ids[gi] == index.q_ids[query_index]),
        ))
    return entries


def render_ranking_report(index, query_indices, top_k):
    """Plain-text ranking lists for the given queries."""
    lines = []
    for qi in query_indices:
        lines.append("query %d (id %d, cam %d)" % (qi, index.q_ids[qi], index.q_cams[qi]))
        for r, e in enumerate(ranking_list(index, qi, top_k), 1):
            lines.append("  rank %2d: gallery %3d id %3d dist %.4f %s"
                         % (r, e.gallery_index, index.g_ids[e.gallery_index],
                            e.distance, "MATCH" if e.match else ""))
    return "\n".join(lines)
