"""Retrieval metrics: pairwise distances, CMC rank-k and mAP under the
standard same-identity-same-camera gallery exclusion, plus ranking reports.

Ranking is purely ordinal: any strictly monotone transform of the distances
yields identical metrics. Ties break by gallery index (stable argsort) for
reproducibility. Distances are computed one block of query rows at a time,
so no |Q| x |G| matrix is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Query rows per distance block. A multiple of 48: on OpenBLAS's AVX-512
# dgemm the last |G| mod 16 gallery columns come from an edge kernel whose
# rounding depends on a row's place in a 48-row tiling, so blocks that start
# at multiples of 48 reproduce the rows of the one-call product bit for bit
# (single-threaded BLAS). 48 was the fastest at N = 3000: its 1.2 MB arrays
# stay in the allocator's heap, where larger ones were mapped and page-faulted
# afresh in every block (CHANGES.md).
BLOCK_ROWS = 48


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
        for nm in ("query", "gallery"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, nm)).all(axis=1))
            if len(bad):
                raise EvalError("%d %s rows are not finite, the first is row %d"
                                % (len(bad), nm, bad[0]))


def pairwise_dist(queries, gallery):
    """Euclidean distance matrix (|Q|, |G|)."""
    q, g = _float_pair(queries, gallery)
    return _dist(q, g, (g * g).sum(axis=1))


def pairwise_blocks(queries, gallery):
    """Yield ``(start, pairwise_dist(queries[start:stop], gallery))`` over
    blocks of ``BLOCK_ROWS`` query rows; the rows equal the one-call matrix's.

    The last block also takes the remaining rows, so no block is short: a
    1-row product goes through BLAS gemv and a small one through OpenBLAS's
    small-matrix kernel, and each rounds differently from the gemm kernel."""
    q, g = _float_pair(queries, gallery)
    gg = (g * g).sum(axis=1)
    bounds = list(range(0, max(1, len(q) // BLOCK_ROWS) * BLOCK_ROWS, BLOCK_ROWS)) + [len(q)]
    for start, stop in zip(bounds, bounds[1:]):
        yield start, _dist(q[start:stop], g, gg)


def _float_pair(queries, gallery):
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[-1] != g.shape[-1]:
        raise EvalError("dim mismatch: %s vs %s" % (q.shape, g.shape))
    return q, g


def _dist(q, g, gg):
    """Distances from q to g, given the squared norms ``gg`` of g's rows."""
    sq = (q * q).sum(axis=1)[:, None] + gg[None, :]
    # this is (2q) @ g.T: q @ g.T with q the same array as g would go
    # through syrk, whose rounding differs from gemm's
    sq -= 2.0 * q @ g.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _argsort_rows(dist):
    """Per-row argsort, ties (and NaN) broken by gallery index.

    The default sort is not stable, but on a row whose sorted values rise
    strictly the permutation is unique; only the other rows are sorted again
    with a stable sort."""
    order = np.argsort(dist, axis=1)
    ranked = np.empty_like(dist)
    for row, idx, out in zip(dist, order, ranked):  # faster than take_along_axis
        np.take(row, idx, out=out)
    for r in np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)):
        order[r] = np.argsort(dist[r], kind="stable")
    return order


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
    n_q, n_g = len(index.query), len(index.gallery)
    if max_rank is None:
        max_rank = min(50, n_g)
    max_rank = min(max_rank, n_g)
    aps = np.zeros(n_q)
    valid = np.zeros(n_q, dtype=bool)
    cmc_hits = np.zeros(max_rank)
    for start, dist in pairwise_blocks(index.query, index.gallery):
        order = _argsort_rows(dist)
        rows = slice(start, start + len(dist))
        same = index.g_ids[order] == index.q_ids[rows, None]
        keep = ~(same & (index.g_cams[order] == index.q_cams[rows, None]))
        n_keep = keep.sum(axis=1)
        # each query's matches over its kept entries in rank order, grouped by
        # length so every row is summed exactly as it would be on its own
        for n in np.unique(n_keep):
            group = np.flatnonzero(n_keep == n)
            matches = same[group][keep[group]].reshape(len(group), n).astype(np.float64)
            hits = matches.cumsum(axis=1)
            n_pos = matches.sum(axis=1)
            has = n_pos > 0
            found = np.minimum(hits[has, :max_rank], 1.0)
            cmc_hits[:found.shape[1]] += found.sum(axis=0)
            cmc_hits[found.shape[1]:] += has.sum()  # later ranks already contain the hit
            hits /= np.arange(1, n + 1)  # precision at each rank
            hits *= matches
            hit_rows = start + group[has]
            aps[hit_rows] = hits[has].sum(axis=1) / n_pos[has]
            valid[hit_rows] = True
    n_valid = int(valid.sum())
    if not n_valid:
        raise EvalError("no query has a valid gallery positive after exclusion")
    return EvalResult(
        mean_ap=float(np.mean(aps[valid])),
        cmc=cmc_hits / n_valid,
        num_valid_queries=n_valid,
        num_excluded_queries=n_q - n_valid,
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
    order = np.argsort(dist, kind="stable")
    keep = ~((index.g_ids[order] == index.q_ids[query_index])
             & (index.g_cams[order] == index.q_cams[query_index]))
    entries = []
    for gi in order[keep][:top_k]:
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
