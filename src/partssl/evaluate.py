"""Retrieval metrics: pairwise distances, CMC rank-k and mAP under the
standard same-identity-same-camera gallery exclusion, plus ranking reports.

Ranking is purely ordinal: the metrics depend on the order of the distances
alone. Ties break by gallery index, and NaN ranks last: the order of a
stable argsort, for reproducibility. AP and CMC need only the ranks of a
query's positives, so ``evaluate`` sorts each row's values once and counts
the entries below each positive by binary search, instead of argsorting the
row. Distances are computed one block of query rows at a time, so no
|Q| x |G| matrix is held.

The blocks hold squared distances, and ``evaluate`` sorts and searches the
squares. The root is monotone on doubles but not strictly so: two distinct
squares can share a root, and then tie as distances. So ``evaluate`` roots
only each positive and its two sorted neighbours; a row where a neighbour's
root equals the positive's, or is NaN, is ranked again by a stable argsort
of its roots. The ranks are those of the rooted distances, bit for bit.
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
# afresh in every block (CHANGES.md). With the positive-only ranking it still
# is: evaluate took 196, 177, 188 and 198 ms with 32, 48, 96 and 144 rows
# (medians of 14 interleaved runs, one BLAS thread).
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
        if not (len(self.q_ids) == len(self.q_cams) == len(self.query)
                and len(self.g_ids) == len(self.g_cams) == len(self.gallery)):
            raise EvalError("id and camera arrays do not match embedding counts")
        for nm in ("query", "gallery"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, nm)).all(axis=1))
            if len(bad):
                raise EvalError("%d %s rows are not finite, the first is row %d"
                                % (len(bad), nm, bad[0]))


def pairwise_blocks(queries, gallery):
    """Yield ``(start, sq_dist(queries[start:stop], gallery, ...))``: the
    squared distances of blocks of ``BLOCK_ROWS`` query rows, equal to the
    rows of the one-call matrix. ``_dist`` takes their root.

    The last block also takes the remaining rows, so no block is short: a
    1-row product goes through BLAS gemv and a small one through OpenBLAS's
    small-matrix kernel, and each rounds differently from the gemm kernel."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[-1] != g.shape[-1]:
        raise EvalError("dim mismatch: %s vs %s" % (q.shape, g.shape))
    gg = (g * g).sum(axis=1)
    for start, stop in block_bounds(len(q)):
        yield start, sq_dist(q[start:stop], g, gg)


def block_bounds(n_q):
    """(start, stop) of each query block of ``pairwise_blocks``."""
    bounds = list(range(0, max(1, n_q // BLOCK_ROWS) * BLOCK_ROWS, BLOCK_ROWS)) + [n_q]
    return list(zip(bounds, bounds[1:]))


def sq_dist(q, g, gg):
    """Squared distances (|q|² + |g|²) - 2 q.g from q to g, given the squared
    norms ``gg`` of g's rows; rounding can leave them slightly negative."""
    sq = (q * q).sum(axis=1)[:, None] + gg[None, :]
    # this is (2q) @ g.T: q @ g.T with q the same array as g would go
    # through syrk, whose rounding differs from gemm's
    sq -= 2.0 * q @ g.T
    return sq


def _dist(sq):
    """Euclidean distances from squared ones: sqrt(max(sq, 0)), NaN kept."""
    return np.sqrt(np.maximum(sq, 0.0))


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
    elif max_rank < 1:
        raise EvalError("max_rank must be at least 1, got %d" % max_rank)
    max_rank = min(max_rank, n_g)
    # a query's positives and exclusions are all members of its identity:
    # the gallery indices by_id[first[q]:first[q] + count[q]]
    by_id = np.argsort(index.g_ids, kind="stable")
    sorted_ids = index.g_ids[by_id]
    first = np.searchsorted(sorted_ids, index.q_ids, "left")
    count = np.searchsorted(sorted_ids, index.q_ids, "right") - first
    aps = np.zeros(n_q)
    valid = np.zeros(n_q, dtype=bool)
    first_hits = []  # each valid query's first positive, as a 0-based kept rank
    for start, sq in pairwise_blocks(index.query, index.gallery):
        nb = len(sq)
        rows = slice(start, start + nb)
        # the block's members, row by row: row[m] is member m's query row
        cnt = count[rows]
        ends = np.cumsum(cnt)
        begins = ends - cnt
        row = np.repeat(np.arange(nb), cnt)
        member = by_id[np.arange(len(row)) + np.repeat(first[rows] - begins, cnt)]
        s = sq[row, member]
        excl = index.g_cams[member] == index.q_cams[rows][row]
        # rank among all entries = entries with a smaller (distance, index)
        # key, NaN largest. The squares below s, counted in the sorted row,
        # have roots at most the member's own; they are all below it unless
        # the sorted predecessor's root equals it. The squares above s have
        # roots above it unless the sorted successor's does not (equal, or
        # NaN). Only a member with such a neighbour can have a tie; its row
        # is ranked again by a stable argsort of the roots
        srt = np.sort(sq, axis=1)
        rank = np.empty(len(row), dtype=np.intp)
        for r, a, b in zip(range(nb), begins.tolist(), ends.tolist()):
            if a < b:
                rank[a:b] = srt[r].searchsorted(s[a:b])
        d = _dist(s)
        prv = _dist(srt[row, np.maximum(rank - 1, 0)])
        nxt = _dist(srt[row, np.minimum(rank + 1, n_g - 1)])
        tied = ((rank > 0) & (prv == d)) | ((rank + 1 < n_g) & ~(nxt > d))  # also for NaN
        for r in np.unique(row[tied]).tolist():
            inv = np.empty(n_g, dtype=np.intp)
            inv[np.argsort(_dist(sq[r]), kind="stable")] = np.arange(n_g)
            rank[begins[r]:ends[r]] = inv[member[begins[r]:ends[r]]]
        # each row's members in rank order (row itself stays sorted); a
        # positive's kept rank leaves out the excluded members ahead of it
        o = np.argsort(row * n_g + rank)
        rank, excl = rank[o], excl[o]
        n_excl = np.bincount(row[excl], minlength=nb)
        excl_before = np.cumsum(excl) - excl - np.repeat(np.cumsum(n_excl) - n_excl, cnt)
        kept = (rank - excl_before)[~excl]
        prow = row[~excl]
        n_pos = np.bincount(prow, minlength=nb)
        k = np.arange(1, len(kept) + 1) - np.repeat(np.cumsum(n_pos) - n_pos, n_pos)
        first_hits.append(kept[k == 1])
        # AP sums precision k / r_k at each positive's place in a dense row
        # of the query's n_keep kept entries, grouped by n_keep, so every row
        # is summed exactly as it would be on its own
        prec = k / (kept + 1)
        n_keep = n_g - n_excl
        has = n_pos > 0
        for n in np.unique(n_keep[has]).tolist():
            in_group = has & (n_keep == n)
            group = np.flatnonzero(in_group)
            sel = in_group[prow]
            dense = np.zeros((len(group), n))
            dense[(np.cumsum(in_group) - 1)[prow[sel]], kept[sel]] = prec[sel]
            aps[start + group] = dense.sum(axis=1) / n_pos[group]
        valid[rows] = has
    n_valid = int(valid.sum())
    if not n_valid:
        raise EvalError("no query has a valid gallery positive after exclusion")
    hits = np.concatenate(first_hits)
    return EvalResult(
        mean_ap=float(np.mean(aps[valid])),
        cmc=np.bincount(hits[hits < max_rank], minlength=max_rank).cumsum() / n_valid,
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
    return _ranking(index, query_index, _blocked_rows(index, [query_index])[query_index], top_k)


def _blocked_rows(index, query_indices):
    """{query index: distance row}, each row cut from its ``pairwise_blocks``
    block, so it holds the bits ``evaluate`` ranks (a lone row would go
    through gemv, which rounds differently). The walk stops after the block
    that holds the last wanted query."""
    for qi in query_indices:
        if not 0 <= qi < len(index.query):
            raise EvalError("query index %d out of range" % qi)
    rows = {}
    for start, sq in pairwise_blocks(index.query, index.gallery):
        stop = start + len(sq)
        rows.update((qi, _dist(sq[qi - start])) for qi in query_indices if start <= qi < stop)
        if stop > max(query_indices, default=-1):
            break
    return rows


def _ranking(index, query_index, dist, top_k):
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
    rows = _blocked_rows(index, query_indices)
    lines = []
    for qi in query_indices:
        lines.append("query %d (id %d, cam %d)" % (qi, index.q_ids[qi], index.q_cams[qi]))
        for r, e in enumerate(_ranking(index, qi, rows[qi], top_k), 1):
            lines.append("  rank %2d: gallery %3d id %3d dist %.4f %s"
                         % (r, e.gallery_index, index.g_ids[e.gallery_index],
                            e.distance, "MATCH" if e.match else ""))
    return "\n".join(lines)
