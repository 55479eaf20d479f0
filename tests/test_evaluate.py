import tracemalloc

import numpy as np
import pytest

from partssl import evaluate as ev


def brute_force_eval(index, max_rank):
    """Independent oracle: python loops, insertion-order tie handling."""
    aps, cmc_rows, excluded = [], [], 0
    for qi in range(len(index.query)):
        scored = []
        for gi in range(len(index.gallery)):
            if index.g_ids[gi] == index.q_ids[qi] and index.g_cams[gi] == index.q_cams[qi]:
                continue
            dist = float(np.sqrt(((index.query[qi] - index.gallery[gi]) ** 2).sum()))
            scored.append((dist, gi, index.g_ids[gi] == index.q_ids[qi]))
        scored.sort(key=lambda t: (t[0], t[1]))
        flags = [m for _, _, m in scored]
        if not any(flags):
            excluded += 1
            continue
        hits = 0
        precisions = []
        for rank, flag in enumerate(flags, start=1):
            if flag:
                hits += 1
                precisions.append(hits / rank)
        aps.append(sum(precisions) / len(precisions))
        row = []
        seen = False
        for k in range(max_rank):
            if k < len(flags) and flags[k]:
                seen = True
            row.append(1.0 if seen else 0.0)
        cmc_rows.append(row)
    return float(np.mean(aps)), np.mean(cmc_rows, axis=0), excluded


def reference_dist(queries, gallery):
    """The one-call distance matrix, as it was computed before ``evaluate``
    worked in query-row blocks."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    sq = (q * q).sum(axis=1)[:, None] + (g * g).sum(axis=1)[None, :] - 2.0 * q @ g.T
    return np.sqrt(np.maximum(sq, 0.0))


def reference_evaluate(index, max_rank=None):
    """``evaluate`` as it was before the blocks: the whole matrix, then one
    stable argsort and one AP and CMC row per query."""
    dist = reference_dist(index.query, index.gallery)
    n_g = dist.shape[1]
    if max_rank is None:
        max_rank = min(50, n_g)
    max_rank = min(max_rank, n_g)
    aps = []
    cmc_rows = []
    excluded = 0
    for qi in range(dist.shape[0]):
        order = np.argsort(dist[qi], kind="stable")
        keep = ~((index.g_ids[order] == index.q_ids[qi]) & (index.g_cams[order] == index.q_cams[qi]))
        order = order[keep]
        matches = (index.g_ids[order] == index.q_ids[qi]).astype(np.float64)
        if not matches.any():
            excluded += 1
            continue
        hits = matches.cumsum()
        precision = hits / np.arange(1, len(matches) + 1)
        aps.append(float((precision * matches).sum() / matches.sum()))
        found = np.minimum(hits, 1.0)
        if len(found) < max_rank:
            found = np.concatenate([found, np.ones(max_rank - len(found))])
        cmc_rows.append(found[:max_rank])
    return float(np.mean(aps)), np.mean(cmc_rows, axis=0), len(aps), excluded


def argsort_evaluate(index, max_rank=None):
    """``evaluate`` as it was before it ranked only the positives: each
    block's rows argsorted (again stably where a row has ties or NaN), then
    every row's matches in rank order, summed in groups of equal length."""
    n_q, n_g = len(index.query), len(index.gallery)
    if max_rank is None:
        max_rank = min(50, n_g)
    max_rank = min(max_rank, n_g)
    aps = np.zeros(n_q)
    valid = np.zeros(n_q, dtype=bool)
    cmc_hits = np.zeros(max_rank)
    for start, sq in ev.pairwise_blocks(index.query, index.gallery):
        dist = ev._dist(sq)
        order = np.argsort(dist, axis=1)
        ranked = np.take_along_axis(dist, order, axis=1)
        for r in np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)):
            order[r] = np.argsort(dist[r], kind="stable")
        rows = slice(start, start + len(dist))
        same = index.g_ids[order] == index.q_ids[rows, None]
        keep = ~(same & (index.g_cams[order] == index.q_cams[rows, None]))
        n_keep = keep.sum(axis=1)
        for n in np.unique(n_keep):
            group = np.flatnonzero(n_keep == n)
            matches = same[group][keep[group]].reshape(len(group), n).astype(np.float64)
            hits = matches.cumsum(axis=1)
            n_pos = matches.sum(axis=1)
            has = n_pos > 0
            found = np.minimum(hits[has, :max_rank], 1.0)
            cmc_hits[:found.shape[1]] += found.sum(axis=0)
            cmc_hits[found.shape[1]:] += has.sum()
            hits /= np.arange(1, n + 1)
            hits *= matches
            aps[start + group[has]] = hits[has].sum(axis=1) / n_pos[has]
            valid[start + group[has]] = True
    n_valid = int(valid.sum())
    if not n_valid:
        raise ev.EvalError("no query has a valid gallery positive after exclusion")
    return float(np.mean(aps[valid])), cmc_hits / n_valid, n_valid, n_q - n_valid


def oracle_instance(rng):
    """A random index with the cases the positive-only ranking must get
    right: exact ties, inf and NaN distances, distinct squares that share a
    root, queries off the gallery or of identities it lacks, whole blocks
    without a positive, any max_rank."""
    n_g = int(rng.integers(1, 120))
    n_q = int(rng.integers(1, 3 * ev.BLOCK_ROWS + 8))
    dim = int(rng.integers(1, 5))
    n_ids, n_cams = int(rng.integers(1, 10)), int(rng.integers(1, 5))
    gallery = rng.normal(size=(n_g, dim))
    if rng.random() < 0.5:  # rounded: many distances tie exactly
        gallery = np.round(gallery, int(rng.integers(0, 2)))
    g_ids, g_cams = rng.integers(0, n_ids, n_g), rng.integers(0, n_cams, n_g)
    if rng.random() < 0.4:  # queries are gallery rows, as in the CLI
        pick = rng.integers(0, n_g, n_q)
        query, q_ids, q_cams = gallery[pick], g_ids[pick], g_cams[pick]
    else:
        query = np.round(rng.normal(size=(n_q, dim)), int(rng.integers(0, 3)))
        q_ids = rng.integers(0, n_ids + 3, n_q)  # some identities are not in the gallery
        q_cams = rng.integers(0, n_cams, n_q)
    scale = rng.random()
    if scale < 0.2:  # squares overflow: inf and NaN distances
        gallery = gallery.copy()
        gallery[rng.random(n_g) < 0.2] *= 1e200
        query = query * np.where(rng.random(n_q) < 0.2, 1e200, 1.0)[:, None]
    elif scale < 0.32:  # near-duplicates a few ulps apart: distinct squares, one root
        gallery = gallery[rng.integers(0, n_g, n_g)]
        gallery = gallery + rng.integers(-3, 4, gallery.shape) * np.spacing(gallery)
    elif scale < 0.48:  # squares that underflow (subnormal or 0), or overflow to inf and NaN
        scale = 1e-160 if rng.random() < 0.5 else 1e154
        query, gallery = query * scale, gallery * scale
    if n_q > ev.BLOCK_ROWS and rng.random() < 0.3:  # a block of excluded queries
        q_ids = q_ids.copy()
        q_ids[:ev.BLOCK_ROWS] = n_ids + 5
    max_rank = None if rng.random() < 0.1 else int(rng.integers(1, n_g + 10))
    return ev.RetrievalIndex(query, q_ids, q_cams, gallery, g_ids, g_cams), max_rank


def random_index(rng, n_q=10, n_g=40, dim=4, n_ids=6, n_cams=3):
    return ev.RetrievalIndex(
        query=rng.normal(size=(n_q, dim)),
        q_ids=rng.integers(0, n_ids, n_q),
        q_cams=rng.integers(0, n_cams, n_q),
        gallery=rng.normal(size=(n_g, dim)),
        g_ids=rng.integers(0, n_ids, n_g),
        g_cams=rng.integers(0, n_cams, n_g),
    )


def blocked_dist(queries, gallery):
    """The distance matrix that ``evaluate`` ranks, from the blocks' squares."""
    return ev._dist(np.concatenate([sq for _, sq in ev.pairwise_blocks(queries, gallery)]))


class TestPairwiseDist:
    def test_identical_vectors_zero(self):
        x = np.ones((3, 4))
        np.testing.assert_allclose(blocked_dist(x, x).diagonal(), 0.0, atol=1e-9)

    def test_three_four_five(self):
        d = blocked_dist(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert d[0, 0] == pytest.approx(5.0, abs=1e-12)
        _, sq = next(ev.pairwise_blocks(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])))
        assert sq[0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_symmetry(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        d = blocked_dist(x, x)
        np.testing.assert_allclose(d, d.T, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ev.EvalError):
            blocked_dist(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_root_clamps_negative_squares_and_keeps_nan(self):
        d = ev._dist(np.array([-1e-17, -np.inf, 0.0, 4.0, np.inf, np.nan]))
        np.testing.assert_array_equal(d, [0.0, 0.0, 0.0, 2.0, np.inf, np.nan])


class TestPairwiseBlocks:
    @pytest.mark.parametrize("n_q", [1, 2, ev.BLOCK_ROWS - 1, ev.BLOCK_ROWS,
                                     3 * ev.BLOCK_ROWS, 3 * ev.BLOCK_ROWS + 1,
                                     4 * ev.BLOCK_ROWS - 1])
    def test_blocks_cover_the_rows_and_equal_one_call(self, n_q):
        rng = np.random.default_rng(n_q)
        q, g = rng.normal(size=(n_q, 24)), rng.normal(size=(208, 24))
        blocks = list(ev.pairwise_blocks(q, g))
        starts = [s for s, _ in blocks]
        assert starts == [k * ev.BLOCK_ROWS for k in range(len(blocks))]
        assert sum(len(d) for _, d in blocks) == n_q
        # no short block: 1 row would take BLAS gemv, whose rounding differs
        assert min(len(d) for _, d in blocks) >= min(n_q, ev.BLOCK_ROWS)
        np.testing.assert_array_equal(ev._dist(np.concatenate([d for _, d in blocks])),
                                      reference_dist(q, g))

    def test_blocks_of_one_set_equal_the_reference(self):
        # q and g the same array: the product must not go through syrk
        x = np.random.default_rng(3).normal(size=(130, 7))
        np.testing.assert_array_equal(blocked_dist(x, x), reference_dist(x, x))
        np.testing.assert_array_equal(blocked_dist(x[:50], x[50:]),
                                      reference_dist(x[:50], x[50:]))


class TestEvaluate:
    def test_perfect_ranking(self):
        # embeddings identical to id -> own id always nearest cross-camera
        ids = np.array([0, 1, 2, 0, 1, 2])
        cams = np.array([0, 0, 0, 1, 1, 1])
        emb = np.eye(3)[ids] + 0.01 * np.random.default_rng(1).normal(size=(6, 3))
        index = ev.RetrievalIndex(emb[:3], ids[:3], cams[:3], emb, ids, cams)
        res = ev.evaluate(index)
        assert res.mean_ap == pytest.approx(1.0)
        assert res.rank(1) == pytest.approx(1.0)

    def test_hand_case_ap(self):
        # one query; positives at ranks 1 and 3 -> AP = (1 + 2/3) / 2
        query = np.array([[0.0]])
        gallery = np.array([[0.1], [0.2], [0.3]])
        index = ev.RetrievalIndex(query, [5], [0], gallery, [5, 6, 5], [1, 1, 1])
        res = ev.evaluate(index)
        assert res.mean_ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert res.mean_ap == pytest.approx(0.8333, abs=1e-4)

    def test_matches_brute_force_on_100_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_q = int(rng.integers(2, 50))
            n_g = int(rng.integers(10, 200))
            index = random_index(rng, n_q=n_q, n_g=n_g,
                                 n_ids=int(rng.integers(2, 8)), n_cams=int(rng.integers(2, 4)))
            max_rank = min(10, n_g)
            try:
                res = ev.evaluate(index, max_rank=max_rank)
            except ev.EvalError:
                continue  # no query had a positive; oracle would agree
            b_map, b_cmc, b_excl = brute_force_eval(index, max_rank)
            assert res.mean_ap == pytest.approx(b_map, abs=1e-12)
            np.testing.assert_allclose(res.cmc, b_cmc, atol=1e-12)
            assert res.num_excluded_queries == b_excl

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        index = random_index(rng)
        res = ev.evaluate(index, max_rank=10)
        # any strictly increasing transform of distances = same ranks; realize
        # it by transforming embeddings is impossible, so check via the oracle
        # on squared distances (a strictly monotone map of nonneg distances)
        aps, cmcs, _ = brute_force_eval(index, 10)

        def sq_bf():
            out_aps, out_cmc = [], []
            for qi in range(len(index.query)):
                scored = []
                for gi in range(len(index.gallery)):
                    if index.g_ids[gi] == index.q_ids[qi] and index.g_cams[gi] == index.q_cams[qi]:
                        continue
                    d2 = float(((index.query[qi] - index.gallery[gi]) ** 2).sum())
                    scored.append((d2, gi, index.g_ids[gi] == index.q_ids[qi]))
                scored.sort(key=lambda t: (t[0], t[1]))
                flags = [m for _, _, m in scored]
                if not any(flags):
                    continue
                hits, precs = 0, []
                for rank, flag in enumerate(flags, 1):
                    if flag:
                        hits += 1
                        precs.append(hits / rank)
                out_aps.append(sum(precs) / len(precs))
                row, seen = [], False
                for k in range(10):
                    seen = seen or (k < len(flags) and flags[k])
                    row.append(1.0 if seen else 0.0)
                out_cmc.append(row)
            return float(np.mean(out_aps)), np.mean(out_cmc, axis=0)

        sq_map, sq_cmc = sq_bf()
        assert res.mean_ap == pytest.approx(sq_map, abs=1e-12)
        np.testing.assert_allclose(res.cmc, sq_cmc, atol=1e-12)

    def test_bounds_and_cmc_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            index = random_index(rng)
            try:
                res = ev.evaluate(index, max_rank=len(index.gallery))
            except ev.EvalError:
                continue
            assert 0.0 <= res.mean_ap <= 1.0
            assert (np.diff(res.cmc) >= -1e-12).all()
            assert res.cmc[-1] == pytest.approx(1.0)  # full-length curve ends at 1

    def test_all_queries_excluded_raises(self):
        index = ev.RetrievalIndex(np.zeros((1, 2)), [0], [0], np.ones((2, 2)), [1, 2], [0, 0])
        with pytest.raises(ev.EvalError):
            ev.evaluate(index)

    # Several blocks with remainders 0, 1 and BLOCK_ROWS - 1. The gallery size
    # is a multiple of 16, where OpenBLAS's gemm rows do not depend on the
    # row blocking even when it runs threaded, so duplicated vectors tie
    # exactly in the reference and in the blocks alike.
    @pytest.mark.parametrize("n_q", [3 * ev.BLOCK_ROWS, 3 * ev.BLOCK_ROWS + 1,
                                     4 * ev.BLOCK_ROWS - 1])
    def test_blocks_equal_the_per_query_reference(self, n_q):
        rng = np.random.default_rng(n_q)
        n_g, n_ids = 256, 40
        gallery = rng.normal(size=(n_g, 16))
        gallery[rng.integers(0, n_g, 64)] = gallery[rng.integers(0, n_g, 64)]  # ties
        g_ids, g_cams = rng.integers(0, n_ids, n_g), rng.integers(0, 3, n_g)
        # a third of the queries are gallery rows, so ties reach the ranking
        # top; ids past n_ids have no positive and are excluded
        query = np.concatenate([gallery[rng.integers(0, n_g, n_q // 3)],
                                rng.normal(size=(n_q - n_q // 3, 16))])
        q_ids = rng.integers(0, n_ids + 5, n_q)
        index = ev.RetrievalIndex(query, q_ids, rng.integers(0, 3, n_q), gallery, g_ids, g_cams)
        for max_rank in (10, n_g):
            res = ev.evaluate(index, max_rank=max_rank)
            mean_ap, cmc, valid, excluded = reference_evaluate(index, max_rank)
            assert excluded > 0
            assert res.mean_ap == mean_ap
            np.testing.assert_array_equal(res.cmc, cmc)
            assert (res.num_valid_queries, res.num_excluded_queries) == (valid, excluded)

    def test_query_set_is_gallery_set(self):
        # how the CLI evaluates: every image is a query against all the others
        rng = np.random.default_rng(4)
        n = 2 * ev.BLOCK_ROWS + 16
        emb = rng.normal(size=(n, 8))
        emb[1::7] = emb[::7][:len(emb[1::7])]
        ids, cams = rng.integers(0, 30, n), rng.integers(0, 4, n)
        index = ev.RetrievalIndex(emb, ids, cams, emb, ids, cams)
        res = ev.evaluate(index, max_rank=20)
        mean_ap, cmc, valid, excluded = reference_evaluate(index, 20)
        assert res.mean_ap == mean_ap
        np.testing.assert_array_equal(res.cmc, cmc)
        assert (res.num_valid_queries, res.num_excluded_queries) == (valid, excluded)

    def test_tied_gallery_ranks_by_index_in_evaluate(self):
        # all three at distance 1: ranked 0, 1, 2, so the one positive is
        # second (AP 1/2); any other tie order gives 1 or 1/3
        query = np.array([[0.0]])
        gallery = np.array([[1.0], [1.0], [1.0]])
        index = ev.RetrievalIndex(query, [3], [0], gallery, [4, 3, 4], [1, 1, 1])
        res = ev.evaluate(index, max_rank=3)
        assert res.mean_ap == 0.5
        np.testing.assert_array_equal(res.cmc, [0.0, 1.0, 1.0])

    def test_equals_the_argsort_ranking_on_random_instances(self):
        rng = np.random.default_rng(17)
        seen = dict(ties=0, nan=0, inf=0, shared_root=0, underflow=0, overflow=0, short=0,
                    excluded_block=0, raised=0)
        for _ in range(450):
            index, max_rank = oracle_instance(rng)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    want = argsort_evaluate(index, max_rank)
                except ev.EvalError:
                    seen["raised"] += 1
                    with pytest.raises(ev.EvalError, match="no query has a valid"):
                        ev.evaluate(index, max_rank)
                    continue
                res = ev.evaluate(index, max_rank)
                sq = np.sort(np.concatenate(
                    [b for _, b in ev.pairwise_blocks(index.query, index.gallery)]), axis=1)
                dist = ev._dist(sq)
            assert res.mean_ap == want[0]
            np.testing.assert_array_equal(res.cmc, want[1])
            assert (res.num_valid_queries, res.num_excluded_queries) == want[2:]
            seen["ties"] += bool((dist[:, 1:] == dist[:, :-1]).any())
            seen["nan"] += bool(np.isnan(dist).any())
            seen["inf"] += bool(np.isinf(dist).any())
            seen["shared_root"] += bool(((sq[:, 1:] > sq[:, :-1])
                                         & (dist[:, 1:] == dist[:, :-1])).any())
            tiny = 0 < np.abs(index.gallery).max() < 1e-150
            seen["underflow"] += bool(tiny and (np.abs(sq) < np.finfo(float).tiny).all())
            seen["overflow"] += bool(np.abs(index.gallery).max() < 1e156
                                     and not np.isfinite(sq).all())
            n_excl = ((index.g_ids == index.q_ids[:, None])
                      & (index.g_cams == index.q_cams[:, None])).sum(axis=1)
            seen["short"] += bool((len(index.gallery) - n_excl < len(res.cmc)).any())
            seen["excluded_block"] += bool(len(index.query) > ev.BLOCK_ROWS
                                           and (index.q_ids[:ev.BLOCK_ROWS]
                                                > index.g_ids.max()).all())
        assert 450 - seen["raised"] >= 300 and min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("max_rank", [0, -2])
    def test_max_rank_below_one_refused(self, max_rank):
        # 0 gave an empty curve whose rank(1) failed; -2 a numpy error
        with pytest.raises(ev.EvalError, match="max_rank must be at least 1, got %d" % max_rank):
            ev.evaluate(random_index(np.random.default_rng(12)), max_rank=max_rank)

    def test_non_finite_rows_refused(self):
        rng = np.random.default_rng(6)
        emb, ids = rng.normal(size=(6, 3)), [0, 0, 1, 1, 2, 2]
        for name, bad in (("query", np.nan), ("gallery", np.inf)):
            rows = {"query": emb.copy(), "gallery": emb.copy()}
            rows[name][4, 1] = bad
            with pytest.raises(ev.EvalError, match="%s rows are not finite, the first is row 4"
                               % name):
                ev.RetrievalIndex(rows["query"], ids, [0] * 6, rows["gallery"], ids, [1] * 6)

    @pytest.mark.parametrize("side", ["query", "gallery"])
    @pytest.mark.parametrize("n_cams", [4, 8])
    def test_camera_array_of_another_length_refused(self, side, n_cams):
        # with 6 vectors, 4 cameras ended in an IndexError inside evaluate
        # and 8 were taken silently
        emb, ids = np.random.default_rng(8).normal(size=(6, 3)), [0, 0, 1, 1, 2, 2]
        cams = {"query": [0] * 6, "gallery": [1] * 6}
        cams[side] = [0, 1] * (n_cams // 2)
        with pytest.raises(ev.EvalError, match="camera arrays do not match embedding counts"):
            ev.RetrievalIndex(emb, ids, cams["query"], emb, ids, cams["gallery"])

    def test_peak_memory_holds_no_full_matrix(self):
        # one n x n matrix and the per-query CMC rows that kept their
        # whole cumsum alive peaked at 96 MB here
        rng = np.random.default_rng(7)
        n = 2000
        emb = rng.normal(size=(n, 32))
        ids, cams = rng.integers(0, 100, n), rng.integers(0, 6, n)
        index = ev.RetrievalIndex(emb, ids, cams, emb, ids, cams)
        tracemalloc.start()
        try:
            ev.evaluate(index, max_rank=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak

    def test_tie_break_by_gallery_index(self):
        query = np.array([[0.0]])
        gallery = np.array([[1.0], [1.0], [1.0]])  # all tied
        index = ev.RetrievalIndex(query, [3], [0], gallery, [4, 3, 4], [1, 1, 1])
        entries = ev.ranking_list(index, 0, 3)
        assert [e.gallery_index for e in entries] == [0, 1, 2]


class TestRankingList:
    def make_index(self):
        rng = np.random.default_rng(10)
        return random_index(rng, n_q=4, n_g=20)

    def test_top1_is_argmin(self):
        index = self.make_index()
        d = blocked_dist(index.query, index.gallery)
        for qi in range(4):
            keep = ~((index.g_ids == index.q_ids[qi]) & (index.g_cams == index.q_cams[qi]))
            masked = np.where(keep, d[qi], np.inf)
            top = ev.ranking_list(index, qi, 1)[0]
            assert top.gallery_index == int(np.argmin(masked))

    def test_flags_consistent_with_identity(self):
        index = self.make_index()
        for e in ev.ranking_list(index, 1, 10):
            assert e.match == (index.g_ids[e.gallery_index] == index.q_ids[1])

    def test_row_count_respects_exclusion(self):
        index = self.make_index()
        keep = ~((index.g_ids == index.q_ids[0]) & (index.g_cams == index.q_cams[0]))
        expected = min(50, int(keep.sum()))
        assert len(ev.ranking_list(index, 0, 50)) == expected

    def test_report_formats(self):
        index = self.make_index()
        text = ev.render_ranking_report(index, [0, 1], top_k=5)
        assert "query 0" in text and "rank" in text
        assert len(text.splitlines()) == sum(1 + len(ev.ranking_list(index, q, 5))
                                             for q in (0, 1))

    @pytest.mark.parametrize("qi", [ev.BLOCK_ROWS + ev.BLOCK_ROWS // 2, 2 * ev.BLOCK_ROWS + 5])
    def test_report_ranks_the_blocked_rows(self, qi):
        # the middle of the second block, and a row past the last multiple of
        # BLOCK_ROWS, which the last block takes; one row alone goes through
        # gemv, which rounds differently from the blocks evaluate ranks
        rng = np.random.default_rng(qi)
        index = random_index(rng, n_q=2 * ev.BLOCK_ROWS + 9, n_g=203, dim=24)
        blocked = blocked_dist(index.query, index.gallery)
        entries = ev.ranking_list(index, qi, len(index.gallery))
        assert [e.distance for e in entries] == blocked[qi, [e.gallery_index for e in entries]].tolist()
        keep = ~((index.g_ids == index.q_ids[qi]) & (index.g_cams == index.q_cams[qi]))
        order = np.argsort(blocked[qi], kind="stable")
        assert [e.gallery_index for e in entries] == order[keep[order]].tolist()
        report = ev.render_ranking_report(index, [qi, 3], top_k=len(index.gallery))
        assert report.splitlines()[1].endswith("dist %.4f %s" % (
            entries[0].distance, "MATCH" if entries[0].match else ""))

    def test_report_stops_after_the_last_wanted_block(self, monkeypatch):
        index = random_index(np.random.default_rng(11), n_q=3 * ev.BLOCK_ROWS + 5, n_g=30)
        blocks = []
        real = ev.sq_dist
        monkeypatch.setattr(ev, "sq_dist", lambda q, g, gg: blocks.append(len(q)) or real(q, g, gg))
        ev.render_ranking_report(index, [0, 1, 2, 3], top_k=5)  # the eval job's report
        assert blocks == [ev.BLOCK_ROWS]
        blocks.clear()
        ev.ranking_list(index, ev.BLOCK_ROWS + 1, 5)
        assert blocks == [ev.BLOCK_ROWS, ev.BLOCK_ROWS]  # the last block, 53 rows, is not

    def test_bad_query_index(self):
        with pytest.raises(ev.EvalError):
            ev.ranking_list(self.make_index(), 99, 5)
