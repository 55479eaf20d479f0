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


def random_index(rng, n_q=10, n_g=40, dim=4, n_ids=6, n_cams=3):
    return ev.RetrievalIndex(
        query=rng.normal(size=(n_q, dim)),
        q_ids=rng.integers(0, n_ids, n_q),
        q_cams=rng.integers(0, n_cams, n_q),
        gallery=rng.normal(size=(n_g, dim)),
        g_ids=rng.integers(0, n_ids, n_g),
        g_cams=rng.integers(0, n_cams, n_g),
    )


class TestPairwiseDist:
    def test_identical_vectors_zero(self):
        x = np.ones((3, 4))
        np.testing.assert_allclose(ev.pairwise_dist(x, x).diagonal(), 0.0, atol=1e-9)

    def test_three_four_five(self):
        d = ev.pairwise_dist(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert d[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_symmetry(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        d = ev.pairwise_dist(x, x)
        np.testing.assert_allclose(d, d.T, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ev.EvalError):
            ev.pairwise_dist(np.zeros((2, 3)), np.zeros((2, 4)))


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
        d = ev.pairwise_dist(index.query, index.gallery)
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

    def test_bad_query_index(self):
        with pytest.raises(ev.EvalError):
            ev.ranking_list(self.make_index(), 99, 5)
