import json
import math
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest

from partssl import cluster as cl
from partssl import evaluate as ev
from partssl import finetune as ft
from partssl import optim
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit


def blobs(rng, centers, n_per, scale=0.05):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(0, scale, (n_per, len(c))) + np.asarray(c))
        labels.extend([i] * n_per)
    return np.concatenate(pts), np.array(labels)


def reference_dbscan(x, eps, min_points):
    """``dbscan`` as it was before the row blocks: neighbour lists from one
    n x n distance matrix."""
    n = len(x)
    sq = (x * x).sum(axis=1)[:, None] + (x * x).sum(axis=1)[None, :] - 2.0 * x @ x.T
    d = np.sqrt(np.maximum(sq, 0.0))
    return bfs_labels([np.where(d[i] <= eps)[0] for i in range(n)], min_points)


def bfs_labels(neighbors, min_points):
    """(labels, clusters) of the breadth-first search that ``dbscan`` ran
    before it labelled with array operations."""
    n = len(neighbors)
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
    return labels, cluster


def pair_lists(n, lo, hi):
    """Each row's neighbour list from the pairs lo <= hi, stored once."""
    adj = np.zeros((n, n), dtype=bool)
    adj[lo, hi] = adj[hi, lo] = True
    return [np.flatnonzero(row) for row in adj]


class TestCluster:
    def test_blocked_dbscan_equals_the_full_matrix_reference(self):
        # more than two blocks of rows, with exact duplicates; a point count
        # that is a multiple of 16 keeps OpenBLAS's gemm rows independent of
        # the row blocking even when it runs threaded
        rng = np.random.default_rng(3)
        n = 2 * ev.BLOCK_ROWS + 64
        pts, _ = blobs(rng, rng.normal(size=(16, 6)), n_per=n // 16, scale=0.3)
        pts[rng.integers(0, n, 40)] = pts[rng.integers(0, n, 40)]
        x = cl._l2n(pts)
        # a radius that is one of the distances: the point at it is a neighbour
        at_fifth = float(np.sort(ev._dist(next(ev.pairwise_blocks(x, x))[1][0]))[4])
        for eps, min_points in ((at_fifth, 5), (0.1, 2), (0.2, 4), (0.35, 4), (0.6, 8)):
            labeling = cl.dbscan(x, eps, min_points)
            labels, clusters = reference_dbscan(x, eps, min_points)
            np.testing.assert_array_equal(labeling.assignments, labels)
            assert labeling.num_clusters == clusters

    def test_square_threshold_decides_as_the_root_does(self):
        rng = np.random.default_rng(8)
        x = cl._l2n(rng.normal(size=(60, 8)))
        from_data = float(ev._dist(next(ev.pairwise_blocks(x, x))[1][3, 17]))
        for eps in (0.0, 1e-300, 0.1, 0.35, 0.5, from_data, 2.0, math.inf, 1e200):
            thr = cl._sq_threshold(eps)
            sq = [eps * eps]
            for _ in range(3):
                sq = [math.nextafter(sq[0], -math.inf)] + sq + [math.nextafter(sq[-1], math.inf)]
            sq = np.array(sq + [-1e-17, -math.inf, 0.0, math.inf, math.nan])
            np.testing.assert_array_equal(sq <= thr, ev._dist(sq) <= eps, err_msg=repr(eps))
            if math.isfinite(eps):  # a few ulp steps from eps * eps
                steps = np.array([thr, min(eps * eps, sys.float_info.max)]).view(np.int64)
                assert abs(int(steps[0]) - int(steps[1])) <= 4, eps
        for eps in (-1.0, -1e-300, -math.inf, math.nan):
            assert math.isnan(cl._sq_threshold(eps))
            lo, hi = cl.neighbour_pairs(x, eps)
            assert len(lo) == len(hi) == 0
            assert cl.dbscan(x, eps, 1).num_clusters == 0
        lo, hi = cl.neighbour_pairs(x, math.inf)
        assert len(lo) == 60 * 61 // 2 and (lo <= hi).all()

    def test_array_labels_equal_the_breadth_first_search(self):
        # the search runs on the implementation's own pairs, so the two
        # agree bit for bit whatever BLAS threads do to the distances
        rng = np.random.default_rng(9)
        seen = dict(duplicates=0, eps_zero=0, min_points_one=0, all_outliers=0, odd_n=0,
                    border=0)
        for _ in range(240):
            n = int(rng.integers(2, 130))
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            if rng.random() < 0.5:
                x = np.round(x, int(rng.integers(0, 2)))
            if rng.random() < 0.3:
                x[rng.integers(0, n, n // 3)] = x[rng.integers(0, n, n // 3)]
            pick = rng.random()
            if pick < 0.15:
                eps = 0.0
            elif pick < 0.3:
                eps = float(rng.uniform(0.0, 0.05))
            else:
                _, sq = next(ev.pairwise_blocks(x, x))
                eps = float(ev._dist(sq)[0, rng.integers(0, n)]) * rng.uniform(0.3, 1.0)
            min_points = int(rng.integers(1, 8))
            labeling = cl.dbscan(x, eps, min_points)
            lo, hi = cl.neighbour_pairs(x, eps)
            labels, clusters = bfs_labels(pair_lists(n, lo, hi), min_points)
            np.testing.assert_array_equal(labeling.assignments, labels)
            assert labeling.num_clusters == clusters
            seen["duplicates"] += len(np.unique(x, axis=0)) < n
            seen["eps_zero"] += eps == 0.0
            seen["min_points_one"] += min_points == 1
            seen["all_outliers"] += clusters == 0
            seen["odd_n"] += n % 16 != 0
            degree = np.bincount(np.concatenate([lo, hi[hi != lo]]), minlength=n)
            seen["border"] += bool(((labels >= 0) & (degree < min_points)).any())
        assert min(seen.values()) >= 10, seen

    def test_shuffled_chain_joins_in_logarithmic_rounds(self):
        # hooking each root onto its smallest neighbouring root leaves only
        # the local minima of a chain of trees as roots, so each round at
        # least halves a chain: at most ceil(log2 n) rounds (7-8 measured)
        n = 3000
        order = np.random.default_rng(10).permutation(n)
        x = np.zeros((n, 2))
        x[order, 0] = np.arange(n) * 0.01  # 0.01 apart on a line
        labeling = cl.dbscan(x, 0.015, 3)
        assert labeling.num_clusters == 1 and (labeling.assignments == 0).all()
        root, rounds = cl._components(n, *cl.neighbour_pairs(x, 0.015))
        assert (root == 0).all()
        assert 1 <= rounds <= math.ceil(math.log2(n)), rounds

    def test_peak_memory_holds_no_full_matrix(self):
        # one n x n matrix and its temporaries peaked at 96.5 MB here
        rng = np.random.default_rng(4)
        pts, _ = blobs(rng, rng.normal(size=(100, 32)), n_per=20, scale=0.1)
        tracemalloc.start()
        try:
            labeling = cl.cluster(pts, eps=0.3, min_points=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labeling.num_clusters > 1
        assert peak < 30e6, peak

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts, truth = blobs(rng, [(5, 0, 0), (0, 5, 0)], n_per=12)
        labeling = cl.cluster(pts, eps=0.3, min_points=4)
        assert labeling.num_clusters == 2
        assert labeling.num_outliers == 0
        # every cluster is label-pure
        assert cl.cluster_purity(labeling, truth) == 1.0

    def test_duplicated_point_forms_cluster(self):
        pts = np.tile([1.0, 2.0, 2.0], (6, 1))
        labeling = cl.cluster(pts, eps=0.1, min_points=4)
        assert labeling.num_clusters == 1
        assert (labeling.assignments == 0).all()

    def test_eps_zero_all_outliers_error_path(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 4))
        with pytest.raises(cl.ClusterError, match="increase eps"):
            cl.cluster(pts, eps=0.0, min_points=3)

    def test_too_few_points(self):
        with pytest.raises(cl.ClusterError):
            cl.cluster(np.ones((1, 3)), eps=0.5, min_points=2)

    def test_outliers_marked_minus_one(self):
        rng = np.random.default_rng(2)
        pts, _ = blobs(rng, [(5, 0)], n_per=10, scale=0.02)
        pts = np.concatenate([pts, [[-5.0, 0.0]]])  # lone point
        labeling = cl.cluster(pts, eps=0.2, min_points=4)
        assert labeling.assignments[-1] == -1
        assert labeling.num_outliers == 1


class TestPrototypes:
    def test_identical_vectors_give_normalized_vector(self):
        v = np.array([3.0, 4.0])
        feats = np.tile(v, (5, 1))
        labeling = cl.PseudoLabeling(np.zeros(5, dtype=np.int64), 1)
        bank = cl.build_prototypes(feats, labeling)
        np.testing.assert_allclose(bank.prototypes[0], [0.6, 0.8], atol=1e-12)

    def test_antipodal_members_degenerate(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labeling = cl.PseudoLabeling(np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(cl.ClusterError, match="degenerate"):
            cl.build_prototypes(feats, labeling)

    def test_matches_direct_average(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(20, 6)) + 2.0
        labels = rng.integers(0, 3, 20)
        labeling = cl.PseudoLabeling(labels, 3)
        bank = cl.build_prototypes(feats, labeling)
        normed = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        for c in range(3):
            mean = normed[labels == c].mean(axis=0)
            np.testing.assert_allclose(bank.prototypes[c], mean / np.linalg.norm(mean),
                                       atol=1e-12)

    def test_empty_cluster_error(self):
        labeling = cl.PseudoLabeling(np.zeros(3, dtype=np.int64), 2)  # cluster 1 empty
        with pytest.raises(cl.ClusterError, match="empty"):
            cl.build_prototypes(np.ones((3, 2)), labeling)

    def test_momentum_update_preserves_unit_norm(self):
        rng = np.random.default_rng(5)
        bank = cl.PrototypeBank(cl._l2n(rng.normal(size=(4, 8))))
        for _ in range(20):
            bank.update(int(rng.integers(0, 4)), rng.normal(size=8))
            np.testing.assert_allclose(np.linalg.norm(bank.prototypes, axis=1), 1.0, atol=1e-12)


class TestContrastiveLoss:
    def test_single_cluster_zero_loss(self):
        bank = cl.PrototypeBank(np.array([[1.0, 0.0]]))
        loss = cl.prototype_contrastive_loss(T.Tensor(np.array([[0.5, 0.5]])), [0], bank)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_two_orthogonal_prototypes(self):
        bank = cl.PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = T.Tensor(np.array([[1.0, 0.0]]))
        loss = cl.prototype_contrastive_loss(f, [0], bank, temperature=1.0)
        expected = -math.log(math.e / (math.e + 1.0))
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_outliers_skipped(self):
        bank = cl.PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = T.Tensor(np.array([[1.0, 0.0], [9.0, 9.0]]))
        one = cl.prototype_contrastive_loss(f, [0, -1], bank, temperature=1.0)
        only = cl.prototype_contrastive_loss(T.Tensor(np.array([[1.0, 0.0]])), [0], bank,
                                             temperature=1.0)
        assert one.item() == pytest.approx(only.item(), rel=1e-12)
        with pytest.raises(cl.ClusterError):
            cl.prototype_contrastive_loss(f, [-1, -1], bank)

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        bank = cl.PrototypeBank(cl._l2n(rng.normal(size=(3, 5))))
        feats = T.Tensor(rng.normal(0, 1.0, (4, 5)), requires_grad=True)
        labels = [0, 1, 2, 1]

        def f(params):
            return cl.prototype_contrastive_loss(params[0], labels, bank, temperature=0.5)

        assert T.finite_diff_check(f, [feats], eps=1e-6) < 1e-5

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(7)
        protos = cl._l2n(rng.normal(size=(4, 6)))
        feats = rng.normal(size=(5, 6))
        labels = [0, 1, 2, 3, 0]
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = cl.prototype_contrastive_loss(
            T.Tensor(feats), labels, cl.PrototypeBank(protos), 0.05).item()
        rotated = cl.prototype_contrastive_loss(
            T.Tensor(feats @ q), labels, cl.PrototypeBank(protos @ q), 0.05).item()
        assert rotated == pytest.approx(base, abs=1e-9)


class TestExtractFeatures:
    def make_net(self):
        cfg = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=8,
                                 depth=1, heads=2, num_parts=2, proj_dim=8).validate()
        return vit.NetworkParams.init(cfg, np.random.default_rng(0))

    def test_shape_and_determinism(self, monkeypatch):
        params = self.make_net()
        imgs = np.random.default_rng(1).random((10, 16, 8, 3))
        monkeypatch.setattr(ft, "EXTRACT_BATCH", 4)
        a = cl.extract_all_features(params, imgs, fusion="mean_all")
        monkeypatch.setattr(ft, "EXTRACT_BATCH", 3)
        b = cl.extract_all_features(params, imgs, fusion="mean_all")
        assert a.shape == (10, 8)  # mean_all keeps embed_dim
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_worker_threads_match_serial(self, monkeypatch):
        params = self.make_net()
        imgs = np.random.default_rng(2).random((12, 16, 8, 3))
        monkeypatch.setattr(ft, "EXTRACT_BATCH", 4)
        monkeypatch.setenv("PARTSSL_WORKERS", "1")
        serial = cl.extract_all_features(params, imgs)
        monkeypatch.setenv("PARTSSL_WORKERS", "3")
        threaded = cl.extract_all_features(params, imgs)
        np.testing.assert_allclose(serial, threaded, atol=1e-12)


class TestAdaptTrainer:
    def setup_trainer(self, tmp_path=None, epochs=2, eps=2.0):
        cfg = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=16,
                                 depth=1, heads=2, num_parts=2, proj_dim=16).validate()
        params = vit.NetworkParams.init(cfg, np.random.default_rng(1))
        ds = sd.generate(sd.SyntheticSpec(num_identities=5, images_per_identity=6,
                                          cameras=2, image_h=16, image_w=8), seed=2)
        # eps 2 spans the unit sphere: one cluster, whatever the features
        cl_cfg = cl.ClusterConfig(epochs=epochs, eps=eps, ids_per_batch=3,
                                  samples_per_id=2, lr=1e-3, steps_per_epoch=4)
        log = str(tmp_path / "loss_log.jsonl") if tmp_path else None
        return cl.AdaptTrainer(params, cl_cfg, ds.images, seed=0, log_path=log), ds

    def test_epochs_recluster_freshly(self, tmp_path):
        trainer, ds = self.setup_trainer(tmp_path, epochs=2)
        labelings = []
        for e in range(2):
            trainer.run_epoch(e)
            labelings.append(trainer.labeling)
        assert len(trainer.log) == 2
        assert labelings[0] is not labelings[1]
        for rec, labeling in zip(trainer.log, labelings):
            assert rec["assignments"] == labeling.assignments.tolist()
            assert len(rec["assignments"]) == len(ds.images)

    def test_log_keeps_the_epochs_before_a_failure(self, tmp_path, monkeypatch):
        # each epoch appends its record as it ends, so a run that stops in
        # epoch 1 still explains epoch 0
        trainer, _ = self.setup_trainer(tmp_path, epochs=2)
        calls = []
        real = cl.cluster

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise cl.ClusterError("all points are outliers")
            return real(*args, **kwargs)

        monkeypatch.setattr(cl, "cluster", fail_second)
        with pytest.raises(vit.ConfigError, match="cluster.eps"):
            trainer.run()
        lines = (tmp_path / "loss_log.jsonl").read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec == trainer.log[0]
        assert list(rec) == ["epoch", "mean_loss", "grad_norm_mean", "grad_norm_max",
                             "clusters", "outliers", "assignments"]

    def test_losses_finite(self):
        trainer, _ = self.setup_trainer(epochs=2)
        hist = trainer.run()
        for stats in hist:
            assert math.isfinite(stats["mean_loss"])

    def test_learns_from_several_pseudo_labels(self):
        # eps 0.2 splits the same features into several clusters, so the
        # prototype-contrastive loss and its gradients are non-zero
        trainer, _ = self.setup_trainer(epochs=2, eps=0.2)
        before = trainer.params["blocks.0.attn.wq"].data.copy()
        hist = trainer.run()
        for stats in hist:
            assert stats["clusters"] >= 2
            assert stats["mean_loss"] > 0.0
            assert 0.0 < stats["grad_norm_mean"] <= stats["grad_norm_max"]
        assert np.abs(trainer.params["blocks.0.attn.wq"].data - before).max() > 1e-4

    def test_float32_epoch_within_bound_of_float64_reference(self, monkeypatch):
        # the one precision constant set to float64 gives the float64
        # reference; the float32 epoch read 9.9e-7 relative on the mean loss
        # and 6.5e-7 on the gradient norms. Masters and moments stay float64
        def run():
            trainer, _ = self.setup_trainer(epochs=1, eps=0.2)
            rec = trainer.run()[0]
            return trainer, np.array([rec[k] for k in ("mean_loss", "grad_norm_mean",
                                                        "grad_norm_max")])

        trainer, got = run()
        monkeypatch.setattr(optim, "COMPUTE_DTYPE", np.float64)
        _, want = run()
        assert not np.array_equal(got, want)
        assert (np.abs(got - want) <= 1e-5 * np.abs(want)).all(), np.abs(got / want - 1).max()
        opt = trainer.optimizer
        arrays = [p.data for _, p in opt.params] + [*opt._m.values(), *opt._v.values()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}

    def test_optimizer_leaves_the_projection_heads_alone(self):
        trainer, _ = self.setup_trainer(epochs=1, eps=0.2)
        assert ([n for n, _ in trainer.optimizer.params]
                == [n for n, _ in trainer.params.backbone_items()])
        heads = {n: t.data.copy() for n, t in trainer.params.items() if n.startswith("head_")}
        assert len(heads) == 16
        trainer.run()
        assert all(np.array_equal(trainer.params[n].data, a) for n, a in heads.items())

    def test_diverged_step_clears_the_tape(self, monkeypatch):
        trainer, _ = self.setup_trainer(epochs=1)
        loss_fn = cl.prototype_contrastive_loss
        monkeypatch.setattr(cl, "prototype_contrastive_loss",
                            lambda *args: loss_fn(*args) * float("nan"))
        with pytest.raises(RuntimeError, match="non-finite"):
            trainer.run_epoch(0)
        assert len(T.tape()) == 0

    def test_never_sees_labels(self):
        import inspect
        sig = inspect.signature(cl.AdaptTrainer.__init__)
        assert "labels" not in sig.parameters and "ids" not in sig.parameters
        sig = inspect.signature(cl.AdaptTrainer.run_epoch)
        assert "labels" not in sig.parameters

    def test_purity_measured_externally(self):
        trainer, ds = self.setup_trainer(epochs=1)
        trainer.run()
        purity = cl.cluster_purity(trainer.labeling, ds.ids)
        assert 0.0 <= purity <= 1.0


class TestPurity:
    def test_perfect(self):
        labeling = cl.PseudoLabeling(np.array([0, 0, 1, 1]), 2)
        assert cl.cluster_purity(labeling, [7, 7, 9, 9]) == 1.0

    def test_mixed(self):
        labeling = cl.PseudoLabeling(np.array([0, 0, 0, 0]), 1)
        assert cl.cluster_purity(labeling, [1, 1, 1, 2]) == 0.75

    def test_outliers_ignored(self):
        labeling = cl.PseudoLabeling(np.array([0, 0, -1]), 1)
        assert cl.cluster_purity(labeling, [1, 1, 5]) == 1.0
