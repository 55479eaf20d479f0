import math

import numpy as np
import pytest

from partssl import cluster as cl
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit


def blobs(rng, centers, n_per, scale=0.05):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(0, scale, (n_per, len(c))) + np.asarray(c))
        labels.extend([i] * n_per)
    return np.concatenate(pts), np.array(labels)


class TestCluster:
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
        bank = cl.PrototypeBank(cl._l2n(rng.normal(size=(4, 8))), momentum=0.2)
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

    def test_shape_and_determinism(self):
        params = self.make_net()
        imgs = np.random.default_rng(1).random((10, 16, 8, 3))
        a = cl.extract_all_features(params, imgs, fusion="mean_all", batch_size=4)
        b = cl.extract_all_features(params, imgs, fusion="mean_all", batch_size=3)
        assert a.shape == (10, 8)  # mean_all keeps embed_dim
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_worker_threads_match_serial(self, monkeypatch):
        params = self.make_net()
        imgs = np.random.default_rng(2).random((12, 16, 8, 3))
        serial = cl.extract_all_features(params, imgs, batch_size=4, workers=1)
        threaded = cl.extract_all_features(params, imgs, batch_size=4, workers=3)
        np.testing.assert_allclose(serial, threaded, atol=1e-12)


class TestAdaptTrainer:
    def setup_trainer(self, tmp_path=None, epochs=2):
        cfg = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=16,
                                 depth=1, heads=2, num_parts=2, proj_dim=16).validate()
        params = vit.NetworkParams.init(cfg, np.random.default_rng(1))
        ds = sd.generate(sd.SyntheticSpec(num_identities=5, images_per_identity=6,
                                          cameras=2, image_h=16, image_w=8), seed=2)
        # eps 2 spans the unit sphere: one cluster, whatever the features
        cl_cfg = cl.ClusterConfig(epochs=epochs, eps=2.0, ids_per_batch=3,
                                  samples_per_id=2, optimizer="adamw", lr=1e-3,
                                  steps_per_epoch=4)
        out = str(tmp_path) if tmp_path else None
        return cl.AdaptTrainer(params, cl_cfg, ds.images, seed=0, out_dir=out), ds

    def test_epochs_recluster_freshly(self, tmp_path):
        trainer, _ = self.setup_trainer(tmp_path, epochs=2)
        hist = trainer.run()
        assert len(hist) == 2
        assert hist[0].labeling is not hist[1].labeling
        for e in range(2):
            assert (tmp_path / ("pseudo_labels_epoch%d.jsonl" % e)).exists()

    def test_losses_finite(self):
        trainer, _ = self.setup_trainer(epochs=2)
        hist = trainer.run()
        for stats in hist:
            assert math.isfinite(stats.mean_loss)

    def test_never_sees_labels(self):
        import inspect
        sig = inspect.signature(cl.AdaptTrainer.__init__)
        assert "labels" not in sig.parameters and "ids" not in sig.parameters
        sig = inspect.signature(cl.AdaptTrainer.run_epoch)
        assert "labels" not in sig.parameters

    def test_purity_measured_externally(self):
        trainer, ds = self.setup_trainer(epochs=1)
        hist = trainer.run()
        purity = cl.cluster_purity(hist[0].labeling, ds.ids)
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
