import math

import numpy as np
import pytest

from partssl import finetune as ft
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit


def small_cfg(**kw):
    base = dict(image_h=16, image_w=8, patch_size=4, embed_dim=8, depth=1,
                heads=2, num_parts=3, proj_dim=8)
    base.update(kw)
    return vit.BackboneConfig(**base).validate()


def brute_force_triplet(emb, labels, margin):
    """Oracle: enumerate all (anchor, positive, negative), pick hardest."""
    emb = np.asarray(emb)
    labels = np.asarray(labels)
    terms = []
    for a in range(len(labels)):
        d_pos = []
        d_neg = []
        for other in range(len(labels)):
            if other == a:
                continue
            d = math.sqrt(((emb[a] - emb[other]) ** 2).sum() + 1e-12)
            (d_pos if labels[other] == labels[a] else d_neg).append(d)
        terms.append(max(max(d_pos) - min(d_neg) + margin, 0.0))
    return float(np.mean(terms))


class TestFusion:
    @pytest.mark.parametrize("strategy,expected_dim", [
        ("concat_all", 4 * 8), ("mean_all", 8), ("concat_cls_meanpart", 2 * 8)])
    def test_dimension_law(self, strategy, expected_dim):
        rng = np.random.default_rng(0)
        cls_out = T.Tensor(rng.normal(size=(5, 8)))
        parts = T.Tensor(rng.normal(size=(5, 3, 8)))
        out = ft.fuse(cls_out, parts, strategy)
        assert out.shape == (5, expected_dim)
        assert ft.fused_dim(strategy, 3, 8) == expected_dim

    def test_dimension_law_other_sizes(self):
        for L in (1, 2, 5):
            for C in (4, 16):
                assert ft.fused_dim("concat_all", L, C) == (L + 1) * C
                assert ft.fused_dim("mean_all", L, C) == C
                assert ft.fused_dim("concat_cls_meanpart", L, C) == 2 * C

    def test_mean_all_with_parts_equal_to_cls(self):
        rng = np.random.default_rng(1)
        cls_out = rng.normal(size=(4, 8))
        parts = np.repeat(cls_out[:, None, :], 3, axis=1)
        out = ft.fuse(T.Tensor(cls_out), T.Tensor(parts), "mean_all")
        np.testing.assert_allclose(out.data, cls_out, atol=1e-12)

    def test_concat_all_scales_parts_by_l(self):
        rng = np.random.default_rng(2)
        cls_out = rng.normal(size=(2, 4))
        parts = rng.normal(size=(2, 2, 4))
        out = ft.fuse(T.Tensor(cls_out), T.Tensor(parts), "concat_all").data
        np.testing.assert_allclose(out[:, 4:8], parts[:, 0] / 2, atol=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ft.FusionError, match="unknown fusion"):
            ft.fuse(T.Tensor(np.zeros((1, 4))), T.Tensor(np.zeros((1, 2, 4))), "sum_all")
        with pytest.raises(ft.FusionError):
            ft.fused_dim("sum_all", 2, 4)


class TestIdLoss:
    def test_confident_correct_classifier_near_zero(self):
        logits = T.Tensor(np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]]))
        assert ft.id_loss(logits, [0, 1]).item() < 1e-6

    def test_uniform_classifier_log_k(self):
        logits = T.Tensor(np.zeros((4, 10)))
        assert ft.id_loss(logits, [0, 3, 5, 9]).item() == pytest.approx(math.log(10), rel=1e-12)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            ft.id_loss(T.Tensor(np.zeros((1, 3))), [7])

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        w = T.Tensor(rng.normal(0, 0.5, (6, 5)), requires_grad=True)
        x = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 4, 1])

        def f(params):
            return ft.id_loss(T.Tensor(x) @ params[0], labels)

        assert T.finite_diff_check(f, [w], eps=1e-6) < 1e-6


class TestBatchHardTriplet:
    def test_margin_arithmetic_zero_loss_case(self):
        # hardest (positive, negative) per anchor: 0: (0.5, 1.0) -> hinge at 0;
        # 1: (0.5, 0.5) -> 0.3; 2: (8.0, 0.5) -> 7.8; 3: (8.0, 8.5) -> 0
        emb = np.array([[0.0], [0.5], [1.0], [9.0]])
        labels = np.array([0, 0, 1, 1])
        got = ft.batch_hard_triplet(T.Tensor(emb), labels, margin=0.3).item()
        assert got == pytest.approx((0.0 + 0.3 + 7.8 + 0.0) / 4, abs=1e-6)
        assert got == pytest.approx(brute_force_triplet(emb, labels, 0.3), abs=1e-10)

    def test_identical_embeddings_give_margin(self):
        emb = np.ones((6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        loss = ft.batch_hard_triplet(T.Tensor(emb), labels, margin=0.3)
        assert loss.item() == pytest.approx(0.3, abs=1e-5)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_ids = int(rng.integers(2, 5))
            per = int(rng.integers(2, 5))
            labels = np.repeat(np.arange(n_ids), per)[:16]
            if len(set(labels)) < 2:
                continue
            emb = rng.normal(size=(len(labels), 5))
            got = ft.batch_hard_triplet(T.Tensor(emb), labels, margin=0.3).item()
            want = brute_force_triplet(emb, labels, 0.3)
            assert got == pytest.approx(want, abs=1e-10)

    def test_well_separated_clusters_zero_loss_at_zero_margin(self):
        rng = np.random.default_rng(5)
        emb = np.concatenate([rng.normal(0, 0.01, (4, 3)), rng.normal(50, 0.01, (4, 3))])
        labels = np.array([0] * 4 + [1] * 4)
        assert ft.batch_hard_triplet(T.Tensor(emb), labels, margin=0.0).item() == 0.0

    def test_single_identity_rejected(self):
        with pytest.raises(ft.BatchCompositionError, match="identities"):
            ft.batch_hard_triplet(T.Tensor(np.zeros((4, 2))), [1, 1, 1, 1])

    def test_anchor_without_positive_rejected(self):
        with pytest.raises(ft.BatchCompositionError, match="no positive"):
            ft.batch_hard_triplet(T.Tensor(np.zeros((3, 2))), [0, 0, 1])

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        emb = T.Tensor(rng.normal(0, 1.0, (8, 4)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])

        def f(params):
            return ft.batch_hard_triplet(params[0], labels, margin=0.3)

        assert T.finite_diff_check(f, [emb], eps=1e-6) < 1e-5


class TestReidHead:
    def test_bn_train_standardizes(self):
        rng = np.random.default_rng(7)
        head = ft.ReidHead(4, 3, rng)
        x = T.Tensor(rng.normal(3.0, 2.0, (64, 4)))
        out = head.embed(x, training=True).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats_and_skips_classifier(self):
        rng = np.random.default_rng(8)
        head = ft.ReidHead(4, 3, rng)
        for _ in range(50):
            head.embed(T.Tensor(rng.normal(2.0, 1.5, (32, 4))), training=True)
        head.classifier.data = np.full_like(head.classifier.data, np.nan)
        with T.no_grad():
            out = head.embed(T.Tensor(rng.normal(2.0, 1.5, (8, 4))), training=False)
        assert np.isfinite(out.data).all()  # classifier never touched

    def test_state_round_trip(self):
        rng = np.random.default_rng(9)
        head = ft.ReidHead(4, 3, rng)
        head.embed(T.Tensor(rng.normal(size=(16, 4))), training=True)
        state = head.state()
        other = ft.ReidHead(4, 3, np.random.default_rng(1))
        other.load_state(state)
        x = T.Tensor(rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(head.embed(x, False).data, other.embed(x, False).data)


def toy_training_setup(seed=0, steps=60):
    cfg = small_cfg(image_h=16, image_w=8, embed_dim=16, depth=1, num_parts=2, proj_dim=16)
    params = vit.NetworkParams.init(cfg, np.random.default_rng(seed))
    ds = sd.generate(sd.SyntheticSpec(num_identities=5, images_per_identity=6, cameras=2,
                                      image_h=16, image_w=8), seed=3)
    ft_cfg = ft.FinetuneConfig(steps=steps, ids_per_batch=3, samples_per_id=3, lr=2e-3)
    return ft.FinetuneTrainer(params, ft_cfg, ds.images, ds.ids, seed=seed), ds


class TestFinetuneTrainer:
    def test_loss_decreases(self):
        trainer, _ = toy_training_setup(steps=60)
        log = trainer.run()
        assert np.mean([r["loss"] for r in log[-10:]]) < np.mean([r["loss"] for r in log[:10]])
        assert all(math.isfinite(r["loss"]) for r in log)

    def test_part_tokens_receive_gradients(self):
        trainer, _ = toy_training_setup(steps=2)
        before = trainer.params["part_tokens"].data.copy()
        trainer.finetune_step()
        assert np.abs(trainer.params["part_tokens"].data - before).max() > 0

    def test_eval_embeddings_ignore_classifier(self):
        trainer, ds = toy_training_setup(steps=3)
        trainer.run()
        trainer.head.classifier.data = np.full_like(trainer.head.classifier.data, np.nan)
        emb = ft.extract_embeddings(trainer.params, trainer.head, ds.images[:6],
                                    trainer.ft.fusion)
        assert np.isfinite(emb).all()
        assert emb.shape == (6, ft.fused_dim(trainer.ft.fusion, 2, 16))

    def test_needs_two_identities(self):
        cfg = small_cfg()
        params = vit.NetworkParams.init(cfg, np.random.default_rng(0))
        with pytest.raises(ft.BatchCompositionError):
            ft.FinetuneTrainer(params, ft.FinetuneConfig(), np.zeros((3, 16, 8, 3)),
                               np.zeros(3, dtype=int), seed=0)

    def test_lr_rule(self):
        cfg = ft.FinetuneConfig(ids_per_batch=8, samples_per_id=8, lr=0.0)
        assert cfg.resolve_lr() == pytest.approx(0.0004)
        assert ft.FinetuneConfig(lr=1e-3).resolve_lr() == 1e-3


class TestEmbeddingDump:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(7, 5))
        ids = rng.integers(0, 4, 7)
        cams = rng.integers(0, 3, 7)
        path = tmp_path / "emb.jsonl"
        ft.dump_embeddings(path, emb, ids, cams)
        emb2, ids2, cams2 = ft.load_embeddings(path)
        np.testing.assert_array_equal(emb, emb2)  # json floats round-trip exactly
        np.testing.assert_array_equal(ids, ids2)
        np.testing.assert_array_equal(cams, cams2)
