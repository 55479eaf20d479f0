import json
import math

import numpy as np
import pytest

from partssl import finetune as ft
from partssl import multicrop as mc
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit
from partssl.checkpoint import load_checkpoint, save_checkpoint


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

    def test_off_size_images_are_resized_as_a_batch(self):
        cfg = small_cfg()
        params = vit.NetworkParams.init(cfg, np.random.default_rng(4))
        images = np.random.default_rng(5).random((3, 20, 12, 3))
        resized = np.stack([mc.resize_batch([im], 16, 8)[0] for im in images])
        flip = np.array([True, False, True])
        with T.no_grad():
            got = ft.forward_embeddings(params, images, "concat_all", flip)
            want = ft.forward_embeddings(params, resized, "concat_all", flip)
        assert np.array_equal(got.data, want.data)

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

    def test_training_neck_matches_explicit_broadcast(self):
        # sub and div broadcast the (dim,) batch statistics themselves: the
        # same bits as an explicit reshape + broadcast_to, in 4 fewer nodes
        rng = np.random.default_rng(10)
        x = rng.normal(1.0, 2.0, (12, 6))
        g = rng.normal(size=(12, 6))

        def explicit(head, f):
            mu = T.mean(f, axis=0)
            centered = f - T.broadcast_to(T.reshape(mu, (1, 6)), f.shape)
            var = T.mean(centered * centered, axis=0)
            std = T.sqrt(var + head.eps)
            xhat = centered / T.broadcast_to(T.reshape(std, (1, 6)), f.shape)
            return xhat * head.gamma + head.beta

        def run(embed):
            head = ft.ReidHead(6, 3, np.random.default_rng(0))
            feats = T.Tensor(x.copy(), requires_grad=True)
            with T.scoped_tape() as tp:
                out = embed(head, feats)
                nodes = len(tp)
                T.sum_(out * T.Tensor(g)).backward()
            return (out.data, feats.grad, head.gamma.grad, head.beta.grad), nodes

        new, new_nodes = run(lambda head, f: head.embed(f, training=True))
        old, old_nodes = run(explicit)
        for got, want in zip(new, old):
            np.testing.assert_array_equal(got, want)
        assert new_nodes == old_nodes - 4


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

    def test_diverged_step_clears_the_tape(self):
        trainer, _ = toy_training_setup(steps=2)
        trainer.head.classifier.data = np.full_like(trainer.head.classifier.data, np.nan)
        with pytest.raises(RuntimeError, match="non-finite"):
            trainer.finetune_step()
        assert len(T.tape()) == 0

    def test_tape_size_at_default_backbone(self, monkeypatch):
        # one lookup for the special tokens, one residual slice to the rows
        # the last block computes, the hardest positive and negative and the
        # label log-probabilities read by index: 96 nodes. A [CLS] broadcast
        # apart from a part gather and max/min over ±1e12-masked distances
        # recorded 99. The node outputs hold 66.7 MB; a last block over every
        # token held 82.4 MB.
        ds = sd.generate(sd.SyntheticSpec(num_identities=4, images_per_identity=4), seed=0)
        params = vit.NetworkParams.init(vit.BackboneConfig().validate(),
                                        np.random.default_rng(0))
        trainer = ft.FinetuneTrainer(params, ft.FinetuneConfig(steps=1), ds.images, ds.ids, 0)
        sizes, dtypes = [], set()
        backward = T.backward

        def counting_backward(loss, params=None):
            nodes = T.tape().nodes
            sizes.append((len(nodes), sum(out.data.nbytes for out, _, _ in nodes) / 1e6))
            dtypes.update(t.data.dtype for out, parents, _ in nodes for t in (out,) + parents)
            backward(loss, params=params)

        monkeypatch.setattr(T, "backward", counting_backward)
        with T.scoped_tape():  # nodes other tests left on this thread's tape do not count
            trainer.finetune_step()
        assert len(sizes) == 1 and sizes[0][0] <= 96 and sizes[0][1] <= 70.0, sizes
        assert dtypes == {np.dtype(np.float64)}  # training stays float64

    def test_eval_embeddings_ignore_classifier(self):
        trainer, ds = toy_training_setup(steps=3)
        trainer.run()
        trainer.head.classifier.data = np.full_like(trainer.head.classifier.data, np.nan)
        emb = ft.extract_embeddings(trainer.params, trainer.head, ds.images[:6],
                                    trainer.ft.fusion)
        assert np.isfinite(emb).all()
        assert emb.shape == (6, ft.fused_dim(trainer.ft.fusion, 2, 16))

    def test_threaded_extraction_bit_identical_at_default_backbone(self, monkeypatch):
        # 4-image chunks of 132 float32 tokens: attention, gelu and layer_norm
        # each run several blocks per call, so shared scratch would show here
        cfg = vit.BackboneConfig().validate()
        assert 4 * 132 * cfg.embed_dim * 4 > T.BLOCK_BYTES
        params = vit.NetworkParams.init(cfg, np.random.default_rng(5))
        images = sd.generate(sd.SyntheticSpec(num_identities=6, images_per_identity=4),
                             seed=5).images
        monkeypatch.setattr(ft, "EXTRACT_BATCH", 4)
        monkeypatch.setenv("PARTSSL_WORKERS", "1")
        serial = ft.extract_embeddings(params, None, images, "concat_all")
        monkeypatch.setenv("PARTSSL_WORKERS", "2")
        threaded = ft.extract_embeddings(params, None, images, "concat_all")
        assert serial.shape == (24, 4 * cfg.embed_dim)
        assert np.array_equal(serial, threaded)

    def test_extraction_is_float32_within_bound_of_float64_forward(self):
        # the backbone runs on a float32 copy; the embeddings come back as
        # float64 within 1e-5 of the largest entry of the float64 forward
        trainer, ds = toy_training_setup(steps=3)
        trainer.run()
        for head in (None, trainer.head):
            got = ft.extract_embeddings(trainer.params, head, ds.images, trainer.ft.fusion)
            with T.no_grad():
                feats = ft.forward_embeddings(trainer.params, ds.images, trainer.ft.fusion)
                want = (feats if head is None else head.embed(feats, training=False)).data
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
            assert not np.array_equal(got, want)
        assert {t.data.dtype for t in trainer.params.tensors()} == {np.dtype(np.float64)}

    def test_optimizer_leaves_the_projection_heads_alone(self):
        # the loss never reads head_cls or head_part: they are not optimised,
        # so weight decay does not shrink them either
        trainer, _ = toy_training_setup(steps=3)
        names = [n for n, _ in trainer.optimizer.params]
        assert names == [n for n, _ in trainer.params.backbone_items()] + [
            n for n, _ in trainer.head.named_params()]
        assert not any(n.startswith(("head_cls.", "head_part.")) for n in names)
        heads = {n: t.data.copy() for n, t in trainer.params.items() if n.startswith("head_")}
        assert len(heads) == 16
        trainer.run()
        assert all(np.array_equal(trainer.params[n].data, a) for n, a in heads.items())

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


def rewrite_dump(path, tensors=None, **extra):
    """Save the dump at ``path`` again with its tensors and header fields
    replaced by those given: a well-formed container with a bad dump inside."""
    old = load_checkpoint(path)
    save_checkpoint(path, old.tensors if tensors is None else tensors,
                    extra=dict(old.extra, **extra))


class TestEmbeddingDump:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(7, 5))
        ids = rng.integers(0, 4, 7)
        cams = rng.integers(0, 3, 7)
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, emb, ids, cams)
        emb2, ids2, cams2 = ft.load_embeddings(path)
        np.testing.assert_array_equal(emb, emb2)  # raw float64 bytes round-trip exactly
        np.testing.assert_array_equal(ids, ids2)
        np.testing.assert_array_equal(cams, cams2)

    @pytest.mark.parametrize("emb, ids, cams", [
        ([[0.25]], [3], [1]),
        ([[-0.0, 0.0], [5e-324, -5e-324]], [0, 0], [0, 1]),
        ([[1.7e308, -1.7e308]], [0], [0]),
        ([[1.0], [2.0]], [-2 ** 63, 2 ** 63 - 1], [2 ** 63 - 1, -2 ** 63]),
    ], ids=["one-by-one", "signed-zero-and-subnormal", "near-float-max", "int64-bounds"])
    def test_round_trip_is_bit_exact(self, tmp_path, emb, ids, cams):
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, emb, ids, cams)
        emb2, ids2, cams2 = ft.load_embeddings(path)
        assert emb2.dtype == np.float64 and emb2.tobytes() == np.asarray(emb).tobytes()
        assert ids2.tolist() == ids and cams2.tolist() == cams

    @pytest.mark.parametrize("emb, ids", [(np.zeros(3), [0, 1, 2]), (np.zeros((3, 2)), [0, 1])],
                             ids=["1-D", "two-labels-for-three-rows"])
    def test_dump_refuses_what_it_cannot_write(self, tmp_path, emb, ids):
        with pytest.raises(ValueError, match="dump_embeddings needs"):
            ft.dump_embeddings(tmp_path / "emb.bin", emb, ids, [0, 0, 0])
        assert not (tmp_path / "emb.bin").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_is_config_error(self, tmp_path, bad):
        emb = np.random.default_rng(12).normal(size=(7, 5))
        emb[4, 2] = emb[6, 0] = bad
        path = str(tmp_path / "emb.bin")
        ft.dump_embeddings(path, emb, np.arange(7), np.zeros(7))
        with pytest.raises(vit.ConfigError, match="emb.bin row 4: .*not finite"):
            ft.load_embeddings(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda path: path.write_bytes(path.read_bytes()[:-20]),
         ": tensor 'vector' runs past the end.*; not an embedding dump of this build"),
        (lambda path: rewrite_dump(path, camera=None), ": camera is not a list of 6 labels"),
        (lambda path: rewrite_dump(path, {"vector": np.ones((7, 5))}),
         ": identity is not a list of 7 labels"),
        (lambda path: rewrite_dump(path, {"vectors": np.ones((6, 5))}),
         ": vector is not an \\(N, D\\) tensor with N >= 1, got none"),
        (lambda path: rewrite_dump(path, stage="pretrain"),
         ": not an embedding dump, got stage 'pretrain'"),
    ], ids=["truncated", "missing-camera", "longer-vector", "string-element", "not-an-object"])
    def test_malformed_record_is_config_error(self, tmp_path, damage, message):
        # the container cannot hold a string element or a record that is not an
        # object: those cases dump no vector tensor, or another stage
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.random.default_rng(13).normal(size=(6, 5)),
                           np.arange(6), np.zeros(6))
        damage(path)
        with pytest.raises(vit.ConfigError, match="emb.bin" + message):
            ft.load_embeddings(str(path))

    def test_one_dimensional_vector_is_config_error(self, tmp_path):
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.ones((4, 2)), np.arange(4), np.zeros(4))
        rewrite_dump(path, {"vector": np.ones(4)})
        with pytest.raises(vit.ConfigError, match=r"emb.bin: vector is not .* got \(4,\)"):
            ft.load_embeddings(str(path))

    def test_numbers_in_place_of_vectors_are_config_error(self, tmp_path):
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.ones((1, 1)), [0], [0])
        rewrite_dump(path, {"vector": np.float64(1.5)})  # the container stores it as (1,)
        with pytest.raises(vit.ConfigError, match=r"vector is not .* got \(1,\)"):
            ft.load_embeddings(str(path))

    def test_empty_dump_is_config_error(self, tmp_path):
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.zeros((0, 5)), [], [])
        with pytest.raises(vit.ConfigError, match=r"N >= 1, got \(0, 5\)"):
            ft.load_embeddings(str(path))

    @pytest.mark.parametrize("field", ["identity", "camera"])
    @pytest.mark.parametrize("label", ['"x"', "null", "[1]", "true", "1.5", str(10 ** 30),
                                      str(2 ** 63)])
    def test_label_that_is_not_an_int64_is_config_error(self, tmp_path, field, label):
        # numpy read 1.5 as 1 and true as 1; the others failed in evaluate
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.random.default_rng(14).normal(size=(6, 5)),
                           np.arange(6), np.zeros(6))
        values = load_checkpoint(path).extra[field]
        values[2] = json.loads(label)
        rewrite_dump(path, **{field: values})
        with pytest.raises(vit.ConfigError,
                           match=r"emb.bin row 2: %s .* is not an integer label" % field):
            ft.load_embeddings(str(path))

    def test_labels_at_the_int64_bounds_load(self, tmp_path):
        path = tmp_path / "emb.bin"
        ft.dump_embeddings(path, np.zeros((2, 3)), [-2 ** 63, 2 ** 63 - 1], [0, -1])
        _, ids, cams = ft.load_embeddings(str(path))
        assert ids.dtype == cams.dtype == np.int64
        assert ids.tolist() == [-2 ** 63, 2 ** 63 - 1] and cams.tolist() == [0, -1]
