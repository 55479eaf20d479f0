import numpy as np
import pytest

from partssl import checkpoint as ckpt
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit


def tiny_cfg(**kw):
    base = dict(image_h=16, image_w=8, patch_size=4, embed_dim=8, depth=1,
                heads=2, num_parts=3, proj_dim=8)
    base.update(kw)
    return vit.BackboneConfig(**base).validate()


def make_params(cfg, seed=0):
    return vit.NetworkParams.init(cfg, np.random.default_rng(seed))


class TestPatchify:
    def test_8x4_image_two_patches(self):
        cfg = tiny_cfg(image_h=8, image_w=4)
        params = make_params(cfg)
        out = vit.patchify(np.zeros((8, 4, 3)), cfg, params)
        assert out.shape == (1, 2, cfg.embed_dim)

    def test_64x32_image_128_patches(self):
        cfg = tiny_cfg(image_h=64, image_w=32)
        params = make_params(cfg)
        out = vit.patchify(np.zeros((64, 32, 3)), cfg, params)
        assert out.shape == (1, 128, cfg.embed_dim)

    def test_paper_scale_geometry_128_patches(self):
        cfg = tiny_cfg(image_h=256, image_w=128, patch_size=16)
        params = make_params(cfg)
        out = vit.patchify(np.zeros((256, 128, 3)), cfg, params)
        assert out.shape == (1, 128, cfg.embed_dim)

    def test_non_divisible_dims_error(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        with pytest.raises(vit.ConfigError):
            vit.patchify(np.zeros((10, 8, 3)), cfg, params)

    def test_pos_embed_identity_at_canonical_size(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        img = np.random.default_rng(0).random((16, 8, 3))
        flat = vit.extract_patches(img, 4)
        manual = flat @ params["patch_proj.w"].data + params["patch_proj.b"].data \
            + params["pos_embed"].data
        out = vit.patchify(img, cfg, params)
        np.testing.assert_array_equal(out.data, manual)

    def test_pos_embed_interpolated_for_local_grid(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        out = vit.patchify(np.zeros((8, 8, 3)), cfg, params)  # 2x2 grid vs 4x2 canonical
        assert out.shape == (1, 4, cfg.embed_dim)
        # rows of the interpolation matrix are convex combinations
        m = vit.pos_embed_matrix(cfg, 2, 2)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert (m >= 0).all()


class TestAssemble:
    def test_global_layout_token_count(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        patches = vit.patchify(np.zeros((16, 8, 3)), cfg, params)
        seq = vit.assemble(patches, vit.all_parts(1, 3), params)
        assert seq.shape[1] == 1 + 3 + 8
        np.testing.assert_array_equal(seq.data[0, 0], params["cls_token"].data[0])
        np.testing.assert_array_equal(seq.data[0, 1:4], params["part_tokens"].data)

    def test_local_layout_uses_requested_part_token(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        patches = vit.patchify(np.zeros((16, 8, 3)), cfg, params)
        seq = vit.assemble(patches, [[2]], params)
        assert seq.shape[1] == 1 + 1 + 8
        np.testing.assert_array_equal(seq.data[0, 1], params["part_tokens"].data[1])

    def test_degenerate_single_part_layouts_coincide(self):
        cfg = tiny_cfg(num_parts=1)
        params = make_params(cfg)
        patches = vit.patchify(np.zeros((16, 8, 3)), cfg, params)
        g = vit.assemble(patches, vit.all_parts(1, 1), params)
        l = vit.assemble(patches, [[1]], params)
        np.testing.assert_array_equal(g.data, l.data)

    def test_part_index_out_of_range_error(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        patches = vit.patchify(np.zeros((16, 8, 3)), cfg, params)
        with pytest.raises(vit.LayoutError):
            vit.assemble(patches, [[4]], params)
        with pytest.raises(vit.LayoutError):
            vit.assemble(patches, [[0]], params)
        with pytest.raises(T.ShapeError):
            vit.assemble(patches, [1], params)  # one row per view is required

    def test_per_view_matches_single_layout(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        img = np.random.default_rng(1).random((3, 16, 8, 3))
        patches = vit.patchify(img, cfg, params)
        mixed = vit.assemble(patches, [[3], [1], [2]], params)
        for b, part in enumerate((3, 1, 2)):
            single = vit.assemble(patches[b:b + 1], [[part]], params)
            np.testing.assert_array_equal(mixed.data[b], single.data[0])

    def test_global_gather_matches_shared_broadcast(self):
        # bit-identical sequence and token gradients to one shared special
        # block broadcast over the batch
        cfg = tiny_cfg()
        params = make_params(cfg, seed=4)
        img = np.random.default_rng(5).random((12, 16, 8, 3))
        weight = np.random.default_rng(6).normal(size=(12, 12, cfg.embed_dim))

        def grads(assemble):
            with T.scoped_tape():
                patches = vit.patchify(img, cfg, params)
                seq = assemble(patches)
                T.sum_(seq * T.Tensor(weight)).backward(params=params.tensors())
            out = (seq.data, params["cls_token"].grad.copy(), params["part_tokens"].grad.copy())
            for p in params.tensors():
                p.zero_grad()
            return out

        def shared(patches):
            special = T.concatenate([params["cls_token"], params["part_tokens"]], axis=0)
            special = T.broadcast_to(T.reshape(special, (1, 4, -1)), (12, 4, cfg.embed_dim))
            return T.concatenate([special, patches], axis=1)

        want = grads(shared)
        got = grads(lambda patches: vit.assemble(patches, vit.all_parts(12, 3), params))
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)


class TestEncode:
    def test_depth_zero_is_identity(self):
        cfg = tiny_cfg(depth=0)
        params = make_params(cfg)
        x = T.Tensor(np.random.default_rng(0).random((2, 5, 8)))
        out = vit.encode(x, params)
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_preserved_for_every_layout(self):
        cfg = tiny_cfg(depth=2)
        params = make_params(cfg)
        img = np.random.default_rng(2).random((3, 16, 8, 3))
        for part_index in [vit.all_parts(3, 3), [[1]] * 3, np.zeros((3, 0))]:
            patches = vit.patchify(img, cfg, params)
            seq = vit.assemble(patches, part_index, params)
            out = vit.encode(seq, params)
            assert out.shape == seq.shape

    def test_permuting_patch_tokens_permutes_outputs(self):
        cfg = tiny_cfg(depth=2)
        params = make_params(cfg)
        img = np.random.default_rng(3).random((16, 8, 3))
        patches = vit.patchify(img, cfg, params)
        seq = vit.assemble(patches, vit.all_parts(1, 3), params).data.copy()
        n_special = 4
        perm = seq.copy()
        perm[0, [n_special, n_special + 3]] = perm[0, [n_special + 3, n_special]]
        out = vit.encode(T.Tensor(seq), params).data
        out_p = vit.encode(T.Tensor(perm), params).data
        np.testing.assert_allclose(out[0, :n_special], out_p[0, :n_special], atol=1e-12)
        np.testing.assert_allclose(out[0, n_special], out_p[0, n_special + 3], atol=1e-12)
        np.testing.assert_allclose(out[0, n_special + 3], out_p[0, n_special], atol=1e-12)

    def test_single_head_block_matches_hand_computed_attention(self):
        # one block, one head, two tokens, two channels; biases zero and the
        # layer norms neutralized so the oracle below stays short
        cfg = vit.BackboneConfig(image_h=4, image_w=4, patch_size=4, embed_dim=2,
                                 depth=1, heads=1, num_parts=1, proj_dim=2).validate()
        params = make_params(cfg, seed=5)
        rng = np.random.default_rng(7)
        wq, wk, wv, wo = (rng.normal(size=(2, 2)) for _ in range(4))
        w1 = rng.normal(size=(2, 8))
        w2 = rng.normal(size=(8, 2))
        params["blocks.0.attn.wq"].data = wq
        params["blocks.0.attn.wk"].data = wk
        params["blocks.0.attn.wv"].data = wv
        params["blocks.0.attn.wo"].data = wo
        params["blocks.0.mlp.w1"].data = w1
        params["blocks.0.mlp.w2"].data = w2
        x = rng.normal(size=(1, 2, 2))

        def ln(v):
            mu = v.mean(axis=-1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-6)

        h = ln(x[0])
        q, k, v = h @ wq, h @ wk, h @ wv
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        y = x[0] + (attn @ v) @ wo
        h2 = ln(y)
        gelu_in = h2 @ w1
        c = np.sqrt(2 / np.pi)
        gelu_out = 0.5 * gelu_in * (1 + np.tanh(c * (gelu_in + 0.044715 * gelu_in ** 3)))
        y = y + gelu_out @ w2
        expected = ln(y)

        out = vit.encode(T.Tensor(x), params).data[0]
        np.testing.assert_allclose(out, expected, atol=1e-10)


def special_token_cosines(params, images):
    """Mean over images of the pairwise cosines between the channel-centred
    last-block states of [CLS] and every [PART] (global layout)."""
    cfg = params.cfg
    plain = params.clone()  # final norm without affine: centre and scale only
    plain["final_ln.g"].data = np.ones(cfg.embed_dim)
    plain["final_ln.b"].data = np.zeros(cfg.embed_dim)
    with T.no_grad():
        seq = vit.assemble(vit.patchify(images, cfg, plain),
                           vit.all_parts(len(images), cfg.num_parts), plain)
        out = vit.encode(seq, plain).data[:, :1 + cfg.num_parts]
    out = out / np.linalg.norm(out, axis=-1, keepdims=True)
    cos = np.einsum("bic,bjc->ij", out, out) / len(out)
    return cos[np.triu_indices(1 + cfg.num_parts, 1)]


class TestSpecialTokenIdentity:
    # The acceptance toy backbone (32x16 images, 3 blocks, width 48, 3 parts).
    TOY = dict(image_h=32, image_w=16, patch_size=4, embed_dim=48, depth=3, heads=4,
               num_parts=3, proj_dim=128)
    # A cosine of 0.9 puts 81% of each state's energy on the other's
    # direction: the tokens then issue nearly the same query, read the same
    # patches and cannot specialize. With a zero patch bias and token_init
    # 0.3 (token norm ~2 against shared residual updates of norm 5-12) the
    # largest pair read 0.95-0.97 at init; it now reads 0.6-0.7.
    BOUND = 0.9

    def test_special_tokens_stay_distinct_through_the_encoder(self):
        cfg = vit.BackboneConfig(**self.TOY).validate()
        ds = sd.generate(sd.SyntheticSpec(num_identities=4, images_per_identity=3,
                                          image_h=32, image_w=16), seed=11)
        for seed in range(3):
            cos = special_token_cosines(make_params(cfg, seed), ds.images)
            assert cos.max() < self.BOUND, (seed, np.round(cos, 3))

    def test_mid_grey_patch_embeds_to_position_only(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        out = vit.patchify(np.full((16, 8, 3), 0.5), cfg, params)
        np.testing.assert_allclose(out.data[0], params["pos_embed"].data, atol=1e-12)


class TestProject:
    def test_zero_weights_zero_logits(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        for nm in ("w1", "b1", "w2", "b2", "w3", "b3", "b4"):
            params["head_cls." + nm].data = np.zeros_like(params["head_cls." + nm].data)
        out = vit.project(T.Tensor(np.random.default_rng(0).random((3, 8))), params, "head_cls")
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.proj_dim)))

    def test_scaling_before_normalization_leaves_output_unchanged(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        x = T.Tensor(np.random.default_rng(1).random((4, 8)))
        base = vit.project(x, params, "head_cls").data.copy()
        params["head_cls.w3"].data = params["head_cls.w3"].data * 2.0
        params["head_cls.b3"].data = params["head_cls.b3"].data * 2.0
        np.testing.assert_allclose(vit.project(x, params, "head_cls").data, base, atol=1e-12)

    def test_head_gradient_check(self):
        cfg = tiny_cfg(embed_dim=4, heads=1, proj_dim=8, head_hidden=6, head_bottleneck=5)
        params = make_params(cfg, seed=3)
        x = T.Tensor(np.random.default_rng(4).random((2, 4)))
        names = ["head_cls." + n for n in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")]
        tensors = [params[n] for n in names]
        # healthy weight scale keeps the pre-normalization vector away from the
        # origin, where central differences themselves lose accuracy
        g = np.random.default_rng(6)
        for p in tensors:
            p.data = g.normal(0, 0.4, p.shape)
        target = np.random.default_rng(5).random((2, 8))

        def f(ps):
            out = vit.project(x, params, "head_cls")
            return T.mean((out - T.Tensor(target)) * (out - T.Tensor(target)))

        assert np.isfinite(vit.project(x, params, "head_cls").data).all()
        assert T.finite_diff_check(f, tensors, eps=1e-5) < 1e-4


class TestAttentionMap:
    def test_uniform_at_zero_query_key(self):
        cfg = tiny_cfg(depth=1)
        params = make_params(cfg)
        params["blocks.0.attn.wq"].data = np.zeros((8, 8))
        params["blocks.0.attn.bq"].data = np.zeros(8)
        params["blocks.0.attn.wk"].data = np.zeros((8, 8))
        params["blocks.0.attn.bk"].data = np.zeros(8)
        amap = vit.attention_map(np.random.default_rng(0).random((16, 8, 3)), "cls", 0, params)
        n_tokens = 1 + 3 + 8
        np.testing.assert_allclose(amap.weights, np.full(n_tokens, 1 / n_tokens), atol=1e-12)

    def test_weights_sum_to_one(self):
        cfg = tiny_cfg(depth=2)
        params = make_params(cfg, seed=9)
        for token in ["cls", 1, 2, 3]:
            for layer in range(2):
                amap = vit.attention_map(np.random.default_rng(1).random((16, 8, 3)),
                                         token, layer, params)
                assert abs(amap.weights.sum() - 1.0) < 1e-9
                assert (amap.weights >= 0).all()

    def test_layer_out_of_range(self):
        cfg = tiny_cfg(depth=1)
        params = make_params(cfg)
        with pytest.raises(vit.LayoutError):
            vit.attention_map(np.zeros((16, 8, 3)), "cls", 1, params)


class TestGradFlow:
    def test_only_included_part_token_gets_grad(self):
        cfg = tiny_cfg(depth=1)
        params = make_params(cfg, seed=11)
        img = np.random.default_rng(12).random((1, 16, 8, 3))
        with T.scoped_tape():
            patches = vit.patchify(img, cfg, params)
            seq = vit.assemble(patches, [[2]], params)
            out = vit.encode(seq, params)
            loss = T.sum_(out * out)
            loss.backward(params=params.tensors())
        g = params["part_tokens"].grad
        assert np.abs(g[1]).max() > 0
        np.testing.assert_array_equal(g[0], np.zeros(8))
        np.testing.assert_array_equal(g[2], np.zeros(8))


class TestConfigValidation:
    def test_invariants(self):
        with pytest.raises(vit.ConfigError):
            tiny_cfg(image_h=15)
        with pytest.raises(vit.ConfigError):
            tiny_cfg(embed_dim=9, heads=2)
        with pytest.raises(vit.ConfigError):
            tiny_cfg(num_parts=0)
        with pytest.raises(vit.ConfigError):
            tiny_cfg(proj_dim=1)

    def test_teacher_student_same_shapes(self):
        cfg = tiny_cfg()
        student = make_params(cfg)
        teacher = student.clone()
        assert student.names() == teacher.names()
        for name in student.names():
            assert student[name].shape == teacher[name].shape
            assert not teacher[name].requires_grad


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=13)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, params.state(), config={"embed_dim": 8}, extra={"step": 7})
        loaded = ckpt.load_checkpoint(path)
        assert loaded.config == {"embed_dim": 8}
        assert loaded.extra == {"step": 7}
        assert set(loaded.tensors) == set(params.names())
        for name in params.names():
            arr = loaded.tensors[name]
            assert arr.dtype == np.float64
            assert arr.tobytes() == params[name].data.tobytes()

    def test_version_mismatch_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        monkeypatch.setattr(ckpt, "VERSION", 99)
        ckpt.save_checkpoint(path, {"w": np.ones(3)})
        monkeypatch.setattr(ckpt, "VERSION", 1)
        with pytest.raises(ckpt.CheckpointError, match="version"):
            ckpt.load_checkpoint(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_checkpoint(path)
