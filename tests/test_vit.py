import contextlib
import errno
import json
import struct

import numpy as np
import pytest

from partssl import checkpoint as ckpt
from partssl import multicrop as mc
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
        m = vit.pos_embed_matrices(cfg, 2, 2, [(0.0, 0.0, 1.0, 1.0)], [False])[0]
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert (m >= 0).all()


def interp_1d(src, dst, lo_frac, hi_frac, mirror):
    """One view's 1-D interpolation matrix, computed row by row: the reference."""
    m = np.zeros((dst, src))
    if src == 1:
        m[:, 0] = 1.0
        return m
    span = (hi_frac - lo_frac) * src
    pos = lo_frac * src + (np.arange(dst) + 0.5) * (span / dst) - 0.5
    if mirror:
        pos = pos[::-1]
    for i, p in enumerate(np.clip(pos, 0.0, src - 1.0)):
        lo = int(np.floor(p))
        m[i, lo] += 1.0 - (p - lo)
        m[i, min(lo + 1, src - 1)] += p - lo
    return m


class TestPositionMatrices:
    @pytest.mark.parametrize("width, grid", [(16, (8, 4)), (16, (4, 2)), (16, (1, 3)),
                                             (4, (4, 2))])  # width 4: one source column
    def test_batched_matches_kron_per_view(self, width, grid):
        cfg = tiny_cfg(image_h=32, image_w=width)
        g = np.random.default_rng(21)
        size = g.uniform(0.05, 1.0, (40, 2))
        rects = np.column_stack([g.uniform(0, 1 - size[:, 0]), g.uniform(0, 1 - size[:, 1]),
                                 size[:, 0], size[:, 1]])
        rects[0] = (0.0, 0.0, 1.0, 1.0)
        mirrors = g.random(40) < 0.5
        mirrors[:2] = (False, True)
        mats = vit.pos_embed_matrices(cfg, *grid, rects, mirrors)
        gh, gw = cfg.grid
        for (top, left, h, w), mirror, got in zip(rects, mirrors, mats):
            want = np.kron(interp_1d(gh, grid[0], top, top + h, False),
                           interp_1d(gw, grid[1], left, left + w, mirror))
            assert np.array_equal(got, want)

    def test_full_rect_weights_are_the_resize_weights(self):
        # resizing the one-hot rows of the identity reads off resize's own
        # interpolation weights; positions must use the same sampling
        whole, flat = np.array([0.0]), np.array([False])
        for src in range(2, 13):
            basis = np.eye(src)[:, None, :]  # (src, 1, src): channel c is pixel c
            for dst in range(1, 13):
                resized = mc.resize_batch([basis], dst, 1)[0, :, 0, :]
                weights = vit._interp_weights(src, dst, whole, whole + 1.0, flat)[0]
                assert np.array_equal(resized, weights), (src, dst)

    def test_single_view_matrix_is_one_row_of_the_batch(self):
        cfg = tiny_cfg()
        whole, rect = (0.0, 0.0, 1.0, 1.0), (0.25, 0.1, 0.5, 0.8)
        batch = vit.pos_embed_matrices(cfg, 2, 2, [whole, rect], [False, True])
        assert np.array_equal(vit.pos_embed_matrices(cfg, 2, 2, [whole], [False])[0], batch[0])
        assert np.array_equal(vit.pos_embed_matrices(cfg, 2, 2, [rect], [True])[0], batch[1])
        # patchify without rects (stretch) positions a view by the whole rect's row
        params = make_params(cfg)
        images = np.random.default_rng(3).random((2, 8, 8, 3))
        patches = T.Tensor(vit.extract_patches(images, cfg.patch_size))
        want = (T.linear(patches, params["patch_proj.w"], params["patch_proj.b"])
                + T.Tensor(batch[0]) @ params["pos_embed"])
        assert np.array_equal(vit.patchify(images, cfg, params).data, want.data)

    def test_patchify_positions_each_view_by_its_plan(self):
        # crop-aware positions: each view's rows are those of its own plan's
        # rect and flip, bit for bit; without plans every view is stretched
        cfg = tiny_cfg(image_h=32, image_w=16)
        params = make_params(cfg)
        images = np.random.default_rng(4).random((3, 12, 8, 3))
        plans = [mc.CropPlan(top, left, h, w, (32, 16), (12, 8), flip, 1.0, 1.0)
                 for top, left, h, w, flip in ((0, 0, 32, 16, False), (4, 2, 12, 10, True),
                                               (20, 0, 9, 16, False))]
        got = vit.patchify(images, cfg, params, plans).data
        patches = T.Tensor(vit.extract_patches(images, cfg.patch_size))
        emb = T.linear(patches, params["patch_proj.w"], params["patch_proj.b"]).data

        def positions(rect, flip):
            mat = vit.pos_embed_matrices(cfg, 3, 2, [rect], [flip])[0]
            return (T.Tensor(mat) @ params["pos_embed"]).data

        for k, plan in enumerate(plans):
            assert np.array_equal(got[k], emb[k] + positions(plan.rect_frac, plan.flip))
        stretch = emb + positions((0, 0, 1, 1), False)
        assert np.array_equal(vit.patchify(images, cfg, params).data, stretch)
        assert np.array_equal(got[0], stretch[0])  # the whole image, unflipped
        assert not np.array_equal(got[1:], stretch[1:])


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


class TestLastBlockRows:
    """The last block computes only the [CLS] and [PART] rows that
    ``forward_tokens`` returns; those rows are the full pass's."""

    LAYOUTS = {"global": vit.all_parts(3, 3), "local": np.array([[2], [1], [3]])}

    def full_rows(self, images, part_index, params):
        seq = vit.assemble(vit.patchify(images, params.cfg, params), part_index, params)
        out = vit.encode(seq, params)
        return out[:, 0, :], out[:, 1:1 + np.shape(part_index)[1], :]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("grad", [True, False])
    def test_forward_tokens_match_the_full_encode_rows(self, layout, grad):
        params = make_params(tiny_cfg(depth=2), seed=21)
        img = np.random.default_rng(22).random((3, 16, 8, 3))
        idx = self.LAYOUTS[layout]
        with T.scoped_tape(), (contextlib.nullcontext() if grad else T.no_grad()):
            got = vit.forward_tokens(img, idx, params)
            want = self.full_rows(img, idx, params)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g.data, w.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_gradient_matches_the_full_encode(self, layout):
        params = make_params(tiny_cfg(depth=2), seed=23)
        img = np.random.default_rng(24).random((3, 16, 8, 3))
        idx = self.LAYOUTS[layout]
        rng = np.random.default_rng(25)
        w_cls, w_part = rng.normal(size=(3, 8)), rng.normal(size=(3, idx.shape[1], 8))

        def grads(forward):
            with T.scoped_tape():
                c, p = forward(img, idx, params)
                loss = T.sum_(c * T.Tensor(w_cls)) + T.sum_(p * T.Tensor(w_part))
                loss.backward(params=params.tensors())
            out = {k: v.grad for k, v in params.items()}
            for v in params.tensors():
                v.grad = None
            return out

        got, want = grads(vit.forward_tokens), grads(self.full_rows)
        assert np.abs(got["blocks.1.attn.wq"]).max() > 0
        for name, w in want.items():
            assert np.abs(got[name] - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_last_layer_probabilities_cover_the_read_rows(self):
        cfg = tiny_cfg(depth=2)
        probs = []
        with T.no_grad():
            vit.forward_tokens(np.zeros((2, 16, 8, 3)), [[1], [3]], make_params(cfg),
                               probs_out=probs)
        assert [p.shape for p in probs] == [(2, 2, 10, 10), (2, 2, 2, 10)]


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
    # patches and cannot specialize. With a zero patch bias and special tokens
    # at 0.3 scale (norm ~2 against shared residual updates of norm 5-12) the
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

    def test_matches_unfused_attention(self, monkeypatch):
        cfg = tiny_cfg(depth=2)
        params = make_params(cfg, seed=9)
        img = np.random.default_rng(3).random((16, 8, 3))
        fused = [vit.attention_map(img, token, layer, params)
                 for token in ("cls", 1, 3) for layer in range(2)]

        def linear(x, pre, nm):
            return x @ params[pre + "attn.w" + nm] + params[pre + "attn.b" + nm]

        def unfused(x, params, pre, cfg, probs_out, rows):
            # queries of the first ``rows`` tokens (all without it), keys and
            # values of every token
            B, S, C = x.shape
            dh, n = C // cfg.heads, S if rows is None else rows
            seen.append(n)

            def split(t):
                return T.transpose(T.reshape(t, (B, S, cfg.heads, dh)), (0, 2, 1, 3))

            q, k, v = (split(linear(x, pre, nm)) for nm in "qkv")
            q = q[:, :, :n]
            attn = T.softmax(T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh)))
            probs_out.append(attn.data)
            out = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (B, n, C))
            return linear(out, pre, "o")

        seen = []
        monkeypatch.setattr(vit, "_attention", unfused)
        for want in fused:
            got = vit.attention_map(img, want.token, want.layer, params)
            np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
        assert seen[:2] == [12, 4]  # the last layer queries [CLS] and the 3 parts only

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

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, {"w": np.ones(3)}, extra={"step": 1})
        real_open = open

        class DiskFull:
            """A file whose writes fail once the header is written."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(ckpt, "open", lambda p, mode: DiskFull(real_open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            ckpt.save_checkpoint(path, {"w": np.full(3, 2.0)}, extra={"step": 2})
        monkeypatch.undo()
        loaded = ckpt.load_checkpoint(path)
        assert loaded.extra == {"step": 1}
        assert np.array_equal(loaded.tensors["w"], np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]  # no temporary left

    def test_version_mismatch_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        monkeypatch.setattr(ckpt, "VERSION", 99)
        ckpt.save_checkpoint(path, {"w": np.ones(3)})
        monkeypatch.setattr(ckpt, "VERSION", 1)
        with pytest.raises(ckpt.CheckpointError, match="version"):
            ckpt.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        [1, 2],
        {"version": ckpt.VERSION},
        {"version": ckpt.VERSION, "tensors": [{"name": "w", "shape": "ab", "offset": 0}]},
        {"version": ckpt.VERSION, "tensors": [{"name": "w", "shape": [1], "offset": -8}]},
        {"version": ckpt.VERSION, "tensors": [], "extra": ["stage"]},
        {"version": ckpt.VERSION, "tensors": [{"name": "w", "shape": [2], "offset": 0}]},
    ], ids=["not-an-object", "no-tensors", "string-shape", "negative-offset", "list-extra",
            "no-sha256"])
    def test_malformed_header_raises(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(ckpt.MAGIC + struct.pack("<Q", len(text)) + text + np.ones(2).tobytes())
        with pytest.raises(ckpt.CheckpointError, match="header"):
            ckpt.load_checkpoint(path)

    def test_flipped_payload_byte_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, {"w": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01  # still a finite float64: only the checksum can tell
        path.write_bytes(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="checksum"):
            ckpt.load_checkpoint(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_checkpoint(path)
