import json
import math

import numpy as np
import pytest

from partssl import cluster as cl
from partssl import distill
from partssl import finetune as ft
from partssl import multicrop as mc
from partssl import optim
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit
from partssl.tensor import Tensor


def quadratic(seed=0):
    """An optimizer over (w, b) and a builder of loss = sum((x @ w + b)^2),
    whose gradient is known in closed form."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 3))
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    opt = optim.AdamW([("w", w), ("b", b)], lr=0.1, weight_decay=0.01)

    def loss():
        y = Tensor(x) @ w + b
        return T.sum_(y * y)

    dy = 2.0 * (x @ w.data + b.data)
    grad_norm = math.sqrt(((x.T @ dy) ** 2).sum() + (dy.sum(axis=0) ** 2).sum())
    return opt, loss, grad_norm


def captured_grads(opt):
    """Record the gradients ``step`` sees, then run the real step."""
    seen = []
    step = opt.step

    def recording_step():
        seen.append([p.grad.copy() for _, p in opt.params])
        step()

    opt.step = recording_step
    return seen


def norm(grads):
    return math.sqrt(sum(float((g * g).sum()) for g in grads))


class TestMinimize:
    def test_returns_norm_before_clipping_and_clips_to_max_norm(self):
        opt, loss, want = quadratic()
        seen = captured_grads(opt)
        got = opt.minimize(loss(), 1.0, "step 0")
        assert got == pytest.approx(want, rel=1e-12) and got > 1.0
        assert norm(seen[0]) == pytest.approx(1.0, rel=1e-9)
        assert len(T.tape()) == 0
        assert all(p.grad is None for _, p in opt.params)

    def test_max_norm_zero_does_not_clip(self):
        opt, loss, want = quadratic()
        seen = captured_grads(opt)
        got = opt.minimize(loss(), 0.0, "step 0")
        assert got > 1.0
        assert norm(seen[0]) == pytest.approx(want, rel=1e-12)

    def test_non_finite_loss_changes_nothing(self):
        opt, loss, _ = quadratic()
        opt.minimize(loss(), 1.0, "step 0")  # moments away from zero
        params = [p.data.copy() for _, p in opt.params]
        moments = [a.copy() for a in (*opt._m.values(), *opt._v.values())]
        with pytest.raises(optim.TrainingDiverged, match="non-finite loss at step 1"):
            opt.minimize(loss() * float("nan"), 1.0, "step 1")
        assert len(T.tape()) == 0
        assert opt.t == 1
        for before, (_, p) in zip(params, opt.params):
            assert np.array_equal(before, p.data) and p.grad is None
        for before, after in zip(moments, (*opt._m.values(), *opt._v.values())):
            assert np.array_equal(before, after)


def test_weight_decay_skips_biases_norms_tokens_and_positions():
    cfg = vit.BackboneConfig(image_h=8, image_w=4, embed_dim=8, depth=1, heads=2,
                             num_parts=2, proj_dim=4).validate()
    params = vit.NetworkParams.init(cfg, np.random.default_rng(0))
    exempt = {"patch_proj.b", "pos_embed", "cls_token", "part_tokens", "blocks.0.ln1.g",
              "blocks.0.attn.bq", "final_ln.b", "head_cls.b4"}
    assert {n for n, p in params.items() if optim._no_decay(n, p)} >= exempt
    # a zero gradient moves only the decayed weights, by lr * weight_decay
    before = params.state()
    opt = optim.AdamW(params.items(), lr=0.1, weight_decay=0.5)
    for p in params.tensors():
        p.grad = np.zeros_like(p.data)
    opt.step()
    for name, p in params.items():
        scale = 1.0 if optim._no_decay(name, p) else 1.0 - 0.1 * 0.5
        np.testing.assert_allclose(p.data, scale * before[name], rtol=1e-15, err_msg=name)
    for name in ("patch_proj.w", "blocks.0.attn.wq", "blocks.0.mlp.w1", "head_part.w4"):
        assert not optim._no_decay(name, params[name])


def test_in_place_updates_equal_the_out_of_place_formulas():
    # AdamW.step and clip_grad_norm write moments, parameters and gradients
    # in place; over several clipped steps every array must equal the
    # out-of-place formulas bit for bit
    rng = np.random.default_rng(5)
    cfg = vit.BackboneConfig(image_h=8, image_w=4, embed_dim=8, depth=1, heads=2,
                             num_parts=2, proj_dim=4).validate()
    params = vit.NetworkParams.init(cfg, rng)
    opt = optim.AdamW(params.items(), lr=0.05, weight_decay=0.01)
    b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.05, 0.01
    data = params.state()
    m = {n: np.zeros_like(a) for n, a in data.items()}
    v = {n: np.zeros_like(a) for n, a in data.items()}
    for t in range(1, 7):
        grads = {n: rng.normal(size=a.shape) * 3.0 for n, a in data.items()}
        for n, p in params.items():
            p.grad = grads[n].copy()
        max_norm = 1.0 if t % 2 else 1e6  # clip on odd steps only
        norm = optim.clip_grad_norm(params.tensors(), max_norm)
        opt.step()
        want = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert norm == want
        if want > max_norm:
            grads = {n: g * (max_norm / (want + 1e-12)) for n, g in grads.items()}
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for n, p in params.items():
            g = grads[n]
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            update = (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
            if not optim._no_decay(n, p):
                update = update + wd * data[n]
            data[n] = data[n] - lr * update
            assert np.array_equal(p.grad, g), n
            assert np.array_equal(opt._m[n], m[n]) and np.array_equal(opt._v[n], v[n]), n
            assert np.array_equal(p.data, data[n]), n


def test_leaf_gradients_are_writeable_and_unshared():
    # clipping scales gradients in place: two leaves handed one array by
    # ``add``, or a read-only array, would be scaled twice or fail
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    T.sum_(a + b).backward()
    assert a.grad.flags.writeable and b.grad.flags.writeable
    assert not np.shares_memory(a.grad, b.grad)
    optim.clip_grad_norm([a, b], 1.0)
    np.testing.assert_allclose(np.concatenate([a.grad, b.grad]), 1 / math.sqrt(6), rtol=1e-12)
    T.clear_tape()


def test_warmup_cosine_lr_shape():
    base, final, warmup, total = 1e-3, 1e-5, 10, 100
    lrs = [optim.warmup_cosine_lr(s, total, base, warmup, final) for s in range(total + 1)]
    assert lrs[0] == pytest.approx(base / warmup, rel=1e-12)
    assert max(lrs) == pytest.approx(base, rel=1e-12)
    assert lrs[warmup - 1] == pytest.approx(base, rel=1e-12)
    assert lrs[-1] == pytest.approx(final, rel=1e-12)
    assert all(a <= b for a, b in zip(lrs[:warmup], lrs[1:warmup]))
    assert all(a >= b for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))


@pytest.mark.parametrize("final", [0.0, 1e-5])
def test_warmup_cosine_lr_decays_on_cosine_ramp(final):
    base = 1e-3
    for total in (1, 2, 7, 100, 333):
        for warmup in (0, int(0.1 * total)):
            for step in range(warmup, total + 2):
                assert optim.warmup_cosine_lr(step, total, base, warmup, final) == \
                    optim.cosine_ramp(step - warmup, max(total - warmup, 1), base, final)


def tiny_stage_trainer(stage, log_path):
    """A ``stage`` trainer on 16 images of 16x8 that logs to ``log_path``."""
    bb = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=8, depth=1,
                            heads=2, num_parts=2, proj_dim=8).validate()
    ds = sd.generate(sd.SyntheticSpec(num_identities=4, images_per_identity=4, cameras=2,
                                      image_h=16, image_w=8), seed=1)
    if stage == "pretrain":
        crop = mc.MulticropConfig(num_areas=2, views_per_area=1, global_size=(16, 8),
                                  local_size=(8, 4))
        return distill.Pretrainer(bb, crop, distill.PretrainConfig(steps=3, batch_size=2),
                                  ds.images, seed=0, log_path=log_path)
    params = vit.NetworkParams.init(bb, np.random.default_rng(0))
    if stage == "finetune":
        ft_cfg = ft.FinetuneConfig(steps=3, ids_per_batch=2, samples_per_id=2)
        return ft.FinetuneTrainer(params, ft_cfg, ds.images, ds.ids, seed=0, log_path=log_path)
    # eps 0.2 splits the 16 features into several clusters
    cl_cfg = cl.ClusterConfig(epochs=2, eps=0.2, min_points=2, ids_per_batch=2,
                              samples_per_id=2, steps_per_epoch=2)
    return cl.AdaptTrainer(params, cl_cfg, ds.images, seed=0, log_path=log_path)


@pytest.mark.parametrize("stage", ["pretrain", "finetune", "adapt"])
def test_every_stage_writes_its_log_records_as_json_lines(tmp_path, stage):
    path = tmp_path / "loss_log.jsonl"
    trainer = tiny_stage_trainer(stage, str(path))
    log = trainer.run()
    assert log is trainer.log and len(log) in (2, 3)
    assert path.read_text().splitlines() == [json.dumps(rec) for rec in trainer.log]
