import math

import numpy as np
import pytest

from partssl import optim
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
