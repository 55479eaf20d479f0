import math

import numpy as np
import pytest

from partssl import distill
from partssl import multicrop as mc
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit


def random_probs(rng, *shape):
    x = rng.random(shape) + 0.05
    return x / x.sum(axis=-1, keepdims=True)


def make_outputs(rng, b, m, l, j, k, uniform=False, grad_leaf=None):
    """Batched outputs built from random (or uniform) distributions."""
    if uniform:
        mk = lambda *s: np.full(s + (k,), 1.0 / k)
    else:
        mk = lambda *s: random_probs(rng, *s, k)

    def log_t(arr):
        t = T.Tensor(np.log(arr))
        return t if grad_leaf is None else t + grad_leaf * 0.0
    return distill.DistillOutputs(
        t_cls=mk(b, m),
        t_part=mk(b, l, m),
        s_cls_g=log_t(mk(b, m)),
        s_cls_l=log_t(mk(b, l, j)),
        s_part_g=log_t(mk(b, l, m)),
        s_part_l=log_t(mk(b, l, j)),
    )


def loss_by_manifest(outputs, raw_sums=False, part_weight=1.0, kl=False):
    """Independent oracle: walk the enumerated pairings one by one.

    ``kl`` scores each pairing by KL(teacher || student) instead of the
    cross-entropy.
    """
    b, m, l, j = outputs.dims
    terms = distill.loss_terms(m, l, j)
    per_token = {}
    for term in terms:
        for bi in range(b):
            if term.token == "cls":
                t = outputs.t_cls[bi, term.teacher_view]
                if term.student_view[0] == "local":
                    _, area, jj = term.student_view
                    s = outputs.s_cls_l.data[bi, area - 1, jj]
                else:
                    s = outputs.s_cls_g.data[bi, term.student_view[1]]
            else:
                i = term.token - 1
                t = outputs.t_part[bi, i, term.teacher_view]
                if term.student_view[0] == "local":
                    _, area, jj = term.student_view
                    assert area == term.token, "cross-part edge in manifest"
                    s = outputs.s_part_l.data[bi, i, jj]
                else:
                    s = outputs.s_part_g.data[bi, i, term.student_view[1]]
            per_token.setdefault(term.token, 0.0)
            per_token[term.token] += -(t * s).sum() + ((t * np.log(t)).sum() if kl else 0.0)
    n_cls = distill.cls_term_count(m, l, j)
    n_part = distill.part_term_count(m, j)
    if raw_sums:
        return (per_token["cls"] + part_weight * sum(per_token[i] for i in range(1, l + 1))) / b
    total = per_token["cls"] / (b * n_cls)
    for i in range(1, l + 1):
        total += part_weight * per_token[i] / (b * n_part) / l
    return total


class TestSharpen:
    def test_equal_logits_uniform(self):
        for tau in (0.04, 0.1, 1.0):
            p = distill.sharpen(np.zeros(8) + 3.0, tau)
            np.testing.assert_allclose(p, 1 / 8, atol=1e-12)

    def test_small_tau_sharpens(self):
        p = distill.sharpen(np.array([1.0, 0.0]), 0.01)
        assert p[0] > 0.99999

    def test_matches_direct_formula(self):
        logits = np.array([1.0, 2.0, 3.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(distill.sharpen(logits, 1.0), expected, atol=1e-12)

    def test_center_subtracted(self):
        logits = np.array([1.0, 2.0, 3.0])
        center = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(distill.sharpen(logits, 0.5, center), 1 / 3, atol=1e-12)

    def test_probs_valid(self):
        rng = np.random.default_rng(0)
        p = distill.sharpen(rng.normal(0, 1, (5, 16)), 0.04)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)
        assert (p > 0).all()

    def test_errors(self):
        with pytest.raises(distill.DistillError):
            distill.sharpen(np.array([np.inf, 0.0]), 0.1)
        with pytest.raises(distill.DistillError):
            distill.sharpen(np.zeros(3), 0.0)


class TestCenter:
    def test_momentum_zero_equals_batch_mean(self):
        c = distill.CenterState(4, ["cls"], momentum=0.0)
        batch = np.arange(12.0).reshape(3, 4)
        c.update("cls", batch)
        np.testing.assert_allclose(c.get("cls"), batch.mean(axis=0))

    def test_momentum_one_keeps_center(self):
        c = distill.CenterState(4, ["cls"], momentum=1.0)
        c.update("cls", np.ones((2, 4)))
        np.testing.assert_array_equal(c.get("cls"), np.zeros(4))

    def test_momentum_arithmetic(self):
        c = distill.CenterState(1, ["cls"], momentum=0.9)
        c.update("cls", np.ones((5, 1)))
        np.testing.assert_allclose(c.get("cls"), [0.1])

    def test_empty_batch_rejected(self):
        c = distill.CenterState(4, ["cls"])
        with pytest.raises(distill.DistillError):
            c.update("cls", np.zeros((0, 4)))


class TestLossStructure:
    def test_part_term_count_m2_j3(self):
        terms = [t for t in distill.loss_terms(2, 3, 3) if t.token == 1]
        assert len(terms) == 2 * 3 + 2 * 1  # 8

    def test_cls_term_count_m2_l3_j3(self):
        terms = [t for t in distill.loss_terms(2, 3, 3) if t.token == "cls"]
        assert len(terms) == 2 * 9 + 2  # 20

    def test_term_count_law_all_configs(self):
        for m in (1, 2):
            for l in range(1, 6):
                j = mc.views_per_area(l)
                terms = distill.loss_terms(m, l, j)
                n_cls = sum(1 for t in terms if t.token == "cls")
                n_part = {i: sum(1 for t in terms if t.token == i) for i in range(1, l + 1)}
                assert n_cls == m * l * j + m * (m - 1)
                for i in range(1, l + 1):
                    assert n_part[i] == m * j + m * (m - 1)

    def test_no_cross_part_edges(self):
        for m in (1, 2):
            for l in range(1, 6):
                for t in distill.loss_terms(m, l, mc.views_per_area(l)):
                    if t.token != "cls" and t.student_view[0] == "local":
                        assert t.student_view[1] == t.token

    def test_vectorized_loss_equals_manifest(self):
        rng = np.random.default_rng(1)
        for m in (1, 2):
            for l in (1, 2, 3):
                out = make_outputs(rng, b=2, m=m, l=l, j=mc.views_per_area(l), k=5)
                total, _ = distill.total_loss(out)
                assert total.item() == pytest.approx(loss_by_manifest(out), rel=1e-12)
                total_raw, _ = distill.total_loss(out, raw_sums=True)
                assert total_raw.item() == pytest.approx(loss_by_manifest(out, raw_sums=True), rel=1e-12)

    def test_excess_loss_is_weighted_kl(self):
        rng = np.random.default_rng(8)
        for raw_sums in (False, True):
            for part_weight in (1.0, 2.5):
                out = make_outputs(rng, b=2, m=2, l=3, j=3, k=5)
                total, breakdown = distill.total_loss(out, raw_sums=raw_sums,
                                                      part_weight=part_weight)
                assert total.item() == pytest.approx(
                    loss_by_manifest(out, raw_sums, part_weight), rel=1e-12)
                excess = distill.excess_loss(out, breakdown, raw_sums=raw_sums,
                                             part_weight=part_weight)
                assert excess == pytest.approx(
                    loss_by_manifest(out, raw_sums, part_weight, kl=True), rel=1e-10)

    def test_one_hot_teacher_gives_neg_log_student(self):
        out = make_outputs(np.random.default_rng(2), b=1, m=1, l=1, j=1, k=4)
        hot = np.zeros((1, 1, 1, 4))
        hot[..., 2] = 1.0
        out.t_part = hot
        loss = distill.part_loss(out, 1, normalize=False)
        expected = -out.s_part_l.data[0, 0, 0, 2]  # single local term, M(M-1)=0
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_uniform_teacher_student_gives_log_k(self):
        out = make_outputs(np.random.default_rng(3), b=2, m=2, l=3, j=3, k=16, uniform=True)
        per_term = distill.part_loss(out, 2).item()
        assert per_term == pytest.approx(math.log(16), rel=1e-12)
        total, _ = distill.total_loss(out)
        assert total.item() == pytest.approx(2 * math.log(16), rel=1e-12)

    def test_cls_loss_reduces_to_global_terms_when_l_zero_like(self):
        # j=0 locals: only the cross-global terms remain
        out = make_outputs(np.random.default_rng(4), b=1, m=2, l=1, j=1, k=4)
        out.s_cls_l = T.Tensor(np.zeros((1, 1, 0, 4)))
        loss = distill.cls_loss(out, normalize=False)
        t, s = out.t_cls[0], out.s_cls_g.data[0]
        expected = -(t[0] * s[1]).sum() - (t[1] * s[0]).sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_part_index_validation(self):
        out = make_outputs(np.random.default_rng(5), b=1, m=2, l=2, j=2, k=4)
        with pytest.raises(distill.DistillError):
            distill.part_loss(out, 0)
        with pytest.raises(distill.DistillError):
            distill.part_loss(out, 3)

    def test_gradient_check_on_toy_losses(self):
        rng = np.random.default_rng(6)
        leaf = T.Tensor(rng.normal(0, 0.3, (4,)), requires_grad=True)

        def f(params):
            out = make_outputs(np.random.default_rng(7), b=1, m=2, l=2, j=2, k=4,
                               grad_leaf=T.sum_(params[0] * params[0]))
            total, _ = distill.total_loss(out)
            return total

        assert T.finite_diff_check(f, [leaf], eps=1e-6) < 1e-6


class TestEma:
    def test_lambda_one_keeps_teacher(self):
        cfg = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=4,
                                 depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        s = vit.NetworkParams.init(cfg, np.random.default_rng(0))
        t = vit.NetworkParams.init(cfg, np.random.default_rng(1))
        before = t.state()
        distill.ema_update(s, t, 1.0)
        for k, v in t.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_lambda_zero_copies_student(self):
        cfg = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=4,
                                 depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        s = vit.NetworkParams.init(cfg, np.random.default_rng(0))
        t = vit.NetworkParams.init(cfg, np.random.default_rng(1))
        distill.ema_update(s, t, 0.0)
        for k, v in t.items():
            np.testing.assert_array_equal(v.data, s[k].data)

    def test_scalar_arithmetic(self):
        cfg = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=4,
                                 depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        s = vit.NetworkParams.init(cfg, np.random.default_rng(0))
        t = s.clone()
        for _, v in s.items():
            v.data = np.zeros_like(v.data)
        for _, v in t.items():
            v.data = np.ones_like(v.data)
        distill.ema_update(s, t, 0.996)
        for _, v in t.items():
            np.testing.assert_allclose(v.data, 0.996, atol=1e-15)

    def test_fixed_point(self):
        cfg = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=4,
                                 depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        s = vit.NetworkParams.init(cfg, np.random.default_rng(2))
        t = s.clone()
        distill.ema_update(s, t, 0.5)
        for k, v in t.items():
            np.testing.assert_array_equal(v.data, s[k].data)

    def test_shape_mismatch_raises(self):
        cfg = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=4,
                                 depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        cfg2 = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=8,
                                  depth=1, heads=1, num_parts=1, proj_dim=4).validate()
        s = vit.NetworkParams.init(cfg, np.random.default_rng(0))
        t = vit.NetworkParams.init(cfg2, np.random.default_rng(1))
        with pytest.raises(T.ShapeError):
            distill.ema_update(s, t, 0.9)


class TestSchedules:
    def test_ema_schedule_endpoints_and_monotonicity(self):
        sched = distill.EmaSchedule(0.996, 1.0, 400)
        assert sched.value(0) == pytest.approx(0.996, abs=1e-15)
        assert sched.value(400) == 1.0
        vals = [sched.value(s) for s in range(401)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_temperature_invariants(self):
        with pytest.raises(distill.DistillError):
            distill.Temperatures(tau_s=0.1, tau_t=0.2)
        with pytest.raises(distill.DistillError):
            distill.Temperatures(tau_s=-0.1)
        temps = distill.Temperatures(tau_s=0.1, tau_t=0.06, tau_t_warmup_start=0.02,
                                     warmup_frac=0.5)
        assert temps.teacher_at(0, 100) == pytest.approx(0.02)
        assert temps.teacher_at(25, 100) == pytest.approx(0.04)
        assert temps.teacher_at(60, 100) == 0.06


def tiny_trainer(steps=30, seed=0, centering=True, **pre_kw):
    bb = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=8, depth=1,
                            heads=2, num_parts=2, proj_dim=8).validate()
    crop = mc.MulticropConfig(num_areas=2, views_per_area=1, global_size=(16, 8),
                              local_size=(8, 4), grayscale_p=0.0)
    pre_kw.setdefault("lr", 5e-3)
    pre = distill.PretrainConfig(steps=steps, batch_size=2, centering=centering, **pre_kw)
    ds = sd.generate(sd.SyntheticSpec(num_identities=4, images_per_identity=4,
                                      cameras=2, image_h=16, image_w=8), seed=1)
    return distill.Pretrainer(bb, crop, pre, ds.images, seed=seed)


class TestPretrainer:
    def test_teacher_moves_toward_student_by_ema_factor(self):
        tr = tiny_trainer(steps=5)
        t_before = tr.teacher.state()
        tr.pretrain_step()
        lam = tr.ema.value(0)
        for name in tr.teacher.names():
            expected = lam * t_before[name] + (1 - lam) * tr.student[name].data
            np.testing.assert_allclose(tr.teacher[name].data, expected, atol=1e-15)

    def test_teacher_never_accumulates_grads(self):
        tr = tiny_trainer(steps=3)
        for _ in range(3):
            tr.pretrain_step()
            for p in tr.teacher.tensors():
                assert not p.requires_grad and p.grad is None

    def test_loss_finite_and_logged(self):
        tr = tiny_trainer(steps=10)
        log = tr.run()
        assert len(log) == 10
        for rec in log:
            assert math.isfinite(rec["loss"])
            assert {"step", "cls_loss", "part_losses", "lambda", "tau_t",
                    "teacher_entropy", "grad_norm", "excess_loss"} <= set(rec)
            assert rec["grad_norm"] > 0.0

    def test_grad_norm_logged_before_clipping(self):
        rec = tiny_trainer(steps=1, clip_grad=1e-3).pretrain_step()
        assert rec["grad_norm"] > 1e-3

    def test_routing_counts(self):
        tr = tiny_trainer(steps=1)
        rec = tr.pretrain_step()
        b, m = 2, 2
        l, j = 2, 1
        assert rec["teacher_views"] == b * m
        assert rec["student_views"] == b * (m + l * j)

    def test_same_seed_same_loss_log(self):
        log1 = tiny_trainer(steps=8, seed=3).run()
        log2 = tiny_trainer(steps=8, seed=3).run()
        assert [r["loss"] for r in log1] == [r["loss"] for r in log2]

    def test_nan_abort_with_diagnostics(self):
        tr = tiny_trainer(steps=2)
        tr.student["cls_token"].data = np.full_like(tr.student["cls_token"].data, np.nan)
        with pytest.raises(distill.TrainingDiverged, match="lambda"):
            tr.pretrain_step()

    def test_student_matches_teacher_better_over_time(self):
        # raw loss tracks the drifting target entropy early on; the excess
        # (mean KL of student against teacher) isolates matching progress
        tr = tiny_trainer(steps=80, lr=2e-3)
        log = tr.run()
        early = np.mean([r["excess_loss"] for r in log[:10]])
        late = np.mean([r["excess_loss"] for r in log[-10:]])
        assert late < early
        assert all(r["excess_loss"] > -1e-9 for r in log)

    def test_part_token_grad_only_for_included_parts(self):
        # with all areas present every part token moves; checked via EMA drift
        tr = tiny_trainer(steps=1)
        before = tr.student["part_tokens"].data.copy()
        tr.pretrain_step()
        moved = np.abs(tr.student["part_tokens"].data - before).max(axis=1)
        assert (moved > 0).all()

    def test_mismatched_part_and_area_counts_rejected(self):
        bb = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=8, depth=1,
                                heads=2, num_parts=3, proj_dim=8).validate()
        crop = mc.MulticropConfig(num_areas=2, global_size=(16, 8), local_size=(8, 4))
        with pytest.raises(distill.DistillError):
            distill.Pretrainer(bb, crop, distill.PretrainConfig(steps=1), np.zeros((2, 16, 8, 3)), 0)
