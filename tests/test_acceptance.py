"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The long pre-training run is shared by
the part-separation, fine-tuning-benefit, fusion and pseudo-label criteria
through a session fixture; their tests are marked ``slow``. Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from partssl import cluster as cl
from partssl import distill
from partssl import evaluate as ev
from partssl import finetune as ft
from partssl import multicrop as mc
from partssl import synthetic as sd
from partssl import tensor as T
from partssl import vit

BASE = np.log  # alias to keep assertions readable


def report(criterion, ok, detail):
    line = "[criterion %2d] %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared toy pre-training run (criteria 5, 7, 10)

TOY_BACKBONE = dict(image_h=32, image_w=16, patch_size=4, embed_dim=48, depth=3,
                    heads=4, num_parts=3, proj_dim=128)
TOY_CROPS = dict(num_areas=3, global_size=(32, 16), local_size=(16, 8), pos_mode="crop")
TOY_PRETRAIN = dict(steps=2000, batch_size=6, lr=1.5e-3, ema_start=0.95,
                    center_momentum=0.8)
TOY_TAUS = dict(tau_s=0.1, tau_t=0.055)
TOY_DATA = dict(num_identities=20, images_per_identity=12, cameras=4,
                image_h=32, image_w=16, band_jitter=0.15)
TRAIN_PER_ID = 8  # remaining 4 images per identity form the retrieval split


def split_synthetic(ds, train_per_id):
    per = ds.spec.images_per_identity
    rows = np.arange(len(ds))
    train = rows[(rows % per) < train_per_id]
    test = rows[(rows % per) >= train_per_id]

    def take(sel):
        return sd.SyntheticDataset(images=ds.images[sel], ids=ds.ids[sel],
                                   cams=ds.cams[sel], spec=ds.spec)
    return take(train), take(test)


@pytest.fixture(scope="session")
def toy_data():
    ds = sd.generate(sd.SyntheticSpec(**TOY_DATA), seed=11)
    train, test = split_synthetic(ds, TRAIN_PER_ID)
    return {"full": ds, "train": train, "test": test}


@pytest.fixture(scope="session")
def pretrained(toy_data):
    bb = vit.BackboneConfig(**TOY_BACKBONE).validate()
    crops = mc.MulticropConfig(**TOY_CROPS)
    pre = distill.PretrainConfig(**TOY_TAUS, **TOY_PRETRAIN)
    trainer = distill.Pretrainer(bb, crops, pre, toy_data["train"].images, seed=0)
    t0 = time.time()
    trainer.run()
    return {"trainer": trainer, "teacher": trainer.teacher, "cfg": bb,
            "runtime": time.time() - t0, "log": trainer.log}


def attention_band_masses(params, ds, n_images=12):
    """masses[i, b]: mean attention mass of part i+1 in band b, last layer."""
    spec = ds.spec
    bands = sd.band_intervals(spec)
    gh = spec.image_h // params.cfg.patch_size
    L = params.cfg.num_parts
    masses = np.zeros((L, len(bands)))
    for n in range(n_images):
        for i in range(1, L + 1):
            amap = vit.attention_map(ds.images[n], i, params.cfg.depth - 1, params)
            row_mass = amap.patch_weights.sum(axis=1)
            row_mass = row_mass / row_mass.sum()
            for b, band in enumerate(bands):
                w = sd.band_row_weights(gh, params.cfg.patch_size, spec.image_h, band)
                masses[i - 1, b] += (row_mass * w).sum()
    return masses / n_images


def attention_area_argmax(params, ds, n_images=12):
    """For each part, the local area holding the largest attention mass."""
    areas = mc.define_areas(params.cfg.num_parts)
    gh = params.cfg.image_h // params.cfg.patch_size
    L = params.cfg.num_parts
    mass = np.zeros((L, L))
    for n in range(n_images):
        for i in range(1, L + 1):
            amap = vit.attention_map(ds.images[n], i, params.cfg.depth - 1, params)
            row_mass = amap.patch_weights.sum(axis=1)
            row_mass = row_mass / row_mass.sum()
            for a, area in enumerate(areas):
                w = sd.band_row_weights(gh, params.cfg.patch_size, params.cfg.image_h,
                                        (area.top_frac, area.bottom_frac))
                mass[i - 1, a] += (row_mass * w).sum() / max(w.sum(), 1e-12)
    return mass.argmax(axis=1)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.time()
        errors = {}

        # part + cls distillation losses through a complete tiny network
        bb = vit.BackboneConfig(image_h=8, image_w=8, patch_size=4, embed_dim=6,
                                depth=1, heads=2, num_parts=2, proj_dim=8,
                                head_hidden=8, head_bottleneck=6).validate()
        crops = mc.MulticropConfig(num_areas=2, views_per_area=1, global_size=(8, 8),
                                   local_size=(8, 8), flip_p=0.0, brightness=0.0,
                                   contrast=0.0)
        pre = distill.PretrainConfig(steps=10, batch_size=1)
        images = np.random.default_rng(0).random((2, 8, 8, 3))
        trainer = distill.Pretrainer(bb, crops, pre, images, seed=1)
        assert trainer.student.num_params() <= 10_000
        for p in trainer.student.tensors():  # healthier scale for probing
            p.data = p.data * 1.0
        vs = trainer.build_batch([0])
        t_cls, t_part, _, _ = trainer._teacher_forward(vs, 0.07)

        def distill_loss(params):
            s_cls_g, s_cls_l, s_part_g, s_part_l = trainer._student_forward(vs)
            out = distill.DistillOutputs(t_cls, t_part, s_cls_g, s_cls_l,
                                         s_part_g, s_part_l)
            total, _ = distill.total_loss(out)
            return total

        def part_only(params):
            s_cls_g, s_cls_l, s_part_g, s_part_l = trainer._student_forward(vs)
            out = distill.DistillOutputs(t_cls, t_part, s_cls_g, s_cls_l,
                                         s_part_g, s_part_l)
            return distill._part_losses(out)[0]

        check_tensors = [trainer.student[n] for n in
                         ("cls_token", "part_tokens", "blocks.0.attn.wq",
                          "blocks.0.mlp.w1", "head_cls.w4", "head_part.w3",
                          "patch_proj.w", "pos_embed")]
        errors["part_matching"] = T.finite_diff_check(part_only, check_tensors, eps=1e-5)
        errors["combined_distill"] = T.finite_diff_check(distill_loss, check_tensors, eps=1e-5)

        # identity cross-entropy through the BN-neck head
        rng = np.random.default_rng(2)
        head = ft.ReidHead(6, 4, rng)
        feats = rng.normal(size=(8, 6))
        labels = rng.integers(0, 4, 8)

        def ce_loss(params):
            neck = head.embed(T.Tensor(feats), training=True)
            return ft.id_loss(head.class_logits(neck), labels)

        errors["identity_ce"] = T.finite_diff_check(
            ce_loss, [head.gamma, head.beta, head.classifier], eps=1e-5)

        # batch-hard triplet on embeddings produced by a linear layer
        w_tri = T.Tensor(rng.normal(0, 0.5, (6, 4)), requires_grad=True)
        x_tri = rng.normal(size=(8, 6))
        tri_labels = np.repeat(np.arange(4), 2)

        def tri_loss(params):
            return ft.batch_hard_triplet(T.Tensor(x_tri) @ params[0], tri_labels, 0.3)

        errors["batch_hard_triplet"] = T.finite_diff_check(tri_loss, [w_tri], eps=1e-5)

        # prototype-contrastive through a linear feature map
        bank = cl.PrototypeBank(cl._l2n(rng.normal(size=(5, 4))))
        w_con = T.Tensor(rng.normal(0, 0.5, (6, 4)), requires_grad=True)
        x_con = rng.normal(size=(6, 6))
        con_labels = [0, 1, 2, 3, 4, 0]

        def contrast_loss(params):
            return cl.prototype_contrastive_loss(T.Tensor(x_con) @ params[0],
                                                 con_labels, bank, temperature=0.2)

        errors["prototype_contrastive"] = T.finite_diff_check(contrast_loss, [w_con], eps=1e-5)

        runtime = time.time() - t0
        worst = max(errors.values())
        detail = "max rel err %.2e (%s), %.0fs" % (
            worst, ", ".join("%s %.1e" % kv for kv in errors.items()), runtime)
        report(1, worst < 1e-4 and runtime < 120, detail)


# ---------------------------------------------------------------------------
# criterion 2: loss structure


class TestCriterion2LossStructure:
    def test_term_counts_and_part_isolation(self):
        failures = []
        for m in (1, 2):
            for L in range(1, 6):
                j = mc.views_per_area(L)
                terms = distill.loss_terms(m, L, j)
                n_cls = sum(1 for t in terms if t.token == "cls")
                if n_cls != m * L * j + m * (m - 1):
                    failures.append("cls count M=%d L=%d" % (m, L))
                for i in range(1, L + 1):
                    n_i = sum(1 for t in terms if t.token == i)
                    if n_i != m * j + m * (m - 1):
                        failures.append("part %d count M=%d L=%d" % (i, m, L))
                cross = [t for t in terms if t.token != "cls"
                         and t.student_view[0] == "local" and t.student_view[1] != t.token]
                if cross:
                    failures.append("cross-part edge at M=%d L=%d" % (m, L))
                # the vectorized implementation must agree exactly with the
                # enumerated pairings on random distributions
                rng = np.random.default_rng(m * 10 + L)
                k = 7
                mk = lambda *s: (lambda x: x / x.sum(-1, keepdims=True))(rng.random(s + (k,)) + 0.1)
                out = distill.DistillOutputs(
                    t_cls=mk(1, m), t_part=mk(1, L, m),
                    s_cls_g=T.Tensor(np.log(mk(1, m))), s_cls_l=T.Tensor(np.log(mk(1, L, j))),
                    s_part_g=T.Tensor(np.log(mk(1, L, m))), s_part_l=T.Tensor(np.log(mk(1, L, j))))
                total, _ = distill.total_loss(out, raw_sums=True)
                manifest = 0.0
                for t in terms:
                    if t.token == "cls":
                        tt = out.t_cls[0, t.teacher_view]
                        s = (out.s_cls_l.data[0, t.student_view[1] - 1, t.student_view[2]]
                             if t.student_view[0] == "local" else out.s_cls_g.data[0, t.student_view[1]])
                    else:
                        tt = out.t_part[0, t.token - 1, t.teacher_view]
                        s = (out.s_part_l.data[0, t.token - 1, t.student_view[2]]
                             if t.student_view[0] == "local" else out.s_part_g.data[0, t.token - 1, t.student_view[1]])
                    manifest += -(tt * s).sum()
                if abs(total.item() - manifest) > 1e-9 * max(1.0, abs(manifest)):
                    failures.append("numeric mismatch M=%d L=%d" % (m, L))
        report(2, not failures, "all (M, L) in {1,2}x{1..5} exact" if not failures
               else "; ".join(failures))


# ---------------------------------------------------------------------------
# criterion 3: EMA and stop-gradient


class TestCriterion3Ema:
    def test_ema_recurrence_and_frozen_teacher(self):
        bb = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=8,
                                depth=1, heads=2, num_parts=2, proj_dim=8).validate()
        crops = mc.MulticropConfig(num_areas=2, views_per_area=1, global_size=(16, 8),
                                   local_size=(8, 4))
        pre = distill.PretrainConfig(steps=100, batch_size=2, lr=2e-3,
                                     ema_start=0.996, ema_end=1.0)
        ds = sd.generate(sd.SyntheticSpec(num_identities=4, images_per_identity=4,
                                          cameras=2, image_h=16, image_w=8), seed=4)
        trainer = distill.Pretrainer(bb, crops, pre, ds.images, seed=3)
        replay = trainer.teacher.state()
        name = "blocks.0.attn.wq"
        teacher_grad_clean = True
        for step in range(100):
            lam = trainer.pre_cfg.ema(step)
            trainer.pretrain_step()
            for p in trainer.teacher.tensors():
                if p.requires_grad or p.grad is not None:
                    teacher_grad_clean = False
            for k in replay:
                replay[k] = lam * replay[k] + (1.0 - lam) * trainer.student[k].data
        drift = max(np.abs(replay[k] - trainer.teacher[k].data).max() for k in replay)
        lam0 = trainer.pre_cfg.ema(0)
        lamT = trainer.pre_cfg.ema(100)
        ok = (teacher_grad_clean and drift <= 1e-12
              and abs(lam0 - 0.996) < 1e-15 and lamT == 1.0)
        report(3, ok, "teacher grads clean=%s, recurrence drift %.1e, lambda(0)=%.4f, "
               "lambda(T)=%.4f" % (teacher_grad_clean, drift, lam0, lamT))


# ---------------------------------------------------------------------------
# criterion 4: crop geometry


class TestCriterion4CropGeometry:
    def test_containment_heights_and_j(self):
        failures = []
        areas2 = mc.define_areas(2)
        if not all(abs(a.bottom_frac - a.top_frac - 0.70) < 1e-12 for a in areas2):
            failures.append("L=2 heights != 0.70")
        areas3 = mc.define_areas(3)
        if not all(abs(a.bottom_frac - a.top_frac - 0.50) < 1e-12 for a in areas3):
            failures.append("L=3 heights != 0.50")
        for L in range(1, 10):
            if mc.views_per_area(L) != math.ceil(9 / L):
                failures.append("J wrong for L=%d" % L)
        img = np.random.default_rng(5).random((64, 32, 3))
        cfg = mc.MulticropConfig(global_size=(32, 16), local_size=(16, 8))
        rng = np.random.default_rng(6)
        H = img.shape[0]
        checked = 0
        for area in areas3:
            for _ in range(10_000 // 3 + 1):
                p = mc.local_plan(img.shape[:2], area, 1, rng, cfg)
                checked += 1
                if p.top < area.top_frac * H or p.top + p.height > area.bottom_frac * H:
                    failures.append("escape in area (%.2f, %.2f)" % (area.top_frac,
                                                                     area.bottom_frac))
                    break
        report(4, not failures,
               "%d crops contained; heights and J formula exact" % checked
               if not failures else "; ".join(failures))


# ---------------------------------------------------------------------------
# criterion 5: part separation on the toy band dataset


@pytest.mark.slow
class TestCriterion5PartSeparation:
    def test_attention_concentrates_per_band(self, pretrained, toy_data):
        masses = attention_band_masses(pretrained["teacher"], toy_data["test"])
        spec = toy_data["test"].spec
        baselines = np.array([hi - lo for lo, hi in sd.band_intervals(spec)])
        ratios = np.diag(masses) / baselines
        argmax_areas = attention_area_argmax(pretrained["teacher"], toy_data["test"])
        distinct = len(set(argmax_areas.tolist())) == len(argmax_areas)
        runtime_ok = pretrained["runtime"] < 30 * 60
        steps_ok = pretrained["trainer"].step_count >= 2000
        ok = bool((ratios >= 1.5).all() and distinct and runtime_ok and steps_ok)
        report(5, ok, "band-mass ratios %s (need >= 1.5), argmax areas %s, "
               "%d steps in %.0fs" % (np.round(ratios, 2).tolist(),
                                      argmax_areas.tolist(),
                                      pretrained["trainer"].step_count,
                                      pretrained["runtime"]))


# ---------------------------------------------------------------------------
# criterion 6: anti-collapse


class TestCriterion6AntiCollapse:
    def run_entropy_trace(self, centering, tau_t, steps=500):
        bb = vit.BackboneConfig(image_h=16, image_w=8, patch_size=4, embed_dim=16,
                                depth=2, heads=2, num_parts=2, proj_dim=32).validate()
        crops = mc.MulticropConfig(num_areas=2, global_size=(16, 8), local_size=(8, 4))
        pre = distill.PretrainConfig(
            steps=steps, batch_size=4, lr=1.5e-3, ema_start=0.95, centering=centering,
            center_momentum=0.8,
            tau_s=0.1, tau_t=tau_t)
        ds = sd.generate(sd.SyntheticSpec(num_identities=10, images_per_identity=6,
                                          cameras=2, image_h=16, image_w=8), seed=7)
        trainer = distill.Pretrainer(bb, crops, pre, ds.images, seed=5)
        trainer.run()
        return np.array([r["teacher_entropy"] for r in trainer.log])

    def test_centering_keeps_entropy_up(self):
        k = 32
        with_center = self.run_entropy_trace(centering=True, tau_t=0.04)
        without = self.run_entropy_trace(centering=False, tau_t=0.02)
        floor = 0.25 * math.log(k)
        ok = bool((with_center >= floor).all() and with_center[-1] > without[-1])
        report(6, ok, "centered entropy min %.3f (floor %.3f), final %.3f vs "
               "uncentered final %.3f" % (with_center.min(), floor,
                                          with_center[-1], without[-1]))


# ---------------------------------------------------------------------------
# criterion 7: fine-tuning benefit


def finetune_and_map(params, toy_data, seed, steps=300):
    train, test = toy_data["train"], toy_data["test"]
    cfg = ft.FinetuneConfig(steps=steps, ids_per_batch=4, samples_per_id=4, lr=6e-4)
    trainer = ft.FinetuneTrainer(params, cfg, train.images, train.ids, seed=seed)
    trainer.run()
    emb = ft.extract_embeddings(params, trainer.head, test.images, cfg.fusion)
    index = ev.RetrievalIndex(emb, test.ids, test.cams, emb, test.ids, test.cams)
    return ev.evaluate(index, max_rank=10).mean_ap


@pytest.mark.slow
class TestCriterion7FinetuneBenefit:
    def test_pretrained_beats_random_init(self, pretrained, toy_data):
        bb = vit.BackboneConfig(**TOY_BACKBONE).validate()
        pre_maps, rand_maps = [], []
        for seed in (0, 1, 2):
            warm = pretrained["teacher"].clone(requires_grad=True)
            pre_maps.append(finetune_and_map(warm, toy_data, seed))
            cold = vit.NetworkParams.init(
                bb, np.random.default_rng(np.random.SeedSequence([seed, 0xC01D])),
                requires_grad=True)
            rand_maps.append(finetune_and_map(cold, toy_data, seed))
        pre_mean = float(np.mean(pre_maps))
        rand_mean = float(np.mean(rand_maps))
        ok = pre_mean >= 0.90 and (pre_mean - rand_mean) >= 0.02
        report(7, ok, "pretrained mAP %.4f (runs %s) vs random init %.4f (runs %s)"
               % (pre_mean, np.round(pre_maps, 3).tolist(),
                  rand_mean, np.round(rand_maps, 3).tolist()))


# ---------------------------------------------------------------------------
# criterion 8: fusion dimensions


@pytest.mark.slow
class TestCriterion8FusionDims:
    def test_all_strategies_evaluate(self, pretrained, toy_data):
        C, L = TOY_BACKBONE["embed_dim"], TOY_BACKBONE["num_parts"]
        expected = {"concat_all": (L + 1) * C, "mean_all": C, "concat_cls_meanpart": 2 * C}
        test = toy_data["test"]
        results = {}
        for strategy, dim in expected.items():
            emb = cl.extract_all_features(pretrained["teacher"], test.images,
                                          fusion=strategy)
            if emb.shape[1] != dim:
                report(8, False, "%s produced dim %d, expected %d"
                       % (strategy, emb.shape[1], dim))
            index = ev.RetrievalIndex(emb, test.ids, test.cams, emb, test.ids, test.cams)
            results[strategy] = ev.evaluate(index, max_rank=10).mean_ap
        report(8, True, "dims %s ok; mAPs %s"
               % (list(expected.values()),
                  {k: round(v, 3) for k, v in results.items()}))


# ---------------------------------------------------------------------------
# criterion 9: retrieval metrics vs brute force


class TestCriterion9RetrievalOracle:
    def test_hand_case_and_random_instances(self):
        query = np.array([[0.0]])
        gallery = np.array([[0.1], [0.2], [0.3]])
        index = ev.RetrievalIndex(query, [5], [0], gallery, [5, 6, 5], [1, 1, 1])
        hand = ev.evaluate(index).mean_ap
        hand_ok = abs(hand - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

        from test_evaluate import brute_force_eval
        rng = np.random.default_rng(42)
        max_err = 0.0
        n_checked = 0
        while n_checked < 100:
            n_q = int(rng.integers(2, 51))
            n_g = int(rng.integers(10, 201))
            index = ev.RetrievalIndex(
                query=rng.normal(size=(n_q, 5)), q_ids=rng.integers(0, 8, n_q),
                q_cams=rng.integers(0, 3, n_q), gallery=rng.normal(size=(n_g, 5)),
                g_ids=rng.integers(0, 8, n_g), g_cams=rng.integers(0, 3, n_g))
            try:
                res = ev.evaluate(index, max_rank=min(20, n_g))
            except ev.EvalError:
                continue
            b_map, b_cmc, _ = brute_force_eval(index, min(20, n_g))
            max_err = max(max_err, abs(res.mean_ap - b_map),
                          float(np.abs(res.cmc - b_cmc).max()))
            n_checked += 1
        ok = hand_ok and max_err <= 1e-12
        report(9, ok, "hand AP %.6f (0.833333), %d instances, max deviation %.2e"
               % (hand, n_checked, max_err))


# ---------------------------------------------------------------------------
# criterion 10: pseudo-label adaptation loop


@pytest.mark.slow
class TestCriterion10UslLoop:
    def test_purity_and_map_improvement(self, pretrained, toy_data):
        params = pretrained["teacher"].clone(requires_grad=True)
        train, test = toy_data["train"], toy_data["test"]

        def test_map():
            emb = cl.extract_all_features(params, test.images, fusion="mean_all")
            index = ev.RetrievalIndex(emb, test.ids, test.cams, emb, test.ids, test.cams)
            return ev.evaluate(index, max_rank=10).mean_ap

        map_before = test_map()
        cfg = cl.ClusterConfig(epochs=3, eps=0.35, min_points=4, fusion="mean_all",
                               lr=5e-4, ids_per_batch=4, samples_per_id=4)
        trainer = cl.AdaptTrainer(params, cfg, train.images, seed=9)
        history = trainer.run()
        purity = cl.cluster_purity(trainer.labeling, train.ids)
        map_after = test_map()
        ok = purity >= 0.9 and map_after > map_before
        report(10, ok, "purity %.3f (need >= 0.9), toy-mAP %.4f -> %.4f over %d epochs"
               % (purity, map_before, map_after, len(history)))
