"""The three benchmark workloads and the checks that feed ``error_rate``.

Each workload is a closed loop of identical jobs: a job starts only after
the previous one has finished. A job runs the program on inputs made from
the seed, inside a ``job`` span, and its outputs are checked afterwards,
outside the timing.

- ``pretrain``: ``partssl pretrain`` (``cli.run``) at the acceptance toy
  config, then the usl-path feature extraction of the teacher on the test
  split and ``evaluate``. Many tiny matrices: the cost is per-op overhead
  and crop work, not BLAS.
- ``finetune``: ``partssl finetune`` from random init at the default
  backbone (132 tokens). Compute-bound attention, and both uses of the
  network: training with the tape, extraction without it.
- ``retrieval``: ``partssl eval`` on a generated embedding dump of
  identity-clustered Gaussians, then ``cluster`` (the pseudo-labelling
  step of uda and usl) on the same vectors. No network and no tape; the
  work does not depend on training."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from partssl import checkpoint, cli, distill, vit
from partssl import cluster as cl
from partssl import config as cfgmod
from partssl import evaluate as ev
from partssl import finetune as ft


class Checks:
    """Counts checked operations; a failed one is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def digest(data):
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def brute_force_retrieval(emb, ids, cams):
    """(mAP, rank-1) with every query against the whole gallery.

    Independent of ``evaluate``: distances from explicit differences, and a
    positive's rank counted as the valid gallery items closer than it (ties
    by gallery index) instead of sorting.
    """
    emb = np.asarray(emb, dtype=np.float64)
    aps, firsts = [], []
    for q in range(len(emb)):
        d = np.sqrt(((emb - emb[q]) ** 2).sum(axis=1))
        valid = ~((ids == ids[q]) & (cams == cams[q]))
        pos = np.flatnonzero(valid & (ids == ids[q]))
        if not len(pos):
            continue
        gal = np.flatnonzero(valid)
        dg, dp = d[gal][None, :], d[pos][:, None]
        ranks = np.sort(((dg < dp) | ((dg == dp) & (gal[None, :] <= pos[:, None]))).sum(axis=1))
        aps.append(np.mean(np.arange(1, len(ranks) + 1) / ranks))
        firsts.append(float(ranks[0] == 1))
    return float(np.mean(aps)), float(np.mean(firsts))


class Workload:
    step_name = "job"   # the span one step of the closed loop is timed by

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self._oracle = {}

    def setup(self, run_dir):
        """Everything before the first job; returns the job's inputs."""
        raise NotImplementedError

    def job(self, state, tracer, out_dir, checks):
        """One job under ``tracer``; returns (steps, quality, fingerprint)."""
        raise NotImplementedError

    def _config(self, text):
        return cfgmod.parse_text(text + "seed = %d\ndata.seed = %d\n" % (self.seed, self.seed))

    def _check_ranking(self, checks, emb, ids, cams, mean_ap, rank1):
        key = digest(emb)
        if key not in self._oracle:
            self._oracle[key] = brute_force_retrieval(emb, ids, cams)
        want_ap, want_r1 = self._oracle[key]
        checks.check("mAP %.12g != brute force %.12g" % (mean_ap, want_ap),
                     abs(mean_ap - want_ap) <= 1e-9)
        checks.check("rank-1 %.12g != brute force %.12g" % (rank1, want_r1),
                     abs(rank1 - want_r1) <= 1e-9)

    @staticmethod
    def _check_loss_log(checks, path, steps):
        with open(path, "rb") as fh:
            raw = fh.read()
        records = [json.loads(line) for line in raw.splitlines()]
        for rec in records:
            checks.check("non-finite loss at step %s" % rec.get("step"),
                         math.isfinite(rec["loss"]))
        checks.check("%d log records for %d steps" % (len(records), steps),
                     [r["step"] for r in records] == list(range(steps)))
        return digest(raw)


# the acceptance toy config of tests/test_acceptance.py; the test split is
# larger so that extraction and evaluate are measurable phases
PRETRAIN_CFG = """\
mode = pretrain
data.num_identities = {ids}
data.train_images_per_identity = 8
data.test_images_per_identity = {test_per_id}
data.cameras = 4
data.band_jitter = 0.15
backbone.image_h = 32
backbone.image_w = 16
backbone.patch_size = 4
backbone.embed_dim = 48
backbone.depth = 3
backbone.heads = 4
backbone.num_parts = 3
backbone.proj_dim = 128
crops.num_areas = 3
crops.global_size = 32, 16
crops.local_size = 16, 8
crops.pos_mode = crop
distill.steps = {steps}
distill.batch_size = 6
distill.lr = 0.0015
distill.ema_start = 0.95
distill.center_momentum = 0.8
distill.tau_s = 0.1
distill.tau_t = 0.055
"""


class Pretrain(Workload):
    step_name = "distill.Pretrainer.pretrain_step"
    SIZES = {"full": dict(ids=20, test_per_id=12, steps=20),
             "tiny": dict(ids=4, test_per_id=3, steps=2)}

    def setup(self, run_dir):
        cfg = self._config(PRETRAIN_CFG.format(**self.SIZES[self.size]))
        train, test = cli.build_datasets(cfg)
        distill.Pretrainer(cfg.backbone, cfg.crops, cfg.distill, train.images, seed=cfg.seed)
        return {"cfg": cfg, "test": test}

    def job(self, state, tracer, out_dir, checks):
        cfg, test = state["cfg"], state["test"]
        cfg.out_dir = out_dir
        with tracer.installed(), tracer.span("job"):
            res = cli.run(cfg)
            trainer = tracer.instances["distill.Pretrainer.pretrain_step"]
            feats = cl.extract_all_features(trainer.teacher, test.images, cfg.cluster.fusion)
            result = ev.evaluate(cli.query_gallery_index(feats, test), max_rank=cfg.eval.max_rank)
        steps = cfg.distill.steps
        log_digest = self._check_loss_log(checks, res["loss_log"], steps)
        saved = checkpoint.load_checkpoint(res["checkpoint"]).tensors
        want = {}
        for prefix, net in (("student", trainer.student), ("teacher", trainer.teacher)):
            want.update({prefix + "." + k: v for k, v in net.state().items()})
        want.update({"center." + k: v for k, v in trainer.center.state().items()})
        checks.check("checkpoint does not reload to the trained tensors",
                     saved.keys() == want.keys()
                     and all(np.array_equal(saved[k], want[k]) for k in want))
        self._check_ranking(checks, feats, test.ids, test.cams, result.mean_ap, result.rank(1))
        quality = {"mAP": result.mean_ap, "rank1": result.rank(1)}
        return steps, quality, {"loss_log": log_digest, "embeddings": digest(feats)}


# the default backbone (64x32 images, embed 64, depth 4) from random init
FINETUNE_CFG = """\
mode = finetune
data.num_identities = {ids}
data.test_images_per_identity = {test_per_id}
finetune.steps = {steps}
"""


class Finetune(Workload):
    step_name = "finetune.FinetuneTrainer.finetune_step"
    SIZES = {"full": dict(ids=20, test_per_id=10, steps=10),
             "tiny": dict(ids=4, test_per_id=4, steps=2)}

    def setup(self, run_dir):
        cfg = self._config(FINETUNE_CFG.format(**self.SIZES[self.size]))
        train, test = cli.build_datasets(cfg)
        params = vit.NetworkParams.init(cfg.backbone, np.random.default_rng(cfg.seed))
        ft.FinetuneTrainer(params, cfg.finetune, train.images, train.ids, seed=cfg.seed)
        return {"cfg": cfg}

    def job(self, state, tracer, out_dir, checks):
        cfg = state["cfg"]
        cfg.out_dir = out_dir
        with tracer.installed(), tracer.span("job"):
            res = cli.run(cfg)
            emb = tracer.results["finetune.extract_embeddings"]
        steps = cfg.finetune.steps
        log_digest = self._check_loss_log(checks, os.path.join(out_dir, "loss_log.jsonl"), steps)
        dumped, ids, cams = ft.load_embeddings(res["embeddings"])
        checks.check("embedding dump differs from the extracted embeddings",
                     np.array_equal(dumped, emb))
        self._check_ranking(checks, dumped, ids, cams, res["mAP"], res["rank1"])
        quality = {"mAP": res["mAP"], "rank1": res["rank1"]}
        return steps, quality, {"loss_log": log_digest, "embeddings": digest(emb)}


def identity_gaussians(rng, ids, per_id, dim=96, cameras=6, ids_per_group=3):
    """Embeddings of ``ids`` identities seen by ``cameras`` cameras.

    Identities come in look-alike groups, and each camera adds its own
    offset, so rankings confuse neighbours (mAP about 0.67) and density
    clustering finds the groups (purity about 1/3) instead of either being
    trivial.
    """
    def directions(n):
        v = rng.normal(size=(n, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    base = directions(1)[0]
    group = 0.8 * directions(-(-ids // ids_per_group))
    identity = group[np.arange(ids) // ids_per_group] + 0.25 * directions(ids)
    camera = 0.25 * directions(cameras)
    labels = np.repeat(np.arange(ids), per_id)
    cams = np.tile(np.arange(per_id) % cameras, ids)
    noise = rng.normal(scale=0.4 / np.sqrt(dim), size=(len(labels), dim))
    return base + identity[labels] + camera[cams] + noise, labels, cams


class Retrieval(Workload):
    SIZES = {"full": dict(ids=150, per_id=20), "tiny": dict(ids=30, per_id=10)}

    def setup(self, run_dir):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xE7A1]))
        emb, ids, cams = identity_gaussians(rng, **self.SIZES[self.size])
        path = ft.dump_embeddings(os.path.join(run_dir, "embeddings.jsonl"), emb, ids, cams)
        cfg = self._config("mode = eval\neval.embeddings = %s\n" % path)
        return {"cfg": cfg, "emb": emb, "ids": ids, "cams": cams}

    def job(self, state, tracer, out_dir, checks):
        cfg = state["cfg"]
        cfg.out_dir = out_dir
        with tracer.installed(), tracer.span("job"):
            res = cli.run(cfg)
            emb = tracer.results["finetune.load_embeddings"][0]
            labeling = cl.cluster(emb, eps=cfg.cluster.eps, min_points=cfg.cluster.min_points)
        checks.check("loaded embeddings differ from the generated ones",
                     np.array_equal(emb, state["emb"]))
        self._check_ranking(checks, emb, state["ids"], state["cams"], res["mAP"], res["rank1"])
        checks.check("degenerate labeling: %d clusters, %d of %d points outliers"
                     % (labeling.num_clusters, labeling.num_outliers, len(emb)),
                     labeling.num_clusters > 1 and labeling.num_outliers < len(emb))
        quality = {"mAP": res["mAP"], "rank1": res["rank1"],
                   "purity": cl.cluster_purity(labeling, state["ids"]),
                   "clusters": labeling.num_clusters}
        fingerprint = {"embeddings": digest(emb),
                       "ranking": digest(repr((res["mAP"], res["rank1"])).encode()),
                       "labels": digest(labeling.assignments.astype(np.float64))}
        return 1, quality, fingerprint


def make(name, seed, size):
    return {"pretrain": Pretrain, "finetune": Finetune, "retrieval": Retrieval}[name](seed, size)
