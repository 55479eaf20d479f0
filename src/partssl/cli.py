"""Command-line entry point: pretrain / finetune / uda / usl / eval /
visualize / ablate, with text configs, checkpoints and per-run artifact
directories. Every run writes its fully resolved config next to its outputs
and never touches another run's directory.

Exit codes: 0 ok, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import evaluate as ev
from . import synthetic as sd
from . import vit
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cluster import AdaptTrainer, cluster_purity
from .config import ConfigError, RunConfig
from .distill import Pretrainer
from .finetune import (FUSION_STRATEGIES, FinetuneTrainer, dump_embeddings,
                       extract_embeddings, extract_workers, fused_dim, load_embeddings)
from .tensor import ShapeError


# ---------------------------------------------------------------------------
# data plumbing


def build_datasets(cfg):
    """(train, test) split of the synthetic or manifest-backed dataset."""
    d = cfg.data
    if d.kind == "dir":
        ds = sd.load_dataset(d.path)
    else:
        spec = sd.SyntheticSpec(
            num_identities=d.num_identities,
            images_per_identity=d.train_images_per_identity + d.test_images_per_identity,
            cameras=d.cameras, image_h=cfg.backbone.image_h, image_w=cfg.backbone.image_w,
            band_jitter=d.band_jitter)
        ds = sd.generate(spec, seed=d.seed)
    return _split_by_identity(ds, d.test_images_per_identity)


def _splits(cfg, test_needed):
    """``build_datasets``, with a split that the mode cannot use refused
    before anything is trained: every training mode needs train images,
    finetune (so also ablate) test images and two train identities too, and
    uda/usl enough train images for one DBSCAN core point."""
    train, test = build_datasets(cfg)
    if len(train) == 0 or (test_needed and len(test) == 0):
        raise ConfigError("mode %s needs a non-empty train%s split; data.test_images_per_identity"
                          " = %d leaves %d train and %d test images"
                          % (cfg.mode, " and test" if test_needed else "",
                             cfg.data.test_images_per_identity, len(train), len(test)))
    n_ids = len(np.unique(train.ids))
    if test_needed and n_ids < 2:
        raise ConfigError("mode %s fine-tunes on at least 2 train identities, got %d "
                          "(data.num_identities = %d)"
                          % (cfg.mode, n_ids, cfg.data.num_identities))
    need = max(2, cfg.cluster.min_points)
    if cfg.mode in ("uda", "usl") and len(train) < need:
        raise ConfigError("mode %s clusters at least max(2, cluster.min_points = %d) = %d train "
                          "images, got %d (data.train_images_per_identity = %d)"
                          % (cfg.mode, cfg.cluster.min_points, need, len(train),
                             cfg.data.train_images_per_identity))
    return train, test


def _take(ds, rows):
    rows = np.asarray(rows, dtype=int)
    return sd.SyntheticDataset(images=ds.images[rows], ids=ds.ids[rows], cams=ds.cams[rows],
                               spec=ds.spec)


def _split_by_identity(ds, n_test):
    """The last ``n_test`` images of each identity are the test split."""
    train_rows, test_rows = [], []
    for ident in np.unique(ds.ids):
        rows = np.where(ds.ids == ident)[0]
        cut = max(len(rows) - n_test, 0)
        train_rows.extend(rows[:cut])
        test_rows.extend(rows[cut:])
    return _take(ds, train_rows), _take(ds, test_rows)


def query_gallery_index(embeddings, ds):
    """Every test image is both query and gallery; the same-(id, camera)
    exclusion keeps self-matches and same-camera twins out of scoring."""
    return ev.RetrievalIndex(query=embeddings, q_ids=ds.ids, q_cams=ds.cams,
                             gallery=embeddings, g_ids=ds.ids, g_cams=ds.cams)


# ---------------------------------------------------------------------------
# checkpoint glue


def _state_tensors(**holders):
    """Each holder's ``state()`` (a network's or the centers'), its names
    under the keyword's prefix."""
    return {key + "." + k: v for key, holder in holders.items()
            for k, v in holder.state().items()}


def _load_state(cfg, ckpt, prefix, holder=None):
    """The checkpoint's ``prefix`` state, into ``holder`` or a fresh network."""
    if holder is None:
        holder = vit.NetworkParams.init(cfg.backbone, np.random.default_rng(0),
                                        requires_grad=True)
    state = {k[len(prefix) + 1:]: v for k, v in ckpt.tensors.items()
             if k.startswith(prefix + ".")}
    if not state:
        raise CheckpointError("checkpoint has no %r state" % prefix)
    try:
        holder.load_state(state)
    except (KeyError, ShapeError) as exc:  # e.g. written with other head names
        raise CheckpointError("checkpoint %r state does not fit this backbone: %s"
                              % (prefix, exc.args[0])) from None
    return holder


def _open_checkpoint(cfg, path, stage=None):
    """The checkpoint at ``path``, refused unless, when ``stage`` is given,
    it was written by that stage, and it was built with this backbone."""
    ckpt = load_checkpoint(path)
    got = ckpt.extra.get("stage", "?")
    if stage is not None and got != stage:
        # pretrain opens a checkpoint only to resume from it
        mode = "pretrain resume" if cfg.mode == "pretrain" else cfg.mode
        raise ConfigError("mode %s needs a %s checkpoint, got stage %r" % (mode, stage, got))
    want = dataclasses.asdict(cfg.backbone)
    have = ckpt.config.get("backbone")
    missing = [k for k in want if not isinstance(have, dict) or k not in have]
    if missing:
        raise CheckpointError("%s: config.backbone is not an object holding every backbone "
                              "key; missing: %s" % (path, ", ".join(missing)))
    mismatched = [k for k, v in want.items() if have[k] != v]
    if mismatched:
        raise ConfigError(
            "checkpoint backbone config differs on: %s (checkpoint was built with %s)"
            % (", ".join(mismatched), {k: have[k] for k in mismatched}))
    return ckpt


def _init_network(cfg, stage=None):
    """The network that ``cfg.init_checkpoint`` hands on: a pretrain
    checkpoint's momentum-averaged teacher, any other stage's network."""
    if not cfg.init_checkpoint:
        raise ConfigError("mode %s requires init_checkpoint" % cfg.mode)
    ckpt = _open_checkpoint(cfg, cfg.init_checkpoint, stage)
    prefix = "teacher" if ckpt.extra.get("stage") == "pretrain" else "network"
    return _load_state(cfg, ckpt, prefix)


def _save_stage(cfg, out, stage, tensors, config, **extra):
    """``out/checkpoint.bin``, its header led by this backbone and ``stage``."""
    path = os.path.join(out, "checkpoint.bin")
    save_checkpoint(path, tensors, config={"backbone": dataclasses.asdict(cfg.backbone), **config},
                    extra={"stage": stage, **extra, "seed": cfg.seed})
    return path


# ---------------------------------------------------------------------------
# modes


_LOG_NAME = "loss_log.jsonl"  # a training run's step log, in its out dir


def _fresh_log(out):
    """The run's log, emptied: a rerun into one directory starts over."""
    path = os.path.join(out, _LOG_NAME)
    if os.path.exists(path):
        os.remove(path)
    return path


def run_pretrain(cfg, out):
    train, _ = _splits(cfg, test_needed=False)
    trainer = Pretrainer(cfg.backbone, cfg.crops, cfg.distill, train.images,
                         seed=cfg.seed, log_path=os.path.join(out, _LOG_NAME))
    if cfg.resume:
        ckpt = _open_checkpoint(cfg, cfg.resume, "pretrain")
        for prefix in ("student", "teacher", "center"):
            _load_state(cfg, ckpt, prefix, getattr(trainer, prefix))
        step = ckpt.extra.get("step")
        if type(step) is not int or step < 0:  # JSON true/false are not steps
            raise CheckpointError("checkpoint extra.step must be an integer >= 0, got %s"
                                  % json.dumps(step))
        trainer.step_count = step
    _fresh_log(out)  # only now: a refused resume keeps the run's log
    trainer.run()
    tensors = _state_tensors(student=trainer.student, teacher=trainer.teacher,
                             center=trainer.center)
    path = _save_stage(cfg, out, "pretrain", tensors, {"crops": dataclasses.asdict(cfg.crops)},
                       step=trainer.step_count)
    return {"checkpoint": path, "loss_log": trainer.log_path,
            "final_loss": trainer.log[-1]["loss"] if trainer.log else None}


def run_finetune(cfg, out):
    train, test = _splits(cfg, test_needed=True)
    if cfg.init_checkpoint:
        params = _init_network(cfg, "pretrain")
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1717]))
        params = vit.NetworkParams.init(cfg.backbone, rng, requires_grad=True)
    trainer = FinetuneTrainer(params, cfg.finetune, train.images, train.ids,
                              seed=cfg.seed, log_path=_fresh_log(out))
    trainer.run()
    emb = extract_embeddings(params, trainer.head, test.images, cfg.finetune.fusion)
    dump_path = os.path.join(out, "embeddings.bin")
    dump_embeddings(dump_path, emb, test.ids, test.cams)
    result = ev.evaluate(query_gallery_index(emb, test), max_rank=cfg.eval.max_rank)
    ckpt_path = _save_stage(cfg, out, "finetune",
                            {**_state_tensors(network=params), **trainer.head.state()},
                            {"crops": dataclasses.asdict(cfg.crops),
                             "fusion": cfg.finetune.fusion},
                            num_ids=len(trainer.classes))
    _write_metrics(os.path.join(out, "metrics.txt"), result)
    return {"checkpoint": ckpt_path, "embeddings": dump_path,
            "mAP": result.mean_ap, "rank1": result.rank(1)}


def run_adapt(cfg, out):
    """Cluster-prototype adaptation; uda starts from a fine-tuned network,
    usl from a pre-trained one."""
    params = _init_network(cfg, "finetune" if cfg.mode == "uda" else "pretrain")
    train, _ = _splits(cfg, test_needed=False)
    trainer = AdaptTrainer(params, cfg.cluster, train.images, seed=cfg.seed,
                           log_path=_fresh_log(out))
    log = trainer.run()
    ckpt_path = _save_stage(cfg, out, "adapt", _state_tensors(network=params),
                            {"fusion": cfg.cluster.fusion}, mode=cfg.mode)
    purity = cluster_purity(trainer.labeling, train.ids)  # external measurement
    return {"checkpoint": ckpt_path, "epochs": len(log), "final_purity": purity}


def run_eval(cfg, out):
    if not cfg.eval.embeddings:
        raise ConfigError("mode eval requires eval.embeddings (an embedding dump path)")
    emb, ids, cams = load_embeddings(cfg.eval.embeddings)
    index = ev.RetrievalIndex(query=emb, q_ids=ids, q_cams=cams,
                              gallery=emb, g_ids=ids, g_cams=cams)
    try:
        result = ev.evaluate(index, max_rank=cfg.eval.max_rank)
    except ev.EvalError as exc:  # e.g. no identity seen by two cameras
        raise ConfigError("%s: %s" % (cfg.eval.embeddings, exc)) from None
    metrics_path = _write_metrics(os.path.join(out, "metrics.txt"), result)
    report = ev.render_ranking_report(index, list(range(min(4, len(emb)))), top_k=5)
    report_path = os.path.join(out, "ranking_report.txt")
    with open(report_path, "w") as fh:
        fh.write(report + "\n")
    return {"metrics": metrics_path, "ranking_report": report_path,
            "mAP": result.mean_ap, "rank1": result.rank(1)}


def _write_metrics(path, result):
    """mAP, then the CMC ranks 1/5/10 that ``evaluate`` computed (it stops at
    eval.max_rank and at the gallery size)."""
    with open(path, "w") as fh:
        fh.write("mAP = %.17g\n" % result.mean_ap)
        for k in (1, 5, 10):
            if k <= len(result.cmc):
                fh.write("rank-%d = %.17g\n" % (k, result.rank(k)))
        fh.write("valid_queries = %d\n" % result.num_valid_queries)
        fh.write("excluded_queries = %d\n" % result.num_excluded_queries)
    return path


def _upscale(grid, scale):
    return np.repeat(np.repeat(grid, scale, axis=0), scale, axis=1)


_PART_COLORS = [(230, 70, 70), (70, 200, 70), (80, 110, 240), (230, 200, 60), (200, 80, 220)]


def run_visualize(cfg, out):
    params = _init_network(cfg)
    _, test = build_datasets(cfg)
    idx = cfg.visualize.image_index
    if not 0 <= idx < len(test):
        raise ConfigError("visualize.image_index %d outside test set (%d images)"
                          % (idx, len(test)))
    image = test.images[idx]
    layer = cfg.visualize.layer if cfg.visualize.layer >= 0 else cfg.backbone.depth - 1
    scale = cfg.backbone.patch_size
    tokens = ["cls"] + list(range(1, cfg.backbone.num_parts + 1))
    maps = {}
    paths = []
    for token in tokens:
        amap = vit.attention_map(image, token, layer, params)
        maps[token] = amap.patch_weights
        name = "attn_cls.pgm" if token == "cls" else "attn_part%d.pgm" % token
        path = os.path.join(out, name)
        heat = _upscale(amap.patch_weights / max(amap.patch_weights.max(), 1e-12), scale)
        sd.write_pnm(path, (heat * 255).astype(np.uint8), 255)
        paths.append(path)
    # winner-take-all part map over patches, rendered as colors
    parts = np.stack([maps[i] for i in tokens[1:]])
    winner = parts.argmax(axis=0)
    gh, gw = winner.shape
    rgb = np.zeros((gh, gw, 3), dtype=np.uint8)
    for i in range(cfg.backbone.num_parts):
        rgb[winner == i] = _PART_COLORS[i % len(_PART_COLORS)]
    argmax_path = os.path.join(out, "part_argmax.ppm")
    sd.write_pnm(argmax_path, _upscale(rgb, scale), 255)
    paths.append(argmax_path)
    return {"layer": layer, "maps": paths}


def run_ablate(cfg, out):
    _splits(cfg, test_needed=True)  # every row fine-tunes and evaluates
    rows = []
    if cfg.ablation.axis == "areas":
        header = ("L", "J", "mAP", "rank1")
        for L in (2, 3, 4, 5):
            sub = cfgmod.parse_text(cfgmod.to_text(cfg))  # deep copy via round trip
            sub.backbone.num_parts = sub.crops.num_areas = L
            sub.mode, sub.out_dir = "pretrain", os.path.join(out, "L%d" % L)
            sub.init_checkpoint = run(sub)["checkpoint"]
            sub.mode, sub.out_dir = "finetune", os.path.join(out, "L%d_finetune" % L)
            res = run(sub)
            rows.append((L, sub.crops.resolve_j(), res["mAP"], res["rank1"]))
    else:  # fusion
        header = ("fusion", "dim", "mAP", "rank1")
        sub = cfgmod.parse_text(cfgmod.to_text(cfg))
        sub.mode, sub.out_dir = "pretrain", os.path.join(out, "pretrain")
        sub.init_checkpoint = run(sub)["checkpoint"]
        sub.mode = "finetune"
        for strategy in FUSION_STRATEGIES:
            sub.finetune.fusion = strategy
            sub.out_dir = os.path.join(out, "fusion_%s" % strategy)
            res = run(sub)
            dim = fused_dim(strategy, cfg.backbone.num_parts, cfg.backbone.embed_dim)
            rows.append((strategy, dim, res["mAP"], res["rank1"]))
    table = _format_table(header, rows)
    path = os.path.join(out, "ablation.txt")
    with open(path, "w") as fh:
        fh.write(table + "\n")
    return {"table": path, "rows": rows}


def _format_table(header, rows):
    all_rows = [tuple(str(c) if not isinstance(c, float) else "%.4f" % c for c in r)
                for r in [header] + list(rows)]
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for n, r in enumerate(all_rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


_RUNNERS = {
    "pretrain": run_pretrain,
    "finetune": run_finetune,
    "uda": run_adapt,
    "usl": run_adapt,
    "eval": run_eval,
    "visualize": run_visualize,
    "ablate": run_ablate,
}


def run(cfg):
    """Dispatch one validated RunConfig; returns a result summary dict."""
    cfg.validate()
    # a mode refuses an input it would never read, before any output
    if cfg.resume and cfg.mode != "pretrain":
        raise ConfigError("resume is read only by mode pretrain, not by mode %s" % cfg.mode)
    if cfg.init_checkpoint and cfg.mode in ("pretrain", "eval", "ablate"):
        raise ConfigError("init_checkpoint is read only by modes finetune/uda/usl/visualize, "
                          "not by mode %s" % cfg.mode)
    if cfg.mode == "visualize" and cfg.backbone.depth == 0:
        raise ConfigError("mode visualize draws attention maps; backbone.depth = 0 has no "
                          "attention layer")
    extract_workers()  # fail on a bad PARTSSL_WORKERS before any output
    if cfg.data.kind == "dir" and cfg.mode != "eval":
        sd.manifest_path(cfg.data.path)  # fail before any output is written
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cfgmod.save_config(cfg, os.path.join(out, "resolved.cfg"))
    result = _RUNNERS[cfg.mode](cfg, out)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump({"mode": cfg.mode, **{k: v for k, v in result.items()
                                        if isinstance(v, (int, float, str, list))}}, fh, indent=2)
    return result


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="partssl",
        description="Part-token self-distillation pipeline (pretrain, finetune, "
                    "adapt, evaluate, visualize) at desk scale.")
    parser.add_argument("mode", nargs="?", choices=cfgmod.MODES,
                        help="run mode (or use --mode)")
    parser.add_argument("--mode", dest="mode_flag", choices=cfgmod.MODES)
    parser.add_argument("--config", help="config file; omitted keys use defaults")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--resume", help="checkpoint to resume from (pretrain)")
    parser.add_argument("--init", dest="init_checkpoint",
                        help="checkpoint to start from (finetune/uda/usl/visualize)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved config and exit")
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        try:
            cfg = cfgmod.load_config(args.config) if args.config else RunConfig()
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not text
            raise ConfigError("%s: %s" % (args.config, getattr(exc, "strerror", None) or exc)) \
                from None
        mode = args.mode_flag or args.mode
        if mode:
            cfg.mode = mode
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out:
            cfg.out_dir = args.out
        if args.resume:
            cfg.resume = args.resume
        if args.init_checkpoint:
            cfg.init_checkpoint = args.init_checkpoint
        cfg.validate()
        if args.print_config:
            print(cfgmod.to_text(cfg), end="")
            return 0
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    try:
        result = run(cfg)
    except (ConfigError, CheckpointError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2
    for key, value in result.items():
        print("%s: %s" % (key, value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
