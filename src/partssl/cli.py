"""Command-line entry point: pretrain / finetune / uda / usl / eval /
visualize / ablate, with text configs, checkpoints and per-run artifact
directories. Every run writes its fully resolved config next to its outputs
and never touches another run's directory.

Exit codes: 0 ok, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
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
                       extract_embeddings, fused_dim, load_embeddings)
from .multicrop import views_per_area
from .tensor import ShapeError


# ---------------------------------------------------------------------------
# data plumbing


def build_datasets(cfg):
    """(train, test) synthetic datasets or a manifest-backed split."""
    d = cfg.data
    if d.kind == "dir":
        ds = sd.load_dataset(d.path)
        return _split_by_identity(ds, d.test_fraction)
    h = cfg.backbone.image_h
    w = cfg.backbone.image_w
    spec = sd.SyntheticSpec(
        num_identities=d.num_identities,
        images_per_identity=d.train_images_per_identity + d.test_images_per_identity,
        cameras=d.cameras, image_h=h, image_w=w, noise=d.noise,
        band_jitter=d.band_jitter, occlusion_p=d.occlusion_p)
    ds = sd.generate(spec, seed=d.seed)
    n_train = d.train_images_per_identity
    train_rows, test_rows = [], []
    for n in range(len(ds)):
        k = n % spec.images_per_identity
        (train_rows if k < n_train else test_rows).append(n)
    return _take(ds, train_rows), _take(ds, test_rows)


def _take(ds, rows):
    rows = np.asarray(rows, dtype=int)
    return sd.SyntheticDataset(images=ds.images[rows], ids=ds.ids[rows],
                               cams=ds.cams[rows], masks=ds.masks[rows],
                               spec=ds.spec, seed=ds.seed)


def _split_by_identity(ds, test_fraction):
    train_rows, test_rows = [], []
    for ident in np.unique(ds.ids):
        rows = np.where(ds.ids == ident)[0]
        n_test = max(1, int(round(len(rows) * test_fraction)))
        train_rows.extend(rows[:-n_test])
        test_rows.extend(rows[-n_test:])
    return _take(ds, train_rows), _take(ds, test_rows)


def query_gallery_index(embeddings, ds):
    """Every test image is both query and gallery; the same-(id, camera)
    exclusion keeps self-matches and same-camera twins out of scoring."""
    return ev.RetrievalIndex(query=embeddings, q_ids=ds.ids, q_cams=ds.cams,
                             gallery=embeddings, g_ids=ds.ids, g_cams=ds.cams)


# ---------------------------------------------------------------------------
# checkpoint glue


def _network_state(prefix, params):
    return {prefix + "." + k: v for k, v in params.state().items()}


def _load_network(cfg, ckpt, prefix, params=None):
    """The checkpoint's ``prefix`` network, into ``params`` or a fresh one."""
    if params is None:
        params = vit.NetworkParams.init(cfg.backbone, np.random.default_rng(0),
                                        requires_grad=True)
    state = {k[len(prefix) + 1:]: v for k, v in ckpt.tensors.items()
             if k.startswith(prefix + ".")}
    if not state:
        raise CheckpointError("checkpoint has no %r network" % prefix)
    try:
        params.load_state(state)
    except (KeyError, ShapeError) as exc:  # e.g. written with other head names
        raise CheckpointError("checkpoint %r network does not fit this backbone: %s"
                              % (prefix, exc.args[0])) from None
    return params


def _check_ckpt_config(cfg, ckpt):
    want = cfgmod.backbone_dict(cfg)
    have = ckpt.config.get("backbone", {})
    mismatched = [k for k, v in want.items() if k in have and have[k] != v]
    if mismatched:
        raise ConfigError(
            "checkpoint backbone config differs on: %s (checkpoint was built with %s)"
            % (", ".join(mismatched), {k: have[k] for k in mismatched}))


def _require_stage(ckpt, want, mode):
    stage = ckpt.extra.get("stage", "?")
    if stage != want:
        raise ConfigError("mode %s needs a %s checkpoint, got stage %r" % (mode, want, stage))


# ---------------------------------------------------------------------------
# modes


def run_pretrain(cfg, out):
    train, _ = build_datasets(cfg)
    log_path = os.path.join(out, "loss_log.jsonl")
    if os.path.exists(log_path):
        os.remove(log_path)
    trainer = Pretrainer(cfg.backbone, cfg.crops, cfg.distill, train.images,
                         seed=cfg.seed, log_path=log_path)
    if cfg.resume:
        ckpt = load_checkpoint(cfg.resume)
        _check_ckpt_config(cfg, ckpt)
        _require_stage(ckpt, "pretrain", "pretrain resume")
        _load_network(cfg, ckpt, "student", trainer.student)
        _load_network(cfg, ckpt, "teacher", trainer.teacher)
        trainer.center.load({r: ckpt.tensors["center." + r] for r in trainer.center.centers})
        trainer.step_count = int(ckpt.extra.get("step", 0))
    trainer.run()
    tensors = {}
    tensors.update(_network_state("student", trainer.student))
    tensors.update(_network_state("teacher", trainer.teacher))
    for role, vec in trainer.center.state().items():
        tensors["center." + role] = vec
    path = os.path.join(out, "checkpoint.bin")
    save_checkpoint(path, tensors,
                    config={"backbone": cfgmod.backbone_dict(cfg),
                            "crops": cfgmod.crops_dict(cfg)},
                    extra={"stage": "pretrain", "step": trainer.step_count,
                           "seed": cfg.seed})
    return {"checkpoint": path, "loss_log": log_path,
            "final_loss": trainer.log[-1]["loss"] if trainer.log else None}


def _finetune_network(cfg):
    if cfg.init_checkpoint:
        ckpt = load_checkpoint(cfg.init_checkpoint)
        _check_ckpt_config(cfg, ckpt)
        _require_stage(ckpt, "pretrain", cfg.mode)
        # the momentum-averaged network is the one carried downstream
        return _load_network(cfg, ckpt, "teacher")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1717]))
    return vit.NetworkParams.init(cfg.backbone, rng, requires_grad=True)


def run_finetune(cfg, out):
    train, test = build_datasets(cfg)
    params = _finetune_network(cfg)
    log_path = os.path.join(out, "loss_log.jsonl")
    trainer = FinetuneTrainer(params, cfg.finetune, train.images, train.ids,
                              seed=cfg.seed, log_path=log_path)
    trainer.run()
    emb = extract_embeddings(params, trainer.head, test.images, cfg.finetune.fusion)
    dump_path = os.path.join(out, "embeddings.jsonl")
    dump_embeddings(dump_path, emb, test.ids, test.cams)
    result = ev.evaluate(query_gallery_index(emb, test), max_rank=cfg.eval.max_rank)
    tensors = _network_state("network", params)
    tensors.update({k: v for k, v in trainer.head.state().items()})
    ckpt_path = os.path.join(out, "checkpoint.bin")
    save_checkpoint(ckpt_path, tensors,
                    config={"backbone": cfgmod.backbone_dict(cfg),
                            "crops": cfgmod.crops_dict(cfg),
                            "fusion": cfg.finetune.fusion},
                    extra={"stage": "finetune", "num_ids": len(trainer.classes),
                           "seed": cfg.seed})
    _write_metrics(os.path.join(out, "metrics.txt"), result, cfg.eval.max_rank)
    return {"checkpoint": ckpt_path, "embeddings": dump_path,
            "mAP": result.mean_ap, "rank1": result.rank(1)}


def run_adapt(cfg, out):
    """Cluster-prototype adaptation; uda starts from a fine-tuned network,
    usl from a pre-trained one."""
    if not cfg.init_checkpoint:
        raise ConfigError("mode %s requires init_checkpoint" % cfg.mode)
    ckpt = load_checkpoint(cfg.init_checkpoint)
    _check_ckpt_config(cfg, ckpt)
    if cfg.mode == "uda":
        _require_stage(ckpt, "finetune", "uda")
        params = _load_network(cfg, ckpt, "network")
    else:
        _require_stage(ckpt, "pretrain", "usl")
        params = _load_network(cfg, ckpt, "teacher")
    train, test = build_datasets(cfg)
    trainer = AdaptTrainer(params, cfg.cluster, train.images, seed=cfg.seed, out_dir=out)
    history = trainer.run()
    ckpt_path = os.path.join(out, "checkpoint.bin")
    save_checkpoint(ckpt_path, _network_state("network", params),
                    config={"backbone": cfgmod.backbone_dict(cfg),
                            "fusion": cfg.cluster.fusion},
                    extra={"stage": "adapt", "mode": cfg.mode, "seed": cfg.seed})
    purity = cluster_purity(history[-1].labeling, train.ids)  # external measurement
    stats_path = os.path.join(out, "adapt_log.jsonl")
    with open(stats_path, "w") as fh:
        for h in history:
            fh.write(json.dumps({"epoch": h.epoch, "mean_loss": h.mean_loss,
                                 "clusters": h.num_clusters,
                                 "outliers": h.num_outliers}) + "\n")
    return {"checkpoint": ckpt_path, "epochs": len(history),
            "final_purity": purity, "snapshots": out}


def run_eval(cfg, out):
    if not cfg.eval.embeddings:
        raise ConfigError("mode eval requires eval.embeddings (an embedding dump path)")
    emb, ids, cams = load_embeddings(cfg.eval.embeddings)
    index = ev.RetrievalIndex(query=emb, q_ids=ids, q_cams=cams,
                              gallery=emb, g_ids=ids, g_cams=cams)
    result = ev.evaluate(index, max_rank=cfg.eval.max_rank)
    metrics_path = _write_metrics(os.path.join(out, "metrics.txt"), result, cfg.eval.max_rank)
    n_q = min(cfg.eval.report_queries, len(emb))
    report = ev.render_ranking_report(index, list(range(n_q)), cfg.eval.report_top_k)
    report_path = os.path.join(out, "ranking_report.txt")
    with open(report_path, "w") as fh:
        fh.write(report + "\n")
    return {"metrics": metrics_path, "ranking_report": report_path,
            "mAP": result.mean_ap, "rank1": result.rank(1)}


def _write_metrics(path, result, max_rank):
    with open(path, "w") as fh:
        fh.write("mAP = %.17g\n" % result.mean_ap)
        for k in (1, 5, 10):
            if k <= max_rank:
                fh.write("rank-%d = %.17g\n" % (k, result.rank(k)))
        fh.write("valid_queries = %d\n" % result.num_valid_queries)
        fh.write("excluded_queries = %d\n" % result.num_excluded_queries)
    return path


def _write_pgm_heatmap(path, grid, scale):
    arr = grid / max(grid.max(), 1e-12)
    arr = np.repeat(np.repeat(arr, scale, axis=0), scale, axis=1)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write((arr * 255).astype(np.uint8).tobytes())


_PART_COLORS = [(230, 70, 70), (70, 200, 70), (80, 110, 240), (230, 200, 60), (200, 80, 220)]


def run_visualize(cfg, out):
    if not cfg.init_checkpoint:
        raise ConfigError("mode visualize requires init_checkpoint")
    ckpt = load_checkpoint(cfg.init_checkpoint)
    _check_ckpt_config(cfg, ckpt)
    prefix = "teacher" if any(k.startswith("teacher.") for k in ckpt.tensors) else "network"
    params = _load_network(cfg, ckpt, prefix)
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
        _write_pgm_heatmap(path, amap.patch_weights, scale)
        paths.append(path)
    # winner-take-all part map over patches, rendered as colors
    parts = np.stack([maps[i] for i in tokens[1:]])
    winner = parts.argmax(axis=0)
    gh, gw = winner.shape
    rgb = np.zeros((gh, gw, 3), dtype=np.uint8)
    for i in range(cfg.backbone.num_parts):
        rgb[winner == i] = _PART_COLORS[i % len(_PART_COLORS)]
    rgb = np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)
    argmax_path = os.path.join(out, "part_argmax.ppm")
    with open(argmax_path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (rgb.shape[1], rgb.shape[0]))
        fh.write(rgb.tobytes())
    paths.append(argmax_path)
    return {"layer": layer, "maps": paths}


def run_ablate(cfg, out):
    rows = []
    if cfg.ablation.axis == "areas":
        header = ("L", "J", "mAP", "rank1")
        for L in (2, 3, 4, 5):
            sub = cfgmod.parse_text(cfgmod.to_text(cfg))  # deep copy via round trip
            sub.backbone.num_parts = L
            sub.crops.num_areas = L
            sub.mode = "pretrain"
            sub.out_dir = os.path.join(out, "L%d" % L)
            pre_out = _prepare_out(sub)
            pre = run_pretrain(sub, pre_out)
            sub.mode = "finetune"
            sub.init_checkpoint = pre["checkpoint"]
            sub.out_dir = os.path.join(out, "L%d_finetune" % L)
            ft_out = _prepare_out(sub)
            res = run_finetune(sub, ft_out)
            rows.append((L, views_per_area(L), res["mAP"], res["rank1"]))
    elif cfg.ablation.axis == "fusion":
        header = ("fusion", "dim", "mAP", "rank1")
        sub = cfgmod.parse_text(cfgmod.to_text(cfg))
        sub.mode = "pretrain"
        sub.out_dir = os.path.join(out, "pretrain")
        pre = run_pretrain(sub, _prepare_out(sub))
        for strategy in FUSION_STRATEGIES:
            sub2 = cfgmod.parse_text(cfgmod.to_text(cfg))
            sub2.mode = "finetune"
            sub2.finetune.fusion = strategy
            sub2.init_checkpoint = pre["checkpoint"]
            sub2.out_dir = os.path.join(out, "fusion_%s" % strategy)
            res = run_finetune(sub2, _prepare_out(sub2))
            dim = fused_dim(strategy, cfg.backbone.num_parts, cfg.backbone.embed_dim)
            rows.append((strategy, dim, res["mAP"], res["rank1"]))
    else:
        raise ConfigError("ablation.axis: expected areas or fusion, got %r" % cfg.ablation.axis)
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


def _prepare_out(cfg):
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cfgmod.save_config(cfg, os.path.join(out, "resolved.cfg"))
    return out


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
    out = _prepare_out(cfg)
    result = _RUNNERS[cfg.mode](cfg, out)
    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "w") as fh:
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
        cfg = cfgmod.load_config(args.config) if args.config else RunConfig()
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
