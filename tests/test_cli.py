import json
import os

import numpy as np
import pytest

from partssl import cli
from partssl import config as cfgmod
from partssl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def micro_cfg(tmp_path, mode="pretrain", **overrides):
    """A configuration small enough for CLI tests to run in seconds."""
    cfg = cfgmod.RunConfig()
    cfg.mode = mode
    cfg.out_dir = str(tmp_path / mode)
    cfg.backbone.image_h = 16
    cfg.backbone.image_w = 8
    cfg.backbone.embed_dim = 8
    cfg.backbone.depth = 1
    cfg.backbone.heads = 2
    cfg.backbone.num_parts = 2
    cfg.backbone.proj_dim = 8
    cfg.crops.num_areas = 2
    cfg.crops.global_size = (16, 8)
    cfg.crops.local_size = (8, 4)
    cfg.data.num_identities = 4
    cfg.data.train_images_per_identity = 4
    cfg.data.test_images_per_identity = 2
    cfg.data.cameras = 2
    cfg.distill.steps = 4
    cfg.distill.batch_size = 2
    cfg.finetune.steps = 4
    cfg.finetune.ids_per_batch = 2
    cfg.finetune.samples_per_id = 2
    cfg.cluster.epochs = 1
    cfg.cluster.eps = 2.0  # unit-norm features lie at most 2 apart: one cluster
    cfg.cluster.steps_per_epoch = 2
    cfg.cluster.ids_per_batch = 2
    cfg.cluster.samples_per_id = 2
    cfg.eval.max_rank = 5
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One pretrain -> finetune chain shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    pre_cfg = micro_cfg(root, "pretrain")
    pre = cli.run(pre_cfg)
    ft_cfg = micro_cfg(root, "finetune", init_checkpoint=pre["checkpoint"])
    ft = cli.run(ft_cfg)
    return {"root": root, "pre_cfg": pre_cfg, "pre": pre, "ft_cfg": ft_cfg, "ft": ft}


class TestPretrainMode:
    def test_artifacts(self, pipeline):
        pre = pipeline["pre"]
        assert os.path.exists(pre["checkpoint"])
        assert os.path.exists(pre["loss_log"])
        out = pipeline["pre_cfg"].out_dir
        assert os.path.exists(os.path.join(out, "resolved.cfg"))
        with open(pre["loss_log"]) as fh:
            records = [json.loads(l) for l in fh]
        assert len(records) == 4
        assert all("lambda" in r for r in records)

    def test_resolved_config_reparses_to_identical_run(self, pipeline):
        out = pipeline["pre_cfg"].out_dir
        back = cfgmod.load_config(os.path.join(out, "resolved.cfg"))
        assert back == pipeline["pre_cfg"]

    def test_checkpoint_carries_configs(self, pipeline):
        ckpt = load_checkpoint(pipeline["pre"]["checkpoint"])
        assert ckpt.config["backbone"]["num_parts"] == 2
        assert ckpt.config["crops"]["num_areas"] == 2
        assert ckpt.extra["stage"] == "pretrain"

    def test_determinism_same_seed_same_loss_log(self, tmp_path):
        logs = []
        for sub in ("a", "b"):
            cfg = micro_cfg(tmp_path / sub, "pretrain")
            cfg.distill.steps = 3
            cli.run(cfg)
            with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]


class TestFinetuneMode:
    def test_artifacts_and_metrics(self, pipeline):
        ft = pipeline["ft"]
        assert os.path.exists(ft["checkpoint"])
        assert os.path.exists(ft["embeddings"])
        assert 0.0 <= ft["mAP"] <= 1.0

    def test_backbone_mismatch_refused(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "finetune", init_checkpoint=pipeline["pre"]["checkpoint"])
        cfg.backbone.embed_dim = 16
        cfg.allow_j_override = False
        with pytest.raises(cfgmod.ConfigError, match="embed_dim"):
            cli.run(cfg)

    def test_network_missing_a_parameter_refused(self, pipeline, tmp_path):
        ckpt = load_checkpoint(pipeline["pre"]["checkpoint"])
        tensors = {k: v for k, v in ckpt.tensors.items() if k != "teacher.head_part.w1"}
        path = str(tmp_path / "partial.bin")
        save_checkpoint(path, tensors, config=ckpt.config, extra=ckpt.extra)
        for cfg in (micro_cfg(tmp_path, "finetune", init_checkpoint=path),
                    micro_cfg(tmp_path, "pretrain", resume=path)):
            with pytest.raises(CheckpointError, match="head_part.w1"):  # exit 1 in cli.main
                cli.run(cfg)

    def test_wrong_stage_refused(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["ft"]["checkpoint"])
        with pytest.raises(cfgmod.ConfigError, match="stage"):
            cli.run(cfg)


class TestEvalMode:
    def test_eval_reproduces_inprocess_metrics(self, pipeline, tmp_path):
        from partssl import evaluate as ev
        from partssl.finetune import load_embeddings
        cfg = micro_cfg(tmp_path, "eval")
        cfg.eval.embeddings = pipeline["ft"]["embeddings"]
        res = cli.run(cfg)
        emb, ids, cams = load_embeddings(cfg.eval.embeddings)
        index = ev.RetrievalIndex(emb, ids, cams, emb, ids, cams)
        direct = ev.evaluate(index, max_rank=cfg.eval.max_rank)
        assert abs(res["mAP"] - direct.mean_ap) < 1e-12
        assert abs(res["rank1"] - direct.rank(1)) < 1e-12
        assert res["mAP"] == pytest.approx(pipeline["ft"]["mAP"], abs=1e-12)

    def test_metrics_file_format(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "eval")
        cfg.eval.embeddings = pipeline["ft"]["embeddings"]
        res = cli.run(cfg)
        with open(res["metrics"]) as fh:
            text = fh.read()
        assert "mAP = " in text and "rank-1 = " in text
        assert os.path.exists(res["ranking_report"])

    def test_missing_embeddings_config_error(self, tmp_path):
        cfg = micro_cfg(tmp_path, "eval")
        with pytest.raises(cfgmod.ConfigError, match="embeddings"):
            cli.run(cfg)


class TestAdaptModes:
    def test_usl_runs_from_pretrain_checkpoint(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["pre"]["checkpoint"])
        res = cli.run(cfg)
        assert os.path.exists(res["checkpoint"])
        assert os.path.exists(os.path.join(cfg.out_dir, "pseudo_labels_epoch0.jsonl"))
        assert 0.0 <= res["final_purity"] <= 1.0

    def test_uda_requires_finetuned_checkpoint(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "uda", init_checkpoint=pipeline["ft"]["checkpoint"])
        res = cli.run(cfg)
        assert os.path.exists(res["checkpoint"])
        cfg_bad = micro_cfg(tmp_path / "bad", "uda",
                            init_checkpoint=pipeline["pre"]["checkpoint"])
        with pytest.raises(cfgmod.ConfigError, match="stage"):
            cli.run(cfg_bad)

    def test_usl_without_checkpoint_is_config_error(self, tmp_path):
        cfg = micro_cfg(tmp_path, "usl")
        with pytest.raises(cfgmod.ConfigError, match="init_checkpoint"):
            cli.run(cfg)


class TestVisualizeMode:
    def test_writes_attention_maps(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "visualize", init_checkpoint=pipeline["pre"]["checkpoint"])
        res = cli.run(cfg)
        names = {os.path.basename(p) for p in res["maps"]}
        assert names == {"attn_cls.pgm", "attn_part1.pgm", "attn_part2.pgm",
                         "part_argmax.ppm"}
        for p in res["maps"]:
            assert os.path.getsize(p) > 0

    def test_bad_image_index(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "visualize", init_checkpoint=pipeline["pre"]["checkpoint"])
        cfg.visualize.image_index = 10_000
        with pytest.raises(cfgmod.ConfigError, match="image_index"):
            cli.run(cfg)


class TestDirectoryIsolation:
    def test_runs_only_write_their_own_directories(self, pipeline, tmp_path):
        pre_out = pipeline["pre_cfg"].out_dir
        before = {f: os.path.getmtime(os.path.join(pre_out, f)) for f in os.listdir(pre_out)}
        cfg = micro_cfg(tmp_path, "eval")
        cfg.eval.embeddings = pipeline["ft"]["embeddings"]
        cli.run(cfg)
        after = {f: os.path.getmtime(os.path.join(pre_out, f)) for f in os.listdir(pre_out)}
        assert before == after


class TestMainEntry:
    def test_print_config(self, capsys):
        assert cli.main(["pretrain", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "mode = pretrain" in out

    def test_exit_code_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = nonsense\n")
        assert cli.main(["--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_exit_code_runtime_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mode = eval\neval.embeddings = /nonexistent/path.jsonl\n"
                            "out_dir = %s\n" % (tmp_path / "out"))
        assert cli.main(["--config", str(cfg_file)]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_cli_overrides(self, tmp_path, capsys):
        assert cli.main(["pretrain", "--seed", "7", "--out", str(tmp_path / "o"),
                         "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "seed = 7" in out

    def test_mode_flag_equivalent(self, capsys):
        assert cli.main(["--mode", "eval", "--print-config"]) == 0
        assert "mode = eval" in capsys.readouterr().out


class TestAblation:
    def test_fusion_axis_rows_and_dims(self, tmp_path):
        cfg = micro_cfg(tmp_path, "ablate")
        cfg.ablation.axis = "fusion"
        res = cli.run(cfg)
        rows = res["rows"]
        assert [r[0] for r in rows] == ["concat_all", "mean_all", "concat_cls_meanpart"]
        C, L = 8, 2
        assert [r[1] for r in rows] == [(L + 1) * C, C, 2 * C]
        with open(res["table"]) as fh:
            table = fh.read()
        assert "fusion" in table and "mean_all" in table

    def test_areas_axis_one_row_per_l(self, tmp_path):
        cfg = micro_cfg(tmp_path, "ablate")
        cfg.ablation.axis = "areas"
        res = cli.run(cfg)
        assert [r[0] for r in res["rows"]] == [2, 3, 4, 5]
        assert [r[1] for r in res["rows"]] == [5, 3, 3, 2]  # ceil(9/L)
