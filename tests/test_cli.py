import json
import os

import numpy as np
import pytest

from partssl import cli
from partssl import config as cfgmod
from partssl import synthetic as sd
from partssl import vit
from partssl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from partssl.cluster import PseudoLabeling, cluster_purity


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


def run_eval_cli(tmp_path, capsys, dump):
    """``partssl eval`` on ``dump``, which must exit 1 and write no metrics;
    returns its stderr."""
    cfg_file = tmp_path / "eval.cfg"
    cfg_file.write_text("eval.embeddings = %s\n" % dump)
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert not (out / "metrics.txt").exists()
    return capsys.readouterr().err


def flip_payload_byte(blob):
    """The container ``blob`` with one bit of its first payload float flipped."""
    hlen = int.from_bytes(blob[8:16], "little")
    blob = bytearray(blob)
    blob[16 + hlen] ^= 0x01  # the lowest mantissa byte: still a finite float
    return bytes(blob)


def rewrite_checkpoint(src, dst, **config):
    """The checkpoint ``src`` saved as ``dst`` with ``config`` keys replaced
    (a value of ``None`` drops the key)."""
    ckpt = load_checkpoint(src)
    merged = {k: v for k, v in dict(ckpt.config, **config).items() if v is not None}
    save_checkpoint(str(dst), ckpt.tensors, config=merged, extra=ckpt.extra)
    return str(dst)


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

    def test_resume_runs_the_remaining_steps(self, tmp_path):
        first = micro_cfg(tmp_path / "a", "pretrain")
        first.distill.steps = 2
        pre = cli.run(first)
        second = micro_cfg(tmp_path / "b", "pretrain", resume=pre["checkpoint"])
        res = cli.run(second)
        with open(res["loss_log"]) as fh:
            assert [json.loads(l)["step"] for l in fh] == [2, 3]
        assert load_checkpoint(res["checkpoint"]).extra["step"] == 4

    def test_resume_with_no_step_left_rewrites_the_state(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "pretrain", resume=pipeline["pre"]["checkpoint"])
        res = cli.run(cfg)
        before = load_checkpoint(pipeline["pre"]["checkpoint"]).tensors
        after = load_checkpoint(res["checkpoint"]).tensors
        assert sorted(after) == sorted(before)
        assert any(k.startswith("center.") for k in after)
        for name, value in before.items():
            assert np.array_equal(after[name], value), name

    @pytest.mark.parametrize("fault", ["no center.cls", "3-wide center.cls", "2-D center.part1",
                                       '"abc"', "-3", "2.5", "true", "null"])
    def test_resume_refuses_state_that_does_not_fit(self, pipeline, tmp_path, capsys, fault):
        # the checkpoint is at step 4 of 4: without the check, it is saved back
        ckpt = load_checkpoint(pipeline["pre"]["checkpoint"])
        tensors, extra = dict(ckpt.tensors), dict(ckpt.extra)
        if fault == "no center.cls":
            del tensors["center.cls"]
        elif fault == "3-wide center.cls":
            tensors["center.cls"] = np.zeros(3)
        elif fault == "2-D center.part1":
            tensors["center.part1"] = tensors["center.part1"][None]
        else:
            extra["step"] = json.loads(fault)
        path = str(tmp_path / "bad.bin")
        save_checkpoint(path, tensors, config=ckpt.config, extra=extra)
        cfg = micro_cfg(tmp_path, "pretrain")
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "pre.cfg"))
        assert cli.main(["pretrain", "--config", cfg_path, "--resume", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: checkpoint"), err
        assert ("center" if "center" in fault else "extra.step") in err, err
        assert not os.path.exists(os.path.join(cfg.out_dir, "checkpoint.bin"))

    def test_refused_resume_keeps_the_run_log(self, tmp_path, capsys):
        cfg = micro_cfg(tmp_path, "pretrain")
        cfg.distill.steps = 2
        pre = cli.run(cfg)
        with open(pre["loss_log"], "rb") as fh:
            log = fh.read()
        ckpt = load_checkpoint(pre["checkpoint"])
        bad = str(tmp_path / "bad.bin")
        save_checkpoint(bad, ckpt.tensors, config=ckpt.config, extra=dict(ckpt.extra, step="abc"))
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "pre.cfg"))
        assert cli.main(["pretrain", "--config", cfg_path, "--resume", bad]) == 1
        assert "extra.step" in capsys.readouterr().err
        with open(pre["loss_log"], "rb") as fh:
            assert fh.read() == log


class TestFinetuneMode:
    def test_artifacts_and_metrics(self, pipeline):
        ft = pipeline["ft"]
        assert os.path.exists(ft["checkpoint"])
        assert os.path.exists(ft["embeddings"])
        assert 0.0 <= ft["mAP"] <= 1.0

    def test_backbone_mismatch_refused(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "finetune", init_checkpoint=pipeline["pre"]["checkpoint"])
        cfg.backbone.embed_dim = 16
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

    def test_rerun_into_same_directory_starts_a_fresh_log(self, tmp_path):
        for _ in range(2):
            cfg = micro_cfg(tmp_path, "finetune")
            cfg.finetune.steps = 3
            cli.run(cfg)
        with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
            records = [json.loads(l) for l in fh]
        assert len(records) == 3
        # the gradient norm before clipping, as pretrain logs it
        assert all(0.0 < r["grad_norm"] < float("inf") for r in records)

    def test_truncated_checkpoint_is_checkpoint_error(self, pipeline, tmp_path, capsys):
        blob = open(pipeline["pre"]["checkpoint"], "rb").read()
        hlen = int.from_bytes(blob[8:16], "little")
        cuts = {"length field": blob[:12], "header": blob[:16 + hlen // 2],
                "payload start": blob[:16 + hlen], "payload": blob[:len(blob) - 8],
                "last byte": blob[:-1], "bad json": blob[:16] + b"{" * hlen + blob[16 + hlen:]}
        cfg_path = cfgmod.save_config(micro_cfg(tmp_path, "finetune"), str(tmp_path / "ft.cfg"))
        for name, data in cuts.items():
            path = tmp_path / ("cut_%s.ckpt" % name.replace(" ", "_"))
            path.write_bytes(data)
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))
            assert cli.main(["finetune", "--config", cfg_path, "--init", str(path)]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("config error") and str(path) in err, (name, err)

    def test_flipped_payload_byte_exits_1(self, pipeline, tmp_path, capsys):
        path = tmp_path / "flipped.bin"
        with open(pipeline["pre"]["checkpoint"], "rb") as fh:
            path.write_bytes(flip_payload_byte(fh.read()))
        cfg_path = cfgmod.save_config(micro_cfg(tmp_path, "finetune"), str(tmp_path / "ft.cfg"))
        assert cli.main(["finetune", "--config", cfg_path, "--init", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s" % path) and "checksum" in err, err

    def test_embedding_dump_in_place_of_a_checkpoint_exits_1(self, pipeline, tmp_path, capsys):
        cfg_path = cfgmod.save_config(micro_cfg(tmp_path, "finetune"), str(tmp_path / "ft.cfg"))
        dump = pipeline["ft"]["embeddings"]
        assert cli.main(["finetune", "--config", cfg_path, "--init", dump]) == 1
        err = capsys.readouterr().err
        assert "needs a pretrain checkpoint, got stage 'embeddings'" in err, err

    @pytest.mark.parametrize("fault", ["int", "list", "absent", "no heads"])
    def test_checkpoint_without_a_whole_backbone_exits_1(self, pipeline, tmp_path, capsys,
                                                         fault):
        # heads does not show in any tensor shape: only the header can tell
        backbone = dict(load_checkpoint(pipeline["pre"]["checkpoint"]).config["backbone"])
        del backbone["heads"]
        value = {"int": 5, "list": [1, 2], "absent": None, "no heads": backbone}[fault]
        path = rewrite_checkpoint(pipeline["pre"]["checkpoint"], tmp_path / "bad.bin",
                                  backbone=value)
        cfg = micro_cfg(tmp_path, "finetune")
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "ft.cfg"))
        assert cli.main(["finetune", "--config", cfg_path, "--init", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: config.backbone" % path), err
        missing = "heads" if fault == "no heads" else "image_h, image_w, patch_size"
        assert "missing: " + missing in err, err
        assert not os.path.exists(os.path.join(cfg.out_dir, "loss_log.jsonl"))

    def test_wrong_stage_refused(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["ft"]["checkpoint"])
        with pytest.raises(cfgmod.ConfigError, match="stage"):
            cli.run(cfg)
        cfg = micro_cfg(tmp_path, "pretrain", resume=pipeline["ft"]["checkpoint"])
        with pytest.raises(cfgmod.ConfigError, match="mode pretrain resume needs a pretrain "
                                                     "checkpoint, got stage 'finetune'"):
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

    def test_gallery_smaller_than_max_rank(self, tmp_path, capsys):
        from partssl.finetune import dump_embeddings
        rng = np.random.default_rng(0)
        dump = str(tmp_path / "emb.bin")
        dump_embeddings(dump, rng.normal(size=(8, 4)), [0, 0, 1, 1, 2, 2, 3, 3], [0, 1] * 4)
        cfg_file = tmp_path / "eval.cfg"
        cfg_file.write_text("eval.embeddings = %s\n" % dump)  # eval.max_rank = 10
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", str(cfg_file), "--out", str(out)]) == 0
        capsys.readouterr()
        keys = [l.split(" = ")[0] for l in (out / "metrics.txt").read_text().splitlines()]
        assert keys == ["mAP", "rank-1", "rank-5", "valid_queries", "excluded_queries"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dump_exits_1(self, tmp_path, capsys, bad):
        from partssl.finetune import dump_embeddings
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(40, 4))
        emb[17, 2] = bad
        dump = str(tmp_path / "emb.bin")
        dump_embeddings(dump, emb, np.arange(40) // 4, np.arange(40) % 2)
        err = run_eval_cli(tmp_path, capsys, dump)
        assert err.startswith("config error") and dump + " row 17" in err, err

    def test_one_dimensional_vector_exits_1(self, tmp_path, capsys):
        dump = str(tmp_path / "emb.bin")
        save_checkpoint(dump, {"vector": np.ones(8)},
                        extra={"stage": "embeddings", "identity": [0] * 8, "camera": [0] * 8})
        err = run_eval_cli(tmp_path, capsys, dump)
        assert err.startswith("config error: %s: vector is not an (N, D) tensor" % dump), err

    @pytest.mark.parametrize("label", ['"x"', "null", "[1]", str(10 ** 30), "1.5"])
    def test_label_that_is_not_an_integer_exits_1(self, tmp_path, capsys, label):
        from partssl.finetune import dump_embeddings
        dump = str(tmp_path / "emb.bin")
        dump_embeddings(dump, np.random.default_rng(4).normal(size=(8, 4)),
                        np.arange(8) // 2, np.arange(8) % 2)
        ckpt = load_checkpoint(dump)
        ckpt.extra["identity"][4] = json.loads(label)
        save_checkpoint(dump, ckpt.tensors, extra=ckpt.extra)
        err = run_eval_cli(tmp_path, capsys, dump)
        assert err.startswith("config error") and "%s row 4: identity" % dump in err, err

    def test_truncated_dump_exits_1(self, tmp_path, capsys):
        from partssl.finetune import dump_embeddings
        dump = tmp_path / "emb.bin"
        dump_embeddings(str(dump), np.random.default_rng(2).normal(size=(8, 4)),
                        np.arange(8) // 2, np.arange(8) % 2)
        dump.write_bytes(dump.read_bytes()[:-40])  # a cut-off last vector
        err = run_eval_cli(tmp_path, capsys, str(dump))
        assert err.startswith("config error: %s" % dump), err
        assert "not an embedding dump of this build" in err, err

    def test_flipped_payload_byte_exits_1(self, tmp_path, capsys):
        from partssl.finetune import dump_embeddings
        dump = tmp_path / "emb.bin"
        dump_embeddings(str(dump), np.random.default_rng(6).normal(size=(8, 4)),
                        np.arange(8) // 2, np.arange(8) % 2)
        dump.write_bytes(flip_payload_byte(dump.read_bytes()))
        err = run_eval_cli(tmp_path, capsys, str(dump))
        assert err.startswith("config error: %s" % dump) and "checksum" in err, err

    def test_json_lines_dump_exits_1(self, tmp_path, capsys):
        dump = tmp_path / "emb.jsonl"  # the layout of earlier builds
        dump.write_text("".join('{"image_id": %d, "identity": %d, "camera": %d, '
                                '"vector": [0.5, 1.5]}\n' % (n, n // 2, n % 2)
                                for n in range(4)))
        err = run_eval_cli(tmp_path, capsys, str(dump))
        assert err.startswith("config error: %s" % dump), err
        assert "not an embedding dump" in err, err

    def test_finetune_checkpoint_in_place_of_a_dump_exits_1(self, pipeline, tmp_path, capsys):
        ckpt_path = pipeline["ft"]["checkpoint"]
        err = run_eval_cli(tmp_path, capsys, ckpt_path)
        assert err.startswith("config error: %s: not an embedding dump, got stage 'finetune'"
                              % ckpt_path), err

    def test_dump_without_a_positive_exits_1(self, tmp_path, capsys):
        from partssl.finetune import dump_embeddings
        dump = str(tmp_path / "emb.bin")
        dump_embeddings(dump, np.random.default_rng(5).normal(size=(5, 4)), np.arange(5),
                        np.arange(5) % 2)  # five identities, one image each
        err = run_eval_cli(tmp_path, capsys, dump)
        assert err.startswith("config error: %s: no query has a valid gallery positive"
                              % dump), err

    def test_missing_embeddings_config_error(self, tmp_path):
        cfg = micro_cfg(tmp_path, "eval")
        with pytest.raises(cfgmod.ConfigError, match="embeddings"):
            cli.run(cfg)


class TestAdaptModes:
    def test_usl_runs_from_pretrain_checkpoint(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["pre"]["checkpoint"])
        res = cli.run(cfg)
        assert os.path.exists(res["checkpoint"])
        with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
            (epoch,) = [json.loads(line) for line in fh]
        assert len(epoch["assignments"]) == 16  # one cluster id per train image
        assert 0.0 <= res["final_purity"] <= 1.0

    def test_uda_requires_finetuned_checkpoint(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "uda", init_checkpoint=pipeline["ft"]["checkpoint"])
        res = cli.run(cfg)
        assert os.path.exists(res["checkpoint"])
        cfg_bad = micro_cfg(tmp_path / "bad", "uda",
                            init_checkpoint=pipeline["pre"]["checkpoint"])
        with pytest.raises(cfgmod.ConfigError, match="stage"):
            cli.run(cfg_bad)

    def test_usl_learns_at_a_splitting_eps(self, pipeline, tmp_path):
        # micro_cfg's eps 2.0 puts every feature in one cluster, where the
        # prototype loss is exactly 0; at 0.2 the micro teacher's 16 train
        # features form 2 clusters, so the adaptation steps learn
        cfg = micro_cfg(tmp_path, "usl")
        cfg.cluster.eps = 0.2
        path = cfgmod.save_config(cfg, str(tmp_path / "usl.cfg"))
        assert cli.main(["usl", "--config", path,
                         "--init", pipeline["pre"]["checkpoint"]]) == 0
        with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
            (epoch,) = [json.loads(line) for line in fh]
        assert epoch["clusters"] >= 2
        assert epoch["mean_loss"] > 0.0
        assert 0.0 < epoch["grad_norm_mean"] <= epoch["grad_norm_max"]

    def test_usl_at_an_all_outlier_eps_is_config_error(self, pipeline, tmp_path, capsys):
        cfg = micro_cfg(tmp_path, "usl")
        cfg.cluster.eps = 0.05  # no feature has a neighbour this close
        path = cfgmod.save_config(cfg, str(tmp_path / "usl.cfg"))
        assert cli.main(["usl", "--config", path,
                         "--init", pipeline["pre"]["checkpoint"]]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "cluster.eps" in err

    @pytest.mark.parametrize("mode,ids,min_points", [("usl", 1, 1), ("usl", 3, 4),
                                                    ("uda", 1, 4)])
    def test_train_split_too_small_to_cluster_exits_1(self, pipeline, tmp_path, capsys,
                                                      mode, ids, min_points):
        # one image per identity: 1 image has no neighbour, and with 3 images
        # no point reaches min_points = 4 at any eps
        cfg = micro_cfg(tmp_path, mode)
        cfg.data.num_identities = ids
        cfg.data.train_images_per_identity = 1
        cfg.cluster.min_points = min_points
        cfg.cluster.eps = 100.0
        path = cfgmod.save_config(cfg, str(tmp_path / "adapt.cfg"))
        init = pipeline["ft" if mode == "uda" else "pre"]["checkpoint"]
        assert cli.main([mode, "--config", path, "--init", init]) == 1
        err = capsys.readouterr().err
        need = max(2, min_points)
        assert err.startswith("config error: mode %s clusters at least max(2, cluster.min_points"
                              " = %d) = %d train images, got %d (data.train_images_per_identity"
                              " = 1)" % (mode, min_points, need, ids)), err
        assert os.listdir(cfg.out_dir) == ["resolved.cfg"]

    def test_rerun_into_same_directory_starts_a_fresh_log(self, pipeline, tmp_path):
        for _ in range(2):
            cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["pre"]["checkpoint"])
            cli.run(cfg)
        with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
            assert [json.loads(line)["epoch"] for line in fh] == [0]

    def test_final_purity_scores_the_last_records_assignments(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["pre"]["checkpoint"])
        cfg.cluster.eps, cfg.cluster.epochs = 0.2, 2  # 2 clusters: purity is not trivial
        cli.run(cfg)
        with open(os.path.join(cfg.out_dir, "loss_log.jsonl")) as fh:
            last = [json.loads(line) for line in fh][-1]
        with open(os.path.join(cfg.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        labeling = PseudoLabeling(np.array(last["assignments"]), last["clusters"])
        assert last["epoch"] == 1
        assert summary["final_purity"] == cluster_purity(labeling,
                                                         cli.build_datasets(cfg)[0].ids)

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

    @pytest.mark.parametrize("stage", ["pretrain", "finetune", "uda"])
    def test_maps_come_from_the_network_the_checkpoint_hands_on(self, pipeline, tmp_path,
                                                                monkeypatch, stage):
        # a pretrain checkpoint hands on its teacher, every other stage its network
        if stage == "uda":
            uda = micro_cfg(tmp_path, "uda", init_checkpoint=pipeline["ft"]["checkpoint"])
            path = cli.run(uda)["checkpoint"]
        else:
            path = pipeline["pre" if stage == "pretrain" else "ft"]["checkpoint"]
        cfg = micro_cfg(tmp_path, "visualize", init_checkpoint=path)
        drawn = []
        real = vit.attention_map

        def record(*args):
            amap = real(*args)
            drawn.append(amap.patch_weights)
            return amap

        monkeypatch.setattr(vit, "attention_map", record)
        cli.run(cfg)
        prefix = "teacher." if stage == "pretrain" else "network."
        params = vit.NetworkParams.init(cfg.backbone, np.random.default_rng(0))
        params.load_state({k[len(prefix):]: v for k, v in load_checkpoint(path).tensors.items()
                           if k.startswith(prefix)})
        image = cli.build_datasets(cfg)[1].images[cfg.visualize.image_index]
        want = [real(image, token, cfg.backbone.depth - 1, params).patch_weights
                for token in ("cls", 1, 2)]
        assert len(drawn) == len(want)
        for got, ref in zip(drawn, want):
            np.testing.assert_array_equal(got, ref)

    def test_embedding_dump_exits_1(self, pipeline, tmp_path, capsys):
        cfg = micro_cfg(tmp_path, "visualize")
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "vis.cfg"))
        assert cli.main(["visualize", "--config", cfg_path,
                         "--init", pipeline["ft"]["embeddings"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error"), err
        assert os.listdir(cfg.out_dir) == ["resolved.cfg"]

    def test_depth_0_backbone_exits_1_before_writing(self, tmp_path, capsys):
        # a depth-0 pretrain succeeds, but its network has no attention to draw
        pre = micro_cfg(tmp_path, "pretrain")
        pre.backbone.depth = 0
        cfg = micro_cfg(tmp_path, "visualize", init_checkpoint=cli.run(pre)["checkpoint"])
        cfg.backbone.depth = 0
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "vis.cfg"))
        assert cli.main(["visualize", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: mode visualize") and "backbone.depth = 0" in err, err
        assert not os.path.exists(cfg.out_dir)

    def test_bad_image_index(self, pipeline, tmp_path):
        cfg = micro_cfg(tmp_path, "visualize", init_checkpoint=pipeline["pre"]["checkpoint"])
        cfg.visualize.image_index = 10_000
        with pytest.raises(cfgmod.ConfigError, match="image_index"):
            cli.run(cfg)


class TestDatasetSplit:
    def test_directory_split_matches_synthetic(self, tmp_path):
        cfg = micro_cfg(tmp_path)
        train, test = cli.build_datasets(cfg)
        # the same spec with every image in train: the whole synthetic set
        whole_cfg = micro_cfg(tmp_path)
        whole_cfg.data.train_images_per_identity = 6
        whole_cfg.data.test_images_per_identity = 0
        whole, nothing = cli.build_datasets(whole_cfg)
        assert len(whole) == 24 and len(nothing) == 0
        sd.save_dataset(whole, str(tmp_path / "data"))
        dir_cfg = micro_cfg(tmp_path)
        dir_cfg.data.kind = "dir"
        dir_cfg.data.path = str(tmp_path / "data")
        dir_train, dir_test = cli.build_datasets(dir_cfg)
        for want, got in ((train, dir_train), (test, dir_test)):
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.cams, want.cams)
            np.testing.assert_allclose(got.images, want.images, atol=1e-5)  # 16-bit files
        assert list(test.ids) == [i for i in range(4) for _ in range(2)]
        dir_cfg.data.test_images_per_identity = 0
        dir_train, dir_test = cli.build_datasets(dir_cfg)
        assert len(dir_train) == 24 and len(dir_test) == 0

    def test_empty_test_split_exits_1_before_training(self, tmp_path, capsys):
        # with no test image there is nothing to evaluate: refused before training
        cfg = micro_cfg(tmp_path, "finetune")
        cfg.data.test_images_per_identity = 0
        path = cfgmod.save_config(cfg, str(tmp_path / "ft.cfg"))
        assert cli.main(["finetune", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: mode finetune needs a non-empty train and test "
                              "split; data.test_images_per_identity = 0 leaves 16 train and "
                              "0 test images"), err
        assert not os.path.exists(os.path.join(cfg.out_dir, "loss_log.jsonl"))

    @pytest.mark.parametrize("mode", ["finetune", "ablate"])
    def test_one_train_identity_exits_1_before_training(self, tmp_path, capsys, mode):
        # the identity loss and the triplet batches need two identities
        cfg = micro_cfg(tmp_path, mode)
        cfg.data.num_identities = 1
        path = cfgmod.save_config(cfg, str(tmp_path / "one.cfg"))
        assert cli.main([mode, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: mode %s fine-tunes on at least 2 train identities,"
                              " got 1 (data.num_identities = 1)" % mode), err
        assert os.listdir(cfg.out_dir) == ["resolved.cfg"]

    @pytest.mark.parametrize("mode", ["pretrain", "finetune"])
    def test_directory_without_train_images_exits_1(self, tmp_path, capsys, mode):
        # every identity holds only test_images_per_identity images
        _, test = cli.build_datasets(micro_cfg(tmp_path))
        sd.save_dataset(test, str(tmp_path / "data"))
        cfg = micro_cfg(tmp_path, mode)
        cfg.data.kind = "dir"
        cfg.data.path = str(tmp_path / "data")
        path = cfgmod.save_config(cfg, str(tmp_path / "dir.cfg"))
        assert cli.main([mode, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: mode %s needs" % mode), err
        assert "data.test_images_per_identity = 2 leaves 0 train and 8 test images" in err
        assert not os.path.exists(os.path.join(cfg.out_dir, "loss_log.jsonl"))

    def test_corrupt_directory_exits_1(self, tmp_path, capsys):
        whole, _ = cli.build_datasets(micro_cfg(tmp_path))
        sd.save_dataset(whole, str(tmp_path / "data"))
        manifest = tmp_path / "data" / "manifest.jsonl"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:2] + ["{id: 1}\n"] + lines[3:]))
        cfg = micro_cfg(tmp_path)
        cfg.data.kind = "dir"
        cfg.data.path = str(tmp_path / "data")
        cfg_path = cfgmod.save_config(cfg, str(tmp_path / "dir.cfg"))
        assert cli.main(["pretrain", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s line 3: Expecting" % manifest), err


class TestCheckpointHeaders:
    def test_each_stage_writes_its_header_keys_in_order(self, pipeline, tmp_path):
        usl = micro_cfg(tmp_path, "usl", init_checkpoint=pipeline["pre"]["checkpoint"])
        paths = {"pretrain": pipeline["pre"]["checkpoint"],
                 "finetune": pipeline["ft"]["checkpoint"], "adapt": cli.run(usl)["checkpoint"]}
        want = {"pretrain": (["backbone", "crops"], ["stage", "step", "seed"]),
                "finetune": (["backbone", "crops", "fusion"], ["stage", "num_ids", "seed"]),
                "adapt": (["backbone", "fusion"], ["stage", "mode", "seed"])}
        for stage, path in paths.items():
            ckpt = load_checkpoint(path)
            assert (list(ckpt.config), list(ckpt.extra)) == want[stage], stage
            assert ckpt.extra["stage"] == stage


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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exits_1_before_writing(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"seed = 1\n# caf\xff\n")
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: " % path), err
        if kind == "not-utf8":
            assert "can't decode byte 0xff" in err, err
        assert not out.exists()

    def test_negative_seed_flag_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: seed must be >= 0, got -1")
        assert not out.exists()

    def test_exit_code_runtime_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mode = eval\neval.embeddings = /nonexistent/path.jsonl\n"
                            "out_dir = %s\n" % (tmp_path / "out"))
        assert cli.main(["--config", str(cfg_file)]) == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["runs#b", "runs\nb", "runs "])
    def test_unwritable_string_exits_1_before_writing(self, tmp_path, capsys, name):
        # resolved.cfg would read each back as "runs"
        out = tmp_path / name
        assert cli.main(["pretrain", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir") and repr(str(out)) in err, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_worker_count_exits_1_before_writing(self, tmp_path, capsys, monkeypatch,
                                                     workers):
        monkeypatch.setenv("PARTSSL_WORKERS", workers)
        assert cli.main(["finetune", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: PARTSSL_WORKERS must be a positive integer, "
                              "got %r" % workers), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode,flag,key", [
        ("finetune", "--resume", "resume"), ("uda", "--resume", "resume"),
        ("eval", "--resume", "resume"), ("pretrain", "--init", "init_checkpoint"),
        ("eval", "--init", "init_checkpoint"), ("ablate", "--init", "init_checkpoint")])
    def test_input_the_mode_never_reads_exits_1_before_writing(self, tmp_path, capsys,
                                                               mode, flag, key):
        cfg_path = cfgmod.save_config(micro_cfg(tmp_path, mode), str(tmp_path / "run.cfg"))
        out = tmp_path / "out"
        assert cli.main([mode, "--config", cfg_path, "--out", str(out),
                         flag, str(tmp_path / "missing.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s is read only by mode" % key), err
        assert err.rstrip().endswith("not by mode %s" % mode), err
        assert not out.exists()

    def test_init_checkpoint_in_a_config_without_a_mode_line(self, pipeline, tmp_path):
        # the config is validated before the command line sets its mode, so
        # the unread-input check belongs to the run, not to the config
        cfg = micro_cfg(tmp_path, "finetune", init_checkpoint=pipeline["pre"]["checkpoint"])
        text = cfgmod.to_text(cfg).replace("mode = finetune\n", "")
        assert not any(line.startswith("mode ") for line in text.splitlines())
        (tmp_path / "ft.cfg").write_text(text)
        assert cli.main(["finetune", "--config", str(tmp_path / "ft.cfg")]) == 0

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

    def test_every_row_directory_is_a_run_directory(self, tmp_path):
        cfg = micro_cfg(tmp_path, "ablate")
        cfg.ablation.axis = "fusion"
        cli.run(cfg)
        for row, mode in (("pretrain", "pretrain"), ("fusion_concat_all", "finetune"),
                          ("fusion_mean_all", "finetune"),
                          ("fusion_concat_cls_meanpart", "finetune")):
            row_dir = os.path.join(cfg.out_dir, row)
            with open(os.path.join(row_dir, "summary.json")) as fh:
                assert json.load(fh)["mode"] == mode, row
            assert cfgmod.load_config(os.path.join(row_dir, "resolved.cfg")).mode == mode

    def test_unknown_axis_exits_1_before_writing(self, tmp_path, capsys):
        cfg_file = tmp_path / "ablate.cfg"
        cfg_file.write_text("ablation.axis = bogus\n")
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert "ablation.axis" in capsys.readouterr().err
        assert not out.exists()

    def test_areas_axis_one_row_per_l(self, tmp_path):
        cfg = micro_cfg(tmp_path, "ablate")
        cfg.ablation.axis = "areas"
        res = cli.run(cfg)
        assert [r[0] for r in res["rows"]] == [2, 3, 4, 5]
        assert [r[1] for r in res["rows"]] == [5, 3, 3, 2]  # ceil(9/L)
