import dataclasses
import re

import pytest

from partssl import cli
from partssl import config as cfgmod
from partssl import synthetic as sd
from partssl.config import ConfigError, RunConfig


class TestRoundTrip:
    def test_default_round_trips_identically(self):
        cfg = RunConfig().validate()
        text = cfgmod.to_text(cfg)
        back = cfgmod.parse_text(text)
        assert back == cfg

    def test_modified_round_trip(self):
        cfg = RunConfig()
        cfg.mode = "finetune"
        cfg.seed = 99
        cfg.backbone.embed_dim = 32
        cfg.backbone.num_parts = 2
        cfg.crops.num_areas = 2
        cfg.crops.global_scale = (0.5, 0.9)
        cfg.distill.tau_t = 0.05
        cfg.distill.centering = False
        cfg.finetune.fusion = "mean_all"
        cfg.validate()
        back = cfgmod.parse_text(cfgmod.to_text(cfg))
        assert back == cfg
        assert back.distill.tau_t == 0.05
        assert back.crops.global_scale == (0.5, 0.9)

    def test_every_emitted_key_parses(self):
        text = cfgmod.to_text(RunConfig())
        keys = [l.split("=")[0].strip() for l in text.splitlines()
                if "=" in l and not l.startswith("#")]
        assert len(keys) == len(set(keys))
        assert cfgmod.parse_text(text) == RunConfig().validate()


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cfgmod.parse_text("backbone.embed_dims = 64")

    def test_field_level_message(self):
        with pytest.raises(ConfigError, match="distill.lr"):
            cfgmod.parse_text("distill.lr = fast")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            cfgmod.parse_text("mode = train")

    def test_area_part_mismatch(self):
        with pytest.raises(ConfigError, match="num_areas"):
            cfgmod.parse_text("crops.num_areas = 2")

    def test_j_is_derived_not_user_set(self):
        # left at 0, J is derived from L and is written back as 0, not as
        # the derived value, so a changed L re-derives it after a round trip
        cfg = cfgmod.parse_text("crops.views_per_area = 0")
        assert cfg.crops.resolve_j() == 3  # ceil(9/3)
        again = cfgmod.parse_text(cfgmod.to_text(cfg))
        assert again == cfg and again.crops.views_per_area == 0

    def test_j_set_directly(self):
        cfg = cfgmod.parse_text("crops.views_per_area = 7")
        assert cfg.crops.resolve_j() == 7
        # and it still round-trips
        assert cfgmod.parse_text(cfgmod.to_text(cfg)) == cfg

    def test_derived_j_default(self):
        cfg = RunConfig().validate()
        assert cfg.crops.resolve_j() == 3  # ceil(9/3)
        cfg2 = cfgmod.parse_text("backbone.num_parts = 2\ncrops.num_areas = 2")
        assert cfg2.crops.resolve_j() == 5

    def test_temperature_invariant_enforced(self):
        with pytest.raises(ValueError):
            cfgmod.parse_text("distill.tau_t = 0.5")  # above tau_s

    def test_tuple_arity(self):
        with pytest.raises(ConfigError, match="global_scale"):
            cfgmod.parse_text("crops.global_scale = 0.4")

    def test_comments_and_blank_lines_ignored(self):
        cfg = cfgmod.parse_text("\n# a comment\nseed = 5   # trailing\n\n")
        assert cfg.seed == 5

    def test_garbled_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            cfgmod.parse_text("seed 5")

    @pytest.mark.parametrize("line", ["cluster.fusion = mean", "crops.pos_mode = crops"])
    def test_option_typo_rejected_at_load(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            cfgmod.parse_text(line)
        path = tmp_path / "typo.cfg"
        path.write_text(line + "\n")
        assert cli.main(["usl", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["crops.local_size = 22, 12",
                                      "crops.global_size = 64, 30",
                                      "data.num_identities = 80",
                                      "eval.max_rank = 0",
                                      "finetune.ids_per_batch = 1",
                                      "finetune.samples_per_id = 1",
                                      "visualize.layer = 4",  # backbone.depth is 4
                                      "backbone.heads = 0", "backbone.patch_size = 0",
                                      "distill.batch_size = 0", "crops.num_globals = 0",
                                      "cluster.epochs = 0", "cluster.ids_per_batch = 0",
                                      "cluster.samples_per_id = 0", "data.num_identities = 0",
                                      "data.train_images_per_identity = 0", "data.cameras = 0",
                                      "backbone.num_parts = 6\ncrops.num_areas = 6",
                                      "distill.ema_start = 1.5", "distill.ema_end = -0.1",
                                      "crops.views_per_area = -1",
                                      "cluster.eps = -1", "cluster.eps = nan",
                                      "cluster.min_points = 0",
                                      "distill.lr = -0.001", "finetune.lr = -0.01",
                                      "cluster.lr = -1", "distill.clip_grad = -1",
                                      "distill.center_momentum = 1.5", "crops.flip_p = 2",
                                      "crops.brightness = 2", "crops.contrast = -0.5",
                                      "distill.steps = -3", "finetune.steps = -2",
                                      "cluster.steps_per_epoch = -1",
                                      "data.test_images_per_identity = -1",
                                      "backbone.image_h = 0", "backbone.embed_dim = 0",
                                      "crops.local_size = 0, 0", "crops.global_size = -4, 8",
                                      "backbone.depth = -1",
                                      "distill.tau_t = 0.5", "distill.tau_t = 0",
                                      "distill.tau_s = -0.1",
                                      "seed = -3", "data.seed = -1",
                                      "data.band_jitter = nan", "data.band_jitter = inf",
                                      "data.band_jitter = -0.1",
                                      "crops.global_scale = -0.1, 1.0",
                                      "crops.global_scale = nan, 1.0",
                                      "crops.global_scale = 0.9, 0.5",
                                      "crops.local_scale = 2.0, 3.0",
                                      "crops.local_scale = 0.3, 0.1"])
    def test_unusable_value_rejected_at_load(self, line, tmp_path, capsys):
        key = line.splitlines()[-1].split(" = ")[0]
        with pytest.raises(ConfigError, match="^" + re.escape(key)):  # the error names it first
            cfgmod.parse_text(line)
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: " + key)
        assert not (tmp_path / "out").exists()

    def test_many_identities_allowed_from_a_directory(self):
        cfg = cfgmod.parse_text("data.kind = dir\ndata.num_identities = 80")
        assert cfg.data.num_identities == 80

    def test_directory_without_manifest_rejected(self, tmp_path, capsys):
        empty = tmp_path / "no_dataset"
        empty.mkdir()
        with pytest.raises(ConfigError, match="manifest.jsonl"):
            sd.load_dataset(str(empty))
        path = tmp_path / "dir.cfg"
        path.write_text("data.kind = dir\ndata.path = %s\n" % empty)
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "manifest.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["backbone.separate_part_heads = false",
                                      "distill.ema_per_epoch = false", "distill.epoch_len = 0",
                                      "cluster.kmeans_k = 0", "crops.grayscale_p = 0.0",
                                      "distill.part_weight = 1.0",
                                      "cluster.optimizer = sgd", "cluster.momentum = 0.9",
                                      "cluster.lr_decay_every = 20", "cluster.lr_decay = 0.1",
                                      "data.test_fraction = 0.33", "backbone.mlp_ratio = 4",
                                      "backbone.token_init = 1.0",
                                      "crops.aspect_jitter = 0.75, 1.3333333333333333",
                                      "distill.final_lr_frac = 0.01",
                                      "cluster.proto_momentum = 0.2", "eval.report_top_k = 5",
                                      "eval.report_queries = 4", "distill.raw_sums = false",
                                      "distill.warmup_frac = 0.1",
                                      "distill.weight_decay = 0.01",
                                      "finetune.warmup_frac = 0.1",
                                      "finetune.weight_decay = 0.01",
                                      "finetune.clip_grad = 5.0", "cluster.clip_grad = 5.0",
                                      "finetune.margin = 0.3", "finetune.flip_p = 0.5",
                                      "cluster.temperature = 0.05", "data.noise = 0.03",
                                      "data.occlusion_p = 0.0",
                                      "distill.tau_t_warmup_start = 0.04",
                                      "distill.tau_warmup_frac = 0.1",
                                      "allow_j_override = false"])
    def test_removed_key_is_unknown(self, line):
        with pytest.raises(ConfigError, match="unknown config key"):
            cfgmod.parse_text(line)

    def test_every_comment_names_a_live_key(self):
        live = {key for key, _obj, _name, _value in cfgmod._iter_keys(RunConfig())}
        assert set(cfgmod._COMMENTS) <= live
