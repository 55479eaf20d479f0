import dataclasses

import pytest

from partssl import cli
from partssl import config as cfgmod
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
        cfg.distill.temperatures.tau_t = 0.05
        cfg.distill.raw_sums = True
        cfg.finetune.fusion = "mean_all"
        cfg.validate()
        back = cfgmod.parse_text(cfgmod.to_text(cfg))
        assert back == cfg
        assert back.distill.temperatures.tau_t == 0.05
        assert back.crops.global_scale == (0.5, 0.9)

    def test_every_emitted_key_parses(self):
        text = cfgmod.default_text()
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
        with pytest.raises(ConfigError, match="views_per_area"):
            cfgmod.parse_text("crops.views_per_area = 7")

    def test_j_override_flag_allows_it(self):
        cfg = cfgmod.parse_text("allow_j_override = true\ncrops.views_per_area = 7")
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

    @pytest.mark.parametrize("line", ["cluster.optimizer = sdg", "cluster.fusion = mean",
                                      "crops.pos_mode = crops"])
    def test_option_typo_rejected_at_load(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            cfgmod.parse_text(line)
        path = tmp_path / "typo.cfg"
        path.write_text(line + "\n")
        assert cli.main(["usl", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["backbone.separate_part_heads = false",
                                      "distill.ema_per_epoch = false", "distill.epoch_len = 0",
                                      "cluster.kmeans_k = 0"])
    def test_removed_key_is_unknown(self, line):
        with pytest.raises(ConfigError, match="unknown config key"):
            cfgmod.parse_text(line)
