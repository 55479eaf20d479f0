"""Run configuration: a flat ``section.key = value`` text format with full
defaults, typed parsing, and exact round-tripping of resolved configs.

The local-view count J is always derived from the area count L unless the
explicit override flag is set; a resolved config therefore re-parses to an
identical run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from .cluster import OPTIMIZERS, ClusterConfig
from .distill import PretrainConfig, Temperatures
from .finetune import FUSION_STRATEGIES, FinetuneConfig
from .multicrop import POS_MODES, MulticropConfig
from .vit import BackboneConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    kind: str = "synthetic"           # synthetic | dir
    path: str = ""
    num_identities: int = 20
    train_images_per_identity: int = 8
    test_images_per_identity: int = 4
    cameras: int = 4
    noise: float = 0.03
    band_jitter: float = 0.12
    occlusion_p: float = 0.0
    test_fraction: float = 0.33       # used for kind=dir splits
    seed: int = 11


@dataclass
class EvalConfig:
    embeddings: str = ""
    max_rank: int = 10
    report_top_k: int = 5
    report_queries: int = 4


@dataclass
class VisualizeConfig:
    image_index: int = 0
    layer: int = -1                   # -1 = last encoder layer


@dataclass
class AblationConfig:
    axis: str = "areas"               # areas | fusion


@dataclass
class RunConfig:
    mode: str = "pretrain"
    seed: int = 0
    out_dir: str = "runs/out"
    resume: str = ""
    init_checkpoint: str = ""
    allow_j_override: bool = False
    data: DataConfig = field(default_factory=DataConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    crops: MulticropConfig = field(default_factory=MulticropConfig)
    distill: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    visualize: VisualizeConfig = field(default_factory=VisualizeConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError("mode: %r is not one of %s" % (self.mode, "/".join(MODES)))
        self.backbone.validate()
        if self.crops.num_areas != self.backbone.num_parts:
            raise ConfigError("crops.num_areas (%d) must equal backbone.num_parts (%d)"
                              % (self.crops.num_areas, self.backbone.num_parts))
        if self.crops.views_per_area and not self.allow_j_override:
            raise ConfigError(
                "crops.views_per_area is derived from the area count; "
                "set allow_j_override = true to force a value")
        for key, value, choices in (("finetune.fusion", self.finetune.fusion, FUSION_STRATEGIES),
                                    ("cluster.fusion", self.cluster.fusion, FUSION_STRATEGIES),
                                    ("cluster.optimizer", self.cluster.optimizer, OPTIMIZERS),
                                    ("crops.pos_mode", self.crops.pos_mode, POS_MODES)):
            if value not in choices:
                raise ConfigError("%s: expected one of %s, got %r"
                                  % (key, " | ".join(choices), value))
        if self.data.kind not in ("synthetic", "dir"):
            raise ConfigError("data.kind: expected synthetic or dir, got %r" % self.data.kind)
        t = self.distill.temperatures
        self.distill.temperatures = Temperatures(  # re-runs the invariant checks
            tau_s=t.tau_s, tau_t=t.tau_t, tau_t_warmup_start=t.tau_t_warmup_start,
            warmup_frac=t.warmup_frac)
        return self


MODES = ("pretrain", "finetune", "uda", "usl", "eval", "visualize", "ablate")

_SECTIONS = [
    ("", None),
    ("data", "data"),
    ("backbone", "backbone"),
    ("crops", "crops"),
    ("distill", "distill"),
    ("finetune", "finetune"),
    ("cluster", "cluster"),
    ("eval", "eval"),
    ("visualize", "visualize"),
    ("ablation", "ablation"),
]

# keys that deserve a word of context in emitted files
_COMMENTS = {
    "crops.num_globals": "global views per image (M)",
    "crops.num_areas": "overlapping local areas (L); part token count must match",
    "crops.views_per_area": "local views per area (J); 0 = derived as ceil(9/L)",
    "distill.ema_start": "teacher momentum schedule start; cosine to ema_end",
    "distill.tau_s": "student softmax temperature",
    "distill.tau_t": "teacher softmax temperature (sharper than student)",
    "distill.raw_sums": "true = literal summed objective, false = per-term normalized",
    "finetune.margin": "triplet loss margin",
    "finetune.lr": "0 = rule 0.0004 * batch / 64",
    "finetune.fusion": " | ".join(FUSION_STRATEGIES),
    "cluster.fusion": " | ".join(FUSION_STRATEGIES),
    "cluster.optimizer": " | ".join(OPTIMIZERS),
    "crops.pos_mode": " | ".join(POS_MODES),
    "cluster.eps": "density clustering neighborhood radius on unit-norm features",
    "backbone.num_parts": "learnable part tokens, one per local area",
}


def _top_level_fields(cfg):
    return [f for f in fields(cfg) if f.name not in
            {"data", "backbone", "crops", "distill", "finetune", "cluster",
             "eval", "visualize", "ablation"}]


def _section_obj(cfg, section):
    return cfg if section == "" else getattr(cfg, section)


def _iter_keys(cfg):
    """Yield (flat_key, holder_object, attr_name, value) in emission order."""
    for section, _ in _SECTIONS:
        obj = _section_obj(cfg, section)
        if section == "":
            flds = _top_level_fields(cfg)
        elif section == "distill":
            flds = [f for f in fields(obj) if f.name != "temperatures"]
        else:
            flds = list(fields(obj))
        for f in flds:
            key = f.name if section == "" else "%s.%s" % (section, f.name)
            yield key, obj, f.name, getattr(obj, f.name)
        if section == "distill":
            for f in fields(Temperatures):
                alias = {"tau_s": "tau_s", "tau_t": "tau_t",
                         "tau_t_warmup_start": "tau_t_warmup_start",
                         "warmup_frac": "tau_warmup_frac"}[f.name]
                yield "distill.%s" % alias, obj.temperatures, f.name, \
                    getattr(obj.temperatures, f.name)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ", ".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(raw, template, key):
    raw = raw.strip()
    try:
        if isinstance(template, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected true/false")
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        if isinstance(template, (tuple, list)):
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != len(template):
                raise ValueError("expected %d comma-separated values" % len(template))
            return tuple(_parse_value(p, t, key) for p, t in zip(parts, template))
        return raw
    except ValueError as exc:
        raise ConfigError("%s: cannot parse %r (%s)" % (key, raw, exc)) from None


def to_text(cfg):
    """Full resolved key-value listing, parseable back to an identical run."""
    lines = ["# resolved run configuration"]
    for key, _obj, _name, value in _iter_keys(cfg):
        comment = _COMMENTS.get(key)
        if key == "crops.views_per_area" and not value:
            comment = (_COMMENTS[key] + "; resolves to %d here" % cfg.crops.resolve_j())
        line = "%s = %s" % (key, _format_value(value))
        if comment:
            line += "    # " + comment
        lines.append(line)
    return "\n".join(lines) + "\n"


def default_text():
    return to_text(RunConfig())


def from_mapping(mapping):
    """Build a validated RunConfig from flat key -> raw string values."""
    cfg = RunConfig()
    index = {key: (obj, name) for key, obj, name, _ in _iter_keys(cfg)}
    unknown = [k for k in mapping if k not in index]
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(sorted(unknown)))
    # apply allow_j_override first so validation sees it
    ordered = sorted(mapping.items(), key=lambda kv: kv[0] != "allow_j_override")
    for key, raw in ordered:
        obj, name = index[key]
        template = getattr(obj, name)
        setattr(obj, name, _parse_value(raw, template, key))
    return cfg.validate()


def parse_text(text):
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, line))
        key, raw = body.split("=", 1)
        mapping[key.strip()] = raw.strip()
    return from_mapping(mapping)


def load_config(path):
    with open(path) as fh:
        return parse_text(fh.read())


def save_config(cfg, path):
    with open(path, "w") as fh:
        fh.write(to_text(cfg))
    return path


def backbone_dict(cfg):
    return dataclasses.asdict(cfg.backbone)


def crops_dict(cfg):
    return dataclasses.asdict(cfg.crops)
