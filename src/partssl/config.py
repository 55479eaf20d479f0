"""Run configuration: a flat ``section.key = value`` text format with full
defaults, typed parsing, and exact round-tripping of resolved configs.

The local-view count J is derived from the area count L as ceil(9/L) when
``crops.views_per_area`` is 0, or set directly; a resolved config re-parses
to an identical run either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from .cluster import ClusterConfig
from .distill import PretrainConfig
from .finetune import FUSION_STRATEGIES, FinetuneConfig
from .multicrop import POS_MODES, MulticropConfig
from .synthetic import COLORS_PER_BAND
from .vit import BackboneConfig, ConfigError


@dataclass
class DataConfig:
    kind: str = "synthetic"           # synthetic | dir
    path: str = ""
    num_identities: int = 20
    train_images_per_identity: int = 8
    test_images_per_identity: int = 4  # the last ones of each identity, either kind
    cameras: int = 4
    band_jitter: float = 0.12
    seed: int = 11


@dataclass
class EvalConfig:
    embeddings: str = ""
    max_rank: int = 10


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
        values = {key: value for key, _obj, _name, value in _iter_keys(self)}
        for key, value in values.items():
            # resolved.cfg must read back as this run: '#' would start a
            # comment there, a line break end the line, and edge spaces be cut
            if isinstance(value, str) and ("#" in value or len(value.splitlines()) > 1
                                           or value != value.strip()):
                raise ConfigError("%s: %r cannot be written to a config file ('#', a line "
                                  "break or edge whitespace)" % (key, value))
        for key, low, high in _BOUNDS:
            value = values[key]
            if not all(low <= v <= high for v in (value if isinstance(value, tuple) else [value])):
                span = ">= %s" % low if high == math.inf else "in %s .. %s" % (low, high)
                raise ConfigError("%s must be %s, got %s" % (key, span, _format_value(value)))
        if self.crops.num_areas != self.backbone.num_parts:
            raise ConfigError("crops.num_areas (%d) must equal backbone.num_parts (%d)"
                              % (self.crops.num_areas, self.backbone.num_parts))
        for key, value, choices in (("finetune.fusion", self.finetune.fusion, FUSION_STRATEGIES),
                                    ("cluster.fusion", self.cluster.fusion, FUSION_STRATEGIES),
                                    ("crops.pos_mode", self.crops.pos_mode, POS_MODES),
                                    ("ablation.axis", self.ablation.axis, ("areas", "fusion"))):
            if value not in choices:
                raise ConfigError("%s: expected one of %s, got %r"
                                  % (key, " | ".join(choices), value))
        for key in ("global_scale", "local_scale"):
            low, high = getattr(self.crops, key)
            if low > high:
                raise ConfigError("crops.%s: low end %s is above high end %s" % (key, low, high))
        p = self.backbone.patch_size
        for key in ("global_size", "local_size"):
            h, w = getattr(self.crops, key)
            if h % p or w % p or min(h, w) < p:
                raise ConfigError("crops.%s: %dx%d not a positive multiple of "
                                  "backbone.patch_size %d" % (key, h, w, p))
        if not -1 <= self.visualize.layer < self.backbone.depth:
            raise ConfigError("visualize.layer: expected -1 .. %d (backbone.depth - 1), got %d"
                              % (self.backbone.depth - 1, self.visualize.layer))
        if self.data.kind not in ("synthetic", "dir"):
            raise ConfigError("data.kind: expected synthetic or dir, got %r" % self.data.kind)
        if self.data.kind == "synthetic" and self.data.num_identities > COLORS_PER_BAND ** 3:
            raise ConfigError("data.num_identities: the synthetic palette pool encodes at most "
                              "%d identities, got %d"
                              % (COLORS_PER_BAND ** 3, self.data.num_identities))
        tau_s, tau_t = self.distill.tau_s, self.distill.tau_t
        if not tau_s > 0:
            raise ConfigError("distill.tau_s must be > 0, got %s" % tau_s)
        if not 0 < tau_t <= tau_s:  # the teacher is the sharper one
            raise ConfigError("distill.tau_t must be in (0, distill.tau_s = %s], got %s"
                              % (tau_s, tau_t))
        return self


# (key, lowest, highest) of the counts and ranges that a run can use
_BOUNDS = (
    ("seed", 0, math.inf), ("data.seed", 0, math.inf),  # numpy seeds are non-negative
    ("data.num_identities", 1, math.inf), ("data.train_images_per_identity", 1, math.inf),
    ("data.test_images_per_identity", 0, math.inf),
    ("data.cameras", 1, math.inf), ("backbone.embed_dim", 1, math.inf),
    ("backbone.depth", 0, math.inf), ("crops.num_globals", 1, math.inf),
    ("crops.num_areas", 1, 5), ("crops.views_per_area", 0, math.inf),
    # probabilities and jitter strengths (a factor 1 +- 1 reaches zero)
    ("crops.flip_p", 0.0, 1.0), ("crops.brightness", 0.0, 1.0),
    ("crops.contrast", 0.0, 1.0), ("data.band_jitter", 0.0, 1.0),
    # a tuple key's bounds hold for each end; the fractions of the image a crop covers
    ("crops.global_scale", 0.0, 1.0), ("crops.local_scale", 0.0, 1.0),
    ("distill.steps", 0, math.inf), ("distill.batch_size", 1, math.inf),
    ("distill.lr", 0.0, math.inf), ("distill.clip_grad", 0.0, math.inf),  # 0 = no clipping
    ("distill.center_momentum", 0.0, 1.0),
    ("distill.ema_start", 0.0, 1.0), ("distill.ema_end", 0.0, 1.0),
    ("finetune.steps", 0, math.inf), ("finetune.lr", 0.0, math.inf),
    # a triplet batch needs positives and negatives
    ("finetune.ids_per_batch", 2, math.inf), ("finetune.samples_per_id", 2, math.inf),
    ("cluster.epochs", 1, math.inf), ("cluster.steps_per_epoch", 0, math.inf),
    ("cluster.lr", 0.0, math.inf), ("cluster.ids_per_batch", 1, math.inf),
    ("cluster.samples_per_id", 1, math.inf), ("eval.max_rank", 1, math.inf),
    # a negative or NaN radius holds no pair, and min_points < 1 makes every
    # point core, an outlier included
    ("cluster.eps", 0.0, math.inf), ("cluster.min_points", 1, math.inf),
)

MODES = ("pretrain", "finetune", "uda", "usl", "eval", "visualize", "ablate")

# keys that deserve a word of context in emitted files
_COMMENTS = {
    "crops.num_globals": "global views per image (M)",
    "crops.num_areas": "overlapping local areas (L); part token count must match",
    "crops.views_per_area": "local views per area (J); 0 = derived as ceil(9/L)",
    "distill.ema_start": "teacher momentum schedule start; cosine to ema_end",
    "distill.tau_s": "student softmax temperature",
    "distill.tau_t": "teacher softmax temperature (sharper than student)",
    "finetune.lr": "0 = rule 0.0004 * batch / 64",
    "finetune.fusion": " | ".join(FUSION_STRATEGIES),
    "cluster.fusion": " | ".join(FUSION_STRATEGIES),
    "crops.pos_mode": " | ".join(POS_MODES),
    "cluster.eps": "density clustering neighborhood radius on unit-norm features",
    "backbone.num_parts": "learnable part tokens, one per local area",
}


def _iter_keys(obj, prefix=""):
    """Yield (flat_key, holder_object, attr_name, value) in emission order;
    a dataclass-valued field of RunConfig is a section."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _iter_keys(value, f.name + ".")
        else:
            yield prefix + f.name, obj, f.name, value


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


def from_mapping(mapping):
    """Build a validated RunConfig from flat key -> raw string values."""
    cfg = RunConfig()
    index = {key: (obj, name) for key, obj, name, _ in _iter_keys(cfg)}
    unknown = [k for k in mapping if k not in index]
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(sorted(unknown)))
    for key, raw in mapping.items():
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

