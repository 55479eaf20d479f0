"""Self-distillation pre-training: sharpened/centered probability matching
between a gradient-trained student and a momentum-averaged teacher.

Matching structure per image: every local view's part output is matched to
the teacher's same-part output on every global view, and global views
cross-match each other on the same token. [CLS] additionally matches every
local view to every global teacher view. Different part tokens are never
compared with each other; ``loss_terms`` enumerates the exact pairings and
is the audit trail for that claim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import vit
from .multicrop import build_view_set
from .optim import AdamW, clip_grad_norm, cosine_ramp, warmup_cosine_lr
from .tensor import Tensor


class DistillError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class Temperatures:
    tau_s: float = 0.1
    tau_t: float = 0.04
    tau_t_warmup_start: float = 0.04
    tau_warmup_frac: float = 0.1

    def __post_init__(self):
        if self.tau_s <= 0 or self.tau_t <= 0:
            raise DistillError("temperatures must be positive")
        if self.tau_t > self.tau_s:
            raise DistillError("teacher temperature must not exceed student temperature")

    def teacher_at(self, step, total_steps):
        warm = int(self.tau_warmup_frac * total_steps)
        if warm <= 0 or step >= warm:
            return self.tau_t
        t = step / warm
        return self.tau_t_warmup_start + t * (self.tau_t - self.tau_t_warmup_start)


@dataclass
class EmaSchedule:
    start: float = 0.996
    end: float = 1.0
    total_steps: int = 1000

    def value(self, step):
        return cosine_ramp(step, self.total_steps, self.start, self.end)


class CenterState:
    """Per-head-role running means of teacher logits (collapse guard)."""

    def __init__(self, dim, roles, momentum=0.9):
        self.momentum = momentum
        self.centers = {r: np.zeros(dim) for r in roles}

    def update(self, role, teacher_logits):
        logits = np.asarray(teacher_logits, dtype=np.float64).reshape(-1, self.centers[role].shape[0])
        if logits.shape[0] == 0:
            raise DistillError("CenterState.update: empty batch")
        m = self.momentum
        self.centers[role] = m * self.centers[role] + (1.0 - m) * logits.mean(axis=0)

    def get(self, role):
        return self.centers[role]

    def state(self):
        return {r: c.copy() for r, c in self.centers.items()}

    def load(self, state):
        for r in self.centers:
            self.centers[r] = np.asarray(state[r], dtype=np.float64).copy()


def sharpen(logits, tau, center=None):
    """Temperature softmax over the last axis, with optional centering."""
    if tau <= 0:
        raise DistillError("sharpen: tau must be positive")
    x = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DistillError("sharpen: non-finite logits")
    if center is not None:
        x = x - np.asarray(center, dtype=np.float64)
    x = x / tau
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def distribution_entropy(probs):
    p = np.asarray(probs, dtype=np.float64)
    return float(-(p * np.log(np.clip(p, 1e-300, None))).sum(axis=-1).mean())


# ---------------------------------------------------------------------------
# loss structure


@dataclass(frozen=True)
class LossTerm:
    token: object        # "cls" or 1-based part index
    teacher_view: int    # global view index
    student_view: tuple  # ("global", m) or ("local", area, j)


def loss_terms(num_globals, num_areas, views_per_area):
    """Every cross-entropy pairing in the objective, enumerated explicitly."""
    terms = []
    for i in range(1, num_areas + 1):
        for m in range(num_globals):
            for j in range(views_per_area):
                terms.append(LossTerm(i, m, ("local", i, j)))
        for m1 in range(num_globals):
            for m2 in range(num_globals):
                if m1 != m2:
                    terms.append(LossTerm(i, m1, ("global", m2)))
    for m in range(num_globals):
        for i in range(1, num_areas + 1):
            for j in range(views_per_area):
                terms.append(LossTerm("cls", m, ("local", i, j)))
    for m1 in range(num_globals):
        for m2 in range(num_globals):
            if m1 != m2:
                terms.append(LossTerm("cls", m1, ("global", m2)))
    return terms


def part_term_count(num_globals, views_per_area):
    return num_globals * views_per_area + num_globals * (num_globals - 1)


def cls_term_count(num_globals, num_areas, views_per_area):
    return num_globals * num_areas * views_per_area + num_globals * (num_globals - 1)


@dataclass
class DistillOutputs:
    """Distributions for a batch of view sets (leading batch axis).

    Teacher arrays hold probabilities (already centered and sharpened,
    gradient-free). Student tensors hold log-probabilities on the tape.
    Local views are ordered area-major: axis layouts are
    t_cls (B,M,K), t_part (B,L,M,K), s_cls_g (B,M,K), s_cls_l (B,L,J,K),
    s_part_g (B,L,M,K), s_part_l (B,L,J,K).
    """

    t_cls: np.ndarray
    t_part: np.ndarray
    s_cls_g: Tensor
    s_cls_l: Tensor
    s_part_g: Tensor
    s_part_l: Tensor

    @property
    def dims(self):
        b, l, m, _ = self.t_part.shape
        j = self.s_cls_l.shape[2]
        return b, m, l, j


def _pair_sum(teacher, student_log):
    """Sum over all (m, n) of H(teacher[..., m, :], student[..., n, :])."""
    t = Tensor(np.expand_dims(teacher, -2))               # (..., M, 1, K)
    s_shape = student_log.shape
    s = T.reshape(student_log, s_shape[:-2] + (1,) + s_shape[-2:])  # (..., 1, N, K)
    return -T.sum_(t * s)


def _matched_sum(teacher, student_log):
    """Sum over m of H(teacher[..., m, :], student[..., m, :])."""
    return -T.sum_(Tensor(teacher) * student_log)


def part_loss(outputs, part_index, normalize=True):
    """Distillation loss for one part token (1-based index).

    Local-to-global matching plus cross-global matching, averaged over the
    view-set batch; ``normalize`` divides by the per-image term count.
    """
    b, m, l, j = outputs.dims
    if not 1 <= part_index <= l:
        raise DistillError("part index %d outside 1..%d" % (part_index, l))
    i = part_index - 1
    t = outputs.t_part[:, i]        # (B, M, K)
    s_loc = outputs.s_part_l[:, i]  # (B, J, K)
    s_glob = outputs.s_part_g[:, i]  # (B, M, K)
    loss = _pair_sum(t, s_loc) + (_pair_sum(t, s_glob) - _matched_sum(t, s_glob))
    if normalize:
        loss = loss * (1.0 / (b * part_term_count(m, j)))
    else:
        loss = loss * (1.0 / b)
    return loss


def cls_loss(outputs, normalize=True):
    """[CLS] distillation: every local view and cross-global pairs."""
    b, m, l, j = outputs.dims
    t = outputs.t_cls                                        # (B, M, K)
    k = outputs.s_cls_l.shape[-1]
    s_loc = T.reshape(outputs.s_cls_l, (b, l * j, k))        # (B, L*J, K)
    s_glob = outputs.s_cls_g                                 # (B, M, K)
    loss = _pair_sum(t, s_loc) + (_pair_sum(t, s_glob) - _matched_sum(t, s_glob))
    if normalize:
        loss = loss * (1.0 / (b * cls_term_count(m, l, j)))
    else:
        loss = loss * (1.0 / b)
    return loss


def total_loss(outputs, raw_sums=False):
    """Combined objective and its per-component breakdown.

    Default mode normalizes each component by its term count and weights the
    part losses by 1/L so [CLS] and part signals have comparable magnitude;
    ``raw_sums`` restores the literal unnormalized summation.
    """
    _, _, l, _ = outputs.dims
    normalize = not raw_sums
    cls_term = cls_loss(outputs, normalize=normalize)
    parts = [part_loss(outputs, i, normalize=normalize) for i in range(1, l + 1)]
    total = cls_term
    for p in parts:
        total = total + p * _part_scale(l, raw_sums)
    breakdown = {"cls": cls_term.item(), "parts": [p.item() for p in parts]}
    return total, breakdown


def _part_scale(num_parts, raw_sums):
    return 1.0 if raw_sums else 1.0 / num_parts


def excess_loss(outputs, breakdown, raw_sums=False):
    """``total_loss`` with every term's H(teacher, student) replaced by
    KL(teacher || student): the matching error net of target sharpness.

    Each teacher view enters every component equally often, so a component's
    teacher-entropy share is its term count (1 when normalized) times the
    mean entropy of that token's teacher distributions.
    """
    _, m, l, j = outputs.dims
    n_cls = cls_term_count(m, l, j) if raw_sums else 1
    n_part = part_term_count(m, j) if raw_sums else 1
    scale = _part_scale(l, raw_sums)
    excess = breakdown["cls"] - n_cls * distribution_entropy(outputs.t_cls)
    for i, p in enumerate(breakdown["parts"]):
        excess += scale * (p - n_part * distribution_entropy(outputs.t_part[:, i]))
    return excess


def ema_update(student, teacher, lam):
    """theta_t <- lam * theta_t + (1 - lam) * theta_s, every parameter."""
    if not 0.0 <= lam <= 1.0:
        raise DistillError("ema lambda %.4f outside [0, 1]" % lam)
    s_names, t_names = student.names(), teacher.names()
    if s_names != t_names:
        raise T.ShapeError("ema_update: parameter sets differ")
    for name in s_names:
        s, t = student[name], teacher[name]
        if s.shape != t.shape:
            raise T.ShapeError("ema_update: %s shapes differ %s vs %s" % (name, s.shape, t.shape))
        t.data = lam * t.data + (1.0 - lam) * s.data
    return teacher


# ---------------------------------------------------------------------------
# training loop


@dataclass
class PretrainConfig:
    steps: int = 2000
    batch_size: int = 6
    lr: float = 1e-3
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    clip_grad: float = 3.0
    center_momentum: float = 0.9
    centering: bool = True
    ema_start: float = 0.996
    ema_end: float = 1.0
    raw_sums: bool = False
    temperatures: Temperatures = field(default_factory=Temperatures)


def center_roles(cfg):
    # one center per part token although the head is shared: a constant
    # per-part output offset would survive a single shared center,
    # which reopens the collapse door that centering exists to close
    return ["cls"] + ["part%d" % i for i in range(1, cfg.num_parts + 1)]


class Pretrainer:
    """Owns both networks, the optimizer, schedules and centering state."""

    def __init__(self, backbone_cfg, crop_cfg, pre_cfg, images, seed, log_path=None):
        if backbone_cfg.num_parts != crop_cfg.num_areas:
            raise DistillError("backbone has %d part tokens but sampler has %d areas"
                               % (backbone_cfg.num_parts, crop_cfg.num_areas))
        self.cfg = backbone_cfg
        self.crop_cfg = crop_cfg
        self.pre_cfg = pre_cfg
        self.images = images
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD15711]))
        self.student = vit.NetworkParams.init(backbone_cfg, rng, requires_grad=True)
        self.teacher = self.student.clone(requires_grad=False)
        self.optimizer = AdamW(self.student.items(), lr=pre_cfg.lr,
                               weight_decay=pre_cfg.weight_decay)
        self.center = CenterState(backbone_cfg.proj_dim, center_roles(backbone_cfg),
                                  momentum=pre_cfg.center_momentum)
        self.ema = EmaSchedule(pre_cfg.ema_start, pre_cfg.ema_end, pre_cfg.steps)
        self.step_count = 0
        self.order_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0BDE8]))
        self._order = []
        self.log_path = log_path
        self.log = []

    # -- data -------------------------------------------------------------

    def _next_batch_indices(self):
        out = []
        while len(out) < self.pre_cfg.batch_size:
            if not self._order:
                self._order = list(self.order_rng.permutation(len(self.images)))
            out.append(self._order.pop())
        return out

    def _view_seed(self, image_index):
        return np.random.SeedSequence([self.seed, self.step_count, int(image_index)])

    def build_batch(self, indices):
        """Stack all views: globals image-major, locals area-major."""
        viewsets = [build_view_set(self.images[i], self.crop_cfg, self._view_seed(i))
                    for i in indices]
        glob_views = [v for vs in viewsets for v in vs.globals]
        loc_views, loc_part = [], []
        L = self.crop_cfg.num_areas
        j = self.crop_cfg.resolve_j()
        for area in range(1, L + 1):
            for vs in viewsets:
                for v in vs.locals:
                    if v.area_index == area:
                        loc_views.append(v)
                        loc_part.append(area)
        globs = np.stack([v.image for v in glob_views])
        locs = np.stack([v.image for v in loc_views])
        if self.crop_cfg.pos_mode == "crop":
            batch_rects = (
                [v.plan.rect_frac for v in glob_views],
                [v.plan.flip for v in glob_views],
                [v.plan.rect_frac for v in loc_views],
                [v.plan.flip for v in loc_views],
            )
        else:
            batch_rects = (None, None, None, None)
        return globs, locs, np.asarray(loc_part), len(viewsets), j, batch_rects

    # -- forward ----------------------------------------------------------

    def _project_specials(self, params, cls_out, part_out, b, m):
        """Head logits for global views: cls (B*M, K), parts (L, B*M, K)."""
        L = self.cfg.num_parts
        cls_logits = vit.project(cls_out, params, "head_cls")
        flat = T.reshape(T.transpose(part_out, (1, 0, 2)), (L * b * m, -1))
        part_logits = T.reshape(vit.project(flat, params, "head_part"), (L, b * m, -1))
        return cls_logits, part_logits

    def _student_forward(self, globs, locs, loc_part, b, j, rects):
        cfg = self.cfg
        L = cfg.num_parts
        m = self.crop_cfg.num_globals
        tau_s = self.pre_cfg.temperatures.tau_s
        g_rects, g_flips, l_rects, l_flips = rects
        # globals
        cls_out, part_out = vit.forward_tokens(globs, vit.all_parts(len(globs), L),
                                               self.student, rects=g_rects, mirrors=g_flips)
        cls_logits, part_logits = self._project_specials(self.student, cls_out, part_out, b, m)
        s_cls_g = T.reshape(T.log_softmax(cls_logits * (1.0 / tau_s)), (b, m, -1))
        s_part_g = T.transpose(T.reshape(T.log_softmax(part_logits * (1.0 / tau_s)),
                                         (L, b, m, -1)), (1, 0, 2, 3))
        # locals, area-major so each area's chunk is contiguous
        cls_out, part_out = vit.forward_tokens(locs, loc_part[:, None], self.student,
                                               rects=l_rects, mirrors=l_flips)
        cls_l = vit.project(cls_out, self.student, "head_cls")
        s_cls_l = T.transpose(T.reshape(T.log_softmax(cls_l * (1.0 / tau_s)), (L, b, j, -1)),
                              (1, 0, 2, 3))
        part_l = vit.project(T.reshape(part_out, (len(locs), -1)), self.student, "head_part")
        s_part_l = T.transpose(T.reshape(T.log_softmax(part_l * (1.0 / tau_s)), (L, b, j, -1)),
                               (1, 0, 2, 3))
        return s_cls_g, s_cls_l, s_part_g, s_part_l

    def _teacher_forward(self, globs, b, tau_t, rects):
        cfg = self.cfg
        L = cfg.num_parts
        m = self.crop_cfg.num_globals
        g_rects, g_flips = rects
        with T.no_grad():
            cls_out, part_out = vit.forward_tokens(globs, vit.all_parts(len(globs), L),
                                                   self.teacher, rects=g_rects, mirrors=g_flips)
            cls_logits, part_logits = self._project_specials(self.teacher, cls_out, part_out, b, m)
        cls_np = cls_logits.data
        part_np = part_logits.data  # (L, B*M, K)
        centering = self.pre_cfg.centering
        c_cls = self.center.get("cls") if centering else None
        t_cls = sharpen(cls_np, tau_t, c_cls).reshape(b, m, -1)
        t_part = np.empty((b, L, m, cls_np.shape[-1]))
        for i in range(L):
            c = self.center.get("part%d" % (i + 1)) if centering else None
            t_part[:, i] = sharpen(part_np[i], tau_t, c).reshape(b, m, -1)
        return t_cls, t_part, cls_np, part_np

    # -- one optimization step ---------------------------------------------

    def pretrain_step(self, indices=None):
        pc = self.pre_cfg
        step = self.step_count
        if indices is None:
            indices = self._next_batch_indices()
        globs, locs, loc_part, b, j, rects = self.build_batch(indices)
        m = self.crop_cfg.num_globals
        tau_t = pc.temperatures.teacher_at(step, pc.steps)

        t_cls, t_part, cls_logits_np, part_logits_np = self._teacher_forward(
            globs, b, tau_t, rects[:2])
        s_cls_g, s_cls_l, s_part_g, s_part_l = self._student_forward(
            globs, locs, loc_part, b, j, rects)
        outputs = DistillOutputs(t_cls=t_cls, t_part=t_part, s_cls_g=s_cls_g,
                                 s_cls_l=s_cls_l, s_part_g=s_part_g, s_part_l=s_part_l)
        loss, breakdown = total_loss(outputs, raw_sums=pc.raw_sums)

        lam = self.ema.value(step)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise TrainingDiverged(
                "non-finite loss at step %d (lambda=%.6f tau_t=%.4f center_norm=%.4f)"
                % (step, lam, tau_t, np.linalg.norm(self.center.get("cls"))))

        try:
            loss.backward(params=self.student.tensors())
            grad_norm = clip_grad_norm(self.student.tensors(), pc.clip_grad)
            self.optimizer.lr = warmup_cosine_lr(
                step, pc.steps, pc.lr, int(pc.warmup_frac * pc.steps), pc.lr * 0.01)
            self.optimizer.step()
            self.optimizer.zero_grad()
        finally:
            T.clear_tape()

        ema_update(self.student, self.teacher, lam)

        self.center.update("cls", cls_logits_np)
        for i in range(self.cfg.num_parts):
            self.center.update("part%d" % (i + 1), part_logits_np[i])

        t_cls_ent = distribution_entropy(t_cls)
        t_part_ent = distribution_entropy(t_part)
        record = {
            "step": step,
            "loss": loss_val,
            "cls_loss": breakdown["cls"],
            "part_losses": breakdown["parts"],
            "lambda": lam,
            "tau_t": tau_t,
            "lr": self.optimizer.lr,
            # global gradient norm before clipping: a dead phase (tiny norms)
            # or a clipping regime (norms above clip_grad) shows in the log
            "grad_norm": grad_norm,
            "teacher_entropy": t_cls_ent,
            "teacher_part_entropy": t_part_ent,
            "excess_loss": excess_loss(outputs, breakdown, raw_sums=pc.raw_sums),
            "teacher_views": int(globs.shape[0]),
            "student_views": int(globs.shape[0] + locs.shape[0]),
        }
        self.log.append(record)
        if self.log_path:
            with open(self.log_path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        self.step_count += 1
        return record

    def run(self, steps=None):
        steps = self.pre_cfg.steps if steps is None else steps
        while self.step_count < steps:
            self.pretrain_step()
        return self.log
