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

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vit
from .multicrop import build_view_set
from .optim import AdamW, cosine_ramp, keep_record, warmup_cosine_lr
from .tensor import Tensor


class DistillError(ValueError):
    pass


class CenterState:
    """Running means of the teacher's logits, one row per token, row 0 for
    [CLS] (collapse guard). Each [PART] has its own row although the head is
    shared: a constant per-part offset would survive one shared center, which
    reopens the collapse door that centering exists to close."""

    def __init__(self, num_parts, dim, momentum=0.9):
        self.momentum = momentum
        self.centers = np.zeros((1 + num_parts, dim))
        self.names = ["cls"] + ["part%d" % i for i in range(1, num_parts + 1)]

    def update(self, teacher_logits):
        """One step's update from every view's stacked logits, (N, 1 + L, K)."""
        logits = np.asarray(teacher_logits, dtype=np.float64).reshape((-1,) + self.centers.shape)
        if logits.shape[0] == 0:
            raise DistillError("CenterState.update: empty batch")
        m = self.momentum
        self.centers = m * self.centers + (1.0 - m) * logits.mean(axis=0)

    def state(self):
        """Checkpoint tensors: one row each, named ``cls`` and ``part<i>``."""
        return {name: row.copy() for name, row in zip(self.names, self.centers)}

    def load_state(self, state):
        """The rows of a ``state()`` dict, each checked by name and shape."""
        for name in self.names:
            if name not in state:
                raise KeyError("missing center %r in state" % name)
            if np.shape(state[name]) != self.centers.shape[1:]:
                raise T.ShapeError("load_state: center %s expects %s, got %s"
                                   % (name, self.centers.shape[1:], np.shape(state[name])))
        self.centers = np.stack([np.asarray(state[n], dtype=np.float64) for n in self.names])


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
    Axis layouts are
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


def _pairings(t, s_loc, s_glob, axis):
    """Minus the sum of H(teacher, student) over every pairing, per index of
    the axes between the batch axis and ``axis``, the teacher's global-view
    axis; callers fold the sign into their normalising factor.

    Each teacher view is paired with every local view and with every global
    view but its own. H is linear in the student log-probabilities, so each
    student view is scored once, against the sum of its teacher views.
    """
    t_all = t.sum(axis=axis, keepdims=True)
    summed = (0,) + tuple(range(axis, t.ndim))
    return (T.sum_(Tensor(t_all) * s_loc, axis=summed)
            + T.sum_(Tensor(t_all - t) * s_glob, axis=summed))


def _part_losses(outputs, normalize=True):
    """All L part losses as one (L,) tensor, averaged over the view-set
    batch; ``normalize`` also divides by the per-image term count."""
    b, m, _, j = outputs.dims
    loss = _pairings(outputs.t_part, outputs.s_part_l, outputs.s_part_g, axis=2)
    return loss * (-1.0 / (b * (part_term_count(m, j) if normalize else 1)))


def cls_loss(outputs, normalize=True):
    """[CLS] distillation: every local view and cross-global pairs."""
    b, m, l, j = outputs.dims
    s_loc = T.reshape(outputs.s_cls_l, (b, l * j, outputs.t_cls.shape[-1]))
    loss = _pairings(outputs.t_cls, s_loc, outputs.s_cls_g, axis=1)
    return loss * (-1.0 / (b * (cls_term_count(m, l, j) if normalize else 1)))


def total_loss(outputs, raw_sums=False):
    """Combined objective and its per-component breakdown.

    Default mode normalizes each component by its term count and weights the
    part losses by 1/L so [CLS] and part signals have comparable magnitude;
    ``raw_sums`` gives the literal unnormalized summation.
    """
    l = outputs.dims[2]
    cls_term = cls_loss(outputs, normalize=not raw_sums)
    parts = _part_losses(outputs, normalize=not raw_sums)
    total = cls_term + T.sum_(parts) * (1.0 if raw_sums else 1.0 / l)
    breakdown = {"cls": cls_term.item(), "parts": parts.data.tolist()}
    return total, breakdown


def excess_loss(outputs, breakdown):
    """``total_loss`` with every term's H(teacher, student) replaced by
    KL(teacher || student): the matching error net of target sharpness.

    Each teacher view enters every component equally often, so a normalized
    component's teacher-entropy share is the mean entropy of that token's
    teacher distributions.
    """
    scale = 1.0 / outputs.dims[2]
    excess = breakdown["cls"] - distribution_entropy(outputs.t_cls)
    for i, p in enumerate(breakdown["parts"]):
        excess += scale * (p - distribution_entropy(outputs.t_part[:, i]))
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
        pull = s.data * (1.0 - lam)
        t.data *= lam
        t.data += pull
    return teacher


# ---------------------------------------------------------------------------
# training loop


@dataclass
class PretrainConfig:
    steps: int = 2000
    batch_size: int = 6
    lr: float = 1e-3
    clip_grad: float = 3.0
    center_momentum: float = 0.9
    centering: bool = True
    ema_start: float = 0.996
    ema_end: float = 1.0
    tau_s: float = 0.1
    tau_t: float = 0.04

    def teacher_tau(self, step):
        """tau_t after a linear warmup from 0.04 over the first 10% of steps."""
        warm = int(0.1 * self.steps)
        if warm <= 0 or step >= warm:
            return self.tau_t
        return 0.04 + step / warm * (self.tau_t - 0.04)

    def ema(self, step):
        """Teacher momentum: a cosine from ema_start at step 0 to ema_end."""
        return cosine_ramp(step, self.steps, self.ema_start, self.ema_end)


class Pretrainer:
    """Owns both networks, the optimizer and the centering state."""

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
        self.optimizer = AdamW(self.student.items(), lr=pre_cfg.lr, weight_decay=0.01)
        self.center = CenterState(backbone_cfg.num_parts, backbone_cfg.proj_dim,
                                  momentum=pre_cfg.center_momentum)
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
        """The ``ViewSet`` of the images at ``indices``: globals and locals
        each stacked image-major, locals area by area (``build_view_set``
        order); image n's views replay from ``_view_seed(indices[n])``."""
        return build_view_set([self.images[i] for i in indices], self.crop_cfg,
                              [self._view_seed(i) for i in indices])

    # -- forward ----------------------------------------------------------

    def _logits(self, params, pixels, plans, part_index):
        """Head logits of the views cut by ``plans``, [CLS] (V, K) and parts
        (V, P, K); in ``crop`` mode the plans also position their patches."""
        positioned = plans if self.crop_cfg.pos_mode == "crop" else None
        cls_out, part_out = vit.forward_tokens(pixels, part_index, params, plans=positioned)
        return vit.project(cls_out, params, "head_cls"), vit.project(part_out, params, "head_part")

    def _student_forward(self, vs):
        L, m = self.cfg.num_parts, self.crop_cfg.num_globals
        b = len(vs.globals) // m
        j = len(vs.locals) // (b * L)
        inv_tau = 1.0 / self.pre_cfg.tau_s
        cls_g, part_g = self._logits(self.student, vs.global_pixels, vs.globals,
                                     vit.all_parts(b * m, L))
        s_cls_g = T.reshape(T.log_softmax(cls_g * inv_tau), (b, m, -1))
        s_part_g = T.transpose(T.reshape(T.log_softmax(part_g * inv_tau), (b, m, L, -1)),
                               (0, 2, 1, 3))
        cls_l, part_l = self._logits(self.student, vs.local_pixels, vs.locals,
                                     [[p.area] for p in vs.locals])
        s_cls_l = T.reshape(T.log_softmax(cls_l * inv_tau), (b, L, j, -1))
        s_part_l = T.reshape(T.log_softmax(part_l * inv_tau), (b, L, j, -1))
        return s_cls_g, s_cls_l, s_part_g, s_part_l

    def _teacher_forward(self, vs, tau_t):
        L, m = self.cfg.num_parts, self.crop_cfg.num_globals
        b = len(vs.globals) // m
        with T.no_grad():
            cls_logits, part_logits = self._logits(self.teacher, vs.global_pixels, vs.globals,
                                                   vit.all_parts(b * m, L))
        cls_np, part_np = cls_logits.data, part_logits.data  # (B*M, K), (B*M, L, K)
        c_cls, c_part = ((self.center.centers[0], self.center.centers[1:])
                         if self.pre_cfg.centering else (None, None))
        t_cls = sharpen(cls_np, tau_t, c_cls).reshape(b, m, -1)
        t_part = sharpen(part_np, tau_t, c_part).reshape(b, m, L, -1).transpose(0, 2, 1, 3)
        return t_cls, t_part, cls_np, part_np

    # -- one optimization step ---------------------------------------------

    def pretrain_step(self):
        pc = self.pre_cfg
        step = self.step_count
        vs = self.build_batch(self._next_batch_indices())
        tau_t = pc.teacher_tau(step)

        t_cls, t_part, cls_logits_np, part_logits_np = self._teacher_forward(vs, tau_t)
        s_cls_g, s_cls_l, s_part_g, s_part_l = self._student_forward(vs)
        outputs = DistillOutputs(t_cls=t_cls, t_part=t_part, s_cls_g=s_cls_g,
                                 s_cls_l=s_cls_l, s_part_g=s_part_g, s_part_l=s_part_l)
        loss, breakdown = total_loss(outputs)

        lam = pc.ema(step)
        self.optimizer.lr = warmup_cosine_lr(step, pc.steps, pc.lr, int(0.1 * pc.steps),
                                             pc.lr * 0.01)
        grad_norm = self.optimizer.minimize(
            loss, pc.clip_grad, "step %d (lambda=%.6f tau_t=%.4f center_norm=%.4f)"
            % (step, lam, tau_t, np.linalg.norm(self.center.centers[0])))

        ema_update(self.student, self.teacher, lam)

        self.center.update(np.concatenate([cls_logits_np[:, None], part_logits_np], axis=1))

        t_cls_ent = distribution_entropy(t_cls)
        t_part_ent = distribution_entropy(t_part)
        record = {
            "step": step,
            "loss": loss.item(),
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
            "excess_loss": excess_loss(outputs, breakdown),
            "teacher_views": len(vs.globals),
            "student_views": len(vs.globals) + len(vs.locals),
        }
        keep_record(self.log, self.log_path, record)
        self.step_count += 1
        return record

    def run(self):
        while self.step_count < self.pre_cfg.steps:
            self.pretrain_step()
        return self.log
