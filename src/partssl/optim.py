"""Optimizers and schedules for the training loops."""

from __future__ import annotations

import json
import math

import numpy as np

from . import tensor as T


class TrainingDiverged(RuntimeError):
    pass


def _no_decay(name, tensor):
    # biases, norm affines, tokens and positions are excluded from weight decay
    return tensor.ndim < 2 or "token" in name or "pos_embed" in name


class AdamW:
    """Adam with decoupled weight decay on weight matrices only."""

    b1, b2, eps = 0.9, 0.999, 1e-8  # moment decays, denominator floor

    def __init__(self, named_params, lr=1e-3, weight_decay=0.0):
        self.params = list(named_params)  # [(name, Tensor)]
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            # moments in place, and one scratch buffer: each op of the
            # textbook formulas in their order, so the bits are unchanged
            buf = g * (1 - self.b1)
            m *= self.b1
            m += buf
            np.multiply(g, 1 - self.b2, out=buf)
            buf *= g
            v *= self.b2
            v += buf
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            update = m / bc1
            update /= buf
            if self.weight_decay and not _no_decay(name, p):
                np.multiply(p.data, self.weight_decay, out=buf)
                update += buf
            update *= self.lr
            # a new array, not ``-=``: updated in place, finetune steps ran 18%
            # slower, a heap-layout effect that disappears with glibc's trim
            # and mmap thresholds raised
            p.data = p.data - update

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def minimize(self, loss, max_norm, context):
        """One update on ``loss``: backward, clip to ``max_norm`` (0 = off),
        step. Returns the gradient norm before clipping; a non-finite loss
        raises ``TrainingDiverged`` naming ``context`` and updates nothing."""
        try:
            if not math.isfinite(loss.item()):
                raise TrainingDiverged("non-finite loss at %s" % context)
            tensors = [p for _, p in self.params]
            loss.backward(params=tensors)
            norm = clip_grad_norm(tensors, max_norm)
            self.step()
            self.zero_grad()
            return norm
        finally:
            T.clear_tape()


def clip_grad_norm(params, max_norm):
    """Scale all grads in place so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def keep_record(log, path, record):
    """Append ``record`` to ``log`` and, when ``path`` is set, to that file as
    one JSON line; returns it. Every stage's step or epoch record goes here."""
    log.append(record)
    if path:
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return record


def cosine_ramp(step, total_steps, start, end):
    """Cosine interpolation from start (step 0) to end (step total_steps)."""
    if total_steps <= 0:
        return end
    t = min(max(step / total_steps, 0.0), 1.0)
    return end - (end - start) * 0.5 * (1.0 + math.cos(math.pi * t))


def warmup_cosine_lr(step, total_steps, base_lr, warmup_steps, final_lr=0.0):
    """Linear warmup to base_lr, then cosine decay to final_lr."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    return cosine_ramp(step - warmup_steps, max(total_steps - warmup_steps, 1), base_lr, final_lr)
