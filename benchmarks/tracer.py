"""Span tracer that wraps partssl's public functions from outside.

A span is (id, name, start, end, parent, counts). Wrappers are installed on
the module or class attribute that callers look the name up through (for
example ``distill.build_view_set``, because ``distill`` imports that name
into its own namespace), and removed again when the tracer is uninstalled.
Spans stay in memory; ``dump`` writes them out when the run ends.

Spans are timed in process CPU time: on a shared machine the wall clock
also counts the time other tenants hold the core, which varies from run to
run by more than the effects worth measuring. The benchmark pins the
program to one thread, so CPU time is the time the program worked. The
``job`` span also records its wall-clock duration. With one thread the
open spans form a single stack.

An untraced run passes a ``speed.SpeedProbe``: it samples the machine's
speed after every wrapped call, and the time it takes is left out of the
spans that enclose it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict | None = None
    wall: float | None = None
    probes: tuple = (0, 0)  # probe samples taken when the span opened and closed
    excluded: float = 0.0   # CPU time of the probe samples inside the span

    @property
    def dur(self):
        return self.end - self.start - self.excluded


def _tape_size(args, kwargs):
    from partssl import tensor as T
    nodes = T.tape().nodes
    return {"tape_nodes": len(nodes),
            "tape_mb": sum(out.data.nbytes for out, _, _ in nodes) / 1e6}


def _tokens(args, kwargs):
    return {"tokens": args[0].shape[0] * args[0].shape[1]}


def _views(args, kwargs, out):
    return {"views": len(out.globals) + len(out.locals)}


def _images(position):
    def count(args, kwargs):
        return {"images": len(args[position])}
    return count


def _loaded(args, kwargs, out):
    return {"images": len(out[0])}


def _eval_counts(args, kwargs, out):
    return {"valid_queries": out.num_valid_queries,
            "excluded_queries": out.num_excluded_queries,
            "mAP": out.mean_ap}


def _cluster_counts(args, kwargs, out):
    n = len(out.assignments)
    return {"clusters": out.num_clusters, "outliers": out.num_outliers,
            "clustered_frac": (n - out.num_outliers) / n}


def _file_mb(args, kwargs, out):
    return {"mb": os.path.getsize(out) / 1e6}


@dataclass(frozen=True)
class Layer:
    """One traced name and every binding its callers look it up through."""

    name: str
    bindings: tuple            # ((partssl module, attribute path), ...)
    before: object = None      # (args, kwargs) -> counts, taken before the call
    after: object = None       # (args, kwargs, result) -> counts
    keep_self: bool = False    # remember the instance a method was called on
    keep_result: bool = False  # remember the last result


LAYERS = (
    Layer("cli.run", (("cli", "run"),)),
    Layer("cli.build_datasets", (("cli", "build_datasets"),)),
    Layer("synthetic.generate", (("synthetic", "generate"),)),
    Layer("tensor.backward", (("tensor", "backward"),), before=_tape_size),
    Layer("vit.patchify", (("vit", "patchify"),)),
    Layer("vit.encode", (("vit", "encode"),), before=_tokens),
    Layer("vit.project", (("vit", "project"),)),
    Layer("vit.forward_tokens", (("vit", "forward_tokens"),)),
    Layer("multicrop.build_view_set", (("distill", "build_view_set"),), after=_views),
    Layer("multicrop.resize_bilinear", (("multicrop", "resize_bilinear"),
                                        ("finetune", "resize_bilinear"))),
    Layer("distill.total_loss", (("distill", "total_loss"),)),
    Layer("distill.sharpen", (("distill", "sharpen"),)),
    Layer("distill.ema_update", (("distill", "ema_update"),)),
    Layer("distill.CenterState.update", (("distill", "CenterState.update"),)),
    Layer("distill.Pretrainer.pretrain_step", (("distill", "Pretrainer.pretrain_step"),),
          keep_self=True),
    Layer("optim.AdamW.step", (("optim", "AdamW.step"),)),
    Layer("optim.clip_grad_norm", (("distill", "clip_grad_norm"), ("finetune", "clip_grad_norm"),
                                   ("cluster", "clip_grad_norm"))),
    Layer("finetune.forward_embeddings", (("finetune", "forward_embeddings"),
                                          ("cluster", "forward_embeddings"))),
    Layer("finetune.batch_hard_triplet", (("finetune", "batch_hard_triplet"),)),
    Layer("finetune.id_loss", (("finetune", "id_loss"),)),
    Layer("finetune.ReidHead.embed", (("finetune", "ReidHead.embed"),)),
    Layer("finetune.FinetuneTrainer.finetune_step",
          (("finetune", "FinetuneTrainer.finetune_step"),)),
    Layer("finetune.extract_embeddings", (("cli", "extract_embeddings"),), before=_images(2),
          keep_result=True),
    Layer("finetune.dump_embeddings", (("cli", "dump_embeddings"),)),
    Layer("finetune.load_embeddings", (("cli", "load_embeddings"),), after=_loaded,
          keep_result=True),
    Layer("cluster.extract_all_features", (("cluster", "extract_all_features"),),
          before=_images(1)),
    Layer("evaluate.pairwise_dist", (("evaluate", "pairwise_dist"),)),
    Layer("evaluate.evaluate", (("evaluate", "evaluate"),), after=_eval_counts),
    Layer("evaluate.render_ranking_report", (("evaluate", "render_ranking_report"),)),
    Layer("cluster.cluster", (("cluster", "cluster"),), after=_cluster_counts),
    Layer("checkpoint.save_checkpoint", (("cli", "save_checkpoint"),), after=_file_mb),
)

# The boundaries the end-to-end metrics are read from. An untraced run
# wraps only these, a handful of calls per step.
BOUNDARY = frozenset({
    "distill.Pretrainer.pretrain_step", "finetune.FinetuneTrainer.finetune_step",
    "finetune.extract_embeddings", "cluster.extract_all_features",
    "finetune.load_embeddings", "evaluate.evaluate", "cluster.cluster",
})


def _resolve(module, path):
    """(owner, attribute) for a binding, or None when the name is gone."""
    try:
        owner = importlib.import_module("partssl." + module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans for the given layers while installed."""

    def __init__(self, names, probe=None):
        self.layers = [layer for layer in LAYERS if layer.name in names]
        self.probe = probe
        self.spans = []
        self.instances = {}
        self.results = {}
        self.missing = []
        self._ids = itertools.count()
        self._stack = []
        self._restore = []

    def _open(self):
        sid, parent = next(self._ids), self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _probes(self):
        return len(self.probe.samples) if self.probe else 0

    def _close(self, sid, name, start, end, parent, lo, counts=None, wall=None):
        """Record a span, leaving out the probe samples taken inside it."""
        self._stack.pop()
        hi = self._probes()
        excluded = sum(self.probe.samples[lo:hi]) if hi > lo else 0.0
        if hi > lo and wall is not None:
            wall -= sum(self.probe.walls[lo:hi])
        span = Span(sid, name, start, end, parent, counts, wall, (lo, hi), excluded)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """A span around benchmark code (not a wrapped program function)."""
        sid, parent = self._open()
        lo = self._probes()
        wall, start = perf_counter(), process_time()
        try:
            yield
        finally:
            end, wall = process_time(), perf_counter() - wall
            self._close(sid, name, start, end, parent, lo, wall=wall)

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = layer.before(args, kwargs) if layer.before else None
            if layer.keep_self:
                tracer.instances[layer.name] = args[0]
            sid, parent = tracer._open()
            lo = tracer._probes()
            start = process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = tracer._close(sid, layer.name, start, process_time(), parent, lo, counts)
            if tracer.probe:
                tracer.probe.sample()
            if layer.after:
                span.counts = {**(counts or {}), **layer.after(args, kwargs, out)}
            if layer.keep_result:
                tracer.results[layer.name] = out
            return out
        return wrapper

    def install(self):
        for layer in self.layers:
            found = False
            for module, path in layer.bindings:
                target = _resolve(module, path)
                if target is None:
                    continue
                owner, attr = target
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, original))
                self._restore.append((owner, attr, original, own))
                found = True
            if not found:
                self.missing.append(layer.name)
        return self

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """sid -> the span's duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.dur - _covered(children[s.sid], s.start, s.end) for s in spans}


def dump(path, jobs):
    """Write the spans of each traced job (span ids are unique per job)."""
    with open(path, "w") as fh:
        json.dump([[{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "counts": s.counts} for s in spans]
                   for spans in jobs], fh)
    return path


def load(path):
    with open(path) as fh:
        return [[Span(r["id"], r["name"], r["start"], r["end"], r["parent"], r["counts"])
                 for r in job] for job in json.load(fh)]
