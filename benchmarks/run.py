"""Benchmark entry point: one workload, one seed, one process.

    python3 benchmarks/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Runs the workload's jobs in a closed loop for ``--seconds`` and prints, as
the last line of stdout, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``. The lines above it give the run environment,
the numerics fingerprint, the quality figures, the times as measured and
any failed check. Results and traces are written under ``.bench_out/`` in
the repository root. The end-to-end times are given at the reference speed
of ``speed.py``; the traced run reports CPU times as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5     # set up at least this often, and for at least SETUP_SECONDS
SETUP_SECONDS = 3.0
# the first job is checked but not timed: it pays for filling the caches and
# the allocator, which varies from run to run
WARMUP_JOBS = 1

# (metric, layer, count key, per "call" of the layer or per "step", unit)
COUNTS = (
    ("tensor.tape_nodes", "tensor.backward", "tape_nodes", "call", "count"),
    ("tensor.tape_mb", "tensor.backward", "tape_mb", "call", "MB"),
    ("vit.tokens", "vit.encode", "tokens", "step", "count"),
    ("multicrop.views", "multicrop.build_view_set", "views", "step", "count"),
    ("finetune.extract_embeddings.images", "finetune.extract_embeddings", "images", "call",
     "count"),
    ("finetune.load_embeddings.images", "finetune.load_embeddings", "images", "call", "count"),
    ("cluster.extract_all_features.images", "cluster.extract_all_features", "images", "call",
     "count"),
    ("evaluate.valid_queries", "evaluate.evaluate", "valid_queries", "call", "count"),
    ("evaluate.excluded_queries", "evaluate.evaluate", "excluded_queries", "call", "count"),
    ("evaluate.mAP", "evaluate.evaluate", "mAP", "call", "frac"),
    ("cluster.clusters", "cluster.cluster", "clusters", "call", "count"),
    ("cluster.outliers", "cluster.cluster", "outliers", "call", "count"),
    ("cluster.clustered_frac", "cluster.cluster", "clustered_frac", "call", "frac"),
    ("checkpoint.save_checkpoint.mb", "checkpoint.save_checkpoint", "mb", "call", "MB"),
)
EXTRACT = ("finetune.extract_embeddings", "cluster.extract_all_features",
           "finetune.load_embeddings")


def pin_threads():
    """One BLAS thread and one extraction worker (the program's default), so
    the run uses one core and leaves the rest of the machine to everything
    else. Must run before numpy is imported."""
    for var in THREAD_VARS + ("PARTSSL_WORKERS",):
        os.environ[var] = "1"


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown (%s)" % ref


def _src_lines():
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("PARTSSL_WORKERS",)},
        "numpy": np.__version__, "blas": blas,
        "python": platform.python_version(),
        "commit": _commit(), "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# metrics


def _step_durations(jobs, step_name):
    return [s.dur for job in jobs for s in job.spans if s.name == step_name]


def end_to_end(jobs, setups, step_name, probe=None):
    """Times are CPU time except ``wall_s``. With a probe every time is
    multiplied by the probe's factor for the seconds it was measured in, to
    give it at the reference speed; without one, times are as measured.
    ``steps_per_s`` is steps over their total time; the others are medians
    (over set-ups, steps or jobs) or a percentile."""
    import numpy as np

    def at_speed(span, t):
        return t * probe.factor(*span.probes) if probe else t

    def per_job(names, value):
        return [sum(value(s) for s in job.spans if s.name in names) for job in jobs]

    # one probe sample follows each set-up
    setup = [t * probe.factor(i, i) if probe else t for i, t in enumerate(setups)]
    steps = [at_speed(s, s.dur) for job in jobs for s in job.spans if s.name == step_name]
    images = per_job(EXTRACT, lambda s: s.counts["images"])
    extract = per_job(EXTRACT, lambda s: at_speed(s, s.dur))
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(per_job({"job"}, lambda s: at_speed(s, s.wall))), "s"),
        "steps_per_s": (len(steps) / sum(steps), "1/s"),
        "step_ms.p50": (1000 * statistics.median(steps), "ms"),
        "step_ms.p90": (1000 * float(np.percentile(steps, 90)), "ms"),
        "extract_images_per_s": (statistics.median(n / t for n, t in zip(images, extract)),
                                 "1/s"),
        "eval_s": (statistics.median(per_job({"evaluate.evaluate"},
                                             lambda s: at_speed(s, s.dur))), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _in_steps(spans, step_name):
    """Spans that are a step or lie below one."""
    by_id = {s.sid: s for s in spans}
    memo = {}

    def inside(s):
        if s.sid not in memo:
            parent = by_id.get(s.parent)
            memo[s.sid] = s.name == step_name or (parent is not None and inside(parent))
        return memo[s.sid]
    return [s for s in spans if inside(s)]


def per_layer(traced, untraced, step_name):
    """Self time and calls per step of every layer, counts, and the trace's
    own figures: overhead against the untraced jobs and step accounting.
    Also returns the self time per step of each name inside the steps."""
    from tracer import LAYERS, self_times
    steps = sum(job.steps for job in traced)
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(float)
    in_steps = defaultdict(float)
    for job in traced:
        own = self_times(job.spans)
        for s in job.spans:
            self_s[s.name] += own[s.sid]
            calls[s.name] += 1
            for key, v in (s.counts or {}).items():
                counts[s.name, key] += v
        for s in _in_steps(job.spans, step_name):
            in_steps[s.name] += own[s.sid]
    m = {}
    for layer in LAYERS:
        m[layer.name + ".ms"] = (1000 * self_s[layer.name] / steps, "ms")
        m[layer.name + ".calls"] = (calls[layer.name] / steps, "calls/step")
    for metric, layer, key, per, unit in COUNTS:
        base = steps if per == "step" else calls[layer]
        m[metric] = (counts[layer, key] / base if base else 0.0, unit)
    traced_steps = _step_durations(traced, step_name)
    untraced_steps = _step_durations(untraced, step_name)
    m["trace.overhead_pct"] = (100 * (statistics.median(traced_steps)
                                      / statistics.median(untraced_steps) - 1), "%")
    m["trace.step_ms"] = (1000 * statistics.mean(traced_steps), "ms")
    m["trace.accounted_pct"] = (100 * sum(in_steps.values()) / sum(traced_steps), "%")
    accounting = {name: 1000 * v / len(traced_steps) for name, v in in_steps.items()}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, accounting


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Job:
    spans: list
    steps: int
    quality: dict
    fingerprint: dict
    traced: bool


def run(args):
    import workloads
    from speed import SpeedProbe
    from tracer import BOUNDARY, LAYERS, Tracer, dump

    load_before = os.getloadavg()
    wl = workloads.make(args.workload, args.seed, args.size)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(OUT, "%s-%d" % (tag, os.getpid()))
    os.makedirs(run_dir)
    # the traced run compares traced with untraced jobs of the same run and
    # reports raw times, so it needs no probe
    probe = None if args.trace else SpeedProbe()
    # a traced run needs a traced and an untraced job after the warm-up
    needed = WARMUP_JOBS + 1 + args.trace
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            t0 = process_time()
            state = wl.setup(run_dir)
            setups.append(process_time() - t0)
            if probe:
                probe.sample()
        checks, jobs, missing = workloads.Checks(), [], []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(jobs) % 2 == 1
            tracer = Tracer({layer.name for layer in LAYERS} if traced else BOUNDARY, probe)
            out_dir = os.path.join(run_dir, "job%d" % len(jobs))
            gc.collect()  # start every job without the previous job's garbage
            try:
                steps, quality, fingerprint = wl.job(state, tracer, out_dir, checks)
            except Exception as exc:  # noqa: BLE001 - a failed job is a failed operation
                traceback.print_exc()
                checks.check("job %d raised %r" % (len(jobs), exc), False)
                break
            shutil.rmtree(out_dir)
            if jobs:
                checks.check("job %d fingerprint %s differs from job 0" % (len(jobs), fingerprint),
                             fingerprint == jobs[0].fingerprint)
            jobs.append(Job(tracer.spans, steps, quality, fingerprint, traced))
            missing = tracer.missing if traced else missing
            if perf_counter() - start >= args.seconds and len(jobs) >= needed:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if len(jobs) < needed:
        print("benchmark: no complete job; failures: %s" % checks.failures, file=sys.stderr)
        return None

    untraced = [j for j in jobs[WARMUP_JOBS:] if not j.traced]
    env = environment()
    env["loadavg_before"], env["loadavg_after"] = load_before, os.getloadavg()
    print("workload %s seed %d: %d jobs (%d warm-up), %d steps, %.1f s"
          % (args.workload, args.seed, len(jobs), WARMUP_JOBS, sum(j.steps for j in jobs),
             perf_counter() - start))
    print("env: " + json.dumps(env))
    print("fingerprint: " + json.dumps(jobs[0].fingerprint))
    print("quality: " + json.dumps(jobs[0].quality))
    print("error_rate: %.6g (%d failed of %d attempted)"
          % (checks.failed / checks.attempted, checks.failed, checks.attempted))
    for failure in checks.failures:
        print("FAILED: " + failure)
    if args.trace:
        traced = [j for j in jobs[WARMUP_JOBS:] if j.traced]
        metrics, accounting = per_layer(traced, untraced, wl.step_name)
        print("step accounting, self ms per step inside the traced steps:")
        for name, ms in sorted(accounting.items(), key=lambda kv: -kv[1]):
            print("  %-45s %9.3f" % (name, ms))
        print("  %-45s %9.3f  (traced step %.3f ms)" % ("sum", sum(accounting.values()),
                                                          metrics["trace.step_ms"]["value"]))
        if missing:
            print("missing (reported as 0): " + ", ".join(missing))
        dump(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)),
             [j.spans for j in traced])
    else:
        raw = end_to_end(untraced, setups, wl.step_name)
        print("speed: reference kernel %.4f ms mean over %d samples; as measured: %s"
              % (1000 * statistics.fmean(probe.samples), len(probe.samples),
                 ", ".join("%s %.6g" % (k, m["value"]) for k, m in raw.items())))
        metrics = end_to_end(untraced, setups, wl.step_name, probe)
    for name, m in metrics.items():
        print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump({**result, "env": env, "fingerprint": jobs[0].fingerprint,
                   "quality": jobs[0].quality, "failures": checks.failures}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "finetune", "retrieval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second run for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "partssl", "__init__.py")):
        print("benchmark: no partssl sources under %s" % SRC, file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
