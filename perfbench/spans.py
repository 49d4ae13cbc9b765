"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

A Tracer replaces a layer's public function in the namespace that looks it
up (for example `rqvqa.features.toy_pixelstats`, which `_toy_matrix` calls)
with a wrapper that appends one span per call: name, start, end, parent span
and run id. Counts of work, computed from array shapes, ride on the span.
Spans stay in memory until the run ends; nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from rqvqa import cli, features, fusion, harness, metrics, synthetic


def _sidecar_load_counts(args, kwargs, result):
    return {"bytes": result[3].size * 4}


def _sidecar_save_counts(args, kwargs, result):
    return {"bytes": np.asarray(args[1]).size * 4}


def _raw_video_counts(args, kwargs, result):
    return {"bytes": result.frames.nbytes}


def _backprop_counts(args, kwargs, result):
    """Matmul FLOPs (2mnk per product) of one mini-batch, from shapes."""
    batch, head = args[0], args[1]
    d, hidden = head.mlp.w1.shape
    token = head.layout.token_entry() if head.pool is not None else None
    flops = 0
    for bundle, _ in batch:
        n_z = bundle.n_keyframes
        flops += 4 * n_z * d * hidden          # forward z, grad of w1
        if token is not None:
            t, e = token.token_count, token.dim
            flops += 2 * n_z * hidden * d      # grad of the fused vector
            # forward: qkv + out projections, scores, attn @ v;
            # backward: four projection-sized products, four T x T ones
            flops += n_z * (8 * t * e * e + 4 * t * t * e)
            flops += n_z * (10 * t * e * e + 8 * t * t * e)
    return {"flops": flops}


def _adam_counts(args, kwargs, result):
    """Bytes of the minimal float64 traffic: read p, g, m, v; write p, m, v."""
    return {"bytes": 7 * 8 * sum(np.size(p) for p in args[0].values())}


def _train_counts(args, kwargs, result):
    cfg = args[2]
    n = len(args[0])
    return {"steps": result.trace.steps,
            "batches": cfg.epochs * -(-n // cfg.batch_size)}


def _evaluate_counts(args, kwargs, result):
    """A report whose 4PL map failed falls back to the raw PLCC."""
    return {"fit_failed": int(result.fit_failed)}


def _checkpoint_counts(args, kwargs, result):
    params = fusion.params_from_head(result[0])
    return {"bytes": 8 * sum(np.size(p) for p in params.values())}


# (span name, module, attribute looked up by the caller, count function)
TARGETS = (
    ("preproc.load_raw_video", harness, "load_raw_video", _raw_video_counts),
    ("preproc.save_raw_video", synthetic, "save_raw_video", None),
    ("gms.sample_fragments", features, "sample_fragments", None),
    ("features.toy_pixelstats", features, "toy_pixelstats", None),
    ("features.toy_motionstats", features, "toy_motionstats", None),
    ("features.toy_fragmentstats", features, "toy_fragmentstats", None),
    ("features.load_sidecar", features, "load_sidecar", _sidecar_load_counts),
    ("features.save_sidecar", features, "save_sidecar", _sidecar_save_counts),
    ("features.assemble_bundle", harness, "assemble_bundle", None),
    ("harness.resolve_bundle", harness, "resolve_bundle", None),
    ("harness.load_bundles", harness, "load_bundles", None),
    ("harness.predict_scores", harness, "predict_scores", None),
    ("synthetic.make_synthetic_corpus", synthetic, "make_synthetic_corpus",
     None),
    ("synthetic.pristine_clip", synthetic, "pristine_clip", None),
    ("synthetic.degrade", synthetic, "degrade", None),
    ("fusion.train", fusion, "train", _train_counts),
    ("fusion.backprop", fusion, "backprop", _backprop_counts),
    ("fusion.adam_step", fusion, "adam_step", _adam_counts),
    ("fusion.video_forward", fusion, "video_forward", None),
    ("fusion.video_forward", harness, "video_forward", None),
    ("fusion.mhsa_pool", fusion, "mhsa_pool", None),
    ("fusion.save_checkpoint", fusion, "save_checkpoint", None),
    ("fusion.load_checkpoint", fusion, "load_checkpoint", _checkpoint_counts),
    ("metrics.evaluate", metrics, "evaluate", _evaluate_counts),
    ("metrics.evaluate", cli, "evaluate", _evaluate_counts),
    ("metrics.rankdata", metrics, "rankdata", None),
    ("metrics.fit_4pl", metrics, "fit_4pl", None),
    ("metrics.pearson", metrics, "pearson", None),
    ("cli.main", cli, "main", None),
)


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() undoes it.

    A span is [name, start, end, parent index or -1, run id, counts, error].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.run_id = ""

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.run_id,
                      None, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for name, module, attr, count in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict):
        keys = ("name", "start", "end", "parent", "run", "counts", "error")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")

    def totals(self, run_prefix: str):
        """Per span name: calls, busy, self time and summed counts, over
        the runs whose id starts with run_prefix."""
        child = defaultdict(float)
        for name, start, end, parent, run, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, run, counts, _) in enumerate(
                self.spans):
            if not run.startswith(run_prefix):
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                agg[key] += value
        return out


def layer_metrics(tracer: Tracer, n_setups: int, n_passes: int,
                  n_videos: int, n_sources: int) -> dict[str, float]:
    """Per-layer metrics, each per timed pass, except set-up layers, which
    are per set-up."""
    setup = tracer.totals("setup")
    run = tracer.totals("pass")

    def per_pass(name, key):
        return run[name][key] / n_passes if name in run else 0.0

    def per_setup(name, key):
        return setup[name][key] / n_setups if name in setup else 0.0

    m = {}
    for name, keys in (
            ("preproc.load_raw_video", ("calls", "busy_s", "bytes")),
            ("gms.sample_fragments", ("calls", "busy_s")),
            ("features.toy_pixelstats", ("busy_s",)),
            ("features.toy_motionstats", ("busy_s",)),
            ("features.toy_fragmentstats", ("busy_s",)),
            ("harness.resolve_bundle", ("calls", "self_s")),
            ("features.load_sidecar", ("calls", "busy_s", "bytes")),
            ("features.assemble_bundle", ("self_s",)),
            ("fusion.backprop", ("calls", "busy_s", "self_s")),
            ("fusion.adam_step", ("calls", "busy_s")),
            ("fusion.video_forward", ("calls", "busy_s")),
            ("fusion.mhsa_pool", ("calls", "busy_s")),
            ("fusion.save_checkpoint", ("busy_s",)),
            ("fusion.load_checkpoint", ("busy_s",)),
            ("metrics.evaluate", ("self_s",)),
            ("metrics.rankdata", ("busy_s",)),
            ("metrics.fit_4pl", ("busy_s",)),
            ("metrics.pearson", ("busy_s",)),
            ("cli.main", ("self_s",))):
        for key in keys:
            m[f"{name}.{key}"] = per_pass(name, key)
    for name, keys in (("features.save_sidecar", ("busy_s", "bytes")),
                       ("synthetic.make_synthetic_corpus", ("busy_s",)),
                       ("synthetic.pristine_clip", ("busy_s",)),
                       ("synthetic.degrade", ("busy_s",)),
                       ("preproc.save_raw_video", ("busy_s",))):
        for key in keys:
            m[f"{name}.{key}"] = per_setup(name, key)

    m["harness.resolves_per_video"] = (
        per_pass("harness.resolve_bundle", "calls") / n_videos)
    assembled = per_pass("features.assemble_bundle", "calls") * n_sources
    m["features.sidecar_hit_ratio"] = (
        per_pass("features.load_sidecar", "calls") / assembled
        if assembled else 0.0)
    m["fusion.backprop.flops_computed"] = per_pass("fusion.backprop", "flops")
    m["fusion.adam_step.bytes_computed"] = per_pass("fusion.adam_step",
                                                    "bytes")
    adam_busy = m["fusion.adam_step.busy_s"]
    m["fusion.adam_step.gbps"] = (
        m["fusion.adam_step.bytes_computed"] / adam_busy / 1e9
        if adam_busy else 0.0)
    trains = per_pass("fusion.train", "calls")
    m["fusion.train.steps"] = (per_pass("fusion.train", "steps") / trains
                               if trains else 0.0)
    batches = per_pass("fusion.train", "batches")
    m["fusion.train.batch_use_ratio"] = (
        per_pass("fusion.train", "steps") / batches if batches else 0.0)
    loads = per_pass("fusion.load_checkpoint", "calls")
    m["fusion.checkpoint.bytes"] = (
        per_pass("fusion.load_checkpoint", "bytes") / loads if loads else 0.0)
    m["metrics.fit_4pl.fallbacks"] = per_pass("metrics.evaluate",
                                              "fit_failed")
    return m
