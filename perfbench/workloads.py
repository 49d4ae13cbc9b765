"""The benchmark's four workloads: input generation and one timed pass each.

Every workload is a closed loop with a single caller that waits for each
call to return. Inputs are written from the workload seed with the repo's
own `synthetic` and `features.save_sidecar`; a pass sees only those files.

Set-up returns its timed units in a fixed order (one per generated video,
or per chunk of CSV rows). A pass returns its stage times, its timed units in
a fixed order, per-call latencies, quality and a list of (check name, passed)
output checks. A workload also fixes how many set-ups a run makes, and the seconds
it budgets per pass, which turn --seconds into a pass count, so that every
commit takes the same number of draws whatever its speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rqvqa import cli, features, fusion, harness, metrics, synthetic

TOY_EXTRACTION = features.ExtractionConfig(gms_grid_count=4, gms_patch_size=8,
                                           gms_seed=0)
VIDEOS_PER_SCENE = 4
LOAD_CHUNK = 10   # videos per timed `load_bundles` call
CSV_CHUNK = 5000  # rows per timed write of the eval-csv set-up


@contextlib.contextmanager
def marked(module, *attrs: str):
    """Swap each `module.attr`, in the namespace its caller looks it up in,
    for a wrapper that appends the time each call returns to the yielded
    list. The marks split one long call (a corpus, a training run, an
    `rqvqa eval`) into short timed units."""
    saved, marks = [(attr, getattr(module, attr)) for attr in attrs], []

    def marking(fn):
        def mark(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.append(time.perf_counter())
            return result
        return mark

    for attr, fn in saved:
        setattr(module, attr, marking(fn))
    try:
        yield marks
    finally:
        for attr, fn in saved:
            setattr(module, attr, fn)


def intervals(start: float, marks: list[float], end: float) -> list[float]:
    return np.diff([start, *marks, end]).tolist()


@dataclass
class PassResult:
    total_s: float
    units: list[float] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    srcc: float = float("nan")
    plcc_4pl: float = float("nan")
    ops: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Pipeline workloads: manifest -> train -> checkpoint -> predict -> evaluate


@dataclass(frozen=True)
class Pipeline:
    """One manifest-to-report workload over a registry and training config."""

    name: str
    registry: features.SourceRegistry
    train: fusion.TrainConfig
    n_videos: int
    split_ratio: float
    setups: int
    pass_s: float   # seconds budgeted per pass; --seconds / pass_s passes
    min_quality: float | None = None   # held-out SRCC/PLCC floor, if checked

    def sizes(self) -> dict:
        layout = fusion.ConcatLayout.from_registry(self.registry)
        return {"videos": self.n_videos, "fused_dim": layout.total_dim,
                "sources": len(self.registry), "split_ratio": self.split_ratio,
                "epochs": self.train.epochs,
                "batch_size": self.train.batch_size,
                "hidden": self.train.hidden}

    def reference(self, inputs: Path) -> None:
        return None

    def run_pass(self, inputs: Path, seed: int, reference=None) -> PassResult:
        cfg = replace(self.train, seed=seed + harness.TRAIN_SEED_STRIDE)
        ckpt = inputs / "model.ckpt"
        t0 = time.perf_counter()
        manifest = harness.load_manifest(inputs / "manifest.csv")
        dataset, units = [], [time.perf_counter() - t0]
        for i in range(0, len(manifest), LOAD_CHUNK):
            start = time.perf_counter()
            dataset += harness.load_bundles(
                harness.DatasetManifest(manifest.records[i:i + LOAD_CHUNK]),
                self.registry, TOY_EXTRACTION)
            units.append(time.perf_counter() - start)
        t_load = time.perf_counter()
        plan = harness.split(manifest, ratio=self.split_ratio,
                             grouping="by-scene", seed=seed)
        by_id = {rec.video_id: pair
                 for rec, pair in zip(manifest.records, dataset)}
        train_set = [by_id[v] for v in plan.train_ids]
        with marked(fusion, "adam_step") as steps:
            result = fusion.train(train_set, self.registry, cfg)
        t_train = time.perf_counter()
        fusion.save_checkpoint(ckpt, result.head, cfg, master_seed=seed)
        head, _, _ = fusion.load_checkpoint(ckpt)
        t_ckpt = time.perf_counter()
        scores, latencies = {}, []
        for rec in manifest.records:
            start = time.perf_counter()
            [(vid, score)] = harness.predict_scores(
                head, harness.DatasetManifest(records=[rec]), self.registry,
                TOY_EXTRACTION)
            latencies.append((time.perf_counter() - start) * 1e3)
            scores[vid] = score
        t_pred = time.perf_counter()
        preds = [scores[v] for v in plan.test_ids]
        report = metrics.evaluate(preds, [by_id[v][1] for v in plan.test_ids])
        t_end = time.perf_counter()
        units += intervals(t_load, steps, t_train) + [t_ckpt - t_train]
        units += [x / 1e3 for x in latencies] + [t_end - t_pred]

        in_memory = [fusion.video_forward(by_id[v][0], result.head)
                     for v in plan.test_ids]
        checks = [
            ("checkpoint_predictions_bit_exact",
             np.array(in_memory).tobytes() == np.array(preds).tobytes()),
            ("training_losses_finite",
             bool(np.all(np.isfinite(result.trace.epoch_losses)))),
        ]
        if self.min_quality is not None:
            checks.append(("heldout_quality_floor",
                           report.srcc >= self.min_quality
                           and report.plcc_4pl >= self.min_quality))
        return PassResult(
            total_s=t_end - t0, units=units,
            stages={"load_s": t_load - t0, "train_s": t_train - t_load,
                    "checkpoint_s": t_ckpt - t_train,
                    "predict_s": t_pred - t_ckpt, "eval_s": t_end - t_pred,
                    "train_samples": cfg.epochs * len(train_set),
                    "loaded_videos": len(dataset),
                    "eval_rows": report.n},
            latencies_ms=latencies, srcc=report.srcc,
            plcc_4pl=report.plcc_4pl,
            ops=4 + len(manifest.records) + 1, checks=checks)


class ToyCorpus(Pipeline):
    """320 synthetic 64x64 clips, toy extractors, the acceptance config."""

    def setup(self, inputs: Path, seed: int) -> list[float]:
        """Units: each video up to its `save_raw_video`, then the
        manifest."""
        with marked(synthetic, "save_raw_video") as videos:
            start = time.perf_counter()
            synthetic.make_synthetic_corpus(inputs, self.n_videos, seed)
            end = time.perf_counter()
        return intervals(start, videos, end)


@dataclass(frozen=True, kw_only=True)
class BackboneCorpus(Pipeline):
    """Sidecar-only videos at backbone widths with a planted MOS signal.

    Each source row is scene content + unit noise + signal * z(mos) * u,
    where u is one fixed random direction per source; probability rows are
    the softmax of such a row. `signal` is kept small enough that held-out
    SRCC stays well below 1, so a broken gradient shows.
    """

    keyframes: int
    signal: float

    def sizes(self) -> dict:
        return {**super().sizes(), "keyframes": self.keyframes}

    def setup(self, inputs: Path, seed: int) -> list[float]:
        """Units: each video's rows and sidecars, then the manifest."""
        rng = np.random.default_rng(seed)
        sources = list(self.registry)
        direction = {s.name: rng.standard_normal(s.dim) for s in sources}
        shape = features.FeatureBundle(video_id="", n_keyframes=self.keyframes)
        records, units = [], []
        for v in range(self.n_videos):
            start = time.perf_counter()
            scene, k = divmod(v, VIDEOS_PER_SCENE)
            if k == 0:
                content = {s.name: 0.5 * rng.standard_normal(s.dim)
                           for s in sources}
            mos = float(rng.uniform(1.0, 5.0))
            z = (mos - 3.0) / 1.1547
            video_id = f"scene{scene:04d}_v{k}"
            path = inputs / video_id
            for s in sources:
                rows = rng.standard_normal((shape.rows_expected(s), s.dim))
                rows += content[s.name] + self.signal * z * direction[s.name]
                if s.probability:
                    rows = np.exp(rows - rows.max(axis=1, keepdims=True))
                    rows /= rows.sum(axis=1, keepdims=True)
                features.save_sidecar(s, rows, path / f"{s.name}.rqvf")
            records.append(harness.ManifestRecord(
                video_id=video_id, path=str(path), mos=mos,
                scene_id=f"scene{scene:04d}"))
            units.append(time.perf_counter() - start)
        start = time.perf_counter()
        harness.save_manifest(harness.DatasetManifest(records=records),
                              inputs / "manifest.csv")
        return units + [time.perf_counter() - start]


# ---------------------------------------------------------------------------
# eval-csv: `rqvqa eval` on a large two-column CSV


def _reference_ranks(v: np.ndarray) -> np.ndarray:
    """Average ranks from unique-value counts (no tie loop)."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return ((upper - counts + 1 + upper) / 2.0)[inverse]


def _reference_pearson(x: np.ndarray, y: np.ndarray) -> float:
    a = x - x.mean()
    b = y - y.mean()
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


class _ReportCapture:
    """Stands in for `cli.evaluate` to keep the full-precision report."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.report = None

    def __call__(self, pred, mos):
        self.report = self.evaluate(pred, mos)
        return self.report


@dataclass(frozen=True)
class EvalCsv:
    name: str
    rows: int
    setups: int
    pass_s: float

    def sizes(self) -> dict:
        return {"rows": self.rows}

    def setup(self, inputs: Path, seed: int) -> list[float]:
        """Units: drawing the columns, then each chunk of CSV_CHUNK rows."""
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        mos = np.round(rng.uniform(1.0, 5.0, self.rows) * 4.0) / 4.0
        pred = 0.2 * mos + rng.normal(0.0, 0.15, self.rows)
        inputs.mkdir(parents=True, exist_ok=True)
        units = [time.perf_counter() - start]
        with open(inputs / "scored.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["prediction", "mos"])
            for i in range(0, self.rows, CSV_CHUNK):
                start = time.perf_counter()
                writer.writerows(
                    zip((f"{p:.6f}" for p in pred[i:i + CSV_CHUNK]),
                        (f"{m:.2f}" for m in mos[i:i + CSV_CHUNK])))
                units.append(time.perf_counter() - start)
        return units

    def reference(self, inputs: Path) -> dict:
        with open(inputs / "scored.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        pred = np.array([float(r[0]) for r in rows])
        mos = np.array([float(r[1]) for r in rows])
        return {"n": len(rows),
                "srcc": _reference_pearson(_reference_ranks(pred),
                                           _reference_ranks(mos)),
                "plcc_raw": _reference_pearson(pred, mos)}

    def run_pass(self, inputs: Path, seed: int, reference: dict
                 ) -> PassResult:
        capture = _ReportCapture(cli.evaluate)
        cli.evaluate = capture
        out = io.StringIO()
        try:
            with (marked(metrics, "rankdata", "pearson", "fit_4pl") as marks,
                  contextlib.redirect_stdout(out)):
                t0 = time.perf_counter()
                code = cli.main(["eval", "--pred", str(inputs / "scored.csv")])
                t_end = time.perf_counter()
        finally:
            cli.evaluate = capture.evaluate
        report = capture.report
        printed = dict(line.split("=", 1) for line in out.getvalue().split())
        checks = [
            ("eval_exit_code_zero", code == 0),
            ("eval_n_equals_rows_written",
             report.n == reference["n"] == self.rows
             and printed.get("n") == str(self.rows)),
            ("eval_srcc_matches_reference",
             abs(report.srcc - reference["srcc"]) <= 1e-12),
            ("eval_plcc_raw_matches_reference",
             abs(report.plcc_raw - reference["plcc_raw"]) <= 1e-12),
            ("eval_printed_srcc_matches_report",
             printed.get("srcc") == f"{report.srcc:.6f}"),
        ]
        return PassResult(total_s=t_end - t0,
                          units=intervals(t0, marks, t_end),
                          stages={"eval_s": t_end - t0,
                                  "eval_rows": report.n},
                          srcc=report.srcc, plcc_4pl=report.plcc_4pl, ops=1,
                          checks=checks)


def make_workloads() -> dict:
    backbone_train = fusion.TrainConfig(learning_rate=1e-4, batch_size=6,
                                        epochs=10, lr_decay_epoch=5,
                                        hidden=128)
    workloads = [
        ToyCorpus("toy-corpus", features.toy_registry(),
                  fusion.TrainConfig(learning_rate=1e-4, batch_size=6,
                                     epochs=30, lr_decay_epoch=10,
                                     hidden=512),
                  n_videos=320, split_ratio=0.8, setups=3, pass_s=3.75,
                  min_quality=0.90),
        BackboneCorpus("backbone-vectors", features.backbone_registry(),
                       backbone_train, n_videos=120, split_ratio=0.5,
                       setups=10, pass_s=5.0, keyframes=8, signal=0.07),
        BackboneCorpus("backbone-tokens",
                       features.backbone_registry(spatial_tokens=49),
                       replace(backbone_train, learning_rate=1e-3, epochs=1,
                               lr_decay_epoch=1),
                       n_videos=100, split_ratio=0.3, setups=8, pass_s=7.0,
                       keyframes=2, signal=0.08),
        EvalCsv("eval-csv", rows=100_000, setups=20, pass_s=0.4),
    ]
    return {w.name: w for w in workloads}
