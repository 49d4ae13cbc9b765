"""Dataset manifests, split protocols, experiment orchestration, ensembling.

Manifests are UTF-8 CSV with header video_id,path,mos,scene_id. Each path is
a directory holding either a raw video (meta.txt + frames), sidecar .rqvf
files, or both; sidecars take precedence per source. A relative path is
resolved against the manifest's directory, not the working directory, and
loads as an absolute path.

Seed scheme: split k of a run uses seed master + k, the matching training run
uses master + 100000 + k, so repeated experiments are reproducible and
individually re-runnable.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ManifestError
from .features import ExtractionConfig, FeatureSource, assemble_bundle
from .fusion import (
    ConcatLayout,
    FusionHead,
    TrainConfig,
    train,
    video_forward,
)
from .metrics import EvalReport, evaluate
from .preproc import META_NAME, load_raw_video

MANIFEST_HEADER = ["video_id", "path", "mos", "scene_id"]
PREDICTION_HEADER = ["video_id", "score"]

TRAIN_SEED_STRIDE = 100_000
GROUPINGS = ("by-scene", "by-video")


@dataclass(frozen=True)
class ManifestRecord:
    video_id: str
    path: str
    mos: float
    scene_id: str


@dataclass(frozen=True)
class DatasetManifest:
    records: list[ManifestRecord]

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            # an id names one directory under a sidecar root
            if rec.video_id in ("", ".", "..") or "/" in rec.video_id \
                    or "\0" in rec.video_id:
                raise ManifestError(
                    f"video_id {rec.video_id!r} is not one path component")
            if rec.video_id in seen:
                raise ManifestError(f"duplicate video_id {rec.video_id!r}")
            seen.add(rec.video_id)
            if not math.isfinite(rec.mos):
                raise ManifestError(f"{rec.video_id}: non-finite mos")

    def __len__(self):
        return len(self.records)


@contextmanager
def csv_reader(path: str | Path, data: bytes | None = None):
    """A csv reader over the UTF-8 text at path, or over data, the bytes
    already read from path; a leading BOM is skipped. Bytes that do not
    decode, and a field over csv's size limit, fail as one ManifestError."""
    with (open(path, newline="", encoding="utf-8-sig") if data is None else
          io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                           newline="")) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise ManifestError(f"{path}:{reader.line_num}: {exc}") from None


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest {path} not found")
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ManifestError(
                f"{path}: header {header} != {MANIFEST_HEADER}")
        records = []
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != 4:
                raise ManifestError(f"{path}:{lineno}: expected 4 columns")
            try:
                mos = float(row[2])
            except ValueError:
                raise ManifestError(
                    f"{path}:{lineno}: bad mos {row[2]!r}") from None
            video_path = row[1]
            if not Path(video_path).is_absolute():
                video_path = str(path.absolute().parent / video_path)
            records.append(ManifestRecord(row[0], video_path, mos, row[3]))
    return DatasetManifest(records=records)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in manifest.records:
            writer.writerow([rec.video_id, rec.path, repr(float(rec.mos)),
                             rec.scene_id])
    return path


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitConfig:
    ratio: float = 0.8
    grouping: str = "by-scene"


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _groups(manifest: DatasetManifest, grouping: str) -> dict[str, list[str]]:
    """Video ids per split group, in manifest order."""
    key = (lambda r: r.scene_id) if grouping == "by-scene" else \
        (lambda r: r.video_id)
    groups: dict[str, list[str]] = {}
    for rec in manifest.records:
        groups.setdefault(key(rec), []).append(rec.video_id)
    return groups


def split(manifest: DatasetManifest, ratio: float = SplitConfig.ratio,
          grouping: str = SplitConfig.grouping, seed: int = 0) -> SplitPlan:
    """Shuffle groups by seed; the first ceil(ratio * G) groups train."""
    if grouping not in GROUPINGS:
        raise ManifestError(f"unknown grouping {grouping!r}")
    if not 0.0 < ratio < 1.0:
        raise ManifestError(f"ratio must be in (0, 1), got {ratio}")
    groups = _groups(manifest, grouping)
    names = sorted(groups)
    if len(names) < 2:
        raise ManifestError(
            f"need >= 2 groups to split, got {len(names)} ({grouping})")
    order = np.random.default_rng(seed).permutation(len(names))
    n_train = math.ceil(ratio * len(names))
    train_groups = [names[i] for i in order[:n_train]]
    test_groups = [names[i] for i in order[n_train:]]
    train_ids = tuple(vid for g in train_groups for vid in groups[g])
    test_ids = tuple(vid for g in test_groups for vid in groups[g])
    return SplitPlan(seed=seed, train_ids=train_ids, test_ids=test_ids)


# ---------------------------------------------------------------------------
# Bundle resolution


def resolve_bundle(record: ManifestRecord,
                   registry: Sequence[FeatureSource],
                   extraction: ExtractionConfig):
    """Load pixels and/or sidecars for one manifest record."""
    path = Path(record.path)
    if not path.is_dir():
        raise ManifestError(
            f"{record.video_id}: {path} is not a directory (a relative path "
            f"resolves against the manifest's directory)")
    video = load_raw_video(path) if (path / META_NAME).is_file() else None
    return assemble_bundle(video, registry, sidecar_dir=path,
                           video_id=record.video_id, extraction=extraction)


def load_bundles(manifest: DatasetManifest,
                 registry: Sequence[FeatureSource],
                 extraction: ExtractionConfig):
    """(bundle, mos) pairs in manifest order."""
    return [(resolve_bundle(rec, registry, extraction), rec.mos)
            for rec in manifest.records]


# ---------------------------------------------------------------------------
# Prediction


def predict_scores(head: FusionHead, manifest: DatasetManifest,
                   registry: Sequence[FeatureSource],
                   extraction: ExtractionConfig) -> list[tuple[str, float]]:
    """Deterministic per-video scores in manifest order."""
    _check_layout(head.layout, ConcatLayout.from_registry(registry))
    rows = []
    for rec in manifest.records:
        bundle = resolve_bundle(rec, registry, extraction)
        rows.append((rec.video_id, video_forward(bundle, head)))
    return rows


def _check_layout(expected: ConcatLayout, found: ConcatLayout) -> None:
    if expected.entries != found.entries:
        exp, got = ([astuple(e) for e in layout.entries]
                    for layout in (expected, found))
        i, (a, b) = next((i, pair) for i, pair in enumerate(
            zip_longest(exp, got)) if pair[0] != pair[1])
        raise CheckpointError(
            f"registry does not match checkpoint layout at entry {i} "
            f"({', '.join(f.name for f in fields(FeatureSource))}): "
            f"checkpoint has {a}, registry has {b}; expected {exp}, found "
            f"{got}")


def write_predictions(rows, path: str | Path) -> Path:
    """CSV of (video_id, score) with six-decimal scores; ids holding a comma,
    quote or newline are quoted, so the file reads back with csv.reader."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTION_HEADER)
        writer.writerows([vid, f"{score:.6f}"] for vid, score in rows)
    return path


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class SplitResult:
    split_seed: int
    train_seed: int
    n_train: int
    n_test: int
    report: EvalReport


@dataclass
class ExperimentReport:
    rows: list[SplitResult]
    mean_srcc: float
    mean_plcc_raw: float
    mean_plcc_4pl: float


def _split_models(manifest: DatasetManifest, bundles,
                  registry: Sequence[FeatureSource], cfg: TrainConfig,
                  protocol: SplitConfig, n: int, master_seed: int):
    """Yield (plan, train_seed, head) for n seeded splits: split k uses seed
    master_seed + k and trains on its train ids, taken from the
    video_id -> (bundle, mos) map `bundles`, with seed
    master_seed + TRAIN_SEED_STRIDE + k."""
    for k in range(n):
        plan = split(manifest, protocol.ratio, protocol.grouping,
                     seed=master_seed + k)
        train_seed = master_seed + TRAIN_SEED_STRIDE + k
        result = train([bundles[v] for v in plan.train_ids], registry,
                       replace(cfg, seed=train_seed))
        yield plan, train_seed, result.head


def _bundles_by_id(manifest: DatasetManifest,
                   registry: Sequence[FeatureSource],
                   extraction: ExtractionConfig):
    """video_id -> (bundle, mos) for every record of the manifest."""
    return {rec.video_id: pair for rec, pair in
            zip(manifest.records, load_bundles(manifest, registry, extraction))}


def run_experiment(manifest: DatasetManifest,
                   registry: Sequence[FeatureSource], cfg: TrainConfig,
                   protocol: SplitConfig, repeats: int, *, master_seed: int,
                   extraction: ExtractionConfig) -> ExperimentReport:
    """Train/evaluate on `repeats` seeded splits and average the criteria."""
    if repeats < 1:
        raise ManifestError(f"repeats must be >= 1, got {repeats}")
    ratio, grouping = protocol.ratio, protocol.grouping
    # ceil(ratio * G) does not depend on the seed: split 0 speaks for all
    if not split(manifest, ratio, grouping, seed=master_seed).test_ids:
        n_groups = len(_groups(manifest, grouping))
        raise ManifestError(
            f"ratio {ratio} leaves no test video: ceil({ratio} * {n_groups}) "
            f"= {math.ceil(ratio * n_groups)} of {n_groups} {grouping} "
            f"groups train")
    bundles = _bundles_by_id(manifest, registry, extraction)
    rows = []
    for plan, train_seed, head in _split_models(
            manifest, bundles, registry, cfg, protocol, repeats, master_seed):
        preds = [video_forward(bundles[v][0], head) for v in plan.test_ids]
        mos = [bundles[v][1] for v in plan.test_ids]
        rows.append(SplitResult(split_seed=plan.seed, train_seed=train_seed,
                                n_train=len(plan.train_ids),
                                n_test=len(plan.test_ids),
                                report=evaluate(preds, mos)))
    return ExperimentReport(
        rows=rows,
        mean_srcc=float(np.mean([r.report.srcc for r in rows])),
        mean_plcc_raw=float(np.mean([r.report.plcc_raw for r in rows])),
        mean_plcc_4pl=float(np.mean([r.report.plcc_4pl for r in rows])),
    )


def ensemble_predict(train_manifest: DatasetManifest,
                     registry: Sequence[FeatureSource], cfg: TrainConfig,
                     protocol: SplitConfig, k_splits: int, *,
                     master_seed: int, extraction: ExtractionConfig,
                     target_manifest: DatasetManifest | None = None
                     ) -> list[tuple[str, float]]:
    """Train k models on k seeded splits and average their scores per video.

    Scores are produced for target_manifest (default: the training manifest
    itself).
    """
    if k_splits < 2:
        raise ManifestError(f"k_splits must be >= 2, got {k_splits}")
    train_bundles = _bundles_by_id(train_manifest, registry, extraction)
    if target_manifest is None:
        target, target_bundles = train_manifest, train_bundles.values()
    else:
        target = target_manifest
        target_bundles = load_bundles(target, registry, extraction)

    per_model = np.array([
        [video_forward(bundle, head) for bundle, _ in target_bundles]
        for _, _, head in _split_models(train_manifest, train_bundles,
                                        registry, cfg, protocol, k_splits,
                                        master_seed)])
    return [(rec.video_id, float(s))
            for rec, s in zip(target.records, per_model.mean(axis=0))]
