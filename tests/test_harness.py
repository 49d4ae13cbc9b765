import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rqvqa import config, harness
from rqvqa.cli import main
from rqvqa.config import load_config
from rqvqa.errors import CheckpointError, ManifestError
from rqvqa.features import (
    ExtractionConfig,
    FeatureSource,
    save_sidecar,
    toy_registry,
)
from rqvqa.fusion import ConcatLayout, TrainConfig, train, video_forward
from rqvqa.harness import (
    DatasetManifest,
    ManifestRecord,
    SplitConfig,
    ensemble_predict,
    load_bundles,
    load_manifest,
    predict_scores,
    run_experiment,
    save_manifest,
    split,
    write_predictions,
)

from test_fusion import (
    build_head,
    per_row_fused,
    token_bundle,
    token_registry,
)

EXTRACTION = ExtractionConfig(gms_grid_count=4, gms_patch_size=8, gms_seed=0)
FAST_TRAIN = TrainConfig(learning_rate=1e-3, batch_size=6, epochs=4,
                         lr_decay_epoch=2, hidden=16, seed=0)


def record(i, scene):
    return ManifestRecord(f"v{i}", f"/nowhere/v{i}", float(i), scene)


def toy_manifest(n_scenes=10, per_scene=3):
    records = [record(s * per_scene + k, f"s{s}")
               for s in range(n_scenes) for k in range(per_scene)]
    return DatasetManifest(records=records)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = toy_manifest()
        path = save_manifest(manifest, tmp_path / "m.csv")
        loaded = load_manifest(path)
        assert loaded.records == manifest.records

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            DatasetManifest(records=[record(1, "a"), record(1, "a")])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,file,score,scene\n")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(path)

    def test_relative_path_resolved_against_manifest_dir(self, tmp_path,
                                                         monkeypatch):
        (tmp_path / "data").mkdir()
        path = tmp_path / "data" / "m.csv"
        path.write_text("video_id,path,mos,scene_id\n"
                        "v1,clips/v1,1.0,s1\nv2,/abs//v2/,2.0,s1\n")
        monkeypatch.chdir(tmp_path)
        for manifest_path in (path, Path("data") / "m.csv"):
            records = load_manifest(manifest_path).records
            resolved = Path(records[0].path)
            assert resolved.is_absolute()
            assert resolved.resolve() == (tmp_path / "data" / "clips" /
                                          "v1").resolve()
            assert records[1].path == "/abs//v2/"  # absolute: unchanged

    def test_synthetic_corpus_trains_from_another_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "corpus", "--n", "20"]) == 0
        with open("corpus/manifest.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(row[1] == row[0] for row in rows)  # relative: the video id
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["train", "--manifest", "../corpus/manifest.csv",
                     "--out", "m.ckpt", "--set", "train.epochs=1",
                     "--set", "train.lr_decay_epoch=1",
                     "--set", "train.hidden=8", "--set", "gms.grid_count=4",
                     "--set", "gms.patch_size=8"]) == 0

    def test_working_directory_relative_path_error_names_the_rule(
            self, tmp_path, monkeypatch, capsys):
        # written relative to the working directory, not to the manifest
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old" / "scene0000_v0").mkdir(parents=True)
        (tmp_path / "old" / "manifest.csv").write_text(
            "video_id,path,mos,scene_id\n"
            "scene0000_v0,old/scene0000_v0,1.0,s0\n")
        assert main(["train", "--manifest", "old/manifest.csv",
                     "--out", "m.ckpt"]) == 1
        err = capsys.readouterr().err.strip()
        assert err == (
            f"error: ManifestError: scene0000_v0: "
            f"{tmp_path / 'old' / 'old' / 'scene0000_v0'} is not a directory "
            f"(a relative path resolves against the manifest's directory)")

    def test_bad_mos_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("video_id,path,mos,scene_id\nv1,/x,abc,s1\n")
        with pytest.raises(ManifestError, match="bad mos"):
            load_manifest(path)


class TestSplit:
    def test_ten_scenes_80_20(self):
        plan = split(toy_manifest(n_scenes=10), ratio=0.8, seed=0)
        train_scenes = {v.split("v")[0] for v in plan.train_ids}
        assert len(plan.train_ids) == 24  # 8 scenes x 3 videos
        assert len(plan.test_ids) == 6

    def test_scene_never_leaks(self):
        manifest = toy_manifest(n_scenes=7, per_scene=4)
        by_id = {r.video_id: r.scene_id for r in manifest.records}
        for seed in range(1000):
            plan = split(manifest, grouping="by-scene", seed=seed)
            train_scenes = {by_id[v] for v in plan.train_ids}
            test_scenes = {by_id[v] for v in plan.test_ids}
            assert not train_scenes & test_scenes

    def test_disjoint_and_covering(self):
        manifest = toy_manifest()
        plan = split(manifest, seed=3)
        both = set(plan.train_ids) | set(plan.test_ids)
        assert both == {r.video_id for r in manifest.records}
        assert not set(plan.train_ids) & set(plan.test_ids)

    def test_same_seed_same_plan(self):
        manifest = toy_manifest()
        assert split(manifest, seed=9) == split(manifest, seed=9)

    def test_by_video_grouping(self):
        manifest = toy_manifest(n_scenes=3, per_scene=4)
        plan = split(manifest, grouping="by-video", ratio=0.5, seed=1)
        assert len(plan.train_ids) == 6

    def test_single_group_rejected(self):
        manifest = toy_manifest(n_scenes=1, per_scene=5)
        with pytest.raises(ManifestError, match=">= 2 groups"):
            split(manifest, grouping="by-scene")


class TestExperiment:
    def test_repeat_rows_and_mean(self, small_corpus):
        manifest, _ = small_corpus
        report = run_experiment(manifest, toy_registry(), FAST_TRAIN,
                                SplitConfig(), repeats=5, master_seed=4,
                                extraction=EXTRACTION)
        assert len(report.rows) == 5
        assert report.mean_srcc == pytest.approx(
            np.mean([r.report.srcc for r in report.rows]), abs=1e-12)
        assert report.mean_plcc_4pl == pytest.approx(
            np.mean([r.report.plcc_4pl for r in report.rows]), abs=1e-12)

    def test_fixed_seed_reproducible(self, small_corpus):
        manifest, _ = small_corpus
        a = run_experiment(manifest, toy_registry(), FAST_TRAIN,
                           SplitConfig(), repeats=2, master_seed=5,
                           extraction=EXTRACTION)
        b = run_experiment(manifest, toy_registry(), FAST_TRAIN,
                           SplitConfig(), repeats=2, master_seed=5,
                           extraction=EXTRACTION)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.report.srcc == rb.report.srcc
            assert ra.report.plcc_4pl == rb.report.plcc_4pl

    def test_empty_test_split_rejected_before_training(self):
        # 2 scenes at ratio 0.8 train ceil(1.6) = 2 groups; the paths do
        # not exist, so loading or training would fail differently
        manifest = toy_manifest(n_scenes=2, per_scene=3)
        assert split(manifest, ratio=0.8, seed=0).test_ids == ()
        with pytest.raises(ManifestError,
                           match=r"ratio 0.8 leaves no test video: "
                                 r"ceil\(0.8 \* 2\) = 2 of 2"):
            run_experiment(manifest, toy_registry(), FAST_TRAIN,
                           SplitConfig(ratio=0.8), repeats=1,
                           extraction=EXTRACTION)

    def test_protocol_sets_every_split(self, small_corpus):
        # 24 videos in 6 scenes: by video, ceil(0.6 * 24) = 15 train; by
        # scene it would be ceil(0.6 * 6) = 4 scenes, 16 videos
        manifest, _ = small_corpus
        report = run_experiment(manifest, toy_registry(), FAST_TRAIN,
                                SplitConfig(0.6, "by-video"), repeats=2,
                                extraction=EXTRACTION)
        assert [(r.n_train, r.n_test) for r in report.rows] == [(15, 9)] * 2


def hand_members(manifest, registry, k_splits, master_seed,
                 protocol=SplitConfig()):
    """Scores of every video under k member models trained by hand: split
    seed master_seed + k, training seed master_seed + 100000 + k."""
    bundles = {r.video_id: p for r, p in zip(
        manifest.records, load_bundles(manifest, registry, EXTRACTION))}
    per_model = []
    for k in range(k_splits):
        plan = split(manifest, protocol.ratio, protocol.grouping,
                     seed=master_seed + k)
        subset = [bundles[v] for v in plan.train_ids]
        res = train(subset, registry,
                    replace(FAST_TRAIN, seed=master_seed + 100000 + k))
        per_model.append([video_forward(bundles[r.video_id][0], res.head)
                          for r in manifest.records])
    return per_model


class TestEnsemble:
    def test_two_model_mean(self, small_corpus):
        """The combiners other than the default mean: the median of three
        members, and an unknown name."""
        manifest, _ = small_corpus
        registry = toy_registry()
        rows = ensemble_predict(manifest, registry, FAST_TRAIN, SplitConfig(),
                                k_splits=3, master_seed=3, combiner="median",
                                extraction=EXTRACTION)
        members = hand_members(manifest, registry, 3, 3)
        expected = np.median(members, axis=0)
        # the median must be told apart from the mean
        assert np.abs(expected - np.mean(members, axis=0)).max() > 1e-6
        assert [v for v, _ in rows] == [r.video_id for r in manifest.records]
        np.testing.assert_allclose([s for _, s in rows], expected, rtol=0,
                                   atol=1e-12)
        with pytest.raises(ManifestError, match="unknown combiner"):
            ensemble_predict(manifest, registry, FAST_TRAIN, SplitConfig(),
                             k_splits=3, combiner="mode",
                             extraction=EXTRACTION)

    def test_ensemble_matches_hand_average(self, small_corpus):
        manifest, _ = small_corpus
        registry = toy_registry()
        protocol = SplitConfig(0.6, "by-video")
        rows = ensemble_predict(manifest, registry, FAST_TRAIN, protocol,
                                k_splits=2, master_seed=6,
                                extraction=EXTRACTION)
        expected = np.mean(hand_members(manifest, registry, 2, 6, protocol),
                           axis=0)
        np.testing.assert_allclose([s for _, s in rows], expected, atol=1e-12)

    def test_training_manifest_resolved_once(self, small_corpus,
                                             monkeypatch):
        """Without a target manifest the training bundles are scored, so
        each video is resolved once, and the scores are those of an
        explicitly resolved target."""
        manifest, _ = small_corpus
        registry = toy_registry()
        explicit = ensemble_predict(manifest, registry, FAST_TRAIN,
                                    SplitConfig(), k_splits=2,
                                    target_manifest=manifest, master_seed=6,
                                    extraction=EXTRACTION)
        resolved, resolve = [], harness.resolve_bundle

        def counting(rec, *args):
            resolved.append(rec.video_id)
            return resolve(rec, *args)

        monkeypatch.setattr(harness, "resolve_bundle", counting)
        rows = ensemble_predict(manifest, registry, FAST_TRAIN, SplitConfig(),
                                k_splits=2, master_seed=6,
                                extraction=EXTRACTION)
        assert len(manifest) == 24
        assert resolved == [r.video_id for r in manifest.records]
        assert rows == explicit

    def test_k_below_two_rejected(self, small_corpus):
        manifest, _ = small_corpus
        with pytest.raises(ManifestError):
            ensemble_predict(manifest, toy_registry(), FAST_TRAIN,
                             SplitConfig(), k_splits=1)


class TestPredict:
    def test_video_score_does_not_depend_on_neighbours(self, tmp_path):
        """Each video's score is byte-equal whether it is predicted with
        its manifest, the reversed manifest, or alone; token head, 3 to 8
        key frames."""
        registry = token_registry()
        records = []
        for i, n_z in enumerate((3, 5, 8, 4)):
            bundle = token_bundle(n_z=n_z, seed=40 + i)
            for source in registry:
                save_sidecar(source, bundle.matrices[source.name],
                             tmp_path / f"v{i}" / f"{source.name}.rqvf")
            records.append(ManifestRecord(f"v{i}", str(tmp_path / f"v{i}"),
                                          float(i), f"s{i}"))
        head = build_head(ConcatLayout.from_registry(registry),
                          TrainConfig(hidden=8, mhsa_heads=2), seed=3)

        def score_bytes(recs):
            rows = predict_scores(head, DatasetManifest(records=recs),
                                  registry, EXTRACTION)
            return {vid: np.float64(score).tobytes() for vid, score in rows}

        together = score_bytes(records)
        assert score_bytes(records[::-1]) == together
        for rec in records:
            assert score_bytes([rec]) == {rec.video_id: together[rec.video_id]}

    def test_predictions_deterministic_and_formatted(self, small_corpus,
                                                     tmp_path):
        manifest, _ = small_corpus
        registry = toy_registry()
        dataset = load_bundles(manifest, registry, EXTRACTION)
        result = train(dataset, registry, FAST_TRAIN)
        rows = predict_scores(result.head, manifest, registry, EXTRACTION)
        p1 = write_predictions(rows, tmp_path / "a.csv")
        rows2 = predict_scores(result.head, manifest, registry, EXTRACTION)
        p2 = write_predictions(rows2, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "video_id,score"
        assert len(lines) == len(manifest) + 1
        score = lines[1].split(",")[1]
        assert len(score.split(".")[1]) == 6  # six decimal places

    def test_awkward_ids_round_trip(self, tmp_path):
        rows = [("plain", 1.0), ("a,b", 2.5), ('say "hi"', -0.125),
                ("two\nlines", 3.0)]
        path = write_predictions(rows, tmp_path / "p.csv")
        with path.open(newline="", encoding="utf-8") as fh:
            read = list(csv.reader(fh))
        assert read[0] == ["video_id", "score"]
        assert [(vid, float(score)) for vid, score in read[1:]] == rows
        # plain ids are written unquoted, one "\n"-terminated line each
        assert path.read_bytes().startswith(
            b"video_id,score\nplain,1.000000\n")

    def test_single_keyframe_video_scores_its_only_index(self, tmp_path):
        from rqvqa.preproc import VideoFrames
        from rqvqa.features import assemble_bundle

        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, (4, 32, 32, 3), dtype=np.uint8)
        video = VideoFrames.from_array(frames, frame_rate=4)  # N_z = 1
        registry = toy_registry()
        bundle = assemble_bundle(video, registry, extraction=EXTRACTION)
        dataset = [(bundle, 3.0),
                   (assemble_bundle(
                       VideoFrames.from_array(
                           rng.integers(0, 256, (4, 32, 32, 3),
                                        dtype=np.uint8), 4),
                       registry, extraction=EXTRACTION), 4.0)]
        result = train(dataset, registry, FAST_TRAIN)
        q_hat = video_forward(bundle, result.head)
        [f] = per_row_fused(bundle, result.head.layout)
        mlp = result.head.mlp
        q_0 = mlp.w2 @ np.maximum(mlp.w1.T @ f + mlp.b1, 0.0) + mlp.b2
        assert q_hat == pytest.approx(q_0, abs=1e-12)

    def test_registry_mismatch_not_silent(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        registry = toy_registry()
        dataset = load_bundles(manifest, registry, EXTRACTION)
        result = train(dataset, registry, FAST_TRAIN)
        smaller = (FeatureSource("pixelstats", "keyframe", 16, role="spatial",
                                 toy="pixelstats"),)
        with pytest.raises(CheckpointError, match="expected"):
            predict_scores(result.head, manifest, smaller, EXTRACTION)


    def test_layout_mismatch_names_the_first_differing_entry(self):
        # a library caller may pass any registry; the head's layout decides
        head = build_head(ConcatLayout.from_registry(token_registry()),
                          TrainConfig(hidden=4, mhsa_heads=2))
        _, motion = token_registry()
        pooled = (FeatureSource("spatial_tokens", "keyframe", 8,
                                role="spatial"), motion)
        with pytest.raises(CheckpointError) as info:
            predict_scores(head, DatasetManifest([]), pooled, EXTRACTION)
        checkpoint = ("('spatial_tokens', 'tokens', 8, 'spatial', 4, False, "
                      "None)")
        registry = ("('spatial_tokens', 'keyframe', 8, 'spatial', 0, False, "
                    "None)")
        motion = "('motionstats', 'chunk', 8, 'temporal', 0, False, " \
            "'motionstats')"
        assert str(info.value) == (
            f"registry does not match checkpoint layout at entry 0 (name, "
            f"granularity, dim, role, token_count, probability, toy): "
            f"checkpoint has {checkpoint}, registry has {registry}; "
            f"expected [{checkpoint}, {motion}], found [{registry}, "
            f"{motion}]")


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\nseed = 9\ntrain.hidden = 64\ngms.grid_count = 4\n")
        cfg = load_config(path, overrides=["train.hidden=32",
                                           "split.ratio=0.7"])
        assert cfg.seed == 9
        assert cfg.train.hidden == 32
        assert cfg.extraction.gms_grid_count == 4
        assert cfg.split.ratio == 0.7

    def test_readme_config_block_lists_every_key_with_its_default(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
        [block] = [b for b in blocks if b.lstrip().startswith("seed = ")]
        listed = {}
        for line in block.strip().splitlines():
            key, _, value = line.split("#")[0].partition("=")
            listed[key.strip()] = value.strip()
        assert set(listed) == set(config._KEYS)
        defaults = load_config()
        for key, value in listed.items():
            section, attr, parsed = config._parse_setting(key, value)
            holder = defaults if section is None else getattr(defaults,
                                                              section)
            assert parsed == getattr(holder, attr), key

    def test_unknown_key_rejected(self, tmp_path):
        from rqvqa.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides=["nope=1"])

    def test_late_decay_epoch_with_matching_epochs(self):
        cfg = load_config(None, overrides=["train.epochs=3",
                                           "train.lr_decay_epoch=2"])
        assert cfg.train.epochs == 3
