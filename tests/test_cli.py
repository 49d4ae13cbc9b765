import csv

import pytest

from rqvqa.cli import main
from rqvqa.harness import load_manifest, save_manifest
from rqvqa.preproc import load_raw_video


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + config shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "corpus"), "--n", "24",
                 "--seed", "3"]) == 0
    cfg = root / "cfg.txt"
    cfg.write_text(
        "seed = 5\n"
        "train.learning_rate = 1e-3\n"
        "train.epochs = 3\n"
        "train.lr_decay_epoch = 2\n"
        "train.hidden = 16\n"
        "gms.grid_count = 4\n"
        "gms.patch_size = 8\n")
    return root


class TestSynth(object):
    def test_manifest_written(self, workspace):
        manifest = load_manifest(workspace / "corpus" / "manifest.csv")
        assert len(manifest) == 24


class TestTrainPredictEval:
    def test_full_cycle(self, workspace, capsys):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "m.ckpt")] + args) == 0
        assert main(["predict", "--checkpoint", str(workspace / "m.ckpt"),
                     "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "p.csv")] + args) == 0
        rows = list(csv.reader(open(workspace / "p.csv")))
        assert rows[0] == ["video_id", "score"]
        assert len(rows) == 25

        manifest = load_manifest(corpus / "manifest.csv")
        mos = {r.video_id: r.mos for r in manifest.records}
        pm = workspace / "pm.csv"
        with pm.open("w") as fh:
            for vid, score in rows[1:]:
                fh.write(f"{score},{mos[vid]}\n")
        capsys.readouterr()
        assert main(["eval", "--pred", str(pm),
                     "--out", str(workspace / "report.txt")]) == 0
        report = (workspace / "report.txt").read_text()
        for key in ("srcc=", "plcc_raw=", "plcc_4pl=", "beta1=", "beta4=",
                    "n=24"):
            assert key in report

    def test_prediction_byte_identical_across_runs(self, workspace):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        for tag in ("r1", "r2"):
            assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(workspace / f"{tag}.ckpt")] + args) == 0
            assert main(["predict",
                         "--checkpoint", str(workspace / f"{tag}.ckpt"),
                         "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(workspace / f"{tag}.csv")] + args) == 0
        assert (workspace / "r1.ckpt").read_bytes() == \
            (workspace / "r2.ckpt").read_bytes()
        assert (workspace / "r1.csv").read_bytes() == \
            (workspace / "r2.csv").read_bytes()


class TestGmsDump:
    def test_dump_loadable(self, workspace):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        assert main(["gms", "--video", str(corpus / "scene0000_v0"),
                     "--out", str(workspace / "frag")] + args) == 0
        dumped = load_raw_video(workspace / "frag")
        assert dumped.width == dumped.height == 32  # 4 cells x 8 px
        assert dumped.frame_count == 2  # one fragment frame per key frame


class TestFeaturesCommand:
    def test_sidecars_written_and_reusable(self, workspace):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        assert main(["features", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "sidecars")] + args) == 0
        sc = workspace / "sidecars" / "scene0000_v0"
        assert (sc / "pixelstats.rqvf").is_file()
        assert (sc / "motionstats.rqvf").is_file()
        assert (sc / "fragmentstats.rqvf").is_file()

        # a manifest rewritten to point at sidecar-only dirs must still train
        manifest = load_manifest(corpus / "manifest.csv")
        from rqvqa.harness import DatasetManifest, ManifestRecord
        moved = DatasetManifest(records=[
            ManifestRecord(r.video_id,
                           str(workspace / "sidecars" / r.video_id),
                           r.mos, r.scene_id)
            for r in manifest.records])
        save_manifest(moved, workspace / "sidecar_manifest.csv")
        assert main(["train", "--manifest",
                     str(workspace / "sidecar_manifest.csv"),
                     "--out", str(workspace / "sc.ckpt")] + args) == 0


class TestEnsembleCommand:
    def test_ensemble_csv(self, workspace):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        assert main(["ensemble", "--train-manifest",
                     str(corpus / "manifest.csv"), "--k", "2",
                     "--out", str(workspace / "ens.csv")] + args) == 0
        rows = list(csv.reader(open(workspace / "ens.csv")))
        assert rows[0] == ["video_id", "score"]
        assert len(rows) == 25


class TestErrors:
    def test_missing_manifest_one_line_error(self, workspace, capsys):
        code = main(["train", "--manifest", "/nonexistent.csv",
                     "--out", str(workspace / "x.ckpt")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "\n" not in err

    def test_bad_config_key(self, workspace, capsys):
        code = main(["train", "--manifest",
                     str(workspace / "corpus" / "manifest.csv"),
                     "--out", str(workspace / "x.ckpt"),
                     "--set", "bogus.key=1"])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_preprocess_writes_branches(self, workspace):
        corpus = workspace / "corpus"
        out = workspace / "prep"
        assert main(["preprocess", "--video", str(corpus / "scene0000_v0"),
                     "--out", str(out),
                     "--set", "preproc.keyframe_min_side=32",
                     "--set", "preproc.keyframe_crop=32",
                     "--set", "preproc.chunk_size=16"]) == 0
        keys = load_raw_video(out / "keyframes")
        chunks = load_raw_video(out / "chunks")
        assert keys.width == keys.height == 32
        assert chunks.width == chunks.height == 16

    def test_malformed_checkpoint_one_line_error(self, workspace, capsys):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "t.ckpt")] + args) == 0
        bad = workspace / "trailing.ckpt"
        bad.write_bytes((workspace / "t.ckpt").read_bytes() + b"junk")
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(bad),
                     "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "never.csv")] + args)
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: CheckpointError: ")
        assert "trailing bytes" in err
        assert "\n" not in err

    def test_eval_rejects_non_numeric_data_row(self, workspace, capsys):
        rows = [f"{0.1 * i:.1f},{i}" for i in range(7)]
        good = workspace / "good.csv"
        good.write_text("prediction,mos\n" + "\n".join(rows) + "\n")
        assert main(["eval", "--pred", str(good)]) == 0
        assert "n=7" in capsys.readouterr().out
        rows[4] = "bad,4"
        bad = workspace / "bad_row.csv"
        bad.write_text("prediction,mos\n" + "\n".join(rows) + "\n")
        assert main(["eval", "--pred", str(bad)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ManifestError: ")
        assert f"{bad}:6: non-numeric row" in err
        assert "\n" not in err
        for name, row in (("short_row", "0.4"), ("long_row", "0.4,4,9")):
            rows[4] = row
            path = workspace / f"{name}.csv"
            path.write_text("prediction,mos\n" + "\n".join(rows) + "\n")
            assert main(["eval", "--pred", str(path)]) == 1
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ManifestError: ")
            assert f"{path}:6: expected 2 columns" in err
            assert "\n" not in err
