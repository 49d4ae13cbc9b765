import csv
import json
import os
import struct
import threading
import zlib
from inspect import Parameter, signature

import numpy as np
import pytest

from rqvqa import cli
from rqvqa.cli import build_parser, main
from rqvqa.features import (
    FeatureBundle,
    backbone_registry,
    save_sidecar,
    toy_registry,
)
from rqvqa.fusion import load_checkpoint, params_from_head
from rqvqa.gms import make_plan, sample_fragments
from rqvqa.harness import (
    DatasetManifest,
    ManifestRecord,
    ensemble_predict,
    load_manifest,
    run_experiment,
    save_manifest,
)
from rqvqa.preproc import (
    VideoFrames,
    extract_chunks,
    extract_key_frames,
    load_raw_video,
    save_raw_video,
)

import eval_oracle
import toy_oracle
from conftest import DESK_CFG
from test_features import zero_count


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


SMALL_WIDTHS = dict(spatial_dim=16, temporal_dim=8, lmm_dim=12,
                    spatiotemporal_dim=10)
SIDECAR_TRAIN = ["--set", "train.epochs=2", "--set", "train.lr_decay_epoch=1",
                 "--set", "train.hidden=8", "--set", "train.mhsa_heads=2",
                 "--set", "train.batch_size=4", "--set", "registry=backbone"]


def sidecar_corpus(root, spatial_tokens, n=8):
    """Sidecar-only videos of 1-3 key frames at SMALL_WIDTHS."""
    registry = backbone_registry(**SMALL_WIDTHS, spatial_tokens=spatial_tokens)
    rng = np.random.default_rng(spatial_tokens)
    records = []
    for v in range(n):
        shape = FeatureBundle(video_id="", n_keyframes=1 + v % 3)
        for source in registry:
            rows = rng.uniform(0.0, 1.0, (shape.rows_expected(source),
                                          source.dim))
            if source.probability:
                rows /= rows.sum(axis=1, keepdims=True)
            save_sidecar(source, rows, root / f"v{v}" / f"{source.name}.rqvf")
        records.append(ManifestRecord(f"v{v}", str(root / f"v{v}"),
                                      float(v % 4), f"s{v // 2}"))
    return save_manifest(DatasetManifest(records), root / "manifest.csv")


class TestSynth(object):
    def test_manifest_written(self, workspace):
        manifest = load_manifest(workspace / "corpus" / "manifest.csv")
        assert len(manifest) == 24

    @pytest.mark.parametrize("flag", ["--width", "--height", "--fps",
                                      "--seconds", "--videos-per-scene"])
    def test_geometry_is_not_an_option(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "c"), "--n", "20", flag,
                  "2"])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == f"rqvqa: error: unrecognized arguments: {flag} 2"
        assert not (tmp_path / "c").exists()


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
        assert main(["eval", "--pred", str(pm)]) == 0
        report = capsys.readouterr().out
        for key in ("srcc=", "plcc_raw=", "plcc_4pl=", "beta1=", "beta4=",
                    "n=24"):
            assert key in report

    def test_eval_report_is_pinned(self, tmp_path, capsys):
        # a seeded 2000-row CSV: 6-decimal predictions, MOS on a 0.25 grid
        rng = np.random.default_rng(28)
        mos = np.round(rng.uniform(1.0, 5.0, 2000) * 4.0) / 4.0
        pred = np.tanh(mos - 3.0) + rng.normal(0.0, 0.3, 2000)
        path = tmp_path / "scored.csv"
        path.write_text("prediction,mos\n" + "".join(
            f"{p:.6f},{m:.2f}\n" for p, m in zip(pred, mos)))
        assert main(["eval", "--pred", str(path)]) == 0
        assert capsys.readouterr().out == (
            "srcc=0.899506\nplcc_raw=0.902667\nplcc_4pl=0.913474\n"
            "beta1=4.635152\nbeta2=1.321367\nbeta3=-0.016741\n"
            "beta4=0.440566\nn=2000\n")

    @pytest.mark.parametrize("header", ["", "prediction,mos\n"])
    def test_eval_skips_a_leading_bom(self, tmp_path, capsys, header):
        text = header + "".join(f"0.{i}3,{i}\n" for i in range(1, 7))
        reports = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(prefix + text.encode())
            assert main(["eval", "--pred", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0].endswith("n=6\n")
        assert reports[1] == reports[0]

    def test_bom_manifest_trains(self, workspace, tmp_path):
        records = load_manifest(workspace / "corpus" / "manifest.csv").records
        text = "video_id,path,mos,scene_id\n" + "".join(
            f"{r.video_id},{r.path},{r.mos!r},{r.scene_id}\n" for r in records)
        args = ["--config", str(workspace / "cfg.txt")]
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.csv").write_bytes(prefix + text.encode())
            assert main(["train", "--manifest", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / f"{name}.ckpt")] + args) == 0
        assert ((tmp_path / "bom.ckpt").read_bytes()
                == (tmp_path / "plain.ckpt").read_bytes())

    def test_predict_takes_its_sources_from_the_checkpoint(self, workspace):
        # a toy checkpoint predicts the same bytes whatever `registry` says
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        ckpt = workspace / "toy.ckpt"
        assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(ckpt)] + args) == 0
        for tag, extra in (("toy", []),
                           ("bb", ["--set", "registry=backbone"])):
            assert main(["predict", "--checkpoint", str(ckpt),
                         "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(workspace / f"{tag}.csv")]
                        + args + extra) == 0
        assert (workspace / "toy.csv").read_bytes() == \
            (workspace / "bb.csv").read_bytes()

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


# six rows that fit, as CI's eval CSV; each case below edits them
ROWS = ["0.1,1", "0.3,2", "0.2,3", "0.6,4", "0.9,5", "0.8,4.5"]
LIMIT = 131073          # one character over csv's default field limit


def _eval_case(*rows, header="prediction,mos", end="\n"):
    return ((header + end if header else "")
            + end.join(rows) + end).encode("utf-8")


# name: (file bytes, whether np.loadtxt reads them)
EVAL_CASES = {
    "header": (_eval_case(*ROWS), True),
    "no_header": (_eval_case(*ROWS, header=""), True),
    "bom": (b"\xef\xbb\xbf" + _eval_case(*ROWS), True),
    "blank_lines": (_eval_case("", *ROWS[:3], "", "", *ROWS[3:]), True),
    "space_line": (_eval_case(*ROWS[:3], "   ", *ROWS[3:]), False),
    "tab_line": (_eval_case(*ROWS[:3], "\t", *ROWS[3:]), False),
    "cr_only": (_eval_case(*ROWS, end="\r"), True),
    "crlf": (_eval_case(*ROWS, end="\r\n"), True),
    "no_final_newline": (_eval_case(*ROWS)[:-1], True),
    "header_only": (_eval_case(), False),
    "blank_body": (_eval_case("", " ", ""), False),
    "empty": (b"", False),
    "quoted_header": (_eval_case(*ROWS, header='"prediction","mos"'), True),
    "quoted": (_eval_case('"0.1","1"', *ROWS[1:]), False),
    "quoted_newline": (_eval_case('"0.1\n",1', *ROWS[1:]), False),
    # each line is short, the field is over csv's limit
    "quoted_lines_over_limit": (
        _eval_case('"0.1' + "\n" * LIMIT + '",1', *ROWS[1:]), False),
    "field_over_limit": (_eval_case("0." + "1" * LIMIT + ",1", *ROWS[1:]),
                         False),
    "spaces_around": (_eval_case(" 0.1 ,1", *ROWS[1:]), True),
    "quote_then_space": (_eval_case('"0.1" ,1', *ROWS[1:]), False),
    **{f"char_{ord(c):02x}": (_eval_case(f"0.1{c},1", *ROWS[1:]), False)
       for c in "\x0b\x0c\x1c\x1d\x1e\x1f\x00\xa0\x85"},
    "full_width_digit": (_eval_case("0.\uff11,1", *ROWS[1:]), False),
    "underscore": (_eval_case("1_0,1", *ROWS[1:]), False),
    "nan": (_eval_case("nan,1", *ROWS[1:]), True),
    "infinity": (_eval_case(*ROWS[:2], "0.2,Infinity", *ROWS[3:]), True),
    "overflow": (_eval_case("1e400,1", *ROWS[1:]), True),
    "trailing_comma": (_eval_case("0.1,1,", *ROWS[1:]), False),
    "one_column": (_eval_case(*ROWS[:3], "0.6", *ROWS[4:]), False),
    "three_columns": (_eval_case(*ROWS[:3], "0.6,4,9", *ROWS[4:]), False),
    "one_column_body": (_eval_case(*(r.split(",")[0] for r in ROWS)), False),
    "three_column_body": (_eval_case(*(r + ",9" for r in ROWS)), False),
    "non_numeric": (_eval_case(*ROWS[:3], "bad,4", *ROWS[4:]), False),
    "non_ascii_header": (_eval_case(*ROWS, header="prédiction,mos"), True),
    # the body starts 4 bytes past the header's 10 characters, not at "5,1"
    "non_ascii_header_digits": (_eval_case(*ROWS, header="éééé0.5,1"), True),
    # the header row ends past the bytes searched for it
    "long_header": (_eval_case(*ROWS, header="p" * 70000 + ",mos"), False),
    # ... and cut there, it would be a 2-column header, not a 3-column row
    "row_past_head": (_eval_case(*ROWS, header="x," + "1" * 70000 + ",1"),
                      False),
    "blank_lines_before_header": (b"\n" * 70000 + _eval_case(*ROWS), False),
}


class TestEvalParsePaths:
    """`rqvqa eval` reads a plain body with one np.loadtxt call and any other
    file with the row loop; both give the row loop's report or error."""

    @staticmethod
    def run(path, capsys):
        """(exit code, stdout, stderr) of `rqvqa eval` on path."""
        return (main(["eval", "--pred", str(path)]), *capsys.readouterr())

    def oracle_run(self, path, capsys, monkeypatch):
        """run() with the fast path off and the oracle's row loop in place,
        which reads path itself."""
        monkeypatch.setattr(cli, "_loadtxt_columns", lambda data: None)
        monkeypatch.setattr(cli, "_row_loop",
                            lambda path, data: eval_oracle.row_loop(path))
        return self.run(path, capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", EVAL_CASES)
    def test_loadtxt_path_matches_the_row_loop(self, tmp_path, capsys,
                                              monkeypatch, name):
        data, fast = EVAL_CASES[name]
        path = tmp_path / "scored.csv"
        path.write_bytes(data)
        assert (cli._loadtxt_columns(data) is not None) == fast
        got = self.run(path, capsys)
        assert got == self.oracle_run(path, capsys, monkeypatch)

    # float() reads _ as a digit separator and loadtxt refuses it, so such
    # a body goes to the row loop without a loadtxt parse
    def test_underscore_body_skips_loadtxt(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")
        monkeypatch.setattr(cli.np, "loadtxt", refuse)
        data, fast = EVAL_CASES["underscore"]
        assert not fast
        assert cli._loadtxt_columns(data) is None

    # a pipe can be read only once, whichever path takes its bytes
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("name", ["header", "crlf", "quoted",
                                      "underscore", "non_numeric"])
    def test_named_pipe_matches_the_row_loop(self, tmp_path, capsys,
                                             monkeypatch, name):
        data = EVAL_CASES[name][0]
        path = tmp_path / "scored.csv"
        os.mkfifo(path)
        done = threading.Event()

        def serve():
            path.write_bytes(data)  # blocks until eval opens the pipe
            while not done.wait(0.05):  # a second open reads no bytes
                try:
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:     # no reader has the pipe open
                    pass
        writer = threading.Thread(target=serve, daemon=True)
        writer.start()
        got = self.run(path, capsys)
        done.set()
        writer.join(timeout=10)
        assert not writer.is_alive()
        path.unlink()
        path.write_bytes(data)      # the oracle reads the same bytes
        assert got == self.oracle_run(path, capsys, monkeypatch)
        assert got[0] == (1 if name == "non_numeric" else 0)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_matches_the_row_loop(self, tmp_path, capsys,
                                                 monkeypatch, kind):
        path = tmp_path / "scored.csv"
        if kind == "directory":
            path.mkdir()
        got = self.run(path, capsys)
        assert got == self.oracle_run(path, capsys, monkeypatch)
        assert got[0] == 1 and got[2].startswith("error: ")


class TestTrainSeed:
    def test_seed_key_is_the_training_seed(self, workspace):
        corpus = workspace / "corpus"
        args = ["--config", str(workspace / "cfg.txt")]
        trained = {}
        for seed in (0, 7):
            out = workspace / f"seed{seed}.ckpt"
            assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(out), "--set", f"seed={seed}"]
                        + args) == 0
            head, cfg, master_seed = load_checkpoint(out)
            assert cfg.seed == master_seed == seed
            trained[seed] = params_from_head(head)
        assert any(not np.array_equal(trained[0][k], trained[7][k])
                   for k in trained[0])


class TestBackboneWidthsFromSidecars:
    @pytest.mark.parametrize("tokens", [0, 4])
    def test_train_predict_at_sidecar_widths(self, tmp_path, tokens):
        manifest = sidecar_corpus(tmp_path / "corpus", tokens)
        ckpt, pred = tmp_path / "m.ckpt", tmp_path / "p.csv"
        assert main(["train", "--manifest", str(manifest), "--out", str(ckpt)]
                    + SIDECAR_TRAIN) == 0
        assert main(["predict", "--checkpoint", str(ckpt), "--manifest",
                     str(manifest), "--out", str(pred)] + SIDECAR_TRAIN) == 0
        head, _, _ = load_checkpoint(ckpt)
        assert [(e.name, e.granularity, e.dim, e.token_count)
                for e in head.layout.entries] == [
            ("spatial", "tokens" if tokens else "keyframe", 16, tokens),
            ("temporal", "chunk", 8, 0),
            ("frame_quality_lmm", "keyframe", 12, 0),
            ("frame_quality_probs", "keyframe", 495, 0),
            ("spatiotemporal", "video", 10, 0)]
        assert (head.pool is not None) == bool(tokens)
        assert len(list(csv.reader(open(pred)))) == 9

    def test_experiment_at_sidecar_widths(self, tmp_path, capsys):
        # 4 scenes of 2 videos: a 0.5 split trains on 2 and tests on 2
        manifest = sidecar_corpus(tmp_path / "corpus", 4)
        assert main(["experiment", "--manifest", str(manifest),
                     "--repeats", "2", "--set", "split.ratio=0.5"]
                    + SIDECAR_TRAIN) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:4] for line in lines[:2]] == [
            ["split=0", "train_seed=100000", "n_train=4", "n_test=4"],
            ["split=1", "train_seed=100001", "n_train=4", "n_test=4"]]
        assert lines[2].split()[0] == "mean" and len(lines) == 3

    def test_video_at_other_widths_rejected(self, tmp_path, capsys):
        manifest = sidecar_corpus(tmp_path / "corpus", 0)
        _, temporal, *_ = backbone_registry(
            **{**SMALL_WIDTHS, "temporal_dim": 9})
        save_sidecar(temporal, np.zeros((3, 9)),
                     tmp_path / "corpus" / "v2" / "temporal.rqvf")
        assert main(["train", "--manifest", str(manifest), "--out",
                     str(tmp_path / "m.ckpt")] + SIDECAR_TRAIN) == 1
        err = capsys.readouterr().err.strip()
        assert err == (f"error: SidecarShapeError: "
                       f"{tmp_path / 'corpus' / 'v2' / 'temporal.rqvf'}: dim "
                       f"mismatch (file 9, source 8)")

    def test_batch_size_below_two_rejected(self, tmp_path, capsys):
        # the correlation loss needs 2 videos per batch; the config says so
        # before any video is loaded
        manifest = sidecar_corpus(tmp_path / "corpus", 0)
        for video_dir in (tmp_path / "corpus").glob("v*"):
            for sidecar in video_dir.glob("*.rqvf"):
                sidecar.unlink()
        assert main(["train", "--manifest", str(manifest), "--out",
                     str(tmp_path / "m.ckpt")] + SIDECAR_TRAIN
                    + ["--set", "train.batch_size=1"]) == 1
        err = capsys.readouterr().err.strip()
        assert err == ("error: TrainingError: batch_size must be >= 2 for "
                       "the correlation loss")
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_header_file_and_empty_manifest(self, tmp_path, capsys):
        manifest = sidecar_corpus(tmp_path / "corpus", 0)
        missing = tmp_path / "corpus" / "v0" / "frame_quality_lmm.rqvf"
        missing.unlink()
        assert main(["train", "--manifest", str(manifest), "--out",
                     str(tmp_path / "m.ckpt")] + SIDECAR_TRAIN) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: FeatureError: {missing}: ")
        assert "\n" not in err
        empty = save_manifest(DatasetManifest([]), tmp_path / "empty.csv")
        assert main(["train", "--manifest", str(empty), "--out",
                     str(tmp_path / "m.ckpt")] + SIDECAR_TRAIN) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: ManifestError: {empty}: ")
        assert "\n" not in err

    def test_token_checkpoint_on_pooled_sidecars_rejected(self, tmp_path,
                                                          capsys):
        # predict takes the sources from the checkpoint, so the first
        # sidecar that does not match them names itself
        tokens = sidecar_corpus(tmp_path / "tokens", 4)
        pooled = sidecar_corpus(tmp_path / "pooled", 0)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(tokens), "--out", str(ckpt)]
                    + SIDECAR_TRAIN) == 0
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(ckpt), "--manifest",
                     str(pooled), "--out", str(tmp_path / "p.csv")]
                    + SIDECAR_TRAIN) == 1
        err = capsys.readouterr().err
        assert err == (f"error: SidecarShapeError: "
                       f"{tmp_path / 'pooled' / 'v0' / 'spatial.rqvf'}: "
                       f"granularity mismatch (file keyframe, source "
                       f"tokens)\n")


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

    def test_sidecars_equal_the_per_frame_oracle(self, workspace, tmp_path):
        corpus = workspace / "corpus"
        assert main(["features", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(tmp_path / "cli"), "--config",
                     str(workspace / "cfg.txt")]) == 0
        registry = toy_registry()
        records = load_manifest(corpus / "manifest.csv").records
        for rec in records:
            video = load_raw_video(rec.path)
            oracle = {
                "pixelstats": toy_oracle.pixelstats_rows(
                    extract_key_frames(video)),
                "motionstats": toy_oracle.motionstats_rows(
                    extract_chunks(video)),
                "fragmentstats": toy_oracle.fragmentstats(
                    sample_fragments(extract_key_frames(video),
                                     make_plan(video.width, video.height,
                                               4, 8, 0)))[None],
            }
            for source in registry:
                name = f"{source.name}.rqvf"
                expected = save_sidecar(source, oracle[source.name],
                                        tmp_path / "oracle" / rec.video_id
                                        / name)
                written = tmp_path / "cli" / rec.video_id / name
                assert written.read_bytes() == expected.read_bytes(), (
                    rec.video_id, source.name)


class TestToyExtractionErrorsNameTheVideo:
    @pytest.mark.parametrize("video_id, shape, fps, message", [
        ("one_fps", (3, 64, 64), 1,
         "FeatureError: one_fps: motion statistics need a chunk of >= 2 "
         "frames"),
        ("tiny", (8, 16, 16), 4,
         "GeometryError: tiny: cell (0,0) is 4x4px, smaller than patch 8px "
         "(16x16 split 4x4)"),
    ])
    def test_train_error_names_the_video(self, workspace, capsys, video_id,
                                         shape, fps, message):
        frames = np.random.default_rng(0).integers(
            0, 256, size=shape + (3,), dtype=np.uint8)
        path = save_raw_video(VideoFrames.from_array(frames, fps),
                              workspace / "bad" / video_id)
        good = load_manifest(workspace / "corpus" / "manifest.csv").records
        manifest = save_manifest(
            DatasetManifest(good[:2] + [ManifestRecord(video_id, str(path),
                                                       3.0, "bad")]),
            workspace / "bad" / f"{video_id}.csv")
        capsys.readouterr()
        code = main(["train", "--manifest", str(manifest),
                     "--out", str(workspace / "bad" / "x.ckpt"),
                     "--config", str(workspace / "cfg.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestExperimentCommand:
    def test_experiment_runs(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--n", "20",
                     "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["experiment", "--manifest",
                     str(tmp_path / "manifest.csv"), "--config",
                     str(DESK_CFG), "--repeats", "1",
                     "--set", "train.epochs=1",
                     "--set", "train.lr_decay_epoch=1",
                     "--set", "train.hidden=8"]) == 0
        out = capsys.readouterr().out
        assert any(line.split()[:1] == ["mean"]
                   for line in out.splitlines()), out

    @pytest.mark.parametrize("option, message", [
        (["--repeats", "0"], "repeats must be >= 1, got 0"),
        (["--set", "split.ratio=0.99"],
         "ratio 0.99 leaves no test video: ceil(0.99 * 3) = 3 of 3 "
         "by-scene groups train")], ids=["repeats", "ratio"])
    def test_bad_protocol_one_line_error(self, tmp_path, capsys, option,
                                         message):
        # no video exists, so loading one would fail differently
        manifest = save_manifest(DatasetManifest([
            ManifestRecord(f"v{v}", str(tmp_path / f"v{v}"), float(v),
                           f"s{v % 3}") for v in range(6)]),
            tmp_path / "manifest.csv")
        assert main(["experiment", "--manifest", str(manifest),
                     *option]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: ManifestError: {message}"


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


def test_run_sizes_default_in_the_parser_only():
    parse = build_parser().parse_args
    assert parse(["experiment", "--manifest", "m"]).repeats == 5
    assert parse(["ensemble", "--train-manifest", "m", "--out", "o"]).k == 10
    # the seed and the extraction come from the config alone
    for function, size in ((run_experiment, "repeats"),
                           (ensemble_predict, "k_splits")):
        for name in (size, "master_seed", "extraction"):
            assert (signature(function).parameters[name].default
                    is Parameter.empty), name


class TestErrors:
    def test_non_finite_learning_rate_names_the_key(self, workspace, capsys):
        manifest = str(workspace / "corpus" / "manifest.csv")
        ckpt = workspace / "lr.ckpt"
        args = ["--config", str(workspace / "cfg.txt")]
        message = "learning_rate must be finite and >= 0, got nan"
        assert main(["train", "--manifest", manifest, "--out", str(ckpt),
                     "--set", "train.learning_rate=nan", *args]) == 1
        assert capsys.readouterr().err == f"error: TrainingError: {message}\n"
        assert not ckpt.exists()
        # the same value in a re-signed checkpoint header (json reads NaN)
        assert main(["train", "--manifest", manifest, "--out", str(ckpt),
                     "--set", "train.epochs=1", "--set",
                     "train.lr_decay_epoch=1", *args]) == 0
        data = ckpt.read_bytes()
        (size,) = struct.unpack_from("<I", data, 6)
        header = json.loads(data[10:10 + size])
        header["train_config"]["learning_rate"] = float("nan")
        blob = json.dumps(header).encode()
        signed = data[4:6] + struct.pack("<I", len(blob)) + blob + \
            data[10 + size:-4]
        ckpt.write_bytes(b"RQVC" + signed + struct.pack("<I",
                                                        zlib.crc32(signed)))
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(ckpt), "--manifest",
                     manifest, "--out", str(workspace / "lr.csv"),
                     *args]) == 1
        assert capsys.readouterr().err == (
            f"error: CheckpointError: {ckpt}: bad header ({message})\n")

    def test_zero_row_sidecar_names_its_file(self, tmp_path, capsys):
        # a sidecar-only toy corpus whose v1 key-frame and chunk sidecars
        # hold no row; the first one read names itself
        rng = np.random.default_rng(0)
        records = []
        for v in range(4):
            for source in toy_registry():
                save_sidecar(source, rng.uniform(0.0, 1.0, (source.rows(2),
                                                            source.dim)),
                             tmp_path / f"v{v}" / f"{source.name}.rqvf")
            records.append(ManifestRecord(f"v{v}", str(tmp_path / f"v{v}"),
                                          float(v), f"s{v}"))
        for name in ("pixelstats", "motionstats"):
            zero_count(tmp_path / "v1" / f"{name}.rqvf")
        manifest = save_manifest(DatasetManifest(records),
                                 tmp_path / "manifest.csv")
        assert main(["train", "--manifest", str(manifest), "--out",
                     str(tmp_path / "m.ckpt"), "--set", "train.epochs=1",
                     "--set", "train.lr_decay_epoch=1"]) == 1
        assert capsys.readouterr().err == (
            f"error: SidecarShapeError: "
            f"{tmp_path / 'v1' / 'pixelstats.rqvf'}: keyframe source with "
            f"count 0\n")

    def test_missing_manifest_one_line_error(self, workspace, capsys):
        code = main(["train", "--manifest", "/nonexistent.csv",
                     "--out", str(workspace / "x.ckpt")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "\n" not in err
        header = b"video_id,path,mos,scene_id\n"
        for name, row, message in (
                ("latin1.csv", b"v\xe9,v,1.0,s\n",
                 " not UTF-8 (invalid continuation byte)"),
                ("long_field.csv", b"v," + b"p" * 131073 + b",1.0,s\n",
                 "2: field larger than field limit (131072)")):
            path = workspace / name
            path.write_bytes(header + row)
            assert main(["train", "--manifest", str(path),
                         "--out", str(workspace / "x.ckpt")]) == 1
            err = capsys.readouterr().err
            assert err == f"error: ManifestError: {path}:{message}\n"

    def test_bad_config_key(self, workspace, capsys):
        code = main(["train", "--manifest",
                     str(workspace / "corpus" / "manifest.csv"),
                     "--out", str(workspace / "x.ckpt"),
                     "--set", "bogus.key=1"])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err
        latin1 = workspace / "latin1.cfg"
        latin1.write_bytes(b"# caf\xe9\nseed = 1\n")
        code = main(["train", "--manifest",
                     str(workspace / "corpus" / "manifest.csv"),
                     "--out", str(workspace / "x.ckpt"),
                     "--config", str(latin1)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: {latin1}: not UTF-8 (invalid continuation "
            f"byte)\n")

    @pytest.mark.parametrize("key", [
        "train.activation", "train.beta1", "train.beta2", "train.eps",
        "train.lr_decay_factor", "train.seed"])
    def test_fixed_training_constants_are_not_keys(self, workspace, capsys,
                                                   key):
        code = main(["train", "--manifest",
                     str(workspace / "corpus" / "manifest.csv"),
                     "--out", str(workspace / "x.ckpt"),
                     "--set", f"{key}=1"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: ConfigError: unknown config key {key!r}"

    # the sidecar headers give the widths, and whoever writes the sidecars
    # owns the branch geometry and the frames its fragments come from
    @pytest.mark.parametrize("key", [
        "registry.spatial_dim", "registry.temporal_dim", "registry.lmm_dim",
        "registry.spatiotemporal_dim", "registry.spatial_tokens",
        "preproc.keyframe_min_side", "preproc.keyframe_crop",
        "preproc.crop_mode", "preproc.crop_seed", "preproc.chunk_size",
        "gms.all_frames", "ensemble.combiner"])
    def test_registry_widths_are_not_keys(self, workspace, capsys, key):
        code = main(["train", "--manifest",
                     str(workspace / "corpus" / "manifest.csv"),
                     "--out", str(workspace / "x.ckpt"),
                     "--set", f"{key}=16"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: ConfigError: unknown config key {key!r}"

    @pytest.mark.parametrize("command,key,choices", [
        ("train", "registry", "toy, backbone"),
        ("train", "train.loss", "plcc, mse"),
        ("train", "split.grouping", "by-scene, by-video"),
        ("ensemble", "train.loss", "plcc, mse"),
        ("features", "split.grouping", "by-scene, by-video"),
        ("experiment", "split.grouping", "by-scene, by-video")])
    def test_enum_value_rejected_when_config_loads(self, workspace, tmp_path,
                                                   capsys, command, key,
                                                   choices):
        corpus = workspace / "corpus"
        out = ["--out", str(tmp_path / "never")]
        inputs = {"train": ["--manifest", str(corpus / "manifest.csv"), *out],
                  "ensemble": ["--train-manifest",
                               str(corpus / "manifest.csv"), *out],
                  "features": ["--manifest", str(corpus / "manifest.csv"),
                               *out],
                  "experiment": ["--manifest",
                                 str(corpus / "manifest.csv")]}[command]
        code = main([command, *inputs, "--set", f"{key}=mode"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == (f"error: ConfigError: {key}: expected one of "
                       f"{choices}, got 'mode'")
        assert not (tmp_path / "never").exists()

    def test_preprocess_is_not_a_command(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "--video",
                  str(workspace / "corpus" / "scene0000_v0"),
                  "--out", str(tmp_path / "never")])
        assert exc.value.code == 2
        assert "invalid choice: 'preprocess'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_gms_is_not_a_command(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gms", "--video",
                  str(workspace / "corpus" / "scene0000_v0"),
                  "--out", str(tmp_path / "never")])
        assert exc.value.code == 2
        assert "invalid choice: 'gms'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_eval_takes_no_out(self, tmp_path, capsys):
        # the report goes to stdout only
        path = tmp_path / "scored.csv"
        path.write_text("".join(f"0.{i}3,{i}\n" for i in range(1, 7)))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pred", str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == ("rqvqa: error: unrecognized arguments: --out "
                             f"{tmp_path / 'o'}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key", [
        ("train", "seed"), ("experiment", "seed"), ("ensemble", "seed"),
        ("features", "gms.seed"), ("train", "gms.seed")])
    def test_negative_seed_rejected_when_config_loads(self, workspace,
                                                      tmp_path, capsys,
                                                      command, key):
        corpus = workspace / "corpus"
        manifest = str(corpus / "manifest.csv")
        out = ["--out", str(tmp_path / "never")]
        inputs = {"train": ["--manifest", manifest, *out],
                  "experiment": ["--manifest", manifest, "--repeats", "1"],
                  "ensemble": ["--train-manifest", manifest, "--k", "2",
                               *out],
                  "features": ["--manifest", manifest, *out]}[command]
        code = main([command, *inputs, "--config",
                     str(workspace / "cfg.txt"), "--set", f"{key}=-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: ConfigError: {key}: expected an "
                                f"integer >= 0, got '-1'\n")
        assert captured.out == ""
        assert not (tmp_path / "never").exists()

    # `features` writes <out>/<video_id>/<source>.rqvf
    @pytest.mark.parametrize("video_id", [
        "../escaped", "", ".", "..", "a/b", "a\x00b"])
    def test_video_id_must_be_one_path_component(self, workspace, tmp_path,
                                                 capsys, video_id):
        records = load_manifest(workspace / "corpus" / "manifest.csv").records
        manifest = tmp_path / "m.csv"
        manifest.write_text("video_id,path,mos,scene_id\n" + "".join(
            f"{video_id if i == 0 else r.video_id},{r.path},{r.mos!r},"
            f"{r.scene_id}\n" for i, r in enumerate(records)))
        code = main(["features", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out" / "inner"),
                     "--config", str(workspace / "cfg.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: ManifestError: video_id "
                                f"{video_id!r} is not one path component\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_negative_synth_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["synth", "--out", str(out), "--n", "20",
                     "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: ManifestError: synthetic corpus needs "
                                "seed >= 0, got -1\n")
        assert captured.out == ""
        assert not out.exists()

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
        assert err == f"error: CheckpointError: {bad}: checksum mismatch"

        old = workspace / "v1.ckpt"
        data = bytearray((workspace / "t.ckpt").read_bytes())
        struct.pack_into("<H", data, 4, 1)
        old.write_bytes(bytes(data))
        code = main(["predict", "--checkpoint", str(old),
                     "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(workspace / "never.csv")] + args)
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: CheckpointError: {old}: unsupported version 1"

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
        for name, row, message in (
                ("short_row", "0.4", "6: expected 2 columns"),
                ("long_row", "0.4,4,9", "6: expected 2 columns"),
                ("long_field", "0." + "4" * 131073 + ",4",
                 "6: field larger than field limit (131072)"),
                ("latin1", "0.4,4\xe9", " not UTF-8 (invalid continuation "
                 "byte)")):
            rows[4] = row
            path = workspace / f"{name}.csv"
            path.write_bytes(("prediction,mos\n" + "\n".join(rows)
                              + "\n").encode("latin-1"))
            assert main(["eval", "--pred", str(path)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: ManifestError: {path}:{message}\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["prediction", "mos"])
    def test_eval_names_a_non_finite_value(self, workspace, capsys, bad,
                                           column):
        rows = [[f"0.{i}3", f"{i}"] for i in range(1, 6)]
        rows[1][column == "mos"] = bad
        path = workspace / f"non_finite_{column}_{bad}.csv"
        path.write_text("prediction,mos\n" + "".join(
            f"{p},{m}\n" for p, m in rows))
        assert main(["eval", "--pred", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: MetricError: {column}: value 2 of 5 "
                                f"is non-finite ({bad})\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_rejects_values_whose_squares_overflow(self, workspace,
                                                       capsys):
        path = workspace / "big.csv"
        path.write_text("prediction,mos\n1e200,1\n" + "".join(
            f"0.{i}3,{i}\n" for i in range(2, 7)))
        assert main(["eval", "--pred", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: MetricError: values too large: "
                                "their squares overflow\n")
