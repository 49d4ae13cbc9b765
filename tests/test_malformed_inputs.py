"""Byte-level fuzzing of every file reader through the CLI: a mutated
sidecar, manifest, config file, eval CSV or meta.txt either runs (exit 0) or
fails with exit 1 and exactly one `error:` line; no other exception escapes.
An eval that runs must print the oracles' correlations of the rows it read.
The explicit examples pin inputs that once escaped as tracebacks."""

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqvqa.cli import main
from rqvqa.features import save_sidecar, toy_registry
from rqvqa.preproc import VideoFrames, save_raw_video

from test_metrics import brute_pearson, brute_spearman

# op, position (modulo the length), argument: the new byte for replace and
# insert, the number of copies for repeat
OPS = ("replace", "insert", "delete", "repeat", "truncate")
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16),
              st.one_of(st.integers(0, 255),
                        st.sampled_from(b'0123456789,"\n=-.e \x00\xff'))),
    min_size=1, max_size=3)
FIELD_LIMIT = 131073          # one character over csv's default field limit
FUZZ = settings(max_examples=60, deadline=None)
TRAIN = ["--set", "train.epochs=1", "--set", "train.lr_decay_epoch=1",
         "--set", "train.hidden=4", "--set", "train.batch_size=4"]


def mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for op, pos, arg in ops:
        if not out:
            break
        i = pos % len(out)
        if op == "replace":
            out[i] = arg % 256
        elif op == "insert":
            out.insert(i, arg % 256)
        elif op == "delete":
            del out[i]
        elif op == "repeat":
            out[i:i + 1] = out[i:i + 1] * max(arg, 1)
        else:
            del out[i:]
    return bytes(out)


def run_clean(argv) -> tuple[int, str]:
    """(exit code, stdout) of main(argv), which returns 0, or 1 with exactly
    one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (
        code, lines)
    return code, out.getvalue()


def fuzz_file(path, ops, argv):
    """(mutated bytes, exit code, stdout) of run_clean(argv) with path's
    bytes mutated by ops; path is restored."""
    original = path.read_bytes()
    data = mutate(original, ops)
    path.write_bytes(data)
    try:
        return (data, *run_clean(argv))
    finally:
        path.write_bytes(original)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Four sidecar-only toy videos with manifest.csv, a checkpoint m.ckpt
    trained on them, a config file predict runs with, an eval CSV and a raw
    video `clip` with its one-video clip.csv."""
    root = tmp_path_factory.mktemp("malformed")
    rng = np.random.default_rng(0)
    lines = ["video_id,path,mos,scene_id"]
    for v in range(4):
        for source in toy_registry():
            save_sidecar(source, rng.uniform(0.0, 1.0, (source.rows(2),
                                                        source.dim)),
                         root / f"v{v}" / f"{source.name}.rqvf")
        lines.append(f"v{v},v{v},{v}.0,s{v}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    assert run_clean(["train", "--manifest", str(root / "manifest.csv"),
                      "--out", str(root / "m.ckpt")] + TRAIN)[0] == 0
    (root / "cfg.txt").write_text(
        "# fuzzed settings\nseed = 5\nregistry = toy\ntrain.hidden = 4\n"
        "train.loss = plcc\ngms.grid_count = 4\ngms.patch_size = 8\n"
        "split.ratio = 0.5\n")
    # every mutation of a config predict rejects would stop at the same line
    assert run_clean(["predict", "--checkpoint", str(root / "m.ckpt"),
                      "--manifest", str(root / "manifest.csv"),
                      "--out", str(root / "p.csv"),
                      "--config", str(root / "cfg.txt")])[0] == 0
    (root / "eval.csv").write_text("prediction,mos\n" + "".join(
        f"{0.1 * i + 0.03 * (i % 3):.2f},{i}\n" for i in range(10)))
    frames = rng.integers(0, 256, (8, 32, 32, 3), dtype=np.uint8)
    save_raw_video(VideoFrames.from_array(frames, 4), root / "clip")
    (root / "clip.csv").write_text("video_id,path,mos,scene_id\n"
                                   "clip,clip,1.0,s0\n")
    return root


# header 'RQVF', version, name length: byte 13 is the 's' of "pixelstats"
@FUZZ
@given(MUTATIONS)
@example([("replace", 13, 0xFF)])             # a stored name not UTF-8
def test_fuzzed_sidecar(corpus, ops):
    fuzz_file(corpus / "v1" / "pixelstats.rqvf", ops,
              ["train", "--manifest", str(corpus / "manifest.csv"),
               "--out", str(corpus / "x.ckpt")] + TRAIN)


# byte 28 is the first video id's second character, byte 30 the first path's
@FUZZ
@given(MUTATIONS)
@example([("replace", 28, 0xFF)])             # not UTF-8
@example([("repeat", 28, FIELD_LIMIT)])       # a field over csv's limit
@example([("replace", 30, 0x0B)])             # a line break (VT) in a path
@example([("replace", 28, 0x00)])             # a NUL in a video id
def test_fuzzed_manifest(corpus, ops):
    fuzz = corpus / "fuzz.csv"
    fuzz.write_bytes((corpus / "manifest.csv").read_bytes())
    fuzz_file(fuzz, ops, ["train", "--manifest", str(fuzz),
                          "--out", str(corpus / "x.ckpt")] + TRAIN)


# predict reads every key, and on sidecar-only videos no value sizes any work
@FUZZ
@given(MUTATIONS)
@example([("replace", 0, 0xFF)])              # not UTF-8
def test_fuzzed_config(corpus, ops):
    fuzz_file(corpus / "cfg.txt", ops,
              ["predict", "--checkpoint", str(corpus / "m.ckpt"),
               "--manifest", str(corpus / "manifest.csv"),
               "--out", str(corpus / "p.csv"),
               "--config", str(corpus / "cfg.txt")])


# bytes 15-18 are the first prediction, "0.00"; numpy warnings are errors
@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(MUTATIONS)
@example([("replace", 0, 0xFF)])              # not UTF-8
@example([("repeat", 0, FIELD_LIMIT)])        # a field over csv's limit
@example([("replace", 15, ord("1")), ("replace", 16, ord("e")),
          ("replace", 17, ord("2")), ("insert", 19, ord("0"))])   # 1e200
def test_fuzzed_eval_csv(corpus, ops):
    data, code, out = fuzz_file(corpus / "eval.csv", ops,
                                ["eval", "--pred", str(corpus / "eval.csv")])
    if code != 0:
        return
    # the rows eval read: non-empty ones, less a non-numeric first row
    text = data.decode("utf-8-sig")
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    try:
        float(rows[0][0]), float(rows[0][1])
    except ValueError:
        rows = rows[1:]
    pred, mos = ([float(row[i]) for row in rows] for i in (0, 1))
    printed = dict(line.split("=") for line in out.splitlines())
    assert int(printed["n"]) == len(rows)
    for key, oracle in (("srcc", brute_spearman), ("plcc_raw", brute_pearson)):
        assert abs(float(printed[key]) - oracle(pred, mos)) <= 0.5e-6 + 1e-12, key


# byte 6 is the first digit of width=32; the frame files fix the video's size
@FUZZ
@given(MUTATIONS)
@example([("replace", 0, 0xFF)])              # not UTF-8
@example([("repeat", 6, 10)])                 # width=33333333332, no frames
def test_fuzzed_meta(corpus, ops):
    fuzz_file(corpus / "clip" / "meta.txt", ops,
              ["features", "--manifest", str(corpus / "clip.csv"),
               "--out", str(corpus / "features"), "--set", "gms.grid_count=4",
               "--set", "gms.patch_size=8"])
