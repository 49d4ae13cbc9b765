"""The attributes that `perfbench/run.py --trace 1` wraps must stay where
its tracer looks them up, or a traced run silently records nothing for a
layer; and perfbench's copy of the desk protocol must equal
configs/desk.cfg. perfbench/spans.py and perfbench/workloads.py are loaded
read-only; nothing under perfbench/ is changed."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rqvqa import fusion, harness
from rqvqa.config import load_config
from rqvqa.features import ExtractionConfig, toy_registry
from rqvqa.harness import ManifestRecord
from rqvqa.preproc import save_raw_video

from conftest import DESK_CFG, make_video
from test_fusion import token_bundle, token_registry

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    """perfbench/<name>.py as a module, registered in sys.modules first so
    that its dataclasses can look their module up."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_perfbench("spans")


def test_toy_corpus_protocol_is_the_desk_config():
    # perfbench keeps its own copy of the protocol; it must not drift
    desk = load_config(DESK_CFG)
    workloads = load_perfbench("workloads")
    toy = workloads.make_workloads()["toy-corpus"]
    assert replace(toy.train, seed=0) == desk.train
    assert workloads.TOY_EXTRACTION == desk.extraction
    assert toy.split_ratio == desk.split.ratio


def test_every_workload_states_its_sizes():
    # Pipeline.sizes reads ConcatLayout.from_registry(...).total_dim, which
    # no pass runs
    workloads = load_perfbench("workloads").make_workloads()
    fused = {name: w.sizes().get("fused_dim") for name, w in workloads.items()}
    assert fused == {"toy-corpus": 40, "backbone-vectors": 6639,
                     "backbone-tokens": 6639, "eval-csv": None}


def test_every_target_resolves(spans):
    for name, module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr)), (name, module.__name__, attr)


def test_traced_training_reaches_adam_and_attention_pool(spans, tmp_path):
    samples = [(token_bundle(seed=i, video_id=f"v{i}"), float(i % 3))
               for i in range(6)]
    cfg = fusion.TrainConfig(learning_rate=1e-3, batch_size=3, epochs=2,
                             lr_decay_epoch=1, hidden=4, mhsa_heads=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = "pass"
        result = fusion.train(samples, token_registry(), cfg)
        score = fusion.video_forward(samples[0][0], result.head)
        path = fusion.save_checkpoint(tmp_path / "m.ckpt", result.head, cfg)
        loaded, _, _ = fusion.load_checkpoint(path)
    finally:
        tracer.uninstall()
    assert np.isfinite(score)
    # the reloaded head scores bit for bit as the trained one
    reloaded = fusion.video_forward(samples[0][0], loaded)
    assert np.float64(reloaded).tobytes() == np.float64(score).tobytes()
    totals = tracer.totals("pass")
    # train looks up the module-level adam_step once per step
    assert result.trace.steps > 0
    assert totals["fusion.adam_step"]["calls"] == result.trace.steps
    # training and video_forward share one forward, which pools all token
    # grids of a mini-batch or a video with one mhsa_pool call
    assert totals["fusion.video_forward"]["calls"] == 1
    assert totals["fusion.mhsa_pool"]["calls"] == result.trace.steps + 1
    # the load span counts 8 bytes per parameter of the loaded head
    n_params = sum(int(np.prod(shape)) for shape in fusion.param_shapes(
        loaded.layout, cfg.hidden, cfg.mhsa_heads).values())
    assert totals["fusion.save_checkpoint"]["calls"] == 1
    assert totals["fusion.load_checkpoint"]["calls"] == 1
    assert totals["fusion.load_checkpoint"]["bytes"] == 8 * n_params


def test_traced_toy_resolve_reaches_every_load_layer(spans, tmp_path):
    # one resolve of a raw toy video: the extractors are looked up through
    # the module namespace, so each layer's span fires, and pixelstats runs
    # twice (key frames, then the fragment mean inside fragmentstats)
    path = save_raw_video(make_video(n_frames=12, height=16, width=16, fps=4),
                          tmp_path / "v")
    extraction = ExtractionConfig(gms_grid_count=4, gms_patch_size=4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = "pass"
        bundle = harness.resolve_bundle(
            ManifestRecord("v", str(path), 1.0, "s"), toy_registry(),
            extraction)
    finally:
        tracer.uninstall()
    assert bundle.matrices["pixelstats"].shape == (3, 16)
    totals = tracer.totals("pass")
    calls = {name: totals[name]["calls"] for name in (
        "harness.resolve_bundle", "preproc.load_raw_video",
        "features.assemble_bundle", "gms.sample_fragments",
        "features.toy_pixelstats", "features.toy_motionstats",
        "features.toy_fragmentstats")}
    assert calls == {"harness.resolve_bundle": 1, "preproc.load_raw_video": 1,
                     "features.assemble_bundle": 1, "gms.sample_fragments": 1,
                     "features.toy_pixelstats": 2,
                     "features.toy_motionstats": 1,
                     "features.toy_fragmentstats": 1}
