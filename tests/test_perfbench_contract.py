"""The attributes that `perfbench/run.py --trace 1` wraps must stay where
its tracer looks them up, or a traced run silently records nothing for a
layer. perfbench/spans.py is loaded read-only; nothing under perfbench/
is changed."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rqvqa import fusion

from test_fusion import token_bundle, token_registry

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for name, module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr)), (name, module.__name__, attr)


def test_traced_training_reaches_adam_and_attention_pool(spans):
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
    finally:
        tracer.uninstall()
    assert np.isfinite(score)
    totals = tracer.totals("pass")
    # train looks up the module-level adam_step once per step
    assert result.trace.steps > 0
    assert totals["fusion.adam_step"]["calls"] == result.trace.steps
    # training and video_forward share one forward, which pools all token
    # grids of a mini-batch or a video with one mhsa_pool call
    assert totals["fusion.video_forward"]["calls"] == 1
    assert totals["fusion.mhsa_pool"]["calls"] == result.trace.steps + 1
