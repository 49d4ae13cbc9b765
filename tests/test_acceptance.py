"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Full-scale benchmark numbers are out of scope at desk scale (they need
licensed datasets and multi-GB pretrained backbones); the property and
end-to-end suites below are the release gate instead.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rqvqa.config import load_config
from rqvqa.errors import (
    SidecarChecksumError,
    SidecarMagicError,
    SidecarShapeError,
    SidecarTruncatedError,
    SidecarVersionError,
)
from rqvqa.features import (
    FeatureBundle,
    FeatureSource,
    SourceRegistry,
    load_sidecar,
    save_sidecar,
    toy_registry,
)
from rqvqa.fusion import (
    ConcatLayout,
    TrainConfig,
    backprop,
    init_params,
    plcc_loss,
    save_checkpoint,
    train,
    video_forward,
    _head_from_params,
)
from rqvqa.gms import make_plan, sample_fragments
from rqvqa.harness import (
    load_bundles,
    predict_scores,
    split,
    write_predictions,
)
from rqvqa.metrics import (
    apply_4pl,
    challenge_score,
    evaluate,
    fit_4pl,
    pearson,
    spearman,
)
from rqvqa.synthetic import make_synthetic_corpus

from conftest import DESK_CFG
from test_fusion import per_row_fused
from test_metrics import brute_pearson, brute_spearman

# the desk protocol (extraction, schedule, split); the training seed is the
# test's own
DESK = load_config(DESK_CFG)
EXTRACTION = DESK.extraction
E2E_TRAIN = replace(DESK.train, seed=100)


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = make_synthetic_corpus(root, 320, seed=7)
    registry = toy_registry()
    bundles = {rec.video_id: pair for rec, pair in zip(
        manifest.records, load_bundles(manifest, registry, EXTRACTION))}
    return manifest, registry, bundles


def test_1_desk_scale_scope():
    """Every registered feature source resolves without external weights."""
    registry = toy_registry()
    ok = all(s.toy is not None for s in registry)
    report("desk-scale-scope", ok,
           "all default sources are self-contained toy extractors; "
           "benchmark-scale backbones are out of scope")


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness


def _gradcheck_registry(with_tokens):
    sources = [
        FeatureSource("spatial_vec", "keyframe", 6, role="spatial"),
        FeatureSource("motion_vec", "chunk", 4, role="temporal"),
        FeatureSource("video_vec", "video", 5, role="video_quality"),
    ]
    if with_tokens:
        sources[0] = FeatureSource("spatial_vec", "tokens", 8, role="spatial",
                                   token_count=3)
    return SourceRegistry(sources)


def _random_batch(layout, rng, n_videos=4, n_z=2):
    batch = []
    for v in range(n_videos):
        matrices = {}
        for e in layout.entries:
            rows = 1 if e.granularity == "video" else \
                n_z * max(e.token_count, 1)
            matrices[e.name] = rng.uniform(-1.0, 1.0, size=(rows, e.dim))
        batch.append((FeatureBundle(video_id=f"v{v}", n_keyframes=n_z,
                                    matrices=matrices),
                      float(rng.uniform(1.0, 5.0))))
    return batch


def _forward_loss(batch, layout, params):
    head = _head_from_params(layout, params)
    preds = [video_forward(bundle, head) for bundle, _ in batch]
    return plcc_loss(preds, [mos for _, mos in batch])


def _relu_margin(batch, layout, params):
    """Smallest |pre-activation|; guards the FD step against ReLU kinks."""
    head = _head_from_params(layout, params)
    margin = np.inf
    for bundle, _ in batch:
        for f in per_row_fused(bundle, layout, head.pool):
            z = head.mlp.w1.T @ f + head.mlp.b1
            margin = min(margin, float(np.min(np.abs(z))))
    return margin


def test_2_gradient_correctness():
    h = 1e-6
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    worst_abs = 0.0
    attempt = 0
    while checked < 20 and attempt < 200:
        attempt += 1
        with_tokens = attempt % 2 == 0
        rng = np.random.default_rng(1000 + attempt)
        registry = _gradcheck_registry(with_tokens)
        layout = ConcatLayout.from_registry(registry)
        cfg = TrainConfig(hidden=6, mhsa_heads=2)
        params = init_params(layout, cfg, rng)
        # random biases exercise every gradient path
        params["b1"] = rng.uniform(-0.3, 0.3, size=cfg.hidden)
        params["b2"] = np.asarray(rng.uniform(-0.3, 0.3))
        batch = _random_batch(layout, rng)
        if _relu_margin(batch, layout, params) < 1e-4:
            continue  # FD would straddle a ReLU kink; draw a fresh instance
        head = _head_from_params(layout, params)
        _, grads = backprop(batch, head)
        for key, tensor in params.items():
            flat = np.asarray(tensor, dtype=np.float64).ravel()
            gflat = np.asarray(grads[key]).ravel()
            fd = np.empty_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                plus = _forward_loss(batch, layout, params)
                flat[j] = orig - h
                minus = _forward_loss(batch, layout, params)
                flat[j] = orig
                fd[j] = (plus - minus) / (2.0 * h)
            # norm-ratio relative error per tensor; differences at the FD
            # noise floor (~1e-10 for a unit-scale loss at h=1e-6) count as
            # exact agreement -- the loss is shift-invariant, so the output
            # bias has a true gradient of zero
            diff = np.linalg.norm(gflat - fd)
            worst_abs = max(worst_abs, diff)
            if diff >= 1e-8:
                rel = diff / (np.linalg.norm(gflat) + np.linalg.norm(fd)
                              + 1e-12)
                worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    report("gradient-correctness",
           checked >= 20 and worst < 1e-5 and elapsed < 30.0,
           f"{checked} instances, max rel err {worst:.2e} "
           f"(max abs diff {worst_abs:.2e}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: metric oracle equivalence


def test_3_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 1000:
        n = int(rng.integers(3, 51))
        x = rng.integers(0, 10, size=n).astype(float)  # ties guaranteed
        y = rng.integers(0, 10, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst = max(worst,
                    abs(pearson(x, y) - brute_pearson(list(x), list(y))),
                    abs(spearman(x, y) - brute_spearman(list(x), list(y))))
        count += 1
    cross = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 51))
        x = rng.uniform(0.0, 100.0, size=n)
        y = rng.uniform(0.0, 100.0, size=n)
        cross = max(cross, abs(pearson(x, y) - (1.0 - 2.0 * plcc_loss(x, y))))
    report("metric-oracle-equivalence", worst < 1e-12 and cross < 1e-9,
           f"1000 vectors, max oracle diff {worst:.2e}, "
           f"max loss cross-check diff {cross:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: monotonic logistic mapping


def test_4_logistic_mapping():
    start = time.perf_counter()
    from rqvqa.metrics import FourPLParams

    rng = np.random.default_rng(77)
    true = FourPLParams(beta1=4.6, beta2=1.2, beta3=0.1, beta4=0.55)
    pred = rng.uniform(-1.8, 2.0, size=50)
    mos = apply_4pl(true, pred)
    fit = fit_4pl(pred, mos)
    rmse = float(np.sqrt(np.mean((apply_4pl(fit, pred) - mos) ** 2)))

    mos2 = rng.uniform(1.0, 5.0, size=40)
    pred2 = np.exp(mos2) + rng.normal(0.0, 0.5, size=40)
    fit2 = fit_4pl(pred2, mos2)
    srcc_before = spearman(pred2, mos2)
    srcc_after = spearman(apply_4pl(fit2, pred2), mos2)
    rep = evaluate(np.exp(mos2), mos2)

    elapsed = time.perf_counter() - start
    ok = (rmse < 1e-6 and srcc_before == srcc_after
          and rep.plcc_4pl > rep.plcc_raw and elapsed < 10.0)
    report("logistic-mapping", ok,
           f"recovery rmse {rmse:.2e}, srcc invariance exact, "
           f"plcc_4pl {rep.plcc_4pl:.4f} > plcc_raw {rep.plcc_raw:.4f}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: end-to-end learning on the synthetic corpus


def test_5_end_to_end_learning(corpus):
    start = time.perf_counter()
    manifest, registry, bundles = corpus
    plan = split(manifest, ratio=DESK.split.ratio,
                 grouping=DESK.split.grouping, seed=0)
    train_set = [bundles[v] for v in plan.train_ids]
    result = train(train_set, registry, E2E_TRAIN)
    preds = [video_forward(bundles[v][0], result.head) for v in plan.test_ids]
    mos = [bundles[v][1] for v in plan.test_ids]
    rep = evaluate(preds, mos)
    elapsed = time.perf_counter() - start
    ok = rep.srcc >= 0.90 and rep.plcc_4pl >= 0.90 and elapsed < 300.0
    report("end-to-end-learning", ok,
           f"{len(manifest)} videos, held-out SRCC {rep.srcc:.4f}, "
           f"plcc_4pl {rep.plcc_4pl:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: correlation loss vs squared-error loss, directional


def test_6_loss_ablation_direction(corpus):
    manifest, registry, bundles = corpus
    margins = []
    for seed in range(5):
        plan = split(manifest, ratio=DESK.split.ratio,
                     grouping=DESK.split.grouping, seed=seed)
        train_set = [bundles[v] for v in plan.train_ids]
        mos = [bundles[v][1] for v in plan.test_ids]
        srcc = {}
        for loss in ("plcc", "mse"):
            cfg = replace(E2E_TRAIN, loss=loss, seed=100 + seed)
            result = train(train_set, registry, cfg)
            preds = [video_forward(bundles[v][0], result.head)
                     for v in plan.test_ids]
            srcc[loss] = spearman(preds, mos)
        margins.append(srcc["plcc"] - srcc["mse"])
    ok = all(m >= -0.02 for m in margins)
    report("loss-ablation-direction", ok,
           "plcc-minus-mse SRCC margins: "
           + ", ".join(f"{m:+.4f}" for m in margins))


# ---------------------------------------------------------------------------
# Criterion 7: fragment sampling geometry


def test_7_fragment_geometry():
    rng = np.random.default_rng(55)
    n_plans = 10_000
    for k in range(n_plans):
        grid = int(rng.integers(1, 8))
        patch = int(rng.integers(1, 12))
        width = int(rng.integers(grid * patch, 4 * grid * patch))
        height = int(rng.integers(grid * patch, 4 * grid * patch))
        seed = int(rng.integers(0, 2**31))
        plan = make_plan(width, height, grid, patch, seed)
        # coverage: one offset per cell
        assert plan.offsets.shape == (grid, grid, 2)
        # in-cell bounds
        slack_h = plan.cell_bounds[:, :, 2] - patch
        slack_w = plan.cell_bounds[:, :, 3] - patch
        assert np.all(plan.offsets[:, :, 0] >= 0)
        assert np.all(plan.offsets[:, :, 1] >= 0)
        assert np.all(plan.offsets[:, :, 0] <= slack_h)
        assert np.all(plan.offsets[:, :, 1] <= slack_w)
        # seed determinism
        again = make_plan(width, height, grid, patch, seed)
        assert np.array_equal(plan.offsets, again.offsets)
        if k % 100 == 0:
            # temporal alignment on coordinate-encoded frames
            yy, xx = np.mgrid[0:height, 0:width]
            base = np.stack([yy % 251, xx % 251, np.zeros_like(xx)],
                            axis=2).astype(np.uint8)
            frames = np.stack([base, base])
            frames[1, :, :, 2] = 1
            vol = sample_fragments(frames, plan)
            assert np.array_equal(vol[0, :, :, :2], vol[1, :, :, :2])

    # zero-slack identity, including the 224/7/32 configuration
    vid_rng = np.random.default_rng(56)
    for size, grid, patch in ((224, 7, 32), (32, 4, 8), (64, 8, 8),
                              (90, 3, 30)):
        frames = vid_rng.integers(0, 256, size=(3, size, size, 3),
                                  dtype=np.uint8)
        plan = make_plan(size, size, grid, patch, seed=9)
        vol = sample_fragments(frames, plan)
        assert np.array_equal(vol, frames)
    report("fragment-geometry", True,
           f"{n_plans} randomized plans, zero-slack identity bit-exact")


# ---------------------------------------------------------------------------
# Criterion 8: determinism and file formats


def test_8_determinism_and_formats(corpus, tmp_path):
    manifest, registry, _ = corpus
    # two independent train+predict runs from the same master seed
    artifacts = []
    for run in ("one", "two"):
        dataset = load_bundles(manifest, registry, EXTRACTION)
        cfg = replace(E2E_TRAIN, epochs=3, lr_decay_epoch=2)
        result = train(dataset, registry, cfg)
        ckpt = save_checkpoint(tmp_path / f"{run}.ckpt", result.head, cfg,
                               master_seed=7)
        rows = predict_scores(result.head, manifest, registry, EXTRACTION)
        csv_path = write_predictions(rows, tmp_path / f"{run}.csv")
        artifacts.append((ckpt.read_bytes(), csv_path.read_bytes()))
    identical = artifacts[0] == artifacts[1]

    # sidecar round trip, 1000 random matrices
    rng = np.random.default_rng(8)
    granularities = ("keyframe", "tokens", "chunk", "video")
    exact = True
    for i in range(1000):
        gran = granularities[int(rng.integers(0, 4))]
        dim = int(rng.integers(1, 24))
        tok = int(rng.integers(1, 5)) if gran == "tokens" else 0
        count = 1 if gran == "video" else int(rng.integers(1, 8))
        rows_n = count * max(tok, 1)
        src = FeatureSource(f"s{i}", gran, dim, token_count=tok)
        mat = rng.standard_normal((rows_n, dim)).astype(np.float32)
        path = save_sidecar(src, mat, tmp_path / "side" / f"{i}.rqvf")
        _, _, _, loaded = load_sidecar(path, expect=src)
        exact = exact and np.array_equal(loaded, mat)

    # corrupted sidecars raise the specified structured errors
    src = FeatureSource("probe", "keyframe", 4)
    good = save_sidecar(src, np.ones((3, 4), dtype=np.float32),
                        tmp_path / "probe.rqvf")
    blob = bytearray(good.read_bytes())
    payload_start = 8 + len(b"probe") + 13
    flip = payload_start + 2  # a byte safely inside the payload
    errors_ok = True
    for mutate, expected in (
            (lambda b: b"XXXX" + bytes(b[4:]), SidecarMagicError),
            (lambda b: bytes(b[:4]) + b"\x09\x00" + bytes(b[6:]),
             SidecarVersionError),
            (lambda b: bytes(b[:-1]), SidecarTruncatedError),
            (lambda b: bytes(b[:flip]) + bytes([b[flip] ^ 0xFF])
             + bytes(b[flip + 1:]), SidecarChecksumError)):
        bad = tmp_path / "bad.rqvf"
        bad.write_bytes(mutate(blob))
        try:
            load_sidecar(bad)
            errors_ok = False
        except expected:
            pass
    try:
        load_sidecar(good, expect=FeatureSource("probe", "keyframe", 5))
        errors_ok = False
    except SidecarShapeError:
        pass

    report("determinism-and-formats", identical and exact and errors_ok,
           "byte-identical checkpoints+CSVs, 1000 bit-exact round trips, "
           "structured corruption errors")


# ---------------------------------------------------------------------------
# Criterion 9: composite challenge score


def test_9_challenge_score():
    exact_one = challenge_score(1, 1, 1, 1) == 1.0
    exact_81 = challenge_score(0.9, 0.9, 0, 0) == 0.81
    report("challenge-score", exact_one and exact_81,
           "score(1,1,1,1)=1.0 and score(0.9,0.9,0,0)=0.81, both exact")
