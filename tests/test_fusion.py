import io
import json
import struct
import zlib
from contextlib import redirect_stderr, redirect_stdout
import re
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqvqa.cli import main
from rqvqa.errors import CheckpointError, FeatureError, TrainingError
from rqvqa.features import (
    GRANULARITIES,
    ROLE_ORDER,
    TOY_EXTRACTORS,
    FeatureBundle,
    FeatureSource,
    assemble_bundle,
    backbone_registry,
    save_sidecar,
)
from rqvqa.fusion import (
    CHECKPOINT_VERSION,
    AdamState,
    ConcatLayout,
    FusionHead,
    MhsaPool,
    MlpHead,
    TrainConfig,
    adam_step,
    backprop,
    init_params,
    load_checkpoint,
    mhsa_pool,
    mse_loss,
    param_shapes,
    params_from_head,
    plcc_loss,
    plcc_loss_grad,
    save_checkpoint,
    train,
    video_forward,
    _forward,
    _fuse,
    _head_from_params,
    _mhsa_backward,
    _mlp_scores,
)


def make_pool(d=8, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    d_h = d // heads
    return MhsaPool(
        wq=rng.standard_normal((d, heads, d_h)) * 0.3,
        wk=rng.standard_normal((d, heads, d_h)) * 0.3,
        wv=rng.standard_normal((d, heads, d_h)) * 0.3,
        wo=rng.standard_normal((d, d)) * 0.3,
    )


def oracle_mhsa(tokens, pool):
    """Step-by-step dense oracle: softmax(QK^T/sqrt(dh)) V per head."""
    x = np.asarray(tokens, dtype=np.float64)
    d_h = pool.wq.shape[2]
    head_outs = []
    for h in range(pool.head_count):
        q, k, v = x @ pool.wq[:, h], x @ pool.wk[:, h], x @ pool.wv[:, h]
        scores = q @ k.T / np.sqrt(d_h)
        attn = np.empty_like(scores)
        for i in range(scores.shape[0]):
            e = np.exp(scores[i] - scores[i].max())
            attn[i] = e / e.sum()
        head_outs.append(attn @ v)
    return (np.concatenate(head_outs, axis=1) @ pool.wo).mean(axis=0)


def pool_one(grid, pool):
    """Pooled row of one (T, d) grid, through the stacked entry point."""
    return mhsa_pool(grid[None], pool)[0][0]


class TestMhsaPool:
    def test_single_token_softmax_collapses(self):
        pool = make_pool()
        token = np.random.default_rng(1).standard_normal((1, 8))
        out = pool_one(token, pool)
        # attention over one element is 1, so output = (V-proj) @ Wo
        expected = np.concatenate(
            [token[0] @ pool.wv[:, h] for h in range(2)]) @ pool.wo
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_tokens_reduce_to_single_token_case(self):
        pool = make_pool()
        row = np.random.default_rng(2).standard_normal(8)
        stacked = np.tile(row, (5, 1))
        np.testing.assert_allclose(pool_one(stacked, pool),
                                   pool_one(row[None, :], pool), atol=1e-12)

    def test_matches_dense_oracle(self):
        pool = make_pool()
        tokens = np.random.default_rng(3).standard_normal((4, 8))
        np.testing.assert_allclose(pool_one(tokens, pool),
                                   oracle_mhsa(tokens, pool), atol=1e-12)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_token_permutation(self, seed):
        pool = make_pool()
        rng = np.random.default_rng(seed)
        tokens = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out = mhsa_pool(np.stack([tokens[perm], tokens]), pool)[0]
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        pool = make_pool(d=8)
        with pytest.raises(TrainingError):
            mhsa_pool(np.zeros((1, 3, 7)), pool)
        # a bare (T, d) grid is not a stack of grids
        with pytest.raises(TrainingError):
            mhsa_pool(np.zeros((3, 8)), pool)

    def test_stacked_grids_pool_independently(self):
        pool = make_pool()
        grids = np.random.default_rng(5).standard_normal((3, 4, 8))
        out = mhsa_pool(grids, pool)[0]
        assert out.shape == (3, 8)
        for i in range(3):
            np.testing.assert_allclose(out[i], oracle_mhsa(grids[i], pool),
                                       atol=1e-12)


def toy_layout():
    return ConcatLayout(entries=(
        FeatureSource("pixelstats", "keyframe", 16),
        FeatureSource("motionstats", "chunk", 8),
        FeatureSource("fragmentstats", "video", 16),
    ))


def make_bundle(n_z=3, seed=0, video_id="v"):
    rng = np.random.default_rng(seed)
    return FeatureBundle(video_id=video_id, n_keyframes=n_z, matrices={
        "pixelstats": rng.uniform(0, 1, size=(n_z, 16)),
        "motionstats": rng.uniform(0, 1, size=(n_z, 8)),
        "fragmentstats": rng.uniform(0, 1, size=(1, 16)),
    })


class TestConcatFeatures:
    def test_broadcast_per_video_source(self):
        bundle = make_bundle()
        layout = toy_layout()
        assert layout.total_dim == 40
        rows = _fuse(bundle, layout, None)
        assert rows.shape == (3, 40)
        for row in rows:
            np.testing.assert_array_equal(
                row[24:40], bundle.matrices["fragmentstats"][0])

    def test_segment_slices(self):
        bundle = make_bundle()
        layout = toy_layout()
        rows = _fuse(bundle, layout, None)
        for i in range(3):
            np.testing.assert_array_equal(rows[i, 0:16],
                                          bundle.matrices["pixelstats"][i])
            np.testing.assert_array_equal(rows[i, 16:24],
                                          bundle.matrices["motionstats"][i])
        assert layout.slices()["motionstats"] == slice(16, 24)

    def test_single_index(self):
        bundle = make_bundle(n_z=1)
        rows = _fuse(bundle, toy_layout(), None)
        assert rows.shape == (1, 40)

    def test_from_registry_orders_by_role_then_name(self):
        registry = backbone_registry()
        order = ["spatial", "temporal", "frame_quality_lmm",
                 "frame_quality_probs", "spatiotemporal"]
        for sources in (registry, registry[::-1], list(registry)):
            layout = ConcatLayout.from_registry(sources)
            assert [e.name for e in layout.entries] == order
            assert isinstance(layout.entries, tuple)
        assert layout.total_dim == 1024 + 256 + 4096 + 495 + 768

    def test_duplicate_names_rejected(self):
        twice = (FeatureSource("a", "keyframe", 6),
                 FeatureSource("a", "chunk", 2, role="temporal"))
        with pytest.raises(FeatureError, match="^duplicate source name 'a'$"):
            ConcatLayout.from_registry(twice)
        with pytest.raises(FeatureError, match="duplicate"):
            ConcatLayout(twice[:1] * 2)

    def test_missing_source(self):
        bundle = make_bundle()
        del bundle.matrices["motionstats"]
        head = build_head(toy_layout(), TrainConfig(hidden=5))
        with pytest.raises(FeatureError, match="motionstats"):
            video_forward(bundle, head)


class TestMlpForward:
    """_mlp_scores, the row scorer under training and prediction."""

    def test_bias_pass_through(self):
        head = MlpHead(w1=np.zeros((4, 3)), b1=np.zeros(3),
                       w2=np.zeros(3), b2=0.7)
        assert _mlp_scores(np.zeros((1, 4)), head)[2][0] == pytest.approx(0.7)

    def test_relu_gates_negative_input(self):
        head = MlpHead(w1=np.array([[1.0], [0.0]]), b1=np.zeros(1),
                       w2=np.ones(1), b2=0.0)
        scores = _mlp_scores(np.array([[1.0, 0.0], [-1.0, 0.0]]), head)[2]
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((5, 7))
        b1 = rng.standard_normal(7)
        w2 = rng.standard_normal(7)
        b2 = float(rng.standard_normal())
        feats = rng.standard_normal((3, 5))
        head = MlpHead(w1=w1, b1=b1, w2=w2, b2=b2)
        scores = _mlp_scores(feats, head)[2]
        for f, score in zip(feats, scores):
            # independent hand-rolled computation, one row at a time
            hidden = np.maximum(w1.T @ f + b1, 0.0)
            assert abs(score - float(w2 @ hidden + b2)) < 1e-12


def score_head(offset=20.0):
    """Head over one 1-wide key-frame source that scores a row x as
    relu(x + offset) - offset, i.e. x for x > -offset."""
    layout = ConcatLayout(entries=(FeatureSource("x", "keyframe", 1),))
    mlp = MlpHead(w1=np.ones((1, 1)), b1=np.full(1, offset), w2=np.ones(1),
                  b2=-offset)
    return FusionHead(layout=layout, mlp=mlp)


def score_bundle(xs):
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    return FeatureBundle(video_id="v", n_keyframes=len(xs),
                         matrices={"x": xs})


class TestPoolScores:
    """video_forward averages the key-frame row scores."""

    def test_values(self):
        head = score_head(offset=0.0)
        assert video_forward(score_bundle([3.0]), head) == 3.0
        assert video_forward(score_bundle([1, 2, 3, 4]), head) == \
            pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            video_forward(score_bundle([]), score_head())

    def test_non_finite_score_rejected(self):
        head = score_head(offset=0.0)
        head.mlp.w2[:] = 1e300
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="non-finite scores"):
            video_forward(score_bundle([1e10]), head)
        # training scores through the same forward, so it rejects them too
        batch = [(score_bundle([1.0]), 1.0), (score_bundle([1e10]), 2.0)]
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="non-finite scores"):
            backprop(batch, head)

    def test_prediction_averages_like_training(self):
        # numpy 2.4's mean adds these three scores in another order than
        # np.add.reduceat, the average training takes
        xs = np.array([1.009618183538736, 0.20917557487171307,
                       0.15922500991447772])
        head = score_head(offset=0.0)
        expected = (np.add.reduceat(xs, [0]) / 3)[0]
        assert video_forward(score_bundle(xs), head) == expected
        batch = [score_bundle([2.0]), score_bundle(xs)]
        assert _forward(batch, head)[0][1] == expected

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, xs):
        rng = np.random.default_rng(len(xs))
        perm = rng.permutation(len(xs))
        head = score_head()
        pooled = video_forward(score_bundle(xs), head)
        assert video_forward(score_bundle(np.array(xs)[perm]), head) == \
            pytest.approx(pooled, abs=1e-12)
        assert pooled == pytest.approx(np.mean(xs), abs=1e-12)


class TestCorrelationLoss:
    def test_perfect_correlation_is_zero(self):
        q = np.array([1.0, 2.0, 3.5, 4.0])
        assert plcc_loss(q, q) == pytest.approx(0.0, abs=1e-7)

    def test_anti_correlation_is_one(self):
        q = np.array([1.0, 2.0, 3.5, 4.0])
        assert plcc_loss(-q + 2.0, q) == pytest.approx(1.0, abs=1e-7)

    def test_frozen_example(self):
        # hand oracle: a=[-1.5,-.5,.5,1.5], b=[1,-1,1,-1], <a,b>=-2,
        # |a|=sqrt(5), |b|=2 -> rho=-0.4472, L=0.7236
        got = plcc_loss([1, 2, 3, 4], [1, -1, 1, -1])
        assert got == pytest.approx((1 + 2 / (np.sqrt(5) * 2)) / 2, abs=1e-7)
        assert got == pytest.approx(0.7236, abs=1e-4)

    def test_length_mismatch_and_short(self):
        with pytest.raises(TrainingError):
            plcc_loss([1, 2], [1, 2, 3])
        with pytest.raises(TrainingError):
            plcc_loss([1], [1])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_range_shift_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        q_hat = rng.uniform(-5, 5, size=8)
        q = rng.uniform(1, 5, size=8)
        loss = plcc_loss(q_hat, q)
        assert 0.0 <= loss <= 1.0
        assert plcc_loss(q_hat + 3.7, q) == pytest.approx(loss, abs=1e-12)
        assert abs(plcc_loss(q_hat * 2.0, q) - loss) < 1e-6

    def test_argmin_iff_positive_affine(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.uniform(1, 5, size=10)
            # forward: positive-affine predictions achieve (near) zero loss
            assert plcc_loss(2.5 * q + 1.0, q) < 1e-6
            # reverse: a non-affine perturbation keeps the loss away from 0
            bent = q + rng.uniform(0.5, 1.0) * (q - q.mean()) ** 2
            if np.std(bent) > 1e-9:
                residual = np.linalg.lstsq(
                    np.stack([q, np.ones_like(q)], axis=1), bent,
                    rcond=None)[1]
                if residual.size and residual[0] > 1e-3:
                    assert plcc_loss(bent, q) > 1e-6


class TestCorrelationLossGrad:
    def test_zero_at_optimum(self):
        q = np.array([1.0, 2.0, 3.0, 4.5])
        grad = plcc_loss_grad(q, q)
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q_hat = rng.uniform(-2, 2, size=6)
            q = rng.uniform(1, 5, size=6)
            grad = plcc_loss_grad(q_hat, q)
            h = 1e-6
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd = (plcc_loss(q_hat + e, q) - plcc_loss(q_hat - e, q)) / (2 * h)
                denom = max(abs(fd), abs(grad[j]), 1e-10)
                assert abs(grad[j] - fd) / denom < 1e-6

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_orthogonal_to_ones(self, seed):
        rng = np.random.default_rng(seed)
        q_hat = rng.uniform(-2, 2, size=7)
        q = rng.uniform(1, 5, size=7)
        assert plcc_loss_grad(q_hat, q).sum() == pytest.approx(0.0, abs=1e-12)


def build_head(layout, cfg, seed=0, registry_token=None):
    rng = np.random.default_rng(seed)
    params = init_params(layout, cfg, rng)
    return _head_from_params(layout, params)


class TestBackprop:
    def test_zero_w2_cuts_w1_gradient(self):
        layout = toy_layout()
        cfg = TrainConfig(hidden=5)
        head = build_head(layout, cfg, seed=1)
        head.mlp.w2[:] = 0.0
        batch = [(make_bundle(seed=i, video_id=f"v{i}"), float(i))
                 for i in range(4)]
        _, grads = backprop(batch, head)
        np.testing.assert_allclose(grads["w1"], 0.0)
        np.testing.assert_allclose(grads["b1"], 0.0)
        assert np.any(grads["w2"] != 0.0)

    def test_duplicated_video_keeps_loss_computable(self):
        layout = toy_layout()
        cfg = TrainConfig(hidden=5)
        head = build_head(layout, cfg, seed=2)
        batch = [(make_bundle(seed=i, video_id=f"v{i}"), float(i))
                 for i in range(3)]
        batch.append((batch[0][0], batch[0][1]))  # duplicate with same label
        loss_value, _ = backprop(batch, head)
        # independent recomputation of the loss from forward scores
        preds = [video_forward(b, head) for b, _ in batch]
        targets = [m for _, m in batch]
        assert loss_value == pytest.approx(plcc_loss(preds, targets))

    def test_reused_gradient_buffers_are_overwritten(self):
        registry = token_registry()
        layout = ConcatLayout.from_registry(registry)
        head = build_head(layout, TrainConfig(hidden=8, mhsa_heads=2), seed=5)
        batch = [(token_bundle(seed=i, video_id=f"v{i}"), float(i))
                 for i in range(4)]
        _, fresh = backprop(batch, head)
        stale = {k: np.full_like(g, 7.0) for k, g in fresh.items()}
        _, reused = backprop(batch, head, grads=stale)
        assert reused is stale
        for k, g in fresh.items():
            np.testing.assert_array_equal(reused[k], g)
        # a Fortran-ordered wq or wk buffer would take its gradient in a
        # reshaped copy and stay stale, so it is rejected by name
        for key in ("wq", "wk"):
            fortran = {**stale, key: np.asfortranarray(stale[key])}
            with pytest.raises(TrainingError,
                               match=f"gradient buffer '{key}' is not "
                                     f"C-ordered"):
                backprop(batch, head, grads=fortran)

    def test_mse_loss_path(self):
        layout = toy_layout()
        cfg = TrainConfig(hidden=5, loss="mse")
        head = build_head(layout, cfg, seed=3)
        batch = [(make_bundle(seed=i, video_id=f"v{i}"), float(i))
                 for i in range(3)]
        loss_value, grads = backprop(batch, head, loss="mse")
        preds = [video_forward(b, head) for b, _ in batch]
        assert loss_value == pytest.approx(mse_loss(preds, [0.0, 1.0, 2.0]))
        assert set(grads) == {"w1", "b1", "w2", "b2"}


def layout_bundle(layout, n_z, seed, video_id="v"):
    """Random bundle with one matrix per layout entry."""
    rng = np.random.default_rng(seed)
    matrices = {}
    for e in layout.entries:
        matrices[e.name] = rng.uniform(-1.0, 1.0, size=(e.rows(n_z), e.dim))
    return FeatureBundle(video_id=video_id, n_keyframes=n_z,
                         matrices=matrices)


def per_row_fused(bundle, layout, pool=None):
    """Fused rows of every key frame, built by hand in layout order: the
    per-video row repeated, each token grid pooled by oracle_mhsa."""
    rows = []
    for i in range(bundle.n_keyframes):
        parts = []
        for e in layout.entries:
            mat = bundle.matrices[e.name]
            if e.granularity == "video":
                parts.append(mat[0])
            elif e.granularity == "tokens":
                t = e.token_count
                parts.append(oracle_mhsa(mat[i * t:(i + 1) * t], pool))
            else:
                parts.append(mat[i])
        rows.append(np.concatenate(parts))
    return rows


class TestBatchedMlp:
    @pytest.mark.parametrize("layout", [
        toy_layout(), ConcatLayout.from_registry(backbone_registry())],
        ids=["toy", "backbone"])
    def test_video_forward_matches_per_row_oracle(self, layout):
        head = build_head(layout, TrainConfig(hidden=16), seed=11)
        mlp = head.mlp
        for n_z in (3, 5):
            bundle = layout_bundle(layout, n_z, seed=n_z)
            scores = [mlp.w2 @ np.maximum(mlp.w1.T @ f + mlp.b1, 0.0) + mlp.b2
                      for f in per_row_fused(bundle, layout)]
            assert abs(video_forward(bundle, head) - np.mean(scores)) < 1e-12

    def test_backprop_mixed_keyframe_counts_match_per_video_loop(self):
        layout = toy_layout()
        cfg = TrainConfig(hidden=6)
        head = build_head(layout, cfg, seed=12)
        head.mlp.b1[:] = np.linspace(-0.2, 0.2, 6)
        batch = [(layout_bundle(layout, n_z, seed=20 + i, video_id=f"v{i}"),
                  float(i) + 0.5 * n_z)
                 for i, n_z in enumerate((1, 2, 5, 2))]
        loss_value, grads = backprop(batch, head)

        # per-video reference: one MLP pass and one gradient term per video
        def act(z):
            return np.maximum(z, 0.0)

        mlp = head.mlp
        cache, preds = [], []
        for bundle, _ in batch:
            feats = np.stack(per_row_fused(bundle, layout))
            z = feats @ mlp.w1 + mlp.b1
            preds.append(np.mean(act(z) @ mlp.w2 + mlp.b2))
            cache.append((feats, z))
        targets = [mos for _, mos in batch]
        assert loss_value == pytest.approx(plcc_loss(preds, targets),
                                           abs=1e-12)
        dpred = plcc_loss_grad(preds, targets)
        ref = {k: np.zeros_like(g) for k, g in grads.items()}
        for (feats, z), d in zip(cache, dpred):
            u = d / len(feats)
            ref["w2"] += u * act(z).sum(axis=0)
            ref["b2"] += u * len(feats)
            dz = (u * mlp.w2) * (z > 0.0)
            ref["w1"] += feats.T @ dz
            ref["b1"] += dz.sum(axis=0)
        for k in ref:
            np.testing.assert_allclose(grads[k], ref[k], rtol=0, atol=1e-12)

    def test_token_backprop_mixed_keyframe_counts_match_per_video_loop(self):
        registry = token_registry()
        layout = ConcatLayout.from_registry(registry)
        head = build_head(layout, TrainConfig(hidden=8, mhsa_heads=2), seed=13)
        batch = [(token_bundle(n_z=n_z, seed=30 + i, video_id=f"v{i}"),
                  float(i))
                 for i, n_z in enumerate((1, 2, 5))]
        _, grads = backprop(batch, head)

        mlp, pool = head.mlp, head.pool
        w1_token = mlp.w1[layout.slices()["spatial_tokens"]]
        per_video = []
        for bundle, _ in batch:
            grids = bundle.matrices["spatial_tokens"].reshape(
                bundle.n_keyframes, 4, 8)
            pooled, mhsa_cache = mhsa_pool(grids, pool)
            feats = np.hstack([pooled, bundle.matrices["motionstats"]])
            z = feats @ mlp.w1 + mlp.b1
            per_video.append((feats, z, mhsa_cache))
        preds = [np.mean(np.maximum(z, 0.0) @ mlp.w2 + mlp.b2)
                 for _, z, _ in per_video]
        dpred = plcc_loss_grad(preds, [mos for _, mos in batch])
        ref = {k: np.zeros_like(g) for k, g in grads.items()}
        for (feats, z, mhsa_cache), d in zip(per_video, dpred):
            dz = (d / len(feats) * mlp.w2) * (z > 0.0)
            ref["w1"] += feats.T @ dz
            term = {k: np.zeros_like(g) for k, g in grads.items()}
            _mhsa_backward(dz @ w1_token.T, pool, mhsa_cache, term)
            for k in ("wq", "wk", "wv", "wo"):
                ref[k] += term[k]
        for k in ("w1", "wq", "wk", "wv", "wo"):
            np.testing.assert_allclose(grads[k], ref[k], rtol=0, atol=1e-12)

    def test_wrong_source_width_is_a_training_error(self):
        layout = toy_layout()
        head = build_head(layout, TrainConfig(hidden=5), seed=14)
        narrow = make_bundle(seed=1, video_id="narrow")
        narrow.matrices["pixelstats"] = narrow.matrices["pixelstats"][:, :15]
        batch = [(make_bundle(seed=0, video_id="ok"), 1.0), (narrow, 2.0)]
        with pytest.raises(TrainingError, match="pixelstats"):
            video_forward(narrow, head)
        with pytest.raises(TrainingError, match="pixelstats"):
            backprop(batch, head)
        # a head whose w1 disagrees with the layout width
        head.mlp.w1 = head.mlp.w1[:39]
        with pytest.raises(TrainingError, match="head input width 39"):
            video_forward(make_bundle(), head)
        with pytest.raises(TrainingError, match="head input width 39"):
            backprop(batch[:1] * 2, head)

    def test_non_finite_row_is_a_training_error(self):
        layout = toy_layout()
        head = build_head(layout, TrainConfig(hidden=5), seed=15)
        bad = make_bundle(seed=1, video_id="bad")
        bad.matrices["motionstats"][2, 3] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            video_forward(bad, head)
        with pytest.raises(TrainingError, match="non-finite"):
            backprop([(make_bundle(seed=0, video_id="ok"), 1.0), (bad, 2.0)],
                     head)


def textbook_adam(params, grads, m, v, t, cfg, epoch):
    """Out-of-place reference with the fixed constants (betas 0.9 and 0.999,
    eps 1e-8, 10x decay): fresh arrays, nothing mutated."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    if epoch >= cfg.lr_decay_epoch:
        lr /= 10.0
    new_p, new_m, new_v = {}, {}, {}
    for k in params:
        g = grads[k]
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        m_hat = new_m[k] / (1.0 - beta1 ** t)
        v_hat = new_v[k] / (1.0 - beta2 ** t)
        new_p[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        before = params["w"].copy()
        grads = {"w": np.zeros(2)}
        cfg = TrainConfig()
        new_params, _ = adam_step(params, grads, AdamState.zeros(params),
                                  t=1, cfg=cfg)
        np.testing.assert_array_equal(new_params["w"], before)
        # existing moments decay toward zero under further zero gradients
        state = AdamState.zeros(params)
        state.m["w"][:] = 0.5
        state.v["w"][:] = 0.5
        _, new_state = adam_step(params, grads, state, t=2, cfg=cfg)
        assert np.all(np.abs(new_state.m["w"]) < 0.5)
        assert np.all(new_state.v["w"] < 0.5)

    def test_updates_in_place(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.zeros(())}
        grads = {"w": np.array([0.5, 0.25]), "b": np.asarray(-1.0)}
        state = AdamState.zeros(params)
        arrays = [params["w"], params["b"], state.m["w"], state.v["b"]]
        new_params, new_state = adam_step(params, grads, state, t=1,
                                          cfg=TrainConfig(learning_rate=1e-3))
        assert new_params is params and new_state is state
        after = [params["w"], params["b"], state.m["w"], state.v["b"]]
        assert all(a is b for a, b in zip(arrays, after))
        assert np.all(params["w"] < [1.0, -2.0]) and params["b"] > 0.0
        np.testing.assert_array_equal(grads["w"], [0.5, 0.25])

    def test_single_step_from_zero_state(self):
        g = np.array([0.3, -2.0, 0.0001])
        params = {"w": np.zeros(3)}
        cfg = TrainConfig(learning_rate=1e-3)
        new_params, _ = adam_step(params, {"w": g}, AdamState.zeros(params),
                                  t=1, cfg=cfg)
        expected = -1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(new_params["w"], expected, rtol=1e-12)

    def test_lr_decay_at_epoch_threshold(self):
        g = np.array([1.0])
        params = {"w": np.zeros(1)}
        cfg = TrainConfig(learning_rate=1e-5)
        stepped, _ = adam_step(params, {"w": g}, AdamState.zeros(params),
                               t=1, cfg=cfg, epoch=10)
        # effective lr 1e-6 once epoch >= 10
        assert stepped["w"][0] == pytest.approx(-1e-6, rel=1e-6)
        params = {"w": np.zeros(1)}
        stepped, _ = adam_step(params, {"w": g}, AdamState.zeros(params),
                               t=1, cfg=cfg, epoch=9)
        assert stepped["w"][0] == pytest.approx(-1e-5, rel=1e-6)

    def test_bit_identical_to_out_of_place_formula(self):
        rng = np.random.default_rng(11)
        shapes = {"w1": (7, 5), "b1": (5,), "b2": ()}
        # weights on the scale of one step, so a last-bit change in the
        # step survives the subtraction
        params = {k: np.asarray(rng.standard_normal(s) * 1e-3)
                  for k, s in shapes.items()}
        # a column-major tensor must be updated in place all the same
        params["w1"] = np.asfortranarray(params["w1"])
        cfg = TrainConfig(learning_rate=3e-3, epochs=4, lr_decay_epoch=2)
        state = AdamState.zeros(params)
        ref_p = {k: p.copy() for k, p in params.items()}
        ref_m = {k: m.copy() for k, m in state.m.items()}
        ref_v = {k: v.copy() for k, v in state.v.items()}
        # steps 1-2 before the decay epoch, 3-4 after it
        for t, epoch in ((1, 0), (2, 1), (3, 2), (4, 3)):
            grads = {k: rng.standard_normal(s) * 10.0 ** -t
                     for k, s in shapes.items()}
            grads["b2"] = np.asarray(grads["b2"])
            ref_p, ref_m, ref_v = textbook_adam(ref_p, grads, ref_m, ref_v,
                                                t, cfg, epoch)
            adam_step(params, grads, state, t, cfg, epoch=epoch)
            for k in shapes:
                assert params[k].tobytes() == ref_p[k].tobytes()
                assert state.m[k].tobytes() == ref_m[k].tobytes()
                assert state.v[k].tobytes() == ref_v[k].tobytes()

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.zeros(1)}
        with pytest.raises(TrainingError):
            adam_step(params, {"w": np.array([np.nan])},
                      AdamState.zeros(params), t=1, cfg=TrainConfig())

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(lr_decay_epoch=40, epochs=30)
        with pytest.raises(TrainingError):
            TrainConfig(loss="huber")


def toy_training_registry():
    return (
        FeatureSource("pixelstats", "keyframe", 16, role="spatial",
                      toy="pixelstats"),
        FeatureSource("motionstats", "chunk", 8, role="temporal",
                      toy="motionstats"),
        FeatureSource("fragmentstats", "video", 16, role="video_quality",
                      toy="fragmentstats"),
    )


def affine_dataset(n=24, seed=0):
    """MOS is an affine function of one feature column."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        bundle = make_bundle(seed=100 + i, video_id=f"v{i}")
        mos = 1.0 + 4.0 * bundle.matrices["pixelstats"][:, 0].mean()
        samples.append((bundle, mos))
    return samples


class TestTrain:
    def test_learns_affine_target(self):
        from rqvqa.metrics import spearman
        samples = affine_dataset(n=30)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=6, epochs=60,
                          lr_decay_epoch=50, hidden=32, seed=0)
        result = train(samples, toy_training_registry(), cfg)
        preds = [video_forward(b, result.head) for b, _ in samples]
        mos = [m for _, m in samples]
        assert spearman(preds, mos) >= 0.99

    def test_same_seed_bit_identical(self):
        samples = affine_dataset(n=12)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3,
                          lr_decay_epoch=2, hidden=8, seed=5)
        r1 = train(samples, toy_training_registry(), cfg)
        r2 = train(samples, toy_training_registry(), cfg)
        for k, v in params_from_head(r1.head).items():
            np.testing.assert_array_equal(v, params_from_head(r2.head)[k])
        assert r1.trace.epoch_losses == r2.trace.epoch_losses

    def test_zero_lr_keeps_initialization(self):
        samples = affine_dataset(n=12)
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, epochs=2,
                          lr_decay_epoch=1, hidden=8, seed=6)
        result = train(samples, toy_training_registry(), cfg)
        rng = np.random.default_rng(6)
        expected = init_params(toy_layout(), cfg, rng)
        for k, v in params_from_head(result.head).items():
            np.testing.assert_array_equal(v, expected[k])

    def test_constant_label_batches_skipped(self):
        samples = [(make_bundle(seed=i, video_id=f"v{i}"), 3.0)
                   for i in range(8)]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                          lr_decay_epoch=1, hidden=8, seed=7)
        result = train(samples, toy_training_registry(), cfg)
        assert result.trace.steps == 0
        assert result.trace.skipped_batches == 4

    def test_one_video_tail_batch_skipped(self):
        # 7 videos at batch size 6: each epoch's last batch holds one video,
        # which gives the correlation loss nothing to correlate
        samples = [(make_bundle(seed=i, video_id=f"v{i}"), float(i))
                   for i in range(7)]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, epochs=2,
                          lr_decay_epoch=1, hidden=8, seed=3)
        trace = train(samples, toy_training_registry(), cfg).trace
        assert (trace.steps, trace.skipped_batches) == (2, 0)
        assert len(trace.epoch_losses) == 2
        assert all(np.isfinite(trace.epoch_losses))

    def test_too_few_videos_rejected(self):
        with pytest.raises(TrainingError):
            train(affine_dataset(n=1), toy_training_registry(), TrainConfig())

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-5])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        message = f"learning_rate must be finite and >= 0, got {lr!r}"
        with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
            TrainConfig(learning_rate=lr)


def token_registry(d=8, t=4):
    return (
        FeatureSource("spatial_tokens", "tokens", d, role="spatial",
                      token_count=t),
        FeatureSource("motionstats", "chunk", 8, role="temporal",
                      toy="motionstats"),
    )


def token_bundle(n_z=2, d=8, t=4, seed=0, video_id="v"):
    rng = np.random.default_rng(seed)
    return FeatureBundle(video_id=video_id, n_keyframes=n_z, matrices={
        "spatial_tokens": rng.uniform(0, 1, size=(n_z * t, d)),
        "motionstats": rng.uniform(0, 1, size=(n_z, 8)),
    })


class TestAttentionPoolTraining:
    def test_train_and_predict_through_attention_pool(self, tmp_path):
        registry = token_registry()
        samples = [(token_bundle(seed=i, video_id=f"v{i}"), float(i % 5))
                   for i in range(12)]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3,
                          lr_decay_epoch=2, hidden=8, mhsa_heads=2, seed=3)
        result = train(samples, registry, cfg)
        assert result.head.pool is not None
        assert result.trace.steps > 0
        # checkpoint round trip preserves predictions bit for bit
        path = save_checkpoint(tmp_path / "m.ckpt", result.head, cfg, 0)
        loaded, _, _ = load_checkpoint(path)
        in_memory = [video_forward(b, result.head) for b, _ in samples]
        reloaded = [video_forward(b, loaded) for b, _ in samples]
        assert np.array(reloaded).tobytes() == np.array(in_memory).tobytes()

    def test_video_forward_matches_per_keyframe_oracle(self):
        registry = token_registry()
        layout = ConcatLayout.from_registry(registry)
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        head = build_head(layout, cfg, seed=8)
        bundle = token_bundle(n_z=4, seed=9)
        grids = bundle.matrices["spatial_tokens"].reshape(4, 4, 8)
        scores = []
        for i in range(4):
            f = np.concatenate([oracle_mhsa(grids[i], head.pool),
                                bundle.matrices["motionstats"][i]])
            hidden = np.maximum(head.mlp.w1.T @ f + head.mlp.b1, 0.0)
            scores.append(head.mlp.w2 @ hidden + head.mlp.b2)
        assert abs(video_forward(bundle, head) - np.mean(scores)) < 1e-12

    def test_pool_params_receive_gradient(self):
        registry = token_registry()
        layout = ConcatLayout.from_registry(registry)
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        rng = np.random.default_rng(4)
        params = init_params(layout, cfg, rng)
        head = _head_from_params(layout, params)
        batch = [(token_bundle(seed=i, video_id=f"v{i}"), float(i))
                 for i in range(4)]
        _, grads = backprop(batch, head)
        for key in ("wq", "wk", "wv", "wo"):
            assert np.any(grads[key] != 0.0)

    def test_fortran_ordered_pool_gets_the_same_gradients(self):
        # the wq/wk gradients are written through (d, d) views of the
        # gradient buffers, which must not inherit the weights' order
        layout = ConcatLayout.from_registry(token_registry())
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        head = build_head(layout, cfg, seed=6)
        fortran = build_head(layout, cfg, seed=6)
        for key in ("wq", "wk", "wv"):
            weight = np.asfortranarray(getattr(fortran.pool, key))
            assert not weight.flags.c_contiguous
            setattr(fortran.pool, key, weight)
        batch = [(token_bundle(n_z=1 + i % 3, seed=i, video_id=f"v{i}"),
                  float(i)) for i in range(4)]
        loss_c, grads_c = backprop(batch, head)
        loss_f, grads_f = backprop(batch, fortran)
        assert loss_f == loss_c
        for key in ("wq", "wk", "wv", "wo"):
            assert np.any(grads_c[key] != 0.0), key
        for key, grad in grads_c.items():
            assert grads_f[key].tobytes() == grad.tobytes(), key

    def test_init_draws_in_table_order_with_fan_in_bounds(self):
        layout = ConcatLayout.from_registry(token_registry())
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        params = init_params(layout, cfg, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for key, fan_in in (("w1", 16), ("w2", 8), ("wq", 8), ("wk", 8),
                            ("wv", 8), ("wo", 8)):
            bound = 1.0 / np.sqrt(fan_in)
            np.testing.assert_array_equal(
                params[key],
                rng.uniform(-bound, bound, size=params[key].shape))
        assert not params["b1"].any() and not params["b2"].any()

    def test_head_is_a_view_of_its_params(self):
        layout = ConcatLayout.from_registry(token_registry())
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        params = init_params(layout, cfg, np.random.default_rng(0))
        assert {k: v.shape for k, v in params.items()} == param_shapes(
            layout, 8, 2)
        head = _head_from_params(layout, params)
        assert head.pool.head_count == 2
        # (d, heads, d_head): the joined projection is a view, not a copy
        assert head.pool.wq.shape == (8, 2, 4)
        assert np.shares_memory(head.pool.wq.reshape(8, 8), params["wq"])
        params["b2"] += 0.5
        assert head.mlp.b2 == 0.5
        for key, value in params_from_head(head).items():
            assert np.shares_memory(value, params[key]), key

    def test_heads_must_divide_token_dim(self):
        registry = token_registry(d=8)
        samples = [(token_bundle(seed=i, video_id=f"v{i}"), float(i))
                   for i in range(4)]
        cfg = TrainConfig(hidden=8, mhsa_heads=3, batch_size=2, epochs=1,
                          lr_decay_epoch=1)
        with pytest.raises(TrainingError, match="divide"):
            train(samples, registry, cfg)

    def test_tokens_source_requires_pool(self):
        layout = ConcatLayout.from_registry(token_registry())
        head = build_head(layout, TrainConfig(hidden=8, mhsa_heads=2))
        head.pool = None
        with pytest.raises(TrainingError, match="attention pool"):
            video_forward(token_bundle(), head)


def sidecar_bundles(root, spatial_tokens, n=8):
    """Sidecar-resolved bundles of 1-8 key frames at small backbone widths,
    their float64 copies, the registry and the videos' MOS."""
    registry = backbone_registry(spatial_dim=16, temporal_dim=8, lmm_dim=12,
                                 spatiotemporal_dim=10,
                                 spatial_tokens=spatial_tokens)
    rng = np.random.default_rng(spatial_tokens + 11)
    bundles = []
    for v in range(n):
        for source in registry:
            rows = rng.uniform(0.0, 1.0, (source.rows(1 + v), source.dim))
            if source.probability:
                rows /= rows.sum(axis=1, keepdims=True)
            save_sidecar(source, rows, root / f"v{v}" / f"{source.name}.rqvf")
        bundles.append(assemble_bundle(None, registry, root / f"v{v}",
                                       video_id=f"v{v}"))
    copies = [FeatureBundle(b.video_id, b.n_keyframes, {
        name: mat.astype(np.float64) for name, mat in b.matrices.items()})
        for b in bundles]
    return registry, bundles, copies, [float(v % 3) for v in range(n)]


@pytest.mark.parametrize("spatial_tokens", [0, 4], ids=["pooled", "tokens"])
class TestFloat32Sidecars:
    """A sidecar source stays float32 in its bundle, and _forward casts the
    fused rows to float64 exactly, so every output equals that of a float64
    copy of the bundle, bit for bit."""

    def test_forward_and_gradients_match_float64_copy(self, tmp_path,
                                                      spatial_tokens):
        registry, bundles, copies, mos = sidecar_bundles(tmp_path,
                                                         spatial_tokens)
        assert bundles[0].matrices["spatial"].dtype == np.float32
        head = build_head(ConcatLayout.from_registry(registry),
                          TrainConfig(hidden=8, mhsa_heads=2), seed=1)
        for bundle, copy in zip(bundles, copies):
            assert video_forward(bundle, head) == video_forward(copy, head)
        _, grads = backprop(list(zip(bundles, mos)), head)
        _, expected = backprop(list(zip(copies, mos)), head)
        assert set(grads) == set(expected)
        for key in grads:
            assert grads[key].tobytes() == expected[key].tobytes(), key

    def test_checkpoint_bytes_match_float64_copy(self, tmp_path,
                                                 spatial_tokens):
        registry, bundles, copies, mos = sidecar_bundles(tmp_path,
                                                         spatial_tokens)
        assert bundles[0].matrices["spatial"].dtype == np.float32
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                          lr_decay_epoch=1, hidden=8, mhsa_heads=2, seed=3)
        saved = [save_checkpoint(tmp_path / f"{name}.ckpt",
                                 train(list(zip(data, mos)), registry,
                                       cfg).head, cfg, 0)
                 for name, data in (("f32", bundles), ("f64", copies))]
        assert saved[0].read_bytes() == saved[1].read_bytes()


# (key, value) mutations of a fuzzed layout spec: values in and out of each
# key's set, mistyped ones, a dropped key and an added one
DROP = object()
MUTATIONS = (
    [(key, DROP) for key in ("name", "granularity", "dim", "role",
                             "token_count", "probability", "toy")]
    + [("extra", 1), ("name", ""), ("name", "other"), ("name", 5)]
    + [("granularity", g) for g in (*GRANULARITIES, "frame", None)]
    + [("role", r) for r in (*ROLE_ORDER, "quality")]
    + [("dim", d) for d in (0, -1, 1, 8, 16, 16.0, 8.0, "16", True)]
    + [("token_count", t) for t in (0, -1, 1, 4, 4.0, True)]
    + [("probability", b) for b in (True, False, "yes", 1)]
    + [("toy", t) for t in (None, *TOY_EXTRACTORS, "lumastats", 0)])

def edit(target, key, value):
    """target[key] = value, or drop the key when value is DROP."""
    if value is DROP:
        target.pop(key, None)
    else:
        target[key] = value


# (section, key, value) mutations of a fuzzed header's train_config (section
# "train_config") and seed (section None): values in and out of each key's
# range, mistyped ones, a dropped key and an added one
INT_VALUES = (1, 2, 4, 30, 2.5, 4.0, True, "4", None)
CONFIG_MUTATIONS = (
    [(None, "seed", v) for v in (0, 7, -1, "x", [1, 2], True, 1.5, None)]
    + [("train_config", key, v) for key in ("batch_size", "epochs",
                                            "lr_decay_epoch", "seed",
                                            "hidden", "mhsa_heads")
       for v in INT_VALUES]
    + [("train_config", "learning_rate", v)
       for v in (1e-3, 0.0, -1.0, "1e-3", True, None)]
    + [("train_config", "loss", v)
       for v in ("plcc", "mse", "huber", 5, ["plcc"], None)]
    + [("train_config", key, DROP) for key in ("learning_rate", "hidden")]
    + [(None, "seed", DROP), ("train_config", "extra", 1)])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        samples = affine_dataset(n=12)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                          lr_decay_epoch=1, hidden=8, seed=9)
        result = train(samples, toy_training_registry(), cfg)
        path = save_checkpoint(tmp_path / "m.ckpt", result.head, cfg,
                               master_seed=123)
        head, cfg_loaded, seed = load_checkpoint(path)
        assert seed == 123
        assert cfg_loaded == cfg
        assert head.layout == result.head.layout
        for k, v in params_from_head(result.head).items():
            np.testing.assert_array_equal(v, params_from_head(head)[k])

    def test_same_params_same_bytes(self, tmp_path):
        samples = affine_dataset(n=12)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                          lr_decay_epoch=1, hidden=8, seed=9)
        result = train(samples, toy_training_registry(), cfg)
        a = save_checkpoint(tmp_path / "a.ckpt", result.head, cfg, 1)
        b = save_checkpoint(tmp_path / "b.ckpt", result.head, cfg, 1)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def _parts(self, path):
        """(header dict, tensor bytes) of a checkpoint file."""
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 6)
        return json.loads(data[10:10 + header_len]), data[10 + header_len:-4]

    def _write(self, path, header, body, crc=None):
        """A version-5 file of header and body, signed with its own CRC32
        unless crc gives the 4 bytes to end it with."""
        blob = json.dumps(header).encode()
        signed = struct.pack("<HI", CHECKPOINT_VERSION, len(blob)) + blob + body
        if crc is None:
            crc = struct.pack("<I", zlib.crc32(signed))
        path.write_bytes(b"RQVC" + signed + crc)
        return path

    def _saved(self, tmp_path, tokens=False):
        registry = token_registry() if tokens else toy_training_registry()
        make = token_bundle if tokens else make_bundle
        samples = [(make(seed=i, video_id=f"v{i}"), float(i))
                   for i in range(8)]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=1,
                          lr_decay_epoch=1, hidden=8, mhsa_heads=2, seed=9)
        result = train(samples, registry, cfg)
        return save_checkpoint(tmp_path / "m.ckpt", result.head, cfg, 1)

    def test_file_is_header_bare_tensors_and_crc(self, tmp_path):
        layout = ConcatLayout.from_registry(token_registry())
        cfg = TrainConfig(hidden=8, mhsa_heads=2)
        head = build_head(layout, cfg, seed=4)
        path = save_checkpoint(tmp_path / "m.ckpt", head, cfg, 1)
        header = json.dumps({
            "layout": [asdict(e) for e in layout.entries],
            "seed": 1, "train_config": asdict(cfg)},
            sort_keys=True, separators=(",", ":")).encode()
        params = params_from_head(head)
        assert sorted(params) == ["b1", "b2", "w1", "w2", "wk", "wo", "wq",
                                  "wv"]
        signed = (struct.pack("<HI", 5, len(header)) + header
                  + b"".join(np.asarray(params[name], dtype="<f8").tobytes()
                             for name in sorted(params)))
        assert path.read_bytes() == (b"RQVC" + signed
                                     + struct.pack("<I", zlib.crc32(signed)))
        assert set(self._parts(path)[0]) == {"layout", "seed", "train_config"}

    @pytest.mark.parametrize("tensor", ["w2", "wq"])
    def test_flipped_tensor_bit_rejected(self, tmp_path, tensor):
        path = self._saved(tmp_path, tokens=True)
        _, body = self._parts(path)
        shapes = param_shapes(load_checkpoint(path)[0].layout, 8, 2)
        data = bytearray(path.read_bytes())
        offset = len(data) - 4 - len(body)
        for name in sorted(shapes)[:sorted(shapes).index(tensor)]:
            offset += 8 * int(np.prod(shapes[name]))
        data[offset + 3] ^= 0x10            # a mantissa bit of element 0
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=f"{path}: checksum mismatch"):
            load_checkpoint(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        header, body = self._parts(path)
        del header["seed"]
        with pytest.raises(CheckpointError, match="missing seed"):
            load_checkpoint(self._write(path, header, body))

    def test_header_states_the_head_count_once(self, tmp_path):
        header, _ = self._parts(self._saved(tmp_path, tokens=True))
        assert "mhsa_heads" not in header
        assert header["train_config"]["mhsa_heads"] == 2

    def test_header_holds_no_fixed_training_constants(self, tmp_path):
        header, _ = self._parts(self._saved(tmp_path))
        assert "activation" not in header
        assert set(header["train_config"]) == {
            "learning_rate", "batch_size", "epochs", "lr_decay_epoch", "seed",
            "loss", "hidden", "mhsa_heads"}

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_versions_rejected(self, tmp_path, version):
        # a head without attention pool, written as its version wrote it:
        # the tensor names in the header, a rank and dims before each
        # tensor, and no checksum; only the version number refuses the file
        path = self._saved(tmp_path)
        header, _ = self._parts(path)
        params = params_from_head(load_checkpoint(path)[0])
        header["tensors"] = sorted(params)
        body = b""
        for name in sorted(params):
            tensor = np.ascontiguousarray(params[name], dtype="<f8")
            body += struct.pack(f"<B{tensor.ndim}I", tensor.ndim,
                                *tensor.shape) + tensor.tobytes()
        if version < 4:
            # versions 1 to 3 stored (name, dim, granularity, token_count)
            header["layout"] = [[e["name"], e["dim"], e["granularity"],
                                 e["token_count"]] for e in header["layout"]]
        if version < 3:
            header["mhsa_heads"] = None      # versions 1 and 2 stated it
        if version == 1:
            header["activation"] = "relu"
            header["train_config"].update(beta1=0.9, beta2=0.999, eps=1e-8,
                                          lr_decay_factor=10.0,
                                          activation="relu")
        blob = json.dumps(header).encode()
        path.write_bytes(b"RQVC" + struct.pack("<HI", version, len(blob))
                         + blob + body)
        with pytest.raises(CheckpointError,
                           match=f"unsupported version {version}"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        for cut in (1, 4, 9):           # into the CRC, all of it, into w2
            path.write_bytes(data[:-cut])
            with pytest.raises(CheckpointError, match="checksum mismatch"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_tensor_set_must_match_layout(self, tmp_path):
        # a re-signed layout that gains a token source implies the wq, wk,
        # wv and wo tensors and 8 more w1 rows, which the file does not hold
        path = self._saved(tmp_path)
        header, body = self._parts(path)
        header["layout"].insert(0, asdict(FeatureSource(
            "spatial_tokens", "tokens", 8, role="spatial", token_count=4)))
        expected = len(body) + 8 * (4 * 8 * 8 + 8 * 8)
        with pytest.raises(CheckpointError, match=(
                f"{len(body)} tensor bytes, expected {expected} for the "
                f"layout, hidden=8 and mhsa_heads=2")):
            load_checkpoint(self._write(path, header, body))

    @pytest.mark.parametrize("field", ["layout_dim", "hidden", "heads"])
    def test_tensor_shape_must_match_layout(self, tmp_path, field):
        path = self._saved(tmp_path, tokens=field == "heads")
        header, body = self._parts(path)
        if field == "layout_dim":       # a 41-wide layout, a 40-row w1
            header["layout"][0]["dim"] += 1
            expected, hidden = len(body) + 8 * 8, 8
        elif field == "hidden":         # w1, b1 and w2 one column short
            header["train_config"]["hidden"] = 9
            expected, hidden = len(body) + 8 * (40 + 2), 9
        else:
            # (8, 4, 2) expected, (8, 2, 4) stored: the byte count is the
            # same, so only the checksum over the header refuses the edit
            header["train_config"]["mhsa_heads"] = 4
            crc = path.read_bytes()[-4:]
            with pytest.raises(CheckpointError, match="checksum mismatch"):
                load_checkpoint(self._write(path, header, body, crc=crc))
            return
        with pytest.raises(CheckpointError, match=(
                f"{len(body)} tensor bytes, expected {expected} for the "
                f"layout, hidden={hidden} and mhsa_heads=2")):
            load_checkpoint(self._write(path, header, body))

    def test_save_rejects_a_head_the_config_does_not_describe(self,
                                                              tmp_path):
        # the file states no tensor shape, so a head saved with another
        # head count would load reshaped; the save refuses it instead
        layout = ConcatLayout.from_registry(token_registry())
        head = build_head(layout, TrainConfig(hidden=8, mhsa_heads=2))
        cfg = TrainConfig(hidden=8, mhsa_heads=4)
        with pytest.raises(CheckpointError, match=(
                "head tensors do not match the layout, hidden=8 and "
                "mhsa_heads=4")):
            save_checkpoint(tmp_path / "m.ckpt", head, cfg)
        assert not (tmp_path / "m.ckpt").exists()

    def test_header_stores_each_source_in_full(self, tmp_path):
        header, _ = self._parts(self._saved(tmp_path))
        assert header["layout"] == [
            asdict(s) for s in
            ConcatLayout.from_registry(toy_training_registry()).entries]

    @pytest.mark.parametrize("key, value, match", [
        ("dim", 16.0, "dim must be int, got 16.0"),
        ("dim", True, "dim must be int, got True"),
        ("token_count", 1, "token_count only valid for tokens"),
        ("toy", "lumastats", "unknown toy extractor 'lumastats'"),
        ("granularity", "frame", "unknown granularity 'frame'"),
        ("width", 16, "unexpected keyword argument 'width'"),
        ("role", DROP, "a layout entry does not state every field"),
        ("name", "motionstats", "duplicate source name 'motionstats'"),
    ])
    def test_layout_spec_checked_at_load(self, tmp_path, key, value, match):
        path = self._saved(tmp_path)
        header, body = self._parts(path)
        edit(header["layout"][2], key, value)    # fragmentstats, per video
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(self._write(path, header, body))

    @pytest.mark.parametrize("section, key, value, message", [
        ("train_config", "hidden", 4.0, "hidden must be int, got 4.0"),
        ("train_config", "epochs", 2.5, "epochs must be int, got 2.5"),
        ("train_config", "mhsa_heads", True,
         "mhsa_heads must be int, got True"),
        ("train_config", "learning_rate", "1e-3",
         "learning_rate must be float, got '1e-3'"),
        ("train_config", "learning_rate", float("nan"),   # json reads NaN
         "learning_rate must be finite and >= 0, got nan"),
        ("train_config", "loss", ["plcc"], "loss must be str, got ['plcc']"),
        ("train_config", "hidden", DROP,
         "train_config does not state every field"),
        ("train_config", "learning_rate", DROP,      # loaded 1e-5 silently
         "train_config does not state every field"),
        (None, "seed", "x", "seed must be int, got 'x'"),
        (None, "seed", [1, 2], "seed must be int, got [1, 2]"),
        (None, "seed", True, "seed must be int, got True"),
        (None, "seed", 1.5, "seed must be int, got 1.5"),
    ], ids=["hidden-float", "epochs-float", "heads-bool", "lr-str",
            "lr-nan", "loss-list", "hidden-missing", "lr-missing", "seed-str",
            "seed-list", "seed-bool", "seed-float"])
    def test_config_and_seed_types_checked_at_load(self, tmp_path, section,
                                                   key, value, message):
        path = self._saved(tmp_path)
        header, body = self._parts(path)
        edit(header if section is None else header[section], key, value)
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(f'{path}: bad header ({message})')}$")):
            load_checkpoint(self._write(path, header, body))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(MUTATIONS)),
                    max_size=2),
           st.lists(st.sampled_from(CONFIG_MUTATIONS), max_size=2))
    @example([(3, ("dim", 16.0))], [])       # a float width, per video
    @example([(0, ("token_count", 4.0))], [])    # a float token count
    @example([], [("train_config", "hidden", 4.0)])   # a float MLP width
    @example([], [("train_config", "learning_rate", DROP)])
    @example([], [("train_config", "epochs", 2.5)])
    @example([], [("train_config", "mhsa_heads", True)])
    @example([], [(None, "seed", "x")])
    @example([], [(None, "seed", [1, 2])])
    @example([], [(None, "seed", True)])
    @example([], [(None, "seed", 1.5)])
    def test_fuzzed_headers_fail_cleanly(self, fuzz_corpus, layout_mutations,
                                         config_mutations):
        """A mutated layout, train_config or seed either fails to load with
        CheckpointError, or loads the values the header states, of the types
        save_checkpoint writes; then `rqvqa predict` scores the corpus the
        file was made for, or exits 1 with one error line. No other
        exception escapes."""
        header, body = self._parts(fuzz_corpus / "m.ckpt")
        for index, (key, value) in layout_mutations:
            edit(header["layout"][index], key, value)
        for section, key, value in config_mutations:
            edit(header if section is None else header[section], key, value)
        path = self._write(fuzz_corpus / "fuzz.ckpt", header, body)
        try:
            _, cfg, seed = load_checkpoint(path)
        except CheckpointError:
            return
        assert (asdict(cfg), seed) == (header["train_config"], header["seed"])
        assert [type(v) for v in (seed, *astuple(cfg))] == [
            type(v) for v in (0, *astuple(TrainConfig()))]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["predict", "--checkpoint", str(path), "--manifest",
                         str(fuzz_corpus / "manifest.csv"),
                         "--out", str(fuzz_corpus / "p.csv")])
        lines = err.getvalue().splitlines()
        assert (code, lines) == (0, []) or (
            code == 1 and len(lines) == 1 and lines[0].startswith("error: "))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A directory holding m.ckpt, a head over one source of each
    granularity, and manifest.csv, one sidecar video that it scores."""
    root = tmp_path_factory.mktemp("fuzz")
    registry = (
        FeatureSource("spatial_tokens", "tokens", 8, role="spatial",
                      token_count=4),
        FeatureSource("motionstats", "chunk", 8, role="temporal",
                      toy="motionstats"),
        FeatureSource("probs", "keyframe", 3, probability=True),
        FeatureSource("fragmentstats", "video", 16, role="video_quality",
                      toy="fragmentstats"),
    )
    cfg = TrainConfig(hidden=4, mhsa_heads=2)
    head = build_head(ConcatLayout.from_registry(registry), cfg, seed=2)
    bundle = layout_bundle(head.layout, n_z=2, seed=3)
    bundle.matrices["probs"] = np.full((2, 3), 0.25)
    bundle.matrices["probs"][:, 0] = 0.5
    for source in registry:
        save_sidecar(source, bundle.matrices[source.name],
                     root / "v0" / f"{source.name}.rqvf")
    (root / "manifest.csv").write_text(
        f"video_id,path,mos,scene_id\nv0,{root / 'v0'},3.0,s0\n")
    save_checkpoint(root / "m.ckpt", head, cfg)
    return root
