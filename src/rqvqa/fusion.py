"""Learnable fusion head: optional attention pooling over token grids,
feature concatenation, a two-layer MLP scored per key-frame index, average
pooling to a video score, and correlation-loss training with hand-derived
gradients (64-bit throughout).

Concatenation order follows the registry's role order: spatial, temporal,
per-frame quality sources, whole-video sources; per-video sources broadcast
to every key-frame index.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError, FeatureError, TrainingError
from .features import ROLE_ORDER, FeatureBundle, FeatureSource

EPS_NORM = 1e-8  # stabilizer added to each norm in the correlation loss
ADAM_BLOCK = 32768  # elements per in-place Adam block (256 KiB of float64)
# the paper trains with plain Adam and one 10x learning-rate drop, so these
# are constants, not configuration
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY_FACTOR = 10.0

CHECKPOINT_MAGIC = b"RQVC"
CHECKPOINT_VERSION = 5


# ---------------------------------------------------------------------------
# Layout


@dataclass(frozen=True)
class ConcatLayout:
    """Segment map of the fused per-index vector, one segment per entry in
    order; slices() and the checkpoint find a source by its unique name."""

    entries: tuple[FeatureSource, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise FeatureError(f"duplicate source name {name!r}")

    @property
    def total_dim(self) -> int:
        return sum(e.dim for e in self.entries)

    def slices(self) -> dict[str, slice]:
        out, start = {}, 0
        for e in self.entries:
            out[e.name] = slice(start, start + e.dim)
            start += e.dim
        return out

    def token_entry(self) -> FeatureSource | None:
        tokens = [e for e in self.entries if e.granularity == "tokens"]
        if len(tokens) > 1:
            raise TrainingError("at most one token-grid source is supported")
        return tokens[0] if tokens else None

    @classmethod
    def from_registry(cls, registry: Sequence[FeatureSource]) -> ConcatLayout:
        """The registry's sources in ROLE_ORDER, ties broken on the name."""
        return cls(tuple(sorted(registry, key=lambda s: (
            ROLE_ORDER.index(s.role), s.name))))


# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class MhsaPool:
    """Multi-head self-attention with mean pooling over tokens.

    wq/wk/wv have shape (d, heads, d_head), so w.reshape(d, d) is the joined
    head-major projection and w.transpose(1, 0, 2) the per-head one; wo is
    (d, d). No biases.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    @property
    def head_count(self) -> int:
        return self.wq.shape[1]

    @property
    def dim(self) -> int:
        return self.wo.shape[0]


@dataclass
class MlpHead:
    """Two-layer regression head: w2 . relu(w1^T f + b1) + b2."""

    w1: np.ndarray  # (total_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # 0-d


@dataclass
class FusionHead:
    layout: ConcatLayout
    mlp: MlpHead
    pool: MhsaPool | None = None


class FlatTensors(dict):
    """Name -> tensor, each a view of one contiguous float64 vector, `flat`,
    in sorted-name order as the checkpoint stores them; zeros unless `flat`
    is given. Adam updates the whole vector with no loop over tensors."""

    def __init__(self, shapes: dict[str, tuple[int, ...]],
                 flat: np.ndarray | None = None):
        names = sorted(shapes)
        sizes = [math.prod(shapes[name]) for name in names]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        super().__init__(
            (name, part.reshape(shapes[name])) for name, part in
            zip(names, np.split(self.flat, np.cumsum(sizes)[:-1])))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 6
    epochs: int = 30
    lr_decay_epoch: int = 10
    seed: int = 0
    loss: str = "plcc"        # a key of LOSSES
    hidden: int = 128
    mhsa_heads: int = 8

    def __post_init__(self):
        # a config may come from a checkpoint header: types are checked too
        kinds = {"float": (int, float), "int": (int,), "str": (str,)}
        for f in fields(self):          # type(True) is bool, not int
            if type(value := getattr(self, f.name)) not in kinds[f.type]:
                raise TrainingError(f"{f.name} must be {f.type}, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise TrainingError(
                f"learning_rate must be finite and >= 0, got "
                f"{self.learning_rate!r}")
        for name in ("epochs", "hidden", "mhsa_heads"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        if self.batch_size < 2:
            raise TrainingError(
                "batch_size must be >= 2 for the correlation loss")
        if self.lr_decay_epoch > self.epochs:
            raise TrainingError("lr_decay_epoch must be <= epochs")
        if self.loss not in LOSSES:
            raise TrainingError(f"unknown loss {self.loss!r}")


# ---------------------------------------------------------------------------
# Forward ops


def mhsa_pool(grids: np.ndarray, pool: MhsaPool):
    """Scaled dot-product self-attention over each of n stacked (T, d) token
    grids, then the mean over its T tokens; grids never attend to each other.

    Returns the (n, d) pooled rows and the cache for _mhsa_backward. The mean
    over query tokens is taken first: mean_t(A X Wv) Wo equals
    ((mean_t A) X) Wv Wo, so neither per-token values nor the T x d output
    product are formed. Q and K take one GEMM each over all n * T tokens.
    """
    x = np.asarray(grids, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != pool.dim:
        raise TrainingError(
            f"token grids {x.shape} do not match attention dim {pool.dim}")
    if not np.all(np.isfinite(x)):
        raise TrainingError("non-finite token grid")
    n, t, d = x.shape
    heads, d_head = pool.head_count, pool.wq.shape[2]
    scale = 1.0 / np.sqrt(d_head)
    flat = x.reshape(n * t, d)
    q = (flat @ pool.wq.reshape(d, d)).reshape(n, t, heads, d_head)
    k = (flat @ pool.wk.reshape(d, d)).reshape(n, t, heads, d_head)
    # (n, heads, T, d_head) views
    q, k = q.transpose(0, 2, 1, 3), k.transpose(0, 2, 1, 3)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores -= scores.max(axis=3, keepdims=True)  # stable softmax
    attn = np.exp(scores)
    attn /= attn.sum(axis=3, keepdims=True)
    ctx = attn.mean(axis=2) @ x                  # (n, heads, d)
    concat = ctx.transpose(1, 0, 2) @ pool.wv.transpose(1, 0, 2)
    concat = concat.transpose(1, 0, 2).reshape(n, d)
    return concat @ pool.wo, (x, q, k, attn, ctx, concat, scale)


def _mhsa_backward(dy: np.ndarray, pool: MhsaPool, cache, grads):
    """Write the wq/wk/wv/wo gradients from dy, the (n, d) gradient of the
    pooled outputs, with one GEMM per weight over all n grids. The wq and
    wk gradients are written through (d, d) views, so grads must be
    C-ordered."""
    x, q, k, attn, ctx, concat, scale = cache
    n, t, d = x.shape
    heads, d_head = pool.head_count, pool.wq.shape[2]
    np.matmul(concat.T, dy, out=grads["wo"])
    dhead = (dy @ pool.wo.T).reshape(n, heads, d_head).transpose(1, 0, 2)
    np.matmul(ctx.transpose(1, 2, 0), dhead,
              out=grads["wv"].transpose(1, 0, 2))
    dctx = (dhead @ pool.wv.transpose(1, 2, 0)).transpose(1, 0, 2)
    # every query row of A receives the same gradient, d(mean_t A) / T
    g = (dctx @ x.transpose(0, 2, 1)) / t        # (n, heads, T)
    # softmax Jacobian row-wise: a * (g - (a . g))
    dscores = attn * (g[:, :, None, :] - attn @ g[..., None])
    dscores *= scale
    flat_t = x.reshape(n * t, d).T
    for key, a, b in (("wq", dscores, k),
                      ("wk", dscores.transpose(0, 1, 3, 2), q)):
        # (n, heads, T, d_head) -> (n * T, d), head-major columns
        dproj = (a @ b).transpose(0, 2, 1, 3).reshape(n * t, d)
        np.matmul(flat_t, dproj, out=grads[key].reshape(d, d))


def _source(bundle: FeatureBundle, entry: FeatureSource) -> np.ndarray:
    if entry.name not in bundle.matrices:
        raise FeatureError(f"missing source {entry.name!r}")
    mat = bundle.matrices[entry.name]
    if mat.ndim != 2 or mat.shape[1] != entry.dim:
        raise TrainingError(
            f"source {entry.name!r} has shape {mat.shape}, layout width "
            f"{entry.dim}")
    return mat


def _fuse(bundle: FeatureBundle, layout: ConcatLayout,
          pooled: np.ndarray | None) -> np.ndarray:
    """Fused vectors of every key frame, segments in layout order; pooled
    holds the pooled token rows of the key frames."""
    n = bundle.n_keyframes
    parts = []
    for entry in layout.entries:
        mat = _source(bundle, entry)
        if entry.granularity == "video":
            parts.append(np.broadcast_to(mat[0], (n, entry.dim)))
        elif entry.granularity == "tokens":
            parts.append(pooled)
        else:
            parts.append(mat[:n])
    return np.concatenate(parts, axis=1)


def _mlp_scores(feats: np.ndarray, mlp: MlpHead):
    """Scores of n stacked float64 fused rows (n, D) with one GEMM per layer.

    Returns (z, a, scores): pre-activations and activations (n, hidden), and
    the (n,) row scores.
    """
    if feats.ndim != 2 or feats.shape[1] != mlp.w1.shape[0]:
        raise TrainingError(
            f"feature rows {feats.shape} do not match head input width "
            f"{mlp.w1.shape[0]}")
    if not np.all(np.isfinite(feats)):
        raise TrainingError("non-finite feature vector")
    z = feats @ mlp.w1 + mlp.b1
    a = np.maximum(z, 0.0)
    return z, a, a @ mlp.w2 + mlp.b2


def _forward(bundles, head: FusionHead):
    """Scores of the videos `bundles` -> ((n_videos,) preds, cache).

    The one forward under training (backprop), prediction (video_forward)
    and the gradient check: pool every token grid in one mhsa_pool call,
    fuse, score all key-frame rows in one MLP pass, and average each video's
    row scores with one np.add.reduceat. cache holds what backprop's
    backward reads.
    """
    counts = np.array([bundle.n_keyframes for bundle in bundles])
    if (counts < 1).any():
        raise TrainingError("cannot pool an empty score list")
    layout, token = head.layout, head.layout.token_entry()
    pooled, mhsa_cache = [None] * len(bundles), None
    if token is not None:
        if head.pool is None:
            raise TrainingError(
                f"source {token.name!r} is a token grid and needs an "
                f"attention pool")
        grids = [_source(bundle, token).reshape(
            bundle.n_keyframes, token.token_count, token.dim)
            for bundle in bundles]
        stacked, mhsa_cache = mhsa_pool(np.concatenate(grids), head.pool)
        pooled = np.split(stacked, np.cumsum(counts[:-1]))
    # sidecar sources are float32: the one cast to float64, which is exact
    feats = np.concatenate([_fuse(bundle, layout, rows)
                            for bundle, rows in zip(bundles, pooled)],
                           dtype=np.float64)
    z, a, scores = _mlp_scores(feats, head.mlp)
    if not np.isfinite(scores).all():
        raise TrainingError("non-finite scores")
    preds = np.add.reduceat(scores, np.cumsum(counts) - counts) / counts
    return preds, (counts, feats, z, a, mhsa_cache)


def video_forward(bundle: FeatureBundle, head: FusionHead) -> float:
    """Predicted quality score for one video."""
    return float(_forward([bundle], head)[0][0])


# ---------------------------------------------------------------------------
# Losses


def _loss_pair(pred, target):
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(target, dtype=np.float64).ravel()
    if p.size != t.size:
        raise TrainingError(f"length mismatch: {p.size} vs {t.size}")
    if p.size < 2:
        raise TrainingError("correlation loss needs at least 2 samples")
    return p, t


def plcc_loss(pred, target) -> float:
    """(1 - centered correlation) / 2, norms stabilized by EPS_NORM."""
    p, t = _loss_pair(pred, target)
    a = p - p.mean()
    b = t - t.mean()
    rho = (a @ b) / ((np.linalg.norm(a) + EPS_NORM)
                     * (np.linalg.norm(b) + EPS_NORM))
    return float((1.0 - rho) / 2.0)


def plcc_loss_grad(pred, target) -> np.ndarray:
    """Analytical d(plcc_loss)/d(pred); orthogonal to the all-ones vector."""
    p, t = _loss_pair(pred, target)
    a = p - p.mean()
    b = t - t.mean()
    norm_a = np.linalg.norm(a)
    na = norm_a + EPS_NORM
    nb = np.linalg.norm(b) + EPS_NORM
    s = a @ b
    drho_da = b / (na * nb) - (s / (na * na * nb)) * (a / max(norm_a, 1e-300))
    drho_dp = drho_da - drho_da.mean()  # centering Jacobian
    return -0.5 * drho_dp


def mse_loss(pred, target) -> float:
    p, t = _loss_pair(pred, target)
    return float(np.mean((p - t) ** 2))


def mse_loss_grad(pred, target) -> np.ndarray:
    p, t = _loss_pair(pred, target)
    return 2.0 * (p - t) / p.size


LOSSES = {"plcc": (plcc_loss, plcc_loss_grad),
          "mse": (mse_loss, mse_loss_grad)}


# ---------------------------------------------------------------------------
# Backprop


def _zeros_like_params(params) -> FlatTensors:
    """Zero FlatTensors shaped like params."""
    return FlatTensors({k: np.shape(v) for k, v in params.items()})


def _head_from_params(layout, params):
    """A head that aliases the params' arrays (b2 as a 0-d view)."""
    mlp = MlpHead(w1=params["w1"], b1=params["b1"], w2=params["w2"],
                  b2=params["b2"].reshape(()))
    pool = None
    if "wo" in params:
        pool = MhsaPool(wq=params["wq"], wk=params["wk"], wv=params["wv"],
                        wo=params["wo"])
    return FusionHead(layout=layout, mlp=mlp, pool=pool)


def params_from_head(head: FusionHead) -> dict[str, np.ndarray]:
    params = {"w1": head.mlp.w1, "b1": head.mlp.b1, "w2": head.mlp.w2,
              "b2": np.asarray(head.mlp.b2, dtype=np.float64)}
    if head.pool is not None:
        params.update({"wq": head.pool.wq, "wk": head.pool.wk,
                       "wv": head.pool.wv, "wo": head.pool.wo})
    return params


def backprop(batch, head: FusionHead, loss: str = "plcc", grads=None):
    """Loss and exact parameter gradients for one mini-batch.

    batch is a sequence of (FeatureBundle, mos), scored by _forward.
    Gradients flow back through the score averaging, the MLP, and the
    attention pool when one is present; each MLP weight gradient is one GEMM
    over the stacked rows of the mini-batch. grads, if given, is a dict of
    C-ordered arrays shaped like the parameters that is overwritten in place
    of a fresh one (any other memory order raises TrainingError):
    `train` reuses one across steps, which saves allocating and
    page-faulting a parameter-sized dict per step.
    """
    loss_fn, loss_grad_fn = LOSSES[loss]
    layout, mlp = head.layout, head.mlp
    preds, (counts, feats, z, a, mhsa_cache) = _forward(
        [bundle for bundle, _ in batch], head)
    targets = np.array([mos for _, mos in batch], dtype=np.float64)

    loss_value = loss_fn(preds, targets)
    dpred = loss_grad_fn(preds, targets)

    if grads is None:
        grads = _zeros_like_params(params_from_head(head))
    for key, g in grads.items():
        # a reshape of a non-C-ordered wq/wk buffer is a copy, so the
        # gradient written into it would never reach the caller
        if not g.flags.c_contiguous:
            raise TrainingError(f"gradient buffer {key!r} is not C-ordered")
    u = np.repeat(dpred / counts, counts)        # upstream per row score
    np.matmul(u, a, out=grads["w2"])
    grads["b2"][...] = u.sum()
    dz = (u[:, None] * mlp.w2) * (z > 0.0)       # (rows, hidden), relu'(z)
    np.matmul(feats.T, dz, out=grads["w1"])
    np.sum(dz, axis=0, out=grads["b1"])
    if mhsa_cache is not None:
        w1_token = mlp.w1[layout.slices()[layout.token_entry().name]]
        _mhsa_backward(dz @ w1_token.T, head.pool, mhsa_cache, grads)
    return loss_value, grads


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: FlatTensors
    v: FlatTensors

    @classmethod
    def zeros(cls, params) -> "AdamState":
        return cls(m=_zeros_like_params(params), v=_zeros_like_params(params))


def adam_step(params: FlatTensors, grads: FlatTensors, state: AdamState,
              t: int, cfg: TrainConfig, epoch: int = 0):
    """One bias-corrected Adam update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS); lr
    drops LR_DECAY_FACTOR-fold once epoch >= lr_decay_epoch.

    params, grads, state.m and state.v hold the same shapes; params and the
    moments are updated in place and returned as (params, state). Each
    element goes through the same operations, in the same order, as
    p - lr * m_hat / (sqrt(v_hat) + eps) with m = beta1 * m + (1 - beta1) * g
    and v = beta2 * v + (1 - beta2) * g * g, so the result is bit-identical
    to that out-of-place formula.
    """
    if t < 1:
        raise TrainingError(f"step index must be >= 1, got {t}")
    if not np.isfinite(grads.flat).all():
        bad = next(k for k, g in grads.items() if not np.isfinite(g).all())
        raise TrainingError(f"non-finite gradient for {bad!r}")
    lr = cfg.learning_rate
    if epoch >= cfg.lr_decay_epoch:
        lr /= LR_DECAY_FACTOR
    bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    vectors = (params.flat, grads.flat, state.m.flat, state.v.flat)
    # blocks of ADAM_BLOCK elements keep the scratch buffers small, so no
    # large temporary is allocated (and page-faulted in) on every step
    for start in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        _adam_update(*(vec[block] for vec in vectors), lr, bias1, bias2)
    return params, state


def _adam_update(p, g, m, v, lr, bias1, bias2):
    """Adam update of one block of p, m and v, in place."""
    tmp, step = np.empty_like(p), np.empty_like(p)
    np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, bias2, out=tmp)                 # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bias1, out=step)                # m_hat
    step *= lr
    step /= tmp
    p -= step


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainTrace:
    epoch_losses: list[float] = field(default_factory=list)
    steps: int = 0
    skipped_batches: int = 0


@dataclass
class TrainResult:
    head: FusionHead
    trace: TrainTrace


def param_shapes(layout: ConcatLayout, hidden: int,
                 heads: int) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape of a head, in init_params' draw order; the
    scalar b2 is one element, as save_checkpoint stores it."""
    shapes = {"w1": (layout.total_dim, hidden), "b1": (hidden,),
              "w2": (hidden,), "b2": (1,)}
    token = layout.token_entry()
    if token is not None:
        d = token.dim
        if heads < 1 or d % heads:
            raise TrainingError(
                f"mhsa_heads={heads} does not divide token dim {d}")
        shapes.update({key: (d, heads, d // heads)
                       for key in ("wq", "wk", "wv")})
        shapes["wo"] = (d, d)
    return shapes


def init_params(layout: ConcatLayout, cfg: TrainConfig,
                rng: np.random.Generator) -> FlatTensors:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases;
    fan_in is axis 0 of every weight. Each weight is drawn in place, in
    param_shapes order, as -b + 2b * u: the bits of rng.uniform(-b, b)."""
    shapes = param_shapes(layout, cfg.hidden, cfg.mhsa_heads)
    params = FlatTensors(shapes)
    for key, shape in shapes.items():
        if not key.startswith("b"):
            bound = 1.0 / np.sqrt(shape[0])
            rng.random(out=params[key])
            params[key] *= 2.0 * bound
            params[key] += -bound
    return params


def train(dataset, registry: Sequence[FeatureSource],
          cfg: TrainConfig) -> TrainResult:
    """Seeded mini-batch training of the fusion head on (bundle, mos) pairs.

    Batches with constant labels are skipped (counted in the trace). The
    epoch shuffle stream is derived from (seed, 7919, epoch), so identical
    configs reproduce bit-identical parameter trajectories.
    """
    samples = list(dataset)
    if len(samples) < 2:
        raise TrainingError("training needs at least 2 labelled videos")
    layout = ConcatLayout.from_registry(registry)
    for bundle, _ in samples:
        bundle.validate(registry)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(layout, cfg, rng)
    state = AdamState.zeros(params)
    grads = _zeros_like_params(params)
    trace = TrainTrace()
    t = 0
    head = _head_from_params(layout, params)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 7919, epoch]).permutation(
            len(samples))
        losses = []
        for start in range(0, len(samples), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            batch = [samples[j] for j in idx]
            labels = np.array([mos for _, mos in batch])
            if np.all(labels == labels[0]):
                trace.skipped_batches += 1
                continue
            loss_value, _ = backprop(batch, head, loss=cfg.loss,
                                     grads=grads)
            t += 1
            adam_step(params, grads, state, t, cfg, epoch=epoch)
            losses.append(loss_value)
        trace.epoch_losses.append(float(np.mean(losses)) if losses
                                  else float("nan"))
    trace.steps = t
    return TrainResult(head=head, trace=trace)


# ---------------------------------------------------------------------------
# Checkpoint IO


def save_checkpoint(path: str | Path, head: FusionHead, cfg: TrainConfig,
                    master_seed: int = 0) -> Path:
    """Version 5: the JSON header (full source specs, config echo, seed), the
    bare f64 tensors of param_shapes in name order, then a CRC32 of every
    byte after the magic. The header fixes each tensor's shape, so the head
    must match it."""
    shapes = param_shapes(head.layout, cfg.hidden, cfg.mhsa_heads)
    tensors = {name: np.ascontiguousarray(tensor, dtype="<f8")
               for name, tensor in params_from_head(head).items()}
    if {name: t.shape for name, t in tensors.items()} != shapes:
        raise CheckpointError(
            f"{path}: head tensors do not match the layout, "
            f"hidden={cfg.hidden} and mhsa_heads={cfg.mhsa_heads}")
    header = json.dumps({
        "layout": [asdict(source) for source in head.layout.entries],
        "train_config": asdict(cfg),
        "seed": master_seed,
    }, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    crc = 0
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for part in (struct.pack("<HI", CHECKPOINT_VERSION, len(header)),
                     header, *(tensors[name] for name in sorted(tensors))):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))
    return path


_CHECKPOINT_KEYS = ("layout", "seed", "train_config")


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint; returns (head, cfg, master_seed).

    The checksum is checked before the header is read. Each layout entry must
    be a full source spec, the config and seed must hold values of their
    declared types, and the tensor bytes must be exactly those of the
    shapes that the layout, hidden width and attention head count fix.
    """
    data = Path(path).read_bytes()
    if len(data) < 14 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<HI", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    view = memoryview(data)          # its slices copy no bytes
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(view[4:-4]) != crc:
        raise CheckpointError(f"{path}: checksum mismatch")
    try:
        header = json.loads(data[10:10 + header_len])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not an object")
    missing = [key for key in _CHECKPOINT_KEYS if key not in header]
    if missing:
        raise CheckpointError(
            f"{path}: header is missing {', '.join(missing)}")
    try:
        layout = ConcatLayout(tuple(FeatureSource(**spec)
                                    for spec in header["layout"]))
        if [asdict(source) for source in layout.entries] != header["layout"]:
            raise FeatureError("a layout entry does not state every field")
        cfg = TrainConfig(**header["train_config"])
        if asdict(cfg) != header["train_config"]:
            raise TrainingError("train_config does not state every field")
        if type(header["seed"]) is not int:
            raise TypeError(f"seed must be int, got {header['seed']!r}")
        shapes = param_shapes(layout, cfg.hidden, cfg.mhsa_heads)
    except (TypeError, ValueError, FeatureError, TrainingError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from None

    body = view[10 + header_len:-4]
    size = sum(math.prod(shape) for shape in shapes.values())
    if len(body) != 8 * size:
        raise CheckpointError(
            f"{path}: {len(body)} tensor bytes, expected {8 * size} for "
            f"the layout, hidden={cfg.hidden} and mhsa_heads={cfg.mhsa_heads}")
    tensors = FlatTensors(shapes, np.frombuffer(body, dtype="<f8").copy())
    return _head_from_params(layout, tensors), cfg, header["seed"]
