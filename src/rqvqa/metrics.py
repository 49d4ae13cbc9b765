"""Correlation criteria and the monotonic four-parameter logistic mapping.

pearson/spearman are the reporting statistics; fit_4pl compensates prediction
nonlinearity before the linear correlation is computed. challenge_score is the
composite leaderboard formula (rank components are opaque inputs here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        i = int(np.argmin(np.isfinite(v)))      # the first bad value
        raise MetricError(
            f"{name}: value {i + 1} of {v.size} is non-finite ({v[i]})")
    return v


def _paired(x, y, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    xv, yv = _as_vector(x, names[0]), _as_vector(y, names[1])
    if xv.size != yv.size:
        raise MetricError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        raise MetricError("need at least 2 samples")
    return xv, yv


def pearson(x, y) -> float:
    """Centered linear correlation; rejects zero-variance inputs, and inputs
    whose squares overflow."""
    xv, yv = _paired(x, y)
    a = xv - xv.mean()
    b = yv - yv.mean()
    with np.errstate(over="ignore", invalid="ignore"):  # they fail below
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        norms = na * nb
    if not np.isfinite(norms):
        raise MetricError("values too large: their squares overflow")
    if na == 0.0 or nb == 0.0:
        raise MetricError("zero variance input")
    return float(a @ b / norms)


def rankdata(x) -> np.ndarray:
    """Average fractional ranks (1-based); ties share their mean rank."""
    v = _as_vector(x, "x")
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    # a tie group of c values ending at 1-based rank e has mean rank
    # e - (c - 1) / 2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    xv, yv = _paired(x, y)
    return pearson(rankdata(xv), rankdata(yv))


@dataclass(frozen=True)
class FourPLParams:
    """Logistic mapping mos ~ (b1-b2)/(1+exp(-(x-b3)/|b4|)) + b2."""

    beta1: float  # upper asymptote
    beta2: float  # lower asymptote
    beta3: float  # inflection location
    beta4: float  # slope scale (magnitude used, so the map is monotone)

    def __post_init__(self):
        vals = (self.beta1, self.beta2, self.beta3, self.beta4)
        if not all(np.isfinite(v) for v in vals):
            raise MetricError(f"non-finite logistic parameters {vals}")
        if self.beta4 == 0.0:
            raise MetricError("beta4 must be nonzero")


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """1/(1+exp(-u)) where u >= 0 and exp(u)/(1+exp(u)) where u < 0, in one
    pass: exp(-|u|) is exp(-u) for u >= 0 (-0.0 too) and exp(u) for u < 0,
    so no exp overflows."""
    e = np.exp(-np.abs(u))
    return np.where(u < 0, e, 1.0) / (1.0 + e)


def apply_4pl(params: FourPLParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    s = _sigmoid((x - params.beta3) / abs(params.beta4))
    return (params.beta1 - params.beta2) * s + params.beta2


FIT_MAX_ITER = 200      # Gauss-Newton steps at most
FIT_REL_TOL = 1e-10     # a smaller relative SSE gain ends the fit


def fit_4pl(pred, mos) -> FourPLParams:
    """Least-squares logistic fit via Levenberg-damped Gauss-Newton.

    Starts from beta = (max(mos), min(mos), mean(pred), std(pred)/4) and
    moves only to a strictly lower SSE, so it returns the best parameters
    found within FIT_MAX_ITER steps. A best fit with beta1 <= beta2 maps
    higher predictions to lower quality; it is rejected, so that a negative
    correlation keeps its sign.
    """
    x, y = _paired(pred, mos)
    if x.size < 5:
        raise MetricError(f"need at least 5 samples to fit, got {x.size}")
    if np.all(x == x[0]):
        raise MetricError("constant predictions cannot be fitted")

    beta = np.array([y.max(), y.min(), x.mean(), x.std() / 4.0])
    if beta[3] == 0.0:
        raise MetricError("zero prediction spread")

    def residuals(b):
        d = x - b[2]
        s = _sigmoid(d / abs(b[3]))
        return y - ((b[0] - b[1]) * s + b[1]), s, d

    r, s, d = residuals(beta)
    sse = float(r @ r)
    lam = 1e-3
    jac = np.empty((x.size, 4))     # C order: the BLAS call of jac.T @ jac
    for _ in range(FIT_MAX_ITER):
        # filled in place; each column keeps its closed form's operation order
        jac[:, 0] = s
        np.subtract(1.0, s, out=jac[:, 1])
        g = (beta[0] - beta[1]) * (s * jac[:, 1])    # (b1 - b2) s (1 - s)
        np.multiply(g, -1.0 / abs(beta[3]), out=jac[:, 2])
        np.multiply(g, -d / beta[3] ** 2, out=jac[:, 3])
        jac[:, 3] *= np.sign(beta[3])
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj + lam * np.eye(4), jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        cand = beta + step
        if cand[3] == 0.0 or not np.all(np.isfinite(cand)):
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        r_new, s_new, d_new = residuals(cand)
        sse_new = float(r_new @ r_new)
        if not np.isfinite(sse_new):
            raise MetricError(
                f"non-finite residual during logistic fit (beta={cand})")
        if sse_new < sse:
            rel_change = abs(sse - sse_new) / max(sse, 1e-30)
            beta, r, s, d, sse = cand, r_new, s_new, d_new, sse_new
            lam = max(lam * 0.1, 1e-12)
            if rel_change < FIT_REL_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if beta[0] <= beta[1]:
        raise MetricError(
            f"logistic fit is not increasing (beta1={beta[0]:.6g} <= "
            f"beta2={beta[1]:.6g})")
    return FourPLParams(*beta)


@dataclass(frozen=True)
class EvalReport:
    """SRCC/PLCC statistics for one prediction set."""

    srcc: float
    plcc_raw: float
    plcc_4pl: float
    fit: FourPLParams | None
    n: int
    fit_failed: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise MetricError(f"report needs n >= 2, got {self.n}")
        for name, v in (("srcc", self.srcc), ("plcc_raw", self.plcc_raw),
                        ("plcc_4pl", self.plcc_4pl)):
            if not np.isfinite(v) or abs(v) > 1.0 + 1e-12:
                raise MetricError(f"{name}={v} outside [-1, 1]")


def evaluate(pred, mos) -> EvalReport:
    """Full criteria set; falls back to the raw PLCC if the fit degenerates
    or is not increasing."""
    x, y = _paired(pred, mos, ("prediction", "mos"))
    srcc = spearman(x, y)
    plcc_raw = pearson(x, y)
    try:
        with np.errstate(all="ignore"):      # the fit keeps finite steps only
            fit = fit_4pl(x, y)
            plcc_4pl = pearson(apply_4pl(fit, x), y)
        fit_failed = False
    except MetricError:
        fit, plcc_4pl, fit_failed = None, plcc_raw, True
    return EvalReport(srcc=srcc, plcc_raw=plcc_raw, plcc_4pl=plcc_4pl,
                      fit=fit, n=x.size, fit_failed=fit_failed)


def challenge_score(srcc: float, plcc: float, rank1: float,
                    rank2: float) -> float:
    """0.45*srcc + 0.45*plcc + 0.05*rank1 + 0.05*rank2."""
    for name, v, lo in (("srcc", srcc, -1.0), ("plcc", plcc, -1.0),
                        ("rank1", rank1, 0.0), ("rank2", rank2, 0.0)):
        if not np.isfinite(v) or v < lo or v > 1.0:
            raise MetricError(f"{name}={v} outside [{lo}, 1]")
    return 0.45 * srcc + 0.45 * plcc + 0.05 * rank1 + 0.05 * rank2
