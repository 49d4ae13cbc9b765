"""The masked logistic and the column-stacked Gauss-Newton fit: the byte
oracle of rqvqa.metrics' one-pass _sigmoid and in-place Jacobian. evaluate
here is rqvqa.metrics.evaluate over these two; the statistics it shares
with the program (pearson, spearman) are the program's own."""

import numpy as np

from rqvqa.errors import MetricError
from rqvqa.metrics import (
    FIT_MAX_ITER,
    FIT_REL_TOL,
    EvalReport,
    FourPLParams,
    _paired,
    pearson,
    spearman,
)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def apply_4pl(params: FourPLParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    s = _sigmoid((x - params.beta3) / abs(params.beta4))
    return (params.beta1 - params.beta2) * s + params.beta2


def fit_4pl(pred, mos) -> FourPLParams:
    x, y = _paired(pred, mos)
    if x.size < 5:
        raise MetricError(f"need at least 5 samples to fit, got {x.size}")
    if np.all(x == x[0]):
        raise MetricError("constant predictions cannot be fitted")

    beta = np.array([y.max(), y.min(), x.mean(), x.std() / 4.0])
    if beta[3] == 0.0:
        raise MetricError("zero prediction spread")

    def residuals(b):
        s = _sigmoid((x - b[2]) / abs(b[3]))
        return y - ((b[0] - b[1]) * s + b[1]), s

    r, s = residuals(beta)
    sse = float(r @ r)
    lam = 1e-3
    for _ in range(FIT_MAX_ITER):
        a4 = abs(beta[3])
        sp = s * (1.0 - s)          # sigmoid derivative wrt its argument
        jac = np.column_stack([
            s,
            1.0 - s,
            (beta[0] - beta[1]) * sp * (-1.0 / a4),
            (beta[0] - beta[1]) * sp * (-(x - beta[2]) / beta[3] ** 2)
            * np.sign(beta[3]),
        ])
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
        r_new, s_new = residuals(cand)
        sse_new = float(r_new @ r_new)
        if not np.isfinite(sse_new):
            raise MetricError(
                f"non-finite residual during logistic fit (beta={cand})")
        if sse_new < sse:
            rel_change = abs(sse - sse_new) / max(sse, 1e-30)
            beta, r, s, sse = cand, r_new, s_new, sse_new
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


def evaluate(pred, mos) -> EvalReport:
    x, y = _paired(pred, mos)
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
