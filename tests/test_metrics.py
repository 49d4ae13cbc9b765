import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metrics_oracle
from rqvqa import metrics
from rqvqa.errors import MetricError
from rqvqa.fusion import plcc_loss
from rqvqa.metrics import (
    EvalReport,
    FourPLParams,
    apply_4pl,
    challenge_score,
    evaluate,
    fit_4pl,
    pearson,
    rankdata,
    spearman,
)


def loop_rankdata(x):
    """Tie-group walk over the stably sorted values: the average 1-based
    rank of sorted positions i..j is (i + j) / 2 + 1."""
    v = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_pearson(x, y):
    """Independent direct-formula oracle."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x) ** 0.5
    dy = sum((b - my) ** 2 for b in y) ** 0.5
    return num / (dx * dy)


def brute_ranks(x):
    """O(n^2) average-rank oracle with tie handling."""
    n = len(x)
    ranks = []
    for i in range(n):
        smaller = sum(1 for j in range(n) if x[j] < x[i])
        equal = sum(1 for j in range(n) if x[j] == x[i])
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def brute_spearman(x, y):
    return brute_pearson(brute_ranks(x), brute_ranks(y))


class TestPearson:
    def test_affine_relation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_frozen_example(self):
        # oracle value: centered inner product -2 over sqrt(5)*2
        assert pearson([1, 2, 3, 4], [1, -1, 1, -1]) == pytest.approx(
            -2 / (np.sqrt(5) * 2))
        assert pearson([1, 2, 3, 4], [1, -1, 1, -1]) == pytest.approx(
            -0.4472, abs=1e-4)

    def test_constant_input_rejected(self):
        with pytest.raises(MetricError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e200, -1e160, 1e155])
    def test_squares_that_overflow_rejected(self, big):
        # last: x's squares underflow to a zero norm, and 0 * inf is nan
        for x, y in (([big, 1, 2, 3], [1, 2, 3, 4]),
                     ([1, 2, 3, 4], [1, 2, 3, big]),
                     ([1e-200, 0, 0, 0], [big, 0, 0, 0])):
            with pytest.raises(MetricError, match="squares overflow"):
                pearson(x, y)
        assert pearson([1e150, 0, 0, 0], [1, 0, 0, 0]) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, 12, size=n).astype(float)
            y = rng.integers(0, 12, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert pearson(x, y) == pytest.approx(brute_pearson(x, y),
                                                  abs=1e-12)

    def test_consistent_with_correlation_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(10, 50))
            x = rng.uniform(0, 100, size=n)
            y = rng.uniform(0, 100, size=n)
            assert pearson(x, y) == pytest.approx(1 - 2 * plcc_loss(x, y),
                                                  abs=1e-9)


class TestSpearman:
    def test_monotone_is_one(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert spearman(x, [0.1, 3.0, 3.5, 100.0]) == pytest.approx(1.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_frozen_tie_example(self):
        # ranks of x: [1, 2.5, 2.5, 4]; oracle 4.5 / (sqrt(4.5) * sqrt(5))
        expected = 4.5 / (np.sqrt(4.5) * np.sqrt(5))
        assert spearman([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(expected)
        assert spearman([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(
            0.9487, abs=1e-4)

    def test_rankdata_ties(self):
        np.testing.assert_allclose(rankdata([10, 20, 20, 30]),
                                   [1.0, 2.5, 2.5, 4.0])
        np.testing.assert_allclose(rankdata([5, 5, 5]), [2.0, 2.0, 2.0])

    @given(st.lists(st.one_of(
        st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0]),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_rankdata_matches_loop_oracle_bytes(self, xs):
        # tie-heavy draws; -0.0 and 0.0 compare equal and share a rank
        assert rankdata(xs).tobytes() == loop_rankdata(xs).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rankdata_rejects_non_finite(self, bad):
        with pytest.raises(MetricError, match="non-finite"):
            rankdata([1.0, bad, 2.0])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.integers(0, 8, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(brute_spearman(x, y),
                                                   abs=1e-12)

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=20,
                    unique=True),
           st.sampled_from(["exp", "cube"]))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_strictly_monotone_transform(self, xs, kind):
        # integer inputs keep the transforms injective in float64
        rng = np.random.default_rng(len(xs))
        y = rng.uniform(0, 10, size=len(xs))
        x = np.array(xs, dtype=np.float64)
        tx = np.exp(x / 25.0) if kind == "exp" else x ** 3
        assert spearman(tx, y) == pytest.approx(spearman(x, y), abs=1e-12)


def anti_correlated(n=200):
    rng = np.random.default_rng(0)
    mos = rng.uniform(1, 5, size=n)
    return -mos + rng.normal(0, 1.6, size=n), mos


class TestFourPL:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        true = FourPLParams(beta1=4.8, beta2=1.1, beta3=0.3, beta4=0.7)
        pred = rng.uniform(-2.0, 2.5, size=50)
        mos = apply_4pl(true, pred)
        fit = fit_4pl(pred, mos)
        rmse = np.sqrt(np.mean((apply_4pl(fit, pred) - mos) ** 2))
        assert rmse < 1e-6

    def test_identity_recoverable(self):
        pred = np.linspace(1.0, 5.0, 60)
        fit = fit_4pl(pred, pred)
        mapped = apply_4pl(fit, pred)
        assert np.sqrt(np.mean((mapped - pred) ** 2)) < 1e-3
        assert pearson(mapped, pred) >= 0.9999

    def test_constant_pred_rejected(self):
        with pytest.raises(MetricError):
            fit_4pl([2.0] * 10, np.linspace(1, 5, 10))

    def test_too_few_points_rejected(self):
        with pytest.raises(MetricError, match="at least 5"):
            fit_4pl([1, 2, 3, 4], [1, 2, 3, 4])

    def test_beta4_zero_rejected(self):
        with pytest.raises(MetricError):
            FourPLParams(1.0, 0.0, 0.0, 0.0)

    def test_fitted_map_is_monotone(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            r = np.random.default_rng(seed)
            pred = r.uniform(0, 1, size=30)
            mos = 4 * pred + r.normal(0, 0.2, size=30) + 1
            fit = fit_4pl(pred, mos)
            grid = np.linspace(pred.min(), pred.max(), 100)
            mapped = apply_4pl(fit, grid)
            assert np.all(np.diff(mapped) >= 0)
            assert fit.beta1 > fit.beta2

    def test_step_budget_is_a_module_constant(self, monkeypatch):
        # with no step allowed, the fit returns its documented start
        rng = np.random.default_rng(3)
        pred = rng.uniform(-2.0, 2.5, size=50)
        mos = 3.0 + pred + rng.normal(0.0, 0.1, size=50)
        monkeypatch.setattr(metrics, "FIT_MAX_ITER", 0)
        fit = fit_4pl(pred, mos)
        assert (fit.beta1, fit.beta2, fit.beta3, fit.beta4) == (
            mos.max(), mos.min(), pred.mean(), pred.std() / 4.0)

    def test_decreasing_map_rejected(self):
        with pytest.raises(MetricError, match="not increasing"):
            fit_4pl(*anti_correlated())


class TestEvaluate:
    def test_perfect_prediction(self):
        mos = np.linspace(1, 5, 20)
        rep = evaluate(mos, mos)
        assert rep.srcc == pytest.approx(1.0)
        assert rep.plcc_raw == pytest.approx(1.0)
        assert rep.plcc_4pl == pytest.approx(1.0, abs=1e-6)

    def test_monotone_nonlinear_prediction(self):
        rng = np.random.default_rng(5)
        mos = rng.uniform(1, 5, size=40)
        pred = np.exp(mos)
        rep = evaluate(pred, mos)
        assert rep.srcc == pytest.approx(1.0)
        assert rep.plcc_4pl > rep.plcc_raw

    def test_srcc_invariant_under_fitted_map(self):
        rng = np.random.default_rng(6)
        mos = rng.uniform(1, 5, size=30)
        pred = mos ** 2 + rng.normal(0, 0.5, size=30)
        rep = evaluate(pred, mos)
        fit = fit_4pl(pred, mos)
        assert spearman(apply_4pl(fit, pred), mos) == pytest.approx(
            rep.srcc, abs=0)

    def test_fit_failure_falls_back_flagged(self):
        # n=4 is below the fitting minimum but fine for correlations
        rep = evaluate([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.8])
        assert rep.fit_failed
        assert rep.fit is None
        assert rep.plcc_4pl == rep.plcc_raw

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [9.9e152, 1.3e154])
    def test_fit_that_overflows_falls_back_without_warnings(self, big):
        # the MOS spread passes pearson, but the fit's normal equations
        # overflow; the fit fails and no numpy warning escapes
        pred = [0.1 * i + 0.03 * (i % 3) for i in range(10)]
        rep = evaluate(pred, [big] + [float(i) for i in range(1, 10)])
        assert rep.fit_failed
        assert rep.plcc_4pl == rep.plcc_raw

    def test_anti_correlated_prediction_keeps_its_sign(self):
        # the best logistic fit of this sample is decreasing (beta1 < beta2)
        # and would report plcc_4pl = +0.66 for plcc_raw = -0.63
        pred, mos = anti_correlated()
        rep = evaluate(pred, mos)
        assert rep.fit_failed and rep.fit is None
        assert rep.plcc_raw < -0.6
        assert rep.plcc_4pl == rep.plcc_raw

    def test_report_range_validated(self):
        with pytest.raises(MetricError):
            EvalReport(srcc=1.5, plcc_raw=0.0, plcc_4pl=0.0, fit=None, n=10)


def report_hex(pred, mos, evaluate_fn):
    """evaluate's report, each float as float.hex, or its MetricError."""
    try:
        rep = evaluate_fn(pred, mos)
    except MetricError as exc:
        return f"MetricError: {exc}"
    betas = (rep.fit.beta1, rep.fit.beta2, rep.fit.beta3,
             rep.fit.beta4) if rep.fit else ()
    return (tuple(float(v).hex() for v in (rep.srcc, rep.plcc_raw,
                                             rep.plcc_4pl, *betas)),
            rep.n, rep.fit_failed)


@st.composite
def scored_samples(draw):
    """(prediction, mos): MOS on a 0.25 grid (ties) times a scale up to
    1e150; predictions a linear, exponential or saturating map of it,
    possibly reversed and on a 0.25 grid, times a scale from 1e-8 to 1e8."""
    n = draw(st.sampled_from(range(2, 501)))    # few n < 5: no fit
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = np.round(rng.uniform(1.0, 5.0, n) * 4.0) / 4.0
    mos = grid * draw(st.sampled_from([1.0, 1e-3, 1e6, 1e150]))
    t = {"linear": grid, "exp": np.exp(grid),
         "saturating": np.tanh(grid - 3.0)}[
        draw(st.sampled_from(["linear", "exp", "saturating"]))]
    t = draw(st.sampled_from([1.0, 1.0, -1.0])) * t + draw(
        st.sampled_from([0.0, 0.05, 0.5, 5.0])) * rng.normal(0.0, 1.0, n)
    if draw(st.booleans()):
        t = np.round(t * 4.0) / 4.0
    return t * 10.0 ** draw(st.integers(-8, 8)), mos


class TestByteOracle:
    """The one-pass logistic and the in-place Jacobian give the bytes of
    the masked logistic and the column-stacked Jacobian."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2,
             1e308, -1e308, np.inf, -np.inf]

    def test_sigmoid_edge_values(self):
        u = np.array(self.EDGES)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = metrics._sigmoid(u)
            want = metrics_oracle._sigmoid(u)
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_bytes(self, us):
        u = np.array(us)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert (metrics._sigmoid(u).tobytes()
                    == metrics_oracle._sigmoid(u).tobytes())

    @given(scored_samples())
    @example((np.arange(10.0), -np.arange(10.0)))       # anti-correlated
    @example((np.array([1.0, 2.0]), np.array([2.0, 1.0])))
    @settings(max_examples=120, deadline=None)
    def test_evaluate_report_bytes(self, sample):
        pred, mos = sample
        assert report_hex(pred, mos, evaluate) == report_hex(
            pred, mos, metrics_oracle.evaluate)


class TestChallengeScore:
    def test_all_ones(self):
        assert challenge_score(1, 1, 1, 1) == 1.0

    def test_without_rank_components(self):
        assert challenge_score(0.9, 0.9, 0, 0) == pytest.approx(0.81)

    def test_strong_correlations_with_full_ranks(self):
        # arithmetic oracle: 0.45*0.926 + 0.45*0.924 + 0.05 + 0.05
        assert challenge_score(0.926, 0.924, 1, 1) == pytest.approx(0.9325)

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricError):
            challenge_score(1.2, 0.5, 0.5, 0.5)
        with pytest.raises(MetricError):
            challenge_score(0.5, 0.5, -0.1, 0.5)
