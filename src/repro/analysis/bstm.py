"""Bayesian structural time-series (BSTM) causal-impact estimation.

The paper quantifies each controlled experiment with a
CausalImpact-style analysis (Brodersen et al.): fit a structural
time-series model to the *pre-intervention* treatment series with the
best-matched control series as a regression covariate, project the
counterfactual ("what would the honeyprefix have seen without the
feature?") over the post-period, and report the average effect size with a
95% interval.

Model
-----
Observation:  y_t = mu_t + gamma_t + beta' x_t + eps_t,
              eps_t ~ N(0, sigma_obs^2)
Level:        mu_{t+1} = mu_t + eta_t,  eta_t ~ N(0, sigma_level^2)
Seasonal:     gamma_{t+1} = -(gamma_t + ... + gamma_{t-S+2}) + omega_t,
              omega_t ~ N(0, sigma_seasonal^2)   [optional, period S]

``beta`` is a static regression on the control series (fit by ridge-
regularized least squares on the pre-period); the local level absorbs the
treatment prefix's own baseline and drift, so parallel trends are *not*
assumed — the paper's stated reason for preferring BSTM over
difference-in-differences.  The optional dummy-seasonal component (weekly
by default, as in CausalImpact) captures day-of-week scanning rhythms.
The variance hyperparameters are fit by maximum likelihood through a
Kalman filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro._util import make_rng

#: Hoisted out of the Kalman likelihood loops: recomputing ``log(2*pi)``
#: per step is pure overhead.
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class KalmanResult:
    """Filtered local-level estimates."""

    level: np.ndarray        # filtered state mean per step
    level_var: np.ndarray    # filtered state variance per step
    loglik: float
    sigma_obs2: float
    sigma_level2: float


def kalman_filter_local_level(
    z: np.ndarray, sigma_obs2: float, sigma_level2: float
) -> KalmanResult:
    """Run a Kalman filter for the local-level model on series ``z``.

    Missing observations (NaN) are skipped (pure prediction step), which
    supports gappy daily series.
    """
    n = len(z)
    level = np.zeros(n)
    level_var = np.zeros(n)
    # Diffuse-ish initialization around the first finite observation.
    finite_mask = np.isfinite(z)
    finite = z[finite_mask]
    mu = float(finite[0]) if len(finite) else 0.0
    var = float(np.var(finite)) + sigma_obs2 + 1.0 if len(finite) else 1.0
    loglik = 0.0
    # Hot loop: everything is a Python float and a local name — the numpy
    # per-step scalar ops and repeated attribute/ufunc lookups the naive
    # version paid for dominate its runtime.
    z_values = z.tolist()
    observed = finite_mask.tolist()
    log = math.log
    for t in range(n):
        # Predict.
        var = var + sigma_level2
        if observed[t]:
            # Update.
            innovation = z_values[t] - mu
            innovation_var = var + sigma_obs2
            gain = var / innovation_var
            mu = mu + gain * innovation
            var = (1.0 - gain) * var
            loglik -= 0.5 * (
                _LOG_2PI + log(innovation_var)
                + innovation * innovation / innovation_var
            )
        level[t] = mu
        level_var[t] = var
    return KalmanResult(
        level=level, level_var=level_var, loglik=float(loglik),
        sigma_obs2=sigma_obs2, sigma_level2=sigma_level2,
    )


def fit_local_level(z: np.ndarray) -> KalmanResult:
    """MLE fit of the local-level variances via L-BFGS on log-variances."""
    z = np.asarray(z, dtype=float)
    finite = z[np.isfinite(z)]
    if len(finite) < 3:
        raise ValueError("need at least 3 finite observations to fit")
    scale = max(float(np.var(finite)), 1e-8)

    def negloglik(params: np.ndarray) -> float:
        sigma_obs2 = np.exp(params[0]) * scale
        sigma_level2 = np.exp(params[1]) * scale
        return -kalman_filter_local_level(z, sigma_obs2, sigma_level2).loglik

    best = None
    for start in ([0.0, -2.0], [-1.0, 0.0], [0.0, 0.0]):
        res = optimize.minimize(
            negloglik, np.array(start), method="L-BFGS-B",
            bounds=[(-12.0, 6.0), (-12.0, 6.0)],
        )
        if best is None or res.fun < best.fun:
            best = res
    sigma_obs2 = float(np.exp(best.x[0]) * scale)
    sigma_level2 = float(np.exp(best.x[1]) * scale)
    return kalman_filter_local_level(z, sigma_obs2, sigma_level2)


class BstmModel:
    """Structural time-series model with static control regression."""

    def __init__(self, ridge: float = 1e-3):
        self.ridge = ridge
        self.beta: np.ndarray | None = None
        self.intercept: float = 0.0
        self._kalman: KalmanResult | None = None

    def fit(self, y_pre: np.ndarray, x_pre: np.ndarray) -> "BstmModel":
        """Fit on the pre-intervention window.

        ``x_pre`` has shape (n, k) — one column per control series; pass an
        (n, 0) array for a control-free (pure local level) model.
        """
        y_pre = np.asarray(y_pre, dtype=float)
        x_pre = np.atleast_2d(np.asarray(x_pre, dtype=float))
        if x_pre.shape[0] != len(y_pre):
            x_pre = x_pre.T
        if x_pre.shape[0] != len(y_pre):
            raise ValueError("control series length mismatch")
        k = x_pre.shape[1]
        if k:
            # Ridge-regularized least squares with intercept.
            design = np.column_stack([np.ones(len(y_pre)), x_pre])
            gram = design.T @ design + self.ridge * np.eye(k + 1)
            coef = np.linalg.solve(gram, design.T @ y_pre)
            self.intercept = float(coef[0])
            self.beta = coef[1:]
            residual = y_pre - design @ coef
        else:
            self.intercept = 0.0
            self.beta = np.zeros(0)
            residual = y_pre.copy()
        self._kalman = fit_local_level(residual)
        return self

    def _require_fit(self) -> KalmanResult:
        if self._kalman is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._kalman

    def predict(
        self, x_post: np.ndarray, horizon: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counterfactual mean and variance over the post-period.

        The level's predictive mean stays at the last filtered level while
        its variance grows by sigma_level^2 per step (random-walk fan-out);
        the regression part follows the observed control series.
        """
        kal = self._require_fit()
        x_post = np.asarray(x_post, dtype=float)
        # A control-free model is fed an (h, 0) matrix (mirroring fit());
        # its row count still defines the horizon even though size == 0.
        control_free = x_post.ndim == 2 and x_post.shape[1] == 0
        x_post = np.atleast_2d(x_post)
        if horizon is None:
            horizon = (
                x_post.shape[0] if (x_post.size or control_free) else 0
            )
        if x_post.size and x_post.shape[0] != horizon:
            x_post = x_post.T
        steps = np.arange(1, horizon + 1)
        level_mean = np.full(horizon, kal.level[-1])
        level_var = kal.level_var[-1] + steps * kal.sigma_level2
        if len(self.beta):
            regression = self.intercept + x_post @ self.beta
        else:
            regression = np.zeros(horizon)
        mean = level_mean + regression
        var = level_var + kal.sigma_obs2
        return mean, var


@dataclass(frozen=True)
class ImpactResult:
    """Causal-impact summary for one intervention."""

    counterfactual: np.ndarray        # predicted series over the post-period
    counterfactual_var: np.ndarray
    pointwise: np.ndarray             # observed - counterfactual, per day
    average_effect: float             # the paper's AES
    ci_low: float
    ci_high: float
    significant: bool
    relative_effect: float


class CausalImpact:
    """End-to-end effect estimation for one treatment/control pair."""

    def __init__(self, alpha: float = 0.05,
                 rng: np.random.Generator | int | None = 0,
                 n_resamples: int = 1000,
                 seasonal_period: int | None = None):
        """``seasonal_period=7`` adds the weekly dummy-seasonal component
        (CausalImpact's default); None keeps the pure local-level model."""
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        self.alpha = alpha
        self._rng = make_rng(rng)
        self.n_resamples = n_resamples
        self.seasonal_period = seasonal_period

    def run(
        self,
        y: np.ndarray,
        x: np.ndarray,
        intervention_index: int,
    ) -> ImpactResult:
        """Estimate the intervention's effect.

        ``y`` is the treatment series (daily metric), ``x`` the control
        series (same length; may be (n, k) for several controls), and
        ``intervention_index`` the first post-intervention day.
        """
        from repro.obs import get_tracer

        with get_tracer().span("analysis.causal_impact",
                               n=len(y), intervention=intervention_index):
            return self._run_impl(y, x, intervention_index)

    def bootstrap_draws(
        self,
        pointwise: np.ndarray,
        cf_sd: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All ``n_resamples`` bootstrap means in one batched draw.

        One ``(B, n_post)`` index draw plus one matching noise draw replace
        the per-resample loop; the centered row means come out identical to
        :meth:`bootstrap_draws_reference` under the same generator state
        because both consume the stream in the same order (all indices
        first, then all noise, row-major).
        """
        n_post = len(pointwise)
        idx = rng.integers(0, n_post, size=(self.n_resamples, n_post))
        noise = rng.normal(0.0, cf_sd[idx])
        resampled = pointwise[idx] + noise - noise.mean(axis=1, keepdims=True)
        return resampled.mean(axis=1)

    def bootstrap_draws_reference(
        self,
        pointwise: np.ndarray,
        cf_sd: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Scalar per-resample loop: the readable spec for
        :meth:`bootstrap_draws`, kept for the seeded equivalence test."""
        n_post = len(pointwise)
        idx_rows = [rng.integers(0, n_post, size=n_post)
                    for _ in range(self.n_resamples)]
        draws = np.empty(self.n_resamples)
        for b, idx in enumerate(idx_rows):
            noise = rng.normal(0.0, cf_sd[idx])
            draws[b] = np.mean(pointwise[idx] + noise - noise.mean())
        return draws

    def _run_impl(
        self,
        y: np.ndarray,
        x: np.ndarray,
        intervention_index: int,
    ) -> ImpactResult:
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if len(y) != x.shape[0]:
            raise ValueError("treatment/control length mismatch")
        if not 3 <= intervention_index < len(y):
            raise ValueError(
                "intervention index must leave >= 3 pre days and >= 1 post day"
            )
        y_pre, y_post = y[:intervention_index], y[intervention_index:]
        x_pre, x_post = x[:intervention_index], x[intervention_index:]

        if self.seasonal_period is not None:
            model = SeasonalBstmModel(period=self.seasonal_period).fit(
                y_pre, x_pre
            )
        else:
            model = BstmModel().fit(y_pre, x_pre)
        counterfactual, cf_var = model.predict(x_post)
        pointwise = y_post - counterfactual
        average_effect = float(np.mean(pointwise))

        # 95% interval by resampling the daily effects (paper §3.4),
        # combined with the model's predictive uncertainty.
        n_post = len(pointwise)
        cf_sd = np.sqrt(np.maximum(cf_var, 0.0))
        draws = self.bootstrap_draws(pointwise, cf_sd, self._rng)
        # Add predictive-mean uncertainty from the counterfactual itself.
        mean_sd = float(np.sqrt(np.sum(cf_var)) / n_post)
        spread = self._rng.normal(0.0, mean_sd, size=self.n_resamples)
        draws = draws + spread
        ci_low = float(np.quantile(draws, self.alpha / 2))
        ci_high = float(np.quantile(draws, 1 - self.alpha / 2))
        significant = not (ci_low <= 0.0 <= ci_high)
        baseline = float(np.sum(counterfactual))
        relative = (
            float(np.sum(pointwise)) / baseline if abs(baseline) > 1e-12 else
            float("inf") if np.sum(pointwise) > 0 else 0.0
        )
        return ImpactResult(
            counterfactual=counterfactual,
            counterfactual_var=cf_var,
            pointwise=pointwise,
            average_effect=average_effect,
            ci_low=ci_low,
            ci_high=ci_high,
            significant=significant,
            relative_effect=relative,
        )


@dataclass(frozen=True)
class SeasonalKalmanResult:
    """Filtered level+seasonal state-space estimates."""

    state_mean: np.ndarray       # final filtered state vector
    state_cov: np.ndarray        # final filtered state covariance
    fitted_level: np.ndarray     # filtered (mu_t + gamma_t) per step
    loglik: float
    sigma_obs2: float
    sigma_level2: float
    sigma_seasonal2: float
    period: int


def _seasonal_system(period: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix T and observation vector Z for level+seasonal."""
    dim = period  # 1 level + (period - 1) seasonal states
    transition = np.zeros((dim, dim))
    transition[0, 0] = 1.0
    # Seasonal block: gamma_{t+1} = -(sum of previous period-1 gammas).
    transition[1, 1:] = -1.0
    for i in range(2, dim):
        transition[i, i - 1] = 1.0
    observation = np.zeros(dim)
    observation[0] = 1.0
    observation[1] = 1.0
    return transition, observation


def kalman_filter_seasonal(
    z: np.ndarray,
    sigma_obs2: float,
    sigma_level2: float,
    sigma_seasonal2: float,
    period: int = 7,
) -> SeasonalKalmanResult:
    """Kalman filter for the local-level + dummy-seasonal model."""
    if period < 2:
        raise ValueError(f"seasonal period must be >= 2, got {period}")
    n = len(z)
    transition, observation = _seasonal_system(period)
    dim = period
    state_noise = np.zeros((dim, dim))
    state_noise[0, 0] = sigma_level2
    state_noise[1, 1] = sigma_seasonal2

    finite = z[np.isfinite(z)]
    state = np.zeros(dim)
    state[0] = float(finite[0]) if len(finite) else 0.0
    scale = float(np.var(finite)) + sigma_obs2 + 1.0 if len(finite) else 1.0
    covariance = np.eye(dim) * scale

    fitted = np.zeros(n)
    loglik = 0.0
    # Hot loop: the observation vector picks out states 0 and 1, so the
    # ``observation @ ...`` products reduce to two-element sums — worth
    # spelling out since this filter runs inside an L-BFGS objective.
    z_values = z.tolist()
    observed = np.isfinite(z).tolist()
    transition_t = transition.T
    log = math.log
    for t in range(n):
        # Predict.
        state = transition @ state
        covariance = transition @ covariance @ transition_t + state_noise
        if observed[t]:
            prediction = state[0] + state[1]
            innovation = z_values[t] - prediction
            obs_cov = covariance[0] + covariance[1]
            innovation_var = obs_cov[0] + obs_cov[1] + sigma_obs2
            gain = obs_cov / innovation_var
            state = state + gain * innovation
            covariance = covariance - np.outer(gain, obs_cov)
            loglik -= 0.5 * (
                _LOG_2PI + log(innovation_var)
                + innovation * innovation / innovation_var
            )
        fitted[t] = state[0] + state[1]
    return SeasonalKalmanResult(
        state_mean=state, state_cov=covariance, fitted_level=fitted,
        loglik=float(loglik), sigma_obs2=sigma_obs2,
        sigma_level2=sigma_level2, sigma_seasonal2=sigma_seasonal2,
        period=period,
    )


def fit_seasonal(z: np.ndarray, period: int = 7) -> SeasonalKalmanResult:
    """MLE fit of the three variances for the seasonal model."""
    z = np.asarray(z, dtype=float)
    finite = z[np.isfinite(z)]
    if len(finite) < period + 2:
        raise ValueError(
            f"need at least {period + 2} finite observations to fit a "
            f"period-{period} seasonal model"
        )
    scale = max(float(np.var(finite)), 1e-8)

    def negloglik(params: np.ndarray) -> float:
        return -kalman_filter_seasonal(
            z,
            np.exp(params[0]) * scale,
            np.exp(params[1]) * scale,
            np.exp(params[2]) * scale,
            period=period,
        ).loglik

    best = None
    for start in ([0.0, -2.0, -4.0], [-1.0, -1.0, -2.0]):
        res = optimize.minimize(
            negloglik, np.array(start), method="L-BFGS-B",
            bounds=[(-12.0, 6.0)] * 3,
        )
        if best is None or res.fun < best.fun:
            best = res
    return kalman_filter_seasonal(
        z,
        float(np.exp(best.x[0]) * scale),
        float(np.exp(best.x[1]) * scale),
        float(np.exp(best.x[2]) * scale),
        period=period,
    )


class SeasonalBstmModel(BstmModel):
    """BSTM with static regression plus a weekly seasonal component.

    Drop-in extension of :class:`BstmModel`: the residual (after the
    control regression) is modeled as local level + dummy seasonal, and
    predictions roll the seasonal pattern forward deterministically while
    the level fans out.
    """

    def __init__(self, ridge: float = 1e-3, period: int = 7):
        super().__init__(ridge=ridge)
        self.period = period
        self._seasonal: SeasonalKalmanResult | None = None

    def fit(self, y_pre: np.ndarray, x_pre: np.ndarray) -> "SeasonalBstmModel":
        y_pre = np.asarray(y_pre, dtype=float)
        x_pre = np.atleast_2d(np.asarray(x_pre, dtype=float))
        if x_pre.shape[0] != len(y_pre):
            x_pre = x_pre.T
        if x_pre.shape[0] != len(y_pre):
            raise ValueError("control series length mismatch")
        k = x_pre.shape[1]
        if k:
            design = np.column_stack([np.ones(len(y_pre)), x_pre])
            gram = design.T @ design + self.ridge * np.eye(k + 1)
            coef = np.linalg.solve(gram, design.T @ y_pre)
            self.intercept = float(coef[0])
            self.beta = coef[1:]
            residual = y_pre - design @ coef
        else:
            self.intercept = 0.0
            self.beta = np.zeros(0)
            residual = y_pre.copy()
        self._seasonal = fit_seasonal(residual, period=self.period)
        return self

    def predict(self, x_post: np.ndarray,
                horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        if self._seasonal is None:
            raise RuntimeError("model is not fitted; call fit() first")
        seasonal = self._seasonal
        x_post = np.atleast_2d(np.asarray(x_post, dtype=float))
        if horizon is None:
            horizon = x_post.shape[0] if x_post.size else 0
        if x_post.size and x_post.shape[0] != horizon:
            x_post = x_post.T
        transition, observation = _seasonal_system(seasonal.period)
        state_noise = np.zeros_like(transition)
        state_noise[0, 0] = seasonal.sigma_level2
        state_noise[1, 1] = seasonal.sigma_seasonal2
        state = seasonal.state_mean.copy()
        covariance = seasonal.state_cov.copy()
        mean = np.zeros(horizon)
        var = np.zeros(horizon)
        for t in range(horizon):
            state = transition @ state
            covariance = (transition @ covariance @ transition.T
                          + state_noise)
            mean[t] = float(observation @ state)
            var[t] = float(observation @ covariance @ observation
                           + seasonal.sigma_obs2)
        if len(self.beta):
            mean = mean + self.intercept + x_post @ self.beta
        return mean, var
