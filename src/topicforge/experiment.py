"""Date-split experiment harness: plans, simulated traffic, t-tests, reports.

The measurement design splits a time window into an AA calibration period
(first half) and an AB treatment period (second half); within each period
the dates are randomly and evenly divided into control and test sets. New
topic pages stay paused throughout AA and on AB control dates, and are
active on AB test dates, so date-to-date comparison substitutes for user
traffic splitting.

Real traffic is out of scope; a seeded simulator draws daily clicks from a
clamped normal distribution and applies a multiplicative lift on AB test
dates. Reported percentages from any live deployment are treated as
non-reproducible observations; the simulator is validated on shape
properties (null calibration, injected-lift power) instead.

The Student-t CDF is computed from the regularized incomplete beta function
(continued fraction, relative tolerance 1e-10), so the statistics need no
external dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

_BETACF_MAX_ITER = 300
_BETACF_TOL = 1e-10


class ConfigurationError(ValueError):
    """The experiment window or parameters cannot form a valid plan."""


@dataclass(frozen=True)
class PlanEntry:
    date: str
    period: str  # "AA" | "AB"
    arm: str  # "control" | "test"
    page_group_action: str  # "paused" | "active"


@dataclass(frozen=True)
class ExperimentPlan:
    entries: tuple[PlanEntry, ...]

    @property
    def dates(self) -> list[str]:
        return [e.date for e in self.entries]

    def arm_dates(self, period: str, arm: str) -> list[str]:
        return [e.date for e in self.entries
                if e.period == period and e.arm == arm]


def check_window(n_days: int) -> None:
    """Raise ConfigurationError unless an ``n_days`` window gives each arm of
    each period the 2 days its t-test needs."""
    if n_days < 8 or n_days % 4:
        raise ConfigurationError(
            f"window length must be a multiple of 4, at least 8, got {n_days}")


def split_dates(window: Sequence[str], seed: int = 0) -> ExperimentPlan:
    """Assign the window's first half to AA, second to AB, and within each
    period randomly and evenly split dates into control and test arms.

    Pages are paused on every AA date (no treatment difference) and active
    only on AB test dates.
    """
    check_window(len(window))
    rng = np.random.default_rng(seed)
    entries: list[PlanEntry] = []
    half = len(window) // 2
    for period, dates in (("AA", list(window[:half])), ("AB", list(window[half:]))):
        test_idx = set(rng.permutation(len(dates))[:len(dates) // 2].tolist())
        for i, date in enumerate(dates):
            arm = "test" if i in test_idx else "control"
            action = "active" if (period == "AB" and arm == "test") else "paused"
            entries.append(PlanEntry(date, period, arm, action))
    return ExperimentPlan(tuple(entries))


def date_window(start_date: str, n_days: int) -> list[str]:
    """ISO dates from start_date, n_days long."""
    import datetime as dt

    start = dt.date.fromisoformat(start_date)
    return [(start + dt.timedelta(days=i)).isoformat() for i in range(n_days)]


def check_traffic(base_mean: float, noise_sd: float) -> None:
    """Raise ValueError unless daily clicks can be drawn around ``base_mean``
    with standard deviation ``noise_sd``."""
    if base_mean <= 0:
        raise ValueError("base_mean must be > 0")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")


def simulate_traffic(
    plan: ExperimentPlan,
    base_mean: float,
    noise_sd: float,
    lift_fraction: float,
    seed: int = 0,
) -> dict[str, float]:
    """Daily clicks per date: Normal(base_mean, noise_sd) clamped at 0,
    then multiplied by (1 + lift_fraction) on AB test dates only.
    """
    check_traffic(base_mean, noise_sd)
    rng = np.random.default_rng(seed)
    clicks: dict[str, float] = {}
    for entry in plan.entries:
        value = max(0.0, float(rng.normal(base_mean, noise_sd)))
        if entry.period == "AB" and entry.arm == "test":
            value *= 1.0 + lift_fraction
        clicks[entry.date] = value
    return clicks


# ---------------------------------------------------------------------------
# Student-t via the regularized incomplete beta function
# ---------------------------------------------------------------------------

_TINY = 1e-300


def _off_zero(x: float) -> float:
    """``x``, or ``_TINY`` when ``|x|`` is below it: the Lentz guard."""
    return _TINY if abs(x) < _TINY else x


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < _BETACF_TOL:
            return h
    raise FloatingPointError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom.

    The tail beyond |t| is computed directly as 0.5 * I_x(df/2, 1/2) with
    x = df / (df + t^2), so far tails keep their relative precision instead
    of cancelling to 0 in 1 - cdf.
    """
    if df <= 0:
        raise ValueError("df must be > 0")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    return student_t_sf(-t, df)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: float
    alternative: str


def two_sample_t(
    control: Sequence[float],
    test: Sequence[float],
    alternative: str = "two-sided",
) -> TTestResult:
    """Pooled-variance t statistic for mean(test) - mean(control), its
    p-value and df.

    ``alternative`` is "two-sided" or "greater" (test mean exceeds control).
    Two arms with zero variance and equal means give t = 0 by convention.
    ``split_dates`` gives both arms of a period the same size, where the
    pooled and Welch statistics coincide and only the df differ.
    """
    if alternative not in ("two-sided", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    c = np.asarray(control, dtype=np.float64)
    x = np.asarray(test, dtype=np.float64)
    n1, n2 = len(c), len(x)
    if n1 < 2 or n2 < 2:
        raise ValueError("each arm needs at least 2 observations")
    diff = float(x.mean() - c.mean())
    v1 = float(c.var(ddof=1))
    v2 = float(x.var(ddof=1))
    df = float(n1 + n2 - 2)
    pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
    se = math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        t = diff / se
    if alternative == "two-sided":
        p = 2.0 * student_t_sf(abs(t), df)
    else:
        p = student_t_sf(t, df)
    return TTestResult(t, p, df, alternative)


# ---------------------------------------------------------------------------
# analysis and reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodResult:
    period: str
    n_control: int
    n_test: int
    control_mean: float
    test_mean: float
    relative_pct: float  # 100 * test_mean / control_mean
    t: float
    p: float
    df: float
    alternative: str


@dataclass(frozen=True)
class TestReport:
    periods: tuple[PeriodResult, ...]

    def period(self, name: str) -> PeriodResult:
        for pr in self.periods:
            if pr.period == name:
                return pr
        raise KeyError(name)


class MissingDatesError(ValueError):
    def __init__(self, dates: Sequence[str]):
        super().__init__("clicks missing for dates: " + ", ".join(dates))
        self.dates = list(dates)


def analyze(plan: ExperimentPlan, clicks: Mapping[str, float]) -> TestReport:
    """Per-period relative clicks and t-test.

    AA uses a two-sided test (any difference is noise by construction); AB
    uses a one-sided test in the improvement direction.
    """
    missing = [d for d in plan.dates if d not in clicks]
    if missing:
        raise MissingDatesError(missing)
    periods = []
    for period in ("AA", "AB"):
        control = [clicks[d] for d in plan.arm_dates(period, "control")]
        test = [clicks[d] for d in plan.arm_dates(period, "test")]
        alternative = "two-sided" if period == "AA" else "greater"
        result = two_sample_t(control, test, alternative)
        control_mean = float(np.mean(control))
        test_mean = float(np.mean(test))
        relative = 100.0 * test_mean / control_mean if control_mean else float("nan")
        periods.append(PeriodResult(period, len(control), len(test),
                                    control_mean, test_mean, relative,
                                    result.t, result.p, result.df,
                                    alternative))
    return TestReport(tuple(periods))


def format_report_table(report: TestReport) -> str:
    """Human-readable per-period table (control normalized to 100%)."""
    lines = [
        f"{'Period':<8}{'Arm':<10}{'Days':>5}  {'Clicks(Relative)':>17}"
        f"  {'t':>7}  {'p':>8}",
    ]
    for pr in report.periods:
        lines.append(f"{pr.period:<8}{'Control':<10}{pr.n_control:>5}  "
                     f"{'100.0%':>17}  {'':>7}  {'':>8}")
        lines.append(f"{pr.period:<8}{'Test':<10}{pr.n_test:>5}  "
                     f"{pr.relative_pct:>16.1f}%  {pr.t:>7.2f}  {pr.p:>8.4f}")
    return "\n".join(lines)


def run_experiment(
    window: Sequence[str],
    base_mean: float,
    noise_sd: float,
    lift_fraction: float,
    split_seed: int = 0,
    traffic_seed: int = 1,
) -> tuple[ExperimentPlan, dict[str, float], TestReport]:
    """Plan, simulate and analyze one experiment window."""
    plan = split_dates(window, split_seed)
    clicks = simulate_traffic(plan, base_mean, noise_sd, lift_fraction,
                              traffic_seed)
    return plan, clicks, analyze(plan, clicks)


def power_estimate(
    lift_fraction: float,
    base_mean: float,
    noise_sd: float,
    n_days: int,
    n_seeds: int = 200,
    alpha: float = 0.05,
    seed0: int = 0,
) -> float:
    """Fraction of seeded simulations whose AB period is significant."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    window = [f"d{i:04d}" for i in range(n_days)]
    hits = 0
    for s in range(n_seeds):
        _, _, report = run_experiment(window, base_mean, noise_sd,
                                      lift_fraction, split_seed=seed0 + 2 * s,
                                      traffic_seed=seed0 + 2 * s + 1)
        if report.period("AB").p < alpha:
            hits += 1
    return hits / n_seeds
