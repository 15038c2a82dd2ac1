"""Date-split experiment planning, traffic simulation and the from-scratch
Student-t machinery, checked against closed forms, published critical values
and scipy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special, stats

from oracles import unrolled_betacf
from topicforge.experiment import (ExperimentPlan, _betacf, analyze,
                                   date_window, format_report_table,
                                   power_estimate, regularized_incomplete_beta,
                                   run_experiment, simulate_traffic,
                                   split_dates, student_t_cdf, student_t_sf,
                                   two_sample_t)

# one-tail critical values t(alpha, df) from standard published t tables
T_TABLE = {
    0.05: {1: 6.3138, 2: 2.9200, 3: 2.3534, 4: 2.1318, 5: 2.0150,
           10: 1.8125, 20: 1.7247, 30: 1.6973, 60: 1.6706, 120: 1.6577},
    0.025: {1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
            10: 2.2281, 20: 2.0860, 30: 2.0423, 60: 2.0003, 120: 1.9799},
}


def test_split_dates_structure():
    window = date_window("2025-03-01", 8)
    plan = split_dates(window, seed=4)
    assert plan.dates == window
    aa = [e for e in plan.entries if e.period == "AA"]
    ab = [e for e in plan.entries if e.period == "AB"]
    assert [e.date for e in aa] == window[:4]
    assert [e.date for e in ab] == window[4:]
    for period in (aa, ab):
        assert sum(e.arm == "test" for e in period) == 2
        assert sum(e.arm == "control" for e in period) == 2
    for e in aa:
        assert e.page_group_action == "paused"
    for e in ab:
        want = "active" if e.arm == "test" else "paused"
        assert e.page_group_action == want
    assert split_dates(window, seed=4) == plan


def test_split_dates_validation():
    for n in (0, 6, 9):
        with pytest.raises(ValueError, match="multiple of 4"):
            split_dates(date_window("2025-03-01", n))


def test_split_dates_arm_assignment_is_roughly_uniform():
    window = date_window("2025-03-01", 8)
    hits = sum(split_dates(window, seed=s).entries[0].arm == "test"
               for s in range(400))
    assert 0.35 < hits / 400 < 0.65


def test_date_window_crosses_month_boundary():
    assert date_window("2025-01-30", 3) == ["2025-01-30", "2025-01-31",
                                            "2025-02-01"]


def test_simulate_traffic_noise_free_lift():
    plan = split_dates(date_window("2025-03-01", 8), seed=0)
    clicks = simulate_traffic(plan, base_mean=100.0, noise_sd=0.0,
                              lift_fraction=0.11, seed=1)
    for entry in plan.entries:
        lifted = entry.period == "AB" and entry.arm == "test"
        want = 111.0 if lifted else 100.0
        assert clicks[entry.date] == pytest.approx(want, abs=1e-12)


def test_simulate_traffic_clamps_and_validates():
    plan = split_dates(date_window("2025-03-01", 40), seed=0)
    clicks = simulate_traffic(plan, base_mean=1.0, noise_sd=1000.0,
                              lift_fraction=0.5, seed=3)
    assert min(clicks.values()) >= 0.0
    assert clicks == simulate_traffic(plan, 1.0, 1000.0, 0.5, seed=3)
    with pytest.raises(ValueError):
        simulate_traffic(plan, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        simulate_traffic(plan, 1.0, -1.0, 0.1)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(120):
        a = float(rng.uniform(0.05, 60.0))
        b = float(rng.uniform(0.05, 60.0))
        x = float(rng.uniform(0.0, 1.0))
        got = regularized_incomplete_beta(a, b, x)
        # the continued fraction iterates to 1e-10; observed worst ~3e-12
        assert got == pytest.approx(float(special.betainc(a, b, x)),
                                    abs=1e-10)
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def _betacf_or_raise(fn, a, b, x):
    try:
        return fn(a, b, x)
    except FloatingPointError:
        return "no convergence"


def test_betacf_matches_the_unrolled_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    n = 4000
    a = np.exp(rng.uniform(-5.0, 6.0, n))
    b = np.exp(rng.uniform(-5.0, 6.0, n))
    # half the points just below 1, past the mean, where the fraction is
    # slowest and some of them do not converge within its iteration cap
    x = np.concatenate([rng.uniform(0.0, 1.0, n // 2),
                        1.0 - np.exp(rng.uniform(-12.0, -7.0, n - n // 2))])
    # a denominator hits exactly 0, so its guard fires: the first term, an
    # even half-step's d, an odd half-step's c
    guarded = [(1.0, 3.0, 0.5), (1.0, 2.0, 0.75), (1.5, 11.5, 45 / 46)]
    raised = 0
    for ai, bi, xi in guarded + list(zip(a.tolist(), b.tolist(), x.tolist())):
        want = _betacf_or_raise(unrolled_betacf, ai, bi, xi)
        assert _betacf_or_raise(_betacf, ai, bi, xi) == want, (ai, bi, xi)
        raised += want == "no convergence"
    assert raised > 0


def test_incomplete_beta_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_t_cdf_closed_forms():
    for t in (-5.0, -2.0, -0.5, 0.1, 1.0, 3.0, 8.0):
        cauchy = 0.5 + math.atan(t) / math.pi
        assert student_t_cdf(t, 1) == pytest.approx(cauchy, abs=1e-12)
        df2 = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
        assert student_t_cdf(t, 2) == pytest.approx(df2, abs=1e-12)
    assert student_t_cdf(0.0, 7) == 0.5
    assert student_t_cdf(math.inf, 3) == 1.0
    assert student_t_cdf(-math.inf, 3) == 0.0
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0)


def test_t_cdf_against_scipy_grid():
    for df in (1, 2, 3, 5, 10, 30, 58, 120, 500):
        for t in (-8.0, -2.5, -1.0, -0.3, 0.0, 0.7, 1.9, 4.0, 8.0):
            assert student_t_cdf(t, df) == pytest.approx(
                float(stats.t.cdf(t, df)), abs=1e-10)


def test_t_cdf_matches_published_critical_values():
    for alpha, row in T_TABLE.items():
        for df, t_crit in row.items():
            assert student_t_cdf(t_crit, df) == pytest.approx(
                1.0 - alpha, abs=5e-4)


def test_pooled_t_unit_example():
    result = two_sample_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t == pytest.approx(1.0, abs=1e-12)
    assert result.df == 8.0
    assert result.p == pytest.approx(
        2.0 * (1.0 - student_t_cdf(1.0, 8)), abs=1e-12)


def test_two_sample_t_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(40):
        c = rng.normal(10.0, 2.0, size=rng.integers(3, 30))
        x = rng.normal(10.5, 3.0, size=rng.integers(3, 30))
        for alternative in ("two-sided", "greater"):
            got = two_sample_t(c, x, alternative)
            want = stats.ttest_ind(x, c, alternative=alternative)
            assert got.t == pytest.approx(float(want.statistic), abs=1e-10)
            assert got.p == pytest.approx(float(want.pvalue), abs=1e-10)
            assert got.df == pytest.approx(float(want.df), abs=1e-8)


def test_far_tail_p_values_against_scipy():
    # the desk fixture's AB period: t = 12.349 at df = 58, where 1 - cdf
    # rounds to exactly 0 but the tail is about 3.5e-18
    assert 1.0 - student_t_cdf(12.349, 58) == 0.0
    for t in (8.0, 12.349, 20.0, 40.0):
        for df in (5.0, 30.0, 58.0, 120.0):
            want = float(stats.t.sf(t, df))
            assert want > 0.0
            assert student_t_sf(t, df) == pytest.approx(want, rel=1e-12)
            assert student_t_cdf(-t, df) == pytest.approx(want, rel=1e-12)

    control = [1000.0 + 30.0 * math.sin(i) for i in range(30)]
    test = [1110.0 + 30.0 * math.cos(i) for i in range(30)]
    for alternative in ("two-sided", "greater"):
        got = two_sample_t(control, test, alternative=alternative)
        want = stats.ttest_ind(test, control, alternative=alternative)
        assert got.t == pytest.approx(float(want.statistic), rel=1e-12)
        assert 0.0 < got.p < 1e-20
        assert got.p == pytest.approx(float(want.pvalue), rel=1e-12)


def test_one_sided_p_near_published_value():
    p = 1.0 - student_t_cdf(1.69, 58)
    assert p == pytest.approx(0.048, abs=0.003)


def test_zero_variance_conventions():
    result = two_sample_t([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert result.t == 0.0 and result.p == pytest.approx(1.0)
    result = two_sample_t([1.0, 1.0], [2.0, 2.0])
    assert result.t == math.inf and result.p == 0.0
    result = two_sample_t([2.0, 2.0], [1.0, 1.0], alternative="greater")
    assert result.t == -math.inf and result.p == pytest.approx(1.0)


def test_two_sample_t_validation():
    with pytest.raises(ValueError, match="alternative"):
        two_sample_t([1, 2], [3, 4], alternative="less")
    with pytest.raises(ValueError, match="at least 2"):
        two_sample_t([1], [3, 4])


def arm_clicks(plan: ExperimentPlan, values) -> dict[str, float]:
    clicks = {}
    for period, arm, arm_values in values:
        for date, v in zip(plan.arm_dates(period, arm), arm_values):
            clicks[date] = v
    return clicks


def test_analyze_periods_and_sidedness():
    plan = split_dates(date_window("2025-03-01", 8), seed=2)
    clicks = arm_clicks(plan, [("AA", "control", [10.0, 10.0]),
                               ("AA", "test", [10.0, 10.0]),
                               ("AB", "control", [10.0, 10.0]),
                               ("AB", "test", [12.0, 12.0])])
    report = analyze(plan, clicks)
    aa = report.period("AA")
    assert aa.t == 0.0 and aa.p == pytest.approx(1.0)
    assert aa.alternative == "two-sided"
    assert aa.relative_pct == pytest.approx(100.0)
    ab = report.period("AB")
    assert ab.t == math.inf and ab.p == 0.0
    assert ab.alternative == "greater"
    assert ab.relative_pct == pytest.approx(120.0)
    assert ab.n_control == 2 and ab.n_test == 2
    with pytest.raises(KeyError):
        report.period("AC")


def test_analyze_missing_dates():
    plan = split_dates(date_window("2025-03-01", 8), seed=2)
    clicks = {d: 1.0 for d in plan.dates[:-2]}
    missing = ", ".join(plan.dates[-2:])
    with pytest.raises(ValueError,
                       match=f"^clicks missing for dates: {missing}$"):
        analyze(plan, clicks)


def test_report_table_format():
    plan = split_dates(date_window("2025-03-01", 8), seed=2)
    clicks = arm_clicks(plan, [("AA", "control", [10.0, 11.0]),
                               ("AA", "test", [10.5, 10.5]),
                               ("AB", "control", [10.0, 11.0]),
                               ("AB", "test", [12.0, 12.6])])
    table = format_report_table(analyze(plan, clicks))
    lines = table.splitlines()
    assert len(lines) == 5
    assert "100.0%" in lines[1] and "100.0%" in lines[3]
    assert "117.1%" in lines[4]  # 12.3 / 10.5


def test_run_experiment_wiring():
    window = date_window("2025-03-01", 16)
    plan, clicks, report = run_experiment(window, 1000.0, 30.0, 0.11,
                                          split_seed=0, traffic_seed=1)
    assert plan.dates == window
    assert set(clicks) == set(window)
    assert [pr.period for pr in report.periods] == ["AA", "AB"]


def test_power_estimate_separates_null_from_strong_lift():
    high = power_estimate(0.5, base_mean=1000.0, noise_sd=30.0,
                          n_days=40, n_seeds=30)
    null = power_estimate(0.0, base_mean=1000.0, noise_sd=30.0,
                          n_days=40, n_seeds=30)
    assert high >= 0.9
    assert null <= 0.2
