"""Planner: closed-form quantities, published-figure reproduction, schedule."""

import json
import math
import random
from dataclasses import replace

import pytest

from relbc.planner import (
    InfeasibleGeometryError,
    NS,
    PlannerError,
    SECONDS_PER_DAY,
    SPEED_OF_LIGHT,
    SpacetimeConfig,
    compute_round_count,
    compute_tq,
    drift_budget,
    epsilon_exponential,
    epsilon_linear,
    format_plan_table,
    load_plan,
    min_separation,
    parse_config,
    parse_duration,
    rehearsal,
    resource_plan,
    save_plan,
    schedule_gaps,
)

from helpers import plan_grid, small_plan

DAY = SECONDS_PER_DAY


def case1(T=DAY, n=128):
    return SpacetimeConfig(L=7000.0, l1=450.0, l2=450.0, tau1=3e-6, tau2=3e-6,
                           t_m=3.3e-6, T=T, n=n, name="case1")


def case2(T=DAY, n=128):
    return SpacetimeConfig(L=1e7, l1=3e6, l2=3e6, tau1=20e-3, tau2=20e-3,
                           t_m=1e-3, T=T, n=n, name="case2")


class TestDuration:
    def test_units(self):
        assert parse_duration("86400") == DAY
        assert parse_duration("24h") == DAY
        assert parse_duration("3.3us") == pytest.approx(3.3e-6)
        assert parse_duration("20ms") == pytest.approx(0.02)
        assert parse_duration("1y") == 365 * DAY
        assert parse_duration("1y", year_days=365.25) == 365.25 * DAY

    def test_garbage(self):
        with pytest.raises(PlannerError):
            parse_duration("soon")


class TestConfigParsing:
    TEXT = """
    # comment
    name = lab
    L = 7000
    l1 = 450   # inline comment
    l2 = 450
    tau1 = 3us
    tau2 = 3us
    t_m = 3.3us
    T = 24h
    n = 128
    """

    def test_parse(self):
        cfg = parse_config(self.TEXT)
        assert cfg.L == 7000 and cfg.tau1 == pytest.approx(3e-6)
        assert cfg.T == DAY and cfg.name == "lab"

    def test_unknown_key(self):
        with pytest.raises(PlannerError, match="unknown key"):
            parse_config("L = 1\nwarp = 9")

    def test_missing_keys(self):
        with pytest.raises(PlannerError, match="missing"):
            parse_config("L = 7000")

    def test_invalid_geometry_named(self):
        with pytest.raises(InfeasibleGeometryError, match="l1 \\+ l2"):
            parse_config("L = 100\nl1 = 60\nl2 = 60\ntau1=1us\ntau2=1us\nt_m=1us\nT=1h")

    @pytest.mark.parametrize("field, value, match", [
        *((f, v, f"{f} = {v} is not a finite, strictly positive number")
          for f in ("L", "l1", "l2", "tau1", "tau2", "t_m", "T", "c")
          for v in (math.inf, math.nan)),
        ("n", 8.0, "n = 8.0 is not an integer"),
        ("n", True, "n = True is not an integer")])
    def test_config_value_not_finite_or_width_not_int(self, field, value, match):
        """An infinite or NaN quantity, or a width that is not an int, is
        refused where the config is made, not met later as an overflow or
        a field error."""
        fields = {**case1().to_dict(), field: value}
        with pytest.raises(PlannerError, match=match):
            SpacetimeConfig(**fields)


class TestTq:
    def test_case1_value(self):
        assert compute_tq(case1()) * 1e6 == pytest.approx(34.0948, abs=5e-4)

    def test_case2_value(self):
        assert compute_tq(case2()) * 1e3 == pytest.approx(24.685, abs=5e-3)

    def test_infeasible_guard(self):
        with pytest.raises(InfeasibleGeometryError):
            SpacetimeConfig(L=100.0, l1=60.0, l2=60.0, tau1=1e-6, tau2=1e-6,
                            t_m=1e-6, T=1.0)
        # margin eats the whole light budget
        with pytest.raises(InfeasibleGeometryError):
            compute_tq(SpacetimeConfig(L=1000.0, l1=1.0, l2=1.0, tau1=1e-6,
                                       tau2=1e-6, t_m=1.0, T=1.0))

    def test_monotonic_in_geometry(self):
        rng = random.Random(0)
        for _ in range(50):
            L = rng.uniform(5000, 50000)
            l = rng.uniform(1, L / 10)
            tm = rng.uniform(1e-7, 1e-5)
            base = SpacetimeConfig(L=L, l1=l, l2=l, tau1=1e-6, tau2=1e-6, t_m=tm, T=1.0)
            bigger_L = SpacetimeConfig(L=L * 1.1, l1=l, l2=l, tau1=1e-6, tau2=1e-6,
                                       t_m=tm, T=1.0)
            smaller_tm = SpacetimeConfig(L=L, l1=l, l2=l, tau1=1e-6, tau2=1e-6,
                                         t_m=tm / 2, T=1.0)
            assert compute_tq(bigger_L) > compute_tq(base)
            assert compute_tq(smaller_tm) > compute_tq(base)


class TestRoundCount:
    def test_boundary_single_pair(self):
        cfg = case1(T=compute_tq(case1()))
        assert compute_round_count(cfg) + 1 == 2

    def test_case1_24h_matches_published_round_count(self):
        m1 = compute_round_count(case1()) + 1
        assert abs(m1 - 5e9) / 5e9 < 0.05

    def test_case2_24h(self):
        m1 = compute_round_count(case2()) + 1
        assert m1 == pytest.approx(7.0e6, rel=0.01)

    def test_even_except_degenerate(self):
        assert compute_round_count(case1()) % 2 == 0
        cfg = case1(T=compute_tq(case1()) * 1.4)
        assert compute_round_count(cfg) == 1  # degenerate corner stays odd

    def test_too_short_duration(self):
        with pytest.raises(InfeasibleGeometryError):
            compute_round_count(case1(T=compute_tq(case1()) * 0.4))


class TestEpsilon:
    def test_linear_matches_published_case1(self):
        m = compute_round_count(case1())
        assert epsilon_linear(m, 128) == pytest.approx(7.8e-10, rel=0.02)

    def test_linear_matches_published_case2(self):
        m = compute_round_count(case2())
        # the published 1e-12 is one significant figure of this value
        assert epsilon_linear(m, 128) == pytest.approx(1.07e-12, rel=0.02)

    def test_linear_exponent_vanishes(self):
        assert epsilon_linear(1, 3) == 1.0

    def test_linear_caps_at_one(self):
        assert epsilon_linear(10**30, 64) == 1.0

    def test_exponential_known_points(self):
        assert epsilon_exponential(6, 128) == pytest.approx(0.0625)
        assert epsilon_exponential(1, 128) == pytest.approx(2.0 ** -128)
        assert epsilon_exponential(30, 128) > 0.99  # bound gone vacuous

    def test_exponential_underflow_returns_one(self):
        assert epsilon_exponential(10**6, 128) == 1.0

    def test_monotonicity(self):
        # strict below the cap, i.e. while m * 2^((3-n)/2) < 1
        rng = random.Random(1)
        checked = 0
        while checked < 100:
            m = rng.randrange(1, 10**9)
            n = rng.randrange(8, 512)
            if math.log2(m + 1) + (3 - n) / 2 >= 0:
                continue
            assert epsilon_linear(m + 1, n) > epsilon_linear(m, n)
            assert epsilon_linear(m, n + 2) < epsilon_linear(m, n)
            checked += 1

    def test_cross_bound_dominance(self):
        """For n = 128 the linear bound beats the exponential one from m = 64,
        over a log-spaced grid up to year scale."""
        m = 64
        while m <= 10**12:
            assert epsilon_linear(m, 128) < epsilon_exponential(m, 128)
            m *= 4


class TestMinSeparation:
    def test_case1_published_value(self):
        assert min_separation(case1()) == pytest.approx(2788.7, abs=0.5)
        assert abs(min_separation(case1()) - 2800.0) <= 100.0

    def test_degenerate_limit(self):
        cfg = SpacetimeConfig(L=1000.0, l1=10.0, l2=10.0, tau1=1e-12, tau2=1e-12,
                              t_m=1e-12, T=1.0)
        assert min_separation(cfg) == pytest.approx(20.0, abs=1e-3)

    def test_margin_algebra(self):
        base = case1()
        doubled = SpacetimeConfig(**{**base.to_dict(), "t_m": 2 * base.t_m})
        got = min_separation(doubled) - min_separation(base)
        assert got == pytest.approx(SPEED_OF_LIGHT * base.t_m, rel=1e-9)


class TestDriftBudget:
    @staticmethod
    def _two_sig_fig_match(value, published):
        ulp = 10.0 ** (math.floor(math.log10(published)) - 1)
        return abs(value - published) <= ulp

    def test_24h_budget(self):
        got = drift_budget(1e-3, DAY)
        assert got == pytest.approx(1.157e-8, rel=1e-3)
        assert self._two_sig_fig_match(got, 1.2e-8)

    def test_year_budget_both_conventions(self):
        for days in (365.0, 365.25):
            got = drift_budget(1e-3, days * DAY)
            assert self._two_sig_fig_match(got, 3.1e-11)

    def test_limit(self):
        assert drift_budget(1e-3, 1e18) < 1e-20

    def test_positivity_guard(self):
        with pytest.raises(PlannerError):
            drift_budget(0.0, 1.0)


class TestResourcePlan:
    def test_case1_published_row(self):
        p = resource_plan(case1())
        assert p.bytes_total / 1e9 == pytest.approx(162.0, rel=0.05)
        assert round(p.rate_per_station, -5) == 5e5  # 1 significant figure
        assert p.rounds_total == pytest.approx(5e9, rel=0.05)

    def test_case2_published_row(self):
        p = resource_plan(case2())
        assert p.rate_per_station == pytest.approx(649.0, rel=0.05)
        assert p.bytes_total / 1e9 == pytest.approx(0.224, rel=0.02)

    def test_bytes_identity(self):
        for cfg in (case1(), case2(), case1(T=600.0)):
            p = resource_plan(cfg)
            assert p.bytes_total == (p.m + 1) * 2 * (cfg.n // 8)

    def test_epsilon_in_unit_interval(self):
        for cfg in (case1(), case2(), case1(T=3600.0, n=8)):
            p = resource_plan(cfg)
            assert 0.0 < p.epsilon_linear <= 1.0
            assert 0.0 < p.epsilon_exponential <= 1.0

    def test_json_roundtrip_and_stable_hash(self, tmp_path):
        p = resource_plan(case1())
        path = tmp_path / "plan.json"
        save_plan(p, path)
        q = load_plan(path)
        assert q == p
        assert q.plan_hash == p.plan_hash

    def test_load_rejects_edited_plan(self, tmp_path):
        p = resource_plan(case1())
        path = tmp_path / "plan.json"
        save_plan(p, path)
        data = json.loads(path.read_text())
        data["m"] += 2
        path.write_text(json.dumps(data))
        with pytest.raises(PlannerError, match="hash mismatch"):
            load_plan(path)

    @pytest.mark.parametrize("field", ["m", "n", "t_l_ns", "t_m_ns", "tau1_ns", "tau2_ns",
                                       "gap_to_station1_ns", "gap_to_station2_ns"])
    def test_load_rejects_schedule_that_contradicts_config(self, tmp_path, field):
        """A hashless plan file is still held to its config: every schedule
        field must be the one `resource_plan` makes of it, as an int."""
        path = tmp_path / "plan.json"
        save_plan(small_plan(20), path)
        data = json.loads(path.read_text())
        del data["plan_hash"]
        for value in (data[field] + 2, float(data[field])):
            path.write_text(json.dumps({**data, field: value}))
            with pytest.raises(PlannerError, match=f"{field} = {value!r} contradicts"):
                load_plan(path)
        path.write_text(json.dumps(data))
        assert load_plan(path) == small_plan(20)

    def test_saved_plans_rebuild_from_their_config(self, tmp_path):
        path = tmp_path / "plan.json"
        for plan in [*plan_grid(40), *(small_plan(m, n=n) for m in (1, 2, 8, 200)
                                       for n in (8, 128)),
                     resource_plan(case1()), resource_plan(case2()),
                     resource_plan(case1(T=0.01))]:
            save_plan(plan, path)
            assert load_plan(path) == plan


class TestRehearsal:
    SCHEDULE_NS = ("t_l_ns", "t_m_ns", "tau1_ns", "tau2_ns", "gap_to_station1_ns",
                   "gap_to_station2_ns")

    @pytest.mark.parametrize("s", [1, 10, 1000])
    @pytest.mark.parametrize("cfg", [case1(), case2(), small_plan(20).config,
                                     small_plan(200, n=128).config],
                             ids=["case1", "case2", "small-20", "small-200"])
    def test_rehearsal_is_an_ordinary_plan(self, tmp_path, cfg, s):
        """The rehearsal at s stretches every time by s and keeps what the
        binding argument counts: m, both epsilons, the minimum separation
        and the drift budget (these two to within float rounding). Its ns
        fields are rounded from the stretched seconds, so each lies within
        s of the real plan's times s; at s = 1 it is the real plan, hash and
        all, and otherwise it has a hash of its own."""
        real, rehearsed = resource_plan(cfg), resource_plan(rehearsal(cfg, s))
        assert (rehearsed.plan_hash == real.plan_hash) == (s == 1)
        assert rehearsed.m == real.m
        assert rehearsed.epsilon_linear == real.epsilon_linear
        assert rehearsed.epsilon_exponential == real.epsilon_exponential
        assert rehearsed.min_separation_m == pytest.approx(real.min_separation_m, rel=1e-12)
        assert rehearsed.drift_budget == pytest.approx(real.drift_budget, rel=1e-12)
        for name in self.SCHEDULE_NS:
            assert abs(getattr(rehearsed, name) - s * getattr(real, name)) < s, name
        path = tmp_path / "rehearsal.json"
        save_plan(rehearsed, path)
        assert load_plan(path) == rehearsed

    @pytest.mark.parametrize("s", [0, -3])
    def test_scale_below_one_is_refused(self, s):
        with pytest.raises(PlannerError, match="rehearsal scale"):
            rehearsal(case1(), s)


class TestSchedule:
    def test_gap_rule_and_tq_consistency(self):
        """With tau_i = 2 l_i / c the schedule interval equals the geometric
        t_Q: start(k+1)-start(k) = t_L-(tau+t_M), start(k+2)-start(k) = t_Q."""
        plan = small_plan(10)
        gap = plan.t_l_ns - (plan.tau1_ns + plan.t_m_ns)
        for k in range(1, 10):
            assert plan.round_start_ns(k + 1) - plan.round_start_ns(k) == gap
            assert (plan.round_start_ns(k + 2) - plan.round_start_ns(k)
                    - round(plan.t_q * NS)) in (-1, 0, 1)

    def test_deadline_hits_light_cone_minus_margin(self):
        plan = small_plan(10)
        for k in range(1, 10):
            tau = plan.tau1_ns if (k + 1) & 1 else plan.tau2_ns
            lhs = plan.round_start_ns(k + 1) + tau + plan.t_m_ns
            rhs = plan.round_start_ns(k) + plan.t_l_ns
            assert abs(lhs - rhs) <= 1

    @pytest.mark.parametrize("gaps", [(17049, 17049), (7, 11), (11, 0)])
    def test_round_starts_are_round_start_ns(self, gaps):
        """A column of starts from either station's round equals
        `round_start_ns` of each round, whichever gap is longer."""
        plan = replace(small_plan(10), gap_to_station1_ns=gaps[0], gap_to_station2_ns=gaps[1])
        for k in (1, 2, 3, 10):
            for size in (1, 2, 3, 6):
                assert plan.round_starts_ns(k, size) == [
                    plan.round_start_ns(j) for j in range(k, k + size)]

    def test_infeasible_gap_guard(self):
        # deadlines longer than the light travel time leave no gap
        with pytest.raises(InfeasibleGeometryError):
            schedule_gaps(SpacetimeConfig(L=1000.0, l1=10.0, l2=10.0,
                                          tau1=1e-3, tau2=1e-3, t_m=1e-6, T=1.0))


def test_format_plan_table_shape():
    text = format_plan_table([("case1", resource_plan(case1()))])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "epsilon" in lines[0] and "Data" in lines[0]


def test_builtin_configs_parse(tmp_path):
    from importlib import resources

    for name in ("case1", "case2"):
        text = resources.files("relbc").joinpath(f"configs/{name}.cfg").read_text()
        cfg = parse_config(text)
        assert cfg.name == name and cfg.n == 128
