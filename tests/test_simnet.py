"""Simulator: determinism, honest completeness, adversaries, clocks, audit."""

import hashlib
import json
import random
import sys
import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from relbc.field import FieldSpec, element_struct
from relbc.planner import NS, SPEED_OF_LIGHT, SpacetimeConfig, compute_tq, resource_plan
from relbc.protocol import (
    ABORT_DEADLINE,
    ABORT_EARLY_REVEAL,
    REJECT_ABORTED,
    REJECT_TIMING,
    bob_verify,
    run_honest_protocol,
    station_of,
)
from relbc.simnet import (
    AGENTS,
    STRATEGIES,
    AdversaryStrategy,
    ClockModel,
    SimulationError,
    make_tapes,
    no_signaling_audit,
    run_simulation,
)
from relbc.storage import transcript_to_bytes

from helpers import plan_grid, random_tapes, small_plan, tau_at

PLAN8 = small_plan(20, n=8)


class TestDeterminism:
    def test_byte_identical_repeat(self):
        t1, r1 = run_simulation(PLAN8, seed=5, bit=1)
        t2, r2 = run_simulation(PLAN8, seed=5, bit=1)
        assert transcript_to_bytes(t1) == transcript_to_bytes(t2)
        assert asdict(r1) == asdict(r2)

    def test_seed_changes_tapes(self):
        t1, _ = run_simulation(PLAN8, seed=5, bit=1)
        t2, _ = run_simulation(PLAN8, seed=6, bit=1)
        assert transcript_to_bytes(t1) != transcript_to_bytes(t2)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_make_tapes_is_the_per_element_pair(self, n):
        """Secrets, then nonzero challenges, as `random_int` draws them one
        at a time from one seeded stream; at seed 25 the n=16 challenges
        redraw one zero, and the n=8 ones several."""
        spec = FieldSpec(n)
        plan = small_plan(2000, n=n)
        secrets, challenges = make_tapes(plan, spec, 25)
        ref_secrets, ref_challenges = random_tapes(spec, plan.m, 25)
        assert secrets.elements == ref_secrets.elements
        assert challenges.elements == ref_challenges.elements

    def test_make_tapes_keeps_only_its_tapes(self):
        """Decoding the two tapes leaves no struct or tuple the size of a
        tape behind: what `make_tapes` retains is its two decoded lists,
        within a small margin."""
        plan = small_plan(10_000, n=128)
        spec = FieldSpec(128)
        element_struct.cache_clear()
        tracemalloc.start()
        try:
            tapes = make_tapes(plan, spec, 1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        decoded = sum(sys.getsizeof(t.elements) + sum(map(sys.getsizeof, t.elements))
                      for t in tapes)
        assert retained < decoded + 64 * 1024, (retained, decoded)

    def test_explicit_tapes_used(self):
        tapes = make_tapes(PLAN8, FieldSpec(8), 123)
        t1, _ = run_simulation(PLAN8, seed=0, bit=0, tapes=tapes)
        t2, _ = run_simulation(PLAN8, seed=999, bit=0, tapes=tapes)
        assert [(r.challenge, r.answer) for r in t1.rounds] == \
            [(r.challenge, r.answer) for r in t2.rounds]


class TestHonest:
    def test_accepts_both_bits(self):
        for bit in (0, 1):
            t, rep = run_simulation(PLAN8, seed=2, bit=bit)
            assert not rep.aborted
            v = bob_verify(t)
            assert v.accepted and v.bit == bit

    @pytest.mark.parametrize("m", [2, 256, 258, 514])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_answers_are_the_reference_drivers(self, n, bit, m):
        """An honest run on exact clocks records the challenges, answers and
        reveal of `run_honest_protocol` on the same tapes, for m on both
        sides of a 256-round answer block."""
        spec = FieldSpec(n)
        plan = small_plan(m, n=n)
        tapes = make_tapes(plan, spec, m + n)
        t, rep = run_simulation(plan, bit=bit, tapes=tapes, spec=spec)
        ref = run_honest_protocol(spec, *tapes, bit)
        assert not rep.aborted and t.m == m
        assert [(r.k, r.challenge, r.answer) for r in t.rounds] == \
            [(r.k, r.challenge, r.answer) for r in ref.rounds]
        assert t.reveal == ref.reveal

    def test_no_false_aborts_on_grid(self):
        for plan in plan_grid(20):
            t, rep = run_simulation(plan, seed=1, bit=1)
            assert not rep.aborted, (plan.config, rep.abort_reason)
            assert bob_verify(t).accepted

    def test_allowance_boundary_placement_accepted(self):
        """An honest committer at the full allowed offset still answers in
        time when tau = 2 l / c."""
        L = PLAN8.config.L
        placements = {
            "A1": PLAN8.config.l1 * 0.999,
            "A2": L - PLAN8.config.l2 * 0.999,
        }
        t, rep = run_simulation(PLAN8, placements=placements, seed=3, bit=0)
        assert not rep.aborted
        assert bob_verify(t).accepted

    def test_schedule_algebra_in_transcript(self):
        t, _ = run_simulation(PLAN8, seed=4, bit=0)
        tq_ns = PLAN8.gap_to_station1_ns + PLAN8.gap_to_station2_ns
        issued = {r.k: r.challenge_issued_at for r in t.rounds}
        for k in range(1, PLAN8.m - 1):
            assert issued[k + 2] - issued[k] == tq_ns


class TestAdversaries:
    def test_relay_aborts_on_every_grid_plan(self):
        for plan in plan_grid(20):
            t, rep = run_simulation(plan, strategy=AdversaryStrategy(kind="relay"),
                                    seed=1, bit=1)
            assert rep.aborted and rep.abort_round == 2
            assert t.status == "aborted"

    def test_relay_lateness_is_at_least_margin(self):
        """The relayed answer cannot beat light: it misses the deadline by
        at least t_M (by construction of the schedule)."""
        plan = PLAN8
        strategy = AdversaryStrategy(kind="relay")
        t, rep = run_simulation(plan, strategy=strategy, seed=2, bit=0)
        assert rep.aborted
        # rerun honestly to get the deadline the relay missed
        assert rep.abort_round == 2

    def test_relay_answers_one_block(self, monkeypatch):
        """A relay run aborts at round 2, so the committer answers the first
        256-round block and no other."""
        calls = []
        answers = FieldSpec.answers

        def counting_answers(spec, a, xs, secrets):
            calls.append(len(xs) // spec.element_bytes)
            return answers(spec, a, xs, secrets)

        monkeypatch.setattr(FieldSpec, "answers", counting_answers)
        _, rep = run_simulation(small_plan(2000, n=128), strategy=AdversaryStrategy("relay"),
                                seed=1, bit=0)
        assert rep.aborted and rep.abort_round == 2
        assert calls == [256]

    def test_late_decision_boundary(self):
        ok, _ = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="late-decision", margin_ns=1), seed=1, bit=1)
        assert ok.status == "complete" and bob_verify(ok).accepted
        exact, _ = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="late-decision", margin_ns=0), seed=1, bit=1)
        assert exact.status == "complete"
        late, rep = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="late-decision", margin_ns=-1), seed=1, bit=1)
        assert rep.aborted and rep.abort_round == 1

    def test_late_decision_on_specific_round(self):
        _, rep = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="late-decision", target_round=7, margin_ns=-50), seed=1, bit=1)
        assert rep.aborted and rep.abort_round == 7

    @pytest.mark.parametrize("target", [0, PLAN8.m + 1])
    def test_late_decision_target_outside_the_run_rejected(self, target):
        """A late-decision target that names no round of the run is refused,
        not played as an honest session."""
        with pytest.raises(SimulationError, match=f"round {target} is outside 1..20"):
            run_simulation(PLAN8, strategy=AdversaryStrategy("late-decision", target), seed=1)

    def test_wrong_bit_reveal_completes_then_rejects(self):
        t, rep = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="wrong-bit-reveal"), seed=1, bit=0)
        assert not rep.aborted
        v = bob_verify(t)
        assert not v.accepted and v.reason == "bit-mismatch"

    def test_placement_cheat_caught_by_timing(self):
        _, rep = run_simulation(PLAN8, strategy=AdversaryStrategy(
            kind="placement-cheat"), seed=1, bit=1)
        assert rep.aborted and rep.abort_round == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SimulationError):
            AdversaryStrategy(kind="quantum")


class TestClocks:
    def test_exact_inversion(self):
        clk = ClockModel(offset_ns=12345, rate=2.5e-7)
        for g in (0, 1, 10**9, 10**12, 86_400 * 10**9):
            local = clk.local_at_global(g)
            g2 = clk.global_at_local(local)
            assert clk.local_at_global(g2) == local

    def test_rate_error_beyond_budget_flagged(self):
        """Undisciplined clock whose rate exceeds t_M over the run drifts a
        round start outside the margin, and the report says which."""
        plan = small_plan(200, n=8)
        duration_ns = plan.round_start_ns(plan.m + 1)
        bad_rate = plan.t_m_ns * 3.0 / duration_ns
        clocks = {"B2": ClockModel(rate=bad_rate)}
        _, rep = run_simulation(plan, clocks=clocks, seed=1, bit=0)
        assert rep.margin_violation_rounds, "drifted starts must be flagged"

    def test_rate_within_budget_not_flagged(self):
        plan = small_plan(200, n=8)
        duration_ns = plan.round_start_ns(plan.m + 1)
        ok_rate = plan.t_m_ns * 0.2 / duration_ns
        clocks = {"B2": ClockModel(rate=ok_rate)}
        t, rep = run_simulation(plan, clocks=clocks, seed=1, bit=0)
        assert not rep.margin_violation_rounds
        assert not rep.aborted and bob_verify(t).accepted

    def test_pps_discipline_violation_flag(self):
        good = ClockModel(rate=5e-9, discipline="pps")
        bad = ClockModel(rate=2e-8, discipline="pps")  # 20 ns/s > 8 ns tolerance
        assert not good.pps_violation
        assert bad.pps_violation
        _, rep = run_simulation(PLAN8, clocks={"B1": bad}, seed=1, bit=0)
        assert rep.discipline_violations == ["B1"]

    def test_disciplined_clock_bounds_drift(self):
        # pps discipline resets accumulated drift every second
        clk = ClockModel(rate=5e-9, discipline="pps")
        for g in (10**9 - 1, 5 * 10**9 + 7, 3600 * 10**9 + 123):
            assert abs(clk.local_at_global(g) - g) <= 8

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(-10**9, 10**9), local=st.integers(0, 10**15),
           discipline=st.sampled_from(["none", "pps"]))
    def test_exact_rate_is_a_pure_offset(self, offset, local, discipline):
        clk = ClockModel(offset_ns=offset, discipline=discipline)
        assert clk.global_at_local(local) == local - offset
        assert clk.local_at_global(local) == local + offset

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(-10**5, 10**5), local=st.integers(10**6, 10**14),
           rate=st.floats(-1e-3, 1e-3))
    @example(offset=0, local=10**9 + 2, rate=1e-3)
    @example(offset=0, local=10**9 + 2, rate=-1e-3)
    @example(offset=-5, local=7 * 10**9 + 400_000, rate=8e-4)
    def test_pps_inverse_is_the_first_crossing(self, offset, local, rate):
        """global_at_local(L) is the g where the local clock steps from below
        L to at least L, found in at most 64 readings of the clock, also far
        beyond tolerance, where a fast clock holds its reading for up to
        10^6 ns after each pulse."""
        readings = []

        class CountingClock(ClockModel):
            def local_at_global(self, global_ns):
                readings.append(global_ns)
                return super().local_at_global(global_ns)

        clk = CountingClock(offset_ns=offset, rate=rate, discipline="pps")
        g = clk.global_at_local(local)
        assert len(readings) <= 64, len(readings)
        assert clk.local_at_global(g) >= local > clk.local_at_global(g - 1)

    @settings(max_examples=200, deadline=None)
    @given(offset=st.integers(-10**5, 10**5), second=st.integers(0, 10**6),
           rate=st.floats(-1e-7, 1e-7), pick=st.integers(0, 119))
    @example(offset=71, second=0, rate=8e-9, pick=0)
    def test_pps_clock_never_runs_backward(self, offset, second, rate, pick):
        """Where the pulse pulls a fast clock back at a whole second, the
        pulse at global time 0 included, the clock holds its reading instead
        of decreasing, and global_at_local still gives the first crossing."""
        clk = ClockModel(offset_ns=offset, rate=rate, discipline="pps")
        whole = second * 10**9
        readings = [clk.local_at_global(g) for g in range(whole - 5, whole + 115)]
        assert readings == sorted(readings)
        local = readings[pick]
        g = clk.global_at_local(local)
        assert clk.local_at_global(g) >= local > clk.local_at_global(g - 1)

    @settings(max_examples=400, deadline=None)
    @given(offset=st.integers(-10**9, 10**9), rate=st.floats(-1e-6, 1e-6),
           discipline=st.sampled_from(["none", "pps"]),
           local=st.one_of(
               st.integers(0, 10**15),
               st.tuples(st.integers(0, 10**6), st.integers(-200, 200), st.booleans())))
    def test_inverse_meets_its_definition(self, offset, rate, discipline, local):
        """global_at_local(L) is the first global time the clock reads at
        least L, for any rate and offset, and for L near a whole second of
        local or of global time, where a pps pulse steps the clock."""
        clk = ClockModel(offset_ns=offset, rate=rate, discipline=discipline)
        if isinstance(local, tuple):
            second, delta, at_pulse = local
            local = max(0, second * NS + delta + (offset if at_pulse else 0))
        g = clk.global_at_local(local)
        assert clk.local_at_global(g) >= local > clk.local_at_global(g - 1)

    @settings(max_examples=500, deadline=None)
    @given(offset=st.integers(-10**9, 10**9),
           rate=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
           discipline=st.sampled_from(["none", "pps"]),
           base=st.one_of(st.integers(0, 10**13),
                          st.tuples(st.integers(0, 10**4), st.integers(-2 * 10**6, 2 * 10**6))),
           spread=st.sampled_from([0, 3, 1000, 10**6, 10**9, 3 * 10**9]),
           steps=st.lists(st.floats(0, 1), min_size=1, max_size=40))
    @example(offset=0, rate=1e-3, discipline="pps", base=(1, -3), spread=10**6,
             steps=[0.9, 0.0, 0.5])
    @example(offset=-71, rate=5e-9, discipline="pps", base=(0, 0), spread=1000,
             steps=[1.0, 0.5, 0.0])
    @example(offset=5, rate=-4e-9, discipline="pps", base=(7, 400), spread=0, steps=[0.0])
    # drift terms equal at both ends and not between: across one pulse, and
    # from one second to the same point of the next
    @example(offset=0, rate=1e-9, discipline="pps", base=(0, 9 * 10**8), spread=10**9,
             steps=[0.0, 0.2, 0.7])
    @example(offset=0, rate=1e-6, discipline="pps", base=(1, 100), spread=10**9,
             steps=[0.0, 0.5, 1.0])
    def test_columns_convert_as_the_scalars(self, offset, rate, discipline, base, spread,
                                            steps):
        """Each column conversion equals `map` of its scalar one, entry for
        entry: for columns in any order, of one entry or many, near a whole
        second of either clock and across one, inside a pps hold and across
        one, at any offset, at zero rate and at rates up to 1e-3."""
        clk = ClockModel(offset_ns=offset, rate=rate, discipline=discipline)
        if isinstance(base, tuple):
            second, delta = base
            base = max(0, second * NS + delta)
        col = [base + int(f * spread) for f in steps]
        for times in (col, [t + offset for t in col]):
            assert clk.locals_at_global(times) == list(map(clk.local_at_global, times))
            assert clk.globals_at_local(times) == list(map(clk.global_at_local, times))

    @pytest.mark.parametrize("rate", [0.0, 5e-9, -4e-9])
    def test_column_where_the_drift_holds_still_is_an_offset(self, rate):
        """A column inside one second, past the pulse's hold, converts
        without a scalar call; one across a whole second falls back to the
        scalar conversion on a drifting pps clock, and not at rate 0."""
        scalar = []

        class CountingClock(ClockModel):
            def local_at_global(self, global_ns):
                scalar.append(global_ns)
                return super().local_at_global(global_ns)

            def global_at_local(self, local_ns):
                scalar.append(local_ns)
                return super().global_at_local(local_ns)

        clk = CountingClock(offset_ns=71, rate=rate, discipline="pps")
        still = [NS // 3 + 13 * i for i in range(256)]
        off = 71 + round(rate * NS / 3)
        assert clk.globals_at_local(still) == [t - off for t in still]
        assert clk.locals_at_global(still) == [t + off for t in still]
        assert scalar == []
        across = [NS - 1000 + 13 * i for i in range(256)]
        clk.globals_at_local(across)
        clk.locals_at_global(across)
        assert len(scalar) >= 2 * len(across) if rate else scalar == []

    @pytest.mark.parametrize("ahead_ns", [40_000, 1_000_000])
    def test_early_reveal_is_an_abort(self, ahead_ns):
        """A committer clock ahead of her station's by more than a round
        interval reaches the reveal before she has answered her last round:
        the run aborts at the reveal round instead of raising."""
        plan = small_plan(200, n=8)
        t, rep = run_simulation(plan, clocks={"A1": ClockModel(offset_ns=ahead_ns)},
                                seed=1, bit=0)
        assert rep.aborted and not rep.reveal_received
        assert (rep.abort_round, rep.abort_reason) == (plan.m + 1, ABORT_EARLY_REVEAL)
        assert t.status == "aborted" and t.reveal is None
        assert (t.abort_round, t.abort_reason) == (plan.m + 1, ABORT_EARLY_REVEAL)
        assert bob_verify(t).reason == REJECT_ABORTED

    @pytest.mark.parametrize("ahead_ns", [1, 20_000])
    def test_reveal_before_its_round_opens_is_an_abort(self, ahead_ns):
        """A committer clock ahead of her station's by less than a round
        interval answers every round, but her reveal reaches the station
        before round m+1 opens there: a negative turnaround is an early
        reveal, not extra slack."""
        plan = small_plan(200, n=8)
        t, rep = run_simulation(plan, clocks={"A1": ClockModel(offset_ns=ahead_ns)},
                                seed=1, bit=0)
        assert rep.aborted and not rep.reveal_received
        assert (rep.abort_round, rep.abort_reason) == (plan.m + 1, ABORT_EARLY_REVEAL)
        assert t.reveal_received_at == plan.round_start_ns(plan.m + 1) - ahead_ns
        assert t.status == "aborted" and t.reveal is None
        assert bob_verify(t).reason == REJECT_ABORTED


clock_models = st.builds(ClockModel, offset_ns=st.integers(-30_000, 30_000),
                         rate=st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5)),
                         discipline=st.sampled_from(["none", "pps"]))


@settings(max_examples=200, deadline=None)
@given(clocks=st.fixed_dictionaries({agent: clock_models for agent in AGENTS}),
       kind=st.sampled_from(STRATEGIES), target_round=st.integers(1, PLAN8.m),
       margin_ns=st.integers(-50, 50), seed=st.integers(0, 2**16), bit=st.integers(0, 1))
def test_one_arrival_rule_on_random_clocks(clocks, kind, target_round, margin_ns, seed, bit):
    """Every answer and the reveal are on time when 0 <= received - issued
    <= tau at their station: an unaborted run meets that everywhere, and each
    abort names a round or reveal that missed it, late or never, as
    `deadline`. With skewed clocks a round can be recorded after a later
    round's abort, so the prefix may run past the abort round."""
    plan, m = PLAN8, PLAN8.m
    t, rep = run_simulation(plan, clocks=clocks, seed=seed, bit=bit,
                            strategy=AdversaryStrategy(kind, target_round, margin_ns))
    assert rep.rounds_recorded == len(t.rounds)
    assert [rec.k for rec in t.rounds] == list(range(1, len(t.rounds) + 1))
    assert (t.abort_round, t.abort_reason) == (rep.abort_round, rep.abort_reason)
    on_time = {rec.k: 0 <= rec.answer_received_at - rec.challenge_issued_at
               <= tau_at(t, rec.station) for rec in t.rounds}
    reveal_turnaround = t.reveal_received_at - plan.round_start_ns(m + 1)
    reveal_on_time = 0 <= reveal_turnaround <= tau_at(t, station_of(m + 1))
    k, reason = rep.abort_round, rep.abort_reason
    if not rep.aborted:
        assert len(t.rounds) == m and all(on_time.values()) and reveal_on_time
        assert bob_verify(t).reason != REJECT_TIMING
    elif k <= m:
        assert reason == ABORT_DEADLINE
        assert not on_time.get(k, False)
    elif reason in (ABORT_DEADLINE, ABORT_EARLY_REVEAL):
        assert not reveal_on_time


# Output pin for the simulator: the sha256 of every transcript and report on
# this grid, computed before the event loop and clock model were last
# reworked. Any change to simulated output changes it. B2's offset puts its
# round starts beyond t_M, and m=240 gives more than the 100 margin
# violations a report lists. It was re-pinned, as were the two pins below,
# when a missing answer's abort reason `timeout` became `deadline`: each new
# value is the earlier code's output with only that reason renamed.
GOLDEN_STRATEGIES = [
    AdversaryStrategy("honest"),
    AdversaryStrategy("relay"),
    AdversaryStrategy("late-decision", target_round=3, margin_ns=-1),
    AdversaryStrategy("wrong-bit-reveal"),
    AdversaryStrategy("placement-cheat"),
]
GOLDEN_CLOCKS = [
    {},
    {"A1": ClockModel(offset_ns=40), "A2": ClockModel(offset_ns=-25),
     "B1": ClockModel(offset_ns=1234), "B2": ClockModel(offset_ns=-5077)},
    {"A1": ClockModel(offset_ns=37, rate=3e-9, discipline="pps"),
     "A2": ClockModel(offset_ns=-53, rate=-4e-9, discipline="pps"),
     "B1": ClockModel(offset_ns=71, rate=2e-9, discipline="pps"),
     "B2": ClockModel(offset_ns=-29, rate=-5e-9, discipline="pps")},
]
GOLDEN_DIGEST = "3e241ad3385e42697f322a3e2aefe0291125129344d33a98a5a768d9e4e4f22b"


def test_golden_digest():
    h = hashlib.sha256()
    for plan in (small_plan(20, n=8), small_plan(240, n=8), small_plan(12, n=128)):
        for clocks in GOLDEN_CLOCKS:
            for strategy in GOLDEN_STRATEGIES:
                for seed, bit in ((1, 0), (2, 1)):
                    t, rep = run_simulation(plan, clocks=clocks, strategy=strategy,
                                            seed=seed, bit=bit)
                    h.update(transcript_to_bytes(t))
                    h.update(json.dumps(asdict(rep), sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


# A second output pin, also computed before rounds were queued as the run
# reaches them: m=1000, each committer clock equal to its station's, and the
# stations' clocks offset from each other by up to about 9 ms, some 500
# rounds, so one station's rounds are queued long before the other's run.
# late-decision on round m aborts after the reveal has arrived.
CHUNK_GOLDEN_STRATEGIES = GOLDEN_STRATEGIES + [
    AdversaryStrategy("late-decision", target_round=1000, margin_ns=-1)]
CHUNK_GOLDEN_CLOCKS = [
    (ClockModel(), ClockModel(offset_ns=-6_000_000)),
    (ClockModel(offset_ns=-71, rate=2e-9, discipline="pps"),
     ClockModel(offset_ns=9_000_029, rate=-5e-9, discipline="pps")),
    (ClockModel(offset_ns=5_000_000, rate=1e-6), ClockModel(offset_ns=-1000, rate=-2e-6)),
]
CHUNK_GOLDEN_DIGEST = "998f23e84ad484a1266ae295537446995146442648147fde2e5c8440ff24d46e"


def test_chunk_crossing_golden_digest():
    plan = small_plan(1000, n=8)
    h = hashlib.sha256()
    for b1, b2 in CHUNK_GOLDEN_CLOCKS:
        clocks = {"A1": b1, "B1": b1, "A2": b2, "B2": b2}
        for strategy in CHUNK_GOLDEN_STRATEGIES:
            for seed, bit in ((1, 0), (2, 1)):
                t, rep = run_simulation(plan, clocks=clocks, strategy=strategy,
                                        seed=seed, bit=bit)
                h.update(transcript_to_bytes(t))
                h.update(json.dumps(asdict(rep), sort_keys=True).encode())
    assert h.hexdigest() == CHUNK_GOLDEN_DIGEST


# A third output pin, over what the fixed grids above do not reach: 2,000
# seeded runs, each with random station and committer clocks (offsets up to
# 30 us, drift of either sign, both disciplines) and a random strategy,
# target round and margin.
RANDOM_CLOCK_GOLDEN_DIGEST = "aebaa9f4fd2d9cbfc95cf73a10506a29ca6aa76b3c4d2b4948933c5e97891aa3"


def test_random_clock_golden_digest():
    plans = {m: small_plan(m, n=8) for m in (20, 300)}
    rng = random.Random(2015)
    h = hashlib.sha256()
    for i in range(2000):
        m = rng.choice((20, 300))
        spread = rng.choice((0, 100, 3_000, 30_000))
        clocks = {a: ClockModel(rng.randint(-spread, spread),
                                rng.choice((0.0, rng.uniform(-1e-5, 1e-5))),
                                rng.choice(("none", "pps"))) for a in AGENTS}
        strategy = AdversaryStrategy(rng.choice(STRATEGIES), rng.randint(1, m),
                                     rng.randint(-50, 50))
        t, rep = run_simulation(plans[m], clocks=clocks, strategy=strategy,
                                seed=i, bit=i & 1)
        h.update(transcript_to_bytes(t))
        h.update(json.dumps(asdict(rep), sort_keys=True).encode())
    assert h.hexdigest() == RANDOM_CLOCK_GOLDEN_DIGEST


# A fourth output pin, computed before rounds were settled a block at a time,
# on a geometry the pins above lack: deadlines of 2 and 5 us, then 6 and 1
# us, at the two stations, so their gaps differ; m=514.
ASYMMETRIC_STRATEGIES = GOLDEN_STRATEGIES + [
    AdversaryStrategy("late-decision", target_round=257, margin_ns=-1),
    AdversaryStrategy("late-decision", target_round=514, margin_ns=0)]
ASYMMETRIC_GOLDEN_DIGEST = "7d35f64d9dedf5776c3b9f0a612ca6a46c34b95c70b1f7fa50db1bcd38a16964"


def test_asymmetric_golden_digest():
    h = hashlib.sha256()
    for tau1, tau2 in ((2e-6, 5e-6), (6e-6, 1e-6)):
        plan = resource_plan(SpacetimeConfig(
            L=9000.0, l1=SPEED_OF_LIGHT * tau1 / 2, l2=SPEED_OF_LIGHT * tau2 / 2,
            tau1=tau1, tau2=tau2, t_m=3.3e-6, T=1.2e-2, n=8))
        assert plan.m == 514 and plan.gap_to_station1_ns != plan.gap_to_station2_ns
        for clocks in GOLDEN_CLOCKS:
            for strategy in ASYMMETRIC_STRATEGIES:
                for seed, bit in ((1, 0), (2, 1)):
                    t, rep = run_simulation(plan, clocks=clocks, strategy=strategy,
                                            seed=seed, bit=bit)
                    h.update(transcript_to_bytes(t))
                    h.update(json.dumps(asdict(rep), sort_keys=True).encode())
    assert h.hexdigest() == ASYMMETRIC_GOLDEN_DIGEST


def counting_clocks(params: dict) -> tuple[dict, list[int]]:
    """A clock for every agent, built from its (offset, rate, discipline) in
    `params` or exact, and a list whose one entry counts the times handed to
    their conversions to the global frame, one for each entry of a column
    and one for each scalar call. A column that falls back to the scalar
    conversion is not counted again."""
    calls = [0]
    in_column = [False]

    class CountingClock(ClockModel):
        def global_at_local(self, local_ns):
            calls[0] += not in_column[0]
            return super().global_at_local(local_ns)

        def globals_at_local(self, col):
            calls[0] += len(col)
            in_column[0] = True
            try:
                return super().globals_at_local(col)
            finally:
                in_column[0] = False

    return {agent: CountingClock(*params.get(agent, ())) for agent in AGENTS}, calls


PPS_CLOCK_PARAMS = {agent: (offset, rate, "pps") for agent, offset, rate in (
    ("A1", 37, 3e-9), ("A2", -53, -4e-9), ("B1", 71, 2e-9), ("B2", -29, -5e-9))}


@pytest.mark.parametrize("params", [{}, PPS_CLOCK_PARAMS], ids=["exact", "pps"])
def test_full_run_converts_each_time_once(params):
    """An honest run converts each round's start and deadline, and the
    reveal send, to the global frame once: 2m+3 conversions in all."""
    clocks, calls = counting_clocks(params)
    plan = small_plan(1000, n=8)
    _, rep = run_simulation(plan, clocks=clocks, seed=1, bit=0)
    assert not rep.aborted
    assert calls[0] == 2 * plan.m + 3


def test_aborted_run_builds_only_what_it_reaches():
    """A relay run aborts at round 2, so it converts the times of the first
    few rounds to the global frame, not all 2m+3 round and reveal times."""
    clocks, calls = counting_clocks(PPS_CLOCK_PARAMS)
    plan = small_plan(10_000, n=8)
    _, rep = run_simulation(plan, clocks=clocks, strategy=AdversaryStrategy("relay"),
                            seed=1, bit=0)
    assert rep.aborted and rep.abort_round == 2
    # the starts and deadlines of at most four rounds, and the reveal send
    assert calls[0] <= 2 * 4 + 1, calls[0]


def test_event_count_by_hand():
    """With exact clocks and each committer agent at its station, a relay
    run's events are round 1's start, challenge arrival at A1, answer
    arrival and deadline, then round 2's start, challenge arrival at A2 and
    deadline, where it aborts: round 1's challenge, relayed to A2, lands at
    t_L, past that deadline. An honest run counts each round's start,
    challenge arrival, answer arrival and deadline, and the reveal's send,
    arrival and deadline: 4m+3."""
    plan = PLAN8
    start2 = plan.round_start_ns(2)
    events = [(1, "start", 0), (1, "challenge arrival", 0), (1, "answer arrival", 0),
              (1, "deadline", plan.tau1_ns + 1), (2, "start", start2),
              (2, "challenge arrival", start2), (2, "deadline", start2 + plan.tau2_ns + 1)]
    assert [t for _, _, t in events] == sorted(t for _, _, t in events)
    assert plan.t_l_ns > events[-1][2]
    _, rep = run_simulation(plan, strategy=AdversaryStrategy("relay"), seed=1)
    assert (rep.abort_round, rep.abort_reason) == (2, ABORT_DEADLINE)
    assert rep.rounds_recorded == 1
    assert rep.event_count == len(events)
    _, rep = run_simulation(plan, seed=1)
    assert not rep.aborted and rep.event_count == 4 * plan.m + 3


# Runs that abort at or next to the edges of the simulator's blocks and of
# the 256-round answer blocks, m=1030 at n=8, computed before rounds were
# settled a block at a time: late-decision on rounds 2, 255..257, 512, 513,
# 1029 and 1030 at margins -1, 0 and +1, on exact and pps clocks; relay on
# both (abort at round 2), and relay with station 2's agents 6 ms behind
# (abort at round 3). Each value is the abort, event_count, rounds_recorded,
# worst_true_slack_ns, margin_violation_rounds and the transcript's sha256.
BLOCK_EDGE_CLOCKS = {
    "exact": {},
    "pps": {agent: ClockModel(*params) for agent, params in PPS_CLOCK_PARAMS.items()},
    "skew": {"A2": ClockModel(offset_ns=-6_000_000), "B2": ClockModel(offset_ns=-6_000_000)},
}
BLOCK_EDGE_PINS = {
    ("exact", "late-decision", 2, -1): ((2, "deadline"), 7, 1, None, [],
        "b027164386ee183a78108a42eb45677d2418231bbd68b9bf4fe141d94ec2c8fd"),
    ("exact", "late-decision", 2, 0): (None, 4123, 1030, 3300, [],
        "20c0920e33911e0c241bd054a74d148ca4807af1ff18b991d61ae4a220fb8ce6"),
    ("exact", "late-decision", 2, 1): (None, 4123, 1030, 3300, [],
        "18ff8aa0687baa97c72477e248f6db144a77b336c0db29e2608ea52d2a2bfb14"),
    ("exact", "late-decision", 255, -1): ((255, "deadline"), 1019, 254, 3300, [],
        "f1dbeeae00bd00ff1839176bb403da85ebff839a5742df590e5d22ef25d46f50"),
    ("exact", "late-decision", 255, 0): (None, 4123, 1030, 3300, [],
        "dd384204d3cdc3ee1c82d6c2b15fe580c5e32edefc0f70853d9d51a6899a5b39"),
    ("exact", "late-decision", 255, 1): (None, 4123, 1030, 3300, [],
        "19d8960d85265c767947957b62f2adfda5eb0059cac9622d5e8a32a94fc39fe2"),
    ("exact", "late-decision", 256, -1): ((256, "deadline"), 1023, 255, 3300, [],
        "bf7c00030d1fab1d5fcdaa95be33af884fe69f0cda58ccf0ec72eabeae999bd6"),
    ("exact", "late-decision", 256, 0): (None, 4123, 1030, 3300, [],
        "aadc5f06713552ea72851522f787929ddd29513b6b122166046bdce5a6a1b3af"),
    ("exact", "late-decision", 256, 1): (None, 4123, 1030, 3300, [],
        "cdaf0caba44d31bf78df4341ba93475fefb56fb7df82e48557b0e7c4ddecb954"),
    ("exact", "late-decision", 257, -1): ((257, "deadline"), 1027, 256, 3300, [],
        "f6f409fdf0711ca9b7f36277dca1ff5eadbd5647d9cfee9cabbe95f06117faf9"),
    ("exact", "late-decision", 257, 0): (None, 4123, 1030, 3300, [],
        "561e4128dc98bd52cceba817e5617987c0f9147f702ab6688d6895092d31ba08"),
    ("exact", "late-decision", 257, 1): (None, 4123, 1030, 3300, [],
        "e59b29eae429c4f141e59dadf7e3beee96eb2ae1ffb3544fefa01a129aff630d"),
    ("exact", "late-decision", 512, -1): ((512, "deadline"), 2047, 511, 3300, [],
        "f82408a6178357bbd9f13085bfc1c0fc579894e51ec709b8cec76c675f0d7430"),
    ("exact", "late-decision", 512, 0): (None, 4123, 1030, 3300, [],
        "2a69040e8ab3644a5b174aaf5187fc34549065f96dbea84e5eb980771df80828"),
    ("exact", "late-decision", 512, 1): (None, 4123, 1030, 3300, [],
        "0b8a97b52c42e2ca77d79551a337f4f8e6d1c65bcef4fc7a002aee62affbac07"),
    ("exact", "late-decision", 513, -1): ((513, "deadline"), 2051, 512, 3300, [],
        "9590614cb289c014b08a277eb616b47718d3856eef310a39be616f4d198a1b09"),
    ("exact", "late-decision", 513, 0): (None, 4123, 1030, 3300, [],
        "50f6bec58f3640d7b3086cc434986a358503967385e4ada6d67b7bd9d7e0bee2"),
    ("exact", "late-decision", 513, 1): (None, 4123, 1030, 3300, [],
        "227e334bf2b71bd8899790e11c6a1c58b8facc2ec8953183db23bc151a75817a"),
    ("exact", "late-decision", 1029, -1): ((1029, "deadline"), 4115, 1028, 3300, [],
        "bcca1fa964b34156604b8af06b5d85c0adebeeb1f9b50f6f71723bc4196d95c3"),
    ("exact", "late-decision", 1029, 0): (None, 4123, 1030, 3300, [],
        "ec4b0c30ad55e2993f1b59c9dd88239d409adc67d61ff6e80a071ce8a285d99c"),
    ("exact", "late-decision", 1029, 1): (None, 4123, 1030, 3300, [],
        "3e6310e4aeb01e3d13376ee373da0e6205f96d613bb0f7ad4767d3bc8ff484de"),
    ("exact", "late-decision", 1030, -1): ((1030, "deadline"), 4119, 1029, 3300, [],
        "51400ea7db8706596796a5fd7832bd37ca36e8fcf522734f27107c13b4d6a181"),
    ("exact", "late-decision", 1030, 0): (None, 4123, 1030, 3300, [],
        "6cc4a70736a2541a644f658e86d2643d9531f6a548c3b71d7dad0ab5ac79f2eb"),
    ("exact", "late-decision", 1030, 1): (None, 4123, 1030, 3300, [],
        "55ec641c2221547e108738e933baf342871b99e00e4b6cf134c4a655ab5da98b"),
    ("exact", "relay", 0, 0): ((2, "deadline"), 7, 1, None, [],
        "b027164386ee183a78108a42eb45677d2418231bbd68b9bf4fe141d94ec2c8fd"),
    ("pps", "late-decision", 2, -1): ((2, "deadline"), 7, 1, None, [],
        "b027164386ee183a78108a42eb45677d2418231bbd68b9bf4fe141d94ec2c8fd"),
    ("pps", "late-decision", 2, 0): (None, 4123, 1030, 3198, [],
        "f719327202ff4f71584a2d3d1eba1b0bec3c5811276ffbae7d725f182eb2b86a"),
    ("pps", "late-decision", 2, 1): (None, 4123, 1030, 3198, [],
        "90af4e89b3eb1f18d68caa54ca83f9fcc1a51376e061738070e2d3b9cdc9117d"),
    ("pps", "late-decision", 255, -1): ((255, "deadline"), 1019, 254, 3198, [],
        "f1dbeeae00bd00ff1839176bb403da85ebff839a5742df590e5d22ef25d46f50"),
    ("pps", "late-decision", 255, 0): (None, 4123, 1030, 3198, [],
        "1f52721940042fc504e565aa246599f04b0c7d2d615a2dd4e8ed8a521f79b93c"),
    ("pps", "late-decision", 255, 1): (None, 4123, 1030, 3198, [],
        "cb9bc5ad5064f6d8cba8cbadcd77d90b009d390f3a126f81f9516108b4c792fe"),
    ("pps", "late-decision", 256, -1): ((256, "deadline"), 1023, 255, 3198, [],
        "bf7c00030d1fab1d5fcdaa95be33af884fe69f0cda58ccf0ec72eabeae999bd6"),
    ("pps", "late-decision", 256, 0): (None, 4123, 1030, 3198, [],
        "fd7085be5288f61900601db8d10f0fc7e0fe245f3fbf91f2581346ed3f4bd467"),
    ("pps", "late-decision", 256, 1): (None, 4123, 1030, 3198, [],
        "64365e71d30ec2823184295cc66b9c4338ef01b7706223aa2ddb5be7eeb1dd78"),
    ("pps", "late-decision", 257, -1): ((257, "deadline"), 1027, 256, 3198, [],
        "f6f409fdf0711ca9b7f36277dca1ff5eadbd5647d9cfee9cabbe95f06117faf9"),
    ("pps", "late-decision", 257, 0): (None, 4123, 1030, 3198, [],
        "2f57073dd5153c99f94f06bb016997d5122143f4007887aac209d126d4798486"),
    ("pps", "late-decision", 257, 1): (None, 4123, 1030, 3198, [],
        "657958500e50e6886c34ef7e7fefb3cfb0ee0488da56d8fc90e75467e93c7131"),
    ("pps", "late-decision", 512, -1): ((512, "deadline"), 2047, 511, 3198, [],
        "f82408a6178357bbd9f13085bfc1c0fc579894e51ec709b8cec76c675f0d7430"),
    ("pps", "late-decision", 512, 0): (None, 4123, 1030, 3198, [],
        "27d064ba9431e1632db5f81177adc33c0447abdd3986bf6ef1bae605a1520c18"),
    ("pps", "late-decision", 512, 1): (None, 4123, 1030, 3198, [],
        "40ed265c93c2a6e21418bfe944cea2bea3bab127847828ba813c961b292057e8"),
    ("pps", "late-decision", 513, -1): ((513, "deadline"), 2051, 512, 3198, [],
        "9590614cb289c014b08a277eb616b47718d3856eef310a39be616f4d198a1b09"),
    ("pps", "late-decision", 513, 0): (None, 4123, 1030, 3198, [],
        "74e139149c6685b068c28199a20657e4dfd6d2a5ac6fb354ebb73c368ee14e70"),
    ("pps", "late-decision", 513, 1): (None, 4123, 1030, 3198, [],
        "f66aa15f39981feb187cd27bf321ee0558625717c400e023838a7a12e7df2ea4"),
    ("pps", "late-decision", 1029, -1): ((1029, "deadline"), 4115, 1028, 3198, [],
        "bcca1fa964b34156604b8af06b5d85c0adebeeb1f9b50f6f71723bc4196d95c3"),
    ("pps", "late-decision", 1029, 0): (None, 4123, 1030, 3198, [],
        "519b0e6d6b691b616617673a672d0c57661c77466dbfff04e9898109f95afa99"),
    ("pps", "late-decision", 1029, 1): (None, 4123, 1030, 3198, [],
        "63e18cec7c508a7cd3be066937def1fff49593c62b28afc472f0c16d67fb36a7"),
    ("pps", "late-decision", 1030, -1): ((1030, "deadline"), 4119, 1029, 3198, [],
        "51400ea7db8706596796a5fd7832bd37ca36e8fcf522734f27107c13b4d6a181"),
    ("pps", "late-decision", 1030, 0): (None, 4123, 1030, 3198, [],
        "1955eadf66d86eee6be044adb275777c69bb592f1d5aa9272333483fd5593018"),
    ("pps", "late-decision", 1030, 1): (None, 4123, 1030, 3198, [],
        "b60d4c529d1854ba22de9208ca51f8658acf8b88d0df73284b623cb330ed79d8"),
    ("pps", "relay", 0, 0): ((2, "deadline"), 7, 1, None, [],
        "b027164386ee183a78108a42eb45677d2418231bbd68b9bf4fe141d94ec2c8fd"),
    ("skew", "relay", 0, 0): ((3, "deadline"), 8, 1, None, [],
        "b07564a06e26328744f05c206e230a98488929285d8c64614d27837ba6bd7d31"),
}


@pytest.mark.parametrize("clocks, kind, target, margin", list(BLOCK_EDGE_PINS),
                         ids=lambda v: str(v))
def test_block_edge_aborts(clocks, kind, target, margin):
    plan = small_plan(1030, n=8)
    strategy = (AdversaryStrategy(kind, target, margin) if kind == "late-decision"
                else AdversaryStrategy(kind))
    t, rep = run_simulation(plan, clocks=BLOCK_EDGE_CLOCKS[clocks], strategy=strategy,
                            seed=1, bit=0)
    abort = (rep.abort_round, rep.abort_reason) if rep.aborted else None
    assert (abort, rep.event_count, rep.rounds_recorded, rep.worst_true_slack_ns,
            rep.margin_violation_rounds,
            hashlib.sha256(transcript_to_bytes(t)).hexdigest()) == \
        BLOCK_EDGE_PINS[clocks, kind, target, margin]


# Runs on pps clocks whose schedule crosses whole seconds of global time,
# where the pulse steps each clock: stations 15,000 km apart put rounds about
# 50 ms apart, so round 21 starts past 1 s and the reveal, round 41, past
# 2 s. No pin above reaches 1 s. Computed before the clocks converted a
# column at a time; each value is the transcript's sha256 and the report.
WHOLE_SECOND_PINS = {
    ("honest", 0, 0): (
        "4168464117259b4448dcceb959f20f9c51a949bee903735fa19d60b90dd4b050",
        dict(aborted=False, abort_round=None, abort_reason=None, rounds_recorded=40,
             event_count=163, worst_true_slack_ns=3193, reveal_received=True)),
    ("relay", 0, 0): (
        "d348c627521b2a0f0f8276f70edc6ed5006e52c7d64e09e73faad95364825169",
        dict(aborted=True, abort_round=2, abort_reason="deadline", rounds_recorded=1,
             event_count=7, worst_true_slack_ns=None, reveal_received=False)),
    ("late-decision", 25, -1): (
        "5c09b2aa428a8d58a03d8a0f80524510031267cd6b5ecd042893990b0fe930e7",
        dict(aborted=True, abort_round=25, abort_reason="deadline", rounds_recorded=24,
             event_count=99, worst_true_slack_ns=3193, reveal_received=False)),
    ("late-decision", 25, 0): (
        "af9bc24d1f7f3a55c26092a335b27f8f54ce0cf74e4c8e7e45873a6676895117",
        dict(aborted=False, abort_round=None, abort_reason=None, rounds_recorded=40,
             event_count=163, worst_true_slack_ns=3193, reveal_received=True)),
}


@pytest.mark.parametrize("kind, target, margin", list(WHOLE_SECOND_PINS),
                         ids=lambda v: str(v))
def test_runs_across_whole_seconds(kind, target, margin):
    plan = small_plan(40, n=8, L=1.5e7)
    assert plan.round_start_ns(20) < NS < plan.round_start_ns(21)
    assert plan.round_start_ns(40) < 2 * NS < plan.round_start_ns(41)
    strategy = (AdversaryStrategy(kind, target, margin) if kind == "late-decision"
                else AdversaryStrategy(kind))
    t, rep = run_simulation(plan, clocks=BLOCK_EDGE_CLOCKS["pps"], strategy=strategy,
                            seed=1, bit=0)
    digest, fields = WHOLE_SECOND_PINS[kind, target, margin]
    assert hashlib.sha256(transcript_to_bytes(t)).hexdigest() == digest
    assert asdict(rep) == {"strategy": kind, "seed": 1, "bit": 0, **fields,
                           "margin_violation_rounds": [], "discipline_violations": []}


def test_abort_after_reveal_reports_every_pair():
    """The reveal (round m+1 = 257) leaves A1, 300 m from B1 on an exact
    clock, and lands inside round 257's window on B1's clock, which is
    behind A1's by less than the travel time and slow; round 256 at B2, far
    behind, then times out. The report's worst slack covers every pair
    through (256, 257), as an oracle taking the minimum over the plan's
    schedule in the global frame finds."""
    plan = small_plan(256, n=8)
    clocks = {"B1": ClockModel(offset_ns=-500, rate=-2e-5),
              "B2": ClockModel(offset_ns=-20_000)}
    t, rep = run_simulation(plan, clocks=clocks, seed=1, bit=0,
                            placements={"A1": 300.0, "A2": plan.config.L},
                            strategy=AdversaryStrategy("late-decision", target_round=256,
                                                       margin_ns=-1))
    assert rep.reveal_received and rep.aborted and rep.abort_round == 256
    assert 0 <= t.reveal_received_at - plan.round_start_ns(257) <= plan.tau1_ns

    def global_time(k, until):
        clk = clocks["B1" if k & 1 else "B2"]
        return clk.global_at_local(plan.round_start_ns(k) + until)

    def tau(k):
        return plan.tau1_ns if k & 1 else plan.tau2_ns

    assert rep.worst_true_slack_ns == min(
        global_time(k, 0) + plan.t_l_ns - global_time(k + 1, tau(k + 1))
        for k in range(1, plan.m + 1))


# tracemalloc peak of one honest m=10^4, n=128 run with supplied tapes, on
# Python 3.11.7: 3.94 MB with one heap of tuples holding every event and
# per-round global start and deadline lists; 2.52 MB with a presorted
# schedule freed as it is consumed, and the same with one queue holding only
# the rounds in flight, each with running diagnostics.
PEAK_BOUND_BYTES = 3_000_000


def test_run_memory_bound():
    plan = small_plan(10_000, n=128)
    spec = FieldSpec(128)
    tapes = make_tapes(plan, spec, 1)
    run_simulation(plan, seed=1, bit=0, tapes=tapes, spec=spec)  # warm caches
    tracemalloc.start()
    try:
        _, rep = run_simulation(plan, seed=1, bit=0, tapes=tapes, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.aborted
    assert peak < PEAK_BOUND_BYTES, peak


class TestAudit:
    def test_honest_slack_is_margin(self):
        for plan in plan_grid(8):
            t, _ = run_simulation(plan, seed=3, bit=1)
            audit = no_signaling_audit(t, plan)
            assert audit.ok
            assert audit.worst_slack_ns >= plan.t_m_ns - 1

    def test_zero_margin_zero_slack(self):
        tau = 3e-6
        l = SPEED_OF_LIGHT * tau / 2
        tiny = 1e-12  # margin ~ one simulation tick
        cfg = SpacetimeConfig(L=7000.0, l1=l, l2=l, tau1=tau, tau2=tau,
                              t_m=tiny, T=1.0, n=8)
        cfg = SpacetimeConfig(**{**cfg.to_dict(),
                                 "T": (10 + 1.5) * compute_tq(cfg) / 2.0})
        plan = resource_plan(cfg)
        t, rep = run_simulation(plan, seed=1, bit=0)
        assert not rep.aborted
        audit = no_signaling_audit(t, plan)
        assert audit.ok
        assert 0 <= audit.worst_slack_ns <= 2

    def test_injected_late_answer_flagged_at_round(self):
        t, _ = run_simulation(PLAN8, seed=1, bit=0)
        k_bad = 9
        rec = t.rounds[k_bad - 1]
        rec.answer_received_at = rec.challenge_issued_at + tau_at(t, rec.station) + 5
        audit = no_signaling_audit(t, PLAN8)
        assert not audit.ok
        assert k_bad in audit.late_answer_rounds
        assert any(k == k_bad for k, _ in audit.violations)

    def test_answer_before_its_challenge_flagged(self):
        """The audit times a round by the verifier's rule, 0 <= turnaround <= tau."""
        t, _ = run_simulation(PLAN8, seed=1, bit=0)
        rec = t.rounds[4]
        rec.answer_received_at = rec.challenge_issued_at - 1
        assert bob_verify(t).reason == "timing"
        audit = no_signaling_audit(t, PLAN8)
        assert not audit.ok
        assert audit.late_answer_rounds == [5]
        assert (5, "answer received outside its window") in audit.violations

    def test_cone_violation_flagged(self):
        t, _ = run_simulation(PLAN8, seed=1, bit=0)
        # pull round 6's issue stamp far later: round 5 -> 6 breaks the cone
        t.rounds[5].challenge_issued_at += PLAN8.t_l_ns
        t.rounds[5].answer_received_at += PLAN8.t_l_ns
        audit = no_signaling_audit(t, PLAN8)
        assert not audit.ok

