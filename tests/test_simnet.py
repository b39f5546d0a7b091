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
           rate=st.floats(-8e-9, 8e-9))
    def test_pps_inverse_is_the_first_crossing(self, offset, local, rate):
        """Within tolerance, global_at_local(L) is the g where the local clock
        steps from below L to at least L."""
        clk = ClockModel(offset_ns=offset, rate=rate, discipline="pps")
        assert not clk.pps_violation
        g = clk.global_at_local(local)
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


def counting_clocks(params: dict) -> tuple[dict, list[int]]:
    """A clock for every agent, built from its (offset, rate, discipline) in
    `params` or exact, and a list whose one entry counts their conversions
    to the global frame."""
    calls = [0]

    class CountingClock(ClockModel):
        def global_at_local(self, local_ns):
            calls[0] += 1
            return super().global_at_local(local_ns)

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

