"""Deterministic discrete-event simulation of the four agents.

Agents sit on a 1-D axis (stations at 0 and L); every message, including the
adversary's covert relays, travels at the configured speed of light. Times
are integer nanoseconds in a global frame; each agent owns a ClockModel
mapping its local clock to the global frame, and the verifiers schedule,
stamp, and enforce deadlines strictly on their local clocks; round k's
challenge is read from the tape, challenges[k - 1], when the round starts.

Round k+1 starts t_L - (tau_{station(k+1)} + t_M) after round k starts, so an
answer that depends on the previous round's challenge cannot arrive on time:
light itself would miss the deadline by t_M.

The engine is single-threaded and reproducible: events are processed in
(time, sequence) order and identical inputs give byte-identical transcripts
and reports. Every event waits in one queue. A round's start and deadline
are converted to the global frame once each and queued as the run reaches
the round, so the queue holds only the rounds in flight and a run that
aborts early stops converting. A clock with zero rate is a pure offset and
converts in closed form; a drifting clock is inverted by iterating its drift
estimate until it settles, then stepping to the exact crossing. A
pps-disciplined clock holds its reading at every pulse, the one at global
time 0 included, so no clock runs backward.

The committer computes no answer of her own. Her answers come from
`protocol.honest_answer_blocks`, the offline answer path that honest
transcript generation packs too, `VERIFY_BLOCK_ROUNDS` rounds at a time: a
block is computed when the run first queues a round past the answers held,
so a run that aborts early answers one block, not m rounds. Each of her two
agents answers its station's rounds in order, and a counter per station
keeps that order, as `AliceAgent` does over the wire; the reveal is the
tape's a_m with her bit, flipped by `wrong-bit-reveal`.

One arrival rule, `protocol.arrival_fault`, judges every answer and the
reveal, which is round m+1: it is on time when 0 <= received - issued <= tau
on its verifier's clock; outside that window, or missing when it closes, it
ends the run as `deadline`. Only the reveal can end it as `early-reveal`:
when it reaches its verifier before round m+1 opens there, or when the
committer's clock reaches the reveal before she has answered her rounds.
Parallelism is only across independent runs (`run_many`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Sequence

from .field import FieldSpec
from .planner import ProtocolPlan, NS
from .protocol import (
    ABORT_DEADLINE,
    ABORT_EARLY_REVEAL,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    RevealMessage,
    RoundRecord,
    STATUS_ABORTED,
    STATUS_COMPLETE,
    SequencingError,
    Tape,
    Transcript,
    arrival_fault,
    bob_verify,
    honest_answer_blocks,
    station_of,
)

AGENTS = ("A1", "A2", "B1", "B2")

HONEST = "honest"
LATE_DECISION = "late-decision"
RELAY = "relay"
WRONG_BIT_REVEAL = "wrong-bit-reveal"
PLACEMENT_CHEAT = "placement-cheat"

STRATEGIES = (HONEST, LATE_DECISION, RELAY, WRONG_BIT_REVEAL, PLACEMENT_CHEAT)

# a pps-disciplined clock whose error over one second exceeds this is out of spec
PPS_TOLERANCE_NS = 8

# placement-cheat puts A1 at this multiple of its allowed offset l1
CHEAT_OFFSET_FACTOR = 2.0

# event kinds (processed in (time, seq) order)
_EV_START = 0
_EV_CH_ARRIVE = 1
_EV_ARRIVE = 2       # an answer at its verifier, or the reveal (k = m+1)
_EV_DEADLINE = 3
_EV_COVERT = 4
_EV_REVEAL_SEND = 5


class SimulationError(Exception):
    """Malformed simulation input (placement, plan, strategy)."""


@dataclass(frozen=True)
class ClockModel:
    """Local clock: offset plus fractional rate error, optionally disciplined
    by a once-per-second pulse that bounds the accumulated error."""

    offset_ns: int = 0
    rate: float = 0.0
    discipline: str = "none"          # "none" | "pps"

    def __post_init__(self):
        if self.discipline not in ("none", "pps"):
            raise SimulationError(f"unknown clock discipline {self.discipline!r}")

    def drift_ns(self, global_ns: int) -> int:
        if self.discipline == "pps":
            return round(self.rate * (global_ns % NS))
        return round(self.rate * global_ns)

    def local_at_global(self, global_ns: int) -> int:
        # drift_ns written out: this runs several times per simulated round
        rate = self.rate
        if not rate:  # exact rate: no drift, a pure offset
            return global_ns + self.offset_ns
        if self.discipline != "pps":
            return global_ns + self.offset_ns + round(rate * global_ns)
        into = global_ns % NS
        local = global_ns + self.offset_ns + round(rate * into)
        if into <= rate * NS:
            # the pulse pulls a fast clock (rate > 0) back at each whole
            # second, 0 included; it holds its last reading until global time
            # catches up, which takes at most rate * NS ns, so it never runs
            # backward
            held = global_ns - into - 1 + self.offset_ns + round(rate * (NS - 1))
            return max(local, held)
        return local

    def global_at_local(self, local_ns: int) -> int:
        """The global time g at which this clock reaches `local_ns`:
        local_at_global(g) >= local_ns > local_at_global(g - 1),
        found by iterating the drift estimate until it stops changing and
        then a step search."""
        base = local_ns - self.offset_ns
        if not self.rate:  # the closed form of the search below
            return base
        # the drift estimate usually settles after one or two steps; stop
        # there, or after four, and let the step search make it exact
        g = base
        for _ in range(4):
            nxt = base - self.drift_ns(g)
            if nxt == g:
                break
            g = nxt
        while self.local_at_global(g) < local_ns:
            g += 1
        while self.local_at_global(g - 1) >= local_ns:
            g -= 1
        return g

    @property
    def pps_violation(self) -> bool:
        """True when the per-second accumulated error exceeds the tolerance."""
        return self.discipline == "pps" and abs(self.rate) * NS > PPS_TOLERANCE_NS


EXACT_CLOCK = ClockModel()


@dataclass(frozen=True)
class AdversaryStrategy:
    """Committer-side behavior; acts only through messages and timing.

    kinds:
      honest           answer immediately from the tapes
      late-decision    delay the `target_round` answer so it arrives
                       `margin_ns` before its deadline (negative = after)
      relay            forward every challenge to the other agent at light
                       speed and answer sustain rounds only once the previous
                       round's challenge has been relayed over
      wrong-bit-reveal honest rounds, flipped bit in the reveal
      placement-cheat  honest behavior from beyond the allowed offset, A1 at
                       l1 * CHEAT_OFFSET_FACTOR
    """

    kind: str = HONEST
    target_round: int = 1
    margin_ns: int = 1

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise SimulationError(f"unknown strategy kind {self.kind!r}")


@dataclass
class SimReport:
    """Per-run timing evidence produced alongside the transcript."""

    strategy: str
    seed: int
    bit: int
    aborted: bool
    abort_round: int | None
    abort_reason: str | None
    rounds_recorded: int
    event_count: int
    worst_true_slack_ns: int | None   # min over pairs of issued(k)+t_L-deadline(k+1)
    margin_violation_rounds: list[int]   # rounds starting > t_M from nominal
    discipline_violations: list[str]     # agents whose pps clock is out of spec
    reveal_received: bool


@dataclass
class AuditReport:
    """Post-hoc no-signaling audit of a transcript against a plan."""

    ok: bool
    pairs_checked: int
    worst_slack_ns: int | None
    violations: list[tuple[int, str]]    # (round index, what went wrong)
    late_answer_rounds: list[int]


def default_placements(plan: ProtocolPlan,
                       strategy: AdversaryStrategy | None = None) -> dict[str, float]:
    """Honest default: committer agents colocated with their stations."""
    L = plan.config.L
    pos = {"B1": 0.0, "A1": 0.0, "B2": L, "A2": L}
    if strategy is not None and strategy.kind == PLACEMENT_CHEAT:
        pos["A1"] = min(plan.config.l1 * CHEAT_OFFSET_FACTOR, L / 2)
    return pos


def make_tapes(plan: ProtocolPlan, spec: FieldSpec, seed: int) -> tuple[Tape, Tape]:
    """Seeded pre-shared randomness: secrets a_1..a_m, then challenges
    x_1..x_m (nonzero), drawn in that order from one stream, each as one
    `FieldSpec.random_block`."""
    rng = random.Random(seed)
    secrets = spec.random_block(rng, plan.m)
    challenges = spec.random_block(rng, plan.m, nonzero=True)
    return (Tape(ROLE_ALICE_SECRETS, spec, spec.decode_block(secrets)),
            Tape(ROLE_BOB_CHALLENGES, spec, spec.decode_block(challenges)))


def _travel_ns(pos_a: float, pos_b: float, c: float) -> int:
    return math.ceil(abs(pos_a - pos_b) * NS / c)


def run_simulation(plan: ProtocolPlan,
                   placements: dict[str, float] | None = None,
                   clocks: dict[str, ClockModel] | None = None,
                   strategy: AdversaryStrategy | None = None,
                   seed: int = 0,
                   bit: int = 0,
                   tapes: tuple[Tape, Tape] | None = None,
                   spec: FieldSpec | None = None) -> tuple[Transcript, SimReport]:
    """Execute one full commitment under the plan's schedule.

    Returns the transcript exactly as the verifier stations recorded it
    (station-local timestamps) plus a timing report in the global frame.
    """
    strategy = strategy or AdversaryStrategy()
    if spec is None:
        spec = FieldSpec(plan.n)
    m = plan.m
    if m < 1:
        raise SimulationError("plan has no rounds")
    if tapes is None:
        tapes = make_tapes(plan, spec, seed)
    secrets, challenges = tapes
    if len(secrets) < m or len(challenges) < m:
        raise SimulationError("tapes shorter than the plan's round count")

    if placements is None:
        pos = default_placements(plan, strategy)
    else:
        pos = {"B1": 0.0, "B2": plan.config.L, **placements}
    for agent in AGENTS:
        if agent not in pos:
            raise SimulationError(f"placement missing for {agent}")

    clocks = clocks or {}
    clk = {agent: clocks.get(agent, EXACT_CLOCK) for agent in AGENTS}
    c = plan.config.c
    t_l_ns = plan.t_l_ns
    # per-station lookups, indexed by station number (1 or 2)
    b_local_at = (None, clk["B1"].local_at_global, clk["B2"].local_at_global)
    b_global_at = (None, clk["B1"].global_at_local, clk["B2"].global_at_local)
    travel_ba = (0, _travel_ns(pos["B1"], pos["A1"], c), _travel_ns(pos["B2"], pos["A2"], c))
    travel_aa = _travel_ns(pos["A1"], pos["A2"], c)
    tau = (0, plan.tau1_ns, plan.tau2_ns)

    # The committer's answers come a block at a time from
    # honest_answer_blocks. Rounds are queued in order, so the block is
    # decoded into ys when the run first queues a round past the ones held,
    # and each round's answer rides on its events from there: the stations
    # answer in their own orders, which clock offsets can set far apart.
    # next_answer[st] is the round her agent at station st answers next.
    answer_blocks = honest_answer_blocks(spec, secrets.elements, challenges.elements, bit, m)
    ys: list[int] = []
    ys_from = 1   # the round of ys[0]
    next_answer = [0, 1, 2]

    def answer(k: int, st: int) -> None:
        if k != next_answer[st]:
            raise SequencingError(f"A{st} expected round {next_answer[st]}, got {k}")
        next_answer[st] = k + 2

    reveal_round = m + 1
    xs = challenges.elements   # x_k is xs[k - 1]

    # settled[k] is round k's record once its answer has arrived, on time or
    # not, and settled[m + 1] the reveal once it has arrived on time; a
    # deadline that finds its entry unset ends the run as a deadline abort
    settled: list[RoundRecord | RevealMessage | None] = [None] * (reveal_round + 1)
    issue_local = [0] * (reveal_round + 1)
    # global-frame diagnostics, gathered as rounds are queued: each new
    # minimum of the light-cone slack issued(k) + t_L - deadline(k+1) as
    # (k, min over pairs 1..k), and the first rounds starting > t_M off nominal
    slack_steps: list[tuple[int, int]] = []
    margin_rounds: list[int] = []
    t_m_ns = plan.t_m_ns

    def global_start(k: int) -> int:
        """Round k's start in the global frame, its local start recorded as
        issue_local[k]."""
        start_local = issue_local[k] = plan.round_start_ns(k)
        return b_global_at[1 if k & 1 else 2](start_local)

    # One queue of (time, seq, kind, k, payload); a round's start, challenge
    # and answer events carry its answer y as payload. seq is fixed for the
    # scheduled events: 2k-2 starts round k, 2k-1 is its deadline, 2m is the
    # reveal deadline and 2m+1 the reveal send; events created while running
    # (arrivals, covert relays) number on from 2m+2. Rounds are queued as the
    # run reaches them, so an aborted run stops converting: the first round
    # not queued, k, is queued once the queue is empty or its head is no
    # earlier than the horizon, the global start of round k or k+1, whichever
    # is earlier. Each station's starts rise in local time and global_at_local
    # never decreases, so no unqueued event can come before the horizon, and
    # queueing on a tie lets seq order it. The committer self-schedules the
    # reveal on her own clock, so it is queued up front.
    issue_local[reveal_round] = plan.round_start_ns(reveal_round)
    a_clk = clk[f"A{station_of(reveal_round)}"]
    queue: list[tuple] = [(a_clk.global_at_local(issue_local[reveal_round]),
                           2 * m + 1, _EV_REVEAL_SEND, reveal_round, None)]
    seq = 2 * m + 2
    next_k = 1   # the first round not queued yet
    # its global start and the next round's, inf past the reveal
    g_next, g_after = global_start(1), global_start(2)
    horizon = min(g_next, g_after)
    prev_start = 0

    skind = strategy.kind
    # relay-strategy bookkeeping
    covert_known: set[int] = set()   # challenge indexes relayed to the peer
    relay_waiting: dict[int, tuple[int, int]] = {}  # round stalled on a relay -> station, y

    abort: tuple[int, str] | None = None   # (round, reason)
    reveal_at = 0   # when the reveal reached its verifier, on its clock
    events = 0

    while abort is None:
        if not queue or queue[0][0] >= horizon:
            if next_k > reveal_round:
                break
            k = next_k
            st = 1 if k & 1 else 2
            g_start = g_next
            g_deadline = b_global_at[st](issue_local[k] + tau[st])
            if k > 1:
                slack = prev_start + t_l_ns - g_deadline
                if not slack_steps or slack < slack_steps[-1][1]:
                    slack_steps.append((k - 1, slack))
            prev_start = g_start
            if len(margin_rounds) < 100 and abs(g_start - issue_local[k]) > t_m_ns:
                margin_rounds.append(k)
            # a deadline fires one tick past it so an arrival exactly at the
            # deadline is still counted as on time
            if k <= m:
                if k - ys_from == len(ys):
                    ys_from, ys = k, spec.decode_block(next(answer_blocks)[1])
                heappush(queue, (g_start, 2 * k - 2, _EV_START, k, ys[k - ys_from]))
                heappush(queue, (g_deadline + 1, 2 * k - 1, _EV_DEADLINE, k, None))
            else:
                heappush(queue, (g_deadline + 1, 2 * m, _EV_DEADLINE, k, None))
            next_k = k + 1
            g_next, g_after = g_after, (global_start(k + 2) if k + 2 <= reveal_round
                                        else math.inf)
            horizon = min(g_next, g_after)
            continue
        t, _, kind, k, payload = heappop(queue)
        events += 1
        st = 1 if k & 1 else 2
        if kind == _EV_START:
            heappush(queue, (t + travel_ba[st], seq, _EV_CH_ARRIVE, k, payload))
            seq += 1
        elif kind == _EV_CH_ARRIVE:
            arrive = t + travel_ba[st]
            if skind == RELAY:
                # covertly forward this challenge to the peer agent, and hold
                # a sustain round until the previous challenge has come over
                heappush(queue, (t + travel_aa, seq, _EV_COVERT, k, 0))
                seq += 1
                if k > 1 and k - 1 not in covert_known:
                    relay_waiting[k] = (st, payload)
                    continue
            elif skind == LATE_DECISION and k == strategy.target_round:
                deadline = b_global_at[st](issue_local[k] + tau[st])
                arrive = max(arrive, deadline - strategy.margin_ns)
            answer(k, st)
            heappush(queue, (arrive, seq, _EV_ARRIVE, k, payload))
            seq += 1
        elif kind == _EV_ARRIVE:
            # every answer and the reveal, judged by the one arrival rule on
            # its verifier's clock
            received = b_local_at[st](t)
            if k <= m:
                settled[k] = RoundRecord(k, st, xs[k - 1], payload,
                                         issue_local[k], received)
            else:
                reveal_at = received
            fault = arrival_fault(issue_local[k], received, tau[st], k > m)
            if fault:
                abort = (k, fault)
            elif k > m:
                settled[k] = payload
        elif kind == _EV_DEADLINE:
            if settled[k] is None:
                abort = (k, ABORT_DEADLINE)
        elif kind == _EV_COVERT:
            covert_known.add(k)
            nxt = k + 1
            if nxt in relay_waiting:
                st, y = relay_waiting.pop(nxt)
                answer(nxt, st)
                heappush(queue, (t + travel_ba[st], seq, _EV_ARRIVE, nxt, y))
                seq += 1
        elif kind == _EV_REVEAL_SEND:
            if next_answer[st] != reveal_round:
                # her clock reached the reveal before she answered her rounds
                abort = (k, ABORT_EARLY_REVEAL)
                continue
            msg = RevealMessage(bit ^ 1 if skind == WRONG_BIT_REVEAL else bit,
                                secrets[m - 1])
            heappush(queue, (t + travel_ba[st], seq, _EV_ARRIVE, k, msg))
            seq += 1

    # the contiguous round prefix
    rounds: list[RoundRecord] = []
    for rec in settled[1:reveal_round]:
        if rec is None:
            break
        rounds.append(rec)
    reveal_received = settled[reveal_round] is not None
    abort_round, abort_reason = abort or (None, None)
    transcript = Transcript(spec=spec, m=m, tau1_ns=plan.tau1_ns, tau2_ns=plan.tau2_ns,
                            rounds=rounds,
                            reveal=None if abort else settled[reveal_round],
                            reveal_received_at=reveal_at,
                            status=STATUS_ABORTED if abort else STATUS_COMPLETE,
                            abort_reason=abort_reason, abort_round=abort_round,
                            plan_hash=plan.plan_hash)

    # global-frame diagnostics over the pairs and rounds the run reached; a
    # run queues round m+1 before the reveal can land inside its window, and
    # a run that ends unaborted has received the reveal
    worst_slack: int | None = None
    last_pair = reveal_round if reveal_received else len(rounds)
    assert next_k > last_pair
    for k, slack in slack_steps:
        if k >= last_pair:
            break
        worst_slack = slack
    last_round = len(rounds) if abort else reveal_round
    margin_violations = [k for k in margin_rounds if k <= last_round]
    discipline = [a for a in AGENTS if clk[a].pps_violation]

    report = SimReport(
        strategy=strategy.kind,
        seed=seed,
        bit=bit,
        aborted=abort is not None,
        abort_round=abort_round,
        abort_reason=abort_reason,
        rounds_recorded=len(rounds),
        event_count=events,
        worst_true_slack_ns=worst_slack,
        margin_violation_rounds=margin_violations,
        discipline_violations=discipline,
        reveal_received=reveal_received,
    )
    return transcript, report


def no_signaling_audit(transcript: Transcript, plan: ProtocolPlan) -> AuditReport:
    """Check every consecutive round pair against the light cone.

    The answer to round k+1 must be independent of challenge k: even at light
    speed, information from the challenge issued at issued(k) reaches the
    other station only t_L later, so the audit requires

        deadline(k+1) <= issued(k) + t_L * scale

    and reports the worst slack (honest schedules leave ~t_M). The committer
    offset allowances cancel: sitting closer to the far station means
    learning the challenge earlier but also having to emit the answer
    earlier, both at light speed. A round whose answer misses its window
    by `protocol.arrival_fault` is reported separately. Timestamps must
    exist for every recorded round.
    """
    t_l_ns = plan.t_l_ns * max(1, transcript.scale_factor)
    tau = (0, transcript.tau1_ns, transcript.tau2_ns)   # by station
    rounds = transcript.rounds
    if not rounds:
        return AuditReport(False, 0, None, [(0, "no rounds to audit")], [])
    for rec in rounds:
        if rec.answer_received_at is None or rec.challenge_issued_at is None:
            return AuditReport(False, 0, None,
                               [(rec.k, "missing timestamps: audit incomplete")], [])
    late_rounds = [rec.k for rec in rounds if arrival_fault(
        rec.challenge_issued_at, rec.answer_received_at, tau[rec.station])]
    # each round against the next; the reveal is round m+1, audited against
    # round m by its receipt time
    slacks = [cur.challenge_issued_at + t_l_ns - nxt.challenge_issued_at - tau[nxt.station]
              for cur, nxt in zip(rounds, rounds[1:])]
    if transcript.is_complete:
        slacks.append(rounds[-1].challenge_issued_at + t_l_ns - transcript.reveal_received_at)
    violations: list[tuple[int, str]] = []
    for cur, nxt, slack in zip(rounds, [*rounds[1:], None], slacks):
        if slack < 0:
            k, what = ((nxt.k, "answer window ends") if nxt
                       else (transcript.m + 1, "reveal arrived"))
            violations.append((k, f"{what} {-slack} ns inside the light cone of round {cur.k}"))
    violations += [(k, "answer received outside its window") for k in late_rounds]
    return AuditReport(not violations, len(slacks), min(slacks, default=None), violations,
                       late_rounds)


# -- embarrassingly parallel sweeps -------------------------------------------


def _run_one_summary(args) -> dict:
    """Worker for run_many: returns a small, picklable summary."""
    plan, strategy, seed, bit = args
    transcript, report = run_simulation(plan, strategy=strategy, seed=seed, bit=bit)
    verdict = bob_verify(transcript)
    audit = no_signaling_audit(transcript, plan)
    return {
        "seed": seed,
        "bit": bit,
        "strategy": strategy.kind,
        "aborted": report.aborted,
        "abort_round": report.abort_round,
        "abort_reason": report.abort_reason,
        "accepted": verdict.accepted,
        "verdict_bit": verdict.bit,
        "reject_reason": verdict.reason,
        "audit_ok": audit.ok,
        "audit_worst_slack_ns": audit.worst_slack_ns,
    }


def run_many(plan: ProtocolPlan, strategy: AdversaryStrategy,
             seeds: Sequence[int], bits: Sequence[int],
             processes: int | None = None) -> list[dict]:
    """Run the (seed, bit) grid of independent simulations, optionally on a
    process pool; results are ordered like the input grid."""
    jobs = [(plan, strategy, seed, bit) for seed in seeds for bit in bits]
    if processes is not None and processes > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(processes) as pool:
            return pool.map(_run_one_summary, jobs, chunksize=4)
    return [_run_one_summary(job) for job in jobs]
