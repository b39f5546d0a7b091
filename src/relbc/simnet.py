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

The engine is single-threaded and reproducible: identical inputs give
byte-identical transcripts and reports. It keeps no event queue. Rounds are
settled a block at a time: 2 rounds, then as many as have run, up to
`protocol.BLOCK_ROUNDS`, the package's one block size. A block's events
(start, challenge arrival, covert relay, answer arrival, deadline) are
columns of global times, one entry a round; its starts and deadlines are
converted to the global frame once each, and its receipts back to the
stations' clocks, a station's half-column at a time. Its faults
are read off the columns: an answer after its deadline, or a turnaround
outside `arrival_fault`'s window. Every event has an order key, (t, 0, seq)
for a scheduled one, seq being 2k-2 for round k's start, 2k-1 for its
deadline, 2m for the reveal's deadline and 2m+1 for its send, and (t, 1,
parent key, i) for an event that another one creates, i ordering one
parent's events. The abort is the fault with the smallest key, and the
run's events are the keys at or below it. Keys are built only where times
may tie: for a block's earliest faults, and at the end of the run for the
blocks that straddle the abort; a block wholly below it counts 4 events a
round, 5 under relay. The run stops before a block whose first two global
starts lie past the earliest fault, so a run that aborts early stops
converting.

A clock is a pure offset over any stretch of global time where its drift
term holds still: every stretch at zero rate, and under pps one inside a
second, past the pulse's hold. A column that lies in such a stretch
converts by adding or subtracting that offset; any other column converts
entry by entry, and one entry by the same rule where it can. Elsewhere (a
drift step, a pulse or its hold) a drifting clock is inverted by iterating
its drift estimate until it settles, then bracketing the exact crossing by
doubling steps and bisecting. A pps-disciplined clock holds its reading at
every pulse, the one at global time 0 included, so no clock runs backward.

The committer computes no answer of her own. Her answers come from
`protocol.honest_answer_blocks`, the offline answer path that honest
transcript generation packs too: one `FieldSpec.answers` call per
`BLOCK_ROUNDS` rounds, made when the run first reaches a round past the
answers held, so a run that aborts early answers one block, not m rounds.
Settling blocks in round order gives each of her two agents its station's
rounds in order, as `AliceAgent` keeps them over the wire; the reveal is the
tape's a_m with her bit, flipped by `wrong-bit-reveal`.

One arrival rule, `protocol.arrival_fault`, judges every answer and the
reveal, which is round m+1: it is on time when 0 <= received - issued <= tau
on its verifier's clock; outside that window, or missing when it closes, it
ends the run as `deadline`. Only the reveal can end it as `early-reveal`:
when it reaches its verifier before round m+1 opens there, or when the
committer's clock reaches the reveal before she has answered her rounds.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import cycle
from operator import add, gt, sub

from .field import FieldSpec
from .planner import ProtocolPlan, NS
from .protocol import (
    ABORT_DEADLINE,
    ABORT_EARLY_REVEAL,
    BLOCK_ROUNDS,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    RevealMessage,
    RoundRecord,
    STATUS_ABORTED,
    STATUS_COMPLETE,
    Tape,
    Transcript,
    arrival_fault,
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
        local = global_ns + self.offset_ns + self.drift_ns(global_ns)
        into = global_ns % NS
        if self.discipline == "pps" and into <= self.rate * NS:
            # the pulse pulls a fast clock (rate > 0) back at each whole
            # second, 0 included; it holds its last reading until global time
            # catches up, which takes at most rate * NS ns, so it never runs
            # backward
            return max(local, global_ns - into - 1 + self.offset_ns + self.drift_ns(NS - 1))
        return local

    def global_at_local(self, local_ns: int) -> int:
        """The global time g at which this clock reaches `local_ns`:
        local_at_global(g) >= local_ns > local_at_global(g - 1). Where the
        clock is a pure offset around g it is local_ns less that offset;
        elsewhere (a drift step, a pulse or its hold) it is found by iterating
        the drift estimate until it stops changing and then a search from it.
        The clock never runs backward, so that g is unique and bisection
        finds it."""
        base = local_ns - self.offset_ns
        if not self.rate:  # the closed form of the search below
            return base
        off = self._offset_at_local(local_ns, local_ns)
        if off is not None:
            return local_ns - off
        # the drift estimate usually settles after one or two steps; stop
        # there, or after four, and let the search make it exact
        g = base
        for _ in range(4):
            nxt = base - self.drift_ns(g)
            if nxt == g:
                break
            g = nxt
        # bracket the crossing, reading(lo) < local_ns <= reading(hi), by
        # steps that double away from the estimate, then bisect: the crossing
        # is usually g or g + 1 (two readings), and one inside a pps hold of
        # rate * NS ns takes about 2 * log2 of that
        reading = self.local_at_global
        step = 1
        if reading(g) < local_ns:
            while reading(g + step) < local_ns:
                step *= 2
            lo, hi = g + step // 2, g + step
        else:
            while reading(g - step) >= local_ns:
                step *= 2
            lo, hi = g - step, g - step // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if reading(mid) < local_ns:
                lo = mid
            else:
                hi = mid
        return hi

    def _offset_at_global(self, lo: int, hi: int) -> int | None:
        """local - global over global times lo..hi, where the drift term
        holds still so the clock is a pure offset; None where it may not.
        The term is monotone, so equal at both ends means constant between,
        and under pps lo..hi must lie in one second, past its pulse's hold."""
        drift = self.drift_ns(lo)
        if self.rate and (drift != self.drift_ns(hi) or self.discipline == "pps" and (
                lo // NS != hi // NS or lo % NS <= self.rate * NS)):
            return None
        return self.offset_ns + drift

    def _offset_at_local(self, lo: int, hi: int) -> int | None:
        """The offset off for which L - off is the first global time the
        clock reads L, for every L in lo..hi: the clock reads g + off from
        g = lo - off - 1 through hi - off. None where that does not hold."""
        off = self.offset_ns + self.drift_ns(lo - self.offset_ns)
        return off if self._offset_at_global(lo - off - 1, hi - off) == off else None

    def locals_at_global(self, col: list[int]) -> list[int]:
        """`local_at_global` of each entry of `col`."""
        off = self._offset_at_global(min(col, default=0), max(col, default=0))
        if off is None:
            return list(map(self.local_at_global, col))
        return [g + off for g in col]

    def globals_at_local(self, col: list[int]) -> list[int]:
        """`global_at_local` of each entry of `col`."""
        off = self._offset_at_local(min(col, default=0), max(col, default=0))
        if off is None:
            return list(map(self.global_at_local, col))
        return [local - off for local in col]

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
    event_count: int   # events at or below the abort: 4 a round, 5 under relay, 3 for the reveal
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
    `FieldSpec.random_block`. A tape longer than one block can draw is
    refused before either draw."""
    if plan.m > spec.max_block:
        raise SimulationError(f"{plan.m} rounds: the simulator draws each tape in one "
                              f"block, at most {spec.max_block} elements at n={spec.n}")
    rng = random.Random(seed)
    secrets = spec.random_block(rng, plan.m)
    challenges = spec.random_block(rng, plan.m, nonzero=True)
    return (Tape(ROLE_ALICE_SECRETS, spec, spec.decode_block(secrets)),
            Tape(ROLE_BOB_CHALLENGES, spec, spec.decode_block(challenges)))


def _travel_ns(pos_a: float, pos_b: float, c: float) -> int:
    return math.ceil(abs(pos_a - pos_b) * NS / c)


def _by_station(convert: tuple, col: list) -> list:
    """`col`, whose entries alternate station 1 and 2, each station's half
    through its column conversion in `convert`, indexed by station number."""
    out = col[:]
    out[0::2] = convert[1](col[0::2])
    out[1::2] = convert[2](col[1::2])
    return out


@dataclass
class _Block:
    """The global times of rounds k0, k0+1, ... in columns, one entry a
    round, and the key of the covert relay of the round before k0."""

    k0: int
    starts: list[int]
    arrivals: list[int]    # the challenge at the committer's agent
    deadlines: list[int]
    answers: list[int]     # the answer at the verifier
    relayed: list[int]     # the challenge at the other agent; empty but under relay
    covert_in: tuple
    slacks: list           # start(k-1) - deadline(k): the light-cone slack less t_L
    last: int              # the latest event time

    def covert(self, i: int) -> tuple:
        """The key of round k0+i's covert relay; i = -1 is the previous round's."""
        if i < 0:
            return self.covert_in
        start = (self.starts[i], 0, 2 * (self.k0 + i) - 2)
        return (self.relayed[i], 1, (self.arrivals[i], 1, start, 0), 0)

    def keys(self, i: int) -> list[tuple]:
        """Round k0+i's event keys: start, challenge arrival, deadline, answer
        arrival and, under relay, the covert relay."""
        k = self.k0 + i
        start = (self.starts[i], 0, 2 * k - 2)
        by = arrival = (self.arrivals[i], 1, start, 0)
        if self.relayed:
            # a sustain round is answered once the previous challenge has come over
            by = max(arrival, self.covert(i - 1))
        keys = [start, arrival, (self.deadlines[i] + 1, 0, 2 * k - 1),
                (self.answers[i], 1, by, 1)]
        if self.relayed:
            keys.append(self.covert(i))
        return keys


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
    skind = strategy.kind
    target = strategy.target_round if skind == LATE_DECISION else 0
    if skind == LATE_DECISION and not 1 <= target <= m:
        raise SimulationError(f"late-decision target round {target} is outside 1..{m}")
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
    # per-station lookups, indexed by station number (1 or 2)
    b_locals_at = (None, clk["B1"].locals_at_global, clk["B2"].locals_at_global)
    b_globals_at = (None, clk["B1"].globals_at_local, clk["B2"].globals_at_local)
    travel_ba = (0, _travel_ns(pos["B1"], pos["A1"], c), _travel_ns(pos["B2"], pos["A2"], c))
    travel_aa = _travel_ns(pos["A1"], pos["A2"], c)
    tau = (0, plan.tau1_ns, plan.tau2_ns)
    reveal_round = m + 1
    xs = challenges.elements   # x_k is xs[k - 1]

    # The committer's answers come a block at a time from
    # honest_answer_blocks, decoded into ys when the run first reaches a
    # round past the ones held.
    answer_blocks = honest_answer_blocks(spec, secrets.elements, challenges.elements, bit, m)
    ys: list[int] = []   # the answers of the block of BLOCK_ROUNDS that round k0 is in

    abort_key: tuple = (math.inf,)   # the smallest fault's key so far
    abort: tuple[int, str] | None = None   # its (round, reason)

    def fault(key: tuple, k: int, reason: str) -> None:
        nonlocal abort_key, abort
        if key < abort_key:
            abort_key, abort = key, (k, reason)

    # The committer self-schedules the reveal on her own clock, so its send
    # and arrival are known up front; whether she had answered her last round
    # at its station when she sent it is judged once the rounds are known.
    st = station_of(reveal_round)
    reveal_issued = plan.round_start_ns(reveal_round)
    t_send = clk[f"A{st}"].global_at_local(reveal_issued)
    send_key = (t_send, 0, 2 * m + 1)
    reveal_key = (t_send + travel_ba[st], 1, send_key, 1)
    reveal_at = clk[f"B{st}"].local_at_global(reveal_key[0])
    if reason := arrival_fault(reveal_issued, reveal_at, tau[st], True):
        fault(reveal_key, reveal_round, reason)
    answered = (math.inf,)   # the key of the event that answered round m-1

    relay = skind == RELAY
    per_round = 5 if relay else 4   # events a round
    rounds: list[RoundRecord] = []
    # the visited blocks whose events are not yet all known to lie below the
    # abort, in round order
    pending: deque[_Block] = deque()
    events = 0   # the events of the blocks dropped from pending
    settled_slack = math.inf   # their least start(k-1) - deadline(k)
    margin_rounds: list[int] = []   # the first rounds starting > t_M off nominal
    t_m_ns = plan.t_m_ns
    covert: tuple = ()   # the previous round's covert relay, under relay
    prev_start = math.inf   # no pair ends at round 1
    # the global starts of the next block's first two rounds
    ahead = [clk["B1"].global_at_local(plan.round_start_ns(1)),
             clk["B2"].global_at_local(plan.round_start_ns(2))]
    k1 = 0
    while k1 < m:
        # blocks of 2 rounds, then of as many rounds as have run, up to
        # BLOCK_ROUNDS, so that each lies inside one block of answers and an
        # early abort converts only the few rounds it reaches
        k0, k1 = k1 + 1, min(m, k1 + min(max(k1, 2), BLOCK_ROUNDS))
        # every event of rounds k0 on lies at or after the earlier of their
        # two global starts (each station's starts rise in local time, and
        # global_at_local never decreases), so a fault before it is the abort
        if abort_key[0] < min(ahead):
            break
        n = k1 - k0 + 1
        # the local starts of the block's rounds and of the next block's
        # first two; k0 is odd, so each column alternates station 1 and 2
        issued = plan.round_starts_ns(k0, min(k1 + 2, reveal_round) - k0 + 1)
        starts = ahead + _by_station(b_globals_at, issued[2:])
        ahead = (starts[n:] + [math.inf, math.inf])[:2]
        starts, issued = starts[:n], issued[:n]
        deadlines = _by_station(b_globals_at, list(map(add, issued, cycle(tau[1:]))))
        arrivals = list(map(add, starts, cycle(travel_ba[1:])))
        sent = arrivals
        relayed: list[int] = []
        if relay:
            # covertly forward each challenge to the peer agent, and hold a
            # sustain round until the previous challenge has come over
            relayed = [t + travel_aa for t in arrivals]
            sent = list(map(max, arrivals, [covert[0] if covert else -math.inf, *relayed[:-1]]))
        answers = list(map(add, sent, cycle(travel_ba[1:])))
        if k0 <= target <= k1:
            i = target - k0
            answers[i] = max(answers[i], deadlines[i] - strategy.margin_ns)
        received = _by_station(b_locals_at, answers)
        if (k0 - 1) % BLOCK_ROUNDS == 0:
            ys = spec.decode_block(next(answer_blocks)[1])
        rounds += map(RoundRecord, range(k0, k1 + 1), cycle((1, 2)), xs[k0 - 1:k1],
                      ys[(k0 - 1) % BLOCK_ROUNDS:], issued, received)
        block = _Block(k0, starts, arrivals, deadlines, answers, relayed, covert,
                       list(map(sub, [prev_start, *starts[:-1]], deadlines)),
                       max(max(deadlines) + 1, max(answers + relayed)))
        if relay:
            covert = block.covert(n - 1)
        prev_start = starts[-1]
        if k0 <= m - 1 <= k1:
            answered = block.keys(m - 1 - k0)[3][2]   # its answer's parent

        # the block's faults: an answer after its deadline (its key above the
        # deadline's), or one outside `arrival_fault`'s window on its
        # verifier's clock, 0 <= turnaround <= tau
        turnarounds = list(map(sub, received, issued))
        if (any(map(gt, answers, deadlines)) or min(turnarounds) < 0
                or any(map(gt, turnarounds, cycle(tau[1:])))):
            faults = []   # (time, row, index of the fault's key in keys(row), reason)
            for i, (a, d) in enumerate(zip(answers, deadlines)):
                if a > d:
                    faults.append((d + 1, i, 2, ABORT_DEADLINE))
                elif why := arrival_fault(issued[i], received[i], tau[1 + (i & 1)]):
                    faults.append((a, i, 3, why))
            first = min(faults)[0]
            for t, i, which, why in faults:
                if t == first:   # only the earliest can be the abort
                    fault(block.keys(i)[which], k0 + i, why)
        if len(margin_rounds) < 100:
            off = list(map(sub, starts, issued))
            if max(map(abs, off)) > t_m_ns:
                margin_rounds += [k for k, d in zip(range(k0, k1 + 1), off)
                                  if abs(d) > t_m_ns][:100 - len(margin_rounds)]

        # a block whose latest event lies below all that is still unknown
        # (the next block's starts, the reveal's send, the abort) is counted
        # and dropped
        pending.append(block)
        cutoff = min(min(ahead), send_key[0], abort_key[0])
        while pending and pending[0].last < cutoff:
            block = pending.popleft()
            events += per_round * len(block.starts)
            settled_slack = min(settled_slack, min(block.slacks))

    # a deadline fires one tick past it so an arrival exactly at the deadline
    # is still counted as on time; a run that stopped short leaves the abort
    # below round m+1's start
    reveal_deadline: tuple = ()
    reveal_slack = math.inf
    if abort_key[0] >= ahead[0]:
        g_deadline = clk[f"B{st}"].global_at_local(reveal_issued + tau[st])
        reveal_slack = prev_start - g_deadline
        if len(margin_rounds) < 100 and abs(ahead[0] - reveal_issued) > t_m_ns:
            margin_rounds.append(reveal_round)
        reveal_deadline = (g_deadline + 1, 0, 2 * m)
        if reveal_key > reveal_deadline:
            fault(reveal_deadline, reveal_round, ABORT_DEADLINE)

    if m > 1 and answered > send_key:
        # her clock reached the reveal before she answered her rounds
        fault(send_key, reveal_round, ABORT_EARLY_REVEAL)
    events += (send_key <= abort_key) + (reveal_key <= abort_key)
    if reveal_deadline:
        events += reveal_deadline <= abort_key
    for block in pending:
        if block.last < abort_key[0]:   # wholly below the abort
            events += per_round * len(block.starts)
            continue
        for i in range(len(block.starts)):
            keys = block.keys(i)
            events += sum(key <= abort_key for key in keys)
            # a round is recorded when its answer arrived by the abort, and
            # the transcript keeps the contiguous round prefix
            if keys[3] > abort_key:
                del rounds[block.k0 + i - 1:]
    reveal_received = reveal_key < abort_key
    abort_round, abort_reason = abort or (None, None)
    reveal = None if abort else RevealMessage(bit ^ 1 if skind == WRONG_BIT_REVEAL else bit,
                                              secrets[m - 1])
    transcript = Transcript(spec=spec, m=m, tau1_ns=plan.tau1_ns, tau2_ns=plan.tau2_ns,
                            rounds=rounds, reveal=reveal,
                            reveal_received_at=reveal_at if reveal_key <= abort_key else 0,
                            status=STATUS_ABORTED if abort else STATUS_COMPLETE,
                            abort_reason=abort_reason, abort_round=abort_round,
                            plan_hash=plan.plan_hash)

    # global-frame diagnostics over the pairs and rounds the run reached; a
    # run visits round m+1 before the reveal can land inside its window, and
    # a run that ends unaborted has received the reveal
    last_pair = reveal_round if reveal_received else len(rounds)
    worst = min([settled_slack, *(s for block in pending
                                  for s in block.slacks[:max(0, last_pair - block.k0 + 1)])])
    if reveal_received:
        worst = min(worst, reveal_slack)
    worst_slack = None if worst == math.inf else worst + plan.t_l_ns
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

        deadline(k+1) <= issued(k) + t_L

    in the ns of the plan the transcript ran (a live rehearsal's own plan),
    and reports the worst slack (honest schedules leave ~t_M). The
    committer offset allowances cancel: sitting closer to the far station
    means learning the challenge earlier but also having to emit the answer
    earlier, both at light speed. A round whose answer misses its window
    by `protocol.arrival_fault` is reported separately.
    """
    t_l_ns = plan.t_l_ns
    tau = (0, transcript.tau1_ns, transcript.tau2_ns)   # by station
    rounds = transcript.rounds
    if not rounds:
        return AuditReport(False, 0, None, [(0, "no rounds to audit")], [])
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
