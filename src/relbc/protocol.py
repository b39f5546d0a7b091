"""Four-agent commitment protocol logic: the committer's state machine,
tapes, transcripts, and the receiving party's full verification.

Round k is 1-based. Odd rounds run at station 1, even rounds at station 2;
round m+1 is the reveal and carries no challenge. The committing party's
answer chain starts at a_0 = d, the committed bit, and has one rule:

    y_k = x_k * a_{k-1} XOR a_k           for 1 <= k <= m
    y_{m+1} = a_m            (reveal, together with the claimed bit)

so y_1 = a_1 commits 0 and y_1 = x_1 XOR a_1 commits 1 (Lunghi et al.,
PRL 115, 030502 (2015)). Elements are ints. The rule is written twice,
each in its own hot loop: `AliceAgent.handle_challenge` answers online, one
`FieldSpec.mul` per round, reading the tape by index and guarding the round
order, for the live transport and the `run_honest_protocol` reference;
`FieldSpec.answers` answers `BLOCK_ROUNDS` rounds per call, and
`honest_answer_blocks` feeds it in constant memory, one block a call. That
generator is the one offline answer path: `honest_row_blocks` packs its
blocks into records, and the simulator answers from them, so a run that
aborts early has computed one block. Tape reads, record blocks and
transcript reads move `BLOCK_ROUNDS` at a time too.

Offline generation moves bytes from end to end. `honest_answer_blocks`
takes each source's elements as encoded byte blocks: a `storage.TapeReader`
hands over the bytes it read (`read_block`), and any other iterable of ints
is encoded a block at a time. `honest_row_blocks` yields packed record
blocks in the file's own layout (`record_struct`), built column by column
from the challenge and answer bytes, so no element is decoded and no
per-round tuple is built. The record layout is defined here once; files and
RECORDS frames carry it, and no other round form crosses a module boundary.

Verification reads packed record blocks column by column: one
`record_struct` unpack per block, whose k, station, timestamp and challenge
columns are checked whole, and whose x and y columns go to `FieldSpec.fold`,
which runs the chain forward from the claimed a_0 = d, one multiply per
round: a_k = x_k * a_{k-1} XOR y_k. The result must equal the revealed a_m.
Each step is a bijection when x_k != 0, so this accepts exactly when the
paper's backward recursion a_{k-1} = (y_k XOR a_k) * x_k^-1 from a_m would
reach a_0 = d. A zero challenge, x_1 included, is rejected: it would let a
round bind nothing.

A verifier keeps no state beyond its challenge tape, so its callers send
x_k = challenges[k - 1] straight from the tape; only the committer computes.

Everything here is pure and deterministic; timing is produced by the
simulator (`simnet`) or the live runner (`transport`) and only *checked*
here, by one arrival rule (`arrival_fault`) on station-local clock deltas.
Every abort and reject reason of the package is in one table below.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field as dfield
from itertools import cycle, islice, repeat
from operator import sub
from typing import Callable, Generator, Iterable, Iterator

from .field import FieldSpec, element_struct

ROLE_ALICE_SECRETS = "alice-secrets"
ROLE_BOB_CHALLENGES = "bob-challenges"

STATUS_COMPLETE = "complete"
STATUS_ABORTED = "aborted"

# Every reason a run, a session or a verdict can give, and what it means. An
# abort, simulated or live, records an ABORT_* reason, and a live ABORT frame
# carries it; a rejecting verdict gives a REJECT_* one.
ABORT_DEADLINE = "deadline"             # an answer or the reveal missed its window, late or never
ABORT_EARLY_REVEAL = "early-reveal"     # the reveal came before round m+1 opened
ABORT_CONFIG = "config"                 # a peer holds another plan, is not a peer expected, or
                                        # schedules the epoch past the I/O timeout
ABORT_CONNECTION = "connection"         # a link was refused, dropped or fell silent
ABORT_TAPE = "tape"                     # a tape holds fewer than m elements
ABORT_MALFORMED = "malformed-frame"     # a peer's bytes broke the wire layout or frame order
ABORT_MISMATCH = "transcript-mismatch"  # the two verifiers hold different transcripts or verdicts
ABORT_PROTOCOL = "protocol"             # the committer was driven out of its round order
REJECT_ABORTED = "aborted-transcript"   # the transcript records an abort
REJECT_TIMING = "timing"                # a round's answer came outside its window
REJECT_ZERO_CHALLENGE = "zero-challenge"  # a challenge among x_1..x_m is zero
REJECT_BIT_MISMATCH = "bit-mismatch"    # the chain does not end at the revealed a_m
REJECT_MALFORMED = "malformed-transcript"  # rounds missing, extra, misnumbered or misplaced

# The package's one block size: rounds per `FieldSpec.answers` call, per
# record block (`honest_row_blocks`, `record_blocks`), per transcript-file
# read and per largest simulator settle block, and elements per tape read,
# draw and write. The bitsliced kernel's cost is mostly per call: at n=128 on
# one CPU, 2.8 us a round at 512 rounds, 1.5 us at 1024 and 0.73 us at 4096,
# against about 3 us for the spread-form loop. Longer blocks wait for
# perfbench's AnswerProbe to stop keeping every pass (ROADMAP item 3): it
# reads a faster cycle as a higher peak_rss_mb. An early abort computes one
# block. Memory sets no smaller size: `FieldSpec.fold` spreads 256 rounds at
# a time (`field._DECODE_ELEMENTS`), so `verify_file` stays under 1 MiB.
BLOCK_ROUNDS = 1024

# Both stations' answer deadline in an honest transcript on the synthetic
# schedule of `honest_header` and `honest_row_blocks`.
HONEST_TAU_NS = 1_000_000


class ProtocolError(Exception):
    """Protocol-logic violation (bad state transition, malformed input)."""


class SequencingError(ProtocolError):
    """An agent was driven out of its expected round order."""


def station_of(k: int) -> int:
    """Station hosting round k: 1 for odd k, 2 for even."""
    return 1 if k & 1 else 2


def check_bit(d: int) -> int:
    if d not in (0, 1):
        raise ProtocolError(f"commitment bit must be 0 or 1, got {d!r}")
    return d


def arrival_fault(issued: int, received: int, tau: int, reveal: bool = False) -> str | None:
    """The arrival rule for an answer, or the reveal (round m+1), on its
    verifier's clock: None when it is on time, 0 <= received - issued <= tau
    from its round's opening; ABORT_EARLY_REVEAL for a reveal received before
    its round opens; ABORT_DEADLINE for anything else."""
    turnaround = received - issued
    if 0 <= turnaround <= tau:
        return None
    return ABORT_EARLY_REVEAL if reveal and turnaround < 0 else ABORT_DEADLINE


@dataclass(frozen=True)
class RevealMessage:
    """The opening: claimed bit and the final chain secret a_m."""

    bit: int
    final_secret: int


@dataclass
class Tape:
    """Pre-shared randomness: the committing side's secrets a_1..a_m or the
    challenger side's x_1..x_m (challenges are sampled nonzero so every
    step of the chain is a bijection).

    Elements are canonical ints under `spec`; element k of round k is
    ``elements[k-1]``.
    """

    role: str
    spec: FieldSpec
    elements: list[int]

    def __post_init__(self):
        if self.role not in (ROLE_ALICE_SECRETS, ROLE_BOB_CHALLENGES):
            raise ProtocolError(f"unknown tape role {self.role!r}")
        if self.role == ROLE_BOB_CHALLENGES and 0 in self.elements:
            raise ProtocolError(
                f"challenge tape has zero element at index {self.elements.index(0)}")

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> int:
        return self.elements[i]


@functools.lru_cache(maxsize=32)
def record_struct(eb: int, rounds: int = 1) -> struct.Struct:
    """`rounds` round records back to back, as files and RECORDS frames hold
    them: k, station, x, y (each element `eb` bytes, little-endian), issued
    and received (station-local ns), integers big-endian; six fields per
    record. `verify_rounds` unpacks blocks of them into columns;
    `record_blocks` and `unpack_records` convert."""
    return struct.Struct(">" + f"QB{eb}s{eb}sqq" * rounds)


@dataclass(slots=True)
class RoundRecord:
    """One challenge/answer exchange with station-local timestamps (ns)."""

    k: int
    station: int
    challenge: int
    answer: int
    challenge_issued_at: int
    answer_received_at: int


def record_blocks(records: Iterable[RoundRecord], eb: int) -> Iterator[bytes]:
    """`records` packed in `record_struct`'s layout, `BLOCK_ROUNDS` at a
    time by one pack: how every `RoundRecord` writer packs. An element
    wider than `eb` bytes raises OverflowError."""
    it = iter(records)
    while recs := list(islice(it, BLOCK_ROUNDS)):
        flat = []
        for r in recs:
            flat += (r.k, r.station, r.challenge.to_bytes(eb, "little"),
                     r.answer.to_bytes(eb, "little"), r.challenge_issued_at,
                     r.answer_received_at)
        yield record_struct(eb, len(recs)).pack(*flat)


def unpack_records(data: bytes, eb: int) -> list[RoundRecord]:
    """The records packed in `data`, the inverse of `record_blocks`."""
    return [RoundRecord(k, s, int.from_bytes(x, "little"), int.from_bytes(y, "little"), i, r)
            for k, s, x, y, i, r in record_struct(eb).iter_unpack(data)]


@dataclass
class Transcript:
    """Ordered record of all rounds plus the reveal; the unit of verification.

    ``tau1_ns``/``tau2_ns`` are the enforced per-station answer deadlines,
    the plan's, in the units of the record timestamps, making the transcript
    self-verifying without the plan. A live rehearsal's deadlines and
    `plan_hash` are those of its rehearsal plan.
    """

    spec: FieldSpec
    m: int
    tau1_ns: int
    tau2_ns: int
    rounds: list[RoundRecord] = dfield(default_factory=list)
    reveal: RevealMessage | None = None
    reveal_received_at: int = 0
    status: str = STATUS_COMPLETE
    abort_reason: str | None = None
    abort_round: int | None = None
    plan_hash: str = ""

    @property
    def is_complete(self) -> bool:
        return self.status == STATUS_COMPLETE and self.reveal is not None

    def mark_aborted(self, reason: str, k: int) -> None:
        self.status = STATUS_ABORTED
        self.abort_reason = reason
        self.abort_round = k


@dataclass
class Verdict:
    """Outcome of verification: accept(bit) or reject(reason)."""

    accepted: bool
    bit: int | None = None
    reason: str | None = None

    @classmethod
    def accept(cls, bit: int) -> "Verdict":
        return cls(True, bit=bit)

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(False, reason=reason)

    def __repr__(self) -> str:
        if self.accepted:
            return f"Verdict(accept bit={self.bit})"
        return f"Verdict(reject: {self.reason})"


# -- committer state machine ---------------------------------------------------


class AliceAgent:
    """Committing-side agent at one station: answers its parity's rounds.

    Both agents hold the full secrets tape and the agreed bit; the reveal is
    issued by whichever station hosts round m+1. Over the wire the round
    index comes from the peer, so an out-of-order round raises
    SequencingError.
    """

    def __init__(self, station: int, spec: FieldSpec, secrets: Tape, d: int, m: int):
        if station not in (1, 2):
            raise ProtocolError(f"station must be 1 or 2, got {station}")
        self.station = station
        self.spec = spec
        self.secrets = secrets
        self.d = check_bit(d)
        self.m = m
        self.next_k = station
        self.revealed = False

    def handle_challenge(self, k: int, x_k: int) -> int:
        if k != self.next_k or k > self.m:
            raise SequencingError(
                f"A{self.station} expected round {self.next_k}, got {k}"
            )
        a_prev = self.secrets[k - 2] if k > 1 else self.d
        y = self.spec.mul(x_k, a_prev) ^ self.secrets[k - 1]
        self.next_k += 2
        return y

    def reveal(self) -> RevealMessage:
        reveal_round = self.m + 1
        if self.station != station_of(reveal_round):
            raise SequencingError(
                f"reveal for m={self.m} belongs to station {station_of(reveal_round)}"
            )
        if self.revealed:
            raise SequencingError("reveal already issued")
        if self.next_k != reveal_round:
            raise SequencingError(
                f"reveal before round {self.next_k} was answered at A{self.station}"
            )
        self.revealed = True
        return RevealMessage(self.d, self.secrets[self.m - 1])


# -- verification --------------------------------------------------------------


def verify_rounds(header: Transcript, blocks: Iterable[bytes]) -> Verdict:
    """Every verdict rule, in one forward pass over packed record blocks.

    `header` is the transcript judged, whose rounds are not read: its field,
    m, deadlines, completeness and reveal are the verdict's other inputs.
    Each block holds records in `record_struct`'s layout, as files and
    frames hold them, and is unpacked whole into columns. A block is
    malformed when it is not a whole number of records, runs past round m,
    or its k or station column is not the one its position gives. A round
    is on time by `arrival_fault`'s rule, written here on the block's
    turnaround column: each station's half lies within 0 and its deadline.
    The chain is run forward from a_0 = d, the claimed bit, by
    a_k = x_k * a_{k-1} XOR y_k (see the module docstring), one
    `FieldSpec.fold` of the x and y columns per block, and must end at the
    revealed a_m. Precedence, highest first: aborted, malformed (the only
    early return; no later block is asked for), timing, a zero challenge
    among x_1..x_m, bit mismatch.
    """
    if not header.is_complete:
        return Verdict.reject(REJECT_ABORTED)
    spec, m, reveal = header.spec, header.m, header.reveal
    d = reveal.bit
    if m < 1 or d not in (0, 1):
        return Verdict.reject(REJECT_MALFORMED)
    eb = spec.element_bytes
    fold = spec.fold
    zero_x = bytes(eb)
    size = record_struct(eb).size
    taus = {1: header.tau1_ns, 2: header.tau2_ns}
    mistimed = zero = False
    a, k = d, 0
    for block in blocks:
        r, partial = divmod(len(block), size)
        if partial or k + r > m:
            return Verdict.reject(REJECT_MALFORMED)
        cols = record_struct(eb, r).unpack(block)
        s0 = station_of(k + 1)
        if (cols[0::6] != tuple(range(k + 1, k + r + 1))
                or cols[1::6] != tuple(islice(cycle((s0, 3 - s0)), r))):
            return Verdict.reject(REJECT_MALFORMED)
        turnarounds = list(map(sub, cols[5::6], cols[4::6]))
        for half, station in ((turnarounds[0::2], s0), (turnarounds[1::2], 3 - s0)):
            if half and (min(half) < 0 or max(half) > taus[station]):
                mistimed = True
        xs = cols[2::6]
        if zero_x in xs:
            zero = True
        a = fold(a, b"".join(xs), b"".join(cols[3::6]))
        k += r
    if k != m:
        return Verdict.reject(REJECT_MALFORMED)
    if mistimed:
        return Verdict.reject(REJECT_TIMING)
    if zero:
        return Verdict.reject(REJECT_ZERO_CHALLENGE)
    if a == reveal.final_secret:
        return Verdict.accept(d)
    return Verdict.reject(REJECT_BIT_MISMATCH)


def bob_verify(transcript: Transcript) -> Verdict:
    """Full verification of an in-memory transcript: `verify_rounds` over its own rounds."""
    t = transcript
    return verify_rounds(t, record_blocks(t.rounds, t.spec.element_bytes))


# -- honest drive (reference harness) ------------------------------------------


def _element_reader(source: Iterable[int], eb: int) -> Callable[[int], bytes]:
    """Reads up to `count` elements of `source` at a time, encoded. A source
    with a `read_block` (a `storage.TapeReader`) hands over its own bytes;
    any other iterable of ints is encoded."""
    read_block = getattr(source, "read_block", None)
    if read_block is not None:
        return read_block
    it = iter(source)
    return lambda count: b"".join(map(int.to_bytes, islice(it, count), repeat(eb),
                                      repeat("little")))


def honest_answer_blocks(spec: FieldSpec, secrets: Iterable[int], challenges: Iterable[int],
                         d: int, m: int) -> Generator[tuple[bytes, bytes], None, int]:
    """The committer's answers to the m honest rounds, `BLOCK_ROUNDS` at a
    time: each block's encoded challenge and answer columns x||... and
    y||...; the generator's return value is a_m.

    `secrets` and `challenges` are read through `_element_reader`,
    `BLOCK_ROUNDS` elements at a time and never past element m, so
    arbitrarily long runs are answered in constant memory. The answers
    follow the round rule from a_0 = d, one `FieldSpec.answers` a block. A
    source that ends before element m raises ProtocolError; the bit is
    checked on the call.
    """
    check_bit(d)
    eb = spec.element_bytes

    def take(read: Callable[[int], bytes], count: int, name: str, k: int) -> bytes:
        block = read(count)
        if len(block) != count * eb:
            raise ProtocolError(f"{name} element source exhausted at "
                                f"{k - 1 + len(block) // eb}/{m}")
        return block

    def blocks() -> Generator[tuple[bytes, bytes], None, int]:
        read_a, read_x = _element_reader(secrets, eb), _element_reader(challenges, eb)
        a = d
        for k0 in range(1, m + 1, BLOCK_ROUNDS):
            r = min(BLOCK_ROUNDS, m + 1 - k0)
            sec = take(read_a, r, "secrets", k0)
            xs = take(read_x, r, "challenge", k0)
            yield xs, spec.answers(a, xs, sec)
            a = int.from_bytes(sec[-eb:], "little")
        return a

    return blocks()


def honest_row_blocks(spec: FieldSpec, secrets: Iterable[int], challenges: Iterable[int],
                      d: int, m: int) -> Generator[bytes, None, int]:
    """The m honest rounds as packed record blocks in the layout of
    `record_struct`, without materializing the tapes; the generator's return
    value is a_m.

    Each block of `honest_answer_blocks` is packed by one `record_struct`
    from six columns, so the sources are read as that generator reads them
    and its errors are raised here. Timestamps are those of
    `run_honest_protocol`: a synthetic schedule of 1 us per round and a
    fixed 1 ns turnaround.
    """
    eb = spec.element_bytes
    answers = honest_answer_blocks(spec, secrets, challenges, d, m)

    def blocks() -> Generator[bytes, None, int]:
        k0 = 1
        while True:
            try:
                xs, ys = next(answers)
            except StopIteration as done:
                return done.value
            r = len(xs) // eb
            split = element_struct(eb, r).unpack
            flat = [0] * (6 * r)
            flat[0::6] = range(k0, k0 + r)
            flat[1::6] = islice(cycle((1, 2)), r)  # station_of(k); k0 is odd, blocks are even
            flat[2::6] = split(xs)
            flat[3::6] = split(ys)
            flat[4::6] = range(1000 * k0, 1000 * (k0 + r), 1000)
            flat[5::6] = range(1000 * k0 + 1, 1000 * (k0 + r), 1000)
            yield record_struct(eb, r).pack(*flat)
            k0 += r

    return blocks()


def honest_round_stream(spec: FieldSpec, secrets: Iterable[int],
                        challenges: Iterable[int], d: int, m: int) -> Iterator[RoundRecord]:
    """The rounds of `honest_row_blocks`, one `RoundRecord` each."""
    for block in honest_row_blocks(spec, secrets, challenges, d, m):
        yield from unpack_records(block, spec.element_bytes)


def honest_header(spec: FieldSpec, m: int, d: int) -> Transcript:
    """An honest m-round transcript's header, no rounds, on the schedule of
    `honest_row_blocks`; the reveal's a_m is 0 until its writer knows it."""
    return Transcript(spec=spec, m=m, tau1_ns=HONEST_TAU_NS, tau2_ns=HONEST_TAU_NS,
                      reveal=RevealMessage(d, 0), reveal_received_at=(m + 1) * 1000 + 1)


def run_honest_protocol(spec: FieldSpec, secrets: Tape, challenges: Tape, d: int) -> Transcript:
    """Drive both committer agents over in-memory tapes, each round's
    challenge read from the challenge tape; returns a complete transcript
    with the header of `honest_header`.

    This is the reference that streamed generation is compared against; the
    discrete-event simulator and the live transport produce the same records
    with physical timestamps instead.
    """
    m = len(secrets)
    if len(challenges) < m:
        raise ProtocolError("challenge tape shorter than the secrets tape")
    alices = {1: AliceAgent(1, spec, secrets, d, m), 2: AliceAgent(2, spec, secrets, d, m)}
    t = honest_header(spec, m, d)
    for k in range(1, m + 1):
        s = station_of(k)
        x_k = challenges[k - 1]
        y_k = alices[s].handle_challenge(k, x_k)
        issued = k * 1000
        t.rounds.append(RoundRecord(k, s, x_k, y_k, issued, issued + 1))
    t.reveal = alices[station_of(m + 1)].reveal()
    return t
