"""Live mode: the four agents exchange the protocol over framed byte streams
with real clocks and deadline enforcement.

Frame layout (lengths big-endian):

    length  u32   bytes after this field (= 9 + payload size)
    type    u8    0x01 CHALLENGE  0x02 ANSWER   0x03 REVEAL  0x04 ABORT
                  0x05 HELLO      0x06 SCHEDULE 0x07 RECORDS 0x08 VERDICT
    round   u64   round index (0 for HELLO/SCHEDULE)
    payload       type-dependent, see below

CHALLENGE/ANSWER carry exactly one element (n/8 bytes, little-endian bit
order); REVEAL is one bit byte plus the final secret. RECORDS and VERDICT
carry the post-reveal verifier-to-verifier exchange: each verifier sends its
transcript half, both assemble the same transcript, verify independently,
and cross-check the serialized transcript byte-for-byte (by hash) along with
the verdict.

All deadline decisions use time.monotonic_ns(); wall-clock adjustments
cannot forge timeliness. Light-cone gaps at field scale (microseconds over
kilometers) are not reachable on commodity hosts, so a session scales
every plan time by `scale_factor` (default 1000), preserving all ratios;
the transcript records the factor so audits scale alongside.

Topology: A1 and B2's link both terminate at B1's listener; A2 connects to
B2's listener. Each end of a new link sends its HELLO (role and plan hash)
and then reads the peer's, so neither side waits for the other to speak
first; a plan-hash mismatch is answered with ABORT `config`. B1 picks the
session epoch and ships it to B2 in a SCHEDULE frame, which B2 reads before
it accepts A2, so a late committer cannot move station 2's schedule. Both
verifiers run the same `_run_bob`; only these two steps depend on the
station. A verifier reads x_k = challenges[k - 1] from its `TapeReader`;
the committer's `AliceAgent` refuses a round index out of order.

The reveal is round m+1, so it lands at station `station_of(m + 1)`: B1
for even m, B2 for odd m. That station's committer sends it, its verifier
puts it in its RECORDS payload (reveal flag 1), and the other verifier takes
it from there. A session needs m >= 2, so that the revealing committer has a
round of its own to time the reveal from. As in the simulator, one arrival
rule, `protocol.arrival_fault`, judges every answer and the reveal; one
that misses its window, late or never, ends the session as `deadline`, and
a reveal read before round m+1 opens as `early-reveal`, on both links.

Every byte a peer sends goes through `decode_frame` and one `_parse_*`
function, which raise `MalformedFrameError` on any layout fault (an ABORT
reason is decoded with replacement and cannot fail). Every frame an agent
waits for goes through `_Session.expect`, the one place a received ABORT
ends the role, and every early end reaches `run_agent` (see there),
a fault in a role's tape included: a `StorageError`, met at the first read
of the tape block that holds it, ends the role as `tape`. The abort reasons
are `protocol`'s table.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass, field as dfield
from pathlib import Path

from .field import FieldError, FieldSpec
from .planner import ProtocolPlan
from .protocol import (
    ABORT_CONFIG,
    ABORT_CONNECTION,
    ABORT_DEADLINE,
    ABORT_MALFORMED,
    ABORT_MISMATCH,
    ABORT_PROTOCOL,
    ABORT_TAPE,
    AliceAgent,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    ProtocolError,
    RevealMessage,
    RoundRecord,
    Transcript,
    Verdict,
    arrival_fault,
    bob_verify,
    record_blocks,
    record_struct,
    station_of,
    unpack_records,
)
from .storage import StorageError, TapeReader, transcript_to_bytes

FRAME_CHALLENGE = 0x01
FRAME_ANSWER = 0x02
FRAME_REVEAL = 0x03
FRAME_ABORT = 0x04
FRAME_HELLO = 0x05
FRAME_SCHEDULE = 0x06
FRAME_RECORDS = 0x07
FRAME_VERDICT = 0x08

_FRAME_NAMES = {FRAME_CHALLENGE: "CHALLENGE", FRAME_ANSWER: "ANSWER", FRAME_REVEAL: "REVEAL",
                FRAME_ABORT: "ABORT", FRAME_HELLO: "HELLO", FRAME_SCHEDULE: "SCHEDULE",
                FRAME_RECORDS: "RECORDS", FRAME_VERDICT: "VERDICT"}

MAX_FRAME_PAYLOAD = 1 << 24

_HEAD = struct.Struct(">IBQ")  # length, type, round
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_VERDICT = struct.Struct(">BB32sH")  # accepted, bit, transcript sha256, reason length

ROLES = ("A1", "A2", "B1", "B2")

EXIT_ACCEPT = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_REJECT = 3


class TransportError(Exception):
    pass


class MalformedFrameError(TransportError):
    """A peer's bytes violate the wire layout or the frame order; carries
    the faulting byte offset within the frame."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _bad_payload(message: str, pos: int) -> MalformedFrameError:
    """Malformed payload, with `pos` counted from the start of the payload."""
    return MalformedFrameError(message, _HEAD.size + pos)


@dataclass(frozen=True)
class WireFrame:
    type: int
    round_index: int
    payload: bytes


def encode_frame(ftype: int, round_index: int, payload: bytes = b"") -> bytes:
    if ftype not in _FRAME_NAMES:
        raise MalformedFrameError(f"unknown frame type 0x{ftype:02x}", 4)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise MalformedFrameError(f"payload too large: {len(payload)}", 0)
    return _HEAD.pack(9 + len(payload), ftype, round_index) + payload


def decode_frame(data: bytes) -> WireFrame:
    """Decode one complete frame; rejects truncation, oversize, unknown type."""
    if len(data) < 4:
        raise MalformedFrameError("truncated before length field", len(data))
    (length,) = _U32.unpack_from(data)
    if length < 9:
        raise MalformedFrameError(f"length {length} below fixed fields", 0)
    if length > 9 + MAX_FRAME_PAYLOAD:
        raise MalformedFrameError(f"length {length} exceeds maximum", 0)
    if len(data) != 4 + length:
        raise MalformedFrameError(
            f"frame is {len(data)} bytes, header promises {4 + length}",
            min(len(data), 4 + length),
        )
    ftype = data[4]
    if ftype not in _FRAME_NAMES:
        raise MalformedFrameError(f"unknown frame type 0x{ftype:02x}", 4)
    (round_index,) = _U64.unpack_from(data, 5)
    return WireFrame(ftype, round_index, data[13:])


def send_frame(sock: socket.socket, ftype: int, round_index: int,
               payload: bytes = b"") -> None:
    sock.sendall(encode_frame(ftype, round_index, payload))


def _recv_exact(sock: socket.socket, size: int, deadline_ns: int) -> bytes:
    """`size` bytes from `sock`; each recv may wait only for what is left
    before `deadline_ns`, so a peer that trickles bytes cannot hold it open."""
    buf = bytearray()
    while len(buf) < size:
        remaining = deadline_ns - time.monotonic_ns()
        if remaining <= 0:
            raise TimeoutError(f"deadline passed after {len(buf)} of {size} bytes")
        sock.settimeout(remaining / 1e9)
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket, deadline_ns: int) -> WireFrame:
    """Read one frame; raises TimeoutError once monotonic_ns passes
    `deadline_ns`, however the frame's bytes arrive."""
    head = _recv_exact(sock, 4, deadline_ns)
    (length,) = _U32.unpack(head)
    if length < 9 or length > 9 + MAX_FRAME_PAYLOAD:
        raise MalformedFrameError(f"bad frame length {length}", 0)
    return decode_frame(head + _recv_exact(sock, length, deadline_ns))


@dataclass
class AbortReport:
    reason: str
    round_index: int | None = None
    detail: str = ""


class _Abort(Exception):
    """Ends a role early; `run_agent` returns its one argument, an
    AbortReport, with EXIT_ABORT."""


@dataclass
class AgentResult:
    role: str
    exit_code: int
    transcript: Transcript | None = None
    verdict: Verdict | None = None
    abort: AbortReport | None = None
    transcript_sha: str | None = None
    peer_agrees: bool | None = None


@dataclass
class SessionConfig:
    """Everything one agent process needs to run its role."""

    role: str
    plan: ProtocolPlan
    scale_factor: int = 1000
    bit: int = 0                          # committer roles only
    secrets_path: str | Path | None = None
    challenges_path: str | Path | None = None
    listen: tuple[str, int] | None = None
    listen_socket: socket.socket | None = None   # pre-bound (tests)
    peers: dict[str, tuple[str, int]] = dfield(default_factory=dict)
    start_delay_s: float = 0.3
    io_timeout_s: float = 10.0

    def __post_init__(self):
        if self.role not in ROLES:
            raise TransportError(f"unknown role {self.role!r}")
        if self.scale_factor < 1:
            raise TransportError("scale factor must be >= 1")
        if self.plan.m < 2:
            raise TransportError(
                f"a live session needs m >= 2 rounds, got m={self.plan.m}: the "
                "revealing committer times the reveal from its own last round")
        # each verifier sends its half in one RECORDS frame; station 1's is the
        # larger: (m + 1) // 2 rounds, and the reveal when m is even
        half = _records_size((self.plan.m + 1) // 2, self.plan.n // 8, self.plan.m % 2 == 0)
        if half > MAX_FRAME_PAYLOAD:
            raise TransportError(f"m={self.plan.m} rounds need a RECORDS frame of {half} "
                                 f"bytes, above the {MAX_FRAME_PAYLOAD}-byte frame limit")


def _sleep_until_ns(target_ns: int) -> int:
    """Sleep to roughly `target_ns` (monotonic); returns the wakeup time.

    Plain sleeps only: a busy tail would starve the peer threads of the
    loopback harness. Sub-millisecond wakeup error is absorbed by the scaled
    deadlines. It polls, sleeping half the time left, rather than sleep once
    to the target: a lone single sleep wakes sooner, but in loopback sessions
    it widened the spread of issue times and the verifiers' turnaround tail.
    """
    while True:
        now = time.monotonic_ns()
        delta = target_ns - now
        if delta <= 0:
            return now
        time.sleep(min(delta / 2e9, 0.05) if delta > 1_000_000 else 2e-4)


# -- payloads -------------------------------------------------------------------


def _hello_payload(role: str, plan_hash: str) -> bytes:
    return ROLES.index(role).to_bytes(1, "big") + bytes.fromhex(plan_hash)


def _parse_hello(payload: bytes) -> tuple[str, str]:
    if len(payload) != 33:
        raise _bad_payload(f"HELLO payload must be 33 bytes, got {len(payload)}", 0)
    if payload[0] >= len(ROLES):
        raise _bad_payload(f"unknown role byte {payload[0]}", 0)
    return ROLES[payload[0]], payload[1:].hex()


def _parse_schedule(payload: bytes) -> int:
    """Nanoseconds from receipt to the session epoch."""
    if len(payload) != _U64.size:
        raise _bad_payload(f"SCHEDULE payload must be 8 bytes, got {len(payload)}", 0)
    return _U64.unpack(payload)[0]


def _parse_element(spec: FieldSpec, data: bytes, pos: int = 0) -> int:
    try:
        return spec.decode(data)
    except FieldError as exc:
        raise _bad_payload(str(exc), pos) from None


def _reveal_payload(spec: FieldSpec, reveal: RevealMessage) -> bytes:
    return bytes([reveal.bit]) + spec.encode(reveal.final_secret)


def _parse_reveal(spec: FieldSpec, data: bytes, pos: int = 0) -> RevealMessage:
    if not data:
        raise _bad_payload("empty reveal", pos)
    return RevealMessage(data[0], _parse_element(spec, data[1:], pos + 1))


def _records_payload(records: list[RoundRecord], spec: FieldSpec,
                     reveal: RevealMessage | None, reveal_at: int) -> bytes:
    out = _U32.pack(len(records)) + b"".join(record_blocks(records, spec.element_bytes))
    if reveal is None:
        return out + b"\x00"
    return out + b"\x01" + _reveal_payload(spec, reveal) + _I64.pack(reveal_at)


def _records_size(count: int, eb: int, with_reveal: bool) -> int:
    """Bytes of a RECORDS payload of `count` records and, if `with_reveal`,
    the reveal and its receipt time."""
    return _U32.size + count * record_struct(eb).size + 1 + with_reveal * (1 + eb + _I64.size)


def _parse_records(payload: bytes, spec: FieldSpec) -> tuple[list[RoundRecord], RevealMessage | None, int]:
    """A peer's RECORDS: count, that many records, a reveal flag byte and,
    when the flag is 1, the reveal and its receipt time. Nothing may trail."""
    eb, size = spec.element_bytes, len(payload)
    if size < _U32.size + 1:
        raise _bad_payload(f"RECORDS payload of {size} bytes is truncated", size)
    (count,) = _U32.unpack_from(payload)
    flag_at = _U32.size + count * record_struct(eb).size
    if flag_at >= size:
        raise _bad_payload(f"RECORDS count {count} overruns the payload", size)
    flag = payload[flag_at]
    if flag > 1:
        raise _bad_payload(f"reveal flag {flag} is neither 0 nor 1", flag_at)
    end = _records_size(count, eb, flag)
    if size != end:
        raise _bad_payload(f"RECORDS payload is {size} bytes, its layout {end}",
                           min(size, end))
    records = unpack_records(payload[_U32.size:flag_at], eb)
    if not flag:
        return records, None, 0
    reveal = _parse_reveal(spec, payload[flag_at + 1:end - _I64.size], flag_at + 1)
    return records, reveal, _I64.unpack_from(payload, end - _I64.size)[0]


def _verdict_payload(verdict: Verdict, sha: bytes) -> bytes:
    reason = (verdict.reason or "").encode()
    bit = verdict.bit if verdict.bit is not None else 0xFF
    return _VERDICT.pack(int(verdict.accepted), bit, sha, len(reason)) + reason


def _parse_verdict(payload: bytes) -> tuple[Verdict, bytes]:
    if len(payload) < _VERDICT.size:
        raise _bad_payload(f"VERDICT payload of {len(payload)} bytes is truncated",
                           len(payload))
    accepted, bit, sha, reason_len = _VERDICT.unpack_from(payload)
    if accepted > 1:
        raise _bad_payload(f"VERDICT accepted byte {accepted} is neither 0 nor 1", 0)
    if accepted and bit > 1:
        raise _bad_payload(f"VERDICT accepts bit {bit}, which is neither 0 nor 1", 1)
    if len(payload) != _VERDICT.size + reason_len:
        raise _bad_payload(f"VERDICT reason is {len(payload) - _VERDICT.size} bytes, "
                           f"its length field {reason_len}", _VERDICT.size)
    try:
        reason = payload[_VERDICT.size:].decode()
    except UnicodeDecodeError as exc:
        raise _bad_payload("VERDICT reason is not UTF-8", _VERDICT.size + exc.start) from None
    if accepted:
        return Verdict.accept(bit), sha
    return Verdict.reject(reason or "unknown"), sha


# -- session plumbing -------------------------------------------------------------


class _Session:
    """State shared by one agent's serial protocol loop. A verifier keeps
    the rounds and the reveal it holds here, so that `run_agent` can return
    them when the role ends early."""

    def __init__(self, cfg: SessionConfig):
        self.cfg = cfg
        self.plan = cfg.plan
        self.spec = FieldSpec(self.plan.n)
        self.scale = cfg.scale_factor
        self.station = int(cfg.role[1])
        self.m = self.plan.m
        self.hosts_reveal = station_of(self.m + 1) == self.station
        tau = self.plan.tau1_ns if self.station == 1 else self.plan.tau2_ns
        self.tau_ns = tau * self.scale   # this station's scaled answer deadline
        self.sockets: dict[str, socket.socket] = {}
        self.listener: socket.socket | None = None
        self.tape: TapeReader | None = None
        self.epoch_ns: int | None = None
        self.records: list[RoundRecord] = []   # own rounds, then the peer's
        self.reveal: RevealMessage | None = None
        self.reveal_at = 0

    def start_ns(self, k: int) -> int:
        return self.plan.round_start_ns(k) * self.scale

    def expect(self, sock: socket.socket, ftype: int, on_abort: str,
               detail: str = "") -> WireFrame:
        """The next frame, within the session's I/O timeout, which must be of
        type `ftype`. A received ABORT ends the role with the ABORT's reason,
        or `on_abort` when it gives none; any other type is malformed."""
        frame = recv_frame(sock, time.monotonic_ns() + int(self.cfg.io_timeout_s * 1e9))
        if frame.type == FRAME_ABORT:
            raise _Abort(AbortReport(frame.payload.decode(errors="replace") or on_abort,
                                     frame.round_index or None, detail))
        if frame.type != ftype:
            raise MalformedFrameError(
                f"expected {_FRAME_NAMES[ftype]}, got {_FRAME_NAMES[frame.type]}", 4)
        return frame

    def transcript(self, aborted: AbortReport | None = None) -> Transcript:
        """The rounds and reveal this verifier holds, in round order. An
        aborted transcript carries no reveal, is marked at the abort round and
        holds no later round: one this station ran before a peer verifier's
        ABORT reached it is dropped."""
        t = Transcript(
            spec=self.spec,
            m=self.m,
            tau1_ns=self.plan.tau1_ns * self.scale,
            tau2_ns=self.plan.tau2_ns * self.scale,
            rounds=sorted(self.records, key=lambda r: r.k),
            plan_hash=self.plan.plan_hash,
            scale_factor=self.scale,
        )
        if aborted is None:
            t.reveal, t.reveal_received_at = self.reveal, self.reveal_at
        else:
            t.rounds = [r for r in t.rounds if r.k <= (aborted.round_index or self.m)]
            t.mark_aborted(aborted.reason, aborted.round_index or 0)
        return t

    def close(self) -> None:
        owned = [self.listener] if self.cfg.listen_socket is None else []
        for s in [*self.sockets.values(), *owned, self.tape]:
            try:
                if s is not None:
                    s.close()
            except OSError:
                pass


def _connect(addr: tuple[str, int], timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    last_err: Exception | None = None
    while time.monotonic() < deadline:
        try:
            s = socket.create_connection(addr, timeout=1.0)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return s
        except OSError as exc:
            last_err = exc
            time.sleep(0.02)
    raise ConnectionError(f"cannot connect to {addr}: {last_err}")


def _send_abort(socks: Iterable[socket.socket], reason: str,
                round_index: int) -> None:
    """Announce an abort on each of `socks`; a link already gone is skipped."""
    frame = encode_frame(FRAME_ABORT, round_index, reason.encode())
    for sock in socks:
        try:
            sock.sendall(frame)
        except OSError:
            pass


def _handshake(ses: _Session, sock: socket.socket) -> str:
    """Send this role's HELLO, then read the peer's; returns the peer role.
    A peer ABORT or a plan-hash mismatch ends the role; the mismatch is
    answered with ABORT `config`."""
    send_frame(sock, FRAME_HELLO, 0, _hello_payload(ses.cfg.role, ses.plan.plan_hash))
    role, plan_hash = _parse_hello(ses.expect(sock, FRAME_HELLO, ABORT_CONFIG).payload)
    if plan_hash != ses.plan.plan_hash:
        _send_abort([sock], ABORT_CONFIG, 0)
        raise _Abort(AbortReport(ABORT_CONFIG, None, "plan hash mismatch"))
    return role


def _connect_peer(ses: _Session, role: str) -> socket.socket:
    """Connect to `role` and exchange HELLOs."""
    addr = ses.cfg.peers.get(role)
    if addr is None:
        raise TransportError(f"{ses.cfg.role} needs the address of {role}")
    sock = ses.sockets[role] = _connect(addr, ses.cfg.io_timeout_s)
    _handshake(ses, sock)
    return sock


def _take_peer_abort(ses: _Session, sock: socket.socket) -> None:
    """Between rounds, end the role if the peer verifier has aborted.
    Nothing pending, or EOF, lets the round go ahead. The peer sends nothing
    but ABORT before RECORDS, so any other frame is malformed."""
    sock.setblocking(False)
    try:
        pending = sock.recv(4, socket.MSG_PEEK)
    except OSError:  # nothing pending, or the link is gone
        return
    finally:
        sock.setblocking(True)
    if pending:
        ses.expect(sock, FRAME_ABORT, ABORT_DEADLINE, "peer abort")


def _load_tape(ses: _Session) -> TapeReader:
    """This role's tape: the secrets for a committer, the challenges for a
    verifier. A tape of the other role or of another field is refused; one
    shorter than m ends the role before it connects."""
    kind, path = ((ROLE_BOB_CHALLENGES, ses.cfg.challenges_path) if ses.cfg.role[0] == "B"
                  else (ROLE_ALICE_SECRETS, ses.cfg.secrets_path))
    if path is None:
        raise TransportError(f"{ses.cfg.role} needs a {kind} tape")
    ses.tape = TapeReader(path)
    if ses.tape.role != kind:
        raise TransportError(f"{path} is a {ses.tape.role} tape; "
                             f"{ses.cfg.role} needs a {kind} tape")
    if ses.tape.count < ses.m:
        raise _Abort(AbortReport(ABORT_TAPE, None, f"{kind} tape too short"))
    if ses.tape.spec != ses.spec:
        raise TransportError(f"{kind} tape field does not match the plan")
    return ses.tape


def run_agent(cfg: SessionConfig) -> AgentResult:
    """Run one agent role to completion; see module docstring for topology.

    This is where every early end of a role turns into EXIT_ABORT with its
    cause: a peer ABORT, a missed deadline, a dropped or timed-out link, a
    malformed frame or a fault in the role's tape (each also announced to
    the other peers with an ABORT), or an out-of-sequence round. A
    verifier's result carries the transcript it holds, marked aborted.
    """
    ses = _Session(cfg)
    try:
        return _run_bob(ses) if cfg.role[0] == "B" else _run_alice(ses)
    except _Abort as exc:
        (report,) = exc.args
    except (ConnectionError, TimeoutError) as exc:
        report = AbortReport(ABORT_CONNECTION, None, str(exc))
    except (MalformedFrameError, StorageError) as exc:
        reason = ABORT_TAPE if isinstance(exc, StorageError) else ABORT_MALFORMED
        report = AbortReport(reason, None, str(exc))
        _send_abort(ses.sockets.values(), reason, 0)
    except ProtocolError as exc:
        report = AbortReport(ABORT_PROTOCOL, None, str(exc))
    finally:
        ses.close()
    transcript = ses.transcript(report) if cfg.role[0] == "B" else None
    return AgentResult(cfg.role, EXIT_ABORT, transcript=transcript, abort=report)


# -- committer side ---------------------------------------------------------


def _run_alice(ses: _Session) -> AgentResult:
    agent = AliceAgent(ses.station, ses.spec, _load_tape(ses), ses.cfg.bit, ses.m)
    sock = _connect_peer(ses, f"B{ses.station}")
    last_round = ses.m if station_of(ses.m) == ses.station else ses.m - 1
    while True:
        frame = ses.expect(sock, FRAME_CHALLENGE, ABORT_DEADLINE)
        k = frame.round_index
        x = _parse_element(ses.spec, frame.payload)
        last_recv_ns = time.monotonic_ns()
        send_frame(sock, FRAME_ANSWER, k, ses.spec.encode(agent.handle_challenge(k, x)))
        if k == last_round:
            break
    if ses.hosts_reveal:
        # self-schedule the reveal one schedule interval after the last
        # own-round challenge arrived
        _sleep_until_ns(last_recv_ns + ses.start_ns(ses.m + 1) - ses.start_ns(ses.m - 1))
        send_frame(sock, FRAME_REVEAL, ses.m + 1, _reveal_payload(ses.spec, agent.reveal()))
    # wait for the verifier's outcome: an ABORT, or EOF (or silence past the
    # I/O timeout) on completion; the verifier sends nothing else here
    try:
        ses.expect(sock, FRAME_ABORT, ABORT_DEADLINE)
    except (ConnectionError, TimeoutError):
        pass
    return AgentResult(ses.cfg.role, EXIT_ACCEPT)


# -- verifier side ------------------------------------------------------------


def _bob_listener(ses: _Session) -> socket.socket:
    if ses.cfg.listen_socket is not None:
        return ses.cfg.listen_socket
    if ses.cfg.listen is None:
        raise TransportError(f"{ses.cfg.role} needs a listen address")
    try:
        return socket.create_server(ses.cfg.listen, backlog=2)
    except OSError as exc:
        host, port = ses.cfg.listen
        raise TransportError(f"{ses.cfg.role} cannot listen on {host}:{port}: {exc}") from exc


def _accept_role(ses: _Session, expect: set[str]) -> None:
    """Accept connections until each expected peer has said HELLO."""
    ses.listener.settimeout(ses.cfg.io_timeout_s)
    while not expect <= set(ses.sockets):
        conn, _ = ses.listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        role = _handshake(ses, conn)
        if role not in expect or role in ses.sockets:
            conn.close()
            raise _Abort(AbortReport(ABORT_CONFIG, None, f"unexpected peer {role}"))
        ses.sockets[role] = conn


def _bob_round_loop(ses: _Session, alice_sock: socket.socket,
                    bob_link: socket.socket, challenges: TapeReader) -> None:
    """Issue this station's challenges on schedule, then, at the station that
    hosts round m+1, wait for the reveal. The records and the reveal go to
    `ses`; an arrival that `arrival_fault` faults, or none within tau, is
    announced over both links and ends the role."""
    steps = list(range(ses.station, ses.m + 1, 2))
    if ses.hosts_reveal:
        steps.append(ses.m + 1)
    for k in steps:
        start = ses.epoch_ns + ses.start_ns(k)
        if k <= ses.m:
            x = challenges[k - 1]
            _sleep_until_ns(start)
            # an abort the peer verifier sent while this station slept stops
            # the challenge from going out
            _take_peer_abort(ses, bob_link)
            start = time.monotonic_ns()
            send_frame(alice_sock, FRAME_CHALLENGE, k, ses.spec.encode(x))
            expect, what = FRAME_ANSWER, "answer"
        else:
            expect, what = FRAME_REVEAL, "reveal"
        try:
            frame = recv_frame(alice_sock, start + ses.tau_ns)
        except TimeoutError:
            frame = None
        received = time.monotonic_ns()
        if frame is None or frame.type != expect or frame.round_index != k:
            fault, detail = ABORT_DEADLINE, f"no {what} within tau"
        else:
            if k <= ses.m:
                y = _parse_element(ses.spec, frame.payload)
                ses.records.append(RoundRecord(k, ses.station, x, y, start, received))
            else:
                ses.reveal, ses.reveal_at = _parse_reveal(ses.spec, frame.payload), received
            # an answer's start is its send, so only the reveal can be early
            fault = arrival_fault(start, received, ses.tau_ns, k > ses.m)
            detail = f"{what} at {received - start:+d} ns from round {k}'s opening"
        if fault:
            _send_abort(ses.sockets.values(), fault, k)
            raise _Abort(AbortReport(fault, k, detail))


def _run_bob(ses: _Session) -> AgentResult:
    """One verifier, B1 or B2: the module docstring says which links it
    makes and which way the reveal travels in RECORDS. The halves are
    merged, verified, and byte-compared with the peer's outcome."""
    challenges = _load_tape(ses)
    ses.listener = _bob_listener(ses)
    if ses.station == 1:
        _accept_role(ses, {"A1", "B2"})
        bob_link = ses.sockets["B2"]
        ses.epoch_ns = time.monotonic_ns() + int(ses.cfg.start_delay_s * 1e9)
        send_frame(bob_link, FRAME_SCHEDULE, 0, _U64.pack(ses.epoch_ns - time.monotonic_ns()))
    else:
        bob_link = _connect_peer(ses, "B1")
        frame = ses.expect(bob_link, FRAME_SCHEDULE, ABORT_CONFIG)
        ses.epoch_ns = time.monotonic_ns() + _parse_schedule(frame.payload)
        _accept_role(ses, {"A2"})
    _bob_round_loop(ses, ses.sockets[f"A{ses.station}"], bob_link, challenges)

    send_frame(bob_link, FRAME_RECORDS, 0,
               _records_payload(ses.records, ses.spec, ses.reveal, ses.reveal_at))
    frame = ses.expect(bob_link, FRAME_RECORDS, ABORT_DEADLINE, "peer abort")
    theirs, peer_reveal, peer_reveal_at = _parse_records(frame.payload, ses.spec)
    ses.records += theirs
    if not ses.hosts_reveal:
        ses.reveal, ses.reveal_at = peer_reveal, peer_reveal_at

    transcript = ses.transcript()
    verdict = bob_verify(transcript)
    sha = hashlib.sha256(transcript_to_bytes(transcript)).digest()
    send_frame(bob_link, FRAME_VERDICT, 0, _verdict_payload(verdict, sha))
    peer_verdict, peer_sha = _parse_verdict(
        ses.expect(bob_link, FRAME_VERDICT, ABORT_MISMATCH).payload)
    if peer_sha != sha or peer_verdict != verdict:
        report = AbortReport(ABORT_MISMATCH, None, "verifiers disagree")
        return AgentResult(ses.cfg.role, EXIT_ABORT, transcript=transcript,
                           verdict=verdict, transcript_sha=sha.hex(),
                           peer_agrees=False, abort=report)
    code = EXIT_ACCEPT if verdict.accepted else EXIT_REJECT
    return AgentResult(ses.cfg.role, code, transcript=transcript, verdict=verdict,
                       transcript_sha=sha.hex(), peer_agrees=True)


def run_loopback_session(plan: ProtocolPlan, tape_dir: str | Path, bit: int = 0,
                         scale_factor: int = 1000, seed: int = 0) -> dict[str, AgentResult]:
    """Convenience harness: generate tapes, run all four agents in threads on
    loopback sockets, return each role's result. Used by tests and the demo.

    The agent threads run on one CPU. They share the GIL, so they never run
    Python in parallel; on one CPU each challenge or answer wakes its reader
    with a local context switch. On a virtual machine, waking a thread on an
    idle second vCPU waits for the host to schedule that vCPU. On a 2-vCPU
    VM, m=200 sessions at scale 1000 run after two seconds of load on both
    vCPUs missed the 10 ms deadline in 5 of 12 sessions on two CPUs and in
    none of 12 on one.
    """
    import os
    import threading

    from .storage import generate_tape

    tape_dir = Path(tape_dir)
    tape_dir.mkdir(parents=True, exist_ok=True)
    secrets_path = tape_dir / "alice.tape"
    challenges_path = tape_dir / "bob.tape"
    generate_tape(plan, "alice-secrets", secrets_path, seed=seed)
    generate_tape(plan, "bob-challenges", challenges_path, seed=seed + 1)

    listeners = {role: socket.create_server(("127.0.0.1", 0), backlog=2)
                 for role in ("B1", "B2")}
    addrs = {role: lst.getsockname() for role, lst in listeners.items()}

    def cfg_for(role: str) -> SessionConfig:
        common = dict(plan=plan, scale_factor=scale_factor, bit=bit)
        if role == "B1":
            return SessionConfig(role=role, challenges_path=challenges_path,
                                 listen_socket=listeners["B1"], **common)
        if role == "B2":
            return SessionConfig(role=role, challenges_path=challenges_path,
                                 listen_socket=listeners["B2"],
                                 peers={"B1": addrs["B1"]}, **common)
        return SessionConfig(role=role, secrets_path=secrets_path,
                             peers={f"B{role[1]}": addrs[f"B{role[1]}"]}, **common)

    results: dict[str, AgentResult] = {}
    errors: dict[str, BaseException] = {}

    try:
        cpus = {max(os.sched_getaffinity(0))}
    except (AttributeError, OSError):
        cpus = None

    def runner(role: str) -> None:
        try:
            if cpus is not None:
                os.sched_setaffinity(0, cpus)   # this thread only, on Linux
            results[role] = run_agent(cfg_for(role))
        except BaseException as exc:  # surfaced to the caller below
            errors[role] = exc

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in ("B1", "B2", "A1", "A2")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for lst in listeners.values():
        lst.close()
    if errors:
        role, exc = next(iter(errors.items()))
        raise TransportError(f"{role} crashed: {exc!r}") from exc
    if len(results) != 4:
        raise TransportError(f"agents did not finish: {sorted(results)}")
    return results
