"""Wire framing and live loopback sessions."""

import dataclasses
import os
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from relbc.simnet import run_simulation
from relbc.field import FieldSpec
from relbc.protocol import (
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    AliceAgent,
    RoundRecord,
    station_of,
)
from relbc.storage import TapeReader, write_tape
from relbc.transport import (
    EXIT_ABORT,
    EXIT_ACCEPT,
    FRAME_ABORT,
    FRAME_ANSWER,
    FRAME_CHALLENGE,
    FRAME_HELLO,
    FRAME_RECORDS,
    FRAME_REVEAL,
    FRAME_SCHEDULE,
    FRAME_VERDICT,
    MalformedFrameError,
    SessionConfig,
    TransportError,
    WireFrame,
    decode_frame,
    encode_frame,
    run_agent,
    run_loopback_session,
)

from helpers import small_plan, stall_committer

ALL_TYPES = (FRAME_CHALLENGE, FRAME_ANSWER, FRAME_REVEAL, FRAME_ABORT,
             FRAME_HELLO, FRAME_SCHEDULE, FRAME_RECORDS, FRAME_VERDICT)


def lab_plan(m=20):
    """Raw t_Q = 26 us, tau = 10 us; at scale 1000 that is 26 ms / 10 ms."""
    return small_plan(m, n=128, tau=10e-6, t_m=1e-6,
                      L=(26e-6 / 2 + 1e-6 + 10e-6) * 299792458.0)


class TestFraming:
    def test_challenge_frame_size(self):
        frame = encode_frame(FRAME_CHALLENGE, 1, b"\x00" * 16)
        assert len(frame) == 4 + 1 + 8 + 16

    def test_roundtrip_100k_random_frames(self):
        rng = random.Random(0)
        for _ in range(100_000):
            ftype = rng.choice(ALL_TYPES)
            round_index = rng.randrange(0, 1 << 64)
            payload = rng.randbytes(rng.randrange(0, 64))
            wire = encode_frame(ftype, round_index, payload)
            frame = decode_frame(wire)
            assert frame == WireFrame(ftype, round_index, payload)

    def test_truncated_rejected(self):
        wire = encode_frame(FRAME_ANSWER, 3, b"abc")
        for cut in (0, 3, 7, len(wire) - 1):
            with pytest.raises(MalformedFrameError):
                decode_frame(wire[:cut])

    def test_oversize_and_undersize_rejected(self):
        import struct
        with pytest.raises(MalformedFrameError):
            decode_frame(struct.pack(">IBQ", 3, FRAME_ANSWER, 0))
        with pytest.raises(MalformedFrameError):
            decode_frame(struct.pack(">I", (1 << 25)) + b"\x00" * 16)

    def test_unknown_type_rejected(self):
        import struct
        wire = struct.pack(">IBQ", 9, 0x7F, 1)
        with pytest.raises(MalformedFrameError, match="0x7f"):
            decode_frame(wire)
        with pytest.raises(MalformedFrameError):
            encode_frame(0x7F, 1, b"")

    def test_trailing_bytes_rejected(self):
        wire = encode_frame(FRAME_HELLO, 0, b"x") + b"y"
        with pytest.raises(MalformedFrameError):
            decode_frame(wire)


class TestLoopback:
    def test_full_session_accepts(self, tmp_path):
        plan = lab_plan(m=20)
        results = run_loopback_session(plan, tmp_path, bit=1, scale_factor=1000,
                                       seed=11)
        for role in ("B1", "B2"):
            r = results[role]
            assert r.exit_code == EXIT_ACCEPT, (role, r.abort)
            assert r.verdict.accepted and r.verdict.bit == 1
            assert r.peer_agrees
        assert results["B1"].transcript_sha == results["B2"].transcript_sha
        assert results["A1"].exit_code == EXIT_ACCEPT
        assert results["A2"].exit_code == EXIT_ACCEPT

    def test_agents_share_one_cpu(self, tmp_path, monkeypatch):
        """All four agent threads run on one CPU; the caller's set is kept."""
        import relbc.transport as transport

        before = os.sched_getaffinity(0)
        seen = {}
        real_run_agent = transport.run_agent

        def recording_run_agent(cfg):
            seen[cfg.role] = os.sched_getaffinity(0)
            return real_run_agent(cfg)

        monkeypatch.setattr(transport, "run_agent", recording_run_agent)
        results = run_loopback_session(lab_plan(m=4), tmp_path, bit=0,
                                       scale_factor=1000, seed=13)
        assert sorted(seen) == ["A1", "A2", "B1", "B2"]
        assert all(s == {max(before)} for s in seen.values()), seen
        assert os.sched_getaffinity(0) == before
        assert results["B1"].exit_code == EXIT_ACCEPT, results["B1"].abort

    def test_delayed_committer_aborts_at_round(self, tmp_path, monkeypatch):
        plan = lab_plan(m=20)
        # round 7 is station 1; stall well past the scaled 5 ms deadline
        stall_committer(monkeypatch, station=1, k=7, seconds=0.1)
        results = run_loopback_session(plan, tmp_path, bit=0, scale_factor=1000,
                                       seed=12)
        b1 = results["B1"]
        assert b1.exit_code == EXIT_ABORT
        assert b1.abort.round_index == 7
        b2 = results["B2"]
        assert b2.exit_code == EXIT_ABORT
        assert b2.abort.round_index == 7
        # each verifier returns the rounds it holds, marked aborted at round 7
        for r, held in ((b1, [1, 3, 5]), (b2, [2, 4, 6])):
            assert r.transcript.status == "aborted"
            assert r.transcript.abort_round == 7
            assert [rec.k for rec in r.transcript.rounds] == held

    def test_transcript_matches_simulation_except_timestamps(self, tmp_path):
        """Same tapes + plan through the simulator and the live path give the
        same protocol content; only timestamps differ."""
        plan = lab_plan(m=12)
        spec = FieldSpec(plan.n)
        results = run_loopback_session(plan, tmp_path, bit=1, scale_factor=1000,
                                       seed=21)
        live = results["B1"].transcript
        from relbc.storage import TapeReader
        with TapeReader(tmp_path / "alice.tape") as ar, \
                TapeReader(tmp_path / "bob.tape") as xr:
            from relbc.protocol import Tape
            tapes = (Tape(ROLE_ALICE_SECRETS, spec, list(ar)),
                     Tape(ROLE_BOB_CHALLENGES, spec, list(xr)))
        sim, _ = run_simulation(plan, tapes=tapes, bit=1)
        assert [(r.k, r.station, r.challenge, r.answer) for r in live.rounds] == \
            [(r.k, r.station, r.challenge, r.answer) for r in sim.rounds]
        assert live.reveal == sim.reveal
        assert live.m == sim.m

    def test_short_tape_aborts_before_connecting(self, tmp_path):
        plan = lab_plan(m=10)
        spec = FieldSpec(plan.n)
        path = tmp_path / "short.tape"
        write_tape(path, spec, ROLE_ALICE_SECRETS, iter([1, 2, 3]), 3)
        cfg = SessionConfig(role="A1", plan=plan, secrets_path=path,
                            peers={"B1": ("127.0.0.1", 1)})
        result = run_agent(cfg)
        assert result.exit_code == EXIT_ABORT
        assert result.abort.reason == "tape"

    def test_plan_hash_mismatch_aborts_before_round_one(self, tmp_path):
        plan = lab_plan(m=8)
        other = lab_plan(m=10)
        spec = FieldSpec(plan.n)
        rng = random.Random(0)
        count = max(plan.m, other.m)
        secrets = [spec.random_int(rng) for _ in range(count)]
        challenges = [spec.random_int(rng, nonzero=True) for _ in range(count)]
        a_path, x_path = tmp_path / "a.tape", tmp_path / "x.tape"
        write_tape(a_path, spec, ROLE_ALICE_SECRETS, iter(secrets), len(secrets))
        write_tape(x_path, spec, ROLE_BOB_CHALLENGES, iter(challenges), len(challenges))

        lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lst.bind(("127.0.0.1", 0))
        lst.listen(2)
        addr = lst.getsockname()

        b1_cfg = SessionConfig(role="B1", plan=plan, challenges_path=x_path,
                               listen_socket=lst, io_timeout_s=5.0)
        a1_cfg = SessionConfig(role="A1", plan=other, secrets_path=a_path,
                               peers={"B1": addr}, io_timeout_s=5.0)
        out = {}

        def run(role, cfg):
            out[role] = run_agent(cfg)

        t1 = threading.Thread(target=run, args=("B1", b1_cfg), daemon=True)
        ta = threading.Thread(target=run, args=("A1", a1_cfg), daemon=True)
        t1.start(), ta.start()
        ta.join(20)
        t1.join(20)
        lst.close()
        assert out["A1"].exit_code == EXIT_ABORT
        assert out["A1"].abort.reason == "config"
        assert out["B1"].exit_code == EXIT_ABORT
        assert out["B1"].abort.reason == "config"


# -- hostile peer bytes ---------------------------------------------------------
# The payload parsers are reached through the module, so each test below fails
# on its own where a parser is missing or raises something else.

from relbc import transport as T  # noqa: E402

S8 = FieldSpec(8)
S128 = FieldSpec(128)


class TestMalformedPayloads:
    def test_hello_role_byte_out_of_range(self):
        for role_byte in (4, 0xFF):
            with pytest.raises(MalformedFrameError):
                T._parse_hello(bytes([role_byte]) + bytes(32))

    def test_records_empty(self):
        with pytest.raises(MalformedFrameError):
            T._parse_records(b"", S128)

    def test_records_over_counted(self):
        with pytest.raises(MalformedFrameError):
            T._parse_records(struct.pack(">I", 5), S128)

    def test_records_without_reveal_flag(self):
        with pytest.raises(MalformedFrameError):
            T._parse_records(struct.pack(">I", 0), S128)

    def test_records_trailing_bytes(self):
        good = T._records_payload([], S128, None, 0)
        assert T._parse_records(good, S128) == ([], None, 0)
        with pytest.raises(MalformedFrameError):
            T._parse_records(good + b"\x00", S128)

    def test_records_element_wider_than_field(self):
        """A record of n=16 elements does not fit an n=8 session's layout."""
        rec = RoundRecord(2, 2, 1 << 8, 0, 0, 0)
        with pytest.raises(MalformedFrameError):
            T._parse_records(T._records_payload([rec], FieldSpec(16), None, 0), S8)

    def test_verdict_short(self):
        with pytest.raises(MalformedFrameError):
            T._parse_verdict(b"\x01\x00")

    def test_verdict_reason_not_utf8(self):
        payload = struct.pack(">BB32sH", 0, 0xFF, bytes(32), 2) + b"\xff\xfe"
        with pytest.raises(MalformedFrameError):
            T._parse_verdict(payload)

    def test_schedule_not_eight_bytes(self):
        assert T._parse_schedule(struct.pack(">Q", 5)) == 5
        for size in (0, 7, 9):
            with pytest.raises(MalformedFrameError):
                T._parse_schedule(bytes(size))

    def test_element_of_wrong_length(self):
        """CHALLENGE and ANSWER payloads, and the element inside a REVEAL."""
        for size in (0, 15, 17):
            with pytest.raises(MalformedFrameError):
                T._parse_element(S128, bytes(size))
        with pytest.raises(MalformedFrameError):
            T._parse_reveal(S128, b"\x01" + bytes(15))

    def test_reveal_empty(self):
        with pytest.raises(MalformedFrameError):
            T._parse_reveal(S128, b"")


def _records_like(spec):
    """Payloads with a plausible RECORDS shape, so the property also reaches
    the flag and the reveal checks."""
    rec_size = T.record_struct(spec.element_bytes).size
    return st.integers(0, 3).flatmap(lambda count: st.builds(
        lambda body, tail: struct.pack(">I", count) + body + tail,
        st.binary(min_size=count * rec_size, max_size=count * rec_size),
        st.binary(max_size=2 * spec.element_bytes + 12)))


_PARSERS = {
    "decode_frame": decode_frame,
    "hello": lambda b: T._parse_hello(b),
    "schedule": lambda b: T._parse_schedule(b),
    "element": lambda b: T._parse_element(S8, b),
    "reveal": lambda b: T._parse_reveal(S8, b),
    "records": lambda b: T._parse_records(b, S8),
    "verdict": lambda b: T._parse_verdict(b),
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_PARSERS)),
       data=st.one_of(st.binary(max_size=80), _records_like(S8)))
def test_parsers_return_or_raise_malformed(name, data):
    try:
        _PARSERS[name](data)
    except MalformedFrameError:
        pass


def _tapes(tmp_path, plan):
    spec = FieldSpec(plan.n)
    rng = random.Random(1)
    a_path, x_path = tmp_path / "a.tape", tmp_path / "x.tape"
    write_tape(a_path, spec, ROLE_ALICE_SECRETS,
               iter([spec.random_int(rng) for _ in range(plan.m)]), plan.m)
    write_tape(x_path, spec, ROLE_BOB_CHALLENGES,
               iter([spec.random_int(rng, nonzero=True) for _ in range(plan.m)]), plan.m)
    return a_path, x_path


def _run_in_thread(cfg):
    """Start `run_agent(cfg)` in a daemon thread; its result lands in the
    returned dict under the role."""
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault(cfg.role, run_agent(cfg)),
                              daemon=True)
    thread.start()
    return thread, out


def test_fake_b1_short_schedule_aborts_b2(tmp_path):
    """A fake B1 shakes hands, then sends B2 a 7-byte SCHEDULE."""
    plan = lab_plan(m=8)
    _, x_path = _tapes(tmp_path, plan)
    fake_b1 = socket.create_server(("127.0.0.1", 0))
    b2_listener = socket.create_server(("127.0.0.1", 0))
    cfg = SessionConfig(role="B2", plan=plan, challenges_path=x_path,
                        listen_socket=b2_listener,
                        peers={"B1": fake_b1.getsockname()}, io_timeout_s=5.0)
    thread, out = _run_in_thread(cfg)
    hello = lambda role: T._hello_payload(role, plan.plan_hash)  # noqa: E731
    fake_b1.settimeout(5.0)
    b1_conn, _ = fake_b1.accept()
    assert T.recv_frame(b1_conn, T.time.monotonic_ns() + 5 * 10**9).type == FRAME_HELLO
    b1_conn.sendall(encode_frame(FRAME_HELLO, 0, hello("B1")))
    a2 = socket.create_connection(b2_listener.getsockname(), timeout=5.0)
    a2.sendall(encode_frame(FRAME_HELLO, 0, hello("A2")))
    assert T.recv_frame(a2, T.time.monotonic_ns() + 5 * 10**9).type == FRAME_HELLO
    b1_conn.sendall(encode_frame(FRAME_SCHEDULE, 0, bytes(7)))
    thread.join(20)
    assert not thread.is_alive()
    told = T.recv_frame(b1_conn, T.time.monotonic_ns() + 5 * 10**9)
    for s in (b1_conn, a2, fake_b1, b2_listener):
        s.close()
    result = out["B2"]
    assert result.exit_code == EXIT_ABORT
    assert result.abort.reason == "malformed-frame"
    assert told.type == FRAME_ABORT and told.payload == b"malformed-frame"


def test_silent_verifier_does_not_hold_committer(tmp_path):
    """A fake B1 at m=2 reads A1's reveal and then keeps the link open in
    silence; A1 counts the I/O timeout as completion instead of waiting
    for ever."""
    plan = lab_plan(m=2)
    a_path, _ = _tapes(tmp_path, plan)
    fake_b1 = socket.create_server(("127.0.0.1", 0))
    cfg = SessionConfig(role="A1", plan=plan, secrets_path=a_path,
                        peers={"B1": fake_b1.getsockname()}, io_timeout_s=1.0)
    thread, out = _run_in_thread(cfg)
    deadline = lambda: T.time.monotonic_ns() + 5 * 10**9  # noqa: E731
    fake_b1.settimeout(5.0)
    conn, _ = fake_b1.accept()
    assert T.recv_frame(conn, deadline()).type == FRAME_HELLO
    conn.sendall(encode_frame(FRAME_HELLO, 0, T._hello_payload("B1", plan.plan_hash)))
    conn.sendall(encode_frame(FRAME_CHALLENGE, 1, FieldSpec(plan.n).encode(3)))
    assert T.recv_frame(conn, deadline()).type == FRAME_ANSWER
    assert T.recv_frame(conn, deadline()).type == FRAME_REVEAL
    thread.join(10)
    alive = thread.is_alive()
    for s in (conn, fake_b1):
        s.close()
    assert not alive, "A1 still waits on a silent verifier"
    assert out["A1"].exit_code == EXIT_ACCEPT


@pytest.mark.parametrize("rounds", [[3], [1, 1]], ids=["round-3-first", "round-1-twice"])
def test_committer_refuses_a_challenge_out_of_order(tmp_path, rounds):
    """A fake B1 at m=4 sends A1 CHALLENGE frames for `rounds`, the last one
    out of order. Over the wire the round index comes from the peer, so A1
    answers the frames in order and ends with a `protocol` abort at the
    faulty one, without answering it."""
    plan = lab_plan(m=4)
    a_path, _ = _tapes(tmp_path, plan)
    fake_b1 = socket.create_server(("127.0.0.1", 0))
    cfg = SessionConfig(role="A1", plan=plan, secrets_path=a_path,
                        peers={"B1": fake_b1.getsockname()}, io_timeout_s=5.0)
    thread, out = _run_in_thread(cfg)
    deadline = lambda: T.time.monotonic_ns() + 5 * 10**9  # noqa: E731
    fake_b1.settimeout(5.0)
    conn, _ = fake_b1.accept()
    assert T.recv_frame(conn, deadline()).type == FRAME_HELLO
    conn.sendall(encode_frame(FRAME_HELLO, 0, T._hello_payload("B1", plan.plan_hash)))
    x = FieldSpec(plan.n).encode(3)
    *in_order, faulty = rounds
    for k in in_order:
        conn.sendall(encode_frame(FRAME_CHALLENGE, k, x))
        answer = T.recv_frame(conn, deadline())
        assert (answer.type, answer.round_index) == (FRAME_ANSWER, k)
    conn.sendall(encode_frame(FRAME_CHALLENGE, faulty, x))
    thread.join(10)
    alive = thread.is_alive()
    conn.settimeout(5.0)
    rest = b""
    while chunk := conn.recv(4096):  # everything A1 sent before it closed
        rest += chunk
    for s in (conn, fake_b1):
        s.close()
    assert not alive
    assert rest == b"", "A1 answered the out-of-order challenge"
    assert out["A1"].exit_code == EXIT_ABORT
    assert out["A1"].abort.reason == "protocol"


def test_peer_without_listener_is_a_connection_abort(tmp_path):
    """A committer whose verifier never listens ends, once its connect
    window closes, with a typed `connection` abort and not a usage error."""
    plan = lab_plan(m=4)
    a_path, _ = _tapes(tmp_path, plan)
    with socket.create_server(("127.0.0.1", 0)) as closed:
        addr = closed.getsockname()  # nothing listens there once it closes
    result = run_agent(SessionConfig(role="A1", plan=plan, secrets_path=a_path,
                                     peers={"B1": addr}, io_timeout_s=0.3))
    assert result.exit_code == EXIT_ABORT
    assert result.abort.reason == "connection"


def test_odd_m_session_accepts(tmp_path):
    """With m odd the reveal is round m+1 at station 2: B2 carries it in its
    RECORDS and both verifiers accept the same transcript."""
    plan = dataclasses.replace(lab_plan(m=12), m=11)
    results = run_loopback_session(plan, tmp_path, bit=1, scale_factor=1000, seed=31)
    for role in ("B1", "B2"):
        r = results[role]
        assert r.exit_code == EXIT_ACCEPT, (role, r.abort)
        assert r.verdict.accepted and r.verdict.bit == 1
        assert r.peer_agrees
    assert results["B1"].transcript_sha == results["B2"].transcript_sha
    assert results["A2"].exit_code == EXIT_ACCEPT


def test_session_refuses_fewer_than_two_rounds():
    plan = dataclasses.replace(lab_plan(m=8), m=1)
    for role in ("A2", "B1"):
        with pytest.raises(TransportError, match="m >= 2"):
            SessionConfig(role=role, plan=plan)


def test_unexpected_peer_role_aborts_b1(tmp_path):
    """A connection whose HELLO names a role B1 does not accept (A2) ends B1
    with a config abort instead of an exception out of run_agent."""
    plan = lab_plan(m=8)
    _, x_path = _tapes(tmp_path, plan)
    b1_listener = socket.create_server(("127.0.0.1", 0))
    cfg = SessionConfig(role="B1", plan=plan, challenges_path=x_path,
                        listen_socket=b1_listener, io_timeout_s=5.0)
    thread, out = _run_in_thread(cfg)
    intruder = socket.create_connection(b1_listener.getsockname(), timeout=5.0)
    intruder.sendall(encode_frame(FRAME_HELLO, 0, T._hello_payload("A2", plan.plan_hash)))
    thread.join(20)
    assert not thread.is_alive()
    intruder.close()
    b1_listener.close()
    assert out["B1"].exit_code == EXIT_ABORT
    assert out["B1"].abort.reason == "config"


def test_abort_in_place_of_hello_ends_b1_with_its_reason(tmp_path):
    """A connector that answers the HELLO exchange with ABORT `config` ends
    B1 with that reason, as any received ABORT does."""
    plan = lab_plan(m=8)
    _, x_path = _tapes(tmp_path, plan)
    b1_listener = socket.create_server(("127.0.0.1", 0))
    thread, out = _run_in_thread(SessionConfig(
        role="B1", plan=plan, challenges_path=x_path, listen_socket=b1_listener,
        io_timeout_s=5.0))
    peer = socket.create_connection(b1_listener.getsockname(), timeout=5.0)
    peer.sendall(encode_frame(FRAME_ABORT, 0, b"config"))
    thread.join(20)
    assert not thread.is_alive()
    peer.close()
    b1_listener.close()
    assert out["B1"].exit_code == EXIT_ABORT
    assert out["B1"].abort.reason == "config"


@pytest.mark.parametrize("junk", [encode_frame(FRAME_VERDICT, 0, bytes(35)),
                                  struct.pack(">I", 3)],
                         ids=["verdict-frame", "bad-length-header"])
def test_peer_verifier_junk_between_rounds_is_malformed(tmp_path, junk):
    """A fake B2 shakes hands and then sends B1 something other than an
    ABORT before the fake A1 connects. B1 ends with malformed-frame before
    round 1, instead of dropping the bytes and running on, and tells A1."""
    plan = lab_plan(m=8)
    _, x_path = _tapes(tmp_path, plan)
    b1_listener = socket.create_server(("127.0.0.1", 0))
    thread, out = _run_in_thread(SessionConfig(
        role="B1", plan=plan, challenges_path=x_path, listen_socket=b1_listener,
        io_timeout_s=5.0))
    deadline = lambda: T.time.monotonic_ns() + 5 * 10**9  # noqa: E731
    peers = {}
    for role, after_hello in (("B2", junk), ("A1", b"")):
        sock = peers[role] = socket.create_connection(b1_listener.getsockname(), timeout=5.0)
        sock.sendall(encode_frame(FRAME_HELLO, 0, T._hello_payload(role, plan.plan_hash))
                     + after_hello)
        assert T.recv_frame(sock, deadline()).type == FRAME_HELLO
    thread.join(20)
    assert not thread.is_alive()
    told = T.recv_frame(peers["A1"], deadline())
    for s in (*peers.values(), b1_listener):
        s.close()
    assert out["B1"].exit_code == EXIT_ABORT
    assert out["B1"].abort.reason == "malformed-frame"
    assert told == WireFrame(FRAME_ABORT, 0, b"malformed-frame")


@pytest.mark.parametrize("m, when", [(4, "in-round-m"), (5, "in-round-m"),
                                     (4, "after-last-answer")])
def test_early_reveal_aborts_both_verifiers(tmp_path, m, when):
    """A fake committer at the station that hosts round m+1 answers its
    rounds honestly over a real socket, then sends the reveal before round
    m+1 opens: 2 ms into round m, or right after its last answer. Its
    verifier ends with `early-reveal` at round m+1 and announces it on both
    links, so the other verifier ends the same way, as the simulator does."""
    plan = dataclasses.replace(lab_plan(m=m + m % 2), m=m)
    a_path, x_path = _tapes(tmp_path, plan)
    s = station_of(m + 1)
    listeners = {role: socket.create_server(("127.0.0.1", 0)) for role in ("B1", "B2")}
    addr = {role: lst.getsockname() for role, lst in listeners.items()}
    common = dict(plan=plan, bit=1, io_timeout_s=5.0)
    runs = [_run_in_thread(SessionConfig(role="B1", challenges_path=x_path,
                                         listen_socket=listeners["B1"], **common)),
            _run_in_thread(SessionConfig(role="B2", challenges_path=x_path,
                                         listen_socket=listeners["B2"],
                                         peers={"B1": addr["B1"]}, **common)),
            _run_in_thread(SessionConfig(role=f"A{3 - s}", secrets_path=a_path,
                                         peers={f"B{3 - s}": addr[f"B{3 - s}"]}, **common))]
    deadline = lambda: T.time.monotonic_ns() + 5 * 10**9  # noqa: E731
    spec = FieldSpec(plan.n)
    sock = socket.create_connection(addr[f"B{s}"], timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as a live committer
    sock.sendall(encode_frame(FRAME_HELLO, 0, T._hello_payload(f"A{s}", plan.plan_hash)))
    assert T.recv_frame(sock, deadline()).type == FRAME_HELLO
    with TapeReader(a_path) as tape:
        alice = AliceAgent(s, spec, tape, 1, m)
        for k in range(s, m, 2):
            frame = T.recv_frame(sock, deadline())
            assert (frame.type, frame.round_index) == (FRAME_CHALLENGE, k)
            arrived = T.time.monotonic_ns()
            y = alice.handle_challenge(k, T._parse_element(spec, frame.payload))
            sock.sendall(encode_frame(FRAME_ANSWER, k, spec.encode(y)))
        if when == "in-round-m":
            T._sleep_until_ns(arrived + 1000 * (plan.round_start_ns(m)
                                                - plan.round_start_ns(m - 1)) + 2_000_000)
        sock.sendall(encode_frame(FRAME_REVEAL, m + 1, T._reveal_payload(spec, alice.reveal())))
    try:
        told = T.recv_frame(sock, deadline())
    except ConnectionError:  # the verifier closed the link without an ABORT
        told = None
    for thread, _ in runs:
        thread.join(20)
    alive = [thread for thread, _ in runs if thread.is_alive()]
    for lst in (sock, *listeners.values()):
        lst.close()
    assert not alive
    for role in ("B1", "B2"):
        [result] = [out[role] for _, out in runs if role in out]
        assert result.exit_code == EXIT_ABORT, (role, result.abort)
        assert (result.abort.reason, result.abort.round_index) == ("early-reveal", m + 1)
    assert told == WireFrame(FRAME_ABORT, m + 1, b"early-reveal")
