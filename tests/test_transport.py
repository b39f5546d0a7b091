"""Wire framing and live loopback sessions."""

import contextlib
import dataclasses
import os
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from relbc.simnet import (
    HONEST,
    LATE_DECISION,
    WRONG_BIT_REVEAL,
    AdversaryStrategy,
    ClockModel,
    run_simulation,
)
from relbc.field import FieldSpec
from relbc.protocol import (
    ABORT_DEADLINE,
    ABORT_EARLY_REVEAL,
    ABORT_MISMATCH,
    REJECT_BIT_MISMATCH,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    AliceAgent,
    RevealMessage,
    RoundRecord,
    Tape,
    Verdict,
    bob_verify,
    station_of,
)
from relbc.storage import TapeReader, write_tape
from relbc.transport import (
    EXIT_ABORT,
    EXIT_ACCEPT,
    EXIT_REJECT,
    FRAME_ABORT,
    FRAME_ANSWER,
    FRAME_CHALLENGE,
    FRAME_HELLO,
    FRAME_RECORDS,
    FRAME_REVEAL,
    FRAME_SCHEDULE,
    FRAME_VERDICT,
    MAX_FRAME_PAYLOAD,
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

    def test_trickled_frame_times_out_at_deadline(self):
        """A peer that sends a frame one byte every 30 ms cannot stretch the
        wait past the deadline: each recv waits only for what is left."""
        wire = encode_frame(FRAME_ANSWER, 1, b"\x00" * 16)
        ours, theirs = socket.socketpair()
        stop = threading.Event()

        def trickle():
            for i in range(len(wire)):
                if stop.wait(0.03):
                    return
                try:
                    theirs.sendall(wire[i:i + 1])
                except OSError:
                    return

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            start = time.monotonic_ns()
            with pytest.raises(TimeoutError):
                T.recv_frame(ours, start + 100_000_000)
            assert time.monotonic_ns() - start < 100_000_000 + 50_000_000
        finally:
            stop.set()
            sender.join(5)
            ours.close()
            theirs.close()
        assert not sender.is_alive()


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

    def test_zero_challenge_aborts_both_verifiers_as_tape(self, tmp_path, monkeypatch):
        """A zero challenge on the tape (element 6, round 7) is a tape fault:
        each verifier meets it at its first read of the block that holds it
        and ends as `tape`, announced to its peers, instead of crashing."""
        import relbc.storage as storage

        real_generate_tape = storage.generate_tape

        def generate_with_zero(plan, role, path, seed=None):
            count = real_generate_tape(plan, role, path, seed=seed)
            if role == ROLE_BOB_CHALLENGES:
                eb, data = plan.n // 8, bytearray(path.read_bytes())
                at = len(data) - (count - 6) * eb
                data[at:at + eb] = bytes(eb)
                path.write_bytes(bytes(data))
            return count

        monkeypatch.setattr(storage, "generate_tape", generate_with_zero)
        results = run_loopback_session(small_plan(20, n=128), tmp_path, seed=5)
        assert {role: r.exit_code for role, r in results.items()} == \
            dict.fromkeys(("A1", "A2", "B1", "B2"), EXIT_ABORT)
        for role in ("B1", "B2"):
            assert results[role].abort.reason == "tape"
            assert "challenge element 6 is zero" in results[role].abort.detail

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

    def test_verdict_accepted_byte_not_0_or_1(self):
        for accepted in (2, 0xFF):
            with pytest.raises(MalformedFrameError, match="accepted byte"):
                T._parse_verdict(struct.pack(">BB32sH", accepted, 0, bytes(32), 0))

    def test_verdict_accepts_a_bit_not_0_or_1(self):
        good = T._verdict_payload(Verdict.accept(1), bytes(32))
        assert T._parse_verdict(good) == (Verdict.accept(1), bytes(32))
        for bit in (2, 0xFF):
            with pytest.raises(MalformedFrameError, match="accepts bit"):
                T._parse_verdict(struct.pack(">BB32sH", 1, bit, bytes(32), 0))

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
    """A fake B1 shakes hands, then sends B2 a 7-byte SCHEDULE. B2 reads it
    before it accepts A2, and ends at once."""
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
    b1_conn.sendall(encode_frame(FRAME_SCHEDULE, 0, bytes(7)))
    thread.join(20)
    assert not thread.is_alive()
    told = T.recv_frame(b1_conn, T.time.monotonic_ns() + 5 * 10**9)
    for s in (b1_conn, fake_b1, b2_listener):
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


def test_session_refuses_a_plan_too_long_for_one_records_frame(monkeypatch):
    """Each verifier sends its half of the rounds, and the reveal if it holds
    it, in one RECORDS frame. A plan whose larger half would not fit in
    MAX_FRAME_PAYLOAD bytes is refused before any link, exactly when one of
    the two payloads `_records_payload` builds would be too large."""
    base = lab_plan(m=8)
    with monkeypatch.context() as patch:
        patch.setattr(T, "MAX_FRAME_PAYLOAD", 400)
        for m in range(2, 20):
            plan = dataclasses.replace(base, m=m)
            halves = [T._records_payload(
                [RoundRecord(k, s, 1, 1, 0, 0) for k in range(s, m + 1, 2)], S128,
                RevealMessage(0, 1) if station_of(m + 1) == s else None, 0) for s in (1, 2)]
            if max(map(len, halves)) > 400:
                with pytest.raises(TransportError, match="400-byte frame limit"):
                    SessionConfig(role="B1", plan=plan)
            else:
                SessionConfig(role="B1", plan=plan)
    # at n=128 a record is 57 bytes and the reveal 25: m=588,673 gives B1
    # 294,337 records in 16,777,214 bytes; m=588,674 adds the reveal
    assert MAX_FRAME_PAYLOAD == 1 << 24
    SessionConfig(role="A1", plan=dataclasses.replace(base, m=588_673))
    for role in ("A1", "B2"):
        with pytest.raises(TransportError, match="16777239 bytes"):
            SessionConfig(role=role, plan=dataclasses.replace(base, m=588_674))


def test_verifiers_that_disagree_on_the_bit_abort(tmp_path, monkeypatch):
    """A peer VERDICT over the same transcript that accepts the other bit is
    a disagreement, not an agreement on `accepted`: both verifiers end as
    `transcript-mismatch`."""
    real_parse = T._parse_verdict

    def other_bit(payload):
        verdict, sha = real_parse(payload)
        return (Verdict.accept(verdict.bit ^ 1) if verdict.accepted else verdict), sha

    monkeypatch.setattr(T, "_parse_verdict", other_bit)
    results = run_loopback_session(lab_plan(m=4), tmp_path, bit=1, scale_factor=1000, seed=41)
    for role in ("B1", "B2"):
        r = results[role]
        assert r.exit_code == EXIT_ABORT, (role, r.abort)
        assert r.abort.reason == ABORT_MISMATCH
        assert r.verdict == Verdict.accept(1) and r.peer_agrees is False
    assert results["B1"].transcript_sha == results["B2"].transcript_sha


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


def _live_session(tmp_path, plan, fake_station=None, late_roles=(), delay_s=0.0):
    """Real B1 and B2 on loopback, and a real committer at each station but
    `fake_station`, whose committer the caller plays over the socket this
    returns (None without one). The `late_roles` start `delay_s` after the
    others. Returns the socket, the tape paths and the runs."""
    a_path, x_path = _tapes(tmp_path, plan)
    listeners = {role: socket.create_server(("127.0.0.1", 0)) for role in ("B1", "B2")}
    addr = {role: lst.getsockname() for role, lst in listeners.items()}
    common = dict(plan=plan, bit=1, io_timeout_s=5.0)
    cfgs = {"B1": SessionConfig(role="B1", challenges_path=x_path,
                                listen_socket=listeners["B1"], **common),
            "B2": SessionConfig(role="B2", challenges_path=x_path,
                                listen_socket=listeners["B2"], peers={"B1": addr["B1"]},
                                **common)}
    for s in (1, 2):
        if s != fake_station:
            cfgs[f"A{s}"] = SessionConfig(role=f"A{s}", secrets_path=a_path,
                                          peers={f"B{s}": addr[f"B{s}"]}, **common)
    runs = [_run_in_thread(cfg) for role, cfg in cfgs.items() if role not in late_roles]
    if late_roles:
        time.sleep(delay_s)
        runs += [_run_in_thread(cfgs[role]) for role in late_roles]
    sock = None
    if fake_station is not None:
        sock = socket.create_connection(addr[f"B{fake_station}"], timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as a live committer
        sock.sendall(encode_frame(FRAME_HELLO, 0,
                                  T._hello_payload(f"A{fake_station}", plan.plan_hash)))
        assert T.recv_frame(sock, T.time.monotonic_ns() + 5 * 10**9).type == FRAME_HELLO
    return sock, (a_path, x_path), runs, list(listeners.values())


def _finish(runs, sockets):
    """Join the agent threads, close `sockets`, and return each role's result."""
    for thread, _ in runs:
        thread.join(20)
    alive = [thread for thread, _ in runs if thread.is_alive()]
    for sock in sockets:
        sock.close()
    assert not alive
    return {role: result for _, out in runs for role, result in out.items()}


SCALE = 1000
GAP_NS = 13_000   # lab_plan's round interval; tau is 10_000 at both stations
LATE_NS = 1_000   # how far past its window a late answer or reveal is sent


@dataclasses.dataclass(frozen=True)
class Fault:
    """One committer fault, played by the simulator and by a fake committer
    over the wire, and the outcome both must reach: the abort's (round,
    reason), or the verdict. Times are plan ns, scaled by SCALE live."""

    m: int
    expect: tuple[int, str] | Verdict
    late: int = 0           # the round answered LATE_NS past its window
    silent: int = 0         # the round never answered
    reveal_ns: int = 0      # when the reveal is sent, from round m+1's opening
    flip_bit: bool = False  # the reveal claims the other bit

    @property
    def station(self) -> int:
        return station_of(self.late or self.silent or self.m + 1)


FAULTS = {
    "late-answer": Fault(4, (3, ABORT_DEADLINE), late=3),
    "no-answer": Fault(4, (2, ABORT_DEADLINE), silent=2),
    "early-reveal-in-round-m": Fault(4, (5, ABORT_EARLY_REVEAL), reveal_ns=2_000 - GAP_NS),
    "early-reveal-in-round-m-odd": Fault(5, (6, ABORT_EARLY_REVEAL), reveal_ns=2_000 - GAP_NS),
    "early-reveal-after-last-answer": Fault(4, (5, ABORT_EARLY_REVEAL), reveal_ns=-2 * GAP_NS),
    "late-reveal": Fault(5, (6, ABORT_DEADLINE), reveal_ns=10_000 + LATE_NS),
    "wrong-bit-reveal": Fault(4, Verdict.reject(REJECT_BIT_MISMATCH), flip_bit=True),
}


def _simulated_outcome(plan, fault, a_path, x_path):
    """The fault as the simulator plays it: a late-decision answer for a late
    or missing one, and the committer's clock offset for the reveal time."""
    if fault.late or fault.silent:
        margin = -LATE_NS if fault.late else -10**15
        strategy = AdversaryStrategy(LATE_DECISION, fault.late or fault.silent, margin)
    else:
        strategy = AdversaryStrategy(WRONG_BIT_REVEAL if fault.flip_bit else HONEST)
    spec = FieldSpec(plan.n)
    with TapeReader(a_path) as ar, TapeReader(x_path) as xr:
        tapes = (Tape(ROLE_ALICE_SECRETS, spec, list(ar)),
                 Tape(ROLE_BOB_CHALLENGES, spec, list(xr)))
    t, rep = run_simulation(plan, clocks={f"A{fault.station}": ClockModel(-fault.reveal_ns)},
                            strategy=strategy, tapes=tapes, bit=1)
    return (rep.abort_round, rep.abort_reason) if rep.aborted else bob_verify(t)


def _play_committer(sock, plan, fault, a_path):
    """Committer A{fault.station} over `sock`: answers its rounds from the
    tape but for the fault, and returns the last frame its verifier sends it
    (None at EOF). A late send to a verifier that has already closed is let go."""
    spec, m, s = FieldSpec(plan.n), plan.m, fault.station
    deadline = lambda: T.time.monotonic_ns() + 5 * 10**9  # noqa: E731

    def send(ftype, k, payload):
        with contextlib.suppress(OSError):
            sock.sendall(encode_frame(ftype, k, payload))

    with TapeReader(a_path) as tape:
        alice = AliceAgent(s, spec, tape, 1, m)
        for k in range(s, m + 1, 2):
            frame = T.recv_frame(sock, deadline())
            assert (frame.type, frame.round_index) == (FRAME_CHALLENGE, k)
            arrived = T.time.monotonic_ns()
            y = alice.handle_challenge(k, T._parse_element(spec, frame.payload))
            if k == fault.silent:
                break
            if k == fault.late:
                T._sleep_until_ns(arrived + SCALE * (plan.tau1_ns + LATE_NS))
            send(FRAME_ANSWER, k, spec.encode(y))
            if k == fault.late:
                break
        else:  # every own round answered: the reveal, when this station hosts it
            if station_of(m + 1) == s:
                reveal = alice.reveal()
                if fault.flip_bit:
                    reveal = RevealMessage(reveal.bit ^ 1, reveal.final_secret)
                T._sleep_until_ns(arrived + SCALE * (plan.round_start_ns(m + 1)
                                                     - plan.round_start_ns(k) + fault.reveal_ns))
                send(FRAME_REVEAL, m + 1, T._reveal_payload(spec, reveal))
    try:
        return T.recv_frame(sock, deadline())
    except ConnectionError:  # the verifier closed the link without an ABORT
        return None


@pytest.mark.parametrize("name", FAULTS)
def test_simulator_and_live_session_agree_on_fault(tmp_path, name):
    """Each fault of the table runs once through `run_simulation` and once
    through a live session at scale 1000, where a fake committer at the
    fault's station talks to the real B1 and B2 over sockets. The simulator
    and both verifiers end with the same (round, reason), or the same
    verdict, and an abort is announced to the fake committer on its link."""
    fault = FAULTS[name]
    plan = dataclasses.replace(lab_plan(m=fault.m + fault.m % 2), m=fault.m)
    assert plan.round_start_ns(2) - plan.round_start_ns(1) == GAP_NS
    assert plan.tau1_ns == plan.tau2_ns == 10_000
    sock, (a_path, x_path), runs, listeners = _live_session(tmp_path, plan, fault.station)
    told = _play_committer(sock, plan, fault, a_path)
    results = _finish(runs, [sock, *listeners])
    assert _simulated_outcome(plan, fault, a_path, x_path) == fault.expect
    for role in ("B1", "B2"):
        r = results[role]
        outcome = (r.abort.round_index, r.abort.reason) if r.abort else r.verdict
        assert outcome == fault.expect, (role, r.abort)
    if isinstance(fault.expect, tuple):
        k, reason = fault.expect
        assert told == WireFrame(FRAME_ABORT, k, reason.encode())
    else:
        assert told is None
        assert results["B1"].exit_code == results["B2"].exit_code == EXIT_REJECT


def test_late_committer_does_not_move_station_2(tmp_path):
    """A2 starts 150 ms after B1, B2 and A1. B2 reads B1's SCHEDULE before it
    accepts A2, so station 2 still issues on B1's schedule: in the merged
    transcript, round 2's issue time less its scaled start agrees with round
    1's to within half of A2's delay."""
    delay_s = 0.15
    plan = lab_plan(m=20)
    _, _, runs, listeners = _live_session(tmp_path, plan, late_roles=("A2",),
                                          delay_s=delay_s)
    results = _finish(runs, listeners)
    # each verifier's transcript: the merged one, or its own half if it aborted
    offset = {rec.k: rec.challenge_issued_at - SCALE * plan.round_start_ns(rec.k)
              for role in ("B1", "B2") for rec in results[role].transcript.rounds}
    assert abs(offset[2] - offset[1]) <= delay_s * 1e9 / 2, offset[2] - offset[1]
    for role in ("B1", "B2"):
        assert results[role].exit_code == EXIT_ACCEPT, (role, results[role].abort)
    assert results["B1"].transcript_sha == results["B2"].transcript_sha
