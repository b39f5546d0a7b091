"""Protocol logic: answers, agents, chain recovery, verification."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc.field import FieldSpec, NonInvertibleError
from relbc.protocol import (
    REJECT_ABORTED,
    REJECT_BIT_MISMATCH,
    REJECT_TIMING,
    REJECT_ZERO_CHALLENGE,
    ROLE_ALICE_SECRETS,
    AliceAgent,
    BLOCK_ROUNDS,
    ProtocolError,
    RevealMessage,
    SequencingError,
    Tape,
    bob_verify,
    honest_round_stream,
    honest_row_blocks,
    record_blocks,
    record_struct,
    run_honest_protocol,
    station_of,
)

from helpers import backward_chain, random_tapes, schoolbook_mul

S8 = FieldSpec(8)
S128 = FieldSpec(128)


def commit_answer(spec, x1, a1, d):
    """y_1 as A1 answers round 1 of a one-round commitment to `d`."""
    secrets = Tape(ROLE_ALICE_SECRETS, spec, [a1])
    return AliceAgent(1, spec, secrets, d, 1).handle_challenge(1, x1)


def sustain_answer(spec, xk, a_prev, ak):
    """y_2 = x_2 * a_1 XOR a_2 as A2 answers round 2 of a two-round run."""
    secrets = Tape(ROLE_ALICE_SECRETS, spec, [a_prev, ak])
    return AliceAgent(2, spec, secrets, 0, 2).handle_challenge(2, xk)


class TestCommitAnswer:
    def test_bit_zero_returns_secret(self):
        rng = random.Random(0)
        for _ in range(20):
            x, a = S128.random_int(rng), S128.random_int(rng)
            assert commit_answer(S128, x, a, 0) == a

    def test_bit_one_xors(self):
        assert commit_answer(S8, 0, 0x5A, 1) == 0x5A
        assert commit_answer(S8, 0x5A, 0x5A, 1) == 0
        assert commit_answer(S8, 0x53, 0xCA, 1) == 0x99

    def test_rejects_bad_bit(self):
        with pytest.raises(ProtocolError):
            commit_answer(S8, 1, 2, 2)


class TestSustainAnswer:
    def test_zero_prev_annihilates_product(self):
        rng = random.Random(1)
        x, ak = S128.random_int(rng), S128.random_int(rng)
        assert sustain_answer(S128, x, 0, ak) == ak

    def test_unit_challenge(self):
        rng = random.Random(2)
        prev, ak = S8.random_int(rng), S8.random_int(rng)
        assert sustain_answer(S8, 1, prev, ak) == prev ^ ak

    def test_matches_schoolbook_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            x, prev, ak = (S8.random_int(rng) for _ in range(3))
            assert sustain_answer(S8, x, prev, ak) == schoolbook_mul(x, prev, 8, 0x1B) ^ ak


class TestAgents:
    def test_out_of_order_alice(self):
        secrets, _ = random_tapes(S8, 6, seed=6)
        alice = AliceAgent(1, S8, secrets, 0, 6)
        alice.handle_challenge(1, 7)
        with pytest.raises(SequencingError):
            alice.handle_challenge(1, 7)

    def test_reveal_guards(self):
        secrets, _ = random_tapes(S8, 2, seed=7)
        alice = AliceAgent(1, S8, secrets, 1, 2)
        with pytest.raises(SequencingError):
            alice.reveal()  # before any round
        alice.handle_challenge(1, 3)
        msg = alice.reveal()
        assert msg == RevealMessage(1, secrets[1])
        with pytest.raises(SequencingError):
            alice.reveal()  # twice

    def test_reveal_station_follows_parity_of_m_plus_1(self):
        secrets, _ = random_tapes(S8, 1, seed=8)
        a1 = AliceAgent(1, S8, secrets, 0, 1)
        a2 = AliceAgent(2, S8, secrets, 0, 1)
        a1.handle_challenge(1, 9)
        with pytest.raises(SequencingError):
            a1.reveal()  # m+1 = 2 belongs to station 2
        assert a2.reveal().final_secret == secrets[0]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [S8, S128], ids=["n8", "n128"])
    @pytest.mark.parametrize("m", [1, 2, 9, 1000])
    @pytest.mark.parametrize("d", [0, 1])
    def test_honest_accepts_committed_bit(self, spec, m, d):
        for seed in (0, 1):
            secrets, challenges = random_tapes(spec, m, seed=seed)
            t = run_honest_protocol(spec, secrets, challenges, d)
            v = bob_verify(t)
            assert v.accepted and v.bit == d

    def test_station_parity_in_records(self):
        secrets, challenges = random_tapes(S8, 12, seed=9)
        t = run_honest_protocol(S8, secrets, challenges, 0)
        for rec in t.rounds:
            assert rec.station == (1 if rec.k % 2 else 2)

    def test_stream_matches_driver(self):
        secrets, challenges = random_tapes(S8, 10, seed=10)
        t = run_honest_protocol(S8, secrets, challenges, 1)
        stream = list(honest_round_stream(S8, secrets.elements, challenges.elements, 1, 10))
        assert [(r.k, r.challenge, r.answer) for r in stream] == \
            [(r.k, r.challenge, r.answer) for r in t.rounds]

    @pytest.mark.parametrize("m", [1, 256, 257, BLOCK_ROUNDS, BLOCK_ROUNDS + 1])
    def test_row_blocks_match_driver(self, m):
        """`honest_row_blocks` gives the driver's records packed in blocks
        of `BLOCK_ROUNDS`, reads no element past m, and returns a_m: for one
        round, a short block of whole and of partial 8-lane words, and
        either side of a block edge."""
        spec = FieldSpec(16)
        secrets, challenges = random_tapes(spec, m + 3, seed=m)
        t = run_honest_protocol(spec, Tape(ROLE_ALICE_SECRETS, spec, secrets.elements[:m]),
                                challenges, 0)
        it_a, it_x = iter(secrets.elements), iter(challenges.elements)
        gen = honest_row_blocks(spec, it_a, it_x, 0, m)
        blocks = []
        with pytest.raises(StopIteration) as stop:
            while True:
                blocks.append(next(gen))
        size = record_struct(2).size
        assert [len(b) for b in blocks[:-1]] == [BLOCK_ROUNDS * size] * (len(blocks) - 1)
        assert b"".join(blocks) == b"".join(record_blocks(t.rounds, 2))
        assert stop.value.value == t.reveal.final_secret
        assert next(it_a) == secrets[m] and next(it_x) == challenges[m]

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([8, 16, 32, 64, 128]), m=st.integers(1, 1100),
           d=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
    def test_round_stream_is_the_drivers(self, n, m, d, seed):
        """`honest_round_stream` yields `run_honest_protocol`'s records, for
        m on both sides of the 1024-round block edge."""
        spec = FieldSpec(n)
        secrets, challenges = random_tapes(spec, m, seed)
        t = run_honest_protocol(spec, secrets, challenges, d)
        assert list(honest_round_stream(spec, secrets.elements, challenges.elements,
                                        d, m)) == t.rounds

    @pytest.mark.parametrize("short", ["secrets", "challenge"])
    def test_short_source_is_protocol_error(self, short):
        full = [1, 2, 3, 4, 5]
        sources = {"secrets": full, "challenge": full, short: full[:3]}
        with pytest.raises(ProtocolError, match=f"{short} element source exhausted at 3/5"):
            list(honest_round_stream(S8, sources["secrets"], sources["challenge"], 1, 5))

    def test_source_ending_inside_an_answer_block(self):
        """A secrets source that ends at element 1100 of 1500, inside the
        second answer block, names the count it reached."""
        with pytest.raises(ProtocolError, match="secrets element source exhausted at 1100/1500"):
            list(honest_round_stream(S8, [1] * 1100, [1] * 1500, 1, 1500))

    def test_bad_bit_raises_on_call(self):
        with pytest.raises(ProtocolError):
            honest_row_blocks(S8, [1], [1], 2, 1)

    def test_short_blocks_leave_no_structs_behind(self):
        """Packing 40 short blocks of distinct lengths retains no struct of
        theirs. A struct of about 1000 n=128 records holds some 200 KiB, so
        keeping the 40 would retain about 8 MiB; the bound is 256 KiB."""
        recs = run_honest_protocol(S128, *random_tapes(S128, BLOCK_ROUNDS, 3), 0).rounds
        tracemalloc.start()
        try:
            for r in range(BLOCK_ROUNDS - 40, BLOCK_ROUNDS):
                packed = list(record_blocks(recs[:r], S128.element_bytes))
                assert len(packed) == 1
            del packed
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024

    def test_short_row_blocks_leave_no_structs_behind(self):
        """Answering and packing 40 runs of distinct short lengths retains
        no element struct or transpose masks of theirs. At n=128 a short
        block's column struct holds some 35 KiB and its three masks 48 KiB,
        so keeping them for every length would retain over 1 MiB; the bound
        is 256 KiB."""
        secrets, challenges = random_tapes(S128, BLOCK_ROUNDS, 4)
        tracemalloc.start()
        try:
            for m in range(BLOCK_ROUNDS - 40, BLOCK_ROUNDS):
                blocks = list(honest_row_blocks(S128, secrets.elements, challenges.elements,
                                                0, m))
                assert len(blocks) == 1
            del blocks
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, retained


class TestRecoverChain:
    """The paper's backward recursion (the `backward_chain` oracle the verifier
    is checked against) and the verdicts that follow from it."""

    def test_single_round_returns_reveal(self):
        secrets, challenges = random_tapes(S8, 1, seed=11)
        t = run_honest_protocol(S8, secrets, challenges, 0)
        assert backward_chain(S8, t.rounds, t.reveal.final_secret) == [0, secrets[0]]

    def test_five_round_roundtrip(self):
        secrets, challenges = random_tapes(S8, 5, seed=12)
        t = run_honest_protocol(S8, secrets, challenges, 1)
        assert backward_chain(S8, t.rounds, t.reveal.final_secret) == [1, *secrets.elements]

    def test_flipped_answer_changes_recovered_root(self):
        secrets, challenges = random_tapes(S8, 5, seed=13)
        t = run_honest_protocol(S8, secrets, challenges, 1)
        t.rounds[2].answer ^= 0x10
        assert backward_chain(S8, t.rounds, t.reveal.final_secret)[0] != 1
        assert bob_verify(t).reason == REJECT_BIT_MISMATCH

    def test_zero_challenge_unverifiable(self):
        secrets, challenges = random_tapes(S8, 4, seed=14)
        t = run_honest_protocol(S8, secrets, challenges, 1)
        t.rounds[1].challenge = 0
        with pytest.raises(NonInvertibleError):
            backward_chain(S8, t.rounds, t.reveal.final_secret)
        assert bob_verify(t).reason == REJECT_ZERO_CHALLENGE

    def test_incomplete_rejected(self):
        secrets, challenges = random_tapes(S8, 4, seed=15)
        t = run_honest_protocol(S8, secrets, challenges, 1)
        t.mark_aborted("deadline", 3)
        assert bob_verify(t).reason == REJECT_ABORTED


class TestBinding:
    """Single-field tampering must flip the verdict (2^-8 collision risk is
    dodged by fixed seeds known to reject)."""

    def _honest(self, seed, m=9, d=1):
        secrets, challenges = random_tapes(S8, m, seed=seed)
        return run_honest_protocol(S8, secrets, challenges, d)

    def test_flipped_claimed_bit(self):
        for seed in range(5):
            t = self._honest(seed)
            t.reveal = RevealMessage(t.reveal.bit ^ 1, t.reveal.final_secret)
            assert not bob_verify(t).accepted

    def test_tampered_answer(self):
        for seed in range(5):
            t = self._honest(seed)
            t.rounds[4].answer ^= 1
            assert bob_verify(t).reason == REJECT_BIT_MISMATCH

    def test_tampered_challenge(self):
        for seed in range(5):
            t = self._honest(seed)
            t.rounds[6].challenge ^= 0x40
            assert not bob_verify(t).accepted

    def test_tampered_reveal_secret(self):
        for seed in range(5):
            t = self._honest(seed)
            t.reveal = RevealMessage(t.reveal.bit, t.reveal.final_secret ^ 0x08)
            assert not bob_verify(t).accepted


class TestHiding:
    def test_commit_answer_bijective_in_secret(self):
        """For fixed x1 and either bit, a1 -> y1 is a bijection, so a uniform
        secret gives a uniform first answer."""
        for x1 in (0x00, 0x1D, 0xFF):
            for d in (0, 1):
                image = {commit_answer(S8, x1, a, d) for a in range(256)}
                assert image == set(range(256))


class TestTimingCheck:
    def test_late_round_rejected(self):
        secrets, challenges = random_tapes(S8, 4, seed=16)
        t = run_honest_protocol(S8, secrets, challenges, 0)
        t.tau1_ns = t.tau2_ns = 100
        t.rounds[2].answer_received_at = t.rounds[2].challenge_issued_at + 101
        assert bob_verify(t).reason == REJECT_TIMING

    def test_at_deadline_accepted(self):
        secrets, challenges = random_tapes(S8, 4, seed=17)
        t = run_honest_protocol(S8, secrets, challenges, 0)
        t.tau1_ns = t.tau2_ns = 100
        for rec in t.rounds:
            rec.answer_received_at = rec.challenge_issued_at + 100
        assert bob_verify(t).accepted


class TestTape:
    def test_zero_challenge_rejected(self):
        with pytest.raises(ProtocolError):
            Tape("bob-challenges", S8, [1, 0, 2])

    def test_zero_secret_allowed(self):
        Tape("alice-secrets", S8, [0, 1, 2])

    def test_unknown_role(self):
        with pytest.raises(ProtocolError):
            Tape("carol-hints", S8, [1])


def test_station_of():
    assert [station_of(k) for k in range(1, 6)] == [1, 2, 1, 2, 1]
