"""Tape/transcript files: round-trips, streaming access, forward verify."""

import hashlib
import io
import random
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbc.field import FieldSpec
from relbc.protocol import (
    BLOCK_ROUNDS,
    REJECT_ABORTED,
    REJECT_BIT_MISMATCH,
    REJECT_TIMING,
    ProtocolError,
    bob_verify,
    run_honest_protocol,
)
from relbc.storage import (
    PlanHashMismatchError,
    StorageError,
    TapeFormatError,
    TapeReader,
    TranscriptFormatError,
    generate_honest_transcript_file,
    generate_tape,
    read_transcript,
    read_transcript_header,
    transcript_to_bytes,
    verify_file,
    write_tape,
    write_transcript,
    write_transcript_stream,
)

from helpers import random_tapes, small_plan, with_header_field

S8 = FieldSpec(8)
S16 = FieldSpec(16)
S128 = FieldSpec(128)

# (table width a file is written at, width and polynomial its header then
# names): a spare-bit width, a polynomial other than the table's, and a
# reducible one (x^8 + 1 = (x + 1)^8)
OUTSIDE_TABLE = pytest.mark.parametrize("width, n, poly", [
    (16, 12, 0x9), (128, 128, 0x85), (8, 8, 0x01)], ids=["n12", "n128-0x85", "n8-0x01"])

# sha256 of `generate_honest_transcript_file` output by (n, m): tapes drawn
# from random.Random(1000 * n + m), secrets then challenges, bit m & 1
GENERATION_GOLDEN = {
    (8, 1): "756957bb2c53306c70f87703483f11bc6892d96881104b6450ed96abc3ca1084",
    (8, 255): "e93038eae31ea7a1c7d48e9a8af4a2e233974cf20331aa13bea9a8122d9d7c9c",
    (8, 256): "8c1d2687b0bbbcc979bd3f230dece61c02c95047c782c7e7df86e67852993216",
    (8, 257): "adb26941be45828843c908367453fca918b705701020293d859621def377ab60",
    (8, 1000): "b2d75947000500904704b39f3350970bef863c62eccbb8f42bf37f7239a839d1",
    (128, 1): "9cb62e92e74a712268dd06c103b27f569e0302cbd62986894662eafafd5864f1",
    (128, 255): "a4422217f5f8d417dc3448ef48b32741d69d16494368ec8bde68908a866d5433",
    (128, 256): "2f03ae87b6928f0b4521627e4c4a88d5109db4f1fa6bee197341d0eefc477773",
    (128, 257): "c17110d6f3e2bf7750f451180c46916793a8a2e28c8b9f7d9519669b36f984d1",
    (128, 1000): "ab7ac92f06b6e3fd8304f1069b65f3aef3d336e0d92fdf4007cb67777066fc40",
}

# sha256 of `generate_tape`'s file for a TAPE_GOLDEN_M-element tape by (n,
# role): the seed it was drawn from and the digest. The n=8 challenge seed
# redraws 20 zero elements and the n=16 one redraws one.
TAPE_GOLDEN_M = 5000
TAPE_GOLDEN = {
    (8, "alice-secrets"): (8001, "b6c84e5df3a22a4e287907bbfa5252e22531c2775f134b41f2d2d346cf646b71"),
    (8, "bob-challenges"): (8010, "202ed3dd0d4f8aa827f021c62ba29863376209cf910503ee2c82c941dfc843c8"),
    (16, "alice-secrets"): (16001, "89e6fb830b398793d676140b8ef00655c0b7bc739d6f8238b0a318da7583418b"),
    (16, "bob-challenges"): (16006, "b40833fca4e0f2688bf10b713bdd7816e8e2cc5749c0b1176257eed8db015288"),
    (32, "alice-secrets"): (32001, "bc597be6b1e95a8e3919a146300b4565d081735e87dce77fe7ac26913361a797"),
    (32, "bob-challenges"): (32002, "c1d4b3cc4f1631fd6cf78fd1a7e3cb1e4e37975c9774d360aa6e2cd3c00ab4bf"),
    (64, "alice-secrets"): (64001, "192681ddbecb17f9c53bf82e9f2d89d25e286b1ad5a62804f96cc73f5b6b2394"),
    (64, "bob-challenges"): (64002, "3dd4301dd5844b1e8ffa0522ca7a13d52897e6a2e18a30ea96914b410774f3e4"),
    (128, "alice-secrets"): (128001, "c60eafac1f95c255d19c5e6ffdd736db121208aba5830de0740e743e01ccf4a5"),
    (128, "bob-challenges"): (128002, "adc3e4a45c513d11c87b875721bf024d8b205db82ccdb7a6fde0816b8e520f0b"),
}


def _zero_redraws(n: int, seed: int, count: int) -> int:
    """How many zero draws a seeded stream of `count` nonzero n-bit
    elements skips, drawn one `getrandbits(n)` at a time."""
    rng, zeros, kept = random.Random(seed), 0, 0
    while kept < count:
        if rng.getrandbits(n):
            kept += 1
        else:
            zeros += 1
    return zeros


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 16, 32, 64, 128]), st.sampled_from(["alice-secrets", "bob-challenges"]),
       st.integers(0, 2**64 - 1),
       st.one_of(st.integers(0, 300),
                 st.sampled_from([BLOCK_ROUNDS - 1, BLOCK_ROUNDS, BLOCK_ROUNDS + 1,
                                  2 * BLOCK_ROUNDS + 2])))
def test_generated_tape_is_the_random_int_stream(tmp_path_factory, n, role, seed, count):
    """A seeded tape's body is the encodings of one `random_int` call per
    element, nonzero for challenges, on either side of the `BLOCK_ROUNDS`
    block boundaries."""
    spec = FieldSpec(n)
    path = tmp_path_factory.getbasetemp() / "drawn.tape"
    generate_tape(replace(small_plan(2, n=n), m=count), role, path, seed=seed)
    rng = random.Random(seed)
    with TapeReader(path) as r:
        body = r.read_block(count)
    assert body == b"".join(spec.encode(spec.random_int(rng, role == "bob-challenges"))
                            for _ in range(count))


@pytest.mark.parametrize("n, role", sorted(TAPE_GOLDEN))
def test_generated_tape_golden(tmp_path, n, role):
    """Seeded tape files are pinned byte for byte at every width and role."""
    seed, digest = TAPE_GOLDEN[(n, role)]
    path = tmp_path / "t.tape"
    generate_tape(small_plan(TAPE_GOLDEN_M, n=n), role, path, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_tape_goldens_cover_zero_redraws():
    assert _zero_redraws(8, TAPE_GOLDEN[(8, "bob-challenges")][0], TAPE_GOLDEN_M) == 20
    assert _zero_redraws(16, TAPE_GOLDEN[(16, "bob-challenges")][0], TAPE_GOLDEN_M) == 1


class TestTapeFiles:
    def test_seeded_determinism(self, tmp_path):
        plan = small_plan(40)
        p1, p2 = tmp_path / "a.tape", tmp_path / "b.tape"
        generate_tape(plan, "alice-secrets", p1, seed=7)
        generate_tape(plan, "alice-secrets", p2, seed=7)
        assert p1.read_bytes() == p2.read_bytes()
        p3 = tmp_path / "c.tape"
        generate_tape(plan, "alice-secrets", p3, seed=8)
        assert p1.read_bytes() != p3.read_bytes()

    def test_reader_matches_generation(self, tmp_path):
        plan = small_plan(64, n=128)
        path = tmp_path / "x.tape"
        generate_tape(plan, "bob-challenges", path, seed=3)
        with TapeReader(path) as r:
            assert r.count == plan.m and r.role == "bob-challenges"
            assert r.spec == S128
            values = list(r)
        rng = random.Random(3)
        expected = [S128.random_int(rng, nonzero=True) for _ in range(plan.m)]
        assert values == expected

    def test_challenges_nonzero(self, tmp_path):
        plan = small_plan(200, n=8)
        path = tmp_path / "x.tape"
        generate_tape(plan, "bob-challenges", path, seed=0)
        with TapeReader(path) as r:
            assert all(v != 0 for v in r)

    def test_resume_equals_skip(self, tmp_path):
        plan = small_plan(50, n=8)
        path = tmp_path / "t.tape"
        generate_tape(plan, "alice-secrets", path, seed=1)
        with TapeReader(path) as r:
            full = list(r)
        rng = random.Random(4)
        for _ in range(10):
            k = rng.randrange(0, 51)
            with TapeReader(path) as r:
                r.seek(k)
                assert list(r) == full[k:]

    def test_zero_rounds_header_only(self, tmp_path):
        path = tmp_path / "empty.tape"
        write_tape(path, S8, "alice-secrets", iter([]), 0)
        with TapeReader(path) as r:
            assert r.count == 0
            assert list(r) == []

    def test_truncated_body_names_element(self, tmp_path):
        plan = small_plan(10, n=128)
        path = tmp_path / "t.tape"
        generate_tape(plan, "alice-secrets", path, seed=2)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(TapeFormatError, match="10 x 16"):
            TapeReader(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TapeFormatError, match="magic"):
            TapeReader(path)

    def test_bad_width_is_format_error(self, tmp_path):
        path = tmp_path / "t.tape"
        write_tape(path, S8, "alice-secrets", iter([1, 2]), 2)
        data = bytearray(path.read_bytes())
        data[6:10] = (129).to_bytes(4, "big")  # the header's bit width
        path.write_bytes(bytes(data))
        with pytest.raises(TapeFormatError, match="bad field"):
            TapeReader(path)

    def test_exhaustion_error(self, tmp_path):
        path = tmp_path / "t.tape"
        write_tape(path, S8, "alice-secrets", iter([1, 2]), 2)
        with TapeReader(path) as r:
            r.read(), r.read()
            with pytest.raises(TapeFormatError, match="exhausted"):
                r.read()

    def test_generate_counts_and_roles(self, tmp_path):
        plan = small_plan(12)
        path = tmp_path / "t.tape"
        for role in ("alice-secrets", "bob-challenges"):
            assert generate_tape(plan, role, path, seed=1) == 12
            with TapeReader(path) as r:
                assert r.count == 12 and r.role == role
        with pytest.raises(StorageError, match="role"):
            generate_tape(plan, "nope", path, seed=1)

    def test_element_beyond_n_bits(self, tmp_path):
        """0x103 has bit 8 set: the writer refuses it rather than store it
        in more than an n=8 element's one byte."""
        path = tmp_path / "t.tape"
        with pytest.raises(StorageError, match="element 1 exceeds 8 bits"):
            write_tape(path, S8, "alice-secrets", iter([1, 0x103, 2]), 3)

    @OUTSIDE_TABLE
    def test_header_outside_table_is_format_error(self, tmp_path, width, n, poly):
        path = tmp_path / "t.tape"
        write_tape(path, FieldSpec(width), "alice-secrets", iter([1, 2]), 2)
        path.write_bytes(with_header_field(path.read_bytes(), 6, n, poly))
        with pytest.raises(TapeFormatError, match="bad field"):
            TapeReader(path)

    def test_negative_element(self, tmp_path):
        """-2 is no n-bit element: the writer names it as it names a wide
        one, also in its second block of `BLOCK_ROUNDS`, where a zero
        challenge is named too."""
        path = tmp_path / "t.tape"
        with pytest.raises(StorageError, match="element 1 is negative"):
            write_tape(path, S8, "alice-secrets", iter([1, -2, 3]), 3)
        values = [1] * (BLOCK_ROUNDS + 9)
        values[BLOCK_ROUNDS + 7] = -1
        with pytest.raises(StorageError, match=f"element {BLOCK_ROUNDS + 7} is negative"):
            write_tape(path, S8, "alice-secrets", iter(values), len(values))
        values[BLOCK_ROUNDS + 7] = 0
        with pytest.raises(StorageError, match=f"element {BLOCK_ROUNDS + 7} is zero"):
            write_tape(path, S8, "bob-challenges", iter(values), len(values))
        assert not path.exists()

    @pytest.mark.parametrize("seed", [2**64 + 5, -3], ids=["2^64+5", "-3"])
    def test_seed_a_header_cannot_record(self, tmp_path, seed):
        """A header records its seed in 8 bytes: 2^64 + 5 would be stored
        as 5, and -3 draws `Random(3)`'s stream, so neither header could
        regenerate its tape, and neither tape is written."""
        path = tmp_path / "t.tape"
        with pytest.raises(StorageError, match=f"tape seed {seed} is outside 0..{2**64 - 1}"):
            generate_tape(small_plan(4, n=8), "alice-secrets", path, seed=seed)
        assert not path.exists()

    def test_seed_range_ends_are_recorded(self, tmp_path):
        path = tmp_path / "t.tape"
        for seed in (0, 2**64 - 1):
            generate_tape(small_plan(4, n=8), "alice-secrets", path, seed=seed)
            rng = random.Random(seed)
            with TapeReader(path) as r:
                assert r.seed == seed and r.provenance == 1
                assert list(r) == [S8.random_int(rng) for _ in range(4)]

    def test_zero_challenge_read_is_format_error(self, tmp_path):
        path = tmp_path / "x.tape"
        write_tape(path, S8, "bob-challenges", iter([5, 6, 7]), 3)
        data = bytearray(path.read_bytes())
        data[-2] = 0
        path.write_bytes(bytes(data))
        with TapeReader(path) as r:
            # the element is read from its block, so the zero raises at once
            with pytest.raises(TapeFormatError, match="element 1 is zero"):
                r.read()
            assert r.read_block(1) == bytes([5])  # the cursor did not move

    def test_long_polynomial_field_is_format_error(self, tmp_path):
        path = tmp_path / "t.tape"
        write_tape(path, S8, "alice-secrets", iter([1, 2]), 2)
        data = bytearray(path.read_bytes())
        data[10:12] = (2).to_bytes(2, "big")  # the polynomial's byte length
        data[13:13] = b"\x00"                # and one more zero byte of it
        path.write_bytes(bytes(data))
        with pytest.raises(TapeFormatError, match="polynomial field is 2 bytes"):
            TapeReader(path)

    def test_entropy_mode_counts(self, tmp_path):
        plan = small_plan(16, n=8)
        path = tmp_path / "e.tape"
        generate_tape(plan, "alice-secrets", path, seed=None)
        with TapeReader(path) as r:
            assert r.count == 16 and r.provenance == 0

    def test_entropy_challenges_drop_zeros(self, tmp_path):
        """4096 n=8 entropy challenges read back with no zero; the chance
        that no zero was drawn and dropped is (255/256)^4096, about 1e-7."""
        path = tmp_path / "e.tape"
        generate_tape(small_plan(4096, n=8), "bob-challenges", path, seed=None)
        with TapeReader(path) as r:
            assert r.count == 4096 and r.provenance == 0 and r.seed == 0
            assert 0 not in list(r)


    def test_seek_then_iterate_across_blocks(self, tmp_path):
        """`seek(j)` then `list(r)` starts at element j, on either side of
        the iterator's block boundaries."""
        path = tmp_path / "t.tape"
        generate_tape(small_plan(3000, n=8), "alice-secrets", path, seed=5)
        with TapeReader(path) as r:
            full = list(r)
            assert len(full) == r.count > 2 * 1024
            for j in (0, 1, 1023, 1024, 1025, 2047, r.count - 1, r.count):
                r.seek(j)
                assert list(r) == full[j:]

    def test_cursor_moves_during_iteration(self, tmp_path):
        """`read`, `seek` and an index between two elements of an iterator
        act at the cursor, and the iterator goes on from where they leave it."""
        path = tmp_path / "t.tape"
        generate_tape(small_plan(3000, n=16), "alice-secrets", path, seed=6)
        with TapeReader(path) as r:
            full = list(r)
            r.seek(0)
            it = iter(r)
            assert [next(it) for _ in range(5)] == full[:5]
            assert r.read() == full[5]
            assert next(it) == full[6]
            r.seek(2000)
            assert r.read() == full[2000]
            assert next(it) == full[2001]
            assert r[10] == full[10]
            assert next(it) == full[11]
            r.seek(r.count - 1)
            assert list(it) == full[-1:]

    def test_read_block_moves_the_cursor(self, tmp_path):
        """`read_block` hands over the encoded elements at the cursor, from
        the reader or from its iterator, fewer only at the tape's end, and
        the iterator goes on after them."""
        path = tmp_path / "t.tape"
        generate_tape(small_plan(3000, n=16), "alice-secrets", path, seed=7)
        with TapeReader(path) as r:
            full = list(r)
            enc = b"".join(S16.encode(v) for v in full)
            r.seek(3)
            it = iter(r)
            assert next(it) == full[3]
            assert it.read_block(1021) == enc[8:2050]
            assert next(it) == full[1025]
            assert r.read_block(2) == enc[2052:2056]
            assert next(it) == full[1028]
            r.seek(r.count - 2)
            assert it.read_block(5) == enc[-4:]
            assert r.read_block(5) == b""
            assert list(it) == []

    def test_zero_across_two_elements_is_not_a_zero_element(self, tmp_path):
        """Challenges 0x0001 and 0x0100 encode as 01 00 00 01: a zero
        substring that is no element."""
        path = tmp_path / "x.tape"
        values = [1, 0x100] * 700
        write_tape(path, S16, "bob-challenges", iter(values), len(values))
        with TapeReader(path) as r:
            assert list(r) == values
            r.seek(0)
            assert r.read_block(len(values)) == b"\x01\x00\x00\x01" * 700

    def test_zero_challenge_in_later_block_names_element(self, tmp_path):
        path = tmp_path / "x.tape"
        count = 400
        write_tape(path, S8, "bob-challenges", iter([7] * count), count)
        data = bytearray(path.read_bytes())
        data[len(data) - count + 300] = 0  # n=8: one byte per element
        path.write_bytes(bytes(data))
        with TapeReader(path) as r:
            with pytest.raises(TapeFormatError, match="challenge element 300 is zero"):
                list(r)
            with pytest.raises(TapeFormatError, match="challenge element 300 is zero"):
                r[299]  # in the zero's block
            with pytest.raises(TapeFormatError, match="challenge element 300 is zero"):
                r.read()
            assert r.read_block(1) == bytes([7])  # element 299, undecoded


class TestSizing:
    def test_metropolitan_24h_sizing_arithmetic(self):
        """The published deployment: ~81 GB per party's tape, ~162 GB of
        protocol data over 24 hours (arithmetic only, no file)."""
        from importlib import resources
        from relbc.planner import parse_config, resource_plan

        cfg = parse_config(resources.files("relbc")
                           .joinpath("configs/case1.cfg").read_text())
        plan = resource_plan(cfg)
        assert plan.m * plan.element_bytes / 1e9 == pytest.approx(81.0, rel=0.05)
        assert plan.bytes_total / 1e9 == pytest.approx(162.0, rel=0.05)


def _transcript(m=20, n=8, seed=0, d=1):
    spec = FieldSpec(n)
    secrets, challenges = random_tapes(spec, m, seed=seed)
    return run_honest_protocol(spec, secrets, challenges, d)


def _header_end(data: bytes) -> int:
    """Offset of the first round record in transcript bytes `data`."""
    f = io.BytesIO(data)
    read_transcript_header(f)
    return f.tell()


class TestTranscriptFiles:
    def test_roundtrip_identity(self, tmp_path):
        t = _transcript(m=100, n=128, d=0)
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        u = read_transcript(path)
        assert u == t
        path2 = tmp_path / "t2.rbcx"
        write_transcript(u, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert transcript_to_bytes(t) == path.read_bytes()

    def test_aborted_roundtrip(self, tmp_path):
        t = _transcript(m=10)
        t.reveal = None
        t.mark_aborted("deadline", 7)
        path = tmp_path / "a.rbcx"
        write_transcript(t, path)
        u = read_transcript(path)
        assert u.status == "aborted" and u.abort_round == 7
        assert u.abort_reason == "deadline"

    def test_bad_width_is_format_error(self, tmp_path):
        path = tmp_path / "t.rbcx"
        write_transcript(_transcript(m=4), path)
        data = bytearray(path.read_bytes())
        data[38:42] = (129).to_bytes(4, "big")  # the header's bit width
        path.write_bytes(bytes(data))
        with pytest.raises(TranscriptFormatError, match="bad field"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="bad field"):
            verify_file(path)

    def test_undecodable_abort_reason_is_format_error(self, tmp_path):
        t = _transcript(m=4)
        t.reveal = None
        t.mark_aborted("deadline", 3)
        path = tmp_path / "a.rbcx"
        write_transcript(t, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"deadline", b"\xff" * 8, 1))
        with pytest.raises(TranscriptFormatError, match="UTF-8"):
            read_transcript(path)

    def test_verify_file_accepts_honest(self, tmp_path):
        t = _transcript(m=500, n=128, d=1)
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        verdict, stats = verify_file(path)
        assert verdict.accepted and verdict.bit == 1
        assert stats.rounds == 500 and stats.rounds_per_second > 0

    def test_verify_file_rejects_tamper(self, tmp_path):
        t = _transcript(m=50, n=128)
        t.rounds[20].answer ^= 1
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        verdict, _ = verify_file(path)
        assert verdict.reason == REJECT_BIT_MISMATCH

    def test_verify_file_rejects_aborted(self, tmp_path):
        t = _transcript(m=10)
        t.reveal = None
        t.mark_aborted("deadline", 3)
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        verdict, _ = verify_file(path)
        assert verdict.reason == REJECT_ABORTED

    def test_verify_file_rejects_late_round(self, tmp_path):
        t = _transcript(m=10)
        t.rounds[4].answer_received_at = t.rounds[4].challenge_issued_at + t.tau1_ns + 1
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        verdict, _ = verify_file(path)
        assert verdict.reason == REJECT_TIMING

    def test_plan_hash_checked(self, tmp_path):
        plan = small_plan(20, n=8)
        other = small_plan(22, n=8)
        t = _transcript(m=20)
        t.plan_hash = plan.plan_hash
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        verdict, _ = verify_file(path, plan=plan)
        assert verdict.accepted
        with pytest.raises(PlanHashMismatchError):
            verify_file(path, plan=other)
        t.plan_hash = ""
        write_transcript(t, path)
        with pytest.raises(PlanHashMismatchError, match="none"):
            verify_file(path, plan=plan)

    @pytest.mark.parametrize("aborted, field, value", [
        (False, "flag", 7),
        (True, "flag", 2),
        (True, "bit", 1),
        (True, "a_m", 5),
        (True, "timestamp", 1),
    ])
    def test_reveal_has_one_encoding(self, tmp_path, aborted, field, value):
        """The reveal flag is 0 or 1, and behind flag 0 every reveal field is
        zero; any other byte would read back as a transcript that writes
        different bytes."""
        t = _transcript(m=8)
        if aborted:
            t.reveal = None
            t.mark_aborted("deadline", 3)
        data = bytearray(transcript_to_bytes(t))
        end = _header_end(data)  # flag, bit, a_m (1 byte at n=8), timestamp
        offset = {"flag": end - 11, "bit": end - 10, "a_m": end - 9,
                  "timestamp": end - 1}[field]
        data[offset] = value
        path = tmp_path / "t.rbcx"
        path.write_bytes(bytes(data))
        with pytest.raises(TranscriptFormatError, match="reveal"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="reveal"):
            verify_file(path)

    @pytest.mark.parametrize("scale", [0, 1000])
    def test_time_scale_is_one(self, tmp_path, scale):
        """The header's time-scale field is written as 1 and read only as 1: a
        rehearsal's times are its own plan's, and each header keeps one
        encoding."""
        data = bytearray(transcript_to_bytes(_transcript(m=8)))
        at = 44 + 1 + 16  # fixed fields to the polynomial's length, 1-byte polynomial, m, count
        assert data[at:at + 4] == (1).to_bytes(4, "big")
        data[at:at + 4] = scale.to_bytes(4, "big")
        path = tmp_path / "t.rbcx"
        path.write_bytes(bytes(data))
        with pytest.raises(TranscriptFormatError, match=f"time scale is {scale}, not 1"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="time scale"):
            verify_file(path)

    def test_long_polynomial_field_is_format_error(self, tmp_path):
        data = bytearray(transcript_to_bytes(_transcript(m=4)))
        data[42:44] = (2).to_bytes(2, "big")  # the polynomial's byte length
        data[45:45] = b"\x00"                # and one more zero byte of it
        path = tmp_path / "t.rbcx"
        path.write_bytes(bytes(data))
        with pytest.raises(TranscriptFormatError, match="polynomial field is 2 bytes"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="polynomial field is 2 bytes"):
            verify_file(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        t = _transcript(m=5)
        path = tmp_path / "t.rbcx"
        write_transcript(t, path)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(TranscriptFormatError, match="trailing"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="trailing"):
            verify_file(path)

    @OUTSIDE_TABLE
    def test_header_outside_table_is_format_error(self, tmp_path, width, n, poly):
        """A header must name a table field; so no file whose elements have
        spare bits, or that uses another polynomial, is ever read."""
        path = tmp_path / "t.rbcx"
        data = transcript_to_bytes(_transcript(m=4, n=width))
        path.write_bytes(with_header_field(data, 38, n, poly))
        with pytest.raises(TranscriptFormatError, match="bad field"):
            read_transcript(path)
        with pytest.raises(TranscriptFormatError, match="bad field"):
            verify_file(path)

    @pytest.mark.parametrize("count", [2**40, 2**62])
    def test_round_count_beyond_body_is_format_error(self, tmp_path, count):
        """A corrupt round count is checked against the file's size before
        the body is read, so it never sizes a read buffer."""
        path = tmp_path / "t.rbcx"
        write_transcript(_transcript(m=4), path)
        data = bytearray(path.read_bytes())
        data[53:61] = count.to_bytes(8, "big")  # the header's round count (n=8)
        path.write_bytes(bytes(data))
        with pytest.raises(TranscriptFormatError, match="header promises"):
            read_transcript(path)
        with pytest.raises(StorageError):
            verify_file(path)


class TestStreamedGeneration:
    def test_file_generation_matches_in_memory(self, tmp_path):
        spec = S128
        m = 400
        secrets, challenges = random_tapes(spec, m, seed=9)
        mem = run_honest_protocol(spec, secrets, challenges, 1)
        path = tmp_path / "s.rbcx"
        generate_honest_transcript_file(path, spec, m, iter(secrets.elements),
                                        iter(challenges.elements), 1)
        t = read_transcript(path)
        assert [(r.k, r.challenge, r.answer) for r in t.rounds] == \
            [(r.k, r.challenge, r.answer) for r in mem.rounds]
        assert t.reveal == mem.reveal
        verdict, _ = verify_file(path)
        assert verdict.accepted and verdict.bit == 1

    @pytest.mark.parametrize("m", [1023, 1024, 1025, 2049])
    def test_generation_across_answer_blocks(self, tmp_path, m):
        """The streamed file is `run_honest_protocol`'s bytes for m on either
        side of the 1024-round answer block and past two of them."""
        secrets, challenges = random_tapes(S128, m, seed=m)
        path = tmp_path / "s.rbcx"
        generate_honest_transcript_file(path, S128, m, iter(secrets.elements),
                                        iter(challenges.elements), m & 1)
        assert path.read_bytes() == transcript_to_bytes(
            run_honest_protocol(S128, secrets, challenges, m & 1))

    def test_generation_from_tape_files(self, tmp_path):
        plan = small_plan(60, n=128)
        a_path, x_path = tmp_path / "a.tape", tmp_path / "x.tape"
        generate_tape(plan, "alice-secrets", a_path, seed=1)
        generate_tape(plan, "bob-challenges", x_path, seed=2)
        out = tmp_path / "t.rbcx"
        with TapeReader(a_path) as ar, TapeReader(x_path) as xr:
            generate_honest_transcript_file(out, S128, plan.m, ar, xr, 0)
        verdict, _ = verify_file(out)
        assert verdict.accepted and verdict.bit == 0


    @pytest.mark.parametrize("short", ["secrets", "challenges"])
    def test_short_source_is_storage_error_and_no_file(self, tmp_path, short):
        """A source that ends before element m is a StorageError naming the
        count, and the partial file is removed."""
        path = tmp_path / "short.rbcx"
        sources = {"secrets": iter(range(1, 11)), "challenges": iter(range(1, 11))}
        sources[short] = iter([1, 2, 3])
        with pytest.raises(StorageError, match="element source exhausted at 3/10"):
            generate_honest_transcript_file(path, S8, 10, sources["secrets"],
                                            sources["challenges"], 1)
        assert not path.exists()

    def test_short_tape_source_is_storage_error_and_no_file(self, tmp_path):
        a_path, x_path = tmp_path / "a.tape", tmp_path / "x.tape"
        generate_tape(small_plan(300, n=8), "alice-secrets", a_path, seed=1)
        generate_tape(small_plan(300, n=8), "bob-challenges", x_path, seed=2)
        out = tmp_path / "t.rbcx"
        with TapeReader(a_path) as ar, TapeReader(x_path) as xr:
            with pytest.raises(StorageError, match=f"exhausted at {ar.count}/"):
                generate_honest_transcript_file(out, S8, ar.count + 1, ar, xr, 0)
        assert not out.exists()

    @pytest.mark.parametrize("n", [8, 128])
    @pytest.mark.parametrize("fault", ["zero-0", "zero-255", "zero-256", "zero-1023",
                                       "zero-1024", "zero-1099", "short-secrets",
                                       "short-challenges"])
    def test_faulty_tape_is_storage_error_and_no_file(self, tmp_path, n, fault):
        """A zero challenge in the first block (0, 255, 256), on either side
        of a block edge (1023, 1024) or in the short last block (1099), or a
        tape one element short of m = 1100, is a StorageError, and the
        partial file is removed."""
        spec, m = FieldSpec(n), 1100
        rng = random.Random(n)
        counts = {"secrets": m - (fault == "short-secrets"),
                  "challenges": m - (fault == "short-challenges")}
        paths = {role: tmp_path / f"{role}.tape" for role in counts}
        write_tape(paths["secrets"], spec, "alice-secrets",
                   (spec.random_int(rng) for _ in range(m)), counts["secrets"])
        write_tape(paths["challenges"], spec, "bob-challenges",
                   (spec.random_int(rng, nonzero=True) for _ in range(m)), counts["challenges"])
        match = f"exhausted at {m - 1}/{m}"
        if fault.startswith("zero"):
            k, eb = int(fault[5:]), spec.element_bytes
            data = bytearray(paths["challenges"].read_bytes())
            at = len(data) - (m - k) * eb
            data[at:at + eb] = bytes(eb)
            paths["challenges"].write_bytes(bytes(data))
            match = f"challenge element {k} is zero"
        out = tmp_path / "t.rbcx"
        with TapeReader(paths["secrets"]) as ar, TapeReader(paths["challenges"]) as xr:
            with pytest.raises(StorageError, match=match):
                generate_honest_transcript_file(out, spec, m, iter(ar), iter(xr), 1)
        assert not out.exists()

    @pytest.mark.parametrize("n, m", list(GENERATION_GOLDEN))
    def test_generation_golden(self, tmp_path, n, m):
        """The bytes of an honest generated file, fixed before generation
        went a block at a time: m on both sides of round 256."""
        spec = FieldSpec(n)
        rng = random.Random(1000 * n + m)
        secrets = [spec.random_int(rng) for _ in range(m)]
        challenges = [spec.random_int(rng, nonzero=True) for _ in range(m)]
        path = tmp_path / "g.rbcx"
        generate_honest_transcript_file(path, spec, m, iter(secrets), iter(challenges), m & 1)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATION_GOLDEN[(n, m)]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64, 128]), m=st.integers(1, 1100),
       seed=st.integers(0, 2**32 - 1))
@example(n=8, m=1024, seed=1)
@example(n=128, m=1025, seed=2)
@example(n=16, m=256, seed=3)
def test_generation_paths_agree(tmp_path_factory, n, m, seed):
    """The file generated from two TapeReaders, the file generated from int
    lists and `transcript_to_bytes` of `run_honest_protocol` are equal, for
    m on both sides of the 1024-round block edge."""
    spec = FieldSpec(n)
    secrets, challenges = random_tapes(spec, m, seed)
    work = tmp_path_factory.getbasetemp()
    a_path, x_path = work / "a.tape", work / "x.tape"
    write_tape(a_path, spec, "alice-secrets", iter(secrets.elements), m)
    write_tape(x_path, spec, "bob-challenges", iter(challenges.elements), m)
    from_tapes, from_lists = work / "tapes.rbcx", work / "lists.rbcx"
    with TapeReader(a_path) as ar, TapeReader(x_path) as xr:
        generate_honest_transcript_file(from_tapes, spec, m, ar, xr, seed & 1)
        assert ar.read_block(1) == xr.read_block(1) == b""
    generate_honest_transcript_file(from_lists, spec, m, iter(secrets.elements),
                                    iter(challenges.elements), seed & 1)
    expected = transcript_to_bytes(run_honest_protocol(spec, secrets, challenges, seed & 1))
    assert from_tapes.read_bytes() == expected
    assert from_lists.read_bytes() == expected


def _failing(values, exc):
    """A source that yields `values` and then raises `exc` itself."""
    yield from values
    raise exc


def _stream(path, records, round_count, challenge=None):
    """`write_transcript_stream` given the first `records` rounds of an
    honest 10-round n=8 run and told to expect `round_count`; `challenge`,
    when given, replaces round 2's x."""
    t = _transcript(m=10)
    rounds = t.rounds[:records]
    if challenge is not None:
        rounds[1].challenge = challenge
    write_transcript_stream(path, S8, t.m, iter(rounds), round_count, t.reveal,
                            t.reveal_received_at, t.tau1_ns, t.tau2_ns)


def _generate_from_zero_tape(path):
    """Generation read from a challenge tape whose second element was
    overwritten with zero."""
    a_path, x_path = path.with_suffix(".a"), path.with_suffix(".x")
    write_tape(a_path, S8, "alice-secrets", iter([1, 2, 3]), 3)
    write_tape(x_path, S8, "bob-challenges", iter([5, 6, 7]), 3)
    data = bytearray(x_path.read_bytes())
    data[-2] = 0
    x_path.write_bytes(bytes(data))
    with TapeReader(a_path) as ar, TapeReader(x_path) as xr:
        generate_honest_transcript_file(path, S8, 3, ar, xr, 0)


def _write_wide_in_second_block(path):
    """`write_transcript` of an honest n=8 run whose challenge in the second
    record block is 9 bits wide: the header and the first block are written
    before it raises."""
    t = _transcript(m=BLOCK_ROUNDS + 4)
    t.rounds[BLOCK_ROUNDS + 1].challenge = 0x103
    write_transcript(t, path)


# every file writer with each way it can fail: (the write, its error, match);
# a generation source that ends early is in TestStreamedGeneration
FAILED_WRITES = {
    "tape-short-source": (
        lambda p: write_tape(p, S8, "alice-secrets", iter([1, 2, 3]), 5),
        StorageError, "exhausted at 3/5"),
    "tape-zero-challenge": (
        lambda p: write_tape(p, S8, "bob-challenges", iter([1, 0, 3]), 3),
        StorageError, "zero elements"),
    "tape-element-beyond-n-bits": (
        lambda p: write_tape(p, S8, "alice-secrets", iter([1, 0x103, 2]), 3),
        StorageError, "exceeds 8 bits"),
    "tape-negative-element": (
        lambda p: write_tape(p, S8, "alice-secrets", iter([1, -2, 3]), 3),
        StorageError, "element 1 is negative"),
    "tape-unknown-role": (
        lambda p: write_tape(p, S8, "nope", iter([1]), 1), StorageError, "role"),
    "tape-seed-beyond-64-bits": (
        lambda p: generate_tape(small_plan(4, n=8), "alice-secrets", p, seed=2**64 + 5),
        StorageError, "outside 0.."),
    "tape-negative-seed": (
        lambda p: generate_tape(small_plan(4, n=8), "alice-secrets", p, seed=-3),
        StorageError, "outside 0.."),
    "tape-source-raises": (
        lambda p: write_tape(p, S8, "alice-secrets", _failing([1, 2], KeyError("boom")), 5),
        KeyError, "boom"),
    "stream-too-few-records": (
        lambda p: _stream(p, 5, 10), TranscriptFormatError, "produced 5 records, expected 10"),
    "stream-too-many-records": (
        lambda p: _stream(p, 10, 5), TranscriptFormatError, "produced 10 records, expected 5"),
    "stream-element-beyond-n-bits": (
        lambda p: _stream(p, 10, 10, challenge=0x103), OverflowError, "too big"),
    "transcript-element-beyond-n-bits-in-second-block": (
        _write_wide_in_second_block, OverflowError, "too big"),
    "stream-source-raises": (
        lambda p: write_transcript_stream(p, S8, 10, _failing([], KeyError("boom")), 10,
                                          None, 0, 1000, 1000),
        KeyError, "boom"),
    "generate-zero-challenge-on-tape": (
        _generate_from_zero_tape, TapeFormatError, "element 1 is zero"),
    "generate-source-raises": (
        lambda p: generate_honest_transcript_file(p, S8, 10, _failing([1, 2], KeyError("boom")),
                                                  iter(range(1, 11)), 1),
        KeyError, "boom"),
    "generate-bad-bit": (
        lambda p: generate_honest_transcript_file(p, S8, 10, iter(range(1, 11)),
                                                  iter(range(1, 11)), 2),
        ProtocolError, "bit must be 0 or 1"),
}


@pytest.mark.parametrize("case", list(FAILED_WRITES))
def test_failed_write_leaves_no_file(tmp_path, case):
    """Each writer that raises removes what it had written, so no file is
    left whose header promises more than its body holds."""
    write, error, match = FAILED_WRITES[case]
    path = tmp_path / "out"
    with pytest.raises(error, match=match):
        write(path)
    assert not path.exists()


class TestConstantMemory:
    def test_verify_peak_does_not_scale_with_file(self, tmp_path):
        """Streaming verification peak memory must be file-size independent:
        a 8x bigger file stays within a small factor of the small one."""
        spec = S128
        sizes = (4000, 32000)
        peaks = []
        for m in sizes:
            rng = random.Random(m)
            path = tmp_path / f"t{m}.rbcx"
            generate_honest_transcript_file(
                path, spec, m,
                (spec.random_int(rng) for _ in range(m)),
                (spec.random_int(rng, nonzero=True) for _ in range(m)),
                1,
            )
            tracemalloc.start()
            verdict, _ = verify_file(path)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert verdict.accepted
            peaks.append(peak)
        assert peaks[1] < peaks[0] * 1.5 + 1_000_000
        # verify_rounds reads columns by strided slices into two 8192-round
        # buffers, one FieldSpec.fold each, whose lane maps and leftover rounds
        # are spread 256 at a time; wider buffers, more lanes or a wider spread
        # would show here (785 KiB on this file when written)
        assert peaks[1] < 1 << 20


def _seed_transcripts() -> list[bytes]:
    """Valid transcript files (complete, aborted, n=8 and n=128) for the
    mutation properties below."""
    aborted = _transcript(m=5)
    aborted.reveal = None
    aborted.mark_aborted("deadline", 3)
    return [transcript_to_bytes(t) for t in (_transcript(m=6), _transcript(m=3, n=128),
                                             aborted)]


def _seed_tapes() -> list[bytes]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tape"
        for spec, role in ((S8, "alice-secrets"), (S128, "bob-challenges")):
            write_tape(path, spec, role, iter(range(1, 7)), 6)
            out.append(path.read_bytes())
    return out


SEED_TRANSCRIPTS = _seed_transcripts()
SEED_TAPES = _seed_tapes()
SEED_FILES = SEED_TRANSCRIPTS + SEED_TAPES


@st.composite
def mutated_files(draw, seeds=SEED_FILES):
    """A valid file with a few bytes set, runs cut or inserted, or an 8-byte
    big-endian field overwritten (counts, lengths, timestamps)."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "cut", "insert", "u64"]))
        i = draw(st.integers(0, len(data)))
        if op == "set" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif op == "cut":
            del data[i:i + draw(st.integers(1, 24))]
        elif op == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=24))
        elif op == "u64":
            data[i:i + 8] = draw(st.integers(0, 2**64 - 1)).to_bytes(8, "big")
    return bytes(data)


def _read_tape(path):
    with TapeReader(path) as r:
        return list(r)


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), mutated_files()))
def test_file_readers_return_or_raise_storage_error(tmp_path_factory, data):
    """On arbitrary or mutated bytes every file reader returns a result or
    raises StorageError, which `relbc verify` reports with exit 1."""
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    path.write_bytes(data)
    for read in (_read_tape, read_transcript, verify_file):
        try:
            read(path)
        except StorageError:
            pass


@settings(max_examples=400, deadline=None)
@given(data=mutated_files(SEED_TRANSCRIPTS))
def test_verify_file_agrees_with_read_transcript(tmp_path_factory, data):
    """The streaming verifier raises StorageError exactly when the in-memory
    reader does, and otherwise gives the in-memory verdict."""
    path = tmp_path_factory.getbasetemp() / "mutated.rbcx"
    path.write_bytes(data)
    try:
        expected = bob_verify(read_transcript(path))
    except StorageError:
        with pytest.raises(StorageError):
            verify_file(path)
    else:
        assert verify_file(path)[0] == expected


@settings(max_examples=400, deadline=None)
@given(data=mutated_files(SEED_TRANSCRIPTS))
def test_read_transcript_round_trips(tmp_path_factory, data):
    """Each transcript has one encoding: whatever `read_transcript` accepts,
    `transcript_to_bytes` writes back byte for byte."""
    path = tmp_path_factory.getbasetemp() / "mutated.rbcx"
    path.write_bytes(data)
    try:
        t = read_transcript(path)
    except StorageError:
        return
    assert transcript_to_bytes(t) == data


@settings(max_examples=400, deadline=None)
@given(data=mutated_files(SEED_TAPES))
def test_tape_reader_round_trips(tmp_path_factory, data):
    """Whatever `TapeReader` accepts, `write_tape` rebuilds from the fields
    and elements it read."""
    path = tmp_path_factory.getbasetemp() / "mutated.tape"
    path.write_bytes(data)
    try:
        with TapeReader(path) as r:
            fields = (r.spec, r.role, list(r), r.count, r.provenance, r.seed)
    except StorageError:
        return
    spec, role, elements, count, provenance, seed = fields
    rebuilt = tmp_path_factory.getbasetemp() / "rebuilt.tape"
    write_tape(rebuilt, spec, role, iter(elements), count, provenance, seed)
    assert rebuilt.read_bytes() == data
