"""One verdict per transcript: bob_verify, verify_file and the paper's
backward recursion agree, faults and all."""

from itertools import cycle, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbc.field import FieldSpec, NonInvertibleError
from relbc.protocol import (
    BLOCK_ROUNDS,
    REJECT_ABORTED,
    REJECT_BIT_MISMATCH,
    REJECT_MALFORMED,
    REJECT_TIMING,
    REJECT_ZERO_CHALLENGE,
    RevealMessage,
    Transcript,
    Verdict,
    bob_verify,
    record_blocks,
    record_struct,
    run_honest_protocol,
    station_of,
    verify_rounds,
)
from relbc.storage import read_transcript, verify_file, write_transcript

from helpers import backward_chain, random_tapes, tau_at

S8 = FieldSpec(8)
TAU_NS = 1_000


def backward_verdict(t: Transcript) -> Verdict:
    """The verdict of the backward recursion, with bob_verify's precedence."""
    if not t.is_complete:
        return Verdict.reject(REJECT_ABORTED)
    d = t.reveal.bit
    if (t.m < 1 or d not in (0, 1) or len(t.rounds) != t.m
            or any(r.k != k or r.station != station_of(k)
                   for k, r in enumerate(t.rounds, start=1))):
        return Verdict.reject(REJECT_MALFORMED)
    if not all(0 <= r.answer_received_at - r.challenge_issued_at <= tau_at(t, r.station)
               for r in t.rounds):
        return Verdict.reject(REJECT_TIMING)
    try:
        a0 = backward_chain(t.spec, t.rounds, t.reveal.final_secret)[0]
    except NonInvertibleError:
        return Verdict.reject(REJECT_ZERO_CHALLENGE)
    if a0 == d:
        return Verdict.accept(d)
    return Verdict.reject(REJECT_BIT_MISMATCH)


def honest(m: int, seed: int, d: int) -> Transcript:
    secrets, challenges = random_tapes(S8, m, seed=seed)
    t = run_honest_protocol(S8, secrets, challenges, d)
    t.tau1_ns = t.tau2_ns = TAU_NS
    return t


FAULTS = ("answer", "challenge", "zero-challenge", "late", "early", "station",
          "reveal-bit", "reveal-secret")


def apply_fault(t: Transcript, kind: str, i: int, bit: int) -> None:
    """Tamper with round index i (0-based) or the reveal; `bit` picks a bit."""
    rec = t.rounds[i]
    if kind == "answer":
        rec.answer ^= 1 << bit
    elif kind == "challenge":
        rec.challenge ^= 1 << bit
    elif kind == "zero-challenge":
        rec.challenge = 0
    elif kind == "late":
        rec.answer_received_at = rec.challenge_issued_at + TAU_NS + 1
    elif kind == "early":
        rec.answer_received_at = rec.challenge_issued_at - 1
    elif kind == "station":
        rec.station = 3 - rec.station
    elif kind == "misnumbered":
        rec.k += 1
    elif kind == "reveal-bit":
        t.reveal = RevealMessage(t.reveal.bit ^ 1, t.reveal.final_secret)
    else:
        t.reveal = RevealMessage(t.reveal.bit, t.reveal.final_secret ^ (1 << bit))


def assert_one_verdict(t: Transcript, path) -> Verdict:
    verdict = bob_verify(t)
    write_transcript(t, path)
    assert verify_file(path)[0] == verdict
    assert backward_verdict(t) == verdict
    return verdict


fault = st.tuples(st.sampled_from(FAULTS), st.integers(0, 10**6), st.integers(0, 7))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 40), seed=st.integers(0, 2**32), d=st.integers(0, 1),
       faults=st.lists(fault, max_size=3),
       sizes=st.lists(st.sampled_from([1, 255, 256, 257]), min_size=1, max_size=4))
def test_verifiers_agree_under_faults(tmp_path, m, seed, d, faults, sizes):
    t = honest(m, seed, d)
    for kind, where, bit in faults:
        apply_fault(t, kind, where % m, bit)
    path = tmp_path / "t.rbcx"
    verdict = assert_one_verdict(t, path)
    # the file's packed body, cut into blocks of `sizes` records in turn
    size = record_struct(S8.element_bytes).size
    body = path.read_bytes()[-m * size:]
    blocks, at = [], 0
    for count in cycle(sizes):
        if at == len(body):
            break
        blocks.append(body[at:at + count * size])
        at += len(blocks[-1])
    assert verify_rounds(t, blocks) == verdict
    if not faults:
        assert verdict == Verdict.accept(d)


@pytest.mark.parametrize("faults", [
    [],
    [("answer", BLOCK_ROUNDS, 3)],
    [("challenge", 2 * BLOCK_ROUNDS + 1, 5)],
    [("zero-challenge", -1, 0)],
    [("late", 0, 0), ("zero-challenge", -1, 0)],
    [("station", 0, 0), ("zero-challenge", -1, 0)],
    [("late", BLOCK_ROUNDS - 1, 0), ("station", 2 * BLOCK_ROUNDS, 0)],
    [("answer", BLOCK_ROUNDS - 1, 0), ("challenge", BLOCK_ROUNDS, 7)],
    [("answer", 255, 4)],
    [("challenge", 256, 6)],
], ids=["honest", "answer", "challenge", "zero", "late+zero", "station+zero",
        "late+station", "answer+challenge-at-seam", "answer-at-fold-seam",
        "challenge-past-fold-seam"])
def test_verifiers_agree_beyond_two_read_blocks(tmp_path, faults):
    """Faults on either side of a read block's edge, of round 1024|1025,
    and of a seam inside one, round 256|257, where `FieldSpec.fold` takes
    its next 256 rounds."""
    m = 2 * BLOCK_ROUNDS + 3
    t = honest(m, seed=5, d=1)
    for kind, i, bit in faults:
        apply_fault(t, kind, i, bit)
    verdict = assert_one_verdict(t, tmp_path / "t.rbcx")
    assert verdict.accepted == (not faults)


# each fault of `test_verifiers_agree_at_fold_seams` and its verdict, and the
# file lengths around `verify_rounds`' 8192-round folds
SEAM_FAULTS = {"zero-challenge": REJECT_ZERO_CHALLENGE, "answer": REJECT_BIT_MISMATCH,
               "late": REJECT_TIMING, "misnumbered": REJECT_MALFORMED}
FOLD_SEAM_ROUNDS = (8191, 8192, 8193, 16385)


@pytest.mark.parametrize("m", FOLD_SEAM_ROUNDS)
def test_verifiers_accept_honest_files_around_a_fold(tmp_path, m):
    """Honest files that end short of, at and past `verify_rounds`' first
    fold of 8 read blocks, and past its second, are accepted."""
    assert assert_one_verdict(honest(m, seed=m, d=1), tmp_path / "t.rbcx") == Verdict.accept(1)


@pytest.mark.parametrize("m, i", [(m, i) for m in FOLD_SEAM_ROUNDS
                                  for i in (7, 8, 8191, 8192) if i < m])
@pytest.mark.parametrize("kind", SEAM_FAULTS)
def test_verifiers_agree_at_fold_seams(tmp_path, m, i, kind):
    """A fault on either side of round 8192|8193, where `verify_rounds`
    folds its first full buffer of 8 read blocks, and of round 8|9, a lane
    seam inside that fold."""
    t = honest(m, seed=m, d=1)
    apply_fault(t, kind, i, 2)
    assert assert_one_verdict(t, tmp_path / "t.rbcx") == Verdict.reject(SEAM_FAULTS[kind])


def test_no_block_is_read_after_a_malformed_one():
    """A misnumbered round settles the verdict: `verify_rounds` returns
    without asking for the next block, as `verify_file` promises."""
    t = honest(2 * BLOCK_ROUNDS, seed=3, d=1)
    t.rounds[3].k = 99

    def blocks():
        yield from islice(record_blocks(t.rounds, S8.element_bytes), 1)
        pytest.fail("a block was read after the malformed one")

    assert verify_rounds(t, blocks()) == Verdict.reject(REJECT_MALFORMED)


@pytest.mark.parametrize("station, turnaround, reason", [
    (1, 100, None),
    (1, 101, REJECT_TIMING),
    (2, 5000, None),
    (2, 5001, REJECT_TIMING),
])
@pytest.mark.parametrize("m", [6, 259, BLOCK_ROUNDS + 3])
def test_each_station_has_its_own_deadline(tmp_path, station, turnaround, reason, m):
    """Station 1's answers are held to tau1 and station 2's to tau2, in
    every block whichever station opens it, and past a fold seam (m=259)."""
    t = honest(m, seed=2, d=1)
    t.tau1_ns, t.tau2_ns = 100, 5000
    rec = [r for r in t.rounds if r.station == station][-1]
    rec.answer_received_at = rec.challenge_issued_at + turnaround
    verdict = assert_one_verdict(t, tmp_path / "t.rbcx")
    assert verdict == (Verdict.accept(1) if reason is None else Verdict.reject(reason))


@pytest.mark.parametrize("cut", [1, 5, -1])
def test_partial_record_block_is_malformed(cut):
    """A block that is not a whole number of records is a malformed
    transcript, wherever the cut falls, and not a decoding error."""
    t = honest(6, seed=4, d=1)
    body = b"".join(record_blocks(t.rounds, S8.element_bytes))
    blocks = [body[:cut], body[cut:]]
    assert verify_rounds(t, blocks) == Verdict.reject(REJECT_MALFORMED)


@pytest.mark.parametrize("fault, read", [
    (None, 3 * BLOCK_ROUNDS + 1),
    ("misnumbered", BLOCK_ROUNDS),
    ("aborted", 0),
])
def test_verify_stats_count_the_records_read(tmp_path, fault, read):
    """`verify_file` reports the records its pass read: all of an honest
    file, at most one block when round 1 is misnumbered, and none of an
    aborted transcript, whatever count its header holds."""
    t = honest(3 * BLOCK_ROUNDS + 1, seed=9, d=0)
    if fault == "misnumbered":
        t.rounds[0].k = 2
    elif fault == "aborted":
        t.reveal = None
        t.mark_aborted("deadline", t.m)
    path = tmp_path / "t.rbcx"
    write_transcript(t, path)
    verdict, stats = verify_file(path)
    assert verdict == bob_verify(t)
    assert stats.rounds == read


def test_zero_rounds_is_malformed(tmp_path):
    t = Transcript(spec=S8, m=0, tau1_ns=TAU_NS, tau2_ns=TAU_NS,
                   reveal=RevealMessage(0, 0))
    assert bob_verify(t) == Verdict.reject(REJECT_MALFORMED)
    path = tmp_path / "t.rbcx"
    write_transcript(t, path)
    assert bob_verify(read_transcript(path)) == Verdict.reject(REJECT_MALFORMED)
    assert verify_file(path)[0] == Verdict.reject(REJECT_MALFORMED)


@pytest.mark.parametrize("first_fault, reason", [
    ("late", REJECT_TIMING),
    ("station", REJECT_MALFORMED),
])
def test_early_fault_outranks_late_zero_challenge(tmp_path, first_fault, reason):
    """A fault in round 1 and a zero x_m give one verdict, whichever end the
    verifier reads first."""
    t = honest(5000, seed=6, d=0)
    apply_fault(t, first_fault, 0, 0)
    t.rounds[-1].challenge = 0
    path = tmp_path / "t.rbcx"
    write_transcript(t, path)
    assert verify_file(path)[0] == bob_verify(t) == Verdict.reject(reason)


@pytest.mark.parametrize("d", [0, 1])
def test_zero_first_challenge_is_rejected_under_either_bit(tmp_path, d):
    """With x_1 = 0, y_1 = x_1 * a_0 XOR a_1 holds for a_0 = 0 and a_0 = 1
    alike, so the transcript binds no bit: it is a zero challenge like any
    other."""
    t = honest(6, seed=8, d=0)
    t.rounds[0].challenge = 0
    t.reveal = RevealMessage(d, t.reveal.final_secret)
    path = tmp_path / "t.rbcx"
    write_transcript(t, path)
    assert bob_verify(t) == verify_file(path)[0] == Verdict.reject(REJECT_ZERO_CHALLENGE)


@pytest.mark.parametrize("i", [0, 7, -1])
def test_answer_before_its_challenge_is_mistimed(tmp_path, i):
    """A negative turnaround is a timing fault, in either verifier."""
    t = honest(20, seed=7, d=1)
    apply_fault(t, "early", i, 0)
    path = tmp_path / "t.rbcx"
    write_transcript(t, path)
    assert bob_verify(t) == verify_file(path)[0] == Verdict.reject(REJECT_TIMING)
