"""Tape and transcript persistence with streaming access.

Both formats are self-describing and versioned; multi-byte header integers
are big-endian, element payloads are the canonical little-endian byte order
of `relbc.field`.

Tape file ("RBCT"): header (magic, version, field, role, element count,
seed provenance) followed by fixed-size elements. Challenge tapes contain
only nonzero elements; the writer and the reader both enforce it, on the
encoded bytes. Tapes move as byte blocks end to end, of
`protocol.BLOCK_ROUNDS` elements, the package's one block size.
`generate_tape` draws each block with one `FieldSpec.random_block` and
writes it as drawn, seeded or from system entropy; the bytes are those of
one `random_int` per element, because a zero challenge is redrawn from the
next element's worth of the stream, so dropping the block's zero elements
and drawing as many more is the same draw. `write_tape` encodes a block of
ints with one `int.to_bytes` map. A `TapeReader` reads its elements as byte
blocks: `read_block` hands over up to `count` encoded elements at the
cursor from one file read, checked for a short read and, on a challenge
tape, for a zero element on the bytes themselves. A reader is its own
iterator: it decodes elements from such blocks, and `read` and indexing take
their element from the iterator's block, so a live role that indexes its
tape every round reads the file once per block. Honest generation reads its
bytes through `read_block` undecoded, so it never decodes a tape.

Transcript file ("RBCX"): header (magic, version, plan hash, field, m,
recorded round count, time scale, deadlines, status, reveal) followed by
fixed-size round records (k, station, x, y, two timestamps; the layout is
`protocol.record_struct`), so any record can be sought in O(1) and
verification streams the file forward, `BLOCK_ROUNDS` records a read, with
memory independent of its length. The time scale is always 1: a live
rehearsal's times are those of its own plan (`planner.rehearsal`). The body
moves as packed record blocks: `RoundRecord` writers pack through
`protocol.record_blocks`, honest generation writes what
`protocol.honest_row_blocks` packs from tape bytes, and `verify_file` hands
the blocks it reads to `protocol.verify_rounds` undecoded.

In memory a transcript file is a `protocol.Transcript`: the writer takes its
header fields from one, and the header reader returns one with no rounds.
Each header names a field of the `relbc.field` table: a width in
`DEFAULT_POLYS` followed by exactly that width's polynomial in n/8 bytes;
any other width or polynomial is a format error. Every table width fills
whole bytes, so every element a body can hold is a field element. Every
reader checks that the body holds exactly the elements or records the header
counts. Each header has one valid encoding: the time scale is 1, the reveal
flag is 0 or 1, and behind flag 0 the bit, a_m and timestamp are 0. So
writing back what a reader returned rebuilds the file byte for byte. A
writer that fails removes its file (`_new_file`).
"""

from __future__ import annotations

import io
import random
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .field import FieldError, FieldSpec, zero_elements
from .planner import ProtocolPlan
from .protocol import (
    BLOCK_ROUNDS,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    ProtocolError,
    RevealMessage,
    RoundRecord,
    STATUS_ABORTED,
    STATUS_COMPLETE,
    Transcript,
    Verdict,
    honest_header,
    honest_row_blocks,
    record_blocks,
    record_struct,
    unpack_records,
    verify_rounds,
)

TAPE_MAGIC = b"RBCT"
TRANSCRIPT_MAGIC = b"RBCX"
FORMAT_VERSION = 1

_ROLE_CODES = {ROLE_ALICE_SECRETS: 1, ROLE_BOB_CHALLENGES: 2}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}

PROVENANCE_ENTROPY = 0
PROVENANCE_SEEDED = 1
_SEED_MAX = (1 << 64) - 1  # a tape header records its seed in 8 bytes


class StorageError(Exception):
    """Corrupt or mismatched on-disk data."""


class TapeFormatError(StorageError):
    pass


class TranscriptFormatError(StorageError):
    pass


class PlanHashMismatchError(StorageError):
    """The file was produced under a different plan than the one supplied."""


def _read_exact(f, size: int, what: str) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise StorageError(f"short read while reading {what}: wanted {size} bytes, "
                           f"got {len(data)}")
    return data


def _check_body(path, base: int, count: int, item_size: int,
                error: type[StorageError]) -> None:
    """The file at `path` holds exactly `count` items of `item_size` bytes
    after its header, which ends at offset `base`; checked before any read,
    so a corrupt count never sizes a buffer."""
    body = Path(path).stat().st_size - base
    if body > count * item_size:
        raise error(f"{path}: trailing bytes after {count} x {item_size} body bytes")
    if body < count * item_size:
        raise error(f"{path}: body is {body} bytes, header promises {count} x {item_size}")


@contextmanager
def _new_file(path: str | Path):
    """`path` opened for writing, and removed if the write raises, so no
    file is left whose header promises more than its body holds."""
    f = open(path, "wb")
    try:
        with f:
            yield f
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _poly_bytes(spec: FieldSpec) -> bytes:
    """The reduction polynomial as a header stores it: n/8 bytes."""
    return spec.poly.to_bytes(spec.element_bytes, "little")


def _header_spec(n: int, poly_bytes: bytes, error: type[StorageError], where) -> FieldSpec:
    """The table field a file header names, or `error` unless the header
    names a table width and carries exactly that width's `_poly_bytes`."""
    try:
        spec = FieldSpec(n)
    except FieldError as exc:
        raise error(f"{where}: bad field in header: {exc}") from exc
    if len(poly_bytes) != spec.element_bytes:
        raise error(f"{where}: polynomial field is {len(poly_bytes)} bytes, "
                    f"n={n} needs {spec.element_bytes}")
    if poly_bytes != _poly_bytes(spec):
        raise error(f"{where}: bad field in header: polynomial "
                    f"0x{int.from_bytes(poly_bytes, 'little'):x} is not n={n}'s 0x{spec.poly:x}")
    return spec


# -- tapes ---------------------------------------------------------------------


_TAPE_HEAD = struct.Struct(">4sHIH")       # magic, version, n, poly byte length
_TAPE_META = struct.Struct(">BQBQ")        # role, count, provenance, seed


def _tape_header(spec: FieldSpec, role: str, count: int, provenance: int,
                 seed: int) -> bytes:
    """The header of a tape file of `count` elements."""
    if role not in _ROLE_CODES:
        raise StorageError(f"unknown tape role {role!r}")
    poly_bytes = _poly_bytes(spec)
    return (_TAPE_HEAD.pack(TAPE_MAGIC, FORMAT_VERSION, spec.n, len(poly_bytes))
            + poly_bytes + _TAPE_META.pack(_ROLE_CODES[role], count, provenance, seed))


def write_tape(path: str | Path, spec: FieldSpec, role: str,
               elements: Iterable[int], count: int,
               provenance: int = PROVENANCE_SEEDED, seed: int = 0) -> None:
    """Stream the first `count` elements of `elements` to a tape file; each
    must be an n-bit element, and a challenge tape's must be nonzero.

    Elements are taken `BLOCK_ROUNDS` at a time and encoded by one
    `int.to_bytes` map, which refuses any value outside 0..2^n - 1; the
    zero check runs on the encoded bytes, as `TapeReader`'s does. A failed
    write leaves no file.
    """
    header = _tape_header(spec, role, count, provenance, seed)
    eb = spec.element_bytes
    source = iter(elements)
    with _new_file(path) as f:
        f.write(header)
        for done in range(0, count, BLOCK_ROUNDS):
            want = min(BLOCK_ROUNDS, count - done)
            chunk = list(islice(source, want))
            try:
                data = b"".join(map(int.to_bytes, chunk, repeat(eb), repeat("little")))
            except OverflowError:
                i, v = next((i, v) for i, v in enumerate(chunk) if not 0 <= v <= spec.mask)
                problem = "is negative" if v < 0 else f"exceeds {spec.n} bits"
                raise StorageError(f"tape element {done + i} {problem}") from None
            if len(chunk) < want:
                raise StorageError(f"element source exhausted at {done + len(chunk)}/{count}")
            z = next(zero_elements(data, eb), None) if role == ROLE_BOB_CHALLENGES else None
            if z is not None:
                raise StorageError(f"challenge tapes must not contain zero elements: "
                                   f"element {done + z // eb} is zero")
            f.write(data)


def generate_tape(plan: ProtocolPlan, role: str, path: str | Path,
                  seed: int | None = None) -> int:
    """Generate a tape of `plan.m` elements for `role` (seeded = reproducible,
    None = system entropy); returns the element count. Either role's tape
    holds the full sequence: each agent consumes only its station's parity.

    A seeded tape is drawn from `random.Random(seed)`, and its header
    records the seed, which must lie in 0..2^64 - 1 so that the header can
    regenerate the tape. Entropy tapes are drawn from `random.SystemRandom`,
    whose `randbytes` is `os.urandom`. Either way the body is drawn and
    written `BLOCK_ROUNDS` elements at a time by `FieldSpec.random_block`,
    so memory stays constant, and its bytes are those of one
    `FieldSpec.random_int` call per element.
    """
    if seed is None:
        rng: random.Random = random.SystemRandom()
        provenance, seed = PROVENANCE_ENTROPY, 0
    elif 0 <= seed <= _SEED_MAX:
        rng = random.Random(seed)
        provenance = PROVENANCE_SEEDED
    else:
        raise StorageError(f"tape seed {seed} is outside 0..{_SEED_MAX}, the seeds a "
                           f"tape header records")
    spec = FieldSpec(plan.n)
    count = plan.m
    header = _tape_header(spec, role, count, provenance, seed)
    nonzero = role == ROLE_BOB_CHALLENGES
    with _new_file(path) as f:
        f.write(header)
        for done in range(0, count, BLOCK_ROUNDS):
            f.write(spec.random_block(rng, min(BLOCK_ROUNDS, count - done), nonzero))
    return count


class TapeReader:
    """Sequential, resumable cursor over a tape file (constant memory)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._f = open(self.path, "rb")
        try:
            head = _read_exact(self._f, _TAPE_HEAD.size, "tape header")
            magic, version, n, poly_len = _TAPE_HEAD.unpack(head)
            if magic != TAPE_MAGIC:
                raise TapeFormatError(f"{self.path}: not a tape file (magic {magic!r})")
            if version != FORMAT_VERSION:
                raise TapeFormatError(f"{self.path}: unsupported tape version {version}")
            poly = _read_exact(self._f, poly_len, "tape polynomial")
            meta = _read_exact(self._f, _TAPE_META.size, "tape metadata")
            role_code, count, provenance, seed = _TAPE_META.unpack(meta)
            if role_code not in _ROLE_NAMES:
                raise TapeFormatError(f"{self.path}: unknown role code {role_code}")
            self.spec = _header_spec(n, poly, TapeFormatError, self.path)
            self.role = _ROLE_NAMES[role_code]
            self.count = count
            self._nonzero = self.role == ROLE_BOB_CHALLENGES
            self.provenance = provenance
            self.seed = seed
            self._base = self._f.tell()
            self._index = 0
            self._start = 0                 # the element `_values` begins at
            self._values: list[int] = []    # the block `__next__` last decoded
            _check_body(self.path, self._base, count, self.spec.element_bytes,
                        TapeFormatError)
        except Exception:
            self._f.close()
            raise

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "TapeReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def seek(self, index: int) -> None:
        """Position the cursor at element `index` (0-based)."""
        if index < 0 or index > self.count:
            raise TapeFormatError(f"seek to {index} outside 0..{self.count}")
        self._index = index

    def read_block(self, count: int) -> bytes:
        """Up to `count` encoded elements at the cursor, which moves past
        them, in one file read; fewer only at the tape's end. Raises on a
        short read, or on a zero anywhere in a challenge tape's block,
        before the cursor moves."""
        start, eb = self._index, self.spec.element_bytes
        want = min(count, self.count - start)  # the cursor never passes count
        self._f.seek(self._base + start * eb)
        data = self._f.read(want * eb)
        if len(data) != want * eb:
            raise TapeFormatError(
                f"{self.path}: short read at element {start + len(data) // eb}")
        if self._nonzero and (z := next(zero_elements(data, eb), None)) is not None:
            raise TapeFormatError(f"{self.path}: challenge element {start + z // eb} is zero")
        self._index += want
        return data

    def read(self) -> int:
        """The element at the cursor, which moves past it, taken as
        `__next__` takes it; raises on exhaustion and as `read_block` does."""
        if self._index >= self.count:
            raise TapeFormatError(f"{self.path}: tape exhausted at element {self.count}")
        return next(self)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> int:
        """Element `index` (0-based); moves the cursor past it."""
        self.seek(index)
        return self.read()

    def __iter__(self) -> "TapeReader":
        return self

    def __next__(self) -> int:
        """The element at the cursor, which moves past it, decoded from one
        `read_block` of `BLOCK_ROUNDS` elements at a time: a zero in a
        challenge tape's block raises at the block's first read. Moving the
        cursor (`seek`, `read_block`, an index) names the next element, read
        from the decoded block while it holds that element."""
        i = self._index
        j = i - self._start
        if not 0 <= j < len(self._values):  # the cursor left the decoded block
            if i >= self.count:
                raise StopIteration
            self._values = self.spec.decode_block(self.read_block(BLOCK_ROUNDS))
            self._start, j = i, 0
        self._index = i + 1
        return self._values[j]


# -- transcripts -----------------------------------------------------------------


_XH_FIXED = struct.Struct(">4sH32sIH")     # magic, version, plan hash, n, poly len
_XH_META = struct.Struct(">QQIqq")         # m, round count, scale (1), tau1, tau2
_XH_STATUS = struct.Struct(">BQH")         # status, abort round, reason length
_XH_REVEAL = struct.Struct(">BB")          # reveal flag, claimed bit

_STATUS_CODES = {STATUS_COMPLETE: 1, STATUS_ABORTED: 2}
_STATUS_NAMES = {v: k for k, v in _STATUS_CODES.items()}


def _write_header(f, t: Transcript, round_count: int) -> None:
    """Write the header of `t`; its own rounds are not read."""
    spec = t.spec
    eb = spec.element_bytes
    poly_bytes = _poly_bytes(spec)
    hash_bytes = bytes.fromhex(t.plan_hash) if t.plan_hash else b"\x00" * 32
    if len(hash_bytes) != 32:
        raise TranscriptFormatError("plan hash must be 32 bytes (sha256) or empty")
    reason = (t.abort_reason or "").encode()
    f.write(_XH_FIXED.pack(TRANSCRIPT_MAGIC, FORMAT_VERSION, hash_bytes,
                           spec.n, len(poly_bytes)))
    f.write(poly_bytes)
    f.write(_XH_META.pack(t.m, round_count, 1, t.tau1_ns, t.tau2_ns))
    f.write(_XH_STATUS.pack(_STATUS_CODES[t.status], t.abort_round or 0, len(reason)))
    f.write(reason)
    r = t.reveal
    flag, bit, a_m, at = (1, r.bit, r.final_secret, t.reveal_received_at) if r else (0, 0, 0, 0)
    f.write(_XH_REVEAL.pack(flag, bit))
    f.write(a_m.to_bytes(eb, "little"))
    f.write(struct.pack(">q", at))


def _write_records(f, eb: int, blocks: Iterable[bytes], round_count: int) -> None:
    """Write `blocks` of packed round records, one write per block; there
    must be exactly `round_count` records."""
    size = record_struct(eb).size
    written = 0
    for block in blocks:
        f.write(block)
        written += len(block) // size
    if written != round_count:
        raise TranscriptFormatError(
            f"round iterator produced {written} records, expected {round_count}"
        )


def _write_transcript_to(f, t: Transcript, rounds: Iterable[RoundRecord],
                         round_count: int) -> None:
    """Write the header of `t` (its own rounds are not read), then `rounds`."""
    eb = t.spec.element_bytes
    _write_header(f, t, round_count)
    _write_records(f, eb, record_blocks(rounds, eb), round_count)


def write_transcript_stream(path: str | Path, spec: FieldSpec, m: int,
                            rounds: Iterable[RoundRecord], round_count: int,
                            reveal: RevealMessage | None, reveal_received_at: int,
                            tau1_ns: int, tau2_ns: int) -> None:
    """Write a transcript file, status complete and no plan hash, from a round
    iterator (constant memory); there must be exactly `round_count` rounds.
    A failed write leaves no file."""
    header = Transcript(spec=spec, m=m, tau1_ns=tau1_ns, tau2_ns=tau2_ns,
                        reveal=reveal, reveal_received_at=reveal_received_at)
    with _new_file(path) as f:
        _write_transcript_to(f, header, rounds, round_count)


def transcript_to_bytes(transcript: Transcript) -> bytes:
    """Serialize a transcript to its canonical file bytes."""
    buf = io.BytesIO()
    _write_transcript_to(buf, transcript, transcript.rounds, len(transcript.rounds))
    return buf.getvalue()


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    """Stream a transcript to its file; a failed write leaves no file."""
    with _new_file(path) as f:
        _write_transcript_to(f, transcript, transcript.rounds, len(transcript.rounds))


def read_transcript_header(f) -> tuple[Transcript, int]:
    """The header at the start of `f` as a `Transcript` with no rounds, plus
    the recorded round count; leaves `f` at the first round record."""
    head = _read_exact(f, _XH_FIXED.size, "transcript header")
    magic, version, hash_bytes, n, poly_len = _XH_FIXED.unpack(head)
    if magic != TRANSCRIPT_MAGIC:
        raise TranscriptFormatError(f"not a transcript file (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise TranscriptFormatError(f"unsupported transcript version {version}")
    poly = _read_exact(f, poly_len, "transcript polynomial")
    spec = _header_spec(n, poly, TranscriptFormatError, "transcript")
    m, round_count, scale, tau1, tau2 = _XH_META.unpack(
        _read_exact(f, _XH_META.size, "transcript metadata"))
    if scale != 1:
        raise TranscriptFormatError(f"time scale is {scale}, not 1")
    status_code, abort_round, reason_len = _XH_STATUS.unpack(
        _read_exact(f, _XH_STATUS.size, "transcript status"))
    if status_code not in _STATUS_NAMES:
        raise TranscriptFormatError(f"unknown status code {status_code}")
    reason = None
    if reason_len:
        try:
            reason = _read_exact(f, reason_len, "abort reason").decode()
        except UnicodeDecodeError as exc:
            raise TranscriptFormatError(f"abort reason is not UTF-8: {exc}") from exc
    reveal_flag, bit = _XH_REVEAL.unpack(_read_exact(f, _XH_REVEAL.size, "reveal flag"))
    if reveal_flag > 1:
        raise TranscriptFormatError(f"reveal flag is {reveal_flag}, not 0 or 1")
    a_m = int.from_bytes(_read_exact(f, spec.element_bytes, "reveal payload"), "little")
    (reveal_at,) = struct.unpack(">q", _read_exact(f, 8, "reveal timestamp"))
    if not reveal_flag and (bit or a_m or reveal_at):
        raise TranscriptFormatError("reveal fields are set behind reveal flag 0")
    header = Transcript(
        spec=spec,
        m=m,
        tau1_ns=tau1,
        tau2_ns=tau2,
        reveal=RevealMessage(bit, a_m) if reveal_flag else None,
        reveal_received_at=reveal_at,
        status=_STATUS_NAMES[status_code],
        abort_reason=reason,
        abort_round=abort_round or None,
        plan_hash=hash_bytes.hex() if hash_bytes != b"\x00" * 32 else "",
    )
    return header, round_count


def _open_transcript(f, path) -> tuple[Transcript, Iterator[bytes]]:
    """The header of transcript file `f` (see `read_transcript_header`),
    whose round count is checked against the file's size, and an iterator
    over its packed round records as the bytes of each read, front to back
    `BLOCK_ROUNDS` records at a time; `f` is not read until the
    iterator is."""
    header, count = read_transcript_header(f)
    size = record_struct(header.spec.element_bytes).size
    _check_body(path, f.tell(), count, size, TranscriptFormatError)

    def blocks() -> Iterator[bytes]:
        for done in range(0, count, BLOCK_ROUNDS):
            yield _read_exact(f, min(count - done, BLOCK_ROUNDS) * size, "round records")

    return header, blocks()


def read_transcript(path: str | Path) -> Transcript:
    """Load a whole transcript into memory (use verify_file for huge ones)."""
    with open(path, "rb") as f:
        transcript, blocks = _open_transcript(f, path)
        eb = transcript.spec.element_bytes
        transcript.rounds = [rec for block in blocks for rec in unpack_records(block, eb)]
    return transcript


@dataclass
class VerifyStats:
    """What a `verify_file` pass did: the round records it read, which are
    all of them unless the verdict settled early, and its wall time."""

    rounds: int
    seconds: float

    @property
    def rounds_per_second(self) -> float:
        return self.rounds / self.seconds if self.seconds > 0 else float("inf")


def verify_file(path: str | Path,
                plan: ProtocolPlan | None = None) -> tuple[Verdict, VerifyStats]:
    """Stream a transcript file forward and verify it in constant memory.

    The bytes of each block of records are read as `read_transcript` reads
    them and handed undecoded to `protocol.verify_rounds`, the pass
    `bob_verify` uses. Reading stops once the verdict is settled (an aborted
    transcript or a malformed round), so a later fault is not reported, and
    the stats count the records read: none for an aborted transcript.
    """
    t0 = time.perf_counter()
    with open(path, "rb") as f:
        h, blocks = _open_transcript(f, path)
        body = f.tell()
        if plan is not None and h.plan_hash != plan.plan_hash:
            raise PlanHashMismatchError(
                f"{path}: transcript plan hash {h.plan_hash[:12] or '(none)'} does not "
                f"match the supplied plan's {plan.plan_hash[:12]}"
            )
        verdict = verify_rounds(h, blocks)
        rounds = (f.tell() - body) // record_struct(h.spec.element_bytes).size
    return verdict, VerifyStats(rounds, time.perf_counter() - t0)


def generate_honest_transcript_file(path: str | Path, spec: FieldSpec, m: int,
                                    secrets: Iterable[int], challenges: Iterable[int],
                                    d: int) -> None:
    """Forward-generate an honest m-round transcript file in constant memory.

    The file is byte for byte what `run_honest_protocol` (no plan hash)
    writes for the same tapes: both take their header from
    `protocol.honest_header`, and the records come packed from
    `protocol.honest_row_blocks`, a block at a time. `secrets` and
    `challenges` may be TapeReaders, whose byte blocks go to the answer
    kernel undecoded; a source that ends before element m raises
    StorageError, and a failed write leaves no file.
    """
    eb = spec.element_bytes
    records = honest_row_blocks(spec, secrets, challenges, d, m)
    a_m = 0

    def blocks() -> Iterator[bytes]:
        nonlocal a_m
        a_m = yield from records

    # the header precedes the rounds and a_m is known only after them, so
    # its reveal payload, 0 in `honest_header`, is patched; the header ends
    # with that payload and the 8-byte reveal timestamp
    try:
        with _new_file(path) as f:
            _write_header(f, honest_header(spec, m, d), m)
            reveal_at = f.tell() - 8 - eb
            _write_records(f, eb, blocks(), m)
            f.seek(reveal_at)
            f.write(a_m.to_bytes(eb, "little"))
    except ProtocolError as exc:  # a source ended early
        raise StorageError(str(exc)) from exc
