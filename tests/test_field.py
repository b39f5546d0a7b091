"""GF(2^n) arithmetic: oracle equivalence, field axioms, inversion."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbc.field import (
    DEFAULT_POLYS,
    FieldError,
    FieldSpec,
    NonInvertibleError,
    _FOLD_LANES,
    _FOLD_ROUNDS,
    _STACK_BITS,
    _fold_lanes,
    _padded_rounds,
    _plane_mul,
    batch_inverse,
)

from helpers import schoolbook_mul

S8 = FieldSpec(8)
S128 = FieldSpec(128)


def _gf2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials, ints as bit vectors."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


class TestFieldSpec:
    def test_known_polys_accepted(self):
        """The table is n = 8..128 and each polynomial f is irreducible, by
        Rabin's test: x^(2^n) = x mod f, and x^(2^(n/2)) - x shares no
        factor with f (2 is the only prime dividing a power-of-two n).
        Each tail has four terms, the slot-sum bound `_smul` relies on."""
        assert sorted(DEFAULT_POLYS) == [8, 16, 32, 64, 128]
        for n, poly in DEFAULT_POLYS.items():
            spec = FieldSpec(n)
            assert spec.poly == poly and spec.element_bytes * 8 == n
            assert bin(poly).count("1") == 4
            r = 2  # x
            for i in range(n):
                if i == n // 2:
                    half = r
                r = schoolbook_mul(r, r, n, poly)
            assert r == 2 and _gf2_gcd(poly | 1 << n, half ^ 2) == 1

    def test_bad_width(self):
        """Only table widths: no spare-bit width such as 12, and no 256."""
        for n in (0, -1, 12, 256, 2000, 8.0, "8"):
            with pytest.raises(FieldError):
                FieldSpec(n)

    def test_equality_is_by_value(self):
        assert FieldSpec(8) == S8 and hash(FieldSpec(8)) == hash(S8)
        assert FieldSpec(8) != FieldSpec(128)


class TestMul:
    def test_identity_and_absorbing(self):
        rng = random.Random(2)
        for spec in (S8, S128):
            for _ in range(50):
                x = spec.random_int(rng)
                assert spec.mul(x, 1) == x
                assert spec.mul(x, 0) == 0

    def test_exhaustive_oracle_n8(self):
        mul8 = S8.mul
        for a in range(256):
            for b in range(256):
                assert mul8(a, b) == schoolbook_mul(a, b, 8, 0x1B)

    def test_fast_path_matches_generic_loop_n128(self):
        rng = random.Random(3)
        for _ in range(500):
            a, b = S128.random_int(rng), S128.random_int(rng)
            assert S128.mul(a, b) == schoolbook_mul(a, b, 128, 0x87)

    def test_oracle_sample_n128(self):
        rng = random.Random(4)
        for _ in range(50):
            a, b = S128.random_int(rng), S128.random_int(rng)
            assert S128.mul(a, b) == schoolbook_mul(a, b, 128, 0x87)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 2**128 - 1), b=st.integers(0, 2**128 - 1),
       c=st.integers(0, 2**128 - 1))
def test_field_axioms_n128(a, b, c):
    mul = S128.mul
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
def test_field_axioms_n8(a, b, c):
    mul = S8.mul
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


class TestInv:
    def test_one(self):
        for spec in (S8, S128):
            assert spec.inv(1) == 1

    def test_zero_raises(self):
        for spec in (S8, S128):
            with pytest.raises(NonInvertibleError):
                spec.inv(0)

    def test_exhaustive_n8(self):
        for a in range(1, 256):
            assert S8.mul(a, S8.inv(a)) == 1

    def test_random_n128(self):
        rng = random.Random(5)
        for _ in range(300):
            a = S128.random_int(rng, nonzero=True)
            assert S128.mul(a, S128.inv(a)) == 1

    def test_batch_matches_scalar(self):
        rng = random.Random(6)
        values = [S128.random_int(rng, nonzero=True) for _ in range(257)]
        batch = batch_inverse(S128, values)
        for v, bv in zip(values, batch):
            assert S128.mul(v, bv) == 1

    def test_batch_zero_raises_with_index(self):
        values = [3, 5, 0, 7]
        with pytest.raises(NonInvertibleError, match="index 2"):
            batch_inverse(S8, values)

    def test_batch_empty(self):
        assert batch_inverse(S128, []) == []


class TestCanonicality:
    def test_outputs_fit_in_n_bits(self):
        rng = random.Random(7)
        for spec in (S8, S128):
            mask = spec.mask
            for _ in range(200):
                a = spec.random_int(rng)
                b = spec.random_int(rng)
                assert spec.mul(a, b) <= mask
            assert spec.mul(mask, mask) <= mask
            assert spec.inv(mask) <= mask


class TestRandomElement:
    def test_bit_balance_per_position(self):
        """10^6 draws of `random_int` at n=128: every bit position within
        3 sigma of 1/2.

        sigma = sqrt(N/4) = 500 for N = 10^6; a fixed seed makes the check
        deterministic (the expected number of 3-sigma excursions over 128
        positions is ~0.35, and this seed has none).
        """
        import numpy as np

        n_draws = 1_000_000
        rng = random.Random(314159)
        draw, encode = S128.random_int, S128.encode
        raw = bytearray()
        for _ in range(n_draws):
            raw += encode(draw(rng))
        bits = np.unpackbits(np.frombuffer(bytes(raw), dtype=np.uint8))
        counts = bits.reshape(n_draws, 128).sum(axis=0)
        sigma = (n_draws / 4) ** 0.5
        lo, hi = n_draws / 2 - 3 * sigma, n_draws / 2 + 3 * sigma
        assert counts.min() >= lo and counts.max() <= hi, \
            (counts.min(), counts.max())

    def test_seeded_reproducible(self):
        a = [S128.random_int(random.Random(42)) for _ in range(5)]
        b = [S128.random_int(random.Random(42)) for _ in range(5)]
        # same fresh seed, same first draw
        assert a[0] == b[0]
        assert _draw(42, 20) == _draw(42, 20)

    def test_nonzero_flag(self):
        rng = random.Random(0)
        for _ in range(2000):
            assert S8.random_int(rng, nonzero=True) != 0

    def test_range(self):
        rng = random.Random(1)
        for _ in range(100):
            assert 0 <= S128.random_int(rng) < (1 << 128)


def _draw(seed, count):
    rng = random.Random(seed)
    return [S128.random_int(rng) for _ in range(count)]


class TestFieldElement:
    """Elements are ints; their canonical byte form."""

    def test_bytes_roundtrip_little_endian_bit_order(self):
        raw = S128.encode(1)  # coefficient of x^0 lives in the first byte
        assert len(raw) == 16 and raw[0] == 1 and raw[1:] == b"\x00" * 15
        rng = random.Random(8)
        for _ in range(50):
            v = S128.random_int(rng)
            assert S128.decode(S128.encode(v)) == v

    def test_decode_wrong_length(self):
        with pytest.raises(FieldError):
            S128.decode(b"\x00" * 15)


TABLE_SPECS = [FieldSpec(n) for n in DEFAULT_POLYS]


@st.composite
def spread_operands(draw):
    """A table field, and two operands that include the edge values 0, 1
    and the all-ones mask."""
    spec = draw(st.sampled_from(TABLE_SPECS))
    value = st.one_of(st.sampled_from([0, 1, spec.mask]), st.integers(0, spec.mask))
    return spec, draw(value), draw(value)


@settings(max_examples=500, deadline=None)
@given(spread_operands())
def test_spread_mul_matches_generic(operands):
    """The spread multiply and the schoolbook shift-and-reduce oracle give
    one product in every table field."""
    spec, a, b = operands
    assert spec.mul(a, b) == schoolbook_mul(a, b, spec.n, spec.poly)


@settings(max_examples=300, deadline=None)
@given(spread_operands())
def test_compact_inverts_spread(operands):
    """The gather compaction reads back every value the spread conversion
    wrote, the edge values 0, 1 and the all-ones mask among them."""
    spec, a, b = operands
    for v in (a, b):
        assert spec._compact(spec._spread(v)) == v


# block lengths on either side of `FieldSpec.fold`'s 256-round seams and of
# the 1024-round block edge
FOLD_EDGE_COUNTS = (255, 256, 257, 511, 512, 513, 1023, 1024, 1025)


@st.composite
def fold_blocks(draw):
    """A table field, a start value of 0, 1 or any, and a block of 0, 1,
    many or `FOLD_EDGE_COUNTS` (x, y) pairs in which x is often 0. A long
    block's pairs come from a generator with a drawn seed, so that it fits
    in one example's data, and its x is 0 at drawn rounds next to a seam."""
    spec = draw(st.sampled_from(TABLE_SPECS))
    value = st.integers(0, spec.mask)
    a = draw(st.one_of(st.sampled_from([0, 1]), value))
    count = draw(st.one_of(st.sampled_from((0, 1) + FOLD_EDGE_COUNTS), st.integers(2, 40)))
    if count <= 40:
        x = st.one_of(st.just(0), value)
        return spec, a, draw(st.lists(st.tuples(x, value), min_size=count, max_size=count))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(spec.random_int(rng), spec.random_int(rng)) for _ in range(count)]
    for i in draw(st.lists(st.sampled_from([254, 255, 256, 511, 512]), max_size=2)):
        if i < count:
            pairs[i] = (0, pairs[i][1])
    return spec, a, pairs


def _block_edge_examples(test):
    """`test` with explicit examples: a block of each of `FOLD_EDGE_COUNTS`
    (x, y) pairs at every table width, with x = 0 at the last round before
    the first seam in the 511..513 blocks and at the first round after it
    in the 1023..1025 blocks."""
    rng = random.Random(257)
    for spec in TABLE_SPECS:
        for count in FOLD_EDGE_COUNTS:
            pairs = [(spec.random_int(rng), spec.random_int(rng)) for _ in range(count)]
            if count > 500:
                i = 255 if count < 1000 else 256
                pairs[i] = (0, pairs[i][1])
            test = example((spec, spec.random_int(rng), pairs))(test)
    return test


def fold_records(spec: FieldSpec, a: int, pairs: list[tuple[int, int]]) -> int | None:
    """`fold` from a over `pairs` as one slice of encoded x||y records."""
    data = b"".join(spec.encode(x) + spec.encode(y) for x, y in pairs)
    return spec.fold(a, [(data, 0, 2 * spec.element_bytes)])


def mul_loop(spec: FieldSpec, a: int, pairs: list[tuple[int, int]]) -> int | None:
    """The chain a <- x*a XOR y over `pairs` by the per-pair `mul` loop, or
    None, as `fold` gives, when some x is zero."""
    if any(x == 0 for x, _ in pairs):
        return None
    for x, y in pairs:
        a = spec.mul(x, a) ^ y
    return a


def assert_fold_is_mul_loop(spec: FieldSpec, a: int, pairs: list[tuple[int, int]]) -> None:
    """`fold` and the `mul` loop agree over `pairs`, and again with each zero
    x set to 1, so a block whose x is 0 at a seam still checks a value there."""
    assert fold_records(spec, a, pairs) == mul_loop(spec, a, pairs)
    ones = [(x or 1, y) for x, y in pairs]
    assert fold_records(spec, a, ones) == mul_loop(spec, a, ones)


@settings(max_examples=300, deadline=None)
@given(fold_blocks())
@_block_edge_examples
def test_fold_matches_mul_loop(block):
    """`fold` runs a <- x*a XOR y over a block's encoded x and y records
    exactly as the per-pair `mul` loop does, and gives None when some x is
    zero."""
    assert_fold_is_mul_loop(*block)


# block lengths that `FieldSpec.fold` pads to whole lanes: either side of
# 1024 (no lanes | 512 lanes) and 2048 (512 | 1024 lanes), the 1808-round
# tail of a 10,000-round file, 3 lanes' worth and 5 rounds, and either side
# of an 8192-round buffer
LANE_COUNTS = (1023, 1024, 1025, 1808, 2047, 2048, 2049, 3 * 1024 + 5, 8191, 8192, 8193)


def lane_seams(count: int) -> tuple[int, ...]:
    """The rounds (0-based) on either side of the first and a middle lane
    seam of a `count`-round fold, the first round of its last lane, and its
    last real round, which the padding follows. Below `_FOLD_LANES` rounds,
    where no lanes are composed, each round stands for a lane."""
    lanes = _fold_lanes(count) or count
    L = _padded_rounds(count) // lanes
    mid = lanes // 2 * L
    return (L - 1, L, mid - 1, mid, (lanes - 1) * L, count - 1)


@st.composite
def lane_blocks(draw):
    """n=8 or n=128, a start value, and a block of `LANE_COUNTS` (x, y)
    pairs from a generator with a drawn seed, x = 0 at up to three drawn
    rounds of `lane_seams`."""
    spec = draw(st.sampled_from([S8, S128]))
    count = draw(st.sampled_from(LANE_COUNTS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(spec.random_int(rng), spec.random_int(rng)) for _ in range(count)]
    for i in draw(st.lists(st.sampled_from(lane_seams(count)), max_size=3)):
        if i < count:
            pairs[i] = (0, pairs[i][1])
    return spec, spec.random_int(rng), pairs


def _lane_edge_examples(test):
    """`test` with explicit examples: two blocks of each of `LANE_COUNTS`
    pairs at n=8 and n=128, one with x = 0 at the last real round before
    the padding, one with x = 0 at the last round of the first lane. A zero
    challenge wipes out every round before it, so each block has one."""
    rng = random.Random(1024)
    for spec in (S8, S128):
        for count in LANE_COUNTS:
            for i in (count - 1, lane_seams(count)[0]):
                pairs = [(spec.random_int(rng), spec.random_int(rng)) for _ in range(count)]
                pairs[i] = (0, pairs[i][1])
                test = example((spec, spec.random_int(rng), pairs))(test)
    return test


@settings(max_examples=40, deadline=None)
@given(lane_blocks())
@_lane_edge_examples
def test_fold_lanes_match_mul_loop(block):
    """From `_FOLD_LANES` rounds on, where `fold` pads the block with
    identity steps to whole lanes, composes each lane into one map and
    joins the lanes, it still runs a <- x*a XOR y as the per-pair `mul`
    loop does, and finds a zero challenge at any lane seam or at the last
    round before the padding."""
    assert_fold_is_mul_loop(*block)


def test_padded_rounds_fill_whole_lanes_within_a_fold_buffer():
    """`_padded_rounds` leaves a block below `_FOLD_LANES` rounds as it is,
    pads any longer one to whole lanes of `_fold_lanes`, never past the
    next multiple of `_FOLD_LANES` (so never past a buffer of `fold`), and
    gives a padded block back unchanged."""
    for r in range(1, _FOLD_ROUNDS + 1):
        p = _padded_rounds(r)
        lanes = _fold_lanes(r)
        if r < _FOLD_LANES:
            assert lanes == 0 and p == r
        else:
            assert lanes == (_FOLD_LANES if r >= 2 * _FOLD_LANES else _FOLD_LANES // 2)
            assert p % lanes == 0 and r <= p < r + lanes
            assert p <= -(-r // _FOLD_LANES) * _FOLD_LANES
        assert _padded_rounds(p) == p
    assert _FOLD_ROUNDS % _FOLD_LANES == 0


# slices, in rounds, of one `fold` stream whose buffers fill across their
# edges: the first two fill one buffer exactly, the third fills the second
# and carries one round into the third, and the last, longer than two
# buffers, completes the third, fills the fourth and leaves 3008 rounds to
# pad
CARRY_SLICES = (1, 8191, 8193, 3000, 2 * _FOLD_ROUNDS + 7)
CARRY_ROUNDS = sum(CARRY_SLICES)

# the rounds (0-based) given a zero x: the first, either side of each buffer
# edge, and the last, which the padding follows
CARRY_ZEROS = (0, *(edge + d for edge in range(_FOLD_ROUNDS, CARRY_ROUNDS, _FOLD_ROUNDS)
                    for d in (-1, 0)), CARRY_ROUNDS - 1)


def carry_stream(spec: FieldSpec, pairs: list[tuple[int, int]]) -> list[tuple[bytes, int, int]]:
    """`pairs` cut into `CARRY_SLICES` slices of records that hold x at a
    different offset and stride in each slice, with a partial record after
    the last whole one that `fold` must not read."""
    eb, slices, done = spec.element_bytes, [], 0
    for i, count in enumerate(CARRY_SLICES):
        at, stride = i % 3, i % 3 + 2 * eb + 5 * (i % 2)
        tail = bytes(stride - at - 2 * eb)
        data = b"".join(bytes(at) + spec.encode(x) + spec.encode(y) + tail
                        for x, y in pairs[done:done + count])
        slices.append((data + bytes(stride - 1), at, stride))
        done += count
    return slices


@pytest.mark.parametrize("spec", [S8, S128], ids=["n8", "n128"])
@pytest.mark.parametrize("zero", [None, *CARRY_ZEROS])
def test_fold_carries_slices_across_buffer_edges(spec, zero):
    """A stream of uneven slices that cross `fold`'s buffer edges runs the
    chain as the per-pair `mul` loop does, and gives None exactly when an x
    is zero: in the first round, on either side of each buffer edge, or in
    the last round before the padding."""
    rng = random.Random(CARRY_ROUNDS if zero is None else zero)
    pairs = [(spec.random_int(rng, nonzero=True), spec.random_int(rng))
             for _ in range(CARRY_ROUNDS)]
    if zero is not None:
        pairs[zero] = (0, pairs[zero][1])
    a = spec.random_int(rng)
    folded = spec.fold(a, carry_stream(spec, pairs))
    assert folded == mul_loop(spec, a, pairs)
    assert (folded is None) == (zero is not None)


# the most lanes, a multiple of 8, whose planes `_plane_mul` stacks k times
# for k = 1, 2 and 3, n=128's three Karatsuba levels: 2048 (the fold's P|Q
# planes), 680 and 224 lanes at a cap of 6144 bits
STACK_EDGES = tuple(_STACK_BITS // 3**k // 8 * 8 for k in (1, 2, 3))

# lane counts on both sides of every stacking edge, from 8 to 8192, with
# the 1024 of a 512-lane fold's P|Q planes on the way
PLANE_LANES = (8, *(w + d for w in STACK_EDGES for d in (0, 8)), 1024, 8192)


def _element_values(spec: FieldSpec, rng: random.Random, count: int) -> list[int]:
    """`count` elements from `rng`, a quarter of them 0, 1 or the all-ones mask."""
    edge = [0, 1, spec.mask]
    return [rng.choice(edge) if rng.random() < 0.25 else rng.getrandbits(spec.n)
            for _ in range(count)]


def _bit_planes(elements: list[int], n: int) -> list[int]:
    """The n bit planes of `elements`, by strings: bit j of plane i is bit
    i of element j."""
    rows = [format(e, f"0{n}b")[::-1] for e in reversed(elements)]
    return [int("".join(row[i] for row in rows), 2) for i in range(n)]


def _stack_edge_examples(test):
    """`test` with explicit examples: every table width at every `PLANE_LANES`."""
    for spec in TABLE_SPECS:
        for lanes in PLANE_LANES:
            test = example((spec, lanes, lanes))(test)
    return test


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.sampled_from(TABLE_SPECS),
                 st.one_of(st.sampled_from(PLANE_LANES), st.integers(8, 8192)),
                 st.integers(0, 2**32 - 1)))
@_stack_edge_examples
def test_plane_mul_matches_schoolbook(case):
    """The reduced planes of `_plane_mul` are the planes of the products
    that the schoolbook oracle gives lane by lane, whether the half
    products are stacked into wider planes or not, with no bit at or above
    lane `lanes`."""
    spec, lanes, seed = case
    rng = random.Random(seed)
    xs, ys = _element_values(spec, rng, lanes), _element_values(spec, rng, lanes)
    c = spec._reduce(_plane_mul(_bit_planes(xs, spec.n), _bit_planes(ys, spec.n), lanes))
    expected = [schoolbook_mul(x, y, spec.n, spec.poly) for x, y in zip(xs, ys)]
    assert c == _bit_planes(expected, spec.n)


# answer block sizes on both sides of every stacking edge: a block of r
# rounds is padded to -(-r // 8) * 8 lanes
STACK_EDGE_COUNTS = tuple(r for w in STACK_EDGES if w < 1024 for r in (w, w + 1, w + 7, w + 8))


@st.composite
def answer_blocks(draw):
    """A table field, a start value, and a block of (x, a) pairs, every
    element often 0, 1 or the all-ones mask. The block sizes reach a
    partial and a whole 8-lane transpose word, either side of 256 and 1024
    rounds and of every stacking edge. The elements come from a generator
    with a drawn seed, so the longest blocks fit in one example's data."""
    spec = draw(st.sampled_from(TABLE_SPECS))
    count = draw(st.sampled_from([1, 2, 7, 8, 9, 255, 256, 1023, 1024, 1025,
                                  *STACK_EDGE_COUNTS]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value() -> int:
        return rng.choice([0, 1, spec.mask]) if rng.random() < 0.25 else rng.getrandbits(spec.n)

    return spec, value(), [(value(), value()) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(answer_blocks())
def test_answers_match_schoolbook(block):
    """`answers` gives y_j = x_j*a_{j-1} XOR a_j from a_0 = a, as the
    schoolbook oracle and the per-round `mul` rule do element by element."""
    spec, a, pairs = block
    expected, by_mul, prev = [], [], a
    for x, a_j in pairs:
        expected.append(schoolbook_mul(x, prev, spec.n, spec.poly) ^ a_j)
        by_mul.append(spec.mul(x, prev) ^ a_j)
        prev = a_j
    xs = b"".join(spec.encode(x) for x, _ in pairs)
    secrets = b"".join(spec.encode(a_j) for _, a_j in pairs)
    assert by_mul == expected
    assert spec.answers(a, xs, secrets) == b"".join(spec.encode(y) for y in expected)


def test_answers_every_n8_pair():
    """One 65,536-round `answers` call at n=8 meets every (x, a_{j-1}) pair
    of GF(2^8): round j's x is j mod 256 and its a_{j-1} is j div 256, the
    secret a_j being the next round's a_{j-1}."""
    rounds = range(1 << 16)
    xs = bytes(j & 0xFF for j in rounds)
    secrets = bytes((j + 1) >> 8 & 0xFF for j in rounds)
    expected = bytes(schoolbook_mul(j & 0xFF, j >> 8, 8, S8.poly) ^ secrets[j] for j in rounds)
    assert S8.answers(0, xs, secrets) == expected


def test_answers_empty_and_unequal_blocks():
    assert S8.answers(1, b"", b"") == b""
    assert S8.fold(0x53, []) == 0x53
    assert S8.fold(0x53, [(b"", 0, 2)]) == 0x53
    with pytest.raises(FieldError):
        S8.answers(1, b"\x01\x02", b"\x01")
    with pytest.raises(FieldError):
        S8.fold(1, [(b"\x01\x02", 0, 1)])
    with pytest.raises(FieldError):
        S8.fold(1, [(b"\x01\x02\x03", 2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLE_SPECS), st.booleans(), st.integers(0, 2**64 - 1),
       st.one_of(st.sampled_from([0, 1, 256, 257]), st.integers(2, 3000)))
@example(S8, True, 8010, 3000)
def test_random_block_is_the_random_int_stream(spec, nonzero, seed, count):
    """`random_block` draws the encodings of `count` `random_int` calls and
    leaves the rng as they leave it; the explicit n=8 example redraws 11
    zeros."""
    by_int, by_block = random.Random(seed), random.Random(seed)
    expected = b"".join(spec.encode(spec.random_int(by_int, nonzero)) for _ in range(count))
    assert spec.random_block(by_block, count, nonzero) == expected
    assert by_block.getstate() == by_int.getstate()


class _ScriptedBytes:
    """An rng whose `randbytes` hands out a fixed byte stream in order."""

    def __init__(self, stream: bytes):
        self.stream = stream

    def randbytes(self, size: int) -> bytes:
        out, self.stream = self.stream[:size], self.stream[size:]
        return out


def test_random_block_drops_aligned_zero_elements_only():
    """At n=32 an element is four stream bytes. 01000000 00000002 holds a
    zero run across its two elements, which is no zero element and is
    kept; an aligned zero element is dropped and the stream's next element
    takes its place. At n=16 an element is the last two bytes of a
    four-byte stream word: 0100 0002 and 0100 0003 0002 0004 hold zero runs
    across elements and are kept, and in 0100 0000 0003 the search skips
    the run at offset 1 and drops the zero element at offset 2."""
    spec = FieldSpec(32)
    one, two, zero, three = (spec.encode(v) for v in (1, 2 << 24, 0, 3))
    rng = _ScriptedBytes(one + two + zero + three + one)
    assert spec.random_block(rng, 2, nonzero=True) == one + two
    assert spec.random_block(rng, 2, nonzero=True) == three + one
    assert rng.stream == b""
    rng = _ScriptedBytes(zero + zero + one + zero + two)
    assert spec.random_block(rng, 2, nonzero=True) == one + two
    assert spec.random_block(_ScriptedBytes(zero), 1) == zero

    spec = FieldSpec(16)
    one, two, three, four = (spec.encode(v) for v in (1, 2 << 8, 3 << 8, 4 << 8))
    rng = _ScriptedBytes(b"".join(b"\xff\0" + e for e in (one, two, one, three, two, four)))
    assert spec.random_block(rng, 2, nonzero=True) == one + two
    assert spec.random_block(rng, 4, nonzero=True) == one + three + two + four
    zero = spec.encode(0)
    rng = _ScriptedBytes(b"".join(b"\xff\0" + e for e in (one, zero, three, zero, zero, four)))
    assert spec.random_block(rng, 3, nonzero=True) == one + three + four
    assert rng.stream == b""


def test_max_block_is_the_most_one_randbytes_call_draws():
    """`max_block` elements ask `randbytes` for at most 2^31 - 1 bits, the
    most `getrandbits` takes, and one more element overflows that call
    before a byte is drawn."""
    class Asked(Exception):
        pass

    class SizeOnly:
        def randbytes(self, size: int) -> bytes:
            raise Asked(size)

    for spec in TABLE_SPECS:
        with pytest.raises(Asked) as asked:
            spec.random_block(SizeOnly(), spec.max_block)
        assert 8 * asked.value.args[0] <= 2**31 - 1
        with pytest.raises(OverflowError):
            spec.random_block(random.Random(1), spec.max_block + 1)


def test_decode_block_reads_every_element():
    rng = random.Random(3)
    for spec in TABLE_SPECS:
        values = [spec.random_int(rng) for _ in range(300)] + [0, spec.mask]
        assert spec.decode_block(b"".join(map(spec.encode, values))) == values
    assert S8.decode_block(b"") == []
