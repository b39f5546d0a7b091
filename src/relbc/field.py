"""Arithmetic in GF(2^n): XOR addition, carry-less multiplication modulo an
irreducible polynomial, and inversion.

Elements are plain Python ints in canonical little-endian bit order (bit i is
the coefficient of x^i), always reduced below 2^n; addition is `^`. A
:class:`FieldSpec` is one row of the `DEFAULT_POLYS` table: `FieldSpec(n)`
takes only the width, n in {8, 16, 32, 64, 128}, and every layer multiplies,
inverts, draws and serializes elements through its methods. Every width is a
whole number of bytes, so every `element_bytes` string decodes to an element.

Draws: `random_block` draws a block of encoded elements from one
`randbytes` call, byte for byte the stream of one `random_int`
(`getrandbits(n)`) per element, and leaves the generator in the same state.
At n >= 32 that stream is `randbytes` itself; at n = 8 and 16 each draw
keeps the top n bits of one 32-bit word. A nonzero draw drops the block's
zero elements and draws as many again, which is what a per-element redraw
does; `zero_elements` finds them, as it finds a zero challenge in a tape's
bytes. `decode_block` turns a block back into ints, one bounded unpack per
256 elements.

Multiplication: operands are "spread" (each coefficient bit placed in its
own byte-wide slot), multiplied as ordinary integers (slot sums never exceed
255, so no carry crosses a slot boundary), and the product's per-slot
parities are the carry-less product. The spread form is built big-endian:
the characters of `bin(v)`, most significant digit first, map byte for byte
onto the slots ("0b" included, as two zero slots), so no string is reversed.

Compaction gathers the slots with one multiplication. A parity-collapsed
spread value sv holds coefficient i as bit 8i; times K = sum_{j=1..8} 2^{7j}
it puts that bit at 8i + 7j for each j. For j = 8 - (i mod 8) the bit lands
in bit i mod 8 of byte 8*(i div 8) + 7, so bytes 7, 15, 23, ... of the
product, read little-endian, are v's canonical encoding. No two (i, j) give
the same position (8(i - i') = 7(j' - j) has no solution with |j' - j| < 8
other than i = i'), so each product bit is one term and no carry reaches a
gathered byte.

Block kernels: `FieldSpec.fold` runs the verifier's chain a <- x*a XOR y
over a block's encoded x and y columns. A step is an affine map of a, and
maps compose: (P2, Q2) after (P1, Q1) is (P2*P1, P2*Q1 XOR Q2). A block of
r >= 2*`_FOLD_LANES` rounds is cut into `_FOLD_LANES` lanes of
L = r // `_FOLD_LANES` consecutive rounds, and `_lane_maps` composes each
lane's L steps into one (P, Q), bitsliced as `answers` is below: P and Q
lie side by side in planes 2*`_FOLD_LANES` bits wide, round j of every lane
is gathered into planes by strided slices of the columns, and a step is one
`_plane_mul` of both halves by the lanes' x planes, duplicated, reduced,
with the y planes XORed into the Q half: L - 1 multiplies for the block.
The spread loop then runs the chain over the lanes' maps, in lane order,
and over the r mod `_FOLD_LANES` rounds left (every round when L <= 1),
256 (`_DECODE_ELEMENTS`) at a time: one block spreader (`_spread_block`)
turns the two columns' slices into a list of spread ints, last element
first, by one `bin`/`translate` conversion, one `element_struct` unpack and
one `int.from_bytes` map. The loop walks that list with `zip`, pairing a
step's two columns, keeps the running a spread from the first step to the
last, and compacts it once. Each step's product and reduction are
`_smul`'s, the same as in `mul`.

`FieldSpec.answers` gives the honest answers y_j = x_j*a_{j-1} XOR a_j for a
block's encoded challenge and secret columns. These products do not depend
on each other, so it computes them bitsliced (Biham, FSE 1997): bit plane i
of a column is one int whose bit j is bit i of element j, so one AND or XOR
acts on every round of the block. Elements become planes (`_planes`, which
`fold` shares) by strided byte slices, which lay byte b of every element
end to end, and an 8x8 bit transpose of every 64-bit word of that int at
once (SWAR, three masked swaps); the planes go back the same way. The
a_{j-1} planes are the secret planes moved up one lane, with a_0's bits in
lane 0. The x and a_{j-1} plane vectors are multiplied by Karatsuba down to
a 16-plane schoolbook of ANDs and XORs; the product planes at or above n
are folded back down by the table polynomial's taps (`_reduce`, which
`fold` shares), and the secret planes XORed in. The spread form and the
planes never leave this module: every other layer goes through `mul`,
`fold` or `answers`.
"""

from __future__ import annotations

import functools
import random
import struct
from itertools import repeat
from operator import and_, xor
from typing import Iterator, Sequence

class FieldError(Exception):
    """Base class for field arithmetic errors."""


class NonInvertibleError(FieldError):
    """Inversion of zero (or a non-unit) was requested."""


# The field table: each width's reduction polynomial, without its x^n term.
DEFAULT_POLYS = {
    8: 0x1B,     # x^8 + x^4 + x^3 + x + 1
    16: 0x2B,    # x^16 + x^5 + x^3 + x + 1
    32: 0x8D,    # x^32 + x^7 + x^3 + x^2 + 1
    64: 0x1B,    # x^64 + x^4 + x^3 + x + 1
    128: 0x87,   # x^128 + x^7 + x^2 + x + 1
}

# the characters of bin(v) -> byte slots, for the C-speed spread conversion;
# the "b" of its "0b" prefix becomes a zero slot
_BIN_TO_SLOTS = bytes.maketrans(b"01b", b"\x00\x01\x00")

# multiplier of the gather compaction (see the module docstring): slot i of a
# spread value, times this, lands in bit i mod 8 of byte 8*(i div 8) + 7
_GATHER = sum(1 << (7 * j) for j in range(1, 9))


@functools.lru_cache(maxsize=32)
def element_struct(eb: int, count: int) -> struct.Struct:
    """`count` encoded elements of `eb` bytes back to back, one field each:
    how tapes, record columns and `FieldSpec`'s spread slots are split."""
    return struct.Struct(f"{eb}s" * count)


# elements per `element_struct` unpack of `FieldSpec.decode_block` and per
# spread of `FieldSpec.fold`'s loop, whatever the block: it bounds the
# structs they cache, each unpack's tuple and the spread slots, 8 bytes an
# element byte. The loop spreads the 1024 lanes' maps of a composed fold and
# the rounds left over: at n=128, `verify_file`'s traced peak on a
# 32,000-round file is 785 KiB, and 1540 KiB when 1024 are spread at once.
_DECODE_ELEMENTS = 256

# lanes of `FieldSpec.fold`'s composition. At n=128 on one CPU an
# 8192-round fold takes 2.8 us a round on 512 lanes, 1.75 on 1024 and 1.65
# on 2048; but 2048 lanes take `verify_file`'s traced peak on a 32,000-round
# file from 785 to 1282 KiB, over its 1 MiB bound.
_FOLD_LANES = 1024

# the most bytes one `randbytes` call draws: it asks `getrandbits` for 8 bits
# a byte, and `getrandbits` takes its bit count as a C int
_RANDBYTES_MAX = (2**31 - 1) // 8


def zero_elements(data: bytes, eb: int) -> Iterator[int]:
    """The byte offsets of the zero elements in a block of `eb`-byte
    encodings, in order, found by searching the bytes: a zero run found at
    an offset that is no element boundary lies across two elements, and the
    search goes on from the next boundary."""
    zero = bytes(eb)
    i = data.find(zero)
    while i >= 0:
        if i % eb:
            i = data.find(zero, i - i % eb + eb)
        else:
            yield i
            i = data.find(zero, i + eb)


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of polynomial division over GF(2), ints as bit vectors."""
    mb = mod.bit_length()
    while a.bit_length() >= mb:
        a ^= mod << (a.bit_length() - mb)
    return a


# The 8x8 bit transpose of every 64-bit word of an int, as three swaps of
# ever larger blocks (Warren, "Hacker's Delight", 7-3): each step's shift, and
# the little-endian bytes of one word of its mask, which marks the bits that
# swap with the bits `shift` above them. No swap crosses a word.
_TRANSPOSE_STEPS = (
    (7, bytes.fromhex("aa00aa00aa00aa00")),
    (14, bytes.fromhex("cccc0000cccc0000")),
    (28, bytes.fromhex("f0f0f0f000000000")),
)


@functools.lru_cache(maxsize=8)
def _transpose_masks(size: int) -> tuple[int, ...]:
    """`_TRANSPOSE_STEPS`' masks over `size` bytes, a whole number of words."""
    return tuple(int.from_bytes(word * (size // 8), "little") for _, word in _TRANSPOSE_STEPS)


def _transpose8(data: bytes) -> bytes:
    """`data` with each 8-byte word's bits turned around, bit j of byte i
    becoming bit i of byte j, by `_TRANSPOSE_STEPS` on the whole int."""
    size = len(data)
    v = int.from_bytes(data, "little")
    for (shift, _), mask in zip(_TRANSPOSE_STEPS, _transpose_masks(size)):
        t = (v ^ v >> shift) & mask
        v ^= t ^ t << shift
    return v.to_bytes(size, "little")


def _planes(data: bytes, eb: int, lanes: int, start: int, step: int) -> list[int]:
    """The 8*eb bit planes of `lanes` encoded elements of `data`, the first
    at byte `start` and each `step` bytes after the last, `lanes` a multiple
    of 8: plane i is a `lanes`-bit int whose bit j is bit i of element j.
    The elements' byte planes (byte b of every element, by one strided
    slice) are laid end to end, so each word holds byte b of 8 elements;
    `_transpose8` puts bit t of those 8 in its byte t, so every eighth byte
    from t on is bit t of each byte plane in turn."""
    stop = start + lanes * step
    rows = _transpose8(b"".join([data[start + b:stop:step] for b in range(eb)]))
    q = lanes // 8
    planes = [0] * (8 * eb)
    for t in range(8):
        bits = rows[t::8]
        planes[t::8] = [int.from_bytes(bits[i:i + q], "little") for i in range(0, len(bits), q)]
    return planes


def _elements(planes: list[int], eb: int, lanes: int) -> bytes:
    """The column of `lanes` encoded elements whose bit planes are `planes`,
    the inverse of `_planes`."""
    q = lanes // 8
    rows = bytearray(lanes * eb)
    for t in range(8):
        rows[t::8] = b"".join([p.to_bytes(q, "little") for p in planes[t::8]])
    byte_planes = _transpose8(rows)
    col = bytearray(lanes * eb)
    for b in range(eb):
        col[b::eb] = byte_planes[b * lanes:(b + 1) * lanes]
    return bytes(col)


# plane vectors this long or shorter are multiplied by schoolbook
_SCHOOLBOOK_PLANES = 16


def _plane_mul(a: list[int], b: list[int]) -> list[int]:
    """The 2s-1 planes of the lane-wise carry-less products of two vectors
    of s planes, s a power of 2, unreduced: Karatsuba on the vectors'
    halves, a0*b0, a1*b1 and (a0+a1)*(b0+b1), down to `_SCHOOLBOOK_PLANES`,
    where each product plane is the XOR of the ANDs of its plane pairs."""
    s = len(a)
    if s <= _SCHOOLBOOK_PLANES:
        c = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            c[i:i + s] = map(xor, c[i:i + s], map(and_, b, repeat(ai)))
        return c
    h = s // 2
    lo = _plane_mul(a[:h], b[:h])
    hi = _plane_mul(a[h:], b[h:])
    mid = _plane_mul(list(map(xor, a[:h], a[h:])), list(map(xor, b[:h], b[h:])))
    out = lo + [0] + hi
    out[h:3 * h - 1] = map(xor, out[h:3 * h - 1], map(xor, map(xor, mid, lo), hi))
    return out


class FieldSpec:
    """The GF(2^n) of width ``n`` from the `DEFAULT_POLYS` table.

    ``poly`` is the table's reduction polynomial without its leading x^n
    term. Two specs compare equal iff their widths match.
    """

    __slots__ = (
        "n", "poly", "mask", "full_poly", "element_bytes",
        "_par_mask", "_lo_mask", "_s_poly", "_taps",
    )

    def __init__(self, n: int):
        if not isinstance(n, int) or n not in DEFAULT_POLYS:
            raise FieldError(f"no field of width n={n!r}; use one of {sorted(DEFAULT_POLYS)}")
        self.n = n
        self.poly = DEFAULT_POLYS[n]
        self.mask = (1 << n) - 1
        self.full_poly = self.poly | (1 << n)
        self.element_bytes = n // 8
        self._par_mask = int.from_bytes(b"\x01" * (2 * n), "little")
        self._lo_mask = (1 << (8 * n)) - 1
        self._s_poly = self._spread(self.poly)
        self._taps = [i for i in range(self.poly.bit_length()) if self.poly >> i & 1]

    # -- spread-domain primitives -----------------------------------------
    #
    # Spread form places coefficient i in byte slot i, counted from the least
    # significant byte. The carry-less product of two <=128-coefficient
    # polynomials then falls out of one ordinary integer multiplication:
    # per-slot sums stay below 256, so no carry ever crosses a slot, and
    # masking each slot to its low bit takes parities.
    # Values passed between these helpers are always parity-collapsed
    # (every slot is 0 or 1).

    def _spread(self, v: int) -> int:
        """Compact int -> spread form (coefficient i in byte slot i)."""
        return int.from_bytes(bin(v).encode().translate(_BIN_TO_SLOTS), "big")

    def _smul(self, sa: int, sb: int) -> int:
        """Reduced product of two parity-collapsed spread values."""
        p = (sa * sb) & self._par_mask
        hi = p >> (8 * self.n)
        while hi:
            # every table polynomial's tail has four terms, so a slot of
            # hi * _s_poly sums at most 4 ones and, with p & lo's 0 or 1, a
            # slot sum is at most 5: no carry crosses a slot, and one mask
            # after the add takes the parities
            p = ((p & self._lo_mask) + hi * self._s_poly) & self._par_mask
            hi = p >> (8 * self.n)
        return p

    def _compact(self, sv: int) -> int:
        """Spread form (parity-collapsed, at most n slots) -> compact int."""
        n = self.n
        return int.from_bytes((sv * _GATHER).to_bytes(n + 8, "little")[7:n:8], "little")

    # -- raw-int operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._compact(self._smul(self._spread(a), self._spread(b)))

    def _spread_block(self, block: bytes) -> list[int]:
        """Every element of a block of encodings in spread form, last element
        first, from one conversion. Read little-endian, the block is one int
        whose binary digits hold every element most significant bit first,
        which is the spread layout; the 0x01 byte past the block keeps bin()
        from dropping leading zeros, so the three slots of its "0b1" precede
        the elements' n slots each, and one `element_struct` unpack splits
        them."""
        slots = bin(int.from_bytes(block + b"\x01", "little")).encode().translate(_BIN_TO_SLOTS)
        count = len(block) // self.element_bytes
        return list(map(int.from_bytes, element_struct(self.n, count).unpack_from(slots, 3),
                        repeat("big")))

    def _reduce(self, c: list[int]) -> list[int]:
        """The n planes of a product's planes `c` reduced by the table
        polynomial: planes n and up are folded back down by its taps, all at
        once; a second pass folds the few that the taps carried past n."""
        n, taps = self.n, self._taps
        while len(c) > n:
            hi = c[n:]
            c = c[:n] + [0] * (len(hi) + taps[-1] - n)
            for t in taps:
                c[t:t + len(hi)] = map(xor, c[t:t + len(hi)], hi)
        return c

    def _lane_maps(self, xs: bytes, ys: bytes, L: int) -> bytes:
        """The affine maps a <- P*a XOR Q of the first L*`_FOLD_LANES` rounds
        of the x and y columns `xs` and `ys`, cut into `_FOLD_LANES` lanes of
        L consecutive rounds: every lane's P in lane order, then every Q,
        encoded. Plane
        bit w holds lane w's P and bit `_FOLD_LANES` + w its Q; a step
        (x, y) multiplies both halves by the lane's x, duplicated, in one
        `_plane_mul`, and XORs y into the Q half."""
        eb = self.element_bytes
        step = L * eb

        def planes(col: bytes, j: int) -> list[int]:  # round j of every lane
            return _planes(col, eb, _FOLD_LANES, j, step)

        pq = [p | q << _FOLD_LANES for p, q in zip(planes(xs, 0), planes(ys, 0))]
        for j in range(eb, step, eb):
            c = self._reduce(_plane_mul([p | p << _FOLD_LANES for p in planes(xs, j)], pq))
            pq = [ci ^ q << _FOLD_LANES for ci, q in zip(c, planes(ys, j))]
        return _elements(pq, eb, 2 * _FOLD_LANES)

    def fold(self, a: int, xs: bytes, ys: bytes) -> int:
        """Run the chain a <- x_j*a XOR y_j over a block of rounds; returns the
        last a.

        `xs` is x_1||...||x_r and `ys` y_1||...||y_r, each element in its
        canonical `element_bytes` encoding. With L = r // `_FOLD_LANES` >= 2,
        the first L*`_FOLD_LANES` rounds are cut into `_FOLD_LANES` lanes of
        L consecutive rounds, and each lane's steps are composed into one
        affine map (`_lane_maps`). The spread loop then runs the chain over
        the lanes' maps in order and over the r mod `_FOLD_LANES` rounds
        left (all r rounds when L <= 1), spreading `_DECODE_ELEMENTS` of them
        at a time; `a` stays spread from the first to the last.
        """
        if len(xs) != len(ys):
            raise FieldError(f"{len(xs)} challenge bytes for {len(ys)} answer bytes")
        eb = self.element_bytes
        L = len(xs) // (eb * _FOLD_LANES)
        if L > 1:
            maps = self._lane_maps(xs, ys, L)
            head = L * _FOLD_LANES * eb
            xs = maps[:_FOLD_LANES * eb] + xs[head:]
            ys = maps[_FOLD_LANES * eb:] + ys[head:]
        step = eb * _DECODE_ELEMENTS
        smul = self._smul
        sa = self._spread(a)
        for i in range(0, len(xs), step):
            s = self._spread_block(xs[i:i + step] + ys[i:i + step])  # y's, then x's, last first
            r = len(s) // 2
            for sx, sy in zip(reversed(s[r:]), reversed(s[:r])):
                sa = smul(sx, sa) ^ sy
            del s  # two slices' spread ints at once would add 60 KiB to the peak
        return self._compact(sa)

    def answers(self, a: int, xs: bytes, secrets: bytes) -> bytes:
        """The answers y_j = x_j*a_{j-1} XOR a_j of one block, from a_0 = a.

        `xs` is x_1||...||x_r and `secrets` a_1||...||a_r, each element in
        its canonical `element_bytes` encoding; returns y_1||...||y_r in the
        same encoding. The products do not depend on each other, so the
        block is computed bitsliced (see the module docstring): the columns
        become bit planes with one lane a round, padded to a multiple of 8;
        the a_{j-1} planes are the secret planes moved up one lane, with a's
        bits in lane 0; and every round's product comes out of one
        `_plane_mul` of the x and a_{j-1} planes.
        """
        if len(xs) != len(secrets):
            raise FieldError(f"{len(xs)} challenge bytes for {len(secrets)} secret bytes")
        eb = self.element_bytes
        r = len(xs) // eb
        if r == 0:
            return b""
        lanes = -(-r // 8) * 8
        pad = bytes((lanes - r) * eb)
        sp = _planes(secrets + pad, eb, lanes, 0, eb)
        full = (1 << lanes) - 1
        prev = [(p << 1 | a >> i & 1) & full for i, p in enumerate(sp)]
        c = self._reduce(_plane_mul(_planes(xs + pad, eb, lanes, 0, eb), prev))
        return _elements(list(map(xor, c, sp)), eb, lanes)[:r * eb]

    def inv(self, a: int) -> int:
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if a == 0:
            raise NonInvertibleError("zero has no multiplicative inverse")
        if a == 1:
            return 1
        u, v = a, self.full_poly
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return _poly_mod(g1, self.full_poly)

    def random_int(self, rng: random.Random, nonzero: bool = False) -> int:
        """One element drawn by `getrandbits(n)`, redrawn while zero if
        `nonzero`: the per-element reference that `random_block` draws
        byte for byte a block at a time."""
        v = rng.getrandbits(self.n)
        while nonzero and v == 0:
            v = rng.getrandbits(self.n)
        return v

    def _draw_block(self, rng: random.Random, count: int) -> bytes:
        """The encodings of `count` successive `getrandbits(n)` draws, from
        one `randbytes` call. `randbytes(r)` is `getrandbits(8r)` in
        little-endian bytes, built from 32-bit words, least significant
        first. At n >= 32 an element is whole words, so the stream is
        already the elements' encodings. Below 32, `getrandbits(n)` keeps
        the top n bits of one word: the last n/8 bytes of each 4."""
        eb = self.element_bytes
        if eb >= 4:
            return rng.randbytes(count * eb)
        words = rng.randbytes(4 * count)
        out = bytearray(count * eb)
        for i in range(eb):
            out[i::eb] = words[4 - eb + i::4]
        return bytes(out)

    @property
    def max_block(self) -> int:
        """The most elements one `random_block` call draws: `_draw_block`'s
        one `randbytes` call takes `max(element_bytes, 4)` bytes an element."""
        return _RANDBYTES_MAX // max(self.element_bytes, 4)

    def random_block(self, rng: random.Random, count: int, nonzero: bool = False) -> bytes:
        """The encodings of `count` elements, byte for byte what `count`
        `random_int` calls draw, and leaving `rng` in the same state.

        A zero is redrawn by the next element's worth of the stream, so the
        per-element output is the block stream with its zero elements
        dropped: a block with zeros keeps the slices between them, and more
        elements are drawn for the ones dropped. `zero_elements` finds them
        on the bytes.
        """
        eb = self.element_bytes
        data = self._draw_block(rng, count)
        if not nonzero:
            return data
        kept = []
        while zeros := list(zero_elements(data, eb)):
            start = 0
            for z in zeros:
                kept.append(data[start:z])
                start = z + eb
            kept.append(data[start:])
            data = self._draw_block(rng, len(zeros))
        kept.append(data)
        return b"".join(kept)

    def decode_block(self, data: bytes) -> list[int]:
        """Every element of a block of encodings, unpacked `_DECODE_ELEMENTS`
        at a time, so no struct or tuple the size of a long block is built."""
        eb = self.element_bytes
        out: list[int] = []
        for i in range(0, len(data), eb * _DECODE_ELEMENTS):
            count = min(_DECODE_ELEMENTS, (len(data) - i) // eb)
            out += map(int.from_bytes, element_struct(eb, count).unpack_from(data, i),
                       repeat("little"))
        return out

    # -- serialization ---------------------------------------------------

    def encode(self, v: int) -> bytes:
        """Canonical wire/file form: little-endian bytes, bit i = coeff of x^i."""
        return v.to_bytes(self.element_bytes, "little")

    def decode(self, data: bytes) -> int:
        if len(data) != self.element_bytes:
            raise FieldError(
                f"expected {self.element_bytes} bytes for an n={self.n} element, got {len(data)}"
            )
        return int.from_bytes(data, "little")

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"FieldSpec({self.n})"


def batch_inverse(spec: FieldSpec, values: Sequence[int]) -> list[int]:
    """Invert many elements with one EEA inversion (Montgomery's trick).

    Cost: 3 multiplications per element plus a single inversion. Raises
    NonInvertibleError if any input is zero.
    """
    prefix = [1] * (len(values) + 1)
    acc = 1
    for i, v in enumerate(values):
        if v == 0:
            raise NonInvertibleError(f"zero at batch index {i}")
        acc = spec.mul(acc, v)
        prefix[i + 1] = acc
    inv_acc = spec.inv(acc)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = spec.mul(inv_acc, prefix[i])
        inv_acc = spec.mul(inv_acc, values[i])
    return out
