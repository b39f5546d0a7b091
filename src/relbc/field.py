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
over a block's encoded x and y columns, and `FieldSpec.answers` gives the
honest answers y_j = x_j*a_{j-1} XOR a_j for a block's encoded challenge
and secret columns. Each concatenates its two columns and spreads them with
one block spreader (`_spread_block`): one `bin`/`translate` conversion, one
`element_struct` unpack that splits the slots into elements, and one
`int.from_bytes` map, so the result is a list of spread ints, last element
first. Each kernel walks that list with `zip`, pairing round j's two
columns, and keeps the running a spread from the first round to the last;
`fold` compacts it once, and `answers` gathers each answer straight into
its encoding. The product and its reduction are `_smul`'s, the same as in
`mul`. The spread form never leaves this module: every other layer goes
through `mul`, `fold` or `answers`.
"""

from __future__ import annotations

import functools
import random
import struct
from itertools import repeat
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


# elements per `element_struct` unpack of `FieldSpec.decode_block`, which
# bounds the structs it builds and caches, and the tuple each unpack makes
_DECODE_ELEMENTS = 256

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


class FieldSpec:
    """The GF(2^n) of width ``n`` from the `DEFAULT_POLYS` table.

    ``poly`` is the table's reduction polynomial without its leading x^n
    term. Two specs compare equal iff their widths match.
    """

    __slots__ = (
        "n", "poly", "mask", "full_poly", "element_bytes",
        "_par_mask", "_lo_mask", "_s_poly",
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

    def fold(self, a: int, xs: bytes, ys: bytes) -> int:
        """Run the chain a <- x_j*a XOR y_j over a block of rounds; returns the
        last a.

        `xs` is x_1||...||x_r and `ys` y_1||...||y_r, each element in its
        canonical `element_bytes` encoding. Both columns are spread by one
        `_spread_block`, and `a` stays spread from the first round to the
        last.
        """
        if len(xs) != len(ys):
            raise FieldError(f"{len(xs)} challenge bytes for {len(ys)} answer bytes")
        r = len(xs) // self.element_bytes
        s = self._spread_block(xs + ys)  # y_r..y_1, then x_r..x_1
        smul = self._smul
        sa = self._spread(a)
        for sx, sy in zip(reversed(s[r:]), reversed(s[:r])):
            sa = smul(sx, sa) ^ sy
        return self._compact(sa)

    def answers(self, a: int, xs: bytes, secrets: bytes) -> bytes:
        """The answers y_j = x_j*a_{j-1} XOR a_j of one block, from a_0 = a.

        `xs` is x_1||...||x_r and `secrets` a_1||...||a_r, each element in
        its canonical `element_bytes` encoding; returns y_1||...||y_r in the
        same encoding. Both columns are spread by one `_spread_block`, each
        a_j stays spread as the next round's a_{j-1}, and each answer is
        gathered into its encoding by one multiplication.
        """
        if len(xs) != len(secrets):
            raise FieldError(f"{len(xs)} challenge bytes for {len(secrets)} secret bytes")
        w = self.n
        r = len(xs) // self.element_bytes
        s = self._spread_block(xs + secrets)  # a_r..a_1, then x_r..x_1
        smul = self._smul
        sa = self._spread(a)
        ys = []
        for sx, sn in zip(reversed(s[r:]), reversed(s[:r])):
            ys.append(smul(sx, sa) ^ sn)
            sa = sn
        return b"".join([(y * _GATHER).to_bytes(w + 8, "little")[7:w:8] for y in ys])

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
