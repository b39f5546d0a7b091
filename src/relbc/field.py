"""Arithmetic in GF(2^n): XOR addition, carry-less multiplication modulo an
irreducible polynomial, and inversion.

Elements are plain Python ints in canonical little-endian bit order (bit i is
the coefficient of x^i), always reduced below 2^n; addition is `^`. A
:class:`FieldSpec` pins the bit width and reduction polynomial, and every
layer multiplies, inverts, draws and serializes elements through its methods.

Multiplication fast path: for n <= 255 operands are "spread" (each coefficient
bit placed in its own byte-wide slot), multiplied as ordinary integers (slot
sums never exceed 255, so no carry crosses a slot boundary), and the product's
per-slot parities are the carry-less product. The spread form is built and
compacted big-endian: the binary digits of `bin(v)`, most significant first,
map byte for byte onto the slots, so neither conversion reverses a string.

Chain kernel: `FieldSpec.fold` runs a <- x*a XOR y over a block of encoded
(x, y) pairs. It spreads the whole block with one conversion and keeps the
accumulator spread from the first pair to the last, compacting it once; the
product and its reduction are `_smul`'s, the same as in `mul`. For n = 256
it falls back to `mul` per pair. The spread form still never leaves this
module: every other layer multiplies through `FieldSpec.mul` or folds
through `FieldSpec.fold`.
"""

from __future__ import annotations

import random
from typing import Sequence

class FieldError(Exception):
    """Base class for field arithmetic errors."""


class NonInvertibleError(FieldError):
    """Inversion of zero (or a non-unit) was requested."""


__all__ = [
    "FieldError",
    "NonInvertibleError",
    "FieldSpec",
    "batch_inverse",
    "gf2_128",
    "gf2_8",
    "DEFAULT_POLYS",
]


# Low parts (without the x^n term) of widely used irreducible polynomials.
# n <= 16 is re-checked exhaustively at construction; these entries are the
# accepted list for larger n.
DEFAULT_POLYS = {
    8: 0x1B,     # x^8 + x^4 + x^3 + x + 1
    16: 0x2B,    # x^16 + x^5 + x^3 + x + 1
    32: 0x8D,    # x^32 + x^7 + x^3 + x^2 + 1
    64: 0x1B,    # x^64 + x^4 + x^3 + x + 1
    128: 0x87,   # x^128 + x^7 + x^2 + x + 1
    256: 0x425,  # x^256 + x^10 + x^5 + x^2 + 1
}

_KNOWN_IRREDUCIBLE = {(n, p) for n, p in DEFAULT_POLYS.items()}

_MAX_SPREAD_N = 255  # slot sums must stay below 256 in the spread fast path

# bit chars <-> byte slots, for the C-speed spread/compact conversions
_BIN_TO_SLOTS = bytes.maketrans(b"01", b"\x00\x01")
_SLOTS_TO_BIN = bytes.maketrans(b"\x00\x01", b"01")


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of polynomial division over GF(2), ints as bit vectors."""
    mb = mod.bit_length()
    while a.bit_length() >= mb:
        a ^= mod << (a.bit_length() - mb)
    return a


def _is_irreducible_small(n: int, low: int) -> bool:
    """Exhaustive trial division for degree n <= 16."""
    full = low | (1 << n)
    if not low & 1:  # divisible by x
        return False
    for d in range(2, 1 << (n // 2 + 1)):
        if _poly_mod(full, d) == 0:
            return False
    return True


class FieldSpec:
    """Bit width and reduction polynomial defining one GF(2^n).

    ``poly`` is the reduction polynomial without its leading x^n term; the
    degree is implied by ``n``. Two specs compare equal iff (n, poly) match.
    """

    __slots__ = (
        "n", "poly", "mask", "full_poly", "element_bytes",
        "_spread_ok", "_slot_bytes", "_par_mask", "_lo_mask", "_s_poly",
    )

    def __init__(self, n: int, poly: int | None = None):
        if not isinstance(n, int) or n <= 0 or n > 1024:
            raise FieldError(f"bit width must be a positive integer <= 1024, got {n!r}")
        if poly is None:
            if n not in DEFAULT_POLYS:
                raise FieldError(f"no default reduction polynomial for n={n}")
            poly = DEFAULT_POLYS[n]
        if not isinstance(poly, int) or poly < 0 or poly.bit_length() > n:
            raise FieldError("reduction polynomial must fit below the x^n term")
        if n <= 16:
            if not _is_irreducible_small(n, poly):
                raise FieldError(f"x^{n} + 0x{poly:x} is reducible over GF(2)")
        elif (n, poly) not in _KNOWN_IRREDUCIBLE:
            raise FieldError(
                f"polynomial 0x{poly:x} for n={n} is not on the known-good "
                "irreducible list (exhaustive checking stops at n=16)"
            )
        self.n = n
        self.poly = poly
        self.mask = (1 << n) - 1
        self.full_poly = poly | (1 << n)
        self.element_bytes = (n + 7) // 8
        self._init_spread()

    def _init_spread(self) -> None:
        self._spread_ok = self.n <= _MAX_SPREAD_N
        if not self._spread_ok:
            return
        n = self.n
        self._slot_bytes = 8 * self.element_bytes  # a slot for every bit of an encoding
        self._par_mask = int.from_bytes(b"\x01" * (2 * n), "little")
        self._lo_mask = (1 << (8 * n)) - 1
        self._s_poly = self._spread(self.poly)

    # -- spread-domain primitives (internal fast path) --------------------
    #
    # Spread form places coefficient i in byte slot i, counted from the least
    # significant byte. The carry-less product of two <=255-coefficient
    # polynomials then falls out of one ordinary integer multiplication:
    # per-slot sums stay below 256, so no carry ever crosses a slot, and
    # masking each slot to its low bit takes parities.
    # Values passed between these helpers are always parity-collapsed
    # (every slot is 0 or 1).

    def _spread(self, v: int) -> int:
        """Compact int -> spread form (coefficient i in byte slot i)."""
        return int.from_bytes(bin(v)[2:].encode().translate(_BIN_TO_SLOTS), "big")

    def _smul(self, sa: int, sb: int) -> int:
        """Reduced product of two parity-collapsed spread values."""
        p = (sa * sb) & self._par_mask
        hi = p >> (8 * self.n)
        while hi:
            p = ((p & self._lo_mask) + ((hi * self._s_poly) & self._par_mask)) & self._par_mask
            hi = p >> (8 * self.n)
        return p

    def _compact(self, sv: int) -> int:
        """Spread form (parity-collapsed, at most 8 * element_bytes slots) ->
        compact int."""
        return int(sv.to_bytes(self._slot_bytes, "big").translate(_SLOTS_TO_BIN), 2)

    # -- raw-int operations ----------------------------------------------

    def validate(self, v: int) -> int:
        if not isinstance(v, int) or v < 0 or v > self.mask:
            raise FieldError(f"value does not fit in {self.n} bits: {v!r}")
        return v

    def mul(self, a: int, b: int) -> int:
        if self._spread_ok:
            return self._compact(self._smul(self._spread(a), self._spread(b)))
        return self._mul_generic(a, b)

    def fold(self, a: int, pairs: bytes) -> int:
        """Run the chain a <- x*a XOR y over a block of pairs; returns the last a.

        `pairs` is x_1||y_1||...||x_r||y_r, each element in its canonical
        `element_bytes` encoding. For n <= 255 the whole block is spread at
        once and `a` stays spread from the first pair to the last: read
        little-endian, the block is one int whose binary digits hold every
        element most significant bit first, which is the spread layout, so
        pair j sits 2j+1 and 2j+2 element widths from the end of the string.
        """
        eb = self.element_bytes
        if not self._spread_ok:
            fb = int.from_bytes
            for o in range(0, len(pairs), 2 * eb):
                a = self.mul(fb(pairs[o:o + eb], "little"), a) ^ fb(
                    pairs[o + eb:o + 2 * eb], "little")
            return a
        w = 8 * eb  # slots per element
        # the 0x01 byte past the block keeps bin() from dropping leading
        # zeros: three bytes from its "0b1" precede the block's slots in s
        s = bin(int.from_bytes(pairs + b"\x01", "little")).encode().translate(_BIN_TO_SLOTS)
        smul, fb = self._smul, int.from_bytes
        sa = self._spread(a)
        for j in range(len(s) - w, 3, -2 * w):  # s[j:j + w] is x, s[j - w:j] is y
            sa = smul(fb(s[j:j + w], "big"), sa) ^ fb(s[j - w:j], "big")
        return self._compact(sa)

    def _mul_generic(self, a: int, b: int) -> int:
        p = 0
        while b:
            low = b & -b
            p ^= a << (low.bit_length() - 1)
            b ^= low
        return self.reduce(p)

    def reduce(self, p: int) -> int:
        """Reduce a carry-less product below 2^n."""
        n, poly = self.n, self.poly
        hi = p >> n
        while hi:
            p &= self.mask
            while hi:
                low = hi & -hi
                p ^= poly << (low.bit_length() - 1)
                hi ^= low
            hi = p >> n
        return p

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
        v = rng.getrandbits(self.n)
        while nonzero and v == 0:
            v = rng.getrandbits(self.n)
        return v

    # -- serialization ---------------------------------------------------

    def encode(self, v: int) -> bytes:
        """Canonical wire/file form: little-endian bytes, bit i = coeff of x^i."""
        return v.to_bytes(self.element_bytes, "little")

    def decode(self, data: bytes) -> int:
        if len(data) != self.element_bytes:
            raise FieldError(
                f"expected {self.element_bytes} bytes for an n={self.n} element, got {len(data)}"
            )
        return self.validate(int.from_bytes(data, "little"))

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.n == other.n and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.n, self.poly))

    def __repr__(self) -> str:
        return f"FieldSpec(n={self.n}, poly=0x{self.poly:x})"


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


_CACHED_SPECS: dict[tuple[int, int], FieldSpec] = {}


def _cached_spec(n: int, poly: int) -> FieldSpec:
    key = (n, poly)
    spec = _CACHED_SPECS.get(key)
    if spec is None:
        spec = _CACHED_SPECS[key] = FieldSpec(n, poly)
    return spec


def gf2_128() -> FieldSpec:
    """The production field: GF(2^128) with x^128 + x^7 + x^2 + x + 1."""
    return _cached_spec(128, DEFAULT_POLYS[128])


def gf2_8() -> FieldSpec:
    """The exhaustively checkable test field: GF(2^8) with x^8+x^4+x^3+x+1."""
    return _cached_spec(8, DEFAULT_POLYS[8])
