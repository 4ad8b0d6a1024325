"""Arithmetic in GF(2^p) and its faithful binary-matrix representation.

Field elements are integers in [0, 2^p): bit j of the integer is the
coefficient of alpha^j in the polynomial basis, so the integer doubles
as the coefficient column vector of the element.  Multiplication runs
on log/antilog tables built from a primitive polynomial.

Every element also has a p x p binary image (the multiply-by-x linear
map in the polynomial basis).  The image of alpha is the companion
matrix of the primitive polynomial; the map preserves sums and
products, which is what lets a non-binary parity-check pair expand to
an orthogonal binary pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DegreeOutOfRange(ValueError):
    """Extension degree outside the supported range [2, 16]."""


class NonPrimitivePolynomial(ValueError):
    """x is not a generator of the multiplicative group mod the polynomial."""


# Default primitive polynomials, one per extension degree.  Stored as the
# bitmask of coefficients below the leading term (bit i = pi_i, the x^p
# term is implicit).  p=4 is x^4 + x + 1 so that exported matrices match
# the reference GF(16) tables; the rest are the classic minimum-weight
# choices from standard primitive-polynomial lists.
DEFAULT_POLY = {
    2: 0b11,          # x^2 + x + 1
    3: 0b011,         # x^3 + x + 1
    4: 0b0011,        # x^4 + x + 1
    5: 0b00101,       # x^5 + x^2 + 1
    6: 0b000011,      # x^6 + x + 1
    7: 0b0001001,     # x^7 + x^3 + 1
    8: 0b00011101,    # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x011,         # x^9 + x^4 + 1
    10: 0x009,        # x^10 + x^3 + 1
    11: 0x005,        # x^11 + x^2 + 1
    12: 0x053,        # x^12 + x^6 + x^4 + x + 1
    13: 0x01B,        # x^13 + x^4 + x^3 + x + 1
    14: 0x443,        # x^14 + x^10 + x^6 + x + 1
    15: 0x003,        # x^15 + x + 1
    16: 0x100B,       # x^16 + x^12 + x^3 + x + 1
}


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """GF(2^p) with precomputed log/antilog tables.

    Immutable after construction; all operations are pure, so a single
    instance is safely shared across workers.
    """

    p: int
    poly: int                      # coefficient mask below x^p
    q: int
    exp_table: np.ndarray          # exp_table[i] = alpha^i, i in [0, q-1)
    log_table: np.ndarray          # log_table[v] = log_alpha v, v in [1, q)
    _transpose_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def same_field(self, other: "FieldSpec") -> bool:
        return self.p == other.p and self.poly == other.poly

    # -- element arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Characteristic-2 addition (XOR of coefficient vectors)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(int(self.log_table[a]) + int(self.log_table[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.exp_table[(-int(self.log_table[a])) % (self.q - 1)])

    def log(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("log of 0 is undefined")
        return int(self.log_table[a])

    def exp(self, k: int) -> int:
        """alpha^k for any integer k (reduced mod q-1)."""
        return int(self.exp_table[k % (self.q - 1)])

    # -- binary-matrix representation ---------------------------------------

    def companion(self, x: int) -> np.ndarray:
        """p x p binary image of x: column j is the bit vector of x * alpha^j.

        companion(0) is the zero matrix, companion(1) the identity, and
        companion(alpha) the companion matrix of the primitive polynomial
        (subdiagonal of ones, last column the coefficient mask).  The map
        satisfies companion(x) @ v(y) = v(x*y) over GF(2).
        """
        mat = np.zeros((self.p, self.p), dtype=np.uint8)
        for j in range(self.p):
            w = self.mul(x, 1 << j)
            for i in range(self.p):
                mat[i, j] = (w >> i) & 1
        return mat

    def companion_transpose(self, x: int) -> np.ndarray:
        """Transpose of companion(x); the image used for the second matrix
        of a CSS pair and for its decoder."""
        return self.companion(x).T.copy()

    # -- index maps on [0, q) -----------------------------------------------
    # The action of companion(x) on coefficient vectors, viewed as a
    # permutation of symbol values.  These drive the decoder and the
    # syndrome map without materialising any matrices.

    def mul_index_table(self, x: int) -> np.ndarray:
        """perm[e] = x * e: the action of companion(x) on symbols."""
        return self.symbol_maps([x])[0]

    def transpose_index_table(self, x: int) -> np.ndarray:
        """perm[e] = companion(x)^T applied to the bit vector of e."""
        cached = self._transpose_cache.get(x)
        if cached is None:
            cached = self._transpose_cache[x] = self.symbol_maps([x], transpose=True)[0]
        return cached

    def unit_images(self, values, transpose: bool = False) -> np.ndarray:
        """(len(values), p) array: entry [i, j] is the symbol that
        companion(values[i]), or its transpose, maps the unit vector
        1 << j to, i.e. column j of that matrix as a bit vector.

        0 maps every unit vector to 0 (the zero matrix).
        """
        values = np.asarray(values, dtype=np.int64)
        p, q = self.p, self.q
        # column j of companion(v) is the bit vector of v * alpha^j
        images = self.exp_table[(self.log_table[values][:, None] + np.arange(p)) % (q - 1)]
        images[values == 0] = 0
        if transpose:           # unit vector i maps to row i of companion(v)
            bits = (images[:, None, :] >> np.arange(p)[:, None]) & 1
            images = (bits << np.arange(p)).sum(axis=2)
        return images

    def symbol_maps(self, values, transpose: bool = False) -> np.ndarray:
        """(len(values), q) tables: row i is the action of companion(values[i]),
        or of its transpose, on symbols.

        Both actions are GF(2)-linear, so each row is filled by doubling
        from the images of the p unit vectors.
        """
        values = np.asarray(values, dtype=np.int64)
        if (values == 0).any():
            raise ZeroDivisionError("0 does not act as a permutation")
        p, q = self.p, self.q
        images = self.unit_images(values, transpose)
        maps = np.zeros((len(values), q), dtype=np.int64)
        for i in range(p):
            maps[:, 1 << i:2 << i] = maps[:, :1 << i] ^ images[:, i, None]
        return maps


def make_field(p: int, poly: int | None = None) -> FieldSpec:
    """Build GF(2^p) from a primitive polynomial.

    `poly` is the coefficient bitmask below the leading term; passing the
    full polynomial with bit p set is also accepted.  Omitted, the
    built-in default for p is used.  Primitivity is verified by an
    exhaustive order check on x.
    """
    if not 2 <= p <= 16:
        raise DegreeOutOfRange(f"p={p} outside [2, 16]")
    q = 1 << p
    if poly is None:
        poly = DEFAULT_POLY[p]
    if poly >> p == 1:
        poly ^= q                   # strip an explicit leading term
    if not 0 <= poly < q:
        raise NonPrimitivePolynomial(f"polynomial mask {poly:#x} has degree != {p}")

    exp_table = np.zeros(q - 1, dtype=np.int64)
    log_table = np.zeros(q, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        if v == 0 or (i > 0 and v == 1):
            raise NonPrimitivePolynomial(
                f"x has order {i} < {q - 1} mod {poly:#x} + x^{p}")
        exp_table[i] = v
        log_table[v] = i
        v <<= 1
        if v & q:
            v ^= q | poly
    if v != 1 or len(set(exp_table.tolist())) != q - 1:
        raise NonPrimitivePolynomial(
            f"x does not generate the multiplicative group mod {poly:#x} + x^{p}")
    return FieldSpec(p=p, poly=poly, q=q, exp_table=exp_table, log_table=log_table)
