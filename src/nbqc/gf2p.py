"""Arithmetic in GF(2^p) and its faithful binary-matrix representation.

Field elements are integers in [0, 2^p): bit j of the integer is the
coefficient of alpha^j in the polynomial basis, so the integer doubles
as the coefficient column vector of the element.  The field keeps one
table, the powers of alpha (the antilogs), built from a primitive
polynomial.

Every element x also has a p x p binary image, companion(x): the
multiply-by-x linear map in the polynomial basis, whose column j is the
bit vector of x * alpha^j.  The image of alpha is the companion matrix
of the primitive polynomial; the map preserves sums and products, which
is what lets a non-binary parity-check pair expand to an orthogonal
binary pair.  The library holds every nonzero of a matrix as its
discrete log, so the images are taken from logs, and it uses them only
as index maps on symbols: the decoder's symbol tables, and
`channel.syndrome_of`, which applies each entry's image by its columns.
The matrices themselves, the binary expansion built from them, and
per-element field arithmetic are built by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """GF(2^p) with its precomputed antilog table.

    Immutable after construction; all operations are pure, so a single
    instance is safely shared across workers.
    """

    p: int
    poly: int                      # coefficient mask below x^p
    q: int
    exp_table: np.ndarray          # exp_table[i] = alpha^i, i in [0, q-1)

    def same_field(self, other: "FieldSpec") -> bool:
        return self.p == other.p and self.poly == other.poly

    # -- index maps on [0, q) -----------------------------------------------
    # The action of companion(x) on coefficient vectors, viewed as a
    # permutation of symbol values.  These drive the decoder and the
    # syndrome without materialising any matrices.

    def unit_images(self, logs, transpose: bool = False) -> np.ndarray:
        """(len(logs), p) array: entry [i, j] is the symbol that
        companion(alpha^logs[i]), or its transpose, maps the unit vector
        1 << j to, i.e. column j of that matrix as a bit vector.
        """
        p, logs = self.p, np.asarray(logs, dtype=np.int64)
        # column j of companion(alpha^k) is the bit vector of alpha^(k + j)
        images = self.exp_table[(logs[:, None] + np.arange(p)) % (self.q - 1)]
        if transpose:       # unit vector i maps to row i: bit j of it is bit i of column j
            images = sum(((images[:, j, None] >> np.arange(p)) & 1) << j for j in range(p))
        return images

    def symbol_maps(self, logs, transpose: bool = False) -> np.ndarray:
        """(len(logs), q) tables: row i is the action of companion(alpha^logs[i]),
        or of its transpose, on symbols.

        Both actions are GF(2)-linear, so each row is filled by doubling
        from the images of the p unit vectors.
        """
        images = self.unit_images(logs, transpose)
        maps = np.zeros((len(images), self.q), dtype=np.int64)
        for i in range(self.p):
            maps[:, 1 << i:2 << i] = maps[:, :1 << i] ^ images[:, i, None]
        return maps


def poly_mask(p: int, poly: int) -> int:
    """The coefficient bitmask of `poly` below x^p: a polynomial may also be
    spelled with its leading term, bit p, set, which is then dropped."""
    return poly ^ (1 << p) if poly >> p == 1 else poly


def make_field(p: int, poly: int | None = None) -> FieldSpec:
    """Build GF(2^p) from a primitive polynomial.

    `poly` is the coefficient bitmask below the leading term, or the full
    polynomial (see `poly_mask`).  Omitted, the built-in default for p is
    used.  Primitivity is verified by an exhaustive order check on x.
    """
    if not 2 <= p <= 16:
        raise DegreeOutOfRange(f"p={p} outside [2, 16]")
    q = 1 << p
    poly = poly_mask(p, DEFAULT_POLY[p] if poly is None else poly)
    if not 0 <= poly < q:
        raise NonPrimitivePolynomial(f"polynomial mask {poly:#x} has degree != {p}")

    exp_table = np.zeros(q - 1, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        if v == 0 or (i > 0 and v == 1):
            raise NonPrimitivePolynomial(
                f"x has order {i} < {q - 1} mod {poly:#x} + x^{p}")
        exp_table[i] = v
        v <<= 1
        if v & q:
            v ^= q | poly
    if v != 1:
        raise NonPrimitivePolynomial(
            f"x does not generate the multiplicative group mod {poly:#x} + x^{p}")
    return FieldSpec(p=p, poly=poly, q=q, exp_table=exp_table)
