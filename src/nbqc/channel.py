"""Depolarizing-channel error sampling and syndrome computation.

Errors live on n = pN qubits, grouped into N symbols of p bits; bit j
of a symbol is the coefficient of alpha^j.  A depolarizing channel with
probability f_dep = 3 f_m / 2 applies X, Y, Z each with f_dep/3, so the
marginal flip probability of the X component (and of the Z component)
is exactly 2 f_dep / 3 = f_m.  In independent mode the two components
are sampled as separate Bernoulli(f_m) bit vectors, which is the model
the per-component decoder actually assumes; joint mode keeps the X/Z
correlation of the real channel.

A syndrome is the product of a constituent code's binary matrix with an
error's bits over GF(2).  `syndrome_of` applies that matrix block by
block from the field's p x p images and never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nbqc.binexpand import CssCodePair
from nbqc.nblift import _symbol_vector


@dataclass(frozen=True)
class ChannelParams:
    """Marginal flip probability and sampling mode."""

    f_m: float
    mode: str = "independent"     # "independent" | "joint"

    def __post_init__(self):
        if not 0.0 <= self.f_m < 0.5:
            raise ValueError(f"f_m must be in [0, 0.5), got {self.f_m}")
        if self.mode not in ("independent", "joint"):
            raise ValueError(f"mode must be 'independent' or 'joint', got {self.mode!r}")

    @property
    def f_dep(self) -> float:
        return 1.5 * self.f_m


def sample_error(n_sym: int, p: int, params: ChannelParams,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x_error, z_error) as length-n_sym symbol arrays.

    Independent mode flips each of the p*n_sym bits of either component
    with probability f_m, independently.  Joint mode draws one Pauli
    per qubit: identity with 1 - f_dep, else X, Y, Z equiprobably; Y
    flips both components, so X and Z bits are correlated.  Both
    components are packed by one product, and in independent mode drawn
    by one call, X bits first: the same stream as two calls.
    """
    n_bits = n_sym * p
    if params.mode == "independent":
        bits = rng.random(2 * n_bits) < params.f_m
    else:
        u = rng.random(n_bits)
        third = params.f_dep / 3.0
        bits = np.concatenate((u < 2 * third,                       # X or Y
                               (u >= third) & (u < 3 * third)))     # Y or Z
    x_err, z_err = _pack_symbols(bits, p).reshape(2, n_sym)
    return x_err, z_err


# bit weights 2^j of a symbol's bits, sliced to p by `_pack_symbols`
_BIT_WEIGHTS = np.int64(1) << np.arange(63, dtype=np.int64)
_BIT_WEIGHTS.setflags(write=False)


def _pack_symbols(bits: np.ndarray, p: int) -> np.ndarray:
    return bits.reshape(-1, p).astype(np.int64) @ _BIT_WEIGHTS[:p]


def syndrome_of(code: CssCodePair, role: str, error: np.ndarray) -> np.ndarray:
    """Length-M symbol syndrome of an error under one constituent code.

    The GF(2) product of the code's binary matrix (Hc for role C, Hd
    for role D) with the error's bits, packed back into symbols: bit i
    of check m's syndrome is row pm + i of the product.  It is taken
    one p x p block at a time, O(nnz p): each entry XORs the columns of
    its image (`FieldSpec.unit_images`, transposed for role D) that the
    bits of its error symbol select, and each check XORs its entries.
    It does not read the decoder's symbol tables, so it re-checks them
    independently.  `error` must be N integer symbols in [0, q).
    """
    mat = code.matrix(role)
    error = _symbol_vector(error, code.N, code.field.q, "error")
    images = code.field.unit_images(mat.log, transpose=role == "D")
    bits = (error[mat.col, None] >> np.arange(code.field.p)) & 1
    syndrome = np.zeros(code.M, dtype=np.int64)
    np.bitwise_xor.at(syndrome, mat.row, np.bitwise_xor.reduce(images * bits, axis=1))
    return syndrome
