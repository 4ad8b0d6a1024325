"""Syndrome sum-product decoding over GF(2)^p.

Messages are probability vectors of length q = 2^p indexed by error
symbols.  Check-node updates are group convolutions over (Z_2)^p,
diagonalised by the Walsh-Hadamard transform: transform, multiply
pointwise (including the character of the syndrome symbol, which is the
transform of its point mass), transform back.  Entry maps through a
parity-check entry are pure index permutations: the binary image of a
field element acting on symbol values.

Row weight L and column weight 2 are uniform, so the whole message
state lives in (M, L, q) arrays and one iteration is a handful of
vectorised array ops.  All-but-one products use exclusive prefix/suffix
products, which stay exact when a transformed message has zeros (no
division).

Layout.  Stored messages are edge-major, (M, L, q).  Between the two
transforms of an iteration they are symbol-major, (q, M, L), so every
butterfly stage is two contiguous add/subtract calls over h*M*L
elements and every prefix/suffix step is one call over (q, M).  The
permutation gathers on either side of the transforms are single `take`
calls on flat edge*q + symbol indices built once per decoder; they also
switch between the two layouts, so no transposing copy is made.

Bit-identity.  Every message is computed by the same IEEE-754 float64
operations in the same order as the per-edge definition: butterfly
stages h = 1, 2, 4, ..., sequential prefix and suffix products, and
normalising sums along contiguous length-q rows (numpy's summation order
depends on the memory layout).  Decisions and iteration counts are
therefore reproducible to the trial, and the benchmark checks them
exactly.  A dense +-1 Hadamard matmul or float32 messages would be
faster at some sizes, but they round differently, flip near-tied
decisions and change iteration counts, so they are not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

from nbqc.binexpand import CssCodePair
from nbqc.nblift import DimensionMismatch


class LengthMismatch(ValueError):
    pass


class SingularMap(ValueError):
    """The supplied bit matrix is not invertible over GF(2)."""


class NonFiniteMessage(ArithmeticError):
    """A message PMF contains NaN or infinity."""


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration cap, probability floor, and argmax tie rule."""

    max_iter: int = 32
    pmf_floor: float = 1e-300
    tie_break: str = "lowest"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.pmf_floor < 0:
            raise ValueError(f"pmf_floor must be >= 0, got {self.pmf_floor}")
        if self.tie_break != "lowest":
            raise ValueError("only tie_break='lowest' is supported")


@dataclass
class DecodeOutcome:
    status: str                   # "success" | "fail"
    estimate: np.ndarray          # N symbols (last tentative decision on fail)
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "success"


def init_pmf(f_m: float, p: int) -> np.ndarray:
    """Channel prior over GF(2)^p: mass f_m^wt(e) (1-f_m)^(p-wt(e)).

    Sums to exactly 1 by the binomial theorem.
    """
    if not 0.0 <= f_m < 0.5:
        raise ValueError(f"f_m must be in [0, 0.5), got {f_m}")
    w = _symbol_weights(p)
    return f_m ** w * (1.0 - f_m) ** (p - w)


def _popcount(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64).copy()
    out = np.zeros_like(v)
    while v.any():
        out += v & 1
        v >>= 1
    return out


@lru_cache(maxsize=16)
def _symbol_weights(p: int) -> np.ndarray:
    """Hamming weight of every symbol in [0, 2^p); shared, so read-only."""
    w = _popcount(np.arange(1 << p))
    w.setflags(write=False)
    return w


def walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalised WHT along the last axis (length a power of 2).

    Applying it twice multiplies by q.  The butterflies run on a
    symbol-major (q, rows) float64 layout, alternating between two fresh
    buffers, so the input is never written.  An input already laid out
    that way in memory (`np.moveaxis(x, -1, 0)` C-contiguous) is read
    without a transposing copy.  The result has the input's shape and
    the same symbol-major memory layout.
    """
    x = np.asarray(x)
    q = x.shape[-1]
    if q & (q - 1):
        raise LengthMismatch(f"length {q} is not a power of 2")
    if q == 1:
        return x.astype(np.float64)
    src = np.ascontiguousarray(x.reshape(-1, q).T, dtype=np.float64)
    rows = src.shape[1]
    bufs = (np.empty((q, rows)), np.empty((q, rows)))
    h = 1
    while h < q:
        # symbol s = (2 * block + half) * h + j pairs with s + h
        a = src.reshape(q // (2 * h), 2, h * rows)
        src = bufs[h.bit_length() & 1]
        b = src.reshape(q // (2 * h), 2, h * rows)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        h *= 2
    return src.T.reshape(x.shape)


def _character(shift: int, q: int) -> np.ndarray:
    """(-1)^<shift, w> for w in [0, q): the WHT of the point mass at shift."""
    bits = _popcount(np.arange(q) & shift) & 1
    return 1.0 - 2.0 * bits


def wht_convolve(msgs, shift: int = 0) -> np.ndarray:
    """Group convolution over (Z_2)^p of PMFs plus the point mass at shift.

    Transform-domain product, inverse transform, clamp round-off
    negatives to zero, renormalise.  Cost O(k q log q) for k messages.
    """
    if not msgs:
        raise LengthMismatch("need at least one message")
    arrs = [np.asarray(m, dtype=np.float64) for m in msgs]
    q = arrs[0].shape[-1]
    for a in arrs:
        if a.shape != (q,):
            raise LengthMismatch(f"message shapes differ: {a.shape} vs ({q},)")
    acc = _character(shift, q)
    for a in arrs:
        acc = acc * walsh_hadamard(a)
    out = walsh_hadamard(acc) / q
    np.maximum(out, 0.0, out=out)
    return out / out.sum()


def permute_pmf(msg: np.ndarray, map_matrix: np.ndarray) -> np.ndarray:
    """Relabel a PMF by an invertible map on symbols: out(e) = msg(map @ e)."""
    map_matrix = np.asarray(map_matrix, dtype=np.int64)
    p = map_matrix.shape[0]
    if map_matrix.shape != (p, p):
        raise SingularMap(f"map must be square, got {map_matrix.shape}")
    q = 1 << p
    msg = np.asarray(msg, dtype=np.float64)
    if msg.shape != (q,):
        raise LengthMismatch(f"message length {msg.shape} does not match map size {q}")
    bits = (np.arange(q)[:, None] >> np.arange(p)) & 1
    out_bits = bits @ map_matrix.T & 1
    idx = out_bits @ (1 << np.arange(p))
    if np.bincount(idx, minlength=q).max() != 1:
        raise SingularMap("map is not invertible over GF(2)")
    return msg[idx]


class SyndromeDecoder:
    """Reusable decoder for one constituent code of a pair.

    Precomputes, per edge (m, k): the symbol permutation of the entry's
    binary image, flat gather indices through it and through its
    inverse, and column-to-edge pointers.  A decoder instance owns its
    message buffers; share the (immutable) code across instances, not
    the instance across threads.

    `op_count` accumulates the arithmetic operations (adds and
    multiplies) of the check-node convolutions: transform butterflies
    and transform-domain products.  Index gathers and normalisation
    housekeeping are not counted.
    """

    def __init__(self, code: CssCodePair, role: str):
        if role not in ("C", "D"):
            raise ValueError(f"role must be 'C' or 'D', got {role!r}")
        self.code = code
        self.role = role
        field = code.field
        self.q = q = field.q
        self.p = field.p
        mat = code.matrix(role)
        self.cols, vals = mat.row_grid()
        self.M, self.L = M, L = self.cols.shape
        edge = np.arange(M * L)

        fwd = field.symbol_maps(vals.reshape(-1), transpose=role == "D")   # (M*L, q)
        inv = np.empty_like(fwd)
        np.put_along_axis(inv, fwd, np.arange(q)[None, :], axis=1)
        self.perm_fwd = fwd.reshape(M, L, q)    # action of the entry's image on symbols
        # flat gathers: symbol-major transform input (q, M, L) from the
        # edge-major variable messages, through the inverse entry maps;
        # edge-major check messages (M, L, q) from the symbol-major
        # transform output, through the entry maps
        self._gather_in = (edge * q + inv.T).reshape(q, M, L)
        self._gather_out = (fwd * (M * L) + edge[:, None]).reshape(M, L, q)
        self._syndrome_at = (edge * q).reshape(M, L)

        # column -> its two edges, as indices into the flat (M*L) edge axis
        flat_cols = self.cols.reshape(-1)
        if (np.bincount(flat_cols, minlength=code.N) != 2).any():
            raise DimensionMismatch("decoder requires column weight exactly 2")
        edges = np.argsort(flat_cols, kind="stable").reshape(code.N, 2)
        self.edge_a = edges[:, 0]
        self.edge_b = edges[:, 1]

        self._parity = _symbol_weights(self.p) & 1
        self.op_count = 0
        self.last_v2c = None      # message buffers of the most recent decode,
        self.last_c2v = None      # kept for inspection and tests

    def reset_op_count(self) -> None:
        self.op_count = 0

    def syndrome_of_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Syndrome of a length-N symbol vector via the precomputed edge maps."""
        symbols = np.asarray(symbols)
        if symbols.shape != (self.code.N,):
            raise DimensionMismatch(
                f"symbols must be {self.code.N} values, got shape {symbols.shape}")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.q):
            raise DimensionMismatch(f"symbols must lie in [0, {self.q})")
        mapped = self.perm_fwd.take(self._syndrome_at + symbols[self.cols])   # (M, L)
        return np.bitwise_xor.reduce(mapped, axis=1)

    def decode(self, syndrome: np.ndarray, f_m: float,
               config: DecoderConfig = DecoderConfig()) -> DecodeOutcome:
        syndrome = np.asarray(syndrome, dtype=np.int64)
        if syndrome.shape != (self.M,):
            raise DimensionMismatch(
                f"syndrome must be {self.M} symbols, got shape {syndrome.shape}")
        if syndrome.size and (syndrome.min() < 0 or syndrome.max() >= self.q):
            raise DimensionMismatch(f"syndrome symbols must lie in [0, {self.q})")
        if not 0 <= config.pmf_floor < 1.0 / self.q:
            raise ValueError(f"pmf_floor must be below 1/q = {1.0 / self.q}")
        M, L, q = self.M, self.L, self.q
        log2q = int(log2(q))
        p0 = init_pmf(f_m, self.p)

        # tentative decision before any message update: argmax of the prior
        estimate = np.full(self.code.N, int(np.argmax(p0)), dtype=np.int64)
        if np.array_equal(self.syndrome_of_symbols(estimate), syndrome):
            return DecodeOutcome(status="success", estimate=estimate, iterations=0)

        # (q, M) transform of each check's syndrome point mass.  It is +-1,
        # so seeding the prefix products with it flips signs exactly, as
        # multiplying the finished products by it would.
        chi = 1.0 - 2.0 * self._parity[np.arange(q)[:, None] & syndrome]
        v2c = np.broadcast_to(p0, (M, L, q)).copy()
        pref = np.empty((q, M, L))
        suff = np.empty((q, M, L))
        suff[..., L - 1] = 1.0

        for it in range(1, config.max_iter + 1):
            # -- horizontal: all-but-one convolution with the syndrome mass
            ptil = v2c.take(self._gather_in)                           # (q, M, L)
            t = walsh_hadamard(ptil.transpose(1, 2, 0)).transpose(2, 0, 1)
            self.op_count += M * L * q * log2q
            pref[..., 0] = chi
            for k in range(1, L):
                np.multiply(pref[..., k - 1], t[..., k - 1], out=pref[..., k])
            for k in range(L - 2, -1, -1):
                np.multiply(suff[..., k + 1], t[..., k + 1], out=suff[..., k])
            pref *= suff                                               # exclusive products
            self.op_count += (2 * (L - 2) + 2 * L) * M * q
            qtil = walsh_hadamard(pref.transpose(1, 2, 0))
            self.op_count += M * L * q * log2q + M * L * q
            c2v = qtil.transpose(2, 0, 1).take(self._gather_out)      # (M, L, q)
            c2v *= 1.0 / q
            np.maximum(c2v, 0.0, out=c2v)
            c2v /= c2v.sum(axis=2, keepdims=True)
            np.maximum(c2v, config.pmf_floor, out=c2v)
            if not np.isfinite(c2v).all():
                raise NonFiniteMessage(f"check messages non-finite at iteration {it}")
            self.last_c2v = c2v

            # -- vertical: channel prior times the other edge's check message
            c2v_flat = c2v.reshape(M * L, q)
            from_a = c2v_flat[self.edge_a]                         # (N, q)
            from_b = c2v_flat[self.edge_b]
            to_a = p0 * from_b
            to_b = p0 * from_a
            to_a /= to_a.sum(axis=1, keepdims=True)
            to_b /= to_b.sum(axis=1, keepdims=True)
            np.maximum(to_a, config.pmf_floor, out=to_a)
            np.maximum(to_b, config.pmf_floor, out=to_b)
            if not (np.isfinite(to_a).all() and np.isfinite(to_b).all()):
                raise NonFiniteMessage(f"variable messages non-finite at iteration {it}")
            v2c_flat = v2c.reshape(M * L, q)
            v2c_flat[self.edge_a] = to_a
            v2c_flat[self.edge_b] = to_b
            self.last_v2c = v2c

            # -- tentative decision and syndrome check
            belief = p0 * from_a * from_b
            estimate = np.argmax(belief, axis=1)
            if np.array_equal(self.syndrome_of_symbols(estimate), syndrome):
                return DecodeOutcome(status="success", estimate=estimate, iterations=it)

        return DecodeOutcome(status="fail", estimate=estimate, iterations=config.max_iter)


def decode(code: CssCodePair, role: str, syndrome: np.ndarray, f_m: float,
           config: DecoderConfig = DecoderConfig()) -> DecodeOutcome:
    """One-shot decode; build a SyndromeDecoder directly to amortise setup."""
    return SyndromeDecoder(code, role).decode(syndrome, f_m, config)


def decode_css(code: CssCodePair, syndromes: tuple[np.ndarray, np.ndarray],
               f_m: float, config: DecoderConfig = DecoderConfig()
               ) -> tuple[DecodeOutcome, DecodeOutcome]:
    """Decode both constituent codes independently (correlations ignored)."""
    s_c, s_d = syndromes
    return (SyndromeDecoder(code, "C").decode(s_c, f_m, config),
            SyndromeDecoder(code, "D").decode(s_d, f_m, config))
