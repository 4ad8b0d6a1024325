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
butterfly stage h is one product H2 @ B over the contiguous
(q/2h, 2, h*M*L) view of its buffer, with H2 = [[1, 1], [1, -1]], and
every prefix/suffix step is one call over (q, M).  The product reads
each operand once, where an add/subtract pair read it twice through
strided views.  Its (2, w) operands are at most 2^15 columns wide (or
M*L, if that is wider), so that OpenBLAS runs them on one thread:
threads slowed the transform, and oversubscribed the cores when
NBQC_WORKERS > 1.  The
permutation gathers on either side of the transforms are single `take`
calls on flat edge*q + symbol indices built once per decoder; they also
switch between the two layouts, so no transposing copy is made.  A
decoder allocates its work buffers once: the transform input that the
forward gather writes into, the prefix and suffix products, the pair of
butterfly buffers that both transforms of an iteration share, and the
(2, N, q) arrays of the variable update, which handles both edges of
every column in one pass.  The butterfly views of every transform stage
and the (q, M) slices of every prefix/suffix step are built with them,
so an iteration creates no views.  Only the arrays that a decode hands
out (`estimate`, `last_c2v`, `last_v2c`) are fresh for each decode.

Bit-identity.  Every message is computed by the same IEEE-754 float64
operations in the same order as the per-edge definition: butterfly
stages h = 1, 2, 4, ..., sequential prefix and suffix products, and
normalising sums along contiguous length-q rows (numpy's summation order
depends on the memory layout).  A stage's product H2 @ B is exact
whatever BLAS kernel runs it: each output is a two-term sum of operands
times +-1, and multiplying by +-1 is exact, so the sum is rounded once,
to the butterfly's a + b or a - b (unless the BLAS flushes subnormals).
The one difference is the sign of an exact zero: the product may give
+0.0 where the butterfly gives -0.0.  No nonzero result depends on that
sign, and the clamp `np.maximum(., 0.0)` turns every zero into +0.0
before a table or message is stored.  Decisions and iteration counts
are therefore reproducible to the trial, and the benchmark checks them
exactly.  A dense q x q Hadamard matmul or float32 messages would be
faster at some sizes, but a q-term sum in BLAS order, like a float32
product, rounds differently, flips near-tied decisions and changes
iteration counts, so they are not used.

First iteration.  Iteration 1 starts from the prior p0 on every edge, so
its check pass depends on the syndrome only through the +-1 character
chi_s of each check's syndrome symbol s, which seeds the exclusive
products.  Multiplying by a character translates the transform:
WHT(chi_s * x)[u] = WHT(x)[u ^ s] (Declercq & Fossorier, IEEE Trans.
Commun. 2007).  Both steps are exact in float64.  Every prefix and
suffix product seeded with chi_s is chi_s times the same product seeded
with 1, because round-to-nearest rounds a negated value to the negated
result.  Each butterfly stage on sign-flipped operands computes the
negated or swapped sums of the unflipped stage, so the inverse
transform of the seeded products is the unseeded one translated by s,
bit for bit except possibly the sign of an exact zero, and the clamp
`np.maximum(c2v, 0.0)` turns -0.0 into +0.0 before any message is
stored.  So a decoder keeps, for the prior of the last f_m it iterated
at, the table T = max(WHT(E) / q, 0) of the check pass seeded with 1,
edge-major (M*L, q), and iteration 1's check messages are one XOR of
flat indices and one `take`: c2v[m, l, s] = T[e, fwd[e, s] ^ s_m], at
flat index (e*q + fwd[e, s]) ^ s_m, since e*q has zero low bits.  The
table is built inside the first iterating decode at a new f_m, with the
same gather, transform and product code as every later iteration.  It
costs one float64 table and one int64 index array, each M*L*q entries:
16.3 MB together for GF(256) at P=331 (n=15888).  `op_count` still
counts iteration 1 in full, since it models the convolution's
arithmetic, not the work executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from nbqc.binexpand import CssCodePair
from nbqc.nblift import DimensionMismatch


class LengthMismatch(ValueError):
    pass


class NonFiniteMessage(ArithmeticError):
    """A message PMF contains NaN or infinity."""


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration cap and probability floor.  Ties go to the lowest symbol."""

    max_iter: int = 32
    pmf_floor: float = 1e-300

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.pmf_floor < 0:
            raise ValueError(f"pmf_floor must be >= 0, got {self.pmf_floor}")


@dataclass
class DecodeOutcome:
    status: str                   # "success" | "fail"
    estimate: np.ndarray          # N symbols (last tentative decision on fail)
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "success"


@lru_cache(maxsize=64)
def init_pmf(f_m: float, p: int) -> np.ndarray:
    """Channel prior over GF(2)^p: mass f_m^wt(e) (1-f_m)^(p-wt(e)).

    Sums to exactly 1 by the binomial theorem.  Symbol 0 has the largest
    mass for every f_m in [0, 1/2).  Cached per (f_m, p), so read-only.
    """
    if not 0.0 <= f_m < 0.5:
        raise ValueError(f"f_m must be in [0, 0.5), got {f_m}")
    w = _symbol_weights(p)
    pmf = f_m ** w * (1.0 - f_m) ** (p - w)
    pmf.setflags(write=False)
    return pmf


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


class WHTWork(NamedTuple):
    """Output view of the first butterfly stage, (in, out) views of every
    later stage, and the (q, rows) buffer that holds the result."""

    first: np.ndarray
    later: tuple
    out: np.ndarray


# one butterfly: (a, b) -> (a + b, a - b)
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
_H2.setflags(write=False)

# widest (2, w) operand of one product: 2 x 2 x 2^15 multiply-adds stay
# below the size at which OpenBLAS starts threads (M*N*K > 4 * 65536 by
# default), which only slow this memory-bound transform down
_MAX_WIDTH = 1 << 15


def wht_work(q: int, rows: int) -> WHTWork:
    """Two (q, rows) float64 buffers and the views of every butterfly stage."""
    if q < 2 or q & (q - 1):
        raise LengthMismatch(f"length {q} is not a power of 2 above 1")
    bufs = (np.empty((q, rows)), np.empty((q, rows)))
    span = 1 << (max(1, _MAX_WIDTH // max(rows, 1)).bit_length() - 1)

    def stage(buf, h):
        # symbol s = (2 * block + half) * h + j pairs with s + h, so each
        # block is one (2, h*rows) matrix, taken g*rows columns at a time
        g = min(h, span)
        return buf.reshape(q // (2 * h), 2, h // g, g * rows).transpose(0, 2, 1, 3)

    hs = [1 << k for k in range(q.bit_length() - 1)]
    dsts = [bufs[(k + 1) & 1] for k in range(len(hs))]     # stages alternate buffers
    later = tuple((stage(src, h), stage(dst, h)) for src, dst, h in zip(dsts, dsts[1:], hs[1:]))
    return WHTWork(stage(dsts[0], 1), later, dsts[-1])


def walsh_hadamard(x: np.ndarray, work: WHTWork | None = None) -> np.ndarray:
    """Unnormalised WHT along the last axis (length a power of 2).

    Applying it twice multiplies by q.  The butterflies run on a
    symbol-major (q, rows) float64 layout, alternating between two
    buffers, so the input is never written.  Each stage h = 1, 2, 4, ...
    is one product H2 @ B with H2 = [[1, 1], [1, -1]] and B the
    (q/2h, 2, h*rows) view of its buffer, split into (2, w) operands no
    wider than `_MAX_WIDTH`: every output is a two-term sum of operands
    times +-1, rounded once, so it equals the add/subtract butterfly bit
    for bit, except that an exact zero may take either sign (see the
    module docstring).  An
    input already laid out symbol-major in memory
    (`np.moveaxis(x, -1, 0)` C-contiguous) is read without a transposing
    copy.  The result has the input's shape and the same symbol-major
    memory layout.

    `work`, from `wht_work(q, rows)`, supplies the buffers; the result is
    then a view of `work.out`, which the next call with the same `work`
    overwrites.  Without it, fresh buffers are made.
    """
    x = np.asarray(x)
    q = x.shape[-1]
    if q & (q - 1):
        raise LengthMismatch(f"length {q} is not a power of 2")
    if q == 1:
        return x.astype(np.float64)
    src = np.ascontiguousarray(x.reshape(-1, q).T, dtype=np.float64)
    if work is None:
        work = wht_work(q, src.shape[1])
    elif work.out.shape != src.shape:
        raise LengthMismatch(f"work buffers are {work.out.shape}, input is {src.shape}")
    np.matmul(_H2, src.reshape(work.first.shape), out=work.first)
    for a, b in work.later:
        np.matmul(_H2, a, out=b)
    return work.out.T.reshape(x.shape)


def _row_sums(msgs: np.ndarray, kind: str, it: int) -> np.ndarray:
    """Sums along the last axis, which normalise `msgs`.

    Entries are >= 0 or NaN and at most about 1, so every normalised
    entry is finite exactly when every sum is positive and finite.  The
    check comes before the division, so a 0/0 raises without a warning.
    """
    sums = msgs.sum(axis=-1, keepdims=True)
    if not (sums.min() > 0.0 and sums.max() < np.inf):
        raise NonFiniteMessage(f"{kind} messages non-finite at iteration {it}")
    return sums


class SyndromeDecoder:
    """Reusable decoder for one constituent code of a pair.

    Precomputes, per edge (m, k): the symbol permutation of the entry's
    binary image, flat gather indices through it and through its
    inverse, and column-to-edge pointers.  A decoder instance owns its
    message and work buffers; share the (immutable) code across
    instances, not the instance across threads.

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

        # column -> its two edges, as indices into the flat (M*L) edge axis:
        # row 0 holds each column's first edge, row 1 its second.  The
        # message to one edge is built from the check message on the other.
        flat_cols = self.cols.reshape(-1)
        if (np.bincount(flat_cols, minlength=code.N) != 2).any():
            raise DimensionMismatch("decoder requires column weight exactly 2")
        edges = np.argsort(flat_cols, kind="stable").reshape(code.N, 2)
        self._edges_to = np.ascontiguousarray(edges.T)              # (2, N)
        self._edges_from = np.ascontiguousarray(edges.T[::-1])

        self._parity = _symbol_weights(self.p) & 1
        self._symbols = np.arange(q)[:, None]
        log2q = q.bit_length() - 1
        self._ops_per_iteration = (2 * M * L * q * log2q + M * L * q
                                   + (2 * (L - 2) + 2 * L) * M * q)

        # decoder-owned work buffers (see the module docstring)
        self._wht = wht_work(q, M * L)
        self._t_in = np.empty((q, M, L))
        self._pref = pref = np.empty((q, M, L))
        self._suff = suff = np.empty((q, M, L))
        suff[..., L - 1] = 1.0
        t = self._wht.out.reshape(q, M, L)
        self._pref0 = pref[..., 0]
        self._products = (
            tuple((pref[..., k - 1], t[..., k - 1], pref[..., k]) for k in range(1, L))
            + tuple((suff[..., k + 1], t[..., k + 1], suff[..., k])
                    for k in range(L - 2, -1, -1)))
        self._from = np.empty((2, code.N, q))
        self._to = np.empty((2, code.N, q))
        self._belief = np.empty((code.N, q))
        # iteration 1's lookup (see "First iteration"), built by decode:
        # the prior it was built for, the table, and flat indices into it
        # that hold the syndrome of the last decode that used them
        self._first_p0 = None
        self._first_table = None
        self._first_at = None
        self._first_syndrome = np.zeros(M, dtype=np.int64)

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
        # q is a power of 2: the OR of all symbols is negative iff one is,
        # and at least q iff one is
        bits = np.bitwise_or.reduce(symbols)
        if bits < 0 or bits >= self.q:
            raise DimensionMismatch(f"symbols must lie in [0, {self.q})")
        mapped = self.perm_fwd.take(self._syndrome_at + symbols[self.cols])   # (M, L)
        return np.bitwise_xor.reduce(mapped, axis=1)

    def _check_pass(self, v2c: np.ndarray, chi) -> None:
        """Transform, exclusive products seeded with chi, inverse transform.

        Leaves the symbol-major (q, M*L) result in `self._wht.out`.  The
        gather indices are in range by construction, and mode "clip"
        writes straight into `out`, which the default mode would buffer.
        chi is +-1, so seeding the prefix products with it flips signs
        exactly, as multiplying the finished products by it would.
        """
        v2c.take(self._gather_in, out=self._t_in, mode="clip")   # (q, M, L)
        walsh_hadamard(self._t_in.transpose(1, 2, 0), self._wht)
        self._pref0[...] = chi
        for a, b, out in self._products:
            np.multiply(a, b, out=out)
        self._pref *= self._suff                                    # exclusive products
        walsh_hadamard(self._pref.transpose(1, 2, 0), self._wht)

    def _first_check_messages(self, p0: np.ndarray, syndrome: np.ndarray,
                              out: np.ndarray) -> None:
        """Iteration 1's check messages, clamped at 0 and not yet
        normalised, into `out` (M, L, q)."""
        if self._first_p0 is not p0:
            self._check_pass(np.broadcast_to(p0, (self.M, self.L, self.q)), 1.0)
            table = np.ascontiguousarray(self._wht.out.T)          # (M*L, q)
            table *= 1.0 / self.q
            np.maximum(table, 0.0, out=table)
            if self._first_at is None:
                edge = np.arange(self.M * self.L).reshape(self.M, self.L, 1)
                self._first_at = edge * self.q + self.perm_fwd
            self._first_table, self._first_p0 = table, p0
        self._first_at ^= (syndrome ^ self._first_syndrome)[:, None, None]
        self._first_syndrome[:] = syndrome
        self._first_table.take(self._first_at, out=out, mode="clip")

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
        M, L, q, N = self.M, self.L, self.q, self.code.N
        p0 = init_pmf(f_m, self.p)

        # the decision before any message update is the prior's argmax, the
        # all-zero vector (see init_pmf), so it succeeds iff the syndrome is zero
        if not syndrome.any():
            # no messages were passed; cleared here only, because freeing the
            # previous buffers before an iterating decode slows it measurably
            self.last_v2c = self.last_c2v = None
            return DecodeOutcome(status="success", estimate=np.zeros(N, dtype=np.int64),
                                 iterations=0)

        v2c = np.empty((M, L, q))     # iteration 1 writes every edge before any read
        c2v = np.empty((M, L, q))
        v2c_flat = v2c.reshape(M * L, q)
        c2v_flat = c2v.reshape(M * L, q)
        frm, to, belief = self._from, self._to, self._belief

        for it in range(1, config.max_iter + 1):
            # -- horizontal: all-but-one convolution with the syndrome mass,
            # looked up from the table at iteration 1
            if it == 1:
                self._first_check_messages(p0, syndrome, c2v)
            else:
                if it == 2:
                    # (q, M) transform of each check's syndrome point mass
                    chi = 1.0 - 2.0 * self._parity[self._symbols & syndrome]
                self._check_pass(v2c, chi)
                # mode "clip" writes straight into `out`; see _check_pass
                self._wht.out.take(self._gather_out, out=c2v, mode="clip")   # (M, L, q)
                c2v *= 1.0 / q
                np.maximum(c2v, 0.0, out=c2v)
            self.op_count += self._ops_per_iteration
            c2v /= _row_sums(c2v, "check", it)
            np.maximum(c2v, config.pmf_floor, out=c2v)
            self.last_c2v = c2v

            # -- vertical: channel prior times the other edge's check message,
            # for both edges of every column at once; the belief
            # (p0 * from_first) * from_second is taken before normalising
            c2v_flat.take(self._edges_from, axis=0, out=frm, mode="clip")   # (2, N, q)
            np.multiply(frm, p0, out=to)
            np.multiply(to[1], frm[0], out=belief)
            to /= _row_sums(to, "variable", it)
            np.maximum(to, config.pmf_floor, out=to)
            v2c_flat[self._edges_to] = to
            self.last_v2c = v2c

            # -- tentative decision and syndrome check
            estimate = np.argmax(belief, axis=1)
            if (self.syndrome_of_symbols(estimate) == syndrome).all():
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
