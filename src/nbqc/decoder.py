"""Syndrome sum-product decoding over GF(2)^p.

Messages are probability vectors of length q = 2^p indexed by error
symbols.  Check-node updates are group convolutions over (Z_2)^p,
diagonalised by the Walsh-Hadamard transform: transform, multiply
pointwise, transform back; the check's syndrome symbol translates the
result (see "Syndrome").  Entry maps through a
parity-check entry are pure index permutations: the binary image of a
field element acting on symbol values.

Row weight L and column weight 2 are uniform, so the whole message
state lives in two (2, N, q) arrays and one iteration is a handful of
vectorised array ops.  All-but-one products use exclusive prefix/suffix
products, which stay exact when a transformed message has zeros (no
division).

Layout.  Stored messages are column-pair, (2, N, q): `_from[j, n]` is
the check message on edge `_edges_from[j, n]` of column n, and
`_to[j, n]` the variable message on `_edges_from[1 - j, n]`, the
column's other edge, so the variable update of both edges of every
column is one pass from `_from` into `_to`.  Between the two transforms of an
iteration the messages are symbol-major, one column of a (q, M*L)
buffer per edge, so every butterfly stage h is one product H2 @ B over
the contiguous (q/2h, 2, h*M*L) view of its buffer, with H2 = [[1, 1],
[1, -1]].  The product reads each operand once, where an add/subtract
pair read it twice through strided views.  Its (2, w) operands are at
most 2^15 columns wide (or M*L, if that is wider), so that OpenBLAS runs
them on one thread: threads slowed the transform, and oversubscribed
the cores when NBQC_WORKERS > 1.  The transform does not care about the
order of its columns, and the two transforms of a check pass hold them
in different orders.  The first transform's columns are in (m, k) order,
edge e = m*L + k, so its output is a (q, M, L) array and the input of
prefix/suffix step k is its (q, M) slice at position k.  The prefix and
suffix products are (L, q, M) buffers, so each step writes one
contiguous (q, M) block, which the next step reads back.  Their product
writes the second transform's input with columns in (k, m) order, rank
k*M + m.  That layout timed faster at every size tried than (q, M, L)
prefix and suffix buffers, or all three buffers (q, L, M) (ROADMAP item
2).  The permutation gathers on either side of the transforms are
single `take` calls on contiguous flat indices, one reading `_to` at
slot*q + symbol into the (m, k) order, built once per decoder, and one
writing `_from` at symbol*(M*L) + rank from the (k, m) order, rebuilt
once per decode from the syndrome (see "Syndrome"); they also switch
between the layouts, so an iteration moves message data twice and makes
no transposing copy.  Each edge's forward symbol map is held once, in
column-pair slot order, (2, N, q), the order the writing gather reads
it in; the syndrome reads it too, through an (M, L) array of each
edge's row offset there.  A decoder allocates its work buffers once,
carved out of one block with every buffer on a 64-byte boundary
(`_carve`): the pair of butterfly buffers that both transforms of an
iteration share, the first of which is the transform input that the
forward gather and the exclusive products write into and that
`walsh_hadamard` is handed as it is laid out; the prefix and suffix
products; the two message buffers; the writing gather's indices; the
prior pass's copy; the slot-order entry maps; and the prior tiled to
the message shape, (2, N, q), refilled when f_m changes, so that the
variable step multiplies operands of one shape, which numpy does
without a buffer.  The butterfly views of every transform stage and the
slices of every prefix/suffix step are built with them, so an iteration
creates no views.  Only `estimate` is fresh for each decode.  After a
decode that iterated, `_from` and `_to` hold its last messages until
the next decode overwrites them.

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

Syndrome.  A check's syndrome symbol s enters its all-but-one
convolution as the +-1 character chi_s, the transform of its point mass,
which multiplies the exclusive products.  Multiplying by a character
translates the transform: WHT(chi_s * x)[u] = WHT(x)[u ^ s] (Declercq &
Fossorier, IEEE Trans. Commun. 2007), and in float64 the two sides are
equal bit for bit except possibly the sign of an exact zero.  Every
prefix and suffix product seeded with chi_s is chi_s times the same
product seeded with 1, because round-to-nearest rounds a negated value
to the negated result, and each butterfly stage on sign-flipped operands
computes the negated or swapped sums of the unflipped stage.  So no
check pass sees the syndrome: its products are seeded with 1, and each
decode applies the syndrome once, to the gather that reads check
messages out of the symbol-major transform: entry u of the message on
edge e = m*L + k is read at flat index (fwd[e, u] ^ s_m) * (M*L) + r,
where r = k*M + m is the edge's column in the second transform.
The indices are held in column-pair order, so that the `take` writes
straight into `_from`.  Each check pass ends with the clamp
`np.maximum(t, 0.0)` on its output, which turns -0.0 into +0.0 (with
the operands the other way round, -0.0 would stay); clamping the table
before the gather equals clamping the gathered messages, since a gather
copies.
The check messages are normalised without the transform's 1/q: scaling
by 2^-p is exact for normal values, and it commutes with the clamp, with
every partial sum of the row sum and with the division.  So dropping it
can change an entry only where x/q would be subnormal; the clamped row
sum is about q (q times the product of the transformed inputs at u = 0,
each about 1), so such an entry is below 2^-1022 either way and falls
under the message floor.
Iteration 1 starts from the prior p0 on every edge, so its check pass
depends on f_m alone: a decoder keeps a copy of that pass's clamped
transform output for the last f_m it iterated at, and iteration 1
gathers from the copy through the same indices through which every
later iteration gathers from its own pass.  The copy is one float64
array and the indices one int64 array, each M*L*q entries: 16.3 MB
together for GF(256) at P=331 (n=15888).  `op_count` still counts
iteration 1 in full, since it models the convolution's arithmetic, not
the work executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from nbqc.binexpand import CssCodePair
from nbqc.nblift import DimensionMismatch, _symbol_vector


class LengthMismatch(ValueError):
    pass


class NonFiniteMessage(ArithmeticError):
    """A message PMF contains NaN or infinity."""


# lower bound on every normalised message entry
_PMF_FLOOR = 1e-300


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration cap.  Ties go to the lowest symbol."""

    max_iter: int = 32

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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


def _symbol_weights(p: int) -> np.ndarray:
    """Hamming weight of every symbol in [0, 2^p)."""
    return (np.arange(1 << p)[:, None] >> np.arange(p) & 1).sum(axis=1)


class WHTWork(NamedTuple):
    """`x`, the (rows, q) view of the symbol-major (q, rows) buffer that
    holds the input; the (in, out) views of every butterfly stage; and
    `y`, the (rows, q) view of the buffer that holds the result.  The
    stages overwrite the input."""

    x: np.ndarray
    stages: tuple
    y: np.ndarray


# one butterfly: (a, b) -> (a + b, a - b)
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
_H2.setflags(write=False)

# widest (2, w) operand of one product: 2 x 2 x 2^15 multiply-adds stay
# below the size at which OpenBLAS starts threads (M*N*K > 4 * 65536 by
# default), which only slow this memory-bound transform down
_MAX_WIDTH = 1 << 15


def _carve(*specs: tuple) -> list[np.ndarray]:
    """One uninitialised array per (shape, dtype) spec, all carved out of
    one allocation, each starting on a 64-byte boundary.

    numpy places an array wherever malloc returns, often 16, 32 or 48
    bytes past a boundary, and the decoder's kernels ran about 10% slower
    at GF(256) n=336 when their buffers sat there (CHANGES.md).  Reading
    an array's address costs about 1.2 us, so it is read once per block.
    """
    spans, end = [], 0
    for shape, dtype in specs:
        start = -(-end // 64) * 64
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        spans.append((start, end))
    raw = np.empty(end + 64, dtype=np.uint8)
    base = -raw.ctypes.data % 64
    return [raw[base + start:base + stop].view(dtype).reshape(shape)
            for (start, stop), (shape, dtype) in zip(spans, specs)]


def wht_work(q: int, rows: int) -> WHTWork:
    """Two (q, rows) float64 buffers and the views of every butterfly
    stage; the first buffer also holds the input."""
    if q < 2 or q & (q - 1):
        raise LengthMismatch(f"length {q} is not a power of 2 above 1")
    return _wht_views(*_carve(((q, rows), np.float64), ((q, rows), np.float64)))


def _wht_views(*bufs: np.ndarray) -> WHTWork:
    """`WHTWork` over two C-contiguous (q, rows) float64 buffers."""
    q, rows = bufs[0].shape
    span = 1 << (max(1, _MAX_WIDTH // max(rows, 1)).bit_length() - 1)

    def stage(buf, h):
        # symbol s = (2 * block + half) * h + j pairs with s + h, so each
        # block is one (2, h*rows) matrix, taken g*rows columns at a time
        g = min(h, span)
        return buf.reshape(q // (2 * h), 2, h // g, g * rows).transpose(0, 2, 1, 3)

    # stage k reads buffer k mod 2 and writes the other one
    log2q = q.bit_length() - 1
    stages = tuple((stage(bufs[k & 1], 1 << k), stage(bufs[(k + 1) & 1], 1 << k))
                   for k in range(log2q))
    return WHTWork(bufs[0].T, stages, bufs[log2q & 1].T)


def walsh_hadamard(x: np.ndarray, work: WHTWork | None = None) -> np.ndarray:
    """Unnormalised WHT along the last axis (length a power of 2).

    Applying it twice multiplies by q.  The butterflies run on a
    symbol-major (q, rows) float64 layout, alternating between two
    buffers, the first of which holds a copy of the input, so `x` is
    never written (unless it is `work.x`, below).  Each stage h = 1, 2,
    4, ... is one product H2 @ B with H2 = [[1, 1], [1, -1]] and B the
    (q/2h, 2, h*rows) view of its buffer, split into (2, w) operands no
    wider than `_MAX_WIDTH`: every output is a two-term sum of operands
    times +-1, rounded once, so it equals the add/subtract butterfly bit
    for bit, except that an exact zero may take either sign (see the
    module docstring).  The result has the input's shape and a
    symbol-major memory layout (`np.moveaxis(result, -1, 0)` C-contiguous).

    `work`, from `wht_work(q, rows)`, supplies the buffers; the result is
    then a view of `work.y`, which the next call with the same `work`
    overwrites.  The input is copied into `work.x`, unless it is `work.x`
    itself: a caller that writes its input there saves the copy and the
    checks, gets `work.y` back, and finds `work.x` overwritten.  Without
    `work`, fresh buffers are made.
    """
    if work is None or x is not work.x:
        x = np.asarray(x)
        q = x.shape[-1]
        if q & (q - 1):
            raise LengthMismatch(f"length {q} is not a power of 2")
        if q == 1:
            return x.astype(np.float64)
        rows = x.reshape(-1, q)
        if work is None:
            work = wht_work(q, len(rows))
        elif work.x.shape != rows.shape:
            raise LengthMismatch(f"work buffers are {work.x.shape[::-1]}, "
                                 f"input is {rows.shape[::-1]}")
        np.copyto(work.x, rows)
        return _butterflies(work).reshape(x.shape)
    return _butterflies(work)


def _butterflies(work: WHTWork) -> np.ndarray:
    for a, b in work.stages:
        np.matmul(_H2, a, out=b)
    return work.y


def _row_sums(msgs: np.ndarray, kind: str, it: int) -> np.ndarray:
    """Sums along the last axis, which normalise `msgs`.

    Raises NonFiniteMessage unless every sum is positive, which also
    refuses NaN, since `np.minimum` propagates it.  No sum can be
    infinite, so a positive sum makes every normalised entry finite:
    entries are >= 0 or NaN, and bounded.  Every normalised message has
    entries in [0, 1] (each is at most its row's sum, and the floor is
    below 1), and so does the prior.  A variable message is the prior
    times a normalised check message, so its entries are at most the
    prior's, and its sum at most 1.  A check message entry is a value of
    the unnormalised inverse transform, a q-term sum of products of
    transforms of messages with entries in [0, 1] and sums about 1; each
    such transform value and product is at most about 1 in magnitude, so
    the entry is at most about q, and so is the sum (the entries before
    the clamp sum to q times the product at u = 0).  The test comes
    before the division, so a 0/0 raises without a warning.
    """
    sums = np.add.reduce(msgs, axis=-1, keepdims=True)
    if not np.minimum.reduce(sums, axis=None) > 0.0:
        raise NonFiniteMessage(f"{kind} messages non-finite at iteration {it}")
    return sums


class SyndromeDecoder:
    """Reusable decoder for one constituent code of a pair.

    Precomputes, per edge (m, k): the symbol permutation of the entry's
    binary image (held once, in column-pair slot order, where the
    syndrome reads it through per-edge offsets), flat gather indices
    through its inverse, and column-to-edge pointers.  Each decode builds
    the gather through the permutations, translated by its syndrome.  A decoder instance owns its
    message and work buffers; share the (immutable) code across
    instances, not the instance across threads.

    `op_count` accumulates the arithmetic operations (adds and
    multiplies) of the check-node convolutions: transform butterflies
    and transform-domain products.  Index gathers and normalisation
    housekeeping are not counted.
    """

    def __init__(self, code: CssCodePair, role: str):
        self.code = code
        self.role = role
        field = code.field
        self.q = q = field.q
        self.p = field.p
        mat = code.matrix(role)
        self.cols, logs = mat.row_grid()
        self.M, self.L = M, L = self.cols.shape

        fwd = field.symbol_maps(logs.reshape(-1), transpose=role == "D")   # (M*L, q)

        # column -> its two edges, as indices into the flat (M*L) edge axis:
        # row 0 holds each column's first edge, row 1 its second.  The
        # message to one edge is built from the check message on the other.
        flat_cols = self.cols.reshape(-1)
        if (np.bincount(flat_cols, minlength=code.N) != 2).any():
            raise DimensionMismatch("decoder requires column weight exactly 2")
        edges = np.argsort(flat_cols, kind="stable").reshape(code.N, 2).T   # (2, N)
        # slot j of column n: `_to` on edge edges[j, n], `_from` on the other
        self._edges_from = np.ascontiguousarray(edges[::-1])
        self._checks_from = self._edges_from // L                   # check of each slot
        slot_to = np.empty(M * L, dtype=np.int64)                   # edge -> its slot in _to
        slot_to[edges.reshape(-1)] = np.arange(M * L)
        N, E = code.N, M * L
        # decoder-owned work buffers (see the module docstring)
        f8, i8 = np.float64, np.int64
        (self._gather_in, self._fwd_from, wht_a, wht_b, self._pref, self._suff,
         self._from, self._to, self._belief, self._at, self._prior_tile,
         self._prior_out) = _carve(
            ((q, M, L), i8), ((2, N, q), i8), ((q, E), f8), ((q, E), f8),
            ((L, q, M), f8), ((L, q, M), f8), ((2, N, q), f8), ((2, N, q), f8),
            ((N, q), f8), ((2, N, q), i8), ((2, N, q), f8), ((q, E), f8))
        # flat gather of the symbol-major transform input (q, M, L) from the
        # column-pair variable messages, through the inverse entry maps:
        # entry fwd[e, u] of edge e reads symbol u of its slot; the entry
        # maps in slot order, from which decode builds the gather of the
        # column-pair check messages (see "Syndrome"); the syndrome reads
        # edge e's map at `_from` slot (slot_to[e] + N) mod 2N
        self._gather_in.reshape(q, E)[fwd, np.arange(E)[:, None]] = (
            slot_to[:, None] * q + np.arange(q))
        np.take(fwd, self._edges_from, axis=0, out=self._fwd_from)
        # the rank k*M + m of each slot's edge among the columns of the
        # second transform
        self._edges_col = (self._edges_from % L * M + self._checks_from)[..., None]
        self._syndrome_at = ((slot_to + N) % (2 * N) * q).reshape(M, L)
        log2q = q.bit_length() - 1
        self._ops_per_iteration = (2 * E * q * log2q + E * q
                                   + (2 * (L - 2) + 2 * L) * M * q)

        self._wht = wht = _wht_views(wht_a, wht_b)
        self._t_in = wht_a.reshape(q, M, L)         # the first transform's input,
        t = wht.y.T.reshape(q, M, L)                # its result,
        self._t_ex = wht_a.reshape(q, L, M).transpose(1, 0, 2)   # the second's input
        self._t_out = wht.y.T                       # and its result, rank k*M + m
        pref, suff = self._pref, self._suff
        pref[0] = suff[L - 1] = 1.0
        self._products = (
            tuple((pref[k - 1], t[..., k - 1], pref[k]) for k in range(1, L))
            + tuple((suff[k + 1], t[..., k + 1], suff[k]) for k in range(L - 2, -1, -1)))
        # the prior whose check pass decode last ran, tiled to the message
        # shape, and (in `_prior_out`) a copy of its pass's clamped output
        self._prior_p0 = None

        self.op_count = 0

    def syndrome_of_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Syndrome of N integer symbols in [0, q) via the precomputed edge maps."""
        return self._syndrome(_symbol_vector(symbols, self.code.N, self.q, "error"))

    def _syndrome(self, symbols: np.ndarray) -> np.ndarray:
        mapped = self._fwd_from.take(self._syndrome_at + symbols.take(self.cols))  # (M, L)
        return np.bitwise_xor.reduce(mapped, axis=1)

    def _check_pass(self, to: np.ndarray) -> None:
        """Transform, exclusive products, inverse transform, clamp at 0.

        Leaves the symbol-major (q, M*L) result, columns in (k, m) order
        and not yet translated by the syndrome, in `self._t_out`.  The
        gather indices are in range by construction, and mode "clip"
        writes straight into `out`, which the default mode would buffer.
        The exclusive products go to the transform input buffer, so the
        seeds of the prefix and suffix products, set once, are never
        overwritten.
        """
        wht, multiply = self._wht, np.multiply
        to.take(self._gather_in, out=self._t_in, mode="clip")    # (q, M, L)
        walsh_hadamard(wht.x, wht)
        for a, b, out in self._products:
            multiply(a, b, out=out)
        multiply(self._pref, self._suff, out=self._t_ex)          # exclusive products
        walsh_hadamard(wht.x, wht)
        np.maximum(self._t_out, 0.0, out=self._t_out)

    def decode(self, syndrome: np.ndarray, f_m: float,
               config: DecoderConfig = DecoderConfig()) -> DecodeOutcome:
        syndrome = _symbol_vector(syndrome, self.M, self.q, "syndrome")
        p0 = init_pmf(f_m, self.p)

        # the decision before any message update is the prior's argmax, the
        # all-zero vector (see init_pmf), so it succeeds iff the syndrome is zero
        if not np.count_nonzero(syndrome):
            return DecodeOutcome(status="success", estimate=np.zeros(self.code.N, dtype=np.int64),
                                 iterations=0)

        frm, to, belief, at, tile = self._from, self._to, self._belief, self._at, self._prior_tile
        # the gather out of every check pass, translated by the syndrome
        np.bitwise_xor(self._fwd_from, syndrome[self._checks_from][..., None], out=at)
        np.multiply(at, self.M * self.L, out=at)
        np.add(at, self._edges_col, out=at)
        if self._prior_p0 is not p0:
            np.copyto(tile, p0)
            self._check_pass(tile)
            np.copyto(self._prior_out, self._t_out)
            self._prior_p0 = p0
        table, t_out, to1, from0 = self._prior_out, self._t_out, to[1], frm[0]
        check_pass, syndrome_of, ops = self._check_pass, self._syndrome, self._ops_per_iteration
        maximum, multiply, floor = np.maximum, np.multiply, _PMF_FLOOR
        # both syndromes are int64 vectors of M symbols (`_symbol_vector`,
        # `_syndrome`), so equal bytes mean equal syndromes
        syndrome_bytes = syndrome.tobytes()
        for it in range(1, config.max_iter + 1):
            # -- horizontal: all-but-one convolution with the syndrome mass;
            # iteration 1's pass, on the prior, is the copy kept for p0
            if it > 1:
                check_pass(to)
                table = t_out
            # mode "clip" writes straight into `out`; see _check_pass
            table.take(at, out=frm, mode="clip")                    # (2, N, q)
            self.op_count += ops
            frm /= _row_sums(frm, "check", it)
            maximum(frm, floor, out=frm)

            # -- vertical: channel prior times the other edge's check message,
            # for both edges of every column at once; the belief
            # (p0 * from_first) * from_second is taken before normalising
            multiply(frm, tile, out=to)
            multiply(to1, from0, out=belief)
            to /= _row_sums(to, "variable", it)
            maximum(to, floor, out=to)

            # -- tentative decision and syndrome check
            estimate = belief.argmax(axis=1)
            if syndrome_of(estimate).tobytes() == syndrome_bytes:
                return DecodeOutcome(status="success", estimate=estimate, iterations=it)

        return DecodeOutcome(status="fail", estimate=estimate, iterations=config.max_iter)
