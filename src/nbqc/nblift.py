"""Lifting a binary QC pair to orthogonal matrices over GF(2^p).

For column weight 2, the nonzeros of the first matrix that sit in the
support columns of any single row of the second matrix form one closed
cycle of length 2L in the Tanner graph.  Walking that cycle splits the
positions into two interleaved L-sets E1 and E2; orthogonality of the
lifted pair reduces to one balance equation per row,

    sum_{E1} log gamma - sum_{E2} log gamma = 0  (mod 2^p - 1),

which is solved over the residue ring and sampled.  The logs of the
second matrix's nonzeros are the running sums of the same log
differences around each cycle, and the sum over a whole cycle is the
determinant condition that `nbqc verify` re-checks.

An `NBMatrix` is a `SparseBinaryMatrix`, int64 arrays `row` and `col`
with one entry per nonzero in row-major order and columns ascending
within each row, that also holds `log`, the discrete log of the element
at each entry, as the NBQC file does; the support checks of `qcpair`
take it as it is.  A log names a nonzero element, so no stored entry is
zero.  The first matrix takes its `row` and `col` from the QC
expansion, whose entry order is also the numbering of the lift's
variables, so its logs are the sampled solution itself.  The second
matrix's entries are each cycle's columns, sorted per row.

Costs.  `cycle_structure` walks the cycles of all M rows at once: one
column index of the first matrix (`qcpair._column_index`: column
offsets by counting, O(nnz) plus one sort), then L steps of one array
lookup each.  `lift` expands each matrix of the pair once and walks the cycles
once; the stages it calls (`assemble_constraints`, `lift_gamma`,
`solve_delta`) take the expansion and the walk as inputs and neither
expand nor walk again.  A construct therefore walks the cycles once,
and `nbqc verify` walks them once more for the determinant check.  The
balance graph, the second matrix and the determinant check are built
from the cycles as two (M, L) arrays, and the logs of the first matrix
on E1 and E2 come from one `NBMatrix.log_at` lookup: O(M L) array
work, with no per-row Python walk and no per-entry field arithmetic.
The balance graph's edges are the variables: one stable sort of the
walk's variable ranks lists each variable's two equations, ascending.
`verify_orthogonal` joins the nonzeros of the two matrices on their
column (`qcpair._column_join`, which reads each column's run of the
second matrix off the same counting index): only row pairs that share
a column appear, and each pair's products, the antilogs of the summed
logs, are XOR-summed.  A pair that shares no column has a zero
product, so the check is exact.  The join
lists sum_c w1(c) w2(c) entry pairs, where w1 and w2 are column
weights: O(nnz x column weight), sorted once to group them by row
pair.  No array has one cell per pair of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nbqc.gf2p import FieldSpec
from nbqc.modring import BalanceGraph, NotBalancedGraph, sample_solution, solve_mod
from nbqc.qcpair import QCPair, QCParams, SparseBinaryMatrix, _column_index, _column_join


class NotACycle(ValueError):
    """The restricted Tanner graph walk did not close after 2L steps."""


class ClosureViolation(AssertionError):
    """A cycle recurrence failed its wrap-around check."""


class DimensionMismatch(ValueError):
    pass


def _symbol_vector(values, n: int, q: int, what: str) -> np.ndarray:
    """`values` as an int64 array of n symbols in [0, q), q a power of 2.

    Raises DimensionMismatch naming `what` unless `values` has shape (n,)
    and an integer dtype (bool, float, complex and object arrays are
    refused rather than cast) and every symbol lies in [0, q).
    """
    values = np.asarray(values)
    if values.shape != (n,):
        raise DimensionMismatch(f"{what} must be {n} symbols, got shape {values.shape}")
    if values.dtype.kind not in "iu":
        raise DimensionMismatch(f"{what} symbols must be integers, got dtype {values.dtype}")
    # q is a power of 2: the OR of all symbols is negative iff one is,
    # and at least q iff one is
    bits = np.bitwise_or.reduce(values)
    if bits < 0 or bits >= q:
        raise DimensionMismatch(f"{what} symbols must lie in [0, {q})")
    return values.astype(np.int64, copy=False)


MAX_RESAMPLE = 1000     # draws `lift_gamma` makes before giving up on a non-trivial lift


@dataclass(eq=False)
class NBMatrix(SparseBinaryMatrix):
    """Sparse matrix over GF(2^p): the element alpha^log[k] at the support
    entry (row[k], col[k]).

    Every stored element is nonzero; the support is that of the QC
    expansion the matrix was lifted from.
    """

    role: str                    # "GAMMA" | "DELTA"
    field: FieldSpec
    params: QCParams
    log: np.ndarray              # int64 discrete logs in [0, q - 1)

    def log_at(self, i, j):
        """The log of the element at (i, j), -1 off the support.

        i and j may be index arrays, broadcast together; the result is
        then an int64 array, found with one `searchsorted` over the
        row-major (ascending) keys of the stored entries.
        """
        keys = np.append(self.row * self.n + self.col, np.iinfo(np.int64).max)
        i, j = np.asarray(i), np.asarray(j)
        want = np.where((0 <= j) & (j < self.n), i * self.n + j, -1)
        at = np.searchsorted(keys, want)
        found = np.where(keys[at] == want, np.append(self.log, -1)[at], -1)
        return found if found.ndim else int(found)

    def row_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, logs) as (m, L) arrays; requires uniform row weight."""
        L = _row_weight(self, "row weight is not uniform")
        return self.col.reshape(self.m, L), self.log.reshape(self.m, L)


def _row_weight(mat, what: str) -> int:
    """The common row weight of `mat`; raises DimensionMismatch(what) if
    its rows differ in weight."""
    weights = np.bincount(mat.row, minlength=mat.m)
    if (weights != weights[:1]).any():
        raise DimensionMismatch(what)
    return int(weights[0]) if len(weights) else 0


def _require(bad: np.ndarray, what: str) -> None:
    """Raise NotACycle naming the first row flagged in `bad` (M rows)."""
    if bad.any():
        raise NotACycle(f"row {int(bad.argmax())}: {what}")


def cycle_structure(hc: SparseBinaryMatrix,
                    hd: SparseBinaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Walk the cycle of every row of the second matrix through the
    Tanner graph of the first.

    Returns (m_seq, n_seq), two (M, L) int64 arrays: row r's cycle
    visits columns n_seq[r] and checks m_seq[r] in turn, so position i
    gives (m_i, n_i) to E1 and (m_i, n_{i+1 mod L}) to E2.  Each walk
    starts at the row's smallest support column (the block-0 column)
    and at its check neighbour in the top half, so the orientation
    matches the closed forms.

    All rows walk together.  Incidence 2j + s of a row is the s-th check
    neighbour of its support column j; `partner` pairs the two
    incidences of each check, and one step, partner ^ 1, moves to the
    other check of the next column.  Raises NotACycle when a support
    column does not have 2 check neighbours, when the restricted graph
    is not 2-regular on L checks, when the first column lacks a unique
    top-half neighbour, or when a walk does not close after exactly L
    columns.
    """
    if hc.m != hd.m or hc.n != hd.n:
        raise DimensionMismatch("pair matrices must have equal shape")
    M, L = hd.m, _row_weight(hd, "rows of the second matrix differ in weight")
    support = hd.col.reshape(M, L)
    by_col, start = _column_index(hc.col, hc.n)
    first = start[support]
    _require((start[support + 1] - first != 2).any(axis=1),
             "a support column does not have 2 check neighbours")
    checks = hc.row[by_col[first[:, :, None] + np.arange(2)]].reshape(M, 2 * L)

    order = np.argsort(checks, axis=1, kind="stable")
    pairs = np.take_along_axis(checks, order, axis=1).reshape(M, L, 2)
    _require((pairs[:, :, 0] != pairs[:, :, 1]).any(axis=1)
             | (pairs[:, 1:, 0] == pairs[:, :-1, 1]).any(axis=1),
             f"restricted graph is not 2-regular on {L} checks")
    top = checks[:, :2] < hc.m // 2
    _require(top[:, 0] == top[:, 1], "the first column lacks a unique top-half neighbour")

    # sorted by check, incidences come in pairs that share a check
    partner = np.empty_like(order)
    np.put_along_axis(partner, order, order.reshape(M, L, 2)[:, :, ::-1].reshape(M, 2 * L),
                      axis=1)
    # flat incidence indices, so that each step is one lookup
    base = np.arange(M) * (2 * L)
    partner = (partner + base[:, None]).ravel()
    walk = np.empty((L + 1, M), dtype=np.int64)
    walk[0] = base + top[:, 1]
    for i in range(L):
        walk[i + 1] = partner[walk[i]] ^ 1
    walk = walk.T - base[:, None]
    column = walk >> 1              # rows are sorted: the walk starts at column 0
    _require((column[:, 1:L] == 0).any(axis=1) | (column[:, L] != 0),
             f"walk does not close after exactly {L} columns")
    return (np.take_along_axis(checks, walk[:, :L], axis=1),
            np.take_along_axis(support, column[:, :L], axis=1))


def _sides(cycles: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) index arrays of E1 and E2, each stacked as (2, M, L)."""
    m_seq, n_seq = cycles
    return np.stack((m_seq, m_seq)), np.stack((n_seq, np.roll(n_seq, -1, axis=1)))


def assemble_constraints(hc: SparseBinaryMatrix, cycles: tuple[np.ndarray, np.ndarray],
                         modulus: int) -> BalanceGraph:
    """Balance equations for the lift, one per row of the second matrix,
    as the graph whose edges are the variables.

    Variables are the discrete logs of the first matrix `hc`'s nonzeros:
    a variable's index is its entry's row-major rank in `hc`.  The
    modulus is 2^p - 1 for a lift over GF(2^p).  Row r's cycle in
    `cycles`, the pair's `cycle_structure`, gives its E1 variables
    coefficient +1 and its E2 variables -1.

    Each variable lies on two cycles, one from each half of the second
    matrix, with equal coefficients: the system is a balanced signed
    graph, which `solve_mod` solves on its spanning forest.  Raises
    NotBalancedGraph for a variable that the cycles do not visit
    exactly twice.
    """
    i, j = _sides(cycles)
    M, L = cycles[1].shape
    # row-major keys ascend, so a position's rank is its variable index;
    # positions in equation order: row r's E1, then its E2
    var = np.searchsorted(hc.row * hc.n + hc.col, i * hc.n + j).transpose(1, 0, 2).reshape(-1)
    counts = np.bincount(var, minlength=hc.nnz())
    if (counts != 2).any():
        v = int((counts != 2).argmax())
        raise NotBalancedGraph(f"variable {v} has {counts[v]} positions, not 2")
    # a stable sort lists each variable's two positions, equations ascending
    at = np.argsort(var, kind="stable").reshape(-1, 2)
    return BalanceGraph(modulus=modulus, n_equations=M, ends=at // (2 * L),
                        coefs=np.where(at % (2 * L) < L, 1, -1))


def cycle_log_steps(gamma: NBMatrix,
                    cycles: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Log differences of the first matrix around each cycle.

    Returns (steps, zeros).  steps[r, i] = log gamma(E1_i) -
    log gamma(E2_i) on row r's cycle, an (M, L) array, and the row is
    balanced iff its steps sum to 0 mod 2^p - 1.  zeros is (2, M) and
    flags a cycle that meets a zero of gamma, a position off its
    support, on E1 (zeros[0]) or on E2 (zeros[1]); a zero has no log,
    so that row's steps mean nothing.  Both sides come from one
    `log_at` lookup.
    """
    logs = gamma.log_at(*_sides(cycles))
    return logs[0] - logs[1], (logs < 0).any(axis=2)


def lift(pair: QCPair, field: FieldSpec, rng: np.random.Generator,
         reject_trivial: bool = False) -> tuple[NBMatrix, NBMatrix]:
    """Lift an orthogonal binary QC pair to an orthogonal pair
    (gamma, delta) over `field`.

    Expands each matrix of the pair once and walks its cycles once;
    `lift_gamma` samples the first matrix on those cycles and
    `solve_delta` propagates the second around them.
    """
    if pair.params.J != 2:
        raise DimensionMismatch("cycle constraints require column weight J=2")
    hc = pair.expand_c()
    cycles = cycle_structure(hc, pair.expand_d())
    gamma = lift_gamma(hc, cycles, field, pair.params, rng, reject_trivial)
    return gamma, solve_delta(gamma, cycles)


def lift_gamma(hc: SparseBinaryMatrix, cycles: tuple[np.ndarray, np.ndarray],
               field: FieldSpec, params: QCParams, rng: np.random.Generator,
               reject_trivial: bool = False) -> NBMatrix:
    """Sample the first non-binary matrix on the support `hc`.

    Logs are drawn from the solution space of the balance equations on
    `cycles`, the pair's `cycle_structure`, so every cycle determinant
    vanishes by construction.  With `reject_trivial`, the all-zero log
    draw (the all-ones matrix, which collapses back to the binary code)
    is resampled.  `params` goes into the matrix's header.
    """
    space = solve_mod(assemble_constraints(hc, cycles, field.q - 1))
    for _ in range(MAX_RESAMPLE):
        logs = sample_solution(space, rng)
        if not reject_trivial or logs.any():
            break
    else:
        raise RuntimeError("could not sample a non-trivial lift")
    # variables are numbered row-major over the support, like its entries
    return NBMatrix(m=hc.m, n=hc.n, role="GAMMA", field=field, params=params,
                    row=hc.row, col=hc.col, log=logs)


def solve_delta(gamma: NBMatrix, cycles: tuple[np.ndarray, np.ndarray]) -> NBMatrix:
    """Propagate the second matrix's nonzeros around each of `cycles`,
    the pair's `cycle_structure`.

    Row r is a null-space ray of its cycle's bidiagonal system,
    delta(n_{i+1}) = delta(n_i) gamma(E1_i) / gamma(E2_i), with the
    anchor delta(n_0) fixed to 1 (any nonzero scaling gives an
    equivalent code): its logs are the running sums of the cycle's log
    steps mod 2^p - 1.  The sum over the whole cycle must vanish; a
    cycle that does not close, or that meets a zero of gamma, flags a
    first matrix that breaks its determinant condition, which
    lift_gamma rules out, and raises ClosureViolation.  The shape,
    field and params come from gamma.
    """
    field = gamma.field
    steps, zeros = cycle_log_steps(gamma, cycles)
    running = np.cumsum(steps, axis=1) % (field.q - 1)
    broken = zeros.any(axis=0) | (running[:, -1] != 0)
    if broken.any():
        raise ClosureViolation(f"row {int(broken.argmax())}: cycle closure failed "
                               "(determinant condition broken)")
    # the closed total is 0, so rolling it to the front gives the anchor's log
    n_seq = cycles[1]
    M, L = n_seq.shape
    by_col = np.argsort(n_seq, axis=1)
    return NBMatrix(m=M, n=gamma.n, role="DELTA", field=field, params=gamma.params,
                    row=np.repeat(np.arange(M), L),
                    col=np.take_along_axis(n_seq, by_col, axis=1).reshape(-1),
                    log=np.take_along_axis(np.roll(running, 1, axis=1), by_col,
                                           axis=1).reshape(-1))


def verify_orthogonal(gamma: NBMatrix, delta: NBMatrix) -> bool:
    """All pairwise row products over GF(2^p) vanish.

    Sparse column join (see the module docstring); zero-dimension
    matrices are orthogonal.
    """
    if gamma.n != delta.n:
        raise DimensionMismatch(
            f"column counts differ: {gamma.n} != {delta.n}")
    field = gamma.field
    ig, id_ = _column_join(gamma.col, delta.col, gamma.n)
    if not len(ig):
        return True
    keys = gamma.row[ig] * delta.m + delta.row[id_]
    order = np.argsort(keys)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    products = field.exp_table[(gamma.log[ig] + delta.log[id_]) % (field.q - 1)]
    return not np.bitwise_xor.reduceat(products[order], starts).any()
