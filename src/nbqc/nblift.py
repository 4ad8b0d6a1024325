"""Lifting a binary QC pair to orthogonal matrices over GF(2^p).

For column weight 2, the nonzeros of the first matrix that sit in the
support columns of any single row of the second matrix form one closed
cycle of length 2L in the Tanner graph.  Walking that cycle splits the
positions into two interleaved L-sets E1 and E2; orthogonality of the
lifted pair reduces to one balance equation per row,

    sum_{E1} log gamma - sum_{E2} log gamma = 0  (mod 2^p - 1),

which is solved over the residue ring and sampled.  The nonzeros of the
second matrix then follow by a two-term recurrence around each cycle.

Costs.  `cycle_structures` indexes the column neighbours of the first
matrix once, so each of its M walks costs O(L).  `verify_orthogonal`
joins the nonzeros of the two matrices on their column: only row pairs
that share a column appear, and each pair's products are XOR-summed.
A pair that shares no column has a zero product, so the check is
exact.  The join lists sum_c w1(c) w2(c) entry pairs, where w1 and w2
are column weights: O(nnz x column weight), sorted once to group them
by row pair.  No array has one cell per pair of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nbqc.gf2p import FieldSpec
from nbqc.modring import ModSystem, sample_solution, solve_mod
from nbqc.qcpair import QCPair, QCParams, SparseBinaryMatrix


class NotACycle(ValueError):
    """The restricted Tanner graph walk did not close after 2L steps."""


class ClosureViolation(AssertionError):
    """A cycle recurrence failed its wrap-around check."""


class DimensionMismatch(ValueError):
    pass


@dataclass
class CycleStructure:
    """The 2L-cycle induced by row m_prime of the second QC matrix.

    n_seq walks the L support columns, m_seq the L check rows of the
    first matrix; position i contributes (m_i, n_i) to E1 and
    (m_i, n_{i+1 mod L}) to E2.
    """

    m_prime: int
    n_seq: list
    m_seq: list

    @property
    def L(self) -> int:
        return len(self.n_seq)

    def e1(self) -> list[tuple[int, int]]:
        return [(m, n) for m, n in zip(self.m_seq, self.n_seq)]

    def e2(self) -> list[tuple[int, int]]:
        L = self.L
        return [(self.m_seq[i], self.n_seq[(i + 1) % L]) for i in range(L)]


@dataclass(eq=False)
class NBMatrix:
    """Sparse matrix over GF(2^p): per-row sorted (column, element) pairs.

    All stored elements are nonzero; the support is that of the QC
    expansion the matrix was lifted from.
    """

    m: int
    n: int
    role: str                    # "GAMMA" | "DELTA"
    field: FieldSpec
    params: QCParams
    rows: list                   # rows[i]: sorted list of (col, value)

    def entry(self, i: int, j: int) -> int:
        for c, v in self.rows[i]:
            if c == j:
                return v
        return 0

    def support(self) -> SparseBinaryMatrix:
        return SparseBinaryMatrix(
            m=self.m, n=self.n, rows=[[c for c, _ in row] for row in self.rows])

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.m, self.n), dtype=np.int64)
        for i, row in enumerate(self.rows):
            for c, v in row:
                d[i, c] = v
        return d

    def row_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, vals) as (m, L) arrays; requires uniform row weight."""
        weights = {len(r) for r in self.rows}
        if len(weights) != 1:
            raise DimensionMismatch("row weight is not uniform")
        cols = np.array([[c for c, _ in row] for row in self.rows], dtype=np.int64)
        vals = np.array([[v for _, v in row] for row in self.rows], dtype=np.int64)
        return cols, vals

    def same_shape(self, other: "NBMatrix") -> bool:
        return self.m == other.m and self.n == other.n

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, value) arrays of the stored entries, row by row."""
        rows, cols = self.support().coo()
        vals = np.fromiter((v for row in self.rows for _, v in row),
                           dtype=np.int64, count=len(cols))
        return rows, cols, vals


def _column_join(rows_a, cols_a, rows_b, cols_b):
    """Every pair of nonzeros, one of A and one of B, in the same column.

    Returns index arrays (ia, ib) into the two entry lists, sorted so
    that the pairs of each (row of A, row of B) are contiguous, and the
    start of each such run.  B's entries are sorted by column once;
    each entry of A finds its column's run with searchsorted and is
    repeated over it.
    """
    by_col = np.argsort(cols_b)
    sorted_cols = cols_b[by_col]
    lo = np.searchsorted(sorted_cols, cols_a, side="left")
    counts = np.searchsorted(sorted_cols, cols_a, side="right") - lo
    ia = np.repeat(np.arange(len(cols_a)), counts)
    # each pair's offset inside its A entry's run
    offsets = np.arange(len(ia)) - np.repeat(np.cumsum(counts) - counts, counts)
    ib = by_col[np.repeat(lo, counts) + offsets]
    keys = rows_a[ia] * (int(rows_b.max(initial=-1)) + 1) + rows_b[ib]
    order = np.argsort(keys)
    keys = keys[order]
    return ia[order], ib[order], np.flatnonzero(np.diff(keys, prepend=-1))


def cycle_structure(hc: SparseBinaryMatrix, hd: SparseBinaryMatrix,
                    m_prime: int, col_checks: list | None = None) -> CycleStructure:
    """Walk the cycle of row `m_prime` of the second matrix through the
    Tanner graph of the first.

    Starts at the smallest support column (the block-0 column) and at
    its check neighbour in the top half, so the orientation matches the
    closed forms.  Raises NotACycle when the walk does not visit all 2L
    positions and return to its start.

    `col_checks` is `hc.col_supports()`, built here when omitted; with
    it given, the walk costs O(L).
    """
    if hc.m != hd.m or hc.n != hd.n:
        raise DimensionMismatch("pair matrices must have equal shape")
    if not 0 <= m_prime < hd.m:
        raise IndexError(f"row {m_prime} outside [0, {hd.m})")
    if col_checks is None:
        col_checks = hc.col_supports()
    P = hc.m // 2
    support = list(hd.rows[m_prime])
    L = len(support)
    col_neighbors = {c: col_checks[c] for c in support
                     if 0 <= c < hc.n and col_checks[c]}
    if any(len(v) != 2 for v in col_neighbors.values()) or len(col_neighbors) != L:
        raise NotACycle(f"columns of row {m_prime} do not all have 2 check neighbours")
    row_cols = {}
    for c, ms in col_neighbors.items():
        for m in ms:
            row_cols.setdefault(m, []).append(c)
    if any(len(v) != 2 for v in row_cols.values()) or len(row_cols) != L:
        raise NotACycle(f"row {m_prime}: restricted graph is not 2-regular on {L} checks")

    n0 = min(support)
    tops = [m for m in col_neighbors[n0] if m < P]
    if len(tops) != 1:
        raise NotACycle(f"column {n0} lacks a unique top-half neighbour")
    n_seq, m_seq = [n0], [tops[0]]
    while True:
        m_cur, n_cur = m_seq[-1], n_seq[-1]
        nxt = [c for c in row_cols[m_cur] if c != n_cur]
        if len(nxt) != 1:
            raise NotACycle(f"walk stuck at check {m_cur}")
        n_nxt = nxt[0]
        if n_nxt == n0:
            break
        m_nxt = [m for m in col_neighbors[n_nxt] if m != m_cur]
        if len(m_nxt) != 1:
            raise NotACycle(f"walk stuck at column {n_nxt}")
        n_seq.append(n_nxt)
        m_seq.append(m_nxt[0])
        if len(n_seq) > L:
            raise NotACycle(f"walk through row {m_prime} exceeds {L} columns")
    if len(n_seq) != L:
        raise NotACycle(f"walk closed after {len(n_seq)} of {L} columns")
    return CycleStructure(m_prime=m_prime, n_seq=n_seq, m_seq=m_seq)


def cycle_structures(hc: SparseBinaryMatrix,
                     hd: SparseBinaryMatrix) -> list[CycleStructure]:
    """The cycle of every row of the second matrix, in row order.

    The column index of `hc` is built once for all M walks.
    """
    col_checks = hc.col_supports()
    return [cycle_structure(hc, hd, m_prime, col_checks) for m_prime in range(hd.m)]


def assemble_constraints(pair: QCPair, modulus: int,
                         cycles: list | None = None) -> tuple[ModSystem, dict]:
    """Balance equations for the lift, one per row of the second matrix.

    Variables are the discrete logs of the first matrix's nonzeros,
    indexed row-major over its support; the modulus is 2^p - 1 for a
    lift over GF(2^p).  Returns the system together with the
    (row, col) -> variable index map.  `cycles` is the pair's
    `cycle_structures`, walked here when omitted.

    Each variable lies on two cycles, one from each half of the second
    matrix, with equal coefficients: the system is a balanced signed
    graph, which `solve_mod` solves on its spanning forest.
    """
    if pair.params.J != 2:
        raise DimensionMismatch("cycle constraints require column weight J=2")
    hc = pair.expand_c()
    if cycles is None:
        cycles = cycle_structures(hc, pair.expand_d())
    var_index = {}
    for m, cols in enumerate(hc.rows):
        for c in cols:
            var_index[(m, c)] = len(var_index)
    system = ModSystem(modulus=modulus, n_vars=len(var_index))
    for cyc in cycles:
        terms = [(var_index[pos], 1) for pos in cyc.e1()]
        terms += [(var_index[pos], -1) for pos in cyc.e2()]
        system.add_equation(terms)
    return system, var_index


def lift_gamma(pair: QCPair, field: FieldSpec, rng: np.random.Generator,
               reject_trivial: bool = False, max_resample: int = 1000,
               cycles: list | None = None) -> NBMatrix:
    """Sample the first non-binary matrix on the support of the QC pair.

    Logs are drawn from the solution space of the balance equations, so
    every cycle determinant vanishes by construction.  With
    `reject_trivial`, the all-zero log draw (the all-ones matrix, which
    collapses back to the binary code) is resampled.  `cycles` is
    passed on to `assemble_constraints`.
    """
    system, _ = assemble_constraints(pair, field.q - 1, cycles)
    space = solve_mod(system)
    for _ in range(max_resample):
        logs = sample_solution(space, rng)
        if not reject_trivial or logs.any():
            break
    else:
        raise RuntimeError("could not sample a non-trivial lift")
    # variables are numbered row-major over the support: zip takes each
    # row's share of the values in turn
    values = iter(field.exp_table[logs].tolist())
    hc = pair.expand_c()
    rows = [list(zip(cols, values)) for cols in hc.rows]
    return NBMatrix(m=hc.m, n=hc.n, role="GAMMA", field=field,
                    params=pair.params, rows=rows)


def solve_delta(gamma: NBMatrix, pair: QCPair,
                cycles: list | None = None) -> NBMatrix:
    """Propagate the second matrix's nonzeros around each cycle.

    Each row is a null-space ray of the cycle's bidiagonal system; the
    anchor entry is fixed to 1 (any nonzero scaling gives an equivalent
    code).  The wrap-around of each recurrence is re-checked and a
    failure flags a first matrix that does not satisfy its determinant
    condition, which lift_gamma rules out.  `cycles` is the pair's
    `cycle_structures`, walked here when omitted.
    """
    field = gamma.field
    hd = pair.expand_d()
    if cycles is None:
        cycles = cycle_structures(pair.expand_c(), hd)
    entries = [dict(row) for row in gamma.rows]
    rows = []
    for cyc in cycles:
        L = cyc.L
        vals = {cyc.n_seq[0]: 1}
        for i in range(L - 1):
            g_here = entries[cyc.m_seq[i]].get(cyc.n_seq[i], 0)
            g_next = entries[cyc.m_seq[i]].get(cyc.n_seq[i + 1], 0)
            vals[cyc.n_seq[i + 1]] = field.mul(
                vals[cyc.n_seq[i]], field.mul(g_here, field.inv(g_next)))
        g_last = entries[cyc.m_seq[-1]].get(cyc.n_seq[-1], 0)
        g_wrap = entries[cyc.m_seq[-1]].get(cyc.n_seq[0], 0)
        closure = field.mul(vals[cyc.n_seq[-1]], field.mul(g_last, field.inv(g_wrap)))
        if closure != vals[cyc.n_seq[0]]:
            raise ClosureViolation(
                f"row {cyc.m_prime}: cycle closure failed (determinant condition broken)")
        rows.append(sorted(vals.items()))
    return NBMatrix(m=hd.m, n=hd.n, role="DELTA", field=field,
                    params=pair.params, rows=rows)


def verify_orthogonal(gamma: NBMatrix, delta: NBMatrix) -> bool:
    """All pairwise row products over GF(2^p) vanish.

    Sparse column join (see the module docstring); zero-dimension
    matrices are orthogonal.
    """
    if gamma.n != delta.n:
        raise DimensionMismatch(
            f"column counts differ: {gamma.n} != {delta.n}")
    field = gamma.field
    rg, cg, vg = gamma.coo()
    rd, cd, vd = delta.coo()
    g_nz, d_nz = vg != 0, vd != 0       # a zero entry adds nothing
    ig, id_, starts = _column_join(rg[g_nz], cg[g_nz], rd[d_nz], cd[d_nz])
    if not len(starts):
        return True
    logs = field.log_table[vg[g_nz][ig]] + field.log_table[vd[d_nz][id_]]
    products = field.exp_table[logs % (field.q - 1)]
    return not np.bitwise_xor.reduceat(products, starts).any()
