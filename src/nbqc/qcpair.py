"""Orthogonal (J, L, P) quasi-cyclic binary parity-check pairs.

Both matrices are J x L grids of P x P circulants I(x), where I(1) is
the cyclic shift and I(x) = I(1)^x.  With sigma of order L/2 in Z_P^*
and a twist tau outside its orbit, the exponent formulas below give a
pair whose product over GF(2) vanishes and whose Tanner graphs are free
of 4-cycles.  The lift to GF(2^p) keeps these supports.

A sparse binary matrix is stored as two int64 index arrays, `row` and
`col`, one entry per nonzero, row-major with columns ascending within
each row.  The expansion writes them in one broadcast, and the matrices
of the construction have uniform row weight, so `col.reshape(m, L)` is
the support row by row.  Checks that pair up nonzeros (4-cycles here,
orthogonality in `nblift` and `binexpand`) join the index arrays with
`_column_join` instead of comparing rows.  It reads each column's
entries off `_column_index`, offsets found by counting, which the cycle
walk of `nblift` uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidParams(ValueError):
    """Parameter set violates the construction conditions."""


@dataclass(frozen=True)
class QCParams:
    """Circulant size P, block shape J x L, and the pair (sigma, tau)."""

    P: int
    J: int
    L: int
    sigma: int
    tau: int


@dataclass(frozen=True, eq=False)
class ExponentMatrix:
    """J x L table of circulant exponents plus its role tag (C or D)."""

    role: str
    table: np.ndarray

    @property
    def J(self) -> int:
        return self.table.shape[0]

    @property
    def L(self) -> int:
        return self.table.shape[1]


@dataclass(eq=False)
class SparseBinaryMatrix:
    """Binary m x n matrix: its ones sit at (row[k], col[k]), in row-major
    order with columns ascending within each row."""

    m: int
    n: int
    row: np.ndarray     # int64
    col: np.ndarray     # int64

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.m, self.n), dtype=np.uint8)
        d[self.row, self.col] = 1
        return d

    def nnz(self) -> int:
        return len(self.col)


@dataclass(frozen=True)
class QCPair:
    """The exponent matrices of an orthogonal QC pair with its parameters."""

    params: QCParams
    c: ExponentMatrix
    d: ExponentMatrix

    def expand_c(self) -> SparseBinaryMatrix:
        return expand(self.c, self.params.P)

    def expand_d(self) -> SparseBinaryMatrix:
        return expand(self.d, self.params.P)


def _order(a: int, P: int) -> int:
    """Multiplicative order of a unit a in Z_P."""
    v, k = a % P, 1
    while v != 1:
        v = v * a % P
        k += 1
        if k > P:
            raise ArithmeticError(f"{a} is not a unit mod {P}")
    return k


def _unit_count(P: int) -> int:
    return sum(1 for z in range(1, P) if math.gcd(z, P) == 1)


def validate_params(params: QCParams) -> list[str]:
    """Return the names of every violated construction condition.

    Empty list means the parameter set is admissible.
    """
    P, J, L, sigma, tau = params.P, params.J, params.L, params.sigma, params.tau
    violations = []
    if P <= 2:
        violations.append("P_not_greater_than_2")
        return violations
    sigma_unit = math.gcd(sigma % P, P) == 1 and sigma % P != 0
    tau_unit = math.gcd(tau % P, P) == 1 and tau % P != 0
    if not sigma_unit:
        violations.append("sigma_not_unit")
    if not tau_unit:
        violations.append("tau_not_unit")
    if L % 2 != 0:
        violations.append("L_not_even")
    if not sigma_unit:
        return violations
    order = _order(sigma, P)
    if L % 2 == 0 and order != L // 2:
        violations.append("order_mismatch")
    if not 1 <= J <= order:
        violations.append("J_out_of_range")
    if order == _unit_count(P):
        violations.append("order_equals_unit_group")
    for j in range(1, order):
        if math.gcd((1 - pow(sigma, j, P)) % P, P) != 1:
            violations.append("one_minus_sigma_power_not_unit")
            break
    orbit = {pow(sigma, j, P) for j in range(order)}
    if tau % P in orbit:
        violations.append("tau_in_sigma_orbit")
    return violations


def build_pair(params: QCParams) -> QCPair:
    """Exponent matrices of the orthogonal pair for a valid parameter set.

    c[j, l] = sigma^(-j+l), twisted by tau on the right half;
    d[j, l] = -tau * sigma^(j-l), untwisted on the right half.
    All exponents are normalised into [0, P).

    Any admissible J is built; the non-binary lift is only proved for
    column weight 2, and `nblift.lift` rejects any other.
    """
    violations = validate_params(params)
    if violations:
        raise InvalidParams(f"invalid parameters {params}: {', '.join(violations)}")
    P, J, L, sigma, tau = params.P, params.J, params.L, params.sigma, params.tau
    sigma_inv = pow(sigma, -1, P)
    c = np.zeros((J, L), dtype=np.int64)
    d = np.zeros((J, L), dtype=np.int64)
    for j in range(J):
        for ell in range(L):
            twist_c = tau if ell >= L // 2 else 1
            twist_d = tau if ell < L // 2 else 1
            c[j, ell] = twist_c * pow(sigma_inv, j, P) * pow(sigma, ell, P) % P
            d[j, ell] = -twist_d * pow(sigma, j, P) * pow(sigma_inv, ell, P) % P
    return QCPair(params=params,
                  c=ExponentMatrix(role="C", table=c),
                  d=ExponentMatrix(role="D", table=d))


def expand(exponents: ExponentMatrix, P: int) -> SparseBinaryMatrix:
    """Blow up an exponent table into its JP x LP binary matrix.

    Row r of I(x) has its single 1 at column (x + r) mod P.  Block ell
    holds the columns [ell P, (ell + 1) P), so each row's columns
    already ascend with ell.
    """
    J, L = exponents.table.shape
    r = np.arange(P)[:, None]
    cols = np.arange(L) * P + (exponents.table[:, None, :] + r) % P     # (J, P, L)
    return SparseBinaryMatrix(m=J * P, n=L * P, row=np.repeat(np.arange(J * P), L),
                              col=cols.reshape(-1))


def _column_index(cols, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries grouped by column, by counting: (order, start).

    Column c's entries are order[start[c]:start[c + 1]], in their
    original order.  `start` holds the n + 1 offsets, a cumulative sum
    of the column counts.  `order` is a stable argsort of `cols`, taken
    as one plain sort of keys that carry each entry's index in their low
    bits; on int64 that is several times faster than numpy's stable
    argsort.
    """
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    shift = len(cols).bit_length()
    order = np.sort(cols << shift | np.arange(len(cols))) & ((1 << shift) - 1)
    return order, start


def _column_join(cols_a, cols_b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of nonzeros, one of A and one of B, in the same column.

    Returns index arrays (ia, ib) into the two entry lists, in A's entry
    order.  B's entries are indexed by column once (`_column_index`);
    each entry of A reads its column's run off the offsets and is
    repeated over it.  The join holds sum_c w_a(c) w_b(c) pairs, where
    w_a and w_b are column weights; callers group the pairs as they need.
    """
    by_col, start = _column_index(cols_b, n)
    lo = start[cols_a]
    counts = start[cols_a + 1] - lo
    ia = np.repeat(np.arange(len(cols_a)), counts)
    # pair k of an A entry whose pairs begin at k0 reads B's run at lo + k - k0
    ib = by_col[np.arange(len(ia)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    return ia, ib


def has_4cycle(mat: SparseBinaryMatrix) -> bool:
    """True iff two columns share two or more rows.

    Joining the ones on their row lists every pair of ones in one row;
    a pair of distinct columns that occurs in two rows closes a 4-cycle,
    so its (column, column) key repeats.
    """
    ia, ib = _column_join(mat.row, mat.row, mat.m)
    left, right = mat.col[ia], mat.col[ib]
    keys = np.sort((left * mat.n + right)[left < right])
    return bool((keys[1:] == keys[:-1]).any())


def find_params(L: int, P_range) -> list[QCParams]:
    """Exhaustive scan for admissible (P, sigma, tau) with J=2.

    Returns every combination that passes validation, ordered by
    (P, sigma, tau).  May be empty (e.g. no element of order L/2).
    The conditions of `validate_params` that involve only sigma are
    checked once per sigma; the tau scan then tests the two that involve
    tau (a unit, outside the orbit of sigma), and runs only for the few
    sigma that pass.
    """
    if L % 2 != 0 or L < 4:
        raise InvalidParams(f"L must be even and >= 4, got {L}")
    order = L // 2
    found = []
    for P in P_range:
        if P <= 2:
            continue
        for sigma in range(1, P):
            # pow filters first, so _order only walks orders dividing L/2
            if (math.gcd(sigma, P) != 1 or pow(sigma, order, P) != 1
                    or _order(sigma, P) != order):
                continue
            powers = [pow(sigma, j, P) for j in range(order)]
            if order == _unit_count(P) or any(math.gcd((1 - s) % P, P) != 1 for s in powers[1:]):
                continue
            orbit = set(powers)
            found.extend(QCParams(P=P, J=2, L=L, sigma=sigma, tau=tau)
                         for tau in range(1, P)
                         if math.gcd(tau, P) == 1 and tau not in orbit)
    return found
