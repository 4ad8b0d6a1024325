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
orthogonality over GF(2^p) in `nblift`) join the index arrays with
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


@dataclass(eq=False)
class SparseBinaryMatrix:
    """Binary m x n matrix: its ones sit at (row[k], col[k]), in row-major
    order with columns ascending within each row."""

    m: int
    n: int
    row: np.ndarray     # int64
    col: np.ndarray     # int64

    def nnz(self) -> int:
        return len(self.col)


@dataclass(frozen=True, eq=False)
class QCPair:
    """The (J, L) int64 circulant exponent tables of an orthogonal QC pair,
    c for the first matrix and d for the second, with its parameters."""

    params: QCParams
    c: np.ndarray
    d: np.ndarray

    def expand_c(self) -> SparseBinaryMatrix:
        return expand(self.c, self.params.P)

    def expand_d(self) -> SparseBinaryMatrix:
        return expand(self.d, self.params.P)


def _unit_count(P: int) -> int:
    return sum(1 for z in range(1, P) if math.gcd(z, P) == 1)


def _sigma_conditions(sigma: int, P: int) -> tuple[int, set, list[str]]:
    """(order, orbit, violations) of sigma in Z_P^*, for P > 2.

    The order of sigma, its orbit {sigma^j mod P}, and the names of the
    violated conditions that involve sigma alone, in `validate_params`'
    order.  A sigma that is not a unit has order 0 and an empty orbit;
    `validate_params` names that case itself.
    """
    if math.gcd(sigma, P) != 1:
        return 0, set(), []
    powers, s = [1], sigma % P
    while s != 1:
        powers.append(s)
        s = s * sigma % P
    violations = [name for name, bad in (
        ("order_equals_unit_group", len(powers) == _unit_count(P)),
        ("one_minus_sigma_power_not_unit", any(math.gcd(1 - x, P) != 1 for x in powers[1:])))
        if bad]
    return len(powers), set(powers), violations


def validate_params(params: QCParams) -> list[str]:
    """Return the names of every violated construction condition.

    Empty list means the parameter set is admissible.
    """
    P, J, L, sigma, tau = params.P, params.J, params.L, params.sigma, params.tau
    if P <= 2:
        return ["P_not_greater_than_2"]
    order, orbit, sigma_violations = _sigma_conditions(sigma, P)
    violations = [name for name, bad in (("sigma_not_unit", not order),
                                         ("tau_not_unit", math.gcd(tau, P) != 1),
                                         ("L_not_even", L % 2 != 0)) if bad]
    if not order:
        return violations
    violations += [name for name, bad in (("order_mismatch", L % 2 == 0 and order != L // 2),
                                          ("J_out_of_range", not 1 <= J <= order)) if bad]
    violations += sigma_violations
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
    return QCPair(params=params, c=c, d=d)


def expand(table: np.ndarray, P: int) -> SparseBinaryMatrix:
    """Blow up a (J, L) exponent table into its JP x LP binary matrix.

    Row r of I(x) has its single 1 at column (x + r) mod P.  Block ell
    holds the columns [ell P, (ell + 1) P), so each row's columns
    already ascend with ell.
    """
    J, L = table.shape
    r = np.arange(P)[:, None]
    cols = np.arange(L) * P + (table[:, None, :] + r) % P     # (J, P, L)
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
    # each column is renamed by its first place among the sorted columns,
    # so a key stays below nnz^2 whatever N is
    rank = np.searchsorted(np.sort(mat.col), mat.col)
    left, right = rank[ia], rank[ib]
    keys = np.sort((left * mat.nnz() + right)[left < right])
    return bool((keys[1:] == keys[:-1]).any())


def find_params(L: int, P_range) -> list[QCParams]:
    """Exhaustive scan for admissible (P, sigma, tau) with J=2.

    Returns every combination that passes validation, ordered by
    (P, sigma, tau).  May be empty (e.g. no element of order L/2).
    Each sigma whose power L/2 is 1 (a unit of order dividing L/2) is
    checked once by `_sigma_conditions`, the conditions of
    `validate_params` that involve sigma alone; the tau scan then tests
    the two that involve tau (a unit, outside the orbit of sigma), and
    runs only for the few sigma that pass.
    """
    if L % 2 != 0 or L < 4:
        raise InvalidParams(f"L must be even and >= 4, got {L}")
    found = []
    for P in P_range:
        if P <= 2:
            continue
        for sigma in range(1, P):
            if pow(sigma, L // 2, P) != 1:
                continue
            order, orbit, violations = _sigma_conditions(sigma, P)
            if order == L // 2 and not violations:
                found.extend(QCParams(P=P, J=2, L=L, sigma=sigma, tau=tau)
                             for tau in range(1, P)
                             if math.gcd(tau, P) == 1 and tau not in orbit)
    return found
