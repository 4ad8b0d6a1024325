"""Orthogonal (J, L, P) quasi-cyclic binary parity-check pairs.

Both matrices are J x L grids of P x P circulants I(x), where I(1) is
the cyclic shift and I(x) = I(1)^x.  With sigma of order L/2 in Z_P^*
and a twist tau outside its orbit, the exponent formulas below give a
pair whose product over GF(2) vanishes and whose Tanner graphs are free
of 4-cycles.  The lift to GF(2^p) keeps these supports.
"""

from __future__ import annotations

import itertools
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


@dataclass
class SparseBinaryMatrix:
    """Binary matrix stored as per-row sorted column lists."""

    m: int
    n: int
    rows: list        # rows[i]: sorted list of column indices

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.m, self.n), dtype=np.uint8)
        for i, cols in enumerate(self.rows):
            d[i, cols] = 1
        return d

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) index arrays of the nonzeros, row by row."""
        lengths = np.fromiter(map(len, self.rows), dtype=np.int64, count=len(self.rows))
        cols = np.fromiter(itertools.chain.from_iterable(self.rows), dtype=np.int64,
                           count=int(lengths.sum()))
        return np.repeat(np.arange(len(self.rows)), lengths), cols

    def col_supports(self) -> list[list[int]]:
        cols: list[list[int]] = [[] for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for c in row:
                cols[c].append(i)
        return cols

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)


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


def build_pair(params: QCParams, allow_any_j: bool = False) -> QCPair:
    """Exponent matrices of the orthogonal pair for a valid parameter set.

    c[j, l] = sigma^(-j+l), twisted by tau on the right half;
    d[j, l] = -tau * sigma^(j-l), untwisted on the right half.
    All exponents are normalised into [0, P).

    The downstream non-binary lift is only proved for column weight 2,
    so J != 2 requires `allow_any_j`.
    """
    violations = validate_params(params)
    if violations:
        raise InvalidParams(f"invalid parameters {params}: {', '.join(violations)}")
    if params.J != 2 and not allow_any_j:
        raise InvalidParams(f"J={params.J}: the lift pipeline requires J=2 "
                            "(pass allow_any_j=True to experiment)")
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

    Row r of I(x) has its single 1 at column (x + r) mod P.
    """
    J, L = exponents.table.shape
    rows = []
    for j in range(J):
        for r in range(P):
            cols = [int(ell * P + (exponents.table[j, ell] + r) % P) for ell in range(L)]
            rows.append(sorted(cols))
    return SparseBinaryMatrix(m=J * P, n=L * P, rows=rows)


def has_4cycle(mat: SparseBinaryMatrix) -> bool:
    """True iff two columns share two or more rows."""
    seen = set()
    for cols in mat.rows:
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                pair = (cols[i], cols[j])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


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
