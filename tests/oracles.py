"""Direct reference implementations, for tests only.

The library checks orthogonality by a sparse column join, expands
matrices in array steps, solves the balance equations on their graph
and walks cycles through a column index; these are the direct
formulations they must agree with.  The orthogonality checks compare
every pair of rows (or loop over every entry), so they are quadratic in
the row count.  The Howell-form solver reduces dense rows over Z_m for
any homogeneous system, zero-divisor pivots included.  The single-message
convolution and symbol relabelling are the per-edge steps of the
decoder's vectorised iteration, and the plain first check pass is what
the decoder's first-iteration lookup replaces.  Field powers and the
exponent-table printout are used by tests only.  All of them are kept
out of `src/`.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from nbqc.decoder import LengthMismatch, SyndromeDecoder, walsh_hadamard
from nbqc.gf2p import FieldSpec
from nbqc.modring import ModSystem
from nbqc.nblift import CycleStructure, DimensionMismatch, NBMatrix
from nbqc.qcpair import QCPair, QCParams, SparseBinaryMatrix, validate_params


def field_pow(field: FieldSpec, a: int, k: int) -> int:
    """a^k; negative k allowed for nonzero a; 0^0 = 1."""
    if a == 0:
        if k == 0:
            return 1
        if k < 0:
            raise ZeroDivisionError("negative power of 0")
        return 0
    return int(field.exp_table[(int(field.log_table[a]) * k) % (field.q - 1)])


def format_exponents(pair: QCPair) -> str:
    """Render both matrices in bracketed I(x) block notation."""
    out = []
    for exp in (pair.c, pair.d):
        rows = ["  ".join(f"I({v})" for v in row) for row in exp.table]
        out.append(f"H_{exp.role} =\n  " + "\n  ".join(rows))
    return "\n".join(out)


def binary_orthogonal(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> bool:
    """a @ b.T == 0 over GF(2), via bit-packed rows, every pair of rows."""
    if a.n != b.n:
        raise DimensionMismatch(f"column counts differ: {a.n} != {b.n}")
    a_bits = [sum(1 << c for c in cols) for cols in a.rows]
    b_bits = [sum(1 << c for c in cols) for cols in b.rows]
    for ra in a_bits:
        for rb in b_bits:
            if (ra & rb).bit_count() & 1:
                return False
    return True


def verify_orthogonal(gamma: NBMatrix, delta: NBMatrix) -> bool:
    """All pairwise row products over GF(2^p) vanish, every pair of rows."""
    if gamma.n != delta.n:
        raise DimensionMismatch(
            f"column counts differ: {gamma.n} != {delta.n}")
    field = gamma.field
    for grow in gamma.rows:
        gmap = dict(grow)
        for drow in delta.rows:
            acc = 0
            for c, dv in drow:
                gv = gmap.get(c)
                if gv is not None:
                    acc ^= field.mul(gv, dv)
            if acc:
                return False
    return True


def expand_binary(mat: NBMatrix, transpose: bool) -> SparseBinaryMatrix:
    """Binary expansion entry by entry through the companion matrices."""
    p = mat.field.p
    images = {}
    for row in mat.rows:
        for _, v in row:
            if v not in images:
                img = mat.field.companion(v)
                images[v] = img.T.copy() if transpose else img
    rows: list[list[int]] = [[] for _ in range(p * mat.m)]
    for m, row in enumerate(mat.rows):
        for n, v in row:
            img = images[v]
            for i in range(p):
                base = n * p
                cols = rows[m * p + i]
                cols.extend(base + j for j in range(p) if img[i, j])
    return SparseBinaryMatrix(m=p * mat.m, n=p * mat.n,
                              rows=[sorted(r) for r in rows])


# -- Howell form over Z_m ------------------------------------------------------
#
# Pivot entries of a Howell form divide m, entries above a pivot are
# reduced below it, and for every pivot row h with pivot g the row
# (m/g)*h lies in the span of the later rows.  That last property is
# what guarantees back-substitution never dead-ends, whatever values
# the free variables take.  Sampling draws the free variables uniformly
# from Z_m and, at each pivot row with pivot g, picks uniformly among
# the g solutions of the pivot congruence.


def dense_rows(system: ModSystem) -> np.ndarray:
    """The (equations x variables) coefficient matrix, reduced mod m."""
    rows = np.zeros((len(system.equations), system.n_vars), dtype=np.int64)
    for i, terms in enumerate(system.equations):
        for v, c in terms:
            rows[i, v] += c
    return rows % system.modulus


@dataclass
class HowellSpace:
    """Howell-form description of the solutions of a homogeneous system.

    pivot_rows[i] has its first nonzero (= pivot_vals[i], a divisor of
    the modulus) at pivot_cols[i]; free_cols are the remaining columns.
    The all-zero vector is always a member.
    """

    modulus: int
    n_vars: int
    pivot_cols: list
    pivot_vals: list
    pivot_rows: np.ndarray        # (r, n_vars) int64
    free_cols: list

    def count(self) -> int:
        """Number of distinct solutions: m^#free * prod(pivot values)."""
        n = self.modulus ** len(self.free_cols)
        for g in self.pivot_vals:
            n *= g
        return n

    def enumerate(self):
        """Yield every solution (beware: count() grows fast)."""
        m = self.modulus
        free_ranges = [range(m)] * len(self.free_cols)
        pivot_ranges = [range(g) for g in self.pivot_vals]
        for free_vals in itertools.product(*free_ranges):
            for ks in itertools.product(*pivot_ranges):
                x = np.zeros(self.n_vars, dtype=np.int64)
                x[self.free_cols] = free_vals
                self.back_substitute(x, ks)
                yield x

    def back_substitute(self, x: np.ndarray, ks) -> None:
        m = self.modulus
        for i in range(len(self.pivot_cols) - 1, -1, -1):
            col, g = self.pivot_cols[i], self.pivot_vals[i]
            rest = int(self.pivot_rows[i] @ x % m)
            if rest % g:
                raise AssertionError("Howell property violated: pivot congruence unsolvable")
            x[col] = (-(rest // g)) % (m // g) + (m // g) * ks[i]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def _unit_scale_to_divisor(g: int, m: int) -> tuple[int, int]:
    """Unit u of Z_m with u*g = gcd(g, m) mod m; returns (u, gcd)."""
    d = math.gcd(g, m)
    if d == m:
        return 1, m
    md = m // d
    u0 = pow(g // d, -1, md)
    for t in range(d + 1):
        u = u0 + md * t
        if math.gcd(u, m) == 1:
            return u % m, d
    raise AssertionError(f"no unit lift for g={g} mod {m}")


def howell_solve(system: ModSystem) -> HowellSpace:
    """Reduce a homogeneous system to Howell form.

    Always consistent (zero is a solution).  Unit pivots (+-1 first)
    are preferred; gcd combination handles columns where every entry is
    a zero divisor.  Re-reducing a reduced system is a no-op.
    """
    m = system.modulus
    n = system.n_vars
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return HowellSpace(m, n, [], [], np.zeros((0, n), dtype=np.int64),
                           list(range(n)))
    pending = [r for r in dense_rows(system) if r.any()]
    pivot_cols: list[int] = []
    pivot_vals: list[int] = []
    pivot_rows: list[np.ndarray] = []

    for col in range(n):
        active = [r for r in pending if r[col]]
        pending = [r for r in pending if not r[col]]
        if not active:
            continue
        row = _take_pivot_row(active, col, m)
        g = int(row[col])
        for other in active:
            other = (other - (int(other[col]) // g) * row) % m
            if other.any():
                pending.append(other)
        if g > 1:
            derived = (m // g) * row % m
            if derived.any():
                pending.append(derived)
        pivot_cols.append(col)
        pivot_vals.append(g)
        pivot_rows.append(row)

    # canonical form: reduce entries above each pivot below the pivot value
    for i in range(len(pivot_cols)):
        col, g = pivot_cols[i], pivot_vals[i]
        for j in range(i):
            v = int(pivot_rows[j][col])
            if v >= g:
                pivot_rows[j] = (pivot_rows[j] - (v // g) * pivot_rows[i]) % m

    rows = np.array(pivot_rows, dtype=np.int64) if pivot_rows else np.zeros((0, n), dtype=np.int64)
    free = [c for c in range(n) if c not in set(pivot_cols)]
    return HowellSpace(m, n, pivot_cols, pivot_vals, rows, free)


def _take_pivot_row(active: list[np.ndarray], col: int, m: int) -> np.ndarray:
    """Pick/construct the pivot row for `col`, leaving `active` as the rows
    still to be eliminated against it.  The returned pivot divides m."""
    # unit preference: exact +-1 first, then any unit
    for want_exact in (True, False):
        for i, r in enumerate(active):
            v = int(r[col])
            exact = v == 1 or v == m - 1
            if (exact if want_exact else math.gcd(v, m) == 1):
                active.pop(i)
                u = pow(v, -1, m)
                return (u * r) % m
    # all entries share a factor with m: gcd-combine into a single row
    row = active.pop(0)
    for i, r in enumerate(active):
        a, b = int(row[col]), int(r[col])
        g, s, t = _xgcd(a, b)
        combined = (s * row + t * r) % m
        zeroed = ((a // g) * r - (b // g) * row) % m
        row = combined
        active[i] = zeroed
    u, d = _unit_scale_to_divisor(int(row[col]), m)
    return (u * row) % m


def howell_sample(space: HowellSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw one solution, uniformly over the full solution set.

    Free variables are uniform on Z_m; each pivot congruence g*x = rest
    has exactly g solutions and one is picked uniformly.
    """
    m = space.modulus
    x = np.zeros(space.n_vars, dtype=np.int64)
    if space.free_cols:
        x[space.free_cols] = rng.integers(0, m, size=len(space.free_cols))
    ks = [int(rng.integers(0, g)) if g > 1 else 0 for g in space.pivot_vals]
    space.back_substitute(x, ks)
    return x


# -- cycles ----------------------------------------------------------------------


def closed_form_cycle(params: QCParams, m_prime: int) -> CycleStructure:
    """Direct formulas for the cycle of an upper-half row (0 <= m' < P).

    Serves as an independent cross-check of the graph walk.  The column
    formula for odd positions uses exponent sigma^(i mod L/2); the sign
    conventions of the even forms follow the construction exponents.
    """
    P, L, sigma, tau = params.P, params.L, params.sigma, params.tau
    if not 0 <= m_prime < P:
        raise IndexError("closed forms cover the upper half rows only")
    half = L // 2
    sigma_inv = pow(sigma, -1, P)
    n_seq = [0] * L
    m_seq = [0] * L
    for i in range(half):
        n_seq[2 * i] = (-tau * pow(sigma_inv, i, P) + m_prime) % P + i * P
        block = (-i) % half + half
        n_seq[2 * i + 1] = (-pow(sigma, i % half, P) + m_prime) % P + block * P
        m_seq[2 * i] = (-pow(sigma, i, P) - tau * pow(sigma_inv, i, P) + m_prime) % P
        m_seq[(2 * i - 1) % L] = (-pow(sigma, i - 1 if i >= 1 else half - 1, P)
                                  - tau * pow(sigma_inv, i, P) + m_prime) % P + P
    return CycleStructure(m_prime=m_prime, n_seq=n_seq, m_seq=m_seq)


# -- parameter scan --------------------------------------------------------------


def find_params(L: int, P_range) -> list[QCParams]:
    """Every (P, sigma, tau) that passes validation, one call per pair."""
    candidates = (QCParams(P=P, J=2, L=L, sigma=sigma, tau=tau)
                  for P in P_range if P > 2
                  for sigma in range(1, P) for tau in range(1, P))
    return [params for params in candidates if not validate_params(params)]


# -- per-edge decoder steps ------------------------------------------------------


class SingularMap(ValueError):
    """The supplied bit matrix is not invertible over GF(2)."""


def _character(shift: int, q: int) -> np.ndarray:
    """(-1)^<shift, w> for w in [0, q): the WHT of the point mass at shift."""
    bits = np.array([(w & shift).bit_count() & 1 for w in range(q)])
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


def first_check_pass(decoder: SyndromeDecoder, syndrome: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Iteration 1's check messages before normalising, (M, L, q), computed directly.

    Every edge carries the prior p0: gather it through the inverse entry
    maps, transform, take exclusive products along each row seeded with
    the character of the row's syndrome symbol (cumprod, the same
    sequential products as the decoder), transform back, gather through
    the entry maps, scale by 1/q and clamp at 0.
    """
    q = decoder.q
    fwd = decoder.perm_fwd                                      # (M, L, q)
    inv = np.argsort(fwd, axis=2)
    t = walsh_hadamard(p0[inv])
    chi = np.stack([_character(int(s), q) for s in syndrome])   # (M, q)
    pref = np.cumprod(np.concatenate((chi[:, None], t[:, :-1]), axis=1), axis=1)
    ones = np.ones_like(chi)[:, None]
    suff = np.cumprod(np.concatenate((ones, t[:, :0:-1]), axis=1), axis=1)[:, ::-1]
    back = walsh_hadamard(pref * suff)
    return np.maximum(np.take_along_axis(back, fwd, axis=2) * (1.0 / q), 0.0)
