"""Direct reference implementations, for tests only.

The library checks orthogonality by a sparse column join, expands
quasi-cyclic matrices in array steps, solves the balance equations on
their graph and walks cycles through a column index; these are the
direct formulations they must agree with.  The orthogonality checks compare
every pair of rows (or loop over every entry), so they are quadratic in
the row count.  The Howell-form solver reduces dense rows over Z_m for
any homogeneous system, zero-divisor pivots included.  The single-message
convolution and symbol relabelling are the per-edge steps of the
decoder's vectorised iteration.  Every transform here is
`concat_walsh_hadamard`, the reference Walsh-Hadamard transform: the
add/subtract butterflies of each stage, joined by concatenation, which
shares no code with the decoder's in-place kernel that it checks.  The
per-edge check pass, seeded with the character of each check's syndrome
symbol, and the per-edge decode built on it are what the decoder's
syndrome-translated gather and its cached iteration-1 pass replace.
The per-row cycle walk,
the field recurrence for the second matrix and the cycle products are
what the lift's array walk and log-domain cycle balance replace.  The
double loop of the QC expansion, the pair-set 4-cycle search, the
per-entry syndrome loop and the single-element symbol tables are what
the array code of `qcpair`, `channel` and `gf2p` replaces, and the
component-by-component sampler is what `channel.sample_error`'s one
draw replaces.  Matrices
store row-major index arrays, and an NBMatrix holds the discrete log of
each entry; the oracles see its field elements instead: `rows_of`,
`from_rows` and `nb_from_rows` convert to and from per-row lists of
elements, which the oracles and the tampering tests read and edit,
`entry` reads one element, `support` drops an NBMatrix's logs, and
`dense` converts to a dense array.  `read_rows` is the
token-by-token NBQC row reader that the array reader replaces, and
`write_rows` the per-entry writer that the one-format writer replaces.
`ModSystem` is a balance system held as term arrays, the input of the
Howell oracle: `mod_system` builds one from equation lists,
`terms_of` from a `modring.BalanceGraph`, and `satisfies` checks an
assignment against it by substitution.
The log table (`log_table`), per-element field arithmetic, the explicit
binary images (`companion`), field powers and the exponent-table
printout are used by tests only.
So are `decoder_messages`, which reads a decoder's message buffers in
edge-major order, `entry_maps`, every entry's symbol map from the
per-value tables, which the per-edge check pass reads in place of the
decoder's own maps, and `trial_stream`, a simulation trial's Philox
stream built directly.  All of them are kept out of `src/`.

The binary expansion itself lives only here: `expand_binary` replaces
each entry by its `companion` image (transposed for the second matrix),
entry by entry, and `binary_orthogonal` and `dense_mod2_product` check
the GF(2) product of the expanded pair.  The library checks the pair
over GF(2^p) only, which implies the GF(2) verdict, so the tests built
on these are the GF(2) gate of the construction.  `binary_syndrome` is the dense
GF(2) product that `channel.syndrome_of` takes block by block, and
`unpack_symbols`/`pack_symbols` convert between symbols and their bits
(bit j of symbol n at pn + j).
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from nbqc.binexpand import CssCodePair, ParseError
from nbqc.decoder import NonFiniteMessage, SyndromeDecoder, init_pmf
from nbqc.gf2p import FieldSpec
from nbqc.modring import BalanceGraph
from nbqc.nblift import DimensionMismatch, NBMatrix, NotACycle, cycle_structure
from nbqc.qcpair import QCPair, QCParams, SparseBinaryMatrix, validate_params


# -- per-row lists -----------------------------------------------------------------


def rows_of(mat) -> list:
    """Per-row lists in stored order: column indices of a SparseBinaryMatrix,
    (column, field element) pairs of an NBMatrix."""
    entries = mat.col.tolist()
    if isinstance(mat, NBMatrix):
        entries = list(zip(entries, mat.field.exp_table[mat.log].tolist()))
    ends = np.cumsum(np.bincount(mat.row, minlength=mat.m)).tolist()
    return [entries[lo:hi] for lo, hi in zip([0] + ends, ends)]


def support(mat: SparseBinaryMatrix) -> SparseBinaryMatrix:
    """The nonzero pattern of a matrix without its logs; shares the index
    arrays."""
    return SparseBinaryMatrix(m=mat.m, n=mat.n, row=mat.row, col=mat.col)


def _flatten(rows) -> tuple[np.ndarray, list]:
    """Row index of every entry, and the entries in order."""
    row = np.repeat(np.arange(len(rows), dtype=np.int64), [len(r) for r in rows])
    return row, [e for r in rows for e in r]


def from_rows(m: int, n: int, rows) -> SparseBinaryMatrix:
    """Binary matrix whose row i holds the columns rows[i], in the order given."""
    row, cols = _flatten(rows)
    return SparseBinaryMatrix(m=m, n=n, row=row, col=np.array(cols, dtype=np.int64))


def nb_from_rows(m: int, n: int, rows, role: str, field: FieldSpec,
                 params: QCParams) -> NBMatrix:
    """NBMatrix whose row i holds the (column, nonzero field element) pairs
    rows[i], in the order given."""
    row, entries = _flatten(rows)
    col, val = np.array(entries, dtype=np.int64).reshape(-1, 2).T.copy()
    if not val.all():
        raise ValueError("an NBMatrix stores no zero; leave the entry out")
    return NBMatrix(m=m, n=n, role=role, field=field, params=params, row=row, col=col,
                    log=log_table(field)[val])


def entry(mat: NBMatrix, i: int, j: int) -> int:
    """The field element at (i, j), 0 off the support."""
    log = mat.log_at(i, j)
    return 0 if log < 0 else int(mat.field.exp_table[log])


def dense(mat) -> np.ndarray:
    """The dense array of a matrix: uint8 ones of a SparseBinaryMatrix, int64
    field elements of an NBMatrix."""
    nb = isinstance(mat, NBMatrix)
    d = np.zeros((mat.m, mat.n), dtype=np.int64 if nb else np.uint8)
    d[mat.row, mat.col] = mat.field.exp_table[mat.log] if nb else 1
    return d


def col_supports(mat: SparseBinaryMatrix) -> list[list[int]]:
    """The rows of each column's ones, column by column."""
    cols: list[list[int]] = [[] for _ in range(mat.n)]
    for i, row in enumerate(rows_of(mat)):
        for c in row:
            cols[c].append(i)
    return cols


# -- QC expansion and 4-cycles -------------------------------------------------------


def expand(table: np.ndarray, P: int) -> SparseBinaryMatrix:
    """The JP x LP binary matrix of an exponent table, one circulant row at a time."""
    J, L = table.shape
    rows = []
    for j in range(J):
        for r in range(P):
            cols = [int(ell * P + (table[j, ell] + r) % P) for ell in range(L)]
            rows.append(sorted(cols))
    return from_rows(J * P, L * P, rows)


def has_4cycle(mat: SparseBinaryMatrix) -> bool:
    """True iff two columns share two or more rows, by a set of column pairs."""
    seen = set()
    for cols in rows_of(mat):
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                pair = (cols[i], cols[j])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


# -- field elements and their binary images ----------------------------------------


@functools.cache
def log_table(field: FieldSpec) -> np.ndarray:
    """log_table(field)[v] = log_alpha v for v in [1, q), the inverse of
    `field.exp_table`; entry 0 is unused."""
    table = np.zeros(field.q, dtype=np.int64)
    table[field.exp_table] = np.arange(field.q - 1)
    return table


def x_has_full_order(p: int, mask: int) -> bool:
    """Whether x has multiplicative order 2^p - 1 modulo x^p + mask.

    By Lagrange's theorem, not by listing powers: x^n = 1 for n = 2^p - 1,
    and x^(n/r) != 1 for every prime r dividing n (square-and-multiply
    over shift-and-add products of polynomials).
    """
    n = (1 << p) - 1
    poly = (1 << p) | mask

    def mulmod(a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> p & 1:
                a ^= poly
        return acc

    def x_pow(k: int) -> int:
        acc, base = 1, 2                # x, reduced since p >= 2
        while k:
            if k & 1:
                acc = mulmod(acc, base)
            base = mulmod(base, base)
            k >>= 1
        return acc

    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]
    return x_pow(n) == 1 and all(x_pow(n // r) != 1 for r in primes)


def field_add(field: FieldSpec, a: int, b: int) -> int:
    """Characteristic-2 addition (XOR of coefficient vectors)."""
    return a ^ b


def field_mul(field: FieldSpec, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(field.exp_table[(int(log_table(field)[a]) + int(log_table(field)[b])) % (field.q - 1)])


def field_inv(field: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return int(field.exp_table[(-int(log_table(field)[a])) % (field.q - 1)])


def field_log(field: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("log of 0 is undefined")
    return int(log_table(field)[a])


def field_exp(field: FieldSpec, k: int) -> int:
    """alpha^k for any integer k (reduced mod q-1)."""
    return int(field.exp_table[k % (field.q - 1)])


def companion(field: FieldSpec, x: int) -> np.ndarray:
    """p x p binary image of x: column j is the bit vector of x * alpha^j.

    companion(0) is the zero matrix, companion(1) the identity, and
    companion(alpha) the companion matrix of the primitive polynomial
    (subdiagonal of ones, last column the coefficient mask).  The map
    satisfies companion(x) @ v(y) = v(x*y) over GF(2).
    """
    mat = np.zeros((field.p, field.p), dtype=np.uint8)
    for j in range(field.p):
        w = field_mul(field, x, 1 << j)
        for i in range(field.p):
            mat[i, j] = (w >> i) & 1
    return mat


def companion_transpose(field: FieldSpec, x: int) -> np.ndarray:
    """Transpose of companion(x); the image used for the second matrix
    of a CSS pair and for its decoder."""
    return companion(field, x).T.copy()


# -- symbol tables and syndromes -----------------------------------------------------


def mul_index_table(field: FieldSpec, x: int) -> np.ndarray:
    """perm[e] = x * e: the action of companion(x) on symbols; x nonzero."""
    return field.symbol_maps([field_log(field, x)])[0]


def transpose_index_table(field: FieldSpec, x: int) -> np.ndarray:
    """perm[e] = companion(x)^T applied to the bit vector of e; x nonzero."""
    return field.symbol_maps([field_log(field, x)], transpose=True)[0]


def syndrome_of(code: CssCodePair, role: str, error: np.ndarray) -> np.ndarray:
    """Symbol syndrome entry by entry: each check XORs the image of its entry
    applied to the error symbol (field_mul for role C, the transposed image
    for role D)."""
    mat = code.matrix(role)
    field = code.field
    syndrome = np.zeros(code.M, dtype=np.int64)
    for m, row in enumerate(rows_of(mat)):
        acc = 0
        for n, v in row:
            if role == "C":
                acc ^= field_mul(field, v, int(error[n]))
            else:
                acc ^= int(transpose_index_table(field, v)[error[n]])
        syndrome[m] = acc
    return syndrome


def unpack_symbols(symbols, p: int) -> np.ndarray:
    """Length-pN bit vector of a symbol array (bit j of symbol n at pn + j)."""
    symbols = np.asarray(symbols, dtype=np.int64)
    return ((symbols[:, None] >> np.arange(p)) & 1).reshape(-1).astype(np.uint8)


def pack_symbols(bits, p: int) -> np.ndarray:
    """The symbols of a length-pN bit vector; inverse of `unpack_symbols`."""
    return np.asarray(bits, dtype=np.int64).reshape(-1, p) @ (1 << np.arange(p))


def binary_syndrome(code: CssCodePair, role: str, error: np.ndarray) -> np.ndarray:
    """The symbols of Hc e (role C) or Hd e (role D) over GF(2), with the
    dense expansion of `expand_binary` and the error's bits."""
    h = expand_binary(code.matrix(role), transpose=role == "D")
    return pack_symbols(dense(h).astype(np.int64) @ unpack_symbols(error, code.field.p) % 2,
                        code.field.p)


def sample_error(n_sym: int, p: int, params, rng: np.random.Generator):
    """(x_error, z_error) drawn component by component: in independent mode
    one `rng.random` call per component, and each component packed on its
    own, bit j of symbol n weighted 2^j."""
    n_bits = n_sym * p
    if params.mode == "independent":
        x_bits = rng.random(n_bits) < params.f_m
        z_bits = rng.random(n_bits) < params.f_m
    else:
        u = rng.random(n_bits)
        third = params.f_dep / 3.0
        x_bits = u < 2 * third
        z_bits = (u >= third) & (u < 3 * third)
    weights = 1 << np.arange(p, dtype=np.int64)
    return tuple((bits.reshape(n_sym, p) * weights).sum(axis=1) for bits in (x_bits, z_bits))


def field_pow(field: FieldSpec, a: int, k: int) -> int:
    """a^k; negative k allowed for nonzero a; 0^0 = 1."""
    if a == 0:
        if k == 0:
            return 1
        if k < 0:
            raise ZeroDivisionError("negative power of 0")
        return 0
    return int(field.exp_table[(int(log_table(field)[a]) * k) % (field.q - 1)])


def format_exponents(pair: QCPair) -> str:
    """Render both matrices in bracketed I(x) block notation."""
    out = []
    for role, table in (("C", pair.c), ("D", pair.d)):
        rows = ["  ".join(f"I({v})" for v in row) for row in table]
        out.append(f"H_{role} =\n  " + "\n  ".join(rows))
    return "\n".join(out)


def binary_orthogonal(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> bool:
    """a @ b.T == 0 over GF(2), via bit-packed rows, every pair of rows."""
    if a.n != b.n:
        raise DimensionMismatch(f"column counts differ: {a.n} != {b.n}")
    a_bits = [sum(1 << c for c in cols) for cols in rows_of(a)]
    b_bits = [sum(1 << c for c in cols) for cols in rows_of(b)]
    for ra in a_bits:
        for rb in b_bits:
            if (ra & rb).bit_count() & 1:
                return False
    return True


def dense_mod2_product(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> np.ndarray:
    """a @ b.T over GF(2), as a dense array."""
    return dense(a).astype(np.int64) @ dense(b).astype(np.int64).T % 2


def column_join(cols_a, cols_b) -> list[tuple[int, int]]:
    """Every (ia, ib) with cols_a[ia] == cols_b[ib], ia-major, by a double loop."""
    return [(ia, ib) for ia, ca in enumerate(cols_a) for ib, cb in enumerate(cols_b)
            if ca == cb]


def verify_orthogonal(gamma: NBMatrix, delta: NBMatrix) -> bool:
    """All pairwise row products over GF(2^p) vanish, every pair of rows."""
    if gamma.n != delta.n:
        raise DimensionMismatch(
            f"column counts differ: {gamma.n} != {delta.n}")
    field = gamma.field
    delta_rows = rows_of(delta)
    for grow in rows_of(gamma):
        gmap = dict(grow)
        for drow in delta_rows:
            acc = 0
            for c, dv in drow:
                gv = gmap.get(c)
                if gv is not None:
                    acc ^= field_mul(field, gv, dv)
            if acc:
                return False
    return True


def expand_binary(mat: NBMatrix, transpose: bool) -> SparseBinaryMatrix:
    """Binary expansion entry by entry through the companion matrices."""
    p = mat.field.p
    images = {}
    mat_rows = rows_of(mat)
    for row in mat_rows:
        for _, v in row:
            if v not in images:
                img = companion(mat.field, v)
                images[v] = img.T.copy() if transpose else img
    rows: list[list[int]] = [[] for _ in range(p * mat.m)]
    for m, row in enumerate(mat_rows):
        for n, v in row:
            img = images[v]
            for i in range(p):
                base = n * p
                cols = rows[m * p + i]
                cols.extend(base + j for j in range(p) if img[i, j])
    return from_rows(p * mat.m, p * mat.n, [sorted(r) for r in rows])


# -- NBQC row lines ---------------------------------------------------------------


def write_rows(mat: NBMatrix) -> str:
    """NBQC text of `mat`, formatted entry by entry and joined row by row."""
    pr = mat.params
    head = (f"NBQC 1\np={mat.field.p} poly={mat.field.poly:#x} J={pr.J} L={pr.L} "
            f"P={pr.P} sigma={pr.sigma} tau={pr.tau} role={mat.role}\nM={mat.m} N={mat.n}\n")
    cells = [f"{c}:{lg:x}" for c, lg in zip(mat.col.tolist(), mat.log.tolist())]
    ends = np.cumsum(np.bincount(mat.row, minlength=mat.m)).tolist()
    return head + "".join(f"r{r}: {' '.join(cells[lo:hi])}\n"
                          for r, (lo, hi) in enumerate(zip([0] + ends, ends)))


_COLUMN = re.compile(r"[0-9]{1,15}")
_LOG = re.compile(r"[0-9a-f]{1,15}")


def read_rows(text: str, n: int, q: int) -> tuple[list, list, list]:
    """(row, col, log) lists of an NBQC text's row lines, token by token.

    Applies the grammar of README's format section with regular
    expressions, one token at a time, and raises the `ParseError` that
    the first failing check of the first bad line calls for.  The header
    is not checked.
    """
    lines = text.splitlines()
    m = int(lines[2].split()[0].partition("=")[2])
    if len(lines) != 3 + m:
        raise ParseError(len(lines), f"expected {m} row lines, found {len(lines) - 3}")
    rows, cols, logs = [], [], []
    for r, line in enumerate(lines[3:]):
        line_no, prefix = 4 + r, f"r{r}:"
        if not re.match(re.escape(prefix) + r"([ \t]|$)", line):
            raise ParseError(line_no, f"expected row prefix {prefix!r}")
        last = -1
        for tok in re.split(r"[ \t]+", line[len(prefix):].strip(" \t")):
            if not tok:
                continue
            col_s, sep, log_s = tok.partition(":")
            if not (sep and _COLUMN.fullmatch(col_s) and _LOG.fullmatch(log_s)):
                raise ParseError(line_no, f"bad entry {tok!r}")
            col, lg = int(col_s), int(log_s, 16)
            if col >= n:
                raise ParseError(line_no, f"column {col} outside [0, {n})")
            if col <= last:
                raise ParseError(line_no, "columns must strictly ascend")
            if lg >= q - 1:
                raise ParseError(line_no, f"log {lg} outside [0, {q - 1})")
            last = col
            rows.append(r)
            cols.append(col)
            logs.append(lg)
    return rows, cols, logs


# -- Howell form over Z_m ------------------------------------------------------
#
# Pivot entries of a Howell form divide m, entries above a pivot are
# reduced below it, and for every pivot row h with pivot g the row
# (m/g)*h lies in the span of the later rows.  That last property is
# what guarantees back-substitution never dead-ends, whatever values
# the free variables take.  Sampling draws the free variables uniformly
# from Z_m and, at each pivot row with pivot g, picks uniformly among
# the g solutions of the pivot congruence.


@dataclass
class ModSystem:
    """Homogeneous system over Z_modulus, held as int64 term arrays.

    Term k adds coef[k] * x[var[k]] to equation eq[k]; repeated
    (equation, variable) pairs accumulate.  The right-hand side is zero.
    """

    modulus: int
    n_vars: int
    n_equations: int
    eq: np.ndarray
    var: np.ndarray
    coef: np.ndarray


def terms_of(graph: BalanceGraph) -> ModSystem:
    """The system of a balance graph: two terms per variable, one at each
    of its equations."""
    n = len(graph.ends)
    return ModSystem(modulus=graph.modulus, n_vars=n, n_equations=graph.n_equations,
                     eq=graph.ends.reshape(-1), var=np.repeat(np.arange(n), 2),
                     coef=graph.coefs.reshape(-1))


def mod_system(modulus: int, n_vars: int, equations=()) -> ModSystem:
    """The system whose equation i has the (variable, coefficient) terms
    equations[i], in the order given."""
    eq = np.repeat(np.arange(len(equations), dtype=np.int64), [len(t) for t in equations])
    terms = np.array([t for terms in equations for t in terms], dtype=np.int64).reshape(-1, 2)
    return ModSystem(modulus=modulus, n_vars=n_vars, n_equations=len(equations),
                     eq=eq, var=terms[:, 0].copy(), coef=terms[:, 1].copy())


def satisfies(system: ModSystem, assignment) -> bool:
    """True iff the assignment satisfies every equation mod modulus."""
    x = np.asarray(assignment, dtype=np.int64)
    sums = np.zeros(system.n_equations, dtype=np.int64)
    np.add.at(sums, system.eq, system.coef * x[system.var])
    return not np.any(sums % system.modulus)


def dense_rows(system: ModSystem) -> np.ndarray:
    """The (equations x variables) coefficient matrix, reduced mod m."""
    rows = np.zeros((system.n_equations, system.n_vars), dtype=np.int64)
    np.add.at(rows, (system.eq, system.var), system.coef)
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

    @classmethod
    def from_arrays(cls, cycles, m_prime: int) -> "CycleStructure":
        """Row m_prime of `nblift.cycle_structure`'s (m_seq, n_seq) arrays."""
        m_seq, n_seq = cycles
        return cls(m_prime=m_prime, n_seq=n_seq[m_prime].tolist(),
                   m_seq=m_seq[m_prime].tolist())


def walk_cycle(hc: SparseBinaryMatrix, hd: SparseBinaryMatrix,
               m_prime: int, col_checks: list | None = None) -> CycleStructure:
    """Walk the cycle of row `m_prime` of the second matrix, one step at a time.

    The per-row reference for `nblift.cycle_structure`: starts at the
    smallest support column and its top-half check neighbour, and raises
    NotACycle when the walk does not visit all 2L positions and return
    to its start.  `col_checks` is `col_supports(hc)`, built here when
    omitted.
    """
    if hc.m != hd.m or hc.n != hd.n:
        raise DimensionMismatch("pair matrices must have equal shape")
    if not 0 <= m_prime < hd.m:
        raise IndexError(f"row {m_prime} outside [0, {hd.m})")
    if col_checks is None:
        col_checks = col_supports(hc)
    P = hc.m // 2
    support = hd.col[hd.row == m_prime].tolist()
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


def walk_cycles(hc: SparseBinaryMatrix, hd: SparseBinaryMatrix) -> list[CycleStructure]:
    """`walk_cycle` of every row of the second matrix, in row order."""
    col_checks = col_supports(hc)
    return [walk_cycle(hc, hd, m_prime, col_checks) for m_prime in range(hd.m)]


def pair_walk(pair: QCPair) -> tuple[SparseBinaryMatrix, tuple[np.ndarray, np.ndarray]]:
    """The first matrix of `pair` and the pair's `nblift.cycle_structure`:
    the inputs of `assemble_constraints` and `lift_gamma`."""
    hc = pair.expand_c()
    return hc, cycle_structure(hc, pair.expand_d())


def recurrence_delta(gamma: NBMatrix, cycles: list) -> list:
    """Rows of the second matrix by the field recurrence around each cycle.

    delta(n_0) = 1 and delta(n_{i+1}) = delta(n_i) gamma(E1_i) / gamma(E2_i),
    one field_mul and field_inv per entry; raises ZeroDivisionError on a
    zero of gamma and AssertionError when a cycle does not close.
    """
    field = gamma.field
    entries = [dict(row) for row in rows_of(gamma)]
    rows = []
    for cyc in cycles:
        vals = {cyc.n_seq[0]: 1}
        for i, ((m, n), (_, n_next)) in enumerate(zip(cyc.e1(), cyc.e2())):
            value = field_mul(field, vals[n], field_mul(field, entries[m].get(n, 0),
                                                        field_inv(field, entries[m].get(n_next, 0))))
            if i < cyc.L - 1:
                vals[n_next] = value
            elif value != 1:
                raise AssertionError(f"row {cyc.m_prime}: cycle closure failed")
        rows.append(sorted(vals.items()))
    return rows


def cycle_products(gamma: NBMatrix, cyc: CycleStructure) -> tuple[int, int]:
    """Products of gamma's entries over E1 and over E2, with field_mul."""
    field = gamma.field
    prod1 = prod2 = 1
    for m, n in cyc.e1():
        prod1 = field_mul(field, prod1, entry(gamma, m, n))
    for m, n in cyc.e2():
        prod2 = field_mul(field, prod2, entry(gamma, m, n))
    return prod1, prod2


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


class LengthMismatch(ValueError):
    """A message or transform length does not fit the operation."""


def concat_walsh_hadamard(x) -> np.ndarray:
    """Unnormalised WHT along the last axis, stage by stage on (rows, q).

    The add/subtract butterflies (a, b) -> (a + b, a - b) in the library
    transform's order, h = 1, 2, 4, ..., each stage's halves joined by
    concatenation, so the two agree bit for bit up to the sign of an
    exact zero.  Returns float64 of the input's shape.
    """
    x = np.asarray(x)
    q = x.shape[-1]
    if q < 1 or q & (q - 1):
        raise LengthMismatch(f"length {q} is not a power of 2")
    y = x.reshape(-1, q).astype(np.float64)
    h = 1
    while h < q:
        y = y.reshape(-1, q // (2 * h), 2, h)
        even = y[:, :, 0, :] + y[:, :, 1, :]
        odd = y[:, :, 0, :] - y[:, :, 1, :]
        y = np.concatenate((even[:, :, None, :], odd[:, :, None, :]), axis=2)
        y = y.reshape(-1, q)
        h *= 2
    return y.reshape(x.shape)


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
        acc = acc * concat_walsh_hadamard(a)
    out = concat_walsh_hadamard(acc) / q
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


@functools.lru_cache(maxsize=8)
def entry_maps(code: CssCodePair, role: str) -> np.ndarray:
    """(M, L, q) action on symbols of every entry of the role's matrix, row
    by row, from the field's per-value tables; cached, so read-only."""
    table = mul_index_table if role == "C" else transpose_index_table
    maps = np.array([[table(code.field, v) for _, v in row] for row in rows_of(code.matrix(role))])
    maps.setflags(write=False)
    return maps


def check_pass(decoder: SyndromeDecoder, syndrome: np.ndarray, v2c: np.ndarray) -> np.ndarray:
    """One iteration's check messages before normalising, (M, L, q), per edge.

    `v2c` holds the variable message on every edge, edge-major (M, L, q),
    or a single PMF that every edge carries (the prior, at iteration 1).
    Gather it through the inverse entry maps, transform, take exclusive
    products along each row seeded with the character of the row's
    syndrome symbol (cumprod, the same sequential products as the
    decoder), transform back, gather through the entry maps, scale by
    1/q and clamp at 0.  The entry maps are the field's per-value tables
    of each entry, not the decoder's own.
    """
    q = decoder.q
    fwd = entry_maps(decoder.code, decoder.role)                # (M, L, q)
    inv = np.argsort(fwd, axis=2)
    t = concat_walsh_hadamard(np.take_along_axis(np.broadcast_to(v2c, fwd.shape), inv, axis=2))
    chi = np.stack([_character(int(s), q) for s in syndrome])   # (M, q)
    pref = np.cumprod(np.concatenate((chi[:, None], t[:, :-1]), axis=1), axis=1)
    ones = np.ones_like(chi)[:, None]
    suff = np.cumprod(np.concatenate((ones, t[:, :0:-1]), axis=1), axis=1)[:, ::-1]
    back = concat_walsh_hadamard(pref * suff)
    return np.maximum(np.take_along_axis(back, fwd, axis=2) * (1.0 / q), 0.0)


def _normalised(msgs: np.ndarray, floor: float, kind: str, it: int) -> np.ndarray:
    sums = msgs.sum(axis=-1, keepdims=True)
    if not (sums.min() > 0.0 and sums.max() < np.inf):
        raise NonFiniteMessage(f"{kind} messages non-finite at iteration {it}")
    return np.maximum(msgs / sums, floor)


def reference_decode(decoder: SyndromeDecoder, syndrome: np.ndarray, f_m: float,
                     max_iter: int, floor: float) -> tuple:
    """Syndrome sum-product decoding edge by edge, every check pass from
    `check_pass`: (status, estimate, iterations, c2v, v2c), the messages
    edge-major (M, L, q) or None at iteration 0.  Raises NonFiniteMessage
    as the decoder does, with `floor` in place of its message floor.

    Each column's two edges, e0 < e1 in row-major edge order, pass each
    other the prior times their check message, and its belief is
    (c2v[e0] * p0) * c2v[e1], the decoder's order of the products.
    """
    code, q = decoder.code, decoder.q
    p0 = init_pmf(f_m, code.field.p)
    if not syndrome.any():
        return "success", np.zeros(code.N, dtype=np.int64), 0, None, None
    e0, e1 = np.argsort(decoder.cols.reshape(-1), kind="stable").reshape(code.N, 2).T
    shape = (decoder.M * decoder.L, q)
    v2c = p0
    for it in range(1, max_iter + 1):
        c2v = _normalised(check_pass(decoder, syndrome, v2c).reshape(shape), floor, "check", it)
        to = np.empty(shape)
        to[e0], to[e1] = c2v[e1] * p0, c2v[e0] * p0
        belief = (c2v[e0] * p0) * c2v[e1]
        v2c = _normalised(to, floor, "variable", it).reshape(decoder.M, decoder.L, q)
        estimate = belief.argmax(axis=1)
        done = np.array_equal(syndrome_of(code, decoder.role, estimate), syndrome)
        if done or it == max_iter:
            return ("success" if done else "fail", estimate, it,
                    c2v.reshape(v2c.shape), v2c)


def decoder_messages(decoder: SyndromeDecoder, outcome) -> tuple | None:
    """The check-to-variable and variable-to-check messages that `decoder`
    holds after the decode that returned `outcome`, as fresh edge-major
    (M, L, q) arrays; None if that decode stopped at iteration 0.

    The decoder stores them column-pair: slot j of column n holds the
    check message on edge `_edges_from[j, n]` and the variable message
    on the column's other edge, `_edges_from[1 - j, n]`.
    """
    if outcome.iterations == 0:
        return None
    edges_from = decoder._edges_from
    out = []
    for pairs, edges in ((decoder._from, edges_from), (decoder._to, edges_from[::-1])):
        msgs = np.empty((decoder.M * decoder.L, decoder.q))
        msgs[edges] = pairs
        out.append(msgs.reshape(decoder.M, decoder.L, decoder.q))
    return tuple(out)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Trial `trial`'s stream of a simulation with master seed `seed`."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 128))
