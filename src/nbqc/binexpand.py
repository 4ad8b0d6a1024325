"""Binary expansion of a lifted pair and the NBQC interchange format.

Replacing every entry of the first matrix by its p x p binary image and
every entry of the second by the transposed image turns an orthogonal
pair over GF(2^p) into an orthogonal binary pair of pM x pN
parity-check matrices.  Orthogonality is re-verified after expansion as
a hard invariant.

Files carry only the non-binary matrices (plus field and construction
parameters); the binary expansion is recomputed on load, never stored.
Both are held as row-major index arrays (see `qcpair` and `nblift`).
The expansion orders its ones with one sort of their row-major keys.
The reader parses all row lines together in array steps over their
bytes; the writer applies one format string, built from the row
weights, to all the entries at once.

Costs.  The expansion reads each entry's image off the images of the
p unit vectors, O(nnz p^2), and sorts the keys of its ones once.
`binary_orthogonal` joins the ones of the two matrices on their column
(`qcpair._column_join`) and sorts the (row of a, row of b) key of every
joined pair: the product vanishes iff every key occurs an even number
of times.  A pair of rows that shares no column has a zero product, so
the check is exact, and the join holds O(nnz x column weight) keys.
No array has one cell per pair of rows.  The reader does O(1) array
steps over the bytes and tokens of the file, and the writer one `%`
over all of its entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nbqc.gf2p import FieldSpec, make_field
from nbqc.nblift import DimensionMismatch, NBMatrix, verify_orthogonal
from nbqc.qcpair import QCParams, SparseBinaryMatrix, _column_join


class OrthogonalityBroken(AssertionError):
    """Binary product check failed after expansion (internal invariant)."""


class ParseError(ValueError):
    """Malformed NBQC text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class FieldMismatch(ValueError):
    """File's field parameters disagree with the expected field."""


@dataclass(eq=False)
class CssCodePair:
    """A full code pair: non-binary matrices plus their binary expansions.

    Rates follow from the block shape alone: R_C = 1 - J/L per
    constituent code and R_Q = 2 R_C - 1 = 1 - 2J/L for the pair, over
    n = p*L*P qubits.
    """

    field: FieldSpec
    params: QCParams
    gamma: NBMatrix
    delta: NBMatrix
    hc: SparseBinaryMatrix
    hd: SparseBinaryMatrix

    @property
    def M(self) -> int:
        return self.gamma.m

    @property
    def N(self) -> int:
        return self.gamma.n

    @property
    def n_qubits(self) -> int:
        return self.field.p * self.N

    @property
    def rate_c(self) -> float:
        return 1.0 - self.params.J / self.params.L

    @property
    def rate_q(self) -> float:
        return 1.0 - 2.0 * self.params.J / self.params.L

    def matrix(self, role: str) -> NBMatrix:
        if role == "C":
            return self.gamma
        if role == "D":
            return self.delta
        raise ValueError(f"role must be 'C' or 'D', got {role!r}")


def expand_pair(gamma: NBMatrix, delta: NBMatrix) -> CssCodePair:
    """Expand an orthogonal non-binary pair to its binary pair.

    Verifies non-binary orthogonality up front and binary orthogonality
    afterwards; the latter failing indicates a bug, not bad input.
    """
    field = gamma.field
    if not field.same_field(delta.field):
        raise FieldMismatch("matrices live in different fields")
    if not gamma.same_shape(delta):
        raise DimensionMismatch("pair matrices must have equal shape")
    if not verify_orthogonal(gamma, delta):
        raise ValueError("input pair is not orthogonal over GF(2^p)")
    hc = _expand_binary(gamma, transpose=False)
    hd = _expand_binary(delta, transpose=True)
    if not binary_orthogonal(hc, hd):
        raise OrthogonalityBroken("binary product nonzero after expansion")
    return CssCodePair(field=field, params=gamma.params,
                       gamma=gamma, delta=delta, hc=hc, hd=hd)


def _expand_binary(mat: NBMatrix, transpose: bool) -> SparseBinaryMatrix:
    p, width = mat.field.p, mat.field.p * mat.n
    # bit i of image column j is entry [i, j] of the entry's p x p image
    images = mat.field.unit_images(mat.val, transpose)
    entry, i, j = np.nonzero((images[:, None, :] >> np.arange(p)[:, None]) & 1)
    # one sort of the row-major keys orders the ones, whatever the input's column order
    row, col = np.divmod(np.sort((mat.row[entry] * p + i) * width + mat.col[entry] * p + j), width)
    return SparseBinaryMatrix(m=p * mat.m, n=width, row=row, col=col)


def binary_orthogonal(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> bool:
    """a @ b.T == 0 over GF(2), via a sparse column join."""
    if a.n != b.n:
        raise DimensionMismatch(f"column counts differ: {a.n} != {b.n}")
    ia, ib = _column_join(a.col, b.col, a.n)
    keys = np.sort(a.row[ia] * b.m + b.row[ib])
    # every (row of a, row of b) run has even length iff the sorted keys pair up
    return len(keys) % 2 == 0 and bool((keys[0::2] == keys[1::2]).all())


# -- NBQC text format ---------------------------------------------------------
#
#   NBQC 1
#   p=<int> poly=0x<hex> J=<int> L=<int> P=<int> sigma=<int> tau=<int> role=<GAMMA|DELTA>
#   M=<int> N=<int>
#   r<row>: <col>:<hexlog> <col>:<hexlog> ...
#
# Tokens are separated by spaces or tabs; the row prefix is its own token.
# The header keys come once each, in this order.  An <int> is an optional
# '-' and decimal digits, <hex> is lower-case hex digits, each at most
# _MAX_DIGITS digits.  row and col are decimal digits, hexlog is the
# discrete log of the entry in lower-case hex digits, each at most
# _MAX_DIGITS digits with no sign; row has no leading zero.  Columns
# strictly ascend.

_MAX_DIGITS = 15        # per number; 16**15 < 2**63, so no value overflows int64
_INT = f"(-?[0-9]{{1,{_MAX_DIGITS}}})"
_HEX = f"([0-9a-f]{{1,{_MAX_DIGITS}}})"
_HEADER = re.compile("[ \t]+".join((f"p={_INT}", f"poly=0x{_HEX}", f"J={_INT}", f"L={_INT}",
                                     f"P={_INT}", f"sigma={_INT}", f"tau={_INT}",
                                     "role=(GAMMA|DELTA)")))
_DIMS = re.compile(f"M={_INT}[ \t]+N={_INT}")
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[[9, 10, 32]] = True      # tab, newline, space
_DIGIT = np.full(256, 16)       # the value of a decimal or lower-case hex digit, else 16
_DIGIT[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)


def write_matrix(mat: NBMatrix, sink) -> None:
    """Serialise to the NBQC text format (bit-exact round trips)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii") as fh:
            write_matrix(mat, fh)
        return
    pr = mat.params
    sink.write("NBQC 1\n")
    sink.write(f"p={mat.field.p} poly={mat.field.poly:#x} J={pr.J} L={pr.L} "
               f"P={pr.P} sigma={pr.sigma} tau={pr.tau} role={mat.role}\n")
    sink.write(f"M={mat.m} N={mat.n}\n")
    if not mat.val.all():
        raise ZeroDivisionError("a stored zero has no log")
    # one format per row weight; row r's prefix and then its (col, log)
    # pairs fill its slots, r + 2 * (entries before it) onwards
    weights = np.bincount(mat.row, minlength=mat.m)
    sizes, which = np.unique(weights, return_inverse=True)
    line = ["r%d: " + " ".join(["%d:%x"] * w) + "\n" for w in sizes.tolist()]
    values = np.empty(mat.m + 2 * len(mat.col), dtype=np.int64)
    values[np.arange(mat.m) + 2 * (np.cumsum(weights) - weights)] = np.arange(mat.m)
    at = mat.row + 1 + 2 * np.arange(len(mat.col))
    values[at] = mat.col
    values[at + 1] = mat.field.log_table[mat.val]
    sink.write("".join(map(line.__getitem__, which.tolist())) % tuple(values.tolist()))


def read_matrix(source, expected_field: FieldSpec | None = None) -> NBMatrix:
    """Parse an NBQC file back into an NBMatrix.

    With `expected_field`, the file's (p, poly) must match exactly.
    """
    if isinstance(source, (str, Path)):
        # a non-ASCII byte reads as U+FFFD, which the parse rejects with its line
        with open(source, "r", encoding="ascii", errors="replace") as fh:
            return read_matrix(fh, expected_field)
    lines = source.read().splitlines()
    if not lines or lines[0] != "NBQC 1":
        raise ParseError(1, "expected magic 'NBQC 1'")
    if len(lines) < 3:
        raise ParseError(len(lines), "truncated header")
    header = _HEADER.fullmatch(lines[1])
    if not header:
        raise ParseError(2, "expected 'p=<int> poly=0x<hex> J=<int> L=<int> P=<int> "
                            "sigma=<int> tau=<int> role=<GAMMA|DELTA>'")
    p, J, L, P, sigma, tau = map(int, header.group(1, 3, 4, 5, 6, 7))
    poly, role = int(header[2], 16), header[8]
    params = QCParams(P=P, J=J, L=L, sigma=sigma, tau=tau)
    dims = _DIMS.fullmatch(lines[2])
    if not dims:
        raise ParseError(3, "expected 'M=<int> N=<int>'")
    m, n = int(dims[1]), int(dims[2])
    if m < 0 or n < 0:
        raise ParseError(3, f"negative dimension M={m} N={n}")

    if expected_field is not None and (expected_field.p != p or expected_field.poly != poly):
        raise FieldMismatch(
            f"file field (p={p}, poly={poly:#x}) != expected "
            f"(p={expected_field.p}, poly={expected_field.poly:#x})")
    if expected_field is not None:
        field = expected_field
    else:
        try:
            field = make_field(p, poly)
        except ValueError as exc:
            raise ParseError(2, f"bad field parameters: {exc}") from exc

    if len(lines) != 3 + m:
        raise ParseError(len(lines), f"expected {m} row lines, found {len(lines) - 3}")
    row, col, logs = _parse_rows(lines[3:], n, field.q)
    return NBMatrix(m=m, n=n, role=role, field=field, params=params,
                    row=row, col=col, val=field.exp_table[logs])


def _parse_rows(lines: list[str], n: int, q: int):
    """(row, col, log) arrays of the entries on the row lines, in file order.

    Array steps over the bytes of all lines at once.  A token is a run of
    bytes other than space, tab and line end, and is read as a decimal
    head, ':' and a hex tail: the first token of row line r must be
    'r<r>:' (the head after the 'r', with no leading zero, and an empty
    tail), every other one '<col>:<log>'.  Only when a check fails is
    the first failing line found, and on it the first failing token, so
    the error is the one a token-by-token reader would raise.
    """
    # a newline before every line, so that each token follows a separator;
    # one byte per character, so that byte offsets are character offsets;
    # a non-ASCII character becomes '?', which no token accepts
    b = np.frombuffer("\n".join([""] + lines + [""]).encode("ascii", "replace"), dtype=np.uint8)
    newline = np.flatnonzero(b == 10)
    sep = _SEPARATOR[b]
    start = np.flatnonzero(sep[:-1] > sep[1:]) + 1
    end = np.flatnonzero(sep[:-1] < sep[1:]) + 1
    line = np.searchsorted(newline, start) - 1
    first = b[start - 1] == 10
    colons = np.append(np.flatnonzero(b == ord(":")), len(b))
    colon = np.minimum(colons[np.searchsorted(colons, start)], end)
    head, head_ok = _numbers(b, start + first, colon, 10)
    tail, tail_ok = _numbers(b, np.minimum(colon + 1, end), end, 16)
    prefix_ok = ((b[start] == ord("r")) & head_ok & (colon + 1 == end) & (head == line)
                 & ((b[start + 1] != ord("0")) | (colon == start + 2)))
    ascending = np.append(True, first[:-1] | (head[1:] > head[:-1]))
    ok = np.where(first, prefix_ok,
                  head_ok & tail_ok & (head < n) & ascending & (tail < q - 1))
    entry = ~first
    if ok.all() and np.count_nonzero(first) == len(lines):
        return line[entry], head[entry], tail[entry]

    # the first bad line lacks a token at its start or holds the first failing token
    bad = np.flatnonzero(~ok)[:1]
    missing = np.setdiff1d(np.arange(len(lines)), line[first])[:1]
    r = int(np.concatenate((line[bad], missing)).min())
    if r in missing or first[bad[0]]:
        raise ParseError(4 + r, f"expected row prefix 'r{r}:'")
    t = bad[0]
    if not (head_ok[t] and tail_ok[t]):
        token = lines[r][start[t] - newline[r] - 1:end[t] - newline[r] - 1]
        raise ParseError(4 + r, f"bad entry {token!r}")
    if head[t] >= n:
        raise ParseError(4 + r, f"column {head[t]} outside [0, {n})")
    if not ascending[t]:
        raise ParseError(4 + r, "columns must strictly ascend")
    raise ParseError(4 + r, f"log {tail[t]} outside [0, {q - 1})")


def _numbers(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int):
    """The value of each run of bytes b[lo:hi] as a number in `base`, and
    whether the run is 1 to _MAX_DIGITS digits of that base.

    Each run's last digits are gathered into one column of a
    (width, runs) array, so the value is one product with the powers.
    """
    width = max(0, min(int((hi - lo).max(initial=0)), _MAX_DIGITS))
    at = hi - np.arange(width, 0, -1)[:, None]
    digits = np.where(at >= lo, _DIGIT[b.take(at, mode="clip")], 0)
    ok = (lo < hi) & (hi - lo <= _MAX_DIGITS) & (digits < base).all(axis=0)
    return base ** np.arange(width - 1, -1, -1) @ digits, ok


def load_pair(gamma_path, delta_path) -> CssCodePair:
    """Read both matrices, cross-check them, and expand to a code pair."""
    gamma = read_matrix(gamma_path)
    delta = read_matrix(delta_path, expected_field=gamma.field)
    if gamma.role != "GAMMA" or delta.role != "DELTA":
        raise ValueError(f"role tags are {gamma.role}/{delta.role}, "
                         "expected GAMMA/DELTA")
    if gamma.params != delta.params:
        raise ValueError("construction parameters differ between the files")
    return expand_pair(gamma, delta)
