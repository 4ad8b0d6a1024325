"""The code pair of a lifted pair, and the NBQC interchange format.

Replacing every entry of the first matrix by its p x p binary image and
every entry of the second by the transposed image turns an orthogonal
pair over GF(2^p) into an orthogonal binary pair of pM x pN
parity-check matrices: the image of x is the matrix of multiplication
by x, so block (r, s) of the binary product is the image of the product
of rows r and s over GF(2^p), and it is zero iff that product is.  So
`expand_pair` checks orthogonality over GF(2^p) only, and the library
never builds the binary matrices: `channel.syndrome_of` applies them
one p x p image at a time, and the tests build them entry by entry
(`tests/oracles.py`) to check the product over GF(2).

Files carry only the non-binary matrices (plus field and construction
parameters).  A file lists each nonzero by its column and its discrete
log, and an `NBMatrix` holds the same logs in row-major index arrays
(see `qcpair` and `nblift`), so neither the reader nor the writer
converts between logs and field elements.  The reader parses all row
lines together in array steps over their bytes, O(1) steps over the
bytes and tokens of the file; the writer applies one format string,
built from the row weights, to all the entries at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nbqc.gf2p import FieldSpec, make_field, poly_mask
from nbqc.nblift import DimensionMismatch, NBMatrix, verify_orthogonal
from nbqc.qcpair import QCParams, require_valid


class ParseError(ValueError):
    """Malformed NBQC text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class FieldMismatch(ValueError):
    """File's field parameters disagree with the expected field."""


@dataclass(eq=False)
class CssCodePair:
    """A full code pair: the two non-binary matrices over one field.

    Rates follow from the block shape alone: R_C = 1 - J/L per
    constituent code and R_Q = 2 R_C - 1 = 1 - 2J/L for the pair, over
    n = p*L*P qubits.
    """

    field: FieldSpec
    params: QCParams
    gamma: NBMatrix
    delta: NBMatrix

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
    """The code pair of an orthogonal non-binary pair.

    Verifies orthogonality over GF(2^p), which implies it over GF(2) for
    the binary expansion (module docstring).
    """
    field = gamma.field
    if not field.same_field(delta.field):
        raise FieldMismatch("matrices live in different fields")
    if (gamma.m, gamma.n) != (delta.m, delta.n):
        raise DimensionMismatch("pair matrices must have equal shape")
    if not verify_orthogonal(gamma, delta):
        raise ValueError("input pair is not orthogonal over GF(2^p)")
    return CssCodePair(field=field, params=gamma.params, gamma=gamma, delta=delta)


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
    # one format per row weight; row r's prefix and then its (col, log)
    # pairs fill its slots, r + 2 * (entries before it) onwards
    weights = np.bincount(mat.row, minlength=mat.m)
    sizes, which = np.unique(weights, return_inverse=True)
    line = ["r%d: " + " ".join(["%d:%x"] * w) + "\n" for w in sizes.tolist()]
    values = np.empty(mat.m + 2 * len(mat.col), dtype=np.int64)
    values[np.arange(mat.m) + 2 * (np.cumsum(weights) - weights)] = np.arange(mat.m)
    at = mat.row + 1 + 2 * np.arange(len(mat.col))
    values[at] = mat.col
    values[at + 1] = mat.log
    sink.write("".join(map(line.__getitem__, which.tolist())) % tuple(values.tolist()))


def read_matrix(source, expected_field: FieldSpec | None = None) -> NBMatrix:
    """Parse an NBQC file back into an NBMatrix.

    With `expected_field`, the file's (p, poly) must match it, the
    polynomial spelled with or without its leading term (`poly_mask`).
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
    poly, role = poly_mask(p, int(header[2], 16)), header[8]
    params = QCParams(P=P, J=J, L=L, sigma=sigma, tau=tau)
    dims = _DIMS.fullmatch(lines[2])
    if not dims:
        raise ParseError(3, "expected 'M=<int> N=<int>'")
    m, n = int(dims[1]), int(dims[2])
    if m < 0 or n < 0:
        raise ParseError(3, f"negative dimension M={m} N={n}")

    field = expected_field
    if field is None:
        try:
            field = make_field(p, poly)
        except ValueError as exc:
            raise ParseError(2, f"bad field parameters: {exc}") from exc
    elif (field.p, field.poly) != (p, poly):
        raise FieldMismatch(f"file field (p={p}, poly={poly:#x}) != expected "
                            f"(p={field.p}, poly={field.poly:#x})")

    if len(lines) != 3 + m:
        raise ParseError(len(lines), f"expected {m} row lines, found {len(lines) - 3}")
    row, col, logs = _parse_rows(lines[3:], n, field.q)
    return NBMatrix(m=m, n=n, role=role, field=field, params=params,
                    row=row, col=col, log=logs)


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
    """Read both matrices, cross-check them, and build their code pair.

    Each matrix must have the shape of its header's construction,
    2P x LP with LM entries, checked before anything is sized by N, and
    the header's parameters must satisfy the construction conditions
    (InvalidParams), checked after the shape, so that P is bounded by the
    rows read when their O(P) scan runs.
    """
    gamma = read_matrix(gamma_path)
    delta = read_matrix(delta_path, expected_field=gamma.field)
    if gamma.role != "GAMMA" or delta.role != "DELTA":
        raise ValueError(f"role tags are {gamma.role}/{delta.role}, "
                         "expected GAMMA/DELTA")
    if gamma.params != delta.params:
        raise ValueError("construction parameters differ between the files")
    P, L = gamma.params.P, gamma.params.L
    if {(mat.m, mat.n, mat.nnz()) for mat in (gamma, delta)} != {(2 * P, L * P, 2 * L * P)}:
        raise ValueError(f"the matrices are not 2P x LP = {2 * P}x{L * P} with LM entries")
    require_valid(gamma.params)
    return expand_pair(gamma, delta)
