"""Binary expansion of a lifted pair and the NBQC interchange format.

Replacing every entry of the first matrix by its p x p binary image and
every entry of the second by the transposed image turns an orthogonal
pair over GF(2^p) into an orthogonal binary pair of pM x pN
parity-check matrices.  Orthogonality is re-verified after expansion as
a hard invariant.

Files carry only the non-binary matrices (plus field and construction
parameters); the binary expansion is recomputed on load, never stored.
Both are held as row-major index arrays (see `qcpair` and `nblift`):
the expansion writes its `row` and `col` arrays in one sort, and the
text format is read and written one line per row.

Costs.  The expansion reads each entry's image off the images of the
p unit vectors, O(nnz p^2).  `binary_orthogonal` joins the ones of the
two matrices on their column and counts, for each row pair that shares
a column, how many columns it shares; the product vanishes iff every
count is even.  A pair that shares no column has a zero product, so the
check is exact, and the join holds O(nnz x column weight) entry pairs.
No array has one cell per pair of rows.
"""

from __future__ import annotations

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
    p = mat.field.p
    # bit i of image column j is entry [i, j] of the entry's p x p image
    images = mat.field.unit_images(mat.val, transpose)
    entry, i, j = np.nonzero((images[:, None, :] >> np.arange(p)[:, None]) & 1)
    bin_rows = mat.row[entry] * p + i
    bin_cols = mat.col[entry] * p + j
    order = np.lexsort((bin_cols, bin_rows))
    return SparseBinaryMatrix(m=p * mat.m, n=p * mat.n,
                              row=bin_rows[order], col=bin_cols[order])


def binary_orthogonal(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> bool:
    """a @ b.T == 0 over GF(2), via a sparse column join."""
    if a.n != b.n:
        raise DimensionMismatch(f"column counts differ: {a.n} != {b.n}")
    ia, _, starts = _column_join(a.row, a.col, b.row, b.col)
    shared = np.diff(starts, append=len(ia))
    return not (shared & 1).any()


# -- NBQC text format ---------------------------------------------------------
#
#   NBQC 1
#   p=<int> poly=0x<hex> J=<int> L=<int> P=<int> sigma=<int> tau=<int> role=<GAMMA|DELTA>
#   M=<int> N=<int>
#   r<row>: <col>:<hexlog> <col>:<hexlog> ...
#
# hexlog is the discrete log of the entry in lowercase hex; columns ascend.

_HEADER_KEYS = ("p", "poly", "J", "L", "P", "sigma", "tau", "role")


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
    cells = [f"{c}:{lg:x}" for c, lg in zip(mat.col.tolist(),
                                             mat.field.log_table[mat.val].tolist())]
    ends = np.cumsum(np.bincount(mat.row, minlength=mat.m)).tolist()
    sink.write("".join(f"r{r}: {' '.join(cells[lo:hi])}\n"
                       for r, (lo, hi) in enumerate(zip([0] + ends, ends))))


def read_matrix(source, expected_field: FieldSpec | None = None) -> NBMatrix:
    """Parse an NBQC file back into an NBMatrix.

    With `expected_field`, the file's (p, poly) must match exactly.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as fh:
            return read_matrix(fh, expected_field)
    lines = source.read().splitlines()
    if not lines or lines[0] != "NBQC 1":
        raise ParseError(1, "expected magic 'NBQC 1'")
    if len(lines) < 3:
        raise ParseError(len(lines), "truncated header")
    header = _parse_kv(lines[1], 2)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ParseError(2, f"missing header fields: {', '.join(missing)}")
    role = header["role"]
    if role not in ("GAMMA", "DELTA"):
        raise ParseError(2, f"bad role {role!r}")
    try:
        p = int(header["p"])
        poly = int(header["poly"], 16)
        params = QCParams(P=int(header["P"]), J=int(header["J"]),
                          L=int(header["L"]), sigma=int(header["sigma"]),
                          tau=int(header["tau"]))
    except ValueError as exc:
        raise ParseError(2, f"bad header value: {exc}") from exc
    dims = _parse_kv(lines[2], 3)
    if set(dims) != {"M", "N"}:
        raise ParseError(3, "expected 'M=<int> N=<int>'")
    try:
        m, n = int(dims["M"]), int(dims["N"])
    except ValueError as exc:
        raise ParseError(3, f"bad dimension: {exc}") from exc
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
    weights, cols, logs = [], [], []
    for r in range(m):
        line_no = 4 + r
        line = lines[3 + r]
        prefix = f"r{r}:"
        if not line.startswith(prefix):
            raise ParseError(line_no, f"expected row prefix {prefix!r}")
        last_col = -1
        tokens = line[len(prefix):].split()
        for tok in tokens:
            col_s, _, log_s = tok.partition(":")
            try:
                col = int(col_s)
                lg = int(log_s, 16)
            except ValueError as exc:
                raise ParseError(line_no, f"bad entry {tok!r}") from exc
            if not 0 <= col < n:
                raise ParseError(line_no, f"column {col} outside [0, {n})")
            if col <= last_col:
                raise ParseError(line_no, "columns must strictly ascend")
            if not 0 <= lg < field.q - 1:
                raise ParseError(line_no, f"log {lg} outside [0, {field.q - 1})")
            last_col = col
            cols.append(col)
            logs.append(lg)
        weights.append(len(tokens))
    return NBMatrix(m=m, n=n, role=role, field=field, params=params,
                    row=np.repeat(np.arange(m), weights), col=np.array(cols, dtype=np.int64),
                    val=field.exp_table[np.array(logs, dtype=np.int64)])


def _parse_kv(line: str, line_no: int) -> dict:
    out = {}
    for tok in line.split():
        key, sep, val = tok.partition("=")
        if not sep or not key or not val:
            raise ParseError(line_no, f"expected key=value, got {tok!r}")
        out[key] = val
    return out


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
