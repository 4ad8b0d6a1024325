"""All-pairs and per-entry reference implementations, for tests only.

The library checks orthogonality by a sparse column join and expands
matrices in array steps; these are the direct formulations they must
agree with.  Each compares every pair of rows (or loops over every
entry), so they are quadratic in the row count and kept out of `src/`.
"""

from nbqc.nblift import DimensionMismatch, NBMatrix
from nbqc.qcpair import SparseBinaryMatrix


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
