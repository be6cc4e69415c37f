"""Row reduction, rank and reduction against an echelon basis over a finite
field.

Matrices are lists of rows; entries are element indices of a Field.  Every
step is a whole-row operation (`Field.scale_row`, `Field.add_scaled_row`).
Everything is exact and deterministic (leftmost pivot, top-down).
"""

from __future__ import annotations

from .field import Field


def rref(rows: list[list[int]], field: Field):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot cols)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = field.scale_row(field.inv(mat[r][c]), mat[r])
        tail = mat[r][c:]  # the pivot row is zero left of c
        for i, row in enumerate(mat):
            if i != r and row[c] != 0:
                mat[i] = row[:c] + field.add_scaled_row(row[c:], field.neg(row[c]), tail)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows, field: Field) -> int:
    return len(rref(rows, field)[0])


def reduce(vec, rows, pivots, field: Field) -> list[int]:
    """vec minus its combination of echelon rows: rows[i] is 1 at pivots[i]
    and 0 at every earlier pivot (an RREF, or rows appended in that order).
    The result is zero iff vec lies in their span."""
    vec = list(vec)
    for row, pc in zip(rows, pivots):
        if vec[pc]:
            vec = field.add_scaled_row(vec, field.neg(vec[pc]), row)
    return vec
