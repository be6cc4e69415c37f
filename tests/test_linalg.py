"""Row primitives and row reduction against cell-by-cell references.

The references below are the element-at-a-time algorithms the table-driven
code replaced; hypothesis compares the two on random matrices over small
fields, and over GF(2^8), the largest field accepted.
"""

from hypothesis import given, settings, strategies as st

from nordcodes import linalg
from nordcodes.field import make_field

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 8)]


def ref_rref(rows, F):
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
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [F.sub(mat[i][j], F.mul(factor, mat[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def ref_nullspace(rows, F, ncols):
    red, pivots = ref_rref(rows, F)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = F.neg(r[fc])
        basis.append(v)
    return basis


@st.composite
def matrices(draw, max_rows=7, max_cols=8):
    p, k = draw(st.sampled_from(FIELDS))
    F = make_field(p, k)
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    # few distinct values, so that dependent rows and zero columns occur
    values = draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=3))
    entry = st.sampled_from([0] + values)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return F, rows, ncols


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_primitives(data):
    p, k = data.draw(st.sampled_from(FIELDS))
    F = make_field(p, k)
    n = data.draw(st.integers(0, 10))
    elem = st.integers(0, F.q - 1)
    x = data.draw(st.lists(elem, min_size=n, max_size=n))
    y = data.draw(st.lists(elem, min_size=n, max_size=n))
    c = data.draw(elem)
    assert F.scale_row(c, y) == [F.mul(c, v) for v in y]
    assert F.add_scaled_row(x, c, y) == [F.add(a, F.mul(c, b)) for a, b in zip(x, y)]
    total = 0
    for a, b in zip(x, y):
        total = F.add(total, F.mul(a, b))
    assert F.dot(x, y) == total


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_reference(case):
    F, rows, ncols = case
    assert linalg.rref(rows, F) == ref_rref(rows, F)
    assert linalg.rank(rows, F) == len(ref_rref(rows, F)[0])
    # the nullspace reference, the oracle for the dual codes: independent
    # rows orthogonal to every row, ncols - rank of them
    null = ref_nullspace(rows, F, ncols)
    assert all(F.dot(row, v) == 0 for row in rows for v in null)
    assert len(ref_rref(null, F)[0]) == len(null) == ncols - linalg.rank(rows, F)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_reduce_decides_membership(case, data):
    F, rows, ncols = case
    red, pivots = ref_rref(rows, F)
    vec = data.draw(st.lists(st.integers(0, F.q - 1), min_size=ncols, max_size=ncols))
    rest = linalg.reduce(vec, red, pivots, F)
    in_span = len(ref_rref(red + [vec], F)[0]) == len(red)
    assert (not any(rest)) == in_span
    assert all(rest[pc] == 0 for pc in pivots)
    # vec - rest is the combination sum vec[pc] * row of the RREF rows
    combo = [0] * ncols
    for row, pc in zip(red, pivots):
        combo = [F.add(a, F.mul(vec[pc], b)) for a, b in zip(combo, row)]
    assert [F.sub(a, b) for a, b in zip(vec, rest)] == combo
