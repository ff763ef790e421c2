"""Property tests of the exact linear algebra over Q against a dense
reference that computes with Fractions alone, never through `Field`.

Hypothesis runs derandomized with a fixed number of examples, so the suite
stays deterministic and fast.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from rep_helpers import is_normal_scalar  # noqa: E402  (tests/rep_helpers.py)

from quiverhom.exactlin import Field, Kernel, Matrix, Quotient, _rref, echelon_rows, inverse, rank  # noqa: E402

Q = Field(0)
P = Field(2147483647)
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)

# small integral and fractional entries, zero-heavy so that rank deficiency,
# zero rows and pivots other than +-1 all occur
SCALARS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def shapes(draw):
    return draw(st.integers(0, 5)), draw(st.integers(0, 5))


def matrices(rows, cols, scalars=SCALARS):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def q_matrix(draw):
    r, c = draw(shapes())
    return draw(matrices(r, c)), c


@st.composite
def products(draw, scalars=SCALARS):
    r, k = draw(shapes())
    c = draw(st.integers(0, 5))
    return draw(matrices(r, k, scalars)), draw(matrices(k, c, scalars)), k, c


# ----------------------------------------------------------------- the reference


def ref_mul(a, b, cols):
    return [[sum((Fraction(x) * Fraction(row[j]) for x, row in zip(arow, b)), Fraction(0))
             for j in range(cols)] for arow in a]


def ref_apply(a, vec):
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, vec)), Fraction(0)) for row in a]


def ref_rref(a, cols):
    """(nonzero rows of the reduced echelon form, pivot columns) by dense
    Gauss-Jordan on Fractions, first nonzero entry as pivot."""
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                coef = rows[i][c]
                rows[i] = [x - coef * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def ref_kernel_basis(a, cols):
    """One vector per non-pivot column c: 1 at c, 0 at the other non-pivot
    columns, minus the echelon entries at the pivot columns."""
    rows, pivots = ref_rref(a, cols)
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        v = [Fraction(0)] * cols
        v[c] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[c]
        basis.append(v)
    return basis


def transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def assert_normal(values):
    assert all(is_normal_scalar(Q, x) for x in values), values


# ----------------------------------------------------------------- properties


@PROPERTY
@given(products())
def test_product_and_apply_match_the_reference(case):
    a, b, k, c = case
    product = Matrix(Q, a, cols=k) * Matrix(Q, b, cols=c)
    assert [list(row) for row in product.entries] == ref_mul(a, b, c)
    for row in product.entries:
        assert_normal(row)
    for vec in transpose(b, k, c):
        image = Matrix(Q, a, cols=k).apply(vec)
        assert list(image) == ref_apply(a, vec)
        assert_normal(image)


@PROPERTY
@given(q_matrix())
def test_rref_and_rank_match_the_reference(case):
    a, cols = case
    m = Matrix(Q, a, cols=cols)
    rows, pivots = _rref(m)
    ref_rows, ref_pivots = ref_rref(a, cols)
    assert pivots == ref_pivots
    assert rows == ref_rows
    for row in rows:
        assert_normal(row)
    assert rank(m) == len(ref_pivots) == rank(m.transpose())


@PROPERTY
@given(st.sampled_from([Q, P]), q_matrix())
def test_sparse_row_rank_matches_the_dense_rank(fld, case):
    # the rows handed over are the nonzeros of the coerced matrix's rows
    # (Fractions over Q, their residues over F_p); elimination copies them
    a, cols = case
    m = Matrix(fld, a, cols=cols)
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
    given_rows = [dict(row) for row in rows]
    echelon = echelon_rows(fld, rows)
    assert rows == given_rows
    assert len(echelon) == rank(m) == rank(m.transpose())
    if fld is Q:
        assert [c for c, _ in echelon] == ref_rref(a, cols)[1]


@PROPERTY
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), matrices(n, n))))
def test_inverse_matches_the_reference(case):
    n, a = case
    inv = inverse(Matrix(Q, a, cols=n))
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows, pivots = ref_rref([row + ident for row, ident in zip(a, identity)], 2 * n)
    if pivots[:n] != list(range(n)):
        assert inv is None
        return
    assert [list(row) for row in inv.entries] == [row[n:] for row in rows]
    for row in inv.entries:
        assert_normal(row)
    assert ref_mul(a, inv.entries, n) == identity


@PROPERTY
@given(q_matrix(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_kernel_and_quotient_coordinates_match_the_reference(case, coeffs):
    a, cols = case
    m = Matrix(Q, a, cols=cols)
    kern = Kernel(m)
    basis = ref_kernel_basis(a, cols)
    assert [list(v) for v in kern.basis] == basis
    for v in kern.basis:
        assert_normal(v)
        assert not any(ref_apply(a, v))
    coords = [Fraction(x, 2) for x in coeffs[:kern.dim]]
    vec = tuple(Q.of(sum((c * v[i] for c, v in zip(coords, basis)), Fraction(0)))
                for i in range(cols))
    got = kern.coordinates(vec)
    assert list(got) == coords
    assert_normal(got)
    # a column that m does not kill, added to a kernel vector, leaves the kernel
    for c in range(cols):
        if any(row[c] for row in a):
            off = list(vec)
            off[c] = Q.add(off[c], Q.one)
            with pytest.raises(ValueError):
                kern.coordinates(tuple(off))
            break

    quot = Quotient(m)
    left = ref_kernel_basis(transpose(a, m.rows, cols), m.rows)
    assert quot.dim == len(left) == m.rows - rank(m)
    vec = [Fraction(x, 3) for x in coeffs[:m.rows]]
    got = quot.coordinates(tuple(Q.of(x) for x in vec))
    assert list(got) == ref_apply(left, vec)
    assert_normal(got)


@PROPERTY
@given(products(st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))))
def test_integer_products_over_a_large_prime_reduce_the_rational_product(case):
    a, b, k, c = case
    over_q = Matrix(Q, a, cols=k) * Matrix(Q, b, cols=c)
    over_p = Matrix(P, a, cols=k) * Matrix(P, b, cols=c)
    p = P.characteristic
    assert over_p.entries == tuple(tuple(x % p for x in row) for row in over_q.entries)
    for row in over_p.entries:
        assert all(is_normal_scalar(P, x) for x in row)
    for vec in transpose(b, k, c):
        assert Matrix(P, a, cols=k).apply(vec) == tuple(x % p for x in Matrix(Q, a, cols=k).apply(vec))
