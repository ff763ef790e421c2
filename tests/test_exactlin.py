import random

from fractions import Fraction
from math import gcd

import pytest
from rep_helpers import is_normal_scalar, is_zero_matrix  # tests/rep_helpers.py

from quiverhom.exactlin import (
    Field,
    Kernel,
    Matrix,
    Quotient,
    _echelon,
    _rref,
    inverse,
    rank,
)


Q = Field(0)
F5 = Field(5)


def dense_rref(m: Matrix):
    """Reference reduced row echelon form: dense Gauss-Jordan through the
    Field operations, first nonzero entry as pivot.  Returns every row (the
    zero rows last) and the pivot columns."""
    f = m.field
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not f.is_zero(a[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(a[i][c]):
                coef = a[i][c]
                a[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def solve(m: Matrix, b) -> tuple | None:
    """A particular solution x of m x = b (zero at the free columns), or
    None if inconsistent; read off the reference echelon form."""
    f = m.field
    a, pivots = dense_rref(m.hstack(Matrix(f, [[x] for x in b], cols=1)))
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][m.cols]
    return tuple(x)


def test_field_parse():
    assert Field.parse("Q") == Q
    assert Field.parse("F5") == F5
    with pytest.raises(ValueError):
        Field.parse("F4")
    with pytest.raises(ValueError):
        Field.parse("R")


def test_field_primality_is_deterministic_and_bounded():
    assert Field(2**61 - 1).characteristic == 2**61 - 1
    # 561 is a Carmichael number; 3825123056546413051 is a strong
    # pseudoprime to every prime base up to 23
    for composite in (561, 3825123056546413051):
        with pytest.raises(ValueError, match="prime"):
            Field(composite)
    # 2^89 - 1 is prime but beyond the proven range of the base set
    with pytest.raises(ValueError, match="bound"):
        Field(2**89 - 1)


def test_rank_empty_and_identity():
    assert rank(Matrix.zeros(Q, 0, 0)) == 0
    assert rank(Matrix.identity(Q, 2)) == 2


def test_rank_dependent_rows():
    # row reduction by hand: second row is twice the first
    m = Matrix(Q, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert Kernel(Matrix.identity(Q, 3)).basis == []


def test_kernel_zero_matrix_full():
    ker = Kernel(Matrix.zeros(Q, 2, 3)).basis
    assert len(ker) == 3


def test_kernel_proportional():
    m = Matrix(Q, [[1, 2], [2, 4]])
    (vec,) = Kernel(m).basis
    # proportional to (2, -1)
    assert vec[0] * Fraction(-1) == vec[1] * Fraction(2)
    assert all(x == 0 for x in m.apply(vec))


def test_cokernel_identity():
    quot = Quotient(Matrix.identity(Q, 4))
    assert quot.dim == 0 and quot.projection.rows == 0


def test_cokernel_zero():
    quot = Quotient(Matrix.zeros(Q, 3, 2))
    assert quot.dim == 3
    assert rank(quot.projection) == 3


@pytest.mark.parametrize("field", [Q, F5])
def test_whole_spaces_equal_the_empty_shape_eliminations(field):
    """`Kernel.whole(f, n)` is `Kernel` of a 0 x n matrix and `Quotient.whole(f, n)`
    is `Quotient` of an n x 0 matrix, with no elimination and no projection
    held until it is read."""
    for n in range(4):
        vec = tuple(field.of(x) for x in (3, -1, 0, 2)[:n])
        kern, ref_k = Kernel.whole(field, n), Kernel(Matrix(field, [], cols=n))
        assert (kern.dim, kern.ambient_dim, kern.basis) == (ref_k.dim, ref_k.ambient_dim, ref_k.basis) == (
            n, n, Kernel(Matrix.zeros(field, 1, n)).basis)
        assert kern.coordinates(vec) == ref_k.coordinates(vec) == vec
        quot, ref_q = Quotient.whole(field, n), Quotient(Matrix.zeros(field, n, 0))
        assert quot._projection is None
        assert (quot.dim, quot.ambient_dim, quot.basis) == (ref_q.dim, ref_q.ambient_dim, ref_q.basis)
        assert quot.projection == ref_q.projection == Matrix.identity(field, n)
        assert quot.coordinates(vec) == ref_q.coordinates(vec) == vec
    with pytest.raises(ValueError, match="length mismatch"):
        Quotient.whole(field, 2).coordinates((field.one,))


def test_cokernel_tall_column():
    m = Matrix(Q, [[1], [2]])
    quot = Quotient(m)
    assert quot.dim == 1
    assert is_zero_matrix(quot.projection * m)


@pytest.mark.parametrize("field", [Q, F5])
def test_rank_nullity_random(field):
    rng = random.Random(101)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        if r == 0:
            m = Matrix.zeros(field, 0, c)
        else:
            m = Matrix(field, [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        k = Kernel(m).basis
        quot = Quotient(m)
        dim, proj = quot.dim, quot.projection
        assert rank(m) + len(k) == c
        assert rank(m) + dim == r
        for vec in k:
            assert all(field.is_zero(x) for x in m.apply(vec))
        if dim and c:
            assert is_zero_matrix(proj * m)


def test_results_independent_of_permutation():
    rng = random.Random(77)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        m = Matrix(Q, rows)
        shuffled_rows = rows[:]
        rng.shuffle(shuffled_rows)
        perm_cols = list(range(c))
        rng.shuffle(perm_cols)
        shuffled = [[row[j] for j in perm_cols] for row in shuffled_rows]
        m2 = Matrix(Q, shuffled)
        assert rank(m) == rank(m2)
        assert Kernel(m).dim == Kernel(m2).dim
        assert Quotient(m).dim == Quotient(m2).dim


def test_solve_and_inverse():
    m = Matrix(Q, [[2, 1], [1, 1]])
    x = solve(m, (3, 2))
    assert x is not None
    assert m.apply(x) == (Fraction(3), Fraction(2))
    inv = inverse(m)
    assert inv * m == Matrix.identity(Q, 2)
    assert inverse(Matrix(Q, [[1, 2], [2, 4]])) is None
    assert solve(Matrix(Q, [[1], [2]]), (1, 3)) is None


def test_quotient_reduce():
    m = Matrix(Q, [[1], [2]])
    quot = Quotient(m)
    assert quot.dim == 1
    assert quot.coordinates((1, 2)) == (Fraction(0),)
    nonzero = quot.coordinates((1, 0))
    assert any(x != 0 for x in nonzero)


def test_prime_field_arithmetic():
    m = Matrix(F5, [[2, 1], [1, 1]])
    inv = inverse(m)
    assert inv is not None
    assert inv * m == Matrix.identity(F5, 2)


def test_prime_field_fraction_coercion():
    # 1/2 in F5 is 3, never a truncated 0
    assert F5.of(Fraction(1, 2)) == 3
    assert F5.of(Fraction(-1, 3)) == F5.mul(F5.of(-1), F5.inv(3))
    with pytest.raises(ZeroDivisionError):
        F5.of(Fraction(1, 5))


def test_field_of_values():
    # each input kind coerces to the same value as the reference rules, in
    # normal form: over Q an int when integral, else a Fraction; over F_p an
    # int in [0, p)
    for n in (0, 5, -3, 10**30, -(10**30)):
        assert Q.of(n) == n and type(Q.of(n)) is int
    for b in (True, False):
        assert Q.of(b) == int(b) and type(Q.of(b)) is int
    half = Fraction(-1, 2)
    assert Q.of(half) is half
    for x, value in ((Fraction(6, 3), 2), (Fraction(-4, 1), -4), (Fraction(0), 0)):
        assert Q.of(x) == value and type(Q.of(x)) is int
    for p in (5, 7, 2147483647):
        fld = Field(p)
        for n in (0, 5, -3, p, -p - 1, 10**30, -(10**30)):
            assert fld.of(n) == n % p and is_normal_scalar(fld, fld.of(n))
        assert fld.of(True) == 1 and is_normal_scalar(fld, fld.of(True))
        assert fld.of(False) == 0 and is_normal_scalar(fld, fld.of(False))
        assert fld.of(Fraction(-2, 3)) == (-2 * pow(3, -1, p)) % p
        assert fld.of(Fraction(6, 1)) == 6 % p


def test_rational_operations_return_the_normal_form():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        (Q.zero, 0), (Q.one, 1),
        (Q.add(half, half), 1), (Q.sub(Fraction(3, 2), half), 1),
        (Q.mul(2, half), 1), (Q.mul(Fraction(2, 3), Fraction(3, 4)), half),
        (Q.neg(-2), 2), (Q.neg(half), -half), (Q.add(half, third), Fraction(5, 6)),
        (Q.inv(third), 3), (Q.inv(Fraction(-1, 3)), -3), (Q.inv(1), 1), (Q.inv(-1), -1),
        (Q.inv(2), half), (Q.inv(Fraction(-2, 3)), Fraction(-3, 2)),
        (Q.of(Fraction(6, 3)), 2),
    ]
    for got, want in cases:
        assert got == want and is_normal_scalar(Q, got), (got, want)
        assert type(got) is type(want)
    assert Q.normal([Fraction(4, 2), half, 3, Fraction(-1, 2) + half]) == (2, half, 3, 0)
    assert all(is_normal_scalar(Q, x) for x in Q.normal([Fraction(4, 2), half, 0]))
    # the predicate itself is strict
    assert not is_normal_scalar(Q, Fraction(3)) and not is_normal_scalar(Q, 1.0)
    assert not is_normal_scalar(F5, 5) and not is_normal_scalar(F5, -1)
    assert F5.normal([7, -1, 25]) == (2, 4, 0)
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


SUBSPACE_FIELDS = [Q, Field(7), Field(2147483647)]


def _random_matrices(fld, seed, count=120):
    """Random matrices up to 6 x 6, empty shapes included; half of them are
    products through a narrower middle, so rank deficiency is common."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        if rng.random() < 0.5:
            m = Matrix(fld, [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(c)]
                             for _ in range(r)], cols=c)
        else:
            k = rng.randint(0, min(r, c))
            left = Matrix(fld, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)], cols=k)
            right = Matrix(fld, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)], cols=c)
            m = left * right
        assert (m.rows, m.cols) == (r, c)
        yield m


@pytest.mark.parametrize("fld", SUBSPACE_FIELDS, ids=repr)
def test_subspace_primitives_random(fld):
    for m in _random_matrices(fld, 4242):
        assert rank(m) == rank(m.transpose())
        quot = Quotient(m)
        assert quot.dim == m.rows - rank(m)
        assert (quot.projection.rows, quot.projection.cols) == (quot.dim, m.rows)
        assert is_zero_matrix(quot.projection * m)
        # each class representative is the unit vector at a non-pivot
        # column of the left kernel's echelon form
        left = Kernel(m.transpose())
        assert quot.basis == [tuple(fld.one if i == c else fld.zero for i in range(m.rows))
                              for c in left._free]
        kern = Kernel(m)
        assert kern.dim == m.cols - rank(m)
        for vec in kern.basis:
            assert all(fld.is_zero(x) for x in m.apply(vec))
        rng = random.Random(m.rows * 7 + m.cols)
        for space in (quot, kern):
            assert len(space.basis) == space.dim
            for j, vec in enumerate(space.basis):
                assert space.coordinates(vec) == tuple(fld.one if i == j else fld.zero for i in range(space.dim))
            coords = tuple(fld.of(rng.randint(-5, 5)) for _ in range(space.dim))
            combo = [fld.zero] * space.ambient_dim
            for c, vec in zip(coords, space.basis):
                combo = [fld.add(x, fld.mul(c, y)) for x, y in zip(combo, vec)]
            assert space.coordinates(tuple(combo)) == coords
        # a vector m does not kill lies outside the kernel, also after adding
        # a kernel vector to it
        for c in range(m.cols):
            column = m.column(c)
            if any(not fld.is_zero(x) for x in column):
                off = [fld.zero] * m.cols
                for vec in kern.basis:
                    off = [fld.add(x, y) for x, y in zip(off, vec)]
                off[c] = fld.add(off[c], fld.one)
                with pytest.raises(ValueError):
                    kern.coordinates(off)


RREF_FIELDS = [Q, Field(2), Field(7), Field(2147483647)]


def _rref_matrices(fld, seed, count=150):
    """Random matrices up to 9 x 9, 0-row and 0-column shapes included.
    Over Q the entries include non-integral fractions, so pivots other than
    +-1 and fractional intermediate entries occur; coprime denominators
    (10^9 + 7 next to 4), entries near 10^12 and rows scaled by a common
    factor make the integer kernel's lcm scaling and content removal run."""
    rng = random.Random(seed)
    scalars = [0, 0, 0, 1, -1, 2, -3, 5]
    if fld.characteristic == 0:
        scalars += [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4),
                    Fraction(1, 10**9 + 7), Fraction(3, 4), 10**12 + 39, -(10**12)]
        factors = [1, 1, 6, -(10**12), Fraction(5, 10**9 + 7)]
    else:
        scalars += [fld.characteristic - 1, fld.characteristic + 3]
        factors = None

    def rows(r, c):
        out = [[rng.choice(scalars) for _ in range(c)] for _ in range(r)]
        if factors:
            for row in out:
                f = rng.choice(factors)
                row[:] = [f * x for x in row]
        return out

    for k in range(count):
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        if k % 3 == 0:
            # a product through a narrower middle: rank deficient
            mid = rng.randint(0, min(r, c))
            left = Matrix(fld, rows(r, mid), cols=mid)
            right = Matrix(fld, rows(mid, c), cols=c)
            yield left * right
        else:
            yield Matrix(fld, rows(r, c), cols=c)


@pytest.mark.parametrize("fld", RREF_FIELDS, ids=repr)
def test_sparse_rref_matches_dense_oracle(fld):
    shapes = set()
    for m in _rref_matrices(fld, 6060):
        rows, pivots = _rref(m)
        ref_rows, ref_pivots = dense_rref(m)
        assert pivots == ref_pivots
        assert rows == ref_rows[:len(ref_pivots)]
        shapes.add((m.rows == 0, m.cols == 0))
        for row in rows:
            assert len(row) == m.cols
            assert all(is_normal_scalar(fld, x) for x in row)
    assert {(True, False), (False, True)} <= shapes


@pytest.mark.parametrize("fld", RREF_FIELDS, ids=repr)
def test_rank_and_echelon_match_dense_oracle(fld):
    # rank runs the forward phase alone; its rows are the echelon rows that
    # back substitution starts from: over Q primitive integer rows (ints
    # whose gcd is 1), over F_p rows with pivot 1
    shapes = set()
    for m in _rref_matrices(fld, 6161):
        ref_pivots = dense_rref(m)[1]
        assert rank(m) == len(ref_pivots)
        echelon = _echelon(m)
        assert [c for c, _ in echelon] == ref_pivots
        for c, row in echelon:
            assert min(row) == c
            assert all(type(x) is int for x in row.values())
            if fld.characteristic == 0:
                assert gcd(*row.values()) == 1
            else:
                assert row[c] == 1 and all(0 < x < fld.characteristic for x in row.values())
        shapes.add((m.rows == 0, m.cols == 0))
    assert {(True, False), (False, True)} <= shapes
