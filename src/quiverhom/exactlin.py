"""Exact linear algebra over the rationals or a prime field.

Every scalar is in normal form.  Over the rationals (characteristic 0) that
is an int when the value is integral and otherwise a Fraction whose
denominator exceeds 1; over F_p it is an int in [0, p).  Sums and products
of normal scalars are exact ints or Fractions, so loops may accumulate them
raw and normalize each result once (`Field.normal`).  No floating point
enters the system anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import countOf, mul


# Miller-Rabin with the prime bases 2..41 decides primality for every
# n < 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality below _MR_BOUND; ValueError at or above it."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"characteristic {n} is beyond the proven primality bound {_MR_BOUND}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """The normal form over Q of an exact int or Fraction value."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class Field:
    """The rationals (characteristic 0) or F_p for a prime p."""

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
        self.characteristic = characteristic
        self.zero = self.of(0)
        self.one = self.of(1)

    @classmethod
    def parse(cls, text: str) -> "Field":
        t = text.strip()
        if t in ("Q", "QQ", "0"):
            return cls(0)
        if t.startswith("F") and t[1:].isdigit():
            return cls(int(t[1:]))
        raise ValueError(f"unknown field spec {text!r} (expected Q or F<p>)")

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime"

    def describe(self) -> dict:
        return {"kind": self.kind, "characteristic": self.characteristic}

    def __repr__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    # scalar arithmetic -------------------------------------------------

    def of(self, n):
        """Coerce an int or Fraction into a normalized scalar.

        Over Q an integral value becomes an int and any other value a
        Fraction.  In prime characteristic a fraction p/q becomes
        p * q^(-1) mod p, never a truncated integer."""
        p = self.characteristic
        if type(n) is int:
            return n % p if p else n
        if not isinstance(n, Fraction):
            if p:
                return int(n) % p
            n = Fraction(n)
        if p == 0:
            return _rational(n)
        den = n.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by the characteristic {p}")
        return n.numerator * pow(den, -1, p) % p

    def normal(self, values) -> tuple:
        """The normal forms of raw values: exact sums and products of normal
        scalars, such as a loop accumulates before normalizing each result."""
        p = self.characteristic
        if p:
            return tuple([x % p for x in values])
        values = tuple(values)
        if countOf(map(type, values), int) == len(values):  # the common case, tested in C
            return values
        return tuple([x if type(x) is int or x.denominator != 1 else x.numerator for x in values])

    def add(self, a, b):
        return (a + b) % self.characteristic if self.characteristic else _rational(a + b)

    def sub(self, a, b):
        return (a - b) % self.characteristic if self.characteristic else _rational(a - b)

    def mul(self, a, b):
        return (a * b) % self.characteristic if self.characteristic else _rational(a * b)

    def neg(self, a):
        return (-a) % self.characteristic if self.characteristic else -a

    def inv(self, a):
        if self.characteristic:
            if a % self.characteristic == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.characteristic)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a))

    def is_zero(self, a) -> bool:
        return (a % self.characteristic == 0) if self.characteristic else a == 0


class Matrix:
    """Immutable dense matrix with exact entries over a fixed field.

    Dense tuples of normal scalars (see the module docstring) are the
    storage.  Elimination runs on sparse rows (`echelon_rows`), which
    `rank` and `_rref` copy a matrix's nonzeros into once.
    `Matrix(field, entries)` coerces every entry with `Field.of`, and the
    operations below build their results with `_normalized`, which takes
    entries already in normal form as they are.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        self.field = field
        rows = tuple(tuple(field.of(x) for x in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.entries = rows

    # constructors ------------------------------------------------------

    @classmethod
    def _normalized(cls, field: Field, entries: tuple, cols: int) -> "Matrix":
        """A matrix on a tuple of equal-length row tuples whose entries are
        already normalized scalars of `field`; nothing is coerced or checked."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(entries)
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._normalized(field, tuple((field.zero,) * cols for _ in range(rows)), cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._normalized(field, tuple(tuple(field.one if i == j else field.zero for j in range(n))
                                            for i in range(n)), n)

    @classmethod
    def from_columns(cls, field: Field, columns, rows: int) -> "Matrix":
        cols = list(columns)
        return cls(field, [[col[i] for col in cols] for i in range(rows)], cols=len(cols))

    @classmethod
    def from_sparse(cls, field: Field, rows, cols: int) -> "Matrix":
        """The dense view of sparse rows {column: nonzero normal scalar}."""
        return cls._normalized(field, tuple(tuple(row.get(j, field.zero) for j in range(cols)) for row in rows), cols)

    # basic algebra -----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    def __add__(self, other):
        self._compat(other)
        f = self.field
        return Matrix._normalized(f, tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                                           for r1, r2 in zip(self.entries, other.entries)), self.cols)

    def __sub__(self, other):
        self._compat(other)
        f = self.field
        return Matrix._normalized(f, tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2))
                                           for r1, r2 in zip(self.entries, other.entries)), self.cols)

    def __neg__(self):
        f = self.field
        return Matrix._normalized(f, tuple(tuple(f.neg(a) for a in row) for row in self.entries), self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        f = self.field
        ot = other.entries
        out = []
        for row in self.entries:
            new = [0] * other.cols
            for a, ork in zip(row, ot):
                if a:
                    for j, b in enumerate(ork):
                        if b:
                            new[j] += a * b
            out.append(f.normal(new))
        return Matrix._normalized(f, tuple(out), other.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        return Matrix._normalized(f, tuple(tuple(f.mul(c, a) for a in row) for row in self.entries), self.cols)

    def transpose(self) -> "Matrix":
        columns = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._normalized(self.field, columns, self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack: row mismatch")
        return Matrix._normalized(self.field, tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
                                  self.cols + other.cols)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return self.field.normal([sum(map(mul, row, vec)) for row in self.entries])

    def _compat(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _subtract(row: dict, coef, tail, p: int) -> None:
    """row -= coef * (pivot row) over the pivot row's nonzeros `tail`
    (its pivot column excluded; the caller has removed it from row)."""
    if p:
        for j, x in tail:
            y = (row.get(j, 0) - coef * x) % p
            if y:
                row[j] = y
            else:
                del row[j]
    else:
        for j, x in tail:
            y = row.get(j, 0) - coef * x
            if y:
                row[j] = y
            else:
                del row[j]


def _cross(row: dict, a: int, pv: int, tail) -> None:
    """Clear the entry a (already popped from row) of an integer row with an
    integer pivot row of pivot pv and nonzeros `tail` off the pivot column:
    row <- (pv/g) row - (a/g) pivot row, with g = gcd(a, pv) signed so that
    pv/g > 0, then divide the row by its content.  A row left with one
    nonzero becomes a unit row."""
    if pv == 1:
        t = a
    elif pv == -1:
        t = -a
    else:
        g = gcd(a, pv)
        if pv < 0:
            g = -g
        s, t = pv // g, a // g
        if s != 1:
            for j in row:
                row[j] *= s
    _subtract(row, t, tail, 0)
    if len(row) > 1:
        g = gcd(*row.values())
        if g != 1:
            for j in row:
                row[j] //= g
    elif row:
        for j in row:
            row[j] = 1


def _primitive(row: dict) -> dict:
    """Scale a sparse row {column: nonzero rational}, in place, to a
    primitive integer row: times the lcm of the denominators, divided by the
    gcd of the numerators.  One nonzero gives a unit row."""
    if len(row) < 2:
        for j in row:
            row[j] = 1
        return row
    den = 1
    for x in row.values():
        if type(x) is not int:
            den = lcm(den, x.denominator)
    if den != 1:
        for j, x in row.items():
            row[j] = x.numerator * (den // x.denominator)
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _integral(vec) -> tuple:
    """A vector of rationals times the lcm of its denominators: ints, on the same line."""
    den = lcm(*(x.denominator for x in vec if type(x) is not int))
    return vec if den == 1 else tuple([x.numerator * (den // x.denominator) for x in vec])


def echelon_rows(field: Field, rows) -> list:
    """Forward elimination of sparse rows {column: nonzero normal scalar}:
    (pivot column, row) pairs in increasing pivot order, one per unit of
    rank.  The rows given are copied, not changed.

    Each row is a dict with zeros below every earlier pivot; a pivot is
    found with `c in row`, and an update touches only the pivot row's
    nonzeros.  Over F_p the entries are ints reduced inline mod p and each
    pivot row is scaled to pivot 1.  Over Q every row is a primitive integer
    row (`_primitive`) and stays one: rows are cleared by
    cross-multiplication (`_cross`), and no Fraction is built.  The pivot
    row is one with pivot +-1 over Q if there is one, then the one with the
    fewest nonzeros.
    """
    p = field.characteristic
    pending = [dict(row) if p else _primitive(dict(row)) for row in rows if row]
    done = []
    for c in sorted({j for row in pending for j in row}):
        if not pending:
            break
        candidates = [row for row in pending if c in row]
        if not candidates:
            continue
        if p:
            src = min(candidates, key=len)
            pv = src[c]
            if pv == 1:
                prow = src
            else:
                inv = pow(pv, -1, p)
                prow = {j: x * inv % p for j, x in src.items()}
            tail = [(j, x) for j, x in prow.items() if j != c]
            for row in candidates:
                if row is not src:
                    _subtract(row, row.pop(c), tail, p)
        else:
            pool = [row for row in candidates if row[c] in (1, -1)] or candidates
            src = prow = min(pool, key=len)
            pv = src[c]
            tail = [(j, x) for j, x in src.items() if j != c]
            for row in candidates:
                if row is not src:
                    _cross(row, row.pop(c), pv, tail)
        pending = [row for row in pending if row and row is not src]
        done.append((c, prow))
    return done


def _echelon(m: Matrix) -> list:
    """`echelon_rows` of the nonzeros of a matrix's rows."""
    return echelon_rows(m.field, [{j: x for j, x in enumerate(row) if x} for row in m.entries])


def _rref(m: Matrix):
    """Reduced row echelon form: (the nonzero rows as lists, their pivot columns).

    The forward phase is `_echelon`; back substitution then clears the
    entries above each pivot, last pivot first, so each pivot row used is
    final, with the same row operations as the forward phase.  Over Q the
    rows stay integral up to here, and the output divides each entry by its
    row's pivot: an int where the pivot divides the entry, else a Fraction.
    The unique reduced echelon form comes out whichever pivot rows were
    chosen.
    """
    f = m.field
    p = f.characteristic
    done = _echelon(m)
    for k in range(len(done) - 1, 0, -1):
        c, prow = done[k]
        pv = prow[c]
        tail = [(j, x) for j, x in prow.items() if j != c]
        for _, row in done[:k]:
            if c in row:
                if p:
                    _subtract(row, row.pop(c), tail, p)
                else:
                    _cross(row, row.pop(c), pv, tail)
    out = []
    for c, row in done:
        dense = [f.zero] * m.cols
        if p:
            for j, x in row.items():
                dense[j] = x
        else:
            pv = row[c]
            if pv == 1:
                for j, x in row.items():
                    dense[j] = x
            else:
                for j, x in row.items():
                    dense[j] = x // pv if x % pv == 0 else Fraction(x, pv)
        out.append(dense)
    return out, [c for c, _ in done]


def rank(m: Matrix) -> int:
    """Exact rank: the forward phase alone."""
    return len(_echelon(m))


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    f = m.field
    aug = m.hstack(Matrix.identity(f, m.rows))
    a, pivots = _rref(aug)
    if pivots != list(range(m.rows)):
        return None
    return Matrix._normalized(f, tuple(tuple(row[m.rows:]) for row in a), m.rows)


class Kernel:
    """Canonical model of ker(m) inside V = field^cols(m), from one elimination.

    `basis` has one vector per non-pivot column c of the reduced echelon
    form: entry 1 at c, 0 at the other non-pivot columns, the pivot entries
    read off the echelon form.  The coordinates of a kernel vector are
    therefore its entries at the non-pivot columns; `coordinates` checks the
    vector against the combination of `basis` they give.
    """

    __slots__ = ("field", "ambient_dim", "dim", "basis", "_free")

    def __init__(self, m: Matrix):
        f = m.field
        a, pivots = _rref(m)
        pivot_set = set(pivots)
        self.field = f
        self.ambient_dim = m.cols
        self._free = [c for c in range(m.cols) if c not in pivot_set]
        self.basis = []
        for c in self._free:
            v = [f.zero] * m.cols
            v[c] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(a[r][c])
            self.basis.append(tuple(v))
        self.dim = len(self.basis)

    @classmethod
    def whole(cls, field: Field, n: int) -> "Kernel":
        """field^n, as `Kernel` of a matrix with no row gives it, with no elimination."""
        k = cls.__new__(cls)
        k.field, k.ambient_dim, k.dim, k._free = field, n, n, range(n)
        k.basis = [tuple(field.one if i == c else field.zero for i in range(n)) for c in k._free]
        return k

    def coordinates(self, vec) -> tuple:
        """Coordinates in `basis` of a kernel vector of normal scalars;
        ValueError for a vector outside the kernel."""
        if len(vec) == self.ambient_dim:
            coords = tuple(vec[c] for c in self._free)
            span = [0] * self.ambient_dim
            for c, b in zip(coords, self.basis):
                if c:
                    for i, x in enumerate(b):
                        if x:
                            span[i] += c * x
            if self.field.normal(span) == tuple(vec):
                return coords
        raise ValueError("vector is not in the kernel")


class Quotient:
    """Canonical model of V / im(m) for V = field^rows(m), from one elimination.

    The rows of `projection` are the canonical basis of the left kernel of m
    (`Kernel` of the transpose), so projection * m = 0 and `coordinates(v)`
    is projection v.  Row j is 1 at its own non-pivot column c_j and 0 at
    the other non-pivot columns, so `basis[j]`, the unit vector at c_j,
    represents class j.
    """

    __slots__ = ("field", "ambient_dim", "dim", "basis", "_projection")

    def __init__(self, m: Matrix):
        f = self.field = m.field
        n = self.ambient_dim = m.rows
        left = Kernel(m.transpose())
        self.dim = left.dim
        self._projection = Matrix._normalized(f, tuple(left.basis), n)
        self.basis = [tuple(f.one if i == c else f.zero for i in range(n)) for c in left._free]

    @classmethod
    def whole(cls, field: Field, n: int) -> "Quotient":
        """field^n / 0, as `Quotient` of a matrix with no column gives it, with no elimination."""
        q = cls.__new__(cls)
        q.field, q.ambient_dim, q.dim, q._projection = field, n, n, None
        q.basis = Kernel.whole(field, n).basis
        return q

    @property
    def projection(self) -> Matrix:
        p = self._projection
        return Matrix.identity(self.field, self.ambient_dim) if p is None else p

    def coordinates(self, vec) -> tuple:
        if self._projection is None and len(vec) == self.dim:
            return tuple(vec)
        return self.projection.apply(vec)
