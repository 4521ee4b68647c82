"""Exact integer matrices, Smith normal form, and homology of a pair of
boundary maps.

Everything here runs on Python's arbitrary-precision integers: invariant
factors blow up quickly during reduction, so fixed-width arithmetic is not
an option.  Matrices are immutable and store only their nonzeros, row by
row; products, zero tests and the factors-only elimination read those
rows, and dense values are computed only when a caller asks for them.
All functions are pure.  A matrix's Smith decomposition is computed once
and stored on the matrix it came from, so later calls on the same matrix
(``rank`` and ``smith_normal_form`` of one boundary map) reuse it; the
stored result lives exactly as long as that matrix.  Homology reads only
invariant factors, which are canonical, so they come from a sparse
elimination that pivots wherever it likes; the documented pivot rule
governs only U, D and V, computed on first read from the dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd

from .errors import DimensionMismatch, NotAComplex

__all__ = [
    "IntegerMatrix",
    "SmithDecomposition",
    "HomologyGroup",
    "smith_normal_form",
    "rank",
    "composition",
    "homology_at",
]


def _require_ints(values):
    """Raise ``DimensionMismatch`` at the first value that is not an int;
    a bool is not taken for one."""
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise DimensionMismatch(f"non-integer entry {x!r}")


def _pairs(row):
    """The nonzero items of a row dict ``{col: value}``, columns increasing."""
    if 0 in row.values():
        row = {j: x for j, x in row.items() if x}
    return tuple(sorted(row.items()))


@dataclass(frozen=True, init=False)
class IntegerMatrix:
    """A rows x cols matrix of Python ints stored as its nonzeros.

    ``nonzeros[i]`` is row i as a tuple of ``(col, value)`` pairs, columns
    increasing and every value nonzero, so equal matrices have equal
    fields however they were built.  Dense values (``entries``, ``row``,
    ``to_rows``, indexing) are computed only when read.  Empty matrices
    (zero rows or zero columns) are legal and represent zero maps, which
    occur at the top and bottom degrees of a complex.
    """

    rows: int
    cols: int
    nonzeros: tuple

    def __init__(self, rows, cols, entries=()):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols}"
                f" entries, got {len(entries)}")
        _require_ints(entries)
        self.__dict__.update(rows=rows, cols=cols, nonzeros=tuple(
            tuple((j, x) for j, x in enumerate(entries[i * cols:(i + 1) * cols])
                  if x) for i in range(rows)))

    @classmethod
    def _of(cls, rows, cols, nonzeros):
        """Matrix with these rows of pairs, taken as they are."""
        matrix = cls.__new__(cls)
        matrix.__dict__.update(rows=rows, cols=cols, nonzeros=nonzeros)
        return matrix

    @classmethod
    def from_rows(cls, rows_data):
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        if any(len(r) != cols for r in rows_data):
            raise DimensionMismatch("ragged row lengths")
        return cls(rows, cols, tuple(chain.from_iterable(rows_data)))

    @classmethod
    def from_row_dicts(cls, cols, row_dicts):
        """Matrix whose row i holds the values of ``row_dicts[i]``, a dict
        ``{col: value}``; zero values give no entry."""
        _require_ints([x for d in row_dicts for x in d.values()])
        return cls._of(len(row_dicts), cols, tuple(map(_pairs, row_dicts)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, tuple(((i, 1),) for i in range(n)))

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return dict(self.nonzeros[i]).get(j, 0)

    def row(self, i):
        dense = dict(self.nonzeros[i])
        return tuple(dense.get(j, 0) for j in range(self.cols))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self):
        """Row-major dense values, computed on each read."""
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # Row i of the product adds x * y at column j for each nonzero
        # x = self[i, k] and y = other[k, j].
        right = other.nonzeros
        out = []
        for pairs in self.nonzeros:
            acc = {}
            for k, x in pairs:
                for j, y in right[k]:
                    acc[j] = acc.get(j, 0) + x * y
            out.append(_pairs(acc))
        return IntegerMatrix._of(self.rows, other.cols, tuple(out))

    def is_zero(self):
        return not any(self.nonzeros)

    def diagonal(self):
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def determinant(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, the nonzero
    diagonal entries positive and forming a divisibility chain.

    Holds the shape and nonzeros of A, not A itself, which stores this
    object.  ``invariant_factors`` is computed when the decomposition is
    made.  U, D and V follow the pivot rule of ``smith_normal_form``; the
    first read of any of them runs that elimination and stores all three.
    """

    rows: int
    cols: int
    nonzeros: tuple = field(repr=False)
    invariant_factors: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", _factors_only(
            self.rows, self.cols, self.nonzeros))

    def _transforms(self):
        stored = self.__dict__.get("_udv")
        if stored is None:
            stored = _eliminate(IntegerMatrix._of(self.rows, self.cols,
                                                  self.nonzeros))
            object.__setattr__(self, "_udv", stored)
        return stored

    @property
    def U(self):
        return self._transforms()[0]

    @property
    def D(self):
        return self._transforms()[1]

    @property
    def V(self):
        return self._transforms()[2]

    def __eq__(self, other):
        if not isinstance(other, SmithDecomposition):
            return NotImplemented
        return (self.invariant_factors == other.invariant_factors
                and self._transforms() == other._transforms())

    def __hash__(self):
        return hash((self.rows, self.cols, self.invariant_factors))


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group Z^betti + sum of Z/t cyclic parts.

    The torsion list keeps only invariant factors > 1, each dividing the
    next.
    """

    degree: int
    betti: int
    torsion: tuple = ()

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def describe(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row/column operations.

    The invariant factors are canonical, so they come from a sparse
    elimination free to pivot anywhere (``_factors_only``).  U, D and V
    are computed on first read under a fixed pivot rule: smallest nonzero
    absolute value in the remaining block, ties broken by row-major
    position.  This keeps entry growth moderate and makes them
    deterministic.  The decomposition is stored on ``matrix`` (immutable,
    so it cannot go stale) and returned as is by later calls on the same
    matrix.
    """
    stored = matrix.__dict__.get("_smith")
    if stored is None:
        stored = SmithDecomposition(matrix.rows, matrix.cols, matrix.nonzeros)
        object.__setattr__(matrix, "_smith", stored)
    return stored


def _factors_only(rows, cols, nonzeros):
    """Invariant factors of the ``rows`` x ``cols`` matrix whose row i has
    the ``(col, value)`` pairs ``nonzeros[i]`` (``IntegerMatrix.nonzeros``),
    by sparse elimination without transforms.

    Rows are copied into dicts ``{col: value}``, so the caller's rows are
    never changed, and ``where[col]`` holds the rows with a nonzero there.
    The first remaining row pivots on its least |entry|, ties going to the
    sparsest column, so a row with a unit takes the unit whose column is
    sparsest (a unit pivot is an algebraic Morse pair).  Euclid's algorithm then isolates the pivot p: row operations
    leave every other entry of its column a remainder mod p, and if one
    is nonzero the least of them becomes the pivot; once p is alone in
    its column, column operations, which touch its row only, leave every
    other entry of its row a remainder mod p, and the least nonzero one
    becomes the pivot.  Each restart is at a smaller |p|, and a pivot
    alone in its row and column is recorded as |p|.  The recorded
    diagonal is then put into a divisibility chain by (gcd, lcm) passes.
    """
    a = {i: dict(pairs) for i, pairs in enumerate(nonzeros) if pairs}
    where = [set() for _ in range(cols)]
    for i, row in a.items():
        for j in row:
            where[j].add(i)
    diagonal = []

    def least(row):
        return min(row, key=lambda j: (abs(row[j]), len(where[j])))

    while a:
        i = next(iter(a))
        j = least(a[i])
        while True:
            row = a.pop(i)
            for c in row:
                where[c].discard(i)
            p = row[j]
            for r in list(where[j]):
                target = a[r]
                k = target[j] // p
                if not k:
                    continue
                for c, x in row.items():
                    y = target.get(c, 0) - k * x
                    if y:
                        if c not in target:
                            where[c].add(r)
                        target[c] = y
                    else:
                        del target[c]
                        where[c].discard(r)
                if not target:
                    del a[r]
            if not where[j]:
                row = {c: x % p for c, x in row.items() if x % p}
                if not row:
                    diagonal.append(abs(p))
                    break
                row[j] = p
            # a remainder is left in p's column or row: pivot on the least
            a[i] = row
            for c in row:
                where[c].add(i)
            if len(where[j]) > 1:
                i = min(where[j], key=lambda r: abs(a[r][j]))
            else:
                j = least(row)

    # units need no pass: they head the chain as they are
    others = [p for p in diagonal if p != 1]
    for s in range(len(others)):
        for t in range(s + 1, len(others)):
            d = gcd(others[s], others[t])
            others[s], others[t] = d, others[s] // d * others[t]
    return (1,) * (len(diagonal) - len(others)) + tuple(others)


def _eliminate(matrix):
    """The elimination behind U, D and V: returns them and the invariant
    factors, in that order."""
    m, n = matrix.rows, matrix.cols
    a = matrix.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    # V is kept transposed, so its column operations are row operations.
    vt = [[int(i == j) for j in range(n)] for i in range(n)]

    # Rows above the current pivot t are zero in every column >= t, and
    # column operations only touch columns >= t, so they skip those rows.
    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a[t:]:
                r[i], r[j] = r[j], r[i]
            vt[i], vt[j] = vt[j], vt[i]

    def add_row(dst, src, k):
        # row dst += k * row src, mirrored on U
        if k:
            a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        # col dst += k * col src, mirrored on V
        if k:
            for r in a[t:]:
                if r[src]:
                    r[dst] += k * r[src]
            vt[dst] = [x + k * y for x, y in zip(vt[dst], vt[src])]

    for t in range(min(m, n)):
        best = _pivot(a, t, m, n)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])

        while True:
            dirty = False
            # clear the column below the pivot
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        # remainder is strictly smaller: promote it
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear the row right of the pivot
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # cross is clear; force the pivot to divide the rest of the block
            offender = _first_not_divisible(a, t, m)
            if offender is None:
                break
            add_row(t, offender, 1)

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    d = IntegerMatrix.from_rows(a) if m else IntegerMatrix.zeros(0, n)
    factors = tuple(a[i][i] for i in range(min(m, n)) if a[i][i] != 0)
    return (IntegerMatrix.from_rows(u) if m else IntegerMatrix.zeros(0, 0),
            d,
            IntegerMatrix.from_rows(zip(*vt)) if n else IntegerMatrix.zeros(0, 0),
            factors)


def _pivot(a, t, m, n):
    """Position of the smallest nonzero absolute value in the block right
    of and below (t, t), first in row-major order; None if it is zero."""
    best = at = None
    for i in range(t, m):
        ai = a[i]
        for j in range(t, n):
            x = ai[j]
            if x and (best is None or abs(x) < best):
                best, at = abs(x), (i, j)
                if best == 1:       # no nonzero entry is smaller
                    return at
    return at


def _first_not_divisible(a, t, m):
    """First row below t with an entry right of t that the pivot a[t][t]
    does not divide, or None."""
    p = a[t][t]
    if abs(p) == 1:
        return None
    for i in range(t + 1, m):
        # p divides every entry of the row iff it divides their gcd
        if gcd(*a[i][t + 1:]) % p:
            return i
    return None


def rank(matrix):
    """Rank over the rationals (= number of nonzero invariant factors)."""
    return len(smith_normal_form(matrix).invariant_factors)


def composition(boundary_out, boundary_in):
    """``boundary_out @ boundary_in``.  When it is zero, that is recorded
    on ``boundary_out`` (immutable, so it cannot go stale), and
    ``homology_at`` of the pair does not form the product again."""
    product = boundary_out @ boundary_in
    if product.is_zero():
        seen = boundary_out.__dict__.get("_zero_after", ())
        object.__setattr__(boundary_out, "_zero_after", seen + (boundary_in,))
    return product


def homology_at(boundary_out, boundary_in, degree=0):
    """Homology ker(boundary_out) / im(boundary_in) over the integers.

    ``boundary_out`` maps the middle group down; ``boundary_in`` maps into
    it, so ``boundary_in.rows`` must equal ``boundary_out.cols`` and the
    composition must vanish.  The product is formed here unless it is
    empty or ``composition`` already found it zero.
    """
    if boundary_in.rows != boundary_out.cols:
        raise DimensionMismatch(
            f"boundary_in has {boundary_in.rows} rows but boundary_out has"
            f" {boundary_out.cols} columns")
    if (boundary_out.rows and boundary_in.cols
            and not any(m is boundary_in
                        for m in boundary_out.__dict__.get("_zero_after", ()))
            and not (boundary_out @ boundary_in).is_zero()):
        raise NotAComplex("boundary_out @ boundary_in is nonzero")
    snf_in = smith_normal_form(boundary_in)
    rank_in = len(snf_in.invariant_factors)
    betti = boundary_out.cols - rank(boundary_out) - rank_in
    torsion = tuple(d for d in snf_in.invariant_factors if d > 1)
    return HomologyGroup(degree=degree, betti=betti, torsion=torsion)
