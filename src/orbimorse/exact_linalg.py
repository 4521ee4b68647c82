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
stored result lives exactly as long as that matrix.  One sparse
elimination gives both: homology reads only the invariant factors, and
U, D and V come from the same loop, run again with its operations
recorded, on the first read of any of them.  Homology of a pair
eliminates the map out of the middle group first, and the map into it
without the rows that elimination has already decided (clearing, as in
Chen & Kerber, "Persistent homology computation with a twist", 2011):
see ``homology_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import gcd
from operator import itemgetter

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


def _require_ints(values, what="entry"):
    """Raise ``DimensionMismatch`` at the first value that is not an int;
    a bool is not taken for one."""
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise DimensionMismatch(f"non-integer {what} {x!r}")


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
        ``{col: value}`` whose keys are ints (not bools); zero values give
        no entry, and a nonzero one outside ``range(cols)`` raises."""
        _require_ints([*chain.from_iterable(row_dicts)], "column")
        matrix = cls._from_pairs(cols, [d.items() for d in row_dicts])
        for pairs in matrix.nonzeros:
            # sorted, so the first and last columns bound the row's
            if pairs and (pairs[0][0] < 0 or pairs[-1][0] >= cols):
                raise DimensionMismatch(f"an entry lies outside range({cols})")
        return matrix

    @classmethod
    def _from_pairs(cls, cols, pair_rows):
        """Matrix whose row i has the ``(col, value)`` pairs
        ``pair_rows[i]``, in any order.  Zero values give no entry, each
        row is sorted once, and a value that is not an int raises.  The
        columns are not checked: the caller's must be ints in
        ``range(cols)``, distinct within a row."""
        values = [*map(itemgetter(1), chain.from_iterable(pair_rows))]
        _require_ints(values)
        if 0 in values:
            pair_rows = [[(j, x) for j, x in row if x] for row in pair_rows]
        return cls._of(len(pair_rows), cols,
                       tuple(map(tuple, map(sorted, pair_rows))))

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, the nonzero
    diagonal entries positive and forming a divisibility chain.

    Holds the shape and nonzeros of A, not A itself, which stores this
    object (``_decompose``).  ``invariant_factors`` and ``cleared``, the
    columns of A's pivots taken before the elimination's first restart in
    a row (``_factors_only``), come from the elimination that made it; a
    matrix B with A @ B == 0 has the same invariant factors without those
    rows (``homology_at``).  Only A takes part in ``==`` and the hash:
    ``cleared`` also depends on the rows that elimination left out.  The
    first read of U, D or V runs the same sparse elimination again on all
    of A, recording its operations, and stores all three.
    """

    rows: int
    cols: int
    nonzeros: tuple = field(repr=False)
    invariant_factors: tuple = field(compare=False)
    cleared: tuple = field(compare=False, repr=False)

    @cached_property
    def _transforms(self):
        return _factors_only(self.rows, self.cols, self.nonzeros,
                             transforms=True)

    @property
    def U(self):
        return self._transforms[0]

    @property
    def D(self):
        return self._transforms[1]

    @property
    def V(self):
        return self._transforms[2]


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

    The invariant factors come from a sparse elimination
    (``_factors_only``); U, D and V come from the same elimination, run
    with its operations recorded on the first read of any of them.  The
    factors are canonical; U and V are not, but the same matrix always
    gives the same ones.  The decomposition is stored on ``matrix``
    (immutable, so it cannot go stale) and returned as is by later calls
    on the same matrix (``_decompose``).
    """
    return _decompose(matrix)


def _decompose(matrix, zero_rows=()):
    """The decomposition stored on ``matrix``; when there is none, one is
    made, its invariant factors found without the rows ``zero_rows``, and
    stored.  Only ``homology_at`` passes rows: ones it has shown to be zero
    after a unimodular change of basis.  Leaving out any other row gives
    wrong factors, so ``smith_normal_form`` takes no such argument."""
    stored = matrix.__dict__.get("_smith")
    if stored is None:
        cleared = []
        stored = SmithDecomposition(
            matrix.rows, matrix.cols, matrix.nonzeros,
            _factors_only(matrix.rows, matrix.cols, matrix.nonzeros,
                          zero_rows=frozenset(zero_rows), cleared=cleared),
            tuple(cleared))
        object.__setattr__(matrix, "_smith", stored)
    return stored


def _factors_only(rows, cols, nonzeros, transforms=False,
                  zero_rows=frozenset(), cleared=None):
    """Invariant factors of the ``rows`` x ``cols`` matrix whose row i has
    the ``(col, value)`` pairs ``nonzeros[i]`` (``IntegerMatrix.nonzeros``),
    by sparse elimination; with ``transforms`` set, its U, D and V instead
    (``SmithDecomposition``).

    Rows are copied into dicts ``{col: value}``, so the caller's rows are
    never changed, and ``where[col]`` holds the rows with a nonzero there.
    The first remaining row pivots on its least |entry|, ties going to the
    sparsest column, so a row with a unit takes the unit whose column is
    sparsest (a unit pivot is an algebraic Morse pair).  Euclid's
    algorithm then isolates the pivot p: row operations leave every other
    entry of its column a remainder mod p, and if one is nonzero the
    least of them becomes the pivot; once p is alone in its column,
    column operations, which touch its row only, leave every other entry
    of its row a remainder mod p, and the least nonzero one becomes the
    pivot.  Each restart is at a smaller |p|, and a pivot alone in its row
    and column is recorded.  The pivots, units first, are then put into a
    divisibility chain by (gcd, lcm) passes, unless they already form one.

    Rows in ``zero_rows`` are left out.  ``homology_at`` passes the rows
    it has shown to be zero after a unimodular change of basis; leaving
    out any other row gives wrong factors.  When ``cleared`` is a list,
    the column of each pivot is appended to it until the first restart in
    a row.  A restart in a column is a row operation and leaves the basis
    of the columns alone.  A restart in a row does not: in the basis its
    column operations make, the next map's row at p's column is a
    combination of that map's rows that need not be zero, so from there
    on the next map in the new basis is no longer its input with some
    rows made zero, and no later pivot is recorded.

    Recording keeps U and the transpose of V as one row dict per row:
    each row operation is done on U's rows, each column operation on
    Vt's.  The pivots are then moved onto the diagonal with their signs
    moved into U, and each (gcd, lcm) pass on diagonal entries a and b
    with x*a + y*b = g is the Bezout transform
    [[x, y], [-b/g, a/g]] @ diag(a, b) @ [[1, -y*b/g], [1, x*a/g]]
    = diag(g, a*b/g).
    """
    a = {i: dict(pairs) for i, pairs in enumerate(nonzeros)
         if pairs and i not in zero_rows}
    where = [set() for _ in range(cols)]
    for i, row in a.items():
        for j in row:
            where[j].add(i)
    if transforms:
        u = [{i: 1} for i in range(rows)]
        vt = [{j: 1} for j in range(cols)]
        pivots = []
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
                if transforms:
                    u[r] = _combine(1, u[r], -k, u[i])
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
                if transforms:
                    for c, x in row.items():
                        if c != j and x // p:
                            vt[c] = _combine(1, vt[c], -(x // p), vt[j])
                row = {c: x % p for c, x in row.items() if x % p}
                if not row:
                    diagonal.append(abs(p))
                    if transforms:
                        pivots.append((i, j, p))
                    if cleared is not None:
                        cleared.append(j)
                    break
                row[j] = p
                # a restart in the row: record no later pivot
                cleared = None
            # a remainder is left in p's column or row: pivot on the least
            a[i] = row
            for c in row:
                where[c].add(i)
            if len(where[j]) > 1:
                i = min(where[j], key=lambda r: abs(a[r][j]))
            else:
                j = least(row)

    # units need no pass: they head the chain as they are
    units = diagonal.count(1)
    diagonal = [1] * units + [p for p in diagonal if p != 1]
    if transforms:
        # pivot (i, j, p) moves to row and column t of the diagonal, its
        # sign into U; the rows and columns of no pivot, all zero, follow
        pivots.sort(key=lambda pivot: abs(pivot[2]) != 1)
        done = {i for i, _, _ in pivots}
        u = [u[i] if p > 0 else _combine(-1, u[i], 0, {})
             for i, _, p in pivots] + [
                 u[i] for i in range(rows) if i not in done]
        done = {j for _, j, _ in pivots}
        vt = [vt[j] for _, j, _ in pivots] + [
            vt[j] for j in range(cols) if j not in done]
    # pivots that already divide one another in order need no pass: there
    # every pair it visits has g == d
    if any(e % d for d, e in zip(diagonal[units:], diagonal[units + 1:])):
        for s in range(units, len(diagonal)):
            for t in range(s + 1, len(diagonal)):
                d, e = diagonal[s], diagonal[t]
                g = gcd(d, e)
                if g == d:
                    continue
                if transforms:
                    # x*d + y*e = g
                    dg, eg = d // g, e // g
                    x = pow(dg, -1, eg)
                    y = (1 - x * dg) // eg
                    u[s], u[t] = (_combine(x, u[s], y, u[t]),
                                  _combine(-eg, u[s], dg, u[t]))
                    vt[s], vt[t] = (_combine(1, vt[s], 1, vt[t]),
                                    _combine(-y * eg, vt[s], x * dg, vt[t]))
                diagonal[s], diagonal[t] = g, d // g * e
    if not transforms:
        return tuple(diagonal)
    v = [{} for _ in range(cols)]
    for c, column in enumerate(vt):
        for r, x in column.items():
            v[r][c] = x
    return (IntegerMatrix._of(rows, rows, tuple(map(_pairs, u))),
            IntegerMatrix._of(rows, cols, tuple(
                ((t, diagonal[t]),) if t < len(diagonal) else ()
                for t in range(rows))),
            IntegerMatrix._of(cols, cols, tuple(map(_pairs, v))))


def _combine(k, row, m, other):
    """The row dict ``k * row + m * other``; zeros may stay in it."""
    out = {c: k * x for c, x in row.items()}
    for c, x in other.items():
        out[c] = out.get(c, 0) + m * x
    return out


def rank(matrix):
    """Rank over the rationals (= number of nonzero invariant factors)."""
    return len(smith_normal_form(matrix).invariant_factors)


def composition(boundary_out, boundary_in):
    """``boundary_out @ boundary_in``.  When it is zero, it is recorded
    on ``boundary_out`` (immutable, so it cannot go stale), and a later
    call on the pair returns it without forming the product again.  Only
    this function and ``_conjugate``, which carries a record over to a
    scaled pair, write the record."""
    seen = boundary_out.__dict__.get("_zero_after", ())
    for into, product in seen:
        if into is boundary_in:
            return product
    product = boundary_out @ boundary_in
    if product.is_zero():
        object.__setattr__(boundary_out, "_zero_after",
                           seen + ((boundary_in, product),))
    return product


def _conjugate(boundaries, scales):
    """The chain S ∂ S⁻¹ of the chain ``boundaries``, S diagonal.

    ``boundaries[k]`` maps degree k to degree k - 1, ``boundaries[0]``
    has no rows, and ``scales[k]`` holds the scale of each generator in
    degree k, as in a ``FreeChainComplex``.  The entry x at row i and
    column j of ``boundaries[k]`` becomes x * scales[k - 1][i] //
    scales[k][j].  The caller makes every such quotient exact and
    nonzero; for a Morse datum, ``validate``'s divisibility rule does.
    Each pair of ``boundaries`` that ``composition`` has recorded as
    composing to zero is recorded for the scaled pair too, with the same
    zero product, since (S ∂ S⁻¹)(S ∂' S⁻¹) = S ∂∂' S⁻¹: the scaled chain
    is verified without forming a product.
    """
    conjugates = []
    lower = ()
    for matrix, upper in zip(boundaries, scales):
        conjugates.append(IntegerMatrix._of(matrix.rows, matrix.cols, tuple(
            tuple((j, x * s // upper[j]) for j, x in pairs)
            for pairs, s in zip(matrix.nonzeros, lower))))
        lower = upper
    for k in range(1, len(boundaries)):
        for into, product in boundaries[k - 1].__dict__.get("_zero_after", ()):
            if into is boundaries[k]:
                object.__setattr__(conjugates[k - 1], "_zero_after",
                                   ((conjugates[k], product),))
    return conjugates


def homology_at(boundary_out, boundary_in, degree=0):
    """Homology ker(boundary_out) / im(boundary_in) over the integers.

    ``boundary_out`` maps the middle group down; ``boundary_in`` maps into
    it, so ``boundary_in.rows`` must equal ``boundary_out.cols`` and the
    composition must vanish.  It is checked through ``composition``, so
    the product is formed here unless it is empty or already found zero.

    Clearing, as in persistent-homology codes: ``boundary_out`` is
    eliminated first, and unless ``boundary_in`` already has a stored
    decomposition, its elimination leaves out the rows listed in
    ``cleared`` of ``boundary_out``'s.  Each is the column j of a pivot p
    that elimination took before its first restart in a row
    (``_factors_only``): every other entry of p's row r is a multiple of
    p, and column j is zero outside row r.  The column operations that
    clear row r add multiples of column j to the others.  As a change of
    basis of the middle group they change only row j of ``boundary_in``,
    which becomes (1/p) (row r) @ ``boundary_in``, zero because the
    composition is; row operations change only the lower group's basis.
    So ``boundary_in`` without those rows has the same invariant factors.
    The argument uses only that the composition vanishes, so it holds too
    when ``boundary_out``'s own elimination left out rows the same way.
    U, D and V are always computed from all of a matrix.
    """
    if boundary_in.rows != boundary_out.cols:
        raise DimensionMismatch(
            f"boundary_in has {boundary_in.rows} rows but boundary_out has"
            f" {boundary_out.cols} columns")
    if (boundary_out.rows and boundary_in.cols
            and not composition(boundary_out, boundary_in).is_zero()):
        raise NotAComplex("boundary_out @ boundary_in is nonzero")
    rank_out = rank(boundary_out)
    _decompose(boundary_in, _decompose(boundary_out).cleared)
    # factors are read through smith_normal_form, as rank reads
    # boundary_out's: the benchmark's snf_per_boundary counts its calls
    snf_in = smith_normal_form(boundary_in)
    rank_in = len(snf_in.invariant_factors)
    betti = boundary_out.cols - rank_out - rank_in
    torsion = tuple(d for d in snf_in.invariant_factors if d > 1)
    return HomologyGroup(degree=degree, betti=betti, torsion=torsion)
