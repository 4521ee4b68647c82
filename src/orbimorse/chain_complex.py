"""Graded free chain complexes over the integers with labeled generators."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAComplex, ShapeMismatch
from .exact_linalg import (HomologyGroup, IntegerMatrix, composition,
                           homology_at)

__all__ = [
    "FreeChainComplex",
    "ComplexVerdict",
    "BoundaryWitness",
    "HomologyGroup",
    "verify_complex",
    "homology",
    "euler_characteristic",
]


@dataclass(frozen=True)
class BoundaryWitness:
    """A nonzero entry of a composed boundary, naming the upper degree."""

    degree: int
    row: int
    col: int
    value: int


@dataclass(frozen=True)
class ComplexVerdict:
    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class FreeChainComplex:
    """Free Z-complex on a contiguous degree range.

    ``generators[k]`` lists the labels in degree ``min_degree + k`` and
    ``boundaries[k]`` is the matrix of the boundary map out of that degree,
    with rows indexed by the generators one degree down.  The boundary out
    of the bottom degree maps to the zero module and therefore has zero
    rows.  The degree range is explicit, never inferred, and degrees with
    no generators are allowed.
    """

    min_degree: int
    generators: tuple
    boundaries: tuple

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if len(self.boundaries) != len(gens):
            raise ShapeMismatch(
                f"{len(gens)} degrees but {len(self.boundaries)} boundary maps")
        for k, labels in enumerate(gens):
            if len(set(labels)) != len(labels):
                raise ShapeMismatch(f"duplicate generator label in degree "
                                    f"{self.min_degree + k}")
            b = self.boundaries[k]
            if b.cols != len(labels):
                raise ShapeMismatch(
                    f"boundary out of degree {self.min_degree + k} has "
                    f"{b.cols} columns for {len(labels)} generators")
            expected_rows = len(gens[k - 1]) if k > 0 else 0
            if b.rows != expected_rows:
                raise ShapeMismatch(
                    f"boundary out of degree {self.min_degree + k} has "
                    f"{b.rows} rows, expected {expected_rows}")

    @classmethod
    def from_incidences(cls, generators, incidences):
        """Complex from degree 0 with ``generators[k]`` the labels in degree
        k.  Each incidence ``(degree, source, target, value)`` puts ``value``
        at the row of ``target`` one degree down and the column of
        ``source``; every other entry is zero, and when an incidence
        repeats the last one wins.  Labels need only be unique within their
        degree.  Each boundary is filled row by row with its nonzeros only
        (``IntegerMatrix.from_row_dicts``)."""
        gens = [tuple(labels) for labels in generators]
        where = [{label: i for i, label in enumerate(labels)} for labels in gens]
        rows = [[]] + [[{} for _ in labels] for labels in gens[:-1]]
        for degree, source, target, value in incidences:
            if not (0 < degree < len(gens) and source in where[degree]
                    and target in where[degree - 1]):
                raise ShapeMismatch(
                    f"incidence {source!r} -> {target!r} out of degree "
                    f"{degree} does not join two generators")
            rows[degree][where[degree - 1][target]][where[degree][source]] = value
        return cls(0, gens, [IntegerMatrix.from_row_dicts(len(labels), dicts)
                             for labels, dicts in zip(gens, rows)])

    def boundary(self, degree):
        """Matrix of the boundary map out of ``degree``."""
        k = degree - self.min_degree
        if not 0 <= k < len(self.boundaries):
            raise ShapeMismatch(
                f"no boundary out of degree {degree}: the complex spans "
                f"degrees {self.min_degree} to "
                f"{self.min_degree + len(self.boundaries) - 1}")
        return self.boundaries[k]


def verify_complex(complex_):
    """Check that consecutive boundary maps compose to zero.

    Returns a verdict; on failure the witnesses name the upper degree and
    the first nonzero entry of the composition in row-major order.  Each
    pair found to compose to zero is recorded (``composition``), so a
    complex that passes forms its products once however often it is
    verified, and ``homology`` does not form them again.
    """
    failures = []
    for k in range(1, len(complex_.generators)):
        product = composition(complex_.boundaries[k - 1],
                              complex_.boundaries[k])
        if not product.is_zero():
            row = next(i for i, pairs in enumerate(product.nonzeros) if pairs)
            col, value = product.nonzeros[row][0]
            failures.append(BoundaryWitness(
                degree=complex_.min_degree + k, row=row, col=col,
                value=value))
    return ComplexVerdict(ok=not failures, failures=tuple(failures))


def homology(complex_):
    """Homology groups in every degree of the complex, bottom degree first."""
    verdict = verify_complex(complex_)
    if not verdict:
        bad = ", ".join(str(w.degree) for w in verdict.failures)
        raise NotAComplex(f"boundary squared is nonzero at degree {bad}")
    groups = []
    count = len(complex_.generators)
    for k in range(count):
        out = complex_.boundaries[k]
        if k + 1 < count:
            into = complex_.boundaries[k + 1]
        else:
            into = IntegerMatrix.zeros(len(complex_.generators[k]), 0)
        groups.append(homology_at(out, into, degree=complex_.min_degree + k))
    return tuple(groups)


def euler_characteristic(complex_):
    """Alternating sum of generator counts over the degree range."""
    total = 0
    for k, labels in enumerate(complex_.generators):
        degree = complex_.min_degree + k
        total += (-1) ** (degree % 2) * len(labels)
    return total
