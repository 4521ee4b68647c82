"""Integer simplicial homology of finite complexes.

This is the ground truth for the underlying topological space of the
worked examples: sphere boundaries, the six-vertex projective plane, the
seven-vertex torus, and a suspension operator.  Vertex labels are
normalized to strings; simplices are oriented by sorted vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chain_complex import FreeChainComplex, homology
from .errors import InvalidComplex
from .exact_linalg import IntegerMatrix

__all__ = [
    "SimplicialComplex",
    "simplicial_homology",
    "suspension",
    "compare_homology",
    "ComparisonReport",
    "boundary_of_simplex",
    "sphere_complex",
    "projective_plane",
    "torus_complex",
    "builtin_space",
    "builtin_space_names",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex given by its facets; the face
    closure is computed on demand."""

    vertices: tuple
    facets: tuple

    @classmethod
    def from_facets(cls, facets):
        normalized = []
        for facet in facets:
            labels = tuple(sorted(str(v) for v in facet))
            if not labels:
                raise InvalidComplex("empty facet")
            if len(set(labels)) != len(labels):
                raise InvalidComplex(f"facet {facet!r} repeats a vertex")
            normalized.append(labels)
        if len(set(normalized)) != len(normalized):
            raise InvalidComplex("facets are not distinct")
        if not normalized:
            raise InvalidComplex("a complex needs at least one facet")
        vertices = tuple(sorted({v for f in normalized for v in f}))
        bad = [v for v in vertices if "|" in v]
        if bad:  # chain_complex joins a simplex's labels with "|"
            raise InvalidComplex(f"vertex label {bad[0]!r} contains '|'")
        return cls(vertices=vertices, facets=tuple(sorted(normalized)))

    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    def _face_levels(self, ks):
        """For each k in ``ks``, all k-simplices as sorted vertex tuples,
        from one pass over the facets."""
        levels = {k: set() for k in ks}
        for facet in self.facets:
            for k, found in levels.items():
                if len(facet) >= k + 1:
                    found.update(combinations(facet, k + 1))
        return [sorted(levels[k]) for k in ks]

    def simplices(self, k):
        """All k-simplices, sorted; faces of facets, not just facets."""
        return self._face_levels([k])[0]

    def face_counts(self):
        return [len(level)
                for level in self._face_levels(range(self.dimension() + 1))]

    def chain_complex(self):
        """Simplicial chain complex: the k-simplex s has the incidence
        (-1)^d on the face that drops its d-th vertex.  Each face's row is
        found by its vertex tuple, and each label is joined once."""
        levels = self._face_levels(range(self.dimension() + 1))
        boundaries = [IntegerMatrix.zeros(0, len(levels[0]))]
        for k in range(1, len(levels)):
            row_of = {s: i for i, s in enumerate(levels[k - 1])}
            rows = [{} for _ in levels[k - 1]]
            for col, s in enumerate(levels[k]):
                for d in range(k + 1):
                    rows[row_of[s[:d] + s[d + 1:]]][col] = (-1) ** d
            boundaries.append(
                IntegerMatrix.from_row_dicts(len(levels[k]), rows))
        return FreeChainComplex(
            0, [["|".join(s) for s in level] for level in levels], boundaries)


def simplicial_homology(complex_):
    """Integer homology in degrees 0 through dim."""
    return homology(complex_.chain_complex())


def euler_characteristic_from_faces(complex_):
    """Alternating sum of the face counts, degree 0 first."""
    return sum((-1) ** k * n for k, n in enumerate(complex_.face_counts()))


def suspension(complex_, apex_north="apexN", apex_south="apexS"):
    """Join with two fresh apex vertices, shifting reduced homology up by
    one degree."""
    taken = set(complex_.vertices)
    while apex_north in taken:
        apex_north += "'"
    taken.add(apex_north)
    while apex_south in taken:
        apex_south += "'"
    facets = []
    for apex in (apex_north, apex_south):
        for facet in complex_.facets:
            facets.append(tuple(facet) + (apex,))
    return SimplicialComplex.from_facets(facets)


@dataclass(frozen=True)
class ComparisonReport:
    match: bool
    mismatches: tuple

    def __bool__(self):
        return self.match

    def lines(self):
        if self.match:
            return ["MATCH"]
        out = ["MISMATCH"]
        for degree, left, right in self.mismatches:
            ldesc = left.describe() if left is not None else "(absent)"
            rdesc = right.describe() if right is not None else "(absent)"
            out.append(f"  degree {degree}: {ldesc} vs {rdesc}")
        return out


def compare_homology(left, right):
    """Degreewise comparison of two homology listings, itemizing every
    degree where rank or torsion differ.  Missing degrees compare as
    trivial groups."""
    by_degree_left = {g.degree: g for g in left}
    by_degree_right = {g.degree: g for g in right}
    degrees = sorted(set(by_degree_left) | set(by_degree_right))
    mismatches = []
    for d in degrees:
        lg = by_degree_left.get(d)
        rg = by_degree_right.get(d)
        lb = (lg.betti, tuple(lg.torsion)) if lg else (0, ())
        rb = (rg.betti, tuple(rg.torsion)) if rg else (0, ())
        if lb != rb:
            mismatches.append((d, lg, rg))
    return ComparisonReport(match=not mismatches, mismatches=tuple(mismatches))


def boundary_of_simplex(n):
    """The boundary of the n-simplex, a triangulated (n-1)-sphere."""
    if n < 1:
        raise InvalidComplex("need n >= 1")
    vertices = list(range(n + 1))
    return SimplicialComplex.from_facets(combinations(vertices, n))


def sphere_complex(dim):
    """Minimal triangulation of the dim-sphere as a simplex boundary."""
    return boundary_of_simplex(dim + 1)


def projective_plane():
    """Six-vertex triangulation of the projective plane (antipodal
    quotient of the icosahedron).  Its correctness is certified by the
    test suite through its f-vector (6, 15, 10) and homology, not assumed.
    """
    facets = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return SimplicialComplex.from_facets(facets)


def torus_complex():
    """Seven-vertex triangulation of the torus on the complete graph K7."""
    facets = []
    for i in range(7):
        facets.append((i % 7, (i + 1) % 7, (i + 3) % 7))
        facets.append((i % 7, (i + 2) % 7, (i + 3) % 7))
    return SimplicialComplex.from_facets(facets)


_BUILTIN_SPACES = {
    "s0": lambda: sphere_complex(0),
    "s1": lambda: sphere_complex(1),
    "s2": lambda: sphere_complex(2),
    "s3": lambda: sphere_complex(3),
    "rp2": projective_plane,
    "torus": torus_complex,
    "srp2": lambda: suspension(projective_plane()),
}


def builtin_space_names():
    return sorted(_BUILTIN_SPACES)


def builtin_space(name):
    try:
        return _BUILTIN_SPACES[name]()
    except KeyError:
        raise InvalidComplex(
            f"no built-in space named {name!r}; choose from "
            f"{builtin_space_names()}") from None
