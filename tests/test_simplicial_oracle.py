import pytest

from orbimorse.chain_complex import FreeChainComplex
from orbimorse.errors import InvalidComplex
from orbimorse.simplicial_oracle import (
    SimplicialComplex,
    boundary_of_simplex,
    builtin_space,
    builtin_space_names,
    compare_homology,
    projective_plane,
    simplicial_homology,
    sphere_complex,
    suspension,
    torus_complex,
)


def profile(groups):
    return [(g.betti, tuple(g.torsion)) for g in groups]


class TestHomology:
    def test_single_vertex(self):
        K = SimplicialComplex.from_facets([("v",)])
        assert profile(simplicial_homology(K)) == [(1, ())]

    def test_simplex_boundaries(self):
        assert profile(simplicial_homology(boundary_of_simplex(1))) == [(2, ())]
        assert profile(simplicial_homology(boundary_of_simplex(2))) == [
            (1, ()), (1, ())]
        assert profile(simplicial_homology(boundary_of_simplex(3))) == [
            (1, ()), (0, ()), (1, ())]
        assert profile(simplicial_homology(boundary_of_simplex(4))) == [
            (1, ()), (0, ()), (0, ()), (1, ())]

    def test_projective_plane_certification(self):
        K = projective_plane()
        # the triangulation certifies itself through these two outputs
        assert K.face_counts() == [6, 15, 10]
        assert profile(simplicial_homology(K)) == [(1, ()), (0, (2,)), (0, ())]

    def test_torus(self):
        K = torus_complex()
        assert K.face_counts() == [7, 21, 14]
        assert profile(simplicial_homology(K)) == [(1, ()), (2, ()), (1, ())]

    def test_disjoint_vertices(self):
        K = SimplicialComplex.from_facets([("a",), ("b",), ("c",)])
        assert profile(simplicial_homology(K)) == [(3, ())]


class TestChainComplex:
    """``chain_complex`` fills its boundaries by face lookup; it must equal
    the complex of the same incidences built from labels."""

    @staticmethod
    def from_labels(K):
        levels = [K.simplices(k) for k in range(K.dimension() + 1)]
        incidences = [(k, "|".join(s), "|".join(s[:d] + s[d + 1:]), (-1) ** d)
                      for k in range(1, len(levels)) for s in levels[k]
                      for d in range(k + 1)]
        return FreeChainComplex.from_incidences(
            [["|".join(s) for s in level] for level in levels], incidences)

    @pytest.mark.parametrize("K", [
        *(builtin_space(name) for name in builtin_space_names()),
        suspension(suspension(torus_complex())),
        suspension(suspension(projective_plane())),
        SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d"), ("e",)]),
    ], ids=[*builtin_space_names(), "s2torus", "s2rp2", "mixed"])
    def test_equals_incidence_build(self, K):
        assert K.chain_complex() == self.from_labels(K)
        assert K.face_counts() == [len(level)
                                   for level in K.chain_complex().generators]


class TestSuspension:
    def test_two_points_to_circle(self):
        K = sphere_complex(0)
        assert profile(simplicial_homology(suspension(K))) == [(1, ()), (1, ())]

    def test_circle_to_sphere(self):
        K = boundary_of_simplex(2)
        assert profile(simplicial_homology(suspension(K))) == [
            (1, ()), (0, ()), (1, ())]

    def test_projective_plane_suspension(self):
        groups = simplicial_homology(suspension(projective_plane()))
        assert profile(groups) == [(1, ()), (0, ()), (0, (2,)), (0, ())]
        # the torsion sits in degree 2: even, one above the degree-1 torsion
        assert groups[2].torsion == (2,)

    def test_shift_property_on_all_builtins(self):
        for name in builtin_space_names():
            K = builtin_space(name)
            base = simplicial_homology(K)
            lifted = simplicial_homology(suspension(K))
            dim = K.dimension()
            # reduced homology shifts up one degree
            reduced = [(g.betti - (1 if g.degree == 0 else 0), tuple(g.torsion))
                       for g in base]
            shifted = [(g.betti - (1 if g.degree == 0 else 0), tuple(g.torsion))
                       for g in lifted]
            assert shifted[0] == (0, ())
            for k in range(dim + 1):
                assert shifted[k + 1] == reduced[k]

    @pytest.mark.parametrize("space,reduced", [
        (torus_complex, [(0, ()), (2, ()), (1, ())]),
        (projective_plane, [(0, ()), (0, (2,)), (0, ())]),
    ])
    def test_double_suspension(self, space, reduced):
        # reduced homology shifted up two degrees, plus H_0 = Z
        twice = suspension(suspension(space()))
        assert twice.dimension() == 4
        assert profile(simplicial_homology(twice)) == [
            (1, ()), (0, ())] + reduced

    def test_apex_collision_avoided(self):
        # vertices already named like the default apexes must not collide
        K = SimplicialComplex.from_facets([("apexN",), ("apexS",)])
        S = suspension(K)
        assert len(S.vertices) == 4
        assert profile(simplicial_homology(S)) == [(1, ()), (1, ())]


class TestCompare:
    def test_identical(self):
        a = simplicial_homology(sphere_complex(2))
        assert compare_homology(a, a).match

    def test_mismatch_itemized(self):
        a = simplicial_homology(projective_plane())
        b = simplicial_homology(sphere_complex(2))
        report = compare_homology(a, b)
        assert not report.match
        degrees = [d for d, _, _ in report.mismatches]
        assert degrees == [1, 2]

    def test_length_mismatch_pads_with_trivial(self):
        a = simplicial_homology(sphere_complex(2))
        b = simplicial_homology(sphere_complex(0))
        report = compare_homology(a, b)
        assert not report.match
        assert report.lines()[0] == "MISMATCH"


class TestValidation:
    def test_duplicate_facets_rejected(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex.from_facets([(1, 2), (2, 1)])

    def test_empty_facet_rejected(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex.from_facets([()])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex.from_facets([(1, 1, 2)])

    def test_label_with_separator_rejected(self):
        # chain_complex joins a simplex's labels with "|", so the edges
        # a|b-c and a-b|c both became the generator "a|b|c"
        with pytest.raises(InvalidComplex, match=r"'a\|b'"):
            simplicial_homology(SimplicialComplex.from_facets(
                [("a|b", "c"), ("a", "b|c")]))

    def test_euler_characteristic_without_chain_complex(self, monkeypatch):
        from orbimorse.simplicial_oracle import euler_characteristic_from_faces

        def refuse(self):
            raise AssertionError("chain_complex was built")

        expected = {name: sum((-1) ** (g.degree % 2) * g.betti
                              for g in simplicial_homology(builtin_space(name)))
                    for name in builtin_space_names()}
        monkeypatch.setattr(SimplicialComplex, "chain_complex", refuse)
        for name, chi in expected.items():
            assert euler_characteristic_from_faces(builtin_space(name)) == chi

    def test_euler_characteristic_from_faces(self):
        from orbimorse.simplicial_oracle import euler_characteristic_from_faces

        assert euler_characteristic_from_faces(projective_plane()) == 1
        assert euler_characteristic_from_faces(torus_complex()) == 0
        assert euler_characteristic_from_faces(sphere_complex(2)) == 2
        # alternating Betti sums agree
        for name in builtin_space_names():
            K = builtin_space(name)
            betti_sum = sum((-1) ** (g.degree % 2) * g.betti
                            for g in simplicial_homology(K))
            assert euler_characteristic_from_faces(K) == betti_sum
