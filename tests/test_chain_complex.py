import random
import tracemalloc

import pytest

from conftest import assert_valid_decomposition, make_witness
from orbimorse import exact_linalg
from orbimorse.chain_complex import (
    BoundaryWitness,
    FreeChainComplex,
    euler_characteristic,
    homology,
    verify_complex,
)
from orbimorse.errors import DimensionMismatch, NotAComplex, ShapeMismatch
from orbimorse.exact_linalg import IntegerMatrix, smith_normal_form
from orbimorse.morse_datum import coinvariant_complex, invariant_complex


def complex_with_zero_boundaries(ranks, min_degree=0):
    generators = []
    boundaries = []
    prev = 0
    for k, count in enumerate(ranks):
        generators.append([f"g{k}_{i}" for i in range(count)])
        boundaries.append(IntegerMatrix.zeros(prev if k else 0, count))
        prev = count
    return FreeChainComplex(min_degree, tuple(generators), tuple(boundaries))


class TestVerify:
    def test_zero_boundaries(self):
        c = complex_with_zero_boundaries((2, 3, 1))
        assert verify_complex(c).ok

    def test_teardrop_coinvariant(self, teardrop):
        assert verify_complex(coinvariant_complex(teardrop(2, 3))).ok

    def test_nonzero_composition_reports_witness(self):
        c = FreeChainComplex(
            0,
            (("a",), ("b",), ("c",)),
            (IntegerMatrix.zeros(0, 1),
             IntegerMatrix.from_rows([[1]]),
             IntegerMatrix.from_rows([[1]])))
        verdict = verify_complex(c)
        assert not verdict.ok
        witness = verdict.failures[0]
        assert witness.degree == 2
        assert witness.value == 1

        # several nonzeros, none at (0, 0): the witness is the first in
        # row-major order of d1 @ d2 == [[0, 0, 0], [0, 0, 5], [0, -2, 7]]
        d1 = IntegerMatrix.from_rows([[0, 0], [1, 0], [0, 1]])
        d2 = IntegerMatrix.from_rows([[0, 0, 5], [0, -2, 7]])
        c = FreeChainComplex(
            3,
            (("a", "b", "c"), ("d", "e"), ("f", "g", "h")),
            (IntegerMatrix.zeros(0, 3), d1, d2))
        (witness,) = verify_complex(c).failures
        assert (witness.degree, witness.row, witness.col, witness.value) == (
            5, 1, 2, 5)

    def test_verdict_is_formed_once_per_complex(self, bean, monkeypatch):
        products = []
        real = IntegerMatrix.__matmul__

        def counted(left, right):
            products.append((left, right))
            return real(left, right)

        monkeypatch.setattr(IntegerMatrix, "__matmul__", counted)
        complex_ = coinvariant_complex(bean)
        first = verify_complex(complex_)
        assert verify_complex(complex_) == first
        assert first.ok
        assert len(products) == len(complex_.boundaries) - 1

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(ShapeMismatch):
            FreeChainComplex(
                0, (("a",), ("b",)),
                (IntegerMatrix.zeros(0, 1), IntegerMatrix.zeros(2, 1)))
        with pytest.raises(ShapeMismatch):
            FreeChainComplex(0, (("a", "a"),), (IntegerMatrix.zeros(0, 2),))


class TestFromIncidences:
    def test_places_each_value_at_target_row_and_source_column(self):
        c = FreeChainComplex.from_incidences(
            [["a", "b", "c"], ["e", "f"], ["t"]],
            [(1, "f", "c", 3), (1, "e", "a", -1), (2, "t", "f", 2)])
        assert c == FreeChainComplex(
            0, (("a", "b", "c"), ("e", "f"), ("t",)),
            (IntegerMatrix.zeros(0, 3),
             IntegerMatrix.from_rows([[-1, 0], [0, 0], [0, 3]]),
             IntegerMatrix.from_rows([[0], [2]])))

    def test_labels_are_looked_up_within_their_degree(self):
        c = FreeChainComplex.from_incidences(
            [["x", "y"], ["y", "x"]], [(1, "x", "y", 5)])
        assert c.boundary(1).to_rows() == [[0, 0], [0, 5]]

    def test_empty_and_gapped_degrees(self):
        assert FreeChainComplex.from_incidences([], []).generators == ()
        c = FreeChainComplex.from_incidences([["a"], [], ["t"]], [])
        assert [(b.rows, b.cols) for b in c.boundaries] == [
            (0, 1), (1, 0), (0, 1)]

    @pytest.mark.parametrize("incidence", [
        (0, "a", "a", 1), (2, "e", "a", 1), (-1, "a", "e", 1),
        (1, "e", "nope", 1), (1, "nope", "a", 1), (1, "a", "e", 1)])
    def test_incidence_outside_the_complex_raises(self, incidence):
        with pytest.raises(ShapeMismatch):
            FreeChainComplex.from_incidences([["a"], ["e", "a"]], [incidence])

    @pytest.mark.parametrize("degree", [-1, 2, 5])
    def test_boundary_outside_the_degree_range_raises(self, degree):
        c = FreeChainComplex.from_incidences(
            [["a"], ["e"]], [(1, "e", "a", 0)])
        assert c.boundary(0) == IntegerMatrix.zeros(0, 1)
        assert c.boundary(1) == IntegerMatrix.zeros(1, 1)
        with pytest.raises(ShapeMismatch) as info:
            c.boundary(degree)
        assert str(info.value) == (
            f"no boundary out of degree {degree}: the complex spans "
            "degrees 0 to 1")

    def test_boundary_count_must_match_the_degrees(self):
        with pytest.raises(ShapeMismatch) as info:
            FreeChainComplex(0, (("a",),), ())
        assert str(info.value) == "1 degrees but 0 boundary maps"

    def test_boundary_columns_must_match_the_generators(self):
        with pytest.raises(ShapeMismatch) as info:
            FreeChainComplex(0, (("a", "b"),), (IntegerMatrix.zeros(0, 1),))
        assert str(info.value) == (
            "boundary out of degree 0 has 1 columns for 2 generators")

    def test_values(self):
        def boundary(*incidences):
            return FreeChainComplex.from_incidences(
                [["a", "b"], ["e"]], incidences).boundaries[1]

        for bad in (1.5, True):
            with pytest.raises(DimensionMismatch):
                boundary((1, "e", "a", bad))
        # a zero value, or a zero written last, gives a zero entry
        assert boundary((1, "e", "a", 0)) == IntegerMatrix.zeros(2, 1)
        assert boundary((1, "e", "a", 5), (1, "e", "a", 0)).nonzeros == (
            (), ())
        # a repeated incidence keeps its last value
        assert boundary((1, "e", "b", 4), (1, "e", "a", 2),
                        (1, "e", "b", -3)) == IntegerMatrix.from_rows(
                            [[2], [-3]])

    def test_same_matrix_as_from_rows(self):
        def naive(a, b, width):
            return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                     for j in range(width)] for i in range(len(a))]

        rng = random.Random(4021)
        values = (0, 0, 0, 1, -1, 2, -3, 6)
        for _ in range(300):
            rows, cols, other = (rng.randint(0, 6) for _ in range(3))
            dense = [[rng.choice(values) for _ in range(cols)]
                     for _ in range(rows)]
            incidences = [(1, f"c{j}", f"r{i}", dense[i][j])
                          for i in range(rows) for j in range(cols)
                          if dense[i][j] or rng.random() < 0.3]
            rng.shuffle(incidences)
            # a decoy before some incidences, which the later value overwrites
            for at in sorted(rng.sample(range(len(incidences)),
                                        len(incidences) // 3), reverse=True):
                decoy = incidences[at][:3] + (rng.choice(values),)
                incidences.insert(rng.randint(0, at), decoy)
            built = FreeChainComplex.from_incidences(
                [[f"r{i}" for i in range(rows)],
                 [f"c{j}" for j in range(cols)]], incidences).boundaries[1]
            direct = IntegerMatrix(rows, cols, tuple(
                x for row in dense for x in row))
            for m in ([IntegerMatrix.from_rows(dense)] if rows else []) + [
                    direct]:
                assert m == built and hash(m) == hash(built)
            assert built.to_rows() == dense
            snf = smith_normal_form(direct)
            assert_valid_decomposition(direct, snf)
            assert exact_linalg._factors_only(
                built.rows, built.cols, built.nonzeros) == (
                    snf.invariant_factors)
            right = [[rng.choice(values) for _ in range(other)]
                     for _ in range(cols)]
            left = [[rng.choice(values) for _ in range(rows)]
                    for _ in range(other)]
            assert (built @ IntegerMatrix(cols, other, tuple(
                x for row in right for x in row))).to_rows() == naive(
                    dense, right, other)
            assert (IntegerMatrix(other, rows, tuple(
                x for row in left for x in row)) @ built).to_rows() == naive(
                    left, dense, cols)


class TestHomology:
    def test_zero_boundaries_ranks(self):
        c = complex_with_zero_boundaries((1, 0, 1))
        groups = homology(c)
        assert [(g.betti, g.torsion) for g in groups] == [(1, ()), (0, ()), (1, ())]

    def test_bean_invariant(self, bean):
        groups = homology(invariant_complex(bean))
        assert (groups[0].betti, groups[0].torsion) == (1, (2,))
        assert groups[1].is_trivial()
        assert (groups[2].betti, groups[2].torsion) == (1, ())

    def test_simplex_boundary(self):
        from orbimorse.simplicial_oracle import boundary_of_simplex

        groups = homology(boundary_of_simplex(3).chain_complex())
        assert [(g.betti, g.torsion) for g in groups] == [
            (1, ()), (0, ()), (1, ())]

    def test_rejects_non_complex(self):
        c = FreeChainComplex(
            0, (("a",), ("b",), ("c",)),
            (IntegerMatrix.zeros(0, 1),
             IntegerMatrix.from_rows([[1]]),
             IntegerMatrix.from_rows([[1]])))
        with pytest.raises(NotAComplex):
            homology(c)

    def test_one_elimination_per_boundary(self, monkeypatch):
        from orbimorse import exact_linalg
        from orbimorse.simplicial_oracle import torus_complex

        eliminated = []
        real = exact_linalg._factors_only

        def counted(rows, cols, nonzeros, **kwargs):
            eliminated.append((rows, cols, nonzeros))
            return real(rows, cols, nonzeros, **kwargs)

        monkeypatch.setattr(exact_linalg, "_factors_only", counted)
        complex_ = torus_complex().chain_complex()
        groups = homology(complex_)
        assert [(g.betti, g.torsion) for g in groups] == [
            (1, ()), (2, ()), (1, ())]
        for boundary in complex_.boundaries:
            assert sum(e is boundary.nonzeros
                       and (r, c) == (boundary.rows, boundary.cols)
                       for r, c, e in eliminated) == 1
        # besides the boundaries, only the zero map into the top degree
        assert len(eliminated) == len(complex_.boundaries) + 1

    def test_no_transforms_are_computed(self, bean, refuse_transforms):
        from orbimorse.simplicial_oracle import torus_complex

        assert [(g.betti, g.torsion) for g in homology(
            torus_complex().chain_complex())] == [(1, ()), (2, ()), (1, ())]
        assert [(g.betti, g.torsion) for g in homology(
            invariant_complex(bean))] == [(1, (2,)), (0, ()), (1, ())]

    def test_verified_complex_forms_no_product(self, bean, monkeypatch):
        complex_ = invariant_complex(bean)
        assert verify_complex(complex_).ok

        def refused(left, right):
            raise AssertionError("homology formed a product")

        monkeypatch.setattr(IntegerMatrix, "__matmul__", refused)
        groups = homology(complex_)
        assert [(g.betti, g.torsion) for g in groups] == [
            (1, (2,)), (0, ()), (1, ())]

    def test_empty_complex(self):
        c = FreeChainComplex(0, (), ())
        assert homology(c) == ()
        assert euler_characteristic(c) == 0


def path_complex(n):
    """n vertices joined in a path by n - 1 edges."""
    return FreeChainComplex.from_incidences(
        [[f"v{i}" for i in range(n)], [f"e{i}" for i in range(n - 1)]],
        [(1, f"e{i}", f"v{i}", -1) for i in range(n - 1)]
        + [(1, f"e{i}", f"v{i + 1}", 1) for i in range(n - 1)])


class TestSparseStorage:
    def test_long_path_stays_small(self):
        # a dense boundary holds 2000 x 1999 entries: a ~60 MB peak
        tracemalloc.start()
        try:
            groups = homology(path_complex(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(g.betti, g.torsion) for g in groups] == [(1, ()), (0, ())]
        assert peak < 8 * 2 ** 20

    def test_homology_reads_no_dense_values(self, bean, monkeypatch):
        from orbimorse.simplicial_oracle import torus_complex

        def refused(*args):
            raise AssertionError("a dense value was read")

        monkeypatch.setattr(IntegerMatrix, "entries", property(refused))
        for name in ("row", "to_rows", "__getitem__"):
            monkeypatch.setattr(IntegerMatrix, name, refused)
        assert [(g.betti, g.torsion) for g in homology(
            torus_complex().chain_complex())] == [(1, ()), (2, ()), (1, ())]
        assert [(g.betti, g.torsion) for g in homology(
            invariant_complex(bean))] == [(1, (2,)), (0, ()), (1, ())]
        # d1 @ d2 == [[0], [2]]: the witness is in the second row
        c = FreeChainComplex.from_incidences(
            [["a0", "a1"], ["b0", "b1"], ["c"]],
            [(1, "b0", "a1", 1), (1, "b1", "a1", 1),
             (2, "c", "b0", 3), (2, "c", "b1", -1)])
        with pytest.raises(NotAComplex):
            homology(c)
        assert verify_complex(c).failures == (
            BoundaryWitness(degree=2, row=1, col=0, value=2),)

    def test_homology_leaves_its_matrices_as_they_were(self, bean):
        from orbimorse.simplicial_oracle import projective_plane

        for complex_ in (projective_plane().chain_complex(),
                         invariant_complex(bean),
                         invariant_complex(make_witness())):
            copies = [IntegerMatrix(b.rows, b.cols, b.entries)
                      for b in complex_.boundaries]
            homology(complex_)
            assert list(complex_.boundaries) == copies
            for b in complex_.boundaries:
                assert exact_linalg.smith_normal_form(b).nonzeros is (
                    b.nonzeros)


class TestEulerCharacteristic:
    def test_ranks(self):
        assert euler_characteristic(complex_with_zero_boundaries((1, 0, 1))) == 2

    def test_teardrop(self, teardrop):
        assert euler_characteristic(coinvariant_complex(teardrop(2, 3))) == 2

    def test_bean(self, bean):
        assert euler_characteristic(coinvariant_complex(bean)) == 2

    def test_negative_min_degree_parity(self):
        c = complex_with_zero_boundaries((1, 1), min_degree=-1)
        assert euler_characteristic(c) == 0

    def test_matches_betti_alternating_sum(self, teardrop, bean):
        for complex_ in (coinvariant_complex(teardrop(3, 4)),
                         invariant_complex(bean),
                         complex_with_zero_boundaries((2, 1, 3))):
            groups = homology(complex_)
            betti_sum = sum((-1) ** (g.degree % 2) * g.betti for g in groups)
            assert euler_characteristic(complex_) == betti_sum


class TestRelabelingInvariance:
    def test_homology_invariant_under_generator_permutation(self, teardrop, bean):
        rng = random.Random(99)
        from orbimorse.morse_datum import MorseDatum

        for base in (teardrop(2, 3), teardrop(5, 5), bean):
            reference_co = [(g.betti, g.torsion)
                            for g in homology(coinvariant_complex(base))]
            reference_in = [(g.betti, g.torsion)
                            for g in homology(invariant_complex(base))]
            for _ in range(34):
                points = list(base.points)
                flows = list(base.flows)
                rng.shuffle(points)
                rng.shuffle(flows)
                shuffled = MorseDatum(tuple(points), tuple(flows),
                                      base.ambient_dimension)
                assert [(g.betti, g.torsion) for g in
                        homology(coinvariant_complex(shuffled))] == reference_co
                assert [(g.betti, g.torsion) for g in
                        homology(invariant_complex(shuffled))] == reference_in
