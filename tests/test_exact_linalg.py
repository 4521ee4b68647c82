import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest

from conftest import assert_valid_decomposition, make_witness, witness_rows
from orbimorse import exact_linalg
from orbimorse.chain_complex import FreeChainComplex, homology
from orbimorse.errors import DimensionMismatch, NotAComplex
from orbimorse.exact_linalg import (
    HomologyGroup,
    IntegerMatrix,
    homology_at,
    rank,
    smith_normal_form,
)
from orbimorse.morse_datum import (
    CriticalPointRecord,
    FlowCount,
    MorseDatum,
    coinvariant_complex,
    invariant_complex,
)
from orbimorse.simplicial_oracle import (projective_plane, suspension,
                                         torus_complex)


def random_matrix(rng, max_dim=8, bound=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def rank_by_fraction_free_elimination(matrix):
    """Independent rank oracle: Bareiss-style forward elimination."""
    a = matrix.to_rows()
    m, n = matrix.rows, matrix.cols
    r = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(r, m):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * a[r][col] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        r += 1
        if r == m:
            break
    return r


class TestSmithNormalForm:
    def test_zero_matrix(self):
        snf = smith_normal_form(IntegerMatrix.zeros(2, 2))
        assert snf.invariant_factors == ()
        assert snf.D == IntegerMatrix.zeros(2, 2)

    def test_identity(self):
        snf = smith_normal_form(IntegerMatrix.identity(3))
        assert snf.invariant_factors == (1, 1, 1)
        assert snf.D == IntegerMatrix.identity(3)

    def test_two_by_two(self):
        # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8
        m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (2, 4)
        assert_valid_decomposition(m, snf)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            m = IntegerMatrix.zeros(*shape)
            snf = smith_normal_form(m)
            assert snf.invariant_factors == ()
            assert snf.D.rows == shape[0] and snf.D.cols == shape[1]

    def test_property_suite(self):
        rng = random.Random(20240901)
        for _ in range(500):
            m = random_matrix(rng)
            snf = smith_normal_form(m)
            assert_valid_decomposition(m, snf)
            if m.rows == m.cols:
                det = m.determinant()
                if det != 0:
                    product = 1
                    for d in snf.invariant_factors:
                        product *= d
                    assert product == abs(det)

    def test_deterministic(self):
        # A distinct equal matrix, since the decomposition of ``m`` itself
        # is stored on it and a second call returns that same object.
        rng = random.Random(7)
        for _ in range(25):
            m = random_matrix(rng)
            first = smith_normal_form(m)
            second = smith_normal_form(IntegerMatrix(m.rows, m.cols, m.entries))
            assert first is not second
            assert (first.U, first.D, first.V) == (second.U, second.D, second.V)

    def test_equality_computes_no_transforms(self, refuse_transforms):
        # equal decompositions are those of equal matrices; equal factors
        # alone do not make them equal
        first = smith_normal_form(IntegerMatrix.from_rows([[1, 0], [0, 2]]))
        same = smith_normal_form(IntegerMatrix.from_rows([[1, 0], [0, 2]]))
        swapped = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 1]]))
        assert first is not same
        assert first == same and hash(first) == hash(same)
        assert first.invariant_factors == swapped.invariant_factors
        assert first != swapped

    def test_decomposition_is_stored_on_the_matrix(self):
        m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        assert smith_normal_form(m) is smith_normal_form(m)
        assert rank(m) == 2
        assert m == IntegerMatrix.from_rows([[2, 4], [6, 8]])

    def test_transforms_are_computed_once_on_first_read(self, monkeypatch):
        recorded = []
        real = exact_linalg._factors_only

        def counted(rows, cols, nonzeros, transforms=False, **kwargs):
            if transforms:
                recorded.append(nonzeros)
            return real(rows, cols, nonzeros, transforms, **kwargs)

        monkeypatch.setattr(exact_linalg, "_factors_only", counted)
        rng = random.Random(12)
        for read in ("U", "D", "V") * 4:
            m = random_matrix(rng)
            before = len(recorded)
            snf = smith_normal_form(m)
            assert len(recorded) == before
            getattr(snf, read)
            assert len(recorded) == before + 1
            assert recorded[-1] is m.nonzeros
            assert_valid_decomposition(m, snf)
            assert smith_normal_form(m) is snf
            assert len(recorded) == before + 1

    def test_witness_transforms_within_time_bound(self):
        # In a child process, so that a stalled elimination fails the test
        # after 10 s instead of hanging the run.
        script = (
            "import json, sys\n"
            "from orbimorse.exact_linalg import IntegerMatrix,"
            " smith_normal_form\n"
            "snf = smith_normal_form(IntegerMatrix.from_rows("
            "json.loads(sys.argv[1])))\n"
            "print(json.dumps([snf.U.to_rows(), snf.D.to_rows(),"
            " snf.V.to_rows()]))\n")
        rows = witness_rows()
        src = os.path.dirname(os.path.dirname(exact_linalg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(rows)],
            capture_output=True, text=True, timeout=10, env=env, check=True)
        u, d, v = map(IntegerMatrix.from_rows, json.loads(done.stdout))
        m = IntegerMatrix.from_rows(rows)
        snf = SimpleNamespace(U=u, D=d, V=v, invariant_factors=(
            exact_linalg._factors_only(m.rows, m.cols, m.nonzeros)))
        assert snf.invariant_factors == (1, 1, 1) + (11,) * 7 + (462,)
        assert_valid_decomposition(m, snf)


class TestRank:
    def test_zero(self):
        assert rank(IntegerMatrix.zeros(3, 4)) == 0

    def test_identity(self):
        for n in range(5):
            assert rank(IntegerMatrix.identity(n)) == n

    def test_nonsingular(self):
        assert rank(IntegerMatrix.from_rows([[2, 4], [6, 8]])) == 2

    def test_against_elimination_oracle(self):
        rng = random.Random(555)
        for _ in range(200):
            m = random_matrix(rng)
            assert rank(m) == rank_by_fraction_free_elimination(m)


class TestIntegerMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionMismatch):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            IntegerMatrix.from_rows([[1.5]])

    def test_row_dict_columns_checked(self):
        # an unchecked column printed as zeros in the dense views, and the
        # elimination then raised a bare IndexError
        for cols, row_dicts in [(2, [{5: 1}, {-1: 3}]), (2, [{}, {-1: 3}]),
                                (2, [{0: 1, 2: 1}]), (0, [{0: 1}]),
                                (2, [{True: 1}]), (2, [{1.0: 1}]),
                                (2, [{0: 1, "1": 1}])]:
            with pytest.raises(DimensionMismatch):
                IntegerMatrix.from_row_dicts(cols, row_dicts)
        m = IntegerMatrix.from_row_dicts(3, [{2: 1, 0: -1}, {1: 0}, {}])
        assert m == IntegerMatrix.from_rows([[-1, 0, 1], [0, 0, 0], [0, 0, 0]])

    def test_matmul_shape_check(self):
        a = IntegerMatrix.identity(2)
        b = IntegerMatrix.zeros(3, 2)
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_matmul_against_triple_loop(self):
        def naive(a, b):
            return IntegerMatrix.from_rows(
                [[sum(a[i, k] * b[k, j] for k in range(a.cols))
                  for j in range(b.cols)] for i in range(a.rows)]
            ) if a.rows else IntegerMatrix.zeros(0, b.cols)

        def sample(rng, rows, cols, density):
            return IntegerMatrix(rows, cols, tuple(
                rng.randint(-9, 9) if rng.random() < density else 0
                for _ in range(rows * cols)))

        rng = random.Random(31)
        for _ in range(300):
            m, k, n = (rng.randint(1, 7) for _ in range(3))
            density = rng.choice((0.0, 0.1, 0.3, 1.0))
            a = sample(rng, m, k, density)
            b = sample(rng, k, n, rng.choice((0.1, 0.5, 1.0)))
            assert a @ b == naive(a, b)
        for m, k, n in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)]:
            a = sample(rng, m, k, 1.0)
            b = sample(rng, k, n, 1.0)
            product = a @ b
            assert product == naive(a, b) == IntegerMatrix.zeros(m, n)

    def test_immutable(self):
        m = IntegerMatrix.from_rows([[3, 0], [0, -1]])
        for name in ("rows", "cols", "nonzeros"):
            with pytest.raises(AttributeError):
                setattr(m, name, getattr(m, name))
        with pytest.raises(TypeError):
            m.nonzeros[0][0] = (1, 4)
        assert rank(m) == 2
        assert m == IntegerMatrix.from_rows([[3, 0], [0, -1]])
        rng = random.Random(808)
        for _ in range(200):
            m = random_matrix(rng)
            factors = smith_normal_form(m).invariant_factors
            assert m == IntegerMatrix.from_rows(m.to_rows())
            assert exact_linalg._factors_only(
                m.rows, m.cols, m.nonzeros) == factors

    def test_determinant(self):
        assert IntegerMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
        assert IntegerMatrix.identity(4).determinant() == 1
        assert IntegerMatrix.zeros(0, 0).determinant() == 1
        m = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.determinant() == 0


class TestHomologyAt:
    def test_multiplication_by_two(self):
        out = IntegerMatrix.zeros(1, 1)
        into = IntegerMatrix.from_rows([[2]])
        group = homology_at(out, into)
        assert group == HomologyGroup(degree=0, betti=0, torsion=(2,))

    def test_free_rank_one(self):
        out = IntegerMatrix.zeros(1, 1)
        into = IntegerMatrix.zeros(1, 1)
        assert homology_at(out, into, degree=3) == HomologyGroup(3, 1, ())

    def test_projective_plane_middle_degree(self):
        # expected value computed by the simplicial oracle on the 6-vertex
        # triangulation (see test_simplicial_oracle)
        from orbimorse.simplicial_oracle import projective_plane

        complex_ = projective_plane().chain_complex()
        group = homology_at(complex_.boundaries[1], complex_.boundaries[2],
                            degree=1)
        assert (group.betti, group.torsion) == (0, (2,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            homology_at(IntegerMatrix.zeros(1, 2), IntegerMatrix.zeros(3, 1))

    def test_not_a_complex(self):
        one = IntegerMatrix.from_rows([[1]])
        with pytest.raises(NotAComplex):
            homology_at(one, one)

    def test_describe(self):
        assert HomologyGroup(0, 2, (2, 4)).describe() == "Z^2 + Z/2 + Z/4"
        assert HomologyGroup(0, 0, ()).describe() == "0"
        assert HomologyGroup(1, 1).describe() == "Z"


def double_suspension_complexes(space, rng):
    """Coinvariant, invariant and simplicial complexes of the double
    suspension of ``space``: one point per simplex with stabilizer order
    2^(top - index), counts the boundary signs under random orientation
    flips."""
    twice = suspension(suspension(space))
    top = twice.dimension()
    simplices = [s for k in range(top + 1) for s in twice.simplices(k)]
    flip = {s: rng.choice((1, -1)) for s in simplices}
    datum = MorseDatum(
        [CriticalPointRecord("|".join(s), len(s) - 1, 2 ** (top - len(s) + 1))
         for s in simplices],
        [FlowCount("|".join(s), "|".join(s[:d] + s[d + 1:]),
                   (-1) ** d * flip[s] * flip[s[:d] + s[d + 1:]])
         for s in simplices if len(s) > 1 for d in range(len(s))])
    return (coinvariant_complex(datum), invariant_complex(datum),
            twice.chain_complex())


class TestFactorsOnly:
    """The sparse elimination's factors against its own certificate: U, D
    and V recorded by the same loop, checked by ``assert_valid_decomposition``
    (U @ A @ V == D, |det U| = |det V| = 1 by the Bareiss determinant, D a
    divisibility chain), whose nonzero diagonal must be the factors."""

    @staticmethod
    def assert_same_factors(m):
        assert_valid_decomposition(m, smith_normal_form(m))

    def test_random_small_matrices(self):
        rng = random.Random(20261018)
        values = (0, 1, -1, 2, -2, 3, 4, 6)
        for _ in range(3000):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            self.assert_same_factors(IntegerMatrix(rows, cols, tuple(
                rng.choice(values) for _ in range(rows * cols))))

    @pytest.mark.parametrize("rows,factors", [
        ([[2, 0], [0, 3]], (1, 6)),         # Z/2 + Z/3 = Z/6
        ([[2, 3], [3, 2]], (1, 5)),         # no dividing pivot: Euclid steps
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
        ([[0, 2], [2, 0], [0, 0]], (2, 2)),
    ])
    def test_pinned(self, rows, factors):
        m = IntegerMatrix.from_rows(rows)
        assert exact_linalg._factors_only(m.rows, m.cols, m.nonzeros) == factors
        self.assert_same_factors(m)

    def test_factors_never_record_transforms(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a transform was recorded for factors")

        monkeypatch.setattr(exact_linalg, "_combine", refuse)
        m = IntegerMatrix.from_rows([[1, 5, 0], [0, 2, 3], [0, 3, 2]])
        assert exact_linalg._factors_only(m.rows, m.cols, m.nonzeros) == (
            1, 1, 5)
        assert smith_normal_form(m).invariant_factors == (1, 1, 5)
        # the refusal is live: recording U on this matrix combines rows
        with pytest.raises(AssertionError, match="recorded"):
            smith_normal_form(m).U

    def test_chain_needs_no_pass(self, monkeypatch):
        # every pivot of 2 I is 2, already a divisibility chain: the
        # (gcd, lcm) pass visited all 79,800 pairs of the 400 pivots
        calls = []

        def counted(a, b):
            calls.append(1)
            return gcd(a, b)

        monkeypatch.setattr(exact_linalg, "gcd", counted)
        n = 400
        m = IntegerMatrix.from_rows(
            [[2 * (i == j) for j in range(n)] for i in range(n)])
        assert exact_linalg._factors_only(n, n, m.nonzeros) == (2,) * n
        assert calls == []
        # out of order the pass runs: 6 = lcm(2, 3) after 1 = gcd(2, 3)
        m = IntegerMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 6]])
        assert exact_linalg._factors_only(3, 3, m.nonzeros) == (1, 6, 6)
        assert calls
        self.assert_same_factors(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        assert exact_linalg._factors_only(*shape, ()) == ()

    @pytest.mark.parametrize("space", [torus_complex, projective_plane],
                             ids=["torus", "rp2"])
    def test_double_suspension_boundaries(self, space):
        for complex_ in double_suspension_complexes(space(), random.Random(23)):
            for boundary in complex_.boundaries:
                self.assert_same_factors(boundary)


def away_from(n, groups):
    """Betti numbers and torsion of ``groups`` tensored with Z[1/n]: every
    prime of n divided out of each invariant factor, ones dropped (the
    result is again a divisibility chain)."""
    out = []
    for group in groups:
        torsion = []
        for t in group.torsion:
            g = gcd(t, n)
            while g > 1:
                t //= g
                g = gcd(t, n)
            if t > 1:
                torsion.append(t)
        out.append((group.betti, tuple(torsion)))
    return out


class TestRationalGate:
    """The invariant boundary is S @ d @ S^-1, S the diagonal of stabilizer
    orders, so over Z[1/N], N = lcm(stab), the two complexes are
    isomorphic: equal Betti numbers, and equal p-torsion for every prime p
    not dividing N."""

    @staticmethod
    def raised_witness(stab):
        """The witness datum with minimum m_i given stabilizer ``stab(i)``."""
        witness = make_witness()
        return MorseDatum(
            [replace(p, stab_order=stab(int(p.id[1:])))
             if p.id.startswith("m") else p for p in witness.points],
            witness.flows)

    @pytest.mark.parametrize("stab", [
        lambda i: 2 ** (1 + i % 2), lambda i: 2, lambda i: 4,
        lambda i: 4 if i % 3 else 2,
    ], ids=["alternating", "twos", "fours", "mixed"])
    def test_witness(self, stab):
        datum = self.raised_witness(stab)
        co = homology(coinvariant_complex(datum))
        inv = homology(invariant_complex(datum))
        assert co[0].describe() == " + ".join(
            ["Z"] + ["Z/11"] * 7 + ["Z/462"])
        assert away_from(4, inv) == away_from(4, co)
        assert inv != co

    def test_witness_invariant_pinned(self):
        datum = self.raised_witness(lambda i: 2 ** (1 + i % 2))
        assert homology(invariant_complex(datum))[0].describe() == " + ".join(
            ["Z"] + ["Z/2"] * 3 + ["Z/22"] * 3 + ["Z/44"] * 4 + ["Z/1848"])

    @pytest.mark.parametrize("space", [torus_complex, projective_plane],
                             ids=["torus", "rp2"])
    def test_double_suspensions(self, space):
        # every stabilizer order is a power of 2
        co, inv, _ = double_suspension_complexes(space(), random.Random(23))
        co, inv = homology(co), homology(inv)
        assert away_from(2, inv) == away_from(2, co)
        assert inv != co


def fraction_echelon(rows):
    """Rank and determinant (of a square input) by Gaussian elimination
    over ``Fraction``, independent of the package."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a[0]) if a else 0
    rank_, det = 0, Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(rank_, len(a)) if a[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank_:
            a[rank_], a[pivot] = a[pivot], a[rank_]
            det = -det
        det *= a[rank_][col]
        for i in range(rank_ + 1, len(a)):
            k = a[i][col] / a[rank_][col]
            if k:
                a[i] = [x - k * y for x, y in zip(a[i], a[rank_])]
        rank_ += 1
    return rank_, det


class TestHomologyWithoutTransforms:
    """Complexes on which no entry divides its row and column: homology
    reads factors from the sparse elimination and never asks it for U, D
    and V."""

    @pytest.mark.parametrize("rows,groups", [
        ([[2, 3], [3, 2]], ((0, (5,)), (0, ()))),
        (witness_rows(), ((1, (11,) * 7 + (462,)), (1, ()))),
    ], ids=["two-by-two", "witness"])
    def test_groups(self, refuse_transforms, rows, groups):
        m = IntegerMatrix.from_rows(rows)
        complex_ = FreeChainComplex(
            0, ([f"m{i}" for i in range(m.rows)],
                [f"s{j}" for j in range(m.cols)]),
            (IntegerMatrix.zeros(0, m.rows), m))
        h0, h1 = homology(complex_)
        assert ((h0.betti, h0.torsion), (h1.betti, h1.torsion)) == groups
        # d1 is the only map: H0 = Z^(rows - r) + torsion of order the gcd
        # of the r x r minors, H1 = Z^(cols - r)
        r = fraction_echelon(rows)[0]
        minors = 0
        for keep_rows in combinations(range(m.rows), r):
            for keep_cols in combinations(range(m.cols), r):
                det = fraction_echelon([[rows[i][j] for j in keep_cols]
                                        for i in keep_rows])[1]
                assert det.denominator == 1
                minors = gcd(minors, det.numerator)
        order = 1
        for t in h0.torsion:
            order *= t
        assert (h0.betti, h1.betti, order) == (m.rows - r, m.cols - r, minors)


def mixed_torsion_complex(rng):
    """A free complex in degrees 0..3 built from elementary pieces, a
    generator alone or Z -c-> Z one degree down, then mixed by a unimodular
    change of basis in every degree, so that pivots are no longer units
    alone in their rows and some eliminations restart."""
    top = 3
    gens = [0] * (top + 1)
    arrows = []                         # (degree of source, source, target, c)
    for _ in range(rng.randint(1, 9)):
        k = rng.randint(0, top)
        if k and rng.random() < 0.5:
            arrows.append((k, gens[k], gens[k - 1],
                           rng.choice((1, 2, 3, 4, 6, 9))))
            gens[k - 1] += 1
        gens[k] += 1
    # basis[k] and inverse[k]: products of the same elementary operations
    basis = [[[int(i == j) for j in range(n)] for i in range(n)] for n in gens]
    inverse = [[row[:] for row in m] for m in basis]
    for k, n in enumerate(gens):
        if n < 2:
            continue
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2)
            m = rng.choice((-2, -1, 1, 2, 3))
            # basis: row a += m row b; inverse: column b -= m column a
            basis[k][a] = [x + m * y for x, y in zip(basis[k][a], basis[k][b])]
            for row in inverse[k]:
                row[b] -= m * row[a]
    boundaries = [IntegerMatrix.zeros(0, gens[0])]
    for k in range(1, top + 1):
        planted = [[0] * gens[k] for _ in range(gens[k - 1])]
        for degree, source, target, c in arrows:
            if degree == k:
                planted[target][source] = c
        boundaries.append(square(basis[k - 1]) @ IntegerMatrix(
            gens[k - 1], gens[k], tuple(x for row in planted for x in row))
            @ square(inverse[k]))
    return FreeChainComplex(
        0, [[f"g{k}_{i}" for i in range(n)] for k, n in enumerate(gens)],
        boundaries)


def square(rows):
    return IntegerMatrix(len(rows), len(rows), tuple(
        x for row in rows for x in row))


class TestClearing:
    """``homology_at`` eliminates each boundary without the rows that the
    boundary below it cleared: the columns of its pivots taken before the
    first restart in a row."""

    def test_groups_match_full_eliminations(self):
        rng = random.Random(2310)
        skipped = restarted = 0
        for _ in range(150):
            complex_ = mixed_torsion_complex(rng)
            factors = [exact_linalg._factors_only(b.rows, b.cols, b.nonzeros)
                       for b in complex_.boundaries] + [()]
            expected = [(len(labels) - len(factors[k]) - len(factors[k + 1]),
                         tuple(d for d in factors[k + 1] if d > 1))
                        for k, labels in enumerate(complex_.generators)]
            assert ([(g.betti, g.torsion) for g in homology(complex_)]
                    == expected)
            for boundary, found in zip(complex_.boundaries, factors):
                snf = smith_normal_form(boundary)
                assert_valid_decomposition(boundary, snf)
                skipped += len(snf.cleared)
                restarted += len(snf.cleared) < len(found)
        # the cases clear rows, and some eliminations end their prefix early
        assert skipped and restarted

    @pytest.mark.parametrize("space,skipped", [
        (torus_complex, (0, 0, 10, 43, 83)),
        (projective_plane, (0, 0, 9, 34, 60)),
    ], ids=["torus", "rp2"])
    def test_rows_skipped_on_double_suspensions(self, monkeypatch, space,
                                                skipped):
        # no elimination here restarts in a row, so each boundary skips as
        # many rows as the rank of the one below it, from face counts and
        # Betti numbers: for the torus, 11 - 1, then 53 - 10 and 126 - 43
        seen = {}
        real = exact_linalg._factors_only

        def counted(rows, cols, nonzeros, transforms=False, **kwargs):
            seen[id(nonzeros)] = len(kwargs.get("zero_rows", ()))
            return real(rows, cols, nonzeros, transforms, **kwargs)

        monkeypatch.setattr(exact_linalg, "_factors_only", counted)
        complex_ = suspension(suspension(space())).chain_complex()
        homology(complex_)
        assert tuple(seen[id(b.nonzeros)]
                     for b in complex_.boundaries) == skipped

    @pytest.mark.parametrize("space", [torus_complex, projective_plane],
                             ids=["torus", "rp2"])
    def test_decompositions_without_cleared_rows_equal_full_ones(
            self, refuse_transforms, space):
        # equality and the hash read the matrix only: the decomposition
        # homology_at made without cleared rows equals the one made from
        # all the rows of a distinct equal matrix, whose cleared columns
        # may differ
        complex_ = suspension(suspension(space())).chain_complex()
        homology(complex_)
        differ = 0
        for boundary in complex_.boundaries:
            stored = smith_normal_form(boundary)
            full = smith_normal_form(IntegerMatrix.from_row_dicts(
                boundary.cols, [dict(pairs) for pairs in boundary.nonzeros]))
            assert stored is not full
            assert stored == full and hash(stored) == hash(full)
            assert stored.invariant_factors == full.invariant_factors
            differ += stored.cleared != full.cleared
        assert differ

    @pytest.mark.parametrize("rows,cleared", [
        # 2 leaves the remainder 1 in its row, then a unit alone
        ([[2, 3, 0], [0, 0, 1]], ()),
        # a unit alone, then 2 leaves the remainder 1 in its row
        ([[1, 0, 0], [0, 2, 3]], (0,)),
        ([[2, 4, 0], [0, 0, 3]], (0, 2)),
        # 3 leaves the remainder 1 in its column: a row operation
        ([[3, 0], [4, 0], [0, 5]], (0, 1)),
    ])
    def test_prefix_of_clean_pivots(self, rows, cleared):
        m = IntegerMatrix.from_rows(rows)
        assert smith_normal_form(m).cleared == cleared

    def test_large_double_suspension_within_time_bound(self):
        # In a child process, so that an elimination that fills in fails
        # the test after 10 s instead of holding up the run: the double
        # suspension of the 30 x 30 grid torus has 48,608 cells, and
        # taking its rows in label order without clearing took over 20 s.
        script = (
            "from orbimorse.simplicial_oracle import SimplicialComplex,"
            " simplicial_homology, suspension\n"
            "n = 30\n"
            "v = lambda i, j: f'v{n * (i % n) + j % n}'\n"
            "grid = SimplicialComplex.from_facets(\n"
            "    f for i in range(n) for j in range(n) for f in (\n"
            "        (v(i, j), v(i + 1, j), v(i + 1, j + 1)),\n"
            "        (v(i, j), v(i, j + 1), v(i + 1, j + 1))))\n"
            "twice = suspension(suspension(grid))\n"
            "print(sum(twice.face_counts()))\n"
            "print(' '.join(g.describe() for g in"
            " simplicial_homology(twice)))\n")
        src = os.path.dirname(os.path.dirname(exact_linalg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=10,
                              env=env, check=True)
        assert done.stdout.split("\n")[:2] == ["48608", "Z 0 0 Z^2 Z"]
