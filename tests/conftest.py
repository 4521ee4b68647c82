import time

import pytest

from orbimorse import flow_numerics as fn
from orbimorse.morse_datum import CriticalPointRecord, FlowCount, MorseDatum


def make_teardrop(m, n):
    """Sphere with two cone points, after stabilizing the top: indices
    (2, 1, 0, 0), one flow pair of counts (+1, -1) out of the middle point."""
    return MorseDatum(
        points=(
            CriticalPointRecord("q", 0, n),
            CriticalPointRecord("p", 0, m),
            CriticalPointRecord("p'", 1, 1),
            CriticalPointRecord("p''", 2, 1),
        ),
        flows=(
            FlowCount("p'", "p", 1),
            FlowCount("p'", "q", -1),
            FlowCount("p''", "p'", 0),
        ),
        ambient_dimension=2,
    )


def make_bean():
    """Half-turn quotient of a bean-shaped sphere after stabilizing the
    middle saddle: the two top flows cancel and the new saddle maps onto
    the difference of the two bottom points."""
    return MorseDatum(
        points=(
            CriticalPointRecord("p", 2, 1),
            CriticalPointRecord("q'", 1, 1),
            CriticalPointRecord("q", 0, 2),
            CriticalPointRecord("r", 0, 2),
        ),
        flows=(
            FlowCount("p", "q'", 0),
            FlowCount("q'", "q", 1),
            FlowCount("q'", "r", -1),
        ),
        ambient_dimension=2,
    )


def witness_rows():
    """A 12 x 12 matrix in which no entry divides its row and column, and
    on which a dense elimination under a least-|entry| pivot rule stalls
    on entry growth: A[i][j] = 2 + (3i^2 + 5j^2 + 7ij + i + 2j) mod 11."""
    return [[2 + (3 * i * i + 5 * j * j + 7 * i * j + i + 2 * j) % 11
             for j in range(12)] for i in range(12)]


def assert_valid_decomposition(matrix, snf):
    """U @ matrix @ V == D with U and V unimodular and D the Smith form:
    diagonal, its nonzero entries the invariant factors in a divisibility
    chain."""
    assert snf.U @ matrix @ snf.V == snf.D
    assert abs(snf.U.determinant()) == 1
    assert abs(snf.V.determinant()) == 1
    diag = snf.D.diagonal()
    # diagonal, nonnegative, nonzero entries first and chained by divisibility
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    factors = snf.invariant_factors
    assert list(factors) == [d for d in diag if d != 0]
    assert all(d == 0 for d in diag[len(factors):])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def make_witness():
    """Points s0..s11 of index 1 over m0..m11 of index 0, all with
    stabilizer 1, and a flow sj -> mi with count A[i][j] of
    ``witness_rows``."""
    rows = witness_rows()
    return MorseDatum(
        points=tuple([CriticalPointRecord(f"s{j}", 1, 1) for j in range(12)]
                     + [CriticalPointRecord(f"m{i}", 0, 1)
                        for i in range(12)]),
        flows=tuple(FlowCount(f"s{j}", f"m{i}", rows[i][j])
                    for j in range(12) for i in range(12)))


@pytest.fixture()
def refuse_transforms(monkeypatch):
    """Fail the test if anything asks the elimination for U, D and V."""
    from orbimorse import exact_linalg

    real = exact_linalg._factors_only

    def factors_only(rows, cols, nonzeros, transforms=False, **kwargs):
        if transforms:
            raise AssertionError("U, D and V were computed")
        return real(rows, cols, nonzeros, **kwargs)

    monkeypatch.setattr(exact_linalg, "_factors_only", factors_only)


@pytest.fixture()
def teardrop():
    return make_teardrop


@pytest.fixture()
def bean():
    return make_bean()


class PipelineRun:
    def __init__(self, surface, orbits, counter, datum, elapsed):
        self.surface = surface
        self.orbits = orbits
        self.counter = counter
        self.datum = datum
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def torus_run():
    start = time.perf_counter()
    surface = fn.torus_surface()
    orbits = fn.find_critical_orbits(surface)
    counter = fn.FlowLineCounter(surface, orbits)
    datum = fn.quotient_to_datum(surface, orbits, counter)
    return PipelineRun(surface, orbits, counter, datum,
                       time.perf_counter() - start)


class EpsilonRun(PipelineRun):
    def __init__(self, surface, pre_orbits, stabilized, orbits, counter,
                 datum, elapsed):
        super().__init__(stabilized, orbits, counter, datum, elapsed)
        self.raw_surface = surface
        self.pre_orbits = pre_orbits


@pytest.fixture(scope="session")
def epsilon_run():
    start = time.perf_counter()
    surface = fn.epsilon_sphere_surface()
    pre_orbits = fn.find_critical_orbits(surface)
    stabilized, orbits = fn.stabilize_all(surface, pre_orbits)
    counter = fn.FlowLineCounter(stabilized, orbits)
    datum = fn.quotient_to_datum(stabilized, orbits, counter)
    return EpsilonRun(surface, pre_orbits, stabilized, orbits, counter,
                      datum, time.perf_counter() - start)
