"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from orbimorse import flow_numerics as fn
from orbimorse.chain_complex import homology
from orbimorse.morse_datum import (
    coinvariant_complex,
    invariant_complex,
    orbifold_euler,
    ratio_identity_check,
    validate,
)
from orbimorse.simplicial_oracle import (
    builtin_space,
    compare_homology,
    projective_plane,
    simplicial_homology,
    suspension,
    builtin_space_names,
)
from orbimorse.stabilization import (
    builtin_sphere_datum,
    local_data_for,
    stabilize_point,
)
from orbimorse.exact_linalg import IntegerMatrix, smith_normal_form
from orbimorse.morse_datum import CriticalPointRecord, MorseDatum

from conftest import make_bean, make_teardrop
from test_morse_datum import random_valid_layered_datum
from test_stabilization import random_sphere_datum


def report(number, ok, description):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {state} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def profile(groups):
    return [(g.betti, tuple(g.torsion)) for g in groups]


def test_criterion_1_teardrop_family():
    start = time.perf_counter()
    ok = True
    for m, n in [(2, 3), (3, 4), (5, 5), (4, 6)]:
        datum = make_teardrop(m, n)
        co = profile(homology(coinvariant_complex(datum)))
        ok = ok and co == [(1, ()), (0, ()), (1, ())]
        g = math.gcd(m, n)
        expected0 = (1, (g,) if g > 1 else ())
        inv = profile(homology(invariant_complex(datum)))
        ok = ok and inv == [expected0, (0, ()), (1, ())]
        ok = ok and orbifold_euler(datum) == Fraction(1, m) + Fraction(1, n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, "two-cone-point sphere homology and Euler numbers for"
                  f" four (m, n) pairs in {elapsed:.3f}s")


def test_criterion_2_bean():
    start = time.perf_counter()
    datum = make_bean()
    co = profile(homology(coinvariant_complex(datum)))
    inv = profile(homology(invariant_complex(datum)))
    column = invariant_complex(datum).boundary(1).to_rows()
    elapsed = time.perf_counter() - start
    ok = (co == [(1, ()), (0, ()), (1, ())]
          and inv == [(1, (2,)), (0, ()), (1, ())]
          and column == [[2], [-2]]
          and elapsed < 1.0)
    report(2, ok, "half-turn bean quotient: weighted boundary (2, -2) and"
                  " degree-0 torsion Z/2")


def test_criterion_3_underlying_space_comparison():
    sphere = simplicial_homology(builtin_space("s2"))
    teardrop_co = homology(coinvariant_complex(make_teardrop(2, 3)))
    bean_co = homology(coinvariant_complex(make_bean()))
    ok = (compare_homology(teardrop_co, sphere).match
          and compare_homology(bean_co, sphere).match)
    report(3, ok, "coinvariant homology of both worked examples matches the"
                  " simplicial 2-sphere")


def test_criterion_4_stabilization_bookkeeping():
    ok = True
    # two-cone-point seed for several rotation orders
    for m in (2, 3, 5):
        seed = MorseDatum(
            points=(CriticalPointRecord("p", 2, m, stable=False),
                    CriticalPointRecord("q", 0, 7)),
            flows=(), ambient_dimension=2)
        h = builtin_sphere_datum("cyclic_rotation_circle", m)
        result = stabilize_point(seed, local_data_for(seed, "p", h), h)
        shapes = sorted((p.index, p.stab_order)
                        for p in result.datum.points if p.id != "q")
        ok = ok and shapes == [(0, m), (1, 1), (2, 1)]
    # suspension-of-projective-plane seed preserves the zero Euler number
    seed = MorseDatum(
        points=(CriticalPointRecord("p", 3, 2, stable=False),
                CriticalPointRecord("q", 0, 2)),
        flows=(), ambient_dimension=3)
    h = builtin_sphere_datum("antipodal_sphere2")
    result = stabilize_point(seed, local_data_for(seed, "p", h), h)
    ok = ok and orbifold_euler(seed) == 0
    ok = ok and orbifold_euler(result.datum) == 0
    # exact preservation over random sphere data
    rng = random.Random(90210)
    from orbimorse.stabilization import UnstableLocalData

    for _ in range(100):
        sphere = random_sphere_datum(rng)
        dim_perp = sphere.sphere_dim + 1
        dim_fixed = rng.randint(0, 2)
        seed = MorseDatum(
            points=(CriticalPointRecord("x", dim_fixed + dim_perp,
                                        sphere.group_order, stable=False),),
            flows=())
        local = UnstableLocalData("x", dim_fixed, dim_perp, sphere.group_order)
        result = stabilize_point(seed, local, sphere)
        ok = ok and orbifold_euler(result.datum) == orbifold_euler(seed)
    report(4, ok, "stabilization reproduces the worked point lists and"
                  " preserves the orbifold Euler number exactly")


def test_criterion_5_ratio_identity_fuzz():
    rng = random.Random(606060)
    ok = True
    checked = 0
    while checked < 100:
        datum = random_valid_layered_datum(rng)
        if not validate(datum).ok:
            continue
        ok = ok and ratio_identity_check(datum).ok
        checked += 1
    report(5, ok, "squared-boundary ratio identity holds on 100 fuzz datums"
                  " with arbitrary counts")


def test_criterion_6_smith_normal_form_suite():
    rng = random.Random(123456)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = IntegerMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        snf = smith_normal_form(matrix)
        ok = ok and (snf.U @ matrix @ snf.V) == snf.D
        ok = ok and abs(snf.U.determinant()) == 1
        ok = ok and abs(snf.V.determinant()) == 1
        factors = snf.invariant_factors
        ok = ok and all(b % a == 0 for a, b in zip(factors, factors[1:]))
        ok = ok and all(d > 0 for d in factors)
        if rows == cols:
            det = matrix.determinant()
            if det != 0:
                product = 1
                for d in factors:
                    product *= d
                ok = ok and product == abs(det)
    report(6, ok, "500 random decompositions: exact factorization,"
                  " unimodularity, divisibility chain, determinant")


def test_criterion_7_simplicial_oracle():
    start = time.perf_counter()
    from orbimorse.simplicial_oracle import boundary_of_simplex

    ok = profile(simplicial_homology(boundary_of_simplex(3))) == [
        (1, ()), (0, ()), (1, ())]
    rp2 = projective_plane()
    ok = ok and profile(simplicial_homology(rp2)) == [(1, ()), (0, (2,)), (0, ())]
    srp2 = simplicial_homology(suspension(rp2))
    ok = ok and profile(srp2) == [(1, ()), (0, ()), (0, (2,)), (0, ())]
    ok = ok and srp2[2].torsion == (2,)  # torsion lands in degree 2
    for name in builtin_space_names():
        K = builtin_space(name)
        base = simplicial_homology(K)
        lifted = simplicial_homology(suspension(K))
        reduced = [(g.betti - (1 if g.degree == 0 else 0), tuple(g.torsion))
                   for g in base]
        shifted = [(g.betti - (1 if g.degree == 0 else 0), tuple(g.torsion))
                   for g in lifted]
        ok = ok and shifted[0] == (0, ())
        ok = ok and shifted[1:] == reduced
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(7, ok, f"sphere, projective plane, suspension shift in {elapsed:.2f}s")


def test_criterion_8_numerical_torus(torus_run):
    orbits = torus_run.orbits
    ok = [o.index for o in orbits] == [2, 1, 1, 0]
    tilt = 0.25
    c = 1.0 / math.sqrt(1.0 + tilt * tilt)
    analytic = [np.array([2 + tilt * c, 0.0, c]),
                np.array([-(2 - tilt * c), 0.0, c]),
                np.array([2 - tilt * c, 0.0, -c]),
                np.array([-(2 + tilt * c), 0.0, -c])]
    for orbit in orbits:
        best = min(np.linalg.norm(orbit.representative.position - a)
                   for a in analytic)
        ok = ok and best < 1e-8
    co = coinvariant_complex(torus_run.datum)  # raises if boundary^2 != 0
    ok = ok and profile(homology(co)) == [(1, ()), (2, ()), (1, ())]
    ok = ok and torus_run.elapsed < 60.0
    report(8, ok, f"torus: 4 points at analytic positions, boundary^2 = 0,"
                  f" H = (Z, Z^2, Z) in {torus_run.elapsed:.1f}s")


def test_criterion_9_numerical_quotient_sphere(epsilon_run):
    pre = epsilon_run.pre_orbits
    unstable = sorted(o.label for o in pre if not o.stable)
    ok = unstable == ["north_pole", "south_pole"]

    # stabilizing one pole yields eight critical points upstairs: the
    # datum's points count |G| / stab_order lifts each
    unstable = MorseDatum(points=tuple(CriticalPointRecord(
        o.label, o.index, o.stab_order, o.stable) for o in pre), flows=(),
        ambient_dimension=2)
    swap = builtin_sphere_datum("two_points_swap")
    eight = stabilize_point(unstable, local_data_for(
        unstable, "north_pole", swap), swap).datum
    order = len(epsilon_run.raw_surface.group)
    ok = ok and sum(order // p.stab_order for p in eight.points) == 8
    ok = ok and [p.id for p in eight.points if not p.stable] == ["south_pole"]

    datum = epsilon_run.datum
    sphere = simplicial_homology(builtin_space("s2"))
    ok = ok and compare_homology(homology(coinvariant_complex(datum)),
                                 sphere).match
    inv0 = homology(invariant_complex(datum))[0]
    ok = ok and 2 in inv0.torsion
    ok = ok and epsilon_run.elapsed < 120.0
    report(9, ok, "quotient sphere: poles flagged, eight points after one"
                  f" pole stabilized, H_co = sphere, Z/2 in degree 0,"
                  f" {epsilon_run.elapsed:.1f}s")


def test_criterion_10_orientation_independence(torus_run, epsilon_run):
    ok = True
    for run, label in ((epsilon_run, "north_pole"), (epsilon_run, "min0"),
                       (torus_run, "saddle0")):
        reference = {(f.source, f.target): f.count for f in run.datum.flows}
        ref_co = profile(homology(coinvariant_complex(run.datum)))
        ref_in = profile(homology(invariant_complex(run.datum)))
        orbit = next(o for o in run.orbits if o.label == label)
        orbit.representative.orientation *= -1
        try:
            datum = fn.quotient_to_datum(run.surface, run.orbits)
        finally:
            orbit.representative.orientation *= -1
        counts = {(f.source, f.target): f.count for f in datum.flows}
        for pair, count in reference.items():
            expected = -count if label in pair else count
            ok = ok and counts[pair] == expected
        ok = ok and profile(homology(coinvariant_complex(datum))) == ref_co
        ok = ok and profile(homology(invariant_complex(datum))) == ref_in
    report(10, ok, "flipping one orientation negates that point's row and"
                   " column of counts and fixes all homology groups")
