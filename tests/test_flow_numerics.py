import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from orbimorse import flow_numerics as fn
from orbimorse.chain_complex import homology
from orbimorse.errors import (
    BadParams,
    BoundarySquaredNonzero,
    BrokenFlowDetected,
    DegenerateCritical,
    NonConvergentTrajectory,
    SeedGridExhausted,
    UnknownBuiltin,
    UnstableEndpoint,
    UnsupportedProfile,
)
from orbimorse.morse_datum import coinvariant_complex, invariant_complex, validate


def _load_tool(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the unit sphere with f = z^2 + x^2 / 2 and the antipodal group: its free
# quotient is the projective plane
antipodal_sphere_surface = _load_tool(
    "reference_digest").antipodal_sphere_surface


def profile(groups):
    return [(g.betti, tuple(g.torsion)) for g in groups]


def counts_of(datum):
    return {(f.source, f.target): f.count for f in datum.flows}


# signed counts of the stabilized epsilon sphere, the same across the
# epsilon range: the maximum's lines into each new saddle cancel, and each
# new saddle joins the old minimum and one former pole
EPSILON_COUNTS = {
    ("max0", "saddle0"): 0, ("max0", "saddle1"): 0,
    ("saddle0", "min0"): -1, ("saddle0", "south_pole"): 1,
    ("saddle0", "north_pole"): 0,
    ("saddle1", "min0"): -1, ("saddle1", "south_pole"): 0,
    ("saddle1", "north_pole"): 1,
}


class TestGroups:
    def test_closure(self):
        group = fn.group_from_generators(("rotation_pi_z",))
        assert len(group) == 2
        group = fn.group_from_generators(("rotation_pi_z", "antipodal"))
        assert len(group) == 4

    def test_identity_always_first(self):
        for names in ((), ("rotation_pi_z",), ("antipodal",),
                      ("rotation_pi_z", "antipodal")):
            group = fn.group_from_generators(names)
            assert np.array_equal(group[0], np.eye(3))

    def test_unknown_generator(self):
        with pytest.raises(BadParams):
            fn.group_from_generators(("spin",))

    def test_infinite_group_is_capped(self, monkeypatch):
        # a rotation by 1 radian has infinite order: closing it must stop
        # at the element cap instead of multiplying on
        c, s = math.cos(1.0), math.sin(1.0)
        monkeypatch.setitem(fn.GENERATOR_NAMES, "spin",
                            np.array([[c, -s, 0.0], [s, c, 0.0],
                                      [0.0, 0.0, 1.0]]))
        start = time.perf_counter()
        with pytest.raises(BadParams,
                           match="does not close into a small finite group"):
            fn.group_from_generators(["spin"])
        assert time.perf_counter() - start < 1.0


class TestSurfaceFromSpec:
    @pytest.mark.parametrize("kind, params, unknown", [
        ("sphere", {"radius": 3}, "radius"),
        ("torus", {"radius": 3}, "radius"),
        ("torus", {"tilt": 0.3, "radius": 3, "genus": 2}, "genus, radius"),
        ("epsilon_sphere", {"tilt": 0.3}, "tilt"),
    ])
    def test_unknown_parameters_rejected(self, kind, params, unknown):
        with pytest.raises(BadParams, match=f"{kind!r} does not take {unknown};"):
            fn.surface_from_spec(kind, params)

    def test_known_parameters_and_kinds(self):
        torus = fn.surface_from_spec("torus", {"tilt": 0.3, "major": 3.0})
        assert torus.morse_jet(np.array([[1.0], [0.0], [0.0]]), 0)[0] == 0.3
        assert len(fn.surface_from_spec("epsilon_sphere", {}).group) == 2
        with pytest.raises(UnknownBuiltin):
            fn.surface_from_spec("moebius")

    @pytest.mark.parametrize("kind, group, order", [
        ("epsilon_sphere", None, 2), ("epsilon_sphere", [], 1),
        ("epsilon_sphere", (), 1), ("sphere", None, 1),
        ("sphere", ["antipodal"], 2)])
    def test_group_default_only_for_none(self, kind, group, order):
        # an empty group used to be replaced by epsilon_sphere's half-turn,
        # though epsilon_sphere_surface(group=()) gives the trivial group
        assert len(fn.surface_from_spec(kind, {}, group).group) == order


class TestInputValues:
    """A tolerance or surface parameter of the wrong value raises BadParams
    naming it, and a kind that is not a kind name UnknownBuiltin, within a
    second: none hangs, escapes as a bare Python or numpy error, or is
    blamed on the seed grid."""

    @pytest.mark.parametrize(
        "kind, params, group, tolerances, error, named", [
        ("torus", {}, (), {"degeneracy_tol": math.nan}, BadParams,
         "tolerances.degeneracy_tol: expected a positive number, got nan"),
        ("torus", {}, (), {"seed_radii": ()}, BadParams,
         "tolerances.seed_radii: expected a non-empty list"),
        ("torus", {"tilt": math.nan}, (), {}, BadParams,
         "surface parameter tilt: expected a finite number, got nan"),
        ("epsilon_sphere", {"epsilon": math.nan}, (), {}, BadParams,
         "surface parameter epsilon: expected a finite number, got nan"),
        ("torus", {}, (), {"newton_tol": math.nan}, BadParams,
         "tolerances.newton_tol: expected a positive number, got nan"),
        ("torus", {}, (), {"escape_radius": -1}, BadParams,
         "tolerances.escape_radius: expected a positive number, got -1"),
        ("torus", {}, (), {"seed_count": 0}, BadParams,
         "tolerances.seed_count: expected a positive integer, got 0"),
        ("torus", {}, (), {"stab_tol": -1}, BadParams,
         "tolerances.stab_tol: expected a positive number, got -1"),
        ("torus", {"tilt": "0.3"}, (), {}, BadParams,
         "surface parameter tilt: expected a finite number, got '0.3'"),
        ("sphere", {}, "antipodal", {}, BadParams,
         "expected generator names, got the string 'antipodal'"),
        (["torus"], {}, (), {}, UnknownBuiltin,
         "unknown surface kind ['torus']"),
    ], ids=["degeneracy_tol", "seed_radii", "tilt", "epsilon", "newton_tol",
            "escape_radius", "seed_count", "stab_tol", "tilt-string",
            "group-string", "kind-list"])
    def test_rejected(self, kind, params, group, tolerances, error, named):
        start = time.perf_counter()
        with pytest.raises(error, match=re.escape(named)):
            fn.find_critical_orbits(fn.surface_from_spec(
                kind, params, group, fn.Tolerances(**tolerances)))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("build, named", [
        (lambda: fn.surface_from_spec("torus", "tilt"),
         "params: expected a mapping, got 'tilt'"),
        (lambda: fn.surface_from_spec("torus", [1, 2]),
         "params: expected a mapping, got [1, 2]"),
        (lambda: fn.surface_from_spec("torus", 5),
         "params: expected a mapping, got 5"),
        (lambda: fn.group_from_generators(5),
         "group: expected generator names, got 5"),
        (lambda: fn.group_from_generators(None),
         "group: expected generator names, got None"),
        (lambda: fn.group_from_generators([["x"]]),
         "group: unknown generator ['x']; choose from"),
        (lambda: fn.sphere_surface(group=None),
         "group: expected generator names, got None"),
    ], ids=["params-string", "params-list", "params-number", "group-number",
            "group-none", "group-nested-list", "sphere-group-none"])
    def test_wrong_shape_rejected(self, build, named):
        # each escaped as a bare ValueError or TypeError
        with pytest.raises(BadParams, match=re.escape(named)):
            build()

    @pytest.mark.parametrize("dedup_tol", [0, -1])
    def test_dedup_tol_rejected_within_time_bound(self, dedup_tol):
        # In a child process: the duplicate merge never ended at
        # dedup_tol <= 0, and a hang must fail the test after 10 s.
        script = (
            "import json, sys\n"
            "from orbimorse import flow_numerics as fn\n"
            "from orbimorse.errors import BadParams\n"
            "try:\n"
            "    fn.find_critical_orbits(fn.torus_surface(tolerances="
            "fn.Tolerances(dedup_tol=json.loads(sys.argv[1]))))\n"
            "except BadParams as exc:\n"
            "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(fn.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(dedup_tol)],
            capture_output=True, text=True, timeout=10, env=env, check=True)
        assert done.stdout == ("tolerances.dedup_tol: expected a positive"
                               f" number, got {dedup_tol}\n")

    def test_tolerances_stored_checked(self):
        tols = fn.Tolerances(seed_radii=[1, 2.5], seed_count=np.int64(8))
        assert tols.seed_radii == (1, 2.5)
        assert dataclasses.replace(tols) == tols
        assert len(dataclasses.fields(fn.Tolerances)) == 7
        for value in (True, 2.0, "8"):
            with pytest.raises(BadParams, match="tolerances.seed_count"):
                fn.Tolerances(seed_count=value)
        with pytest.raises(BadParams, match="tolerances.seed_radii"):
            fn.Tolerances(seed_radii=[1.0, math.inf])


class TestSurfaceChecks:
    def test_sphere_passes(self):
        fn.check_surface(fn.sphere_surface())

    def test_epsilon_sphere_passes(self):
        fn.check_surface(fn.epsilon_sphere_surface())

    def test_array_and_list_groups_pass(self):
        surface = fn.epsilon_sphere_surface()
        for given in (np.array(surface.group),
                      [g.tolist() for g in surface.group]):
            fn.check_surface(dataclasses.replace(surface, group=given))

    def test_non_invariant_function_rejected(self):
        # the antipodal map negates the height, so invariance fails
        surface = fn.sphere_surface(group=("antipodal",))
        with pytest.raises(BadParams):
            fn.check_surface(surface)

    REJECTED = [
        ({"group": ()}, "must at least contain the identity"),
        ({"group": (np.eye(3), np.diag([2.0, 1.0, 1.0]))},
         "non-orthogonal matrix"),
        ({"group": np.stack([np.eye(3), np.diag([-1.0, -1.0, 1.0]),
                             np.diag([2.0, 1.0, 1.0])])},
         "non-orthogonal matrix"),
        ({"group": (np.eye(2),)}, r"shape \(1, 2, 2\), not \(k, 3, 3\)"),
        ({"group": (np.eye(3), np.full((3, 3), "a"))},
         "expected 3 x 3 matrices; could not convert string"),
        ({"group": (np.eye(3), "x")}, "expected 3 x 3 matrices"),
        ({"group": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]])},
         "expected 3 x 3 matrices"),
        ({"group": (np.eye(3), np.full((3, 3), np.nan))},
         "non-finite or non-orthogonal matrix"),
        ({"group": (np.eye(3), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0]]))},
         "not closed under products"),
        ({"group": (np.eye(3), np.diag([-1.0, 1.0, 1.0]),
                    np.diag([1.0, -1.0, 1.0]))},
         "not closed under products"),
        ({"level_jet": lambda x, order: (np.einsum("ij,ij->j", x, x) + 1.0,
                                         2.0 * x)[:order + 1]},
         "could not project the sample grid"),
        ({"level_jet": lambda x, order: fn._sphere_level(
            x - [[0.1], [0.0], [0.0]], order),
          "group": fn.group_from_generators(("rotation_pi_z",))},
         "level function is not group invariant"),
        ({"euler_characteristic": None},
         "euler_characteristic: expected an integer, got None"),
        ({"euler_characteristic": True},
         "euler_characteristic: expected an integer, got True"),
    ]
    REJECTED_IDS = ["empty", "non-orthogonal", "array-non-orthogonal", "2x2",
                    "string-matrix", "string-entry", "ragged-lists", "nan",
                    "inverses", "products", "no-zero", "level-not-invariant",
                    "euler-none", "euler-bool"]

    @pytest.mark.parametrize("change, message", REJECTED, ids=REJECTED_IDS)
    def test_rejections(self, change, message):
        # F = |x|^2 + 1 has no zero, so its samples are projected toward a
        # surface they never reach
        surface = dataclasses.replace(fn.sphere_surface(), **change)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BadParams, match=message):
                fn.check_surface(surface)

    @pytest.mark.parametrize("change, message", REJECTED, ids=REJECTED_IDS)
    def test_replaced_surface_checked_in_full(self, monkeypatch, change,
                                              message):
        # a checked surface keeps its samples, and a second check of it
        # projects nothing; a surface replaced from it keeps none, so the
        # checks its stored samples stand for run again
        surface = fn.sphere_surface()
        fn.check_surface(surface)
        calls = counted_projections(monkeypatch)
        fn.check_surface(surface)
        assert calls == []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BadParams, match=message):
                fn.check_surface(dataclasses.replace(surface, **change))

    def test_degenerate_height_rejected(self):
        with pytest.raises(BadParams):
            fn.torus_surface(tilt=0.0)

    @pytest.mark.parametrize("params", [
        {"major": 0.5}, {"major": 1.0}, {"minor": 0.0}],
        ids=["spindle", "horn", "no-tube"])
    def test_singular_torus_rejected(self, params):
        # a spindle or horn torus meets its axis and a tube of radius 0 is a
        # circle: neither is a smooth surface.  The spindle's census ran to
        # the step budget and failed after ~15 s
        start = time.perf_counter()
        with pytest.raises(BadParams, match="need 0 < minor < major"):
            fn.torus_surface(**params)
        assert time.perf_counter() - start < 1.0

    def test_degenerate_critical_point_detected(self):
        # plain height on the torus of revolution is critical along two
        # whole circles; the tangent Hessian there has a zero eigenvalue
        degenerate = dataclasses.replace(
            fn.torus_surface(), morse_jet=fn._quadric((0.0, 0.0, 1.0)))
        with pytest.raises(DegenerateCritical):
            fn.find_critical_orbits(degenerate)

    def test_euler_check_cannot_be_skipped(self):
        # a single seed radius misses the torus's saddles: the count of
        # max0 and min0 is a sphere's 2, not the torus's 0
        surface = fn.torus_surface(
            tolerances=fn.Tolerances(seed_count=6, seed_radii=(3.2,)))
        with pytest.raises(SeedGridExhausted,
                           match="alternating critical count 2"):
            fn.find_critical_orbits(surface)
        with pytest.raises(BadParams, match="euler_characteristic"):
            fn.find_critical_orbits(dataclasses.replace(
                surface, euler_characteristic=None))

    def test_numpy_integer_euler_characteristic_accepted(self):
        fn.check_surface(dataclasses.replace(
            fn.sphere_surface(), euler_characteristic=np.int64(2)))


class TestSphere:
    def test_poles(self):
        orbits = fn.find_critical_orbits(fn.sphere_surface())
        assert [(o.index, o.stab_order, o.stable) for o in orbits] == [
            (2, 1, True), (0, 1, True)]
        top, bottom = orbits
        assert np.allclose(top.representative.position, [0, 0, 1], atol=1e-9)
        assert np.allclose(bottom.representative.position, [0, 0, -1], atol=1e-9)

    def test_datum_has_no_gap_one_pairs(self):
        surface = fn.sphere_surface()
        orbits = fn.find_critical_orbits(surface)
        datum = fn.quotient_to_datum(surface, orbits)
        assert [(p.index, p.stab_order) for p in datum.points] == [(2, 1), (0, 1)]
        assert datum.flows == ()
        assert profile(homology(coinvariant_complex(datum))) == [
            (1, ()), (0, ()), (1, ())]

    def test_gap_two_count_refused(self):
        surface = fn.sphere_surface()
        orbits = fn.find_critical_orbits(surface)
        with pytest.raises(BadParams):
            fn.FlowLineCounter(surface, orbits).count(orbits[0], orbits[1])

    def test_euler_mismatch_detected(self):
        surface = dataclasses.replace(fn.sphere_surface(),
                                      euler_characteristic=0)
        with pytest.raises(SeedGridExhausted):
            fn.find_critical_orbits(surface)

    def test_empty_critical_set_detected(self):
        # Newton never meets a residual of 1e-300, so no point is found; the
        # Euler count 0 matches the torus, the missing extrema do not
        surface = fn.torus_surface(tolerances=fn.Tolerances(newton_tol=1e-300))
        with pytest.raises(SeedGridExhausted, match="no minimum and no maximum"):
            fn.find_critical_orbits(surface)


class TestTorus(object):
    def test_four_points_at_analytic_positions(self, torus_run):
        orbits = torus_run.orbits
        assert [o.index for o in orbits] == [2, 1, 1, 0]
        tilt = 0.25
        c = 1.0 / math.sqrt(1.0 + tilt * tilt)
        expected = {
            2: [np.array([2 + tilt * c, 0.0, c])],
            1: [np.array([-(2 - tilt * c), 0.0, c]),
                np.array([2 - tilt * c, 0.0, -c])],
            0: [np.array([-(2 + tilt * c), 0.0, -c])],
        }
        for orbit in orbits:
            candidates = expected[orbit.index]
            pos = orbit.representative.position
            assert min(np.linalg.norm(pos - e) for e in candidates) < 1e-8

    def test_all_counts_cancel(self, torus_run):
        counts = {(f.source, f.target): f.count for f in torus_run.datum.flows}
        assert len(counts) == 4
        assert all(v == 0 for v in counts.values())

    def test_homology(self, torus_run):
        assert profile(homology(coinvariant_complex(torus_run.datum))) == [
            (1, ()), (2, ()), (1, ())]
        # trivial stabilizers: both complexes coincide
        assert profile(homology(invariant_complex(torus_run.datum))) == [
            (1, ()), (2, ()), (1, ())]

    def test_datum_valid(self, torus_run):
        assert validate(torus_run.datum).ok

    def test_determinism(self, torus_run):
        surface = fn.torus_surface()
        orbits = fn.find_critical_orbits(surface)
        for a, b in zip(orbits, torus_run.orbits):
            assert np.array_equal(a.representative.position,
                                  b.representative.position)
        datum = fn.quotient_to_datum(surface, orbits)
        assert datum == torus_run.datum

    def test_seed_grid_smaller_than_the_surface(self):
        # the seeds reach only the inner wall of a torus ten times too big
        with pytest.raises(SeedGridExhausted) as info:
            fn.find_critical_orbits(fn.torus_surface(major=20, minor=10))
        message = str(info.value)
        assert "no minimum and no maximum" in message
        assert "seeds at radii (0.6, 1.0, 1.8, 2.6, 3.2)" in message
        assert "project onto the surface at radii 10 to 10.3" in message

    def test_saddle_connection_detected(self):
        # f = x on the torus of revolution: the saddles at (+-1, 0, 0) are
        # joined by both arcs of the inner equator, so the pair is not
        # Morse-Smale
        surface = dataclasses.replace(
            fn.torus_surface(), morse_jet=fn._quadric((1.0, 0.0, 0.0)))
        orbits = fn.find_critical_orbits(surface)
        assert [o.index for o in orbits] == [2, 1, 1, 0]
        with pytest.raises(BrokenFlowDetected):
            fn.quotient_to_datum(surface, orbits)


class TestEpsilonSphere:
    def test_four_orbits_two_unstable_poles(self, epsilon_run):
        orbits = epsilon_run.pre_orbits
        assert len(orbits) == 4
        by_label = {o.label: o for o in orbits}
        assert not by_label["north_pole"].stable
        assert not by_label["south_pole"].stable
        assert by_label["north_pole"].index == 1
        assert by_label["south_pole"].index == 1
        assert by_label["north_pole"].stab_order == 2
        free = [o for o in orbits if o.label not in ("north_pole", "south_pole")]
        assert sorted(o.index for o in free) == [0, 2]
        assert all(o.stab_order == 1 and len(o.points) == 2 for o in free)

    def test_analytic_positions(self, epsilon_run):
        eps = 0.8
        z = 1.0 / (2.0 * eps)
        x0 = math.sqrt(1.0 - z * z)
        by_label = {o.label: o for o in epsilon_run.pre_orbits}
        maxima = by_label["max0"]
        positions = sorted(tuple(np.round(p.position, 8)) for p in maxima.points)
        assert np.allclose(positions[0], (-x0, 0, z), atol=1e-8)
        assert np.allclose(positions[1], (x0, 0, z), atol=1e-8)
        minima = by_label["min0"]
        positions = sorted(tuple(np.round(p.position, 8)) for p in minima.points)
        assert np.allclose(positions[0], (0, -x0, -z), atol=1e-8)
        assert np.allclose(positions[1], (0, x0, -z), atol=1e-8)

    def test_unstable_direction_is_reversed_line(self, epsilon_run):
        by_label = {o.label: o for o in epsilon_run.pre_orbits}
        north = by_label["north_pole"].representative
        v = north.negative_frame[0]
        # the descending line at each pole points along y
        assert abs(abs(v[1]) - 1.0) < 1e-8
        rotation = fn.GENERATOR_NAMES["rotation_pi_z"]
        assert np.allclose(rotation @ v, -v, atol=1e-8)

    def test_stabilized_upstairs_population(self, epsilon_run):
        assert sum(len(o.points) for o in epsilon_run.orbits) == 10
        shapes = sorted((o.index, o.stab_order) for o in epsilon_run.orbits)
        assert shapes == [(0, 1), (0, 2), (0, 2), (1, 1), (1, 1), (2, 1)]
        assert all(o.stable for o in epsilon_run.orbits)

    def test_single_pole_stabilization_gives_eight_points(self, epsilon_run):
        surface = epsilon_run.raw_surface
        orbits = epsilon_run.pre_orbits
        north = next(o for o in orbits if o.label == "north_pole")
        bumped = fn.stabilize_numeric(surface, north.representative, orbits)
        seeds = [p.position for o in orbits for p in o.points]
        v = north.representative.negative_frame[0]
        width = 0.25 * 0.8660254  # quarter of the pole-to-maximum distance
        for t in (0.4, 0.8, 1.2, 1.6, 2.2):
            seeds.append(north.representative.position + t * width * v)
            seeds.append(north.representative.position - t * width * v)
        new_orbits = fn.find_critical_orbits(bumped, extra_seeds=np.array(seeds))
        assert sum(len(o.points) for o in new_orbits) == 8
        still_unstable = [o.label for o in new_orbits if not o.stable]
        assert still_unstable == ["south_pole"]

    def test_inconsistent_counts_named(self, monkeypatch, epsilon_run):
        # max0 -> saddle0 counts 0 and saddle0 -> min0 counts -1, so a count
        # of 1 for the first squares the boundary to -1 at max0 -> min0.
        # (No single count can do that on the torus, whose counts are all
        # zero: every entry of the square is a product of two counts.)
        count = fn.FlowLineCounter.count

        def miscounted(self, source, target):
            wrong = (source.label, target.label) == ("max0", "saddle0")
            return count(self, source, target) + wrong

        monkeypatch.setattr(fn.FlowLineCounter, "count", miscounted)
        with pytest.raises(BoundarySquaredNonzero, match=(
                "probably settled at the wrong critical point")):
            fn.quotient_to_datum(epsilon_run.surface, epsilon_run.orbits,
                                 epsilon_run.counter)

    def test_quotient_homology(self, epsilon_run):
        datum = epsilon_run.datum
        assert counts_of(datum) == EPSILON_COUNTS
        assert profile(homology(coinvariant_complex(datum))) == [
            (1, ()), (0, ()), (1, ())]
        groups = homology(invariant_complex(datum))
        assert (groups[0].betti, groups[0].torsion) == (1, (2,))

    def test_unstable_endpoint_errors(self, epsilon_run):
        surface = epsilon_run.raw_surface
        orbits = epsilon_run.pre_orbits
        with pytest.raises(UnstableEndpoint):
            fn.quotient_to_datum(surface, orbits)
        north = next(o for o in orbits if o.label == "north_pole")
        min0 = next(o for o in orbits if o.label == "min0")
        with pytest.raises(UnstableEndpoint):
            fn.FlowLineCounter(surface, orbits).count(north, min0)


class TestStabilizeNumericGates:
    def test_stable_point_rejected(self, epsilon_run):
        orbits = epsilon_run.pre_orbits
        stable_orbit = next(o for o in orbits if o.label == "max0")
        with pytest.raises(UnsupportedProfile):
            fn.stabilize_numeric(epsilon_run.raw_surface,
                                 stable_orbit.representative, orbits)


class TestOrientationIndependence:
    def test_flip_negates_counts_and_preserves_homology(self, epsilon_run):
        datum = epsilon_run.datum
        reference = {(f.source, f.target): f.count for f in datum.flows}
        ref_co = profile(homology(coinvariant_complex(datum)))
        ref_in = profile(homology(invariant_complex(datum)))
        for flipped_label in ("saddle0", "min0", "north_pole"):
            orbits = epsilon_run.orbits
            flipped_orbit = next(o for o in orbits if o.label == flipped_label)
            flipped_orbit.representative.orientation *= -1
            try:
                counter = fn.FlowLineCounter(epsilon_run.surface, orbits)
                new_datum = fn.quotient_to_datum(epsilon_run.surface, orbits,
                                                 counter)
            finally:
                flipped_orbit.representative.orientation *= -1
            new_counts = {(f.source, f.target): f.count for f in new_datum.flows}
            for pair, count in reference.items():
                expected = -count if flipped_label in pair else count
                assert new_counts[pair] == expected
            assert profile(homology(coinvariant_complex(new_datum))) == ref_co
            assert profile(homology(invariant_complex(new_datum))) == ref_in

    def test_flip_on_torus(self, torus_run):
        # all torus counts are zero, so flipping must leave them zero
        orbits = torus_run.orbits
        orbits[1].representative.orientation *= -1
        try:
            datum = fn.quotient_to_datum(torus_run.surface, orbits)
        finally:
            orbits[1].representative.orientation *= -1
        assert datum == torus_run.datum


class TestCounterReuse:
    def test_unknown_orbit_rejected(self, epsilon_run):
        known = epsilon_run.orbits[0]
        message = "orbit 'nosuch' is not part of this counter"
        with pytest.raises(BadParams, match=message):
            epsilon_run.counter.count("nosuch", known)
        with pytest.raises(BadParams, match=message):
            epsilon_run.counter.count(known, "nosuch")


class TestFrameConsistency:
    def test_lift_frames_are_pushforwards_of_the_representative(self, epsilon_run):
        # every lift's stored frame must be the group image of the
        # representative's frame under the recorded lift element; this is
        # what makes signed counts into different lifts mutually consistent
        for orbits in (epsilon_run.pre_orbits, epsilon_run.orbits):
            for orbit in orbits:
                rep = orbit.representative
                group = epsilon_run.raw_surface.group
                assert np.array_equal(group[orbit.lift_elements[0]], np.eye(3))
                for point, gi in zip(orbit.points, orbit.lift_elements):
                    g = group[gi]
                    assert np.allclose(g @ rep.position, point.position,
                                       atol=1e-9)
                    assert np.allclose(rep.negative_frame @ g.T,
                                       point.negative_frame, atol=1e-9)


class TestOrbitsFromRepresentatives:
    def test_one_lift_per_orbit_suffices(self, monkeypatch, epsilon_run):
        # the partition builds every lift as a distinct point of
        # [rep; g @ rep], so Newton finding one lift per orbit is enough:
        # keeping only the points with x + y >= -1e-9 drops one lift of
        # each two-lift orbit (the half-turn negates x and y) and keeps
        # the poles, which lie on the axis
        newton = fn._newton_critical_points
        kept = []

        def one_lift(surface, seeds, *starts):
            found = newton(surface, seeds, *starts)
            kept.append(found[found[:, 0] + found[:, 1] >= -1e-9])
            return kept[-1]

        monkeypatch.setattr(fn, "_newton_critical_points", one_lift)
        stabilized, orbits = fn.stabilize_all(epsilon_run.raw_surface,
                                              epsilon_run.pre_orbits)
        tol = stabilized.tolerances.dedup_tol
        full = epsilon_run.orbits
        assert len(kept) == 1
        for orbit in full:
            reached = [np.linalg.norm(kept[0] - p.position, axis=1).min() < tol
                       for p in orbit.points]
            assert sum(reached) == 1

        def shape(orbit):
            return orbit.index, orbit.stab_order, len(orbit.points)

        # each representative is the first lift of its whole orbit in
        # sorted order, not the first lift Newton found, so the orbits sort
        # and are labelled as in the full run (taking the first found lift
        # swapped saddle0 and saddle1 here)
        assert sorted(map(shape, orbits)) == sorted(map(shape, full))
        matched = []
        for reference in full:
            same = [i for i, o in enumerate(orbits) if all(
                np.linalg.norm([q.position for q in o.points] - p.position,
                               axis=1).min() < tol for p in reference.points)]
            assert len(same) == 1
            assert shape(orbits[same[0]]) == shape(reference)
            matched += same
        assert matched == list(range(len(full)))
        assert [o.label for o in orbits] == [o.label for o in full]
        assert fn.quotient_to_datum(stabilized, orbits) == epsilon_run.datum


class TestAntipodalQuotient:
    """The free antipodal quotient is a projective plane: its torsion must
    emerge from the signed counts alone, which pins down the absolute sign
    relation between flows into different lifts of one orbit."""

    def test_projective_plane_from_counting(self):
        from orbimorse.simplicial_oracle import (
            builtin_space, compare_homology, simplicial_homology)

        surface = antipodal_sphere_surface()
        orbits = fn.find_critical_orbits(surface)
        assert [(o.index, o.stab_order, len(o.points)) for o in orbits] == [
            (2, 1, 2), (1, 1, 2), (0, 1, 2)]
        assert all(o.stable for o in orbits)
        datum = fn.quotient_to_datum(surface, orbits)
        counts = counts_of(datum)
        assert counts[("max0", "saddle0")] == 2
        assert counts[("saddle0", "min0")] == 0
        # the maximum's frame does not enter its counts: swapping its two
        # vectors changes nothing, and its stored orientation sign is the
        # only orientation choice
        for point in orbits[0].points:
            point.negative_frame = point.negative_frame[::-1].copy()
        swapped = counts_of(fn.quotient_to_datum(surface, orbits))
        assert swapped[("max0", "saddle0")] == 2
        orbits[0].representative.orientation *= -1
        flipped = counts_of(fn.quotient_to_datum(surface, orbits))
        assert flipped[("max0", "saddle0")] == -2
        co = homology(coinvariant_complex(datum))
        assert profile(co) == [(1, ()), (0, (2,)), (0, ())]
        reference = simplicial_homology(builtin_space("rp2"))
        assert compare_homology(co, reference).match


def central_difference(field, x, h=1e-6):
    """Central differences of ``field`` at the component rows ``x`` (3, n)
    along each axis, stacked after the output's leading axis."""
    return np.stack([(field(x + step) - field(x - step)) / (2.0 * h)
                     for step in h * np.eye(3)[:, :, None]], axis=-2)


ENTRIES = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])  # xx, xy, xz, yy, yz, zz


def entry_rows(h):
    """The six entry rows (6, n) of symmetric matrices ``h`` (n, 3, 3)."""
    return h[:, ENTRIES[0], ENTRIES[1]].T


class TestFieldContract:
    """A jet takes component rows (3, n) and returns the value (n,), the
    gradient (3, n) and the Hessian's entry rows (6, n) up to its order.
    Each derivative matches central differences of the order below (they
    err by less than 1e-8 on these points), the lower orders are the
    leading outputs of order 2 bit for bit, and F and f are invariant:
    F(gx) = F(x), grad(gx) = g grad(x) and H(gx) = g H g^T."""

    @pytest.fixture(scope="class")
    def cases(self, epsilon_run):
        rng = np.random.default_rng(7)
        box = rng.uniform(-1.5, 1.5, (3, 50))
        # 0.1 to 0.3 from the z-axis, where the torus' sqrt bends hardest
        r, t = rng.uniform(0.1, 0.3, 50), rng.uniform(0.0, 2.0 * np.pi, 50)
        near_axis = np.stack(
            [r * np.cos(t), r * np.sin(t), rng.uniform(-1.0, 1.0, 50)])
        north = next(o for o in epsilon_run.pre_orbits
                     if o.label == "north_pole").representative
        near_north = north.position[:, None] + rng.uniform(-0.4, 0.4, (3, 50))
        return {
            "sphere": (fn.sphere_surface(group=("rotation_pi_z",)), box),
            "torus": (fn.torus_surface(), 2.0 * box),
            "torus-0.02": (fn.torus_surface(tilt=0.02), 2.0 * box),
            "torus-0.5": (fn.torus_surface(tilt=0.5), 2.0 * box),
            "torus_near_axis": (fn.torus_surface(), near_axis),
            "epsilon_sphere": (fn.epsilon_sphere_surface(), box),
            "antipodal_sphere": (antipodal_sphere_surface(), box),
            # the north pole bumped alone, and both poles, as stabilize_all
            # bumps them
            "bumped_north_pole": (fn.stabilize_numeric(
                epsilon_run.raw_surface, north, epsilon_run.pre_orbits),
                near_north),
            "bumped_epsilon_0.8": (epsilon_run.surface, near_north),
        }

    NAMES = ["sphere", "torus", "torus-0.02", "torus-0.5", "torus_near_axis",
             "epsilon_sphere", "antipodal_sphere", "bumped_north_pole",
             "bumped_epsilon_0.8"]

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("name", NAMES)
    def test_shapes_and_derivatives(self, cases, name, n):
        surface, points = cases[name]
        x = points[:, :n]
        for jet in (surface.level_jet, surface.morse_jet):
            value, grad, hess = jet(x, 2)
            assert (value.shape, grad.shape, hess.shape) == (
                (n,), (3, n), (6, n))
            assert np.max(np.abs(central_difference(
                lambda y: jet(y, 0)[0], x) - grad)) < 1e-6
            matrices = central_difference(lambda y: jet(y, 1)[1], x)
            assert np.max(np.abs(entry_rows(np.moveaxis(matrices, -1, 0))
                                 - hess)) < 1e-6

    @pytest.mark.parametrize("name", NAMES)
    def test_lower_orders_lead_order_two(self, cases, name):
        surface, x = cases[name]
        for jet in (surface.level_jet, surface.morse_jet):
            full = jet(x, 2)
            for order in (0, 1):
                lower = jet(x, order)
                assert len(lower) == order + 1
                for got, want in zip(lower, full):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("name", NAMES)
    def test_gradient_only(self, cases, name, n):
        # value=False gives None for the value and moves no byte of the
        # gradient or the Hessian
        surface, points = cases[name]
        x = points[:, :n]
        for jet in (surface.level_jet, surface.morse_jet):
            for order in (1, 2):
                full, bare = jet(x, order), jet(x, order, value=False)
                assert len(bare) == order + 1 and bare[0] is None
                for got, want in zip(bare[1:], full[1:]):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    def test_group_invariance(self, cases, name):
        # F of the sphere and of the torus is invariant under the half-turn
        # and the antipodal map, f under the surface's group
        surface, x = cases[name]
        both = fn.group_from_generators(("rotation_pi_z", "antipodal"))
        for jet, group in ((surface.level_jet, both),
                           (surface.morse_jet, surface.group)):
            value, grad, hess = jet(x, 2)
            matrices = fn._hess_matrices(hess)
            for g in group:
                moved = jet(g @ x, 2)
                for got, want in ((moved[0], value), (moved[1], g @ grad), (
                        fn._hess_matrices(moved[2]), g @ matrices @ g.T)):
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12)


class TestParameterRobustness:
    @pytest.mark.parametrize("epsilon", [0.6, 1.5])
    def test_quotient_pipeline_across_epsilon(self, epsilon):
        surface = fn.epsilon_sphere_surface(epsilon=epsilon)
        orbits = fn.find_critical_orbits(surface)
        stabilized, orbits = fn.stabilize_all(surface, orbits)
        datum = fn.quotient_to_datum(stabilized, orbits)
        assert counts_of(datum) == EPSILON_COUNTS
        assert profile(homology(coinvariant_complex(datum))) == [
            (1, ()), (0, ()), (1, ())]
        groups = homology(invariant_complex(datum))
        assert (groups[0].betti, groups[0].torsion) == (1, (2,))


class TestGroupOrder:
    def test_identity_last(self, epsilon_run):
        # the identity index of each orbit's representative is looked up,
        # not assumed to be 0
        base = fn.epsilon_sphere_surface()
        surface = dataclasses.replace(base, group=base.group[::-1])
        assert np.array_equal(surface.group[-1], np.eye(3))
        pre_orbits = fn.find_critical_orbits(surface)
        stabilized, orbits = fn.stabilize_all(surface, pre_orbits)
        for orbit in pre_orbits + orbits:
            assert np.array_equal(surface.group[orbit.lift_elements[0]],
                                  np.eye(3))
        assert fn.quotient_to_datum(stabilized, orbits) == epsilon_run.datum


class TestCensusWork:
    def test_step_budget_exhausted(self, monkeypatch):
        surface = fn.torus_surface(tilt=0.25)
        orbits = fn.find_critical_orbits(surface)
        monkeypatch.setattr(fn, "_MAX_STEPS", 3)
        with pytest.raises(NonConvergentTrajectory, match="step budget"):
            fn.quotient_to_datum(surface, orbits)

    def test_torus_census_step_count(self, monkeypatch):
        # every census step evaluates the velocity four times (RK4); each
        # step is the RK4 stability bound at the local rate of the flow, and
        # a branch ends once f has passed every critical value but its
        # end's; integrated to the capture radius the census took 199 steps.
        # A branch's own saddle orbit is no candidate end, so the ascending
        # branches of the upper saddle and the descending ones of the lower
        # end at step 0 (counting that value, they crept away from their
        # saddle for 18 steps).  The last call finds every branch ended and
        # takes no step.
        surface = fn.torus_surface(tilt=0.25)
        orbits = fn.find_critical_orbits(surface)
        calls = counted_velocity(monkeypatch)
        fn.quotient_to_datum(surface, orbits)
        assert len(calls) == 4 * 9 + 1

    def test_small_tilt_census_step_count(self, monkeypatch):
        # the critical values crowd together at a small tilt; integrated to
        # the capture radius the census took 2,341 steps
        surface = fn.torus_surface(tilt=0.02)
        orbits = fn.find_critical_orbits(surface)
        calls = counted_velocity(monkeypatch)
        fn.quotient_to_datum(surface, orbits)
        assert len(calls) <= 4 * 400 + 1

    @pytest.mark.parametrize("run, most", [("torus_run", 73),
                                           ("epsilon_run", 400)])
    def test_velocity_calls(self, monkeypatch, request, run, most):
        # an arc-length step and a cap at the stiffest critical point took
        # 1,849 calls on the torus (tilt 0.25) and 1,053 on the stabilized
        # epsilon = 0.8 sphere; steps at the local rate took 797 and 249, and
        # ending torus branches by critical values 73 (the epsilon sphere's
        # extreme values are each shared by two lifts, so none ends early)
        run = request.getfixturevalue(run)
        calls = counted_velocity(monkeypatch)
        assert fn.quotient_to_datum(run.surface, run.orbits) == run.datum
        assert len(calls) <= most

    def test_rate_bounds_the_tangent_spectrum(self, epsilon_run):
        # near every critical point the step stays inside the RK4 bound
        # that its own tangent eigenvalues set
        surfaces = [fn.torus_surface(), fn.sphere_surface(),
                    antipodal_sphere_surface()]
        cases = [(s, fn.find_critical_orbits(s)) for s in surfaces] + [
            (epsilon_run.raw_surface, epsilon_run.pre_orbits),
            (epsilon_run.surface, epsilon_run.orbits)]
        for surface, orbits in cases:
            lifts = np.array([p.position for o in orbits for p in o.points])
            spectra = fn._tangent_data(surface, lifts)[0]
            assert spectra.shape == (len(lifts), 2)
            rate = fn._local_rate(*fn._velocity(surface, lifts, 2)[1:])
            assert np.all(rate >= np.max(np.abs(spectra), axis=1) - 1e-9)

    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_bad_rate_raises(self, monkeypatch, torus_run, value):
        monkeypatch.setattr(fn, "_local_rate", lambda level, *rest: np.full(
            len(level[0]), value))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergentTrajectory,
                               match="local rate of the flow is zero or not"):
                fn.quotient_to_datum(torus_run.surface, torus_run.orbits)

    @pytest.mark.parametrize("cause, tolerances, branch", [
        ("step budget", fn.Tolerances(), "+1"),
        ("escaped to radius 2.5", fn.Tolerances(escape_radius=2.5), "-1")],
        ids=["budget", "escape"])
    def test_failure_names_the_branch(self, monkeypatch, torus_run, cause,
                                      tolerances, branch):
        # a census failure says which saddle branch failed, and where
        if cause == "step budget":
            monkeypatch.setattr(fn, "_MAX_STEPS", 3)
        surface = dataclasses.replace(torus_run.surface, tolerances=tolerances)
        with pytest.raises(NonConvergentTrajectory) as info:
            fn.quotient_to_datum(surface, torus_run.orbits)
        message = str(info.value)
        assert cause in message
        assert f"the descending branch {branch} " in message
        assert "of saddle 'saddle0' was last at [" in message
        assert "from the nearest critical lift" in message

    def test_stall_names_the_branch(self):
        # without the antipodal sphere's minima, the descending branches
        # of its saddle park at the empty minimum points, where the flow
        # vanishes far from every critical lift left
        surface = antipodal_sphere_surface()
        orbits = [o for o in fn.find_critical_orbits(surface)
                  if o.label != "min0"]
        start = time.perf_counter()
        with pytest.raises(NonConvergentTrajectory,
                           match="stalled away from every critical point"
                           ) as info:
            fn.FlowLineCounter(surface, orbits)._saddle_census()
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert "the descending branch " in message
        assert "of saddle 'saddle0' was last at [" in message

    @pytest.mark.parametrize("names", [
        ["max0", "saddle0"], ["saddle0", "min0"], ["saddle0"]],
        ids=["no-minimum", "no-maximum", "saddle-alone"])
    def test_too_few_other_lifts_leave_rows_undecided(self, torus_run, names):
        # with fewer than two lifts outside the saddle's orbit the value
        # rule decides no row, so a branch runs until it stalls where the
        # missing extremum is, and raises naming itself
        orbits = [o for o in torus_run.orbits if o.label in names]
        start = time.perf_counter()
        with pytest.raises(NonConvergentTrajectory,
                           match="stalled away from every critical point"
                           ) as info:
            fn.FlowLineCounter(torus_run.surface, orbits)._saddle_census()
        assert time.perf_counter() - start < 1.0
        assert "of saddle 'saddle0' was last at [" in str(info.value)

    def test_gradients_per_step(self, monkeypatch, epsilon_run):
        # RK4 evaluates each gradient four times a step, and once more
        # where every branch has ended; the local rate reads its gradient
        # norms off the first of the four (it took a fifth pair, 311 calls).
        # Branches end within dedup_tol of a lift (at 1e-9 it took 62 steps).
        # The value rule's one read of f at the lifts takes no gradient.
        # Only the first of the four computes f: the three inner stages
        # read their velocity alone (computing f too took 189 calls)
        surface, counts = counted_fields(epsilon_run.surface, ("morse_jet",))
        steps = []
        rate = fn._local_rate

        def counted_rate(*args):
            steps.append(args)
            return rate(*args)

        monkeypatch.setattr(fn, "_local_rate", counted_rate)
        assert fn.quotient_to_datum(surface, epsilon_run.orbits) == (
            epsilon_run.datum)
        assert len(steps) == 47
        gradients = [value for (_, order), value in zip(
            counts["morse_jet"], counts["morse_jet", "value"]) if order >= 1]
        assert len(gradients) == 4 * 47 + 1
        assert gradients.count(True) == 48


class TestCensusCorrection:
    """Each census step is followed by one Newton correction along the
    level gradient; only the census starts are projected to roundoff."""

    @pytest.mark.parametrize("kind, value", [("torus", 0.25),
                                             ("epsilon", 0.8)])
    def test_one_projection_per_census(self, monkeypatch, kind, value):
        # projecting after every step as well took 10 projections on the
        # torus and 48 on the stabilized epsilon sphere, 3-7 rounds each
        surface, orbits = surface_and_orbits(kind, value)
        calls = []
        project = fn._project_batch

        def counted(surface, pts):
            calls.append(len(pts))
            return project(surface, pts)

        monkeypatch.setattr(fn, "_project_batch", counted)
        fn.quotient_to_datum(surface, orbits)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, value", [
        ("torus", 0.02), ("torus", 0.25), ("torus", 0.5), ("epsilon", 0.55),
        ("epsilon", 0.8), ("epsilon", 1.5)])
    def test_steps_start_near_the_surface(self, monkeypatch, kind, value):
        # an RK4 step leaves the surface by |F| up to 8e-2 on the torus and
        # 1.1e-2 on the epsilon sphere; after one correction every step
        # starts within 2.0e-4 and 3.0e-5
        surface, orbits = surface_and_orbits(kind, value)
        starts = []
        rate = fn._local_rate

        def recorded(level, *rest):
            starts.append(np.abs(level[0]))
            return rate(level, *rest)

        monkeypatch.setattr(fn, "_local_rate", recorded)
        fn.quotient_to_datum(surface, orbits)
        assert np.concatenate(starts).max() <= 1e-3


def surface_and_orbits(kind, value):
    """A torus of tilt ``value``, a stabilized epsilon sphere of epsilon
    ``value``, the sphere or the antipodal sphere, with its orbits."""
    if kind == "epsilon":
        raw = fn.epsilon_sphere_surface(epsilon=value)
        return fn.stabilize_all(raw, fn.find_critical_orbits(raw))
    surface = {"torus": lambda: fn.torus_surface(tilt=value),
               "sphere": fn.sphere_surface,
               "antipodal_sphere": antipodal_sphere_surface}[kind]()
    return surface, fn.find_critical_orbits(surface)


def counted_projections(monkeypatch):
    """Record the batch size of every ``_project_batch`` call."""
    calls = []
    project = fn._project_batch

    def counted(surface, pts):
        calls.append(len(pts))
        return project(surface, pts)

    monkeypatch.setattr(fn, "_project_batch", counted)
    return calls


def counted_velocity(monkeypatch):
    """Record the batch size of every ``_velocity`` call."""
    calls = []
    velocity = fn._velocity

    def counted(surface, x, *args, **kwargs):
        calls.append(len(x))
        return velocity(surface, x, *args, **kwargs)

    monkeypatch.setattr(fn, "_velocity", counted)
    return calls


def counted_fields(surface, names):
    """The surface with each named jet recording the batch size and order
    of every call, and the records by name; the ``value`` flag of each call
    is recorded, in the same order, under (name, "value")."""
    counts = {key: [] for name in names for key in (name, (name, "value"))}

    def counted(name):
        real = getattr(surface, name)

        def jet(x, order, value=True):
            counts[name].append((x.shape[1], order))
            counts[name, "value"].append(value)
            return real(x, order, value)
        return jet

    return dataclasses.replace(
        surface, **{name: counted(name) for name in names}), counts


class TestValueRule:
    """A branch that has passed every critical value but one, its own
    saddle orbit's aside, ends at that lift without being integrated to the
    capture radius.  A tolerance ``stab_tol`` above every gap between
    critical values switches the rule off, which gives the integrated ends
    to compare against.  The rule is active on the surface of
    ``TestTorus::test_saddle_connection_detected``, which must still
    raise."""

    @staticmethod
    def census(surface, orbits, **tolerances):
        if tolerances:
            surface = dataclasses.replace(
                surface, tolerances=fn.Tolerances(**tolerances))
        counter = fn.FlowLineCounter(surface, orbits)
        counts = counts_of(fn.quotient_to_datum(surface, orbits, counter))
        return counter._census, counts

    @pytest.mark.parametrize("kind, value", [
        *(pytest.param("torus", tilt, id=str(tilt))
          for tilt in (0.02, 0.05, 0.1, 0.25, 0.4, 0.5)),
        *(pytest.param("epsilon", epsilon, id=f"epsilon-{epsilon}")
          for epsilon in (0.55, 0.8, 1.5)),
        pytest.param("sphere", None, id="sphere"),
        pytest.param("antipodal_sphere", None, id="antipodal_sphere")])
    def test_value_ends_equal_integrated_ends(self, kind, value):
        surface, orbits = surface_and_orbits(kind, value)
        assert self.census(surface, orbits) == self.census(
            surface, orbits, stab_tol=100.0)

    @pytest.mark.parametrize("tilt, steps", [(0.02, 10), (0.25, 9), (0.5, 8)])
    def test_own_orbit_decides_nothing(self, monkeypatch, tilt, steps):
        # f moves strictly away from a saddle's value along its branches, so
        # no lift of the saddle's orbit is a candidate end: the four branches
        # that had to pass their own saddle's value by stab_tol (the
        # ascending ones of the upper saddle, the descending ones of the
        # lower) end at step 0, after one velocity batch of all 8 rows.  At
        # tilt 0.02 they took 327 steps, at 0.25 they took 18.
        surface = fn.torus_surface(tilt=tilt)
        orbits = fn.find_critical_orbits(surface)
        calls = counted_velocity(monkeypatch)
        fn.quotient_to_datum(surface, orbits)
        assert calls[:2] == [8, 4]
        assert len(calls) == 4 * steps + 1

    def test_slack_covers_the_projection(self, monkeypatch):
        # a census row is up to |F| = 2e-4 off the surface; at every row
        # the rule decides, f there is within the slack |F| |grad f| /
        # |grad F| of f at the row projected to roundoff.  The rule decides
        # 400 torus rows here, the largest ratio 0.99, and no row of the
        # stabilized epsilon spheres, whose rows are all captured
        # (the rule reads the jets of the step's first velocity batch, at
        # the rows that batch recorded)
        decided, batch = [], []
        passed, velocity = fn.FlowLineCounter._passed, fn._velocity

        def recorded_velocity(surface, x, *args, **kwargs):
            out = velocity(surface, x, *args, **kwargs)
            if out[2][0] is not None:  # the one call that reads values
                batch[:] = surface, x
            return out

        def recorded(direction, limit, level, morse, level_norm):
            out = passed(direction, limit, level, morse, level_norm)
            slack = (np.abs(level[0]) * np.linalg.norm(morse[1], axis=0)
                     / level_norm)
            decided.append((batch[0], batch[1][out], slack[out]))
            return out

        monkeypatch.setattr(fn, "_velocity", recorded_velocity)
        monkeypatch.setattr(fn.FlowLineCounter, "_passed",
                            staticmethod(recorded))
        cases = [("torus", float(t)) for t in np.linspace(0.01, 0.5, 50)] + [
            ("epsilon", float(e)) for e in np.linspace(0.55, 1.5, 20)]
        for kind, value in cases:
            fn.quotient_to_datum(*surface_and_orbits(kind, value))
        rows = 0
        for surface, x, slack in decided:
            projected = fn._project_batch(surface, x)
            f, f_projected = (surface.morse_jet(y.T, 0)[0]
                              for y in (x, projected))
            assert np.all(np.abs(f - f_projected) <= slack)
            rows += len(x)
        assert rows >= 100

    def test_near_saddle_value_still_counts(self, monkeypatch, torus_run):
        # f raised at saddle1's lift to 5e-9 above saddle0, within stab_tol:
        # the ascending rows of saddle0 leave only their own orbit out, so
        # they must still pass saddle1's value by stab_tol and none ends at
        # its start (leaving out every value near their own would end them)
        surface, orbits = torus_run.surface, torus_run.orbits
        assert [o.label for o in orbits[1:3]] == ["saddle0", "saddle1"]
        lifts = np.array([o.representative.position for o in orbits])
        values = surface.morse_jet(lifts.T, 0)[0]
        raised = values[1] + 5e-9 - values[2]

        def morse_jet(x, order, value=True):
            at = (np.linalg.norm(x - lifts[2][:, None], axis=0)
                  < surface.tolerances.dedup_tol)
            out = surface.morse_jet(x, order, value)
            if out[0] is None:
                return out
            return (out[0] + np.where(at, raised, 0.0), *out[1:])

        def morse(points):
            return morse_jet(points.T, 0)[0]

        near = dataclasses.replace(surface, morse_jet=morse_jet)
        assert 0 < morse(lifts)[2] - values[1] < near.tolerances.stab_tol
        shots, rules = [], []
        endpoints = fn.FlowLineCounter._endpoints
        value_rule = fn.FlowLineCounter._value_rule

        def recorded_endpoints(self, starts, branches):
            shots.append((starts, branches))
            return endpoints(self, starts, branches)

        def recorded_rule(self, *rows):
            rules.append(value_rule(self, *rows))
            return rules[-1]

        monkeypatch.setattr(fn.FlowLineCounter, "_endpoints",
                            recorded_endpoints)
        monkeypatch.setattr(fn.FlowLineCounter, "_value_rule", recorded_rule)
        fn.quotient_to_datum(near, orbits)
        (starts, branches), = shots
        (limit, _), = rules
        rows = np.array([oi == 1 and up for oi, *_, up in branches])
        assert rows.sum() == 2
        assert np.all(limit[rows] == -morse(lifts)[2] - near.tolerances.stab_tol)
        assert np.all(-morse(starts[rows]) >= limit[rows])

    # branches end within dedup_tol of a lift; ended at 1e-9, the
    # antipodal census took 79 steps and the epsilon sphere's 62
    @pytest.mark.parametrize("make, steps", [
        (antipodal_sphere_surface, 60), (None, 47)],
        ids=["antipodal_sphere", "epsilon_sphere"])
    def test_shared_extremes_decide_nothing(self, monkeypatch, epsilon_run,
                                            make, steps):
        if make is None:
            surface, orbits = epsilon_run.surface, epsilon_run.orbits
        else:
            surface = make()
            orbits = fn.find_critical_orbits(surface)
        surface, counts = counted_fields(surface, ("morse_jet",))
        calls = counted_velocity(monkeypatch)
        fn.quotient_to_datum(surface, orbits)
        assert len(calls) == 4 * steps + 1
        lifts = sum(len(o.points) for o in orbits)
        values = [n for n, order in counts["morse_jet"] if order == 0]
        if make is None:
            # the stabilized poles are minima of one lift each: one value
            # per lift shows that min0's two lifts lie below them
            assert values == [lifts]
        else:
            # f is read once, at the six lifts; every orbit has two lifts,
            # so no value is unique and none decides
            assert values == [6]

    @pytest.mark.parametrize("delta, fires", [(2e-9, False), (1e-6, True)],
                             ids=["near_tie", "clear_gap"])
    def test_margin(self, monkeypatch, delta, fires):
        # two minima at y = -1 and y = 1 whose values differ by 2 delta;
        # within stab_tol = 1e-8 they count as equal and decide nothing
        surface, counts = counted_fields(dataclasses.replace(
            antipodal_sphere_surface(), name="tilted_sphere",
            morse_jet=fn._quadric((0.0, delta, 0.0), (1.0, 0.0, 2.0)),
            group=fn.group_from_generators(())), ("morse_jet",))
        orbits = fn.find_critical_orbits(surface)
        assert [o.index for o in orbits] == [2, 2, 1, 1, 0, 0]
        counts["morse_jet"].clear()
        calls = counted_velocity(monkeypatch)
        consulted = []
        passed = fn.FlowLineCounter._passed

        def counted_passed(*args):
            consulted.append(len(args[0]))
            return passed(*args)

        monkeypatch.setattr(fn.FlowLineCounter, "_passed",
                            staticmethod(counted_passed))
        ruled = self.census(surface, orbits)
        # f alone at the six lifts, and the rule at the live rows of each
        # step only if it fires
        assert [n for n, order in counts["morse_jet"] if order == 0] == [6]
        assert bool(consulted) == fires
        # the velocity rows: a branch that ends early takes fewer
        ruled_rows = sum(calls)
        calls.clear()
        assert ruled == self.census(surface, orbits, stab_tol=100.0)
        assert (ruled_rows < sum(calls)) == fires


class TestCaptureDistance:
    """A census branch ends once it is within ``dedup_tol`` of a lift, the
    distance at which two critical positions are the same point.  Ending
    the branches of the same orbits at 1e-9 instead gives the ends to
    compare against."""

    @pytest.mark.parametrize("kind, value", [
        ("torus", 0.02), ("torus", 0.25), ("torus", 0.5), ("epsilon", 0.55),
        ("epsilon", 0.8), ("epsilon", 1.5), ("antipodal_sphere", None)])
    def test_ends_equal_ends_at_a_smaller_distance(self, kind, value):
        surface, orbits = surface_and_orbits(kind, value)
        census = TestValueRule.census
        assert census(surface, orbits) == census(
            surface, orbits, dedup_tol=1e-9)

    @pytest.mark.parametrize("dedup_tol", [1e-6, 1e-9])
    def test_start_ten_distances_from_the_saddle(self, monkeypatch, torus_run,
                                                 dedup_tol):
        # a branch started within dedup_tol of its saddle would end there
        # at step 0 and read as a saddle connection
        surface = dataclasses.replace(
            torus_run.surface, tolerances=fn.Tolerances(dedup_tol=dedup_tol))
        projected = []
        project = fn._project_batch

        def recorded(surface, pts):
            projected.append(np.array(pts))
            return project(surface, pts)

        monkeypatch.setattr(fn, "_project_batch", recorded)
        fn.FlowLineCounter(surface, torus_run.orbits)._saddle_census()
        saddles = np.array([p.position for o in torus_run.orbits
                            if o.index == 1 for p in o.points])
        starts = projected[0]
        assert len(starts) == 4 * len(saddles)
        np.testing.assert_allclose(np.linalg.norm(
            starts[:, None] - saddles[None], axis=2).min(axis=1),
            10 * dedup_tol, rtol=1e-9)

    def test_coarse_dedup_tol_names_the_tolerance(self):
        # branches started 10 * 0.3 = 3 from their saddle, past the other
        # lifts (2 away), and one read as a saddle connection
        # (BrokenFlowDetected)
        surface = fn.torus_surface(tolerances=fn.Tolerances(dedup_tol=0.3))
        orbits = fn.find_critical_orbits(surface)
        with pytest.raises(BadParams, match=re.escape(
                "tolerances.dedup_tol: a saddle branch starts 10 * dedup_tol"
                " = 3 from its saddle, not below the distance 2 to the"
                " nearest other critical lift")):
            fn.quotient_to_datum(surface, orbits)

    def test_dedup_tol_below_the_lift_distance_counts(self, torus_run):
        surface = fn.torus_surface(tolerances=fn.Tolerances(dedup_tol=0.05))
        datum = fn.quotient_to_datum(surface, fn.find_critical_orbits(surface))
        assert counts_of(datum) == counts_of(torus_run.datum)
        assert list(counts_of(datum).values()) == [0, 0, 0, 0]

    @pytest.mark.parametrize("kind, value", [("torus", 0.25),
                                             ("epsilon", 0.8)])
    def test_one_cross_product_per_census(self, monkeypatch, kind, value):
        # one for the directions of all saddle lifts; maxima frames are
        # oriented by construction, so none reads their orientation (one
        # per saddle lift and one per ascending branch into a maximum took
        # 6 on the torus).  The product is _cross, np.cross's bytes in
        # fewer numpy calls
        surface, orbits = surface_and_orbits(kind, value)
        counter = fn.FlowLineCounter(surface, orbits)
        want = counter._saddle_census()
        calls = []
        cross = fn._cross

        def counted(a, b):
            calls.append(len(a))
            return cross(a, b)

        monkeypatch.setattr(fn, "_cross", counted)
        assert counter._saddle_census() == want
        assert len(calls) == 1


def default_seeds(surface):
    tols = surface.tolerances
    dirs = fn._fibonacci_directions(tols.seed_count)
    return np.concatenate([r * dirs for r in tols.seed_radii], axis=0)


def projected_newton(surface, seeds):
    """Newton from ``seeds`` projected onto the surface and kept one per
    dedup cell, as ``find_critical_orbits`` stores its seed grid."""
    return fn._newton_critical_points(surface, fn._first_per_cell(
        fn._project_batch(surface, seeds), surface.tolerances.dedup_tol))


def counted_solve(monkeypatch):
    """Record the batch size of every bordered solve Newton makes."""
    rows = []
    solve = fn._bordered_solve

    def counted(h, g, res):
        rows.append(res.shape[1])
        return solve(h, g, res)

    monkeypatch.setattr(fn, "_bordered_solve", counted)
    return rows


class TestProjection:
    """The projection steps each row until its steps stop shrinking."""

    def test_torus_level_gradient_rows(self):
        # projecting the check samples and the Newton seeds by a fixed 60
        # steps each, one search took 133,205 level-gradient rows
        surface, counts = counted_fields(fn.torus_surface(tilt=0.25),
                                         ("level_jet",))
        fn.find_critical_orbits(surface)
        assert sum(n for n, order in counts["level_jet"] if order >= 1) <= (
            23000)

    @pytest.mark.parametrize("surface", [
        fn.torus_surface(), fn.sphere_surface(), fn.epsilon_sphere_surface(),
    ], ids=["torus", "sphere", "epsilon_sphere"])
    def test_seeds_land(self, surface):
        # the torus seeds at radius 1.8 start near the tube's core circle,
        # where the first step overshoots and raises |F|; they land all
        # the same.  The origin, where the level gradient vanishes, stays.
        seeds = default_seeds(surface)
        pts = np.concatenate([seeds, [[np.nan] * 3, [0.0] * 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = fn._project_batch(surface, pts)
        assert np.all(np.abs(surface.level_jet(x[:len(seeds)].T, 0)[0])
                      < 1e-9)
        assert np.all(np.isnan(x[-2]))
        assert np.array_equal(x[-1], np.zeros(3))


def newton_rounds(monkeypatch, surface, seeds, edit=None):
    """Run Newton on ``seeds``; return, per round, the seed indices of the
    rows it steps, and the points it returns.  ``edit(round, delta)`` may
    change a round's solved steps in place.  Rows are followed by position:
    a row stepped in a later round must sit exactly where its own clipped
    step of the round before took it, so a restarted row fails the run.

    A round steps some of the rows at which the last order-2 level jet was
    evaluated, in order; they are the rows whose level gradients it is
    given, each a column of that jet's gradient."""
    stepped, steps, evaluated = [], [], []
    jet = surface.level_jet
    solve = fn._bordered_solve

    def recorded_jet(x, order):
        out = jet(x, order)
        if order == 2:
            evaluated[:] = x.T.copy(), out[1].T
        return out

    def edited(h, g, res):
        x, grads = evaluated
        rows = []
        for column in g.T:
            j = rows[-1] + 1 if rows else 0
            while not np.array_equal(grads[j], column):
                j += 1
            rows.append(j)
        stepped.append(x[rows])
        delta = solve(h, g, res)  # (4, n): the rows of delta.T are steps
        if edit is not None:
            edit(len(steps), delta.T)
        steps.append(np.clip(delta.T, -0.5, 0.5))
        return delta

    monkeypatch.setattr(fn, "_bordered_solve", edited)
    found = projected_newton(
        dataclasses.replace(surface, level_jet=recorded_jet), seeds)
    candidates = fn._project_batch(surface, seeds)
    labels = np.arange(len(seeds))
    rounds = []
    for x, step in zip(stepped, steps):
        j, kept = 0, []
        for row in x:
            while j < len(candidates) and not np.array_equal(candidates[j], row):
                j += 1
            assert j < len(candidates), "a stepped row continues no row"
            kept.append(j)
            j += 1
        rounds.append(labels[kept])
        candidates, labels = x + step[:, :3], labels[kept]
    return rounds, found


def distinct(surface, points):
    return len(fn._first_of_clusters(points, surface.tolerances.dedup_tol))


class TestNewtonWork:
    """Newton steps only the rows still live: converged rows and rows whose
    step turns them non-finite or fails to lower their residual leave the
    batch and are not restarted."""

    def test_rows_per_round_pinned(self, monkeypatch):
        # the stored grid's rule and the retirement rules decide every row
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.torus_surface(tilt=0.25))
        assert rows == [1100, 814, 592, 469, 344, 257, 179, 94, 43, 9]
        rows.clear()
        fn.find_critical_orbits(fn.sphere_surface())
        assert rows == [220, 182, 164, 164, 154, 119, 8]
        rows.clear()
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        orbits = fn.find_critical_orbits(surface)
        assert rows == [220, 199, 193, 192, 173, 113, 15]
        rows.clear()
        fn.stabilize_all(surface, orbits)
        assert rows == [246, 220, 185, 176, 159, 111, 24, 3, 1]

    @pytest.mark.parametrize("make", [fn.torus_surface, fn.sphere_surface],
                             ids=["torus", "sphere"])
    def test_degenerate_seeds_leave_the_batch(self, monkeypatch, make):
        # a NaN seed and the origin, where every built-in level gradient
        # vanishes, must neither change the points found nor divide by zero
        surface = make()
        tol = surface.tolerances.dedup_tol
        seeds = default_seeds(surface)
        clean = projected_newton(surface, seeds)
        clean = clean[fn._first_of_clusters(clean, tol)]
        monkeypatch.setattr(np.linalg, "pinv", None)
        dirty = np.concatenate([seeds, [[np.nan] * 3, [0.0] * 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            found = projected_newton(surface, dirty)
        assert np.array_equal(found[fn._first_of_clusters(found, tol)], clean)

    def test_no_radius_retires_a_row(self):
        # a clipped step moves a row at most 0.5 per component, so no row
        # leaves the 80 rounds farther than 80 * 0.5 * sqrt(3) from its
        # start; retiring rows past escape_radius = 0.5 left no torus
        # point and raised SeedGridExhausted
        def lifts(tolerances):
            orbits = fn.find_critical_orbits(
                fn.torus_surface(tilt=0.25, tolerances=tolerances))
            assert len(orbits) == 4
            return [p.position.tobytes() for o in orbits for p in o.points]

        assert lifts(fn.Tolerances(escape_radius=0.5)) == lifts(None)

    def test_non_finite_step_retires_the_row(self, monkeypatch):
        # a restart at the origin would make the next Jacobian singular
        surface = fn.torus_surface()

        def poison(round_, delta):
            if round_ == 0:
                delta[0] = np.nan

        monkeypatch.setattr(np.linalg, "pinv", None)
        rounds, found = newton_rounds(
            monkeypatch, surface, default_seeds(surface), poison)
        poisoned = rounds[0][0]
        assert all(poisoned not in rows for rows in rounds[1:])
        assert np.all(np.isfinite(found))
        assert distinct(surface, found) == 4

    def test_step_that_raises_the_residual_retires_the_row(self, monkeypatch):
        # seeds near the four torus points all converge; the row whose
        # first step is reversed moves away from its point, so its merit
        # |res|^2 grows and it leaves after that one round
        surface = fn.torus_surface()
        points = projected_newton(surface, default_seeds(surface))
        points = points[fn._first_of_clusters(
            points, surface.tolerances.dedup_tol)]
        seeds = np.concatenate(
            [points + 0.05 * offset for offset in np.eye(3)])
        with monkeypatch.context() as patch:
            plain, found = newton_rounds(patch, surface, seeds)
        assert len(found) == len(seeds)
        assert np.array_equal(plain[1], np.arange(len(seeds)))

        def reverse(round_, delta):
            if round_ == 0:
                delta[0] *= -1.0

        rounds, found = newton_rounds(monkeypatch, surface, seeds, reverse)
        assert np.array_equal(rounds[0], np.arange(len(seeds)))
        assert all(0 not in rows for rows in rounds[1:])
        assert len(found) == len(seeds) - 1
        assert distinct(surface, found) == 4

    def test_one_jet_pair_per_round(self, monkeypatch):
        # the torus search takes 10 rounds; the jets at the starts serve the
        # first, each round's jets at its stepped points the next, and an
        # order-1 pair at the end checks every row.  No round builds
        # (n, 3, 3) Hessians.  Evaluating F, grad F and Hess F apart took 34
        # level-field calls: 3 per round, 2 at the starts and 2 at the end
        plain = fn.torus_surface(tilt=0.25)
        fn.find_critical_orbits(plain)
        surface, counts = counted_fields(plain, ("level_jet", "morse_jet"))

        def refused(h):
            raise AssertionError("an (n, 3, 3) Hessian stack was built")

        monkeypatch.setattr(fn, "_hess_matrices", refused)
        fn._newton_critical_points(surface, stored_grid(plain))
        for name in ("level_jet", "morse_jet"):
            assert [order for _, order in counts[name]] == [2] * 11 + [1]

    def test_torus_solves_live_rows_only(self, monkeypatch):
        # 423 of the 1,100 torus seeds never converge; iterated until the
        # round cap they solved 39,900 systems over 80 rounds
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.torus_surface(tilt=0.25))
        assert len(rows) == 10
        assert sum(rows) <= 4000

    def test_round_counts(self, monkeypatch):
        # the sphere's seeds converge or leave within the rounds they took
        # before; the stabilized epsilon sphere's non-converging rows left
        # only at the round cap of its first pass (22 rounds in all)
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.sphere_surface())
        assert len(rows) == 7
        rows.clear()
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        fn.stabilize_all(surface, fn.find_critical_orbits(surface))
        assert len(rows) == 16


class TestNewtonCompleteness:
    """Rows that stop lowering their residual leave early, so fewer seeds
    converge; the seed grid must keep enough redundancy that no critical
    point depends on one radius."""

    @pytest.mark.parametrize("surface, points", [
        (fn.torus_surface(tilt=0.02), 4), (fn.torus_surface(tilt=0.25), 4),
        (fn.torus_surface(tilt=0.5), 4),
        (fn.epsilon_sphere_surface(epsilon=0.55), 6),
        (fn.epsilon_sphere_surface(epsilon=0.8), 6),
        (fn.sphere_surface(), 2),
    ], ids=["torus-0.02", "torus-0.25", "torus-0.5", "epsilon-0.55",
            "epsilon-0.8", "sphere"])
    def test_each_point_found_from_several_radii(self, surface, points):
        assert distinct(surface, projected_newton(
            surface, default_seeds(surface))) == points
        tols = surface.tolerances
        dirs = fn._fibonacci_directions(tols.seed_count)
        complete = [r for r in tols.seed_radii if distinct(
            surface, projected_newton(surface, r * dirs)) == points]
        assert len(complete) >= 3


def stored_grid(surface):
    tols = surface.tolerances
    return fn._level_store(surface.level_jet).grids[
        tols.seed_count, tols.seed_radii, tols.dedup_tol]


class TestDistinctSeeds:
    """The stored seed grid keeps the first projected seed of each cube of
    diameter ``dedup_tol``, and Newton iterates each of its rows once."""

    @pytest.mark.parametrize("make", [
        fn.torus_surface, fn.sphere_surface,
        lambda: fn.epsilon_sphere_surface(epsilon=0.8),
    ], ids=["torus", "sphere", "epsilon-0.8"])
    def test_repeated_seeds_add_nothing(self, monkeypatch, make):
        surface = make()
        tols = surface.tolerances
        twice = dataclasses.replace(surface, tolerances=dataclasses.replace(
            tols, seed_radii=tols.seed_radii + tols.seed_radii))
        rows = counted_solve(monkeypatch)
        once_lifts = lift_bytes([fn.find_critical_orbits(surface)])
        once_rows = rows[:]
        rows.clear()
        assert lift_bytes([fn.find_critical_orbits(twice)]) == once_lifts
        assert rows == once_rows

    @pytest.mark.parametrize("make", [
        fn.sphere_surface, lambda: fn.epsilon_sphere_surface(epsilon=0.8),
    ], ids=["sphere", "epsilon-0.8"])
    def test_radial_gradient_leaves_the_first_radius(self, make):
        # the level gradient is radial, so every radius along a direction
        # projects onto the point of the first
        surface = make()
        tols = surface.tolerances
        first = tols.seed_radii[0] * fn._fibonacci_directions(tols.seed_count)
        fn.find_critical_orbits(surface)
        grid = stored_grid(surface)
        assert len(grid) == 220
        assert np.array_equal(grid, fn._project_batch(surface, first))

    def test_distinct_rows_solved(self, monkeypatch):
        # every seed row was iterated before: 1,100 in the sphere's first
        # round, 5,525 and 5,283 row solves in the two epsilon passes
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.sphere_surface())
        assert rows[0] == 220
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        rows.clear()
        orbits = fn.find_critical_orbits(surface)
        assert sum(rows) <= 1200
        rows.clear()
        fn.stabilize_all(surface, orbits)
        assert sum(rows) <= 1200

    def test_farther_than_dedup_tol_stays(self, monkeypatch):
        # unit vectors lie on the sphere; each pair is 1.01 dedup_tol apart
        surface = fn.sphere_surface()
        step = 1.01 * surface.tolerances.dedup_tol
        rng = np.random.default_rng(5)
        dirs = fn._fibonacci_directions(50)
        offsets = np.cross(dirs, rng.normal(size=(50, 3)))
        offsets *= step / np.linalg.norm(offsets, axis=1)[:, None]
        moved = fn._project_batch(surface, dirs + offsets)
        assert np.all(np.linalg.norm(moved - fn._project_batch(
            surface, dirs), axis=1) > surface.tolerances.dedup_tol)
        rows = counted_solve(monkeypatch)
        projected_newton(surface, np.concatenate([dirs, moved]))
        assert rows[0] == 100


def bordered_jacobians(h, g):
    """The (n, 4, 4) matrices [[H, -g], [g^T, 0]] of the entry rows ``h``
    (6, n) and the component rows ``g`` (3, n)."""
    jac = np.zeros((h.shape[1], 4, 4))
    jac[:, :3, :3] = fn._hess_matrices(h)
    jac[:, :3, 3] = -g.T
    jac[:, 3, :3] = g.T
    return jac


def lapack_steps(h, g, res):
    return np.linalg.solve(bordered_jacobians(h, g), -res.T[..., None])[..., 0].T


class TestBorderedSolve:
    """Newton's steps come from the closed form of the bordered 4 x 4
    system, which divides by det J alone."""

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(500, 3, 3))
        h = entry_rows(m + m.transpose(0, 2, 1))
        g, res = rng.normal(size=(3, 500)), rng.normal(size=(4, 500))
        ref = lapack_steps(h, g, res)
        got = fn._bordered_solve(h, g, res)
        assert got.shape == (4, 500)
        assert np.all(np.linalg.norm(got - ref, axis=0)
                      <= 1e-12 * np.linalg.norm(ref, axis=0))

    def test_singular_hessian_regular_jacobian(self, monkeypatch):
        # at rho = major the torus's Hess F has a zero eigenvalue along the
        # circle of the tube's centre; a level gradient with a component
        # along that direction keeps J regular
        surface = fn.torus_surface()
        h = surface.level_jet(np.array([[2.0, 0.0], [0.0, 2.0], [0.5, -0.3]]),
                              2)[2]
        assert np.all(np.linalg.det(fn._hess_matrices(h)) == 0.0)
        g = np.array([[0.3, 1.0], [1.0, 0.2], [0.2, -0.4]])
        res = np.array([[0.1, -0.2], [0.5, 0.3], [-0.7, 0.2], [0.05, 0.4]])
        monkeypatch.setattr(np.linalg, "pinv", None)
        got = fn._bordered_solve(h, g, res)
        np.testing.assert_allclose(got, lapack_steps(h, g, res), rtol=1e-12)

    def test_zero_determinant_gives_nan(self, monkeypatch):
        # H = 0 (the sphere's height at lambda = 0, on the equator) makes
        # det J = g^T adj(H) g zero: that row's step is NaN, and the other
        # row is solved as if alone
        h = np.zeros((6, 2))
        h[[0, 3, 5], 1] = 1.0, 2.0, 3.0
        g = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        res = np.array([[0.0, 0.5], [0.0, -0.1], [1.0, 0.3], [0.0, 0.2]])
        monkeypatch.setattr(np.linalg, "pinv", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fn._bordered_solve(h, g, res)
        assert np.all(np.isnan(got[:, 0]))
        assert np.array_equal(got[:, 1:], fn._bordered_solve(
            h[:, 1:], g[:, 1:], res[:, 1:]))

    def test_equator_seed_leaves_after_one_step(self, monkeypatch):
        # on the sphere lambda = z / (2 |x|^2) is zero on the equator, so
        # H = Hess f - lambda Hess F is zero there; the seed's step is NaN,
        # it leaves the batch after round 0 and the poles are still found
        surface = fn.sphere_surface()
        rows = counted_solve(monkeypatch)
        seeds = np.array([[1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            found = fn._newton_critical_points(surface, seeds)
        assert rows[:2] == [3, 2]
        assert len(found) == 2
        np.testing.assert_allclose(np.abs(found[:, 2]), 1.0, rtol=0,
                                   atol=1e-12)

    def test_nan_row_stays_nan(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 3, 3))
        h = entry_rows(m + m.transpose(0, 2, 1))
        g, res = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        h[2, 1] = np.nan  # the xz entry
        g[2, 3] = np.nan
        monkeypatch.setattr(np.linalg, "pinv", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fn._bordered_solve(h, g, res)
        assert np.all(np.isnan(got[:, [1, 3]]))
        keep = [0, 2]
        np.testing.assert_allclose(got[:, keep], lapack_steps(
            h[:, keep], g[:, keep], res[:, keep]), rtol=1e-12)

    def test_searches_make_no_lapack_solve(self, monkeypatch):
        def refused(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        orbits = fn.find_critical_orbits(fn.torus_surface(tilt=0.25))
        assert len(orbits) == 4
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        _, orbits = fn.stabilize_all(surface, fn.find_critical_orbits(surface))
        assert sorted(o.label for o in orbits) == sorted(
            {label for pair in EPSILON_COUNTS for label in pair})


def tangent_at(surface, pos):
    """Tangent-Hessian eigenvalues and descending frame at one point, one
    row at a time: the per-point formula ``_tangent_data`` batches."""
    x = pos[:, None]
    (_, g, level_hess), (_, morse_grad, morse_hess) = (
        surface.level_jet(x, 2), surface.morse_jet(x, 2))
    g = g[:, 0]
    n = g / np.linalg.norm(g)
    lam = float(morse_grad[:, 0] @ g / (g @ g))
    h = fn._hess_matrices(morse_hess - lam * level_hess)[0]
    e = np.zeros(3)
    e[int(np.argmin(np.abs(n)))] = 1.0
    t1 = e - (e @ n) * n
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    m = np.array([[t1 @ h @ t1, t1 @ h @ t2], [t2 @ h @ t1, t2 @ h @ t2]])
    eigvals, eigvecs = np.linalg.eigh(0.5 * (m + m.T))
    frame = []
    for k in range(2):
        if eigvals[k] < 0:
            vec = eigvecs[0, k] * t1 + eigvecs[1, k] * t2
            vec /= np.linalg.norm(vec)
            j = int(np.argmax(np.abs(vec)))
            frame.append(vec if vec[j] > 0 else -vec)
    return eigvals, np.array(frame).reshape(-1, 3)


def unit_normal(surface, pos):
    """grad F / |grad F| at one point."""
    g = surface.level_jet(pos[:, None], 1)[1][:, 0]
    return g / np.linalg.norm(g)


def quadric_sphere_surface(tolerances=None):
    """The unit sphere with f = y^2 + 1.05 z^2 and the antipodal group:
    orbits at +-e_x (minimum, eigenvalues 2 and 2.1), +-e_y (saddle, -2 and
    0.1) and +-e_z (maximum, -2.1 and -0.1), met in that order by the
    orbit partition."""
    return fn.ImplicitQuotientSurface(
        name="quadric_sphere", level_jet=fn._sphere_level,
        morse_jet=fn._quadric((0.0, 0.0, 0.0), (0.0, 2.0, 2.1)),
        group=fn.group_from_generators(("antipodal",)),
        tolerances=tolerances or fn.Tolerances(), euler_characteristic=2)


class TestTangentPass:
    """``find_critical_orbits`` computes the tangent data of every orbit
    representative in one batch and checks the orbits in partition order."""

    def test_cross_is_np_cross_bit_for_bit(self):
        # frames and census directions take their cross products from
        # _cross, so they keep np.cross's bytes
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-5, 5)
            b = rng.normal(size=(n, 3))
            assert fn._cross(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_matches_per_point_formula(self, epsilon_run):
        surfaces = [fn.torus_surface(tilt=t) for t in (0.02, 0.25, 0.5)]
        surfaces += [antipodal_sphere_surface(), quadric_sphere_surface()]
        cases = [(s, fn.find_critical_orbits(s)) for s in surfaces] + [
            (epsilon_run.raw_surface, epsilon_run.pre_orbits),
            (epsilon_run.surface, epsilon_run.orbits)]
        for surface, orbits in cases:
            lifts = np.array([p.position for o in orbits for p in o.points])
            eigvals, vecs = fn._tangent_data(surface, lifts)
            for pos, got, got_vecs in zip(lifts, eigvals, vecs):
                want, frame = tangent_at(surface, pos)
                assert abs(want[1] - want[0]) > 1e-3  # frames well defined
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got_vecs[got < 0][:1], frame[:1],
                                           rtol=0, atol=1e-12)
                # the second vector is n x the first, and so +- the second
                # eigenvector
                np.testing.assert_allclose(
                    got_vecs[1], np.cross(unit_normal(surface, pos),
                                          got_vecs[0]), rtol=0, atol=1e-12)
                if len(frame) == 2:
                    assert abs(got_vecs[1] @ frame[1]) == pytest.approx(
                        1.0, rel=0, abs=1e-12)
        surface = cases[-1][0]
        for orbit in cases[-1][1]:
            rep = orbit.representative
            frame = tangent_at(surface, rep.position)[1][:1]
            if orbit.index == 2:
                frame = np.concatenate([frame, np.cross(
                    unit_normal(surface, rep.position), frame)])
            np.testing.assert_allclose(rep.negative_frame, frame,
                                       rtol=0, atol=1e-12)

    def test_sphere_maximum_oriented_by_the_normal(self, monkeypatch):
        # the sphere's maximum has the tangent eigenvalues -1, -1, so eigh's
        # column order there is roundoff's choice; under either order the
        # frame is positively oriented against grad F
        eigh = np.linalg.eigh
        surface = fn.sphere_surface()
        firsts = []
        for reverse in (False, True):

            def reordered(a):
                w, v = eigh(a)
                if reverse:
                    equal = (w[..., 0] == w[..., 1])[..., None, None]
                    v = np.where(equal, v[..., ::-1], v)
                return w, v

            monkeypatch.setattr(np.linalg, "eigh", reordered)
            top = next(o for o in fn.find_critical_orbits(surface)
                       if o.index == 2).representative
            g = surface.level_jet(top.position[:, None], 1)[1][:, 0]
            f0, f1 = top.negative_frame
            assert np.cross(f0, f1) @ g == pytest.approx(2.0, rel=1e-12)
            firsts.append(f0)
        # the reversal reached the maximum: its first vector moved
        assert abs(firsts[0] @ firsts[1]) < 1e-12

    @pytest.mark.parametrize("kind, value", [
        ("torus", 0.02), ("torus", 0.25), ("torus", 0.5), ("epsilon", 0.55),
        ("epsilon", 0.8), ("epsilon", 1.5), ("sphere", None),
        ("antipodal_sphere", None)])
    def test_maximum_frame_is_normal_cross_first(self, kind, value):
        surface, orbits = surface_and_orbits(kind, value)
        tops = [o.representative for o in orbits if o.index == 2]
        assert tops
        for rep in tops:
            f0, f1 = rep.negative_frame
            np.testing.assert_allclose(
                f1, np.cross(unit_normal(surface, rep.position), f0),
                rtol=0, atol=1e-12)

    def test_degenerate_second_orbit(self):
        plain = quadric_sphere_surface()
        saddle = next(o for o in fn.find_critical_orbits(plain)
                      if o.index == 1).representative.position
        eigvals, _ = tangent_at(plain, saddle)
        strict = quadric_sphere_surface(fn.Tolerances(degeneracy_tol=0.5))
        with pytest.raises(DegenerateCritical) as info:
            fn.find_critical_orbits(strict)
        assert str(info.value) == (f"tangent-Hessian eigenvalue {eigvals} "
                                   f"below tolerance at {saddle}")


def lift_bytes(orbit_lists):
    """The position and eigenvalue bytes of every lift, in order."""
    return b"".join(np.asarray(point.position).tobytes()
                    + np.asarray(point.eigenvalues).tobytes()
                    for orbits in orbit_lists for orbit in orbits
                    for point in orbit.points)


def searched(surface):
    """The orbits found on ``surface``, stabilized when some are unstable,
    and the datum of the last surface."""
    found = [fn.find_critical_orbits(surface)]
    if any(not o.stable for o in found[0]):
        surface, orbits = fn.stabilize_all(surface, found[0])
        found.append(orbits)
    return found, fn.quotient_to_datum(surface, found[-1])


class TestStoredLevelSetWork:
    """``check_surface`` keeps its projected samples and
    ``find_critical_orbits`` its projected seed grid in
    ``fn._level_store``, one entry per level jet object; every surface with
    the same level jet shares them, the bumped surface of ``_bumped``
    included."""

    def test_each_projection_once(self, monkeypatch):
        # projecting the 1,000 samples and the 1,100-seed grid again on the
        # stabilized surface, the grid together with the extra seeds, took
        # [1000, 1100, 1000, 1128]; a later search on another epsilon has
        # the same F and projects nothing
        fn._level_store.cache_clear()
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        calls = counted_projections(monkeypatch)
        orbits = fn.find_critical_orbits(surface)
        fn.stabilize_all(surface, orbits)
        extra = len(orbits) + 2 * 12  # two unstable poles, 12 seeds each
        assert calls == [1000, 1100, extra]
        fn.find_critical_orbits(fn.epsilon_sphere_surface(epsilon=0.9))
        assert calls == [1000, 1100, extra]

    def test_seed_grid_rows_match_a_fresh_projection(self):
        # projection is row by row, so the stored grid is the projection of
        # all seeds at once, at the first row of each dedup cell, and the
        # extra seeds follow it as projected with them
        fn._level_store.cache_clear()
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        fn.find_critical_orbits(surface)
        tols = surface.tolerances
        extra = np.random.default_rng(7).uniform(-2.0, 2.0, (30, 3))
        fresh = fn._project_batch(surface, np.concatenate(
            [default_seeds(surface), extra]))
        first = {}
        for row in fresh[:-len(extra)]:
            first.setdefault(tuple(np.floor(
                row / (tols.dedup_tol / np.sqrt(3)))), row)
        assert np.array_equal(stored_grid(surface), list(first.values()))
        assert np.array_equal(fresh[-len(extra):],
                              fn._project_batch(surface, extra))

    @pytest.mark.parametrize("tols", [(1e-6, 0.5), (0.5, 1e-6)],
                             ids=["fine-first", "coarse-first"])
    def test_each_dedup_tol_keeps_its_own_grid(self, tols):
        # surfaces with one F share the store, so a grid thinned at an
        # earlier search's dedup_tol must not serve a later one: at 0.5 the
        # sphere grid keeps 162 rows, at 1e-6 220
        fn._level_store.cache_clear()
        for tol in tols:
            surface = fn.sphere_surface(tolerances=fn.Tolerances(
                dedup_tol=tol))
            fn.find_critical_orbits(surface)
            grid = stored_grid(surface)
            assert len(grid) == {1e-6: 220, 0.5: 162}[tol]
            assert np.array_equal(grid, fn._first_per_cell(
                fn._project_batch(surface, default_seeds(surface)), tol))

    @pytest.mark.parametrize("make, before", [
        (lambda t: fn.torus_surface(tilt=t), (0.2, 0.3, 0.25)),
        (lambda e: fn.epsilon_sphere_surface(epsilon=e), (1.0, 0.8)),
    ], ids=["torus-0.25", "epsilon-0.80"])
    def test_warm_store_gives_the_cold_answer(self, monkeypatch, make,
                                              before):
        # the last surface searched after the others, on the store they
        # filled, finds the lifts and the datum it finds on an empty store
        calls = counted_projections(monkeypatch)
        fn._level_store.cache_clear()
        cold_lifts, cold_datum = searched(make(before[-1]))
        assert calls[:2] == [1000, 1100]
        local = calls[2:]  # extra seeds and census starts
        fn._level_store.cache_clear()
        for value in before[:-1]:
            searched(make(value))
        del calls[:]
        warm_lifts, warm_datum = searched(make(before[-1]))
        assert calls == local
        assert lift_bytes(warm_lifts) == lift_bytes(cold_lifts)
        assert warm_datum == cold_datum

    def test_each_torus_shape_projects_its_own_grid(self, monkeypatch):
        fn._level_store.cache_clear()
        fn.find_critical_orbits(fn.torus_surface())
        calls = counted_projections(monkeypatch)
        fn.find_critical_orbits(fn.torus_surface(tilt=0.3, major=3.0))
        assert calls == [1000, 1100]
        fn.find_critical_orbits(fn.torus_surface(tilt=0.2, major=3.0))
        assert calls == [1000, 1100]

    def test_failed_projection_stores_nothing(self, monkeypatch):
        # F = |x|^2 + 1 has no zero: every check projects the samples
        # again and raises again
        surface = dataclasses.replace(
            fn.sphere_surface(), level_jet=lambda x, order: (
                np.einsum("ij,ij->j", x, x) + 1.0, 2.0 * x)[:order + 1])
        calls = counted_projections(monkeypatch)
        for _ in range(2):
            with pytest.raises(BadParams, match="could not project"):
                fn.check_surface(surface)
        assert calls == [1000, 1000]

    def test_stored_arrays_are_read_only(self):
        surface = fn.torus_surface()
        fn.find_critical_orbits(surface)
        store = fn._level_store(surface.level_jet)
        for array in (store.samples, *store.grids.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_one_lift_bump_is_not_invariant(self, monkeypatch):
        # a bump on one lift of max0's two lifts breaks the half-turn
        # symmetry of f; the stored samples still show it, and nothing is
        # projected again
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        orbits = fn.find_critical_orbits(surface)
        top = next(o for o in orbits if o.label == "max0")
        assert len(top.points) == 2
        bumped = fn._bumped(surface, [(top.points[0].position[None], 0.3,
                                       0.1)])
        calls = counted_projections(monkeypatch)
        with pytest.raises(BadParams,
                           match="the Morse function is not group invariant"):
            fn.check_surface(bumped)
        assert calls == []


class TestOneBump:
    def test_one_bump_evaluation_per_field_call(self, monkeypatch, epsilon_run):
        # both unstable poles are bumped, each order evaluates them
        # together, and so does a call without the value; the centers are
        # the leading axis after the components
        real = fn._bump_parts
        centers = []

        def counted(x, c, neg_w2):
            centers.append(c.shape[1])
            return real(x, c, neg_w2)

        monkeypatch.setattr(fn, "_bump_parts", counted)
        surface = epsilon_run.surface
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 20))
        for order in (0, 1, 2):
            surface.morse_jet(x, order)
        surface.morse_jet(x, 1, value=False)
        assert centers == [2, 2, 2, 2]

    def test_sum_of_single_orbit_bumps(self, epsilon_run):
        # stabilize_all subtracts the bumps stabilize_numeric makes per orbit
        raw, orbits = epsilon_run.raw_surface, epsilon_run.pre_orbits
        single = [fn.stabilize_numeric(raw, o.representative, orbits)
                  for o in orbits if not o.stable]
        assert len(single) == 2
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 50))
        for order in (0, 1, 2):
            base = raw.morse_jet(x, 2)[order]
            expected = base + sum(s.morse_jet(x, 2)[order] - base
                                  for s in single)
            assert np.allclose(epsilon_run.surface.morse_jet(x, 2)[order],
                               expected, rtol=0.0, atol=1e-12)
