import dataclasses
import math
import warnings

import numpy as np
import pytest

from orbimorse import flow_numerics as fn
from orbimorse.chain_complex import homology
from orbimorse.errors import (
    BadParams,
    BrokenFlowDetected,
    BumpTooWide,
    DegenerateCritical,
    NonConvergentTrajectory,
    SeedGridExhausted,
    UnstableEndpoint,
    UnsupportedProfile,
)
from orbimorse.morse_datum import coinvariant_complex, invariant_complex, validate


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


class TestSurfaceChecks:
    def test_sphere_passes(self):
        fn.check_surface(fn.sphere_surface())

    def test_epsilon_sphere_passes(self):
        fn.check_surface(fn.epsilon_sphere_surface())

    def test_non_invariant_function_rejected(self):
        # the antipodal map negates the height, so invariance fails
        surface = fn.sphere_surface(group=("antipodal",))
        with pytest.raises(BadParams):
            fn.check_surface(surface)

    def test_degenerate_height_rejected(self):
        with pytest.raises(BadParams):
            fn.torus_surface(tilt=0.0)

    def test_degenerate_critical_point_detected(self):
        # plain height on the torus of revolution is critical along two
        # whole circles; the tangent Hessian there has a zero eigenvalue
        base = fn.torus_surface()

        def morse(x):
            return x[:, 2].copy()

        def morse_grad(x):
            g = np.zeros_like(x)
            g[:, 2] = 1.0
            return g

        degenerate = dataclasses.replace(
            base, morse=morse, morse_grad=morse_grad, morse_hess=fn._zero_hess,
            euler_characteristic=None)
        with pytest.raises(DegenerateCritical):
            fn.find_critical_orbits(degenerate)


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
            fn.count_flow_lines(surface, orbits, orbits[0], orbits[1])

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
        def morse(x):
            return x[:, 0].copy()

        def morse_grad(x):
            g = np.zeros_like(x)
            g[:, 0] = 1.0
            return g

        surface = dataclasses.replace(
            fn.torus_surface(), morse=morse, morse_grad=morse_grad,
            morse_hess=fn._zero_hess)
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
            fn.count_flow_lines(surface, orbits, north, min0)


class TestStabilizeNumericGates:
    def test_stable_point_rejected(self, epsilon_run):
        orbits = epsilon_run.pre_orbits
        stable_orbit = next(o for o in orbits if o.label == "max0")
        with pytest.raises(UnsupportedProfile):
            fn.stabilize_numeric(epsilon_run.raw_surface,
                                 stable_orbit.representative, orbits)

    def test_bump_too_wide(self, epsilon_run):
        orbits = epsilon_run.pre_orbits
        north = next(o for o in orbits if o.label == "north_pole")
        with pytest.raises(BumpTooWide):
            fn.stabilize_numeric(epsilon_run.raw_surface,
                                 north.representative, orbits, width=10.0)

    def test_amplitude_gate(self, epsilon_run):
        orbits = epsilon_run.pre_orbits
        north = next(o for o in orbits if o.label == "north_pole")
        with pytest.raises(BadParams):
            fn.stabilize_numeric(epsilon_run.raw_surface,
                                 north.representative, orbits,
                                 width=0.2, amplitude=1e-9)


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
    def test_counts_match_convenience_function(self, epsilon_run):
        labels = {o.label: o for o in epsilon_run.orbits}
        source, target = labels["saddle0"], labels["min0"]
        direct = fn.count_flow_lines(epsilon_run.surface, epsilon_run.orbits,
                                     source, target)
        cached = epsilon_run.counter.count(source, target)
        assert direct == cached


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


def antipodal_sphere_surface():
    """Unit sphere with an antipodally symmetric Morse function; the free
    half-order quotient is the projective plane."""

    def morse(x):
        return x[:, 2] ** 2 + 0.5 * x[:, 0] ** 2

    def morse_grad(x):
        return np.stack(
            [x[:, 0], np.zeros(x.shape[0]), 2.0 * x[:, 2]], axis=1)

    def morse_hess(x):
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 0, 0] = 1.0
        out[:, 2, 2] = 2.0
        return out

    return fn.ImplicitQuotientSurface(
        name="antipodal_sphere", level=fn._sphere_level,
        level_grad=fn._sphere_level_grad, level_hess=fn._sphere_level_hess,
        morse=morse, morse_grad=morse_grad, morse_hess=morse_hess,
        group=fn.group_from_generators(("antipodal",)),
        tolerances=fn.Tolerances(), euler_characteristic=2)


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
        # swapping the maximum's two frame vectors reverses its orientation
        for point in orbits[0].points:
            point.negative_frame = point.negative_frame[::-1].copy()
        swapped = counts_of(fn.quotient_to_datum(surface, orbits))
        assert swapped[("max0", "saddle0")] == -2
        co = homology(coinvariant_complex(datum))
        assert profile(co) == [(1, ()), (0, (2,)), (0, ())]
        reference = simplicial_homology(builtin_space("rp2"))
        assert compare_homology(co, reference).match


def central_difference(field, x, h=1e-6):
    """Central differences of ``field`` along each axis, stacked last."""
    return np.stack([(field(x + step) - field(x - step)) / (2.0 * h)
                     for step in h * np.eye(3)], axis=-1)


class TestFieldContract:
    """Every field takes an (n, 3) batch and returns (n,), (n, 3) or
    (n, 3, 3); each gradient and Hessian matches central differences of
    the value and the gradient (the differences err by less than 1e-8
    on these points)."""

    @pytest.fixture(scope="class")
    def cases(self, epsilon_run):
        rng = np.random.default_rng(7)
        box = rng.uniform(-1.5, 1.5, (50, 3))
        # 0.1 to 0.3 from the z-axis, where the torus' sqrt bends hardest
        r, t = rng.uniform(0.1, 0.3, 50), rng.uniform(0.0, 2.0 * np.pi, 50)
        near_axis = np.column_stack(
            [r * np.cos(t), r * np.sin(t), rng.uniform(-1.0, 1.0, 50)])
        north = next(o for o in epsilon_run.pre_orbits
                     if o.label == "north_pole").representative
        bumped = fn.stabilize_numeric(epsilon_run.raw_surface, north,
                                      epsilon_run.pre_orbits)
        near_north = north.position + rng.uniform(-0.4, 0.4, (50, 3))
        return {
            "sphere": (fn.sphere_surface(), box),
            "torus": (fn.torus_surface(), 2.0 * box),
            "torus_near_axis": (fn.torus_surface(), near_axis),
            "epsilon_sphere": (fn.epsilon_sphere_surface(), box),
            "antipodal_sphere": (antipodal_sphere_surface(), box),
            "bumped_north_pole": (bumped, near_north),
        }

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("name", [
        "sphere", "torus", "torus_near_axis", "epsilon_sphere",
        "antipodal_sphere", "bumped_north_pole"])
    def test_shapes_and_derivatives(self, cases, name, n):
        surface, points = cases[name]
        x = points[:n]
        for value, grad, hess in (
                (surface.level, surface.level_grad, surface.level_hess),
                (surface.morse, surface.morse_grad, surface.morse_hess)):
            assert value(x).shape == (n,)
            assert grad(x).shape == (n, 3)
            assert hess(x).shape == (n, 3, 3)
            assert np.max(np.abs(central_difference(value, x) - grad(x))) < 1e-6
            assert np.max(np.abs(central_difference(grad, x) - hess(x))) < 1e-6


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
        # step is the RK4 stability bound at the local rate of the flow, so
        # slow modes near the saddles take long steps
        surface = fn.torus_surface(tilt=0.25)
        orbits = fn.find_critical_orbits(surface)
        calls = []
        velocity = fn._velocity

        def counted(surface, x):
            calls.append(len(x))
            return velocity(surface, x)

        monkeypatch.setattr(fn, "_velocity", counted)
        fn.quotient_to_datum(surface, orbits)
        assert len(calls) <= 4 * 600

    @pytest.mark.parametrize("run, most", [("torus_run", 1000),
                                           ("epsilon_run", 400)])
    def test_velocity_calls(self, monkeypatch, request, run, most):
        # an arc-length step and a cap at the stiffest critical point took
        # 1,849 calls on the torus (tilt 0.25) and 1,053 on the stabilized
        # epsilon = 0.8 sphere
        run = request.getfixturevalue(run)
        calls = []
        velocity = fn._velocity

        def counted(surface, x):
            calls.append(len(x))
            return velocity(surface, x)

        monkeypatch.setattr(fn, "_velocity", counted)
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
            spectra = [fn._tangent_data(surface, pos)[0] for pos in lifts]
            rate = fn._local_rate(surface, lifts)
            assert np.all(rate >= np.max(np.abs(spectra), axis=1) - 1e-9)

    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_bad_rate_raises(self, monkeypatch, torus_run, value):
        monkeypatch.setattr(fn, "_local_rate",
                            lambda surface, x: np.full(len(x), value))
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


def default_seeds(surface):
    tols = surface.tolerances
    dirs = fn._fibonacci_directions(tols.seed_count)
    return np.concatenate([r * dirs for r in tols.seed_radii], axis=0)


def counted_solve(monkeypatch):
    """Record the batch size of every np.linalg.solve call."""
    rows = []
    solve = np.linalg.solve

    def counted(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return rows


class TestNewtonWork:
    """Newton steps only the rows still live: converged rows and rows that
    turn non-finite or run away leave the batch and are not restarted."""

    @pytest.mark.parametrize("make", [fn.torus_surface, fn.sphere_surface],
                             ids=["torus", "sphere"])
    def test_degenerate_seeds_leave_the_batch(self, monkeypatch, make):
        # a NaN seed and the origin, where every built-in level gradient
        # vanishes, must neither send the batch to pinv nor divide by zero
        surface = make()
        tol = surface.tolerances.dedup_tol
        seeds = default_seeds(surface)
        clean = fn._newton_critical_points(surface, seeds)
        clean = clean[fn._first_of_clusters(clean, tol)]
        pinv_calls = []
        pinv = np.linalg.pinv

        def counted_pinv(a):
            pinv_calls.append(len(a))
            return pinv(a)

        monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
        dirty = np.concatenate([seeds, [[np.nan] * 3, [0.0] * 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            found = fn._newton_critical_points(surface, dirty)
        assert np.array_equal(found[fn._first_of_clusters(found, tol)], clean)
        assert pinv_calls == []

    def test_non_finite_step_retires_the_row(self, monkeypatch):
        # a restart at the origin would make the next Jacobian singular
        surface = fn.torus_surface()
        seeds = default_seeds(surface)
        rows = []
        solve = np.linalg.solve

        def poisoned(a, b):
            delta = solve(a, b)
            if not rows:
                delta[0] = np.nan
            rows.append(len(a))
            return delta

        monkeypatch.setattr(np.linalg, "solve", poisoned)
        monkeypatch.setattr(np.linalg, "pinv", None)
        found = fn._newton_critical_points(surface, seeds)
        assert rows[:2] == [len(seeds), len(seeds) - 1]
        assert np.all(np.isfinite(found))
        assert len(found[fn._first_of_clusters(
            found, surface.tolerances.dedup_tol)]) == 4

    def test_torus_solves_live_rows_only(self, monkeypatch):
        # 423 of the 1,100 torus seeds never converge; stepping all rows
        # for the 80 rounds solved 88,000 systems
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.torus_surface(tilt=0.25))
        assert len(rows) == 80
        assert sum(rows) <= 45000

    def test_round_counts(self, monkeypatch):
        # retiring rows ends no batch earlier or later than convergence did
        rows = counted_solve(monkeypatch)
        fn.find_critical_orbits(fn.sphere_surface())
        assert len(rows) == 7
        rows.clear()
        surface = fn.epsilon_sphere_surface(epsilon=0.8)
        fn.stabilize_all(surface, fn.find_critical_orbits(surface))
        assert len(rows) == 22


class TestOneBump:
    def test_one_bump_evaluation_per_field_call(self, monkeypatch, epsilon_run):
        # both unstable poles are bumped, each field evaluates them together
        real = fn._bump_parts
        centers = []

        def counted(x, c, a2, amplitudes):
            centers.append(len(c))
            return real(x, c, a2, amplitudes)

        monkeypatch.setattr(fn, "_bump_parts", counted)
        surface = epsilon_run.surface
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (20, 3))
        for field_ in (surface.morse, surface.morse_grad, surface.morse_hess):
            field_(x)
        assert centers == [2, 2, 2]

    def test_sum_of_single_orbit_bumps(self, epsilon_run):
        # stabilize_all subtracts the bumps stabilize_numeric makes per orbit
        raw, orbits = epsilon_run.raw_surface, epsilon_run.pre_orbits
        single = [fn.stabilize_numeric(raw, o.representative, orbits)
                  for o in orbits if not o.stable]
        assert len(single) == 2
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (50, 3))
        for name in ("morse", "morse_grad", "morse_hess"):
            base = getattr(raw, name)(x)
            expected = base + sum(getattr(s, name)(x) - base for s in single)
            assert np.allclose(getattr(epsilon_run.surface, name)(x), expected,
                               rtol=0.0, atol=1e-12)
