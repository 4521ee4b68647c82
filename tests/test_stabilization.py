import random
from fractions import Fraction

import pytest

from orbimorse import stabilization
from orbimorse.errors import (
    BadParams,
    DimensionMismatch,
    PointAlreadyStable,
    PointNotFound,
    SphereCountMismatch,
    UnknownBuiltin,
    ValidationFailure,
)
from orbimorse.morse_datum import (
    CriticalPointRecord,
    MorseDatum,
    ValidationReport,
    Violation,
    orbifold_euler,
    underlying_euler,
    validate,
)
from orbimorse.stabilization import (
    SphereMorseDatum,
    SphereOrbit,
    UnstableLocalData,
    builtin_sphere_datum,
    local_data_for,
    stabilize_point,
)


def teardrop_seed(m=3, n=4):
    return MorseDatum(
        points=(CriticalPointRecord("p", 2, m, stable=False),
                CriticalPointRecord("q", 0, n)),
        flows=(), ambient_dimension=2)


def bean_seed():
    return MorseDatum(
        points=(CriticalPointRecord("p", 2, 1),
                CriticalPointRecord("q", 1, 2, stable=False),
                CriticalPointRecord("r", 0, 2)),
        flows=(), ambient_dimension=2)


def s3_seed():
    return MorseDatum(
        points=(CriticalPointRecord("p", 3, 2, stable=False),
                CriticalPointRecord("q", 0, 2)),
        flows=(), ambient_dimension=3)


class TestBuiltins:
    def test_cyclic_rotation_circle(self):
        h = builtin_sphere_datum("cyclic_rotation_circle", 3)
        h.check()
        assert h.sphere_dim == 1 and h.group_order == 3
        assert h.equivariant_count() == 0  # Euler characteristic of a circle

    def test_two_points_swap(self):
        h = builtin_sphere_datum("two_points_swap")
        h.check()
        assert h.sphere_dim == 0 and h.group_order == 2
        assert h.equivariant_count() == 2

    def test_antipodal_sphere2(self):
        h = builtin_sphere_datum("antipodal_sphere2")
        h.check()
        assert h.sphere_dim == 2 and h.group_order == 2
        # three free orbits upstairs: 2 - 2 + 2
        assert h.equivariant_count() == 2

    def test_unknown_and_bad_params(self):
        with pytest.raises(UnknownBuiltin):
            builtin_sphere_datum("nonsense")
        with pytest.raises(BadParams):
            builtin_sphere_datum("cyclic_rotation_circle", 1)
        with pytest.raises(BadParams):
            builtin_sphere_datum("cyclic_rotation_circle")
        with pytest.raises(BadParams):
            builtin_sphere_datum("two_points_swap", 2)

    def test_count_mismatch_detected(self):
        broken = SphereMorseDatum(
            sphere_dim=1, group_order=2,
            orbits=(SphereOrbit("only", 0, 1),))
        with pytest.raises(SphereCountMismatch):
            broken.check()


class TestStabilizePoint:
    def test_teardrop(self):
        for m in (2, 3, 5):
            seed = teardrop_seed(m=m)
            h = builtin_sphere_datum("cyclic_rotation_circle", m)
            h.check()
            result = stabilize_point(seed, local_data_for(seed, "p", h), h)
            by_id = {p.id: p for p in result.datum.points}
            assert (by_id["p"].index, by_id["p"].stab_order) == (0, m)
            assert (by_id["p_max"].index, by_id["p_max"].stab_order) == (2, 1)
            assert (by_id["p_min"].index, by_id["p_min"].stab_order) == (1, 1)
            assert (by_id["q"].index, by_id["q"].stab_order) == (0, seed.point("q").stab_order)
            assert all(p.stable for p in result.datum.points)
            assert set(result.new_point_ids) == {"p_max", "p_min"}
            assert set(result.stale_flow_pairs) == {
                ("p_max", "p_min"), ("p_min", "p"), ("p_min", "q")}

    def test_bean(self):
        seed = bean_seed()
        h = builtin_sphere_datum("two_points_swap")
        result = stabilize_point(seed, local_data_for(seed, "q", h), h)
        by_id = {p.id: p for p in result.datum.points}
        assert (by_id["q"].index, by_id["q"].stab_order) == (0, 2)
        assert (by_id["q_pt"].index, by_id["q_pt"].stab_order) == (1, 1)
        # post-stabilization point list matches the bean datum shape
        assert sorted((p.index, p.stab_order) for p in result.datum.points) == [
            (0, 2), (0, 2), (1, 1), (2, 1)]

    def test_s3_quotient(self):
        seed = s3_seed()
        h = builtin_sphere_datum("antipodal_sphere2")
        result = stabilize_point(seed, local_data_for(seed, "p", h), h)
        assert sorted((p.index, p.stab_order) for p in result.datum.points) == [
            (0, 2), (0, 2), (1, 1), (2, 1), (3, 1)]
        assert orbifold_euler(result.datum) == 0
        # alternating point count agrees with the simplicial model of the
        # underlying space (suspension of the projective plane): 2-1+1-1 = 1
        assert underlying_euler(result.datum) == 1

    def test_euler_preserved_on_all_builtins(self):
        cases = [
            (teardrop_seed(4), "p", builtin_sphere_datum("cyclic_rotation_circle", 4)),
            (bean_seed(), "q", builtin_sphere_datum("two_points_swap")),
            (s3_seed(), "p", builtin_sphere_datum("antipodal_sphere2")),
        ]
        for seed, pid, h in cases:
            before = orbifold_euler(seed)
            result = stabilize_point(seed, local_data_for(seed, pid, h), h)
            assert orbifold_euler(result.datum) == before

    def test_flows_preserved_and_stale(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("top", 2, 1),
                    CriticalPointRecord("mid", 1, 2, stable=False),
                    CriticalPointRecord("low", 0, 2),
                    CriticalPointRecord("low2", 0, 4)),
            flows=(), ambient_dimension=2)
        h = builtin_sphere_datum("two_points_swap")
        result = stabilize_point(datum, local_data_for(datum, "mid", h), h)
        # every new gap-1 pair touching the modified region is a placeholder
        assert ("top", "mid_pt") in result.stale_flow_pairs
        assert ("mid_pt", "low") in result.stale_flow_pairs
        assert ("mid_pt", "mid") in result.stale_flow_pairs
        unknown = {(f.source, f.target) for f in result.datum.flows if not f.known}
        assert unknown == set(result.stale_flow_pairs)
        assert validate(result.datum).ok

    def test_new_indices_bounded(self):
        # new indices lie in [1 + dim_fixed, old index]
        seed = s3_seed()
        h = builtin_sphere_datum("antipodal_sphere2")
        local = local_data_for(seed, "p", h)
        result = stabilize_point(seed, local, h)
        old_index = 3
        for pid in result.new_point_ids:
            idx = result.datum.point(pid).index
            assert 1 + local.dim_fixed <= idx <= old_index

    def test_error_cases(self):
        seed = teardrop_seed(3)
        h = builtin_sphere_datum("cyclic_rotation_circle", 3)
        with pytest.raises(PointNotFound):
            stabilize_point(seed, UnstableLocalData("ghost", 0, 2, 3), h)
        with pytest.raises(PointAlreadyStable):
            stabilize_point(seed, UnstableLocalData("q", 0, 2, 4),
                            builtin_sphere_datum("cyclic_rotation_circle", 4))
        with pytest.raises(DimensionMismatch):
            stabilize_point(seed, UnstableLocalData("p", 1, 2, 3), h)
        with pytest.raises(DimensionMismatch):
            stabilize_point(seed, UnstableLocalData("p", 0, 2, 5), h)
        wrong_dim = builtin_sphere_datum("two_points_swap")
        with pytest.raises(DimensionMismatch):
            stabilize_point(
                MorseDatum(points=(CriticalPointRecord("p", 2, 2, stable=False),),
                           flows=()),
                UnstableLocalData("p", 0, 2, 2), wrong_dim)

    def test_taken_ids_get_a_numeric_suffix(self):
        seed = MorseDatum(
            points=(CriticalPointRecord("p", 2, 3, stable=False),
                    CriticalPointRecord("p_max", 1, 1),
                    CriticalPointRecord("q", 0, 3)),
            flows=(), ambient_dimension=2)
        h = builtin_sphere_datum("cyclic_rotation_circle", 3)
        result = stabilize_point(seed, local_data_for(seed, "p", h), h)
        assert result.new_point_ids == ("p_max2", "p_min")
        assert result.datum.point("p_max") == seed.point("p_max")

    @pytest.mark.parametrize("local, order, message", [
        (UnstableLocalData("p", 2, 0, 3), 3,
         "the reversed descending dimension must be >= 1"),
        (UnstableLocalData("p", -1, 3, 3), 3,
         "the fixed descending dimension must be >= 0"),
        (UnstableLocalData("p", 0, 2, 3), 2,
         "sphere datum group order 2 differs from the stabilizer order 3"),
    ])
    def test_local_data_checks(self, local, order, message):
        h = builtin_sphere_datum("cyclic_rotation_circle", order)
        with pytest.raises(DimensionMismatch) as info:
            stabilize_point(teardrop_seed(3), local, h)
        assert str(info.value) == message

    def test_invalid_result_raises(self, monkeypatch):
        # the validity check must survive python -O, so it is a raise
        failing = ValidationReport((Violation("forced", "rejected"),))
        monkeypatch.setattr(stabilization, "validate", lambda datum: failing)
        seed = teardrop_seed(3)
        h = builtin_sphere_datum("cyclic_rotation_circle", 3)
        with pytest.raises(ValidationFailure) as info:
            stabilize_point(seed, local_data_for(seed, "p", h), h)
        assert info.value.report is failing


def random_sphere_datum(rng):
    """Random valid sphere Morse datum: random orbits balanced to the
    sphere's Euler characteristic by extra minimum/saddle orbits with the
    full group as stabilizer (each contributing +1 or -1)."""
    sphere_dim = rng.randint(0, 3)
    group_order = rng.choice([1, 2, 3, 4, 6, 12])
    divisors = [d for d in range(1, group_order + 1) if group_order % d == 0]
    orbits = []
    for i in range(rng.randint(0, 4)):
        index = rng.randint(0, sphere_dim) if sphere_dim else 0
        orbits.append(SphereOrbit(f"o{i}", index, rng.choice(divisors)))
    if sphere_dim == 0:
        # every orbit counts positively, so start over from nothing
        orbits = []
    target = 2 if sphere_dim % 2 == 0 else 0
    current = sum((-1) ** (o.index % 2) * (group_order // o.stab_order)
                  for o in orbits)
    k = 0
    while current < target:
        orbits.append(SphereOrbit(f"fix{k}", 0, group_order))
        current += 1
        k += 1
    while current > target:
        orbits.append(SphereOrbit(f"fix{k}", 1, group_order))
        current -= 1
        k += 1
    datum = SphereMorseDatum(sphere_dim, group_order, tuple(orbits))
    datum.check()
    return datum


class TestEulerPreservationProperty:
    def test_hundred_random_sphere_data(self):
        rng = random.Random(8128)
        done = 0
        while done < 100:
            h = random_sphere_datum(rng)
            dim_perp = h.sphere_dim + 1
            dim_fixed = rng.randint(0, 2)
            index = dim_fixed + dim_perp
            seed = MorseDatum(
                points=(CriticalPointRecord("x", index, h.group_order,
                                            stable=False),
                        CriticalPointRecord("base", 0, 1)),
                flows=())
            before = orbifold_euler(seed)
            result = stabilize_point(
                seed, UnstableLocalData("x", dim_fixed, dim_perp, h.group_order), h)
            assert orbifold_euler(result.datum) == before
            assert isinstance(before, Fraction)
            for pid in result.new_point_ids:
                new_index = result.datum.point(pid).index
                assert 1 + dim_fixed <= new_index <= dim_fixed + dim_perp
            # underlying count moves by the documented amount
            delta = sum((-1) ** ((o.index + 1 + dim_fixed) % 2) for o in h.orbits)
            delta += (-1) ** (dim_fixed % 2) - (-1) ** (index % 2)
            assert underlying_euler(result.datum) - underlying_euler(seed) == delta
            done += 1
