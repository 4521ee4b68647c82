"""Replace a non-stable critical point by a stabilized copy plus new
stable critical points prescribed by an equivariant Morse datum on the
sphere of reversed descending directions.

The transform is pure bookkeeping on the datum: it never invents flow
counts.  Every pair whose count the local modification could change is
re-emitted as a placeholder to be filled numerically or by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParams,
    DimensionMismatch,
    PointAlreadyStable,
    SphereCountMismatch,
    UnknownBuiltin,
    ValidationFailure,
)
from .morse_datum import CriticalPointRecord, FlowCount, MorseDatum, validate

__all__ = [
    "UnstableLocalData",
    "SphereOrbit",
    "SphereMorseDatum",
    "StabilizationResult",
    "builtin_sphere_datum",
    "stabilize_point",
    "local_data_for",
]


@dataclass(frozen=True)
class UnstableLocalData:
    """Local shape of the descending space at a non-stable point: the
    dimension fixed by the stabilizer, the dimension of the reversed
    complement, and the stabilizer order."""

    point_id: str
    dim_fixed: int
    dim_perp: int
    stab_order: int


@dataclass(frozen=True)
class SphereOrbit:
    """One critical orbit of the sphere function: label, index on the
    sphere, and the order of its stabilizer (a divisor of the group)."""

    label: str
    index: int
    stab_order: int


@dataclass(frozen=True)
class SphereMorseDatum:
    """A stable equivariant Morse function on the unit sphere of the
    reversed descending directions, recorded orbit by orbit."""

    sphere_dim: int
    group_order: int
    orbits: tuple

    def equivariant_count(self):
        """Alternating count of critical points upstairs on the sphere."""
        return sum((-1) ** (o.index % 2) * (self.group_order // o.stab_order)
                   for o in self.orbits)

    def check(self):
        if self.sphere_dim < 0:
            raise BadParams(f"negative sphere dimension {self.sphere_dim}")
        if self.group_order < 1:
            raise BadParams(f"group order {self.group_order} must be positive")
        for o in self.orbits:
            if not (0 <= o.index <= self.sphere_dim):
                raise SphereCountMismatch(
                    f"orbit {o.label!r} has index {o.index} outside "
                    f"[0, {self.sphere_dim}]")
            if o.stab_order < 1 or self.group_order % o.stab_order != 0:
                raise SphereCountMismatch(
                    f"orbit {o.label!r} stabilizer order {o.stab_order} does "
                    f"not divide the group order {self.group_order}")
        expected = 2 if self.sphere_dim % 2 == 0 else 0
        got = self.equivariant_count()
        if got != expected:
            raise SphereCountMismatch(
                f"equivariant critical count {got} differs from the sphere "
                f"Euler characteristic {expected}")


@dataclass(frozen=True)
class StabilizationResult:
    datum: MorseDatum
    new_point_ids: tuple
    stale_flow_pairs: tuple


def builtin_sphere_datum(name, *params):
    """Concrete sphere Morse data for the group actions the pipeline uses.

    cyclic_rotation_circle(m): order-m rotation of the circle, one free
    orbit of maxima and one of minima (m of each upstairs).
    two_points_swap: the 0-sphere with its two points exchanged.
    antipodal_sphere2: the antipodal action on the 2-sphere, lifting the
    three-critical-point function on the quotient.  None is checked here:
    ``stabilize_point`` checks whichever sphere datum it is given.
    """
    if name == "cyclic_rotation_circle":
        if len(params) != 1:
            raise BadParams("cyclic_rotation_circle takes one parameter")
        m = params[0]
        if not isinstance(m, int) or m < 2:
            raise BadParams(f"rotation order must be an integer >= 2, got {m!r}")
        datum = SphereMorseDatum(
            sphere_dim=1, group_order=m,
            orbits=(SphereOrbit("max", 1, 1), SphereOrbit("min", 0, 1)))
    elif name == "two_points_swap":
        if params:
            raise BadParams("two_points_swap takes no parameters")
        datum = SphereMorseDatum(
            sphere_dim=0, group_order=2, orbits=(SphereOrbit("pt", 0, 1),))
    elif name == "antipodal_sphere2":
        if params:
            raise BadParams("antipodal_sphere2 takes no parameters")
        datum = SphereMorseDatum(
            sphere_dim=2, group_order=2,
            orbits=(SphereOrbit("top", 2, 1), SphereOrbit("mid", 1, 1),
                    SphereOrbit("bot", 0, 1)))
    else:
        raise UnknownBuiltin(f"no built-in sphere datum named {name!r}")
    return datum


def local_data_for(datum, point_id, sphere_datum):
    """Derive the local data of a point from the sphere datum chosen for
    it: the reversed dimension is the sphere dimension plus one and the
    fixed dimension is whatever remains of the Morse index."""
    point = datum.point(point_id)
    dim_perp = sphere_datum.sphere_dim + 1
    dim_fixed = point.index - dim_perp
    if dim_fixed < 0:
        raise DimensionMismatch(
            f"point {point_id!r} has index {point.index} but the sphere "
            f"datum needs {dim_perp} reversed directions")
    return UnstableLocalData(point_id, dim_fixed, dim_perp, point.stab_order)


def _fresh_id(base, taken):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def stabilize_point(datum, local, sphere_datum):
    """Stabilize one critical point of the datum.

    The point keeps its stabilizer, drops to index ``dim_fixed`` and is
    flagged stable; each sphere orbit contributes a new stable point of
    index ``sphere index + 1 + dim_fixed``.  All flows that touched the
    point, and all index-gap-1 pairs touching a new point, are emitted as
    placeholders; everything else is preserved.  The orbifold Euler number
    is kept by the checks below, which make the group order s the stab
    order and the index f + d + 1 (f = dim_fixed, d = dim_perp - 1), and by
    ``SphereMorseDatum.check()``, sum_o (-1)^i_o s/s_o = 1 + (-1)^d:
    after = (-1)^f/s - (-1)^f (1 + (-1)^d)/s = (-1)^index/s = before.
    """
    point = datum.point(local.point_id)
    if point.stable:
        raise PointAlreadyStable(f"point {local.point_id!r} is already stable")
    if local.dim_perp < 1:
        raise DimensionMismatch("the reversed descending dimension must be >= 1")
    if local.dim_fixed < 0:
        raise DimensionMismatch("the fixed descending dimension must be >= 0")
    if local.dim_fixed + local.dim_perp != point.index:
        raise DimensionMismatch(
            f"dim_fixed + dim_perp = {local.dim_fixed + local.dim_perp} "
            f"differs from the Morse index {point.index} of {point.id!r}")
    if local.stab_order != point.stab_order:
        raise DimensionMismatch(
            f"local stabilizer order {local.stab_order} differs from the "
            f"recorded order {point.stab_order} of {point.id!r}")
    if sphere_datum.group_order != local.stab_order:
        raise DimensionMismatch(
            f"sphere datum group order {sphere_datum.group_order} differs "
            f"from the stabilizer order {local.stab_order}")
    if sphere_datum.sphere_dim != local.dim_perp - 1:
        raise DimensionMismatch(
            f"sphere datum dimension {sphere_datum.sphere_dim} does not "
            f"match dim_perp - 1 = {local.dim_perp - 1}")
    sphere_datum.check()

    taken = {p.id for p in datum.points}
    new_points = []
    for orbit in sphere_datum.orbits:
        new_id = _fresh_id(f"{point.id}_{orbit.label}", taken)
        taken.add(new_id)
        new_points.append(CriticalPointRecord(
            id=new_id,
            index=orbit.index + 1 + local.dim_fixed,
            stab_order=orbit.stab_order,
            stable=True))

    lowered = CriticalPointRecord(
        id=point.id, index=local.dim_fixed,
        stab_order=point.stab_order, stable=True)

    points = tuple(lowered if p.id == point.id else p for p in datum.points)
    points += tuple(new_points)

    kept = tuple(f for f in datum.flows
                 if point.id not in (f.source, f.target))

    affected = {point.id} | {p.id for p in new_points}
    stale = [(a.id, b.id) for a in points for b in points
             if a.index - b.index == 1
             and (a.id in affected or b.id in affected)]
    placeholders = tuple(FlowCount(s, t, None) for s, t in stale)

    result = MorseDatum(points=points, flows=kept + placeholders,
                        ambient_dimension=datum.ambient_dimension)
    report = validate(result)
    if not report.ok:
        raise ValidationFailure(report)
    return StabilizationResult(
        datum=result,
        new_point_ids=tuple(p.id for p in new_points),
        stale_flow_pairs=tuple(stale))
