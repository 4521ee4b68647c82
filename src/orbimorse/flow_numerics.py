"""Numerical discovery of Morse data on implicit surfaces in 3-space with
a finite orthogonal symmetry group.

The pipeline finds critical points by Newton iteration on the Lagrange
system, groups them into group orbits, classifies index / stabilizer /
stability, counts signed flow lines of the projected negative gradient by
following the descending and ascending branches of every saddle, and
descends everything to a Morse datum for the quotient.

Every surface field (``level``, ``morse`` and their ``_grad`` and ``_hess``)
takes a batch of positions of shape (n, 3) and returns values of shape
(n,), gradients of shape (n, 3) and Hessians of shape (n, 3, 3); none
accepts a single point.  The saddle branches are integrated as one batch in
a fixed order, so runs produce identical output.  The metric is the induced
Euclidean metric, which is automatically equivariant for an orthogonal
group action.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    BoundarySquaredNonzero,
    BrokenFlowDetected,
    BumpTooWide,
    DegenerateCritical,
    NonConvergentTrajectory,
    SeedGridExhausted,
    UnstableEndpoint,
    UnsupportedProfile,
)
from .morse_datum import (
    CriticalPointRecord,
    FlowCount,
    MorseDatum,
    coinvariant_complex,
    invariant_complex,
    validate,
)

__all__ = [
    "Tolerances",
    "ImplicitQuotientSurface",
    "NumericCriticalPoint",
    "CriticalOrbit",
    "FlowLineCounter",
    "sphere_surface",
    "torus_surface",
    "epsilon_sphere_surface",
    "surface_from_spec",
    "group_from_generators",
    "check_surface",
    "find_critical_orbits",
    "count_flow_lines",
    "stabilize_numeric",
    "stabilize_all",
    "quotient_to_datum",
]

_CAPTURE_RADIUS = 1e-9        # distance at which a trajectory has arrived
_STALL_SPEED = 1e-12          # below this the flow is considered parked
_MAX_STEPS = 20000


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds; defaults assume unit-scale surfaces in double
    precision.

    No field sizes the census steps: each RK4 step is sized by a bound on
    how fast the projected flow changes where the trajectory is (see
    ``FlowLineCounter``).
    """

    newton_tol: float = 1e-12
    dedup_tol: float = 1e-6
    stab_tol: float = 1e-8
    escape_radius: float = 1e3
    seed_count: int = 220
    seed_radii: tuple = (0.6, 1.0, 1.8, 2.6, 3.2)
    degeneracy_tol: float = 1e-7
    shoot_offset: float = 1e-5


@dataclass(frozen=True, eq=False)
class ImplicitQuotientSurface:
    """A level-set surface F = 0 with a Morse function f and a finite
    orthogonal group under which both are invariant."""

    name: str
    level: object
    level_grad: object
    level_hess: object
    morse: object
    morse_grad: object
    morse_hess: object
    group: tuple
    tolerances: Tolerances = field(default_factory=Tolerances)
    euler_characteristic: int | None = None
    point_namer: object = None


@dataclass
class NumericCriticalPoint:
    """One lift of a critical point: position, Morse index, stabilizer
    elements (indices into the group), an orthonormal frame spanning the
    descending directions, both tangent-Hessian eigenvalues (ascending),
    and the chosen orientation sign of the frame."""

    position: np.ndarray
    index: int
    stab_elements: tuple
    negative_frame: np.ndarray
    eigenvalues: tuple
    stable: bool
    orientation: int = 1


@dataclass
class CriticalOrbit:
    """A group orbit of critical lifts; the representative comes first and
    carries the orientation data, the per-lift frames are its pushforwards."""

    label: str
    points: list
    lift_elements: tuple  # group element index g with g @ rep == lift

    @property
    def representative(self):
        return self.points[0]

    @property
    def index(self):
        return self.points[0].index

    @property
    def stable(self):
        return self.points[0].stable

    @property
    def stab_order(self):
        return len(self.points[0].stab_elements)


# --------------------------------------------------------------------------
# groups and built-in surfaces

GENERATOR_NAMES = {
    "identity": np.eye(3),
    "rotation_pi_z": np.diag([-1.0, -1.0, 1.0]),
    "antipodal": -np.eye(3),
}


def _group_key(g):
    return tuple(np.round(g, 9).ravel())


def group_from_generators(names):
    """Close a set of named generators under multiplication."""
    mats = [np.eye(3)]
    for name in names:
        try:
            mats.append(np.array(GENERATOR_NAMES[name], dtype=float))
        except KeyError:
            raise BadParams(
                f"unknown generator {name!r}; choose from "
                f"{sorted(GENERATOR_NAMES)}") from None

    elements = {_group_key(g): g for g in mats}
    changed = True
    while changed:
        changed = False
        current = list(elements.values())
        for a in current:
            for b in current:
                c = a @ b
                k = _group_key(c)
                if k not in elements:
                    if len(elements) >= 256:
                        raise BadParams("generator set does not close into a"
                                        " small finite group")
                    elements[k] = c
                    changed = True
    # the identity always comes first; the rest in a deterministic order
    identity_key = _group_key(np.eye(3))
    ordered = [identity_key] + [k for k in sorted(elements) if k != identity_key]
    return tuple(elements[k] for k in ordered)


# F = |x|^2 - 1 for the unit sphere, and the Hessian of a linear f

def _sphere_level(x):
    return np.einsum("ij,ij->i", x, x) - 1.0


def _sphere_level_grad(x):
    return 2.0 * x


def _sphere_level_hess(x):
    return np.broadcast_to(2.0 * np.eye(3), (x.shape[0], 3, 3)).copy()


def _zero_hess(x):
    return np.zeros((x.shape[0], 3, 3))


def sphere_surface(tolerances=None, group=()):
    """The unit sphere with the plain height function."""

    def morse(x):
        return x[:, 2].copy()

    def morse_grad(x):
        g = np.zeros_like(x)
        g[:, 2] = 1.0
        return g

    return ImplicitQuotientSurface(
        name="sphere", level=_sphere_level, level_grad=_sphere_level_grad,
        level_hess=_sphere_level_hess,
        morse=morse, morse_grad=morse_grad, morse_hess=_zero_hess,
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=2)


def torus_surface(tilt=0.25, major=2.0, minor=1.0, tolerances=None, group=()):
    """Torus of revolution about the z-axis with a tilted height function.

    The plain height z is degenerate on this surface (its critical set is
    a pair of circles), so the Morse function is z + tilt * x, whose four
    critical points sit in the y = 0 plane at closed-form positions.
    """
    if tilt == 0:
        raise BadParams("tilt must be nonzero: the plain height function is"
                        " degenerate on a torus of revolution")

    def rho(x):
        return np.maximum(np.hypot(x[:, 0], x[:, 1]), 1e-9)

    def value(x):
        return (rho(x) - major) ** 2 + x[:, 2] ** 2 - minor ** 2

    def grad(x):
        p = rho(x)
        s = 2.0 * (p - major) / p
        return np.stack([s * x[:, 0], s * x[:, 1], 2.0 * x[:, 2]], axis=1)

    def hess(x):
        p = rho(x)
        p3 = p ** 3
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 0, 0] = 2.0 - 2.0 * major * x[:, 1] ** 2 / p3
        out[:, 1, 1] = 2.0 - 2.0 * major * x[:, 0] ** 2 / p3
        out[:, 0, 1] = out[:, 1, 0] = 2.0 * major * x[:, 0] * x[:, 1] / p3
        out[:, 2, 2] = 2.0
        return out

    def morse(x):
        return x[:, 2] + tilt * x[:, 0]

    def morse_grad(x):
        g = np.zeros_like(x)
        g[:, 0] = tilt
        g[:, 2] = 1.0
        return g

    return ImplicitQuotientSurface(
        name="torus", level=value, level_grad=grad, level_hess=hess,
        morse=morse, morse_grad=morse_grad, morse_hess=_zero_hess,
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=0)


def epsilon_sphere_surface(epsilon=0.8, group=("rotation_pi_z",), tolerances=None):
    """Unit sphere with f = z + epsilon (x^2 - y^2), invariant under the
    half-turn about the z-axis.  For epsilon > 1/2 the poles are saddles
    whose descending line is reversed by the half-turn."""

    def morse(x):
        return x[:, 2] + epsilon * (x[:, 0] ** 2 - x[:, 1] ** 2)

    def morse_grad(x):
        return np.stack([2.0 * epsilon * x[:, 0],
                         -2.0 * epsilon * x[:, 1],
                         np.ones(x.shape[0])], axis=1)

    def morse_hess(x):
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 0, 0] = 2.0 * epsilon
        out[:, 1, 1] = -2.0 * epsilon
        return out

    def namer(pos):
        if np.linalg.norm(pos - np.array([0.0, 0.0, 1.0])) < 1e-4:
            return "north_pole"
        if np.linalg.norm(pos - np.array([0.0, 0.0, -1.0])) < 1e-4:
            return "south_pole"
        return None

    return ImplicitQuotientSurface(
        name="epsilon_sphere", level=_sphere_level,
        level_grad=_sphere_level_grad, level_hess=_sphere_level_hess,
        morse=morse, morse_grad=morse_grad, morse_hess=morse_hess,
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=2,
        point_namer=namer)


def surface_from_spec(kind, params=None, group=(), tolerances=None):
    params = dict(params or {})
    if kind == "sphere":
        return sphere_surface(tolerances=tolerances, group=tuple(group))
    if kind == "torus":
        return torus_surface(tolerances=tolerances, group=tuple(group), **params)
    if kind == "epsilon_sphere":
        return epsilon_sphere_surface(
            tolerances=tolerances, group=tuple(group) or ("rotation_pi_z",),
            **params)
    raise BadParams(f"unknown surface kind {kind!r}")


# --------------------------------------------------------------------------
# basic geometry helpers

def _fibonacci_directions(n):
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _project_batch(surface, pts, iters=3):
    """Newton steps along the level gradient back onto the surface."""
    x = np.array(pts, dtype=float)
    for _ in range(iters):
        val = surface.level(x)
        g = surface.level_grad(x)
        denom = np.maximum(np.einsum("ij,ij->i", g, g), 1e-300)
        x = x - (val / denom)[:, None] * g
    return x


def _velocity(surface, x):
    """Negative gradient of f projected onto the tangent planes."""
    g = surface.level_grad(x)
    n = g / np.linalg.norm(g, axis=1, keepdims=True)
    gf = surface.morse_grad(x)
    return -(gf - np.einsum("ij,ij->i", n, gf)[:, None] * n)


def _local_rate(surface, x):
    """A bound on the Lipschitz rate of the projected flow at each row,
    ||Hess f|| + |grad f| ||Hess F|| / |grad F| in spectral norms.  At a
    critical point, where grad f = lambda grad F, it is at least the largest
    |tangent-Hessian eigenvalue|."""
    level_norm = np.linalg.norm(surface.level_grad(x), axis=1)
    morse_norm = np.linalg.norm(surface.morse_grad(x), axis=1)
    level_hess = np.abs(np.linalg.eigvalsh(surface.level_hess(x))).max(axis=1)
    morse_hess = np.abs(np.linalg.eigvalsh(surface.morse_hess(x))).max(axis=1)
    return morse_hess + morse_norm * level_hess / level_norm


def _tangent_basis(n):
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = e - (e @ n) * n
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def _canonical_sign(vec):
    j = int(np.argmax(np.abs(vec)))
    return vec if vec[j] > 0 else -vec


def check_surface(surface, samples=1000):
    """Verify the structural invariants: the group is a closed set of
    orthogonal matrices and both fields are invariant on surface samples."""
    tol = surface.tolerances.stab_tol
    group = surface.group
    if not group:
        raise BadParams("the group must at least contain the identity")

    keys = {_group_key(g) for g in group}
    for g in group:
        if np.max(np.abs(g.T @ g - np.eye(3))) > tol:
            raise BadParams("group contains a non-orthogonal matrix")
        if _group_key(np.linalg.inv(g)) not in keys:
            raise BadParams("group is not closed under inverses")
        for h in group:
            if _group_key(g @ h) not in keys:
                raise BadParams("group is not closed under products")

    pts = _project_batch(surface, _fibonacci_directions(samples), iters=60)
    on_surface = np.abs(surface.level(pts)) < 1e-9
    pts = pts[on_surface]
    if len(pts) < samples // 2:
        raise BadParams("could not project the sample grid onto the surface")
    f_vals = surface.morse(pts)
    lvl_vals = surface.level(pts)
    for g in group:
        moved = pts @ g.T
        if np.max(np.abs(surface.morse(moved) - f_vals)) > tol:
            raise BadParams("the Morse function is not group invariant")
        if np.max(np.abs(surface.level(moved) - lvl_vals)) > tol:
            raise BadParams("the level function is not group invariant")


# --------------------------------------------------------------------------
# critical points

def _newton_critical_points(surface, seeds):
    """Batched Newton iteration on (grad f = lambda grad F, F = 0).

    Only live rows are iterated, for at most 80 rounds.  Each round
    evaluates the residual on the live rows and retires every row whose
    max-norm residual is below ``newton_tol`` or not finite; the rest take
    one clipped Newton step, after which a row that is no longer finite or
    has left |x| <= 50 is retired too.  Retired rows are not restarted (a
    restart at the origin would meet a vanishing level gradient and a
    singular Jacobian), and a seed whose level gradient vanishes or is not
    finite never enters.  The residual filter over all rows at the end
    alone decides which points are returned.
    """
    x = _project_batch(surface, seeds, iters=60)
    g = surface.level_grad(x)
    gg = np.einsum("ij,ij->i", g, g)
    enters = gg > 0.0  # False for a vanishing or non-finite level gradient
    live = np.flatnonzero(enters)
    lam = np.divide(np.einsum("ij,ij->i", surface.morse_grad(x), g), gg,
                    out=np.zeros(len(x)), where=enters)
    tol = surface.tolerances.newton_tol

    for _ in range(80):
        xl, laml = x[live], lam[live]
        g = surface.level_grad(xl)
        res = np.concatenate(
            [surface.morse_grad(xl) - laml[:, None] * g,
             surface.level(xl)[:, None]], axis=1)
        keep = np.max(np.abs(res), axis=1) >= tol  # False if not finite
        live, xl, laml, g, res = (
            live[keep], xl[keep], laml[keep], g[keep], res[keep])
        if not len(live):
            break
        jac = np.zeros((len(live), 4, 4))
        jac[:, :3, :3] = (surface.morse_hess(xl)
                          - laml[:, None, None] * surface.level_hess(xl))
        jac[:, :3, 3] = -g
        jac[:, 3, :3] = g
        try:
            delta = np.linalg.solve(jac, -res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.einsum("nij,nj->ni", np.linalg.pinv(jac), -res)
        step = np.clip(delta, -0.5, 0.5)
        xl = xl + step[:, :3]
        x[live] = xl
        lam[live] = laml + step[:, 3]
        bad = ~np.isfinite(xl).all(axis=1) | (np.linalg.norm(xl, axis=1) > 50.0)
        live = live[~bad]

    res = np.concatenate(
        [surface.morse_grad(x) - lam[:, None] * surface.level_grad(x),
         surface.level(x)[:, None]], axis=1)
    ok = np.max(np.abs(res), axis=1) < tol
    return x[ok]


def _first_of_clusters(points, tol):
    """Indices, ascending, of the points a greedy pass in input order keeps:
    a point is dropped when it lies within ``tol`` of an earlier kept one."""
    free = np.ones(len(points), dtype=bool)
    kept = []
    while free.any():
        i = int(np.argmax(free))
        kept.append(i)
        free &= np.linalg.norm(points - points[i], axis=1) >= tol
    return np.array(kept, dtype=int)


def _tangent_data(surface, pos):
    """Eigenvalues (ascending) of the Hessian of f - lambda F restricted to
    the tangent plane at a critical point, and the descending frame: one
    canonically signed unit vector per negative eigenvalue."""
    x = pos[None]
    g = surface.level_grad(x)[0]
    n = g / np.linalg.norm(g)
    gf = surface.morse_grad(x)[0]
    lam = float(gf @ g / (g @ g))
    h = surface.morse_hess(x)[0] - lam * surface.level_hess(x)[0]
    t1, t2 = _tangent_basis(n)
    m = np.array([[t1 @ h @ t1, t1 @ h @ t2],
                  [t2 @ h @ t1, t2 @ h @ t2]])
    m = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(m)
    if np.min(np.abs(eigvals)) < surface.tolerances.degeneracy_tol:
        raise DegenerateCritical(
            f"tangent-Hessian eigenvalue {eigvals} below tolerance at {pos}")
    frame = [_canonical_sign(vec / np.linalg.norm(vec))
             for vec in (eigvecs[0, k] * t1 + eigvecs[1, k] * t2
                         for k in range(2) if eigvals[k] < 0)]
    return tuple(float(e) for e in eigvals), np.array(frame).reshape(-1, 3)


def _stab_elements(surface, pos):
    tol = surface.tolerances.stab_tol
    return tuple(i for i, g in enumerate(surface.group)
                 if np.linalg.norm(g @ pos - pos) < tol)


def _is_stable(surface, stab_idx, frame):
    tol = surface.tolerances.stab_tol
    for i in stab_idx:
        g = surface.group[i]
        for v in frame:
            if np.max(np.abs(g @ v - v)) > tol:
                return False
    return True


def find_critical_orbits(surface, extra_seeds=None):
    """Locate all critical points of f on the surface and organize them as
    group orbits, classified by index, stabilizer, and stability.

    Seeds come from a deterministic spherical grid at several radii; the
    points found must include a minimum and a maximum, and their
    alternating count must reproduce the surface's Euler characteristic,
    otherwise the grid missed a point and SeedGridExhausted is raised; its
    message names the seed radii and the radii at which the seeds meet the
    surface.
    """
    check_surface(surface)
    tols = surface.tolerances
    dirs = _fibonacci_directions(tols.seed_count)
    seeds = np.concatenate([r * dirs for r in tols.seed_radii], axis=0)
    if extra_seeds is not None and len(extra_seeds):
        seeds = np.concatenate([seeds, np.asarray(extra_seeds, dtype=float)],
                               axis=0)

    found = _newton_critical_points(surface, seeds)
    points = found[_first_of_clusters(found, tols.dedup_tol)]

    # Close the set under the group action: the image of a critical point
    # under an invariance is a critical point exactly.
    group = np.array(surface.group)
    closed = np.concatenate(
        [points, np.einsum("gij,pj->pgi", group, points).reshape(-1, 3)])
    closed = closed[_first_of_clusters(closed, tols.dedup_tol)]

    # Partition into orbits: the first uncovered point in sorted order is a
    # representative, the distinct points of [rep; g @ rep] are its lifts.
    identity_index = next(
        (i for i, g in enumerate(surface.group)
         if np.max(np.abs(g - np.eye(3))) < tols.stab_tol), None)
    if identity_index is None:
        raise BadParams("the group does not contain the identity")
    closed = closed[np.lexsort(np.round(closed, 9).T[::-1])]
    covered = np.zeros(len(closed), dtype=bool)
    orbits = []
    while not covered.all():
        rep = closed[np.argmax(~covered)]
        candidates = np.concatenate([rep[None], group @ rep])
        keep = _first_of_clusters(candidates, tols.dedup_tol)
        lift_positions = candidates[keep]
        lift_elems = (identity_index, *(int(k) - 1 for k in keep[1:]))
        covered |= np.any(np.linalg.norm(
            closed[:, None] - lift_positions[None], axis=2) < tols.dedup_tol,
            axis=1)

        eigenvalues, frame = _tangent_data(surface, rep)
        stabs = [_stab_elements(surface, pos) for pos in lift_positions]
        stable = _is_stable(surface, stabs[0], frame)
        pts = [NumericCriticalPoint(
            position=pos.copy(), index=len(frame), stab_elements=stab,
            negative_frame=frame @ group[gi].T,
            eigenvalues=eigenvalues, stable=stable)
            for pos, gi, stab in zip(lift_positions, lift_elems, stabs)]
        if len(pts) * len(stabs[0]) != len(surface.group):
            raise NonConvergentTrajectory(
                "orbit size times stabilizer order does not equal the group"
                " order; duplicate-merge tolerance is inconsistent")
        orbits.append(CriticalOrbit(label="", points=pts,
                                    lift_elements=lift_elems))

    def seed_reach():
        # where the seed grid meets the surface, against the surface's size
        radii = np.linalg.norm(_project_batch(surface, seeds, iters=60), axis=1)
        radii = radii[np.isfinite(radii)]
        reach = (f"project onto the surface at radii {radii.min():.3g} to "
                 f"{radii.max():.3g}" if len(radii) else
                 "project onto no finite point")
        return f"; the seeds at radii {tuple(tols.seed_radii)} {reach}"

    # A Morse function on a closed surface has a minimum and a maximum.
    missing = [name for index, name in ((0, "minimum"), (2, "maximum"))
               if not any(o.index == index for o in orbits)]
    if missing:
        raise SeedGridExhausted(
            f"no {' and no '.join(missing)} found among "
            f"{len(orbits)} critical orbits; a Morse function on a closed "
            f"surface has both{seed_reach()}")

    # Euler-characteristic sanity check over all lifts upstairs.
    if surface.euler_characteristic is not None:
        total = sum((-1) ** (o.index % 2) * len(o.points) for o in orbits)
        if total != surface.euler_characteristic:
            raise SeedGridExhausted(
                f"alternating critical count {total} does not match the "
                f"surface Euler characteristic {surface.euler_characteristic}"
                f"{seed_reach()}")

    orbits.sort(key=lambda o: (-o.index,
                               tuple(np.round(o.representative.position, 9))))
    class_names = {2: "max", 1: "saddle", 0: "min"}
    counters = {}
    for orbit in orbits:
        name = None
        if surface.point_namer is not None:
            name = surface.point_namer(orbit.representative.position)
        if name is None:
            word = class_names.get(orbit.index, f"ind{orbit.index}")
            counters[word] = counters.get(word, 0)
            name = f"{word}{counters[word]}"
            counters[word] += 1
        orbit.label = name
    return orbits


# --------------------------------------------------------------------------
# flow-line counting

class FlowLineCounter:
    """Counts signed flow lines between stable critical orbits.

    On a surface every flow line between orbits of adjacent index is a
    branch of a saddle's one-dimensional descending or ascending manifold,
    so one census of 2 + 2 trajectories per saddle decides every count.
    Counts start at one representative per source orbit: every group orbit
    of flow lines meets the chosen lift exactly once because stabilizers
    are constant along flows and fix the descending directions of a stable
    point.  Signs are local because the linearized flow preserves the
    orientation of the tangent plane.  The census is integrated as one
    batch on the first count and cached.

    Each RK4 step of a branch is 1.5 / L(x), with L the ``_local_rate``
    bound at the branch's current position: RK4 damps a mode of decay rate
    k only for steps h with h k below ~2.8, and L bounds every such k near
    x, so steps are short only where the flow changes fast.
    """

    def __init__(self, surface, orbits):
        self.surface = surface
        self.orbits = list(orbits)
        self.tols = surface.tolerances
        self.lifts = [(oi, p) for oi, orbit in enumerate(self.orbits)
                      for p in orbit.points]
        self.lift_positions = np.array([p.position for _, p in self.lifts])
        self._census = None

    # -- public API --------------------------------------------------------

    def count(self, from_orbit, to_orbit):
        fi = self._orbit_index(from_orbit)
        ti = self._orbit_index(to_orbit)
        source, target = self.orbits[fi], self.orbits[ti]
        if not source.stable or not target.stable:
            raise UnstableEndpoint(
                f"cannot count flows between {source.label!r} and "
                f"{target.label!r}: both orbits must be stable")
        if source.index - target.index != 1:
            raise BadParams(
                f"flow counting needs an index gap of exactly 1, got "
                f"{source.index} -> {target.index}")
        if self._census is None:
            self._census = self._saddle_census()
        flag = (source.representative.orientation
                * target.representative.orientation)
        return flag * sum(sign for lift, sign in self._census[fi]
                          if self.lifts[lift][0] == ti)

    def _orbit_index(self, orbit):
        for i, o in enumerate(self.orbits):
            if o is orbit or o.label == getattr(orbit, "label", orbit):
                return i
        raise KeyError(f"orbit {orbit!r} is not part of this counter")

    # -- the census of saddle branches ---------------------------------------

    def _saddle_census(self):
        """Per source orbit, the (target lift, sign) of every flow line
        leaving its representative.

        Descending: both branches of each saddle representative along its
        unstable vector u; a hit on the captured minimum lift carries the
        branch sign.  Ascending: both branches of every saddle lift along
        a = n x u; a branch ending on a maximum's representative is a line
        from it into that saddle lift.  Its sign compares the maximum's
        frame orientation sign((f0 x f1) . n) with sign((-+a) x u . n),
        the arrival direction against u, which is +1 on the +a branch.
        """
        s = self.surface
        offset = self.tols.shoot_offset
        level_grads = s.level_grad(self.lift_positions)
        starts, branches = [], []
        for lift, (oi, p) in enumerate(self.lifts):
            if p.index != 1:
                continue
            u = p.negative_frame[0]
            g = level_grads[lift]
            a = np.cross(g / np.linalg.norm(g), u)
            for sign in (1, -1):
                if p is self.orbits[oi].representative:
                    starts.append(p.position + sign * offset * u)
                    branches.append((oi, lift, sign, False))
                starts.append(p.position + sign * offset * a)
                branches.append((oi, lift, sign, True))
        census = {oi: [] for oi in range(len(self.orbits))}
        ends = self._endpoints(_project_batch(s, np.array(starts), iters=10),
                               branches)
        for (oi, lift, sign, up), end in zip(branches, ends):
            ti, hit = self.lifts[end]
            label = self.orbits[oi].label
            if not up:
                if hit.index >= 1:
                    raise BrokenFlowDetected(
                        f"descending trajectory of {label!r} limits to an"
                        f" index-{hit.index} point: the pair is not"
                        " Morse-Smale")
                census[oi].append((int(end), sign))
                continue
            if hit.index <= 1:
                raise BrokenFlowDetected(
                    f"ascending trajectory of {label!r} limits to an"
                    f" index-{hit.index} point: the pair is not Morse-Smale")
            if hit is self.orbits[ti].representative:
                f0, f1 = hit.negative_frame
                frame = 1 if np.cross(f0, f1) @ level_grads[end] > 0 else -1
                census[ti].append((lift, frame * sign))
        return census

    def _endpoints(self, starts, branches):
        """Follow each start along the projected negative gradient, or
        against it on an ascending branch, until it settles at a critical
        lift, all rows as one RK4 batch; returns the lift per start.  A
        failure names the branch of its first row, where that row was and
        how far from the nearest lift."""
        s = self.surface
        x = np.array(starts, dtype=float)
        direction = np.array([-1.0 if up else 1.0 for *_, up in branches])
        ends = np.full(len(x), -1)
        live = np.arange(len(x))
        escape = self.tols.escape_radius

        def lost(what, row):
            oi, _, sign, up = branches[row]
            dist = np.linalg.norm(self.lift_positions - x[row], axis=1).min()
            return NonConvergentTrajectory(
                f"{what}: the {'ascending' if up else 'descending'} branch"
                f" {sign:+d} of saddle {self.orbits[oi].label!r} was last at"
                f" {np.array2string(x[row], precision=6, separator=', ')},"
                f" {dist:.3g} from the nearest critical lift")

        for _ in range(_MAX_STEPS):
            xl = x[live]
            dists = np.linalg.norm(
                xl[:, None, :] - self.lift_positions[None, :, :], axis=2)
            nearest = np.argmin(dists, axis=1)
            dmin = dists[np.arange(len(live)), nearest]
            sign = direction[live, None]
            k1 = sign * _velocity(s, xl)
            speed = np.linalg.norm(k1, axis=1)

            stalled = (dmin >= _CAPTURE_RADIUS) & (speed < _STALL_SPEED)
            stranded = stalled & (dmin >= self.tols.dedup_tol)
            if np.any(stranded):
                raise lost("a trajectory stalled away from every critical"
                           " point", live[np.argmax(stranded)])
            done = (dmin < _CAPTURE_RADIUS) | stalled
            ends[live[done]] = nearest[done]
            keep = ~done
            live, xl, sign, k1 = live[keep], xl[keep], sign[keep], k1[keep]
            if not len(live):
                return ends
            escaped = np.linalg.norm(xl, axis=1) > escape
            if np.any(escaped):
                raise lost(f"a trajectory escaped to radius {escape}",
                           live[np.argmax(escaped)])

            rate = _local_rate(s, xl)
            bad_rate = ~(np.isfinite(rate) & (rate > 0.0))
            if np.any(bad_rate):
                raise lost("the local rate of the flow is zero or not finite",
                           live[np.argmax(bad_rate)])
            dt = (1.5 / rate)[:, None]
            k2 = sign * _velocity(s, xl + 0.5 * dt * k1)
            k3 = sign * _velocity(s, xl + 0.5 * dt * k2)
            k4 = sign * _velocity(s, xl + dt * k3)
            x[live] = _project_batch(
                s, xl + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), iters=2)
        raise lost(f"{len(live)} trajectories failed to settle within the"
                   " step budget", live[0])


def count_flow_lines(surface, orbits, from_orbit, to_orbit):
    """Signed count of flow lines between two stable orbits with index gap
    one.  Convenience wrapper; reuse a FlowLineCounter to share trajectory
    work across pairs."""
    return FlowLineCounter(surface, orbits).count(from_orbit, to_orbit)


# --------------------------------------------------------------------------
# numerical stabilization

def stabilize_numeric(surface, point, orbits, width=None, amplitude=None):
    """Subtract an orbit of radial bumps to stabilize an index-1 point
    whose descending line is reversed by its stabilizer.

    The bump turns the point into a local minimum of the surface function
    and creates two new index-1 points on the former descending line; when
    the stabilizer swaps them they form one free orbit.  The modified
    function stays group invariant because the bump is summed over the
    whole orbit of centers.
    """
    centers, width, amplitude = _orbit_bump(point, orbits, width, amplitude)
    return _bumped(surface, [(centers, width, amplitude)])


def _orbit_bump(point, orbits, width, amplitude):
    """Centers (the lifts of the point's orbit), width and amplitude of the
    bumps that stabilize ``point``; defaults and gates as documented on
    ``stabilize_numeric``."""
    if point.index != 1 or point.stable:
        raise UnsupportedProfile(
            "numerical stabilization needs an index-1 point whose descending"
            " line is reversed by the stabilizer")

    centers = None
    for orbit in orbits:
        for p in orbit.points:
            if np.linalg.norm(p.position - point.position) < 1e-9:
                centers = np.array([q.position for q in orbit.points])
    if centers is None:
        raise UnsupportedProfile("the point does not belong to the orbit list")

    all_positions = np.concatenate(
        [[p.position for p in o.points] for o in orbits])
    nearest = np.inf
    for c in centers:
        d = np.linalg.norm(all_positions - c[None], axis=1)
        d = d[d > 1e-9]
        nearest = min(nearest, float(d.min()))

    lam = abs(min(point.eigenvalues))
    if width is None:
        width = 0.25 * nearest
    if width > 0.5 * nearest:
        raise BumpTooWide(
            f"bump width {width} exceeds half the nearest critical distance"
            f" {nearest}")
    if amplitude is None:
        amplitude = 2.0 * lam * width ** 2
    if amplitude <= lam * width ** 2:
        raise BadParams(
            f"amplitude {amplitude} must exceed {lam * width ** 2} to flip"
            " the point into a local minimum")
    return centers, width, amplitude


def _bump_parts(x, centers, a2, amplitudes):
    """Offsets from every center and the bump values a exp(-|d|^2 / w^2),
    shapes (n, c, 3) and (n, c)."""
    diff = x[:, None, :] - centers[None, :, :]
    e = amplitudes * np.exp(-np.einsum("ncj,ncj->nc", diff, diff) / a2)
    return diff, e


def _bumped(surface, bumps):
    """The surface with f minus one radial bump per center, each bump given
    as (centers, width, amplitude); every field evaluates all centers in
    one ``_bump_parts`` call."""
    centers = np.concatenate([c for c, _, _ in bumps])
    a2 = np.concatenate([np.full(len(c), w ** 2) for c, w, _ in bumps])
    amplitudes = np.concatenate([np.full(len(c), a) for c, _, a in bumps])
    base_value = surface.morse
    base_grad = surface.morse_grad
    base_hess = surface.morse_hess

    def morse(x):
        diff, e = _bump_parts(x, centers, a2, amplitudes)
        return base_value(x) - e.sum(axis=1)

    def morse_grad(x):
        diff, e = _bump_parts(x, centers, a2, amplitudes)
        return base_grad(x) + np.einsum("nc,ncj->nj", (2.0 / a2) * e, diff)

    def morse_hess(x):
        diff, e = _bump_parts(x, centers, a2, amplitudes)
        outer = np.einsum("nci,ncj->ncij", diff, diff)
        return (base_hess(x)
                - np.einsum("nc,ncij->nij", (4.0 / a2 ** 2) * e, outer)
                + ((2.0 / a2) * e).sum(axis=1)[:, None, None] * np.eye(3))

    return dataclasses.replace(
        surface, name=surface.name + "+stabilized",
        morse=morse, morse_grad=morse_grad, morse_hess=morse_hess)


def stabilize_all(surface, orbits):
    """Stabilize every unstable orbit with the bumps of stabilize_numeric,
    all subtracted as one bump, and rerun the critical-point search,
    seeding it with the old lifts plus points along each former
    descending line where the new saddles appear."""
    unstable = [o for o in orbits if not o.stable]
    seeds = [p.position for o in orbits for p in o.points]
    bumps = []
    for orbit in unstable:
        rep = orbit.representative
        all_positions = np.concatenate(
            [[p.position for p in o.points] for o in orbits])
        dists = np.linalg.norm(all_positions - rep.position[None], axis=1)
        width = 0.25 * float(dists[dists > 1e-9].min())
        bumps.append(_orbit_bump(rep, orbits, width, None))
        for p in orbit.points:
            v = p.negative_frame[0]
            for t in (0.4, 0.8, 1.2, 1.6, 2.2, 3.0):
                seeds.append(p.position + t * width * v)
                seeds.append(p.position - t * width * v)
    current = _bumped(surface, bumps) if bumps else surface
    new_orbits = find_critical_orbits(current, extra_seeds=np.array(seeds))
    return current, new_orbits


# --------------------------------------------------------------------------
# descent to the quotient datum

def quotient_to_datum(surface, orbits, counter=None):
    """Build the Morse datum of the quotient: one critical point per
    orbit with the stabilizer order of its lifts, and one signed count per
    index-gap-1 pair of orbits.  The result is checked: it must validate
    and both of its boundary operators must square to zero."""
    unstable = sorted(o.label for o in orbits if not o.stable)
    if unstable:
        raise UnstableEndpoint(f"unstable points: {', '.join(unstable)}")
    if counter is None:
        counter = FlowLineCounter(surface, orbits)
    points = tuple(CriticalPointRecord(
        id=o.label, index=o.index, stab_order=o.stab_order, stable=True)
        for o in orbits)
    flows = []
    for src in orbits:
        for dst in orbits:
            if src.index - dst.index == 1:
                flows.append(FlowCount(src.label, dst.label,
                                       counter.count(src, dst)))
    datum = MorseDatum(points=points, flows=tuple(flows), ambient_dimension=2)
    report = validate(datum)
    if not report.ok:
        raise NonConvergentTrajectory(
            f"numerically produced datum is invalid: {report.violations}")
    try:
        coinvariant_complex(datum)
        invariant_complex(datum)
    except BoundarySquaredNonzero as exc:
        raise BoundarySquaredNonzero(
            "numerically counted flows are inconsistent; a saddle branch "
            f"probably settled at the wrong critical point ({exc})") from exc
    return datum
