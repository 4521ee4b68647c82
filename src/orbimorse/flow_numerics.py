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
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
from .morse_datum import (
    CriticalPointRecord,
    FlowCount,
    MorseDatum,
    coinvariant_complex,
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
    "stabilize_numeric",
    "stabilize_all",
    "quotient_to_datum",
]

_STALL_SPEED = 1e-12          # below this the flow is considered parked
_MAX_STEPS = 20000
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds; defaults assume unit-scale surfaces in double
    precision.

    Two lengths place points: positions closer than ``dedup_tol`` are the
    same point (Newton's duplicates, the orbit partition, a lift's
    stabilizer, the end of a census branch), and a position farther than
    ``escape_radius`` from the origin is lost (Newton retires it, the
    census raises).  A saddle branch starts ``10 * dedup_tol`` from its
    saddle.  No field sizes the census steps: each RK4 step is sized by a
    bound on how fast the projected flow changes where the trajectory is
    (see ``FlowLineCounter``).

    Every field is checked on construction, and a bad value raises
    BadParams naming it: ``seed_count`` is a positive integer,
    ``seed_radii`` a non-empty sequence of positive finite numbers (stored
    as a tuple), and every other field a positive finite number.
    """

    newton_tol: float = 1e-12
    dedup_tol: float = 1e-6
    stab_tol: float = 1e-8
    escape_radius: float = 1e3
    seed_count: int = 220
    seed_radii: tuple = (0.6, 1.0, 1.8, 2.6, 3.2)
    degeneracy_tol: float = 1e-7

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            context = f"tolerances.{name}"
            if name == "seed_radii":
                if not isinstance(value, (list, tuple, np.ndarray)):
                    raise BadParams(f"{context}: expected a list, got"
                                    f" {type(value).__name__}")
                if not len(value):
                    raise BadParams(f"{context}: expected a non-empty list")
                object.__setattr__(self, name, tuple(
                    _number(r, context, positive=True) for r in value))
            elif name != "seed_count":
                _number(value, context, positive=True)
            elif (not isinstance(value, numbers.Integral)
                  or isinstance(value, bool) or value < 1):
                raise BadParams(
                    f"{context}: expected a positive integer, got {value!r}")


def _number(value, context, positive=False):
    """A finite real number (not a bool), positive if asked; anything else
    raises BadParams naming ``context``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or positive and value <= 0):
        kind = "positive" if positive else "finite"
        raise BadParams(f"{context}: expected a {kind} number, got {value!r}")
    return value


def _finite(**params):
    for name, value in params.items():
        _number(value, f"surface parameter {name}")


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
    """Close a set of named generators under multiplication; anything but a
    list or tuple of names from GENERATOR_NAMES raises BadParams."""
    if not isinstance(names, (list, tuple)):
        got = f"the string {names!r}" if isinstance(names, str) else names
        raise BadParams(f"group: expected generator names, got {got}")
    mats = [np.eye(3)]
    for name in names:
        if not isinstance(name, str) or name not in GENERATOR_NAMES:
            raise BadParams(f"group: unknown generator {name!r}; choose from "
                            f"{sorted(GENERATOR_NAMES)}")
        mats.append(np.array(GENERATOR_NAMES[name], dtype=float))

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
    return np.full((x.shape[0], 3, 3), 2.0 * _EYE3)


def _zero_hess(x):
    return np.zeros((x.shape[0], 3, 3))


def sphere_surface(tolerances=None, group=()):
    """The unit sphere with the plain height function."""

    def morse(x):
        return x[:, 2].copy()

    def morse_grad(x):
        return np.full(x.shape, (0.0, 0.0, 1.0))

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
    _finite(tilt=tilt, major=major, minor=minor)
    if tilt == 0:
        raise BadParams("tilt must be nonzero: the plain height function is"
                        " degenerate on a torus of revolution")
    if not 0 < minor < major:
        raise BadParams(f"need 0 < minor < major, got {minor} and {major}:"
                        " otherwise the torus is not a smooth surface")

    def rho(x):
        return np.maximum(np.hypot(x[:, 0], x[:, 1]), 1e-9)

    def value(x):
        return (rho(x) - major) ** 2 + x[:, 2] ** 2 - minor ** 2

    def grad(x):
        p = rho(x)
        s = 2.0 * (p - major) / p
        return np.stack([s * x[:, 0], s * x[:, 1], 2.0 * x[:, 2]], axis=1)

    def hess(x):
        p3 = rho(x) ** 3
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 0, 0] = 2.0 - 2.0 * major * x[:, 1] ** 2 / p3
        out[:, 1, 1] = 2.0 - 2.0 * major * x[:, 0] ** 2 / p3
        out[:, 0, 1] = out[:, 1, 0] = 2.0 * major * x[:, 0] * x[:, 1] / p3
        out[:, 2, 2] = 2.0
        return out

    def morse(x):
        return x[:, 2] + tilt * x[:, 0]

    def morse_grad(x):
        return np.full(x.shape, (tilt, 0.0, 1.0))

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
    _finite(epsilon=epsilon)
    hess = np.diag([2.0 * epsilon, -2.0 * epsilon, 0.0])
    coef = np.array([2.0 * epsilon, -2.0 * epsilon, 1.0])

    def morse(x):
        return x[:, 2] + epsilon * (x[:, 0] ** 2 - x[:, 1] ** 2)

    def morse_grad(x):
        out = x * coef
        out[:, 2] = 1.0
        return out

    def morse_hess(x):
        return np.full((x.shape[0], 3, 3), hess)

    def namer(pos):
        for name, z in (("north_pole", 1.0), ("south_pole", -1.0)):
            if np.linalg.norm(pos - np.array([0.0, 0.0, z])) < 1e-4:
                return name
        return None

    return ImplicitQuotientSurface(
        name="epsilon_sphere", level=_sphere_level,
        level_grad=_sphere_level_grad, level_hess=_sphere_level_hess,
        morse=morse, morse_grad=morse_grad, morse_hess=morse_hess,
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=2,
        point_namer=namer)


def surface_from_spec(kind, params=None, group=None, tolerances=None):
    """A built-in surface by kind name; anything but a kind name raises
    UnknownBuiltin, and ``params`` that is not a mapping, a parameter the
    kind does not take or one that is not a finite number BadParams.
    ``group`` None gives the kind's default group, and an empty list the
    trivial one."""
    builders = {"sphere": (sphere_surface, ()),
                "torus": (torus_surface, ("tilt", "major", "minor")),
                "epsilon_sphere": (epsilon_sphere_surface, ("epsilon",))}
    if not isinstance(kind, str) or kind not in builders:
        raise UnknownBuiltin(f"unknown surface kind {kind!r}; choose from "
                             f"{sorted(builders)}")
    build, names = builders[kind]
    params = {} if params is None else params
    if not isinstance(params, Mapping):
        raise BadParams(f"params: expected a mapping, got {params!r}")
    unknown = sorted(str(p) for p in set(params) - set(names))
    if unknown:
        raise BadParams(f"surface kind {kind!r} does not take "
                        f"{', '.join(unknown)}; its parameters: "
                        f"{', '.join(names) or 'none'}")
    if group is not None:
        params = {**params, "group": group}
    return build(tolerances=tolerances, **params)


# --------------------------------------------------------------------------
# basic geometry helpers

def _fibonacci_directions(n):
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _level_step(surface, x):
    """The Newton step along the level gradient towards F = 0 at each row,
    F grad F / |grad F|^2; zero where the level gradient vanishes."""
    g = surface.level_grad(x)
    denom = np.maximum(np.einsum("ij,ij->i", g, g), 1e-300)
    return (surface.level(x) / denom)[:, None] * g


def _project_batch(surface, pts):
    """``_level_step`` repeated until each row is on the surface.

    Only live rows are stepped, for at most 60 rounds, and every step is
    taken.  A row leaves after a step no shorter than its previous one (a
    non-finite length counts as not shorter): its steps have stopped
    shrinking, which on a converging row happens at roundoff.  This serves
    points that may start far from the surface: seeds, check samples and
    census starts; a census step is corrected once (``FlowLineCounter``).
    """
    x = np.array(pts, dtype=float)
    live = np.arange(len(x))
    last = np.full(len(x), np.inf)
    for _ in range(60):
        step = _level_step(surface, x[live])
        x[live] -= step
        length = np.linalg.norm(step, axis=1)
        shorter = length < last  # False if not finite
        live, last = live[shorter], length[shorter]
        if not len(live):
            break
    return x


def _row_norms(v):
    """|v| per row of an (n, 3) batch, bit for bit ``np.linalg.norm(v,
    axis=1)`` in fewer calls."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _velocity(surface, x):
    """Negative gradient of f projected onto the tangent planes, with the
    norms |grad F| and |grad f| it was made from (``_local_rate`` and the
    value rule read them)."""
    g = surface.level_grad(x)
    level_norm = _row_norms(g)
    n = g / level_norm[:, None]
    gf = surface.morse_grad(x)
    velocity = np.einsum("ij,ij->i", n, gf)[:, None] * n - gf
    return velocity, level_norm, _row_norms(gf)


def _local_rate(surface, x, level_norm, morse_norm):
    """A bound on the Lipschitz rate of the projected flow at each row,
    ||Hess f|| + |grad f| ||Hess F|| / |grad F| in spectral norms, from the
    gradient norms at the rows.  At a critical point, where
    grad f = lambda grad F, it is at least the largest |tangent-Hessian
    eigenvalue|."""
    level_hess, morse_hess = np.abs(np.linalg.eigvalsh(np.stack(
        [surface.level_hess(x), surface.morse_hess(x)]))).max(axis=2)
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


def check_surface(surface):
    """Verify the structural invariants: the group is a closed set of
    orthogonal matrices, and both fields are invariant on 1,000 Fibonacci
    directions projected onto the surface.  At least half of them must land
    within 1e-9 of F = 0.

    Every call runs every check.  Once they pass, the samples that landed
    are stored on the surface, and later calls, and the surfaces that
    ``_bumped`` makes from it, check on them instead of projecting again:
    they are a projection onto F = 0 alone.  A surface made by
    ``dataclasses.replace`` starts with none."""
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

    pts = surface.__dict__.get("_samples")
    if pts is None:
        samples = _fibonacci_directions(1000)
        pts = _project_batch(surface, samples)
        pts = pts[np.abs(surface.level(pts)) < 1e-9]
        if len(pts) < len(samples) // 2:
            raise BadParams(
                "could not project the sample grid onto the surface")
    f_vals, lvl_vals = surface.morse(pts), surface.level(pts)
    for g in group:
        moved = pts @ g.T
        if np.max(np.abs(surface.morse(moved) - f_vals)) > tol:
            raise BadParams("the Morse function is not group invariant")
        if np.max(np.abs(surface.level(moved) - lvl_vals)) > tol:
            raise BadParams("the level function is not group invariant")
    object.__setattr__(surface, "_samples", pts)


# --------------------------------------------------------------------------
# critical points

def _newton_critical_points(surface, starts):
    """Batched Newton iteration on (grad f = lambda grad F, F = 0).

    ``starts`` are seeds already projected onto the surface
    (``find_critical_orbits``); they are not changed.  A start within
    ``dedup_tol`` of an earlier one is dropped, the earlier one kept (where
    the level gradient is radial, all radii along a direction meet there).
    Only live rows are iterated, for at most 80 rounds, and the residual is
    evaluated once per round, at the points just stepped to.  A row leaves
    the batch once its max-norm residual is below ``newton_tol``, or when
    its clipped step takes it farther than ``escape_radius`` from the
    origin (or turns it non-finite) or does not lower its merit |res|^2
    (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 11.2).
    Retired rows are not restarted, and a seed whose level gradient
    vanishes or is not finite never enters.  The residual filter over all
    rows at the end alone decides which points are returned.
    """
    def residual(x, lam, g=None, mg=None):
        if g is None:
            g, mg = surface.level_grad(x), surface.morse_grad(x)
        return g, np.concatenate([mg - lam[:, None] * g,
                                  surface.level(x)[:, None]], axis=1)

    x = np.array(starts, dtype=float)
    # Sorted stably by the first coordinate of their cells of side
    # dedup_tol / sqrt(3), neighbouring rows in one cell form runs, each
    # headed by its earliest row; a row within dedup_tol of its run's head
    # is dropped.  A repeat the runs miss is only iterated again.
    tols = surface.tolerances
    cell = np.floor(x / (tols.dedup_tol / np.sqrt(3)))
    order = np.argsort(cell[:, 0], kind="stable")
    cell = cell[order]
    repeat = np.all(cell[1:] == cell[:-1], axis=1)
    if repeat.any():
        xs = x[order]
        first = np.maximum.accumulate(
            np.where(repeat, 0, np.arange(1, len(x))))
        repeat &= np.linalg.norm(xs[1:] - xs[first], axis=1) < tols.dedup_tol
        x = np.delete(x, order[1:][repeat], axis=0)
    g, mg = surface.level_grad(x), surface.morse_grad(x)
    gg = np.einsum("ij,ij->i", g, g)
    enters = gg > 0.0  # False for a vanishing or non-finite level gradient
    live = np.flatnonzero(enters)
    lam = np.divide(np.einsum("ij,ij->i", mg, g), gg,
                    out=np.zeros(len(x)), where=enters)
    g, res = residual(x[live], lam[live], g[live], mg[live])

    for _ in range(80):
        keep = np.max(np.abs(res), axis=1) >= tols.newton_tol  # NaN: False
        live, g, res = live[keep], g[keep], res[keep]
        if not len(live):
            break
        xl, laml = x[live], lam[live]
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
        x[live] = xl = xl + step[:, :3]
        lam[live] = laml = laml + step[:, 3]
        inside = np.linalg.norm(xl, axis=1) <= tols.escape_radius
        live, merit = live[inside], np.einsum("ij,ij->i", res, res)[inside]
        g, res = residual(xl[inside], laml[inside])
        lower = np.einsum("ij,ij->i", res, res) < merit  # False if not finite
        live, g, res = live[lower], g[lower], res[lower]

    ok = np.max(np.abs(residual(x, lam)[1]), axis=1) < tols.newton_tol
    return x[ok]


def _first_of_clusters(points, tol):
    """Indices, ascending, of the points a greedy pass in input order keeps:
    a point is dropped when it lies within ``tol`` of an earlier kept one."""
    free = np.ones(len(points), dtype=bool)
    kept = []
    while free.any():
        i = int(np.argmax(free))
        kept.append(i)
        free &= _row_norms(points - points[i]) >= tol
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


def find_critical_orbits(surface, extra_seeds=None):
    """Locate all critical points of f on the surface and organize them as
    group orbits, classified by index, stabilizer, and stability.

    Seeds come from a deterministic spherical grid at several radii; the
    points found must include a minimum and a maximum, and their
    alternating count must reproduce the surface's Euler characteristic,
    otherwise the grid missed a point and SeedGridExhausted is raised; its
    message names the seed radii and the radii at which the seeds meet the
    surface.

    This is the only place seeds are projected onto the surface.  The
    projected seed grid is stored on it, and ``_bumped`` hands it to the
    surface it makes, whose F and tolerances are the same; only
    ``extra_seeds`` are projected on a later call.
    """
    check_surface(surface)
    tols = surface.tolerances
    starts = surface.__dict__.get("_seed_grid")
    if starts is None:
        dirs = _fibonacci_directions(tols.seed_count)
        starts = _project_batch(
            surface, np.concatenate([r * dirs for r in tols.seed_radii]))
        object.__setattr__(surface, "_seed_grid", starts)
    if extra_seeds is not None:
        starts = np.concatenate([starts, _project_batch(
            surface, np.reshape(extra_seeds, (-1, 3)))])

    found = _newton_critical_points(surface, starts)
    found = found[_first_of_clusters(found, tols.dedup_tol)]

    # Partition into orbits: the first uncovered point in sorted order
    # names an orbit, the distinct points of [p; g @ p] are its lifts, and
    # the first of them in the same order is its representative, from
    # which the lifts are built again.  So an orbit is complete, and its
    # representative the same, whichever of its lifts Newton finds.
    group = np.array(surface.group)  # closed, by check_surface: I is in it
    identity_index = int(np.argmin(np.abs(group - np.eye(3)).max(axis=(1, 2))))

    def lifts_of(p):
        candidates = np.concatenate([p[None], group @ p])
        keep = _first_of_clusters(candidates, tols.dedup_tol)
        return candidates[keep], (identity_index,
                                  *(int(k) - 1 for k in keep[1:]))

    def sort_order(points):
        return np.lexsort(np.round(points, 9).T[::-1])

    found = found[sort_order(found)]
    covered = np.zeros(len(found), dtype=bool)
    orbits = []
    while not covered.all():
        lift_positions, lift_elems = lifts_of(found[np.argmax(~covered)])
        covered |= np.any(np.linalg.norm(
            found[:, None] - lift_positions[None], axis=2) < tols.dedup_tol,
            axis=1)
        first = sort_order(lift_positions)[0]
        if first:
            lift_positions, lift_elems = lifts_of(lift_positions[first])
        rep = lift_positions[0]

        eigenvalues, frame = _tangent_data(surface, rep)
        moved = np.einsum("gij,lj->lgi", group, lift_positions)
        fixed = (np.linalg.norm(moved - lift_positions[:, None], axis=2)
                 < tols.dedup_tol)
        stabs = [tuple(int(i) for i in np.flatnonzero(f)) for f in fixed]
        stable = not any(np.any(np.abs(frame @ group[i].T - frame)
                                > tols.stab_tol) for i in stabs[0])
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
        radii = np.linalg.norm(starts, axis=1)
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
    batch on the first count and cached.  A branch starts ``10 * dedup_tol``
    from its saddle, outside the distance ``dedup_tol`` that ends it.

    Each RK4 step of a branch is 1.5 / L(x), with L the ``_local_rate``
    bound at the branch's current position: RK4 damps a mode of decay rate
    k only for steps h with h k below ~2.8, and L bounds every such k near
    x, so steps are short only where the flow changes fast.  One Newton
    correction (``_level_step``) after each step returns the row towards
    F = 0 (Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4):
    a step leaves the surface by |F| up to ~1e-1, the next step starts
    within ~2e-4, below the step's own error along the surface, so
    projecting to roundoff would buy nothing the next step keeps.

    A branch also ends, before it is captured, once critical values decide
    its end (``_value_rule``), which relies on the complete critical set
    that ``find_critical_orbits`` checks; a saddle connection still reaches
    its saddle and raises.
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
        raise BadParams(f"orbit {orbit!r} is not part of this counter")

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
        offset = 10 * self.tols.dedup_tol
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
        ends = self._endpoints(_project_batch(s, np.array(starts)), branches)
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
        against it on an ascending branch, until it is within ``dedup_tol``
        of a critical lift or the value rule (``_value_rule``) decides its
        lift, all rows as one RK4 batch; returns the lift per start.  A row
        that stalls farther than ``dedup_tol`` from every lift, escapes past
        ``escape_radius`` or runs out of steps raises, naming its branch,
        where it was and how far from the nearest lift.  Only the live rows
        are kept, and they are cut down only on a step at which some row
        ends."""
        s = self.surface
        lifts = self.lift_positions
        capture = self.tols.dedup_tol
        escape = self.tols.escape_radius
        x = np.array(starts, dtype=float)
        direction = np.array([-1.0 if up else 1.0 for *_, up in branches])
        ends = np.full(len(x), -1)
        live = np.arange(len(x))
        limit, target = self._value_rule(
            direction, np.array([oi for oi, *_ in branches]))
        # f is evaluated per step only when the rule can decide some row
        decides = np.isfinite(limit).any()
        sign = direction[:, None]

        def lost(what, row):
            oi, _, branch, up = branches[live[row]]
            dist = _row_norms(lifts - x[row]).min()
            return NonConvergentTrajectory(
                f"{what}: the {'ascending' if up else 'descending'} branch"
                f" {branch:+d} of saddle {self.orbits[oi].label!r} was last at"
                f" {np.array2string(x[row], precision=6, separator=', ')},"
                f" {dist:.3g} from the nearest critical lift")

        for _ in range(_MAX_STEPS):
            diff = x[:, None, :] - lifts
            squared = np.add.reduce(diff * diff, axis=2)
            nearest = squared.argmin(axis=1)
            dmin = np.sqrt(squared[np.arange(len(x)), nearest])
            velocity, level_norm, morse_norm = _velocity(s, x)

            done = dmin < capture
            stranded = ~done & (_row_norms(velocity) < _STALL_SPEED)
            if stranded.any():
                raise lost("a trajectory stalled away from every critical"
                           " point", stranded.argmax())
            ended = done
            if decides:
                ended = done | self._passed(x, sign[:, 0], limit,
                                            level_norm, morse_norm)
            if ended.any():
                ends[live[ended]] = np.where(done, nearest, target)[ended]
                keep = ~ended
                live, x, sign, velocity, limit, target = (
                    live[keep], x[keep], sign[keep], velocity[keep],
                    limit[keep], target[keep])
                level_norm, morse_norm = level_norm[keep], morse_norm[keep]
                if not len(live):
                    return ends
            escaped = _row_norms(x) > escape
            if escaped.any():
                raise lost(f"a trajectory escaped to radius {escape}",
                           escaped.argmax())

            rate = _local_rate(s, x, level_norm, morse_norm)
            bad_rate = ~(np.isfinite(rate) & (rate > 0.0))
            if bad_rate.any():
                raise lost("the local rate of the flow is zero or not finite",
                           bad_rate.argmax())
            # sign * dt times a velocity is dt times the signed velocity,
            # bit for bit
            dt = sign * (1.5 / rate)[:, None]
            half = 0.5 * dt
            k1 = velocity
            k2 = _velocity(s, x + half * k1)[0]
            k3 = _velocity(s, x + half * k2)[0]
            k4 = _velocity(s, x + dt * k3)[0]
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x - _level_step(s, x)
        raise lost(f"{len(live)} trajectories failed to settle within the"
                   " step budget", 0)

    def _passed(self, x, direction, limit, level_norm, morse_norm):
        """The rows of ``x`` that the value rule decides: direction times f
        plus |F| |grad f| / |grad F| is below ``limit``, the norms taken at
        the rows.  A row is corrected towards F = 0 once per step, not
        projected, and the added slack is how far f moves to first order
        along the Newton step |F| / |grad F| that would take it there."""
        s = self.surface
        slack = np.abs(s.level(x)) * morse_norm / level_norm
        return direction * s.morse(x) + slack < limit

    def _value_rule(self, direction, sources):
        """Per row of ``direction`` (1 descending, -1 ascending) and of
        ``sources`` (the row's saddle orbit), a limit and a target lift: a
        row whose direction times f is below its limit ends at its target.
        A row that cannot be decided so gets limit -inf and target -1.

        Among the lifts outside the row's own orbit, the target is the lift
        lowest in direction times f, the limit the second lowest such value
        less ``stab_tol``; a row gets them only where that gap exceeds
        ``stab_tol`` (the margin within which ``check_surface`` calls two
        values of f equal).  Direction times f falls strictly along a branch from
        its saddle's value, which every lift of the saddle's orbit shares,
        so none of them can be its end; every other orbit counts, even at
        that value.  The lifts of an orbit share their value, so an extreme
        value is unique only at an orbit of one lift; without such a
        minimum or maximum, f is not evaluated."""
        limit = np.full(len(direction), -np.inf)
        target = np.full(len(direction), -1)
        if not {0, 2} & {o.index for o in self.orbits if len(o.points) == 1}:
            return limit, target
        values = self.surface.morse(self.lift_positions)
        lift_orbits = np.array([oi for oi, _ in self.lifts])
        margin = self.tols.stab_tol
        for d, oi in set(zip(direction.tolist(), sources.tolist())):
            others = np.flatnonzero(lift_orbits != oi)
            v = d * values[others]
            lowest, second = np.argsort(v)[:2]
            if v[second] - v[lowest] > margin:
                rows = (direction == d) & (sources == oi)
                limit[rows] = v[second] - margin
                target[rows] = others[lowest]
        return limit, target


# --------------------------------------------------------------------------
# numerical stabilization

def stabilize_numeric(surface, point, orbits):
    """Subtract an orbit of radial bumps to stabilize an index-1 point
    whose descending line is reversed by its stabilizer.

    The bump turns the point into a local minimum of the surface function
    and creates two new index-1 points on the former descending line; when
    the stabilizer swaps them they form one free orbit.  The modified
    function stays group invariant because the bump is summed over the
    whole orbit of centers.  Its width w is a quarter of the distance from
    the centers to the nearest other critical lift, and its amplitude
    2 lambda w^2, twice what flips the point's descending eigenvalue
    -lambda.
    """
    return _bumped(surface, [_orbit_bump(point, orbits)])


def _orbit_bump(point, orbits):
    """Centers (the lifts of the point's orbit), width and amplitude of the
    bumps that stabilize ``point``, by the rule on ``stabilize_numeric``."""
    if point.index != 1 or point.stable:
        raise UnsupportedProfile(
            "numerical stabilization needs an index-1 point whose descending"
            " line is reversed by the stabilizer")

    orbit = next((o for o in orbits if any(p is point for p in o.points)),
                 None)
    if orbit is None:
        raise UnsupportedProfile("the point does not belong to the orbit list")
    centers = np.array([p.position for p in orbit.points])

    all_positions = np.concatenate(
        [[p.position for p in o.points] for o in orbits])
    d = np.linalg.norm(all_positions[None] - centers[:, None], axis=2)
    nearest = float(d[d > 0].min())

    width = 0.25 * nearest
    return centers, width, 2.0 * abs(min(point.eigenvalues)) * width ** 2


def _bump_parts(x, centers, neg_a2, amplitudes):
    """Offsets from every center and the bump values a exp(|d|^2 / -w^2),
    shapes (n, c, 3) and (n, c)."""
    diff = x[:, None, :] - centers
    e = amplitudes * np.exp(np.einsum("ncj,ncj->nc", diff, diff) / neg_a2)
    return diff, e


def _bumped(surface, bumps):
    """The surface with f minus one radial bump per center, each bump given
    as (centers, width, amplitude); every field evaluates all centers in
    one ``_bump_parts`` call.

    F, its group and its tolerances are those of ``surface``, so the
    level-set work stored on it travels to the bumped surface: the checked
    samples of ``check_surface`` and the projected seed grid of
    ``find_critical_orbits``.  Both are projections onto F = 0 alone."""
    centers = np.concatenate([c for c, _, _ in bumps])
    a2 = np.concatenate([np.full(len(c), w ** 2) for c, w, _ in bumps])
    amplitudes = np.concatenate([np.full(len(c), a) for c, _, a in bumps])
    neg_a2, two_a2, four_a4 = -a2, 2.0 / a2, 4.0 / a2 ** 2

    def morse(x):
        diff, e = _bump_parts(x, centers, neg_a2, amplitudes)
        return surface.morse(x) - e.sum(axis=1)

    def morse_grad(x):
        diff, e = _bump_parts(x, centers, neg_a2, amplitudes)
        return surface.morse_grad(x) + np.einsum("nc,ncj->nj", two_a2 * e,
                                                 diff)

    def morse_hess(x):
        diff, e = _bump_parts(x, centers, neg_a2, amplitudes)
        outer = np.einsum("nci,ncj->ncij", diff, diff)
        return (surface.morse_hess(x)
                - np.einsum("nc,ncij->nij", four_a4 * e, outer)
                + (two_a2 * e).sum(axis=1)[:, None, None] * _EYE3)

    bumped = dataclasses.replace(
        surface, name=surface.name + "+stabilized",
        morse=morse, morse_grad=morse_grad, morse_hess=morse_hess)
    for stored in ("_samples", "_seed_grid"):
        if stored in surface.__dict__:
            object.__setattr__(bumped, stored, surface.__dict__[stored])
    return bumped


def stabilize_all(surface, orbits):
    """Stabilize every unstable orbit with the bumps of stabilize_numeric,
    all subtracted as one bump, and rerun the critical-point search,
    seeding it with each old representative plus points along its former
    descending line where the new saddles appear; the orbit partition
    supplies the other lifts."""
    seeds = [o.representative.position for o in orbits]
    bumps = []
    for orbit in (o for o in orbits if not o.stable):
        p = orbit.representative
        bumps.append(_orbit_bump(p, orbits))
        width, v = bumps[-1][1], p.negative_frame[0]
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
    index-gap-1 pair of orbits.  The result must validate and its
    coinvariant boundary d must square to zero; the invariant boundary is
    S d S^-1, S the diagonal of stabilizer orders, so it then does too."""
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
    except BoundarySquaredNonzero as exc:
        raise BoundarySquaredNonzero(
            "numerically counted flows are inconsistent; a saddle branch "
            f"probably settled at the wrong critical point ({exc})") from exc
    return datum
