"""Numerical discovery of Morse data on implicit surfaces in 3-space with
a finite orthogonal symmetry group.

The pipeline finds critical points by Newton iteration on the Lagrange
system, groups them into group orbits, classifies index / stabilizer /
stability, counts signed flow lines of the projected negative gradient by
following the descending and ascending branches of every saddle, and
descends everything to a Morse datum for the quotient.

A surface gives F and f as two jets (``ImplicitQuotientSurface``): at a
batch of points in component rows, shape (3, n), a jet returns the value
(``None`` with ``value=False``), the gradient (3, n) and the Hessian as
six entry rows (6, n), up to an order; none accepts a single point.  The
saddle branches are integrated as one batch in a fixed order, so runs
produce identical output.  The metric is the induced Euclidean metric,
which is automatically equivariant for an orthogonal group action.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import types
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
# Hessians are entry rows xx, xy, xz, yy, yz, zz: the row of each (i, j) of
# a 3 x 3 matrix, row-major; the (i, j) of each row; the diagonal; 2 I
_SYMMETRIC = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
_ROWS, _COLUMNS = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_DIAGONAL = np.array([0, 3, 5])
_TWICE_UNIT = np.array([[2.0], [0.0], [0.0], [2.0], [0.0], [2.0]])


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds; defaults assume unit-scale surfaces in double
    precision.

    Two lengths place points: positions closer than ``dedup_tol`` are the
    same point (Newton's duplicates, the orbit partition, a lift's
    stabilizer, the end of a census branch), and a census trajectory
    farther than ``escape_radius`` from the origin raises.  A saddle
    branch starts ``10 * dedup_tol`` from its saddle.  No field sizes the
    census steps: each RK4 step is sized by a bound on how fast the
    projected flow changes where the trajectory is (see
    ``FlowLineCounter``).

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
    """A level-set surface F = 0 of known Euler characteristic, with a Morse
    function f and a finite orthogonal group under which both are invariant.
    F and f are jets: ``level_jet(x, order, value=True)`` and
    ``morse_jet(x, order, value)`` take points x as component rows, shape
    (3, n), and return the tuple of the value (n,), the gradient (3, n) and
    the Hessian entry rows xx, xy, xz, yy, yz, zz (6, n) up to ``order`` 0,
    1 or 2, lower orders bit for bit the leading outputs of order 2.  With
    ``value=False`` the value is ``None``, need not be computed, and moves
    no other output's bytes."""

    name: str
    level_jet: object
    morse_jet: object
    group: tuple
    euler_characteristic: int
    tolerances: Tolerances = field(default_factory=Tolerances)
    point_namer: object = None


@dataclass
class NumericCriticalPoint:
    """One lift of a critical point: position, Morse index, stabilizer
    elements (indices into the group), an orthonormal frame spanning the
    descending directions, both tangent-Hessian eigenvalues (ascending),
    and the chosen orientation sign.  A maximum's frame is positively
    oriented against grad F, so ``orientation`` is its only orientation."""

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
    carries the orientation sign; the per-lift frames are its pushforwards."""

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


def _sphere_level(x, order, value=True):
    """The jet of F = |x|^2 - 1, the unit sphere."""
    if order < 2:
        return (np.add.reduce(x * x) - 1.0 if value else None,
                2.0 * x)[:order + 1]
    return *_sphere_level(x, 1, value), np.full((6, x.shape[1]), _TWICE_UNIT)


def _quadric(linear, diagonal=(0.0, 0.0, 0.0)):
    """The jet of f = c . x + (d . x^2) / 2 for the 3-vectors c
    (``linear``) and d (``diagonal``)."""
    c, half = np.reshape(linear, (3, 1)), 0.5 * np.reshape(diagonal, (3, 1))
    hess = np.reshape([diagonal[0], 0, 0, diagonal[1], 0, diagonal[2]], (6, 1))
    linear_only = not any(diagonal)

    def jet(x, order, value=True):
        if order == 2:
            return *jet(x, 1, value), np.full((6, x.shape[1]), hess)
        if linear_only:  # the gradient is c
            return (np.add.reduce(x * c) if value else None,
                    np.full(x.shape, c))[:order + 1]
        hx = half * x
        t = hx + c  # the gradient is t + hx, and f is x . t
        return (np.add.reduce(x * t) if value else None, t + hx)[:order + 1]

    return jet


def sphere_surface(tolerances=None, group=()):
    """The unit sphere with the plain height function."""
    return ImplicitQuotientSurface(
        name="sphere", level_jet=_sphere_level,
        morse_jet=_quadric((0.0, 0.0, 1.0)),
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=2)


@functools.lru_cache(maxsize=16)
def _torus_level(major, minor):
    """The jet of F of the torus with these radii, rho computed once per
    call: one function object per shape, so its tori share ``_level_store``."""

    def jet(x, order, value=True):
        p = np.maximum(np.hypot(x[0], x[1]), 1e-9)
        out = ((p - major) ** 2 + x[2] ** 2 - minor ** 2 if value else None,)
        if order >= 1:
            grad = 2.0 * (p - major) / p * x
            grad[2] = 2.0 * x[2]
            out += (grad,)
        if order >= 2:
            p3 = p ** 3
            h = np.zeros((6, len(p)))
            h[0] = 2.0 - 2.0 * major * x[1] ** 2 / p3
            h[1] = 2.0 * major * x[0] * x[1] / p3
            h[3] = 2.0 - 2.0 * major * x[0] ** 2 / p3
            h[5] = 2.0
            out += (h,)
        return out

    return jet


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
    return ImplicitQuotientSurface(
        name="torus", level_jet=_torus_level(major, minor),
        morse_jet=_quadric((tilt, 0.0, 1.0)),
        group=group_from_generators(group),
        tolerances=tolerances or Tolerances(),
        euler_characteristic=0)


def epsilon_sphere_surface(epsilon=0.8, group=("rotation_pi_z",), tolerances=None):
    """Unit sphere with f = z + epsilon (x^2 - y^2), invariant under the
    half-turn about the z-axis.  For epsilon > 1/2 the poles are saddles
    whose descending line is reversed by the half-turn."""
    _finite(epsilon=epsilon)

    def namer(pos):
        for name, z in (("north_pole", 1.0), ("south_pole", -1.0)):
            if np.linalg.norm(pos - np.array([0.0, 0.0, z])) < 1e-4:
                return name
        return None

    return ImplicitQuotientSurface(
        name="epsilon_sphere", level_jet=_sphere_level,
        morse_jet=_quadric((0.0, 0.0, 1.0), (2 * epsilon, -2 * epsilon, 0.0)),
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
    value, g = surface.level_jet(x.T, 1)
    denom = np.maximum(np.add.reduce(g * g), 1e-300)
    return (value / denom * g).T


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


def _cross(a, b):
    """a x b per row of (n, 3) batches, ``np.cross``'s bytes in fewer calls."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _velocity(surface, x, order=1):
    """Negative gradient of f projected onto the tangent planes at the rows
    of ``x`` (n, 3), and the jets of F and f up to ``order`` and |grad F|.
    ``order`` is the one switch: values at order 2 only (``None`` at 1),
    read only by a census step's first stage; its inner stages use 1."""
    level = surface.level_jet(x.T, order, order == 2)
    morse = surface.morse_jet(x.T, order, order == 2)
    g, gf = level[1], morse[1]
    level_norm = np.sqrt(np.add.reduce(g * g))
    n = g / level_norm
    return (np.add.reduce(n * gf) * n - gf).T, level, morse, level_norm


def _hess_matrices(h):
    """Symmetric (n, 3, 3) matrices of the Hessian entry rows ``h`` (6, n)."""
    return h[_SYMMETRIC].T.reshape(-1, 3, 3)


def _local_rate(level, morse, level_norm):
    """A bound on the Lipschitz rate of the projected flow at each row,
    ||Hess f|| + |grad f| ||Hess F|| / |grad F| in spectral norms, from the
    order-2 jets and |grad F| at the rows.  At a critical point, where
    grad f = lambda grad F, it is at least the largest |tangent-Hessian
    eigenvalue|."""
    norms = np.abs(np.linalg.eigvalsh(_hess_matrices(np.concatenate(
        [level[2], morse[2]], axis=1)))).max(axis=1)
    k = len(level_norm)
    return norms[k:] + _row_norms(morse[1].T) * norms[:k] / level_norm


@functools.lru_cache(maxsize=32)
def _level_store(level_jet):
    """Level-set work shared by every surface with this level jet object,
    read-only: the landed check ``samples`` and the projected seed
    ``grids`` by seed count, radii and dedup_tol.  Holds keys strongly."""
    return types.SimpleNamespace(samples=None, grids={})


def check_surface(surface):
    """Verify the structural invariants: the Euler characteristic is an
    integer, the group a set of finite orthogonal 3 x 3 matrices closed
    under products (so under inverses: each is a power of an element), and
    both fields are invariant on 1,000 Fibonacci directions projected onto
    the surface.  At least half of them must land within 1e-9 of F = 0.

    Every call runs every check.  The samples that landed are kept in
    ``_level_store``, and every surface with the same level jet checks on
    them instead of projecting again; a failed projection keeps none."""
    chi = surface.euler_characteristic
    if not isinstance(chi, numbers.Integral) or isinstance(chi, bool):
        raise BadParams(
            f"euler_characteristic: expected an integer, got {chi!r}")
    tol = surface.tolerances.stab_tol
    try:
        group = np.array(surface.group, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"group: expected 3 x 3 matrices; {exc}") from None
    if not group.size:
        raise BadParams("the group must at least contain the identity")
    if group.shape[1:] != (3, 3):
        raise BadParams(f"group has shape {group.shape}, not (k, 3, 3)")
    if not np.all(np.abs(np.swapaxes(group, 1, 2) @ group - np.eye(3)) <= tol):
        raise BadParams("group contains a non-finite or non-orthogonal matrix")
    keys = {_group_key(g) for g in group}
    if any(_group_key(g @ h) not in keys for g in group for h in group):
        raise BadParams("group is not closed under products")

    store = _level_store(surface.level_jet)
    pts = store.samples
    if pts is None:
        samples = _fibonacci_directions(1000)
        pts = _project_batch(surface, samples)
        pts = pts[np.abs(surface.level_jet(pts.T, 0)[0]) < 1e-9].T.copy()
        if pts.shape[1] < len(samples) // 2:
            raise BadParams(
                "could not project the sample grid onto the surface")
        pts.flags.writeable = False
        store.samples = pts
    for jet, name in ((surface.morse_jet, "Morse"),
                      (surface.level_jet, "level")):
        values = jet(pts, 0)[0]
        if any(np.max(np.abs(jet(g @ pts, 0)[0] - values)) > tol
               for g in group):
            raise BadParams(f"the {name} function is not group invariant")


# --------------------------------------------------------------------------
# critical points

def _bordered_solve(h, g, res):
    """Solve J d = -r, J = [[H, -g], [g^T, 0]], per column of ``g`` (3, n)
    and r = ``res`` (4, n), H symmetric with the entry rows ``h`` (6, n);
    d is (4, n).  With A = adj H, w = g x r[:3] and D = g^T A g = det J,
    d = ((g x Hw - Ag r[3]) / D, (Ag . r[:3] - det H r[3]) / D): a singular
    H with a regular J solves.  A D exactly zero is made NaN, so its row's
    step is NaN."""
    a, b, c, d, e, f = h
    a00, a01, a02 = d * f - e * e, c * e - b * f, b * e - c * d
    a11, a12, a22 = a * f - c * c, b * c - a * e, a * d - b * b
    g0, g1, g2 = g
    ag0 = a00 * g0 + a01 * g1 + a02 * g2
    ag1 = a01 * g0 + a11 * g1 + a12 * g2
    ag2 = a02 * g0 + a12 * g1 + a22 * g2
    det_j = g0 * ag0 + g1 * ag1 + g2 * ag2
    det_j[det_j == 0.0] = np.nan
    r0, r1, r2, r3 = res
    w0, w1, w2 = g1 * r2 - g2 * r1, g2 * r0 - g0 * r2, g0 * r1 - g1 * r0
    hw0 = a * w0 + b * w1 + c * w2
    hw1 = b * w0 + d * w1 + e * w2
    hw2 = c * w0 + e * w1 + f * w2
    delta = np.empty(res.shape)
    delta[0] = g1 * hw2 - g2 * hw1 - ag0 * r3
    delta[1] = g2 * hw0 - g0 * hw2 - ag1 * r3
    delta[2] = g0 * hw1 - g1 * hw0 - ag2 * r3
    delta[3] = (ag0 * r0 + ag1 * r1 + ag2 * r2
                - (a * a00 + b * a01 + c * a02) * r3)
    delta /= det_j
    return delta


def _newton_critical_points(surface, starts):
    """Batched Newton iteration on (grad f = lambda grad F, F = 0).

    ``starts`` are seeds already projected onto the surface
    (``find_critical_orbits``); each is iterated as given, and none is
    changed.  Only live rows are iterated, for at most 80 rounds, and the
    residual is evaluated once per round, at the points just stepped to.  A
    row leaves the batch once its max-norm residual is below ``newton_tol``,
    or when its clipped step (non-finite where J is singular) does not
    lower its merit |res|^2 (Nocedal & Wright, Numerical Optimization, 2nd
    ed., sec. 11.2); clipped, 80 rounds keep a row within 80 * 0.5 *
    sqrt(3) of its start, so no radius is tested.  Retired rows are not
    restarted, and a seed whose level gradient vanishes or is not finite
    never enters.  The residual filter over all rows at the end alone
    decides which points are returned.

    Points, residuals and steps are component rows, (3, n) and (4, n), so
    each test reduces over a short leading axis.  A round evaluates the
    order-2 jets of F and f once, at the points just stepped to: their
    gradients and F make the residual, and their Hessians H_f - lambda H_F,
    entry row by entry row, for the closed form of ``_bordered_solve``.
    """
    def residual(level, morse, lam):
        return np.concatenate([morse[1] - lam * level[1], level[0][None]])

    tols = surface.tolerances
    x = np.array(starts, dtype=float).T.copy()
    level, morse = surface.level_jet(x, 2), surface.morse_jet(x, 2)
    gg = np.add.reduce(level[1] * level[1])
    enters = gg > 0.0  # False for a vanishing or non-finite level gradient
    lam = np.divide(np.add.reduce(morse[1] * level[1]), gg,
                    out=np.zeros(len(gg)), where=enters)
    res = residual(level, morse, lam)
    live = np.flatnonzero(  # NaN: False
        enters & (np.maximum.reduce(np.abs(res)) >= tols.newton_tol))
    g, res, h = level[1][:, live], res[:, live], (
        morse[2] - lam * level[2])[:, live]

    for _ in range(80):
        if not len(live):
            break
        xl, laml = x[:, live], lam[live]
        step = np.clip(_bordered_solve(h, g, res), -0.5, 0.5)
        x[:, live] = xl = xl + step[:3]
        lam[live] = laml = laml + step[3]
        merit = np.add.reduce(res * res)
        level, morse = surface.level_jet(xl, 2), surface.morse_jet(xl, 2)
        res = residual(level, morse, laml)
        keep = ((np.add.reduce(res * res) < merit)  # False if not finite
                & (np.maximum.reduce(np.abs(res)) >= tols.newton_tol))
        live, g, res = live[keep], level[1][:, keep], res[:, keep]
        h = (morse[2] - laml * level[2])[:, keep]

    res = residual(surface.level_jet(x, 1), surface.morse_jet(x, 1), lam)
    return x.T[np.maximum.reduce(np.abs(res)) < tols.newton_tol]


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


def _first_per_cell(points, tol):
    """The first row in each cube of side tol / sqrt(3), in input order."""
    _, first = np.unique(np.floor(points / (tol / np.sqrt(3))), axis=0,
                         return_index=True)
    return points[np.sort(first)]


def _tangent_data(surface, reps):
    """At each critical point of ``reps`` (k, 3): the eigenvalues, ascending,
    of the Hessian of f - lambda F on the tangent plane, (k, 2), and the
    frames [v, n x v], (k, 2, 3): v the unit eigenvector of the smaller one,
    signed so that its largest |entry| is positive, n = grad F / |grad F|.
    n x v is +- the other eigenvector, so every frame is positively oriented
    against grad F, whatever order eigh gives equal eigenvalues' vectors in.
    Degeneracy is checked by the caller."""
    level, morse = surface.level_jet(reps.T, 2), surface.morse_jet(reps.T, 2)
    g, gf = level[1].T, morse[1].T
    lam = np.einsum("ij,ij->i", gf, g) / np.einsum("ij,ij->i", g, g)
    h = _hess_matrices(morse[2] - lam * level[2])
    n = g / _row_norms(g)[:, None]
    axis = np.arange(len(n)), np.argmin(np.abs(n), axis=1)
    t1 = -n[axis][:, None] * n
    t1[axis] += 1.0
    t1 /= _row_norms(t1)[:, None]
    basis = np.stack([t1, _cross(n, t1)], axis=1)
    m = basis @ h @ basis.transpose(0, 2, 1)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
    v = (eigvecs.transpose(0, 2, 1) @ basis)[:, 0]
    v /= _row_norms(v)[:, None]
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    v = np.where(top > 0, v, -v)
    return eigvals, np.stack([v, _cross(n, v)], axis=1)


def find_critical_orbits(surface, extra_seeds=None):
    """Locate all critical points of f on the surface and organize them as
    group orbits, classified by index, stabilizer, and stability.

    Seeds come from a deterministic spherical grid at several radii; the
    points found must include a minimum and a maximum, and their
    alternating count must equal the Euler characteristic (always given),
    otherwise the grid missed a point and SeedGridExhausted is raised; its
    message names the seed radii and the radii at which the seeds meet the
    surface.

    This is the only place seeds are projected onto the surface.  The
    projected seed grid, at the ``_first_per_cell`` row of each cube of
    diameter ``dedup_tol`` (radii meet where grad F is radial), is kept in
    ``_level_store`` per seed count, radii and ``dedup_tol`` for every
    surface with the same level jet; a search on such a surface projects
    only its ``extra_seeds``, which are iterated as given.
    """
    check_surface(surface)
    tols = surface.tolerances
    grids = _level_store(surface.level_jet).grids
    key = tols.seed_count, tols.seed_radii, tols.dedup_tol
    starts = grids.get(key)
    if starts is None:
        dirs = _fibonacci_directions(tols.seed_count)
        starts = grids[key] = _first_per_cell(
            _project_batch(surface, np.concatenate(
                [r * dirs for r in tols.seed_radii])), tols.dedup_tol)
        starts.flags.writeable = False
    if extra_seeds is not None:
        starts = np.concatenate([starts, _project_batch(
            surface, np.reshape(extra_seeds, (-1, 3)))])

    found = _newton_critical_points(surface, starts)
    found = found[_first_of_clusters(found, tols.dedup_tol)]

    # Partition into orbits: the first of group @ p in sorted order, p the
    # first uncovered point, is an orbit's representative and the distinct
    # points of [rep; g @ rep] its lifts.  So an orbit is complete, and its
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
    partition = []
    while not covered.all():
        images = group @ found[np.argmax(~covered)]
        partition.append(lifts_of(images[sort_order(images)[0]]))
        covered |= np.any(np.linalg.norm(
            found[:, None] - partition[-1][0][None], axis=2) < tols.dedup_tol,
            axis=1)

    # Tangent data for every representative at once; each orbit is then
    # checked in partition order, degeneracy before its size.
    spectra, vectors = _tangent_data(
        surface, np.reshape([lifts[0] for lifts, _ in partition], (-1, 3)))
    orbits = []
    for (lift_positions, lift_elems), eigvals, vecs in zip(
            partition, spectra, vectors):
        rep = lift_positions[0]
        if np.min(np.abs(eigvals)) < tols.degeneracy_tol:
            raise DegenerateCritical(
                f"tangent-Hessian eigenvalue {eigvals} below tolerance at "
                f"{rep}")
        eigenvalues, frame = tuple(float(e) for e in eigvals), vecs[eigvals < 0]
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

    # A Morse function on a closed surface has a minimum and a maximum, and
    # the alternating count of its critical lifts is the Euler characteristic
    missing = [name for index, name in ((0, "minimum"), (2, "maximum"))
               if not any(o.index == index for o in orbits)]
    if missing:
        raise SeedGridExhausted(
            f"no {' and no '.join(missing)} found among "
            f"{len(orbits)} critical orbits; a Morse function on a closed "
            f"surface has both{seed_reach()}")
    total = sum((-1) ** o.index * len(o.points) for o in orbits)
    if total != surface.euler_characteristic:
        raise SeedGridExhausted(
            f"alternating critical count {total} does not match the "
            f"surface Euler characteristic {surface.euler_characteristic}"
            f"{seed_reach()}")

    orbits.sort(key=lambda o: (-o.index,
                               tuple(np.round(o.representative.position, 9))))
    counts = [0, 0, 0]  # unnamed orbits so far, per index
    for orbit in orbits:
        namer, i = surface.point_namer, orbit.index
        name = namer and namer(orbit.representative.position)
        if name is None:
            name = f"{('min', 'saddle', 'max')[i]}{counts[i]}"
            counts[i] += 1
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
    bound at the branch's current position: RK4 damps a mode of decay rate k
    only for steps h with h k below ~2.8, and L bounds every such k near x,
    so steps are short only where the flow changes fast.  Its first stage
    takes order-2 jets at x (velocity, value rule, L), the inner stages, off
    the trajectory, order-1 jets without values.  One Newton correction
    (``_level_step``) after each step returns the row towards F = 0 (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, IV.4): a step leaves
    the surface by |F| up to ~1e-1, the next step starts within ~2e-4, below
    the step's own error along the surface, so projecting to roundoff would
    buy nothing the next step keeps.

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
        from it into that saddle lift.  Maxima frames are positively
        oriented against n, so its sign is sign((-+a) x u . n), the arrival
        direction against u, which is +1 on the +a branch.

        A start must lie nearer its saddle than any other lift does, or
        BadParams names ``dedup_tol``.
        """
        s = self.surface
        offset = 10 * self.tols.dedup_tol
        lifts = self.lift_positions
        saddles = [lift for lift, (_, p) in enumerate(self.lifts)
                   if p.index == 1]
        normals = s.level_jet(lifts[saddles].T, 1)[1].T
        normals = normals / _row_norms(normals)[:, None]
        apart = np.linalg.norm(lifts[saddles, None] - lifts, axis=2)
        nearest = np.where(apart > 0.0, apart, np.inf).min(initial=np.inf)
        if offset >= nearest:
            raise BadParams(
                f"tolerances.dedup_tol: a saddle branch starts 10 * dedup_tol"
                f" = {offset:.3g} from its saddle, not below the distance"
                f" {nearest:.3g} to the nearest other critical lift")
        down = np.reshape([self.lifts[lift][1].negative_frame[0]
                           for lift in saddles], (-1, 3))
        tops = {lift for lift, (oi, p) in enumerate(self.lifts)
                if p.index == 2 and p is self.orbits[oi].representative}
        starts, branches = [], []
        for lift, u, a in zip(saddles, down, _cross(normals, down)):
            oi, p = self.lifts[lift]
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
            if end in tops:
                census[ti].append((lift, sign))
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
            k1, level, morse, level_norm = _velocity(s, x, 2)

            done = dmin < capture
            stranded = ~done & (_row_norms(k1) < _STALL_SPEED)
            if stranded.any():
                raise lost("a trajectory stalled away from every critical"
                           " point", stranded.argmax())
            ended = done
            if decides:
                ended = done | self._passed(sign[:, 0], limit, level, morse,
                                            level_norm)
            if ended.any():
                ends[live[ended]] = np.where(done, nearest, target)[ended]
                keep = ~ended
                live, x, sign, k1, limit, target, level_norm = (
                    live[keep], x[keep], sign[keep], k1[keep],
                    limit[keep], target[keep], level_norm[keep])
                level, morse = ([a[..., keep] for a in jet]
                                for jet in (level, morse))
                if not len(live):
                    return ends
            escaped = _row_norms(x) > escape
            if escaped.any():
                raise lost(f"a trajectory escaped to radius {escape}",
                           escaped.argmax())

            rate = _local_rate(level, morse, level_norm)
            bad_rate = ~(np.isfinite(rate) & (rate > 0.0))
            if bad_rate.any():
                raise lost("the local rate of the flow is zero or not finite",
                           bad_rate.argmax())
            # sign * dt times a velocity is dt times the signed velocity,
            # bit for bit
            dt = sign * (1.5 / rate)[:, None]
            half = 0.5 * dt
            k2 = _velocity(s, x + half * k1)[0]
            k3 = _velocity(s, x + half * k2)[0]
            k4 = _velocity(s, x + dt * k3)[0]
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x - _level_step(s, x)
        raise lost(f"{len(live)} trajectories failed to settle within the"
                   " step budget", 0)

    @staticmethod
    def _passed(direction, limit, level, morse, level_norm):
        """The rows that the value rule decides: direction times f plus
        |F| |grad f| / |grad F| is below ``limit``, from the jets of F and f
        and |grad F| at the rows.  A row is corrected towards F = 0 once per
        step, not projected, and the added slack is how far f moves to first
        order along the Newton step |F| / |grad F| that would take it
        there."""
        slack = np.abs(level[0]) * _row_norms(morse[1].T) / level_norm
        return direction * morse[0] + slack < limit

    def _value_rule(self, direction, sources):
        """Per row of ``direction`` (1 descending, -1 ascending) and of
        ``sources`` (the row's saddle orbit), a limit and a target lift: a
        row whose direction times f is below its limit ends at its target.
        A row that cannot be decided so gets limit -inf and target -1.

        Among the lifts outside the row's own orbit, the target is the lift
        lowest in direction times f, the limit the second lowest such value
        less ``stab_tol``; a row gets them only where there are two such
        lifts and that gap exceeds ``stab_tol`` (the margin within which
        ``check_surface`` calls two values of f equal).  Direction times f
        falls strictly along a branch from its saddle's value, which every
        lift of the saddle's orbit shares, so none of them can be its end;
        every other orbit counts, even at that value.  f is read once, at
        every lift; an orbit's lifts share it to roundoff, far below
        ``stab_tol``, so only the lift of a one-lift orbit is ever a
        target."""
        limit = np.full(len(direction), -np.inf)
        target = np.full(len(direction), -1)
        values = self.surface.morse_jet(self.lift_positions.T, 0)[0]
        lift_orbits = np.array([oi for oi, _ in self.lifts])
        margin = self.tols.stab_tol
        for d, oi in set(zip(direction.tolist(), sources.tolist())):
            others = np.flatnonzero(lift_orbits != oi)
            v = d * values[others]
            order = np.argsort(v)
            if len(v) > 1 and v[order[1]] - v[order[0]] > margin:
                rows = (direction == d) & (sources == oi)
                limit[rows] = v[order[1]] - margin
                target[rows] = others[order[0]]
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


def _bump_parts(x, centers, neg_w2):
    """Offsets of the points ``x`` (3, n) from the ``centers`` (3, c, 1),
    (3, c, n), and the Gaussians exp(|d|^2 / -w^2), (c, n)."""
    diff = x[:, None] - centers
    return diff, np.exp(np.add.reduce(diff * diff) / neg_w2)


def _bumped(surface, bumps):
    """The surface with f minus a bump a exp(|x - c|^2 / -w^2) per center c,
    given as (centers, width w, amplitude a); its Morse jet evaluates every
    center in one ``_bump_parts`` call, and a, 2a/w^2, 4a/w^4 are folded.

    F, its group and its tolerances are those of ``surface``, so the
    bumped surface shares its ``_level_store`` entry: the checked samples
    of ``check_surface`` and the projected seed grid of
    ``find_critical_orbits``.  Both are projections onto F = 0 alone."""
    centers = np.concatenate([c for c, _, _ in bumps]).T[:, :, None]
    w2 = np.concatenate([np.full((len(c), 1), w ** 2) for c, w, _ in bumps])
    amps = np.concatenate([np.full((len(c), 1), a) for c, _, a in bumps])
    neg_w2, two_a, four_a = -w2, 2.0 * amps / w2, 4.0 * amps / w2 ** 2

    def morse_jet(x, order, value=True):
        base = surface.morse_jet(x, order, value)
        diff, gauss = _bump_parts(x, centers, neg_w2)
        out = (base[0] - np.add.reduce(amps * gauss) if value else None,)
        if order >= 1:
            we = two_a * gauss
            out += (base[1] + np.add.reduce(we * diff, axis=1),)
        if order >= 2:
            h = base[2] - np.add.reduce(
                four_a * gauss * (diff[_ROWS] * diff[_COLUMNS]), axis=1)
            h[_DIAGONAL] += np.add.reduce(we)
            out += (h,)
        return out

    return dataclasses.replace(surface, name=surface.name + "+stabilized",
                               morse_jet=morse_jet)


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
    """Build the Morse datum of the quotient: one critical point per orbit with
    the stabilizer order of its lifts, and one signed count per index-gap-1
    pair of orbits.  Its coinvariant complex validates it and checks that
    its boundary d squares to zero; the invariant boundary is S d S^-1, S
    the diagonal of stabilizer orders, so it then does too."""
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
    try:
        coinvariant_complex(datum)
    except BoundarySquaredNonzero as exc:
        raise BoundarySquaredNonzero(
            "numerically counted flows are inconsistent; a saddle branch "
            f"probably settled at the wrong critical point ({exc})") from exc
    return datum
