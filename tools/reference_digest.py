"""Digests of the numerical pipeline on its reference cases.

Prints one line per case: its name, the sha256 of ``repr`` of the datum
``quotient_to_datum`` builds (or of the type and message of the
``OrbimorseError`` the case raises), the sha256 of the position and
eigenvalue bytes of every critical lift found on the way, and the sha256
of the same numbers rounded to 9 decimals (with -0.0 made 0.0).  Two
checkouts that print the same lines build equal datums from byte-equal
lifts:

    PYTHONPATH=src python3 tools/reference_digest.py > before.txt
    (change the code)
    PYTHONPATH=src python3 tools/reference_digest.py > after.txt
    diff before.txt after.txt

``reference_datums.txt`` beside this file records the first, second and
fourth columns, the case names, datum digests and rounded lift digests,
and CI compares them with every run:

    PYTHONPATH=src python3 tools/reference_digest.py | cut -d' ' -f1,2,4 \
        | diff tools/reference_datums.txt -

The exact lift digests are left out there, since their bytes depend on
the numpy build; rounded to 9 decimals the lifts survive roundoff, so a
lift that moves is still caught.  The error messages in the datum column
print their numbers with at most three significant digits.  ``main``
takes a list of cases, so CI also runs them last to first and compares
all four columns with the forward run: no case's lifts depend on the
surfaces run before it, though surfaces with the same level set share
their projected seeds.

    PYTHONPATH=src:tools python3 -c \
        'import reference_digest as r; r.main(list(r.cases())[::-1])' \
        | sort > reverse.txt

The cases: the torus at 25 tilts from 0.02 to 0.5, the stabilized epsilon
sphere at 20 values of epsilon from 0.55 to 1.5, the sphere, an
antipodally symmetric sphere, the sphere with the antipodal group (its
height is not invariant), and, on the stabilized epsilon = 0.8 sphere,
each orbit's orientation flipped in turn and the first descending
direction of each saddle and of the maximum negated on every lift; maxima
frames do not enter counts, so the maximum's frame case must build the
unedited datum.  Then
the probes that fail with a typed error: the epsilon = 0.3 sphere and the
sphere with the half-turn, whose cone points stabilization does not
handle, and a torus at 20 times the unit scale, which the seed grid
misses; and the epsilon = 0.8 sphere built by ``surface_from_spec`` with
an empty group, which is the trivial group.  Any error that is not an
``OrbimorseError`` propagates and fails the run.
"""

import functools
import hashlib

import numpy as np

from orbimorse import flow_numerics as fn
from orbimorse.errors import OrbimorseError


def antipodal_sphere_surface():
    """The unit sphere with f = z^2 + x^2 / 2, invariant under x -> -x."""
    return fn.ImplicitQuotientSurface(
        name="antipodal_sphere", level_jet=fn._sphere_level,
        morse_jet=fn._quadric((0.0, 0.0, 0.0), (1.0, 0.0, 2.0)),
        group=fn.group_from_generators(("antipodal",)),
        euler_characteristic=2)


def solve(make, edit=None):
    """Build the surface, find (and if needed stabilize) its orbits, apply
    ``edit`` to them and build the datum; returns the datum (or the error)
    and every orbit list found."""
    found = []
    try:
        surface = make()
        found.append(fn.find_critical_orbits(surface))
        if any(not o.stable for o in found[-1]):
            surface, orbits = fn.stabilize_all(surface, found[-1])
            found.append(orbits)
        if edit is not None:
            edit(found[-1])
        return repr(fn.quotient_to_datum(surface, found[-1])), found
    except OrbimorseError as exc:
        return f"{type(exc).__name__}: {exc}", found


def flip_orientation(label):
    def edit(orbits):
        orbit = next(o for o in orbits if o.label == label)
        orbit.representative.orientation *= -1
    return edit


def flip_frame(label):
    def edit(orbits):
        for point in next(o for o in orbits if o.label == label).points:
            point.negative_frame = point.negative_frame.copy()
            point.negative_frame[0] *= -1
    return edit


def cases():
    for tilt in np.linspace(0.02, 0.5, 25):
        yield (f"torus-{tilt:.2f}",
               lambda t=float(tilt): fn.torus_surface(tilt=t), None)
    for value in np.linspace(0.55, 1.5, 20):
        yield (f"epsilon-{value:.2f}",
               lambda e=float(value): fn.epsilon_sphere_surface(epsilon=e),
               None)
    yield "sphere", fn.sphere_surface, None
    yield "antipodal_sphere", antipodal_sphere_surface, None
    yield ("sphere-antipodal-group",
           lambda: fn.sphere_surface(group=("antipodal",)), None)
    epsilon = functools.partial(fn.epsilon_sphere_surface, epsilon=0.8)
    for label in ("max0", "saddle0", "saddle1", "min0", "north_pole",
                  "south_pole"):
        yield (f"epsilon-0.80-orientation-{label}", epsilon,
               flip_orientation(label))
    for label in ("max0", "saddle0", "saddle1"):
        yield f"epsilon-0.80-frame-{label}", epsilon, flip_frame(label)
    yield ("epsilon-0.30", lambda: fn.epsilon_sphere_surface(epsilon=0.3),
           None)
    yield ("sphere-rotation_pi_z",
           lambda: fn.sphere_surface(group=("rotation_pi_z",)), None)
    yield ("torus-major-20-minor-10",
           lambda: fn.torus_surface(major=20.0, minor=10.0), None)
    yield ("epsilon-0.80-spec-empty-group",
           lambda: fn.surface_from_spec("epsilon_sphere", {"epsilon": 0.8},
                                        []), None)


def main(selected=None):
    """Print the digest line of each ``(name, make, edit)`` case of
    ``selected``, all of ``cases()`` by default, in the order given."""
    for name, make, edit in cases() if selected is None else selected:
        datum, found = solve(make, edit)
        lifts, rounded = hashlib.sha256(), hashlib.sha256()
        for orbits in found:
            for orbit in orbits:
                for point in orbit.points:
                    for values in (point.position, point.eigenvalues):
                        values = np.asarray(values, dtype=float)
                        lifts.update(values.tobytes())
                        rounded.update((np.round(values, 9) + 0.0).tobytes())
        print(name, hashlib.sha256(datum.encode()).hexdigest(),
              lifts.hexdigest(), rounded.hexdigest())


if __name__ == "__main__":
    main()
