"""Exception types shared across the package.

Every domain failure derives from :class:`OrbimorseError` so the CLI can
map them uniformly to exit code 1; file-format problems derive from
:class:`ParseError` and map to exit code 2.
"""

__all__ = [
    "OrbimorseError", "DimensionMismatch", "NotAComplex", "ShapeMismatch",
    "ValidationFailure", "UnknownFlowCount", "UnstablePoint",
    "BoundarySquaredNonzero", "LocalizedHomologyMismatch", "PointNotFound",
    "PointAlreadyStable", "SphereCountMismatch", "UnknownBuiltin", "BadParams",
    "SeedGridExhausted", "DegenerateCritical", "NonConvergentTrajectory",
    "BrokenFlowDetected", "UnstableEndpoint", "UnsupportedProfile",
    "InvalidComplex", "ParseError",
]


class OrbimorseError(Exception):
    """Base class for all domain errors raised by this package."""


# --- exact linear algebra ------------------------------------------------

class DimensionMismatch(OrbimorseError):
    """Matrix shapes are incompatible for the requested operation."""


class NotAComplex(OrbimorseError):
    """The composition of two consecutive boundary maps is nonzero."""


# --- chain complexes -----------------------------------------------------

class ShapeMismatch(OrbimorseError):
    """Boundary matrix shapes do not match the generator counts."""


# --- Morse data ----------------------------------------------------------

class ValidationFailure(OrbimorseError):
    """A Morse datum violates its structural invariants."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid Morse datum:\n" + "\n".join(
            f"  [{v.rule}] {v.message}" for v in report.violations))


class UnknownFlowCount(OrbimorseError):
    """A differential was requested but some flow counts are placeholders."""


class UnstablePoint(OrbimorseError):
    """A differential was requested but some critical points are not stable."""


class BoundarySquaredNonzero(OrbimorseError):
    """The boundary built from the given counts does not square to zero."""


class LocalizedHomologyMismatch(OrbimorseError):
    """The coinvariant and invariant homology of one datum differ away from
    N, the lcm of its stabilizer orders: in a Betti number, or in the
    p-primary torsion for a prime p not dividing N.  Over Z[1/N] the two
    complexes are isomorphic, so this is a defect of the elimination, not
    of the datum."""


# --- stabilization -------------------------------------------------------

class PointNotFound(OrbimorseError):
    """No critical point with the requested id exists in the datum."""


class PointAlreadyStable(OrbimorseError):
    """Stabilization was requested for a point already flagged stable."""


class SphereCountMismatch(OrbimorseError):
    """A sphere Morse datum violates the equivariant critical-point count."""


class UnknownBuiltin(OrbimorseError):
    """No built-in sphere Morse datum or surface kind with that name exists."""


class BadParams(OrbimorseError):
    """Built-in parameters are out of range."""


# --- numerical flow discovery --------------------------------------------

class SeedGridExhausted(OrbimorseError):
    """The critical points found do not account for the surface's Euler
    characteristic; the seed grid missed at least one point."""


class DegenerateCritical(OrbimorseError):
    """A tangent-Hessian eigenvalue at a critical point is below tolerance."""


class NonConvergentTrajectory(OrbimorseError):
    """A gradient trajectory failed to settle at a critical point."""


class BrokenFlowDetected(OrbimorseError):
    """A trajectory limits to a critical point of equal or intermediate
    index, so the pair (function, metric) is not Morse-Smale."""


class UnstableEndpoint(OrbimorseError):
    """Flow-line counting requires both endpoint orbits to be stable."""


class UnsupportedProfile(OrbimorseError):
    """``flow_numerics.stabilize_all`` only handles an unstable index-1
    point, whose descending line is reversed by the stabilizer: the sphere
    datum ``two_points_swap`` is the only one it chooses."""


# --- simplicial complexes ------------------------------------------------

class InvalidComplex(OrbimorseError):
    """The facet list does not describe a valid simplicial complex."""


# --- file formats ----------------------------------------------------------

class ParseError(Exception):
    """A datum or surface file could not be parsed against its schema."""
