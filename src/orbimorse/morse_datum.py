"""Orbifold Morse data: critical points with stabilizer orders, signed
flow-line counts, and the two boundary operators built from them.

Flow counts are stored pre-summed, one integer per ordered pair of
critical points; a count of ``None`` is a placeholder emitted by
stabilization, to be filled numerically or by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain_complex import FreeChainComplex, verify_complex
from .errors import (
    BoundarySquaredNonzero,
    NonIntegralCoefficient,
    PointNotFound,
    UnknownFlowCount,
    UnstablePoint,
    ValidationFailure,
)

__all__ = [
    "CriticalPointRecord",
    "FlowCount",
    "MorseDatum",
    "Violation",
    "ValidationReport",
    "validate",
    "coinvariant_complex",
    "invariant_complex",
    "orbifold_euler",
    "underlying_euler",
    "ratio_identity_check",
    "RatioIdentityReport",
]


@dataclass(frozen=True)
class CriticalPointRecord:
    """One critical point of the quotient: label, Morse index, order of the
    stabilizer of a lift, and whether the stabilizer acts trivially on the
    descending directions."""

    id: str
    index: int
    stab_order: int
    stable: bool = True


@dataclass(frozen=True)
class FlowCount:
    """Signed number of flow lines from ``source`` down to ``target``.

    ``count`` is the orientation-signed tally over the whole moduli space;
    ``None`` marks a placeholder whose value is not yet known.
    """

    source: str
    target: str
    count: int | None

    @property
    def known(self):
        return self.count is not None


@dataclass(frozen=True)
class MorseDatum:
    points: tuple
    flows: tuple
    ambient_dimension: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "flows", tuple(self.flows))

    def point(self, point_id):
        for p in self.points:
            if p.id == point_id:
                return p
        raise PointNotFound(f"no critical point named {point_id!r}")


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok


def validate(datum):
    """Check the structural invariants of a Morse datum.

    Placeholder flow counts are legal (they carry no divisibility
    obligation); stability is only enforced when a differential is built.
    Returns a report listing every violated rule with the offenders.  The
    report is stored on the (immutable) datum, so the rules are checked
    once per datum however often it is validated.
    """
    stored = datum.__dict__.get("_validation")
    if stored is None:
        stored = ValidationReport(_violations(datum))
        object.__setattr__(datum, "_validation", stored)
    return stored


def _violations(datum):
    """Every violated rule of the datum, in the order ``validate`` reports
    them."""
    violations = []
    seen = set()
    by_id = {}
    for p in datum.points:
        if p.id in seen:
            violations.append(Violation(
                "duplicate-label", f"critical point id {p.id!r} repeats"))
        seen.add(p.id)
        by_id[p.id] = p
        if p.stab_order < 1:
            violations.append(Violation(
                "stab-order-positive",
                f"point {p.id!r} has stabilizer order {p.stab_order}"))
        if p.index < 0:
            violations.append(Violation(
                "negative-index", f"point {p.id!r} has index {p.index}"))
        if datum.ambient_dimension is not None and p.index > datum.ambient_dimension:
            violations.append(Violation(
                "index-exceeds-dimension",
                f"point {p.id!r} has index {p.index} on a "
                f"{datum.ambient_dimension}-dimensional orbifold"))

    seen_pairs = set()
    for f in datum.flows:
        endpoints_ok = True
        for end in (f.source, f.target):
            if end not in by_id:
                violations.append(Violation(
                    "unknown-endpoint", f"flow references missing point {end!r}"))
                endpoints_ok = False
        if not endpoints_ok:
            continue
        if (f.source, f.target) in seen_pairs:
            violations.append(Violation(
                "duplicate-flow",
                f"more than one count for the pair {f.source!r} -> {f.target!r}"))
        seen_pairs.add((f.source, f.target))
        src, tgt = by_id[f.source], by_id[f.target]
        if src.index - tgt.index != 1:
            violations.append(Violation(
                "index-gap",
                f"flow {f.source!r} -> {f.target!r} joins indices "
                f"{src.index} and {tgt.index}; the gap must be exactly 1"))
        if f.known and f.count != 0 and tgt.stab_order % src.stab_order != 0:
            violations.append(Violation(
                "stabilizer-divisibility",
                f"flow {f.source!r} -> {f.target!r} has nonzero count but "
                f"stabilizer order {src.stab_order} does not divide "
                f"{tgt.stab_order}"))
    return tuple(violations)


def _require_valid(datum):
    report = validate(datum)
    if not report:
        raise ValidationFailure(report)


def _require_computable(datum):
    _require_valid(datum)
    unknown = [(f.source, f.target) for f in datum.flows if not f.known]
    if unknown:
        raise UnknownFlowCount(f"placeholder flow counts remain: {unknown}")
    unstable = [p.id for p in datum.points if not p.stable]
    if unstable:
        raise UnstablePoint(f"critical points not stable: {unstable}")


def _boundaries(datum, weight):
    """Unverified complex with one incidence per flow, its count weighted
    by ``weight(source_point, target_point, count)``; generators keep the
    datum's point order within each degree."""
    by_id = {p.id: p for p in datum.points}
    generators = [[] for _ in range(max((p.index + 1 for p in datum.points),
                                        default=0))]
    for p in datum.points:
        generators[p.index].append(p.id)
    incidences = []
    for f in datum.flows:
        p, q = by_id[f.source], by_id[f.target]
        incidences.append((p.index, p.id, q.id, weight(p, q, f.count)))
    return FreeChainComplex.from_incidences(generators, incidences)


def _build_complex(datum, weight):
    complex_ = _boundaries(datum, weight)
    verdict = verify_complex(complex_)
    if not verdict:
        w = verdict.failures[0]
        raise BoundarySquaredNonzero(
            f"boundary squared has entry {w.value} at degree {w.degree}, "
            f"position ({w.row}, {w.col}); the input counts are inconsistent")
    return complex_


def _raw_count(p, q, c):
    return c


def _stabilizer_ratio(p, q, c):
    """Count ``c`` of the flow p -> q times stab(q) / stab(p)."""
    num = c * q.stab_order
    if num % p.stab_order != 0:
        raise NonIntegralCoefficient(
            f"{c} * {q.stab_order} / {p.stab_order} is not an integer "
            f"for flow {p.id!r} -> {q.id!r}")
    return num // p.stab_order


def coinvariant_complex(datum):
    """Chain complex whose boundary entries are the raw signed counts."""
    _require_computable(datum)
    return _build_complex(datum, _raw_count)


def invariant_complex(datum):
    """Chain complex weighting each count by the stabilizer-order ratio
    of target over source; divisibility makes every entry an integer."""
    _require_computable(datum)
    return _build_complex(datum, _stabilizer_ratio)


def orbifold_euler(datum):
    """Exact rational alternating sum of reciprocal stabilizer orders."""
    _require_valid(datum)
    total = Fraction(0)
    for p in datum.points:
        total += Fraction((-1) ** (p.index % 2), p.stab_order)
    return total


def underlying_euler(datum):
    """Alternating count of critical points (Euler characteristic of the
    coinvariant complex)."""
    _require_valid(datum)
    return sum((-1) ** (p.index % 2) for p in datum.points)


@dataclass(frozen=True)
class RatioIdentityEntry:
    source: str
    target: str
    invariant_side: int
    coinvariant_side: int

    @property
    def ok(self):
        return self.invariant_side == self.coinvariant_side


@dataclass(frozen=True)
class RatioIdentityReport:
    entries: tuple

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def __bool__(self):
        return self.ok


def ratio_identity_check(datum):
    """Verify the scalar identity tying the two squared boundaries.

    For every ordered pair (p, r) with index gap 2 the entry of the squared
    invariant boundary times stab(p) must equal the entry of the squared
    coinvariant boundary times stab(r).  This holds for arbitrary integer
    counts, not just those with vanishing boundary squared.  Each squared
    entry is read straight off the flows, as the sum over the 2-step paths
    p -> q -> r of c(p->q) c(q->r), weighted by the stabilizer ratio on
    the invariant side; no complex is built.
    """
    _require_computable(datum)
    by_id = {p.id: p for p in datum.points}
    down = {}
    for f in datum.flows:
        p, q = by_id[f.source], by_id[f.target]
        down.setdefault(p.id, []).append(
            (q.id, f.count, _stabilizer_ratio(p, q, f.count)))
    entries = []
    for p in datum.points:
        co, inv = {}, {}
        for q, c, w in down.get(p.id, ()):
            for r, c2, w2 in down.get(q, ()):
                co[r] = co.get(r, 0) + c * c2
                inv[r] = inv.get(r, 0) + w * w2
        for r in datum.points:
            if p.index - r.index == 2:
                entries.append(RatioIdentityEntry(
                    source=p.id, target=r.id,
                    invariant_side=inv.get(r.id, 0) * p.stab_order,
                    coinvariant_side=co.get(r.id, 0) * r.stab_order))
    return RatioIdentityReport(tuple(entries))
