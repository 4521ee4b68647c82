"""Orbifold Morse data: critical points with stabilizer orders, signed
flow-line counts, and the two boundary operators built from them.

Flow counts are stored pre-summed, one integer per ordered pair of
critical points; a count of ``None`` is a placeholder emitted by
stabilization, to be filled numerically or by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .chain_complex import FreeChainComplex, verify_complex
from .errors import (
    BoundarySquaredNonzero,
    LocalizedHomologyMismatch,
    PointNotFound,
    UnknownFlowCount,
    UnstablePoint,
    ValidationFailure,
)
from .exact_linalg import IntegerMatrix, _conjugate

__all__ = [
    "CriticalPointRecord",
    "FlowCount",
    "MorseDatum",
    "Violation",
    "ValidationReport",
    "validate",
    "coinvariant_complex",
    "invariant_complex",
    "check_away_from_orders",
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
    them.  Each endpoint of a flow is looked up once, and a message is
    formatted only for a rule that is violated."""
    violations = []
    by_id = {}
    dimension = datum.ambient_dimension
    for p in datum.points:
        if p.id in by_id:
            violations.append(Violation(
                "duplicate-label", f"critical point id {p.id!r} repeats"))
        by_id[p.id] = p
        if p.stab_order < 1:
            violations.append(Violation(
                "stab-order-positive",
                f"point {p.id!r} has stabilizer order {p.stab_order}"))
        if p.index < 0:
            violations.append(Violation(
                "negative-index", f"point {p.id!r} has index {p.index}"))
        if dimension is not None and p.index > dimension:
            violations.append(Violation(
                "index-exceeds-dimension",
                f"point {p.id!r} has index {p.index} on a "
                f"{dimension}-dimensional orbifold"))

    seen_pairs = set()
    for f in datum.flows:
        src, tgt = by_id.get(f.source), by_id.get(f.target)
        if src is None or tgt is None:
            for end, point in ((f.source, src), (f.target, tgt)):
                if point is None:
                    violations.append(Violation(
                        "unknown-endpoint",
                        f"flow references missing point {end!r}"))
            continue
        pair = (f.source, f.target)
        if pair in seen_pairs:
            violations.append(Violation(
                "duplicate-flow",
                f"more than one count for the pair {f.source!r} -> {f.target!r}"))
        seen_pairs.add(pair)
        if src.index - tgt.index != 1:
            violations.append(Violation(
                "index-gap",
                f"flow {f.source!r} -> {f.target!r} joins indices "
                f"{src.index} and {tgt.index}; the gap must be exactly 1"))
        # a zero order is reported above, and divides nothing
        if (f.count and src.stab_order
                and tgt.stab_order % src.stab_order != 0):
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
    unknown = [(f.source, f.target) for f in datum.flows if f.count is None]
    if unknown:
        raise UnknownFlowCount(f"placeholder flow counts remain: {unknown}")
    unstable = [p.id for p in datum.points if not p.stable]
    if unstable:
        raise UnstablePoint(f"critical points not stable: {unstable}")


def _boundaries(datum):
    """Unverified complex with one entry per flow, its count, at the row of
    its target and the column of its source.  Generators keep the datum's
    point order within each degree.

    Each point's position in its degree is found once, and each flow
    appends one ``(col, count)`` pair to its target's row.  The datum is
    valid (``_require_computable``): no pair repeats, every endpoint is a
    point and every flow drops the index by one, so the columns of a row
    are distinct and in range and the rows go to the matrix unchecked
    (``IntegerMatrix._from_pairs``)."""
    degrees = range(max((p.index + 1 for p in datum.points), default=0))
    generators, rows = [[] for _ in degrees], [[] for _ in degrees]
    place = {}
    for p in datum.points:
        # p's row in the boundary out of the degree above p's
        row = []
        place[p.id] = (len(generators[p.index]), row)
        generators[p.index].append(p.id)
        rows[p.index].append(row)
    for f in datum.flows:
        place[f.target][1].append((place[f.source][0], f.count))
    return FreeChainComplex(0, generators, [
        IntegerMatrix._from_pairs(len(labels), pair_rows)
        for labels, pair_rows in zip(generators, [[]] + rows)])


def _verified(complex_):
    """``complex_``, once ``verify_complex`` passes it; otherwise
    ``BoundarySquaredNonzero`` naming the first nonzero entry of the
    first failing square."""
    verdict = verify_complex(complex_)
    if not verdict:
        w = verdict.failures[0]
        source = complex_.generators[w.degree][w.col]
        target = complex_.generators[w.degree - 2][w.row]
        raise BoundarySquaredNonzero(
            f"boundary squared has entry {w.value} at degree {w.degree}, "
            f"position ({w.row}, {w.col}), from {source!r} to {target!r}; "
            f"the input counts are inconsistent")
    return complex_


def _stored_coinvariant(datum):
    """The verified raw-count complex of a computable datum.  It is built
    and its squares formed once, then stored on the (immutable) datum, as
    ``validate`` stores its report; a datum whose counts fail raises
    ``BoundarySquaredNonzero`` and stores nothing."""
    stored = datum.__dict__.get("_coinvariant")
    if stored is None:
        _require_computable(datum)
        stored = _verified(_boundaries(datum))
        object.__setattr__(datum, "_coinvariant", stored)
    return stored


def _stabilizer_ratio(p, q, c):
    """Count ``c`` of the flow p -> q times stab(q) / stab(p), an exact
    quotient: ``ratio_identity_check`` runs ``_require_computable``, whose
    ``validate`` makes stab(p) divide stab(q) wherever ``c`` is nonzero."""
    return c * q.stab_order // p.stab_order


def coinvariant_complex(datum):
    """Chain complex whose boundary entries are the raw signed counts.

    It is built and checked for ``boundary^2 = 0`` once per datum and
    stored on it; later calls return the stored complex."""
    return _stored_coinvariant(datum)


def invariant_complex(datum):
    """Chain complex S ∂ S⁻¹ of the stored coinvariant complex ∂, with
    S = diag(stab(p)): the count c of each flow p -> q becomes
    c * stab(q) / stab(p), an integer by the divisibility rule.

    The generators are the coinvariant complex's, and no flow is read
    again.  Its squares are S ∂² S⁻¹, zero exactly when the coinvariant
    ones are, so inconsistent counts raise ``BoundarySquaredNonzero``
    naming the entry of the raw-count square; the invariant square holds
    stab(r) / stab(p) times that entry at the same position.  The
    verification forms no product (``exact_linalg._conjugate``)."""
    coinvariant = _stored_coinvariant(datum)
    orders = [[] for _ in coinvariant.generators]
    for p in datum.points:
        orders[p.index].append(p.stab_order)
    return _verified(FreeChainComplex(0, coinvariant.generators, _conjugate(
        coinvariant.boundaries, orders)))


def check_away_from_orders(datum, coinvariant, invariant):
    """Raise ``LocalizedHomologyMismatch`` unless ``coinvariant`` and
    ``invariant``, the homology groups of ``datum``'s two complexes by
    degree, agree away from N, the lcm of its stabilizer orders.

    Over Z[1/N] the diagonal S = diag(stab(p)) is invertible, so the two
    complexes are isomorphic there: in every degree their Betti numbers
    are equal, and so is their p-primary torsion for every prime p not
    dividing N.  The parts prime to N of a chain of invariant factors,
    those > 1, are the invariant factors of that torsion, so the chains
    are compared."""
    n = lcm(*(p.stab_order for p in datum.points))
    for co, inv in zip(coinvariant, invariant):
        if (co.betti != inv.betti
                or _prime_to(co.torsion, n) != _prime_to(inv.torsion, n)):
            raise LocalizedHomologyMismatch(
                f"in degree {co.degree} the coinvariant homology {co} and "
                f"the invariant homology {inv} differ away from {n}; the "
                f"elimination is at fault, not the datum")


def _prime_to(factors, n):
    """The part prime to ``n`` of each of ``factors``, those > 1."""
    parts = []
    for t in factors:
        while (g := gcd(t, n)) > 1:
            t //= g
        if t > 1:
            parts.append(t)
    return parts


def orbifold_euler(datum):
    """Exact rational alternating sum of reciprocal stabilizer orders,
    one fraction per distinct (index parity, stabilizer order)."""
    _require_valid(datum)
    shapes = Counter((p.index % 2, p.stab_order) for p in datum.points)
    return sum((Fraction(n if parity == 0 else -n, order)
                for (parity, order), n in shapes.items()), Fraction(0))


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
